//! Constant-complement propagations (paper §1 discussion).
//!
//! Bancilhon–Spyratos' *constant complement* criterion additionally
//! requires that a propagation has **no effect on the invisible parts** of
//! the document: no hidden node is deleted, none is inserted. The paper
//! notes that "while this approach produces at most one propagation, it
//! may not exist" — which is why the main algorithm instead minimises the
//! invisible impact. This module makes the criterion executable:
//!
//! * [`invisible_impact`] quantifies how a given propagation touches the
//!   hidden part (the paper's "amount of invisible nodes" the cost
//!   minimisation controls);
//! * [`find_complement_preserving`] searches the propagation graphs with
//!   all invisible-mutation edges removed, returning a
//!   complement-preserving propagation iff one exists.

use crate::algorithm::{assemble, Config};
use crate::cost::CostModel;
use crate::error::PropagateError;
use crate::forest::PropagationForest;
use crate::graph::{PropEdge, PropGraph};
use crate::instance::Instance;
use crate::pathgraph::PathGraph;
use crate::scratch::PropScratch;
use xvu_edit::{EditOp, Script};

/// How a propagation touches the invisible part of the document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvisibleImpact {
    /// Hidden source nodes deleted by the propagation.
    pub deleted: usize,
    /// Fresh invisible nodes inserted by the propagation (padding).
    pub inserted: usize,
    /// Hidden source nodes preserved untouched.
    pub preserved: usize,
}

impl InvisibleImpact {
    /// Whether the propagation leaves the complement constant.
    pub fn is_constant_complement(&self) -> bool {
        self.deleted == 0 && self.inserted == 0
    }

    /// Total invisible churn (the quantity `P_min` minimises).
    pub fn churn(&self) -> usize {
        self.deleted + self.inserted
    }
}

/// Measures the invisible impact of a propagation script.
///
/// A script node is *invisible* if it is absent from both the old view
/// (`A(t)`) and the new view (`A(Out(S'))`); since side-effect freedom
/// fixes both views, classifying against the instance's views is exact.
/// Those views are `In(S)` and `Out(S)` — the update's non-`Ins` and
/// non-`Del` nodes — so together they are exactly the update's nodes.
pub fn invisible_impact(inst: &Instance<'_>, script: &Script) -> InvisibleImpact {
    let mut impact = InvisibleImpact::default();
    for n in script.preorder() {
        if inst.update.contains(n) {
            continue;
        }
        match script.label(n).op {
            EditOp::Del => impact.deleted += 1,
            EditOp::Ins => impact.inserted += 1,
            EditOp::Nop => impact.preserved += 1,
        }
    }
    impact
}

/// Searches for a propagation that never deletes or inserts an invisible
/// node. Returns `Ok(None)` when no such propagation exists (the paper's
/// caveat), `Ok(Some(script))` otherwise.
///
/// The search restricts every propagation graph to the edges that do not
/// mutate the complement: (iii) invisible nop, (v)/(vi) visible
/// delete/nop, and (iv) visible inserts whose fragments invert with zero
/// padding. (A visible delete removes the hidden descendants of the
/// deleted *visible* node with it; under the constant-complement reading
/// used here — and by the cost model — those belong to the deleted
/// visible region, not the untouched complement. Pass the result to
/// [`invisible_impact`] for the strict census.)
pub fn find_complement_preserving(
    inst: &Instance<'_>,
    forest: &PropagationForest,
    cost: &CostModel<'_>,
    cfg: &Config,
) -> Result<Option<Script>, PropagateError> {
    find_complement_preserving_with(inst, forest, cost, cfg, &mut PropScratch::new())
}

/// [`find_complement_preserving`] over a session's pooled scratch, for a
/// full or a skeleton forest. A clean node of a skeleton forest carries no
/// graph and is feasible by construction: its identity path — all
/// (iii)/(vi) `Nop` edges into clean children — survives the filter.
pub(crate) fn find_complement_preserving_with(
    inst: &Instance<'_>,
    forest: &PropagationForest,
    cost: &CostModel<'_>,
    cfg: &Config,
    scratch: &mut PropScratch,
) -> Result<Option<Script>, PropagateError> {
    // Restrict graphs bottom-up; a node whose restricted graph has no path
    // poisons its parents' (vi)-edges. The forest stores children before
    // parents, so one pass in storage order suffices.
    let nodes = forest.nodes();
    let mut feasible: Vec<bool> = Vec::with_capacity(nodes.len());
    let mut filtered: Vec<Option<PropGraph>> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let Some(g) = node.graph() else {
            feasible.push(true);
            filtered.push(None);
            continue;
        };
        let mut fg: PropGraph = PathGraph::new(
            (0..g.n_vertices() as u32).map(|v| *g.vertex(v)).collect(),
            g.start(),
        );
        for v in 0..g.n_vertices() as u32 {
            if g.is_goal(v) {
                fg.set_goal(v);
            }
        }
        for (_, e) in g.edges() {
            let keep = match e.payload {
                PropEdge::InsInvisible(_) | PropEdge::DelInvisible { .. } => false,
                PropEdge::NopInvisible { .. } | PropEdge::DelVisible { .. } => true,
                PropEdge::InsVisible { .. } => {
                    forest
                        .child_of(node, &e.payload)
                        .and_then(|c| forest.inversion(c))
                        .expect("built forest has an inversion per Ins child")
                        .min_padding()
                        == 0
                }
                PropEdge::NopVisible { .. } => forest
                    .child_of(node, &e.payload)
                    .and_then(|c| forest.position(c))
                    .is_some_and(|p| feasible.get(p) == Some(&true)),
            };
            if keep {
                fg.add_edge(e.from, e.to, e.weight, e.payload.clone());
            }
        }
        feasible.push(fg.best_cost_with(scratch.graph_mut()).is_some());
        filtered.push(Some(fg));
    }

    let root = forest.position(forest.root).expect("root in forest");
    if !feasible[root] {
        return Ok(None);
    }

    // Assemble from the filtered graphs (all remaining edges are
    // complement-preserving; pick cheapest paths for determinism).
    let script = assemble(inst, forest, cost, cfg, |n| {
        let g = forest
            .position(n)
            .and_then(|p| filtered[p].as_ref())
            .ok_or(PropagateError::NoPropagationPath(n))?;
        let path = g
            .shortest_path_with(scratch.graph_mut())
            .ok_or(PropagateError::NoPropagationPath(n))?;
        Ok(path.iter().map(|&e| g.edge(e).payload.clone()).collect())
    })?;
    Ok(Some(script))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::propagate;
    use crate::fixtures;
    use crate::verify::verify_propagation;
    use xvu_dtd::{min_sizes, parse_dtd, InsertletPackage};
    use xvu_edit::parse_script;
    use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};
    use xvu_view::parse_annotation;

    #[test]
    fn impact_of_paper_propagation() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let prop = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
        let impact = invisible_impact(&inst, &prop.script);
        // Fig. 7: deletes hidden b2, a7 (inside the deleted d3 group) and
        // c5? — no: c5 is kept (Nop). Deleted hidden: b2, a7. Inserted
        // hidden: padding inside d11's inverse (2), after a12 (1), inside
        // d6 (1) = 4.
        assert_eq!(impact.deleted, 2);
        assert_eq!(impact.inserted, 4);
        assert!(impact.preserved >= 2); // c5 and b9 stay
        assert!(!impact.is_constant_complement());
        assert_eq!(impact.churn(), 6);
    }

    #[test]
    fn complement_preserving_does_not_exist_for_s0() {
        // S0 inserts a d-group whose inverse necessarily pads with hidden
        // nodes — no constant-complement propagation exists.
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = PropagationForest::build(&inst, &cm).unwrap();
        let found = find_complement_preserving(&inst, &forest, &cm, &Config::default()).unwrap();
        assert!(found.is_none(), "the paper's caveat: it may not exist");
    }

    #[test]
    fn complement_preserving_exists_when_schema_is_permissive() {
        // hospital-like: inserting a patient needs no hidden padding.
        let mut alpha = Alphabet::new();
        let dtd = parse_dtd(&mut alpha, "r -> (a.h?)*").unwrap();
        let ann = parse_annotation(&mut alpha, "hide r h").unwrap();
        let mut gen = NodeIdGen::new();
        let source = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1, h#2)").unwrap();
        let update = parse_script(&mut alpha, "nop:r#0(nop:a#1, ins:a#5)").unwrap();
        let inst = Instance::new(&dtd, &ann, &source, &update, alpha.len()).unwrap();
        let sizes = min_sizes(&dtd, alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = PropagationForest::build(&inst, &cm).unwrap();
        let found = find_complement_preserving(&inst, &forest, &cm, &Config::default())
            .unwrap()
            .expect("a constant-complement propagation exists here");
        verify_propagation(&inst, &found).unwrap();
        let impact = invisible_impact(&inst, &found);
        assert!(impact.is_constant_complement(), "impact: {impact:?}");
        assert_eq!(impact.preserved, 1); // h#2 untouched
    }

    #[test]
    fn identity_update_is_always_constant_complement() {
        let fx = fixtures::paper_running_example();
        let view = xvu_view::extract_view(&fx.ann, &fx.t0);
        let s = xvu_edit::nop_script(&view);
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &s, fx.alpha.len()).unwrap();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = PropagationForest::build(&inst, &cm).unwrap();
        let found = find_complement_preserving(&inst, &forest, &cm, &Config::default())
            .unwrap()
            .expect("identity is trivially complement preserving");
        verify_propagation(&inst, &found).unwrap();
        assert_eq!(xvu_edit::cost(&found), 0);
        assert!(invisible_impact(&inst, &found).is_constant_complement());
    }
}
