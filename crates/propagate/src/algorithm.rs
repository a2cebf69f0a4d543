//! The end-to-end propagation algorithm (paper §5, Theorem 6).
//!
//! 1. Build the optimal propagation graphs for the source document and the
//!    view update (plus inversion graphs for inserted fragments).
//! 2. Choose exactly one propagation (inversion) path per graph with the
//!    preference function `Φ` ([`crate::Selector`]).
//! 3. Assemble the propagation script from the chosen paths: copy the
//!    source once as the identity script, then rewrite the child lists of
//!    the nodes whose path is not the identity, materialising insertlets
//!    for invisible inserts.
//!
//! With a polynomial `Φ` and an insertlet package `W`, the whole pipeline
//! is polynomial in `|D| + |t| + |S| + |W|`.

use crate::cache::MemoTable;
use crate::cost::CostModel;
use crate::error::PropagateError;
use crate::forest::PropagationForest;
use crate::graph::PropEdge;
use crate::instance::Instance;
use crate::scratch::PropScratch;
use crate::selection::Selector;
use std::time::Instant;
use xvu_dtd::{min_sizes, InsertletPackage};
use xvu_edit::{ELabel, Script};
use xvu_tree::{NodeId, NodeIdGen};

/// Tuning knobs for [`propagate`].
#[derive(Clone, Debug)]
pub struct Config {
    /// The path-preference function `Φ`.
    pub selector: Selector,
    /// Node budget for materialising minimal witnesses when a label has no
    /// insertlet (guards against the paper's exponential-minimal-tree
    /// DTDs).
    pub witness_budget: u64,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            selector: Selector::PreferNop,
            witness_budget: 100_000,
        }
    }
}

/// Wall-clock time by phase, in nanoseconds: a session's phase clock
/// ([`crate::Session::phases`]), which every [`crate::Session::propagate`]
/// and every successful [`crate::Session::commit`] adds to. The kernel
/// adds the graph, typing and assembly phases of each propagation; the
/// session adds instance assembly and commit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Instance construction and validation.
    pub instance_ns: u64,
    /// Propagation-graph construction (forest build minus typing).
    pub graph_build_ns: u64,
    /// Content-model typing runs inside the forest build.
    pub typing_ns: u64,
    /// Path selection and script assembly.
    pub assemble_ns: u64,
    /// Committing a propagation: the script check, revalidation, the
    /// in-place apply, re-interning and the view patch.
    pub commit_ns: u64,
}

/// The result of a propagation: the script, its cost, and the graphs it
/// was read off (kept for inspection, counting, and enumeration).
#[derive(Clone, Debug)]
pub struct Propagation {
    /// The propagation script `S'` (input tree = the source document).
    pub script: Script,
    /// Its cost — equal to [`PropagationForest::optimal_cost`].
    pub cost: u64,
    /// The graphs.
    pub forest: PropagationForest,
}

/// Computes the unique optimal propagation of `inst` under the given
/// insertlets and configuration.
///
/// The returned script is schema compliant and side-effect free
/// (Theorems 3–4); [`crate::verify_propagation`] re-checks this
/// explicitly.
pub fn propagate(
    inst: &Instance<'_>,
    insertlets: &InsertletPackage,
    cfg: &Config,
) -> Result<Propagation, PropagateError> {
    let sizes = min_sizes(inst.dtd, inst.alphabet_len);
    let cost = CostModel {
        sizes: &sizes,
        insertlets,
    };
    propagate_with(inst, &cost, cfg)
}

/// The propagation core, parameterised by a prebuilt cost model so callers
/// holding cached min-size tables (the [`crate::Engine`]) skip the
/// per-call `min_sizes` recomputation that [`propagate`] performs.
pub(crate) fn propagate_with(
    inst: &Instance<'_>,
    cost: &CostModel<'_>,
    cfg: &Config,
) -> Result<Propagation, PropagateError> {
    let mut phases = PhaseBreakdown::default();
    propagate_with_memo(inst, cost, cfg, None, &mut PropScratch::new(), &mut phases)
}

/// The memo-aware propagation core: with `memo` the forest is a skeleton
/// ([`PropagationForest`]): graphs are built only inside the update's
/// footprint, each clean child is the identity at cost 0, and the script
/// copies it from the source. Without `memo` this is exactly
/// [`propagate_with`]; with it the result is byte-identical. The graph,
/// typing and assembly time is added to `phases`.
pub(crate) fn propagate_with_memo(
    inst: &Instance<'_>,
    cost: &CostModel<'_>,
    cfg: &Config,
    memo: Option<&mut MemoTable>,
    scratch: &mut PropScratch,
    phases: &mut PhaseBreakdown,
) -> Result<Propagation, PropagateError> {
    let t0 = Instant::now();
    let mut typing_ns = 0;
    let forest = PropagationForest::build_with(inst, cost, memo, scratch, &mut typing_ns);
    phases.typing_ns += typing_ns;
    phases.graph_build_ns += nanos_since(t0).saturating_sub(typing_ns);
    let forest = forest?;
    let t1 = Instant::now();
    let script = assemble(inst, &forest, cost, cfg, |n| {
        let opt = forest
            .graph(n)
            .ok_or(PropagateError::NoPropagationPath(n))?
            .optimal_subgraph_with(scratch.graph_mut())
            .ok_or(PropagateError::NoPropagationPath(n))?;
        let path = opt
            .walk(|g, outs| cfg.selector.pick(g, outs))
            .ok_or(PropagateError::NoPropagationPath(n))?;
        Ok(path.iter().map(|&e| opt.edge(e).payload.clone()).collect())
    });
    phases.assemble_ns += nanos_since(t1);
    let script = script?;
    let cost_total = forest.optimal_cost();
    debug_assert_eq!(xvu_edit::cost(&script) as u64, cost_total);
    Ok(Propagation {
        script,
        cost: cost_total,
        forest,
    })
}

/// The nanoseconds since `t0`.
pub(crate) fn nanos_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Convenience entry point for applications that edit the *view tree*
/// directly instead of building scripts: derives the view update by
/// identifier-based diff (`xvu_edit::diff`) and propagates it.
///
/// `edited_view` must be obtained from `extract_view(ann, source)` by
/// subtree insertions/deletions (identifiers of kept nodes preserved,
/// fresh identifiers disjoint from the source's).
pub fn propagate_view_edit(
    dtd: &xvu_dtd::Dtd,
    ann: &xvu_view::Annotation,
    source: &xvu_tree::DocTree,
    edited_view: &xvu_tree::DocTree,
    alphabet_len: usize,
    insertlets: &InsertletPackage,
    cfg: &Config,
) -> Result<Propagation, PropagateError> {
    let view = xvu_view::extract_view(ann, source);
    let update = xvu_edit::diff(&view, edited_view)?;
    let inst = Instance::new(dtd, ann, source, &update, alphabet_len)?;
    propagate(&inst, insertlets, cfg)
}

/// Assembles a propagation script from one chosen path per preserved
/// node, read off `path_of` (the optimal walk under `Φ` here, the
/// filtered-graph path in [`crate::find_complement_preserving`]).
///
/// The script starts as one bulk `Nop` copy of the source — the identity
/// propagation — and only the child lists of nodes whose chosen path is
/// not the identity are rewritten: a deleted child subtree is relabelled
/// `Del`, an inserted fragment is appended (an insertlet for an
/// invisible insert, a minimal inverse for a visible one), and the list
/// is then put in the path's order. A node whose cheapest propagation
/// costs 0 is never visited: every 0-weight edge of `G_n` is a `Nop` edge
/// (deletions weigh the subtree size, inserts at least 1), so any such
/// path reproduces the source subtree, which the copy already holds. A
/// cost-0 node also keeps its identity path under the complement filter,
/// which drops no `Nop` edge into a feasible child.
///
/// The walk is depth-first on an explicit stack, so no document depth can
/// overflow the native stack. A frame descends into a kept visible child
/// as soon as its path reaches it and resumes afterwards, which draws
/// fresh identifiers in the same order as a recursive assembly would.
/// Before each inserted fragment draws its fresh identifiers, the
/// generator is checked for room ([`PropagateError::IdentifiersExhausted`]
/// otherwise): a fragment needs exactly its charge, an inverse its
/// padding.
pub(crate) fn assemble(
    inst: &Instance<'_>,
    forest: &PropagationForest,
    cost: &CostModel<'_>,
    cfg: &Config,
    mut path_of: impl FnMut(NodeId) -> Result<Vec<PropEdge>, PropagateError>,
) -> Result<Script, PropagateError> {
    /// One node being rewritten: the rest of its path, and its new child
    /// list so far.
    struct Frame {
        n: NodeId,
        path: std::vec::IntoIter<PropEdge>,
        order: Vec<NodeId>,
    }
    // Cost-0 nodes get no frame: their copy is final.
    let mut open = |n: NodeId| -> Result<Option<Frame>, PropagateError> {
        if forest.cost(n) == Some(0) {
            return Ok(None);
        }
        let path = path_of(n)?.into_iter();
        Ok(Some(Frame {
            n,
            path,
            order: Vec::new(),
        }))
    };
    let mut gen = inst.id_gen();
    let mut script: Script = inst.source.map_labels(|_, &l| ELabel::nop(l));
    let mut stack: Vec<Frame> = open(forest.root)?.into_iter().collect();
    while let Some(top) = stack.last_mut() {
        let n = top.n;
        let Some(edge) = top.path.next() else {
            script.reorder_children(n, &top.order)?;
            stack.pop();
            continue;
        };
        // Positional edges resolve against the node's child words — see
        // `PropEdge`: for common children the source id serves both trees.
        let t_kids = inst.source.children(n);
        let child = match edge {
            PropEdge::InsInvisible(y) => {
                reserve(&gen, cost.charge(y))?;
                let frag = cost.insertlets.instantiate(
                    inst.dtd,
                    cost.sizes,
                    y,
                    &mut gen,
                    cfg.witness_budget,
                )?;
                script.append_mapped_subtree(n, &frag, frag.root(), |&l| ELabel::ins(l))?;
                frag.root()
            }
            PropEdge::InsVisible { spos } => {
                let inv = forest
                    .inversion(inst.update.children(n)[spos as usize])
                    .expect("built forest has an inversion per Ins child");
                reserve(&gen, inv.min_padding())?;
                let inv = inv.materialize_min(
                    inst.dtd,
                    cost,
                    cfg.selector,
                    &mut gen,
                    cfg.witness_budget,
                )?;
                script.append_mapped_subtree(n, &inv, inv.root(), |&l| ELabel::ins(l))?;
                inv.root()
            }
            PropEdge::DelInvisible { tpos } | PropEdge::DelVisible { tpos } => {
                let c = t_kids[tpos as usize];
                script.relabel_subtree(c, |l| ELabel::del(l.label))?;
                c
            }
            PropEdge::NopInvisible { tpos, .. } | PropEdge::NopVisible { tpos, .. } => {
                t_kids[tpos as usize]
            }
        };
        top.order.push(child);
        if matches!(edge, PropEdge::NopVisible { .. }) {
            stack.extend(open(child)?);
        }
    }
    Ok(script)
}

/// Fails unless `gen` can still hand out `needed` fresh identifiers.
fn reserve(gen: &NodeIdGen, needed: u64) -> Result<(), PropagateError> {
    let available = gen.remaining();
    if needed > available {
        return Err(PropagateError::IdentifiersExhausted { needed, available });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::verify::verify_propagation;
    use xvu_edit::script_to_term;

    #[test]
    fn paper_running_example_end_to_end() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let pkg = InsertletPackage::new();
        let prop = propagate(&inst, &pkg, &Config::default()).unwrap();
        assert_eq!(prop.cost, 14, "Fig. 7 propagation has cost 14");
        verify_propagation(&inst, &prop.script).unwrap();
        assert_eq!(xvu_edit::cost(&prop.script), 14);
    }

    #[test]
    fn propagation_matches_fig7_shape() {
        // With Nop-preference, the root path keeps a4/c5/d6 (Nop), deletes
        // a1/b2/d3, and inserts the new material — exactly Fig. 7's choice
        // of operations (fresh identifiers may differ from the figure's).
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let pkg = InsertletPackage::new();
        let prop = propagate(&inst, &pkg, &Config::default()).unwrap();
        let term = script_to_term(&prop.script, &fx.alpha);
        // structural spot-checks (identifiers of fresh nodes elided):
        assert!(term.starts_with("nop:r#0(del:a#1, del:b#2, del:d#3(del:a#7, del:c#8)"));
        assert!(term.contains("nop:a#4"));
        assert!(term.contains("nop:c#5"));
        assert!(term.contains("ins:d#11("));
        assert!(term.contains("ins:a#12"));
        assert!(term.contains("nop:d#6(nop:b#9, nop:c#10, ins:a#"));
        assert!(term.contains("ins:c#15"));
    }

    #[test]
    fn selectors_all_produce_valid_optimal_propagations() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let pkg = InsertletPackage::new();
        for sel in [
            Selector::First,
            Selector::PreferNop,
            Selector::PreferTypePreserving,
        ] {
            let cfg = Config {
                selector: sel,
                ..Config::default()
            };
            let prop = propagate(&inst, &pkg, &cfg).unwrap();
            assert_eq!(prop.cost, 14, "selector {sel:?}");
            verify_propagation(&inst, &prop.script).unwrap();
        }
    }

    #[test]
    fn propagation_is_deterministic() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let pkg = InsertletPackage::new();
        let p1 = propagate(&inst, &pkg, &Config::default()).unwrap();
        let p2 = propagate(&inst, &pkg, &Config::default()).unwrap();
        assert_eq!(
            script_to_term(&p1.script, &fx.alpha),
            script_to_term(&p2.script, &fx.alpha)
        );
    }

    #[test]
    fn propagate_view_edit_matches_script_pipeline() {
        // Edit the view tree directly: delete a1 and d3, append a fresh a.
        let fx = fixtures::paper_running_example();
        let mut edited = xvu_view::extract_view(&fx.ann, &fx.t0);
        edited.detach_subtree(xvu_tree::NodeId(1)).unwrap();
        edited.detach_subtree(xvu_tree::NodeId(3)).unwrap();
        let mut gen = fx.gen.clone();
        let a = edited.label(xvu_tree::NodeId(4));
        let root = edited.root();
        edited.add_child(root, &mut gen, a);
        // word: a4 d6 a_new — needs a trailing d; make it view-legal by
        // also appending a d.
        let d = edited.label(xvu_tree::NodeId(6));
        edited.add_child(root, &mut gen, d);

        let prop = propagate_view_edit(
            &fx.dtd,
            &fx.ann,
            &fx.t0,
            &edited,
            fx.alpha.len(),
            &InsertletPackage::new(),
            &Config::default(),
        )
        .unwrap();
        let out = xvu_edit::output_tree(&prop.script).unwrap();
        assert!(fx.dtd.is_valid(&out));
        assert_eq!(xvu_view::extract_view(&fx.ann, &out), edited);
    }

    #[test]
    fn identity_update_propagates_to_identity() {
        let fx = fixtures::paper_running_example();
        let view = xvu_view::extract_view(&fx.ann, &fx.t0);
        let s = xvu_edit::nop_script(&view);
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &s, fx.alpha.len()).unwrap();
        let pkg = InsertletPackage::new();
        let prop = propagate(&inst, &pkg, &Config::default()).unwrap();
        assert_eq!(prop.cost, 0);
        let out = xvu_edit::output_tree(&prop.script).unwrap();
        assert_eq!(out, fx.t0, "identity update must not touch the source");
    }
}
