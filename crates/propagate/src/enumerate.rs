//! Bounded enumeration of propagations.
//!
//! Theorem 3 states the propagation graphs capture *all* schema-compliant
//! side-effect-free propagations; Theorem 4 the cost-minimal ones. These
//! enumerators materialise concrete scripts from graph paths so tests can
//! exercise both directions on small instances:
//!
//! * every enumerated script must verify as a propagation (soundness);
//! * no enumerated script may beat the claimed optimal cost (optimality);
//! * enumerating the optimal subgraphs yields scripts of exactly the
//!   optimal cost.
//!
//! Enumeration is exponential by nature (the paper proves tight `2^k`
//! bounds) and is capped by count and path length. Inverse fragments for
//! (iv)-edges use the canonical minimal inverse rather than enumerating
//! inverse choices; path-level variety is exhaustive.
//!
//! Both enumerators accept a skeleton forest ([`PropagationForest`]): a
//! clean node's graph, which such a forest does not hold, is built from
//! the instance when the enumeration reaches it.

use crate::algorithm::Config;
use crate::cost::CostModel;
use crate::error::PropagateError;
use crate::forest::PropagationForest;
use crate::instance::Instance;
use crate::scratch::PropScratch;
use xvu_edit::Script;
use xvu_tree::{NodeId, NodeIdGen};

/// Enumerates up to `cap` cost-minimal propagations (paths of the optimal
/// subgraphs).
pub fn enumerate_optimal_propagations(
    inst: &Instance<'_>,
    cost: &CostModel<'_>,
    forest: &PropagationForest,
    cfg: &Config,
    cap: usize,
) -> Result<Vec<Script>, PropagateError> {
    let mut gen = inst.id_gen();
    enumerate_node(
        inst,
        cost,
        forest,
        cfg,
        forest.root,
        cap,
        usize::MAX,
        true,
        &mut gen,
        &mut PropScratch::new(),
    )
}

/// Enumerates up to `cap` propagations from the **full** graphs, with at
/// most `max_len` edges per per-node path. Includes non-optimal
/// propagations (longer paths pad the source with extra invisible
/// fragments).
pub fn enumerate_propagations_bounded(
    inst: &Instance<'_>,
    cost: &CostModel<'_>,
    forest: &PropagationForest,
    cfg: &Config,
    cap: usize,
    max_len: usize,
) -> Result<Vec<Script>, PropagateError> {
    let mut gen = inst.id_gen();
    enumerate_node(
        inst,
        cost,
        forest,
        cfg,
        forest.root,
        cap,
        max_len,
        false,
        &mut gen,
        &mut PropScratch::new(),
    )
}

#[allow(clippy::too_many_arguments)]
fn enumerate_node(
    inst: &Instance<'_>,
    cost: &CostModel<'_>,
    forest: &PropagationForest,
    cfg: &Config,
    n: NodeId,
    cap: usize,
    max_len: usize,
    optimal: bool,
    gen: &mut NodeIdGen,
    scratch: &mut PropScratch,
) -> Result<Vec<Script>, PropagateError> {
    let full = forest.graph_or_build(inst, cost, n, scratch)?;
    let graph = if optimal {
        full.optimal_subgraph_with(scratch.graph_mut())
            .ok_or(PropagateError::NoPropagationPath(n))?
    } else {
        full.into_owned()
    };
    let path_len_bound = if optimal {
        graph.n_edges() + 1
    } else {
        max_len
    };
    let paths = graph.enumerate_paths(cap, path_len_bound);
    let mut scripts = Vec::new();
    for path in paths {
        // A path may recurse into child graphs via (vi)-edges; child
        // enumeration uses the same parameters but we take only the first
        // `needed` variants to respect the cap. For exhaustiveness we
        // substitute child variants one position at a time.
        let variants = expand_path(
            inst, cost, forest, cfg, n, &graph, &path, cap, max_len, optimal, gen, scratch,
        )?;
        for s in variants {
            scripts.push(s);
            if scripts.len() >= cap {
                return Ok(scripts);
            }
        }
    }
    Ok(scripts)
}

/// Expands one path into scripts, taking the cartesian product of child
/// variants for (vi)-edges (capped).
#[allow(clippy::too_many_arguments)]
fn expand_path(
    inst: &Instance<'_>,
    cost: &CostModel<'_>,
    forest: &PropagationForest,
    cfg: &Config,
    n: NodeId,
    graph: &crate::graph::PropGraph,
    path: &[u32],
    cap: usize,
    max_len: usize,
    optimal: bool,
    gen: &mut NodeIdGen,
    scratch: &mut PropScratch,
) -> Result<Vec<Script>, PropagateError> {
    use crate::graph::PropEdge;
    use xvu_edit::{del_script, ins_script, nop_script, ELabel};
    use xvu_tree::Tree;

    // Per-edge lists of script fragments. All fresh identifiers are drawn
    // from the single shared generator, so fragments across slots (and
    // across recursion levels) never collide within one combination.
    // Positional edges resolve against this node's child words.
    let t_kids = inst.source.children(n);
    let s_kids = inst.update.children(n);
    let mut slots: Vec<Vec<Script>> = Vec::with_capacity(path.len());
    for &e in path {
        let fragments = match graph.edge(e).payload {
            PropEdge::InsInvisible(y) => {
                let frag = cost.insertlets.instantiate(
                    inst.dtd,
                    cost.sizes,
                    y,
                    gen,
                    cfg.witness_budget,
                )?;
                vec![ins_script(&frag)]
            }
            PropEdge::DelInvisible { tpos } | PropEdge::DelVisible { tpos } => {
                vec![del_script(&inst.source.subtree(t_kids[tpos as usize]))]
            }
            PropEdge::NopInvisible { tpos, .. } => {
                vec![nop_script(&inst.source.subtree(t_kids[tpos as usize]))]
            }
            PropEdge::InsVisible { spos } => {
                let inv = forest
                    .inversion(s_kids[spos as usize])
                    .expect("built forest has an inversion per Ins child")
                    .materialize_min(inst.dtd, cost, cfg.selector, gen, cfg.witness_budget)?;
                vec![ins_script(&inv)]
            }
            PropEdge::NopVisible { tpos, .. } => enumerate_node(
                inst,
                cost,
                forest,
                cfg,
                t_kids[tpos as usize],
                cap,
                max_len,
                optimal,
                gen,
                scratch,
            )?,
        };
        slots.push(fragments);
    }

    // Cartesian product over slots, capped. Variants beyond the first in
    // any slot share fresh-id-bearing fragments only within their own
    // combination, so re-id fragments when reused.
    let x = inst.source.label(n);
    let mut combos: Vec<Vec<usize>> = vec![vec![]];
    for slot in &slots {
        let mut next = Vec::new();
        for combo in &combos {
            for v in 0..slot.len() {
                let mut c = combo.clone();
                c.push(v);
                next.push(c);
                if next.len() >= cap {
                    break;
                }
            }
            if next.len() >= cap {
                break;
            }
        }
        combos = next;
    }

    let mut out = Vec::new();
    for combo in combos {
        let mut script: Script = Tree::leaf_with_id(n, ELabel::nop(x));
        let root = script.root();
        let mut ok = true;
        for (slot, &v) in slots.iter().zip(&combo) {
            let frag = &slot[v];
            // Defensive: the shared generator makes collisions impossible;
            // a collision here would indicate a bookkeeping bug upstream.
            if frag.node_ids().any(|id| script.contains(id)) {
                ok = false;
                break;
            }
            let frag = frag.clone();
            let pos = script.children(root).len();
            script.attach_subtree(root, pos, frag)?;
        }
        if ok {
            out.push(script);
            if out.len() >= cap {
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::verify::verify_propagation;
    use xvu_dtd::{min_sizes, InsertletPackage};
    use xvu_edit::cost as script_cost;

    fn setup() -> (fixtures::PaperFixture, xvu_dtd::MinSizes, InsertletPackage) {
        let fx = fixtures::paper_running_example();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        (fx, sizes, pkg)
    }

    #[test]
    fn optimal_enumeration_is_sound_and_optimal() {
        let (fx, sizes, pkg) = setup();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = PropagationForest::build(&inst, &cm).unwrap();
        let cfg = Config::default();
        let scripts = enumerate_optimal_propagations(&inst, &cm, &forest, &cfg, 25).unwrap();
        assert!(!scripts.is_empty());
        for s in &scripts {
            verify_propagation(&inst, s).unwrap();
            assert_eq!(script_cost(s) as u64, forest.optimal_cost());
        }
    }

    #[test]
    fn bounded_full_enumeration_is_sound_and_never_beats_optimal() {
        let (fx, sizes, pkg) = setup();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = PropagationForest::build(&inst, &cm).unwrap();
        let cfg = Config::default();
        let scripts = enumerate_propagations_bounded(&inst, &cm, &forest, &cfg, 40, 14).unwrap();
        assert!(scripts.len() >= 10, "got {}", scripts.len());
        let mut costs = std::collections::HashSet::new();
        for s in &scripts {
            verify_propagation(&inst, s).unwrap();
            let c = script_cost(s) as u64;
            assert!(c >= forest.optimal_cost());
            costs.insert(c);
        }
        // The full graphs contain non-optimal propagations too.
        assert!(costs.len() > 1, "costs seen: {costs:?}");
    }
}
