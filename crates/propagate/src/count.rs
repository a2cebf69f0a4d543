//! Counting optimal propagations (paper §4, "Further results").
//!
//! The optimal graphs are acyclic, so the number of optimal propagations
//! is finite with an exponential upper bound — and the bound is tight: for
//! `D2: r → (a·(b+c))*` with `b, c` hidden, inserting `k` nodes labeled
//! `a` admits exactly `2^k` optimal propagations (each inserted `a`
//! independently needs one hidden `b` or `c`).
//!
//! Counts multiply through the recursive structure: a (vi)-edge
//! contributes the count of the child's graph, a (iv)-edge the number of
//! minimal inverses of the inserted fragment. Counts are path counts;
//! when content models are deterministic (the W3C-required case) paths
//! correspond one-to-one with propagations up to the choice of concrete
//! minimal fragments.

use crate::forest::{Body, PropagationForest};
use crate::graph::{PropEdge, PropGraph};
use crate::pathgraph::GraphScratch;

/// Counts the cost-minimal propagations captured by `G*` (saturating
/// `u128`).
///
/// Returns `None` when the forest admits **no propagation at all** — some
/// reachable graph has no start→goal path (so there is nothing to count),
/// or a graph is not acyclic so path counting is undefined. A forest built
/// by [`PropagationForest::build`] always has at least one propagation
/// (Theorem 5), so `None` only arises for hand-assembled or corrupted
/// forests; every `Some` count is ≥ 1. Callers must not conflate `None`
/// with a zero count: `0` is never returned inside `Some`.
///
/// The forest stores its nodes children first, so one pass in storage
/// order is a post-order: each node is counted after every child its
/// (vi)-edges multiply in, with no recursion, so no document depth can
/// overflow the native stack. A clean node of a skeleton forest brings its
/// stored count.
pub fn count_optimal_propagations(forest: &PropagationForest) -> Option<u128> {
    // One pooled Dijkstra scratch serves every subgraph extraction.
    let mut scratch = GraphScratch::default();
    let mut counts: Vec<Option<u128>> = Vec::with_capacity(forest.nodes().len());
    for node in forest.nodes() {
        let count = match &node.body {
            Body::Clean(count) => Some(*count),
            Body::Graph { graph, .. } => count_graph(graph, &mut scratch, |e| {
                // Positional edges resolve through the forest's child-word
                // snapshots (no instance here).
                let child = forest.child_of(node, e)?;
                match e {
                    PropEdge::InsVisible { .. } => {
                        forest.inversion(child).map(|i| i.count_min_inverses())
                    }
                    // A child counted after its parent (only in corrupted
                    // forests) is missing.
                    _ => forest
                        .position(child)
                        .and_then(|p| counts.get(p).copied().flatten()),
                }
            }),
        };
        counts.push(count);
    }
    counts[forest.position(forest.root)?]
}

/// The count of one node from its graph: the start→goal paths of `G*_n`,
/// each weighted by its edges' factors — the kept child's count for a
/// (vi)-edge, the number of minimal inverses of the inserted fragment for
/// a (iv)-edge, 1 for every other edge. `child` answers the first two.
///
/// No optimal subgraph ⇔ no start→goal path ⇔ no propagation of this
/// node's fragment, and `count_paths` fails only on cyclic graphs, which
/// optimal subgraphs of well-formed forests never are: both give `None`,
/// as does a child `child` cannot count (`None` or 0) — never a count of
/// 0 that callers could mistake for a genuine tally.
pub(crate) fn count_graph(
    graph: &PropGraph,
    scratch: &mut GraphScratch,
    mut child: impl FnMut(&PropEdge) -> Option<u128>,
) -> Option<u128> {
    let opt = graph.optimal_subgraph_with(scratch)?;
    let mut missing_child = false;
    let n_paths = opt.count_paths(|e| match e {
        PropEdge::InsVisible { .. } | PropEdge::NopVisible { .. } => {
            match child(e).filter(|&c| c > 0) {
                Some(c) => c,
                None => {
                    missing_child = true;
                    0
                }
            }
        }
        _ => 1,
    })?;
    (!missing_child).then_some(n_paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::fixtures;
    use crate::instance::Instance;
    use xvu_dtd::{min_sizes, parse_dtd, InsertletPackage};
    use xvu_edit::parse_script;
    use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};
    use xvu_view::parse_annotation;

    #[test]
    fn d2_family_counts_two_to_the_k() {
        // D2: r → (a·(b+c))*, A2 hides b and c under r. Source: r (empty).
        // Update: insert k a-children. Optimal propagations: 2^k.
        for k in [1usize, 2, 3, 5, 8, 10] {
            let mut alpha = Alphabet::new();
            let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c))*").unwrap();
            let ann = parse_annotation(&mut alpha, "hide r b\nhide r c").unwrap();
            let mut gen = NodeIdGen::new();
            let source = parse_term_with_ids(&mut alpha, &mut gen, "r#0").unwrap();
            let mut s = String::from("nop:r#0(");
            for i in 0..k {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("ins:a#{}", i + 1));
            }
            s.push(')');
            let update = parse_script(&mut alpha, &s).unwrap();
            let inst = Instance::new(&dtd, &ann, &source, &update, alpha.len()).unwrap();
            let sizes = min_sizes(&dtd, alpha.len());
            let pkg = InsertletPackage::new();
            let cm = CostModel {
                sizes: &sizes,
                insertlets: &pkg,
            };
            let forest = crate::forest::PropagationForest::build(&inst, &cm).unwrap();
            assert_eq!(
                count_optimal_propagations(&forest),
                Some(1u128 << k),
                "k = {k}"
            );
            // each inserted a costs itself + one hidden sibling
            assert_eq!(forest.optimal_cost(), 2 * k as u64);
        }
    }

    #[test]
    fn paper_example_count_is_positive_and_finite() {
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = crate::forest::PropagationForest::build(&inst, &cm).unwrap();
        let count = count_optimal_propagations(&forest).expect("the forest has propagations");
        // d#11's inverse: 2 choices (a/b) × 2 positions = 4; the c#15
        // insert under d6 has 2 (a or b sibling); root path is unique in
        // its optimal ops but padding choices multiply.
        assert!(count >= 8, "count = {count}");
        assert!(count < 1_000, "count = {count}");
    }

    #[test]
    fn identity_update_has_exactly_one_propagation() {
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
        let forest = crate::forest::PropagationForest::build(&inst, &cm).unwrap();
        assert_eq!(count_optimal_propagations(&forest), Some(1));
    }

    #[test]
    fn no_propagation_is_none_not_zero() {
        // Regression: a forest whose root graph has no start→goal path
        // (the "instance has no propagation" shape) must report `None`,
        // not a count of 0 that callers could mistake for a genuine tally.
        let fx = fixtures::paper_running_example();
        let inst = Instance::new(&fx.dtd, &fx.ann, &fx.t0, &fx.s0, fx.alpha.len()).unwrap();
        let sizes = min_sizes(&fx.dtd, fx.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let mut forest = crate::forest::PropagationForest::build(&inst, &cm).unwrap();
        // Replace the root graph with a goal-less one-vertex graph.
        let root = forest.root;
        let stub = crate::graph::PropGraph::new(
            vec![crate::graph::PropVertex {
                tpos: 0,
                state: xvu_automata::StateId(0),
                spos: 0,
            }],
            0,
        );
        forest.insert_graph(root, stub);
        assert_eq!(count_optimal_propagations(&forest), None);
        // A dangling child reference (graph deleted out from under a
        // (vi)-edge) is also `None`, not a panic and not 0.
        let forest2 = {
            let mut f = crate::forest::PropagationForest::build(&inst, &cm).unwrap();
            let child = f.graphs().map(|(n, _)| n).find(|&n| n != f.root).unwrap();
            f.remove_graph(child);
            f
        };
        assert_eq!(count_optimal_propagations(&forest2), None);
    }

    #[test]
    fn unsatisfiable_update_errors_instead_of_counting_zero() {
        // An update whose only source completion would need an
        // unsatisfiable hidden label: `h -> h` can never be materialised,
        // so no propagation exists. The pipeline must surface an error
        // (at validation or forest construction) — never `Ok(0)`.
        let mut alpha = Alphabet::new();
        let dtd = parse_dtd(&mut alpha, "r -> (a.h)*\nh -> h").unwrap();
        let ann = parse_annotation(&mut alpha, "hide r h").unwrap();
        let mut gen = NodeIdGen::new();
        let source = parse_term_with_ids(&mut alpha, &mut gen, "r#0").unwrap();
        let update = parse_script(&mut alpha, "nop:r#0(ins:a#1)").unwrap();
        let engine = crate::Engine::builder()
            .alphabet(alpha)
            .dtd(dtd)
            .annotation(ann)
            .build()
            .unwrap();
        let session = engine.open(&source).unwrap();
        let err = session
            .count_optimal(&update)
            .expect_err("no propagation can exist");
        // the error names the problem instead of hiding it behind a count
        assert!(
            !err.to_string().is_empty(),
            "error must be user-reportable: {err:?}"
        );
    }
}
