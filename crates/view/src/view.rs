//! Visibility computation and view extraction.

use crate::annotation::Annotation;
use std::collections::HashSet;
use xvu_tree::{DocTree, NodeId, PreorderBuilder, Sym, Tree};

/// Computes the set of visible nodes `⟦A⟧_t` of `t` (paper §2):
///
/// 1. the root is always visible;
/// 2. a node with a visible parent `p` is visible iff
///    `A(λ(p), λ(n)) = 1`;
/// 3. all other nodes are hidden.
///
/// Visibility is upward closed: descendants of hidden nodes are hidden.
pub fn visible_nodes(ann: &Annotation, t: &DocTree) -> HashSet<NodeId> {
    let mut visible = HashSet::new();
    let mut stack = vec![t.root()];
    visible.insert(t.root());
    while let Some(n) = stack.pop() {
        let parent_label = t.label(n);
        for &c in t.children(n) {
            if ann.is_visible(parent_label, t.label(c)) {
                visible.insert(c);
                stack.push(c);
            }
        }
    }
    visible
}

/// Extracts the view `A(t)`: the restriction of `t` to its visible nodes,
/// preserving identifiers, labels, and relative order.
pub fn extract_view(ann: &Annotation, t: &DocTree) -> DocTree {
    extract_subtree_view(ann, t, t.root(), |&l| l)
}

/// The view of the subtree of `t` rooted at `root`, taking `root` as
/// visible: `root` plus every descendant whose ancestors up to `root` are
/// visible under `ann`, identifiers and order preserved. Labels are read
/// through `label`, so the visible part of an editing script's inserted
/// subtree is extracted without projecting the script first.
///
/// The walk keeps its own stack, so a deep tree costs heap, not call
/// stack; nodes enter the result in document order, and each child list
/// is written once ([`PreorderBuilder`]).
pub fn extract_subtree_view<L>(
    ann: &Annotation,
    t: &Tree<L>,
    root: NodeId,
    label: impl Fn(&L) -> Sym,
) -> DocTree {
    let mut out = PreorderBuilder::new(root, label(&t.node(root).label));
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        let slot = t.slot(n).expect("the walk visits nodes of t");
        let node = t.node_at(slot);
        let node_label = label(&node.label);
        if n != root {
            let parent = node.parent.expect("a non-root node has a parent");
            out.child(parent, n, node_label)
                .expect("view ids are a subset of source ids, hence unique");
        }
        // Reversed, so the leftmost visible child is popped (and
        // appended to its parent) first.
        stack.extend(
            t.children_at(slot)
                .iter()
                .rev()
                .filter(|&&c| ann.is_visible(node_label, label(&t.node(c).label))),
        );
    }
    out.finish()
}

/// The number of nodes of `t` hidden by `ann` — `|t| − |A(t)|`.
pub fn hidden_count(ann: &Annotation, t: &DocTree) -> usize {
    t.size() - visible_nodes(ann, t).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::parse_annotation;
    use xvu_tree::{parse_term_with_ids, to_term_with_ids, Alphabet, NodeIdGen};

    /// Paper fixtures: t0 (Fig. 1) and A0 (Fig. 3).
    fn fixtures() -> (Alphabet, DocTree, Annotation) {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t0 = parse_term_with_ids(
            &mut alpha,
            &mut gen,
            "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
        )
        .unwrap();
        let a0 = parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b").unwrap();
        (alpha, t0, a0)
    }

    #[test]
    fn paper_fig3_visible_nodes() {
        let (_, t0, a0) = fixtures();
        let vis = visible_nodes(&a0, &t0);
        let expected: HashSet<NodeId> = [0u64, 1, 3, 4, 6, 8, 10].map(NodeId).into_iter().collect();
        assert_eq!(vis, expected);
    }

    #[test]
    fn paper_fig3_view_tree() {
        let (alpha, t0, a0) = fixtures();
        let view = extract_view(&a0, &t0);
        assert_eq!(
            to_term_with_ids(&view, &alpha),
            "r#0(a#1, d#3(c#8), a#4, d#6(c#10))"
        );
        view.validate().unwrap();
    }

    #[test]
    fn visibility_is_upward_closed() {
        let (_, t0, a0) = fixtures();
        let vis = visible_nodes(&a0, &t0);
        for &n in &vis {
            if let Some(p) = t0.parent(n) {
                assert!(vis.contains(&p), "visible node {n} has hidden parent");
            }
        }
    }

    #[test]
    fn hidden_subtrees_disappear_entirely() {
        // c visible under d, but the d occurrence under a hidden b must not
        // resurface: hide r b with t = r(b(d(c)))
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let t = parse_term_with_ids(&mut alpha, &mut gen, "r#0(b#1(d#2(c#3)))").unwrap();
        let ann = parse_annotation(&mut alpha, "hide r b").unwrap();
        let view = extract_view(&ann, &t);
        assert_eq!(view.size(), 1);
        assert_eq!(hidden_count(&ann, &t), 3);
    }

    #[test]
    fn all_visible_annotation_is_identity() {
        let (_, t0, _) = fixtures();
        let view = extract_view(&Annotation::all_visible(), &t0);
        assert_eq!(view, t0);
    }

    #[test]
    fn view_preserves_sibling_order() {
        let (_, t0, a0) = fixtures();
        let view = extract_view(&a0, &t0);
        let kids: Vec<u64> = view.children(view.root()).iter().map(|n| n.0).collect();
        assert_eq!(kids, vec![1, 3, 4, 6]);
    }

    #[test]
    fn subtree_view_matches_the_view_of_the_subtree() {
        // from d#3 (label d): a#7 is hidden under d, c#8 visible
        let (alpha, t0, a0) = fixtures();
        let sub = extract_subtree_view(&a0, &t0, NodeId(3), |&l| l);
        assert_eq!(to_term_with_ids(&sub, &alpha), "d#3(c#8)");
        assert_eq!(sub, extract_view(&a0, &t0.subtree(NodeId(3))));
        // labels are read through the mapping: a tree over pairs works too
        let paired = t0.map_labels(|_, &l| (l, 0u8));
        assert_eq!(
            extract_subtree_view(&a0, &paired, t0.root(), |&(l, _)| l),
            extract_view(&a0, &t0)
        );
    }

    #[test]
    fn view_of_view_is_view() {
        // Extracting with the same annotation twice is idempotent.
        let (_, t0, a0) = fixtures();
        let v1 = extract_view(&a0, &t0);
        let v2 = extract_view(&a0, &v1);
        assert_eq!(v1, v2);
    }
}
