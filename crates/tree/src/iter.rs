//! Tree traversal iterators.
//!
//! Both traversals chase arena slots: each visited identifier is resolved
//! to its [`Slot`] exactly once (when pushed), and every subsequent access
//! is direct arena indexing — no hashing anywhere on the walk.

use crate::node::NodeId;
use crate::slot::Slot;
use crate::tree::Tree;

fn resolve<L>(tree: &Tree<L>, id: NodeId) -> Slot {
    tree.slot(id)
        .unwrap_or_else(|| panic!("node {id} not in tree"))
}

/// Pre-order (document-order) traversal: a node before its children,
/// children in sibling order.
pub struct Preorder<'t, L> {
    tree: &'t Tree<L>,
    stack: Vec<Slot>,
}

impl<'t, L> Preorder<'t, L> {
    pub(crate) fn new(tree: &'t Tree<L>, start: NodeId) -> Preorder<'t, L> {
        Preorder {
            tree,
            stack: vec![resolve(tree, start)],
        }
    }
}

impl<L> Iterator for Preorder<'_, L> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let s = self.stack.pop()?;
        // Push children reversed so the leftmost child is visited first.
        self.stack.extend(
            self.tree
                .children_at(s)
                .iter()
                .rev()
                .map(|&c| resolve(self.tree, c)),
        );
        Some(self.tree.id_at(s))
    }
}

/// Post-order traversal: children (in sibling order) before their parent.
pub struct Postorder<'t, L> {
    tree: &'t Tree<L>,
    // (node, whether its children were already expanded)
    stack: Vec<(Slot, bool)>,
}

impl<'t, L> Postorder<'t, L> {
    pub(crate) fn new(tree: &'t Tree<L>, start: NodeId) -> Postorder<'t, L> {
        Postorder {
            tree,
            stack: vec![(resolve(tree, start), false)],
        }
    }
}

impl<L> Iterator for Postorder<'_, L> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let (s, expanded) = self.stack.pop()?;
            if expanded {
                return Some(self.tree.id_at(s));
            }
            self.stack.push((s, true));
            self.stack.extend(
                self.tree
                    .children_at(s)
                    .iter()
                    .rev()
                    .map(|&c| (resolve(self.tree, c), false)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::alphabet::Sym;
    use crate::node::NodeIdGen;
    use crate::tree::Tree;

    fn sym(i: usize) -> Sym {
        Sym::from_index(i)
    }

    #[test]
    fn preorder_is_document_order() {
        // r(a(c, d), b)
        let mut gen = NodeIdGen::new();
        let mut t = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        let b = t.add_child(r, &mut gen, sym(2));
        let c = t.add_child(a, &mut gen, sym(3));
        let d = t.add_child(a, &mut gen, sym(4));
        let order: Vec<_> = t.preorder().collect();
        assert_eq!(order, vec![r, a, c, d, b]);
    }

    #[test]
    fn postorder_visits_children_first() {
        let mut gen = NodeIdGen::new();
        let mut t = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        let b = t.add_child(r, &mut gen, sym(2));
        let c = t.add_child(a, &mut gen, sym(3));
        let order: Vec<_> = t.postorder().collect();
        assert_eq!(order, vec![c, a, b, r]);
    }

    #[test]
    fn traversals_cover_every_node_once() {
        let mut gen = NodeIdGen::new();
        let mut t = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        for i in 0..5 {
            let c = t.add_child(r, &mut gen, sym(i));
            t.add_child(c, &mut gen, sym(i));
        }
        let pre: Vec<_> = t.preorder().collect();
        let post: Vec<_> = t.postorder().collect();
        assert_eq!(pre.len(), t.size());
        assert_eq!(post.len(), t.size());
        let mut pre_sorted = pre.clone();
        let mut post_sorted = post.clone();
        pre_sorted.sort();
        post_sorted.sort();
        assert_eq!(pre_sorted, post_sorted);
    }

    #[test]
    fn preorder_from_subtree() {
        let mut gen = NodeIdGen::new();
        let mut t = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        let c = t.add_child(a, &mut gen, sym(2));
        t.add_child(r, &mut gen, sym(3));
        let order: Vec<_> = t.preorder_from(a).collect();
        assert_eq!(order, vec![a, c]);
    }
}
