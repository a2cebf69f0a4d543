//! Construction of trees in document order.
//!
//! [`PreorderBuilder`] builds a tree from its nodes in document order and
//! writes each child list once, when it is complete: the shape every
//! reader and every filtering copy produces.

use crate::error::TreeError;
use crate::node::{Node, NodeId};
use crate::slot::Slot;
use crate::tree::Tree;

/// Builds a tree from its nodes in document order (pre-order), writing
/// each child list once, when it is complete.
///
/// Each node is added under its parent, which must be the node added last
/// or one of its ancestors — exactly what a pre-order walk or a reader of
/// nested text produces. Adding a node closes the lists of the nodes it
/// leaves, so the open lists are one path, and their children so far wait
/// on one stack. The term and XML readers, the script projections, view
/// extraction and [`Tree::with_fresh_ids`] build through it. The arena is
/// in document order.
///
/// ```
/// use xvu_tree::{NodeId, PreorderBuilder};
///
/// // r(a(b), c)
/// let mut b = PreorderBuilder::new(NodeId(0), 'r');
/// b.child(NodeId(0), NodeId(1), 'a').unwrap();
/// b.child(NodeId(1), NodeId(2), 'b').unwrap();
/// b.child(NodeId(0), NodeId(3), 'c').unwrap();
/// let t = b.finish();
/// assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(3)]);
/// assert_eq!(t.children(NodeId(1)), &[NodeId(2)]);
/// ```
#[derive(Debug)]
pub struct PreorderBuilder<L> {
    tree: Tree<L>,
    /// The open path, root first: each node's slot and where its children
    /// start in `pending`.
    open: Vec<(Slot, usize)>,
    /// The children added so far of every open node, outermost first.
    pending: Vec<NodeId>,
}

impl<L> PreorderBuilder<L> {
    /// Starts a tree at its root.
    pub fn new(root: NodeId, label: L) -> PreorderBuilder<L> {
        PreorderBuilder::with_capacity(root, label, 1)
    }

    /// Starts a tree at its root, with room for `nodes` node records in
    /// all: a reader that can bound its node count from its input never
    /// moves the records while it reads.
    pub fn with_capacity(root: NodeId, label: L, nodes: usize) -> PreorderBuilder<L> {
        let mut tree = Tree::with_capacity(root, nodes);
        let slot = tree.push_node(Node::new(root, label, None, 0, 0));
        PreorderBuilder {
            tree,
            open: vec![(slot, 0)],
            pending: Vec::new(),
        }
    }

    /// The root identifier.
    pub fn root(&self) -> NodeId {
        self.tree.root()
    }

    /// Adds `id` as the next child of `parent`, which must be the node
    /// added last or one of its ancestors.
    ///
    /// Fails with [`TreeError::DuplicateNodeId`], before anything changes,
    /// if the tree already holds `id`.
    ///
    /// # Panics
    /// Panics if `parent` is neither the node added last nor one of its
    /// ancestors.
    pub fn child(&mut self, parent: NodeId, id: NodeId, label: L) -> Result<(), TreeError> {
        if self.tree.contains(id) {
            return Err(TreeError::DuplicateNodeId(id));
        }
        while self
            .tree
            .id_at(self.open.last().expect("parent is on the open path").0)
            != parent
        {
            self.close();
        }
        self.pending.push(id);
        let slot = self
            .tree
            .push_node(Node::new(id, label, Some(parent), 0, 0));
        self.open.push((slot, self.pending.len()));
        Ok(())
    }

    /// Writes the innermost open node's child list and closes it.
    fn close(&mut self) {
        let (slot, from) = self.open.pop().expect("an open node to close");
        let start = self.tree.push_list(&self.pending[from..]);
        let len = (self.pending.len() - from) as u32;
        self.tree.set_list(slot, start, len);
        self.pending.truncate(from);
    }

    /// Closes every open list and returns the tree.
    pub fn finish(mut self) -> Tree<L> {
        while !self.open.is_empty() {
            self.close();
        }
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Sym;

    fn sym(i: usize) -> Sym {
        Sym::from_index(i)
    }

    #[test]
    fn preorder_builder_writes_each_list_once() {
        // r(a(b, c), d(e)), then finish with two lists still open
        let mut b = PreorderBuilder::new(NodeId(0), sym(0));
        for (parent, id) in [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)] {
            b.child(NodeId(parent), NodeId(id), sym(id as usize))
                .unwrap();
        }
        assert_eq!(
            b.child(NodeId(4), NodeId(2), sym(9)),
            Err(TreeError::DuplicateNodeId(NodeId(2)))
        );
        let t = b.finish();
        t.validate().unwrap();
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(4)]);
        assert_eq!(t.children(NodeId(1)), &[NodeId(2), NodeId(3)]);
        assert_eq!(t.children(NodeId(4)), &[NodeId(5)]);
        let order: Vec<u64> = t.slots().map(|s| t.id_at(s).0).collect();
        assert_eq!(
            order,
            vec![0, 1, 2, 3, 4, 5],
            "the arena is in document order"
        );
    }
}
