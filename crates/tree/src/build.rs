//! Construction of trees with explicit identifiers.
//!
//! [`TreeBuilder`] is the programmatic counterpart of
//! [`crate::parse_term_with_ids`]: it builds trees node by node while
//! keeping the enclosing [`NodeIdGen`] consistent. It is mainly used by the
//! paper-figure fixtures and the workload generators.
//!
//! [`PreorderBuilder`] builds a tree from its nodes in document order and
//! writes each child list once, when it is complete: the shape every
//! reader and every filtering copy produces.

use crate::error::TreeError;
use crate::node::{Node, NodeId, NodeIdGen};
use crate::slot::Slot;
use crate::tree::Tree;

/// Builder for a [`Tree`] rooted at a given node.
///
/// # Example
/// ```
/// use xvu_tree::{Alphabet, NodeIdGen, TreeBuilder};
///
/// let mut alpha = Alphabet::new();
/// let (r, a, b) = (alpha.intern("r"), alpha.intern("a"), alpha.intern("b"));
/// let mut gen = NodeIdGen::new();
/// let mut builder = TreeBuilder::new(&mut gen, r);
/// let root = builder.root();
/// builder.child(root, a).unwrap();
/// let nb = builder.child(root, b).unwrap();
/// builder.child(nb, a).unwrap();
/// let t = builder.finish();
/// assert_eq!(t.size(), 4);
/// ```
pub struct TreeBuilder<'g, L> {
    gen: &'g mut NodeIdGen,
    tree: Tree<L>,
}

impl<'g, L> TreeBuilder<'g, L> {
    /// Starts a tree with a fresh root labeled `label`.
    pub fn new(gen: &'g mut NodeIdGen, label: L) -> TreeBuilder<'g, L> {
        let tree = Tree::leaf(gen, label);
        TreeBuilder { gen, tree }
    }

    /// Starts a tree with an explicit root identifier.
    pub fn with_root_id(gen: &'g mut NodeIdGen, id: NodeId, label: L) -> TreeBuilder<'g, L> {
        gen.bump_past(id);
        TreeBuilder {
            gen,
            tree: Tree::leaf_with_id(id, label),
        }
    }

    /// The root identifier of the tree under construction.
    pub fn root(&self) -> NodeId {
        self.tree.root()
    }

    /// Appends a fresh child under `parent`, returning its identifier.
    pub fn child(&mut self, parent: NodeId, label: L) -> Result<NodeId, TreeError> {
        if !self.tree.contains(parent) {
            return Err(TreeError::UnknownNode(parent));
        }
        Ok(self.tree.add_child(parent, self.gen, label))
    }

    /// Appends a child with an explicit identifier under `parent`.
    pub fn child_with_id(
        &mut self,
        parent: NodeId,
        id: NodeId,
        label: L,
    ) -> Result<NodeId, TreeError> {
        self.tree.add_child_with_id(parent, id, label)?;
        self.gen.bump_past(id);
        Ok(id)
    }

    /// Grafts a fully built subtree as the last child of `parent`.
    pub fn graft(&mut self, parent: NodeId, sub: Tree<L>) -> Result<NodeId, TreeError> {
        let sub_root = sub.root();
        let pos = self.tree.children(parent).len();
        self.tree.attach_subtree(parent, pos, sub)?;
        Ok(sub_root)
    }

    /// Read-only access to the tree under construction.
    pub fn tree(&self) -> &Tree<L> {
        &self.tree
    }

    /// Finishes construction and returns the tree.
    pub fn finish(self) -> Tree<L> {
        self.tree
    }
}

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
    fn builds_nested_tree() {
        let mut gen = NodeIdGen::new();
        let mut b = TreeBuilder::new(&mut gen, sym(0));
        let r = b.root();
        let a = b.child(r, sym(1)).unwrap();
        b.child(a, sym(2)).unwrap();
        b.child(r, sym(3)).unwrap();
        let t = b.finish();
        assert_eq!(t.size(), 4);
        assert_eq!(t.children(r).len(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn explicit_ids_bump_generator() {
        let mut gen = NodeIdGen::new();
        let mut b = TreeBuilder::with_root_id(&mut gen, NodeId(5), sym(0));
        let r = b.root();
        b.child_with_id(r, NodeId(9), sym(1)).unwrap();
        let fresh = b.child(r, sym(2)).unwrap();
        assert!(fresh.0 > 9);
    }

    #[test]
    fn child_of_unknown_parent_fails() {
        let mut gen = NodeIdGen::new();
        let mut b = TreeBuilder::new(&mut gen, sym(0));
        let err = b.child(NodeId(999), sym(1)).unwrap_err();
        assert_eq!(err, TreeError::UnknownNode(NodeId(999)));
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

    #[test]
    fn graft_attaches_subtree() {
        let mut gen = NodeIdGen::new();
        let sub: Tree<Sym> = Tree::leaf(&mut gen, sym(7));
        let sub_root = sub.root();
        let mut b = TreeBuilder::new(&mut gen, sym(0));
        let r = b.root();
        let attached = b.graft(r, sub).unwrap();
        assert_eq!(attached, sub_root);
        let t = b.finish();
        assert_eq!(t.children(r), &[sub_root]);
    }
}
