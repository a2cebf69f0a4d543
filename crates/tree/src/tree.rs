//! The tree structure itself.

use crate::alphabet::Sym;
use crate::error::TreeError;
use crate::iter::{Postorder, Preorder};
use crate::node::{Node, NodeId, NodeIdGen};
use crate::slot::{Slot, SlotIndex, SlotSet};

/// A document tree: labels are interned alphabet symbols.
pub type DocTree = Tree<Sym>;

/// An ordered, labeled, non-empty tree with persistent node identifiers.
///
/// The structure corresponds to `t = (Σ, N_t, ↓_t, <_t, λ_t)` from the
/// paper: `N_t` is the set of indexed identifiers, the descendant and
/// sibling relations are induced by per-node parent/children links, and
/// `λ_t` is the `label` field.
///
/// **Equality is identifier-sensitive**: `t == u` holds iff the trees have
/// the same node-identifier set, the same labeling, and the same structure
/// — regardless of internal storage order. Use [`Tree::isomorphic`] for
/// identifier-oblivious comparison — the paper stresses that the two
/// notions must not be confused.
///
/// # Storage
///
/// Nodes live in a contiguous arena (`Vec<Node<L>>`) addressed by dense
/// [`Slot`]s; a [`SlotIndex`] resolves persistent [`NodeId`]s to slots.
/// Identifier semantics are exactly those of a node map — ids are the
/// identity, slots are the address — but lookups are array indexing
/// instead of hashing, and per-node side tables can be dense
/// ([`crate::SlotMap`], [`crate::SlotSet`]). Slots are stable under reads
/// and node insertion; removing nodes may relocate slots (see
/// [`crate::slot`] for the stability contract).
///
/// The label type `L` is generic: documents use [`Sym`], editing scripts use
/// an edit alphabet (`xvu_edit`).
///
/// # Change tracking
///
/// An opt-in *dirty journal* ([`Tree::set_change_tracking`]) records the
/// identifier of every node whose child word changed; consumers holding
/// per-subtree caches drain it with [`Tree::take_changed_parents`] or
/// [`Tree::drain_dirty_to_root`] to invalidate exactly the changed region
/// instead of discarding everything. The journal participates in neither
/// equality nor the serialized form.
#[derive(Clone, Debug)]
pub struct Tree<L> {
    slab: Vec<Node<L>>,
    index: SlotIndex,
    root: NodeId,
    /// Whether structural mutations are journaled.
    track: bool,
    /// Identifiers of nodes whose child word changed since the last drain
    /// (only while `track`; may contain duplicates until drained).
    journal: Vec<NodeId>,
}

impl<L: PartialEq> PartialEq for Tree<L> {
    fn eq(&self, other: &Tree<L>) -> bool {
        self.root == other.root
            && self.slab.len() == other.slab.len()
            && self.slab.iter().all(|n| other.get(n.id) == Some(n))
    }
}

impl<L: Eq> Eq for Tree<L> {}

impl<L> Tree<L> {
    /// Creates a single-node tree with a fresh identifier.
    pub fn leaf(gen: &mut NodeIdGen, label: L) -> Tree<L> {
        Tree::leaf_with_id(gen.fresh(), label)
    }

    /// Creates a single-node tree with an explicit identifier.
    pub fn leaf_with_id(id: NodeId, label: L) -> Tree<L> {
        let mut tree = Tree::empty_with_root(id);
        tree.push_node(Node {
            id,
            label,
            parent: None,
            children: Vec::new(),
        });
        tree
    }

    /// An arena-less shell with the given root identifier (internal
    /// constructor backing every tree-building code path).
    pub(crate) fn empty_with_root(root: NodeId) -> Tree<L> {
        Tree {
            slab: Vec::new(),
            index: SlotIndex::new(),
            root,
            track: false,
            journal: Vec::new(),
        }
    }

    /// Assembles a tree directly from a decoded arena image: slab in
    /// slot order, a matching identifier index, and the root. Backs the
    /// bulk snapshot decoder (`crate::snapshot`); the caller is expected
    /// to [`Tree::validate`] the result.
    pub(crate) fn from_raw_parts(slab: Vec<Node<L>>, index: SlotIndex, root: NodeId) -> Tree<L> {
        Tree {
            slab,
            index,
            root,
            track: false,
            journal: Vec::new(),
        }
    }

    /// Appends a node to the arena, indexing its identifier.
    #[inline]
    pub(crate) fn push_node(&mut self, node: Node<L>) -> Slot {
        let slot = Slot::new(u32::try_from(self.slab.len()).expect("tree larger than u32::MAX"));
        self.index.insert(node.id, slot);
        self.slab.push(node);
        slot
    }

    /// Journals the node at `slot`, whose child word is about to change
    /// (or just changed).
    #[inline]
    fn mark_children_changed(&mut self, slot: Slot) {
        if self.track {
            self.journal.push(self.slab[slot.index()].id);
        }
    }

    /// The root node identifier.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The number of nodes, `|t|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.slab.len()
    }

    /// Whether `id` is a node of this tree.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.index.contains(id)
    }

    /// The arena slot of `id`, if it is a node of this tree.
    ///
    /// Resolve once, then address the node and any slot-keyed side table
    /// by plain indexing. See [`crate::slot`] for the stability contract.
    #[inline]
    pub fn slot(&self, id: NodeId) -> Option<Slot> {
        self.index.slot(id)
    }

    /// All arena slots, `0..size()`, in arena order.
    #[inline]
    pub fn slots(&self) -> impl Iterator<Item = Slot> {
        (0..self.slab.len() as u32).map(Slot::new)
    }

    /// The identifier→slot index itself.
    ///
    /// Cloneable: consumers whose side tables must outlive a borrow of the
    /// tree (e.g. a propagation forest keyed by update-script nodes)
    /// snapshot it to keep O(1) id resolution.
    #[inline]
    pub fn slot_index(&self) -> &SlotIndex {
        &self.index
    }

    /// Enables or disables the dirty journal. Turning tracking on (or
    /// off) clears any journaled entries; with tracking on, every
    /// structural mutation records the identifier of the node whose child
    /// word changed, for [`Tree::take_changed_parents`] /
    /// [`Tree::drain_dirty_to_root`] to drain.
    ///
    /// Tracking is off by default — construction-heavy code paths pay
    /// nothing for it.
    pub fn set_change_tracking(&mut self, on: bool) {
        self.track = on;
        self.journal.clear();
    }

    /// Whether the dirty journal is recording.
    #[inline]
    pub fn is_change_tracking(&self) -> bool {
        self.track
    }

    /// Drains the journal: the identifiers of every node whose child word
    /// changed since the last drain (deduplicated, in first-touched
    /// order). Empty unless [`Tree::set_change_tracking`] is on.
    pub fn take_changed_parents(&mut self) -> Vec<NodeId> {
        let mut seen = SlotSet::with_capacity(self.size());
        let mut out = Vec::new();
        for id in self.journal.drain(..) {
            match self.index.slot(id) {
                // A journaled parent may itself have been removed by a
                // later mutation; report only surviving nodes.
                Some(s) => {
                    if seen.insert(s) {
                        out.push(id);
                    }
                }
                None => continue,
            }
        }
        out
    }

    /// Drains the journal and expands it to the **dirty region**: every
    /// journaled node plus all of its ancestors up to the root
    /// (deduplicated). This is exactly the set of nodes whose *subtree*
    /// changed — the region a subtree-keyed cache must invalidate.
    pub fn drain_dirty_to_root(&mut self) -> Vec<NodeId> {
        let touched = self.take_changed_parents();
        let mut seen = SlotSet::with_capacity(self.size());
        let mut out = Vec::new();
        for id in touched {
            let mut cur = Some(id);
            while let Some(n) = cur {
                let Some(s) = self.index.slot(n) else { break };
                if !seen.insert(s) {
                    break; // this ancestor chain is already marked
                }
                out.push(n);
                cur = self.slab[s.index()].parent;
            }
        }
        out
    }

    /// Borrow a node.
    ///
    /// # Panics
    /// Panics if `id` is not a node of this tree; use [`Tree::get`] for a
    /// fallible lookup.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node<L> {
        match self.index.slot(id) {
            Some(s) => &self.slab[s.index()],
            None => panic!("node {id} not in tree"),
        }
    }

    /// Fallible node lookup.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&Node<L>> {
        self.index.slot(id).map(|s| &self.slab[s.index()])
    }

    /// Borrow the node at an arena slot.
    ///
    /// # Panics
    /// Panics if `slot` is out of range for this tree.
    #[inline]
    pub fn node_at(&self, slot: Slot) -> &Node<L> {
        &self.slab[slot.index()]
    }

    /// The identifier of the node at an arena slot.
    ///
    /// # Panics
    /// Panics if `slot` is out of range for this tree.
    #[inline]
    pub fn id_at(&self, slot: Slot) -> NodeId {
        self.slab[slot.index()].id
    }

    /// The label of a node.
    #[inline]
    pub fn label(&self, id: NodeId) -> L
    where
        L: Copy,
    {
        self.node(id).label
    }

    /// The ordered children of a node.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// The parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// The sequence of child labels of `id` — the word that a DTD content
    /// model constrains.
    pub fn child_word(&self, id: NodeId) -> Vec<L>
    where
        L: Copy,
    {
        self.node(id)
            .children
            .iter()
            .map(|&c| self.node(c).label)
            .collect()
    }

    /// All node identifiers, in unspecified order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slab.iter().map(|n| n.id)
    }

    /// Pre-order (document-order) traversal from the root.
    pub fn preorder(&self) -> Preorder<'_, L> {
        Preorder::new(self, self.root)
    }

    /// Pre-order traversal of the subtree rooted at `id`.
    pub fn preorder_from(&self, id: NodeId) -> Preorder<'_, L> {
        Preorder::new(self, id)
    }

    /// Post-order traversal from the root.
    pub fn postorder(&self) -> Postorder<'_, L> {
        Postorder::new(self, self.root)
    }

    /// Appends a fresh leaf child to `parent`, returning its identifier.
    pub fn add_child(&mut self, parent: NodeId, gen: &mut NodeIdGen, label: L) -> NodeId {
        let id = gen.fresh();
        self.add_child_with_id(parent, id, label)
            .expect("fresh id cannot collide");
        id
    }

    /// Appends a leaf child with an explicit identifier.
    pub fn add_child_with_id(
        &mut self,
        parent: NodeId,
        id: NodeId,
        label: L,
    ) -> Result<(), TreeError> {
        let Some(pslot) = self.slot(parent) else {
            return Err(TreeError::UnknownNode(parent));
        };
        if self.contains(id) {
            return Err(TreeError::DuplicateNodeId(id));
        }
        self.mark_children_changed(pslot);
        self.push_node(Node {
            id,
            label,
            parent: Some(parent),
            children: Vec::new(),
        });
        // Slots are stable under insertion, so `pslot` still addresses the
        // parent after the push.
        self.slab[pslot.index()].children.push(id);
        Ok(())
    }

    /// Grafts `sub` as the `position`-th child of `parent`.
    ///
    /// The subtree keeps its identifiers; the identifier sets must be
    /// disjoint.
    pub fn attach_subtree(
        &mut self,
        parent: NodeId,
        position: usize,
        sub: Tree<L>,
    ) -> Result<(), TreeError> {
        let Some(pslot) = self.slot(parent) else {
            return Err(TreeError::UnknownNode(parent));
        };
        let arity = self.slab[pslot.index()].children.len();
        if position > arity {
            return Err(TreeError::PositionOutOfBounds {
                node: parent,
                position,
                arity,
            });
        }
        for id in sub.node_ids() {
            if self.contains(id) {
                return Err(TreeError::DuplicateNodeId(id));
            }
        }
        let sub_root = sub.root;
        self.mark_children_changed(pslot);
        for mut node in sub.slab {
            if node.id == sub_root {
                node.parent = Some(parent);
            }
            self.push_node(node);
        }
        self.slab[pslot.index()].children.insert(position, sub_root);
        Ok(())
    }

    /// Removes and returns the subtree rooted at `id`.
    pub fn detach_subtree(&mut self, id: NodeId) -> Result<Tree<L>, TreeError> {
        if !self.contains(id) {
            return Err(TreeError::UnknownNode(id));
        }
        if id == self.root {
            return Err(TreeError::CannotDetachRoot);
        }
        let parent = self.node(id).parent.expect("non-root has a parent");
        let pslot = self.slot(parent).expect("parent indexed");
        let p = &mut self.slab[pslot.index()];
        let pos = p
            .children
            .iter()
            .position(|&c| c == id)
            .expect("child listed in parent");
        p.children.remove(pos);
        self.mark_children_changed(pslot);

        // Collect the subtree's identifiers before removing anything:
        // removal relocates slots (swap-remove), identifiers never move.
        let mut ids = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            ids.push(n);
            stack.extend(self.node(n).children.iter().copied());
        }

        let mut sub = Tree::empty_with_root(id);
        sub.slab.reserve(ids.len());
        for n in ids {
            let s = self.index.remove(n).expect("subtree node indexed");
            let mut node = self.slab.swap_remove(s.index());
            if s.index() < self.slab.len() {
                // A tail node was swapped into the vacated slot; re-point
                // its index entry.
                let moved = self.slab[s.index()].id;
                self.index.insert(moved, s);
            }
            if node.id == id {
                node.parent = None;
            }
            sub.push_node(node);
        }
        Ok(sub)
    }

    /// A clone of the subtree rooted at `id` (identifiers preserved) — the
    /// paper's `t|_n`.
    pub fn subtree(&self, id: NodeId) -> Tree<L>
    where
        L: Clone,
    {
        let mut out = Tree::empty_with_root(id);
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let mut node = self.node(n).clone();
            if n == id {
                node.parent = None;
            }
            stack.extend(node.children.iter().copied());
            out.push_node(node);
        }
        out
    }

    /// Appends a label-mapped copy of `src`'s subtree rooted at `root` as
    /// the last child of `parent`, identifiers preserved: what
    /// [`Tree::subtree`] + [`Tree::map_labels`] + [`Tree::attach_subtree`]
    /// build, in one pass and without the two intermediate trees.
    ///
    /// The copied identifiers must be disjoint from this tree's. Every
    /// check runs before the first mutation, so on `Err` the tree is
    /// unchanged.
    pub fn append_mapped_subtree<M>(
        &mut self,
        parent: NodeId,
        src: &Tree<M>,
        root: NodeId,
        mut f: impl FnMut(&M) -> L,
    ) -> Result<(), TreeError> {
        let Some(pslot) = self.slot(parent) else {
            return Err(TreeError::UnknownNode(parent));
        };
        if !src.contains(root) {
            return Err(TreeError::UnknownNode(root));
        }
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if self.contains(n) {
                return Err(TreeError::DuplicateNodeId(n));
            }
            stack.extend_from_slice(src.children(n));
        }
        self.mark_children_changed(pslot);
        self.slab[pslot.index()].children.push(root);
        stack.push(root);
        while let Some(n) = stack.pop() {
            let node = src.node(n);
            self.push_node(Node {
                id: n,
                label: f(&node.label),
                parent: if n == root { Some(parent) } else { node.parent },
                children: node.children.clone(),
            });
            stack.extend_from_slice(&node.children);
        }
        Ok(())
    }

    /// Rewrites the label of every node in the subtree rooted at `id` in
    /// place. Identifiers and structure are untouched, so no invariant
    /// can break.
    pub fn relabel_subtree(
        &mut self,
        id: NodeId,
        mut f: impl FnMut(&L) -> L,
    ) -> Result<(), TreeError> {
        let Some(slot) = self.slot(id) else {
            return Err(TreeError::UnknownNode(id));
        };
        let mut stack = vec![slot];
        while let Some(s) = stack.pop() {
            let node = &mut self.slab[s.index()];
            node.label = f(&node.label);
            stack.extend(
                node.children
                    .iter()
                    .map(|&c| self.index.slot(c).expect("child indexed")),
            );
        }
        Ok(())
    }

    /// Puts the children of `parent` in the order `order`, which must be a
    /// permutation of its current children (checked before anything
    /// changes, so on `Err` the tree is unchanged).
    pub fn reorder_children(&mut self, parent: NodeId, order: &[NodeId]) -> Result<(), TreeError> {
        let Some(pslot) = self.slot(parent) else {
            return Err(TreeError::UnknownNode(parent));
        };
        let children = &self.slab[pslot.index()].children;
        if children.as_slice() == order {
            return Ok(());
        }
        let mut want = order.to_vec();
        let mut have = children.clone();
        want.sort_unstable();
        have.sort_unstable();
        if want != have {
            return Err(TreeError::NotAPermutation(parent));
        }
        self.mark_children_changed(pslot);
        self.slab[pslot.index()].children.copy_from_slice(order);
        Ok(())
    }

    /// The number of nodes in the subtree rooted at `id`, `|t|_n|`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        let mut count = 0usize;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            count += 1;
            stack.extend(self.node(n).children.iter().copied());
        }
        count
    }

    /// Depth of `id` (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree (a leaf-only tree has height 0).
    pub fn height(&self) -> usize {
        self.preorder().map(|n| self.depth(n)).max().unwrap_or(0)
    }

    /// Maps the label of every node, preserving identifiers and structure.
    /// The result is a fresh tree with change tracking off.
    pub fn map_labels<M>(&self, mut f: impl FnMut(NodeId, &L) -> M) -> Tree<M> {
        let slab: Vec<Node<M>> = self
            .slab
            .iter()
            .map(|node| Node {
                id: node.id,
                label: f(node.id, &node.label),
                parent: node.parent,
                children: node.children.clone(),
            })
            .collect();
        Tree {
            slab,
            index: self.index.clone(),
            root: self.root,
            track: false,
            journal: Vec::new(),
        }
    }

    /// An isomorphic copy of this tree in which every node receives a fresh
    /// identifier from `gen`.
    ///
    /// This is the "each time we use fresh nodes" operation of the paper's
    /// graph traversals: template fragments (minimal witnesses, insertlets)
    /// are instantiated with fresh identifiers on every insertion.
    pub fn with_fresh_ids(&self, gen: &mut NodeIdGen) -> Tree<L>
    where
        L: Clone,
    {
        let mut out = Tree::empty_with_root(self.root); // placeholder root; fixed below
        out.slab.reserve(self.size());
        // Pre-order on an explicit stack, so fresh identifiers are drawn
        // in document order: each entry is a source node and the slot of
        // its copy's parent (`None` for the root).
        let mut stack: Vec<(NodeId, Option<Slot>)> = vec![(self.root, None)];
        while let Some((n, parent)) = stack.pop() {
            let id = gen.fresh();
            let node = self.node(n);
            let parent_id = parent.map(|p| out.slab[p.index()].id);
            let slot = out.push_node(Node {
                id,
                label: node.label.clone(),
                parent: parent_id,
                children: Vec::with_capacity(node.children.len()),
            });
            // Slots are stable under insertion, so `p` still addresses the
            // parent's copy.
            match parent {
                Some(p) => out.slab[p.index()].children.push(id),
                None => out.root = id,
            }
            stack.extend(node.children.iter().rev().map(|&c| (c, Some(slot))));
        }
        out
    }

    /// Identifier-oblivious structural equality (same shape, same labels).
    pub fn isomorphic(&self, other: &Tree<L>) -> bool
    where
        L: PartialEq,
    {
        let mut stack = vec![(self.root, other.root)];
        while let Some((an, bn)) = stack.pop() {
            let (na, nb) = (self.node(an), other.node(bn));
            if na.label != nb.label || na.children.len() != nb.children.len() {
                return false;
            }
            stack.extend(na.children.iter().copied().zip(nb.children.iter().copied()));
        }
        true
    }

    /// Checks internal invariants: parent/child agreement, reachability of
    /// exactly the arena from the root, no duplicate children, and
    /// arena/index agreement.
    ///
    /// Intended for tests and debug assertions; all public mutators maintain
    /// these invariants.
    pub fn validate(&self) -> Result<(), TreeError> {
        for (i, node) in self.slab.iter().enumerate() {
            if self.index.slot(node.id).map(Slot::index) != Some(i) {
                return Err(TreeError::Inconsistent(format!(
                    "arena slot {i} holds {} but the index disagrees",
                    node.id
                )));
            }
        }
        if self.index.len() != self.slab.len() {
            return Err(TreeError::Inconsistent(format!(
                "{} nodes in arena, {} identifiers indexed",
                self.slab.len(),
                self.index.len()
            )));
        }
        if self.node(self.root).parent.is_some() {
            return Err(TreeError::Inconsistent("root has a parent".into()));
        }
        let mut seen = SlotSet::with_capacity(self.size());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let slot = self
                .index
                .slot(n)
                .ok_or_else(|| TreeError::Inconsistent(format!("dangling child {n}")))?;
            if !seen.insert(slot) {
                return Err(TreeError::Inconsistent(format!(
                    "node {n} reachable twice (cycle or shared child)"
                )));
            }
            for &c in &self.slab[slot.index()].children {
                let child = self
                    .get(c)
                    .ok_or_else(|| TreeError::Inconsistent(format!("dangling child {c}")))?;
                if child.parent != Some(n) {
                    return Err(TreeError::Inconsistent(format!(
                        "child {c} does not point back to parent {n}"
                    )));
                }
                stack.push(c);
            }
        }
        if seen.len() != self.slab.len() {
            return Err(TreeError::Inconsistent(format!(
                "{} nodes in arena, {} reachable from root",
                self.slab.len(),
                seen.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: usize) -> Sym {
        Sym::from_index(i)
    }

    fn chain3() -> (DocTree, NodeId, NodeId, NodeId) {
        // r(a(b))
        let mut gen = NodeIdGen::new();
        let mut t = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        let b = t.add_child(a, &mut gen, sym(2));
        (t, r, a, b)
    }

    #[test]
    fn leaf_tree_basics() {
        let mut gen = NodeIdGen::new();
        let t: DocTree = Tree::leaf(&mut gen, sym(0));
        assert_eq!(t.size(), 1);
        assert_eq!(t.label(t.root()), sym(0));
        assert!(t.children(t.root()).is_empty());
        assert!(t.parent(t.root()).is_none());
        t.validate().unwrap();
    }

    #[test]
    fn add_children_preserves_order() {
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let c1 = t.add_child(r, &mut gen, sym(1));
        let c2 = t.add_child(r, &mut gen, sym(2));
        assert_eq!(t.children(r), &[c1, c2]);
        assert_eq!(t.child_word(r), vec![sym(1), sym(2)]);
        t.validate().unwrap();
    }

    #[test]
    fn slots_are_dense_and_resolve_ids() {
        let (t, r, a, b) = chain3();
        assert_eq!(t.slots().count(), t.size());
        for n in [r, a, b] {
            let s = t.slot(n).unwrap();
            assert_eq!(t.id_at(s), n);
            assert_eq!(t.node_at(s).id, n);
            assert!(s.index() < t.size());
        }
        assert!(t.slot(NodeId(99)).is_none());
    }

    #[test]
    fn detach_relocates_slots_but_not_ids() {
        // after detaching a middle subtree, every surviving id still
        // resolves and the arena stays dense
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        t.add_child(a, &mut gen, sym(2));
        let c = t.add_child(r, &mut gen, sym(3));
        t.detach_subtree(a).unwrap();
        t.validate().unwrap();
        assert_eq!(t.size(), 2);
        assert_eq!(t.slots().count(), 2);
        assert_eq!(t.children(r), &[c]);
        assert_eq!(t.label(c), sym(3));
    }

    #[test]
    fn subtree_preserves_ids_and_detaches_parent() {
        let (t, _, a, b) = chain3();
        let sub = t.subtree(a);
        assert_eq!(sub.size(), 2);
        assert_eq!(sub.root(), a);
        assert!(sub.parent(a).is_none());
        assert_eq!(sub.children(a), &[b]);
        sub.validate().unwrap();
    }

    #[test]
    fn detach_subtree_removes_descendants() {
        let (mut t, r, a, b) = chain3();
        let sub = t.detach_subtree(a).unwrap();
        assert_eq!(t.size(), 1);
        assert!(!t.contains(a));
        assert!(!t.contains(b));
        assert!(t.children(r).is_empty());
        assert_eq!(sub.size(), 2);
        t.validate().unwrap();
        sub.validate().unwrap();
    }

    #[test]
    fn detach_root_is_an_error() {
        let (mut t, r, _, _) = chain3();
        assert_eq!(t.detach_subtree(r), Err(TreeError::CannotDetachRoot));
    }

    #[test]
    fn attach_subtree_at_position() {
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let c1 = t.add_child(r, &mut gen, sym(1));
        let c3 = t.add_child(r, &mut gen, sym(3));
        let sub: DocTree = Tree::leaf(&mut gen, sym(2));
        let c2 = sub.root();
        t.attach_subtree(r, 1, sub).unwrap();
        assert_eq!(t.children(r), &[c1, c2, c3]);
        t.validate().unwrap();
    }

    #[test]
    fn attach_rejects_duplicate_ids() {
        let (mut t, r, a, _) = chain3();
        let dup: DocTree = Tree::leaf_with_id(a, sym(5));
        assert_eq!(
            t.attach_subtree(r, 0, dup),
            Err(TreeError::DuplicateNodeId(a))
        );
    }

    #[test]
    fn relabel_subtree_touches_only_that_subtree() {
        let (mut t, r, a, b) = chain3();
        t.relabel_subtree(a, |l| sym(l.index() + 10)).unwrap();
        assert_eq!(
            (t.label(r), t.label(a), t.label(b)),
            (sym(0), sym(11), sym(12))
        );
        t.validate().unwrap();
        assert_eq!(
            t.relabel_subtree(NodeId(99), |&l| l),
            Err(TreeError::UnknownNode(NodeId(99)))
        );
    }

    #[test]
    fn reorder_children_accepts_only_permutations() {
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let c: Vec<NodeId> = (1..4).map(|i| t.add_child(r, &mut gen, sym(i))).collect();
        t.set_change_tracking(true);
        t.reorder_children(r, &[c[2], c[0], c[1]]).unwrap();
        assert_eq!(t.children(r), &[c[2], c[0], c[1]]);
        assert_eq!(t.take_changed_parents(), vec![r]);
        t.validate().unwrap();
        let before = t.clone();
        for bad in [
            &[c[0], c[0], c[1]][..],
            &[c[0], c[1]],
            &[c[0], c[1], c[2], r],
        ] {
            assert_eq!(
                t.reorder_children(r, bad),
                Err(TreeError::NotAPermutation(r))
            );
            assert_eq!(t, before);
        }
        // the current order is a no-op that journals nothing
        t.reorder_children(r, &[c[2], c[0], c[1]]).unwrap();
        assert!(t.take_changed_parents().is_empty());
    }

    #[test]
    fn append_mapped_subtree_matches_subtree_map_attach() {
        // r(a(b)) copied under a fresh root with labels shifted by 10
        let (src, _, a, b) = chain3();
        let mut gen = NodeIdGen::starting_at(100);
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let first = t.add_child(r, &mut gen, sym(9));
        let shift = |l: &Sym| sym(l.index() + 10);
        let mut expect = t.clone();
        expect
            .attach_subtree(r, 1, src.subtree(a).map_labels(|_, l| shift(l)))
            .unwrap();
        t.append_mapped_subtree(r, &src, a, shift).unwrap();
        assert_eq!(t, expect);
        assert_eq!(t.children(r), &[first, a]);
        assert_eq!(t.label(b), sym(12));
        t.validate().unwrap();
        // a duplicate identifier anywhere in the copy leaves `t` unchanged
        let before = t.clone();
        assert_eq!(
            t.append_mapped_subtree(r, &src, a, shift),
            Err(TreeError::DuplicateNodeId(a))
        );
        assert_eq!(t, before);
    }

    #[test]
    fn attach_rejects_bad_position() {
        let (mut t, r, _, _) = chain3();
        let mut gen = NodeIdGen::starting_at(100);
        let sub: DocTree = Tree::leaf(&mut gen, sym(4));
        assert!(matches!(
            t.attach_subtree(r, 5, sub),
            Err(TreeError::PositionOutOfBounds { .. })
        ));
    }

    #[test]
    fn equality_is_identifier_sensitive() {
        let mut g1 = NodeIdGen::new();
        let mut g2 = NodeIdGen::starting_at(10);
        let t1: DocTree = Tree::leaf(&mut g1, sym(0));
        let t2: DocTree = Tree::leaf(&mut g2, sym(0));
        assert_ne!(t1, t2);
        assert!(t1.isomorphic(&t2));
    }

    #[test]
    fn equality_ignores_arena_order() {
        // same identifiers and structure, different construction order ⇒
        // different arena layouts, equal trees
        let mut t1: DocTree = Tree::leaf_with_id(NodeId(0), sym(0));
        t1.add_child_with_id(NodeId(0), NodeId(1), sym(1)).unwrap();
        t1.add_child_with_id(NodeId(0), NodeId(2), sym(2)).unwrap();

        let mut t2: DocTree = Tree::leaf_with_id(NodeId(0), sym(0));
        t2.add_child_with_id(NodeId(0), NodeId(2), sym(2)).unwrap();
        let sub: DocTree = Tree::leaf_with_id(NodeId(1), sym(1));
        t2.attach_subtree(NodeId(0), 0, sub).unwrap();

        assert_ne!(
            t1.slot(NodeId(1)),
            t2.slot(NodeId(1)),
            "layouts genuinely differ"
        );
        assert_eq!(t1, t2);
    }

    #[test]
    fn isomorphic_detects_label_and_shape_differences() {
        let (t1, ..) = chain3();
        let mut gen = NodeIdGen::starting_at(50);
        let mut t2: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t2.root();
        t2.add_child(r, &mut gen, sym(1));
        assert!(!t1.isomorphic(&t2));
    }

    #[test]
    fn subtree_size_and_depth() {
        let (t, r, a, b) = chain3();
        assert_eq!(t.subtree_size(r), 3);
        assert_eq!(t.subtree_size(a), 2);
        assert_eq!(t.subtree_size(b), 1);
        assert_eq!(t.depth(r), 0);
        assert_eq!(t.depth(b), 2);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn map_labels_preserves_structure() {
        let (t, r, a, _) = chain3();
        let mapped = t.map_labels(|_, &l| l.index() + 10);
        assert_eq!(mapped.size(), 3);
        assert_eq!(mapped.label(r), 10);
        assert_eq!(mapped.label(a), 11);
        assert_eq!(mapped.children(r), t.children(r));
    }

    #[test]
    fn with_fresh_ids_is_isomorphic_and_disjoint() {
        let (t, ..) = chain3();
        let mut gen = NodeIdGen::starting_at(1000);
        let u = t.with_fresh_ids(&mut gen);
        assert!(t.isomorphic(&u));
        assert_ne!(t, u);
        for id in u.node_ids() {
            assert!(!t.contains(id), "fresh copy reuses id {id}");
        }
        u.validate().unwrap();
        // Sibling order must be preserved, not reversed.
        let pre_t: Vec<_> = t.preorder().map(|n| t.label(n)).collect();
        let pre_u: Vec<_> = u.preorder().map(|n| u.label(n)).collect();
        assert_eq!(pre_t, pre_u);
        // Fresh identifiers are drawn in document order: r(a(b), c).
        let mut bushy = t.clone();
        bushy.add_child(bushy.root(), &mut NodeIdGen::starting_at(50), sym(3));
        let v = bushy.with_fresh_ids(&mut gen);
        let ids: Vec<u64> = v.preorder().map(|n| n.0).collect();
        assert_eq!(ids, vec![1003, 1004, 1005, 1006]);
    }

    #[test]
    fn clone_equals_original() {
        let (t, ..) = chain3();
        let u = t.clone();
        assert_eq!(t, u);
    }

    #[test]
    fn journal_records_changed_parents_only_when_tracking() {
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        // construction above was untracked
        t.set_change_tracking(true);
        assert!(t.take_changed_parents().is_empty());
        let b = t.add_child(a, &mut gen, sym(2));
        t.add_child(a, &mut gen, sym(3));
        let changed = t.take_changed_parents();
        assert_eq!(changed, vec![a]); // deduplicated
        assert!(t.take_changed_parents().is_empty(), "drained");
        // detach journals the parent of the cut point
        t.detach_subtree(b).unwrap();
        assert_eq!(t.take_changed_parents(), vec![a]);
        // disabling tracking stops the journal
        t.set_change_tracking(false);
        t.add_child(r, &mut gen, sym(4));
        assert!(t.take_changed_parents().is_empty());
    }

    #[test]
    fn dirty_to_root_marks_all_ancestors() {
        // r(a(b(c)), d): touching b dirties {b, a, r} but not d.
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        let b = t.add_child(a, &mut gen, sym(2));
        t.add_child(b, &mut gen, sym(3));
        let d = t.add_child(r, &mut gen, sym(4));
        t.set_change_tracking(true);
        t.add_child(b, &mut gen, sym(5));
        let mut dirty = t.drain_dirty_to_root();
        dirty.sort();
        assert_eq!(dirty, vec![r, a, b]);
        assert!(!dirty.contains(&d));
        assert!(t.drain_dirty_to_root().is_empty(), "drained");
    }

    #[test]
    fn journal_skips_parents_removed_after_the_touch() {
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        t.set_change_tracking(true);
        t.add_child(a, &mut gen, sym(2)); // journals a
        t.detach_subtree(a).unwrap(); // journals r, removes a
        assert_eq!(t.take_changed_parents(), vec![r]);
    }

    #[test]
    fn clones_and_projections_do_not_inherit_journal() {
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        t.set_change_tracking(true);
        t.add_child(r, &mut gen, sym(1));
        // clone copies journal state verbatim…
        let mut c = t.clone();
        assert_eq!(c.take_changed_parents(), vec![r]);
        // …but label-mapped and subtree projections start fresh
        let mut m = t.map_labels(|_, &l| l);
        assert!(!m.is_change_tracking());
        assert!(m.take_changed_parents().is_empty());
        let sub = t.subtree(r);
        assert!(!sub.is_change_tracking());
        sub.validate().unwrap();
    }
}
