//! The tree structure itself.

use crate::alphabet::Sym;
use crate::build::PreorderBuilder;
use crate::error::TreeError;
use crate::iter::{Postorder, Preorder};
use crate::node::{Node, NodeId, NodeIdGen, VACANT};
use crate::slot::{Slot, SlotIndex, SlotSet};

/// A document tree: labels are interned alphabet symbols.
pub type DocTree = Tree<Sym>;

/// Filler for child-buffer entries no list holds yet (spare room).
const HOLE: NodeId = NodeId(u64::MAX);

/// Records and child-buffer entries a label-mapped copy reserves beyond
/// its source. The copy is usually edited next — a propagation script
/// gains its inserted fragments, an update its user's edits — and a small
/// edit then fits without moving either array: a grown array lands in
/// fresh memory, and at 10k nodes the page faults of that move cost a
/// propagation more than the copy itself.
const COPY_ROOM: usize = 64;

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
/// One flat arena per tree, in three arrays:
///
/// * **node records** (`Vec<Node<L>>`), addressed by [`Slot`]s — the
///   identifier, label and parent of each node, and the range of its
///   child list;
/// * **one child buffer** (`Vec<NodeId>`) holding every child list. A
///   reader writes each list once, when it is complete. An append to a
///   list with no room left grows it in place at the end of the buffer,
///   or else moves it there with twice its length as room; the buffer
///   compacts itself when the ranges so abandoned outnumber the live
///   entries;
/// * a [`SlotIndex`] resolving persistent [`NodeId`]s to slots.
///
/// A live node's slot **never moves**: removing a subtree leaves its slots
/// vacant on a free list, and later insertions reuse them (see
/// [`crate::slot`] for the contract). Identifier semantics are exactly
/// those of a node map — ids are the identity, slots are the address — but
/// lookups are array indexing instead of hashing, and per-node side tables
/// can be dense ([`crate::SlotMap`], [`crate::SlotSet`]) over
/// `0..`[`Tree::slot_bound`]. No record owns a heap allocation, so
/// cloning, [`Tree::map_labels`] and snapshot decoding are a few bulk
/// copies.
///
/// The label type `L` is generic: documents use [`Sym`], editing scripts use
/// an edit alphabet (`xvu_edit`).
#[derive(Clone, Debug)]
pub struct Tree<L> {
    slab: Vec<Node<L>>,
    /// Every child list, at the ranges the records name.
    kids: Vec<NodeId>,
    /// Entries of `kids` that no record's range covers any more.
    dead: usize,
    /// Vacant slots, the most recently vacated last (reused first).
    free: Vec<Slot>,
    index: SlotIndex,
    root: NodeId,
}

impl<L: PartialEq> PartialEq for Tree<L> {
    fn eq(&self, other: &Tree<L>) -> bool {
        self.root == other.root
            && self.size() == other.size()
            && self.live().all(|(_, n)| {
                other.get(n.id).is_some_and(|m| {
                    m.label == n.label
                        && m.parent == n.parent
                        && other.kids[m.list()] == self.kids[n.list()]
                })
            })
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
        tree.push_node(Node::new(id, label, None, 0, 0));
        tree
    }

    /// An arena-less shell with the given root identifier (internal
    /// constructor backing every tree-building code path).
    pub(crate) fn empty_with_root(root: NodeId) -> Tree<L> {
        Tree::from_raw_parts(Vec::new(), Vec::new(), SlotIndex::new(), root)
    }

    /// An arena-less shell with room for `nodes` records.
    pub(crate) fn with_capacity(root: NodeId, nodes: usize) -> Tree<L> {
        Tree::from_raw_parts(
            Vec::with_capacity(nodes),
            Vec::new(),
            SlotIndex::new(),
            root,
        )
    }

    /// Assembles a tree directly from a decoded arena image: records in
    /// slot order (none vacant, lists tiling `kids`), the child buffer, a
    /// matching identifier index, and the root. Backs the bulk snapshot
    /// decoder (`crate::snapshot`); the caller is expected to
    /// [`Tree::validate`] the result.
    pub(crate) fn from_raw_parts(
        slab: Vec<Node<L>>,
        kids: Vec<NodeId>,
        index: SlotIndex,
        root: NodeId,
    ) -> Tree<L> {
        Tree {
            slab,
            kids,
            dead: 0,
            free: Vec::new(),
            index,
            root,
        }
    }

    /// Puts a record into a vacant slot, or a new one at the end of the
    /// arena, indexing its identifier.
    #[inline]
    pub(crate) fn push_node(&mut self, node: Node<L>) -> Slot {
        let id = node.id;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s.index()] = node;
                s
            }
            None => {
                let s =
                    Slot::new(u32::try_from(self.slab.len()).expect("tree larger than u32::MAX"));
                self.slab.push(node);
                s
            }
        };
        self.index.insert(id, slot);
        slot
    }

    /// Appends `list` to the child buffer, returning where it starts.
    #[inline]
    pub(crate) fn push_list(&mut self, list: &[NodeId]) -> u32 {
        let start = self.buffer_end();
        self.kids.extend_from_slice(list);
        start
    }

    /// The end of the child buffer, as a list start.
    #[inline]
    fn buffer_end(&self) -> u32 {
        u32::try_from(self.kids.len())
            .ok()
            .filter(|&n| n < VACANT)
            .expect("child buffer larger than u32::MAX")
    }

    /// Points the list of the node at `slot`, which has none yet, at the
    /// `len` entries from `start` (no room).
    #[inline]
    pub(crate) fn set_list(&mut self, slot: Slot, start: u32, len: u32) {
        let node = &mut self.slab[slot.index()];
        node.start = start;
        node.len = len;
        node.cap = len;
    }

    /// The live records with their slots, in slot order.
    fn live(&self) -> impl Iterator<Item = (Slot, &Node<L>)> {
        self.slab
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_vacant())
            .map(|(i, n)| (Slot::new(i as u32), n))
    }

    /// Makes room for one more child in the list of the node at `slot`:
    /// in place while the list has room or ends the buffer, otherwise by
    /// moving it to the end with twice its length as room (its old range
    /// turns dead).
    fn reserve_child(&mut self, slot: Slot) {
        let end = self.buffer_end();
        let node = &mut self.slab[slot.index()];
        if node.len < node.cap {
            return;
        }
        if node.start + node.len == end {
            self.kids.push(HOLE);
            node.cap += 1;
            return;
        }
        let room = (2 * node.len).max(1);
        self.kids.extend_from_within(node.list());
        self.kids.resize(end as usize + room as usize, HOLE);
        self.dead += node.cap as usize;
        node.start = end;
        node.cap = room;
        self.buffer_end(); // the buffer stays addressable
    }

    /// Inserts `child` at `position` of the list of the node at `slot`.
    fn insert_child(&mut self, slot: Slot, position: usize, child: NodeId) {
        self.reserve_child(slot);
        let node = &mut self.slab[slot.index()];
        let list = node.list();
        let at = list.start + position;
        self.kids.copy_within(at..list.end, at + 1);
        self.kids[at] = child;
        node.len += 1;
    }

    /// Rewrites the child buffer with every live list packed in slot
    /// order, without room, once abandoned ranges outnumber the live
    /// entries. A list only moves when it is full, so the ranges it leaves
    /// pay for the rewrite.
    fn compact_if_sparse(&mut self) {
        if self.dead < self.size() {
            return;
        }
        let mut kids = Vec::with_capacity(self.size() - 1);
        for node in self.slab.iter_mut().filter(|n| !n.is_vacant()) {
            let list = node.list();
            node.start = kids.len() as u32;
            node.cap = node.len;
            kids.extend_from_slice(&self.kids[list]);
        }
        self.kids = kids;
        self.dead = 0;
    }

    /// The root node identifier.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The number of nodes, `|t|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// One past the highest slot in use: every live slot is below it, so
    /// a slot-keyed side table of this length covers the tree. Equal to
    /// [`Tree::size`] while no slot is vacant.
    #[inline]
    pub fn slot_bound(&self) -> usize {
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

    /// The live arena slots, in slot order (vacant slots skipped).
    #[inline]
    pub fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.live().map(|(s, _)| s)
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

    /// Borrow the node at a live arena slot.
    ///
    /// # Panics
    /// Panics if `slot` is out of range for this tree.
    #[inline]
    pub fn node_at(&self, slot: Slot) -> &Node<L> {
        &self.slab[slot.index()]
    }

    /// The identifier of the node at a live arena slot.
    ///
    /// # Panics
    /// Panics if `slot` is out of range for this tree.
    #[inline]
    pub fn id_at(&self, slot: Slot) -> NodeId {
        self.slab[slot.index()].id
    }

    /// The ordered children of the node at a live arena slot (empty for a
    /// vacant one).
    ///
    /// # Panics
    /// Panics if `slot` is out of range for this tree.
    #[inline]
    pub fn children_at(&self, slot: Slot) -> &[NodeId] {
        &self.kids[self.slab[slot.index()].list()]
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
        &self.kids[self.node(id).list()]
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
        self.children(id)
            .iter()
            .map(|&c| self.node(c).label)
            .collect()
    }

    /// All node identifiers, in slot order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live().map(|(_, n)| n.id)
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
        let arity = self.slab[pslot.index()].len as usize;
        self.insert_child(pslot, arity, id);
        // The leaf's empty list starts at the end of the buffer, so its
        // own first children append in place.
        let start = self.buffer_end();
        self.push_node(Node::new(id, label, Some(parent), start, 0));
        self.compact_if_sparse();
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
        let arity = self.slab[pslot.index()].len as usize;
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
        self.insert_child(pslot, position, sub_root);
        let Tree { slab, kids, .. } = sub;
        for mut node in slab.into_iter().filter(|n| !n.is_vacant()) {
            if node.id == sub_root {
                node.parent = Some(parent);
            }
            node.start = self.push_list(&kids[node.list()]);
            node.cap = node.len;
            self.push_node(node);
        }
        self.compact_if_sparse();
        Ok(())
    }

    /// Removes and returns the subtree rooted at `id`. Its slots turn
    /// vacant and every other node keeps its slot. Insertions reuse the
    /// vacated slots first, in the subtree's document order, so attaching
    /// the subtree straight back restores every slot.
    pub fn detach_subtree(&mut self, id: NodeId) -> Result<Tree<L>, TreeError>
    where
        L: Clone,
    {
        if !self.contains(id) {
            return Err(TreeError::UnknownNode(id));
        }
        if id == self.root {
            return Err(TreeError::CannotDetachRoot);
        }
        let parent = self.node(id).parent.expect("non-root has a parent");
        let pslot = self.slot(parent).expect("parent indexed");
        let plist = self.slab[pslot.index()].list();
        let pos = self.kids[plist.clone()]
            .iter()
            .position(|&c| c == id)
            .expect("child listed in parent");
        self.kids
            .copy_within(plist.start + pos + 1..plist.end, plist.start + pos);
        self.slab[pslot.index()].len -= 1;

        // Copy the subtree out in document order, vacating each slot once
        // its record is copied.
        let freed = self.free.len();
        let mut sub = Tree::empty_with_root(id);
        let mut stack = vec![self.slot(id).expect("subtree root indexed")];
        while let Some(s) = stack.pop() {
            let node = &self.slab[s.index()];
            let list = &self.kids[node.list()];
            let parent = if node.id == id { None } else { node.parent };
            let start = sub.push_list(list);
            sub.push_node(Node::new(
                node.id,
                node.label.clone(),
                parent,
                start,
                node.len,
            ));
            stack.extend(
                list.iter()
                    .rev()
                    .map(|&c| self.index.slot(c).expect("child indexed")),
            );
            let node = &mut self.slab[s.index()];
            self.index.remove(node.id);
            self.dead += node.cap as usize;
            node.start = 0;
            node.len = 0;
            node.cap = VACANT;
            self.free.push(s);
        }
        // The free list pops from its end: the subtree root's slot first.
        self.free[freed..].reverse();
        self.compact_if_sparse();
        Ok(sub)
    }

    /// A clone of the subtree rooted at `id` (identifiers preserved) — the
    /// paper's `t|_n`.
    pub fn subtree(&self, id: NodeId) -> Tree<L>
    where
        L: Clone,
    {
        let mut out = Tree::empty_with_root(id);
        out.copy_subtree(self, id, None, L::clone);
        out
    }

    /// Copies `src`'s subtree rooted at `root` into this arena in document
    /// order, labels mapped by `f`, identifiers preserved, each child list
    /// copied whole; the copy's root gets `parent`. Indexes the copied
    /// identifiers but links the copy's root into no list.
    fn copy_subtree<M>(
        &mut self,
        src: &Tree<M>,
        root: NodeId,
        parent: Option<NodeId>,
        mut f: impl FnMut(&M) -> L,
    ) {
        let mut stack = vec![src.slot(root).expect("copied subtree root in source")];
        while let Some(s) = stack.pop() {
            let node = src.node_at(s);
            let list = src.children_at(s);
            let start = self.push_list(list);
            let p = if node.id == root { parent } else { node.parent };
            self.push_node(Node::new(node.id, f(&node.label), p, start, node.len));
            stack.extend(
                list.iter()
                    .rev()
                    .map(|&c| src.slot(c).expect("child indexed")),
            );
        }
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
        f: impl FnMut(&M) -> L,
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
        let arity = self.slab[pslot.index()].len as usize;
        self.insert_child(pslot, arity, root);
        self.copy_subtree(src, root, Some(parent), f);
        self.compact_if_sparse();
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
                self.kids[node.list()]
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
        let list = self.slab[pslot.index()].list();
        let children = &self.kids[list.clone()];
        if children == order {
            return Ok(());
        }
        let mut want = order.to_vec();
        let mut have = children.to_vec();
        want.sort_unstable();
        have.sort_unstable();
        if want != have {
            return Err(TreeError::NotAPermutation(parent));
        }
        self.kids[list].copy_from_slice(order);
        Ok(())
    }

    /// The number of nodes in the subtree rooted at `id`, `|t|_n|`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        let mut count = 0usize;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            count += 1;
            stack.extend_from_slice(self.children(n));
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

    /// Height of the tree (a leaf-only tree has height 0), in one pass on
    /// an explicit stack of (slot, depth) pairs.
    pub fn height(&self) -> usize {
        let resolve = |c: &NodeId| self.slot(*c).expect("child indexed");
        let mut height = 0;
        let mut stack = vec![(resolve(&self.root), 0usize)];
        while let Some((s, d)) = stack.pop() {
            height = height.max(d);
            stack.extend(self.children_at(s).iter().map(|c| (resolve(c), d + 1)));
        }
        height
    }

    /// Maps the label of every node, preserving identifiers, structure and
    /// slots.
    ///
    /// `f` runs once per node, the root first. The arena is copied in
    /// bulk: the child buffer, the free list and the identifier index
    /// whole, and one record per slot (a vacant slot's record takes a copy
    /// of the root's mapped label), with room for a small edit of the
    /// copy.
    pub fn map_labels<M: Clone>(&self, mut f: impl FnMut(NodeId, &L) -> M) -> Tree<M> {
        let root_slot = self.slot(self.root).expect("root indexed");
        let root_label = f(self.root, &self.slab[root_slot.index()].label);
        let mut slab: Vec<Node<M>> = Vec::with_capacity(self.slab.len() + COPY_ROOM);
        let mut kids = Vec::with_capacity(self.kids.len() + COPY_ROOM);
        kids.extend_from_slice(&self.kids);
        slab.extend(self.slab.iter().enumerate().map(|(i, node)| Node {
            id: node.id,
            label: if node.is_vacant() || i == root_slot.index() {
                root_label.clone()
            } else {
                f(node.id, &node.label)
            },
            parent: node.parent,
            start: node.start,
            len: node.len,
            cap: node.cap,
        }));
        Tree {
            slab,
            kids,
            dead: self.dead,
            free: self.free.clone(),
            index: self.index.clone(),
            root: self.root,
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
        let root = self.node(self.root);
        let mut out = PreorderBuilder::with_capacity(gen.fresh(), root.label.clone(), self.size());
        // Pre-order on an explicit stack, so fresh identifiers are drawn
        // in document order: each entry is a source node and its copy's
        // parent.
        let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
        let push = |stack: &mut Vec<(NodeId, NodeId)>, n: NodeId, copy: NodeId| {
            stack.extend(self.children(n).iter().rev().map(|&c| (c, copy)));
        };
        push(&mut stack, self.root, out.root());
        while let Some((n, parent)) = stack.pop() {
            let id = gen.fresh();
            out.child(parent, id, self.node(n).label.clone())
                .expect("fresh ids are unique");
            push(&mut stack, n, id);
        }
        out.finish()
    }

    /// Identifier-oblivious structural equality (same shape, same labels).
    pub fn isomorphic(&self, other: &Tree<L>) -> bool
    where
        L: PartialEq,
    {
        let mut stack = vec![(self.root, other.root)];
        while let Some((an, bn)) = stack.pop() {
            let (ka, kb) = (self.children(an), other.children(bn));
            if self.node(an).label != other.node(bn).label || ka.len() != kb.len() {
                return false;
            }
            stack.extend(ka.iter().copied().zip(kb.iter().copied()));
        }
        true
    }

    /// Checks internal invariants: parent/child agreement, reachability of
    /// exactly the live nodes from the root, no duplicate children,
    /// arena/index agreement, a free list of exactly the vacant slots, and
    /// child-list ranges that are disjoint, inside the buffer and account
    /// for it with the dead entries.
    ///
    /// Intended for tests and debug assertions; all public mutators maintain
    /// these invariants.
    pub fn validate(&self) -> Result<(), TreeError> {
        let bad = |msg: String| Err(TreeError::Inconsistent(msg));
        let mut vacant = SlotSet::with_capacity(self.slot_bound());
        let mut claimed = vec![0u64; self.kids.len().div_ceil(64)];
        let mut covered = 0usize;
        for (i, node) in self.slab.iter().enumerate() {
            if node.is_vacant() {
                vacant.insert(Slot::new(i as u32));
                continue;
            }
            if self.index.slot(node.id).map(Slot::index) != Some(i) {
                return bad(format!(
                    "arena slot {i} holds {} but the index disagrees",
                    node.id
                ));
            }
            let room = node.start as usize..node.start as usize + node.cap as usize;
            if node.len > node.cap || room.end > self.kids.len() {
                return bad(format!("child list of {} leaves the buffer", node.id));
            }
            for e in room {
                let (w, b) = (e / 64, 1u64 << (e % 64));
                if claimed[w] & b != 0 {
                    return bad(format!("child list of {} overlaps another", node.id));
                }
                claimed[w] |= b;
            }
            covered += node.cap as usize;
        }
        if covered + self.dead != self.kids.len() {
            return bad(format!(
                "{} buffer entries, {covered} in lists and {} dead",
                self.kids.len(),
                self.dead
            ));
        }
        if vacant.len() != self.free.len() || !self.free.iter().all(|&s| vacant.remove(s)) {
            return bad("the free list is not the set of vacant slots".into());
        }
        if self.index.len() != self.size() {
            return bad(format!(
                "{} nodes in arena, {} identifiers indexed",
                self.size(),
                self.index.len()
            ));
        }
        if self.node(self.root).parent.is_some() {
            return bad("root has a parent".into());
        }
        let mut seen = SlotSet::with_capacity(self.slot_bound());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let slot = self
                .index
                .slot(n)
                .ok_or_else(|| TreeError::Inconsistent(format!("dangling child {n}")))?;
            if !seen.insert(slot) {
                return bad(format!("node {n} reachable twice (cycle or shared child)"));
            }
            for &c in self.children_at(slot) {
                let child = self
                    .get(c)
                    .ok_or_else(|| TreeError::Inconsistent(format!("dangling child {c}")))?;
                if child.parent != Some(n) {
                    return bad(format!("child {c} does not point back to parent {n}"));
                }
                stack.push(c);
            }
        }
        if seen.len() != self.size() {
            return bad(format!(
                "{} nodes in arena, {} reachable from root",
                self.size(),
                seen.len()
            ));
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
    fn detach_leaves_every_other_slot_in_place() {
        // detaching a middle subtree vacates its slots: every surviving
        // node keeps its slot, and later insertions reuse the vacated
        // ones in the detached subtree's document order
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        let b = t.add_child(a, &mut gen, sym(2));
        let c = t.add_child(r, &mut gen, sym(3));
        let slot = |t: &DocTree, n| t.slot(n).unwrap();
        let (sr, sa, sb, sc) = (slot(&t, r), slot(&t, a), slot(&t, b), slot(&t, c));
        t.detach_subtree(a).unwrap();
        t.validate().unwrap();
        assert_eq!((t.size(), t.slot_bound()), (2, 4));
        assert_eq!(t.slots().collect::<Vec<_>>(), vec![sr, sc]);
        assert_eq!((slot(&t, r), slot(&t, c)), (sr, sc));
        assert_eq!(t.children(r), &[c]);
        assert_eq!(t.label(c), sym(3));
        let d = t.add_child(r, &mut gen, sym(4));
        let e = t.add_child(d, &mut gen, sym(5));
        t.validate().unwrap();
        assert_eq!((slot(&t, d), slot(&t, e)), (sa, sb));
        assert_eq!((t.size(), t.slot_bound()), (4, 4));
        assert_eq!(t.children(r), &[c, d]);
    }

    #[test]
    fn appends_move_full_lists_and_the_buffer_compacts() {
        // every root child gets a child of its own, so each append to the
        // root finds its list away from the end of the buffer
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let mut kids = Vec::new();
        for i in 0..200 {
            let c = t.add_child(r, &mut gen, sym(i % 7));
            t.add_child(c, &mut gen, sym(9));
            kids.push(c);
            t.validate().unwrap();
        }
        assert_eq!(t.children(r), kids.as_slice());
        // the root's list moved with doubled room each time it filled up,
        // so the abandoned ranges stay below the live entries
        assert!(t.dead < t.size(), "{} dead, {} nodes", t.dead, t.size());
        // removing most nodes abandons their ranges; the buffer compacts
        for &c in &kids[..150] {
            t.detach_subtree(c).unwrap();
        }
        t.validate().unwrap();
        assert!(t.dead < t.size());
        assert!(t.kids.len() < 3 * t.size(), "{} entries", t.kids.len());
        assert_eq!(t.children(r), &kids[150..]);
    }

    #[test]
    fn height_is_one_pass_over_a_deep_chain() {
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let mut leaf = t.root();
        for _ in 0..20_000 {
            leaf = t.add_child(leaf, &mut gen, sym(1));
        }
        t.add_child(t.root(), &mut gen, sym(2));
        assert_eq!(t.height(), 20_000);
        assert_eq!(Tree::leaf_with_id(NodeId(0), sym(0)).height(), 0);
    }

    #[test]
    fn map_labels_and_clone_keep_slots_and_vacancies() {
        let mut gen = NodeIdGen::new();
        let mut t: DocTree = Tree::leaf(&mut gen, sym(0));
        let r = t.root();
        let a = t.add_child(r, &mut gen, sym(1));
        t.add_child(a, &mut gen, sym(2));
        let c = t.add_child(r, &mut gen, sym(3));
        t.detach_subtree(a).unwrap();
        let m = t.map_labels(|_, l| l.index() + 10);
        m.validate().unwrap();
        assert_eq!((m.size(), m.slot_bound()), (2, 4));
        assert_eq!(m.slot(c), t.slot(c));
        assert_eq!(m.label(c), 13);
        let u = t.clone();
        u.validate().unwrap();
        assert_eq!(u, t);
        assert_eq!(u.slots().collect::<Vec<_>>(), t.slots().collect::<Vec<_>>());
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
        t.reorder_children(r, &[c[2], c[0], c[1]]).unwrap();
        assert_eq!(t.children(r), &[c[2], c[0], c[1]]);
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
        // the current order is a no-op
        t.reorder_children(r, &[c[2], c[0], c[1]]).unwrap();
        assert_eq!(t, before);
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
}
