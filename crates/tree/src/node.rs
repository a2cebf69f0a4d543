//! Node identifiers and tree nodes.

use std::fmt;

/// A persistent, globally unique node identifier.
///
/// Identifiers carry the correspondence between the nodes of a source
/// document, its view, and the input/output trees of editing scripts; tree
/// equality in the paper is identifier-sensitive. Identifiers are plain
/// `u64` values allocated from a [`NodeIdGen`]; they are *not* required to
/// form a prefix-closed set (the paper explicitly drops that convention
/// because updates insert and delete nodes).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The largest identifier. `u64::MAX` is kept out of the identifier
    /// space, so every identifier has a successor a [`NodeIdGen`] can move
    /// past it to; every reader rejects it.
    pub const MAX: NodeId = NodeId(u64::MAX - 1);
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A monotone allocator of fresh [`NodeId`]s.
///
/// A single generator should be shared across every tree participating in a
/// view-update instance so that "fresh node" (used when materialising
/// invisible subtrees) genuinely means *not used anywhere else*.
#[derive(Clone, Debug, Default)]
pub struct NodeIdGen {
    next: u64,
}

impl NodeIdGen {
    /// A generator starting at identifier `0`.
    pub fn new() -> NodeIdGen {
        NodeIdGen { next: 0 }
    }

    /// A generator whose first fresh identifier is `start`.
    pub fn starting_at(start: u64) -> NodeIdGen {
        NodeIdGen { next: start }
    }

    /// Allocates a fresh identifier.
    ///
    /// # Panics
    /// Panics once [`NodeId::MAX`] has been handed out or bumped past.
    pub fn fresh(&mut self) -> NodeId {
        assert!(
            self.next <= NodeId::MAX.0,
            "node identifier space exhausted"
        );
        let id = NodeId(self.next);
        self.next += 1;
        id
    }

    /// Ensures all future identifiers are strictly greater than `id`.
    ///
    /// Used after constructing trees with explicit identifiers (paper
    /// fixtures, parsed `label#id` terms) so fresh nodes never collide.
    /// Never wraps: bumped past [`NodeId::MAX`] (or `u64::MAX`), the
    /// generator is exhausted, and [`NodeIdGen::fresh`] panics rather than
    /// hand out a used identifier.
    pub fn bump_past(&mut self, id: NodeId) {
        self.next = self.next.max(id.0.saturating_add(1));
    }

    /// The next identifier that would be allocated (without allocating it).
    pub fn peek(&self) -> NodeId {
        NodeId(self.next)
    }

    /// How many more identifiers [`NodeIdGen::fresh`] can hand out: 0
    /// once the generator is exhausted.
    pub fn remaining(&self) -> u64 {
        // `next` never passes `u64::MAX`, one past `NodeId::MAX`
        u64::MAX - self.next
    }
}

/// Marks a vacant slot in a node record's `cap` field: no live list has
/// `u32::MAX` entries of room, since the child buffer stays below that.
pub(crate) const VACANT: u32 = u32::MAX;

/// A single tree node: identifier, label, parent link, and where its
/// ordered children sit in the tree's child buffer.
///
/// The children themselves are read through the owning tree:
/// [`Tree::children`](crate::Tree::children) by identifier,
/// [`Tree::children_at`](crate::Tree::children_at) by slot.
#[derive(Clone, Debug)]
pub struct Node<L> {
    /// The node's persistent identifier.
    pub id: NodeId,
    /// The node's label.
    pub label: L,
    /// Parent identifier; `None` for the root.
    pub parent: Option<NodeId>,
    /// First entry of the child list in the tree's child buffer.
    pub(crate) start: u32,
    /// Number of children (the `<_t` sibling order is buffer order).
    pub(crate) len: u32,
    /// Entries the list may fill in place, from `start`; [`VACANT`] in a
    /// vacant slot's record.
    pub(crate) cap: u32,
}

impl<L> Node<L> {
    /// A record whose list is `len` entries from `start`, with no spare
    /// room.
    #[inline]
    pub(crate) fn new(
        id: NodeId,
        label: L,
        parent: Option<NodeId>,
        start: u32,
        len: u32,
    ) -> Node<L> {
        Node {
            id,
            label,
            parent,
            start,
            len,
            cap: len,
        }
    }

    /// Whether this record fills a vacant slot.
    #[inline]
    pub(crate) fn is_vacant(&self) -> bool {
        self.cap == VACANT
    }

    /// The buffer positions of the child list.
    #[inline]
    pub(crate) fn list(&self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_distinct_and_increasing() {
        let mut g = NodeIdGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn bump_past_prevents_collisions() {
        let mut g = NodeIdGen::new();
        g.bump_past(NodeId(41));
        assert_eq!(g.fresh(), NodeId(42));
        // bump below the current frontier is a no-op
        g.bump_past(NodeId(3));
        assert_eq!(g.fresh(), NodeId(43));
        // the last identifier leaves the generator exhausted, not wrapped
        g.bump_past(NodeId(u64::MAX));
        assert_eq!(g.peek(), NodeId(u64::MAX));
        assert_eq!(g.remaining(), 0);
        assert!(std::panic::catch_unwind(move || g.fresh()).is_err());
    }

    #[test]
    fn starting_at_honours_start() {
        let mut g = NodeIdGen::starting_at(100);
        assert_eq!(g.fresh(), NodeId(100));
    }

    #[test]
    fn peek_does_not_allocate() {
        let mut g = NodeIdGen::new();
        assert_eq!(g.peek(), NodeId(0));
        assert_eq!(g.peek(), NodeId(0));
        assert_eq!(g.fresh(), NodeId(0));
        assert_eq!(g.peek(), NodeId(1));
    }
}
