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
    pub fn fresh(&mut self) -> NodeId {
        let id = NodeId(self.next);
        self.next = self
            .next
            .checked_add(1)
            .expect("node identifier space exhausted");
        id
    }

    /// Ensures all future identifiers are strictly greater than `id`.
    ///
    /// Used after constructing trees with explicit identifiers (paper
    /// fixtures, parsed `label#id` terms) so fresh nodes never collide.
    pub fn bump_past(&mut self, id: NodeId) {
        if id.0 >= self.next {
            self.next = id.0 + 1;
        }
    }

    /// The next identifier that would be allocated (without allocating it).
    pub fn peek(&self) -> NodeId {
        NodeId(self.next)
    }

    /// Advances this generator to at least `other`'s frontier, so every
    /// future identifier is fresh with respect to *both* histories.
    ///
    /// Used when a derived generator (e.g. one rebuilt from a new document)
    /// must stay monotone with respect to an older generator whose
    /// identifiers may no longer appear in any tree — identifiers are never
    /// recycled, even for deleted nodes.
    pub fn merge(&mut self, other: &NodeIdGen) {
        self.next = self.next.max(other.next);
    }
}

/// A single tree node: identifier, label, parent link, ordered children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node<L> {
    /// The node's persistent identifier.
    pub id: NodeId,
    /// The node's label.
    pub label: L,
    /// Parent identifier; `None` for the root.
    pub parent: Option<NodeId>,
    /// Ordered children (the `<_t` sibling order).
    pub children: Vec<NodeId>,
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
    }

    #[test]
    fn starting_at_honours_start() {
        let mut g = NodeIdGen::starting_at(100);
        assert_eq!(g.fresh(), NodeId(100));
    }

    #[test]
    fn merge_takes_the_later_frontier() {
        let mut g = NodeIdGen::starting_at(10);
        g.merge(&NodeIdGen::starting_at(100));
        assert_eq!(g.fresh(), NodeId(100));
        // merging an older generator is a no-op
        g.merge(&NodeIdGen::starting_at(5));
        assert_eq!(g.fresh(), NodeId(101));
        // the empty generator never rewinds anything
        g.merge(&NodeIdGen::new());
        assert_eq!(g.fresh(), NodeId(102));
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
