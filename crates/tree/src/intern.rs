//! Hash-consed structural interning of subtrees.
//!
//! An [`Interner`] assigns every *subtree shape* — a label together with
//! the ordered intern ids of its children — a stable [`InternId`]. Two
//! subtrees receive the same id **iff** they are structurally equal
//! (same labels in the same tree shape, node identifiers ignored), so
//! structural equality becomes one integer comparison and any
//! pure-function-of-structure memo can be keyed by `InternId`.
//!
//! # Keying contract
//!
//! `InternId = intern(label, [InternId of child₁, …, InternId of childₖ])`
//!
//! computed bottom-up (postorder). Ids are allocated from a private
//! counter in first-come order and are meaningless outside the
//! `Interner` that minted them: nothing about an id's numeric value is
//! structural, only *equality within one interner* carries meaning, which
//! is why a memo keyed by `InternId` lives next to the interner that
//! minted its ids.
//!
//! # One owner
//!
//! An interner belongs to one owner and takes no lock: interning takes
//! `&mut self`. The propagation memo of `xvu_propagate` gives each
//! session its own, so no interner is shared between documents or
//! threads. [`Interner::retain`] drops the shapes its owner no longer
//! names. The counter never goes back, so a dropped id is never minted
//! again: an id names one shape for the interner's whole life.

use std::collections::HashMap;

use crate::alphabet::Sym;
use crate::slot::SlotMap;
use crate::tree::DocTree;
use crate::NodeId;

/// The stable identity of a subtree *shape* under one [`Interner`].
///
/// Equal ids ⟺ structurally equal subtrees (for ids minted by the same
/// interner). The numeric value is an allocation order, not a hash:
/// compare it, hash it, key maps by it — but never persist it or compare
/// ids across interners.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InternId(u64);

impl InternId {
    /// The raw id value (for diagnostics and dense-map keys).
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for InternId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "~{}", self.0)
    }
}

/// A hash-consing table mapping subtree shapes to [`InternId`]s.
///
/// The module docs spell out the keying contract. A shape is keyed by
/// its label's index followed by its children's ids, so a lookup reads a
/// slice built in the interner's own buffer and allocates nothing; only
/// a never-seen shape stores a key, of one word more than its node has
/// children ([`Interner::key_words`] keeps the total).
#[derive(Clone, Debug, Default)]
pub struct Interner {
    shapes: HashMap<Box<[u64]>, InternId>,
    next: u64,
    /// The words of every stored key.
    words: usize,
    /// The key being looked up: the label's index, then the children's
    /// ids.
    key: Vec<u64>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// The id of the shape `label(children…)`, allocating one on first
    /// sight. Children must already be interned (bottom-up order).
    pub fn intern(&mut self, label: Sym, children: &[InternId]) -> InternId {
        self.key.clear();
        self.key.push(label.index() as u64);
        self.key.extend(children.iter().map(|c| c.0));
        self.intern_key()
    }

    /// [`Interner::intern`] of the shape in `self.key`.
    fn intern_key(&mut self) -> InternId {
        if let Some(&id) = self.shapes.get(self.key.as_slice()) {
            return id;
        }
        let id = InternId(self.next);
        self.next += 1;
        self.words += self.key.len();
        self.shapes.insert(self.key.as_slice().into(), id);
        id
    }

    /// Looks up the shape `label(children…)` without allocating an id.
    pub fn lookup(&self, label: Sym, children: &[InternId]) -> Option<InternId> {
        let key: Vec<u64> = std::iter::once(label.index() as u64)
            .chain(children.iter().map(|c| c.0))
            .collect();
        self.shapes.get(key.as_slice()).copied()
    }

    /// Number of distinct shapes held.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether no shape is held.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// The 8-byte words of every key held: one per shape plus one per
    /// child of each shape, so a wide node's shapes weigh their width.
    pub fn key_words(&self) -> usize {
        self.words
    }

    /// Keeps only the shapes whose id `keep` accepts. A dropped shape
    /// interned again gets a new id: ids are never reused.
    pub fn retain(&mut self, mut keep: impl FnMut(InternId) -> bool) {
        let words = &mut self.words;
        self.shapes.retain(|key, id| {
            let kept = keep(*id);
            if !kept {
                *words -= key.len();
            }
            kept
        });
    }

    /// Interns every subtree of `doc` bottom-up, returning the id of
    /// each node's subtree keyed by the node's arena slot.
    pub fn intern_doc(&mut self, doc: &DocTree) -> SlotMap<InternId> {
        let mut ids = SlotMap::with_capacity(doc.slot_bound());
        self.intern_missing(doc, &mut ids);
        ids
    }

    /// Interns every live node of `doc` that has no id in `ids`,
    /// bottom-up, and records its id there. A node that has an id names
    /// its whole subtree, so the walk does not descend below it. The
    /// postorder runs on an explicit stack: a deep document costs heap,
    /// not call stack.
    pub fn intern_missing(&mut self, doc: &DocTree, ids: &mut SlotMap<InternId>) {
        let slot = |n: NodeId| doc.slot(n).expect("the walk visits live nodes");
        if ids.contains(slot(doc.root())) {
            return;
        }
        // `(node, children pushed)`: a node is interned on its second pop,
        // after every child below it on the stack.
        let mut stack = vec![(doc.root(), false)];
        while let Some((n, expanded)) = stack.pop() {
            if !expanded {
                stack.push((n, true));
                let kids = doc.children(n).iter().rev();
                stack.extend(
                    kids.filter(|&&c| !ids.contains(slot(c)))
                        .map(|&c| (c, false)),
                );
                continue;
            }
            self.key.clear();
            self.key.push(doc.label(n).index() as u64);
            self.key
                .extend(doc.children(n).iter().map(|&c| ids[slot(c)].0));
            let id = self.intern_key();
            ids.insert(slot(n), id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::parse_term_with_ids;
    use crate::{Alphabet, NodeIdGen};

    fn doc(alpha: &mut Alphabet, start: u64, term: &str) -> DocTree {
        let mut gen = NodeIdGen::starting_at(start);
        parse_term_with_ids(alpha, &mut gen, term).unwrap()
    }

    #[test]
    fn structurally_equal_subtrees_coalesce() {
        let mut alpha = Alphabet::new();
        let mut interner = Interner::new();
        // same shape, disjoint node identifiers
        let t1 = doc(&mut alpha, 0, "r#0(a#1, d#2(c#3), a#4)");
        let t2 = doc(&mut alpha, 100, "r#100(a#101, d#102(c#103), a#104)");
        let m1 = interner.intern_doc(&t1);
        let m2 = interner.intern_doc(&t2);
        assert_eq!(
            m1[t1.slot(t1.root()).unwrap()],
            m2[t2.slot(t2.root()).unwrap()],
            "identical shapes must share one id"
        );
        // the two `a` leaves inside one document coalesce too
        let a1 = t1.slot(crate::NodeId(1)).unwrap();
        let a4 = t1.slot(crate::NodeId(4)).unwrap();
        assert_eq!(m1[a1], m1[a4]);
        // interning a document adds no shapes the other didn't
        assert_eq!(interner.len(), 4, "r(...), a, d(c), c");
    }

    #[test]
    fn distinct_shapes_get_distinct_ids() {
        let mut alpha = Alphabet::new();
        let mut interner = Interner::new();
        let t = doc(&mut alpha, 0, "r#0(a#1, b#2, a#3(b#4))");
        let m = interner.intern_doc(&t);
        let slot = |id: u64| t.slot(crate::NodeId(id)).unwrap();
        // leaf a vs leaf b
        assert_ne!(m[slot(1)], m[slot(2)]);
        // leaf a vs a(b): same label, different children
        assert_ne!(m[slot(1)], m[slot(3)]);
        // b leaves coalesce wherever they sit
        assert_eq!(m[slot(2)], m[slot(4)]);
    }

    #[test]
    fn lookup_never_allocates() {
        let mut alpha = Alphabet::new();
        let mut interner = Interner::new();
        let a = alpha.intern("a");
        assert_eq!(interner.lookup(a, &[]), None);
        let id = interner.intern(a, &[]);
        assert_eq!(interner.lookup(a, &[]), Some(id));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn retain_drops_shapes_and_never_reuses_their_ids() {
        let mut alpha = Alphabet::new();
        let mut interner = Interner::new();
        let (a, b) = (alpha.intern("a"), alpha.intern("b"));
        let leaf_a = interner.intern(a, &[]);
        let leaf_b = interner.intern(b, &[]);
        let pair = interner.intern(a, &[leaf_b, leaf_b]);
        assert_eq!(interner.key_words(), 1 + 1 + 3);
        interner.retain(|id| id != leaf_b);
        assert_eq!(interner.len(), 2);
        assert_eq!(
            interner.key_words(),
            1 + 3,
            "the dropped key's word is gone"
        );
        assert_eq!(interner.lookup(b, &[]), None, "dropped");
        assert_eq!(interner.lookup(a, &[leaf_b, leaf_b]), Some(pair), "kept");
        let again = interner.intern(b, &[]);
        assert!(![leaf_a, leaf_b, pair].contains(&again), "a fresh id");
        assert_eq!(interner.intern(a, &[]), leaf_a);
    }
}
