//! Hash-consed structural interning of subtrees.
//!
//! An [`Interner`] assigns every *subtree shape* — a label together with
//! the ordered intern ids of its children — a stable [`InternId`]. Two
//! subtrees receive the same id **iff** they are structurally equal
//! (same labels in the same tree shape, node identifiers ignored), so
//! structural equality becomes one integer comparison and any
//! pure-function-of-structure memo can be keyed by `InternId` and shared
//! across documents.
//!
//! # Keying contract
//!
//! `InternId = intern(label, [InternId of child₁, …, InternId of childₖ])`
//!
//! computed bottom-up (postorder). Ids are allocated from a private
//! counter in first-come order: they are **stable for the lifetime of
//! the `Interner`** and meaningless outside it. Nothing about an id's
//! numeric value is structural — only *equality within one interner*
//! carries meaning, which is why engine-level caches that key by
//! `InternId` must live next to the interner that minted the ids.
//!
//! # Concurrency
//!
//! The table is sharded: a lookup takes one shard read lock on the hit
//! path and one shard write lock only when inserting a never-seen shape.
//! Concurrent interning of the same shape races benignly — the write
//! path re-checks under the exclusive lock, so all callers still agree
//! on a single id.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// One subtree shape: the node label plus the interned children, in
/// order.
type ShapeKey = (u32, Box<[InternId]>);

const SHARD_COUNT: usize = 16;

/// A thread-safe hash-consing table mapping subtree shapes to
/// [`InternId`]s.
///
/// The module docs spell out the keying contract. The interner
/// only ever grows — retiring a document does not retire its shapes,
/// which is exactly what lets memos keyed by `InternId` outlive the
/// session that created them.
#[derive(Debug)]
pub struct Interner {
    shards: [RwLock<HashMap<ShapeKey, InternId>>; SHARD_COUNT],
    next: AtomicU64,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            next: AtomicU64::new(0),
        }
    }

    fn shard_of(label: Sym, children: &[InternId]) -> usize {
        let mut h = DefaultHasher::new();
        label.index().hash(&mut h);
        children.hash(&mut h);
        (h.finish() as usize) % SHARD_COUNT
    }

    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, HashMap<ShapeKey, InternId>> {
        self.shards[i]
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, HashMap<ShapeKey, InternId>> {
        self.shards[i]
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The id of the shape `label(children…)`, allocating one on first
    /// sight. Children must already be interned (bottom-up order).
    pub fn intern(&self, label: Sym, children: &[InternId]) -> InternId {
        let shard = Self::shard_of(label, children);
        let key: ShapeKey = (label.index() as u32, children.into());
        if let Some(&id) = self.read_shard(shard).get(&key) {
            return id;
        }
        let mut map = self.write_shard(shard);
        // Re-check: another thread may have inserted between the locks.
        if let Some(&id) = map.get(&key) {
            return id;
        }
        let id = InternId(self.next.fetch_add(1, Ordering::Relaxed));
        map.insert(key, id);
        id
    }

    /// Looks up the shape `label(children…)` without allocating an id.
    pub fn lookup(&self, label: Sym, children: &[InternId]) -> Option<InternId> {
        let shard = Self::shard_of(label, children);
        let key: ShapeKey = (label.index() as u32, children.into());
        self.read_shard(shard).get(&key).copied()
    }

    /// Number of distinct shapes interned so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.read_len(s)).sum()
    }

    fn read_len(&self, s: &RwLock<HashMap<ShapeKey, InternId>>) -> usize {
        s.read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Whether no shape has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns every subtree of `doc` bottom-up, returning the id of
    /// each node's subtree keyed by the node's arena slot.
    pub fn intern_doc(&self, doc: &DocTree) -> SlotMap<InternId> {
        let mut ids = SlotMap::with_capacity(doc.slot_bound());
        let mut scratch = Vec::new();
        for n in doc.postorder() {
            let id = self.intern_node(doc, n, &ids, &mut scratch);
            ids.insert(doc.slot(n).expect("postorder yields live nodes"), id);
        }
        ids
    }

    /// Interns the subtree rooted at `n`, reading the children's ids
    /// from `ids` (they must already be present — postorder discipline).
    pub fn intern_node(
        &self,
        doc: &DocTree,
        n: NodeId,
        ids: &SlotMap<InternId>,
        scratch: &mut Vec<InternId>,
    ) -> InternId {
        scratch.clear();
        for &c in doc.children(n) {
            let cslot = doc.slot(c).expect("child of a live node is live");
            scratch.push(*ids.get(cslot).expect("children interned first"));
        }
        self.intern(doc.label(n), scratch)
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
        let interner = Interner::new();
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
        let interner = Interner::new();
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
        let interner = Interner::new();
        let a = alpha.intern("a");
        assert_eq!(interner.lookup(a, &[]), None);
        let id = interner.intern(a, &[]);
        assert_eq!(interner.lookup(a, &[]), Some(id));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        use std::sync::Arc;
        let mut alpha = Alphabet::new();
        let syms: Vec<Sym> = (0..8).map(|i| alpha.intern(&format!("s{i}"))).collect();
        let interner = Arc::new(Interner::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let interner = Arc::clone(&interner);
                let syms = syms.clone();
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for &s in &syms {
                        let leaf = interner.intern(s, &[]);
                        let pair = interner.intern(s, &[leaf, leaf]);
                        ids.push((leaf, pair));
                    }
                    ids
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "every thread sees the same ids");
        }
        assert_eq!(interner.len(), 16, "8 leaves + 8 pairs, no duplicates");
    }
}
