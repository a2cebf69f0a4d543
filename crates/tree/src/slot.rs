//! Arena positions and slot-indexed side tables.
//!
//! A [`Tree`](crate::Tree) stores its node records in one slab; a
//! [`Slot`] is a position in that slab. Slots exist so that per-node side
//! tables — the dynamic-programming tables of the propagation algorithm,
//! a session's intern ids — can be plain `Vec`s instead of
//! `HashMap<NodeId, _>`s: resolve an identifier to a slot once, then every
//! table access is an array index.
//!
//! * [`SlotIndex`] maps persistent [`NodeId`]s to slots. Identifiers are
//!   allocated monotonically from a [`crate::NodeIdGen`], so in practice
//!   they are small and dense; the index exploits this with a direct
//!   `Vec`-backed table and falls back to a hash map only for outlier
//!   identifiers far beyond the populated range.
//! * [`SlotMap<T>`] is a `Vec<Option<T>>` keyed by slot.
//! * [`SlotSet`] is a bitset keyed by slot.
//!
//! **Stability:** a live node's slot never changes. Reads, insertions
//! and removals leave every other node where it is: removing a subtree
//! (`detach_subtree`) turns its slots *vacant*, and later insertions
//! (`add_child*`, `attach_subtree`, `append_mapped_subtree`) reuse vacant
//! slots before they extend the slab. So a side table keyed by slot stays
//! valid across any mutation for every node that survives it; only the
//! entries of removed nodes go stale, and a reused slot then names a
//! different node — a consumer drops those entries (a session drops the
//! intern ids of the slots a commit deleted or inserted). A label-mapped
//! copy or a clone keeps every slot of its source, vacancies included.
//!
//! Live slots are below [`Tree::slot_bound`](crate::Tree::slot_bound),
//! which equals the node count until a removal leaves a slot vacant;
//! [`Tree::slots`](crate::Tree::slots) yields the live ones.
//! [`NodeId`]s are persistent across all mutations — they are the
//! identity, slots are the address.

use crate::node::NodeId;
use std::collections::HashMap;
use std::fmt;

/// A position in a tree's node slab.
///
/// Slots are dense (`0..tree.slot_bound()`), suitable for direct `Vec`
/// indexing, and only meaningful for the tree that handed them out. A
/// node keeps its slot until it is removed; the slot may then be reused by
/// a later insertion. Obtain one with [`Tree::slot`](crate::Tree::slot).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot(u32);

impl Slot {
    /// Builds a slot from a raw index.
    #[inline]
    pub fn new(ix: u32) -> Slot {
        Slot(ix)
    }

    /// The dense index of this slot.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// Sentinel for a vacant entry in the dense table.
const VACANT: u32 = u32::MAX;

/// A `NodeId → Slot` index: dense `Vec` for identifiers near the populated
/// range, hash-map fallback for outliers.
///
/// Cloneable, so consumers that outlive a borrow of the tree (e.g. a
/// propagation forest keyed by the update script's nodes) can snapshot the
/// resolution and keep O(1) lookups without re-hashing identifiers.
#[derive(Clone, Debug, Default)]
pub struct SlotIndex {
    /// `dense[id.0] = slot` for identifiers below the dense horizon
    /// (`VACANT` when absent).
    dense: Vec<u32>,
    /// Outlier identifiers (far beyond the populated range).
    sparse: HashMap<u64, u32>,
    /// Number of entries.
    len: usize,
}

impl SlotIndex {
    /// An empty index.
    pub fn new() -> SlotIndex {
        SlotIndex::default()
    }

    /// Number of identifiers indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How far the dense table may grow for the current entry count:
    /// generously past the populated range, but never unboundedly beyond
    /// it, so one adversarial huge identifier cannot balloon memory.
    #[inline]
    fn dense_horizon(&self) -> u64 {
        (self.len as u64 + 1).saturating_mul(4).max(1024)
    }

    /// Whether `raw` addresses the dense table. Compared in `u64` *before*
    /// any `usize` cast: on 32-bit targets a truncating cast would alias
    /// huge identifiers onto small ones.
    #[inline]
    fn in_dense(&self, raw: u64) -> bool {
        raw < self.dense.len() as u64
    }

    /// The slot of `id`, if indexed.
    #[inline]
    pub fn slot(&self, id: NodeId) -> Option<Slot> {
        let raw = id.0;
        // A dense entry (even a vacant one) is authoritative: ids inside
        // the dense range are never stored sparsely.
        if self.in_dense(raw) {
            let s = self.dense[raw as usize];
            return (s != VACANT).then_some(Slot(s));
        }
        if self.sparse.is_empty() {
            return None;
        }
        self.sparse.get(&raw).copied().map(Slot)
    }

    /// Whether `id` is indexed.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot(id).is_some()
    }

    /// Inserts or updates the slot of `id`.
    pub fn insert(&mut self, id: NodeId, slot: Slot) {
        let raw = id.0;
        if self.in_dense(raw) {
            if self.dense[raw as usize] == VACANT {
                self.len += 1;
            }
            self.dense[raw as usize] = slot.0;
        } else if raw < self.dense_horizon() {
            let was_sparse = !self.sparse.is_empty() && self.sparse.remove(&raw).is_some();
            // Grow geometrically, capped at the horizon, so a run of
            // monotone inserts takes this branch O(log n) times, not once
            // per identifier.
            let grown = (raw + 1)
                .max(self.dense.len() as u64 * 2)
                .min(self.dense_horizon());
            self.dense.resize(grown as usize, VACANT);
            // Sparse entries are only for ids *beyond* the dense range;
            // growing the range must pull the newly covered ones in, or
            // the (vacant) dense entries would shadow them.
            if !self.sparse.is_empty() {
                let limit = self.dense.len() as u64;
                let covered: Vec<u64> = self
                    .sparse
                    .keys()
                    .filter(|&&k| k < limit)
                    .copied()
                    .collect();
                for k in covered {
                    let v = self.sparse.remove(&k).expect("key just listed");
                    self.dense[k as usize] = v;
                }
            }
            self.dense[raw as usize] = slot.0;
            if !was_sparse {
                self.len += 1;
            }
        } else if self.sparse.insert(raw, slot.0).is_none() {
            self.len += 1;
        }
    }

    /// The dense table as stored (`VACANT` = `u32::MAX` for holes) — the
    /// raw image the snapshot encoder copies out verbatim.
    pub(crate) fn dense_raw(&self) -> &[u32] {
        &self.dense
    }

    /// The sparse outlier entries as stored.
    pub(crate) fn sparse_raw(&self) -> &HashMap<u64, u32> {
        &self.sparse
    }

    /// Rebuilds an index from a decoded image. `len` must count exactly
    /// the non-vacant dense entries plus the sparse entries, and sparse
    /// keys must lie beyond the dense range (the dense table is
    /// authoritative for identifiers it covers); the snapshot decoder
    /// enforces both before calling and validates the result against the
    /// arena afterwards.
    pub(crate) fn from_raw_parts(
        dense: Vec<u32>,
        sparse: HashMap<u64, u32>,
        len: usize,
    ) -> SlotIndex {
        SlotIndex { dense, sparse, len }
    }

    /// Removes `id`, returning its slot.
    pub fn remove(&mut self, id: NodeId) -> Option<Slot> {
        let raw = id.0;
        if self.in_dense(raw) {
            let s = &mut self.dense[raw as usize];
            if *s != VACANT {
                let old = *s;
                *s = VACANT;
                self.len -= 1;
                return Some(Slot(old));
            }
            return None;
        }
        let removed = self.sparse.remove(&raw).map(Slot);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }
}

/// A side table `Slot → T`, backed by a plain `Vec`.
///
/// The dense replacement for `HashMap<NodeId, T>` throughout the
/// propagation stack: resolve identifiers to slots once, then every access
/// is an array index. Missing entries cost one `Option` discriminant, not
/// a hash probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotMap<T> {
    data: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for SlotMap<T> {
    fn default() -> SlotMap<T> {
        SlotMap {
            data: Vec::new(),
            len: 0,
        }
    }
}

impl<T> SlotMap<T> {
    /// An empty table.
    pub fn new() -> SlotMap<T> {
        SlotMap::default()
    }

    /// An empty table pre-sized for slots `0..n` (typically
    /// `tree.slot_bound()`), so inserts never reallocate.
    pub fn with_capacity(n: usize) -> SlotMap<T> {
        let mut data = Vec::new();
        data.resize_with(n, || None);
        SlotMap { data, len: 0 }
    }

    /// Number of occupied entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry at `slot`, if occupied.
    #[inline]
    pub fn get(&self, slot: Slot) -> Option<&T> {
        self.data.get(slot.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the entry at `slot`.
    #[inline]
    pub fn get_mut(&mut self, slot: Slot) -> Option<&mut T> {
        self.data.get_mut(slot.index()).and_then(Option::as_mut)
    }

    /// Whether `slot` is occupied.
    #[inline]
    pub fn contains(&self, slot: Slot) -> bool {
        self.get(slot).is_some()
    }

    /// Inserts a value, returning the previous occupant.
    pub fn insert(&mut self, slot: Slot, value: T) -> Option<T> {
        if slot.index() >= self.data.len() {
            self.data.resize_with(slot.index() + 1, || None);
        }
        let old = self.data[slot.index()].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the entry at `slot`.
    pub fn remove(&mut self, slot: Slot) -> Option<T> {
        let old = self.data.get_mut(slot.index()).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterates over occupied entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &T)> {
        self.data
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (Slot(i as u32), v)))
    }

    /// Iterates over occupied values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.data.iter().filter_map(Option::as_ref)
    }
}

impl<T> std::ops::Index<Slot> for SlotMap<T> {
    type Output = T;

    /// # Panics
    /// Panics if `slot` is unoccupied.
    #[inline]
    fn index(&self, slot: Slot) -> &T {
        self.get(slot)
            .unwrap_or_else(|| panic!("{slot:?} unoccupied in side table"))
    }
}

/// A set of slots, backed by a bitset.
///
/// The dense replacement for `HashSet<NodeId>` on the propagation hot
/// path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotSet {
    bits: Vec<u64>,
    len: usize,
}

impl SlotSet {
    /// An empty set.
    pub fn new() -> SlotSet {
        SlotSet::default()
    }

    /// An empty set pre-sized for slots `0..n`.
    pub fn with_capacity(n: usize) -> SlotSet {
        SlotSet {
            bits: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of slots in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `slot`; returns whether it was newly added.
    pub fn insert(&mut self, slot: Slot) -> bool {
        let (w, b) = (slot.index() / 64, slot.index() % 64);
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let fresh = self.bits[w] & mask == 0;
        self.bits[w] |= mask;
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes `slot`; returns whether it was present.
    pub fn remove(&mut self, slot: Slot) -> bool {
        let (w, b) = (slot.index() / 64, slot.index() % 64);
        let Some(word) = self.bits.get_mut(w) else {
            return false;
        };
        let mask = 1u64 << b;
        let present = *word & mask != 0;
        *word &= !mask;
        if present {
            self.len -= 1;
        }
        present
    }

    /// Whether `slot` is in the set.
    #[inline]
    pub fn contains(&self, slot: Slot) -> bool {
        let (w, b) = (slot.index() / 64, slot.index() % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Iterates over the slots in the set, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Slot> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1 << b) != 0)
                .map(move |b| Slot((w * 64 + b) as u32))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of the [`SlotIndex`] model test.
    #[derive(Clone, Debug)]
    enum IndexOp {
        Insert(u64, u32),
        Remove(u64),
    }

    /// Identifiers near a dense population, mid-range ones the horizon
    /// only reaches after growth, and far outliers.
    fn arb_id() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..2_000,
            0u64..2_000,
            2_000u64..20_000,
            (0u64..4).prop_map(|k| u64::MAX - k),
        ]
    }

    fn arb_index_op() -> impl Strategy<Value = IndexOp> {
        prop_oneof![
            (arb_id(), 0u32..1_000).prop_map(|(id, s)| IndexOp::Insert(id, s)),
            (arb_id(), 0u32..1_000).prop_map(|(id, s)| IndexOp::Insert(id, s)),
            arb_id().prop_map(IndexOp::Remove),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn index_agrees_with_a_hashmap_model(ops in prop::collection::vec(arb_index_op(), 0..400)) {
            let mut ix = SlotIndex::new();
            let mut model: HashMap<u64, u32> = HashMap::new();
            for op in &ops {
                match *op {
                    IndexOp::Insert(id, s) => {
                        ix.insert(NodeId(id), Slot(s));
                        model.insert(id, s);
                    }
                    IndexOp::Remove(id) => {
                        prop_assert_eq!(ix.remove(NodeId(id)), model.remove(&id).map(Slot));
                    }
                }
                prop_assert_eq!(ix.len(), model.len());
                // The dense table is authoritative for the ids it covers.
                prop_assert!(ix.sparse.keys().all(|&k| k >= ix.dense.len() as u64));
            }
            for (&id, &s) in &model {
                prop_assert_eq!(ix.slot(NodeId(id)), Some(Slot(s)));
            }
            for op in &ops {
                let id = match *op {
                    IndexOp::Insert(id, _) | IndexOp::Remove(id) => id,
                };
                prop_assert_eq!(ix.slot(NodeId(id)), model.get(&id).copied().map(Slot));
            }
        }
    }

    #[test]
    fn index_dense_round_trip() {
        let mut ix = SlotIndex::new();
        for i in 0..100u64 {
            ix.insert(NodeId(i), Slot(i as u32 * 2));
        }
        assert_eq!(ix.len(), 100);
        for i in 0..100u64 {
            assert_eq!(ix.slot(NodeId(i)), Some(Slot(i as u32 * 2)));
        }
        assert_eq!(ix.slot(NodeId(100)), None);
        assert_eq!(ix.remove(NodeId(50)), Some(Slot(100)));
        assert_eq!(ix.slot(NodeId(50)), None);
        assert_eq!(ix.len(), 99);
    }

    #[test]
    fn index_outliers_fall_back_to_sparse() {
        let mut ix = SlotIndex::new();
        ix.insert(NodeId(0), Slot(0));
        // far beyond any dense horizon
        ix.insert(NodeId(u64::MAX - 1), Slot(1));
        assert_eq!(ix.slot(NodeId(u64::MAX - 1)), Some(Slot(1)));
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.remove(NodeId(u64::MAX - 1)), Some(Slot(1)));
        assert_eq!(ix.len(), 1);
        // memory stays bounded: the dense table never chased the outlier
        assert!(ix.dense.len() <= 1024);
    }

    #[test]
    fn index_growth_migrates_covered_sparse_entries() {
        // Regression: an id lands in the sparse fallback while the dense
        // range is small; once enough inserts grow the dense range over
        // it, lookups must still find it.
        let mut ix = SlotIndex::new();
        ix.insert(NodeId(2050), Slot(0)); // beyond the initial horizon
        for i in 0..600u64 {
            ix.insert(NodeId(i), Slot(i as u32 + 1));
        }
        // horizon now well past 2050; insert something near it
        ix.insert(NodeId(2049), Slot(9999));
        assert_eq!(ix.slot(NodeId(2050)), Some(Slot(0)));
        assert_eq!(ix.slot(NodeId(2049)), Some(Slot(9999)));
        assert_eq!(ix.len(), 602);
        assert_eq!(ix.remove(NodeId(2050)), Some(Slot(0)));
        assert_eq!(ix.len(), 601);
    }

    #[test]
    fn index_update_in_place() {
        let mut ix = SlotIndex::new();
        ix.insert(NodeId(7), Slot(3));
        ix.insert(NodeId(7), Slot(9));
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.slot(NodeId(7)), Some(Slot(9)));
    }

    #[test]
    fn slot_map_basics() {
        let mut m: SlotMap<&str> = SlotMap::with_capacity(4);
        assert!(m.is_empty());
        assert_eq!(m.insert(Slot(2), "two"), None);
        assert_eq!(m.insert(Slot(2), "deux"), Some("two"));
        m.insert(Slot(9), "nine"); // beyond capacity: grows
        assert_eq!(m.len(), 2);
        assert_eq!(m[Slot(2)], "deux");
        assert_eq!(m.get(Slot(3)), None);
        assert!(m.contains(Slot(9)));
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(Slot(2), &"deux"), (Slot(9), &"nine")]);
        assert_eq!(m.remove(Slot(2)), Some("deux"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unoccupied")]
    fn slot_map_index_panics_on_vacant() {
        let m: SlotMap<u32> = SlotMap::new();
        let _ = m[Slot(0)];
    }

    #[test]
    fn slot_set_basics() {
        let mut s = SlotSet::with_capacity(10);
        assert!(s.insert(Slot(3)));
        assert!(!s.insert(Slot(3)));
        assert!(s.insert(Slot(130))); // beyond capacity: grows
        assert_eq!(s.len(), 2);
        assert!(s.contains(Slot(3)));
        assert!(!s.contains(Slot(4)));
        assert!(!s.contains(Slot(4000)));
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all, vec![Slot(3), Slot(130)]);
        assert!(s.remove(Slot(3)));
        assert!(!s.remove(Slot(3)));
        assert_eq!(s.len(), 1);
    }
}
