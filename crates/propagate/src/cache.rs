//! The engine-owned propagation memo: one table, keyed by subtree
//! structure.
//!
//! For a preserved node whose whole subtree the update leaves alone — the
//! *clean region* of [`xvu_edit::script_footprint`] — the cheapest
//! propagation is the identity at cost 0, and the number of optimal
//! propagations of the subtree (paper §4, "Further results") is a pure
//! function of the node's source subtree and the engine's `(Σ, D, A)`. A
//! typing run over a node's source child word depends on that word alone,
//! so it qualifies for every node. An entry holds exactly these two: a
//! clean shape's optimal count, which lets a session's skeleton forest
//! ([`crate::PropagationForest`]) stop at every clean child without a
//! graph, and a typing run, which the graph builds inside the footprint
//! read. No entry holds a graph.
//!
//! # Keying contract
//!
//! The engine's [`Interner`] names every subtree shape with an
//! [`InternId`] (equal ids ⟺ structurally equal subtrees, identifiers
//! ignored), and the memo is keyed by that name. An entry is stored and
//! served only for an artefact that depends on nothing but the interned
//! subtree and the engine, so a hit is the very value a fresh computation
//! would produce, for any node of any document with that shape.
//! Propagations, counts and enumerations are byte-identical with the memo
//! on or off ([`crate::EngineBuilder::prop_cache`]).
//!
//! # Sessions and commit
//!
//! A session keeps only the intern id of every live node's subtree, a
//! [`SlotMap`] over its document's arena slots computed at
//! [`crate::Engine::open`]. Structural keys cannot go stale — an edited
//! subtree has a *different* id — so nothing is ever invalidated.
//! [`crate::Session::commit`] maintains the id map alone, in place: a
//! live node's slot never moves, so every untouched entry stays put. The
//! commit drops the ids of the slots it deleted, inserted (an insert may
//! reuse a vacated slot) or left in the dirty region (the edited parents
//! and their ancestors), and re-interns exactly those bottom-up, on an
//! explicit stack.
//!
//! # One backend
//!
//! Every session of an engine, and of its clones, shares the table, so
//! lookups must not serialize the daemon's workers. The table is 16
//! shards of `RwLock<HashMap>`: a lookup takes one shard read lock and
//! copies only the artefact it asked for, and a miss stores straight
//! into its shard under the write lock, so structurally equal nodes met
//! in one operation are computed once. Each operation tallies its
//! clean-subtree lookups — one per clean child its skeleton walk stops
//! at — as hits and misses and adds them to the engine's counters once,
//! when it ends. A snapshot-swap design (readers probe a frozen
//! `Arc<HashMap>`, writers clone, merge and swap it) tied this one on
//! read throughput, but with a store on every miss it would clone the
//! whole map per store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use xvu_automata::StateId;
use xvu_tree::{DocTree, InternId, Interner, NodeId, Slot, SlotMap};

/// A memoised typing run: the states of the deterministic content-model
/// run over a node's source child word, or `None` when the model is
/// nondeterministic (that outcome is memoised too).
pub(crate) type TypingRun = Option<Arc<[StateId]>>;

/// One structure's memoised artefacts.
#[derive(Debug, Default)]
struct Entry {
    /// The number of optimal propagations of a clean subtree of this
    /// shape (its cost is 0: the identity).
    count: Option<u128>,
    /// The typing run over the structure's child word.
    run: Option<TypingRun>,
}

/// Counters of an engine's memo table, returned by
/// [`crate::Engine::cache_stats`] and summed over every session the engine
/// (and its clones) opened.
///
/// Hits and misses count clean-subtree lookups: one per clean child a
/// skeleton forest stops at (one in all for an identity update, whose
/// root is clean). A miss fills the counts of the shapes below it without
/// counting further lookups.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Clean-subtree lookups answered from the table.
    pub hits: u64,
    /// Clean-subtree lookups that had to count the subtree (the counts
    /// were then stored).
    pub misses: u64,
    /// Distinct structures the table holds.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of clean-subtree lookups answered from the table (0 when
    /// idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const SHARD_COUNT: usize = 16;

/// The engine-owned memo: the interner that names subtree structures and
/// the sharded table keyed by those names. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct MemoTable {
    interner: Interner,
    shards: [RwLock<HashMap<InternId, Entry>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoTable {
    /// An empty table over a fresh interner.
    pub(crate) fn new() -> MemoTable {
        MemoTable {
            interner: Interner::new(),
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The intern id of every node's subtree, keyed by arena slot.
    pub(crate) fn intern_doc(&self, doc: &DocTree) -> SlotMap<InternId> {
        self.interner.intern_doc(doc)
    }

    /// Commit support: drops the ids of the `stale` slots — the nodes a
    /// commit deleted, inserted or left in its dirty region (edited
    /// parents plus all their ancestors) — and re-interns every live node
    /// of `doc` left without one. Every other entry stays where it is:
    /// slots never move.
    pub(crate) fn refresh(&self, doc: &DocTree, ids: &mut SlotMap<InternId>, stale: &[Slot]) {
        for &slot in stale {
            ids.remove(slot);
        }
        reintern(&self.interner, doc, ids);
    }

    fn shard(&self, id: InternId) -> &RwLock<HashMap<InternId, Entry>> {
        // Intern ids are dense allocation counters: low bits spread well.
        &self.shards[id.get() as usize % SHARD_COUNT]
    }

    /// Copies one artefact of `id`'s entry, under the shard read lock.
    fn get<T>(&self, id: InternId, pick: impl FnOnce(&Entry) -> Option<T>) -> Option<T> {
        let shard = self
            .shard(id)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard.get(&id).and_then(pick)
    }

    /// Stores one artefact of `id`'s entry unless one is already there.
    /// Every writer computes the same value for a key, so keeping the
    /// incumbent is as good as replacing it.
    fn put<T>(&self, id: InternId, field: impl FnOnce(&mut Entry) -> &mut Option<T>, value: T) {
        let mut shard = self
            .shard(id)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        field(shard.entry(id).or_default()).get_or_insert(value);
    }

    /// The counters so far.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
                .sum(),
        }
    }
}

/// Interns every live node of `doc` that has no id in `ids`, bottom-up.
/// A node that still has an id kept its whole subtree, so the walk does
/// not descend below it. The postorder runs on an explicit stack: a deep
/// document costs heap, not call stack.
pub(crate) fn reintern(interner: &Interner, doc: &DocTree, ids: &mut SlotMap<InternId>) {
    let slot = |n: NodeId| doc.slot(n).expect("the walk visits live nodes");
    if ids.contains(slot(doc.root())) {
        return;
    }
    // `(node, children pushed)`: a node is interned on its second pop,
    // after every child below it on the stack.
    let mut stack = vec![(doc.root(), false)];
    let mut scratch = Vec::new();
    while let Some((n, expanded)) = stack.pop() {
        if expanded {
            let id = interner.intern_node(doc, n, ids, &mut scratch);
            ids.insert(slot(n), id);
            continue;
        }
        stack.push((n, true));
        for &c in doc.children(n).iter().rev() {
            if !ids.contains(slot(c)) {
                stack.push((c, false));
            }
        }
    }
}

/// One operation's view of the memo: the engine's table, the session's
/// intern ids, and the operation's clean-subtree hit/miss tally, which is
/// added to the engine's counters once, when the operation ends.
pub(crate) struct Memo<'a> {
    table: &'a MemoTable,
    ids: &'a SlotMap<InternId>,
    hits: u64,
    misses: u64,
}

impl<'a> Memo<'a> {
    /// Looks up through `table` for the document whose intern ids are
    /// `ids`.
    pub(crate) fn new(table: &'a MemoTable, ids: &'a SlotMap<InternId>) -> Memo<'a> {
        Memo {
            table,
            ids,
            hits: 0,
            misses: 0,
        }
    }

    /// The structure of the document node at `slot` (every live node has
    /// one).
    fn id(&self, slot: Slot) -> InternId {
        self.ids[slot]
    }

    /// The memoised optimal count of the clean subtree at `slot`, counting
    /// the lookup.
    pub(crate) fn clean_count(&mut self, slot: Slot) -> Option<u128> {
        let hit = self.known_count(slot);
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// [`Memo::clean_count`] without counting the lookup (the count fill's
    /// reads).
    pub(crate) fn known_count(&self, slot: Slot) -> Option<u128> {
        self.table.get(self.id(slot), |e| e.count)
    }

    /// Stores the optimal count of the clean subtree at `slot`.
    pub(crate) fn store_count(&self, slot: Slot, count: u128) {
        self.table.put(self.id(slot), |e| &mut e.count, count);
    }

    /// The memoised typing run of the node at `slot`, computed and stored
    /// on first use.
    pub(crate) fn run_or_compute(
        &self,
        slot: Slot,
        compute: impl FnOnce() -> Option<Vec<StateId>>,
    ) -> TypingRun {
        let id = self.id(slot);
        if let Some(run) = self.table.get(id, |e| e.run.clone()) {
            return run;
        }
        let run: TypingRun = compute().map(Arc::from);
        self.table.put(id, |e| &mut e.run, run.clone());
        run
    }
}

impl Drop for Memo<'_> {
    fn drop(&mut self) {
        self.table.hits.fetch_add(self.hits, Ordering::Relaxed);
        self.table.misses.fetch_add(self.misses, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};

    /// A table plus the intern ids of `term`.
    fn table_for(term: &str) -> (MemoTable, DocTree, SlotMap<InternId>) {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let doc = parse_term_with_ids(&mut alpha, &mut gen, term).unwrap();
        let table = MemoTable::new();
        let ids = table.intern_doc(&doc);
        (table, doc, ids)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        // a#1 and a#2 share a structure: the count stored for one serves
        // the other.
        let (table, doc, ids) = table_for("r#0(a#1, a#2)");
        let slot = |n: u64| doc.slot(NodeId(n)).unwrap();
        {
            let mut memo = Memo::new(&table, &ids);
            assert!(memo.clean_count(slot(1)).is_none());
            memo.store_count(slot(1), 3);
            assert_eq!(memo.clean_count(slot(2)), Some(3), "equal structure hits");
            assert_eq!(memo.known_count(slot(2)), Some(3), "an uncounted read");
            assert_eq!(table.stats().hits, 0, "tallied until the operation ends");
        }
        let s = table.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_is_first_writer_wins_per_field() {
        let (table, doc, ids) = table_for("r#0(a#1)");
        let a = doc.slot(NodeId(1)).unwrap();
        let memo = Memo::new(&table, &ids);
        memo.store_count(a, 7);
        memo.store_count(a, 99);
        memo.run_or_compute(a, || Some(vec![StateId(4)]));
        drop(memo);
        let mut memo = Memo::new(&table, &ids);
        assert_eq!(memo.clean_count(a), Some(7), "the first store wins");
        let run = memo.run_or_compute(a, || unreachable!("other artefacts fill in"));
        assert_eq!(run.as_deref(), Some(&[StateId(4)][..]));
        assert!(memo.known_count(doc.slot(NodeId(0)).unwrap()).is_none());
        assert_eq!(table.stats().entries, 1);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        // With the memo off the engine has no table: propagating, committing
        // and searching for a complement-preserving propagation leave every
        // counter idle, misses included.
        let fx = crate::fixtures::paper_running_example();
        let engine = crate::Engine::builder()
            .alphabet(fx.alpha.clone())
            .dtd(fx.dtd.clone())
            .annotation(fx.ann.clone())
            .prop_cache(false)
            .build()
            .unwrap();
        let mut session = engine.open(&fx.t0).unwrap();
        let prop = session.propagate(&fx.s0).unwrap();
        session.commit(&prop).unwrap();
        let identity = xvu_edit::nop_script(session.view());
        session.propagate(&identity).unwrap();
        session.complement_preserving(&identity).unwrap();
        assert_eq!(engine.cache_stats(), CacheStats::default());
    }

    #[test]
    fn drain_restore_rekeys_by_identifier_and_drops_dirty() {
        // Commit keeps the session's intern ids in place: a delete vacates
        // slots and drops their ids, the next commit's insert reuses a
        // vacated slot, and the dirty root is re-interned each time. After
        // every commit the ids equal a fresh interning of the document,
        // slot for slot — a reused slot that kept its old occupant's id
        // (a `c` leaf where an `a` leaf now sits) fails here.
        let mut alpha = Alphabet::new();
        let dtd = xvu_dtd::parse_dtd(&mut alpha, "r -> (a+b)*\na -> c*").unwrap();
        let ann = xvu_view::parse_annotation(&mut alpha, "").unwrap();
        let engine = crate::Engine::new(alpha.clone(), dtd, ann);
        let mut gen = NodeIdGen::new();
        let doc = parse_term_with_ids(&mut alpha, &mut gen, "r#0(a#1(c#2), b#3)").unwrap();
        let table = engine.memo_table().unwrap();
        let mut session = engine.open(&doc).unwrap();
        let slots = |session: &crate::Session<'_>| {
            let d = session.document();
            [1, 2].map(|n| d.slot(NodeId(n)))
        };
        let freed = slots(&session).map(Option::unwrap);
        let same_as_fresh = |session: &crate::Session<'_>| {
            let fresh = table.intern_doc(session.document());
            session.intern_ids.iter().eq(fresh.iter())
        };
        let delete =
            xvu_edit::parse_script(&mut alpha, "nop:r#0(del:a#1(del:c#2), nop:b#3)").unwrap();
        let prop = session.propagate(&delete).unwrap();
        session.commit(&prop).unwrap();
        assert_eq!(slots(&session), [None, None], "a#1 and c#2 are gone");
        assert!(same_as_fresh(&session), "after the delete");
        let insert = xvu_edit::parse_script(&mut alpha, "nop:r#0(nop:b#3, ins:a#10)").unwrap();
        let prop = session.propagate(&insert).unwrap();
        session.commit(&prop).unwrap();
        let reused = session.document().slot(NodeId(10)).unwrap();
        assert!(freed.contains(&reused), "the insert reuses a vacated slot");
        assert!(same_as_fresh(&session), "after the insert");
        assert_eq!(session.intern_ids.len(), session.document().size());
    }

    #[test]
    fn run_memo_computes_once() {
        let (table, doc, ids) = table_for("r#0(a#1, b#2)");
        let memo = Memo::new(&table, &ids);
        let (a, b) = (doc.slot(NodeId(1)).unwrap(), doc.slot(NodeId(2)).unwrap());
        let mut calls = 0;
        let r1 = memo.run_or_compute(a, || {
            calls += 1;
            Some(vec![StateId(1), StateId(2)])
        });
        let r2 = memo.run_or_compute(a, || {
            calls += 1;
            None
        });
        assert_eq!(calls, 1);
        assert_eq!(r1.as_deref(), Some(&[StateId(1), StateId(2)][..]));
        assert_eq!(r1, r2);
        // nondeterministic outcomes are memoised too
        let r3 = memo.run_or_compute(b, || {
            calls += 1;
            None
        });
        let r4 = memo.run_or_compute(b, || {
            calls += 1;
            Some(vec![])
        });
        assert_eq!(calls, 2);
        assert!(r3.is_none() && r4.is_none());
    }

    #[test]
    fn concurrent_readers_and_writers_stay_coherent() {
        // 64 distinct structures: a chain of 64 nested labels.
        let mut term = String::new();
        for i in 0..64 {
            term.push_str(&format!("x{i}#{i}("));
        }
        term.push_str("y#64");
        term.push_str(&")".repeat(64));
        let (table, doc, ids) = table_for(&term);
        let slots: Vec<Slot> = (0..64).map(|n| doc.slot(NodeId(n)).unwrap()).collect();
        std::thread::scope(|scope| {
            for w in 0..4usize {
                let (table, ids, slots) = (&table, &ids, &slots);
                scope.spawn(move || {
                    let mut memo = Memo::new(table, ids);
                    for (i, &s) in slots.iter().enumerate() {
                        if i % 4 == w {
                            memo.store_count(s, i as u128);
                        } else {
                            // readers interleave with writers
                            let _ = memo.clean_count(s);
                        }
                    }
                });
            }
        });
        assert_eq!(table.stats().entries, 64, "every structure stored once");
        let mut memo = Memo::new(&table, &ids);
        for (i, &s) in slots.iter().enumerate() {
            assert_eq!(memo.clean_count(s), Some(i as u128), "stored");
        }
    }

    #[test]
    fn reintern_is_stack_safe_on_a_100k_level_chain() {
        // a chain one node per level, a leaf edit at the bottom, and the
        // commit-time re-intern walk on a thread with a 256 KiB stack
        let mut alpha = Alphabet::new();
        let (a, b) = (alpha.intern("a"), alpha.intern("b"));
        let mut gen = NodeIdGen::new();
        let mut doc = DocTree::leaf(&mut gen, a);
        let mut leaf = doc.root();
        for _ in 0..100_000 {
            leaf = doc.add_child(leaf, &mut gen, a);
        }
        let interner = Interner::new();
        let mut ids = interner.intern_doc(&doc);
        doc.set_change_tracking(true);
        doc.add_child(leaf, &mut gen, b);
        // the edited leaf and every ancestor lose their ids, as at commit
        for n in doc.drain_dirty_to_root() {
            ids.remove(doc.slot(n).unwrap());
        }
        assert_eq!(ids.len(), 0, "the whole chain is dirty");
        let (doc, ids) = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                reintern(&interner, &doc, &mut ids);
                let expected = interner.intern_doc(&doc);
                assert!(doc.postorder().all(|n| {
                    let s = doc.slot(n).unwrap();
                    ids.get(s) == expected.get(s)
                }));
                (doc, ids)
            })
            .unwrap()
            .join()
            .expect("re-interning must not overflow the stack");
        assert_eq!(ids.len(), doc.size());
    }
}
