//! The session-owned propagation memo: one table per session, keyed by
//! subtree structure.
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
//! A session's [`Interner`] names every subtree shape of its document with
//! an [`InternId`] (equal ids ⟺ structurally equal subtrees, identifiers
//! ignored), and the memo is keyed by that name. An entry is stored and
//! served only for an artefact that depends on nothing but the interned
//! subtree and the engine, so a hit is the very value a fresh computation
//! would produce, for any node with that shape. Propagations, counts and
//! enumerations are byte-identical with the memo on or off
//! ([`crate::EngineBuilder::prop_cache`]).
//!
//! # One owner
//!
//! Each [`crate::Session`] owns its memo — the interner, the entries, and
//! the intern id of every live node's subtree (a [`SlotMap`] over its
//! arena slots) — behind the mutex that guards its scratch: no lock is
//! shared between sessions. The memo dies with its session (a batch
//! request's with the request), and a document opened again is counted
//! again. A cloned session copies the table with its id map, since ids
//! mean something only to their interner.
//!
//! # Commit and sweep
//!
//! Structural keys cannot go stale — an edited subtree has a *different*
//! id — so nothing is ever invalidated. [`crate::Session::commit`]
//! updates the id map in place (a live node's slot never moves): it drops
//! the ids of the slots it deleted, inserted (an insert may reuse a
//! vacated slot) or left in the dirty region (the edited parents of the
//! committed script's footprint and their ancestors), and re-interns
//! exactly those bottom-up, on an explicit stack.
//!
//! Replaced shapes stay until a sweep, which keeps only the shapes the id
//! map names — the document's distinct shapes — and their entries. A
//! commit sweeps once the interner holds more than twice the shapes the
//! last sweep kept and more than [`SWEEP_FLOOR`], or more than twice the
//! key words the last sweep kept and more than [`SWEEP_FLOOR_WORDS`]; a
//! new table counts as just swept, since it holds only the document's. A
//! shape's key has a word per child, so a wide node's replaced shapes
//! weigh their width. After every commit a session so holds at most
//! `max(2 × kept, SWEEP_FLOOR)` shapes of at most
//! `max(2 × kept words, SWEEP_FLOOR_WORDS)` key words, and no more entries
//! than shapes; an entry's typing run has a state per child, so the runs
//! are bounded with the keys. The id counter never goes back, so a swept
//! id is never minted again: an id names one shape for the table's whole
//! life, and no entry is read for a shape it was not stored for.
//!
//! Each operation adds its clean-subtree hits and misses (one lookup per
//! clean child its skeleton walk stops at) and its new entries to the
//! engine's counters once, when it ends; the engine's `entries` are those
//! its live sessions hold.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use xvu_automata::StateId;
use xvu_tree::{DocTree, InternId, Interner, Slot, SlotMap};

/// The fewest shapes a session holds before a commit may sweep its memo
/// (see the [module docs](self)).
pub const SWEEP_FLOOR: usize = 256;

/// The fewest key words (8 bytes each) a session's interner holds before
/// a commit may sweep its memo for their sake (see the
/// [module docs](self)).
pub const SWEEP_FLOOR_WORDS: usize = 1 << 16;

/// One structure's memoised artefacts.
#[derive(Clone, Debug, Default)]
struct Entry {
    /// The number of optimal propagations of a clean subtree of this
    /// shape (its cost is 0: the identity).
    count: Option<u128>,
    /// The typing run over the structure's child word: the states of the
    /// deterministic content-model run, or `None` when the model is
    /// nondeterministic (that outcome is memoised too).
    run: Option<Option<Box<[StateId]>>>,
}

/// Counters of an engine's propagation memo, returned by
/// [`crate::Engine::cache_stats`] and summed over every session the engine
/// (and its clones) opened.
///
/// Hits and misses count clean-subtree lookups: one per clean child a
/// skeleton forest stops at (one in all for an identity update, whose
/// root is clean). A miss fills the counts of the shapes below it without
/// counting further lookups.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Clean-subtree lookups answered from a session's table.
    pub hits: u64,
    /// Clean-subtree lookups that had to count the subtree (the counts
    /// were then stored).
    pub misses: u64,
    /// Distinct structures with an entry, summed over the live sessions'
    /// tables.
    pub entries: usize,
    /// Sweeps the sessions' commits ran.
    pub sweeps: u64,
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

/// The engine's counters, which its sessions add to once per operation.
#[derive(Debug, Default)]
pub(crate) struct Tallies {
    hits: AtomicU64,
    misses: AtomicU64,
    entries: AtomicUsize,
    sweeps: AtomicU64,
}

impl Tallies {
    /// The counters so far.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
        }
    }
}

/// One session's memo: the interner that names its subtree structures,
/// the entries keyed by those names, and the name of every live node of
/// its document. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct MemoTable {
    tallies: Arc<Tallies>,
    pub(crate) interner: Interner,
    entries: HashMap<InternId, Entry>,
    /// The intern id of every live node's subtree, keyed by arena slot.
    pub(crate) ids: SlotMap<InternId>,
    /// Shapes the last sweep kept (before the first, the document's).
    kept: usize,
    /// Key words the last sweep kept (before the first, the document's).
    kept_words: usize,
}

impl MemoTable {
    /// A table over `doc`, every subtree interned, reporting to
    /// `tallies`. The interner holds exactly the document's shapes, so the
    /// sweep bounds start from them, as if a sweep had just run.
    pub(crate) fn new(tallies: &Arc<Tallies>, doc: &DocTree) -> MemoTable {
        let mut interner = Interner::new();
        let ids = interner.intern_doc(doc);
        MemoTable {
            tallies: Arc::clone(tallies),
            kept: interner.len(),
            kept_words: interner.key_words(),
            interner,
            entries: HashMap::new(),
            ids,
        }
    }

    /// Commit support: drops the ids of the `stale` slots — the nodes a
    /// commit deleted or inserted — and of its dirty region: each `edited`
    /// parent and all its ancestors. Then re-interns every live node of
    /// `doc` left without an id, and sweeps when the interner has grown
    /// past its bound. Every other id stays where it is: slots never move.
    pub(crate) fn refresh(
        &mut self,
        doc: &DocTree,
        stale: &[Slot],
        edited: impl IntoIterator<Item = Slot>,
    ) {
        for &slot in stale {
            self.ids.remove(slot);
        }
        // An edited parent or ancestor is a node the commit kept, so it
        // had an id until a walk from an earlier parent dropped it, and
        // the ids above it with it.
        for slot in edited {
            let mut cur = Some(slot);
            while let Some(s) = cur.filter(|&s| self.ids.remove(s).is_some()) {
                let parent = doc.node_at(s).parent;
                cur = parent.map(|p| doc.slot(p).expect("ancestors are live"));
            }
        }
        self.interner.intern_missing(doc, &mut self.ids);
        let (shapes, words) = (self.interner.len(), self.interner.key_words());
        if shapes > SWEEP_FLOOR.max(2 * self.kept)
            || words > SWEEP_FLOOR_WORDS.max(2 * self.kept_words)
        {
            self.sweep();
        }
    }

    /// Keeps only the shapes the id map names, and their entries.
    fn sweep(&mut self) {
        let live: HashSet<InternId> = self.ids.values().copied().collect();
        let before = self.entries.len();
        self.interner.retain(|id| live.contains(&id));
        self.entries.retain(|id, _| live.contains(id));
        self.kept = self.interner.len();
        self.kept_words = self.interner.key_words();
        let t = &self.tallies;
        t.sweeps.fetch_add(1, Ordering::Relaxed);
        t.entries
            .fetch_sub(before - self.entries.len(), Ordering::Relaxed);
    }
}

// Between operations the engine's `entries` counts every entry of every
// live table: a memo operation adds the entries it stored when it ends, a
// sweep subtracts the ones it dropped, and so do a clone and a drop.
impl Clone for MemoTable {
    fn clone(&self) -> MemoTable {
        let t = &self.tallies;
        t.entries.fetch_add(self.entries.len(), Ordering::Relaxed);
        MemoTable {
            tallies: Arc::clone(t),
            interner: self.interner.clone(),
            entries: self.entries.clone(),
            ids: self.ids.clone(),
            kept: self.kept,
            kept_words: self.kept_words,
        }
    }
}

impl Drop for MemoTable {
    fn drop(&mut self) {
        let t = &self.tallies;
        t.entries.fetch_sub(self.entries.len(), Ordering::Relaxed);
    }
}

/// One operation's view of a session's memo, with the operation's
/// clean-subtree hit/miss tally, which is added to the engine's counters
/// once, when the operation ends.
pub(crate) struct Memo<'a> {
    table: &'a mut MemoTable,
    hits: u64,
    misses: u64,
    /// The table's entries when the operation began.
    entries: usize,
}

impl<'a> Memo<'a> {
    /// Looks up through `table`.
    pub(crate) fn new(table: &'a mut MemoTable) -> Memo<'a> {
        let entries = table.entries.len();
        Memo {
            table,
            hits: 0,
            misses: 0,
            entries,
        }
    }

    /// The structure of the document node at `slot` (every live node has
    /// one).
    fn id(&self, slot: Slot) -> InternId {
        self.table.ids[slot]
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
        self.table.entries.get(&self.id(slot))?.count
    }

    /// Stores the optimal count of the clean subtree at `slot`. Every
    /// store for a shape computes the same count, so the first one stays.
    pub(crate) fn store_count(&mut self, slot: Slot, count: u128) {
        let id = self.id(slot);
        let entry = self.table.entries.entry(id).or_default();
        entry.count.get_or_insert(count);
    }

    /// The memoised typing run of the node at `slot`, computed and stored
    /// on first use.
    pub(crate) fn run_or_compute(
        &mut self,
        slot: Slot,
        compute: impl FnOnce() -> Option<Vec<StateId>>,
    ) -> Option<&[StateId]> {
        let id = self.id(slot);
        let entry = self.table.entries.entry(id).or_default();
        entry
            .run
            .get_or_insert_with(|| compute().map(Vec::into_boxed_slice))
            .as_deref()
    }
}

impl Drop for Memo<'_> {
    fn drop(&mut self) {
        let t = &self.table.tallies;
        t.hits.fetch_add(self.hits, Ordering::Relaxed);
        t.misses.fetch_add(self.misses, Ordering::Relaxed);
        let stored = self.table.entries.len() - self.entries;
        t.entries.fetch_add(stored, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvu_tree::{parse_term_with_ids, Alphabet, NodeId, NodeIdGen};

    /// A table over `term`, with the counters it reports to.
    fn table_for(term: &str) -> (MemoTable, DocTree, Arc<Tallies>) {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let doc = parse_term_with_ids(&mut alpha, &mut gen, term).unwrap();
        let tallies = Arc::new(Tallies::default());
        (MemoTable::new(&tallies, &doc), doc, tallies)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        // a#1 and a#2 share a structure: the count stored for one serves
        // the other.
        let (mut table, doc, tallies) = table_for("r#0(a#1, a#2)");
        let slot = |n: u64| doc.slot(NodeId(n)).unwrap();
        {
            let mut memo = Memo::new(&mut table);
            assert!(memo.clean_count(slot(1)).is_none());
            memo.store_count(slot(1), 3);
            assert_eq!(memo.clean_count(slot(2)), Some(3), "equal structure hits");
            assert_eq!(memo.known_count(slot(2)), Some(3), "an uncounted read");
            assert_eq!(tallies.stats().hits, 0, "tallied until the operation ends");
        }
        let s = tallies.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_is_first_writer_wins_per_field() {
        let (mut table, doc, tallies) = table_for("r#0(a#1)");
        let a = doc.slot(NodeId(1)).unwrap();
        let mut memo = Memo::new(&mut table);
        memo.store_count(a, 7);
        memo.store_count(a, 99);
        memo.run_or_compute(a, || Some(vec![StateId(4)]));
        drop(memo);
        let mut memo = Memo::new(&mut table);
        assert_eq!(memo.clean_count(a), Some(7), "the first store wins");
        let run = memo.run_or_compute(a, || unreachable!("other artefacts fill in"));
        assert_eq!(run, Some(&[StateId(4)][..]));
        assert!(memo.known_count(doc.slot(NodeId(0)).unwrap()).is_none());
        drop(memo);
        assert_eq!(tallies.stats().entries, 1);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        // With the memo off a session has no table: propagating,
        // committing and searching for a complement-preserving propagation
        // leave every counter idle, misses included.
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
        let mut session = engine.open(&doc).unwrap();
        let slots = |session: &crate::Session<'_>| {
            let d = session.document();
            [1, 2].map(|n| d.slot(NodeId(n)))
        };
        let freed = slots(&session).map(Option::unwrap);
        let same_as_fresh = |session: &crate::Session<'_>| {
            session.with_memo_table(|table| {
                let fresh = table.interner.intern_doc(session.document());
                table.ids.iter().eq(fresh.iter())
            })
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
        let ids = session.with_memo_table(|table| table.ids.len());
        assert_eq!(ids, session.document().size());
    }

    #[test]
    fn run_memo_computes_once() {
        let (mut table, doc, _) = table_for("r#0(a#1, b#2)");
        let mut memo = Memo::new(&mut table);
        let (a, b) = (doc.slot(NodeId(1)).unwrap(), doc.slot(NodeId(2)).unwrap());
        let mut calls = 0;
        let r1 = memo
            .run_or_compute(a, || {
                calls += 1;
                Some(vec![StateId(1), StateId(2)])
            })
            .map(<[StateId]>::to_vec);
        let r2 = memo
            .run_or_compute(a, || {
                calls += 1;
                None
            })
            .map(<[StateId]>::to_vec);
        assert_eq!(calls, 1);
        assert_eq!(r1.as_deref(), Some(&[StateId(1), StateId(2)][..]));
        assert_eq!(r1, r2);
        // nondeterministic outcomes are memoised too
        let r3 = memo
            .run_or_compute(b, || {
                calls += 1;
                None
            })
            .is_none();
        let r4 = memo
            .run_or_compute(b, || {
                calls += 1;
                Some(vec![])
            })
            .is_none();
        assert_eq!(calls, 2);
        assert!(r3 && r4);
    }

    #[test]
    fn commits_sweep_to_the_shapes_the_document_names() {
        // r → a?, a → a?·b?, hide a b: each insert at the bottom of a
        // 60-level chain gives every level a new shape. After every
        // commit the interner holds at most max(2 × kept, SWEEP_FLOOR)
        // shapes, a sweep keeps exactly the document's distinct shapes,
        // and the engine's entry count follows the table.
        let mut alpha = Alphabet::new();
        let dtd = xvu_dtd::parse_dtd(&mut alpha, "r -> a?\na -> a?.b?").unwrap();
        let ann = xvu_view::parse_annotation(&mut alpha, "hide a b").unwrap();
        let (r, a, b) = (
            alpha.get("r").unwrap(),
            alpha.get("a").unwrap(),
            alpha.get("b").unwrap(),
        );
        let mut gen = NodeIdGen::new();
        let mut doc = DocTree::leaf(&mut gen, r);
        let mut bottom = doc.root();
        for _ in 0..60 {
            bottom = doc.add_child(bottom, &mut gen, a);
        }
        doc.add_child(bottom, &mut gen, b);
        let engine = crate::Engine::new(alpha, dtd, ann);
        let mut session = engine.open(&doc).unwrap();
        for step in 0..40 {
            let mut update = xvu_edit::nop_script(session.view());
            let fresh = session.id_gen().fresh();
            update
                .add_child_with_id(bottom, fresh, xvu_edit::ELabel::ins(a))
                .unwrap();
            bottom = fresh;
            let prop = session.propagate(&update).unwrap();
            let sweeps = engine.cache_stats().sweeps;
            session.commit(&prop).unwrap();
            let distinct = Interner::new().intern_doc(session.document());
            let distinct: HashSet<InternId> = distinct.values().copied().collect();
            let (shapes, kept) = session.with_memo_table(|t| (t.interner.len(), t.kept));
            assert!(shapes <= SWEEP_FLOOR.max(2 * kept), "step {step}: {shapes}");
            if engine.cache_stats().sweeps > sweeps {
                assert_eq!(
                    shapes,
                    distinct.len(),
                    "step {step}: a sweep keeps the document's"
                );
            }
            assert!(engine.cache_stats().entries <= shapes, "step {step}");
        }
        let stats = engine.cache_stats();
        assert!(stats.sweeps >= 5, "{stats:?}");
        drop(session);
        assert_eq!(
            engine.cache_stats().entries,
            0,
            "the memo died with its session"
        );
    }

    #[test]
    fn wide_shapes_are_swept_by_their_key_words() {
        // r → (a+b)*, nothing hidden: a star of 2,000 alternating `a`/`b`
        // children. Every other edit inserts an `a` at a new position and
        // the next one deletes it, so each insert gives the root a new
        // 2,001-word shape while the document keeps its size and the
        // shape count stays far below `SWEEP_FLOOR`. After every commit the
        // interner holds at most max(2 × kept words, SWEEP_FLOOR_WORDS) key
        // words, and a sweep keeps exactly the document's.
        const WIDTH: usize = 2_000;
        let mut alpha = Alphabet::new();
        let dtd = xvu_dtd::parse_dtd(&mut alpha, "r -> (a+b)*").unwrap();
        let ann = xvu_view::parse_annotation(&mut alpha, "").unwrap();
        let [r, a, b] = ["r", "a", "b"].map(|l| alpha.get(l).unwrap());
        let mut gen = NodeIdGen::new();
        let mut doc = DocTree::leaf(&mut gen, r);
        let root = doc.root();
        for i in 0..WIDTH {
            doc.add_child(root, &mut gen, if i % 2 == 0 { a } else { b });
        }
        let engine = crate::Engine::new(alpha, dtd, ann);
        let mut session = engine.open(&doc).unwrap();
        let mut inserted = None;
        for step in 0..300 {
            let mut update = xvu_edit::nop_script(session.view());
            match inserted.take() {
                None => {
                    let fresh = session.id_gen().fresh();
                    let leaf = xvu_edit::Script::leaf_with_id(fresh, xvu_edit::ELabel::ins(a));
                    update.attach_subtree(root, step * 7 % WIDTH, leaf).unwrap();
                    inserted = Some(fresh);
                }
                Some(n) => update
                    .relabel_subtree(n, |l| xvu_edit::ELabel::del(l.label))
                    .unwrap(),
            }
            let prop = session.propagate(&update).unwrap();
            let sweeps = engine.cache_stats().sweeps;
            session.commit(&prop).unwrap();
            let (words, kept) = session.with_memo_table(|t| (t.interner.key_words(), t.kept_words));
            assert!(
                words <= SWEEP_FLOOR_WORDS.max(2 * kept),
                "step {step}: {words} key words"
            );
            if engine.cache_stats().sweeps > sweeps {
                let mut distinct = Interner::new();
                distinct.intern_doc(session.document());
                assert_eq!(words, distinct.key_words(), "step {step}");
            }
        }
        let stats = engine.cache_stats();
        assert!(stats.sweeps >= 3, "{stats:?}");
    }

    #[test]
    fn a_first_commit_keeps_a_document_of_many_shapes() {
        // r → a*, a → a*: child i of the root holds i leaves, so the
        // document names 301 distinct shapes, more than `SWEEP_FLOOR`. A
        // fresh table counts them as kept, so a leaf appended under the
        // root (one new shape) sweeps nothing.
        let mut alpha = Alphabet::new();
        let dtd = xvu_dtd::parse_dtd(&mut alpha, "r -> a*\na -> a*").unwrap();
        let ann = xvu_view::parse_annotation(&mut alpha, "").unwrap();
        let (r, a) = (alpha.get("r").unwrap(), alpha.get("a").unwrap());
        let mut gen = NodeIdGen::new();
        let mut doc = DocTree::leaf(&mut gen, r);
        let root = doc.root();
        for i in 0..300 {
            let child = doc.add_child(root, &mut gen, a);
            for _ in 0..i {
                doc.add_child(child, &mut gen, a);
            }
        }
        let engine = crate::Engine::new(alpha, dtd, ann);
        let mut session = engine.open(&doc).unwrap();
        let shapes = session.with_memo_table(|t| t.interner.len());
        assert_eq!(shapes, 301);
        let mut update = xvu_edit::nop_script(session.view());
        let fresh = session.id_gen().fresh();
        update
            .add_child_with_id(root, fresh, xvu_edit::ELabel::ins(a))
            .unwrap();
        session.apply(&update).unwrap();
        assert_eq!(engine.cache_stats().sweeps, 0);
        assert_eq!(session.with_memo_table(|t| t.interner.len()), 302);
    }

    #[test]
    fn a_clone_copies_the_table_and_counts_its_entries() {
        let fx = crate::fixtures::paper_running_example();
        let engine = crate::Engine::new(fx.alpha.clone(), fx.dtd.clone(), fx.ann.clone());
        let session = engine.open(&fx.t0).unwrap();
        session.propagate(&fx.s0).unwrap();
        let entries = engine.cache_stats().entries;
        assert!(entries > 0);
        let clone = session.clone();
        assert_eq!(engine.cache_stats().entries, 2 * entries);
        // the clone's ids and entries are its own, and warm
        let before = engine.cache_stats();
        clone.propagate(&fx.s0).unwrap();
        let after = engine.cache_stats();
        assert_eq!(after.misses, before.misses, "{after:?}");
        assert!(after.hits > before.hits, "{after:?}");
        drop(session);
        assert_eq!(engine.cache_stats().entries, entries);
        drop(clone);
        assert_eq!(engine.cache_stats().entries, 0);
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
        let mut interner = Interner::new();
        let mut ids = interner.intern_doc(&doc);
        doc.add_child(leaf, &mut gen, b);
        // the edited leaf and every ancestor lose their ids, as at commit
        let mut dirty = Some(leaf);
        while let Some(n) = dirty {
            ids.remove(doc.slot(n).unwrap());
            dirty = doc.parent(n);
        }
        assert_eq!(ids.len(), 0, "the whole chain is dirty");
        let (doc, ids) = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                interner.intern_missing(&doc, &mut ids);
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
