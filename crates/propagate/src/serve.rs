//! Thread-parallel batch serving over a shared, immutable [`Engine`].
//!
//! A compiled engine is immutable after [`crate::EngineBuilder::build`]: the view
//! DTD, min-size tables, cost model, and insertlet package are Theorem 6's
//! precompiled artefacts, read-only for the rest of their life. That makes
//! the engine exactly the shape that shares cheaply across OS threads —
//! `Engine: Send + Sync` is asserted at compile time below, so one
//! `Arc<Engine>` (or a plain `&Engine` under [`std::thread::scope`])
//! serves any number of workers with **zero** per-request locking.
//!
//! Two serving shapes are provided:
//!
//! * [`Engine::propagate_batch`] — fan *independent* `(document, update)`
//!   requests across a small std-only worker pool. Results come back in
//!   request order and are byte-identical to a sequential run: each
//!   request is self-contained (its fresh identifiers derive from its own
//!   document and update), so thread count and scheduling cannot leak into
//!   any propagation.
//! * [`SessionPool`] — the repeated-update path. Sessions are checked out
//!   per document key; while a lease is held no other worker can touch
//!   that document's session, so [`Session::commit`] is isolated per
//!   document while different documents commit concurrently.
//!
//! ```
//! use std::sync::Arc;
//! use xvu_dtd::parse_dtd;
//! use xvu_edit::parse_script;
//! use xvu_propagate::Engine;
//! use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};
//! use xvu_view::parse_annotation;
//!
//! let mut alpha = Alphabet::new();
//! let mut gen = NodeIdGen::new();
//! let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*").unwrap();
//! let ann = parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b").unwrap();
//! let t0 = parse_term_with_ids(
//!     &mut alpha, &mut gen,
//!     "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
//! ).unwrap();
//! let s0 = parse_script(
//!     &mut alpha,
//!     "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
//!      ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
//! ).unwrap();
//!
//! // One engine, shared by reference count across worker threads.
//! let engine = Arc::new(
//!     Engine::builder().alphabet(alpha).dtd(dtd).annotation(ann).build().unwrap(),
//! );
//! let requests: Vec<_> = (0..8).map(|_| (t0.clone(), s0.clone())).collect();
//! let results = engine.propagate_batch(&requests, 4);
//! assert_eq!(results.len(), 8);
//! for r in &results {
//!     assert_eq!(r.as_ref().unwrap().cost, 14); // the paper's Fig. 7 optimum
//! }
//! ```

use crate::algorithm::{propagate_with_memo, Propagation};
use crate::engine::{Engine, Session};
use crate::error::PropagateError;
use crate::scratch::PropScratch;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use xvu_edit::Script;
use xvu_tree::DocTree;

// The serving contract, checked by the compiler: a compiled engine (and
// everything a batch worker touches) crosses and is shared across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<crate::EngineBuilder>();
    assert_send_sync::<Propagation>();
    assert_send_sync::<PropagateError>();
    assert_send_sync::<Session<'static>>();
    assert_send_sync::<SessionPool<'static, u64>>();
};

impl Engine {
    /// Propagates a batch of independent `(document, update)` requests,
    /// fanning them across at most `jobs` OS worker threads.
    ///
    /// `results[i]` always answers `requests[i]` — ordering is
    /// deterministic regardless of thread scheduling — and every result is
    /// identical to what a sequential [`Engine::instance`] +
    /// [`Engine::propagate`] run would produce, because each request's
    /// fresh identifiers derive only from its own document and update.
    /// A failing request reports its own error without disturbing the
    /// rest of the batch.
    ///
    /// `jobs` is clamped to `1..=requests.len()`; `jobs <= 1` runs inline
    /// on the calling thread with no pool at all.
    pub fn propagate_batch(
        &self,
        requests: &[(DocTree, Script)],
        jobs: usize,
    ) -> Vec<Result<Propagation, PropagateError>> {
        // Each worker owns one `PropScratch`, reused across every request
        // it serves — scratch is pure working memory, so reuse cannot leak
        // state between requests (or change any result).
        let one = |(doc, update): &(DocTree, Script), scratch: &mut PropScratch| {
            if self.memo_enabled() {
                // A short-lived session routes the request through the
                // engine memo: structurally repeated subtrees across the
                // batch are solved once. Validation order (source, then
                // update) and every propagation are byte-identical to the
                // stateless path below.
                return self.open(doc)?.propagate(update);
            }
            let inst = self.instance(doc, update)?;
            propagate_with_memo(
                &inst,
                &self.cost_model(),
                self.config(),
                None,
                None,
                scratch,
                None,
            )
        };
        let jobs = jobs.clamp(1, requests.len().max(1));
        if jobs <= 1 {
            let mut scratch = PropScratch::new();
            return requests.iter().map(|r| one(r, &mut scratch)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<Propagation, PropagateError>>> = Vec::new();
        slots.resize_with(requests.len(), || None);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    // Workers pull the next unclaimed request index off a
                    // shared atomic counter (work stealing without a
                    // queue) and buffer `(index, result)` locally; the
                    // engine itself is shared by plain `&self`.
                    scope.spawn(|| {
                        let mut served = Vec::new();
                        let mut scratch = PropScratch::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(req) = requests.get(i) else { break };
                            served.push((i, one(req, &mut scratch)));
                        }
                        served
                    })
                })
                .collect();
            for w in workers {
                for (i, result) in w.join().expect("batch worker panicked") {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every request index was claimed by exactly one worker"))
            .collect()
    }
}

/// One pool entry: either a parked session or a marker that some worker
/// holds the lease.
enum Slot<'e> {
    Ready(Box<Session<'e>>),
    CheckedOut,
}

/// A keyed pool of open [`Session`]s over one shared [`Engine`] — the
/// repeated-update serving path.
///
/// Each document (identified by a caller-chosen key) has at most one live
/// session. [`SessionPool::checkout`] hands out an exclusive
/// [`SessionLease`]; until the lease drops, no other worker can observe or
/// advance that document, so propagate/commit sequences are isolated *per
/// document* while distinct documents proceed fully in parallel.
///
/// The pool itself is `Sync`: share it by reference across scoped threads
/// (or wrap pool + engine in `Arc`s at the application level).
pub struct SessionPool<'e, K: Eq + Hash + Clone = u64> {
    engine: &'e Engine,
    slots: Mutex<HashMap<K, Slot<'e>>>,
    returned: Condvar,
    capacity: Option<usize>,
}

impl<'e, K: Eq + Hash + Clone> SessionPool<'e, K> {
    /// An empty, unbounded pool serving documents with `engine`.
    pub fn new(engine: &'e Engine) -> SessionPool<'e, K> {
        SessionPool {
            engine,
            slots: Mutex::new(HashMap::new()),
            returned: Condvar::new(),
            capacity: None,
        }
    }

    /// An empty pool that tracks at most `capacity` documents (parked or
    /// leased). Checking out a *new* key while full fails with
    /// [`PropagateError::PoolAtCapacity`] instead of opening an unbounded
    /// number of sessions — the substrate an LRU layer needs: evict a
    /// parked session ([`SessionPool::evict`]) and retry.
    ///
    /// `capacity` must be ≥ 1.
    pub fn with_capacity(engine: &'e Engine, capacity: usize) -> SessionPool<'e, K> {
        assert!(capacity >= 1, "SessionPool capacity must be ≥ 1");
        SessionPool {
            engine,
            slots: Mutex::new(HashMap::new()),
            returned: Condvar::new(),
            capacity: Some(capacity),
        }
    }

    /// The engine shared by every pooled session.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Number of documents currently tracked (parked or checked out).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// The configured document bound, or `None` for an unbounded pool
    /// (see [`SessionPool::with_capacity`]).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether the pool tracks no documents at all.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Checks out the session for `key`, **blocking** while another
    /// worker holds it (per-document commit isolation).
    ///
    /// On first checkout of a key the session is opened from `doc`
    /// (validating it once, like [`Engine::open`]); later checkouts ignore
    /// `doc` and resume the session wherever its commits left it. The
    /// lease returns the session to the pool on drop.
    pub fn checkout(
        &self,
        key: K,
        doc: &DocTree,
    ) -> Result<SessionLease<'_, 'e, K>, PropagateError> {
        let mut slots = self.lock();
        loop {
            match slots.get_mut(&key) {
                Some(Slot::CheckedOut) => {
                    slots = self
                        .returned
                        .wait(slots)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Some(slot @ Slot::Ready(_)) => {
                    let session = Self::take_ready(slot);
                    return Ok(self.lease(key, session));
                }
                None => {
                    if let Some(cap) = self.capacity {
                        if slots.len() >= cap {
                            return Err(PropagateError::PoolAtCapacity { capacity: cap });
                        }
                    }
                    // claim the key under the same lock that observed its
                    // absence, so no second worker can claim it too
                    slots.insert(key.clone(), Slot::CheckedOut);
                    drop(slots);
                    return self.open_claimed(key, doc);
                }
            }
        }
    }

    /// Non-blocking [`SessionPool::checkout`]: returns `Ok(None)` when the
    /// key's session is currently leased to another worker.
    pub fn try_checkout(
        &self,
        key: K,
        doc: &DocTree,
    ) -> Result<Option<SessionLease<'_, 'e, K>>, PropagateError> {
        {
            let mut slots = self.lock();
            match slots.get_mut(&key) {
                Some(Slot::CheckedOut) => return Ok(None),
                Some(slot @ Slot::Ready(_)) => {
                    let session = Self::take_ready(slot);
                    return Ok(Some(self.lease(key, session)));
                }
                None => {
                    if let Some(cap) = self.capacity {
                        if slots.len() >= cap {
                            return Err(PropagateError::PoolAtCapacity { capacity: cap });
                        }
                    }
                    slots.insert(key.clone(), Slot::CheckedOut);
                }
            }
        }
        self.open_claimed(key, doc).map(Some)
    }

    /// Swaps a `Ready` slot to `CheckedOut` and hands its session out.
    fn take_ready(slot: &mut Slot<'e>) -> Box<Session<'e>> {
        match std::mem::replace(slot, Slot::CheckedOut) {
            Slot::Ready(session) => session,
            Slot::CheckedOut => unreachable!("caller matched Ready"),
        }
    }

    /// Opens the session for a key the caller has already claimed (the
    /// `CheckedOut` marker is in place), *outside* the lock — validation
    /// is O(|doc|) and must not serialise the whole pool. On failure the
    /// claim is released and waiters are woken.
    fn open_claimed(
        &self,
        key: K,
        doc: &DocTree,
    ) -> Result<SessionLease<'_, 'e, K>, PropagateError> {
        match self.engine.open(doc) {
            Ok(session) => Ok(self.lease(key, Box::new(session))),
            Err(e) => {
                self.lock().remove(&key);
                self.returned.notify_all();
                Err(e)
            }
        }
    }

    /// Removes the **parked** session for `key` and hands it to the
    /// caller (inspect [`Session::commits`], write
    /// [`Session::document`] back to long-term storage, or just drop it —
    /// dropping releases the document copy and its intern ids; the memo
    /// entries stay with the engine).
    ///
    /// Eviction never races a lease: a key whose session is currently
    /// checked out (or mid-open) reports [`EvictOutcome::Leased`] and the
    /// pool is left untouched — the caller decides whether to retry after
    /// the lease returns or pick another victim. An untracked key reports
    /// [`EvictOutcome::Unknown`]. The capacity slot frees immediately, and
    /// any checkout blocked on the key is woken to reopen it fresh.
    pub fn evict(&self, key: &K) -> EvictOutcome<'e> {
        let mut slots = self.lock();
        match slots.get(key) {
            Some(Slot::Ready(_)) => match slots.remove(key) {
                Some(Slot::Ready(session)) => {
                    // a checkout may be blocked waiting for this key; it
                    // must re-observe the now-absent slot and open fresh
                    self.returned.notify_all();
                    EvictOutcome::Evicted(session)
                }
                _ => unreachable!("matched Ready above"),
            },
            Some(Slot::CheckedOut) => EvictOutcome::Leased,
            None => EvictOutcome::Unknown,
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<'e>>> {
        self.slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lease(&self, key: K, session: Box<Session<'e>>) -> SessionLease<'_, 'e, K> {
        SessionLease {
            pool: self,
            key: Some(key),
            session: Some(session),
        }
    }
}

impl<K: Eq + Hash + Clone> std::fmt::Debug for SessionPool<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("documents", &self.len())
            .finish_non_exhaustive()
    }
}

/// The outcome of [`SessionPool::evict`]: either the parked session
/// itself, or an explicit reason why nothing was evicted.
#[derive(Debug)]
pub enum EvictOutcome<'e> {
    /// The session was removed from the pool and is now owned by the
    /// caller (its committed document travels with it).
    Evicted(Box<Session<'e>>),
    /// The key's session is leased to a worker (or mid-open): eviction is
    /// refused, never raced. Retry after the lease drops or defer to
    /// another victim.
    Leased,
    /// The pool does not track this key.
    Unknown,
}

impl<'e> EvictOutcome<'e> {
    /// The evicted session, if one was removed.
    pub fn session(self) -> Option<Box<Session<'e>>> {
        match self {
            EvictOutcome::Evicted(s) => Some(s),
            _ => None,
        }
    }

    /// Whether a session was actually removed.
    pub fn is_evicted(&self) -> bool {
        matches!(self, EvictOutcome::Evicted(_))
    }
}

/// An exclusive lease on one document's [`Session`], handed out by
/// [`SessionPool::checkout`].
///
/// Dereferences to the session (mutably, so [`Session::commit`] and
/// [`Session::apply`] work through the lease) and parks it back in the
/// pool on drop, waking one blocked checkout of the same key.
pub struct SessionLease<'p, 'e, K: Eq + Hash + Clone> {
    pool: &'p SessionPool<'e, K>,
    key: Option<K>,
    session: Option<Box<Session<'e>>>,
}

impl<'e, K: Eq + Hash + Clone> Deref for SessionLease<'_, 'e, K> {
    type Target = Session<'e>;
    fn deref(&self) -> &Session<'e> {
        self.session.as_ref().expect("session present until drop")
    }
}

impl<'e, K: Eq + Hash + Clone> DerefMut for SessionLease<'_, 'e, K> {
    fn deref_mut(&mut self) -> &mut Session<'e> {
        self.session.as_mut().expect("session present until drop")
    }
}

impl<K: Eq + Hash + Clone> Drop for SessionLease<'_, '_, K> {
    fn drop(&mut self) {
        let (key, session) = (
            self.key.take().expect("dropped once"),
            self.session.take().expect("dropped once"),
        );
        self.pool.lock().insert(key, Slot::Ready(session));
        self.pool.returned.notify_all();
    }
}

impl<K: Eq + Hash + Clone> std::fmt::Debug for SessionLease<'_, '_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionLease")
            .field("commits", &self.commits())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use xvu_edit::{output_tree, script_to_term};

    fn paper_engine() -> (Engine, DocTree, Script) {
        let fx = fixtures::paper_running_example();
        let engine = Engine::builder()
            .alphabet(fx.alpha.clone())
            .dtd(fx.dtd.clone())
            .annotation(fx.ann.clone())
            .build()
            .unwrap();
        (engine, fx.t0.clone(), fx.s0.clone())
    }

    #[test]
    fn batch_matches_sequential_in_order() {
        let (engine, t0, s0) = paper_engine();
        let requests: Vec<_> = (0..7).map(|_| (t0.clone(), s0.clone())).collect();
        let sequential = engine.propagate_batch(&requests, 1);
        for jobs in [2, 4, 8] {
            let parallel = engine.propagate_batch(&requests, jobs);
            assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(&sequential) {
                let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
                assert_eq!(p.cost, s.cost);
                assert_eq!(
                    script_to_term(&p.script, engine.alphabet()),
                    script_to_term(&s.script, engine.alphabet())
                );
            }
        }
    }

    #[test]
    fn batch_reports_per_request_errors_in_place() {
        let (engine, t0, s0) = paper_engine();
        let fx = fixtures::paper_running_example();
        let mut alpha = fx.alpha.clone();
        let mut gen = xvu_tree::NodeIdGen::starting_at(100);
        let bad_doc =
            xvu_tree::parse_term_with_ids(&mut alpha, &mut gen, "r#100(a#101, b#102)").unwrap();
        let requests = vec![
            (t0.clone(), s0.clone()),
            (bad_doc, s0.clone()),
            (t0.clone(), s0.clone()),
        ];
        let results = engine.propagate_batch(&requests, 3);
        assert_eq!(results[0].as_ref().unwrap().cost, 14);
        assert!(matches!(results[1], Err(PropagateError::SourceNotValid(_))));
        assert_eq!(results[2].as_ref().unwrap().cost, 14);
    }

    #[test]
    fn empty_batch_is_empty() {
        let (engine, _, _) = paper_engine();
        assert!(engine.propagate_batch(&[], 8).is_empty());
    }

    #[test]
    fn pool_checkout_resumes_committed_state() {
        let (engine, t0, s0) = paper_engine();
        let pool: SessionPool<'_, u64> = SessionPool::new(&engine);
        let expected = {
            let mut lease = pool.checkout(7, &t0).unwrap();
            let prop = lease.apply(&s0).unwrap();
            assert_eq!(prop.cost, 14);
            output_tree(&prop.script).unwrap()
        }; // lease dropped: session parked
        assert_eq!(pool.len(), 1);
        // the next checkout of the same key resumes past the commit and
        // ignores the (now stale) document argument
        let lease = pool.checkout(7, &t0).unwrap();
        assert_eq!(lease.commits(), 1);
        assert_eq!(lease.document(), &expected);
    }

    #[test]
    fn pool_try_checkout_reports_contention() {
        let (engine, t0, _) = paper_engine();
        let pool: SessionPool<'_, u64> = SessionPool::new(&engine);
        let held = pool.checkout(1, &t0).unwrap();
        assert!(pool.try_checkout(1, &t0).unwrap().is_none());
        // a different key is immediately available
        assert!(pool.try_checkout(2, &t0).unwrap().is_some());
        drop(held);
        assert!(pool.try_checkout(1, &t0).unwrap().is_some());
    }

    #[test]
    fn pool_rejects_invalid_documents_without_poisoning_the_key() {
        let (engine, t0, _) = paper_engine();
        let fx = fixtures::paper_running_example();
        let mut alpha = fx.alpha.clone();
        let mut gen = xvu_tree::NodeIdGen::starting_at(100);
        let bad =
            xvu_tree::parse_term_with_ids(&mut alpha, &mut gen, "r#100(a#101, b#102)").unwrap();
        let pool: SessionPool<'_, u64> = SessionPool::new(&engine);
        assert!(pool.checkout(9, &bad).is_err());
        assert!(pool.is_empty());
        // the key is free again for a valid document
        assert!(pool.checkout(9, &t0).is_ok());
    }

    #[test]
    fn pool_evicts_only_parked_sessions() {
        let (engine, t0, s0) = paper_engine();
        let pool: SessionPool<'_, u64> = SessionPool::new(&engine);
        let mut lease = pool.checkout(3, &t0).unwrap();
        lease.apply(&s0).unwrap();
        // leased: eviction is refused explicitly, never raced
        assert!(matches!(pool.evict(&3), EvictOutcome::Leased));
        assert_eq!(pool.len(), 1, "refused eviction leaves the pool intact");
        drop(lease);
        // parked: the evicted session comes back whole — commit count and
        // committed document intact, ready for write-back
        let session = pool.evict(&3).session().expect("parked: evicted");
        assert_eq!(session.commits(), 1);
        assert!(engine.dtd().is_valid(session.document()));
        assert!(matches!(pool.evict(&3), EvictOutcome::Unknown)); // gone now
        assert!(pool.is_empty());
        // the key is immediately reusable (capacity slot freed)
        assert!(pool.checkout(3, &t0).is_ok());
    }

    #[test]
    fn pool_eviction_of_leased_key_defers_until_lease_returns() {
        // The LRU pattern: a victim that turns out to be leased is skipped
        // now and evicts cleanly once its lease drops — no lost commits.
        let (engine, t0, s0) = paper_engine();
        let pool: SessionPool<'_, u64> = SessionPool::new(&engine);
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut lease = pool.checkout(9, &t0).unwrap();
                lease.apply(&s0).unwrap();
            });
            // concurrent eviction attempts can only ever observe Leased or
            // Evicted-after-return; the session is never torn out mid-use
            loop {
                match pool.evict(&9) {
                    EvictOutcome::Evicted(session) => {
                        assert_eq!(session.commits(), 1, "lease work survived");
                        break;
                    }
                    EvictOutcome::Leased | EvictOutcome::Unknown => {
                        std::thread::yield_now();
                    }
                }
            }
            worker.join().unwrap();
        });
        assert!(pool.is_empty());
    }

    #[test]
    fn pool_capacity_bounds_new_checkouts() {
        let (engine, t0, _) = paper_engine();
        let pool: SessionPool<'_, u64> = SessionPool::with_capacity(&engine, 2);
        assert_eq!(pool.capacity(), Some(2));
        let a = pool.checkout(1, &t0).unwrap();
        drop(pool.checkout(2, &t0).unwrap());
        assert_eq!(pool.len(), 2);
        // a third document is refused — leased and parked slots both count
        assert!(matches!(
            pool.checkout(3, &t0),
            Err(PropagateError::PoolAtCapacity { capacity: 2 })
        ));
        assert!(matches!(
            pool.try_checkout(3, &t0),
            Err(PropagateError::PoolAtCapacity { capacity: 2 })
        ));
        // existing keys keep working at capacity
        drop(a);
        drop(pool.checkout(1, &t0).unwrap());
        // evicting frees a slot for the new key
        assert!(pool.evict(&2).is_evicted());
        assert!(pool.checkout(3, &t0).is_ok());
        // an unbounded pool reports no capacity
        let unbounded: SessionPool<'_, u64> = SessionPool::new(&engine);
        assert_eq!(unbounded.capacity(), None);
    }

    #[test]
    fn pool_serialises_commits_per_document_across_threads() {
        let (engine, t0, s0) = paper_engine();
        let pool: SessionPool<'_, u64> = SessionPool::new(&engine);
        let threads = 4;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // every worker hammers the same document key; the
                    // lease serialises them, so each sees a consistent
                    // view and commits exactly once
                    let mut lease = pool.checkout(42, &t0).unwrap();
                    let update = if lease.commits() == 0 {
                        s0.clone()
                    } else {
                        xvu_edit::nop_script(lease.view())
                    };
                    lease.apply(&update).unwrap();
                });
            }
        });
        let lease = pool.checkout(42, &t0).unwrap();
        assert_eq!(lease.commits(), threads as u64);
    }
}
