//! A bounded, multi-family LRU layer over [`SessionPool`].
//!
//! The daemon serves documents from several grammar families (one
//! compiled [`Engine`] each) but bounds the *total* number of resident
//! sessions: [`LruSessionPool`] keeps one inner [`SessionPool`] per
//! family plus a global recency list, and evicts the least-recently-used
//! **parked** session when a checkout would exceed the bound.
//!
//! Eviction policy (the serving contract, tested here and end-to-end):
//!
//! * only parked sessions are evicted — a leased session is
//!   eviction-exempt ([`xvu_propagate::EvictOutcome::Leased`] defers to
//!   the next victim), so a request never loses its session mid-flight;
//! * the evicted session is handed back to the caller for write-back:
//!   its committed document (and identifier high-water mark) persist in
//!   the caller's store, only its intern-id map dies with it (the memos
//!   it used live in the engine);
//! * if every resident session is leased (nothing evictable), a
//!   checkout for a *new* document fails fast with
//!   [`PropagateError::PoolAtCapacity`] — the daemon converts that into
//!   admission pushback (`retry`) instead of growing without bound. The
//!   inner pools carry the same capacity as a backstop against
//!   bookkeeping drift.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use xvu_propagate::{Engine, EvictOutcome, PropagateError, Session, SessionLease, SessionPool};
use xvu_tree::DocTree;

/// A session evicted to make room, owed a write-back to long-term
/// storage by the caller.
pub struct Evicted<'e> {
    /// The document key the session served.
    pub doc: u64,
    /// The session, parked at its last commit.
    pub session: Box<Session<'e>>,
}

/// Bookkeeping shared by every checkout: global recency plus the
/// resident-document → family map.
#[derive(Default)]
struct LruState {
    /// Resident document keys, least recently used first.
    recency: Vec<u64>,
    /// Family index of each resident document.
    family: HashMap<u64, usize>,
}

/// The bounded LRU session pool. See the module docs for the policy.
pub struct LruSessionPool<'e> {
    pools: Vec<SessionPool<'e, u64>>,
    state: Mutex<LruState>,
    capacity: usize,
}

impl<'e> LruSessionPool<'e> {
    /// A pool over one engine per family, bounded to `capacity` resident
    /// sessions in total. `capacity` must be ≥ 1.
    pub fn new(engines: &'e [Engine], capacity: usize) -> LruSessionPool<'e> {
        assert!(capacity >= 1, "LruSessionPool capacity must be ≥ 1");
        LruSessionPool {
            pools: engines
                .iter()
                .map(|e| SessionPool::with_capacity(e, capacity))
                .collect(),
            state: Mutex::new(LruState::default()),
            capacity,
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident (parked or leased) sessions right now.
    pub fn resident(&self) -> usize {
        self.lock().family.len()
    }

    /// The documents with a resident session right now (snapshot of the
    /// tracking state; a concurrent checkout may change it immediately).
    /// Used by the `snapshot` verb to flush every resident session's
    /// committed state into the store before serializing it.
    pub fn resident_docs(&self) -> Vec<u64> {
        self.lock().family.keys().copied().collect()
    }

    fn lock(&self) -> MutexGuard<'_, LruState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Checks out the session for `doc` (family `family`), opening it
    /// from `tree` on first touch and updating the recency order. Any
    /// sessions evicted to make room are returned alongside the lease —
    /// the caller must write their documents back before serving further
    /// requests for those keys.
    ///
    /// Blocks while another worker holds the same document's lease
    /// (per-document isolation, inherited from [`SessionPool`]).
    pub fn checkout(
        &self,
        doc: u64,
        family: usize,
        tree: &DocTree,
    ) -> Result<(SessionLease<'_, 'e, u64>, Vec<Evicted<'e>>), PropagateError> {
        assert!(family < self.pools.len(), "unknown family index");
        let mut evicted = Vec::new();
        {
            let mut state = self.lock();
            if let Some(pos) = state.recency.iter().position(|&d| d == doc) {
                // resident: touch
                state.recency.remove(pos);
                state.recency.push(doc);
            } else {
                // make room, oldest parked victim first; leased sessions
                // are exempt
                let mut scan = 0;
                while state.family.len() >= self.capacity && scan < state.recency.len() {
                    let victim = state.recency[scan];
                    let vf = state.family[&victim];
                    match self.pools[vf].evict(&victim) {
                        EvictOutcome::Evicted(session) => {
                            state.recency.remove(scan);
                            state.family.remove(&victim);
                            evicted.push(Evicted {
                                doc: victim,
                                session,
                            });
                        }
                        EvictOutcome::Leased => scan += 1,
                        EvictOutcome::Unknown => {
                            // state said resident but the slot is gone (a
                            // failed open cleaned up): drop the stale entry
                            state.recency.remove(scan);
                            state.family.remove(&victim);
                        }
                    }
                }
                if state.family.len() >= self.capacity {
                    // every resident session is leased: push back rather
                    // than grow past the bound
                    return Err(PropagateError::PoolAtCapacity {
                        capacity: self.capacity,
                    });
                }
                state.recency.push(doc);
                state.family.insert(doc, family);
            }
        }
        match self.pools[family].checkout(doc, tree) {
            Ok(lease) => Ok((lease, evicted)),
            Err(e) => {
                // roll the reservation back: the inner pool holds no slot
                // for a failed open, so the state map must not either
                let mut state = self.lock();
                if let Some(pos) = state.recency.iter().position(|&d| d == doc) {
                    state.recency.remove(pos);
                }
                state.family.remove(&doc);
                Err(e)
            }
        }
    }

    /// Removes `doc`'s session from the pool entirely (the `close` verb),
    /// returning it for write-back. Spins briefly if the session is
    /// momentarily leased by another worker; returns `None` for an
    /// untracked document or if the lease never returns.
    pub fn remove(&self, doc: u64) -> Option<Box<Session<'e>>> {
        for _ in 0..10_000 {
            let mut state = self.lock();
            let &family = state.family.get(&doc)?;
            match self.pools[family].evict(&doc) {
                EvictOutcome::Evicted(session) => {
                    if let Some(pos) = state.recency.iter().position(|&d| d == doc) {
                        state.recency.remove(pos);
                    }
                    state.family.remove(&doc);
                    return Some(session);
                }
                EvictOutcome::Unknown => {
                    if let Some(pos) = state.recency.iter().position(|&d| d == doc) {
                        state.recency.remove(pos);
                    }
                    state.family.remove(&doc);
                    return None;
                }
                EvictOutcome::Leased => {
                    drop(state);
                    std::thread::yield_now();
                }
            }
        }
        None
    }
}

impl std::fmt::Debug for LruSessionPool<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruSessionPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.resident())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvu_dtd::parse_dtd;
    use xvu_tree::{parse_term_with_ids, Alphabet, NodeIdGen};
    use xvu_view::parse_annotation;

    fn engine_and_doc() -> (Engine, DocTree) {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*").unwrap();
        let ann = parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b").unwrap();
        let t = parse_term_with_ids(
            &mut alpha,
            &mut gen,
            "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
        )
        .unwrap();
        let engine = Engine::builder()
            .alphabet(alpha)
            .dtd(dtd)
            .annotation(ann)
            .build()
            .unwrap();
        (engine, t)
    }

    #[test]
    fn lru_evicts_oldest_parked_session_at_capacity() {
        let (engine, t) = engine_and_doc();
        let engines = [engine];
        let pool = LruSessionPool::new(&engines, 2);
        for doc in [1u64, 2, 3] {
            let (lease, evicted) = pool.checkout(doc, 0, &t).unwrap();
            drop(lease);
            match doc {
                3 => {
                    // inserting doc 3 must evict doc 1 (the LRU)
                    assert_eq!(evicted.len(), 1);
                    assert_eq!(evicted[0].doc, 1);
                }
                _ => assert!(evicted.is_empty()),
            }
        }
        assert_eq!(pool.resident(), 2);
        // touching doc 2 protects it: inserting doc 4 now evicts doc 3
        drop(pool.checkout(2, 0, &t).unwrap());
        let (_, evicted) = pool.checkout(4, 0, &t).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].doc, 3);
    }

    #[test]
    fn leased_sessions_are_eviction_exempt() {
        let (engine, t) = engine_and_doc();
        let engines = [engine];
        let pool = LruSessionPool::new(&engines, 2);
        let (held_1, _) = pool.checkout(1, 0, &t).unwrap();
        drop(pool.checkout(2, 0, &t).unwrap());
        // doc 1 is LRU but leased: doc 2 is evicted instead
        let (_, evicted) = pool.checkout(3, 0, &t).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].doc, 2);
        drop(held_1);
    }

    #[test]
    fn fully_leased_pool_pushes_back_instead_of_growing() {
        let (engine, t) = engine_and_doc();
        let engines = [engine];
        let pool = LruSessionPool::new(&engines, 2);
        let (a, _) = pool.checkout(1, 0, &t).unwrap();
        let (b, _) = pool.checkout(2, 0, &t).unwrap();
        // both resident sessions are leased: a new document is refused
        // with the retryable capacity error, never admitted past the bound
        assert!(matches!(
            pool.checkout(3, 0, &t),
            Err(PropagateError::PoolAtCapacity { capacity: 2 })
        ));
        assert_eq!(pool.resident(), 2);
        drop((a, b));
        // with the leases returned the same checkout succeeds by eviction
        let (_, evicted) = pool.checkout(3, 0, &t).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn remove_returns_the_session_for_write_back() {
        let (engine, t) = engine_and_doc();
        let engines = [engine];
        let pool = LruSessionPool::new(&engines, 4);
        drop(pool.checkout(7, 0, &t).unwrap());
        let session = pool.remove(7).expect("parked session removed");
        assert_eq!(session.commits(), 0);
        assert_eq!(pool.resident(), 0);
        assert!(pool.remove(7).is_none(), "already gone");
    }

    #[test]
    fn eviction_write_back_preserves_id_floor_via_merge() {
        // The serving invariant behind deterministic replay: evict a
        // session, write back document + id_gen, reopen, merge — the
        // reopened session mints the same fresh identifiers the evicted
        // one would have.
        let (engine, t) = engine_and_doc();
        let engines = [engine];
        let pool = LruSessionPool::new(&engines, 1);
        let (lease, _) = pool.checkout(1, 0, &t).unwrap();
        let floor_before = lease.id_gen().peek();
        drop(lease);
        let evicted = pool.checkout(2, 0, &t).unwrap().1;
        let saved_gen = evicted[0].session.id_gen();
        let saved_doc = evicted[0].session.document().clone();
        // reopen from the written-back document and restore the floor
        let (mut lease, _) = pool.checkout(1, 0, &saved_doc).unwrap();
        lease.merge_id_gen(&saved_gen);
        assert!(lease.id_gen().peek() >= floor_before);
        assert_eq!(lease.id_gen().peek(), saved_gen.peek());
    }
}
