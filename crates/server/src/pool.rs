//! The daemon's document table: every document's state under one lock.
//!
//! One mutex-guarded map from document id to entry holds everything the
//! daemon knows about a document — its family, its pending propagation,
//! an LRU stamp, and one of three states:
//!
//! * **parked** — the committed document and the identifier floor its
//!   next session starts from, as a [`Parked`] its family's engine
//!   validated: [`DocTable::load`] takes nothing else, so every document
//!   in the table is valid and resuming it cannot fail;
//! * **resident** — an open [`Session`] between requests;
//! * **leased** — one request holds the session ([`Lease`]).
//!
//! Leasing takes a resident session out of its entry, or marks a parked
//! entry leased and resumes its session outside the lock; `close` marks
//! it leased the same way while it rescans the identifiers. At most
//! `capacity` sessions (resident or leased) exist: resuming one more
//! first evicts the least-recently-leased resident entry, in one state
//! change under the same lock — resident becomes parked
//! ([`Session::park`], keeping the session's document and identifier
//! floor) — so there is no moment at which a document lives nowhere.
//! Leased entries are never evicted; when every session is leased,
//! leasing a parked document fails with [`LeaseError::Full`], which the
//! daemon turns into `retry` pushback.
//!
//! Dropping a lease makes the entry resident again and wakes the one
//! condvar. Leasing, [`DocTable::load`], [`DocTable::close`] and
//! [`DocTable::park_all`] wait on it while an entry is leased, so none of
//! them can overwrite or miss an edit committed through the lease.
//!
//! A lease dropped while its request unwinds from a panic, after the
//! session was borrowed mutably (only `commit` does), cannot vouch for the
//! session: a commit may have stopped half-applied. The entry becomes
//! **lost** instead of resident — its session is dropped, leasing it fails
//! with [`LeaseError::Lost`], and the next [`DocTable::load`] replaces it.
//! A panic under a shared borrow (`propagate`, `count`, `verify`, `open`)
//! returns the session resident as usual.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use xvu_propagate::{Parked, Propagation, Session};
use xvu_tree::DocTree;

/// Where a document's content lives right now.
enum State<'e> {
    /// No session: the committed document and its identifier floor
    /// (boxed, so a parked entry is no larger than the others).
    Parked(Box<Parked<'e>>),
    /// An open session, not in use.
    Resident(Box<Session<'e>>),
    /// A request holds the session.
    Leased,
    /// A request panicked while changing the session: the content is
    /// unknown until a `load` replaces it.
    Lost,
}

/// One document's entry in the table.
struct Entry<'e> {
    family: usize,
    /// The propagation a `commit` would apply.
    pending: Option<Propagation>,
    /// Clock value of the entry's last lease: the resident entry with the
    /// smallest stamp is evicted first.
    stamp: u64,
    state: State<'e>,
}

impl Entry<'_> {
    /// Turns a resident entry into a parked one, keeping the session's
    /// document and identifier floor. Returns whether a session was
    /// parked.
    fn park(&mut self) -> bool {
        match std::mem::replace(&mut self.state, State::Leased) {
            State::Resident(session) => {
                self.state = State::Parked(Box::new(session.park()));
                true
            }
            other => {
                self.state = other;
                false
            }
        }
    }
}

/// The state under the table's lock.
#[derive(Default)]
struct Docs<'e> {
    entries: HashMap<u64, Entry<'e>>,
    /// Resident plus leased entries: the sessions that exist.
    sessions: usize,
    /// LRU clock, advanced by every lease.
    clock: u64,
}

/// Why a lease was refused.
#[derive(Debug)]
pub(crate) enum LeaseError {
    /// No document has this id.
    Unknown,
    /// Every session is leased: push back rather than grow.
    Full,
    /// A request panicked while changing the document's session.
    Lost,
}

/// The document table. See the module docs for the states and the
/// eviction policy.
pub(crate) struct DocTable<'e> {
    capacity: usize,
    docs: Mutex<Docs<'e>>,
    /// Signalled whenever a lease returns.
    returned: Condvar,
}

impl<'e> DocTable<'e> {
    /// An empty table holding at most `capacity` sessions. `capacity`
    /// must be ≥ 1.
    pub(crate) fn new(capacity: usize) -> DocTable<'e> {
        assert!(capacity >= 1, "DocTable capacity must be ≥ 1");
        DocTable {
            capacity,
            docs: Mutex::new(Docs::default()),
            returned: Condvar::new(),
        }
    }

    /// The session bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sessions that exist right now, resident or leased.
    pub(crate) fn resident(&self) -> usize {
        self.lock().sessions
    }

    fn lock(&self) -> MutexGuard<'_, Docs<'e>> {
        self.docs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `doc`'s entry is not leased (or absent).
    fn settled<'g>(&self, docs: MutexGuard<'g, Docs<'e>>, doc: u64) -> MutexGuard<'g, Docs<'e>> {
        self.returned
            .wait_while(docs, |d| {
                matches!(d.entries.get(&doc).map(|e| &e.state), Some(State::Leased))
            })
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores `parked` as `doc`'s committed document, parked by its
    /// `family`'s engine, replacing any previous entry with its session and
    /// pending propagation. Waits while the old entry is leased.
    pub(crate) fn load(&self, doc: u64, family: usize, parked: Parked<'e>) {
        let mut docs = self.settled(self.lock(), doc);
        let entry = Entry {
            family,
            pending: None,
            stamp: 0,
            state: State::Parked(Box::new(parked)),
        };
        if let Some(Entry {
            state: State::Resident(_),
            ..
        }) = docs.entries.insert(doc, entry)
        {
            docs.sessions -= 1;
        }
    }

    /// Leases `doc`'s session, resuming it from the parked document if
    /// needed, and returns the document an eviction parked to make room.
    /// Waits while another request holds the same document.
    pub(crate) fn lease(&self, doc: u64) -> Result<(Lease<'_, 'e>, Option<u64>), LeaseError> {
        let mut docs = self.settled(self.lock(), doc);
        let Docs {
            entries,
            sessions,
            clock,
        } = &mut *docs;
        let entry = entries.get_mut(&doc).ok_or(LeaseError::Unknown)?;
        if matches!(entry.state, State::Lost) {
            return Err(LeaseError::Lost);
        }
        *clock += 1;
        entry.stamp = *clock;
        let parked = match std::mem::replace(&mut entry.state, State::Leased) {
            State::Resident(session) => return Ok((self.lease_of(doc, session), None)),
            State::Parked(parked) => parked,
            State::Leased | State::Lost => {
                unreachable!("settled() waited the lease out; lost entries returned above")
            }
        };
        let mut evicted = None;
        if *sessions >= self.capacity {
            let victim = entries
                .iter()
                .filter(|(_, e)| matches!(e.state, State::Resident(_)))
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&id, _)| id);
            let Some(victim) = victim else {
                entries.get_mut(&doc).expect("looked up above").state = State::Parked(parked);
                return Err(LeaseError::Full);
            };
            entries.get_mut(&victim).expect("victim listed").park();
            *sessions -= 1;
            evicted = Some(victim);
        }
        *sessions += 1;
        drop(docs);
        // Interning and view extraction are O(|doc|): resume outside the
        // lock.
        Ok((self.lease_of(doc, Box::new(parked.resume())), evicted))
    }

    fn lease_of(&self, doc: u64, session: Box<Session<'e>>) -> Lease<'_, 'e> {
        Lease {
            table: self,
            doc,
            session: Some(session),
            changed: false,
        }
    }

    /// Parks `doc`'s session and forgets its pending propagation and its
    /// identifier floor (the `close` verb: the next session starts a fresh
    /// identifier history). Waits while the entry is leased. Returns
    /// whether the document exists.
    pub(crate) fn close(&self, doc: u64) -> bool {
        let mut docs = self.settled(self.lock(), doc);
        let Docs {
            entries, sessions, ..
        } = &mut *docs;
        let Some(entry) = entries.get_mut(&doc) else {
            return false;
        };
        if entry.park() {
            *sessions -= 1;
        }
        entry.pending = None;
        let State::Parked(mut parked) = std::mem::replace(&mut entry.state, State::Leased) else {
            // neither parked nor (settled) leased: lost
            entry.state = State::Lost;
            return true;
        };
        drop(docs);
        // The identifier scan is O(|doc|): run it outside the lock, with
        // the entry marked leased so that `doc`'s other verbs wait.
        parked.restart_ids();
        self.lock()
            .entries
            .get_mut(&doc)
            .expect("entries are never removed")
            .state = State::Parked(parked);
        self.returned.notify_all();
        true
    }

    /// Parks every resident session — a flush, not counted as an
    /// eviction — and hands each committed document to `visit` in id
    /// order, waiting out any lease first. Lost documents are skipped.
    pub(crate) fn park_all(&self, mut visit: impl FnMut(u64, usize, &DocTree)) {
        let mut docs = self.lock();
        let mut ids: Vec<u64> = docs.entries.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            docs = self.settled(docs, id);
            let Docs {
                entries, sessions, ..
            } = &mut *docs;
            let entry = entries.get_mut(&id).expect("entries are never removed");
            if entry.park() {
                *sessions -= 1;
            }
            if let State::Parked(parked) = &entry.state {
                visit(id, entry.family, parked.document());
            }
        }
    }

    /// Takes `doc`'s pending propagation.
    pub(crate) fn take_pending(&self, doc: u64) -> Option<Propagation> {
        self.lock().entries.get_mut(&doc)?.pending.take()
    }

    /// Records `prop` as `doc`'s pending propagation.
    pub(crate) fn set_pending(&self, doc: u64, prop: Propagation) {
        if let Some(entry) = self.lock().entries.get_mut(&doc) {
            entry.pending = Some(prop);
        }
    }
}

/// Exclusive use of one document's [`Session`], from
/// [`DocTable::lease`]. Dereferences to the session; dropping it makes
/// the entry resident again (or lost, see the module docs) and wakes
/// waiters.
pub(crate) struct Lease<'t, 'e> {
    table: &'t DocTable<'e>,
    doc: u64,
    session: Option<Box<Session<'e>>>,
    /// Whether the session was borrowed mutably.
    changed: bool,
}

impl<'e> Deref for Lease<'_, 'e> {
    type Target = Session<'e>;
    fn deref(&self) -> &Session<'e> {
        self.session.as_ref().expect("session present until drop")
    }
}

impl<'e> DerefMut for Lease<'_, 'e> {
    fn deref_mut(&mut self) -> &mut Session<'e> {
        self.changed = true;
        self.session.as_mut().expect("session present until drop")
    }
}

impl Drop for Lease<'_, '_> {
    fn drop(&mut self) {
        let session = self.session.take().expect("dropped once");
        let lost = self.changed && std::thread::panicking();
        let mut docs = self.table.lock();
        if let Some(entry) = docs.entries.get_mut(&self.doc) {
            if lost {
                entry.state = State::Lost;
                entry.pending = None;
            } else {
                entry.state = State::Resident(session);
            }
        }
        if lost {
            docs.sessions -= 1;
        }
        drop(docs);
        self.table.returned.notify_all();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::daemon::{Server, ServerConfig};
    use crate::protocol::{Frame, Verb};
    use std::sync::mpsc;
    use std::time::Duration;
    use xvu_dtd::parse_dtd;
    use xvu_edit::{output_tree, parse_script, Script};
    use xvu_propagate::Engine;
    use xvu_tree::{parse_term_with_ids, Alphabet, NodeId, NodeIdGen, SnapshotFile};
    use xvu_view::parse_annotation;

    /// The paper's running example: engine, `t0` and the Fig. 7 update.
    pub(crate) fn engine_and_doc() -> (Engine, DocTree, Script) {
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
        let s0 = parse_script(
            &mut alpha,
            "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
             ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
        )
        .unwrap();
        let engine = Engine::builder()
            .alphabet(alpha)
            .dtd(dtd)
            .annotation(ann)
            .build()
            .unwrap();
        (engine, t, s0)
    }

    /// A table holding `docs` copies of `t`, keyed 1.., parked by
    /// `engine`.
    pub(crate) fn table_with<'e>(
        engine: &'e Engine,
        capacity: usize,
        t: &DocTree,
        docs: u64,
    ) -> DocTable<'e> {
        let table = DocTable::new(capacity);
        for doc in 1..=docs {
            table.load(doc, 0, engine.park(t.clone()).unwrap());
        }
        table
    }

    #[test]
    fn lru_evicts_oldest_parked_session_at_capacity() {
        let (engine, t, _) = engine_and_doc();
        let table = table_with(&engine, 2, &t, 4);
        for doc in [1u64, 2, 3] {
            let (lease, evicted) = table.lease(doc).unwrap();
            drop(lease);
            // leasing doc 3 must evict doc 1 (the LRU)
            assert_eq!(evicted, (doc == 3).then_some(1));
        }
        assert_eq!(table.resident(), 2);
        // touching doc 2 protects it: leasing doc 4 now evicts doc 3
        assert_eq!(table.lease(2).unwrap().1, None);
        assert_eq!(table.lease(4).unwrap().1, Some(3));
    }

    #[test]
    fn leased_sessions_are_eviction_exempt() {
        let (engine, t, _) = engine_and_doc();
        let table = table_with(&engine, 2, &t, 3);
        let (held_1, _) = table.lease(1).unwrap();
        drop(table.lease(2).unwrap());
        // doc 1 is LRU but leased: doc 2 is evicted instead
        assert_eq!(table.lease(3).unwrap().1, Some(2));
        drop(held_1);
    }

    #[test]
    fn fully_leased_pool_pushes_back_instead_of_growing() {
        let (engine, t, _) = engine_and_doc();
        let table = table_with(&engine, 2, &t, 3);
        let (a, _) = table.lease(1).unwrap();
        let (b, _) = table.lease(2).unwrap();
        // both sessions are leased: a parked document is refused with
        // the retryable error, never opened past the bound
        assert!(matches!(table.lease(3), Err(LeaseError::Full)));
        assert_eq!(table.resident(), 2);
        // an open document keeps serving at capacity
        drop(b);
        assert_eq!(table.lease(2).unwrap().1, None);
        drop(a);
        // with the leases returned the same lease succeeds by eviction
        assert_eq!(table.lease(3).unwrap().1, Some(1));
        assert_eq!(table.resident(), 2);
        assert!(matches!(table.lease(9), Err(LeaseError::Unknown)));
    }

    #[test]
    fn remove_returns_the_session_for_write_back() {
        // `close` parks the session's committed document in its entry:
        // the next lease reopens a fresh session from it.
        let (engine, t, s0) = engine_and_doc();
        let table = table_with(&engine, 4, &t, 7);
        let committed = {
            let (mut lease, _) = table.lease(7).unwrap();
            lease.apply(&s0).unwrap();
            lease.document().clone()
        };
        assert!(table.close(7));
        assert_eq!(table.resident(), 0);
        assert!(table.close(7), "closing a parked document is a no-op");
        assert!(!table.close(99), "unknown document");
        let (lease, _) = table.lease(7).unwrap();
        assert_eq!(lease.commits(), 0);
        assert_eq!(lease.document(), &committed);
    }

    #[test]
    fn eviction_write_back_preserves_id_floor_via_merge() {
        // The serving invariant behind deterministic replay: evict a
        // session, reopen it — the reopened session mints the same fresh
        // identifiers the evicted one would have. A `close` restarts the
        // floor instead, as a fresh `Engine::open` would.
        let engine = hidden_h_engine();
        let mut alpha = engine.alphabet().clone();
        let t = parse_term_with_ids(&mut alpha, &mut NodeIdGen::new(), "r#0(a#1, h#2)").unwrap();
        let table = table_with(&engine, 1, &t, 2);
        let floor = {
            let (mut lease, _) = table.lease(1).unwrap();
            // insert a#9, then delete it: the document's largest id is 2
            // again, but the session's floor stays past 9
            for edit in ["nop:r#0(nop:a#1, ins:a#9)", "nop:r#0(nop:a#1, del:a#9)"] {
                lease
                    .apply(&parse_script(&mut alpha, edit).unwrap())
                    .unwrap();
            }
            assert_eq!(
                engine.open(lease.document()).unwrap().id_gen().peek(),
                NodeId(3)
            );
            lease.id_gen().peek()
        };
        assert_eq!(floor, NodeId(10));
        assert_eq!(table.lease(2).unwrap().1, Some(1));
        let (lease, evicted) = table.lease(1).unwrap();
        assert_eq!(evicted, Some(2));
        assert_eq!(lease.commits(), 0, "reopened");
        assert_eq!(lease.id_gen().peek(), floor);
        drop(lease);
        assert!(table.close(1));
        let (lease, _) = table.lease(1).unwrap();
        assert_eq!(lease.commits(), 0, "reopened");
        assert_eq!(lease.id_gen().peek(), NodeId(3), "close restarts the floor");
    }

    #[test]
    fn lease_resumes_the_committed_state() {
        let (engine, t, s0) = engine_and_doc();
        let table = table_with(&engine, 4, &t, 7);
        let expected = {
            let (mut lease, _) = table.lease(7).unwrap();
            let prop = lease.apply(&s0).unwrap();
            assert_eq!(prop.cost, 14);
            output_tree(&prop.script).unwrap()
        }; // lease dropped: session resident
        assert_eq!(table.resident(), 1);
        let (lease, _) = table.lease(7).unwrap();
        assert_eq!(lease.commits(), 1);
        assert_eq!(lease.document(), &expected);
    }

    // ---- load / close / snapshot against a held lease --------------------

    /// A daemon over [`hidden_h_engine`] serving document 1 =
    /// `r#0(a#1, h#2)`.
    fn daemon(engines: &[Engine]) -> Server<'_> {
        let server = Server::new(engines, ServerConfig::default());
        assert_eq!(
            server.handle_write(Verb::Load, "1\n0\nr#0(a#1, h#2)"),
            Frame::ok("")
        );
        server
    }

    /// `r -> (a.h?)*` with `h` hidden: the view of `r(a, h)` is `r(a)`.
    pub(crate) fn hidden_h_engine() -> Engine {
        let mut alpha = Alphabet::new();
        let dtd = parse_dtd(&mut alpha, "r -> (a.h?)*").unwrap();
        let ann = parse_annotation(&mut alpha, "hide r h").unwrap();
        Engine::builder()
            .alphabet(alpha)
            .dtd(dtd)
            .annotation(ann)
            .build()
            .unwrap()
    }

    /// Commits `a#9` through document 1's lease on one thread and holds
    /// the lease 200 ms longer while the handler for `verb` runs on this
    /// one. Returns the reply and the document the lease committed.
    fn while_leased(server: &Server<'_>, verb: Verb, payload: &str) -> (Frame, DocTree) {
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let holder = scope.spawn(move || {
                let (mut lease, _) = server.table.lease(1).unwrap();
                let mut alpha = lease.engine().alphabet().clone();
                let edit = parse_script(&mut alpha, "nop:r#0(nop:a#1, ins:a#9)").unwrap();
                lease.apply(&edit).unwrap();
                tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(200));
                lease.document().clone()
            });
            rx.recv().unwrap();
            let reply = server.handle_write(verb, payload);
            (reply, holder.join().unwrap())
        })
    }

    #[test]
    fn load_waits_for_the_lease_then_replaces_the_document() {
        let engines = [hidden_h_engine()];
        let server = daemon(&engines);
        let (reply, _) = while_leased(&server, Verb::Load, "1\n0\nr#0(a#1, a#3)");
        assert_eq!(reply, Frame::ok(""));
        assert_eq!(
            server.handle_write(Verb::Open, "1"),
            Frame::ok("r#0(a#1, a#3)")
        );
    }

    #[test]
    fn close_waits_for_the_lease_and_keeps_its_commit() {
        let engines = [hidden_h_engine()];
        let server = daemon(&engines);
        let (reply, committed) = while_leased(&server, Verb::CloseDoc, "1");
        assert_eq!(reply, Frame::ok(""));
        let (lease, _) = server.table.lease(1).unwrap();
        assert_eq!(lease.commits(), 0, "close reopens a fresh session");
        assert_eq!(lease.document(), &committed);
    }

    #[test]
    fn snapshot_waits_for_the_lease_and_writes_its_commit() {
        let engines = [hidden_h_engine()];
        let server = daemon(&engines);
        let path = std::env::temp_dir().join(format!("xvu-pool-test-{}.xvus", std::process::id()));
        let (reply, committed) = while_leased(&server, Verb::Snapshot, path.to_str().unwrap());
        let file = SnapshotFile::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(reply.verb, Verb::Ok, "{reply:?}");
        let mut alpha = engines[0].alphabet().clone();
        let doc = file.find(1).expect("document 1 in the snapshot");
        assert_eq!(file.decode(doc, &mut alpha).unwrap(), committed);
        assert_eq!(server.table.resident(), 0, "the flush parked the session");
    }
}
