//! The serving daemon: document store, worker pool, admission control,
//! and graceful shutdown.
//!
//! A [`Server`] owns a corpus of documents (keyed by `u64` id, each
//! belonging to one compiled [`Engine`] family), a bounded
//! [`LruSessionPool`] of open sessions, and a fixed worker pool fed by a
//! bounded work queue:
//!
//! * **write verbs** (`load`/`open`/`propagate`/`commit`/`close`) are
//!   admitted into the queue — or pushed back with a `retry` frame when
//!   the queue is at capacity — and executed by worker threads;
//! * **read-only verbs** (`verify`/`count`) take a fast path on the
//!   connection thread, never queueing behind writes;
//! * `hello`/`stats` are answered inline; `shutdown` drains every queued
//!   and in-flight request, replies with the final stats snapshot, and
//!   stops the accept loop;
//! * `snapshot` (a write verb) flushes every resident session into the
//!   store with eviction semantics and writes the committed corpus out
//!   as a flat snapshot file (`xvu_tree::snapshot`); the inverse is
//!   [`Server::preload_corpus`], the parse-free cold-start path.
//!
//! Request latencies (including queueing for writes), queue depth,
//! admission rejects, pool evictions, and propagation-memo counters are
//! all observable via the `stats` verb ([`crate::StatsSnapshot`]).
//!
//! ## Determinism across eviction
//!
//! Evicting an idle session drops only its *session-private* state — its
//! document copy and the intern-id map over it: the committed document
//! **and** its fresh-identifier high-water mark are written back to the
//! store and restored on the next checkout
//! ([`xvu_propagate::Session::merge_id_gen`]), so replies are
//! byte-identical whether or not an eviction happened in between — the
//! property the fleet differential driver ([`crate::run_fleet`]) checks
//! end to end. Every memo lives in the engine, keyed by subtree
//! structure ([`xvu_propagate::cache`]), and **survives eviction**: a
//! reopened session re-interns its document and warms straight from the
//! engine's table instead of recomputing. The `stats` verb reports the
//! table's counters summed over the server's families (`cache` object).
//! An explicit `close` resets the identifier floor instead: a closed
//! document starts a fresh session history, exactly like a direct
//! [`xvu_propagate::Engine::open`].

use crate::metrics::{Metrics, StatsSnapshot};
use crate::pool::{Evicted, LruSessionPool};
use crate::protocol::{check_hello, Frame, Recv, Verb, PROTOCOL_VERSION};
use crate::transport::{StreamTransport, Transport};
use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use xvu_edit::{parse_script, script_to_term, Script};
use xvu_propagate::{
    count_optimal_propagations, CacheStats, Engine, PropagateError, Propagation, SessionLease,
};
use xvu_tree::{
    parse_term_with_ids, to_term_with_ids, Alphabet, CorpusBuilder, DocTree, NodeIdGen,
    SnapshotFile,
};

/// Daemon sizing and admission knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing write verbs.
    pub workers: usize,
    /// Bounded work-queue depth; writes beyond it are pushed back with
    /// `retry`.
    pub queue_capacity: usize,
    /// [`LruSessionPool`] bound: resident sessions across all documents.
    pub pool_capacity: usize,
    /// Backoff suggested to pushed-back clients, in milliseconds.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            pool_capacity: 64,
            retry_after_ms: 2,
        }
    }
}

/// What [`Server::serve_listener`] / [`Server::serve_transport`] hand
/// back after shutdown.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// The final metrics snapshot (also sent as the `shutdown` reply).
    pub stats: StatsSnapshot,
    /// Whether every queued and in-flight request completed within the
    /// drain window.
    pub drained_clean: bool,
}

/// One stored document: its family, committed content, and — after an
/// eviction — the identifier high-water mark to restore on reopen.
struct StoredDoc {
    family: usize,
    doc: DocTree,
    gen: Option<NodeIdGen>,
}

/// One queued write request.
struct Job {
    frame: Frame,
    enqueued: Instant,
    reply: mpsc::Sender<Frame>,
}

/// Queue state under one mutex: jobs, in-flight count, shutdown flag.
struct WorkQueue {
    jobs: VecDeque<Job>,
    in_flight: usize,
    shutdown: bool,
}

/// The long-lived serving daemon. Construct once over the compiled
/// family engines, then run [`Server::serve_listener`] (TCP) or
/// [`Server::serve_transport`] (stdio or an in-memory pipe).
pub struct Server<'e> {
    engines: &'e [Engine],
    cfg: ServerConfig,
    pool: LruSessionPool<'e>,
    store: Mutex<HashMap<u64, StoredDoc>>,
    /// Serializes the store↔pool critical sections (read-store →
    /// checkout → write-back, and close/load's remove → store update).
    /// Without it a concurrent eviction leaves a window — session gone
    /// from the pool, write-back not yet in the store — in which a
    /// checkout for the evicted document reopens a stale snapshot.
    /// Lease *holders* never take this lock, so the blocking inner
    /// checkout (same-document isolation) cannot deadlock through it.
    coherence: Mutex<()>,
    pending: Mutex<HashMap<u64, Propagation>>,
    metrics: Metrics,
    queue: Mutex<WorkQueue>,
    work_ready: Condvar,
    drained: Condvar,
    stopped: AtomicBool,
    drained_clean: AtomicBool,
}

fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl<'e> Server<'e> {
    /// A daemon serving documents of the given families.
    pub fn new(engines: &'e [Engine], cfg: ServerConfig) -> Server<'e> {
        assert!(!engines.is_empty(), "a server needs at least one family");
        let workers = cfg.workers.max(1);
        let pool = LruSessionPool::new(engines, cfg.pool_capacity.max(1));
        Server {
            engines,
            cfg: ServerConfig { workers, ..cfg },
            pool,
            store: Mutex::new(HashMap::new()),
            coherence: Mutex::new(()),
            pending: Mutex::new(HashMap::new()),
            metrics: Metrics::new(),
            queue: Mutex::new(WorkQueue {
                jobs: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            drained: Condvar::new(),
            stopped: AtomicBool::new(false),
            drained_clean: AtomicBool::new(true),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// A current metrics snapshot (what the `stats` verb returns).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        // The memo is engine-owned: its counters need no per-session
        // bookkeeping (eviction never touches it), just a sum over the
        // server's families.
        let cache =
            self.engines
                .iter()
                .map(Engine::cache_stats)
                .fold(CacheStats::default(), |acc, s| CacheStats {
                    hits: acc.hits + s.hits,
                    misses: acc.misses + s.misses,
                    entries: acc.entries + s.entries,
                });
        self.metrics
            .snapshot(cache, self.pool.resident(), self.pool.capacity())
    }

    /// Initiates shutdown from outside a connection (equivalent to the
    /// `shutdown` verb, minus the reply).
    pub fn request_shutdown(&self) {
        self.drain(Duration::from_secs(30));
    }

    /// Whether the daemon has fully stopped accepting work.
    pub fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Serves TCP connections until a `shutdown` request completes.
    /// Every connection gets its own thread; write verbs funnel into the
    /// shared worker pool.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<ServerReport> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers {
                scope.spawn(|| self.worker_loop());
            }
            loop {
                if self.stopped() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                        scope.spawn(move || self.conn_loop(StreamTransport::new(stream)));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            // belt and braces: if the accept loop exited abnormally, make
            // sure the workers can drain and terminate
            self.drain(Duration::from_secs(30));
        });
        Ok(self.final_report())
    }

    /// Serves one transport (the `--stdio` mode) until the peer sends
    /// `shutdown` or closes the stream; either way the queue is drained
    /// before returning.
    pub fn serve_transport<T: Transport>(&self, transport: T) -> ServerReport {
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers {
                scope.spawn(|| self.worker_loop());
            }
            self.conn_loop(transport);
            self.drain(Duration::from_secs(30));
        });
        self.final_report()
    }

    fn final_report(&self) -> ServerReport {
        ServerReport {
            stats: self.stats_snapshot(),
            drained_clean: self.drained_clean.load(Ordering::Acquire),
        }
    }

    // ---- connection side ------------------------------------------------

    fn conn_loop<T: Transport>(&self, mut t: T) {
        loop {
            match t.recv() {
                Ok(Recv::Idle) => {
                    if self.stopped() {
                        break;
                    }
                }
                Ok(Recv::Eof) => break,
                Ok(Recv::Frame(req)) => {
                    let resp = self.dispatch(req);
                    if t.send(&resp).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    // malformed peers get a typed error, then the
                    // connection closes (framing can no longer be trusted)
                    let _ = t.send(&Frame::err(format!("protocol error: {e}")));
                    break;
                }
            }
        }
    }

    /// Routes one request frame to its handler and produces the reply.
    fn dispatch(&self, req: Frame) -> Frame {
        self.metrics.count_request(req.verb);
        let resp = match req.verb {
            Verb::Hello => match check_hello(&req.payload) {
                Ok(()) => Frame::ok(format!("xvu {PROTOCOL_VERSION}")),
                Err(e) => Frame::err(e.to_string()),
            },
            Verb::Stats => Frame::ok(self.stats_snapshot().to_json()),
            Verb::Verify | Verb::Count => {
                if self.shutting_down() {
                    Frame::err("shutting down")
                } else {
                    let start = Instant::now();
                    let resp = self.handle_read(req.verb, &req.payload);
                    self.metrics.read_latency.record(start.elapsed());
                    resp
                }
            }
            Verb::Load
            | Verb::Open
            | Verb::Propagate
            | Verb::Commit
            | Verb::CloseDoc
            | Verb::Snapshot => self.enqueue_write(req),
            Verb::Shutdown => self.do_shutdown(),
            Verb::Ok | Verb::Err | Verb::Retry => Frame::err("not a request verb"),
        };
        if resp.verb == Verb::Err {
            self.metrics.count_error();
        }
        resp
    }

    fn shutting_down(&self) -> bool {
        relock(self.queue.lock()).shutdown
    }

    /// Admission control: bounded queue, reject-with-retry-after when
    /// deep. Blocks the connection thread until a worker replies.
    fn enqueue_write(&self, frame: Frame) -> Frame {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = relock(self.queue.lock());
            if q.shutdown {
                return Frame::err("shutting down");
            }
            if q.jobs.len() >= self.cfg.queue_capacity {
                self.metrics.rejected_writes.fetch_add(1, Ordering::Relaxed);
                return Frame::retry(self.cfg.retry_after_ms);
            }
            q.jobs.push_back(Job {
                frame,
                enqueued: Instant::now(),
                reply: tx,
            });
            self.metrics.observe_queue_depth(q.jobs.len() as u64);
            self.work_ready.notify_one();
        }
        rx.recv()
            .unwrap_or_else(|_| Frame::err("worker dropped the request"))
    }

    fn do_shutdown(&self) -> Frame {
        self.drain(Duration::from_secs(30));
        Frame::ok(self.stats_snapshot().to_json())
    }

    /// Sets the shutdown flag and waits (bounded) for queued plus
    /// in-flight work to finish; then stops the accept loop.
    fn drain(&self, window: Duration) {
        let clean = {
            let mut q = relock(self.queue.lock());
            q.shutdown = true;
            self.work_ready.notify_all();
            let deadline = Instant::now() + window;
            while !(q.jobs.is_empty() && q.in_flight == 0) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                q = relock(self.drained.wait_timeout(q, left)).0;
            }
            q.jobs.is_empty() && q.in_flight == 0
        };
        if !clean {
            self.drained_clean.store(false, Ordering::Release);
        }
        self.stopped.store(true, Ordering::Release);
    }

    // ---- worker side ----------------------------------------------------

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = relock(self.queue.lock());
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        q.in_flight += 1;
                        self.metrics.observe_queue_depth(q.jobs.len() as u64);
                        break Some(job);
                    }
                    if q.shutdown {
                        break None;
                    }
                    q = relock(self.work_ready.wait_timeout(q, Duration::from_millis(100))).0;
                }
            };
            let Some(job) = job else { return };
            let resp = self.handle_write(job.frame.verb, &job.frame.payload);
            if resp.verb == Verb::Err {
                self.metrics.count_error();
            }
            self.metrics.write_latency.record(job.enqueued.elapsed());
            let _ = job.reply.send(resp);
            let mut q = relock(self.queue.lock());
            q.in_flight -= 1;
            if q.shutdown && q.jobs.is_empty() && q.in_flight == 0 {
                self.drained.notify_all();
            }
        }
    }

    fn handle_write(&self, verb: Verb, payload: &str) -> Frame {
        match verb {
            Verb::Load => self.handle_load(payload),
            Verb::Open => self.handle_open(payload),
            Verb::Propagate => self.handle_propagate(payload),
            Verb::Commit => self.handle_commit(payload),
            Verb::CloseDoc => self.handle_close(payload),
            Verb::Snapshot => self.handle_snapshot(payload),
            other => Frame::err(format!("{} is not a write verb", other.name())),
        }
    }

    fn handle_read(&self, verb: Verb, payload: &str) -> Frame {
        match verb {
            Verb::Verify => self.handle_verify(payload),
            Verb::Count => self.handle_count(payload),
            other => Frame::err(format!("{} is not a read verb", other.name())),
        }
    }

    // ---- request handlers -----------------------------------------------

    fn handle_load(&self, payload: &str) -> Frame {
        let mut fields = payload.splitn(3, '\n');
        let (Some(id), Some(family), Some(term)) = (fields.next(), fields.next(), fields.next())
        else {
            return Frame::err("load expects doc_id\\nfamily\\nterm");
        };
        let Ok(doc_id) = id.parse::<u64>() else {
            return Frame::err(format!("bad document id {id:?}"));
        };
        let Ok(family) = family.parse::<usize>() else {
            return Frame::err(format!("bad family index {family:?}"));
        };
        if family >= self.engines.len() {
            return Frame::err(format!(
                "family {family} out of range (server has {})",
                self.engines.len()
            ));
        }
        let tree = match self.parse_doc(self.engines[family].alphabet(), term) {
            Ok(t) => t,
            Err(m) => return Frame::err(m),
        };
        if let Err(e) = self.engines[family].dtd().validate(&tree) {
            return Frame::err(format!("document violates the family DTD: {e}"));
        }
        // replacing a document discards any resident session and pending
        // propagation for its id; atomic with concurrent checkouts so a
        // racing lease never resurrects the replaced session's state
        let _atomic = relock(self.coherence.lock());
        self.pool.remove(doc_id);
        relock(self.pending.lock()).remove(&doc_id);
        relock(self.store.lock()).insert(
            doc_id,
            StoredDoc {
                family,
                doc: tree,
                gen: None,
            },
        );
        Frame::ok("")
    }

    fn handle_open(&self, payload: &str) -> Frame {
        let Ok(doc_id) = payload.trim().parse::<u64>() else {
            return Frame::err(format!("bad document id {payload:?}"));
        };
        let (lease, family) = match self.lease_for(doc_id) {
            Ok(x) => x,
            Err(resp) => return resp,
        };
        let view = to_term_with_ids(lease.view(), self.engines[family].alphabet());
        Frame::ok(view)
    }

    fn handle_propagate(&self, payload: &str) -> Frame {
        let Some((id, term)) = payload.split_once('\n') else {
            return Frame::err("propagate expects doc_id\\nupdate-term");
        };
        let Ok(doc_id) = id.parse::<u64>() else {
            return Frame::err(format!("bad document id {id:?}"));
        };
        let (lease, family) = match self.lease_for(doc_id) {
            Ok(x) => x,
            Err(resp) => return resp,
        };
        let alpha = self.engines[family].alphabet();
        let update = match self.parse_update(alpha, term) {
            Ok(u) => u,
            Err(m) => return Frame::err(m),
        };
        let prop = match lease.propagate(&update) {
            Ok(p) => p,
            Err(e) => return Frame::err(e.to_string()),
        };
        let Some(count) = count_optimal_propagations(&prop.forest) else {
            return Frame::err("optimal count overflows u128".to_owned());
        };
        let script = script_to_term(&prop.script, alpha);
        let reply = format!("{}\n{}\n{}", prop.cost, count, script);
        relock(self.pending.lock()).insert(doc_id, prop);
        Frame::ok(reply)
    }

    fn handle_commit(&self, payload: &str) -> Frame {
        let Ok(doc_id) = payload.trim().parse::<u64>() else {
            return Frame::err(format!("bad document id {payload:?}"));
        };
        let Some(prop) = relock(self.pending.lock()).remove(&doc_id) else {
            return Frame::err(format!("document {doc_id} has no pending propagation"));
        };
        let (mut lease, _) = match self.lease_for(doc_id) {
            Ok(x) => x,
            Err(resp) => {
                // checkout pushback (e.g. a fully-leased pool) must not
                // consume the propagation: the client will retry
                relock(self.pending.lock()).insert(doc_id, prop);
                return resp;
            }
        };
        match lease.commit(&prop) {
            Ok(()) => Frame::ok(""),
            Err(e) => {
                // leave the propagation pending so the client may retry
                relock(self.pending.lock()).insert(doc_id, prop);
                Frame::err(e.to_string())
            }
        }
    }

    fn handle_close(&self, payload: &str) -> Frame {
        let Ok(doc_id) = payload.trim().parse::<u64>() else {
            return Frame::err(format!("bad document id {payload:?}"));
        };
        // atomic with concurrent checkouts: the removed session's state
        // must land in the store before any lease can reopen the document
        let _atomic = relock(self.coherence.lock());
        let removed = self.pool.remove(doc_id);
        relock(self.pending.lock()).remove(&doc_id);
        let mut store = relock(self.store.lock());
        let Some(stored) = store.get_mut(&doc_id) else {
            return Frame::err(format!("unknown document {doc_id}"));
        };
        if let Some(session) = removed {
            stored.doc = session.document().clone();
        }
        // a closed document starts a fresh identifier history on reopen —
        // same as a direct Engine::open on the committed document
        stored.gen = None;
        Frame::ok("")
    }

    fn handle_snapshot(&self, payload: &str) -> Frame {
        let path = payload.trim();
        if path.is_empty() {
            return Frame::err("snapshot expects a destination path");
        }
        let bytes = self.snapshot_store_bytes();
        let docs = {
            let store = relock(self.store.lock());
            store.len()
        };
        match std::fs::write(path, &bytes) {
            Ok(()) => Frame::ok(format!("docs={docs} bytes={}", bytes.len())),
            Err(e) => Frame::err(format!("cannot write snapshot {path:?}: {e}")),
        }
    }

    fn handle_verify(&self, payload: &str) -> Frame {
        let mut fields = payload.splitn(3, '\n');
        let (Some(id), Some(update), Some(candidate)) =
            (fields.next(), fields.next(), fields.next())
        else {
            return Frame::err("verify expects doc_id\\nupdate\\ncandidate");
        };
        let Ok(doc_id) = id.parse::<u64>() else {
            return Frame::err(format!("bad document id {id:?}"));
        };
        let (lease, family) = match self.lease_for(doc_id) {
            Ok(x) => x,
            Err(resp) => return resp,
        };
        let alpha = self.engines[family].alphabet();
        let (update, candidate) = match (
            self.parse_update(alpha, update),
            self.parse_update(alpha, candidate),
        ) {
            (Ok(u), Ok(c)) => (u, c),
            (Err(m), _) | (_, Err(m)) => return Frame::err(m),
        };
        match lease.verify(&update, &candidate) {
            Ok(()) => Frame::ok(""),
            Err(e) => Frame::err(e.to_string()),
        }
    }

    fn handle_count(&self, payload: &str) -> Frame {
        let Some((id, term)) = payload.split_once('\n') else {
            return Frame::err("count expects doc_id\\nupdate-term");
        };
        let Ok(doc_id) = id.parse::<u64>() else {
            return Frame::err(format!("bad document id {id:?}"));
        };
        let (lease, family) = match self.lease_for(doc_id) {
            Ok(x) => x,
            Err(resp) => return resp,
        };
        let update = match self.parse_update(self.engines[family].alphabet(), term) {
            Ok(u) => u,
            Err(m) => return Frame::err(m),
        };
        match lease.count_optimal(&update) {
            Ok(n) => Frame::ok(n.to_string()),
            Err(e) => Frame::err(e.to_string()),
        }
    }

    // ---- shared plumbing -------------------------------------------------

    /// Checks out the document's session (opening or reopening as
    /// needed), writing back any sessions the LRU pool evicted to make
    /// room and restoring the identifier floor after a reopen.
    fn lease_for(&self, doc_id: u64) -> Result<(SessionLease<'_, 'e, u64>, usize), Frame> {
        // the store snapshot, the checkout it seeds, and the write-back
        // of whatever that checkout evicted must be one atomic step: a
        // concurrent eviction between the snapshot and the checkout
        // would otherwise reopen this document from a stale store entry
        let _atomic = relock(self.coherence.lock());
        let (family, tree, saved_gen) = {
            let store = relock(self.store.lock());
            let Some(stored) = store.get(&doc_id) else {
                return Err(Frame::err(format!("unknown document {doc_id}")));
            };
            (stored.family, stored.doc.clone(), stored.gen.clone())
        };
        match self.pool.checkout(doc_id, family, &tree) {
            Ok((mut lease, evicted)) => {
                self.write_back(evicted);
                if let Some(gen) = saved_gen {
                    lease.merge_id_gen(&gen);
                }
                Ok((lease, family))
            }
            Err(PropagateError::PoolAtCapacity { .. }) => {
                self.metrics.rejected_writes.fetch_add(1, Ordering::Relaxed);
                Err(Frame::retry(self.cfg.retry_after_ms))
            }
            Err(e) => Err(Frame::err(e.to_string())),
        }
    }

    /// Persists evicted sessions: committed document plus identifier
    /// high-water mark back into the store.
    fn write_back(&self, evicted: Vec<Evicted<'e>>) {
        for ev in evicted {
            self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
            let mut store = relock(self.store.lock());
            if let Some(stored) = store.get_mut(&ev.doc) {
                stored.doc = ev.session.document().clone();
                stored.gen = Some(ev.session.id_gen());
            }
        }
    }

    /// Preloads the document store from a packed snapshot corpus — the
    /// cold-start path: no term/XML parsing, one bulk decode per
    /// document. Every document is checked against its family's alphabet
    /// (foreign labels are rejected, like the `load` verb) and DTD.
    /// Returns the number of documents loaded.
    pub fn preload_corpus(&self, corpus: &SnapshotFile) -> Result<usize, String> {
        let _atomic = relock(self.coherence.lock());
        let mut loaded = 0usize;
        for (i, entry) in corpus.entries().iter().enumerate() {
            let family = entry.family as usize;
            if family >= self.engines.len() {
                return Err(format!(
                    "doc {}: family {family} out of range (server has {})",
                    entry.doc_id,
                    self.engines.len()
                ));
            }
            let alpha = self.engines[family].alphabet();
            let mut scratch = alpha.clone();
            let tree = corpus
                .decode(i, &mut scratch)
                .map_err(|e| format!("doc {}: {e}", entry.doc_id))?;
            if scratch.len() != alpha.len() {
                return Err(format!(
                    "doc {}: document uses labels outside the family alphabet",
                    entry.doc_id
                ));
            }
            if let Err(e) = self.engines[family].dtd().validate(&tree) {
                return Err(format!(
                    "doc {}: document violates the family DTD: {e}",
                    entry.doc_id
                ));
            }
            relock(self.store.lock()).insert(
                entry.doc_id,
                StoredDoc {
                    family,
                    doc: tree,
                    gen: None,
                },
            );
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Serializes the committed store as a snapshot corpus image.
    ///
    /// Resident sessions are flushed first with eviction semantics —
    /// committed document and identifier high-water mark written back —
    /// so the corpus captures exactly
    /// what a cold restart would serve, and reopening after the flush is
    /// observationally invisible (same guarantee as LRU eviction).
    /// Documents are emitted sorted by id, so equal stores produce
    /// byte-identical corpora.
    pub fn snapshot_store_bytes(&self) -> Vec<u8> {
        let _atomic = relock(self.coherence.lock());
        for doc_id in self.pool.resident_docs() {
            if let Some(session) = self.pool.remove(doc_id) {
                let mut store = relock(self.store.lock());
                if let Some(stored) = store.get_mut(&doc_id) {
                    stored.doc = session.document().clone();
                    stored.gen = Some(session.id_gen());
                }
            }
        }
        let store = relock(self.store.lock());
        let mut ids: Vec<u64> = store.keys().copied().collect();
        ids.sort_unstable();
        let mut builder = CorpusBuilder::new();
        for id in ids {
            let stored = &store[&id];
            let alpha = self.engines[stored.family].alphabet();
            builder
                .push(id, stored.family as u32, &stored.doc, alpha)
                .expect("stored documents always encode");
        }
        builder.finish()
    }

    /// Parses a script term over the family alphabet, rejecting labels
    /// the alphabet does not know.
    fn parse_update(&self, alpha: &Alphabet, term: &str) -> Result<Script, String> {
        let mut scratch = alpha.clone();
        let script =
            parse_script(&mut scratch, term).map_err(|e| format!("bad script term: {e}"))?;
        if scratch.len() != alpha.len() {
            return Err("script uses labels outside the family alphabet".to_owned());
        }
        Ok(script)
    }

    /// Parses a document term (identifiers come from the wire), rejecting
    /// unknown labels.
    fn parse_doc(&self, alpha: &Alphabet, term: &str) -> Result<DocTree, String> {
        let mut scratch = alpha.clone();
        let mut gen = NodeIdGen::new();
        let tree = parse_term_with_ids(&mut scratch, &mut gen, term)
            .map_err(|e| format!("bad document term: {e}"))?;
        if scratch.len() != alpha.len() {
            return Err("document uses labels outside the family alphabet".to_owned());
        }
        Ok(tree)
    }
}

impl std::fmt::Debug for Server<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("families", &self.engines.len())
            .field("config", &self.cfg)
            .finish_non_exhaustive()
    }
}
