//! The serving daemon: document table, worker pool, admission control,
//! and graceful shutdown.
//!
//! A [`Server`] owns a corpus of documents (keyed by `u64` id, each
//! belonging to one compiled [`Engine`] family) in one document table —
//! committed document, pending propagation and open session of every
//! document under one lock, with at most `pool_capacity` sessions open —
//! and a fixed worker pool fed by a bounded work queue:
//!
//! * **write verbs** (`load`/`open`/`propagate`/`commit`/`close`) are
//!   admitted into the queue — or pushed back with a `retry` frame when
//!   the queue is at capacity — and executed by worker threads;
//! * **read-only verbs** (`verify`/`count`) take a fast path on the
//!   connection thread, never queueing behind writes;
//! * `hello`/`stats` are answered inline; `shutdown` drains every queued
//!   and in-flight request, replies with the final stats snapshot, and
//!   stops the accept loop;
//! * `snapshot` (a write verb) parks every open session with eviction
//!   semantics and writes the committed corpus out as a flat snapshot
//!   file (`xvu_tree::snapshot`); the inverse is
//!   [`Server::preload_corpus`], the parse-free cold-start path.
//!
//! Request latencies (including queueing for writes), queue depth,
//! admission rejects, pool evictions, and propagation-memo counters are
//! all observable via the `stats` verb ([`crate::StatsSnapshot`]).
//!
//! ## Determinism across eviction
//!
//! Evicting an idle session drops only its *session-private* state — the
//! intern-id map over its document. Eviction is one state change under
//! the document table's lock: the entry keeps the session's committed
//! document **and** its fresh-identifier high-water mark, and the next
//! lease reopens from both ([`xvu_propagate::Session::merge_id_gen`]), so
//! replies are byte-identical whether or not an eviction happened in
//! between — the property the fleet differential driver
//! ([`crate::run_fleet`]) checks end to end. Every memo lives in the
//! engine, keyed by subtree structure ([`xvu_propagate::cache`]), and
//! **survives eviction**: a reopened session re-interns its document and
//! warms straight from the engine's memo instead of recomputing. The
//! `stats` verb reports the memo's counters summed over the server's
//! families (`cache` object).
//! An explicit `close` resets the identifier floor instead: a closed
//! document starts a fresh session history, exactly like a direct
//! [`xvu_propagate::Engine::open`].

use crate::metrics::{Metrics, StatsSnapshot};
use crate::pool::{DocTable, Lease, LeaseError};
use crate::protocol::{check_hello, Frame, Recv, Verb, PROTOCOL_VERSION};
use crate::transport::{StreamTransport, Transport};
use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use xvu_edit::{parse_script, script_to_term, Script};
use xvu_propagate::{count_optimal_propagations, CacheStats, Engine};
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
    /// Open sessions across all documents; the least recently used idle
    /// one is evicted to open another.
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
    /// Every document's committed content, pending propagation and
    /// session.
    pub(crate) table: DocTable<'e>,
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
        let table = DocTable::new(engines, cfg.pool_capacity.max(1));
        Server {
            engines,
            cfg: ServerConfig { workers, ..cfg },
            table,
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
            .snapshot(cache, self.table.resident(), self.table.capacity())
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

    pub(crate) fn handle_write(&self, verb: Verb, payload: &str) -> Frame {
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
        // replacing a document discards its session and pending
        // propagation, once any lease on it has returned
        self.table.load(doc_id, family, tree);
        Frame::ok("")
    }

    fn handle_open(&self, payload: &str) -> Frame {
        let Ok(doc_id) = payload.trim().parse::<u64>() else {
            return Frame::err(format!("bad document id {payload:?}"));
        };
        let lease = match self.lease(doc_id) {
            Ok(lease) => lease,
            Err(resp) => return resp,
        };
        Frame::ok(to_term_with_ids(lease.view(), lease.engine().alphabet()))
    }

    fn handle_propagate(&self, payload: &str) -> Frame {
        let Some((id, term)) = payload.split_once('\n') else {
            return Frame::err("propagate expects doc_id\\nupdate-term");
        };
        let Ok(doc_id) = id.parse::<u64>() else {
            return Frame::err(format!("bad document id {id:?}"));
        };
        let lease = match self.lease(doc_id) {
            Ok(lease) => lease,
            Err(resp) => return resp,
        };
        let alpha = lease.engine().alphabet();
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
        self.table.set_pending(doc_id, prop);
        Frame::ok(reply)
    }

    fn handle_commit(&self, payload: &str) -> Frame {
        let Ok(doc_id) = payload.trim().parse::<u64>() else {
            return Frame::err(format!("bad document id {payload:?}"));
        };
        let Some(prop) = self.table.take_pending(doc_id) else {
            return Frame::err(format!("document {doc_id} has no pending propagation"));
        };
        let mut lease = match self.lease(doc_id) {
            Ok(lease) => lease,
            Err(resp) => {
                // lease pushback (e.g. every session leased) must not
                // consume the propagation: the client will retry
                self.table.set_pending(doc_id, prop);
                return resp;
            }
        };
        match lease.commit(&prop) {
            Ok(()) => Frame::ok(""),
            Err(e) => {
                // leave the propagation pending so the client may retry
                self.table.set_pending(doc_id, prop);
                Frame::err(e.to_string())
            }
        }
    }

    fn handle_close(&self, payload: &str) -> Frame {
        let Ok(doc_id) = payload.trim().parse::<u64>() else {
            return Frame::err(format!("bad document id {payload:?}"));
        };
        // a closed document starts a fresh identifier history on reopen —
        // same as a direct Engine::open on the committed document
        if self.table.close(doc_id) {
            Frame::ok("")
        } else {
            Frame::err(format!("unknown document {doc_id}"))
        }
    }

    fn handle_snapshot(&self, payload: &str) -> Frame {
        let path = payload.trim();
        if path.is_empty() {
            return Frame::err("snapshot expects a destination path");
        }
        let corpus = self.snapshot_corpus();
        let docs = corpus.len();
        let bytes = corpus.finish();
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
        let lease = match self.lease(doc_id) {
            Ok(lease) => lease,
            Err(resp) => return resp,
        };
        let alpha = lease.engine().alphabet();
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
        let lease = match self.lease(doc_id) {
            Ok(lease) => lease,
            Err(resp) => return resp,
        };
        let update = match self.parse_update(lease.engine().alphabet(), term) {
            Ok(u) => u,
            Err(m) => return Frame::err(m),
        };
        match lease.count_optimal(&update) {
            Ok(n) => Frame::ok(n.to_string()),
            Err(e) => Frame::err(e.to_string()),
        }
    }

    // ---- shared plumbing -------------------------------------------------

    /// Leases the document's session from the table, counting the
    /// eviction that made room for it and turning a table whose every
    /// session is leased into `retry` pushback.
    fn lease(&self, doc_id: u64) -> Result<Lease<'_, 'e>, Frame> {
        match self.table.lease(doc_id) {
            Ok((lease, evicted)) => {
                if evicted.is_some() {
                    self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
                }
                Ok(lease)
            }
            Err(LeaseError::Unknown) => Err(Frame::err(format!("unknown document {doc_id}"))),
            Err(LeaseError::Full) => {
                self.metrics.rejected_writes.fetch_add(1, Ordering::Relaxed);
                Err(Frame::retry(self.cfg.retry_after_ms))
            }
            Err(LeaseError::Open(e)) => Err(Frame::err(e.to_string())),
        }
    }

    /// Preloads the document table from a packed snapshot corpus — the
    /// cold-start path: no term/XML parsing, one bulk decode per
    /// document. Every document is checked against its family's alphabet
    /// (foreign labels are rejected, like the `load` verb) and DTD.
    /// Returns the number of documents loaded.
    pub fn preload_corpus(&self, corpus: &SnapshotFile) -> Result<usize, String> {
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
            self.table.load(entry.doc_id, family, tree);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Serializes the committed documents as a snapshot corpus image.
    ///
    /// Open sessions are parked first with eviction semantics — the entry
    /// keeps the committed document and identifier high-water mark — so
    /// the corpus captures exactly what a cold restart would serve, and
    /// reopening after the flush is observationally invisible (same
    /// guarantee as LRU eviction). A leased document is written once its
    /// lease returns. Documents are emitted sorted by id, so equal
    /// corpora produce byte-identical images.
    pub fn snapshot_store_bytes(&self) -> Vec<u8> {
        self.snapshot_corpus().finish()
    }

    /// Every committed document, pushed in id order.
    fn snapshot_corpus(&self) -> CorpusBuilder {
        let mut corpus = CorpusBuilder::new();
        self.table.park_all(|id, family, doc| {
            corpus
                .push(id, family as u32, doc, self.engines[family].alphabet())
                .expect("stored documents always encode");
        });
        corpus
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
