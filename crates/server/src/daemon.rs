//! The serving daemon: document table, write admission, and graceful
//! shutdown.
//!
//! A [`Server`] owns a corpus of documents (keyed by `u64` id, each
//! belonging to one compiled [`Engine`] family) in one document table —
//! committed document, pending propagation and open session of every
//! document under one lock, with at most `pool_capacity` sessions open.
//! Every connection gets its own thread, and every request runs to its
//! reply on the thread that read it:
//!
//! * **write verbs** (`load`/`open`/`propagate`/`commit`/`close`/
//!   `snapshot`) first pass the admission gate: at most `workers` of them
//!   execute at once and at most `queue_capacity` more wait for a slot,
//!   admitted in arrival order; the next write past that bound is pushed
//!   back with a `retry` frame;
//! * **read-only verbs** (`verify`/`count`) skip the gate, never waiting
//!   behind writes;
//! * `hello`/`stats` are answered at once; `shutdown` closes the gate,
//!   waits for every admitted and waiting write to finish, replies with
//!   the final stats snapshot, and stops the accept loop;
//! * `snapshot` parks every open session with eviction semantics and
//!   writes the committed corpus out as a flat snapshot file
//!   (`xvu_tree::snapshot`); the inverse is [`Server::preload_corpus`],
//!   the parse-free cold-start path.
//!
//! The accept loop blocks in `accept`, so a connection is taken on the
//! moment it arrives; a drain wakes it by connecting to the listener
//! once. At most [`MAX_CONNECTIONS`] connections are open at once: the
//! next one is answered `retry` and closed. A failed `accept` (say
//! `EMFILE` at the descriptor limit) is retried after a short backoff;
//! only a drain ends the loop. A connection's thread blocks in `read`
//! with no timeout, so an idle connection costs no wake-ups; a drain
//! shuts every open connection down for reading, and each thread sees
//! the end of its stream at once.
//!
//! Every request runs behind an unwind boundary. A request whose handler
//! panics is answered `err` and counted in `errors` and `panics`, and its
//! connection keeps serving. Its admission slot and lease come back on
//! unwind; if it had changed the document's session (a `commit`), the
//! session is dropped rather than trusted, and requests on that document
//! get an `err` asking for a reload until a `load` replaces it.
//!
//! Request latencies (including the admission wait for writes), the
//! number of writes waiting for admission, admission rejects, open and
//! refused connections, panics, pool evictions, and propagation-memo
//! counters are all observable via the `stats` verb
//! ([`crate::StatsSnapshot`]).
//!
//! ## Determinism across eviction
//!
//! A document is validated once, when `load` or [`Server::preload_corpus`]
//! parks it with its family's engine ([`xvu_propagate::Engine::park`]);
//! every commit keeps it valid, so no later step validates it again.
//! Evicting an idle session parks it ([`xvu_propagate::Session::park`])
//! and drops its memo: the interner, the memoised counts and typing runs,
//! and the intern-id map over its document ([`xvu_propagate::cache`]).
//! Eviction is one state change under the document table's lock: the
//! entry keeps the session's committed document **and** its
//! fresh-identifier high-water mark, and the next lease resumes from both
//! ([`xvu_propagate::Parked::resume`]), so replies are byte-identical
//! whether or not an eviction happened in between — the property the
//! fleet differential driver ([`crate::run_fleet`]) checks end to end.
//! The memo does **not** survive eviction: a resumed session interns its
//! document into a fresh memo and recounts what it needs, which changes
//! the work done, never a reply. The `stats` verb reports the memo's
//! counters summed over the server's families (`cache` object); its
//! `entries` are those of the sessions open right now. An explicit
//! `close` restarts the identifier floor instead
//! ([`xvu_propagate::Parked::restart_ids`]): a closed document starts a
//! fresh session history, exactly like a direct
//! [`xvu_propagate::Engine::open`].

use crate::metrics::{Metrics, StatsSnapshot};
use crate::pool::{DocTable, Lease, LeaseError};
use crate::protocol::{check_hello, write_frame, Frame, Recv, Verb, PROTOCOL_VERSION};
use crate::transport::{StreamTransport, Transport};
use std::any::Any;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use xvu_edit::{parse_script, script_to_term, Script};
use xvu_propagate::{count_optimal_propagations, CacheStats, Engine, PropagateError};
use xvu_tree::{
    parse_term_with_ids, to_term_with_ids, Alphabet, CorpusBuilder, DocTree, NodeIdGen,
    SnapshotFile,
};

/// Connections that may be open at once; the next one is answered
/// `retry` and closed.
pub const MAX_CONNECTIONS: usize = 256;

/// The pause after a failed `accept` before the loop tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a drain waits for admitted and waiting writes.
const DRAIN_WINDOW: Duration = Duration::from_secs(30);

/// How long a drain's wake-up connection may take to be established.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Daemon sizing and admission knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Write verbs that may execute at once, each on its connection's
    /// thread (at least 1).
    pub workers: usize,
    /// Writes that may wait for one of those slots; the next write past
    /// them is pushed back with `retry`.
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
    /// Whether every admitted and waiting write completed within the
    /// drain window.
    pub drained_clean: bool,
}

/// Write admission: at most `slots` writes run at once and at most
/// `queue` more wait, admitted in arrival order; the next is pushed back.
struct Gate {
    slots: usize,
    queue: usize,
    retry_after_ms: u64,
    state: Mutex<GateState>,
    /// Wakes the waiting writes and a drain.
    changed: Condvar,
}

/// Writes holding a slot, the tickets `admitted..issued` of the waiting
/// ones (oldest first), and whether a drain refuses new writes.
#[derive(Default)]
struct GateState {
    running: usize,
    issued: u64,
    admitted: u64,
    closed: bool,
}

impl GateState {
    fn waiting(&self) -> u64 {
        self.issued - self.admitted
    }
}

/// An admitted write's slot, given back on drop (also when the write
/// unwinds).
struct Slot<'g>(&'g Gate);

impl Gate {
    fn new(cfg: &ServerConfig) -> Gate {
        Gate {
            slots: cfg.workers.max(1),
            queue: cfg.queue_capacity,
            retry_after_ms: cfg.retry_after_ms,
            state: Mutex::default(),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        relock(self.state.lock())
    }

    /// Takes a slot, waiting behind earlier writes while none is free.
    /// A refusal comes back as the reply; `metrics` counts rejects and
    /// waiting writes.
    fn admit(&self, metrics: &Metrics) -> Result<Slot<'_>, Frame> {
        let mut s = self.lock();
        if s.closed {
            return Err(Frame::err("shutting down"));
        }
        if s.waiting() == 0 && s.running < self.slots {
            s.running += 1;
            return Ok(Slot(self));
        }
        if s.waiting() >= self.queue as u64 {
            metrics.rejected_writes.fetch_add(1, Ordering::Relaxed);
            return Err(Frame::retry(self.retry_after_ms));
        }
        let ticket = s.issued;
        s.issued += 1;
        metrics.observe_queue_depth(s.waiting());
        let turn = |s: &mut GateState| s.admitted != ticket || s.running >= self.slots;
        let mut s = relock(self.changed.wait_while(s, turn));
        s.admitted += 1;
        s.running += 1;
        metrics.observe_queue_depth(s.waiting());
        if s.waiting() > 0 {
            // the next waiter may find another free slot
            self.changed.notify_all();
        }
        Ok(Slot(self))
    }

    /// Refuses new writes, then waits (bounded) until none runs or
    /// waits; returns whether that happened within `window`.
    fn close(&self, window: Duration) -> bool {
        let mut s = self.lock();
        s.closed = true;
        let busy = |s: &mut GateState| s.running > 0 || s.waiting() > 0;
        s = relock(self.changed.wait_timeout_while(s, window, busy)).0;
        !busy(&mut s)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        s.running -= 1;
        let wake = s.waiting() > 0 || s.closed;
        drop(s);
        if wake {
            self.0.changed.notify_all();
        }
    }
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
    gate: Gate,
    stopped: AtomicBool,
    drained_clean: AtomicBool,
    /// What a drain must reach: the accept loop and every open
    /// connection.
    conns: Mutex<Conns>,
    /// The verb whose next request panics (test builds only).
    #[cfg(test)]
    fault: Mutex<Option<Verb>>,
}

/// What a drain must reach, under one lock: a drain sets `stopped`, then
/// takes the lock, so whoever reads `stopped` under it after publishing
/// here is either seen by the drain or sees the drain.
#[derive(Default)]
struct Conns {
    /// Where a drain connects to wake the blocked accept loop; set by
    /// [`Server::serve_listener`] before it first reads `stopped`.
    wake: Option<SocketAddr>,
    /// A handle on each open connection's stream, which a drain shuts
    /// down for reading.
    open: HashMap<u64, TcpStream>,
    /// The key of the next connection taken on.
    next: u64,
}

/// A live connection's place under [`MAX_CONNECTIONS`] and among the
/// streams a drain shuts down, given back when its thread ends (also when
/// it unwinds).
struct Live<'s> {
    conns: &'s Mutex<Conns>,
    metrics: &'s Metrics,
    key: u64,
}

impl Drop for Live<'_> {
    fn drop(&mut self) {
        relock(self.conns.lock()).open.remove(&self.key);
        self.metrics.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Where a drain connects to wake an accept loop on a listener bound to
/// `bound`: the same address, with an unspecified IP replaced by the
/// loopback address of its family.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// The message a panic carried, if it was a string.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "no message"
    }
}

fn relock<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A request handler's reply: `Err` holds the error or pushback reply
/// that cut the request short.
type Reply = Result<Frame, Frame>;

/// Parses a document id field.
fn doc_id(field: &str) -> Result<u64, Frame> {
    field
        .parse()
        .map_err(|_| Frame::err(format!("bad document id {field:?}")))
}

/// An error reply carrying `e`'s message.
fn error(e: impl std::fmt::Display) -> Frame {
    Frame::err(e.to_string())
}

/// Why [`Engine::park`] refused a document: it violates its family's DTD.
fn dtd_violation(e: PropagateError) -> String {
    match e {
        PropagateError::SourceNotValid(e) => format!("document violates the family DTD: {e}"),
        e => e.to_string(),
    }
}

impl<'e> Server<'e> {
    /// A daemon serving documents of the given families.
    pub fn new(engines: &'e [Engine], cfg: ServerConfig) -> Server<'e> {
        assert!(!engines.is_empty(), "a server needs at least one family");
        let gate = Gate::new(&cfg);
        let table = DocTable::new(cfg.pool_capacity.max(1));
        Server {
            engines,
            cfg: ServerConfig {
                workers: gate.slots,
                ..cfg
            },
            gate,
            table,
            metrics: Metrics::new(),
            stopped: AtomicBool::new(false),
            drained_clean: AtomicBool::new(true),
            conns: Mutex::default(),
            #[cfg(test)]
            fault: Mutex::new(None),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// A current metrics snapshot (what the `stats` verb returns).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        // Each session owns its memo and adds to its engine's counters:
        // the snapshot sums them over the server's families.
        let cache =
            self.engines
                .iter()
                .map(Engine::cache_stats)
                .fold(CacheStats::default(), |acc, s| CacheStats {
                    hits: acc.hits + s.hits,
                    misses: acc.misses + s.misses,
                    entries: acc.entries + s.entries,
                    sweeps: acc.sweeps + s.sweeps,
                });
        self.metrics
            .snapshot(cache, self.table.resident(), self.table.capacity())
    }

    /// Initiates shutdown from outside a connection (equivalent to the
    /// `shutdown` verb, minus the reply).
    pub fn request_shutdown(&self) {
        self.drain(DRAIN_WINDOW);
    }

    /// Whether the daemon has fully stopped accepting work.
    pub fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Serves TCP connections until the daemon is drained, by a
    /// `shutdown` request or [`Server::request_shutdown`]. Every
    /// connection gets its own thread, which runs each of its requests to
    /// the reply; write verbs first take an admission slot (at most
    /// `workers` at once).
    ///
    /// The loop blocks in `accept`, so a connection is taken on as soon
    /// as it arrives. The drain wakes it by connecting once to the
    /// listener's address (the loopback address of the same family if the
    /// listener is bound to an unspecified one); the loop drops that
    /// connection, and any other that arrives after the drain. Past
    /// [`MAX_CONNECTIONS`] open connections, a new one gets one `retry`
    /// frame and is closed. A failed `accept` is retried after a short
    /// backoff, the loop's only sleep. The drain also shuts every open
    /// connection down for reading, so an idle one ends at once. Returns
    /// once every connection's thread has ended.
    pub fn serve_listener(&self, listener: TcpListener) -> std::io::Result<ServerReport> {
        // published before the first read of `stopped`: a drain either
        // comes early enough for that read to see it, or finds the
        // address and wakes the `accept` below
        relock(self.conns.lock()).wake = Some(wake_address(listener.local_addr()?));
        std::thread::scope(|scope| {
            while !self.stopped() {
                match listener.accept() {
                    // the drain's wake-up, or a peer that came too late
                    Ok(_) if self.stopped() => break,
                    Ok((stream, _peer)) => {
                        if let Some((live, transport)) = self.take_on(stream, MAX_CONNECTIONS) {
                            scope.spawn(move || {
                                let _live = live;
                                self.conn_loop(transport);
                            });
                        }
                    }
                    Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                }
            }
        });
        Ok(self.final_report())
    }

    /// Serves one transport (the `--stdio` mode) until the peer sends
    /// `shutdown` or closes the stream; either way the daemon is drained
    /// before returning.
    pub fn serve_transport<T: Transport>(&self, transport: T) -> ServerReport {
        self.conn_loop(transport);
        self.drain(DRAIN_WINDOW);
        self.final_report()
    }

    /// Takes an accepted connection on while fewer than `cap` are open,
    /// returning its transport and its place under the cap; past the cap
    /// the peer gets one `retry` frame and the connection is closed. A
    /// connection that arrives once a drain has begun is closed.
    fn take_on(
        &self,
        stream: TcpStream,
        cap: usize,
    ) -> Option<(Live<'_>, StreamTransport<TcpStream>)> {
        let mut conns = relock(self.conns.lock());
        if conns.open.len() >= cap {
            drop(conns);
            self.metrics
                .refused_connections
                .fetch_add(1, Ordering::Relaxed);
            let _ = write_frame(&mut &stream, &Frame::retry(self.cfg.retry_after_ms));
            return None;
        }
        // read under the lock: a drain that began earlier is seen here,
        // one that begins later finds this stream in `open`
        if self.stopped() {
            return None;
        }
        let handle = stream.try_clone().ok()?;
        let key = conns.next;
        conns.next += 1;
        conns.open.insert(key, handle);
        self.metrics.connections.fetch_add(1, Ordering::Relaxed);
        drop(conns);
        let _ = stream.set_nodelay(true);
        let live = Live {
            conns: &self.conns,
            metrics: &self.metrics,
            key,
        };
        Some((live, StreamTransport::new(stream)))
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
                Ok(Recv::Eof) => break,
                Ok(Recv::Frame(req)) => {
                    let resp = catch_unwind(AssertUnwindSafe(|| self.dispatch(req)))
                        .unwrap_or_else(|panic| {
                            self.metrics.count_panic();
                            self.metrics.count_error();
                            Frame::err(format!(
                                "internal error: the request panicked: {}",
                                panic_message(&*panic)
                            ))
                        });
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
        let start = Instant::now();
        let resp = match req.verb {
            Verb::Hello => match check_hello(&req.payload) {
                Ok(()) => Frame::ok(format!("xvu {PROTOCOL_VERSION}")),
                Err(e) => Frame::err(e.to_string()),
            },
            Verb::Stats => Frame::ok(self.stats_snapshot().to_json()),
            Verb::Verify | Verb::Count if self.gate.lock().closed => Frame::err("shutting down"),
            Verb::Verify | Verb::Count => {
                let reply = if req.verb == Verb::Verify {
                    self.handle_verify(&req.payload)
                } else {
                    self.handle_count(&req.payload)
                };
                self.metrics.read_latency.record(start.elapsed());
                reply.unwrap_or_else(|refusal| refusal)
            }
            // a write runs here, on its connection's thread, holding its
            // slot until the reply is ready
            verb if verb.is_write() => match self.gate.admit(&self.metrics) {
                Ok(_slot) => {
                    let resp = self.handle_write(verb, &req.payload);
                    self.metrics.write_latency.record(start.elapsed());
                    resp
                }
                Err(refusal) => refusal,
            },
            Verb::Shutdown => {
                self.drain(DRAIN_WINDOW);
                Frame::ok(self.stats_snapshot().to_json())
            }
            _ => Frame::err("not a request verb"),
        };
        if resp.verb == Verb::Err {
            self.metrics.count_error();
        }
        resp
    }

    /// Closes the gate and waits (bounded) for admitted and waiting writes
    /// to finish; then shuts every open connection down for reading and
    /// stops the accept loop, waking it if it is blocked in `accept`.
    fn drain(&self, window: Duration) {
        if !self.gate.close(window) {
            self.drained_clean.store(false, Ordering::Release);
        }
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        // `stopped` is set before the lock is taken; the loop publishes
        // `wake`, and `take_on` a connection, before reading `stopped`
        // under it
        let wake = {
            let conns = relock(self.conns.lock());
            for stream in conns.open.values() {
                // its thread reads the end of the stream and ends; a
                // reply in progress still goes out
                let _ = stream.shutdown(Shutdown::Read);
            }
            conns.wake
        };
        if let Some(addr) = wake {
            // the loop drops this connection once it sees `stopped`
            let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        }
    }

    /// Panics if a test armed a fault for `verb`.
    #[cfg(test)]
    fn fault_point(&self, verb: Verb) {
        let mut armed = relock(self.fault.lock());
        if *armed == Some(verb) {
            *armed = None;
            drop(armed);
            panic!("fault injected into {}", verb.name());
        }
    }

    /// Where a test build may inject a panic: nothing outside tests.
    #[cfg(not(test))]
    fn fault_point(&self, _verb: Verb) {}

    pub(crate) fn handle_write(&self, verb: Verb, payload: &str) -> Frame {
        let reply = match verb {
            Verb::Load => self.handle_load(payload),
            Verb::Open => self.handle_open(payload),
            Verb::Propagate => self.handle_propagate(payload),
            Verb::Commit => self.handle_commit(payload),
            Verb::CloseDoc => self.handle_close(payload),
            Verb::Snapshot => self.handle_snapshot(payload),
            other => Err(Frame::err(format!("{} is not a write verb", other.name()))),
        };
        reply.unwrap_or_else(|refusal| refusal)
    }

    // ---- request handlers -----------------------------------------------

    fn handle_load(&self, payload: &str) -> Reply {
        let mut fields = payload.splitn(3, '\n');
        let (Some(id), Some(family), Some(term)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(Frame::err("load expects doc_id\\nfamily\\nterm"));
        };
        let doc_id = doc_id(id)?;
        let Ok(family) = family.parse::<usize>() else {
            return Err(Frame::err(format!("bad family index {family:?}")));
        };
        let Some(engine) = self.engines.get(family) else {
            return Err(Frame::err(format!(
                "family {family} out of range (server has {})",
                self.engines.len()
            )));
        };
        let tree = self.parse_doc(engine.alphabet(), term)?;
        let parked = engine
            .park(tree)
            .map_err(|e| Frame::err(dtd_violation(e)))?;
        self.fault_point(Verb::Load);
        // replacing a document discards its session and pending
        // propagation, once any lease on it has returned
        self.table.load(doc_id, family, parked);
        Ok(Frame::ok(""))
    }

    fn handle_open(&self, payload: &str) -> Reply {
        let lease = self.lease(doc_id(payload.trim())?)?;
        self.fault_point(Verb::Open);
        Ok(Frame::ok(to_term_with_ids(
            lease.view(),
            lease.engine().alphabet(),
        )))
    }

    fn handle_propagate(&self, payload: &str) -> Reply {
        let Some((id, term)) = payload.split_once('\n') else {
            return Err(Frame::err("propagate expects doc_id\\nupdate-term"));
        };
        let doc_id = doc_id(id)?;
        let lease = self.lease(doc_id)?;
        let alpha = lease.engine().alphabet();
        let update = self.parse_update(alpha, term)?;
        let prop = lease.propagate(&update).map_err(error)?;
        self.fault_point(Verb::Propagate);
        let Some(count) = count_optimal_propagations(&prop.forest) else {
            return Err(Frame::err("optimal count overflows u128"));
        };
        let script = script_to_term(&prop.script, alpha);
        let reply = format!("{}\n{}\n{}", prop.cost, count, script);
        self.table.set_pending(doc_id, prop);
        Ok(Frame::ok(reply))
    }

    fn handle_commit(&self, payload: &str) -> Reply {
        let doc_id = doc_id(payload.trim())?;
        let Some(prop) = self.table.take_pending(doc_id) else {
            return Err(Frame::err(format!(
                "document {doc_id} has no pending propagation"
            )));
        };
        // a pushback (e.g. every session leased) or a failed commit leaves
        // the propagation pending, so the client may retry; a failed
        // commit restores it before its lease returns
        let mut lease = match self.lease(doc_id) {
            Ok(lease) => lease,
            Err(resp) => {
                self.table.set_pending(doc_id, prop);
                return Err(resp);
            }
        };
        if let Err(e) = lease.commit(&prop) {
            self.table.set_pending(doc_id, prop);
            return Err(error(e));
        }
        // a panic here, with the commit applied, loses the session
        self.fault_point(Verb::Commit);
        Ok(Frame::ok(""))
    }

    fn handle_close(&self, payload: &str) -> Reply {
        let doc_id = doc_id(payload.trim())?;
        self.fault_point(Verb::CloseDoc);
        // a closed document starts a fresh identifier history on reopen —
        // same as a direct Engine::open on the committed document
        if !self.table.close(doc_id) {
            return Err(Frame::err(format!("unknown document {doc_id}")));
        }
        Ok(Frame::ok(""))
    }

    fn handle_snapshot(&self, payload: &str) -> Reply {
        let path = payload.trim();
        if path.is_empty() {
            return Err(Frame::err("snapshot expects a destination path"));
        }
        self.fault_point(Verb::Snapshot);
        let corpus = self.snapshot_corpus();
        let docs = corpus.len();
        let bytes = corpus.finish();
        std::fs::write(path, &bytes)
            .map_err(|e| Frame::err(format!("cannot write snapshot {path:?}: {e}")))?;
        Ok(Frame::ok(format!("docs={docs} bytes={}", bytes.len())))
    }

    fn handle_verify(&self, payload: &str) -> Reply {
        let mut fields = payload.splitn(3, '\n');
        let (Some(id), Some(update), Some(candidate)) =
            (fields.next(), fields.next(), fields.next())
        else {
            return Err(Frame::err("verify expects doc_id\\nupdate\\ncandidate"));
        };
        let lease = self.lease(doc_id(id)?)?;
        let alpha = lease.engine().alphabet();
        let update = self.parse_update(alpha, update)?;
        let candidate = self.parse_update(alpha, candidate)?;
        lease.verify(&update, &candidate).map_err(error)?;
        Ok(Frame::ok(""))
    }

    fn handle_count(&self, payload: &str) -> Reply {
        let Some((id, term)) = payload.split_once('\n') else {
            return Err(Frame::err("count expects doc_id\\nupdate-term"));
        };
        let lease = self.lease(doc_id(id)?)?;
        let update = self.parse_update(lease.engine().alphabet(), term)?;
        self.fault_point(Verb::Count);
        let n = lease.count_optimal(&update).map_err(error)?;
        Ok(Frame::ok(n.to_string()))
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
            Err(LeaseError::Lost) => Err(Frame::err(format!(
                "document {doc_id} was lost when a request on it panicked; load it again"
            ))),
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
            let parked = self.engines[family]
                .park(tree)
                .map_err(|e| format!("doc {}: {}", entry.doc_id, dtd_violation(e)))?;
            self.table.load(entry.doc_id, family, parked);
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
    fn parse_update(&self, alpha: &Alphabet, term: &str) -> Result<Script, Frame> {
        let mut scratch = alpha.clone();
        let script = parse_script(&mut scratch, term)
            .map_err(|e| Frame::err(format!("bad script term: {e}")))?;
        if scratch.len() != alpha.len() {
            return Err(Frame::err("script uses labels outside the family alphabet"));
        }
        Ok(script)
    }

    /// Parses a document term (identifiers come from the wire), rejecting
    /// unknown labels.
    fn parse_doc(&self, alpha: &Alphabet, term: &str) -> Result<DocTree, Frame> {
        let mut scratch = alpha.clone();
        let mut gen = NodeIdGen::new();
        let tree = parse_term_with_ids(&mut scratch, &mut gen, term)
            .map_err(|e| Frame::err(format!("bad document term: {e}")))?;
        if scratch.len() != alpha.len() {
            return Err(Frame::err(
                "document uses labels outside the family alphabet",
            ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use crate::pool::tests::{engine_and_doc, hidden_h_engine};
    use std::panic::resume_unwind;

    /// Reads one counter out of a `stats` reply (`key` may be nested,
    /// e.g. `"open"` inside `requests`: keys are unique).
    fn stat(json: &str, key: &str) -> u64 {
        let at = json.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let end = json[at..].find([',', '}']).map_or(json.len(), |n| at + n);
        json[at..end].parse().expect("a counter")
    }

    /// Polls `stats` until `done` holds, failing after 10 s.
    fn poll_stats(ctl: &mut Client<StreamTransport<TcpStream>>, done: impl Fn(&str) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let json = ctl.stats().unwrap();
            if done(&json) {
                return;
            }
            assert!(Instant::now() < deadline, "stats never got there: {json}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Serves `server` on a loopback listener while `client` runs with its
    /// address, and returns the daemon's report. A panicking client stops
    /// the daemon before its panic is raised again.
    fn serve_while(server: &Server<'_>, client: impl FnOnce(&str)) -> ServerReport {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| server.serve_listener(listener).unwrap());
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| client(&addr))) {
                server.request_shutdown();
                let _ = daemon.join();
                resume_unwind(panic);
            }
            daemon.join().unwrap()
        })
    }

    /// Sends one request and waits for its reply.
    fn ask(t: &mut StreamTransport<TcpStream>, verb: Verb, payload: &str) -> Frame {
        t.send(&Frame::new(verb, payload)).unwrap();
        match t.recv().unwrap() {
            Recv::Frame(reply) => reply,
            Recv::Eof => panic!("the daemon closed the connection"),
        }
    }

    #[test]
    fn writes_past_the_admission_bound_get_retry() {
        // Document 1's lease is held here, so every write on it blocks in
        // `lease`: the first `workers` hold their slots, the next
        // `queue_capacity` wait for one, and the write after them is
        // pushed back.
        let (engine, t, _) = engine_and_doc();
        let engines = [engine];
        let (workers, queue) = (2, 3);
        let server = Server::new(
            &engines,
            ServerConfig {
                workers,
                queue_capacity: queue,
                pool_capacity: 4,
                retry_after_ms: 1,
            },
        );
        server.table.load(1, 0, engines[0].park(t).unwrap());
        let view = server.handle_write(Verb::Open, "1").payload;
        let report = serve_while(&server, |addr| {
            std::thread::scope(|scope| {
                let (lease, _) = server.table.lease(1).unwrap();
                let mut ctl = Client::connect(addr).unwrap();
                let mut writers = Vec::new();
                for k in 1..=(workers + queue) as u64 {
                    writers.push(scope.spawn(move || Client::connect(addr).unwrap().open(1)));
                    // one write at a time, so each arrives after the last
                    // has been admitted or started waiting
                    let waiting = k.saturating_sub(workers as u64);
                    poll_stats(&mut ctl, |json| {
                        stat(json, "open") == k && stat(json, "queue_depth") == waiting
                    });
                }
                // every slot and waiting place is taken: one write more is
                // pushed back, not queued
                let mut raw = StreamTransport::new(TcpStream::connect(addr).unwrap());
                assert_eq!(ask(&mut raw, Verb::Open, "1"), Frame::retry(1));
                let json = ctl.stats().unwrap();
                assert_eq!(stat(&json, "rejected_writes"), 1, "{json}");
                assert_eq!(stat(&json, "queue_max"), queue as u64, "{json}");
                // the lease returns: every admitted write completes
                drop(lease);
                for w in writers {
                    assert_eq!(w.join().unwrap().unwrap(), view);
                }
                ctl.shutdown().unwrap();
            });
        });
        assert!(report.drained_clean);
        assert_eq!(report.stats.rejected_writes, 1);
        assert_eq!(report.stats.queue_depth, 0);
        assert_eq!(report.stats.write_latency.count(), (workers + queue) as u64);
    }

    #[test]
    fn the_gate_admits_waiting_writes_in_arrival_order() {
        let metrics = Metrics::new();
        let gate = Gate::new(&ServerConfig {
            workers: 1,
            queue_capacity: 5,
            ..ServerConfig::default()
        });
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let held = gate.admit(&metrics).expect("a free slot");
            for i in 0..5u64 {
                let (gate, metrics, order) = (&gate, &metrics, &order);
                scope.spawn(move || {
                    let _slot = gate.admit(metrics).expect("a place to wait");
                    order.lock().unwrap().push(i);
                });
                // the next write arrives only once this one waits
                while gate.lock().waiting() <= i {
                    std::thread::yield_now();
                }
            }
            assert_eq!(metrics.queue_max.load(Ordering::Relaxed), 5);
            assert_eq!(gate.admit(&metrics).err(), Some(Frame::retry(2)));
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4]);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
        assert!(gate.close(Duration::ZERO), "every slot came back");
    }

    #[test]
    fn a_panicking_write_returns_its_slot() {
        // one slot and no waiting room: a leaked slot would refuse the
        // next write at once
        let metrics = Metrics::new();
        let gate = Gate::new(&ServerConfig {
            workers: 1,
            queue_capacity: 0,
            ..ServerConfig::default()
        });
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let _slot = gate.admit(&metrics).expect("a free slot");
            panic!("the write fails");
        }));
        assert!(panicked.is_err());
        let slot = gate.admit(&metrics).expect("the slot came back");
        assert_eq!(gate.admit(&metrics).err(), Some(Frame::retry(2)));
        drop(slot);
        assert!(gate.close(Duration::ZERO));
        assert_eq!(
            gate.admit(&metrics).err(),
            Some(Frame::err("shutting down"))
        );
    }

    #[test]
    fn a_load_that_violates_the_dtd_leaves_the_id_unknown() {
        // `load` parks the document with its family's engine, which
        // validates it: a refused document never enters the table, and a
        // later valid `load` of the same id serves.
        let engines = [hidden_h_engine()];
        let server = Server::new(&engines, ServerConfig::default());
        let reply = server.handle_write(Verb::Load, "9\n0\nr#0(h#1)");
        assert_eq!(reply.verb, Verb::Err, "{reply:?}");
        assert!(
            reply
                .payload
                .starts_with("document violates the family DTD: "),
            "{reply:?}"
        );
        assert_eq!(
            server.handle_write(Verb::Open, "9"),
            Frame::err("unknown document 9")
        );
        assert_eq!(
            server.handle_write(Verb::Load, "9\n0\nr#0(a#1, h#2)"),
            Frame::ok("")
        );
        assert_eq!(server.handle_write(Verb::Open, "9"), Frame::ok("r#0(a#1)"));
    }

    #[test]
    fn connections_past_the_cap_get_retry_and_are_closed() {
        let engines = [hidden_h_engine()];
        let server = Server::new(
            &engines,
            ServerConfig {
                retry_after_ms: 7,
                ..ServerConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let connect = || {
            let peer = TcpStream::connect(addr).unwrap();
            (peer, listener.accept().unwrap().0)
        };
        let (_peer, accepted) = connect();
        let first = server.take_on(accepted, 1).expect("room for one");
        let (peer, accepted) = connect();
        assert!(server.take_on(accepted, 1).is_none(), "the cap is reached");
        // the refused peer reads one `retry` frame, then the close
        let mut refused = StreamTransport::new(peer);
        assert!(matches!(refused.recv().unwrap(), Recv::Frame(f) if f == Frame::retry(7)));
        assert!(matches!(refused.recv().unwrap(), Recv::Eof));
        let stats = server.stats_snapshot();
        assert_eq!((stats.connections, stats.refused_connections), (1, 1));
        // the first connection's place comes back when its thread ends
        drop(first);
        assert_eq!(server.stats_snapshot().connections, 0);
        let (_peer, accepted) = connect();
        let again = server.take_on(accepted, 1);
        assert!(again.is_some(), "the place came back");
        assert_eq!(server.stats_snapshot().refused_connections, 1);
    }

    #[test]
    fn a_drain_ends_idle_connections_at_once() {
        // Four idle clients, and connections have no read timeout: only
        // the drain's shutdown of each stream ends their threads, so
        // without it `serve_listener` would never return. A 5 s watchdog
        // turns that hang into a failure.
        let engines = [hidden_h_engine()];
        let server = Server::new(&engines, ServerConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| {
                let report = server.serve_listener(listener).unwrap();
                done.send(()).unwrap();
                report
            });
            let clients: Vec<_> = (0..4).map(|_| Client::connect(&addr).unwrap()).collect();
            assert_eq!(server.stats_snapshot().connections, 4);
            server.request_shutdown();
            let returned = finished.recv_timeout(Duration::from_secs(5));
            // closing the clients ends their connections if the drain did
            // not, so a failure does not hang the test
            drop(clients);
            let report = daemon.join().unwrap();
            assert!(returned.is_ok(), "serve_listener waited on idle clients");
            assert!(report.drained_clean);
            assert_eq!(report.stats.connections, 0);
        });
    }

    #[test]
    fn a_client_absorbs_the_connection_caps_retry() {
        let engines = [hidden_h_engine()];
        let server = Server::new(
            &engines,
            ServerConfig {
                retry_after_ms: 1,
                ..ServerConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // `handshake` cannot reconnect: refused at a cap of 0, it reports
        // `Saturated`
        let peer = TcpStream::connect(&addr).unwrap();
        assert!(server.take_on(listener.accept().unwrap().0, 0).is_none());
        let refused = Client::handshake(StreamTransport::new(peer));
        assert_eq!(refused.unwrap_err(), ClientError::Saturated);
        // `connect` is refused at a cap of 0, connects again after the
        // backoff, and is served at a cap of 1
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| {
                assert!(server.take_on(listener.accept().unwrap().0, 0).is_none());
                let (accepted, _) = listener.accept().unwrap();
                let (_live, transport) = server.take_on(accepted, 1).expect("room for one");
                server.conn_loop(transport);
            });
            let mut client = Client::connect(&addr).unwrap();
            assert_eq!(client.retries(), 1);
            assert!(client.stats().is_ok());
            drop(client);
            daemon.join().unwrap();
        });
        assert_eq!(server.stats_snapshot().refused_connections, 2);
    }

    /// Arms a fault in `verb` and sends `verb payload` over TCP. Checks
    /// that the reply is an `err` naming the panic, that `stats` counts
    /// it in `panics` and `errors`, that document 2 is still served on
    /// the same connection, and that document 1 is served again — after a
    /// reload if the panic `lost` its session — and that the drain is
    /// clean.
    fn a_panic_in(verb: Verb, payload: &str, lost: bool) {
        let engines = [hidden_h_engine()];
        let server = Server::new(&engines, ServerConfig::default());
        let load = |doc: u64| format!("{doc}\n0\nr#0(a#1, h#2)");
        for doc in [1, 2] {
            assert_eq!(server.handle_write(Verb::Load, &load(doc)), Frame::ok(""));
        }
        // document 1 has a propagation pending, for `commit`
        let insert = |doc: u64| format!("{doc}\nnop:r#0(nop:a#1, ins:a#9)");
        assert_eq!(
            server.handle_write(Verb::Propagate, &insert(1)).verb,
            Verb::Ok
        );
        *server.fault.lock().unwrap() = Some(verb);
        let report = serve_while(&server, |addr| {
            let mut c = StreamTransport::new(TcpStream::connect(addr).unwrap());
            let reply = ask(&mut c, verb, payload);
            assert_eq!(reply.verb, Verb::Err, "{reply:?}");
            let injected = format!("panicked: fault injected into {}", verb.name());
            assert!(reply.payload.ends_with(&injected), "{reply:?}");
            let json = ask(&mut c, Verb::Stats, "").payload;
            assert_eq!(stat(&json, "panics"), 1, "{json}");
            assert_eq!(stat(&json, "errors"), 1, "{json}");
            assert_eq!(stat(&json, "connections"), 1, "{json}");
            // the connection keeps serving another document
            assert_eq!(ask(&mut c, Verb::Open, "2"), Frame::ok("r#0(a#1)"));
            assert_eq!(ask(&mut c, Verb::Propagate, &insert(2)).verb, Verb::Ok);
            assert_eq!(ask(&mut c, Verb::Commit, "2"), Frame::ok(""));
            assert_eq!(ask(&mut c, Verb::Open, "2"), Frame::ok("r#0(a#1, a#9)"));
            if lost {
                let reply = ask(&mut c, Verb::Open, "1");
                assert_eq!(reply.verb, Verb::Err);
                assert!(reply.payload.contains("load it again"), "{reply:?}");
                assert_eq!(ask(&mut c, Verb::Load, &load(1)), Frame::ok(""));
            }
            assert_eq!(ask(&mut c, Verb::Open, "1").verb, Verb::Ok);
            assert_eq!(ask(&mut c, Verb::Shutdown, "").verb, Verb::Ok);
        });
        assert!(report.drained_clean);
        assert_eq!(report.stats.panics, 1);
        assert_eq!(report.stats.errors, 1 + u64::from(lost));
    }

    #[test]
    fn a_panic_in_load_is_answered_err() {
        a_panic_in(Verb::Load, "3\n0\nr#0(a#1)", false);
    }

    #[test]
    fn a_panic_in_open_is_answered_err() {
        a_panic_in(Verb::Open, "1", false);
    }

    #[test]
    fn a_panic_in_propagate_keeps_the_session() {
        a_panic_in(Verb::Propagate, "1\nnop:r#0(nop:a#1)", false);
    }

    #[test]
    fn a_panic_in_commit_loses_the_session_until_a_reload() {
        a_panic_in(Verb::Commit, "1", true);
    }

    #[test]
    fn a_panic_in_close_is_answered_err() {
        a_panic_in(Verb::CloseDoc, "1", false);
    }

    #[test]
    fn a_panic_in_snapshot_is_answered_err() {
        // the fault comes before the file is written
        a_panic_in(Verb::Snapshot, "never-written.xvus", false);
    }

    #[test]
    fn a_panic_in_count_keeps_the_session() {
        a_panic_in(Verb::Count, "1\nnop:r#0(nop:a#1)", false);
    }
}
