//! The fleet differential driver: replay a generated [`FleetPlan`]
//! against an in-process daemon and check every reply against the
//! fingerprints the generator recorded from direct [`xvu_propagate`]
//! sessions.
//!
//! This is the end-to-end determinism oracle for the serving stack: the
//! daemon (framing, write admission, LRU eviction, write-back,
//! identifier-floor restoration) must be observationally identical to a
//! long-lived in-process session per document. Any divergence surfaces
//! as a [`FleetReport::mismatches`] entry naming the op.

use crate::client::Client;
use crate::daemon::{Server, ServerConfig};
use crate::metrics::StatsSnapshot;
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use xvu_edit::script_to_term;
use xvu_propagate::Engine;
use xvu_tree::{to_term_with_ids, SnapshotFile};
use xvu_workload::fleet::{FleetOpKind, FleetPlan};

/// The outcome of one [`run_fleet`] replay.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Requests issued (everything except client think time).
    pub requests: u64,
    /// Committed edits in the plan.
    pub updates: usize,
    /// `retry` pushbacks absorbed across all clients.
    pub retries: u64,
    /// Fingerprint divergences (empty on a correct daemon).
    pub mismatches: Vec<String>,
    /// Transport/framing/server errors (0 on a correct daemon).
    pub protocol_errors: u64,
    /// Wall-clock time for the whole replay.
    pub wall: Duration,
    /// The daemon's final stats snapshot.
    pub stats: StatsSnapshot,
    /// Whether the daemon drained every admitted and waiting write on
    /// shutdown.
    pub drained_clean: bool,
}

impl FleetReport {
    /// No mismatches, no protocol errors, clean drain.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty() && self.protocol_errors == 0 && self.drained_clean
    }
}

#[derive(Default)]
struct ClientOutcome {
    requests: u64,
    retries: u64,
    protocol_errors: u64,
    mismatches: Vec<String>,
}

/// How the daemon's corpus is installed before the replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorpusMode {
    /// A loader client uploads every document with `load` verbs (term
    /// syntax over the wire) once the daemon is accepting connections.
    TermLoad,
    /// The store is preloaded from packed snapshot bytes
    /// ([`FleetPlan::corpus_snapshot_bytes`]) before the daemon starts
    /// serving — the near-zero cold-start path. No `load` requests are
    /// issued.
    Snapshot,
}

/// Replays `plan` against a fresh in-process daemon (TCP on an ephemeral
/// loopback port, one connection per fleet client) and diffs every reply
/// against the plan's recorded fingerprints.
pub fn run_fleet(plan: &FleetPlan, cfg: ServerConfig) -> std::io::Result<FleetReport> {
    run_fleet_with(plan, cfg, CorpusMode::TermLoad)
}

/// [`run_fleet`] with the corpus preloaded from packed snapshot bytes
/// instead of term `load` verbs. A correct daemon replies byte-identically
/// in both modes; `tests/serving.rs` holds the differential.
pub fn run_fleet_from_corpus(plan: &FleetPlan, cfg: ServerConfig) -> std::io::Result<FleetReport> {
    run_fleet_with(plan, cfg, CorpusMode::Snapshot)
}

/// Replays `plan` with the chosen corpus-installation mode.
pub fn run_fleet_with(
    plan: &FleetPlan,
    cfg: ServerConfig,
    mode: CorpusMode,
) -> std::io::Result<FleetReport> {
    let engines: Vec<Engine> = plan.families.iter().map(|f| f.engine()).collect();
    let server = Server::new(&engines, cfg);
    if mode == CorpusMode::Snapshot {
        let corpus = SnapshotFile::from_bytes(plan.corpus_snapshot_bytes())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        server
            .preload_corpus(&corpus)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let family_of: HashMap<u64, usize> = plan.docs.iter().map(|d| (d.id, d.family)).collect();
    let clients = plan.ops.iter().map(|op| op.client + 1).max().unwrap_or(0);
    let first_ops_done = Barrier::new(clients);
    let start = Instant::now();

    let mut outcomes: Vec<ClientOutcome> = Vec::new();
    let mut server_report = None;
    std::thread::scope(|scope| {
        let server_handle = scope.spawn(|| server.serve_listener(listener));

        // corpus upload (unless preloaded), then the per-client replay
        // threads
        let mut load_outcome = ClientOutcome::default();
        if mode == CorpusMode::TermLoad {
            match Client::connect(&addr) {
                Ok(mut loader) => {
                    for fd in &plan.docs {
                        let alpha = &plan.families[fd.family].alpha;
                        let term = to_term_with_ids(&fd.doc, alpha);
                        load_outcome.requests += 1;
                        if let Err(e) = loader.load(fd.id, fd.family, &term) {
                            load_outcome.protocol_errors += 1;
                            load_outcome
                                .mismatches
                                .push(format!("load doc {}: {e}", fd.id));
                        }
                    }
                    load_outcome.retries = loader.retries();
                }
                Err(e) => {
                    load_outcome.protocol_errors += 1;
                    load_outcome.mismatches.push(format!("loader connect: {e}"));
                }
            }
        }
        let loaded_clean = load_outcome.protocol_errors == 0;
        outcomes.push(load_outcome);

        if loaded_clean {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (addr, family_of) = (&addr, &family_of);
                    let first_ops_done = &first_ops_done;
                    scope.spawn(move || run_client(plan, family_of, addr, c, first_ops_done))
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(_) => outcomes.push(ClientOutcome {
                        protocol_errors: 1,
                        mismatches: vec!["client thread panicked".to_owned()],
                        ..ClientOutcome::default()
                    }),
                }
            }
        }

        // orderly shutdown: drain, then collect the server-side report
        match Client::connect(&addr) {
            Ok(mut ctl) => {
                if ctl.shutdown().is_err() {
                    server.request_shutdown();
                }
            }
            Err(_) => server.request_shutdown(),
        }
        server_report = Some(server_handle.join().expect("server thread panicked"));
    });

    let server_report = server_report.expect("server report missing")?;
    let mut report = FleetReport {
        requests: 0,
        updates: plan.updates,
        retries: 0,
        mismatches: Vec::new(),
        protocol_errors: 0,
        wall: start.elapsed(),
        stats: server_report.stats,
        drained_clean: server_report.drained_clean,
    };
    for o in outcomes {
        report.requests += o.requests;
        report.retries += o.retries;
        report.protocol_errors += o.protocol_errors;
        report.mismatches.extend(o.mismatches);
    }
    Ok(report)
}

/// A client's place at the barrier every client reaches once its first
/// operation is done: the clients' first documents are then open at the
/// same time, so a pool smaller than the client count evicts on every
/// replay instead of only when thread scheduling overlaps the clients.
/// Dropping it arrives too, so a client that returns or panics early
/// never leaves the others waiting.
struct FirstOpDone<'b>(Option<&'b Barrier>);

impl FirstOpDone<'_> {
    fn arrive(&mut self) {
        if let Some(barrier) = self.0.take() {
            barrier.wait();
        }
    }
}

impl Drop for FirstOpDone<'_> {
    fn drop(&mut self) {
        self.arrive();
    }
}

/// Replays one fleet client's operation stream over its own connection.
fn run_client(
    plan: &FleetPlan,
    family_of: &HashMap<u64, usize>,
    addr: &str,
    client_idx: usize,
    first_ops_done: &Barrier,
) -> ClientOutcome {
    let mut first_op = FirstOpDone(Some(first_ops_done));
    let mut out = ClientOutcome::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.protocol_errors += 1;
            out.mismatches
                .push(format!("client {client_idx} connect: {e}"));
            return out;
        }
    };
    for (i, op) in plan.client_ops(client_idx).enumerate() {
        if i == 1 {
            first_op.arrive();
        }
        let alpha = &plan.families[family_of[&op.doc]].alpha;
        let tag = format!("client {client_idx} op {i} doc {}", op.doc);
        let fail = |out: &mut ClientOutcome, what: String| {
            out.protocol_errors += 1;
            out.mismatches.push(format!("{tag}: {what}"));
        };
        match &op.kind {
            FleetOpKind::Idle(ticks) => {
                // think time; clamped so large gaps don't slow the replay
                std::thread::sleep(Duration::from_millis((*ticks).clamp(1, 3)));
                continue;
            }
            FleetOpKind::Open => {
                out.requests += 1;
                match client.open(op.doc) {
                    Ok(view) => {
                        if Some(&view) != op.expect.view.as_ref() {
                            out.mismatches.push(format!(
                                "{tag}: open view diverged: got {view:?}, want {:?}",
                                op.expect.view
                            ));
                        }
                    }
                    Err(e) => fail(&mut out, format!("open: {e}")),
                }
            }
            FleetOpKind::Propagate(update) => {
                out.requests += 1;
                match client.propagate(op.doc, &script_to_term(update, alpha)) {
                    Ok(reply) => {
                        if Some(reply.cost) != op.expect.cost
                            || Some(reply.count) != op.expect.count
                            || Some(&reply.script) != op.expect.script.as_ref()
                        {
                            out.mismatches.push(format!(
                                "{tag}: propagate diverged: got ({}, {}, {:?}), want ({:?}, {:?}, {:?})",
                                reply.cost,
                                reply.count,
                                reply.script,
                                op.expect.cost,
                                op.expect.count,
                                op.expect.script
                            ));
                        }
                    }
                    Err(e) => fail(&mut out, format!("propagate: {e}")),
                }
            }
            FleetOpKind::Verify { update, candidate } => {
                out.requests += 1;
                if let Err(e) = client.verify(
                    op.doc,
                    &script_to_term(update, alpha),
                    &script_to_term(candidate, alpha),
                ) {
                    fail(&mut out, format!("verify: {e}"));
                }
            }
            FleetOpKind::Count(update) => {
                out.requests += 1;
                match client.count(op.doc, &script_to_term(update, alpha)) {
                    Ok(n) => {
                        if Some(n) != op.expect.count {
                            out.mismatches.push(format!(
                                "{tag}: count diverged: got {n}, want {:?}",
                                op.expect.count
                            ));
                        }
                    }
                    Err(e) => fail(&mut out, format!("count: {e}")),
                }
            }
            FleetOpKind::Commit => {
                out.requests += 1;
                if let Err(e) = client.commit(op.doc) {
                    fail(&mut out, format!("commit: {e}"));
                }
            }
            FleetOpKind::Close => {
                out.requests += 1;
                if let Err(e) = client.close_doc(op.doc) {
                    fail(&mut out, format!("close: {e}"));
                }
            }
        }
    }
    out.retries = client.retries();
    out
}
