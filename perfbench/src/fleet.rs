//! `fleet_serve`: the fleet generator's corpus and plan, replayed over
//! loopback TCP against an in-process `xvu_server::Server` by two client
//! connections, each a closed loop.
//!
//! The plan is generated once per process. Each *cycle* then starts a
//! daemon from the serialized corpus (compile the family engines,
//! construct the server, preload the snapshot corpus, `hello` on both
//! connections: the set-up sample), replays both clients' request streams
//! concurrently, and shuts the daemon down. Client think time (`Idle`) is
//! skipped, and the session pool is larger than the connection count, so
//! no eviction happens and every cycle does identical work.

use crate::json;
use crate::large_doc::{frame_roundtrip, overhead_metric};
use crate::stats::{across_cycles, CycleLatencies, Metric};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome, Scale};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use xvu_edit::{apply_in_place, parse_script, script_footprint, script_to_term, Script};
use xvu_propagate::{count_optimal_propagations, revalidate_output, Engine, Propagation, Session};
use xvu_server::{Client, ClientError, Frame, Server, ServerConfig, StreamTransport, Verb};
use xvu_tree::{to_term_with_ids, DocTree, SnapshotFile};
use xvu_view::extract_view;
use xvu_workload::fleet::{generate_fleet, Fingerprint, FleetConfig, FleetOpKind, FleetPlan};

const CONNECTIONS: usize = 2;

type Conn = Client<StreamTransport<TcpStream>>;

fn config(scale: Scale, seed: u64) -> FleetConfig {
    let (docs, families, updates) = match scale {
        // Fewer than 1,000 edits and reads per cycle, so each cycle's tail
        // is its p90: a p99 of round trips this short reads how often the
        // host preempts the vCPU (see Noise in README.md).
        Scale::Full => (64, 6, 600),
        Scale::Tiny => (6, 3, 12),
    };
    FleetConfig {
        docs,
        families,
        clients: CONNECTIONS,
        updates,
        zipf_s: 1.1,
        seed,
        ..FleetConfig::default()
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_capacity: 64,
        // Larger than the connection count: no eviction, identical work
        // in every replay.
        pool_capacity: 2 * CONNECTIONS,
        retry_after_ms: 2,
    }
}

/// One request of a client's stream: verb, document, wire terms
/// (rendered ahead of time: they are inputs, not work the daemon does)
/// and the outcome the generator recorded.
struct Req {
    verb: Verb,
    doc: u64,
    family: usize,
    terms: Vec<String>,
    expect: Fingerprint,
}

/// Each connection's requests, client think time (`Idle`) dropped.
fn client_streams(plan: &FleetPlan) -> Vec<Vec<Req>> {
    (0..CONNECTIONS)
        .map(|c| {
            plan.client_ops(c)
                .filter_map(|op| {
                    let family = plan.docs[op.doc as usize].family;
                    let term = |s: &Script| script_to_term(s, &plan.families[family].alpha);
                    let (verb, terms) = match &op.kind {
                        FleetOpKind::Idle(_) => return None,
                        FleetOpKind::Open => (Verb::Open, vec![]),
                        FleetOpKind::Propagate(u) => (Verb::Propagate, vec![term(u)]),
                        FleetOpKind::Verify { update, candidate } => {
                            (Verb::Verify, vec![term(update), term(candidate)])
                        }
                        FleetOpKind::Count(u) => (Verb::Count, vec![term(u)]),
                        FleetOpKind::Commit => (Verb::Commit, vec![]),
                        FleetOpKind::Close => (Verb::CloseDoc, vec![]),
                    };
                    Some(Req {
                        verb,
                        doc: op.doc,
                        family,
                        terms,
                        expect: op.expect.clone(),
                    })
                })
                .collect()
        })
        .collect()
}

/// What one client connection observed in one cycle.
#[derive(Default)]
struct ClientRun {
    edit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    commits: u64,
    attempted: u64,
    failed: u64,
    retries: u64,
    notes: Vec<String>,
    tracer: Option<Tracer>,
}

impl ClientRun {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

/// Everything a run accumulates across cycles.
#[derive(Default)]
struct Acc {
    setup_ms: Vec<f64>,
    edit_ms: CycleLatencies,
    read_ms: CycleLatencies,
    traced_edit_ms: CycleLatencies,
    cycle_rate: Vec<f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Daemon counters summed over traced cycles.
    server: HashMap<&'static str, f64>,
    traced_cycles: u64,
}

pub fn run(args: &Args) -> Outcome {
    let (seconds, traced) = (args.seconds, args.trace);
    let mut plan = generate_fleet(&config(args.scale, args.seed));
    if args.inject_mismatch {
        let op = plan.ops.iter_mut().find(|op| op.expect.cost.is_some());
        if let Some(cost) = op.and_then(|op| op.expect.cost.as_mut()) {
            *cost += 1;
        }
    }
    let corpus = plan.corpus_snapshot_bytes();
    let streams = client_streams(&plan);
    // The requests now live in `streams`; the plan's copy of them would
    // only inflate the peak RSS, by an amount that varies with the seed.
    plan.ops = Vec::new();
    crate::reset_peak_rss();
    let base = Instant::now();
    let mut tr = Tracer::new(base, 0);
    let mut acc = Acc::default();
    let deadline = base + Duration::from_secs_f64(seconds);
    let cpus = crate::CpuRotation::from_affinity();
    let mut cycle = 0usize;
    while cycle < 2 || Instant::now() < deadline {
        let trace_this = trace::traces_cycle(traced, cycle);
        cpus.enter(cycle);
        run_cycle(
            &plan,
            &corpus,
            &streams,
            trace_this.then_some(&mut tr),
            &mut acc,
        );
        cycle += 1;
    }

    let mut out = Outcome::new(acc.attempted, acc.failed, acc.notes);
    out.summary = format!(
        "{} documents, {} families, {} committed edits and {} requests per cycle, {cycle} cycles",
        plan.docs.len(),
        plan.families.len(),
        plan.updates,
        streams.iter().map(Vec::len).sum::<usize>()
    );
    if traced {
        let mut metrics = trace::layer_metrics(&tr);
        let cycles = acc.traced_cycles.max(1) as f64;
        let s = |k: &str| acc.server.get(k).copied().unwrap_or(0.0);
        let ratio = |hits: f64, lookups: f64| if lookups > 0.0 { hits / lookups } else { 0.0 };
        for &(name, unit) in crate::SERVER_METRICS {
            let value = match name {
                "server.queue_max" => s("queue_max"),
                "server.evictions" => s("evictions") / cycles,
                "server.retries" => s("retries") / cycles,
                "memo.session_hit_ratio" => ratio(s("cache_hits"), s("cache_lookups")),
                "memo.session_lookups" => s("cache_lookups") / cycles,
                "memo.shared_hit_ratio" => ratio(s("shared_hits"), s("shared_lookups")),
                "memo.shared_lookups" => s("shared_lookups") / cycles,
                _ => 0.0,
            };
            metrics.push(Metric::new(name, value, unit, acc.traced_cycles as usize));
        }
        metrics.push(overhead_metric(&acc.edit_ms, &acc.traced_edit_ms));
        out.metrics = metrics;
        out.trace = Some(tr);
    } else {
        out.metrics.push(Metric::new(
            "setup_s",
            across_cycles(&acc.setup_ms) / 1e3,
            "s",
            acc.setup_ms.len(),
        ));
        out.metrics.push(Metric::new(
            "edits_per_s",
            across_cycles(&acc.cycle_rate),
            "1/s",
            acc.cycle_rate.len(),
        ));
        out.metrics.extend(acc.edit_ms.metrics("edit"));
        out.metrics.extend(acc.read_ms.metrics("read"));
        out.metrics.push(crate::peak_rss_metric());
    }
    out
}

fn run_cycle(
    plan: &FleetPlan,
    corpus: &[u8],
    streams: &[Vec<Req>],
    mut tr: Option<&mut Tracer>,
    acc: &mut Acc,
) {
    let bytes = corpus.to_vec();
    let req = tr.as_deref_mut().map_or(0, Tracer::request);
    let t0 = Instant::now();
    let root = tr.as_deref_mut().map(|t| t.begin("setup", None, req));
    let mut engines = Vec::with_capacity(plan.families.len());
    for fam in &plan.families {
        engines.push(match tr.as_deref_mut() {
            Some(t) => t.time("propagate.compile", root, req, || fam.engine()),
            None => fam.engine(),
        });
    }
    let start = tr
        .as_deref_mut()
        .map(|t| t.begin("server.start", root, req));
    let server = Server::new(&engines, server_config());
    let preloaded = SnapshotFile::from_bytes(bytes)
        .map_err(|e| e.to_string())
        .and_then(|c| server.preload_corpus(&c));
    let listener = TcpListener::bind("127.0.0.1:0").and_then(|l| Ok((l.local_addr()?, l)));
    if let (Some(t), Some(s)) = (tr.as_deref_mut(), start) {
        t.end(s);
    }
    let (addr, listener) = match (preloaded, listener) {
        (Ok(_), Ok((addr, l))) => (addr.to_string(), l),
        (Err(e), _) => return cycle_failed(acc, streams, format!("preload: {e}")),
        (_, Err(e)) => return cycle_failed(acc, streams, format!("bind: {e}")),
    };

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.serve_listener(listener));
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            let hello = tr
                .as_deref_mut()
                .map(|t| t.begin("server.hello", root, req));
            conns.push(Client::connect(&addr));
            if let (Some(t), Some(h)) = (tr.as_deref_mut(), hello) {
                t.end(h);
            }
        }
        acc.setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(r)) = (tr.as_deref_mut(), root) {
            t.end(r);
            setup_shadows(t, plan, corpus, start, req);
        }

        let traced = tr.is_some();
        let mut mirrors = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            mirrors.push(tr.as_deref_mut().map(|t| (Mirror::new(plan), t.fork())));
        }
        let replay_start = Instant::now();
        let handles: Vec<_> = conns
            .into_iter()
            .zip(streams)
            .zip(mirrors)
            .map(|((conn, stream), traced)| scope.spawn(move || replay(conn, stream, traced)))
            .collect();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut r = ClientRun::default();
                    r.fail("client thread panicked".to_owned());
                    r
                })
            })
            .collect();
        let wall = replay_start.elapsed().as_secs_f64();

        let stats = Client::connect(&addr).and_then(|mut ctl| ctl.shutdown());
        if stats.is_err() {
            server.request_shutdown();
        }
        let report = daemon.join();
        let mut commits = 0;
        let (mut edits, mut reads) = (Vec::new(), Vec::new());
        for mut run in runs {
            commits += run.commits;
            acc.attempted += run.attempted;
            acc.failed += run.failed + run.retries;
            edits.extend(&run.edit_ms);
            reads.extend(&run.read_ms);
            let room = 8usize.saturating_sub(acc.notes.len());
            acc.notes.extend(run.notes.drain(..).take(room));
            if let (Some(t), Some(child)) = (tr.as_deref_mut(), run.tracer.take()) {
                t.absorb(child);
            }
        }
        match (stats, report) {
            (Ok(json), Ok(Ok(r))) if r.drained_clean => {
                if traced {
                    note_server_stats(acc, &json);
                }
            }
            (stats, _) => {
                acc.failed += 1;
                acc.notes
                    .push(format!("daemon did not shut down cleanly: {stats:?}"));
            }
        }
        if traced {
            acc.traced_edit_ms.add(&mut edits);
        } else {
            acc.cycle_rate.push(commits as f64 / wall);
            acc.edit_ms.add(&mut edits);
            acc.read_ms.add(&mut reads);
        }
    });
}

/// Counts a cycle whose daemon never started as wholly failed.
fn cycle_failed(acc: &mut Acc, streams: &[Vec<Req>], why: String) {
    let n: usize = streams.iter().map(Vec::len).sum();
    acc.attempted += n as u64;
    acc.failed += n as u64;
    acc.notes.push(why);
}

/// Adds one traced cycle's daemon counters, read by key from the `stats`
/// JSON; absent keys read as zero.
fn note_server_stats(acc: &mut Acc, stats_json: &str) {
    let Some(v) = json::parse(stats_json) else {
        acc.notes.push("stats reply is not JSON".to_owned());
        return;
    };
    let get = |path: &[&str]| v.num(path).unwrap_or(0.0);
    let s = &mut acc.server;
    let queue_max = s.entry("queue_max").or_default();
    *queue_max = queue_max.max(get(&["queue_max"]));
    *s.entry("evictions").or_default() += get(&["evictions"]);
    *s.entry("retries").or_default() += get(&["rejected_writes"]);
    *s.entry("cache_hits").or_default() += get(&["cache", "hits"]);
    *s.entry("cache_lookups").or_default() += get(&["cache", "hits"]) + get(&["cache", "misses"]);
    *s.entry("shared_hits").or_default() += get(&["shared_cache", "hits"]);
    *s.entry("shared_lookups").or_default() +=
        get(&["shared_cache", "hits"]) + get(&["shared_cache", "misses"]);
    acc.traced_cycles += 1;
}

/// What `Server::preload_corpus` does inside, re-executed on its input:
/// decode every corpus document, validate it against its family's DTD.
fn setup_shadows(t: &mut Tracer, plan: &FleetPlan, corpus: &[u8], parent: Option<usize>, req: u64) {
    let docs: Vec<(usize, DocTree)> = t.time("tree.decode", parent, req, || {
        let file = SnapshotFile::from_bytes(corpus.to_vec()).expect("corpus decodes");
        file.entries()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let family = e.family as usize;
                let mut alpha = plan.families[family].alpha.clone();
                (
                    family,
                    file.decode(i, &mut alpha).expect("document decodes"),
                )
            })
            .collect()
    });
    t.time("dtd.validate", parent, req, || {
        docs.iter()
            .all(|(f, d)| plan.families[*f].dtd.validate(d).is_ok())
    });
}

/// A traced client's direct-library twin: the same requests executed
/// against its own engines and sessions, timed as the library part of
/// each round trip.
struct Mirror<'p> {
    plan: &'p FleetPlan,
    engines: Vec<Engine>,
}

impl<'p> Mirror<'p> {
    fn new(plan: &'p FleetPlan) -> Mirror<'p> {
        Mirror {
            plan,
            engines: plan.families.iter().map(|f| f.engine()).collect(),
        }
    }
}

/// The mirror's per-connection state: committed documents, open
/// sessions, and the pending propagation.
struct MirrorState<'m> {
    store: HashMap<u64, DocTree>,
    sessions: HashMap<u64, Session<'m>>,
    pending: Option<Propagation>,
}

fn replay(
    mut conn: Result<Conn, ClientError>,
    stream: &[Req],
    traced: Option<(Mirror<'_>, Tracer)>,
) -> ClientRun {
    let (mirror, mut tracer) = traced.unzip();
    let mut run = ClientRun::default();
    let client = match conn.as_mut() {
        Ok(c) => c,
        Err(e) => {
            run.attempted = stream.len() as u64;
            run.failed = stream.len() as u64;
            run.notes.push(format!("connect: {e}"));
            return run;
        }
    };
    let mut state = MirrorState {
        store: mirror.as_ref().map_or_else(HashMap::new, |m| {
            stream
                .iter()
                .map(|r| (r.doc, m.plan.docs[r.doc as usize].doc.clone()))
                .collect()
        }),
        sessions: HashMap::new(),
        pending: None,
    };
    let mut pending_ms = 0.0;
    let mut pending_allocs = 0u64;
    for (i, r) in stream.iter().enumerate() {
        run.attempted += 1;
        let (doc, want) = (r.doc, &r.expect);
        let req = tracer.as_mut().map_or(0, Tracer::request);
        let root = tracer
            .as_mut()
            .map(|t| t.begin(root_name(r.verb), None, req));
        let t = Instant::now();
        let outcome: Result<Option<String>, ClientError> = match r.verb {
            Verb::Open => client.open(doc).map(|view| {
                (Some(&view) != want.view.as_ref()).then(|| "open view differs".to_owned())
            }),
            Verb::Propagate => client.propagate(doc, &r.terms[0]).map(|p| {
                (Some(p.cost) != want.cost
                    || Some(p.count) != want.count
                    || Some(&p.script) != want.script.as_ref())
                .then(|| format!("propagate reply ({}, {}) differs", p.cost, p.count))
            }),
            Verb::Verify => client.verify(doc, &r.terms[0], &r.terms[1]).map(|()| None),
            Verb::Count => client
                .count(doc, &r.terms[0])
                .map(|n| (Some(n) != want.count).then(|| format!("count {n} differs"))),
            Verb::Commit => client.commit(doc).map(|()| None),
            _ => client.close_doc(doc).map(|()| None),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
            tr.end(root);
        }
        match outcome {
            Ok(None) => {}
            Ok(Some(diff)) => run.fail(format!("request {i} doc {doc}: {diff}")),
            Err(e) => run.fail(format!("request {i} doc {doc}: {e}")),
        }
        match r.verb {
            Verb::Propagate => pending_ms = ms,
            Verb::Commit => {
                run.edit_ms.push(pending_ms + ms);
                run.commits += 1;
            }
            Verb::Verify | Verb::Count => run.read_ms.push(ms),
            _ => {}
        }
        if let (Some(tr), Some(m), Some(root)) = (tracer.as_mut(), mirror.as_ref(), root) {
            let allocs = shadow(tr, m, &mut state, r, root, req);
            match r.verb {
                Verb::Propagate => pending_allocs = allocs,
                Verb::Commit => tr.count("alloc.per_edit", (pending_allocs + allocs) as f64),
                Verb::Verify | Verb::Count => tr.count("alloc.per_read", allocs as f64),
                _ => {}
            }
        }
    }
    run.retries = client.retries();
    run.tracer = tracer;
    run
}

fn root_name(verb: Verb) -> &'static str {
    match verb {
        Verb::Open => "rt.open",
        Verb::Propagate => "rt.propagate",
        Verb::Verify => "rt.verify",
        Verb::Count => "rt.count",
        Verb::Commit => "rt.commit",
        _ => "rt.close",
    }
}

/// Re-executes one round trip's daemon-side work after it completed: the
/// request's parse, its library call on the mirror session, the reply's
/// rendering and the framing of both, each as a child span of the round
/// trip. Returns the allocations the library call made.
fn shadow<'m>(
    t: &mut Tracer,
    m: &'m Mirror<'_>,
    state: &mut MirrorState<'m>,
    r: &Req,
    root: usize,
    req: u64,
) -> u64 {
    let doc = r.doc;
    let engine = &m.engines[r.family];
    let alpha = engine.alphabet();
    let scripts: Vec<Script> = r
        .terms
        .iter()
        .map(|term| {
            t.time("edit.parse", Some(root), req, || {
                parse_script(&mut alpha.clone(), term)
            })
            .expect("plan terms parse")
        })
        .collect();
    let a0 = trace::thread_allocs();
    let (payload, reply) = match r.verb {
        Verb::Open => {
            let stored = &state.store[&doc];
            let os = t.begin("propagate.open", Some(root), req);
            trace::set_counting(true);
            let session = engine.open(stored).expect("mirror opens");
            trace::set_counting(false);
            t.end(os);
            t.time("dtd.validate", Some(os), req, || {
                engine.dtd().validate(stored)
            })
            .expect("valid");
            let view = t.time("view.extract", Some(os), req, || {
                extract_view(engine.annotation(), stored)
            });
            t.count("view.nodes", view.size() as f64);
            let printed = t.time("edit.print", Some(root), req, || {
                to_term_with_ids(session.view(), alpha)
            });
            state.sessions.insert(doc, session);
            (doc.to_string(), printed)
        }
        Verb::Propagate => {
            let (session, u) = (&state.sessions[&doc], &scripts[0]);
            let ps = t.begin("propagate", Some(root), req);
            trace::set_counting(true);
            let prop = session.propagate(u).expect("mirror propagates");
            trace::set_counting(false);
            t.end(ps);
            t.time("propagate.instance", Some(ps), req, || {
                session.instance(u).map(|_| ())
            })
            .expect("instance");
            trace::set_counting(true);
            let count = t.time("propagate.count", Some(root), req, || {
                count_optimal_propagations(&prop.forest)
            });
            trace::set_counting(false);
            let printed = t.time("edit.print", Some(root), req, || {
                script_to_term(&prop.script, alpha)
            });
            let (vertices, edges) = prop.forest.census();
            t.count("propagate.graphs", prop.forest.graphs().count() as f64);
            t.count("propagate.vertices", vertices as f64);
            t.count("propagate.edges", edges as f64);
            t.count(
                "edit.footprint_nodes",
                script_footprint(u).changed().len() as f64,
            );
            t.count("edit.script_nodes", u.size() as f64);
            let reply = format!("{}\n{}\n{printed}", prop.cost, count.unwrap_or(0));
            state.pending = Some(prop);
            (format!("{doc}\n{}", r.terms[0]), reply)
        }
        Verb::Verify => {
            let session = &state.sessions[&doc];
            trace::set_counting(true);
            t.time("propagate.verify", Some(root), req, || {
                session.verify(&scripts[0], &scripts[1])
            })
            .expect("mirror verifies");
            trace::set_counting(false);
            (
                format!("{doc}\n{}\n{}", r.terms[0], r.terms[1]),
                String::new(),
            )
        }
        Verb::Count => {
            let session = &state.sessions[&doc];
            trace::set_counting(true);
            let n = t.time("propagate.recount", Some(root), req, || {
                session.count_optimal(&scripts[0])
            });
            trace::set_counting(false);
            let reply = n.map(|n| n.to_string()).unwrap_or_default();
            (format!("{doc}\n{}", r.terms[0]), reply)
        }
        Verb::Commit => {
            let session = state.sessions.get_mut(&doc).expect("open mirror session");
            let prop = state.pending.take().expect("commit follows propagate");
            let mut before = session.document().clone();
            let cs = t.begin("propagate.commit", Some(root), req);
            trace::set_counting(true);
            session.commit(&prop).expect("mirror commits");
            trace::set_counting(false);
            t.end(cs);
            t.time("commit.revalidate", Some(cs), req, || {
                revalidate_output(engine.dtd(), &prop.script)
            })
            .expect("revalidates");
            t.time("commit.apply", Some(cs), req, || {
                apply_in_place(&mut before, &prop.script)
            })
            .expect("applies");
            t.time("commit.view", Some(cs), req, || {
                extract_view(engine.annotation(), session.document())
            });
            (doc.to_string(), String::new())
        }
        _ => {
            if let Some(session) = state.sessions.remove(&doc) {
                state.store.insert(doc, session.document().clone());
            }
            (doc.to_string(), String::new())
        }
    };
    let allocs = trace::thread_allocs() - a0;
    t.time("server.frame", Some(root), req, || {
        frame_roundtrip(&Frame::new(r.verb, payload), &Frame::ok(reply))
    })
    .expect("frames round-trip");
    allocs
}
