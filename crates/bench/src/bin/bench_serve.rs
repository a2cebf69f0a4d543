//! Machine-readable serving benchmark: emits `BENCH_serve.json`.
//!
//! Generates one fleet workload (≥ 1000 requests over ≥ 32 documents
//! with Zipf popularity and open/churn/idle/close lifecycles), then
//! replays it through the daemon — real TCP, one thread per connection,
//! write admission — at several session-pool sizes. Each row reports
//! sustained throughput, write/read latency quantiles from the daemon's
//! own histograms, and the propagation memo's counters (each session owns
//! its memo and eviction drops it, so the starved pools recount the
//! documents they reopen; `cache_entries` is what the sessions still open
//! at the end of a run hold), so the serving-stack perf trajectory is
//! tracked by a checked-in artifact.
//!
//! Every row is replayed [`RUNS`] times, the pool sizes taking turns so
//! that a slow phase of the host lands on every row alike, and each
//! figure is recorded as `{ "min", "median", "max" }` over those runs.
//! The file records `nproc` and the git revision it was measured at.
//!
//! Every replay is also a correctness gate: the daemon's replies are
//! diffed against the fingerprints the generator recorded from direct
//! library sessions, and any mismatch aborts the benchmark.
//!
//! Next to the cold start, the `connect` row times a TCP connect plus
//! `hello` to an idle daemon that is already serving, one connection
//! after another ([`CONNECTS`] of them, after one untimed).
//!
//! ```text
//! cargo run --release -p xvu_bench --bin bench_serve [-- OUT_PATH]
//! cargo run --release -p xvu_bench --bin bench_serve -- --test   # CI smoke
//! ```
//!
//! Fleet clients keep one document open at a time, so the pool sizes
//! straddle the client count: a pool below it forces steady LRU eviction
//! (sessions are dropped and reopened with their identifier floor
//! restored), a pool above it never evicts.

use std::time::{Duration, Instant};
use xvu_bench::{json_header, ms, write_json, Spread};
use xvu_propagate::Engine;
use xvu_server::{run_fleet, Client, FleetReport, Server, ServerConfig};
use xvu_tree::{to_term_with_ids, SnapshotFile};
use xvu_workload::fleet::{generate_fleet, FleetConfig, FleetPlan};

/// Replays per pool row (and cold starts per mode).
const RUNS: usize = 5;

/// Timed connections of the `connect` row.
const CONNECTS: usize = 40;

fn plan(updates: usize, docs: usize, clients: usize) -> FleetPlan {
    generate_fleet(&FleetConfig {
        docs,
        families: 6.min(docs),
        clients,
        updates,
        seed: 0x5EE7_B47C,
        ..FleetConfig::default()
    })
}

/// One pool row: every figure as a spread over the row's runs.
fn row_json(pool: usize, plan: &FleetPlan, runs: &[FleetReport]) -> String {
    let per_sec = |n: f64, r: &FleetReport| n / r.wall.as_secs_f64().max(1e-9);
    let mut row = format!(
        "    \"{pool}\": {{ \"runs\": {}, \"requests\": {}, \"cache_entries\": {}",
        runs.len(),
        runs[0].requests,
        runs[0].stats.cache.entries
    );
    let mut figure = |name: &str, decimals: usize, f: &dyn Fn(&FleetReport) -> f64| {
        let spread = Spread::of(runs.iter().map(f).collect());
        row.push_str(&format!(",\n      \"{name}\": {}", spread.json(decimals)));
    };
    figure("wall_ms", 1, &|r| ms(r.wall));
    figure("updates_per_sec", 1, &|r| per_sec(plan.updates as f64, r));
    figure("requests_per_sec", 1, &|r| per_sec(r.requests as f64, r));
    figure("write_p50_ms", 3, &|r| {
        r.stats.write_latency.quantile_ms(0.50)
    });
    figure("write_p99_ms", 3, &|r| {
        r.stats.write_latency.quantile_ms(0.99)
    });
    figure("read_p50_ms", 3, &|r| {
        r.stats.read_latency.quantile_ms(0.50)
    });
    figure("read_p99_ms", 3, &|r| {
        r.stats.read_latency.quantile_ms(0.99)
    });
    figure("cache_hit_rate", 4, &|r| r.stats.cache.hit_rate());
    figure("cache_hits", 0, &|r| r.stats.cache.hits as f64);
    figure("evictions", 0, &|r| r.stats.evictions as f64);
    figure("retries", 0, &|r| r.retries as f64);
    figure("rejected_writes", 0, &|r| r.stats.rejected_writes as f64);
    figure("queue_max", 0, &|r| r.stats.queue_max as f64);
    row.push_str(" }");
    row
}

/// One cold start: the clock runs from daemon construction, through
/// corpus installation — term `load` verbs over the wire versus a
/// packed-snapshot preload — to the first served reply (an `open` of
/// the hottest document). Engine compilation is outside the clock: it
/// is identical in both modes. Returns the elapsed time and the first
/// reply (the two modes must agree byte-for-byte).
fn cold_start_once(
    plan: &FleetPlan,
    engines: &[Engine],
    corpus: &[u8],
    snapshot: bool,
) -> (Duration, String) {
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 32,
        pool_capacity: 4,
        retry_after_ms: 1,
    };
    let start = Instant::now();
    let server = Server::new(engines, cfg);
    if snapshot {
        let file = SnapshotFile::from_bytes(corpus.to_vec()).expect("corpus parses");
        server.preload_corpus(&file).expect("corpus preloads");
    }
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut first = None;
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_listener(listener));
        let mut client = Client::connect(&addr).expect("connect");
        if !snapshot {
            for fd in &plan.docs {
                let term = to_term_with_ids(&fd.doc, &plan.families[fd.family].alpha);
                client.load(fd.id, fd.family, &term).expect("load");
            }
        }
        let doc = plan.docs[0].id;
        let view = client.open(doc).expect("first reply");
        elapsed = start.elapsed();
        first = Some(view);
        let _ = client.close_doc(doc);
        let _ = client.shutdown();
        handle.join().expect("server thread").expect("serve ok");
    });
    (elapsed, first.expect("first reply captured"))
}

/// `reps` cold starts per mode, the modes taking turns, checking that
/// the first reply is byte-identical between them. Returns each mode's
/// spread in milliseconds.
fn cold_start(plan: &FleetPlan, engines: &[Engine], reps: usize) -> (Spread, Spread) {
    let corpus = plan.corpus_snapshot_bytes();
    let (mut term_ms, mut snap_ms) = (Vec::new(), Vec::new());
    let mut term_reply = None;
    let mut snap_reply = None;
    for _ in 0..reps {
        let (t, reply) = cold_start_once(plan, engines, &corpus, false);
        term_ms.push(ms(t));
        term_reply.get_or_insert(reply);
        let (t, reply) = cold_start_once(plan, engines, &corpus, true);
        snap_ms.push(ms(t));
        snap_reply.get_or_insert(reply);
    }
    assert_eq!(
        term_reply, snap_reply,
        "first reply differs between term and snapshot boot"
    );
    (Spread::of(term_ms), Spread::of(snap_ms))
}

/// `connects` sequential connect + `hello` round trips to an idle daemon
/// that is already serving (one untimed connection first), in
/// milliseconds. Each client closes before the next connects.
fn connect_ms(engines: &[Engine], connects: usize) -> Spread {
    let server = Server::new(engines, ServerConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut samples = Vec::with_capacity(connects);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve_listener(listener));
        drop(Client::connect(&addr).expect("first connect"));
        for _ in 0..connects {
            let start = Instant::now();
            let client = Client::connect(&addr).expect("connect");
            samples.push(ms(start.elapsed()));
            drop(client);
        }
        let _ = Client::connect(&addr).expect("connect").shutdown();
        handle.join().expect("server thread").expect("serve ok");
    });
    Spread::of(samples)
}

fn main() {
    let arg = std::env::args().nth(1);
    let smoke = arg.as_deref() == Some("--test");
    // CI smoke: a tiny plan, one starved pool, correctness gate only.
    let (plan, clients, pools) = if smoke {
        (plan(24, 8, 3), 3, vec![2usize])
    } else {
        (plan(340, 36, 6), 6, vec![2usize, 4, 12])
    };
    let requests = plan.request_count() + plan.docs.len();
    eprintln!(
        "bench_serve: {} docs, {} families, {} committed updates, {} requests",
        plan.docs.len(),
        plan.families.len(),
        plan.updates,
        requests
    );

    // the pool sizes take turns, run by run
    let runs = if smoke { 1 } else { RUNS };
    let mut rows: Vec<(usize, Vec<FleetReport>)> = pools.iter().map(|&p| (p, Vec::new())).collect();
    for _ in 0..runs {
        for (pool, reports) in &mut rows {
            let pool = *pool;
            let report = run_fleet(
                &plan,
                ServerConfig {
                    workers: 2,
                    queue_capacity: 32,
                    pool_capacity: pool,
                    retry_after_ms: 1,
                },
            )
            .expect("daemon runs");
            assert!(
                report.mismatches.is_empty(),
                "pool={pool}: daemon diverged from direct sessions:\n{}",
                report.mismatches.join("\n")
            );
            assert_eq!(report.protocol_errors, 0, "pool={pool}: protocol errors");
            assert!(report.drained_clean, "pool={pool}: dirty drain");
            eprintln!(
                "  pool {pool:>3}: {:.1} updates/s, write p99 {:.2} ms, hit rate {:.3}, \
                 {} evictions",
                plan.updates as f64 / report.wall.as_secs_f64().max(1e-9),
                report.stats.write_latency.quantile_ms(0.99),
                report.stats.cache.hit_rate(),
                report.stats.evictions
            );
            reports.push(report);
        }
    }

    // cold start: daemon construction → first served reply, with the
    // corpus installed by term `load` verbs vs a packed-snapshot preload
    let engines: Vec<Engine> = plan.families.iter().map(|f| f.engine()).collect();
    let (term_cold, snap_cold) = cold_start(&plan, &engines, runs);
    let speedup = term_cold.median / snap_cold.median.max(1e-9);
    eprintln!(
        "  cold start: term-corpus {:.1} ms, snapshot-corpus {:.1} ms ({speedup:.1}× faster)",
        term_cold.median, snap_cold.median,
    );

    let connects = if smoke { 5 } else { CONNECTS };
    let connect = connect_ms(&engines, connects);
    eprintln!(
        "  connect + hello to a running daemon: median {:.3} ms over {connects} connections",
        connect.median,
    );

    if smoke {
        println!("bench_serve self-test PASS ({requests} requests, 0 mismatches)");
        return;
    }

    let out_path = arg.unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let mut json = json_header("xvu-bench-serve/7");
    json.push_str(
        "  \"timed_region\": \"TCP replay of the full fleet plan: corpus load + every client op + drain\",\n",
    );
    json.push_str(&format!(
        "  \"plan\": {{ \"docs\": {}, \"families\": {}, \"clients\": {clients}, \"committed_updates\": {}, \"requests\": {} }},\n",
        plan.docs.len(),
        plan.families.len(),
        plan.updates,
        requests
    ));
    json.push_str(&format!(
        "  \"cold_start\": {{ \"timed_region\": \"daemon construction + corpus install to first open reply\", \
         \"runs\": {runs}, \"term_corpus_ms\": {}, \"snapshot_corpus_ms\": {}, \"median_speedup\": {speedup:.1} }},\n",
        term_cold.json(2),
        snap_cold.json(2),
    ));
    json.push_str(&format!(
        "  \"connect\": {{ \"timed_region\": \"TCP connect + hello to an idle daemon already serving, one connection at a time\", \
         \"connects\": {connects}, \"ms\": {} }},\n",
        connect.json(3),
    ));
    json.push_str("  \"pools\": {\n");
    for (i, (pool, reports)) in rows.iter().enumerate() {
        json.push_str(&row_json(*pool, &plan, reports));
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  }\n}\n");

    write_json(&out_path, &json);
}
