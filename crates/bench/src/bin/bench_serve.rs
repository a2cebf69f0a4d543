//! Machine-readable serving benchmark: emits `BENCH_serve.json`.
//!
//! Generates one fleet workload (≥ 1000 requests over ≥ 32 documents
//! with Zipf popularity and open/churn/idle/close lifecycles), then
//! replays it through the daemon — real TCP, worker pool, admission
//! queue — at several session-pool sizes. Each row reports sustained
//! throughput, write/read latency quantiles from the daemon's own
//! histograms, and the hit rate of the engines' propagation memo (the
//! memo is engine-owned, so eviction does not empty it and the starved
//! pools keep hitting), so the serving-stack perf trajectory is tracked
//! by a checked-in artifact.
//!
//! Every replay is also a correctness gate: the daemon's replies are
//! diffed against the fingerprints the generator recorded from direct
//! library sessions, and any mismatch aborts the benchmark.
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
use xvu_propagate::Engine;
use xvu_server::{run_fleet, Client, FleetReport, Server, ServerConfig};
use xvu_tree::{to_term_with_ids, SnapshotFile};
use xvu_workload::fleet::{generate_fleet, FleetConfig, FleetPlan};

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

fn row_json(pool: usize, plan: &FleetPlan, r: &FleetReport) -> String {
    let secs = r.wall.as_secs_f64().max(1e-9);
    format!(
        "    \"{pool}\": {{ \"requests\": {}, \"wall_ms\": {:.1}, \
         \"updates_per_sec\": {:.1}, \"requests_per_sec\": {:.1}, \
         \"write_p50_ms\": {:.3}, \"write_p99_ms\": {:.3}, \
         \"read_p50_ms\": {:.3}, \"read_p99_ms\": {:.3}, \
         \"cache_hit_rate\": {:.4}, \"cache_hits\": {}, \"cache_entries\": {}, \
         \"evictions\": {}, \"retries\": {}, \
         \"rejected_writes\": {}, \"queue_max\": {} }}",
        r.requests,
        r.wall.as_secs_f64() * 1e3,
        plan.updates as f64 / secs,
        r.requests as f64 / secs,
        r.stats.write_latency.quantile_ms(0.50),
        r.stats.write_latency.quantile_ms(0.99),
        r.stats.read_latency.quantile_ms(0.50),
        r.stats.read_latency.quantile_ms(0.99),
        r.stats.cache.hit_rate(),
        r.stats.cache.hits,
        r.stats.cache.entries,
        r.stats.evictions,
        r.retries,
        r.stats.rejected_writes,
        r.stats.queue_max,
    )
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

/// Best-of-`reps` cold start per mode, checking that the first reply is
/// byte-identical between them.
fn cold_start(plan: &FleetPlan, reps: usize) -> (Duration, Duration) {
    let engines: Vec<Engine> = plan.families.iter().map(|f| f.engine()).collect();
    let corpus = plan.corpus_snapshot_bytes();
    let mut term_best = Duration::MAX;
    let mut snap_best = Duration::MAX;
    let mut term_reply = None;
    let mut snap_reply = None;
    for _ in 0..reps {
        let (t, reply) = cold_start_once(plan, &engines, &corpus, false);
        term_best = term_best.min(t);
        term_reply.get_or_insert(reply);
        let (t, reply) = cold_start_once(plan, &engines, &corpus, true);
        snap_best = snap_best.min(t);
        snap_reply.get_or_insert(reply);
    }
    assert_eq!(
        term_reply, snap_reply,
        "first reply differs between term and snapshot boot"
    );
    (term_best, snap_best)
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

    let mut rows = Vec::new();
    for &pool in &pools {
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
        rows.push((pool, report));
    }

    // cold start: daemon construction → first served reply, with the
    // corpus installed by term `load` verbs vs a packed-snapshot preload
    let (term_cold, snap_cold) = cold_start(&plan, if smoke { 1 } else { 5 });
    eprintln!(
        "  cold start: term-corpus {:.1} ms, snapshot-corpus {:.1} ms ({:.1}× faster)",
        term_cold.as_secs_f64() * 1e3,
        snap_cold.as_secs_f64() * 1e3,
        term_cold.as_secs_f64() / snap_cold.as_secs_f64().max(1e-9),
    );

    if smoke {
        println!("bench_serve self-test PASS ({requests} requests, 0 mismatches)");
        return;
    }

    let out_path = arg.unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"xvu-bench-serve/4\",\n");
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
         \"term_corpus_ms\": {:.2}, \"snapshot_corpus_ms\": {:.2}, \"speedup\": {:.1} }},\n",
        term_cold.as_secs_f64() * 1e3,
        snap_cold.as_secs_f64() * 1e3,
        term_cold.as_secs_f64() / snap_cold.as_secs_f64().max(1e-9),
    ));
    json.push_str("  \"pools\": {\n");
    for (i, (pool, report)) in rows.iter().enumerate() {
        json.push_str(&row_json(*pool, &plan, report));
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
