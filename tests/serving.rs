//! End-to-end serving determinism: the daemon must be observationally
//! identical to direct library sessions at fleet scale.
//!
//! The fleet generator executes every operation against a long-lived
//! [`xml_view_update::Session`] per document while recording `(cost,
//! script-term, count, view-term)` fingerprints; [`run_fleet`] then
//! replays the identical operation streams over real TCP connections
//! against the daemon — connection threads, write admission, LRU eviction,
//! write-back, identifier-floor restoration and all — and diffs every
//! reply. Any nondeterminism in the serving stack shows up as a
//! mismatch naming the exact operation.

use xml_view_update::server::{run_fleet, run_fleet_from_corpus, FleetReport, ServerConfig};
use xml_view_update::workload::fleet::{generate_fleet, FleetConfig, FleetPlan};

/// ≥ 32 documents over Zipf popularity, enough committed edits to push
/// the request count past 1000 (the PR's acceptance floor).
fn full_scale_plan() -> FleetPlan {
    let plan = generate_fleet(&FleetConfig {
        docs: 36,
        families: 6,
        clients: 6,
        updates: 340,
        seed: 0x5E12_F1EE,
        ..FleetConfig::default()
    });
    assert!(plan.docs.len() >= 32, "corpus: {} docs", plan.docs.len());
    assert!(
        plan.request_count() + plan.docs.len() >= 1000,
        "plan too small: {} requests",
        plan.request_count() + plan.docs.len()
    );
    plan
}

fn assert_clean(report: &FleetReport, label: &str) {
    assert!(
        report.mismatches.is_empty(),
        "{label}: daemon diverged from direct sessions ({} mismatches):\n{}",
        report.mismatches.len(),
        report.mismatches.join("\n")
    );
    assert_eq!(report.protocol_errors, 0, "{label}: protocol errors");
    assert_eq!(report.stats.errors, 0, "{label}: server error replies");
    assert!(
        report.drained_clean,
        "{label}: shutdown left work in flight"
    );
}

#[test]
fn daemon_is_deterministically_equal_to_direct_sessions_at_fleet_scale() {
    let plan = full_scale_plan();
    // each client keeps one document open at a time, so a pool smaller
    // than the client count forces evictions (and occasional retry
    // pushback when every resident session is leased at once) throughout
    // the run — all of it observationally invisible
    let report = run_fleet(
        &plan,
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            pool_capacity: 4,
            retry_after_ms: 1,
        },
    )
    .expect("daemon runs");
    assert_clean(&report, "pool=4");
    assert!(
        report.requests >= 1000,
        "served {} requests",
        report.requests
    );
    assert!(
        report.stats.evictions > 0,
        "a 4-session pool under 6 clients must evict"
    );
    // the latency histograms saw every request
    let observed = report.stats.write_latency.count() + report.stats.read_latency.count();
    assert!(
        observed >= report.requests - report.retries,
        "latency histograms undercounted: {observed} < {}",
        report.requests
    );
}

#[test]
fn snapshot_corpus_serving_is_byte_identical_to_term_loading() {
    // the same plan served two ways: documents loaded over the wire as
    // terms (parse path) versus preloaded from a packed flat-snapshot
    // corpus (bulk-decode path). Every reply is diffed against the same
    // recorded fingerprints, so both runs passing means the two load
    // paths produce byte-identical serving behaviour.
    let plan = generate_fleet(&FleetConfig {
        docs: 16,
        families: 4,
        clients: 4,
        updates: 80,
        seed: 0x5A47_C0DE,
        ..FleetConfig::default()
    });
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 16,
        pool_capacity: 4,
        retry_after_ms: 1,
    };
    let term_report = run_fleet(&plan, cfg.clone()).expect("term-load daemon runs");
    assert_clean(&term_report, "term-load");
    let snap_report = run_fleet_from_corpus(&plan, cfg).expect("snapshot daemon runs");
    assert_clean(&snap_report, "snapshot-corpus");
    // the snapshot run skips the per-document load requests; everything
    // else in the two request streams is identical
    assert_eq!(
        term_report.requests,
        snap_report.requests + plan.docs.len() as u64,
        "request accounting: term {} vs snapshot {}",
        term_report.requests,
        snap_report.requests
    );
}

#[test]
fn daemon_fingerprints_are_stable_across_pool_sizes() {
    // fingerprints are recorded once by the generator; replaying under a
    // starved pool and a roomy pool must both match them — evictions are
    // observationally invisible
    let plan = generate_fleet(&FleetConfig {
        docs: 16,
        families: 4,
        clients: 4,
        updates: 60,
        seed: 0xBEEF_CAFE,
        ..FleetConfig::default()
    });
    for pool_capacity in [2, 64] {
        let report = run_fleet(
            &plan,
            ServerConfig {
                workers: 2,
                queue_capacity: 16,
                pool_capacity,
                retry_after_ms: 1,
            },
        )
        .expect("daemon runs");
        assert_clean(&report, &format!("pool={pool_capacity}"));
    }
}
