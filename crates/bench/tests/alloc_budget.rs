//! Allocation-budget regression gate for the propagation kernel.
//!
//! A counting `GlobalAlloc` wrapper (std-only, no dependencies) tallies
//! every heap allocation while armed. The single test in this file warms
//! a hospital churn session, then counts the transient allocations of one
//! further warm `propagate + commit` round trip and pins them under a
//! budget. If a future change reintroduces per-query allocation in the
//! kernel — a fresh Dijkstra heap or distance array per `best_cost`, a
//! rebuilt reverse adjacency per `dist_to_goal`, per-node segmentation
//! buffers — the count jumps far past the pinned ceiling and this test
//! fails before the regression reaches a perf snapshot.
//!
//! This file holds exactly one `#[test]`: the counter is process-global,
//! so a second concurrently running test would pollute the tally.
//!
//! CI runs this in release mode (`cargo test --release -p xvu_bench
//! --test alloc_budget`); the budget below holds for both debug and
//! release builds.

mod common;

use common::{count_allocs, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Transient heap allocations allowed for one warm churn update
/// (propagate + commit) through a long-lived hospital session.
///
/// The steady state still allocates for real products — the result
/// script (one bulk copy of the source: node records, child buffer, free
/// list and identifier index, whatever the document's size) and forest,
/// dirty-node graphs, the committed document revision — but the kernel's
/// query machinery (Dijkstra state, reverse CSR, segmentation buffers) is
/// pooled and contributes zero, assembly rewrites only the footprint's
/// child lists, and commit reads the script once, patches the view
/// instead of rebuilding it and re-interns only the slots it touched.
/// The pin carries ~1.5× headroom over the measured count (323 in
/// release, 327 in debug); a reintroduced per-query allocation multiplies
/// the count by the number of per-node queries and blows well past it.
const BUDGET: u64 = 490;

#[test]
fn warm_churn_update_stays_under_allocation_budget() {
    let (oi, updates) = xvu_bench::hospital_churn_batch(4, 30, 8, 0xc0ffee);
    let engine = oi.engine();
    let mut session = engine.open(&oi.doc).expect("hospital doc is valid");

    // Warm pass: everything but the last update fills the session memo
    // and grows the pooled scratch to its steady-state footprint.
    let (last, warmup) = updates.split_last().expect("non-empty churn stream");
    for u in warmup {
        let prop = session.propagate(u).expect("churn update propagates");
        session.commit(&prop).expect("churn propagation commits");
    }

    // Counted region: one more warm round trip.
    let ((), count) = count_allocs(|| {
        let prop = session.propagate(last).expect("churn update propagates");
        session.commit(&prop).expect("churn propagation commits");
    });

    assert!(count > 0, "counter never engaged — harness broken");
    assert!(
        count <= BUDGET,
        "warm churn update allocated {count} times (budget {BUDGET}): \
         a per-query allocation crept back into the kernel"
    );
}
