//! Allocation gate for `Session::commit` alone, across document size.
//!
//! A commit reads the script once — one check against the document
//! yields its footprint — and then rewrites only the changed parents'
//! child lists, patches the view under them instead of extracting it
//! again, and updates the session's intern ids in place (a live node's
//! arena slot never moves, so only the deleted, inserted and dirty slots
//! are re-interned). Its allocation count must not grow with the
//! document: one admission committed into a 10,011-node hospital may
//! allocate only a small constant more than the same admission committed
//! into a ~1k-node one, and never more than a fixed per-commit bound. The
//! check's arena scans still visit every node, but into a fixed number of
//! buffers (growing ones reallocate a few more times on a larger
//! document); a view rebuilt from scratch allocates per view node and
//! fails this gate by thousands.
//!
//! This file holds exactly one `#[test]`: the counter is process-global,
//! so a second concurrently running test would pollute the tally.

mod common;

use common::{count_allocs, CountingAlloc};
use xvu_propagate::Engine;
use xvu_tree::NodeIdGen;
use xvu_workload::scenario::{admit_patient, hospital, hospital_doc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Extra allocations a 10× larger document may cost one commit (43 at
/// 977 nodes, 44 at 10,023, in both debug and release builds); the
/// difference comes from buffers that grow with the document
/// reallocating a few more times.
const SLACK: u64 = 5;

/// Allocations any one admission commit may cost, at either size: the
/// measured 44 at 10,023 nodes plus a margin of ~1.5×.
const PER_COMMIT: u64 = 66;

/// The document size and the allocations of one warm `Session::commit`
/// of an admission into the first department of a hospital with
/// `departments × patients` patients.
fn commit_allocs(departments: usize, patients: usize) -> (usize, u64) {
    let h = hospital();
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, departments, patients, &mut gen);
    let engine = Engine::new(h.alpha.clone(), h.dtd.clone(), h.ann.clone());
    let mut session = engine.open(&doc).expect("hospital documents are valid");
    // Warm-up admissions fill the session memo and grow commit's buffers to
    // their steady-state size.
    for _ in 0..3 {
        let mut ids = session.id_gen();
        let update = admit_patient(&h, session.document(), 0, &mut ids);
        session.apply(&update).expect("admissions commit");
    }
    let mut ids = session.id_gen();
    let update = admit_patient(&h, session.document(), 0, &mut ids);
    let prop = session.propagate(&update).expect("admissions propagate");

    let ((), count) = count_allocs(|| session.commit(&prop).expect("admissions commit"));
    (session.document().size(), count)
}

#[test]
fn commit_allocations_do_not_grow_with_the_document() {
    let (small_nodes, small) = commit_allocs(4, 30);
    let (large_nodes, large) = commit_allocs(10, 125);
    assert!(small_nodes < 1_100 && large_nodes > 10_000);
    assert!(small > 0, "counter never engaged — harness broken");
    assert!(
        large <= small + SLACK,
        "a commit at {large_nodes} nodes allocated {large} times, at {small_nodes} nodes \
         {small} (slack {SLACK}): commit work grew with the document"
    );
    assert!(
        small.max(large) <= PER_COMMIT,
        "a commit allocated {} times (bound {PER_COMMIT}): commit grew a per-node allocation",
        small.max(large)
    );
}
