//! Allocation gate for `Session::propagate` alone, across document size.
//!
//! The paper's propagation script spans the whole source, so propagate
//! starts from a bulk copy of the document and rewrites only the
//! footprint's child lists. The tree arena keeps every child list in one
//! buffer per tree, so that copy is a few bulk copies — node records,
//! child buffer, free list, identifier index — whatever the document's
//! size. One admission propagated through a 10,011-node hospital may
//! therefore allocate only a small constant more than the same admission
//! through a ~1k-node one, and never more than a fixed per-propagation
//! bound. A copy that allocated per node (one child list per internal
//! node) fails this gate by thousands.
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

/// Extra allocations a 10× larger document may cost one propagation:
/// ~1.5× the measured difference (168 at 974 nodes, 181 at 10,020 in a
/// release build; 172 and 185 in a debug build), which comes from
/// buffers that grow with the document reallocating a few more times.
/// A copy allocating one child list per internal node measures 423 and
/// 2,703.
const SLACK: u64 = 21;

/// Allocations any one admission propagation may cost, at either size:
/// the measured 185 plus a margin of ~1.5×.
const PER_PROPAGATE: u64 = 280;

/// The document size and the allocations of one warm `Session::propagate`
/// of an admission into the first department of a hospital with
/// `departments × patients` patients.
fn propagate_allocs(departments: usize, patients: usize) -> (usize, u64) {
    let h = hospital();
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, departments, patients, &mut gen);
    let engine = Engine::new(h.alpha.clone(), h.dtd.clone(), h.ann.clone());
    let mut session = engine.open(&doc).expect("hospital documents are valid");
    // Warm-up admissions fill the session memo and the session's pooled
    // scratch, and leave the document with edited child lists.
    for _ in 0..3 {
        let mut ids = session.id_gen();
        let update = admit_patient(&h, session.document(), 0, &mut ids);
        session.apply(&update).expect("admissions commit");
    }
    let mut ids = session.id_gen();
    let update = admit_patient(&h, session.document(), 0, &mut ids);

    let (_, count) = count_allocs(|| session.propagate(&update).expect("admissions propagate"));
    (session.document().size(), count)
}

#[test]
fn propagate_allocations_do_not_grow_with_the_document() {
    let (small_nodes, small) = propagate_allocs(4, 30);
    let (large_nodes, large) = propagate_allocs(10, 125);
    assert!(small_nodes < 1_100 && large_nodes > 10_000);
    assert!(small > 0, "counter never engaged — harness broken");
    assert!(
        large <= small + SLACK,
        "a propagation at {large_nodes} nodes allocated {large} times, at {small_nodes} nodes \
         {small} (slack {SLACK}): propagate work grew with the document"
    );
    assert!(
        small.max(large) <= PER_PROPAGATE,
        "a propagation allocated {} times (bound {PER_PROPAGATE}): propagate grew a per-node \
         allocation",
        small.max(large)
    );
}
