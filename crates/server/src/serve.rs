//! The session-pool contract the daemon's document table serves, tested
//! against [`DocTable`](crate::pool::DocTable): at most `capacity`
//! sessions exist, only idle sessions are evicted and an evicted one is
//! parked whole, and one document's commits are serialised across
//! threads. These are the guarantees `xvu_propagate::SessionPool` gave
//! before the table replaced it; the tests keep that pool's names.

mod tests {
    use crate::pool::tests::{engine_and_doc, table_with};
    use crate::pool::{DocTable, LeaseError};
    use xvu_propagate::Engine;
    use xvu_tree::NodeIdGen;
    use xvu_view::extract_view;
    use xvu_workload::scenario::{admit_patient, hospital, hospital_doc, Hospital};

    #[test]
    fn pool_capacity_bounds_new_checkouts() {
        let (engine, t, _) = engine_and_doc();
        let table = table_with(&engine, 2, &t, 4);
        assert_eq!(table.capacity(), 2);
        let (held, _) = table.lease(1).unwrap();
        drop(table.lease(2).unwrap());
        assert_eq!(table.resident(), 2);
        // leased and resident sessions both count: a third document takes
        // the resident one's place instead of opening past the bound
        let (third, evicted) = table.lease(3).unwrap();
        assert_eq!(evicted, Some(2));
        assert_eq!(table.resident(), 2);
        drop(third);
        // a document that is already open keeps serving at capacity
        assert_eq!(table.lease(3).unwrap().1, None);
        drop(held);
        // cycling through more documents than the bound never grows it
        for round in 0..3 {
            for doc in 1..=4 {
                drop(table.lease(doc).unwrap());
                assert_eq!(table.resident(), 2, "round {round}, document {doc}");
            }
        }
    }

    #[test]
    fn pool_evicts_only_parked_sessions() {
        let (engine, t, s0) = engine_and_doc();
        let table = table_with(&engine, 1, &t, 2);
        let (mut lease, _) = table.lease(1).unwrap();
        lease.apply(&s0).unwrap();
        let committed = lease.document().clone();
        // the only session is leased: it is never evicted, the new
        // document is refused and the table is left intact
        assert!(matches!(table.lease(2), Err(LeaseError::Full)));
        assert_eq!(table.resident(), 1);
        drop(lease);
        // idle now: leasing document 2 evicts it
        assert_eq!(table.lease(2).unwrap().1, Some(1));
        assert_eq!(table.resident(), 1);
        // the evicted session was parked whole: the reopened session
        // starts from its committed, schema-valid document
        let (lease, evicted) = table.lease(1).unwrap();
        assert_eq!(evicted, Some(2));
        assert_eq!(lease.commits(), 0, "reopened");
        assert_eq!(lease.document(), &committed);
        assert!(engine.dtd().is_valid(lease.document()));
    }

    #[test]
    fn pool_serialises_commits_per_document_across_threads() {
        // Distinct documents commit in parallel; the same document is
        // serialised by its lease, so commits never interleave.
        let Hospital { alpha, dtd, ann } = hospital();
        let h = Hospital {
            alpha: alpha.clone(),
            dtd: dtd.clone(),
            ann: ann.clone(),
        };
        let mut gen = NodeIdGen::new();
        let engine = Engine::builder()
            .alphabet(alpha)
            .dtd(dtd)
            .annotation(ann)
            .build()
            .unwrap();
        let docs = 4u64;
        let table = DocTable::new(docs as usize);
        for doc in 0..docs {
            let parked = engine.park(hospital_doc(&h, 2, 6, &mut gen)).unwrap();
            table.load(doc, 0, parked);
        }
        let rounds = 3u64;
        std::thread::scope(|scope| {
            for worker in 0..8u64 {
                let (table, h) = (&table, &h);
                scope.spawn(move || {
                    for round in 0..rounds {
                        // workers collide on documents on purpose
                        let doc = (worker + round) % docs;
                        let (mut lease, _) = table.lease(doc).unwrap();
                        let mut g = lease.id_gen();
                        let update = admit_patient(h, lease.document(), doc as usize % 2, &mut g);
                        lease.apply(&update).unwrap();
                    }
                });
            }
        });
        // every admission committed exactly once, 8 workers × 3 rounds
        let mut total = 0;
        for doc in 0..docs {
            let (lease, evicted) = table.lease(doc).unwrap();
            assert_eq!(evicted, None);
            total += lease.commits();
            assert!(engine.dtd().is_valid(lease.document()));
            assert_eq!(
                lease.view(),
                &extract_view(engine.annotation(), lease.document())
            );
        }
        assert_eq!(total, 8 * rounds);
    }
}
