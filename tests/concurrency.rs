//! Concurrent serving: the `Send + Sync` engine contract and batch
//! determinism across thread counts.
//!
//! The paper's Theorem 6 artefacts are compiled once into an immutable
//! [`Engine`]; these tests pin down the serving consequences: one
//! `Arc<Engine>` shared by plain OS threads, and `propagate_batch`
//! results that are byte-identical whatever the worker count, and sessions
//! of different documents, each with its own memo, committing side by
//! side on one engine. The daemon's document table has its own tests
//! (`xvu_server`, `pool::tests` and `serve::tests`).

use std::sync::{Arc, Mutex};
use xml_view_update::prelude::*;
use xml_view_update::workload::scenario::{admit_patient, hospital, hospital_doc, Hospital};
use xml_view_update::workload::{
    generate_annotation, generate_doc, generate_dtd, generate_update, DocGenConfig, DtdGenConfig,
    UpdateGenConfig,
};

/// The engine (and everything batch workers share or return) crosses
/// threads — checked by the compiler, exercised nowhere else. This is the
/// `Arc<Engine>` sharing contract.
#[test]
fn engine_and_serving_types_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineBuilder>();
    assert_send_sync::<Propagation>();
    assert_send_sync::<PropagateError>();
    assert_send_sync::<Session<'static>>();
}

fn paper_engine() -> (Engine, DocTree, Script) {
    let mut alpha = Alphabet::new();
    let mut gen = NodeIdGen::new();
    let dtd = parse_dtd(&mut alpha, "r -> (a.(b+c).d)*\nd -> ((a+b).c)*").unwrap();
    let ann = parse_annotation(&mut alpha, "hide r b\nhide r c\nhide d a\nhide d b").unwrap();
    let t0 = parse_term_with_ids(
        &mut alpha,
        &mut gen,
        "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))",
    )
    .unwrap();
    let s0 = parse_script(
        &mut alpha,
        "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
         ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))",
    )
    .unwrap();
    let engine = Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .unwrap();
    (engine, t0, s0)
}

/// One `Arc<Engine>` serves detached (non-scoped) threads — the `'static`
/// sharing shape a real server uses.
#[test]
fn arc_engine_serves_spawned_threads() {
    let (engine, t0, s0) = paper_engine();
    let engine = Arc::new(engine);
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let (t, s) = (t0.clone(), s0.clone());
            std::thread::spawn(move || {
                let session = engine.open(&t).unwrap();
                let prop = session.propagate(&s).unwrap();
                session.verify(&s, &prop.script).unwrap();
                prop.cost
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().unwrap(), 14); // the paper's Fig. 7 optimum
    }
}

/// A randomized engine + a batch of `(document, update)` requests over it,
/// deterministic in `seed`. Several documents of the same schema, one
/// generated update each.
fn random_requests(labels: usize, docs: usize, seed: u64) -> (Engine, Vec<(DocTree, Script)>) {
    let mut alpha = Alphabet::new();
    let dtd = generate_dtd(
        &mut alpha,
        &DtdGenConfig {
            labels,
            ..DtdGenConfig::default()
        },
        seed,
    );
    let ann = generate_annotation(&alpha, 0.3, seed ^ 101, &[]);
    let root = alpha.get("l0").unwrap();
    let mut gen = NodeIdGen::new();
    let mut requests = Vec::new();
    for i in 0..docs as u64 {
        let doc = generate_doc(
            &dtd,
            alpha.len(),
            root,
            &DocGenConfig {
                max_nodes: 300,
                max_depth: 6,
                max_children: 8,
                stop_bias: 0.05,
            },
            seed ^ (202 + i),
            &mut gen,
        );
        let update = generate_update(
            &dtd,
            &ann,
            alpha.len(),
            &doc,
            &UpdateGenConfig {
                ops: 3,
                ..UpdateGenConfig::default()
            },
            seed ^ (303 + i),
            &mut gen,
        );
        requests.push((doc, update));
    }
    let engine = Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .unwrap();
    (engine, requests)
}

/// The determinism contract: `propagate_batch` across 1 vs N worker
/// threads yields byte-identical propagations — same cost, same script
/// tree (identifier-sensitive equality) — on the randomized workload
/// generators.
#[test]
fn batch_results_are_thread_count_invariant() {
    for seed in [1234u64, 77, 9001] {
        let (engine, requests) = random_requests(32, 12, seed);
        let baseline = engine.propagate_batch(&requests, 1);
        assert!(
            baseline.iter().filter(|r| r.is_ok()).count() >= requests.len() / 2,
            "seed {seed}: workload generator produced mostly failing requests"
        );
        for jobs in [2usize, 4, 8] {
            let parallel = engine.propagate_batch(&requests, jobs);
            assert_eq!(parallel.len(), baseline.len());
            for (i, (p, b)) in parallel.iter().zip(&baseline).enumerate() {
                match (p, b) {
                    (Ok(p), Ok(b)) => {
                        assert_eq!(p.cost, b.cost, "seed {seed} request {i} jobs {jobs}");
                        assert_eq!(
                            p.script, b.script,
                            "seed {seed} request {i} jobs {jobs}: scripts diverge"
                        );
                    }
                    (Err(p), Err(b)) => {
                        assert_eq!(p, b, "seed {seed} request {i} jobs {jobs}: errors diverge")
                    }
                    _ => panic!(
                        "seed {seed} request {i} jobs {jobs}: Ok/Err disagreement with 1-thread run"
                    ),
                }
            }
        }
    }
}

/// The memo is a pure cache: for the same randomized batch, an engine
/// with the memo on and one with it off return byte-identical
/// propagations at every worker count. Each request of the memo-on engine
/// gets a table of its own, so a second pass finds nothing the first
/// stored and no entry outlives its request.
#[test]
fn shared_cache_modes_are_batch_invariant() {
    for seed in [1234u64, 77, 9001] {
        // `random_requests` builds the default engine: memo on.
        let (engine, requests) = random_requests(32, 12, seed);
        let uncached = Engine::builder()
            .alphabet(engine.alphabet().clone())
            .dtd(engine.dtd().clone())
            .annotation(engine.annotation().clone())
            .prop_cache(false)
            .build()
            .unwrap();
        let baseline = uncached.propagate_batch(&requests, 1);
        for jobs in [1usize, 2, 4, 8] {
            for (name, eng) in [("memo", &engine), ("uncached", &uncached)] {
                // two passes: the second starts as cold as the first
                eng.propagate_batch(&requests, jobs);
                let got = eng.propagate_batch(&requests, jobs);
                assert_eq!(got.len(), baseline.len());
                for (i, (g, b)) in got.iter().zip(&baseline).enumerate() {
                    match (g, b) {
                        (Ok(g), Ok(b)) => {
                            assert_eq!(g.cost, b.cost, "seed {seed} {name} req {i} jobs {jobs}");
                            assert_eq!(
                                g.script, b.script,
                                "seed {seed} {name} req {i} jobs {jobs}: scripts diverge"
                            );
                        }
                        (Err(g), Err(b)) => {
                            assert_eq!(g, b, "seed {seed} {name} req {i} jobs {jobs}")
                        }
                        _ => panic!("seed {seed} {name} req {i} jobs {jobs}: Ok/Err disagreement"),
                    }
                }
            }
        }
        // the memo participated, and its tables ended with their requests
        let stats = engine.cache_stats();
        assert!(stats.misses > 0 && stats.entries == 0, "{stats:?}");
        assert_eq!(uncached.cache_stats(), CacheStats::default());
    }
}

/// Hospital (document-heavy) determinism, and every batch propagation is
/// verifiable against a fresh session of its own document.
#[test]
fn hospital_batch_is_deterministic_and_sound() {
    let Hospital { alpha, dtd, ann } = hospital();
    let h = Hospital {
        alpha: alpha.clone(),
        dtd: dtd.clone(),
        ann: ann.clone(),
    };
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, 3, 10, &mut gen);
    let requests: Vec<(DocTree, Script)> = (0..8)
        .map(|i| (doc.clone(), admit_patient(&h, &doc, i % 3, &mut gen)))
        .collect();
    let engine = Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .unwrap();
    let baseline = engine.propagate_batch(&requests, 1);
    let parallel = engine.propagate_batch(&requests, 4);
    for (i, ((p, b), (rdoc, rupd))) in parallel.iter().zip(&baseline).zip(&requests).enumerate() {
        let (p, b) = (p.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(p.cost, b.cost, "request {i}");
        assert_eq!(p.script, b.script, "request {i}");
        // soundness: an independent session re-verifies the parallel result
        engine.open(rdoc).unwrap().verify(rupd, &p.script).unwrap();
    }
}

/// Sessions of one engine on many threads, one lock per document (the
/// contract above: a session belongs to one worker at a time). Each owns
/// its memo and all add to the engine's counters, and commits stay
/// isolated per document: 8 workers × 3 rounds collide on 4 hospital documents and
/// every admission lands exactly once, in its own document.
#[test]
fn session_pool_isolates_commits_per_document() {
    let Hospital { alpha, dtd, ann } = hospital();
    let h = Hospital {
        alpha: alpha.clone(),
        dtd: dtd.clone(),
        ann: ann.clone(),
    };
    let mut gen = NodeIdGen::new();
    let docs: Vec<DocTree> = (0..4).map(|_| hospital_doc(&h, 2, 6, &mut gen)).collect();
    let engine = Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .unwrap();
    let pool: Vec<Mutex<Session<'_>>> = docs
        .iter()
        .map(|doc| Mutex::new(engine.open(doc).unwrap()))
        .collect();
    let rounds = 3;
    std::thread::scope(|scope| {
        for worker in 0..8usize {
            let (pool, h) = (&pool, &h);
            scope.spawn(move || {
                for round in 0..rounds {
                    // workers collide on documents on purpose
                    let key = (worker + round) % pool.len();
                    let mut session = pool[key].lock().unwrap();
                    let mut g = session.id_gen();
                    let update = admit_patient(h, session.document(), key % 2, &mut g);
                    session.apply(&update).unwrap();
                }
            });
        }
    });
    // every admission committed exactly once, 8 workers × 3 rounds total
    let sessions: Vec<Session<'_>> = pool.into_iter().map(|m| m.into_inner().unwrap()).collect();
    let total: u64 = sessions.iter().map(Session::commits).sum();
    assert_eq!(total, 8 * rounds as u64);
    for session in &sessions {
        // two workers meet each document per round: 6 admissions apiece
        assert_eq!(session.commits(), 6);
        // and each document is still schema-valid with a consistent view
        assert!(engine.dtd().is_valid(session.document()));
        assert_eq!(
            session.view(),
            &extract_view(engine.annotation(), session.document())
        );
    }
}
