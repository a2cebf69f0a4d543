//! Observational equivalence of the engine's propagation memo.
//!
//! The structure-keyed memo must be invisible in every observable: for
//! random documents and random update sequences driven through one
//! long-lived session, memoised propagation must produce byte-identical
//! results — cost, script, optimal-propagation count — to the memo-off
//! path and to fresh per-step computation, across commits that re-intern
//! only the dirty region. After every commit the incrementally patched
//! view is checked against one extracted from scratch (`commit_oracle`).

use proptest::prelude::*;
use xml_view_update::prelude::*;
use xml_view_update::workload::differential::commit_oracle;
use xml_view_update::workload::replay::instance_dump;
use xml_view_update::workload::{
    generate_annotation, generate_doc, generate_dtd, generate_update, ChurnConfig, ChurnStream,
    DocGenConfig, DtdGenConfig, UpdateGenConfig,
};

/// Everything observable about a propagation: cost, the exact script
/// (identifier-sensitive term form), and the optimal count.
fn fingerprint(p: &Propagation, alpha: &Alphabet) -> (u64, String, Option<u128>) {
    (
        p.cost,
        script_to_term(&p.script, alpha),
        count_optimal_propagations(&p.forest),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random update sequences through one long-lived session: at every
    /// step, (a) a cold and a warm propagate on a fresh session are
    /// byte-identical to a fresh one-shot `Instance` (the warm call is
    /// served from a populated cache); (b) the long-lived cached and
    /// uncached sessions agree byte-for-byte with each other and with the
    /// one-shot on cost and count; (c) commits keep both sessions in
    /// lock-step.
    #[test]
    fn session_cache_matches_one_shot(seed in 0u64..1500) {
        let mut alpha = Alphabet::new();
        let dtd = generate_dtd(&mut alpha, &DtdGenConfig::default(), seed);
        let ann = generate_annotation(&alpha, 0.3, seed ^ 71, &[]);
        let root = alpha.get("l0").unwrap();
        let mut gen = NodeIdGen::new();
        let doc = generate_doc(&dtd, alpha.len(), root,
            &DocGenConfig { max_depth: 4, max_children: 5, ..DocGenConfig::default() },
            seed ^ 72, &mut gen);

        let engine = Engine::builder()
            .alphabet(alpha.clone())
            .dtd(dtd.clone())
            .annotation(ann.clone())
            .build()
            .unwrap();
        let uncached_engine = Engine::builder()
            .alphabet(alpha.clone())
            .dtd(dtd.clone())
            .annotation(ann.clone())
            .prop_cache(false)
            .build()
            .unwrap();

        let mut cached = engine.open(&doc).unwrap();
        let mut uncached = uncached_engine.open(&doc).unwrap();
        let mut chain_doc = doc; // the fresh-one-shot chain's document

        for step in 0..4u64 {
            let mut g = cached.id_gen();
            let update = generate_update(&dtd, &ann, alpha.len(), &chain_doc,
                &UpdateGenConfig { ops: 2, ..UpdateGenConfig::default() },
                seed ^ (3000 + step), &mut g);

            // replayable context for every assertion at this step: the
            // seed rebuilds the whole chain, the dump pins the exact
            // document + update the step saw
            let dump = instance_dump(
                &format!("session_cache_matches_one_shot seed {seed}, step {step}"),
                &alpha, &dtd, &ann, &chain_doc, &update,
            );

            // fresh one-shot against the chain document
            let inst = Instance::new(&dtd, &ann, &chain_doc, &update, alpha.len()).unwrap();
            let one_shot = propagate(&inst, &InsertletPackage::new(), &Config::default()).unwrap();
            let os_fp = fingerprint(&one_shot, &alpha);

            // a fresh session on the same document: the cold call fills
            // its cache, the warm call is served from it; both must be
            // byte-identical to the one-shot
            let fresh = engine.open(&chain_doc).unwrap();
            let cold = fresh.propagate(&update).unwrap();
            let warm = fresh.propagate(&update).unwrap();
            prop_assert_eq!(fingerprint(&cold, &alpha), os_fp.clone(), "cold\n{}", dump);
            prop_assert_eq!(fingerprint(&warm, &alpha), os_fp.clone(), "warm\n{}", dump);

            // long-lived sessions: cache on vs off, byte-identical
            let pc = cached.propagate(&update).unwrap();
            let pu = uncached.propagate(&update).unwrap();
            prop_assert_eq!(
                fingerprint(&pc, &alpha),
                fingerprint(&pu, &alpha),
                "cached vs uncached session\n{}", dump
            );
            // and they agree with the one-shot on every gen-independent
            // observable (hidden insertlet identifiers may differ once the
            // session's high-water mark outruns the chain's)
            prop_assert_eq!(pc.cost, one_shot.cost, "cost vs one-shot\n{}", dump);
            prop_assert_eq!(
                count_optimal_propagations(&pc.forest),
                count_optimal_propagations(&one_shot.forest),
                "count vs one-shot\n{}", dump
            );
            let out_session = output_tree(&pc.script).unwrap();
            let out_chain = output_tree(&one_shot.script).unwrap();
            prop_assert!(out_session.isomorphic(&out_chain), "outputs isomorphic\n{}", dump);
            prop_assert_eq!(
                extract_view(&ann, &out_session),
                extract_view(&ann, &out_chain),
                "user-visible effect exact\n{}", dump
            );

            for (session, prop) in [(&mut cached, &pc), (&mut uncached, &pu)] {
                let before = session.id_gen();
                session.commit(prop).unwrap();
                let oracle = commit_oracle(session, &before);
                prop_assert!(oracle.is_ok(), "{:?}\n{}", oracle, dump);
            }
            prop_assert_eq!(cached.document(), uncached.document(), "commit lock-step\n{}", dump);
            chain_doc = out_chain;
        }
        prop_assert_eq!(cached.commits(), 4);
    }
}

/// A second update landing *inside* a previously-dirty region must never
/// read stale memos: after a commit that edited one department, another
/// edit of the same department propagates byte-identically to a fresh
/// session that never had a cache to go stale.
#[test]
fn second_update_inside_dirty_region_never_reads_stale_memos() {
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "r -> d*\nd -> (a.h?)*").unwrap();
    let ann = parse_annotation(&mut alpha, "hide d h").unwrap();
    let mut gen = NodeIdGen::new();
    let doc = xml_view_update::tree::parse_term_with_ids(
        &mut alpha,
        &mut gen,
        "r#0(d#1(a#2, h#3, a#4), d#5(a#6), d#7(a#8, h#9))",
    )
    .unwrap();
    let engine = Engine::builder()
        .alphabet(alpha.clone())
        .dtd(dtd)
        .annotation(ann)
        .build()
        .unwrap();
    let mut session = engine.open(&doc).unwrap();

    // Warm every memo with an identity update, then dirty d#1's region.
    session.propagate(&nop_script(session.view())).unwrap();
    let u1 = parse_script(
        &mut alpha,
        "nop:r#0(nop:d#1(nop:a#2, nop:a#4, ins:a#20), nop:d#5(nop:a#6), nop:d#7(nop:a#8))",
    )
    .unwrap();
    let p1 = session.propagate(&u1).unwrap();
    session.commit(&p1).unwrap();

    // Second update inside the previously-dirty region: delete the very
    // node the first update inserted, and one of the originals.
    let u2 = parse_script(
        &mut alpha,
        "nop:r#0(nop:d#1(nop:a#2, del:a#4, del:a#20), nop:d#5(nop:a#6), nop:d#7(nop:a#8))",
    )
    .unwrap();
    let before = engine.cache_stats();
    let p2 = session.propagate(&u2).unwrap();
    let after = engine.cache_stats();

    // A session of a memo-off engine on the post-commit document has no
    // memo that could be stale; byte-identity proves the long-lived
    // session read no stale memo either. (No hidden material is minted
    // under this schema, so identifier frontiers cannot diverge.)
    let off = Engine::builder()
        .alphabet(alpha.clone())
        .dtd(engine.dtd().clone())
        .annotation(engine.annotation().clone())
        .prop_cache(false)
        .build()
        .unwrap();
    let fresh = off.open(session.document()).unwrap();
    let p2_fresh = fresh.propagate(&u2).unwrap();
    assert_eq!(p2.cost, p2_fresh.cost);
    assert_eq!(
        script_to_term(&p2.script, &alpha),
        script_to_term(&p2_fresh.script, &alpha)
    );
    assert_eq!(
        count_optimal_propagations(&p2.forest),
        count_optimal_propagations(&p2_fresh.forest)
    );

    // And the clean region genuinely served hits (d#5, d#7, their a's —
    // their structural keys survived the commit).
    assert!(
        after.hits > before.hits,
        "clean region must hit across the commit: {after:?}"
    );
}

/// The identity update on the 10×125 hospital (10,011 nodes, 3,761 view
/// nodes) looks the memo up once, at its clean root, and that miss fills
/// one count (and typing run) per *distinct structure* among the preserved
/// nodes, not one per view node: structurally equal nodes met in the same
/// fill find what the first one stored.
#[test]
fn identity_warm_up_misses_once_per_distinct_structure() {
    use std::collections::HashSet;
    use xml_view_update::workload::scenario::{hospital, hospital_doc};
    let h = hospital();
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, 10, 125, &mut gen);
    let engine = Engine::new(h.alpha.clone(), h.dtd.clone(), h.ann.clone());
    let session = engine.open(&doc).unwrap();
    let view = session.view();
    // Ground truth from an independent interner: the distinct subtree
    // structures of the preserved (visible) source nodes.
    let mut interner = Interner::new();
    let ids = interner.intern_doc(&doc);
    let distinct: HashSet<InternId> = view
        .postorder()
        .map(|n| ids[doc.slot(n).unwrap()])
        .collect();

    let prop = session.propagate(&nop_script(view)).unwrap();
    assert_eq!(prop.cost, 0);
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "{stats:?}");
    assert_eq!(stats.entries, distinct.len(), "{stats:?}");
    assert!(
        distinct.len() * 100 < view.size(),
        "{} structures for {} view nodes",
        distinct.len(),
        view.size()
    );
}

/// Churn streams (localized small edits, commit after every propagate)
/// through cached and uncached sessions stay in lock-step for the whole
/// stream — the serving-shaped version of the equivalence property.
#[test]
fn churn_stream_cached_equals_uncached() {
    use xml_view_update::workload::scenario::{hospital, hospital_doc, Hospital};
    for seed in [3u64, 17, 40] {
        let Hospital { alpha, dtd, ann } = hospital();
        let h = Hospital {
            alpha: alpha.clone(),
            dtd: dtd.clone(),
            ann: ann.clone(),
        };
        let mut gen = NodeIdGen::new();
        let doc = hospital_doc(&h, 3, 10, &mut gen);
        let engine = Engine::builder()
            .alphabet(alpha.clone())
            .dtd(dtd.clone())
            .annotation(ann.clone())
            .build()
            .unwrap();
        let uncached_engine = Engine::builder()
            .alphabet(alpha.clone())
            .dtd(dtd.clone())
            .annotation(ann.clone())
            .prop_cache(false)
            .build()
            .unwrap();
        let mut cached = engine.open(&doc).unwrap();
        let mut uncached = uncached_engine.open(&doc).unwrap();
        let mut stream = ChurnStream::new(&dtd, &ann, alpha.len(), ChurnConfig::default(), seed);
        for step in 0..8 {
            let mut g = cached.id_gen();
            let u = stream.next_update(cached.document(), &mut g);
            let dump = instance_dump(
                &format!("churn_stream_cached_equals_uncached seed {seed}, step {step}"),
                &alpha,
                &dtd,
                &ann,
                cached.document(),
                &u,
            );
            let pc = cached.propagate(&u).unwrap();
            let pu = uncached.propagate(&u).unwrap();
            assert_eq!(
                fingerprint(&pc, &alpha),
                fingerprint(&pu, &alpha),
                "cached vs uncached\n{dump}"
            );
            for (session, prop) in [(&mut cached, &pc), (&mut uncached, &pu)] {
                let before = session.id_gen();
                session.commit(prop).unwrap();
                commit_oracle(session, &before).unwrap_or_else(|e| panic!("{e}\n{dump}"));
            }
            assert_eq!(cached.document(), uncached.document(), "commit\n{dump}");
        }
        let stats = engine.cache_stats();
        assert!(stats.hits > 0, "churn must exercise the memo: {stats:?}");
        assert_eq!(uncached_engine.cache_stats(), CacheStats::default());
    }
}

/// Parking a session and resuming it changes nothing observable: a
/// resumed session starts from the same document, view and identifier
/// floor as one `Engine::open` opens, and over a 20-edit hospital churn
/// stream a session parked and resumed every 5 edits propagates and
/// commits byte-identically to one never parked.
#[test]
fn park_and_resume_change_nothing() {
    use xml_view_update::workload::scenario::{hospital, hospital_doc};
    let h = hospital();
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, 3, 10, &mut gen);
    let engine = Engine::new(h.alpha.clone(), h.dtd.clone(), h.ann.clone());
    let mut kept = engine.open(&doc).unwrap();
    let mut parked = engine.park(doc).unwrap().resume();
    let same = |a: &Session<'_>, b: &Session<'_>, at: &str| {
        assert_eq!(a.document(), b.document(), "{at}");
        assert_eq!(a.view(), b.view(), "{at}");
        assert_eq!(a.id_gen().peek(), b.id_gen().peek(), "{at}");
    };
    same(&kept, &parked, "resumed");
    // Seed 10 deletes a newest node before one of the resumes, so that
    // resume's floor lies past the document's own identifiers.
    let mut stream = ChurnStream::new(&h.dtd, &h.ann, h.alpha.len(), ChurnConfig::default(), 10);
    let mut floors_kept = 0;
    for step in 0..20 {
        if step > 0 && step % 5 == 0 {
            parked = parked.park().resume();
            same(&kept, &parked, &format!("resumed before step {step}"));
            let reopened = engine.open(parked.document()).unwrap();
            floors_kept += usize::from(reopened.id_gen().peek() < parked.id_gen().peek());
        }
        let update = stream.next_update(kept.document(), &mut kept.id_gen());
        let (pk, pp) = (
            kept.propagate(&update).unwrap(),
            parked.propagate(&update).unwrap(),
        );
        assert_eq!(
            fingerprint(&pk, &h.alpha),
            fingerprint(&pp, &h.alpha),
            "step {step}"
        );
        kept.commit(&pk).unwrap();
        parked.commit(&pp).unwrap();
        same(&kept, &parked, &format!("step {step}"));
    }
    assert!(floors_kept > 0, "the stream never deleted its newest node");
}
