//! One-shot vs engine-amortized propagation on repeated-update workloads.
//!
//! The one-shot path (`Instance::new` + `propagate`) re-derives every
//! update-independent artefact per call: source validation, view
//! extraction, the derived view DTD, and the min-size tables. The engine
//! path pays that once (`Engine` build + `Session` open) and then serves
//! each update with only update-dependent work. This bench measures both
//! paths end-to-end — engine compilation and session open are *inside*
//! the timed region — across 1/10/100 distinct updates against one
//! scaling-workload document, so the reported per-element time is the
//! honest amortized per-update cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use xvu_bench::{hospital_update_batch, random_update_batch, OwnedInstance};
use xvu_dtd::InsertletPackage;
use xvu_edit::Script;
use xvu_propagate::{propagate, Config, Instance};

fn run_pair(
    group: &mut criterion::BenchmarkGroup<'_>,
    k: usize,
    oi: &OwnedInstance,
    updates: &[Script],
) {
    group.throughput(Throughput::Elements(k as u64));
    group.bench_with_input(BenchmarkId::new("one_shot", k), &k, |b, _| {
        b.iter(|| {
            let mut total = 0u64;
            for u in updates {
                let inst = Instance::new(&oi.dtd, &oi.ann, &oi.doc, u, oi.alpha.len())
                    .expect("valid instance");
                total += propagate(&inst, &InsertletPackage::new(), &Config::default())
                    .expect("Theorem 5")
                    .cost;
            }
            black_box(total)
        })
    });
    group.bench_with_input(BenchmarkId::new("engine_amortized", k), &k, |b, _| {
        b.iter(|| {
            let engine = oi.engine();
            let session = engine.open(&oi.doc).expect("valid document");
            let mut total = 0u64;
            for u in updates {
                total += session.propagate(u).expect("Theorem 5").cost;
            }
            black_box(total)
        })
    });
}

fn bench_repeated_hospital(c: &mut Criterion) {
    // Document-heavy: per-update graph building dominates, so the engine
    // win is the (modest) schema-compile fraction.
    let mut group = c.benchmark_group("repeated_updates_hospital");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for k in [1usize, 10, 100] {
        let (oi, updates) = hospital_update_batch(4, 30, k);
        run_pair(&mut group, k, &oi, &updates);
    }
    group.finish();
}

fn bench_repeated_random(c: &mut Criterion) {
    // Schema-heavy (32-label DTD, small updates): the one-shot path's
    // per-call re-derivation dominates and amortization is dramatic.
    let mut group = c.benchmark_group("repeated_updates_random32");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for k in [1usize, 10, 100] {
        let (oi, updates) = random_update_batch(32, 400, 3, k, 1234);
        run_pair(&mut group, k, &oi, &updates);
    }
    group.finish();
}

fn bench_committed_sequence(c: &mut Criterion) {
    // Absolute cost of a *committed* update sequence: each `apply`
    // advances the session document with incremental revalidation. Not a
    // paired comparison — updates must target the evolving view, so they
    // are generated inside the timed region (against `session.document()`)
    // and have no meaningful one-shot counterpart here.
    let mut group = c.benchmark_group("repeated_updates_committed");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for k in [1usize, 10] {
        let oi = xvu_bench::hospital_instance(4, 30);
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("session_commit", k), &k, |b, _| {
            b.iter(|| {
                let engine = oi.engine();
                let mut session = engine.open(&oi.doc).expect("valid document");
                let h = xvu_workload::scenario::Hospital {
                    alpha: oi.alpha.clone(),
                    dtd: oi.dtd.clone(),
                    ann: oi.ann.clone(),
                };
                let mut total = 0u64;
                for i in 0..k {
                    let mut gen = session.id_gen();
                    let u = xvu_workload::scenario::admit_patient(
                        &h,
                        session.document(),
                        i % 4,
                        &mut gen,
                    );
                    total += session.apply(&u).expect("Theorem 5").cost;
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    // The memoised workload: K small localized edits through one session
    // (propagate + commit each), memo on vs off. Same pregenerated stream
    // both ways — results are byte-identical, only the recomputation
    // differs.
    let mut group = c.benchmark_group("repeated_updates_churn");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for k in [10usize, 50] {
        let (oi, updates) = xvu_bench::hospital_churn_batch(4, 30, k, 0xc0ffee);
        for (name, engine) in [("cached", oi.engine()), ("uncached", oi.engine_uncached())] {
            group.throughput(Throughput::Elements(k as u64));
            group.bench_with_input(BenchmarkId::new(name, k), &k, |b, _| {
                b.iter(|| black_box(xvu_bench::run_churn_session(&engine, &oi.doc, &updates)))
            });
        }
    }
    group.finish();
}

fn bench_enumerated(c: &mut Criterion) {
    // The grammar-space enumeration folded into the repeated-update
    // benches: one representative family per regime, K churn edits
    // committed through a long-lived session — the same per-family
    // serving pattern the daemon amortizes, measured per regime so cost
    // shifts in any one grammar shape are visible in isolation. Each
    // regime runs twice: `<regime>` on an engine with the memo off (the
    // unmemoised baseline) and `<regime>_memo` through fresh sessions of
    // an engine whose memo was warmed by one untimed replay of the same
    // deterministic churn stream, so the pair prices exactly what the
    // structure-keyed memo buys per grammar shape.
    use xvu_workload::enumo::{enumerate_instances, EnumBudget};
    use xvu_workload::{ChurnConfig, ChurnStream};

    let mut group = c.benchmark_group("repeated_updates_enumerated");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    const K: usize = 10;
    let instances = enumerate_instances(&EnumBudget::default());
    for regime in [
        "plain",
        "wide-alternation",
        "heavy-hiding",
        "deep-recursion",
    ] {
        let Some(inst) = instances.iter().find(|i| i.regime() == regime) else {
            continue;
        };
        let builder = || {
            xvu_propagate::Engine::builder()
                .alphabet(inst.alpha.clone())
                .dtd(inst.dtd.clone())
                .annotation(inst.ann.clone())
        };
        let uncached = builder()
            .prop_cache(false)
            .build()
            .expect("enumerated artefacts compile");
        let memo = builder().build().expect("enumerated artefacts compile");
        let replay = |engine: &xvu_propagate::Engine| {
            let mut session = engine.open(&inst.doc).expect("enumerated doc is valid");
            let mut stream = ChurnStream::for_enumerated(inst, ChurnConfig::default(), 0xE7E7);
            let mut total = 0u64;
            for _ in 0..K {
                let mut gen = session.id_gen();
                let u = stream.next_update(session.document(), &mut gen);
                total += session.apply(&u).expect("Theorem 5").cost;
            }
            total
        };
        // Warm the memo once, untimed; the stream is seed-fixed so every
        // measured fresh session replays the identical evolution.
        replay(&memo);
        group.throughput(Throughput::Elements(K as u64));
        group.bench_with_input(BenchmarkId::new(regime, K), &K, |b, _| {
            b.iter(|| black_box(replay(&uncached)))
        });
        group.bench_with_input(BenchmarkId::new(format!("{regime}_memo"), K), &K, |b, _| {
            b.iter(|| black_box(replay(&memo)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_repeated_hospital,
    bench_repeated_random,
    bench_committed_sequence,
    bench_churn,
    bench_enumerated
);
criterion_main!(benches);
