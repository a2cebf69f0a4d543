//! Aggregate batch-serving throughput over 1/2/4/8 worker threads.
//!
//! One compiled [`xvu_propagate::Engine`] is shared (by reference — the
//! `Send + Sync` contract `Arc<Engine>` relies on) across a std-only
//! worker pool, serving a fixed batch of independent requests via
//! `Engine::propagate_batch`. The figure of merit is wall-clock time for
//! the *whole batch* at each thread count:
//!
//! * `throughput_random32` — the schema-heavy workload (32-label random
//!   DTD, small updates): per-request work is compute-bound graph
//!   construction, the embarrassingly parallel case.
//! * `throughput_hospital` — the document-heavy workload (4×30 hospital):
//!   larger documents per request, same sharing shape.
//!
//! Scaling beyond the machine's core count cannot help (the work is pure
//! CPU); on a single-core host every thread count collapses to ~1× and
//! the bench then measures pool overhead instead of speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use xvu_bench::{batch_requests, hospital_update_batch, random_update_batch};

/// Requests per batch — large enough that the per-thread share at 8 jobs
/// is still several requests.
const BATCH: usize = 32;

/// Thread counts the ISSUE's scaling table asks for.
const JOBS: [usize; 4] = [1, 2, 4, 8];

fn run_scaling(
    group: &mut criterion::BenchmarkGroup<'_>,
    engine: &xvu_propagate::Engine,
    requests: &[(xvu_tree::DocTree, xvu_edit::Script)],
) {
    for jobs in JOBS {
        group.throughput(Throughput::Elements(requests.len() as u64));
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                let results = engine.propagate_batch(requests, jobs);
                let total: u64 = results
                    .iter()
                    .map(|r| r.as_ref().expect("Theorem 5").cost)
                    .sum();
                black_box(total)
            })
        });
    }
}

fn bench_batch_random32(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_random32");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    let (oi, updates) = random_update_batch(32, 400, 3, BATCH, 1234);
    let engine = oi.engine();
    let requests = batch_requests(&oi, &updates);
    run_scaling(&mut group, &engine, &requests);
    group.finish();
}

fn bench_batch_hospital(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_hospital");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    let (oi, updates) = hospital_update_batch(4, 30, BATCH);
    let engine = oi.engine();
    let requests = batch_requests(&oi, &updates);
    run_scaling(&mut group, &engine, &requests);
    group.finish();
}

criterion_group!(benches, bench_batch_random32, bench_batch_hospital);
criterion_main!(benches);
