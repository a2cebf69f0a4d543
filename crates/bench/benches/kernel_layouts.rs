//! Kernel benches for the propagation graphs.
//!
//! Harvest the per-node propagation graphs real forests produce for each
//! workload, then time two kernel arms over the identical query set —
//!
//! * `csr_fresh` — the CSR layout queried with a throwaway scratch per
//!   call;
//! * `csr_pooled` — CSR through one warm [`xvu_propagate::GraphScratch`],
//!   the configuration `Session` and `propagate_batch` actually run.
//!
//! The `enumerated_kernel` group adds one-shot end-to-end rows per
//! enumerated grammar regime (the PR 6 follow-on): the whole
//! default-budget regime propagates inside the timed region, so a kernel
//! regression on any grammar shape shows up in `cargo bench`, not just in
//! the `BENCH_propagate.json` snapshot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use xvu_bench::kernel::{harvest_from, harvest_graphs, sum_csr_fresh, sum_csr_pooled};
use xvu_bench::{hospital_churn_batch, random_update_batch};
use xvu_dtd::InsertletPackage;
use xvu_propagate::{propagate, Config, GraphScratch, Instance, PropGraph};
use xvu_workload::enumo::{enumerate_instances, EnumBudget};

/// The harvested graph sets: hospital churn, the schema-heavy random32
/// batch, and every default-budget instance of each enumerated regime.
fn workload_graph_sets() -> Vec<(String, Vec<PropGraph>)> {
    let mut sets = Vec::new();
    let (churn, _) = hospital_churn_batch(4, 30, 1, 0xc0ffee);
    sets.push(("hospital_churn".to_owned(), harvest_graphs(&churn)));
    let (random32, _) = random_update_batch(32, 400, 3, 1, 1234);
    sets.push(("random32".to_owned(), harvest_graphs(&random32)));
    let instances = enumerate_instances(&EnumBudget::default());
    for regime in [
        "plain",
        "wide-alternation",
        "heavy-hiding",
        "deep-recursion",
    ] {
        let graphs: Vec<PropGraph> = instances
            .iter()
            .filter(|i| i.regime() == regime)
            .flat_map(|i| harvest_from(&i.dtd, &i.ann, &i.doc, &i.update, i.alpha.len()))
            .collect();
        if !graphs.is_empty() {
            sets.push((regime.to_owned(), graphs));
        }
    }
    sets
}

fn bench_kernel_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_layouts");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for (name, graphs) in workload_graph_sets() {
        // Pre-warm the memoised CSRs so every arm times queries, not
        // one-time construction.
        let _ = sum_csr_fresh(&graphs);
        group.throughput(Throughput::Elements(graphs.len() as u64));
        group.bench_with_input(BenchmarkId::new("csr_fresh", &name), &(), |b, _| {
            b.iter(|| black_box(sum_csr_fresh(&graphs)))
        });
        group.bench_with_input(BenchmarkId::new("csr_pooled", &name), &(), |b, _| {
            let mut s = GraphScratch::default();
            b.iter(|| black_box(sum_csr_pooled(&graphs, &mut s)))
        });
    }
    group.finish();
}

fn bench_enumerated_kernel(c: &mut Criterion) {
    // One-shot rows per regime: the full pipeline (Instance validation +
    // forest + assembly) over every default-budget instance of the
    // regime, so the per-regime cost trajectory lives in `cargo bench`.
    let mut group = c.benchmark_group("enumerated_kernel");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    let instances = enumerate_instances(&EnumBudget::default());
    for regime in [
        "plain",
        "wide-alternation",
        "heavy-hiding",
        "deep-recursion",
    ] {
        let regime_instances: Vec<_> = instances.iter().filter(|i| i.regime() == regime).collect();
        if regime_instances.is_empty() {
            continue;
        }
        group.throughput(Throughput::Elements(regime_instances.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("one_shot", regime),
            &regime_instances,
            |b, insts| {
                b.iter(|| {
                    let mut total = 0u64;
                    for i in insts.iter() {
                        let inst = Instance::new(&i.dtd, &i.ann, &i.doc, &i.update, i.alpha.len())
                            .expect("enumerated instance is valid");
                        total += propagate(&inst, &InsertletPackage::new(), &Config::default())
                            .expect("Theorem 5")
                            .cost;
                    }
                    black_box(total)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_layouts, bench_enumerated_kernel);
criterion_main!(benches);
