//! Tree-storage micro-benchmarks for the arena-backed `xvu_tree::Tree`:
//! build, traverse, random access, and the load path per serialized
//! format. Nothing gates on these numbers; they keep the storage costs
//! visible in the criterion sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use xvu_tree::{parse_term_with_ids, to_term_with_ids, Alphabet, NodeId, NodeIdGen, Sym, Tree};

/// Deterministic shape: node `i` attaches under a pseudo-random earlier
/// node (a bushy, irregular tree), labels cycle over 16 symbols.
fn shape(n: usize) -> Vec<(usize, usize)> {
    (1..n)
        .map(|i| (i.wrapping_mul(2_654_435_761) % i, i % 16))
        .collect()
}

fn build_arena(n: usize) -> Tree<Sym> {
    let mut gen = NodeIdGen::new();
    let mut t = Tree::leaf(&mut gen, Sym::from_index(0));
    let ids: Vec<NodeId> = std::iter::once(t.root())
        .chain(shape(n).iter().map(|&(parent, label)| {
            let parent_id = NodeId(parent as u64);
            t.add_child(parent_id, &mut gen, Sym::from_index(label))
        }))
        .collect();
    black_box(&ids);
    t
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_ops_build");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(20);
    for n in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, &n| {
            b.iter(|| black_box(build_arena(n).size()))
        });
    }
    group.finish();
}

fn bench_traverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_ops_traverse");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(20);
    for n in [1_000usize, 10_000] {
        let arena = build_arena(n);
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, _| {
            b.iter(|| {
                let sum: u64 = arena
                    .preorder()
                    .map(|id| arena.label(id).index() as u64)
                    .sum();
                black_box(sum)
            })
        });
    }
    group.finish();
}

fn bench_random_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_ops_random_access");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(20);
    for n in [1_000usize, 10_000] {
        let arena = build_arena(n);
        // pseudo-random probe order
        let probes: Vec<NodeId> = (0..n)
            .map(|i| NodeId((i.wrapping_mul(2_654_435_761) % n) as u64))
            .collect();
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |b, _| {
            b.iter(|| {
                let sum: u64 = probes
                    .iter()
                    .map(|&id| arena.label(id).index() as u64)
                    .sum();
                black_box(sum)
            })
        });
    }
    group.finish();
}

/// The load path: serialized bytes to a usable tree, per format — the
/// flat arena snapshot's bulk decode vs the identifier-annotated term
/// parser (`BENCH_load.json` tracks the same comparison at release
/// settings; these rows keep it visible in the criterion sweep).
fn bench_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_ops_load");
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(20);
    // an alphabet whose Sym indices match the labels `shape` assigns
    let mut alpha = Alphabet::new();
    for i in 0..16 {
        alpha.intern(&format!("l{i}"));
    }
    for n in [1_000usize, 10_000] {
        let tree = build_arena(n);
        let flat = tree.to_snapshot_bytes(&alpha).expect("encodable");
        let term = to_term_with_ids(&tree, &alpha);
        group.bench_with_input(BenchmarkId::new("flat_snapshot", n), &n, |b, _| {
            b.iter(|| {
                let mut a = alpha.clone();
                black_box(
                    Tree::from_snapshot_bytes(&flat, &mut a)
                        .expect("decodes")
                        .size(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("term", n), &n, |b, _| {
            b.iter(|| {
                let mut a = alpha.clone();
                let mut g = NodeIdGen::new();
                black_box(
                    parse_term_with_ids(&mut a, &mut g, &term)
                        .expect("parses")
                        .size(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_traverse,
    bench_random_access,
    bench_load
);
criterion_main!(benches);
