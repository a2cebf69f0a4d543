//! Shared helpers for the benchmark binaries and the `experiments`
//! binary.
//!
//! Everything here is deterministic: scaled hospital instances, generated
//! random instances, churn streams and the enumerated coverage arm,
//! packaged so the `BENCH_*.json` writers and the table-printing binary
//! drive identical workloads. Every timing they record goes through one
//! sampler, [`Spread`]: the min, median and max of a figure over a row's
//! runs, written as `{ "min", "median", "max" }`.
//!
//! # Paper cross-reference
//!
//! | paper | here |
//! |-------|------|
//! | polynomial complexity of Theorem 6, measured | `src/bin/bench_propagate.rs` (the `admission` and `worst_case` rows) and E9 over [`hospital_instance`] / [`random_instance`] |
//! | Fig. 7 propagation and the `D3` repair contrast (§6.2) | E4 and E10 of `src/bin/experiments.rs` |
//! | the insertlet ablation of §5 | E12 of `src/bin/experiments.rs` |
//! | the experiment tables E1–E13 | `src/bin/experiments.rs` |

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use xvu_dtd::{Dtd, InsertletPackage};
use xvu_edit::Script;
use xvu_propagate::{propagate, Config, Engine, Instance, Propagation};
use xvu_tree::{Alphabet, DocTree, NodeIdGen, Sym};
use xvu_view::Annotation;
use xvu_workload::scenario::{admit_patient, hospital, hospital_doc, Hospital};
use xvu_workload::{
    generate_annotation, generate_doc, generate_dtd, generate_update, ChurnConfig, ChurnStream,
    DocGenConfig, DtdGenConfig, UpdateGenConfig,
};

/// A fully assembled, owned problem instance (the borrow-free bundle the
/// bench binaries iterate over).
pub struct OwnedInstance {
    /// The alphabet.
    pub alpha: Alphabet,
    /// The schema.
    pub dtd: Dtd,
    /// The view definition.
    pub ann: Annotation,
    /// The source document.
    pub doc: DocTree,
    /// The view update.
    pub update: Script,
}

impl OwnedInstance {
    /// Runs the full propagation pipeline once.
    pub fn propagate(&self) -> Propagation {
        let inst = Instance::new(
            &self.dtd,
            &self.ann,
            &self.doc,
            &self.update,
            self.alpha.len(),
        )
        .expect("valid instance");
        propagate(&inst, &InsertletPackage::new(), &Config::default()).expect("Theorem 5")
    }

    /// Builds the validated [`Instance`] view of this bundle.
    pub fn instance(&self) -> Instance<'_> {
        Instance::new(
            &self.dtd,
            &self.ann,
            &self.doc,
            &self.update,
            self.alpha.len(),
        )
        .expect("valid instance")
    }

    /// Compiles an [`Engine`] for this bundle's `(Σ, D, A)` triple — the
    /// amortizable, update-independent half of the pipeline.
    pub fn engine(&self) -> Engine {
        Engine::builder()
            .alphabet(self.alpha.clone())
            .dtd(self.dtd.clone())
            .annotation(self.ann.clone())
            .build()
            .expect("complete engine")
    }

    /// Like [`OwnedInstance::engine`] but with the propagation memo
    /// switched off — the unmemoised baseline.
    pub fn engine_uncached(&self) -> Engine {
        Engine::builder()
            .alphabet(self.alpha.clone())
            .dtd(self.dtd.clone())
            .annotation(self.ann.clone())
            .prop_cache(false)
            .build()
            .expect("complete engine")
    }
}

/// A hospital document plus `k` distinct single-admission updates, all
/// against the same source — the repeated-update (what-if) workload of
/// `bench_propagate`'s `hospital` row.
///
/// `departments` and `k` must be ≥ 1.
pub fn hospital_update_batch(
    departments: usize,
    patients_per_dept: usize,
    k: usize,
) -> (OwnedInstance, Vec<Script>) {
    assert!(
        departments > 0,
        "hospital_update_batch: departments must be ≥ 1"
    );
    assert!(k > 0, "hospital_update_batch: k must be ≥ 1");
    let Hospital { alpha, dtd, ann } = hospital();
    let h = Hospital {
        alpha: alpha.clone(),
        dtd: dtd.clone(),
        ann: ann.clone(),
    };
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, departments, patients_per_dept, &mut gen);
    let updates: Vec<Script> = (0..k)
        .map(|i| admit_patient(&h, &doc, i % departments, &mut gen))
        .collect();
    let update = updates[0].clone();
    (
        OwnedInstance {
            alpha,
            dtd,
            ann,
            doc,
            update,
        },
        updates,
    )
}

/// A hospital admission at the given scale (`departments ×
/// patients_per_dept`, 8 source nodes per patient).
pub fn hospital_instance(departments: usize, patients_per_dept: usize) -> OwnedInstance {
    let Hospital { alpha, dtd, ann } = hospital();
    let h = Hospital {
        alpha: alpha.clone(),
        dtd: dtd.clone(),
        ann: ann.clone(),
    };
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, departments, patients_per_dept, &mut gen);
    let update = admit_patient(&h, &doc, departments / 2, &mut gen);
    OwnedInstance {
        alpha,
        dtd,
        ann,
        doc,
        update,
    }
}

/// A random generated instance: `labels`-symbol DTD, document of roughly
/// `max_nodes`, `ops`-operation update. Deterministic in `seed`.
pub fn random_instance(labels: usize, max_nodes: usize, ops: usize, seed: u64) -> OwnedInstance {
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
    let root = alpha.get("l0").expect("root");
    let mut gen = NodeIdGen::new();
    let doc = generate_doc(
        &dtd,
        alpha.len(),
        root,
        &DocGenConfig {
            max_nodes,
            max_depth: 8,
            max_children: 10,
            stop_bias: 0.05,
        },
        seed ^ 202,
        &mut gen,
    );
    let update = generate_update(
        &dtd,
        &ann,
        alpha.len(),
        &doc,
        &UpdateGenConfig {
            ops,
            ..UpdateGenConfig::default()
        },
        seed ^ 303,
        &mut gen,
    );
    OwnedInstance {
        alpha,
        dtd,
        ann,
        doc,
        update,
    }
}

/// A random document plus `k` distinct generated updates, all against the
/// same source (seeded, deterministic) — the schema-heavy repeated-update
/// workload where engine amortization dominates.
///
/// `k` must be ≥ 1.
pub fn random_update_batch(
    labels: usize,
    max_nodes: usize,
    ops: usize,
    k: usize,
    seed: u64,
) -> (OwnedInstance, Vec<Script>) {
    assert!(k > 0, "random_update_batch: k must be ≥ 1");
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
    let root = alpha.get("l0").expect("root");
    let mut gen = NodeIdGen::new();
    let doc = generate_doc(
        &dtd,
        alpha.len(),
        root,
        &DocGenConfig {
            max_nodes,
            max_depth: 8,
            max_children: 10,
            stop_bias: 0.05,
        },
        seed ^ 202,
        &mut gen,
    );
    let updates: Vec<Script> = (0..k as u64)
        .map(|i| {
            generate_update(
                &dtd,
                &ann,
                alpha.len(),
                &doc,
                &UpdateGenConfig {
                    ops,
                    ..UpdateGenConfig::default()
                },
                seed ^ (303 + i),
                &mut gen,
            )
        })
        .collect();
    let update = updates[0].clone();
    (
        OwnedInstance {
            alpha,
            dtd,
            ann,
            doc,
            update,
        },
        updates,
    )
}

/// A hospital document plus a pregenerated `k`-step **churn** stream:
/// localized small random edits where update `i+1` applies to the view of
/// the document *after* update `i` was propagated and committed (the
/// session serving regime, unlike [`hospital_update_batch`] where every
/// update targets the same document).
///
/// The stream is produced by simulating one session; because propagation
/// is deterministic and memo-invariant, replaying the same scripts
/// through any session opened on the same document (memo on or off)
/// reproduces the same evolution, so the batch can be timed repeatedly
/// via [`run_churn_session`].
pub fn hospital_churn_batch(
    departments: usize,
    patients_per_dept: usize,
    k: usize,
    seed: u64,
) -> (OwnedInstance, Vec<Script>) {
    assert!(k > 0, "hospital_churn_batch: k must be ≥ 1");
    let Hospital { alpha, dtd, ann } = hospital();
    let h = Hospital {
        alpha: alpha.clone(),
        dtd: dtd.clone(),
        ann: ann.clone(),
    };
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, departments, patients_per_dept, &mut gen);
    let oi = OwnedInstance {
        alpha,
        dtd,
        ann,
        doc,
        update: Script::leaf_with_id(
            xvu_tree::NodeId(0),
            xvu_edit::ELabel::nop(Sym::from_index(0)),
        ),
    };
    let engine = oi.engine();
    let mut session = engine.open(&oi.doc).expect("hospital doc is valid");
    let mut stream = ChurnStream::new(
        &oi.dtd,
        &oi.ann,
        oi.alpha.len(),
        ChurnConfig::default(),
        seed,
    );
    let mut updates = Vec::with_capacity(k);
    for _ in 0..k {
        let mut g = session.id_gen();
        let u = stream.next_update(session.document(), &mut g);
        let prop = session.propagate(&u).expect("churn update propagates");
        session.commit(&prop).expect("churn propagation commits");
        updates.push(u);
    }
    let update = updates[0].clone();
    (OwnedInstance { update, ..oi }, updates)
}

/// Replays a churn stream through one fresh session of `engine`: per
/// update, propagate then commit. Returns the summed propagation cost (a
/// memo-invariance checksum: engines with the memo on and off must
/// agree).
pub fn run_churn_session(engine: &Engine, doc: &DocTree, updates: &[Script]) -> u64 {
    let mut session = engine.open(doc).expect("valid document");
    let mut total = 0u64;
    for u in updates {
        let prop = session.propagate(u).expect("churn update propagates");
        total += prop.cost;
        session.commit(&prop).expect("churn propagation commits");
    }
    total
}

/// Per-regime coverage summary over the enumerated grammar space (see
/// `xvu_workload::enumo`): how many instances the regime contributes, how
/// expensive their propagations are, and the **cost amplification** — the
/// ratio of total optimal source-edit cost to total view-edit cost. A
/// ratio far above 1 marks a blowup regime: hidden mandatory material is
/// minted (or discarded) for every visible edit.
pub struct RegimeRow {
    /// Regime label (`plain`, `wide-alternation`, `heavy-hiding`,
    /// `deep-recursion`).
    pub regime: &'static str,
    /// Enumerated instances in this regime.
    pub instances: usize,
    /// Summed `cost(update)` over the regime's view updates.
    pub update_cost: u64,
    /// Summed optimal propagation cost over the regime.
    pub propagation_cost: u64,
    /// `propagation_cost / update_cost` (0 when no update cost).
    pub amplification: f64,
    /// Wall time of one-shot-propagating the whole regime, ns, over the
    /// runs.
    pub ns: Spread,
    /// Largest optimal-propagation count seen in the regime.
    pub max_count: u128,
}

/// Measures one-shot propagation over every instance the default
/// enumeration budget generates, grouped by regime. Deterministic in the
/// budget; `runs` sets how many times each regime is timed.
pub fn enumerated_regime_rows(runs: usize) -> Vec<RegimeRow> {
    use xvu_workload::enumo::{enumerate_instances, EnumBudget};

    let instances = enumerate_instances(&EnumBudget::default());
    let mut rows: Vec<RegimeRow> = Vec::new();
    for regime in [
        "plain",
        "wide-alternation",
        "heavy-hiding",
        "deep-recursion",
    ] {
        let group: Vec<_> = instances.iter().filter(|i| i.regime() == regime).collect();
        if group.is_empty() {
            continue;
        }
        let mut update_cost = 0u64;
        let mut propagation_cost = 0u64;
        let mut max_count = 0u128;
        for inst in &group {
            let i = Instance::new(
                &inst.dtd,
                &inst.ann,
                &inst.doc,
                &inst.update,
                inst.alpha.len(),
            )
            .expect("enumerated instance is valid");
            let p = propagate(&i, &InsertletPackage::new(), &Config::default()).expect("Theorem 5");
            update_cost += xvu_edit::cost(&inst.update) as u64;
            propagation_cost += p.cost;
            if let Some(c) = xvu_propagate::count_optimal_propagations(&p.forest) {
                max_count = max_count.max(c);
            }
        }
        let ns = Spread::time(runs, || {
            let mut total = 0u64;
            for inst in &group {
                let i = Instance::new(
                    &inst.dtd,
                    &inst.ann,
                    &inst.doc,
                    &inst.update,
                    inst.alpha.len(),
                )
                .expect("enumerated instance is valid");
                total += propagate(&i, &InsertletPackage::new(), &Config::default())
                    .expect("Theorem 5")
                    .cost;
            }
            std::hint::black_box(total);
        })
        .scale(1e6);
        rows.push(RegimeRow {
            regime,
            instances: group.len(),
            update_cost,
            propagation_cost,
            amplification: if update_cost == 0 {
                0.0
            } else {
                propagation_cost as f64 / update_cost as f64
            },
            ns,
            max_count,
        });
    }
    rows
}

/// Kernel arms over the CSR [`xvu_propagate::pathgraph`] kernel:
/// fresh-scratch and pooled-scratch best-cost sweeps. The `kernel`
/// section of `BENCH_propagate.json` times the pooled arm on graphs
/// harvested from real propagation forests, so it measures the kernel on
/// the exact vertex/edge distributions the algorithm produces — not on
/// synthetic graphs — and checks it against the fresh arm.
pub mod kernel {
    use super::OwnedInstance;
    use xvu_dtd::{min_sizes, InsertletPackage};
    use xvu_propagate::{CostModel, GraphScratch, PropGraph, PropagationForest};

    /// Clones every per-node propagation graph out of one instance's
    /// forest — the query set the kernel arms sweep.
    pub fn harvest_graphs(oi: &OwnedInstance) -> Vec<PropGraph> {
        let sizes = min_sizes(&oi.dtd, oi.alpha.len());
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = PropagationForest::build(&oi.instance(), &cm).expect("Theorem 5");
        forest.graphs().map(|(_, g)| g.clone()).collect()
    }

    /// Σ best-cost over the CSR set with a fresh scratch per query.
    pub fn sum_csr_fresh(graphs: &[PropGraph]) -> u64 {
        graphs.iter().filter_map(PropGraph::best_cost).sum()
    }

    /// Σ best-cost over the CSR set through one pooled scratch — the
    /// shipped configuration.
    pub fn sum_csr_pooled(graphs: &[PropGraph], s: &mut GraphScratch) -> u64 {
        graphs.iter().filter_map(|g| g.best_cost_with(s)).sum()
    }
}

/// The min, median and max of one figure over a row's runs: the one
/// sampler behind every timing the bench binaries record. The median of
/// an even count is the upper of the two middle samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The smallest sample (the best-of).
    pub min: f64,
    /// The middle sample.
    pub median: f64,
    /// The largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn of(mut samples: Vec<f64>) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        samples.sort_by(f64::total_cmp);
        Spread {
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
        }
    }

    /// Runs `f` `runs` times (at least once) and returns the spread of its
    /// wall times, in milliseconds.
    pub fn time(runs: usize, mut f: impl FnMut()) -> Spread {
        Spread::of(
            (0..runs.max(1))
                .map(|_| {
                    let start = Instant::now();
                    f();
                    ms(start.elapsed())
                })
                .collect(),
        )
    }

    /// Every figure multiplied by `k`: a change of unit, or a per-item
    /// figure.
    pub fn scale(self, k: f64) -> Spread {
        Spread {
            min: self.min * k,
            median: self.median * k,
            max: self.max * k,
        }
    }

    /// The spread as a JSON object, `{ "min", "median", "max" }`, each
    /// figure with `decimals` places.
    pub fn json(&self, decimals: usize) -> String {
        format!(
            "{{ \"min\": {:.decimals$}, \"median\": {:.decimals$}, \"max\": {:.decimals$} }}",
            self.min, self.median, self.max
        )
    }
}

/// A duration in fractional milliseconds, the unit [`Spread::time`]
/// samples in.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Opens a `BENCH_*.json` object with the members every file records:
/// its `schema`, the `nproc` it ran with and the git revision of the
/// checkout it ran in (suffixed `-dirty` when the working tree has
/// uncommitted changes; `unknown` when `git` cannot tell).
pub fn json_header(schema: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let revision = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"nproc\": {nproc},\n  \"git_revision\": \"{revision}\",\n"
    )
}

/// Writes a finished `BENCH_*.json` to `path` and echoes it to stdout.
pub fn write_json(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    print!("{json}");
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hospital_instance_propagates() {
        let inst = hospital_instance(2, 3);
        let p = inst.propagate();
        assert_eq!(p.cost, 3);
    }

    #[test]
    fn random_instance_propagates() {
        let inst = random_instance(8, 300, 3, 7);
        let p = inst.propagate();
        assert!(p.cost < 10_000);
    }

    #[test]
    fn churn_batch_replays_identically_with_and_without_cache() {
        let (oi, updates) = hospital_churn_batch(2, 6, 6, 42);
        assert_eq!(updates.len(), 6);
        let cached = run_churn_session(&oi.engine(), &oi.doc, &updates);
        let uncached = run_churn_session(&oi.engine_uncached(), &oi.doc, &updates);
        assert_eq!(cached, uncached, "the memo must not change results");
        assert!(
            updates.iter().any(|u| xvu_edit::cost(u) > 0),
            "churn stream produced only identity updates"
        );
    }

    #[test]
    fn enumerated_rows_cover_every_regime_and_flag_a_blowup() {
        let rows = enumerated_regime_rows(1);
        assert_eq!(rows.len(), 4, "all four regimes must be populated");
        assert!(rows.iter().map(|r| r.instances).sum::<usize>() >= 200);
        assert!(
            rows.iter().any(|r| r.amplification > 1.0),
            "at least one regime must amplify view-edit cost"
        );
    }

    #[test]
    fn spread_orders_its_samples_and_writes_one_json_object() {
        let s = Spread::of(vec![3.0, 1.0, 4.0, 1.5, 9.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 3.0, 9.0));
        // an even count takes the upper middle sample
        assert_eq!(Spread::of(vec![2.0, 1.0]).median, 2.0);
        assert_eq!(
            s.scale(2.0).json(1),
            "{ \"min\": 2.0, \"median\": 6.0, \"max\": 18.0 }"
        );
        let t = Spread::time(3, || std::thread::sleep(Duration::from_millis(1)));
        assert!(1.0 <= t.min && t.min <= t.median && t.median <= t.max);
    }

    #[test]
    fn kernel_arms_agree_on_harvested_graphs() {
        let oi = hospital_instance(2, 4);
        let graphs = kernel::harvest_graphs(&oi);
        assert!(!graphs.is_empty());
        assert!(graphs.iter().any(|g| g.n_edges() > 0));
        let mut s = xvu_propagate::GraphScratch::default();
        let fresh = kernel::sum_csr_fresh(&graphs);
        assert!(fresh > 0);
        assert_eq!(fresh, kernel::sum_csr_pooled(&graphs, &mut s));
    }

    #[test]
    fn update_batch_serves_through_one_session() {
        let (oi, updates) = hospital_update_batch(2, 3, 5);
        assert_eq!(updates.len(), 5);
        let engine = oi.engine();
        let session = engine.open(&oi.doc).unwrap();
        for u in &updates {
            // every admission inserts 3 visible nodes against this doc
            assert_eq!(session.propagate(u).unwrap().cost, 3);
        }
    }
}
