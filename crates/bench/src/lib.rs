//! Shared helpers for the benchmark harness and the `experiments` binary.
//!
//! Everything here is deterministic: scaled hospital instances, generated
//! random instances, and the D2/D3/exponential fixtures, packaged so both
//! Criterion benches and the table-printing binary drive identical
//! workloads.
//!
//! # Paper cross-reference
//!
//! | paper | here |
//! |-------|------|
//! | polynomial complexity of Theorem 6, measured | `benches/scaling.rs` (E9) over [`hospital_instance`] / [`random_instance`] |
//! | Fig. 7 propagation and the `D3` repair contrast (§6.2) | `benches/baseline.rs` |
//! | per-phase costs of the §4–§5 machinery | `benches/paper_micro.rs`, `benches/ablation.rs` |
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
/// benches iterate over).
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
/// against the same source — the repeated-update (what-if) workload for
/// the one-shot vs engine-amortized comparison.
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
    /// Median wall time of one-shot-propagating the whole regime, ns.
    pub median_ns: u128,
    /// Largest optimal-propagation count seen in the regime.
    pub max_count: u128,
}

/// Measures one-shot propagation over every instance the default
/// enumeration budget generates, grouped by regime. Deterministic in the
/// budget; `runs` controls the median.
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
        let median_ns = median_time(runs, || {
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
        .as_nanos();
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
            median_ns,
            max_count,
        });
    }
    rows
}

/// Kernel arms over the CSR [`xvu_propagate::pathgraph`] kernel:
/// fresh-scratch and pooled-scratch best-cost sweeps. The benches in
/// `benches/kernel_layouts.rs` and the `kernel` section of
/// `BENCH_propagate.json` both drive these on graphs harvested from real
/// propagation forests, so they measure the kernel on the exact
/// vertex/edge distributions the algorithm produces — not on synthetic
/// graphs.
pub mod kernel {
    use super::OwnedInstance;
    use xvu_dtd::{min_sizes, InsertletPackage};
    use xvu_edit::Script;
    use xvu_propagate::{CostModel, GraphScratch, Instance, PropGraph, PropagationForest};
    use xvu_tree::DocTree;
    use xvu_view::Annotation;

    /// Clones every per-node propagation graph out of one instance's
    /// forest — the query set the kernel arms sweep.
    pub fn harvest_graphs(oi: &OwnedInstance) -> Vec<PropGraph> {
        harvest_from(&oi.dtd, &oi.ann, &oi.doc, &oi.update, oi.alpha.len())
    }

    /// [`harvest_graphs`] over unbundled parts (the enumerated-instance
    /// shape).
    pub fn harvest_from(
        dtd: &xvu_dtd::Dtd,
        ann: &Annotation,
        doc: &DocTree,
        update: &Script,
        alpha_len: usize,
    ) -> Vec<PropGraph> {
        let inst = Instance::new(dtd, ann, doc, update, alpha_len).expect("valid instance");
        let sizes = min_sizes(dtd, alpha_len);
        let pkg = InsertletPackage::new();
        let cm = CostModel {
            sizes: &sizes,
            insertlets: &pkg,
        };
        let forest = PropagationForest::build(&inst, &cm).expect("Theorem 5");
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

/// Pairs one source document with each update — the independent-request
/// batch shape [`xvu_propagate::serve`]'s `Engine::propagate_batch`
/// serves (requests are self-contained, so the same document may appear
/// under many updates).
pub fn batch_requests(oi: &OwnedInstance, updates: &[Script]) -> Vec<(DocTree, Script)> {
    updates
        .iter()
        .map(|u| (oi.doc.clone(), u.clone()))
        .collect()
}

/// Median wall-clock time of `runs` executions of `f`.
pub fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// The revision of the checkout a bench runs in, if `git` can tell
/// (suffixed `-dirty` when the working tree has uncommitted changes);
/// recorded in every `BENCH_*.json` next to `nproc`.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
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
