//! Machine-readable propagation benchmark: emits `BENCH_propagate.json`.
//!
//! Times engine-amortized repeated updates on two canonical workloads —
//! the document-heavy hospital batch and the schema-heavy 32-label random
//! batch — plus the **churn** workload (K small localized edits against
//! the hospital document through one long-lived session, propagate +
//! commit each, measured with the engine's propagation memo on and off
//! in the same run), and the **enumerated coverage arm** (one-shot
//! propagation over every instance of `xvu_workload::enumo`'s default
//! budget, grouped by regime, with each regime's view-edit → source-edit
//! cost amplification — the blowup map), and writes them as JSON so the
//! perf trajectory across PRs is tracked by a checked-in artifact instead
//! of scraped bench logs. Since schema /5 every workload also carries a
//! per-phase breakdown (`phases`: instance validation, graph build,
//! typing, assembly, commit — read off the session's phase clock,
//! `Session::phases`) and a `kernel` section times the pooled CSR kernel
//! (`xvu_bench::kernel`) over each workload's harvested graph set.
//!
//! ```text
//! cargo run --release -p xvu_bench --bin bench_propagate [-- OUT_PATH]
//! ```
//!
//! The timed region of the batch rows is engine compilation + session
//! open + one propagation per update. The churn rows pre-compile the
//! engine and time session open + K × (propagate + commit).
//!
//! Since schema /7 an `admission` section times one hospital admission
//! (a 3-node patient added to the view) at three document sizes — 1, 10
//! and 100 departments of 125 patients, about 1k, 10k and 100k nodes —
//! with `Session::propagate` and `Session::commit` timed per update and
//! reported as min / median / max over the K updates, so the complexity
//! curve in document size is a checked-in row, not only the constant.
//! The file records `nproc` and the git revision it was measured at.
//!
//! Since schema /8 a `worst_case` section times the documented worst
//! shapes with the admission rows' timed region: a `star` (one root with
//! 1k, 10k or 100k children, `r → a*`, a 1-node insert under the root)
//! and a `chain` (1k, 10k or 100k levels, `r → a?`, `a → a?·b?` with `b`
//! hidden, a 1-node insert at the bottom, so the whole spine is dirty),
//! and the admission section records the 100k/1k ratio of its medians.
//! Since schema /9 each `worst_case` row records the memo entries its
//! session still holds after its edits (`memo_entries`), and the
//! `churn_cross_document` row is gone: each session owns its memo, so no
//! session starts warm from another's.
//!
//! Since schema /10 every `phases` object comes from the session's
//! always-on phase clock, `commit_ns` included (it was timed from outside
//! before), and each `admission` and `worst_case` row carries `phases`:
//! what its median edit by propagate time added to the clock, so the four
//! propagate phases add up to about `propagate_ms`' median.
//!
//! Since schema /11 each `admission` row also times opening its document:
//! `open_ms` is `Engine::open` (copy, validation, identifier scan,
//! interning, view extraction) and `resume_ms` is `Parked::resume` of a
//! copy parked outside the timing (interning and view extraction), each
//! min / median / max over 7 repeats taken in alternation.
//!
//! Since schema /12 every timing figure is `{ "min", "median", "max" }`
//! over the runs it was taken from ([`Spread`]): the `workloads`,
//! `kernel` and `enumerated` rows over their 15 runs, as the admission
//! and worst-case rows already were over their edits. The `phases`
//! objects stay per-phase medians.

use std::hint::black_box;
use std::time::Instant;
use xvu_bench::kernel::{harvest_graphs, sum_csr_fresh, sum_csr_pooled};
use xvu_bench::{
    enumerated_regime_rows, hospital_churn_batch, hospital_update_batch, json_header, ms,
    random_update_batch, run_churn_session, write_json, OwnedInstance, Spread,
};
use xvu_dtd::parse_dtd;
use xvu_edit::{nop_script, ELabel, Script};
use xvu_propagate::{Engine, GraphScratch, PhaseBreakdown, Session};
use xvu_tree::{Alphabet, DocTree, NodeIdGen};
use xvu_view::parse_annotation;
use xvu_workload::scenario::{admit_patient, hospital, hospital_doc};

/// Engine-amortized wall time for one workload, ns over `runs` runs.
fn engine_amortized_ns(oi: &OwnedInstance, updates: &[Script], runs: usize) -> Spread {
    Spread::time(runs, || {
        let engine = oi.engine();
        let session = engine.open(&oi.doc).expect("valid document");
        let mut total = 0u64;
        for u in updates {
            total += session.propagate(u).expect("Theorem 5").cost;
        }
        black_box(total);
    })
    .scale(1e6)
}

/// Runs `pass` `runs` times and takes the per-phase median across runs.
fn phase_medians(runs: usize, mut pass: impl FnMut() -> PhaseBreakdown) -> PhaseBreakdown {
    let samples: Vec<PhaseBreakdown> = (0..runs.max(1)).map(|_| pass()).collect();
    let median = |phase: fn(&PhaseBreakdown) -> u64| {
        Spread::of(samples.iter().map(|p| phase(p) as f64).collect()).median as u64
    };
    PhaseBreakdown {
        instance_ns: median(|p| p.instance_ns),
        graph_build_ns: median(|p| p.graph_build_ns),
        typing_ns: median(|p| p.typing_ns),
        assemble_ns: median(|p| p.assemble_ns),
        commit_ns: median(|p| p.commit_ns),
    }
}

/// What the phase clock gained from `before` to `after`.
fn phase_delta(after: PhaseBreakdown, before: PhaseBreakdown) -> PhaseBreakdown {
    PhaseBreakdown {
        instance_ns: after.instance_ns - before.instance_ns,
        graph_build_ns: after.graph_build_ns - before.graph_build_ns,
        typing_ns: after.typing_ns - before.typing_ns,
        assemble_ns: after.assemble_ns - before.assemble_ns,
        commit_ns: after.commit_ns - before.commit_ns,
    }
}

/// One pass over a workload through a fresh session: `Session::propagate`
/// per update, each committed when `commit` is set (the churn regime).
/// Returns the session's phase clock: per-phase sums over the pass.
fn phased_pass(oi: &OwnedInstance, updates: &[Script], commit: bool) -> PhaseBreakdown {
    let engine = oi.engine();
    let mut session = engine.open(&oi.doc).expect("valid document");
    for u in updates {
        let prop = session.propagate(u).expect("Theorem 5");
        if commit {
            session.commit(&prop).expect("propagation commits");
        }
        black_box(prop.cost);
    }
    session.phases()
}

fn phases_json(p: &PhaseBreakdown) -> String {
    format!(
        "\"phases\": {{ \"instance_ns\": {}, \"graph_build_ns\": {}, \"typing_ns\": {}, \
         \"assemble_ns\": {}, \"commit_ns\": {} }}",
        p.instance_ns, p.graph_build_ns, p.typing_ns, p.assemble_ns, p.commit_ns,
    )
}

struct Row {
    name: &'static str,
    updates: usize,
    doc_nodes: usize,
    ns: Spread,
    phases: PhaseBreakdown,
}

/// One workload's kernel row: ns for one pooled best-cost sweep over the
/// harvested graph set.
struct KernelRow {
    name: &'static str,
    graphs: usize,
    csr_pooled_ns: Spread,
}

fn kernel_row(name: &'static str, oi: &OwnedInstance, runs: usize) -> KernelRow {
    let graphs = harvest_graphs(oi);
    let mut scratch = GraphScratch::default();
    assert_eq!(
        sum_csr_fresh(&graphs),
        sum_csr_pooled(&graphs, &mut scratch),
        "pooled kernel disagrees with a fresh scratch"
    );
    KernelRow {
        name,
        graphs: graphs.len(),
        csr_pooled_ns: Spread::time(runs, || {
            black_box(sum_csr_pooled(&graphs, &mut scratch));
        })
        .scale(1e6),
    }
}

/// Wall time of a churn replay through a fresh session of a fresh
/// engine, ns over `runs` runs, the engine compiled outside the timed
/// region (its memo starts cold every run).
fn fresh_engine_churn_ns(
    runs: usize,
    engine: impl Fn() -> Engine,
    doc: &DocTree,
    updates: &[Script],
) -> Spread {
    let samples = (0..runs.max(1))
        .map(|_| {
            let engine = engine();
            let t0 = Instant::now();
            black_box(run_churn_session(&engine, doc, updates));
            ms(t0.elapsed())
        })
        .collect();
    Spread::of(samples).scale(1e6)
}

/// The timings of one row's edits.
struct Timed {
    propagate_ms: Spread,
    commit_ms: Spread,
    /// What the median edit by propagate time added to the phase clock:
    /// its four propagate phases add up to about `propagate_ms.median`.
    phases: PhaseBreakdown,
}

/// One document size of the admission arm.
struct AdmissionRow {
    departments: usize,
    doc_nodes: usize,
    open_ms: Spread,
    resume_ms: Spread,
    timed: Timed,
}

/// How many times each admission row opens and resumes its document.
const OPEN_REPEATS: usize = 7;

/// Times `Engine::open` of `doc` and `Parked::resume` of a parked copy of
/// it, `OPEN_REPEATS` times each in alternation. Parking the copy and
/// dropping each session are outside the timings.
fn open_and_resume(engine: &Engine, doc: &DocTree) -> (Spread, Spread) {
    let (mut open, mut resume) = (Vec::new(), Vec::new());
    for _ in 0..OPEN_REPEATS {
        let t0 = Instant::now();
        let session = engine.open(doc).expect("hospital documents are valid");
        open.push(ms(t0.elapsed()));
        drop(black_box(session));
        let parked = engine
            .park(doc.clone())
            .expect("hospital documents are valid");
        let t0 = Instant::now();
        let session = parked.resume();
        resume.push(ms(t0.elapsed()));
        drop(black_box(session));
    }
    (Spread::of(open), Spread::of(resume))
}

/// Times `warmup + updates` edits through `session`, each built by
/// `next` outside the timed region: `Session::propagate` and
/// `Session::commit` timed separately, the first `warmup` edits untimed,
/// and what each timed edit added to the session's phase clock.
fn timed_edits(
    session: &mut Session<'_>,
    warmup: usize,
    updates: usize,
    mut next: impl FnMut(&Session<'_>) -> Script,
) -> Timed {
    let mut edits = Vec::new();
    for i in 0..warmup + updates {
        let update = next(session);
        let before = session.phases();
        let t0 = Instant::now();
        let prop = session.propagate(&update).expect("the edit propagates");
        let t1 = Instant::now();
        session.commit(&prop).expect("the edit commits");
        let t2 = Instant::now();
        if i >= warmup {
            let phases = phase_delta(session.phases(), before);
            edits.push((ms(t1 - t0), ms(t2 - t1), phases));
        }
    }
    let propagate_ms = Spread::of(edits.iter().map(|e| e.0).collect());
    let median_edit = edits
        .iter()
        .find(|e| e.0 == propagate_ms.median)
        .expect("the median is one of the samples");
    Timed {
        propagate_ms,
        commit_ms: Spread::of(edits.iter().map(|e| e.1).collect()),
        phases: median_edit.2,
    }
}

impl Timed {
    /// The row's timing fields, as JSON members.
    fn json(&self) -> String {
        format!(
            "\"propagate_ms\": {}, \"commit_ms\": {}, {}",
            self.propagate_ms.json(4),
            self.commit_ms.json(4),
            phases_json(&self.phases),
        )
    }
}

/// Admissions into department 0 of a `departments × 125` hospital
/// through one session: `warmup` untimed ones fill the memo, then
/// `updates` timed ones, `Session::propagate` and `Session::commit`
/// timed separately. Building each update (a view extraction) is outside
/// both timings.
fn admission_row(departments: usize, warmup: usize, updates: usize) -> AdmissionRow {
    let h = hospital();
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, departments, 125, &mut gen);
    let engine = Engine::new(h.alpha.clone(), h.dtd.clone(), h.ann.clone());
    let (open_ms, resume_ms) = open_and_resume(&engine, &doc);
    let mut session = engine.open(&doc).expect("hospital documents are valid");
    let timed = timed_edits(&mut session, warmup, updates, |session| {
        let mut ids = session.id_gen();
        admit_patient(&h, session.document(), 0, &mut ids)
    });
    AdmissionRow {
        departments,
        doc_nodes: doc.size(),
        open_ms,
        resume_ms,
        timed,
    }
}

/// One size of a worst-case shape.
struct ShapeRow {
    size: usize,
    doc_nodes: usize,
    timed: Timed,
    /// Memo entries the session holds after its edits.
    memo_entries: usize,
}

/// 1-node inserts into a star: one root with `children` `a` children
/// under `r → a*`, nothing hidden, each insert appended under the root.
fn star_row(children: usize, warmup: usize, updates: usize) -> ShapeRow {
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "r -> a*").expect("star DTD");
    let ann = parse_annotation(&mut alpha, "").expect("empty annotation");
    let (r, a) = (alpha.get("r").unwrap(), alpha.get("a").unwrap());
    let mut gen = NodeIdGen::new();
    let mut doc = DocTree::leaf(&mut gen, r);
    let root = doc.root();
    for _ in 0..children {
        doc.add_child(root, &mut gen, a);
    }
    let engine = Engine::new(alpha, dtd, ann);
    let mut session = engine.open(&doc).expect("the star is valid");
    let timed = timed_edits(&mut session, warmup, updates, |session| {
        let mut update = nop_script(session.view());
        let fresh = session.id_gen().fresh();
        update
            .add_child_with_id(root, fresh, ELabel::ins(a))
            .expect("the root is in the view");
        update
    });
    ShapeRow {
        size: children,
        doc_nodes: doc.size(),
        timed,
        memo_entries: engine.cache_stats().entries,
    }
}

/// 1-node inserts at the bottom of a chain of `levels` `a` nodes under
/// `r → a?`, `a → a?·b?` with `b` hidden (the deepest `a` holds the one
/// `b`): each insert puts an `a` under the deepest `a` of the view, so
/// the whole spine is dirty.
fn chain_row(levels: usize, warmup: usize, updates: usize) -> ShapeRow {
    let mut alpha = Alphabet::new();
    let dtd = parse_dtd(&mut alpha, "r -> a?\na -> a?.b?").expect("chain DTD");
    let ann = parse_annotation(&mut alpha, "hide a b").expect("chain annotation");
    let (r, a, b) = (
        alpha.get("r").unwrap(),
        alpha.get("a").unwrap(),
        alpha.get("b").unwrap(),
    );
    let mut gen = NodeIdGen::new();
    let mut doc = DocTree::leaf(&mut gen, r);
    let mut bottom = doc.root();
    for _ in 0..levels {
        bottom = doc.add_child(bottom, &mut gen, a);
    }
    doc.add_child(bottom, &mut gen, b);
    let engine = Engine::new(alpha, dtd, ann);
    let mut session = engine.open(&doc).expect("the chain is valid");
    let timed = timed_edits(&mut session, warmup, updates, |session| {
        let mut update = nop_script(session.view());
        let fresh = session.id_gen().fresh();
        update
            .add_child_with_id(bottom, fresh, ELabel::ins(a))
            .expect("the bottom is in the view");
        bottom = fresh;
        update
    });
    ShapeRow {
        size: levels,
        doc_nodes: doc.size(),
        timed,
        memo_entries: engine.cache_stats().entries,
    }
}

/// The rows of one worst-case shape as a JSON array, each size under
/// `key`.
fn shape_rows_json(rows: &[ShapeRow], key: &str, updates: usize) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "      {{ \"{key}\": {}, \"doc_nodes\": {}, \"updates\": {updates}, \
                 {}, \"memo_entries\": {} }}",
                r.size,
                r.doc_nodes,
                r.timed.json(),
                r.memo_entries,
            )
        })
        .collect();
    format!("[\n{}\n    ]", rows.join(",\n"))
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_propagate.json".to_owned());
    const K: usize = 10;
    const RUNS: usize = 15;

    let (hospital, hospital_updates) = hospital_update_batch(4, 30, K);
    let (random32, random32_updates) = random_update_batch(32, 400, 3, K, 1234);

    let rows = [
        Row {
            name: "hospital",
            updates: K,
            doc_nodes: hospital.doc.size(),
            ns: engine_amortized_ns(&hospital, &hospital_updates, RUNS),
            phases: phase_medians(RUNS, || phased_pass(&hospital, &hospital_updates, false)),
        },
        Row {
            name: "random32",
            updates: K,
            doc_nodes: random32.doc.size(),
            ns: engine_amortized_ns(&random32, &random32_updates, RUNS),
            phases: phase_medians(RUNS, || phased_pass(&random32, &random32_updates, false)),
        },
    ];

    // Churn: K small localized edits through one session, memo on vs off
    // in the same run (engine precompiled; timed region = session open +
    // K × (propagate + commit)). Each run compiles a fresh engine outside
    // the timed region, so the memo-on row starts cold and its hits come
    // from within the stream. Costs must agree — the memo is a pure memo.
    let (churn, churn_updates) = hospital_churn_batch(4, 30, K, 0xc0ffee);
    let check_cached = run_churn_session(&churn.engine(), &churn.doc, &churn_updates);
    let check_uncached = run_churn_session(&churn.engine_uncached(), &churn.doc, &churn_updates);
    assert_eq!(
        check_cached, check_uncached,
        "the memo changed propagation results"
    );
    let churn_cached_ns =
        fresh_engine_churn_ns(RUNS, || churn.engine(), &churn.doc, &churn_updates);
    let churn_uncached_ns =
        fresh_engine_churn_ns(RUNS, || churn.engine_uncached(), &churn.doc, &churn_updates);
    let improvement_pct =
        100.0 * (1.0 - churn_cached_ns.median / churn_uncached_ns.median.max(1.0));
    let churn_phases = phase_medians(RUNS, || phased_pass(&churn, &churn_updates, true));

    // Enumerated coverage arm: the whole default-budget grammar space,
    // one-shot, grouped by regime; amplification = propagation cost /
    // view-update cost, the per-regime blowup figure.
    let regime_rows = enumerated_regime_rows(RUNS);
    let blowup = regime_rows
        .iter()
        .max_by(|a, b| a.amplification.total_cmp(&b.amplification))
        .expect("enumeration is non-empty");
    let blowup_regime = blowup.regime;

    // Kernel rows: the pooled CSR arm over each workload's harvested
    // graph set (ns per full best-cost sweep).
    let kernel_rows = [
        kernel_row("hospital", &hospital, RUNS),
        kernel_row("random32", &random32, RUNS),
        kernel_row("churn", &churn, RUNS),
    ];

    // Admission rows across document size (department width fixed).
    const ADMISSIONS: usize = 15;
    let admission_rows: Vec<AdmissionRow> = [1, 10, 100]
        .into_iter()
        .map(|departments| admission_row(departments, 3, ADMISSIONS))
        .collect();
    let (first, last) = (
        &admission_rows[0],
        &admission_rows[admission_rows.len() - 1],
    );
    let ratio = (last.timed.propagate_ms.median + last.timed.commit_ms.median)
        / (first.timed.propagate_ms.median + first.timed.commit_ms.median);

    // Worst-case shapes, same timed region: the star's root and the
    // chain's whole spine are dirty on every edit.
    const SHAPE_WARMUP: usize = 1;
    const SHAPE_UPDATES: usize = 7;
    let sizes = [1_000, 10_000, 100_000];
    let star_rows: Vec<ShapeRow> = sizes
        .iter()
        .map(|&n| star_row(n, SHAPE_WARMUP, SHAPE_UPDATES))
        .collect();
    let chain_rows: Vec<ShapeRow> = sizes
        .iter()
        .map(|&n| chain_row(n, SHAPE_WARMUP, SHAPE_UPDATES))
        .collect();

    let mut json = json_header("xvu-bench-propagate/12");
    json.push_str("  \"timed_region\": \"engine compile + session open + K propagations\",\n");
    json.push_str(&format!(
        "  \"spread_note\": \"every timing figure is min / median / max: workloads, kernel and \
         enumerated over their {RUNS} runs, admission and worst_case over their updates and \
         repeats\",\n"
    ));
    json.push_str(
        "  \"phases_note\": \"workload phases are per-phase ns summed over the K updates of one \
         pass, read off the session's phase clock (Session::phases), per-phase medians across \
         runs, measured outside the timed runs; admission and worst_case phases are those of \
         the median edit by propagate time\",\n",
    );
    json.push_str(&format!("  \"runs\": {RUNS},\n"));
    json.push_str("  \"workloads\": {\n");
    for row in rows.iter() {
        json.push_str(&format!(
            "    \"{}\": {{ \"updates\": {}, \"doc_nodes\": {}, \"ns\": {}, \
             \"us_per_update\": {}, {} }},\n",
            row.name,
            row.updates,
            row.doc_nodes,
            row.ns.json(0),
            row.ns.scale(1e-3 / row.updates as f64).json(3),
            phases_json(&row.phases),
        ));
    }
    json.push_str(&format!(
        "    \"churn\": {{ \"updates\": {}, \"doc_nodes\": {}, \
         \"timed_region\": \"session open + K x (propagate + commit), a fresh engine compiled outside the timed region per run\", \
         \"cached_ns\": {}, \"uncached_ns\": {}, \
         \"cached_us_per_update\": {}, \"uncached_us_per_update\": {}, \
         \"cache_improvement_pct\": {:.1}, {} }}\n",
        K,
        churn.doc.size(),
        churn_cached_ns.json(0),
        churn_uncached_ns.json(0),
        churn_cached_ns.scale(1e-3 / K as f64).json(3),
        churn_uncached_ns.scale(1e-3 / K as f64).json(3),
        improvement_pct,
        phases_json(&churn_phases),
    ));
    json.push_str("  },\n");
    json.push_str(
        "  \"kernel\": {\n    \"timed_region\": \"ns per pooled best-cost sweep over every \
         per-node propagation graph harvested from the workload's forest \
         (xvu_bench::kernel::sum_csr_pooled, checked against a fresh scratch per graph)\",\n    \
         \"workloads\": {\n",
    );
    for (i, k) in kernel_rows.iter().enumerate() {
        json.push_str(&format!(
            "      \"{}\": {{ \"graphs\": {}, \"csr_pooled_ns\": {} }}{}\n",
            k.name,
            k.graphs,
            k.csr_pooled_ns.json(0),
            if i + 1 == kernel_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("    }\n  },\n");
    json.push_str(&format!(
        "  \"enumerated\": {{\n    \"timed_region\": \"one-shot propagate over every default-budget enumo instance, per regime\",\n    \"cost_blowup_regime\": \"{blowup_regime}\",\n"
    ));
    json.push_str("    \"regimes\": {\n");
    for (i, r) in regime_rows.iter().enumerate() {
        json.push_str(&format!(
            "      \"{}\": {{ \"instances\": {}, \"update_cost\": {}, \"propagation_cost\": {}, \
             \"cost_amplification\": {:.2}, \"ns\": {}, \"us_per_instance\": {}, \
             \"max_optimal_count\": {} }}{}\n",
            r.regime,
            r.instances,
            r.update_cost,
            r.propagation_cost,
            r.amplification,
            r.ns.json(0),
            r.ns.scale(1e-3 / r.instances.max(1) as f64).json(3),
            r.max_count,
            if i + 1 == regime_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("    }\n  },\n");
    json.push_str(&format!(
        "  \"admission\": {{\n    \"timed_region\": \"one admission (a patient with name and \
         record, 3 view nodes) into department 0 of a hospital of 125-patient departments, \
         Session::propagate and Session::commit timed separately; min / median / max ms over \
         {ADMISSIONS} updates after 3 warm-up admissions; open_ms (Engine::open) and resume_ms \
         (Parked::resume of a copy parked outside the timing) of the document before the \
         admissions, min / median / max ms over {OPEN_REPEATS} repeats in alternation\",\n    \
         \"rows\": [\n"
    ));
    for (i, r) in admission_rows.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"departments\": {}, \"doc_nodes\": {}, \"updates\": {ADMISSIONS}, \
             \"open_ms\": {}, \"resume_ms\": {}, {} }}{}\n",
            r.departments,
            r.doc_nodes,
            r.open_ms.json(4),
            r.resume_ms.json(4),
            r.timed.json(),
            if i + 1 == admission_rows.len() {
                ""
            } else {
                ","
            },
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"median_ratio_100k_over_1k\": {ratio:.1}\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"worst_case\": {{\n    \"timed_region\": \"as in admission: Session::propagate and \
         Session::commit of one 1-node insert timed separately; min / median / max ms over \
         {SHAPE_UPDATES} updates after {SHAPE_WARMUP} warm-up insert; memo_entries: the entries \
         the session's memo holds after them\",\n    \"star\": {},\n    \
         \"chain\": {}\n  }}\n}}\n",
        shape_rows_json(&star_rows, "children", SHAPE_UPDATES),
        shape_rows_json(&chain_rows, "levels", SHAPE_UPDATES),
    ));

    write_json(&out_path, &json);
}
