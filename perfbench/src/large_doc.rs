//! The two single-caller workloads over one large hospital document:
//! `large_doc_churn` (propagate and commit a stream of small edits) and
//! `large_doc_whatif` (preview candidate edits, never committing).
//!
//! Inputs are generated once per process and replayed: generating one
//! churn edit at 10k nodes costs several times the edit itself, so a run
//! replays a fixed stream in *cycles*. Every cycle starts from the
//! serialized inputs (snapshot decode, engine compile, `Engine::open`,
//! one warm-up propagate that fills the memo tier) and then serves the
//! whole stream, so every cycle does identical work and each one yields a
//! set-up sample.

use crate::stats::{across_cycles, CycleLatencies, Metric};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome, Scale};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::Cursor;
use std::time::{Duration, Instant};
use xvu_dtd::Dtd;
use xvu_edit::{
    apply_in_place, nop_script, parse_script, script_footprint, script_to_term, EditOp, Script,
};
use xvu_propagate::{count_optimal_propagations, revalidate_output, Engine, Propagation, Session};
use xvu_server::{read_frame, write_frame, Frame, Verb};
use xvu_tree::{Alphabet, DocTree, NodeIdGen};
use xvu_view::{extract_view, Annotation};
use xvu_workload::scenario::{hospital, hospital_doc};
use xvu_workload::{ChurnConfig, ChurnStream};

/// Which of the two large-document workloads runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Propagate and commit every edit.
    Churn,
    /// Preview every candidate (propagate + count), never commit.
    WhatIf,
}

/// One pre-generated request and the outcome the generator observed.
/// Requests are kept as terms and parsed just before they are served,
/// and the chosen script as a hash of its term: held as trees, the inputs
/// would dominate the process's footprint, by an amount that varies with
/// the seed.
struct Recorded {
    update_term: String,
    cost: u64,
    count: u128,
    script_hash: u64,
}

struct Inputs {
    alpha: Alphabet,
    dtd: Dtd,
    ann: Annotation,
    snapshot: Vec<u8>,
    stream: Vec<Recorded>,
    nodes: usize,
}

/// `(departments, patients per department, requests per cycle)`.
fn shape(scale: Scale) -> (usize, usize, usize) {
    match scale {
        // 10 × 125 patients: 10,011 nodes. A hundred requests per cycle
        // average over many edit shapes, and let every cycle hold its
        // own p90.
        Scale::Full => (10, 125, 100),
        Scale::Tiny => (2, 6, 6),
    }
}

/// The view subtree of one patient: patient, name, record.
const MAX_DELETED_VIEW_NODES: usize = 3;

fn compile(alpha: Alphabet, dtd: Dtd, ann: Annotation) -> Engine {
    Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()
        .expect("the hospital engine compiles")
}

/// Builds the document and records the request stream by executing it
/// against a direct session: churn edits evolve the document, what-if
/// candidates all target the original one.
fn generate(kind: Kind, scale: Scale, seed: u64) -> Inputs {
    let (depts, patients, len) = shape(scale);
    let h = hospital();
    let mut gen = NodeIdGen::new();
    let doc = hospital_doc(&h, depts, patients, &mut gen);
    let snapshot = doc
        .to_snapshot_bytes(&h.alpha)
        .expect("hospital documents encode");
    let engine = compile(h.alpha.clone(), h.dtd.clone(), h.ann.clone());
    let mut session = engine.open(&doc).expect("hospital documents are valid");
    let mut churn = ChurnStream::new(&h.dtd, &h.ann, h.alpha.len(), ChurnConfig::default(), seed);
    let mut stream = Vec::with_capacity(len);
    for _ in 0..len {
        // Small edits only: an edit at the root may delete a whole
        // department, and a stream of those shrinks the document by a
        // seed-dependent amount.
        let update = loop {
            let mut ids = session.id_gen();
            let update = churn.next_update(session.document(), &mut ids);
            let deleted = update
                .preorder()
                .filter(|&n| update.label(n).op == EditOp::Del)
                .count();
            if deleted <= MAX_DELETED_VIEW_NODES {
                break update;
            }
        };
        let prop = session.propagate(&update).expect("churn edits propagate");
        let count = count_optimal_propagations(&prop.forest).expect("count fits in u128");
        stream.push(Recorded {
            update_term: script_to_term(&update, &h.alpha),
            cost: prop.cost,
            count,
            script_hash: term_hash(&prop.script, &h.alpha),
        });
        if kind == Kind::Churn {
            session.commit(&prop).expect("churn edits commit");
        }
    }
    Inputs {
        alpha: h.alpha,
        dtd: h.dtd,
        ann: h.ann,
        snapshot,
        stream,
        nodes: doc.size(),
    }
}

/// Everything a run accumulates across cycles.
#[derive(Default)]
struct Acc {
    setup_ms: Vec<f64>,
    op_ms: CycleLatencies,
    /// Requests per second of each untraced cycle.
    cycle_rate: Vec<f64>,
    traced_op_ms: CycleLatencies,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    notes: Vec<String>,
}

impl Acc {
    fn note(&mut self, what: String) {
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    fn mismatch(&mut self, what: String) {
        self.mismatched += 1;
        self.note(what);
    }
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let (seconds, traced) = (args.seconds, args.trace);
    let mut inputs = generate(kind, args.scale, args.seed);
    if args.inject_mismatch {
        inputs.stream[0].cost += 1;
    }
    crate::reset_peak_rss();
    let base = Instant::now();
    let mut tr = Tracer::new(base, 0);
    let mut acc = Acc::default();
    let deadline = base + Duration::from_secs_f64(seconds);
    let cpus = crate::CpuRotation::from_affinity();
    let mut cycle = 0usize;
    while cycle < 2 || Instant::now() < deadline {
        let trace_this = trace::traces_cycle(traced, cycle);
        cpus.enter(cycle);
        run_cycle(kind, &inputs, trace_this.then_some(&mut tr), &mut acc);
        cycle += 1;
    }

    let mut out = Outcome::new(acc.attempted, acc.failed + acc.mismatched, acc.notes);
    out.summary = format!(
        "{} nodes, {} requests per cycle, {cycle} cycles",
        inputs.nodes,
        inputs.stream.len()
    );
    if traced {
        let mut metrics = trace::layer_metrics(&tr);
        metrics.extend(absent_server_metrics());
        metrics.push(overhead_metric(&acc.op_ms, &acc.traced_op_ms));
        out.metrics = metrics;
        out.trace = Some(tr);
    } else {
        let rate = across_cycles(&acc.cycle_rate);
        out.metrics.push(Metric::new(
            "setup_s",
            across_cycles(&acc.setup_ms) / 1e3,
            "s",
            acc.setup_ms.len(),
        ));
        out.metrics.push(Metric::new(
            "edits_per_s",
            rate,
            "1/s",
            acc.cycle_rate.len(),
        ));
        // One request kind per workload: it is both the edit and the read.
        out.metrics.extend(acc.op_ms.metrics("edit"));
        out.metrics.extend(acc.op_ms.metrics("read"));
        out.metrics.push(crate::peak_rss_metric());
    }
    out
}

/// Server counters have no source on an in-process workload.
fn absent_server_metrics() -> Vec<Metric> {
    crate::SERVER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, 0.0, unit, 0))
        .collect()
}

/// Traced request time over untraced request time (each the per-cycle
/// medians combined across cycles), as a percentage above 100 %.
pub fn overhead_metric(untraced: &CycleLatencies, traced: &CycleLatencies) -> Metric {
    let (u, t) = (untraced.p50(), traced.p50());
    let pct = if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 };
    Metric::new("trace.overhead_pct", pct, "%", 1)
}

/// One cycle: set up from the serialized inputs, then serve the stream.
fn run_cycle(kind: Kind, inp: &Inputs, mut tr: Option<&mut Tracer>, acc: &mut Acc) {
    let (alpha, dtd, ann) = (inp.alpha.clone(), inp.dtd.clone(), inp.ann.clone());
    let mut decode_alpha = alpha.clone();
    let req = tr.as_deref_mut().map_or(0, Tracer::request);
    let t0 = Instant::now();
    let root = tr.as_deref_mut().map(|t| t.begin("setup", None, req));
    let doc = span(&mut tr, "tree.decode", root, req, || {
        DocTree::from_snapshot_bytes(&inp.snapshot, &mut decode_alpha)
    })
    .expect("snapshot decodes");
    let engine = span(&mut tr, "propagate.compile", root, req, || {
        compile(decode_alpha, dtd, ann)
    });
    let open = tr
        .as_deref_mut()
        .map(|t| t.begin("propagate.open", root, req));
    let mut session = engine.open(&doc).expect("snapshot document is valid");
    if let (Some(t), Some(o)) = (tr.as_deref_mut(), open) {
        t.end(o);
    }
    span(&mut tr, "setup.warmup", root, req, || {
        session
            .propagate(&nop_script(session.view()))
            .expect("identity update propagates")
    });
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(r)) = (tr.as_deref_mut(), root) {
        t.end(r);
        // What `Engine::open` does inside, re-executed on its input.
        t.time("dtd.validate", open, req, || engine.dtd().validate(&doc))
            .expect("valid");
        let view = t.time("view.extract", open, req, || {
            extract_view(engine.annotation(), &doc)
        });
        t.count("view.nodes", view.size() as f64);
    }
    acc.setup_ms.push(setup_ms);

    let mut latencies = Vec::with_capacity(inp.stream.len());
    for (i, rec) in inp.stream.iter().enumerate() {
        acc.attempted += 1;
        let update = parse_script(&mut alpha.clone(), &rec.update_term)
            .expect("recorded update terms parse");
        let result = match tr.as_deref_mut() {
            None => serve(kind, &mut session, &update),
            Some(t) => serve_traced(kind, &mut session, &update, &rec.update_term, t, &alpha),
        };
        match result {
            Ok((ms, prop, count)) => {
                latencies.push(ms);
                check(kind, i, rec, &prop, count, &alpha, acc);
            }
            Err(e) => {
                // The session no longer matches the recorded stream: the
                // rest of the cycle cannot be checked, so it fails too.
                let left = (inp.stream.len() - i) as u64;
                acc.failed += left;
                acc.attempted += left - 1;
                acc.note(format!("request {i}: {e}"));
                return;
            }
        }
    }
    if tr.is_some() {
        acc.traced_op_ms.add(&mut latencies);
    } else {
        let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
        acc.cycle_rate.push(latencies.len() as f64 / busy_s);
        acc.op_ms.add(&mut latencies);
    }
}

/// Times `f` as a span when tracing.
fn span<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tr.as_deref_mut() {
        Some(t) => t.time(name, parent, req, f),
        None => f(),
    }
}

type Served = (f64, Propagation, Option<u128>);

/// One untraced request: its latency in ms, the propagation, and (for a
/// preview) the count.
fn serve(kind: Kind, session: &mut Session<'_>, update: &Script) -> Result<Served, String> {
    let t = Instant::now();
    let prop = session.propagate(update).map_err(|e| e.to_string())?;
    let count = match kind {
        Kind::Churn => {
            session.commit(&prop).map_err(|e| e.to_string())?;
            None
        }
        Kind::WhatIf => count_optimal_propagations(&prop.forest),
    };
    Ok((t.elapsed().as_secs_f64() * 1e3, prop, count))
}

/// One traced request: primary spans inside the request root, then
/// shadow and probe calls on identical inputs (a clone of the session as
/// it stood before the request).
fn serve_traced(
    kind: Kind,
    session: &mut Session<'_>,
    update: &Script,
    update_term: &str,
    t: &mut Tracer,
    alpha: &Alphabet,
) -> Result<Served, String> {
    let before = session.clone();
    let req = t.request();
    let root_name = if kind == Kind::Churn {
        "edit"
    } else {
        "preview"
    };
    let a0 = trace::thread_allocs();
    let root = t.begin(root_name, None, req);
    let ps = t.begin("propagate", Some(root), req);
    trace::set_counting(true);
    let prop = session.propagate(update);
    trace::set_counting(false);
    t.end(ps);
    let prop = match prop {
        Ok(p) => p,
        Err(e) => {
            t.end(root);
            return Err(e.to_string());
        }
    };
    let second = match kind {
        Kind::Churn => "propagate.commit",
        Kind::WhatIf => "propagate.count",
    };
    let cs = t.begin(second, Some(root), req);
    trace::set_counting(true);
    let (committed, count) = match kind {
        Kind::Churn => (session.commit(&prop).map_err(|e| e.to_string()), None),
        Kind::WhatIf => (Ok(()), count_optimal_propagations(&prop.forest)),
    };
    trace::set_counting(false);
    t.end(cs);
    t.end(root);
    let allocs = (trace::thread_allocs() - a0) as f64;
    committed?;
    let ms = t.spans[root].ms();
    t.count("alloc.per_edit", allocs);
    t.count("alloc.per_read", allocs);

    // Shadows: the instance part of `Session::propagate`.
    t.time("propagate.instance", Some(ps), req, || {
        before.instance(update).map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    // Commit sub-steps; a what-if request commits a copy as a probe.
    let commit_span = match kind {
        Kind::Churn => cs,
        Kind::WhatIf => {
            let mut copy = before.clone();
            let probe = t.begin("propagate.commit", None, req);
            let committed = copy.commit(&prop);
            t.end(probe);
            committed.map_err(|e| e.to_string())?;
            probe
        }
    };
    let engine = before.engine();
    t.time("commit.revalidate", Some(commit_span), req, || {
        revalidate_output(engine.dtd(), &prop.script)
    })
    .map_err(|e| e.to_string())?;
    let mut doc = before.document().clone();
    t.time("commit.apply", Some(commit_span), req, || {
        apply_in_place(&mut doc, &prop.script)
    })
    .map_err(|e| e.to_string())?;
    t.time("commit.view", Some(commit_span), req, || {
        extract_view(engine.annotation(), &doc)
    });
    // Probes: the read verbs and the wire codec on this request.
    if kind == Kind::Churn {
        t.time("propagate.count", None, req, || {
            count_optimal_propagations(&prop.forest)
        });
    }
    t.time("propagate.recount", None, req, || {
        before.count_optimal(update)
    })
    .map_err(|e| e.to_string())?;
    t.time("propagate.verify", None, req, || {
        before.verify(update, &prop.script)
    })
    .map_err(|e| e.to_string())?;
    let mut scratch = alpha.clone();
    t.time("edit.parse", None, req, || {
        parse_script(&mut scratch, update_term)
    })
    .map_err(|e| e.to_string())?;
    let printed = t.time("edit.print", None, req, || {
        script_to_term(&prop.script, alpha)
    });
    let request = Frame::new(Verb::Propagate, format!("0\n{update_term}"));
    let reply = Frame::ok(format!("{}\n{}\n{printed}", prop.cost, count.unwrap_or(0)));
    t.time("server.frame", None, req, || {
        frame_roundtrip(&request, &reply)
    })?;

    let (vertices, edges) = prop.forest.census();
    t.count("propagate.graphs", prop.forest.graphs().count() as f64);
    t.count("propagate.vertices", vertices as f64);
    t.count("propagate.edges", edges as f64);
    t.count(
        "edit.footprint_nodes",
        script_footprint(update).changed().len() as f64,
    );
    t.count("edit.script_nodes", update.size() as f64);
    Ok((ms, prop, count))
}

/// Encodes and decodes a request and its reply with the wire framing.
pub fn frame_roundtrip(request: &Frame, reply: &Frame) -> Result<(), String> {
    for frame in [request, reply] {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).map_err(|e| e.to_string())?;
        read_frame(&mut Cursor::new(buf)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A fixed-key hash of the script's term (identical across processes).
fn term_hash(script: &Script, alpha: &Alphabet) -> u64 {
    let mut h = DefaultHasher::new();
    script_to_term(script, alpha).hash(&mut h);
    h.finish()
}

/// Compares a served request with what the generator recorded.
fn check(
    kind: Kind,
    i: usize,
    rec: &Recorded,
    prop: &Propagation,
    count: Option<u128>,
    alpha: &Alphabet,
    acc: &mut Acc,
) {
    if prop.cost != rec.cost {
        acc.mismatch(format!("request {i}: cost {} != {}", prop.cost, rec.cost));
    } else if kind == Kind::WhatIf && count != Some(rec.count) {
        acc.mismatch(format!("request {i}: count {count:?} != {}", rec.count));
    } else if term_hash(&prop.script, alpha) != rec.script_hash {
        acc.mismatch(format!("request {i}: script term differs"));
    }
}
