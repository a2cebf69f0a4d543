//! In-memory spans for the traced run, the counting allocator, and the
//! per-layer metrics derived from both.
//!
//! A span names one call into one layer. Its `parent` is the span whose
//! time it accounts for, so a span's *self time* is its duration minus
//! the durations of its children. Children are either primary calls made
//! inside the parent, or *shadow* calls: the same layer function
//! re-executed on identical inputs right after the request, standing for
//! a sub-step the library performs internally (for example
//! `revalidate_output` inside `Session::commit`). A request's root span
//! is its end-to-end time; its self time is the residual no named layer
//! accounts for, which is reported and never dropped.

use crate::stats::{mean, Metric};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Counts the heap allocations a thread makes while its counting is on
/// ([`set_counting`]), so library calls are counted apart from the
/// benchmark's own bookkeeping and from other threads.
pub struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only const-initialised thread-local `Cell`s, which never allocate and
// have no destructors.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // obtained them from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // obtained them from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Traced cycles per traced run. A traced run alternates untraced and
/// traced cycles, so the tracing overhead is measured under the same
/// conditions as the trace, until this many traced cycles have run; the
/// cap keeps the span file small (a fleet cycle records ~25k spans).
const TRACED_CYCLES: usize = 4;

/// Whether cycle number `cycle` of a run records spans.
pub fn traces_cycle(traced_run: bool, cycle: usize) -> bool {
    traced_run && cycle % 2 == 1 && cycle / 2 < TRACED_CYCLES
}

/// Turns allocation counting on or off for the calling thread.
pub fn set_counting(on: bool) {
    COUNTING.with(|c| c.set(on));
}

/// Allocations made by the calling thread while counting was on.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One recorded call. Times are nanoseconds since the run's base instant.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e6
    }
}

/// A per-thread span and count recorder. Everything stays in memory
/// until [`write_spans`] runs at the end of the run.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    thread: u64,
    next_req: u64,
    forks: u64,
    pub spans: Vec<Span>,
    /// `(name, value)` observations, averaged per name.
    pub counts: Vec<(&'static str, f64)>,
}

impl Tracer {
    pub fn new(base: Instant, thread: u64) -> Tracer {
        Tracer {
            base,
            thread,
            next_req: 0,
            forks: 0,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock, whose request
    /// ids differ from every other recorder's.
    pub fn fork(&mut self) -> Tracer {
        self.forks += 1;
        Tracer::new(self.base, (self.thread << 16) | self.forks)
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// A fresh request id, unique across recorders.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        (self.thread << 40) | self.next_req
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Records one call as a complete span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(name, parent, req);
        let out = f();
        self.end(idx);
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    /// Appends another thread's recorder, re-basing its parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.counts.extend(other.counts);
    }

    /// Self time per span: duration minus the durations of its children.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.ms();
            }
        }
        out
    }
}

/// How a per-layer metric reads its spans.
#[derive(Clone, Copy)]
enum Read {
    /// Mean duration of the named spans.
    Dur,
    /// Mean self time of the named spans.
    SelfTime,
}

/// Span-derived per-layer metrics: `(metric, span names, read, unit)`.
/// Times are per call of the layer; `server.rest_ms` is the residual of
/// every request root.
const SPAN_METRICS: &[(&str, &[&str], Read, &str)] = &[
    ("tree.decode_ms", &["tree.decode"], Read::Dur, "ms"),
    ("dtd.validate_ms", &["dtd.validate"], Read::Dur, "ms"),
    ("view.extract_ms", &["view.extract"], Read::Dur, "ms"),
    (
        "propagate.compile_ms",
        &["propagate.compile"],
        Read::Dur,
        "ms",
    ),
    ("propagate.open_ms", &["propagate.open"], Read::Dur, "ms"),
    (
        "propagate.instance_ms",
        &["propagate.instance"],
        Read::Dur,
        "ms",
    ),
    ("propagate.forest_ms", &["propagate"], Read::SelfTime, "ms"),
    ("propagate.count_ms", &["propagate.count"], Read::Dur, "ms"),
    (
        "propagate.recount_ms",
        &["propagate.recount"],
        Read::Dur,
        "ms",
    ),
    (
        "propagate.verify_ms",
        &["propagate.verify"],
        Read::Dur,
        "ms",
    ),
    (
        "propagate.commit_ms",
        &["propagate.commit"],
        Read::Dur,
        "ms",
    ),
    (
        "commit.revalidate_ms",
        &["commit.revalidate"],
        Read::Dur,
        "ms",
    ),
    ("commit.apply_ms", &["commit.apply"], Read::Dur, "ms"),
    ("commit.view_ms", &["commit.view"], Read::Dur, "ms"),
    (
        "commit.rest_ms",
        &["propagate.commit"],
        Read::SelfTime,
        "ms",
    ),
    ("edit.parse_ms", &["edit.parse"], Read::Dur, "ms"),
    ("edit.print_ms", &["edit.print"], Read::Dur, "ms"),
    ("server.frame_us", &["server.frame"], Read::Dur, "us"),
    ("server.rest_ms", ROOTS, Read::SelfTime, "ms"),
];

/// Request root span names: one per end-to-end request kind.
pub const ROOTS: &[&str] = &[
    "edit",
    "preview",
    "rt.open",
    "rt.propagate",
    "rt.verify",
    "rt.count",
    "rt.commit",
    "rt.close",
];

/// Count-derived per-layer metrics: `(metric, count name, unit)`, each the
/// mean of its observations.
const COUNT_METRICS: &[(&str, &str)] = &[
    ("view.nodes", "count"),
    ("propagate.graphs", "count"),
    ("propagate.vertices", "count"),
    ("propagate.edges", "count"),
    ("edit.footprint_nodes", "count"),
    ("edit.script_nodes", "count"),
    ("alloc.per_edit", "count"),
    ("alloc.per_read", "count"),
];

/// The per-layer metrics of a traced run, computed from its spans and
/// counts. Server-side counters and ratios are appended by the caller.
pub fn layer_metrics(tr: &Tracer) -> Vec<Metric> {
    let self_ms = tr.self_ms();
    let mut out = Vec::new();
    for &(metric, names, read, unit) in SPAN_METRICS {
        let vals: Vec<f64> = tr
            .spans
            .iter()
            .zip(&self_ms)
            .filter(|(s, _)| names.contains(&s.name))
            .map(|(s, own)| match read {
                Read::Dur => s.ms(),
                Read::SelfTime => *own,
            })
            .collect();
        let scale = if unit == "us" { 1e3 } else { 1.0 };
        out.push(Metric::new(metric, mean(&vals) * scale, unit, vals.len()));
    }
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(name, v) in &tr.counts {
        by_name.entry(name).or_default().push(v);
    }
    for &(metric, unit) in COUNT_METRICS {
        let vals = by_name.get(metric).map(Vec::as_slice).unwrap_or(&[]);
        out.push(Metric::new(metric, mean(vals), unit, vals.len()));
    }
    out
}

/// Writes every span as one JSON line: name, start and end (ns since the
/// run began), parent index, request id.
pub fn write_spans(tr: &Tracer, path: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in tr.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start, s.end, s.req
        )?;
    }
    w.flush()
}
