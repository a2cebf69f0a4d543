//! `xvu_perfbench` — one workload of the end-to-end benchmark per
//! process.
//!
//! ```text
//! xvu_perfbench --workload <fleet_serve|large_doc_churn|large_doc_whatif>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               [--scale full|tiny] [--trace-out <path>] [--inject-mismatch]
//! ```
//!
//! Inputs come from the `xvu_workload` generators and depend only on the
//! seed. The process generates them, resets its peak-RSS mark, runs the
//! workload for the given time, checks every served result against what
//! the generator recorded, and prints one JSON report as its last line.
//! With `--trace 0` the report holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics, and the spans are written
//! to `--trace-out`. `perfbench/README.md` defines every metric.

mod fleet;
mod json;
mod large_doc;
mod stats;
mod trace;

use stats::Metric;
use trace::Tracer;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Input sizes: the benchmark's own, or tiny ones for the self-test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Tiny,
}

/// Per-layer counters read from the daemon's `stats` reply. In-process
/// workloads have no daemon and report them as zero.
pub const SERVER_METRICS: &[(&str, &str)] = &[
    ("server.queue_max", "count"),
    ("server.evictions", "count"),
    ("server.retries", "count"),
    ("memo.session_hit_ratio", "ratio"),
    ("memo.session_lookups", "count"),
    ("memo.shared_hit_ratio", "ratio"),
    ("memo.shared_lookups", "count"),
];

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    /// Failed, refused (`retry`) and mismatched requests.
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    pub summary: String,
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, notes: Vec<String>) -> Outcome {
        Outcome {
            attempted,
            failed,
            notes,
            metrics: Vec::new(),
            summary: String::new(),
            trace: None,
        }
    }
}

/// Resets the process's peak-RSS mark so input generation does not count:
/// first hands the heap pages generation freed back to the kernel (the
/// allocator would otherwise keep a seed-dependent amount resident), then
/// resets `VmHWM` to the current RSS. Without the reset (a kernel that
/// refuses it) the peak includes generation.
pub fn reset_peak_rss() {
    release_free_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
    // unused heap pages to the kernel; it may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Moves each pair of cycles to the next CPU the process may use.
///
/// Each cycle runs on one CPU: the calling thread is moved there before
/// the cycle and every thread the cycle spawns inherits that CPU (on a
/// 2-vCPU guest, cross-CPU wake-ups made identical daemon replays differ
/// by up to 3x). Successive pairs of cycles take turns over the CPUs,
/// because on a shared host each vCPU has slow and fast phases of its own
/// that last tens of seconds: a run pinned to one vCPU reads that vCPU's
/// phase, while a run spread over all of them averages them out. A pair,
/// not a single cycle, so that a traced run's untraced and traced cycles
/// ([`trace::traces_cycle`]) share a CPU.
pub struct CpuRotation {
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// The CPUs in the process's affinity mask, in order (none when the
    /// mask cannot be read, and then cycles stay where they are).
    pub fn from_affinity() -> CpuRotation {
        CpuRotation {
            cpus: affinity::allowed(),
        }
    }

    /// Moves the calling thread to the CPU of cycle number `cycle`.
    pub fn enter(&self, cycle: usize) {
        if !self.cpus.is_empty() {
            affinity::pin(self.cpus[(cycle / 2) % self.cpus.len()]);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
        if !ok {
            return Vec::new();
        }
        (0..64 * set.len())
            .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread. On failure the thread stays where
        // it is, which only costs steadiness.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_metric() -> Metric {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    Metric::new("peak_rss_mb", kb / 1024.0, "MB", 1)
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub trace_out: Option<String>,
    /// Self-test hook: corrupt one recorded expectation so the
    /// correctness gate must report a mismatch.
    pub inject_mismatch: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        trace_out: None,
        inject_mismatch: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-mismatch" {
            args.inject_mismatch = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("scale")),
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn report_json(args: &Args, out: &Outcome, trace_file: Option<&str>) -> String {
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let pct = m.percentile.as_ref().map_or(String::new(), |p| {
                format!(",\"percentile\":{}", json_str(p))
            });
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}{pct}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"scale\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"error_rate\":{},\"summary\":{},\"trace_file\":{},\"notes\":[{}],\"metrics\":{{{}}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        json_str(if args.scale == Scale::Full { "full" } else { "tiny" }),
        out.failed == 0,
        out.attempted,
        out.failed,
        error_rate,
        json_str(&out.summary),
        trace_file.map_or("null".to_owned(), json_str),
        notes.join(","),
        metrics.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xvu_perfbench: {e}");
            std::process::exit(2);
        }
    };
    let kind = match args.workload.as_str() {
        "fleet_serve" => None,
        "large_doc_churn" => Some(large_doc::Kind::Churn),
        "large_doc_whatif" => Some(large_doc::Kind::WhatIf),
        other => {
            eprintln!("xvu_perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let outcome = match kind {
        None => fleet::run(&args),
        Some(k) => large_doc::run(k, &args),
    };
    let mut trace_file = None;
    if let (Some(tr), Some(path)) = (&outcome.trace, &args.trace_out) {
        if let Err(e) = trace::write_spans(tr, path) {
            eprintln!("xvu_perfbench: cannot write spans to {path}: {e}");
            std::process::exit(1);
        }
        trace_file = Some(path.as_str());
    }
    println!("{}", report_json(&args, &outcome, trace_file));
}
