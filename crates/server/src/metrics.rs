//! Daemon observability: lock-free latency histograms and counters,
//! snapshotted into a [`StatsSnapshot`] for the `stats` verb, the
//! shutdown report, and `bench_serve`.

use crate::protocol::Verb;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of geometric latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds, so 32 buckets span 1 µs to ~71 min.
const BUCKETS: usize = 32;

/// A fixed-bucket geometric latency histogram, safe for concurrent
/// recording (relaxed atomics; stats are advisory, not a synchronisation
/// channel).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one latency sample.
    pub fn record(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1);
        let idx = (63 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`Histogram`], with quantile estimation.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_micros: u64,
}

impl HistogramSnapshot {
    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in milliseconds (0 with no samples).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_micros as f64 / self.count as f64 / 1000.0
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in milliseconds,
    /// reporting the **upper bound** of the bucket holding the quantile
    /// sample (a conservative, never-optimistic estimate). 0 with no
    /// samples.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return (1u64 << (i + 1)) as f64 / 1000.0;
            }
        }
        (1u64 << BUCKETS) as f64 / 1000.0
    }
}

/// The request verbs the daemon counts individually, in stats order.
pub(crate) const COUNTED_VERBS: [Verb; 11] = [
    Verb::Hello,
    Verb::Load,
    Verb::Open,
    Verb::Propagate,
    Verb::Verify,
    Verb::Count,
    Verb::Commit,
    Verb::CloseDoc,
    Verb::Stats,
    Verb::Shutdown,
    Verb::Snapshot,
];

/// Live daemon metrics. One instance per [`crate::Server`], shared by
/// every connection thread.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; COUNTED_VERBS.len()],
    errors: AtomicU64,
    panics: AtomicU64,
    /// Connections open right now.
    pub connections: AtomicU64,
    /// Connections answered `retry` and closed because the connection cap
    /// was reached.
    pub refused_connections: AtomicU64,
    /// Writes pushed back by admission control.
    pub rejected_writes: AtomicU64,
    /// Writes waiting for admission (every slot taken) right now.
    pub queue_depth: AtomicU64,
    /// High-water mark of the writes waiting for admission.
    pub queue_max: AtomicU64,
    /// Sessions evicted (least recently used first) to open another.
    pub evictions: AtomicU64,
    /// Latency of write verbs (admission request → reply ready: the
    /// admission wait included).
    pub write_latency: Histogram,
    /// Latency of the read-only fast path (verify/count).
    pub read_latency: Histogram,
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Counts one request of `verb`.
    pub fn count_request(&self, verb: Verb) {
        if let Some(i) = COUNTED_VERBS.iter().position(|&v| v == verb) {
            self.requests[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one error reply.
    pub fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request whose handler panicked (its `err` reply is
    /// counted by [`Metrics::count_error`]).
    pub fn count_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records how many writes wait for admission, maintaining the
    /// high-water mark.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Freezes everything into a [`StatsSnapshot`]. `cache` holds the
    /// propagation-memo counters summed over the server's families (each
    /// session owns its memo, so `entries` are those of the sessions
    /// open now); `resident`/`capacity` count the open sessions and their
    /// bound.
    pub fn snapshot(
        &self,
        cache: xvu_propagate::CacheStats,
        resident: usize,
        capacity: usize,
    ) -> StatsSnapshot {
        StatsSnapshot {
            requests: COUNTED_VERBS
                .iter()
                .enumerate()
                .map(|(i, &v)| (v.name(), self.requests[i].load(Ordering::Relaxed)))
                .collect(),
            errors: self.errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            refused_connections: self.refused_connections.load(Ordering::Relaxed),
            rejected_writes: self.rejected_writes.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_max: self.queue_max.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pool_resident: resident,
            pool_capacity: capacity,
            cache,
            write_latency: self.write_latency.snapshot(),
            read_latency: self.read_latency.snapshot(),
        }
    }
}

/// A point-in-time copy of every daemon metric, with JSON rendering for
/// the `stats` verb and bench reports.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Request counts per verb name.
    pub requests: Vec<(&'static str, u64)>,
    /// Error replies sent (requests that panicked included).
    pub errors: u64,
    /// Requests whose handler panicked; each was answered `err`.
    pub panics: u64,
    /// Connections open when the snapshot was taken.
    pub connections: u64,
    /// Connections refused at the connection cap.
    pub refused_connections: u64,
    /// Writes pushed back with `retry`.
    pub rejected_writes: u64,
    /// Writes waiting for admission when the snapshot was taken.
    pub queue_depth: u64,
    /// High-water mark of the writes waiting for admission.
    pub queue_max: u64,
    /// LRU pool evictions.
    pub evictions: u64,
    /// Sessions currently resident in the pool.
    pub pool_resident: usize,
    /// The pool's configured bound.
    pub pool_capacity: usize,
    /// Propagation-memo counters, summed over the server's families:
    /// hits, misses and sweeps since start, entries held by the open
    /// sessions.
    pub cache: xvu_propagate::CacheStats,
    /// Write-path latency (includes the admission wait).
    pub write_latency: HistogramSnapshot,
    /// Read-only fast-path latency.
    pub read_latency: HistogramSnapshot,
}

impl StatsSnapshot {
    /// Total requests across all verbs.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(|(_, n)| n).sum()
    }

    /// Renders the snapshot as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str("\"requests\":{");
        for (i, (name, n)) in self.requests.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{name}\":{n}"));
        }
        s.push_str("},");
        s.push_str(&format!(
            "\"errors\":{},\"panics\":{},\"connections\":{},\"refused_connections\":{},",
            self.errors, self.panics, self.connections, self.refused_connections
        ));
        s.push_str(&format!(
            "\"rejected_writes\":{},\"queue_depth\":{},\"queue_max\":{},",
            self.rejected_writes, self.queue_depth, self.queue_max
        ));
        s.push_str(&format!(
            "\"evictions\":{},\"pool_resident\":{},\"pool_capacity\":{},",
            self.evictions, self.pool_resident, self.pool_capacity
        ));
        s.push_str(&format!(
            "\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"sweeps\":{},\"hit_rate\":{:.4}}},",
            self.cache.hits,
            self.cache.misses,
            self.cache.entries,
            self.cache.sweeps,
            self.cache.hit_rate()
        ));
        let lat = |h: &HistogramSnapshot| {
            format!(
                "{{\"count\":{},\"mean_ms\":{:.3},\"p50_ms\":{:.3},\"p90_ms\":{:.3},\"p99_ms\":{:.3}}}",
                h.count(),
                h.mean_ms(),
                h.quantile_ms(0.50),
                h.quantile_ms(0.90),
                h.quantile_ms(0.99)
            )
        };
        s.push_str(&format!(
            "\"write_latency\":{},\"read_latency\":{}",
            lat(&self.write_latency),
            lat(&self.read_latency)
        ));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone_upper_bounds() {
        let h = Histogram::new();
        for micros in [10u64, 20, 40, 80, 5000, 5000, 5000, 100_000] {
            h.record(Duration::from_micros(micros));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8);
        let p50 = snap.quantile_ms(0.50);
        let p90 = snap.quantile_ms(0.90);
        let p99 = snap.quantile_ms(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // every sample is ≤ its bucket's upper bound, so p99 must cover
        // the 100 ms outlier's bucket
        assert!(p99 >= 100.0, "p99 {p99} below the largest sample");
        // and p50 is near the 5 ms cluster, not the outlier
        assert!(p50 <= 16.0, "p50 {p50} dragged up by the outlier");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile_ms(0.99), 0.0);
        assert_eq!(snap.mean_ms(), 0.0);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = Metrics::new();
        m.count_request(Verb::Propagate);
        m.count_request(Verb::Verify);
        m.write_latency.record(Duration::from_micros(800));
        m.observe_queue_depth(3);
        let json = m
            .snapshot(xvu_propagate::CacheStats::default(), 2, 8)
            .to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"propagate\":1"));
        assert!(json.contains("\"cache\":{\"hits\":0,\"misses\":0,\"entries\":0,"));
        assert!(json.contains("\"queue_max\":3"));
        assert!(json.contains("\"pool_capacity\":8"));
        assert!(json.contains("\"write_latency\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
