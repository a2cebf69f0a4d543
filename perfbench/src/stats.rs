//! Order statistics over latency samples, and the metric records every
//! run reports.

/// The tail percentiles a cycle may report, highest first. A tail is the
/// highest one that leaves at least [`TAIL_MIN_BEYOND`] samples beyond it,
/// so it is never read off a handful of points.
/// Each rung is `(1 / (1 - q), label)`, so the test is exact integer
/// arithmetic.
const TAIL_LADDER: [(usize, &str); 3] = [(1000, "p99.9"), (100, "p99"), (10, "p90")];
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of `sorted` (ascending, non-empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Combines one statistic across a run's cycles: the mean after dropping
/// the highest and lowest tenth (`0.0` when empty). Dropping the extremes
/// keeps a cycle hit by a stall from moving the result; averaging the
/// rest follows the share of the run the host spent in its fast and slow
/// phases smoothly, where a median would flip between the two.
pub fn across_cycles(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    mean(&v[cut..v.len() - cut])
}

/// Mean of values (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail percentile for `n` samples and its label: the highest rung
/// of the ladder with at least ten samples beyond it, else the maximum.
pub fn tail_rung(n: usize) -> (f64, &'static str) {
    TAIL_LADDER
        .iter()
        .find(|&&(inv, _)| n >= TAIL_MIN_BEYOND * inv)
        .map_or((1.0, "max"), |&(inv, label)| {
            (1.0 - 1.0 / inv as f64, label)
        })
}

/// One reported metric: its value, unit, how many samples it summarises,
/// and (for tails) which percentile was read.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub percentile: Option<String>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            percentile: None,
        }
    }
}

/// Latency statistics of one request kind, kept per cycle. A run reports
/// each cycle's median and tail combined [`across_cycles`], so the
/// process's memory does not grow with the run's length.
#[derive(Default)]
pub struct CycleLatencies {
    p50: Vec<f64>,
    tail: Vec<f64>,
    rungs: Vec<&'static str>,
    samples: usize,
}

impl CycleLatencies {
    /// Adds one cycle's latencies (milliseconds).
    pub fn add(&mut self, samples: &mut [f64]) {
        if samples.is_empty() {
            return;
        }
        samples.sort_by(f64::total_cmp);
        let (q, rung) = tail_rung(samples.len());
        self.p50.push(quantile(samples, 0.5));
        self.tail.push(quantile(samples, q));
        if !self.rungs.contains(&rung) {
            self.rungs.push(rung);
        }
        self.samples += samples.len();
    }

    /// The per-cycle medians, combined across cycles.
    pub fn p50(&self) -> f64 {
        across_cycles(&self.p50)
    }

    /// `<prefix>_p50_ms` and `<prefix>_tail_ms`; the tail names the
    /// per-cycle percentile it was read at.
    pub fn metrics(&self, prefix: &str) -> [Metric; 2] {
        let mut tail = Metric::new(
            &format!("{prefix}_tail_ms"),
            across_cycles(&self.tail),
            "ms",
            self.samples,
        );
        tail.percentile = Some(format!(
            "{} of each cycle, trimmed mean of {} cycles",
            self.rungs.join("/"),
            self.tail.len()
        ));
        [
            Metric::new(&format!("{prefix}_p50_ms"), self.p50(), "ms", self.samples),
            tail,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rung_keeps_ten_samples_beyond() {
        assert_eq!(tail_rung(50).1, "max");
        assert_eq!(tail_rung(100).1, "p90");
        assert_eq!(tail_rung(1_000).1, "p99");
        assert_eq!(tail_rung(9_999).1, "p99");
        assert_eq!(tail_rung(10_000).1, "p99.9");
    }

    #[test]
    fn cycle_statistics_combine_across_cycles() {
        let mut lat = CycleLatencies::default();
        for shift in [0.0, 1000.0, 0.0] {
            let mut cycle: Vec<f64> = (1..=200).map(|v| f64::from(v) + shift).collect();
            lat.add(&mut cycle);
        }
        let [p50, tail] = lat.metrics("x");
        assert_eq!(
            (p50.value, tail.value, tail.samples),
            (1300.0 / 3.0, 1540.0 / 3.0, 600)
        );
        assert_eq!(
            tail.percentile.as_deref(),
            Some("p90 of each cycle, trimmed mean of 3 cycles")
        );
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        let mut v: Vec<f64> = vec![5.0; 8];
        v.extend([1000.0, -1000.0]);
        assert_eq!(across_cycles(&v), 5.0);
        assert_eq!(across_cycles(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }
}
