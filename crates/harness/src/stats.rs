//! Summary statistics for repeated benchmark runs.
//!
//! The paper measures each point 10 times and reports a coefficient of
//! variation below 0.01; [`Stats`] reproduces that bookkeeping.
//! [`process_cpu_time`] reads the process CPU clock, the price of a run
//! in CPU rather than wall time.

use std::time::Duration;

/// Mean / standard deviation / coefficient of variation of a sample set.
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub stddev: f64,
    /// Coefficient of variation `stddev / mean` (0 when mean is 0).
    pub cov: f64,
    /// Number of samples.
    pub n: usize,
}

impl Stats {
    /// Computes statistics over `samples`.
    pub fn from_samples(samples: &[f64]) -> Stats {
        let n = samples.len();
        if n == 0 {
            return Stats {
                mean: 0.0,
                stddev: 0.0,
                cov: 0.0,
                n,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n > 1 {
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        let cov = if mean.abs() > f64::EPSILON {
            stddev / mean
        } else {
            0.0
        };
        Stats {
            mean,
            stddev,
            cov,
            n,
        }
    }
}

/// Formats a byte count like the paper's memory axis (MB).
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Latency distribution summary (nanosecond samples) for the wakeup-latency
/// measurements of the blocking facade: unlike throughput, wakeup latency is
/// long-tailed (a parked consumer pays the scheduler), so the tail
/// percentiles carry the signal the mean hides.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl LatencyStats {
    /// Summarizes `samples` (consumed: sorted in place).
    pub fn from_ns_samples(mut samples: Vec<u64>) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let pct = |p: f64| samples[((n - 1) as f64 * p) as usize];
        LatencyStats {
            n,
            mean_ns: samples.iter().map(|&s| s as f64).sum::<f64>() / n as f64,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            max_ns: samples[n - 1],
        }
    }
}

/// Bounded uniform sampler (Vitter's algorithm R) for latency streams too
/// long to keep whole: a soak run records millions of flush latencies, and
/// an unbounded `Vec` would both skew the run it is measuring (allocator
/// traffic) and bias the percentiles toward whatever phase filled memory
/// first. The reservoir keeps a fixed-size uniform sample instead.
///
/// The RNG is a seeded xorshift, not an entropy source — every run with
/// the same input stream keeps the same sample, which the deterministic
/// soak smoke in CI relies on.
#[derive(Clone, Debug)]
pub struct Reservoir {
    samples: Vec<u64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// A reservoir keeping at most `cap` samples (`cap >= 1`).
    pub fn new(cap: usize) -> Reservoir {
        Reservoir {
            samples: Vec::with_capacity(cap.min(1 << 20)),
            cap: cap.max(1),
            seen: 0,
            rng: 0x9e37_79b9_7f4a_7c15 ^ (cap as u64).wrapping_mul(0xff51_afd7_ed55_8ccd),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: plenty for sampling, zero dependencies.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Offers one observation to the sample.
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            // Algorithm R: keep v with probability cap/seen, evicting a
            // uniformly chosen resident; the modulo bias is far below the
            // sampling noise at any plausible cap.
            let j = self.next_rand() % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = v;
            }
        }
    }

    /// Total observations offered (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained sample, unordered.
    pub fn into_samples(self) -> Vec<u64> {
        self.samples
    }

    /// Summarizes the retained sample.
    pub fn into_stats(self) -> LatencyStats {
        LatencyStats::from_ns_samples(self.samples)
    }
}

/// Process CPU time (user + system) so far; `None` where unsupported.
///
/// Reads the process CPU clock (`CLOCK_PROCESS_CPUTIME_ID`) on Linux: every
/// thread's time, to the nanosecond. `/proc/self/stat`'s `utime`/`stime`
/// count in 10 ms ticks, too coarse for a run of a few hundred ms.
pub fn process_cpu_time() -> Option<Duration> {
    #[cfg(target_os = "linux")]
    {
        let mut ts = libc::timespec::default();
        // SAFETY: `ts` is a valid, writable `timespec` for the call.
        if unsafe { libc::clock_gettime(libc::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
            return None;
        }
        Some(Duration::new(ts.tv_sec.try_into().ok()?, ts.tv_nsec.try_into().ok()?))
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Formats nanoseconds with an adaptive unit (`ns`/`µs`/`ms`).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else {
        format!("{:.2}ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single() {
        let s = Stats::from_samples(&[]);
        assert_eq!(s.n, 0);
        let s = Stats::from_samples(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.cov, 0.0);
    }

    #[test]
    fn known_values() {
        let s = Stats::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stddev of this classic set is ~2.138.
        assert!((s.stddev - 2.1380899).abs() < 1e-6);
        assert!((s.cov - 2.1380899 / 5.0).abs() < 1e-6);
    }

    #[test]
    fn cov_of_identical_samples_is_zero() {
        let s = Stats::from_samples(&[3.0; 10]);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.cov, 0.0);
    }

    #[test]
    fn mb_formatting() {
        assert_eq!(fmt_mb(1024 * 1024), "1.00");
        assert_eq!(fmt_mb(1536 * 1024), "1.50");
    }

    #[test]
    fn latency_percentiles() {
        let s = LatencyStats::from_ns_samples((1..=100).collect());
        assert_eq!(s.n, 100);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
        let empty = LatencyStats::from_ns_samples(Vec::new());
        assert_eq!(empty.n, 0);
        assert_eq!(empty.max_ns, 0);
    }

    #[test]
    fn reservoir_keeps_everything_under_cap() {
        let mut r = Reservoir::new(100);
        for v in 0..50u64 {
            r.push(v);
        }
        assert_eq!(r.seen(), 50);
        let mut s = r.into_samples();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_sample_is_bounded_and_roughly_uniform() {
        let mut r = Reservoir::new(1_000);
        for v in 0..100_000u64 {
            r.push(v);
        }
        let s = r.into_samples();
        assert_eq!(s.len(), 1_000);
        // A uniform sample's mean sits near the stream mean (~50k); a
        // sampler biased toward either end would miss by a wide margin.
        let mean = s.iter().sum::<u64>() as f64 / s.len() as f64;
        assert!((35_000.0..65_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn reservoir_is_deterministic() {
        let run = || {
            let mut r = Reservoir::new(64);
            (0..10_000u64).for_each(|v| r.push(v));
            r.into_samples()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ns_formatting_units() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1_500.0), "1.5µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
    }
}
