//! The soak harness: drive a pipeline at a target rate for a fixed wall
//! duration, optionally under an injected fault profile, and report
//! sustained throughput, drop rate, and flush-latency percentiles.
//!
//! One implementation, three consumers: the `collector-soak` binary, the
//! `figures collector` oversubscription sweep, and the CI smoke tests —
//! so the numbers CI gates on come from exactly the code a human runs by
//! hand.

use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::stats::LatencyStats;

use crate::export::{FailEvery, FaultInjector, NoFaults, NullExporter, StallFor};
use crate::metrics::MetricsSnapshot;
use crate::pipeline::{Collector, CollectorConfig};
use crate::sim;
use crate::span::Span;

/// Fault profile knob shared by the soak binary and the tests. Kept as
/// data (not a boxed injector) so it can be parsed from a CLI flag and
/// printed back into the report banner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultProfile {
    /// No injected faults.
    #[default]
    None,
    /// Fail every `n`-th export attempt ([`FailEvery`]).
    FailEvery(u64),
    /// Stall every `every`-th attempt for `dur` ([`StallFor`]).
    StallFor {
        /// Stall every `every`-th attempt.
        every: u64,
        /// Stall duration.
        dur: Duration,
    },
}

impl FaultProfile {
    /// Materializes the profile as an injector for [`Collector::spawn`].
    pub fn injector(self) -> Arc<dyn FaultInjector> {
        match self {
            FaultProfile::None => Arc::new(NoFaults),
            FaultProfile::FailEvery(n) => Arc::new(FailEvery::new(n)),
            FaultProfile::StallFor { every, dur } => Arc::new(StallFor::new(every, dur)),
        }
    }
}

impl std::fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultProfile::None => f.write_str("none"),
            FaultProfile::FailEvery(n) => write!(f, "fail-every={n}"),
            FaultProfile::StallFor { every, dur } => {
                write!(f, "stall={every}:{}us", dur.as_micros())
            }
        }
    }
}

/// One soak run's shape.
#[derive(Clone, Debug)]
pub struct SoakCfg {
    /// Producer threads submitting spans.
    pub producers: usize,
    /// Aggregate target rate across all producers, spans/s; `None` runs
    /// producers flat out (the throughput-ceiling mode).
    pub rate: Option<u64>,
    /// Wall-clock run duration.
    pub duration: Duration,
    /// Pipeline sizing and policy.
    pub pipeline: CollectorConfig,
    /// Injected fault profile.
    pub fault: FaultProfile,
}

impl Default for SoakCfg {
    fn default() -> SoakCfg {
        SoakCfg {
            producers: 4,
            rate: None,
            duration: Duration::from_secs(1),
            pipeline: CollectorConfig::default(),
            fault: FaultProfile::None,
        }
    }
}

/// What a soak run measured.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Wall time from first submit to pipeline join.
    pub elapsed: Duration,
    /// Spans offered by producers (accepted + shed).
    pub submitted: u64,
    /// Final exact counters (post-join).
    pub metrics: MetricsSnapshot,
    /// Flush-latency distribution (first-span-buffered → batch-exported).
    pub flush_latency: LatencyStats,
}

impl SoakReport {
    /// Sustained export throughput, spans/s.
    pub fn throughput(&self) -> f64 {
        self.metrics.exported as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Fraction of *offered* spans shed at ingest (load shedding, not
    /// loss — shed spans were never accepted).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.metrics.shed as f64 / self.submitted as f64
        }
    }

    /// Fraction of *accepted* spans the exporter dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.metrics.accepted == 0 {
            0.0
        } else {
            self.metrics.dropped as f64 / self.metrics.accepted as f64
        }
    }

    /// The conservation identity over the final counters.
    pub fn conserved(&self) -> bool {
        self.metrics.conserved()
    }
}

/// Runs one soak: spawn the pipeline, hammer it from `cfg.producers`
/// threads for `cfg.duration`, ripple the shutdown, join, and account.
///
/// Producers pace themselves against the aggregate `rate` in 256-span
/// strides (sleep when ahead of schedule); with `rate: None` they submit
/// back-to-back. Each producer walks its own trace-id arithmetic sequence
/// chosen so the population covers every shard evenly.
pub fn run_soak(cfg: &SoakCfg) -> SoakReport {
    let (collector, sender) =
        Collector::<NullExporter>::spawn(cfg.pipeline.clone(), NullExporter, cfg.fault.injector());

    let started = Instant::now();
    let per_producer_rate = cfg.rate.map(|r| (r / cfg.producers.max(1) as u64).max(1));
    let producers: Vec<_> = (0..cfg.producers.max(1))
        .map(|p| {
            let mut tx = sender.clone();
            let duration = cfg.duration;
            sim::spawn(move || {
                let begin = Instant::now();
                let mut submitted = 0u64;
                let mut seq = 0u64;
                // BOUND: wait-edge — paced submit loop: exits when the
                // configured soak deadline passes (wall-clock bound,
                // checked every 256 spans)
                loop {
                    // Stride of 256 between deadline/pacing checks keeps
                    // the Instant reads off the per-span fast path.
                    for _ in 0..256 {
                        let span = Span {
                            // p offsets the sequence so concurrent
                            // producers spread over shards instead of
                            // convoying on one lane.
                            trace: p as u64 + seq,
                            id: seq,
                            start_ns: seq.wrapping_mul(31),
                            dur_ns: 100,
                        };
                        tx.submit(span);
                        submitted += 1;
                        seq += 1;
                    }
                    let elapsed = begin.elapsed();
                    if elapsed >= duration {
                        return submitted;
                    }
                    if let Some(rate) = per_producer_rate {
                        let on_schedule =
                            Duration::from_secs_f64(submitted as f64 / rate as f64);
                        if let Some(ahead) = on_schedule.checked_sub(elapsed) {
                            sim::sleep(ahead.min(Duration::from_millis(5)));
                        }
                    }
                }
            })
        })
        .collect();

    let mut submitted = 0u64;
    for h in producers {
        submitted += h.join().expect("soak producer panicked");
    }
    // Last producer clone is gone; drop the template to start the close
    // ripple, then join the pipeline while it drains.
    drop(sender);
    let (report, _exporter) = collector.shutdown();
    let elapsed = started.elapsed();

    SoakReport {
        elapsed,
        submitted,
        metrics: report.metrics,
        flush_latency: report.flush_latency,
    }
}
