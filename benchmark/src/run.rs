//! Run discipline: how a workload's reps become its reported metrics, and
//! how the traced pass becomes the per-layer metrics.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::ladder;
use crate::results::{MetricValue, WorkloadResult};
use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, From, Span};
use crate::workloads::{Env, RepOut, Tracing};

/// Zero-length reps run only to time set-up; with the warm-up and the
/// timed reps they give `setup_s` 70 samples at the default length.
const SETUP_TRIALS: usize = 64;
/// No slice of the traced pass is shorter than this: `park_wake_2t` needs
/// over 1 000 wake-ups for its p99 to have ten samples beyond it.
const MIN_TRACED_SLICE: Duration = Duration::from_millis(250);

/// `--seconds` split into timed reps: 5 reps when that leaves each at
/// least 1 s, else 3, else 1-second reps; never a rep under 1 s.
pub struct Plan {
    pub reps: u32,
    pub rep_len: Duration,
    /// The discarded warm-up rep: long enough for caches, lazy set-up and
    /// the CPU's clock to settle, never longer than a timed rep.
    pub warmup: Duration,
}

pub fn plan(seconds: u64) -> Plan {
    let seconds = seconds.max(1);
    let reps = match seconds {
        5.. => 5,
        3..=4 => 3,
        _ => seconds as u32,
    };
    let rep_len = Duration::from_secs(seconds) / reps;
    Plan {
        reps,
        rep_len,
        warmup: rep_len.min(Duration::from_secs(1)),
    }
}

fn p50_p99(samples: &mut [u64], what: &str) -> Result<(f64, f64), String> {
    let n = samples.len();
    stats::p50_p99(samples)
        .ok_or_else(|| format!("{what}: {n} samples are too few for a p99 (need 1000)"))
}

fn metric(name: &str, unit: &str, reps: Vec<f64>) -> MetricValue {
    MetricValue {
        name: name.to_string(),
        unit: unit.to_string(),
        value: stats::median(&reps),
        reps,
    }
}

/// One discarded warm-up rep, [`SETUP_TRIALS`] set-up-only reps, then the
/// timed reps, each on freshly constructed objects. A metric's value is
/// the median of its per-rep values (for percentiles: of the per-rep
/// percentile); `setup_s` is the median over every set-up made.
pub fn run_workload(env: &Env, w: &Workload, seconds: u64) -> Result<WorkloadResult, String> {
    let mut result = WorkloadResult {
        name: w.name.to_string(),
        skipped: env.cpus.allowed().len() < w.threads,
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    if result.skipped {
        return Ok(result);
    }
    let plan = plan(seconds);
    // `setup_s` and `footprint_bytes` take one value from every set-up made,
    // the other metrics one from every timed rep.
    let mut reps: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let note_setup = |reps: &mut BTreeMap<&str, Vec<f64>>, out: &RepOut| {
        reps.entry("setup_s").or_default().push(out.ready.setup_s);
        reps.entry("footprint_bytes")
            .or_default()
            .push(out.ready.footprint_bytes as f64);
        out.violations == 0
    };
    result.correct &= note_setup(&mut reps, &(w.run)(env, plan.warmup, None));
    for _ in 0..SETUP_TRIALS {
        result.correct &= note_setup(&mut reps, &(w.run)(env, Duration::ZERO, None));
    }
    for _ in 0..plan.reps {
        let mut out = (w.run)(env, plan.rep_len, None);
        let (p50, p99) = p50_p99(&mut out.samples, w.name)?;
        reps.entry("ops_per_s")
            .or_default()
            .push(out.ops as f64 / out.elapsed_s);
        reps.entry("op_p50_ns").or_default().push(p50);
        reps.entry(spec::OP_P99.0).or_default().push(p99);
        result.correct &= note_setup(&mut reps, &out);
        result.attempted += out.attempted;
        result.failed += out.failed;
    }
    result.metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain([spec::OP_P99])
        .map(|(name, unit)| {
            metric(
                name,
                unit,
                reps.remove(name).expect("every metric is measured"),
            )
        })
        .collect();
    Ok(result)
}

/// What the traced pass produced.
pub struct Traced {
    /// In `PER_LAYER` order; a metric that could not be measured (the
    /// `_2t` rungs on a one-CPU box) is absent.
    pub per_layer: Vec<MetricValue>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// The traced pass: every workload once with block spans recorded (plus
/// `pair_1t` once more untraced, for the tracing overhead), then the
/// ladder. About half of `seconds` goes to the ladder and the rest is
/// split evenly between the workload slices.
pub fn traced_pass(env: &Env, seconds: u64) -> Result<Traced, String> {
    let budget = Duration::from_secs(seconds.max(1));
    let slice = (budget / 2 / (spec::WORKLOADS.len() as u32 + 1)).max(MIN_TRACED_SLICE);
    let mut t = Traced {
        per_layer: Vec::new(),
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
    };
    let mut outs: BTreeMap<&str, RepOut> = BTreeMap::new();
    let note = |t: &mut Traced, out: &RepOut| {
        t.attempted += out.attempted;
        t.failed += out.failed;
        t.correct &= out.violations == 0;
    };

    let untraced = spec::WORKLOADS[0].run;
    let untraced = untraced(env, slice, None);
    note(&mut t, &untraced);
    for w in spec::WORKLOADS
        .iter()
        .filter(|w| env.cpus.allowed().len() >= w.threads)
    {
        let mut out = (w.run)(env, slice, Some(Tracing { rep: 0 }));
        note(&mut t, &out);
        t.spans.append(&mut out.spans);
        outs.insert(w.name, out);
    }
    let (mut ladder_spans, bad) = ladder::run(env, 0, budget / 2);
    t.spans.append(&mut ladder_spans);
    t.correct &= bad == 0;

    let values = derive(env, &t.spans, &untraced, &mut outs)?;
    t.per_layer = PER_LAYER
        .iter()
        .filter_map(|m| values.get(m.name).map(|&v| metric(m.name, m.unit, vec![v])))
        .collect();
    Ok(t)
}

/// Per-layer values by metric name; a value that could not be measured
/// (not finite) is left out.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.0.insert(name, value);
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Per-layer metrics: every ladder rung and latency distribution from the
/// spans, the collector's counters from its own report, and the rest
/// (tails of the pair workloads, heap growth, generator lateness) from the
/// traced reps. The `self_ns` formulas are documented in README.md.
fn derive(
    env: &Env,
    spans: &[Span],
    untraced_pair_1t: &RepOut,
    outs: &mut BTreeMap<&str, RepOut>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut v = Values::default();

    // Ladder rungs: metric `<span name>_ns`.
    for m in &PER_LAYER {
        if let Some(name) = m.name.strip_suffix("_ns") {
            v.set(
                m.name,
                trace::ns_per_call(
                    spans,
                    From {
                        workload: "ladder",
                        name,
                    },
                ),
            );
        }
    }
    v.set(
        "wcq.queue.self_ns",
        v.get("wcq.queue.pair_ns") - 2.0 * v.get("wcq.ring.pair_ns"),
    );
    v.set(
        "channel.self_ns",
        v.get("channel.try_pair_ns") - v.get("wcq.queue.owned_pair_ns"),
    );
    v.set(
        "topology.self_ns",
        v.get("topology.pair_ns") - v.get("spsc.ring.pair_ns"),
    );
    v.set(
        "channel.spsc.self_ns",
        v.get("channel.spsc.try_pair_ns") - v.get("topology.pair_ns"),
    );

    // Latency distributions recorded as one span per event or block.
    for (workload, name, p50_name, p99_name) in [
        (
            "park_wake_2t",
            "sync.wake",
            Some("sync.wake_p50_ns"),
            "sync.wake_p99_ns",
        ),
        (
            "collector_rate",
            "collector.span",
            Some("collector.span_p50_ns"),
            "collector.span_p99_ns",
        ),
        (
            "collector_sat",
            "collector.submit",
            None,
            "collector.submit_block_p99_ns",
        ),
    ] {
        let mut durations = trace::span_durations(spans, From { workload, name });
        if !durations.is_empty() {
            let (p50, p99) = p50_p99(&mut durations, name)?;
            v.set(p50_name.unwrap_or(p99_name), p50);
            v.set(p99_name, p99);
        }
    }
    let submit = From {
        workload: "collector_sat",
        name: "collector.submit",
    };
    v.set("collector.submit_ns", trace::ns_per_call(spans, submit));

    // Tails and heap growth of whole traced reps.
    for (workload, p99_name) in [
        ("pair_1t", "channel.pair_p99_ns"),
        ("pair_2t", "channel.pair_2t_p99_ns"),
    ] {
        if let Some(out) = outs.get_mut(workload) {
            v.set(p99_name, p50_p99(&mut out.samples, workload)?.1);
        }
    }
    let growth = |out: &RepOut| out.peak_bytes.saturating_sub(out.ready.footprint_bytes) as f64;
    if let Some(out) = outs.get("pair_2t") {
        v.set("wcq.queue.growth_bytes", growth(out));
    }

    // Counters the collector reports about itself.
    if let (Some(sat_out), Some(rate_out)) = (outs.get("collector_sat"), outs.get("collector_rate"))
    {
        let stats_of = |out: &'_ RepOut| {
            out.collector
                .as_ref()
                .map(|c| (c.report.clone(), c.drain_s))
        };
        let ((sat, drain_s), (rate, _)) = (
            stats_of(sat_out).expect("a collector rep"),
            stats_of(rate_out).expect("a collector rep"),
        );
        let (s, r) = (&sat.metrics, &rate.metrics);
        let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
        v.set("collector.spans_per_flush", share(s.exported, s.flushes));
        v.set(
            "collector.deadline_flush_share",
            share(r.deadline_flushes, r.flushes),
        );
        v.set("collector.shed_share", share(r.shed, r.accepted + r.shed));
        v.set("collector.drop_share", share(r.dropped, r.accepted));
        v.set("collector.retries", (s.retries + r.retries) as f64);
        v.set("collector.flush_p50_ns", sat.flush_latency.p50_ns as f64);
        v.set("collector.flush_p99_ns", sat.flush_latency.p99_ns as f64);
        let lanes = s.per_shard.iter().map(|l| l.accepted);
        v.set(
            "collector.lane_skew",
            share(lanes.clone().max().unwrap_or(0), lanes.min().unwrap_or(0)),
        );
        v.set("collector.drain_s", drain_s);
        v.set("collector.inflight_peak_bytes", growth(sat_out));
    }

    // The benchmark's own health.
    let mut worst_late = f64::NAN;
    for name in ["park_wake_2t", "collector_rate"] {
        if let Some(out) = outs.get_mut(name) {
            out.late.sort_unstable();
            let p99 = stats::percentile(&out.late, 0.99)
                .ok_or(format!("{name}: too few generator samples"))?;
            worst_late = worst_late.max(p99);
        }
    }
    v.set("bench.gen_late_p99_ns", worst_late);
    let traced = trace::calls_per_s(
        spans,
        From {
            workload: "pair_1t",
            name: "channel.try_pair",
        },
    );
    let untraced = untraced_pair_1t.ops as f64 / untraced_pair_1t.elapsed_s;
    v.set("bench.trace_overhead_share", 1.0 - traced / untraced);
    v.set("bench.cpus", env.cpus.pinned_count() as f64);
    Ok(v.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Cpus;
    use std::collections::BTreeSet;
    use std::time::Instant;

    /// The traced pass measures every declared per-layer metric and every
    /// span it records is attributed to a workload or to the ladder.
    #[test]
    fn traced_pass_yields_every_per_layer_metric() {
        let cpus = Cpus::discover();
        if cpus.allowed().len() < 2 {
            return; // the `_2t` metrics cannot be measured here
        }
        let env = Env {
            cpus: &cpus,
            epoch: Instant::now(),
            seed: 3,
            inject_drop: false,
        };
        let t = traced_pass(&env, 8).expect("enough samples");
        assert!(t.correct && t.failed == 0);
        let measured: Vec<&str> = t.per_layer.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(measured, declared);
        assert!(t.per_layer.iter().all(|m| m.value.is_finite()));

        let sources: BTreeSet<&str> = t.spans.iter().map(|s| s.workload).collect();
        let mut expected: BTreeSet<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        expected.insert("ladder");
        assert_eq!(sources, expected);

        let value = |name: &str| t.per_layer.iter().find(|m| m.name == name).unwrap().value;
        // No timing and no heap figure is compared: this is a debug build
        // sharing two CPUs and one allocator with the other tests.
        assert_eq!(value("bench.cpus"), 2.0);
        assert_eq!(value("collector.drop_share"), 0.0);
    }

    #[test]
    fn plan_never_has_a_rep_under_a_second() {
        for (seconds, reps, rep_ms) in [
            (10, 5, 2000),
            (5, 5, 1000),
            (4, 3, 1333),
            (3, 3, 1000),
            (2, 2, 1000),
            (1, 1, 1000),
            (0, 1, 1000),
        ] {
            let p = plan(seconds);
            assert_eq!(
                (p.reps, p.rep_len.as_millis()),
                (reps, rep_ms),
                "--seconds {seconds}"
            );
            assert!(p.warmup <= p.rep_len && p.warmup <= Duration::from_secs(1));
        }
    }
}
