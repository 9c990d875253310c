//! The names: workloads, end-to-end metrics and per-layer metrics. This
//! table and `BENCHMARK.json` must say the same thing (a test checks it);
//! every later issue uses these names.

use crate::workloads::{self, Env, RepOut, Tracing};
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Pinned load threads; the workload is skipped with fewer allowed CPUs.
    pub threads: usize,
    pub why: &'static str,
    pub run: fn(&Env, Duration, Option<Tracing>) -> RepOut,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "pair_1t",
        threads: 1,
        why: "closed loop, 1 thread: try_send/try_recv at occupancy 0-1 on channel::bounded; uncontended cost of the whole wCQ stack, where a wcq::ring fast-path change must show",
        run: workloads::pair_1t,
    },
    Workload {
        name: "batch_1t",
        threads: 1,
        why: "closed loop, 1 thread: send_batch/recv_batch of 64 on the same channel; one F&A per 64 tickets, so a singleton gain that costs the batch path shows here and not in pair_1t",
        run: workloads::batch_1t,
    },
    Workload {
        name: "pair_2t",
        threads: 2,
        why: "closed loop, 2 pinned threads each try_send/try_recv on one channel::bounded; Head/Tail contention, slot-line transfers and helping show here; spsc and topology are bypassed",
        run: workloads::pair_2t,
    },
    Workload {
        name: "spsc_stream_2t",
        threads: 2,
        why: "closed loop, 2 pinned threads: blocking send to blocking recv over channel::spsc; spsc+topology+sync do the work and wcq::ring none, the bypass workload for every ring change",
        run: workloads::spsc_stream_2t,
    },
    Workload {
        name: "park_wake_2t",
        threads: 2,
        why: "open loop, 5000 msg/s to a consumer parked in recv, timed from when each send was due; the sync layer (eventcount register/park/notify) does the work, the rings almost none",
        run: workloads::park_wake_2t,
    },
    Workload {
        name: "collector_sat",
        threads: 1,
        why: "closed loop, 1 producer: SpanSender::submit back to back under ShedPolicy::Block, drain included; sustainable throughput of the service tier above its mpsc lanes",
        run: workloads::collector_sat,
    },
    Workload {
        name: "collector_rate",
        threads: 1,
        why: "open loop, 1 producer at a fixed 1000000 spans/s under ShedPolicy::Shed, timed from due time to export; latency below saturation, where recv_any parking and batch hand-off dominate",
        run: workloads::collector_rate,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "footprint_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn ns(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
    }
}

const fn share(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "fraction",
        better: Better::Lower,
    }
}

/// Reported with the end-to-end metrics of every workload (same reps, same
/// median) but not bounded: on a shared 2-CPU host the tail moves by more
/// than any bound the contract allows (see README.md, "Bounds").
pub const OP_P99: (&str, &str) = ("op_p99_ns", "ns");

pub const PER_LAYER: [PerLayer; 58] = [
    ns("dwcas.cas2_ns"),
    ns("dwcas.load2_ns"),
    ns("wcq.ring.pair_ns"),
    ns("wcq.ring.batch64_ns"),
    ns("wcq.ring.empty_deq_ns"),
    ns("wcq.ring.pair_2t_ns"),
    ns("scq.ring.pair_ns"),
    ns("wcq.queue.pair_ns"),
    ns("wcq.queue.owned_pair_ns"),
    ns("wcq.queue.batch64_ns"),
    ns("wcq.queue.pair_2t_ns"),
    ns("wcq.queue.self_ns"),
    ns("wcq.queue.register_ns"),
    PerLayer {
        name: "wcq.queue.growth_bytes",
        unit: "bytes",
        better: Better::Lower,
    },
    ns("shard.pair_ns"),
    ns("unbounded.pair_ns"),
    ns("hazard.protect_ns"),
    ns("spsc.ring.pair_ns"),
    ns("spsc.ring.batch64_ns"),
    ns("topology.pair_ns"),
    ns("topology.batch64_ns"),
    ns("topology.self_ns"),
    ns("channel.try_pair_ns"),
    ns("channel.blocking_pair_ns"),
    ns("channel.batch64_ns"),
    ns("channel.self_ns"),
    ns("channel.spsc.try_pair_ns"),
    ns("channel.spsc.batch64_ns"),
    ns("channel.spsc.self_ns"),
    ns("channel.mpsc.try_pair_ns"),
    ns("channel.pair_p99_ns"),
    ns("channel.pair_2t_p99_ns"),
    ns("channel.recv_any_ready_ns"),
    ns("channel.recv_any_timeout0_ns"),
    ns("sync.notify_idle_ns"),
    ns("sync.notify_fenced_idle_ns"),
    ns("sync.listen_ns"),
    ns("sync.register_cancel_ns"),
    ns("sync.wake_p50_ns"),
    ns("sync.wake_p99_ns"),
    ns("collector.submit_ns"),
    ns("collector.submit_block_p99_ns"),
    PerLayer {
        name: "collector.spans_per_flush",
        unit: "count",
        better: Better::Higher,
    },
    share("collector.deadline_flush_share"),
    share("collector.shed_share"),
    share("collector.drop_share"),
    PerLayer {
        name: "collector.retries",
        unit: "count",
        better: Better::Lower,
    },
    ns("collector.flush_p50_ns"),
    ns("collector.flush_p99_ns"),
    ns("collector.span_p50_ns"),
    ns("collector.span_p99_ns"),
    PerLayer {
        name: "collector.lane_skew",
        unit: "ratio",
        better: Better::Lower,
    },
    PerLayer {
        name: "collector.drain_s",
        unit: "s",
        better: Better::Lower,
    },
    ns("collector.snapshot_ns"),
    PerLayer {
        name: "collector.inflight_peak_bytes",
        unit: "bytes",
        better: Better::Lower,
    },
    ns("bench.gen_late_p99_ns"),
    share("bench.trace_overhead_share"),
    PerLayer {
        name: "bench.cpus",
        unit: "count",
        better: Better::Higher,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why: {} chars",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` at the repository root declares exactly what this
    /// table (and so `-- list`) declares.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(crate::listing(), listing_of(&doc));
    }

    /// The same lines `-- list` prints, rebuilt from `BENCHMARK.json`.
    fn listing_of(doc: &Json) -> Vec<String> {
        let field = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).unwrap().to_string();
        let mut lines = Vec::new();
        for w in doc.get("workloads").unwrap().as_arr().unwrap() {
            lines.push(format!("workload {} {}", field(w, "name"), field(w, "why")));
        }
        for m in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            lines.push(format!(
                "end_to_end {} {} {} {}",
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound
            ));
        }
        for m in doc.get("per_layer").unwrap().as_arr().unwrap() {
            lines.push(format!(
                "per_layer {} {} {}",
                field(m, "name"),
                field(m, "unit"),
                field(m, "better")
            ));
        }
        lines
    }
}
