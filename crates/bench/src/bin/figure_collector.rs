//! Collector oversubscription sweep — beyond the paper: the span-collector
//! service pipeline (sharded ingest → batcher that ships on a pause in the
//! flow, a full batch or a deadline → resilient exporter, all on
//! `wcq::channel`) driven at 1×–4× core oversubscription.
//!
//! The paper's Figures stress a queue; this figure stresses the *service
//! built from the queues*: at each point the producer count is a multiple
//! of the core count, so the schedule pressure the wait-free design exists
//! for (preempted producers mid-operation) lands on every pipeline stage
//! at once. Reported per point: sustained export throughput, ingest shed
//! rate (the explicit load-shedding policy working as designed — shed is
//! load management, not loss), drop rate of *accepted* spans (must stay
//! 0), and flush-latency p50/p99. Every run re-asserts the conservation
//! identity; the binary exits nonzero on violation.
//!
//! Usage: `cargo run --release --bin figure_collector`
//! (respects `WCQ_BENCH_REPS`; `WCQ_SOAK_MS` overrides the per-point run
//! length, default 300 ms.)

use std::time::Duration;

use bench::{print_env_banner, BenchOpts, LADDER_X86};
use collector::{run_soak, ShedPolicy, SoakCfg};
use harness::stats::Stats;

fn main() {
    let opts = BenchOpts::from_env(LADDER_X86);
    print_env_banner("figure_collector: span-collector oversubscription sweep");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_ms: u64 = std::env::var("WCQ_SOAK_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);

    println!("oversub,producers,spans_per_sec,cov,shed_rate,drop_rate,flush_p50_ns,flush_p99_ns");
    let mut violated = false;
    for oversub in 1..=4usize {
        let producers = (cores * oversub).max(1);
        let mut cfg = SoakCfg {
            producers,
            rate: None,
            duration: Duration::from_millis(run_ms),
            ..SoakCfg::default()
        };
        // The single-core-honest shape from `bench`'s collector row,
        // scaled to the producer count: one lane per 2 producers (cap 8)
        // keeps sweep cost bounded while spreading ingest contention.
        cfg.pipeline.shards = (producers / 2).clamp(1, 8);
        cfg.pipeline.producers = producers;
        cfg.pipeline.workers = 1;
        cfg.pipeline.batch_max = 1024;
        cfg.pipeline.lane_order = 12;
        cfg.pipeline.shed = ShedPolicy::Shed;

        let mut last = None;
        let samples: Vec<f64> = (0..opts.reps.min(5))
            .map(|_| {
                let r = run_soak(&cfg);
                violated |= !r.conserved();
                let tput = r.throughput();
                last = Some(r);
                tput
            })
            .collect();
        let st = Stats::from_samples(&samples);
        let r = last.expect("at least one rep");
        println!(
            "{oversub},{producers},{:.0},{:.4},{:.4},{:.6},{},{}",
            st.mean,
            st.cov,
            r.shed_rate(),
            r.drop_rate(),
            r.flush_latency.p50_ns,
            r.flush_latency.p99_ns,
        );
    }
    if violated {
        eprintln!("figure_collector: CONSERVATION VIOLATED in at least one run");
        std::process::exit(1);
    }
}
