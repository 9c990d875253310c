//! Every figure except Fig. 10, one subcommand each, on the system
//! allocator (`figure10` alone installs the counting allocator):
//!
//! * `11 [--panel empty|pairs|mixed|all]` — Fig. 11, x86-64 throughput:
//!   (a) empty-queue dequeue in a tight loop (wCQ/SCQ dominate via the
//!   threshold fast path; FAA still pays the RMW), (b) pairwise
//!   enqueue–dequeue, (c) 50%/50% random enqueue/dequeue.
//! * `12 [--panel …]` — Fig. 12, the same panels on the paper's PowerPC
//!   ladder without LCRQ (it needs true CAS2). The paper's POWER build has
//!   no CAS2 and no native F&A; the faithful substitution (DESIGN.md §3.5)
//!   is the portable dwcas backend, which routes every CAS2 *and* F&A
//!   through a stripe-reservation path with the same cost model:
//!   `cargo run --release -p bench --features portable --bin figures -- 12`.
//! * `shard` — beyond the paper: `ShardedWcq` vs the single-ring queue as
//!   thread and shard counts grow, on the pairwise workload (the one the
//!   global `Head`/`Tail` F&A pair dominates), total capacity held at 2^16.
//! * `unbounded` — Appendix A's cost argument made measurable: an
//!   unbounded queue of `2^order`-slot rings pays one outer-list operation
//!   (append + hazard retire/scan) per ring turnover, so small nodes bound
//!   idle memory but put the list on the hot path, and large nodes converge
//!   on the bounded ring's throughput. Pairwise, at the ladder's top
//!   thread count.
//! * `wakeup` — beyond the paper: the blocking facade (`wcq::sync`,
//!   DESIGN.md §9) vs pure spin under bursty producers at 1×–4× core
//!   oversubscription: throughput, wakeup latency (parking pays here) and
//!   process CPU time (spinning pays here). `WCQ_BENCH_OPS` is items per
//!   producer per run.
//! * `collector` — beyond the paper: the span-collector pipeline (sharded
//!   ingest → ship-on-pause batcher → resilient exporter, all on
//!   `wcq::channel`) at 1×–4× core oversubscription, where preempted
//!   producers land on every stage at once. Reports export throughput,
//!   ingest shed rate (load management, not loss), drop rate of accepted
//!   spans (must stay 0) and flush latency; exits 1 if any run breaks the
//!   conservation identity. `WCQ_SOAK_MS` sets the per-point run length.
//!
//! Usage: `cargo run --release --bin figures -- <subcommand> [--panel NAME]`
//! (the `WCQ_BENCH_*` knobs are in the bench crate docs; a malformed knob,
//! subcommand or panel exits 2 before anything runs).

use std::time::Duration;

use bench::{cores, ladder, node_orders, parse_command, print_env_banner, print_panel, reject};
use bench::{run_figure, BenchOpts, Queue, Subcommand};
use bench::{LADDER_PPC, LADDER_X86, NO_LCRQ, PAPER, SHARD, UNBOUNDED};
use collector::{run_soak, ShedPolicy, SoakCfg};
use harness::blocking::{run_burst, BurstCfg, ConsumerMode};
use harness::stats::{fmt_ns, Stats};
use harness::workload::Workload::{EmptyDequeue, Mixed5050, Pairwise};

const THROUGHPUT_PANELS: &[&str] = &["empty", "pairs", "mixed", "all"];

const FIGURES: &[Subcommand] = &[
    ("11", THROUGHPUT_PANELS, fig11),
    ("12", THROUGHPUT_PANELS, fig12),
    ("shard", &[], shard),
    ("unbounded", &[], unbounded),
    ("wakeup", &[], wakeup),
    ("collector", &[], collector),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ((_, _, run), panel) = parse_command(&args, FIGURES).unwrap_or_else(|e| reject(&e));
    run(panel);
}

/// Figs. 11/12's panels over `queues`, each titled `Figure {fig}{x}: …{suffix}`.
fn throughput(fig: &str, queues: &[Queue], panel: &str, suffix: &str, opts: &BenchOpts) {
    for (name, wl, title) in [
        ("empty", EmptyDequeue, "a: Empty Dequeue throughput"),
        ("pairs", Pairwise, "b: Pairwise Enqueue-Dequeue"),
        ("mixed", Mixed5050, "c: 50%/50% Enqueue-Dequeue"),
    ] {
        if panel == name || panel == "all" {
            run_figure(wl, queues, &ladder(opts), opts, false).print_tput(&format!(
                "Figure {fig}{title}{suffix} (Mops/s, mean of reps)"
            ));
        }
    }
}

fn fig11(panel: &str) {
    let opts = BenchOpts::from_env(LADDER_X86);
    print_env_banner("Figure 11: x86-64 throughput");
    throughput("11", PAPER, panel, "", &opts);
}

fn fig12(panel: &str) {
    let opts = BenchOpts::from_env(LADDER_PPC);
    print_env_banner("Figure 12: PowerPC substitution (LL/SC-emulated CAS2, no native F&A)");
    if dwcas::HARDWARE_CAS2 {
        eprintln!(
            "WARNING: built with the hardware CAS2 backend ({}); for the \
             faithful Fig. 12 substitution rebuild with `--features portable`.",
            dwcas::BACKEND
        );
    }
    throughput("12", NO_LCRQ, panel, " (PPC substitution)", &opts);
}

fn shard(_: &str) {
    let opts = BenchOpts::from_env(LADDER_X86);
    print_env_banner("Figure S: shard sweep (pairwise enqueue+dequeue)");
    run_figure(Pairwise, SHARD, &ladder(&opts), &opts, false)
        .print_tput("Shard sweep: pairwise throughput (Mops/s, mean of reps)");
}

fn unbounded(_: &str) {
    let opts = BenchOpts::from_env(LADDER_X86);
    print_env_banner("Figure U: unbounded ring-order sweep (pairwise enqueue+dequeue)");
    let points = node_orders(&opts);
    let threads = points[0].threads;
    run_figure(Pairwise, UNBOUNDED, &points, &opts, false).print_tput(&format!(
        "Unbounded sweep: node size vs throughput (Mops/s, {threads} threads)"
    ));
}

fn wakeup(_: &str) {
    let opts = BenchOpts::from_env(LADDER_X86);
    print_env_banner("Figure W: wakeup sweep (bursty producers, spin vs parked consumers)");
    println!("# burst 64 items, 500us gap; workers = cores x oversubscription");
    let (mut rows, mut cpu_at_4x) = (Vec::new(), Vec::new());
    for oversub in [1, 2, 4] {
        let workers = (cores() * oversub).max(2);
        for (mode, name) in [(ConsumerMode::Spin, "spin"), (ConsumerMode::Block, "block")] {
            let r = run_burst(&BurstCfg::figure_shape(mode, workers, opts.ops, opts.pin));
            let (items, cpu) = (r.items_per_sec(), r.cpu.as_secs_f64());
            let p99 = fmt_ns(r.wakeup.p99_ns as f64);
            eprintln!(
                "  {oversub}x ({workers} workers) {name}: {items:.0} items/s, wakeup p99 {p99}"
            );
            if oversub == 4 {
                cpu_at_4x.push(cpu);
            }
            let w = r.wakeup;
            rows.push(vec![
                oversub.to_string(),
                workers.to_string(),
                name.to_string(),
                format!("{items:.0}"),
                format!("{:.0}", w.mean_ns),
                w.p50_ns.to_string(),
                w.p99_ns.to_string(),
                w.max_ns.to_string(),
                format!("{cpu:.4}"),
            ]);
        }
    }
    let header = "oversub,workers,mode,items_per_sec,wake_mean_ns,wake_p50_ns,wake_p99_ns,wake_max_ns,cpu_seconds";
    let header: Vec<&str> = header.split(',').collect();
    print_panel("Wakeup sweep: spin vs blocked consumers", &header, &rows);
    // The headline claim of DESIGN.md §9, checked where it matters most.
    if let [spin, block] = cpu_at_4x[..] {
        if spin > 0.0 {
            let share = 100.0 * block / spin;
            println!("\n# 4x oversubscription: blocked consumers used {share:.1}% of the spin run's CPU time");
        }
    }
}

fn collector(_: &str) {
    let opts = BenchOpts::from_env(LADDER_X86);
    print_env_banner("Figure C: span-collector oversubscription sweep");
    println!("oversub,producers,spans_per_sec,cov,shed_rate,drop_rate,flush_p50_ns,flush_p99_ns");
    let mut violated = false;
    for oversub in 1..=4 {
        let producers = cores() * oversub;
        let mut cfg = SoakCfg {
            producers,
            rate: None,
            duration: Duration::from_millis(opts.soak_ms),
            ..SoakCfg::default()
        };
        // The single-core-honest shape from the benchmark's collector row,
        // scaled to the producer count: one lane per 2 producers (cap 8)
        // keeps sweep cost bounded while spreading ingest contention.
        cfg.pipeline.shards = (producers / 2).clamp(1, 8);
        cfg.pipeline.producers = producers;
        cfg.pipeline.workers = 1;
        cfg.pipeline.batch_max = 1024;
        cfg.pipeline.lane_order = 12;
        cfg.pipeline.shed = ShedPolicy::Shed;
        let runs: Vec<_> = (0..opts.reps.min(5)).map(|_| run_soak(&cfg)).collect();
        violated |= runs.iter().any(|r| !r.conserved());
        let st = Stats::from_samples(&runs.iter().map(|r| r.throughput()).collect::<Vec<_>>());
        let r = runs.last().expect("WCQ_BENCH_REPS is at least 1");
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
        eprintln!("figures collector: CONSERVATION VIOLATED in at least one run");
        std::process::exit(1);
    }
}
