//! Unbounded ring-order sweep — the Appendix A cost argument made
//! measurable: an unbounded queue built from rings of `2^order` slots pays
//! one outer-list operation (append + hazard-pointer retire/scan) per ring
//! turnover, i.e. every `2^order` inserts. Small nodes bound idle memory
//! tightly but put the list on the hot path; large nodes amortize it into
//! noise, converging on the bounded ring's throughput.
//!
//! Workload: pairwise enqueue+dequeue (Fig. 11b shape) over
//! `wCQ-unbounded` and `LSCQ` at each node order, with the bounded `wCQ`
//! ring as the amortization ceiling.
//!
//! Usage: `cargo run --release --bin figure_unbounded`
//! (respects the `WCQ_BENCH_*` knobs; see the bench crate docs.)

use bench::{print_env_banner, BenchOpts, LADDER_X86};
use harness::queues::{QueueSpec, UnboundedBench, WcqBench};
use harness::stats::Stats;
use harness::workload::{repeat, Workload, WorkloadCfg};
use harness::BenchQueue;
use wcq::{ScqRing, WcqRing};

/// Node orders swept: 2^4 = 16 slots (list-dominated) up to 2^14 = 16k
/// slots (ring-dominated).
const NODE_ORDERS: &[u32] = &[4, 6, 8, 10, 12, 14];

fn measure<Q: BenchQueue>(q: &Q, threads: usize, opts: &BenchOpts) -> Stats {
    let cfg = WorkloadCfg {
        threads,
        ops_per_thread: opts.ops,
        prefill: 0,
        max_delay_spins: 0,
        seed: 0xab0c_0000 + threads as u64,
        pin: opts.pin,
    };
    Stats::from_samples(&repeat(q, Workload::Pairwise, &cfg, opts.reps))
}

fn main() {
    let opts = BenchOpts::from_env(LADDER_X86);
    print_env_banner("Figure U: unbounded ring-order sweep (pairwise enqueue+dequeue)");
    // One thread count per row keeps the table 2-D; take the ladder's top
    // entry (the most contended point the host supports).
    let threads = opts.threads.last().copied().unwrap_or(2);
    let base = QueueSpec {
        max_threads: threads + 1,
        ring_order: 16,
        ..QueueSpec::default()
    };

    let bounded = measure(&WcqBench::new(&base), threads, &opts);
    eprintln!(
        "  threads={threads:<3} {:<16} {:>8.3} Mops/s (cov {:.4})  [amortization ceiling]",
        "wCQ (bounded)", bounded.mean, bounded.cov
    );

    let mut rows: Vec<(u32, usize, f64, f64)> = Vec::new();
    for &order in NODE_ORDERS {
        let spec = QueueSpec {
            node_order: Some(order),
            ..base
        };
        let wcq_u = measure(&UnboundedBench::<WcqRing>::new(&spec), threads, &opts);
        let lscq = measure(&UnboundedBench::<ScqRing>::new(&spec), threads, &opts);
        let slots = 1usize << spec.unbounded_order();
        eprintln!(
            "  threads={threads:<3} node=2^{:<2} ({:>6} slots) wCQ-unbounded {:>8.3} \
             LSCQ {:>8.3} Mops/s",
            spec.unbounded_order(),
            slots,
            wcq_u.mean,
            lscq.mean
        );
        rows.push((spec.unbounded_order(), slots, wcq_u.mean, lscq.mean));
    }

    println!("\n== Unbounded sweep: node size vs throughput (Mops/s, {threads} threads) ==");
    println!(
        "{:>10} {:>10} {:>14} {:>10} {:>14}",
        "node_order", "slots", "wCQ-unbounded", "LSCQ", "wCQ (bounded)"
    );
    for (order, slots, w, l) in &rows {
        println!(
            "{order:>10} {slots:>10} {w:>14.3} {l:>10.3} {:>14.3}",
            bounded.mean
        );
    }
    println!("-- CSV --");
    println!("node_order,slots,wcq_unbounded,lscq,wcq_bounded");
    for (order, slots, w, l) in &rows {
        println!("{order},{slots},{w:.4},{l:.4},{:.4}", bounded.mean);
    }
}
