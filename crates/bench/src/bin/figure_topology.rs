//! Topology sweep — beyond the paper: pair throughput of the
//! topology-declared channel backends (`wcq::channel::{spsc, mpsc}` over
//! `wcq::spsc::Ring`) against the wait-free wCQ channel they upgrade to.
//!
//! Workload: single-pair enqueue+dequeue on one thread — the fast-path
//! cost comparison the topology dispatch exists for. A single-thread pair
//! is the honest primary measurement on small CI boxes (this suite often
//! runs on one core, where cross-thread ping-pong measures the scheduler,
//! not the queue); every row below runs the identical alternating loop, so
//! ratios compare per-operation cost directly.
//!
//! Rows:
//! * `wCQ-channel`    — the pre-existing MPMC channel (baseline).
//! * `chan-spsc`      — SPSC-declared channel on its ring fast path.
//! * `chan-spsc b=64` — same, batched 64-at-a-time (reservation path).
//! * `chan-mpsc`      — MPSC-declared (4 rings), one sender operating.
//! * `ring`           — raw `spsc::Ring<u64>` (no channel layer).
//! * `spine upgraded` — the `chan-spsc` pair *after* a forced topology
//!   upgrade: cost returns to wCQ rates, proving the slow path is the
//!   spine and nothing worse.
//!
//! Usage: `cargo run --release --bin figure_topology`
//! (respects `WCQ_BENCH_OPS` / `WCQ_BENCH_REPS`; see the bench crate docs).

use std::time::Instant;

use bench::{print_env_banner, BenchOpts, LADDER_X86};
use harness::stats::Stats;
use wcq::channel;
use wcq::spsc::Ring;

/// 2^12-slot rings: big enough that the pair never trips the full/empty
/// edge, small enough to stay cache-resident like a real pipeline stage.
const RING_ORDER: u32 = 12;
/// Spine thread slots for the topology channels (k <= n holds trivially).
const SPINE_THREADS: usize = 4;
/// Batch size for the reservation-path row.
const BATCH: usize = 64;

/// Times `iters` iterations of `step`, each counting `ops_per_iter`
/// operations; returns Mops/s.
fn timed(iters: u64, ops_per_iter: u64, mut step: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        step(i);
    }
    (iters * ops_per_iter) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// Runs `rep` fresh times and folds the samples into [`Stats`].
fn stats(reps: usize, mut rep: impl FnMut() -> f64) -> Stats {
    let samples: Vec<f64> = (0..reps).map(|_| rep()).collect();
    Stats::from_samples(&samples)
}

fn pair_loop(tx: &mut channel::Sender<u64>, rx: &mut channel::Receiver<u64>, iters: u64) -> f64 {
    timed(iters, 2, |i| {
        tx.try_send(i).expect("ring never full in pair loop");
        assert_eq!(rx.try_recv().ok(), Some(i));
    })
}

fn bench_baseline(opts: &BenchOpts) -> Stats {
    stats(opts.reps, || {
        let (mut tx, mut rx) = channel::bounded::<u64>(RING_ORDER, SPINE_THREADS);
        pair_loop(&mut tx, &mut rx, opts.ops)
    })
}

fn bench_spsc(opts: &BenchOpts) -> Stats {
    stats(opts.reps, || {
        let (mut tx, mut rx) = channel::spsc::<u64>(RING_ORDER, SPINE_THREADS);
        let m = pair_loop(&mut tx, &mut rx, opts.ops);
        assert_eq!(tx.backend(), "spsc-ring", "pair loop must stay on the fast path");
        m
    })
}

fn bench_spsc_batch(opts: &BenchOpts) -> Stats {
    let iters = opts.ops / BATCH as u64;
    stats(opts.reps, || {
        let (mut tx, mut rx) = channel::spsc::<u64>(RING_ORDER, SPINE_THREADS);
        let mut inbox = Vec::with_capacity(BATCH);
        let mut outbox = Vec::with_capacity(BATCH);
        timed(iters, 2 * BATCH as u64, |i| {
            inbox.extend((0..BATCH as u64).map(|j| i * BATCH as u64 + j));
            let sent = tx.send_batch(&mut inbox);
            assert_eq!(sent, BATCH);
            outbox.clear();
            let got = rx.recv_batch(&mut outbox, BATCH);
            assert_eq!(got, BATCH);
        })
    })
}

fn bench_mpsc(opts: &BenchOpts) -> Stats {
    stats(opts.reps, || {
        // 4 declared senders, one operating: the receiver sweep still has
        // to skip the 3 idle rings, which is the honest MPSC fast-path cost.
        let (mut tx, mut rx) = channel::mpsc::<u64>(RING_ORDER, 4, SPINE_THREADS);
        let m = pair_loop(&mut tx, &mut rx, opts.ops);
        assert_eq!(tx.backend(), "mpsc-rings");
        m
    })
}

fn bench_raw_ring(opts: &BenchOpts) -> Stats {
    stats(opts.reps, || {
        let (mut p, mut c) = Ring::<u64>::new(RING_ORDER).split();
        timed(opts.ops, 2, |i| {
            p.push(i).expect("never full");
            assert_eq!(c.pop(), Some(i));
        })
    })
}

fn bench_upgraded_spine(opts: &BenchOpts) -> Stats {
    stats(opts.reps, || {
        let (mut tx, mut rx) = channel::spsc::<u64>(RING_ORDER, SPINE_THREADS);
        // Force the upgrade: a second sender operating while the first
        // holds the (only) producer seat exceeds the declared topology.
        // `tx` stays alive (and idle) so its ring lane stays claimed; the
        // pair loop drives the excess sender, i.e. the spine lane, plus
        // the receiver's empty-ring sweep — the real upgraded-state cost.
        tx.try_send(u64::MAX).unwrap();
        let mut tx2 = tx.clone();
        tx2.try_send(u64::MAX).unwrap();
        assert_eq!(tx.backend(), "wcq-spine", "second sender must trigger upgrade");
        for _ in 0..2 {
            assert!(rx.try_recv().is_ok());
        }
        pair_loop(&mut tx2, &mut rx, opts.ops)
    })
}

fn main() {
    let opts = BenchOpts::from_env(LADDER_X86);
    print_env_banner("Figure T: topology dispatch (single-pair enqueue+dequeue, 1 thread)");

    let rows: Vec<(&str, Stats)> = vec![
        ("wCQ-channel", bench_baseline(&opts)),
        ("chan-spsc", bench_spsc(&opts)),
        ("chan-spsc b=64", bench_spsc_batch(&opts)),
        ("chan-mpsc", bench_mpsc(&opts)),
        ("ring", bench_raw_ring(&opts)),
        ("spine upgraded", bench_upgraded_spine(&opts)),
    ];
    let baseline = rows[0].1.mean;

    println!("\n== Topology sweep: single-pair throughput (Mops/s, mean of reps) ==");
    println!("{:<16}{:>12}{:>10}{:>12}", "backend", "Mops/s", "cov", "vs wCQ-ch");
    for (name, st) in &rows {
        println!(
            "{name:<16}{:>12.3}{:>10.4}{:>11.2}x",
            st.mean,
            st.cov,
            st.mean / baseline
        );
    }
    println!("-- CSV --");
    println!("backend,mops,cov,speedup");
    for (name, st) in &rows {
        println!("{name},{:.4},{:.4},{:.4}", st.mean, st.cov, st.mean / baseline);
    }

    let spsc_speedup = rows[1].1.mean / baseline;
    let mpsc_speedup = rows[3].1.mean / baseline;
    println!(
        "\nspeedup vs wCQ-channel: chan-spsc {spsc_speedup:.1}x, chan-mpsc {mpsc_speedup:.1}x \
         (target >= 5x: {})",
        if spsc_speedup >= 5.0 { "PASS" } else { "FAIL" }
    );
}
