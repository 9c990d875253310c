//! Clone-past-topology upgrade stress at 4×-core oversubscription.
//!
//! An SPSC-declared channel is flooded by one seated producer while extra
//! sender clones appear mid-stream, forcing the wCQ spine to graft on as
//! the overflow lane. Every produced value must arrive exactly once —
//! counted and checksummed — across the backend transition, three runs in
//! a row. This is the acceptance gate for the topology refactor: the
//! upgrade may cost throughput, never elements.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use wcq::channel;
use wcq::topology::TopoCore;
use wcq::WcqConfig;

fn oversubscribed(n: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores * 4).max(n)
}

/// One stress run: `extra` clone-senders join a declared-SPSC channel
/// mid-stream. Returns after asserting exact delivery.
fn upgrade_run(cfg: &WcqConfig, per: u64) {
    let extra = oversubscribed(8) - 1;
    // Spine slots: seat producer + every excess sender + the receiver may
    // hold one simultaneously, plus headroom for thread-churn laggards.
    let slots = (extra + 2) * 2;
    let (tx, mut rx) = channel::over(TopoCore::<u64>::spsc(10, slots, cfg));

    let total = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0));

    // Seated producer: starts before any clone exists, keeps its ring
    // across the graft.
    let seed = {
        let total = Arc::clone(&total);
        let checksum = Arc::clone(&checksum);
        let mut tx = tx.clone();
        std::thread::spawn(move || {
            for i in 0..per {
                let v = i; // lane tag 0
                tx.send(v).unwrap();
                total.fetch_add(1, Relaxed);
                checksum.fetch_add(v, Relaxed);
            }
        })
    };

    // Excess producers: cloned mid-stream (after the seed is running), so
    // the graft happens under live traffic.
    let producers: Vec<_> = (1..=extra as u64)
        .map(|t| {
            let total = Arc::clone(&total);
            let checksum = Arc::clone(&checksum);
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..per {
                    let v = t << 32 | i;
                    tx.send(v).unwrap();
                    total.fetch_add(1, Relaxed);
                    checksum.fetch_add(v, Relaxed);
                }
            })
        })
        .collect();
    drop(tx);

    let mut got = 0u64;
    let mut sum = 0u64;
    let mut last_per_lane = vec![None::<u64>; extra + 1];
    while let Ok(v) = rx.recv() {
        got += 1;
        sum = sum.wrapping_add(v);
        // Per-producer FIFO must hold across the backend transition.
        let lane = (v >> 32) as usize;
        let seq = v & 0xffff_ffff;
        if let Some(prev) = last_per_lane[lane] {
            assert!(seq > prev, "lane {lane} reordered: {seq} after {prev}");
        }
        last_per_lane[lane] = Some(seq);
    }

    seed.join().unwrap();
    for p in producers {
        p.join().unwrap();
    }
    assert_eq!(got, total.load(Relaxed), "element count across the graft");
    assert_eq!(sum, checksum.load(Relaxed), "element identity across the graft");
    assert_eq!(got, (extra as u64 + 1) * per);
}

#[test]
fn upgrade_stress_exact_delivery_3x() {
    for run in 0..3 {
        upgrade_run(&WcqConfig::default(), 2_000);
        eprintln!("upgrade stress run {run}: exact delivery");
    }
}

#[test]
fn upgrade_stress_exact_delivery_stress_config() {
    upgrade_run(&WcqConfig::stress(), 500);
}
