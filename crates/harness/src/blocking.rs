//! Burst workload for the blocking facade: parked vs spinning consumers.
//!
//! The paper's workloads (see [`crate::workload`]) keep every thread
//! saturated — the regime where spinning is optimal and parking can only
//! lose. Real consumers sit behind *bursty* producers: items arrive in
//! clumps with idle gaps between them, and during a gap a spinning consumer
//! burns CPU that an oversubscribed host needed elsewhere. This driver
//! reproduces that shape and measures what the throughput workloads cannot:
//!
//! * **Wakeup latency** — nanoseconds from an element's enqueue to its
//!   dequeue (each value *is* its enqueue timestamp), summarized as
//!   [`LatencyStats`] because the parking cost lives in the tail;
//! * **CPU time** — process CPU ([`process_cpu_time`]) consumed over the
//!   run, the quantity parked consumers save.
//!
//! `figures wakeup` sweeps this driver over consumer mode ×
//! oversubscription; `tests/blocking_facade.rs` reuses the same shape as a
//! lost-wakeup stress.

use crate::stats::{process_cpu_time, LatencyStats};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wcq::channel::{self, TryRecvError};

/// How consumers behave while the queue is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsumerMode {
    /// Poll `try_recv` in a spin loop (the pre-facade behaviour).
    Spin,
    /// Park on the channel's eventcount via `recv`.
    Block,
}

/// Burst-workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct BurstCfg {
    /// Producer thread count.
    pub producers: usize,
    /// Consumer thread count.
    pub consumers: usize,
    /// Bursts per producer.
    pub bursts: u64,
    /// Items per burst.
    pub burst_len: u64,
    /// Idle gap between a producer's bursts (what consumers wait through).
    pub gap: Duration,
    /// Queue capacity `2^ring_order`.
    pub ring_order: u32,
    /// Consumer behaviour on empty.
    pub mode: ConsumerMode,
    /// Pin workers round-robin (no-op off Linux).
    pub pin: bool,
}

impl Default for BurstCfg {
    fn default() -> Self {
        BurstCfg {
            producers: 2,
            consumers: 2,
            bursts: 64,
            burst_len: 64,
            gap: Duration::from_micros(200),
            ring_order: 12,
            mode: ConsumerMode::Block,
            pin: false,
        }
    }
}

impl BurstCfg {
    /// The canonical "figure W" shape used by `figures wakeup`: 64-item
    /// bursts with a 500 µs gap on a 2^12-slot queue, `workers` split
    /// evenly between the roles, and `ops` items per producer rounded
    /// **up** to a whole burst.
    pub fn figure_shape(mode: ConsumerMode, workers: usize, ops: u64, pin: bool) -> BurstCfg {
        let producers = (workers / 2).max(1);
        BurstCfg {
            producers,
            consumers: (workers - producers).max(1),
            bursts: ops.div_ceil(64).max(1),
            burst_len: 64,
            gap: Duration::from_micros(500),
            ring_order: 12,
            mode,
            pin,
        }
    }
}

/// Result of one burst-workload run.
#[derive(Clone, Copy, Debug)]
pub struct BurstResult {
    /// Items delivered (must equal `producers × bursts × burst_len`).
    pub moved: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Enqueue→dequeue latency distribution.
    pub wakeup: LatencyStats,
    /// Process CPU time consumed during the run (0 where unsupported).
    pub cpu: Duration,
}

impl BurstResult {
    /// Items per second over the wall clock.
    pub fn items_per_sec(&self) -> f64 {
        self.moved as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs one burst workload and returns its measurements.
///
/// The workload runs on a [`channel::bounded`] channel, the one blocking
/// surface. Values circulating through it are send timestamps
/// (nanoseconds since the run epoch), so every receive yields one latency
/// sample for free. Producers use the blocking `send` in both modes — the
/// comparison under test is the *consumer* idle strategy — and the last
/// producer to drop its sender closes the channel.
///
/// # Panics
/// Panics if any element is lost or duplicated (delivery count mismatch) —
/// the driver doubles as the facade's lost-wakeup tripwire.
// ORDERING: workload start/stop flags and progress counters; not on a
// measured fast path
pub fn run_burst(cfg: &BurstCfg) -> BurstResult {
    assert!(cfg.producers >= 1 && cfg.consumers >= 1);
    let (tx, rx) = channel::bounded::<u64>(cfg.ring_order, cfg.producers + cfg.consumers);
    let expected = cfg.producers as u64 * cfg.bursts * cfg.burst_len;
    let barrier = Arc::new(Barrier::new(cfg.producers + cfg.consumers + 1));
    let moved = Arc::new(AtomicU64::new(0));
    let epoch = Instant::now();
    let cpu_before = process_cpu_time();
    let started = Instant::now();
    // Plain spawned threads, not a scope: the tripwire below must be able
    // to panic while a worker is still parked.
    let producers: Vec<_> = (0..cfg.producers)
        .map(|p| {
            let (mut tx, barrier, cfg) = (tx.clone(), Arc::clone(&barrier), *cfg);
            std::thread::spawn(move || {
                if cfg.pin {
                    crate::pin::pin_to_core(p);
                }
                barrier.wait();
                for burst in 0..cfg.bursts {
                    for _ in 0..cfg.burst_len {
                        let stamp = epoch.elapsed().as_nanos() as u64;
                        tx.send(stamp).expect("channel closed early");
                    }
                    // No trailing sleep after the final burst: it would pad
                    // every run's wall clock (and throughput) by one gap.
                    if burst + 1 < cfg.bursts && !cfg.gap.is_zero() {
                        std::thread::sleep(cfg.gap);
                    }
                }
            })
        })
        .collect();
    drop(tx); // the producers' clones hold the channel open
    let consumers: Vec<_> = (0..cfg.consumers)
        .map(|c| {
            let (mut rx, barrier, cfg) = (rx.clone(), Arc::clone(&barrier), *cfg);
            let moved = Arc::clone(&moved);
            std::thread::spawn(move || {
                if cfg.pin {
                    crate::pin::pin_to_core(cfg.producers + c);
                }
                let mut local = Vec::new();
                barrier.wait();
                // `moved` is bumped per item (not at exit) so the tripwire
                // below can watch delivery progress.
                let mut take = |stamp: u64| {
                    local.push(epoch.elapsed().as_nanos() as u64 - stamp);
                    moved.fetch_add(1, Relaxed);
                };
                match cfg.mode {
                    ConsumerMode::Block => {
                        // BOUND: wait-edge — burst consumer: recv until the
                        // last sender drops and the backlog is drained
                        while let Ok(stamp) = rx.recv() {
                            take(stamp)
                        }
                    }
                    // BOUND: wait-edge — spin-mode consumer: polls until
                    // try_recv reports closed and drained
                    ConsumerMode::Spin => loop {
                        match rx.try_recv() {
                            Ok(stamp) => take(stamp),
                            Err(TryRecvError::Empty) => std::hint::spin_loop(),
                            Err(TryRecvError::Closed) => break,
                        }
                    },
                }
                local
            })
        })
        .collect();
    drop(rx);
    barrier.wait(); // start line: all workers ready
    // Wait for full delivery before joining anyone. The wait is
    // deadline-bounded so a lost element panics with a diagnostic instead
    // of hanging the run (the tripwire must be able to fire).
    let deadline = Instant::now()
        + cfg.gap * cfg.bursts as u32
        + Duration::from_millis(expected / 10) // ≥100 items/s floor
        + Duration::from_secs(60);
    // BOUND: wait-edge — delivery wait with an explicit deadline;
    // panics as a lost-wakeup tripwire instead of hanging
    while moved.load(Relaxed) < expected {
        assert!(
            Instant::now() < deadline,
            "burst run stalled: {}/{} items delivered (lost wakeup?)",
            moved.load(Relaxed),
            expected
        );
        std::thread::sleep(Duration::from_micros(50));
    }
    for p in producers {
        p.join().unwrap();
    }
    let samples: Vec<u64> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    let elapsed = started.elapsed();
    let cpu = match (cpu_before, process_cpu_time()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => Duration::ZERO,
    };
    let got = moved.load(Relaxed);
    assert_eq!(got, expected, "lost or duplicated elements in burst run");
    BurstResult {
        moved: got,
        elapsed,
        wakeup: LatencyStats::from_ns_samples(samples),
        cpu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mode: ConsumerMode) -> BurstCfg {
        BurstCfg {
            producers: 2,
            consumers: 2,
            bursts: 8,
            burst_len: 16,
            gap: Duration::from_micros(50),
            ring_order: 8,
            mode,
            pin: false,
        }
    }

    #[test]
    fn burst_block_mode_delivers_exactly() {
        let r = run_burst(&tiny(ConsumerMode::Block));
        assert_eq!(r.moved, 2 * 8 * 16);
        assert_eq!(r.wakeup.n as u64, r.moved, "one sample per item");
        assert!(r.wakeup.max_ns > 0);
        assert!(r.items_per_sec() > 0.0);
    }

    #[test]
    fn burst_spin_mode_delivers_exactly() {
        let r = run_burst(&tiny(ConsumerMode::Spin));
        assert_eq!(r.moved, 2 * 8 * 16);
        assert_eq!(r.wakeup.n as u64, r.moved);
    }

    #[test]
    fn cpu_census_is_monotone_where_supported() {
        if let Some(a) = process_cpu_time() {
            // Burn a little CPU, then re-read.
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            let b = process_cpu_time().unwrap();
            assert!(b >= a);
        }
    }
}
