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

use crate::stats::LatencyStats;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use wcq::sync::{RecvError, SyncQueue};
use wcq::{WcqConfig, WcqQueue};

/// How consumers behave while the queue is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsumerMode {
    /// Poll `dequeue` in a spin loop (the pre-facade behaviour).
    Spin,
    /// Park on the queue's eventcount via `dequeue_blocking`.
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

/// Runs one burst workload and returns its measurements.
///
/// Values circulating through the queue are enqueue timestamps (nanoseconds
/// since the run epoch), so every dequeue yields one latency sample for
/// free. Producers use the blocking enqueue in both modes — the comparison
/// under test is the *consumer* idle strategy.
///
/// # Panics
/// Panics if any element is lost or duplicated (delivery count mismatch) —
/// the driver doubles as the facade's lost-wakeup tripwire.
// ORDERING: workload start/stop flags and progress counters; not on a
// measured fast path
pub fn run_burst(cfg: &BurstCfg) -> BurstResult {
    assert!(cfg.producers >= 1 && cfg.consumers >= 1);
    let q: WcqQueue<u64> = WcqQueue::with_config(
        cfg.ring_order,
        cfg.producers + cfg.consumers,
        &WcqConfig::default(),
    );
    let expected = cfg.producers as u64 * cfg.bursts * cfg.burst_len;
    let barrier = Barrier::new(cfg.producers + cfg.consumers + 1);
    let moved = AtomicU64::new(0);
    let samples = Mutex::new(Vec::<u64>::new());
    let epoch = Instant::now();
    let cpu_before = process_cpu_time();
    let started = Instant::now();
    std::thread::scope(|s| {
        for p in 0..cfg.producers {
            let q = &q;
            let barrier = &barrier;
            let cfg = *cfg;
            s.spawn(move || {
                if cfg.pin {
                    crate::pin::pin_to_core(p);
                }
                let mut h = q.register().expect("producer slot");
                barrier.wait();
                for burst in 0..cfg.bursts {
                    for _ in 0..cfg.burst_len {
                        let stamp = epoch.elapsed().as_nanos() as u64;
                        h.enqueue_blocking(stamp).expect("queue closed early");
                    }
                    // No trailing sleep after the final burst: it would pad
                    // every run's wall clock (and throughput) by one gap.
                    if burst + 1 < cfg.bursts && !cfg.gap.is_zero() {
                        std::thread::sleep(cfg.gap);
                    }
                }
            });
        }
        for c in 0..cfg.consumers {
            let q = &q;
            let barrier = &barrier;
            let moved = &moved;
            let samples = &samples;
            let cfg = *cfg;
            s.spawn(move || {
                if cfg.pin {
                    crate::pin::pin_to_core(cfg.producers + c);
                }
                let mut h = q.register().expect("consumer slot");
                let mut local = Vec::new();
                barrier.wait();
                // `moved` is bumped per item (not at exit): the main thread
                // closes the queue only once `moved` reaches the expected
                // total, and consumers only exit on close.
                let take = |local: &mut Vec<u64>, stamp: u64| {
                    local.push(epoch.elapsed().as_nanos() as u64 - stamp);
                    moved.fetch_add(1, Relaxed);
                };
                match cfg.mode {
                    // BOUND: wait-edge — burst consumer: dequeue_blocking
                    // until the queue closes
                    ConsumerMode::Block => loop {
                        match h.dequeue_blocking() {
                            Ok(stamp) => take(&mut local, stamp),
                            Err(RecvError::Closed) => break,
                            Err(RecvError::Timeout) => unreachable!("no deadline"),
                        }
                    },
                    // BOUND: wait-edge — spin-mode consumer: polls until
                    // closed plus one final empty look (same drain
                    // contract)
                    ConsumerMode::Spin => loop {
                        match h.dequeue() {
                            Some(stamp) => take(&mut local, stamp),
                            // Same drain contract as dequeue_blocking: only
                            // closed + one more empty look means done.
                            None if q.is_closed() => match h.dequeue() {
                                Some(stamp) => take(&mut local, stamp),
                                None => break,
                            },
                            None => std::hint::spin_loop(),
                        }
                    },
                }
                samples.lock().unwrap().extend(local);
            });
        }
        barrier.wait(); // start line: all workers ready
        // The scope joins producers implicitly, but consumers only exit on
        // close — so wait for full delivery, then close. The wait is
        // deadline-bounded so a lost element panics with a diagnostic
        // instead of hanging the run (the tripwire must be able to fire).
        let deadline = Instant::now()
            + cfg.gap * cfg.bursts as u32
            + Duration::from_millis(expected / 10) // ≥100 items/s floor
            + Duration::from_secs(60);
        // BOUND: wait-edge — delivery wait with an explicit deadline;
        // panics as a lost-wakeup tripwire instead of hanging
        while moved.load(Relaxed) < expected {
            if Instant::now() >= deadline {
                // Release the parked workers first or the scope's implicit
                // join would hang on them during the unwind.
                q.close();
                panic!(
                    "burst run stalled: {}/{} items delivered (lost wakeup?)",
                    moved.load(Relaxed),
                    expected
                );
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        q.close();
    });
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
        wakeup: LatencyStats::from_ns_samples(samples.into_inner().unwrap()),
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
