//! The paper's benchmark workloads (§6).
//!
//! Each driver spawns `threads` workers, synchronizes them on a barrier,
//! runs `ops_per_thread` operations per worker and reports aggregate
//! throughput. Values are tagged `(thread << 32) | seq` like the original
//! benchmark framework (which enqueues pointers).
//!
//! The memory test (Fig. 10) additionally inserts "tiny random delays
//! between Dequeue and Enqueue operations" and picks enqueue/dequeue at
//! random with probability ½ each.

use crate::pin;
use crate::queues::{BenchQueue, QueueHandle};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Which of the paper's workloads to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Enqueue; Dequeue` in a tight loop (Figs. 11b / 12b).
    Pairwise,
    /// 50% enqueue / 50% dequeue chosen randomly (Figs. 11c / 12c).
    Mixed5050,
    /// `Dequeue` on an empty queue in a tight loop (Figs. 11a / 12a).
    EmptyDequeue,
}

/// Driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadCfg {
    /// Worker thread count.
    pub threads: usize,
    /// Operations per worker (an op = one enqueue or one dequeue; a
    /// pairwise iteration counts as two ops).
    pub ops_per_thread: u64,
    /// Elements enqueued before the clock starts (Mixed only).
    pub prefill: u64,
    /// Upper bound for the random inter-op delay, in `spin_loop` hints.
    /// `0` disables delays. (The paper's memory test uses tiny delays.)
    pub max_delay_spins: u32,
    /// RNG seed for the mixed op choice and delays.
    pub seed: u64,
    /// Pin workers to cores round-robin (no-op where unsupported).
    pub pin: bool,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            threads: 4,
            ops_per_thread: 100_000,
            prefill: 1024,
            max_delay_spins: 0,
            seed: 0x5eed_cafe,
            pin: false,
        }
    }
}

/// Result of one measured run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Total completed operations across all workers.
    pub ops: u64,
    /// Wall-clock time of the measured region.
    pub elapsed: Duration,
}

impl RunResult {
    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Small xorshift* PRNG — deterministic, allocation-free, per-thread.
#[derive(Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (0 is mapped to a fixed non-zero seed).
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }
    /// Next pseudo-random u64.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

#[inline]
fn random_delay(rng: &mut XorShift, max_spins: u32) {
    if max_spins > 0 {
        let n = (rng.next_u64() % (max_spins as u64 + 1)) as u32;
        for _ in 0..n {
            std::hint::spin_loop();
        }
    }
}

/// Runs one workload once and returns the aggregate result.
// ORDERING: workload start/stop flags and progress counters; not on a
// measured fast path
pub fn run<Q: BenchQueue>(q: &Q, wl: Workload, cfg: &WorkloadCfg) -> RunResult {
    // Prefill outside the measured region (Mixed only — Pairwise starts
    // empty by construction and EmptyDequeue must stay empty).
    if wl == Workload::Mixed5050 && cfg.prefill > 0 {
        let mut h = q.handle();
        for i in 0..cfg.prefill {
            let _ = h.enqueue(u64::MAX << 33 | i); // tag prefill values
        }
    }
    let barrier = Barrier::new(cfg.threads);
    let total_ops = AtomicU64::new(0);
    // Each worker times its own measured region; the run's wall time is the
    // slowest worker (taking the main thread's clock instead systematically
    // under-measures on oversubscribed machines: the main thread can be
    // descheduled across the start barrier while workers already run).
    let max_nanos = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let barrier = &barrier;
            let total_ops = &total_ops;
            let max_nanos = &max_nanos;
            let cfg = *cfg;
            let qref = q;
            s.spawn(move || {
                if cfg.pin {
                    pin::pin_to_core(t);
                }
                let mut h = qref.handle();
                let mut rng = XorShift::new(cfg.seed ^ (t as u64).wrapping_mul(0xA24B_1741));
                barrier.wait(); // start line
                let started = Instant::now();
                let mut done = 0u64;
                match wl {
                    Workload::Pairwise => {
                        let mut i = 0u64;
                        // BOUND: const — ops_per_thread iterations of the
                        // pairwise pattern
                        while done < cfg.ops_per_thread {
                            let v = (t as u64) << 32 | (i & 0xffff_ffff);
                            let _ = h.enqueue(v);
                            random_delay(&mut rng, cfg.max_delay_spins);
                            let _ = h.dequeue();
                            random_delay(&mut rng, cfg.max_delay_spins);
                            i += 1;
                            done += 2;
                        }
                    }
                    Workload::Mixed5050 => {
                        let mut i = 0u64;
                        // BOUND: const — ops_per_thread iterations of the
                        // 50/50 mix
                        while done < cfg.ops_per_thread {
                            if rng.next_u64() & 1 == 0 {
                                let v = (t as u64) << 32 | (i & 0xffff_ffff);
                                let _ = h.enqueue(v);
                                i += 1;
                            } else {
                                let _ = h.dequeue();
                            }
                            random_delay(&mut rng, cfg.max_delay_spins);
                            done += 1;
                        }
                    }
                    Workload::EmptyDequeue => {
                        // BOUND: const — ops_per_thread empty dequeues
                        while done < cfg.ops_per_thread {
                            let r = h.dequeue();
                            debug_assert!(r.is_none(), "empty-dequeue queue must stay empty");
                            done += 1;
                        }
                    }
                }
                total_ops.fetch_add(done, Relaxed);
                max_nanos.fetch_max(started.elapsed().as_nanos() as u64, Relaxed);
            });
        }
    });
    RunResult {
        ops: total_ops.load(Relaxed),
        elapsed: Duration::from_nanos(max_nanos.load(Relaxed).max(1)),
    }
}

/// Runs `reps` measured repetitions and returns their Mops/s samples.
pub fn repeat<Q: BenchQueue>(q: &Q, wl: Workload, cfg: &WorkloadCfg, reps: usize) -> Vec<f64> {
    (0..reps).map(|_| run(q, wl, cfg).mops()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::{QueueSpec, ScqBench, WcqBench};

    #[test]
    fn xorshift_is_deterministic_and_spread() {
        let mut a = XorShift::new(7);
        let mut b = XorShift::new(7);
        let mut ones = 0;
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            ones += x & 1;
        }
        // Roughly balanced low bit (needed for the 50/50 op mix).
        assert!((350..=650).contains(&ones), "biased op mix: {ones}");
    }

    #[test]
    fn pairwise_counts_all_ops() {
        let spec = QueueSpec {
            max_threads: 4,
            ring_order: 8,
            ..Default::default()
        };
        let q = WcqBench::new(&spec);
        let cfg = WorkloadCfg {
            threads: 2,
            ops_per_thread: 1000,
            ..Default::default()
        };
        let r = run(&q, Workload::Pairwise, &cfg);
        assert_eq!(r.ops, 2000);
        assert!(r.elapsed > Duration::ZERO);
        assert!(r.mops() > 0.0);
    }

    #[test]
    fn empty_dequeue_leaves_queue_empty() {
        let spec = QueueSpec {
            max_threads: 4,
            ring_order: 8,
            ..Default::default()
        };
        let q = ScqBench::new(&spec);
        let cfg = WorkloadCfg {
            threads: 2,
            ops_per_thread: 5000,
            ..Default::default()
        };
        let r = run(&q, Workload::EmptyDequeue, &cfg);
        assert_eq!(r.ops, 10_000);
        let mut h = q.handle();
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn mixed_with_delays_runs() {
        let spec = QueueSpec {
            max_threads: 4,
            ring_order: 10,
            ..Default::default()
        };
        let q = WcqBench::new(&spec);
        let cfg = WorkloadCfg {
            threads: 3,
            ops_per_thread: 2000,
            prefill: 128,
            max_delay_spins: 32,
            ..Default::default()
        };
        let r = run(&q, Workload::Mixed5050, &cfg);
        assert_eq!(r.ops, 6000);
    }
}
