//! Ablation benches for the design choices DESIGN.md §5 calls out:
//! MAX_PATIENCE, HELP_DELAY, MAX_CATCHUP, Cache_Remap, and the dwcas
//! backend's primitive costs.
//!
//! All queue-level ablations run the pairwise workload on a small thread
//! count through `iter_custom` (criterion drives repetitions, our harness
//! drives the threads).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harness::queues::{BenchQueue, QueueSpec};
use harness::workload::{run, Workload, WorkloadCfg};
use std::time::Duration;
use wcq::WcqConfig;

const THREADS: usize = 2;
const OPS: u64 = 20_000;

fn wl_cfg() -> WorkloadCfg {
    WorkloadCfg {
        threads: THREADS,
        ops_per_thread: OPS,
        prefill: 0,
        max_delay_spins: 0,
        seed: 42,
        pin: false,
    }
}

fn pairwise_elapsed(cfg: &WcqConfig, iters: u64) -> Duration {
    let spec = QueueSpec {
        max_threads: THREADS + 1,
        ring_order: 12,
        shards: 1,
        node_order: None,
        cfg: *cfg,
    };
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let q = wcq::WcqQueue::<u64>::build(&spec);
        total += run(&q, Workload::Pairwise, &wl_cfg()).elapsed;
    }
    total
}

fn ablate_patience(c: &mut Criterion) {
    let mut g = c.benchmark_group("patience");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for patience in [1u32, 4, 16, 64, 256] {
        let cfg = WcqConfig {
            max_patience_enq: patience,
            max_patience_deq: patience,
            ..WcqConfig::default()
        };
        g.bench_with_input(
            BenchmarkId::from_parameter(patience),
            &cfg,
            |b, cfg| b.iter_custom(|iters| pairwise_elapsed(cfg, iters)),
        );
    }
    g.finish();
}

fn ablate_help_delay(c: &mut Criterion) {
    let mut g = c.benchmark_group("help_delay");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for delay in [0u32, 4, 16, 128] {
        let cfg = WcqConfig {
            help_delay: delay,
            ..WcqConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(delay), &cfg, |b, cfg| {
            b.iter_custom(|iters| pairwise_elapsed(cfg, iters))
        });
    }
    g.finish();
}

fn ablate_catchup(c: &mut Criterion) {
    let mut g = c.benchmark_group("catchup");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for catchup in [0u32, 4, 16, 64] {
        let cfg = WcqConfig {
            max_catchup: catchup,
            ..WcqConfig::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(catchup), &cfg, |b, cfg| {
            b.iter_custom(|iters| pairwise_elapsed(cfg, iters))
        });
    }
    g.finish();
}

fn ablate_remap(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_remap");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for (label, remap) in [("on", true), ("off", false)] {
        // wCQ
        let cfg = WcqConfig {
            remap,
            ..WcqConfig::default()
        };
        g.bench_with_input(BenchmarkId::new("wcq", label), &cfg, |b, cfg| {
            b.iter_custom(|iters| pairwise_elapsed(cfg, iters))
        });
        // SCQ
        g.bench_with_input(BenchmarkId::new("scq", label), &cfg, |b, cfg| {
            b.iter_custom(|iters| {
                let spec = QueueSpec {
                    max_threads: THREADS + 1,
                    ring_order: 12,
                    shards: 1,
                    node_order: None,
                    cfg: *cfg,
                };
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let q = wcq::ScqQueue::<u64>::build(&spec);
                    total += run(&q, Workload::Pairwise, &wl_cfg()).elapsed;
                }
                total
            })
        });
    }
    g.finish();
}

/// Batch API vs singleton loop: 64 enqueues + 64 dequeues per iteration,
/// single-threaded (the amortization claim is about F&A + cache-remap cost
/// per item, which contention only amplifies).
fn ablate_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch64");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    const N: usize = 64;
    g.bench_function("singleton", |b| {
        let q: wcq::WcqQueue<u64> = wcq::WcqQueue::new(12, 2);
        let mut h = q.register().unwrap();
        b.iter(|| {
            for i in 0..N as u64 {
                let _ = std::hint::black_box(h.enqueue(i));
            }
            for _ in 0..N {
                std::hint::black_box(h.dequeue());
            }
        })
    });
    g.bench_function("batch", |b| {
        let q: wcq::WcqQueue<u64> = wcq::WcqQueue::new(12, 2);
        let mut h = q.register().unwrap();
        let mut items: Vec<u64> = Vec::with_capacity(N);
        let mut out: Vec<u64> = Vec::with_capacity(N);
        b.iter(|| {
            items.extend(0..N as u64);
            std::hint::black_box(h.enqueue_batch(&mut items));
            std::hint::black_box(h.dequeue_batch(&mut out, N));
            items.clear();
            out.clear();
        })
    });
    g.finish();
}

/// Registration-slot orderings (the SeqCst → Acquire/Release downgrade
/// argued at `SlotTable::claim`/`release` in `wcq`'s `ringpair.rs`, weak-DST proven
/// by `dst_slot_handoff_*`): the claim/release
/// pair at both ordering levels — on x86-64 the release store compiles to
/// a plain `mov` where the SeqCst store needs `xchg` — plus the real
/// `register()`/drop cycle, which now rides the downgraded pair.
fn ablate_slot_orderings(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let mut g = c.benchmark_group("slot_orderings");
    for (label, claim, release) in [
        ("seqcst", Ordering::SeqCst, Ordering::SeqCst),
        ("acqrel", Ordering::Acquire, Ordering::Release),
    ] {
        let slot = AtomicBool::new(false);
        g.bench_function(format!("claim_release/{label}"), |b| {
            b.iter(|| {
                let ok = slot
                    .compare_exchange(false, true, claim, Ordering::Relaxed)
                    .is_ok();
                std::hint::black_box(ok);
                slot.store(false, release);
            })
        });
    }
    g.bench_function("register_cycle", |b| {
        let q: wcq::WcqQueue<u64> = wcq::WcqQueue::new(4, 2);
        b.iter(|| std::hint::black_box(q.register().unwrap()))
    });
    g.finish();
}

/// Adaptive backoff (the `wait-edge` pacing of its one site, the
/// unbounded queue's `!drained()` residue spin; the channel's slot and
/// seat waits park on an eventcount instead): the full `Backoff` ladder
/// against the constant-yield loop it replaced, plus the adopted path at
/// queue level — the unbounded queue's pairwise workload, where
/// `dequeue_walk` constructs a `Backoff` per call and the residue window
/// can strike.
fn ablate_backoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("backoff");
    // One full ladder: 7 escalating spin phases then 4 yields (step 0..=10).
    g.bench_function("ladder", |b| {
        b.iter(|| {
            let mut bo = wcq::sync::Backoff::new();
            while !bo.is_completed() {
                bo.snooze();
            }
        })
    });
    // What the replaced code paid for the same number of waits.
    g.bench_function("yield_ladder", |b| {
        b.iter(|| {
            for _ in 0..11 {
                std::thread::yield_now();
            }
        })
    });
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("unbounded_pairwise", |b| {
        b.iter_custom(|iters| {
            let spec = QueueSpec {
                max_threads: THREADS + 1,
                ring_order: 12,
                shards: 1,
                node_order: None,
                cfg: WcqConfig::default(),
            };
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let q = wcq::unbounded::Unbounded::<u64, wcq::WcqRing>::build(&spec);
                total += run(&q, Workload::Pairwise, &wl_cfg()).elapsed;
            }
            total
        })
    });
    g.finish();
}

/// Eventcount `listen` epoch-load ordering (the `Relaxed` load argued at
/// `wcq::sync::Eventcount::listen`, weak-DST proven by
/// `dst_eventcount_listen_relaxed_is_sufficient`): the distilled
/// listen-then-probe pair at both orderings — on x86-64 both loads compile
/// to `mov`, so any delta is compiler reordering freedom; the row
/// documents that the downgrade is *free*, the DST model that it is
/// *sound*. (The blocking fast path, a send/recv pair that never parks,
/// is the benchmark ladder's `channel.blocking_pair_ns` rung.)
fn ablate_eventcount_listen(c: &mut Criterion) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut g = c.benchmark_group("eventcount_listen");
    for (label, o) in [("relaxed", Ordering::Relaxed), ("seqcst", Ordering::SeqCst)] {
        let epoch = AtomicU64::new(0);
        let state = AtomicU64::new(1);
        g.bench_function(format!("listen_probe/{label}"), |b| {
            b.iter(|| {
                let key = epoch.load(o); // listen's snapshot
                std::hint::black_box(key);
                std::hint::black_box(state.load(Ordering::SeqCst)) // probe
            })
        });
    }
    g.finish();
}

fn dwcas_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group(format!("dwcas[{}]", dwcas::BACKEND));
    let pair = dwcas::AtomicPair::new(0, 0);
    g.bench_function("fetch_add_lo", |b| {
        b.iter(|| std::hint::black_box(pair.fetch_add_lo(1)))
    });
    g.bench_function("load2", |b| b.iter(|| std::hint::black_box(pair.load2())));
    g.bench_function("cas2_success", |b| {
        b.iter(|| {
            let cur = pair.load2();
            std::hint::black_box(pair.compare_exchange2(cur, (cur.0 + 1, cur.1)))
        })
    });
    // Baseline: plain word CAS for comparison.
    let word = std::sync::atomic::AtomicU64::new(0);
    g.bench_function("word_cas_baseline", |b| {
        b.iter(|| {
            let cur = word.load(std::sync::atomic::Ordering::SeqCst);
            std::hint::black_box(
                word.compare_exchange(
                    cur,
                    cur + 1,
                    std::sync::atomic::Ordering::SeqCst,
                    std::sync::atomic::Ordering::SeqCst,
                )
                .is_ok(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ablate_patience,
    ablate_help_delay,
    ablate_catchup,
    ablate_remap,
    ablate_batch,
    ablate_slot_orderings,
    ablate_backoff,
    ablate_eventcount_listen,
    dwcas_primitives
);
criterion_main!(benches);
