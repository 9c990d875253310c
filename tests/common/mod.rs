//! Shared churn driver for the unbounded-queue stress suites
//! (`unbounded_churn.rs`, `unbounded_reclaim.rs`).

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use wcq::unbounded::Unbounded;
use wcq::{IndexRing, WcqConfig};

/// Knobs for [`churn`]: how the producer/consumer crowd behaves on top of
/// the shared exact-delivery skeleton.
pub struct ChurnCfg {
    /// Ring order (each list node holds `2^order` slots).
    pub order: u32,
    /// Values per producer.
    pub per: u64,
    /// Producer thread count.
    pub producers: usize,
    /// Consumer thread count.
    pub consumers: usize,
    /// Producers yield every `yield_stride` inserts (0 = never): a yielded
    /// producer is the "lagging enqueuer" of the tail-lag UAF scenario.
    pub yield_stride: u64,
    /// Assert per-producer FIFO order at the consumers.
    pub check_fifo: bool,
}

/// Producers and consumers hammer tiny stressed rings
/// (`WcqConfig::stress()`): every value must be delivered exactly once
/// across constant ring hand-offs, optionally in per-producer FIFO order.
pub fn churn<R: IndexRing + 'static>(cfg: ChurnCfg) {
    let q: Arc<Unbounded<u64, R>> = Arc::new(Unbounded::with_config(
        cfg.order,
        cfg.producers + cfg.consumers,
        &WcqConfig::stress(),
    ));
    let done = Arc::new(AtomicBool::new(false));
    let sink = Arc::new(Mutex::new(Vec::new()));
    let nproducers = cfg.producers;
    let producer_threads: Vec<_> = (0..cfg.producers as u64)
        .map(|p| {
            let q = Arc::clone(&q);
            let per = cfg.per;
            let stride = cfg.yield_stride;
            std::thread::spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..per {
                    h.enqueue(p << 32 | i);
                    if stride != 0 && i % stride == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    let consumer_threads: Vec<_> = (0..cfg.consumers)
        .map(|c| {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            let sink = Arc::clone(&sink);
            let check_fifo = cfg.check_fifo;
            std::thread::spawn(move || {
                let mut h = q.register().unwrap();
                let mut last = vec![-1i64; nproducers];
                let mut local = Vec::new();
                loop {
                    match h.dequeue() {
                        Some(v) => {
                            if check_fifo {
                                // Per-producer FIFO must survive hand-offs.
                                let (p, i) = ((v >> 32) as usize, (v & 0xffff_ffff) as i64);
                                assert!(
                                    i > last[p],
                                    "consumer {c}: producer {p} out of order ({i} after {})",
                                    last[p]
                                );
                                last[p] = i;
                            }
                            local.push(v);
                        }
                        None if done.load(SeqCst) => break,
                        None => std::thread::yield_now(),
                    }
                }
                sink.lock().unwrap().extend(local);
            })
        })
        .collect();
    for p in producer_threads {
        p.join().unwrap();
    }
    done.store(true, SeqCst);
    for c in consumer_threads {
        c.join().unwrap();
    }
    let got = sink.lock().unwrap();
    let expect = nproducers as u64 * cfg.per;
    assert_eq!(got.len() as u64, expect, "lost or duplicated elements");
    let set: std::collections::HashSet<u64> = got.iter().copied().collect();
    assert_eq!(set.len() as u64, expect, "duplicate delivery");
}
