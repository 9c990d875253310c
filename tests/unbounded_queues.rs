//! Integration tests for the Appendix-A unbounded queues: ring hand-off
//! correctness under parallelism, growth behaviour, and total FIFO order
//! with a single consumer.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use wcq::unbounded::{Unbounded, UnboundedScq, UnboundedWcq};
use wcq::{IndexRing, ScqRing, WcqRing};

/// Total FIFO with one consumer: because a single consumer's view is the
/// linearization order, interleavings across ring boundaries would show up
/// as out-of-order sequence numbers per producer.
fn single_consumer_fifo<R: IndexRing + 'static>() {
    let q: Arc<Unbounded<u64, R>> = Arc::new(Unbounded::new(2, 4)); // 4-slot rings!
    let done = Arc::new(AtomicBool::new(false));
    let producers: Vec<_> = (0..3u64)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..5_000 {
                    h.enqueue(p << 32 | i);
                }
            })
        })
        .collect();
    let consumer = {
        let q = Arc::clone(&q);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut h = q.register().unwrap();
            let mut last = [-1i64; 3];
            let mut count = 0u64;
            loop {
                match h.dequeue() {
                    Some(v) => {
                        let (p, i) = ((v >> 32) as usize, (v & 0xffff_ffff) as i64);
                        assert!(
                            i > last[p],
                            "producer {p}: saw {i} after {}",
                            last[p]
                        );
                        last[p] = i;
                        count += 1;
                    }
                    None if done.load(SeqCst) => break,
                    None => std::thread::yield_now(),
                }
            }
            count
        })
    };
    for p in producers {
        p.join().unwrap();
    }
    done.store(true, SeqCst);
    // One more full drain possibility: consumer exits only after done+empty.
    let count = consumer.join().unwrap();
    // Anything left (consumer raced the flag) must be drained here.
    let mut h = q.register().unwrap();
    let mut rest = 0;
    while h.dequeue().is_some() {
        rest += 1;
    }
    assert_eq!(count + rest, 15_000);
}

#[test]
fn unbounded_scq_single_consumer_fifo() {
    single_consumer_fifo::<ScqRing>();
}

#[test]
fn unbounded_wcq_single_consumer_fifo() {
    single_consumer_fifo::<WcqRing>();
}

#[test]
fn growth_is_proportional_to_backlog() {
    // Push far more than one ring holds without consuming; the list must
    // keep absorbing (this is the unbounded contract).
    let q: UnboundedWcq<u64> = Unbounded::new(4, 2); // 16-slot rings
    let mut h = q.register().unwrap();
    for i in 0..10_000 {
        h.enqueue(i);
    }
    for i in 0..10_000 {
        assert_eq!(h.dequeue(), Some(i));
    }
    assert_eq!(h.dequeue(), None);
}

#[test]
fn parallel_hand_off_never_strands_elements() {
    // Producers hammer tiny rings (constant closes) while consumers advance
    // the list; every element must come out exactly once.
    let q: Arc<UnboundedScq<u64>> = Arc::new(Unbounded::new(1, 8)); // 2-slot rings
    let done = Arc::new(AtomicBool::new(false));
    let sink = Arc::new(Mutex::new(Vec::new()));
    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..3_000 {
                    h.enqueue(p << 32 | i);
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..4)
        .map(|_| {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                let mut h = q.register().unwrap();
                let mut local = Vec::new();
                loop {
                    match h.dequeue() {
                        Some(v) => local.push(v),
                        None if done.load(SeqCst) => break,
                        None => std::thread::yield_now(),
                    }
                }
                sink.lock().unwrap().extend(local);
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    done.store(true, SeqCst);
    for c in consumers {
        c.join().unwrap();
    }
    let got = sink.lock().unwrap();
    assert_eq!(got.len(), 12_000, "lost or duplicated across ring hand-offs");
    let set: std::collections::HashSet<_> = got.iter().collect();
    assert_eq!(set.len(), 12_000);
}

#[test]
fn handle_exhaustion_and_reuse() {
    let q: UnboundedWcq<u64> = Unbounded::new(3, 2);
    let h1 = q.register().unwrap();
    let _h2 = q.register().unwrap();
    assert!(q.register().is_none());
    drop(h1);
    assert!(q.register().is_some());
}
