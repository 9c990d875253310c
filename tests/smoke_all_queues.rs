//! Cross-queue smoke test: round-trip N tagged items through **every**
//! queue exposed by `harness::queues` on 4 threads and assert no value is
//! lost or duplicated. This is the cheap always-on companion to the deeper
//! producer/consumer splits in `mpmc_all_queues.rs`: every thread here both
//! produces and consumes, so it also exercises the full/empty boundary of
//! the bounded rings without ever deadlocking on a full queue.

use baselines::{CcQueue, CrTurnQueue, FaaQueue, Lcrq, MsQueue, YmcQueue};
use harness::model::{check_delivery, tag, DeliveryLog};
use harness::queues::{BenchQueue, ChannelBench, QueueHandle, QueueSpec};
use std::sync::{Barrier, Mutex};
use wcq::unbounded::Unbounded;
use wcq::{ScqQueue, ScqRing, ShardedWcq, WcqQueue, WcqRing};

const THREADS: usize = 4;
const PER: u64 = 2_000;

fn spec() -> QueueSpec {
    QueueSpec {
        // 4 workers + the final drain handle.
        max_threads: THREADS + 1,
        ring_order: 8,
        shards: 1,
        node_order: None,
        cfg: wcq::WcqConfig::default(),
    }
}

/// Every thread enqueues `PER` tagged values and opportunistically dequeues
/// as it goes (making room when a bounded ring reports full); the residue
/// is drained single-threaded at the end. Delivery must be the exact
/// produced multiset with per-producer FIFO order.
fn smoke<Q: BenchQueue>(q: &Q) {
    let log = Mutex::new(DeliveryLog::default());
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let q = &q;
            workers.push(s.spawn(move || {
                let mut h = q.handle();
                let mut sent = Vec::with_capacity(PER as usize);
                let mut got = Vec::new();
                for i in 0..PER {
                    let v = tag(t, i);
                    while !h.enqueue(v) {
                        // Bounded queue full: make room ourselves so four
                        // simultaneous producers can never wedge.
                        if let Some(x) = h.dequeue() {
                            got.push((t, x));
                        }
                    }
                    sent.push(v);
                    if let Some(x) = h.dequeue() {
                        got.push((t, x));
                    }
                }
                (sent, got)
            }));
        }
        for w in workers {
            let (sent, got) = w.join().unwrap();
            let mut log = log.lock().unwrap();
            log.produced.push(sent);
            log.consumed.extend(got);
        }
    });
    // Drain what the workers left behind.
    let mut h = q.handle();
    let mut log = log.lock().unwrap();
    while let Some(x) = h.dequeue() {
        log.consumed.push((THREADS, x));
    }
    check_delivery(&log);
}

#[test]
fn wcq_smoke() {
    smoke(&WcqQueue::<u64>::build(&spec()));
}

#[test]
fn channel_smoke() {
    // The owned channel surface (cloned Sender/Receiver pairs with lazy
    // slot acquisition) over the same skeleton as the raw handles.
    smoke(&ChannelBench::build(&spec()));
}

#[test]
fn sharded_wcq_smoke() {
    // Every worker lands on a different affinity shard; the opportunistic
    // dequeues sweep the other shards, and workers outnumber cores 4× on
    // small hosts, widening the cross-shard race windows.
    let s = QueueSpec {
        shards: 4,
        ..spec()
    };
    smoke(&ShardedWcq::<u64>::build(&s));
}

#[test]
fn scq_smoke() {
    smoke(&ScqQueue::<u64>::build(&spec()));
}

#[test]
fn unbounded_wcq_smoke() {
    // Tiny 8-slot nodes force constant ring hand-offs (and hazard-pointer
    // retire/protect traffic) under the full 4-thread crowd.
    let s = QueueSpec {
        node_order: Some(3),
        ..spec()
    };
    smoke(&Unbounded::<u64, WcqRing>::build(&s));
}

#[test]
fn unbounded_scq_smoke() {
    let s = QueueSpec {
        node_order: Some(3),
        ..spec()
    };
    smoke(&Unbounded::<u64, ScqRing>::build(&s));
}

#[test]
fn msqueue_smoke() {
    smoke(&MsQueue::build(&spec()));
}

#[test]
fn lcrq_smoke() {
    smoke(&Lcrq::build(&spec()));
}

#[test]
fn ymc_smoke() {
    smoke(&YmcQueue::build(&spec()));
}

#[test]
fn crturn_smoke() {
    smoke(&CrTurnQueue::build(&spec()));
}

#[test]
fn ccqueue_smoke() {
    smoke(&CcQueue::build(&spec()));
}

/// FAA stores no values (it is the paper's F&A throughput upper bound), so
/// "no loss, no duplication" degenerates to ticket conservation: with all
/// enqueues strictly before all dequeues (its empty probe burns a ticket,
/// so the interleaved pattern above would be unfair to it), exactly
/// `THREADS * PER` dequeues succeed — each with a distinct ticket — and the
/// next probe reports empty.
#[test]
fn faa_smoke() {
    tickets_conserved(&FaaQueue::build(&spec()));
}

/// Generic so every call goes through `QueueHandle` (FAA's handle is a
/// plain `&FaaQueue`, whose inherent methods would otherwise win).
fn tickets_conserved<Q: BenchQueue>(q: &Q) {
    let enq_done = Barrier::new(THREADS);
    let successes: u64 = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for _ in 0..THREADS {
            let enq_done = &enq_done;
            workers.push(s.spawn(move || {
                let mut h = q.handle();
                for i in 0..PER {
                    h.enqueue(i);
                }
                enq_done.wait();
                let mut ok = 0u64;
                let mut tickets = Vec::with_capacity(PER as usize);
                for _ in 0..PER {
                    if let Some(ticket) = h.dequeue() {
                        ok += 1;
                        tickets.push(ticket);
                    }
                }
                tickets.sort_unstable();
                tickets.dedup();
                assert_eq!(tickets.len() as u64, ok, "duplicated ticket");
                ok
            }));
        }
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_eq!(successes, THREADS as u64 * PER, "lost tickets");
    assert_eq!(q.handle().dequeue(), None, "queue not empty after drain");
}
