//! Channel-API stress and semantics: the `wcq::channel` endpoints on plain
//! spawned (`'static`) threads — cloning, lazy slot acquisition,
//! refcount-driven close, the blocking/deadline/async surface, and exact
//! delivery at 4×-core oversubscription over all three backends.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wcq::channel::{self, Receiver, Sender, TryRecvError, TrySendError};
use wcq::sync::{block_on, RecvError, SendError};
use wcq::{WcqConfig, WcqQueue};

fn oversubscribed(n: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores * 4).max(n)
}

/// The MPMC skeleton: `producers` sender clones and `consumers` receiver
/// clones on spawned threads; every produced value must arrive exactly
/// once, and the consumers must terminate via refcount close alone (no
/// explicit close call anywhere).
fn mpmc_exact_delivery(
    tx: Sender<u64>,
    rx: Receiver<u64>,
    producers: usize,
    consumers: usize,
    per: u64,
) {
    let next = Arc::new(AtomicU64::new(0));
    let p_threads: Vec<_> = (0..producers)
        .map(|_| {
            let mut tx = tx.clone();
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                for _ in 0..per {
                    tx.send(next.fetch_add(1, SeqCst)).unwrap();
                }
            })
        })
        .collect();
    drop(tx); // producers' clones keep the channel open
    let c_threads: Vec<_> = (0..consumers)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got // ended by the last producer's drop
            })
        })
        .collect();
    drop(rx);
    for p in p_threads {
        p.join().unwrap();
    }
    let mut all: Vec<u64> = c_threads
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    let expect = producers as u64 * per;
    assert_eq!(all.len() as u64, expect, "lost or duplicated elements");
    all.sort_unstable();
    assert_eq!(all, (0..expect).collect::<Vec<_>>());
}

#[test]
fn bounded_mpmc_on_spawned_threads() {
    let workers = oversubscribed(8);
    let (p, c) = (workers / 2, workers / 2);
    // Two slots of headroom over the worker count: endpoints register
    // lazily but all workers operate concurrently here.
    let (tx, rx) = channel::bounded::<u64>(6, p + c + 2);
    mpmc_exact_delivery(tx, rx, p, c, 2_000);
}

#[test]
fn bounded_mpmc_stress_config() {
    let workers = oversubscribed(8).min(12);
    let (p, c) = (workers / 2, workers / 2);
    let (tx, rx) = channel::over(WcqQueue::<u64>::with_config(
        5,
        p + c + 2,
        &WcqConfig::stress(),
    ));
    mpmc_exact_delivery(tx, rx, p, c, 1_000);
}

#[test]
fn sharded_mpmc_on_spawned_threads() {
    let workers = oversubscribed(8);
    let (p, c) = (workers / 2, workers / 2);
    let (tx, rx) = channel::sharded::<u64>(4, 5, p + c + 2);
    mpmc_exact_delivery(tx, rx, p, c, 2_000);
}

#[test]
fn unbounded_mpmc_on_spawned_threads() {
    let workers = oversubscribed(8);
    let (p, c) = (workers / 2, workers / 2);
    let (tx, rx) = channel::unbounded::<u64>(5, p + c + 2);
    mpmc_exact_delivery(tx, rx, p, c, 2_000);
}

#[test]
fn last_sender_drop_closes_after_drain() {
    let (mut tx, mut rx) = channel::bounded::<u32>(4, 2);
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    drop(tx); // last sender: close
    assert!(rx.is_closed());
    // Backlog drains before Closed is reported, on every entry point.
    assert_eq!(rx.try_recv(), Ok(1));
    assert_eq!(rx.recv(), Ok(2));
    assert_eq!(rx.recv(), Err(RecvError::Closed));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(5)),
        Err(RecvError::Closed)
    );
}

#[test]
fn last_receiver_drop_fails_senders() {
    let (mut tx, rx) = channel::bounded::<u32>(4, 2);
    let rx2 = rx.clone();
    drop(rx);
    tx.send(1).unwrap(); // a receiver clone still exists
    drop(rx2); // last receiver: close
    assert!(tx.is_closed());
    assert_eq!(tx.try_send(7), Err(TrySendError::Closed(7)));
    assert_eq!(tx.send(8), Err(SendError::Closed(8)));
    assert_eq!(
        tx.send_timeout(9, Duration::from_millis(5)),
        Err(SendError::Closed(9))
    );
    let mut batch = vec![1, 2, 3];
    assert_eq!(tx.send_batch(&mut batch), 0, "closed: nothing accepted");
    assert_eq!(batch, vec![1, 2, 3], "values conserved");
}

#[test]
fn idle_clones_take_no_slots() {
    // max_threads = 2, but any number of idle clones is fine: slots are
    // taken on first use, not at clone time.
    let (tx, mut rx) = channel::bounded::<u32>(4, 2);
    let idle: Vec<Sender<u32>> = (0..32).map(|_| tx.clone()).collect();
    let mut tx = tx;
    tx.send(5).unwrap(); // takes slot 1 of 2
    assert_eq!(rx.recv(), Ok(5)); // takes slot 2 of 2
    drop(idle); // never registered; nothing to release
    drop(tx);
    assert_eq!(rx.recv(), Err(RecvError::Closed));
}

#[test]
fn slot_waiting_resolves_when_endpoint_drops() {
    // Three operating endpoints compete for two slots: the third parks in
    // its first blocking operation until one of the first two drops. This
    // is the documented contract of `max_threads` on the channel
    // constructors.
    let (tx, mut rx) = channel::bounded::<u32>(4, 2);
    let mut tx1 = tx.clone();
    tx1.send(1).unwrap(); // slot A
    let t = {
        let mut tx2 = tx.clone();
        std::thread::spawn(move || {
            tx2.send(2).unwrap(); // waits for a slot, then slot A
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    drop(tx1); // frees slot A; the spawned sender proceeds
    t.join().unwrap();
    drop(tx);
    assert_eq!(rx.recv(), Ok(1)); // slot B
    assert_eq!(rx.recv(), Ok(2));
    assert_eq!(rx.recv(), Err(RecvError::Closed));

    // Every slot held: a third endpoint's non-blocking forms miss at once
    // and its deadline forms wait out the deadline, on both sides. A value
    // is queued throughout, so each miss is the slot's, not the queue's.
    // A `mem::forget`-ten holder is one that never drops: these misses are
    // its documented leak-but-safe outcome, for good.
    const D: Duration = Duration::from_millis(10);
    let (mut tx, mut rx) = channel::bounded::<u32>(4, 2);
    tx.send(1).unwrap(); // slot A
    assert_eq!(rx.try_recv(), Ok(1)); // slot B
    tx.send(2).unwrap();
    let (mut tx2, mut rx2) = (tx.clone(), rx.clone());
    assert_eq!(tx2.try_send(3), Err(TrySendError::Full(3)));
    assert_eq!(rx2.try_recv(), Err(TryRecvError::Empty));
    assert_eq!(tx2.send_batch(&mut vec![3]), 0);
    assert_eq!(rx2.recv_batch(&mut Vec::new(), 4), 0);
    let start = Instant::now();
    assert_eq!(tx2.send_timeout(3, D), Err(SendError::Timeout(3)));
    assert!(start.elapsed() >= D, "send_timeout returned early");
    let start = Instant::now();
    assert_eq!(rx2.recv_timeout(D), Err(RecvError::Timeout));
    assert!(start.elapsed() >= D, "recv_timeout returned early");
    drop(rx); // frees slot B
    assert_eq!(rx2.try_recv(), Ok(2));
    drop(tx); // frees slot A
    assert_eq!(tx2.try_send(3), Ok(()));
    assert_eq!(rx2.recv(), Ok(3));

    // A topology channel's consumer seat is a slot too: a receiver
    // without it misses the same way with a value queued, until the
    // holder's drop hands the seat over.
    for (mut tx, mut rx) in [channel::spsc::<u32>(4, 2), channel::mpsc::<u32>(4, 2, 2)] {
        tx.send(1).unwrap();
        assert_eq!(rx.try_recv(), Ok(1)); // the seat
        tx.send(2).unwrap();
        let mut rx2 = rx.clone();
        assert_eq!(rx2.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(rx2.recv_batch(&mut Vec::new(), 4), 0);
        let start = Instant::now();
        assert_eq!(rx2.recv_timeout(D), Err(RecvError::Timeout));
        assert!(start.elapsed() >= D, "recv_timeout returned early");
        drop(rx); // frees the seat
        assert_eq!(rx2.try_recv(), Ok(2));
    }

    // So is each producer seat: with every seat held, a further sender
    // misses with room in the ring, until a holder's drop hands it over.
    for (mut tx, mut rx) in [channel::spsc::<u32>(4, 2), channel::mpsc::<u32>(4, 1, 2)] {
        tx.send(1).unwrap(); // the seat
        let mut tx2 = tx.clone();
        assert_eq!(tx2.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(tx2.send_batch(&mut vec![3]), 0);
        let start = Instant::now();
        assert_eq!(tx2.send_timeout(3, D), Err(SendError::Timeout(3)));
        assert!(start.elapsed() >= D, "send_timeout returned early");
        drop(tx); // frees the seat
        assert_eq!(tx2.try_send(3), Ok(()));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(3));
    }
}

/// A value that counts its drops in `drops[id]`, and panics in its `Drop`
/// (after counting) when `panics` is set.
struct Counted {
    id: usize,
    drops: Arc<[AtomicU64]>,
    panics: bool,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops[self.id].fetch_add(1, SeqCst);
        if self.panics {
            panic!("element {} panics in its drop", self.id);
        }
    }
}

#[test]
fn panicking_drop_at_teardown_leaks_the_rest() {
    // The documented teardown outcome on `bounded` and `spsc`: queued
    // elements drop in FIFO order when the last endpoint drops; the first
    // panicking drop propagates out of that endpoint's drop, the elements
    // behind it leak, and none is dropped twice.
    let channels = [
        ("bounded", channel::bounded::<Counted>(3, 2)),
        ("spsc", channel::spsc::<Counted>(3, 2)),
    ];
    for (name, (mut tx, rx)) in channels {
        let drops: Arc<[AtomicU64]> = (0..5).map(|_| AtomicU64::new(0)).collect();
        for id in 0..5 {
            let drops = Arc::clone(&drops);
            let sent = tx.try_send(Counted {
                id,
                drops,
                panics: id == 2,
            });
            assert!(sent.is_ok(), "{name}: element {id}");
        }
        drop(tx);
        let last = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(rx)));
        assert!(last.is_err(), "{name}: the drop's panic must propagate");
        let counts: Vec<u64> = drops.iter().map(|c| c.load(SeqCst)).collect();
        assert_eq!(counts, [1, 1, 1, 0, 0], "{name}");
    }
}

#[test]
fn timeout_is_element_conserving() {
    let (mut tx, mut rx) = channel::bounded::<u32>(2, 2); // 4 slots
    for i in 0..4 {
        tx.send(i).unwrap();
    }
    // Full: the value must ride back in the error.
    match tx.send_timeout(99, Duration::from_millis(5)) {
        Err(SendError::Timeout(v)) => assert_eq!(v, 99),
        other => panic!("expected timeout, got {other:?}"),
    }
    for i in 0..4 {
        assert_eq!(rx.recv(), Ok(i));
    }
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(5)),
        Err(RecvError::Timeout)
    );
}

// `Instant::now() + Duration::MAX` overflows; an unrepresentable deadline
// is no deadline, on each of the three entry points that take one. The
// value arrives from another thread after the waiter had time to park.

fn after_a_pause(f: impl FnOnce() + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        f()
    })
}

#[test]
fn recv_timeout_max_waits_without_a_deadline() {
    let (mut tx, mut rx) = channel::bounded::<u32>(1, 2);
    let t = after_a_pause(move || tx.send(1).unwrap());
    assert_eq!(rx.recv_timeout(Duration::MAX), Ok(1));
    t.join().unwrap();
}

#[test]
fn send_timeout_max_waits_without_a_deadline() {
    let (mut tx, mut rx) = channel::bounded::<u32>(1, 2); // 2 slots
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    let t =
        after_a_pause(move || assert_eq!([rx.recv(), rx.recv(), rx.recv()], [Ok(1), Ok(2), Ok(3)]));
    assert_eq!(tx.send_timeout(3, Duration::MAX), Ok(()));
    t.join().unwrap();
}

#[test]
fn recv_any_max_waits_without_a_deadline() {
    let (_tx_a, rx_a) = channel::spsc::<u32>(2, 2);
    let (mut tx_b, rx_b) = channel::spsc::<u32>(2, 2);
    let t = after_a_pause(move || tx_b.send(4).unwrap());
    let mut lanes = [rx_a, rx_b];
    assert_eq!(
        channel::recv_any(&mut lanes, Some(Duration::MAX)),
        Ok((1, 4))
    );
    t.join().unwrap();
}

#[test]
fn batch_surface_roundtrips() {
    let (mut tx, mut rx) = channel::bounded::<u64>(3, 2); // 8 slots
    let mut items: Vec<u64> = (0..10).collect();
    assert_eq!(tx.send_batch(&mut items), 8, "bounded at capacity");
    assert_eq!(items, vec![8, 9], "rejects stay behind in order");
    let mut out = Vec::new();
    assert_eq!(rx.recv_batch(&mut out, 100), 8);
    assert_eq!(out, (0..8).collect::<Vec<_>>());
    assert_eq!(rx.recv_batch(&mut out, 1), 0, "observed empty");
}

/// `send_batch` drains the caller's buffer in place: a send that takes
/// everything leaves it empty with its allocation intact, so a batching
/// loop reuses one inbox instead of freeing and re-allocating it every
/// round, and a partial send leaves the rejects at the front, in order.
#[test]
fn send_batch_keeps_the_callers_buffer() {
    keeps_the_buffer("bounded", channel::bounded(3, 2), 8, Some(8));
    keeps_the_buffer("sharded", channel::sharded(2, 3, 2), 8, Some(8));
    // 20 values span three list nodes of 8: the ring-crossing path.
    keeps_the_buffer("unbounded", channel::unbounded(3, 2), 20, None);
}

/// Sends `whole` values the channel takes entirely, then — when the
/// channel has a `room` — `room + 2` values it can take only in part.
fn keeps_the_buffer(
    name: &str,
    (mut tx, mut rx): (Sender<u64>, Receiver<u64>),
    whole: u64,
    room: Option<u64>,
) {
    let mut items: Vec<u64> = Vec::with_capacity(64);
    items.extend(0..whole);
    assert_eq!(tx.send_batch(&mut items), whole as usize, "{name}");
    assert!(items.is_empty(), "{name}");
    assert!(
        items.capacity() >= 64,
        "{name}: a full send keeps the allocation"
    );
    let mut out = Vec::new();
    while rx.recv_batch(&mut out, 64) > 0 {}
    assert_eq!(out, (0..whole).collect::<Vec<_>>(), "{name}");
    if let Some(room) = room {
        items.extend(0..room + 2);
        assert_eq!(tx.send_batch(&mut items), room as usize, "{name}");
        assert_eq!(
            items,
            [room, room + 1],
            "{name}: rejects stay behind in order"
        );
        assert!(
            items.capacity() >= 64,
            "{name}: a partial send keeps it too"
        );
    }
}

#[test]
fn async_pipeline_via_block_on() {
    let (tx, mut rx) = channel::unbounded::<u64>(4, 3);
    let producers: Vec<_> = (0..2u64)
        .map(|p| {
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                block_on(async move {
                    for i in 0..500 {
                        tx.send_async(p * 500 + i).await.unwrap();
                    }
                })
            })
        })
        .collect();
    drop(tx);
    let sum = block_on(async move {
        let mut sum = 0u64;
        loop {
            match rx.recv_async().await {
                Ok(v) => sum += v,
                Err(RecvError::Closed) => break sum,
                Err(RecvError::Timeout) => unreachable!("no deadline"),
            }
        }
    });
    for p in producers {
        p.join().unwrap();
    }
    assert_eq!(sum, (0..1000u64).sum());
}

#[test]
fn async_send_backpressure_on_bounded() {
    // 4-slot bounded channel: the producer's send futures must go Pending
    // while full and resolve as the consumer drains.
    let (mut tx, mut rx) = channel::bounded::<u64>(2, 2);
    let t = std::thread::spawn(move || {
        block_on(async move {
            for i in 0..200 {
                tx.send_async(i).await.unwrap();
            }
        })
    });
    let got = block_on(async move {
        let mut got = Vec::new();
        loop {
            match rx.recv_async().await {
                Ok(v) => got.push(v),
                Err(_) => break got,
            }
        }
    });
    t.join().unwrap();
    assert_eq!(got, (0..200).collect::<Vec<_>>(), "FIFO under backpressure");
}

#[test]
fn sender_clone_churn_exact_delivery() {
    // Endpoint churn through the channel surface: every send creates,
    // uses, and drops a fresh Sender clone (register + quiesced release
    // per item), while a long-lived receiver drains.
    let (tx, mut rx) = channel::over(WcqQueue::<u64>::with_config(5, 4, &WcqConfig::stress()));
    let feeders: Vec<_> = (0..2u64)
        .map(|p| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..300 {
                    let mut fresh = tx.clone();
                    fresh.send(p * 300 + i).unwrap();
                } // fresh dropped: slot released each round
            })
        })
        .collect();
    drop(tx);
    let mut got = Vec::new();
    while let Ok(v) = rx.recv() {
        got.push(v);
    }
    for f in feeders {
        f.join().unwrap();
    }
    got.sort_unstable();
    assert_eq!(got, (0..600).collect::<Vec<_>>());
}

#[test]
fn receiver_competition_drains_everything() {
    // Receivers racing try_recv/recv_batch against a closing channel must
    // between them account for every element. One sender feeds one
    // affinity shard, so the backlog must fit a single shard (2^5).
    let (mut tx, rx) = channel::sharded::<u64>(2, 5, 6);
    for i in 0..24 {
        tx.send(i).unwrap();
    }
    drop(tx);
    let rxs: Vec<_> = (0..3)
        .map(|_| {
            let mut rx = rx.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    let mut out = Vec::new();
                    if rx.recv_batch(&mut out, 4) > 0 {
                        got.extend(out);
                        continue;
                    }
                    match rx.try_recv() {
                        Ok(v) => got.push(v),
                        Err(TryRecvError::Closed) => break got,
                        Err(TryRecvError::Empty) => std::thread::yield_now(),
                    }
                }
            })
        })
        .collect();
    drop(rx);
    let mut all: Vec<u64> = rxs.into_iter().flat_map(|t| t.join().unwrap()).collect();
    all.sort_unstable();
    assert_eq!(all, (0..24).collect::<Vec<_>>());
}

// ===================================================================
// recv_any: the select-style multi-queue wait
// ===================================================================

#[test]
fn recv_any_prefers_lowest_ready_lane() {
    let (mut tx_a, rx_a) = channel::spsc::<u32>(4, 2);
    let (mut tx_b, rx_b) = channel::spsc::<u32>(4, 2);
    let mut lanes = [rx_a, rx_b];
    tx_b.send(20).unwrap();
    assert_eq!(channel::recv_any(&mut lanes, None), Ok((1, 20)));
    tx_a.send(10).unwrap();
    tx_b.send(21).unwrap();
    // Both ready: index order breaks the tie.
    assert_eq!(channel::recv_any(&mut lanes, None), Ok((0, 10)));
    assert_eq!(channel::recv_any(&mut lanes, None), Ok((1, 21)));
}

#[test]
fn recv_any_times_out_when_all_lanes_empty() {
    let (_tx_a, rx_a) = channel::bounded::<u32>(4, 4);
    let (_tx_b, rx_b) = channel::mpsc::<u32>(4, 2, 4);
    let mut lanes = [rx_a, rx_b];
    assert_eq!(
        channel::recv_any(&mut lanes, Some(Duration::from_millis(10))),
        Err(RecvError::Timeout)
    );
}

#[test]
fn recv_any_parks_and_wakes_on_any_lane() {
    let (tx_a, rx_a) = channel::mpsc::<u64>(4, 2, 4);
    let (tx_b, rx_b) = channel::mpsc::<u64>(4, 2, 4);
    let mut lanes = [rx_a, rx_b];
    for lane in [1usize, 0, 1] {
        let mut tx = if lane == 0 {
            tx_a.clone()
        } else {
            tx_b.clone()
        };
        let h = std::thread::spawn(move || {
            // Give the receiver time to pass its empty probe and park.
            std::thread::sleep(Duration::from_millis(20));
            tx.send(lane as u64).unwrap();
        });
        // No timeout: only the sender's notify can end this wait.
        assert_eq!(channel::recv_any(&mut lanes, None), Ok((lane, lane as u64)));
        h.join().unwrap();
    }
}

#[test]
fn recv_any_closed_only_after_every_lane_closes_and_drains() {
    let (tx_a, rx_a) = channel::spsc::<u32>(4, 2);
    let (mut tx_b, rx_b) = channel::spsc::<u32>(4, 2);
    let mut lanes = [rx_a, rx_b];
    drop(tx_a); // lane 0 closed empty
    tx_b.send(7).unwrap();
    drop(tx_b); // lane 1 closed with one value still queued
                // The queued value must surface before the collective Closed.
    assert_eq!(channel::recv_any(&mut lanes, None), Ok((1, 7)));
    assert_eq!(channel::recv_any(&mut lanes, None), Err(RecvError::Closed));
    // And Closed is sticky.
    assert_eq!(
        channel::recv_any(&mut lanes, Some(Duration::from_millis(1))),
        Err(RecvError::Closed)
    );
}

#[test]
fn recv_any_exact_delivery_across_many_lanes() {
    // One producer per lane, one consumer multiplexing all lanes through
    // recv_any until the collective close: exactly-once delivery with
    // correct lane attribution, at thread counts past the core count.
    let lanes_n = oversubscribed(4).min(8);
    let per = 2_000u64;
    let mut producers = Vec::new();
    let mut lanes = Vec::new();
    for lane in 0..lanes_n {
        let (mut tx, rx) = channel::mpsc::<u64>(5, 1, 3);
        lanes.push(rx);
        producers.push(std::thread::spawn(move || {
            for i in 0..per {
                tx.send(lane as u64 * per + i).unwrap();
            }
        }));
    }
    let mut got: Vec<Vec<u64>> = vec![Vec::new(); lanes_n];
    loop {
        match channel::recv_any(&mut lanes, None) {
            Ok((lane, v)) => {
                assert_eq!(v / per, lane as u64, "value surfaced on the wrong lane");
                got[lane].push(v);
            }
            Err(RecvError::Closed) => break,
            Err(RecvError::Timeout) => unreachable!("no deadline was set"),
        }
    }
    for p in producers {
        p.join().unwrap();
    }
    for (lane, mut vals) in got.into_iter().enumerate() {
        vals.sort_unstable();
        let base = lane as u64 * per;
        assert_eq!(vals, (base..base + per).collect::<Vec<_>>());
    }
}
