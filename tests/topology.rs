//! Channel-level semantics of the topology-declared backends: the
//! `channel::spsc` / `channel::mpsc` constructors must preserve the full
//! `Sender`/`Receiver` contract (FIFO, full/closed edges, blocking and
//! async paths, batch ops) while running on private SPSC rings, and must
//! survive a clone past the declared topology by grafting the wait-free
//! wCQ spine without losing or duplicating a single element.

use std::time::{Duration, Instant};
use wcq::channel::{self, TryRecvError, TrySendError};
use wcq::sync::{block_on, RecvError};

#[test]
fn spsc_fifo_and_backend() {
    let (mut tx, mut rx) = channel::spsc::<u64>(6, 4);
    for i in 0..200 {
        tx.try_send(i).unwrap();
        assert_eq!(rx.try_recv().ok(), Some(i));
    }
    assert_eq!(tx.backend(), "spsc-ring");
    assert_eq!(rx.backend(), "spsc-ring");
}

#[test]
fn spsc_full_hands_value_back() {
    let (mut tx, mut rx) = channel::spsc::<u64>(3, 4);
    for i in 0..8 {
        tx.try_send(i).unwrap();
    }
    match tx.try_send(99) {
        Err(TrySendError::Full(v)) => assert_eq!(v, 99),
        other => panic!("expected Full(99), got {other:?}"),
    }
    assert_eq!(rx.try_recv().ok(), Some(0));
    tx.try_send(99).unwrap();
    for want in (1..8).chain([99]) {
        assert_eq!(rx.try_recv().ok(), Some(want));
    }
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
}

#[test]
fn spsc_blocking_handoff_across_threads() {
    // The ring publishes indices with plain stores, so this is the
    // regression test for the asymmetric-fence notify path: the receiver
    // parks, the sender's post-store notify must always find it.
    let (mut tx, mut rx) = channel::spsc::<u64>(4, 4);
    let consumer = std::thread::spawn(move || {
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        got
    });
    for i in 0..10_000u64 {
        tx.send(i).unwrap();
    }
    drop(tx); // refcount close wakes and terminates the consumer
    let got = consumer.join().unwrap();
    assert_eq!(got, (0..10_000).collect::<Vec<_>>());
}

#[test]
fn spsc_blocked_sender_wakes_on_free_slot() {
    let (mut tx, mut rx) = channel::spsc::<u64>(2, 4);
    for i in 0..4 {
        tx.try_send(i).unwrap();
    }
    let producer = std::thread::spawn(move || {
        tx.send(42).unwrap(); // ring full: must park until a slot frees
        tx
    });
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(rx.try_recv().ok(), Some(0));
    let _tx = producer.join().unwrap();
    for want in (1..4).chain([42]) {
        assert_eq!(rx.try_recv().ok(), Some(want));
    }
}

#[test]
fn spsc_async_smoke() {
    let (mut tx, mut rx) = channel::spsc::<u64>(6, 4);
    block_on(async {
        for i in 0..32 {
            tx.send_async(i).await.unwrap();
        }
    });
    block_on(async {
        for i in 0..32 {
            assert_eq!(rx.recv_async().await.unwrap(), i);
        }
    });
}

#[test]
fn mpsc_per_sender_fifo() {
    let (tx, mut rx) = channel::mpsc::<u64>(8, 3, 8);
    assert_eq!(tx.backend(), "mpsc-rings");
    let threads: Vec<_> = (0..3u64)
        .map(|t| {
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..500 {
                    tx.send(t << 32 | i).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let mut got = Vec::new();
    while let Ok(v) = rx.recv() {
        got.push(v);
    }
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(got.len(), 3 * 500);
    // Three senders on three declared lanes never exceed the topology, so
    // every message rode the per-sender rings, not an upgraded spine.
    assert_eq!(rx.backend(), "mpsc-rings");
    for t in 0..3u64 {
        let lane: Vec<u64> = got.iter().copied().filter(|v| v >> 32 == t).map(|v| v & 0xffff_ffff).collect();
        assert_eq!(lane, (0..500).collect::<Vec<_>>(), "sender {t} lost FIFO");
    }
}

#[test]
fn mpsc_batch_roundtrip() {
    let (mut tx, mut rx) = channel::mpsc::<u64>(6, 2, 4);
    let mut inbox: Vec<u64> = (0..48).collect();
    assert_eq!(tx.send_batch(&mut inbox), 48);
    assert!(inbox.is_empty());
    let mut out = Vec::new();
    assert_eq!(rx.recv_batch(&mut out, 64), 48);
    assert_eq!(out, (0..48).collect::<Vec<_>>());
}

/// The consumer's sweep, by hand: its cursor stays on the ring that last
/// gave a value, and a miss there still reaches every other ring — one
/// thread, so the interleaving is fixed. `try_recv` pops the cursor's ring
/// inline and sweeps the rest out of line; `recv_batch` sweeps in one call.
#[test]
fn mpsc_sweep_keeps_a_sticky_cursor() {
    let (a, b) = (|i: u64| i, |i: u64| 100 + i);
    let (mut tx_a, mut rx) = channel::mpsc::<u64>(4, 2, 4);
    let mut tx_b = tx_a.clone();
    for i in 0..3 {
        tx_a.try_send(a(i)).unwrap(); // A's first send takes ring 0
    }
    for i in 0..3 {
        tx_b.try_send(b(i)).unwrap();
    }
    let got: Vec<u64> = (0..6).map(|_| rx.try_recv().unwrap()).collect();
    assert_eq!(got, [a(0), a(1), a(2), b(0), b(1), b(2)]);
    tx_b.try_send(b(3)).unwrap();
    tx_a.try_send(a(3)).unwrap();
    assert_eq!(rx.try_recv(), Ok(b(3)), "the cursor stays on B's ring");
    assert_eq!(rx.try_recv(), Ok(a(3)), "a miss on it reaches A's ring");
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));

    let (mut tx_a, mut rx) = channel::mpsc::<u64>(4, 2, 4);
    let mut tx_b = tx_a.clone();
    let mut inbox: Vec<u64> = (0..3).map(a).collect();
    assert_eq!(tx_a.send_batch(&mut inbox), 3);
    let mut inbox: Vec<u64> = (0..3).map(b).collect();
    assert_eq!(tx_b.send_batch(&mut inbox), 3);
    let mut out = Vec::new();
    assert_eq!(rx.recv_batch(&mut out, 8), 6);
    assert_eq!(out, [a(0), a(1), a(2), b(0), b(1), b(2)]);
    tx_b.try_send(b(3)).unwrap();
    tx_a.try_send(a(3)).unwrap();
    out.clear();
    assert_eq!(rx.recv_batch(&mut out, 8), 2);
    assert_eq!(out, [b(3), a(3)], "B's ring first, then A's");
    assert_eq!(rx.recv_batch(&mut out, 8), 0);
}

#[test]
fn clone_past_topology_grafts_spine_and_conserves() {
    let (mut tx, mut rx) = channel::spsc::<u64>(5, 6);
    for i in 0..10 {
        tx.try_send(i).unwrap();
    }
    // Second operating sender exceeds the declared topology: the wCQ
    // spine grafts on as an overflow lane. The seated sender keeps its
    // ring; the excess sender runs on the spine.
    let mut tx2 = tx.clone();
    tx2.try_send(100).unwrap();
    assert_eq!(tx.backend(), "wcq-spine");
    assert_eq!(rx.backend(), "wcq-spine");
    tx.try_send(10).unwrap(); // still the ring lane, still FIFO
    let mut got = Vec::new();
    while let Ok(v) = rx.try_recv() {
        got.push(v);
    }
    // The receiver sweeps rings before the spine, so the seated sender's
    // backlog drains first and in order; the spine value follows.
    assert_eq!(got, (0..=10).chain([100]).collect::<Vec<_>>());
}

#[test]
fn order_zero_graft_conserves() {
    // One ring slot, so `order + log2(rings)` is 0, which no wCQ ring can
    // take: the spine order is clamped to 1 at construction, and the
    // excess sender's `send` grafts instead of panicking.
    let (mut tx, mut rx) = channel::spsc::<u64>(0, 1);
    tx.try_send(1).unwrap();
    let mut tx2 = tx.clone();
    tx2.try_send(2).unwrap();
    assert_eq!(tx2.backend(), "wcq-spine");
    drop(tx2); // frees the spine's only thread slot for the receiver
    let got: Vec<u64> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
    assert_eq!(got, [1, 2]);
}

#[test]
#[should_panic(expected = "spine order 49")]
fn oversized_spine_rejected_at_construction() {
    // 4 rings of 2^47 slots need a 2^49 spine; the constructor refuses
    // before allocating anything.
    let _ = channel::mpsc::<u64>(47, 4, 1);
}

#[test]
fn closed_edges_survive_the_graft() {
    let (mut tx, rx) = channel::spsc::<u64>(4, 6);
    tx.try_send(1).unwrap();
    let mut tx2 = tx.clone();
    tx2.try_send(2).unwrap(); // grafts the spine
    drop(rx);
    assert!(matches!(tx.try_send(3), Err(TrySendError::Closed(3))));
    assert!(matches!(tx2.try_send(4), Err(TrySendError::Closed(4))));

    let (mut tx, mut rx) = channel::spsc::<u64>(4, 6);
    tx.try_send(7).unwrap();
    let mut tx2 = tx.clone();
    tx2.try_send(8).unwrap();
    drop(tx);
    drop(tx2);
    // Refcount close: the backlog (ring residue + spine) drains, then Closed.
    assert_eq!(rx.recv(), Ok(7));
    assert_eq!(rx.recv(), Ok(8));
    assert_eq!(rx.recv(), Err(RecvError::Closed));
}

/// DESIGN.md §11 seat regression: an out-of-declaration receiver
/// must never be told `Closed` while ring residue is stranded behind
/// another endpoint's live consumer seat. Pre-fix, every dequeue path
/// mapped "closed + nothing reachable from here" straight to `Closed`
/// and the residue was silently dropped.
#[test]
fn excess_receiver_waits_out_stranded_residue() {
    let (mut tx, mut rx) = channel::spsc::<u64>(2, 4);
    let mut rx2 = rx.clone(); // beyond the declared 1 consumer
    tx.try_send(1).unwrap();
    tx.try_send(2).unwrap();
    assert_eq!(rx.recv(), Ok(1)); // `rx` claims the consumer seat
    drop(tx); // closed, with residue (2) in `rx`'s ring

    // The seat is held and `rx` has not drained: "empty for now", never
    // `Closed` — and a deadline expires as a timeout, not a close.
    assert_eq!(rx2.try_recv(), Err(TryRecvError::Empty));
    assert_eq!(
        rx2.recv_timeout(Duration::from_millis(5)),
        Err(RecvError::Timeout)
    );

    drop(rx); // seat released with the residue still in the ring
    assert_eq!(rx2.recv(), Ok(2), "residue inherited, not dropped");
    assert_eq!(rx2.recv(), Err(RecvError::Closed));
}

/// The open-channel twin, where the seat release is the only wake source:
/// with the sender alive, the excess receiver's probe says "wait", so it
/// parks; no further send ever comes, and only the `not_empty` notify of
/// the holder's drop can hand it the residue before its own deadline.
#[test]
fn parked_excess_receiver_wakes_on_seat_release() {
    const DEADLINE: Duration = Duration::from_secs(1);
    let (mut tx, mut rx) = channel::spsc::<u64>(2, 4);
    let mut rx2 = rx.clone();
    tx.try_send(1).unwrap();
    tx.try_send(2).unwrap();
    assert_eq!(rx.recv(), Ok(1)); // `rx` holds the seat; 2 stays behind it
    let waiter = std::thread::spawn(move || {
        let start = Instant::now();
        (rx2.recv_timeout(DEADLINE), start.elapsed())
    });
    // Give the waiter time to find nothing reachable and park.
    std::thread::sleep(Duration::from_millis(20));
    drop(rx); // seat released, channel still open
    let (got, waited) = waiter.join().unwrap();
    assert_eq!(got, Ok(2), "residue delivered to the parked receiver");
    assert!(
        waited < DEADLINE,
        "woken by its own deadline ({waited:?}), not by the seat release"
    );
    drop(tx);
}

/// A spine thread slot is the one thing the seat holder may still find
/// taken: here a live excess sender holds the only one, so the receiver
/// misses while the channel is open. That sender's drop frees the slot
/// and, as the last sender, closes the channel — and on a closed channel
/// every spine slot is free to the seat holder (senders release theirs
/// before the last one closes, and seatless receivers never take one), so
/// it drains the spine and then sees `Closed`.
#[test]
fn seated_receiver_waits_out_a_held_spine_slot() {
    let (mut tx, mut rx) = channel::spsc::<u64>(2, 1); // one spine slot
    let mut tx2 = tx.clone();
    tx.try_send(1).unwrap(); // seated: the ring
    tx2.try_send(10).unwrap(); // excess: grafts the spine, takes its slot
    tx2.try_send(11).unwrap();
    assert_eq!(rx.try_recv(), Ok(1)); // `rx` takes the seat
    drop(tx);
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty)); // open, slot held
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(5)),
        Err(RecvError::Timeout)
    );
    drop(tx2); // frees the slot, then closes the channel
    assert_eq!(rx.try_recv(), Ok(10));
    assert_eq!(rx.try_recv(), Ok(11));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
}

/// The blocking twin: a parked excess receiver outlives the seat holder's
/// whole tenure and still delivers the stranded value.
#[test]
fn blocking_excess_receiver_inherits_residue() {
    let (mut tx, rx) = channel::spsc::<u64>(2, 4);
    let mut rx2 = rx.clone();
    let mut rx = rx;
    tx.try_send(7).unwrap();
    assert_eq!(rx.recv(), Ok(7)); // seat claimed
    tx.try_send(8).unwrap();
    drop(tx); // closed with residue (8) behind the held seat
    let waiter = std::thread::spawn(move || rx2.recv());
    // Give the waiter time to hit the closed-with-residue window.
    std::thread::sleep(Duration::from_millis(20));
    drop(rx); // hand over the seat
    assert_eq!(waiter.join().unwrap(), Ok(8));
}
