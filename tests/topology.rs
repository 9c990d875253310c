//! Channel-level semantics of the topology-declared backends: the
//! `channel::spsc` / `channel::mpsc` constructors must preserve the full
//! `Sender`/`Receiver` contract (FIFO, full/closed edges, blocking and
//! async paths, batch ops) while running on private SPSC rings. The
//! declaration is a hard count: an endpoint past it waits for a seat —
//! missing as `Full`/`Empty`, parking in its blocking forms — and inherits
//! one when a holder drops, without losing or duplicating an element.

use std::time::{Duration, Instant};
use wcq::channel::{self, TryRecvError, TrySendError};
use wcq::sync::{block_on, RecvError, SendError};

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
    // Three senders on three declared lanes: every message rode its
    // sender's private ring.
    assert_eq!(rx.backend(), "mpsc-rings");
    for t in 0..3u64 {
        let lane: Vec<u64> = got
            .iter()
            .copied()
            .filter(|v| v >> 32 == t)
            .map(|v| v & 0xffff_ffff)
            .collect();
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

/// A sender past the declared count reaches no ring: with room to spare,
/// its `try_send` reports `Full` and hands the value back, and its batch
/// takes nothing, until the holder's drop hands it the seat. One ring, so
/// the hand-over keeps strict FIFO: the holder's values, then the heir's.
#[test]
fn clone_past_topology_waits_for_the_producer_seat() {
    let (mut tx, mut rx) = channel::spsc::<u64>(5, 6);
    for i in 0..10 {
        tx.try_send(i).unwrap();
    }
    let mut tx2 = tx.clone();
    assert_eq!(tx2.try_send(100), Err(TrySendError::Full(100)));
    assert_eq!(tx2.send_batch(&mut vec![100]), 0);
    tx.try_send(10).unwrap(); // the holder keeps its ring
    drop(tx); // hands the seat over with 0..=10 in the ring
    tx2.try_send(100).unwrap();
    let got: Vec<u64> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
    assert_eq!(got, (0..=10).chain([100]).collect::<Vec<_>>());
    assert_eq!(rx.backend(), "spsc-ring");

    // On `mpsc` the heir takes the freed seat's ring, behind its residue.
    let (mut a, mut rx) = channel::mpsc::<u64>(4, 2, 4);
    let (mut b, mut c) = (a.clone(), a.clone());
    a.try_send(1).unwrap(); // ring 0
    b.try_send(2).unwrap(); // ring 1
    assert_eq!(c.try_send(3), Err(TrySendError::Full(3)), "both seats held");
    drop(a);
    c.try_send(3).unwrap(); // ring 0, after 1
    let got: Vec<u64> = (0..3).map(|_| rx.recv().unwrap()).collect();
    assert_eq!(got, [1, 3, 2]);
    assert_eq!(rx.backend(), "mpsc-rings");
}

#[test]
fn order_zero_seat_handover_conserves() {
    // One ring slot, the smallest ring there is: the holder's value fills
    // it, the excess sender misses on the seat, and once seated it misses
    // on the full ring until the receiver drains it.
    let (mut tx, mut rx) = channel::spsc::<u64>(0, 1);
    tx.try_send(1).unwrap();
    let mut tx2 = tx.clone();
    assert_eq!(tx2.try_send(2), Err(TrySendError::Full(2)));
    drop(tx);
    assert_eq!(tx2.try_send(2), Err(TrySendError::Full(2)), "ring full");
    assert_eq!(rx.try_recv(), Ok(1));
    tx2.try_send(2).unwrap();
    assert_eq!(rx.try_recv(), Ok(2));
    drop(tx2);
    assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
}

#[test]
fn closed_edges_reach_an_unseated_sender() {
    // Closed wins over the seat test: with every receiver gone, a sender
    // without a seat sees `Closed`, never `Full`, and its blocking send
    // fails at once instead of parking for the seat.
    let (mut tx, rx) = channel::spsc::<u64>(4, 6);
    tx.try_send(1).unwrap();
    let mut tx2 = tx.clone();
    assert_eq!(tx2.try_send(2), Err(TrySendError::Full(2)));
    drop(rx);
    assert!(matches!(tx.try_send(3), Err(TrySendError::Closed(3))));
    assert!(matches!(tx2.try_send(4), Err(TrySendError::Closed(4))));
    assert_eq!(tx2.send(5), Err(SendError::Closed(5)));

    // Refcount close: an unseated sender counts like any other. Its drop
    // leaves the channel open; the holder's, the last, closes it, and the
    // backlog drains, then `Closed`.
    let (mut tx, mut rx) = channel::spsc::<u64>(4, 6);
    tx.try_send(7).unwrap();
    let mut tx2 = tx.clone();
    assert!(tx2.try_send(8).is_err());
    drop(tx2);
    assert_eq!(rx.try_recv(), Ok(7));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "still open");
    tx.try_send(8).unwrap();
    drop(tx);
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

/// The sender-side twin: with room in the ring and the channel open, an
/// excess sender's blocking send parks for the producer seat. Nothing is
/// received meanwhile, so only the `not_full` notify of the holder's drop
/// can hand it the seat before its own deadline.
#[test]
fn parked_excess_sender_wakes_on_seat_release() {
    const DEADLINE: Duration = Duration::from_secs(1);
    let (mut tx, mut rx) = channel::spsc::<u64>(2, 4);
    let mut tx2 = tx.clone();
    tx.try_send(1).unwrap(); // `tx` holds the seat; three slots are free
    let waiter = std::thread::spawn(move || {
        let start = Instant::now();
        (tx2.send_timeout(2, DEADLINE), start.elapsed(), tx2)
    });
    // Give the waiter time to find no seat and park.
    std::thread::sleep(Duration::from_millis(20));
    drop(tx); // seat released, channel still open
    let (sent, waited, tx2) = waiter.join().unwrap();
    assert_eq!(sent, Ok(()), "the parked sender inherited the seat");
    assert!(
        waited < DEADLINE,
        "woken by its own deadline ({waited:?}), not by the seat release"
    );
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.recv(), Ok(2));
    drop(tx2);
    assert_eq!(rx.recv(), Err(RecvError::Closed));
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

/// A seated endpoint reaches its ring by a cached address; these three
/// pin what that cache must follow. First, the consumer seat changing
/// hands: the holder's cursor has moved to the second ring, it drops with
/// both rings holding residue, and a receiver that never operated before
/// inherits the seat. Its first `recv` claims the seat and drains the
/// holder's leftovers, each ring in order.
#[test]
fn inherited_consumer_seat_drains_what_the_holder_left() {
    let (a, b) = (|i: u64| i, |i: u64| 100 + i);
    let (mut tx_a, mut rx) = channel::mpsc::<u64>(3, 2, 4);
    let mut tx_b = tx_a.clone();
    let mut heir = rx.clone();
    for i in 0..4 {
        tx_a.try_send(a(i)).unwrap(); // ring 0
        tx_b.try_send(b(i)).unwrap(); // ring 1
    }
    let taken: Vec<u64> = (0..6).map(|_| rx.recv().unwrap()).collect();
    assert_eq!(taken, [a(0), a(1), a(2), a(3), b(0), b(1)]);
    tx_a.try_send(a(4)).unwrap(); // behind the holder's cursor, on ring 0
    drop(rx); // hands the seat over with b(2), b(3) and a(4) left
    let left: Vec<u64> = (0..3).map(|_| heir.recv().unwrap()).collect();
    assert_eq!(
        left,
        [a(4), b(2), b(3)],
        "the heir sweeps from the first ring"
    );
    assert_eq!(heir.try_recv(), Err(TryRecvError::Empty));
    tx_b.send(b(4)).unwrap();
    assert_eq!(heir.recv(), Ok(b(4)), "and keeps the seat it inherited");
    drop((tx_a, tx_b));
    assert_eq!(heir.recv(), Err(RecvError::Closed));
}

/// Second, the consumer's cursor moving: in each phase the receiver
/// drains half of one ring, the next phase's ring fills to the brim while
/// the rest waits, and the receiver drains the rest. The cursor stays on
/// the draining ring until its inline pop misses; then the sweep moves it
/// to the full ring and the pops that follow hit there. Five moves over
/// three rings, every value delivered once, in the order the sticky
/// cursor implies.
#[test]
fn mpsc_cursor_follows_the_sweep_to_the_full_ring() {
    const CAP: u64 = 8;
    let tag = |p: usize, i: u64| (p as u64) << 32 | i;
    let (tx, mut rx) = channel::mpsc::<u64>(3, 3, 4);
    let mut txs: Vec<_> = (0..3).map(|_| tx.clone()).collect();
    drop(tx);
    // Seats in order, so sender `p` pushes to ring `p`; the receiver's
    // cursor starts on ring 0 and steps to ring 1 and ring 2.
    for (p, tx) in txs.iter_mut().enumerate() {
        tx.try_send(tag(p, 0)).unwrap();
    }
    for p in 0..3 {
        assert_eq!(rx.recv(), Ok(tag(p, 0)));
    }
    let mut sent = [1u64; 3];
    let mut fill = |p: usize| {
        for _ in 0..CAP {
            txs[p].try_send(tag(p, sent[p])).unwrap();
            sent[p] += 1;
        }
        assert!(txs[p].try_send(0).is_err(), "ring {p} is full");
    };
    let phases = [0, 1, 2, 1, 0, 2];
    let mut next = [1u64; 3];
    let want: Vec<u64> = phases
        .iter()
        .flat_map(|&p| {
            next[p] += CAP;
            (next[p] - CAP..next[p]).map(move |i| tag(p, i))
        })
        .collect();
    let mut got = Vec::new();
    fill(phases[0]);
    for then in phases[1..].iter().map(Some).chain([None]) {
        got.extend((0..CAP / 2).map(|_| rx.recv().unwrap()));
        if let Some(&q) = then {
            fill(q); // ring `q` fills while this phase's ring holds half
        }
        got.extend((0..CAP / 2).map(|_| rx.recv().unwrap()));
    }
    assert_eq!(got, want);
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    assert_eq!(rx.backend(), "mpsc-rings");
}

/// Third, a producer seat changing hands: sender A's drop frees ring 0
/// with residue in it, and a later clone's first send claims that seat.
/// Its values land on ring 0, behind A's residue and bounded by ring 0's
/// room, never on ring 1 (full, and B's).
#[test]
fn reclaimed_producer_seat_pushes_to_its_own_ring() {
    let (mut tx_a, mut rx) = channel::mpsc::<u64>(2, 2, 4); // 4 slots a ring
    let mut tx_b = tx_a.clone();
    for i in 0..3 {
        tx_a.try_send(i).unwrap(); // ring 0
    }
    for i in 0..4 {
        tx_b.try_send(100 + i).unwrap(); // ring 1, full
    }
    drop(tx_a); // seat 0 free; ring 0 keeps 0, 1, 2
    let mut tx_c = tx_b.clone();
    tx_c.try_send(200).unwrap(); // claims seat 0: ring 0's last slot
    assert!(
        matches!(tx_c.try_send(201), Err(TrySendError::Full(201))),
        "ring 0 is full now; ring 1 was full already"
    );
    let got: Vec<u64> = (0..8).map(|_| rx.recv().unwrap()).collect();
    assert_eq!(got, [0, 1, 2, 200, 100, 101, 102, 103]);
    tx_c.send(201).unwrap();
    assert_eq!(rx.recv(), Ok(201), "the miss on ring 1 sweeps to ring 0");
    drop(tx_c); // seat 0 free again, ring 0 empty
    let mut tx_d = tx_b.clone();
    for i in 0..4 {
        tx_d.try_send(300 + i).unwrap(); // a whole ring's worth: ring 0
    }
    assert!(matches!(tx_d.try_send(304), Err(TrySendError::Full(304))));
    let got: Vec<u64> = (0..4).map(|_| rx.recv().unwrap()).collect();
    assert_eq!(got, [300, 301, 302, 303]);
    assert_eq!(rx.backend(), "mpsc-rings");
}
