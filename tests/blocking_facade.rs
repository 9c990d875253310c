//! Stress suite for the blocking/async channel surface (`wcq::sync`,
//! DESIGN.md §9), over each queue family through `channel::over`.
//!
//! The claims under test, at 4× core oversubscription (the regime the
//! facade exists for — parked threads give their quantum away, preempted
//! notifiers must still not lose wakeups):
//!
//! * **No lost wakeups**: every element a producer blocks in is delivered
//!   exactly once to a blocking consumer, across full *and* empty edges,
//!   for all three queue families behind the channel.
//! * **Shutdown drains cleanly**: the close that dropping the last
//!   endpoint of one side triggers wakes every parked thread; producers get
//!   their values back, consumers drain the backlog before seeing `Closed`.
//! * **Timeouts are element-conserving**: a timed-out send returns the
//!   value, a timed-out receive leaves the queue intact — the global count
//!   balances exactly.

use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::task::{Context, Wake, Waker};
use std::time::Duration;
use wcq::channel::{self, TryRecvError, TrySendError};
use wcq::sync::{block_on, RecvError, SendError};
use wcq::{ShardedWcq, UnboundedWcq, WcqQueue};

/// 4× the host's cores, at least 4, split evenly between the two roles.
fn oversubscribed_split() -> (usize, usize) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = (4 * cores).max(4);
    (workers / 2, workers - workers / 2)
}

/// Exact-delivery blocking stress shared by the three queue families: all
/// producers `send` tagged values, consumers `recv` until `Closed`, and
/// the result must be the exact multiset in per-producer FIFO order (each
/// family preserves it per consumer).
macro_rules! blocking_stress_test {
    ($name:ident, $mk:expr) => {
        #[test]
        fn $name() {
            let (producers, consumers) = oversubscribed_split();
            let per: u64 = 30_000;
            let (tx, rx) = channel::over($mk(producers + consumers));
            let delivered = AtomicU64::new(0);
            std::thread::scope(|s| {
                for p in 0..producers as u64 {
                    let mut tx = tx.clone();
                    s.spawn(move || {
                        for i in 0..per {
                            tx.send((p << 32) | i)
                                .expect("channel closed under producer");
                        }
                    });
                }
                // The last producer to finish closes the channel, which
                // wakes the consumers once the backlog drains.
                drop(tx);
                for _ in 0..consumers {
                    let mut rx = rx.clone();
                    let delivered = &delivered;
                    s.spawn(move || {
                        // Per-producer FIFO: sequence numbers from any one
                        // producer must arrive in order at this consumer.
                        let mut last = vec![None::<u64>; producers];
                        let mut n = 0u64;
                        loop {
                            match rx.recv() {
                                Ok(v) => {
                                    let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                                    if let Some(prev) = last[p] {
                                        assert!(i > prev, "per-producer FIFO violated");
                                    }
                                    last[p] = Some(i);
                                    n += 1;
                                }
                                Err(RecvError::Closed) => break,
                                Err(RecvError::Timeout) => unreachable!("no deadline"),
                            }
                        }
                        delivered.fetch_add(n, SeqCst);
                    });
                }
            });
            assert_eq!(
                delivered.load(SeqCst),
                producers as u64 * per,
                "lost or duplicated elements (lost wakeup?)"
            );
        }
    };
}

// Tiny capacities relative to the in-flight volume, so both the full edge
// (producers park) and the empty edge (consumers park) cycle constantly.
blocking_stress_test!(
    wcq_no_lost_wakeups_4x_oversubscribed,
    |threads| WcqQueue::<u64>::new(6, threads)
);
blocking_stress_test!(
    sharded_no_lost_wakeups_4x_oversubscribed,
    |threads| ShardedWcq::<u64>::new(2, 5, threads)
);
blocking_stress_test!(
    unbounded_no_lost_wakeups_4x_oversubscribed,
    |threads| UnboundedWcq::<u64>::new(4, threads)
);

/// Spin producers (`try_send`, never parking) must still wake blocking
/// consumers: the notify rides every successful send, not just `send`.
#[test]
fn spin_producer_wakes_blocking_consumer() {
    let (mut tx, rx) = channel::over(WcqQueue::<u64>::new(6, 4));
    let delivered = AtomicU64::new(0);
    const PER: u64 = 20_000;
    std::thread::scope(|s| {
        for _ in 0..2 {
            let mut rx = rx.clone();
            let delivered = &delivered;
            s.spawn(move || {
                let mut n = 0u64;
                loop {
                    match rx.recv() {
                        Ok(_) => n += 1,
                        Err(RecvError::Closed) => break,
                        Err(RecvError::Timeout) => unreachable!(),
                    }
                }
                delivered.fetch_add(n, SeqCst);
            });
        }
        s.spawn(move || {
            for i in 0..PER {
                let mut v = i;
                // The spin API: retry on full, never park.
                while let Err(TrySendError::Full(back)) = tx.try_send(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
            // `tx` drops here: the channel closes.
        });
    });
    assert_eq!(delivered.load(SeqCst), PER);
}

static DROPPED: AtomicU64 = AtomicU64::new(0);

/// A value that counts its own drop, so the values a closed channel still
/// holds can be seen to be freed with it, exactly once.
#[derive(Debug)]
struct Tally(u64);

impl Drop for Tally {
    fn drop(&mut self) {
        DROPPED.fetch_add(1, SeqCst);
    }
}

/// Dropping the last receiver must wake senders parked on a full channel
/// and hand their values back; nothing in flight may be lost.
#[test]
fn shutdown_returns_values_to_blocked_producers() {
    let (tx, rx) = channel::over(WcqQueue::<Tally>::new(2, 3)); // 4 slots
    let accepted = AtomicU64::new(0);
    let returned = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);
    const ATTEMPTS: u64 = 100;
    std::thread::scope(|s| {
        for p in 0..2u64 {
            let mut tx = tx.clone();
            let (accepted, returned, attempts) = (&accepted, &returned, &attempts);
            s.spawn(move || {
                for i in 0..ATTEMPTS {
                    attempts.fetch_add(1, SeqCst);
                    match tx.send(Tally((p << 32) | i)) {
                        Ok(()) => {
                            accepted.fetch_add(1, SeqCst);
                        }
                        Err(SendError::Closed(v)) => {
                            assert_eq!(v.0, (p << 32) | i, "wrong value handed back");
                            returned.fetch_add(1, SeqCst);
                        }
                        Err(SendError::Timeout(_)) => unreachable!("no deadline"),
                    }
                }
            });
        }
        // Wait until the channel is full and both producers are inside a
        // `send` it cannot take, give them time to park, then pull the
        // plug.
        while accepted.load(SeqCst) < 4 || attempts.load(SeqCst) < 6 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
    });
    assert_eq!(
        accepted.load(SeqCst) + returned.load(SeqCst),
        2 * ATTEMPTS,
        "every attempt must either enqueue or come back"
    );
    // Only the handed-back values are gone; the accepted ones are still in
    // the queue, and go with the channel's last endpoint.
    assert_eq!(DROPPED.load(SeqCst), returned.load(SeqCst));
    drop(tx);
    assert_eq!(
        DROPPED.load(SeqCst),
        2 * ATTEMPTS,
        "accepted values retained"
    );
}

/// Consumers parked on an empty channel must wake when the last sender
/// drops and report `Closed` — after draining any backlog that raced in.
#[test]
fn shutdown_wakes_parked_consumers_after_drain() {
    let (mut tx, rx) = channel::over(WcqQueue::<u64>::new(4, 3));
    std::thread::scope(|s| {
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let mut rx = rx.clone();
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match rx.recv() {
                            Ok(v) => got.push(v),
                            Err(RecvError::Closed) => break,
                            Err(RecvError::Timeout) => unreachable!(),
                        }
                    }
                    got
                })
            })
            .collect();
        // Give both consumers time to find the channel empty and park.
        std::thread::sleep(Duration::from_millis(20));
        // Land a backlog *before* the close: it must all be delivered.
        for i in 0..8 {
            tx.try_send(i).unwrap();
        }
        drop(tx);
        let got: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        assert_eq!(got.len(), 8, "backlog must drain before Closed");
    });
}

/// Concurrent timeout churn balances exactly: successful sends equal
/// successful receives plus what is left in the queue, and every timed-out
/// send handed its value back.
#[test]
fn timeouts_are_element_conserving() {
    // 8 slots: both edges hit. This thread keeps `tx` and `rx` alive, so
    // the channel never closes.
    let (tx, mut rx) = channel::over(WcqQueue::<u64>::new(3, 4));
    let enq_ok = AtomicU64::new(0);
    let deq_ok = AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..2u64 {
            let mut tx = tx.clone();
            let enq_ok = &enq_ok;
            s.spawn(move || {
                for i in 0..4_000u64 {
                    match tx.send_timeout((p << 32) | i, Duration::from_micros(50)) {
                        Ok(()) => {
                            enq_ok.fetch_add(1, SeqCst);
                        }
                        Err(SendError::Timeout(v)) => {
                            assert_eq!(v, (p << 32) | i, "timeout must return the value");
                        }
                        Err(SendError::Closed(_)) => unreachable!("never closed"),
                    }
                }
            });
        }
        for _ in 0..2 {
            let mut rx = rx.clone();
            let deq_ok = &deq_ok;
            s.spawn(move || {
                let mut idle = 0;
                while idle < 200 {
                    match rx.recv_timeout(Duration::from_micros(50)) {
                        Ok(_) => {
                            deq_ok.fetch_add(1, SeqCst);
                            idle = 0;
                        }
                        Err(RecvError::Timeout) => idle += 1,
                        Err(RecvError::Closed) => unreachable!("never closed"),
                    }
                }
            });
        }
    });
    let mut leftover = 0;
    while rx.try_recv().is_ok() {
        leftover += 1;
    }
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "still open");
    assert_eq!(
        enq_ok.load(SeqCst),
        deq_ok.load(SeqCst) + leftover,
        "timeout paths leaked or duplicated elements"
    );
    drop(tx);
}

/// The async surface under thread parallelism: every future-driven element
/// is delivered exactly once, with bounded-queue backpressure (pending
/// send futures) in the loop.
#[test]
fn async_exact_delivery_with_backpressure() {
    let (tx, rx) = channel::over(WcqQueue::<u64>::new(3, 4)); // 8 slots
    let delivered = AtomicU64::new(0);
    const PER: u64 = 10_000;
    std::thread::scope(|s| {
        for p in 0..2u64 {
            let mut tx = tx.clone();
            s.spawn(move || {
                block_on(async move {
                    for i in 0..PER {
                        tx.send_async((p << 32) | i).await.expect("not closed");
                    }
                });
            });
        }
        drop(tx); // consumers drain the backlog, then exit on Closed
        for _ in 0..2 {
            let mut rx = rx.clone();
            let delivered = &delivered;
            s.spawn(move || {
                block_on(async move {
                    let mut last = [None::<u64>; 2];
                    loop {
                        match rx.recv_async().await {
                            Ok(v) => {
                                let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                                if let Some(prev) = last[p] {
                                    assert!(i > prev, "per-producer FIFO violated");
                                }
                                last[p] = Some(i);
                                delivered.fetch_add(1, SeqCst);
                            }
                            Err(RecvError::Closed) => break,
                            Err(RecvError::Timeout) => unreachable!(),
                        }
                    }
                });
            });
        }
    });
    assert_eq!(delivered.load(SeqCst), 2 * PER);
}

/// A waker that counts its wakes, for driving futures by hand.
#[derive(Default)]
struct Wakes(AtomicU64);

impl Wake for Wakes {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, SeqCst);
    }
}

/// A dropped pending future must deregister its waker: later traffic may
/// not wake a dead task. (`sync`'s `every_exit_leaves_no_waiter_behind`
/// counts the waiter list itself.)
#[test]
fn dropped_future_leaves_no_stale_waiter() {
    let (mut tx, mut rx) = channel::over(WcqQueue::<u64>::new(4, 2));
    let stale = Arc::new(Wakes::default());
    {
        // Poll once manually so the future registers, then drop it.
        let mut fut = std::pin::pin!(rx.recv_async());
        let waker = Waker::from(Arc::clone(&stale));
        assert!(fut
            .as_mut()
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
    } // dropped here
    tx.send(5).unwrap();
    assert_eq!(stale.0.load(SeqCst), 0, "dropped future must deregister");
    // And the channel still works.
    assert_eq!(rx.recv(), Ok(5));
    // A live pending future, by contrast, is registered: the next send
    // wakes it, and it resolves with that value.
    let live = Arc::new(Wakes::default());
    let waker = Waker::from(Arc::clone(&live));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(rx.recv_async());
    assert!(fut.as_mut().poll(&mut cx).is_pending());
    tx.send(6).unwrap();
    assert_eq!(
        live.0.load(SeqCst),
        1,
        "a pending future is woken by a send"
    );
    assert_eq!(fut.as_mut().poll(&mut cx), std::task::Poll::Ready(Ok(6)));
    assert_eq!(stale.0.load(SeqCst), 0);
}

/// A future that cannot resolve yet parks its task rather than waking
/// itself to poll again — also when the values exist but sit out of reach:
/// ring residue behind a consumer seat another receiver holds, on a
/// closed channel (DESIGN.md §11). The holder's drop is the wake.
#[test]
fn stranded_residue_pends_without_self_wakes() {
    let (mut tx, mut rx) = channel::spsc::<u64>(2, 4);
    let mut rx2 = rx.clone(); // beyond the declared 1 consumer
    tx.try_send(1).unwrap();
    tx.try_send(2).unwrap();
    assert_eq!(rx.recv(), Ok(1)); // `rx` holds the seat; 2 stays behind it
    drop(tx); // closed, with the residue stranded
    let wakes = Arc::new(Wakes::default());
    let waker = Waker::from(Arc::clone(&wakes));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(rx2.recv_async());
    for _ in 0..3 {
        assert!(fut.as_mut().poll(&mut cx).is_pending());
    }
    assert_eq!(wakes.0.load(SeqCst), 0, "a pending poll woke its own task");
    drop(rx); // seat released with the residue still in the ring
    assert_eq!(wakes.0.load(SeqCst), 1, "the holder's drop wakes the task");
    assert_eq!(fut.as_mut().poll(&mut cx), std::task::Poll::Ready(Ok(2)));
}
