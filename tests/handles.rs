//! The per-thread handle contract, checked once and instantiated for both
//! ways of holding the queue (`&Q` from `register()`, `Arc<Q>` from
//! `register_owned()`) × the three queue families. The handles are one
//! struct per family generic over the holder (`wcq::Hold`), so one body
//! must pass for all six — and the `Arc` flavour must additionally move
//! into `std::thread::spawn`. Handles are spin-only; the timed half of the
//! contract runs on a channel over the same queue constructor.

use std::sync::Arc;
use std::time::Duration;
use wcq::channel::{self, Receiver, Sender};
use wcq::sync::{RecvError, SendError};
use wcq::unbounded::Unbounded;
use wcq::{
    Hold, IndexRing, ShardedHandle, ShardedWcq, UnboundedHandle, UnboundedWcq, WcqHandle,
    WcqQueue,
};

/// The surface the three handle types share by name but not by trait: the
/// singleton pair (the unbounded `enqueue`, which cannot fail, lifted to a
/// `Result`), the batch pair and the slot id.
trait Handle {
    fn try_enqueue(&mut self, v: u64) -> Result<(), u64>;
    fn try_dequeue(&mut self) -> Option<u64>;
    fn enqueue_batch(&mut self, items: &mut Vec<u64>) -> usize;
    fn dequeue_batch(&mut self, out: &mut Vec<u64>, max: usize) -> usize;
    fn tid(&self) -> usize;
}

macro_rules! forward_handle {
    () => {
        fn try_dequeue(&mut self) -> Option<u64> {
            Self::dequeue(self)
        }
        fn enqueue_batch(&mut self, items: &mut Vec<u64>) -> usize {
            Self::enqueue_batch(self, items)
        }
        fn dequeue_batch(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
            Self::dequeue_batch(self, out, max)
        }
        fn tid(&self) -> usize {
            Self::tid(self)
        }
    };
}

impl<H: Hold<WcqQueue<u64>>> Handle for WcqHandle<u64, H> {
    fn try_enqueue(&mut self, v: u64) -> Result<(), u64> {
        self.enqueue(v)
    }
    forward_handle!();
}
impl<H: Hold<ShardedWcq<u64>>> Handle for ShardedHandle<u64, H> {
    fn try_enqueue(&mut self, v: u64) -> Result<(), u64> {
        self.enqueue(v)
    }
    forward_handle!();
}
impl<R: IndexRing, H: Hold<Unbounded<u64, R>>> Handle for UnboundedHandle<u64, R, H> {
    fn try_enqueue(&mut self, v: u64) -> Result<(), u64> {
        self.enqueue(v);
        Ok(())
    }
    forward_handle!();
}

const SLOTS: usize = 2;
const SHORT: Duration = Duration::from_millis(2);

/// The contract. `capacity` is how many elements one handle can enqueue
/// before the queue reports full (`None`: never — the unbounded family);
/// `register` is the flavour under test; the queue has [`SLOTS`] thread
/// slots and starts (and is left) empty.
fn handle_contract<H: Handle>(capacity: Option<usize>, register: impl Fn() -> Option<H>) {
    let mut h = register().expect("a free slot");
    let n = capacity.unwrap_or(40) as u64; // unbounded: cross several rings

    // FIFO, and the empty edge on both sides of it.
    assert_eq!(h.try_dequeue(), None, "starts empty");
    for i in 0..n {
        assert_eq!(h.try_enqueue(i), Ok(()));
    }
    // The full edge hands the value back.
    if capacity.is_some() {
        assert_eq!(h.try_enqueue(99), Err(99), "full at capacity");
    } else {
        assert_eq!(h.try_enqueue(n), Ok(()), "never full");
        assert_eq!(h.try_dequeue(), Some(0));
        assert_eq!(h.try_enqueue(n + 1), Ok(()));
    }
    let base = if capacity.is_some() { 0 } else { 1 };
    for i in base..base + n {
        assert_eq!(h.try_dequeue(), Some(i), "FIFO");
    }
    if capacity.is_none() {
        assert_eq!(h.try_dequeue(), Some(n + 1));
    }
    assert_eq!(h.try_dequeue(), None, "drained");

    // Batch round trip: accepted items leave the front of the vector,
    // rejects stay behind in order.
    let mut items: Vec<u64> = (0..n + 3).collect();
    let sent = h.enqueue_batch(&mut items);
    match capacity {
        Some(c) => {
            assert_eq!(sent, c, "bounded at capacity");
            assert_eq!(items, vec![n, n + 1, n + 2], "rejects stay, in order");
        }
        None => {
            assert_eq!(sent as u64, n + 3);
            assert!(items.is_empty(), "the unbounded batch takes everything");
        }
    }
    let mut out = Vec::new();
    assert_eq!(h.dequeue_batch(&mut out, 5), 5, "max is honoured");
    assert_eq!(h.dequeue_batch(&mut out, usize::MAX), sent - 5);
    assert_eq!(out, (0..sent as u64).collect::<Vec<_>>(), "batch FIFO");
    assert_eq!(h.dequeue_batch(&mut out, 1), 0, "observed empty");

    // Drop releases the slot — and quiesces it: registration `debug_assert`s
    // that the records it inherits are quiet (these tests build in debug).
    let other = register().expect("second slot");
    assert!(register().is_none(), "all {SLOTS} slots pinned");
    let tid = h.tid();
    assert_ne!(tid, other.tid(), "slots are exclusive");
    drop(h);
    let again = register().expect("the dropped handle's slot is free again");
    assert_eq!(again.tid(), tid, "and it is that slot");
    assert!(register().is_none());
}

/// The timed half of the contract, on a channel over the family's queue
/// (one thread slot per endpoint): the full edge times out and hands the
/// value back (never, on the unbounded family), timed receives keep FIFO,
/// and the empty edge times out.
fn timed_contract(capacity: Option<usize>, (mut tx, mut rx): (Sender<u64>, Receiver<u64>)) {
    let n = capacity.unwrap_or(40) as u64;
    for i in 0..n {
        assert_eq!(tx.send_timeout(i, SHORT), Ok(()));
    }
    let end = if capacity.is_some() {
        assert_eq!(tx.send_timeout(99, SHORT), Err(SendError::Timeout(99)));
        n
    } else {
        assert_eq!(tx.send_timeout(n, SHORT), Ok(()), "never full");
        n + 1
    };
    for i in 0..end {
        assert_eq!(rx.recv_timeout(SHORT), Ok(i), "FIFO");
    }
    assert_eq!(rx.recv_timeout(SHORT), Err(RecvError::Timeout));
}

/// What only the `Arc` flavour can do: leave the scope that created it.
fn moves_into_spawned_thread<H: Handle + Send + 'static>(register: impl Fn() -> Option<H>) {
    let mut h = register().expect("a free slot");
    std::thread::spawn(move || {
        assert_eq!(h.try_enqueue(7), Ok(()));
        // `h` drops on the spawned thread: slot released from there.
    })
    .join()
    .unwrap();
    let mut h = register().expect("a free slot");
    assert_eq!(h.try_dequeue(), Some(7));
    assert_eq!(h.try_dequeue(), None);
}

#[test]
fn wcq_borrowed() {
    let q: WcqQueue<u64> = WcqQueue::new(3, SLOTS);
    handle_contract(Some(8), || q.register());
    assert!(q.records_are_quiet(0) && q.records_are_quiet(1));
}

#[test]
fn wcq_shared() {
    let q: Arc<WcqQueue<u64>> = Arc::new(WcqQueue::new(3, SLOTS));
    handle_contract(Some(8), || q.register_owned());
    assert!(q.records_are_quiet(0) && q.records_are_quiet(1));
    moves_into_spawned_thread(|| q.register_owned());
    assert_eq!(Arc::strong_count(&q), 1, "dropped handles let go of the queue");
    timed_contract(Some(8), channel::over(WcqQueue::new(3, SLOTS)));
}

#[test]
fn sharded_borrowed() {
    // Slot 0's affinity shard holds 2^3; values never spill to the other.
    let q: ShardedWcq<u64> = ShardedWcq::new(2, 3, SLOTS);
    handle_contract(Some(8), || q.register());
}

#[test]
fn sharded_shared() {
    let q: Arc<ShardedWcq<u64>> = Arc::new(ShardedWcq::new(2, 3, SLOTS));
    handle_contract(Some(8), || q.register_owned());
    moves_into_spawned_thread(|| q.register_owned());
    assert_eq!(Arc::strong_count(&q), 1);
    // The sender registers first, so slot 0's affinity shard takes its 2^3.
    timed_contract(Some(8), channel::over(ShardedWcq::new(2, 3, SLOTS)));
}

#[test]
fn unbounded_borrowed() {
    let q: UnboundedWcq<u64> = UnboundedWcq::new(3, SLOTS);
    handle_contract(None, || q.register());
}

#[test]
fn unbounded_shared() {
    let q: Arc<UnboundedWcq<u64>> = Arc::new(UnboundedWcq::new(3, SLOTS));
    handle_contract(None, || q.register_owned());
    moves_into_spawned_thread(|| q.register_owned());
    assert_eq!(Arc::strong_count(&q), 1);
    timed_contract(None, channel::over(UnboundedWcq::new(3, SLOTS)));
}
