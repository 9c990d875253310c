//! The safe, typed wait-free queue: the Fig. 2 indirection
//! (`crate::ringpair`) over two [`WcqRing`]s, plus the thread-slot table
//! and per-thread handles enforcing the thread-id discipline the rings
//! require.

use crate::hold::Hold;
use crate::ringpair::{RingPair, SlotTable};
use crate::wcq::ring::WcqRing;
use crate::WcqConfig;
use std::marker::PhantomData;
use std::sync::Arc;

/// Wait-free bounded MPMC queue of `T` values.
///
/// * Capacity `2^order` elements, all memory allocated at construction —
///   the paper's headline "bounded memory usage" property.
/// * Every operation completes in a bounded number of steps for **every**
///   thread (wait-freedom), provided the platform has hardware double-width
///   CAS ([`dwcas::HARDWARE_CAS2`]).
///
/// Threads interact through [`WcqHandle`]s obtained from [`Self::register`];
/// a handle pins one of the `max_threads` helping records.
///
/// # Example
/// ```
/// use wcq::WcqQueue;
/// let q: WcqQueue<u64> = WcqQueue::new(4, 2); // 16 slots, 2 threads
/// let mut h = q.register().unwrap();
/// assert!(h.enqueue(7).is_ok());
/// assert_eq!(h.dequeue(), Some(7));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct WcqQueue<T> {
    pair: RingPair<T, WcqRing>,
    slots: SlotTable,
}

impl<T> WcqQueue<T> {
    /// Creates a queue with capacity `2^order` for up to `max_threads`
    /// concurrently registered threads (`max_threads <= 2^order`, the
    /// paper's `k <= n` assumption).
    pub fn new(order: u32, max_threads: usize) -> Self {
        Self::with_config(order, max_threads, &WcqConfig::default())
    }

    /// Creates a queue with explicit tuning knobs (patience, help delay,
    /// catch-up bound, cache remapping) — used by tests and by `figures
    /// ablate`.
    pub fn with_config(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        WcqQueue {
            pair: RingPair::new(order, max_threads, cfg),
            slots: SlotTable::new(max_threads),
        }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.pair.capacity()
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.slots.len()
    }

    /// Registers the calling thread, returning a handle bound to a free
    /// thread slot, or `None` if all `max_threads` slots are taken. The
    /// handle borrows the queue, so it lives inside the borrow's scope
    /// (`std::thread::scope`); see [`Self::register_owned`] for the
    /// `'static` flavour.
    ///
    /// `mem::forget` on a handle is leak-but-safe: its thread slot stays
    /// claimed for good, so `register` returns `None` once every slot is
    /// forgotten or held. The forgotten handle's helping records are quiet
    /// (its operations all returned), and dropping the queue still drops
    /// each remaining element exactly once. A forgotten
    /// [`register_owned`](Self::register_owned) handle also keeps its
    /// `Arc`, so that queue is never dropped and its elements leak.
    pub fn register(&self) -> Option<WcqHandle<T, &Self>> {
        let tid = self.slots.claim(std::slice::from_ref(&self.pair))?;
        Some(WcqHandle { q: self, tid, _item: PhantomData })
    }

    /// Registers the calling thread on an `Arc`-owned queue. The handle is
    /// the same [`WcqHandle`] as [`Self::register`]'s, holding the queue by
    /// `Arc` instead of by reference — so it keeps the queue alive and
    /// moves into `'static` spawned threads; the building block of the
    /// [`crate::channel`] API.
    ///
    /// # Example
    /// ```
    /// use std::sync::Arc;
    /// use wcq::WcqQueue;
    /// let q: Arc<WcqQueue<u64>> = Arc::new(WcqQueue::new(4, 2));
    /// let mut h = q.register_owned().unwrap();
    /// std::thread::spawn(move || {
    ///     h.enqueue(7).unwrap(); // no scope needed: the handle owns the queue
    /// })
    /// .join()
    /// .unwrap();
    /// let mut h = q.register_owned().unwrap();
    /// assert_eq!(h.dequeue(), Some(7));
    /// ```
    pub fn register_owned(self: &Arc<Self>) -> Option<WcqHandle<T, Arc<Self>>> {
        let tid = self.slots.claim(std::slice::from_ref(&self.pair))?;
        Some(WcqHandle { q: Arc::clone(self), tid, _item: PhantomData })
    }

    /// `true` while `tid`'s records in both rings are quiet (no pending
    /// request, no active helper) — what registration asserts on a freshly
    /// acquired slot.
    pub fn records_are_quiet(&self, tid: usize) -> bool {
        self.pair.is_quiet(tid)
    }

    /// `true` while no elements are observable (threshold fast check on
    /// `aq`). Like any concurrent size probe this is advisory only.
    pub fn is_empty_hint(&self) -> bool {
        self.pair.is_empty_hint()
    }
}

/// A per-thread handle to a [`WcqQueue`], holding it as `H`: `&WcqQueue`
/// from [`WcqQueue::register`], `Arc<WcqQueue>` from
/// [`WcqQueue::register_owned`] (see [`Hold`]). Both are the same struct
/// and the same code; only the lifetime story differs.
///
/// Handles are `Send` but deliberately not `Clone`, and their methods take
/// `&mut self`: exactly one thread can drive a given thread record at a
/// time, which is the precondition of the helping protocol. Dropping the
/// handle quiesces its record and frees its slot for another thread.
///
/// A handle is spin-only, as the paper's operations are: the wait-free
/// [`enqueue`](Self::enqueue)/[`dequeue`](Self::dequeue) pair returns on
/// full and empty, and so does the batch API. Parking on those edges is
/// the [`crate::channel`] endpoints' job.
///
/// # Example
/// ```
/// use wcq::WcqQueue;
/// let q: WcqQueue<&str> = WcqQueue::new(4, 2);
/// let mut h = q.register().unwrap();
/// h.enqueue("a").unwrap();
/// h.enqueue("b").unwrap();
/// assert_eq!(h.dequeue(), Some("a"));
/// assert_eq!(h.dequeue(), Some("b"));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct WcqHandle<T, H: Hold<WcqQueue<T>>> {
    q: H,
    tid: usize,
    _item: PhantomData<fn() -> T>,
}

// Exclusivity contract behind every pair operation below: `tid` came from
// the slot table and stays claimed until this handle drops, and the handle
// is neither `Clone` nor usable through `&self` — so it is the only driver
// of `tid` on `q`, which is the pair's tid-exclusivity contract.
impl<T, H: Hold<WcqQueue<T>>> WcqHandle<T, H> {
    /// Wait-free enqueue. `Err(v)` returns the value when the queue is full.
    #[inline]
    pub fn enqueue(&mut self, v: T) -> Result<(), T> {
        // SAFETY: exclusivity contract above.
        unsafe { self.q.pair.enqueue(self.tid, v) }
    }

    /// Wait-free dequeue; `None` when empty.
    #[inline]
    pub fn dequeue(&mut self) -> Option<T> {
        // SAFETY: exclusivity contract above.
        unsafe { self.q.pair.dequeue(self.tid) }
    }

    /// Batch enqueue: drains as many items as fit from the **front** of
    /// `items` (preserving order) and returns how many were enqueued; items
    /// left in the vector did not fit (queue full).
    ///
    /// Free-slot claims and `aq` publications are amortized over runs of up
    /// to 64 contiguous tickets — one F&A per run instead of one per item —
    /// degrading to per-item operations whenever the ring state does not
    /// allow a contiguous run.
    ///
    /// # Example
    /// ```
    /// use wcq::WcqQueue;
    /// let q: WcqQueue<u64> = WcqQueue::new(4, 1); // 16 slots
    /// let mut h = q.register().unwrap();
    /// let mut items: Vec<u64> = (0..20).collect();
    /// assert_eq!(h.enqueue_batch(&mut items), 16);
    /// assert_eq!(items, vec![16, 17, 18, 19]); // rejects stay behind
    /// let mut out = Vec::new();
    /// assert_eq!(h.dequeue_batch(&mut out, 64), 16);
    /// assert_eq!(out, (0..16).collect::<Vec<_>>());
    /// ```
    pub fn enqueue_batch(&mut self, items: &mut Vec<T>) -> usize {
        // SAFETY: exclusivity contract above.
        unsafe { self.q.pair.enqueue_batch(self.tid, items) }
    }

    /// Batch dequeue: appends up to `max` elements to `out` in queue order
    /// and returns how many were appended (0 means observed empty).
    ///
    /// Like [`Self::enqueue_batch`], ticket claims are amortized over
    /// contiguous runs where the ring state allows.
    pub fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // SAFETY: exclusivity contract above.
        unsafe { self.q.pair.dequeue_batch(self.tid, out, max) }
    }

    /// The thread slot this handle occupies (diagnostics).
    pub fn tid(&self) -> usize {
        self.tid
    }
}

impl<T, H: Hold<WcqQueue<T>>> Drop for WcqHandle<T, H> {
    fn drop(&mut self) {
        self.q.slots.release(self.tid, std::slice::from_ref(&self.q.pair));
    }
}

// ORDERING: test-only drop counter; ordering irrelevant
#[cfg(test)]
mod tests {
    use super::*;
    use crate::ringpair::contract;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    #[test]
    fn register_exhaustion_and_reuse() {
        let q: WcqQueue<u32> = WcqQueue::new(4, 2);
        let h1 = q.register().unwrap();
        let h2 = q.register().unwrap();
        assert!(q.register().is_none());
        assert_ne!(h1.tid(), h2.tid());
        drop(h1);
        let h3 = q.register().unwrap();
        assert_eq!(h3.tid(), 0, "slot 0 freed and reused");
        drop(h2);
        drop(h3);
    }

    /// An element that counts its drops in `drops[id]`.
    struct Counted {
        id: usize,
        drops: Arc<[AtomicUsize]>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, SeqCst);
        }
    }

    /// `mem::forget` on a handle keeps its thread slot for good:
    /// `register` misses once every slot is forgotten or held, and only a
    /// held handle's drop frees one. Dropping the queue still drops every
    /// element left in it exactly once.
    #[test]
    fn forgotten_handles_keep_their_slots() {
        let drops: Arc<[AtomicUsize]> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let counted = |id| Counted {
            id,
            drops: Arc::clone(&drops),
        };
        let q: WcqQueue<Counted> = WcqQueue::new(3, 2);
        let mut h = q.register().unwrap();
        for id in 0..3 {
            assert!(h.enqueue(counted(id)).is_ok());
        }
        let forgotten = h.tid();
        std::mem::forget(h);
        let mut held = q.register().expect("one slot is still free");
        assert!(q.register().is_none(), "one slot forgotten, one held");
        for id in 3..6 {
            assert!(held.enqueue(counted(id)).is_ok());
        }
        assert_eq!(held.dequeue().map(|v| v.id), Some(0));
        drop(held);
        let h = q.register().expect("the held slot is free again");
        assert_ne!(h.tid(), forgotten);
        std::mem::forget(h);
        assert!(q.register().is_none(), "every slot forgotten");
        drop(q);
        let counts: Vec<usize> = drops.iter().map(|c| c.load(SeqCst)).collect();
        assert_eq!(counts, [1; 6], "each element dropped exactly once");
    }

    // The `RingPair` contract (crate::ringpair::contract) over wCQ rings.

    #[test]
    fn fifo_single_thread() {
        contract::fifo_full_and_empty::<WcqRing>(5);
    }

    #[test]
    fn wrap_many_cycles() {
        contract::wrap_many_cycles::<WcqRing>();
    }

    #[test]
    fn drops_remaining() {
        contract::drops_remaining::<WcqRing>(6);
    }

    #[test]
    fn batch_roundtrip_fifo_and_full() {
        contract::batch_roundtrip_fifo_and_full::<WcqRing>();
    }

    #[test]
    fn batch_interleaves_with_singletons() {
        contract::batch_interleaves_with_singletons::<WcqRing>();
    }

    #[test]
    fn batch_drops_run_destructors() {
        contract::batch_drops_run_destructors::<WcqRing>();
    }

    #[test]
    fn empty_hint_tracks_state() {
        contract::empty_hint_tracks_state::<WcqRing>();
    }
}
