//! The safe, typed wait-free queue: two [`WcqRing`]s plus a data array
//! (the paper's Fig. 2 indirection), with per-thread handles enforcing the
//! thread-id discipline the rings require.

use crate::hold::Hold;
use crate::sync::{SyncQueue, SyncState};
use crate::wcq::ring::WcqRing;
use crate::WcqConfig;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use crate::sim::{AtomicBool, DataCell};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::Arc;

/// Scans `slots` for a free entry and claims it, or returns `None` when all
/// are taken. Occupied slots are skipped with a plain load and the CAS uses
/// a `Relaxed` failure ordering, so registration churn does not hammer
/// read-modify-writes on every occupied slot — only the single winning CAS
/// pays for ordering.
///
/// The winning CAS is `Acquire`: it synchronizes with the `Release` store
/// in [`WcqQueue::release_slot`], so the new owner observes the previous
/// owner's quiesced record state (the downgrade from `SeqCst` is proven by
/// the `dst_slot_handoff_*` weak-DST models).
pub(crate) fn acquire_slot(slots: &[AtomicBool]) -> Option<usize> {
    for (tid, slot) in slots.iter().enumerate() {
        // ORDERING: registration-scan skip probe; the winning CAS re-checks
        // with Acquire — cover: dst model 7
        if slot.load(Relaxed) {
            continue; // occupied: don't even attempt the CAS
        }
        // ORDERING: slot claim: Acquire on success synchronizes with
        // release_slot's Release store, publishing the quiesced record
        // state (downgraded from SeqCst) — cover: dst model 7 +
        // slot_handoff litmus
        if slot.compare_exchange(false, true, Acquire, Relaxed).is_ok() {
            return Some(tid);
        }
    }
    None
}

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
    aq: WcqRing,
    fq: WcqRing,
    data: Box<[DataCell<MaybeUninit<T>>]>,
    slots: Box<[AtomicBool]>,
    /// Parking state for the blocking/async facade ([`crate::sync`]).
    /// Pure spin users pay one `SeqCst` load per op to check for sleepers.
    sync: SyncState,
}

// SAFETY: identical argument to `ScqQueue` — ring indices are exclusive slot
// tokens, handed between threads through SeqCst ring operations.
unsafe impl<T: Send> Send for WcqQueue<T> {}
// SAFETY: same argument — slot tokens stay exclusive under sharing.
unsafe impl<T: Send> Sync for WcqQueue<T> {}

impl<T> WcqQueue<T> {
    /// Creates a queue with capacity `2^order` for up to `max_threads`
    /// concurrently registered threads (`max_threads <= 2^order`, the
    /// paper's `k <= n` assumption).
    pub fn new(order: u32, max_threads: usize) -> Self {
        Self::with_config(order, max_threads, &WcqConfig::default())
    }

    /// Creates a queue with explicit tuning knobs (patience, help delay,
    /// catch-up bound, cache remapping) — used by tests and the ablation
    /// benches.
    pub fn with_config(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        let n = 1usize << order;
        WcqQueue {
            aq: WcqRing::new_empty(order, max_threads, cfg),
            fq: WcqRing::new_full(order, max_threads, cfg),
            data: (0..n)
                .map(|_| DataCell::new(MaybeUninit::uninit()))
                .collect(),
            slots: (0..max_threads).map(|_| AtomicBool::new(false)).collect(),
            sync: SyncState::new(),
        }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.data.len()
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
    pub fn register(&self) -> Option<WcqHandle<T, &Self>> {
        let tid = self.claim_slot()?;
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
        let tid = self.claim_slot()?;
        Some(WcqHandle { q: Arc::clone(self), tid, _item: PhantomData })
    }

    /// Claims a free thread slot, asserting (debug builds) that the record
    /// the new registrant inherits is quiet — the invariant the
    /// quiesce-on-release protocol ([`Self::release_slot`]) establishes.
    fn claim_slot(&self) -> Option<usize> {
        let tid = acquire_slot(&self.slots)?;
        debug_assert!(
            self.records_are_quiet(tid),
            "acquired thread slot {tid} while a helper is still driving its record"
        );
        self.note_registration(tid);
        Some(tid)
    }

    /// Bumps `tid`'s owner epoch in both rings (see
    /// [`WcqRing::note_registration`]); called by every path that hands
    /// the tid to a new owner.
    pub fn note_registration(&self, tid: usize) {
        self.aq.note_registration(tid);
        self.fq.note_registration(tid);
    }

    /// Waits for any helper still driving `tid`'s records (in either ring)
    /// to finish — see [`WcqRing::quiesce_record`]. Exposed to the layers
    /// that drive the raw thread-id API under their own slot discipline
    /// (the sharded front-end, the unbounded list-of-rings), which must
    /// quiesce before recycling a tid just like the handles here do.
    pub fn quiesce_records(&self, tid: usize) {
        self.aq.quiesce_record(tid);
        self.fq.quiesce_record(tid);
    }

    /// `true` while `tid`'s records in both rings are quiet (no pending
    /// request, no active helper) — what registration paths assert on a
    /// freshly acquired slot.
    pub fn records_are_quiet(&self, tid: usize) -> bool {
        self.aq.record_is_quiet(tid) && self.fq.record_is_quiet(tid)
    }

    /// Releases thread slot `tid`, quiescing its helping records first so
    /// the next registrant can never inherit a record a helper is still
    /// driving (the handle `Drop`s funnel through here).
    fn release_slot(&self, tid: usize) {
        self.quiesce_records(tid);
        // ORDERING: slot release after quiesce: publishes record state to
        // the next claimant's Acquire CAS (downgraded from SeqCst) in
        // [`acquire_slot`] — the slot flag needs no place in the SeqCst
        // total order, only this one handoff edge; cover: dst model 7 +
        // slot_handoff litmus
        self.slots[tid].store(false, Release);
    }

    /// `true` while no elements are observable (threshold fast check on
    /// `aq`). Like any concurrent size probe this is advisory only.
    pub fn is_empty_hint(&self) -> bool {
        self.aq.threshold() < 0
    }

    /// Closes the blocking/async facade: parked waiters wake, blocking
    /// enqueues fail with [`crate::sync::SendError::Closed`], blocking
    /// dequeues drain the backlog and then fail with
    /// [`crate::sync::RecvError::Closed`]. The spin API is unaffected.
    pub fn close(&self) {
        self.sync.close();
    }

    /// `true` once [`Self::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.sync.is_closed()
    }

    /// The queue's parking state (see [`crate::sync`]).
    pub fn sync_state(&self) -> &SyncState {
        &self.sync
    }

    /// Raw enqueue under an explicit thread id, bypassing the handle layer.
    ///
    /// Raw operations do **not** ping this queue's own parking state — the
    /// notify lives at the handle ([`WcqHandle::enqueue`]). Every other raw
    /// caller (the sharded front-end, the unbounded list-of-rings) runs its
    /// own facade-level [`SyncState`] and notifies that instead, so the
    /// inner queue's state can never have waiters.
    ///
    /// # Safety
    /// `tid < max_threads`, and no other thread may use the same `tid` on
    /// this queue concurrently (the helping records and data slots assume an
    /// exclusive driver per id). Used by the unbounded list-of-rings, whose
    /// own handle layer provides the exclusivity across every ring.
    pub unsafe fn enqueue_raw(&self, tid: usize, v: T) -> Result<(), T> {
        let Some(i) = self.fq.dequeue(tid) else {
            return Err(v); // no free slot: full
        };
        // SAFETY: `i` came from `fq`, granting exclusive access to `data[i]`
        // until it is published through `aq`.
        self.data[i as usize].with_mut(|p| unsafe { (*p).write(v) });
        self.aq.enqueue(tid, i);
        Ok(())
    }

    /// Raw dequeue under an explicit thread id.
    ///
    /// # Safety
    /// Same contract as [`Self::enqueue_raw`].
    pub unsafe fn dequeue_raw(&self, tid: usize) -> Option<T> {
        let i = self.aq.dequeue(tid)?;
        // SAFETY: `i` came from `aq`; the matching enqueuer initialized the
        // slot before publishing it. `with_mut`: the read un-initializes.
        let v = self.data[i as usize].with_mut(|p| unsafe { (*p).assume_init_read() });
        self.fq.enqueue(tid, i);
        Some(v)
    }

    /// Raw batch enqueue under an explicit thread id; see
    /// [`WcqHandle::enqueue_batch`] for semantics and [`Self::enqueue_raw`]
    /// for why raw operations skip the parking-state ping.
    ///
    /// # Safety
    /// Same contract as [`Self::enqueue_raw`].
    pub unsafe fn enqueue_batch_raw(&self, tid: usize, items: &mut Vec<T>) -> usize {
        // Consume by iterator, not repeated front-drains: keeps the whole
        // batch O(len) while still leaving rejects behind in order.
        let mut it = std::mem::take(items).into_iter();
        let mut total = 0;
        let mut idxs = [0u64; BATCH_CHUNK];
        // BOUND: finite-iter — batch enqueue: the moved-in iterator shrinks
        // every pass; a pass that claims zero free slots exits
        while it.len() > 0 {
            // Claim a run of free slots from `fq` with one F&A...
            let want = it.len().min(BATCH_CHUNK);
            let got = self.fq.dequeue_batch(tid, &mut idxs[..want]);
            if got == 0 {
                // The backlog probe is advisory; let the singleton path give
                // the linearizable full/not-full answer before giving up.
                let Some(i) = self.fq.dequeue(tid) else {
                    break; // full
                };
                let v = it.next().expect("len checked above");
                // SAFETY: `i` came from `fq` (exclusive slot token).
                self.data[i as usize].with_mut(|p| unsafe { (*p).write(v) });
                self.aq.enqueue(tid, i);
                total += 1;
                continue;
            }
            // ...fill them in item order, then publish the whole run to `aq`
            // under a single tail F&A.
            for &i in &idxs[..got] {
                let v = it.next().expect("claimed at most it.len() slots");
                // SAFETY: as above.
                self.data[i as usize].with_mut(|p| unsafe { (*p).write(v) });
            }
            self.aq.enqueue_batch(tid, &idxs[..got]);
            total += got;
        }
        *items = it.collect();
        total
    }

    /// Raw batch dequeue under an explicit thread id; see
    /// [`WcqHandle::dequeue_batch`] for semantics.
    ///
    /// # Safety
    /// Same contract as [`Self::enqueue_raw`].
    pub unsafe fn dequeue_batch_raw(&self, tid: usize, out: &mut Vec<T>, max: usize) -> usize {
        let mut total = 0;
        let mut idxs = [0u64; BATCH_CHUNK];
        // BOUND: finite-iter — bounded by `max`; exits when aq yields no
        // indices
        while total < max {
            let want = (max - total).min(BATCH_CHUNK);
            let got = self.aq.dequeue_batch(tid, &mut idxs[..want]);
            if got == 0 {
                // Advisory miss: confirm emptiness via the singleton path.
                // SAFETY: the caller's contract, passed through unchanged.
                let Some(v) = (unsafe { self.dequeue_raw(tid) }) else {
                    break; // empty
                };
                out.push(v);
                total += 1;
                continue;
            }
            for &i in &idxs[..got] {
                // SAFETY: `i` came from `aq`; the enqueuer initialized it.
                out.push(self.data[i as usize].with_mut(|p| unsafe { (*p).assume_init_read() }));
            }
            // Recycle the whole run of slots to `fq` under one tail F&A.
            self.fq.enqueue_batch(tid, &idxs[..got]);
            total += got;
        }
        total
    }
}

/// Items per inner ring-batch claim; bounds the stack buffer and the number
/// of tickets a single F&A can burn on a contended boundary.
const BATCH_CHUNK: usize = 64;

impl<T> Drop for WcqQueue<T> {
    fn drop(&mut self) {
        // Drain so remaining elements are dropped.
        // SAFETY: tid 0 exists (`max_threads >= 1`) and `&mut self` rules
        // out any concurrent driver — which also means no waiters to notify.
        // BOUND: capacity — drop drains at most n remaining elements via
        // dequeue_raw (no waiters to notify under &mut self)
        while unsafe { self.dequeue_raw(0) }.is_some() {}
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
/// Besides the wait-free [`enqueue`](Self::enqueue)/[`dequeue`](Self::dequeue)
/// pair and the batch API, handles implement [`crate::sync::SyncQueue`],
/// which adds blocking, timeout, and async variants that park on the
/// empty/full edge instead of spinning.
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

// Exclusivity contract behind every raw call below: `tid` came from
// `claim_slot` and stays claimed until this handle drops, and the handle is
// neither `Clone` nor usable through `&self` — so it is the only driver of
// `tid` on `q`, which is what the raw thread-id API requires.
impl<T, H: Hold<WcqQueue<T>>> WcqHandle<T, H> {
    /// Wait-free enqueue. `Err(v)` returns the value when the queue is full.
    #[inline]
    pub fn enqueue(&mut self, v: T) -> Result<(), T> {
        // SAFETY: exclusivity contract above.
        let r = unsafe { self.q.enqueue_raw(self.tid, v) };
        if r.is_ok() {
            // The element is visible; wake any parked dequeuer (one load
            // when nobody sleeps).
            self.q.sync.notify_not_empty();
        }
        r
    }

    /// Wait-free dequeue; `None` when empty.
    #[inline]
    pub fn dequeue(&mut self) -> Option<T> {
        // SAFETY: exclusivity contract above.
        let v = unsafe { self.q.dequeue_raw(self.tid) }?;
        // The slot is recycled; wake any parked enqueuer.
        self.q.sync.notify_not_full();
        Some(v)
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
        let n = unsafe { self.q.enqueue_batch_raw(self.tid, items) };
        if n > 0 {
            self.q.sync.notify_not_empty(); // whole batch visible: wake once
        }
        n
    }

    /// Batch dequeue: appends up to `max` elements to `out` in queue order
    /// and returns how many were appended (0 means observed empty).
    ///
    /// Like [`Self::enqueue_batch`], ticket claims are amortized over
    /// contiguous runs where the ring state allows.
    pub fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // SAFETY: exclusivity contract above.
        let n = unsafe { self.q.dequeue_batch_raw(self.tid, out, max) };
        if n > 0 {
            self.q.sync.notify_not_full(); // slots recycled: wake once
        }
        n
    }

    /// The thread slot this handle occupies (diagnostics).
    pub fn tid(&self) -> usize {
        self.tid
    }
}

impl<T, H: Hold<WcqQueue<T>>> Drop for WcqHandle<T, H> {
    fn drop(&mut self) {
        // Quiesce-then-release: a bare `store(false)` here would let a new
        // registrant publish a fresh request on a record a helper is still
        // replaying (regression: tests/handle_churn.rs).
        self.q.release_slot(self.tid);
    }
}

/// Blocking/async facade: parks on the empty/full edge only; the wait-free
/// spin operations above are the fast path (see [`crate::sync`]).
impl<T, H: Hold<WcqQueue<T>>> SyncQueue for WcqHandle<T, H> {
    type Item = T;

    fn sync_state(&self) -> &SyncState {
        &self.q.sync
    }

    fn try_enqueue(&mut self, v: T) -> Result<(), T> {
        self.enqueue(v)
    }

    fn try_dequeue(&mut self) -> Option<T> {
        self.dequeue()
    }
}

// ORDERING: test-only drop counter; ordering irrelevant
#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn fifo_single_thread() {
        let q: WcqQueue<u64> = WcqQueue::new(5, 1);
        let mut h = q.register().unwrap();
        for i in 0..32 {
            assert!(h.enqueue(i).is_ok());
        }
        assert_eq!(h.enqueue(100), Err(100), "full at capacity");
        for i in 0..32 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn wrap_many_cycles() {
        let q: WcqQueue<u64> = WcqQueue::new(2, 1);
        let mut h = q.register().unwrap();
        for round in 0..2000u64 {
            assert!(h.enqueue(round).is_ok());
            assert!(h.enqueue(round + 1).is_ok());
            assert_eq!(h.dequeue(), Some(round));
            assert_eq!(h.dequeue(), Some(round + 1));
            assert_eq!(h.dequeue(), None);
        }
    }

    #[test]
    fn drops_remaining() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, SeqCst);
            }
        }
        {
            let q: WcqQueue<D> = WcqQueue::new(3, 1);
            let mut h = q.register().unwrap();
            for _ in 0..6 {
                assert!(h.enqueue(D).is_ok());
            }
            drop(h.dequeue()); // 1
        }
        assert_eq!(DROPS.load(SeqCst), 6);
    }

    #[test]
    fn batch_roundtrip_fifo_and_full() {
        let q: WcqQueue<u64> = WcqQueue::new(3, 1); // 8 slots
        let mut h = q.register().unwrap();
        let mut items: Vec<u64> = (0..10).collect();
        assert_eq!(h.enqueue_batch(&mut items), 8, "bounded at capacity");
        assert_eq!(items, vec![8, 9], "rejects stay in the vector, in order");
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 5), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(h.dequeue_batch(&mut out, 100), 3);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(h.dequeue_batch(&mut out, 1), 0, "empty");
    }

    #[test]
    fn batch_interleaves_with_singletons() {
        let q: WcqQueue<u64> = WcqQueue::new(4, 1);
        let mut h = q.register().unwrap();
        let mut next = 0u64;
        let mut expect = std::collections::VecDeque::new();
        for round in 0..200 {
            if round % 3 == 0 {
                let mut batch: Vec<u64> = (next..next + 5).collect();
                let n = h.enqueue_batch(&mut batch) as u64;
                for v in next..next + n {
                    expect.push_back(v);
                }
                next += n;
            } else {
                if h.enqueue(next).is_ok() {
                    expect.push_back(next);
                    next += 1;
                }
            }
            if round % 2 == 0 {
                let mut out = Vec::new();
                h.dequeue_batch(&mut out, 3);
                for v in out {
                    assert_eq!(Some(v), expect.pop_front());
                }
            } else {
                let got = h.dequeue();
                assert_eq!(got, expect.pop_front());
            }
        }
    }

    #[test]
    fn batch_drops_run_destructors() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, SeqCst);
            }
        }
        {
            let q: WcqQueue<D> = WcqQueue::new(3, 1);
            let mut h = q.register().unwrap();
            let mut items: Vec<D> = (0..6).map(|_| D).collect();
            assert_eq!(h.enqueue_batch(&mut items), 6);
            let mut out = Vec::new();
            assert_eq!(h.dequeue_batch(&mut out, 2), 2);
            drop(out); // 2
        }
        assert_eq!(DROPS.load(SeqCst), 6, "queue drop drains the rest");
    }

    #[test]
    fn empty_hint_tracks_state() {
        let q: WcqQueue<u8> = WcqQueue::new(3, 1);
        let mut h = q.register().unwrap();
        assert!(q.is_empty_hint());
        h.enqueue(1).unwrap();
        assert!(!q.is_empty_hint());
    }
}
