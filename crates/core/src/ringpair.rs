//! The paper's Fig. 1/2 indirection, written once: a bounded queue of `T`
//! is two *index* rings — `aq` of allocated indices, `fq` of free ones —
//! plus a data array the indices point into.
//!
//! SCQ and wCQ differ only in the index ring, so [`RingPair`] is generic
//! over it ([`IndexRing`], sealed to [`ScqRing`] and [`WcqRing`]) and every
//! queue family composes this one layer: [`crate::ScqQueue`] wraps a pair,
//! [`crate::WcqQueue`] adds the slot table (parking is the channel's),
//! [`crate::ShardedWcq`] holds `S` bare pairs, each [`crate::unbounded`]
//! list node holds one (Appendix A links bare rings). A pair is the rings
//! and the data, nothing else; its operations demand one exclusive driver
//! per thread id, and [`SlotTable`] is how the bounded families hand thread
//! ids out.

use crate::scq::ScqRing;
use crate::sim::{AtomicBool, DataCell};
use crate::wcq::ring::WcqRing;
use crate::WcqConfig;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::ScqRing {}
    impl Sealed for super::WcqRing {}
}

/// A bounded MPMC queue of indices in `0..2^order`: the ring under every
/// typed queue in this crate, and the ring parameter of
/// [`crate::unbounded::Unbounded`]. Sealed: the implementors are
/// [`ScqRing`] (lock-free; keeps no per-thread state, so it ignores `tid`
/// and `max_threads`) and [`WcqRing`] (wait-free; `tid` selects the
/// caller's helping record, one exclusive driver per `tid`).
///
/// The defaults describe a ring with no batch path and no helping records:
/// a batch dequeue that never finds a contiguous run (callers fall back to
/// the singleton operations) and no-op record maintenance.
pub trait IndexRing: sealed::Sealed + Send + Sync + Sized {
    /// An empty ring of `2^order` usable entries.
    fn new_empty(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self;
    /// A ring pre-filled with the indices `0..2^order` in order.
    fn new_full(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self;
    /// Enqueues `index` (total under the index-queue discipline: at most
    /// `2^order` distinct live indices circulate).
    fn enqueue(&self, tid: usize, index: u64);
    /// Dequeues an index; `None` means empty.
    fn dequeue(&self, tid: usize) -> Option<u64>;
    /// Current threshold; negative while the ring is observably empty.
    fn threshold(&self) -> i64;

    /// Enqueues every index of `indices` in order, under one tail claim
    /// where the ring has a batch path.
    fn enqueue_batch(&self, tid: usize, indices: &[u64]) {
        for &i in indices {
            self.enqueue(tid, i);
        }
    }
    /// Dequeues a contiguous run of up to `out.len()` indices into the
    /// front of `out`, returning its length. `0` does **not** certify
    /// emptiness — only [`Self::dequeue`] does.
    fn dequeue_batch(&self, _tid: usize, _out: &mut [u64]) -> usize {
        0
    }
    /// Waits until no helper is driving `tid`'s helping record.
    fn quiesce(&self, _tid: usize) {}
    /// `true` while `tid`'s record has no pending request and no helper.
    fn is_quiet(&self, _tid: usize) -> bool {
        true
    }
    /// Notes that `tid` is being handed to a new owner.
    fn note_registration(&self, _tid: usize) {}
}

// Inherent methods win path resolution: each `Ring::op(..)` below is the
// ring's own operation, not a recursive call. The per-operation forwarders
// are `#[inline]`, as the rings' own operations are, so the ring's first
// attempt inlines into its forwarder, and the forwarder is the call: in the
// optimized benchmark binary a queue op calls `<WcqRing as
// IndexRing>::enqueue`/`dequeue` out of line, once per ring op, and the
// ladder's bare-ring rungs call `WcqRing::enqueue`/`dequeue` out of line
// (DESIGN.md §3.1 has the recipe that counts them).
impl IndexRing for ScqRing {
    fn new_empty(order: u32, _max_threads: usize, cfg: &WcqConfig) -> Self {
        ScqRing::new_empty(order, cfg)
    }
    fn new_full(order: u32, _max_threads: usize, cfg: &WcqConfig) -> Self {
        ScqRing::new_full(order, cfg)
    }
    #[inline]
    fn enqueue(&self, _tid: usize, index: u64) {
        ScqRing::enqueue(self, index)
    }
    #[inline]
    fn dequeue(&self, _tid: usize) -> Option<u64> {
        ScqRing::dequeue(self)
    }
    #[inline]
    fn threshold(&self) -> i64 {
        ScqRing::threshold(self)
    }
}

impl IndexRing for WcqRing {
    fn new_empty(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        WcqRing::new_empty(order, max_threads, cfg)
    }
    fn new_full(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        WcqRing::new_full(order, max_threads, cfg)
    }
    #[inline]
    fn enqueue(&self, tid: usize, index: u64) {
        WcqRing::enqueue(self, tid, index)
    }
    #[inline]
    fn dequeue(&self, tid: usize) -> Option<u64> {
        WcqRing::dequeue(self, tid)
    }
    #[inline]
    fn threshold(&self) -> i64 {
        WcqRing::threshold(self)
    }
    #[inline]
    fn enqueue_batch(&self, tid: usize, indices: &[u64]) {
        WcqRing::enqueue_batch(self, tid, indices)
    }
    #[inline]
    fn dequeue_batch(&self, tid: usize, out: &mut [u64]) -> usize {
        WcqRing::dequeue_batch(self, tid, out)
    }
    fn quiesce(&self, tid: usize) {
        self.quiesce_record(tid)
    }
    fn is_quiet(&self, tid: usize) -> bool {
        self.record_is_quiet(tid)
    }
    fn note_registration(&self, tid: usize) {
        WcqRing::note_registration(self, tid)
    }
}

/// Items per inner ring-batch claim; bounds the stack buffer and the number
/// of tickets a single F&A can burn on a contended boundary.
const BATCH_CHUNK: usize = 64;

/// Bounded MPMC queue of `T` over two index rings and a data array: `2^order`
/// elements, all memory allocated at construction.
///
/// The operations are `unsafe` under one contract, the **tid-exclusivity
/// contract**: `tid` is in range for the rings (`tid < max_threads`), and
/// no two threads drive the same `tid` on this pair concurrently — a
/// [`WcqRing`]'s helping record assumes one exclusive driver per id. For
/// [`ScqRing`], which keeps no per-thread state and ignores `tid`, the
/// contract is vacuous. The handle layers (and [`SlotTable`]) discharge it.
pub(crate) struct RingPair<T, R: IndexRing> {
    aq: R,
    fq: R,
    data: Box<[DataCell<MaybeUninit<T>>]>,
}

// SAFETY: an index is an exclusive token for its data slot. `data[i]` is
// written by exactly one enqueuer between its dequeue of `i` from `fq` and
// its enqueue of `i` into `aq`, and read by exactly one dequeuer between
// its dequeue of `i` from `aq` and its re-enqueue into `fq`; the rings'
// SeqCst RMWs order the write before the read and the read before the next
// write. Values cross threads, hence `T: Send`; the rings are `Send + Sync`
// by the `IndexRing` bound.
unsafe impl<T: Send, R: IndexRing> Send for RingPair<T, R> {}
// SAFETY: same argument — index-token exclusivity covers shared access.
unsafe impl<T: Send, R: IndexRing> Sync for RingPair<T, R> {}

impl<T, R: IndexRing> RingPair<T, R> {
    /// A pair of `2^order` slots whose rings admit `max_threads` thread ids.
    pub(crate) fn new(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        RingPair {
            aq: R::new_empty(order, max_threads, cfg),
            fq: R::new_full(order, max_threads, cfg),
            data: (0..1usize << order)
                .map(|_| DataCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// Capacity in elements.
    pub(crate) fn capacity(&self) -> usize {
        self.data.len()
    }

    /// `true` while no elements are observable (threshold fast check on
    /// `aq`). Like any concurrent size probe this is advisory only.
    pub(crate) fn is_empty_hint(&self) -> bool {
        self.aq.threshold() < 0
    }

    /// Bumps `tid`'s owner epoch in both rings; called by every path that
    /// hands the tid to a new owner.
    pub(crate) fn note_registration(&self, tid: usize) {
        self.aq.note_registration(tid);
        self.fq.note_registration(tid);
    }

    /// Waits for any helper still driving `tid`'s records (in either ring)
    /// to finish; every path that recycles a tid runs this first.
    pub(crate) fn quiesce(&self, tid: usize) {
        self.aq.quiesce(tid);
        self.fq.quiesce(tid);
    }

    /// `true` while `tid`'s records in both rings are quiet.
    pub(crate) fn is_quiet(&self, tid: usize) -> bool {
        self.aq.is_quiet(tid) && self.fq.is_quiet(tid)
    }

    /// Enqueue under thread id `tid`; `Err(v)` returns the value when the
    /// queue is full.
    ///
    /// # Safety
    /// The tid-exclusivity contract (see the type).
    pub(crate) unsafe fn enqueue(&self, tid: usize, v: T) -> Result<(), T> {
        let Some(i) = self.fq.dequeue(tid) else {
            return Err(v); // no free slot: full
        };
        // SAFETY: `i` came from `fq`, granting exclusive access to `data[i]`
        // until it is published through `aq`.
        self.data[i as usize].with_mut(|p| unsafe { (*p).write(v) });
        self.aq.enqueue(tid, i);
        Ok(())
    }

    /// Dequeue under thread id `tid`; `None` when empty.
    ///
    /// # Safety
    /// The tid-exclusivity contract.
    pub(crate) unsafe fn dequeue(&self, tid: usize) -> Option<T> {
        let i = self.aq.dequeue(tid)?;
        // SAFETY: `i` came from `aq`; the matching enqueuer initialized the
        // slot before publishing it. `with_mut`: the read un-initializes.
        let v = self.data[i as usize].with_mut(|p| unsafe { (*p).assume_init_read() });
        self.fq.enqueue(tid, i);
        Some(v)
    }

    /// Batch enqueue: drains as many items as fit from the **front** of
    /// `items` (preserving order) and returns how many were enqueued; items
    /// left behind did not fit. Free-slot claims and `aq` publications are
    /// amortized over runs of up to [`BATCH_CHUNK`] contiguous tickets,
    /// degrading to per-item operations whenever the ring offers no run.
    ///
    /// # Safety
    /// The tid-exclusivity contract.
    pub(crate) unsafe fn enqueue_batch(&self, tid: usize, items: &mut Vec<T>) -> usize {
        // Consume by one draining iterator, not repeated front-drains: the
        // whole batch stays O(len), and `items` keeps its allocation for
        // the caller's next batch. Rejects are appended back in order.
        let mut it = items.drain(..);
        let mut total = 0;
        let mut idxs = [0u64; BATCH_CHUNK];
        // BOUND: finite-iter — batch enqueue: the draining iterator shrinks
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
        // Empty unless the queue filled; collecting nothing allocates
        // nothing.
        let mut rejects: Vec<T> = it.collect();
        items.append(&mut rejects);
        total
    }

    /// Batch dequeue: appends up to `max` elements to `out` in queue order
    /// and returns how many were appended (0 means observed empty).
    ///
    /// # Safety
    /// The tid-exclusivity contract.
    pub(crate) unsafe fn dequeue_batch(&self, tid: usize, out: &mut Vec<T>, max: usize) -> usize {
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
                let Some(v) = (unsafe { self.dequeue(tid) }) else {
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

impl<T, R: IndexRing> Drop for RingPair<T, R> {
    fn drop(&mut self) {
        // Drain so remaining elements are dropped.
        // SAFETY: tid 0 exists (`max_threads >= 1`) and `&mut self` rules
        // out any concurrent driver.
        // BOUND: capacity — drop drains at most n remaining elements
        while unsafe { self.dequeue(0) }.is_some() {}
    }
}

/// The thread-slot table of a bounded queue family: one flag per thread
/// id, claimed by `register()` and released by the handle's `Drop`. A
/// claimed slot makes its handle the exclusive driver of that tid on every
/// [`RingPair`] the family passes in — the tid-exclusivity contract.
pub(crate) struct SlotTable(Box<[AtomicBool]>);

impl SlotTable {
    pub(crate) fn new(max_threads: usize) -> Self {
        SlotTable((0..max_threads).map(|_| AtomicBool::new(false)).collect())
    }

    /// Number of thread slots.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Claims the lowest free slot, or `None` when all are taken, and
    /// hands its tid to the new owner on every pair in `pairs` (asserting,
    /// in debug builds, that the records it inherits are quiet — the
    /// invariant [`Self::release`] establishes).
    ///
    /// Occupied slots are skipped with a plain load and the CAS uses a
    /// `Relaxed` failure ordering, so registration churn does not hammer
    /// read-modify-writes on every occupied slot — only the single winning
    /// CAS pays for ordering.
    pub(crate) fn claim<T, R: IndexRing>(&self, pairs: &[RingPair<T, R>]) -> Option<usize> {
        let tid = self.0.iter().position(|slot| {
            // ORDERING: the load is the registration-scan skip probe (the
            // CAS re-checks); the CAS is the slot claim: Acquire on success
            // synchronizes with `release`'s Release store, so the new owner
            // observes the previous owner's quiesced record state
            // (downgraded from SeqCst) — cover: dst model 7 + slot_handoff
            // litmus
            !slot.load(Relaxed) && slot.compare_exchange(false, true, Acquire, Relaxed).is_ok()
        })?;
        debug_assert!(
            pairs.iter().all(|p| p.is_quiet(tid)),
            "acquired thread slot {tid} while a helper is still driving its record"
        );
        for p in pairs {
            p.note_registration(tid);
        }
        Some(tid)
    }

    /// Releases slot `tid`, quiescing its helping records in every pair
    /// first: the handle drove the same tid in all of them, and a bare flag
    /// store would let a new registrant publish a fresh request on a record
    /// a helper is still replaying (regression: tests/handle_churn.rs).
    pub(crate) fn release<T, R: IndexRing>(&self, tid: usize, pairs: &[RingPair<T, R>]) {
        for p in pairs {
            p.quiesce(tid);
        }
        // ORDERING: slot release after quiesce: publishes the record state
        // to the next claimant's Acquire CAS in `claim` (downgraded from
        // SeqCst) — the slot flag needs no place in the SeqCst total order,
        // only this one handoff edge; cover: dst model 7 + slot_handoff
        // litmus
        self.0[tid].store(false, Release);
    }
}

/// The `RingPair` contract, one generic body per property, taking the ring
/// type as input. `scq.rs` and `wcq/queue.rs` instantiate it for their ring.
// ORDERING: test-only drop counter; ordering irrelevant
#[cfg(test)]
pub(crate) mod contract {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;

    /// Single-threaded driver of a pair under tid 0.
    struct Solo<T, R: IndexRing>(RingPair<T, R>);

    impl<T, R: IndexRing> Solo<T, R> {
        fn new(order: u32) -> Self {
            Solo(RingPair::new(order, 1, &WcqConfig::default()))
        }
        fn enqueue(&self, v: T) -> Result<(), T> {
            // SAFETY: one thread, `max_threads == 1`: tid 0 is exclusive.
            unsafe { self.0.enqueue(0, v) }
        }
        fn dequeue(&self) -> Option<T> {
            // SAFETY: as above.
            unsafe { self.0.dequeue(0) }
        }
        fn enqueue_batch(&self, items: &mut Vec<T>) -> usize {
            // SAFETY: as above.
            unsafe { self.0.enqueue_batch(0, items) }
        }
        fn dequeue_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
            // SAFETY: as above.
            unsafe { self.0.dequeue_batch(0, out, max) }
        }
    }

    /// Counts its own drops in the shared counter.
    struct D(Arc<AtomicUsize>);
    impl Drop for D {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    pub(crate) fn fifo_full_and_empty<R: IndexRing>(order: u32) {
        let q: Solo<u64, R> = Solo::new(order);
        let n = 1u64 << order;
        assert_eq!(q.0.capacity() as u64, n);
        for i in 0..n {
            assert!(q.enqueue(i).is_ok());
        }
        assert_eq!(
            q.enqueue(99),
            Err(99),
            "full at capacity: value handed back"
        );
        for i in 0..n {
            assert_eq!(q.dequeue(), Some(i));
        }
        assert_eq!(q.dequeue(), None);
        // Reusable after drain.
        assert!(q.enqueue(42).is_ok());
        assert_eq!(q.dequeue(), Some(42));
    }

    pub(crate) fn wrap_many_cycles<R: IndexRing>() {
        let q: Solo<u64, R> = Solo::new(2);
        for round in 0..2000u64 {
            assert!(q.enqueue(round).is_ok());
            assert!(q.enqueue(round + 1).is_ok());
            assert_eq!(q.dequeue(), Some(round));
            assert_eq!(q.dequeue(), Some(round + 1));
            assert_eq!(q.dequeue(), None);
        }
    }

    /// `enqueued` elements in, one out (dropped by the caller), the rest
    /// dropped by the pair's own `Drop`.
    pub(crate) fn drops_remaining<R: IndexRing>(enqueued: usize) {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q: Solo<D, R> = Solo::new(3);
            for _ in 0..enqueued {
                assert!(q.enqueue(D(Arc::clone(&drops))).is_ok());
            }
            drop(q.dequeue()); // 1
            assert_eq!(drops.load(SeqCst), 1);
        }
        assert_eq!(drops.load(SeqCst), enqueued);
    }

    pub(crate) fn batch_roundtrip_fifo_and_full<R: IndexRing>() {
        let q: Solo<u64, R> = Solo::new(3); // 8 slots
        let mut items: Vec<u64> = (0..10).collect();
        assert_eq!(q.enqueue_batch(&mut items), 8, "bounded at capacity");
        assert_eq!(items, vec![8, 9], "rejects stay in the vector, in order");
        let mut out = Vec::new();
        assert_eq!(q.dequeue_batch(&mut out, 5), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.dequeue_batch(&mut out, 100), 3);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(q.dequeue_batch(&mut out, 1), 0, "empty");
    }

    pub(crate) fn batch_interleaves_with_singletons<R: IndexRing>() {
        let q: Solo<u64, R> = Solo::new(4);
        let mut next = 0u64;
        let mut expect = VecDeque::new();
        for round in 0..200 {
            if round % 3 == 0 {
                let mut batch: Vec<u64> = (next..next + 5).collect();
                let n = q.enqueue_batch(&mut batch) as u64;
                expect.extend(next..next + n);
                next += n;
            } else if q.enqueue(next).is_ok() {
                expect.push_back(next);
                next += 1;
            }
            if round % 2 == 0 {
                let mut out = Vec::new();
                q.dequeue_batch(&mut out, 3);
                for v in out {
                    assert_eq!(Some(v), expect.pop_front());
                }
            } else {
                assert_eq!(q.dequeue(), expect.pop_front());
            }
        }
    }

    pub(crate) fn batch_drops_run_destructors<R: IndexRing>() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q: Solo<D, R> = Solo::new(3);
            let mut items: Vec<D> = (0..6).map(|_| D(Arc::clone(&drops))).collect();
            assert_eq!(q.enqueue_batch(&mut items), 6);
            let mut out = Vec::new();
            assert_eq!(q.dequeue_batch(&mut out, 2), 2);
            drop(out); // 2
        }
        assert_eq!(drops.load(SeqCst), 6, "pair drop drains the rest");
    }

    pub(crate) fn empty_hint_tracks_state<R: IndexRing>() {
        let q: Solo<u8, R> = Solo::new(3);
        assert!(q.0.is_empty_hint());
        q.enqueue(1).unwrap();
        assert!(!q.0.is_empty_hint());
    }
}
