//! Single-producer / single-consumer ring: the load/store fast path of the
//! topology-specialized channel backends (DESIGN.md §11).
//!
//! The wait-free wCQ machinery earns its keep under MPMC contention —
//! helping records, DWCAS, threshold probes. A single producer facing a
//! single consumer needs none of it: the classic Lamport ring with two
//! monotone indices is correct with nothing stronger than Acquire/Release,
//! and its uncontended fast path is a handful of loads and one store. This
//! module is that ring, tuned three ways:
//!
//! * **Cache-padded index blocks.** The producer block (`tail` plus the
//!   producer's private snapshot of `head`) and the consumer block (`head`
//!   plus its snapshot of `tail`) live on separate 128-byte-aligned lines,
//!   so neither side's writes invalidate the other's hot line and the
//!   adjacent-line prefetcher cannot pair them back together.
//! * **Cached peer indices.** Each side re-reads the *other* side's index
//!   only when its cached snapshot says the ring looks full (producer) or
//!   empty (consumer) — the common case touches no shared-dirty line at
//!   all beyond its own publication store.
//! * **Batch consumption and zero-copy reservation.** [`Consumer::pop_batch`]
//!   amortizes one Release store over a run of reads;
//!   [`Producer::reserve`] hands out a window of slots to write in place
//!   and publishes the whole window with a single Release store on
//!   [`Reservation::commit`].
//!
//! Exactly-one-producer / exactly-one-consumer is enforced by ownership:
//! [`Ring::split`] consumes the ring and returns the unique [`Producer`]
//! and [`Consumer`]. The `pub(crate)` raw ops on [`Ring`] carry the same
//! exclusivity contract as an unsafe precondition; the topology layer
//! (`crate::topology`) discharges it with its seat protocol.
//!
//! # Example
//!
//! ```
//! use wcq::spsc::Ring;
//!
//! let (mut tx, mut rx) = Ring::<u64>::new(8).split(); // 256 slots
//! std::thread::spawn(move || {
//!     for i in 0..1000u64 {
//!         let mut v = i;
//!         loop {
//!             match tx.push(v) {
//!                 Ok(()) => break,
//!                 Err(back) => {
//!                     v = back;
//!                     std::hint::spin_loop(); // full: consumer will drain
//!                 }
//!             }
//!         }
//!     }
//! });
//! let mut got = Vec::new();
//! while got.len() < 1000 {
//!     let mut out = Vec::new();
//!     if rx.pop_batch(&mut out, 64) == 0 {
//!         std::hint::spin_loop();
//!     }
//!     got.extend(out);
//! }
//! assert_eq!(got, (0..1000).collect::<Vec<_>>());
//! ```

use crossbeam_utils::CachePadded;
use std::mem::MaybeUninit;
use crate::sim::{AtomicUsize, DataCell};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::Arc;

// ===================================================================
// The ring
// ===================================================================

/// Producer-side indices: `tail` is the publication index (written with
/// Release, read by the consumer with Acquire); `head_cache` is the
/// producer's private snapshot of the consumer's `head` — plain data that
/// only happens to be atomic so the block stays `Sync`.
struct ProdBlock {
    tail: AtomicUsize,
    head_cache: AtomicUsize,
}

/// Consumer-side indices, mirror image of [`ProdBlock`].
struct ConsBlock {
    head: AtomicUsize,
    tail_cache: AtomicUsize,
}

/// A bounded SPSC ring of `2^order` slots; see the [module docs](self).
///
/// Indices are monotone (wrapping) `usize` counters masked into the
/// buffer, so `tail - head` is the live element count and full/empty are
/// never ambiguous without sacrificing a slot.
pub struct Ring<T: Send> {
    buf: Box<[DataCell<MaybeUninit<T>>]>,
    mask: usize,
    prod: CachePadded<ProdBlock>,
    cons: CachePadded<ConsBlock>,
}

// SAFETY: the raw-op exclusivity contract (one producer, one consumer at a
// time) is what makes the plain slot cells data-race free; the indices are
// atomics, and under weak-model DST the `DataCell` shim's vector clocks
// check exactly this claim. `T: Send` is required because elements cross
// threads.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: same argument — the head/tail index protocol partitions the
// slots between the two sides.
unsafe impl<T: Send> Sync for Ring<T> {}

// ORDERING: own-side cursor or cached peer position; freshness re-checked
// via the Acquire/Release pair before use — cover: dst models 4-5
impl<T: Send> Ring<T> {
    /// Creates a ring with `2^order` slots.
    pub fn new(order: u32) -> Self {
        assert!(order < usize::BITS - 1, "ring order out of range");
        let n = 1usize << order;
        Ring {
            buf: (0..n)
                .map(|_| DataCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: n - 1,
            prod: CachePadded::new(ProdBlock {
                tail: AtomicUsize::new(0),
                head_cache: AtomicUsize::new(0),
            }),
            cons: CachePadded::new(ConsBlock {
                head: AtomicUsize::new(0),
                tail_cache: AtomicUsize::new(0),
            }),
        }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// `true` while no element is observable. Advisory, like any
    /// concurrent size probe.
    pub fn is_empty_hint(&self) -> bool {
        // ORDERING: observes the peer's index publication; pairs with the
        // Release store on the opposite side (slot data race-checked via
        // DataCell)
        self.cons.head.load(Acquire) == self.prod.tail.load(Acquire)
    }

    /// Consumes the ring into its unique endpoint pair — the safe API.
    pub fn split(self) -> (Producer<T>, Consumer<T>) {
        let ring = Arc::new(self);
        (
            Producer {
                ring: Arc::clone(&ring),
            },
            Consumer { ring },
        )
    }

    /// Producer-side free-slot probe: how many slots `tail` may advance
    /// before hitting the (possibly stale, then refreshed) `head`.
    ///
    /// # Safety
    /// Caller is the exclusive producer (see [`Self::push`]).
    #[inline]
    unsafe fn free_slots(&self, tail: usize, want: usize) -> usize {
        let cap = self.buf.len();
        let mut head = self.prod.head_cache.load(Relaxed);
        // ORDERING: the Acquire load observes the peer's index publication;
        // pairs with the Release store on the opposite side (slot data
        // race-checked via DataCell); the Relaxed store is a cache refresh
        // of an already-acquired peer position; publishes nothing
        if cap - tail.wrapping_sub(head) < want {
            // The snapshot can't cover the request: refresh it from the
            // consumer's line. Keeps single pushes exact at the full edge
            // and reservations exact at any shortfall, while the common
            // case never leaves the producer's own cache lines.
            head = self.cons.head.load(Acquire);
            self.prod.head_cache.store(head, Relaxed);
        }
        cap - tail.wrapping_sub(head)
    }

    /// Raw push. `Err(v)` hands the value back when the ring is full.
    ///
    /// # Safety
    /// At most one thread may act as producer (`push`/`reserve`) at a
    /// time, with its calls ordered by happens-before edges. The safe
    /// [`Producer`] enforces this by unique ownership; `crate::topology`
    /// by seat claims.
    #[inline]
    pub(crate) unsafe fn push(&self, v: T) -> Result<(), T> {
        let tail = self.prod.tail.load(Relaxed); // producer-owned index
        // SAFETY: forwarded producer-exclusivity contract.
        if unsafe { self.free_slots(tail, 1) } == 0 {
            return Err(v);
        }
        // SAFETY: slot `tail & mask` is vacant — the consumer only reads
        // below `tail`, and only this producer writes.
        self.buf[tail & self.mask].with_mut(|p| unsafe { (*p).write(v) });
        // ORDERING: index publication: releases the slot writes before
        // handing the range to the peer's Acquire load
        self.prod.tail.store(tail.wrapping_add(1), Release); // publish
        Ok(())
    }

    /// Raw reservation of up to `n` slots; `None` when the ring is full
    /// (or `n == 0`). See [`Producer::reserve`] for semantics.
    ///
    /// # Safety
    /// Same contract as [`Self::push`]; additionally the producer must not
    /// push again until the reservation is committed or dropped (the
    /// borrow enforces this in safe code).
    pub(crate) unsafe fn reserve(&self, n: usize) -> Option<Reservation<'_, T>> {
        let tail = self.prod.tail.load(Relaxed);
        // SAFETY: forwarded producer-exclusivity contract.
        let window = unsafe { self.free_slots(tail, n) }.min(n);
        if window == 0 {
            return None;
        }
        Some(Reservation {
            ring: self,
            base: tail,
            cap: window,
            written: 0,
        })
    }

    /// Raw pop; `None` when empty.
    ///
    /// # Safety
    /// At most one thread may act as consumer (`pop`/`pop_batch`) at a
    /// time, with its calls ordered by happens-before edges.
    #[inline]
    pub(crate) unsafe fn pop(&self) -> Option<T> {
        let head = self.cons.head.load(Relaxed); // consumer-owned index
        let mut tail = self.cons.tail_cache.load(Relaxed);
        // ORDERING: the Acquire load observes the peer's index publication;
        // pairs with the Release store on the opposite side (slot data
        // race-checked via DataCell); the Relaxed store is a cache refresh
        // of an already-acquired peer position; publishes nothing
        if head == tail {
            tail = self.prod.tail.load(Acquire);
            self.cons.tail_cache.store(tail, Relaxed);
            if head == tail {
                return None;
            }
        }
        // SAFETY: head < tail, so the slot was initialized by the producer
        // and its write is visible via the Acquire load of `tail`.
        let v = self.buf[head & self.mask].with_mut(|p| unsafe { (*p).assume_init_read() });
        // ORDERING: index publication: releases the slot writes before
        // handing the range to the peer's Acquire load
        self.cons.head.store(head.wrapping_add(1), Release); // free the slot
        Some(v)
    }

    /// Raw batch pop: appends up to `max` elements to `out` in ring order,
    /// publishing one Release store for the whole run. Returns the count.
    ///
    /// # Safety
    /// Same contract as [`Self::pop`].
    pub(crate) unsafe fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let head = self.cons.head.load(Relaxed);
        let mut tail = self.cons.tail_cache.load(Relaxed);
        // ORDERING: the Acquire load observes the peer's index publication;
        // pairs with the Release store on the opposite side (slot data
        // race-checked via DataCell); the Relaxed store is a cache refresh
        // of an already-acquired peer position; publishes nothing
        if tail.wrapping_sub(head) < max {
            // Snapshot can't cover the request — refresh, mirroring the
            // producer's `free_slots` shortfall rule.
            tail = self.prod.tail.load(Acquire);
            self.cons.tail_cache.store(tail, Relaxed);
        }
        let run = tail.wrapping_sub(head).min(max);
        if run == 0 {
            return 0;
        }
        out.reserve(run);
        for i in 0..run {
            // SAFETY: each slot in `head..head+run` is initialized and
            // visible (Acquire on `tail`), and only this consumer reads it.
            out.push(self.buf[head.wrapping_add(i) & self.mask].with_mut(|p| {
                // SAFETY: see above.
                unsafe { (*p).assume_init_read() }
            }));
        }
        // ORDERING: index publication: releases the slot writes before
        // handing the range to the peer's Acquire load
        self.cons.head.store(head.wrapping_add(run), Release);
        run
    }
}

impl<T: Send> Drop for Ring<T> {
    // ORDERING: own-side cursor or cached peer position; freshness
    // re-checked via the Acquire/Release pair before use
    fn drop(&mut self) {
        // &mut self: both sides are quiescent; drop the live window.
        let head = self.cons.head.load(Relaxed);
        let tail = self.prod.tail.load(Relaxed);
        let mut i = head;
        // BOUND: capacity — drop walks head..tail once — at most capacity
        // slots
        while i != tail {
            // SAFETY: slots in `head..tail` hold initialized elements no
            // endpoint will read again.
            unsafe { (*self.buf[i & self.mask].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

// ===================================================================
// Zero-copy reservation
// ===================================================================

/// A reserved window of producer slots, obtained from
/// [`Producer::reserve`]. Values are written in place with
/// [`Self::write`]; nothing is visible to the consumer until
/// [`Self::commit`] publishes the whole window with one Release store.
/// Dropping an uncommitted reservation drops the written values and
/// publishes nothing — the ring state is as if the reservation never
/// happened.
pub struct Reservation<'a, T: Send> {
    ring: &'a Ring<T>,
    base: usize,
    cap: usize,
    written: usize,
}

impl<T: Send> Reservation<'_, T> {
    /// Number of slots reserved (`<=` the `n` asked for).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Slots still writable.
    pub fn remaining(&self) -> usize {
        self.cap - self.written
    }

    /// Writes the next slot; `Err(v)` hands the value back once the
    /// window is exhausted.
    pub fn write(&mut self, v: T) -> Result<(), T> {
        if self.written == self.cap {
            return Err(v);
        }
        let idx = self.base.wrapping_add(self.written) & self.ring.mask;
        // SAFETY: the slot is inside the reserved window — vacant, and
        // only this reservation (which borrows the producer) writes it.
        self.ring.buf[idx].with_mut(|p| unsafe { (*p).write(v) });
        self.written += 1;
        Ok(())
    }

    /// Publishes every written slot with a single Release store and
    /// consumes the reservation. Slots reserved but not written are simply
    /// not published (the producer's `tail` advances by `written`).
    pub fn commit(self) {
        // ORDERING: index publication: releases the slot writes before
        // handing the range to the peer's Acquire load. `written` is the
        // reservation cursor bump on the single-writer side; publication
        // happens at the Release commit — this store
        self.ring
            .prod
            .tail
            .store(self.base.wrapping_add(self.written), Release);
        std::mem::forget(self); // Drop would free the written values
    }
}

impl<T: Send> Drop for Reservation<'_, T> {
    fn drop(&mut self) {
        // Abandoned: the values were never published, so the consumer will
        // never free them — do it here. `tail` never moved.
        for i in 0..self.written {
            let idx = self.base.wrapping_add(i) & self.ring.mask;
            // SAFETY: written by this reservation, published to nobody.
            self.ring.buf[idx].with_mut(|p| unsafe { (*p).assume_init_drop() });
        }
    }
}

// ===================================================================
// Safe endpoints
// ===================================================================

/// The unique producing endpoint of a [`Ring`] (from [`Ring::split`]).
/// Not cloneable — uniqueness is the safety argument.
pub struct Producer<T: Send> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> Producer<T> {
    /// Pushes a value; `Err(v)` hands it back when the ring is full.
    #[inline]
    pub fn push(&mut self, v: T) -> Result<(), T> {
        // SAFETY: `self` is the unique producer (no Clone, &mut receiver).
        unsafe { self.ring.push(v) }
    }

    /// Reserves up to `n` slots for in-place writes; `None` when the ring
    /// is full. The reservation mutably borrows the producer, so no push
    /// can interleave before [`Reservation::commit`] (or drop).
    pub fn reserve(&mut self, n: usize) -> Option<Reservation<'_, T>> {
        // SAFETY: unique producer; the returned borrow freezes `self`.
        unsafe { self.ring.reserve(n) }
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }
}

/// The unique consuming endpoint of a [`Ring`] (from [`Ring::split`]).
pub struct Consumer<T: Send> {
    ring: Arc<Ring<T>>,
}

impl<T: Send> Consumer<T> {
    /// Pops the oldest value; `None` when the ring is observed empty.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        // SAFETY: `self` is the unique consumer.
        unsafe { self.ring.pop() }
    }

    /// Pops up to `max` values into `out` (one Release store for the whole
    /// run); returns how many were appended.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // SAFETY: unique consumer.
        unsafe { self.ring.pop_batch(out, max) }
    }

    /// `true` while no element is observable (advisory).
    pub fn is_empty_hint(&self) -> bool {
        self.ring.is_empty_hint()
    }
}

// ORDERING: test-only drop counter; ordering irrelevant
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_full_empty_edges() {
        let (mut tx, mut rx) = Ring::<u32>::new(2).split(); // 4 slots
        assert_eq!(rx.pop(), None);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "full hands the value back");
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = Ring::<u64>::new(3).split(); // 8 slots
        for round in 0..1000u64 {
            for i in 0..5 {
                tx.push(round * 5 + i).unwrap();
            }
            for i in 0..5 {
                assert_eq!(rx.pop(), Some(round * 5 + i));
            }
        }
    }

    #[test]
    fn batch_pop_preserves_order() {
        let (mut tx, mut rx) = Ring::<u32>::new(4).split();
        for i in 0..10 {
            tx.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 4), 4);
        assert_eq!(rx.pop_batch(&mut out, 100), 6);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(rx.pop_batch(&mut out, 1), 0);
    }

    #[test]
    fn reserve_commit_publishes_once() {
        let (mut tx, mut rx) = Ring::<u32>::new(3).split();
        {
            let mut r = tx.reserve(5).unwrap();
            assert_eq!(r.capacity(), 5);
            for i in 0..5 {
                r.write(i).unwrap();
            }
            // Not yet committed: invisible.
            assert!(rx.is_empty_hint());
            r.commit();
        }
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 100), 5);
        assert_eq!(out, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn reserve_clamps_to_free_space_and_partial_commit() {
        let (mut tx, mut rx) = Ring::<u32>::new(2).split(); // 4 slots
        tx.push(0).unwrap();
        let mut r = tx.reserve(10).unwrap();
        assert_eq!(r.capacity(), 3, "clamped to free slots");
        r.write(1).unwrap();
        r.write(2).unwrap();
        assert_eq!(r.write(3), Ok(()));
        assert_eq!(r.write(4), Err(4), "window exhausted");
        r.commit();
        assert!(tx.reserve(1).is_none(), "full after commit");
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
    }

    #[test]
    fn abandoned_reservation_drops_values_and_publishes_nothing() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }
        let (mut tx, mut rx) = Ring::<D>::new(3).split();
        {
            let mut r = tx.reserve(4).unwrap();
            r.write(D).unwrap();
            r.write(D).unwrap();
            // dropped uncommitted
        }
        assert_eq!(DROPS.load(Relaxed), 2, "written values freed");
        assert!(rx.pop().is_none(), "nothing published");
        // The slots are reusable afterwards.
        tx.push(D).unwrap();
        drop(rx.pop().unwrap());
        assert_eq!(DROPS.load(Relaxed), 3);
    }

    #[test]
    fn ring_drop_frees_live_window() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Relaxed);
            }
        }
        DROPS.store(0, Relaxed);
        let (mut tx, mut rx) = Ring::<D>::new(3).split();
        for _ in 0..5 {
            tx.push(D).unwrap();
        }
        drop(rx.pop().unwrap());
        assert_eq!(DROPS.load(Relaxed), 1);
        drop(tx);
        drop(rx); // last Arc: ring drop frees the 4 still queued
        assert_eq!(DROPS.load(Relaxed), 5);
    }

    #[test]
    fn cross_thread_pair_conserves_elements() {
        let (mut tx, mut rx) = Ring::<u64>::new(6).split();
        let t = std::thread::spawn(move || {
            for i in 0..50_000u64 {
                let mut v = i;
                // BOUND: wait-edge — test producer retries a full ring
                // until the consumer frees space
                while let Err(back) = tx.push(v) {
                    v = back;
                    std::hint::spin_loop();
                }
            }
        });
        let mut next = 0u64;
        let mut out = Vec::new();
        // BOUND: wait-edge — test consumer loops until all 50_000 items
        // arrive
        while next < 50_000 {
            out.clear();
            if rx.pop_batch(&mut out, 128) == 0 {
                std::thread::yield_now();
                continue;
            }
            for &v in &out {
                assert_eq!(v, next, "strict FIFO");
                next += 1;
            }
        }
        t.join().unwrap();
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn padded_blocks_are_line_separated() {
        // The layout audit in one assertion: the two index blocks must sit
        // at least 128 bytes apart.
        let r = Ring::<u64>::new(2);
        let p = &*r.prod as *const _ as usize;
        let c = &*r.cons as *const _ as usize;
        assert!(p.abs_diff(c) >= 128, "index blocks share a prefetch pair");
    }
}
