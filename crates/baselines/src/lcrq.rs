//! LCRQ — Morrison & Afek's fast concurrent queue (PPoPP '13).
//!
//! A linked list (Michael & Scott style) of CRQ ring buffers. Each CRQ uses
//! F&A on `Head`/`Tail` and a double-width CAS per cell `{val, idx}`. CRQs
//! are livelock-prone, so a starving enqueuer *closes* its ring and appends
//! a fresh one to the list — the behaviour responsible for LCRQ's high
//! memory usage in the paper's Fig. 10a (each ring wants ≥ 2^12 cells for
//! performance, and closed rings are wasted space until drained).
//!
//! Values are `u64` below `u64::MAX` (the all-ones word is the cell-empty
//! sentinel, as in the original implementation).
//!
//! ORDERING: baseline kept at its paper's SC presentation for fidelity; perf
//! parity, not ordering tuning, is the goal (DESIGN.md)

use crossbeam_utils::CachePadded;
use dwcas::AtomicPair;
use hazard::{Domain, HpHandle};
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
// See msqueue.rs: must match hazard's `protect` signature under wcq_dst.
#[cfg(not(wcq_dst))]
use std::sync::atomic::AtomicPtr;
#[cfg(wcq_dst)]
use shuttle_lite::atomic::AtomicPtr;

/// Cell-empty sentinel value.
const EMPTY: u64 = u64::MAX;
/// Closed bit in a CRQ's tail counter.
const CLOSED: u64 = 1 << 63;
/// Unsafe bit in a cell's index word.
const UNSAFE: u64 = 1 << 63;
/// An enqueuer closes its ring after this many failed cell attempts even if
/// the ring is not provably full (starvation detection).
const STARVATION: u32 = 16;

struct Crq {
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    next: AtomicPtr<Crq>,
    ring: Box<[AtomicPair]>, // (val, idx) per cell
    mask: u64,
}

impl Crq {
    fn boxed(order: u32) -> *mut Crq {
        let size = 1u64 << order;
        let ring = (0..size).map(|i| AtomicPair::new(EMPTY, i)).collect();
        Box::into_raw(Box::new(Crq {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            next: AtomicPtr::new(ptr::null_mut()),
            ring,
            mask: size - 1,
        }))
    }

    /// Enqueue into this ring; `Err` means the ring is (now) closed.
    fn enqueue(&self, v: u64) -> Result<(), ()> {
        debug_assert_ne!(v, EMPTY);
        let mut tries = 0u32;
        // BOUND: retry-budget — closes the ring after MAX_TRIES failed
        // ticket claims; the caller then appends a fresh CRQ
        loop {
            let t_raw = self.tail.fetch_add(1, SeqCst);
            if t_raw & CLOSED != 0 {
                return Err(());
            }
            let t = t_raw;
            let cell = &self.ring[(t & self.mask) as usize];
            let (val, idx_word) = cell.load2();
            let ix = idx_word & !UNSAFE;
            let uns = idx_word & UNSAFE != 0;
            if val == EMPTY
                && ix <= t
                && (!uns || self.head.load(SeqCst) <= t)
                && cell.compare_exchange2((EMPTY, idx_word), (v, t))
            {
                return Ok(());
            }
            tries += 1;
            // Ring full or starving: close it (tantrum) so the outer list
            // appends a fresh ring.
            let h = self.head.load(SeqCst);
            if t.wrapping_sub(h) >= self.ring.len() as u64 || tries >= STARVATION {
                self.tail.fetch_or(CLOSED, SeqCst);
                return Err(());
            }
        }
    }

    /// Dequeue from this ring; `None` when it is currently empty.
    fn dequeue(&self) -> Option<u64> {
        // BOUND: wait-edge — lock-free CRQ dequeue: a retried pass means a
        // concurrent op moved head/tail; returns None once head reaches
        // tail
        loop {
            let h = self.head.fetch_add(1, SeqCst);
            let cell = &self.ring[(h & self.mask) as usize];
            // BOUND: wait-edge — cell word CAS retry: re-loops only when
            // the cell changed underneath; O(1) transitions per head index
            loop {
                let (val, idx_word) = cell.load2();
                let ix = idx_word & !UNSAFE;
                let uns = idx_word & UNSAFE != 0;
                if ix > h {
                    break; // cell already past our round
                }
                if val != EMPTY {
                    if ix == h {
                        // Our element: take it and advance the cell a round.
                        if cell.compare_exchange2((val, idx_word), (EMPTY, h + self.ring.len() as u64))
                        {
                            return Some(val);
                        }
                    } else {
                        // Value from an older round: mark unsafe so its
                        // (late) dequeuer cannot be fooled.
                        if cell.compare_exchange2((val, idx_word), (val, ix | UNSAFE)) {
                            break;
                        }
                    }
                } else {
                    // Empty cell: advance idx so the late enqueuer of round
                    // `h` skips it.
                    let new_idx = (h + self.ring.len() as u64) | (idx_word & UNSAFE);
                    if cell.compare_exchange2((EMPTY, idx_word), (EMPTY, new_idx)) {
                        break;
                    }
                }
                let _ = uns;
            }
            // Possibly empty.
            let t = self.tail.load(SeqCst) & !CLOSED;
            if t <= h + 1 {
                self.fix_state();
                return None;
            }
        }
    }

    /// Drag a lagging tail up to head after observing emptiness.
    fn fix_state(&self) {
        // BOUND: wait-edge — fix_state CAS retry: failure implies another
        // thread already advanced tail (lock-free)
        loop {
            let h = self.head.load(SeqCst);
            let t_raw = self.tail.load(SeqCst);
            if t_raw & CLOSED != 0 || (t_raw & !CLOSED) >= h {
                return;
            }
            if self
                .tail
                .compare_exchange(t_raw, h, SeqCst, SeqCst)
                .is_ok()
            {
                return;
            }
        }
    }
}

/// LCRQ: lock-free unbounded MPMC queue of `u64` values (`< u64::MAX`).
pub struct Lcrq {
    head: AtomicPtr<Crq>,
    tail: AtomicPtr<Crq>,
    domain: Domain,
    ring_order: u32,
}

// SAFETY: shared state is atomics; CRQ nodes reclaimed through HP.
unsafe impl Send for Lcrq {}
unsafe impl Sync for Lcrq {}

impl Lcrq {
    /// Creates a queue whose rings hold `2^ring_order` cells (the paper
    /// notes ≥ 2^12 is needed for performance; that is the default used by
    /// [`Lcrq::new`]).
    pub fn with_ring_order(max_threads: usize, ring_order: u32) -> Self {
        let first = Crq::boxed(ring_order);
        Lcrq {
            head: AtomicPtr::new(first),
            tail: AtomicPtr::new(first),
            domain: Domain::new(max_threads),
            ring_order,
        }
    }

    /// Creates a queue with the paper's default ring size (2^12).
    pub fn new(max_threads: usize) -> Self {
        Self::with_ring_order(max_threads, 12)
    }

    /// Registers the calling thread.
    pub fn register(&self) -> Option<LcrqHandle<'_>> {
        Some(LcrqHandle {
            q: self,
            hp: self.domain.register()?,
        })
    }
}

impl Drop for Lcrq {
    fn drop(&mut self) {
        let mut p = *self.head.get_mut();
        // BOUND: finite-iter — drop walks the remaining ring chain once
        // under exclusive access
        while !p.is_null() {
            // SAFETY: exclusive access in drop.
            let boxed = unsafe { Box::from_raw(p) };
            p = boxed.next.load(SeqCst);
        }
    }
}

/// Per-thread handle to an [`Lcrq`].
pub struct LcrqHandle<'q> {
    q: &'q Lcrq,
    hp: HpHandle<'q>,
}

impl LcrqHandle<'_> {
    /// Lock-free enqueue.
    pub fn enqueue(&mut self, v: u64) {
        // BOUND: wait-edge — outer-list enqueue retry: each failure implies
        // another thread appended or closed a ring (lock-free, by design of
        // the baseline)
        loop {
            let ltail = self.hp.protect(0, &self.q.tail);
            // SAFETY: ltail protected.
            let next = unsafe { (*ltail).next.load(SeqCst) };
            if !next.is_null() {
                let _ = self.q.tail.compare_exchange(ltail, next, SeqCst, SeqCst);
                continue;
            }
            // SAFETY: ltail protected.
            if unsafe { (*ltail).enqueue(v).is_ok() } {
                self.hp.clear_slot(0);
                return;
            }
            // Ring closed: append a fresh ring seeded with v.
            let fresh = Crq::boxed(self.q.ring_order);
            // SAFETY: we own `fresh` until it is linked.
            unsafe {
                (*fresh)
                    .enqueue(v)
                    .expect("fresh ring cannot be closed or full");
            }
            // SAFETY: ltail protected.
            if unsafe {
                (*ltail)
                    .next
                    .compare_exchange(ptr::null_mut(), fresh, SeqCst, SeqCst)
                    .is_ok()
            } {
                let _ = self.q.tail.compare_exchange(ltail, fresh, SeqCst, SeqCst);
                self.hp.clear_slot(0);
                return;
            }
            // Lost the append race: discard our ring and retry.
            // SAFETY: `fresh` was never published.
            unsafe { drop(Box::from_raw(fresh)) };
        }
    }

    /// Lock-free dequeue; `None` when empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        // BOUND: wait-edge — outer-list dequeue retry: each failure implies
        // another thread unlinked an empty ring
        loop {
            let lhead = self.hp.protect(0, &self.q.head);
            // SAFETY: lhead protected.
            if let Some(v) = unsafe { (*lhead).dequeue() } {
                self.hp.clear_slot(0);
                return Some(v);
            }
            // SAFETY: lhead protected.
            let next = unsafe { (*lhead).next.load(SeqCst) };
            if next.is_null() {
                self.hp.clear_slot(0);
                return None;
            }
            // A successor exists (this ring is closed). Drain once more to
            // close the race with in-flight enqueues, then advance head.
            // SAFETY: lhead protected.
            if let Some(v) = unsafe { (*lhead).dequeue() } {
                self.hp.clear_slot(0);
                return Some(v);
            }
            if self
                .q
                .head
                .compare_exchange(lhead, next, SeqCst, SeqCst)
                .is_ok()
            {
                // SAFETY: lhead unlinked; nobody can re-reach it.
                unsafe { self.hp.retire(lhead) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    #[test]
    fn fifo_single_thread() {
        let q = Lcrq::with_ring_order(1, 4);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..200 {
            h.enqueue(i);
        }
        for i in 0..200 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn overflows_into_new_rings() {
        // Ring of 8 cells, enqueue 100: must chain multiple CRQs while
        // preserving FIFO.
        let q = Lcrq::with_ring_order(1, 3);
        let mut h = q.register().unwrap();
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i), "at element {i}");
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn interleaved_enq_deq_over_closed_rings() {
        let q = Lcrq::with_ring_order(1, 2);
        let mut h = q.register().unwrap();
        let mut next_out = 0;
        for i in 0..1000u64 {
            h.enqueue(i);
            if i % 3 == 0 {
                assert_eq!(h.dequeue(), Some(next_out));
                next_out += 1;
            }
        }
        // BOUND: finite-iter — test drains the finite set of
        // already-enqueued items
        while let Some(v) = h.dequeue() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, 1000);
    }

    #[test]
    fn mpmc_exact_delivery() {
        let q = Arc::new(Lcrq::with_ring_order(8, 6));
        let done = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..5000 {
                        h.enqueue(p << 32 | i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                let done = Arc::clone(&done);
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    let mut h = q.register().unwrap();
                    let mut local = Vec::new();
                    // BOUND: wait-edge — test consumer drains until
                    // producers set the done flag
                    loop {
                        match h.dequeue() {
                            Some(v) => local.push(v),
                            None if done.load(SeqCst) => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    sink.lock().unwrap().extend(local);
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, SeqCst);
        for c in consumers {
            c.join().unwrap();
        }
        let got = sink.lock().unwrap();
        assert_eq!(got.len(), 15_000);
        let set: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(set.len(), 15_000);
    }
}
