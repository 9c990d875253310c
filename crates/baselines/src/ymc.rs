//! YMC — Yang & Mellor-Crummey's "wait-free queue as fast as fetch-and-add"
//! (PPoPP '16), in the reproduction scope documented in `DESIGN.md` §3.4.
//!
//! What is reproduced faithfully:
//! * the **fast path**: F&A-allocated tickets over an *infinite array* of
//!   cells realized as a linked list of fixed-size segments;
//! * the **segment memory model and its reclamation flaw**: segments are
//!   only freed below the minimum position published by *all* registered
//!   handles, so a single stalled thread makes memory grow without bound —
//!   the behaviour the wCQ paper highlights (and Fig. 10a measures);
//! * empty detection via `Tail`/`Head` comparison plus `fix_state`.
//!
//! What is simplified: the helping slow path. Instead of YMC's
//! enqueue/dequeue request descriptors and peer chasing, a dequeuer waits a
//! bounded number of spins for the matching enqueuer before invalidating the
//! cell (standing in for YMC's `help_enq`), after which both sides retry
//! with fresh tickets. This keeps the measured fast path and memory
//! behaviour while avoiding the (independently known-flawed, see
//! Ramalhete & Correia) wait-free bookkeeping.
//!
//! ORDERING: baseline kept at its paper's SC presentation for fidelity; perf
//! parity, not ordering tuning, is the goal (DESIGN.md)

use crossbeam_utils::CachePadded;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering::SeqCst};

/// log2(cells per segment). YMC uses 2^10 cells per segment.
const SEG_ORDER: u32 = 10;
const SEG_SIZE: usize = 1 << SEG_ORDER;

/// Cell states. Values are stored with an offset so that user payloads can
/// use the full range below `u64::MAX - 2`.
const CELL_EMPTY: u64 = 0;
const CELL_TOP: u64 = 1; // dequeuer invalidated the cell ("⊤" in Fig. 1)
const VAL_OFFSET: u64 = 2;

/// How long a dequeuer waits for its matching enqueuer before invalidating
/// the cell (stand-in for YMC's helping; see module docs).
const DEQ_PATIENCE: u32 = 512;

struct Segment {
    id: u64,
    cells: Box<[AtomicU64]>,
    next: AtomicPtr<Segment>,
}

impl Segment {
    fn boxed(id: u64) -> *mut Segment {
        Box::into_raw(Box::new(Segment {
            id,
            cells: (0..SEG_SIZE).map(|_| AtomicU64::new(CELL_EMPTY)).collect(),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

#[repr(align(128))]
struct HandleSlot {
    active: AtomicBool,
    /// Low-water mark: the minimum segment id this handle may still touch.
    /// `u64::MAX` when idle-from-birth. Never decreases.
    hzd: AtomicU64,
}

/// YMC-style unbounded MPMC queue of `u64` values (`< u64::MAX - 2`).
pub struct YmcQueue {
    tail: CachePadded<AtomicU64>,
    head: CachePadded<AtomicU64>,
    /// Oldest retained segment.
    seg_head: AtomicPtr<Segment>,
    slots: Box<[HandleSlot]>,
    /// Serializes reclamation sweeps.
    reclaim_lock: AtomicBool,
    /// Live segment counter (memory diagnostics; Fig. 10a uses the
    /// allocator-level census, this is the structural view).
    live_segments: AtomicU64,
}

// SAFETY: cells and counters are atomics; segment reclamation is guarded by
// the published per-handle low-water marks (see `reclaim`).
unsafe impl Send for YmcQueue {}
unsafe impl Sync for YmcQueue {}

impl YmcQueue {
    /// Creates an empty queue admitting `max_threads` handles.
    pub fn new(max_threads: usize) -> Self {
        let first = Segment::boxed(0);
        YmcQueue {
            tail: CachePadded::new(AtomicU64::new(0)),
            head: CachePadded::new(AtomicU64::new(0)),
            seg_head: AtomicPtr::new(first),
            slots: (0..max_threads)
                .map(|_| HandleSlot {
                    active: AtomicBool::new(false),
                    hzd: AtomicU64::new(u64::MAX),
                })
                .collect(),
            reclaim_lock: AtomicBool::new(false),
            live_segments: AtomicU64::new(1),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> Option<YmcHandle<'_>> {
        for (i, s) in self.slots.iter().enumerate() {
            if s.active
                .compare_exchange(false, true, SeqCst, SeqCst)
                .is_ok()
            {
                let head_seg = self.seg_head.load(SeqCst);
                s.hzd.store(0, SeqCst);
                return Some(YmcHandle {
                    q: self,
                    slot: i,
                    enq_seg: head_seg,
                    deq_seg: head_seg,
                    ops: 0,
                });
            }
        }
        None
    }

    /// Number of segments currently allocated (diagnostics).
    pub fn live_segments(&self) -> u64 {
        self.live_segments.load(SeqCst)
    }

    /// Forces a reclamation sweep (diagnostics/tests; normally triggered
    /// every 128 operations per handle).
    pub fn reclaim_now(&self) {
        self.reclaim();
    }

    /// Frees segments no handle can reach anymore. This is YMC's flawed
    /// reclamation: the sweep is limited by the *minimum* published
    /// low-water mark, so one stalled handle pins everything after it.
    fn reclaim(&self) {
        if self
            .reclaim_lock
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_err()
        {
            return;
        }
        let min_seg = self
            .slots
            .iter()
            .filter(|s| s.active.load(SeqCst))
            .map(|s| s.hzd.load(SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        // Also bounded by the global counters (positions not yet issued).
        let floor = (self.head.load(SeqCst).min(self.tail.load(SeqCst))) >> SEG_ORDER;
        let limit = min_seg.min(floor);
        let mut p = self.seg_head.load(SeqCst);
        // SAFETY: only the reclaim-lock holder advances seg_head, and no
        // handle navigates below its published hzd (≥ limit).
        unsafe {
            // BOUND: finite-iter — reclaim walk: segment id strictly
            // increases toward `limit` each step
            while (*p).id < limit {
                let next = (*p).next.load(SeqCst);
                if next.is_null() {
                    break;
                }
                self.seg_head.store(next, SeqCst);
                drop(Box::from_raw(p));
                self.live_segments.fetch_sub(1, SeqCst);
                p = next;
            }
        }
        self.reclaim_lock.store(false, SeqCst);
    }
}

impl Drop for YmcQueue {
    fn drop(&mut self) {
        let mut p = *self.seg_head.get_mut();
        // BOUND: finite-iter — drop walks the remaining segment chain once
        // under exclusive access
        while !p.is_null() {
            // SAFETY: exclusive access in drop.
            let boxed = unsafe { Box::from_raw(p) };
            p = boxed.next.load(SeqCst);
        }
    }
}

/// Per-thread handle to a [`YmcQueue`].
pub struct YmcHandle<'q> {
    q: &'q YmcQueue,
    slot: usize,
    enq_seg: *mut Segment,
    deq_seg: *mut Segment,
    ops: u32,
}

// SAFETY: cached segment pointers are guarded by this handle's published
// low-water mark.
unsafe impl Send for YmcHandle<'_> {}

impl YmcHandle<'_> {
    /// Publishes this handle's low-water mark and periodically reclaims.
    #[inline]
    fn op_prologue(&mut self) {
        // SAFETY: cached segments are protected by the previous hzd value.
        let low = unsafe { (*self.enq_seg).id.min((*self.deq_seg).id) };
        self.q.slots[self.slot].hzd.store(low, SeqCst);
        self.ops = self.ops.wrapping_add(1);
        if self.ops.is_multiple_of(128) {
            self.q.reclaim();
        }
    }

    /// Walks/extends the segment list to the segment holding `ticket`,
    /// starting from this handle's cache (never backwards — tickets are
    /// monotonic per counter). `live` is bumped for every segment this call
    /// actually appends.
    #[inline]
    fn find_cell(cache: &mut *mut Segment, ticket: u64, live: &AtomicU64) -> &'static AtomicU64 {
        let seg_id = ticket >> SEG_ORDER;
        let mut s = *cache;
        // SAFETY: `s` is protected by this handle's hzd (id ≥ hzd) and
        // segments ahead of it are never freed before it.
        unsafe {
            debug_assert!((*s).id <= seg_id, "navigation went backwards");
            // BOUND: finite-iter — find_cell navigation: id strictly
            // increases toward `seg_id`, allocating missing segments on the
            // way
            while (*s).id < seg_id {
                let mut next = (*s).next.load(SeqCst);
                if next.is_null() {
                    let fresh = Segment::boxed((*s).id + 1);
                    match (*s)
                        .next
                        .compare_exchange(ptr::null_mut(), fresh, SeqCst, SeqCst)
                    {
                        Ok(_) => {
                            live.fetch_add(1, SeqCst);
                            next = fresh;
                        }
                        Err(cur) => {
                            drop(Box::from_raw(fresh));
                            next = cur;
                        }
                    }
                }
                s = next;
            }
            *cache = s;
            // Lifetime laundering: the cell lives as long as the segment,
            // which outlives this op thanks to the hzd protocol.
            &*(&(*s).cells[(ticket & (SEG_SIZE as u64 - 1)) as usize] as *const AtomicU64)
        }
    }

    /// Enqueue (F&A fast path of YMC).
    pub fn enqueue(&mut self, v: u64) {
        debug_assert!(v < u64::MAX - VAL_OFFSET);
        self.op_prologue();
        // BOUND: wait-edge — ticket retry: the simplified YMC stand-in is
        // lock-free, not the paper's wait-free path; a burned ticket
        // implies concurrent progress
        loop {
            let t = self.q.tail.fetch_add(1, SeqCst);
            let cell = Self::find_cell(&mut self.enq_seg, t, &self.q.live_segments);
            if cell
                .compare_exchange(CELL_EMPTY, v + VAL_OFFSET, SeqCst, SeqCst)
                .is_ok()
            {
                return;
            }
            // Cell invalidated by a dequeuer: burn the ticket and retry.
        }
    }

    /// Dequeue; `None` when empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        self.op_prologue();
        // BOUND: wait-edge — dequeue ticket retry (lock-free stand-in);
        // empty exit via fix_state
        loop {
            let h = self.q.head.fetch_add(1, SeqCst);
            let cell = Self::find_cell(&mut self.deq_seg, h, &self.q.live_segments);
            // Bounded wait for the matching enqueuer (helping stand-in).
            let mut spins = 0u32;
            // BOUND: retry-budget — waits for the matching enqueuer at most
            // DEQ_PATIENCE spins, then abandons the cell
            while cell.load(SeqCst) == CELL_EMPTY && spins < DEQ_PATIENCE {
                spins += 1;
                std::hint::spin_loop();
            }
            let v = cell.swap(CELL_TOP, SeqCst);
            if v > CELL_TOP {
                return Some(v - VAL_OFFSET);
            }
            // We invalidated an empty cell. Empty queue?
            let t = self.q.tail.load(SeqCst);
            if t <= h + 1 {
                self.fix_state(h + 1);
                return None;
            }
        }
    }

    /// `fix_state`: drag a lagging tail up to head after an empty dequeue.
    fn fix_state(&self, h: u64) {
        // BOUND: wait-edge — fix_state CAS retry: failure implies another
        // thread already advanced tail
        loop {
            let t = self.q.tail.load(SeqCst);
            if t >= h {
                return;
            }
            if self.q.tail.compare_exchange(t, h, SeqCst, SeqCst).is_ok() {
                return;
            }
        }
    }
}

impl Drop for YmcHandle<'_> {
    fn drop(&mut self) {
        let s = &self.q.slots[self.slot];
        s.hzd.store(u64::MAX, SeqCst);
        s.active.store(false, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool as Flag;
    use std::sync::{Arc, Mutex};

    #[test]
    fn fifo_single_thread() {
        let q = YmcQueue::new(1);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn crosses_segment_boundaries() {
        let q = YmcQueue::new(1);
        let mut h = q.register().unwrap();
        let count = (SEG_SIZE * 3 + 17) as u64;
        for i in 0..count {
            h.enqueue(i);
        }
        assert!(q.live_segments() >= 3, "must have allocated segments");
        for i in 0..count {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn reclamation_frees_consumed_segments() {
        let q = YmcQueue::new(1);
        let mut h = q.register().unwrap();
        for round in 0..20u64 {
            for i in 0..SEG_SIZE as u64 {
                h.enqueue(round * SEG_SIZE as u64 + i);
            }
            for _ in 0..SEG_SIZE {
                assert!(h.dequeue().is_some());
            }
        }
        q.reclaim();
        // All but a handful of trailing segments must have been freed.
        assert!(
            q.live_segments() <= 4,
            "segments leaked: {}",
            q.live_segments()
        );
    }

    #[test]
    fn stalled_handle_pins_memory_the_ymc_flaw() {
        let q = YmcQueue::new(2);
        let stalled = q.register().unwrap(); // publishes hzd = 0, then stalls
        let mut h = q.register().unwrap();
        for i in 0..(SEG_SIZE as u64 * 8) {
            h.enqueue(i);
            let _ = h.dequeue();
        }
        q.reclaim();
        assert!(
            q.live_segments() >= 8,
            "a stalled handle must pin segments (the documented YMC flaw); live = {}",
            q.live_segments()
        );
        drop(stalled);
        q.reclaim();
        assert!(q.live_segments() <= 4, "after the stalled handle departs, memory is reclaimed");
    }

    #[test]
    fn mpmc_exact_delivery() {
        let q = Arc::new(YmcQueue::new(8));
        let done = Arc::new(Flag::new(false));
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
