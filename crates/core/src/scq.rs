//! SCQ — the lock-free Scalable Circular Queue (Nikolaev, DISC '19).
//!
//! This is the substrate wCQ extends (paper §2, Fig. 3) and one of the
//! evaluated baselines. [`ScqRing`] is the *index* queue: a bounded MPMC
//! queue of integers in `0..n` that is livelock-free thanks to the
//! *threshold* mechanism. [`ScqQueue`] stores arbitrary values by putting
//! two of them under the shared Fig. 2 indirection layer
//! (`crate::ringpair`).
//!
//! Progress: operation-wise lock-free — at least one enqueuer and one
//! dequeuer complete in a bounded number of steps. Memory usage is fixed at
//! construction time.
//!
//! ORDERING: SCQ ring (paper §2): cycle/threshold invariants assume one
//! total order over entry RMWs and head/tail F&As; shaving is the ROADMAP
//! `SeqCst` shave-down

use crate::pack::{pack_s, unpack_s, RingLayout, SEntry};
use crate::ringpair::RingPair;
use crate::WcqConfig;
use crossbeam_utils::CachePadded;
use crate::sim::{AtomicI64, AtomicU64};
use std::sync::atomic::Ordering::SeqCst;

/// Lock-free bounded MPMC queue of indices in `0..n` (`n = 2^order`).
///
/// The ring never checks for fullness on enqueue: callers must uphold the
/// index-queue discipline (at most `n` *distinct live* indices circulate; an
/// index is enqueued at most once until dequeued). [`ScqQueue`] enforces this
/// automatically; direct users of `ScqRing` must do so themselves, otherwise
/// `enqueue` may spin indefinitely (no memory unsafety results).
pub struct ScqRing {
    layout: RingLayout,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    threshold: CachePadded<AtomicI64>,
    entries: Box<[AtomicU64]>,
    max_catchup: u32,
}

impl ScqRing {
    /// Creates an empty ring with `n = 2^order` usable entries.
    pub fn new_empty(order: u32, cfg: &WcqConfig) -> Self {
        let layout = RingLayout::new(order, 3, cfg.remap);
        let init = pack_s(
            &layout,
            SEntry {
                cycle: 0,
                is_safe: true,
                index: layout.bot(),
            },
        );
        let entries = (0..layout.ring_size)
            .map(|_| AtomicU64::new(init))
            .collect();
        ScqRing {
            layout,
            // Head = Tail = 2n: operations start at cycle 1 so that cycle-0
            // initialization entries always compare as stale.
            head: CachePadded::new(AtomicU64::new(layout.ring_size)),
            tail: CachePadded::new(AtomicU64::new(layout.ring_size)),
            threshold: CachePadded::new(AtomicI64::new(-1)),
            entries,
            max_catchup: cfg.max_catchup,
        }
    }

    /// Creates a ring pre-filled with the indices `0..n` (in order). Used for
    /// the free-index queue `fq` of a freshly constructed data queue. Plain
    /// stores through `&mut`, as in [`crate::WcqRing::new_full`]: the ring
    /// is not shared until it is moved into place.
    pub fn new_full(order: u32, cfg: &WcqConfig) -> Self {
        let mut ring = Self::new_empty(order, cfg);
        let l = ring.layout;
        let n = l.n();
        // Tickets 2n .. 3n hold indices 0..n at cycle 1.
        for i in 0..n {
            let ticket = l.ring_size + i;
            ring.entries[l.slot(ticket)] = AtomicU64::new(pack_s(
                &l,
                SEntry {
                    cycle: l.cycle(ticket),
                    is_safe: true,
                    index: i,
                },
            ));
        }
        *ring.tail = AtomicU64::new(l.ring_size + n);
        *ring.threshold = AtomicI64::new(l.threshold_reset());
        ring
    }

    /// Usable capacity `n`.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.layout.n()
    }

    /// The ring geometry (exposed for tests and diagnostics).
    #[inline]
    pub fn layout(&self) -> &RingLayout {
        &self.layout
    }

    /// One fast-path enqueue attempt (Fig. 3, `try_enq`). `Err(t)` returns
    /// the wasted ticket so callers can retry (or, in wCQ, seed a help
    /// request).
    #[inline]
    fn try_enq(&self, index: u64) -> Result<(), u64> {
        let l = &self.layout;
        let t = self.tail.fetch_add(1, SeqCst);
        let j = l.slot(t);
        let cyc = l.cycle(t);
        // BOUND: const — retries only when the slot word changed under CAS;
        // a (slot, cycle) word has O(1) transitions before the guard fails
        // and the attempt returns
        loop {
            let word = self.entries[j].load(SeqCst);
            let e = unpack_s(l, word);
            if e.cycle < cyc
                && (e.index == l.bot() || e.index == l.botc())
                && (e.is_safe || self.head.load(SeqCst) <= t)
            {
                let new = pack_s(
                    l,
                    SEntry {
                        cycle: cyc,
                        is_safe: true,
                        index,
                    },
                );
                if self.entries[j]
                    .compare_exchange(word, new, SeqCst, SeqCst)
                    .is_err()
                {
                    continue; // entry changed under us: re-inspect same slot
                }
                if self.threshold.load(SeqCst) != l.threshold_reset() {
                    self.threshold.store(l.threshold_reset(), SeqCst);
                }
                return Ok(());
            }
            return Err(t);
        }
    }

    /// One fast-path dequeue attempt (Fig. 3, `try_deq`).
    /// `Ok(Some(i))` = got index, `Ok(None)` = definitively empty,
    /// `Err(h)` = retry with a new ticket.
    #[inline]
    fn try_deq(&self) -> Result<Option<u64>, u64> {
        let l = &self.layout;
        let h = self.head.fetch_add(1, SeqCst);
        let j = l.slot(h);
        let cyc = l.cycle(h);
        // BOUND: const — same O(1)-transitions argument for the head
        // ticket; every path resolves the ticket
        loop {
            let word = self.entries[j].load(SeqCst);
            let e = unpack_s(l, word);
            if e.cycle == cyc {
                // Consume: atomically OR ⊥c into the index field.
                debug_assert!(e.index != l.bot() && e.index != l.botc());
                self.entries[j].fetch_or(l.botc(), SeqCst);
                return Ok(Some(e.index));
            }
            // Prepare the invalidation for a stale slot.
            let new = if e.index == l.bot() || e.index == l.botc() {
                // Nothing stored: advance the slot to our cycle so the late
                // enqueuer of this ticket must skip it.
                pack_s(
                    l,
                    SEntry {
                        cycle: cyc,
                        is_safe: e.is_safe,
                        index: l.bot(),
                    },
                )
            } else {
                // Occupied by an older cycle: mark unsafe, keep the value.
                pack_s(
                    l,
                    SEntry {
                        cycle: e.cycle,
                        is_safe: false,
                        index: e.index,
                    },
                )
            };
            if e.cycle < cyc
                && self.entries[j]
                    .compare_exchange(word, new, SeqCst, SeqCst)
                    .is_err()
            {
                continue; // slot changed: re-inspect
            }
            // Possibly empty: compare against Tail and the threshold.
            let t = self.tail.load(SeqCst);
            if t <= h + 1 {
                self.catchup(t, h + 1);
                self.threshold.fetch_sub(1, SeqCst);
                return Ok(None);
            }
            if self.threshold.fetch_sub(1, SeqCst) <= 0 {
                return Ok(None);
            }
            return Err(h);
        }
    }

    /// Bounded `catchup` (Fig. 3): drag `Tail` forward to `Head` after an
    /// empty dequeue so future enqueuers do not chase a huge gap. Purely a
    /// contention optimization; wCQ bounds it explicitly and we reuse the
    /// bounded form here.
    fn catchup(&self, mut tail: u64, mut head: u64) {
        for _ in 0..self.max_catchup {
            if self
                .tail
                .compare_exchange(tail, head, SeqCst, SeqCst)
                .is_ok()
            {
                break;
            }
            head = self.head.load(SeqCst);
            tail = self.tail.load(SeqCst);
            if tail >= head {
                break;
            }
        }
    }

    /// Enqueues an index (spins on fast-path attempts; lock-free).
    ///
    /// See the type-level docs for the index-queue discipline that makes
    /// this total (no full check is needed when at most `n` live indices
    /// circulate).
    #[inline]
    pub fn enqueue(&self, index: u64) {
        debug_assert!(index < self.layout.n());
        // BOUND: capacity — the ring has 2n entries for at most n live
        // indices (freelist/allocated usage), so a ticket that lands on an
        // occupied slot implies other tickets are draining; SCQ's enqueue
        // terminates when occupancy < capacity
        while self.try_enq(index).is_err() {}
    }

    /// Dequeues an index; `None` means empty.
    #[inline]
    pub fn dequeue(&self) -> Option<u64> {
        if self.threshold.load(SeqCst) < 0 {
            return None; // fast empty check
        }
        // BOUND: threshold — paper 3.2: every failed attempt decrements
        // `threshold`; at most threshold_reset misses before Empty
        loop {
            match self.try_deq() {
                Ok(r) => return r,
                Err(_) => continue,
            }
        }
    }

    /// Current threshold value (diagnostics / tests).
    pub fn threshold(&self) -> i64 {
        self.threshold.load(SeqCst)
    }
}

/// Lock-free bounded MPMC queue of `T` values: the Fig. 2 indirection
/// (`RingPair`, crate-private) over two [`ScqRing`]s.
///
/// Capacity is `2^order` elements and all memory is allocated at
/// construction: SCQ's headline property is exactly this bounded footprint.
pub struct ScqQueue<T>(RingPair<T, ScqRing>);

impl<T> ScqQueue<T> {
    /// Creates a queue with capacity `2^order`.
    pub fn new(order: u32) -> Self {
        Self::with_config(order, &WcqConfig::default())
    }

    /// Creates a queue with explicit tuning knobs (remap/catchup ablations).
    pub fn with_config(order: u32, cfg: &WcqConfig) -> Self {
        ScqQueue(RingPair::new(order, 1, cfg))
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Attempts to enqueue; returns `Err(v)` when the queue is full.
    pub fn enqueue(&self, v: T) -> Result<(), T> {
        // SAFETY: `ScqRing` keeps no per-thread state and ignores the tid,
        // so the tid-exclusivity contract is vacuous.
        unsafe { self.0.enqueue(0, v) }
    }

    /// Attempts to dequeue; `None` when empty.
    pub fn dequeue(&self) -> Option<T> {
        // SAFETY: as in `enqueue`.
        unsafe { self.0.dequeue(0) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ringpair::contract;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn ring_starts_empty() {
        let r = ScqRing::new_empty(4, &WcqConfig::default());
        assert_eq!(r.dequeue(), None);
        assert_eq!(r.threshold(), -1);
    }

    #[test]
    fn ring_full_init_yields_all_indices_in_order() {
        let r = ScqRing::new_full(4, &WcqConfig::default());
        let got: Vec<u64> = std::iter::from_fn(|| r.dequeue()).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert_eq!(r.dequeue(), None);
    }

    /// Every word of a ring: entries, `head`, `tail`, `threshold`.
    fn state(r: &mut ScqRing) -> (Vec<u64>, u64, u64, i64) {
        let entries = r.entries.iter_mut().map(|e| *e.get_mut()).collect();
        (
            entries,
            *r.head.get_mut(),
            *r.tail.get_mut(),
            *r.threshold.get_mut(),
        )
    }

    /// `new_full` writes its state with plain stores; it must be exactly
    /// the state `new_empty` reaches by enqueuing `0..n`, in every entry,
    /// `head`, `tail` and `threshold`, and then run as a FIFO ring. Orders
    /// 1–2 are the `idx_bits <= line_shift` no-remap edge.
    #[test]
    fn full_construction_equals_enqueued_fill() {
        for remap in [true, false] {
            let cfg = WcqConfig {
                remap,
                ..WcqConfig::default()
            };
            for order in 1..=10 {
                let ctx = format!("order {order}, remap {remap}");
                let mut built = ScqRing::new_full(order, &cfg);
                let mut filled = ScqRing::new_empty(order, &cfg);
                let n = filled.capacity();
                for i in 0..n {
                    filled.enqueue(i);
                }
                assert_eq!(state(&mut built), state(&mut filled), "{ctx}");
                for i in 0..n {
                    assert_eq!(built.dequeue(), Some(i), "round {i}, {ctx}");
                    built.enqueue(i);
                }
                let got: Vec<u64> = std::iter::from_fn(|| built.dequeue()).collect();
                assert_eq!(got, (0..n).collect::<Vec<_>>(), "{ctx}");
            }
        }
    }

    #[test]
    fn ring_fifo_single_thread() {
        let r = ScqRing::new_empty(5, &WcqConfig::default());
        for i in 0..32 {
            r.enqueue(i);
        }
        for i in 0..32 {
            assert_eq!(r.dequeue(), Some(i));
        }
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn ring_wraps_many_cycles() {
        let r = ScqRing::new_empty(2, &WcqConfig::default());
        for round in 0..1000u64 {
            for i in 0..4 {
                r.enqueue((i + round) % 4);
            }
            for i in 0..4 {
                assert_eq!(r.dequeue(), Some((i + round) % 4));
            }
            assert_eq!(r.dequeue(), None);
        }
    }

    #[test]
    fn threshold_goes_negative_when_drained() {
        let r = ScqRing::new_empty(3, &WcqConfig::default());
        r.enqueue(1);
        assert!(r.threshold() == r.layout().threshold_reset());
        assert_eq!(r.dequeue(), Some(1));
        // Repeated empty dequeues decay the threshold below zero, enabling
        // the O(1) empty fast path.
        for _ in 0..(r.layout().threshold_reset() + 2) {
            assert_eq!(r.dequeue(), None);
        }
        assert!(r.threshold() < 0);
    }

    // The `RingPair` contract (crate::ringpair::contract) over SCQ rings.
    // The batch bodies exercise the `IndexRing` defaults: no contiguous
    // run, so every item takes the singleton fallback.

    #[test]
    fn queue_full_and_empty_semantics() {
        contract::fifo_full_and_empty::<ScqRing>(3);
    }

    #[test]
    fn queue_drops_remaining_elements() {
        contract::drops_remaining::<ScqRing>(5);
    }

    #[test]
    fn queue_wraps_many_cycles() {
        contract::wrap_many_cycles::<ScqRing>();
    }

    #[test]
    fn queue_batch_roundtrip_fifo_and_full() {
        contract::batch_roundtrip_fifo_and_full::<ScqRing>();
    }

    #[test]
    fn queue_batch_interleaves_with_singletons() {
        contract::batch_interleaves_with_singletons::<ScqRing>();
    }

    #[test]
    fn queue_batch_drops_run_destructors() {
        contract::batch_drops_run_destructors::<ScqRing>();
    }

    #[test]
    fn queue_empty_hint_tracks_state() {
        contract::empty_hint_tracks_state::<ScqRing>();
    }

    #[test]
    fn queue_mpmc_exact_delivery() {
        let q: Arc<ScqQueue<u64>> = Arc::new(ScqQueue::new(8));
        let producers = 4u64;
        let per = 5_000u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let v = p << 32 | i;
                    // BOUND: wait-edge — test producer retries a full ring
                    // until consumers drain
                    loop {
                        if q.enqueue(v).is_ok() {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        let consumed = Arc::new(std::sync::Mutex::new(Vec::new()));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut chandles = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            let done = Arc::clone(&done);
            chandles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                // BOUND: wait-edge — test consumer drains until producers
                // set the done flag
                loop {
                    match q.dequeue() {
                        Some(v) => local.push(v),
                        None if done.load(SeqCst) => break,
                        None => std::thread::yield_now(),
                    }
                }
                consumed.lock().unwrap().extend(local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        done.store(true, SeqCst);
        for h in chandles {
            h.join().unwrap();
        }
        let got = consumed.lock().unwrap();
        assert_eq!(got.len() as u64, producers * per);
        let set: HashSet<u64> = got.iter().copied().collect();
        assert_eq!(set.len() as u64, producers * per, "duplicate delivery");
    }

    #[test]
    fn queue_per_producer_fifo() {
        let q: Arc<ScqQueue<u64>> = Arc::new(ScqQueue::new(6));
        let producers = 3u64;
        let per = 3_000u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    // BOUND: wait-edge — test producer retries a full ring
                    // with yield
                    while q.enqueue(p << 32 | i).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut last = vec![-1i64; producers as usize];
            let mut count = 0;
            // BOUND: wait-edge — test consumer counts up to the fixed
            // production total
            while count < producers * per {
                if let Some(v) = q2.dequeue() {
                    let (p, i) = ((v >> 32) as usize, (v & 0xffff_ffff) as i64);
                    assert!(i > last[p], "per-producer order violated");
                    last[p] = i;
                    count += 1;
                }
            }
        });
        for h in handles {
            h.join().unwrap();
        }
        consumer.join().unwrap();
    }
}
