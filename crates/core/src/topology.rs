//! Topology-specialized channel core: private SPSC rings as the fast
//! path, the wait-free wCQ queue as an overflow lane (DESIGN.md §11).
//!
//! A channel declared SPSC or MPSC at construction runs on
//! [`crate::spsc::Ring`]s — one private ring per declared producer, one
//! sweeping consumer — with no helping records, no DWCAS, no threshold
//! probes on the hot path. The declared topology is *enforced
//! dynamically* through **seats**: an endpoint claims its seat (one per
//! declared producer, one consumer seat) on its first operation, holds it
//! for its whole lifetime, and releases it on `Drop`. A `Sender` clone
//! beyond the declared producer count finds every seat taken and triggers
//! the one-way **upgrade**: it builds the wait-free [`WcqQueue`] spine and
//! becomes a spine producer permanently. The public channel surface never
//! changes shape.
//!
//! # The overflow-lane protocol
//!
//! The spine is grafted *alongside* the rings, never in place of them:
//!
//! 1. Seated producers keep pushing to their private rings — an upgrade
//!    does not slow down endpoints that honor the declared topology.
//!    Excess producers enqueue on the spine, and the path an endpoint
//!    takes is sticky for its lifetime.
//! 2. The consumer-seat holder sweeps the rings and, once the spine
//!    exists, polls it after the rings. Excess receivers read neither
//!    lane; they inherit the seat when its holder drops.
//! 3. No element ever moves between representations: there is no drain,
//!    no quiescence window, and nothing for a racing operation to
//!    overlap with — conservation is structural. Per-producer FIFO holds
//!    because each endpoint's elements traverse exactly one lane in
//!    order; cross-lane (and cross-producer) ordering is relaxed, the
//!    same contract [`crate::ShardedWcq`] documents for cross-shard
//!    ordering.
//!
//! The spine is published through a [`OnceLock`] plus a monotone mode
//! word (`FAST → SPINE`), so "which lanes exist" is a single `Acquire`
//! load on the hot path and never changes back.
//!
//! # Parking and the fenced notify
//!
//! A core carries no parking state, and nothing here waits: an operation
//! that finds its lane full or empty — or no consumer seat, or on the
//! spine no free thread slot — misses, and the channel that owns the core
//! parks the caller on its own [`crate::sync::SyncState`]. The channel
//! notifies after every successful operation and after every endpoint
//! drop (which frees seats and spine slots). Ring operations and seat
//! releases are plain `Release` stores, so the channel uses the fenced
//! variants ([`crate::sync::SyncState::notify_not_empty_fenced`]) — the
//! store→load barrier that keeps a concurrently registering waiter from
//! missing the change.
//!
//! # Out-of-declaration receivers
//!
//! The consumer seat is a slot: a `Receiver` that does not hold it reaches
//! nothing, neither the rings nor the spine. Its operations miss exactly
//! like an endpoint with no free thread slot — `try_recv` reports
//! *empty*, never `Closed`, and the blocking and async forms park on
//! `not_empty` — until the holder's drop hands the seat over and notifies
//! (DESIGN.md §11). [`TopoEndpoint::residue_hint`] is that seat test. No
//! element is lost: the seat holder (or whoever inherits the seat) drains
//! both lanes. Declare the real consumer count (use
//! [`crate::channel::bounded`] for MPMC): an excess receiver waits out the
//! holder's whole tenure.
//!
//! This module is the backend; the public face is
//! [`crate::channel::spsc`] / [`crate::channel::mpsc`].

use crate::pack::MAX_ORDER;
use crate::sim::{AtomicBool, AtomicU8, OnceLock};
use crate::spsc::Ring;
use crate::{WcqConfig, WcqHandle, WcqQueue};
use std::ptr::NonNull;
use std::sync::atomic::Ordering::{Acquire, Relaxed, SeqCst};
use std::sync::Arc;

/// Only the declared rings exist.
const FAST: u8 = 0;
/// Terminal: the spine lane is built and published.
const SPINE: u8 = 1;

/// Shared state of a topology-declared channel: the rings, the seats, the
/// mode word, and the (lazily built) spine. Owned by `Arc` inside the
/// channel's shared state; user code never touches it directly.
pub struct TopoCore<T: Send> {
    /// One private SPSC ring per declared producer seat.
    rings: Box<[Ring<T>]>,
    /// Producer seats, index-matched to `rings`. Claimed on an endpoint's
    /// first enqueue, released on its drop — touched once per endpoint
    /// lifetime, never per operation.
    prod_seats: Box<[AtomicBool]>,
    /// The single declared consumer seat.
    cons_seat: AtomicBool,
    /// `FAST` / `SPINE`, monotone.
    mode: AtomicU8,
    /// The wCQ overflow lane, built by the first excess producer.
    spine: OnceLock<Arc<WcqQueue<T>>>,
    /// Spine geometry, fixed at construction (see [`Self::with_rings`]).
    spine_order: u32,
    spine_threads: usize,
    cfg: WcqConfig,
}

impl<T: Send> TopoCore<T> {
    /// SPSC core: one producer ring of `2^order` slots.
    pub fn spsc(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        Self::with_rings(1, order, max_threads, cfg)
    }

    /// MPSC core: `senders` producer rings of `2^order` slots each.
    pub fn mpsc(senders: usize, order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        Self::with_rings(senders, order, max_threads, cfg)
    }

    /// `rings` producer rings of `2^order` slots; the spine (if ever
    /// built) gets `max(1, order + ceil(log2(rings)))` bits — at least the
    /// declared fast-lane capacity again, and never below a wCQ ring's
    /// smallest order — and `max_threads` thread slots (the post-upgrade
    /// analogue of [`crate::channel::bounded`]'s `max_threads` contract).
    /// A spine order no ring can take is rejected here, not inside the
    /// grafting `send`.
    fn with_rings(rings: usize, order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        assert!(rings >= 1, "at least one producer seat");
        assert!(max_threads >= 1, "at least one thread slot");
        let spine_order = (order + rings.next_power_of_two().trailing_zeros()).max(1);
        assert!(
            spine_order <= MAX_ORDER,
            "spine order {spine_order} exceeds the ring limit {MAX_ORDER}"
        );
        assert!(
            max_threads <= 1usize << spine_order,
            "max_threads must not exceed spine capacity (k <= n)"
        );
        TopoCore {
            rings: (0..rings).map(|_| Ring::new(order)).collect(),
            prod_seats: (0..rings).map(|_| AtomicBool::new(false)).collect(),
            cons_seat: AtomicBool::new(false),
            mode: AtomicU8::new(FAST),
            spine: OnceLock::new(),
            spine_order,
            spine_threads: max_threads,
            cfg: *cfg,
        }
    }

    /// Declared producer count.
    pub fn declared_senders(&self) -> usize {
        self.rings.len()
    }

    /// Current backend label, for diagnostics (the channel's `backend()`):
    /// `"spsc-ring"`, `"mpsc-rings"`, or — once the overflow lane exists —
    /// `"wcq-spine"`.
    pub fn backend_name(&self) -> &'static str {
        // ORDERING: seat-table read: observes the seat holder's
        // publication; pairs with the SeqCst seat claim/store — cover: dst
        // models 4, 6
        match self.mode.load(Acquire) {
            FAST if self.rings.len() == 1 => "spsc-ring",
            FAST => "mpsc-rings",
            _ => "wcq-spine",
        }
    }

    /// `true` once the wCQ spine lane has been grafted on.
    pub fn upgraded(&self) -> bool {
        // ORDERING: seat-table read: observes the seat holder's
        // publication; pairs with the SeqCst seat claim/store
        self.mode.load(Acquire) == SPINE
    }

    /// Registers an endpoint. Never fails: seats are claimed lazily by the
    /// endpoint's first operation (exceeding the declared topology there
    /// routes the endpoint to the spine lane, not an error).
    pub fn register(self: &Arc<Self>) -> TopoEndpoint<T> {
        TopoEndpoint {
            core: Arc::clone(self),
            prod_path: ProdPath::Undecided,
            cursor: None,
            spine: None,
        }
    }

    /// The address of ring `i`, as an endpoint caches it. It stays valid
    /// while the core lives: `rings` is a boxed slice, never moved or
    /// resized after construction.
    fn ring_at(&self, i: usize) -> NonNull<Ring<T>> {
        NonNull::from(&self.rings[i])
    }

    /// The index of the ring at `ring`, an address from [`Self::ring_at`]
    /// — its seat in `prod_seats`, or its place in the consumer's sweep.
    fn seat_of(&self, ring: NonNull<Ring<T>>) -> usize {
        // SAFETY: `ring` came from `ring_at` on this core, so it points
        // into the `rings` allocation, at a whole element.
        let i = unsafe { ring.as_ptr().offset_from(self.rings.as_ptr()) };
        i as usize // in `0..rings.len()`, so the cast is exact
    }

    /// Claims the lowest free producer seat and returns its ring's
    /// address, or `None` when every seat is owned by a live endpoint
    /// (topology exceeded). The `SeqCst` CAS pairs with the release store
    /// in `TopoEndpoint::drop`, ordering a dead predecessor's ring accesses
    /// before the new owner's.
    // ORDERING: the Relaxed load is an advisory mode/occupancy probe;
    // decisions re-validated by the seat CAS; the CAS is the endpoint seat
    // claim/publish handoff and graft-mode latch; cold path, kept SeqCst
    // until a weak-DST model argues otherwise
    fn claim_prod_seat(&self) -> Option<NonNull<Ring<T>>> {
        for (i, seat) in self.prod_seats.iter().enumerate() {
            if !seat.load(Relaxed) && seat.compare_exchange(false, true, SeqCst, SeqCst).is_ok() {
                return Some(self.ring_at(i));
            }
        }
        None
    }

    // ORDERING: the Relaxed load is an advisory mode/occupancy probe;
    // decisions re-validated by the seat CAS; the CAS is the endpoint seat
    // claim/publish handoff and graft-mode latch; cold path, kept SeqCst
    // until a weak-DST model argues otherwise
    fn claim_cons_seat(&self) -> bool {
        !self.cons_seat.load(Relaxed)
            && self
                .cons_seat
                .compare_exchange(false, true, SeqCst, SeqCst)
                .is_ok()
    }

    /// Builds (or joins) the spine lane and publishes `SPINE`. Idempotent;
    /// racing excess producers serialize on the `OnceLock`.
    fn ensure_spine(&self) -> &Arc<WcqQueue<T>> {
        let spine = self.spine.get_or_init(|| {
            Arc::new(WcqQueue::with_config(
                self.spine_order,
                self.spine_threads,
                &self.cfg,
            ))
        });
        // ORDERING: advisory mode/occupancy probe; decisions re-validated
        // by the seat CAS
        if self.mode.load(Relaxed) != SPINE {
            // Release: a reader that sees SPINE sees the initialized lock.
            // ORDERING: endpoint seat claim/publish handoff and graft-mode
            // latch; cold path, kept SeqCst until a weak-DST model argues
            // otherwise
            self.mode.store(SPINE, SeqCst);
        }
        spine
    }
}

/// Which lane a producer endpoint committed to. Sticky: switching lanes
/// mid-stream would interleave one producer's elements across two
/// independently ordered sources and break its FIFO.
enum ProdPath<T: Send> {
    /// No enqueue yet; decided by the first one.
    Undecided,
    /// Seated: the private ring at this address (into the core's
    /// `rings`), for life.
    Ring(NonNull<Ring<T>>),
    /// Excess: the wCQ spine, for life.
    Spine,
}

/// A lazily seated endpoint over a [`TopoCore`] — the `Topo` arm of the
/// channel's internal endpoint enum. One endpoint serves one side: the
/// channel's `Sender` only enqueues (claiming a producer seat on first
/// use), its `Receiver` only dequeues (claiming the consumer seat).
///
/// A seated endpoint caches its ring's address, so a hit reaches the ring
/// without going through `core` or bounds-checking an index. The address
/// points into `core.rings`, a boxed slice that never moves, and `core`
/// keeps it alive for the endpoint's whole life; the seat makes this
/// endpoint the ring's one producer, or its one consumer.
pub struct TopoEndpoint<T: Send> {
    core: Arc<TopoCore<T>>,
    /// Producer lane, decided by the first enqueue.
    prod_path: ProdPath<T>,
    /// The consumer seat and the sweep cursor in one: `Some(ring)` while
    /// this endpoint holds the seat, pointing at the ring it drains first
    /// (sticky, so a busy producer is consumed in runs instead of
    /// round-robin churn). The seat claim sets it to the first ring, and
    /// only the sweep moves it. Excess receivers (`None`) retry the
    /// (cheap, `Relaxed`-guarded) claim each operation so they inherit
    /// the rings when the holder drops.
    cursor: Option<NonNull<Ring<T>>>,
    /// Spine handle, acquired lazily by the first spine-lane operation.
    spine: Option<WcqHandle<T, Arc<WcqQueue<T>>>>,
}

// SAFETY: the ring addresses are the only fields that are not `Send` on
// their own. They point into `core.rings`, which this endpoint keeps
// alive, and `Ring<T>` is `Send + Sync` for `T: Send`; moving the endpoint
// moves its seat with it, and the seat is what makes the ring accesses
// exclusive, on whichever thread.
unsafe impl<T: Send> Send for TopoEndpoint<T> {}
// SAFETY: through `&TopoEndpoint` no ring is reached: every method that
// dereferences a cached address takes `&mut self`, and the rest of the
// endpoint is `Sync` for `T: Send`.
unsafe impl<T: Send> Sync for TopoEndpoint<T> {}

impl<T: Send> TopoEndpoint<T> {
    /// Decides (once) and returns this producer's lane: its ring's
    /// address, or `None` for the spine.
    fn prod_seat(&mut self) -> Option<NonNull<Ring<T>>> {
        match self.prod_path {
            ProdPath::Ring(ring) => Some(ring),
            ProdPath::Spine => None,
            ProdPath::Undecided => match self.core.claim_prod_seat() {
                Some(ring) => {
                    self.prod_path = ProdPath::Ring(ring);
                    Some(ring)
                }
                None => {
                    // Cloned past the declared topology: graft the spine
                    // and stay on it.
                    self.core.ensure_spine();
                    self.prod_path = ProdPath::Spine;
                    None
                }
            },
        }
    }

    /// The cursor, claiming the consumer seat first if this endpoint
    /// lacks it; `None` while another endpoint holds the seat.
    fn claim_consumer(&mut self) -> Option<NonNull<Ring<T>>> {
        if self.cursor.is_none() && self.core.claim_cons_seat() {
            self.cursor = Some(self.core.ring_at(0));
        }
        self.cursor
    }

    /// This endpoint's spine handle, registered on first use; `None` while
    /// all of the spine's `max_threads` slots are taken — the same contract
    /// as the channel's lazy slot acquisition on the other backends.
    fn spine_handle(&mut self) -> Option<&mut WcqHandle<T, Arc<WcqQueue<T>>>> {
        if self.spine.is_none() {
            let spine = self.core.spine.get().expect("mode SPINE implies spine");
            self.spine = spine.register_owned();
        }
        self.spine.as_mut()
    }

    /// Non-blocking enqueue; `Err(v)` when this producer's lane — its
    /// private ring, or the spine — is full, or the spine has no free
    /// thread slot. A seated producer's ring filling up reports full even
    /// if the spine exists: its elements may not change lanes.
    ///
    /// Inline: a seated producer's one `push`, on the cached ring address.
    /// The seat claim, the graft and the spine lane are
    /// `enqueue_unseated`, out of line (DESIGN.md §3.1's layout rule).
    #[inline]
    pub fn try_enqueue(&mut self, v: T) -> Result<(), T> {
        if let ProdPath::Ring(ring) = self.prod_path {
            // SAFETY: `ring` points into `self.core.rings`, alive while
            // `self.core` is; the claimed seat makes this endpoint the
            // ring's unique producer until it drops.
            return unsafe { ring.as_ref().push(v) };
        }
        self.enqueue_unseated(v)
    }

    /// [`Self::try_enqueue`] off the seated ring: decides the lane on the
    /// first enqueue, then pushes (a new seat) or enqueues on the spine.
    #[cold]
    #[inline(never)]
    fn enqueue_unseated(&mut self, v: T) -> Result<(), T> {
        match self.prod_seat() {
            // SAFETY: as in `try_enqueue`.
            Some(ring) => unsafe { ring.as_ref().push(v) },
            None => match self.spine_handle() {
                Some(h) => h.enqueue(v),
                None => Err(v),
            },
        }
    }

    /// Non-blocking dequeue; `None` when every lane is observed empty, the
    /// spine has no free thread slot, or another endpoint holds the
    /// consumer seat (see the module docs on out-of-declaration
    /// receivers).
    ///
    /// Inline: a seat holder's one `pop` on the cursor's ring. A miss
    /// there, and a receiver without the seat, take
    /// `dequeue_sweep`, out of line. The cursor moves only when
    /// the sweep finds a value on another ring, so a run of hits writes
    /// nothing to the endpoint.
    #[inline]
    pub fn try_dequeue(&mut self) -> Option<T> {
        if let Some(ring) = self.cursor {
            // SAFETY: `ring` points into `self.core.rings`, alive while
            // `self.core` is; the consumer seat makes this endpoint the
            // unique ring consumer until it drops.
            if let Some(v) = unsafe { ring.as_ref().pop() } {
                return Some(v);
            }
        }
        self.dequeue_sweep()
    }

    /// [`Self::try_dequeue`] past the cursor's ring: claims the consumer
    /// seat if this endpoint lacks it, sweeps the rings once from the
    /// cursor (skipping the cursor's ring if the inline path just missed
    /// on it), then polls the spine.
    #[cold]
    #[inline(never)]
    fn dequeue_sweep(&mut self) -> Option<T> {
        let missed_cursor = self.cursor.is_some();
        let cursor = self.claim_consumer()?;
        let n = self.core.rings.len();
        let next = |r: usize| if r + 1 == n { 0 } else { r + 1 };
        let at = self.core.seat_of(cursor);
        let (mut r, left) = if missed_cursor {
            (next(at), n - 1)
        } else {
            (at, n)
        };
        for _ in 0..left {
            // SAFETY: the consumer seat, as in `try_dequeue`.
            if let Some(v) = unsafe { self.core.rings[r].pop() } {
                self.cursor = Some(self.core.ring_at(r)); // sticky: drain this producer in runs
                return Some(v);
            }
            r = next(r);
        }
        // ORDERING: seat-table read: observes the seat holder's
        // publication; pairs with the SeqCst seat claim/store
        if self.core.mode.load(Acquire) == SPINE {
            return self.spine_handle()?.dequeue();
        }
        None
    }

    /// `true` while this endpoint does not hold the consumer seat, so the
    /// channel may hold elements it cannot reach (DESIGN.md §11). The
    /// dequeue paths use this to refuse `Closed`: the holder's drop hands
    /// this endpoint the seat. A seat holder reaches everything on a
    /// closed channel — every spine slot is free to it by then.
    pub fn residue_hint(&self) -> bool {
        self.cursor.is_none()
    }

    /// Batch enqueue: drains as many items as fit from the front of
    /// `items`; on the ring lane through one zero-copy reservation (a
    /// single Release publication for the whole run). Returns how many
    /// items were taken.
    pub fn enqueue_batch(&mut self, items: &mut Vec<T>) -> usize {
        if items.is_empty() {
            return 0;
        }
        match self.prod_seat() {
            // SAFETY: claimed seat on a live ring, as in `try_enqueue`.
            Some(ring) => match unsafe { ring.as_ref().reserve(items.len()) } {
                Some(mut res) => {
                    let n = res.capacity();
                    for v in items.drain(..n) {
                        res.write(v)
                            .unwrap_or_else(|_| panic!("reservation window matches drain length"));
                    }
                    res.commit();
                    n
                }
                None => 0,
            },
            None => self.spine_handle().map_or(0, |h| h.enqueue_batch(items)),
        }
    }

    /// Batch dequeue: sweeps the rings once from the cursor, then tops up
    /// from the spine lane, appending up to `max` elements to `out`;
    /// returns how many were appended (0 without the consumer seat).
    pub fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let Some(cursor) = self.claim_consumer() else {
            return 0;
        };
        let mut got = 0;
        let n = self.core.rings.len();
        let mut r = self.core.seat_of(cursor);
        for _ in 0..n {
            // SAFETY: consumer seat, as in `try_dequeue`.
            let took = unsafe { self.core.rings[r].pop_batch(out, max - got) };
            if took > 0 {
                self.cursor = Some(self.core.ring_at(r));
                got += took;
                if got == max {
                    break;
                }
            }
            r += 1;
            if r == n {
                r = 0;
            }
        }
        // ORDERING: seat-table read: observes the seat holder's
        // publication; pairs with the SeqCst seat claim/store
        if got < max && self.core.mode.load(Acquire) == SPINE {
            if let Some(h) = self.spine_handle() {
                got += h.dequeue_batch(out, max - got);
            }
        }
        got
    }
}

impl<T: Send> Drop for TopoEndpoint<T> {
    // ORDERING: endpoint seat claim/publish handoff and graft-mode latch;
    // cold path, kept SeqCst until a weak-DST model argues otherwise
    fn drop(&mut self) {
        // Hand the seats back so a later endpoint can take over the
        // position (a ring's residue stays where it is; the next seat
        // holder appends — or sweeps — after it). The SeqCst store pairs
        // with the claim CAS to order this owner's ring accesses before
        // the successor's. The cached addresses die with the endpoint.
        if let ProdPath::Ring(ring) = self.prod_path {
            self.core.prod_seats[self.core.seat_of(ring)].store(false, SeqCst);
        }
        if self.cursor.is_some() {
            // The channel notifies both lanes after this drop: the release
            // may surface ring residue to parked receivers.
            self.core.cons_seat.store(false, SeqCst);
        }
        // `self.spine` (if any) drops after: quiesced slot release.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(rings: usize, order: u32) -> Arc<TopoCore<u64>> {
        Arc::new(TopoCore::with_rings(
            rings,
            order,
            4, // k <= n even for the tiniest spine these tests build
            &WcqConfig::default(),
        ))
    }

    #[test]
    fn spsc_roundtrip_stays_fast() {
        let c = core(1, 4);
        let mut tx = c.register();
        let mut rx = c.register();
        for i in 0..100 {
            tx.try_enqueue(i).unwrap();
            assert_eq!(rx.try_dequeue(), Some(i));
        }
        assert_eq!(c.backend_name(), "spsc-ring");
        assert!(!c.upgraded());
    }

    #[test]
    fn mpsc_per_producer_fifo_under_sweep() {
        let c = core(3, 4);
        let mut txs: Vec<_> = (0..3).map(|_| c.register()).collect();
        let mut rx = c.register();
        for round in 0..10u64 {
            for (p, tx) in txs.iter_mut().enumerate() {
                tx.try_enqueue((p as u64) << 32 | round).unwrap();
            }
        }
        let mut next = [0u64; 3];
        // BOUND: finite-iter — test drains already-enqueued items via
        // try_dequeue until None
        while let Some(v) = rx.try_dequeue() {
            let (p, seq) = ((v >> 32) as usize, v & 0xffff_ffff);
            assert_eq!(seq, next[p], "per-producer FIFO");
            next[p] += 1;
        }
        assert_eq!(next, [10, 10, 10]);
        assert_eq!(c.backend_name(), "mpsc-rings");
    }

    #[test]
    fn excess_producer_takes_spine_lane() {
        let c = core(1, 4);
        let mut tx1 = c.register();
        let mut rx = c.register();
        for i in 0..10 {
            tx1.try_enqueue(i).unwrap();
        }
        // A second producer on a declared-SPSC core: seat claim fails and
        // the spine lane is grafted on.
        let mut tx2 = c.register();
        tx2.try_enqueue(100).unwrap();
        assert!(c.upgraded());
        assert_eq!(c.backend_name(), "wcq-spine");
        // The seated producer keeps its ring — and its FIFO — untouched.
        tx1.try_enqueue(10).unwrap();
        let got: Vec<u64> = std::iter::from_fn(|| rx.try_dequeue()).collect();
        // The seated consumer drains the rings before polling the spine.
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100]);
    }

    #[test]
    fn excess_receiver_sees_no_lane_until_seat_handover() {
        let c = core(1, 4);
        let mut tx = c.register();
        let mut rx1 = c.register();
        tx.try_enqueue(1).unwrap();
        assert_eq!(rx1.try_dequeue(), Some(1)); // rx1 now holds the seat
        tx.try_enqueue(2).unwrap();
        let mut tx2 = c.register();
        tx2.try_enqueue(100).unwrap(); // grafts the spine
        let mut rx2 = c.register();
        let mut out = Vec::new();
        assert_eq!(
            rx2.try_dequeue(),
            None,
            "no seat: neither lane is reachable"
        );
        assert_eq!(rx2.dequeue_batch(&mut out, 4), 0, "not in a batch either");
        assert!(rx2.residue_hint());
        drop(rx1); // hands the seat over
        assert_eq!(rx2.try_dequeue(), Some(2), "the ring residue first");
        assert_eq!(rx2.try_dequeue(), Some(100), "then the spine");
        assert!(!rx2.residue_hint());
    }

    #[test]
    fn receiver_inherits_seat_after_drop() {
        let c = core(1, 4);
        let mut tx = c.register();
        {
            let mut rx1 = c.register();
            tx.try_enqueue(1).unwrap();
            assert_eq!(rx1.try_dequeue(), Some(1));
            tx.try_enqueue(2).unwrap();
        } // rx1 drops; the consumer seat frees with residue buffered
        let mut rx2 = c.register();
        assert_eq!(rx2.try_dequeue(), Some(2), "successor sweeps the rings");
        assert!(!c.upgraded());
    }

    #[test]
    fn seat_release_lets_successor_take_over() {
        let c = core(1, 4);
        let mut rx = c.register();
        {
            let mut tx = c.register();
            tx.try_enqueue(1).unwrap();
        } // seat released with one element still buffered
        let mut tx2 = c.register();
        tx2.try_enqueue(2).unwrap(); // same seat, same ring, no spine
        assert!(!c.upgraded());
        assert_eq!(rx.try_dequeue(), Some(1));
        assert_eq!(rx.try_dequeue(), Some(2));
    }

    #[test]
    fn full_ring_hands_value_back_even_with_spine() {
        let c = core(1, 2); // 4 slots
        let mut tx = c.register();
        for i in 0..4 {
            tx.try_enqueue(i).unwrap();
        }
        assert_eq!(tx.try_enqueue(99), Err(99));
        // Grafting the spine does not reroute a seated producer: its lane
        // is sticky, so the full ring still reports full.
        let mut tx2 = c.register();
        tx2.try_enqueue(100).unwrap();
        assert!(c.upgraded());
        assert_eq!(tx.try_enqueue(99), Err(99));
    }

    #[test]
    fn batch_ops_roundtrip_across_rings() {
        let c = core(2, 3);
        let mut tx1 = c.register();
        let mut tx2 = c.register();
        let mut rx = c.register();
        let mut a: Vec<u64> = (0..5).collect();
        let mut b: Vec<u64> = (100..105).collect();
        assert_eq!(tx1.enqueue_batch(&mut a), 5);
        assert_eq!(tx2.enqueue_batch(&mut b), 5);
        let mut out = Vec::new();
        assert_eq!(rx.dequeue_batch(&mut out, 100), 10);
        // One sweep: ring 0's run, then ring 1's — each in FIFO order.
        let (r0, r1): (Vec<u64>, Vec<u64>) = out.iter().partition(|&&v| v < 100);
        assert_eq!(r0, (0..5).collect::<Vec<_>>());
        assert_eq!(r1, (100..105).collect::<Vec<_>>());
    }

    #[test]
    fn batch_dequeue_tops_up_from_spine() {
        let c = core(1, 3);
        let mut tx1 = c.register();
        let mut tx2 = c.register();
        let mut rx = c.register();
        tx1.try_enqueue(1).unwrap();
        tx2.try_enqueue(100).unwrap(); // spine lane
        let mut out = Vec::new();
        assert_eq!(rx.dequeue_batch(&mut out, 10), 2);
        assert_eq!(out, vec![1, 100], "rings first, then the spine");
    }

    #[test]
    fn spine_grafts_once_under_racing_excess_producers() {
        for _ in 0..20 {
            // 6 spine slots: the receiver and all four racers may hold one
            // at once (the seed producer keeps the ring seat). With fewer
            // slots than live spine endpoints the racers can fill the spine
            // while the receiver still spins for a slot to drain it with.
            let c = Arc::new(TopoCore::with_rings(1, 6, 6, &WcqConfig::default()));
            let mut rx = c.register();
            let mut seed = c.register();
            for i in 0..32 {
                seed.try_enqueue(i).unwrap();
            }
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        let mut tx = c.register();
                        for i in 0..64u64 {
                            // Tag above the seed producer's 0..32 range.
                            let mut v = (t as u64 + 1) << 32 | i;
                            // BOUND: wait-edge — test producer retries a
                            // full ring until the consumer frees space
                            while let Err(back) = tx.try_enqueue(v) {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let mut got = Vec::new();
            // BOUND: wait-edge — test consumer collects the fixed expected
            // count
            while got.len() < 32 + 4 * 64 {
                match rx.try_dequeue() {
                    Some(v) => got.push(v),
                    None => std::thread::yield_now(),
                }
            }
            for t in threads {
                t.join().unwrap();
            }
            assert!(c.upgraded());
            assert_eq!(rx.try_dequeue(), None);
            // The seed producer's ring residue came out in order.
            let seeded: Vec<u64> = got.iter().copied().filter(|v| *v < 32).collect();
            assert_eq!(seeded, (0..32).collect::<Vec<_>>());
            // Each racing excess producer kept its FIFO through the spine.
            for t in 1..=4u64 {
                let lane: Vec<u64> = got
                    .iter()
                    .copied()
                    .filter(|v| v >> 32 == t)
                    .map(|v| v & 0xffff_ffff)
                    .collect();
                assert_eq!(lane, (0..64).collect::<Vec<_>>());
            }
        }
    }
}
