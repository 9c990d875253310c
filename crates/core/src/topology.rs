//! Topology-specialized channel core: private SPSC rings, one per declared
//! producer, and one sweeping consumer (DESIGN.md §11).
//!
//! A channel declared SPSC or MPSC at construction runs on
//! [`crate::spsc::Ring`]s — one private ring per declared producer, one
//! sweeping consumer — with no helping records, no DWCAS, no threshold
//! probes anywhere. The declared topology is *enforced dynamically*
//! through **seats**: an endpoint claims its seat (one per declared
//! producer, one consumer seat) on its first operation, holds it for its
//! whole lifetime, and releases it on `Drop`. The channel never changes
//! representation: the rings are all there is, so `channel::spsc` is
//! strictly FIFO and `channel::mpsc` FIFO per producer.
//!
//! # Parking and the fenced notify
//!
//! A core carries no parking state, and nothing here waits: an operation
//! that finds its ring full or empty, or no seat, misses, and the channel
//! that owns the core parks the caller on its own
//! [`crate::sync::SyncState`]. The channel notifies after every
//! successful operation and after every endpoint drop (which frees
//! seats). Ring operations and seat releases are plain stores, so the
//! channel uses the fenced variants
//! ([`crate::sync::SyncState::notify_not_empty_fenced`]) — the store→load
//! barrier that keeps a concurrently registering waiter from missing the
//! change.
//!
//! # Out-of-declaration endpoints
//!
//! Every seat is a slot. A `Sender` that finds every producer seat taken
//! reaches no ring: `try_send` reports *full* and `send_batch` takes
//! nothing, and the blocking, deadline and async forms park on `not_full`
//! until a seated sender's drop hands its seat over and notifies. A
//! `Receiver` without the consumer seat likewise reaches no ring:
//! `try_recv` reports *empty*, never `Closed`, and the blocking and async
//! forms park on `not_empty` until the holder's drop hands the seat over
//! (DESIGN.md §11). [`TopoEndpoint::residue_hint`] is that consumer-seat
//! test. No element is lost: a ring's residue stays where it is, and the
//! seat's next holder appends after it, or drains it. Declare the real
//! endpoint counts (use [`crate::channel::bounded`] for MPMC): an excess
//! endpoint waits out a holder's whole tenure.
//!
//! This module is the backend; the public face is
//! [`crate::channel::spsc`] / [`crate::channel::mpsc`].

use crate::sim::AtomicBool;
use crate::spsc::Ring;
use crate::WcqConfig;
use std::ptr::NonNull;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Arc;

/// Shared state of a topology-declared channel: the rings and their
/// seats. Owned by `Arc` inside the channel's shared state; user code
/// never touches it directly.
pub struct TopoCore<T: Send> {
    /// One private SPSC ring per declared producer seat.
    rings: Box<[Ring<T>]>,
    /// Producer seats, index-matched to `rings`. Claimed on an endpoint's
    /// first enqueue, released on its drop — touched once per endpoint
    /// lifetime, never per operation.
    prod_seats: Box<[AtomicBool]>,
    /// The single declared consumer seat.
    cons_seat: AtomicBool,
}

impl<T: Send> TopoCore<T> {
    /// SPSC core: one producer ring of `2^order` slots. `max_threads` and
    /// `cfg` are unused: no topology endpoint takes a thread slot.
    pub fn spsc(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        let _ = (max_threads, cfg);
        Self::with_rings(1, order)
    }

    /// MPSC core: `senders` producer rings of `2^order` slots each.
    /// `max_threads` and `cfg` are unused, as on [`Self::spsc`].
    pub fn mpsc(senders: usize, order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        let _ = (max_threads, cfg);
        Self::with_rings(senders, order)
    }

    fn with_rings(rings: usize, order: u32) -> Self {
        assert!(rings >= 1, "at least one producer seat");
        TopoCore {
            rings: (0..rings).map(|_| Ring::new(order)).collect(),
            prod_seats: (0..rings).map(|_| AtomicBool::new(false)).collect(),
            cons_seat: AtomicBool::new(false),
        }
    }

    /// Declared producer count.
    pub fn declared_senders(&self) -> usize {
        self.rings.len()
    }

    /// Backend label, for diagnostics (the channel's `backend()`):
    /// `"spsc-ring"` or `"mpsc-rings"`.
    pub fn backend_name(&self) -> &'static str {
        if self.rings.len() == 1 {
            "spsc-ring"
        } else {
            "mpsc-rings"
        }
    }

    /// Registers an endpoint. Never fails: seats are claimed lazily by the
    /// endpoint's first operation (finding none there is a miss, not an
    /// error).
    pub fn register(self: &Arc<Self>) -> TopoEndpoint<T> {
        TopoEndpoint {
            core: Arc::clone(self),
            prod: None,
            cursor: None,
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
    /// address, or `None` when every seat is owned by a live endpoint.
    /// The `SeqCst` CAS pairs with the release store in
    /// `TopoEndpoint::drop`, ordering a dead predecessor's ring accesses
    /// before the new owner's.
    // ORDERING: the Relaxed load is an advisory occupancy probe; decisions
    // re-validated by the seat CAS; the CAS is the endpoint seat
    // claim/publish handoff; cold path, kept SeqCst until a weak-DST model
    // argues otherwise
    fn claim_prod_seat(&self) -> Option<NonNull<Ring<T>>> {
        for (i, seat) in self.prod_seats.iter().enumerate() {
            if !seat.load(Relaxed) && seat.compare_exchange(false, true, SeqCst, SeqCst).is_ok() {
                return Some(self.ring_at(i));
            }
        }
        None
    }

    // ORDERING: as `claim_prod_seat` — cover: dst models 4, 6
    fn claim_cons_seat(&self) -> bool {
        !self.cons_seat.load(Relaxed)
            && self
                .cons_seat
                .compare_exchange(false, true, SeqCst, SeqCst)
                .is_ok()
    }
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
    /// The producer seat: `Some(ring)` once this endpoint holds one, the
    /// private ring it pushes to for life (switching rings mid-stream
    /// would break its FIFO). Without a seat (`None`) each enqueue retries
    /// the claim, so the endpoint inherits a seat when its holder drops.
    prod: Option<NonNull<Ring<T>>>,
    /// The consumer seat and the sweep cursor in one: `Some(ring)` while
    /// this endpoint holds the seat, pointing at the ring it drains first
    /// (sticky, so a busy producer is consumed in runs instead of
    /// round-robin churn). The seat claim sets it to the first ring, and
    /// only the sweep moves it. Excess receivers (`None`) retry the
    /// (cheap, `Relaxed`-guarded) claim each operation so they inherit
    /// the rings when the holder drops.
    cursor: Option<NonNull<Ring<T>>>,
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
    /// The producer's ring, claiming a producer seat first if this
    /// endpoint lacks one; `None` while every seat is held.
    fn claim_producer(&mut self) -> Option<NonNull<Ring<T>>> {
        if self.prod.is_none() {
            self.prod = self.core.claim_prod_seat();
        }
        self.prod
    }

    /// The cursor, claiming the consumer seat first if this endpoint
    /// lacks it; `None` while another endpoint holds the seat.
    fn claim_consumer(&mut self) -> Option<NonNull<Ring<T>>> {
        if self.cursor.is_none() && self.core.claim_cons_seat() {
            self.cursor = Some(self.core.ring_at(0));
        }
        self.cursor
    }

    /// Non-blocking enqueue; `Err(v)` when this producer's ring is full,
    /// or every producer seat is held by another endpoint.
    ///
    /// Inline: a seated producer's one `push`, on the cached ring address.
    /// The seat claim is `enqueue_unseated`, out of line (DESIGN.md §3.1's
    /// layout rule).
    #[inline]
    pub fn try_enqueue(&mut self, v: T) -> Result<(), T> {
        if let Some(ring) = self.prod {
            // SAFETY: `ring` points into `self.core.rings`, alive while
            // `self.core` is; the claimed seat makes this endpoint the
            // ring's unique producer until it drops.
            return unsafe { ring.as_ref().push(v) };
        }
        self.enqueue_unseated(v)
    }

    /// [`Self::try_enqueue`] without a seat: claims one, then pushes.
    #[cold]
    #[inline(never)]
    fn enqueue_unseated(&mut self, v: T) -> Result<(), T> {
        match self.claim_producer() {
            // SAFETY: as in `try_enqueue`.
            Some(ring) => unsafe { ring.as_ref().push(v) },
            None => Err(v),
        }
    }

    /// Non-blocking dequeue; `None` when every ring is observed empty, or
    /// another endpoint holds the consumer seat (see the module docs on
    /// out-of-declaration endpoints).
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
    /// seat if this endpoint lacks it, then sweeps the rings once from the
    /// cursor (skipping the cursor's ring if the inline path just missed
    /// on it).
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
        None
    }

    /// `true` while this endpoint does not hold the consumer seat, so the
    /// channel may hold elements it cannot reach (DESIGN.md §11). The
    /// dequeue paths use this to refuse `Closed`: the holder's drop hands
    /// this endpoint the seat.
    pub fn residue_hint(&self) -> bool {
        self.cursor.is_none()
    }

    /// Batch enqueue: drains as many items as fit from the front of
    /// `items` through one zero-copy reservation on this producer's ring
    /// (a single Release publication for the whole run). Returns how many
    /// items were taken (0 without a producer seat).
    pub fn enqueue_batch(&mut self, items: &mut Vec<T>) -> usize {
        if items.is_empty() {
            return 0;
        }
        let Some(ring) = self.claim_producer() else {
            return 0;
        };
        // SAFETY: claimed seat on a live ring, as in `try_enqueue`.
        let Some(mut res) = (unsafe { ring.as_ref().reserve(items.len()) }) else {
            return 0;
        };
        let n = res.capacity();
        for v in items.drain(..n) {
            res.write(v)
                .unwrap_or_else(|_| panic!("reservation window matches drain length"));
        }
        res.commit();
        n
    }

    /// Batch dequeue: sweeps the rings once from the cursor, appending up
    /// to `max` elements to `out`; returns how many were appended (0
    /// without the consumer seat).
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
        got
    }
}

impl<T: Send> Drop for TopoEndpoint<T> {
    // ORDERING: endpoint seat claim/publish handoff; cold path, kept
    // SeqCst until a weak-DST model argues otherwise
    fn drop(&mut self) {
        // Hand the seats back so a later endpoint can take over the
        // position (a ring's residue stays where it is; the next seat
        // holder appends — or sweeps — after it). The SeqCst store pairs
        // with the claim CAS to order this owner's ring accesses before
        // the successor's. The channel notifies both lanes after this
        // drop: an excess sender may be parked for the producer seat, an
        // excess receiver for the consumer seat. The cached addresses die
        // with the endpoint.
        if let Some(ring) = self.prod {
            self.core.prod_seats[self.core.seat_of(ring)].store(false, SeqCst);
        }
        if self.cursor.is_some() {
            self.core.cons_seat.store(false, SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(rings: usize, order: u32) -> Arc<TopoCore<u64>> {
        Arc::new(TopoCore::with_rings(rings, order))
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
    fn excess_producer_misses_until_the_seat_frees() {
        let c = core(1, 4);
        let mut tx1 = c.register();
        let mut rx = c.register();
        for i in 0..10 {
            tx1.try_enqueue(i).unwrap();
        }
        // A second producer on a declared-SPSC core: every seat is held,
        // so it reaches no ring, singly or in a batch, with room to spare.
        let mut tx2 = c.register();
        assert_eq!(tx2.try_enqueue(100), Err(100));
        let mut batch = vec![100, 101];
        assert_eq!(tx2.enqueue_batch(&mut batch), 0);
        assert_eq!(batch, [100, 101], "the batch rides back whole");
        tx1.try_enqueue(10).unwrap();
        drop(tx1); // hands the seat over, residue and all
        tx2.try_enqueue(100).unwrap();
        assert_eq!(tx2.enqueue_batch(&mut batch), 2);
        let got: Vec<u64> = std::iter::from_fn(|| rx.try_dequeue()).collect();
        // One ring, so one order: the holder's values, then its heir's.
        assert_eq!(got, (0..=10).chain([100, 100, 101]).collect::<Vec<_>>());
    }

    #[test]
    fn excess_receiver_sees_no_lane_until_seat_handover() {
        let c = core(1, 4);
        let mut tx = c.register();
        let mut rx1 = c.register();
        tx.try_enqueue(1).unwrap();
        assert_eq!(rx1.try_dequeue(), Some(1)); // rx1 now holds the seat
        tx.try_enqueue(2).unwrap();
        let mut rx2 = c.register();
        let mut out = Vec::new();
        assert_eq!(rx2.try_dequeue(), None, "no seat: no ring is reachable");
        assert_eq!(rx2.dequeue_batch(&mut out, 4), 0, "not in a batch either");
        assert!(rx2.residue_hint());
        drop(rx1); // hands the seat over
        assert_eq!(rx2.try_dequeue(), Some(2), "the ring residue");
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
        tx2.try_enqueue(2).unwrap(); // same seat, same ring
        assert_eq!(rx.try_dequeue(), Some(1));
        assert_eq!(rx.try_dequeue(), Some(2));
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
    fn racing_producers_share_one_seat_in_turns() {
        // Four producers race for one seat, each sending a fixed run and
        // then dropping, so the seat passes from thread to thread. A loser
        // spins on its miss until a holder's drop frees the seat: every
        // value arrives once, and the ring keeps strict FIFO, so each
        // producer's run arrives whole, never interleaved with another's.
        for _ in 0..20 {
            let c = core(1, 3); // 8 slots: runs fill the ring
            let mut rx = c.register();
            let threads: Vec<_> = (0..4u64)
                .map(|t| {
                    let c = Arc::clone(&c);
                    std::thread::spawn(move || {
                        let mut tx = c.register();
                        for i in 0..16u64 {
                            let mut v = t << 32 | i;
                            // BOUND: wait-edge — test producer retries a
                            // full ring or a held seat until the consumer
                            // frees space or the holder drops
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
            while got.len() < 4 * 16 {
                match rx.try_dequeue() {
                    Some(v) => got.push(v),
                    None => std::thread::yield_now(),
                }
            }
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(rx.try_dequeue(), None);
            for run in got.chunks(16) {
                let t = run[0] >> 32;
                let want: Vec<u64> = (0..16).map(|i| t << 32 | i).collect();
                assert_eq!(run, want, "one holder's run, whole and in order");
            }
        }
    }
}
