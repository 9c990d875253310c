//! Unbounded queues: an outer list of bounded rings (paper §7 /
//! Appendix A), reclaimed with hazard pointers. The list is not
//! lock-free; see "Progress" below.
//!
//! LCRQ and LSCQ obtain unbounded capacity by linking ring buffers through
//! a Michael & Scott list; the wCQ paper sketches the same construction
//! with wCQ rings (and, for full wait-freedom, a CRTurn outer layer — the
//! outer layer here is the Michael & Scott list, as in LSCQ; operations on
//! it are rare, so its cost is dominated by the ring operations, §6).
//!
//! ## Ring hand-off protocol
//!
//! A ring is *closed* when an enqueuer finds it full; closing is sticky.
//! The subtle part is when a dequeuer may abandon a drained ring: an insert
//! that started before the close may still be in flight. We make the
//! hand-off safe with a per-ring in-flight counter:
//!
//! * enqueue: `inflight += 1`; bounce if closed; insert; `inflight -= 1`
//!   (the decrement happens only after the element is *published*).
//! * dequeue: advance past a ring only after observing, in order,
//!   `closed == true`, then `inflight == 0`, then an empty dequeue.
//!   Post-close arrivals may flicker the counter but can never insert, so
//!   `closed ∧ inflight = 0` implies every started insert into the ring is
//!   already visible, making the final empty check conclusive. Elements can
//!   therefore never be stranded in an abandoned ring.
//!
//! Real-time order is preserved: an insert into ring `k+1` that does not
//! overlap an insert into ring `k` can only start after ring `k` was
//! closed, and dequeuers drain ring `k` completely first.
//!
//! ## Progress
//!
//! The rings are wait-free (wCQ) or lock-free (SCQ); the outer list is
//! **neither**. The hand-off above waits: once the head ring drains and a
//! successor is linked, a dequeuer may not leave the ring until it reads
//! `inflight == 0`, and `dequeue_walk` spins, then yields, until it does.
//! So one enqueuer suspended between its `inflight` increment and
//! decrement stops every dequeuer, `UnboundedHandle::dequeue` (which never
//! parks) included. LSCQ's finalize bit, which bounces late tickets to the
//! successor instead of waiting for them, is the fix (ROADMAP item 9).
//!
//! ## Reclamation
//!
//! Abandoned rings are reclaimed through the [`hazard`] crate, exactly as
//! the paper's evaluation reclaims LCRQ/LSCQ rings (§6). Every
//! [`UnboundedHandle`] owns an [`hazard::HpHandle`]; the handle's slot
//! index doubles as the ring thread id, so one registration covers both.
//! The protocol:
//!
//! * **Protect before dereference.** An operation publishes the `head` or
//!   `tail` pointer it is about to follow in a hazard slot and re-validates
//!   the source after publishing (the validate-after-publish loop in
//!   [`hazard::HpHandle::protect`]). A validated pointer cannot be freed
//!   while the hazard stands.
//! * **Unlink from both ends, then retire.** A drained ring is first
//!   CASed out of `tail` (if `tail` still points at it — the appender's
//!   tail CAS is lazy), then out of `head`, and only then retired through
//!   the domain. This tail-advance step is what makes the protect loop on
//!   `tail` conclusive: validation only proves the pointer is *currently*
//!   published, so a retired ring must never be the published `tail`
//!   (tests/unbounded_reclaim.rs pins this down).
//! * **Deferred free.** Retired rings sit in the retiring thread's list
//!   until a scan finds no hazard covering them; handles dropped with
//!   still-protected retirees hand them to the domain's orphan list.
//!
//! There is **no global per-operation counter**: reclamation cost is paid
//! once per ring turnover (every `2^order` inserts) plus an O(threads)
//! scan every [`hazard`] threshold, never on the per-element hot path.
//! Memory in use is bounded by the live list plus
//! `max_threads × HP_PER_THREAD` protected rings plus the scan threshold
//! (see DESIGN.md §8).
//!
//! ORDERING: unbounded list-of-rings: node append/retire/seal linearization
//! relies on the SeqCst total order; downgrade backlog: the ROADMAP
//! `SeqCst` shave-down

use crate::hold::Hold;
use crate::ringpair::{IndexRing, RingPair};
use crate::scq::ScqRing;
use crate::wcq::ring::WcqRing;
use crate::WcqConfig;
use hazard::{Domain, HpHandle};
use std::marker::PhantomData;
use std::ptr;
use crate::sim::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

/// Value of a live ring node's canary word.
const CANARY_ALIVE: u64 = 0x5AFE_81C5_CAFE_F00D;
/// Scribbled over the canary by the destructor, so a freed-but-reachable
/// node fails the liveness assertion instead of silently reading stale
/// memory.
const CANARY_POISON: u64 = 0xDEAD_81C5_DEAD_F00D;

/// Hazard slot publishing the dequeuer's `head` ring.
const HP_HEAD: usize = 0;
/// Hazard slot publishing the enqueuer's `tail` ring.
const HP_TAIL: usize = 1;

/// Spins the `!drained()` wait grants an in-flight enqueuer before yielding
/// its quantum instead (see [`Unbounded::dequeue_walk`]). The yield donates
/// the quantum to an enqueuer preempted *inside* the ring (the mpmc suites
/// run at 4× cores, so that preemption is the common case, and burning the
/// full quantum in `spin_loop` would stall every dequeuer behind it).
const DRAIN_SPIN_BOUND: u32 = 64;

/// A list node: the ring pair (the Fig. 2 layer — Appendix A links bare
/// rings, so a node carries no slot table and no parking state) plus the
/// close protocol's two words, the link and the canary.
///
/// Tid exclusivity for every pair operation in this module: a tid is the
/// hazard-domain slot index of exactly one live [`UnboundedHandle`]
/// (`UnboundedHandle::pin`), whose methods take `&mut self` — so one
/// thread at a time drives it, on every ring of the list.
struct RingNode<T, R: IndexRing> {
    ring: RingPair<T, R>,
    closed: AtomicBool,
    inflight: AtomicUsize,
    next: AtomicPtr<RingNode<T, R>>,
    /// Reclamation tripwire: [`CANARY_ALIVE`] while the node lives,
    /// [`CANARY_POISON`] after its destructor ran. Debug builds assert it
    /// on every ring operation, turning a use-after-free (which plain
    /// multiset checks cannot see — freed `Box` memory usually stays
    /// readable) into a deterministic panic (tests/unbounded_reclaim.rs).
    canary: AtomicU64,
}

impl<T, R: IndexRing> Drop for RingNode<T, R> {
    fn drop(&mut self) {
        self.canary.store(CANARY_POISON, SeqCst);
    }
}

impl<T, R: IndexRing> RingNode<T, R> {
    fn boxed(order: u32, max_threads: usize, cfg: &WcqConfig) -> *mut Self {
        Box::into_raw(Box::new(RingNode {
            ring: RingPair::new(order, max_threads, cfg),
            closed: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            canary: AtomicU64::new(CANARY_ALIVE),
        }))
    }

    /// Asserts (debug builds) that this node has not been reclaimed.
    #[inline]
    fn check_canary(&self) {
        debug_assert_eq!(
            self.canary.load(SeqCst),
            CANARY_ALIVE,
            "unbounded ring operated on after reclamation (tail-lag UAF)"
        );
    }

    /// Enqueue with the close protocol; `Err(v)` = ring closed (caller must
    /// move to the successor ring).
    fn enqueue(&self, tid: usize, v: T) -> Result<(), T> {
        self.check_canary();
        self.inflight.fetch_add(1, SeqCst);
        if self.closed.load(SeqCst) {
            self.inflight.fetch_sub(1, SeqCst);
            return Err(v);
        }
        // SAFETY: tid exclusivity (see the type).
        let r = unsafe { self.ring.enqueue(tid, v) };
        if r.is_err() {
            // Full: close so no later enqueue starts, then bounce.
            self.closed.store(true, SeqCst);
        }
        self.inflight.fetch_sub(1, SeqCst);
        r
    }

    /// Batch enqueue under the close protocol: drains what fits from the
    /// front of `items` and returns the count; a non-empty remainder means
    /// the ring filled (and is now closed) or was already closed.
    fn enqueue_batch(&self, tid: usize, items: &mut Vec<T>) -> usize {
        self.check_canary();
        self.inflight.fetch_add(1, SeqCst);
        if self.closed.load(SeqCst) {
            self.inflight.fetch_sub(1, SeqCst);
            return 0;
        }
        // SAFETY: tid exclusivity (see the type).
        let n = unsafe { self.ring.enqueue_batch(tid, items) };
        if !items.is_empty() {
            self.closed.store(true, SeqCst);
        }
        self.inflight.fetch_sub(1, SeqCst);
        n
    }

    /// `true` when it is safe to abandon this ring (see module docs).
    fn drained(&self) -> bool {
        self.check_canary();
        self.closed.load(SeqCst) && self.inflight.load(SeqCst) == 0
    }
}

/// Unbounded MPMC queue built from rings of `2^order` slots, reclaimed
/// with hazard pointers (see the module docs).
///
/// `Unbounded<T, ScqRing>` is LSCQ; `Unbounded<T, WcqRing>` uses wait-free
/// rings. Neither is lock-free as a whole: a dequeuer waits out an
/// enqueuer suspended mid-insert at a ring hand-off (module docs,
/// "Progress").
pub struct Unbounded<T, R: IndexRing> {
    head: AtomicPtr<RingNode<T, R>>,
    tail: AtomicPtr<RingNode<T, R>>,
    order: u32,
    cfg: WcqConfig,
    max_threads: usize,
    /// Hazard-pointer domain; its slot indices double as ring thread ids.
    domain: Domain,
}

// SAFETY: ring nodes are shared via atomics and reclaimed through the
// hazard domain; values are only handed between threads through the rings'
// own protocols, hence `T: Send`.
unsafe impl<T: Send, R: IndexRing> Send for Unbounded<T, R> {}
// SAFETY: same argument — shared access goes through the rings'
// protocols and the hazard domain.
unsafe impl<T: Send, R: IndexRing> Sync for Unbounded<T, R> {}

/// Unbounded queue over lock-free SCQ rings (LSCQ).
pub type UnboundedScq<T> = Unbounded<T, ScqRing>;
/// Unbounded queue over wait-free wCQ rings (the paper's Appendix A
/// shape; its outer list is not lock-free, see the module docs).
pub type UnboundedWcq<T> = Unbounded<T, WcqRing>;

impl<T: Send, R: IndexRing> Unbounded<T, R> {
    /// Creates a queue whose rings hold `2^order` elements each.
    pub fn new(order: u32, max_threads: usize) -> Self {
        Self::with_config(order, max_threads, &WcqConfig::default())
    }

    /// Creates a queue with explicit ring tuning.
    pub fn with_config(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        let first = RingNode::<T, R>::boxed(order, max_threads, cfg);
        Unbounded {
            head: AtomicPtr::new(first),
            tail: AtomicPtr::new(first),
            order,
            cfg: *cfg,
            max_threads,
            // Retirees here are whole rings (2^order slots each), not
            // little list links, so keep the un-reclaimed backlog short:
            // at most ~2 retired rings per hazard slot before a scan,
            // rather than the domain default's 64-entry floor.
            domain: Domain::with_scan_threshold(
                max_threads,
                (2 * hazard::HP_PER_THREAD).max(max_threads / 2),
            ),
        }
    }

    /// Per-node ring order (`2^order` slots per ring).
    pub fn node_order(&self) -> u32 {
        self.order
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Registers the calling thread. The hazard-domain slot index doubles
    /// as the ring thread id, so a single registration covers both.
    pub fn register(&self) -> Option<UnboundedHandle<T, R, &Self>> {
        UnboundedHandle::pin(self)
    }

    /// Registers the calling thread on an `Arc`-owned queue: the same
    /// [`UnboundedHandle`], holding the queue by `Arc` so it moves freely
    /// into `'static` spawned threads (see [`crate::Hold`]).
    pub fn register_owned(self: &Arc<Self>) -> Option<UnboundedHandle<T, R, Arc<Self>>> {
        UnboundedHandle::pin(Arc::clone(self))
    }

    /// If `node` (the ring at `ltail`) has a successor, helps `tail` over
    /// it and returns `true`; the caller should re-protect and retry.
    fn help_tail(&self, node: &RingNode<T, R>, ltail: *mut RingNode<T, R>) -> bool {
        let next = node.next.load(SeqCst);
        if next.is_null() {
            return false;
        }
        let _ = self.tail.compare_exchange(ltail, next, SeqCst, SeqCst);
        true
    }

    /// Appends a fresh ring seeded with `v` after `node` (the ring at
    /// `ltail`). `Err(v)` returns the value when another thread linked a
    /// successor first.
    fn append_ring(
        &self,
        node: &RingNode<T, R>,
        ltail: *mut RingNode<T, R>,
        tid: usize,
        v: T,
    ) -> Result<(), T> {
        let fresh = RingNode::<T, R>::boxed(self.order, self.max_threads, &self.cfg);
        // SAFETY: we own `fresh` until it is linked, and tid exclusivity
        // holds as on any ring. Seeding an unpublished ring needs no close
        // protocol. A fresh ring rejecting its first element is a geometry
        // bug that must not silently drop the value in release builds,
        // hence the hard expect.
        unsafe { (*fresh).ring.enqueue(tid, v) }
            .map_err(|_| "full")
            .expect("fresh ring rejected its first element");
        if node
            .next
            .compare_exchange(ptr::null_mut(), fresh, SeqCst, SeqCst)
            .is_ok()
        {
            // Debug builds park here, between the two CASes: this is the
            // tail-lag window (successor linked, `tail` not yet advanced).
            // Yielding stretches the window across a scheduler quantum so
            // tests/unbounded_reclaim.rs hits it on every ring turnover
            // instead of requiring a perfectly timed preemption; dequeuers
            // must cope via the tail-advance step in `unlink_and_retire`.
            // Under `wcq_dst` the explorer owns all scheduling, so the
            // tripwire is disabled (it would double-count yield points).
            #[cfg(all(debug_assertions, not(wcq_dst)))]
            std::thread::yield_now();
            let _ = self.tail.compare_exchange(ltail, fresh, SeqCst, SeqCst);
            Ok(())
        } else {
            // Lost the race: take the value back out of our unpublished
            // ring and retry on the winner's ring.
            // SAFETY: `fresh` never became visible to other threads.
            let boxed = unsafe { Box::from_raw(fresh) };
            // SAFETY: tid exclusivity (see `RingNode`).
            let v = unsafe { boxed.ring.dequeue(tid) }
                .expect("unpublished ring holds exactly our element");
            Err(v)
        }
    }

    /// Unlinks the drained ring at `lhead` — from `tail` first, then
    /// `head` — and retires it through the hazard domain.
    fn unlink_and_retire(
        &self,
        lhead: *mut RingNode<T, R>,
        next: *mut RingNode<T, R>,
        hp: &mut HpHandle<'_>,
    ) {
        // Tail-lag invariant (tests/unbounded_reclaim.rs): a drained ring
        // may still be the published `tail` (the appender's tail CAS is
        // lazy), and enqueuers protect-and-validate against `tail` — which
        // is only conclusive if a retired ring can never be the published
        // `tail`. Help `tail` past us first; it only ever moves forward,
        // so after this it can never point at `lhead` again. (Deleting
        // this step would not be an *immediate* use-after-free — the
        // appender's own standing HP_TAIL hazard happens to bridge the
        // retire window — but that bridge is one refactor away from
        // breaking; this CAS keeps the validation argument local, as in
        // Michael & Scott dequeue.)
        if self.tail.load(SeqCst) == lhead {
            let _ = self.tail.compare_exchange(lhead, next, SeqCst, SeqCst);
        }
        if self
            .head
            .compare_exchange(lhead, next, SeqCst, SeqCst)
            .is_ok()
        {
            // Drop our own hazard so the scan below does not keep the ring
            // alive on our account.
            hp.clear_slot(HP_HEAD);
            // SAFETY: `lhead` is unlinked from both `head` and `tail`, and
            // neither ever moves backward, so no new reference to it can be
            // created; it was Box-allocated by `RingNode::boxed` and is
            // retired exactly once (only the winning head-CAS retires).
            unsafe { hp.retire(lhead) };
        }
    }

    fn enqueue_tid(&self, tid: usize, hp: &HpHandle<'_>, mut v: T) {
        // BOUND: wait-edge — outer-list enqueue CAS retry: each failure
        // implies another thread appended a ring or advanced tail
        // (the M&S append is lock-free; the list as a whole is not, see
        // the module docs' "Progress" and DESIGN.md §8)
        loop {
            let ltail = hp.protect(HP_TAIL, &self.tail);
            // SAFETY: `ltail` was re-validated against `tail` after the
            // hazard was published, and a ring is retired only once
            // `tail` has moved past it (which it never un-does), so the
            // validated pointer was not yet retired and the standing
            // hazard now blocks its reclamation.
            let node = unsafe { &*ltail };
            node.check_canary();
            if self.help_tail(node, ltail) {
                continue;
            }
            match node.enqueue(tid, v) {
                Ok(()) => break,
                Err(back) => v = back,
            }
            // Ring closed. If a successor appeared meanwhile, help tail
            // over and retry there; otherwise append one seeded with `v`.
            if self.help_tail(node, ltail) {
                continue;
            }
            match self.append_ring(node, ltail, tid, v) {
                Ok(()) => break,
                Err(back) => v = back,
            }
        }
        hp.clear_slot(HP_TAIL);
    }

    /// The dequeuer's ring walk, shared by the singleton and batch paths:
    /// protects `head`, calls `drain` on the protected ring, and — when
    /// the ring is empty — runs the hand-off protocol (bounded spin then
    /// yield while inserts are in flight, conclusive re-drain, unlink and
    /// retire through the hazard domain). Returns `drain`'s count on the
    /// first call that makes progress, or 0 once the queue is observed
    /// empty.
    fn dequeue_walk<F>(&self, hp: &mut HpHandle<'_>, mut drain: F) -> usize
    where
        F: FnMut(&RingPair<T, R>) -> usize,
    {
        let mut spins = 0u32;
        // BOUND: wait-edge — re-loops when the drained head ring still has
        // a mid-flight enqueuer (!drained residue window); spins
        // DRAIN_SPIN_BOUND then yields, reset on progress
        let got = loop {
            let lhead = hp.protect(HP_HEAD, &self.head);
            // SAFETY: as in `enqueue_tid` — validated against `head`, and
            // retirement requires `head` to have moved past the ring.
            let node = unsafe { &*lhead };
            node.check_canary();
            let got = drain(&node.ring);
            if got > 0 {
                break got;
            }
            let next = node.next.load(SeqCst);
            if next.is_null() {
                break 0; // genuinely empty
            }
            // A successor exists. Re-drain unless the hand-off conditions
            // hold (closed, no in-flight inserts, and still empty). The
            // wait is bounded: a preempted in-flight enqueuer holds
            // `inflight` up for at most a quantum, so spin briefly and
            // then donate ours with the yield.
            if !node.drained() {
                spins += 1;
                if spins <= DRAIN_SPIN_BOUND {
                    crate::sim::spin_loop();
                } else {
                    crate::sim::yield_now();
                }
                continue;
            }
            let got = drain(&node.ring);
            if got > 0 {
                break got;
            }
            self.unlink_and_retire(lhead, next, hp);
            spins = 0; // progress: the next ring starts optimistic
        };
        hp.clear_slot(HP_HEAD);
        got
    }

    fn dequeue_tid(&self, tid: usize, hp: &mut HpHandle<'_>) -> Option<T> {
        let mut out = None;
        // SAFETY: tid exclusivity (see `RingNode`).
        self.dequeue_walk(hp, |ring| match unsafe { ring.dequeue(tid) } {
            Some(v) => {
                out = Some(v);
                1
            }
            None => 0,
        });
        out
    }

    fn enqueue_batch_tid(&self, tid: usize, hp: &HpHandle<'_>, items: &mut Vec<T>) -> usize {
        let total = items.len();
        // Feed the rings one ring-sized chunk at a time. A ring crossing
        // costs O(chunk) (front shifts and the inner batch path's remainder
        // touch only the chunk), so the whole call stays O(total) instead
        // of O(crossings × remaining). `items` is drained in place, so the
        // caller's allocation survives for its next batch.
        let chunk_cap = 1usize << self.order;
        let mut rest = items.drain(..);
        let mut chunk: Vec<T> = Vec::with_capacity(total.min(chunk_cap));
        // BOUND: finite-iter — chunked graft: `rest` strictly shrinks; a
        // chunk rejected by a closed ring is re-offered to the freshly
        // appended ring
        while rest.len() > 0 || !chunk.is_empty() {
            if chunk.is_empty() {
                chunk.extend(rest.by_ref().take(chunk_cap));
            }
            let ltail = hp.protect(HP_TAIL, &self.tail);
            // SAFETY: as in `enqueue_tid`.
            let node = unsafe { &*ltail };
            node.check_canary();
            if self.help_tail(node, ltail) {
                continue;
            }
            node.enqueue_batch(tid, &mut chunk);
            if chunk.is_empty() {
                continue;
            }
            // Ring closed mid-chunk: move to (or create) the successor and
            // continue with the remainder there, preserving order.
            if self.help_tail(node, ltail) {
                continue;
            }
            let v = chunk.remove(0);
            if let Err(back) = self.append_ring(node, ltail, tid, v) {
                chunk.insert(0, back);
            }
        }
        hp.clear_slot(HP_TAIL);
        total
    }

    fn dequeue_batch_tid(
        &self,
        tid: usize,
        hp: &mut HpHandle<'_>,
        out: &mut Vec<T>,
        max: usize,
    ) -> usize {
        let mut total = 0;
        // BOUND: finite-iter — bounded by `max`; exits when a whole walk
        // yields nothing
        while total < max {
            let want = max - total;
            // SAFETY: tid exclusivity (see `RingNode`).
            let got = self.dequeue_walk(hp, |ring| unsafe { ring.dequeue_batch(tid, out, want) });
            if got == 0 {
                break; // observed empty
            }
            total += got;
        }
        total
    }
}

impl<T, R: IndexRing> Unbounded<T, R> {
    /// Quiesces `tid`'s helping records in the rings a departing handle can
    /// still safely reach — the published `head` and `tail`, protected
    /// through the handle's own hazard slots. Called on handle drop,
    /// **before** the hazard slot (and with it the ring thread id) is
    /// released for reuse.
    ///
    /// Scope: a helper drives `tid`'s record only on a ring where `tid`
    /// recently ran a slow-path operation, i.e. a ring that was `head` or
    /// `tail` at that moment. By the time the handle drops, such a ring is
    /// almost always still an end of the list (interior tenure is short:
    /// an interior ring is by definition closed and next in line to drain
    /// and retire). A stale helper on a ring that *did* go interior before
    /// we got here is outside any safe traversal (interior rings cannot be
    /// hazard-validated) and remains covered by the TAG guard exactly as
    /// within-thread record reuse is — see DESIGN.md §10.
    fn quiesce_tid(&self, tid: usize, hp: &HpHandle<'_>) {
        let lhead = hp.protect(HP_HEAD, &self.head);
        // SAFETY: validated against `head` post-publication, as in
        // `dequeue_walk` — the standing hazard blocks reclamation.
        unsafe { &*lhead }.ring.quiesce(tid);
        hp.clear_slot(HP_HEAD);
        let ltail = hp.protect(HP_TAIL, &self.tail);
        // SAFETY: as in `enqueue_tid`.
        unsafe { &*ltail }.ring.quiesce(tid);
        hp.clear_slot(HP_TAIL);
    }
}

impl<T, R: IndexRing> Drop for Unbounded<T, R> {
    fn drop(&mut self) {
        // Retired rings are owned by the hazard domain (freed when the
        // `domain` field drops, right after this); here we free the list
        // that is still linked.
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

/// Per-thread handle to an [`Unbounded`] queue, holding it as `H`
/// (`&Unbounded` from [`Unbounded::register`], `Arc<Unbounded>` from
/// [`Unbounded::register_owned`]; see [`Hold`]). Carries the thread's
/// hazard pointers; dropping it quiesces the reachable rings' helping
/// records (see [`Unbounded`]'s module docs), releases both the hazard
/// slots and the ring thread id, and hands any still-protected retired
/// rings to the domain's orphan list.
pub struct UnboundedHandle<T, R: IndexRing, H: Hold<Unbounded<T, R>>> {
    /// Lifetime-erased hazard handle; its true borrow is of `q`'s domain.
    /// MUST stay declared before `q`: fields drop in declaration order, so
    /// the hazard handle (which touches the domain in its destructor)
    /// drops while `q` still keeps the domain alive.
    hp: HpHandle<'static>,
    tid: usize,
    q: H,
    _item: PhantomData<fn() -> (T, R)>,
}

impl<T: Send, R: IndexRing, H: Hold<Unbounded<T, R>>> UnboundedHandle<T, R, H> {
    fn pin(q: H) -> Option<Self> {
        let hp = q.domain.register()?;
        let tid = hp.idx();
        // SAFETY: `hp` borrows `q.domain` through `H::deref`. `Hold` is
        // sealed to `&Unbounded` / `Arc<Unbounded>`, which keep the queue
        // alive at one address for as long as `q` exists, wherever the
        // handle owning it moves; the struct declares `hp` before `q`, so
        // the lifetime-erased handle drops first, and `hp` never leaves it.
        let hp: HpHandle<'static> = unsafe { std::mem::transmute::<HpHandle<'_>, _>(hp) };
        Some(UnboundedHandle { hp, tid, q, _item: PhantomData })
    }

    /// Enqueues `v`; never fails (capacity grows by appending rings).
    pub fn enqueue(&mut self, v: T) {
        self.q.enqueue_tid(self.tid, &self.hp, v)
    }

    /// Dequeues; `None` when empty.
    pub fn dequeue(&mut self) -> Option<T> {
        self.q.dequeue_tid(self.tid, &mut self.hp)
    }

    /// Batch enqueue: drains **all** of `items` into the queue (appending
    /// rings as needed — unlike the bounded queues nothing is left behind)
    /// and returns how many were enqueued, i.e. the initial `items.len()`.
    ///
    /// Within the current ring the batch claims contiguous ticket runs
    /// through the inner ring's batch path (one F&A per run on wCQ rings);
    /// crossing a ring boundary costs one list append, after which the
    /// remainder continues batched in the successor. Order is preserved.
    ///
    /// # Example
    /// ```
    /// use wcq::UnboundedWcq;
    /// let q: UnboundedWcq<u64> = UnboundedWcq::new(3, 1); // 8-slot rings
    /// let mut h = q.register().unwrap();
    /// let mut items: Vec<u64> = (0..20).collect(); // spans several rings
    /// assert_eq!(h.enqueue_batch(&mut items), 20);
    /// assert!(items.is_empty(), "nothing is ever left behind");
    /// let mut out = Vec::new();
    /// assert_eq!(h.dequeue_batch(&mut out, 64), 20);
    /// assert_eq!(out, (0..20).collect::<Vec<_>>()); // FIFO across rings
    /// ```
    pub fn enqueue_batch(&mut self, items: &mut Vec<T>) -> usize {
        self.q.enqueue_batch_tid(self.tid, &self.hp, items)
    }

    /// Batch dequeue: appends up to `max` elements to `out` in queue order
    /// and returns how many were appended (0 means observed empty). Drains
    /// across ring boundaries, retiring drained rings as it goes.
    pub fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.q.dequeue_batch_tid(self.tid, &mut self.hp, out, max)
    }

    /// The thread slot this handle occupies (diagnostics).
    pub fn tid(&self) -> usize {
        self.tid
    }
}

impl<T, R: IndexRing, H: Hold<Unbounded<T, R>>> Drop for UnboundedHandle<T, R, H> {
    fn drop(&mut self) {
        // Quiesce before the hazard handle (dropped right after this body)
        // releases the domain slot: the slot index doubles as the ring
        // thread id, so releasing it un-quiesced would hand a new
        // registrant records a helper may still be driving.
        self.q.quiesce_tid(self.tid, &self.hp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool as Flag;
    use std::sync::{Arc, Mutex};

    fn fifo_single<R: IndexRing>() {
        let q: Unbounded<u64, R> = Unbounded::new(3, 2); // 8-slot rings
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..100 {
            h.enqueue(i); // forces many ring transitions
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i), "element {i}");
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn fifo_across_rings_scq() {
        fifo_single::<ScqRing>();
    }

    #[test]
    fn fifo_across_rings_wcq() {
        fifo_single::<WcqRing>();
    }

    #[test]
    fn register_exhaustion_and_reuse() {
        let q: UnboundedWcq<u64> = Unbounded::new(3, 2);
        let h1 = q.register().unwrap();
        let _h2 = q.register().unwrap();
        assert!(q.register().is_none());
        drop(h1);
        assert!(q.register().is_some());
    }

    #[test]
    fn interleaved_growth_and_drain() {
        let q: UnboundedWcq<u64> = Unbounded::new(2, 2);
        let mut h = q.register().unwrap();
        let mut next_out = 0u64;
        for i in 0..2000u64 {
            h.enqueue(i);
            if i % 5 != 0 {
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
        assert_eq!(next_out, 2000);
    }

    fn batch_roundtrip<R: IndexRing>() {
        let q: Unbounded<u64, R> = Unbounded::new(2, 2); // 4-slot rings
        let mut h = q.register().unwrap();
        let mut items: Vec<u64> = (0..23).collect();
        // Crosses at least five ring boundaries; nothing may be left over.
        assert_eq!(h.enqueue_batch(&mut items), 23);
        assert!(items.is_empty(), "unbounded enqueue_batch takes everything");
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 10), 10);
        assert_eq!(h.dequeue_batch(&mut out, 100), 13);
        assert_eq!(out, (0..23).collect::<Vec<_>>(), "FIFO across rings");
        assert_eq!(h.dequeue_batch(&mut out, 1), 0, "observed empty");
    }

    #[test]
    fn batch_roundtrip_across_rings_scq() {
        batch_roundtrip::<ScqRing>();
    }

    #[test]
    fn batch_roundtrip_across_rings_wcq() {
        batch_roundtrip::<WcqRing>();
    }

    #[test]
    fn batch_interleaves_with_singletons() {
        let q: UnboundedWcq<u64> = Unbounded::new(2, 1);
        let mut h = q.register().unwrap();
        let mut next = 0u64;
        let mut expect = std::collections::VecDeque::new();
        for round in 0..200 {
            if round % 3 == 0 {
                let mut batch: Vec<u64> = (next..next + 5).collect();
                let n = h.enqueue_batch(&mut batch) as u64;
                assert_eq!(n, 5);
                for v in next..next + n {
                    expect.push_back(v);
                }
                next += n;
            } else {
                h.enqueue(next);
                expect.push_back(next);
                next += 1;
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

    fn mpmc<R: IndexRing + 'static>() {
        let q: Arc<Unbounded<u64, R>> = Arc::new(Unbounded::new(4, 8));
        let done = Arc::new(Flag::new(false));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..4000 {
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
        assert_eq!(got.len(), 12_000);
        let set: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(set.len(), 12_000);
    }

    #[test]
    fn mpmc_exact_delivery_scq_rings() {
        mpmc::<ScqRing>();
    }

    #[test]
    fn mpmc_exact_delivery_wcq_rings() {
        mpmc::<WcqRing>();
    }

    #[test]
    fn values_with_destructors_are_not_leaked() {
        static DROPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        struct D(#[allow(dead_code)] u64);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, SeqCst);
            }
        }
        {
            let q: UnboundedScq<D> = Unbounded::new(2, 1);
            let mut h = q.register().unwrap();
            for i in 0..50 {
                h.enqueue(D(i));
            }
            for _ in 0..10 {
                drop(h.dequeue());
            }
        }
        assert_eq!(DROPS.load(SeqCst), 50);
    }
}
