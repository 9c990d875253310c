//! Sharded front-end over multiple wCQ ring pairs.
//!
//! The paper's evaluation (§6) shows the single `Head`/`Tail` F&A pair is
//! what saturates first as threads grow; memory never does. [`ShardedWcq`]
//! splits that contention point across `S` independent wCQ rings — each
//! still wait-free and bounded, so the paper's headline guarantees survive
//! per shard — the way Jiffy and other multi-queue designs scale past a
//! single F&A hotspot.
//!
//! ## Ordering contract
//!
//! * Every handle owns a fixed **enqueue affinity shard** (`tid mod S`), so
//!   one producer's values live in one shard in FIFO order: per-producer
//!   FIFO is preserved exactly as in the single-ring queue.
//! * Dequeue **rotates** over shards starting from a per-handle cursor that
//!   sticks to the last non-empty shard, and visits every shard before
//!   reporting empty. Cross-producer interleaving is therefore relaxed
//!   (values from different shards may swap), which is precisely the
//!   relaxation every sharded queue trades for scalability.
//! * The empty check stays cheap: each shard answers through its own O(1)
//!   threshold probe, so a full sweep is `S` constant-time probes.
//!
//! A shard is a bare ring pair (`crate::ringpair`, the Fig. 2 layer): the
//! rings and the data array, with no slot table or parking state of its
//! own. Thread slots are global — one table, so a registered handle drives
//! the same thread id in every shard and upholds the pairs' exclusivity
//! contract across all of them at once, the same pattern the unbounded
//! list-of-rings uses.

use crate::hold::Hold;
use crate::ringpair::{RingPair, SlotTable};
use crate::wcq::ring::WcqRing;
use crate::WcqConfig;
use std::marker::PhantomData;
use std::sync::Arc;

/// Sharded wait-free bounded MPMC queue: `S` independent wCQ ring pairs
/// behind per-handle enqueue affinity and rotating dequeue.
///
/// Capacity is `S · 2^order` elements, all allocated at construction.
///
/// # Example
/// ```
/// use wcq::shard::ShardedWcq;
/// let q: ShardedWcq<u64> = ShardedWcq::new(4, 6, 8); // 4 shards × 64 slots
/// let mut h = q.register().unwrap();
/// h.enqueue(7).unwrap();
/// assert_eq!(h.dequeue(), Some(7));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct ShardedWcq<T> {
    shards: Box<[RingPair<T, WcqRing>]>,
    slots: SlotTable,
}

impl<T> ShardedWcq<T> {
    /// Creates a queue with `shards` sub-queues (a power of two) of
    /// `2^order` slots each, for up to `max_threads` registered threads.
    pub fn new(shards: usize, order: u32, max_threads: usize) -> Self {
        Self::with_config(shards, order, max_threads, &WcqConfig::default())
    }

    /// Creates a queue with explicit ring tuning knobs.
    pub fn with_config(shards: usize, order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        ShardedWcq {
            shards: (0..shards)
                .map(|_| RingPair::new(order, max_threads, cfg))
                .collect(),
            slots: SlotTable::new(max_threads),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity in elements across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    /// Maximum number of simultaneously registered threads.
    pub fn max_threads(&self) -> usize {
        self.slots.len()
    }

    /// `true` while no elements are observable in **any** shard: a sweep of
    /// per-shard O(1) threshold probes. Advisory, like any concurrent probe.
    pub fn is_empty_hint(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty_hint())
    }

    /// Registers the calling thread; its enqueue affinity is
    /// `tid mod shards`. `None` when all `max_threads` slots are taken.
    pub fn register(&self) -> Option<ShardedHandle<T, &Self>> {
        let tid = self.slots.claim(&self.shards)?;
        Some(ShardedHandle::pinned(self, tid))
    }

    /// Registers the calling thread on an `Arc`-owned queue: the same
    /// [`ShardedHandle`], holding the queue by `Arc` so it moves freely
    /// into `'static` spawned threads (see [`crate::Hold`]).
    pub fn register_owned(self: &Arc<Self>) -> Option<ShardedHandle<T, Arc<Self>>> {
        let tid = self.slots.claim(&self.shards)?;
        Some(ShardedHandle::pinned(Arc::clone(self), tid))
    }
}

/// A per-thread handle to a [`ShardedWcq`], holding it as `H` (`&ShardedWcq`
/// from [`ShardedWcq::register`], `Arc<ShardedWcq>` from
/// [`ShardedWcq::register_owned`]; see [`Hold`]).
///
/// Like [`crate::WcqHandle`], a handle is `Send` but not `Clone` and its
/// methods take `&mut self`: it drives one thread id exclusively — here,
/// across every shard at once.
pub struct ShardedHandle<T, H: Hold<ShardedWcq<T>>> {
    q: H,
    tid: usize,
    affinity: usize,
    /// Next shard to try first on dequeue; sticks to the last hit.
    cursor: usize,
    _item: PhantomData<fn() -> T>,
}

// Exclusivity contract behind every pair operation below: `tid` came from
// the slot table and is driven by exactly one handle at a time (handles are
// not `Clone` and take `&mut self`), which is the shards' tid-exclusivity
// contract.
impl<T, H: Hold<ShardedWcq<T>>> ShardedHandle<T, H> {
    fn pinned(q: H, tid: usize) -> Self {
        let affinity = tid & (q.shards.len() - 1);
        ShardedHandle {
            q,
            tid,
            affinity,
            cursor: affinity,
            _item: PhantomData,
        }
    }

    /// Wait-free enqueue into this handle's affinity shard. `Err(v)` when
    /// that shard is full (values never spill to other shards — spilling
    /// would break per-producer FIFO).
    #[inline]
    pub fn enqueue(&mut self, v: T) -> Result<(), T> {
        // SAFETY: exclusivity contract above.
        unsafe { self.q.shards[self.affinity].enqueue(self.tid, v) }
    }

    /// Batch enqueue into the affinity shard; semantics of
    /// [`crate::WcqHandle::enqueue_batch`].
    pub fn enqueue_batch(&mut self, items: &mut Vec<T>) -> usize {
        // SAFETY: exclusivity contract above.
        unsafe { self.q.shards[self.affinity].enqueue_batch(self.tid, items) }
    }

    /// Dequeue, visiting every shard (starting at the sticky cursor) before
    /// reporting empty. Each shard miss costs its O(1) threshold probe.
    pub fn dequeue(&mut self) -> Option<T> {
        let s = self.q.shards.len();
        for i in 0..s {
            let shard = (self.cursor + i) & (s - 1);
            // SAFETY: exclusivity contract above.
            if let Some(v) = unsafe { self.q.shards[shard].dequeue(self.tid) } {
                self.cursor = shard;
                return Some(v);
            }
        }
        None
    }

    /// Batch dequeue: appends up to `max` elements to `out`, draining
    /// shards in cursor rotation; returns how many were appended (0 means
    /// every shard was observed empty).
    pub fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let s = self.q.shards.len();
        let start = self.cursor; // the sweep base must not move mid-sweep
        let mut total = 0;
        for i in 0..s {
            if total >= max {
                break;
            }
            let shard = (start + i) & (s - 1);
            let q = &self.q.shards[shard];
            // SAFETY: exclusivity contract above.
            let got = unsafe { q.dequeue_batch(self.tid, out, max - total) };
            if got > 0 {
                self.cursor = shard;
                total += got;
            }
        }
        total
    }

    /// The thread slot this handle occupies (diagnostics).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The shard this handle enqueues into.
    pub fn affinity(&self) -> usize {
        self.affinity
    }
}

impl<T, H: Hold<ShardedWcq<T>>> Drop for ShardedHandle<T, H> {
    fn drop(&mut self) {
        self.q.slots.release(self.tid, &self.q.shards);
    }
}

// ORDERING: test-only drop counter; ordering irrelevant
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;

    #[test]
    fn rejects_non_power_of_two_shards() {
        let r = std::panic::catch_unwind(|| ShardedWcq::<u64>::new(3, 4, 2));
        assert!(r.is_err());
    }

    #[test]
    fn geometry_and_registration() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 4, 6);
        assert_eq!(q.shards(), 4);
        assert_eq!(q.capacity(), 4 * 16);
        assert_eq!(q.max_threads(), 6);
        let h0 = q.register().unwrap();
        let h1 = q.register().unwrap();
        assert_eq!(h0.affinity(), 0);
        assert_eq!(h1.affinity(), 1);
        drop(h0);
        let h0b = q.register().unwrap();
        assert_eq!(h0b.tid(), 0, "slot reuse");
        drop(h1);
        drop(h0b);
    }

    #[test]
    fn fifo_within_one_shard() {
        let q: ShardedWcq<u64> = ShardedWcq::new(2, 5, 2);
        let mut h = q.register().unwrap();
        for i in 0..32 {
            h.enqueue(i).unwrap();
        }
        assert_eq!(h.enqueue(99), Err(99), "affinity shard full, no spill");
        for i in 0..32 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn dequeue_sweeps_all_shards() {
        let q: ShardedWcq<u64> = ShardedWcq::new(4, 4, 4);
        // Four handles, one per affinity shard.
        let mut hs: Vec<_> = (0..4).map(|_| q.register().unwrap()).collect();
        for (i, h) in hs.iter_mut().enumerate() {
            h.enqueue(i as u64 * 100).unwrap();
        }
        assert!(!q.is_empty_hint());
        // One handle must find all four elements, wherever they live.
        let mut got: Vec<u64> = std::iter::from_fn(|| hs[0].dequeue()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 100, 200, 300]);
        // The hint is advisory (threshold decay needs repeated misses), but
        // enough empty probes must eventually flip every shard's threshold.
        for _ in 0..64 * 4 {
            assert_eq!(hs[0].dequeue(), None);
        }
        assert!(q.is_empty_hint());
    }

    #[test]
    fn batch_ops_roundtrip() {
        let q: ShardedWcq<u64> = ShardedWcq::new(2, 4, 2);
        let mut h = q.register().unwrap();
        let mut items: Vec<u64> = (0..20).collect();
        assert_eq!(h.enqueue_batch(&mut items), 16, "one shard's capacity");
        assert_eq!(items.len(), 4);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 100), 16);
        assert_eq!(out, (0..16).collect::<Vec<_>>(), "FIFO within the shard");
        assert_eq!(h.dequeue_batch(&mut out, 1), 0);
    }

    #[test]
    fn elements_are_dropped_on_queue_drop() {
        static DROPS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, SeqCst);
            }
        }
        {
            let q: ShardedWcq<D> = ShardedWcq::new(2, 3, 2);
            let mut h0 = q.register().unwrap();
            let mut h1 = q.register().unwrap();
            for _ in 0..3 {
                h0.enqueue(D).unwrap(); // shard 0
                h1.enqueue(D).unwrap(); // shard 1
            }
            drop(h0.dequeue()); // 1
        }
        assert_eq!(DROPS.load(SeqCst), 6);
    }
}
