//! Uniform benchmarking interface over all evaluated queues.
//!
//! Every queue exposes per-thread handles (hazard pointers, combining nodes,
//! helping records, …), so the trait hands out a handle per worker thread
//! (GAT) and the drivers are monomorphized per queue — no virtual dispatch
//! on the hot path, as the perf guide prescribes.
//!
//! [`BenchQueue`] is implemented on the queue types themselves, and its
//! `build` is each queue's one constructor from a [`QueueSpec`]. Only
//! [`ChannelBench`] is a wrapper: it has three flavours over endpoint pairs.
//! Display labels belong to the figures that print them (the `bench`
//! crate's queue table), not to the queues.

use baselines::ccqueue::CcHandle;
use baselines::crturn::CrTurnHandle;
use baselines::lcrq::LcrqHandle;
use baselines::msqueue::MsHandle;
use baselines::ymc::YmcHandle;
use baselines::{CcQueue, CrTurnQueue, FaaQueue, Lcrq, MsQueue, YmcQueue};
use wcq::channel::{self, Receiver, Sender};
use wcq::unbounded::{Unbounded, UnboundedHandle};
use wcq::{IndexRing, ScqQueue, ShardedHandle, ShardedWcq, WcqConfig, WcqHandle, WcqQueue};

/// A queue that can run the paper's workloads.
pub trait BenchQueue: Sync + Sized {
    /// Per-thread access handle.
    type Handle<'a>: QueueHandle + Send
    where
        Self: 'a;
    /// Builds the queue from a [`QueueSpec`].
    fn build(spec: &QueueSpec) -> Self;
    /// Registers the calling thread.
    fn handle(&self) -> Self::Handle<'_>;
}

/// Per-thread operations.
pub trait QueueHandle {
    /// Enqueue; `false` when a bounded queue is full.
    fn enqueue(&mut self, v: u64) -> bool;
    /// Dequeue; `None` when empty.
    fn dequeue(&mut self) -> Option<u64>;
}

/// Queue construction parameters shared by the figure harness.
#[derive(Clone, Copy, Debug)]
pub struct QueueSpec {
    /// Maximum worker threads that will touch the queue.
    pub max_threads: usize,
    /// Ring order for the bounded rings (wCQ/SCQ use `2^order`; the paper's
    /// evaluation uses 2^16).
    pub ring_order: u32,
    /// Shard count for [`ShardedWcq`] (a power of two; 1 = unsharded).
    /// Total capacity stays `2^ring_order`: see [`Self::shard_geometry`].
    pub shards: usize,
    /// Per-node ring order for [`Unbounded`]: each list node holds
    /// `2^node_order` slots. `None` reuses `ring_order`. Sweeping this is
    /// the Appendix-A cost trade (bigger nodes amortize list traffic,
    /// smaller nodes bound idle memory) — see `figures unbounded`.
    pub node_order: Option<u32>,
    /// Tuning knobs for wCQ/SCQ.
    pub cfg: WcqConfig,
}

impl Default for QueueSpec {
    fn default() -> Self {
        QueueSpec {
            max_threads: 8,
            ring_order: 16,
            shards: 1,
            node_order: None,
            cfg: WcqConfig::default(),
        }
    }
}

/// Smallest ring order whose `2^order` slots admit `max_threads`
/// registered threads under the paper's `k <= n` assumption (one bit above
/// the thread count, so the bound holds even off powers of two).
fn min_order_for_threads(max_threads: usize) -> u32 {
    usize::BITS - max_threads.max(2).leading_zeros()
}

impl QueueSpec {
    /// The per-node ring order the unbounded adapters will use, floored so
    /// `max_threads` respects the wCQ rings' `k <= n` assumption.
    pub fn unbounded_order(&self) -> u32 {
        let wanted = self.node_order.unwrap_or(self.ring_order);
        wanted.max(min_order_for_threads(self.max_threads))
    }

    /// Resolved sharded geometry: `(shards, per_shard_order)`. Total
    /// capacity is `shards << per_shard_order`; it equals `2^ring_order`
    /// unless the per-shard floor (shards must each fit `max_threads`, the
    /// paper's `k <= n` assumption) forced it larger.
    pub fn shard_geometry(&self) -> (usize, u32) {
        let shards = self.shards.max(1).next_power_of_two();
        let per_shard = self
            .ring_order
            .saturating_sub(shards.trailing_zeros())
            .max(min_order_for_threads(self.max_threads));
        (shards, per_shard)
    }
}

// ---------------------------------------------------------------- wCQ -----

/// The paper's wCQ (wait-free, bounded).
impl BenchQueue for WcqQueue<u64> {
    type Handle<'a> = WcqHandle<u64, &'a WcqQueue<u64>>;
    fn build(spec: &QueueSpec) -> Self {
        WcqQueue::with_config(spec.ring_order, spec.max_threads, &spec.cfg)
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.register().expect("wCQ thread slots exhausted")
    }
}

impl QueueHandle for WcqHandle<u64, &WcqQueue<u64>> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        WcqHandle::enqueue(self, v).is_ok()
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        WcqHandle::dequeue(self)
    }
}

// -------------------------------------------------------- sharded wCQ -----

/// The sharded wCQ front-end: per-handle enqueue affinity, rotating
/// dequeue; total capacity matches the single-ring spec so shard-count
/// sweeps compare like for like. If the per-shard `max_threads` floor
/// inflates total capacity beyond `2^ring_order`, the actual geometry is
/// reported on stderr so a sweep cannot silently stop being like-for-like.
impl BenchQueue for ShardedWcq<u64> {
    type Handle<'a> = ShardedHandle<u64, &'a ShardedWcq<u64>>;
    fn build(spec: &QueueSpec) -> Self {
        let (shards, per_shard) = spec.shard_geometry();
        let actual = shards << per_shard;
        if actual != 1usize << spec.ring_order {
            eprintln!(
                "ShardedWcq: geometry adjusted to {shards} x 2^{per_shard} = {actual} \
                 slots (requested 2^{} = {}): per-shard order floored so \
                 max_threads = {} fits each shard (k <= n)",
                spec.ring_order,
                1usize << spec.ring_order,
                spec.max_threads,
            );
        }
        ShardedWcq::with_config(shards, per_shard, spec.max_threads, &spec.cfg)
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.register().expect("sharded wCQ thread slots exhausted")
    }
}

impl QueueHandle for ShardedHandle<u64, &ShardedWcq<u64>> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        ShardedHandle::enqueue(self, v).is_ok()
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        ShardedHandle::dequeue(self)
    }
}

// ---------------------------------------------------------------- SCQ -----

/// SCQ (lock-free, bounded) — the substrate baseline. It keeps no
/// per-thread state, so a shared reference is its handle.
impl BenchQueue for ScqQueue<u64> {
    type Handle<'a> = &'a ScqQueue<u64>;
    fn build(spec: &QueueSpec) -> Self {
        ScqQueue::with_config(spec.ring_order, &spec.cfg)
    }
    fn handle(&self) -> &ScqQueue<u64> {
        self
    }
}

impl QueueHandle for &ScqQueue<u64> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        ScqQueue::enqueue(self, v).is_ok()
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        ScqQueue::dequeue(self)
    }
}

// ---------------------------------------------------------- unbounded -----

/// The unbounded list of rings (`wcq::unbounded`), hazard-pointer
/// reclaimed, over either ring type: `WcqRing` is Appendix A's shape,
/// `ScqRing` is LSCQ, the paper's §6 baseline. Each list node holds
/// `2^spec.unbounded_order()` slots. Never reports full.
impl<R: IndexRing> BenchQueue for Unbounded<u64, R> {
    type Handle<'a>
        = UnboundedHandle<u64, R, &'a Unbounded<u64, R>>
    where
        R: 'a;
    fn build(spec: &QueueSpec) -> Self {
        Unbounded::with_config(spec.unbounded_order(), spec.max_threads, &spec.cfg)
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.register().expect("unbounded thread slots exhausted")
    }
}

impl<R: IndexRing> QueueHandle for UnboundedHandle<u64, R, &Unbounded<u64, R>> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        UnboundedHandle::enqueue(self, v);
        true // capacity grows by appending rings
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        UnboundedHandle::dequeue(self)
    }
}

// ------------------------------------------------------------ channel -----

/// The owned channel API (`wcq::channel`) over a bounded wCQ, built
/// through the one `channel::over` entry.
///
/// Measures what the production-facing surface costs on top of the raw
/// handles: the `Arc` indirection, the per-op closed check, and the lazy
/// endpoint registration. A worker's handle is a clone of this prototype
/// endpoint pair; endpoints take thread slots lazily on first use, so the
/// prototype costs nothing while idle — the queue is sized at two slots
/// per worker (sender + receiver endpoint) plus the drain handle's pair.
///
/// The harness workloads are MPMC-shaped — every worker holds a sender
/// *and* a receiver clone — so the topology-declared channels
/// (`channel::spsc`/`mpsc`) have no row here: their excess endpoints wait
/// for a seat. Their declared shapes are covered by `tests/topology.rs`
/// and `tests/blocking_facade.rs`, and their per-op costs by the repo
/// benchmark's `channel.spsc.*` and `channel.mpsc.*` rungs.
#[derive(Clone)]
pub struct ChannelBench {
    tx: Sender<u64>,
    rx: Receiver<u64>,
}

impl BenchQueue for ChannelBench {
    type Handle<'a> = ChannelBench;
    /// A bounded wCQ of capacity `2^ring_order` behind the channel.
    fn build(spec: &QueueSpec) -> Self {
        let slots = (spec.max_threads + 1) * 2;
        let q = WcqQueue::with_config(spec.ring_order, slots, &spec.cfg);
        let (tx, rx) = channel::over(q);
        ChannelBench { tx, rx }
    }
    fn handle(&self) -> ChannelBench {
        self.clone()
    }
}

impl QueueHandle for ChannelBench {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        self.tx.try_send(v).is_ok()
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        self.rx.try_recv().ok()
    }
}

// ---------------------------------------------------------------- FAA -----

/// The F&A upper-bound pseudo-queue. It keeps no per-thread state, so a
/// shared reference is its handle.
impl BenchQueue for FaaQueue {
    type Handle<'a> = &'a FaaQueue;
    fn build(_spec: &QueueSpec) -> Self {
        FaaQueue::new()
    }
    fn handle(&self) -> &FaaQueue {
        self
    }
}

impl QueueHandle for &FaaQueue {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        FaaQueue::enqueue(self, v);
        true
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        FaaQueue::dequeue(self)
    }
}

// ---------------------------------------------------------- baselines -----

/// A baseline queue (DESIGN.md §3.4 for scope): built by `$build` from the
/// spec, one handle per thread, and an enqueue that always lands (the
/// baselines have no capacity bound).
macro_rules! baseline {
    ($queue:ty, $handle:ident, |$spec:ident| $build:expr) => {
        impl BenchQueue for $queue {
            type Handle<'a> = $handle<'a>;
            fn build($spec: &QueueSpec) -> Self {
                $build
            }
            fn handle(&self) -> $handle<'_> {
                // `register` returns an `Option` (`None` once the spec's
                // thread slots are taken), except CCQueue's, which cannot
                // fail; `Option::from` accepts both.
                let slot = Option::from(self.register());
                slot.expect(concat!(stringify!($queue), ": thread slots exhausted"))
            }
        }

        impl QueueHandle for $handle<'_> {
            #[inline]
            fn enqueue(&mut self, v: u64) -> bool {
                $handle::enqueue(self, v);
                true
            }
            #[inline]
            fn dequeue(&mut self) -> Option<u64> {
                $handle::dequeue(self)
            }
        }
    };
}

baseline!(MsQueue, MsHandle, |s| MsQueue::new(s.max_threads));
// Ring order 12, the paper's LCRQ default.
baseline!(Lcrq, LcrqHandle, |s| Lcrq::with_ring_order(
    s.max_threads,
    12
));
baseline!(YmcQueue, YmcHandle, |s| YmcQueue::new(s.max_threads));
baseline!(CrTurnQueue, CrTurnHandle, |s| CrTurnQueue::new(
    s.max_threads
));
baseline!(CcQueue, CcHandle, |_s| CcQueue::new());

#[cfg(test)]
mod tests {
    use super::*;
    use wcq::{ScqRing, WcqRing};

    fn roundtrip<Q: BenchQueue>(spec: &QueueSpec) {
        let q = Q::build(spec);
        let mut h = q.handle();
        assert!(h.enqueue(41));
        assert!(h.enqueue(42));
        assert_eq!(h.dequeue(), Some(41));
        assert_eq!(h.dequeue(), Some(42));
    }

    #[test]
    fn all_adapters_roundtrip() {
        let spec = QueueSpec {
            max_threads: 2,
            ring_order: 6,
            shards: 2,
            node_order: Some(2),
            cfg: WcqConfig::default(),
        };
        roundtrip::<WcqQueue<u64>>(&spec);
        roundtrip::<ShardedWcq<u64>>(&spec);
        roundtrip::<ScqQueue<u64>>(&spec);
        roundtrip::<Unbounded<u64, WcqRing>>(&spec);
        roundtrip::<Unbounded<u64, ScqRing>>(&spec);
        roundtrip::<MsQueue>(&spec);
        roundtrip::<Lcrq>(&spec);
        roundtrip::<YmcQueue>(&spec);
        roundtrip::<CrTurnQueue>(&spec);
        roundtrip::<CcQueue>(&spec);
        roundtrip::<ChannelBench>(&spec);
        // FAA is not a real queue; it only counts.
        let f = FaaQueue::build(&spec);
        let mut h = f.handle();
        assert!(QueueHandle::enqueue(&mut h, 1));
        assert!(QueueHandle::dequeue(&mut h).is_some());
    }

    #[test]
    fn sharded_spec_preserves_total_capacity() {
        let spec = QueueSpec {
            max_threads: 4,
            ring_order: 10,
            shards: 4,
            ..QueueSpec::default()
        };
        let q = ShardedWcq::<u64>::build(&spec);
        assert_eq!(q.shards(), 4);
        assert_eq!(q.capacity(), 1 << 10, "capacity split, not multiplied");
        let (shards, per_shard) = spec.shard_geometry();
        assert_eq!(shards << per_shard, 1 << 10, "geometry reports the split");
        // Tiny rings still fit max_threads per shard — and the resulting
        // capacity inflation is visible through `shard_geometry`, not silent.
        let spec = QueueSpec {
            max_threads: 16,
            ring_order: 4,
            shards: 8,
            ..QueueSpec::default()
        };
        let q = ShardedWcq::<u64>::build(&spec);
        assert!(q.capacity() / q.shards() >= 16);
        let (shards, per_shard) = spec.shard_geometry();
        assert_eq!(shards << per_shard, q.capacity());
        assert!(
            (shards << per_shard) > 1 << 4,
            "the floor case must be detectable as capacity != 2^ring_order"
        );
    }

    #[test]
    fn unbounded_order_respects_thread_floor() {
        // node_order 1 (2-slot rings) cannot admit 8 threads under k <= n;
        // the resolved order must grow to fit them.
        let spec = QueueSpec {
            max_threads: 8,
            ring_order: 10,
            node_order: Some(1),
            ..QueueSpec::default()
        };
        assert!(1usize << spec.unbounded_order() >= 8);
        // Without the knob, ring_order passes through.
        let spec = QueueSpec {
            max_threads: 4,
            ring_order: 10,
            ..QueueSpec::default()
        };
        assert_eq!(spec.unbounded_order(), 10);
    }
}
