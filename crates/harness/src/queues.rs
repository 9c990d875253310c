//! Uniform benchmarking interface over all evaluated queues.
//!
//! Every queue exposes per-thread handles (hazard pointers, combining nodes,
//! helping records, …), so the trait hands out a handle per worker thread
//! (GAT) and the drivers are monomorphized per queue — no virtual dispatch
//! on the hot path, as the perf guide prescribes.

use baselines::{CcQueue, CrTurnQueue, FaaQueue, Lcrq, MsQueue, YmcQueue};
use wcq::channel::{self, Receiver, Sender};
use wcq::topology::TopoCore;
use wcq::unbounded::{Unbounded, UnboundedHandle};
use wcq::{IndexRing, ScqQueue, ScqRing, WcqConfig, WcqQueue, WcqRing};

/// A queue that can run the paper's workloads.
pub trait BenchQueue: Sync {
    /// Per-thread access handle.
    type Handle<'a>: QueueHandle + Send
    where
        Self: 'a;
    /// Display name used in the figure tables.
    fn name(&self) -> &'static str;
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
    /// Shard count for [`ShardedWcqBench`] (a power of two; 1 = unsharded).
    /// Total capacity stays `2^ring_order`: each shard gets
    /// `ring_order - log2(shards)`, floored so `max_threads` still fits.
    pub shards: usize,
    /// Per-node ring order for the unbounded adapter
    /// ([`UnboundedBench`]): each list node holds
    /// `2^node_order` slots. `None` reuses `ring_order`. Sweeping this is
    /// the Appendix-A cost trade (bigger nodes amortize list traffic,
    /// smaller nodes bound idle memory) — see the `figure_unbounded`
    /// binary.
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
}

// ---------------------------------------------------------------- wCQ -----

/// Adapter: the paper's wCQ (wait-free, bounded).
pub struct WcqBench(pub WcqQueue<u64>);

impl WcqBench {
    /// Builds from a [`QueueSpec`].
    pub fn new(spec: &QueueSpec) -> Self {
        WcqBench(WcqQueue::with_config(
            spec.ring_order,
            spec.max_threads,
            &spec.cfg,
        ))
    }
}

impl BenchQueue for WcqBench {
    type Handle<'a> = wcq::WcqHandle<u64, &'a WcqQueue<u64>>;
    fn name(&self) -> &'static str {
        "wCQ"
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.0.register().expect("wCQ thread slots exhausted")
    }
}

impl QueueHandle for wcq::WcqHandle<u64, &WcqQueue<u64>> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        wcq::WcqHandle::enqueue(self, v).is_ok()
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        wcq::WcqHandle::dequeue(self)
    }
}

// -------------------------------------------------------- sharded wCQ -----

/// Adapter: sharded wCQ front-end (`wcq::shard::ShardedWcq`). Per-handle
/// enqueue affinity, rotating dequeue; total capacity matches the
/// single-ring spec so shard-count sweeps compare like for like.
pub struct ShardedWcqBench(pub wcq::ShardedWcq<u64>);

impl ShardedWcqBench {
    /// Resolved geometry for `spec`: `(shards, per_shard_order)`. Total
    /// capacity is `shards << per_shard_order`; it equals `2^ring_order`
    /// unless the per-shard floor (shards must each fit `max_threads`, the
    /// paper's `k <= n` assumption) forced it larger.
    pub fn geometry(spec: &QueueSpec) -> (usize, u32) {
        let shards = spec.shards.max(1).next_power_of_two();
        let per_shard = spec
            .ring_order
            .saturating_sub(shards.trailing_zeros())
            .max(min_order_for_threads(spec.max_threads));
        (shards, per_shard)
    }

    /// Builds from a [`QueueSpec`], dividing `2^ring_order` total capacity
    /// across `spec.shards` sub-rings. If the per-shard `max_threads`
    /// floor inflates total capacity beyond `2^ring_order`, the actual
    /// geometry is reported on stderr so shard sweeps cannot silently stop
    /// being like-for-like.
    pub fn new(spec: &QueueSpec) -> Self {
        let (shards, per_shard) = Self::geometry(spec);
        let actual = shards << per_shard;
        if actual != 1usize << spec.ring_order {
            eprintln!(
                "ShardedWcqBench: geometry adjusted to {shards} x 2^{per_shard} = {actual} \
                 slots (requested 2^{} = {}): per-shard order floored so \
                 max_threads = {} fits each shard (k <= n)",
                spec.ring_order,
                1usize << spec.ring_order,
                spec.max_threads,
            );
        }
        ShardedWcqBench(wcq::ShardedWcq::with_config(
            shards,
            per_shard,
            spec.max_threads,
            &spec.cfg,
        ))
    }
}

impl BenchQueue for ShardedWcqBench {
    type Handle<'a> = wcq::ShardedHandle<u64, &'a wcq::ShardedWcq<u64>>;
    fn name(&self) -> &'static str {
        "wCQ-sharded"
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.0.register().expect("sharded wCQ thread slots exhausted")
    }
}

impl QueueHandle for wcq::ShardedHandle<u64, &wcq::ShardedWcq<u64>> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        wcq::ShardedHandle::enqueue(self, v).is_ok()
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        wcq::ShardedHandle::dequeue(self)
    }
}

// ---------------------------------------------------------------- SCQ -----

/// Adapter: SCQ (lock-free, bounded) — the substrate baseline.
pub struct ScqBench(pub ScqQueue<u64>);

impl ScqBench {
    /// Builds from a [`QueueSpec`].
    pub fn new(spec: &QueueSpec) -> Self {
        ScqBench(ScqQueue::with_config(spec.ring_order, &spec.cfg))
    }
}

/// SCQ needs no per-thread state; the handle is a shared reference.
pub struct ScqHandle<'a>(&'a ScqQueue<u64>);

impl BenchQueue for ScqBench {
    type Handle<'a> = ScqHandle<'a>;
    fn name(&self) -> &'static str {
        "SCQ"
    }
    fn handle(&self) -> Self::Handle<'_> {
        ScqHandle(&self.0)
    }
}

impl QueueHandle for ScqHandle<'_> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        self.0.enqueue(v).is_ok()
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        self.0.dequeue()
    }
}

// ---------------------------------------------------------- unbounded -----

/// The figure label of the unbounded list over each ring type.
pub trait ListLabel: IndexRing {
    /// Display name used in the figure tables.
    const LABEL: &'static str;
}

/// Appendix A list of wait-free rings behind a lock-free outer list.
impl ListLabel for WcqRing {
    const LABEL: &'static str = "wCQ-unbounded";
}

/// LSCQ: the list of lock-free SCQ rings, the paper's §6 baseline shape.
impl ListLabel for ScqRing {
    const LABEL: &'static str = "LSCQ";
}

/// Adapter: the unbounded list of rings (`wcq::unbounded`), hazard-pointer
/// reclaimed, over either ring type. Never reports full.
pub struct UnboundedBench<R: ListLabel>(pub Unbounded<u64, R>);

impl<R: ListLabel> UnboundedBench<R> {
    /// Builds from a [`QueueSpec`]; each list node holds
    /// `2^spec.unbounded_order()` slots.
    pub fn new(spec: &QueueSpec) -> Self {
        UnboundedBench(Unbounded::with_config(
            spec.unbounded_order(),
            spec.max_threads,
            &spec.cfg,
        ))
    }
}

impl<R: ListLabel> BenchQueue for UnboundedBench<R> {
    type Handle<'a>
        = UnboundedHandle<u64, R, &'a Unbounded<u64, R>>
    where
        R: 'a;
    fn name(&self) -> &'static str {
        R::LABEL
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.0.register().expect("unbounded thread slots exhausted")
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

/// Adapter: the owned channel API (`wcq::channel`) over any of its
/// backends, built through the one `channel::over` entry.
///
/// Measures what the production-facing surface costs on top of the raw
/// handles: the `Arc` indirection, the per-op closed check, and the lazy
/// endpoint registration. Each worker handle is a cloned
/// `(Sender, Receiver)` pair; endpoints take thread slots lazily on first
/// use, so the prototype pair held here costs nothing while idle — every
/// flavour sizes its wCQ (queue or spine) at two slots per worker (sender +
/// receiver endpoint) plus the drain handle's pair.
///
/// The harness workloads are MPMC-shaped — every worker holds a sender
/// *and* a receiver clone — so on the topology flavours ([`Self::spsc`],
/// [`Self::mpsc`]) `threads == 1` measures the true ring fast path, while
/// any higher thread count exceeds the declared topology on first use and
/// measures the **upgraded wCQ spine** through the same endpoints (a
/// conformance row, by design: it proves the upgrade keeps the channel
/// serving). The dedicated `figure_topology` binary does the honest
/// per-topology pair measurements.
pub struct ChannelBench {
    name: &'static str,
    proto: ChannelEndpoints,
}

impl ChannelBench {
    fn over(name: &'static str, (tx, rx): (Sender<u64>, Receiver<u64>)) -> Self {
        ChannelBench { name, proto: ChannelEndpoints { tx, rx } }
    }

    fn slots(spec: &QueueSpec) -> usize {
        (spec.max_threads + 1) * 2
    }

    /// `"wCQ-channel"`: a bounded wCQ of capacity `2^ring_order`.
    pub fn new(spec: &QueueSpec) -> Self {
        let q = WcqQueue::with_config(spec.ring_order, Self::slots(spec), &spec.cfg);
        Self::over("wCQ-channel", channel::over(q))
    }

    /// `"chan-spsc"`: the SPSC-declared topology backend, one
    /// `2^ring_order`-slot ring.
    pub fn spsc(spec: &QueueSpec) -> Self {
        let core = TopoCore::spsc(spec.ring_order, Self::slots(spec), &spec.cfg);
        Self::over("chan-spsc", channel::over(core))
    }

    /// `"chan-mpsc"`: the MPSC-declared topology backend — one private
    /// ring per declared sender, capacity split per
    /// [`Self::mpsc_geometry`].
    pub fn mpsc(spec: &QueueSpec) -> Self {
        let (senders, per_ring) = Self::mpsc_geometry(spec);
        let core = TopoCore::mpsc(senders, per_ring, Self::slots(spec), &spec.cfg);
        Self::over("chan-mpsc", channel::over(core))
    }

    /// Resolved MPSC geometry for `spec`: `(senders, per_ring_order)`, with
    /// total fast-path capacity `senders << per_ring_order` kept at
    /// `2^ring_order` (like [`ShardedWcqBench`], so spec sweeps stay
    /// like-for-like) unless the floor (tiny rings) forces it larger.
    pub fn mpsc_geometry(spec: &QueueSpec) -> (usize, u32) {
        let senders = spec.max_threads.max(1);
        let log2s = senders.next_power_of_two().trailing_zeros();
        let per_ring = spec.ring_order.saturating_sub(log2s).max(2);
        (senders, per_ring)
    }
}

/// A worker's endpoint pair for [`ChannelBench`] (owned: no borrow of the
/// bench struct, exactly like the channel API's own users).
#[derive(Clone)]
pub struct ChannelEndpoints {
    tx: Sender<u64>,
    rx: Receiver<u64>,
}

impl BenchQueue for ChannelBench {
    type Handle<'a> = ChannelEndpoints;
    fn name(&self) -> &'static str {
        self.name
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.proto.clone()
    }
}

impl QueueHandle for ChannelEndpoints {
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

/// Adapter: the F&A upper-bound pseudo-queue.
pub struct FaaBench(pub FaaQueue);

impl FaaBench {
    /// Builds from a [`QueueSpec`].
    pub fn new(_spec: &QueueSpec) -> Self {
        FaaBench(FaaQueue::new())
    }
}

/// Shared-reference handle (FAA keeps no thread state).
pub struct FaaHandle<'a>(&'a FaaQueue);

impl BenchQueue for FaaBench {
    type Handle<'a> = FaaHandle<'a>;
    fn name(&self) -> &'static str {
        "FAA"
    }
    fn handle(&self) -> Self::Handle<'_> {
        FaaHandle(&self.0)
    }
}

impl QueueHandle for FaaHandle<'_> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        self.0.enqueue(v);
        true
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        self.0.dequeue()
    }
}

// ------------------------------------------------------------ MSQueue -----

/// Adapter: Michael & Scott queue.
pub struct MsBench(pub MsQueue);

impl MsBench {
    /// Builds from a [`QueueSpec`].
    pub fn new(spec: &QueueSpec) -> Self {
        MsBench(MsQueue::new(spec.max_threads))
    }
}

impl BenchQueue for MsBench {
    type Handle<'a> = baselines::msqueue::MsHandle<'a>;
    fn name(&self) -> &'static str {
        "MSQueue"
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.0.register().expect("MSQueue slots exhausted")
    }
}

impl QueueHandle for baselines::msqueue::MsHandle<'_> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        baselines::msqueue::MsHandle::enqueue(self, v);
        true
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        baselines::msqueue::MsHandle::dequeue(self)
    }
}

// -------------------------------------------------------------- LCRQ ------

/// Adapter: LCRQ.
pub struct LcrqBench(pub Lcrq);

impl LcrqBench {
    /// Builds from a [`QueueSpec`] (ring order 12, the paper's default).
    pub fn new(spec: &QueueSpec) -> Self {
        LcrqBench(Lcrq::with_ring_order(spec.max_threads, 12))
    }
}

impl BenchQueue for LcrqBench {
    type Handle<'a> = baselines::lcrq::LcrqHandle<'a>;
    fn name(&self) -> &'static str {
        "LCRQ"
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.0.register().expect("LCRQ slots exhausted")
    }
}

impl QueueHandle for baselines::lcrq::LcrqHandle<'_> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        baselines::lcrq::LcrqHandle::enqueue(self, v);
        true
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        baselines::lcrq::LcrqHandle::dequeue(self)
    }
}

// --------------------------------------------------------------- YMC ------

/// Adapter: YMC (see DESIGN.md §3.4 for scope).
pub struct YmcBench(pub YmcQueue);

impl YmcBench {
    /// Builds from a [`QueueSpec`].
    pub fn new(spec: &QueueSpec) -> Self {
        YmcBench(YmcQueue::new(spec.max_threads))
    }
}

impl BenchQueue for YmcBench {
    type Handle<'a> = baselines::ymc::YmcHandle<'a>;
    fn name(&self) -> &'static str {
        "YMC (bug)"
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.0.register().expect("YMC slots exhausted")
    }
}

impl QueueHandle for baselines::ymc::YmcHandle<'_> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        baselines::ymc::YmcHandle::enqueue(self, v);
        true
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        baselines::ymc::YmcHandle::dequeue(self)
    }
}

// ------------------------------------------------------------- CRTurn -----

/// Adapter: CRTurn.
pub struct CrTurnBench(pub CrTurnQueue);

impl CrTurnBench {
    /// Builds from a [`QueueSpec`].
    pub fn new(spec: &QueueSpec) -> Self {
        CrTurnBench(CrTurnQueue::new(spec.max_threads))
    }
}

impl BenchQueue for CrTurnBench {
    type Handle<'a> = baselines::crturn::CrTurnHandle<'a>;
    fn name(&self) -> &'static str {
        "CRTurn"
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.0.register().expect("CRTurn slots exhausted")
    }
}

impl QueueHandle for baselines::crturn::CrTurnHandle<'_> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        baselines::crturn::CrTurnHandle::enqueue(self, v);
        true
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        baselines::crturn::CrTurnHandle::dequeue(self)
    }
}

// ------------------------------------------------------------ CCQueue -----

/// Adapter: CC-Synch combining queue.
pub struct CcBench(pub CcQueue);

impl CcBench {
    /// Builds from a [`QueueSpec`].
    pub fn new(_spec: &QueueSpec) -> Self {
        CcBench(CcQueue::new())
    }
}

impl BenchQueue for CcBench {
    type Handle<'a> = baselines::ccqueue::CcHandle<'a>;
    fn name(&self) -> &'static str {
        "CCQueue"
    }
    fn handle(&self) -> Self::Handle<'_> {
        self.0.register()
    }
}

impl QueueHandle for baselines::ccqueue::CcHandle<'_> {
    #[inline]
    fn enqueue(&mut self, v: u64) -> bool {
        baselines::ccqueue::CcHandle::enqueue(self, v);
        true
    }
    #[inline]
    fn dequeue(&mut self) -> Option<u64> {
        baselines::ccqueue::CcHandle::dequeue(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<Q: BenchQueue>(q: &Q) {
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
        roundtrip(&WcqBench::new(&spec));
        roundtrip(&ShardedWcqBench::new(&spec));
        roundtrip(&ScqBench::new(&spec));
        roundtrip(&UnboundedBench::<WcqRing>::new(&spec));
        roundtrip(&UnboundedBench::<ScqRing>::new(&spec));
        roundtrip(&MsBench::new(&spec));
        roundtrip(&LcrqBench::new(&spec));
        roundtrip(&YmcBench::new(&spec));
        roundtrip(&CrTurnBench::new(&spec));
        roundtrip(&CcBench::new(&spec));
        roundtrip(&ChannelBench::new(&spec));
        roundtrip(&ChannelBench::spsc(&spec));
        roundtrip(&ChannelBench::mpsc(&spec));
        // FAA is not a real queue; it only counts.
        let f = FaaBench::new(&spec);
        let mut h = f.handle();
        assert!(h.enqueue(1));
        assert!(h.dequeue().is_some());
    }

    #[test]
    fn names_are_paper_labels() {
        let spec = QueueSpec::default();
        assert_eq!(WcqBench::new(&spec).name(), "wCQ");
        assert_eq!(YmcBench::new(&spec).name(), "YMC (bug)");
        assert_eq!(ShardedWcqBench::new(&spec).name(), "wCQ-sharded");
        assert_eq!(
            UnboundedBench::<WcqRing>::new(&spec).name(),
            "wCQ-unbounded"
        );
        assert_eq!(UnboundedBench::<ScqRing>::new(&spec).name(), "LSCQ");
        assert_eq!(ChannelBench::new(&spec).name(), "wCQ-channel");
        assert_eq!(ChannelBench::spsc(&spec).name(), "chan-spsc");
        assert_eq!(ChannelBench::mpsc(&spec).name(), "chan-mpsc");
    }

    #[test]
    fn mpsc_geometry_splits_capacity() {
        let spec = QueueSpec {
            max_threads: 4,
            ring_order: 10,
            ..QueueSpec::default()
        };
        let (senders, per_ring) = ChannelBench::mpsc_geometry(&spec);
        assert_eq!(senders, 4);
        assert_eq!(senders << per_ring, 1 << 10, "capacity split, not multiplied");
        // The per-ring floor inflates tiny splits rather than underflowing.
        let spec = QueueSpec {
            max_threads: 16,
            ring_order: 3,
            ..QueueSpec::default()
        };
        let (_, per_ring) = ChannelBench::mpsc_geometry(&spec);
        assert!(per_ring >= 2);
    }

    #[test]
    fn sharded_spec_preserves_total_capacity() {
        let spec = QueueSpec {
            max_threads: 4,
            ring_order: 10,
            shards: 4,
            ..QueueSpec::default()
        };
        let q = ShardedWcqBench::new(&spec);
        assert_eq!(q.0.shards(), 4);
        assert_eq!(q.0.capacity(), 1 << 10, "capacity split, not multiplied");
        let (shards, per_shard) = ShardedWcqBench::geometry(&spec);
        assert_eq!(shards << per_shard, 1 << 10, "geometry reports the split");
        // Tiny rings still fit max_threads per shard — and the resulting
        // capacity inflation is visible through `geometry`, not silent.
        let spec = QueueSpec {
            max_threads: 16,
            ring_order: 4,
            shards: 8,
            ..QueueSpec::default()
        };
        let q = ShardedWcqBench::new(&spec);
        assert!(q.0.capacity() / q.0.shards() >= 16);
        let (shards, per_shard) = ShardedWcqBench::geometry(&spec);
        assert_eq!(shards << per_shard, q.0.capacity());
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
