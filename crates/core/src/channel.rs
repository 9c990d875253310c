//! Owned, cloneable channel endpoints over the queue stack (DESIGN.md §10).
//!
//! The per-thread handles ([`crate::WcqHandle`] & co.) are deliberately
//! minimal: they pin one thread record and expose the raw wait-free
//! surface, leaving registration, slot exhaustion and shutdown to the
//! caller. This module is the production face of the stack —
//! `Arc`-owned queues behind cloneable [`Sender`]/[`Receiver`] endpoints
//! that move freely into `std::thread::spawn` closures and `'static`
//! futures, with two pieces of lifecycle automation the raw handles leave
//! to the caller:
//!
//! * **Lazy thread-slot acquisition.** Cloning an endpoint costs nothing:
//!   a clone holds no thread slot until its first operation, which
//!   registers an `Arc`-holding handle
//!   ([`crate::WcqQueue::register_owned`] & co.) cached inside the
//!   endpoint for its lifetime. Dropping the endpoint
//!   quiesces and releases the slot (the `Drop` protocol in
//!   `wcq/queue.rs`) and notifies both wait lanes. At most `max_threads`
//!   endpoints can therefore be *operating* concurrently; an operation on
//!   an endpoint beyond that misses as if the queue were full (or empty)
//!   until another endpoint drops — see [`bounded`].
//! * **Refcount-driven close.** The channel counts live senders and
//!   receivers. When the last [`Sender`] drops, the queue closes:
//!   receivers drain the backlog and then see [`RecvError::Closed`]. When
//!   the last [`Receiver`] drops, senders see [`SendError::Closed`] (and
//!   [`TrySendError::Closed`]) — no element can be silently parked against
//!   a queue nobody will ever read. Explicit `close()` calls are never
//!   needed; pipelines shut down by dropping endpoints.
//!
//! One constructor, [`over`], builds a channel on any of the four queue
//! types (`channel::over(WcqQueue::with_config(..))`,
//! `channel::over(TopoCore::spsc(..))`, …); five one-line conveniences
//! cover the default-tuned cases. The endpoint types are identical:
//!
//! | Convenience | `over(..)` of | Full behavior |
//! |---|---|---|
//! | [`bounded`] | [`crate::WcqQueue`] (wait-free, bounded) | `send` parks / `try_send` returns [`TrySendError::Full`] |
//! | [`sharded`] | [`crate::ShardedWcq`] (per-shard FIFO) | as above, per affinity shard |
//! | [`unbounded`] | [`crate::UnboundedWcq`] (list of rings) | `send` never blocks on capacity |
//! | [`spsc`] | [`TopoCore::spsc`]: [`crate::spsc::Ring`] + wCQ spine ([`crate::topology`]) | as [`bounded`]; load/store fast path |
//! | [`mpsc`] | [`TopoCore::mpsc`]: per-sender [`crate::spsc::Ring`]s + wCQ spine | as [`bounded`], per sender ring |
//!
//! The topology-declared constructors ([`spsc`], [`mpsc`]) are not a
//! different contract — they are the same channel running on private SPSC
//! rings while the usage matches the declaration. The first operating
//! sender beyond the declaration grafts a wait-free [`crate::WcqQueue`]
//! spine on as an overflow lane: excess senders run on it, seated ones
//! keep their rings, and no element is ever lost or moved between lanes.
//! A receiver beyond the declaration waits for the consumer seat. See
//! [`crate::topology`] for the protocol, and
//! [`Sender::backend`]/[`Receiver::backend`] to observe which engine is
//! serving.
//!
//! Every endpoint carries the whole surface: spinning `try_*`, parking
//! `send`/`recv`, deadline variants, `Future`-returning
//! `send_async`/`recv_async`, and the batch operations. The queues under
//! a channel are spin-only, so this is the one place parking lives: the
//! channel's shared state owns its [`SyncState`], and the endpoints
//! notify it after every operation that frees a slot or lands a value
//! (DESIGN.md §9).
//!
//! # Example
//!
//! ```
//! use wcq::channel;
//!
//! let (tx, mut rx) = channel::bounded::<u64>(6, 4);
//! let producers: Vec<_> = (0..2)
//!     .map(|p| {
//!         let mut tx = tx.clone(); // no slot taken until first send
//!         std::thread::spawn(move || {
//!             for i in 0..100 {
//!                 tx.send(p * 100 + i).unwrap();
//!             }
//!         })
//!     })
//!     .collect();
//! drop(tx); // the producers' clones keep the channel open
//! let mut got = 0;
//! while rx.recv().is_ok() {
//!     got += 1; // drains until the last producer clone drops
//! }
//! for t in producers {
//!     t.join().unwrap();
//! }
//! assert_eq!(got, 200);
//! ```

use crate::sync::{
    block, cancel_all, poll_on, Eventcount, Probe, RecvError, SendError, Slot, SyncState, Waitable,
};
use crate::topology::{TopoCore, TopoEndpoint};
use crate::{
    ShardedHandle, ShardedWcq, UnboundedHandle, UnboundedWcq, WcqConfig, WcqHandle, WcqQueue,
    WcqRing,
};
use std::future::Future;
use std::pin::Pin;
use crate::sim::AtomicUsize;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

// ===================================================================
// Constructors
// ===================================================================

/// Creates a channel over `queue` — the one constructor path; every other
/// constructor in this module is a one-line convenience over it.
///
/// `queue` is any of the four queue types a channel can run on, built
/// however the caller likes (this is where explicit [`WcqConfig`] tuning
/// goes): a [`WcqQueue`] ([`bounded`]), a [`ShardedWcq`] ([`sharded`]), an
/// [`UnboundedWcq`] ([`unbounded`]), or a topology-declared [`TopoCore`]
/// ([`spsc`] / [`mpsc`]). The set is closed: the `Into` target is private
/// to this module, so no other type can be passed.
///
/// ```
/// use wcq::{channel, WcqConfig, WcqQueue};
///
/// let (mut tx, mut rx) = channel::over(WcqQueue::with_config(4, 2, &WcqConfig::stress()));
/// tx.send(7u64).unwrap();
/// assert_eq!(rx.recv(), Ok(7));
/// assert_eq!(tx.backend(), "wcq");
/// ```
pub fn over<T: Send>(queue: impl Into<Backend<T>>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        backend: queue.into(),
        sync: SyncState::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
            cache: None,
        },
        Receiver {
            shared,
            cache: None,
        },
    )
}

/// Creates a bounded channel over a [`WcqQueue`] with `2^order` slots and
/// room for `max_threads` concurrently *operating* endpoints.
///
/// `max_threads` bounds live thread slots, not clones: endpoints register
/// lazily on first use and release on drop, so any number of idle clones
/// is free. An operation that needs a slot while all `max_threads` are
/// taken misses as it would on a full (or empty) queue: `try_send`
/// returns [`TrySendError::Full`], `try_recv` [`TryRecvError::Empty`], the
/// batch calls 0, and the blocking, deadline and async forms park until
/// another endpoint drops — size `max_threads` to the peak number of
/// threads concurrently touching the channel. Undersizing it is not
/// detected: if `max_threads` endpoints are held live and never dropped,
/// a further endpoint's `send`/`recv` waits forever. `max_threads` must
/// be at least 1 (and at most
/// `2^order`, the paper's `k <= n` assumption); violations panic here,
/// at construction.
///
/// `mem::forget` on an endpoint is leak-but-safe: the forgotten endpoint
/// keeps its thread slot and its place in the sender or receiver count
/// for good. A forgotten `Sender` holding the last free slot parks every
/// other sender that needs one, and a forgotten `Receiver` every other
/// receiver: their `try_*` calls miss and their deadline forms return
/// `Timeout`, never early. The channel never closes.
///
/// Elements still queued when the last endpoint drops are dropped then,
/// in FIFO order; the channel never clones a `T`. If one of those drops
/// panics, the panic propagates out of that last endpoint's drop, the
/// elements behind it leak, and none is dropped twice.
pub fn bounded<T: Send>(order: u32, max_threads: usize) -> (Sender<T>, Receiver<T>) {
    over(WcqQueue::new(order, max_threads))
}

/// Creates a bounded channel over a [`ShardedWcq`]: `shards` sub-queues
/// (a power of two) of `2^order` slots each. Senders keep per-sender FIFO
/// within their affinity shard; cross-sender ordering is relaxed exactly
/// as documented on [`ShardedWcq`].
pub fn sharded<T: Send>(
    shards: usize,
    order: u32,
    max_threads: usize,
) -> (Sender<T>, Receiver<T>) {
    over(ShardedWcq::new(shards, order, max_threads))
}

/// Creates an unbounded channel over a [`UnboundedWcq`] whose list nodes
/// hold `2^node_order` slots each. `send` never blocks on capacity (the
/// list grows); it fails only once every receiver is gone.
pub fn unbounded<T: Send>(node_order: u32, max_threads: usize) -> (Sender<T>, Receiver<T>) {
    over(UnboundedWcq::new(node_order, max_threads))
}

/// Creates a channel declared single-producer / single-consumer: one
/// [`crate::spsc::Ring`] of `2^order` slots on the fast path, no helping
/// records or DWCAS anywhere near it.
///
/// The declaration is enforced dynamically, not by the type system: any
/// number of idle clones is free (as everywhere in this module), but the
/// first operation by a *second* concurrently operating sender grafts a
/// wait-free [`WcqQueue`] spine of at least the same capacity onto the
/// channel as an overflow lane (see [`crate::topology`]). The seated
/// sender keeps its ring and its throughput; excess senders run on the
/// spine; per-sender FIFO holds throughout and no element is lost. The
/// single consumer is a contract: a second operating receiver reads
/// nothing — its operations miss as on an endpoint with no free thread
/// slot (see [`bounded`]) — until the seated receiver drops and hands it
/// the consumer seat, rings and spine alike.
///
/// `max_threads` is the post-upgrade analogue of [`bounded`]'s parameter:
/// the spine, if ever built, gets that many thread slots, with the same
/// lazy-acquisition semantics. Before any upgrade it is unused (the ring
/// needs no slots).
///
/// `mem::forget` on an endpoint is leak-but-safe, as on [`bounded`]. A
/// forgotten seated `Receiver` keeps the consumer seat, so every other
/// receiver misses and parks for good. A forgotten `Sender` keeps its
/// producer seat, or its spine thread slot: once it holds the last free
/// one, every further spine sender misses and parks. Deadline forms
/// return `Timeout`, never early, and the channel never closes.
///
/// Teardown is as on [`bounded`]: the ring's elements drop in FIFO order
/// when the last endpoint drops, and a panicking drop propagates out of
/// that endpoint's drop, leaking the ring's later elements and dropping
/// none twice. Elements on a grafted spine are still dropped while that
/// panic unwinds, so a second panicking drop there aborts the process, as
/// any panic during unwinding does.
pub fn spsc<T: Send>(order: u32, max_threads: usize) -> (Sender<T>, Receiver<T>) {
    over(TopoCore::spsc(order, max_threads, &WcqConfig::default()))
}

/// Creates a channel declared multi-producer / single-consumer: each of
/// up to `max_senders` concurrently operating senders gets a **private**
/// [`crate::spsc::Ring`] of `2^order` slots (so senders never contend
/// with each other), and the receiver sweeps the rings. Per-sender FIFO
/// holds; cross-sender ordering is relaxed, exactly as on [`sharded`].
///
/// A `max_senders + 1`-th concurrently operating sender grafts the
/// wait-free [`WcqQueue`] overflow spine as on [`spsc`] (seated senders
/// keep their rings); `max_threads` sizes the spine's thread slots. A
/// second operating receiver waits for the consumer seat, as on [`spsc`].
/// A forgotten endpoint keeps its seat or slot for good, and the channel
/// never closes, as on [`spsc`].
pub fn mpsc<T: Send>(
    order: u32,
    max_senders: usize,
    max_threads: usize,
) -> (Sender<T>, Receiver<T>) {
    over(TopoCore::mpsc(
        max_senders,
        order,
        max_threads,
        &WcqConfig::default(),
    ))
}

/// Receives from whichever of `rxs` has a value first — the minimal
/// `select`-style multi-queue wait the facade otherwise lacks (flushed out
/// by the span-collector pipeline, which sweeps one MPSC lane per shard
/// and must park when *all* of them are empty; DESIGN.md §14). It is the
/// N-lane instance of the one wait protocol in [`crate::sync`].
///
/// Semantics:
///
/// * Probes every receiver in index order; the first value found returns
///   immediately as `Ok((lane, value))` — lower indices therefore win
///   ties, which keeps the call deterministic under light load. A value
///   that is already there costs one sweep and no allocation.
/// * If every lane is observed empty, the calling thread registers on
///   **all** of their not-empty eventcounts and parks, so one `send` on
///   any lane wakes it — no polling loop, no per-lane timeout ladder.
/// * `timeout = None` waits indefinitely (until a value or every lane
///   closes); `Some(d)` bounds the wait and reports
///   [`RecvError::Timeout`] after one final sweep, exactly like
///   [`Receiver::recv_timeout`] — `Some(Duration::ZERO)` only sweeps,
///   it never registers or sleeps, and a `d` too large to add to the
///   clock (`Duration::MAX`) waits without a deadline.
/// * [`RecvError::Closed`] means every lane is closed **and** drained —
///   the collective analogue of a single receiver's `Closed`.
///
/// A receiver that finds no free thread slot (see [`bounded`]), or on a
/// topology channel ([`spsc`], [`mpsc`]) does not hold the consumer seat,
/// is "empty for now": `recv_any` parks on it as on an empty lane, woken
/// when the holder of the slot or seat drops, and never reports `Closed`
/// over values that still exist. Call sites that sweep many lanes should
/// hold the receivers for the thread's lifetime, as the collector does:
/// each receiver takes its thread slot (or seat) lazily, on its first
/// operation.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use wcq::channel;
///
/// let (mut tx_a, rx_a) = channel::spsc::<u32>(4, 2);
/// let (_tx_b, rx_b) = channel::spsc::<u32>(4, 2);
/// let mut lanes = [rx_a, rx_b];
/// tx_a.send(7).unwrap();
/// let (lane, v) = channel::recv_any(&mut lanes, None).unwrap();
/// assert_eq!((lane, v), (0, 7));
/// assert_eq!(
///     channel::recv_any(&mut lanes, Some(Duration::from_millis(1))),
///     Err(wcq::sync::RecvError::Timeout),
/// );
/// ```
pub fn recv_any<T: Send>(
    rxs: &mut [Receiver<T>],
    timeout: Option<Duration>,
) -> Result<(usize, T), RecvError> {
    assert!(!rxs.is_empty(), "recv_any over zero receivers");
    block(AnyOf(rxs), timeout)
}

/// Waitable: take a value from any of N receivers, one lane each (its
/// channel's `not_empty`).
struct AnyOf<'a, T: Send>(&'a mut [Receiver<T>]);

impl<T: Send> Waitable for AnyOf<'_, T> {
    type Output = Result<(usize, T), RecvError>;
    type Slots = Vec<Slot>;

    fn slots(&self) -> Vec<Slot> {
        vec![Slot::default(); self.0.len()]
    }

    fn lane(&self, i: usize) -> &Eventcount {
        self.0[i].shared.sync.not_empty()
    }

    #[inline]
    fn probe(&mut self) -> Probe<Self::Output> {
        let mut waiting = false;
        for (i, rx) in self.0.iter_mut().enumerate() {
            match rx.dequeue().probe() {
                Probe::Ready(Ok(v)) => return Probe::Ready(Ok((i, v))),
                Probe::Ready(Err(_)) => {}
                Probe::Wait => waiting = true,
            }
        }
        if waiting {
            Probe::Wait
        } else {
            Probe::Ready(Err(RecvError::Closed)) // every lane closed and drained
        }
    }

    fn timeout(&mut self) -> Self::Output {
        Err(RecvError::Timeout)
    }
}

// ===================================================================
// Errors
// ===================================================================

/// Why [`Sender::try_send`] did not take the value. Both variants hand the
/// value back — the channel never drops an element.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue was observed full (bounded backends only).
    Full(T),
    /// Every [`Receiver`] has been dropped (or the backlog side closed).
    Closed(T),
}

impl<T> TrySendError<T> {
    /// Recovers the value that was not sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Closed(v) => v,
        }
    }
}

impl<T> std::fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "channel full"),
            TrySendError::Closed(_) => write!(f, "channel closed (no receivers)"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for TrySendError<T> {}

/// Why [`Receiver::try_recv`] returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel was observed empty but senders remain.
    Empty,
    /// Every [`Sender`] has been dropped **and** the backlog is drained.
    Closed,
}

impl std::fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "channel empty"),
            TryRecvError::Closed => write!(f, "channel closed and drained"),
        }
    }
}

impl std::error::Error for TryRecvError {}

// ===================================================================
// Shared state
// ===================================================================

mod sealed {
    use super::*;

    /// The `Arc`-owned queue behind a channel — what [`over`] converts its
    /// argument into. `pub` inside a private module: nameable here, not
    /// outside, which is what closes the set of queues `over` accepts to
    /// the four `From` impls below.
    pub enum Backend<T: Send> {
        Bounded(Arc<WcqQueue<T>>),
        Sharded(Arc<ShardedWcq<T>>),
        Unbounded(Arc<UnboundedWcq<T>>),
        Topo(Arc<TopoCore<T>>),
    }
}
use sealed::Backend;

impl<T: Send> From<WcqQueue<T>> for Backend<T> {
    fn from(q: WcqQueue<T>) -> Self {
        Backend::Bounded(Arc::new(q))
    }
}

impl<T: Send> From<ShardedWcq<T>> for Backend<T> {
    fn from(q: ShardedWcq<T>) -> Self {
        Backend::Sharded(Arc::new(q))
    }
}

impl<T: Send> From<UnboundedWcq<T>> for Backend<T> {
    fn from(q: UnboundedWcq<T>) -> Self {
        Backend::Unbounded(Arc::new(q))
    }
}

impl<T: Send> From<TopoCore<T>> for Backend<T> {
    fn from(core: TopoCore<T>) -> Self {
        Backend::Topo(Arc::new(core))
    }
}

impl<T: Send> Backend<T> {
    fn register(&self) -> Option<Endpoint<T>> {
        match self {
            Backend::Bounded(q) => q.register_owned().map(Endpoint::Bounded),
            Backend::Sharded(q) => q.register_owned().map(Endpoint::Sharded),
            Backend::Unbounded(q) => q.register_owned().map(Endpoint::Unbounded),
            // Topology endpoints need no slot up front: seats are claimed
            // by the first operation (and their exhaustion upgrades), spine
            // slots by the first spine operation, so registration always
            // succeeds.
            Backend::Topo(c) => Some(Endpoint::Topo(c.register())),
        }
    }

    /// The engine currently serving operations (see [`Sender::backend`]).
    fn name(&self) -> &'static str {
        match self {
            Backend::Bounded(_) => "wcq",
            Backend::Sharded(_) => "wcq-sharded",
            Backend::Unbounded(_) => "wcq-unbounded",
            Backend::Topo(c) => c.backend_name(),
        }
    }
}

/// Channel state shared by every endpoint: the queue, its parking state
/// (the only [`SyncState`] in the stack: the queues are spin-only), and
/// the endpoint refcounts that drive auto-close.
struct Shared<T: Send> {
    backend: Backend<T>,
    sync: SyncState,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T: Send> Shared<T> {
    /// An endpoint's handle: the one in its `cache`, else a thread slot
    /// registered now. `None` while all `max_threads` slots are taken (see
    /// [`bounded`]): the operation misses, and a blocking one parks on its
    /// usual lane until an endpoint drop frees a slot and notifies.
    #[inline]
    fn endpoint<'a>(&self, cache: &'a mut Option<Endpoint<T>>) -> Option<&'a mut Endpoint<T>> {
        if cache.is_none() {
            return self.register(cache);
        }
        cache.as_mut()
    }

    /// [`Self::endpoint`]'s first call on an endpoint, or a retry while no
    /// slot is free: registers with the backend, out of line.
    #[cold]
    #[inline(never)]
    fn register<'a>(&self, cache: &'a mut Option<Endpoint<T>>) -> Option<&'a mut Endpoint<T>> {
        *cache = self.backend.register();
        cache.as_mut()
    }

    /// One non-blocking enqueue through `cache`'s endpoint; `Err(v)` hands
    /// the value back when its lane is full or no thread slot is free.
    /// `always` for the reason given on `Enqueue::probe`.
    #[inline(always)]
    fn try_enqueue(&self, cache: &mut Option<Endpoint<T>>, v: T) -> Result<(), T> {
        match self.endpoint(cache) {
            Some(ep) => ep.try_enqueue(&self.sync, v),
            None => Err(v),
        }
    }

    /// Drops an endpoint's handle, if it took one, and announces what that
    /// freed — a thread slot, a consumer seat — on both lanes: endpoints
    /// of either side park on their own lane while waiting for one.
    /// Fenced: the slot and seat releases are plain `Release` stores.
    fn release(&self, cache: &mut Option<Endpoint<T>>) {
        if let Some(ep) = cache.take() {
            drop(ep); // quiesces, then releases
            self.sync.notify_not_full_fenced();
            self.sync.notify_not_empty_fenced();
        }
    }
}

/// A lazily registered `Arc`-holding handle, cached inside an endpoint.
/// One endpoint drives one thread record at a time (endpoints take
/// `&mut self`, and a clone starts with an empty cache), which is the
/// handles' contract.
enum Endpoint<T: Send> {
    Bounded(WcqHandle<T, Arc<WcqQueue<T>>>),
    Sharded(ShardedHandle<T, Arc<ShardedWcq<T>>>),
    Unbounded(UnboundedHandle<T, WcqRing, Arc<UnboundedWcq<T>>>),
    Topo(TopoEndpoint<T>),
}

impl<T: Send> Endpoint<T> {
    /// Announces a state change on `ec`, one of the channel's two lanes.
    /// A topology op needs the fenced notify: its rings publish with plain
    /// stores, which can sit in the store buffer past a plain waiter-count
    /// load (DESIGN.md §11). The other backends' ops end in a lock-prefixed
    /// RMW, which orders the plain notify for free.
    #[inline]
    fn notify(&self, ec: &Eventcount) {
        match self {
            Endpoint::Topo(_) => ec.notify_all_fenced(),
            _ => ec.notify_all(),
        }
    }

    /// One non-blocking enqueue attempt; `Err(v)` hands the value back
    /// when this endpoint's lane is full.
    ///
    /// Inline: the topology arm, whose seated push is a few plain loads
    /// and stores. The queue arms are one call, [`Self::enqueue_queue`]:
    /// their ring operations are out-of-line `IndexRing` calls anyway
    /// (DESIGN.md §3.1). `always` for the reason given on
    /// `Enqueue::probe`.
    #[inline(always)]
    fn try_enqueue(&mut self, sync: &SyncState, v: T) -> Result<(), T> {
        let Endpoint::Topo(h) = self else {
            return self.enqueue_queue(sync, v);
        };
        h.try_enqueue(v)?;
        self.notify(sync.not_empty());
        Ok(())
    }

    /// [`Self::try_enqueue`] on a bounded, sharded or unbounded queue.
    #[inline(never)]
    fn enqueue_queue(&mut self, sync: &SyncState, v: T) -> Result<(), T> {
        match self {
            Endpoint::Bounded(h) => h.enqueue(v)?,
            Endpoint::Sharded(h) => h.enqueue(v)?,
            Endpoint::Unbounded(h) => h.enqueue(v),
            Endpoint::Topo(_) => unreachable!("taken inline by try_enqueue"),
        }
        self.notify(sync.not_empty());
        Ok(())
    }

    /// One non-blocking dequeue attempt; `None` when observed empty.
    /// Inline: the topology arm, as in [`Self::try_enqueue`]; `always` for
    /// the reason given on `Enqueue::probe`.
    #[inline(always)]
    fn try_dequeue(&mut self, sync: &SyncState) -> Option<T> {
        let Endpoint::Topo(h) = self else {
            return self.dequeue_queue(sync);
        };
        let v = h.try_dequeue()?;
        self.notify(sync.not_full());
        Some(v)
    }

    /// [`Self::try_dequeue`] on a bounded, sharded or unbounded queue.
    #[inline(never)]
    fn dequeue_queue(&mut self, sync: &SyncState) -> Option<T> {
        let v = match self {
            Endpoint::Bounded(h) => h.dequeue(),
            Endpoint::Sharded(h) => h.dequeue(),
            // Nobody waits for room in a list that grows.
            Endpoint::Unbounded(h) => return h.dequeue(),
            Endpoint::Topo(_) => unreachable!("taken inline by try_dequeue"),
        }?;
        self.notify(sync.not_full());
        Some(v)
    }

    fn enqueue_batch(&mut self, sync: &SyncState, items: &mut Vec<T>) -> usize {
        let n = match self {
            Endpoint::Bounded(h) => h.enqueue_batch(items),
            Endpoint::Sharded(h) => h.enqueue_batch(items),
            Endpoint::Unbounded(h) => h.enqueue_batch(items),
            Endpoint::Topo(h) => h.enqueue_batch(items),
        };
        if n > 0 {
            self.notify(sync.not_empty()); // whole batch visible: wake once
        }
        n
    }

    fn dequeue_batch(&mut self, sync: &SyncState, out: &mut Vec<T>, max: usize) -> usize {
        let n = match self {
            Endpoint::Bounded(h) => h.dequeue_batch(out, max),
            Endpoint::Sharded(h) => h.dequeue_batch(out, max),
            Endpoint::Unbounded(h) => return h.dequeue_batch(out, max),
            Endpoint::Topo(h) => h.dequeue_batch(out, max),
        };
        if n > 0 {
            self.notify(sync.not_full()); // slots recycled: wake once
        }
        n
    }

    /// `true` while this endpoint lacks a topology channel's consumer
    /// seat, so values may sit out of its reach until the holder drops
    /// (DESIGN.md §11). The other backends have no seat.
    fn residue_hint(&self) -> bool {
        matches!(self, Endpoint::Topo(h) if h.residue_hint())
    }
}

/// Waitable: put `v` into the channel. One lane, `not_full`. `Closed`
/// wins over an attempt, and the value rides back in every error.
struct Enqueue<'a, T: Send> {
    ep: &'a mut Option<Endpoint<T>>,
    shared: &'a Shared<T>,
    v: Option<T>,
}

impl<T: Send> Waitable for Enqueue<'_, T> {
    type Output = Result<(), SendError<T>>;
    type Slots = [Slot; 1];

    fn slots(&self) -> [Slot; 1] {
        Default::default()
    }

    fn lane(&self, _: usize) -> &Eventcount {
        self.shared.sync.not_full()
    }

    // `always`, here, on `Dequeue`'s probe, on `Shared::try_enqueue` and on
    // `Endpoint::try_{en,de}queue`: a probe is the body of every channel op,
    // reached from `block`, from both probes of each park round, and from
    // `try_recv` and `recv_any`. With that many call sites LLVM's inliner
    // stops one level short of the ring and leaves a call in front of it.
    // After the hot/cold split what this forces in is small: the endpoint
    // check, the topology arm with its notify, and calls to the
    // out-of-line tails (DESIGN.md §3.1).
    #[inline(always)]
    fn probe(&mut self) -> Probe<Self::Output> {
        let v = self.v.take().expect("polled after completion");
        if self.shared.sync.is_closed() {
            return Probe::Ready(Err(SendError::Closed(v)));
        }
        match self.shared.try_enqueue(self.ep, v) {
            Ok(()) => Probe::Ready(Ok(())),
            Err(back) => {
                self.v = Some(back);
                Probe::Wait
            }
        }
    }

    fn timeout(&mut self) -> Self::Output {
        Err(SendError::Timeout(
            self.v.take().expect("a miss keeps the value"),
        ))
    }
}

/// Waitable: take a value from the channel. One lane, `not_empty`.
/// Drains after close; [`Receiver::try_recv`] and each lane of
/// [`recv_any`] read this same verdict.
struct Dequeue<'a, T: Send> {
    ep: &'a mut Option<Endpoint<T>>,
    shared: &'a Shared<T>,
}

impl<T: Send> Waitable for Dequeue<'_, T> {
    type Output = Result<T, RecvError>;
    type Slots = [Slot; 1];

    fn slots(&self) -> [Slot; 1] {
        Default::default()
    }

    fn lane(&self, _: usize) -> &Eventcount {
        self.shared.sync.not_empty()
    }

    // `always`: see `Enqueue::probe`.
    #[inline(always)]
    fn probe(&mut self) -> Probe<Self::Output> {
        if let Some(ep) = self.shared.endpoint(self.ep) {
            if let Some(v) = ep.try_dequeue(&self.shared.sync) {
                return Probe::Ready(Ok(v));
            }
        }
        self.miss()
    }

    fn timeout(&mut self) -> Self::Output {
        Err(RecvError::Timeout)
    }
}

impl<T: Send> Dequeue<'_, T> {
    /// The probe's verdict after its attempt missed: wait, or — closed
    /// and drained — `Closed`. Out of line (DESIGN.md §3.1).
    #[cold]
    #[inline(never)]
    fn miss(&mut self) -> Probe<Result<T, RecvError>> {
        let sync = &self.shared.sync;
        // No thread slot: even a closed channel may still hold values.
        let Some(ep) = self.ep.as_mut() else {
            return Probe::Wait;
        };
        if !sync.is_closed() {
            return Probe::Wait;
        }
        // Drain race: an insert may have landed between the attempt and
        // the close check.
        match ep.try_dequeue(sync) {
            Some(v) => Probe::Ready(Ok(v)),
            // No consumer seat: as with no thread slot, values may sit out
            // of reach. The holder's drop hands the seat over and notifies
            // `not_empty`.
            None if ep.residue_hint() => Probe::Wait,
            None => Probe::Ready(Err(RecvError::Closed)),
        }
    }
}

// ===================================================================
// Sender
// ===================================================================

/// The sending half of a channel. Cloneable (each clone is an independent
/// endpoint); dropping the last sender closes the channel for receivers
/// once they drain the backlog.
pub struct Sender<T: Send> {
    shared: Arc<Shared<T>>,
    cache: Option<Endpoint<T>>,
}

impl<T: Send> Sender<T> {
    fn enqueue(&mut self, v: T) -> Enqueue<'_, T> {
        Enqueue {
            ep: &mut self.cache,
            shared: &self.shared,
            v: Some(v),
        }
    }

    /// Non-blocking send. [`TrySendError::Full`] hands the value back when
    /// the queue is full (never on [`unbounded`] channels) or this endpoint
    /// finds no free thread slot (see [`bounded`]);
    /// [`TrySendError::Closed`] when every receiver is gone. Never waits.
    #[inline]
    pub fn try_send(&mut self, v: T) -> Result<(), TrySendError<T>> {
        if self.shared.sync.is_closed() {
            return Err(TrySendError::Closed(v));
        }
        self.shared
            .try_enqueue(&mut self.cache, v)
            .map_err(TrySendError::Full)
    }

    /// Sends, parking while the queue is full. Fails only when every
    /// receiver is gone (the value rides back in [`SendError::Closed`]).
    ///
    /// ```
    /// let (mut tx, mut rx) = wcq::channel::bounded::<u32>(4, 2);
    /// tx.send(1).unwrap(); // space available: no parking
    /// assert_eq!(rx.recv(), Ok(1));
    /// ```
    pub fn send(&mut self, v: T) -> Result<(), SendError<T>> {
        block(self.enqueue(v), None)
    }

    /// Like [`Self::send`] with a deadline; a timeout is
    /// element-conserving ([`SendError::Timeout`] carries the value). A
    /// zero timeout is a pure try-op — it never registers or sleeps; a
    /// `timeout` too large to add to the clock (`Duration::MAX`) waits
    /// without a deadline, like [`Self::send`].
    ///
    /// ```
    /// use std::time::Duration;
    /// use wcq::sync::SendError;
    /// let (mut tx, _rx) = wcq::channel::bounded::<u32>(2, 2); // 4 slots
    /// for i in 0..4 { tx.send(i).unwrap(); }
    /// let r = tx.send_timeout(99, Duration::from_millis(1));
    /// assert_eq!(r, Err(SendError::Timeout(99))); // value handed back
    /// ```
    pub fn send_timeout(&mut self, v: T, timeout: Duration) -> Result<(), SendError<T>> {
        block(self.enqueue(v), Some(timeout))
    }

    /// Async send: resolves when the value is in, or with
    /// [`SendError::Closed`] when every receiver is gone (the future's
    /// first poll checks the closed flag, so a closed channel resolves
    /// without ever parking the task). Drive it with any executor, e.g.
    /// [`crate::sync::block_on`].
    pub fn send_async(&mut self, v: T) -> SendFuture<'_, T> {
        SendFuture {
            w: self.enqueue(v),
            slots: Default::default(),
        }
    }

    /// Batch send: drains as many items as fit from the **front** of
    /// `items` (preserving order) and returns how many were sent; items
    /// left behind did not fit (queue full, or no free thread slot) or the
    /// channel is closed (check [`Self::is_closed`] to distinguish).
    pub fn send_batch(&mut self, items: &mut Vec<T>) -> usize {
        if self.shared.sync.is_closed() {
            return 0;
        }
        self.shared
            .endpoint(&mut self.cache)
            .map_or(0, |ep| ep.enqueue_batch(&self.shared.sync, items))
    }

    /// `true` once every [`Receiver`] has been dropped (sends can no
    /// longer succeed).
    pub fn is_closed(&self) -> bool {
        self.shared.sync.is_closed()
    }

    /// The engine currently serving this channel: `"wcq"`,
    /// `"wcq-sharded"`, `"wcq-unbounded"`, or — on topology-declared
    /// channels — `"spsc-ring"` / `"mpsc-rings"`, becoming `"wcq-spine"`
    /// after an upgrade (see [`spsc`]). Diagnostics only; snapshot, since
    /// an upgrade can race it.
    pub fn backend(&self) -> &'static str {
        self.shared.backend.name()
    }
}

impl<T: Send> Clone for Sender<T> {
    fn clone(&self) -> Self {
        // ORDERING: endpoint refcount for close-on-last-drop; the ==1
        // observation must totally order with the peer's count ops — cover:
        // dst models 5-6
        self.shared.senders.fetch_add(1, SeqCst);
        Sender {
            shared: Arc::clone(&self.shared),
            cache: None, // clones take a thread slot lazily, on first use
        }
    }
}

impl<T: Send> Drop for Sender<T> {
    fn drop(&mut self) {
        // Release the thread slot first (quiesced, via the cached handle's
        // drop) and announce it, then retire from the refcount; last sender
        // out closes the channel so receivers drain and see `Closed`.
        self.shared.release(&mut self.cache);
        // ORDERING: endpoint refcount for close-on-last-drop; the ==1
        // observation must totally order with the peer's count ops
        if self.shared.senders.fetch_sub(1, SeqCst) == 1 {
            self.shared.sync.close();
        }
    }
}

// ===================================================================
// Receiver
// ===================================================================

/// The receiving half of a channel. Cloneable (competing consumers);
/// dropping the last receiver closes the channel so senders stop
/// accumulating values nobody will read.
pub struct Receiver<T: Send> {
    shared: Arc<Shared<T>>,
    cache: Option<Endpoint<T>>,
}

impl<T: Send> Receiver<T> {
    fn dequeue(&mut self) -> Dequeue<'_, T> {
        Dequeue {
            ep: &mut self.cache,
            shared: &self.shared,
        }
    }

    /// Non-blocking receive. Drains the backlog even after close:
    /// [`TryRecvError::Closed`] is reported only once the channel is both
    /// closed and empty. [`TryRecvError::Empty`] also covers an endpoint
    /// that finds no free thread slot (see [`bounded`]) or, on [`spsc`]
    /// and [`mpsc`] channels, no free consumer seat. Never waits.
    #[inline]
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        match self.dequeue().probe() {
            Probe::Ready(Ok(v)) => Ok(v),
            Probe::Ready(Err(_)) => Err(TryRecvError::Closed),
            Probe::Wait => Err(TryRecvError::Empty),
        }
    }

    /// Receives, parking while the channel is empty. After the last
    /// [`Sender`] drops, drains the backlog and then reports
    /// [`RecvError::Closed`].
    pub fn recv(&mut self) -> Result<T, RecvError> {
        block(self.dequeue(), None)
    }

    /// Like [`Self::recv`] with a deadline; takes one last look before
    /// reporting [`RecvError::Timeout`]. A zero timeout is a pure try-op —
    /// it never registers or sleeps; a `timeout` too large to add to the
    /// clock (`Duration::MAX`) waits without a deadline, like
    /// [`Self::recv`].
    ///
    /// ```
    /// use std::time::Duration;
    /// use wcq::sync::RecvError;
    /// let (_tx, mut rx) = wcq::channel::bounded::<u32>(4, 2);
    /// let r = rx.recv_timeout(Duration::from_millis(1));
    /// assert_eq!(r, Err(RecvError::Timeout));
    /// ```
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, RecvError> {
        block(self.dequeue(), Some(timeout))
    }

    /// Async receive: resolves with a value, or [`RecvError::Closed`] once
    /// the channel is closed and drained.
    pub fn recv_async(&mut self) -> RecvFuture<'_, T> {
        RecvFuture {
            w: self.dequeue(),
            slots: Default::default(),
        }
    }

    /// Batch receive: appends up to `max` elements to `out` in queue order
    /// and returns how many were appended (0 means observed empty, or no
    /// free thread slot or consumer seat — check [`Self::is_closed`] to
    /// distinguish "for now" from "forever").
    pub fn recv_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.shared
            .endpoint(&mut self.cache)
            .map_or(0, |ep| ep.dequeue_batch(&self.shared.sync, out, max))
    }

    /// `true` once every [`Sender`] has been dropped. The backlog may
    /// still hold values; [`Self::try_recv`]/[`Self::recv`] drain it.
    pub fn is_closed(&self) -> bool {
        self.shared.sync.is_closed()
    }

    /// The engine currently serving this channel; see [`Sender::backend`].
    pub fn backend(&self) -> &'static str {
        self.shared.backend.name()
    }
}

impl<T: Send> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        // ORDERING: endpoint refcount for close-on-last-drop; the ==1
        // observation must totally order with the peer's count ops
        self.shared.receivers.fetch_add(1, SeqCst);
        Receiver {
            shared: Arc::clone(&self.shared),
            cache: None,
        }
    }
}

impl<T: Send> Drop for Receiver<T> {
    fn drop(&mut self) {
        // As for a sender: the thread slot, and any consumer seat with it.
        self.shared.release(&mut self.cache);
        // ORDERING: endpoint refcount for close-on-last-drop; the ==1
        // observation must totally order with the peer's count ops
        if self.shared.receivers.fetch_sub(1, SeqCst) == 1 {
            // Last reader gone: fail senders fast instead of letting them
            // fill (or grow) a queue nobody will drain.
            self.shared.sync.close();
        }
    }
}

// ===================================================================
// Futures
// ===================================================================

/// Future returned by [`Sender::send_async`]. Registers the task's
/// [`Waker`](std::task::Waker) on the channel's not-full eventcount and
/// deregisters on completion or drop, so an abandoned future leaves no
/// stale waiter behind.
pub struct SendFuture<'a, T: Send> {
    w: Enqueue<'a, T>,
    slots: [Slot; 1],
}

// The futures never hold self-references; all fields are used by value.
impl<T: Send> Unpin for SendFuture<'_, T> {}

impl<T: Send> Future for SendFuture<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        poll_on(&mut this.w, &mut this.slots, cx)
    }
}

impl<T: Send> Drop for SendFuture<'_, T> {
    fn drop(&mut self) {
        cancel_all(&self.w, &mut self.slots);
    }
}

/// Future returned by [`Receiver::recv_async`]; waker bookkeeping as in
/// [`SendFuture`], on the not-empty eventcount.
pub struct RecvFuture<'a, T: Send> {
    w: Dequeue<'a, T>,
    slots: [Slot; 1],
}

impl<T: Send> Unpin for RecvFuture<'_, T> {}

impl<T: Send> Future for RecvFuture<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        poll_on(&mut this.w, &mut this.slots, cx)
    }
}

impl<T: Send> Drop for RecvFuture<'_, T> {
    fn drop(&mut self) {
        cancel_all(&self.w, &mut self.slots);
    }
}

#[cfg(test)]
impl<T: Send> Receiver<T> {
    /// The channel's parking state, for tests that count its waiters.
    pub(crate) fn sync_state(&self) -> &SyncState {
        &self.shared.sync
    }
}
