//! Blocking and async facade over the spin-only queues (DESIGN.md §9).
//!
//! Every queue in the suite is non-blocking by construction: `dequeue` on an
//! empty queue returns immediately, so a consumer that wants to *wait* for
//! data must spin. Under oversubscription — exactly the regime wait-freedom
//! is for — a spinning consumer burns its whole scheduler quantum polling.
//! This module adds the standard remedy, an **eventcount** (futex-style
//! parking built on [`std::thread::park`], zero dependencies): consumers and
//! producers park on the empty/full *edge* only, while every successful
//! queue operation stays the untouched wait-free fast path plus one
//! `SeqCst` load to check for sleepers.
//!
//! The entry points live on the [`SyncQueue`] trait, implemented once per
//! queue family — [`crate::WcqHandle`], [`crate::ShardedHandle`],
//! [`crate::UnboundedHandle`], each over either holder ([`crate::Hold`]) —
//! and by the [`crate::channel`] endpoints built on them (there the
//! `close()` below is driven automatically by sender/receiver refcounts):
//!
//! * [`SyncQueue::enqueue_blocking`] / [`SyncQueue::dequeue_blocking`] —
//!   park until space/data or [`close`](crate::WcqQueue::close);
//! * [`SyncQueue::enqueue_timeout`] / [`SyncQueue::dequeue_timeout`] —
//!   the same with a deadline; timeouts are element-conserving (a timed-out
//!   enqueue hands the value back, a timed-out dequeue takes one last look);
//! * [`SyncQueue::enqueue_async`] / [`SyncQueue::dequeue_async`] —
//!   `Future`s registering a [`Waker`] instead of a thread, driven by any
//!   executor; [`block_on`] is a minimal vendored one for examples/tests.
//!
//! # Blocking example
//!
//! ```
//! use wcq::sync::{RecvError, SyncQueue};
//! use wcq::WcqQueue;
//!
//! let q: WcqQueue<u64> = WcqQueue::new(4, 2);
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut h = q.register().unwrap();
//!         h.enqueue_blocking(7).unwrap();
//!         q.close(); // wakes everyone; dequeuers drain, then see Closed
//!     });
//!     let mut h = q.register().unwrap();
//!     assert_eq!(h.dequeue_blocking(), Ok(7)); // parks until the send
//!     assert_eq!(h.dequeue_blocking(), Err(RecvError::Closed));
//! });
//! ```
//!
//! # Async example
//!
//! ```
//! use wcq::sync::{block_on, SyncQueue};
//! use wcq::UnboundedWcq;
//!
//! let q: UnboundedWcq<String> = UnboundedWcq::new(4, 2);
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut h = q.register().unwrap();
//!         block_on(async { h.enqueue_async("ping".to_string()).await }).unwrap();
//!     });
//!     let mut h = q.register().unwrap();
//!     let got = block_on(async { h.dequeue_async().await });
//!     assert_eq!(got.as_deref(), Ok("ping"));
//! });
//! ```
//!
//! # Why wait-freedom survives
//!
//! The queue operations themselves are untouched: an element is enqueued by
//! the same bounded-step ring protocol as before, and only *after* it is
//! visible does the producer glance at the waiter counter (one `SeqCst`
//! load; no RMW, no lock when nobody sleeps). Parking happens strictly on
//! the empty/full edge, where the caller has — by definition — no work to
//! do; a parked thread holds no queue state, so it can never wedge another
//! thread's operation. The waiter list's mutex is touched only by threads
//! that are about to sleep or are waking sleepers, never on the per-element
//! path. The no-lost-wakeup argument is a Dekker-style flag pair, spelled
//! out in DESIGN.md §9 and stress-tested at 4× oversubscription in
//! `tests/blocking_facade.rs`.
//!
//! ORDERING: eventcount epoch/waiter-count Dekker with the queue's state
//! change; the no-lost-wakeup argument needs these in the SeqCst total order
//! with the queue's RMWs — cover: dst model 5

use crossbeam_utils::CachePadded;
use std::future::Future;
use std::pin::Pin;
use crate::sim::{AtomicBool, AtomicU64, AtomicUsize, Mutex};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

// ===================================================================
// Adaptive backoff
// ===================================================================

/// Bounded exponential backoff for spin/retry edges (the crossbeam
/// `Backoff` shape, rebuilt on the private `sim` seam so DST builds
/// model every pause as a scheduler step).
///
/// The suite's wait edges — points where a thread has nothing to do until
/// *another* thread moves — previously hard-coded their politeness: a fixed
/// spin count, then `yield_now` forever. That is wrong at both ends of the
/// contention spectrum. Under light contention the partner lands within a
/// few cycles and a fixed 64-iteration spin wastes them; under heavy
/// oversubscription yielding immediately is right and spinning at all
/// burns the quantum the partner needs. Exponential backoff adapts: each
/// [`spin`](Self::spin)/[`snooze`](Self::snooze) doubles the pause, and
/// `snooze` switches from `spin_loop` hints to `yield_now` once the pause
/// exceeds a cache-miss-scale bound, handing the core to whoever holds the
/// progress token.
///
/// The struct is deliberately *not* a loop bound: it adapts the *cost* of
/// each retry, never the retry count. Every adopting site keeps (and
/// states in its `// BOUND:` comment) its own bound argument —
/// `is_completed` merely signals "pauses are maxed out, park properly if
/// you can".
///
/// ```
/// use wcq::sync::Backoff;
/// let mut b = Backoff::new();
/// let flag = std::sync::atomic::AtomicBool::new(true); // set by a peer
/// while !flag.load(std::sync::atomic::Ordering::Acquire) {
///     b.snooze(); // spin a little, then start yielding
/// }
/// ```
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

/// `snooze` spins `1, 2, 4, …, 2^SPIN_LIMIT` hint iterations, then yields.
const SPIN_LIMIT: u32 = 6;
/// After `YIELD_LIMIT` total steps `is_completed` reports saturation.
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    /// A fresh backoff: the next pause is a single `spin_loop` hint.
    #[inline]
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Resets to the initial (shortest) pause. Call on progress so the
    /// next wait starts optimistic again.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Backs off without yielding: `2^step` spin-loop hints, capped at
    /// `2^SPIN_LIMIT`. For lock-free retry edges where the partner is
    /// known to be mid-operation and yielding would oversleep.
    #[inline]
    pub fn spin(&mut self) {
        for _ in 0..1u32 << self.step.min(SPIN_LIMIT) {
            crate::sim::spin_loop();
        }
        self.step = self.step.saturating_add(1);
    }

    /// Backs off, escalating from spin hints to `yield_now` once the
    /// exponential pause passes `2^SPIN_LIMIT` hints. For wait edges where
    /// the partner may be descheduled — the yield donates this quantum to
    /// it (the hand-off §3.4 helping relies on under oversubscription).
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                crate::sim::spin_loop();
            }
        } else {
            crate::sim::yield_now();
        }
        self.step = self.step.saturating_add(1);
    }

    /// Whether backoff has saturated — the caller has spun and yielded
    /// enough that parking (eventcount registration) is the better deal.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step > YIELD_LIMIT
    }
}

/// The one slot-wait policy: retries `register` until it yields a handle,
/// [snoozing](Backoff::snooze) while all of a queue's `max_threads` slots
/// are taken. A slot frees only when another endpoint drops — likely a
/// descheduled thread, so the backoff escalates to yielding quickly. The
/// wait is bounded by the caller's own endpoint discipline (documented on
/// [`crate::channel::bounded`]): an undersized `max_threads` whose holders
/// never drop waits forever.
pub(crate) fn wait_for_slot<H>(mut register: impl FnMut() -> Option<H>) -> H {
    let mut backoff = Backoff::new();
    // BOUND: wait-edge — the one slot-wait policy (channel lazy acquisition
    // and topology spine registration both route here): waits for a peer
    // endpoint holder to drop one of the queue's max_threads slots; paced
    // by Backoff::snooze (adaptive spin-then-yield); unbounded only if the
    // caller undersized max_threads and no holder ever drops (documented on
    // channel::bounded)
    loop {
        if let Some(h) = register() {
            return h;
        }
        backoff.snooze();
    }
}

// ===================================================================
// Asymmetric store→load fencing (membarrier)
// ===================================================================

/// Asymmetric fencing for the plain-store notify path, built on Linux's
/// `membarrier(2)`.
///
/// The store-buffering lost-wakeup race needs a full barrier on **both**
/// sides: the notifier between its state store and its waiter-count load,
/// and the waiter between its registration store and its state re-check.
/// The symmetric fix fences the notifier on every operation — a real cost
/// on the SPSC/MPSC ring fast paths, which are otherwise fence-free.
///
/// `MEMBARRIER_CMD_PRIVATE_EXPEDITED` moves the whole cost to the waiter:
/// the syscall IPIs every CPU currently running a thread of this process
/// and executes a full barrier there. A notifier whose waiter-count load
/// ran *before* the waiter registered has, by program order, already
/// issued its state store — the IPI drains it from the store buffer, so
/// the waiter's post-registration re-check (sequenced after the syscall)
/// must observe it. The notifier then needs **no** fence at all: its count
/// load can be `Relaxed`, because the only stale value it can read is one
/// whose waiter the membarrier already ordered against. Waiters are about
/// to park (mutex + syscall territory), so a ~1 µs IPI broadcast is noise
/// there, while the notify fast path drops to a single plain load.
///
/// Availability is probed once (`CMD_QUERY` + registration); kernels or
/// sandboxes without it fall back to the symmetric `SeqCst`-fence notify.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(wcq_dst)
))]
mod asymfence {
    use std::sync::OnceLock;

    static ENABLED: OnceLock<bool> = OnceLock::new();

    fn probe() -> bool {
        // SAFETY: membarrier takes no pointers; bogus arguments fail with
        // -EINVAL, never touch memory.
        unsafe {
            let mask = libc::syscall(libc::SYS_membarrier, libc::MEMBARRIER_CMD_QUERY, 0, 0);
            if mask < 0 {
                return false;
            }
            let need = (libc::MEMBARRIER_CMD_PRIVATE_EXPEDITED
                | libc::MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) as i64;
            if mask & need != need {
                return false;
            }
            libc::syscall(
                libc::SYS_membarrier,
                libc::MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED,
                0,
                0,
            ) == 0
        }
    }

    /// Whether the expedited membarrier is registered and usable.
    #[inline]
    pub fn enabled() -> bool {
        *ENABLED.get_or_init(probe)
    }

    /// Full barrier on every CPU running a thread of this process. Only
    /// call when [`enabled`] returned `true`.
    pub fn heavy() {
        // SAFETY: no pointers; after successful registration this command
        // cannot fail (membarrier(2)).
        let r = unsafe {
            libc::syscall(libc::SYS_membarrier, libc::MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0)
        };
        debug_assert_eq!(r, 0, "registered PRIVATE_EXPEDITED membarrier failed");
    }
}

/// `wcq_dst` builds: inside an exploration the barrier is *modeled* — the
/// weak memory simulator treats [`shuttle_lite::membarrier`] as a `SeqCst`
/// fence executed on behalf of every simulated thread, which is the IPI
/// semantics the real syscall provides. That lets the DST models search
/// the actual asymmetric notify protocol (Relaxed waiter-count load, no
/// notifier fence) instead of the symmetric fallback. Outside an
/// exploration (pass-through tests in a `wcq_dst` build) it stays
/// disabled and the symmetric `SeqCst`-fence notify runs.
#[cfg(wcq_dst)]
mod asymfence {
    #[inline]
    pub fn enabled() -> bool {
        shuttle_lite::in_sim()
    }

    pub fn heavy() {
        shuttle_lite::membarrier();
    }
}

/// Fallback for targets without `membarrier(2)`: symmetric fencing only.
#[cfg(not(any(
    wcq_dst,
    all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )
)))]
mod asymfence {
    #[inline]
    pub fn enabled() -> bool {
        false
    }

    pub fn heavy() {}
}

// ===================================================================
// Eventcount
// ===================================================================

/// What a registered waiter wants woken: a parked thread or a task waker.
enum WaiterKind {
    Thread(crate::sim::Thread),
    Task(Waker),
}

impl WaiterKind {
    fn wake(self) {
        match self {
            WaiterKind::Thread(t) => t.unpark(),
            WaiterKind::Task(w) => w.wake(),
        }
    }
}

/// Registered waiters, keyed by a monotone token so timed-out or dropped
/// waiters can deregister themselves exactly.
#[derive(Default)]
struct WaiterList {
    next_token: u64,
    entries: Vec<(u64, WaiterKind)>,
}

/// A futex-style eventcount: `listen` snapshots an epoch, `notify_all`
/// bumps it and wakes every registered waiter, and waiters park only after
/// re-checking their condition *post-registration*.
///
/// The lost-wakeup argument is the classic Dekker pair: a notifier makes
/// its state change visible (`SeqCst`), then loads the waiter count; a
/// waiter registers (a `SeqCst` store of the count), then re-checks the
/// state. In the `SeqCst` total order one of the two must see the other,
/// so either the notifier wakes the waiter or the waiter never parks.
///
/// `notify_all` with no waiters is a single `SeqCst` load — cheap enough
/// to sit after every successful queue operation.
pub struct Eventcount {
    /// Bumped on every delivered notification; `listen` keys against it.
    epoch: AtomicU64,
    /// Mirror of `waiters.entries.len()`, readable without the lock.
    nwaiters: AtomicUsize,
    waiters: Mutex<WaiterList>,
}

impl Default for Eventcount {
    fn default() -> Self {
        Self::new()
    }
}

impl Eventcount {
    /// Creates an eventcount with no waiters.
    pub fn new() -> Self {
        Eventcount {
            epoch: AtomicU64::new(0),
            nwaiters: AtomicUsize::new(0),
            waiters: Mutex::new(WaiterList::default()),
        }
    }

    /// Snapshots the epoch. Take the snapshot **before** probing the
    /// condition you are about to wait on.
    ///
    /// `Relaxed` is enough: the epoch key is *not* part of the Dekker
    /// no-lost-wakeup pair (that is `nwaiters` vs the caller's state
    /// change — see the struct docs). The key only prevents parking on a
    /// notification that already happened, and the register path re-reads
    /// the epoch **under the waiter mutex**: a stale snapshot at worst
    /// makes `register_thread`/`register_task` refuse the key, and the
    /// caller re-probes its condition ordered behind the notifier's bump
    /// by the mutex's critical-section ordering. A torn/late value can
    /// therefore cost one retry, never a missed wakeup. Verified by the
    /// eventcount DST model under `WCQ_DST_WEAK=1` (weak-memory
    /// exploration of this exact load at `Relaxed`).
    #[inline]
    pub fn listen(&self) -> u64 {
        // ORDERING: listen's epoch snapshot is not part of the Dekker pair:
        // the register path re-reads the epoch under the waiter mutex
        // before parking, so a stale key costs one retry, never a lost
        // wakeup (downgraded from SeqCst; bench ablation eventcount_listen)
        // — cover: dst model 9 (weak)
        self.epoch.load(Relaxed)
    }

    /// Wakes every registered waiter. A no-op (single load) when nobody is
    /// registered. Call it **after** the state change it advertises.
    ///
    /// The no-lost-wakeup pairing assumes the caller's state change ends in
    /// an RMW or `SeqCst` store (true of every CAS/F&A-based queue here) so
    /// it cannot sink past the waiter-count load. A state change made of
    /// *plain* stores — the SPSC ring's index publication — must use
    /// [`Self::notify_all_fenced`] instead.
    #[inline]
    pub fn notify_all(&self) {
        if self.nwaiters.load(SeqCst) == 0 {
            return;
        }
        self.notify_slow();
    }

    /// [`Self::notify_all`] for state changes published by plain/`Release`
    /// stores (the SPSC ring's index publication): without extra ordering
    /// the store can sit in the store buffer past the waiter-count load,
    /// the waiter's post-registration re-check misses it, and both sides
    /// sleep — the classic store-buffering lost wakeup.
    ///
    /// Where the asymmetric `membarrier` fence is available the waiters
    /// carry the whole
    /// barrier (a `membarrier` after registering) and this path is a
    /// single `Relaxed` load; elsewhere it issues the symmetric `SeqCst`
    /// fence before the count check.
    #[inline]
    pub fn notify_all_fenced(&self) {
        if !asymfence::enabled() {
            // ORDERING: notify_all_fenced symmetric fallback: orders the
            // caller's plain-store state change before the waiter-count
            // load when membarrier is unavailable — cover: dst model 5 +
            // dekker litmus
            crate::sim::fence(SeqCst);
        }
        // ORDERING: notifier's waiter-count probe on the membarrier path:
        // the waiter side carries the whole barrier (asymmetric Dekker) —
        // cover: dst model 5 + dekker litmus
        if self.nwaiters.load(Relaxed) == 0 {
            return;
        }
        self.notify_slow();
    }

    #[cold]
    fn notify_slow(&self) {
        let woken = {
            let mut l = self.waiters.lock().unwrap();
            // The bump must happen INSIDE the critical section: it makes
            // "my entry was drained ⇒ the epoch moved past my key" an
            // invariant. Bumping before the lock opens a window where a
            // thread registers for the post-bump epoch, gets drained by
            // this very notification, wakes, sees its key still current,
            // and re-parks with nobody left to wake it.
            self.epoch.fetch_add(1, SeqCst);
            self.nwaiters.store(0, SeqCst);
            std::mem::take(&mut l.entries)
        };
        // Wake outside the lock: `Waker::wake` may run executor code.
        for (_, w) in woken {
            w.wake();
        }
    }

    /// Registers the calling thread as a waiter, or returns `None` if the
    /// epoch already moved past `key` (a notification slipped in — retry
    /// the condition instead of parking).
    pub fn register_thread(&self, key: u64) -> Option<u64> {
        let mut l = self.waiters.lock().unwrap();
        if self.epoch.load(SeqCst) != key {
            return None;
        }
        let token = l.next_token;
        l.next_token += 1;
        l.entries.push((token, WaiterKind::Thread(crate::sim::current())));
        self.nwaiters.store(l.entries.len(), SeqCst);
        // Waiter half of the asymmetric fence: order the count store above
        // against this thread's coming re-check, and drain any notifier's
        // in-flight state store so that re-check cannot miss it.
        if asymfence::enabled() {
            asymfence::heavy();
        }
        Some(token)
    }

    /// Parks the registered calling thread until the epoch moves past
    /// `key` (returns `true`) or `deadline` passes (deregisters and
    /// returns `false`). Spurious unparks re-check and re-park.
    pub fn park_registered(&self, token: u64, key: u64, deadline: Option<Instant>) -> bool {
        // BOUND: wait-edge — parks until the epoch moves past `key` or the
        // deadline passes; the nwaiters/state Dekker pair (see the
        // `Eventcount` ORDERING notes) rules out lost wakeups; spurious
        // unparks re-check — cover: tests/blocking_facade.rs + dst model 9
        loop {
            if self.epoch.load(SeqCst) != key {
                return true;
            }
            match deadline {
                None => crate::sim::park(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        self.cancel(token);
                        return false;
                    }
                    crate::sim::park_timeout(d - now);
                }
            }
        }
    }

    /// Registers (or refreshes) a task waker under `slot`, or returns
    /// `false` if the epoch already moved past `key` (deregistering any
    /// stale entry — the caller re-polls its condition).
    pub fn register_task(&self, key: u64, waker: &Waker, slot: &mut Option<u64>) -> bool {
        let mut l = self.waiters.lock().unwrap();
        if self.epoch.load(SeqCst) != key {
            if let Some(token) = slot.take() {
                l.entries.retain(|(t, _)| *t != token);
                self.nwaiters.store(l.entries.len(), SeqCst);
            }
            return false;
        }
        match *slot {
            Some(token) => {
                // Re-poll without an interleaving notify: refresh the waker
                // in place (the old one may belong to a moved task).
                if let Some(e) = l.entries.iter_mut().find(|(t, _)| *t == token) {
                    e.1 = WaiterKind::Task(waker.clone());
                } else {
                    l.entries.push((token, WaiterKind::Task(waker.clone())));
                }
            }
            None => {
                let token = l.next_token;
                l.next_token += 1;
                l.entries.push((token, WaiterKind::Task(waker.clone())));
                *slot = Some(token);
            }
        }
        self.nwaiters.store(l.entries.len(), SeqCst);
        // Waiter half of the asymmetric fence — see `register_thread`.
        if asymfence::enabled() {
            asymfence::heavy();
        }
        true
    }

    /// Deregisters `token` if it is still queued (timed-out threads,
    /// dropped futures, and waiters whose condition resolved mid-register).
    pub fn cancel(&self, token: u64) {
        let mut l = self.waiters.lock().unwrap();
        l.entries.retain(|(t, _)| *t != token);
        self.nwaiters.store(l.entries.len(), SeqCst);
    }

    /// Number of currently registered waiters (diagnostics/tests).
    pub fn waiters(&self) -> usize {
        self.nwaiters.load(SeqCst)
    }
}

// ===================================================================
// Per-queue parking state
// ===================================================================

/// The parking state a queue embeds to support the blocking/async facade:
/// one [`Eventcount`] per edge (empty and full) plus the shutdown flag.
///
/// Constructed by the queues themselves; users only see it through
/// [`SyncQueue::sync_state`].
///
/// Layout: the two eventcounts are cache-padded apart. Every successful
/// enqueue loads `not_empty.nwaiters` and every successful dequeue loads
/// `not_full.nwaiters`; unpadded, those two hot words share a line (and
/// the adjacent-line prefetcher pairs even neighboring lines), so each
/// side's `notify_slow` stores would invalidate the other side's per-op
/// check — false sharing on the one field the facade touches per element
/// (the cache-layout audit of PR 6; the SPSC ring pads its index blocks
/// for the same reason).
pub struct SyncState {
    not_empty: CachePadded<Eventcount>,
    not_full: CachePadded<Eventcount>,
    closed: AtomicBool,
}

impl Default for SyncState {
    fn default() -> Self {
        Self::new()
    }
}

impl SyncState {
    /// Fresh state: open, no waiters.
    pub fn new() -> Self {
        SyncState {
            not_empty: CachePadded::new(Eventcount::new()),
            not_full: CachePadded::new(Eventcount::new()),
            closed: AtomicBool::new(false),
        }
    }

    /// The eventcount dequeuers park on (producers notify it).
    #[inline]
    pub fn not_empty(&self) -> &Eventcount {
        &self.not_empty
    }

    /// The eventcount enqueuers park on (consumers notify it).
    #[inline]
    pub fn not_full(&self) -> &Eventcount {
        &self.not_full
    }

    /// Advertise "an element was enqueued" to parked dequeuers.
    #[inline]
    pub fn notify_not_empty(&self) {
        self.not_empty.notify_all();
    }

    /// Advertise "a slot was freed" to parked enqueuers.
    #[inline]
    pub fn notify_not_full(&self) {
        self.not_full.notify_all();
    }

    /// [`Self::notify_not_empty`] for plain-store publication paths — see
    /// [`Eventcount::notify_all_fenced`].
    #[inline]
    pub fn notify_not_empty_fenced(&self) {
        self.not_empty.notify_all_fenced();
    }

    /// [`Self::notify_not_full`] for plain-store publication paths — see
    /// [`Eventcount::notify_all_fenced`].
    #[inline]
    pub fn notify_not_full_fenced(&self) {
        self.not_full.notify_all_fenced();
    }

    /// Closes the facade: blocking/async enqueues fail with `Closed`,
    /// dequeues drain the backlog and then fail with `Closed`, and every
    /// parked waiter is woken. Idempotent. The spin API is unaffected.
    pub fn close(&self) {
        self.closed.store(true, SeqCst);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// `true` once [`Self::close`] has run.
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.closed.load(SeqCst)
    }
}

// ===================================================================
// Errors
// ===================================================================

/// Why a blocking/async enqueue did not take the value. Both variants hand
/// the value back — the facade never drops an element.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The deadline passed while the queue stayed full.
    Timeout(T),
    /// The queue was closed.
    Closed(T),
}

impl<T> SendError<T> {
    /// Recovers the value that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            SendError::Timeout(v) | SendError::Closed(v) => v,
        }
    }
}

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Timeout(_) => write!(f, "enqueue timed out (queue full)"),
            SendError::Closed(_) => write!(f, "enqueue on closed queue"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for SendError<T> {}

/// Why a blocking/async dequeue returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The deadline passed while the queue stayed empty.
    Timeout,
    /// The queue was closed **and** drained.
    Closed,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "dequeue timed out (queue empty)"),
            RecvError::Closed => write!(f, "queue closed and drained"),
        }
    }
}

impl std::error::Error for RecvError {}

// ===================================================================
// The facade trait
// ===================================================================

/// Blocking and async operations over a queue handle.
///
/// Implementors supply the non-blocking attempts plus access to the
/// queue's [`SyncState`]; the blocking, timeout, and async entry points
/// are provided methods sharing one parking protocol (module docs).
///
/// Four implementors: the three per-family handles — [`crate::WcqHandle`],
/// [`crate::ShardedHandle`], and [`crate::UnboundedHandle`] (whose
/// `try_enqueue` never fails — the list grows instead, so its blocking
/// enqueue never parks), each generic over how it holds the queue — and
/// the [`crate::channel`] module's internal endpoint, which dispatches to
/// one of them or to a [`crate::topology::TopoEndpoint`].
pub trait SyncQueue {
    /// Element type.
    type Item;

    /// The queue's parking state (eventcounts + closed flag).
    fn sync_state(&self) -> &SyncState;

    /// One non-blocking enqueue attempt; `Err(v)` hands the value back
    /// when the queue is full.
    fn try_enqueue(&mut self, v: Self::Item) -> Result<(), Self::Item>;

    /// One non-blocking dequeue attempt; `None` when observed empty.
    fn try_dequeue(&mut self) -> Option<Self::Item>;

    /// `true` while the queue holds elements this endpoint cannot reach
    /// *right now* but will be able to once another endpoint acts — ring
    /// residue stranded behind a consumer seat held elsewhere (see
    /// `topology`, DESIGN.md §11). Dequeue paths treat `closed` plus a
    /// residue hint as "empty for now", never `Closed`: the values still
    /// exist and close's drain guarantee covers them. Plain queues have
    /// no unreachable elements, hence the `false` default. Advisory, like
    /// any concurrent emptiness probe — may flicker `true` momentarily
    /// after the residue is drained, never `false` while it exists.
    fn residue_hint(&self) -> bool {
        false
    }

    /// Enqueues, parking while the queue is full. Fails only when the
    /// queue is [closed](SyncState::close) (the value comes back).
    ///
    /// ```
    /// use wcq::sync::SyncQueue;
    /// let q: wcq::WcqQueue<u32> = wcq::WcqQueue::new(4, 1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue_blocking(1).unwrap(); // space available: no parking
    /// assert_eq!(h.dequeue_blocking(), Ok(1));
    /// ```
    fn enqueue_blocking(&mut self, v: Self::Item) -> Result<(), SendError<Self::Item>>
    where
        Self: Sized,
    {
        enqueue_deadline(self, v, None)
    }

    /// Like [`Self::enqueue_blocking`] with a deadline. A timeout is
    /// element-conserving: the value rides back in
    /// [`SendError::Timeout`].
    ///
    /// ```
    /// use std::time::Duration;
    /// use wcq::sync::{SendError, SyncQueue};
    /// let q: wcq::WcqQueue<u32> = wcq::WcqQueue::new(2, 1); // 4 slots
    /// let mut h = q.register().unwrap();
    /// for i in 0..4 { h.enqueue_blocking(i).unwrap(); }
    /// let r = h.enqueue_timeout(99, Duration::from_millis(1));
    /// assert_eq!(r, Err(SendError::Timeout(99))); // value handed back
    /// ```
    fn enqueue_timeout(
        &mut self,
        v: Self::Item,
        timeout: Duration,
    ) -> Result<(), SendError<Self::Item>>
    where
        Self: Sized,
    {
        enqueue_deadline(self, v, Some(Instant::now() + timeout))
    }

    /// Dequeues, parking while the queue is empty. After
    /// [`close`](SyncState::close), drains the backlog and then reports
    /// [`RecvError::Closed`].
    fn dequeue_blocking(&mut self) -> Result<Self::Item, RecvError>
    where
        Self: Sized,
    {
        dequeue_deadline(self, None)
    }

    /// Like [`Self::dequeue_blocking`] with a deadline; takes one last
    /// look at the queue before reporting [`RecvError::Timeout`].
    ///
    /// ```
    /// use std::time::Duration;
    /// use wcq::sync::{RecvError, SyncQueue};
    /// let q: wcq::WcqQueue<u32> = wcq::WcqQueue::new(4, 1);
    /// let mut h = q.register().unwrap();
    /// let r = h.dequeue_timeout(Duration::from_millis(1));
    /// assert_eq!(r, Err(RecvError::Timeout));
    /// ```
    fn dequeue_timeout(&mut self, timeout: Duration) -> Result<Self::Item, RecvError>
    where
        Self: Sized,
    {
        dequeue_deadline(self, Some(Instant::now() + timeout))
    }

    /// Async enqueue: resolves when the value is in (or the queue closed).
    /// Drive it with any executor, e.g. [`block_on`].
    fn enqueue_async(&mut self, v: Self::Item) -> EnqueueFuture<'_, Self>
    where
        Self: Sized,
    {
        EnqueueFuture {
            q: self,
            v: Some(v),
            token: None,
        }
    }

    /// Async dequeue: resolves with a value, or [`RecvError::Closed`] once
    /// the queue is closed and drained. Never times out on its own.
    fn dequeue_async(&mut self) -> DequeueFuture<'_, Self>
    where
        Self: Sized,
    {
        DequeueFuture {
            q: self,
            token: None,
        }
    }
}

// ===================================================================
// Blocking implementations
// ===================================================================

/// The parking loop both blocking enqueue paths share. Protocol per round:
/// snapshot epoch → attempt → register → **re-attempt** (the Dekker step:
/// the notifier's no-waiter fast path may have missed us, but then this
/// attempt must see its state change) → park.
fn enqueue_deadline<Q: SyncQueue>(
    q: &mut Q,
    mut v: Q::Item,
    deadline: Option<Instant>,
) -> Result<(), SendError<Q::Item>> {
    // BOUND: wait-edge — blocking enqueue: parks on not_full until a
    // dequeuer frees space, the queue closes, or the deadline passes
    loop {
        if q.sync_state().is_closed() {
            return Err(SendError::Closed(v));
        }
        let key = q.sync_state().not_full().listen();
        match q.try_enqueue(v) {
            Ok(()) => return Ok(()),
            Err(back) => v = back,
        }
        let Some(token) = q.sync_state().not_full().register_thread(key) else {
            continue; // a notification slipped in between listen and register
        };
        // Post-registration re-attempt: closes the race with a consumer
        // whose notify ran before our registration was visible.
        match q.try_enqueue(v) {
            Ok(()) => {
                q.sync_state().not_full().cancel(token);
                return Ok(());
            }
            Err(back) => v = back,
        }
        if q.sync_state().is_closed() {
            q.sync_state().not_full().cancel(token);
            return Err(SendError::Closed(v));
        }
        if !q.sync_state().not_full().park_registered(token, key, deadline) {
            // Timed out. One final attempt keeps the result honest: either
            // the value goes in now or it rides back to the caller.
            return match q.try_enqueue(v) {
                Ok(()) => Ok(()),
                Err(back) => Err(SendError::Timeout(back)),
            };
        }
    }
}

/// See [`enqueue_deadline`]; the dequeue twin additionally re-polls after
/// observing `closed` so a close racing a final insert cannot strand it.
fn dequeue_deadline<Q: SyncQueue>(
    q: &mut Q,
    deadline: Option<Instant>,
) -> Result<Q::Item, RecvError> {
    // Paces the stranded-residue wait only; the normal path parks instead.
    let mut backoff = Backoff::new();
    // BOUND: wait-edge — blocking dequeue: parks on not_empty; the
    // stranded-residue hint branch is paced by Backoff::snooze instead of
    // parking (degraded-mode path)
    loop {
        let key = q.sync_state().not_empty().listen();
        if let Some(v) = q.try_dequeue() {
            return Ok(v);
        }
        if q.sync_state().is_closed() {
            // Drain race: an insert may have landed between the probe and
            // the close check.
            if let Some(v) = q.try_dequeue() {
                return Ok(v);
            }
            if !q.residue_hint() {
                return Err(RecvError::Closed);
            }
            // Closed, observed empty — but residue is stranded behind a
            // consumer seat held elsewhere (DESIGN.md §11). Reporting
            // `Closed` would drop values close promised to drain, and
            // parking would race the holder's final pop (pops notify
            // `not_full`, not `not_empty`). Stay awake: the window ends
            // when the holder drains the residue or drops the seat.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return q.try_dequeue().ok_or(RecvError::Timeout);
            }
            backoff.snooze();
            continue;
        }
        let Some(token) = q.sync_state().not_empty().register_thread(key) else {
            continue;
        };
        if let Some(v) = q.try_dequeue() {
            q.sync_state().not_empty().cancel(token);
            return Ok(v);
        }
        if q.sync_state().is_closed() {
            // Deregister and let the loop head arbitrate Closed versus
            // stranded residue — one decision point keeps them aligned.
            q.sync_state().not_empty().cancel(token);
            continue;
        }
        if !q
            .sync_state()
            .not_empty()
            .park_registered(token, key, deadline)
        {
            return q.try_dequeue().ok_or(RecvError::Timeout);
        }
    }
}

// ===================================================================
// Futures
// ===================================================================

/// Future returned by [`SyncQueue::enqueue_async`].
///
/// Registers the task's [`Waker`] on the queue's not-full eventcount and
/// deregisters on completion or drop, so abandoned futures leave no stale
/// waiters behind.
pub struct EnqueueFuture<'a, Q: SyncQueue> {
    q: &'a mut Q,
    v: Option<Q::Item>,
    token: Option<u64>,
}

// The futures never hold self-references; all fields are used by value.
impl<Q: SyncQueue> Unpin for EnqueueFuture<'_, Q> {}

impl<Q: SyncQueue> Future for EnqueueFuture<'_, Q> {
    type Output = Result<(), SendError<Q::Item>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut v = this.v.take().expect("polled after completion");
        // BOUND: wait-edge — SendFuture poll: re-loops only when the epoch
        // moved between listen and register (progress elsewhere); otherwise
        // returns Pending
        loop {
            if this.q.sync_state().is_closed() {
                this.deregister();
                return Poll::Ready(Err(SendError::Closed(v)));
            }
            let key = this.q.sync_state().not_full().listen();
            match this.q.try_enqueue(v) {
                Ok(()) => {
                    this.deregister();
                    return Poll::Ready(Ok(()));
                }
                Err(back) => v = back,
            }
            if !this
                .q
                .sync_state()
                .not_full()
                .register_task(key, cx.waker(), &mut this.token)
            {
                continue; // notified between listen and register: retry
            }
            // Post-registration re-attempt (same Dekker step as the
            // blocking path).
            match this.q.try_enqueue(v) {
                Ok(()) => {
                    this.deregister();
                    return Poll::Ready(Ok(()));
                }
                Err(back) => v = back,
            }
            if this.q.sync_state().is_closed() {
                this.deregister();
                return Poll::Ready(Err(SendError::Closed(v)));
            }
            this.v = Some(v);
            return Poll::Pending;
        }
    }
}

impl<Q: SyncQueue> EnqueueFuture<'_, Q> {
    fn deregister(&mut self) {
        if let Some(token) = self.token.take() {
            self.q.sync_state().not_full().cancel(token);
        }
    }
}

impl<Q: SyncQueue> Drop for EnqueueFuture<'_, Q> {
    fn drop(&mut self) {
        self.deregister();
    }
}

/// Future returned by [`SyncQueue::dequeue_async`]; waker bookkeeping as
/// in [`EnqueueFuture`].
pub struct DequeueFuture<'a, Q: SyncQueue> {
    q: &'a mut Q,
    token: Option<u64>,
}

impl<Q: SyncQueue> Unpin for DequeueFuture<'_, Q> {}

impl<Q: SyncQueue> Future for DequeueFuture<'_, Q> {
    type Output = Result<Q::Item, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        // BOUND: wait-edge — RecvFuture poll: same listen/register race
        // re-check as SendFuture; returns Pending once registered
        loop {
            let key = this.q.sync_state().not_empty().listen();
            if let Some(v) = this.q.try_dequeue() {
                this.deregister();
                return Poll::Ready(Ok(v));
            }
            if this.q.sync_state().is_closed() {
                this.deregister();
                return match this.q.try_dequeue() {
                    Some(v) => Poll::Ready(Ok(v)),
                    // Stranded residue (DESIGN.md §11): not `Closed` yet,
                    // and sleeping on `not_empty` would race the seat
                    // holder's final pop — self-wake to re-poll instead
                    // (the async twin of `dequeue_deadline`'s yield-spin).
                    None if this.q.residue_hint() => {
                        cx.waker().wake_by_ref();
                        Poll::Pending
                    }
                    None => Poll::Ready(Err(RecvError::Closed)),
                };
            }
            if !this
                .q
                .sync_state()
                .not_empty()
                .register_task(key, cx.waker(), &mut this.token)
            {
                continue;
            }
            if let Some(v) = this.q.try_dequeue() {
                this.deregister();
                return Poll::Ready(Ok(v));
            }
            if this.q.sync_state().is_closed() {
                // As in `dequeue_deadline`: deregister and let the loop
                // head arbitrate Closed versus stranded residue.
                this.deregister();
                continue;
            }
            return Poll::Pending;
        }
    }
}

impl<Q: SyncQueue> DequeueFuture<'_, Q> {
    fn deregister(&mut self) {
        if let Some(token) = self.token.take() {
            self.q.sync_state().not_empty().cancel(token);
        }
    }
}

impl<Q: SyncQueue> Drop for DequeueFuture<'_, Q> {
    fn drop(&mut self) {
        self.deregister();
    }
}

// ===================================================================
// Minimal executor
// ===================================================================

struct ThreadWaker(crate::sim::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives a future to completion on the calling thread, parking between
/// polls — the minimal executor the async API needs for examples and
/// tests. Any real executor works the same way; the futures only require
/// `Waker` semantics.
///
/// ```
/// use wcq::sync::block_on;
/// assert_eq!(block_on(async { 21 * 2 }), 42);
/// ```
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(crate::sim::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    // BOUND: wait-edge — block_on parks until the waker unparks this
    // thread; bounded by future completion
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            // A wake between poll and park leaves an unpark permit, so the
            // park returns immediately — no lost wakeup.
            Poll::Pending => crate::sim::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn notify_with_no_waiters_is_cheap_and_sound() {
        let ec = Eventcount::new();
        let key = ec.listen();
        ec.notify_all(); // nobody registered: epoch must NOT advance
        assert_eq!(ec.listen(), key);
        assert_eq!(ec.waiters(), 0);
    }

    #[test]
    fn register_then_notify_wakes_and_drains() {
        let ec = Arc::new(Eventcount::new());
        let hits = Arc::new(AtomicU32::new(0));
        let mut threads = Vec::new();
        for _ in 0..3 {
            let ec = Arc::clone(&ec);
            let hits = Arc::clone(&hits);
            threads.push(std::thread::spawn(move || {
                let key = ec.listen();
                let token = ec.register_thread(key).expect("fresh epoch");
                if ec.park_registered(token, key, None) {
                    hits.fetch_add(1, SeqCst);
                }
            }));
        }
        // Wait for all three to register, then wake them together.
        // BOUND: wait-edge — test waits for all three waiters to register
        // before the broadcast
        while ec.waiters() < 3 {
            std::thread::yield_now();
        }
        ec.notify_all();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hits.load(SeqCst), 3);
        assert_eq!(ec.waiters(), 0, "notify drained the list");
    }

    #[test]
    fn stale_key_refuses_registration() {
        let ec = Eventcount::new();
        let key = ec.listen();
        // Force a bump via a real waiter cycle.
        let token = ec.register_thread(key).unwrap();
        ec.notify_all();
        assert!(ec.register_thread(key).is_none(), "epoch moved past key");
        ec.cancel(token); // already drained: harmless no-op
    }

    #[test]
    fn park_timeout_deregisters() {
        let ec = Eventcount::new();
        let key = ec.listen();
        let token = ec.register_thread(key).unwrap();
        assert_eq!(ec.waiters(), 1);
        let signaled =
            ec.park_registered(token, key, Some(Instant::now() + Duration::from_millis(10)));
        assert!(!signaled);
        assert_eq!(ec.waiters(), 0, "timed-out waiter removed itself");
    }

    #[test]
    fn close_is_idempotent_and_sticky() {
        let s = SyncState::new();
        assert!(!s.is_closed());
        s.close();
        s.close();
        assert!(s.is_closed());
    }

    #[test]
    fn send_error_roundtrips_value() {
        assert_eq!(SendError::Timeout(7).into_inner(), 7);
        assert_eq!(SendError::Closed("x").into_inner(), "x");
        assert!(SendError::Timeout(0u8).to_string().contains("full"));
        assert!(RecvError::Closed.to_string().contains("closed"));
    }

    #[test]
    fn block_on_drives_a_manually_pending_future() {
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = u32;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.0 {
                    Poll::Ready(99)
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        assert_eq!(block_on(YieldOnce(false)), 99);
    }
}
