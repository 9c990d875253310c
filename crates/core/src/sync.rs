//! Parking for the channel endpoints, over the spin-only queues (DESIGN.md
//! §9).
//!
//! Every queue in the suite is non-blocking by construction, as the paper's
//! operations are: `dequeue` on an empty queue returns immediately, so a
//! consumer that wants to *wait* for data must spin. Under
//! oversubscription — exactly the regime wait-freedom is for — a spinning
//! consumer burns its whole scheduler quantum polling. This module holds
//! the standard remedy, an **eventcount** (futex-style parking built on
//! [`std::thread::park`], zero dependencies): consumers and producers park
//! on the empty/full *edge* only, while every successful operation stays
//! the untouched wait-free fast path plus one load to check for sleepers.
//!
//! The raw handles ([`crate::WcqHandle`] & co.) stay spin-only. The one
//! blocking and async surface is the [`crate::channel`] endpoints, whose
//! shared state owns the channel's one [`SyncState`] and whose refcounts
//! drive its close:
//!
//! * `send` / `recv` park until space/data or close — and, on an endpoint
//!   that finds every thread slot taken, until a slot frees;
//! * `send_timeout` / `recv_timeout` do the same with a deadline;
//!   timeouts are element-conserving (a timed-out send hands the value
//!   back, a timed-out receive takes one last look);
//! * `send_async` / `recv_async` are `Future`s registering a [`Waker`]
//!   instead of a thread, driven by any executor; [`block_on`] is a
//!   minimal vendored one for examples/tests.
//!
//! # One wait protocol
//!
//! All of the above — and [`crate::channel::recv_any`] — are callers of
//! one crate-private *round* (snapshot every lane's epoch → probe →
//! register → **re-probe**), run by one of two *drivers* (a parked
//! thread, a polled task) over one of three *waitables* (enqueue,
//! dequeue, any-of-N receivers). A waitable is its lanes — the
//! eventcounts a change is announced on — and a single probe that tries
//! the operation and classifies a miss; the round calls that same
//! function on both sides of the registration, so nothing the first look
//! can recognise (data, a close, a close over stranded residue) can be
//! missed by the last look before a sleep. A miss is always `Wait` —
//! full, empty, no free thread slot, values out of reach — and each has
//! a notify that ends it, so every wait sleeps and none is hand-paced.
//! A blocking call that can complete at once is the bare attempt: no
//! snapshot, no registration. DESIGN.md §9 has the table and the
//! no-lost-wakeup argument.
//!
//! # Blocking example
//!
//! ```
//! use wcq::channel;
//! use wcq::sync::RecvError;
//!
//! let (mut tx, mut rx) = channel::bounded::<u64>(4, 2);
//! let producer = std::thread::spawn(move || {
//!     tx.send(7).unwrap();
//!     // `tx` drops here: the channel closes, receivers drain, then see Closed
//! });
//! assert_eq!(rx.recv(), Ok(7)); // parks until the send
//! assert_eq!(rx.recv(), Err(RecvError::Closed));
//! producer.join().unwrap();
//! ```
//!
//! # Async example
//!
//! ```
//! use wcq::channel;
//! use wcq::sync::block_on;
//!
//! let (mut tx, mut rx) = channel::unbounded::<String>(4, 2);
//! let producer = std::thread::spawn(move || {
//!     block_on(async { tx.send_async("ping".to_string()).await }).unwrap();
//! });
//! let got = block_on(async { rx.recv_async().await });
//! assert_eq!(got.as_deref(), Ok("ping"));
//! producer.join().unwrap();
//! ```
//!
//! # Why wait-freedom survives
//!
//! The queue operations themselves are untouched: an element is enqueued by
//! the same bounded-step ring protocol as before, and only *after* it is
//! visible does the channel glance at the waiter counter (one load; no
//! RMW, no lock when nobody sleeps). Parking happens strictly on
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
/// whose waiter the membarrier already ordered against, and the notify
/// fast path drops to a single plain load. The waiter pays: with the
/// notifier's CPU busy, one call averaged 2.0–2.1 µs on a 2-vCPU x86
/// guest (see `waiter_fence` for how often it is paid).
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

/// Waiter half of the asymmetric fence: orders every waiter-count store
/// the caller made before it against the caller's next look at the
/// condition, and drains any notifier's in-flight state store so that
/// look cannot miss it. One call covers any number of registrations, so a
/// round over several lanes pays one IPI broadcast, not one per lane.
///
/// It cannot be paid once per *thread*: the argument is "this count store,
/// then a barrier, then this re-probe", so each registration round needs
/// a barrier of its own, after its stores.
fn waiter_fence() {
    if asymfence::enabled() {
        asymfence::heavy();
    }
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
    /// makes registration refuse the key, and the
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
    /// the condition instead of parking). A registration pays its own
    /// waiter fence, so the caller's next look at its condition is the
    /// Dekker re-check.
    pub fn register_thread(&self, key: u64) -> Option<u64> {
        let mut token = None;
        if self.register(key, None, &mut token) {
            waiter_fence();
        }
        token
    }

    /// The one registration: enrolls `waker`'s task — or, with `None`, the
    /// calling thread — under `slot`'s token (drawing one if the slot is
    /// empty), or returns `false` if the epoch already moved past `key`.
    /// A refusal leaves the slot alone; the round cancels what it holds.
    ///
    /// Issues no fence: the caller owes one [`waiter_fence`] after its
    /// last registration and before it re-checks the condition, outside
    /// the waiter mutex.
    fn register(&self, key: u64, waker: Option<&Waker>, slot: &mut Option<u64>) -> bool {
        let mut l = self.waiters.lock().unwrap();
        if self.moved_past(key) {
            return false;
        }
        let waiter = match waker {
            Some(w) => WaiterKind::Task(w.clone()),
            None => WaiterKind::Thread(crate::sim::current()),
        };
        let token = *slot.get_or_insert_with(|| {
            l.next_token += 1;
            l.next_token - 1
        });
        // A slot that kept its token since an earlier round or poll still
        // has its entry unless a notify drained it: refresh the waiter in
        // place (the old waker may belong to a moved task), else enroll.
        match l.entries.iter_mut().find(|(t, _)| *t == token) {
            Some(e) => e.1 = waiter,
            None => l.entries.push((token, waiter)),
        }
        self.nwaiters.store(l.entries.len(), SeqCst);
        true
    }

    /// Whether a notification was delivered since `key` was snapshotted —
    /// the load a waiter *acts* on: under the waiter mutex it admits or
    /// refuses a registration, and in the thread driver it ends the sleep.
    #[inline]
    fn moved_past(&self, key: u64) -> bool {
        // ORDERING: unlike listen's snapshot this load stays SeqCst: it is
        // the acquire edge that carries the state the notification
        // advertises into the woken waiter's view, and the under-mutex
        // re-read a stale Relaxed key bounces off — cover: dst model 9
        // (dst_eventcount_park_exit_relaxed_is_flagged pins the Relaxed
        // variant as a data race)
        self.epoch.load(SeqCst) != key
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
// Per-channel parking state
// ===================================================================

/// A channel's parking state: one [`Eventcount`] per edge (empty and
/// full) plus the shutdown flag.
///
/// Each channel's shared state owns exactly one; the queues under it are
/// spin-only and carry none.
///
/// Layout: the two eventcounts are cache-padded apart. Every successful
/// send loads `not_empty.nwaiters` and every successful receive loads
/// `not_full.nwaiters`; unpadded, those two hot words share a line (and
/// the adjacent-line prefetcher pairs even neighboring lines), so each
/// side's `notify_slow` stores would invalidate the other side's per-op
/// check — false sharing on the one field the facade touches per element
/// (the cache-layout audit of PR 6; the SPSC ring pads its index blocks
/// for the same reason). The closed flag shares `not_empty`'s line: a
/// sender reads both on every send, and the flag is written once.
pub struct SyncState {
    send: CachePadded<SendLine>,
    not_full: CachePadded<Eventcount>,
}

/// The words a send reads: the closed flag before its attempt, and
/// `not_empty`'s waiter count after it.
struct SendLine {
    not_empty: Eventcount,
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
            send: CachePadded::new(SendLine {
                not_empty: Eventcount::new(),
                closed: AtomicBool::new(false),
            }),
            not_full: CachePadded::new(Eventcount::new()),
        }
    }

    /// The eventcount dequeuers park on (producers notify it).
    #[inline]
    pub fn not_empty(&self) -> &Eventcount {
        &self.send.not_empty
    }

    /// The eventcount enqueuers park on (consumers notify it).
    #[inline]
    pub fn not_full(&self) -> &Eventcount {
        &self.not_full
    }

    /// Advertise "an element was enqueued" to parked dequeuers.
    #[inline]
    pub fn notify_not_empty(&self) {
        self.send.not_empty.notify_all();
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
        self.send.not_empty.notify_all_fenced();
    }

    /// [`Self::notify_not_full`] for plain-store publication paths — see
    /// [`Eventcount::notify_all_fenced`].
    #[inline]
    pub fn notify_not_full_fenced(&self) {
        self.not_full.notify_all_fenced();
    }

    /// Closes the channel: sends fail with `Closed`, receives drain the
    /// backlog and then fail with `Closed`, and every parked waiter is
    /// woken. Idempotent. The queue under the channel is untouched.
    pub fn close(&self) {
        self.send.closed.store(true, SeqCst);
        self.send.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// `true` once [`Self::close`] has run.
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.send.closed.load(SeqCst)
    }
}

// ===================================================================
// Errors
// ===================================================================

/// Why a blocking/async send did not take the value. Both variants hand
/// the value back — a channel never drops an element.
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

/// Why a blocking/async receive returned no value.
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
// The wait protocol: one round, two drivers, three waitables
// ===================================================================

/// What one look at a waitable's condition found.
pub(crate) enum Probe<R> {
    /// Resolved: a value, or the error that ends the wait.
    Ready(R),
    /// Not yet — and whoever changes that will notify one of the lanes:
    /// an operation that lands a value or frees room, a close, an
    /// endpoint drop that frees a thread slot or a consumer seat, or a
    /// receiver that drained stranded residue to `Closed`.
    Wait,
}

/// One lane's registration: the epoch snapshot and, while enrolled in
/// that lane's waiter list, the token to cancel by.
#[derive(Clone, Copy, Default)]
pub(crate) struct Slot {
    key: u64,
    token: Option<u64>,
}

/// Something a thread or a task can wait for: the eventcounts a change is
/// announced on (its *lanes*), and the one look — [`probe`](Self::probe)
/// — that both tries the operation and classifies a miss. The round calls
/// that same function before and after registering, so whatever the first
/// look can recognise (data, a close, a close over stranded residue) the
/// second cannot forget.
///
/// A trait rather than a pair of closures because the probe needs `&mut`
/// of the endpoint the lanes are borrowed `&` from.
pub(crate) trait Waitable {
    /// What the wait resolves to.
    type Output;
    /// One [`Slot`] per lane: an array for the single-queue waits (no
    /// allocation), a `Vec` for [`crate::channel::recv_any`].
    type Slots: AsMut<[Slot]>;

    /// Fresh (unregistered) slots, one per lane.
    fn slots(&self) -> Self::Slots;

    /// The eventcount behind lane `i` (`i < slots().len()`).
    fn lane(&self, i: usize) -> &Eventcount;

    /// Tries the operation once and classifies the outcome.
    fn probe(&mut self) -> Probe<Self::Output>;

    /// The result when a deadline passes on a probe that said "not yet".
    fn timeout(&mut self) -> Self::Output;
}

/// Cancels every registration `slots` still holds: the exit of a round
/// that does not sleep, and the drop of a pending future.
pub(crate) fn cancel_all<W: Waitable>(w: &W, slots: &mut [Slot]) {
    for (i, s) in slots.iter_mut().enumerate() {
        if let Some(token) = s.token.take() {
            w.lane(i).cancel(token);
        }
    }
}

/// The eventcount wait, written once: snapshot every lane's epoch → probe
/// → register on every lane → one [`waiter_fence`] → **re-probe**. The
/// re-probe is the Dekker step — a notifier whose no-waiter fast path
/// missed the registration made its state change before that, so this
/// look must see it — and it is the last look before a sleep, so it has
/// to classify everything the first one does: `close` notifies registered
/// waiters only, and one that lands between the first probe and the
/// registration moves no epoch.
///
/// `waker` is who to enroll (`None`: the calling thread). `Pending` means
/// enrolled on every lane with the re-probe still saying `Wait`: safe to
/// sleep until a lane's epoch moves. Slots may carry tokens in from an
/// earlier round or poll; a `Ready` exit cancels them all.
fn round<W: Waitable>(
    w: &mut W,
    slots: &mut [Slot],
    waker: Option<&Waker>,
    deadline: Option<Instant>,
) -> Poll<W::Output> {
    // BOUND: wait-edge — goes round again only when a lane refused its
    // key, i.e. a notification (progress elsewhere) landed since the
    // snapshot; every other path returns
    let r = loop {
        for (i, s) in slots.iter_mut().enumerate() {
            s.key = w.lane(i).listen();
        }
        match w.probe() {
            Probe::Ready(r) => break r,
            // An expired deadline never registers: that probe was the
            // last look, and a zero timeout is a pure try-op.
            Probe::Wait if deadline.is_some_and(|d| Instant::now() >= d) => break w.timeout(),
            Probe::Wait => {}
        }
        let enrolled = slots
            .iter_mut()
            .enumerate()
            .all(|(i, s)| w.lane(i).register(s.key, waker, &mut s.token));
        if !enrolled {
            cancel_all(w, slots);
            continue;
        }
        // One barrier for every lane's count store, outside their mutexes.
        waiter_fence();
        match w.probe() {
            Probe::Ready(r) => break r,
            Probe::Wait => return Poll::Pending,
        }
    };
    cancel_all(w, slots);
    Poll::Ready(r)
}

/// The thread-side entry every blocking operation calls. The fast path
/// is the bare attempt — no epoch snapshot, no slot, no allocation — and
/// everything else stays out of line behind it.
#[inline]
pub(crate) fn block<W: Waitable>(mut w: W, timeout: Option<Duration>) -> W::Output {
    match w.probe() {
        Probe::Ready(r) => r,
        Probe::Wait => park_on(&mut w, timeout),
    }
}

/// Thread driver: runs rounds, sleeping between them until a registered
/// lane's epoch moves or the deadline passes. A `timeout` too large to
/// add to the clock (`Duration::MAX`) waits without a deadline.
#[cold]
#[inline(never)]
fn park_on<W: Waitable>(w: &mut W, timeout: Option<Duration>) -> W::Output {
    let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
    let mut slots = w.slots();
    let slots = slots.as_mut();
    // BOUND: wait-edge — one pass per wake or spurious unpark; ends when
    // the probe resolves (data/space, close) or the round sees the
    // deadline passed
    loop {
        if let Poll::Ready(r) = round(w, slots, None, deadline) {
            return r;
        }
        // BOUND: wait-edge — the one park site: sleeps until a registered
        // lane's epoch moves or the deadline passes; the nwaiters/state
        // Dekker pair (see `Eventcount`) rules out a lost wakeup, spurious
        // unparks re-check and re-park — cover: tests/blocking_facade.rs +
        // dst models 5, 9-11, 13
        loop {
            let mut moved = false;
            for (i, s) in slots.iter_mut().enumerate() {
                if w.lane(i).moved_past(s.key) {
                    // The bump drained the entry inside the same critical
                    // section: nothing left to cancel.
                    s.token = None;
                    moved = true;
                }
            }
            if moved {
                break;
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => crate::sim::park(),
                // Out of time: the next round's probe is the one last
                // look, and that round cancels on its way out.
                Some(Duration::ZERO) => break,
                Some(left) => crate::sim::park_timeout(left),
            }
        }
    }
}

/// Task driver: one round per poll. Tokens ride in `slots` across polls,
/// so a re-poll refreshes its waker in place; the futures cancel on drop.
pub(crate) fn poll_on<W: Waitable>(
    w: &mut W,
    slots: &mut [Slot],
    cx: &mut Context<'_>,
) -> Poll<W::Output> {
    round(w, slots, Some(cx.waker()), None)
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
    use std::pin::Pin;
    use std::sync::atomic::AtomicUsize as Count;

    /// A waitable whose looks play a script: `script(n, lanes)` is the
    /// `n`-th probe (0-based) and may act on the lanes before answering,
    /// which is how a test lands an event at an exact point of the round.
    struct Scripted<'a, F> {
        lanes: &'a [Eventcount],
        script: F,
        probes: usize,
    }

    type Look = Probe<Result<u32, RecvError>>;

    impl<'a, F: FnMut(usize, &[Eventcount]) -> Look> Scripted<'a, F> {
        fn new(lanes: &'a [Eventcount], script: F) -> Self {
            let probes = 0;
            Scripted {
                lanes,
                script,
                probes,
            }
        }
    }

    impl<F: FnMut(usize, &[Eventcount]) -> Look> Waitable for Scripted<'_, F> {
        type Output = Result<u32, RecvError>;
        type Slots = Vec<Slot>;

        fn slots(&self) -> Vec<Slot> {
            vec![Slot::default(); self.lanes.len()]
        }

        fn lane(&self, i: usize) -> &Eventcount {
            &self.lanes[i]
        }

        fn probe(&mut self) -> Look {
            self.probes += 1;
            (self.script)(self.probes - 1, self.lanes)
        }

        fn timeout(&mut self) -> Self::Output {
            Err(RecvError::Timeout)
        }
    }

    fn lanes(n: usize) -> Vec<Eventcount> {
        (0..n).map(|_| Eventcount::new()).collect()
    }

    /// Registrations a lane has ever admitted (tokens are drawn under the
    /// waiter mutex, one per fresh registration).
    fn tokens_drawn(ec: &Eventcount) -> u64 {
        ec.waiters.lock().unwrap().next_token
    }

    fn no_waiters(lanes: &[Eventcount]) -> bool {
        lanes.iter().all(|ec| ec.waiters() == 0)
    }

    /// Bumps `ec`'s epoch the only way it moves: a notify that finds a
    /// registered waiter.
    fn bump(ec: &Eventcount) {
        ec.register_thread(ec.listen()).expect("fresh epoch");
        ec.notify_all();
    }

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
        let ec = lanes(1);
        let hits = Count::new(0);
        let reprobed = Count::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    // Resolved by nothing but the broadcast's epoch bump.
                    let mut w = Scripted::new(&ec, |n, l| match l[0].listen() {
                        0 => {
                            if n == 1 {
                                reprobed.fetch_add(1, SeqCst);
                            }
                            Probe::Wait
                        }
                        _ => Probe::Ready(Ok(1)),
                    });
                    assert_eq!(park_on(&mut w, None), Ok(1));
                    assert_eq!(w.probes, 3, "first look, re-probe, one look after the wake");
                    hits.fetch_add(1, SeqCst);
                });
            }
            // BOUND: wait-edge — test waits for all three waiters to
            // register and re-probe before the broadcast (one landing
            // before a re-probe would resolve that look instead)
            while reprobed.load(SeqCst) < 3 {
                std::thread::yield_now();
            }
            ec[0].notify_all();
        });
        assert_eq!(hits.load(SeqCst), 3);
        assert_eq!(ec[0].waiters(), 0, "notify drained the list");
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
        let ec = lanes(1);
        let mut w = Scripted::new(&ec, |_, _| Probe::Wait);
        let r = park_on(&mut w, Some(Duration::from_millis(10)));
        assert_eq!(r, Err(RecvError::Timeout));
        assert_eq!(tokens_drawn(&ec[0]), 1, "it did register and sleep");
        assert_eq!(ec[0].waiters(), 0, "timed-out waiter removed itself");
        assert_eq!(w.probes, 3, "first look, re-probe, exactly one last look");
        // And the last look counts: what it finds is delivered, not lost.
        let mut w = Scripted::new(&ec, |n, _| match n {
            2 => Probe::Ready(Ok(9)),
            _ => Probe::Wait,
        });
        assert_eq!(park_on(&mut w, Some(Duration::from_millis(10))), Ok(9));
        assert_eq!(ec[0].waiters(), 0);
    }

    /// A zero timeout is a pure try-op: no waiter mutex, no list push, no
    /// membarrier — on both edges of a real channel.
    #[test]
    fn expired_deadline_never_registers() {
        // 2 elements; one thread slot per endpoint.
        let (mut tx, mut rx) = crate::channel::over(crate::WcqQueue::<u32>::new(1, 2));
        assert_eq!(rx.recv_timeout(Duration::ZERO), Err(RecvError::Timeout));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(
            tx.send_timeout(3, Duration::ZERO),
            Err(SendError::Timeout(3))
        );
        let state = rx.sync_state();
        for ec in [state.not_empty(), state.not_full()] {
            assert_eq!(tokens_drawn(ec), 0, "an expired deadline registered");
            assert_eq!(ec.waiters(), 0);
        }
    }

    /// An event that lands between the first look and the registration
    /// moves no epoch (`notify_all`/`close` reach registered waiters
    /// only), so the re-probe is the only place left to learn of it.
    #[test]
    fn event_before_registration_is_caught_by_the_reprobe() {
        for (n, hit) in [(1, 0), (2, 1)] {
            let ec = lanes(n);
            let mut landed = false;
            let mut w = Scripted::new(&ec, |_, l| {
                if landed {
                    return Probe::Ready(Ok(7));
                }
                landed = true;
                l[hit].notify_all(); // nobody registered yet: a no-op
                Probe::Wait
            });
            let mut slots = w.slots();
            let r = round(&mut w, &mut slots, None, None);
            assert!(matches!(r, Poll::Ready(Ok(7))), "must not report Pending");
            assert_eq!(w.probes, 2, "first look + re-probe, nothing else");
            assert!(
                ec.iter().all(|ec| tokens_drawn(ec) == 1),
                "registered on every lane"
            );
            assert!(no_waiters(&ec));
        }
    }

    #[test]
    fn every_exit_leaves_no_waiter_behind() {
        // Ready at first look: never registers.
        let ec = lanes(2);
        let mut w = Scripted::new(&ec, |_, _| Probe::Ready(Ok(1)));
        assert_eq!(park_on(&mut w, None), Ok(1));
        assert!(ec.iter().all(|ec| tokens_drawn(ec) == 0));

        // Refusal: lane 1 is notified after the snapshot, so lane 0
        // registers, lane 1 refuses, lane 0 is cancelled and the round
        // starts over.
        let mut w = Scripted::new(&ec, |n, l| match n {
            0 => {
                bump(&l[1]);
                Probe::Wait
            }
            _ => Probe::Ready(Ok(2)),
        });
        assert_eq!(park_on(&mut w, None), Ok(2));
        assert_eq!(w.probes, 2, "the retry's first look resolves");
        assert_eq!((tokens_drawn(&ec[0]), tokens_drawn(&ec[1])), (1, 1));
        assert!(no_waiters(&ec));

        // A task that polled to Pending holds a registration; dropping
        // the future gives it back — on both edges of a real channel.
        let (mut tx, mut rx) = crate::channel::over(crate::WcqQueue::<u32>::new(1, 2));
        let watch = rx.clone(); // never operates, so it takes no slot
        let state = watch.sync_state();
        let waker = Waker::from(Arc::new(ThreadWaker(crate::sim::current())));
        let mut cx = Context::from_waker(&waker);
        let mut fut = rx.recv_async();
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert_eq!(state.not_empty().waiters(), 1);
        drop(fut);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let mut fut = tx.send_async(3);
        for _ in 0..2 {
            // The re-poll refreshes its entry in place.
            assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
            assert_eq!(state.not_full().waiters(), 1);
        }
        drop(fut);
        for ec in [state.not_empty(), state.not_full()] {
            assert_eq!(ec.waiters(), 0);
            assert_eq!(tokens_drawn(ec), 1);
        }
    }

    #[test]
    fn spurious_unpark_reparks_and_any_lane_wakes() {
        let ec = lanes(2);
        let go = AtomicBool::new(false);
        std::thread::scope(|s| {
            let sleeper = s.spawn(|| {
                let mut w = Scripted::new(&ec, |_, _| match go.load(SeqCst) {
                    true => Probe::Ready(Ok(5)),
                    false => Probe::Wait,
                });
                let r = park_on(&mut w, None);
                (r, w.probes)
            });
            // BOUND: wait-edge — test waits for the sleeper to register
            // on both lanes
            while ec.iter().any(|ec| ec.waiters() == 0) {
                std::thread::yield_now();
            }
            // No epoch moved: these may cost a re-check, never a round.
            // The pause only gives a wrong driver time to act on them.
            for _ in 0..3 {
                sleeper.thread().unpark();
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(ec[0].waiters() + ec[1].waiters(), 2, "still asleep on both");
            go.store(true, SeqCst);
            ec[1].notify_all(); // the second lane alone wakes it
            let (r, probes) = sleeper.join().unwrap();
            assert_eq!(r, Ok(5));
            assert_eq!(
                probes, 3,
                "first look, re-probe, one look after the real wake"
            );
        });
        assert!(
            no_waiters(&ec),
            "lane 0's registration was cancelled on the way out"
        );
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
