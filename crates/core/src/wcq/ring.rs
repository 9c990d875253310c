//! The wait-free circular queue ring (paper §3, Figs. 4–7).
//!
//! [`WcqRing`] is a bounded MPMC queue of *indices* in `0..n`. Its fast path
//! is SCQ (identical structure, plus the `Enq` bit and the 16-byte entry
//! pair); after `MAX_PATIENCE` failed fast attempts an operation publishes a
//! help request in its thread record and enters the slow path, where all
//! cooperative threads (the helpee plus any helpers) replay the same
//! sequence of tickets via [`slow_faa`](WcqRing) until one of them succeeds
//! and sets `FIN`.
//!
//! Comments reference figure/line numbers of the SPAA '22 paper.
//!
//! ORDERING: wCQ ring protocol (threshold, seqlock phase 2, helping): the
//! paper's §3 argument is SC; shaving is the ROADMAP `SeqCst` shave-down
//! backlog, one proven edge at a time — cover: dst models 1-3

use crate::pack::{enq_bit, pack_w, unpack_w, RingLayout, WEntry};
use crate::wcq::record::{cnt_of, tag_from_seq, tag_of, ThreadRec, CNT_MASK, FIN, INC};
use crate::WcqConfig;
use crossbeam_utils::CachePadded;
use crate::sim::{AtomicI64, AtomicPair, AtomicU64};
use std::sync::atomic::{Ordering::Relaxed, Ordering::SeqCst};

/// Outcome of a dequeue on an index ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deq {
    /// An index was dequeued.
    Index(u64),
    /// The queue was observed empty.
    Empty,
}

/// Outcome of resolving one already-claimed head ticket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeqAt {
    /// The ticket matched a produced entry.
    Hit(u64),
    /// The queue was observed empty while resolving the ticket.
    Empty,
    /// The ticket matched nothing (entry invalidated for this cycle).
    Miss,
}

/// Wait-free bounded MPMC queue of indices in `0..n` (`n = 2^order`).
///
/// Like [`crate::scq::ScqRing`], the ring relies on the index-queue
/// discipline (at most `n` distinct live indices, each enqueued at most once
/// until dequeued); [`crate::WcqQueue`] enforces it. Violating the
/// discipline can make `enqueue` loop (no memory unsafety).
///
/// Every operation takes the caller's thread id `tid < max_threads`; each
/// `tid` must be used by at most one thread at a time (the safe handle layer
/// guarantees this).
pub struct WcqRing {
    layout: RingLayout,
    cfg: WcqConfig,
    /// Global tail: `{cnt, phase2-ptr}` pair. Fast path F&As the counter
    /// half; the slow path CAS2-es the whole pair (Fig. 7).
    tail: CachePadded<AtomicPair>,
    /// Global head, same shape as `tail`.
    head: CachePadded<AtomicPair>,
    threshold: CachePadded<AtomicI64>,
    /// Entry pairs: `lo` = value word `{Cycle, IsSafe, Enq, Index}`,
    /// `hi` = `Note` (an `i64` cycle, `-1` = none).
    entries: Box<[AtomicPair]>,
    /// One helping record per registered thread.
    records: Box<[ThreadRec]>,
}

const NOTE_NONE: u64 = (-1i64) as u64;

/// Spins a releasing thread grants an in-flight helper before yielding its
/// quantum instead (see [`WcqRing::quiesce_record`]).
const QUIESCE_SPIN_BOUND: u32 = 64;

impl WcqRing {
    /// Creates an empty ring with `n = 2^order` usable entries and room for
    /// `max_threads` concurrently registered threads.
    pub fn new_empty(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        Self::build(order, max_threads, cfg, false)
    }

    /// Creates a ring pre-filled with indices `0..n` (for `fq`): the state
    /// `new_empty` reaches after enqueuing `0..n`, written once, in address
    /// order, by `RingLayout::full_slots`. The ring is owned by value
    /// until it is moved into an `Arc` or a spawned thread, and that move
    /// happens-before any other thread's access, so construction needs no
    /// atomic read-modify-write (DESIGN.md §2, "Construction").
    pub fn new_full(order: u32, max_threads: usize, cfg: &WcqConfig) -> Self {
        Self::build(order, max_threads, cfg, true)
    }

    fn build(order: u32, max_threads: usize, cfg: &WcqConfig, full: bool) -> Self {
        assert!(max_threads >= 1, "need at least one thread slot");
        assert!(
            (max_threads as u64) <= (1u64 << order),
            "paper assumption k <= n violated: {max_threads} threads, n = {}",
            1u64 << order
        );
        let layout = RingLayout::new(order, 2, cfg.remap);
        let word = |cycle, index| {
            let e = WEntry {
                cycle,
                is_safe: true,
                enq: true,
                index,
            };
            pack_w(&layout, e)
        };
        let empty = word(0, layout.bot());
        // `move` closures, as in `ScqRing::build`: the words stay in
        // registers through the fill loop.
        let (entries, enqueued, threshold) = if full {
            // Tickets 2n .. 3n hold indices 0..n at cycle 1.
            let cycle1 = word(1, 0);
            let entries = layout.full_slots::<_, 4>(
                move |i| AtomicPair::new(cycle1 | i, NOTE_NONE),
                move || AtomicPair::new(empty, NOTE_NONE),
            );
            (entries, layout.n(), layout.threshold_reset())
        } else {
            let entries = (0..layout.ring_size)
                .map(move |_| AtomicPair::new(empty, NOTE_NONE))
                .collect();
            (entries, 0, -1)
        };
        let records = (0..max_threads)
            .map(|i| ThreadRec::new(cfg.help_delay as u64, ((i + 1) % max_threads) as u64))
            .collect();
        WcqRing {
            layout,
            cfg: *cfg,
            tail: CachePadded::new(AtomicPair::new(layout.ring_size + enqueued, 0)),
            head: CachePadded::new(AtomicPair::new(layout.ring_size, 0)),
            threshold: CachePadded::new(AtomicI64::new(threshold)),
            entries,
            records,
        }
    }

    /// Usable capacity `n`.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.layout.n()
    }

    /// Number of thread slots.
    #[inline]
    pub fn max_threads(&self) -> usize {
        self.records.len()
    }

    /// The ring geometry (tests/diagnostics).
    #[inline]
    pub fn layout(&self) -> &RingLayout {
        &self.layout
    }

    /// Current threshold (tests/diagnostics).
    pub fn threshold(&self) -> i64 {
        self.threshold.load(SeqCst)
    }

    // =====================================================================
    // Fast path (Fig. 3 structure with wCQ's entry pairs, Fig. 5 consume)
    // =====================================================================

    /// One fast-path enqueue attempt. `Err(t)` carries the burned ticket.
    #[inline]
    fn try_enq(&self, index: u64) -> Result<(), u64> {
        let t = self.tail.fetch_add_lo(1) & CNT_MASK;
        if self.try_enq_at(t, index) {
            Ok(())
        } else {
            Err(t)
        }
    }

    /// Attempts a fast-path insert at an already-claimed tail ticket `t`.
    /// `false` burns the ticket — exactly the cost of one failed singleton
    /// attempt, so callers may abandon any claimed tickets after a failure.
    #[inline]
    fn try_enq_at(&self, t: u64, index: u64) -> bool {
        let l = &self.layout;
        let j = l.slot(t);
        let cyc = l.cycle(t);
        // BOUND: const — retries only when the slot word changed under CAS;
        // a (slot, cycle) word has O(1) transitions (produce, consume,
        // invalidate) before the entry guard fails and the attempt returns
        // — the fast path inserts in one step (Thm 5.9, Enq = 1)
        loop {
            let word = self.entries[j].load_lo(); // value word only
            let e = unpack_w(l, word);
            if e.cycle < cyc
                && (e.index == l.bot() || e.index == l.botc())
                && (e.is_safe || self.head.load_lo() <= t)
            {
                // Fast path inserts in one step: Enq = 1 (Thm. 5.9).
                let new = pack_w(
                    l,
                    WEntry {
                        cycle: cyc,
                        is_safe: true,
                        enq: true,
                        index,
                    },
                );
                if !self.entries[j].compare_exchange_lo(word, new) {
                    continue;
                }
                if self.threshold.load(SeqCst) != l.threshold_reset() {
                    self.threshold.store(l.threshold_reset(), SeqCst);
                }
                return true;
            }
            return false;
        }
    }

    /// One fast-path dequeue attempt.
    #[inline]
    fn try_deq(&self) -> Result<Deq, u64> {
        let h = self.head.fetch_add_lo(1) & CNT_MASK;
        match self.try_deq_at(h) {
            DeqAt::Hit(i) => Ok(Deq::Index(i)),
            DeqAt::Empty => Ok(Deq::Empty),
            DeqAt::Miss => Err(h),
        }
    }

    /// Resolves an already-claimed head ticket `h`. Every claimed head
    /// ticket **must** be resolved (unlike tail tickets it cannot simply be
    /// abandoned: the miss path has to invalidate the slot so a late
    /// enqueuer cannot insert at a position the head has already passed).
    #[inline]
    fn try_deq_at(&self, h: u64) -> DeqAt {
        let l = &self.layout;
        let j = l.slot(h);
        let cyc = l.cycle(h);
        // BOUND: const — same O(1)-transitions argument for the head
        // ticket; every exit resolves the ticket (hit, empty via catchup,
        // miss via threshold)
        loop {
            let word = self.entries[j].load_lo();
            let e = unpack_w(l, word);
            if e.cycle == cyc {
                debug_assert!(
                    e.index != l.bot() && e.index != l.botc(),
                    "ticket {h} matched an unproduced slot"
                );
                self.consume(h, j, word);
                return DeqAt::Hit(e.index);
            }
            let new = if e.index == l.bot() || e.index == l.botc() {
                pack_w(
                    l,
                    WEntry {
                        cycle: cyc,
                        is_safe: e.is_safe,
                        enq: true,
                        index: l.bot(),
                    },
                )
            } else {
                pack_w(
                    l,
                    WEntry {
                        cycle: e.cycle,
                        is_safe: false,
                        enq: e.enq,
                        index: e.index,
                    },
                )
            };
            if e.cycle < cyc && !self.entries[j].compare_exchange_lo(word, new) {
                continue;
            }
            let t = self.tail.load_lo();
            if t <= h + 1 {
                self.catchup(t, h + 1);
                self.threshold.fetch_sub(1, SeqCst);
                return DeqAt::Empty;
            }
            if self.threshold.fetch_sub(1, SeqCst) <= 0 {
                return DeqAt::Empty;
            }
            return DeqAt::Miss;
        }
    }

    /// Consume an entry (Fig. 5 lines 1–3): finalize a pending slow-path
    /// enqueue if `Enq = 0`, then OR `{Enq=1, Index=⊥c}` into the value.
    #[inline]
    fn consume(&self, h: u64, j: usize, value_word: u64) {
        if value_word & enq_bit(&self.layout) == 0 {
            self.finalize_request(h);
        }
        self.entries[j].fetch_or_lo(enq_bit(&self.layout) | self.layout.botc());
    }

    /// Finds the enqueuer whose pending slow-path request produced ticket
    /// `h` and sets its `FIN` flag (Fig. 5 lines 4–11). At most one record
    /// can match: tickets are unique.
    fn finalize_request(&self, h: u64) {
        for rec in self.records.iter() {
            let lv = rec.local_tail.load(SeqCst);
            if lv & (FIN | INC) == 0 && cnt_of(lv) == h {
                let _ = rec
                    .local_tail
                    .compare_exchange(lv, lv | FIN, SeqCst, SeqCst);
                return;
            }
        }
    }

    /// Bounded tail catch-up (§3.2 "Bounding catchup").
    fn catchup(&self, mut tail: u64, mut head: u64) {
        for _ in 0..self.cfg.max_catchup {
            if self.tail.compare_exchange_lo(tail, head) {
                break;
            }
            head = self.head.load_lo();
            tail = self.tail.load_lo();
            if tail >= head {
                break;
            }
        }
    }

    // =====================================================================
    // Helping (Fig. 6)
    // =====================================================================

    /// Periodically scan one peer for a pending request (Fig. 6 lines 1–12).
    #[inline]
    // ORDERING: advisory helping-policy counter (next_check/next_tid) or
    // seqlock pre-read re-validated under SeqCst; no protocol edge rides on
    // it
    fn help_threads(&self, tid: usize) {
        let rec = &self.records[tid];
        let nc = rec.next_check.load(Relaxed);
        if nc != 0 {
            rec.next_check.store(nc - 1, Relaxed);
            return;
        }
        rec.next_check.store(self.cfg.help_delay as u64, Relaxed);
        let t = rec.next_tid.load(Relaxed) as usize % self.records.len();
        let thr = &self.records[t];
        // The common no-request case stays a single load; the announce RMWs
        // below run only when a help request was actually observed.
        // ORDERING: helping protocol edges (announce, re-check, drive,
        // retire): the file-level argument applies
        if t != tid && thr.pending.load(SeqCst) == 1 {
            // Announce, then RE-CHECK `pending` before driving: a slot
            // release stores `pending = 0` and then waits for
            // `helpers == 0` (`quiesce_record`), so a helper whose
            // announce lands after that wait's zero-read is ordered after
            // the `pending = 0` store — its re-check fails and it bails.
            // Helpers that announced earlier are waited on. Either way no
            // drive can start after, or survive past, the release. Without
            // the wait, a thread re-registering slot `t` could publish a
            // fresh request on a record we are still replaying; the TAG
            // guard makes the stale CASes fail, but only up to its 2^14
            // wrap — the quiesce makes the argument unconditional.
            thr.helpers.fetch_add(1, SeqCst);
            if thr.pending.load(SeqCst) == 1 {
                thr.driving.fetch_add(1, SeqCst);
                #[cfg(debug_assertions)]
                let epoch = thr.owner_epoch.load(SeqCst);
                // Debug builds stretch the drive window across a scheduler
                // quantum so tests/handle_churn.rs overlaps it with a drop
                // + re-register of the helpee's slot more often — the
                // schedule the quiesce wait exists for (same tripwire
                // pattern as the tail-lag yield in unbounded.rs). Under
                // `wcq_dst` the explorer owns all scheduling.
                #[cfg(all(debug_assertions, not(wcq_dst)))]
                std::thread::yield_now();
                if thr.enqueue.load(SeqCst) == 1 {
                    self.help_enqueue(rec, thr);
                } else {
                    self.help_dequeue(rec, thr);
                }
                // The quiesce-on-release wait guarantees no drive spans a
                // slot recycle; a changed epoch here means a release
                // skipped the wait (however brief the overlap was).
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    thr.owner_epoch.load(SeqCst),
                    epoch,
                    "thread slot recycled while a helper was driving its record \
                     (quiesce-on-release violated)"
                );
                thr.driving.fetch_sub(1, SeqCst);
            }
            thr.helpers.fetch_sub(1, SeqCst);
        }
        rec.next_tid
            .store(((t + 1) % self.records.len()) as u64, Relaxed);
    }

    /// Blocks until no helper is on `tid`'s record. Called by the handle
    /// layers **before** a thread slot is released: the owning thread has
    /// completed all of its operations (so `pending == 0` and every
    /// published request carries `FIN`), which means any helper still
    /// inside the drive loop aborts within a bounded number of steps — the
    /// wait is short and terminates.
    ///
    /// The wait is on the announce counter (`helpers`), not the drive
    /// counter: a helper may only drive after a **post-announce** read of
    /// `pending == 1`, so once this wait observes zero, every
    /// later-announcing helper is ordered after the owner's `pending = 0`
    /// store and bails at its re-check without driving. After it returns,
    /// the record stays quiet until the slot's next owner publishes a
    /// request — the invariant registration asserts.
    pub fn quiesce_record(&self, tid: usize) {
        let rec = &self.records[tid];
        debug_assert_eq!(
            rec.pending.load(SeqCst),
            0,
            "slot released with a pending help request"
        );
        let mut spins = 0u32;
        // BOUND: wait-edge — quiesce on handle release: waits only for
        // helpers already inside this record to finish their bounded help
        // pass; spins QUIESCE_SPIN_BOUND then yields
        while rec.helpers.load(SeqCst) != 0 {
            spins += 1;
            if spins <= QUIESCE_SPIN_BOUND {
                crate::sim::spin_loop();
            } else {
                // A preempted helper holds the count up for a quantum;
                // donate ours instead of burning it.
                crate::sim::yield_now();
            }
        }
    }

    /// `true` while `tid`'s record has no pending request and no helper
    /// replaying it. Registration paths assert this on freshly acquired
    /// slots: it is the invariant `quiesce_record` establishes at release
    /// and nothing can break between release and the next publish
    /// (helpers only engage while `pending == 1`).
    pub fn record_is_quiet(&self, tid: usize) -> bool {
        self.records[tid].is_quiet()
    }

    /// Notes a (re-)registration of thread slot `tid` by bumping the
    /// record's owner epoch — the counterpart of the drive-spanning
    /// assertion in `help_threads` (see [`crate::wcq::record::ThreadRec`]).
    pub fn note_registration(&self, tid: usize) {
        self.records[tid].owner_epoch.fetch_add(1, SeqCst);
    }

    /// Fig. 6 lines 13–19. `me` is the helper's own record (owner of the
    /// phase-2 area used inside `slow_faa`); `thr` is the helpee.
    #[cold]
    fn help_enqueue(&self, me: &ThreadRec, thr: &ThreadRec) {
        let seq = thr.seq2.load(SeqCst);
        let tag = tag_from_seq(seq);
        let idx = thr.index.load(SeqCst);
        let init = thr.init_tail.load(SeqCst);
        if thr.enqueue.load(SeqCst) == 1 && thr.seq1.load(SeqCst) == seq && tag_of(init) == tag {
            self.enqueue_slow(me, init, idx, thr, tag);
        }
    }

    /// Fig. 6 lines 20–25.
    #[cold]
    fn help_dequeue(&self, me: &ThreadRec, thr: &ThreadRec) {
        let seq = thr.seq2.load(SeqCst);
        let tag = tag_from_seq(seq);
        let init = thr.init_head.load(SeqCst);
        if thr.enqueue.load(SeqCst) == 0 && thr.seq1.load(SeqCst) == seq && tag_of(init) == tag {
            self.dequeue_slow(me, init, thr, tag);
        }
    }

    // =====================================================================
    // Slow path (Fig. 7)
    // =====================================================================

    /// `load_global_help_phase2` (Fig. 7 lines 77–88): load the global pair,
    /// completing any pending phase-2 request found in its pointer half.
    ///
    /// Returns the global counter, or `None` if our request finished
    /// (`FIN`, or — reproduction hardening — the record moved to a newer
    /// request, i.e. a tag mismatch).
    fn load_global_help_phase2(
        &self,
        global: &AtomicPair,
        mylocal: &AtomicU64,
        tag: u64,
    ) -> Option<u64> {
        // BOUND: helping-bounded — phase-2 local/global agreement (Fig. 7):
        // a retried pass means the helpee's record advanced (tag moved or
        // FIN set); paper 3.4 bounds total helper passes per request
        loop {
            let lv = mylocal.load(SeqCst);
            if lv & FIN != 0 || tag_of(lv) != tag {
                return None; // the outer loop exits (line 79)
            }
            let (gcnt, gptr) = global.load2();
            if gptr == 0 {
                return Some(gcnt); // no help request (line 82)
            }
            // SAFETY: `gptr` was published by `slow_faa` on this ring and is
            // the address of a `ThreadRec` inside `self.records`, which lives
            // as long as `self`. Contents may be stale; the seqlock guards.
            let ph = unsafe { &*(gptr as usize as *const ThreadRec) };
            if let Some((local_addr, cnt)) = ph.read_phase2() {
                // Help complete phase 2: clear INC on the requester's local.
                // Fails harmlessly if `local` already advanced (line 86).
                // SAFETY: `local_addr` is the address of a `localTail`/
                // `localHead` atomic inside `self.records`.
                let local = unsafe { &*(local_addr as *const AtomicU64) };
                let _ = local.compare_exchange(cnt | INC, cnt, SeqCst, SeqCst);
            }
            // Clear the pointer; monotonic counters prevent ABA (line 87).
            if global.compare_exchange2((gcnt, gptr), (gcnt, 0)) {
                return Some(gcnt);
            }
        }
    }

    /// `slow_F&A` (Fig. 7 lines 21–37): advance this request's `local` word
    /// to the next ticket, incrementing the global counter exactly once per
    /// ticket across all cooperative threads.
    ///
    /// * `my_rec` — the **calling** thread's record (owns the phase-2 area).
    /// * `local` — the helpee's `localTail`/`localHead` word.
    /// * `v` — in/out: the last tagged local value this thread processed;
    ///   on `true` it holds the tagged ticket to probe next.
    /// * `dec_threshold` — dequeue side: decrement the threshold once per
    ///   ticket (Lemma 5.6).
    ///
    /// Returns `false` when the request has completed (`FIN`/tag change).
    fn slow_faa(
        &self,
        my_rec: &ThreadRec,
        global: &AtomicPair,
        local: &AtomicU64,
        v: &mut u64,
        tag: u64,
        dec_threshold: bool,
    ) -> bool {
        // BOUND: helping-bounded — phase-2 global F&A help: retries only
        // while concurrent helpers advance the same request; bounded by the
        // two-phase helping protocol (paper 3.4)
        loop {
            let cnt_opt = self.load_global_help_phase2(global, local, tag);
            let gcnt: u64;
            match cnt_opt {
                Some(c)
                    if local
                        .compare_exchange(*v, tag | c | INC, SeqCst, SeqCst)
                        .is_ok() =>
                {
                    // Phase 1 complete (line 30).
                    debug_assert!(c & !CNT_MASK == 0, "ticket counter overflow");
                    *v = tag | c | INC;
                    gcnt = c;
                }
                _ => {
                    // Someone else advanced the request — resynchronize
                    // (lines 26–29).
                    let lv = local.load(SeqCst);
                    *v = lv;
                    if lv & FIN != 0 || tag_of(lv) != tag {
                        return false;
                    }
                    if lv & INC == 0 {
                        return true; // ticket already fully allocated
                    }
                    gcnt = cnt_of(lv);
                }
            }
            // Publish the phase-2 request and try to perform the global
            // increment for ticket `gcnt` (lines 31–32).
            my_rec.prepare_phase2(local as *const AtomicU64 as usize, tag | gcnt);
            if global.compare_exchange2((gcnt, 0), (gcnt + 1, my_rec as *const ThreadRec as u64)) {
                if dec_threshold {
                    // Exactly once per head change (Lemma 5.6, line 33).
                    self.threshold.fetch_sub(1, SeqCst);
                }
                // Phase 2: clear INC, then retract the help pointer
                // (lines 34–36). Both CASes may fail if already helped.
                let _ = local.compare_exchange(tag | gcnt | INC, tag | gcnt, SeqCst, SeqCst);
                let _ = global.compare_exchange2(
                    (gcnt + 1, my_rec as *const ThreadRec as u64),
                    (gcnt + 1, 0),
                );
                *v = tag | gcnt;
                return true;
            }
            // Global moved (or a phase-2 pointer appeared): loop and retry.
        }
    }

    /// `try_enq_slow` (Fig. 7 lines 1–20). `t` is the untagged ticket.
    ///
    /// Returns `true` when the request's element is (already) produced for
    /// this ticket, `false` when the ticket must be abandoned.
    fn try_enq_slow(&self, t: u64, index: u64, helpee: &ThreadRec, tag: u64) -> bool {
        let l = &self.layout;
        let j = l.slot(t);
        let cyc = l.cycle(t);
        // BOUND: helping-bounded — slow-path enqueue at a claimed ticket:
        // O(1) slot transitions per cycle plus FIN cut-off; helpers drive
        // the request to completion (paper 3.4)
        loop {
            let (val, note) = self.entries[j].load2();
            let e = unpack_w(l, val);
            if e.cycle < cyc && (note as i64) < cyc as i64 {
                if !(e.is_safe || self.head.load_lo() <= t)
                    || (e.index != l.bot() && e.index != l.botc())
                {
                    // Slot unusable: advance Note so every cooperative
                    // thread skips it consistently (lines 7–10).
                    if !self.entries[j].compare_exchange2((val, note), (val, cyc)) {
                        continue;
                    }
                    return false;
                }
                // Produce the entry two-step: Enq = 0 first (lines 11–13).
                let produced = pack_w(
                    l,
                    WEntry {
                        cycle: cyc,
                        is_safe: true,
                        enq: false,
                        index,
                    },
                );
                if !self.entries[j].compare_exchange2((val, note), (produced, note)) {
                    continue;
                }
                // Finalize the help request (line 14); if we win, flip
                // Enq to 1 (lines 15–17). Losing means a dequeuer already
                // consumed the entry and finalized for us.
                if helpee
                    .local_tail
                    .compare_exchange(tag | t, tag | t | FIN, SeqCst, SeqCst)
                    .is_ok()
                {
                    let _ = self.entries[j]
                        .compare_exchange2((produced, note), (produced | enq_bit(l), note));
                }
                // An element entered the queue: reset the threshold
                // unconditionally (DESIGN.md §3.3).
                if self.threshold.load(SeqCst) != l.threshold_reset() {
                    self.threshold.store(l.threshold_reset(), SeqCst);
                }
                return true;
            }
            // Lines 19–20, with the ⊥-disambiguation: the slot holds our
            // cycle. It is our group's production (a real index, possibly
            // already consumed to ⊥c) — success — unless a dequeuer of the
            // same ticket beat the whole group and wrote `{cyc, ⊥}`, in
            // which case the ticket is lost and we must move on.
            return e.cycle == cyc && e.index != l.bot();
        }
    }

    /// `try_deq_slow` (Fig. 7 lines 43–69). `h` is the untagged ticket.
    fn try_deq_slow(&self, h: u64, helpee: &ThreadRec, tag: u64) -> bool {
        let l = &self.layout;
        let j = l.slot(h);
        let cyc = l.cycle(h);
        // BOUND: helping-bounded — slow-path dequeue at a claimed ticket:
        // same transition bound; every ticket resolves so head never
        // strands
        loop {
            let (val, note) = self.entries[j].load2();
            let e = unpack_w(l, val);
            // Ready, or already consumed by the owner (⊥c): success and
            // terminate all helpers (lines 47–49).
            if e.cycle == cyc && e.index != l.bot() {
                let _ = helpee
                    .local_head
                    .compare_exchange(tag | h, tag | h | FIN, SeqCst, SeqCst);
                return true;
            }
            let mut new_val = pack_w(
                l,
                WEntry {
                    cycle: cyc,
                    is_safe: e.is_safe,
                    enq: true,
                    index: l.bot(),
                },
            );
            if e.index != l.bot() && e.index != l.botc() {
                if e.cycle < cyc && (note as i64) < cyc as i64 {
                    // Avert late cooperative dequeuers (lines 53–57), then
                    // re-inspect (the paper re-reads via the failing CAS2).
                    if self.entries[j].compare_exchange2((val, note), (val, cyc)) {
                        continue;
                    }
                    continue;
                }
                new_val = pack_w(
                    l,
                    WEntry {
                        cycle: e.cycle,
                        is_safe: false,
                        enq: e.enq,
                        index: e.index,
                    },
                );
            }
            if e.cycle < cyc && !self.entries[j].compare_exchange2((val, note), (new_val, note)) {
                continue;
            }
            // Empty check (lines 63–68). The threshold was already
            // decremented for this ticket inside `slow_faa`.
            let t = self.tail.load_lo();
            if t <= h + 1 {
                self.catchup(t, h + 1);
                if self.threshold.load(SeqCst) < 0 {
                    let _ = helpee
                        .local_head
                        .compare_exchange(tag | h, tag | h | FIN, SeqCst, SeqCst);
                    return true; // empty result
                }
            }
            return false;
        }
    }

    /// `enqueue_slow` (Fig. 7 lines 70–72). `me` owns the phase-2 area.
    fn enqueue_slow(&self, me: &ThreadRec, v0: u64, index: u64, helpee: &ThreadRec, tag: u64) {
        let mut v = v0;
        // BOUND: helping-bounded — drives slow_faa until the request's FIN
        // is set; wait-freedom bound of Thm 5.9 (Enq <= patience + bounded
        // slow-path tickets)
        while self.slow_faa(me, &self.tail, &helpee.local_tail, &mut v, tag, false) {
            if self.try_enq_slow(cnt_of(v), index, helpee, tag) {
                break;
            }
        }
    }

    /// `dequeue_slow` (Fig. 7 lines 73–76). `me` owns the phase-2 area.
    fn dequeue_slow(&self, me: &ThreadRec, v0: u64, helpee: &ThreadRec, tag: u64) {
        let mut v = v0;
        // BOUND: helping-bounded — dequeue twin of the enqueue loop above;
        // Deq bound from Thm 5.9
        while self.slow_faa(me, &self.head, &helpee.local_head, &mut v, tag, true) {
            if self.try_deq_slow(cnt_of(v), helpee, tag) {
                break;
            }
        }
    }

    // =====================================================================
    // Public operations (Fig. 5)
    // =====================================================================

    /// Wait-free enqueue of `index` under thread id `tid`.
    pub fn enqueue(&self, tid: usize, index: u64) {
        debug_assert!(index < self.layout.n());
        self.help_threads(tid);
        // == fast path (SCQ) ==
        let mut tail = 0;
        for attempt in 0..self.cfg.max_patience_enq.max(1) {
            match self.try_enq(index) {
                Ok(()) => return,
                Err(t) => tail = t,
            }
            let _ = attempt;
        }
        // == slow path (wCQ) ==
        let rec = &self.records[tid];
        // ORDERING: advisory helping-policy counter (next_check/next_tid)
        // or seqlock pre-read re-validated under SeqCst; no protocol edge
        // rides on it
        let seq = rec.seq1.load(Relaxed);
        let tag = tag_from_seq(seq);
        rec.local_tail.store(tag | tail, SeqCst);
        rec.init_tail.store(tag | tail, SeqCst);
        rec.index.store(index, SeqCst);
        rec.enqueue.store(1, SeqCst);
        rec.seq2.store(seq, SeqCst);
        rec.pending.store(1, SeqCst);
        // Debug builds surrender the quantum right after publishing: on
        // few-core hosts the slow path otherwise completes before any peer
        // gets to observe `pending == 1`, and the helping machinery (plus
        // the quiesce-on-release protocol it necessitates) would go
        // untested. Production builds keep the paper's behavior, and
        // `wcq_dst` builds let the explorer own all scheduling.
        #[cfg(all(debug_assertions, not(wcq_dst)))]
        std::thread::yield_now();
        self.enqueue_slow(rec, tag | tail, index, rec, tag);
        rec.pending.store(0, SeqCst);
        rec.seq1.store(seq.wrapping_add(1), SeqCst);
    }

    /// Wait-free dequeue under thread id `tid`.
    pub fn dequeue(&self, tid: usize) -> Option<u64> {
        let l = &self.layout;
        if self.threshold.load(SeqCst) < 0 {
            return None; // O(1) empty fast path (Fig. 5 lines 30–31)
        }
        self.help_threads(tid);
        // == fast path (SCQ) ==
        let mut head = 0;
        for _ in 0..self.cfg.max_patience_deq.max(1) {
            match self.try_deq() {
                Ok(Deq::Index(i)) => return Some(i),
                Ok(Deq::Empty) => return None,
                Err(h) => head = h,
            }
        }
        // == slow path (wCQ) ==
        let rec = &self.records[tid];
        // ORDERING: advisory helping-policy counter (next_check/next_tid)
        // or seqlock pre-read re-validated under SeqCst; no protocol edge
        // rides on it
        let seq = rec.seq1.load(Relaxed);
        let tag = tag_from_seq(seq);
        rec.local_head.store(tag | head, SeqCst);
        rec.init_head.store(tag | head, SeqCst);
        rec.enqueue.store(0, SeqCst);
        rec.seq2.store(seq, SeqCst);
        rec.pending.store(1, SeqCst);
        // See the publish-side yield in `enqueue`.
        #[cfg(all(debug_assertions, not(wcq_dst)))]
        std::thread::yield_now();
        self.dequeue_slow(rec, tag | head, rec, tag);
        rec.pending.store(0, SeqCst);
        rec.seq1.store(seq.wrapping_add(1), SeqCst);
        // Gather the slow-path result (Fig. 5 lines 48–54).
        let h = cnt_of(rec.local_head.load(SeqCst));
        let j = l.slot(h);
        let (val, _note) = self.entries[j].load2();
        let e = unpack_w(l, val);
        if e.cycle == l.cycle(h) && e.index != l.bot() {
            debug_assert!(
                e.index != l.botc(),
                "slow-path dequeue result consumed by someone else"
            );
            self.consume(h, j, val);
            return Some(e.index);
        }
        None
    }

    // =====================================================================
    // Batch operations
    // =====================================================================

    /// Enqueues every index in `indices`, claiming `indices.len()`
    /// contiguous tail tickets with a **single** F&A and inserting a prefix
    /// in order on the fast path. The first per-ticket failure abandons the
    /// remaining claimed tickets (burned, exactly like failed singleton
    /// attempts — dequeuers invalidate them as they pass) and the remaining
    /// indices complete through the singleton wait-free path, so order is
    /// preserved and every index is enqueued on return.
    pub fn enqueue_batch(&self, tid: usize, indices: &[u64]) {
        if indices.is_empty() {
            return;
        }
        self.help_threads(tid);
        let t0 = self.tail.fetch_add_lo(indices.len() as u64) & CNT_MASK;
        let mut done = 0;
        for (i, &idx) in indices.iter().enumerate() {
            debug_assert!(idx < self.layout.n());
            if !self.try_enq_at((t0 + i as u64) & CNT_MASK, idx) {
                break;
            }
            done = i + 1;
        }
        for &idx in &indices[done..] {
            self.enqueue(tid, idx);
        }
    }

    /// Dequeues up to `out.len()` indices, claiming the whole run of head
    /// tickets with a **single** F&A (bounded by the observed backlog so a
    /// large batch on a near-empty ring does not decay the threshold more
    /// than the backlog warrants). Each claimed ticket is resolved exactly
    /// as a singleton attempt would resolve it; hits are written to `out`
    /// front-to-back in ticket order.
    ///
    /// Returns the number of indices written. `0` does **not** certify
    /// emptiness (the backlog probe is advisory) — callers needing a
    /// linearizable empty answer fall back to [`Self::dequeue`].
    pub fn dequeue_batch(&self, tid: usize, out: &mut [u64]) -> usize {
        if out.is_empty() || self.threshold.load(SeqCst) < 0 {
            return 0;
        }
        self.help_threads(tid);
        let avail = self
            .tail
            .load_lo()
            .saturating_sub(self.head.load_lo());
        let k = (out.len() as u64).min(avail);
        if k == 0 {
            return 0;
        }
        let h0 = self.head.fetch_add_lo(k) & CNT_MASK;
        let mut n = 0;
        for i in 0..k {
            if let DeqAt::Hit(idx) = self.try_deq_at((h0 + i) & CNT_MASK) {
                out[n] = idx;
                n += 1;
            }
        }
        n
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    fn cfg_default() -> WcqConfig {
        WcqConfig::default()
    }

    #[test]
    fn starts_empty() {
        let r = WcqRing::new_empty(4, 2, &cfg_default());
        assert_eq!(r.dequeue(0), None);
        assert_eq!(r.threshold(), -1);
    }

    #[test]
    fn full_init_yields_indices_in_order() {
        let r = WcqRing::new_full(4, 2, &cfg_default());
        let got: Vec<u64> = std::iter::from_fn(|| r.dequeue(0)).collect();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    /// An `AtomicPair`'s `(lo, hi)` words.
    type Pair = (u64, u64);

    /// Every word of a ring: both halves of each entry, `head`, `tail`,
    /// `threshold`.
    fn state(r: &WcqRing) -> (Vec<Pair>, Pair, Pair, i64) {
        let entries = r.entries.iter().map(|e| e.load2()).collect();
        (entries, r.head.load2(), r.tail.load2(), r.threshold())
    }

    /// `new_full` builds its state in one address-order pass; it must be
    /// exactly the state `new_empty` reaches by enqueuing `0..n`, in both
    /// halves of every entry, `head`, `tail` and `threshold`, and then run
    /// as a FIFO ring. Order 1 is the `idx_bits <= line_shift` no-remap
    /// edge; order 12 with 4 thread slots is the benchmark's
    /// `channel::bounded(12, 4)`.
    #[test]
    fn full_construction_equals_enqueued_fill() {
        for remap in [true, false] {
            let cfg = WcqConfig {
                remap,
                ..cfg_default()
            };
            for (order, threads) in (1..=10).map(|o| (o, 1)).chain([(12, 4)]) {
                let ctx = format!("order {order}, {threads} threads, remap {remap}");
                let built = WcqRing::new_full(order, threads, &cfg);
                let filled = WcqRing::new_empty(order, threads, &cfg);
                let n = filled.capacity();
                for i in 0..n {
                    filled.enqueue(0, i);
                }
                assert_eq!(state(&built), state(&filled), "{ctx}");
                for i in 0..n {
                    assert_eq!(built.dequeue(0), Some(i), "round {i}, {ctx}");
                    built.enqueue(0, i);
                }
                let got: Vec<u64> = std::iter::from_fn(|| built.dequeue(0)).collect();
                assert_eq!(got, (0..n).collect::<Vec<_>>(), "{ctx}");
            }
        }
    }

    /// Once the threshold has decayed below zero, an empty `dequeue` or
    /// `dequeue_batch` returns without writing anything: `head`, `tail`,
    /// `threshold` and every entry word stay as they were. This is the
    /// timing-free form of `tests/figure_shapes.rs`'
    /// `threshold_makes_empty_dequeue_constant_time`.
    #[test]
    fn empty_dequeue_after_decay_writes_nothing() {
        let r = WcqRing::new_empty(4, 1, &cfg_default());
        for i in 0..10 {
            r.enqueue(0, i);
        }
        assert_eq!(std::iter::from_fn(|| r.dequeue(0)).count(), 10);
        // Each empty dequeue lowers the threshold by one, from at most 3n - 1.
        for _ in 0..=r.layout().threshold_reset() {
            assert_eq!(r.dequeue(0), None);
        }
        assert!(r.threshold() < 0);
        let before = state(&r);
        let mut out = [0u64; 8];
        for _ in 0..10_000 {
            assert_eq!(r.dequeue(0), None);
            assert_eq!(r.dequeue_batch(0, &mut out), 0);
        }
        assert_eq!(state(&r), before);
    }

    #[test]
    fn fifo_single_thread() {
        let r = WcqRing::new_empty(5, 1, &cfg_default());
        for i in 0..32 {
            r.enqueue(0, i);
        }
        for i in 0..32 {
            assert_eq!(r.dequeue(0), Some(i));
        }
        assert_eq!(r.dequeue(0), None);
    }

    #[test]
    fn wraps_many_cycles() {
        let r = WcqRing::new_empty(2, 1, &cfg_default());
        for round in 0..3000u64 {
            r.enqueue(0, round % 4);
            r.enqueue(0, (round + 1) % 4);
            assert_eq!(r.dequeue(0), Some(round % 4));
            assert_eq!(r.dequeue(0), Some((round + 1) % 4));
            assert_eq!(r.dequeue(0), None);
        }
    }

    #[test]
    fn single_thread_forced_slow_path_still_fifo() {
        // patience = 1 forces the slow path whenever the single fast attempt
        // fails; with one thread the fast attempt mostly succeeds, but the
        // config also exercises help_delay = 0 bookkeeping on every op.
        let r = WcqRing::new_empty(3, 1, &WcqConfig::stress());
        for round in 0..500u64 {
            for i in 0..8 {
                r.enqueue(0, (i + round) % 8);
            }
            for i in 0..8 {
                assert_eq!(r.dequeue(0), Some((i + round) % 8));
            }
            assert_eq!(r.dequeue(0), None);
        }
    }

    fn mpmc_exact_delivery(cfg: WcqConfig, order: u32, threads: usize, per: u64) {
        // Index-queue discipline: we model a data queue by circulating
        // indices through two rings, like WcqQueue does, and check that the
        // multiset of delivered (producer, seq) pairs is exact.
        let q = Arc::new(crate::WcqQueue::<u64>::with_config(
            order,
            threads * 2,
            &cfg,
        ));
        let done = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut producers = Vec::new();
        for p in 0..threads as u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                let mut h = q.register().expect("producer slot");
                for i in 0..per {
                    let mut v = p << 32 | i;
                    // BOUND: wait-edge — test producer retries a full ring
                    // until consumers drain
                    loop {
                        match h.enqueue(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..threads {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            let sink = Arc::clone(&sink);
            consumers.push(std::thread::spawn(move || {
                let mut h = q.register().expect("consumer slot");
                let mut local = Vec::new();
                // BOUND: wait-edge — test consumer drains until producers
                // set the done flag
                loop {
                    match h.dequeue() {
                        Some(v) => local.push(v),
                        None if done.load(SeqCst) => break,
                        None => std::thread::yield_now(),
                    }
                }
                sink.lock().unwrap().extend(local);
            }));
        }
        for h in producers {
            h.join().unwrap();
        }
        done.store(true, SeqCst);
        for h in consumers {
            h.join().unwrap();
        }
        let got = sink.lock().unwrap();
        let expect = threads as u64 * per;
        assert_eq!(got.len() as u64, expect, "lost or duplicated elements");
        let set: std::collections::HashSet<u64> = got.iter().copied().collect();
        assert_eq!(set.len() as u64, expect, "duplicate delivery");
    }

    #[test]
    fn mpmc_default_config() {
        mpmc_exact_delivery(WcqConfig::default(), 6, 4, 4_000);
    }

    #[test]
    fn mpmc_forced_slow_path() {
        // Tiny patience + help every op: the slow path and helping machinery
        // run constantly. Small ring maximizes contention and wrap-around.
        mpmc_exact_delivery(WcqConfig::stress(), 4, 4, 2_000);
    }

    #[test]
    fn mpmc_tiny_ring_heavy_wrap() {
        let cfg = WcqConfig {
            max_patience_enq: 2,
            max_patience_deq: 2,
            help_delay: 1,
            max_catchup: 2,
            remap: true,
        };
        mpmc_exact_delivery(cfg, 3, 4, 1_500);
    }

    #[test]
    fn batch_roundtrip_preserves_order() {
        let r = WcqRing::new_empty(4, 1, &cfg_default());
        let idxs: Vec<u64> = (0..12).collect();
        r.enqueue_batch(0, &idxs);
        let mut out = [0u64; 16];
        let n = r.dequeue_batch(0, &mut out);
        assert_eq!(&out[..n], &idxs[..n], "batch dequeue must be in order");
        // Whatever the batch left behind comes out via singletons, in order.
        let mut rest: Vec<u64> = std::iter::from_fn(|| r.dequeue(0)).collect();
        let mut all = out[..n].to_vec();
        all.append(&mut rest);
        assert_eq!(all, idxs);
    }

    #[test]
    fn batch_wraps_many_cycles() {
        let r = WcqRing::new_empty(2, 1, &cfg_default());
        let mut out = [0u64; 4];
        for round in 0..2000u64 {
            let idxs = [round % 4, (round + 1) % 4, (round + 2) % 4];
            r.enqueue_batch(0, &idxs);
            let mut got = Vec::new();
            // BOUND: wait-edge — test collects exactly 3 indices per round
            // from its own batch
            while got.len() < 3 {
                let n = r.dequeue_batch(0, &mut out);
                got.extend_from_slice(&out[..n]);
                if n == 0 {
                    if let Some(i) = r.dequeue(0) {
                        got.push(i);
                    }
                }
            }
            assert_eq!(got, idxs);
            assert_eq!(r.dequeue(0), None);
        }
    }

    #[test]
    fn batch_dequeue_bounded_by_backlog() {
        let r = WcqRing::new_empty(5, 1, &cfg_default());
        r.enqueue_batch(0, &[1, 2, 3]);
        let mut out = [0u64; 32];
        // A huge batch request on a 3-element backlog must not report more
        // than the backlog and must leave the ring usable.
        let n = r.dequeue_batch(0, &mut out);
        assert!(n <= 3);
        let mut got = out[..n].to_vec();
        got.extend(std::iter::from_fn(|| r.dequeue(0)));
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(r.dequeue_batch(0, &mut out), 0, "empty ring yields 0");
    }

    #[test]
    fn batch_concurrent_exact_delivery() {
        // Producers enqueue in batches, consumers drain in batches; the
        // circulating-index discipline is held by partitioning 0..n between
        // two producer threads.
        let r = Arc::new(WcqRing::new_empty(6, 4, &cfg_default()));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut hs = Vec::new();
        for p in 0..2u64 {
            let r = Arc::clone(&r);
            hs.push(std::thread::spawn(move || {
                // Each producer owns indices p*32..p*32+8 and cycles them.
                let mine: Vec<u64> = (p * 32..p * 32 + 8).collect();
                for chunk in mine.chunks(4) {
                    r.enqueue_batch(p as usize, chunk);
                }
            }));
        }
        for c in 2..4usize {
            let r = Arc::clone(&r);
            let sink = Arc::clone(&sink);
            hs.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut out = [0u64; 8];
                let mut idle = 0;
                // BOUND: retry-budget — exits after 10_000 consecutive
                // empty passes
                while idle < 10_000 {
                    let n = r.dequeue_batch(c, &mut out);
                    if n == 0 {
                        match r.dequeue(c) {
                            Some(i) => got.push(i),
                            None => idle += 1,
                        }
                    } else {
                        got.extend_from_slice(&out[..n]);
                        idle = 0;
                    }
                }
                sink.lock().unwrap().extend(got);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let mut got = sink.lock().unwrap().clone();
        got.extend(std::iter::from_fn(|| r.dequeue(0)));
        got.sort_unstable();
        let want: Vec<u64> = (0..8).chain(32..40).collect();
        assert_eq!(got, want, "lost or duplicated indices across batches");
    }

    #[test]
    fn stalled_helpee_is_completed_by_helpers() {
        // A thread publishes an enqueue help request and then "stalls"
        // (we simulate by driving only other threads). Helpers must finish
        // its insertion. We approximate the stall by using a queue whose
        // patience is exhausted instantly and verifying global progress.
        let cfg = WcqConfig::stress();
        let r = Arc::new(WcqRing::new_empty(4, 3, &cfg));
        // Fill half the ring from thread 0.
        for i in 0..8 {
            r.enqueue(0, i);
        }
        // Two other threads hammer dequeue+enqueue; all elements keep
        // circulating; nothing is lost even with constant slow paths.
        let mut hs = Vec::new();
        for tid in 1..3 {
            let r = Arc::clone(&r);
            hs.push(std::thread::spawn(move || {
                let mut seen = 0u64;
                // BOUND: wait-edge — test circulates indices until 20_000
                // are seen
                while seen < 20_000 {
                    if let Some(i) = r.dequeue(tid) {
                        r.enqueue(tid, i);
                        seen += 1;
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        // Exactly 8 distinct indices still inside.
        let mut drained: Vec<u64> = std::iter::from_fn(|| r.dequeue(0)).collect();
        drained.sort_unstable();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
    }
}
