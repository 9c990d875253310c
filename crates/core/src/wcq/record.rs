//! Per-thread helping records (`thrdrec_t` + `phase2rec_t`, Fig. 4) and the
//! bit layout of the `localTail`/`localHead` synchronization words.
//!
//! ## Word layout
//!
//! The slow path coordinates a *helpee and its helpers* through a single
//! 64-bit word per direction (`localTail` for enqueues, `localHead` for
//! dequeues):
//!
//! ```text
//! [ FIN:1 ][ INC:1 ][ TAG:14 ][ ticket counter : 48 ]
//! ```
//!
//! * `FIN` — the request completed; every cooperative thread must stop
//!   (paper Fig. 7 line 27).
//! * `INC` — phase 1 of `slow_F&A`: the next ticket was tentatively claimed
//!   but the global counter increment may not have happened yet.
//! * `TAG` — **reproduction hardening** (see `DESIGN.md` §3.2): the low 14
//!   bits of the owning request's sequence number. Every slow-path CAS on
//!   the word carries the tag of the request it serves, so a helper that
//!   was preempted across the completion of one request and the start of
//!   the next on the same record can never act on the newer request with a
//!   stale operand. A tag mismatch observed on load aborts the helper
//!   exactly like `FIN`.
//!
//! 48 counter bits bound the queue to 2^48 ≈ 2.8·10^14 operations per ring
//! lifetime and the tag wraps after 2^14 requests per record — a stale
//! helper would have to sleep across 16384 *completed* requests of one
//! record while inside a handful of instructions to be confused, far beyond
//! any real schedule (and the exposure window is a single CAS that then
//! still needs the 48-bit ticket to match).
//!
//! ORDERING: helping-record seqlock + request tag (§3.4):
//! publish/claim/abort edges argued in the paper's SC model — cover: dst
//! models 1-3

use crate::sim::AtomicU64;
use std::sync::atomic::{Ordering::Relaxed, Ordering::SeqCst};

/// `FIN` flag: the help request has been completed.
pub const FIN: u64 = 1 << 63;
/// `INC` flag: phase-1 tentative ticket claim (global increment pending).
pub const INC: u64 = 1 << 62;
/// Number of bits in the request tag. Deterministic-schedule builds
/// shrink the tag to 2 bits so TAG wraparound — the stale-helper hazard
/// the tag exists to catch — is reachable within a few explored
/// operations instead of after 2^14 slow-path requests (standard
/// small-bounds model-checking technique; the protocol's correctness
/// argument is width-independent).
#[cfg(not(wcq_dst))]
pub const TAG_BITS: u32 = 14;
/// Number of bits in the request tag (small-bounds `wcq_dst` value).
#[cfg(wcq_dst)]
pub const TAG_BITS: u32 = 2;
/// First bit of the tag field.
pub const TAG_SHIFT: u32 = 48;
/// Mask selecting the tag field.
pub const TAG_MASK: u64 = ((1u64 << TAG_BITS) - 1) << TAG_SHIFT;
/// Mask selecting the 48-bit ticket counter.
pub const CNT_MASK: u64 = (1u64 << TAG_SHIFT) - 1;

/// Extracts the ticket counter (the paper's `Counter(x)`).
#[inline]
pub fn cnt_of(v: u64) -> u64 {
    v & CNT_MASK
}

/// Extracts the tag field (already shifted into place).
#[inline]
pub fn tag_of(v: u64) -> u64 {
    v & TAG_MASK
}

/// Builds the tag field for a request sequence number.
#[inline]
pub fn tag_from_seq(seq: u64) -> u64 {
    (seq << TAG_SHIFT) & TAG_MASK
}

/// Per-thread record: help-request publication area plus the helper-side
/// private cursors. One array of these per ring; all fields are atomics
/// (the "private" fields are only ever touched by the owning thread, but
/// keeping them atomic keeps the whole structure `Sync` without unsafety).
#[repr(align(128))]
pub struct ThreadRec {
    // === private fields (owner thread only) ===
    /// Countdown until the next `help_threads` scan (amortization).
    pub next_check: AtomicU64,
    /// Next thread id to inspect for a pending request.
    pub next_tid: AtomicU64,

    // === phase-2 help record (`phase2rec_t`), owned by this thread but
    //     read by anyone who finds its address in a global Head/Tail pair ===
    p2_seq1: AtomicU64,
    p2_local: AtomicU64,
    p2_cnt: AtomicU64,
    p2_seq2: AtomicU64,

    // === shared request fields ===
    /// Incremented when a request completes; `seq1 == seq2` ⇔ request valid.
    pub seq1: AtomicU64,
    /// 1 = the pending request is an enqueue.
    pub enqueue: AtomicU64,
    /// 1 = a request is pending (helpers check this first).
    pub pending: AtomicU64,
    /// Tagged `localTail` word (see module docs).
    pub local_tail: AtomicU64,
    /// Tagged starting ticket for enqueue helpers.
    pub init_tail: AtomicU64,
    /// Tagged `localHead` word.
    pub local_head: AtomicU64,
    /// Tagged starting ticket for dequeue helpers.
    pub init_head: AtomicU64,
    /// The index operand of a pending enqueue request.
    pub index: AtomicU64,
    /// Set to `seq1` when a request is published.
    pub seq2: AtomicU64,
    /// Helpers currently *examining* this record, incremented **before**
    /// the `pending` check (announce-then-check): a slot release waits for
    /// this to reach zero ([`crate::wcq::WcqRing::quiesce_record`]), and
    /// the ordering guarantees that any helper arriving after the wait
    /// observes `pending == 0` and bails — so no helper can start (or
    /// still be) driving a record once its slot has been released.
    pub helpers: AtomicU64,
    /// Helpers currently *replaying* this record's request (set only after
    /// the `pending` check passed). Between a quiesced release and the
    /// next registrant's first slow-path publish this is invariantly zero;
    /// the registration paths assert it (the handle-churn regression
    /// tripwire).
    pub driving: AtomicU64,
    /// Bumped every time the owning thread slot is (re-)registered. The
    /// quiesce-on-release protocol guarantees no helper drive spans a
    /// re-registration, so helpers assert (debug builds) that this value
    /// is unchanged across their drive — the deterministic tripwire for a
    /// reverted quiesce (tests/handle_churn.rs), independent of how short
    /// the overlap was.
    pub owner_epoch: AtomicU64,
}

impl ThreadRec {
    /// A fresh record with no pending request.
    pub fn new(help_delay: u64, start_tid: u64) -> Self {
        ThreadRec {
            next_check: AtomicU64::new(help_delay),
            next_tid: AtomicU64::new(start_tid),
            p2_seq1: AtomicU64::new(1),
            p2_local: AtomicU64::new(0),
            p2_cnt: AtomicU64::new(0),
            p2_seq2: AtomicU64::new(0),
            seq1: AtomicU64::new(1),
            enqueue: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            local_tail: AtomicU64::new(FIN),
            init_tail: AtomicU64::new(FIN),
            local_head: AtomicU64::new(FIN),
            init_head: AtomicU64::new(FIN),
            index: AtomicU64::new(0),
            seq2: AtomicU64::new(0),
            helpers: AtomicU64::new(0),
            driving: AtomicU64::new(0),
            owner_epoch: AtomicU64::new(0),
        }
    }

    /// `true` while no helper is replaying this record and no request is
    /// pending — the state a quiesced slot release leaves behind and a new
    /// registrant must find. (`helpers` is deliberately not part of this:
    /// a helper may always be harmlessly *examining* the record, about to
    /// bail on `pending == 0`.)
    #[inline]
    pub fn is_quiet(&self) -> bool {
        self.driving.load(SeqCst) == 0 && self.pending.load(SeqCst) == 0
    }

    /// Publishes a phase-2 help request (paper `prepare_phase2`, Fig. 7
    /// lines 38–42): single-writer seqlock over `(local, cnt)`.
    ///
    /// `local_addr` is the address of the `localTail`/`localHead` word the
    /// request refers to; `tagged_cnt` the tagged counter value whose `INC`
    /// flag phase 2 must clear.
    #[inline]
    pub fn prepare_phase2(&self, local_addr: usize, tagged_cnt: u64) {
        // ORDERING: seqlock sequence pre-read; re-validated by the SeqCst
        // publication pair
        let seq = self.p2_seq1.load(Relaxed).wrapping_add(1);
        self.p2_seq1.store(seq, SeqCst);
        self.p2_local.store(local_addr as u64, SeqCst);
        self.p2_cnt.store(tagged_cnt, SeqCst);
        self.p2_seq2.store(seq, SeqCst);
    }

    /// Reads the phase-2 record if it is consistent (seqlock read: `seq2`
    /// first, fields, then verify `seq1`). Returns `(local_addr, tagged_cnt)`.
    #[inline]
    pub fn read_phase2(&self) -> Option<(usize, u64)> {
        let seq = self.p2_seq2.load(SeqCst);
        let local = self.p2_local.load(SeqCst);
        let cnt = self.p2_cnt.load(SeqCst);
        if self.p2_seq1.load(SeqCst) == seq && local != 0 {
            Some((local as usize, cnt))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_fields_are_disjoint() {
        assert_eq!(FIN & INC, 0);
        assert_eq!((FIN | INC) & TAG_MASK, 0);
        assert_eq!((FIN | INC | TAG_MASK) & CNT_MASK, 0);
        // The narrowed dst TAG (2 bits) deliberately leaves bits unused
        // between TAG and INC; only the full-width layout covers u64.
        #[cfg(not(wcq_dst))]
        assert_eq!(FIN | INC | TAG_MASK | CNT_MASK, u64::MAX);
    }

    #[test]
    fn tag_and_cnt_extraction() {
        let tag = tag_from_seq(0x2abc);
        let v = tag | 0x0000_1234_5678_9abc | INC;
        assert_eq!(cnt_of(v), 0x0000_1234_5678_9abc);
        assert_eq!(tag_of(v), tag);
        assert_eq!(v & FIN, 0);
        assert_ne!(v & INC, 0);
    }

    #[test]
    fn tag_wraps_at_tag_bits() {
        assert_eq!(tag_from_seq(0), tag_from_seq(1 << TAG_BITS));
        assert_ne!(tag_from_seq(1), tag_from_seq(2));
        // Adjacent sequence numbers always differ in tag (the dangerous case
        // is an immediate successor request reusing the record).
        for s in 0..100u64 {
            assert_ne!(tag_from_seq(s), tag_from_seq(s + 1));
        }
    }

    #[test]
    fn stale_helper_aborts_across_tag_wraparound_window() {
        // DESIGN.md §3.2: a helper snapshots the tagged `localTail` word of
        // one request, is preempted, and wakes up after the record has
        // completed many further requests. Until the 14-bit tag wraps
        // (2^14 completed requests later) the guard every slow-path load
        // applies — abort on `FIN` set *or* tag mismatch — must fire, and
        // the helper's phase-1 CAS (which carries the stale word as its
        // expected value) must fail rather than apply the stale operand.
        let r = ThreadRec::new(16, 0);
        let mut seq = r.seq1.load(SeqCst);
        let stale_tag = tag_from_seq(seq);
        let ticket = 77u64;
        let stale_word = stale_tag | ticket;
        r.local_tail.store(stale_word, SeqCst);
        for completed in 1..(1u64 << TAG_BITS) {
            // The request completes (FIN) and the record is immediately
            // reused for a new request on the *same* ticket counter — the
            // adversarial schedule the tag exists for.
            r.local_tail.fetch_or(FIN, SeqCst);
            seq = seq.wrapping_add(1);
            r.seq1.store(seq, SeqCst);
            r.local_tail.store(tag_from_seq(seq) | ticket, SeqCst);
            // Guard check, as in `load_global_help_phase2` / `slow_faa`.
            let lv = r.local_tail.load(SeqCst);
            assert!(
                lv & FIN != 0 || tag_of(lv) != stale_tag,
                "stale helper not aborted after {completed} completed requests"
            );
            // The phase-1 CAS with the stale expected word cannot apply.
            assert!(
                r.local_tail
                    .compare_exchange(stale_word, stale_word | INC, SeqCst, SeqCst)
                    .is_err(),
                "stale operand applied after {completed} completed requests"
            );
        }
        // After exactly 2^14 completed requests the tag wraps: this is the
        // documented residual exposure, filtered only by the 48-bit ticket
        // — so a stale helper whose ticket *differs* still cannot apply.
        seq = seq.wrapping_add(1);
        assert_eq!(tag_from_seq(seq), stale_tag, "tag wraps at 2^14");
        r.local_tail.store(tag_from_seq(seq) | (ticket + 1), SeqCst);
        assert!(r
            .local_tail
            .compare_exchange(stale_word, stale_word | INC, SeqCst, SeqCst)
            .is_err());
    }

    #[test]
    fn phase2_seqlock_roundtrip() {
        let r = ThreadRec::new(16, 0);
        assert_eq!(r.read_phase2(), None, "unpublished record must not read");
        r.prepare_phase2(0xdead0, 42 | tag_from_seq(7));
        assert_eq!(r.read_phase2(), Some((0xdead0, 42 | tag_from_seq(7))));
        r.prepare_phase2(0xbeef0, 43);
        assert_eq!(r.read_phase2(), Some((0xbeef0, 43)));
    }

    #[test]
    fn fresh_record_is_finished() {
        // Both local words start with FIN so stray helpers always bail.
        let r = ThreadRec::new(16, 0);
        assert_ne!(r.local_tail.load(SeqCst) & FIN, 0);
        assert_ne!(r.local_head.load(SeqCst) & FIN, 0);
        assert_eq!(r.pending.load(SeqCst), 0);
        assert_ne!(r.seq1.load(SeqCst), r.seq2.load(SeqCst));
    }
}
