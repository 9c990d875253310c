//! Emulated weak LL/SC and the paper's Fig. 9 CAS2 construction (§4).
//!
//! On PowerPC and MIPS there is no double-width CAS. The paper's §4 builds
//! a *weak* CAS2 for the wCQ entry pair from ordinary LL/SC by exploiting
//! the reservation granule: `Value` and `Note` live in the same granule
//! (16-byte aligned), a LL is taken on the word being *modified*, the other
//! word is read with a plain (dependency-ordered) load in between, and the
//! SC succeeds only if the whole granule stayed untouched — which upgrades
//! the plain load to an atomic pair snapshot *on success*.
//!
//! This module reproduces that construction over an **emulated** LL/SC
//! machine so the logic can be executed and property-tested on any host:
//!
//! * [`LlScPair`] — a `{Value, Note}` granule with a reservation word.
//!   `ll_*` returns the word plus a reservation token; `sc_*` succeeds only
//!   if no store to *either* word intervened (granule semantics), and can
//!   additionally be made to fail spuriously (weak LL/SC allows it — e.g.
//!   an interrupt clearing the reservation).
//! * [`LlScPair::cas2_value`] / [`LlScPair::cas2_note`] — verbatim Fig. 9:
//!   weak CAS2 with single-word load atomicity on failure.
//!
//! The emulation is a sequence-locked granule: `ll` reads an even sequence
//! as the token; `sc` claims `token → token+1`, writes, releases to
//! `token+2`. Any successful `sc` bumps the sequence, so a reservation
//! taken before another thread's store can never commit — exactly the
//! reservation-loss rule. (The real hardware grants at most one SC per
//! granule per reservation epoch; the sequence CAS serializes identically.)
//!
//! The main `portable` backend remains the production fallback; this module
//! exists to execute and test the paper's §4 argument directly, and to let
//! the test suite check that wCQ's slow-path requirements ("weak CAS
//! semantics... only single-word load atomicity when CAS fails. Both
//! restrictions are acceptable for wCQ") actually hold of the construction.
//!
//! ORDERING: LL/SC backend: CAS2 loop must be a full barrier to honor the
//! AtomicPair contract

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::SeqCst};

/// Decision hook for injecting spurious SC failures (weak LL/SC).
pub trait SpuriousPolicy: Send + Sync {
    /// Return `true` to make the next store-conditional fail spuriously.
    fn fail_now(&self) -> bool;
}

/// Never fails spuriously (strong-ish LL/SC, still granule-shared).
pub struct NoSpurious;

impl SpuriousPolicy for NoSpurious {
    #[inline]
    fn fail_now(&self) -> bool {
        false
    }
}

/// Fails every `n`-th store-conditional — deterministic weak-LL/SC stress.
pub struct EveryNth {
    n: u32,
    counter: AtomicU32,
}

impl EveryNth {
    /// Fail every `n`-th SC (`n >= 1`).
    pub fn new(n: u32) -> Self {
        assert!(n >= 1);
        EveryNth {
            n,
            counter: AtomicU32::new(0),
        }
    }
}

impl SpuriousPolicy for EveryNth {
    #[inline]
    fn fail_now(&self) -> bool {
        self.counter.fetch_add(1, SeqCst) % self.n == self.n - 1
    }
}

/// A `{Value, Note}` entry pair inside one emulated reservation granule.
#[repr(C, align(64))]
pub struct LlScPair<P: SpuriousPolicy = NoSpurious> {
    value: AtomicU64,
    note: AtomicU64,
    /// Granule sequence: even = quiescent, odd = an SC is committing.
    seq: AtomicU64,
    policy: P,
}

/// Reservation token returned by `ll_*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation(u64);

impl LlScPair<NoSpurious> {
    /// Creates a granule without spurious failures.
    pub fn new(value: u64, note: u64) -> Self {
        Self::with_policy(value, note, NoSpurious)
    }
}

impl<P: SpuriousPolicy> LlScPair<P> {
    /// Creates a granule with an explicit spurious-failure policy.
    pub fn with_policy(value: u64, note: u64, policy: P) -> Self {
        LlScPair {
            value: AtomicU64::new(value),
            note: AtomicU64::new(note),
            seq: AtomicU64::new(0),
            policy,
        }
    }

    /// Load-linked on the `Value` word: the returned reservation covers the
    /// whole granule.
    #[inline]
    pub fn ll_value(&self) -> (u64, Reservation) {
        // BOUND: wait-edge — seqlock read: retries only while a writer
        // holds the odd sequence; writer critical sections are a few word
        // stores
        loop {
            let s = self.seq.load(SeqCst);
            if s & 1 == 0 {
                let v = self.value.load(SeqCst);
                if self.seq.load(SeqCst) == s {
                    return (v, Reservation(s));
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Load-linked on the `Note` word.
    #[inline]
    pub fn ll_note(&self) -> (u64, Reservation) {
        // BOUND: wait-edge — same odd-sequence retry for the Note word
        loop {
            let s = self.seq.load(SeqCst);
            if s & 1 == 0 {
                let n = self.note.load(SeqCst);
                if self.seq.load(SeqCst) == s {
                    return (n, Reservation(s));
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Plain load of `Value` (between an LL and an SC this is the paper's
    /// dependency-ordered load; single-word atomicity only).
    #[inline]
    pub fn load_value_plain(&self) -> u64 {
        self.value.load(SeqCst)
    }

    /// Plain load of `Note`.
    #[inline]
    pub fn load_note_plain(&self) -> u64 {
        self.note.load(SeqCst)
    }

    /// Store-conditional to the `Value` word. Fails if the granule changed
    /// since the reservation (any committed SC to either word) or if the
    /// spurious policy fires.
    #[inline]
    pub fn sc_value(&self, r: Reservation, new: u64) -> bool {
        self.sc_word(&self.value, r, new)
    }

    /// Store-conditional to the `Note` word.
    #[inline]
    pub fn sc_note(&self, r: Reservation, new: u64) -> bool {
        self.sc_word(&self.note, r, new)
    }

    #[inline]
    fn sc_word(&self, word: &AtomicU64, r: Reservation, new: u64) -> bool {
        if self.policy.fail_now() {
            return false; // reservation lost (interrupt, cache eviction, …)
        }
        // Claim the granule: only possible if nothing committed since LL.
        if self
            .seq
            .compare_exchange(r.0, r.0 + 1, SeqCst, SeqCst)
            .is_err()
        {
            return false;
        }
        word.store(new, SeqCst);
        self.seq.store(r.0 + 2, SeqCst);
        true
    }

    /// The paper's `CAS2_Value` (Fig. 9 lines 1–5): weak CAS2 that modifies
    /// `Value` while verifying both words.
    ///
    /// On success the pair `(expect_value, expect_note)` was atomically
    /// current at the SC; on failure only single-word load atomicity was
    /// observed (callers — wCQ's slow paths — must retry on `false`, which
    /// they do anyway: "sporadic failures are possible").
    #[inline]
    pub fn cas2_value(&self, expect: (u64, u64), new_value: u64) -> bool {
        let (prev_value, r) = self.ll_value(); // Fig. 9 line 2
        let prev_note = self.load_note_plain(); // line 3 (plain load)
        if (prev_value, prev_note) != expect {
            return false; // line 4
        }
        self.sc_value(r, new_value) // line 5
    }

    /// The paper's `CAS2_Note` (Fig. 9 lines 6–10).
    #[inline]
    pub fn cas2_note(&self, expect: (u64, u64), new_note: u64) -> bool {
        let (prev_note, r) = self.ll_note(); // line 7
        let prev_value = self.load_value_plain(); // line 8
        if (prev_value, prev_note) != expect {
            return false; // line 9
        }
        self.sc_note(r, new_note) // line 10
    }

    /// Atomic pair snapshot (LL + plain load + reservation check) — what
    /// the slow path uses to read `{Value, Note}` together.
    #[inline]
    pub fn load2(&self) -> (u64, u64) {
        // BOUND: wait-edge — snapshot retry: re-loops when a store
        // intervened between the value and note reads
        loop {
            let (v, r) = self.ll_value();
            let n = self.load_note_plain();
            if self.seq.load(SeqCst) == r.0 {
                return (v, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ll_sc_basic() {
        let p = LlScPair::new(10, 20);
        let (v, r) = p.ll_value();
        assert_eq!(v, 10);
        assert!(p.sc_value(r, 11));
        assert_eq!(p.load2(), (11, 20));
        // Stale reservation must fail.
        assert!(!p.sc_value(r, 99));
        assert_eq!(p.load2(), (11, 20));
    }

    #[test]
    fn reservation_covers_the_whole_granule() {
        // An SC to Note invalidates a reservation taken for Value — the
        // false-sharing property the paper *relies on* (§4: "only one LL/SC
        // pair succeeds at a time").
        let p = LlScPair::new(1, 2);
        let (_, r_value) = p.ll_value();
        let (n, r_note) = p.ll_note();
        assert_eq!(n, 2);
        assert!(p.sc_note(r_note, 3));
        assert!(
            !p.sc_value(r_value, 9),
            "SC must fail: the granule changed via the Note word"
        );
        assert_eq!(p.load2(), (1, 3));
    }

    #[test]
    fn cas2_value_matches_strong_cas_semantics_on_success() {
        let p = LlScPair::new(5, 6);
        assert!(p.cas2_value((5, 6), 7));
        assert_eq!(p.load2(), (7, 6));
        assert!(!p.cas2_value((5, 6), 8), "stale expected pair");
        assert!(!p.cas2_value((7, 9), 8), "wrong note");
        assert_eq!(p.load2(), (7, 6));
    }

    #[test]
    fn cas2_note_symmetric() {
        let p = LlScPair::new(5, 6);
        assert!(p.cas2_note((5, 6), 60));
        assert_eq!(p.load2(), (5, 60));
        assert!(!p.cas2_note((5, 6), 61));
    }

    #[test]
    fn spurious_failures_are_tolerable_with_retry() {
        // Weak CAS2: a failing SC does not imply the comparison failed.
        // The wCQ slow paths retry on failure, so an every-other-SC-fails
        // machine must still make progress.
        let p = LlScPair::with_policy(0, 0, EveryNth::new(2));
        let mut succeeded = 0;
        for i in 0..100u64 {
            // BOUND: const — the EveryNth(2) spurious-failure policy
            // guarantees success within 2 attempts
            loop {
                let cur = p.load2();
                if p.cas2_value((cur.0, cur.1), i + 1) {
                    succeeded += 1;
                    break;
                }
            }
        }
        assert_eq!(succeeded, 100);
        assert_eq!(p.load2().0, 100);
    }

    #[test]
    fn concurrent_cas2_is_linearizable_per_word() {
        // Value-side writers increment Value via CAS2 (Note must read 42 at
        // every success); one Note-side writer occasionally bumps Note
        // through its own CAS2 and restores it. Readers check that every
        // snapshot is a plausible state: Note ∈ {42, 43} and Value only
        // grows. Exactly-once semantics of each CAS2 is checked by the
        // final counter value.
        let p = Arc::new(LlScPair::new(0, 42));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&p);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last_v = 0;
                    // BOUND: wait-edge — test reader loops until the stop
                    // flag
                    while !stop.load(SeqCst) {
                        let (v, n) = p.load2();
                        assert!(n == 42 || n == 43, "impossible note {n}");
                        assert!(v >= last_v, "value went backwards");
                        last_v = v;
                    }
                })
            })
            .collect();
        const INCS: u64 = 20_000;
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..INCS {
                        // BOUND: wait-edge — test CAS retry until the
                        // increment lands
                        loop {
                            let (v, n) = p.load2();
                            if p.cas2_value((v, n), v + 1) {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        let note_writer = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                for _ in 0..5_000 {
                    // BOUND: wait-edge — test CAS retry flipping the note
                    // word
                    loop {
                        let (v, n) = p.load2();
                        let next = if n == 42 { 43 } else { 42 };
                        if p.cas2_note((v, n), next) {
                            break;
                        }
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        note_writer.join().unwrap();
        stop.store(true, SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        let (v, n) = p.load2();
        assert_eq!(v, 2 * INCS, "every successful CAS2 exactly once");
        assert_eq!(n, 42, "even number of note flips");
    }
}
