//! Portable backend: the paper's Fig. 9 weak CAS2, built from an emulated
//! LL/SC over a striped reservation table.
//!
//! This backend serves two purposes:
//!
//! 1. **Functional portability** to ISAs where we have no double-width CAS
//!    codepath.
//! 2. **The PowerPC/MIPS substitution** for the paper's §4 / Figure 12 study.
//!    On those ISAs CAS2 is a weak LL/SC over a reservation granule and F&A
//!    is not native. Here every operation goes through the same LL/SC:
//!    each pair hashes to one of 256 stripes, and the stripe's sequence
//!    word is the reservation granule.
//!
//! The LL/SC (Fig. 9's primitive):
//!
//! * `ll` reads an even sequence `s` — the reservation;
//! * `sc` claims `s → s+1`, writes, then releases `s+2`. The claim fails
//!   if any SC on the stripe committed since the LL, so a reservation
//!   taken before another store can never commit (reservation loss).
//!
//! The operations:
//!
//! * `load2` is LL, plain loads of both words, then a re-check of the
//!   sequence: a consistent snapshot, retried while SCs commit.
//! * `compare_exchange2` makes **one** LL/SC attempt: Fig. 9's weak CAS2.
//!   It fails spuriously when any pair on the same stripe commits between
//!   its LL and its SC, and its comparison reads the two words with
//!   single-word atomicity only, exactly the §4 contract.
//! * `fetch_add_lo`, `fetch_or_lo` and `compare_exchange_lo` retry their
//!   LL/SC until it commits or the comparison fails: strong, as C11 word
//!   atomics are on PowerPC.
//!
//! Not lock-free: an LL waits out an SC that has claimed the stripe but
//! not yet released it, so a thread preempted inside its two word stores
//! stalls the stripe. Hardware LL/SC has no such window; the wCQ paper's
//! wait-freedom claims assume it. This backend is for portability and the
//! substitution study only.
//!
//! ORDERING: portable DWCAS backend: the stripe sequence's claim and
//! release must totally order with every LL's and re-check's read of it
//! (DESIGN.md §3.5)

use crate::AtomicPair;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

#[allow(dead_code)] // referenced only when this module is the active backend
pub(crate) const NAME: &str = "portable-llsc";
#[allow(dead_code)] // referenced only when this module is the active backend
pub(crate) const HARDWARE: bool = false;

const STRIPE_COUNT: usize = 256;

#[repr(align(64))]
struct Stripe {
    /// Even = quiescent; odd = an SC is committing.
    seq: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const STRIPE_INIT: Stripe = Stripe {
    seq: AtomicU64::new(0),
};

static STRIPES: [Stripe; STRIPE_COUNT] = [STRIPE_INIT; STRIPE_COUNT];

#[inline]
fn stripe_for(p: &AtomicPair) -> &'static Stripe {
    // Pairs are 16-byte aligned; fold the address with a Fibonacci multiplier
    // so neighbouring pairs land on different stripes.
    let addr = p as *const AtomicPair as usize;
    let h = (addr >> 4).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    &STRIPES[(h >> 48) & (STRIPE_COUNT - 1)]
}

/// Load-linked: a reservation on `stripe`, an even sequence.
#[inline]
fn ll(stripe: &Stripe) -> u64 {
    // BOUND: wait-edge — waits out a committing SC (two word stores and
    // the release)
    loop {
        let s = stripe.seq.load(SeqCst);
        if s & 1 == 0 {
            return s;
        }
        std::hint::spin_loop();
    }
}

/// Store-conditional: runs `write` and returns `true` iff no SC committed
/// on `stripe` since the `ll` that returned `s`.
#[inline]
fn sc(stripe: &Stripe, s: u64, write: impl FnOnce()) -> bool {
    if stripe
        .seq
        .compare_exchange(s, s + 1, SeqCst, SeqCst)
        .is_err()
    {
        return false;
    }
    write();
    stripe.seq.store(s + 2, SeqCst);
    true
}

/// Fig. 9's first half: LL on `p`'s stripe, then plain loads of both
/// words. The pair is a snapshot only if the reservation still holds.
#[inline]
fn ll2(p: &AtomicPair) -> (u64, (u64, u64)) {
    let s = ll(stripe_for(p));
    (s, (p.lo_atomic().load(SeqCst), p.hi_atomic().load(SeqCst)))
}

/// Fig. 9's second half: compare what `ll2` read, then SC both words.
#[inline]
fn sc2(p: &AtomicPair, s: u64, seen: (u64, u64), current: (u64, u64), new: (u64, u64)) -> bool {
    seen == current
        && sc(stripe_for(p), s, || {
            p.lo_atomic().store(new.0, SeqCst);
            p.hi_atomic().store(new.1, SeqCst);
        })
}

#[inline]
pub(crate) fn load2(p: &AtomicPair) -> (u64, u64) {
    // BOUND: wait-edge — snapshot retry: re-loops only when an SC
    // committed on this stripe between the LL and the re-check
    loop {
        let (s, pair) = ll2(p);
        if stripe_for(p).seq.load(SeqCst) == s {
            return pair;
        }
    }
}

#[inline]
pub(crate) fn compare_exchange2(p: &AtomicPair, current: (u64, u64), new: (u64, u64)) -> bool {
    let (s, seen) = ll2(p);
    sc2(p, s, seen, current, new)
}

/// Retries LL/SC on the low word until it commits `f(lo)`, or `f` declines.
/// Returns the low word the commit (or the refusal) saw.
#[inline]
fn update_lo(p: &AtomicPair, f: impl Fn(u64) -> Option<u64>) -> Result<u64, u64> {
    let stripe = stripe_for(p);
    // BOUND: wait-edge — LL/SC retry: an SC fails only when another SC
    // committed on this stripe, so some operation always progresses
    loop {
        let s = ll(stripe);
        let v = p.lo_atomic().load(SeqCst);
        let new = f(v).ok_or(v)?;
        if sc(stripe, s, || p.lo_atomic().store(new, SeqCst)) {
            return Ok(v);
        }
    }
}

#[inline]
pub(crate) fn fetch_add_lo(p: &AtomicPair, delta: u64) -> u64 {
    let (Ok(v) | Err(v)) = update_lo(p, |v| Some(v.wrapping_add(delta)));
    v
}

#[inline]
pub(crate) fn fetch_or_lo(p: &AtomicPair, bits: u64) -> u64 {
    let (Ok(v) | Err(v)) = update_lo(p, |v| Some(v | bits));
    v
}

#[inline]
pub(crate) fn compare_exchange_lo(p: &AtomicPair, current: u64, new: u64) -> bool {
    update_lo(p, |v| (v == current).then_some(new)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Two pairs from `pool` that share a stripe.
    fn same_stripe(pool: &[AtomicPair]) -> (&AtomicPair, &AtomicPair) {
        let mut first = std::collections::HashMap::new();
        for p in pool {
            let key = stripe_for(p) as *const Stripe as usize;
            if let Some(q) = first.insert(key, p) {
                return (q, p);
            }
        }
        unreachable!("{} pairs over {STRIPE_COUNT} stripes", pool.len())
    }

    /// Retries a CAS2 until it commits or the pair stops equalling
    /// `current`: other tests share the stripe table, so even a lone
    /// thread's CAS2 may fail spuriously.
    fn cas2_retry(p: &AtomicPair, current: (u64, u64), new: (u64, u64)) -> bool {
        // BOUND: wait-edge — a spurious failure needs an SC on this
        // stripe; retries while other tests commit there
        loop {
            if compare_exchange2(p, current, new) {
                return true;
            }
            if load2(p) != current {
                return false;
            }
        }
    }

    #[test]
    fn portable_ops_direct() {
        // Exercise this module even when the x86 backend is active.
        let p = AtomicPair::new(3, 4);
        assert_eq!(load2(&p), (3, 4));
        assert!(cas2_retry(&p, (3, 4), (5, 6)));
        assert!(!compare_exchange2(&p, (3, 4), (7, 8)));
        assert_eq!(fetch_add_lo(&p, 2), 5);
        assert_eq!(fetch_or_lo(&p, 0x10), 7);
        assert!(compare_exchange_lo(&p, 0x17, 1));
        assert!(!compare_exchange_lo(&p, 0x17, 2));
        assert_eq!(load2(&p), (1, 6));
    }

    #[test]
    fn ll_sc_basic() {
        let p = AtomicPair::new(10, 20);
        let stripe = stripe_for(&p);
        // BOUND: wait-edge — a commit by a concurrent test on this stripe
        // takes the reservation; take a fresh one
        let s = loop {
            let s = ll(stripe);
            if sc(stripe, s, || p.lo_atomic().store(11, SeqCst)) {
                break s;
            }
        };
        assert_eq!(load2(&p), (11, 20));
        // The commit released s + 2: the used reservation is stale.
        assert!(!sc(stripe, s, || p.lo_atomic().store(99, SeqCst)));
        assert_eq!(load2(&p), (11, 20));
    }

    #[test]
    fn reservation_covers_the_whole_stripe() {
        // A commit to the note word breaks a reservation taken for the
        // value word: the stripe, not the word, is the granule (§4: "only
        // one LL/SC pair succeeds at a time").
        let p = AtomicPair::new(1, 2);
        let stripe = stripe_for(&p);
        // BOUND: wait-edge — a commit by a concurrent test on this stripe
        // takes both reservations; take fresh ones
        let s_value = loop {
            let s_value = ll(stripe);
            let s_note = ll(stripe);
            if sc(stripe, s_note, || p.hi_atomic().store(3, SeqCst)) {
                break s_value;
            }
        };
        assert!(
            !sc(stripe, s_value, || p.lo_atomic().store(9, SeqCst)),
            "SC must fail: the stripe changed via the note word"
        );
        assert_eq!(load2(&p), (1, 3));
    }

    #[test]
    fn same_stripe_commit_fails_cas2_spuriously() {
        let pool: Vec<AtomicPair> = (0..=STRIPE_COUNT as u64)
            .map(|i| AtomicPair::new(i, 0))
            .collect();
        let (a, b) = same_stripe(&pool);
        let current = load2(a);
        let new = (current.0 + 1000, 1);
        // A's CAS2, split at Fig. 9's LL: B commits in between.
        let (s, seen) = ll2(a);
        assert_eq!(seen, current);
        assert!(cas2_retry(b, load2(b), (7, 7)));
        assert!(
            !sc2(a, s, seen, current, new),
            "a commit to another pair on the stripe must fail A's SC"
        );
        assert_eq!(load2(a), current, "a spurious failure writes nothing");
        assert!(cas2_retry(a, current, new), "the retry commits");
        assert_eq!(load2(a), new);
    }

    #[test]
    fn cas2_value_verifies_both_words() {
        // Fig. 9's CAS2_Value: writes the value word, verifies both.
        let p = AtomicPair::new(5, 6);
        assert!(cas2_retry(&p, (5, 6), (7, 6)));
        assert_eq!(load2(&p), (7, 6));
        assert!(
            !compare_exchange2(&p, (5, 6), (8, 6)),
            "stale expected pair"
        );
        assert!(!compare_exchange2(&p, (7, 9), (8, 9)), "wrong note");
        assert_eq!(load2(&p), (7, 6));
    }

    #[test]
    fn cas2_note_verifies_both_words() {
        // Fig. 9's CAS2_Note: writes the note word, verifies both.
        let p = AtomicPair::new(5, 6);
        assert!(cas2_retry(&p, (5, 6), (5, 60)));
        assert_eq!(load2(&p), (5, 60));
        assert!(!compare_exchange2(&p, (5, 6), (5, 61)), "stale note");
        assert!(!compare_exchange2(&p, (4, 60), (4, 61)), "wrong value");
        assert_eq!(load2(&p), (5, 60));
    }

    #[test]
    fn concurrent_cas2_is_linearizable_per_word() {
        // Value-side writers increment Value via CAS2 (Note must read 42 at
        // every success); one Note-side writer occasionally bumps Note
        // through its own CAS2 and restores it. Readers check that every
        // snapshot is a plausible state: Note ∈ {42, 43} and Value only
        // grows. Exactly-once semantics of each CAS2 is checked by the
        // final counter value.
        let p = Arc::new(AtomicPair::new(0, 42));
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
                        let (v, n) = load2(&p);
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
                            let (v, n) = load2(&p);
                            if compare_exchange2(&p, (v, n), (v + 1, n)) {
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
                        let (v, n) = load2(&p);
                        let next = if n == 42 { 43 } else { 42 };
                        if compare_exchange2(&p, (v, n), (v, next)) {
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
        let (v, n) = load2(&p);
        assert_eq!(v, 2 * INCS, "every successful CAS2 exactly once");
        assert_eq!(n, 42, "even number of note flips");
    }

    #[test]
    fn stripes_distribute() {
        // Neighbouring pairs should not all collapse onto one stripe.
        let pairs: Vec<AtomicPair> = (0..64).map(|i| AtomicPair::new(i, 0)).collect();
        let mut seen = std::collections::HashSet::new();
        for p in &pairs {
            seen.insert(stripe_for(p) as *const Stripe as usize);
        }
        assert!(seen.len() > 8, "stripe hash degenerated: {}", seen.len());
    }

    #[test]
    fn portable_concurrent_counter() {
        let p = Arc::new(AtomicPair::new(0, 0));
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        fetch_add_lo(&p, 1);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(load2(&p).0, 40_000);
    }
}
