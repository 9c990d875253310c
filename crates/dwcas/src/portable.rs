//! Portable backend: a striped sequence-lock table.
//!
//! This backend serves two purposes:
//!
//! 1. **Functional portability** to ISAs where we have no double-width CAS
//!    codepath.
//! 2. **The PowerPC/MIPS substitution** for the paper's §4 / Figure 12 study.
//!    On those ISAs, CAS2 is emulated with weak LL/SC over a reservation
//!    granule and F&A is not native. Here, every write-side operation pays a
//!    lock-style round-trip on a shared stripe word — the same *cost model*
//!    (reservation acquisition per RMW, possible interference from unrelated
//!    addresses sharing a granule/stripe) with strictly *stronger* semantics
//!    (our CAS2 never fails spuriously, which the queue tolerates trivially).
//!
//! Concurrency contract (mirrors the paper's Fig. 9 requirements):
//!
//! * 128-bit CAS and word RMWs are mutually atomic (they serialize on the
//!   stripe lock).
//! * 128-bit loads are optimistic seqlock reads — they observe a consistent
//!   pair snapshot and never block writers.
//! * Plain word loads (`load_lo`/`load_hi`) have single-word atomicity only,
//!   exactly the guarantee the paper's LL/SC substitute gives when a CAS2
//!   fails.
//!
//! Not lock-free: a writer preempted inside a stripe stalls other writers on
//! the same stripe. The wCQ paper's wait-freedom claims assume hardware CAS2
//! or LL/SC; this backend is for portability and the substitution study only.
//!
//! ORDERING: portable DWCAS backend: striped seqlock's writer lock and
//! version bumps must totally order with reader re-validation (DESIGN.md
//! §3.5)

use crate::AtomicPair;
use std::sync::atomic::{AtomicU64, Ordering};

#[allow(dead_code)] // referenced only when this module is the active backend
pub(crate) const NAME: &str = "portable-seqlock";
#[allow(dead_code)] // referenced only when this module is the active backend
pub(crate) const HARDWARE: bool = false;

const STRIPE_COUNT: usize = 256;

#[repr(align(64))]
struct Stripe {
    /// Even = unlocked; odd = a writer holds the stripe.
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

struct Guard {
    stripe: &'static Stripe,
    locked_seq: u64,
}

#[inline]
fn lock(stripe: &'static Stripe) -> Guard {
    // BOUND: wait-edge — stripe lock spin: waits out the holder's critical
    // section (two word stores plus seq bumps)
    loop {
        let v = stripe.seq.load(Ordering::Relaxed);
        if v & 1 == 0
            && stripe
                .seq
                .compare_exchange_weak(v, v + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
        {
            return Guard {
                stripe,
                locked_seq: v + 1,
            };
        }
        std::hint::spin_loop();
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        self.stripe
            .seq
            .store(self.locked_seq + 1, Ordering::SeqCst);
    }
}

#[inline]
pub(crate) fn load2(p: &AtomicPair) -> (u64, u64) {
    let stripe = stripe_for(p);
    // BOUND: wait-edge — seqlock read retry while a writer is mid-update on
    // this stripe
    loop {
        let s1 = stripe.seq.load(Ordering::SeqCst);
        if s1 & 1 == 0 {
            let lo = p.lo_atomic().load(Ordering::SeqCst);
            let hi = p.hi_atomic().load(Ordering::SeqCst);
            if stripe.seq.load(Ordering::SeqCst) == s1 {
                return (lo, hi);
            }
        }
        std::hint::spin_loop();
    }
}

#[inline]
pub(crate) fn compare_exchange2(p: &AtomicPair, current: (u64, u64), new: (u64, u64)) -> bool {
    let _g = lock(stripe_for(p));
    let lo = p.lo_atomic().load(Ordering::SeqCst);
    let hi = p.hi_atomic().load(Ordering::SeqCst);
    if (lo, hi) != current {
        return false;
    }
    p.lo_atomic().store(new.0, Ordering::SeqCst);
    p.hi_atomic().store(new.1, Ordering::SeqCst);
    true
}

#[inline]
pub(crate) fn fetch_add_lo(p: &AtomicPair, delta: u64) -> u64 {
    let _g = lock(stripe_for(p));
    let v = p.lo_atomic().load(Ordering::SeqCst);
    p.lo_atomic().store(v.wrapping_add(delta), Ordering::SeqCst);
    v
}

#[inline]
pub(crate) fn fetch_or_lo(p: &AtomicPair, bits: u64) -> u64 {
    let _g = lock(stripe_for(p));
    let v = p.lo_atomic().load(Ordering::SeqCst);
    p.lo_atomic().store(v | bits, Ordering::SeqCst);
    v
}

#[inline]
pub(crate) fn compare_exchange_lo(p: &AtomicPair, current: u64, new: u64) -> bool {
    let _g = lock(stripe_for(p));
    let v = p.lo_atomic().load(Ordering::SeqCst);
    if v != current {
        return false;
    }
    p.lo_atomic().store(new, Ordering::SeqCst);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_ops_direct() {
        // Exercise this module even when the x86 backend is active.
        let p = AtomicPair::new(3, 4);
        assert_eq!(load2(&p), (3, 4));
        assert!(compare_exchange2(&p, (3, 4), (5, 6)));
        assert!(!compare_exchange2(&p, (3, 4), (7, 8)));
        assert_eq!(fetch_add_lo(&p, 2), 5);
        assert_eq!(fetch_or_lo(&p, 0x10), 7);
        assert!(compare_exchange_lo(&p, 0x17, 1));
        assert_eq!(load2(&p), (1, 6));
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
        use std::sync::Arc;
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
