//! # dwcas — double-width compare-and-swap substrate
//!
//! The wCQ algorithm (Nikolaev & Ravindran, SPAA '22) requires a double-width
//! CAS (`CAS2` in the paper): an atomic compare-and-swap over two adjacent
//! machine words. On x86-64 this is `lock cmpxchg16b`; on AArch64 it is
//! `casp`/`ldxp+stxp`; PowerPC and MIPS lack it entirely and the paper's §4
//! shows a weak LL/SC substitute.
//!
//! This crate provides [`AtomicPair`], a 16-byte-aligned pair of `u64` words
//! supporting:
//!
//! * `load2` / `compare_exchange2` — full 128-bit atomic load and CAS
//!   (the CAS is weak on the portable backend: see
//!   [`AtomicPair::compare_exchange2`]);
//! * `load_lo` / `fetch_add_lo` / `fetch_or_lo` / `compare_exchange_lo` —
//!   *word-sized* operations on the low half that remain coherent with the
//!   128-bit operations.
//!
//! The mixed-width pattern is essential to wCQ: the fast path executes a plain
//! 64-bit `F&A` on the counter half of the global `{cnt, ptr}` `Head`/`Tail`
//! pairs, while the slow path CAS2-es the whole pair. This is exactly what the
//! authors' C artifact does on x86-64.
//!
//! ## Backends
//!
//! * **`x86_64`** (default on that arch): `core::arch::x86_64::cmpxchg16b`
//!   (stable intrinsic). 128-bit loads are expressed as a `cmpxchg16b` with
//!   `expected == new == 0`, the standard read-via-RMW technique (a no-op
//!   store if the value happens to be zero). Word operations map to native
//!   `lock xadd`/`lock or`/`lock cmpxchg` on the low word; Intel SDM vol. 3A
//!   §9.1.2.2 guarantees that overlapping `lock`-prefixed accesses are
//!   globally serialized and cache-coherent, which is the hardware contract
//!   this crate encapsulates.
//! * **`portable`** (any other arch, or the `force-portable` feature): the
//!   paper's Fig. 9 weak CAS2 over an emulated LL/SC, with a 256-stripe
//!   table of sequence words as the reservation granules. 128-bit loads
//!   are LL plus plain loads plus a re-check; CAS2 is **one** LL/SC
//!   attempt, so it may fail spuriously when another pair on the same
//!   stripe commits; word RMWs retry their LL/SC until it commits; plain
//!   word loads are ordinary atomic loads (single-word load atomicity).
//!   This backend is **not** lock-free; it exists (a) for functional
//!   portability, and (b) as the stand-in for the paper's PowerPC/MIPS
//!   implementation in the Figure 12 reproduction, where native CAS2 and
//!   F&A are unavailable and every RMW pays a reservation round-trip.
//!
//! All operations are sequentially consistent; the paper's pseudo-code
//! assumes an SC memory model and the queue layer relies on it.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU64, Ordering};

mod portable;
#[cfg(all(target_arch = "x86_64", not(feature = "force-portable")))]
mod x86;

#[cfg(all(target_arch = "x86_64", not(feature = "force-portable")))]
use x86 as imp;

#[cfg(not(all(target_arch = "x86_64", not(feature = "force-portable"))))]
use portable as imp;

/// Name of the active backend, for diagnostics and the benchmark harness.
pub const BACKEND: &str = imp::NAME;

/// `true` when the active backend performs true hardware double-width CAS.
///
/// The queue layer uses this to report whether wait-freedom of the slow path
/// is backed by hardware (as on x86-64/AArch64) or merely emulated (as in the
/// PowerPC substitution study).
pub const HARDWARE_CAS2: bool = imp::HARDWARE;

/// A 16-byte aligned pair of `u64` words with double-width atomic operations.
///
/// Word layout: `lo` occupies bytes `[0, 8)`, `hi` bytes `[8, 16)`. On the
/// x86-64 backend the 128-bit value seen by `cmpxchg16b` is
/// `(hi as u128) << 64 | lo as u128` (little-endian).
#[repr(C, align(16))]
pub struct AtomicPair {
    lo: AtomicU64,
    hi: AtomicU64,
}

// ORDERING: backend-independent helpers on the exported SeqCst AtomicPair
// contract
impl AtomicPair {
    /// Creates a pair initialized to `(lo, hi)`.
    #[inline]
    pub const fn new(lo: u64, hi: u64) -> Self {
        Self {
            lo: AtomicU64::new(lo),
            hi: AtomicU64::new(hi),
        }
    }

    /// Atomically loads both words as a consistent snapshot.
    #[inline]
    pub fn load2(&self) -> (u64, u64) {
        imp::load2(self)
    }

    /// Double-width compare-and-swap: if the pair equals `current`, replaces
    /// it with `new` and returns `true`.
    ///
    /// `true` always means the swap happened. `false` is strong only on the
    /// hardware backend: on the portable backend this is the paper's Fig. 9
    /// weak CAS2, which fails spuriously when another pair on the same
    /// stripe commits between its LL and its SC. So a `false` means "reload
    /// and retry", never proof that the pair differs from `current`
    /// (DESIGN.md §3.5 lists what each call site does with it).
    #[inline]
    pub fn compare_exchange2(&self, current: (u64, u64), new: (u64, u64)) -> bool {
        imp::compare_exchange2(self, current, new)
    }

    /// Atomically loads the low word only (single-word atomicity).
    #[inline]
    pub fn load_lo(&self) -> u64 {
        // A plain word load is coherent with locked ops on both backends: on
        // x86 all lock-prefixed writes to the line are globally ordered before
        // or after this load; on the portable backend each SC publishes each
        // word with a SeqCst store.
        self.lo.load(Ordering::SeqCst)
    }

    /// Word-sized fetch-and-add on the low half, coherent with `CAS2`.
    ///
    /// On x86-64 this is a native `lock xadd` (wait-free). On the portable
    /// backend it is an LL/SC retry loop, modelling an ISA without native
    /// F&A (the paper: "wCQ for PowerPC does not benefit from native F&A").
    #[inline]
    pub fn fetch_add_lo(&self, delta: u64) -> u64 {
        imp::fetch_add_lo(self, delta)
    }

    /// Word-sized fetch-or on the low half, coherent with `CAS2`.
    #[inline]
    pub fn fetch_or_lo(&self, bits: u64) -> u64 {
        imp::fetch_or_lo(self, bits)
    }

    /// Word-sized CAS on the low half, coherent with `CAS2`. Returns `true`
    /// on success.
    #[inline]
    pub fn compare_exchange_lo(&self, current: u64, new: u64) -> bool {
        imp::compare_exchange_lo(self, current, new)
    }

    // Only the x86 backend reinterprets the pair as a single u128.
    #[cfg(all(target_arch = "x86_64", not(feature = "force-portable")))]
    #[inline]
    pub(crate) fn as_u128_ptr(&self) -> *mut u128 {
        self as *const Self as *mut u128
    }

    #[inline]
    pub(crate) fn lo_atomic(&self) -> &AtomicU64 {
        &self.lo
    }

    #[inline]
    pub(crate) fn hi_atomic(&self) -> &AtomicU64 {
        &self.hi
    }
}

impl std::fmt::Debug for AtomicPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (lo, hi) = self.load2();
        f.debug_struct("AtomicPair")
            .field("lo", &lo)
            .field("hi", &hi)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Retries a CAS2 until it commits or the pair stops equalling
    /// `current`, as the `compare_exchange2` contract asks of a caller.
    fn cas2_retry(p: &AtomicPair, current: (u64, u64), new: (u64, u64)) -> bool {
        // BOUND: wait-edge — a spurious failure (portable backend) needs a
        // commit on the same stripe by a concurrent test
        loop {
            if p.compare_exchange2(current, new) {
                return true;
            }
            if p.load2() != current {
                return false;
            }
        }
    }

    #[test]
    fn new_and_load() {
        let p = AtomicPair::new(7, 9);
        assert_eq!(p.load2(), (7, 9));
        assert_eq!(p.load_lo(), 7);
    }

    #[test]
    fn cas2_success_and_failure() {
        let p = AtomicPair::new(1, 2);
        assert!(cas2_retry(&p, (1, 2), (3, 4)));
        assert_eq!(p.load2(), (3, 4));
        // Wrong lo.
        assert!(!p.compare_exchange2((1, 4), (9, 9)));
        // Wrong hi.
        assert!(!p.compare_exchange2((3, 2), (9, 9)));
        assert_eq!(p.load2(), (3, 4));
    }

    #[test]
    fn cas2_zero_expected_is_side_effect_free_on_mismatch() {
        // Exercises the load-via-cmpxchg16b trick's edge: value is zero.
        let p = AtomicPair::new(0, 0);
        assert_eq!(p.load2(), (0, 0));
        assert!(cas2_retry(&p, (0, 0), (5, 6)));
        assert_eq!(p.load2(), (5, 6));
    }

    #[test]
    fn word_ops_on_lo() {
        let p = AtomicPair::new(10, 77);
        assert_eq!(p.fetch_add_lo(5), 10);
        assert_eq!(p.load_lo(), 15);
        assert_eq!(p.fetch_or_lo(0x100), 15);
        assert_eq!(p.load_lo(), 0x10f);
        assert!(p.compare_exchange_lo(0x10f, 42));
        assert!(!p.compare_exchange_lo(0x10f, 43));
        assert_eq!(p.load2(), (42, 77)); // hi untouched throughout
    }

    #[test]
    fn fetch_add_wraps() {
        let p = AtomicPair::new(u64::MAX, 0);
        assert_eq!(p.fetch_add_lo(1), u64::MAX);
        assert_eq!(p.load_lo(), 0);
    }

    #[test]
    fn mixed_width_coherence_under_contention() {
        // N adders on the low word race with M CAS2 writers flipping the high
        // word; at the end the low word must equal the exact sum of the
        // increments that were applied through either path.
        const ADDS_PER_THREAD: u64 = 20_000;
        const THREADS: usize = 4;
        let p = Arc::new(AtomicPair::new(0, 0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let p = Arc::clone(&p);
            handles.push(thread::spawn(move || {
                for _ in 0..ADDS_PER_THREAD {
                    p.fetch_add_lo(1);
                }
            }));
        }
        // One CAS2 thread repeatedly increments hi while preserving lo.
        let casser = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                let mut done = 0u64;
                // BOUND: wait-edge — test CAS retry until 10_000 increments
                // land
                while done < 10_000 {
                    let cur = p.load2();
                    if p.compare_exchange2(cur, (cur.0, cur.1 + 1)) {
                        done += 1;
                    }
                }
                done
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let hi_incs = casser.join().unwrap();
        let (lo, hi) = p.load2();
        assert_eq!(lo, ADDS_PER_THREAD * THREADS as u64);
        assert_eq!(hi, hi_incs);
    }

    #[test]
    // ORDERING: workload start/stop flags and progress counters; not on a
    // measured fast path
    fn load2_sees_consistent_snapshots() {
        // A writer CAS2-es from (k, !k) to (k+1, !(k+1)); readers must never
        // observe a pair where hi != !lo.
        let p = Arc::new(AtomicPair::new(0, !0u64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let p = Arc::clone(&p);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    // BOUND: wait-edge — test reader loops until the stop
                    // flag
                    while !stop.load(Ordering::Relaxed) {
                        let (lo, hi) = p.load2();
                        assert_eq!(hi, !lo, "torn 128-bit read: lo={lo} hi={hi}");
                    }
                })
            })
            .collect();
        for k in 0..50_000u64 {
            assert!(cas2_retry(&p, (k, !k), (k + 1, !(k + 1))));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn backend_reports_identity() {
        assert!(!BACKEND.is_empty());
        #[cfg(all(target_arch = "x86_64", not(feature = "force-portable")))]
        assert_eq!(BACKEND, "x86_64-cmpxchg16b");
    }
}
