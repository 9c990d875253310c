//! Counting global allocator for the Fig. 10a memory census.
//!
//! The paper measures how much memory each queue design consumes as thread
//! count grows (LCRQ's closed rings and YMC's pinned segments balloon; SCQ
//! and wCQ stay flat at the ring size). We reproduce the census with an
//! allocator wrapper that tracks live bytes and a resettable high-water
//! mark.
//!
//! Only the `figure10` binary opts in, with:
//!
//! ```ignore
//! #[global_allocator]
//! static A: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc;
//! ```
//!
//! The global allocator is fixed per binary, and the counter costs two
//! shared atomic RMWs per allocation, which slows the baselines that
//! allocate on every operation (MSQueue, CRTurn). So the throughput-only
//! figures (`figures 11`, `figures 12`, …) run on the system allocator in
//! a binary of their own.
//!
//! ORDERING: `LIVE` (a running sum) and `PEAK` (a max, monotone between
//! resets) are independent counters — every site is a `Relaxed` RMW or
//! load of one variable, whose modification order alone makes the sum
//! exact and the max monotone; no reader infers one variable's value from
//! the other's, so there is no cross-variable invariant for a stronger
//! ordering to protect

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A `GlobalAlloc` wrapper around [`System`] that tracks live and peak
/// bytes.
pub struct CountingAlloc;

#[inline]
fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    // Lock-free max update.
    let mut peak = PEAK.load(Relaxed);
    // BOUND: threshold — monotone max update: every CAS failure raises the
    // observed peak, so the gap live-peak strictly shrinks to zero
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Relaxed, Relaxed) {
            Ok(_) => break,
            Err(cur) => peak = cur,
        }
    }
}

// SAFETY: delegates to `System` for all allocation; bookkeeping is atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    // SAFETY (to call): the `GlobalAlloc::dealloc` contract — `ptr` came
    // from this allocator with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    // SAFETY (to call): the `GlobalAlloc::realloc` contract — `ptr` came
    // from this allocator with this `layout`, `new_size` is nonzero.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Currently live heap bytes (as seen by this allocator).
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// High-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Resets the high-water mark to the current live volume.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    // Note: the test binary does NOT install CountingAlloc as the global
    // allocator (that would perturb every other test); we exercise the
    // bookkeeping functions directly.
    use super::*;

    #[test]
    fn peak_tracks_max() {
        reset_peak();
        let base = live_bytes();
        note_alloc(1000);
        assert!(peak_bytes() >= base + 1000);
        LIVE.fetch_sub(1000, Relaxed);
        let p = peak_bytes();
        reset_peak();
        assert!(peak_bytes() <= p);
    }
}
