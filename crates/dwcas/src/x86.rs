//! x86-64 backend: `lock cmpxchg16b` via inline assembly, with native
//! word-sized RMWs on the low half.
//!
//! We use inline asm rather than the `core::arch::x86_64::cmpxchg16b`
//! intrinsic because the intrinsic degrades to an (unavailable)
//! `__atomic_compare_exchange_16` libcall when the crate is built without
//! `-C target-feature=+cmpxchg16b`; the asm form emits the instruction
//! directly. `rbx` is reserved by LLVM, hence the standard `xchg` shuffle
//! around the instruction.
//!
//! `cmpxchg16b` is not part of the base x86-64 target (pre-2006 CPUs lack
//! it), so we detect the feature once at runtime and, in the practically
//! nonexistent case it is absent, route every operation through the portable
//! LL/SC backend so mixed-width coherence is preserved (its CAS2 is then
//! weak, as the `compare_exchange2` contract allows).
//!
//! ORDERING: cmpxchg16b backend: the instruction is a full barrier; SeqCst
//! documents the exported contract

use crate::AtomicPair;
use std::sync::atomic::{AtomicU8, Ordering};

pub(crate) const NAME: &str = "x86_64-cmpxchg16b";
pub(crate) const HARDWARE: bool = true;

/// Feature-detection state: 0 = unknown, 1 = yes, 2 = no. Benign race:
/// detection is idempotent.
#[cfg(not(target_feature = "cmpxchg16b"))]
static CX16: AtomicU8 = AtomicU8::new(0);

#[inline]
fn cx16_available() -> bool {
    #[cfg(target_feature = "cmpxchg16b")]
    {
        true
    }
    #[cfg(not(target_feature = "cmpxchg16b"))]
    {
        match CX16.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => detect_cx16(),
        }
    }
}

/// The first call's CPUID probe, out of line so each operation inlines
/// only the cached check.
#[cfg(not(target_feature = "cmpxchg16b"))]
#[cold]
#[inline(never)]
fn detect_cx16() -> bool {
    let ok = std::arch::is_x86_feature_detected!("cmpxchg16b");
    CX16.store(if ok { 1 } else { 2 }, Ordering::Relaxed);
    ok
}

/// The portable LL/SC backend for a CPU without `cmpxchg16b`, one out-of-line
/// call per operation: each operation below inlines to the cached feature
/// check and its one `lock` instruction, with no fallback code beside it.
mod fallback {
    use crate::{portable, AtomicPair};

    #[cold]
    #[inline(never)]
    pub(super) fn load2(p: &AtomicPair) -> (u64, u64) {
        portable::load2(p)
    }

    #[cold]
    #[inline(never)]
    pub(super) fn compare_exchange2(p: &AtomicPair, current: (u64, u64), new: (u64, u64)) -> bool {
        portable::compare_exchange2(p, current, new)
    }

    #[cold]
    #[inline(never)]
    pub(super) fn fetch_add_lo(p: &AtomicPair, delta: u64) -> u64 {
        portable::fetch_add_lo(p, delta)
    }

    #[cold]
    #[inline(never)]
    pub(super) fn fetch_or_lo(p: &AtomicPair, bits: u64) -> u64 {
        portable::fetch_or_lo(p, bits)
    }

    #[cold]
    #[inline(never)]
    pub(super) fn compare_exchange_lo(p: &AtomicPair, current: u64, new: u64) -> bool {
        portable::compare_exchange_lo(p, current, new)
    }
}

/// Raw `lock cmpxchg16b`. Returns `(previous_lo, previous_hi, swapped)`.
///
/// # Safety
/// `dst` must be valid for reads and writes and 16-byte aligned, and the CPU
/// must support `cmpxchg16b` (checked by callers via [`cx16_available`]).
#[inline]
unsafe fn cas16(
    dst: *mut u128,
    old_lo: u64,
    old_hi: u64,
    new_lo: u64,
    new_hi: u64,
) -> (u64, u64, bool) {
    let out_lo: u64;
    let out_hi: u64;
    // SAFETY: caller contract; `lock cmpxchg16b` is a full barrier (SeqCst).
    //
    // No `sete` flag extraction: a byte-register operand could be allocated
    // to al/cl/dl and silently clobber the explicit rax/rcx/rdx operands.
    // Success is instead derived from the returned previous value, which
    // equals the expected value iff the swap happened (rdx:rax is loaded
    // with the current value on failure).
    unsafe {
        core::arch::asm!(
            // rbx must carry new_lo across the instruction, but Rust inline
            // asm cannot name rbx directly; stash the caller's rbx in a
            // scratch register. The destination pointer is pinned to rdi —
            // a generic `reg` operand could be allocated rbx itself, which
            // the xchg would corrupt before the dereference (observed with
            // rustc 1.95 at opt-level 3).
            "xchg {nbx}, rbx",
            "lock cmpxchg16b [rdi]",
            "mov rbx, {nbx}",
            in("rdi") dst,
            nbx = inout(reg) new_lo => _,
            in("rcx") new_hi,
            inout("rax") old_lo => out_lo,
            inout("rdx") old_hi => out_hi,
            options(nostack),
        );
    }
    (out_lo, out_hi, out_lo == old_lo && out_hi == old_hi)
}

#[inline]
pub(crate) fn load2(p: &AtomicPair) -> (u64, u64) {
    if cx16_available() {
        // Read-via-RMW: if the current value happens to equal the expected
        // (0, 0), cmpxchg16b stores (0, 0) back — semantically a no-op.
        // SAFETY: feature checked; `AtomicPair` is 16-byte aligned by repr.
        let (lo, hi, _) = unsafe { cas16(p.as_u128_ptr(), 0, 0, 0, 0) };
        (lo, hi)
    } else {
        fallback::load2(p)
    }
}

#[inline]
pub(crate) fn compare_exchange2(p: &AtomicPair, current: (u64, u64), new: (u64, u64)) -> bool {
    if cx16_available() {
        // SAFETY: feature checked; alignment by repr.
        let (_, _, ok) = unsafe { cas16(p.as_u128_ptr(), current.0, current.1, new.0, new.1) };
        ok
    } else {
        fallback::compare_exchange2(p, current, new)
    }
}

#[inline]
pub(crate) fn fetch_add_lo(p: &AtomicPair, delta: u64) -> u64 {
    if cx16_available() {
        p.lo_atomic().fetch_add(delta, Ordering::SeqCst)
    } else {
        fallback::fetch_add_lo(p, delta)
    }
}

#[inline]
pub(crate) fn fetch_or_lo(p: &AtomicPair, bits: u64) -> u64 {
    if cx16_available() {
        p.lo_atomic().fetch_or(bits, Ordering::SeqCst)
    } else {
        fallback::fetch_or_lo(p, bits)
    }
}

#[inline]
pub(crate) fn compare_exchange_lo(p: &AtomicPair, current: u64, new: u64) -> bool {
    if cx16_available() {
        p.lo_atomic()
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    } else {
        fallback::compare_exchange_lo(p, current, new)
    }
}
