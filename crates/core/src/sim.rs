//! Sync-primitive seam: `std` (and raw [`dwcas`]) in production builds,
//! the `shuttle-lite` cooperative-scheduler shims under `--cfg wcq_dst`.
//!
//! Every atomic-using module in this crate imports its atomics, fences,
//! parking, and blocking primitives from here instead of `std`, so the
//! deterministic-schedule tests (`tests/dst/`) can explore interleavings
//! at atomic-access granularity while regular builds compile to exactly
//! the `std` types (the re-exports are zero-cost). `Ordering` is always
//! `std::sync::atomic::Ordering` — the shims accept it unchanged.
//!
//! Outside an active exploration the shims pass straight through to
//! `std`, which is how the ordinary test suite still runs under
//! `--cfg wcq_dst`. See `DESIGN.md` §12.

#[cfg(not(wcq_dst))]
mod imp {
    pub use dwcas::AtomicPair;
    pub use std::hint::spin_loop;
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize,
    };
    pub use std::sync::Mutex;
    pub use std::thread::{current, park, park_timeout, yield_now, Thread};

    /// Production data cell: a zero-cost `UnsafeCell` wrapper sharing the
    /// shim's API, so slot/entry buffers write through one seam. Under
    /// `--cfg wcq_dst` this is shuttle-lite's *tracked* cell, whose
    /// happens-before clocks turn weak explorations into a data-race
    /// detector for these plain accesses.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct DataCell<T>(std::cell::UnsafeCell<T>);

    impl<T> DataCell<T> {
        #[inline]
        pub const fn new(t: T) -> Self {
            Self(std::cell::UnsafeCell::new(t))
        }
        /// Shared access. Caller guarantees no concurrent `&mut` alias —
        /// identical contract to `UnsafeCell::get`.
        #[allow(dead_code)] // mirrors the tracked shim's API
        #[inline]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }
        /// Exclusive access. Caller guarantees exclusivity.
        #[inline]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
        /// Raw pointer, untracked under DST — reserve for ownership-proven
        /// paths (drop glue, `&mut`-derived access).
        #[inline]
        pub fn get(&self) -> *mut T {
            self.0.get()
        }
        #[allow(dead_code)] // mirrors the tracked shim's API
        #[inline]
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut()
        }
        #[allow(dead_code)] // mirrors the tracked shim's API
        #[inline]
        pub fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }
}

#[cfg(wcq_dst)]
mod imp {
    pub use shuttle_lite::atomic::{
        fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize,
    };
    pub type DataCell<T> = shuttle_lite::cell::UnsafeCell<T>;
    pub use shuttle_lite::hint::spin_loop;
    pub use shuttle_lite::sync::Mutex;
    pub use shuttle_lite::thread::{current, park, park_timeout, yield_now, Thread};

    use std::sync::atomic::Ordering;

    /// [`dwcas::AtomicPair`] with a scheduling point before every access,
    /// so the explorer interleaves around DWCAS operations exactly as it
    /// does around single-word atomics. Lives here rather than in
    /// shuttle-lite to keep the vendored crate zero-dependency.
    ///
    /// Under the weak model the pair is one 128-bit location
    /// (`hi << 64 | lo`) routed through a [`shuttle_lite::WeakLoc`] with
    /// `SeqCst` semantics — DWCAS instructions (`cmpxchg16b`, LL/SC pairs)
    /// are full barriers on every supported target, and the entry-array
    /// publication edges the queues rely on flow through these operations.
    /// Stored values are mirrored into the real pair so teardown drains
    /// and pass-through reads stay truthful.
    #[derive(Debug)]
    pub struct AtomicPair {
        real: dwcas::AtomicPair,
        weak: shuttle_lite::WeakLoc,
    }

    #[inline]
    fn pack(lo: u64, hi: u64) -> u128 {
        ((hi as u128) << 64) | lo as u128
    }

    #[inline]
    fn unpack(v: u128) -> (u64, u64) {
        (v as u64, (v >> 64) as u64)
    }

    // ORDERING: DST seam: DWCAS modeled as one SeqCst 128-bit weak location
    // (cmpxchg16b/LL-SC pairs are full barriers on all supported targets) —
    // cover: all dst models (wcq_dst builds)
    impl AtomicPair {
        pub const fn new(lo: u64, hi: u64) -> Self {
            Self {
                real: dwcas::AtomicPair::new(lo, hi),
                weak: shuttle_lite::WeakLoc::new(),
            }
        }
        /// Primordial value for weak-location registration: the mirrored
        /// real pair.
        #[inline]
        fn init(&self) -> u128 {
            let (lo, hi) = self.real.load2();
            pack(lo, hi)
        }
        /// Mirrors a weakly-stored value into the real pair (baton held:
        /// the CAS loop cannot actually contend).
        #[inline]
        fn mirror(&self, v: u128) {
            let new = unpack(v);
            // BOUND: wait-edge — DST mirror CAS: retries until the mirror
            // matches the shadow word; a failure means another mirror write
            // landed first or, on the portable backend, an SC on the same
            // stripe committed (a weak CAS2's spurious failure)
            loop {
                let cur = self.real.load2();
                if cur == new || self.real.compare_exchange2(cur, new) {
                    return;
                }
            }
        }
        #[inline]
        pub fn load2(&self) -> (u64, u64) {
            shuttle_lite::step();
            if let Some(v) = self.weak.load(Ordering::SeqCst, || self.init()) {
                return unpack(v);
            }
            self.real.load2()
        }
        #[inline]
        pub fn compare_exchange2(&self, current: (u64, u64), new: (u64, u64)) -> bool {
            shuttle_lite::step();
            let cur = pack(current.0, current.1);
            let newv = pack(new.0, new.1);
            if let Some((_, stored)) =
                self.weak
                    .rmw(Ordering::SeqCst, Ordering::SeqCst, || self.init(), &mut |x| {
                        if x == cur {
                            Some(newv)
                        } else {
                            None
                        }
                    })
            {
                if stored {
                    self.mirror(newv);
                }
                return stored;
            }
            self.real.compare_exchange2(current, new)
        }
        #[inline]
        pub fn load_lo(&self) -> u64 {
            shuttle_lite::step();
            if let Some(v) = self.weak.load(Ordering::SeqCst, || self.init()) {
                return v as u64;
            }
            self.real.load_lo()
        }
        #[inline]
        pub fn fetch_add_lo(&self, delta: u64) -> u64 {
            shuttle_lite::step();
            let mut stored = 0u128;
            if let Some((old, _)) =
                self.weak
                    .rmw(Ordering::SeqCst, Ordering::SeqCst, || self.init(), &mut |x| {
                        let (lo, hi) = unpack(x);
                        stored = pack(lo.wrapping_add(delta), hi);
                        Some(stored)
                    })
            {
                self.mirror(stored);
                return old as u64;
            }
            self.real.fetch_add_lo(delta)
        }
        #[inline]
        pub fn fetch_or_lo(&self, bits: u64) -> u64 {
            shuttle_lite::step();
            let mut stored = 0u128;
            if let Some((old, _)) =
                self.weak
                    .rmw(Ordering::SeqCst, Ordering::SeqCst, || self.init(), &mut |x| {
                        let (lo, hi) = unpack(x);
                        stored = pack(lo | bits, hi);
                        Some(stored)
                    })
            {
                self.mirror(stored);
                return old as u64;
            }
            self.real.fetch_or_lo(bits)
        }
        #[inline]
        pub fn compare_exchange_lo(&self, current: u64, new: u64) -> bool {
            shuttle_lite::step();
            let mut stored = 0u128;
            if let Some((_, ok)) =
                self.weak
                    .rmw(Ordering::SeqCst, Ordering::SeqCst, || self.init(), &mut |x| {
                        let (lo, hi) = unpack(x);
                        if lo == current {
                            stored = pack(new, hi);
                            Some(stored)
                        } else {
                            None
                        }
                    })
            {
                if ok {
                    self.mirror(stored);
                }
                return ok;
            }
            self.real.compare_exchange_lo(current, new)
        }
    }
}

pub(crate) use imp::*;
