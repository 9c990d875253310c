//! # hazard — hazard-pointer safe memory reclamation
//!
//! A small, self-contained hazard-pointer (HP) implementation in the style
//! of Michael (2004), used by the linked-list baseline queues of the wCQ
//! evaluation (MSQueue, LCRQ, CRTurn) and by the unbounded list-of-rings
//! queues. The paper's evaluation uses "hazard pointers elsewhere" for
//! exactly these queues (§6).
//!
//! Design:
//! * A [`Domain`] owns `max_threads × HP_PER_THREAD` hazard slots.
//! * Each participating thread acquires a [`HpHandle`]; protecting a pointer
//!   publishes it in one of the thread's slots, retiring pushes it on a
//!   thread-local list that is scanned (and freed) once it grows past a
//!   threshold.
//! * Dropping a handle hands any still-protected retirees to the domain's
//!   orphan list; they are freed by later scans or when the domain drops.
//!
//! All pointer reclamation is `unsafe` at the retire site (the caller
//! asserts the pointer is unlinked); everything else is safe.
//!
//! ORDERING: hazard-pointer protect/validate handshake: the protect store
//! must order before the re-validation load (classic SeqCst HP; ROADMAP
//! `SeqCst` shave-down backlog)

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

use std::collections::HashSet;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};

// Same seam as `wcq::sim`: production builds use `std`; `--cfg wcq_dst`
// routes every atomic and the orphan-list mutex through the shuttle-lite
// scheduler shims so the validate-after-publish protocol is explorable
// (and so a simulated thread never blocks on an OS mutex the scheduler
// cannot see). `AtomicPtr` appears in the public `protect` signature, so
// callers compiled under the same cfg see the same type.
#[cfg(not(wcq_dst))]
use std::sync::{
    atomic::{AtomicBool, AtomicPtr, AtomicUsize},
    Mutex,
};
#[cfg(wcq_dst)]
use shuttle_lite::{
    atomic::{AtomicBool, AtomicPtr, AtomicUsize},
    sync::Mutex,
};

/// Hazard slots per thread. MSQueue needs 2, LCRQ 2, CRTurn 3; 4 gives
/// headroom for composed structures.
pub const HP_PER_THREAD: usize = 4;

#[repr(align(128))]
struct Slot {
    active: AtomicBool,
    hp: [AtomicUsize; HP_PER_THREAD],
}

struct Retired {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: a retired pointer is unlinked (caller contract) and owned by the
// retire list; moving it across threads is sound. Shared references are
// sound too (`Sync`): `&Retired` only permits reading the pointer *value*
// — all dereferencing and freeing goes through owning (`&mut`/by-value)
// paths. Without `Sync`, every structure embedding an `HpHandle` (the
// owned unbounded handles, the channel endpoints) would be `!Sync` for no
// reason.
unsafe impl Send for Retired {}
// SAFETY: see the shared argument above — `&Retired` exposes no way
// to dereference or free.
unsafe impl Sync for Retired {}

/// A reclamation domain: a fixed set of hazard slots plus an orphan list.
pub struct Domain {
    slots: Box<[Slot]>,
    orphans: Mutex<Vec<Retired>>,
    /// Free-threshold: scan when a thread's retire list exceeds this.
    scan_threshold: usize,
}

impl Domain {
    /// Creates a domain for up to `max_threads` concurrent handles, with
    /// the default scan threshold (`2 × slots`, floored at 64 — tuned for
    /// small per-node allocations like list links).
    pub fn new(max_threads: usize) -> Self {
        Self::with_scan_threshold(max_threads, (2 * max_threads * HP_PER_THREAD).max(64))
    }

    /// Creates a domain with an explicit scan threshold: each thread's
    /// retire list is scanned (and unprotected retirees freed) once it
    /// exceeds `scan_threshold` entries. Structures whose retirees are
    /// large (e.g. whole rings) want a low threshold — the un-reclaimed
    /// backlog is bounded by `threads × scan_threshold` retirees.
    pub fn with_scan_threshold(max_threads: usize, scan_threshold: usize) -> Self {
        assert!(max_threads >= 1);
        assert!(scan_threshold >= 1);
        let slots = (0..max_threads)
            .map(|_| Slot {
                active: AtomicBool::new(false),
                hp: Default::default(),
            })
            .collect::<Box<[Slot]>>();
        Domain {
            scan_threshold,
            slots,
            orphans: Mutex::new(Vec::new()),
        }
    }

    /// Acquires a per-thread handle, or `None` if all slots are taken.
    ///
    /// Occupied slots are skipped with a plain load and the claiming CAS
    /// uses a `Relaxed` failure ordering, so registration churn (handles
    /// acquired and dropped per work item) does not hammer SeqCst
    /// read-modify-writes on every occupied slot.
    pub fn register(&self) -> Option<HpHandle<'_>> {
        for (idx, s) in self.slots.iter().enumerate() {
            if s.active.load(Relaxed) {
                continue; // occupied: don't even attempt the CAS
            }
            if s.active
                .compare_exchange(false, true, SeqCst, Relaxed)
                .is_ok()
            {
                return Some(HpHandle {
                    domain: self,
                    idx,
                    retired: Vec::new(),
                });
            }
        }
        None
    }

    /// Collects every currently published hazard pointer.
    fn collect_hazards(&self) -> HashSet<usize> {
        let mut set = HashSet::new();
        for s in self.slots.iter() {
            for hp in &s.hp {
                let p = hp.load(SeqCst);
                if p != 0 {
                    set.insert(p);
                }
            }
        }
        set
    }

    fn scan_list(&self, list: &mut Vec<Retired>) {
        // Also adopt orphans so nothing is stranded by departed threads.
        if let Ok(mut orphans) = self.orphans.try_lock() {
            list.append(&mut *orphans);
        }
        let hazards = self.collect_hazards();
        let mut keep = Vec::with_capacity(list.len());
        for r in list.drain(..) {
            if hazards.contains(&(r.ptr as usize)) {
                keep.push(r);
            } else {
                // SAFETY: unlinked (retire contract) and unprotected now.
                unsafe { (r.drop_fn)(r.ptr) };
            }
        }
        *list = keep;
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // No handles can be alive (they borrow the domain), so every orphan
        // is reclaimable.
        let orphans = std::mem::take(&mut *self.orphans.lock().unwrap());
        for r in orphans {
            // SAFETY: no readers remain.
            unsafe { (r.drop_fn)(r.ptr) };
        }
    }
}

/// Per-thread hazard-pointer handle.
pub struct HpHandle<'d> {
    domain: &'d Domain,
    idx: usize,
    retired: Vec<Retired>,
}

impl<'d> HpHandle<'d> {
    /// Protects the pointer currently stored in `src` under hazard slot
    /// `slot`, re-validating until the published hazard matches the source
    /// (the standard protect loop). Returns the protected raw pointer.
    #[inline]
    pub fn protect<T>(&self, slot: usize, src: &AtomicPtr<T>) -> *mut T {
        let cell = &self.domain.slots[self.idx].hp[slot];
        let mut p = src.load(SeqCst);
        // BOUND: wait-edge — publish-validate retry: re-loops only when
        // `src` changed after the hazard publication; each retry implies a
        // writer made progress
        loop {
            cell.store(p as usize, SeqCst);
            let q = src.load(SeqCst);
            if q == p {
                return p;
            }
            p = q;
        }
    }

    /// Publishes `ptr` in hazard slot `slot` without validation. Callers
    /// must re-validate the source themselves afterwards.
    #[inline]
    pub fn set<T>(&self, slot: usize, ptr: *mut T) {
        self.domain.slots[self.idx].hp[slot].store(ptr as usize, SeqCst);
    }

    /// Clears one hazard slot.
    #[inline]
    pub fn clear_slot(&self, slot: usize) {
        self.domain.slots[self.idx].hp[slot].store(0, SeqCst);
    }

    /// Clears all of this thread's hazard slots.
    #[inline]
    pub fn clear(&self) {
        for hp in &self.domain.slots[self.idx].hp {
            hp.store(0, SeqCst);
        }
    }

    /// Retires `ptr` for deferred reclamation.
    ///
    /// # Safety
    /// `ptr` must have been allocated via `Box<T>`, be fully unlinked from
    /// the shared structure (no new references can be created), and must not
    /// be retired twice.
    pub unsafe fn retire<T>(&mut self, ptr: *mut T) {
        // SAFETY (to call): `p` must be the `Box<T>` allocation recorded
        // in the paired `Retired`. Only the scan paths invoke it, exactly
        // once, after proving no hazard slot still covers the pointer.
        unsafe fn drop_box<T>(p: *mut u8) {
            // SAFETY: `p` originated from Box<T> per retire contract.
            drop(unsafe { Box::from_raw(p as *mut T) });
        }
        self.retired.push(Retired {
            ptr: ptr as *mut u8,
            drop_fn: drop_box::<T>,
        });
        if self.retired.len() >= self.domain.scan_threshold {
            self.domain.scan_list(&mut self.retired);
        }
    }

    /// The slot index this handle occupies, in `0..max_threads`.
    ///
    /// Indices are handed out exclusively (one live handle per index), so
    /// composed structures can reuse them as their per-thread id — the
    /// unbounded list-of-rings drives its inner rings' raw thread-id API
    /// with exactly this value, making one registration cover both the
    /// hazard slots and the ring thread slots.
    #[inline]
    pub fn idx(&self) -> usize {
        self.idx
    }

    /// Forces a scan of this thread's retire list (tests/teardown).
    pub fn flush(&mut self) {
        self.domain.scan_list(&mut self.retired);
    }

    /// Number of not-yet-reclaimed retirees held by this handle (tests).
    pub fn pending(&self) -> usize {
        self.retired.len()
    }
}

impl Drop for HpHandle<'_> {
    fn drop(&mut self) {
        self.clear();
        self.domain.scan_list(&mut self.retired);
        if !self.retired.is_empty() {
            self.domain
                .orphans
                .lock()
                .unwrap()
                .append(&mut self.retired);
        }
        self.domain.slots[self.idx].active.store(false, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    /// Live-`Tracked` count. One per test, carried by every node the test
    /// allocates: `cargo test` runs these tests on parallel threads, so a
    /// shared static would let one test's allocations fail another's
    /// exact-count assertions.
    type Live = Arc<Counter>;

    struct Tracked(#[allow(dead_code)] u64, Live);
    impl Tracked {
        fn boxed(v: u64, live: &Live) -> *mut Tracked {
            live.fetch_add(1, SeqCst);
            Box::into_raw(Box::new(Tracked(v, Arc::clone(live))))
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.1.fetch_sub(1, SeqCst);
        }
    }

    #[test]
    fn register_exhaustion() {
        let d = Domain::new(2);
        let h1 = d.register().unwrap();
        let _h2 = d.register().unwrap();
        assert!(d.register().is_none());
        drop(h1);
        assert!(d.register().is_some());
    }

    #[test]
    fn protect_tracks_moving_source() {
        let d = Domain::new(1);
        let h = d.register().unwrap();
        let a = Box::into_raw(Box::new(5u64));
        let b = Box::into_raw(Box::new(6u64));
        let src = AtomicPtr::new(a);
        assert_eq!(h.protect(0, &src), a);
        src.store(b, SeqCst);
        assert_eq!(h.protect(0, &src), b);
        // SAFETY: the test owns both boxes; no handle retires or frees
        // them, so each `from_raw` is the unique reclamation.
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn protected_pointer_survives_scan() {
        let d = Domain::new(2);
        let mut h1 = d.register().unwrap();
        let h2 = d.register().unwrap();
        let live = Live::default();
        let p = Tracked::boxed(1, &live);
        let src = AtomicPtr::new(p);
        let got = h2.protect(0, &src);
        assert_eq!(got, p);
        // SAFETY: we "unlink" p (conceptually) and retire it.
        unsafe { h1.retire(p) };
        h1.flush();
        assert_eq!(live.load(SeqCst), 1, "protected node must not be freed");
        h2.clear();
        h1.flush();
        assert_eq!(live.load(SeqCst), 0, "unprotected node is reclaimed");
    }

    #[test]
    fn orphans_reclaimed_on_domain_drop() {
        let live = Live::default();
        {
            let d = Domain::new(2);
            let mut h1 = d.register().unwrap();
            let h2 = d.register().unwrap();
            let p = Tracked::boxed(2, &live);
            let src = AtomicPtr::new(p);
            h2.protect(1, &src);
            // SAFETY: `p` is boxed, unlinked from the test's view here,
            // and retired exactly once.
            unsafe { h1.retire(p) };
            drop(h1); // p still protected by h2 → goes to orphans
            assert_eq!(live.load(SeqCst), 1);
            drop(h2);
        } // domain drop reclaims orphans
        assert_eq!(live.load(SeqCst), 0);
    }

    #[test]
    fn threshold_scan_reclaims_bulk() {
        let d = Domain::new(1);
        let mut h = d.register().unwrap();
        let live = Live::default();
        for i in 0..200 {
            let p = Tracked::boxed(i, &live);
            // SAFETY: fresh box, never linked anywhere, retired once.
            unsafe { h.retire(p) };
        }
        h.flush();
        assert_eq!(live.load(SeqCst), 0);
        assert_eq!(h.pending(), 0);
    }

    #[test]
    fn concurrent_protect_retire_stress() {
        let d = Arc::new(Domain::new(4));
        let live = Live::default();
        let src = Arc::new(AtomicPtr::new(Tracked::boxed(0, &live)));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let d = Arc::clone(&d);
            let src = Arc::clone(&src);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let h = d.register().unwrap();
                // BOUND: wait-edge — test reader loops until the stop flag
                while !stop.load(SeqCst) {
                    let p = h.protect(0, &src);
                    // SAFETY: `p` is published in our hazard slot and was
                    // validated against `src`, so the writer cannot free
                    // it until we clear the slot. A racing reclamation is
                    // UB, detectable under ASan/Miri — the point of the
                    // stress.
                    let _v = unsafe { &(*p).0 };
                    h.clear_slot(0);
                }
            }));
        }
        // The writer flushes only after every reader has exited: a reader
        // still holding a hazard on a retired node would rightly keep it
        // alive past the flush, and the exact count below would race.
        let (readers_done, wait_for_readers) = std::sync::mpsc::channel::<()>();
        let writer = {
            let d = Arc::clone(&d);
            let src = Arc::clone(&src);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                let mut h = d.register().unwrap();
                for i in 1..2000 {
                    let fresh = Tracked::boxed(i, &live);
                    let old = src.swap(fresh, SeqCst);
                    // SAFETY: the swap unlinked `old`; the single writer
                    // retires each displaced box exactly once.
                    unsafe { h.retire(old) };
                }
                stop.store(true, SeqCst);
                wait_for_readers.recv().unwrap();
                h.flush();
            })
        };
        for r in readers {
            r.join().unwrap();
        }
        readers_done.send(()).unwrap();
        writer.join().unwrap();
        // Last node still linked.
        assert_eq!(live.load(SeqCst), 1);
        // SAFETY: all threads joined; the final node is owned solely by
        // `src`, and this is its unique reclamation.
        unsafe { drop(Box::from_raw(src.load(SeqCst))) };
        assert_eq!(live.load(SeqCst), 0);
    }
}
