//! Thread and lock seam: `std` in production builds, the `shuttle-lite`
//! cooperative shims under `--cfg wcq_dst`, mirroring `wcq`'s own seam so
//! the deterministic-schedule tests (`tests/dst/` model 8) can explore the
//! collector's drain path and the workers' turns on the export lock at
//! schedule granularity. The lock must be the shim's there: a worker
//! blocked on a contended `std` mutex would hold the explorer's baton
//! while the owner waits for it, hanging the exploration. Outside an active
//! exploration the shims pass through to `std`, so the ordinary suite
//! still runs under the cfg.
//!
//! The metrics counters deliberately stay on `std` atomics even in DST
//! builds: they carry no synchronization (pure Relaxed tallies), and
//! keeping them off the explorer's step counter keeps model 8's schedule
//! space the size of the *protocol*, not the bookkeeping.

#[cfg(not(wcq_dst))]
pub(crate) use std::sync::Mutex;
#[cfg(not(wcq_dst))]
pub(crate) use std::thread::{spawn, JoinHandle};

#[cfg(wcq_dst)]
pub(crate) use shuttle_lite::sync::Mutex;
#[cfg(wcq_dst)]
pub(crate) use shuttle_lite::thread::{spawn, yield_now, JoinHandle};

/// Takes the value out of a lock no other thread can reach any more.
/// `std`'s lock reports poisoning here; the shim's swallows it.
#[cfg(not(wcq_dst))]
pub(crate) fn into_inner<T>(lock: Mutex<T>) -> T {
    lock.into_inner().expect("lock poisoned")
}

#[cfg(wcq_dst)]
pub(crate) fn into_inner<T>(lock: Mutex<T>) -> T {
    lock.into_inner()
}

/// Sleeps `d`, as a scheduling no-op under DST (a cooperative yield: the
/// simulated clock has no sleep, and blocking an OS thread that holds the
/// scheduler baton would stall the whole exploration for real time).
pub(crate) fn sleep(d: std::time::Duration) {
    #[cfg(wcq_dst)]
    if shuttle_lite::in_sim() {
        let _ = d;
        yield_now();
        return;
    }
    std::thread::sleep(d);
}

/// Busy-waits until `until`. Not `sleep`: timer slack is tens of
/// microseconds, the waits are often shorter. Not `yield_now` either: on
/// a host whose CPUs are all busy a yield costs the caller a whole
/// scheduler slice, milliseconds in which the lanes it should be
/// sweeping overflow (DESIGN.md §14 has the measurement). The collector
/// gives its CPU away only by parking, with nothing buffered. Under DST
/// one cooperative yield and no clock read.
pub(crate) fn pace(until: std::time::Instant) {
    #[cfg(wcq_dst)]
    if shuttle_lite::in_sim() {
        yield_now();
        return;
    }
    // BOUND: wait-edge — wall-clock wait: the caller caps `until` at its
    // batch's flush deadline, so at most `flush_after` from the batch's
    // first span
    while std::time::Instant::now() < until {
        std::hint::spin_loop();
    }
}
