//! CPU discovery and pinning owned by the benchmark.
//!
//! `harness::pin::pin_to_core` is deliberately not used: it takes
//! `available_parallelism()` *after* the caller's mask has already shrunk,
//! so once any thread is pinned every later pin lands on CPU 0 (see
//! README.md, "Known harness defect"). Here the allowed list is read once,
//! from the unpinned main thread, and threads pin by explicit CPU id.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Mutex;

/// Linux `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: libc::c_int,
}

/// Linux `SCHED_IDLE`: runs only when no normal thread wants the CPU.
const SCHED_IDLE: libc::c_int = 5;

extern "C" {
    // Not part of the vendored libc subset; same ABI as glibc's wrappers.
    fn sched_getaffinity(
        pid: libc::pid_t,
        cpusetsize: libc::size_t,
        cpuset: *mut libc::cpu_set_t,
    ) -> libc::c_int;
    fn sched_setscheduler(
        pid: libc::pid_t,
        policy: libc::c_int,
        param: *const SchedParam,
    ) -> libc::c_int;
}

/// Spins in the idle scheduling class, on the CPUs the calling thread may
/// use, until `stop` is set. It keeps such a CPU out of its idle states
/// without taking time from any normal thread: a thread waking there
/// preempts the spinner at once. How long a vCPU takes to leave an idle
/// state is the host's business and varied by ±25 % between runs; what a
/// wake-up costs in this repository's code does not.
pub fn keep_awake_until(stop: &AtomicBool) {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: FFI call with a valid pointer to a properly laid out struct.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    assert_eq!(rc, 0, "sched_setscheduler(SCHED_IDLE) failed");
    while !stop.load(Relaxed) {
        std::hint::spin_loop();
    }
}

/// CPUs the calling thread may run on, ascending.
fn affinity_of_caller() -> Vec<usize> {
    // SAFETY: cpu_set_t is a plain bitset, valid when zeroed; the call
    // writes at most `size_of::<cpu_set_t>()` bytes into it.
    let set = unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        let rc = sched_getaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &mut set);
        assert_eq!(rc, 0, "sched_getaffinity failed");
        set
    };
    // SAFETY: CPU_ISSET is pure bit inspection.
    (0..1024)
        .filter(|&c| unsafe { libc::CPU_ISSET(c, &set) })
        .collect()
}

/// Binds the calling thread to exactly `cpus` and checks that it took.
fn set_affinity_of_caller(cpus: &[usize]) {
    // SAFETY: plain bitset and an FFI call with a valid pointer.
    let rc = unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        for &cpu in cpus {
            libc::CPU_SET(cpu, &mut set);
        }
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set)
    };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
    assert_eq!(affinity_of_caller(), cpus, "affinity {cpus:?} did not take");
}

/// The allowed CPU list, read once at start-up, plus the set of CPUs the
/// run actually pinned a thread to (reported as `bench.cpus`).
pub struct Cpus {
    allowed: Vec<usize>,
    pinned: Mutex<BTreeSet<usize>>,
}

impl Cpus {
    /// Reads the allowed list. Call from the main thread before anything
    /// is pinned; the main thread itself is never pinned, so threads a
    /// library spawns from it (the collector's) inherit the full mask.
    pub fn discover() -> Cpus {
        Cpus {
            allowed: affinity_of_caller(),
            pinned: Mutex::new(BTreeSet::new()),
        }
    }

    /// Allowed CPU ids, ascending.
    pub fn allowed(&self) -> &[usize] {
        &self.allowed
    }

    /// Pins the calling thread to the `slot`-th allowed CPU and verifies
    /// the kernel accepted it.
    pub fn pin(&self, slot: usize) {
        let cpu = self.allowed[slot];
        set_affinity_of_caller(&[cpu]);
        self.pinned.lock().expect("pin registry").insert(cpu);
    }

    /// Runs `spawn` with the calling thread confined to the allowed CPUs
    /// *after* the first `load_threads` slots, then restores its mask.
    /// Threads `spawn` starts inherit the confined mask, which keeps a
    /// service under test (the collector's worker and exporter) off the
    /// CPUs the pinned load threads spin on. With no CPU to spare the mask
    /// is left alone.
    pub fn spawn_beside_load<R>(&self, load_threads: usize, spawn: impl FnOnce() -> R) -> R {
        let Some(rest) = self
            .allowed
            .get(load_threads..)
            .filter(|rest| !rest.is_empty())
        else {
            return spawn();
        };
        set_affinity_of_caller(rest);
        let spawned = spawn();
        set_affinity_of_caller(&self.allowed);
        spawned
    }

    /// Distinct CPUs pinned so far.
    pub fn pinned_count(&self) -> usize {
        self.pinned.lock().expect("pin registry").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_by_explicit_id_even_after_an_earlier_pin() {
        let cpus = Cpus::discover();
        assert!(!cpus.allowed().is_empty());
        // Each pin runs on its own thread, as in the workloads; the second
        // must still reach the second CPU (the harness helper would not).
        for slot in 0..cpus.allowed().len().min(2) {
            std::thread::scope(|s| {
                s.spawn(|| cpus.pin(slot));
            });
        }
        assert_eq!(cpus.pinned_count(), cpus.allowed().len().min(2));
    }

    #[test]
    fn threads_spawned_beside_the_load_avoid_its_cpus() {
        let cpus = Cpus::discover();
        std::thread::scope(|s| {
            // On a thread of its own: the mask of the test harness thread
            // is not this test's to change.
            s.spawn(|| {
                let before = affinity_of_caller();
                let inherited = cpus.spawn_beside_load(1, || {
                    std::thread::spawn(affinity_of_caller).join().unwrap()
                });
                let expected = if cpus.allowed().len() > 1 {
                    &cpus.allowed()[1..]
                } else {
                    cpus.allowed()
                };
                assert_eq!(inherited, expected);
                assert_eq!(
                    affinity_of_caller(),
                    before,
                    "the caller's mask is restored"
                );
            });
        });
    }
}
