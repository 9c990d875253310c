//! Best-effort thread pinning.
//!
//! The paper pins nothing explicitly but runs on dedicated multi-socket
//! hardware; on shared/virtualized runners pinning reduces variance. This
//! is a measurement aid only — queue crates never depend on it.

/// The CPUs the calling thread may currently run on, ascending (empty if
/// the platform call fails or is unavailable).
fn current_affinity() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: cpu_set_t is a plain bitset (all-zero is valid); the FFI
        // call gets a valid pointer and the matching size.
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            if libc::sched_getaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &mut set) != 0 {
                return Vec::new();
            }
            (0..libc::CPU_SETSIZE as usize)
                .filter(|&cpu| libc::CPU_ISSET(cpu, &set))
                .collect()
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        Vec::new()
    }
}

/// Pins the calling thread to the `core % n`-th of the process's `n`
/// allowed CPUs. Silently does nothing if the platform calls fail (e.g.,
/// restricted containers).
///
/// The allowed list is read **once**, by the first call. It must not be
/// re-derived per call: a pin shrinks the caller's own mask (and that of
/// every thread it later spawns) to one CPU, from which every later pin
/// would compute `core % 1` — CPU 0.
pub fn pin_to_core(core: usize) {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    let allowed = ALLOWED.get_or_init(current_affinity);
    let Some(&target) = allowed.get(core % allowed.len().max(1)) else {
        return; // mask unreadable (or not Linux): nothing to pin to
    };
    #[cfg(target_os = "linux")]
    // SAFETY: cpu_set_t is a plain bitset; FFI call with valid pointers.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(target, &mut set);
        let _ = libc::sched_setaffinity(
            0,
            std::mem::size_of::<libc::cpu_set_t>(),
            &set as *const libc::cpu_set_t,
        );
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = target;
    }
}

/// Resident-set size of the current process in bytes (Linux), or `None`.
/// Complements the allocator census with an OS-level view.
pub fn rss_bytes() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let pages: usize = statm.split_whitespace().nth(1)?.parse().ok()?;
        // SAFETY: trivial libc call.
        let page = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
        if page <= 0 {
            return None;
        }
        Some(pages * page as usize)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_does_not_crash() {
        pin_to_core(0);
        pin_to_core(999); // wraps modulo the allowed-CPU count
    }

    #[test]
    fn repinning_one_thread_moves_it() {
        // libtest runs each test on a fresh thread, so this is the
        // process's mask, not some earlier test's pin.
        let allowed = current_affinity();
        pin_to_core(0);
        let first = current_affinity();
        pin_to_core(1);
        let second = current_affinity();
        if allowed.len() < 2 {
            eprintln!("skipped: {} CPU(s) allowed, need 2", allowed.len());
            return;
        }
        if first == allowed {
            eprintln!("skipped: sched_setaffinity has no effect here");
            return;
        }
        assert_eq!(first, [allowed[0]]);
        // The regression: `1 % 1` computed from the mask the first pin had
        // just shrunk left the thread on `allowed[0]`.
        assert_eq!(second, [allowed[1]]);
    }

    #[test]
    fn rss_is_plausible_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = rss_bytes().expect("statm readable");
            assert!(rss > 100 * 1024, "rss {rss} too small to be real");
        }
    }
}
