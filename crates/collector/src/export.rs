//! The export edge of the pipeline: the [`Exporter`] sink trait, the
//! [`FaultInjector`] seam the tests and the soak binary share, and the
//! bounded-retry [`RetryPolicy`] that decides how hard the export stage
//! fights a failing sink before it counts a batch as dropped.

use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

use crate::span::Span;

/// An export attempt failed. Carries no payload: the export stage still
/// holds the batch and decides (via [`RetryPolicy`]) whether to retry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExportError;

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("export attempt failed")
    }
}

impl std::error::Error for ExportError {}

/// The terminal sink for flushed batches. The worker that flushed a batch
/// calls `export` itself, with attempts under the export lock: one
/// attempt at a time across all workers, so `&mut self` suffices — no
/// internal synchronization required. A slow `export` holds that worker
/// and every worker waiting on the lock; their spans wait in the lanes.
pub trait Exporter: Send {
    /// Exports one batch. An `Err` means *nothing* from `spans` was
    /// persisted — the stage retries or drops the whole batch; partial
    /// exports are the implementation's responsibility to avoid.
    fn export(&mut self, spans: &[Span]) -> Result<(), ExportError>;
}

/// Accumulates every exported span in memory. The conservation tests
/// compare its contents against the ingest-side oracle.
#[derive(Debug, Default)]
pub struct VecExporter {
    /// Every span exported so far, in export order.
    pub spans: Vec<Span>,
}

impl Exporter for VecExporter {
    fn export(&mut self, spans: &[Span]) -> Result<(), ExportError> {
        self.spans.extend_from_slice(spans);
        Ok(())
    }
}

/// Discards everything (always succeeds). The soak binary uses it so the
/// measured ceiling is the pipeline's, not an allocator's.
#[derive(Debug, Default)]
pub struct NullExporter;

impl Exporter for NullExporter {
    fn export(&mut self, _spans: &[Span]) -> Result<(), ExportError> {
        Ok(())
    }
}

/// What an injected fault does to the export attempt about to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Let the attempt run normally.
    Proceed,
    /// Fail the attempt without calling the exporter (counts as an
    /// export failure; the batch follows the retry path).
    Fail,
    /// Stall the export for the duration, then run the attempt. Models a
    /// slow backend: the flushing worker waits in the export (holding the
    /// export lock), the spans wait in the lanes, and the next sweep takes
    /// them as one batch, so batches grow.
    Stall(Duration),
}

/// Decides, per export *attempt*, whether to inject a fault. Shared by
/// the integration tests, the DST model, and `collector-soak` so a fault
/// profile proven correct under the schedule explorer is byte-identical
/// to the one the soak run stresses at full speed.
///
/// Injectors observe a global attempt counter (retries included), so
/// `FailEvery(n)` with `n >= 2` always lets a retried batch through —
/// deterministic zero-drop profiles for the loss tests — while `n == 1`
/// fails every attempt and exercises the drop path.
pub trait FaultInjector: Send + Sync {
    /// Called immediately before each export attempt.
    fn before_attempt(&self) -> FaultAction;
}

/// Never injects anything.
#[derive(Debug, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn before_attempt(&self) -> FaultAction {
        FaultAction::Proceed
    }
}

/// Fails every `n`-th attempt (1-based: the `n`-th, `2n`-th, ... attempts
/// fail). `FailEvery::new(1)` fails everything.
#[derive(Debug)]
pub struct FailEvery {
    n: u64,
    attempts: AtomicU64,
}

impl FailEvery {
    /// Fail every `n`-th export attempt.
    ///
    /// # Panics
    ///
    /// If `n == 0`.
    pub fn new(n: u64) -> FailEvery {
        assert!(n > 0, "FailEvery(0) is meaningless");
        FailEvery {
            n,
            attempts: AtomicU64::new(0),
        }
    }
}

impl FaultInjector for FailEvery {
    fn before_attempt(&self) -> FaultAction {
        // ORDERING: fault-injection attempt counter; only sequences
        // injected faults against attempts under the export lock, which
        // orders them, cross-thread order immaterial — cover: dst model 8
        let k = self.attempts.fetch_add(1, Relaxed) + 1;
        if k.is_multiple_of(self.n) {
            FaultAction::Fail
        } else {
            FaultAction::Proceed
        }
    }
}

/// Stalls every `every`-th attempt for `dur` before letting it proceed.
#[derive(Debug)]
pub struct StallFor {
    every: u64,
    dur: Duration,
    attempts: AtomicU64,
}

impl StallFor {
    /// Stall every `every`-th export attempt for `dur`.
    ///
    /// # Panics
    ///
    /// If `every == 0`.
    pub fn new(every: u64, dur: Duration) -> StallFor {
        assert!(every > 0, "StallFor(0, _) is meaningless");
        StallFor {
            every,
            dur,
            attempts: AtomicU64::new(0),
        }
    }
}

impl FaultInjector for StallFor {
    fn before_attempt(&self) -> FaultAction {
        // ORDERING: fault-injection attempt counter; only sequences
        // injected faults against attempts under the export lock, which
        // orders them, cross-thread order immaterial
        let k = self.attempts.fetch_add(1, Relaxed) + 1;
        if k.is_multiple_of(self.every) {
            FaultAction::Stall(self.dur)
        } else {
            FaultAction::Proceed
        }
    }
}

/// How the export stage responds to a failed attempt before it counts
/// the batch as dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per batch, the first one included. `1` means no
    /// retries; `0` is rounded up to `1` (a batch always gets one try).
    pub max_attempts: u32,
    /// Sleep between attempts (a scheduling yield under DST). Constant,
    /// not exponential: the retry budget is bounded and small, and a
    /// deterministic delay keeps soak drop-rate numbers reproducible.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_micros(50),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_every_is_one_based_and_periodic() {
        let f = FailEvery::new(3);
        let pattern: Vec<bool> = (0..7).map(|_| f.before_attempt() == FaultAction::Fail).collect();
        assert_eq!(pattern, [false, false, true, false, false, true, false]);
    }

    #[test]
    fn fail_every_one_fails_everything() {
        let f = FailEvery::new(1);
        assert!((0..4).all(|_| f.before_attempt() == FaultAction::Fail));
    }

    #[test]
    fn stall_for_periodic() {
        let d = Duration::from_millis(5);
        let s = StallFor::new(2, d);
        assert_eq!(s.before_attempt(), FaultAction::Proceed);
        assert_eq!(s.before_attempt(), FaultAction::Stall(d));
        assert_eq!(s.before_attempt(), FaultAction::Proceed);
        assert_eq!(s.before_attempt(), FaultAction::Stall(d));
    }
}
