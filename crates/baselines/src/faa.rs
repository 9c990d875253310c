//! FAA — the fetch-and-add pseudo-queue.
//!
//! "FAA (fetch-and-add), which is not a true queue algorithm; it simply
//! atomically increments Head and Tail when calling Dequeue and Enqueue
//! respectively. FAA is only shown to provide a theoretical performance
//! 'upper bound' for F&A-based queues." (§6)
//!
//! ORDERING: baseline kept at its paper's SC presentation for fidelity; perf
//! parity, not ordering tuning, is the goal (DESIGN.md)

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// The F&A throughput upper-bound pseudo-queue.
///
/// `enqueue` bumps `Tail`, `dequeue` bumps `Head` and "returns" the ticket.
/// No values are stored; dequeue reports empty when `Head` catches `Tail`,
/// which keeps the empty-dequeue benchmark honest.
#[derive(Debug, Default)]
pub struct FaaQueue {
    tail: CachePadded<AtomicU64>,
    head: CachePadded<AtomicU64>,
}

impl FaaQueue {
    /// Creates the pseudo-queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// "Enqueues" by incrementing `Tail`.
    #[inline]
    pub fn enqueue(&self, _v: u64) {
        self.tail.fetch_add(1, SeqCst);
    }

    /// "Dequeues" by incrementing `Head`; `None` when no ticket is left.
    #[inline]
    pub fn dequeue(&self) -> Option<u64> {
        // Still pays the RMW even when empty — the reason FAA performs
        // poorly in the paper's empty-dequeue test (Fig. 11a).
        let h = self.head.fetch_add(1, SeqCst);
        if h < self.tail.load(SeqCst) {
            Some(h)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_tickets() {
        let q = FaaQueue::new();
        assert_eq!(q.dequeue(), None);
        q.enqueue(10);
        q.enqueue(20);
        // Note: the first dequeue after the empty probe gets ticket 1.
        assert!(q.dequeue().is_some());
        assert_eq!(q.dequeue(), None, "ticket 2 >= tail 2");
    }

    #[test]
    fn concurrent_increments_sum() {
        let q = std::sync::Arc::new(FaaQueue::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        q.enqueue(1);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(q.tail.load(SeqCst), 40_000);
    }
}
