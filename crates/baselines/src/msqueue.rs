//! MSQueue — Michael & Scott's classic lock-free FIFO queue (1996/1998),
//! with hazard-pointer reclamation as in the paper's evaluation.
//!
//! "A well-known Michael & Scott's lock-free queue which is not very
//! performant." (§6) Every operation CASes the shared `Head`/`Tail`, which
//! is exactly why it scales poorly compared to the F&A-based designs.
//!
//! ORDERING: baseline kept at its paper's SC presentation for fidelity; perf
//! parity, not ordering tuning, is the goal (DESIGN.md)

use hazard::{Domain, HpHandle};
use std::ptr;
use std::sync::atomic::Ordering::SeqCst;
// `AtomicPtr` must match the type in hazard's `protect` signature, which
// switches to the shuttle-lite shim under `--cfg wcq_dst`.
#[cfg(not(wcq_dst))]
use std::sync::atomic::AtomicPtr;
#[cfg(wcq_dst)]
use shuttle_lite::atomic::AtomicPtr;

struct Node {
    val: u64,
    next: AtomicPtr<Node>,
}

impl Node {
    fn boxed(val: u64) -> *mut Node {
        Box::into_raw(Box::new(Node {
            val,
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// Michael & Scott lock-free queue of `u64` values.
///
/// Access goes through per-thread [`MsHandle`]s (they carry the hazard
/// pointers and the retire list).
pub struct MsQueue {
    head: AtomicPtr<Node>,
    tail: AtomicPtr<Node>,
    domain: Domain,
}

// SAFETY: all shared state is atomics; nodes are reclaimed through HP.
unsafe impl Send for MsQueue {}
unsafe impl Sync for MsQueue {}

impl MsQueue {
    /// Creates an empty queue admitting up to `max_threads` handles.
    pub fn new(max_threads: usize) -> Self {
        let sentinel = Node::boxed(0);
        MsQueue {
            head: AtomicPtr::new(sentinel),
            tail: AtomicPtr::new(sentinel),
            domain: Domain::new(max_threads),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> Option<MsHandle<'_>> {
        Some(MsHandle {
            q: self,
            hp: self.domain.register()?,
        })
    }
}

impl Drop for MsQueue {
    fn drop(&mut self) {
        // Free the remaining chain (sentinel included).
        let mut p = *self.head.get_mut();
        // BOUND: finite-iter — drop walks the remaining node chain once
        // under exclusive access
        while !p.is_null() {
            // SAFETY: exclusive access in drop; nodes were Box-allocated.
            let boxed = unsafe { Box::from_raw(p) };
            p = boxed.next.load(SeqCst);
        }
    }
}

/// Per-thread handle to an [`MsQueue`].
pub struct MsHandle<'q> {
    q: &'q MsQueue,
    hp: HpHandle<'q>,
}

impl MsHandle<'_> {
    /// Lock-free enqueue.
    pub fn enqueue(&mut self, v: u64) {
        let node = Node::boxed(v);
        // BOUND: wait-edge — M&S enqueue CAS retry: a failed append means
        // another enqueuer appended first (lock-free)
        loop {
            let ltail = self.hp.protect(0, &self.q.tail);
            // SAFETY: ltail is protected and was reachable via `tail`.
            let next = unsafe { (*ltail).next.load(SeqCst) };
            if ltail != self.q.tail.load(SeqCst) {
                continue;
            }
            if next.is_null() {
                // SAFETY: ltail protected.
                if unsafe {
                    (*ltail)
                        .next
                        .compare_exchange(ptr::null_mut(), node, SeqCst, SeqCst)
                        .is_ok()
                } {
                    let _ = self.q.tail.compare_exchange(ltail, node, SeqCst, SeqCst);
                    self.hp.clear_slot(0);
                    return;
                }
            } else {
                // Help swing the lagging tail.
                let _ = self.q.tail.compare_exchange(ltail, next, SeqCst, SeqCst);
            }
        }
    }

    /// Lock-free dequeue; `None` when empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        // BOUND: wait-edge — M&S dequeue CAS retry: a failed head swing
        // means another dequeuer took the node
        loop {
            let lhead = self.hp.protect(0, &self.q.head);
            let ltail = self.q.tail.load(SeqCst);
            // SAFETY: lhead protected.
            let next = self.hp.protect(1, unsafe { &(*lhead).next });
            if lhead != self.q.head.load(SeqCst) {
                continue;
            }
            if next.is_null() {
                self.hp.clear();
                return None; // empty
            }
            if lhead == ltail {
                // Tail is lagging: help, then retry.
                let _ = self.q.tail.compare_exchange(ltail, next, SeqCst, SeqCst);
                continue;
            }
            // SAFETY: next protected; the value is read while the node is
            // still guarded by our hazard pointer.
            let val = unsafe { (*next).val };
            if self
                .q
                .head
                .compare_exchange(lhead, next, SeqCst, SeqCst)
                .is_ok()
            {
                self.hp.clear();
                // SAFETY: lhead is now unlinked; nobody can re-reach it.
                unsafe { self.hp.retire(lhead) };
                return Some(val);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    #[test]
    fn fifo_single_thread() {
        let q = MsQueue::new(1);
        let mut h = q.register().unwrap();
        assert_eq!(h.dequeue(), None);
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn drop_frees_remaining_nodes() {
        let q = MsQueue::new(1);
        {
            let mut h = q.register().unwrap();
            for i in 0..50 {
                h.enqueue(i);
            }
        }
        drop(q); // must not leak / double-free (checked under sanitizers)
    }

    #[test]
    fn mpmc_exact_delivery() {
        let q = Arc::new(MsQueue::new(8));
        let done = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..4000 {
                        h.enqueue(p << 32 | i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                let done = Arc::clone(&done);
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    let mut h = q.register().unwrap();
                    let mut local = Vec::new();
                    // BOUND: wait-edge — test consumer drains until
                    // producers set the done flag
                    loop {
                        match h.dequeue() {
                            Some(v) => local.push(v),
                            None if done.load(SeqCst) => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    sink.lock().unwrap().extend(local);
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, SeqCst);
        for c in consumers {
            c.join().unwrap();
        }
        let got = sink.lock().unwrap();
        assert_eq!(got.len(), 12_000);
        let set: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(set.len(), 12_000);
    }
}
