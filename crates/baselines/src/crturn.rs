//! CRTurn — Ramalhete & Correia's turn queue (PPoPP '17 poster + tech
//! report), the "truly wait-free queue with wait-free memory reclamation"
//! baseline of the wCQ evaluation.
//!
//! Reproduction scope (see `DESIGN.md` §3.4): the **enqueue** side is the
//! faithful turn-based algorithm — a thread publishes its node in
//! `enqueuers[tid]` and everyone links pending nodes in turn order after the
//! current tail, which bounds every enqueue by `maxThreads` rounds
//! (wait-free). The **dequeue** side uses the same node-claiming idea
//! (`deqTid` CAS on the node after head) but without the `deqself`/`deqhelp`
//! turn handshake, making it lock-free rather than wait-free. The
//! performance profile — one CAS-claim plus one head CAS per dequeue on a
//! shared linked list, hazard pointers for reclamation — is the profile the
//! paper's figures show for CRTurn (slowest truly-nonblocking contender).
//!
//! Values are `u64`; nodes are reclaimed with hazard pointers.
//!
//! ORDERING: baseline kept at its paper's SC presentation for fidelity; perf
//! parity, not ordering tuning, is the goal (DESIGN.md)

use hazard::{Domain, HpHandle};
use std::ptr;
use std::sync::atomic::{AtomicI64, Ordering::SeqCst};
// See msqueue.rs: must match hazard's `protect` signature under wcq_dst.
#[cfg(not(wcq_dst))]
use std::sync::atomic::AtomicPtr;
#[cfg(wcq_dst)]
use shuttle_lite::atomic::AtomicPtr;

const IDX_NONE: i64 = -1;

struct Node {
    item: u64,
    enq_tid: usize,
    deq_tid: AtomicI64,
    next: AtomicPtr<Node>,
}

impl Node {
    fn boxed(item: u64, enq_tid: usize) -> *mut Node {
        Box::into_raw(Box::new(Node {
            item,
            enq_tid,
            deq_tid: AtomicI64::new(IDX_NONE),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// CRTurn-style queue of `u64` values.
pub struct CrTurnQueue {
    head: AtomicPtr<Node>,
    tail: AtomicPtr<Node>,
    enqueuers: Box<[AtomicPtr<Node>]>,
    tid_slots: Box<[std::sync::atomic::AtomicBool]>,
    domain: Domain,
    max_threads: usize,
}

// SAFETY: shared state is atomics; nodes reclaimed through HP.
unsafe impl Send for CrTurnQueue {}
unsafe impl Sync for CrTurnQueue {}

impl CrTurnQueue {
    /// Creates an empty queue admitting `max_threads` handles.
    pub fn new(max_threads: usize) -> Self {
        let sentinel = Node::boxed(0, 0);
        CrTurnQueue {
            head: AtomicPtr::new(sentinel),
            tail: AtomicPtr::new(sentinel),
            enqueuers: (0..max_threads)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
            tid_slots: (0..max_threads)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
            domain: Domain::new(max_threads),
            max_threads,
        }
    }

    /// Registers the calling thread, claiming a turn-order thread id.
    pub fn register(&self) -> Option<CrTurnHandle<'_>> {
        let hp = self.domain.register()?;
        let tid = self.tid_slots.iter().position(|s| {
            s.compare_exchange(false, true, SeqCst, SeqCst).is_ok()
        })?;
        Some(CrTurnHandle { q: self, hp, tid })
    }
}

impl Drop for CrTurnQueue {
    fn drop(&mut self) {
        let mut p = *self.head.get_mut();
        // BOUND: finite-iter — drop walks the remaining node chain once
        // under exclusive access
        while !p.is_null() {
            // SAFETY: exclusive access in drop.
            let boxed = unsafe { Box::from_raw(p) };
            p = boxed.next.load(SeqCst);
        }
    }
}

/// Per-thread handle to a [`CrTurnQueue`].
pub struct CrTurnHandle<'q> {
    q: &'q CrTurnQueue,
    hp: HpHandle<'q>,
    tid: usize,
}

impl CrTurnHandle<'_> {
    fn tid(&self) -> usize {
        self.tid
    }

    /// Turn-based enqueue. The loop runs until the node's request slot is
    /// cleared, which the protocol guarantees happens when the node becomes
    /// the tail (clear-before-link ordering); the turn discipline bounds the
    /// number of *productive* rounds by `maxThreads`, with extra iterations
    /// only consumed by tail-validation retries.
    pub fn enqueue(&mut self, v: u64) {
        let tid = self.tid();
        let my_node = Node::boxed(v, tid);
        self.q.enqueuers[tid].store(my_node, SeqCst);
        // BOUND: helping-bounded — CRTurn enqueue: every pass helps the
        // current turn's request; this thread's request is cleared within a
        // bounded number of turns (wait-free by construction)
        loop {
            if self.q.enqueuers[tid].load(SeqCst).is_null() {
                self.hp.clear_slot(0);
                return; // our node was linked and its request cleared
            }
            let ltail = self.hp.protect(0, &self.q.tail);
            if ltail != self.q.tail.load(SeqCst) {
                continue;
            }
            // SAFETY: ltail protected.
            let ltail_enq_tid = unsafe { (*ltail).enq_tid };
            // Step 1: the tail node is linked by definition — clear its
            // still-published request so it can never be linked twice.
            if self.q.enqueuers[ltail_enq_tid].load(SeqCst) == ltail {
                let _ = self.q.enqueuers[ltail_enq_tid].compare_exchange(
                    ltail,
                    ptr::null_mut(),
                    SeqCst,
                    SeqCst,
                );
            }
            // Step 2: link the next pending request in turn order.
            for j in 1..=self.q.max_threads {
                let k = (ltail_enq_tid + j) % self.q.max_threads;
                let pending = self.q.enqueuers[k].load(SeqCst);
                if pending.is_null() {
                    continue;
                }
                // SAFETY: ltail protected; `pending` is only *written as a
                // pointer value*, never dereferenced. The clear-before-link
                // ordering (step 1 precedes any link after the node, under
                // SeqCst) guarantees a slot read after tail passed a node
                // reads null, so a recycled node can never be re-linked.
                let _ = unsafe {
                    (*ltail)
                        .next
                        .compare_exchange(ptr::null_mut(), pending, SeqCst, SeqCst)
                };
                break;
            }
            // Step 3: swing the tail.
            // SAFETY: ltail protected.
            let lnext = unsafe { (*ltail).next.load(SeqCst) };
            if !lnext.is_null() {
                let _ = self.q.tail.compare_exchange(ltail, lnext, SeqCst, SeqCst);
            }
        }
    }

    /// Lock-free dequeue via `deqTid` claiming; `None` when empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        let tid = self.tid();
        // BOUND: helping-bounded — CRTurn dequeue: deqTid turn claiming
        // guarantees each request is served within one rotation of active
        // threads
        loop {
            let lhead = self.hp.protect(0, &self.q.head);
            if lhead != self.q.head.load(SeqCst) {
                continue;
            }
            // SAFETY: lhead protected.
            let lnext = self.hp.protect(1, unsafe { &(*lhead).next });
            if lhead != self.q.head.load(SeqCst) {
                continue;
            }
            if lnext.is_null() {
                self.hp.clear();
                return None; // empty
            }
            // Keep head ≤ tail: if the tail lags at lhead, help it first so
            // dequeuers never advance head past tail (which would expose
            // freed nodes to enqueue helpers).
            if lhead == self.q.tail.load(SeqCst) {
                let _ = self.q.tail.compare_exchange(lhead, lnext, SeqCst, SeqCst);
            }
            // Claim the node after head.
            // SAFETY: lnext protected.
            if unsafe {
                (*lnext)
                    .deq_tid
                    .compare_exchange(IDX_NONE, tid as i64, SeqCst, SeqCst)
                    .is_ok()
            } {
                // SAFETY: lnext protected; we own its item now.
                let item = unsafe { (*lnext).item };
                if self
                    .q
                    .head
                    .compare_exchange(lhead, lnext, SeqCst, SeqCst)
                    .is_ok()
                {
                    self.hp.clear();
                    // SAFETY: lhead unlinked (head moved past it) and its
                    // enqueuers slot was cleared before it was ever linked
                    // deeper into the list.
                    unsafe { self.hp.retire(lhead) };
                } else {
                    self.hp.clear();
                }
                return Some(item);
            }
            // Node already claimed: help advance head and retry.
            if self
                .q
                .head
                .compare_exchange(lhead, lnext, SeqCst, SeqCst)
                .is_ok()
            {
                self.hp.clear();
                // SAFETY: as above.
                unsafe { self.hp.retire(lhead) };
            }
        }
    }
}

impl Drop for CrTurnHandle<'_> {
    fn drop(&mut self) {
        self.q.tid_slots[self.tid].store(false, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    #[test]
    fn fifo_single_thread() {
        let q = CrTurnQueue::new(2);
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
    fn helping_links_peer_nodes() {
        // Two threads enqueue concurrently; turn order forces each to link
        // the other's pending node at some point.
        let q = Arc::new(CrTurnQueue::new(2));
        let mut hs = Vec::new();
        for t in 0..2u64 {
            let q = Arc::clone(&q);
            hs.push(std::thread::spawn(move || {
                let mut h = q.register().unwrap();
                for i in 0..5000 {
                    h.enqueue(t << 32 | i);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let mut h = q.register().unwrap();
        let mut n = 0;
        let mut last = [-1i64; 2];
        // BOUND: finite-iter — test drains the finite set of
        // already-enqueued items
        while let Some(v) = h.dequeue() {
            let (p, i) = ((v >> 32) as usize, (v & 0xffff_ffff) as i64);
            assert!(i > last[p], "per-producer FIFO violated");
            last[p] = i;
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    #[test]
    fn mpmc_exact_delivery() {
        let q = Arc::new(CrTurnQueue::new(8));
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
