//! CCQueue — the CC-Synch combining queue of Fatourou & Kallimanis
//! (PPoPP '12), applied to a sequential FIFO queue.
//!
//! "CCQueue is a combining queue, which is not lock-free but still achieves
//! relatively good performance." (§6)
//!
//! CC-Synch serializes operations through a combiner: each thread publishes
//! its request in a node appended to a combining list (one `SWAP`), then
//! either spins until a combiner executes it or becomes the combiner itself
//! and executes up to `COMBINE_LIMIT` pending requests against the
//! sequential queue.
//!
//! ORDERING: baseline kept at its paper's SC presentation for fidelity; perf
//! parity, not ordering tuning, is the goal (DESIGN.md)

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering::SeqCst};
use std::sync::Mutex;

/// Max requests a single combiner executes before handing off (the
/// algorithm's `H` parameter).
const COMBINE_LIMIT: usize = 128;

const OP_NONE: u64 = 0;
const OP_ENQ: u64 = 1;
const OP_DEQ: u64 = 2;

const ST_WAIT: u8 = 0;
const ST_DONE: u8 = 1;
const ST_COMBINER: u8 = 2;

#[repr(align(128))]
struct CcNode {
    op: AtomicU64,
    arg: AtomicU64,
    ret: AtomicU64,
    ret_some: AtomicU64,
    state: AtomicU8,
    next: AtomicPtr<CcNode>,
}

impl CcNode {
    fn boxed() -> *mut CcNode {
        Box::into_raw(Box::new(CcNode {
            op: AtomicU64::new(OP_NONE),
            arg: AtomicU64::new(0),
            ret: AtomicU64::new(0),
            ret_some: AtomicU64::new(0),
            state: AtomicU8::new(ST_COMBINER),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// CC-Synch combining FIFO queue of `u64` values.
pub struct CcQueue {
    /// Tail of the combining list; always points at the current sentinel.
    clist_tail: AtomicPtr<CcNode>,
    /// The sequential queue, touched only by the current combiner.
    inner: UnsafeCell<VecDeque<u64>>,
    /// All nodes ever allocated, so `Drop` can free them (nodes circulate
    /// between threads and the list; individual ownership is not tractable).
    arena: Mutex<Vec<*mut CcNode>>,
}

// SAFETY: `inner` is only accessed by the unique combiner (the CC-Synch
// protocol guarantees mutual exclusion); everything else is atomic.
unsafe impl Send for CcQueue {}
unsafe impl Sync for CcQueue {}

impl CcQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        // The initial sentinel's ST_COMBINER state is the available baton.
        let sentinel = CcNode::boxed();
        CcQueue {
            clist_tail: AtomicPtr::new(sentinel),
            inner: UnsafeCell::new(VecDeque::with_capacity(1024)),
            arena: Mutex::new(vec![sentinel]),
        }
    }

    /// Registers the calling thread (allocates its spare node).
    pub fn register(&self) -> CcHandle<'_> {
        let spare = CcNode::boxed();
        self.arena.lock().unwrap().push(spare);
        CcHandle { q: self, spare }
    }

    /// Executes `op(arg)` through the combining protocol.
    fn combine(&self, my_spare: &mut *mut CcNode, op: u64, arg: u64) -> Option<u64> {
        let next_node = *my_spare;
        // SAFETY: we own the spare node until it is swapped into the list.
        unsafe {
            (*next_node).next.store(ptr::null_mut(), SeqCst);
            (*next_node).state.store(ST_WAIT, SeqCst);
            (*next_node).op.store(OP_NONE, SeqCst);
        }
        let cur = self.clist_tail.swap(next_node, SeqCst);
        // SAFETY: `cur` was the sentinel; it becomes our request node and we
        // are its only writer until `next` is published below.
        unsafe {
            (*cur).op.store(op, SeqCst);
            (*cur).arg.store(arg, SeqCst);
            (*cur).next.store(next_node, SeqCst);
        }
        *my_spare = cur; // the request node becomes the next op's spare
        // Spin until executed or until we inherit the combiner baton.
        // Spin-then-yield: on oversubscribed hosts a pure spin starves the
        // combiner of CPU (CC-Synch assumes a core per thread).
        let mut spins = 0u32;
        // BOUND: wait-edge — requester spins-then-yields until the combiner
        // executes its op or hands it the baton; delegation per pass is
        // capped by COMBINE_LIMIT but waits on the combiner thread to run
        loop {
            // SAFETY: `cur` stays valid (arena-owned).
            match unsafe { (*cur).state.load(SeqCst) } {
                ST_WAIT => {
                    spins += 1;
                    if spins > 128 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                ST_DONE => {
                    let (some, ret) =
                        // SAFETY: `cur` is arena-owned; the combiner
                        // published both results before storing ST_DONE.
                        unsafe { ((*cur).ret_some.load(SeqCst), (*cur).ret.load(SeqCst)) };
                    return (some == 1).then_some(ret);
                }
                _ => break, // ST_COMBINER: our turn to combine
            }
        }
        // Combiner role: execute requests from `cur` onwards until the list
        // runs dry or the combine limit is reached.
        // SAFETY: the combiner has exclusive access to `inner`.
        let inner = unsafe { &mut *self.inner.get() };
        let mut node = cur;
        let mut my_result = None;
        let mut executed = 0usize;
        // BOUND: const — combiner pass executes at most COMBINE_LIMIT
        // delegated ops before passing the baton
        loop {
            // SAFETY: nodes are arena-owned; `next` was published before the
            // requester started spinning.
            let next = unsafe { (*node).next.load(SeqCst) };
            if next.is_null() || executed >= COMBINE_LIMIT {
                break;
            }
            // SAFETY: `node` is arena-owned; its requester published
            // op/arg before linking itself and is now spinning on
            // `state`, so the combiner is the only other accessor.
            let (op_k, arg_k) = unsafe { ((*node).op.load(SeqCst), (*node).arg.load(SeqCst)) };
            let res = match op_k {
                OP_ENQ => {
                    inner.push_back(arg_k);
                    None
                }
                OP_DEQ => inner.pop_front(),
                _ => None,
            };
            executed += 1;
            if node == cur {
                my_result = res;
            } else {
                // Publish the result and release the requester.
                // SAFETY: arena-owned node whose requester reads the
                // results only after observing the ST_DONE store below.
                unsafe {
                    (*node).ret_some.store(res.is_some() as u64, SeqCst);
                    (*node).ret.store(res.unwrap_or(0), SeqCst);
                    (*node).state.store(ST_DONE, SeqCst);
                }
            }
            node = next;
        }
        // Hand the baton to whoever waits on `node` (possibly nobody yet —
        // the next arriving thread will find ST_COMBINER and take over).
        // SAFETY: `node` is arena-owned and stays allocated for the
        // queue's lifetime; a state store is always in-bounds.
        unsafe { (*node).state.store(ST_COMBINER, SeqCst) };
        my_result
    }
}

impl Default for CcQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CcQueue {
    fn drop(&mut self) {
        for &p in self.arena.lock().unwrap().iter() {
            // SAFETY: exclusive access in drop; arena holds every node once.
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

/// Per-thread handle to a [`CcQueue`] (owns the thread's spare node).
pub struct CcHandle<'q> {
    q: &'q CcQueue,
    spare: *mut CcNode,
}

// SAFETY: the spare node pointer is owned by this handle exclusively.
unsafe impl Send for CcHandle<'_> {}

impl CcHandle<'_> {
    /// Enqueues through the combiner.
    pub fn enqueue(&mut self, v: u64) {
        let _ = self.q.combine(&mut self.spare, OP_ENQ, v);
    }

    /// Dequeues through the combiner; `None` when empty.
    pub fn dequeue(&mut self) -> Option<u64> {
        self.q.combine(&mut self.spare, OP_DEQ, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex as StdMutex};

    #[test]
    fn fifo_single_thread() {
        let q = CcQueue::new();
        let mut h = q.register();
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
    fn combiner_baton_passes_between_threads() {
        let q = Arc::new(CcQueue::new());
        let mut hs = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            hs.push(std::thread::spawn(move || {
                let mut h = q.register();
                for i in 0..2000 {
                    h.enqueue(t << 32 | i);
                    h.dequeue().expect("just enqueued, queue can't be empty");
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
    }

    #[test]
    fn mpmc_exact_delivery() {
        let q = Arc::new(CcQueue::new());
        let done = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(StdMutex::new(Vec::new()));
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut h = q.register();
                    for i in 0..3000 {
                        h.enqueue(p << 32 | i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let done = Arc::clone(&done);
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    let mut h = q.register();
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
        assert_eq!(got.len(), 9000);
        let set: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(set.len(), 9000);
    }
}
