//! Bounded memory as an assertion (a foothold for the ROADMAP bounded-memory
//! oracle): what one more shard and one more unbounded list node cost, and
//! what an unbounded queue under drain holds on to — counted by
//! `harness::alloc::CountingAlloc`, which is why this is its own test binary.
//!
//! Both tests read the process-wide live/peak counters, so they take turns
//! ([`measuring`]); nothing else in this binary allocates while one measures.

use harness::alloc::{live_bytes, peak_bytes, reset_peak, CountingAlloc};
use std::mem::size_of;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use wcq::{ShardedWcq, UnboundedWcq, WcqQueue};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Takes this binary's measuring turn: the other test waits (blocked, so
/// not allocating), and libtest's main thread — which allocates while it
/// spawns a test thread or reports a result — is waited out.
fn measuring() -> MutexGuard<'static, ()> {
    let turn = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut seen = live_bytes();
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let now = live_bytes();
        if now == seen {
            return turn;
        }
        seen = now;
    }
}

const ORDER: u32 = 4;
const MAX_THREADS: usize = 2;

/// Heap bytes `build`'s value keeps live (the value itself is returned to
/// the caller's frame and dropped there, so it is not counted).
fn heap_of<Q>(build: impl FnOnce() -> Q) -> usize {
    let before = live_bytes();
    let q = build();
    let held = live_bytes() - before;
    drop(q);
    assert_eq!(live_bytes(), before, "construct/drop must balance");
    held
}

/// What a whole `WcqQueue` costs when boxed: its heap plus its own bytes —
/// the ring pair plus the thread-slot table. A `WcqQueue` carries no
/// parking state (that lives in the channel over it), so a shard or list
/// node that *is* a `WcqQueue` (the shape before the `RingPair` layer)
/// costs exactly this.
fn whole_queue_bytes() -> usize {
    heap_of(|| WcqQueue::<u64>::new(ORDER, MAX_THREADS)) + size_of::<WcqQueue<u64>>()
}

#[test]
fn shards_and_list_nodes_carry_no_parking_state() {
    let _turn = measuring();
    // A shard or node is the two rings and the data array. No queue in
    // the stack carries parking state, so the guard is that neither pays
    // for more than a whole queue: one that grew a per-instance
    // `SyncState` (two cache-padded eventcounts, 256 B on x86-64) would
    // overshoot it.
    let budget = whole_queue_bytes();

    let one = heap_of(|| ShardedWcq::<u64>::new(1, ORDER, MAX_THREADS));
    let two = heap_of(|| ShardedWcq::<u64>::new(2, ORDER, MAX_THREADS));
    assert!(
        two - one <= budget,
        "one more shard costs {} B; a bare ring pair fits in {budget} B",
        two - one
    );

    let q: UnboundedWcq<u64> = UnboundedWcq::new(ORDER, MAX_THREADS);
    let mut h = q.register().unwrap();
    let capacity = 1u64 << ORDER;
    for i in 0..capacity {
        h.enqueue(i);
    }
    let full_ring = live_bytes();
    h.enqueue(capacity); // the first ring is full: appends exactly one node
    let node = live_bytes() - full_ring;
    assert!(node > 0, "capacity + 1 elements must have appended a node");
    assert!(
        node <= budget,
        "one more list node costs {node} B; ring pair + close protocol fits in {budget} B"
    );
}

#[test]
fn unbounded_under_drain_holds_a_bounded_number_of_rings() {
    let _turn = measuring();
    // DESIGN.md §8: memory in use is bounded by the live list, plus
    // `max_threads × HP_PER_THREAD` hazard-held rings, plus the retire
    // list's scan threshold — here (one thread, threshold
    // `2 × HP_PER_THREAD`): 2 + 4 + 8 rings, however long the run.
    const C: usize = 2 + hazard::HP_PER_THREAD + 2 * hazard::HP_PER_THREAD;
    let node_bytes = whole_queue_bytes(); // upper bound on one node

    let q: UnboundedWcq<u64> = UnboundedWcq::new(ORDER, 1);
    let mut h = q.register().unwrap();
    let start = live_bytes();
    reset_peak();
    for round in 0..8u64 {
        // One ring's worth plus one: every round appends a ring, and the
        // drain retires the one before it.
        for i in 0..=(1u64 << ORDER) {
            h.enqueue(round << 32 | i);
        }
        for i in 0..=(1u64 << ORDER) {
            assert_eq!(h.dequeue(), Some(round << 32 | i));
        }
        assert_eq!(h.dequeue(), None);
    }
    let grown = peak_bytes() - start;
    assert!(
        grown <= C * node_bytes,
        "8 fill/drain rounds peaked {grown} B above the idle queue; bound {C} rings = {} B",
        C * node_bytes
    );
    // And the bound is doing work: eight retired rings were not all kept.
    assert!(
        live_bytes() - start < 8 * node_bytes / 2,
        "retired rings are being freed"
    );
}
