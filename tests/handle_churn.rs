//! Handle-churn stress: threads repeatedly register, operate, and drop
//! handles at 4×-core oversubscription while peers run the helping
//! machinery flat out (`WcqConfig::stress`), asserting element
//! conservation and exclusive tid ownership throughout.
//!
//! This is the regression suite for the **quiesce-on-release** protocol:
//! `Drop` for the per-thread handles must wait until no helper is driving
//! the tid's helping records before freeing the slot
//! (`WcqRing::quiesce_record`). Reverting that wait — releasing with a
//! bare `store(false)` — lets a new registrant inherit a record a helper
//! is still replaying; debug builds then trip the
//! `records_are_quiet` assertion in the registration paths (the helper
//! window is deliberately stretched across a scheduler quantum in debug
//! builds, so this suite hits the overlap deterministically rather than
//! once per blue moon).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use wcq::channel;
use wcq::{Hold, ShardedWcq, UnboundedWcq, WcqConfig, WcqHandle, WcqQueue};

/// 4×-core oversubscription, floored so small CI hosts still get enough
/// threads to overlap a helper's drive window with a drop + re-register.
fn churn_workers() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores * 4).max(8)
}

/// Tracks which thread currently owns each tid. Registering claims the
/// tid's flag and asserts nobody else holds it — two live handles on one
/// slot (the failure mode of a broken release) fail here immediately.
struct TidOwners(Vec<AtomicBool>);

impl TidOwners {
    fn new(n: usize) -> Self {
        TidOwners((0..n).map(|_| AtomicBool::new(false)).collect())
    }
    fn claim(&self, tid: usize) {
        assert!(
            !self.0[tid].swap(true, SeqCst),
            "tid {tid} handed out while another handle still owns it"
        );
    }
    /// Release the tracking flag *before* the handle drops: between the
    /// flag release and the slot release nobody else can claim the tid
    /// (the slot is still taken), so this ordering cannot false-positive.
    fn release(&self, tid: usize) {
        assert!(self.0[tid].swap(false, SeqCst), "tid {tid} double-released");
    }
}

/// The shared churn skeleton: `workers` threads each run `rounds` of
/// { register (retry until a slot frees) → a burst of enqueues/dequeues →
/// drop }, with unique values from a global counter. Afterwards the queue
/// is drained and every produced value must have come out exactly once.
fn churn_rounds<H, FReg, FOps>(
    workers: usize,
    rounds: usize,
    register: FReg,
    run_ops: FOps,
    owners: &TidOwners,
) -> (u64, Vec<u64>)
where
    FReg: Fn() -> (H, usize) + Sync,
    FOps: Fn(&mut H, &AtomicU64, &mut Vec<u64>) + Sync,
    H: Send,
{
    let next_value = AtomicU64::new(0);
    let sink = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let mut hs = Vec::new();
        for _ in 0..workers {
            let register = &register;
            let run_ops = &run_ops;
            let next_value = &next_value;
            let sink = &sink;
            hs.push(s.spawn(move || {
                let mut got = Vec::new();
                for _ in 0..rounds {
                    let (mut h, tid) = register();
                    owners.claim(tid);
                    run_ops(&mut h, next_value, &mut got);
                    owners.release(tid);
                    drop(h); // quiesced slot release under fire
                }
                sink.lock().unwrap().extend(got);
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
    });
    (next_value.load(SeqCst), sink.into_inner().unwrap())
}

/// Asserts exact delivery: `consumed` plus `drained` must be precisely the
/// set `0..produced` (unique values ⇒ any loss or duplication is visible).
fn check_conservation(produced: u64, consumed: Vec<u64>, drained: Vec<u64>) {
    let mut all = consumed;
    all.extend(drained);
    assert_eq!(all.len() as u64, produced, "lost or duplicated elements");
    all.sort_unstable();
    for (i, v) in all.iter().enumerate() {
        assert_eq!(*v, i as u64, "value multiset is not exactly 0..produced");
    }
}

/// Per-round op burst shared by the bounded-queue tests: enqueue a small
/// run (skipping fulls), interleave dequeues. Everything enqueued is
/// either consumed here, by a peer, or drained at the end.
const OPS_PER_ROUND: u64 = 32;
const ROUNDS: usize = 200;

/// The wCQ churn scenario, for either way of holding the queue.
fn wcq_churn<H>(q: &WcqQueue<u64>, register: impl Fn() -> Option<WcqHandle<u64, H>> + Sync)
where
    H: Hold<WcqQueue<u64>> + Send,
{
    let owners = TidOwners::new(q.max_threads());
    let (produced, consumed) = churn_rounds(
        churn_workers(),
        ROUNDS,
        || loop {
            match register() {
                Some(h) => {
                    let tid = h.tid();
                    break (h, tid);
                }
                None => std::thread::yield_now(),
            }
        },
        |h, next, got| {
            for _ in 0..OPS_PER_ROUND {
                let v = next.fetch_add(1, SeqCst);
                while h.enqueue(v).is_err() {
                    // Full: make room ourselves so producers never wedge.
                    if let Some(x) = h.dequeue() {
                        got.push(x);
                    }
                }
                if let Some(x) = h.dequeue() {
                    got.push(x);
                }
            }
        },
        &owners,
    );
    let mut h = register().unwrap();
    let drained = std::iter::from_fn(|| h.dequeue()).collect();
    check_conservation(produced, consumed, drained);
}

/// Fewer slots than workers: registration itself churns and handles
/// recycle tids constantly. Stress config keeps the slow path (and so the
/// helpers) engaged on nearly every contended op.
fn churned_wcq() -> WcqQueue<u64> {
    let slots = (churn_workers() / 2).clamp(2, 16);
    WcqQueue::with_config(5, slots, &WcqConfig::stress())
}

#[test]
fn wcq_register_op_drop_churn() {
    let q = churned_wcq();
    wcq_churn(&q, || q.register());
}

#[test]
fn owned_handle_churn() {
    // The same scenario through `register_owned`: every worker's handles
    // hold the queue by `Arc` (tests/handles.rs covers their move into
    // plain spawned threads).
    let q = Arc::new(churned_wcq());
    wcq_churn(&q, || q.register_owned());
}

#[test]
fn sharded_register_op_drop_churn() {
    let workers = churn_workers();
    let slots = (workers / 2).clamp(2, 16);
    let q: ShardedWcq<u64> = ShardedWcq::with_config(4, 4, slots, &WcqConfig::stress());
    let owners = TidOwners::new(slots);
    let (produced, consumed) = churn_rounds(
        workers,
        ROUNDS,
        || loop {
            match q.register() {
                Some(h) => {
                    let tid = h.tid();
                    break (h, tid);
                }
                None => std::thread::yield_now(),
            }
        },
        |h, next, got| {
            for _ in 0..OPS_PER_ROUND {
                let v = next.fetch_add(1, SeqCst);
                while h.enqueue(v).is_err() {
                    if let Some(x) = h.dequeue() {
                        got.push(x);
                    }
                }
                if let Some(x) = h.dequeue() {
                    got.push(x);
                }
            }
        },
        &owners,
    );
    let mut h = q.register().unwrap();
    let drained = std::iter::from_fn(|| h.dequeue()).collect();
    check_conservation(produced, consumed, drained);
}

#[test]
fn unbounded_register_op_drop_churn() {
    // Hazard-slot churn on top of ring churn: tiny stressed rings hand
    // off constantly while the handles (and with them the hazard slots
    // doubling as ring tids) recycle. The drop-path quiesce of the
    // reachable rings' records must keep re-registrants off records that
    // helpers still drive.
    let workers = churn_workers();
    let slots = (workers / 2).clamp(2, 8);
    let q: UnboundedWcq<u64> = UnboundedWcq::with_config(3, slots, &WcqConfig::stress());
    let owners = TidOwners::new(slots);
    let (produced, consumed) = churn_rounds(
        workers,
        ROUNDS,
        || loop {
            match q.register() {
                Some(h) => {
                    let tid = h.tid();
                    break (h, tid);
                }
                None => std::thread::yield_now(),
            }
        },
        |h, next, got| {
            for _ in 0..OPS_PER_ROUND {
                h.enqueue(next.fetch_add(1, SeqCst));
                if let Some(x) = h.dequeue() {
                    got.push(x);
                }
            }
        },
        &owners,
    );
    let mut h = q.register().unwrap();
    let drained = std::iter::from_fn(|| h.dequeue()).collect();
    check_conservation(produced, consumed, drained);
}

#[test]
fn blocking_facade_survives_handle_churn() {
    // The producer sends through a fresh endpoint clone per burst while
    // consumers churn theirs too: each clone takes a thread slot on its
    // first operation and releases it on drop, and the eventcount waiter
    // bookkeeping must survive endpoints coming and going (a stale waiter
    // would deadlock the test).
    let (tx, rx) = channel::over(WcqQueue::<u64>::with_config(4, 4, &WcqConfig::stress()));
    const PER: u64 = 2_000;
    let producer = std::thread::spawn(move || {
        let mut sent = 0;
        while sent < PER {
            let mut burst = tx.clone();
            for _ in 0..50 {
                if sent == PER {
                    break;
                }
                burst.send(sent).unwrap();
                sent += 1;
            }
        }
        // `tx` drops here, the last sender: the channel closes.
    });
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let rx = rx.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                'outer: loop {
                    let mut round = rx.clone();
                    for _ in 0..50 {
                        match round.recv() {
                            Ok(v) => got.push(v),
                            Err(_) => break 'outer,
                        }
                    }
                }
                got
            })
        })
        .collect();
    drop(rx);
    producer.join().unwrap();
    let mut all: Vec<u64> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..PER).collect::<Vec<_>>(), "exact blocking delivery");
}
