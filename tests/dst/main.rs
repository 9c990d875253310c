//! Deterministic-schedule tests (DST): model-checks the stack's trickiest
//! protocols under the shuttle-lite explorer. Compiled only under
//! `RUSTFLAGS="--cfg wcq_dst"`, which routes every atomic in `wcq` and
//! `hazard` through the `wcq::sim` seam (DESIGN.md §12).
//!
//! Each test explores ≥10k schedules (seeded random, bounded preemptions;
//! override with `WCQ_DST_SCHEDULES` / `WCQ_DST_SEED` /
//! `WCQ_DST_PREEMPTIONS`) and is deterministic for a given seed. Failing
//! schedules are minimized and printed as an RLE tape for
//! `shuttle_lite::replay`. The `regressions` module pins minimized
//! schedules from defects the explorer has found.
//!
//! Models, by number: 1 helper drive vs quiesce-on-release, 2 TAG wrap,
//! 3 slot recycle, 4 graft transition, 5 eventcount park vs fenced notify
//! (the wait protocol's thread driver), 6 degraded-mode residue, 7 slot
//! handoff orderings, 8 collector drain, 9 eventcount `listen` orderings,
//! 10 `recv_any` vs the close ripple (the N-lane waitable), 11 the task
//! driver (`Waker` registration through the futures), 12 `recv_any` data
//! vs fenced notify (one waiter fence per round over two lanes), 13 thread
//! slot release vs a send parked for one.
//!
//! Model-size discipline: 2–3 threads, 2–6 operations, ring order ≤ 2,
//! `WcqConfig::stress()` where the helping slow path is under test —
//! the protocols' state machines are small-bounds-reachable (TAG_BITS is
//! 2 under `wcq_dst` for exactly this reason).
#![cfg(wcq_dst)]

use std::sync::Arc;

use shuttle_lite::atomic::Ordering;
use shuttle_lite::{thread, Explorer};
use wcq::{channel, WcqConfig, WcqQueue};

mod regressions;

// ===================================================================
// Model 1: helper drive vs. quiesce-on-release
// ===================================================================

/// Producer publishes slow-path help requests (stress config: patience 1,
/// help every op) and then drops its handle — the PR 5 quiesce-on-release
/// protocol must let any in-flight helper finish driving before the slot
/// is released. Consumer helps on every operation. Exact FIFO delivery.
fn quiesce_release_model() {
    let cfg = WcqConfig::stress();
    let q = Arc::new(WcqQueue::with_config(2, 3, &cfg));
    let qa = q.clone();
    let producer = thread::spawn(move || {
        let mut h = qa.register_owned().expect("producer slot");
        h.enqueue(1u64).unwrap();
        h.enqueue(2u64).unwrap();
        // Drop mid-protocol: helpers may still be driving our record.
    });
    let qb = q.clone();
    let consumer = thread::spawn(move || {
        let mut h = qb.register_owned().expect("consumer slot");
        let mut got = Vec::new();
        while got.len() < 2 {
            match h.dequeue() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        got
    });
    producer.join().unwrap();
    let got = consumer.join().unwrap();
    assert_eq!(got, vec![1, 2], "exact in-order delivery");
    assert_eq!(q.register().expect("all slots released").dequeue(), None);
}

#[test]
fn dst_helper_drive_vs_quiesce_release() {
    Explorer::new("quiesce-release").check(quiesce_release_model);
}

// ===================================================================
// Model 2: TAG wraparound with a stale helper
// ===================================================================

/// `TAG_BITS == 2` under `wcq_dst`, so per-record request tags wrap after
/// four slow-path publishes. Five operations per side force wrap while
/// the peer holds (possibly stale) helping references; the seqlock +
/// phase-2 protocol must never double-apply or lose a request.
fn tag_wrap_model() {
    assert_eq!(wcq::wcq::record::TAG_BITS, 2, "small-bounds tag in dst builds");
    let cfg = WcqConfig::stress();
    let q = Arc::new(WcqQueue::with_config(2, 3, &cfg));
    let qa = q.clone();
    let producer = thread::spawn(move || {
        let mut h = qa.register_owned().expect("producer slot");
        for v in 0..5u64 {
            let mut v = v;
            // Ring order 2 (4 slots) can report full while the consumer
            // lags; bounded occupancy keeps the model small.
            loop {
                match h.enqueue(v) {
                    Ok(()) => break,
                    Err(back) => {
                        v = back;
                        thread::yield_now();
                    }
                }
            }
        }
    });
    let qb = q.clone();
    let consumer = thread::spawn(move || {
        let mut h = qb.register_owned().expect("consumer slot");
        let mut got = Vec::new();
        while got.len() < 5 {
            match h.dequeue() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        got
    });
    producer.join().unwrap();
    let got = consumer.join().unwrap();
    assert_eq!(got, vec![0, 1, 2, 3, 4], "exact delivery across tag wrap");
}

#[test]
fn dst_tag_wrap_with_stale_helper() {
    Explorer::new("tag-wrap").check(tag_wrap_model);
}

// ===================================================================
// Model 3: slot recycle + re-registration
// ===================================================================

/// A thread releases its slot mid-stream and re-registers (recycling the
/// slot, bumping the record's TAG/owner epoch) while the peer may hold a
/// helping reference to the *old* incarnation. Values must be delivered
/// exactly once; the recycled slot must come up clean.
fn slot_recycle_model() {
    let cfg = WcqConfig::stress();
    let q = Arc::new(WcqQueue::with_config(2, 2, &cfg));
    let qa = q.clone();
    let producer = thread::spawn(move || {
        let mut h = qa.register_owned().expect("first registration");
        h.enqueue(10u64).unwrap();
        drop(h); // release + quiesce
        let mut h = qa.register_owned().expect("re-registration");
        h.enqueue(20u64).unwrap();
    });
    let qb = q.clone();
    let consumer = thread::spawn(move || {
        let mut h = qb.register_owned().expect("consumer slot");
        let mut got = Vec::new();
        while got.len() < 2 {
            match h.dequeue() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        got
    });
    producer.join().unwrap();
    let got = consumer.join().unwrap();
    assert_eq!(got, vec![10, 20], "exact delivery across slot recycle");
}

#[test]
fn dst_slot_recycle_and_reregistration() {
    Explorer::new("slot-recycle").check(slot_recycle_model);
}

// ===================================================================
// Model 4: graft mode transition with seated + excess endpoints
// ===================================================================

/// Topology-declared SPSC channel: the seated producer streams over its
/// ring while a second (out-of-declaration) producer forces the
/// FAST→SPINE graft concurrently. Exact delivery and per-producer FIFO
/// must hold across the mode transition; the consumer must drain both the
/// ring lane and the grafted spine.
fn graft_model() {
    let (mut tx, mut rx) = channel::spsc::<u64>(2, 3);
    let mut tx2 = tx.clone(); // beyond the declared 1 producer → graft
    let seated = thread::spawn(move || {
        tx.send(1).unwrap();
        tx.send(2).unwrap();
    });
    let excess = thread::spawn(move || {
        tx2.send(10).unwrap();
        tx2.send(11).unwrap();
    });
    let mut got = Vec::new();
    while got.len() < 4 {
        match rx.try_recv() {
            Ok(v) => got.push(v),
            Err(_) => thread::yield_now(),
        }
    }
    seated.join().unwrap();
    excess.join().unwrap();
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 10, 11], "exact delivery across graft");
    let pos = |v: u64| got.iter().position(|&x| x == v).unwrap();
    assert!(pos(1) < pos(2), "per-producer FIFO (seated): {got:?}");
    assert!(pos(10) < pos(11), "per-producer FIFO (excess): {got:?}");
}

#[test]
fn dst_graft_mode_transition() {
    Explorer::new("graft-transition").check(graft_model);
}

// ===================================================================
// Model 5: eventcount park vs. fenced notify
// ===================================================================

/// Blocking rendezvous over a capacity-2 ring: the consumer parks on
/// empty, the producer parks on full, and each side's wake rides the
/// eventcount's Dekker pairing. `wcq_dst` builds route the asymmetric
/// membarrier shortcut through the simulator's modeled heavyweight fence
/// (`shuttle_lite::membarrier`), so under `WCQ_DST_WEAK=1` this model
/// checks the real production pairing: relaxed waiter loads against the
/// notifier's fence-free fast path. Any lost wakeup parks a thread
/// forever, which the explorer reports as a deadlock.
fn eventcount_model() {
    let (mut tx, mut rx) = channel::spsc::<u64>(1, 2);
    let consumer = thread::spawn(move || {
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        got
    });
    for v in 0..3u64 {
        tx.send(v).unwrap(); // capacity 2: may park on full
    }
    drop(tx); // close: consumer must wake and drain, then see Closed
    let got = consumer.join().unwrap();
    assert_eq!(got, vec![0, 1, 2], "exact delivery, no lost wakeup");
}

#[test]
fn dst_eventcount_park_vs_fenced_notify() {
    Explorer::new("eventcount-park").check(eventcount_model);
}

// ===================================================================
// Model 6: degraded mode — residue stranded behind the consumer seat
// ===================================================================

/// DESIGN.md §11 bugfix model. The consumer-seat holder takes one value
/// and drops with residue still in its ring while the channel is already
/// closed. An out-of-declaration receiver (a clone past the declared
/// 1-consumer topology) cannot sweep the rings while the seat is held —
/// it must *wait out* that window, inherit the seat, and drain the
/// residue, never reporting `Closed` while a value is stranded.
///
/// Pre-fix, `recv` mapped "closed + nothing I can reach" straight to
/// `Closed`, losing the residue whenever the excess receiver ran between
/// the close and the holder's drop (regression `degraded_residue` pins
/// the explorer's minimized schedule for exactly that interleaving).
///
/// The waits park: either receiver may find the residue behind the
/// other's seat and sleep on `not_empty`. If `rx2` wins the seat it
/// drains both values and stays alive until `holder.join()`, so the
/// holder thread's `rx`, parked on residue that is gone, is woken only by
/// the notify `rx2` owes on reaching `Closed`.
fn degraded_residue_model() {
    let (mut tx, mut rx) = channel::spsc::<u64>(2, 3);
    let mut rx2 = rx.clone(); // beyond the declared 1 consumer
    tx.send(1).unwrap();
    tx.send(2).unwrap();
    drop(tx); // closed with both values in the declared ring
    let holder = thread::spawn(move || {
        // Claims the consumer seat (first operation), takes one value,
        // then drops the endpoint with the other still in the ring —
        // unless `rx2` won the seat race, in which case it sees Closed.
        rx.recv().ok()
    });
    let mut got = Vec::new();
    loop {
        match rx2.recv() {
            Ok(v) => got.push(v),
            Err(e) => {
                assert_eq!(e, wcq::sync::RecvError::Closed);
                break;
            }
        }
    }
    got.extend(holder.join().unwrap());
    got.sort_unstable();
    assert_eq!(got, vec![1, 2], "residue must be inherited, not dropped");
}

#[test]
fn dst_degraded_residue_inheritance() {
    Explorer::new("degraded-residue").check(degraded_residue_model);
}

// ===================================================================
// Model 7: registration-slot handoff — the SeqCst→Acquire/Release
// downgrade's proof obligation (argued at `SlotTable::claim`/`release`)
// ===================================================================

/// Distilled `SlotTable::claim`/`release` (ringpair.rs): the state a
/// thread slot hands between owners, reduced to one tracked cell. The
/// owner mutates the record state and releases the slot flag; the
/// claimant CASes the flag back (one attempt, exactly the registration
/// scan's shape) and mutates the same state. The release store must be
/// at least `Release` and the claim CAS at least `Acquire` — exactly
/// what the queue now uses instead of `SeqCst`. Running the pair with
/// either side `Relaxed` is the downgrade's wrong-by-construction
/// variant: the weak model must flag the cell race (regression
/// `slot_downgrade_*` pins the minimized tape).
fn slot_downgrade_model(release_o: Ordering, claim_ok: Ordering) {
    use shuttle_lite::atomic::AtomicBool;
    use shuttle_lite::cell::UnsafeCell;
    struct Slot {
        occupied: AtomicBool,
        record: UnsafeCell<u64>,
    }
    // SAFETY: the access discipline under test IS the slot protocol.
    unsafe impl Sync for Slot {}
    let slot = Arc::new(Slot {
        occupied: AtomicBool::new(true), // owner currently registered
        record: UnsafeCell::new(0),
    });
    let s2 = slot.clone();
    let claimant = thread::spawn(move || {
        // Registration scan: skip-load is Relaxed, claim CAS success is
        // the ordering under test.
        if !s2.occupied.load(Ordering::Relaxed)
            && s2
                .occupied
                .compare_exchange(false, true, claim_ok, Ordering::Relaxed)
                .is_ok()
        {
            s2.record.with_mut(|p| unsafe { *p += 1 });
        }
    });
    // Owner: quiesce (mutate record state), then release the slot.
    slot.record.with_mut(|p| unsafe { *p += 1 });
    slot.occupied.store(false, release_o);
    claimant.join().unwrap();
}

/// The downgraded orderings are sufficient: no race, ≥10k weak schedules.
#[test]
fn dst_slot_handoff_release_acquire_is_sufficient() {
    Explorer::new("slot-downgrade")
        .weak(true)
        .check(|| slot_downgrade_model(Ordering::Release, Ordering::Acquire));
}

/// And nothing weaker is: relaxing the release store (one notch below
/// what `SlotTable::release` uses) must be flagged as a data race. This is the
/// executable revert-verification for the downgrade — if the weak engine
/// ever stops seeing this, the downgrade's evidence is void.
#[test]
fn dst_slot_handoff_relaxed_release_is_flagged() {
    let f = Explorer::new("slot-downgrade-wrong")
        .weak(true)
        .find_failure(|| slot_downgrade_model(Ordering::Relaxed, Ordering::Acquire))
        .expect("weak model must flag the relaxed slot release");
    assert!(f.message.contains("data race"), "wrong failure: {f}");
}

// ===================================================================
// Model 9: eventcount listen — the SeqCst→Relaxed downgrade's proof
// obligation (argued at `Eventcount::listen`)
// ===================================================================

/// Distilled `Eventcount` (sync.rs): epoch + waiter-count Dekker pair +
/// mutexed waiter list, with a payload cell standing in for "the state the
/// notification advertises". The waiter snapshots the epoch (`listen`),
/// probes, registers under the mutex (re-checking the epoch), re-probes,
/// and parks until the epoch moves; the notifier publishes the payload,
/// raises `ready`, and — seeing a nonzero waiter count — bumps the epoch
/// under the mutex and unparks.
///
/// The downgrade's claim is an *asymmetry between the two epoch loads*:
/// the **snapshot** (`listen_o`, now `Relaxed` in production) is not part
/// of any synchronization argument — a stale key at worst bounces off the
/// under-mutex re-check and retries — while the **park-exit observation**
/// (`exit_o`) is the acquire edge that carries the notifier's payload into
/// the waiter's view. Running the snapshot `Relaxed` must be clean over
/// ≥10k weak schedules; running the *exit* load `Relaxed` (one notch below
/// the `SeqCst` of `Eventcount::moved_past`, which the thread driver's one
/// park site sleeps on) must be flagged as a data
/// race on the payload — the executable revert-verification that the
/// right load was downgraded.
fn ec_listen_model(listen_o: Ordering, exit_o: Ordering) {
    use shuttle_lite::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    use shuttle_lite::cell::UnsafeCell;
    use shuttle_lite::sync::Mutex;
    struct Ec {
        epoch: AtomicU64,
        nwaiters: AtomicUsize,
        waiters: Mutex<Vec<thread::Thread>>,
        ready: AtomicBool,
        payload: UnsafeCell<u64>,
    }
    // SAFETY: the payload access discipline under test IS the eventcount
    // protocol; the tracked cell exists to let the race detector judge it.
    unsafe impl Sync for Ec {}
    let ec = Arc::new(Ec {
        epoch: AtomicU64::new(0),
        nwaiters: AtomicUsize::new(0),
        waiters: Mutex::new(Vec::new()),
        ready: AtomicBool::new(false),
        payload: UnsafeCell::new(0),
    });
    let e2 = ec.clone();
    let waiter = thread::spawn(move || loop {
        let key = e2.epoch.load(listen_o); // listen(): the downgrade
        if e2.ready.load(Ordering::SeqCst) {
            // Probe-path return: ready was observed through an SC load,
            // which orders the notifier's payload write into our view.
            return e2.payload.with(|p| unsafe { *p });
        }
        {
            let mut l = e2.waiters.lock().unwrap();
            if e2.epoch.load(Ordering::SeqCst) != key {
                continue; // stale snapshot: refuse the key, re-probe
            }
            l.push(thread::current());
            e2.nwaiters.store(l.len(), Ordering::SeqCst); // Dekker half
        }
        if e2.ready.load(Ordering::SeqCst) {
            // Post-registration re-probe (the condition re-check every
            // caller performs): cancel and take the probe-path return.
            let mut l = e2.waiters.lock().unwrap();
            l.clear();
            e2.nwaiters.store(0, Ordering::SeqCst);
            drop(l);
            return e2.payload.with(|p| unsafe { *p });
        }
        while e2.epoch.load(exit_o) == key {
            thread::park();
        }
        // Woken: trust the notification the epoch move advertises.
        return e2.payload.with(|p| unsafe { *p });
    });
    // Notifier: publish the payload, raise ready, then notify_all.
    ec.payload.with_mut(|p| unsafe { *p = 7 });
    ec.ready.store(true, Ordering::SeqCst);
    if ec.nwaiters.load(Ordering::SeqCst) != 0 {
        let woken = {
            let mut l = ec.waiters.lock().unwrap();
            ec.epoch.fetch_add(1, Ordering::SeqCst);
            ec.nwaiters.store(0, Ordering::SeqCst);
            std::mem::take(&mut *l)
        };
        for t in woken {
            t.unpark();
        }
    }
    assert_eq!(waiter.join().unwrap(), 7, "payload visible to the waiter");
}

/// The production orderings are sufficient: `listen` at `Relaxed`, park
/// exit at `SeqCst` — no race, no lost wakeup, ≥10k weak schedules.
#[test]
fn dst_eventcount_listen_relaxed_is_sufficient() {
    Explorer::new("ec-listen-downgrade")
        .weak(true)
        .check(|| ec_listen_model(Ordering::Relaxed, Ordering::SeqCst));
}

/// And the snapshot is the *only* epoch load that tolerates `Relaxed`:
/// weakening the park-exit observation instead severs the acquire edge
/// that publishes the notifier's state, and the weak engine must flag the
/// payload race. If this ever stops firing, the downgrade's evidence —
/// "the engine would have caught a wrong choice of load" — is void.
#[test]
fn dst_eventcount_park_exit_relaxed_is_flagged() {
    let f = Explorer::new("ec-listen-downgrade-wrong")
        .weak(true)
        .find_failure(|| ec_listen_model(Ordering::Relaxed, Ordering::Relaxed))
        .expect("weak model must flag the relaxed park-exit load");
    assert!(f.message.contains("data race"), "wrong failure: {f}");
}

// ===================================================================
// Explorer sanity: determinism of the whole DST harness
// ===================================================================

/// The schedule stream is a pure function of the seed: two explorations
/// of a failing model must report byte-identical minimized schedules.
/// Guards the seed-replay contract the regression tests depend on.
#[test]
fn dst_seed_replay_is_deterministic() {
    fn racy() {
        use shuttle_lite::atomic::{AtomicU64, Ordering::SeqCst};
        let n = Arc::new(AtomicU64::new(0));
        let n2 = n.clone();
        let t = thread::spawn(move || {
            let v = n2.load(SeqCst);
            n2.store(v + 1, SeqCst);
        });
        let v = n.load(SeqCst);
        n.store(v + 1, SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(SeqCst), 2, "planted lost update");
    }
    let find = || {
        Explorer::new("determinism")
            .seed(0xd57)
            .schedules(2_000)
            .find_failure(racy)
            .expect("planted race must be found")
    };
    let a = find();
    let b = find();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.schedule_index, b.schedule_index);
    // And the minimized schedule replays to the same failure.
    let r = std::panic::catch_unwind(|| shuttle_lite::replay(&a.schedule, racy));
    assert!(r.is_err(), "minimized schedule must reproduce");
}

// ===================================================================
// Model 8: collector drain — deadline and pause flushes vs the close
// ===================================================================

/// The span-collector drain path (DESIGN.md §14) at DST scale: one
/// producer submits three spans and drops its handle (starting the
/// refcount close ripple) while the batching worker races it with
/// flushes and the exporter stage races both with injected failures.
/// The explorer owns every interleaving of submit / flush / close /
/// final-drain; the invariant is the crate's conservation contract —
/// every accepted span exported exactly once, none lost in a batch that
/// a close overtook, none duplicated by a retry.
///
/// `flush_after` is pinned to the two deterministic extremes so the
/// branch structure is a pure function of the schedule: `ZERO` forces
/// the deadline-flush path on every pass (a flush can interleave with
/// the close between any two submits), `HOLD` (an hour) disables it so
/// a partial batch ships by pause — two empty sweeps around the grace
/// wait, which is one yield under DST — with the close landing before,
/// between or after those sweeps (a pause flush, or the drain flush once
/// every lane is closed).
/// `fail_every` is chosen against a 2-attempt budget such that every
/// failed batch's retry lands: faults reorder work but must not drop it.
fn collector_drain_model(flush_after: std::time::Duration, fail_every: u64) {
    use collector::{
        Collector, CollectorConfig, FailEvery, RetryPolicy, ShedPolicy, Span, VecExporter,
    };
    use std::time::Duration;

    let cfg = CollectorConfig {
        shards: 1,
        lane_order: 2,
        producers: 1,
        workers: 1,
        batch_max: 2,
        flush_after,
        shed: ShedPolicy::Block,
        retry: RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        },
        export_order: 2,
        latency_reservoir: 4,
        ..CollectorConfig::default()
    };
    let (col, mut tx) =
        Collector::spawn(cfg, VecExporter::default(), Arc::new(FailEvery::new(fail_every)));
    let producer = thread::spawn(move || {
        for id in 1..=3u64 {
            assert!(tx.submit(Span::new(0, id)), "Block policy accepts");
        }
        // Handle drops here: the close ripple races the worker's flush.
    });
    producer.join().unwrap();
    let (report, exporter) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.accepted, 3);
    assert_eq!(m.dropped, 0, "retry budget covers this fault profile");
    assert_eq!(m.inflight(), 0, "drain may not leave residue");
    assert!(m.conserved(), "count+checksum conservation: {m:?}");
    let mut ids: Vec<u64> = exporter.spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2, 3], "exactly-once export across the race");
}

/// Deadline-flush path armed on every pass (ZERO), faults on every other
/// export attempt.
#[test]
fn dst_collector_deadline_flush_vs_drain() {
    Explorer::new("collector-drain-deadline")
        .check(|| collector_drain_model(std::time::Duration::ZERO, 2));
}

/// Deadline disabled: a pause flush or the shutdown drain ships the
/// buffered partial batch, racing the close ripple; a fault on that
/// export must still retry through, not leak the batch.
#[test]
fn dst_collector_shutdown_drain_ships_partial_batch() {
    Explorer::new("collector-drain-hold")
        .check(|| collector_drain_model(std::time::Duration::from_secs(3_600), 2));
}

// ===================================================================
// Model 10: recv_any vs the close ripple
// ===================================================================

/// A receiver parked in `recv_any` with no deadline over two idle lanes
/// while their senders drop. `close` notifies only registered waiters,
/// so a close that lands between `recv_any`'s probe and its registration
/// bumps no epoch: the post-registration re-probe is the only place the
/// receiver can still learn of it. Missing that parks the thread forever
/// — the collector's idle worker at shutdown — which the explorer
/// reports as a deadlock.
fn recv_any_close_model() {
    use wcq::sync::RecvError;
    let (tx_a, rx_a) = channel::spsc::<u64>(1, 2);
    let (tx_b, rx_b) = channel::spsc::<u64>(1, 2);
    let receiver = thread::spawn(move || {
        let mut lanes = [rx_a, rx_b];
        channel::recv_any(&mut lanes, None)
    });
    drop(tx_a);
    drop(tx_b);
    assert_eq!(receiver.join().unwrap(), Err(RecvError::Closed));
}

#[test]
fn dst_recv_any_vs_close() {
    Explorer::new("recv-any-close").check(recv_any_close_model);
}

// ===================================================================
// Model 11: the task driver — Waker registration vs fenced notify
// ===================================================================

/// Model 5's rendezvous driven through the futures instead of the
/// blocking calls: each side is a task on `block_on`, so what the round
/// enrolls is a `Waker` (kept across polls, refreshed in place on a
/// re-poll, cancelled on completion) rather than a thread handle, and a
/// wake is `Waker::wake` → unpark of the executor thread. Same ring
/// (capacity 2, three values: both edges park), same oracle: exact
/// in-order delivery, and a lost wake is a deadlock the explorer reports.
fn task_driver_model() {
    use wcq::sync::block_on;
    let (mut tx, mut rx) = channel::spsc::<u64>(1, 2);
    let consumer = thread::spawn(move || {
        let mut got = Vec::new();
        while let Ok(v) = block_on(rx.recv_async()) {
            got.push(v);
        }
        got
    });
    for v in 0..3u64 {
        block_on(tx.send_async(v)).unwrap(); // capacity 2: may pend on full
    }
    drop(tx); // close: the pending recv must be woken, drain, see Closed
    let got = consumer.join().unwrap();
    assert_eq!(got, vec![0, 1, 2], "exact delivery, no lost wake");
}

#[test]
fn dst_task_driver_waker_vs_fenced_notify() {
    Explorer::new("task-driver").check(task_driver_model);
}

// ===================================================================
// Model 12: recv_any data vs fenced notify over two lanes
// ===================================================================

/// A receiver loops `recv_any` with no deadline over two SPSC lanes while
/// each lane's sender sends one value from its own thread and drops. The
/// lanes publish by plain stores and notify through the fence-free
/// `notify_all_fenced`, so every data wake rests on the asymmetric fence,
/// and one round over two lanes issues that fence once, after both
/// registrations: under `WCQ_DST_WEAK=1` this checks that one barrier
/// covers both lanes' count stores. A lost data wake parks the receiver
/// forever, which the explorer reports as a deadlock.
///
/// Idle clones hold both lanes open until both values are in. Without
/// them each sender's drop would close its lane, and `close` reaches
/// registered waiters through a `SeqCst` pair that needs no asymmetric
/// fence — it would wake the receiver anyway and hide the lost wake (with
/// the round's fence deleted, the model then stays green).
fn recv_any_data_model() {
    use wcq::sync::RecvError;
    let (tx_a, rx_a) = channel::spsc::<u64>(1, 2);
    let (tx_b, rx_b) = channel::spsc::<u64>(1, 2);
    let mut open = Some((tx_a.clone(), tx_b.clone()));
    let senders: Vec<_> = [(tx_a, 10u64), (tx_b, 20)]
        .into_iter()
        .map(|(mut tx, v)| thread::spawn(move || tx.send(v).unwrap()))
        .collect();
    let mut lanes = [rx_a, rx_b];
    let mut got = Vec::new();
    let end = loop {
        match channel::recv_any(&mut lanes, None) {
            Ok(lane_and_value) => got.push(lane_and_value),
            Err(e) => break e,
        }
        if got.len() == 2 {
            drop(open.take()); // the last senders: both lanes close
        }
    };
    for s in senders {
        s.join().unwrap();
    }
    assert_eq!(end, RecvError::Closed);
    got.sort_unstable();
    assert_eq!(got, vec![(0, 10), (1, 20)], "both values, each from its lane");
}

#[test]
fn dst_recv_any_data_vs_fenced_notify() {
    Explorer::new("recv-any-data").check(recv_any_data_model);
}

// ===================================================================
// Model 13: thread-slot release vs a send parked for one
// ===================================================================

/// A channel with one thread slot: `tx` holds it, and a clone's `send` on
/// another thread finds none. Its probe tries `register` itself, so "no
/// slot" is an ordinary `Wait` on `not_full` — the clone parks like a
/// sender facing a full queue. The wake is `tx`'s drop: the slot release
/// (a plain `Release` store in `SlotTable::release`), then the fenced
/// notify of both lanes. Under `WCQ_DST_WEAK=1` this checks that the
/// asymmetric fence covers the release store; without the notify, the
/// parked clone sleeps forever, which the explorer reports as a deadlock.
fn slot_wait_model() {
    use wcq::sync::RecvError;
    let (mut tx, mut rx) = channel::over(WcqQueue::<u64>::new(1, 1));
    tx.send(1).unwrap(); // takes the only thread slot
    let mut tx2 = tx.clone(); // a clone takes none until it operates
    let waiter = thread::spawn(move || tx2.send(2).unwrap());
    drop(tx); // releases the slot, then notifies
    waiter.join().unwrap(); // `tx2` drops with the thread: the slot frees
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.recv(), Ok(2));
    assert_eq!(rx.recv(), Err(RecvError::Closed));
}

#[test]
fn dst_slot_release_wakes_parked_send() {
    Explorer::new("slot-wait").check(slot_wait_model);
}
