//! Property tests: every queue, driven single-threaded by an arbitrary
//! operation string, must agree exactly with the `VecDeque` oracle.
//! This pins down the *sequential* semantics (FIFO order, full/empty
//! behaviour, value fidelity) that the concurrent tests build upon.

use harness::model::SeqModel;
use proptest::prelude::*;
use std::time::Duration;
use wcq::sync::{RecvError, SendError};

#[derive(Clone, Debug)]
enum Op {
    Enq(u64),
    Deq,
}

fn ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![(0u64..1_000_000).prop_map(Op::Enq), Just(Op::Deq),],
        0..max_len,
    )
}

/// Op string extended with the batch API (tentpole: batch ops must agree
/// with the oracle exactly, including the partial-batch full/empty edges).
#[derive(Clone, Debug)]
enum BOp {
    Enq(u64),
    Deq,
    EnqBatch(Vec<u64>),
    DeqBatch(usize),
}

fn batch_ops(max_len: usize) -> impl Strategy<Value = Vec<BOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..1_000_000).prop_map(BOp::Enq),
            Just(BOp::Deq),
            prop::collection::vec(0u64..1_000_000, 0..24).prop_map(BOp::EnqBatch),
            (0usize..24).prop_map(BOp::DeqBatch),
        ],
        0..max_len,
    )
}

/// Sharded op string: every op names the handle that performs it, so the
/// interleaving exercises all affinity shards and the rotating dequeue.
/// `usize` payloads are decoded as `(handle, size)` pairs.
#[derive(Clone, Debug)]
enum SOp {
    Enq(usize),
    Deq(usize),
    EnqBatch(usize, usize),
    DeqBatch(usize, usize),
}

fn sharded_ops(handles: usize, max_len: usize) -> impl Strategy<Value = Vec<SOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..handles).prop_map(SOp::Enq),
            (0usize..handles).prop_map(SOp::Deq),
            (0usize..handles * 16).prop_map(move |x| SOp::EnqBatch(x % handles, x / handles)),
            (0usize..handles * 16).prop_map(move |x| SOp::DeqBatch(x % handles, x / handles)),
        ],
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn wcq_matches_model(ops in ops(400), order in 2u32..7) {
        let q: wcq::WcqQueue<u64> = wcq::WcqQueue::new(order, 1);
        let mut h = q.register().unwrap();
        let mut model = SeqModel::bounded(1 << order);
        for op in ops {
            match op {
                Op::Enq(v) => {
                    let got = h.enqueue(v).is_ok();
                    let want = model.enqueue(v);
                    prop_assert_eq!(got, want, "enqueue({}) full-disagreement", v);
                }
                Op::Deq => {
                    prop_assert_eq!(h.dequeue(), model.dequeue());
                }
            }
        }
        // Drain both to the end.
        loop {
            let (a, b) = (h.dequeue(), model.dequeue());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    #[test]
    fn wcq_stress_config_matches_model(ops in ops(300), order in 2u32..5) {
        let q: wcq::WcqQueue<u64> =
            wcq::WcqQueue::with_config(order, 1, &wcq::WcqConfig::stress());
        let mut h = q.register().unwrap();
        let mut model = SeqModel::bounded(1 << order);
        for op in ops {
            match op {
                Op::Enq(v) => {
                    prop_assert_eq!(h.enqueue(v).is_ok(), model.enqueue(v));
                }
                Op::Deq => {
                    prop_assert_eq!(h.dequeue(), model.dequeue());
                }
            }
        }
    }

    #[test]
    fn wcq_batch_ops_match_model(ops in batch_ops(300), order in 2u32..7) {
        let q: wcq::WcqQueue<u64> = wcq::WcqQueue::new(order, 1);
        let mut h = q.register().unwrap();
        let mut model = SeqModel::bounded(1 << order);
        for op in ops {
            match op {
                BOp::Enq(v) => {
                    prop_assert_eq!(h.enqueue(v).is_ok(), model.enqueue(v));
                }
                BOp::Deq => {
                    prop_assert_eq!(h.dequeue(), model.dequeue());
                }
                BOp::EnqBatch(vs) => {
                    let mut items = vs.clone();
                    let n = h.enqueue_batch(&mut items);
                    let mut want = 0;
                    for &v in &vs {
                        if !model.enqueue(v) { break; }
                        want += 1;
                    }
                    prop_assert_eq!(n, want, "batch enqueue count");
                    prop_assert_eq!(&items[..], &vs[want..], "rejects keep order");
                }
                BOp::DeqBatch(max) => {
                    let mut out = Vec::new();
                    let n = h.dequeue_batch(&mut out, max);
                    let want: Vec<u64> =
                        (0..max).map_while(|_| model.dequeue()).collect();
                    prop_assert_eq!(n, want.len(), "batch dequeue count");
                    prop_assert_eq!(out, want, "batch dequeue order");
                }
            }
        }
        // Drain both to the end through the batch path.
        let mut out = Vec::new();
        h.dequeue_batch(&mut out, 1 << order);
        let mut want = Vec::new();
        while let Some(v) = model.dequeue() { want.push(v); }
        prop_assert_eq!(out, want);
    }

    #[test]
    fn wcq_batch_stress_config_matches_model(ops in batch_ops(200), order in 2u32..5) {
        let q: wcq::WcqQueue<u64> =
            wcq::WcqQueue::with_config(order, 1, &wcq::WcqConfig::stress());
        let mut h = q.register().unwrap();
        let mut model = SeqModel::bounded(1 << order);
        for op in ops {
            match op {
                BOp::Enq(v) => {
                    prop_assert_eq!(h.enqueue(v).is_ok(), model.enqueue(v));
                }
                BOp::Deq => {
                    prop_assert_eq!(h.dequeue(), model.dequeue());
                }
                BOp::EnqBatch(vs) => {
                    let mut items = vs.clone();
                    let n = h.enqueue_batch(&mut items);
                    let mut want = 0;
                    for &v in &vs {
                        if !model.enqueue(v) { break; }
                        want += 1;
                    }
                    prop_assert_eq!(n, want);
                }
                BOp::DeqBatch(max) => {
                    let mut out = Vec::new();
                    h.dequeue_batch(&mut out, max);
                    let want: Vec<u64> =
                        (0..max).map_while(|_| model.dequeue()).collect();
                    prop_assert_eq!(out, want);
                }
            }
        }
    }

    #[test]
    fn sharded_wcq_matches_per_shard_oracle(ops in sharded_ops(4, 300), order in 2u32..5) {
        // 4 shards, 4 handles — handle i's affinity is shard i. The oracle
        // is one VecDeque per shard: global delivery must be the exact
        // multiset and every dequeued value must be the front of its
        // shard's deque (per-shard FIFO). Values are unique by counter, so
        // "its shard" is unambiguous.
        const SHARDS: usize = 4;
        let q: wcq::ShardedWcq<u64> = wcq::ShardedWcq::new(SHARDS, order, SHARDS);
        let mut hs: Vec<_> = (0..SHARDS).map(|_| q.register().unwrap()).collect();
        let mut oracle: Vec<std::collections::VecDeque<u64>> =
            (0..SHARDS).map(|_| Default::default()).collect();
        let cap = 1usize << order;
        let mut next = 0u64;
        let mut balance = 0i64; // enqueued minus dequeued
        let pop_checked = |oracle: &mut Vec<std::collections::VecDeque<u64>>, v: u64|
            -> Result<(), TestCaseError> {
            let s = oracle
                .iter()
                .position(|d| d.front() == Some(&v));
            prop_assert!(s.is_some(), "value {} is not at the front of any shard", v);
            oracle[s.unwrap()].pop_front();
            Ok(())
        };
        for op in ops {
            match op {
                SOp::Enq(hi) => {
                    let shard = hs[hi].affinity();
                    let ok = hs[hi].enqueue(next).is_ok();
                    prop_assert_eq!(ok, oracle[shard].len() < cap, "full disagreement");
                    if ok {
                        oracle[shard].push_back(next);
                        next += 1;
                        balance += 1;
                    }
                }
                SOp::Deq(hi) => {
                    match hs[hi].dequeue() {
                        Some(v) => {
                            pop_checked(&mut oracle, v)?;
                            balance -= 1;
                        }
                        None => {
                            prop_assert!(
                                oracle.iter().all(|d| d.is_empty()),
                                "reported empty with elements present"
                            );
                        }
                    }
                }
                SOp::EnqBatch(hi, len) => {
                    let shard = hs[hi].affinity();
                    let mut items: Vec<u64> = (next..next + len as u64).collect();
                    let n = hs[hi].enqueue_batch(&mut items);
                    let want = len.min(cap - oracle[shard].len());
                    prop_assert_eq!(n, want, "batch enqueue count vs shard space");
                    for v in next..next + n as u64 {
                        oracle[shard].push_back(v);
                    }
                    next += len as u64; // burn ids for rejects too (uniqueness)
                    balance += n as i64;
                }
                SOp::DeqBatch(hi, max) => {
                    let mut out = Vec::new();
                    let n = hs[hi].dequeue_batch(&mut out, max);
                    let total: usize = oracle.iter().map(|d| d.len()).sum();
                    prop_assert_eq!(n, max.min(total), "batch dequeue count");
                    for v in out {
                        pop_checked(&mut oracle, v)?;
                        balance -= 1;
                    }
                }
            }
        }
        // Global multiset equality: drain everything and account exactly.
        let mut drained = 0i64;
        for h in hs.iter_mut() {
            while let Some(v) = h.dequeue() {
                pop_checked(&mut oracle, v)?;
                drained += 1;
            }
        }
        prop_assert_eq!(balance, drained, "lost or duplicated values");
        prop_assert!(oracle.iter().all(|d| d.is_empty()));
    }

    #[test]
    fn wcq_zero_timeout_facade_matches_model(ops in ops(400), order in 2u32..7) {
        // Single-threaded, a zero deadline makes the blocking surface a
        // pure try-op with the round's first look and timeout path in the
        // loop: send_timeout(v, 0) must agree with the oracle's full answer
        // (returning the value), recv_timeout(0) with its empty answer —
        // the sequential half of the element-conservation claim. That an
        // expired deadline never registers a waiter is pinned by `sync`'s
        // `expired_deadline_never_registers`. Two thread slots: one per
        // endpoint.
        let (mut tx, mut rx) = wcq::channel::over(wcq::WcqQueue::<u64>::new(order, 2));
        let mut model = SeqModel::bounded(1 << order);
        for op in ops {
            match op {
                Op::Enq(v) => {
                    let got = tx.send_timeout(v, Duration::ZERO);
                    if model.enqueue(v) {
                        prop_assert_eq!(got, Ok(()));
                    } else {
                        prop_assert_eq!(got, Err(SendError::Timeout(v)),
                            "full must time out and conserve the value");
                    }
                }
                Op::Deq => {
                    match rx.recv_timeout(Duration::ZERO) {
                        Ok(v) => prop_assert_eq!(Some(v), model.dequeue()),
                        Err(e) => {
                            prop_assert_eq!(e, RecvError::Timeout, "open channel: only Timeout");
                            prop_assert_eq!(model.dequeue(), None, "timed out with data present");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_channel_matches_model(ops in batch_ops(300), order in 2u32..7) {
        // The channel endpoints must agree with the oracle exactly through
        // the whole non-parking surface: try ops, zero-deadline blocking
        // ops (full registration/cancel machinery), and batches. Two
        // thread slots: one per endpoint, acquired lazily.
        use wcq::channel::{TryRecvError, TrySendError};
        let (mut tx, mut rx) = wcq::channel::bounded::<u64>(order, 2);
        let mut model = SeqModel::bounded(1 << order);
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                BOp::Enq(v) => {
                    // Alternate try_send and zero-deadline send: both must
                    // track the oracle's full answer and conserve values.
                    if i % 2 == 0 {
                        match tx.try_send(v) {
                            Ok(()) => prop_assert!(model.enqueue(v)),
                            Err(TrySendError::Full(back)) => {
                                prop_assert_eq!(back, v);
                                prop_assert!(!model.enqueue(v), "spurious full");
                            }
                            Err(TrySendError::Closed(_)) => prop_assert!(false, "never closed"),
                        }
                    } else {
                        match tx.send_timeout(v, Duration::ZERO) {
                            Ok(()) => prop_assert!(model.enqueue(v)),
                            Err(SendError::Timeout(back)) => {
                                prop_assert_eq!(back, v);
                                prop_assert!(!model.enqueue(v), "spurious full");
                            }
                            Err(SendError::Closed(_)) => prop_assert!(false, "never closed"),
                        }
                    }
                }
                BOp::Deq => {
                    if i % 2 == 0 {
                        match rx.try_recv() {
                            Ok(v) => prop_assert_eq!(Some(v), model.dequeue()),
                            Err(TryRecvError::Empty) => prop_assert_eq!(model.dequeue(), None),
                            Err(TryRecvError::Closed) => prop_assert!(false, "never closed"),
                        }
                    } else {
                        match rx.recv_timeout(Duration::ZERO) {
                            Ok(v) => prop_assert_eq!(Some(v), model.dequeue()),
                            Err(RecvError::Timeout) => prop_assert_eq!(model.dequeue(), None),
                            Err(RecvError::Closed) => prop_assert!(false, "never closed"),
                        }
                    }
                }
                BOp::EnqBatch(vs) => {
                    let mut items = vs.clone();
                    let n = tx.send_batch(&mut items);
                    let mut want = 0;
                    for &v in &vs {
                        if !model.enqueue(v) { break; }
                        want += 1;
                    }
                    prop_assert_eq!(n, want, "batch send count");
                    prop_assert_eq!(&items[..], &vs[want..], "rejects keep order");
                }
                BOp::DeqBatch(max) => {
                    let mut out = Vec::new();
                    let n = rx.recv_batch(&mut out, max);
                    let want: Vec<u64> =
                        (0..max).map_while(|_| model.dequeue()).collect();
                    prop_assert_eq!(n, want.len(), "batch recv count");
                    prop_assert_eq!(out, want, "batch recv order");
                }
            }
        }
        // Refcount close: dropping the sender flips the receiver to the
        // drain-then-Closed regime, which must agree with the oracle too.
        drop(tx);
        loop {
            match rx.try_recv() {
                Ok(v) => prop_assert_eq!(Some(v), model.dequeue()),
                Err(TryRecvError::Closed) => {
                    prop_assert_eq!(model.dequeue(), None, "closed with data left");
                    break;
                }
                Err(TryRecvError::Empty) => prop_assert!(false, "open after sender drop"),
            }
        }
    }

    #[test]
    fn unbounded_channel_matches_model(ops in ops(400), order in 1u32..4) {
        use wcq::channel::TryRecvError;
        let (mut tx, mut rx) = wcq::channel::unbounded::<u64>(order, 2);
        let mut model = SeqModel::unbounded();
        for op in ops {
            match op {
                Op::Enq(v) => {
                    prop_assert!(tx.try_send(v).is_ok(), "unbounded never full");
                    model.enqueue(v);
                }
                Op::Deq => {
                    match rx.try_recv() {
                        Ok(v) => prop_assert_eq!(Some(v), model.dequeue()),
                        Err(TryRecvError::Empty) => prop_assert_eq!(model.dequeue(), None),
                        Err(TryRecvError::Closed) => prop_assert!(false, "never closed"),
                    }
                }
            }
        }
        drop(tx);
        loop {
            match rx.recv() {
                Ok(v) => prop_assert_eq!(Some(v), model.dequeue()),
                Err(RecvError::Closed) => {
                    prop_assert_eq!(model.dequeue(), None);
                    break;
                }
                Err(RecvError::Timeout) => prop_assert!(false, "no deadline"),
            }
        }
    }

    #[test]
    fn scq_matches_model(ops in ops(400), order in 2u32..7) {
        let q: wcq::ScqQueue<u64> = wcq::ScqQueue::new(order);
        let mut model = SeqModel::bounded(1 << order);
        for op in ops {
            match op {
                Op::Enq(v) => {
                    prop_assert_eq!(q.enqueue(v).is_ok(), model.enqueue(v));
                }
                Op::Deq => {
                    prop_assert_eq!(q.dequeue(), model.dequeue());
                }
            }
        }
    }

    #[test]
    fn unbounded_wcq_matches_model(ops in ops(400), order in 1u32..4) {
        // Tiny rings force constant ring hand-offs even sequentially.
        let q: wcq::unbounded::UnboundedWcq<u64> =
            wcq::unbounded::Unbounded::new(order, 1);
        let mut h = q.register().unwrap();
        let mut model = SeqModel::unbounded();
        for op in ops {
            match op {
                Op::Enq(v) => {
                    h.enqueue(v);
                    model.enqueue(v);
                }
                Op::Deq => {
                    prop_assert_eq!(h.dequeue(), model.dequeue());
                }
            }
        }
        loop {
            let (a, b) = (h.dequeue(), model.dequeue());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    #[test]
    fn unbounded_scq_matches_model(ops in ops(400), order in 1u32..4) {
        let q: wcq::unbounded::UnboundedScq<u64> =
            wcq::unbounded::Unbounded::new(order, 1);
        let mut h = q.register().unwrap();
        let mut model = SeqModel::unbounded();
        for op in ops {
            match op {
                Op::Enq(v) => {
                    h.enqueue(v);
                    model.enqueue(v);
                }
                Op::Deq => {
                    prop_assert_eq!(h.dequeue(), model.dequeue());
                }
            }
        }
    }

    #[test]
    fn lcrq_matches_model_unbounded(ops in ops(300)) {
        let q = baselines::Lcrq::with_ring_order(1, 3); // 8-cell rings
        let mut h = q.register().unwrap();
        let mut model = SeqModel::unbounded();
        for op in ops {
            match op {
                Op::Enq(v) => {
                    h.enqueue(v);
                    model.enqueue(v);
                }
                Op::Deq => {
                    prop_assert_eq!(h.dequeue(), model.dequeue());
                }
            }
        }
    }

    #[test]
    fn ymc_matches_model_unbounded(ops in ops(300)) {
        let q = baselines::YmcQueue::new(1);
        let mut h = q.register().unwrap();
        let mut model = SeqModel::unbounded();
        for op in ops {
            match op {
                Op::Enq(v) => {
                    h.enqueue(v);
                    model.enqueue(v);
                }
                Op::Deq => {
                    prop_assert_eq!(h.dequeue(), model.dequeue());
                }
            }
        }
    }

    #[test]
    fn crturn_matches_model_unbounded(ops in ops(300)) {
        let q = baselines::CrTurnQueue::new(2);
        let mut h = q.register().unwrap();
        let mut model = SeqModel::unbounded();
        for op in ops {
            match op {
                Op::Enq(v) => {
                    h.enqueue(v);
                    model.enqueue(v);
                }
                Op::Deq => {
                    prop_assert_eq!(h.dequeue(), model.dequeue());
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Topology-declared channels (PR 6): the SPSC ring fast path and the
    // MPSC sweep must agree with the oracle exactly, including the
    // full/empty edges, and strict FIFO must survive a forced
    // mid-sequence producer-seat hand-over.
    // ---------------------------------------------------------------

    #[test]
    fn spsc_channel_matches_model(ops in ops(400), order in 2u32..7) {
        let (mut tx, mut rx) = wcq::channel::spsc::<u64>(order, 2);
        let mut model = SeqModel::bounded(1 << order);
        for op in ops {
            match op {
                Op::Enq(v) => {
                    prop_assert_eq!(tx.try_send(v).is_ok(), model.enqueue(v));
                }
                Op::Deq => {
                    prop_assert_eq!(rx.try_recv().ok(), model.dequeue());
                }
            }
        }
        loop {
            let (a, b) = (rx.try_recv().ok(), model.dequeue());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
        prop_assert_eq!(tx.backend(), "spsc-ring");
    }

    #[test]
    fn spsc_channel_batch_matches_model(ops in batch_ops(300), order in 2u32..7) {
        let (mut tx, mut rx) = wcq::channel::spsc::<u64>(order, 2);
        let mut model = SeqModel::bounded(1 << order);
        let mut scratch = Vec::new();
        for op in ops {
            match op {
                BOp::Enq(v) => {
                    prop_assert_eq!(tx.try_send(v).is_ok(), model.enqueue(v));
                }
                BOp::Deq => {
                    prop_assert_eq!(rx.try_recv().ok(), model.dequeue());
                }
                BOp::EnqBatch(vals) => {
                    let mut inbox = vals.clone();
                    let sent = tx.send_batch(&mut inbox);
                    let mut want = 0;
                    for &v in &vals {
                        if !model.enqueue(v) { break; }
                        want += 1;
                    }
                    prop_assert_eq!(sent, want, "partial batch send must stop at full");
                    prop_assert_eq!(inbox.len(), vals.len() - want, "unsent tail rides back");
                }
                BOp::DeqBatch(max) => {
                    scratch.clear();
                    let got = rx.recv_batch(&mut scratch, max);
                    let want: Vec<u64> = (0..max).map_while(|_| model.dequeue()).collect();
                    prop_assert_eq!(got, want.len());
                    prop_assert_eq!(&scratch, &want);
                }
            }
        }
    }

    /// Per-sender FIFO through the MPSC sweep: two declared senders driven
    /// by the op string (`Enq` values route by parity); global order is
    /// explicitly relaxed across lanes, so each sender checks only its own
    /// subsequence, plus exact element conservation at drain.
    #[test]
    fn mpsc_channel_conserves_and_keeps_lane_fifo(ops in ops(400)) {
        let (tx, mut rx) = wcq::channel::mpsc::<u64>(7, 2, 4);
        let mut txs = [tx.clone(), tx];
        let mut lanes = [Vec::new(), Vec::new()];
        let mut accepted = 0usize;
        let mut received: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Enq(v) => {
                    let lane = (v % 2) as usize;
                    if txs[lane].try_send(v).is_ok() {
                        lanes[lane].push(v);
                        accepted += 1;
                    }
                }
                Op::Deq => {
                    if let Ok(v) = rx.try_recv() {
                        received.push(v);
                    }
                }
            }
        }
        while let Ok(v) = rx.try_recv() {
            received.push(v);
        }
        prop_assert_eq!(received.len(), accepted, "conservation");
        for (lane, sent) in lanes.iter().enumerate() {
            let got: Vec<u64> =
                received.iter().copied().filter(|v| (*v % 2) as usize == lane).collect();
            prop_assert_eq!(&got, sent, "per-sender FIFO");
        }
    }

    /// Producer-seat hand-over against the oracle: a second sender
    /// appears after `pre` ops and sends route by parity between the two
    /// while both live. The first to send takes the one producer seat; the
    /// other's sends report `Full` with the value handed back and leave the
    /// model untouched. At op `cut` the seat holder drops, and the other
    /// sender inherits the seat on its next send. One ring carries every
    /// accepted value, so the channel must match the `VecDeque` model
    /// exactly — strict FIFO and conservation across the hand-over.
    #[test]
    fn spsc_channel_producer_seat_handover_matches_model(
        ops in ops(300),
        pre in 0usize..64,
        cut in 0usize..300,
    ) {
        let (tx, mut rx) = wcq::channel::spsc::<u64>(6, 4);
        let mut txs = [Some(tx), None];
        let mut holder: Option<usize> = None;
        let mut model = SeqModel::bounded(1 << 6);
        for (i, op) in ops.into_iter().enumerate() {
            if i == pre {
                txs[1] = txs[0].clone();
            }
            if i == cut {
                if let Some(h) = holder.take() {
                    txs[h] = None; // drops the holder, freeing the seat
                }
            }
            match op {
                Op::Enq(v) => {
                    let lane = (v % 2) as usize;
                    let s = if txs[lane].is_some() { lane } else { 1 - lane };
                    let Some(tx) = txs[s].as_mut() else {
                        continue; // no live sender
                    };
                    let got = tx.try_send(v);
                    if *holder.get_or_insert(s) == s {
                        prop_assert_eq!(got.is_ok(), model.enqueue(v), "seated send vs the oracle");
                    } else {
                        let full = wcq::channel::TrySendError::Full(v);
                        prop_assert_eq!(got, Err(full), "no seat: Full, value back");
                    }
                }
                Op::Deq => {
                    prop_assert_eq!(rx.try_recv().ok(), model.dequeue());
                }
            }
        }
        loop {
            let (a, b) = (rx.try_recv().ok(), model.dequeue());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    /// Seat inheritance (DESIGN.md §11): the consumer-seat holder drops
    /// mid-stream with residue still in its ring; a cloned receiver
    /// inherits the seat and must drain *exactly* the outstanding
    /// backlog — FIFO against the `VecDeque` oracle, with count and
    /// checksum conserved, and the closed edge honest (never `Closed`
    /// while a value is stranded, no spurious `Empty` once the seat is
    /// free).
    #[test]
    fn spsc_channel_seat_inheritance_conserves(ops in ops(300), cut in 1usize..200) {
        let (mut tx, rx) = wcq::channel::spsc::<u64>(5, 4);
        let mut rx2 = rx.clone(); // beyond the declared 1 consumer
        let mut holder = Some(rx);
        let mut oracle: std::collections::VecDeque<u64> = Default::default();
        let mut accepted = 0usize;
        let mut sent_sum = 0u64;
        let mut received = 0usize;
        let mut got_sum = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            if i == cut {
                holder = None; // seat holder drops, residue and all
            }
            match op {
                Op::Enq(v) => {
                    if tx.try_send(v).is_ok() {
                        oracle.push_back(v);
                        accepted += 1;
                        sent_sum += v;
                    }
                }
                Op::Deq => {
                    let r = match holder.as_mut() {
                        Some(h) => h.try_recv(), // claims the seat
                        None => rx2.try_recv(),  // inheritor
                    };
                    if let Ok(v) = r {
                        prop_assert_eq!(Some(v), oracle.pop_front(), "FIFO vs oracle");
                        received += 1;
                        got_sum += v;
                    }
                }
            }
        }
        drop(holder);
        drop(tx); // close: the inheritor must drain the exact backlog
        loop {
            match rx2.try_recv() {
                Ok(v) => {
                    prop_assert_eq!(Some(v), oracle.pop_front(), "FIFO vs oracle");
                    received += 1;
                    got_sum += v;
                }
                Err(wcq::channel::TryRecvError::Closed) => break,
                Err(e) => prop_assert!(false, "unexpected {:?} draining inherited residue", e),
            }
        }
        prop_assert!(oracle.is_empty(), "inheritor drained exactly");
        prop_assert_eq!(received, accepted, "count conserved across the seat handoff");
        prop_assert_eq!(got_sum, sent_sum, "checksum conserved across the seat handoff");
    }
}

// ===================================================================
// Collector batcher vs the sequential multiset oracle
// ===================================================================

/// One collector scenario: an arbitrary span stream through an arbitrary
/// small pipeline shape under an arbitrary fault profile.
#[derive(Clone, Debug)]
struct CollectorScenario {
    spans: Vec<(u64, u64)>, // (trace, id); duplicates allowed
    shards: usize,
    batch_max: usize,
    flush_zero: bool, // ZERO deadline (flush constantly) vs effectively-never
    fail_every: u64,  // FailEvery(n) injector
    max_attempts: u32,
}

fn collector_scenarios() -> impl Strategy<Value = CollectorScenario> {
    // The vendored proptest subset has no tuple strategies, so one word
    // stream seeds everything: the first five words pick the pipeline
    // knobs, the rest become the span stream.
    prop::collection::vec(0u64..1_000_000, 0..205).prop_map(|raw| {
        let k = |i: usize, m: u64| raw.get(i).copied().unwrap_or(0) % m;
        CollectorScenario {
            shards: 1 + k(0, 3) as usize,
            batch_max: 1 + k(1, 8) as usize,
            flush_zero: k(2, 2) == 1,
            fail_every: 1 + k(3, 4),
            max_attempts: 1 + k(4, 3) as u32,
            spans: raw.iter().skip(5).map(|&v| (v % 8, v)).collect(),
        }
    })
}

/// Sort key giving `Span` a total order for multiset comparison (the
/// struct itself is deliberately not `Ord`).
fn span_key(s: &collector::Span) -> (u64, u64, u64, u64) {
    (s.trace, s.id, s.start_ns, s.dur_ns)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Conservation against the sequential oracle: whatever the batch
    /// boundaries, deadline flushes, injected export failures, and the
    /// shutdown drain do, the exported multiset plus the dropped multiset
    /// must equal the submitted multiset exactly — by element, count, and
    /// checksum. (Batching is concurrent, so *which* spans share a batch
    /// is not modelled; *that nothing is lost or duplicated* is.)
    #[test]
    fn collector_conserves_every_accepted_span(sc in collector_scenarios()) {
        use collector::{Collector, CollectorConfig, FailEvery, RetryPolicy,
                        ShedPolicy, Span, VecExporter};
        use std::sync::Arc;

        let cfg = CollectorConfig {
            shards: sc.shards,
            lane_order: 4,
            producers: 1,
            workers: 1,
            batch_max: sc.batch_max,
            flush_after: if sc.flush_zero {
                Duration::ZERO
            } else {
                Duration::from_secs(3_600)
            },
            shed: ShedPolicy::Block, // oracle needs accepted == submitted
            retry: RetryPolicy { max_attempts: sc.max_attempts, backoff: Duration::ZERO },
            ..CollectorConfig::default()
        };
        let faults = Arc::new(FailEvery::new(sc.fail_every));
        let (col, tx) = Collector::spawn(cfg, VecExporter::default(), faults);

        let mut tx = tx;
        let mut submitted: Vec<Span> = Vec::with_capacity(sc.spans.len());
        for &(trace, id) in &sc.spans {
            let span = Span { trace, id, start_ns: id.rotate_left(7), dur_ns: trace + 1 };
            prop_assert!(tx.submit(span), "Block policy accepts everything");
            submitted.push(span);
        }
        drop(tx);
        let (report, exporter) = col.shutdown();
        let m = &report.metrics;

        // Counter identities.
        prop_assert_eq!(m.accepted, submitted.len() as u64);
        prop_assert_eq!(m.shed, 0);
        prop_assert_eq!(m.exported, exporter.spans.len() as u64);
        prop_assert_eq!(m.inflight(), 0);
        prop_assert!(m.conserved(), "metrics identity failed: {:?}", m);

        // Multiset oracle: exported ⊎ dropped == submitted, element-wise.
        // Two-pointer subtraction over sort keys recovers the dropped
        // multiset; its checksum must match the dropped counter's.
        let mut want = submitted;
        want.sort_unstable_by_key(span_key);
        let mut got = exporter.spans;
        got.sort_unstable_by_key(span_key);
        let mut dropped_ck = 0u64;
        let mut dropped_n = 0u64;
        let mut gi = 0;
        for s in &want {
            if gi < got.len() && span_key(&got[gi]) == span_key(s) {
                gi += 1; // exported exactly once
            } else {
                dropped_ck ^= s.checksum();
                dropped_n += 1;
            }
        }
        prop_assert_eq!(gi, got.len(), "exporter received a span never submitted");
        prop_assert_eq!(dropped_n, m.dropped);
        prop_assert_eq!(dropped_ck, m.dropped_ck);
    }
}
