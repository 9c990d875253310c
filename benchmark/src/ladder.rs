//! The per-layer ladder: the `pair_1t` op stream (and, for the `_2t`
//! rungs, the `pair_2t` stream) pushed through each layer's own public
//! calls, timed from outside in blocks of 1 024 operations. One span per
//! block; a rung's `*_ns` is the median block's nanoseconds per operation.

use std::hint::black_box;
use std::sync::atomic::AtomicPtr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use collector::{Collector, CollectorConfig, NoFaults, NullExporter};
use wcq::channel::{self, Receiver, Sender};
use wcq::sync::{RecvError, SyncState};
use wcq::topology::TopoCore;
use wcq::{ScqRing, ShardedWcq, UnboundedWcq, WcqConfig, WcqQueue, WcqRing};

use crate::trace::{Recorder, Span};
use crate::workloads::{run_pinned, Env, Gate, SetUp, Worker, BATCH, ORDER, SLOTS};

/// Operations per span.
const BLOCK_OPS: u32 = 1024;
/// A rung stops after this many blocks even if its time slice is not
/// used up, which bounds the trace (the sub-nanosecond rungs would
/// otherwise write hundreds of thousands of spans).
const MAX_BLOCKS: usize = 2000;
/// Timed rungs in [`run`], for splitting the time budget.
pub const RUNGS: u32 = 32;

/// One rung's recording context.
struct Rung {
    rec: Recorder,
    slice: Duration,
    /// Results that contradicted the rung's own invariant (a pair that did
    /// not return what went in).
    bad: u64,
}

impl Rung {
    /// Times `iter` in blocks of [`BLOCK_OPS`] operations (`ops_per_iter`
    /// each), after one untimed block to warm the path. The clock is read
    /// once per block: a block starts where the previous one ended.
    fn blocks(
        &mut self,
        name: &'static str,
        parent: &'static str,
        ops_per_iter: u32,
        mut iter: impl FnMut() -> bool,
    ) {
        let iters = (BLOCK_OPS / ops_per_iter).max(1);
        for _ in 0..iters {
            iter();
        }
        let begin = Instant::now();
        let mut mark = begin;
        for _ in 0..MAX_BLOCKS {
            for _ in 0..iters {
                self.bad += u64::from(!iter());
            }
            let now = Instant::now();
            self.rec.push(name, parent, mark, now, iters * ops_per_iter);
            mark = now;
            if now - begin >= self.slice {
                break;
            }
        }
    }
}

/// Index stream for the raw rings: distinct while live, below `n`.
#[inline]
fn ring_index(lane: u64, seq: u64) -> u64 {
    lane * 1024 + (seq & 1023)
}

fn batch_values(out: &mut Vec<u64>, seq: &mut u64) {
    out.extend(*seq..*seq + BATCH as u64);
    *seq += BATCH as u64;
}

/// Runs every single-thread rung on the calling (pinned) thread.
fn single_thread_rungs(r: &mut Rung) {
    let cfg = WcqConfig::default();
    let mut seq = 0u64;
    let mut items: Vec<u64> = Vec::with_capacity(BATCH);
    let mut out: Vec<u64> = Vec::with_capacity(BATCH);

    // ---- dwcas ----
    let pair = dwcas::AtomicPair::new(0, 0);
    let mut cur = (0u64, 0u64);
    r.blocks("dwcas.cas2", "wcq.ring", 1, || {
        let new = (cur.0 + 1, cur.1 + 2);
        let ok = pair.compare_exchange2(cur, new);
        cur = new;
        ok
    });
    r.blocks("dwcas.load2", "wcq.ring", 1, || {
        black_box(pair.load2()) == cur
    });

    // ---- wcq::ring and the SCQ reference ----
    let ring = WcqRing::new_empty(ORDER, SLOTS, &cfg);
    r.blocks("wcq.ring.pair", "wcq.queue", 2, || {
        let i = ring_index(0, seq);
        seq += 1;
        ring.enqueue(0, i);
        ring.dequeue(0) == Some(i)
    });
    let indices: Vec<u64> = (0..BATCH as u64).collect();
    let mut got = [0u64; BATCH];
    r.blocks("wcq.ring.batch64", "wcq.queue", 2 * BATCH as u32, || {
        ring.enqueue_batch(0, &indices);
        ring.dequeue_batch(0, &mut got) == BATCH && got == indices[..]
    });
    r.blocks("wcq.ring.empty_deq", "wcq.queue", 1, || {
        black_box(ring.dequeue(0)).is_none()
    });
    let scq = ScqRing::new_empty(ORDER, &cfg);
    r.blocks("scq.ring.pair", "", 2, || {
        let i = ring_index(0, seq);
        seq += 1;
        scq.enqueue(i);
        scq.dequeue() == Some(i)
    });

    // ---- wcq::queue ----
    let queue: Arc<WcqQueue<u64>> = Arc::new(WcqQueue::new(ORDER, SLOTS));
    {
        let mut h = queue.register().expect("a free slot");
        r.blocks("wcq.queue.pair", "channel", 2, || {
            seq += 1;
            h.enqueue(seq).is_ok() && h.dequeue() == Some(seq)
        });
        r.blocks("wcq.queue.batch64", "channel", 2 * BATCH as u32, || {
            batch_values(&mut items, &mut seq);
            let pushed = h.enqueue_batch(&mut items);
            out.clear();
            pushed == BATCH
                && h.dequeue_batch(&mut out, BATCH) == BATCH
                && out[BATCH - 1] == seq - 1
        });
    }
    {
        let mut h = queue.register_owned().expect("a free slot");
        r.blocks("wcq.queue.owned_pair", "channel", 2, || {
            seq += 1;
            h.enqueue(seq).is_ok() && h.dequeue() == Some(seq)
        });
    }
    r.blocks("wcq.queue.register", "channel", 1, || {
        queue.register().is_some()
    });

    // ---- layers on trial: shard, unbounded + hazard ----
    let sharded: ShardedWcq<u64> = ShardedWcq::new(2, ORDER, SLOTS);
    {
        let mut h = sharded.register().expect("a free slot");
        r.blocks("shard.pair", "channel", 2, || {
            seq += 1;
            h.enqueue(seq).is_ok() && h.dequeue() == Some(seq)
        });
    }
    let unbounded: UnboundedWcq<u64> = UnboundedWcq::new(ORDER, SLOTS);
    {
        let mut h = unbounded.register().expect("a free slot");
        r.blocks("unbounded.pair", "channel", 2, || {
            seq += 1;
            h.enqueue(seq);
            h.dequeue() == Some(seq)
        });
    }
    let domain = hazard::Domain::new(SLOTS);
    let mut target = 7u64;
    let src = AtomicPtr::new(&mut target as *mut u64);
    {
        let hp = domain.register().expect("a free hazard slot");
        r.blocks("hazard.protect", "unbounded", 1, || {
            !black_box(hp.protect(0, &src)).is_null()
        });
    }

    // ---- spsc ----
    let (mut prod, mut cons) = wcq::spsc::Ring::<u64>::new(ORDER).split();
    r.blocks("spsc.ring.pair", "topology", 2, || {
        seq += 1;
        prod.push(seq).is_ok() && cons.pop() == Some(seq)
    });
    r.blocks("spsc.ring.batch64", "topology", 2 * BATCH as u32, || {
        let mut window = prod.reserve(BATCH).expect("an empty ring has room");
        for _ in 0..BATCH {
            seq += 1;
            let _ = window.write(seq);
        }
        window.commit();
        out.clear();
        cons.pop_batch(&mut out, BATCH) == BATCH && out[BATCH - 1] == seq
    });

    // ---- topology ----
    let core: Arc<TopoCore<u64>> = Arc::new(TopoCore::spsc(ORDER, SLOTS, &cfg));
    {
        let (mut enq, mut deq) = (core.register(), core.register());
        r.blocks("topology.pair", "channel.spsc", 2, || {
            seq += 1;
            enq.try_enqueue(seq).is_ok() && deq.try_dequeue() == Some(seq)
        });
        r.blocks("topology.batch64", "channel.spsc", 2 * BATCH as u32, || {
            batch_values(&mut items, &mut seq);
            let pushed = enq.enqueue_batch(&mut items);
            out.clear();
            pushed == BATCH
                && deq.dequeue_batch(&mut out, BATCH) == BATCH
                && out[BATCH - 1] == seq - 1
        });
    }

    // ---- channel ----
    let mut try_pair = |r: &mut Rung,
                        name: &'static str,
                        parent: &'static str,
                        (mut tx, mut rx): (Sender<u64>, Receiver<u64>)| {
        r.blocks(name, parent, 2, || {
            seq += 1;
            tx.try_send(seq).is_ok() && rx.try_recv() == Ok(seq)
        });
        (tx, rx)
    };
    let (mut tx, mut rx) = try_pair(r, "channel.try_pair", "", channel::bounded(ORDER, SLOTS));
    let (mut stx, mut srx) = try_pair(r, "channel.spsc.try_pair", "", channel::spsc(ORDER, SLOTS));
    try_pair(
        r,
        "channel.mpsc.try_pair",
        "collector",
        channel::mpsc(ORDER, 1, SLOTS),
    );
    r.blocks("channel.blocking_pair", "", 2, || {
        seq += 1;
        tx.send(seq).is_ok() && rx.recv() == Ok(seq)
    });
    let mut batch_pair = |r: &mut Rung,
                          name: &'static str,
                          tx: &mut Sender<u64>,
                          rx: &mut Receiver<u64>| {
        r.blocks(name, "", 2 * BATCH as u32, || {
            batch_values(&mut items, &mut seq);
            let pushed = tx.send_batch(&mut items);
            out.clear();
            pushed == BATCH && rx.recv_batch(&mut out, BATCH) == BATCH && out[BATCH - 1] == seq - 1
        });
    };
    batch_pair(r, "channel.batch64", &mut tx, &mut rx);
    batch_pair(r, "channel.spsc.batch64", &mut stx, &mut srx);
    recv_any_rungs(r);

    // ---- sync ----
    let state = SyncState::new();
    r.blocks("sync.notify_idle", "channel", 1, || {
        black_box(&state).notify_not_empty();
        true
    });
    r.blocks("sync.notify_fenced_idle", "channel.spsc", 1, || {
        black_box(&state).notify_not_empty_fenced();
        true
    });
    r.blocks("sync.listen", "channel", 1, || {
        black_box(state.not_empty().listen()) == 0
    });
    r.blocks("sync.register_cancel", "channel", 1, || {
        let ec = state.not_empty();
        match ec.register_thread(ec.listen()) {
            Some(token) => {
                ec.cancel(token);
                true
            }
            None => false,
        }
    });

    // ---- collector ----
    let (pipeline, sender) =
        Collector::spawn(CollectorConfig::default(), NullExporter, Arc::new(NoFaults));
    r.blocks("collector.snapshot", "", 1, || {
        black_box(pipeline.snapshot()).accepted == 0
    });
    drop(sender);
    pipeline.shutdown();
}

/// `channel::recv_any` over two SPSC lanes: with an item waiting (lanes
/// filled untimed, only the drain is inside the span), and over two empty
/// lanes with a zero timeout.
fn recv_any_rungs(r: &mut Rung) {
    let (mut txs, mut rxs): (Vec<_>, Vec<_>) =
        (0..2).map(|_| channel::spsc::<u64>(ORDER, SLOTS)).unzip();
    let begin = Instant::now();
    for _ in 0..MAX_BLOCKS {
        for i in 0..BLOCK_OPS as u64 {
            r.bad += u64::from(txs[(i % 2) as usize].try_send(i).is_err());
        }
        let start = Instant::now();
        for _ in 0..BLOCK_OPS {
            r.bad += u64::from(channel::recv_any(&mut rxs, None).is_err());
        }
        let end = Instant::now();
        r.rec
            .push("channel.recv_any_ready", "collector", start, end, BLOCK_OPS);
        if end - begin >= r.slice {
            break;
        }
    }
    r.blocks("channel.recv_any_timeout0", "collector", 1, || {
        channel::recv_any(&mut rxs, Some(Duration::ZERO)) == Err(RecvError::Timeout)
    });
}

/// Runs `body` on `threads` pinned threads, each with a [`Rung`] context of
/// its own (room for `rungs` rungs), and returns their spans and the number
/// of results that contradicted a rung's invariant. `body` calls
/// [`Gate::arrive`] once its thread is ready to start timing.
fn on_pinned_threads(
    env: &Env,
    rep: u32,
    slice: Duration,
    threads: u64,
    rungs: usize,
    body: impl Fn(u64, &Gate, &mut Rung) + Sync,
) -> (Vec<Span>, u64) {
    let body = &body;
    let workers = (0..threads)
        .map(|t| {
            Box::new(move |gate: &Gate| {
                let mut rung = Rung {
                    rec: Recorder::new(env.epoch, "ladder", rep, rungs * (MAX_BLOCKS + 1)),
                    slice,
                    bad: 0,
                };
                body(t, gate, &mut rung);
                (rung.rec.spans, rung.bad)
            }) as Worker<(Vec<Span>, u64)>
        })
        .collect();
    let (outs, _) = run_pinned(env, &SetUp::begin(), workers);
    outs.into_iter()
        .fold((Vec::new(), 0), |(mut spans, bad), (s, b)| {
            spans.extend(s);
            (spans, bad + b)
        })
}

/// Runs the whole ladder within about `budget` and returns its spans and
/// the number of results that contradicted a rung's invariant.
pub fn run(env: &Env, rep: u32, budget: Duration) -> (Vec<Span>, u64) {
    let slice = budget / RUNGS;
    let (mut spans, mut bad) =
        on_pinned_threads(env, rep, slice, 1, RUNGS as usize, |_, gate, r| {
            gate.arrive();
            single_thread_rungs(r);
        });
    if env.cpus.allowed().len() < 2 {
        return (spans, bad);
    }
    // The two contended rungs: both threads loop enqueue/dequeue on one
    // object, as `pair_2t` does on the channel.
    let ring = WcqRing::new_empty(ORDER, SLOTS, &WcqConfig::default());
    let queue: WcqQueue<u64> = WcqQueue::new(ORDER, SLOTS);
    for contended in [
        on_pinned_threads(env, rep, slice, 2, 1, |t, gate, r| {
            let mut seq = 0u64;
            gate.arrive();
            r.blocks("wcq.ring.pair_2t", "wcq.queue", 2, || {
                seq += 1;
                ring.enqueue(t as usize, ring_index(t, seq));
                ring.dequeue(t as usize).is_some()
            });
        }),
        on_pinned_threads(env, rep, slice, 2, 1, |t, gate, r| {
            let mut h = queue.register().expect("a free slot");
            let mut seq = 0u64;
            gate.arrive();
            r.blocks("wcq.queue.pair_2t", "channel", 2, || {
                seq += 1;
                h.enqueue((t << 32) | seq).is_ok() && h.dequeue().is_some()
            });
        }),
    ] {
        spans.extend(contended.0);
        bad += contended.1;
    }
    (spans, bad)
}
