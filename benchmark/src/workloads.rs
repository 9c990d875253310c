//! The seven workloads. Each function runs one rep on freshly constructed
//! objects: construct → every worker's first operation (that span is
//! `setup_s`) → the timed loop → teardown and correctness accounting.
//!
//! Load comes from at most two threads, each pinned to its own allowed
//! CPU. The main thread is never pinned, so the collector's own threads
//! inherit the full mask.

use std::sync::atomic::Ordering::{Acquire, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use collector::{
    Collector, CollectorConfig, CollectorReport, ExportError, Exporter, NoFaults, ShedPolicy,
    Span as TelemetrySpan, SpanSender,
};
use harness::alloc;
use wcq::channel::{self, Receiver, Sender};

use crate::check::{self, tag, Received, Sent};
use crate::cpu::{self, Cpus};
use crate::trace::{Recorder, Span};

/// Ring order and thread slots of the channel under the queue workloads.
pub const ORDER: u32 = 12;
pub const SLOTS: usize = 4;
pub const BATCH: usize = 64;
/// One round in this many is timed with its own `Instant` pair.
const SAMPLE_EVERY: u64 = 128;
/// Open-loop message period of `park_wake_2t` (5 000 msg/s).
const WAKE_PERIOD: Duration = Duration::from_micros(200);
/// `collector_rate`: 50 spans every 50 µs = 1 000 000 spans/s. Not 64:
/// with strides equal to the worker's `batch_max` every batch straddles
/// two strides at a fixed offset that depends on where the worker happened
/// to wake first, and the median latency of a rep then lands anywhere
/// between 23 and 85 µs. Incommensurate strides sweep through all offsets.
const RATE_STRIDE: u64 = 50;
const RATE_STRIDE_PERIOD: Duration = Duration::from_micros(50);
/// The exporter of `collector_rate` times one span in this many.
const SPAN_SAMPLE_EVERY: u64 = 16;
/// `collector_sat` times `submit` in blocks of this many calls.
pub const SUBMIT_BLOCK: u64 = 256;

/// What every rep needs from the run.
pub struct Env<'a> {
    pub cpus: &'a Cpus,
    /// Zero of every `*_ns` timestamp in spans and telemetry.
    pub epoch: Instant,
    pub seed: u64,
    /// Self-test: lose one received value so the check must fail.
    pub inject_drop: bool,
}

/// Per-rep tracing request: spans are recorded iff this is `Some`.
#[derive(Clone, Copy)]
pub struct Tracing {
    pub rep: u32,
}

/// Final collector state of a collector rep, for the per-layer metrics.
pub struct CollectorStats {
    pub report: CollectorReport,
    /// Last sender dropped → `shutdown()` returned.
    pub drain_s: f64,
}

/// Everything one rep measured.
#[derive(Default)]
pub struct RepOut {
    pub ready: Ready,
    /// Successful operations (messages delivered, spans exported).
    pub ops: u64,
    pub elapsed_s: f64,
    /// Latency of the workload's timed unit, nanoseconds.
    pub samples: Vec<u64>,
    /// Open-loop generator lateness, nanoseconds (open-loop workloads).
    pub late: Vec<u64>,
    pub attempted: u64,
    /// Operations that failed, plus every violation below.
    pub failed: u64,
    /// What makes the run incorrect: lost, duplicated or reordered values,
    /// broken conservation, and — on the queue workloads, whose invariants
    /// forbid it — any failed operation. Spans the collector shed or
    /// dropped are failures but not violations.
    pub violations: u64,
    /// Heap high-water mark over the whole rep, above what was live
    /// before construction.
    pub peak_bytes: usize,
    pub spans: Vec<Span>,
    pub collector: Option<CollectorStats>,
}

/// A rep's set-up: the construction clock and the heap baseline. Begin it
/// after the benchmark's own sample buffers are allocated, so they are not
/// charged to the system under test, and before constructing anything;
/// call [`Self::constructed`] when the last constructor has returned.
pub struct SetUp {
    t0: Instant,
    construct_s: f64,
    base_bytes: usize,
}

impl SetUp {
    pub fn begin() -> SetUp {
        alloc::reset_peak();
        SetUp {
            base_bytes: alloc::live_bytes(),
            construct_s: 0.0,
            t0: Instant::now(),
        }
    }

    /// Stops the construction clock (a set-up that constructs nothing
    /// before its workers start never calls this).
    pub fn constructed(mut self) -> SetUp {
        self.construct_s = self.t0.elapsed().as_secs_f64();
        self
    }

    /// Heap high-water mark since [`Self::begin`], above the baseline.
    fn peak(&self) -> usize {
        alloc::peak_bytes().saturating_sub(self.base_bytes)
    }
}

/// What set-up cost, known when the last worker has completed its first
/// operation.
#[derive(Clone, Copy, Default)]
pub struct Ready {
    /// Construction time plus the longest first operation of any worker.
    /// Spawning, pinning and waking the benchmark's own threads happens
    /// between the two and is not counted: it is not the system under
    /// test, and on a shared host it moved the figure by ±20 %.
    pub setup_s: f64,
    /// Heap high-water mark at that instant, above the baseline: what it
    /// takes for the queue (channel, collector) to exist and have been used
    /// once by every worker.
    pub footprint_bytes: usize,
}

// ===================================================================
// Pinned workers and the start gate
// ===================================================================

/// Start line shared by a rep's workers, in two stages. Stage one
/// *sleeps* each worker until all of them exist and are pinned, so that
/// none spins on a CPU a worker not yet started still needs. Stage two:
/// each worker does its first operation (timed) and arrives; the last
/// arrival ends set-up and releases the others, which spin (each on its
/// own CPU) so that all start the timed loop together.
pub struct Gate {
    want: usize,
    /// Workers pinned so far; `usize::MAX` once one has panicked.
    pinned: Mutex<usize>,
    pinned_cv: Condvar,
    arrived: AtomicUsize,
    dead: AtomicBool,
    /// The longest first operation so far, nanoseconds.
    longest_first_op_ns: AtomicU64,
    /// `alloc::peak_bytes()` as of the latest arrival.
    peak_at_ready: AtomicUsize,
}

impl Gate {
    fn wait_all_pinned(&self) {
        let mut pinned = self.pinned.lock().expect("gate lock");
        *pinned += 1;
        self.pinned_cv.notify_all();
        while *pinned < self.want {
            pinned = self.pinned_cv.wait(pinned).expect("gate lock");
        }
        assert!(*pinned != usize::MAX, "a peer worker panicked");
    }

    /// Worker side: runs the worker's first operation (timed), then
    /// returns when every worker has done the same.
    pub fn arrive_after<R>(&self, first_op: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let done = first_op();
        self.longest_first_op_ns
            .fetch_max(t0.elapsed().as_nanos() as u64, SeqCst);
        self.peak_at_ready.fetch_max(alloc::peak_bytes(), SeqCst);
        self.arrived.fetch_add(1, Release);
        while self.arrived.load(Acquire) < self.want {
            assert!(!self.dead.load(Acquire), "a peer worker panicked");
            std::hint::spin_loop();
        }
        done
    }

    /// [`Self::arrive_after`] for a worker with no first operation.
    pub fn arrive(&self) {
        self.arrive_after(|| ());
    }
}

/// Releases the peers of a worker that panics before the start line,
/// which would otherwise wait for it forever.
struct ReleasePeersOnPanic<'a>(&'a Gate);

impl Drop for ReleasePeersOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.dead.store(true, Release);
            if let Ok(mut pinned) = self.0.pinned.lock() {
                *pinned = usize::MAX;
            }
            self.0.pinned_cv.notify_all();
        }
    }
}

/// One pinned thread's work; it calls [`Gate::arrive`] after its first
/// operation.
pub type Worker<'a, R> = Box<dyn FnOnce(&Gate) -> R + Send + 'a>;

/// Runs each worker on its own thread pinned to its own allowed CPU.
/// Returns the workers' results and what set-up cost: from `setup` (begun
/// by the caller before it constructed anything) to the last worker's
/// [`Gate::arrive`].
pub fn run_pinned<'a, R: Send>(
    env: &Env,
    setup: &SetUp,
    workers: Vec<Worker<'a, R>>,
) -> (Vec<R>, Ready) {
    let gate = Gate {
        want: workers.len(),
        pinned: Mutex::new(0),
        pinned_cv: Condvar::new(),
        arrived: AtomicUsize::new(0),
        dead: AtomicBool::new(false),
        longest_first_op_ns: AtomicU64::new(0),
        peak_at_ready: AtomicUsize::new(0),
    };
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(slot, work)| {
                let gate = &gate;
                s.spawn(move || {
                    let _release = ReleasePeersOnPanic(gate);
                    env.cpus.pin(slot);
                    gate.wait_all_pinned();
                    work(gate)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let ready = Ready {
        setup_s: setup.construct_s + gate.longest_first_op_ns.load(SeqCst) as f64 / 1e9,
        footprint_bytes: gate
            .peak_at_ready
            .load(SeqCst)
            .saturating_sub(setup.base_bytes),
    };
    (results, ready)
}

// ===================================================================
// The closed loop shared by pair_1t, pair_2t and batch_1t
// ===================================================================

/// Where a closed loop records block spans when traced.
pub struct SpanSite {
    pub rec: Recorder,
    pub name: &'static str,
    /// A span closes every this many timed samples.
    pub samples_per_span: u64,
    /// Operations one round pushes through the layer.
    pub calls_per_round: u32,
}

pub struct LoopOut {
    pub rounds: u64,
    pub start: Instant,
    pub end: Instant,
}

/// Runs `round` back to back for `dur`. Every `sample_every`-th round is
/// timed with one `Instant` pair and pushed to `samples` (up to its
/// capacity); the loop reads the clock nowhere else.
pub fn closed_loop(
    dur: Duration,
    sample_every: u64,
    samples: &mut Vec<u64>,
    site: &mut Option<SpanSite>,
    mut round: impl FnMut(),
) -> LoopOut {
    let start = Instant::now();
    let deadline = start + dur;
    let (mut rounds, mut taken, mut mark) = (0u64, 0u64, start);
    loop {
        for _ in 1..sample_every {
            round();
        }
        let t0 = Instant::now();
        round();
        let t1 = Instant::now();
        rounds += sample_every;
        taken += 1;
        keep(samples, (t1 - t0).as_nanos() as u64);
        if let Some(site) = site {
            if taken % site.samples_per_span == 0 {
                let calls = (site.samples_per_span * sample_every) as u32 * site.calls_per_round;
                site.rec.push(site.name, "", mark, t1, calls);
                mark = t1;
            }
        }
        if t1 >= deadline {
            return LoopOut {
                rounds,
                start,
                end: t1,
            };
        }
    }
}

/// Keeps a latency sample unless the preallocated buffer is full (growing
/// it mid-rep would be charged to the system under test).
#[inline]
fn keep(samples: &mut Vec<u64>, ns: u64) {
    if samples.len() < samples.capacity() {
        samples.push(ns);
    }
}

/// Sample-buffer capacity for a loop expected to take about `per_s`
/// samples per second, with headroom for a faster machine.
fn sample_capacity(dur: Duration, per_s: f64) -> usize {
    (dur.as_secs_f64() * per_s * 4.0) as usize + 1024
}

fn span_site(
    env: &Env,
    trace: Option<Tracing>,
    workload: &'static str,
    name: &'static str,
    samples_per_span: u64,
    calls_per_round: u32,
    dur: Duration,
) -> Option<SpanSite> {
    trace.map(|t| SpanSite {
        rec: Recorder::new(
            env.epoch,
            workload,
            t.rep,
            (dur.as_secs_f64() * 40_000.0) as usize + 64,
        ),
        name,
        samples_per_span,
        calls_per_round,
    })
}

/// One thread's end of a `try_send`/`try_recv` pair loop.
struct PairEnd {
    tx: Sender<u64>,
    rx: Receiver<u64>,
    producer: u64,
    seq: u64,
    sent: Sent,
    recv: Received,
    failed: u64,
}

impl PairEnd {
    /// `try_send` then `try_recv`. The occupancy invariant (every thread
    /// has sent once more than it received when it receives) forbids both
    /// `Full` and `Empty`, so either is a failure.
    #[inline]
    fn round(&mut self) {
        let v = tag(self.producer, self.seq);
        self.seq += 1;
        match self.tx.try_send(v) {
            Ok(()) => self.sent.add(v),
            Err(_) => self.failed += 1,
        }
        match self.rx.try_recv() {
            Ok(v) => self.recv.add(v),
            Err(_) => self.failed += 1,
        }
    }
}

struct PairOut {
    sent: Sent,
    recv: Received,
    failed: u64,
    timing: LoopOut,
    samples: Vec<u64>,
    site: Option<SpanSite>,
}

/// `pair_1t` (one thread) and `pair_2t` (two): each thread loops
/// `try_send; try_recv` on its own clone of one `channel::bounded`.
fn pair(
    env: &Env,
    dur: Duration,
    trace: Option<Tracing>,
    workload: &'static str,
    threads: usize,
) -> RepOut {
    let mut buffers: Vec<_> = (0..threads)
        .map(|_| {
            (
                Vec::with_capacity(sample_capacity(dur, 100_000.0)),
                span_site(env, trace, workload, "channel.try_pair", 8, 2, dur),
            )
        })
        .collect();
    let setup = SetUp::begin();
    let (tx, mut rx) = channel::bounded::<u64>(ORDER, SLOTS);
    let setup = setup.constructed();
    let workers: Vec<Worker<PairOut>> = buffers
        .drain(..)
        .enumerate()
        .map(|(i, (mut samples, mut site))| {
            let mut end = PairEnd {
                tx: tx.clone(),
                rx: rx.clone(),
                producer: i as u64,
                seq: 0,
                sent: Sent::default(),
                recv: Received::losing_one(env.inject_drop && i == 0),
                failed: 0,
            };
            Box::new(move |gate: &Gate| {
                gate.arrive_after(|| end.round());
                let timing =
                    closed_loop(dur, SAMPLE_EVERY, &mut samples, &mut site, || end.round());
                // `end` drops here, freeing its two thread slots for the
                // main thread's drain below.
                PairOut {
                    sent: end.sent,
                    recv: end.recv,
                    failed: end.failed,
                    timing,
                    samples,
                    site,
                }
            }) as Worker<PairOut>
        })
        .collect();
    let (outs, ready) = run_pinned(env, &setup, workers);
    let mut leftover = Received::default();
    while let Ok(v) = rx.try_recv() {
        leftover.add(v);
    }
    let peak_bytes = setup.peak();
    drop((tx, rx));

    let sent: Vec<Sent> = outs.iter().map(|o| o.sent).collect();
    let mut received: Vec<Received> = outs.iter().map(|o| o.recv).collect();
    received.push(leftover);
    let failed = outs.iter().map(|o| o.failed).sum::<u64>() + check::violations(&sent, &received);
    let start = outs.iter().map(|o| o.timing.start).min().expect("a worker");
    let end = outs.iter().map(|o| o.timing.end).max().expect("a worker");
    let mut out = RepOut {
        ready,
        // The untimed first round of each thread is not an op of the rep.
        ops: outs
            .iter()
            .map(|o| o.sent.count + o.recv.count - 2)
            .sum::<u64>(),
        elapsed_s: (end - start).as_secs_f64(),
        attempted: outs.iter().map(|o| 2 * o.timing.rounds).sum(),
        failed,
        violations: failed,
        peak_bytes,
        ..RepOut::default()
    };
    for o in outs {
        out.samples.extend(o.samples);
        out.spans
            .extend(o.site.into_iter().flat_map(|s| s.rec.spans));
    }
    out
}

pub fn pair_1t(env: &Env, dur: Duration, trace: Option<Tracing>) -> RepOut {
    pair(env, dur, trace, "pair_1t", 1)
}

pub fn pair_2t(env: &Env, dur: Duration, trace: Option<Tracing>) -> RepOut {
    pair(env, dur, trace, "pair_2t", 2)
}

/// `batch_1t`: `send_batch` / `recv_batch` of 64 on the same channel.
pub fn batch_1t(env: &Env, dur: Duration, trace: Option<Tracing>) -> RepOut {
    const TIMED_ROUND_EVERY: u64 = 4;
    let mut samples = Vec::with_capacity(sample_capacity(dur, 120_000.0));
    let mut site = span_site(
        env,
        trace,
        "batch_1t",
        "channel.batch64",
        4,
        2 * BATCH as u32,
        dur,
    );
    let setup = SetUp::begin();
    let (mut tx, mut rx) = channel::bounded::<u64>(ORDER, SLOTS);
    let setup = setup.constructed();
    let inject = env.inject_drop;
    let worker: Worker<_> = Box::new(move |gate: &Gate| {
        let (mut sent, mut recv, mut failed, mut seq) =
            (Sent::default(), Received::losing_one(inject), 0u64, 0u64);
        let mut inbox: Vec<u64> = Vec::with_capacity(BATCH);
        let mut outbox: Vec<u64> = Vec::with_capacity(BATCH);
        let mut round = || {
            inbox.extend((0..BATCH as u64).map(|j| tag(0, seq + j)));
            seq += BATCH as u64;
            let pushed = tx.send_batch(&mut inbox);
            // `send_batch` drains what it sent from the front.
            let base = seq - BATCH as u64;
            (0..pushed as u64).for_each(|j| sent.add(tag(0, base + j)));
            failed += (BATCH - pushed) as u64;
            inbox.clear();
            outbox.clear();
            let popped = rx.recv_batch(&mut outbox, BATCH);
            outbox.iter().for_each(|&v| recv.add(v));
            failed += (pushed - popped.min(pushed)) as u64;
        };
        gate.arrive_after(&mut round);
        let timing = closed_loop(dur, TIMED_ROUND_EVERY, &mut samples, &mut site, &mut round);
        while let Ok(v) = rx.try_recv() {
            recv.add(v);
        }
        (sent, recv, failed, timing, samples, site)
    });
    let (mut outs, ready) = run_pinned(env, &setup, vec![worker]);
    let peak_bytes = setup.peak();
    let (sent, recv, failed, timing, samples, site) = outs.pop().expect("one worker");
    let failed = failed + check::violations(&[sent], &[recv]);
    RepOut {
        ready,
        ops: sent.count + recv.count - 2 * BATCH as u64,
        elapsed_s: (timing.end - timing.start).as_secs_f64(),
        samples,
        attempted: timing.rounds * 2 * BATCH as u64,
        failed,
        violations: failed,
        peak_bytes,
        spans: site.into_iter().flat_map(|s| s.rec.spans).collect(),
        ..RepOut::default()
    }
}

// ===================================================================
// spsc_stream_2t
// ===================================================================

/// What the two threads of a one-way stream (`spsc_stream_2t`,
/// `park_wake_2t`) hand back.
enum Side {
    Producer {
        sent: Sent,
        failed: u64,
        /// Open-loop lateness samples (empty for a closed loop).
        late: Vec<u64>,
    },
    Consumer {
        recv: Received,
        failed: u64,
        start: Instant,
        end: Instant,
        samples: Vec<u64>,
        rec: Option<Recorder>,
    },
}

/// Consumer side: waits, untimed, until the producer's first message is in
/// the channel, so that receiving it is timed as a first operation and not
/// as a wait for the producer's thread to get going.
fn await_first_message(first_sent: &AtomicBool) {
    while !first_sent.load(Acquire) {
        std::thread::yield_now();
    }
}

/// Joins the two sides of a stream into a [`RepOut`]. Each side's first
/// message was exchanged before the start line and is not an op of the rep.
fn stream_rep(ready: Ready, peak_bytes: usize, sides: Vec<Side>) -> RepOut {
    let mut out = RepOut {
        ready,
        peak_bytes,
        ..RepOut::default()
    };
    let (mut all_sent, mut all_received) = (Sent::default(), Received::default());
    for side in sides {
        match side {
            Side::Producer { sent, failed, late } => {
                all_sent = sent;
                out.failed += failed;
                out.attempted += sent.count + failed - 1;
                out.late = late;
            }
            Side::Consumer {
                recv,
                failed,
                start,
                end,
                samples,
                rec,
            } => {
                all_received = recv;
                out.failed += failed;
                out.ops = recv.count.saturating_sub(1);
                out.elapsed_s = (end - start).as_secs_f64();
                out.samples = samples;
                out.spans = rec.map(|r| r.spans).unwrap_or_default();
            }
        }
    }
    out.failed += check::violations(&[all_sent], &[all_received]);
    out.violations = out.failed;
    out
}

/// Messages per credit update, and per timed block at the consumer.
const STREAM_BLOCK: u64 = 128;
/// Messages the producer may run ahead of the consumer. A quarter of the
/// ring, so `send` never finds it full.
const STREAM_WINDOW: u64 = 1024;
/// Messages the consumer stays behind the producer while it is sending, so
/// the two never work on the same cache lines of the ring (a consumer that
/// catches up makes every slot line bounce, and throughput then depends on
/// how often that happens).
const STREAM_LAG: u64 = 512;

/// A counter on its own cache lines (adjacent-line prefetch included).
#[repr(align(128))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

/// `spsc_stream_2t`: blocking `send` → blocking `recv` over
/// `channel::spsc`, FIFO checked per message. The two sides exchange
/// credits every 128 messages so that `send` never meets a full ring and
/// `recv` never an empty one: parking at those edges made throughput swing
/// by ±30 % between reps of one run, and what parking costs is
/// `park_wake_2t`'s question. The timed unit is the delivery of one
/// 128-message block at the consumer.
pub fn spsc_stream_2t(env: &Env, dur: Duration, trace: Option<Tracing>) -> RepOut {
    let mut samples: Vec<u64> = Vec::with_capacity(sample_capacity(dur, 1_500_000.0));
    let mut rec = trace.map(|t| {
        Recorder::new(
            env.epoch,
            "spsc_stream_2t",
            t.rep,
            sample_capacity(dur, 200_000.0),
        )
    });
    let setup = SetUp::begin();
    let (mut tx, mut rx) = channel::spsc::<u64>(ORDER, SLOTS);
    let setup = setup.constructed();
    let first_sent = &AtomicBool::new(false);
    let (sent_total, received_total, producer_done) = (
        PaddedCounter::default(),
        PaddedCounter::default(),
        AtomicBool::new(false),
    );
    let (sent_total, received_total, producer_done) =
        (&sent_total, &received_total, &producer_done);
    let inject = env.inject_drop;

    let producer: Worker<Side> = Box::new(move |gate: &Gate| {
        let (mut sent, mut failed) = (Sent::default(), 0u64);
        let mut send = |seq: u64| match tx.send(tag(0, seq)) {
            Ok(()) => sent.add(tag(0, seq)),
            Err(_) => failed += 1,
        };
        gate.arrive_after(|| {
            send(0);
            first_sent.store(true, Release);
        });
        let deadline = Instant::now() + dur;
        let mut streamed = 0u64;
        loop {
            while streamed - received_total.0.load(Acquire) > STREAM_WINDOW - STREAM_BLOCK {
                std::hint::spin_loop();
            }
            for seq in streamed..streamed + STREAM_BLOCK {
                send(1 + seq);
            }
            streamed += STREAM_BLOCK;
            sent_total.0.store(streamed, Release);
            if Instant::now() >= deadline {
                break;
            }
        }
        producer_done.store(true, Release);
        drop(tx); // last sender out: the consumer's final `recv` sees Closed
        Side::Producer {
            sent,
            failed,
            late: Vec::new(),
        }
    });
    let consumer: Worker<Side> = Box::new(move |gate: &Gate| {
        let mut recv = Received::losing_one(inject);
        let mut failed = 0u64;
        await_first_message(first_sent);
        gate.arrive_after(|| recv.add(rx.recv().expect("the producer's first message")));
        let start = Instant::now();
        let (mut mark, mut span_mark, mut streamed) = (start, start, 0u64);
        loop {
            // Check `done` before the count: once it reads true the count
            // read after it is final.
            let done = producer_done.load(Acquire);
            let backlog = sent_total.0.load(Acquire) - streamed;
            if backlog < STREAM_BLOCK + if done { 0 } else { STREAM_LAG } {
                if done {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            for _ in 0..STREAM_BLOCK {
                match rx.recv() {
                    Ok(v) => recv.add(v),
                    Err(_) => failed += 1,
                }
            }
            streamed += STREAM_BLOCK;
            received_total.0.store(streamed, Release);
            let now = Instant::now();
            keep(&mut samples, (now - mark).as_nanos() as u64);
            mark = now;
            if let Some(rec) = rec.as_mut() {
                if (streamed / STREAM_BLOCK).is_multiple_of(8) {
                    rec.push(
                        "channel.spsc.stream",
                        "",
                        span_mark,
                        now,
                        8 * STREAM_BLOCK as u32,
                    );
                    span_mark = now;
                }
            }
        }
        let end = Instant::now();
        // Everything sent was received, so the closed channel is empty.
        failed += u64::from(rx.recv().is_ok());
        Side::Consumer {
            recv,
            failed,
            start,
            end,
            samples,
            rec,
        }
    });
    let (sides, ready) = run_pinned(env, &setup, vec![producer, consumer]);
    stream_rep(ready, setup.peak(), sides)
}

// ===================================================================
// park_wake_2t
// ===================================================================

/// Spins until `due`, returning how late the caller then is.
#[inline]
fn wait_until(due: Instant) -> Duration {
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        std::hint::spin_loop();
    }
}

/// Sets its flag when dropped, so a helper thread waiting on the flag is
/// released even if its owner unwinds.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Release);
    }
}

/// `park_wake_2t`: open loop, one message every 200 µs to a consumer
/// parked in `recv`. Latency runs from the instant the send was *due*.
pub fn park_wake_2t(env: &Env, dur: Duration, trace: Option<Tracing>) -> RepOut {
    let expected = (dur.as_nanos() / WAKE_PERIOD.as_nanos()) as usize + 16;
    let mut samples: Vec<u64> = Vec::with_capacity(expected);
    let mut late: Vec<u64> = Vec::with_capacity(expected);
    let mut rec = trace.map(|t| Recorder::new(env.epoch, "park_wake_2t", t.rep, expected));
    let epoch = env.epoch;
    let setup = SetUp::begin();
    let (mut tx, mut rx) = channel::bounded::<u64>(4, 2);
    let setup = setup.constructed();
    let first_sent = &AtomicBool::new(false);
    // Schedule origin, nanoseconds since the epoch; published by the
    // producer before its first timed send (the channel orders it).
    let origin_ns = Arc::new(AtomicU64::new(0));
    let origin_for_consumer = Arc::clone(&origin_ns);
    let inject = env.inject_drop;

    let producer: Worker<Side> = Box::new(move |gate: &Gate| {
        let (mut sent, mut failed) = (Sent::default(), 0u64);
        let mut send = |v: u64| match tx.send(v) {
            Ok(()) => sent.add(v),
            Err(_) => failed += 1,
        };
        gate.arrive_after(|| {
            send(tag(1, 0));
            first_sent.store(true, Release);
        });
        let origin = Instant::now() + WAKE_PERIOD;
        origin_ns.store((origin - epoch).as_nanos() as u64, Release);
        let deadline = origin + dur;
        for seq in 0.. {
            let due = origin + WAKE_PERIOD * seq as u32;
            if due >= deadline {
                break;
            }
            late.push(wait_until(due).as_nanos() as u64);
            send(tag(0, seq));
        }
        drop(tx);
        Side::Producer { sent, failed, late }
    });
    let consumer: Worker<Side> = Box::new(move |gate: &Gate| {
        let mut recv = Received::losing_one(inject);
        await_first_message(first_sent);
        // An idle-class spinner shares this thread's CPU for the rep (it
        // inherits the pin), so each wake-up costs what the `sync` layer
        // and the scheduler make it cost, not what the host takes to
        // bring an idle vCPU back.
        let rep_over = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| cpu::keep_awake_until(&rep_over));
            let _release_keeper = StopOnDrop(&rep_over);
            gate.arrive_after(|| recv.add(rx.recv().expect("the producer's first message")));
            let start = Instant::now();
            while let Ok(v) = rx.recv() {
                let now_ns = (Instant::now() - epoch).as_nanos() as u64;
                recv.add(v);
                let due_ns = origin_for_consumer.load(Acquire)
                    + (v & 0xffff_ffff) * WAKE_PERIOD.as_nanos() as u64;
                samples.push(now_ns.saturating_sub(due_ns));
                if let Some(rec) = rec.as_mut() {
                    rec.push_ns("sync.wake", "", due_ns, now_ns.max(due_ns), 1);
                }
            }
            Side::Consumer {
                recv,
                failed: 0,
                start,
                end: Instant::now(),
                samples,
                rec,
            }
        })
    });
    let (sides, ready) = run_pinned(env, &setup, vec![producer, consumer]);
    stream_rep(ready, setup.peak(), sides)
}

// ===================================================================
// Collector workloads
// ===================================================================

const SHARDS: usize = 2;

/// The benchmark's own sink: counts and checksums what it is handed,
/// checks per-lane order, and (for `collector_rate`) times sampled spans
/// from their due time to the export call.
struct CheckingExporter {
    epoch: Instant,
    count: u64,
    xor_ids: u64,
    /// `id + 1` of the last span seen per lane; one producer submits
    /// increasing ids, so each lane must export them increasing.
    next_min_id: [u64; SHARDS],
    out_of_order: u64,
    /// 0 = record no latency samples.
    sample_every: u64,
    /// `(start_ns, exported at)` of each sampled span, since the epoch.
    stamps: Vec<(u64, u64)>,
}

impl CheckingExporter {
    /// Samples one span in `sample_every` (0 = none), up to `capacity`.
    fn new(epoch: Instant, sample_every: u64, capacity: usize) -> CheckingExporter {
        CheckingExporter {
            epoch,
            count: 0,
            xor_ids: 0,
            next_min_id: [0; SHARDS],
            out_of_order: 0,
            sample_every,
            stamps: Vec::with_capacity(capacity),
        }
    }
}

impl Exporter for CheckingExporter {
    fn export(&mut self, spans: &[TelemetrySpan]) -> Result<(), ExportError> {
        let now_ns = if self.sample_every > 0 {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        };
        for s in spans {
            self.count += 1;
            self.xor_ids ^= s.id;
            let lane = (s.trace % SHARDS as u64) as usize;
            if s.id < self.next_min_id[lane] {
                self.out_of_order += 1;
            }
            self.next_min_id[lane] = s.id + 1;
            if self.sample_every > 0
                && s.id % self.sample_every == 0
                && self.stamps.len() < self.stamps.capacity()
            {
                self.stamps.push((s.start_ns, now_ns.max(s.start_ns)));
            }
        }
        Ok(())
    }
}

/// SplitMix64: the seeded stream of trace ids (and so of lane choices).
#[derive(Clone, Copy)]
pub struct SplitMix(pub u64);

impl SplitMix {
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn collector_config(
    shed: ShedPolicy,
    lane_order: u32,
    batch_max: usize,
    flush_after: Duration,
) -> CollectorConfig {
    CollectorConfig {
        shards: SHARDS,
        producers: 1,
        workers: 1,
        batch_max,
        lane_order,
        flush_after,
        shed,
        ..CollectorConfig::default()
    }
}

/// Spawns the pipeline with its threads confined to the CPUs the producer
/// does not use. The set-up clock runs inside the confinement, so moving
/// the main thread over is not charged to `Collector::spawn`.
fn spawn_collector(
    env: &Env,
    cfg: CollectorConfig,
    exporter: CheckingExporter,
) -> (SetUp, Collector<CheckingExporter>, SpanSender) {
    env.cpus.spawn_beside_load(1, || {
        let setup = SetUp::begin();
        let (collector, sender) = Collector::spawn(cfg, exporter, Arc::new(NoFaults));
        (setup.constructed(), collector, sender)
    })
}

/// What the single producer thread of a collector workload hands back.
struct Submitted {
    accepted: Sent,
    submitted: u64,
    start: Instant,
    /// Dropped its sender at this instant: the close ripple starts here.
    released: Instant,
    samples: Vec<u64>,
    late: Vec<u64>,
    rec: Option<Recorder>,
}

/// Joins the pipeline and turns its report, the exporter's tallies and the
/// producer's into a [`RepOut`].
fn finish_collector(
    collector: Collector<CheckingExporter>,
    sub: Submitted,
    ready: Ready,
    setup: SetUp,
) -> RepOut {
    let (report, exporter) = collector.shutdown();
    let done = Instant::now();
    let peak_bytes = setup.peak();
    let m = &report.metrics;
    let mut violations = u64::from(!m.conserved())
        + exporter.count.abs_diff(m.exported)
        + sub.accepted.count.abs_diff(m.accepted)
        + (sub.submitted - sub.accepted.count).abs_diff(m.shed)
        + exporter.out_of_order;
    if m.dropped == 0
        && exporter.count == sub.accepted.count
        && exporter.xor_ids != sub.accepted.xor
    {
        violations += 1;
    }
    // `collector_rate` is timed at the exporter, `collector_sat` at the
    // producer; exactly one of the two sample sets is non-empty.
    let mut samples = sub.samples;
    samples.extend(exporter.stamps.iter().map(|(start, end)| end - start));
    let mut rec = sub.rec;
    if let Some(rec) = rec.as_mut() {
        for &(start_ns, end_ns) in &exporter.stamps {
            rec.push_ns(
                "collector.span",
                "collector.submit_stride",
                start_ns,
                end_ns,
                1,
            );
        }
    }
    RepOut {
        ready,
        ops: m.exported.saturating_sub(1),
        elapsed_s: (done - sub.start).as_secs_f64(),
        samples,
        late: sub.late,
        attempted: sub.submitted - 1,
        failed: m.shed + m.dropped + violations,
        violations,
        peak_bytes,
        spans: rec.map(|r| r.spans).unwrap_or_default(),
        collector: Some(CollectorStats {
            drain_s: (done - sub.released).as_secs_f64(),
            report,
        }),
    }
}

/// `collector_sat`: `submit` back to back under `ShedPolicy::Block`; the
/// timed unit is a block of 256 `submit` calls, drain time counts.
pub fn collector_sat(env: &Env, dur: Duration, trace: Option<Tracing>) -> RepOut {
    let mut samples: Vec<u64> = Vec::with_capacity(sample_capacity(dur, 60_000.0));
    let mut rec = trace.map(|t| {
        Recorder::new(
            env.epoch,
            "collector_sat",
            t.rep,
            sample_capacity(dur, 60_000.0),
        )
    });
    let exporter = CheckingExporter::new(env.epoch, 0, 0);
    let mut traces = SplitMix(env.seed);
    let cfg = collector_config(
        ShedPolicy::Block,
        12,
        1024,
        CollectorConfig::default().flush_after,
    );
    let (setup, collector, mut sender) = spawn_collector(env, cfg, exporter);
    let producer: Worker<Submitted> = Box::new(move |gate: &Gate| {
        let (mut accepted, mut id) = (Sent::default(), 0u64);
        let mut submit = |id: u64| {
            if sender.submit(TelemetrySpan::new(traces.next_u64(), id)) {
                accepted.add(id);
            }
        };
        gate.arrive_after(|| submit(id));
        id += 1;
        let start = Instant::now();
        let deadline = start + dur;
        let mut mark = start;
        loop {
            for _ in 0..SUBMIT_BLOCK {
                submit(id);
                id += 1;
            }
            let now = Instant::now();
            keep(&mut samples, (now - mark).as_nanos() as u64);
            if let Some(rec) = rec.as_mut() {
                rec.push("collector.submit", "", mark, now, SUBMIT_BLOCK as u32);
            }
            mark = now;
            if now >= deadline {
                break;
            }
        }
        drop(sender);
        Submitted {
            accepted,
            submitted: id,
            start,
            released: Instant::now(),
            samples,
            late: Vec::new(),
            rec,
        }
    });
    let (mut outs, ready) = run_pinned(env, &setup, vec![producer]);
    finish_collector(collector, outs.pop().expect("one producer"), ready, setup)
}

/// `collector_rate`: open loop at a fixed 1 000 000 spans/s in 50-span
/// strides under `ShedPolicy::Shed`. `Span::start_ns` carries the due
/// time; the exporter records `now − start_ns` for every 16th span.
pub fn collector_rate(env: &Env, dur: Duration, trace: Option<Tracing>) -> RepOut {
    let strides = (dur.as_nanos() / RATE_STRIDE_PERIOD.as_nanos()) as usize + 16;
    let mut late: Vec<u64> = Vec::with_capacity(strides);
    let mut rec = trace.map(|t| Recorder::new(env.epoch, "collector_rate", t.rep, strides));
    let exporter = CheckingExporter::new(
        env.epoch,
        SPAN_SAMPLE_EVERY,
        strides * RATE_STRIDE as usize / SPAN_SAMPLE_EVERY as usize + 64,
    );
    let mut traces = SplitMix(env.seed);
    let epoch = env.epoch;
    // Lanes of 2^16: at 500 000 spans/s per lane they absorb a 130 ms stall
    // of the service's CPU without shedding (2^14 lanes still shed in one
    // run in ten on a shared host, where a vCPU can vanish for 30 ms).
    let cfg = collector_config(ShedPolicy::Shed, 16, 64, Duration::from_millis(1));
    let (setup, collector, mut sender) = spawn_collector(env, cfg, exporter);
    let producer: Worker<Submitted> = Box::new(move |gate: &Gate| {
        let (mut accepted, mut id) = (Sent::default(), 0u64);
        let mut submit = |id: u64, start_ns: u64| {
            let span = TelemetrySpan {
                trace: traces.next_u64(),
                id,
                start_ns,
                dur_ns: 0,
            };
            if sender.submit(span) {
                accepted.add(id);
            }
        };
        gate.arrive_after(|| submit(id, epoch.elapsed().as_nanos() as u64));
        id += 1;
        let start = Instant::now();
        let deadline = start + dur;
        for stride in 0.. {
            let due = start + RATE_STRIDE_PERIOD * stride;
            if due >= deadline {
                break;
            }
            let lateness = wait_until(due);
            late.push(lateness.as_nanos() as u64);
            let due_ns = (due - epoch).as_nanos() as u64;
            for _ in 0..RATE_STRIDE {
                submit(id, due_ns);
                id += 1;
            }
            if let Some(rec) = rec.as_mut() {
                rec.push(
                    "collector.submit_stride",
                    "",
                    due + lateness,
                    Instant::now(),
                    RATE_STRIDE as u32,
                );
            }
        }
        drop(sender);
        Submitted {
            accepted,
            submitted: id,
            start,
            released: Instant::now(),
            samples: Vec::new(),
            late,
            rec,
        }
    });
    let (mut outs, ready) = run_pinned(env, &setup, vec![producer]);
    finish_collector(collector, outs.pop().expect("one producer"), ready, setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn env(cpus: &Cpus, inject_drop: bool) -> Env<'_> {
        Env {
            cpus,
            epoch: Instant::now(),
            seed: 7,
            inject_drop,
        }
    }

    /// Every workload, briefly: all checks hold, work was done, set-up was
    /// timed, and tracing records spans without disturbing correctness.
    #[test]
    fn every_workload_runs_clean_traced_and_untraced() {
        let cpus = Cpus::discover();
        for w in WORKLOADS
            .iter()
            .filter(|w| cpus.allowed().len() >= w.threads)
        {
            for trace in [None, Some(Tracing { rep: 3 })] {
                let out = (w.run)(&env(&cpus, false), Duration::from_millis(30), trace);
                assert_eq!((out.violations, out.failed), (0, 0), "{}", w.name);
                assert!(
                    out.ops > 0 && out.attempted >= out.ops && out.elapsed_s > 0.0,
                    "{}",
                    w.name
                );
                assert!(
                    out.ready.setup_s > 0.0 && out.ready.footprint_bytes > 0,
                    "{}",
                    w.name
                );
                assert!(!out.samples.is_empty(), "{}", w.name);
                assert_eq!(out.spans.is_empty(), trace.is_none(), "{}", w.name);
                assert!(out
                    .spans
                    .iter()
                    .all(|s| s.workload == w.name && s.rep == 3 && s.end_ns >= s.start_ns));
            }
        }
    }

    /// The debug self-test behind `--inject-drop`: losing one received
    /// value must be noticed by every queue workload's check.
    #[test]
    fn a_dropped_value_fails_the_check() {
        let cpus = Cpus::discover();
        for w in WORKLOADS
            .iter()
            .filter(|w| cpus.allowed().len() >= w.threads && !w.name.starts_with("collector"))
        {
            let out = (w.run)(&env(&cpus, true), Duration::ZERO, None);
            assert!(
                out.violations >= 1,
                "{} did not notice a lost value",
                w.name
            );
        }
    }

    #[test]
    fn same_seed_same_trace_ids() {
        let (mut a, mut b, mut c) = (SplitMix(9), SplitMix(9), SplitMix(10));
        let ids = |r: &mut SplitMix| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        let first = ids(&mut a);
        assert_eq!(first, ids(&mut b));
        assert_ne!(first, ids(&mut c));
    }
}
