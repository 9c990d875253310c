//! The collector pipeline: sharded ingest lanes → batching workers →
//! resilient exporter, every stage joined by `wcq::channel` endpoints.
//!
//! ```text
//!  SpanSender ──try_send──► lane 0 (channel::mpsc) ─┐
//!  SpanSender ──try_send──► lane 1                  ├─ worker 0 ─┐
//!      ...                    ...                   │            ├─► export
//!  SpanSender ──try_send──► lane S-1               ─┴─ worker W-1┘   queue ─► exporter
//! ```
//!
//! A worker ships a batch when it is full, when it has been open
//! `flush_after`, or when the flow pauses: two sweeps a short grace wait
//! apart both find every lane empty. It parks only with nothing
//! buffered, so a span never waits on somebody else's next span, and
//! after a pause flush it first yields its CPU once, so an exporter the
//! flush woke on the same CPU ships the batch before the worker pays for
//! its park.
//!
//! Shutdown is a refcount ripple, not a flag: dropping the last
//! [`SpanSender`] closes every lane (last-sender-out close in
//! `wcq::channel`); each worker sweeps its lanes dry, ships the final
//! partial batch, sees `Closed` from its park and drops its export-queue
//! sender; the last worker out closes the export queue; the exporter
//! drains it to `Closed` and returns. No span accepted before the ripple
//! can be lost — that is the conservation identity
//! [`crate::MetricsSnapshot::conserved`] asserts, and DST model 8
//! explores the deadline, pause and drain flushes against the close
//! ripple at schedule granularity.

use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::stats::{LatencyStats, Reservoir};
use wcq::channel::{self, Receiver, Sender, TrySendError};
use wcq::sync::SendError;

use crate::export::{
    ExportError, Exporter, FaultAction, FaultInjector, OverflowPolicy, RetryPolicy,
};
use crate::metrics::{FlushCause, Metrics, MetricsSnapshot};
use crate::sim;
use crate::span::Span;

/// Which shard (lane, counter block) a span belongs to. Derived from the
/// trace id on both edges of the pipeline — ingest (`submit`) and export
/// accounting — so a batch never needs to carry shard tags.
pub(crate) fn shard_of(trace: u64, shards: usize) -> usize {
    (trace % shards as u64) as usize
}

/// What [`SpanSender::submit`] does when a span's lane is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the span (`submit` returns `false`, the shard's `shed`
    /// counter is bumped) and return immediately. The telemetry default:
    /// the pipeline must never add latency to the code being traced.
    #[default]
    Shed,
    /// Park the producer until the lane has room. Turns overload into
    /// producer backpressure instead of data loss; for pipelines feeding
    /// an auditor rather than a dashboard.
    Block,
}

/// Sizing and policy for one collector pipeline.
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Ingest shards = independent MPSC lanes (spans shard by trace id).
    pub shards: usize,
    /// Per-producer ring capacity in each lane is `2^lane_order` slots.
    pub lane_order: u32,
    /// Declared concurrently-submitting [`SpanSender`] clones: each gets
    /// a private ring in every lane and a private row of ingest counters.
    /// More than this still works — the lane grafts its wait-free spine,
    /// exactly as `channel::mpsc` documents, and the extra senders share
    /// one counter row — but seated producers are faster, so declare the
    /// real number. The spine has thread slots for `producers + 1` extra
    /// senders at a time; a sender beyond that sheds under
    /// [`ShedPolicy::Shed`] and parks under [`ShedPolicy::Block`] until
    /// one drops.
    pub producers: usize,
    /// Batching worker threads. Lanes are distributed round-robin;
    /// clamped to `1..=shards` (a lane has exactly one sweeper).
    pub workers: usize,
    /// Flush a batch when it reaches this many spans. The cap on a
    /// batch, not a target: a batch also ships as soon as the flow
    /// pauses, so under a trickle batches stay small, and they grow back
    /// toward this when the exporter falls behind and spans pile up in
    /// the lanes.
    pub batch_max: usize,
    /// Flush a non-empty batch this long after its first span arrived,
    /// full or not — the freshness bound on exported telemetry. Only a
    /// flow that never pauses reaches it; any pause ships the batch
    /// sooner.
    pub flush_after: Duration,
    /// Ingest overload response.
    pub shed: ShedPolicy,
    /// Export retry budget and backoff.
    pub retry: RetryPolicy,
    /// What happens to a batch whose retries are exhausted.
    pub overflow: OverflowPolicy,
    /// Export queue capacity is `2^export_order` batches; when the
    /// exporter stalls and the queue fills, workers park on it (batch
    /// backpressure), which in turn fills lanes and engages [`ShedPolicy`]
    /// at the ingest edge — overload sheds at the cheap edge, never
    /// mid-pipeline.
    pub export_order: u32,
    /// Flush-latency samples retained for the report percentiles.
    pub latency_reservoir: usize,
}

impl Default for CollectorConfig {
    fn default() -> CollectorConfig {
        CollectorConfig {
            shards: 4,
            lane_order: 10,
            producers: 4,
            workers: 2,
            batch_max: 128,
            flush_after: Duration::from_millis(5),
            shed: ShedPolicy::Shed,
            retry: RetryPolicy::default(),
            overflow: OverflowPolicy::Drop,
            export_order: 6,
            latency_reservoir: 4096,
        }
    }
}

/// Producer handle. Cloneable — each clone clones every lane sender, so
/// the lanes' close ripples exactly when the **last** clone drops.
pub struct SpanSender {
    lanes: Vec<Sender<Span>>,
    metrics: Arc<Metrics>,
    shed: ShedPolicy,
    /// Ingest counter row this sender writes: claimed on the first
    /// `submit` (so a template that only ever gets cloned takes no seat),
    /// given back on drop.
    row: Option<usize>,
}

impl SpanSender {
    /// Offers one span to its shard's lane. Returns `true` iff the span
    /// was accepted (it will be exported or counted dropped — never
    /// silently lost). `false` means it was shed at ingest: lane full
    /// under [`ShedPolicy::Shed`], or the pipeline already shut down.
    pub fn submit(&mut self, span: Span) -> bool {
        let shard = shard_of(span.trace, self.lanes.len());
        let accepted = match self.shed {
            ShedPolicy::Shed => match self.lanes[shard].try_send(span) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) | Err(TrySendError::Closed(_)) => false,
            },
            ShedPolicy::Block => match self.lanes[shard].send(span) {
                Ok(()) => true,
                Err(SendError::Closed(_)) => false,
                // Untimed send never reports Timeout.
                Err(SendError::Timeout(_)) => unreachable!("send() has no deadline"),
            },
        };
        // Counted after the send lands: a span is "accepted" only once a
        // worker can actually see it. The totals are read post-join, so
        // the gap is invisible to the conservation check.
        let metrics = &self.metrics;
        let row = *self.row.get_or_insert_with(|| metrics.claim_seat());
        if accepted {
            metrics.on_accept(row, shard, &span);
        } else {
            metrics.on_shed(row, shard);
        }
        accepted
    }

    /// Live counter view shared with the pipeline.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

impl Clone for SpanSender {
    fn clone(&self) -> SpanSender {
        SpanSender {
            lanes: self.lanes.clone(),
            metrics: Arc::clone(&self.metrics),
            shed: self.shed,
            row: None,
        }
    }
}

impl Drop for SpanSender {
    fn drop(&mut self) {
        if let Some(row) = self.row {
            self.metrics.release_seat(row);
        }
    }
}

/// One flushed batch in flight from a worker to the exporter stage.
struct Batch {
    spans: Vec<Span>,
    /// When the batch's first span entered the worker's buffer; the
    /// exporter turns this into the flush-latency sample.
    opened: Instant,
}

/// Everything the pipeline can report about a finished run.
#[derive(Clone, Debug)]
pub struct CollectorReport {
    /// Final (exact — all threads joined) counter totals.
    pub metrics: MetricsSnapshot,
    /// Distribution of first-span-buffered → batch-exported latency,
    /// from a bounded uniform sample (see [`Reservoir`]).
    pub flush_latency: LatencyStats,
}

/// A running pipeline: worker and exporter threads plus the shared
/// counters. Created by [`Collector::spawn`]; reclaimed by
/// [`Collector::shutdown`].
pub struct Collector<E: Exporter> {
    workers: Vec<sim::JoinHandle<()>>,
    export: sim::JoinHandle<(E, Vec<u64>)>,
    metrics: Arc<Metrics>,
}

impl<E: Exporter + 'static> Collector<E> {
    /// Builds the lanes, spawns `cfg.workers` batching workers and the
    /// exporter thread, and returns the pipeline plus the template
    /// [`SpanSender`]. Clone the sender onto producer threads; the
    /// pipeline owns no sender itself, so the close ripple starts the
    /// moment the last clone drops.
    ///
    /// # Panics
    ///
    /// If `cfg.shards == 0` or `cfg.batch_max == 0`.
    pub fn spawn(
        cfg: CollectorConfig,
        exporter: E,
        faults: Arc<dyn FaultInjector>,
    ) -> (Collector<E>, SpanSender) {
        assert!(cfg.shards > 0, "collector needs at least one shard");
        assert!(cfg.batch_max > 0, "batch_max of zero can never flush");
        let workers = cfg.workers.clamp(1, cfg.shards);
        let metrics = Arc::new(Metrics::new(cfg.shards, cfg.producers));

        // Export queue: workers (+ the soon-dropped template) in, one
        // exporter out.
        let (batch_tx, batch_rx) =
            channel::mpsc::<Batch>(cfg.export_order, workers + 1, workers + 3);

        // Ingest lanes, receivers dealt round-robin to workers.
        let mut lane_txs = Vec::with_capacity(cfg.shards);
        let mut worker_lanes: Vec<Vec<Receiver<Span>>> =
            (0..workers).map(|_| Vec::new()).collect();
        for shard in 0..cfg.shards {
            // Slots: `producers` seated sender handles + the sweeping
            // worker + slack for the template/overflow clones.
            let (tx, rx) =
                channel::mpsc::<Span>(cfg.lane_order, cfg.producers, cfg.producers + 2);
            lane_txs.push(tx);
            worker_lanes[shard % workers].push(rx);
        }

        let worker_handles = worker_lanes
            .into_iter()
            .map(|lanes| {
                let w = Worker {
                    lanes,
                    batch_tx: batch_tx.clone(),
                    metrics: Arc::clone(&metrics),
                    batch_max: cfg.batch_max,
                    flush_after: cfg.flush_after,
                };
                sim::spawn(move || w.run())
            })
            .collect();
        // The workers hold the only live export-queue senders now; the
        // last worker to exit closes it under the exporter.
        drop(batch_tx);

        let stage = ExportStage {
            rx: batch_rx,
            exporter,
            faults,
            retry: cfg.retry,
            overflow: cfg.overflow,
            metrics: Arc::clone(&metrics),
            counts: vec![0; cfg.shards],
            latency: Reservoir::new(cfg.latency_reservoir.max(1)),
        };
        let export = sim::spawn(move || stage.run());

        let sender = SpanSender {
            lanes: lane_txs,
            metrics: Arc::clone(&metrics),
            shed: cfg.shed,
            row: None,
        };
        (
            Collector {
                workers: worker_handles,
                export,
                metrics,
            },
            sender,
        )
    }

    /// Live (relaxed, possibly mid-flight) counter snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Joins the pipeline after the close ripple and returns the final
    /// report plus the exporter (so tests can inspect what it received).
    ///
    /// Blocks until every worker and the exporter exit — which requires
    /// every [`SpanSender`] clone to have been dropped first; call this
    /// after releasing them. In-flight spans are drained, not discarded:
    /// workers sweep their lanes to `Closed` and flush the final partial
    /// batch before exiting.
    pub fn shutdown(self) -> (CollectorReport, E) {
        for w in self.workers {
            w.join().expect("collector worker panicked");
        }
        let (exporter, samples) = self.export.join().expect("collector exporter panicked");
        let report = CollectorReport {
            metrics: self.metrics.snapshot(),
            flush_latency: LatencyStats::from_ns_samples(samples),
        };
        (report, exporter)
    }
}

// ===================================================================
// Worker: sweep lanes, batch, flush on size, deadline or pause
// ===================================================================

struct Worker {
    lanes: Vec<Receiver<Span>>,
    batch_tx: Sender<Batch>,
    metrics: Arc<Metrics>,
    batch_max: usize,
    flush_after: Duration,
}

/// How many of the open batch's mean inter-arrival gaps a worker waits,
/// after a sweep finds every lane empty, before it looks again and calls
/// the flow paused.
const GRACE_GAPS: f64 = 4.0;

impl Worker {
    fn run(mut self) {
        let mut buf: Vec<Span> = Vec::with_capacity(self.batch_max);
        let mut opened: Option<Instant> = None;
        // How long the last size-triggered batch took from open to flush:
        // the arrival-rate estimate the sweep is paced by. `None` until a
        // batch has filled, and again whenever the flow pauses.
        let mut fill: Option<Duration> = None;
        // The previous sweep found every lane empty and the grace wait
        // since has run: one more empty sweep means the flow paused.
        let mut looked = false;
        // BOUND: wait-edge — worker service loop: sweeps lanes until
        // recv_any reports every lane Closed, then exits
        loop {
            // Sweep every lane while there is room in the batch. A lane
            // that closed mid-sweep just yields nothing here; recv_any
            // below is what detects all-closed.
            let mut got = 0;
            for rx in self.lanes.iter_mut() {
                let room = self.batch_max - buf.len();
                if room == 0 {
                    break;
                }
                got += rx.recv_batch(&mut buf, room);
            }
            if opened.is_none() && !buf.is_empty() {
                opened = Some(Instant::now());
            }
            if buf.len() >= self.batch_max {
                fill = opened.map(|o| o.elapsed());
                self.flush(&mut buf, &mut opened, FlushCause::Full);
                continue;
            }
            if let Some(o) = opened {
                let open_for = o.elapsed();
                if open_for >= self.flush_after {
                    fill = None;
                    self.flush(&mut buf, &mut opened, FlushCause::Deadline);
                    continue;
                }
                if got > 0 {
                    looked = false;
                    // Spans are flowing and the batch has room. At a known
                    // rate, come back when the room should have filled,
                    // not at once: sweeping a near-empty lane back to back
                    // keeps this CPU reading the slot and tail lines the
                    // producer is writing, which costs the producer more
                    // than the sweep gains (DESIGN.md §14). With no rate
                    // yet, sweep again at once; the batch that fills
                    // gives the rate.
                    if let Some(fill) = fill {
                        let room = (self.batch_max - buf.len()) as f64;
                        let wait = fill.mul_f64(room / self.batch_max as f64);
                        sim::pace(o + self.flush_after.min(open_for + wait));
                    }
                    continue;
                }
                if !looked {
                    // Every lane was empty. Overtaking a producer looks
                    // the same as a pause, so wait a few of this batch's
                    // mean gaps and look again before shipping: a worker
                    // that ships at the first empty sweep also drops the
                    // pacing estimate each time, and flips to sweeping
                    // near-empty lanes (DESIGN.md §14).
                    looked = true;
                    let grace = open_for.mul_f64(GRACE_GAPS / buf.len() as f64);
                    sim::pace(o + self.flush_after.min(open_for + grace));
                    continue;
                }
                // Empty again: the flow paused. Ship rather than hold the
                // spans for whoever sends next.
                if self.lanes.iter().all(|rx| rx.is_closed()) {
                    self.flush(&mut buf, &mut opened, FlushCause::Drain);
                } else {
                    self.flush(&mut buf, &mut opened, FlushCause::Pause);
                    // The flush woke the exporter, perhaps onto this CPU:
                    // let it export before this thread pays for its own
                    // registrations and park (DESIGN.md §14).
                    sim::hand_off();
                }
            }
            // Nothing buffered: park across all lanes, with no deadline to
            // keep because the worker never parks holding spans.
            debug_assert!(buf.is_empty());
            looked = false;
            fill = None;
            // Untimed, so the only error is Closed: every lane closed
            // *and* drained, the shutdown ripple. Nothing to ship; retire.
            let Ok((_, span)) = channel::recv_any(&mut self.lanes, None) else {
                return;
            };
            opened = Some(Instant::now());
            buf.push(span);
        }
    }

    fn flush(&mut self, buf: &mut Vec<Span>, opened: &mut Option<Instant>, cause: FlushCause) {
        let opened_at = opened.take().expect("only an open batch is flushed");
        let spans = std::mem::replace(buf, Vec::with_capacity(self.batch_max));
        self.metrics.on_flush(cause);
        match self.batch_tx.send(Batch {
            spans,
            opened: opened_at,
        }) {
            Ok(()) => {}
            Err(SendError::Closed(batch)) | Err(SendError::Timeout(batch)) => {
                // Closed is unreachable in the normal lifecycle (the
                // exporter holds the receiver until this sender closes)
                // and Timeout cannot come from an untimed send, but if
                // either ever surfaces the spans must still be accounted,
                // not lost.
                self.metrics
                    .on_drop_batch(&batch.spans, &mut vec![0; self.metrics.shards()]);
            }
        }
    }
}

// ===================================================================
// Exporter stage: bounded retry, fault injection, overflow accounting
// ===================================================================

struct ExportStage<E: Exporter> {
    rx: Receiver<Batch>,
    exporter: E,
    faults: Arc<dyn FaultInjector>,
    retry: RetryPolicy,
    overflow: OverflowPolicy,
    metrics: Arc<Metrics>,
    /// Per-shard scratch for the batch accounting, zero between batches.
    counts: Vec<u64>,
    latency: Reservoir,
}

impl<E: Exporter> ExportStage<E> {
    fn run(mut self) -> (E, Vec<u64>) {
        // `recv` without a timeout only ever yields a value or Closed;
        // Closed here means every worker has flushed its final batch.
        // BOUND: wait-edge — exporter drains until the batch channel
        // closes, which means every worker flushed its final batch
        while let Ok(batch) = self.rx.recv() {
            self.export_batch(batch);
        }
        (self.exporter, self.latency.into_samples())
    }

    fn export_batch(&mut self, batch: Batch) {
        let budget = self.retry.max_attempts.max(1);
        for attempt in 1..=budget {
            let outcome = match self.faults.before_attempt() {
                FaultAction::Proceed => self.exporter.export(&batch.spans),
                FaultAction::Fail => Err(ExportError),
                FaultAction::Stall(d) => {
                    sim::sleep(d);
                    self.exporter.export(&batch.spans)
                }
            };
            match outcome {
                Ok(()) => {
                    self.metrics.on_export_batch(&batch.spans, &mut self.counts);
                    self.latency
                        .push(batch.opened.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    return;
                }
                Err(ExportError) => {
                    self.metrics.on_export_failure();
                    if attempt < budget {
                        self.metrics.on_retry();
                        sim::sleep(self.retry.backoff);
                    }
                }
            }
        }
        // Retries exhausted: the overflow policy decides, and every span
        // stays accounted either way.
        match self.overflow {
            OverflowPolicy::Drop => self.metrics.on_drop_batch(&batch.spans, &mut self.counts),
        }
    }
}
