//! The collector pipeline: sharded ingest lanes → batching workers that
//! export their own batches through one shared, resilient export stage.
//!
//! ```text
//!  SpanSender ──try_send──► lane 0 (channel::mpsc) ─┐
//!  SpanSender ──try_send──► lane 1                  ├─ worker 0 ─┐  export lock
//!      ...                    ...                   │            ├─► ExportStage ─► Exporter
//!  SpanSender ──try_send──► lane S-1               ─┴─ worker W-1┘
//! ```
//!
//! A worker ships a batch when it is full, when it has been open
//! `flush_after`, or when the flow pauses: two sweeps a short grace wait
//! apart both find every lane empty. To ship, it takes the export lock
//! and runs the retry loop around the [`Exporter`] itself, so a batch
//! reaches the sink on the thread that flushed it, with no queue and no
//! wake between them. It parks only with nothing buffered, so a span
//! never waits on somebody else's next span.
//!
//! Shutdown is a refcount ripple, not a flag: dropping the last
//! [`SpanSender`] closes every lane (last-sender-out close in
//! `wcq::channel`); each worker sweeps its lanes dry, exports the final
//! partial batch, sees `Closed` from its park and returns;
//! [`Collector::shutdown`] joins the workers and takes the exporter back
//! out of the stage. No span accepted before the ripple can be lost —
//! that is the conservation identity [`crate::MetricsSnapshot::conserved`]
//! asserts, and DST model 8 explores the deadline, pause and drain
//! flushes against the close ripple, and two workers' flushes against
//! each other on the export lock, at schedule granularity.

use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::stats::{LatencyStats, Reservoir};
use wcq::channel::{self, Receiver, Sender, TrySendError};
use wcq::sync::SendError;

use crate::export::{ExportError, Exporter, FaultAction, FaultInjector, RetryPolicy};
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
    /// A hard count, as `channel::mpsc` documents: a sender that finds
    /// every seat of its span's lane held sheds under
    /// [`ShedPolicy::Shed`] and parks under [`ShedPolicy::Block`] until a
    /// seated sender drops. Extra senders share one counter row. Declare
    /// the real number.
    pub producers: usize,
    /// Batching worker threads. Lanes are distributed round-robin;
    /// clamped to `1..=shards` (a lane has exactly one sweeper). Each
    /// worker exports the batches it flushes, one worker at a time under
    /// the export lock, so more workers add sweeping, not export,
    /// parallelism.
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
    /// Export retry budget and backoff. A batch whose retries are
    /// exhausted is counted as dropped (per-shard `dropped` counters plus
    /// the dropped checksum): accounted, not lost. A slow or failing
    /// sink holds the flushing worker (and any worker waiting on the
    /// export lock) while spans wait in the lanes, which engages
    /// [`ShedPolicy`] at the ingest edge — overload sheds at the cheap
    /// edge, never mid-pipeline.
    pub retry: RetryPolicy,
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

/// Everything the pipeline can report about a finished run.
#[derive(Clone, Debug)]
pub struct CollectorReport {
    /// Final (exact — all threads joined) counter totals.
    pub metrics: MetricsSnapshot,
    /// Distribution of first-span-buffered → batch-exported latency,
    /// from a bounded uniform sample (see [`Reservoir`]).
    pub flush_latency: LatencyStats,
}

/// A running pipeline: worker threads, the export stage they share and
/// the shared counters. Created by [`Collector::spawn`]; reclaimed by
/// [`Collector::shutdown`].
pub struct Collector<E: Exporter> {
    workers: Vec<sim::JoinHandle<()>>,
    export: Arc<sim::Mutex<ExportStage<E>>>,
    metrics: Arc<Metrics>,
}

impl<E: Exporter + 'static> Collector<E> {
    /// Builds the lanes and the export stage, spawns `cfg.workers`
    /// batching workers, and returns the pipeline plus the template
    /// [`SpanSender`]. Clone the sender onto producer threads; the
    /// pipeline owns no sender itself, so the close ripple starts the
    /// moment the last clone drops.
    ///
    /// # Panics
    ///
    /// If `cfg.shards == 0`, `cfg.producers == 0` or `cfg.batch_max == 0`.
    pub fn spawn(
        cfg: CollectorConfig,
        exporter: E,
        faults: Arc<dyn FaultInjector>,
    ) -> (Collector<E>, SpanSender) {
        assert!(cfg.shards > 0, "collector needs at least one shard");
        assert!(
            cfg.producers > 0,
            "collector needs at least one producer seat"
        );
        assert!(cfg.batch_max > 0, "batch_max of zero can never flush");
        let workers = cfg.workers.clamp(1, cfg.shards);
        let metrics = Arc::new(Metrics::new(cfg.shards, cfg.producers));
        let export = Arc::new(sim::Mutex::new(ExportStage {
            faults,
            retry: cfg.retry,
            metrics: Arc::clone(&metrics),
            counts: vec![0; cfg.shards],
            latency: Reservoir::new(cfg.latency_reservoir.max(1)),
            exporter,
        }));

        // Ingest lanes, receivers dealt round-robin to workers.
        let mut lane_txs = Vec::with_capacity(cfg.shards);
        let mut worker_lanes: Vec<Vec<Receiver<Span>>> =
            (0..workers).map(|_| Vec::new()).collect();
        for shard in 0..cfg.shards {
            // One seat per declared producer; the thread-slot count is
            // unused on topology channels.
            let (tx, rx) = channel::mpsc::<Span>(cfg.lane_order, cfg.producers, 1);
            lane_txs.push(tx);
            worker_lanes[shard % workers].push(rx);
        }

        let worker_handles = worker_lanes
            .into_iter()
            .map(|lanes| {
                let w = Worker {
                    lanes,
                    export: Arc::clone(&export) as Arc<sim::Mutex<ExportStage<dyn Exporter>>>,
                    metrics: Arc::clone(&metrics),
                    batch_max: cfg.batch_max,
                    flush_after: cfg.flush_after,
                };
                sim::spawn(move || w.run())
            })
            .collect();

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
    /// Blocks until every worker exits — which requires every
    /// [`SpanSender`] clone to have been dropped first; call this after
    /// releasing them. In-flight spans are drained, not discarded:
    /// workers sweep their lanes to `Closed` and export the final partial
    /// batch before exiting.
    pub fn shutdown(self) -> (CollectorReport, E) {
        for w in self.workers {
            w.join().expect("collector worker panicked");
        }
        let stage = Arc::into_inner(self.export).expect("every worker has exited");
        let stage = sim::into_inner(stage);
        let report = CollectorReport {
            metrics: self.metrics.snapshot(),
            flush_latency: LatencyStats::from_ns_samples(stage.latency.into_samples()),
        };
        (report, stage.exporter)
    }
}

// ===================================================================
// Worker: sweep lanes, batch, flush on size, deadline or pause
// ===================================================================

struct Worker {
    lanes: Vec<Receiver<Span>>,
    /// The stage with its exporter type erased, so the worker loop is
    /// compiled once, in this crate, not once per exporter type in the
    /// caller's (DESIGN.md §14).
    export: Arc<sim::Mutex<ExportStage<dyn Exporter>>>,
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
                let cause = if self.lanes.iter().all(|rx| rx.is_closed()) {
                    FlushCause::Drain
                } else {
                    FlushCause::Pause
                };
                self.flush(&mut buf, &mut opened, cause);
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

    /// Exports the open batch under the export lock and empties `buf`,
    /// which keeps its capacity for the next batch.
    fn flush(&mut self, buf: &mut Vec<Span>, opened: &mut Option<Instant>, cause: FlushCause) {
        let opened = opened.take().expect("only an open batch is flushed");
        self.metrics.on_flush(cause);
        self.export
            .lock()
            .expect("another worker panicked while exporting")
            .export_batch(buf, opened);
        buf.clear();
    }
}

// ===================================================================
// Export stage: bounded retry, fault injection, drop accounting
// ===================================================================

/// The exporter and its retry state, shared by every worker behind one
/// lock: the workers take turns running attempts, so the [`Exporter`]
/// sees one call at a time.
struct ExportStage<E: Exporter + ?Sized> {
    faults: Arc<dyn FaultInjector>,
    retry: RetryPolicy,
    metrics: Arc<Metrics>,
    /// Per-shard scratch for the batch accounting, zero between batches.
    counts: Vec<u64>,
    latency: Reservoir,
    /// Last, so the workers can share the stage as
    /// `ExportStage<dyn Exporter>`.
    exporter: E,
}

impl ExportStage<dyn Exporter> {
    /// Exports `spans`, retrying within the budget, or counts them
    /// dropped; `opened` (when the batch's first span was buffered)
    /// becomes the flush-latency sample.
    fn export_batch(&mut self, spans: &[Span], opened: Instant) {
        let budget = self.retry.max_attempts.max(1);
        for attempt in 1..=budget {
            let outcome = match self.faults.before_attempt() {
                FaultAction::Proceed => self.exporter.export(spans),
                FaultAction::Fail => Err(ExportError),
                FaultAction::Stall(d) => {
                    sim::sleep(d);
                    self.exporter.export(spans)
                }
            };
            match outcome {
                Ok(()) => {
                    self.metrics.on_export_batch(spans, &mut self.counts);
                    self.latency
                        .push(opened.elapsed().as_nanos().min(u64::MAX as u128) as u64);
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
        // Retries exhausted: the batch is dropped, every span accounted.
        self.metrics.on_drop_batch(spans, &mut self.counts);
    }
}
