//! Collector pipeline semantics end to end: conservation under
//! oversubscription, load shedding, fault injection (FailEvery /
//! StallFor), retry exhaustion and the overflow drop policy, deadline and
//! pause flushes, batches that grow behind a slow exporter, the
//! refcount-ripple shutdown drain, seated vs overflow senders, and the
//! freshness bound under the paced sweep.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use collector::{
    Collector, CollectorConfig, ExportError, Exporter, FailEvery, NoFaults, RetryPolicy,
    ShedPolicy, Span, SpanSender, StallFor, VecExporter,
};

fn oversubscribed(n: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores * 4).max(n)
}

/// Spawns `producers` threads each submitting `per` spans through clones
/// of `tx` (the template is consumed so the close ripple is the caller's
/// `shutdown`); returns total spans offered.
fn flood(tx: SpanSender, producers: usize, per: u64) -> u64 {
    let threads: Vec<_> = (0..producers)
        .map(|p| {
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..per {
                    let seq = p as u64 * per + i;
                    tx.submit(Span::new(seq, seq));
                }
                per
            })
        })
        .collect();
    drop(tx);
    threads.into_iter().map(|t| t.join().unwrap()).sum()
}

#[test]
fn conservation_at_4x_oversubscription() {
    let producers = oversubscribed(8);
    let cfg = CollectorConfig {
        shards: 4,
        producers,
        workers: 2,
        shed: ShedPolicy::Block, // no shedding: every span must come out
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
    let submitted = flood(tx, producers, 5_000);
    let (report, exporter) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.accepted, submitted, "Block policy never sheds");
    assert_eq!(m.exported, submitted);
    assert_eq!(m.dropped, 0);
    assert_eq!(m.inflight(), 0);
    assert!(m.conserved(), "count+checksum identity: {m:?}");
    // The exporter's contents are the accepted set, exactly once each.
    let mut ids: Vec<u64> = exporter.spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..submitted).collect::<Vec<_>>());
}

#[test]
fn shed_policy_counts_refusals_and_conserves_the_rest() {
    // Tiny lanes + a periodically stalling exporter: backpressure reaches
    // the ingest edge and try_send starts refusing. Shed spans are
    // counted, accepted spans still all come out.
    let cfg = CollectorConfig {
        shards: 2,
        lane_order: 3,
        producers: 4,
        workers: 1,
        batch_max: 8,
        export_order: 2,
        shed: ShedPolicy::Shed,
        ..CollectorConfig::default()
    };
    let faults = Arc::new(StallFor::new(2, Duration::from_millis(2)));
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), faults);
    let submitted = flood(tx, 4, 20_000);
    let (report, exporter) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.accepted + m.shed, submitted, "every offer is accounted");
    assert!(m.shed > 0, "tiny lanes under a stalling exporter must shed");
    assert_eq!(m.exported, m.accepted, "accepted spans are never lost");
    assert!(m.conserved());
    assert_eq!(exporter.spans.len() as u64, m.exported);
}

#[test]
fn fail_every_faults_cause_zero_loss_when_retries_cover_them() {
    // FailEvery(2) against a 3-attempt budget: every batch's first or
    // second retry lands. No span may be dropped.
    let cfg = CollectorConfig {
        shards: 2,
        producers: 2,
        workers: 1,
        shed: ShedPolicy::Block,
        retry: RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        },
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(FailEvery::new(2)));
    let submitted = flood(tx, 2, 10_000);
    let (report, _) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.exported, submitted, "retries must absorb every fault");
    assert_eq!(m.dropped, 0);
    assert!(m.export_failures > 0, "the profile did inject faults");
    assert_eq!(m.retries, m.export_failures, "every failure was retried");
    assert!(m.conserved());
}

#[test]
fn retry_exhaustion_invokes_drop_policy_and_stays_accounted() {
    // FailEvery(1) fails every attempt: all batches exhaust the budget
    // and take the overflow path. Nothing exports, nothing leaks.
    let cfg = CollectorConfig {
        shards: 1,
        producers: 1,
        workers: 1,
        shed: ShedPolicy::Block,
        retry: RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        },
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(FailEvery::new(1)));
    let submitted = flood(tx, 1, 1_000);
    let (report, exporter) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.exported, 0);
    assert_eq!(m.dropped, submitted, "dropped, not lost");
    assert!(m.conserved(), "dropped checksum must balance accepted");
    assert!(exporter.spans.is_empty());
    // 2 attempts per batch, 1 retry between them.
    assert_eq!(m.export_failures, 2 * m.flushes);
    assert_eq!(m.retries, m.flushes);
}

/// Submits one span per `every` for `run`, then drops `tx`; returns how
/// many it submitted. Spins between spans: a sleep's timer slack would
/// turn the steady flow into bursts and pauses.
fn paced(mut tx: SpanSender, every: Duration, run: Duration) -> u64 {
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < run {
        let due = start + every * n as u32;
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        assert!(tx.submit(Span::new(0, n)), "Block policy accepts");
        n += 1;
    }
    n
}

#[test]
fn deadline_flush_ships_a_partial_batch() {
    // A flow that keeps coming and never fills a batch (one span every
    // 2 µs against batch_max 65 536): a batch it holds open must ship at
    // the deadline. The deadline is 100 µs rather than milliseconds
    // because a lone producer's flow does pause at the worker's
    // timescale — each time the worker parks, its wake costs the
    // producer a syscall, and on a 2-vCPU host the three pipeline threads
    // trade CPUs — so batches rarely stay open 5 ms, while hundreds stay
    // open 100 µs in each 30 ms run. Wall-clock on a shared host: best
    // of three.
    let attempt = || -> Result<(), String> {
        let cfg = CollectorConfig {
            shards: 1,
            lane_order: 14,
            producers: 1,
            workers: 1,
            batch_max: 65_536,
            flush_after: Duration::from_micros(100),
            shed: ShedPolicy::Block,
            ..CollectorConfig::default()
        };
        let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
        let submitted = paced(tx, Duration::from_micros(2), Duration::from_millis(30));
        let (report, exporter) = col.shutdown();
        let m = &report.metrics;
        assert_eq!(m.exported, submitted);
        assert!(m.conserved());
        assert_eq!(exporter.spans.len() as u64, submitted);
        if m.deadline_flushes == 0 {
            return Err(format!(
                "{} flushes, {} on pause",
                m.flushes, m.pause_flushes
            ));
        }
        Ok(())
    };
    let mut misses = Vec::new();
    for _ in 0..3 {
        match attempt() {
            Ok(()) => return,
            Err(miss) => misses.push(miss),
        }
    }
    panic!("the deadline never fired on a steady flow: {misses:?}");
}

#[test]
fn pause_ships_a_partial_batch_before_the_deadline() {
    // 100 spans against batch_max 1 024 and an hour-long deadline, the
    // sender kept alive: neither size, deadline nor shutdown can ship
    // them, so the pause after the last one must.
    let cfg = CollectorConfig {
        shards: 1,
        producers: 1,
        workers: 1,
        batch_max: 1_024,
        flush_after: Duration::from_secs(3_600),
        ..CollectorConfig::default()
    };
    let (col, mut tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
    for i in 0..100 {
        assert!(tx.submit(Span::new(0, i)));
    }
    // Poll the live snapshot rather than sleeping a fixed guess.
    let deadline = Instant::now() + Duration::from_secs(1);
    while col.snapshot().exported < 100 {
        assert!(
            Instant::now() < deadline,
            "the pause never shipped the partial batch: {:?}",
            col.snapshot()
        );
        std::thread::yield_now();
    }
    let live = col.snapshot();
    assert!(live.pause_flushes >= 1, "{live:?}");
    assert_eq!(live.deadline_flushes, 0);
    drop(tx);
    let (report, exporter) = col.shutdown();
    assert_eq!(report.metrics.exported, 100);
    assert!(report.metrics.conserved());
    assert_eq!(exporter.spans.len(), 100);
}

#[test]
fn slow_exporter_grows_batches() {
    // Every export attempt stalls 1 ms against ~100 k spans/s: shipping
    // on every pause would mean one-span batches, but once the export
    // queue is full the worker waits in `flush` while spans pile up in
    // the lanes, so the next sweep takes them as one batch.
    let cfg = CollectorConfig {
        shards: 1,
        producers: 1,
        workers: 1,
        batch_max: 1_024,
        shed: ShedPolicy::Block,
        export_order: 2,
        ..CollectorConfig::default()
    };
    let faults = Arc::new(StallFor::new(1, Duration::from_millis(1)));
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), faults);
    let submitted = paced(tx, Duration::from_micros(10), Duration::from_millis(50));
    let (report, _) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.exported, submitted);
    assert!(m.conserved(), "{m:?}");
    assert!(
        m.spans_per_flush() >= 10.0,
        "{:.1} spans per flush: {m:?}",
        m.spans_per_flush()
    );
}

#[test]
fn shutdown_drains_buffered_spans_without_waiting_for_the_deadline() {
    // An hour-long flush deadline: only a pause flush or the shutdown
    // drain can ship the partial batch. Submit, ripple, join — everything
    // must come out.
    let cfg = CollectorConfig {
        shards: 2,
        producers: 1,
        workers: 2,
        flush_after: Duration::from_secs(3_600),
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
    let mut tx = tx;
    for i in 0..37 {
        assert!(tx.submit(Span::new(i, i)));
    }
    drop(tx);
    let (report, exporter) = col.shutdown();
    assert_eq!(report.metrics.exported, 37);
    assert_eq!(report.metrics.inflight(), 0);
    assert!(report.metrics.conserved());
    let mut ids: Vec<u64> = exporter.spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..37).collect::<Vec<_>>());
}

#[test]
fn flush_latency_report_is_populated() {
    let cfg = CollectorConfig {
        shards: 1,
        producers: 1,
        workers: 1,
        shed: ShedPolicy::Block,
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
    let submitted = flood(tx, 1, 4_000);
    let (report, _) = col.shutdown();
    assert_eq!(report.metrics.exported, submitted);
    let l = &report.flush_latency;
    assert!(l.n > 0, "at least one batch latency sample");
    assert!(l.p50_ns <= l.p99_ns && l.p99_ns <= l.max_ns);
}

#[test]
fn seated_and_overflow_senders_conserve_and_never_buffer() {
    // Two seats, six senders on six threads: threads 0–1 submit first
    // and take the seats, threads 2–5 count through the shared overflow
    // row. A lane's spine has thread slots for `producers + 1` overflow
    // senders beside its worker, so one of the four finds none: it sheds
    // rather than waits (or, should the worker be the one left out, the
    // undrained spine fills and sheds). Mid-run threads 0, 1 and 2 drop
    // their sender and carry on with a fresh clone; thread 2's clone
    // submits once both seats are free and before the other two do, so a
    // seat released by one thread is re-claimed by another, and one of
    // the two former seat holders continues on the overflow row.
    const THREADS: usize = 6;
    const SEATED: usize = 2;
    const RECLONING: std::ops::Range<usize> = 0..3;
    const PER_PHASE: u64 = 3_000;
    let cfg = CollectorConfig {
        shards: 2,
        producers: SEATED,
        workers: 1,
        shed: ShedPolicy::Shed,
        ..CollectorConfig::default()
    };
    let (col, template) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
    let all = Arc::new(Barrier::new(THREADS));
    let recloning = Arc::new(Barrier::new(RECLONING.len()));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let mut tx = template.clone();
            let (all, recloning) = (Arc::clone(&all), Arc::clone(&recloning));
            std::thread::spawn(move || {
                let (mut taken, mut refused, mut seq) = (0u64, 0u64, 0u64);
                let mut submit = |tx: &mut SpanSender, n: u64| {
                    for _ in 0..n {
                        let id = t as u64 * 1_000_000 + seq;
                        seq += 1;
                        if tx.submit(Span::new(id, id)) {
                            taken += 1;
                        } else {
                            refused += 1;
                        }
                    }
                };
                if t < SEATED {
                    submit(&mut tx, 1); // first come, first seated
                }
                all.wait();
                submit(&mut tx, PER_PHASE);
                all.wait();
                if RECLONING.contains(&t) {
                    let fresh = tx.clone();
                    drop(tx); // gives the seat back, if it held one
                    tx = fresh;
                    recloning.wait(); // both seats are free
                    if t == SEATED {
                        submit(&mut tx, 1);
                    }
                    recloning.wait(); // thread 2 sits where 0 or 1 sat
                }
                submit(&mut tx, PER_PHASE);
                (tx, taken, refused)
            })
        })
        .collect();
    let mut senders = vec![template];
    let (mut taken, mut refused) = (0, 0);
    for t in threads {
        let (tx, a, r) = t.join().unwrap();
        senders.push(tx);
        taken += a;
        refused += r;
    }
    // Every submitting thread is joined but every sender is still alive:
    // a seat's cells are the counters, not a buffer in front of them.
    let live = col.snapshot();
    assert_eq!(live.accepted, taken, "seats must not buffer counts");
    assert_eq!(live.shed, refused);
    assert!(refused > 0, "a sender without a thread slot sheds");
    drop(senders);
    let (report, exporter) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.accepted, taken, "accepted == number of submit() == true");
    assert_eq!(m.shed, refused);
    assert_eq!(m.per_shard.iter().map(|s| s.accepted).sum::<u64>(), taken);
    assert_eq!(m.per_shard.iter().map(|s| s.shed).sum::<u64>(), refused);
    assert_eq!(m.dropped, 0);
    assert!(m.conserved(), "count+checksum identity: {m:?}");
    assert_eq!(exporter.spans.len() as u64, taken);
}

/// Records when each span reached the sink.
#[derive(Default)]
struct StampingExporter {
    exported_at: Vec<(u64, Instant)>,
}

impl Exporter for StampingExporter {
    fn export(&mut self, spans: &[Span]) -> Result<(), ExportError> {
        let now = Instant::now();
        self.exported_at.extend(spans.iter().map(|s| (s.id, now)));
        Ok(())
    }
}

#[test]
fn paced_sweep_keeps_the_freshness_bound_under_a_trickle() {
    // A burst fills batches, which hands the worker the arrival-rate
    // estimate it paces its sweeps by; the trickle that follows never
    // fills one. Pacing must not hold a span past the flush deadline: the
    // trickle keeps shipping (each pause ships its span), every span
    // within twice `flush_after` of its submit (once for the batch to
    // close, slack for the export). Wall-clock bound on a shared host:
    // one clean attempt in three passes.
    const FLUSH_AFTER: Duration = Duration::from_millis(5);
    const BURST: u64 = 4 * 1_024;
    const TRICKLE_MS: u64 = 40;
    let attempt = || -> Result<(), String> {
        let cfg = CollectorConfig {
            shards: 1,
            lane_order: 13,
            producers: 1,
            workers: 1,
            batch_max: 1_024,
            flush_after: FLUSH_AFTER,
            shed: ShedPolicy::Block,
            ..CollectorConfig::default()
        };
        let (col, mut tx) = Collector::spawn(cfg, StampingExporter::default(), Arc::new(NoFaults));
        let mut submitted_at = Vec::new();
        let mut submit = |tx: &mut SpanSender| {
            let id = submitted_at.len() as u64;
            submitted_at.push(Instant::now());
            assert!(tx.submit(Span::new(0, id)), "Block policy accepts");
        };
        for _ in 0..BURST {
            submit(&mut tx);
        }
        let before_trickle = col.snapshot().flushes;
        for _ in 0..TRICKLE_MS {
            std::thread::sleep(Duration::from_millis(1));
            submit(&mut tx);
        }
        let flushes = col.snapshot().flushes - before_trickle;
        drop(tx);
        let (report, exporter) = col.shutdown();
        assert!(report.metrics.conserved());
        assert_eq!(report.metrics.exported, BURST + TRICKLE_MS);
        if flushes < TRICKLE_MS / 10 {
            return Err(format!("{flushes} flushes in {TRICKLE_MS} ms of trickle"));
        }
        let stale = exporter
            .exported_at
            .iter()
            .map(|&(id, at)| at.saturating_duration_since(submitted_at[id as usize]))
            .max()
            .expect("spans were exported");
        if stale > 2 * FLUSH_AFTER {
            return Err(format!("a span waited {stale:?} for export"));
        }
        Ok(())
    };
    let mut misses = Vec::new();
    for _ in 0..3 {
        match attempt() {
            Ok(()) => return,
            Err(miss) => misses.push(miss),
        }
    }
    panic!("freshness bound missed on every attempt: {misses:?}");
}
