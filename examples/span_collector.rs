//! The span-collector service crate end to end: trace-shaped workloads
//! into the sharded ingest lanes, an injected export-fault profile, and
//! the conservation accounting that proves nothing accepted was lost.
//!
//! ```text
//! cargo run --release --example span_collector
//! ```
//!
//! Shape: an application being traced. Worker threads each execute
//! "requests" that emit a small tree of spans (one root, a few children
//! sharing its trace id — so the whole trace lands on one ingest lane and
//! stays FIFO). The pipeline batches them, the exporter "sends them to a
//! backend" that fails every 5th attempt, and the bounded retry absorbs
//! every fault. At the end the report must show: every accepted span
//! exported exactly once (count *and* checksum), shed counted explicitly,
//! zero drops.
//!
//! Shutdown is pure refcounting, as everywhere on the channel stack: the
//! request threads drop their `SpanSender` clones → the lanes close → the
//! batching workers drain, export their final batches and exit → the
//! report is exact.

use std::sync::Arc;
use std::time::Duration;

use collector::{
    Collector, CollectorConfig, FailEvery, RetryPolicy, ShedPolicy, Span, VecExporter,
};

const APP_THREADS: usize = 4;
const REQUESTS_PER_THREAD: u64 = 20_000;
const SPANS_PER_REQUEST: u64 = 4; // one root + three children

fn main() {
    let cfg = CollectorConfig {
        shards: 4,
        producers: APP_THREADS,
        workers: 2,
        batch_max: 256,
        flush_after: Duration::from_millis(2),
        // An auditor pipeline: block rather than shed, so the example can
        // assert the strongest form of the contract (everything comes out).
        shed: ShedPolicy::Block,
        retry: RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_micros(20),
        },
        ..CollectorConfig::default()
    };
    let faults = Arc::new(FailEvery::new(5));
    let (collector, sender) = Collector::spawn(cfg, VecExporter::default(), faults);

    let apps: Vec<_> = (0..APP_THREADS as u64)
        .map(|t| {
            let mut tx = sender.clone();
            std::thread::spawn(move || {
                for req in 0..REQUESTS_PER_THREAD {
                    let trace = t * REQUESTS_PER_THREAD + req;
                    for s in 0..SPANS_PER_REQUEST {
                        let span = Span {
                            trace,
                            id: s,
                            start_ns: req * 1_000 + s * 10,
                            dur_ns: 10 + s,
                        };
                        assert!(tx.submit(span), "Block policy accepts everything");
                    }
                }
            })
        })
        .collect();
    for a in apps {
        a.join().unwrap();
    }
    drop(sender); // last handle: the close ripple starts here

    let (report, exporter) = collector.shutdown();
    let m = &report.metrics;
    let expected = APP_THREADS as u64 * REQUESTS_PER_THREAD * SPANS_PER_REQUEST;
    println!(
        "accepted {} / exported {} / shed {} / dropped {}",
        m.accepted, m.exported, m.shed, m.dropped
    );
    println!(
        "flushes {} (deadline {}, pause {}; {:.1} spans each), export failures {} (all retried: {})",
        m.flushes,
        m.deadline_flushes,
        m.pause_flushes,
        m.spans_per_flush(),
        m.export_failures,
        m.retries
    );
    println!(
        "flush latency p50 {}ns p99 {}ns over {} sampled batches",
        report.flush_latency.p50_ns, report.flush_latency.p99_ns, report.flush_latency.n
    );
    assert_eq!(m.accepted, expected);
    assert_eq!(m.exported, expected, "faults were absorbed by retries");
    assert_eq!(exporter.spans.len() as u64, expected);
    assert!(m.conserved(), "count+checksum conservation");
    println!("conserved: every accepted span exported exactly once");
}
