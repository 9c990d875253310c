//! Single-threaded enqueue+dequeue latency per queue — the uncontended
//! floor each design pays (corresponds to the `threads = 1` points of the
//! paper's throughput figures).

use baselines::{CcQueue, CrTurnQueue, FaaQueue, Lcrq, MsQueue, YmcQueue};
use bench::Queue;
use criterion::{criterion_group, criterion_main, Criterion};
use harness::queues::{BenchQueue, QueueHandle, QueueSpec};
use std::time::Duration;
use wcq::{ScqQueue, WcqQueue};

fn spec() -> QueueSpec {
    QueueSpec {
        max_threads: 2,
        ring_order: 12,
        shards: 1,
        node_order: None,
        cfg: wcq::WcqConfig::default(),
    }
}

/// Benchmarks `Q` under the label of its figure column.
fn bench_queue<Q: BenchQueue>(c: &mut Criterion, column: Queue) {
    let q = Q::build(&spec());
    let mut h = q.handle();
    c.bench_function(&format!("pair1t/{}", column.label), |b| {
        b.iter(|| {
            let _ = std::hint::black_box(h.enqueue(7));
            std::hint::black_box(h.dequeue())
        })
    });
}

fn single_thread(c: &mut Criterion) {
    bench_queue::<FaaQueue>(c, bench::FAA);
    bench_queue::<WcqQueue<u64>>(c, bench::WCQ);
    bench_queue::<ScqQueue<u64>>(c, bench::SCQ);
    bench_queue::<Lcrq>(c, bench::LCRQ);
    bench_queue::<YmcQueue>(c, bench::YMC);
    bench_queue::<MsQueue>(c, bench::MSQUEUE);
    bench_queue::<CcQueue>(c, bench::CCQUEUE);
    bench_queue::<CrTurnQueue>(c, bench::CRTURN);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    targets = single_thread
}
criterion_main!(benches);
