//! Ring-churn stress for the Appendix-A unbounded queues: 2–4 slot rings
//! under `WcqConfig::stress()` (patience 1, help every operation) force a
//! ring close and hand-off every couple of inserts, so the in-flight
//! counter protocol (`closed` → `inflight == 0` → final empty check; see
//! `unbounded.rs` module docs) runs constantly *while the helping machinery
//! is live inside the rings* — the combination `unbounded_queues.rs` only
//! brushes against.

mod common;

use common::{churn, ChurnCfg};
use std::sync::Arc;
use wcq::unbounded::Unbounded;
use wcq::{ScqRing, WcqConfig, WcqRing};

/// Exact delivery in per-producer FIFO order across constant hand-offs.
///
/// Thread counts are per-call because wCQ rings carry the paper's `k <= n`
/// assumption: a 2-slot wCQ ring admits at most 2 registered threads, so
/// the wCQ variants scale workers with the ring order while SCQ (no such
/// assumption) keeps a bigger crowd on the same tiny rings.
fn fifo_churn(order: u32, per: u64, producers: usize, consumers: usize) -> ChurnCfg {
    ChurnCfg {
        order,
        per,
        producers,
        consumers,
        yield_stride: 0,
        check_fifo: true,
    }
}

#[test]
fn unbounded_wcq_churn_2_slot_rings() {
    churn::<WcqRing>(fifo_churn(1, 6_000, 1, 1));
}

#[test]
fn unbounded_wcq_churn_4_slot_rings() {
    churn::<WcqRing>(fifo_churn(2, 4_000, 2, 2));
}

#[test]
fn unbounded_scq_churn_2_slot_rings() {
    churn::<ScqRing>(fifo_churn(1, 4_000, 3, 3));
}

#[test]
fn unbounded_scq_churn_4_slot_rings() {
    churn::<ScqRing>(fifo_churn(2, 4_000, 3, 3));
}

/// Mixed workers (every thread both inserts and drains) on 4-slot stressed
/// wCQ rings (4 workers is the `k <= n` ceiling for that size): the
/// close/hand-off path runs while the *same* threads also act as helpers
/// inside the rings, so a stranded element or a double hand-off shows up as
/// a count mismatch here.
#[test]
fn unbounded_wcq_mixed_churn_conserves_elements() {
    const WORKERS: usize = 4;
    const PER: u64 = 3_000;
    let q: Arc<Unbounded<u64, WcqRing>> =
        Arc::new(Unbounded::with_config(2, WORKERS, &WcqConfig::stress()));
    let handles: Vec<_> = (0..WORKERS as u64)
        .map(|t| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut h = q.register().unwrap();
                let mut got = 0u64;
                for i in 0..PER {
                    h.enqueue(t << 32 | i);
                    if i % 2 == 0 && h.dequeue().is_some() {
                        got += 1;
                    }
                }
                got
            })
        })
        .collect();
    let drained_by_workers: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let mut h = q.register().unwrap();
    let mut rest = 0u64;
    while h.dequeue().is_some() {
        rest += 1;
    }
    assert_eq!(
        drained_by_workers + rest,
        WORKERS as u64 * PER,
        "elements stranded in an abandoned ring or duplicated"
    );
}
