//! Reclamation regression tests for the Appendix-A unbounded queues.
//!
//! ## The tail-lag use-after-free
//!
//! The unbounded list retires a ring once dequeuers have drained it and
//! moved `head` past it. But `tail` is updated lazily: an enqueuer that
//! appended a successor may stall before its `tail` CAS lands, and *other*
//! enqueuers read `tail` before dereferencing it. If a drained ring is
//! reclaimed while `tail` can still reach it, the next enqueuer
//! dereferences freed memory.
//!
//! The shapes here are built to hit exactly that window: 2–4 slot rings
//! under `WcqConfig::stress()` close and hand off on nearly every insert,
//! so `head` chases `tail` around constant ring turnover, and dequeuers
//! outnumber producers so drained rings are reclaimed as fast as possible
//! while yielded enqueuers hold stale `tail` reads.
//!
//! The original `ops_active`-counter scheme did not rule this out: its
//! `collect` freed after a check-then-act on the counter, so an enqueuer
//! could start — and load `tail` — between the zero check and the free.
//! The hazard-pointer scheme closes the window structurally: operations
//! protect `head`/`tail` before dereferencing, and a drained ring is
//! unlinked from **both** ends (tail first) before it is retired, so the
//! protect-validate loop can never conclude on a retired ring
//! (`unlink_and_retire` in `unbounded.rs`).
//!
//! Three mechanisms make these tests a real tripwire rather than a
//! statement of hope:
//!
//! * **Canary.** A silent use-after-free would not fail a multiset
//!   assertion — freed `Box` memory usually stays readable, so the victim
//!   reads stale but plausible bytes. Every ring node carries a magic word
//!   that its destructor poisons, and (in debug builds, which is how the
//!   suite runs) every ring operation asserts it, so touching a freed ring
//!   panics deterministically instead of relying on ASan/Miri to notice.
//! * **Window widening.** Debug builds yield *inside* the tail-lag window
//!   (between the appender's next-CAS and tail-CAS), stretching a
//!   nanosecond race across a scheduler quantum on every ring turnover.
//! * **Fast reclamation.** The unbounded queue runs its hazard domain at a
//!   low scan threshold, so retired rings are freed within a couple of
//!   turnovers of being abandoned — a reclamation bug cannot hide behind a
//!   long deferral.

mod common;

use common::{churn, ChurnCfg};
use std::sync::atomic::Ordering::SeqCst;
use wcq::unbounded::{Unbounded, UnboundedWcq};
use wcq::{ScqRing, WcqConfig, WcqRing};

/// SCQ rings carry no `k <= n` thread bound, so tiny 2-slot rings can be
/// hammered by a full crowd: maximum ring turnover, maximum retire rate.
#[test]
fn tail_lag_uaf_scq_2_slot_rings() {
    churn::<ScqRing>(ChurnCfg {
        order: 1,
        per: 8_000,
        producers: 2,
        consumers: 4,
        yield_stride: 64,
        check_fifo: false,
    });
}

/// wCQ rings admit at most `2^order` registered threads (the paper's
/// `k <= n` assumption), so the 4-slot variant runs the 2+2 split.
#[test]
fn tail_lag_uaf_wcq_4_slot_rings() {
    churn::<WcqRing>(ChurnCfg {
        order: 2,
        per: 6_000,
        producers: 2,
        consumers: 2,
        yield_stride: 64,
        check_fifo: false,
    });
}

/// The sharpest shape for the original bug: a single producer that keeps
/// appending rings (so its cached `tail` is stale almost permanently under
/// preemption) against a pack of dequeuers retiring rings at full speed.
#[test]
fn tail_lag_uaf_single_lagging_enqueuer() {
    churn::<ScqRing>(ChurnCfg {
        order: 1,
        per: 12_000,
        producers: 1,
        consumers: 5,
        yield_stride: 16,
        check_fifo: false,
    });
}

/// Destructor conservation with rings retired *through the hazard domain*:
/// every element with a `Drop` impl must be dropped exactly once, with
/// consumer handles dropped mid-stream so their pending retirees take the
/// domain's orphan hand-off path (`HpHandle::drop` → orphan list → freed
/// by a later scan or at domain drop) while other threads still hold
/// hazards into the list.
#[test]
fn destructors_conserved_through_domain_orphans() {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct D(#[allow(dead_code)] u64);
    impl Drop for D {
        fn drop(&mut self) {
            DROPS.fetch_add(1, SeqCst);
        }
    }

    const PRODUCERS: usize = 2;
    const CONSUMER_WAVES: usize = 3;
    const CONSUMERS_PER_WAVE: usize = 2;
    const PER: u64 = 2_000;
    {
        let q: Arc<UnboundedWcq<D>> = Arc::new(Unbounded::with_config(
            2, // 4-slot rings: maximum retire traffic
            PRODUCERS + CONSUMERS_PER_WAVE,
            &WcqConfig::stress(),
        ));
        let producers: Vec<_> = (0..PRODUCERS as u64)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut h = q.register().unwrap();
                    for i in 0..PER {
                        h.enqueue(D(p << 32 | i));
                    }
                })
            })
            .collect();
        // Consumers arrive in waves: each wave drains a while and then
        // drops its handles *mid-stream* — with producers still appending
        // and the next wave still protecting rings, a departing handle's
        // unreclaimed retirees must go through the orphan list rather than
        // being freed or leaked.
        for _ in 0..CONSUMER_WAVES {
            let wave: Vec<_> = (0..CONSUMERS_PER_WAVE)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut h = q.register().unwrap();
                        for _ in 0..PER / 2 {
                            drop(h.dequeue());
                        }
                        // h drops here, possibly with pending retirees.
                    })
                })
                .collect();
            for w in wave {
                w.join().unwrap();
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        // Drain what is left so the final count is deterministic, then
        // drop the queue (frees the live list and the domain's orphans).
        let mut h = q.register().unwrap();
        while h.dequeue().is_some() {}
    }
    assert_eq!(
        DROPS.load(SeqCst),
        PRODUCERS * PER as usize,
        "elements lost, leaked, or double-dropped across domain reclamation"
    );
}
