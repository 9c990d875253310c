//! # wcq — a fast wait-free MPMC queue with bounded memory usage
//!
//! From-scratch Rust reproduction of
//! *Nikolaev & Ravindran, "wCQ: A Fast Wait-Free Queue with Bounded Memory
//! Usage", SPAA '22* (arXiv:2201.02179), including the SCQ lock-free queue
//! it builds on (Nikolaev, DISC '19) and the unbounded list-of-rings
//! extension sketched in the paper's appendix.
//!
//! ## Quick start
//!
//! ```
//! use wcq::WcqQueue;
//!
//! // 2^10 slots, up to 8 registered threads.
//! let q: WcqQueue<String> = WcqQueue::new(10, 8);
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut h = q.register().expect("slot");
//!         h.enqueue("hello".to_string()).unwrap();
//!     });
//! });
//! let mut h = q.register().unwrap();
//! assert_eq!(h.dequeue().as_deref(), Some("hello"));
//! ```
//!
//! ## What lives where
//!
//! | Type | Progress | Memory | Paper section |
//! |------|----------|--------|---------------|
//! | [`WcqQueue`] / [`WcqRing`] | wait-free | bounded | §3 (Figs. 4–7) |
//! | [`ScqQueue`] / [`ScqRing`] | lock-free | bounded | §2 (Fig. 3) |
//! | `RingPair<T, R>` over an [`IndexRing`] (crate-private) | as `R`: [`ScqRing`] or [`WcqRing`] | bounded | Figs. 1–2: two index rings + a data array, written once; every family below (and both above) is a composition over it |
//! | [`UnboundedScq`] = `Unbounded<T, ScqRing>` | lock-free | unbounded (list of ring pairs, hazard-pointer reclaimed) | §7, App. A |
//! | [`UnboundedWcq`] = `Unbounded<T, WcqRing>` | wait-free rings, lock-free list | unbounded, hazard-pointer reclaimed | App. A |
//! | [`ShardedWcq`] | wait-free per shard | bounded | beyond the paper: splits the §6 `Head`/`Tail` hotspot over S ring pairs |
//! | [`spsc::Ring`] + [`topology`] | wait-free plain loads and stores for seated endpoints; one past the declared count waits for a seat | bounded | beyond the paper: topology-declared SPSC/MPSC channels that never pay for wCQ |
//! | [`WcqHandle`] / [`ShardedHandle`] / [`UnboundedHandle`] | — | — | §3.4's one precondition (one exclusive driver per thread record), as a type: **one** handle struct per family, generic over how it holds the queue ([`Hold`]: `&Q` from `register()`, `Arc<Q>` from `register_owned()`); spin and batch ops only, as in the paper |
//! | [`channel`] + [`sync`] | as the queue under it | as the queue under it | beyond the paper: cloneable `Arc`-owning [`Sender`]/[`Receiver`]; one constructor path, [`channel::over`]; the only blocking/async surface, parking on the channel's one [`sync::SyncState`] |
//!
//! Wait-freedom of the slow path relies on hardware double-width CAS; see
//! [`dwcas::HARDWARE_CAS2`] and `DESIGN.md` §3.5 for the portable fallback
//! semantics.
//!
//! The handles are spin-only, as the paper's operations are: they return
//! on full and empty. Waiting lives one layer up, in the **channel API**
//! ([`channel`]): lazy thread-slot acquisition, refcount-driven close, and
//! the **blocking/async** `send`/`recv` family, which parks on the
//! empty/full edge only — the wait-free fast path is untouched (see
//! [`sync`] and `DESIGN.md` §9–10). It is the surface to reach for first
//! when threads are spawned rather than scoped.
//!
//! The paper-to-code map — which figure/algorithm lives in which module —
//! is `PAPER_MAP.md` at the repository root.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod channel;
mod hold;
pub mod pack;
mod ringpair;
pub mod scq;
pub mod shard;
pub(crate) mod sim;
pub mod spsc;
pub mod sync;
pub mod topology;
pub mod unbounded;
pub mod wcq;

pub use channel::{Receiver, Sender};
pub use hold::Hold;
pub use ringpair::IndexRing;
pub use scq::{ScqQueue, ScqRing};
pub use shard::{ShardedHandle, ShardedWcq};
pub use sync::{RecvError, SendError};
pub use unbounded::{UnboundedHandle, UnboundedScq, UnboundedWcq};
pub use wcq::{WcqHandle, WcqQueue, WcqRing};

/// Tuning knobs for SCQ/wCQ rings. Defaults follow the paper's evaluation
/// (§6): patience 16 for enqueue and 64 for dequeue; `HELP_DELAY` and the
/// catch-up bound are unspecified in the paper and default to 16.
#[derive(Clone, Copy, Debug)]
pub struct WcqConfig {
    /// Fast-path attempts before an enqueue publishes a help request.
    pub max_patience_enq: u32,
    /// Fast-path attempts before a dequeue publishes a help request.
    pub max_patience_deq: u32,
    /// `help_threads` scans one peer every `help_delay + 1` operations.
    pub help_delay: u32,
    /// Iteration bound of the `catchup` contention optimization.
    pub max_catchup: u32,
    /// Apply the `Cache_Remap` permutation (disable only for ablations).
    pub remap: bool,
}

impl Default for WcqConfig {
    fn default() -> Self {
        WcqConfig {
            max_patience_enq: 16,
            max_patience_deq: 64,
            help_delay: 16,
            max_catchup: 16,
            remap: true,
        }
    }
}

impl WcqConfig {
    /// A configuration that forces the slow path on (almost) every contended
    /// operation and helps on every call — used by stress tests to exercise
    /// the helping machinery far more often than production settings would.
    pub fn stress() -> Self {
        WcqConfig {
            max_patience_enq: 1,
            max_patience_deq: 1,
            help_delay: 0,
            max_catchup: 4,
            remap: true,
        }
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WcqConfig::default();
        assert_eq!(c.max_patience_enq, 16);
        assert_eq!(c.max_patience_deq, 64);
        assert!(c.remap);
    }

    #[test]
    fn stress_is_aggressive() {
        let c = WcqConfig::stress();
        assert_eq!(c.max_patience_enq, 1);
        assert_eq!(c.help_delay, 0);
    }
}
