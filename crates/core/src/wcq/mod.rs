//! wCQ — the wait-free circular queue (the paper's contribution, §3).
//!
//! * [`record`] — per-thread helping records and the `FIN`/`INC`/tag word
//!   layout used by `slow_F&A`.
//! * [`ring`] — the index ring: SCQ fast path + the cooperative slow path.
//! * [`queue`] — the safe typed queue: the shared `aq`/`fq` indirection
//!   (`crate::ringpair`) over two rings, the slot table and the handles.

pub mod queue;
pub mod record;
pub mod ring;

pub use queue::{WcqHandle, WcqQueue};
pub use ring::WcqRing;
