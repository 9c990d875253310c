//! A telemetry span collector built exclusively on the `wcq::channel`
//! stack — the "service crate" proof that the queue facade is complete
//! enough to carry a real pipeline, not just microbenchmarks.
//!
//! The shape (DESIGN.md §14): producers [`SpanSender::submit`] spans into
//! per-shard `channel::mpsc` lanes (shard = trace id mod shards, so a
//! trace's spans stay FIFO through one lane); batching workers sweep
//! disjoint lane subsets with `recv_batch`, flush on size, deadline or
//! a pause in the flow, and park across all their lanes with
//! `channel::recv_any` once nothing is buffered. A worker exports what it
//! flushes itself, through one export stage the workers share under a
//! lock: a bounded [`RetryPolicy`] around a pluggable [`Exporter`] sink,
//! with a [`FaultInjector`] seam ([`FailEvery`], [`StallFor`]) shared by
//! the tests, the DST model, and the `collector-soak` binary.
//!
//! The crate's contract is **conservation**: every accepted span is
//! exported exactly once or explicitly counted dropped — by count and by
//! content checksum ([`MetricsSnapshot::conserved`]) — across partial
//! flushes, injected faults, and the refcount-ripple shutdown. Overload
//! sheds at the ingest edge under an explicit [`ShedPolicy`]; shed spans
//! are counted, never accepted, so shedding is load management, not loss.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod sim;

pub mod export;
pub mod metrics;
pub mod pipeline;
pub mod soak;
pub mod span;

pub use export::{
    ExportError, Exporter, FailEvery, FaultAction, FaultInjector, NoFaults, NullExporter,
    RetryPolicy, StallFor, VecExporter,
};
pub use metrics::{Metrics, MetricsSnapshot, ShardSnapshot};
pub use pipeline::{Collector, CollectorConfig, CollectorReport, ShedPolicy, SpanSender};
pub use soak::{run_soak, FaultProfile, SoakCfg, SoakReport};
pub use span::Span;
