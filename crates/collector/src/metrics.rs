//! Lossy pipeline counters, `ringmpsc`-`metrics.rs` style: per-shard
//! cache-padded blocks bumped with `Relaxed` RMWs on the hot paths, read
//! as point-in-time relaxed snapshots. "Lossy" refers to the *snapshot*
//! — a concurrent reader can see a span counted accepted but not yet
//! exported — never to the counters themselves: after shutdown (all
//! producers and pipeline threads joined) the totals are exact, which is
//! what the conservation accounting asserts.

use crossbeam_utils::CachePadded;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;

use crate::span::Span;

/// One ingest shard's counters, padded onto private cache lines so shard
/// A's producers never false-share with shard B's.
#[derive(Default)]
struct ShardBlock {
    /// Spans taken by the shard's lane (`submit` returned `true`).
    accepted: AtomicU64,
    /// Spans refused at ingest (lane full under [`crate::ShedPolicy::Shed`],
    /// or submitted after close).
    shed: AtomicU64,
    /// Spans the exporter stage confirmed exported.
    exported: AtomicU64,
    /// Spans dropped by the exporter overflow policy (retries exhausted).
    dropped: AtomicU64,
}

/// Pipeline-global counters (export-side; not per-shard because one
/// exporter thread owns them — padding separates them from the shard
/// blocks, not from each other).
#[derive(Default)]
struct GlobalBlock {
    /// Export attempts that returned an error (injected or real).
    export_failures: AtomicU64,
    /// Re-attempts scheduled after a failed export.
    retries: AtomicU64,
    /// Batches handed to the exporter stage.
    flushes: AtomicU64,
    /// The subset of `flushes` forced by the flush deadline (vs. a full
    /// batch or the shutdown drain).
    deadline_flushes: AtomicU64,
    /// Order-independent XOR checksum of accepted spans (see
    /// [`Span::checksum`]).
    accepted_ck: AtomicU64,
    /// XOR checksum of exported spans.
    exported_ck: AtomicU64,
    /// XOR checksum of overflow-dropped spans.
    dropped_ck: AtomicU64,
}

/// The collector's counter set. One instance per pipeline, shared by
/// every [`crate::SpanSender`], worker, and the exporter stage.
pub struct Metrics {
    shards: Box<[CachePadded<ShardBlock>]>,
    global: CachePadded<GlobalBlock>,
}

// ORDERING: pure statistical tally (accepted/shed/exported/dropped, flush
// and failure counts); carries no synchronization — totals are only read
// exactly after every pipeline thread is joined (DESIGN.md §14) — cover:
// dst model 8
impl Metrics {
    /// Counters for `shards` ingest shards, all zero.
    pub fn new(shards: usize) -> Metrics {
        Metrics {
            shards: (0..shards).map(|_| CachePadded::default()).collect(),
            global: CachePadded::default(),
        }
    }

    /// Number of ingest shards this counter set covers.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn on_accept(&self, shard: usize, span: &Span) {
        self.shards[shard].accepted.fetch_add(1, Relaxed);
        // ORDERING: order-independent conservation checksum; XOR commutes
        // so interleaving is immaterial, and the accepted == exported ^
        // dropped identity is checked post-join only
        self.global.accepted_ck.fetch_xor(span.checksum(), Relaxed);
    }

    pub(crate) fn on_shed(&self, shard: usize) {
        self.shards[shard].shed.fetch_add(1, Relaxed);
    }

    pub(crate) fn on_export(&self, shard: usize, span: &Span) {
        self.shards[shard].exported.fetch_add(1, Relaxed);
        // ORDERING: order-independent conservation checksum; XOR commutes
        // so interleaving is immaterial, and the accepted == exported ^
        // dropped identity is checked post-join only
        self.global.exported_ck.fetch_xor(span.checksum(), Relaxed);
    }

    pub(crate) fn on_drop(&self, shard: usize, span: &Span) {
        self.shards[shard].dropped.fetch_add(1, Relaxed);
        // ORDERING: order-independent conservation checksum; XOR commutes
        // so interleaving is immaterial, and the accepted == exported ^
        // dropped identity is checked post-join only
        self.global.dropped_ck.fetch_xor(span.checksum(), Relaxed);
    }

    pub(crate) fn on_export_failure(&self) {
        self.global.export_failures.fetch_add(1, Relaxed);
    }

    pub(crate) fn on_retry(&self) {
        self.global.retries.fetch_add(1, Relaxed);
    }

    pub(crate) fn on_flush(&self, deadline: bool) {
        self.global.flushes.fetch_add(1, Relaxed);
        if deadline {
            self.global.deadline_flushes.fetch_add(1, Relaxed);
        }
    }

    /// Point-in-time relaxed snapshot. Mid-flight the identities may lag
    /// (a span can be accepted but not yet exported — that is the
    /// [`MetricsSnapshot::inflight`] gauge); after shutdown they are
    /// exact.
    // ORDERING: relaxed point-in-time snapshot by design — documented as
    // possibly lagging mid-flight (inflight gauge); exact once the pipeline
    // is joined
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            per_shard: Vec::with_capacity(self.shards.len()),
            ..MetricsSnapshot::default()
        };
        for b in self.shards.iter() {
            let sh = ShardSnapshot {
                accepted: b.accepted.load(Relaxed),
                shed: b.shed.load(Relaxed),
                exported: b.exported.load(Relaxed),
                dropped: b.dropped.load(Relaxed),
            };
            s.accepted += sh.accepted;
            s.shed += sh.shed;
            s.exported += sh.exported;
            s.dropped += sh.dropped;
            s.per_shard.push(sh);
        }
        s.export_failures = self.global.export_failures.load(Relaxed);
        s.retries = self.global.retries.load(Relaxed);
        s.flushes = self.global.flushes.load(Relaxed);
        s.deadline_flushes = self.global.deadline_flushes.load(Relaxed);
        s.accepted_ck = self.global.accepted_ck.load(Relaxed);
        s.exported_ck = self.global.exported_ck.load(Relaxed);
        s.dropped_ck = self.global.dropped_ck.load(Relaxed);
        s
    }
}

/// One shard's slice of a [`MetricsSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Spans this shard's lane accepted.
    pub accepted: u64,
    /// Spans shed at this shard's ingest edge.
    pub shed: u64,
    /// Accepted spans of this shard confirmed exported.
    pub exported: u64,
    /// Accepted spans of this shard dropped by the overflow policy.
    pub dropped: u64,
}

/// A relaxed point-in-time read of every counter, plus the derived
/// conservation views.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total spans accepted into lanes.
    pub accepted: u64,
    /// Total spans shed at ingest (never accepted; not a loss of accepted
    /// data).
    pub shed: u64,
    /// Total spans confirmed exported.
    pub exported: u64,
    /// Total accepted spans dropped after retry exhaustion.
    pub dropped: u64,
    /// Failed export attempts.
    pub export_failures: u64,
    /// Scheduled re-attempts.
    pub retries: u64,
    /// Batches flushed to the exporter stage.
    pub flushes: u64,
    /// Flushes forced by the deadline.
    pub deadline_flushes: u64,
    /// XOR checksum over accepted spans.
    pub accepted_ck: u64,
    /// XOR checksum over exported spans.
    pub exported_ck: u64,
    /// XOR checksum over dropped spans.
    pub dropped_ck: u64,
    /// Per-shard breakdown, index = shard.
    pub per_shard: Vec<ShardSnapshot>,
}

impl MetricsSnapshot {
    /// Accepted spans still somewhere inside the pipeline (lane backlog,
    /// an open batch, or the exporter stage). Derived, and therefore
    /// momentarily stale mid-flight; exactly 0 after a clean shutdown.
    pub fn inflight(&self) -> u64 {
        self.accepted
            .saturating_sub(self.exported)
            .saturating_sub(self.dropped)
    }

    /// The conservation identity the pipeline promises after shutdown:
    /// every accepted span was exported exactly once or counted dropped,
    /// by count *and* content checksum.
    pub fn conserved(&self) -> bool {
        self.accepted == self.exported + self.dropped
            && self.accepted_ck == self.exported_ck ^ self.dropped_ck
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_identities() {
        let m = Metrics::new(2);
        let a = Span::new(1, 10);
        let b = Span::new(1, 11);
        let c = Span::new(2, 12);
        m.on_accept(0, &a);
        m.on_accept(0, &b);
        m.on_accept(1, &c);
        m.on_shed(1);
        m.on_export(0, &a);
        m.on_drop(0, &b);
        m.on_export(1, &c);
        let s = m.snapshot();
        assert_eq!((s.accepted, s.shed, s.exported, s.dropped), (3, 1, 2, 1));
        assert_eq!(s.inflight(), 0);
        assert!(s.conserved(), "count and checksum identities hold");
        assert_eq!(s.per_shard[0].accepted, 2);
        assert_eq!(s.per_shard[1].shed, 1);
    }

    #[test]
    fn losing_a_span_breaks_conservation() {
        let m = Metrics::new(1);
        let a = Span::new(3, 1);
        let b = Span::new(3, 2);
        m.on_accept(0, &a);
        m.on_accept(0, &b);
        m.on_export(0, &a);
        let s = m.snapshot();
        assert_eq!(s.inflight(), 1, "b is unaccounted");
        assert!(!s.conserved());
    }

    #[test]
    fn exporting_wrong_content_breaks_checksum_even_with_matching_counts() {
        let m = Metrics::new(1);
        let a = Span::new(4, 1);
        m.on_accept(0, &a);
        m.on_export(0, &Span::new(4, 2)); // right count, wrong span
        let s = m.snapshot();
        assert_eq!(s.accepted, s.exported);
        assert!(!s.conserved(), "checksum must catch content corruption");
    }
}
