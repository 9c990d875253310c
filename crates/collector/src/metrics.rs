//! Lossy pipeline counters, `ringmpsc`-`metrics.rs` style: cache-padded
//! blocks bumped `Relaxed` on the hot paths, read as point-in-time
//! relaxed snapshots. "Lossy" refers to the *snapshot* — a concurrent
//! reader can see a span counted accepted but not yet exported — never
//! to the counters themselves: after shutdown (all producers and
//! pipeline threads joined) the totals are exact, which is what the
//! conservation accounting asserts.
//!
//! Blocks are split by **who writes them**, so no two writer roles ever
//! bounce one line between their CPUs (DESIGN.md §14):
//!
//! | block | one per | counters | written by | read by |
//! |---|---|---|---|---|
//! | `IngestBlock`, row 0 | shard | `accepted`, `shed`, `accepted_ck` | unseated producers (RMW) | `snapshot` |
//! | `IngestBlock`, row `1 + seat` | seat × shard | same | the one [`crate::SpanSender`] holding the seat (`load`+`store`) | `snapshot` |
//! | `EgressBlock` | shard | `exported`, `dropped` | export stage (a worker holding the export lock), once per batch | `snapshot` |
//! | `FlushBlock` | pipeline | `flushes`, `deadline_flushes`, `pause_flushes` | workers, once per batch (full, deadline, pause or drain) | `snapshot` |
//! | `ExportBlock` | pipeline | `exported_ck`, `dropped_ck`, `export_failures`, `retries` | export stage, once per batch / attempt | `snapshot` |
//!
//! `snapshot` sums the ingest rows per shard and XOR-folds their
//! checksums.

use crossbeam_utils::CachePadded;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64};

use crate::pipeline::shard_of;
use crate::span::Span;

/// One shard's ingest counters for one writer: row 0 is shared by every
/// unseated producer, each later row belongs to one seat.
#[derive(Default)]
struct IngestBlock {
    /// Spans taken by the shard's lane (`submit` returned `true`).
    accepted: AtomicU64,
    /// Spans refused at ingest (lane full under [`crate::ShedPolicy::Shed`],
    /// or submitted after close).
    shed: AtomicU64,
    /// Order-independent XOR checksum of accepted spans (see
    /// [`Span::checksum`]).
    accepted_ck: AtomicU64,
}

/// One shard's way-out counters; only the export stage writes them.
#[derive(Default)]
struct EgressBlock {
    /// Spans the export stage confirmed exported.
    exported: AtomicU64,
    /// Spans the export stage dropped (retries exhausted).
    dropped: AtomicU64,
}

/// Batch hand-off counters; only workers write them.
#[derive(Default)]
struct FlushBlock {
    /// Batches handed to the export stage.
    flushes: AtomicU64,
    /// The subset of `flushes` forced by the flush deadline.
    deadline_flushes: AtomicU64,
    /// The subset of `flushes` shipped because the flow paused.
    pause_flushes: AtomicU64,
}

/// Why a worker shipped a batch.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FlushCause {
    /// The batch reached `batch_max`.
    Full,
    /// The batch had been open `flush_after`.
    Deadline,
    /// Two sweeps a grace wait apart found every lane empty.
    Pause,
    /// As `Pause`, with every lane closed: the shutdown ripple.
    Drain,
}

/// Pipeline-wide export-side counters; only the export stage writes
/// them.
#[derive(Default)]
struct ExportBlock {
    /// XOR checksum of exported spans.
    exported_ck: AtomicU64,
    /// XOR checksum of dropped spans.
    dropped_ck: AtomicU64,
    /// Export attempts that returned an error (injected or real).
    export_failures: AtomicU64,
    /// Re-attempts scheduled after a failed export.
    retries: AtomicU64,
}

/// The collector's counter set. One instance per pipeline, shared by
/// every [`crate::SpanSender`], worker, and the export stage.
pub struct Metrics {
    /// `(1 + seats) × shards` blocks, row-major: `[row * shards + shard]`.
    ingest: Box<[CachePadded<IngestBlock>]>,
    /// `true` while a sender owns ingest row `1 + index`.
    seats: Box<[AtomicBool]>,
    egress: Box<[CachePadded<EgressBlock>]>,
    flush: CachePadded<FlushBlock>,
    export: CachePadded<ExportBlock>,
}

/// Ingest row shared by every producer that holds no seat.
pub(crate) const SHARED_ROW: usize = 0;

// ORDERING: pure statistical tally (accepted/shed/exported/dropped, flush
// and failure counts); carries no synchronization — totals are only read
// exactly after every pipeline thread is joined (DESIGN.md §14) — cover:
// dst model 8
impl Metrics {
    /// Counters for `shards` ingest shards and `seats` seated producers,
    /// all zero.
    pub fn new(shards: usize, seats: usize) -> Metrics {
        Metrics {
            ingest: (0..(1 + seats) * shards)
                .map(|_| CachePadded::default())
                .collect(),
            seats: (0..seats).map(|_| AtomicBool::new(false)).collect(),
            egress: (0..shards).map(|_| CachePadded::default()).collect(),
            flush: CachePadded::default(),
            export: CachePadded::default(),
        }
    }

    /// Number of ingest shards this counter set covers.
    pub fn shards(&self) -> usize {
        self.egress.len()
    }

    /// Claims a free seat for one producer and returns its ingest row, or
    /// [`SHARED_ROW`] when every seat is taken. The caller is the row's
    /// only writer until it calls [`Metrics::release_seat`].
    pub(crate) fn claim_seat(&self) -> usize {
        for (i, taken) in self.seats.iter().enumerate() {
            // ORDERING: seat hand-off — Acquire on winning the flag pairs
            // with the Release store in release_seat, so the new owner's
            // first plain load of the row's cells sees the previous
            // owner's last store; a failed CAS learns nothing it uses
            if taken
                .compare_exchange(false, true, Acquire, Relaxed)
                .is_ok()
            {
                return 1 + i;
            }
        }
        SHARED_ROW
    }

    /// Returns a row obtained from [`Metrics::claim_seat`]; the cells
    /// keep their totals for the next owner to continue.
    pub(crate) fn release_seat(&self, row: usize) {
        if row != SHARED_ROW {
            // ORDERING: seat hand-off — Release publishes this owner's
            // cell stores to whoever next wins the flag with Acquire
            self.seats[row - 1].store(false, Release);
        }
    }

    pub(crate) fn on_accept(&self, row: usize, shard: usize, span: &Span) {
        let b = &self.ingest[row * self.shards() + shard];
        if row == SHARED_ROW {
            b.accepted.fetch_add(1, Relaxed);
            // ORDERING: order-independent conservation checksum; XOR
            // commutes so interleaving is immaterial, and the accepted ==
            // exported ^ dropped identity is checked post-join only
            b.accepted_ck.fetch_xor(span.checksum(), Relaxed);
        } else {
            // ORDERING: single writer — the seat flag admits one owner at
            // a time and orders successive owners (claim_seat /
            // release_seat), so load+store loses no update and needs no
            // lock prefix; readers are relaxed snapshots
            b.accepted.store(b.accepted.load(Relaxed) + 1, Relaxed);
            // ORDERING: single writer, as above; the XOR fold is
            // order-independent
            b.accepted_ck
                .store(b.accepted_ck.load(Relaxed) ^ span.checksum(), Relaxed);
        }
    }

    pub(crate) fn on_shed(&self, row: usize, shard: usize) {
        let b = &self.ingest[row * self.shards() + shard];
        if row == SHARED_ROW {
            b.shed.fetch_add(1, Relaxed);
        } else {
            // ORDERING: single writer — seat exclusivity, see on_accept
            b.shed.store(b.shed.load(Relaxed) + 1, Relaxed);
        }
    }

    /// Counts a batch on the way out: folds it into per-shard counts and
    /// one XOR of the span checksums, then publishes with one add per
    /// shard touched and one XOR, however long the batch. `counts` is the
    /// caller's reusable `shards`-long scratch, zero on entry and on
    /// return.
    fn egress_batch(
        &self,
        spans: &[Span],
        counts: &mut [u64],
        count: fn(&EgressBlock) -> &AtomicU64,
        checksum: &AtomicU64,
    ) {
        let ck = spans.iter().fold(0, |ck, s| {
            counts[shard_of(s.trace, counts.len())] += 1;
            ck ^ s.checksum()
        });
        for (b, n) in self.egress.iter().zip(counts.iter_mut()) {
            if *n > 0 {
                count(b).fetch_add(std::mem::take(n), Relaxed);
            }
        }
        // ORDERING: order-independent conservation checksum; XOR commutes
        // so interleaving is immaterial, and the accepted == exported ^
        // dropped identity is checked post-join only
        checksum.fetch_xor(ck, Relaxed);
    }

    /// Counts a successfully exported batch (see [`Metrics::egress_batch`]
    /// for `counts`).
    pub(crate) fn on_export_batch(&self, spans: &[Span], counts: &mut [u64]) {
        self.egress_batch(spans, counts, |b| &b.exported, &self.export.exported_ck);
    }

    /// Counts a batch the export stage dropped (retries exhausted).
    pub(crate) fn on_drop_batch(&self, spans: &[Span], counts: &mut [u64]) {
        self.egress_batch(spans, counts, |b| &b.dropped, &self.export.dropped_ck);
    }

    pub(crate) fn on_export_failure(&self) {
        self.export.export_failures.fetch_add(1, Relaxed);
    }

    pub(crate) fn on_retry(&self) {
        self.export.retries.fetch_add(1, Relaxed);
    }

    pub(crate) fn on_flush(&self, cause: FlushCause) {
        self.flush.flushes.fetch_add(1, Relaxed);
        let subset = match cause {
            FlushCause::Deadline => &self.flush.deadline_flushes,
            FlushCause::Pause => &self.flush.pause_flushes,
            FlushCause::Full | FlushCause::Drain => return,
        };
        subset.fetch_add(1, Relaxed);
    }

    /// Point-in-time relaxed snapshot. Mid-flight the identities may lag
    /// (a span can be accepted but not yet exported — that is the
    /// [`MetricsSnapshot::inflight`] gauge); after shutdown they are
    /// exact.
    // ORDERING: relaxed point-in-time snapshot by design — documented as
    // possibly lagging mid-flight (inflight gauge); exact once the pipeline
    // is joined
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shards = self.shards();
        let mut s = MetricsSnapshot {
            per_shard: vec![ShardSnapshot::default(); shards],
            ..MetricsSnapshot::default()
        };
        for (i, b) in self.ingest.iter().enumerate() {
            let sh = &mut s.per_shard[i % shards];
            sh.accepted += b.accepted.load(Relaxed);
            sh.shed += b.shed.load(Relaxed);
            s.accepted_ck ^= b.accepted_ck.load(Relaxed);
        }
        for (sh, b) in s.per_shard.iter_mut().zip(self.egress.iter()) {
            sh.exported = b.exported.load(Relaxed);
            sh.dropped = b.dropped.load(Relaxed);
            s.accepted += sh.accepted;
            s.shed += sh.shed;
            s.exported += sh.exported;
            s.dropped += sh.dropped;
        }
        s.export_failures = self.export.export_failures.load(Relaxed);
        s.retries = self.export.retries.load(Relaxed);
        s.flushes = self.flush.flushes.load(Relaxed);
        s.deadline_flushes = self.flush.deadline_flushes.load(Relaxed);
        s.pause_flushes = self.flush.pause_flushes.load(Relaxed);
        s.exported_ck = self.export.exported_ck.load(Relaxed);
        s.dropped_ck = self.export.dropped_ck.load(Relaxed);
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
    /// Accepted spans of this shard the exporter dropped.
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
    /// Batches flushed to the export stage.
    pub flushes: u64,
    /// Flushes forced by the deadline.
    pub deadline_flushes: u64,
    /// Flushes shipped because the flow paused (not counting the
    /// shutdown drain).
    pub pause_flushes: u64,
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
    /// an open batch, or the export stage). Derived, and therefore
    /// momentarily stale mid-flight; exactly 0 after a clean shutdown.
    pub fn inflight(&self) -> u64 {
        self.accepted
            .saturating_sub(self.exported)
            .saturating_sub(self.dropped)
    }

    /// Mean batch size: spans out of the pipeline (exported or dropped)
    /// per flush; 0 before the first flush.
    pub fn spans_per_flush(&self) -> f64 {
        (self.exported + self.dropped) as f64 / self.flushes.max(1) as f64
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

    /// Counts `spans` as one exported (or dropped) batch, the way the
    /// export stage does.
    fn export(m: &Metrics, spans: &[Span]) {
        m.on_export_batch(spans, &mut vec![0; m.shards()]);
    }
    fn drop_batch(m: &Metrics, spans: &[Span]) {
        m.on_drop_batch(spans, &mut vec![0; m.shards()]);
    }

    #[test]
    fn accounting_identities() {
        let m = Metrics::new(2, 1);
        // Spans shard by trace: a, b → shard 0; c → shard 1.
        let a = Span::new(0, 10);
        let b = Span::new(2, 11);
        let c = Span::new(1, 12);
        let seat = m.claim_seat();
        assert_ne!(seat, SHARED_ROW);
        m.on_accept(seat, 0, &a);
        m.on_accept(SHARED_ROW, 0, &b);
        m.on_accept(seat, 1, &c);
        m.on_shed(seat, 1);
        m.on_shed(SHARED_ROW, 1);
        export(&m, &[a, c]);
        drop_batch(&m, &[b]);
        let s = m.snapshot();
        assert_eq!((s.accepted, s.shed, s.exported, s.dropped), (3, 2, 2, 1));
        assert_eq!(s.inflight(), 0);
        assert!(s.conserved(), "count and checksum identities hold");
        let shard = |accepted, shed, exported, dropped| ShardSnapshot {
            accepted,
            shed,
            exported,
            dropped,
        };
        assert_eq!(s.per_shard, [shard(2, 0, 1, 1), shard(1, 2, 1, 0)]);
    }

    #[test]
    fn losing_a_span_breaks_conservation() {
        let m = Metrics::new(1, 0);
        let a = Span::new(3, 1);
        let b = Span::new(3, 2);
        m.on_accept(SHARED_ROW, 0, &a);
        m.on_accept(SHARED_ROW, 0, &b);
        export(&m, &[a]);
        let s = m.snapshot();
        assert_eq!(s.inflight(), 1, "b is unaccounted");
        assert!(!s.conserved());
    }

    #[test]
    fn exporting_wrong_content_breaks_checksum_even_with_matching_counts() {
        let m = Metrics::new(1, 0);
        let a = Span::new(4, 1);
        m.on_accept(SHARED_ROW, 0, &a);
        export(&m, &[Span::new(4, 2)]); // right count, wrong span
        let s = m.snapshot();
        assert_eq!(s.accepted, s.exported);
        assert!(!s.conserved(), "checksum must catch content corruption");
    }

    #[test]
    fn batch_scratch_comes_back_zeroed() {
        let m = Metrics::new(2, 0);
        let mut counts = vec![0; 2];
        m.on_export_batch(&[Span::new(0, 1), Span::new(1, 2)], &mut counts);
        assert_eq!(counts, [0, 0]);
        m.on_drop_batch(&[Span::new(1, 3)], &mut counts);
        assert_eq!(counts, [0, 0]);
        let s = m.snapshot();
        assert_eq!((s.exported, s.dropped), (2, 1));
        assert_eq!(s.per_shard[1].dropped, 1);
    }

    #[test]
    fn seats_are_exclusive_reusable_and_cumulative() {
        let m = Metrics::new(1, 2);
        let (r1, r2) = (m.claim_seat(), m.claim_seat());
        assert!(r1 != r2 && r1 != SHARED_ROW && r2 != SHARED_ROW);
        assert_eq!(m.claim_seat(), SHARED_ROW, "both seats taken: overflow");
        m.on_accept(r1, 0, &Span::new(0, 1));
        m.release_seat(r1);
        m.release_seat(SHARED_ROW); // the overflow row is nobody's to free
        assert_eq!(m.claim_seat(), r1, "a released seat is claimable again");
        m.on_accept(r1, 0, &Span::new(0, 2));
        assert_eq!(
            m.snapshot().accepted,
            2,
            "the next owner continues the cell"
        );
    }

    /// No counter a producer writes may share a cache-line-pair with one
    /// the exporter or a worker writes, nor may two seats' cells: each
    /// such pair would bounce between two CPUs once per span.
    #[test]
    fn writer_roles_never_share_a_padded_block() {
        const BLOCK: usize = std::mem::align_of::<CachePadded<u8>>();
        fn block_of<T>(x: &T) -> usize {
            x as *const T as usize / BLOCK
        }
        let m = Metrics::new(2, 2);
        let shards = m.shards();
        // One set of blocks per ingest row (= per producer-side writer).
        let rows: Vec<Vec<usize>> = m
            .ingest
            .chunks(shards)
            .map(|row| {
                row.iter()
                    .flat_map(|b| {
                        [
                            block_of(&b.accepted),
                            block_of(&b.shed),
                            block_of(&b.accepted_ck),
                        ]
                    })
                    .collect()
            })
            .collect();
        assert_eq!(rows.len(), 3, "shared row + two seats");
        let exporter: Vec<usize> = m
            .egress
            .iter()
            .flat_map(|b| [block_of(&b.exported), block_of(&b.dropped)])
            .chain([
                block_of(&m.export.exported_ck),
                block_of(&m.export.dropped_ck),
                block_of(&m.export.export_failures),
                block_of(&m.export.retries),
            ])
            .collect();
        let workers = [
            block_of(&m.flush.flushes),
            block_of(&m.flush.deadline_flushes),
            block_of(&m.flush.pause_flushes),
        ];
        for (i, row) in rows.iter().enumerate() {
            for b in row {
                assert!(
                    !exporter.contains(b),
                    "row {i} shares a block with the exporter"
                );
                assert!(
                    !workers.contains(b),
                    "row {i} shares a block with the workers"
                );
                for (j, other) in rows.iter().enumerate() {
                    assert!(
                        i == j || !other.contains(b),
                        "rows {i} and {j} share a block"
                    );
                }
            }
        }
        assert!(
            workers.iter().all(|b| !exporter.contains(b)),
            "workers share a block with the exporter"
        );
    }
}
