//! Block spans recorded from the benchmark's own files, around calls into
//! a layer's public functions. Spans stay in a preallocated buffer while
//! anything is being timed and are written out once, after the last rep.

use std::io::Write as _;
use std::time::Instant;

use crate::json::Json;
use crate::stats;

/// One timed block of calls into one layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<module>.<what>` — the layer entry point the block drove.
    pub name: &'static str,
    /// Workload (or `ladder`) the block ran under.
    pub workload: &'static str,
    pub rep: u32,
    /// Nanoseconds since the process-wide epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the block pushed through the layer: one per singleton
    /// call, one per element for batch calls.
    pub calls: u32,
    /// The layer that calls this one in the real stack (`""` for a root).
    pub parent: &'static str,
}

impl Span {
    pub fn ns_per_call(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / self.calls.max(1) as f64
    }
}

/// A per-thread span buffer; merged by the main thread after the join.
pub struct Recorder {
    pub spans: Vec<Span>,
    epoch: Instant,
    workload: &'static str,
    rep: u32,
}

impl Recorder {
    pub fn new(epoch: Instant, workload: &'static str, rep: u32, capacity: usize) -> Recorder {
        Recorder {
            spans: Vec::with_capacity(capacity),
            epoch,
            workload,
            rep,
        }
    }

    #[inline]
    pub fn push(
        &mut self,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
        calls: u32,
    ) {
        let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
        self.push_ns(name, parent, ns(start), ns(end), calls);
    }

    /// [`Self::push`] for a block whose ends are already nanoseconds since
    /// the epoch.
    #[inline]
    pub fn push_ns(
        &mut self,
        name: &'static str,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
        calls: u32,
    ) {
        self.spans.push(Span {
            name,
            workload: self.workload,
            rep: self.rep,
            start_ns,
            end_ns,
            calls,
            parent,
        });
    }
}

/// Which spans a metric is computed from: one span name under one
/// workload (`ladder` for the rungs).
#[derive(Clone, Copy)]
pub struct From<'a> {
    pub workload: &'a str,
    pub name: &'a str,
}

fn select<'a>(spans: &'a [Span], from: From<'a>) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| s.name == from.name && s.workload == from.workload)
}

/// Median over the `name` spans of nanoseconds per operation; the median
/// discards blocks a preemption landed in. `NaN` when there are none.
pub fn ns_per_call(spans: &[Span], from: From) -> f64 {
    let per: Vec<f64> = select(spans, from).map(Span::ns_per_call).collect();
    stats::median(&per)
}

/// Sorted whole-span durations of the `name` spans, in nanoseconds.
pub fn span_durations(spans: &[Span], from: From) -> Vec<u64> {
    let mut d: Vec<u64> = select(spans, from).map(|s| s.end_ns - s.start_ns).collect();
    d.sort_unstable();
    d
}

/// Operations per second over the `name` spans: total calls over the wall
/// time from the first span's start to the last span's end.
pub fn calls_per_s(spans: &[Span], from: From) -> f64 {
    let calls: u64 = select(spans, from).map(|s| s.calls as u64).sum();
    let start = select(spans, from).map(|s| s.start_ns).min();
    let end = select(spans, from).map(|s| s.end_ns).max();
    match (start, end) {
        (Some(a), Some(b)) if b > a => calls as f64 / ((b - a) as f64 / 1e9),
        _ => f64::NAN,
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for s in spans {
        line.clear();
        Json::obj([
            ("name", Json::str(s.name)),
            ("workload", Json::str(s.workload)),
            ("rep", Json::Num(s.rep as f64)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("calls", Json::Num(s.calls as f64)),
            ("parent", Json::str(s.parent)),
        ])
        .write(&mut line);
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn per_call_time_is_the_median_block() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, "ladder", 0, 8);
        // 10, 20 and 1000 ns/op blocks: the outlier does not move the median.
        for (i, ns) in [10_240u64, 20_480, 1_024_000].into_iter().enumerate() {
            let start = epoch + Duration::from_micros(i as u64 * 5_000);
            r.push("x.pair", "y", start, start + Duration::from_nanos(ns), 1024);
        }
        r.push("other", "", epoch, epoch + Duration::from_nanos(5), 1);
        let from = |workload, name| From { workload, name };
        assert_eq!(ns_per_call(&r.spans, from("ladder", "x.pair")), 20.0);
        assert!(ns_per_call(&r.spans, from("ladder", "absent")).is_nan());
        assert!(ns_per_call(&r.spans, from("pair_1t", "x.pair")).is_nan());
        assert_eq!(
            span_durations(&r.spans, from("ladder", "x.pair")),
            [10_240, 20_480, 1_024_000]
        );
        // 3 072 calls from the first block's start to the last block's end.
        let per_s = calls_per_s(&r.spans, from("ladder", "x.pair"));
        assert!((per_s - 3072.0 / 0.011_024).abs() < 1.0, "{per_s}");
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, "pair_1t", 2, 2);
        r.push(
            "channel.try_pair",
            "",
            epoch,
            epoch + Duration::from_nanos(100),
            2048,
        );
        r.push(
            "wcq.ring.pair",
            "wcq.queue.pair",
            epoch,
            epoch + Duration::from_nanos(9),
            1024,
        );
        let path =
            std::env::temp_dir().join(format!("wcq-bench-trace-{}.jsonl", std::process::id()));
        write_jsonl(&path, &r.spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0].get("workload").and_then(Json::as_str),
            Some("pair_1t")
        );
        assert_eq!(
            lines[1].get("parent").and_then(Json::as_str),
            Some("wcq.queue.pair")
        );
        assert_eq!(lines[0].get("calls").and_then(Json::as_f64), Some(2048.0));
    }
}
