//! Shared machinery for the two figure-regeneration binaries:
//!
//! * `figure10` — Fig. 10's memory census and throughput. It is a binary of
//!   its own because it alone installs [`harness::alloc::CountingAlloc`] as
//!   the global allocator, which is fixed per binary and slows the
//!   allocating baselines (DESIGN.md §5).
//! * `figures <11|12|shard|unbounded|wakeup|collector> [--panel NAME]` —
//!   every other figure, on the system allocator.
//!
//! The series layout mirrors the figures: one row per point (a thread
//! count; a node order for the unbounded sweep), one column per queue,
//! values in Mops/s (throughput panels) or MB (memory panel). Each queue's
//! label is written once, in the queue table below.
//!
//! Environment knobs (all optional; a malformed value is rejected):
//!
//! * `WCQ_BENCH_OPS` — operations per thread per run (default 100 000; the
//!   paper uses 10 000 000 per point).
//! * `WCQ_BENCH_REPS` — repetitions per point (default 3; the paper uses 10).
//! * `WCQ_BENCH_THREADS` — comma-separated thread ladder override, e.g.
//!   `1,2,4,8,18,36,72,144` (the paper's x86 ladder; the default caps the
//!   ladder at 4 × available cores to keep CI turnaround sane).
//! * `WCQ_BENCH_PIN` — set to `1` to pin workers round-robin.
//! * `WCQ_SOAK_MS` — per-point run length of `figures collector`, in ms
//!   (default 300).

#![warn(missing_docs)]

use baselines::{CcQueue, CrTurnQueue, FaaQueue, Lcrq, MsQueue, YmcQueue};
use harness::alloc;
use harness::queues::{BenchQueue, ChannelBench, QueueSpec};
use harness::stats::{fmt_mb, Stats};
use harness::workload::{repeat, Workload, WorkloadCfg};
use wcq::unbounded::Unbounded;
use wcq::{ScqQueue, ScqRing, ShardedWcq, WcqQueue, WcqRing};

/// Parsed benchmark options.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Thread ladder.
    pub threads: Vec<usize>,
    /// Operations per thread per run.
    pub ops: u64,
    /// Repetitions per point.
    pub reps: usize,
    /// Random delay bound (spin hints); used by the memory test.
    pub delay: u32,
    /// Pin worker threads.
    pub pin: bool,
    /// Per-point run length of the collector sweep, in ms.
    pub soak_ms: u64,
}

impl BenchOpts {
    /// Parses the knobs through `var`, a variable lookup (`None` = unset).
    /// `full_ladder` is the paper's ladder for the figure being reproduced;
    /// unless `WCQ_BENCH_THREADS` overrides it, it is capped at
    /// `4 × cores` (at least 8). The error names the variable and its value.
    pub fn parse(
        var: impl Fn(&str) -> Option<String>,
        full_ladder: &[usize],
        cores: usize,
    ) -> Result<Self, String> {
        let positive = |name: &str, default: u64| match var(name) {
            None => Ok(default),
            Some(s) => (s.trim().parse().ok().filter(|&n| n > 0))
                .ok_or_else(|| format!("{name}={s:?}: expected a positive integer")),
        };
        let threads = match var("WCQ_BENCH_THREADS") {
            None => {
                let cap = (cores * 4).max(8);
                full_ladder.iter().copied().filter(|&t| t <= cap).collect()
            }
            Some(s) => (s.split(','))
                .map(|t| t.trim().parse().ok().filter(|&n: &usize| n > 0))
                .collect::<Option<_>>()
                .ok_or_else(|| {
                    format!(
                        "WCQ_BENCH_THREADS={s:?}: expected comma-separated positive thread counts"
                    )
                })?,
        };
        Ok(BenchOpts {
            threads,
            ops: positive("WCQ_BENCH_OPS", 100_000)?,
            reps: positive("WCQ_BENCH_REPS", 3)? as usize,
            delay: 0,
            pin: var("WCQ_BENCH_PIN").as_deref() == Some("1"),
            soak_ms: positive("WCQ_SOAK_MS", 300)?,
        })
    }

    /// [`Self::parse`] over the process environment; a malformed knob
    /// ends the process through [`reject`].
    pub fn from_env(full_ladder: &[usize]) -> Self {
        Self::parse(|k| std::env::var(k).ok(), full_ladder, cores()).unwrap_or_else(|e| reject(&e))
    }
}

/// Reports malformed input (a knob, a subcommand or a panel) and exits
/// with status 2.
pub fn reject(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Available cores (1 when unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The paper's x86-64 thread ladder (Figs. 10, 11).
pub const LADDER_X86: &[usize] = &[1, 2, 4, 8, 18, 36, 72, 144];
/// The paper's PowerPC thread ladder (Fig. 12).
pub const LADDER_PPC: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

// ------------------------------------------------------ the queue table ---

/// Builds a queue from the spec, runs the workload `reps` times on it and
/// drops it; returns Mops/s statistics.
fn measure<Q: BenchQueue>(spec: &QueueSpec, wl: Workload, cfg: &WorkloadCfg, reps: usize) -> Stats {
    let q = Q::build(spec);
    Stats::from_samples(&repeat(&q, wl, cfg, reps))
}

/// One figure column: a label and the queue measured under it.
pub struct Queue {
    /// Column header.
    pub label: &'static str,
    /// Shard count handed to the builder (only `ShardedWcq` reads it).
    shards: usize,
    measure: fn(&QueueSpec, Workload, &WorkloadCfg, usize) -> Stats,
}

const fn queue<Q: BenchQueue>(label: &'static str) -> Queue {
    Queue {
        label,
        shards: 1,
        measure: measure::<Q>,
    }
}

const fn sharded(label: &'static str, shards: usize) -> Queue {
    Queue {
        shards,
        ..queue::<ShardedWcq<u64>>(label)
    }
}

/// The F&A throughput upper bound (not a real queue).
pub const FAA: Queue = queue::<FaaQueue>("FAA");
/// The paper's wait-free queue.
pub const WCQ: Queue = queue::<WcqQueue<u64>>("wCQ");
/// YMC, labelled as in the paper for its memory-growth flaw.
pub const YMC: Queue = queue::<YmcQueue>("YMC (bug)");
/// The CC-Synch combining queue.
pub const CCQUEUE: Queue = queue::<CcQueue>("CCQueue");
/// SCQ, the lock-free ring wCQ is built on.
pub const SCQ: Queue = queue::<ScqQueue<u64>>("SCQ");
/// CRTurn.
pub const CRTURN: Queue = queue::<CrTurnQueue>("CRTurn");
/// Michael & Scott's queue.
pub const MSQUEUE: Queue = queue::<MsQueue>("MSQueue");
/// LCRQ.
pub const LCRQ: Queue = queue::<Lcrq>("LCRQ");
/// The owned channel over a bounded wCQ. No paper figure has it; it
/// prices the channel surface through the same path as the paper's queues.
pub const CHANNEL: Queue = queue::<ChannelBench>("wCQ-channel");

/// Figs. 10 and 11: the paper's eight queues in its legend order.
pub const PAPER: &[Queue] = &[FAA, WCQ, YMC, CCQUEUE, SCQ, CRTURN, MSQUEUE, LCRQ];
/// Fig. 12: LCRQ omitted, as in the paper (it needs true CAS2).
pub const NO_LCRQ: &[Queue] = &[FAA, WCQ, YMC, CCQUEUE, SCQ, CRTURN, MSQUEUE];
/// The shard sweep (beyond the paper): single-ring wCQ against
/// `ShardedWcq` at 2, 4 and 8 shards, total capacity held at 2^16.
pub const SHARD: &[Queue] = &[
    WCQ,
    sharded("wCQ x2", 2),
    sharded("wCQ x4", 4),
    sharded("wCQ x8", 8),
];
/// The unbounded sweep (Appendix A's cost argument), under its CSV
/// column names: the list of wCQ rings, LSCQ, and the bounded wCQ as the
/// amortization ceiling.
pub const UNBOUNDED: &[Queue] = &[
    queue::<Unbounded<u64, WcqRing>>("wcq_unbounded"),
    queue::<Unbounded<u64, ScqRing>>("lscq"),
    queue::<WcqQueue<u64>>("wcq_bounded"),
];

// ------------------------------------------------------------- figures ---

/// One figure row: its key columns, and the thread count and queue spec
/// it runs at.
pub struct Point {
    /// `(column name, value)` pairs printed before the queue columns.
    keys: Vec<(&'static str, usize)>,
    /// Worker threads.
    pub threads: usize,
    /// Queue construction parameters.
    spec: QueueSpec,
}

fn spec_for(threads: usize) -> QueueSpec {
    QueueSpec {
        max_threads: threads + 1, // +1 for the prefill handle
        ring_order: 16,           // the paper's 2^16-entry rings
        ..QueueSpec::default()
    }
}

/// The thread-ladder rows of Figs. 10–12 and the shard sweep.
pub fn ladder(opts: &BenchOpts) -> Vec<Point> {
    let row = |threads| Point {
        keys: vec![("threads", threads)],
        threads,
        spec: spec_for(threads),
    };
    opts.threads.iter().copied().map(row).collect()
}

/// Node orders of the unbounded sweep: 2^4 = 16 slots (list-dominated) up
/// to 2^14 = 16k slots (ring-dominated).
pub const NODE_ORDERS: &[u32] = &[4, 6, 8, 10, 12, 14];

/// The unbounded sweep's rows: one per node order, all at the ladder's top
/// thread count (the most contended point the host supports), keyed by the
/// resolved order and its slot count.
pub fn node_orders(opts: &BenchOpts) -> Vec<Point> {
    let threads = *opts
        .threads
        .last()
        .expect("the thread ladder is never empty");
    let row = |order| {
        let spec = QueueSpec {
            node_order: Some(order),
            ..spec_for(threads)
        };
        let order = spec.unbounded_order() as usize;
        Point {
            keys: vec![("node_order", order), ("slots", 1 << order)],
            threads,
            spec,
        }
    };
    NODE_ORDERS.iter().copied().map(row).collect()
}

/// One figure cell: throughput statistics plus the peak-memory census.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Throughput stats (Mops/s).
    pub tput: Stats,
    /// Peak bytes attributed to the queue during the run (memory panel).
    pub mem_bytes: usize,
}

/// Runs workload `wl` at every point for every queue.
///
/// When `census` is true the counting allocator's high-water mark is
/// sampled around each queue's whole lifetime (Fig. 10a); it reads zero
/// unless the binary installs [`harness::alloc::CountingAlloc`].
pub fn run_figure(
    wl: Workload,
    queues: &[Queue],
    points: &[Point],
    opts: &BenchOpts,
    census: bool,
) -> Series {
    let mut header: Vec<&str> = points
        .first()
        .map_or(vec![], |p| p.keys.iter().map(|k| k.0).collect());
    header.extend(queues.iter().map(|q| q.label));
    let run_point = |p: &Point| {
        let cfg = WorkloadCfg {
            threads: p.threads,
            ops_per_thread: opts.ops,
            prefill: 1024,
            max_delay_spins: opts.delay,
            seed: 0x5eed_0000 + p.threads as u64,
            pin: opts.pin,
        };
        let run_queue = |q: &Queue| {
            let before = alloc::live_bytes();
            if census {
                alloc::reset_peak();
            }
            let spec = QueueSpec {
                shards: q.shards,
                ..p.spec
            };
            let tput = (q.measure)(&spec, wl, &cfg, opts.reps);
            let mem_bytes = census.then(|| alloc::peak_bytes().saturating_sub(before));
            let mem_bytes = mem_bytes.unwrap_or(0);
            eprintln!(
                "  [{wl:?}] {:?} {:<13} {:>8.3} Mops/s (cov {:.4}) mem {} MB",
                p.keys,
                q.label,
                tput.mean,
                tput.cov,
                fmt_mb(mem_bytes)
            );
            Cell { tput, mem_bytes }
        };
        (
            p.keys.iter().map(|k| k.1).collect(),
            queues.iter().map(run_queue).collect(),
        )
    };
    Series {
        header,
        rows: points.iter().map(run_point).collect(),
    }
}

/// A complete figure panel: one row per point.
pub struct Series {
    /// Key column names, then the queue labels.
    header: Vec<&'static str>,
    /// `(key values, cells)` rows.
    rows: Vec<(Vec<usize>, Vec<Cell>)>,
}

impl Series {
    /// Prints the throughput panel (Mops/s, mean of reps) under `title`.
    pub fn print_tput(&self, title: &str) {
        self.print(title, |c| format!("{:.4}", c.tput.mean));
    }

    /// Prints the memory panel (MB, peak during run) under `title`.
    pub fn print_mem(&self, title: &str) {
        self.print(title, |c| {
            format!("{:.4}", c.mem_bytes as f64 / (1 << 20) as f64)
        });
    }

    fn print(&self, title: &str, cell: impl Fn(&Cell) -> String) {
        let row = |(keys, cells): &(Vec<usize>, Vec<Cell>)| {
            keys.iter()
                .map(usize::to_string)
                .chain(cells.iter().map(&cell))
                .collect()
        };
        print_panel(
            title,
            &self.header,
            &self.rows.iter().map(row).collect::<Vec<_>>(),
        );
    }
}

/// The one table printer: a `== title ==` line, the rows as an aligned
/// table, then the same rows as CSV under `-- CSV --`.
pub fn print_panel(title: &str, header: &[&str], rows: &[Vec<String>]) {
    fn aligned<S: AsRef<str>>(cells: &[S], width: usize) -> String {
        cells
            .iter()
            .map(|c| format!("{:>width$}", c.as_ref()))
            .collect()
    }
    let cells = header
        .iter()
        .copied()
        .chain(rows.iter().flatten().map(String::as_str));
    let width = 2 + cells.map(str::len).max().unwrap_or(0);
    println!("\n== {title} ==");
    println!("{}", aligned(header, width));
    for r in rows {
        println!("{}", aligned(r, width));
    }
    println!("-- CSV --\n{}", header.join(","));
    for r in rows {
        println!("{}", r.join(","));
    }
}

/// Prints the environment header every figure emits.
pub fn print_env_banner(figure: &str) {
    println!("# {figure}");
    println!(
        "# dwcas backend: {} (hardware CAS2: {})",
        dwcas::BACKEND,
        dwcas::HARDWARE_CAS2
    );
    println!("# cores: {}", cores());
    println!(
        "# knobs: WCQ_BENCH_OPS / WCQ_BENCH_REPS / WCQ_BENCH_THREADS / WCQ_BENCH_PIN (see bench crate docs)"
    );
}

// ------------------------------------------------------- command line ---

/// Parses a figure's optional `--panel NAME` against its panel names; with
/// no flag, the last name (`all`/`both`) is the default.
pub fn parse_panel(args: &[String], panels: &[&'static str]) -> Result<&'static str, String> {
    let expected = match panels {
        [] => "no arguments".to_string(),
        _ => format!("[--panel {}]", panels.join("|")),
    };
    match args {
        [] => Ok(panels.last().copied().unwrap_or_default()),
        [flag, name] if flag == "--panel" => (panels.iter().copied().find(|p| p == name))
            .ok_or_else(|| format!("unknown panel {name:?}; expected {expected}")),
        _ => Err(format!(
            "unexpected arguments {args:?}; expected {expected}"
        )),
    }
}

/// A `figures` subcommand: its name, its panels (see [`parse_panel`];
/// empty when it has none), and what it runs given the chosen panel.
pub type Subcommand = (&'static str, &'static [&'static str], fn(&str));

/// Parses `<subcommand> [--panel NAME]` against `table`.
pub fn parse_command<'t>(
    args: &[String],
    table: &'t [Subcommand],
) -> Result<(&'t Subcommand, &'static str), String> {
    let names = || table.iter().map(|s| s.0).collect::<Vec<_>>().join("|");
    let (name, rest) = (args.split_first())
        .ok_or_else(|| format!("usage: figures <{}> [--panel NAME]", names()))?;
    let sub = (table.iter().find(|s| name == s.0))
        .ok_or_else(|| format!("unknown figure {name:?}; expected one of: {}", names()))?;
    Ok((sub, parse_panel(rest, sub.1)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(queues: &[Queue]) -> Vec<&str> {
        queues.iter().map(|q| q.label).collect()
    }

    #[test]
    fn ladders_match_paper() {
        assert_eq!(LADDER_X86, &[1, 2, 4, 8, 18, 36, 72, 144]);
        assert_eq!(LADDER_PPC, &[1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn queue_sets() {
        // Figs. 10/11: the paper's legend order.
        let legend = [
            "FAA",
            "wCQ",
            "YMC (bug)",
            "CCQueue",
            "SCQ",
            "CRTurn",
            "MSQueue",
            "LCRQ",
        ];
        assert_eq!(labels(PAPER), legend);
        // Fig. 12: the same order without LCRQ.
        assert_eq!(labels(NO_LCRQ), legend[..7]);
        // The shard sweep: one ring, then 2/4/8 shards of the same capacity.
        assert_eq!(labels(SHARD), ["wCQ", "wCQ x2", "wCQ x4", "wCQ x8"]);
        assert_eq!(
            SHARD.iter().map(|q| q.shards).collect::<Vec<_>>(),
            [1, 2, 4, 8]
        );
        // The unbounded sweep: its CSV columns, every queue unsharded.
        assert_eq!(labels(UNBOUNDED), ["wcq_unbounded", "lscq", "wcq_bounded"]);
        assert!(UNBOUNDED.iter().chain(PAPER).all(|q| q.shards == 1));
        assert_eq!(CHANNEL.label, "wCQ-channel");
    }

    #[test]
    fn tiny_series_runs_end_to_end() {
        // Smoke-test the full pipeline with microscopic sizes.
        let opts = BenchOpts {
            threads: vec![1, 2],
            ops: 2_000,
            reps: 1,
            delay: 0,
            pin: false,
            soak_ms: 1,
        };
        let runs = [
            (NO_LCRQ, ladder(&opts)),
            (&[CHANNEL][..], ladder(&opts)),
            (SHARD, ladder(&opts)),
            (UNBOUNDED, node_orders(&opts)),
        ];
        let series: Vec<Series> = (runs.iter())
            .map(|(queues, points)| run_figure(Workload::Pairwise, queues, points, &opts, false))
            .collect();
        for (s, (queues, points)) in series.iter().zip(&runs) {
            assert_eq!(s.rows.len(), points.len());
            assert_eq!(s.header.len(), points[0].keys.len() + queues.len());
            for (_, cells) in &s.rows {
                assert_eq!(cells.len(), queues.len());
                assert!(cells.iter().all(|c| c.tput.mean > 0.0));
            }
        }
        assert_eq!(
            series[0].rows[1].0,
            [2],
            "ladder rows are keyed by thread count"
        );
        let unbounded = &series[3];
        assert_eq!(unbounded.header[..2], ["node_order", "slots"]);
        assert_eq!(unbounded.rows.len(), NODE_ORDERS.len());
        assert_eq!(
            unbounded.rows[0].0,
            [4, 16],
            "2^4-slot nodes admit 3 threads"
        );
    }

    /// A lookup over fixed `(name, value)` pairs, standing in for the
    /// environment.
    fn vars(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        }
    }

    #[test]
    fn knobs_default_and_override() {
        let o = BenchOpts::parse(vars(&[]), LADDER_X86, 1).unwrap();
        assert_eq!((o.ops, o.reps, o.pin, o.soak_ms), (100_000, 3, false, 300));
        assert_eq!(o.threads, [1, 2, 4, 8], "capped at max(4 x cores, 8)");
        let o = BenchOpts::parse(
            vars(&[
                ("WCQ_BENCH_OPS", "2000"),
                ("WCQ_BENCH_REPS", "1"),
                ("WCQ_BENCH_THREADS", "1, 2,36"),
                ("WCQ_BENCH_PIN", "1"),
                ("WCQ_SOAK_MS", "150"),
            ]),
            LADDER_X86,
            1,
        )
        .unwrap();
        assert_eq!((o.ops, o.reps, o.pin, o.soak_ms), (2000, 1, true, 150));
        assert_eq!(o.threads, [1, 2, 36], "an explicit ladder is not capped");
    }

    #[test]
    fn malformed_knobs_are_rejected() {
        for (name, value) in [
            ("WCQ_BENCH_OPS", "lots"),
            ("WCQ_BENCH_OPS", "0"),
            ("WCQ_BENCH_OPS", ""),
            ("WCQ_BENCH_REPS", "0"),
            ("WCQ_BENCH_REPS", "-1"),
            ("WCQ_BENCH_THREADS", "abc"),
            ("WCQ_BENCH_THREADS", ""),
            ("WCQ_BENCH_THREADS", "1,,2"),
            ("WCQ_BENCH_THREADS", "0"),
            ("WCQ_SOAK_MS", "soon"),
        ] {
            let err = BenchOpts::parse(vars(&[(name, value)]), LADDER_X86, 2).unwrap_err();
            assert!(
                err.contains(name) && err.contains(&format!("{value:?}")),
                "{err}"
            );
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn panels_parse_and_default() {
        let panels = &["mem", "tput", "both"];
        assert_eq!(parse_panel(&args(&[]), panels), Ok("both"));
        assert_eq!(parse_panel(&args(&["--panel", "mem"]), panels), Ok("mem"));
        assert!(parse_panel(&args(&["--panel", "bogus"]), panels)
            .unwrap_err()
            .contains("\"bogus\""));
        assert!(parse_panel(&args(&["--panel"]), panels).is_err());
        assert!(parse_panel(&args(&["mem"]), panels).is_err());
        assert!(parse_panel(&args(&["--panel", "mem", "x"]), panels).is_err());
    }

    #[test]
    fn subcommands_parse() {
        const TABLE: &[Subcommand] = &[("11", &["pairs", "all"], |_| {}), ("wakeup", &[], |_| {})];
        let name = |a: &[&str]| parse_command(&args(a), TABLE).map(|(s, p)| (s.0, p));
        assert_eq!(name(&["11"]), Ok(("11", "all")));
        assert_eq!(name(&["11", "--panel", "pairs"]), Ok(("11", "pairs")));
        assert_eq!(name(&["wakeup"]), Ok(("wakeup", "")));
        assert!(name(&["13"]).unwrap_err().contains("\"13\""));
        assert!(name(&[]).unwrap_err().contains("11|wakeup"));
        assert!(name(&["11", "--panel", "bogus"]).is_err());
        assert!(
            name(&["wakeup", "--panel", "all"]).is_err(),
            "wakeup has no panels"
        );
    }
}
