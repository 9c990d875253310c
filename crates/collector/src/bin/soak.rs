//! `collector-soak`: drive the span-collector pipeline at (or past) a
//! target rate under an optional fault profile, and report sustained
//! throughput, shed/drop rates, and flush-latency percentiles.
//!
//! The process exits non-zero if conservation is violated (an accepted
//! span neither exported nor counted dropped) — and, under
//! `--require-zero-drops`, if any accepted span was dropped — so CI can
//! gate on the binary directly.
//!
//! ```text
//! collector-soak --threads 8 --duration-ms 2000 --fault fail-every=7
//! ```

use std::process::ExitCode;
use std::time::Duration;

use collector::{run_soak, FaultProfile, ShedPolicy, SoakCfg};
use harness::stats::{fmt_ns, process_cpu_time};

const USAGE: &str = "\
collector-soak: soak/fault harness for the span-collector pipeline

  --threads N          producer threads (default 4)
  --rate R             aggregate target spans/s; 0 = flat out (default)
  --duration-ms D      run length in milliseconds (default 1000)
  --shards S           ingest shards / lanes (default 4)
  --workers W          batching workers (default 2)
  --batch-max B        spans per batch (default 128)
  --flush-after-us U   deadline flush, microseconds (default 5000)
  --lane-order O       per-producer lane ring = 2^O slots (default 10)
  --shed shed|block    ingest overload policy (default shed)
  --fault PROFILE      none | fail-every=N | stall=EVERY:US (default none)
  --require-zero-drops exit non-zero if any accepted span was dropped
  --help               this text
";

fn parse_fault(s: &str) -> Result<FaultProfile, String> {
    if s == "none" {
        return Ok(FaultProfile::None);
    }
    if let Some(n) = s.strip_prefix("fail-every=") {
        let n: u64 = n.parse().map_err(|_| format!("bad fail-every count {n:?}"))?;
        if n == 0 {
            return Err("fail-every=0 is meaningless".into());
        }
        return Ok(FaultProfile::FailEvery(n));
    }
    if let Some(rest) = s.strip_prefix("stall=") {
        let (every, us) = rest
            .split_once(':')
            .ok_or_else(|| format!("stall wants EVERY:US, got {rest:?}"))?;
        let every: u64 = every.parse().map_err(|_| format!("bad stall period {every:?}"))?;
        let us: u64 = us.parse().map_err(|_| format!("bad stall micros {us:?}"))?;
        if every == 0 {
            return Err("stall=0:_ is meaningless".into());
        }
        return Ok(FaultProfile::StallFor {
            every,
            dur: Duration::from_micros(us),
        });
    }
    Err(format!("unknown fault profile {s:?} (try --help)"))
}

fn parse_args() -> Result<(SoakCfg, bool), String> {
    let mut cfg = SoakCfg::default();
    let mut require_zero_drops = false;
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} wants a value"))
    };
    // BOUND: finite-iter — consumes the finite argv iterator
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => cfg.producers = next(&mut args, "--threads")?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--rate" => {
                let r: u64 = next(&mut args, "--rate")?.parse().map_err(|e| format!("--rate: {e}"))?;
                cfg.rate = (r > 0).then_some(r);
            }
            "--duration-ms" => {
                cfg.duration = Duration::from_millis(
                    next(&mut args, "--duration-ms")?.parse().map_err(|e| format!("--duration-ms: {e}"))?,
                )
            }
            "--shards" => cfg.pipeline.shards = next(&mut args, "--shards")?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--workers" => cfg.pipeline.workers = next(&mut args, "--workers")?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--batch-max" => cfg.pipeline.batch_max = next(&mut args, "--batch-max")?.parse().map_err(|e| format!("--batch-max: {e}"))?,
            "--flush-after-us" => {
                cfg.pipeline.flush_after = Duration::from_micros(
                    next(&mut args, "--flush-after-us")?.parse().map_err(|e| format!("--flush-after-us: {e}"))?,
                )
            }
            "--lane-order" => cfg.pipeline.lane_order = next(&mut args, "--lane-order")?.parse().map_err(|e| format!("--lane-order: {e}"))?,
            "--shed" => {
                cfg.pipeline.shed = match next(&mut args, "--shed")?.as_str() {
                    "shed" => ShedPolicy::Shed,
                    "block" => ShedPolicy::Block,
                    other => return Err(format!("unknown shed policy {other:?}")),
                }
            }
            "--fault" => cfg.fault = parse_fault(&next(&mut args, "--fault")?)?,
            "--require-zero-drops" => require_zero_drops = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    // Producers declared per lane must cover the actual thread count so
    // everyone gets a seated ring (see CollectorConfig::producers).
    cfg.pipeline.producers = cfg.producers.max(1);
    Ok((cfg, require_zero_drops))
}

fn main() -> ExitCode {
    let (cfg, require_zero_drops) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("collector-soak: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# collector-soak: threads={} rate={} duration={:?} shards={} workers={} \
         batch_max={} flush_after={:?} shed={:?} fault={} cores={} dwcas={}",
        cfg.producers,
        cfg.rate.map_or("max".into(), |r| r.to_string()),
        cfg.duration,
        cfg.pipeline.shards,
        cfg.pipeline.workers,
        cfg.pipeline.batch_max,
        cfg.pipeline.flush_after,
        cfg.pipeline.shed,
        cfg.fault,
        cores,
        if cfg!(feature = "portable") { "portable" } else { "hardware" },
    );

    let cpu_before = process_cpu_time();
    let report = run_soak(&cfg);
    let cpu = cpu_before.zip(process_cpu_time()).map(|(a, b)| b.saturating_sub(a));
    let m = &report.metrics;
    println!(
        "submitted={} accepted={} shed={} exported={} dropped={} inflight={}",
        report.submitted,
        m.accepted,
        m.shed,
        m.exported,
        m.dropped,
        m.inflight()
    );
    println!(
        "flushes={} deadline_flushes={} pause_flushes={} spans_per_flush={:.1} \
         export_failures={} retries={}",
        m.flushes,
        m.deadline_flushes,
        m.pause_flushes,
        m.spans_per_flush(),
        m.export_failures,
        m.retries
    );
    let l = &report.flush_latency;
    println!(
        "throughput={:.0} spans/s shed_rate={:.4} drop_rate={:.6} flush_latency p50={} p99={} max={} (n={})",
        report.throughput(),
        report.shed_rate(),
        report.drop_rate(),
        fmt_ns(l.p50_ns as f64),
        fmt_ns(l.p99_ns as f64),
        fmt_ns(l.max_ns as f64),
        l.n
    );
    // Whole-process CPU (producers and workers) over the run: what
    // the pipeline's waiting costs beside its latency.
    match cpu {
        Some(cpu) => println!(
            "cpu_s={:.3} cpu_ns_per_span={:.1}",
            cpu.as_secs_f64(),
            cpu.as_nanos() as f64 / m.accepted.max(1) as f64
        ),
        None => println!("cpu_s=n/a cpu_ns_per_span=n/a"),
    }

    if !report.conserved() {
        eprintln!(
            "CONSERVATION VIOLATED: accepted={} (ck {:#x}) != exported={} (ck {:#x}) + dropped={} (ck {:#x})",
            m.accepted, m.accepted_ck, m.exported, m.exported_ck, m.dropped, m.dropped_ck
        );
        return ExitCode::FAILURE;
    }
    println!("conserved=true");
    if require_zero_drops && m.dropped > 0 {
        eprintln!("ZERO-DROP REQUIREMENT VIOLATED: {} accepted spans dropped", m.dropped);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
