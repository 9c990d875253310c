//! The repo benchmark. See README.md for what every workload and metric
//! means; `BENCHMARK.json` at the repository root declares the same names.
//!
//! ```text
//! wcq-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out PATH]
//! wcq-benchmark list
//! wcq-benchmark agree [A.json B.json]
//! ```

mod agree;
mod check;
mod cpu;
mod json;
mod ladder;
mod results;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use results::{MetricValue, Results, WorkloadResult};
use workloads::Env;

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc;

/// Where results and traces go, relative to the working directory (the
/// repository root when run through `BENCHMARK.json`'s command).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  wcq-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out PATH] [--inject-drop]
  wcq-benchmark list
  wcq-benchmark agree [A.json B.json]";

struct RunArgs {
    workload: Option<&'static spec::Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    inject_drop: bool,
}

impl RunArgs {
    /// The whole set, untraced, at the length `BENCHMARK.json` declares.
    fn defaults() -> RunArgs {
        RunArgs {
            workload: None,
            seed: 1,
            seconds: 10,
            trace: false,
            out: Path::new(OUT_DIR).join("results.json"),
            inject_drop: false,
        }
    }
}

fn parse_run_args(
    mut args: std::iter::Peekable<impl Iterator<Item = String>>,
) -> Result<RunArgs, String> {
    let mut parsed = RunArgs::defaults();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(
                    spec::workload(&name)
                        .ok_or(format!("unknown workload `{name}` (see `list`)"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--out" => parsed.out = PathBuf::from(value("a path")?),
            // A bare `--trace` turns tracing on; `--trace 0|1` is explicit.
            "--trace" => {
                parsed.trace = match args.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--inject-drop" => parsed.inject_drop = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// The lines `list` prints: exactly what `BENCHMARK.json` declares.
fn listing() -> Vec<String> {
    let mut lines = Vec::new();
    for w in &spec::WORKLOADS {
        lines.push(format!("workload {} {}", w.name, w.why));
    }
    for m in &spec::END_TO_END {
        lines.push(format!(
            "end_to_end {} {} {} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    for m in &spec::PER_LAYER {
        lines.push(format!(
            "per_layer {} {} {}",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    lines
}

fn print_metrics(label: &str, metrics: &[MetricValue]) {
    for m in metrics {
        println!("{label} {} {} {}", m.name, m.value, m.unit);
    }
}

fn print_workload(w: &WorkloadResult) {
    if w.skipped {
        println!("{} skipped (fewer allowed CPUs than load threads)", w.name);
        return;
    }
    print_metrics(&w.name, &w.metrics);
    println!("{} failed_share {} fraction", w.name, w.failed_share());
}

/// The driver's last line: `correct`, `attempted`, `failed`, `metrics`.
/// Only metrics `BENCHMARK.json` declares go in it (not `op_p99_ns`).
fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[MetricValue]) -> String {
    let metrics = metrics
        .iter()
        .filter(|m| m.name != spec::OP_P99.0)
        .map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line()
}

/// Runs the workloads `args` selects (all seven without `--workload`) for
/// the end-to-end metrics and, with `--trace`, the traced pass for the
/// per-layer metrics; prints every metric and saves the results file.
/// `--workload W --trace 1`, the driver's form, is the traced pass alone:
/// it is the same pass for every `W`, each workload runs traced inside it.
fn run(args: &RunArgs) -> Result<(Results, bool), String> {
    let cpus = cpu::Cpus::discover();
    let env = Env {
        cpus: &cpus,
        epoch: Instant::now(),
        seed: args.seed,
        inject_drop: args.inject_drop,
    };
    let mut results = Results {
        seed: args.seed,
        seconds: args.seconds,
        cpus: cpus.allowed().iter().copied().take(2).collect(),
        workloads: Vec::new(),
        per_layer: Vec::new(),
    };
    let traced_only = args.trace && args.workload.is_some();
    let selected: Vec<&spec::Workload> = match args.workload {
        _ if traced_only => Vec::new(),
        Some(w) => vec![w],
        None => spec::WORKLOADS.iter().collect(),
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for w in selected {
        let r = run::run_workload(&env, w, args.seconds)?;
        if r.skipped && args.workload.is_some() {
            return Err(format!("{} needs {} allowed CPUs", w.name, w.threads));
        }
        print_workload(&r);
        correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
        results.workloads.push(r);
    }
    if args.trace {
        let traced = run::traced_pass(&env, args.seconds)?;
        trace::write_jsonl(&Path::new(OUT_DIR).join("trace.jsonl"), &traced.spans)
            .map_err(|e| format!("trace.jsonl: {e}"))?;
        print_metrics(args.workload.map_or("all", |w| w.name), &traced.per_layer);
        if traced_only && traced.per_layer.len() != spec::PER_LAYER.len() {
            return Err(
                "some per-layer metrics could not be measured (fewer than 2 allowed CPUs?)".into(),
            );
        }
        correct &= traced.correct;
        attempted += traced.attempted;
        failed += traced.failed;
        results.per_layer = traced.per_layer;
    }
    results
        .save(&args.out)
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    // One workload: its end-to-end metrics, or the per-layer metrics of its
    // traced pass. The whole set has no single value per metric; the
    // results file holds them all.
    let line_metrics = match &results.workloads[..] {
        [] => &results.per_layer[..],
        [only] => &only.metrics[..],
        _ => &[],
    };
    println!(
        "{}",
        contract_line(correct, attempted, failed, line_metrics)
    );
    Ok((results, correct))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let outcome = match args.next().as_deref() {
        Some("run") => parse_run_args(args)
            .and_then(|a| run(&a))
            .map(|(_, correct)| {
                if !correct {
                    eprintln!("wcq-benchmark: a correctness check failed");
                }
                correct
            }),
        Some("list") => {
            listing().iter().for_each(|l| println!("{l}"));
            Ok(true)
        }
        Some("agree") => agree_command(args.collect()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("wcq-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `agree A.json B.json` compares two results files; `agree` alone runs
/// the whole set twice, back to back, and compares those (the A/A check).
fn agree_command(paths: Vec<String>) -> Result<bool, String> {
    let (a, b) = match &paths[..] {
        [a, b] => (Results::load(Path::new(a))?, Results::load(Path::new(b))?),
        [] => {
            let side = |name: &str| {
                run(&RunArgs {
                    out: Path::new(OUT_DIR).join(name),
                    ..RunArgs::defaults()
                })
                .map(|(results, _)| results)
            };
            (side("aa-a.json")?, side("aa-b.json")?)
        }
        _ => return Err(USAGE.into()),
    };
    Ok(agree::report(&a, &b) == 0)
}
