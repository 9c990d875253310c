//! `wcq-ab` entry point: export, build once, run in alternating pairs, report.
//! See the library docs for the command line and the report.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::Instant;
use wcq_ab::json::Json;
use wcq_ab::{
    banner_backend, directions, last_number, parse_args, readings, table, Args, Head, Load,
    Reading, Series, USAGE,
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wcq-ab: {e}\n{USAGE}");
            exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("wcq-ab: {e}");
        exit(1);
    }
}

/// One exported, built side of the comparison.
struct Side {
    name: &'static str,
    label: String,
    dir: PathBuf,
    target: PathBuf,
}

fn run(args: &Args) -> Result<(), String> {
    let work = fresh_dir(args.dir.as_deref())?;
    let results = work.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    // Both sides come from the repository the tool is run in.
    let repo = git(".", &["rev-parse", "--show-toplevel"])?;
    let base = export(&repo, &Head::Rev(args.base.clone()), &work, "base")?;
    let head = export(&repo, &args.head, &work, "head")?;
    let mut backends = Vec::new();
    for side in [&base, &head] {
        eprintln!("wcq-ab: building {} ({})", side.name, side.label);
        match &args.load {
            Load::Workloads { .. } => check(
                Command::new("cargo")
                    .args(["build", "--release", "--offline", "--quiet"])
                    .args(["--manifest-path", "benchmark/Cargo.toml"])
                    .env("CARGO_TARGET_DIR", &side.target)
                    .current_dir(&side.dir),
                "benchmark build",
            )
            .map(drop)?,
            // The command builds what it runs: one unmeasured warm-up run,
            // whose banner (if it prints one) names the backend it built.
            Load::Command { argv } => {
                let out = run_command(side, argv)?;
                let name = banner_backend(&out).unwrap_or("unknown");
                backends.push(format!("{} {name}", side.name));
            }
        }
    }
    let backend = match args.load {
        Load::Workloads { .. } => format!("{} (default build)", default_backend()),
        Load::Command { .. } => backends.join(", "),
    };

    let host = format!(
        "host: nproc {}, dwcas {backend}; base {}, head {}; work dir {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        base.label,
        head.label,
        work.display()
    );
    println!("{host}");
    let mut series: BTreeMap<(String, String), Series> = BTreeMap::new();
    let mut log = String::new();
    for pair in 0..args.pairs {
        let order = if pair % 2 == 0 {
            [&base, &head]
        } else {
            [&head, &base]
        };
        let load_before = loadavg();
        let t0 = Instant::now();
        let mut got: BTreeMap<(&str, String, String), Reading> = BTreeMap::new();
        match &args.load {
            Load::Workloads {
                names,
                seed,
                seconds,
            } => {
                for w in names {
                    for side in order {
                        let out = results.join(format!("{}-{pair}-{w}.json", side.name));
                        run_benchmark(side, w, *seed, *seconds, &out)?;
                        let text = std::fs::read_to_string(&out)
                            .map_err(|e| format!("{}: {e}", out.display()))?;
                        let doc =
                            Json::parse(&text).map_err(|e| format!("{}: {e}", out.display()))?;
                        for r in readings(&doc)? {
                            got.insert((side.name, r.workload.clone(), r.metric.clone()), r);
                        }
                    }
                }
            }
            Load::Command { argv } => {
                for side in order {
                    let out = run_command(side, argv)?;
                    let value = last_number(&out)
                        .ok_or_else(|| format!("{}: the command printed no number", side.name))?;
                    let r = Reading {
                        workload: "cmd".into(),
                        metric: "last_number".into(),
                        unit: String::new(),
                        value,
                    };
                    got.insert((side.name, r.workload.clone(), r.metric.clone()), r);
                }
            }
        }
        for ((side, workload, metric), r) in &got {
            if *side != "base" {
                continue;
            }
            if let Some(h) = got.get(&("head", workload.clone(), metric.clone())) {
                let s = series
                    .entry((workload.clone(), metric.clone()))
                    .or_default();
                s.unit = r.unit.clone();
                s.pairs.push((r.value, h.value));
            }
        }
        let line = format!(
            "pair {:>2}: {} first, load {} -> {}, {:.1} s",
            pair + 1,
            order[0].name,
            load_before,
            loadavg(),
            t0.elapsed().as_secs_f64()
        );
        eprintln!("{line}");
        log.push_str(&line);
        log.push('\n');
    }

    // Unlisted metrics (a command's number, `failed_share`) are
    // lower-is-better, the table's default.
    let dirs = match &args.load {
        Load::Command { .. } => BTreeMap::new(),
        Load::Workloads { .. } => {
            let spec = std::fs::read_to_string(base.dir.join("BENCHMARK.json")).unwrap_or_default();
            Json::parse(&spec)
                .map(|s| directions(&s))
                .unwrap_or_default()
        }
    };
    let report = table(&series, &dirs);
    println!("\n{report}");
    let path = work.join("report.txt");
    std::fs::write(&path, format!("{host}\n{log}\n{report}"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wcq-ab: raw results and report.txt in {}", work.display());
    Ok(())
}

/// A new, empty working directory: `dir` if given (it must not exist or
/// be empty), else one under the system temp dir.
fn fresh_dir(dir: Option<&str>) -> Result<PathBuf, String> {
    let path = match dir {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("wcq-ab-{}", std::process::id())),
    };
    if path.exists() {
        let mut entries =
            std::fs::read_dir(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if entries.next().is_some() {
            return Err(format!(
                "{} is not empty: each run needs a fresh directory",
                path.display()
            ));
        }
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    path.canonicalize()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Exports one side into `work/<name>`, with its own target directory.
fn export(repo: &str, head: &Head, work: &Path, name: &'static str) -> Result<Side, String> {
    let dir = work.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let label = match head {
        Head::Rev(rev) => {
            let sha = git(
                repo,
                &[
                    "rev-parse",
                    "--verify",
                    "--short",
                    &format!("{rev}^{{commit}}"),
                ],
            )?;
            let mut archive = Command::new("git")
                .args(["-C", repo, "archive", &sha])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("git archive: {e}"))?;
            let tar = Command::new("tar")
                .arg("x")
                .arg("-C")
                .arg(&dir)
                .stdin(archive.stdout.take().ok_or("git archive: no stdout")?)
                .status()
                .map_err(|e| format!("tar: {e}"))?;
            let git_ok = archive
                .wait()
                .map_err(|e| format!("git archive: {e}"))?
                .success();
            if !git_ok || !tar.success() {
                return Err(format!("exporting {rev} failed"));
            }
            format!("{rev} = {sha}")
        }
        Head::Worktree => {
            let files = git(repo, &["ls-files", "-co", "--exclude-standard", "-z"])?;
            for rel in files.split('\0').filter(|f| !f.is_empty()) {
                let src = Path::new(repo).join(rel);
                if !src.is_file() {
                    continue; // tracked but deleted in the worktree
                }
                let dst = dir.join(rel);
                if let Some(parent) = dst.parent() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("{}: {e}", parent.display()))?;
                }
                std::fs::copy(&src, &dst).map_err(|e| format!("{}: {e}", src.display()))?;
            }
            format!(
                "worktree over {}",
                git(repo, &["rev-parse", "--short", "HEAD"])?
            )
        }
    };
    Ok(Side {
        name,
        label,
        target: work.join(format!("{name}-target")),
        dir,
    })
}

/// `git -C repo <args>`'s trimmed stdout.
fn git(repo: &str, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .args(["-C", repo])
        .args(args)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Runs `cmd` to completion; an error carries the tail of its stderr.
fn check(cmd: &mut Command, what: &str) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("{what}: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = err.lines().rev().take(20).collect();
        return Err(format!(
            "{what} failed ({}):\n{}",
            out.status,
            tail.into_iter().rev().collect::<Vec<_>>().join("\n")
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn run_benchmark(
    side: &Side,
    workload: &str,
    seed: Option<u64>,
    seconds: Option<u64>,
    out: &Path,
) -> Result<(), String> {
    let mut cmd = Command::new(side.target.join("release/wcq-benchmark"));
    cmd.args(["run", "--workload", workload, "--trace", "0"])
        .arg("--out")
        .arg(out)
        .current_dir(&side.dir);
    if let Some(s) = seed {
        cmd.args(["--seed", &s.to_string()]);
    }
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    check(&mut cmd, &format!("{} {workload}", side.name)).map(drop)
}

/// Runs the user's command in the side's directory (cargo inside it uses
/// the side's target dir) and returns what it printed.
fn run_command(side: &Side, argv: &[String]) -> Result<String, String> {
    check(
        Command::new(&argv[0])
            .args(&argv[1..])
            .env("CARGO_TARGET_DIR", &side.target)
            .current_dir(&side.dir),
        &format!("{} {}", side.name, argv.join(" ")),
    )
}

/// The 1-minute load average, or `n/a` off Linux.
fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "n/a".into())
}

/// The DWCAS backend a default build selects here: `dwcas` compiles the
/// `cmpxchg16b` backend on x86-64 and the portable LL/SC elsewhere. The
/// benchmark is built without features, so this is what it runs on.
fn default_backend() -> String {
    if cfg!(target_arch = "x86_64") {
        let cx16 = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.split_whitespace().any(|f| f == "cx16"))
            .unwrap_or(false);
        format!("x86_64-cmpxchg16b (cpu cx16: {cx16})")
    } else {
        "portable-llsc".into()
    }
}
