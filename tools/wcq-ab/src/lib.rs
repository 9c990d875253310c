//! `wcq-ab`: a same-session A/B of two revisions of this repository.
//!
//! Each side is exported into a fresh directory, built once, then run in
//! alternating pairs (the side that runs first swaps every pair), so a
//! host that drifts mid-run moves both sides alike. The report gives, per
//! metric, each side's median and interquartile range over the pairs, the
//! head's wins, and a verdict: is the head's median inside the base's IQR
//! or beyond it. Host facts (`nproc`, the DWCAS backend, the load average
//! before and after every pair) go in the report beside the numbers. The
//! backend is what each side's command printed in its banner
//! ([`banner_backend`]), or `unknown`; the benchmark is always a default
//! build, and the report says so.
//! A last column applies the stricter rule a claimed gain must pass
//! ([`claim`]): 9 wins in 10 and a median shift wider than the base's IQR.
//!
//! ```text
//! wcq-ab --base <rev> [--head <rev> | --worktree] --pairs N
//!        (--workloads a,b [--seed N] [--seconds S] | -- <cmd> [args..])
//! ```
//!
//! With `--workloads`, each side runs `wcq-benchmark run --workload W
//! --trace 0 --out F` from its own `benchmark/` build and every
//! end-to-end metric in `F` is compared (directions from the side's
//! `BENCHMARK.json`). With `-- <cmd>`, the command runs in each side's
//! directory and the last number it prints is the one metric (lower is
//! better).

// The benchmark's own JSON reader and order statistics, compiled in
// unchanged: the tool reads its files and judges spread with the same
// quartiles as `wcq-benchmark agree`.
#[path = "../../../benchmark/src/json.rs"]
pub mod json;
#[path = "../../../benchmark/src/stats.rs"]
pub mod stats;

use json::Json;
use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// `true` when `head` is strictly better than `base`.
    pub fn wins(self, head: f64, base: f64) -> bool {
        match self {
            Better::Lower => head < base,
            Better::Higher => head > base,
        }
    }
}

/// What to run on each side.
#[derive(Clone, Debug, PartialEq)]
pub enum Load {
    /// `wcq-benchmark run` once per workload per side per pair.
    Workloads {
        names: Vec<String>,
        seed: Option<u64>,
        seconds: Option<u64>,
    },
    /// An arbitrary command; its last printed number is the metric,
    /// lower is better (a command that prints a rate can print its
    /// reciprocal).
    Command { argv: Vec<String> },
}

/// The head side: a revision, or the working tree as `git ls-files`
/// sees it (tracked plus untracked, minus ignored).
#[derive(Clone, Debug, PartialEq)]
pub enum Head {
    Rev(String),
    Worktree,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub base: String,
    pub head: Head,
    pub pairs: usize,
    pub load: Load,
    /// Fresh working directory; `None` picks one under the temp dir.
    pub dir: Option<String>,
}

pub const USAGE: &str = "usage: wcq-ab --base <rev> [--head <rev> | --worktree] --pairs N
              (--workloads a,b [--seed N] [--seconds S] | -- <cmd> [args..])
              [--dir FRESH_DIR]";

/// Parses the command line (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut base = None;
    let mut head = None;
    let mut pairs = None;
    let mut workloads: Option<Vec<String>> = None;
    let mut seed = None;
    let mut seconds = None;
    let mut dir = None;
    let mut command = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--base" => base = Some(value("a revision")?),
            "--head" => {
                if head.is_some() {
                    return Err("give one of --head and --worktree".into());
                }
                head = Some(Head::Rev(value("a revision")?));
            }
            "--worktree" => {
                if head.is_some() {
                    return Err("give one of --head and --worktree".into());
                }
                head = Some(Head::Worktree);
            }
            "--pairs" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--pairs: {e}"))?;
                if n < 2 {
                    return Err("--pairs must be at least 2 (an IQR needs two values)".into());
                }
                pairs = Some(n);
            }
            "--workloads" => {
                let names: Vec<String> = value("a comma-separated list")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if names.is_empty() {
                    return Err("--workloads needs at least one name".into());
                }
                workloads = Some(names);
            }
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--dir" => dir = Some(value("a directory")?),
            "--" => {
                let argv: Vec<String> = it.by_ref().cloned().collect();
                if argv.is_empty() {
                    return Err("-- needs a command".into());
                }
                command = Some(argv);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let load = match (workloads, command) {
        (Some(names), None) => Load::Workloads {
            names,
            seed,
            seconds,
        },
        (None, Some(argv)) => {
            if seed.is_some() || seconds.is_some() {
                return Err("--seed/--seconds go with --workloads".into());
            }
            Load::Command { argv }
        }
        _ => return Err("give exactly one of --workloads and -- <cmd>".into()),
    };
    Ok(Args {
        base: base.ok_or("--base is required")?,
        head: head.unwrap_or(Head::Worktree),
        pairs: pairs.ok_or("--pairs is required")?,
        load,
        dir,
    })
}

/// The last number in a command's output: the final whitespace-, `=`- or
/// `,`-separated token that parses as `f64` once a trailing unit
/// (`us`, `ns/op`, `%`, ...) is trimmed.
pub fn last_number(output: &str) -> Option<f64> {
    output
        .split(|c: char| c.is_whitespace() || c == '=' || c == ',')
        .rev()
        .find_map(|tok| {
            let num = tok.trim_end_matches(|c: char| !c.is_ascii_digit() && c != '.');
            num.parse::<f64>().ok().filter(|x| x.is_finite())
        })
}

/// The DWCAS backend a command says it ran on: the name after the last
/// `dwcas backend:` in its output (the `figures`/`figure10` banner line,
/// `# dwcas backend: portable-llsc (hardware CAS2: false)`).
pub fn banner_backend(output: &str) -> Option<&str> {
    let (_, rest) = output.rsplit_once("dwcas backend:")?;
    rest.split_whitespace().next()
}

/// One metric as read from a results file.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub value: f64,
}

/// The end-to-end readings of one `wcq-benchmark --out` file, plus each
/// workload's `failed_share`. Skipped workloads yield nothing.
pub fn readings(doc: &Json) -> Result<Vec<Reading>, String> {
    let mut out = Vec::new();
    let workloads = doc
        .get("workloads")
        .ok_or("results file has no workloads")?;
    for w in workloads.as_arr().unwrap_or_default() {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        if w.get("skipped") == Some(&Json::Bool(true)) {
            continue;
        }
        for m in w.get("metrics").and_then(Json::as_arr).unwrap_or_default() {
            let (Some(metric), Some(value)) = (
                m.get("name").and_then(Json::as_str),
                m.get("value").and_then(Json::as_f64),
            ) else {
                return Err(format!("{name}: a metric without name or value"));
            };
            out.push(Reading {
                workload: name.into(),
                metric: metric.into(),
                unit: m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                value,
            });
        }
        if let Some(share) = w.get("failed_share").and_then(Json::as_f64) {
            out.push(Reading {
                workload: name.into(),
                metric: "failed_share".into(),
                unit: "fraction".into(),
                value: share,
            });
        }
    }
    Ok(out)
}

/// Metric directions from a `BENCHMARK.json`'s `end_to_end` list.
pub fn directions(spec: &Json) -> BTreeMap<String, Better> {
    let mut out = BTreeMap::new();
    for m in spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        if let (Some(name), Some(better)) = (
            m.get("name").and_then(Json::as_str),
            m.get("better").and_then(Json::as_str),
        ) {
            let b = match better {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                _ => continue,
            };
            out.insert(name.to_string(), b);
        }
    }
    out
}

/// Every pair's value of one metric on both sides.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    pub unit: String,
    /// `(base, head)` per completed pair.
    pub pairs: Vec<(f64, f64)>,
}

/// Where the head's median falls against the base's IQR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Inside,
    BeyondBetter,
    BeyondWorse,
}

impl Verdict {
    pub fn of(base: &[f64], head_median: f64, better: Better) -> Option<Verdict> {
        let [q1, _, q3] = quartiles(base)?;
        Some(if (q1..=q3).contains(&head_median) {
            Verdict::Inside
        } else if better.wins(head_median, median(base)) {
            Verdict::BeyondBetter
        } else {
            Verdict::BeyondWorse
        })
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Inside => "inside base IQR",
            Verdict::BeyondBetter => "BEYOND base IQR, better",
            Verdict::BeyondWorse => "BEYOND base IQR, worse",
        }
    }
}

/// The stricter test a claimed gain must pass: the head wins at least
/// 9 pairs in 10 and its median moves past the base's by more than the
/// base's IQR width. `Some(true)` is a gain, `Some(false)` the mirror-image
/// loss, `None` neither.
pub fn claim(pairs: &[(f64, f64)], better: Better) -> Option<bool> {
    let base: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let head: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let [q1, _, q3] = quartiles(&base)?;
    let shift = (median(&head) - median(&base)).abs();
    let most = |n: usize| n * 10 >= pairs.len() * 9;
    let wins = pairs.iter().filter(|(b, h)| better.wins(*h, *b)).count();
    let losses = pairs.iter().filter(|(b, h)| better.wins(*b, *h)).count();
    if shift <= q3 - q1 {
        None
    } else if most(wins) {
        Some(true)
    } else if most(losses) {
        Some(false)
    } else {
        None
    }
}

/// A value in its unit, scaled for reading.
pub fn show(value: f64, unit: &str) -> String {
    match unit {
        "s" if value.abs() < 1e-3 => format!("{:.2} µs", value * 1e6),
        "s" => format!("{value:.4} s"),
        "ns" => format!("{value:.1} ns"),
        "ops/s" => format!("{:.3} M/s", value / 1e6),
        "bytes" => format!("{value:.0} B"),
        _ => format!("{value:.4}"),
    }
}

/// The report table: one row per `(workload, metric)` series.
pub fn table(
    series: &BTreeMap<(String, String), Series>,
    dirs: &BTreeMap<String, Better>,
) -> String {
    let mut out = String::new();
    for ((workload, metric), s) in series {
        let better = dirs.get(metric).copied().unwrap_or(Better::Lower);
        let base: Vec<f64> = s.pairs.iter().map(|p| p.0).collect();
        let head: Vec<f64> = s.pairs.iter().map(|p| p.1).collect();
        let wins = s.pairs.iter().filter(|(b, h)| better.wins(*h, *b)).count();
        let (bm, hm) = (median(&base), median(&head));
        let iqr = |v: &[f64]| match quartiles(v) {
            Some([q1, _, q3]) => format!("[{} – {}]", show(q1, &s.unit), show(q3, &s.unit)),
            None => "[-]".into(),
        };
        let ratio = if bm != 0.0 {
            format!("{:.3}×", hm / bm)
        } else {
            "-".into()
        };
        let verdict = Verdict::of(&base, hm, better).map_or("-", Verdict::label);
        let claim = match claim(&s.pairs, better) {
            Some(true) => "GAIN",
            Some(false) => "LOSS",
            None => "no claim",
        };
        let dir = match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let _ = writeln!(
            out,
            "{workload:<15} {metric:<16} base {} {}  head {} {}  head/base {ratio}  \
             head better in {wins}/{} ({dir} is better)  {verdict}; {claim}",
            show(bm, &s.unit),
            iqr(&base),
            show(hm, &s.unit),
            iqr(&head),
            s.pairs.len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_both_load_forms() {
        let a = args("--base HEAD~1 --pairs 10 --workloads pair_1t,batch_1t --seed 7 --seconds 3")
            .unwrap();
        assert_eq!(a.head, Head::Worktree);
        assert_eq!(
            a.load,
            Load::Workloads {
                names: vec!["pair_1t".into(), "batch_1t".into()],
                seed: Some(7),
                seconds: Some(3),
            }
        );
        let a = args("--base a --head b --pairs 4 -- ./probe --fast").unwrap();
        assert_eq!(a.head, Head::Rev("b".into()));
        assert_eq!(
            a.load,
            Load::Command {
                argv: vec!["./probe".into(), "--fast".into()],
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--pairs 10 --workloads pair_1t",
            "--base a --workloads pair_1t",
            "--base a --pairs 1 --workloads pair_1t",
            "--base a --pairs 10",
            "--base a --pairs 10 --workloads x -- cmd",
            "--base a --head b --worktree --pairs 10 --workloads x",
            "--base a --pairs 10 --seed 3 -- cmd",
            "--base a --pairs 10 --workloads x --bogus",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn banner_backend_reads_the_figure_banner() {
        let out = "# Figure 12\n# dwcas backend: portable-llsc (hardware CAS2: false)\n\
                   # cores: 2\nwCQ 1 12.5\n";
        assert_eq!(banner_backend(out), Some("portable-llsc"));
        assert_eq!(
            banner_backend("# dwcas backend: x86_64-cmpxchg16b (hardware CAS2: true)"),
            Some("x86_64-cmpxchg16b")
        );
        assert_eq!(banner_backend("took 12 ns/op"), None);
        assert_eq!(banner_backend("dwcas backend:"), None);
    }

    #[test]
    fn last_number_takes_the_final_numeric_token() {
        assert_eq!(
            last_number("new_full=4.4us  bounded(12,4)=8.9us\n"),
            Some(8.9)
        );
        assert_eq!(last_number("took 12 ns/op"), Some(12.0));
        assert_eq!(last_number("no digits here"), None);
    }

    #[test]
    fn verdict_reads_the_base_iqr() {
        let base: Vec<f64> = (1..=10).map(f64::from).collect(); // IQR 2.75..8.25
        assert_eq!(
            Verdict::of(&base, 5.0, Better::Lower),
            Some(Verdict::Inside)
        );
        assert_eq!(
            Verdict::of(&base, 2.0, Better::Lower),
            Some(Verdict::BeyondBetter)
        );
        assert_eq!(
            Verdict::of(&base, 2.0, Better::Higher),
            Some(Verdict::BeyondWorse)
        );
        assert_eq!(
            Verdict::of(&base, 9.0, Better::Higher),
            Some(Verdict::BeyondBetter)
        );
    }

    #[test]
    fn readings_and_directions_from_files() {
        let results = Json::parse(
            r#"{"workloads": [
                 {"name": "pair_1t", "skipped": false, "failed_share": 0,
                  "metrics": [{"name": "setup_s", "unit": "s", "value": 2e-5, "reps": []}]},
                 {"name": "pair_2t", "skipped": true, "metrics": []}]}"#,
        )
        .unwrap();
        let r = readings(&results).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].metric.as_str(), r[0].value), ("setup_s", 2e-5));
        assert_eq!(r[1].metric, "failed_share");
        let spec = Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "better": "higher"},
                               {"name": "setup_s", "better": "lower"}]}"#,
        )
        .unwrap();
        let d = directions(&spec);
        assert_eq!(d["ops_per_s"], Better::Higher);
        assert_eq!(d["setup_s"], Better::Lower);
    }

    #[test]
    fn table_counts_wins_in_the_metric_direction() {
        let mut series = BTreeMap::new();
        series.insert(
            ("pair_1t".to_string(), "setup_s".to_string()),
            Series {
                unit: "s".into(),
                pairs: vec![(30e-6, 20e-6), (31e-6, 21e-6), (29e-6, 30e-6)],
            },
        );
        let t = table(&series, &BTreeMap::new());
        assert!(t.contains("head better in 2/3"), "{t}");
        assert!(t.contains("base 30.00 µs"), "{t}");
        assert!(t.contains("BEYOND base IQR, better"), "{t}");
        assert!(t.contains("; no claim"), "{t}"); // 2/3 wins is not 9/10
    }

    #[test]
    fn claim_needs_nine_in_ten_and_a_shift_past_the_iqr_width() {
        let pairs = |head: f64| {
            (0..10)
                .map(|i| (10.0 + i as f64, head + i as f64))
                .collect::<Vec<_>>()
        };
        // Base IQR 11.75..17.25 (width 5.5); the head sits 7 lower.
        assert_eq!(claim(&pairs(3.0), Better::Lower), Some(true));
        assert_eq!(claim(&pairs(3.0), Better::Higher), Some(false));
        // 2 lower: 10/10 wins, but inside the spread.
        assert_eq!(claim(&pairs(8.0), Better::Lower), None);
        let mut eight = pairs(3.0);
        eight[0].1 = 99.0;
        eight[1].1 = 99.0;
        assert_eq!(claim(&eight, Better::Lower), None); // 8/10 wins
    }
}
