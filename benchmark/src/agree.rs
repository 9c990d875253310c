//! `-- agree A.json B.json`: do two results files agree within each
//! end-to-end metric's bound? The tool for the A/A acceptance check and
//! for parent-versus-change comparisons.

use crate::results::{MetricValue, Results};
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats;

/// `failed_share` may differ by at most this much, absolutely.
const FAILED_SHARE_BOUND: f64 = 0.001;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Disagree,
    /// The reps of one side spread wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Disagree => "disagree",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(spec: &EndToEnd, a: &MetricValue, b: &MetricValue) -> Verdict {
    let spread = |m: &MetricValue| stats::iqr_share(&m.reps).unwrap_or(0.0);
    if spread(a).max(spread(b)) > spec.bound {
        // Still decidable when one side's every rep beats the other's.
        let all_beat = |x: &MetricValue, y: &MetricValue| {
            x.reps
                .iter()
                .all(|&p| y.reps.iter().all(|&q| worsening(spec.better, q, p) < 0.0))
        };
        return if all_beat(a, b) || all_beat(b, a) {
            Verdict::Disagree
        } else {
            Verdict::Unresolved
        };
    }
    // Symmetric: neither file may be worse than the other beyond the bound.
    let worse =
        worsening(spec.better, a.value, b.value).max(worsening(spec.better, b.value, a.value));
    if worse > spec.bound {
        Verdict::Disagree
    } else {
        Verdict::Agree
    }
}

/// Six significant digits, without an exponent: the metrics span
/// microseconds (`setup_s`) to tens of millions (`ops_per_s`).
fn sig6(v: f64) -> String {
    let decimals = (5 - v.abs().max(f64::MIN_POSITIVE).log10().floor() as i32).clamp(0, 12);
    format!("{v:.*}", decimals as usize)
}

/// Prints one line per workload × end-to-end metric (plus `failed_share`)
/// and returns the number of `disagree` verdicts.
pub fn report(a: &Results, b: &Results) -> usize {
    let mut disagreements = 0;
    println!(
        "{:<16}{:<16}{:>16}{:>16}{:>9}{:>8}  verdict",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        if wa.skipped || wb.skipped {
            println!("{:<16}skipped", wa.name);
            continue;
        }
        for spec in &END_TO_END {
            let (Some(ma), Some(mb)) = (wa.metric(spec.name), wb.metric(spec.name)) else {
                continue;
            };
            let verdict = judge(spec, ma, mb);
            disagreements += usize::from(verdict == Verdict::Disagree);
            println!(
                "{:<16}{:<16}{:>16}{:>16}{:>+8.1}%{:>7.0}%  {}",
                wa.name,
                spec.name,
                sig6(ma.value),
                sig6(mb.value),
                worsening(spec.better, ma.value, mb.value) * 100.0,
                spec.bound * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (wa.failed_share(), wb.failed_share());
        let verdict = if (fa - fb).abs() > FAILED_SHARE_BOUND || wa.correct != wb.correct {
            disagreements += 1;
            Verdict::Disagree
        } else {
            Verdict::Agree
        };
        println!(
            "{:<16}{:<16}{:>16.6}{:>16.6}{:>9}{:>8}  {}",
            wa.name,
            "failed_share",
            fa,
            fb,
            "",
            "+0.001",
            verdict.as_str()
        );
    }
    disagreements
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(reps: &[f64]) -> MetricValue {
        MetricValue {
            name: "m".into(),
            unit: "u".into(),
            value: stats::median(reps),
            reps: reps.to_vec(),
        }
    }

    const LOWER_10: EndToEnd = EndToEnd {
        name: "m",
        unit: "u",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER_10: EndToEnd = EndToEnd {
        better: Better::Higher,
        ..LOWER_10
    };

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(sig6(19_414_696.41), "19414696");
        assert_eq!(sig6(2713.2703), "2713.27");
        assert_eq!(sig6(0.000_096_311_5), "0.0000963115");
        assert_eq!(sig6(0.0), "0.000000000000");
    }

    #[test]
    fn within_the_bound_agrees_in_both_directions() {
        let a = metric(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let b = metric(&[108.0, 109.0, 107.0, 108.0, 108.5]);
        assert_eq!(judge(&LOWER_10, &a, &b), Verdict::Agree);
        assert_eq!(judge(&LOWER_10, &b, &a), Verdict::Agree);
        assert_eq!(judge(&HIGHER_10, &a, &b), Verdict::Agree);
    }

    #[test]
    fn beyond_the_bound_disagrees_whichever_side_is_worse() {
        let a = metric(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let b = metric(&[120.0, 121.0, 119.0, 120.0, 120.5]);
        for spec in [&LOWER_10, &HIGHER_10] {
            assert_eq!(judge(spec, &a, &b), Verdict::Disagree);
            assert_eq!(judge(spec, &b, &a), Verdict::Disagree);
        }
    }

    #[test]
    fn wide_rep_spread_is_unresolved_unless_every_rep_wins() {
        let noisy = metric(&[80.0, 100.0, 120.0, 90.0, 110.0]);
        let near = metric(&[95.0, 105.0, 100.0, 98.0, 102.0]);
        assert_eq!(judge(&LOWER_10, &noisy, &near), Verdict::Unresolved);
        let far = metric(&[300.0, 310.0, 305.0, 299.0, 301.0]);
        assert_eq!(judge(&LOWER_10, &noisy, &far), Verdict::Disagree);
    }
}
