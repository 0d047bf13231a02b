//! Judging a change against its parent from paired runs.
//!
//! The rule, per end-to-end metric and workload:
//!
//! - **gain** only when there are at least ten pairs, the change wins at
//!   least nine tenths of them (ties count for neither side), and the
//!   medians differ in the change's favour by more than the parent's own
//!   interquartile range;
//! - **regression** when the change's median is worse than the parent's by
//!   more than the bound, however wide the spread;
//! - **unresolved** when the median is within the bound but either side's
//!   interquartile range, as a share of its median, is wider than the
//!   bound — unless every change run beats every parent run;
//! - **unchanged** otherwise.
//!
//! Runs are paired by position, so both sides must hold the same number of
//! runs of each workload; a run that crashed leaves a gap and is an error.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cachedse_json::Value;

use crate::report::{BenchmarkFile, Better, Report};
use crate::stats::{iqr_share, median, quartiles};

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS_FOR_GAIN: usize = 10;

/// The outcome for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Measurably better.
    Gain,
    /// Within the bound.
    Unchanged,
    /// Spread wider than the bound: no conclusion.
    Unresolved,
    /// Worse than the bound allows.
    Regression,
}

/// One metric's comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Judgement {
    /// Parent quartiles `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// How much worse the change's median is, as a share of the parent's
    /// (negative when better).
    pub worse_by: f64,
    /// The wider of the two sides' interquartile shares.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges paired runs `parent[i]`/`change[i]` of one metric.
///
/// # Panics
///
/// Panics if either side is empty or the sides differ in length.
#[must_use]
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Judgement {
    assert_eq!(parent.len(), change.len(), "unpaired runs");
    let pairs = parent.len();
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let pq = quartiles(parent);
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm,
        Better::Higher => (pm - cm) / pm,
    };
    let spread = iqr_share(parent).max(iqr_share(change));
    let all_beat = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let verdict = if pairs >= MIN_PAIRS_FOR_GAIN
        && wins * 10 >= pairs * 9
        && beats(cm, pm)
        && (cm - pm).abs() > pq[2] - pq[0]
    {
        Verdict::Gain
    } else if worse_by > bound {
        Verdict::Regression
    } else if spread > bound && !all_beat {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        parent: pq,
        change: quartiles(change),
        wins,
        pairs,
        worse_by,
        spread,
        verdict,
    }
}

/// Reads a runs file: one JSON record per line, `{"workload", "seed",
/// "report"}`, grouped by workload in file order.
///
/// # Errors
///
/// A line that is not such a record.
pub fn read_runs(text: &str) -> Result<BTreeMap<String, Vec<Report>>, String> {
    let mut runs: BTreeMap<String, Vec<Report>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let value = Value::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = value
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let report = Report::from_json(value.get("report").unwrap_or(&Value::Null))
            .map_err(|e| format!("line {}: {e}", n + 1))?;
        runs.entry(workload.to_owned()).or_default().push(report);
    }
    Ok(runs)
}

/// A runs-file record for one workload run.
#[must_use]
pub fn record(workload: &str, seed: u64, report: &Report) -> Value {
    Value::object([
        ("workload", Value::from(workload)),
        ("seed", Value::from(seed)),
        ("report", report.to_json()),
    ])
}

/// Compares two runs files under the bounds of `benchmark`; returns the
/// table and whether anything regressed (a wrong answer on either side
/// counts).
///
/// # Errors
///
/// A workload or metric missing from one side, or a workload with a
/// different number of runs on each side.
pub fn compare(
    benchmark: &BenchmarkFile,
    parent: &BTreeMap<String, Vec<Report>>,
    change: &BTreeMap<String, Vec<Report>>,
) -> Result<(String, bool), String> {
    if let Some(workload) = change.keys().find(|w| !parent.contains_key(*w)) {
        return Err(format!("workload {workload} has no parent runs"));
    }
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<15} {:>30} {:>30} {:>6} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "parent q1 / median / q3",
        "change q1 / median / q3",
        "wins",
        "worse",
        "spread"
    );
    for (workload, p_runs) in parent {
        let c_runs = change
            .get(workload)
            .ok_or_else(|| format!("workload {workload} has no change runs"))?;
        if p_runs.len() != c_runs.len() {
            return Err(format!(
                "workload {workload}: {} parent runs but {} change runs",
                p_runs.len(),
                c_runs.len()
            ));
        }
        for (side, runs) in [("parent", p_runs), ("change", c_runs)] {
            if runs.iter().any(|r| !r.correct || r.failed > 0) {
                regressed = true;
                let _ = writeln!(out, "{workload:<14} {side} runs failed or answered wrongly");
            }
        }
        for spec in &benchmark.end_to_end {
            let Some((better, bound)) = benchmark.gate(&spec.name) else {
                continue;
            };
            let values = |runs: &[Report]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| r.value(&spec.name))
                    .collect::<Option<_>>()
                    .ok_or_else(|| format!("{workload}: a run lacks {}", spec.name))
            };
            let j = judge(&values(p_runs)?, &values(c_runs)?, better, bound);
            regressed |= j.verdict == Verdict::Regression;
            let q = |v: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", v[0], v[1], v[2]);
            let _ = writeln!(
                out,
                "{workload:<14} {:<15} {:>30} {:>30} {:>6} {:>7.1}% {:>6.1}%  {:?} (bound {:.1}%)",
                spec.name,
                q(j.parent),
                q(j.change),
                format!("{}/{}", j.wins, j.pairs),
                j.worse_by * 100.0,
                j.spread * 100.0,
                j.verdict,
                bound * 100.0
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn identical_sides_are_unchanged() {
        let v = ten(100.0, 0.1);
        let j = judge(&v, &v, Better::Lower, 0.1);
        assert_eq!(j.wins, 0);
        assert_eq!(j.verdict, Verdict::Unchanged);
        assert!(j.worse_by.abs() < 1e-12);
    }

    #[test]
    fn nine_wins_and_a_tie_is_a_gain_but_eight_and_two_ties_is_not() {
        let parent = ten(100.0, 0.1);
        let mut change: Vec<f64> = parent.iter().map(|p| p - 5.0).collect();
        change[0] = parent[0]; // a tie counts for neither side
        let j = judge(&parent, &change, Better::Lower, 0.1);
        assert_eq!((j.wins, j.verdict), (9, Verdict::Gain));

        change[1] = parent[1];
        let j = judge(&parent, &change, Better::Lower, 0.1);
        assert_eq!(j.wins, 8);
        assert_ne!(j.verdict, Verdict::Gain);
    }

    #[test]
    fn a_gain_needs_ten_pairs_and_a_difference_beyond_the_parent_iqr() {
        let parent = ten(100.0, 1.0); // IQR 5.5
        let faster: Vec<f64> = parent.iter().map(|p| p - 3.0).collect();
        let j = judge(&parent, &faster, Better::Lower, 0.1);
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Unchanged, "3 < IQR 5.5");

        let much_faster: Vec<f64> = parent.iter().map(|p| p - 8.0).collect();
        assert_eq!(
            judge(&parent, &much_faster, Better::Lower, 0.1).verdict,
            Verdict::Gain
        );
        assert_ne!(
            judge(&parent[..9], &much_faster[..9], Better::Lower, 0.1).verdict,
            Verdict::Gain
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let parent = ten(100.0, 0.1);
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let j = judge(&parent, &slower, Better::Higher, 0.1);
        assert_eq!(j.verdict, Verdict::Regression);
        assert!((j.worse_by - 0.2).abs() < 1e-9);
        assert_eq!(
            judge(&slower, &parent, Better::Higher, 0.1).verdict,
            Verdict::Gain
        );
    }

    #[test]
    fn a_wide_spread_never_hides_a_regression() {
        let wide = ten(100.0, 5.0); // IQR share ≈ 22%
        let worse: Vec<f64> = wide.iter().map(|p| p * 1.15).collect();
        let j = judge(&wide, &worse, Better::Lower, 0.1);
        assert!(j.spread > 0.1);
        assert_eq!(j.verdict, Verdict::Regression);
        let narrow = ten(100.0, 0.01);
        let worse: Vec<f64> = narrow.iter().map(|p| p * 1.15).collect();
        assert_eq!(
            judge(&narrow, &worse, Better::Lower, 0.1).verdict,
            Verdict::Regression
        );
    }

    #[test]
    fn a_wide_spread_within_the_bound_is_unresolved_unless_every_run_wins() {
        let wide = ten(100.0, 5.0);
        let slightly_worse: Vec<f64> = wide.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            judge(&wide, &slightly_worse, Better::Lower, 0.1).verdict,
            Verdict::Unresolved
        );
        // Every change run beats every parent run, by less than the
        // parent's IQR: no gain, but resolved.
        let parent = [
            100.0, 100.0, 100.0, 100.0, 100.0, 110.0, 110.0, 110.0, 110.0, 110.0,
        ];
        let j = judge(&parent, &[99.9; 10], Better::Lower, 0.05);
        assert!(j.spread > 0.05 && j.wins == 10);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn unequal_run_counts_and_wrong_parent_answers_are_caught() {
        let run = |correct: bool| Report {
            correct,
            attempted: 3,
            failed: u64::from(!correct),
            metrics: vec![crate::report::Metric {
                name: "setup_s".to_owned(),
                value: 1.5,
                unit: "s".to_owned(),
            }],
        };
        let benchmark = BenchmarkFile {
            command: Vec::new(),
            paths: Vec::new(),
            run_seconds: 1,
            workloads: Vec::new(),
            end_to_end: vec![crate::report::MetricSpec {
                name: "setup_s".to_owned(),
                unit: "s".to_owned(),
                better: Better::Lower,
                bound: Some(0.1),
            }],
            per_layer: Vec::new(),
        };
        let runs = |reports: Vec<Report>| BTreeMap::from([("w".to_owned(), reports)]);
        let two = runs(vec![run(true), run(true)]);
        let one = runs(vec![run(true)]);
        assert!(compare(&benchmark, &two, &one).is_err());
        assert!(compare(&benchmark, &two, &BTreeMap::new()).is_err());
        assert!(compare(&benchmark, &BTreeMap::new(), &two).is_err());
        let (_, regressed) = compare(&benchmark, &two, &two).unwrap();
        assert!(!regressed);
        let wrong = runs(vec![run(false), run(true)]);
        let (table, regressed) = compare(&benchmark, &wrong, &two).unwrap();
        assert!(regressed && table.contains("parent runs failed"), "{table}");
    }

    #[test]
    fn runs_files_round_trip_through_records() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![crate::report::Metric {
                name: "setup_s".to_owned(),
                value: 1.5,
                unit: "s".to_owned(),
            }],
        };
        let text = format!(
            "{}\n\n{}\n",
            record("explore_data", 1, &report).render(),
            record("explore_data", 2, &report).render()
        );
        let runs = read_runs(&text).unwrap();
        assert_eq!(runs["explore_data"], vec![report.clone(), report]);
        assert!(read_runs("{\"seed\":1}").is_err());
    }
}
