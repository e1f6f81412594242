//! `stackbench compare A B`: is B worse than A by more than the bound
//! `BENCHMARK.json` fixed for the metric?
//!
//! One row per (workload, end-to-end metric): `ok`, `worse`, or
//! `unresolved` when the run-internal spread of either side is wider
//! than the bound — a difference smaller than the noise is not "no
//! regression", it is not known.

use std::path::Path;

use gobo_serve::json::{parse, Json};

use crate::results::Results;
use crate::run::Metric;
use crate::stats::median;

/// Direction and regression bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may get worse.
    pub bound: f64,
}

/// Reads the `end_to_end` table of `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    json.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "malformed `end_to_end` entry in BENCHMARK.json".to_owned())
}

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Spread of the values behind a median, as a share of it: the width
/// of their middle half (for five slices, second-lowest to
/// second-highest), so the one stalled slice the median already
/// ignores does not count twice.
pub fn inner_spread(values: &[f64]) -> f64 {
    let Some(mid) = median(values).filter(|m| *m != 0.0) else {
        return 0.0;
    };
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let trim = v.len() / 4;
    let (lo, hi) = (v[trim], v[v.len() - 1 - trim]);
    (hi - lo) / mid.abs()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs()
}

/// Judges one metric of the candidate against the baseline.
pub fn judge(bound: &Bound, a: &Metric, b: &Metric, both_valid: bool) -> Verdict {
    let spread = inner_spread(&a.slices).max(inner_spread(&b.slices));
    if !both_valid || spread > bound.bound {
        Verdict::Unresolved
    } else if worse_by(a.value, b.value, bound.higher_is_better) > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub unit: String,
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compares two result sets workload by workload.
pub fn compare_sets(bounds: &[Bound], a: &[Results], b: &[Results]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for ra in a {
        let rb = b
            .iter()
            .find(|r| r.workload == ra.workload)
            .ok_or(format!("{}: missing from the second set", ra.workload))?;
        for bound in bounds {
            let find = |r: &Results| r.end_to_end.iter().find(|m| m.name == bound.name).cloned();
            let (Some(ma), Some(mb)) = (find(ra), find(rb)) else {
                return Err(format!("{}: metric {} missing", ra.workload, bound.name));
            };
            rows.push(Row {
                workload: ra.workload.clone(),
                metric: bound.name.clone(),
                a: ma.value,
                b: mb.value,
                unit: ma.unit.clone(),
                worse_by: worse_by(ma.value, mb.value, bound.higher_is_better),
                spread: inner_spread(&ma.slices).max(inner_spread(&mb.slices)),
                bound: bound.bound,
                verdict: judge(bound, &ma, &mb, ra.valid && rb.valid),
            });
        }
    }
    Ok(rows)
}

/// Reads every untraced `results-*.json` of a directory.
pub fn read_set(dir: &Path) -> Result<Vec<Results>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.starts_with("results-") && n.ends_with(".json") && !n.ends_with(".trace.json")
            })
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no results-*.json files", dir.display()));
    }
    paths.iter().map(|p| Results::read(p)).collect()
}

/// Prints the table; `true` when no row is `worse`.
pub fn print_rows(rows: &[Row]) -> bool {
    println!(
        "{:<15} {:<22} {:>13} {:>13} {:<6} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "unit", "worse_by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<15} {:<22} {:>13.4} {:>13.4} {:<6} {:>7.2}% {:>6.2}% {:>5.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    rows.iter().all(|r| r.verdict != Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, slices: &[f64]) -> Metric {
        Metric { value, ..Metric::of_slices("m", "us", slices.to_vec(), Vec::new()) }
    }

    fn lower(bound: f64) -> Bound {
        Bound { name: "m".into(), higher_is_better: false, bound }
    }

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_is_worse() {
        let quiet = [100.0, 101.0, 99.0, 100.5, 99.5];
        let a = metric(100.0, &quiet);
        assert_eq!(judge(&lower(0.07), &a, &metric(106.0, &quiet), true), Verdict::Ok);
        assert_eq!(judge(&lower(0.07), &a, &metric(108.0, &quiet), true), Verdict::Worse);
        // Better is never worse, however far.
        assert_eq!(judge(&lower(0.07), &a, &metric(50.0, &quiet), true), Verdict::Ok);
    }

    #[test]
    fn direction_follows_the_metric() {
        let higher = Bound { name: "m".into(), higher_is_better: true, bound: 0.07 };
        let a = metric(270.0, &[]);
        assert_eq!(judge(&higher, &a, &metric(240.0, &[]), true), Verdict::Worse);
        assert_eq!(judge(&higher, &a, &metric(300.0, &[]), true), Verdict::Ok);
        assert!((worse_by(270.0, 243.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn noisy_slices_leave_the_question_open() {
        let noisy = [100.0, 80.0, 125.0, 90.0, 115.0];
        let quiet = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same medians, but A cannot support a 7 % bound.
        let verdict = judge(&lower(0.07), &metric(100.0, &noisy), &metric(100.0, &quiet), true);
        assert_eq!(verdict, Verdict::Unresolved);
        // An invalid run resolves nothing either.
        let verdict = judge(&lower(0.07), &metric(100.0, &quiet), &metric(100.0, &quiet), false);
        assert_eq!(verdict, Verdict::Unresolved);
    }

    #[test]
    fn one_stalled_slice_does_not_widen_the_spread() {
        let stalled = [7_100.0, 6_900.0, 745_000.0, 7_000.0, 7_050.0];
        assert!(inner_spread(&stalled) < 0.02);
        assert_eq!(inner_spread(&[]), 0.0);
    }
}
