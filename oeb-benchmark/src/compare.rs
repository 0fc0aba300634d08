//! `oeb-benchmark compare A.json B.json`: for every workload and
//! end-to-end metric, both medians with their quartiles, the change
//! from A to B, the metric's bound, and a verdict.
//!
//! Each run contributes its value; passes inside a run do not count,
//! since they cannot show how far whole runs drift apart. Verdicts, for
//! lower-is-better metrics:
//! - `unresolved`: a side has fewer than two runs, or either side's
//!   spread (quartile distance over median) exceeds the bound, unless
//!   every B value is better (`better`) or worse (`worse`, when also
//!   beyond the bound) than every A value;
//! - `worse`: B's median exceeds A's by more than the bound;
//! - `better`: B's median is lower by more than A's quartile distance
//!   and B wins at least 90% of the (A, B) value pairs, ties counting
//!   for neither;
//! - `within`: otherwise.
//!
//! A zero bound (`error_ratio`) marks an exact count: B is worse when
//! any of its values exceeds A's worst.

use crate::measure::{median, quartiles, relative_spread};
use crate::metrics::END_TO_END;
use crate::workloads::Workload;
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict for a lower-is-better metric over run values.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let lo = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if bound <= 0.0 {
        // An exact count such as a failure ratio, not a noisy timing:
        // any increase over A's worst run is a regression.
        return if hi(b) > hi(a) {
            Verdict::Worse
        } else if hi(b) < lo(a) {
            Verdict::Better
        } else {
            Verdict::Within
        };
    }
    if a.len() < 2 || b.len() < 2 {
        return Verdict::Unresolved;
    }
    let beyond_bound = mb > ma * (1.0 + bound);
    let spread = relative_spread(a)
        .unwrap_or(0.0)
        .max(relative_spread(b).unwrap_or(0.0));
    if spread > bound {
        return if hi(b) < lo(a) {
            Verdict::Better
        } else if lo(b) > hi(a) && beyond_bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if beyond_bound {
        return Verdict::Worse;
    }
    let iqr_a = quartiles(a).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let wins = a
        .iter()
        .map(|x| b.iter().filter(|y| *y < x).count())
        .sum::<usize>();
    if ma - mb > iqr_a && wins as f64 >= 0.9 * (a.len() * b.len()) as f64 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One comparison row.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub verdict: Verdict,
}

fn runs(results: &Value) -> Vec<&Value> {
    results["runs"]
        .as_array()
        .map_or(Vec::new(), |r| r.iter().collect())
}

/// A workload's runs, keyed as printed: quick runs are a group of their
/// own, never mixed with full ones.
fn group_key(run: &Value) -> String {
    let name = run["workload"].as_str().unwrap_or("?");
    if run["quick"].as_bool().unwrap_or(false) {
        format!("{name} (quick)")
    } else {
        name.to_string()
    }
}

/// The run values one side contributes for `metric`.
fn side_values(group: &[&Value], metric: &str) -> Vec<f64> {
    group
        .iter()
        .filter_map(|run| run["end_to_end"][metric]["value"].as_f64())
        .collect()
}

/// Every (workload, metric) both files measured.
pub fn rows(a: &Value, b: &Value) -> Vec<Row> {
    let (runs_a, runs_b) = (runs(a), runs(b));
    let mut keys: Vec<String> = runs_a.iter().map(|r| group_key(r)).collect();
    // Workload order, full before quick, each key once.
    let order = |k: &String| {
        let base = k.trim_end_matches(" (quick)");
        let pos = Workload::ALL.iter().position(|w| w.name() == base);
        (
            pos.unwrap_or(usize::MAX),
            k.ends_with(" (quick)"),
            k.clone(),
        )
    };
    keys.sort_by_key(order);
    keys.dedup();
    let mut out = Vec::new();
    for key in keys {
        let in_group = |r: &&Value| group_key(r) == key;
        let ga: Vec<&Value> = runs_a.iter().copied().filter(in_group).collect();
        let gb: Vec<&Value> = runs_b.iter().copied().filter(in_group).collect();
        for def in &END_TO_END {
            let (va, vb) = (side_values(&ga, def.name), side_values(&gb, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            out.push(Row {
                workload: key.clone(),
                metric: def.name,
                unit: def.unit,
                bound: def.bound,
                verdict: verdict(&va, &vb, def.bound),
                a: va,
                b: vb,
            });
        }
    }
    out
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if runs(&value).is_empty() {
        return Err(format!("{path}: no runs (expected {{\"runs\": [...]}})"));
    }
    Ok(value)
}

fn summary(v: &[f64]) -> String {
    let m = median(v).unwrap_or(f64::NAN);
    let [q1, _, q3] = quartiles(v).unwrap_or([f64::NAN; 3]);
    format!("{m:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
}

/// Runs the subcommand; exit code 1 when any metric is worse.
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: oeb-benchmark compare A.json B.json");
        return 2;
    };
    let (va, vb) = match (load(a), load(b)) {
        (Ok(va), Ok(vb)) => (va, vb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 3;
        }
    };
    // The machine, not the commit: `git_rev` is expected to differ.
    let host = |v: &Value| {
        runs(v)
            .first()
            .map(|r| ["cores", "available_parallelism", "cpu_model"].map(|k| r["host"][k].clone()))
    };
    if host(&va) != host(&vb) {
        println!("warning: the two files were measured on different hosts");
    }
    let rows = rows(&va, &vb);
    println!(
        "{:<14} {:<20} {:<34} {:<34} {:>8} {:>6} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "spread", "bound"
    );
    for r in &rows {
        let (ma, mb) = (
            median(&r.a).unwrap_or(f64::NAN),
            median(&r.b).unwrap_or(f64::NAN),
        );
        let delta = if ma.abs() > 0.0 {
            format!("{:+.2}%", 100.0 * (mb - ma) / ma)
        } else {
            format!("{:+.4}", mb - ma)
        };
        let spread = |v: &[f64]| relative_spread(v).unwrap_or(0.0);
        println!(
            "{:<14} {:<20} {:<34} {:<34} {:>8} {:>5.1}% {:>5.1}%  {}",
            r.workload,
            format!("{} ({})", r.metric, r.unit),
            summary(&r.a),
            summary(&r.b),
            delta,
            100.0 * spread(&r.a).max(spread(&r.b)),
            100.0 * r.bound,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let worse = count(Verdict::Worse);
    println!(
        "{} rows: {} better, {} within, {worse} worse, {} unresolved \
         (spread: quartile distance over median, the larger of A and B)",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::Within),
        count(Verdict::Unresolved),
    );
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_built_pairs() {
        let a = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];
        // Same distribution: within.
        assert_eq!(verdict(&a, &a, 0.05), Verdict::Within);
        // 20% slower with a 5% bound: worse.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, 0.05), Verdict::Worse);
        // 3% slower: not beyond the bound, so within.
        let bit_slow: Vec<f64> = a.iter().map(|x| x * 1.03).collect();
        assert_eq!(verdict(&a, &bit_slow, 0.05), Verdict::Within);
        // 10% faster, every pair won, far beyond A's spread: better.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(&a, &fast, 0.05), Verdict::Better);
        // 1% faster is inside A's quartile distance: within.
        let bit_fast: Vec<f64> = a.iter().map(|x| x * 0.99).collect();
        assert_eq!(verdict(&a, &bit_fast, 0.05), Verdict::Within);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved() {
        let noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0];
        assert_eq!(verdict(&noisy, &noisy, 0.05), Verdict::Unresolved);
        // ...unless every B value beats every A value.
        let far: Vec<f64> = noisy.iter().map(|x| x * 0.4).collect();
        assert_eq!(verdict(&noisy, &far, 0.05), Verdict::Better);
        let high: Vec<f64> = noisy.iter().map(|x| x * 3.0).collect();
        assert_eq!(verdict(&noisy, &high, 0.05), Verdict::Worse);
    }

    #[test]
    fn one_run_cannot_resolve_a_timing() {
        // A single run shows no run-to-run spread: even a 50% change is
        // unresolved, unless the metric is an exact count.
        assert_eq!(verdict(&[1.0], &[1.5], 0.05), Verdict::Unresolved);
        assert_eq!(verdict(&[1.0, 1.0], &[1.5], 0.05), Verdict::Unresolved);
        assert_eq!(verdict(&[0.0, 0.0], &[0.0, 0.0], 0.0), Verdict::Within);
        assert_eq!(verdict(&[0.0], &[0.02], 0.0), Verdict::Worse);
    }

    fn results(runs: Vec<Value>) -> Value {
        serde_json::json!({ "runs": runs })
    }

    fn run(workload: &str, quick: bool, wall: Value) -> Value {
        serde_json::json!({
            "workload": workload,
            "quick": quick,
            "end_to_end": { "wall_s": wall, "error_ratio": { "value": 0.0 } }
        })
    }

    #[test]
    fn rows_from_hand_built_result_files() {
        let wall = |value: f64| serde_json::json!({ "value": value });
        let a = results(vec![
            run("table4-grid", false, wall(1.0)),
            run("stats-55", true, wall(5.0)),
            run("table4-grid", false, wall(1.02)),
        ]);
        let b = results(vec![
            run("table4-grid", false, wall(2.0)),
            run("table4-grid", false, wall(2.1)),
            run("prepare-55", false, wall(0.6)),
        ]);
        let rows = rows(&a, &b);
        // stats-55 (quick) and prepare-55 are each on one side only.
        let got: Vec<(&str, &str, Verdict)> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric, r.verdict))
            .collect();
        assert_eq!(
            got,
            vec![
                ("table4-grid", "wall_s", Verdict::Worse),
                ("table4-grid", "error_ratio", Verdict::Within),
            ]
        );
        assert_eq!(rows[0].a, vec![1.0, 1.02]);
        assert_eq!(rows[0].b, vec![2.0, 2.1]);
    }
}
