//! Case-study experiments (§5 of the paper): evolving feature spaces
//! (Figure 4), imputation strategies under evolving features (Figure 5),
//! the t-SNE drift visualisation (Figure 6), drift impact on test loss
//! (Figure 7), and anomaly-event detection (Figure 8).

use super::{json_f64, json_series, ExpContext, ExperimentOutput};
use crate::executor::resolve_threads;
use crate::harness::{HarnessConfig, RunResult};
use crate::learners::Algorithm;
use crate::report::TextTable;
use crate::sweep::{run_grid, RunOutcome};
use oeb_drift::{BatchDriftDetector, Hdddm};
use oeb_linalg::{tsne, Matrix, TsneConfig};
use oeb_outlier::{anomaly_ratio, Ecod, IForestConfig, IsolationForest};
use oeb_preprocess::OneHotEncoder;
use oeb_synth::DatasetEntry;
use oeb_tabular::StreamDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

fn case_entry(ctx: &ExpContext, name: &str) -> DatasetEntry {
    ctx.registry()
        .into_iter()
        .find(|e| e.spec.name == name)
        .expect("case-study dataset present")
}

/// Runs each `(learner, config)` over `dataset` through the grid runner
/// (panic isolation, `config.supervise`); a run that does not complete
/// is `None`, printed `N/A`.
fn run_cases(
    dataset: &StreamDataset,
    runs: &[(Algorithm, HarnessConfig)],
) -> Vec<Option<RunResult>> {
    let outcomes = run_grid(
        runs.len(),
        resolve_threads(None),
        |i| (dataset, runs[i].0, &runs[i].1),
        |_, _| {},
    );
    outcomes
        .into_iter()
        .map(|outcome| match outcome {
            RunOutcome::Completed(run) => Some(run),
            _ => None,
        })
        .collect()
}

/// `show` of a completed run, `N/A` for one that did not complete.
fn or_na(run: &Option<RunResult>, show: impl Fn(&RunResult) -> String) -> String {
    run.as_ref().map_or_else(|| "N/A".into(), show)
}

/// The loss curve of a completed run, `null` for one that did not
/// complete.
fn curve_json(run: &Option<RunResult>) -> serde_json::Value {
    run.as_ref()
        .map_or(serde_json::Value::Null, |r| json_series(&r.per_window_loss))
}

/// Windows shown for a set of curves: the shortest completed one.
fn shown_windows(runs: &[Option<RunResult>]) -> usize {
    runs.iter()
        .flatten()
        .map(|r| r.per_window_loss.len())
        .min()
        .unwrap_or(0)
}

/// Figure 4: per-window valid-value ratio of two evolving sensors in the
/// five-cities Beijing PM2.5 stream (one appears mid-stream, one drops
/// out for a stretch).
pub fn fig4(ctx: &ExpContext) -> ExperimentOutput {
    let entry = case_entry(ctx, "5 cities PM2.5 (Beijing)");
    let d = ctx.dataset(&entry, 0);
    let windows = d.windows();
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); 2];
    for range in &windows {
        for (slot, feature) in [0usize, 1usize].iter().enumerate() {
            let col = d.table.column(*feature).slice(range.clone());
            series[slot].push(1.0 - col.missing_ratio());
        }
    }
    let mut t = TextTable::new(vec![
        "Window",
        "feature 0 valid ratio",
        "feature 1 valid ratio",
    ]);
    for (w, _) in windows.iter().enumerate() {
        t.row(vec![
            w.to_string(),
            format!("{:.3}", series[0][w]),
            format!("{:.3}", series[1][w]),
        ]);
    }
    ExperimentOutput {
        id: "fig4",
        title: "Ratio of valid values per window (incremental/decremental features)",
        text: t.render(),
        json: json!({
            "windows": windows.len(),
            "feature0_valid_ratio": json_series(&series[0]),
            "feature1_valid_ratio": json_series(&series[1]),
        }),
    }
}

/// Figure 5: test-loss curve of a neural network on the evolving-sensor
/// stream under three missing-feature policies: oracle filling (whole
/// dataset knowledge), normal filling (only past data), and discarding
/// the most-missing features.
pub fn fig5(ctx: &ExpContext) -> ExperimentOutput {
    let entry = case_entry(ctx, "5 cities PM2.5 (Beijing)");
    let d = ctx.dataset(&entry, 0);
    let mut base = HarnessConfig::default();
    base.learner.epochs = 5;

    let runs = run_cases(
        &d,
        &[
            (
                Algorithm::NaiveNn,
                HarnessConfig {
                    oracle_imputation: true,
                    ..base.clone()
                },
            ),
            (Algorithm::NaiveNn, base.clone()),
            (
                Algorithm::NaiveNn,
                HarnessConfig {
                    discard_most_missing: 3,
                    ..base
                },
            ),
        ],
    );

    let mut t = TextTable::new(vec![
        "Window",
        "Filling (oracle)",
        "Filling (normal)",
        "Discard",
    ]);
    let fmt = |x: f64| {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "inf".into()
        }
    };
    for w in 0..shown_windows(&runs) {
        let mut row = vec![w.to_string()];
        row.extend(
            runs.iter()
                .map(|run| or_na(run, |r| fmt(r.per_window_loss[w]))),
        );
        t.row(row);
    }
    let mean = |i: usize| or_na(&runs[i], |r| fmt(r.mean_loss));
    let summary = format!(
        "mean loss: oracle {} | normal {} | discard {}\n",
        mean(0),
        mean(1),
        mean(2)
    );
    let mean_json = |i: usize| {
        runs[i]
            .as_ref()
            .map_or(serde_json::Value::Null, |r| json_f64(r.mean_loss))
    };
    ExperimentOutput {
        id: "fig5",
        title: "Test loss under oracle/normal filling vs discarding evolving features",
        text: format!("{}{}", t.render(), summary),
        json: json!({
            "oracle": curve_json(&runs[0]),
            "normal": curve_json(&runs[1]),
            "discard": curve_json(&runs[2]),
            "mean": {
                "oracle": mean_json(0),
                "normal": mean_json(1),
                "discard": mean_json(2),
            },
        }),
    }
}

/// Figure 6: t-SNE embedding of the (preprocessed) Tiantan air-quality
/// stream, labelled by window and by a 6-level AQI-style bucketing of the
/// target, exposing the recurrent yearly drift.
pub fn fig6(ctx: &ExpContext) -> ExperimentOutput {
    let entry = case_entry(ctx, "Beijing Multi-Site Air-Quality Tiantan");
    let d = ctx.dataset(&entry, 0);
    let windows = d.windows();
    let encoder = OneHotEncoder::fit(&d.table, &d.feature_cols());

    // Evenly subsample points across windows, capped for exact t-SNE.
    let budget = 600usize;
    let per_window = (budget / windows.len().max(1)).max(3);
    let mut rows = Vec::new();
    let mut window_of = Vec::new();
    let mut targets = Vec::new();
    for (w, range) in windows.iter().enumerate() {
        let enc = encoder.encode(&d.table, range.clone());
        let step = (enc.rows() / per_window).max(1);
        for r in (0..enc.rows()).step_by(step) {
            let mut row = enc.row(r).to_vec();
            for v in &mut row {
                if !v.is_finite() {
                    *v = 0.0;
                }
            }
            rows.push(row);
            window_of.push(w);
            targets.push(d.target_at(range.start + r));
        }
    }
    let data = Matrix::from_rows(&rows);
    let mut rng = StdRng::seed_from_u64(6);
    let emb = tsne(
        &data,
        &TsneConfig {
            perplexity: 20.0,
            iterations: 200,
            ..Default::default()
        },
        &mut rng,
    );

    // Six AQI-style buckets from target quantiles.
    let finite: Vec<f64> = targets.iter().copied().filter(|t| t.is_finite()).collect();
    let cuts: Vec<f64> = (1..6)
        .map(|i| oeb_linalg::quantile(&finite, i as f64 / 6.0))
        .collect();
    let categories: Vec<usize> = targets
        .iter()
        .map(|&t| cuts.iter().filter(|&&c| t > c).count())
        .collect();

    let mut t = TextTable::new(vec!["Window", "x", "y", "AQI category"]);
    for i in 0..rows.len().min(40) {
        t.row(vec![
            window_of[i].to_string(),
            format!("{:.2}", emb[(i, 0)]),
            format!("{:.2}", emb[(i, 1)]),
            categories[i].to_string(),
        ]);
    }
    let points: Vec<serde_json::Value> = (0..rows.len())
        .map(|i| {
            json!({
                "window": window_of[i],
                "x": json_f64(emb[(i, 0)]),
                "y": json_f64(emb[(i, 1)]),
                "category": categories[i],
            })
        })
        .collect();
    ExperimentOutput {
        id: "fig6",
        title: "t-SNE visualisation of the air-quality stream per window",
        text: format!(
            "{}... ({} points total; full coordinates in the JSON artifact)\n",
            t.render(),
            rows.len()
        ),
        json: json!({ "points": points }),
    }
}

/// Figure 7: per-window test loss of a decision tree and a neural
/// network on the Tiantan stream, with the HDDDM-flagged drift windows.
pub fn fig7(ctx: &ExpContext) -> ExperimentOutput {
    let entry = case_entry(ctx, "Beijing Multi-Site Air-Quality Tiantan");
    let d = ctx.dataset(&entry, 0);
    let mut cfg = HarnessConfig::default();
    cfg.learner.epochs = 5;
    let runs = run_cases(
        &d,
        &[(Algorithm::NaiveDt, cfg.clone()), (Algorithm::NaiveNn, cfg)],
    );

    // Mark drift windows with HDDDM over the encoded windows.
    let encoder = OneHotEncoder::fit(&d.table, &d.feature_cols());
    let mut hdddm = Hdddm::default();
    let mut drift_windows = Vec::new();
    for (w, range) in d.windows().iter().enumerate() {
        let mut enc = encoder.encode(&d.table, range.clone());
        for v in enc.as_mut_slice() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        if hdddm.update(&enc).is_drift() {
            drift_windows.push(w);
        }
    }

    let mut t = TextTable::new(vec!["Window", "DT loss", "NN loss", "drift?"]);
    for w in 0..shown_windows(&runs) {
        let mut row = vec![(w + 1).to_string()];
        row.extend(
            runs.iter()
                .map(|run| or_na(run, |r| format!("{:.3}", r.per_window_loss[w]))),
        );
        row.push(if drift_windows.contains(&(w + 1)) {
            "*".into()
        } else {
            String::new()
        });
        t.row(row);
    }
    ExperimentOutput {
        id: "fig7",
        title: "Test loss around drift occurrences (DT vs NN)",
        text: t.render(),
        json: json!({
            "dt": curve_json(&runs[0]),
            "nn": curve_json(&runs[1]),
            "drift_windows": drift_windows,
        }),
    }
}

/// Figure 8: per-window anomaly ratios on the five-cities Beijing stream
/// under ECOD and IForest, with the injected flood / haze event windows.
pub fn fig8(ctx: &ExpContext) -> ExperimentOutput {
    let entry = case_entry(ctx, "5 cities PM2.5 (Beijing)");
    let d = ctx.dataset(&entry, 0);
    let windows = d.windows();
    let encoder = OneHotEncoder::fit(&d.table, &d.feature_cols());

    let mut ecod_series = Vec::with_capacity(windows.len());
    let mut iforest_series = Vec::with_capacity(windows.len());
    for (w, range) in windows.iter().enumerate() {
        let mut enc = encoder.encode(&d.table, range.clone());
        for v in enc.as_mut_slice() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        let ecod = Ecod::fit(&enc);
        ecod_series.push(anomaly_ratio(&ecod.score_all(&enc)));
        let forest = IsolationForest::fit(
            &enc,
            &IForestConfig {
                n_trees: 30,
                seed: w as u64,
                ..Default::default()
            },
        );
        iforest_series.push(anomaly_ratio(&forest.score_all(&enc)));
    }

    // Ground-truth event windows from the generator spec.
    let n = d.n_rows() as f64;
    let window_of_frac = |frac: f64| -> usize {
        let row = (frac * n) as usize;
        windows
            .iter()
            .position(|r| r.contains(&row.min(d.n_rows() - 1)))
            .unwrap_or(0)
    };
    let flood_w = window_of_frac(0.42);
    let haze_w = (window_of_frac(0.80), window_of_frac(0.86));

    let mut t = TextTable::new(vec!["Window", "ECOD ratio", "IForest ratio", "event"]);
    for w in 0..windows.len() {
        let event = if w == flood_w {
            "flood"
        } else if w >= haze_w.0 && w <= haze_w.1 {
            "haze"
        } else {
            ""
        };
        t.row(vec![
            w.to_string(),
            format!("{:.3}", ecod_series[w]),
            format!("{:.3}", iforest_series[w]),
            event.to_string(),
        ]);
    }
    ExperimentOutput {
        id: "fig8",
        title: "Detected anomalies around the flood and haze events",
        text: t.render(),
        json: json!({
            "ecod": json_series(&ecod_series),
            "iforest": json_series(&iforest_series),
            "flood_window": flood_w,
            "haze_windows": [haze_w.0, haze_w.1],
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExpContext {
        ExpContext {
            scale: 0.02,
            seeds: vec![0],
        }
    }

    #[test]
    fn fig4_shows_incremental_feature() {
        let out = fig4(&tiny_ctx());
        let series = out.json["feature0_valid_ratio"].as_array().unwrap();
        // The first windows have ~0 valid ratio (sensor not installed),
        // later windows are mostly valid.
        let first = series[0].as_f64().unwrap();
        let last = series[series.len() - 1].as_f64().unwrap();
        assert!(first < 0.1, "first window valid ratio {first}");
        assert!(last > 0.5, "last window valid ratio {last}");
    }

    #[test]
    fn fig7_produces_aligned_series() {
        let out = fig7(&tiny_ctx());
        let dt = out.json["dt"].as_array().unwrap();
        let nn = out.json["nn"].as_array().unwrap();
        assert_eq!(dt.len(), nn.len());
        assert!(!dt.is_empty());
    }

    #[test]
    fn a_run_that_does_not_complete_shows_na() {
        let ctx = tiny_ctx();
        let d = ctx.dataset(
            &case_entry(&ctx, "Beijing Multi-Site Air-Quality Tiantan"),
            0,
        );
        let mut cut = HarnessConfig::default();
        cut.supervise.max_windows = Some(1);
        let runs = run_cases(
            &d,
            &[
                (Algorithm::NaiveDt, HarnessConfig::default()),
                (Algorithm::NaiveDt, cut),
            ],
        );
        let done = runs[0].as_ref().expect("the unbudgeted run completes");
        assert!(runs[1].is_none(), "the one-window budget times the run out");
        assert_eq!(shown_windows(&runs), done.per_window_loss.len());
        assert_eq!(or_na(&runs[1], |r| r.mean_loss.to_string()), "N/A");
        assert!(curve_json(&runs[1]).is_null());
    }

    #[test]
    fn fig8_flags_the_flood_window() {
        // The 3-sigma rule needs enough rows per window for the flood
        // spike to sit in the far tail: rank-based ECOD scores over a
        // 14-row window (scale 0.02) cap out near z = 1.5, so the flood
        // is only separable once windows reach ~70 rows.
        let out = fig8(&ExpContext {
            scale: 0.1,
            seeds: vec![0],
        });
        let series = |key: &str| -> Vec<f64> {
            out.json[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap_or(0.0))
                .collect()
        };
        let ecod = series("ecod");
        let iforest = series("iforest");
        let flood = out.json["flood_window"].as_u64().unwrap() as usize;
        // At least one of the two detectors flags samples in the flood
        // window (the spike rows are a small fraction of their window, so
        // the 3-sigma rule can isolate them).
        assert!(
            ecod[flood] > 0.0 || iforest[flood] > 0.0,
            "neither detector flagged the flood window: ecod {} iforest {}",
            ecod[flood],
            iforest[flood]
        );
    }
}
