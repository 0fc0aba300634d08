//! The headline result tables: Table 4 (test loss of all ten algorithms
//! on the five representative datasets), Table 5 (throughput), Table 6
//! (memory), Table 9 (the full 55-dataset sweep) and Figure 9 (the
//! recommendation decision tree).

use super::datasets::level_labels;
use super::{json_f64, ExpContext, ExperimentOutput};
use crate::harness::{HarnessConfig, RunResult};
use crate::learners::Algorithm;
use crate::recommend::render_tree;
use crate::report::{fmt_summary, TextTable};
use crate::stats::OeStats;
use crate::sweep::{run_grid, RunOutcome};
use oeb_synth::DatasetEntry;
use parking_lot::Mutex;
use serde_json::json;
use std::collections::HashMap;
use std::sync::Arc;

/// One `(dataset, algorithm, variant)` cell of a result matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Name of the harness-config variant (`default` for the tables).
    pub variant: String,
    /// `(mean, std)` of the mean loss over the seeds whose loss is valid;
    /// `None` = N/A.
    pub summary: Option<(f64, f64)>,
    /// Mean throughput (items/s) over the seeds whose run completed.
    pub throughput: f64,
    /// Mean peak memory (KB) over the seeds whose run completed.
    pub memory_kb: f64,
    /// Mean training wall-clock seconds over the seeds whose run
    /// completed.
    pub train_seconds: f64,
}

/// The one variant the result tables run: the default harness config.
pub(super) fn default_variant() -> Vec<(String, HarnessConfig)> {
    vec![("default".to_string(), HarnessConfig::default())]
}

/// The experiment grid: runs every (dataset, variant, seed, algorithm)
/// combination under the prequential harness and folds the seeds into
/// one [`MatrixCell`] per (dataset, algorithm, variant), returned in that
/// order. Every table and figure of §6 that reports a mean over seeds
/// comes from here.
///
/// The runs fan out over the executor with the algorithm innermost, so
/// the learners of one prepared stream run back to back and share it
/// through the prepare cache. Collection is in grid order, so the cells
/// are identical for every worker count. Each run goes through the one
/// grid runner, so a panicking run is a failed outcome, not the end of
/// the process. A run that does not complete (ARF on regression) drops
/// out of the means; a diverged loss drops out of the summary only.
///
/// Results are memoized per (scale, seeds, datasets, algorithms,
/// variants) within the process, so Table 4/5/6 share one grid and
/// Table 10 reuses Figure 10's.
pub fn run_matrix(
    ctx: &ExpContext,
    entries: &[DatasetEntry],
    algorithms: &[Algorithm],
    variants: &[(String, HarnessConfig)],
) -> Arc<Vec<MatrixCell>> {
    static CACHE: Mutex<Option<HashMap<String, Arc<Vec<MatrixCell>>>>> = Mutex::new(None);
    let names: Vec<&str> = entries.iter().map(|e| e.spec.name.as_str()).collect();
    let key = format!(
        "{:.4}|{:?}|{names:?}|{algorithms:?}|{variants:?}",
        ctx.scale, ctx.seeds
    );
    if let Some(cached) = CACHE.lock().get_or_insert_with(HashMap::new).get(&key) {
        return cached.clone();
    }

    // Run `i` is (dataset e, variant v, seed s, algorithm a), row-major.
    let (n_variants, n_seeds, n_algs) = (variants.len(), ctx.seeds.len(), algorithms.len());
    let run_index =
        |e: usize, v: usize, s: usize, a: usize| ((e * n_variants + v) * n_seeds + s) * n_algs + a;
    let n_runs = entries.len() * n_variants * n_seeds * n_algs;
    let threads = crate::executor::resolve_threads(None);
    let runs = run_grid(
        n_runs,
        threads,
        |i| {
            let (a, s) = (i % n_algs, i / n_algs % n_seeds);
            let (v, e) = (
                i / (n_algs * n_seeds) % n_variants,
                i / (n_algs * n_seeds * n_variants),
            );
            let seed = ctx.seeds[s];
            let cfg = HarnessConfig {
                seed,
                ..variants[v].1.clone()
            };
            let dataset = oeb_synth::generate_cached(&entries[e].spec, seed);
            (dataset, algorithms[a], cfg)
        },
        |_, _| {},
    );

    let mut cells = Vec::with_capacity(entries.len() * n_algs * n_variants);
    for (e, entry) in entries.iter().enumerate() {
        for (a, &algorithm) in algorithms.iter().enumerate() {
            for (v, (variant, _)) in variants.iter().enumerate() {
                let done: Vec<&RunResult> = (0..n_seeds)
                    .filter_map(|s| match &runs[run_index(e, v, s, a)] {
                        RunOutcome::Completed(run) => Some(run),
                        _ => None,
                    })
                    .collect();
                let mean_of = |f: fn(&RunResult) -> f64| {
                    if done.is_empty() {
                        0.0
                    } else {
                        done.iter().map(|r| f(r)).sum::<f64>() / done.len() as f64
                    }
                };
                let losses: Vec<f64> = done
                    .iter()
                    .filter(|r| r.is_valid())
                    .map(|r| r.mean_loss)
                    .collect();
                cells.push(MatrixCell {
                    dataset: entry.spec.name.clone(),
                    algorithm,
                    variant: variant.clone(),
                    summary: (!losses.is_empty())
                        .then(|| (oeb_linalg::mean(&losses), oeb_linalg::std_dev(&losses))),
                    throughput: mean_of(|r| r.throughput),
                    memory_kb: mean_of(|r| r.memory_bytes as f64) / 1024.0,
                    train_seconds: mean_of(|r| r.train_seconds),
                });
            }
        }
    }
    let arc = Arc::new(cells);
    CACHE
        .lock()
        .get_or_insert_with(HashMap::new)
        .insert(key, arc.clone());
    arc
}

pub(super) fn short_name(entry: &DatasetEntry) -> String {
    entry
        .selected
        .map(str::to_string)
        .unwrap_or_else(|| entry.spec.name.clone())
}

fn matrix_table(
    entries: &[DatasetEntry],
    algorithms: &[Algorithm],
    cells: &[MatrixCell],
    value_of: impl Fn(&MatrixCell) -> String,
) -> TextTable {
    let mut headers = vec!["Dataset".to_string()];
    headers.extend(algorithms.iter().map(|a| a.name().to_string()));
    let mut t = TextTable::new(headers);
    // One variant, so each dataset's algorithms are consecutive cells.
    for (entry, row) in entries.iter().zip(cells.chunks(algorithms.len())) {
        let mut line = vec![short_name(entry)];
        line.extend(row.iter().map(&value_of));
        t.row(line);
    }
    t
}

fn matrix_json(cells: &[MatrixCell]) -> serde_json::Value {
    serde_json::Value::Array(
        cells
            .iter()
            .map(|c| {
                json!({
                    "dataset": c.dataset,
                    "algorithm": c.algorithm.name(),
                    "loss_mean": c.summary.map(|(m, _)| json_f64(m)),
                    "loss_std": c.summary.map(|(_, s)| json_f64(s)),
                    "throughput": json_f64(c.throughput),
                    "memory_kb": json_f64(c.memory_kb),
                })
            })
            .collect(),
    )
}

/// Table 4: test loss / error of the ten algorithms on the five
/// representative datasets (mean ± std over the context seeds).
pub fn table4(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let algorithms = Algorithm::all();
    let cells = run_matrix(ctx, &entries, &algorithms, &default_variant());
    let t = matrix_table(&entries, &algorithms, &cells, |c| fmt_summary(c.summary));
    ExperimentOutput {
        id: "table4",
        title: "Test loss / error of stream learning algorithms (5 selected datasets)",
        text: t.render(),
        json: json!({ "cells": matrix_json(&cells) }),
    }
}

/// Table 5: throughput (items/s) of the algorithms on the five selected
/// datasets.
pub fn table5(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let algorithms = Algorithm::all();
    let cells = run_matrix(ctx, &entries, &algorithms, &default_variant());
    let t = matrix_table(&entries, &algorithms, &cells, |c| {
        if c.throughput > 0.0 {
            format!("{:.0}", c.throughput)
        } else {
            "N/A".into()
        }
    });
    ExperimentOutput {
        id: "table5",
        title: "Throughput (items/s) of stream learning algorithms",
        text: t.render(),
        json: json!({ "cells": matrix_json(&cells) }),
    }
}

/// Table 6: peak model memory (KB) of the algorithms on the five
/// selected datasets.
pub fn table6(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let algorithms = Algorithm::all();
    let cells = run_matrix(ctx, &entries, &algorithms, &default_variant());
    let t = matrix_table(&entries, &algorithms, &cells, |c| {
        if c.memory_kb > 0.0 {
            format!("{:.1}", c.memory_kb)
        } else {
            "N/A".into()
        }
    });
    ExperimentOutput {
        id: "table6",
        title: "Memory consumption (KB) of stream learning algorithms",
        text: t.render(),
        json: json!({ "cells": matrix_json(&cells) }),
    }
}

/// Table 9: the appendix sweep over all 55 datasets and the nine
/// algorithm columns the paper reports there (ARF excluded).
pub fn table9(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.registry();
    let algorithms: Vec<Algorithm> = Algorithm::all()
        .into_iter()
        .filter(|a| *a != Algorithm::Arf)
        .collect();
    let cells = run_matrix(ctx, &entries, &algorithms, &default_variant());
    let t = matrix_table(&entries, &algorithms, &cells, |c| fmt_summary(c.summary));

    // Per-dataset winner counts, the evidence for "no silver bullet".
    // Every algorithm within 2% of the dataset's best loss counts as a
    // co-winner — declaring a single winner over a 0.296-vs-0.300 gap
    // would overstate how decisive the differences are.
    let mut wins: HashMap<&'static str, usize> = HashMap::new();
    for row in cells.chunks(algorithms.len()) {
        let scored: Vec<(Algorithm, f64)> = row
            .iter()
            .filter_map(|c| c.summary.map(|(m, _)| (c.algorithm, m)))
            .collect();
        let Some(best) = scored
            .iter()
            .map(|&(_, m)| m)
            .min_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
        else {
            continue;
        };
        for (alg, m) in scored {
            if m <= best * 1.02 + 1e-9 {
                *wins.entry(alg.name()).or_default() += 1;
            }
        }
    }
    let mut win_rows: Vec<(&str, usize)> = wins.iter().map(|(k, v)| (*k, *v)).collect();
    // Total sort key: `Reverse(count)` alone would leave co-winners with
    // equal counts in HashMap iteration order, which varies run to run.
    win_rows.sort_by_key(|&(name, n)| (std::cmp::Reverse(n), name));
    let mut wins_text =
        String::from("\nCo-winner counts (within 2% of each dataset's best; no silver bullet):\n");
    for (alg, n) in &win_rows {
        wins_text.push_str(&format!("  {alg}: {n}\n"));
    }

    ExperimentOutput {
        id: "table9",
        title: "Test loss / error on all 55 datasets",
        text: format!("{}{}", t.render(), wins_text),
        json: json!({
            "cells": matrix_json(&cells),
            "wins": win_rows.iter().map(|(a, n)| json!({"algorithm": a, "wins": n})).collect::<Vec<_>>(),
        }),
    }
}

/// Figure 9: the recommendation decision tree, plus the concrete
/// recommendation for each dataset's measured scenario.
pub fn fig9(ctx: &ExpContext, stats: &[OeStats]) -> ExperimentOutput {
    let registry = ctx.registry();
    let (drift, anomaly, missing) = level_labels(stats);
    let level_of = |label: &str| match label {
        "Low" => oeb_synth::Level::Low,
        "Medium low" => oeb_synth::Level::MediumLow,
        "Medium high" => oeb_synth::Level::MediumHigh,
        _ => oeb_synth::Level::High,
    };
    let mut t = TextTable::new(vec![
        "Dataset",
        "Task",
        "Drift",
        "Anomaly",
        "Missing",
        "Recommended",
    ]);
    let mut rows_json = Vec::new();
    for (i, e) in registry.iter().enumerate() {
        let scenario = crate::recommend::Scenario {
            classification: e.is_classification(),
            drift: level_of(drift[i]),
            anomaly: level_of(anomaly[i]),
            missing: level_of(missing[i]),
            resource_constrained: false,
        };
        let recs = crate::recommend::recommend(&scenario);
        let names: Vec<&str> = recs.iter().map(|a| a.name()).collect();
        t.row(vec![
            e.spec.name.clone(),
            if e.is_classification() { "clf" } else { "reg" }.to_string(),
            drift[i].to_string(),
            anomaly[i].to_string(),
            missing[i].to_string(),
            names.join(", "),
        ]);
        rows_json.push(json!({
            "dataset": e.spec.name,
            "drift": drift[i], "anomaly": anomaly[i], "missing": missing[i],
            "recommended": names,
        }));
    }
    ExperimentOutput {
        id: "fig9",
        title: "Recommended algorithms per open-environment scenario",
        text: format!("{}\n{}", render_tree(), t.render()),
        json: json!({ "recommendations": rows_json }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::try_run_stream;

    fn tiny_ctx() -> ExpContext {
        ExpContext {
            scale: 0.02,
            seeds: vec![0],
        }
    }

    #[test]
    fn table4_has_50_cells_with_two_na() {
        let out = table4(&tiny_ctx());
        let cells = out.json["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 50);
        // ARF on the two regression datasets (AIR, POWER) is N/A.
        let na = cells
            .iter()
            .filter(|c| c["algorithm"] == "ARF" && c["loss_mean"].is_null())
            .count();
        assert_eq!(na, 2);
    }

    #[test]
    fn run_matrix_is_memoized() {
        let ctx = tiny_ctx();
        let entries = ctx.selected_five();
        let a = run_matrix(&ctx, &entries, &Algorithm::all(), &default_variant());
        let b = run_matrix(&ctx, &entries, &Algorithm::all(), &default_variant());
        assert!(Arc::ptr_eq(&a, &b), "second call should hit the cache");
        // The key names the learners, not their count.
        let one = &entries[..1];
        let dt = run_matrix(&ctx, one, &[Algorithm::NaiveDt], &default_variant());
        let nn = run_matrix(&ctx, one, &[Algorithm::NaiveNn], &default_variant());
        assert_eq!(dt[0].algorithm, Algorithm::NaiveDt);
        assert_eq!(nn[0].algorithm, Algorithm::NaiveNn);
    }

    #[test]
    fn run_matrix_folds_seeds_in_dataset_learner_variant_order() {
        let ctx = ExpContext {
            scale: 0.02,
            seeds: vec![0, 1],
        };
        // One classification and one regression stream.
        let entries: Vec<DatasetEntry> = ctx
            .selected_five()
            .into_iter()
            .filter(|e| matches!(e.selected, Some("ELECTRICITY" | "POWER")))
            .collect();
        assert!(entries[0].is_classification() && !entries[1].is_classification());
        let algorithms = [Algorithm::NaiveDt, Algorithm::Arf];
        let halved = HarnessConfig {
            window_factor: 0.5,
            ..Default::default()
        };
        let variants = [default_variant(), vec![("window x0.5".into(), halved)]].concat();
        let cells = run_matrix(&ctx, &entries, &algorithms, &variants);
        let mut expected = Vec::new();
        for entry in &entries {
            for alg in algorithms {
                for variant in &variants {
                    expected.push((entry, alg, variant));
                }
            }
        }
        assert_eq!(cells.len(), expected.len());
        for (cell, (entry, alg, (variant, cfg))) in cells.iter().zip(expected) {
            let coords = (&entry.spec.name, alg, variant);
            assert_eq!((&cell.dataset, cell.algorithm, &cell.variant), coords);
            // The valid losses of the seeds, run one at a time.
            let losses: Vec<f64> = ctx
                .seeds
                .iter()
                .filter_map(|&seed| {
                    let d = oeb_synth::generate_cached(&entry.spec, seed);
                    let cfg = HarnessConfig {
                        seed,
                        ..cfg.clone()
                    };
                    try_run_stream(&d, alg, &cfg).ok()
                })
                .filter(RunResult::is_valid)
                .map(|r| r.mean_loss)
                .collect();
            if alg == Algorithm::Arf && !entry.is_classification() {
                assert!(losses.is_empty() && cell.summary.is_none(), "{coords:?}");
                continue;
            }
            let (mean, std) = cell.summary.expect("valid seeds give a summary");
            assert_eq!(mean.to_bits(), oeb_linalg::mean(&losses).to_bits());
            assert_eq!(std.to_bits(), oeb_linalg::std_dev(&losses).to_bits());
        }
    }

    #[test]
    fn trees_dominate_nn_throughput() {
        let ctx = tiny_ctx();
        let entries = ctx.selected_five();
        let cells = run_matrix(&ctx, &entries, &Algorithm::all(), &default_variant());
        let mean_tp = |alg: Algorithm| {
            let v: Vec<f64> = cells
                .iter()
                .filter(|c| c.algorithm == alg && c.throughput > 0.0)
                .map(|c| c.throughput)
                .collect();
            oeb_linalg::mean(&v)
        };
        // The paper's Table 5 ordering: DT >> NN. (The full DT >> ARF gap
        // also holds, but only at realistic scales — window sizes at this
        // test's 2% scale are too small for wall-clock comparisons, so
        // that ordering is verified by the `repro table5` run instead.)
        assert!(mean_tp(Algorithm::NaiveDt) > mean_tp(Algorithm::NaiveNn));
    }

    #[test]
    fn nn_memory_is_constant_and_trees_small() {
        let ctx = tiny_ctx();
        let entries = ctx.selected_five();
        let cells = run_matrix(&ctx, &entries, &Algorithm::all(), &default_variant());
        let nn: Vec<f64> = cells
            .iter()
            .filter(|c| c.algorithm == Algorithm::NaiveNn)
            .map(|c| c.memory_kb)
            .collect();
        // NN model size varies only with input width, not dataset length.
        assert!(nn.iter().all(|&m| m > 1.0 && m < 200.0));
        let sea_nn = cells
            .iter()
            .find(|c| c.algorithm == Algorithm::SeaNn)
            .unwrap();
        let naive_nn = cells
            .iter()
            .find(|c| c.algorithm == Algorithm::NaiveNn && c.dataset == sea_nn.dataset)
            .unwrap();
        assert!(sea_nn.memory_kb > 2.0 * naive_nn.memory_kb);
    }
}
