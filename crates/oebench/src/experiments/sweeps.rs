//! Hyper-parameter and ablation sweeps: Figures 10–19 and Table 10 of
//! the paper.

use super::main_results::{default_variant, run_matrix, short_name, MatrixCell};
use super::{json_f64, json_series, ExpContext, ExperimentOutput};
use crate::executor::resolve_threads;
use crate::harness::{HarnessConfig, ImputerChoice, OutlierRemoval};
use crate::learners::Algorithm;
use crate::report::{fmt_summary, TextTable};
use crate::sweep::{run_grid, RunOutcome};
use oeb_synth::DatasetEntry;
use serde_json::json;

/// The short name (`ROOM`, `AIR`, ...) of a cell's dataset.
fn cell_short_name(entries: &[DatasetEntry], cell: &MatrixCell) -> String {
    entries
        .iter()
        .find(|e| e.spec.name == cell.dataset)
        .map_or_else(|| cell.dataset.clone(), short_name)
}

/// Renders a [`run_matrix`] grid as `dataset x algorithm` rows with one
/// column per variant.
fn sweep_output(
    id: &'static str,
    title: &'static str,
    entries: &[DatasetEntry],
    variants: &[(String, HarnessConfig)],
    cells: &[MatrixCell],
) -> ExperimentOutput {
    let mut headers = vec!["Dataset".to_string(), "Algorithm".to_string()];
    headers.extend(variants.iter().map(|(name, _)| name.clone()));
    let mut t = TextTable::new(headers);
    // Cells come in (dataset, algorithm, variant) order: one row per
    // (dataset, algorithm), one column per variant.
    for row in cells.chunks(variants.len().max(1)) {
        let mut line = vec![
            cell_short_name(entries, &row[0]),
            row[0].algorithm.name().to_string(),
        ];
        line.extend(row.iter().map(|c| fmt_summary(c.summary)));
        t.row(line);
    }
    let json_cells: Vec<serde_json::Value> = cells
        .iter()
        .map(|c| {
            json!({
                "dataset": cell_short_name(entries, c),
                "algorithm": c.algorithm.name(),
                "variant": c.variant,
                "loss_mean": c.summary.map(|(m, _)| json_f64(m)),
                "loss_std": c.summary.map(|(_, s)| json_f64(s)),
                "train_seconds": json_f64(c.train_seconds),
            })
        })
        .collect();
    ExperimentOutput {
        id,
        title,
        text: t.render(),
        json: json!({ "cells": json_cells }),
    }
}

/// One variant per value: `apply` sets the value on a default config
/// and `name` labels its column.
fn variants_of<T: Clone>(
    values: &[T],
    name: impl Fn(&T) -> String,
    apply: impl Fn(&mut HarnessConfig, T),
) -> Vec<(String, HarnessConfig)> {
    values
        .iter()
        .map(|x| {
            let mut cfg = HarnessConfig::default();
            apply(&mut cfg, x.clone());
            (name(x), cfg)
        })
        .collect()
}

const NN_ALGS: [Algorithm; 5] = [
    Algorithm::NaiveNn,
    Algorithm::Ewc,
    Algorithm::Lwf,
    Algorithm::Icarl,
    Algorithm::SeaNn,
];

/// The epochs axis {1, 5, 10, 20} of Figure 10 and Table 10: one list,
/// so Table 10's NN grid is Figure 10's and the memo serves it.
fn epoch_variants() -> Vec<(String, HarnessConfig)> {
    variants_of(
        &[1usize, 5, 10, 20],
        |e| format!("epochs={e}"),
        |c, e| c.learner.epochs = e,
    )
}

/// Figure 10: number of local epochs {1, 5, 10, 20} for the NN family.
pub fn fig10(ctx: &ExpContext) -> ExperimentOutput {
    let (entries, variants) = (ctx.selected_five(), epoch_variants());
    let cells = run_matrix(ctx, &entries, &NN_ALGS, &variants);
    let title = "Test error / loss vs local epochs per window";
    sweep_output("fig10", title, &entries, &variants, &cells)
}

/// Figure 11: window-size factor {0.25, 0.5, 1, 2, 4} for NN and tree
/// families.
pub fn fig11(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let algs = [
        Algorithm::NaiveNn,
        Algorithm::SeaNn,
        Algorithm::NaiveDt,
        Algorithm::NaiveGbdt,
        Algorithm::SeaDt,
    ];
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0];
    let variants = variants_of(
        &factors,
        |f| format!("window x{f}"),
        |c, f| c.window_factor = f,
    );
    let cells = run_matrix(ctx, &entries, &algs, &variants);
    let title = "Test error / loss vs window size";
    sweep_output("fig11", title, &entries, &variants, &cells)
}

/// Figure 12: batch size {16, 32, 64, 128} for the NN family.
pub fn fig12(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let variants = variants_of(
        &[16usize, 32, 64, 128],
        |b| format!("batch={b}"),
        |c, b| c.learner.batch_size = b,
    );
    let cells = run_matrix(ctx, &entries, &NN_ALGS, &variants);
    let title = "Test error / loss vs batch size";
    sweep_output("fig12", title, &entries, &variants, &cells)
}

/// Figure 13: MLP depth — 3, 5 and 7 hidden layers with the paper's
/// layer widths.
pub fn fig13(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let depths = [
        ("3 layers", vec![32, 16, 8]),
        ("5 layers", vec![32, 32, 16, 16, 8]),
        ("7 layers", vec![32, 32, 32, 16, 16, 16, 8]),
    ];
    let variants = variants_of(
        &depths,
        |(name, _)| name.to_string(),
        |c, (_, hidden)| c.learner.hidden = hidden,
    );
    let algs = [Algorithm::NaiveNn, Algorithm::Icarl, Algorithm::SeaNn];
    let cells = run_matrix(ctx, &entries, &algs, &variants);
    let title = "Test error / loss vs number of hidden layers";
    sweep_output("fig13", title, &entries, &variants, &cells)
}

/// Figure 14: imputation methods on the AIR dataset — KNN with
/// k ∈ {2, 5, 10, 20}, regression, mean, zero.
pub fn fig14(ctx: &ExpContext) -> ExperimentOutput {
    let air: Vec<DatasetEntry> = ctx
        .selected_five()
        .into_iter()
        .filter(|e| e.selected == Some("AIR"))
        .collect();
    let imputers = [
        ImputerChoice::Knn(2),
        ImputerChoice::Knn(5),
        ImputerChoice::Knn(10),
        ImputerChoice::Knn(20),
        ImputerChoice::Regression,
        ImputerChoice::Mean,
        ImputerChoice::Zero,
    ];
    let variants = variants_of(&imputers, ImputerChoice::name, |c, imp| c.imputer = imp);
    let algs = [Algorithm::NaiveNn, Algorithm::NaiveDt, Algorithm::SeaDt];
    let cells = run_matrix(ctx, &air, &algs, &variants);
    let title = "Test loss vs missing-value filling method (AIR)";
    sweep_output("fig14", title, &air, &variants, &cells)
}

/// Figure 15: loss curves with and without drift (shuffled baseline) on
/// ROOM and AIR.
pub fn fig15(ctx: &ExpContext) -> ExperimentOutput {
    let modes = [("drift", false), ("no drift (shuffled)", true)];
    let variants = variants_of(
        &modes,
        |(name, _)| name.to_string(),
        |c, (_, shuffled)| c.shuffle = shuffled,
    );
    curve_experiment(
        ctx,
        "fig15",
        "Loss curves: drift vs shuffled (no drift)",
        &variants,
    )
}

/// Figure 16: loss curves with outlier removal (none / ECOD / IForest)
/// on ROOM and AIR.
pub fn fig16(ctx: &ExpContext) -> ExperimentOutput {
    let removals = [
        ("no removal", OutlierRemoval::None),
        ("ECOD", OutlierRemoval::Ecod),
        ("IForest", OutlierRemoval::IForest),
    ];
    let variants = variants_of(
        &removals,
        |(name, _)| name.to_string(),
        |c, (_, removal)| c.outlier_removal = removal,
    );
    let title = "Loss curves with outlier removal before test/train";
    curve_experiment(ctx, "fig16", title, &variants)
}

/// Shared driver for the ROOM/AIR per-window curve figures (15, 16): one
/// curve per variant per dataset, best-family algorithm per task (DT on
/// the classification stream, NN on the regression stream, as §6.7/6.8
/// plot their best performers).
fn curve_experiment(
    ctx: &ExpContext,
    id: &'static str,
    title: &'static str,
    variants: &[(String, HarnessConfig)],
) -> ExperimentOutput {
    let five = ctx.selected_five();
    let targets: Vec<(&DatasetEntry, Algorithm)> = five
        .iter()
        .filter_map(|e| match e.selected {
            Some("ROOM") => Some((e, Algorithm::NaiveDt)),
            Some("AIR") => Some((e, Algorithm::NaiveNn)),
            _ => None,
        })
        .collect();
    let seed = ctx.seeds.first().copied().unwrap_or(0);
    let n_variants = variants.len();
    let runs = run_grid(
        targets.len() * n_variants,
        resolve_threads(None),
        |i| {
            let (entry, alg) = targets[i / n_variants];
            let dataset = oeb_synth::generate_cached(&entry.spec, seed);
            (dataset, alg, &variants[i % n_variants].1)
        },
        |_, _| {},
    );
    let mut text = String::new();
    let mut json_rows = Vec::new();
    for (i, outcome) in runs.iter().enumerate() {
        let RunOutcome::Completed(run) = outcome else {
            continue;
        };
        let (entry, alg) = targets[i / n_variants];
        let variant = &variants[i % n_variants].0;
        let curve: Vec<String> = run
            .per_window_loss
            .iter()
            .map(|l| {
                if l.is_finite() {
                    format!("{l:.3}")
                } else {
                    "inf".into()
                }
            })
            .collect();
        text.push_str(&format!(
            "{} [{}] {}: mean {:.3}\n  {}\n",
            entry.selected.unwrap_or("?"),
            alg.name(),
            variant,
            run.mean_loss,
            curve.join(" ")
        ));
        json_rows.push(json!({
            "dataset": entry.selected,
            "algorithm": alg.name(),
            "variant": variant,
            "curve": json_series(&run.per_window_loss),
            "mean": json_f64(run.mean_loss),
        }));
    }
    ExperimentOutput {
        id,
        title,
        text,
        json: json!({ "curves": json_rows }),
    }
}

/// Figure 17: regularisation-factor sweep for EWC ({1e2..1e5}) and LwF
/// ({1e-3..10}).
pub fn fig17(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let variants = variants_of(
        &[1e2, 1e3, 1e4, 1e5],
        |l| format!("EWC λ={l:.0e}"),
        |c, l| c.learner.ewc_lambda = l,
    );
    let ewc_cells = run_matrix(ctx, &entries, &[Algorithm::Ewc], &variants);
    let ewc = sweep_output("fig17", "", &entries, &variants, &ewc_cells);

    let lambdas = [0.001, 0.01, 0.1, 1.0, 10.0];
    let variants = variants_of(
        &lambdas,
        |l| format!("LwF λ={l}"),
        |c, l| c.learner.lwf_lambda = l,
    );
    let lwf_cells = run_matrix(ctx, &entries, &[Algorithm::Lwf], &variants);
    let lwf = sweep_output("fig17", "", &entries, &variants, &lwf_cells);

    ExperimentOutput {
        id: "fig17",
        title: "Test error / loss vs regularisation factor (EWC, LwF)",
        text: format!("{}\n{}", ewc.text, lwf.text),
        json: json!({ "ewc": ewc.json["cells"], "lwf": lwf.json["cells"] }),
    }
}

/// Figure 18: iCaRL exemplar-buffer size {20, 50, 100, 200, 500}.
pub fn fig18(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let sizes = [20usize, 50, 100, 200, 500];
    let variants = variants_of(
        &sizes,
        |b| format!("buffer={b}"),
        |c, b| c.learner.buffer_size = b,
    );
    let cells = run_matrix(ctx, &entries, &[Algorithm::Icarl], &variants);
    let title = "Test error / loss vs iCaRL exemplar buffer size";
    sweep_output("fig18", title, &entries, &variants, &cells)
}

/// Figure 19: ensemble size {5, 10, 20, 40} for GBDT and the SEA
/// variants.
pub fn fig19(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let variants = variants_of(
        &[5usize, 10, 20, 40],
        |e| format!("ensemble={e}"),
        |c, e| c.learner.ensemble_size = e,
    );
    let algs = [Algorithm::NaiveGbdt, Algorithm::SeaNn, Algorithm::SeaDt];
    let cells = run_matrix(ctx, &entries, &algs, &variants);
    let title = "Test error / loss vs ensemble size";
    sweep_output("fig19", title, &entries, &variants, &cells)
}

/// Table 10: training wall-clock per epochs setting for the NN family,
/// plus the epoch-independent tree algorithms.
pub fn table10(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let nn_cells = run_matrix(ctx, &entries, &NN_ALGS, &epoch_variants());
    let tree_algs = [
        Algorithm::NaiveDt,
        Algorithm::NaiveGbdt,
        Algorithm::SeaDt,
        Algorithm::SeaGbdt,
        Algorithm::Arf,
    ];
    let tree_cells = run_matrix(ctx, &entries, &tree_algs, &default_variant());

    let mut t = TextTable::new(vec!["Dataset", "Algorithm", "Variant", "Train seconds"]);
    let mut json_rows = Vec::new();
    for c in nn_cells.iter().chain(tree_cells.iter()) {
        let dataset = cell_short_name(&entries, c);
        t.row(vec![
            dataset.clone(),
            c.algorithm.name().to_string(),
            c.variant.clone(),
            format!("{:.3}", c.train_seconds),
        ]);
        json_rows.push(json!({
            "dataset": dataset,
            "algorithm": c.algorithm.name(),
            "variant": c.variant,
            "train_seconds": json_f64(c.train_seconds),
        }));
    }
    ExperimentOutput {
        id: "table10",
        title: "Training time per epochs setting",
        text: t.render(),
        json: json!({ "rows": json_rows }),
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
    fn fig18_sweeps_five_buffer_sizes() {
        let out = fig18(&tiny_ctx());
        let cells = out.json["cells"].as_array().unwrap();
        // 5 datasets x 1 algorithm x 5 variants.
        assert_eq!(cells.len(), 25);
    }

    #[test]
    fn fig15_produces_curves_for_both_modes() {
        let out = fig15(&tiny_ctx());
        let curves = out.json["curves"].as_array().unwrap();
        assert_eq!(curves.len(), 4); // 2 datasets x 2 variants
    }

    #[test]
    fn table10_reports_monotone_nn_time_in_epochs() {
        let out = table10(&tiny_ctx());
        let rows = out.json["rows"].as_array().unwrap();
        let time_of = |variant: &str| -> f64 {
            rows.iter()
                .filter(|r| r["algorithm"] == "Naive-NN" && r["variant"] == variant)
                .map(|r| r["train_seconds"].as_f64().unwrap())
                .sum()
        };
        assert!(time_of("epochs=20") > time_of("epochs=1"));
    }
}
