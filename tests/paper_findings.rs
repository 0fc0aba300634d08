//! Integration tests encoding the paper's qualitative findings — the
//! "shape" a faithful reproduction must preserve, independent of
//! absolute numbers.

use oebench::prelude::*;

/// §5.3 / Finding (6): outliers and the absurd corrupt cell
/// (precipitation 999,990) hit the neural network far harder than the
/// decision tree. The raw training-explosion mechanism is pinned down by
/// `oeb_nn::mlp` unit tests (`outlier_input_can_explode_regression_loss`);
/// here we assert the stream-level shape: the tree's mean loss stays
/// finite, and the NN's worst-window spike (relative to its median
/// window) exceeds the tree's.
#[test]
fn outlier_events_hit_nn_harder_than_dt() {
    let reg = oebench::synth::registry_scaled(0.05);
    let entry = reg
        .iter()
        .find(|e| e.spec.name == "5 cities PM2.5 (Beijing)")
        .unwrap();
    let dataset = oebench::synth::generate(&entry.spec, 0);

    let dt = try_run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
    assert!(
        dt.mean_loss.is_finite(),
        "DT should survive the corrupt cell"
    );

    let nn = try_run_stream(&dataset, Algorithm::NaiveNn, &HarnessConfig::default()).unwrap();
    let spike_ratio = |r: &RunResult| -> f64 {
        let finite: Vec<f64> = r
            .per_window_loss
            .iter()
            .copied()
            .filter(|l| l.is_finite())
            .collect();
        let median = oebench::linalg::quantile(&finite, 0.5).max(1e-9);
        let max = r.per_window_loss.iter().copied().fold(0.0f64, |a, b| {
            if b.is_finite() {
                a.max(b)
            } else {
                f64::INFINITY
            }
        });
        max / median
    };
    let nn_spike = spike_ratio(&nn);
    let dt_spike = spike_ratio(&dt);
    assert!(
        nn_spike > dt_spike,
        "NN spike ratio {nn_spike} should exceed DT spike ratio {dt_spike}"
    );
}

/// §6.4.1 / Finding (2): more local epochs generally reduce loss.
#[test]
fn more_epochs_improve_effectiveness() {
    let reg = oebench::synth::registry_scaled(0.05);
    let entry = reg
        .iter()
        .find(|e| e.spec.name == "Power Consumption of Tetouan City")
        .unwrap();
    let dataset = oebench::synth::generate(&entry.spec, 0);

    let loss_at = |epochs: usize| {
        let mut cfg = HarnessConfig::default();
        cfg.learner.epochs = epochs;
        try_run_stream(&dataset, Algorithm::NaiveNn, &cfg)
            .unwrap()
            .mean_loss
    };
    let one = loss_at(1);
    let ten = loss_at(10);
    assert!(ten < one, "10 epochs {ten} should beat 1 epoch {one}");
}

/// §6.7 / Finding (5): drifted streams produce loss spikes that the
/// shuffled (no-drift) version of the same stream does not show.
#[test]
fn shuffling_removes_drift_spikes() {
    let reg = oebench::synth::registry_scaled(0.05);
    let entry = reg
        .iter()
        .find(|e| e.spec.name == "Power Consumption of Tetouan City")
        .unwrap();
    let dataset = oebench::synth::generate(&entry.spec, 0);

    let drift = try_run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
    let shuffled = try_run_stream(
        &dataset,
        Algorithm::NaiveDt,
        &HarnessConfig {
            shuffle: true,
            ..Default::default()
        },
    )
    .unwrap();
    // Window-to-window variability collapses once temporal structure is
    // destroyed.
    let spread = |r: &RunResult| oebench::linalg::std_dev(&r.per_window_loss);
    assert!(
        spread(&drift) > spread(&shuffled),
        "drift spread {} <= shuffled spread {}",
        spread(&drift),
        spread(&shuffled)
    );
    assert!(shuffled.mean_loss < drift.mean_loss);
}

/// §5.2: training on all history under drift can be worse than training
/// on recent windows only — old data from a different regime misleads.
#[test]
fn recent_data_beats_all_history_under_drift() {
    use oebench::linalg::Matrix;
    use oebench::preprocess::{Imputer, KnnImputer, OneHotEncoder, StandardScaler};
    use oebench::tree::{DecisionTree, TreeConfig, TreeTask};

    // A regression stream with one abrupt regime switch at 50% of the
    // stream (mirroring the paper's Tiantan experiment, where the drift
    // sits around window 7 of 12).
    let spec = oebench::synth::StreamSpec {
        name: "abrupt-regression".into(),
        domain: Domain::Power,
        n_rows: 4000,
        n_numeric: 8,
        categorical: vec![],
        task: oebench::synth::TaskSpec::Regression { noise: 0.1 },
        drift_pattern: oebench::synth::DriftPattern::Abrupt {
            breaks: [0.5, 0.0, 0.0],
            n_breaks: 1,
        },
        drift_level: Level::High,
        anomaly_level: Level::Low,
        anomaly_events: vec![],
        missing_level: Level::Low,
        availability: vec![],
        seasonal_cycles: 0.0,
        default_window: 200,
        seed: 99,
    };
    let dataset = oebench::synth::generate(&spec, 0);
    let windows = dataset.windows();
    assert!(windows.len() >= 14);
    let encoder = OneHotEncoder::fit(&dataset.table, &dataset.feature_cols());

    let prepare = |range: std::ops::Range<usize>| -> (Matrix, Vec<f64>) {
        let mut m = encoder.encode(&dataset.table, range.clone());
        let reference = m.clone();
        KnnImputer { k: 2 }.impute(&mut m, &reference);
        let ys: Vec<f64> = range.map(|r| dataset.target_at(r)).collect();
        (m, ys)
    };

    // The break sits at window 10 of 20. Train on (a) all of windows
    // 0..=12 (mixing both regimes) vs (b) windows 10..=12 only (the new
    // regime); test on window 13.
    let k = 12;
    let (all_x, all_y) = prepare(windows[0].start..windows[k].end);
    let (recent_x, recent_y) = prepare(windows[10].start..windows[k].end);
    let (test_x, test_y) = prepare(windows[k + 1].clone());
    let scaler = StandardScaler::fit(&recent_x);

    let mse = |train_x: &Matrix, train_y: &[f64]| -> f64 {
        let mut tx = train_x.clone();
        scaler.transform(&mut tx);
        let tree = DecisionTree::fit(&tx, train_y, TreeTask::Regression, &TreeConfig::default());
        let mut ex = test_x.clone();
        scaler.transform(&mut ex);
        (0..ex.rows())
            .map(|r| (tree.predict(ex.row(r)) - test_y[r]).powi(2))
            .sum::<f64>()
            / ex.rows() as f64
    };
    let loss_all = mse(&all_x, &all_y);
    let loss_recent = mse(&recent_x, &recent_y);
    assert!(
        loss_recent < loss_all,
        "recent-window training {loss_recent} should beat all-history {loss_all} under drift"
    );
}
