//! Outlier events: reproduce the §5.3 case study — the 2012 Beijing
//! flood spike, the 2014–15 haze period, and the absurd corrupt
//! precipitation cell (999,990) that blows up a neural network while a
//! decision tree merely degrades.
//!
//! ```text
//! cargo run --release --example outlier_events
//! ```

use oebench::outlier::{anomaly_ratio, Ecod, IForestConfig, IsolationForest};
use oebench::prelude::*;
use oebench::preprocess::OneHotEncoder;

fn main() {
    let entry = oebench::synth::by_name("5 cities PM2.5 (Beijing)").expect("registry dataset");
    let spec = entry.spec.scaled(0.1);
    let dataset = oebench::synth::generate(&spec, 0);
    let windows = dataset.windows();
    println!(
        "dataset: {} — {} rows, {} windows",
        dataset.name,
        dataset.n_rows(),
        windows.len()
    );
    println!("injected events: flood spike at 42%, haze period 80-86%, corrupt cell at 97.5%\n");

    // Per-window anomaly ratios under both detectors (Figure 8).
    let encoder = OneHotEncoder::fit(&dataset.table, &dataset.feature_cols());
    println!("window  ECOD   IForest");
    for (w, range) in windows.iter().enumerate() {
        let mut enc = encoder.encode(&dataset.table, range.clone());
        for v in enc.as_mut_slice() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        let ecod = anomaly_ratio(&Ecod::fit(&enc).score_all(&enc));
        let iforest = anomaly_ratio(
            &IsolationForest::fit(
                &enc,
                &IForestConfig {
                    n_trees: 30,
                    seed: w as u64,
                    ..Default::default()
                },
            )
            .score_all(&enc),
        );
        println!("{w:>6}  {ecod:<5.3}  {iforest:<5.3}");
    }

    // The corrupt cell: NN vs DT (§5.3's vulnerability finding).
    println!("\ntraining through the corrupt 999,990 cell:");
    let nn = try_run_stream(&dataset, Algorithm::NaiveNn, &HarnessConfig::default()).unwrap();
    let dt = try_run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
    let tail = |r: &RunResult| -> String {
        r.per_window_loss
            .iter()
            .rev()
            .take(4)
            .rev()
            .map(|l| {
                if l.is_finite() {
                    format!("{l:.2}")
                } else {
                    "inf".into()
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  Naive-NN last windows: {} (mean {})",
        tail(&nn),
        if nn.mean_loss.is_finite() {
            format!("{:.3}", nn.mean_loss)
        } else {
            "N/A — exploded".into()
        }
    );
    println!(
        "  Naive-DT last windows: {} (mean {:.3})",
        tail(&dt),
        dt.mean_loss
    );

    // Removing detected outliers before test/train (Figure 16).
    println!("\noutlier removal before test/train (Naive-DT mean MSE):");
    for removal in [
        OutlierRemoval::None,
        OutlierRemoval::Ecod,
        OutlierRemoval::IForest,
    ] {
        let cfg = HarnessConfig {
            outlier_removal: removal,
            ..Default::default()
        };
        let result = try_run_stream(&dataset, Algorithm::NaiveDt, &cfg).unwrap();
        println!("  {removal:<9?} {:.3}", result.mean_loss);
    }
}
