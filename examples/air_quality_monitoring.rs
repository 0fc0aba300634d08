//! Air-quality monitoring: the paper's motivating regression scenario.
//!
//! An environmental sensor network predicts PM2.5 from meteorological
//! features. Sensors appear, drop out and miss readings (incremental /
//! decremental feature space), and the seasons drive recurrent
//! distribution drift. This example:
//!
//! 1. inspects the evolving feature space window by window (Figure 4);
//! 2. compares the four missing-value imputers (Figure 14);
//! 3. shows the drift impact by comparing against a shuffled stream
//!    (Figure 15).
//!
//! ```text
//! cargo run --release --example air_quality_monitoring
//! ```

use oebench::prelude::*;

fn main() {
    let entry = oebench::synth::selected("AIR").expect("registry dataset");
    let spec = entry.spec.scaled(0.1);
    let dataset = oebench::synth::generate(&spec, 0);
    println!(
        "dataset: {} — {} rows, {} windows, {:.1}% empty cells",
        dataset.name,
        dataset.n_rows(),
        dataset.windows().len(),
        dataset.table.missing_stats().empty_cells * 100.0
    );

    // 1. The evolving feature space: valid-value ratio per window for the
    //    sensor that comes online mid-stream.
    println!("\nsensor 0 valid-value ratio per window (it appears mid-stream):");
    let ratios: Vec<String> = dataset
        .windows()
        .iter()
        .map(|range| {
            let col = dataset.table.column(0).slice(range.clone());
            format!("{:.2}", 1.0 - col.missing_ratio())
        })
        .collect();
    println!("  {}", ratios.join(" "));

    // 2. Imputer comparison on a neural network (the paper's Figure 14
    //    finding: KNN and regression imputers beat mean/zero filling).
    println!("\nimputer comparison (Naive-NN mean MSE):");
    for imputer in [
        ImputerChoice::Knn(2),
        ImputerChoice::Knn(20),
        ImputerChoice::Regression,
        ImputerChoice::Mean,
        ImputerChoice::Zero,
    ] {
        let cfg = HarnessConfig {
            imputer,
            ..Default::default()
        };
        let result = try_run_stream(&dataset, Algorithm::NaiveNn, &cfg).expect("NN applies");
        println!("  {:<12} {:.3}", imputer.name(), result.mean_loss);
    }

    // 3. Drift impact: the same stream shuffled loses its temporal
    //    structure, so the learner faces no drift.
    let drift = try_run_stream(&dataset, Algorithm::NaiveNn, &HarnessConfig::default()).unwrap();
    let no_drift = try_run_stream(
        &dataset,
        Algorithm::NaiveNn,
        &HarnessConfig {
            shuffle: true,
            ..Default::default()
        },
    )
    .unwrap();
    println!(
        "\ndrift vs no-drift (shuffled): MSE {:.3} vs {:.3}",
        drift.mean_loss, no_drift.mean_loss
    );
    let spread = |r: &RunResult| -> f64 {
        let max = r.per_window_loss.iter().copied().fold(0.0f64, f64::max);
        max - oebench::linalg::mean(&r.per_window_loss)
    };
    println!(
        "loss-spike spread (max - mean): drift {:.3}, shuffled {:.3}",
        spread(&drift),
        spread(&no_drift)
    );
}
