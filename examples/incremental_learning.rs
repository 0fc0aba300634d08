//! Truly incremental learning: Hoeffding trees and the Adaptive Random
//! Forest evaluated with item-level prequential accuracy (the MOA-style
//! protocol of the paper's §3.2), plus the drift-triggered retraining
//! extension the paper suggests in §2.2.
//!
//! ```text
//! cargo run --release --example incremental_learning
//! ```

use oebench::core::extend::DriftResetLearner;
use oebench::core::{prequential_dataset, Algorithm, LearnerConfig, StreamLearner};
use oebench::linalg::Matrix;
use oebench::tree::{AdaptiveRandomForest, ArfConfig, HoeffdingConfig, HoeffdingTree};

fn main() {
    let entry = oebench::synth::by_name("INSECTS-Abrupt (balanced)").expect("registry dataset");
    let spec = entry.spec.scaled(0.2);
    let dataset = oebench::synth::generate(&spec, 0);
    let n_classes = match dataset.task {
        oebench::tabular::Task::Classification { n_classes } => n_classes,
        _ => unreachable!("INSECTS is classification"),
    };
    println!(
        "dataset: {} — {} items, {} classes, abrupt drifts at 25/50/75%\n",
        dataset.name,
        dataset.n_rows(),
        n_classes
    );

    // Item-level prequential accuracy: test each item, then train on it.
    let mut hoeffding =
        HoeffdingTree::new(dataset.n_features(), n_classes, HoeffdingConfig::default());
    let ht = prequential_dataset(&mut hoeffding, &dataset, dataset.n_rows() / 10)
        .expect("INSECTS is classification");
    println!(
        "Hoeffding tree  — prequential accuracy {:.3} ({} nodes)",
        ht.accuracy,
        hoeffding.n_nodes()
    );

    let mut arf = AdaptiveRandomForest::new(dataset.n_features(), n_classes, ArfConfig::default());
    let arf_result = prequential_dataset(&mut arf, &dataset, dataset.n_rows() / 10)
        .expect("INSECTS is classification");
    println!(
        "ARF (5 trees)   — prequential accuracy {:.3} ({} drift resets)",
        arf_result.accuracy, arf.n_resets
    );
    println!("\nrunning accuracy over the stream (10 checkpoints):");
    let fmt = |c: &[f64]| {
        c.iter()
            .map(|a| format!("{a:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  Hoeffding: {}", fmt(&ht.accuracy_curve));
    println!("  ARF:       {}", fmt(&arf_result.accuracy_curve));

    // The §2.2 suggestion: wrap a window learner with drift-triggered
    // retraining and feed it windows manually.
    let mut wrapped = DriftResetLearner::new(
        Algorithm::NaiveDt,
        dataset.task,
        dataset.n_features(),
        LearnerConfig::default(),
    )
    .expect("classification");
    for range in dataset.windows() {
        let rows: Vec<Vec<f64>> = range
            .clone()
            .map(|r| {
                dataset
                    .table
                    .numeric_row(r)
                    .iter()
                    .take(dataset.n_features())
                    .map(|&v| if v.is_finite() { v } else { 0.0 })
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = range.clone().map(|r| dataset.target_at(r)).collect();
        wrapped.train_window(&Matrix::from_rows(&rows), &ys);
    }
    println!(
        "\nDriftReset[Naive-DT] retrained {} time(s) across the stream's regime switches",
        wrapped.n_resets
    );
}
