//! Quickstart: generate a drifting relational stream from the registry,
//! evaluate two stream learners prequentially, and print the per-window
//! losses.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use oebench::prelude::*;

fn main() {
    // Pick the ELECTRICITY stream (one of the paper's five representative
    // datasets) at 10% scale so the example runs in seconds.
    let entry = oebench::synth::selected("ELECTRICITY").expect("registry dataset");
    let spec = entry.spec.scaled(0.1);
    let dataset = oebench::synth::generate(&spec, 0);
    println!(
        "dataset: {} — {} rows, {} features, {} windows",
        dataset.name,
        dataset.n_rows(),
        dataset.n_features(),
        dataset.windows().len()
    );

    // The prequential protocol: each window is tested before it is
    // trained on; the reported loss is the mean over windows.
    for algorithm in [Algorithm::NaiveDt, Algorithm::NaiveNn] {
        let result = try_run_stream(&dataset, algorithm, &HarnessConfig::default())
            .expect("classification supports both algorithms");
        println!(
            "\n{:<10} mean error {:.3}  ({:.0} items/s, {:.1} KB model)",
            result.algorithm,
            result.mean_loss,
            result.throughput,
            result.memory_bytes as f64 / 1024.0
        );
        let curve: Vec<String> = result
            .per_window_loss
            .iter()
            .map(|l| format!("{l:.2}"))
            .collect();
        println!("per-window error: {}", curve.join(" "));
    }

    // What would the paper's Figure 9 recommend for this stream?
    let recs = recommend(&Scenario {
        classification: true,
        drift: Level::MediumHigh,
        anomaly: Level::MediumHigh,
        missing: Level::Low,
        resource_constrained: false,
    });
    let names: Vec<&str> = recs.iter().map(|a| a.name()).collect();
    println!("\nrecommended for this scenario: {}", names.join(", "));
}
