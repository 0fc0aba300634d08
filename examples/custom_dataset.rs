//! Bring your own stream: load a relational stream from CSV, attach the
//! task metadata, extract its open-environment statistics, and get an
//! algorithm recommendation — the paper's "portability" design principle
//! (§4.1) applied to a user dataset.
//!
//! ```text
//! cargo run --release --example custom_dataset
//! ```

use oebench::prelude::*;
use oebench::tabular::read_table;

fn main() {
    // A small in-line CSV standing in for a user's file: an hourly demand
    // stream whose relationship to the features shifts halfway through.
    let mut csv = String::from("hour,temp,humidity,city,demand\n");
    for i in 0..1200 {
        let hour = i % 24;
        let temp = 15.0 + 10.0 * ((i as f64) / 120.0).sin() + (i % 7) as f64 * 0.3;
        let humidity = 60.0 + (i % 13) as f64;
        let city = ["north", "south", "east"][i % 3];
        // Concept drift: the temperature coefficient flips mid-stream.
        let coeff = if i < 600 { 2.0 } else { -2.0 };
        let demand = 100.0 + coeff * temp + 0.2 * humidity + (i % 5) as f64;
        // A few missing humidity readings.
        let humidity_cell = if i % 41 == 0 {
            String::new()
        } else {
            format!("{humidity}")
        };
        csv.push_str(&format!(
            "{hour},{temp:.2},{humidity_cell},{city},{demand:.2}\n"
        ));
    }

    let table = read_table(&csv).expect("valid CSV");
    let target_col = table.schema().index_of("demand").expect("target column");
    let dataset = StreamDataset::new(
        "customer demand stream",
        Domain::Commerce,
        Task::Regression,
        table,
        target_col,
        100, // window size in rows
    );
    println!(
        "loaded: {} — {} rows, {} features ({} windows)",
        dataset.name,
        dataset.n_rows(),
        dataset.n_features(),
        dataset.windows().len()
    );

    // Extract the §4.3 open-environment statistics.
    let stats = extract_stats(&dataset, &StatsConfig::default());
    println!("\nopen-environment statistics:");
    println!("  missing cells      {:.3}", stats.missing_cells);
    println!("  data-drift score   {:.3}", stats.drift_score());
    println!("  concept-drift score {:.3}", stats.concept_score());
    println!("  anomaly score      {:.3}", stats.anomaly_score());

    // Ask the Figure 9 tree what to run.
    let level = |score: f64| {
        if score > 0.3 {
            Level::High
        } else if score > 0.15 {
            Level::MediumHigh
        } else if score > 0.05 {
            Level::MediumLow
        } else {
            Level::Low
        }
    };
    let scenario = Scenario {
        classification: false,
        drift: level((stats.drift_score() + stats.concept_score()) / 2.0),
        anomaly: level(stats.anomaly_score()),
        missing: level(stats.missing_score()),
        resource_constrained: false,
    };
    let recs = recommend(&scenario);
    let names: Vec<&str> = recs.iter().map(|a| a.name()).collect();
    println!("\nrecommended algorithms: {}", names.join(", "));

    // Run the top recommendation prequentially.
    let result = try_run_stream(&dataset, recs[0], &HarnessConfig::default())
        .expect("recommended algorithm applies to the task");
    println!(
        "{} mean MSE over {} windows: {:.3}",
        result.algorithm,
        result.per_window_loss.len(),
        result.mean_loss
    );
}
