//! Thread-invariance fuzzing for the statistics extractor: for arbitrary
//! fault plans (NaN bursts, dropped / duplicated / truncated windows,
//! all-missing columns) over a synthetic stream, the statistics must be
//! bit-identical at any executor thread count.
//!
//! Schema violations are the one fault kind held at zero: they change the
//! column count mid-stream, so the damaged frames cannot be reassembled
//! into a single rectangular [`Table`] for the extractor to consume (the
//! harness-level handling of that fault is covered by
//! `fault_injection.rs`).

use oeb_core::{extract_stats, set_default_threads, StatsConfig};
use oeb_faults::{inject_dataset, FaultPlan, WindowFrame};
use oeb_synth::{generate, DriftPattern, Level, StreamSpec, TaskSpec};
use oeb_tabular::{Column, Domain, Field, Schema, StreamDataset, Table, Task};
use proptest::prelude::*;

/// A small drifting regression stream to damage: 6 windows of 50 rows,
/// 3 numeric features, mild ambient missingness.
fn base_dataset(seed: u64) -> StreamDataset {
    let spec = StreamSpec {
        name: "chaos-stats".into(),
        domain: Domain::Others,
        n_rows: 300,
        n_numeric: 3,
        categorical: vec![],
        task: TaskSpec::Regression { noise: 0.1 },
        drift_pattern: DriftPattern::Gradual,
        drift_level: Level::MediumLow,
        anomaly_level: Level::Low,
        anomaly_events: vec![],
        missing_level: Level::MediumLow,
        availability: vec![],
        seasonal_cycles: 0.0,
        default_window: 50,
        seed,
    };
    generate(&spec, seed)
}

/// Every fault kind that preserves the column count, at arbitrary rates.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0..0.3f64,
        0.0..0.05f64,
        0.0..0.2f64,
        0.0..0.2f64,
        0.0..0.2f64,
        0.0..0.2f64,
        0.0..0.25f64,
    )
        .prop_map(
            |(seed, nan, cell, label, drop, dup, trunc, missing)| FaultPlan {
                seed,
                nan_burst: nan,
                cell_corruption: cell,
                label_noise: label,
                drop_window: drop,
                duplicate_window: dup,
                truncate_window: trunc,
                schema_violation: 0.0,
                all_missing_column: missing,
            },
        )
}

/// Reassembles the surviving (damaged) frames into a regression dataset
/// the extractor can window. Returns `None` when the plan destroyed the
/// whole stream.
fn dataset_from_frames(frames: &[WindowFrame], window: usize) -> Option<StreamDataset> {
    let first = frames.first()?;
    let n_features = first.features.cols();
    let mut feature_data: Vec<Vec<f64>> = vec![Vec::new(); n_features];
    let mut targets: Vec<f64> = Vec::new();
    for frame in frames {
        assert_eq!(
            frame.features.cols(),
            n_features,
            "schema violations are disabled, so the column count is stable"
        );
        for r in 0..frame.features.rows() {
            for (c, col) in feature_data.iter_mut().enumerate() {
                col.push(frame.features[(r, c)]);
            }
        }
        targets.extend_from_slice(&frame.targets);
    }
    if targets.is_empty() {
        return None;
    }
    let mut fields: Vec<Field> = (0..n_features)
        .map(|c| Field::numeric(format!("f{c}")))
        .collect();
    fields.push(Field::numeric("target"));
    let mut columns: Vec<Column> = feature_data.into_iter().map(Column::Numeric).collect();
    columns.push(Column::Numeric(targets));
    Some(StreamDataset::new(
        "chaos-stats",
        Domain::Others,
        Task::Regression,
        Table::new(Schema::new(fields), columns),
        n_features,
        window,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 1 thread == 4 threads, bit for bit, on chaos streams. The thread
    /// count sets the width of the detector task list, so agreement
    /// across counts pins every task as independent of scheduling.
    #[test]
    fn chaos_stream_stats_match_at_1_and_4_threads(plan in arb_plan(), seed in 0u64..8) {
        let clean = base_dataset(seed);
        let (frames, _log) = inject_dataset(&clean, &plan, 1.0);
        // Extreme drop rates may legally erase every window; nothing to
        // compare in that case.
        if let Some(damaged) = dataset_from_frames(&frames, clean.default_window) {
            let bits_at = |threads: usize| {
                set_default_threads(Some(threads));
                extract_stats(&damaged, &StatsConfig::default()).field_bits()
            };
            let one = bits_at(1);
            let four = bits_at(4);
            set_default_threads(None);
            for ((name, a), (_, b)) in one.iter().zip(&four) {
                prop_assert_eq!(
                    *a,
                    *b,
                    "field {} differs between 1 thread ({}) and 4 threads ({})",
                    name,
                    f64::from_bits(*a),
                    f64::from_bits(*b)
                );
            }
        }
    }
}
