//! Cross-crate integration: the full OEBench pipeline — registry →
//! generation → statistics extraction → representative selection →
//! prequential evaluation — exercised end to end at small scale.

use oebench::core::set_default_threads;
use oebench::prelude::*;

const SCALE: f64 = 0.02;

/// A slice of the registry, one dataset per domain family.
const SLICE: [&str; 7] = [
    "Electricity Prices",
    "Beijing Multi-Site Air-Quality Shunyi",
    "INSECTS-Abrupt (balanced)",
    "Safe Driver",
    "Power Consumption of Tetouan City",
    "Indian Cities Weather Delhi",
    "Room Occupancy Estimation",
];

fn slice_entries() -> Vec<oebench::synth::DatasetEntry> {
    let entries: Vec<_> = oebench::synth::registry_scaled(SCALE)
        .into_iter()
        .filter(|e| SLICE.contains(&e.spec.name.as_str()))
        .collect();
    assert_eq!(entries.len(), SLICE.len());
    entries
}

#[test]
fn full_pipeline_stats_selection_evaluation() {
    // Stage 1: generate a slice of the registry.
    let entries = slice_entries();

    // Stage 2: extract open-environment statistics for each.
    let stats: Vec<OeStats> = entries
        .iter()
        .map(|e| {
            extract_stats(
                &oebench::synth::generate(&e.spec, 0),
                &StatsConfig::default(),
            )
        })
        .collect();
    for s in &stats {
        assert!(s.n_windows >= 2, "{} has too few windows", s.name);
        assert!(s.missing_cells >= 0.0 && s.missing_cells <= 1.0);
    }

    // Stage 3: cluster and select representatives.
    let selection = select_representatives(&stats, 3, 7);
    assert_eq!(selection.representatives.len(), 3);

    // Stage 4: evaluate a learner on each representative, prequentially.
    for &rep in &selection.representatives {
        let dataset = oebench::synth::generate(&entries[rep].spec, 0);
        let result = run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default())
            .expect("DT applies to both tasks");
        assert!(
            result.mean_loss.is_finite(),
            "{} diverged under DT",
            dataset.name
        );
    }
}

#[test]
fn stats_are_identical_at_any_thread_count() {
    let mut datasets: Vec<StreamDataset> = slice_entries()
        .iter()
        .map(|e| generate(&e.spec, 0))
        .collect();
    // Twelve 12-row windows and a 6-row tail: under the 16-row PERM and
    // 8-row outlier cut-offs, so the skipped windows go through the fold.
    let short = oebench::synth::by_name("Electricity Prices").unwrap();
    datasets.push(generate(
        &StreamSpec {
            n_rows: 150,
            default_window: 12,
            ..short.spec.clone()
        },
        0,
    ));
    assert_eq!(datasets[7].windows().last().map(|w| w.len()), Some(6));

    let bits_at = |threads: usize| {
        set_default_threads(Some(threads));
        datasets
            .iter()
            .map(|d| extract_stats(d, &StatsConfig::default()).field_bits())
            .collect::<Vec<_>>()
    };
    let one = bits_at(1);
    let four = bits_at(4);
    set_default_threads(None);
    for (d, (a, b)) in datasets.iter().zip(one.iter().zip(&four)) {
        assert_eq!(a, b, "{} differs between 1 and 4 threads", d.name);
    }
}

/// The statistics of "Allstate Claims Severity" (100 encoded columns,
/// the widest PCA-CD refits in the registry) at scale 0.1, seed 0, as
/// raw bits. A kernel rewrite must keep them.
const ALLSTATE_BITS: [(&str, u64); 22] = [
    ("missing_rows", 0x3f9e60f04c756b2e),
    ("missing_cols", 0x3fece739ce739ce7),
    ("missing_cells", 0x3f50081a9a1b433b),
    ("drift_hdddm", 0x3fb435e50d79435e),
    ("drift_kdq", 0x3fe50d79435e50d8),
    ("drift_pcacd", 0x3fc79435e50d7943),
    ("drift_ks.avg", 0x3fe7af286bca1af2),
    ("drift_ks.max", 0x3feca1af286bca1b),
    ("drift_cdbd.avg", 0x3fc06bca1af286bc),
    ("drift_cdbd.max", 0x3fcaf286bca1af28),
    ("drift_adwin.avg", 0x400c000000000000),
    ("drift_adwin.max", 0x4015555555555555),
    ("drift_hddm.avg", 0x3fbaaaaaaaaaaaaa),
    ("drift_hddm.max", 0x3fe5555555555555),
    ("concept_ddm", 0x3f9bacf914c1bad0),
    ("concept_eddm", 0x3fd306eb3e45306f),
    ("concept_adwin", 0x3fb4c1bacf914c1c),
    ("concept_perm", 0x3fe435e50d79435e),
    ("anomaly_ecod.avg", 0x3f602b1da46102b2),
    ("anomaly_ecod.max", 0x3f9999999999999a),
    ("anomaly_iforest.avg", 0x3f6af286bca1af28),
    ("anomaly_iforest.max", 0x3f9999999999999a),
];

#[test]
fn wide_stream_stats_keep_their_pinned_bits() {
    let entry = oebench::synth::registry_scaled(0.1)
        .into_iter()
        .find(|e| e.spec.name == "Allstate Claims Severity")
        .unwrap();
    let dataset = generate(&entry.spec, 0);
    assert_eq!(
        extract_stats(&dataset, &StatsConfig::default()).field_bits(),
        ALLSTATE_BITS
    );
}

#[test]
fn every_algorithm_completes_on_both_task_types() {
    let reg = oebench::synth::registry_scaled(SCALE);
    let clf = reg
        .iter()
        .find(|e| e.spec.name == "Electricity Prices")
        .unwrap();
    let regr = reg
        .iter()
        .find(|e| e.spec.name == "Power Consumption of Tetouan City")
        .unwrap();
    let mut cfg = HarnessConfig::default();
    cfg.learner.epochs = 2;

    for entry in [clf, regr] {
        let dataset = oebench::synth::generate(&entry.spec, 0);
        for alg in Algorithm::all() {
            match run_stream(&dataset, alg, &cfg) {
                Some(result) => {
                    assert!(
                        !result.per_window_loss.is_empty(),
                        "{} produced no windows on {}",
                        alg.name(),
                        dataset.name
                    );
                    assert!(result.memory_bytes > 0);
                }
                None => {
                    // Only ARF on regression is allowed to be N/A.
                    assert_eq!(alg, Algorithm::Arf);
                    assert!(!dataset.task.is_classification());
                }
            }
        }
    }
}

#[test]
fn detectors_fire_on_drifting_streams_not_stationary_ones() {
    let reg = oebench::synth::registry_scaled(0.04);
    let drifting = reg
        .iter()
        .find(|e| e.spec.name == "Power Consumption of Tetouan City")
        .unwrap();
    let stationary = reg.iter().find(|e| e.spec.name == "Safe Driver").unwrap();

    let score = |entry: &oebench::synth::DatasetEntry| -> f64 {
        let d = oebench::synth::generate(&entry.spec, 0);
        extract_stats(&d, &StatsConfig::default()).drift_score()
    };
    let drift_score = score(drifting);
    let stationary_score = score(stationary);
    assert!(
        drift_score > stationary_score,
        "drifting {drift_score} <= stationary {stationary_score}"
    );
}

#[test]
fn seeded_runs_are_reproducible() {
    let reg = oebench::synth::registry_scaled(SCALE);
    let entry = reg
        .iter()
        .find(|e| e.spec.name == "Electricity Prices")
        .unwrap();
    let dataset = oebench::synth::generate(&entry.spec, 5);
    let a = run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
    let b = run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
    assert_eq!(a.per_window_loss, b.per_window_loss);
    assert_eq!(a.mean_loss, b.mean_loss);
}

#[test]
fn window_scaling_preserves_total_coverage() {
    let reg = oebench::synth::registry_scaled(SCALE);
    let entry = reg
        .iter()
        .find(|e| e.spec.name == "Electricity Prices")
        .unwrap();
    let dataset = oebench::synth::generate(&entry.spec, 0);
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let windows = dataset.windows_scaled(factor);
        assert_eq!(windows.first().unwrap().start, 0);
        assert_eq!(windows.last().unwrap().end, dataset.n_rows());
    }
}
