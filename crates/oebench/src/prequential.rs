//! Item-level prequential evaluation (test-then-train on every single
//! item), the protocol of the MOA / Souza et al. line of work the paper
//! builds on (§3.2). The window-level harness in [`crate::harness`] is
//! the paper's own protocol; this module complements it for the truly
//! incremental learners (Hoeffding trees, ARF), where per-item
//! prequential accuracy is the conventional metric.

use crate::error::HarnessError;
use oeb_linalg::Matrix;
use oeb_tabular::{StreamDataset, Task};
use oeb_trace::{enabled, Counter, Histogram, Stopwatch};
use oeb_tree::{AdaptiveRandomForest, HoeffdingTree};

/// One `learn_one` call per item — the item-level analogue of the
/// window-level `learner.window_updates` counter.
static ITEM_UPDATES: Counter = Counter::new("learner.item_updates");

/// Per-item test-then-train latency in microseconds (log buckets), the
/// groundwork for a serving-style p99 contract: deterministic p50/p95/p99
/// come from the bucket bounds via [`oeb_trace::HistogramSnapshot`].
/// Sampled only while tracing is enabled — the untraced loop performs no
/// clock reads.
static ITEM_LATENCY: Histogram = Histogram::new(
    "prequential.item.latency_us",
    &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000],
);

/// A model that can be tested and trained one item at a time.
pub trait IncrementalClassifier {
    /// Predicted class for one sample.
    fn predict_one(&self, x: &[f64]) -> usize;

    /// Learns one labelled sample.
    fn learn_one(&mut self, x: &[f64], y: usize);
}

impl IncrementalClassifier for HoeffdingTree {
    fn predict_one(&self, x: &[f64]) -> usize {
        self.predict(x)
    }

    fn learn_one(&mut self, x: &[f64], y: usize) {
        HoeffdingTree::learn_one(self, x, y);
    }
}

impl IncrementalClassifier for AdaptiveRandomForest {
    fn predict_one(&self, x: &[f64]) -> usize {
        self.predict(x)
    }

    fn learn_one(&mut self, x: &[f64], y: usize) {
        AdaptiveRandomForest::learn_one(self, x, y);
    }
}

/// Result of an item-level prequential run.
#[derive(Debug, Clone)]
pub struct PrequentialResult {
    /// Items processed.
    pub items: usize,
    /// Final prequential accuracy (correct / items).
    pub accuracy: f64,
    /// Running accuracy sampled every `sample_every` items.
    pub accuracy_curve: Vec<f64>,
}

/// Runs test-then-train over every item of an encoded stream.
///
/// `xs` carries one already-encoded sample per row; `ys` the class
/// labels. `sample_every` controls the resolution of the returned curve.
/// The feature and target lengths must agree (a typed
/// [`HarnessError::InvalidConfig`] otherwise).
pub fn prequential_items<M: IncrementalClassifier>(
    model: &mut M,
    xs: &Matrix,
    ys: &[f64],
    sample_every: usize,
) -> Result<PrequentialResult, HarnessError> {
    if xs.rows() != ys.len() {
        return Err(HarnessError::InvalidConfig(format!(
            "{} feature rows but {} targets",
            xs.rows(),
            ys.len()
        )));
    }
    let sample_every = sample_every.max(1);
    let mut correct = 0usize;
    let mut curve = Vec::new();
    for r in 0..xs.rows() {
        let x = xs.row(r);
        let y = ys[r] as usize;
        let watch = enabled().then(Stopwatch::start);
        if model.predict_one(x) == y {
            correct += 1;
        }
        model.learn_one(x, y);
        if let Some(watch) = watch {
            ITEM_LATENCY.record(watch.elapsed_micros());
        }
        if (r + 1) % sample_every == 0 {
            curve.push(correct as f64 / (r + 1) as f64);
        }
    }
    let items = xs.rows();
    ITEM_UPDATES.add(items as u64);
    Ok(PrequentialResult {
        items,
        accuracy: if items > 0 {
            correct as f64 / items as f64
        } else {
            0.0
        },
        accuracy_curve: curve,
    })
}

/// Encodes a classification [`StreamDataset`] (numeric view, NaN as 0)
/// and runs [`prequential_items`]. Regression datasets are a typed
/// [`HarnessError::NotApplicable`].
pub fn prequential_dataset<M: IncrementalClassifier>(
    model: &mut M,
    dataset: &StreamDataset,
    sample_every: usize,
) -> Result<PrequentialResult, HarnessError> {
    if !matches!(dataset.task, Task::Classification { .. }) {
        return Err(HarnessError::NotApplicable {
            algorithm: "item-level prequential accuracy".into(),
            task: format!("{:?}", dataset.task),
        });
    }
    let feature_cols = dataset.feature_cols();
    let rows: Vec<Vec<f64>> = (0..dataset.n_rows())
        .map(|r| {
            feature_cols
                .iter()
                .map(|&c| {
                    let v = dataset.table.column(c).numeric_at(r);
                    if v.is_finite() {
                        v
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let xs = Matrix::from_rows(&rows);
    let ys = dataset.targets();
    prequential_items(model, &xs, &ys, sample_every)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oeb_tree::{ArfConfig, HoeffdingConfig};

    fn stream(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 50) as f64, ((i * 3) % 7) as f64])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| f64::from(r[0] >= 25.0)).collect();
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn accuracy_improves_as_the_tree_learns() {
        let (xs, ys) = stream(6000);
        let mut tree = HoeffdingTree::new(2, 2, HoeffdingConfig::default());
        let result = prequential_items(&mut tree, &xs, &ys, 1000).unwrap();
        assert_eq!(result.items, 6000);
        assert_eq!(result.accuracy_curve.len(), 6);
        let first = result.accuracy_curve[0];
        let last = *result.accuracy_curve.last().unwrap();
        assert!(last > first, "no learning: {first} -> {last}");
        // Cumulative prequential accuracy includes the early untrained
        // phase; the tail of the curve shows the converged model.
        assert!(result.accuracy > 0.7, "final accuracy {}", result.accuracy);
        assert!(last > 0.74, "converged accuracy {last}");
    }

    #[test]
    fn arf_reaches_high_prequential_accuracy() {
        let (xs, ys) = stream(4000);
        let mut arf = AdaptiveRandomForest::new(2, 2, ArfConfig::default());
        let result = prequential_items(&mut arf, &xs, &ys, 500).unwrap();
        assert!(result.accuracy > 0.8, "accuracy {}", result.accuracy);
    }

    #[test]
    fn dataset_wrapper_runs_on_registry_stream() {
        // Scale 0.05 keeps the stream long enough (~2.3k rows against a
        // 200-row window) for cumulative prequential accuracy to clear
        // the beats-chance bar across generator seeds; at 0.02 the
        // stream is shorter than five windows and the margin is luck.
        let entries = oeb_synth::registry_scaled(0.05);
        let entry = entries
            .iter()
            .find(|e| e.spec.name == "Electricity Prices")
            .unwrap();
        let d = oeb_synth::generate(&entry.spec, 0);
        let mut tree = HoeffdingTree::new(d.n_features(), 2, HoeffdingConfig::default());
        let result = prequential_dataset(&mut tree, &d, 200).unwrap();
        assert_eq!(result.items, d.n_rows());
        assert!(result.accuracy > 0.5);
    }

    #[test]
    fn mismatched_lengths_are_a_typed_error() {
        let (xs, _) = stream(10);
        let mut tree = HoeffdingTree::new(2, 2, HoeffdingConfig::default());
        let err = prequential_items(&mut tree, &xs, &[0.0; 3], 5).unwrap_err();
        assert!(matches!(err, HarnessError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn regression_dataset_is_a_typed_error() {
        let entries = oeb_synth::registry_scaled(0.02);
        let entry = entries
            .iter()
            .find(|e| e.spec.name == "Power Consumption of Tetouan City")
            .unwrap();
        let d = oeb_synth::generate(&entry.spec, 0);
        let mut tree = HoeffdingTree::new(d.n_features(), 2, HoeffdingConfig::default());
        let err = prequential_dataset(&mut tree, &d, 100).unwrap_err();
        assert!(matches!(err, HarnessError::NotApplicable { .. }), "{err}");
    }

    #[test]
    fn empty_stream_is_harmless() {
        let xs = Matrix::zeros(0, 2);
        let mut tree = HoeffdingTree::new(2, 2, HoeffdingConfig::default());
        let result = prequential_items(&mut tree, &xs, &[], 10).unwrap();
        assert_eq!(result.items, 0);
        assert_eq!(result.accuracy, 0.0);
    }
}
