//! Extensions beyond the paper's ten benchmarked algorithms.
//!
//! §2.2 of the paper suggests — without evaluating — that distribution
//! drifts could be handled by "applying drift detectors and re-training
//! the model after drift alerts". [`DriftResetLearner`] implements that
//! suggestion as a wrapper around any [`StreamLearner`]: a concept-drift
//! detector monitors the wrapped model's prequential error stream, and a
//! confirmed drift discards the model so the next window trains a fresh
//! one. The `repro` harness does not include it in the paper tables; it
//! is available through the library API and compared in this module's
//! tests.

use crate::learners::{Algorithm, LearnerConfig, StreamLearner};
use oeb_drift::{Adwin, ConceptDriftDetector};
use oeb_linalg::Matrix;
use oeb_tabular::Task;

/// A drift-aware wrapper: monitors its own prequential error with ADWIN
/// and rebuilds the wrapped learner when drift is confirmed.
pub struct DriftResetLearner {
    inner: Box<dyn StreamLearner>,
    algorithm: Algorithm,
    task: Task,
    input_dim: usize,
    cfg: LearnerConfig,
    detector: Adwin,
    /// Number of resets triggered so far.
    pub n_resets: usize,
    /// True once at least one window has been trained (fresh models are
    /// not monitored — their errors say nothing about drift).
    warmed_up: bool,
}

impl DriftResetLearner {
    /// Wraps `algorithm`; returns `None` when the algorithm does not
    /// apply to the task (ARF on regression).
    pub fn new(
        algorithm: Algorithm,
        task: Task,
        input_dim: usize,
        cfg: LearnerConfig,
    ) -> Option<DriftResetLearner> {
        let inner = algorithm.make(task, input_dim, &cfg)?;
        Some(DriftResetLearner {
            inner,
            algorithm,
            task,
            input_dim,
            cfg,
            detector: Adwin::new(0.002),
            n_resets: 0,
            warmed_up: false,
        })
    }
}

/// Bounded per-item error signal for the detector: 0/1
/// misclassification, or a clipped squared error for regression.
fn error_signal(task: Task, pred: f64, y: f64) -> f64 {
    match task {
        Task::Classification { .. } => f64::from(pred != y),
        Task::Regression => {
            let e = (pred - y).powi(2);
            if e.is_finite() {
                (e / (1.0 + e)).clamp(0.0, 1.0)
            } else {
                1.0
            }
        }
    }
}

impl StreamLearner for DriftResetLearner {
    fn predict(&self, xs: &Matrix, out: &mut Vec<f64>) {
        self.inner.predict(xs, out);
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        // Monitor the pre-training (prequential) errors of this window,
        // mirroring how the harness tests before training.
        if self.warmed_up {
            let mut drifted = false;
            let pre_mean = self.detector.mean();
            let mut preds = Vec::new();
            self.inner.predict(xs, &mut preds);
            for (&pred, &y) in preds.iter().zip(ys) {
                let e = error_signal(self.task, pred, y);
                if self.detector.update(e).is_drift() && self.detector.mean() > pre_mean {
                    drifted = true;
                }
            }
            if drifted {
                self.inner = self
                    .algorithm
                    .make(self.task, self.input_dim, &self.cfg)
                    .expect("algorithm applied before");
                self.detector.reset();
                self.n_resets += 1;
            }
        }
        self.inner.train_window(xs, ys);
        self.warmed_up = true;
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes() + 512
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{try_run_stream, HarnessConfig};
    use oeb_synth::{Balance, DriftPattern, LabelMechanism, Level, StreamSpec, TaskSpec};
    use oeb_tabular::Domain;

    fn abrupt_spec() -> StreamSpec {
        StreamSpec {
            name: "abrupt-ext".into(),
            domain: Domain::Others,
            n_rows: 3000,
            n_numeric: 4,
            categorical: vec![],
            task: TaskSpec::Classification {
                n_classes: 2,
                mechanism: LabelMechanism::XToY,
                balance: Balance::Balanced,
                label_noise: 0.02,
            },
            drift_pattern: DriftPattern::Abrupt {
                breaks: [0.5, 0.0, 0.0],
                n_breaks: 1,
            },
            drift_level: Level::High,
            anomaly_level: Level::Low,
            anomaly_events: vec![],
            missing_level: Level::Low,
            availability: vec![],
            seasonal_cycles: 0.0,
            default_window: 150,
            seed: 31,
        }
    }

    #[test]
    fn resets_fire_on_a_label_flip() {
        // A guaranteed concept drift: the label function inverts halfway
        // through the stream, so any model trained pre-flip is ~90% wrong
        // afterwards.
        let mut spec = abrupt_spec();
        spec.drift_pattern = DriftPattern::Stationary;
        let d = oeb_synth::generate(&spec, 0);
        let windows = d.windows();
        let flip_from = windows.len() / 2;
        let mut learner =
            DriftResetLearner::new(Algorithm::NaiveDt, d.task, 4, LearnerConfig::default())
                .expect("classification");
        for (k, range) in windows.iter().enumerate() {
            let rows: Vec<Vec<f64>> = range
                .clone()
                .map(|r| {
                    d.table.numeric_row(r)[..4]
                        .iter()
                        .map(|&v| if v.is_finite() { v } else { 0.0 })
                        .collect()
                })
                .collect();
            let mut ys: Vec<f64> = range.clone().map(|r| d.target_at(r)).collect();
            if k >= flip_from {
                for y in &mut ys {
                    *y = 1.0 - *y;
                }
            }
            learner.train_window(&Matrix::from_rows(&rows), &ys);
        }
        assert!(learner.n_resets >= 1, "no resets on a hard label flip");
    }

    #[test]
    fn regression_wrapping_works() {
        let mut spec = abrupt_spec();
        spec.task = TaskSpec::Regression { noise: 0.1 };
        let d = oeb_synth::generate(&spec, 0);
        let learner =
            DriftResetLearner::new(Algorithm::NaiveNn, d.task, 4, LearnerConfig::default());
        assert!(learner.is_some());
        // ARF still refuses regression through the wrapper.
        assert!(
            DriftResetLearner::new(Algorithm::Arf, d.task, 4, LearnerConfig::default()).is_none()
        );
    }

    #[test]
    fn wrapped_learner_tracks_baseline_on_stationary_stream() {
        let mut spec = abrupt_spec();
        spec.drift_pattern = DriftPattern::Stationary;
        spec.drift_level = Level::Low;
        let d = oeb_synth::generate(&spec, 0);
        // On a stationary stream the wrapper should behave like the
        // wrapped learner (no spurious resets destroying the model).
        let baseline = try_run_stream(&d, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
        let mut learner =
            DriftResetLearner::new(Algorithm::NaiveDt, d.task, 4, LearnerConfig::default())
                .unwrap();
        for range in d.windows() {
            let rows: Vec<Vec<f64>> = range
                .clone()
                .map(|r| {
                    d.table.numeric_row(r)[..4]
                        .iter()
                        .map(|&v| if v.is_finite() { v } else { 0.0 })
                        .collect()
                })
                .collect();
            let ys: Vec<f64> = range.clone().map(|r| d.target_at(r)).collect();
            learner.train_window(&Matrix::from_rows(&rows), &ys);
        }
        assert!(
            learner.n_resets <= 2,
            "{} spurious resets",
            learner.n_resets
        );
        assert!(baseline.mean_loss.is_finite());
    }
}
