//! The prequential (test-then-train) evaluation harness (§6.1 of the
//! paper).
//!
//! Per dataset: categorical features are one-hot encoded, missing values
//! imputed (KNN k=2 by default), every dimension rescaled with the *first
//! window's* statistics only, and then each window after the warm-up is
//! first tested (error rate for classification, MSE on the z-scored
//! target for regression) and then trained on. The final score averages
//! the per-window losses. The harness also records wall-clock train/test
//! time (Table 5 / Table 10) and peak model memory (Table 6).
//!
//! Since the staged-pipeline refactor this module holds the public run
//! API and its configuration types; the actual work happens in two
//! stages in [`crate::prepare`]: [`prepare_cached`](crate::prepare::prepare_cached)
//! materializes a shared, immutable [`PreparedStream`](crate::prepare::PreparedStream)
//! per (dataset, seed, preprocessing config), and
//! [`evaluate_prepared`](crate::prepare::evaluate_prepared) runs one
//! learner over it. [`try_run_stream`] is the composition of the two and
//! the one per-run entry point: the experiment grid
//! ([`run_matrix`](crate::experiments::main_results::run_matrix)) and the
//! checkpointed [`run_sweep`](crate::sweep::run_sweep) both call it.
//!
//! The prepare stage consumes [`WindowFrame`](oeb_faults::WindowFrame)s
//! from any [`FrameSource`](oeb_faults::FrameSource) — in particular a
//! [`FaultInjector`](oeb_faults::FaultInjector)-wrapped stream — and the
//! harness degrades gracefully on hostile input per [`DegradePolicy`] instead of
//! panicking: malformed windows can be skipped, imputation falls back to
//! mean/zero filling, and a learner whose loss goes non-finite can be
//! reset a bounded number of times.

use crate::error::HarnessError;
use crate::learners::{Algorithm, LearnerConfig};
use crate::prepare::{evaluate_prepared, prepare_cached};
use crate::supervise::SupervisePolicy;
use oeb_faults::FaultPlan;
use oeb_preprocess::{Imputer, KnnImputer, MeanImputer, RegressionImputer, ZeroImputer};
use oeb_tabular::StreamDataset;
use oeb_trace::{CellCtx, Counter, SpanDef};

/// Completed harness runs (one learner over one prepared stream).
static HARNESS_RUNS: Counter = Counter::new("harness.runs");

/// Cell executions that ran under an installed [`CellCtx`] — i.e. whose
/// spans are attributable to a (dataset, learner, seed) in the trace.
static CELLS_ATTRIBUTED: Counter = Counter::new("profile.cells.attributed");

/// One end-to-end cell execution (prepare + evaluate), recorded with the
/// cell's context attached; `oeb-profile` keys per-cell wall time on
/// these events.
static CELL_RUN_SPAN: SpanDef = SpanDef::new("cell.run");

/// Which imputer fills missing values before testing/training (§6.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImputerChoice {
    /// KNN imputer with the given `k` (paper default k=2).
    Knn(usize),
    /// Ridge-regression imputer.
    Regression,
    /// Column-mean filling.
    Mean,
    /// Zero filling.
    Zero,
}

impl ImputerChoice {
    pub(crate) fn build(&self) -> Box<dyn Imputer> {
        match self {
            ImputerChoice::Knn(k) => Box::new(KnnImputer { k: *k }),
            ImputerChoice::Regression => Box::new(RegressionImputer::default()),
            ImputerChoice::Mean => Box::new(MeanImputer),
            ImputerChoice::Zero => Box::new(ZeroImputer),
        }
    }

    /// Identifier used in reports.
    pub fn name(&self) -> String {
        match self {
            ImputerChoice::Knn(k) => format!("knn(k={k})"),
            ImputerChoice::Regression => "regression".into(),
            ImputerChoice::Mean => "mean".into(),
            ImputerChoice::Zero => "zero".into(),
        }
    }
}

/// Optional outlier removal before test and train (§6.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutlierRemoval {
    /// Keep all samples.
    None,
    /// Remove samples ECOD flags at 3 sigma within the window.
    Ecod,
    /// Remove samples IForest flags at 3 sigma within the window.
    IForest,
}

/// How the harness degrades on hostile input instead of panicking.
///
/// Policies only engage when a window is actually malformed or a learner
/// actually diverges, so on a clean stream every policy combination
/// produces identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Skip (and log) windows with the wrong column count or that cannot
    /// be repaired, instead of failing the run.
    pub skip_bad_windows: bool,
    /// When the configured imputer leaves non-finite cells (e.g. KNN on
    /// an all-missing column with an all-missing reference), fall back to
    /// mean filling, then zero filling.
    pub imputer_fallback: bool,
    /// Re-initialise the learner when a window's loss goes non-finite,
    /// spending one retry from the budget.
    pub reset_on_nonfinite: bool,
    /// Model resets allowed before the run fails with
    /// [`HarnessError::NonFiniteLoss`].
    pub max_retries: usize,
}

impl Default for DegradePolicy {
    /// Skips and repairs malformed windows but preserves the paper's
    /// convention for diverged learners (a non-finite loss propagates to
    /// the mean, reported as N/A) rather than resetting the model.
    fn default() -> Self {
        DegradePolicy {
            skip_bad_windows: true,
            imputer_fallback: true,
            reset_on_nonfinite: false,
            max_retries: 2,
        }
    }
}

impl DegradePolicy {
    /// Everything enabled: survive whatever the stream throws.
    pub fn resilient() -> DegradePolicy {
        DegradePolicy {
            skip_bad_windows: true,
            imputer_fallback: true,
            reset_on_nonfinite: true,
            max_retries: 2,
        }
    }

    /// Nothing enabled: any malformed window fails the run with a typed
    /// error. Useful for validating that a stream *should* be clean.
    pub fn strict() -> DegradePolicy {
        DegradePolicy {
            skip_bad_windows: false,
            imputer_fallback: false,
            reset_on_nonfinite: false,
            max_retries: 0,
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Learner hyper-parameters.
    pub learner: LearnerConfig,
    /// Multiplier on the dataset's default window size (§6.4.2 sweeps
    /// {0.25, 0.5, 1, 2, 4}).
    pub window_factor: f64,
    /// Missing-value imputer.
    pub imputer: ImputerChoice,
    /// Oracle imputation: impute with knowledge of the entire stream
    /// (Figure 5's "Filling (oracle)"); the default imputes from the data
    /// seen so far ("Filling (normal)").
    pub oracle_imputation: bool,
    /// Drop the `n` most-missing feature columns before encoding
    /// (Figure 5's "Discard" variant).
    pub discard_most_missing: usize,
    /// Outlier removal mode.
    pub outlier_removal: OutlierRemoval,
    /// Shuffle the stream first (Figure 15's "no drift" baseline).
    pub shuffle: bool,
    /// Cap on rows kept as the imputation reference (compute bound).
    pub reference_cap: usize,
    /// Run seed (mixed into shuffling and learners).
    pub seed: u64,
    /// Degradation behaviour on malformed windows / diverging learners.
    pub degrade: DegradePolicy,
    /// Optional fault plan: when set, the window stream is routed through
    /// a [`FaultInjector`] before evaluation.
    pub fault_plan: Option<FaultPlan>,
    /// Deadlines and retry budget for each run; the default supervises
    /// nothing. The prepare stage ignores it.
    pub supervise: SupervisePolicy,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            learner: LearnerConfig::default(),
            window_factor: 1.0,
            imputer: ImputerChoice::Knn(2),
            oracle_imputation: false,
            discard_most_missing: 0,
            outlier_removal: OutlierRemoval::None,
            shuffle: false,
            reference_cap: 512,
            seed: 0,
            degrade: DegradePolicy::default(),
            fault_plan: None,
            supervise: SupervisePolicy::unsupervised(),
        }
    }
}

impl HarnessConfig {
    /// Rejects configurations that cannot run (the checks that used to be
    /// asserts deep inside the pipeline).
    pub fn validate(&self) -> Result<(), HarnessError> {
        if !self.window_factor.is_finite() || self.window_factor <= 0.0 {
            return Err(HarnessError::InvalidConfig(format!(
                "window factor {} must be a positive finite number",
                self.window_factor
            )));
        }
        if let ImputerChoice::Knn(0) = self.imputer {
            return Err(HarnessError::InvalidConfig(
                "knn imputer needs k >= 1".into(),
            ));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate().map_err(HarnessError::InvalidConfig)?;
        }
        Ok(())
    }
}

/// Result of one prequential run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Per-window test loss (windows after the warm-up window, in order).
    pub per_window_loss: Vec<f64>,
    /// Mean of the per-window losses (NaN when a window diverged to NaN —
    /// the paper reports such runs as N/A).
    pub mean_loss: f64,
    /// Wall-clock seconds spent training.
    pub train_seconds: f64,
    /// Wall-clock seconds spent testing.
    pub test_seconds: f64,
    /// Total items processed (tested + trained).
    pub items: usize,
    /// Items per second over train + test time.
    pub throughput: f64,
    /// Peak model memory in bytes.
    pub memory_bytes: usize,
    /// Degradation events (skipped windows, imputer fallbacks, model
    /// resets) the policy absorbed; empty on a clean run.
    pub degradations: Vec<String>,
}

impl RunResult {
    /// True when the run produced a finite, non-diverged mean loss.
    pub fn is_valid(&self) -> bool {
        self.mean_loss.is_finite() && self.mean_loss.abs() < crate::report::DIVERGED
    }
}

/// Runs one `(dataset, algorithm)` pair through the prequential
/// protocol, reporting failures as typed [`HarnessError`]s instead of
/// panicking. This is the one cell entry point every grid calls.
///
/// Composition of the two pipeline stages: the prepared stream comes
/// from the keyed cache, so consecutive runs differing only in the
/// learner (a sweep cell's ten algorithms, the learners of one
/// `run_matrix` stream) share one preprocessing pass. The evaluate
/// stage runs under the budget of `config.supervise`; the (cached,
/// shared) prepare stage runs unbudgeted — its cost belongs to the whole sweep, not to the one
/// cell whose attempt happened to populate the cache.
pub fn try_run_stream(
    dataset: &StreamDataset,
    algorithm: Algorithm,
    config: &HarnessConfig,
) -> Result<RunResult, HarnessError> {
    config.validate()?;
    // Ambient attribution for every span this cell records (the sweep
    // installs the same context around retries; installs nest, so the
    // innermost — this one — wins for the execution itself).
    let _ctx = CellCtx {
        dataset: dataset.name.clone(),
        learner: algorithm.name().to_string(),
        seed: config.seed,
        rows: dataset.n_rows() as u64,
    }
    .install();
    CELLS_ATTRIBUTED.incr();
    let cell_span = CELL_RUN_SPAN.start();
    let prepared = prepare_cached(dataset, config)?;
    let result = evaluate_prepared(&prepared, algorithm, config);
    drop(cell_span);
    if result.is_ok() {
        HARNESS_RUNS.incr();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare::prepare_from_source;
    use oeb_faults::{FrameVec, WindowFrame};
    use oeb_linalg::Matrix;
    use oeb_synth::{generate, registry_scaled};
    use oeb_tabular::Task;

    fn small_dataset(kind: &str) -> StreamDataset {
        let entries = registry_scaled(0.03);
        let entry = entries
            .iter()
            .find(|e| match kind {
                "clf" => e.spec.name == "Electricity Prices",
                _ => e.spec.name == "Power Consumption of Tetouan City",
            })
            .unwrap();
        generate(&entry.spec, 0)
    }

    #[test]
    fn naive_dt_runs_prequentially_on_classification() {
        let d = small_dataset("clf");
        let r = try_run_stream(&d, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
        assert!(r.is_valid());
        assert!(!r.per_window_loss.is_empty());
        // Error rate bounded in [0, 1].
        assert!(r.per_window_loss.iter().all(|&l| (0.0..=1.0).contains(&l)));
        assert!(r.throughput > 0.0);
        assert!(r.memory_bytes > 0);
        // Clean stream: no degradation policy engaged.
        assert!(r.degradations.is_empty());
    }

    #[test]
    fn naive_dt_beats_chance_on_classification() {
        let d = small_dataset("clf");
        let r = try_run_stream(&d, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
        assert!(r.mean_loss < 0.5, "error rate {}", r.mean_loss);
    }

    #[test]
    fn regression_run_produces_finite_mse() {
        let d = small_dataset("reg");
        let mut cfg = HarnessConfig::default();
        cfg.learner.epochs = 3;
        let r = try_run_stream(&d, Algorithm::NaiveNn, &cfg).unwrap();
        assert!(r.is_valid(), "loss {}", r.mean_loss);
    }

    #[test]
    fn arf_is_not_applicable_on_regression() {
        let d = small_dataset("reg");
        let err = try_run_stream(&d, Algorithm::Arf, &HarnessConfig::default()).unwrap_err();
        assert!(matches!(err, HarnessError::NotApplicable { .. }));
    }

    #[test]
    fn shuffle_changes_the_window_losses() {
        let d = small_dataset("clf");
        let plain = try_run_stream(&d, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
        let shuffled = try_run_stream(
            &d,
            Algorithm::NaiveDt,
            &HarnessConfig {
                shuffle: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(plain.per_window_loss, shuffled.per_window_loss);
    }

    #[test]
    fn outlier_removal_modes_run() {
        let d = small_dataset("reg");
        for mode in [OutlierRemoval::Ecod, OutlierRemoval::IForest] {
            let mut cfg = HarnessConfig {
                outlier_removal: mode,
                ..Default::default()
            };
            cfg.learner.epochs = 2;
            let r = try_run_stream(&d, Algorithm::NaiveDt, &cfg).unwrap();
            assert!(r.is_valid());
        }
    }

    #[test]
    fn window_factor_changes_window_count() {
        let d = small_dataset("clf");
        let base = try_run_stream(&d, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
        let halved = try_run_stream(
            &d,
            Algorithm::NaiveDt,
            &HarnessConfig {
                window_factor: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(halved.per_window_loss.len() > base.per_window_loss.len());
    }

    #[test]
    fn single_window_stream_is_insufficient() {
        // Fewer than two windows means there is nothing to test on.
        let entries = registry_scaled(0.03);
        let entry = entries
            .iter()
            .find(|e| e.spec.name == "Electricity Prices")
            .unwrap();
        let mut spec = entry.spec.clone();
        spec.default_window = spec.n_rows; // one giant window
        let d = generate(&spec, 0);
        let err = try_run_stream(&d, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            HarnessError::InsufficientWindows { found: 1 }
        ));
    }

    #[test]
    fn oracle_imputation_runs_and_differs_from_normal() {
        let entries = registry_scaled(0.03);
        let entry = entries
            .iter()
            .find(|e| e.spec.name == "Indian Cities Weather Delhi")
            .unwrap();
        let d = generate(&entry.spec, 0);
        let mut cfg = HarnessConfig::default();
        cfg.learner.epochs = 1;
        let normal = try_run_stream(&d, Algorithm::NaiveDt, &cfg).unwrap();
        let oracle = try_run_stream(
            &d,
            Algorithm::NaiveDt,
            &HarnessConfig {
                oracle_imputation: true,
                ..cfg
            },
        )
        .unwrap();
        // High-missing stream: the fill values differ, so the losses do.
        assert_ne!(normal.per_window_loss, oracle.per_window_loss);
    }

    #[test]
    fn discarding_features_shrinks_the_input() {
        let entries = registry_scaled(0.03);
        let entry = entries
            .iter()
            .find(|e| e.spec.name == "Beijing Multi-Site Air-Quality Shunyi")
            .unwrap();
        let d = generate(&entry.spec, 0);
        let mut cfg = HarnessConfig {
            discard_most_missing: 3,
            ..Default::default()
        };
        cfg.learner.epochs = 1;
        let r = try_run_stream(&d, Algorithm::NaiveNn, &cfg).unwrap();
        assert!(!r.per_window_loss.is_empty());
    }

    #[test]
    fn imputer_names_match_configs() {
        assert_eq!(ImputerChoice::Knn(2).name(), "knn(k=2)");
        assert_eq!(ImputerChoice::Mean.name(), "mean");
        assert_eq!(ImputerChoice::Zero.name(), "zero");
        assert_eq!(ImputerChoice::Regression.name(), "regression");
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        let d = small_dataset("clf");
        for cfg in [
            HarnessConfig {
                window_factor: 0.0,
                ..Default::default()
            },
            HarnessConfig {
                window_factor: f64::NAN,
                ..Default::default()
            },
            HarnessConfig {
                imputer: ImputerChoice::Knn(0),
                ..Default::default()
            },
        ] {
            let err = try_run_stream(&d, Algorithm::NaiveDt, &cfg).unwrap_err();
            assert!(matches!(err, HarnessError::InvalidConfig(_)), "{err}");
        }
        let mut bad_plan = FaultPlan::none(0);
        bad_plan.drop_window = 7.0;
        let cfg = HarnessConfig {
            fault_plan: Some(bad_plan),
            ..Default::default()
        };
        assert!(matches!(
            try_run_stream(&d, Algorithm::NaiveDt, &cfg).unwrap_err(),
            HarnessError::InvalidConfig(_)
        ));
    }

    #[test]
    fn clean_fault_plan_reproduces_the_plain_run() {
        let d = small_dataset("clf");
        let plain = try_run_stream(&d, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
        let wrapped = try_run_stream(
            &d,
            Algorithm::NaiveDt,
            &HarnessConfig {
                fault_plan: Some(FaultPlan::none(5)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plain.per_window_loss, wrapped.per_window_loss);
        assert_eq!(plain.mean_loss, wrapped.mean_loss);
    }

    #[test]
    fn chaos_fault_plan_survives_and_logs_degradations() {
        let d = small_dataset("clf");
        let cfg = HarnessConfig {
            fault_plan: Some(FaultPlan::chaos(3)),
            degrade: DegradePolicy::resilient(),
            ..Default::default()
        };
        let r = try_run_stream(&d, Algorithm::NaiveDt, &cfg).unwrap();
        assert!(!r.per_window_loss.is_empty());
        // Chaos injects schema violations at 8% per window; with dozens of
        // windows at least one lands and is absorbed as a degradation.
        assert!(
            !r.degradations.is_empty(),
            "chaos plan produced no degradations"
        );
    }

    #[test]
    fn strict_policy_fails_on_schema_violation() {
        let d = small_dataset("clf");
        let mut plan = FaultPlan::none(1);
        plan.schema_violation = 1.0;
        let cfg = HarnessConfig {
            fault_plan: Some(plan),
            degrade: DegradePolicy::strict(),
            ..Default::default()
        };
        let err = try_run_stream(&d, Algorithm::NaiveDt, &cfg).unwrap_err();
        assert!(matches!(err, HarnessError::SchemaMismatch { .. }), "{err}");
    }

    #[test]
    fn all_windows_dropped_is_an_empty_stream() {
        let d = small_dataset("clf");
        let mut plan = FaultPlan::none(1);
        plan.drop_window = 1.0;
        let cfg = HarnessConfig {
            fault_plan: Some(plan),
            ..Default::default()
        };
        assert!(matches!(
            try_run_stream(&d, Algorithm::NaiveDt, &cfg).unwrap_err(),
            HarnessError::EmptyStream
        ));
    }

    #[test]
    fn all_missing_column_is_absorbed_without_panic() {
        // Satellite regression test: a column that is entirely NaN in
        // every window (plus zero variance after the 0.0 fallback fill)
        // must not panic anywhere in the pipeline.
        let d = small_dataset("clf");
        let mut plan = FaultPlan::none(2);
        plan.all_missing_column = 1.0;
        let cfg = HarnessConfig {
            fault_plan: Some(plan),
            ..Default::default()
        };
        let r = try_run_stream(&d, Algorithm::NaiveDt, &cfg).unwrap();
        assert!(!r.per_window_loss.is_empty());
    }

    #[test]
    fn frame_source_with_inconsistent_targets_is_skipped_or_rejected() {
        let frames = vec![
            WindowFrame {
                index: 0,
                features: Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]),
                targets: vec![0.0, 1.0],
            },
            WindowFrame {
                index: 1,
                features: Matrix::from_rows(&[vec![0.5, 0.5]]),
                targets: vec![0.0, 1.0, 1.0], // ragged
            },
            WindowFrame {
                index: 2,
                features: Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]),
                targets: vec![0.0, 1.0],
            },
        ];
        let task = Task::Classification { n_classes: 2 };
        let cfg = HarnessConfig::default();
        let mut src = FrameVec::new(frames.clone());
        let prepared = prepare_from_source(&mut src, task, "toy", &cfg, None, None).unwrap();
        let r = evaluate_prepared(&prepared, Algorithm::NaiveDt, &cfg).unwrap();
        assert_eq!(r.per_window_loss.len(), 1); // window 1 skipped
        assert_eq!(r.degradations.len(), 1);

        let strict = HarnessConfig {
            degrade: DegradePolicy::strict(),
            ..Default::default()
        };
        let mut src = FrameVec::new(frames);
        let err = prepare_from_source(&mut src, task, "toy", &strict, None, None).unwrap_err();
        assert!(matches!(err, HarnessError::InvalidConfig(_)));
    }
}
