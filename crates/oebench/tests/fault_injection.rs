//! Fuzzing the resilient harness against fault-injected streams: for
//! arbitrary fault plans (every fault kind enabled at arbitrary rates)
//! over long synthetic streams, the harness must never panic — every run
//! either completes with a coherent report or fails with a typed
//! [`HarnessError`] — and the checkpointed sweep must resume to the same
//! report an uninterrupted sweep produces.

use oeb_core::{
    evaluate_prepared, prepare_from_source, run_sweep, Algorithm, DegradePolicy, HarnessConfig,
    HarnessError, RunOutcome, RunResult, SweepReport,
};
use oeb_faults::{FaultInjector, FaultPlan, FrameSource, FrameVec, WindowFrame};
use oeb_linalg::Matrix;
use oeb_synth::{generate, Balance, DriftPattern, LabelMechanism, Level, StreamSpec, TaskSpec};
use oeb_tabular::{Domain, Task};
use proptest::prelude::*;

/// A deterministic synthetic classification stream of `windows` windows
/// with `rows` samples of `cols` features each — no RNG, so every
/// proptest case sees the same clean stream and only the fault plan
/// varies.
fn synthetic_frames(windows: usize, rows: usize, cols: usize) -> Vec<WindowFrame> {
    (0..windows)
        .map(|w| {
            let data: Vec<Vec<f64>> = (0..rows)
                .map(|r| {
                    (0..cols)
                        .map(|c| {
                            let t = (w * rows + r) as f64;
                            (t * 0.37 + c as f64 * 1.3).sin() + 0.05 * c as f64
                        })
                        .collect()
                })
                .collect();
            let targets = data.iter().map(|row| f64::from(row[0] > 0.0)).collect();
            WindowFrame {
                index: w,
                features: Matrix::from_rows(&data),
                targets,
            }
        })
        .collect()
}

/// A deterministic synthetic regression stream: the target is a smooth
/// function of the features, so a healthy learner's loss stays finite
/// and any non-finite loss is attributable to injected poison.
fn regression_frames(windows: usize, rows: usize, cols: usize) -> Vec<WindowFrame> {
    (0..windows)
        .map(|w| {
            let data: Vec<Vec<f64>> = (0..rows)
                .map(|r| {
                    (0..cols)
                        .map(|c| {
                            let t = (w * rows + r) as f64;
                            (t * 0.37 + c as f64 * 1.3).sin() + 0.05 * c as f64
                        })
                        .collect()
                })
                .collect();
            let targets = data
                .iter()
                .map(|row| row.iter().sum::<f64>() * 0.5)
                .collect();
            WindowFrame {
                index: w,
                features: Matrix::from_rows(&data),
                targets,
            }
        })
        .collect()
}

/// An arbitrary plan with *every* fault kind enabled.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0..0.3f64,
        0.0..0.05f64,
        0.0..0.2f64,
        0.0..0.15f64,
        0.0..0.15f64,
        0.0..0.2f64,
        0.0..0.15f64,
        0.0..0.2f64,
    )
        .prop_map(
            |(seed, nan, cell, label, drop, dup, trunc, schema, missing)| FaultPlan {
                seed,
                nan_burst: nan,
                cell_corruption: cell,
                label_noise: label,
                drop_window: drop,
                duplicate_window: dup,
                truncate_window: trunc,
                schema_violation: schema,
                all_missing_column: missing,
            },
        )
}

fn resilient_config() -> HarnessConfig {
    let mut cfg = HarnessConfig {
        degrade: DegradePolicy::resilient(),
        ..Default::default()
    };
    cfg.learner.epochs = 1;
    cfg
}

/// Prepares a three-feature frame stream and evaluates Naive(DT) on it.
fn run_frames<S: FrameSource>(
    source: &mut S,
    task: Task,
    name: &str,
    cfg: &HarnessConfig,
) -> Result<RunResult, HarnessError> {
    let prepared = prepare_from_source(source, task, name, cfg, None, Some(3))?;
    evaluate_prepared(&prepared, Algorithm::NaiveDt, cfg)
}

fn tiny_spec(classification: bool, seed: u64) -> StreamSpec {
    StreamSpec {
        name: if classification {
            "fuzz-clf".into()
        } else {
            "fuzz-reg".into()
        },
        domain: Domain::Others,
        n_rows: 300,
        n_numeric: 3,
        categorical: vec![],
        task: if classification {
            TaskSpec::Classification {
                n_classes: 2,
                mechanism: LabelMechanism::XToY,
                balance: Balance::Balanced,
                label_noise: 0.02,
            }
        } else {
            TaskSpec::Regression { noise: 0.1 }
        },
        drift_pattern: DriftPattern::Gradual,
        drift_level: Level::MediumLow,
        anomaly_level: Level::Low,
        anomaly_events: vec![],
        missing_level: Level::MediumLow,
        availability: vec![],
        seasonal_cycles: 0.0,
        default_window: 50,
        seed,
    }
}

/// Report equality modulo wall-clock timing fields.
fn same_modulo_timing(a: &SweepReport, b: &SweepReport) -> bool {
    a.records.len() == b.records.len()
        && a.records.iter().zip(&b.records).all(|(x, y)| {
            x.dataset == y.dataset
                && x.algorithm == y.algorithm
                && match (&x.outcome, &y.outcome) {
                    (RunOutcome::Completed(p), RunOutcome::Completed(q)) => {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                        bits(&p.per_window_loss) == bits(&q.per_window_loss)
                            && p.mean_loss.to_bits() == q.mean_loss.to_bits()
                            && p.items == q.items
                            && p.degradations == q.degradations
                    }
                    (o1, o2) => o1 == o2,
                }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fault plan over a 600-window stream: the resilient harness
    /// never panics and always produces a complete, coherent report.
    #[test]
    fn chaotic_streams_never_panic(plan in arb_plan()) {
        let frames = synthetic_frames(600, 4, 3);
        let mut source = FaultInjector::new(FrameVec::new(frames), plan);
        let result = run_frames(&mut source, Task::Classification { n_classes: 2 }, "fuzz", &resilient_config());
        match result {
            Ok(r) => {
                prop_assert!(r.per_window_loss.len() <= 2 * 600, "more losses than windows");
                for l in &r.per_window_loss {
                    prop_assert!(
                        l.is_nan() || (0.0..=1.0).contains(l),
                        "classification loss {l} out of range"
                    );
                }
                prop_assert!(r.mean_loss.is_nan() || r.mean_loss >= 0.0);
            }
            // Extreme rates may legally destroy the stream (e.g. every
            // window dropped) — but the failure must be typed.
            Err(e) => prop_assert!((3..=14).contains(&e.exit_code()), "{e}"),
        }
    }

    /// The same seed injects the same faults and yields a bit-identical
    /// run, frame for frame.
    #[test]
    fn chaotic_runs_are_reproducible(seed in any::<u64>()) {
        let plan = FaultPlan::chaos(seed);
        let run = |plan: FaultPlan| {
            let mut source = FaultInjector::new(FrameVec::new(synthetic_frames(120, 5, 3)), plan);
            run_frames(&mut source, Task::Classification { n_classes: 2 }, "fuzz", &resilient_config())
        };
        match (run(plan.clone()), run(plan)) {
            (Ok(a), Ok(b)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                prop_assert_eq!(bits(&a.per_window_loss), bits(&b.per_window_loss));
                prop_assert_eq!(a.degradations, b.degradations);
                prop_assert_eq!(a.items, b.items);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.kind(), b.kind()),
            (a, b) => prop_assert!(false, "non-deterministic outcome: {a:?} vs {b:?}"),
        }
    }

    /// The strict policy never silently absorbs structural damage: with
    /// degradation disabled, a run over a schema-violating stream either
    /// fails typed or the injector happened to leave the schema alone.
    #[test]
    fn strict_policy_fails_typed_on_structural_damage(seed in any::<u64>()) {
        let mut plan = FaultPlan::none(seed);
        plan.schema_violation = 0.5;
        let mut source = FaultInjector::new(FrameVec::new(synthetic_frames(40, 4, 3)), plan);
        let mut cfg = HarnessConfig {
            degrade: DegradePolicy::strict(),
            ..Default::default()
        };
        cfg.learner.epochs = 1;
        let result = run_frames(&mut source, Task::Classification { n_classes: 2 }, "fuzz", &cfg);
        if let Err(e) = result {
            prop_assert!(
                matches!(e, HarnessError::SchemaMismatch { .. }),
                "unexpected failure kind: {e}"
            );
        }
    }

    /// Reset-with-retry: one NaN-target window after the warm-up drives
    /// the regression loss non-finite. The resilient policy must spend
    /// exactly one retry per model reset — the degradation entries are
    /// numbered `(1/2)`, `(2/2)`, never skipping or repeating a slot —
    /// and the surviving report is degraded-but-finite. The default
    /// (no-reset) policy lets the NaN propagate to the mean with the
    /// budget untouched, and a zero budget fails typed.
    #[test]
    fn nonfinite_loss_spends_exactly_one_retry_per_reset(poison in 2usize..9) {
        let mut frames = regression_frames(10, 6, 3);
        for t in &mut frames[poison].targets {
            *t = f64::NAN;
        }
        let run = |cfg: &HarnessConfig| {
            let mut source = FrameVec::new(frames.clone());
            run_frames(&mut source, Task::Regression, "reset-fuzz", cfg)
        };

        let resilient = run(&resilient_config()).unwrap();
        let resets: Vec<&String> = resilient
            .degradations
            .iter()
            .filter(|d| d.contains("non-finite loss, model reset"))
            .collect();
        prop_assert!(!resets.is_empty(), "no reset recorded: {:?}", resilient.degradations);
        prop_assert!(resets.len() <= 2, "budget overspent: {resets:?}");
        for (i, entry) in resets.iter().enumerate() {
            prop_assert!(
                entry.contains(&format!("({}/2)", i + 1)),
                "reset {} must spend exactly one retry: {entry:?}",
                i + 1
            );
        }
        prop_assert!(resilient.mean_loss.is_finite(), "resets must keep the mean finite");
        prop_assert!(resilient.per_window_loss.iter().all(|l| l.is_finite()));

        let mut plain_cfg = resilient_config();
        plain_cfg.degrade = DegradePolicy::default();
        let plain = run(&plain_cfg).unwrap();
        prop_assert!(plain.mean_loss.is_nan(), "without resets the NaN must propagate");
        prop_assert!(!plain.degradations.iter().any(|d| d.contains("model reset")));

        let mut no_budget = resilient_config();
        no_budget.degrade.max_retries = 0;
        match run(&no_budget) {
            Err(HarnessError::NonFiniteLoss { retries, .. }) => prop_assert_eq!(retries, 0),
            other => prop_assert!(false, "expected NonFiniteLoss, got {other:?}"),
        }
    }

    /// Kill the sweep after `k` runs and resume from its checkpoint: the
    /// final report is identical to an uninterrupted sweep's (timing
    /// aside), and no (dataset, algorithm) pair is ever run twice.
    #[test]
    fn interrupted_sweeps_resume_identically(seed in 0u64..20, k in 0usize..4) {
        let datasets = vec![generate(&tiny_spec(true, seed), seed), generate(&tiny_spec(false, seed), seed)];
        let algorithms = [Algorithm::NaiveDt, Algorithm::Arf];
        let cfg = resilient_config();

        let uninterrupted = run_sweep(&datasets, &algorithms, &cfg, None, None, 1).unwrap();
        prop_assert_eq!(uninterrupted.records.len(), 4);

        let path = std::env::temp_dir().join(format!(
            "oeb_fuzz_resume_{}_{seed}_{k}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let partial = run_sweep(&datasets, &algorithms, &cfg, Some(&path), Some(k), 2).unwrap();
        prop_assert!(partial.records.len() <= uninterrupted.records.len());
        let resumed = run_sweep(&datasets, &algorithms, &cfg, Some(&path), None, 2).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert!(
            same_modulo_timing(&resumed, &uninterrupted),
            "resumed sweep diverged from the uninterrupted run"
        );
    }
}
