//! Determinism properties of the parallel sweep executor: for arbitrary
//! worker counts, stream shapes and interruption points, a sweep must
//! produce the same report as the sequential run — parallelism and
//! checkpoint/resume may change *when* cells run, never *what* they
//! compute.

use oeb_core::{run_sweep, Algorithm, HarnessConfig, RunOutcome, SupervisePolicy, SweepReport};
use oeb_synth::{Balance, DriftPattern, LabelMechanism, Level, StreamSpec, TaskSpec};
use oeb_tabular::{Domain, StreamDataset};
use proptest::prelude::*;
use std::time::Duration;

fn tiny_spec(name: &str, classification: bool, rows: usize, seed: u64) -> StreamSpec {
    StreamSpec {
        name: name.into(),
        domain: Domain::Others,
        n_rows: rows,
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
        default_window: 40,
        seed,
    }
}

fn grid_datasets(seed: u64) -> Vec<StreamDataset> {
    vec![
        oeb_synth::generate(&tiny_spec("par-clf", true, 240, seed), seed),
        oeb_synth::generate(&tiny_spec("par-reg", false, 240, seed), seed),
    ]
}

/// The deterministic half of a report: everything except wall-clock
/// timing and throughput, floats compared by bit pattern. Two reports
/// with equal digests are byte-identical on every reproducible field.
fn digest(report: &SweepReport) -> Vec<String> {
    report
        .records
        .iter()
        .map(|r| {
            let outcome = match &r.outcome {
                RunOutcome::Completed(res) => {
                    let losses: Vec<String> = res
                        .per_window_loss
                        .iter()
                        .map(|l| format!("{:016x}", l.to_bits()))
                        .collect();
                    format!(
                        "completed mean={:016x} items={} mem={} losses=[{}] deg={:?}",
                        res.mean_loss.to_bits(),
                        res.items,
                        res.memory_bytes,
                        losses.join(","),
                        res.degradations,
                    )
                }
                RunOutcome::Inapplicable => "inapplicable".into(),
                RunOutcome::Failed { kind, reason } => format!("failed {kind}: {reason}"),
                RunOutcome::TimedOut {
                    windows,
                    items,
                    wall,
                } => format!("timed-out w={windows} i={items} wall={wall}"),
                RunOutcome::Quarantined {
                    attempts,
                    kind,
                    reason,
                } => format!("quarantined n={attempts} {kind}: {reason}"),
            };
            format!("{}|{}|{outcome}", r.dataset, r.algorithm)
        })
        .collect()
}

fn temp_checkpoint(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "oeb_parallel_sweep_{tag}_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Acceptance property: `--threads 4` produces a byte-identical
    /// report to `--threads 1` on every deterministic field, for
    /// arbitrary dataset seeds and run seeds.
    #[test]
    fn four_workers_match_one_worker_bit_for_bit(
        data_seed in 0u64..50,
        run_seed in 0u64..50,
    ) {
        let datasets = grid_datasets(data_seed);
        let algorithms = [Algorithm::NaiveDt, Algorithm::NaiveGbdt, Algorithm::Arf];
        let mut cfg = HarnessConfig {
            seed: run_seed,
            ..Default::default()
        };
        cfg.learner.epochs = 1;

        let sequential = run_sweep(&datasets, &algorithms, &cfg, None, None, 1).unwrap();
        let parallel = run_sweep(&datasets, &algorithms, &cfg, None, None, 4).unwrap();
        prop_assert_eq!(digest(&sequential), digest(&parallel));
    }

    /// Kill the parallel sweep mid-flight at an arbitrary cell, then
    /// resume from its checkpoint (again in parallel): the merged report
    /// equals the uninterrupted sequential run's.
    #[test]
    fn killed_parallel_sweep_resumes_to_the_sequential_report(
        kill_after in 0usize..6,
        threads in 1usize..5,
        run_seed in 0u64..30,
    ) {
        let datasets = grid_datasets(7);
        let algorithms = [Algorithm::NaiveDt, Algorithm::Arf, Algorithm::NaiveGbdt];
        let mut cfg = HarnessConfig {
            seed: run_seed,
            ..Default::default()
        };
        cfg.learner.epochs = 1;

        let uninterrupted = run_sweep(&datasets, &algorithms, &cfg, None, None, 1).unwrap();
        prop_assert_eq!(uninterrupted.records.len(), 6);

        let path = temp_checkpoint(&format!("{kill_after}_{threads}_{run_seed}"));
        let partial =
            run_sweep(&datasets, &algorithms, &cfg, Some(&path), Some(kill_after), threads)
                .unwrap();
        // The partial report is a prefix of the sequential one.
        prop_assert_eq!(
            digest(&partial),
            digest(&uninterrupted)[..partial.records.len()].to_vec()
        );
        let resumed =
            run_sweep(&datasets, &algorithms, &cfg, Some(&path), None, threads).unwrap();
        let checkpoint = std::fs::read_to_string(&path).unwrap();
        let checkpoint_lines: Vec<&str> =
            checkpoint.lines().filter(|l| !l.trim().is_empty()).collect();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(digest(&resumed), digest(&uninterrupted));
        // No cell ran twice: the header line, then one checkpoint line
        // per grid cell.
        prop_assert!(checkpoint_lines[0].starts_with("{\"header\":"));
        prop_assert_eq!(checkpoint_lines.len(), 1 + 6);
    }

    /// Supervision acceptance property: with a retry budget and a
    /// generous wall-clock deadline armed (and no faults, so neither is
    /// ever spent), a supervised 4-worker sweep is bit-identical to the
    /// unsupervised single-worker run — supervision is a strict no-op on
    /// healthy streams.
    #[test]
    fn armed_supervision_is_a_noop_on_healthy_streams(
        data_seed in 0u64..50,
        run_seed in 0u64..50,
    ) {
        let datasets = grid_datasets(data_seed);
        let algorithms = [Algorithm::NaiveDt, Algorithm::NaiveGbdt, Algorithm::Arf];
        let mut cfg = HarnessConfig {
            seed: run_seed,
            ..Default::default()
        };
        cfg.learner.epochs = 1;
        let supervised_cfg = HarnessConfig {
            supervise: SupervisePolicy {
                max_retries: 2,
                backoff_base: Duration::from_millis(1),
                wall_deadline: Some(Duration::from_secs(3600)),
                ..SupervisePolicy::unsupervised()
            },
            ..cfg.clone()
        };

        let unsupervised = run_sweep(&datasets, &algorithms, &cfg, None, None, 1).unwrap();
        let supervised =
            run_sweep(&datasets, &algorithms, &supervised_cfg, None, None, 4).unwrap();
        prop_assert_eq!(digest(&unsupervised), digest(&supervised));
        let s = supervised.supervision();
        prop_assert_eq!(s.retries, 0);
        prop_assert_eq!(s.quarantined, 0);
    }

    /// A logical windows budget times cells out identically at any
    /// worker count — the deadline is part of the deterministic
    /// contract, not a wall-clock artefact.
    #[test]
    fn logical_deadlines_are_deterministic_across_workers(
        threads in 1usize..5,
        run_seed in 0u64..30,
    ) {
        let datasets = grid_datasets(11);
        let algorithms = [Algorithm::NaiveDt, Algorithm::Arf];
        let mut cfg = HarnessConfig {
            seed: run_seed,
            supervise: SupervisePolicy {
                max_windows: Some(2),
                ..SupervisePolicy::unsupervised()
            },
            ..Default::default()
        };
        cfg.learner.epochs = 1;

        let reference = run_sweep(&datasets, &algorithms, &cfg, None, None, 1).unwrap();
        prop_assert!(
            reference.timed_out().count() > 0,
            "a 2-window budget must time out some cell"
        );
        let replay = run_sweep(&datasets, &algorithms, &cfg, None, None, threads).unwrap();
        prop_assert_eq!(digest(&reference), digest(&replay));
    }
}

/// An already-expired wall-clock deadline stops every cell at its first
/// window check, before any work, at any worker count: the deadline is
/// read at the same cooperative points as the logical budget. With a
/// retry budget, every attempt times out again and the cell is
/// quarantined.
#[test]
fn expired_wall_deadline_times_out_every_cell() {
    let datasets = grid_datasets(3);
    let algorithms = [Algorithm::NaiveDt, Algorithm::Arf];
    let expired = |max_retries| HarnessConfig {
        supervise: SupervisePolicy {
            wall_deadline: Some(Duration::ZERO),
            max_retries,
            backoff_base: Duration::ZERO,
            ..SupervisePolicy::unsupervised()
        },
        ..Default::default()
    };
    for threads in [1, 4] {
        let report = run_sweep(&datasets, &algorithms, &expired(0), None, None, threads).unwrap();
        assert_eq!(report.records.len(), 4);
        for r in &report.records {
            assert_eq!(
                r.outcome,
                RunOutcome::TimedOut {
                    windows: 0,
                    items: 0,
                    wall: true
                },
                "{} x {} at {threads} threads",
                r.dataset,
                r.algorithm
            );
        }
        assert_eq!(report.supervision().wall_timeouts, 4);

        let report = run_sweep(&datasets, &algorithms, &expired(1), None, None, threads).unwrap();
        for r in &report.records {
            assert!(
                matches!(
                    &r.outcome,
                    RunOutcome::Quarantined { attempts: 2, kind, .. } if kind == "cell-timed-out"
                ),
                "{} x {} at {threads} threads: {:?}",
                r.dataset,
                r.algorithm,
                r.outcome
            );
        }
        assert_eq!(report.supervision().quarantined, 4);
    }
}
