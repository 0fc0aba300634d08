//! Chaos-soak harness: the fault-plan × drift cross-product, executed
//! under full supervision with invariants checked after the run.
//!
//! Each scenario pairs one fault axis (a single [`FaultKind`] at an
//! aggressive rate, the composed chaos preset, a drop-everything plan,
//! or the clean identity) with one drift regime from the synthetic
//! generator. The scenarios and the control runs go through the grid
//! runner as one grid, and the report checks the supervision contract:
//!
//! - no panic escapes the runner's isolation layer;
//! - every run is accounted for — completed, inapplicable, failed,
//!   timed out, or quarantined, never silently dropped;
//! - quarantined cells are reported with their fault × drift
//!   coordinates;
//! - the `supervise.*` trace counters agree with the record-derived
//!   [`SupervisionSummary`] (when tracing is enabled);
//! - a clean-stream control cell is bit-identical between the
//!   supervised and unsupervised paths;
//! - a tight logical deadline times out deterministically: running the
//!   control twice yields byte-identical reports.
//!
//! Any violated invariant lands in [`ChaosReport::violations`]; the CI
//! smoke gate fails on a non-empty list.

use crate::harness::{DegradePolicy, HarnessConfig};
use crate::learners::Algorithm;
use crate::supervise::SupervisePolicy;
use crate::sweep::{run_grid, supervision_of, RunOutcome, SupervisionSummary};
use oeb_faults::{FaultKind, FaultPlan};
use oeb_synth::{Balance, DriftPattern, LabelMechanism, Level, StreamSpec, TaskSpec};
use oeb_tabular::Domain;
use serde_json::{json, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Chaos-run configuration.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Base seed: streams, fault plans and retry jitter all derive from
    /// it, so a chaos run replays bit-identically.
    pub seed: u64,
    /// Scenarios to execute; `None` runs the full fault × drift grid.
    pub max_cells: Option<usize>,
    /// Worker threads of the scenario grid.
    pub threads: usize,
    /// Retry budget per cell before quarantine.
    pub max_retries: usize,
    /// Rows per synthetic stream.
    pub rows: usize,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 0,
            max_cells: None,
            threads: 1,
            max_retries: 2,
            rows: 480,
        }
    }
}

/// The drift regimes of the cross-product, one per [`DriftPattern`]
/// shape the generator supports.
pub fn drift_regimes() -> Vec<(&'static str, DriftPattern)> {
    vec![
        ("stationary", DriftPattern::Stationary),
        (
            "abrupt",
            DriftPattern::Abrupt {
                breaks: [0.33, 0.66, 0.0],
                n_breaks: 2,
            },
        ),
        ("gradual", DriftPattern::Gradual),
        ("incremental", DriftPattern::Incremental),
        ("recurrent", DriftPattern::Recurrent { cycles: 3.0 }),
        (
            "inc-reoccurring",
            DriftPattern::IncrementalReoccurring { cycles: 2.0 },
        ),
    ]
}

/// The fault axes of the cross-product: the clean identity, every
/// [`FaultKind`] alone at an aggressive rate, the composed chaos
/// preset stacked with an extra NaN axis (exercising
/// [`FaultPlan::compose`]), and a drop-everything plan that forces the
/// retry → quarantine path deterministically (every window dropped ⇒
/// [`HarnessError::EmptyStream`](crate::error::HarnessError::EmptyStream),
/// which is retryable).
pub fn fault_axes(seed: u64) -> Vec<(String, FaultPlan)> {
    // The three structurally interesting axes lead so that a truncated
    // smoke grid still exercises the clean path, the forced quarantine,
    // and plan composition before the single-fault axes.
    let mut axes = vec![
        ("clean".to_string(), FaultPlan::none(seed)),
        (
            "drop-all".to_string(),
            FaultPlan::single(seed, FaultKind::DroppedWindow, 1.0),
        ),
        (
            "chaos-composed".to_string(),
            FaultPlan::chaos(seed).compose(&FaultPlan::single(seed, FaultKind::NanBurst, 0.3)),
        ),
    ];
    for kind in FaultKind::all() {
        axes.push((kind.name().to_string(), FaultPlan::single(seed, kind, 0.35)));
    }
    axes
}

/// One executed scenario of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Fault-axis name (`"clean"`, a [`FaultKind::name`], ...).
    pub fault: String,
    /// Drift-regime name.
    pub drift: String,
    /// Outcome status (`"completed"`, `"failed"`, `"timed-out"`,
    /// `"quarantined"`, ...).
    pub status: String,
    /// One-line outcome description.
    pub detail: String,
    /// Supervision accounting for the scenario's run.
    pub supervision: SupervisionSummary,
}

/// Result of a chaos-soak run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosReport {
    /// Executed scenarios, in grid order.
    pub cells: Vec<ChaosCell>,
    /// Violated invariants; empty on a passing run.
    pub violations: Vec<String>,
    /// Supervision totals across scenarios and control runs.
    pub summary: SupervisionSummary,
}

impl ChaosReport {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Pretty-printed [`ChaosReport::to_json`] with a trailing newline —
    /// the on-disk form `oebench chaos --out` writes and the CI gate
    /// greps.
    pub fn to_json_string(&self) -> String {
        let mut text = serde_json::to_string_pretty(&self.to_json())
            .expect("chaos report serializes infallibly");
        text.push('\n');
        text
    }

    /// JSON form of the report that `oebench chaos --out` writes and the
    /// CI gate reads.
    pub fn to_json(&self) -> Value {
        json!({
            "cells": self.cells.iter().map(|c| json!({
                "fault": c.fault,
                "drift": c.drift,
                "status": c.status,
                "detail": c.detail,
                "retries": c.supervision.retries as u64,
                "quarantined": c.supervision.quarantined as u64,
            })).collect::<Vec<_>>(),
            "violations": self.violations,
            "summary": {
                "retries": self.summary.retries as u64,
                "recovered": self.summary.recovered as u64,
                "timeouts": self.summary.timeouts as u64,
                "wall_timeouts": self.summary.wall_timeouts as u64,
                "quarantined": self.summary.quarantined as u64,
            },
        })
    }
}

fn spec_for(name: &str, drift: DriftPattern, rows: usize, seed: u64) -> StreamSpec {
    StreamSpec {
        name: name.into(),
        domain: Domain::Others,
        n_rows: rows,
        n_numeric: 3,
        categorical: vec![],
        task: TaskSpec::Classification {
            n_classes: 2,
            mechanism: LabelMechanism::XToY,
            balance: Balance::Balanced,
            label_noise: 0.02,
        },
        drift_pattern: drift,
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

fn chaos_config(seed: u64, plan: &FaultPlan, supervise: SupervisePolicy) -> HarnessConfig {
    let mut config = HarnessConfig {
        seed,
        degrade: DegradePolicy::resilient(),
        supervise,
        ..Default::default()
    };
    config.learner.epochs = 1;
    if !plan.is_clean() {
        config.fault_plan = Some(plan.clone());
    }
    config
}

/// The deterministic half of an outcome, floats by bit pattern — two
/// equal digests mean byte-identical reproducible fields.
fn digest(outcome: &RunOutcome) -> String {
    match outcome {
        RunOutcome::Completed(res) => {
            let losses: Vec<String> = res
                .per_window_loss
                .iter()
                .map(|l| format!("{:016x}", l.to_bits()))
                .collect();
            format!(
                "completed mean={:016x} items={} losses=[{}] deg={:?}",
                res.mean_loss.to_bits(),
                res.items,
                losses.join(","),
                res.degradations
            )
        }
        other => other.describe(),
    }
}

/// Executes the fault × drift matrix under supervision and checks every
/// invariant. Never panics; a cell failure is an outcome, and a broken
/// invariant is a violation in the report.
///
/// The scenarios and the four control runs (the clean control,
/// supervised and unsupervised, and the deadline control and its
/// replay) are one grid, run on `options.threads` workers; the report is
/// the same for every worker count.
pub fn run_chaos_matrix(options: &ChaosOptions) -> ChaosReport {
    let axes = fault_axes(options.seed);
    let drifts = drift_regimes();
    let policy = SupervisePolicy {
        max_retries: options.max_retries,
        backoff_base: Duration::from_millis(1),
        ..SupervisePolicy::unsupervised()
    };
    // A tight logical budget must time the cell out, and must do so
    // identically on a replay.
    let tight = SupervisePolicy {
        max_windows: Some(2),
        ..policy
    };
    // The control runs, after the scenarios: the clean control,
    // supervised then unsupervised, and the deadline control twice.
    let clean = FaultPlan::none(options.seed);
    let controls = [
        ("chaos-control", policy),
        ("chaos-control", SupervisePolicy::unsupervised()),
        ("chaos-deadline", tight),
        ("chaos-deadline", tight),
    ];
    let before = oeb_trace::enabled().then(oeb_trace::snapshot);

    let mut report = ChaosReport::default();

    // Diagonal enumeration of the grid: axis count (11) and drift count
    // (6) are coprime, so step k visits pair (k % axes, k % drifts)
    // without repetition and a truncated smoke run still spans many
    // faults *and* many drifts instead of one row of the matrix.
    let total = axes.len() * drifts.len();
    let n_cells = options.max_cells.unwrap_or(total).min(total);
    let n_runs = n_cells + controls.len();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        run_grid(
            n_runs,
            options.threads,
            |k| {
                let (name, drift, plan, supervise) = if k < n_cells {
                    let (fault_name, plan) = &axes[k % axes.len()];
                    let (drift_name, drift) = drifts[k % drifts.len()];
                    (format!("{fault_name}×{drift_name}"), drift, plan, policy)
                } else {
                    let (name, supervise) = controls[k - n_cells];
                    (name.to_string(), DriftPattern::Gradual, &clean, supervise)
                };
                let spec = spec_for(&name, drift, options.rows, options.seed);
                let dataset = oeb_synth::generate(&spec, options.seed);
                let config = chaos_config(options.seed, plan, supervise);
                (dataset, Algorithm::NaiveDt, config)
            },
            |_, _| {},
        )
    }));
    let outcomes = match ran {
        Ok(outcomes) => outcomes,
        Err(_) => {
            report
                .violations
                .push("a panic escaped the supervised runner".into());
            return report;
        }
    };
    // Every run accounted for: one outcome per scenario, then the four
    // control runs.
    let Some((scenarios, [supervised, unsupervised, deadline, replay])) = outcomes
        .split_last_chunk()
        .filter(|(scenarios, _)| scenarios.len() == n_cells)
    else {
        report.violations.push(format!(
            "{} of {n_runs} runs reported — runs were dropped",
            outcomes.len()
        ));
        return report;
    };

    for (k, outcome) in scenarios.iter().enumerate() {
        report.cells.push(ChaosCell {
            fault: axes[k % axes.len()].0.clone(),
            drift: drifts[k % drifts.len()].0.to_string(),
            status: status_of(outcome).to_string(),
            detail: outcome.describe(),
            supervision: supervision_of([outcome]),
        });
    }

    // The forced-quarantine axis must actually quarantine (when the
    // truncated grid includes it): every window dropped is an
    // EmptyStream failure on each of the 1 + max_retries attempts.
    for cell in &report.cells {
        if cell.fault == "drop-all" && cell.status != "quarantined" {
            report.violations.push(format!(
                "drop-all×{}: expected quarantine, got {}",
                cell.drift, cell.status
            ));
        }
    }

    // Clean-stream control: the supervised path (retry budget armed but
    // untouched) must be bit-identical to the unsupervised one.
    if digest(supervised) != digest(unsupervised) {
        report
            .violations
            .push("clean control: supervised report diverged from the unsupervised path".into());
    }

    // Deadline control: the 2-window budget times the cell out on both
    // runs, identically.
    if !matches!(deadline, RunOutcome::TimedOut { .. }) {
        report.violations.push(format!(
            "deadline control: {} under a 2-window budget",
            deadline.describe()
        ));
    }
    if digest(deadline) != digest(replay) {
        report.violations.push(
            "deadline control: replay diverged — logical timeout is not deterministic".into(),
        );
    }
    report.summary = supervision_of(scenarios.iter().chain([supervised, deadline, replay]));

    // Counter contract: the deterministic `supervise.*` counters must
    // agree with the record-derived summary. Wall-clock events would be
    // legitimate skew, but this harness configures none.
    if let Some(before) = before {
        let after = oeb_trace::snapshot();
        let delta = |name: &str| {
            after
                .counters
                .get(name)
                .copied()
                .unwrap_or(0)
                .saturating_sub(before.counters.get(name).copied().unwrap_or(0))
        };
        let checks = [
            ("supervise.retries", report.summary.retries as u64),
            ("supervise.timeouts", report.summary.timeouts as u64),
            ("supervise.quarantined", report.summary.quarantined as u64),
        ];
        for (name, expected) in checks {
            let got = delta(name);
            if got != expected {
                report.violations.push(format!(
                    "counter {name} moved by {got}, records say {expected}"
                ));
            }
        }
    }

    report
}

fn status_of(outcome: &RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Completed(_) => "completed",
        RunOutcome::Inapplicable => "inapplicable",
        RunOutcome::Failed { .. } => "failed",
        RunOutcome::TimedOut { .. } => "timed-out",
        RunOutcome::Quarantined { .. } => "quarantined",
    }
}
