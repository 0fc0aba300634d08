//! Resilient (dataset, learner) sweeps: panic isolation, typed failure
//! reporting, and JSON-lines checkpoint/resume.
//!
//! A benchmark sweep crosses every dataset with every learner; one
//! panicking run (a diverging network, a malformed window) must not take
//! the other hundreds of runs down with it. [`run_sweep`] wraps each run
//! in [`std::panic::catch_unwind`], records the outcome — completed,
//! inapplicable, or failed with a reason — and appends it to a
//! checkpoint file as one JSON object per line. Re-running the same
//! sweep against the same checkpoint skips every pair already recorded,
//! so an interrupted sweep resumes from the last completed pair and
//! produces the same final report as an uninterrupted one. The file's
//! first line is a header naming the sweep its records belong to; a
//! checkpoint of any other sweep (another seed, scale, dataset content,
//! learner list or result-bearing config) is refused, not resumed.

use crate::error::HarnessError;
use crate::executor::parallel_map;
use crate::harness::{try_run_stream, HarnessConfig, RunResult};
use crate::learners::Algorithm;
use crate::supervise::{cell_seed, supervise_cell, SupervisePolicy};
use oeb_tabular::StreamDataset;
use oeb_trace::{CellCtx, Counter, SpanDef};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

// Sweep cell accounting: grid size, cells resolved from a checkpoint
// (resume), cells actually executed this invocation, and failures. All
// schedule-invariant — they depend on the grid and the checkpoint, never
// on which worker ran what.
static CELLS_TOTAL: Counter = Counter::new("sweep.cells.total");
static CELLS_RESUMED: Counter = Counter::new("sweep.cells.resumed");
static CELLS_EXECUTED: Counter = Counter::new("sweep.cells.executed");
static CELLS_FAILED: Counter = Counter::new("sweep.cells.failed");
static CELL_SPAN: SpanDef = SpanDef::new("sweep.cell");

/// Whether [`run_sweep`] emits a stderr progress line per finished cell.
/// Off by default so library callers and tests stay quiet; the CLI sweep
/// command turns it on.
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Enables/disables the per-cell stderr progress line.
pub fn set_sweep_progress(enabled: bool) {
    PROGRESS.store(enabled, Ordering::Relaxed);
}

/// Resume-aware progress accounting for one sweep invocation.
///
/// `done` starts at the number of cells resolved from the checkpoint, so
/// a killed-and-resumed sweep reports `done/total` over the *whole* grid
/// instead of recounting the new work from zero.
struct SweepProgress {
    total: usize,
    resumed: usize,
    done: AtomicUsize,
    emit: bool,
}

impl SweepProgress {
    fn new(total: usize, resumed: usize, emit: bool) -> Self {
        SweepProgress {
            total,
            resumed,
            done: AtomicUsize::new(resumed),
            emit,
        }
    }

    /// Records one finished cell; returns the cumulative (done, total).
    fn note_done(&self) -> (usize, usize) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.emit {
            eprintln!(
                "[sweep] {done}/{} cells done ({} resumed from checkpoint)",
                self.total, self.resumed
            );
        }
        (done, self.total)
    }
}

/// What happened to one (dataset, learner) run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run finished and produced a result.
    Completed(RunResult),
    /// The algorithm does not apply to the dataset's task.
    Inapplicable,
    /// The run failed; `reason` is the rendered [`HarnessError`] or
    /// panic message, `kind` the stable failure class.
    Failed {
        /// Stable kebab-case failure class ([`HarnessError::kind`] or
        /// `"panicked"`).
        kind: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The cell exceeded a supervision deadline and was cancelled
    /// cooperatively.
    TimedOut {
        /// Windows entered before the deadline fired.
        windows: usize,
        /// Items tested/trained before the deadline fired.
        items: usize,
        /// `true` for the wall-clock deadline (machine-dependent),
        /// `false` for a logical budget (deterministic).
        wall: bool,
    },
    /// Every attempt the retry budget allowed failed; the cell is parked
    /// with its last failure instead of aborting the sweep.
    Quarantined {
        /// Attempts spent (first run plus retries).
        attempts: usize,
        /// Stable failure class of the final attempt.
        kind: String,
        /// Human-readable reason of the final attempt.
        reason: String,
    },
}

impl RunOutcome {
    /// One-line human-readable summary (for sweep listings).
    pub fn describe(&self) -> String {
        match self {
            RunOutcome::Completed(r) => format!("completed (mean loss {:.4})", r.mean_loss),
            RunOutcome::Inapplicable => "inapplicable".into(),
            RunOutcome::Failed { kind, reason } => format!("failed [{kind}]: {reason}"),
            RunOutcome::TimedOut {
                windows,
                items,
                wall,
            } => format!(
                "timed out [{}] after {windows} windows / {items} items",
                if *wall { "wall-clock" } else { "logical" }
            ),
            RunOutcome::Quarantined {
                attempts,
                kind,
                reason,
            } => format!("quarantined after {attempts} attempts [{kind}]: {reason}"),
        }
    }
}

/// One sweep cell: the pair identity plus its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name (stable, from [`Algorithm::name`]).
    pub algorithm: String,
    /// What happened.
    pub outcome: RunOutcome,
}

/// Result of a sweep: one record per (dataset, algorithm) pair, in
/// iteration order (datasets outer, algorithms inner).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    /// All records.
    pub records: Vec<SweepRecord>,
}

impl SweepReport {
    /// Completed runs.
    pub fn completed(&self) -> impl Iterator<Item = (&SweepRecord, &RunResult)> {
        self.records.iter().filter_map(|r| match &r.outcome {
            RunOutcome::Completed(res) => Some((r, res)),
            _ => None,
        })
    }

    /// Failed runs.
    pub fn failed(&self) -> impl Iterator<Item = &SweepRecord> {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, RunOutcome::Failed { .. }))
    }

    /// (completed, inapplicable, failed) counts. Timed-out and
    /// quarantined cells count as failed: they produced no result.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.records {
            match r.outcome {
                RunOutcome::Completed(_) => c.0 += 1,
                RunOutcome::Inapplicable => c.1 += 1,
                RunOutcome::Failed { .. }
                | RunOutcome::TimedOut { .. }
                | RunOutcome::Quarantined { .. } => c.2 += 1,
            }
        }
        c
    }

    /// Quarantined cells.
    pub fn quarantined(&self) -> impl Iterator<Item = &SweepRecord> {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, RunOutcome::Quarantined { .. }))
    }

    /// Timed-out cells.
    pub fn timed_out(&self) -> impl Iterator<Item = &SweepRecord> {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, RunOutcome::TimedOut { .. }))
    }

    /// Supervision accounting derived purely from the serialized records,
    /// so the summary survives checkpoint round-trips and resumes: a
    /// recovered cell carries its `supervision:` degradation line, a
    /// quarantined cell its attempt count.
    pub fn supervision(&self) -> SupervisionSummary {
        let mut s = SupervisionSummary::default();
        for r in &self.records {
            match &r.outcome {
                RunOutcome::Completed(res) => {
                    for d in &res.degradations {
                        if let Some(rest) = d.strip_prefix(RECOVERY_PREFIX) {
                            s.recovered += 1;
                            let attempts: usize = rest
                                .split_whitespace()
                                .next()
                                .and_then(|t| t.parse().ok())
                                .unwrap_or(1);
                            s.retries += attempts.saturating_sub(1);
                        }
                    }
                }
                RunOutcome::TimedOut { wall, .. } => {
                    if *wall {
                        s.wall_timeouts += 1;
                    } else {
                        s.timeouts += 1;
                    }
                }
                RunOutcome::Quarantined { attempts, .. } => {
                    s.quarantined += 1;
                    s.retries += attempts.saturating_sub(1);
                }
                RunOutcome::Inapplicable | RunOutcome::Failed { .. } => {}
            }
        }
        s
    }
}

/// The prefix [`crate::supervise::Supervised::recovery_note`] uses; the
/// attempt count follows it.
const RECOVERY_PREFIX: &str = "supervision: recovered on attempt ";

/// What supervision did across a sweep, derived from its records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionSummary {
    /// Retries spent, across recovered and quarantined cells.
    pub retries: usize,
    /// Cells that failed at least once and then completed.
    pub recovered: usize,
    /// Cells stopped by a logical (deterministic) deadline.
    pub timeouts: usize,
    /// Cells stopped by the wall-clock deadline (machine-dependent).
    pub wall_timeouts: usize,
    /// Cells parked after exhausting their retry budget.
    pub quarantined: usize,
}

/// Runs `datasets x algorithms` through the harness with panic isolation,
/// optional checkpointing, and up to `threads` parallel workers.
///
/// - `checkpoint`: when set, every finished pair is appended to this
///   JSON-lines file, and pairs already recorded there are *not* re-run —
///   their stored outcome enters the report instead (resume). A new file
///   starts with a header line naming the sweep (a digest of the
///   result-bearing config, the seed, the learners, and each dataset's
///   name, row count and content); an existing one must start with the
///   same header, or the sweep fails with
///   [`HarnessError::CheckpointMismatch`] before running any cell.
/// - `max_new_runs`: when set, stop after this many *new* runs (pairs
///   loaded from the checkpoint do not count). The report then contains
///   only the records finished so far; invoke again with the same
///   checkpoint to continue. This is how an interruption mid-sweep looks
///   to the caller.
/// - `threads`: worker count (resolve with
///   [`crate::executor::resolve_threads`]; 1 = sequential). The report is
///   identical for every thread count: cells are scheduled greedily but
///   collected in cell order, and each cell seeds its RNGs from its own
///   coordinates. Only the *line order* inside the checkpoint file varies
///   with scheduling, and resume never depends on it.
///
/// Supervision (`config.supervise`): per-cell logical and wall-clock
/// deadlines produce typed [`RunOutcome::TimedOut`] records, retryable
/// failures are retried with seeded backoff, and cells that exhaust the
/// budget land in [`RunOutcome::Quarantined`]. With no deadline hits and
/// no retries spent, the report and checkpoint are bit-identical to the
/// unsupervised sweep's at any thread count. All retry decisions derive
/// from [`cell_seed`], so replaying a sweep replays every retry sequence
/// bit-for-bit; only wall-clock timeouts (marked `wall: true`) are
/// machine-dependent.
pub fn run_sweep(
    datasets: &[StreamDataset],
    algorithms: &[Algorithm],
    config: &HarnessConfig,
    checkpoint: Option<&Path>,
    max_new_runs: Option<usize>,
    threads: usize,
) -> Result<SweepReport, HarnessError> {
    config.validate()?;
    let header = checkpoint_header(datasets, algorithms, config);
    let mut done: HashMap<(String, String), RunOutcome> = HashMap::new();
    // A fresh checkpoint (missing or empty) gets the header before its
    // first record.
    let mut fresh = true;
    if let Some(path) = checkpoint {
        let loaded = load_checkpoint(path)?;
        match &loaded.header {
            Some(found) => check_header(found, &header)?,
            None if loaded.records.is_empty() => {}
            None => {
                return Err(HarnessError::CheckpointMismatch(format!(
                    "{} has no header line, so nothing shows which sweep its {} records \
                     belong to; start a new checkpoint",
                    path.display(),
                    loaded.records.len()
                )))
            }
        }
        fresh = loaded.header.is_none();
        for record in loaded.records {
            done.insert(
                (record.dataset.clone(), record.algorithm.clone()),
                record.outcome,
            );
        }
    }

    // The full cell grid in report order (datasets outer, algorithms
    // inner), each cell resolved from the checkpoint where possible.
    let cells: Vec<(usize, usize)> = (0..datasets.len())
        .flat_map(|d| (0..algorithms.len()).map(move |a| (d, a)))
        .collect();
    let mut outcomes: Vec<Option<RunOutcome>> = cells
        .iter()
        .map(|&(d, a)| {
            done.get(&(datasets[d].name.clone(), algorithms[a].name().to_string()))
                .cloned()
        })
        .collect();

    // New work = unresolved cells in order, truncated to the run budget.
    let mut to_run: Vec<usize> = (0..cells.len())
        .filter(|&i| outcomes[i].is_none())
        .collect();
    if let Some(limit) = max_new_runs {
        to_run.truncate(limit);
    }

    let resumed = cells.len() - (outcomes.iter().filter(|o| o.is_none()).count());
    CELLS_TOTAL.add(cells.len() as u64);
    CELLS_RESUMED.add(resumed as u64);
    CELLS_EXECUTED.add(to_run.len() as u64);
    let progress = SweepProgress::new(cells.len(), resumed, PROGRESS.load(Ordering::Relaxed));

    if !to_run.is_empty() {
        // One writer, shared by all workers; appends happen as cells
        // finish, so an interrupt loses at most the in-flight cells.
        let writer: Option<Mutex<std::fs::File>> = match checkpoint {
            Some(path) => {
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| HarnessError::Io(format!("open {}: {e}", path.display())))?;
                if fresh {
                    writeln!(file, "{}", json_line(&header)?)
                        .map_err(|e| HarnessError::Io(format!("write checkpoint: {e}")))?;
                }
                Some(Mutex::new(file))
            }
            None => None,
        };
        let append_error: Mutex<Option<HarnessError>> = Mutex::new(None);

        let ran: Vec<RunOutcome> = parallel_map(to_run.len(), threads, |slot| {
            let (d, a) = cells[to_run[slot]];
            // Ambient attribution: every span recorded while this cell
            // runs (prepare stages, evaluate stages, the cell span
            // itself) carries its (dataset, learner, seed, rows).
            let _ctx = CellCtx {
                dataset: datasets[d].name.clone(),
                learner: algorithms[a].name().to_string(),
                seed: cell_seed(config.seed, &datasets[d].name, algorithms[a].name()),
                rows: datasets[d].n_rows() as u64,
            }
            .install();
            let cell_span = CELL_SPAN.start();
            let outcome = run_supervised(&datasets[d], algorithms[a], config);
            drop(cell_span);
            if matches!(
                outcome,
                RunOutcome::Failed { .. }
                    | RunOutcome::TimedOut { .. }
                    | RunOutcome::Quarantined { .. }
            ) {
                CELLS_FAILED.incr();
            }
            progress.note_done();
            if let Some(writer) = &writer {
                let record = SweepRecord {
                    dataset: datasets[d].name.clone(),
                    algorithm: algorithms[a].name().to_string(),
                    outcome: outcome.clone(),
                };
                if let Err(e) = write_checkpoint_line(writer, &record) {
                    lock_recover(&append_error).get_or_insert(e);
                }
            }
            outcome
        });
        if let Some(e) = append_error
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
        {
            return Err(e);
        }
        for (slot, outcome) in to_run.iter().zip(ran) {
            outcomes[*slot] = Some(outcome);
        }
    }

    // The report is the prefix of the grid up to the first cell the run
    // budget excluded — exactly where the sequential loop stopped.
    let mut report = SweepReport::default();
    for (&(d, a), outcome) in cells.iter().zip(outcomes) {
        let Some(outcome) = outcome else { break };
        report.records.push(SweepRecord {
            dataset: datasets[d].name.clone(),
            algorithm: algorithms[a].name().to_string(),
            outcome,
        });
    }
    Ok(report)
}

/// One cell under `config.supervise`: each attempt runs with panic
/// isolation and a fresh budget (`try_run_stream` starts it at the
/// evaluate stage); the retry state machine ([`supervise_cell`]) turns
/// the attempt sequence into a single outcome.
fn run_supervised(
    dataset: &StreamDataset,
    algorithm: Algorithm,
    config: &HarnessConfig,
) -> RunOutcome {
    let seed = cell_seed(config.seed, &dataset.name, algorithm.name());
    let supervised = supervise_cell(&config.supervise, seed, |_attempt| {
        match catch_unwind(AssertUnwindSafe(|| {
            try_run_stream(dataset, algorithm, config)
        })) {
            Ok(result) => result,
            Err(payload) => Err(HarnessError::Panicked(panic_message(payload.as_ref()))),
        }
    });
    let note = supervised.recovery_note();
    match supervised.result {
        Ok(mut run) => {
            if let Some(note) = note {
                run.degradations.push(note);
            }
            RunOutcome::Completed(run)
        }
        Err(HarnessError::NotApplicable { .. }) => RunOutcome::Inapplicable,
        Err(HarnessError::CellTimedOut {
            windows,
            items,
            wall,
        }) => RunOutcome::TimedOut {
            windows,
            items,
            wall,
        },
        Err(HarnessError::Quarantined {
            attempts,
            last_kind,
            reason,
        }) => RunOutcome::Quarantined {
            attempts,
            kind: last_kind,
            reason,
        },
        Err(e) => RunOutcome::Failed {
            kind: e.kind().to_string(),
            reason: e.to_string(),
        },
    }
}

/// Locks a mutex, recovering from poisoning: a worker that panicked
/// while holding one of these locks either wrote its value completely or
/// not at all, so later cells must keep checkpointing instead of turning
/// every subsequent append into a second panic.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

// ---------------------------------------------------------------------
// Checkpoint serialisation (one JSON object per line).

/// The value of a header line's `"header"` field (the checkpoint format).
const HEADER_FORMAT: &str = "oebench-sweep/1";

/// The identity of a sweep, written as its checkpoint's first line: what
/// the records below it are results of. It holds
///
/// - `config`: an FNV-1a digest of every result-bearing
///   [`HarnessConfig`] field, i.e. all of them except `supervise` (a
///   deadline or retry budget changes no completed cell's result);
/// - `seed`, and `learners` in grid order;
/// - `datasets`: each one's name, row count and content fingerprint
///   ([`StreamDataset::fingerprint`]), which tells one `--scale` or
///   generation seed from another.
///
/// The run budget (`max_new_runs`) and the thread count are no part of
/// it: neither changes a completed cell.
fn checkpoint_header(
    datasets: &[StreamDataset],
    algorithms: &[Algorithm],
    config: &HarnessConfig,
) -> Value {
    let result_config = HarnessConfig {
        supervise: SupervisePolicy::unsupervised(),
        ..config.clone()
    };
    let learners: Vec<&str> = algorithms.iter().map(|a| a.name()).collect();
    let datasets: Vec<Value> = datasets
        .iter()
        .map(|d| {
            json!({
                "name": d.name.as_str(),
                "rows": d.n_rows() as u64,
                "content": format!("{:016x}", d.fingerprint()),
            })
        })
        .collect();
    json!({
        "header": HEADER_FORMAT,
        "config": format!("{:016x}", fnv1a(format!("{result_config:?}").as_bytes())),
        "seed": config.seed,
        "learners": learners,
        "datasets": datasets,
    })
}

/// 64-bit FNV-1a: a digest that stays the same across builds and runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Refuses a checkpoint written by another sweep, naming the first
/// header field that differs.
fn check_header(found: &Value, expected: &Value) -> Result<(), HarnessError> {
    if found == expected {
        return Ok(());
    }
    let field = ["header", "seed", "learners", "datasets", "config"]
        .into_iter()
        .find(|key| found.get(key) != expected.get(key))
        .unwrap_or("header");
    let show = |v: &Value| {
        v.get(field).map_or_else(
            || "none".to_string(),
            |x| serde_json::to_string(x).unwrap_or_default(),
        )
    };
    Err(HarnessError::CheckpointMismatch(format!(
        "the checkpoint belongs to another sweep: {field} {} in the checkpoint, {} in this sweep",
        show(found),
        show(expected),
    )))
}

fn json_line(value: &Value) -> Result<String, HarnessError> {
    serde_json::to_string(value).map_err(|e| HarnessError::Checkpoint(e.to_string()))
}

fn outcome_to_json(outcome: &RunOutcome) -> Value {
    match outcome {
        RunOutcome::Completed(r) => json!({
            "status": "completed",
            "per_window_loss": r.per_window_loss,
            "mean_loss": r.mean_loss,
            "train_seconds": r.train_seconds,
            "test_seconds": r.test_seconds,
            "items": r.items as u64,
            "throughput": r.throughput,
            "memory_bytes": r.memory_bytes as u64,
            "degradations": r.degradations,
        }),
        RunOutcome::Inapplicable => json!({ "status": "inapplicable" }),
        RunOutcome::Failed { kind, reason } => json!({
            "status": "failed",
            "kind": kind,
            "reason": reason,
        }),
        RunOutcome::TimedOut {
            windows,
            items,
            wall,
        } => json!({
            "status": "timed-out",
            "windows": *windows as u64,
            "items": *items as u64,
            "wall": wall,
        }),
        RunOutcome::Quarantined {
            attempts,
            kind,
            reason,
        } => json!({
            "status": "quarantined",
            "attempts": *attempts as u64,
            "kind": kind,
            "reason": reason,
        }),
    }
}

fn record_to_json(record: &SweepRecord) -> Value {
    let mut v = outcome_to_json(&record.outcome);
    if let Some(obj) = v.as_object_mut() {
        obj.insert("dataset", Value::from(record.dataset.as_str()));
        obj.insert("algorithm", Value::from(record.algorithm.as_str()));
    }
    v
}

fn field<'a>(v: &'a Value, key: &str, line: usize) -> Result<&'a Value, HarnessError> {
    v.get(key)
        .ok_or_else(|| HarnessError::Checkpoint(format!("line {line}: missing field {key:?}")))
}

fn str_field(v: &Value, key: &str, line: usize) -> Result<String, HarnessError> {
    Ok(field(v, key, line)?
        .as_str()
        .ok_or_else(|| HarnessError::Checkpoint(format!("line {line}: {key:?} not a string")))?
        .to_string())
}

fn f64_field(v: &Value, key: &str, line: usize) -> Result<f64, HarnessError> {
    // Non-finite floats serialise as null (JSON has no NaN literal).
    let value = field(v, key, line)?;
    if value.is_null() {
        return Ok(f64::NAN);
    }
    value
        .as_f64()
        .ok_or_else(|| HarnessError::Checkpoint(format!("line {line}: {key:?} not a number")))
}

fn usize_field(v: &Value, key: &str, line: usize) -> Result<usize, HarnessError> {
    field(v, key, line)?
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| {
            HarnessError::Checkpoint(format!("line {line}: {key:?} not an unsigned integer"))
        })
}

fn bool_field(v: &Value, key: &str, line: usize) -> Result<bool, HarnessError> {
    field(v, key, line)?
        .as_bool()
        .ok_or_else(|| HarnessError::Checkpoint(format!("line {line}: {key:?} not a boolean")))
}

/// Every field must carry the type [`outcome_to_json`] writes: a value
/// of another type is corruption, not a default.
fn record_from_json(v: &Value, line: usize) -> Result<SweepRecord, HarnessError> {
    let dataset = str_field(v, "dataset", line)?;
    let algorithm = str_field(v, "algorithm", line)?;
    let status = str_field(v, "status", line)?;
    let outcome = match status.as_str() {
        "inapplicable" => RunOutcome::Inapplicable,
        "failed" => RunOutcome::Failed {
            kind: str_field(v, "kind", line)?,
            reason: str_field(v, "reason", line)?,
        },
        "timed-out" => RunOutcome::TimedOut {
            windows: usize_field(v, "windows", line)?,
            items: usize_field(v, "items", line)?,
            wall: bool_field(v, "wall", line)?,
        },
        "quarantined" => RunOutcome::Quarantined {
            attempts: usize_field(v, "attempts", line)?,
            kind: str_field(v, "kind", line)?,
            reason: str_field(v, "reason", line)?,
        },
        "completed" => {
            let losses = field(v, "per_window_loss", line)?
                .as_array()
                .ok_or_else(|| {
                    HarnessError::Checkpoint(format!("line {line}: per_window_loss not an array"))
                })?
                .iter()
                .map(|x| match x.as_f64() {
                    Some(loss) => Ok(loss),
                    None if x.is_null() => Ok(f64::NAN),
                    None => Err(HarnessError::Checkpoint(format!(
                        "line {line}: \"per_window_loss\" entry not a number"
                    ))),
                })
                .collect::<Result<_, _>>()?;
            let degradations = field(v, "degradations", line)?
                .as_array()
                .and_then(|xs| {
                    xs.iter()
                        .map(|x| x.as_str().map(str::to_string))
                        .collect::<Option<_>>()
                })
                .ok_or_else(|| {
                    HarnessError::Checkpoint(format!(
                        "line {line}: \"degradations\" not an array of strings"
                    ))
                })?;
            RunOutcome::Completed(RunResult {
                dataset: dataset.clone(),
                algorithm: algorithm.clone(),
                per_window_loss: losses,
                mean_loss: f64_field(v, "mean_loss", line)?,
                train_seconds: f64_field(v, "train_seconds", line)?,
                test_seconds: f64_field(v, "test_seconds", line)?,
                items: usize_field(v, "items", line)?,
                throughput: f64_field(v, "throughput", line)?,
                memory_bytes: usize_field(v, "memory_bytes", line)?,
                degradations,
            })
        }
        other => {
            return Err(HarnessError::Checkpoint(format!(
                "line {line}: unknown status {other:?}"
            )))
        }
    };
    Ok(SweepRecord {
        dataset,
        algorithm,
        outcome,
    })
}

/// A checkpoint file read back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// The first line: the identity of the sweep that wrote the file
    /// (config digest, seed, learners, datasets); `None` when the file is
    /// missing or empty, or its first line is a record.
    pub header: Option<Value>,
    /// Every record, in file order.
    pub records: Vec<SweepRecord>,
}

/// One parsed line of a checkpoint file.
enum CheckpointLine {
    Header(Value),
    Record(SweepRecord),
}

/// Reads a JSON-lines checkpoint file: the header line, then every
/// record. A missing file is an empty checkpoint (fresh sweep), a
/// malformed one a typed error — with one exception: exactly one
/// malformed *trailing* line is treated as a torn write (the process died
/// mid-`write_checkpoint_line`). The torn line is physically truncated
/// from the file — so later appends cannot merge with the fragment into
/// a corrupt mid-file line — a warning goes to stderr, and that cell
/// simply re-runs.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, HarnessError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Checkpoint::default()),
        Err(e) => return Err(HarnessError::Io(format!("read {}: {e}", path.display()))),
    };
    let mut header = None;
    let mut records = Vec::new();
    // Candidate torn line: (line number, byte offset of its start, error).
    let mut torn: Option<(usize, usize, HarnessError)> = None;
    let mut offset = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line_start = offset;
        offset += line.len() + 1;
        if line.trim().is_empty() {
            continue;
        }
        let first = header.is_none() && records.is_empty();
        let parsed = serde_json::from_str(line)
            .map_err(|e| HarnessError::Checkpoint(format!("line {}: {e}", i + 1)))
            .and_then(|value| match value.get("header") {
                // Only the first line may be the header.
                Some(_) if first => Ok(CheckpointLine::Header(value)),
                _ => record_from_json(&value, i + 1).map(CheckpointLine::Record),
            });
        match parsed {
            Ok(line) => {
                if let Some((_, _, e)) = torn {
                    // A malformed line *followed by* a valid one is
                    // mid-file corruption, not a torn tail.
                    return Err(e);
                }
                match line {
                    CheckpointLine::Header(value) => header = Some(value),
                    CheckpointLine::Record(record) => records.push(record),
                }
            }
            Err(e) => {
                if let Some((_, _, first)) = torn {
                    // Two malformed lines cannot both be the torn tail.
                    return Err(first);
                }
                torn = Some((i + 1, line_start, e));
            }
        }
    }
    if let Some((line_no, line_start, e)) = torn {
        eprintln!(
            "[sweep] checkpoint {}: dropping torn trailing line {line_no} ({e}); its cell will re-run",
            path.display()
        );
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| HarnessError::Io(format!("open {}: {e}", path.display())))?;
        file.set_len(line_start as u64)
            .map_err(|e| HarnessError::Io(format!("truncate {}: {e}", path.display())))?;
    }
    Ok(Checkpoint { header, records })
}

/// Serialises one record through the shared sweep writer (one line per
/// record; the mutex keeps concurrent workers' lines from interleaving).
fn write_checkpoint_line(
    writer: &Mutex<std::fs::File>,
    record: &SweepRecord,
) -> Result<(), HarnessError> {
    let line = json_line(&record_to_json(record))?;
    // Recover a poisoned writer: `writeln!` appends the whole line in one
    // call, so a panicking holder left the file either untouched or with
    // a complete line — at worst a torn trailing line, which
    // `load_checkpoint` drops on resume.
    let mut file = lock_recover(writer);
    writeln!(file, "{line}").map_err(|e| HarnessError::Io(format!("write checkpoint: {e}")))
}

#[cfg(test)]
fn append_checkpoint(path: &Path, record: &SweepRecord) -> Result<(), HarnessError> {
    let line = json_line(&record_to_json(record))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| HarnessError::Io(format!("open {}: {e}", path.display())))?;
    writeln!(file, "{line}").map_err(|e| HarnessError::Io(format!("write {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oeb_synth::{generate, registry_scaled};

    fn tiny_datasets() -> Vec<StreamDataset> {
        let entries = registry_scaled(0.03);
        ["Electricity Prices", "Power Consumption of Tetouan City"]
            .iter()
            .map(|name| {
                let entry = entries.iter().find(|e| e.spec.name == *name).unwrap();
                generate(&entry.spec, 0)
            })
            .collect()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("oeb_sweep_{tag}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Outcome equality that ignores wall-clock fields.
    fn same_modulo_timing(a: &SweepReport, b: &SweepReport) -> bool {
        a.records.len() == b.records.len()
            && a.records.iter().zip(&b.records).all(|(x, y)| {
                x.dataset == y.dataset
                    && x.algorithm == y.algorithm
                    && match (&x.outcome, &y.outcome) {
                        (RunOutcome::Completed(p), RunOutcome::Completed(q)) => {
                            let bits =
                                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                            bits(&p.per_window_loss) == bits(&q.per_window_loss)
                                && p.mean_loss.to_bits() == q.mean_loss.to_bits()
                                && p.items == q.items
                                && p.degradations == q.degradations
                        }
                        (o1, o2) => o1 == o2,
                    }
            })
    }

    #[test]
    fn progress_starts_at_the_resumed_count_not_zero() {
        // The regression this guards: a killed-and-resumed sweep used to
        // recount completed cells from zero. done/total must cover the
        // whole grid, seeded by the checkpoint.
        let p = SweepProgress::new(10, 4, false);
        assert_eq!(p.note_done(), (5, 10));
        assert_eq!(p.note_done(), (6, 10));
    }

    #[test]
    fn sweep_records_every_pair() {
        let datasets = tiny_datasets();
        let algorithms = [Algorithm::NaiveDt, Algorithm::Arf];
        let report = run_sweep(
            &datasets,
            &algorithms,
            &HarnessConfig::default(),
            None,
            None,
            1,
        )
        .unwrap();
        assert_eq!(report.records.len(), 4);
        let (completed, inapplicable, failed) = report.counts();
        // ARF does not apply to the regression dataset.
        assert_eq!(completed, 3);
        assert_eq!(inapplicable, 1);
        assert_eq!(failed, 0);
    }

    #[test]
    fn checkpoint_roundtrips_all_outcome_kinds() {
        let path = temp_path("roundtrip");
        let records = vec![
            SweepRecord {
                dataset: "A".into(),
                algorithm: "Naive(DT)".into(),
                outcome: RunOutcome::Completed(RunResult {
                    dataset: "A".into(),
                    algorithm: "Naive(DT)".into(),
                    per_window_loss: vec![0.25, f64::NAN, 0.5],
                    mean_loss: f64::NAN,
                    train_seconds: 1.5,
                    test_seconds: 0.5,
                    items: 100,
                    throughput: 50.0,
                    memory_bytes: 4096,
                    degradations: vec!["window 3: skipped".into()],
                }),
            },
            SweepRecord {
                dataset: "B".into(),
                algorithm: "ARF".into(),
                outcome: RunOutcome::Inapplicable,
            },
            SweepRecord {
                dataset: "C \"quoted\"".into(),
                algorithm: "EWC".into(),
                outcome: RunOutcome::Failed {
                    kind: "panicked".into(),
                    reason: "index out of bounds: len 3".into(),
                },
            },
        ];
        for r in &records {
            append_checkpoint(&path, r).unwrap();
        }
        let loaded = load_checkpoint(&path).unwrap().records;
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[1], records[1]);
        assert_eq!(loaded[2], records[2]);
        match (&loaded[0].outcome, &records[0].outcome) {
            (RunOutcome::Completed(a), RunOutcome::Completed(b)) => {
                assert_eq!(a.per_window_loss[0], b.per_window_loss[0]);
                assert!(a.per_window_loss[1].is_nan());
                assert!(a.mean_loss.is_nan());
                assert_eq!(a.items, b.items);
                assert_eq!(a.degradations, b.degradations);
            }
            _ => panic!("outcome kind changed in roundtrip"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_checkpoint_is_a_fresh_sweep() {
        let path = temp_path("missing");
        assert_eq!(load_checkpoint(&path).unwrap(), Checkpoint::default());
    }

    #[test]
    fn midfile_corruption_is_still_a_typed_error() {
        // Torn-write tolerance must not mask real corruption: a
        // malformed line *followed by* a valid record fails the resume.
        let path = temp_path("corrupt");
        std::fs::write(
            &path,
            "{ not json\n{\"dataset\":\"A\",\"algorithm\":\"ARF\",\"status\":\"inapplicable\"}\n",
        )
        .unwrap();
        assert!(matches!(
            load_checkpoint(&path).unwrap_err(),
            HarnessError::Checkpoint(_)
        ));
        // Two malformed lines cannot both be the torn tail either.
        std::fs::write(&path, "{ not json\n{ also not json").unwrap();
        assert!(matches!(
            load_checkpoint(&path).unwrap_err(),
            HarnessError::Checkpoint(_)
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fields_of_the_wrong_type_are_typed_errors() {
        let completed = SweepRecord {
            dataset: "A".into(),
            algorithm: "ARF".into(),
            outcome: RunOutcome::Completed(RunResult {
                dataset: "A".into(),
                algorithm: "ARF".into(),
                per_window_loss: vec![0.25, 0.5],
                mean_loss: 0.375,
                train_seconds: 1.5,
                test_seconds: 0.5,
                items: 100,
                throughput: 50.0,
                memory_bytes: 4096,
                degradations: vec!["window 3: skipped".into()],
            }),
        };
        let timed_out = SweepRecord {
            dataset: "B".into(),
            algorithm: "EWC".into(),
            outcome: RunOutcome::TimedOut {
                windows: 7,
                items: 280,
                wall: true,
            },
        };
        let quarantined = SweepRecord {
            dataset: "C".into(),
            algorithm: "LwF".into(),
            outcome: RunOutcome::Quarantined {
                attempts: 3,
                kind: "panicked".into(),
                reason: "boom".into(),
            },
        };
        let cases = [
            (&timed_out, "windows", json!("7")),
            (&timed_out, "items", json!("100")),
            (&timed_out, "wall", json!("yes")),
            (&quarantined, "attempts", json!("three")),
            (&completed, "items", json!("100")),
            (&completed, "memory_bytes", json!(-1)),
            (&completed, "per_window_loss", json!([0.25, "0.5"])),
            (&completed, "degradations", json!("none")),
            (&completed, "degradations", json!(["ok", 3])),
        ];
        let path = temp_path("wrong_types");
        // The valid record after each bad line keeps it from being
        // dropped as a torn tail.
        let valid = serde_json::to_string(&record_to_json(&completed)).unwrap();
        for (record, key, bad) in cases {
            let mut v = record_to_json(record);
            v.as_object_mut().unwrap().insert(key, bad.clone());
            let line = serde_json::to_string(&v).unwrap();
            std::fs::write(&path, format!("{line}\n{valid}\n")).unwrap();
            match load_checkpoint(&path) {
                Err(HarnessError::Checkpoint(msg)) => assert!(
                    msg.starts_with("line 1:") && msg.contains(key),
                    "{key} = {bad:?}: {msg}"
                ),
                other => panic!("{key} = {bad:?} loaded as {other:?}"),
            }
        }
        // The untouched records still load.
        for record in [&completed, &timed_out, &quarantined] {
            let line = serde_json::to_string(&record_to_json(record)).unwrap();
            std::fs::write(&path, format!("{line}\n{valid}\n")).unwrap();
            assert_eq!(load_checkpoint(&path).unwrap().records[0], *record);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deeply_nested_line_is_a_typed_error() {
        // Parsing must give up at the nesting cap instead of overflowing
        // the stack, which would abort the whole process.
        let path = temp_path("deep");
        std::fs::write(
            &path,
            format!(
                "{}\n{{\"dataset\":\"A\",\"algorithm\":\"ARF\",\"status\":\"inapplicable\"}}\n",
                "[".repeat(200_000)
            ),
        )
        .unwrap();
        assert!(matches!(
            load_checkpoint(&path).unwrap_err(),
            HarnessError::Checkpoint(_)
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_truncated() {
        use std::io::Write as _;
        let path = temp_path("torn");
        let valid = SweepRecord {
            dataset: "A".into(),
            algorithm: "ARF".into(),
            outcome: RunOutcome::Inapplicable,
        };
        append_checkpoint(&path, &valid).unwrap();
        // Simulate a crash mid-write: half a serialized record, no
        // trailing newline.
        let full = serde_json::to_string(&record_to_json(&valid)).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "{}", &full[..full.len() / 2]).unwrap();
        drop(f);

        let loaded = load_checkpoint(&path).unwrap().records;
        assert_eq!(loaded, vec![valid.clone()]);
        // The fragment is physically gone: a later append starts a clean
        // line instead of merging with it.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "fragment survived: {text:?}");
        let next = SweepRecord {
            dataset: "B".into(),
            algorithm: "EWC".into(),
            outcome: RunOutcome::Inapplicable,
        };
        append_checkpoint(&path, &next).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap().records, vec![valid, next]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_killed_mid_write_resumes_past_the_torn_line() {
        // End-to-end regression for the torn tail: run a checkpointed
        // sweep, tear its last line in half (the on-disk state a
        // mid-`write_checkpoint_line` kill leaves), and resume. The torn
        // cell re-runs and the merged report equals the uninterrupted one.
        let datasets = tiny_datasets();
        let algorithms = [Algorithm::NaiveDt, Algorithm::Arf];
        let cfg = HarnessConfig::default();
        let uninterrupted = run_sweep(&datasets, &algorithms, &cfg, None, None, 1).unwrap();

        let path = temp_path("killmid");
        run_sweep(&datasets, &algorithms, &cfg, Some(&path), None, 1).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.trim_end().len() - text.trim_end().len() / 4;
        std::fs::write(&path, &text[..keep]).unwrap();

        let resumed = run_sweep(&datasets, &algorithms, &cfg, Some(&path), None, 2).unwrap();
        assert!(
            same_modulo_timing(&resumed, &uninterrupted),
            "resume after a torn write diverged"
        );
        // Every line of the repaired checkpoint parses again.
        assert_eq!(load_checkpoint(&path).unwrap().records.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn poisoned_checkpoint_writer_recovers() {
        let path = temp_path("poison");
        let writer = Mutex::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap(),
        );
        // Poison the mutex the way a panicking worker would: die while
        // holding the lock.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _guard = writer.lock().unwrap();
            panic!("worker died mid-checkpoint");
        }));
        assert!(writer.lock().is_err(), "mutex should be poisoned");
        let record = SweepRecord {
            dataset: "A".into(),
            algorithm: "ARF".into(),
            outcome: RunOutcome::Inapplicable,
        };
        write_checkpoint_line(&writer, &record).expect("poisoned writer must recover");
        drop(writer);
        assert_eq!(load_checkpoint(&path).unwrap().records, vec![record]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_roundtrips_supervision_outcomes() {
        let path = temp_path("supervision_roundtrip");
        let records = vec![
            SweepRecord {
                dataset: "A".into(),
                algorithm: "ARF".into(),
                outcome: RunOutcome::TimedOut {
                    windows: 7,
                    items: 280,
                    wall: false,
                },
            },
            SweepRecord {
                dataset: "B".into(),
                algorithm: "EWC".into(),
                outcome: RunOutcome::Quarantined {
                    attempts: 3,
                    kind: "panicked".into(),
                    reason: "run panicked: boom".into(),
                },
            },
        ];
        for r in &records {
            append_checkpoint(&path, r).unwrap();
        }
        assert_eq!(load_checkpoint(&path).unwrap().records, records);
        let _ = std::fs::remove_file(&path);
    }

    /// Writes a seed-`seed` checkpoint of one Naive-DT cell over
    /// `datasets` and returns its path.
    fn one_cell_checkpoint(tag: &str, datasets: &[StreamDataset], seed: u64) -> std::path::PathBuf {
        let path = temp_path(tag);
        let cfg = HarnessConfig {
            seed,
            ..Default::default()
        };
        run_sweep(
            datasets,
            &[Algorithm::NaiveDt],
            &cfg,
            Some(&path),
            Some(1),
            1,
        )
        .unwrap();
        path
    }

    fn mismatch_message(result: Result<SweepReport, HarnessError>) -> String {
        match result {
            Err(HarnessError::CheckpointMismatch(msg)) => msg,
            other => panic!("expected a checkpoint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_of_another_seed_is_refused() {
        let datasets = tiny_datasets();
        let path = one_cell_checkpoint("seed", &datasets, 0);
        let before = std::fs::read_to_string(&path).unwrap();
        let seed1 = HarnessConfig {
            seed: 1,
            ..Default::default()
        };
        let msg = mismatch_message(run_sweep(
            &datasets,
            &[Algorithm::NaiveDt],
            &seed1,
            Some(&path),
            None,
            1,
        ));
        assert!(
            msg.contains("seed 0 in the checkpoint, 1 in this sweep"),
            "{msg}"
        );
        // A result-bearing config field other than the seed.
        let wider = HarnessConfig {
            window_factor: 2.0,
            ..Default::default()
        };
        let msg = mismatch_message(run_sweep(
            &datasets,
            &[Algorithm::NaiveDt],
            &wider,
            Some(&path),
            None,
            1,
        ));
        assert!(
            msg.starts_with("the checkpoint belongs to another sweep: config "),
            "{msg}"
        );
        // Nothing ran and nothing was appended.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_of_another_scale_is_refused() {
        let at_scale = |scale: f64| {
            let entries = registry_scaled(scale);
            let entry = entries
                .iter()
                .find(|e| e.spec.name == "Electricity Prices")
                .unwrap();
            vec![generate(&entry.spec, 0)]
        };
        let path = one_cell_checkpoint("scale", &at_scale(0.05), 0);
        let msg = mismatch_message(run_sweep(
            &at_scale(0.2),
            &[Algorithm::NaiveDt],
            &HarnessConfig::default(),
            Some(&path),
            None,
            1,
        ));
        assert!(msg.contains("datasets [{"), "{msg}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_of_another_learner_list_is_refused() {
        let datasets = tiny_datasets();
        let path = one_cell_checkpoint("learners", &datasets, 0);
        let msg = mismatch_message(run_sweep(
            &datasets,
            &[Algorithm::NaiveDt, Algorithm::Arf],
            &HarnessConfig::default(),
            Some(&path),
            None,
            1,
        ));
        assert!(
            msg.contains("learners [\"Naive-DT\"] in the checkpoint"),
            "{msg}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_without_a_header_is_refused() {
        let datasets = tiny_datasets();
        let path = temp_path("headerless");
        append_checkpoint(
            &path,
            &SweepRecord {
                dataset: datasets[0].name.clone(),
                algorithm: Algorithm::NaiveDt.name().into(),
                outcome: RunOutcome::Inapplicable,
            },
        )
        .unwrap();
        let msg = mismatch_message(run_sweep(
            &datasets,
            &[Algorithm::NaiveDt],
            &HarnessConfig::default(),
            Some(&path),
            None,
            1,
        ));
        assert!(msg.contains("no header"), "{msg}");
        let err = HarnessError::CheckpointMismatch(msg);
        assert_eq!((err.exit_code(), err.kind()), (15, "checkpoint-mismatch"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_ignores_the_run_budget_threads_and_supervision() {
        // The limit, the worker count and the supervision policy change
        // no completed cell, so a checkpoint written under one setting of
        // each resumes under another.
        let datasets = tiny_datasets();
        let algorithms = [Algorithm::NaiveDt, Algorithm::Arf];
        let plain = HarnessConfig::default();
        let uninterrupted = run_sweep(&datasets, &algorithms, &plain, None, None, 1).unwrap();
        let path = temp_path("header_invariants");
        run_sweep(&datasets, &algorithms, &plain, Some(&path), Some(1), 1).unwrap();
        let supervised = HarnessConfig {
            supervise: SupervisePolicy {
                wall_deadline: Some(std::time::Duration::from_secs(60)),
                max_retries: 1,
                ..SupervisePolicy::unsupervised()
            },
            ..HarnessConfig::default()
        };
        let resumed = run_sweep(&datasets, &algorithms, &supervised, Some(&path), None, 2).unwrap();
        assert!(same_modulo_timing(&resumed, &uninterrupted));
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(
            loaded.header,
            Some(checkpoint_header(&datasets, &algorithms, &plain))
        );
        assert_eq!(loaded.records.len(), 4, "no cell ran twice");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let datasets = tiny_datasets();
        let algorithms = [Algorithm::NaiveDt, Algorithm::NaiveGbdt, Algorithm::Arf];
        let cfg = HarnessConfig::default();
        let seq = run_sweep(&datasets, &algorithms, &cfg, None, None, 1).unwrap();
        let par = run_sweep(&datasets, &algorithms, &cfg, None, None, 4).unwrap();
        assert!(
            same_modulo_timing(&seq, &par),
            "4-worker sweep diverged from the sequential one"
        );
    }

    #[test]
    fn interrupted_sweep_resumes_to_the_same_report() {
        let datasets = tiny_datasets();
        let algorithms = [Algorithm::NaiveDt, Algorithm::NaiveGbdt];
        let cfg = HarnessConfig::default();

        let uninterrupted = run_sweep(&datasets, &algorithms, &cfg, None, None, 1).unwrap();
        assert_eq!(uninterrupted.records.len(), 4);

        // "Kill" the sweep after two runs, then resume from the
        // checkpoint — on two workers, to cross resume with parallelism.
        let path = temp_path("resume");
        let partial = run_sweep(&datasets, &algorithms, &cfg, Some(&path), Some(2), 2).unwrap();
        assert_eq!(partial.records.len(), 2);
        let resumed = run_sweep(&datasets, &algorithms, &cfg, Some(&path), None, 2).unwrap();
        assert!(
            same_modulo_timing(&resumed, &uninterrupted),
            "resumed report differs from uninterrupted run"
        );
        let _ = std::fs::remove_file(&path);
    }
}
