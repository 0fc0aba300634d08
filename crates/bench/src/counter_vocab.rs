//! @generated by `oeb-lint index --emit-vocab` — do not edit.
//!
//! Every counter name constructed in library code, plus counters the
//! trace snapshot synthesises itself. `trace_check --counters` loads
//! this table; the `counter-vocab-sync` lint fails when it drifts
//! from the construction sites. Regenerate with:
//!
//! ```text
//! cargo run -p oeb-lint -- index --emit-vocab
//! ```

/// Every counter name a production snapshot may contain.
pub const KNOWN_COUNTERS: &[&str] = &[
    "executor.claims",
    "executor.parallel_runs",
    "executor.sequential_runs",
    "faults.injected.all-missing-column",
    "faults.injected.corrupted-cells",
    "faults.injected.dropped-window",
    "faults.injected.duplicated-window",
    "faults.injected.label-noise",
    "faults.injected.nan-burst",
    "faults.injected.schema-violation",
    "faults.injected.truncated-window",
    "gemm.dispatch.blocked",
    "gemm.dispatch.scalar",
    "harness.runs",
    "knn.candidates.pruned",
    "knn.candidates.scanned",
    "learner.item_updates",
    "learner.items_tested",
    "learner.window_updates",
    "prepare.cache.evict",
    "prepare.cache.hit",
    "prepare.cache.miss",
    "prepare.rows",
    "prepare.windows",
    "profile.cells.attributed",
    "supervise.quarantined",
    "supervise.retries",
    "supervise.timeouts",
    "supervise.wall.retries",
    "supervise.wall.timeouts",
    "sweep.cells.executed",
    "sweep.cells.failed",
    "sweep.cells.resumed",
    "sweep.cells.total",
    "synth.cache.evict",
    "synth.cache.hit",
    "synth.cache.miss",
    "synth.generated.datasets",
    "synth.generated.rows",
    "trace.events.dropped",
    "train.hoeffding.split_checks",
    "train.mlp.gemm_batches",
    "train.mlp.sample_gradients",
];
