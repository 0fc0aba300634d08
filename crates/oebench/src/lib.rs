//! # oeb-core
//!
//! The OEBench pipeline proper: the ten stream learners of the paper's
//! Table 4 ([`learners`], [`sea`]), the prequential test-then-train
//! harness with imputation / scaling / outlier-removal stages
//! ([`harness`]), the open-environment statistics extraction of §4.3
//! ([`stats`], probes in [`probe`]), the PCA + K-Means representative
//! dataset selection of §4.4 ([`select`]), the Figure 9 recommendation
//! tree ([`mod@recommend`]), and report formatting ([`report`]).

// Index loops over parallel numeric buffers are clearer than iterator
// chains in these kernels.
#![allow(clippy::needless_range_loop)]

pub mod chaos;
pub mod console;
pub mod error;
pub mod executor;
pub mod experiments;
pub mod extend;
pub mod harness;
pub mod learners;
pub mod plot;
pub mod prepare;
pub mod prequential;
pub mod probe;
pub mod recommend;
pub mod report;
pub mod sea;
pub mod select;
pub mod stats;
pub mod supervise;
pub mod sweep;

pub use chaos::{run_chaos_matrix, ChaosCell, ChaosOptions, ChaosReport};
pub use error::HarnessError;
pub use executor::{parallel_map, resolve_threads, set_default_threads};
pub use extend::DriftResetLearner;
pub use harness::{
    try_run_stream, DegradePolicy, HarnessConfig, ImputerChoice, OutlierRemoval, RunResult,
};
pub use learners::{Algorithm, LearnerConfig, StreamLearner};
pub use plot::{LinePlot, Series};
pub use prepare::{
    evaluate_prepared, prepare_cached, prepare_from_source, prepare_stream, PreparedStream,
    PreparedWindow,
};
pub use prequential::{
    prequential_dataset, prequential_items, IncrementalClassifier, PrequentialResult,
};
pub use recommend::{recommend, render_tree, Scenario};
pub use report::{assign_levels, fmt_mean_std, fmt_summary, TextTable};
pub use sea::{BaseKind, SeaLearner};
pub use select::{select_representatives, SelectionResult};
pub use stats::{extract_stats, AvgMax, OeStats, StatsConfig};
pub use supervise::{
    backoff_duration, cell_seed, supervise_cell, CellBudget, SupervisePolicy, Supervised,
};
pub use sweep::{
    load_checkpoint, run_sweep, set_sweep_progress, Checkpoint, RunOutcome, SupervisionSummary,
    SweepRecord, SweepReport,
};
