//! The four workloads and the calls into the program they are built
//! from: input generation (`oeb_synth::generate`), one timed pass
//! (`run_sweep`, or `extract_stats` per dataset), the decomposed pass
//! (`prepare_stream` + `evaluate_prepared` one call at a time, on one
//! thread) and the traced pass (one `run_sweep` with `oeb_trace` on).
//!
//! Every pass's outputs are normalised into [`Cell`]s, so the three ways
//! of computing the same grid can be compared bit for bit and digested.

use oeb_core::{
    evaluate_prepared, extract_stats, prepare_stream, run_sweep, set_default_threads, Algorithm,
    HarnessConfig, HarnessError, OutlierRemoval, RunOutcome, RunResult, StatsConfig,
};
use oeb_synth::DatasetEntry;
use oeb_tabular::StreamDataset;
use oeb_trace::{MetricsSnapshot, Stopwatch};

/// Worker threads for every timed and traced pass. Fixed rather than
/// taken from the host, so results from hosts of different widths
/// measure the same program.
pub const THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 4 grid: 5 representative datasets x 10 learners.
    Table4Grid,
    /// All 55 datasets x Naive-DT with KNN imputation and ECOD removal.
    Prepare55,
    /// The §4.3 statistics of all 55 datasets, one dataset at a time.
    Stats55,
    /// The 5 representative datasets at full size x Naive-NN and EWC.
    LargeWindows,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table4Grid,
        Workload::Prepare55,
        Workload::Stats55,
        Workload::LargeWindows,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4Grid => "table4-grid",
            Workload::Prepare55 => "prepare-55",
            Workload::Stats55 => "stats-55",
            Workload::LargeWindows => "large-windows",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sweep workloads run prepare + evaluate through the executor; the
    /// stats workload runs only the statistics layer.
    pub fn is_sweep(self) -> bool {
        self != Workload::Stats55
    }

    fn entries(self) -> Vec<DatasetEntry> {
        match self {
            Workload::Table4Grid | Workload::LargeWindows => oeb_synth::selected_five(),
            Workload::Prepare55 | Workload::Stats55 => oeb_synth::registry(),
        }
    }

    /// Dataset scale; `--quick` shrinks every workload to a smoke size.
    fn scale(self, quick: bool) -> f64 {
        match (self, quick) {
            (Workload::LargeWindows, false) => 1.0,
            (Workload::LargeWindows, true) => 0.05,
            (_, false) => 0.1,
            (_, true) => 0.02,
        }
    }

    fn algorithms(self) -> Vec<Algorithm> {
        match self {
            Workload::Table4Grid => Algorithm::all().to_vec(),
            Workload::Prepare55 => vec![Algorithm::NaiveDt],
            Workload::Stats55 => Vec::new(),
            Workload::LargeWindows => vec![Algorithm::NaiveNn, Algorithm::Ewc],
        }
    }

    /// The harness config of one pass. Only the seed changes between
    /// passes; `stats-55` ignores the config.
    pub fn config(self, seed: u64) -> HarnessConfig {
        let mut cfg = HarnessConfig {
            seed,
            ..HarnessConfig::default()
        };
        if self == Workload::Prepare55 {
            cfg.outlier_removal = OutlierRemoval::Ecod;
        }
        cfg
    }

    /// Digest of pass 0 at `--seed 0`, full size (see [`digest`]).
    pub fn golden(self) -> u64 {
        match self {
            Workload::Table4Grid => 0x6b70_366e_7c63_5f8d,
            Workload::Prepare55 => 0x82da_30e1_bcef_fbcf,
            Workload::Stats55 => 0x1ad4_0353_9a47_d4f2,
            Workload::LargeWindows => 0x0e79_3a00_aaca_0215,
        }
    }
}

/// Generates the workload's datasets: the only input the program gets.
pub fn generate(workload: Workload, seed: u64, quick: bool) -> Vec<StreamDataset> {
    let scale = workload.scale(quick);
    workload
        .entries()
        .iter()
        .map(|e| oeb_synth::generate(&e.spec.scaled(scale), seed))
        .collect()
}

/// One cell's outcome with wall-clock fields stripped: everything that
/// must be identical however the cell was computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Completed {
        loss_bits: Vec<u64>,
        mean_bits: u64,
        items: usize,
        degradations: Vec<String>,
    },
    Inapplicable,
    Failed(String),
    /// `OeStats::field_bits` values of one `extract_stats` call.
    Stats(Vec<u64>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub dataset: String,
    pub learner: String,
    /// Inapplicable is expected only for ARF on a regression stream.
    pub may_be_inapplicable: bool,
    pub outcome: Outcome,
}

impl Cell {
    /// Counts toward `attempted`: every cell except an expected
    /// `Inapplicable`.
    pub fn attempted(&self) -> bool {
        !(self.may_be_inapplicable && self.outcome == Outcome::Inapplicable)
    }

    /// Failed, timed out, quarantined, or inapplicable where it should
    /// have run.
    pub fn failed(&self) -> bool {
        match self.outcome {
            Outcome::Failed(_) => true,
            Outcome::Inapplicable => !self.may_be_inapplicable,
            Outcome::Completed { .. } | Outcome::Stats(_) => false,
        }
    }
}

fn completed(r: &RunResult) -> Outcome {
    Outcome::Completed {
        loss_bits: r.per_window_loss.iter().map(|x| x.to_bits()).collect(),
        mean_bits: r.mean_loss.to_bits(),
        items: r.items,
        degradations: r.degradations.clone(),
    }
}

fn sweep_cell(dataset: &StreamDataset, algorithm: Algorithm, outcome: Outcome) -> Cell {
    Cell {
        dataset: dataset.name.clone(),
        learner: algorithm.name().to_string(),
        may_be_inapplicable: algorithm == Algorithm::Arf && !dataset.task.is_classification(),
        outcome,
    }
}

fn stats_cell(dataset: &StreamDataset) -> Cell {
    let bits = extract_stats(dataset, &StatsConfig::default())
        .field_bits()
        .into_iter()
        .map(|(_, b)| b)
        .collect();
    Cell {
        dataset: dataset.name.clone(),
        learner: "stats".to_string(),
        may_be_inapplicable: false,
        outcome: Outcome::Stats(bits),
    }
}

/// FNV-1a over every field of every cell, strings and lists length
/// prefixed. The golden-digest check pins pass 0 with it.
pub fn digest(cells: &[Cell]) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, b: &[u8]) {
            for &x in b {
                self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        fn u64(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
        fn str(&mut self, s: &str) {
            self.u64(s.len() as u64);
            self.bytes(s.as_bytes());
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for cell in cells {
        h.str(&cell.dataset);
        h.str(&cell.learner);
        match &cell.outcome {
            Outcome::Completed {
                loss_bits,
                mean_bits,
                items,
                degradations,
            } => {
                h.u64(0);
                h.u64(loss_bits.len() as u64);
                loss_bits.iter().for_each(|&b| h.u64(b));
                h.u64(*mean_bits);
                h.u64(*items as u64);
                h.u64(degradations.len() as u64);
                degradations.iter().for_each(|d| h.str(d));
            }
            Outcome::Inapplicable => h.u64(1),
            Outcome::Failed(kind) => {
                h.u64(2);
                h.str(kind);
            }
            Outcome::Stats(bits) => {
                h.u64(3);
                h.u64(bits.len() as u64);
                bits.iter().for_each(|&b| h.u64(b));
            }
        }
    }
    h.0
}

/// Number of positions where two cell lists disagree (all of the longer
/// list when their lengths differ).
pub fn mismatches(a: &[Cell], b: &[Cell]) -> usize {
    if a.len() != b.len() {
        return a.len().max(b.len());
    }
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// One timed pass: the whole grid through `run_sweep` on [`THREADS`]
/// workers, or `extract_stats` on each dataset in turn. Returns the cells
/// and, for `stats-55`, each call's latency in seconds.
pub fn run_pass(
    workload: Workload,
    datasets: &[StreamDataset],
    cfg: &HarnessConfig,
) -> (Vec<Cell>, Vec<f64>) {
    if !workload.is_sweep() {
        let mut latencies = Vec::with_capacity(datasets.len());
        let cells = datasets
            .iter()
            .map(|d| {
                let t = Stopwatch::start();
                let cell = stats_cell(d);
                latencies.push(t.elapsed_seconds());
                cell
            })
            .collect();
        return (cells, latencies);
    }
    let algorithms = workload.algorithms();
    let report = run_sweep(datasets, &algorithms, cfg, None, None, THREADS)
        .expect("benchmark configs are valid and write no checkpoint");
    let grid = datasets
        .iter()
        .flat_map(|d| algorithms.iter().map(move |&a| (d, a)));
    let cells = grid
        .zip(&report.records)
        .map(|((d, a), record)| {
            let outcome = match &record.outcome {
                RunOutcome::Completed(r) => completed(r),
                RunOutcome::Inapplicable => Outcome::Inapplicable,
                RunOutcome::Failed { kind, .. } => Outcome::Failed(kind.clone()),
                RunOutcome::TimedOut { .. } => Outcome::Failed("timed-out".into()),
                RunOutcome::Quarantined { kind, .. } => {
                    Outcome::Failed(format!("quarantined: {kind}"))
                }
            };
            sweep_cell(d, a, outcome)
        })
        .collect();
    (cells, Vec::new())
}

/// The decomposed pass: the same grid as one pass, one call at a time on
/// one thread, each call timed from outside.
pub struct Decomposed {
    pub cells: Vec<Cell>,
    /// Each `prepare_stream` call (one per dataset), seconds.
    pub prepare_s: Vec<f64>,
    /// Each `evaluate_prepared` call (one per cell), seconds.
    pub evaluate_s: Vec<f64>,
    /// Each `extract_stats` call (one per dataset), seconds.
    pub stats_s: Vec<f64>,
    /// What one executor task costs: a cell's evaluate plus, for the
    /// first learner of each dataset, the prepare its cache miss runs;
    /// or one stats call.
    pub task_s: Vec<f64>,
}

pub fn run_decomposed(
    workload: Workload,
    datasets: &[StreamDataset],
    cfg: &HarnessConfig,
) -> Decomposed {
    // Nested parallelism (ARF lockstep, per-column stats) resolves its
    // width from the process default; one thread makes every call serial.
    set_default_threads(Some(1));
    let mut out = Decomposed {
        cells: Vec::new(),
        prepare_s: Vec::new(),
        evaluate_s: Vec::new(),
        stats_s: Vec::new(),
        task_s: Vec::new(),
    };
    for dataset in datasets {
        if !workload.is_sweep() {
            let t = Stopwatch::start();
            out.cells.push(stats_cell(dataset));
            let secs = t.elapsed_seconds();
            out.stats_s.push(secs);
            out.task_s.push(secs);
            continue;
        }
        let t = Stopwatch::start();
        let prepared = prepare_stream(dataset, cfg);
        let prepare_secs = t.elapsed_seconds();
        out.prepare_s.push(prepare_secs);
        for (i, algorithm) in workload.algorithms().into_iter().enumerate() {
            let t = Stopwatch::start();
            let result = prepared
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|p| evaluate_prepared(p, algorithm, cfg));
            let secs = t.elapsed_seconds();
            out.evaluate_s.push(secs);
            out.task_s
                .push(secs + if i == 0 { prepare_secs } else { 0.0 });
            let outcome = match result {
                Ok(r) => completed(&r),
                Err(HarnessError::NotApplicable { .. }) => Outcome::Inapplicable,
                Err(e) => Outcome::Failed(e.kind().to_string()),
            };
            out.cells.push(sweep_cell(dataset, algorithm, outcome));
        }
    }
    set_default_threads(Some(THREADS));
    out
}

/// The traced pass: one timed pass with `oeb_trace` recording.
pub struct Traced {
    pub cells: Vec<Cell>,
    pub wall_s: f64,
    pub snapshot: MetricsSnapshot,
    pub events: usize,
}

pub fn run_traced(workload: Workload, datasets: &[StreamDataset], cfg: &HarnessConfig) -> Traced {
    oeb_trace::reset();
    oeb_trace::enable();
    let t = Stopwatch::start();
    let (cells, _) = run_pass(workload, datasets, cfg);
    let wall_s = t.elapsed_seconds();
    oeb_trace::disable();
    let snapshot = oeb_trace::snapshot();
    let events = oeb_trace::drain_events().len();
    oeb_trace::reset();
    Traced {
        cells,
        wall_s,
        snapshot,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(loss: f64) -> Cell {
        Cell {
            dataset: "d".into(),
            learner: "l".into(),
            may_be_inapplicable: false,
            outcome: Outcome::Completed {
                loss_bits: vec![loss.to_bits()],
                mean_bits: loss.to_bits(),
                items: 10,
                degradations: vec![],
            },
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let cells = vec![cell(0.25), cell(0.5)];
        // Pinned: a change here changes every golden digest.
        assert_eq!(digest(&cells), digest(&cells.clone()));
        assert_eq!(digest(&[]), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest(&cells), 0xc3dc_ce8a_5b45_3ae9);
        assert_ne!(digest(&cells), digest(&[cell(0.25), cell(0.5000001)]));
        assert_ne!(digest(&cells), digest(&[cell(0.5), cell(0.25)]));
        let stats = |bits: Vec<u64>| Cell {
            outcome: Outcome::Stats(bits),
            ..cell(0.0)
        };
        // Length prefixes keep differently split lists apart.
        assert_ne!(
            digest(&[stats(vec![1, 2]), stats(vec![3])]),
            digest(&[stats(vec![1]), stats(vec![2, 3])])
        );
    }

    #[test]
    fn expected_inapplicable_is_neither_attempted_nor_failed() {
        let arf = Cell {
            may_be_inapplicable: true,
            outcome: Outcome::Inapplicable,
            ..cell(0.0)
        };
        assert!(!arf.attempted() && !arf.failed());
        let unexpected = Cell {
            may_be_inapplicable: false,
            ..arf.clone()
        };
        assert!(unexpected.attempted() && unexpected.failed());
        let failed = Cell {
            outcome: Outcome::Failed("panicked".into()),
            ..cell(0.0)
        };
        assert!(failed.attempted() && failed.failed());
        assert_eq!(mismatches(&[cell(1.0)], &[cell(1.0), cell(2.0)]), 2);
        assert_eq!(
            mismatches(&[cell(1.0), cell(2.0)], &[cell(1.0), cell(3.0)]),
            1
        );
    }
}
