//! Open-environment statistics extraction (§4.3 of the paper).
//!
//! For each stream the pipeline records: missing-value ratios (rows /
//! columns / cells), per-window data-drift percentages under HDDDM,
//! kdq-tree, PCA-CD (multi-dimensional) and KS / CDBD / ADWIN / HDDM-A
//! (per column, averaged and maxed), concept-drift percentages under DDM
//! / EDDM / ADWIN-accuracy (probe: Gaussian NB or linear regression, as
//! in the paper) and PERM, and window-level anomaly ratios under ECOD and
//! IForest (3-sigma flagging, average and max across windows).

use crate::executor::{parallel_map, resolve_threads};
use crate::probe::{GaussianNb, LinearProbe};
use oeb_drift::{
    perm_test, Adwin, BatchDriftDetector, Cdbd, ConceptDriftDetector, Ddm, DriftState, Eddm, Hdddm,
    HddmA, KdqTreeDetector, KsDetector, PcaCd, PermConfig,
};
use oeb_linalg::Matrix;
use oeb_outlier::{anomaly_ratio, Ecod, IForestConfig, IsolationForest};
use oeb_preprocess::{Imputer, KnnImputer, OneHotEncoder, StandardScaler};
use oeb_tabular::{StreamDataset, Task};
use oeb_trace::SpanDef;
use std::ops::Range;

/// The sequential preprocessing: encode, impute and scale every window.
static ENCODE_SPAN: SpanDef = SpanDef::new("stats.encode");
/// One span per [`StatsTask`] kind (see [`StatsTask::span`]).
static KDQ_SPAN: SpanDef = SpanDef::new("stats.kdq");
static HDDDM_SPAN: SpanDef = SpanDef::new("stats.hdddm");
static PCACD_SPAN: SpanDef = SpanDef::new("stats.pcacd");
static CONCEPT_SPAN: SpanDef = SpanDef::new("stats.concept");
static PERM_SPAN: SpanDef = SpanDef::new("stats.perm");
static OUTLIER_SPAN: SpanDef = SpanDef::new("stats.outlier");
static COLUMN_SPAN: SpanDef = SpanDef::new("stats.column");

/// Extraction knobs (cost bounds; defaults match the paper's pipeline
/// semantics at benchmark scale).
#[derive(Debug, Clone)]
pub struct StatsConfig {
    /// Columns examined by the per-column detectors (KS, CDBD, ADWIN,
    /// HDDM-A); streams with more encoded columns use the first `n`.
    pub max_columns: usize,
    /// Rows per window sampled for the batch detectors.
    pub max_rows_per_window: usize,
    /// PERM settings.
    pub perm: PermConfig,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            max_columns: 16,
            max_rows_per_window: 512,
            perm: PermConfig {
                n_permutations: 12,
                ..Default::default()
            },
        }
    }
}

/// Average/maximum pair across windows or columns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AvgMax {
    pub avg: f64,
    pub max: f64,
}

impl AvgMax {
    fn from_values(values: &[f64]) -> AvgMax {
        if values.is_empty() {
            return AvgMax::default();
        }
        AvgMax {
            avg: oeb_linalg::mean(values),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// The open-environment statistics of one stream.
#[derive(Debug, Clone, Default)]
pub struct OeStats {
    /// Dataset name.
    pub name: String,
    /// Rows in the stream.
    pub n_rows: usize,
    /// Feature count (before one-hot).
    pub n_features: usize,
    /// Number of windows analysed.
    pub n_windows: usize,
    /// True for classification streams.
    pub classification: bool,

    /// Ratio of rows with at least one missing cell.
    pub missing_rows: f64,
    /// Ratio of columns containing missing cells.
    pub missing_cols: f64,
    /// Ratio of empty cells.
    pub missing_cells: f64,

    /// Fraction of windows flagged by HDDDM.
    pub drift_hdddm: f64,
    /// Fraction of windows flagged by the kdq-tree detector.
    pub drift_kdq: f64,
    /// Fraction of windows flagged by PCA-CD.
    pub drift_pcacd: f64,
    /// Per-column KS drift fraction (avg/max over columns).
    pub drift_ks: AvgMax,
    /// Per-column CDBD drift fraction.
    pub drift_cdbd: AvgMax,
    /// Per-column ADWIN drift events per 1k items.
    pub drift_adwin: AvgMax,
    /// Per-column HDDM-A drift events per 1k items.
    pub drift_hddm: AvgMax,

    /// Fraction of windows where DDM signalled drift.
    pub concept_ddm: f64,
    /// Fraction of windows where EDDM signalled drift.
    pub concept_eddm: f64,
    /// Fraction of windows where ADWIN-accuracy signalled drift.
    pub concept_adwin: f64,
    /// Fraction of windows the PERM test flagged.
    pub concept_perm: f64,

    /// ECOD window anomaly ratio (avg/max).
    pub anomaly_ecod: AvgMax,
    /// IForest window anomaly ratio (avg/max).
    pub anomaly_iforest: AvgMax,
}

impl OeStats {
    /// Composite missing-value score in [0, 1]. The column ratio is
    /// excluded: any nonzero missing rate marks every column eventually,
    /// so it saturates and carries no ranking information (it remains in
    /// the selection feature group, where PCA weights it by variance).
    pub fn missing_score(&self) -> f64 {
        (2.0 * self.missing_cells + self.missing_rows) / 3.0
    }

    /// Composite data-drift score.
    pub fn drift_score(&self) -> f64 {
        let parts = [
            self.drift_hdddm,
            self.drift_kdq,
            self.drift_pcacd,
            self.drift_ks.avg,
            self.drift_cdbd.avg,
            (self.drift_adwin.avg / 5.0).min(1.0),
            (self.drift_hddm.avg / 5.0).min(1.0),
        ];
        parts.iter().sum::<f64>() / parts.len() as f64
    }

    /// Composite concept-drift score.
    pub fn concept_score(&self) -> f64 {
        let parts = [
            self.concept_ddm,
            self.concept_eddm,
            self.concept_adwin,
            self.concept_perm,
        ];
        parts.iter().sum::<f64>() / parts.len() as f64
    }

    /// Composite anomaly score.
    pub fn anomaly_score(&self) -> f64 {
        (self.anomaly_ecod.avg + self.anomaly_iforest.avg) / 2.0
    }

    /// The "basic information" feature group used by the selection step.
    pub fn basic_features(&self) -> Vec<f64> {
        vec![
            (self.n_rows as f64).ln(),
            (self.n_features as f64).ln(),
            f64::from(u8::from(self.classification)),
        ]
    }

    /// The missing-value feature group.
    pub fn missing_features(&self) -> Vec<f64> {
        vec![self.missing_rows, self.missing_cols, self.missing_cells]
    }

    /// The data-drift feature group.
    pub fn drift_features(&self) -> Vec<f64> {
        vec![
            self.drift_hdddm,
            self.drift_kdq,
            self.drift_pcacd,
            self.drift_ks.avg,
            self.drift_ks.max,
            self.drift_cdbd.avg,
            self.drift_cdbd.max,
            self.drift_adwin.avg,
            self.drift_adwin.max,
            self.drift_hddm.avg,
            self.drift_hddm.max,
        ]
    }

    /// The concept-drift feature group.
    pub fn concept_features(&self) -> Vec<f64> {
        vec![
            self.concept_ddm,
            self.concept_eddm,
            self.concept_adwin,
            self.concept_perm,
        ]
    }

    /// The outlier feature group.
    pub fn outlier_features(&self) -> Vec<f64> {
        vec![
            self.anomaly_ecod.avg,
            self.anomaly_ecod.max,
            self.anomaly_iforest.avg,
            self.anomaly_iforest.max,
        ]
    }

    /// Every floating field as `(name, raw bits)` in a fixed order — the
    /// thread-count invariance tests and the benchmark's golden digests
    /// compare these for exact equality.
    pub fn field_bits(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("missing_rows", self.missing_rows.to_bits()),
            ("missing_cols", self.missing_cols.to_bits()),
            ("missing_cells", self.missing_cells.to_bits()),
            ("drift_hdddm", self.drift_hdddm.to_bits()),
            ("drift_kdq", self.drift_kdq.to_bits()),
            ("drift_pcacd", self.drift_pcacd.to_bits()),
            ("drift_ks.avg", self.drift_ks.avg.to_bits()),
            ("drift_ks.max", self.drift_ks.max.to_bits()),
            ("drift_cdbd.avg", self.drift_cdbd.avg.to_bits()),
            ("drift_cdbd.max", self.drift_cdbd.max.to_bits()),
            ("drift_adwin.avg", self.drift_adwin.avg.to_bits()),
            ("drift_adwin.max", self.drift_adwin.max.to_bits()),
            ("drift_hddm.avg", self.drift_hddm.avg.to_bits()),
            ("drift_hddm.max", self.drift_hddm.max.to_bits()),
            ("concept_ddm", self.concept_ddm.to_bits()),
            ("concept_eddm", self.concept_eddm.to_bits()),
            ("concept_adwin", self.concept_adwin.to_bits()),
            ("concept_perm", self.concept_perm.to_bits()),
            ("anomaly_ecod.avg", self.anomaly_ecod.avg.to_bits()),
            ("anomaly_ecod.max", self.anomaly_ecod.max.to_bits()),
            ("anomaly_iforest.avg", self.anomaly_iforest.avg.to_bits()),
            ("anomaly_iforest.max", self.anomaly_iforest.max.to_bits()),
        ]
    }
}

/// Windows shorter than this are not scored by the outlier detectors.
const MIN_OUTLIER_ROWS: usize = 8;
/// Windows shorter than this are not tested by PERM.
const MIN_PERM_ROWS: usize = 16;

/// Extracts the full statistics vector for one stream, recomputing every
/// detector on each window of the stream's non-overlapping partition.
///
/// The detectors run as one list of `StatsTask`s through
/// [`parallel_map`] at [`resolve_threads`]`(None)` workers. Each task is
/// pure in its window or column and the results are folded in task
/// order, so the output is bit-identical at any thread count. Calling
/// this from inside executor workers would oversubscribe the machine.
pub fn extract_stats(dataset: &StreamDataset, cfg: &StatsConfig) -> OeStats {
    let missing = dataset.table.missing_stats();
    let ranges = dataset.windows();
    let n_windows = ranges.len();

    // Preprocess exactly as §4.3: one-hot encode, KNN-impute (k=2),
    // normalise.
    let encode_span = ENCODE_SPAN.start();
    let encoder = OneHotEncoder::fit(&dataset.table, &dataset.feature_cols());
    let imputer = KnnImputer { k: 2 };
    let mut windows: Vec<Matrix> = Vec::with_capacity(n_windows);
    for range in &ranges {
        let mut w = encoder.encode(&dataset.table, range.clone());
        if w.as_slice().iter().any(|x| !x.is_finite()) {
            let reference = w.clone();
            imputer.impute(&mut w, &reference);
        }
        windows.push(subsample(w, cfg.max_rows_per_window));
    }
    if let Some(first) = windows.first() {
        let scaler = StandardScaler::fit(first);
        for w in &mut windows {
            scaler.transform(w);
        }
    }
    drop(encode_span);

    let n_cols_enc = windows.first().map_or(0, Matrix::cols);
    // Chains first, so the longest tasks start first.
    let mut tasks = vec![
        StatsTask::Kdq,
        StatsTask::Hdddm,
        StatsTask::PcaCd,
        StatsTask::Concept,
    ];
    for (k, w) in windows.iter().enumerate() {
        if w.rows() >= MIN_PERM_ROWS {
            tasks.push(StatsTask::Perm(k));
        }
        if w.rows() >= MIN_OUTLIER_ROWS {
            tasks.push(StatsTask::Outlier(k));
        }
    }
    tasks.extend((0..n_cols_enc.min(cfg.max_columns)).map(StatsTask::Column));
    let run = |task: StatsTask| match task {
        StatsTask::Kdq => TaskOutput::Kdq(batch_chain(&windows, KdqTreeDetector::default())),
        StatsTask::Hdddm => TaskOutput::Hdddm(batch_chain(&windows, Hdddm::default())),
        StatsTask::PcaCd => TaskOutput::PcaCd(batch_chain(&windows, PcaCd::default())),
        StatsTask::Concept => TaskOutput::Concept(concept_drift_fracs(dataset, &ranges, &windows)),
        StatsTask::Perm(k) => {
            TaskOutput::Perm(perm_flags(dataset, &ranges[k], &windows[k], &cfg.perm))
        }
        StatsTask::Outlier(k) => TaskOutput::Outlier(outlier_ratios(&windows[k], k)),
        StatsTask::Column(c) => TaskOutput::Column(column_rates(&windows, c)),
    };
    let outputs = parallel_map(tasks.len(), resolve_threads(None), |i| {
        let _span = tasks[i].span().start();
        run(tasks[i])
    });

    let per_window = n_windows.max(1) as f64;
    let mut stats = OeStats {
        name: dataset.name.clone(),
        n_rows: dataset.n_rows(),
        n_features: dataset.n_features(),
        n_windows,
        classification: dataset.task.is_classification(),
        missing_rows: missing.rows_with_missing,
        missing_cols: missing.missing_columns,
        missing_cells: missing.empty_cells,
        ..OeStats::default()
    };
    let mut ecod_ratios = Vec::with_capacity(n_windows);
    let mut iforest_ratios = Vec::with_capacity(n_windows);
    let (mut perm_flagged, mut perm_tested) = (0usize, 0usize);
    let mut columns: [Vec<f64>; 4] = Default::default();
    for output in outputs {
        match output {
            TaskOutput::Kdq(hits) => stats.drift_kdq = hits as f64 / per_window,
            TaskOutput::Hdddm(hits) => stats.drift_hdddm = hits as f64 / per_window,
            TaskOutput::PcaCd(hits) => stats.drift_pcacd = hits as f64 / per_window,
            TaskOutput::Concept((ddm, eddm, adwin)) => {
                stats.concept_ddm = ddm;
                stats.concept_eddm = eddm;
                stats.concept_adwin = adwin;
            }
            TaskOutput::Perm(flagged) => {
                perm_tested += 1;
                perm_flagged += usize::from(flagged);
            }
            TaskOutput::Outlier((ecod, iforest)) => {
                ecod_ratios.push(ecod);
                iforest_ratios.push(iforest);
            }
            TaskOutput::Column(rates) => {
                for (values, rate) in columns.iter_mut().zip(rates) {
                    values.push(rate);
                }
            }
        }
    }
    let [ks, cdbd, adwin, hddm] = columns;
    stats.drift_ks = AvgMax::from_values(&ks);
    stats.drift_cdbd = AvgMax::from_values(&cdbd);
    stats.drift_adwin = AvgMax::from_values(&adwin);
    stats.drift_hddm = AvgMax::from_values(&hddm);
    stats.concept_perm = perm_flagged as f64 / perm_tested.max(1) as f64;
    stats.anomaly_ecod = AvgMax::from_values(&ecod_ratios);
    stats.anomaly_iforest = AvgMax::from_values(&iforest_ratios);
    stats
}

/// One independent unit of the detector phase. The chains carry detector
/// state from window to window; every other task depends only on its own
/// window or column.
#[derive(Debug, Clone, Copy)]
enum StatsTask {
    /// kdq-tree over all windows.
    Kdq,
    /// HDDDM over all windows.
    Hdddm,
    /// PCA-CD over all windows.
    PcaCd,
    /// The DDM/EDDM/ADWIN probe over all windows.
    Concept,
    /// PERM on window `k`.
    Perm(usize),
    /// ECOD and IForest on window `k`.
    Outlier(usize),
    /// KS, CDBD, ADWIN and HDDM-A on encoded column `c`.
    Column(usize),
}

impl StatsTask {
    /// The span timing this kind of task.
    fn span(self) -> &'static SpanDef {
        match self {
            StatsTask::Kdq => &KDQ_SPAN,
            StatsTask::Hdddm => &HDDDM_SPAN,
            StatsTask::PcaCd => &PCACD_SPAN,
            StatsTask::Concept => &CONCEPT_SPAN,
            StatsTask::Perm(_) => &PERM_SPAN,
            StatsTask::Outlier(_) => &OUTLIER_SPAN,
            StatsTask::Column(_) => &COLUMN_SPAN,
        }
    }
}

/// What one [`StatsTask`] contributes to [`OeStats`].
enum TaskOutput {
    /// Windows the kdq-tree flagged.
    Kdq(usize),
    /// Windows HDDDM flagged.
    Hdddm(usize),
    /// Windows PCA-CD flagged.
    PcaCd(usize),
    /// `(DDM, EDDM, ADWIN)` fractions of windows.
    Concept((f64, f64, f64)),
    /// Whether PERM flagged the window.
    Perm(bool),
    /// `(ECOD ratio, IForest ratio)`.
    Outlier((f64, f64)),
    /// `[KS, CDBD, ADWIN, HDDM-A]` rates of one column.
    Column([f64; 4]),
}

/// Runs a multi-dimensional batch detector (kdq-tree, HDDDM, PCA-CD)
/// across the windows and counts the windows it flags.
fn batch_chain(windows: &[Matrix], mut detector: impl BatchDriftDetector) -> usize {
    let mut hits = 0;
    for w in windows {
        hits += usize::from(detector.update(w).is_drift());
    }
    hits
}

/// Window `k`'s ECOD ratio and IForest ratio, the forest seeded by the
/// window index.
fn outlier_ratios(w: &Matrix, k: usize) -> (f64, f64) {
    let ecod = anomaly_ratio(&Ecod::fit(w).score_all(w));
    let forest = IsolationForest::fit(
        w,
        &IForestConfig {
            n_trees: 25,
            seed: k as u64,
            ..Default::default()
        },
    );
    (ecod, anomaly_ratio(&forest.score_all(w)))
}

/// `[KS, CDBD, ADWIN, HDDM-A]` for encoded column `c`: KS and CDBD as
/// fractions of windows flagged, ADWIN and HDDM-A as drift events per 1k
/// items. KS and CDBD compare whole windows; ADWIN and HDDM-A are
/// streaming detectors and consume the values in row order.
fn column_rates(windows: &[Matrix], c: usize) -> [f64; 4] {
    let mut ks = KsDetector::new(0.05);
    let mut cdbd = Cdbd::default();
    let mut adwin = Adwin::new(0.002);
    let mut hddm = HddmA::default();
    let (mut ks_hits, mut cdbd_hits) = (0usize, 0usize);
    let (mut adwin_hits, mut hddm_hits, mut n_items) = (0usize, 0usize, 0usize);
    for w in windows {
        let col = w.col(c);
        ks_hits += usize::from(ks.update(&col).is_drift());
        cdbd_hits += usize::from(cdbd.update(&col).is_drift());
        for &v in col.iter().filter(|v| v.is_finite()) {
            n_items += 1;
            // Normalise into [0, 1] for HDDM's Hoeffding bounds.
            let bounded = 0.5 + 0.5 * (v / 4.0).tanh();
            adwin_hits += usize::from(adwin.insert(bounded));
            hddm_hits += usize::from(hddm.update(bounded).is_drift());
        }
    }
    let per_window = windows.len().max(1) as f64;
    let per_k_items = n_items.max(1) as f64 / 1000.0;
    [
        ks_hits as f64 / per_window,
        cdbd_hits as f64 / per_window,
        adwin_hits as f64 / per_k_items,
        hddm_hits as f64 / per_k_items,
    ]
}

/// Runs the probe model window-by-window, feeding its error stream into
/// DDM, EDDM and ADWIN; probes are retrained on the latest window after
/// any drift alert (as in §4.3). Returns the fraction of windows in which
/// each detector fired.
fn concept_drift_fracs(
    dataset: &StreamDataset,
    ranges: &[Range<usize>],
    windows: &[Matrix],
) -> (f64, f64, f64) {
    if windows.len() < 2 {
        return (0.0, 0.0, 0.0);
    }
    enum Probe {
        Nb(GaussianNb),
        Lin(LinearProbe),
    }
    let fit = |w: &Matrix, range: &Range<usize>| -> Probe {
        let ys: Vec<f64> = sample_targets(dataset, range, w.rows());
        match dataset.task {
            Task::Classification { n_classes } => Probe::Nb(GaussianNb::fit(w, &ys, n_classes)),
            Task::Regression => Probe::Lin(LinearProbe::fit(w, &ys)),
        }
    };
    let mut probe = fit(&windows[0], &ranges[0]);
    let mut ddm = Ddm::new();
    let mut eddm = Eddm::new();
    let mut adwin = Adwin::new(0.002);
    let mut ddm_windows = 0usize;
    let mut eddm_windows = 0usize;
    let mut adwin_windows = 0usize;

    for (k, w) in windows.iter().enumerate().skip(1) {
        let ys = sample_targets(dataset, &ranges[k], w.rows());
        let mut fired = (false, false, false);
        for r in 0..w.rows() {
            let err = match (&probe, dataset.task) {
                (Probe::Nb(nb), Task::Classification { .. }) => {
                    f64::from(nb.predict(w.row(r)) != ys[r] as usize)
                }
                (Probe::Lin(lin), Task::Regression) => {
                    // Bounded regression error indicator: large residual
                    // (in scaled-target units) counts as an error.
                    let resid = (lin.predict(w.row(r)) - ys[r]).abs();
                    f64::from(resid > 1.0)
                }
                _ => unreachable!("probe matches task"),
            };
            fired.0 |= ddm.update(err).is_drift();
            fired.1 |= eddm.update(err).is_drift();
            fired.2 |= adwin.update(err).is_drift();
        }
        if fired.0 {
            ddm_windows += 1;
        }
        if fired.1 {
            eddm_windows += 1;
        }
        if fired.2 {
            adwin_windows += 1;
        }
        if fired.0 || fired.1 || fired.2 {
            // Retrain the probe on the most recent data slice.
            probe = fit(w, &ranges[k]);
        }
    }
    let n = (windows.len() - 1) as f64;
    (
        ddm_windows as f64 / n,
        eddm_windows as f64 / n,
        adwin_windows as f64 / n,
    )
}

/// Whether the PERM resampling test flags one window. `perm_test`
/// reseeds its RNG from `cfg.seed` on every call, so windows are
/// independent.
fn perm_flags(dataset: &StreamDataset, range: &Range<usize>, w: &Matrix, cfg: &PermConfig) -> bool {
    let ys = sample_targets(dataset, range, w.rows());
    let outcome = perm_test(w.rows(), cfg, |train, test| {
        let tm = w.gather_rows(train);
        let train_ys: Vec<f64> = train.iter().map(|&i| ys[i]).collect();
        match dataset.task {
            Task::Classification { n_classes } => {
                let nb = GaussianNb::fit(&tm, &train_ys, n_classes);
                let errors = test
                    .iter()
                    .filter(|&&i| nb.predict(w.row(i)) != ys[i] as usize)
                    .count();
                errors as f64 / test.len().max(1) as f64
            }
            Task::Regression => {
                let lin = LinearProbe::fit(&tm, &train_ys);
                test.iter()
                    .map(|&i| (lin.predict(w.row(i)) - ys[i]).powi(2))
                    .sum::<f64>()
                    / test.len().max(1) as f64
            }
        }
    });
    outcome.state == DriftState::Drift
}

/// Targets aligned with a (possibly subsampled) window matrix: the
/// subsampler takes evenly spaced rows, so targets follow the same rule.
fn sample_targets(dataset: &StreamDataset, range: &Range<usize>, n_rows: usize) -> Vec<f64> {
    let len = range.len();
    if n_rows >= len {
        return range.clone().map(|r| dataset.target_at(r)).collect();
    }
    (0..n_rows)
        .map(|i| dataset.target_at(range.start + i * len / n_rows))
        .collect()
}

/// Evenly spaced row subsample of a matrix; a matrix already within the
/// budget is returned as is.
fn subsample(m: Matrix, max_rows: usize) -> Matrix {
    if m.rows() <= max_rows {
        return m;
    }
    let rows: Vec<usize> = (0..max_rows).map(|i| i * m.rows() / max_rows).collect();
    m.gather_rows(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oeb_synth::{generate, registry_scaled, Level};

    fn stats_for(name: &str) -> OeStats {
        let entries = registry_scaled(0.04);
        let entry = entries.iter().find(|e| e.spec.name == name).unwrap();
        let d = generate(&entry.spec, 0);
        extract_stats(&d, &StatsConfig::default())
    }

    #[test]
    fn high_missing_dataset_scores_high_missing() {
        let high = stats_for("Indian Cities Weather Bangalore");
        let low = stats_for("Electricity Prices");
        assert!(
            high.missing_score() > low.missing_score() + 0.05,
            "high {} low {}",
            high.missing_score(),
            low.missing_score()
        );
    }

    #[test]
    fn drifting_dataset_scores_higher_than_stationary() {
        let drifting = stats_for("Power Consumption of Tetouan City");
        let stationary = stats_for("Safe Driver");
        assert!(
            drifting.drift_score() > stationary.drift_score(),
            "drifting {} stationary {}",
            drifting.drift_score(),
            stationary.drift_score()
        );
    }

    #[test]
    fn anomalous_dataset_scores_higher_than_clean() {
        let entries = registry_scaled(0.04);
        let anomalous = entries
            .iter()
            .find(|e| e.spec.anomaly_level == Level::High)
            .unwrap();
        let clean = entries
            .iter()
            .find(|e| e.spec.anomaly_level == Level::Low && e.spec.name == "Safe Driver")
            .unwrap();
        let sa = extract_stats(&generate(&anomalous.spec, 0), &StatsConfig::default());
        let sc = extract_stats(&generate(&clean.spec, 0), &StatsConfig::default());
        assert!(
            sa.anomaly_score() >= sc.anomaly_score(),
            "anomalous {} clean {}",
            sa.anomaly_score(),
            sc.anomaly_score()
        );
    }

    #[test]
    fn stats_fields_are_finite_and_bounded() {
        let s = stats_for("Electricity Prices");
        for group in [
            s.missing_features(),
            s.drift_features(),
            s.concept_features(),
            s.outlier_features(),
            s.basic_features(),
        ] {
            for v in group {
                assert!(v.is_finite());
            }
        }
        assert!(s.missing_cells >= 0.0 && s.missing_cells <= 1.0);
        assert!(s.drift_hdddm >= 0.0 && s.drift_hdddm <= 1.0);
    }

    #[test]
    fn subsample_keeps_row_budget() {
        let m = Matrix::from_rows(&(0..100).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let s = subsample(m, 10);
        assert_eq!(s.rows(), 10);
        assert_eq!(s[(0, 0)], 0.0);
    }
}
