//! The prepare stage of the staged pipeline: everything that happens to
//! a stream *before* any learner sees it — windowing, one-hot encoding,
//! imputation, scaling, outlier removal, optional shuffling and fault
//! injection — materialized once into an immutable [`PreparedStream`].
//!
//! The paper treats preprocessing (§4.2) and evaluation (§5) as separate
//! phases, and prequential comparison is only fair when every algorithm
//! consumes an *identical* stream. Materializing the prepared windows
//! once and sharing them behind [`Arc`]s enforces that by construction:
//! the ten learners of a sweep cell read the same buffers, zero-copy,
//! instead of each re-running the full preprocessing pipeline.
//!
//! [`prepare_cached`] adds a bounded, process-wide cache keyed on the
//! dataset's content fingerprint plus the preprocessing-relevant half of
//! the [`HarnessConfig`], so `run_sweep` and the experiment grid
//! (`run_matrix`, which runs the learners of one prepared stream back
//! to back) fetch rather than regenerate.
//!
//! One deliberate divergence from the old monolithic loop: prepare-stage
//! errors (e.g. a strict-policy schema mismatch in window 5) now surface
//! even when the learner would have failed first with `NotApplicable`
//! on window 0, because the stages run to completion independently. On
//! any stream that prepares cleanly the results are bit-identical.

use crate::error::HarnessError;
use crate::harness::{HarnessConfig, OutlierRemoval, RunResult};
use crate::learners::{window_loss, Algorithm, StreamLearner};
use oeb_faults::{DatasetFrames, FaultInjector, FrameSource, WindowFrame};
use oeb_linalg::Matrix;
use oeb_outlier::{flag_by_sigma, Ecod, IForestConfig, IsolationForest};
use oeb_preprocess::{Imputer, MeanImputer, StandardScaler, TargetScaler, ZeroImputer};
use oeb_tabular::{StreamDataset, Task};
use oeb_trace::{enabled, Counter, Histogram, SpanDef, Stopwatch};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

// Prepare/evaluate instruments. The cache counters are schedule-invariant:
// slot creation is serialised under the global cache lock, so exactly one
// caller per key records the miss regardless of thread count.
static CACHE_HIT: Counter = Counter::new("prepare.cache.hit");
static CACHE_MISS: Counter = Counter::new("prepare.cache.miss");
static CACHE_EVICT: Counter = Counter::new("prepare.cache.evict");
static WINDOWS_PREPARED: Counter = Counter::new("prepare.windows");
static ROWS_PREPARED: Counter = Counter::new("prepare.rows");
static IMPUTE_SPAN: SpanDef = SpanDef::new("prepare.impute");
static SCALE_SPAN: SpanDef = SpanDef::new("prepare.scale");
static DETECT_SPAN: SpanDef = SpanDef::new("prepare.detect");
static TEST_SPAN: SpanDef = SpanDef::new("evaluate.test");
static TRAIN_SPAN: SpanDef = SpanDef::new("evaluate.train");
static WINDOW_UPDATES: Counter = Counter::new("learner.window_updates");
static ITEMS_TESTED: Counter = Counter::new("learner.items_tested");
/// Per-window test-then-train latency in microseconds (log buckets) — the
/// window-level counterpart of `prequential.item.latency_us`, with
/// deterministic p50/p95/p99 derived from the bucket bounds. Sampled only
/// while tracing is enabled; the untraced path adds no clock reads.
static WINDOW_LATENCY: Histogram = Histogram::new(
    "evaluate.window.latency_us",
    &[
        10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000,
    ],
);

/// One fully preprocessed window, ready for test-then-train. Feature and
/// target buffers sit behind [`Arc`]s so every learner evaluating the
/// same stream shares them without copying.
#[derive(Debug, Clone)]
pub struct PreparedWindow {
    /// Window index in the *source* stream (fault injectors may drop or
    /// duplicate windows, so indices need not be consecutive).
    pub index: usize,
    /// Imputed, scaled, outlier-filtered feature rows. May have zero
    /// rows when outlier removal emptied the window; such windows still
    /// advance the warm-up accounting, exactly like the monolithic loop.
    pub features: Arc<Matrix>,
    /// One target per feature row (z-scored for regression tasks).
    pub targets: Arc<Vec<f64>>,
    /// Degradations the prepare stage recorded since the previous
    /// emitted window (skipped windows, imputer fallbacks). The evaluate
    /// stage replays them into [`RunResult::degradations`] in order.
    pub pre_degradations: Vec<String>,
}

/// The shared, immutable artifact between the prepare and evaluate
/// stages: one `(dataset, seed, preprocessing config)` key's worth of
/// preprocessed windows.
#[derive(Debug, Clone)]
pub struct PreparedStream {
    /// Dataset name as it should appear in results (shuffled streams
    /// carry the generator's "(shuffled)" suffix).
    pub dataset: String,
    /// Learning task.
    pub task: Task,
    /// Feature width every learner is built for.
    pub dim: usize,
    /// The preprocessed windows in stream order.
    pub windows: Vec<PreparedWindow>,
    /// Degradations recorded after the last emitted window (e.g. a
    /// trailing run of skipped windows).
    pub trailing_degradations: Vec<String>,
}

impl PreparedStream {
    /// Total samples across all prepared windows.
    pub fn n_items(&self) -> usize {
        self.windows.iter().map(|w| w.features.rows()).sum()
    }
}

/// Runs the full prepare pipeline for one dataset + config: shuffling,
/// feature selection, windowed encoding, and [`prepare_from_source`]
/// over the (optionally fault-injected) frame stream.
pub fn prepare_stream(
    dataset: &StreamDataset,
    config: &HarnessConfig,
) -> Result<PreparedStream, HarnessError> {
    config.validate()?;
    let dataset = if config.shuffle {
        let mut order: Vec<usize> = (0..dataset.n_rows()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed ^ SHUFFLE_SEED);
        order.shuffle(&mut rng);
        std::borrow::Cow::Owned(dataset.permuted(&order))
    } else {
        std::borrow::Cow::Borrowed(dataset)
    };
    let dataset: &StreamDataset = &dataset;

    // Select the feature columns, possibly discarding the most-missing.
    let mut feature_cols = dataset.feature_cols();
    if config.discard_most_missing > 0 {
        feature_cols.sort_by(|&a, &b| {
            let ra = dataset.table.column(a).missing_ratio();
            let rb = dataset.table.column(b).missing_ratio();
            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let keep = feature_cols
            .len()
            .saturating_sub(config.discard_most_missing)
            .max(1);
        feature_cols.truncate(keep);
        feature_cols.sort_unstable();
    }

    let mut frames = DatasetFrames::new(dataset, &feature_cols, config.window_factor);
    let input_dim = frames.width();
    let found = frames.n_windows();
    if found < 2 {
        return Err(HarnessError::InsufficientWindows { found });
    }

    // Oracle imputation reference: the whole encoded stream.
    let oracle_reference = if config.oracle_imputation {
        Some(frames.encoder().encode_all(&dataset.table))
    } else {
        None
    };

    match &config.fault_plan {
        Some(plan) => {
            let mut injected = FaultInjector::new(frames, plan.clone());
            prepare_from_source(
                &mut injected,
                dataset.task,
                &dataset.name,
                config,
                oracle_reference.as_ref(),
                Some(input_dim),
            )
        }
        None => prepare_from_source(
            &mut frames,
            dataset.task,
            &dataset.name,
            config,
            oracle_reference.as_ref(),
            Some(input_dim),
        ),
    }
}

/// Prepares an arbitrary frame source: imputes, scales and
/// outlier-filters every window per `config`, recording degradations.
///
/// `expected_dim` fixes the feature width; when `None` the first frame
/// defines it. Frames with a different width are skipped or rejected per
/// `config.degrade`. The per-window order of operations replicates the
/// old monolithic test-then-train loop exactly, so evaluating the result
/// is bit-identical to the pre-split harness.
pub fn prepare_from_source<S: FrameSource>(
    source: &mut S,
    task: Task,
    dataset_name: &str,
    config: &HarnessConfig,
    oracle_reference: Option<&Matrix>,
    expected_dim: Option<usize>,
) -> Result<PreparedStream, HarnessError> {
    config.validate()?;
    let policy = config.degrade;
    let imputer = config.imputer.build();

    let mut expected = expected_dim;
    let mut scaler: Option<StandardScaler> = None;
    let mut target_scaler: Option<TargetScaler> = None;
    let mut reference = ReferenceBuffer::new();
    let mut windows: Vec<PreparedWindow> = Vec::new();
    // Degradations since the last emitted window; flushed into the next
    // emission so evaluate replays them in chronological order.
    let mut pending: Vec<String> = Vec::new();

    while let Some(frame) = source.next_frame() {
        let dim = *expected.get_or_insert_with(|| frame.cols());
        if frame.cols() != dim {
            if policy.skip_bad_windows {
                pending.push(format!(
                    "window {}: skipped, schema mismatch ({} columns, expected {dim})",
                    frame.index,
                    frame.cols()
                ));
                continue;
            }
            return Err(HarnessError::SchemaMismatch {
                window: frame.index,
                expected: dim,
                got: frame.cols(),
            });
        }
        if frame.rows() != frame.targets.len() {
            if policy.skip_bad_windows {
                pending.push(format!(
                    "window {}: skipped, {} rows vs {} targets",
                    frame.index,
                    frame.rows(),
                    frame.targets.len()
                ));
                continue;
            }
            return Err(HarnessError::InvalidConfig(format!(
                "window {}: {} feature rows but {} targets",
                frame.index,
                frame.rows(),
                frame.targets.len()
            )));
        }
        if frame.rows() == 0 {
            continue;
        }

        let is_first = windows.is_empty();
        let WindowFrame {
            index,
            features: mut feats,
            mut targets,
        } = frame;

        // Warm-up window enters the imputation reference raw (§6.1);
        // later windows enter imputed, below.
        if is_first {
            reference.push_window(&feats, config.reference_cap);
        }
        // The guard also covers the fallback path below: early `continue`
        // / `return` still record the span via RAII drop.
        let impute_span = IMPUTE_SPAN.start();
        impute_window(imputer.as_ref(), &mut feats, oracle_reference, &reference);
        if !feats.is_finite() {
            if policy.imputer_fallback {
                let fallback_ref = if reference.is_empty() {
                    feats.clone()
                } else {
                    reference.to_matrix()
                };
                MeanImputer.impute(&mut feats, &fallback_ref);
                if !feats.is_finite() {
                    ZeroImputer.impute(&mut feats, &fallback_ref);
                }
                pending.push(format!(
                    "window {index}: {} left non-finite cells, fell back to mean/zero",
                    imputer.name()
                ));
            } else if policy.skip_bad_windows {
                pending.push(format!(
                    "window {index}: skipped, {} left non-finite cells",
                    imputer.name()
                ));
                continue;
            } else {
                return Err(HarnessError::ImputationFailed {
                    window: index,
                    detail: format!("{} left non-finite cells", imputer.name()),
                });
            }
        }

        drop(impute_span);

        let scale_span = SCALE_SPAN.start();
        if is_first {
            // First-window statistics fix the scalers for the whole run.
            scaler = Some(StandardScaler::fit(&feats));
            target_scaler = match task {
                Task::Regression => Some(TargetScaler::fit(&targets)),
                Task::Classification { .. } => None,
            };
        } else {
            reference.push_window(&feats, config.reference_cap);
        }

        scaler
            .as_ref()
            .expect("scaler set on warm-up")
            .transform(&mut feats);
        if let Some(ts) = &target_scaler {
            for t in &mut targets {
                *t = ts.transform(*t);
            }
        }
        drop(scale_span);

        // Optional outlier removal before test and train (§6.8).
        let (feats, targets) = match config.outlier_removal {
            OutlierRemoval::None => (feats, targets),
            OutlierRemoval::Ecod => {
                let _detect = DETECT_SPAN.start();
                let scores = Ecod::fit(&feats).score_all(&feats);
                retain_unflagged(feats, targets, &scores)
            }
            OutlierRemoval::IForest => {
                let _detect = DETECT_SPAN.start();
                let forest = IsolationForest::fit(
                    &feats,
                    &IForestConfig {
                        n_trees: 25,
                        seed: config.seed ^ index as u64,
                        ..Default::default()
                    },
                );
                let scores = forest.score_all(&feats);
                retain_unflagged(feats, targets, &scores)
            }
        };

        // A window emptied by removal is still emitted: it advances the
        // warm-up accounting without training, like the old loop.
        WINDOWS_PREPARED.incr();
        ROWS_PREPARED.add(feats.rows() as u64);
        windows.push(PreparedWindow {
            index,
            features: Arc::new(feats),
            targets: Arc::new(targets),
            pre_degradations: std::mem::take(&mut pending),
        });
    }

    Ok(PreparedStream {
        dataset: dataset_name.to_string(),
        task,
        dim: expected.unwrap_or(0),
        windows,
        trailing_degradations: pending,
    })
}

/// The evaluate stage: runs one learner prequentially over a prepared
/// stream. Only learner work (predict / train) is timed; the shared
/// preprocessing cost never enters the per-run wall-clock columns.
///
/// The budget of `config.supervise` starts here and is checked
/// cooperatively at the top of every window, before any work on it, so
/// a logical budget stops at the same window on every replay. It covers
/// only the evaluate stage — the prepare stage is a shared, cached
/// artifact whose cost is amortised across the sweep and cannot be
/// attributed to one cell.
pub fn evaluate_prepared(
    prepared: &PreparedStream,
    algorithm: Algorithm,
    config: &HarnessConfig,
) -> Result<RunResult, HarnessError> {
    config.validate()?;
    let budget = config.supervise.budget();
    let policy = config.degrade;
    let mut learner_cfg = config.learner.clone();
    learner_cfg.seed = learner_cfg.seed.wrapping_add(config.seed);

    let mut learner: Option<Box<dyn StreamLearner>> = None;
    let mut preds = Vec::new();
    let mut per_window_loss = Vec::new();
    let mut degradations: Vec<String> = Vec::new();
    let mut resets = 0usize;
    // Windows that entered the pipeline (the old loop's positional `k`):
    // window 0 is the warm-up, every later one is tested before training.
    let mut seen = 0usize;
    let mut train_seconds = 0.0;
    let mut test_seconds = 0.0;
    let mut items = 0usize;
    let mut memory_peak = 0usize;

    for window in &prepared.windows {
        budget.check(seen, items)?;
        degradations.extend(window.pre_degradations.iter().cloned());
        if learner.is_none() {
            learner = Some(
                algorithm
                    .make(prepared.task, prepared.dim, &learner_cfg)
                    .ok_or_else(|| HarnessError::NotApplicable {
                        algorithm: algorithm.name().to_string(),
                        task: format!("{:?}", prepared.task),
                    })?,
            );
        }
        let feats = &window.features;
        let targets = &window.targets;
        if feats.rows() == 0 {
            seen += 1;
            continue;
        }

        let model = learner.as_mut().expect("learner set on warm-up");
        let window_watch = enabled().then(Stopwatch::start);
        if seen > 0 {
            // Test phase. The stopwatch's value flows into the reported
            // test-seconds metric; the span it records on stop is
            // trace-channel only.
            let watch = Stopwatch::start();
            model.predict(feats, &mut preds);
            let loss = window_loss(prepared.task, &preds, targets);
            test_seconds += watch.stop(&TEST_SPAN);
            if !loss.is_finite() && policy.reset_on_nonfinite {
                resets += 1;
                if resets > policy.max_retries {
                    return Err(HarnessError::NonFiniteLoss {
                        window: window.index,
                        retries: policy.max_retries,
                    });
                }
                degradations.push(format!(
                    "window {}: non-finite loss, model reset ({resets}/{})",
                    window.index, policy.max_retries
                ));
                *model = algorithm
                    .make(prepared.task, prepared.dim, &learner_cfg)
                    .expect("algorithm applied on warm-up");
            } else {
                per_window_loss.push(loss);
                items += feats.rows();
                ITEMS_TESTED.add(feats.rows() as u64);
            }
        }

        // Train phase.
        let watch = Stopwatch::start();
        model.train_window(feats, targets);
        train_seconds += watch.stop(&TRAIN_SPAN);
        if let Some(watch) = window_watch {
            WINDOW_LATENCY.record(watch.elapsed_micros());
        }
        WINDOW_UPDATES.incr();
        items += feats.rows();
        memory_peak = memory_peak.max(model.memory_bytes());
        seen += 1;
    }
    degradations.extend(prepared.trailing_degradations.iter().cloned());

    if learner.is_none() {
        return Err(HarnessError::EmptyStream);
    }
    let mean_loss = if per_window_loss.is_empty() {
        f64::NAN
    } else {
        per_window_loss.iter().sum::<f64>() / per_window_loss.len() as f64
    };
    let elapsed = (train_seconds + test_seconds).max(1e-9);
    Ok(RunResult {
        dataset: prepared.dataset.clone(),
        algorithm: algorithm.name().to_string(),
        per_window_loss,
        mean_loss,
        train_seconds,
        test_seconds,
        items,
        throughput: items as f64 / elapsed,
        memory_bytes: memory_peak,
        degradations,
    })
}

// ---------------------------------------------------------------------
// Keyed prepare cache.

type CachedPrepare = Result<Arc<PreparedStream>, HarnessError>;
type CacheSlot = Arc<Mutex<Option<CachedPrepare>>>;

struct PrepareCache {
    map: HashMap<String, CacheSlot>,
    order: VecDeque<String>,
}

static CACHE: Mutex<Option<PrepareCache>> = Mutex::new(None);

/// Number of prepared streams kept resident. Sharing is temporally
/// local (one dataset crosses all algorithms and seeds before the sweep
/// moves on), so a small window suffices.
const CAPACITY: usize = 8;

/// Cache key: dataset content fingerprint plus every config field the
/// prepare stage reads. Learner hyper-parameters and the supervision
/// policy are deliberately excluded — ten learners on one (dataset,
/// seed) share one entry, supervised or not.
fn prepare_key(dataset: &StreamDataset, config: &HarnessConfig) -> String {
    format!(
        "{:016x}|{}|wf={}|imp={:?}|oracle={}|discard={}|out={:?}|shuf={}|cap={}|seed={}|deg={:?}|fault={:?}",
        dataset.fingerprint(),
        dataset.name,
        config.window_factor.to_bits(),
        config.imputer,
        config.oracle_imputation,
        config.discard_most_missing,
        config.outlier_removal,
        config.shuffle,
        config.reference_cap,
        config.seed,
        config.degrade,
        config.fault_plan,
    )
}

/// [`prepare_stream`] behind the process-wide keyed cache: the first
/// caller for a key prepares, every later caller (typically another
/// algorithm on the same cell) fetches the shared artifact. Concurrent
/// callers for the same key block on a per-entry mutex instead of
/// duplicating the work; errors are cached like successes.
pub fn prepare_cached(
    dataset: &StreamDataset,
    config: &HarnessConfig,
) -> Result<Arc<PreparedStream>, HarnessError> {
    let key = prepare_key(dataset, config);
    let slot: CacheSlot = {
        let mut guard = CACHE.lock();
        let cache = guard.get_or_insert_with(|| PrepareCache {
            map: HashMap::new(),
            order: VecDeque::new(),
        });
        match cache.map.get(&key) {
            Some(slot) => {
                CACHE_HIT.incr();
                slot.clone()
            }
            None => {
                CACHE_MISS.incr();
                let slot: CacheSlot = Arc::new(Mutex::new(None));
                cache.map.insert(key.clone(), slot.clone());
                cache.order.push_back(key);
                while cache.order.len() > CAPACITY {
                    if let Some(evicted) = cache.order.pop_front() {
                        cache.map.remove(&evicted);
                        CACHE_EVICT.incr();
                    }
                }
                slot
            }
        }
    };
    let mut entry = slot.lock();
    if let Some(cached) = entry.as_ref() {
        return cached.clone();
    }
    let computed = prepare_stream(dataset, config).map(Arc::new);
    *entry = Some(computed.clone());
    computed
}

/// Rolling imputation reference held as one flat row-major buffer.
///
/// The historical `Vec<Vec<f64>>` allocated one `Vec` per pushed row and
/// re-packed the whole window history into a fresh `Matrix` on every
/// window; this keeps the same rows (same order, same trimming) in a
/// single contiguous buffer that materialises with one memcpy.
struct ReferenceBuffer {
    dim: usize,
    data: Vec<f64>,
}

impl ReferenceBuffer {
    fn new() -> Self {
        ReferenceBuffer {
            dim: 0,
            data: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Appends every row of `window`, then trims the oldest rows above
    /// `cap` (the same FIFO semantics as the historical per-row push).
    fn push_window(&mut self, window: &Matrix, cap: usize) {
        if window.rows() == 0 {
            return;
        }
        self.dim = window.cols();
        self.data.extend_from_slice(window.as_slice());
        let rows = self.rows();
        if rows > cap {
            let excess = rows - cap;
            self.data.drain(..excess * self.dim);
        }
    }

    /// Materialises the buffer as a matrix for the imputer.
    fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows(), self.dim, self.data.clone())
    }
}

fn impute_window(
    imputer: &dyn Imputer,
    window: &mut Matrix,
    oracle: Option<&Matrix>,
    reference: &ReferenceBuffer,
) {
    let has_missing = window.as_slice().iter().any(|x| !x.is_finite());
    if !has_missing {
        return;
    }
    match oracle {
        Some(full) => imputer.impute(window, full),
        None => {
            if reference.is_empty() {
                let self_ref = window.clone();
                imputer.impute(window, &self_ref);
            } else {
                imputer.impute(window, &reference.to_matrix());
            }
        }
    }
}

fn retain_unflagged(feats: Matrix, targets: Vec<f64>, scores: &[f64]) -> (Matrix, Vec<f64>) {
    let flags = flag_by_sigma(scores, 3.0);
    let keep: Vec<usize> = (0..feats.rows()).filter(|&r| !flags[r]).collect();
    if keep.len() == feats.rows() {
        return (feats, targets);
    }
    let ys: Vec<f64> = keep.iter().map(|&r| targets[r]).collect();
    (feats.gather_rows(&keep), ys)
}

/// Seed salt for the Figure 15 shuffled baseline (ASCII "shuf").
pub(crate) const SHUFFLE_SEED: u64 = 0x73687566;

#[cfg(test)]
mod tests {
    use super::*;
    use oeb_faults::FrameVec;
    use oeb_synth::{generate, registry_scaled};

    fn small_dataset() -> StreamDataset {
        let entries = registry_scaled(0.03);
        let entry = entries
            .iter()
            .find(|e| e.spec.name == "Electricity Prices")
            .unwrap();
        generate(&entry.spec, 0)
    }

    #[test]
    fn prepare_cached_shares_one_artifact_across_learner_configs() {
        let d = small_dataset();
        let cfg = HarnessConfig::default();
        let a = prepare_cached(&d, &cfg).unwrap();
        // A different learner or supervision config must hit the same
        // prepared stream: prepare depends on neither.
        let mut other = cfg.clone();
        other.learner.epochs = 17;
        other.supervise.max_retries = 3;
        let b = prepare_cached(&d, &other).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "prepare key must ignore learner and supervision config"
        );
        // A different seed is a different prepared stream.
        let mut seeded = cfg.clone();
        seeded.seed = 1;
        let c = prepare_cached(&d, &seeded).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn evaluate_over_cached_stream_matches_direct_run() {
        let d = small_dataset();
        let cfg = HarnessConfig::default();
        let prepared = prepare_cached(&d, &cfg).unwrap();
        let staged = evaluate_prepared(&prepared, Algorithm::NaiveDt, &cfg).unwrap();
        let direct = crate::harness::try_run_stream(&d, Algorithm::NaiveDt, &cfg).unwrap();
        assert_eq!(staged.per_window_loss, direct.per_window_loss);
        assert_eq!(staged.mean_loss.to_bits(), direct.mean_loss.to_bits());
        assert_eq!(staged.items, direct.items);
        assert_eq!(staged.degradations, direct.degradations);
    }

    #[test]
    fn prepared_windows_are_shared_zero_copy() {
        let d = small_dataset();
        let cfg = HarnessConfig::default();
        let prepared = prepare_stream(&d, &cfg).unwrap();
        let clone = prepared.clone();
        for (a, b) in prepared.windows.iter().zip(&clone.windows) {
            assert!(Arc::ptr_eq(&a.features, &b.features));
            assert!(Arc::ptr_eq(&a.targets, &b.targets));
        }
        assert!(prepared.n_items() > 0);
    }

    #[test]
    fn prepare_errors_are_cached_and_cloned() {
        let entries = registry_scaled(0.03);
        let entry = entries
            .iter()
            .find(|e| e.spec.name == "Electricity Prices")
            .unwrap();
        let mut spec = entry.spec.clone();
        spec.default_window = spec.n_rows; // one giant window
        let d = generate(&spec, 0);
        let cfg = HarnessConfig::default();
        let first = prepare_cached(&d, &cfg).unwrap_err();
        let second = prepare_cached(&d, &cfg).unwrap_err();
        assert_eq!(first, second);
        assert!(matches!(
            first,
            HarnessError::InsufficientWindows { found: 1 }
        ));
    }

    #[test]
    fn shared_frame_replay_prepares_identically() {
        // Capturing the raw frame stream once and preparing from the
        // replay produces the same artifact as preparing from the
        // dataset directly — the FrameSource seam is lossless.
        let d = small_dataset();
        let cfg = HarnessConfig::default();
        let direct = prepare_stream(&d, &cfg).unwrap();

        let feature_cols = d.feature_cols();
        let mut frames = DatasetFrames::new(&d, &feature_cols, cfg.window_factor);
        let dim = frames.width();
        let captured: Vec<WindowFrame> = std::iter::from_fn(|| frames.next_frame()).collect();
        let mut replay = FrameVec::new(captured);
        let replayed =
            prepare_from_source(&mut replay, d.task, &d.name, &cfg, None, Some(dim)).unwrap();

        assert_eq!(direct.windows.len(), replayed.windows.len());
        for (a, b) in direct.windows.iter().zip(&replayed.windows) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.features.as_slice(), b.features.as_slice());
            assert_eq!(a.targets, b.targets);
        }
    }
}
