//! Incremental delta-statistics vs full per-window recomputation,
//! emitted as `BENCH_incremental.json`.
//!
//! A sliding window (size `W`, stride = change-rate × `W`) advances over
//! a deterministic synthetic stream, and after every slide both engines
//! produce the same statistic bundle:
//!
//! * missing-value ratios (rows / columns / cells);
//! * standard-scaler means and stds;
//! * per-column two-sample KS statistic against the first window;
//! * per-column Hellinger distance between 16-bin histograms and the
//!   first window's histograms;
//! * ECOD outlier scores of 16 fixed probe rows.
//!
//! The **full** engine recomputes everything from the window's rows
//! (`missing_stats`-style scan, [`StandardScaler::fit`], one sort per
//! column and [`ks_statistic_sorted`] against the sorted reference as
//! the batch KS detector does, [`Histogram::new`], [`Ecod::fit`]) — the
//! cost of `--stats-mode full`. The **incremental** engine maintains
//! sufficient statistics ([`MissingDelta`], [`ScalerDelta`],
//! [`EcdfMultiset`], maintained bin counts, [`EcodDelta`]) and only
//! absorbs/retracts the rows each slide touches.
//!
//! Both engines are timed over the *slides*: the first window's state is
//! built once in untimed setup and cloned per pass (the acceptance
//! question is what a steady-state window slide costs, not the cold
//! start), and the full engine likewise skips the first window.
//!
//! Equivalence is enforced, not assumed: the counting statistics (KS,
//! histograms, missing ratios, ECOD scores) must agree **bit-for-bit**
//! (an FNV digest over their raw bits is compared per pass), and the
//! scaler moments must agree to the documented 1e-9 relative epsilon.
//!
//! Timing uses [`oeb_bench::warm_min_pair`]: alternating warm passes,
//! minimum per side.
//!
//! Usage: `bench_incremental [--quick] [--out FILE]`

use oeb_bench::warm_min_pair;
use oeb_linalg::{
    hellinger, ks_between, ks_statistic_sorted, EcdfMultiset, EcdfUniverse, Histogram,
};
use oeb_outlier::{Ecod, EcodDelta};
use oeb_preprocess::{ScalerDelta, StandardScaler};
use oeb_tabular::{
    sliding_window_ranges, window_slide_deltas, DeltaStat, MissingDelta, SlideDelta,
};
use std::ops::Range;
use std::sync::Arc;

const BINS: usize = 16;
const N_PROBES: usize = 16;
const SCALER_REL_EPS: f64 = 1e-9;

struct Options {
    quick: bool,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let usage = "usage: bench_incremental [--quick] [--out FILE]";
    let mut opts = Options {
        quick: false,
        out: "BENCH_incremental.json".into(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--out" => {
                i += 1;
                opts.out = args
                    .get(i)
                    .cloned()
                    .ok_or(format!("--out needs a path\n{usage}"))?;
            }
            _ => return Err(usage.to_string()),
        }
        i += 1;
    }
    Ok(opts)
}

/// Same LCG family as the other benchmark bins; inputs must not depend
/// on ambient entropy.
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed
}

fn lcg_f64(seed: &mut u64) -> f64 {
    (lcg(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// A drifting stream with NaN holes, infinity pollution, `-0.0`, and
/// (in the first two columns) heavy value multiplicity, so the delta
/// structures face the same mess the chaos tests use.
fn gen_stream(n: usize, d: usize, seed: &mut u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|r| {
            let t = r as f64 / n.max(1) as f64;
            (0..d)
                .map(|c| {
                    let noise = lcg_f64(seed) * 2.0 - 1.0;
                    match lcg(seed) % 100 {
                        0..=3 => f64::NAN,
                        4 => f64::INFINITY,
                        5 => -0.0,
                        _ => {
                            let v = c as f64 + 3.0 * t + noise;
                            if c < 2 {
                                (v * 8.0).round() / 8.0
                            } else {
                                v
                            }
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// FNV-1a-style fold of one word into a running digest.
fn fold(h: u64, bits: u64) -> u64 {
    (h ^ bits).wrapping_mul(0x100000001b3)
}

/// One engine's outputs over every slid window of a rate's run: a digest
/// of the bit-exact statistics, and the scaler moments (epsilon
/// contract) kept separate for the relative comparison.
#[derive(Default)]
struct RunOutput {
    digest: u64,
    scaler: Vec<f64>,
}

impl RunOutput {
    fn push_exact(&mut self, x: f64) {
        self.digest = fold(self.digest, x.to_bits());
    }

    fn push_scaler(&mut self, s: &StandardScaler) {
        self.scaler.extend_from_slice(&s.means);
        self.scaler.extend_from_slice(&s.stds);
    }
}

/// Maintained equal-width bin counts over a fixed range — the bin-count
/// delta behind the histogram comparison. The bin arithmetic is
/// copied from [`Histogram::new`], and the counts are integers, so the
/// snapshot probabilities are bit-identical to a batch histogram of the
/// same rows.
#[derive(Clone)]
struct BinCounts {
    lo: f64,
    span: f64,
    counts: Vec<usize>,
    total: usize,
}

impl BinCounts {
    fn new(lo: f64, hi: f64) -> BinCounts {
        BinCounts {
            lo,
            span: (hi - lo).max(f64::MIN_POSITIVE),
            counts: vec![0; BINS],
            total: 0,
        }
    }

    fn bin_of(&self, x: f64) -> usize {
        let frac = ((x - self.lo) / self.span).clamp(0.0, 1.0);
        let b = (frac * BINS as f64) as usize;
        b.min(BINS - 1)
    }

    fn add(&mut self, x: f64) {
        if x.is_finite() {
            let b = self.bin_of(x);
            self.counts[b] += 1;
            self.total += 1;
        }
    }

    fn sub(&mut self, x: f64) {
        if x.is_finite() {
            let b = self.bin_of(x);
            assert!(self.counts[b] > 0, "retracting from an empty bin");
            self.counts[b] -= 1;
            self.total -= 1;
        }
    }

    /// Same normalisation as [`Histogram::probabilities`].
    fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; BINS];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

/// Per-column reference state shared by both engines (the first window,
/// frozen): finite values sorted by `total_cmp` for the batch KS,
/// multisets for the delta KS, histogram probabilities, and the fixed bin
/// range.
struct Reference {
    finite_cols: Vec<Vec<f64>>,
    sets: Vec<EcdfMultiset>,
    probs: Vec<Vec<f64>>,
    ranges: Vec<(f64, f64)>,
}

fn build_reference(
    stream: &[Vec<f64>],
    window: &Range<usize>,
    universes: &[Arc<EcdfUniverse>],
) -> Reference {
    let d = universes.len();
    let mut sets: Vec<EcdfMultiset> = universes
        .iter()
        .map(|u| EcdfMultiset::new(Arc::clone(u)))
        .collect();
    for row in &stream[window.start..window.end] {
        for (c, set) in sets.iter_mut().enumerate() {
            set.insert(row[c]);
        }
    }
    let finite_cols: Vec<Vec<f64>> = (0..d)
        .map(|c| {
            let mut col: Vec<f64> = stream[window.start..window.end]
                .iter()
                .map(|row| row[c])
                .filter(|x| x.is_finite())
                .collect();
            col.sort_unstable_by(f64::total_cmp);
            col
        })
        .collect();
    // Fixed bin ranges from the whole stream's per-column extremes, so
    // every window (and both engines) bins identically.
    let ranges: Vec<(f64, f64)> = universes
        .iter()
        .map(|u| {
            if u.is_empty() {
                return (0.0, 1.0);
            }
            let lo = u.value_at(0);
            let hi = u.value_at(u.len() - 1);
            (lo, if hi > lo { hi } else { lo + 1.0 })
        })
        .collect();
    let probs = sets
        .iter()
        .zip(&ranges)
        .map(|(s, &(lo, hi))| s.histogram(BINS, lo, hi).probabilities())
        .collect();
    Reference {
        finite_cols,
        sets,
        probs,
        ranges,
    }
}

/// The pre-delta pipeline: rebuild every statistic from the window's
/// rows on each slide.
fn run_full(
    stream: &[Vec<f64>],
    windows: &[Range<usize>],
    reference: &Reference,
    probes: &[Vec<f64>],
    d: usize,
) -> RunOutput {
    let mut out = RunOutput::default();
    for w in &windows[1..] {
        let rows = &stream[w.start..w.end];

        // Missing ratios, mirroring `Table::missing_stats`.
        let n_rows = rows.len();
        let mut rows_with_missing = 0usize;
        let mut col_missing = vec![0usize; d];
        for row in rows {
            let mut any = false;
            for (c, x) in row.iter().enumerate() {
                if x.is_nan() {
                    any = true;
                    col_missing[c] += 1;
                }
            }
            if any {
                rows_with_missing += 1;
            }
        }
        let cells: usize = col_missing.iter().sum();
        let missing_cols = col_missing.iter().filter(|&&m| m > 0).count();
        out.push_exact(rows_with_missing as f64 / n_rows as f64);
        out.push_exact(missing_cols as f64 / d as f64);
        out.push_exact(cells as f64 / (n_rows * d) as f64);

        // Scaler: the two-pass batch fit.
        let m = oeb_linalg::Matrix::from_rows(rows);
        out.push_scaler(&StandardScaler::fit(&m));

        // KS and histogram divergence per column, against the frozen
        // reference. Each window column is sorted once and the reference
        // stays sorted — what the batch KS detector pays per window.
        for c in 0..d {
            let mut col: Vec<f64> = rows
                .iter()
                .map(|row| row[c])
                .filter(|x| x.is_finite())
                .collect();
            col.sort_unstable_by(f64::total_cmp);
            out.push_exact(ks_statistic_sorted(&col, &reference.finite_cols[c]));
            let (lo, hi) = reference.ranges[c];
            let h = Histogram::new(&col, BINS, lo, hi);
            out.push_exact(hellinger(&h.probabilities(), &reference.probs[c]));
        }

        // ECOD: full per-column re-sort and fit, then the probe scores.
        let model = Ecod::fit(&m);
        for p in probes {
            out.push_exact(model.score(p));
        }
    }
    out
}

/// The maintained sufficient statistics of the delta pipeline.
#[derive(Clone)]
struct IncState {
    missing: MissingDelta,
    scaler: ScalerDelta,
    ecod: EcodDelta,
    cols: Vec<EcdfMultiset>,
    hists: Vec<BinCounts>,
}

impl IncState {
    fn absorb(&mut self, row: &[f64]) {
        self.missing.absorb(row);
        self.scaler.absorb(row);
        self.ecod.absorb(row);
        for (c, &x) in row.iter().enumerate() {
            self.cols[c].insert(x);
            self.hists[c].add(x);
        }
    }

    fn retract(&mut self, row: &[f64]) {
        self.missing.retract(row);
        self.scaler.retract(row);
        self.ecod.retract(row);
        for (c, &x) in row.iter().enumerate() {
            self.cols[c].remove(x);
            self.hists[c].sub(x);
        }
    }
}

/// Builds the first window's maintained state (untimed setup; the timed
/// runs clone this and slide from it).
fn prime(
    stream: &[Vec<f64>],
    window: &Range<usize>,
    universes: &[Arc<EcdfUniverse>],
    reference: &Reference,
) -> IncState {
    let d = universes.len();
    let mut state = IncState {
        missing: MissingDelta::new(d),
        scaler: ScalerDelta::new(d),
        ecod: EcodDelta::new(universes),
        cols: universes
            .iter()
            .map(|u| EcdfMultiset::new(Arc::clone(u)))
            .collect(),
        hists: reference
            .ranges
            .iter()
            .map(|&(lo, hi)| BinCounts::new(lo, hi))
            .collect(),
    };
    for row in &stream[window.start..window.end] {
        state.absorb(row);
    }
    state
}

/// The delta pipeline: clone the primed first-window state, then touch
/// only the rows each slide enters or leaves.
fn run_incremental(
    stream: &[Vec<f64>],
    slides: &[SlideDelta],
    reference: &Reference,
    probes: &[Vec<f64>],
    primed: &IncState,
) -> RunOutput {
    let d = reference.sets.len();
    let mut out = RunOutput::default();
    let mut state = primed.clone();

    for slide in slides {
        for r in slide.leaving.clone() {
            state.retract(&stream[r]);
        }
        for r in slide.entering.clone() {
            state.absorb(&stream[r]);
        }

        let ms = state.missing.snapshot();
        out.push_exact(ms.rows_with_missing);
        out.push_exact(ms.missing_columns);
        out.push_exact(ms.empty_cells);

        out.push_scaler(&state.scaler.snapshot());

        for c in 0..d {
            out.push_exact(ks_between(&state.cols[c], &reference.sets[c]));
            out.push_exact(hellinger(
                &state.hists[c].probabilities(),
                &reference.probs[c],
            ));
        }

        let model = state.ecod.snapshot();
        for p in probes {
            out.push_exact(model.score(p));
        }
    }
    out
}

/// Largest relative deviation between the two engines' scaler moments.
fn scaler_max_rel_dev(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "scaler series must align");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / (1.0 + x.abs().max(y.abs())))
        .fold(0.0, f64::max)
}

fn bench_rate(
    change_rate: f64,
    window_rows: usize,
    n_slides: usize,
    d: usize,
    passes: usize,
) -> serde_json::Value {
    let stride = ((change_rate * window_rows as f64) as usize).max(1);
    let n_rows = window_rows + n_slides * stride;
    let mut seed = 0x0eb_de17a ^ (stride as u64);
    let stream = gen_stream(n_rows, d, &mut seed);
    let probes = gen_stream(N_PROBES, d, &mut seed);
    let windows = sliding_window_ranges(n_rows, window_rows, stride);
    let universes: Vec<Arc<EcdfUniverse>> = (0..d)
        .map(|c| {
            Arc::new(EcdfUniverse::from_values(
                stream.iter().map(|row| row[c]).collect::<Vec<_>>(),
            ))
        })
        .collect();
    let reference = build_reference(&stream, &windows[0], &universes);
    let primed = prime(&stream, &windows[0], &universes, &reference);
    // The first delta is the initial window's build — already primed.
    let slides: Vec<SlideDelta> = window_slide_deltas(&windows).split_off(1);

    let mut full = RunOutput::default();
    let mut incremental = RunOutput::default();
    let (full_seconds, incremental_seconds) = warm_min_pair(
        passes,
        || full = run_full(&stream, &windows, &reference, &probes, d),
        || incremental = run_incremental(&stream, &slides, &reference, &probes, &primed),
    );

    assert_eq!(
        full.digest, incremental.digest,
        "counting statistics must be bit-identical at change rate {change_rate}"
    );
    let rel_dev = scaler_max_rel_dev(&full.scaler, &incremental.scaler);
    assert!(
        rel_dev <= SCALER_REL_EPS,
        "scaler moments exceeded the {SCALER_REL_EPS} contract: {rel_dev}"
    );

    let speedup = full_seconds / incremental_seconds.max(1e-12);
    eprintln!(
        "[bench_incremental] rate {:>4.0}% (stride {stride:>4}, {} slides): \
         full {full_seconds:.4}s, incremental {incremental_seconds:.4}s ({speedup:.2}x)",
        change_rate * 100.0,
        slides.len(),
    );
    serde_json::json!({
        "change_rate": change_rate,
        "stride": stride as u64,
        "slides": slides.len() as u64,
        "full_seconds": full_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": speedup,
        "digests_equal": true,
        "scaler_max_rel_dev": rel_dev,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let d = 8;
    let (window_rows, n_slides, passes) = if opts.quick {
        (512, 12, 3)
    } else {
        (2048, 24, oeb_bench::WARM_PASSES)
    };
    let rates: Vec<serde_json::Value> = [0.01, 0.10, 0.50]
        .iter()
        .map(|&rate| bench_rate(rate, window_rows, n_slides, d, passes))
        .collect();

    // One traced pass through the production engine (`extract_stats` in
    // incremental mode) so the artifact records the `stats.*` delta
    // counters the maintained path emits.
    oeb_trace::reset();
    oeb_trace::enable();
    let entries = oeb_synth::registry_scaled(if opts.quick { 0.02 } else { 0.04 });
    let entry = entries
        .iter()
        .find(|e| e.spec.name == "Electricity Prices")
        .expect("registry includes Electricity Prices");
    let dataset = oeb_synth::generate(&entry.spec, 0);
    let stats = oeb_core::stats::extract_stats(
        &dataset,
        &oeb_core::stats::StatsConfig {
            mode: oeb_core::stats::StatsMode::Incremental,
            ..Default::default()
        },
    );
    oeb_trace::disable();
    let metrics = oeb_bench::metrics_json(&oeb_trace::snapshot());

    let json = serde_json::json!({
        "benchmark": "incremental delta-statistics vs full per-window recomputation",
        "quick": opts.quick,
        "window_rows": window_rows as u64,
        "cols": d as u64,
        "passes": passes as u64,
        "bins": BINS as u64,
        "statistics": [
            "missing ratios (rows/columns/cells)",
            "standard-scaler means and stds",
            "per-column KS vs first window",
            "per-column Hellinger histogram distance vs first window",
            "ECOD probe scores",
        ],
        "equivalence": {
            "bit_identical": ["missing", "ks", "histogram", "ecod"],
            "scaler_rel_eps": SCALER_REL_EPS,
        },
        "rates": rates,
        "traced_stats_windows": stats.n_windows as u64,
        "metrics": metrics,
    });
    std::fs::write(
        &opts.out,
        serde_json::to_string_pretty(&json).expect("json serialises"),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    eprintln!("[bench_incremental] -> {}", opts.out);
}
