//! The fault injector: wraps any [`FrameSource`] and applies a
//! [`FaultPlan`] frame by frame.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use oeb_linalg::Matrix;
use oeb_tabular::StreamDataset;

use crate::frame::{DatasetFrames, FrameSource, WindowFrame};
use crate::plan::{FaultKind, FaultLog, FaultPlan};

/// Magnitude of corrupted-cell values: far outside any scaled feature
/// range, mimicking bit-flip / unit-mismatch corruption.
const CORRUPT_SCALE: f64 = 1.0e9;

/// Wraps a frame source, injecting faults per the plan.
///
/// Every injection decision is drawn from an RNG seeded on
/// `(plan.seed, window index)`, so the faults a window receives do not
/// depend on how many windows were drawn before it. Replaying the
/// stream — or resuming it mid-way — reproduces exactly the same faults.
pub struct FaultInjector<S: FrameSource> {
    inner: S,
    plan: FaultPlan,
    log: FaultLog,
    /// A duplicated frame waiting to be emitted again.
    pending: Option<WindowFrame>,
}

impl<S: FrameSource> FaultInjector<S> {
    /// Wraps `inner` with the given plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`]; validate first
    /// when the plan comes from untrusted input.
    pub fn new(inner: S, plan: FaultPlan) -> FaultInjector<S> {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        FaultInjector {
            inner,
            plan,
            log: FaultLog::new(),
            pending: None,
        }
    }

    /// The faults injected so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Consumes the injector, returning the accumulated log.
    pub fn into_log(self) -> FaultLog {
        self.log
    }

    /// Deterministic per-window RNG, independent of draw order.
    fn window_rng(&self, window: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.plan
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(window as u64),
        )
    }

    /// Applies every in-window fault to `frame`, logging each one.
    /// Structural decisions (drop/duplicate) are made by the caller with
    /// the same RNG, before this runs.
    fn damage(&mut self, frame: &mut WindowFrame, rng: &mut StdRng) {
        let w = frame.index;

        // Truncate: keep a random prefix (at least one row).
        if self.plan.truncate_window > 0.0 && rng.gen_bool(self.plan.truncate_window) {
            let rows = frame.rows();
            if rows > 1 {
                let keep = rng.gen_range(1..rows);
                frame.features = take_rows(&frame.features, keep);
                frame.targets.truncate(keep);
                self.log.push(
                    w,
                    FaultKind::TruncatedWindow,
                    format!("kept {keep} of {rows} rows"),
                );
            }
        }

        // Schema violation: add a spurious column or remove one.
        if self.plan.schema_violation > 0.0 && rng.gen_bool(self.plan.schema_violation) {
            let cols = frame.cols();
            if rng.gen_bool(0.5) || cols <= 1 {
                frame.features = add_column(&frame.features, rng);
                self.log.push(
                    w,
                    FaultKind::SchemaViolation,
                    format!("added column ({} -> {})", cols, cols + 1),
                );
            } else {
                let victim = rng.gen_range(0..cols);
                frame.features = drop_column(&frame.features, victim);
                self.log.push(
                    w,
                    FaultKind::SchemaViolation,
                    format!("removed column {victim} ({} -> {})", cols, cols - 1),
                );
            }
        }

        // One feature column entirely missing.
        if self.plan.all_missing_column > 0.0
            && frame.cols() > 0
            && rng.gen_bool(self.plan.all_missing_column)
        {
            let col = rng.gen_range(0..frame.cols());
            for r in 0..frame.rows() {
                frame.features.row_mut(r)[col] = f64::NAN;
            }
            self.log.push(
                w,
                FaultKind::AllMissingColumn,
                format!("column {col} all NaN"),
            );
        }

        // NaN burst: a contiguous block of rows loses a subset of columns.
        if self.plan.nan_burst > 0.0
            && frame.rows() > 0
            && frame.cols() > 0
            && rng.gen_bool(self.plan.nan_burst)
        {
            let rows = frame.rows();
            let start = rng.gen_range(0..rows);
            let len = rng.gen_range(1..rows - start + 1);
            let cols = frame.cols();
            let n_cols = rng.gen_range(1..cols + 1);
            let mut hit_cols: Vec<usize> = (0..cols).collect();
            // Partial Fisher–Yates: the first n_cols entries are the burst.
            for i in 0..n_cols {
                let j = rng.gen_range(i..cols);
                hit_cols.swap(i, j);
            }
            for r in start..start + len {
                for &c in &hit_cols[..n_cols] {
                    frame.features.row_mut(r)[c] = f64::NAN;
                }
            }
            self.log.push(
                w,
                FaultKind::NanBurst,
                format!("rows {start}..{} x {n_cols} cols", start + len),
            );
        }

        // Corrupted cells: per-cell chance of an extreme value.
        if self.plan.cell_corruption > 0.0 {
            let mut hit = 0usize;
            for r in 0..frame.rows() {
                let row = frame.features.row_mut(r);
                for v in row.iter_mut() {
                    if rng.gen_bool(self.plan.cell_corruption) {
                        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                        *v = sign * CORRUPT_SCALE * (1.0 + rng.gen::<f64>());
                        hit += 1;
                    }
                }
            }
            if hit > 0 {
                self.log
                    .push(w, FaultKind::CorruptedCells, format!("{hit} cells"));
            }
        }

        // Label noise: pairwise swaps keep every label valid for the task.
        if self.plan.label_noise > 0.0 && frame.targets.len() > 1 {
            let n = frame.targets.len();
            let mut swaps = 0usize;
            for i in 0..n {
                if rng.gen_bool(self.plan.label_noise) {
                    let j = rng.gen_range(0..n);
                    frame.targets.swap(i, j);
                    swaps += 1;
                }
            }
            if swaps > 0 {
                self.log
                    .push(w, FaultKind::LabelNoise, format!("{swaps} swaps"));
            }
        }
    }
}

impl<S: FrameSource> FrameSource for FaultInjector<S> {
    fn n_windows(&self) -> usize {
        self.inner.n_windows()
    }

    fn next_frame(&mut self) -> Option<WindowFrame> {
        if let Some(dup) = self.pending.take() {
            return Some(dup);
        }
        loop {
            let mut frame = self.inner.next_frame()?;
            let mut rng = self.window_rng(frame.index);

            if self.plan.drop_window > 0.0 && rng.gen_bool(self.plan.drop_window) {
                self.log
                    .push(frame.index, FaultKind::DroppedWindow, "window dropped");
                continue;
            }
            let duplicate =
                self.plan.duplicate_window > 0.0 && rng.gen_bool(self.plan.duplicate_window);

            self.damage(&mut frame, &mut rng);

            if duplicate {
                self.log.push(
                    frame.index,
                    FaultKind::DuplicatedWindow,
                    "window emitted twice",
                );
                self.pending = Some(frame.clone());
            }
            return Some(frame);
        }
    }
}

/// Runs a full dataset through an injector, collecting every surviving
/// frame and the fault log. The faulty stream a harness consumes is
/// exactly this sequence.
pub fn inject_dataset(
    dataset: &StreamDataset,
    plan: &FaultPlan,
    window_factor: f64,
) -> (Vec<WindowFrame>, FaultLog) {
    let source = DatasetFrames::new(dataset, &dataset.feature_cols(), window_factor);
    let mut injector = FaultInjector::new(source, plan.clone());
    let mut frames = Vec::new();
    while let Some(frame) = injector.next_frame() {
        frames.push(frame);
    }
    (frames, injector.into_log())
}

/// First `keep` rows of `m`.
fn take_rows(m: &Matrix, keep: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..keep).map(|r| m.row(r).to_vec()).collect();
    Matrix::from_rows(&rows)
}

/// `m` plus one extra column of noise.
fn add_column(m: &Matrix, rng: &mut StdRng) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..m.rows())
        .map(|r| {
            let mut row = m.row(r).to_vec();
            row.push(rng.gen::<f64>() * 2.0 - 1.0);
            row
        })
        .collect();
    if rows.is_empty() {
        Matrix::zeros(0, m.cols() + 1)
    } else {
        Matrix::from_rows(&rows)
    }
}

/// `m` without column `victim`.
fn drop_column(m: &Matrix, victim: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..m.rows())
        .map(|r| {
            let mut row = m.row(r).to_vec();
            row.remove(victim);
            row
        })
        .collect();
    if rows.is_empty() {
        Matrix::zeros(0, m.cols() - 1)
    } else {
        Matrix::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::toy_frames;
    use crate::frame::FrameVec;

    fn drain<S: FrameSource>(mut src: S) -> Vec<WindowFrame> {
        let mut out = Vec::new();
        while let Some(f) = src.next_frame() {
            out.push(f);
        }
        out
    }

    /// Bit-level frame equality: `PartialEq` treats NaN != NaN, which
    /// would make any NaN-injected frame unequal to its exact replay.
    fn frames_bit_eq(a: &WindowFrame, b: &WindowFrame) -> bool {
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        a.index == b.index
            && a.features.shape() == b.features.shape()
            && bits(a.features.as_slice()) == bits(b.features.as_slice())
            && bits(&a.targets) == bits(&b.targets)
    }

    fn streams_bit_eq(a: &[WindowFrame], b: &[WindowFrame]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| frames_bit_eq(x, y))
    }

    #[test]
    fn clean_plan_is_the_identity() {
        let frames = toy_frames(6, 5, 3);
        let mut inj = FaultInjector::new(FrameVec::new(frames.clone()), FaultPlan::none(9));
        let mut out = Vec::new();
        while let Some(f) = inj.next_frame() {
            out.push(f);
        }
        assert_eq!(out, frames);
        assert!(inj.log().is_empty());
    }

    #[test]
    fn injection_is_deterministic() {
        let frames = toy_frames(20, 8, 4);
        let plan = FaultPlan::chaos(42);
        let mut a = FaultInjector::new(FrameVec::new(frames.clone()), plan.clone());
        let mut b = FaultInjector::new(FrameVec::new(frames), plan);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        while let Some(f) = a.next_frame() {
            out_a.push(f);
        }
        while let Some(f) = b.next_frame() {
            out_b.push(f);
        }
        assert!(streams_bit_eq(&out_a, &out_b));
        assert_eq!(a.log(), b.log());
        assert!(!a.log().is_empty(), "chaos injected nothing in 20 windows");
    }

    #[test]
    fn injection_is_order_independent() {
        // Faults on window k must not depend on windows 0..k having been
        // drawn — that is what makes checkpoint/resume reproducible.
        let frames = toy_frames(10, 6, 3);
        let plan = FaultPlan::chaos(7);
        let full = drain(FaultInjector::new(
            FrameVec::new(frames.clone()),
            plan.clone(),
        ));
        let tail = drain(FaultInjector::new(
            FrameVec::new(frames[4..].to_vec()),
            plan,
        ));
        let full_tail: Vec<WindowFrame> = full.iter().filter(|f| f.index >= 4).cloned().collect();
        assert!(streams_bit_eq(&full_tail, &tail));
    }

    #[test]
    fn drop_rate_one_empties_the_stream() {
        let mut plan = FaultPlan::none(3);
        plan.drop_window = 1.0;
        let mut inj = FaultInjector::new(FrameVec::new(toy_frames(5, 4, 2)), plan);
        assert!(inj.next_frame().is_none());
        assert_eq!(inj.log().count(FaultKind::DroppedWindow), 5);
    }

    #[test]
    fn duplicate_rate_one_doubles_the_stream() {
        let mut plan = FaultPlan::none(3);
        plan.duplicate_window = 1.0;
        let mut inj = FaultInjector::new(FrameVec::new(toy_frames(4, 4, 2)), plan);
        let mut out = Vec::new();
        while let Some(f) = inj.next_frame() {
            out.push(f);
        }
        assert_eq!(out.len(), 8);
        let indices: Vec<usize> = out.iter().map(|f| f.index).collect();
        assert_eq!(indices, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // The duplicate is bit-identical, faults included.
        assert_eq!(out[0], out[1]);
        assert_eq!(inj.log().count(FaultKind::DuplicatedWindow), 4);
    }

    #[test]
    fn all_missing_column_is_fully_nan() {
        let mut plan = FaultPlan::none(11);
        plan.all_missing_column = 1.0;
        let mut inj = FaultInjector::new(FrameVec::new(toy_frames(3, 5, 4)), plan);
        while let Some(f) = inj.next_frame() {
            let nan_cols = (0..f.cols())
                .filter(|&c| (0..f.rows()).all(|r| f.features.row(r)[c].is_nan()))
                .count();
            assert!(nan_cols >= 1, "window {} has no all-NaN column", f.index);
        }
        assert_eq!(inj.log().count(FaultKind::AllMissingColumn), 3);
    }

    #[test]
    fn schema_violation_changes_column_count() {
        let mut plan = FaultPlan::none(5);
        plan.schema_violation = 1.0;
        let mut inj = FaultInjector::new(FrameVec::new(toy_frames(6, 4, 3)), plan);
        let mut changed = 0;
        while let Some(f) = inj.next_frame() {
            if f.cols() != 3 {
                changed += 1;
            }
        }
        assert_eq!(changed, 6);
        assert_eq!(inj.log().count(FaultKind::SchemaViolation), 6);
    }

    #[test]
    fn truncation_keeps_features_and_targets_aligned() {
        let mut plan = FaultPlan::none(13);
        plan.truncate_window = 1.0;
        let mut inj = FaultInjector::new(FrameVec::new(toy_frames(5, 9, 2)), plan);
        while let Some(f) = inj.next_frame() {
            assert_eq!(f.rows(), f.targets.len());
            assert!(f.rows() >= 1 && f.rows() < 9);
        }
        assert_eq!(inj.log().count(FaultKind::TruncatedWindow), 5);
    }

    #[test]
    fn label_noise_preserves_the_label_multiset() {
        let mut plan = FaultPlan::none(17);
        plan.label_noise = 0.5;
        let frames = toy_frames(4, 10, 2);
        let mut inj = FaultInjector::new(FrameVec::new(frames.clone()), plan);
        let mut k = 0;
        while let Some(f) = inj.next_frame() {
            let mut before = frames[k].targets.clone();
            let mut after = f.targets.clone();
            before.sort_by(f64::total_cmp);
            after.sort_by(f64::total_cmp);
            assert_eq!(before, after, "window {k} invented a label");
            k += 1;
        }
        assert!(inj.log().count(FaultKind::LabelNoise) > 0);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_plan_is_rejected_at_construction() {
        let mut plan = FaultPlan::none(0);
        plan.nan_burst = 2.0;
        FaultInjector::new(FrameVec::new(Vec::new()), plan);
    }
}
