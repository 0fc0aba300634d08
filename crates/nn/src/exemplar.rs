//! iCaRL-style exemplar buffer — Rebuffi et al., CVPR 2017.
//!
//! Stores a bounded set of past samples chosen by *herding*: per class,
//! samples are greedily selected so the running mean of their hidden
//! representations tracks the class-mean representation. Following the
//! paper's adaptation (§6.1), regression streams treat all samples as a
//! single class, and only the exemplar-selection strategy is used (the
//! nearest-mean classifier is disregarded).

use crate::mlp::Mlp;
use oeb_linalg::Matrix;
use std::collections::BTreeMap;

/// A bounded exemplar store.
#[derive(Debug, Clone)]
pub struct ExemplarBuffer {
    /// Total capacity across classes (paper default 100).
    pub capacity: usize,
    /// One stored exemplar per row.
    xs: Matrix,
    ys: Vec<f64>,
}

impl ExemplarBuffer {
    /// Creates an empty buffer with the given capacity.
    pub fn new(capacity: usize) -> ExemplarBuffer {
        ExemplarBuffer {
            capacity,
            xs: Matrix::default(),
            ys: Vec::new(),
        }
    }

    /// Number of stored exemplars.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Approximate buffer memory in bytes (for the Table 6 accounting).
    pub fn memory_bytes(&self) -> usize {
        (self.xs.as_slice().len() + self.ys.len()) * 8
    }

    /// The stored exemplars, one per row, and their targets.
    pub fn exemplars(&self) -> (&Matrix, &[f64]) {
        (&self.xs, &self.ys)
    }

    /// Rebuilds the buffer from the union of the current buffer and the
    /// new window, herding in `model`'s hidden-representation space.
    ///
    /// `classify` controls grouping: classification groups by label,
    /// regression pools everything into one group.
    pub fn update(&mut self, model: &Mlp, xs: &Matrix, ys: &[f64], classify: bool) {
        assert_eq!(xs.rows(), ys.len());
        // Candidate pool = old exemplars + new window.
        let pool_x = Matrix::from_vec(
            self.len() + xs.rows(),
            xs.cols(),
            [self.xs.as_slice(), xs.as_slice()].concat(),
        );
        let mut pool_y = std::mem::take(&mut self.ys);
        pool_y.extend_from_slice(ys);
        self.xs = Matrix::default();
        if pool_y.is_empty() || self.capacity == 0 {
            return;
        }

        // Group candidates.
        let mut groups: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        for (i, &y) in pool_y.iter().enumerate() {
            let key = if classify { y as i64 } else { 0 };
            groups.entry(key).or_default().push(i);
        }
        let quota = (self.capacity / groups.len()).max(1);

        // The whole pool's representations in one batched forward.
        let reprs = model.hidden_window(&pool_x);
        let mut keep: Vec<usize> = Vec::with_capacity(self.capacity);
        for members in groups.values() {
            keep.extend(herd(&reprs, members, quota));
            if keep.len() >= self.capacity {
                keep.truncate(self.capacity);
                break;
            }
        }
        let mut kept = Vec::with_capacity(keep.len() * pool_x.cols());
        for &i in &keep {
            kept.extend_from_slice(pool_x.row(i));
        }
        self.xs = Matrix::from_vec(keep.len(), pool_x.cols(), kept);
        self.ys = keep.iter().map(|&i| pool_y[i]).collect();
    }
}

/// Greedy herding: picks up to `quota` members whose representation mean
/// best tracks the group mean (`reprs` holds one row per pool candidate).
fn herd(reprs: &Matrix, members: &[usize], quota: usize) -> Vec<usize> {
    let dim = reprs.cols();
    if dim == 0 {
        return members.iter().take(quota).copied().collect();
    }
    let mut mean = vec![0.0; dim];
    for &i in members {
        for (m, &v) in mean.iter_mut().zip(reprs.row(i)) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= members.len() as f64;
    }

    let mut chosen: Vec<usize> = Vec::new();
    let mut chosen_sum = vec![0.0; dim];
    let mut used = vec![false; members.len()];
    for step in 0..quota.min(members.len()) {
        let k = (step + 1) as f64;
        let mut best: Option<(usize, f64)> = None;
        for (slot, &cand) in members.iter().enumerate() {
            if used[slot] {
                continue;
            }
            // Distance between the class mean and the mean including this
            // candidate.
            let r = reprs.row(cand);
            let mut d = 0.0;
            for i in 0..dim {
                let cand_mean = (chosen_sum[i] + r[i]) / k;
                let diff = mean[i] - cand_mean;
                d += diff * diff;
            }
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((slot, d)),
            }
        }
        let (slot, _) = best.expect("unused candidates remain"); // oeb-lint: allow(panic-in-library) -- k <= members.len() leaves a free slot each round
        used[slot] = true;
        for (s, &v) in chosen_sum.iter_mut().zip(reprs.row(members[slot])) {
            *s += v;
        }
        chosen.push(members[slot]);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Objective;

    fn model(input: usize) -> Mlp {
        Mlp::new(input, &[8, 4], 2, Objective::CrossEntropy, 11)
    }

    fn two_class_window() -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let c = i % 2;
            rows.push(vec![c as f64 * 4.0 + (i % 5) as f64 * 0.1, -(c as f64)]);
            ys.push(c as f64);
        }
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn respects_capacity() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(10);
        buf.update(&m, &xs, &ys, true);
        assert!(buf.len() <= 10);
        assert!(!buf.is_empty());
    }

    #[test]
    fn keeps_both_classes() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(10);
        buf.update(&m, &xs, &ys, true);
        let (_, kept_ys) = buf.exemplars();
        assert!(kept_ys.contains(&0.0));
        assert!(kept_ys.contains(&1.0));
    }

    #[test]
    fn regression_mode_pools_one_group() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(7);
        buf.update(&m, &xs, &ys, false);
        assert_eq!(buf.len(), 7);
    }

    #[test]
    fn accumulates_across_windows_within_capacity() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(20);
        buf.update(&m, &xs, &ys, true);
        let first = buf.len();
        buf.update(&m, &xs, &ys, true);
        assert!(buf.len() <= 20);
        assert!(buf.len() >= first.min(20));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(0);
        buf.update(&m, &xs, &ys, true);
        assert!(buf.is_empty());
        assert_eq!(buf.exemplars().0.rows(), 0);
    }

    #[test]
    fn memory_accounting() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(10);
        buf.update(&m, &xs, &ys, true);
        assert_eq!(buf.memory_bytes(), buf.len() * 2 * 8 + buf.len() * 8);
    }
}
