//! Missing-value imputers (§4.3 step 4 and §6.6 of the paper).
//!
//! The paper's pipeline defaults to a KNN imputer with `k = 2`; §6.6
//! additionally compares KNN at `k ∈ {2, 5, 10, 20}`, a regression imputer,
//! mean filling, and zero filling. All four are implemented behind one
//! trait so the Figure 14 experiment can sweep them uniformly.

use oeb_linalg::{ridge_regression, Matrix};
use oeb_tabular::FiniteMask;
use oeb_trace::Counter;

// Donor candidates of the pruned KNN kernel: reference rows that share
// an observed column with the data row and observe one of its missing
// columns. A candidate is pruned when its distance reaches a finite
// `tau`, the loosest admission bound among the donor lists it could
// join, and scanned otherwise; a pruned candidate enters no list.
// Data-dependent only, so schedule-invariant.
static KNN_CANDIDATES_PRUNED: Counter = Counter::new("knn.candidates.pruned");
static KNN_CANDIDATES_SCANNED: Counter = Counter::new("knn.candidates.scanned");

/// Fills NaN cells of `data`, using `reference` as the source of knowledge
/// (for the "oracle vs normal" distinction of Figure 5: oracle passes the
/// whole dataset as reference, normal passes only the data seen so far).
///
/// Contract: after `impute`, `data` contains no NaN, and every originally
/// observed cell is unchanged.
pub trait Imputer: Send + Sync {
    /// Fills missing cells of `data` in place.
    fn impute(&self, data: &mut Matrix, reference: &Matrix);

    /// Short identifier used in experiment reports.
    fn name(&self) -> String;
}

/// Fills missing cells with zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroImputer;

impl Imputer for ZeroImputer {
    fn impute(&self, data: &mut Matrix, _reference: &Matrix) {
        for x in data.as_mut_slice() {
            if !x.is_finite() {
                *x = 0.0;
            }
        }
    }

    fn name(&self) -> String {
        "zero".into()
    }
}

/// Fills missing cells with the column mean of the reference (falls back to
/// 0 when the reference column is entirely missing).
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanImputer;

/// NaN-aware column means with 0.0 fallback for all-missing columns.
fn nan_col_means(m: &Matrix) -> Vec<f64> {
    let d = m.cols();
    let mut sums = vec![0.0; d];
    let mut counts = vec![0usize; d];
    for r in 0..m.rows() {
        for (c, &x) in m.row(r).iter().enumerate() {
            if x.is_finite() {
                sums[c] += x;
                counts[c] += 1;
            }
        }
    }
    sums.iter()
        .zip(&counts)
        .map(|(&s, &n)| if n > 0 { s / n as f64 } else { 0.0 })
        .collect()
}

impl Imputer for MeanImputer {
    fn impute(&self, data: &mut Matrix, reference: &Matrix) {
        let means = nan_col_means(reference);
        for r in 0..data.rows() {
            for (c, x) in data.row_mut(r).iter_mut().enumerate() {
                if !x.is_finite() {
                    *x = means[c];
                }
            }
        }
    }

    fn name(&self) -> String {
        "mean".into()
    }
}

/// K-nearest-neighbour imputer with NaN-aware Euclidean distances, matching
/// scikit-learn's `KNNImputer` semantics: distances are computed over the
/// co-observed coordinates and rescaled by the fraction observed; a missing
/// cell is filled with the mean of that column over the `k` nearest
/// reference rows that observe it.
#[derive(Debug, Clone, Copy)]
pub struct KnnImputer {
    /// Number of neighbours (the paper defaults to 2).
    pub k: usize,
}

impl Default for KnnImputer {
    fn default() -> Self {
        KnnImputer { k: 2 }
    }
}

/// NaN-aware squared distance: the squared differences over co-observed
/// dimensions, summed in ascending order and scaled by `d / seen`, one
/// factor, as the pruned kernel scales (`(sum * d) / seen` rounds
/// differently and can reorder tied donors). `None` when the rows share no
/// observed dimension.
fn nan_sq_dist(a: &[f64], b: &[f64]) -> Option<f64> {
    let mut sum = 0.0;
    let mut seen = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        if x.is_finite() && y.is_finite() {
            let d = x - y;
            sum += d * d;
            seen += 1;
        }
    }
    if seen == 0 {
        None
    } else {
        Some(sum * (a.len() as f64 / seen as f64))
    }
}

impl Imputer for KnnImputer {
    fn impute(&self, data: &mut Matrix, reference: &Matrix) {
        // A zero k would silently impute nothing; treat it as k = 1
        // rather than panicking mid-stream (the harness additionally
        // rejects k = 0 at configuration time).
        let k = self.k.max(1);
        if data.cols() == reference.cols() {
            // Published once per call: a shared atomic per candidate is
            // contended when several workers impute at once.
            let (pruned, scanned) = knn_impute_pruned(k, data, reference);
            KNN_CANDIDATES_PRUNED.add(pruned);
            KNN_CANDIDATES_SCANNED.add(scanned);
        } else {
            // Mismatched widths only arise in adversarial tests; the
            // reference path reproduces the historical truncating-zip
            // semantics there.
            knn_impute_reference(k, data, reference);
        }
    }

    fn name(&self) -> String {
        format!("knn(k={})", self.k)
    }
}

/// The brute-force KNN imputation: rank *every* reference row by NaN-aware
/// distance, then per missing column take the first `k` ranked rows
/// observing it. Kept as the semantic reference — the pruned path must
/// match it bit for bit (asserted by
/// `pruned_knn_matches_value_and_counter_oracles`) — and run by
/// [`KnnImputer`] when the data and reference widths differ.
fn knn_impute_reference(k: usize, data: &mut Matrix, reference: &Matrix) {
    let k = k.max(1);
    let fallback = nan_col_means(reference);
    let n_ref = reference.rows();
    for r in 0..data.rows() {
        let missing: Vec<usize> = data
            .row(r)
            .iter()
            .enumerate()
            .filter(|(_, x)| !x.is_finite())
            .map(|(c, _)| c)
            .collect();
        if missing.is_empty() {
            continue;
        }
        // Rank reference rows by NaN-aware distance to this row.
        let mut neighbours: Vec<(f64, usize)> = Vec::with_capacity(n_ref);
        for j in 0..n_ref {
            if let Some(d) = nan_sq_dist(data.row(r), reference.row(j)) {
                neighbours.push((d, j));
            }
        }
        neighbours.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &c in &missing {
            // Mean of column c over the k nearest rows observing it.
            let mut sum = 0.0;
            let mut count = 0usize;
            for &(_, j) in &neighbours {
                let v = reference[(j, c)];
                if v.is_finite() {
                    sum += v;
                    count += 1;
                    if count == k {
                        break;
                    }
                }
            }
            data[(r, c)] = if count > 0 {
                sum / count as f64
            } else {
                fallback[c]
            };
        }
    }
}

/// Pruned KNN imputation, bit-identical to [`knn_impute_reference`].
/// Returns the `(pruned, scanned)` donor-candidate counts (see
/// `knn.candidates.pruned`).
///
/// Each missing row's distances to every reference row come from one
/// pass over a column-major copy of the reference, made once per call:
/// for each column the row observes, in ascending order, every reference
/// row's sum takes that column's squared difference. A missing reference
/// cell is NaN in the copy and adds `+0.0`, which leaves a sum of
/// nonnegative terms bit for bit unchanged, so each sum is the
/// reference's ascending chain over the co-observed columns. A `d /
/// seen` table scales it to the distance.
///
/// Donors are then picked in ascending row order. Each missing column
/// keeps a bounded list of its `k` best donors ordered by `(distance,
/// row)`, whose admission bound is `∞` until it holds `k` and then its
/// `k`-th distance. A candidate is pruned when its distance reaches a
/// finite `tau`, the loosest bound among the lists it could join; one
/// comparison with the loosest bound of all lists settles most
/// candidates. Every other candidate is scanned and enters each list it
/// beats. When the reference is fully observed (checked once per call),
/// every candidate observes every column: `seen` is the row's observed
/// count, the lists would all be equal so one list serves every missing
/// column, and no reference mask is built.
///
/// Equivalence with the reference path rests on two invariants:
/// * the reference's stable sort orders ties by ascending row index, and
///   candidates arrive here in ascending row order, so a tie never
///   displaces an incumbent (`dist >= bound` rejects, strictly-better
///   inserts after all equal distances);
/// * rows observing no missing column are skipped outright — the
///   reference ranks them but never consumes them.
fn knn_impute_pruned(k: usize, data: &mut Matrix, reference: &Matrix) -> (u64, u64) {
    let n_ref = reference.rows();
    let d = data.cols();
    let cells = reference.as_slice();
    let fully_observed = cells.iter().all(|v| v.is_finite());
    let mut by_col: Vec<f64> = Vec::with_capacity(n_ref * d);
    for c in 0..d {
        by_col.extend(cells.chunks_exact(d).map(|row| {
            let v = row[c];
            if v.is_finite() {
                v
            } else {
                f64::NAN
            }
        }));
    }
    let rmask = (!fully_observed).then(|| FiniteMask::from_row_major(cells, n_ref, d));
    let dmask = FiniteMask::from_row_major(data.as_slice(), data.rows(), d);
    // scale[seen] = d / seen, the factor the distance takes.
    let scale: Vec<f64> = (0..=d).map(|seen| d as f64 / seen as f64).collect();
    let mut fallback: Option<Vec<f64>> = None;

    let mut missing: Vec<usize> = Vec::new();
    // One bounded donor list per missing column, pooled across rows. With
    // a fully observed reference every candidate observes every missing
    // column, so those lists would all be equal: one serves them all.
    let mut lists: Vec<Vec<(f64, usize)>> = Vec::new();
    // A list's admission bound: `∞` until it holds k, then its k-th
    // distance. The maximum is never NaN: no distance is.
    let bound = |list: &Vec<(f64, usize)>| list.get(k - 1).map_or(f64::INFINITY, |e| e.0);
    let loosest = |acc: f64, b: f64| if b > acc { b } else { acc };
    let mut sums = vec![0.0; n_ref];
    let (mut pruned, mut scanned) = (0u64, 0u64);
    for r in 0..data.rows() {
        dmask.missing_in_row(r, &mut missing);
        if missing.is_empty() {
            continue;
        }
        let n_lists = if rmask.is_some() { missing.len() } else { 1 };
        while lists.len() < n_lists {
            lists.push(Vec::with_capacity(k + 1));
        }
        let lists = &mut lists[..n_lists];
        for list in lists.iter_mut() {
            list.clear();
        }
        let rw = dmask.row_words(r);
        let row_seen: usize = rw.iter().map(|w| w.count_ones() as usize).sum();

        sums.fill(0.0);
        for (c, &x) in data.row(r).iter().enumerate() {
            if !x.is_finite() {
                continue;
            }
            for (sum, &y) in sums.iter_mut().zip(&by_col[c * n_ref..(c + 1) * n_ref]) {
                let diff = x - y;
                let sq = diff * diff;
                // NaN (a missing reference cell) adds +0.0.
                *sum += if sq > 0.0 { sq } else { 0.0 };
            }
        }

        // The loosest bound of all lists while it is finite, else NaN,
        // which no distance reaches.
        let mut prune_at = f64::NAN;
        for (j, &sum) in sums.iter().enumerate() {
            let seen = match &rmask {
                None => row_seen,
                Some(m) => {
                    let jw = m.row_words(j);
                    // A row observing none of the missing columns can
                    // donate nothing.
                    if jw.iter().zip(rw).all(|(y, x)| y & !x == 0) {
                        continue;
                    }
                    jw.iter()
                        .zip(rw)
                        .map(|(y, x)| (y & x).count_ones() as usize)
                        .sum()
                }
            };
            if seen == 0 {
                continue;
            }
            let dist = sum * scale[seen];
            if dist >= prune_at {
                pruned += 1;
                continue;
            }
            let observes = |c: usize| rmask.as_ref().is_none_or(|m| m.get(j, c));
            // tau: the loosest bound among the lists this candidate could
            // join. An infinite tau admits any distance (even an
            // overflowed infinite one, which the reference path also
            // keeps).
            let tau = lists
                .iter()
                .zip(&missing)
                .filter(|&(_, &c)| observes(c))
                .map(|(list, _)| bound(list))
                .fold(0.0, loosest);
            if tau.is_finite() && dist >= tau {
                pruned += 1;
                continue;
            }
            scanned += 1;
            for (list, &c) in lists.iter_mut().zip(&missing) {
                if !observes(c) {
                    continue;
                }
                if list.len() == k {
                    // Ties keep the earlier row (the stable sort's order):
                    // only a strictly closer donor displaces the k-th.
                    if dist >= list[k - 1].0 {
                        continue;
                    }
                    list.pop();
                }
                // Insert after all equal distances: this row index is the
                // largest seen so far, so (dist, j) sorts after ties.
                let pos = list.partition_point(|&(ld, _)| ld <= dist);
                list.insert(pos, (dist, j));
            }
            prune_at = lists.iter().map(bound).fold(0.0, loosest);
            if !prune_at.is_finite() {
                prune_at = f64::NAN;
            }
        }
        // `cycle` hands the full path's one list to every missing column.
        for (list, &c) in lists.iter().cycle().zip(&missing) {
            data[(r, c)] = if list.is_empty() {
                fallback.get_or_insert_with(|| nan_col_means(reference))[c]
            } else {
                // Donor means accumulate in ascending (distance, row)
                // order, exactly as the reference consumes its sort.
                let mut sum = 0.0;
                for &(_, j) in list {
                    sum += reference[(j, c)];
                }
                sum / list.len() as f64
            };
        }
    }
    (pruned, scanned)
}

/// Regression imputer: for each incomplete column, fits a ridge regression
/// from the other columns (mean-filled) on the reference rows observing the
/// column, then predicts the missing cells. Falls back to the column mean
/// when too few training rows exist.
#[derive(Debug, Clone, Copy)]
pub struct RegressionImputer {
    /// Ridge regularisation strength.
    pub lambda: f64,
}

impl Default for RegressionImputer {
    fn default() -> Self {
        RegressionImputer { lambda: 1e-3 }
    }
}

impl Imputer for RegressionImputer {
    fn impute(&self, data: &mut Matrix, reference: &Matrix) {
        let d = data.cols();
        let means = nan_col_means(reference);

        // Mean-filled copy of the reference used as the predictor source.
        let mut filled_ref = reference.clone();
        MeanImputer.impute(&mut filled_ref, reference);

        for target in 0..d {
            let has_missing = (0..data.rows()).any(|r| !data[(r, target)].is_finite());
            if !has_missing {
                continue;
            }
            // Training rows: reference rows where the target is observed.
            let train_rows: Vec<usize> = (0..reference.rows())
                .filter(|&r| reference[(r, target)].is_finite())
                .collect();
            let predictors: Vec<usize> = (0..d).filter(|&c| c != target).collect();

            let weights = if train_rows.len() >= 3 && !predictors.is_empty() {
                // Design matrix with intercept column.
                let rows: Vec<Vec<f64>> = train_rows
                    .iter()
                    .map(|&r| {
                        let mut v: Vec<f64> =
                            predictors.iter().map(|&c| filled_ref[(r, c)]).collect();
                        v.push(1.0);
                        v
                    })
                    .collect();
                let y: Vec<f64> = train_rows.iter().map(|&r| reference[(r, target)]).collect();
                ridge_regression(&Matrix::from_rows(&rows), &y, self.lambda)
            } else {
                None
            };

            for r in 0..data.rows() {
                if data[(r, target)].is_finite() {
                    continue;
                }
                data[(r, target)] = match &weights {
                    Some(w) => {
                        let mut pred = w[predictors.len()]; // intercept
                        for (slot, &c) in predictors.iter().enumerate() {
                            let x = data[(r, c)];
                            let x = if x.is_finite() { x } else { means[c] };
                            pred += w[slot] * x;
                        }
                        if pred.is_finite() {
                            pred
                        } else {
                            means[target]
                        }
                    }
                    None => means[target],
                };
            }
        }
    }

    fn name(&self) -> String {
        "regression".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn with_holes() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 10.0],
            vec![2.0, f64::NAN],
            vec![f64::NAN, 30.0],
            vec![4.0, 40.0],
        ])
    }

    fn assert_complete_and_preserving(imp: &dyn Imputer) {
        let original = with_holes();
        let mut data = original.clone();
        let reference = original.clone();
        imp.impute(&mut data, &reference);
        assert!(data.is_finite(), "{} left NaNs", imp.name());
        for r in 0..original.rows() {
            for c in 0..original.cols() {
                if original[(r, c)].is_finite() {
                    assert_eq!(
                        data[(r, c)],
                        original[(r, c)],
                        "{} modified observed cell",
                        imp.name()
                    );
                }
            }
        }
    }

    #[test]
    fn all_imputers_complete_and_preserve() {
        assert_complete_and_preserving(&ZeroImputer);
        assert_complete_and_preserving(&MeanImputer);
        assert_complete_and_preserving(&KnnImputer { k: 2 });
        assert_complete_and_preserving(&RegressionImputer::default());
    }

    #[test]
    fn zero_fills_zero() {
        let mut data = with_holes();
        let r = data.clone();
        ZeroImputer.impute(&mut data, &r);
        assert_eq!(data[(1, 1)], 0.0);
    }

    #[test]
    fn mean_fills_reference_column_mean() {
        let mut data = with_holes();
        let r = data.clone();
        MeanImputer.impute(&mut data, &r);
        // Column 1 observed values: 10, 30, 40 -> mean 80/3.
        assert!((data[(1, 1)] - 80.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn knn_uses_nearest_rows() {
        // Reference: rows clustered at x=0 (y=0) and x=100 (y=100).
        let reference = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![100.0, 100.0],
            vec![101.0, 100.0],
        ]);
        let mut data = Matrix::from_rows(&[vec![0.5, f64::NAN], vec![100.5, f64::NAN]]);
        KnnImputer { k: 2 }.impute(&mut data, &reference);
        assert_eq!(data[(0, 1)], 0.0);
        assert_eq!(data[(1, 1)], 100.0);
    }

    #[test]
    fn knn_falls_back_to_mean_when_neighbours_missing() {
        let reference = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![2.0, f64::NAN]]);
        let mut data = Matrix::from_rows(&[vec![1.5, f64::NAN]]);
        KnnImputer { k: 2 }.impute(&mut data, &reference);
        // Column 1 never observed -> fallback 0.
        assert_eq!(data[(0, 1)], 0.0);
    }

    #[test]
    fn regression_imputer_learns_linear_structure() {
        // y = 2x exactly; hole in y should be predicted near 2 * x.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let reference = Matrix::from_rows(&rows);
        let mut data = Matrix::from_rows(&[vec![7.5, f64::NAN]]);
        RegressionImputer::default().impute(&mut data, &reference);
        assert!(
            (data[(0, 1)] - 15.0).abs() < 0.5,
            "predicted {}",
            data[(0, 1)]
        );
    }

    #[test]
    fn zero_k_does_not_panic() {
        // Regression: k = 0 used to assert; now it behaves as k = 1.
        let mut data = with_holes();
        let r = data.clone();
        KnnImputer { k: 0 }.impute(&mut data, &r);
        assert!(data.is_finite());
    }

    #[test]
    fn all_missing_column_falls_back_without_panic() {
        // Regression: a column that no row (data or reference) observes
        // must complete via the column-mean fallback (0.0), not panic.
        let reference = Matrix::from_rows(&[
            vec![1.0, f64::NAN, 5.0],
            vec![2.0, f64::NAN, 6.0],
            vec![3.0, f64::NAN, 7.0],
        ]);
        let mut data = Matrix::from_rows(&[vec![1.5, f64::NAN, f64::NAN]]);
        for imp in [
            &KnnImputer { k: 2 } as &dyn Imputer,
            &MeanImputer,
            &RegressionImputer::default(),
            &ZeroImputer,
        ] {
            let mut d = data.clone();
            imp.impute(&mut d, &reference);
            assert!(d.is_finite(), "{} left NaNs", imp.name());
            assert_eq!(d[(0, 1)], 0.0, "{} fallback is not 0", imp.name());
        }
        KnnImputer { k: 2 }.impute(&mut data, &reference);
        assert!(
            (data[(0, 2)] - 5.5).abs() < 1e-9,
            "observed column not knn-filled"
        );
    }

    #[test]
    fn zero_variance_column_imputes_the_constant() {
        // Regression: constant (zero-variance) columns used to be a
        // divide-by-zero hazard downstream; the imputers themselves must
        // fill with the constant.
        let reference = Matrix::from_rows(&[vec![7.0, 1.0], vec![7.0, 2.0], vec![7.0, 3.0]]);
        let mut data = Matrix::from_rows(&[vec![f64::NAN, 2.5]]);
        KnnImputer { k: 2 }.impute(&mut data, &reference);
        assert_eq!(data[(0, 0)], 7.0);
    }

    #[test]
    fn nan_sq_dist_all_missing_pair_is_none() {
        // No co-observed dimension at all: the distance is undefined and
        // the row must be excluded from the neighbour ranking entirely.
        let a = [f64::NAN, f64::NAN, f64::NAN];
        let b = [f64::NAN, f64::NAN, f64::NAN];
        assert_eq!(nan_sq_dist(&a, &b), None);
        // Disjoint observation patterns are equally undefined.
        let a = [1.0, f64::NAN, 2.0];
        let b = [f64::NAN, 5.0, f64::NAN];
        assert_eq!(nan_sq_dist(&a, &b), None);
    }

    #[test]
    fn nan_sq_dist_single_shared_column_scales_by_dimension() {
        // Only column 2 is co-observed: distance is (4-1)^2 rescaled by
        // d / seen = 3 / 1.
        let a = [1.0, f64::NAN, 4.0];
        let b = [f64::NAN, 2.0, 1.0];
        let d = nan_sq_dist(&a, &b).expect("one shared column");
        assert_eq!(d.to_bits(), (9.0f64 * 3.0).to_bits());
    }

    #[test]
    fn nan_sq_dist_fully_observed_matches_plain_distance() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.0, 1.0, 5.0, 4.5];
        let plain: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        let d = nan_sq_dist(&a, &b).expect("fully observed");
        assert!((d - plain).abs() < 1e-12);
    }

    /// Deterministic pseudo-random matrix with a controllable missing rate.
    fn holey_matrix(rows: usize, cols: usize, missing_pct: u64, seed: &mut u64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (*seed >> 33) % 100 < missing_pct {
                data.push(f64::NAN);
            } else {
                data.push(((*seed >> 20) % 2000) as f64 / 100.0 - 10.0);
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// The row-major kernel the pruned path replaced, kept as the oracle of
    /// its `(pruned, scanned)` counts: per candidate, the co-observed
    /// distance chain runs over the finiteness mask words and is abandoned
    /// after the first word whose partial distance reaches a finite `tau`.
    fn knn_impute_abandoning(k: usize, data: &mut Matrix, reference: &Matrix) -> (u64, u64) {
        let fallback = nan_col_means(reference);
        let n_ref = reference.rows();
        let d = data.cols();
        let dmask = FiniteMask::from_row_major(data.as_slice(), data.rows(), d);
        let rmask = FiniteMask::from_row_major(reference.as_slice(), n_ref, d);

        let mut missing: Vec<usize> = Vec::new();
        // One bounded donor list per missing column, pooled across rows.
        let mut lists: Vec<Vec<(f64, usize)>> = Vec::new();
        let (mut pruned, mut scanned) = (0u64, 0u64);
        for r in 0..data.rows() {
            dmask.missing_in_row(r, &mut missing);
            if missing.is_empty() {
                continue;
            }
            while lists.len() < missing.len() {
                lists.push(Vec::with_capacity(k + 1));
            }
            for list in lists[..missing.len()].iter_mut() {
                list.clear();
            }
            let rw = dmask.row_words(r);
            let drow = data.row(r);
            for j in 0..n_ref {
                // tau: the loosest bound this candidate could still improve
                // (max over the missing columns it observes). Full lists
                // admit only strictly closer donors, so tau starts at 0.
                let mut relevant = false;
                let mut tau = 0.0f64;
                for (slot, &c) in missing.iter().enumerate() {
                    if rmask.get(j, c) {
                        relevant = true;
                        let bound = if lists[slot].len() < k {
                            f64::INFINITY
                        } else {
                            lists[slot][k - 1].0
                        };
                        if bound > tau {
                            tau = bound;
                        }
                    }
                }
                if !relevant {
                    continue;
                }
                let jw = rmask.row_words(j);
                let seen: usize = rw
                    .iter()
                    .zip(jw)
                    .map(|(x, y)| (x & y).count_ones() as usize)
                    .sum();
                if seen == 0 {
                    continue;
                }
                let scale = d as f64 / seen as f64;
                let jrow = reference.row(j);
                // Partial distance over co-observed columns (ascending, the
                // reference accumulation order), abandoning once the lower
                // bound reaches tau.
                let mut sum = 0.0;
                let mut abandoned = false;
                for (wi, (x, y)) in rw.iter().zip(jw).enumerate() {
                    let mut wbits = x & y;
                    if wbits == 0 {
                        continue;
                    }
                    while wbits != 0 {
                        let c = wi * 64 + wbits.trailing_zeros() as usize;
                        let diff = drow[c] - jrow[c];
                        sum += diff * diff;
                        wbits &= wbits - 1;
                    }
                    // An infinite tau admits any distance (even an overflowed
                    // infinite one, which the reference path also keeps).
                    if tau.is_finite() && sum * scale >= tau {
                        abandoned = true;
                        break;
                    }
                }
                if abandoned {
                    pruned += 1;
                    continue;
                }
                scanned += 1;
                let dist = sum * scale;
                for (slot, &c) in missing.iter().enumerate() {
                    if !rmask.get(j, c) {
                        continue;
                    }
                    let list = &mut lists[slot];
                    if list.len() == k {
                        // Ties keep the earlier row (the stable sort's order):
                        // only a strictly closer donor displaces the k-th.
                        if dist >= list[k - 1].0 {
                            continue;
                        }
                        list.pop();
                    }
                    // Insert after all equal distances: this row index is the
                    // largest seen so far, so (dist, j) sorts after ties.
                    let pos = list.partition_point(|&(ld, _)| ld <= dist);
                    list.insert(pos, (dist, j));
                }
            }
            for (slot, &c) in missing.iter().enumerate() {
                let list = &lists[slot];
                data[(r, c)] = if list.is_empty() {
                    fallback[c]
                } else {
                    // Donor means accumulate in ascending (distance, row)
                    // order, exactly as the reference consumes its sort.
                    let mut sum = 0.0;
                    for &(_, j) in list {
                        sum += reference[(j, c)];
                    }
                    sum / list.len() as f64
                };
            }
        }
        (pruned, scanned)
    }

    #[test]
    fn pruned_knn_is_bit_identical_to_reference() {
        // The pruning-threshold equivalence regression: across dense,
        // sparse, tied, wide, and nearly-all-missing regimes, the pruned
        // path must reproduce the unpruned reference bit for bit.
        let mut seed = 0x5EED;
        for (rows, cols, missing_pct, k) in [
            (12, 5, 30, 2),
            (25, 9, 10, 2),
            (25, 9, 60, 5),
            (40, 3, 45, 3),
            (8, 70, 25, 2), // multi-word mask rows
            (15, 6, 90, 4), // mostly missing: fallback-heavy
            (20, 4, 0, 2),  // nothing missing in the reference
        ] {
            let reference = holey_matrix(rows, cols, missing_pct, &mut seed);
            let data = holey_matrix(6, cols, 50, &mut seed);
            let mut pruned = data.clone();
            let mut brute = data.clone();
            KnnImputer { k }.impute(&mut pruned, &reference);
            knn_impute_reference(k, &mut brute, &reference);
            for (a, b) in pruned.as_slice().iter().zip(brute.as_slice()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "pruned != reference for {rows}x{cols} missing={missing_pct}% k={k}"
                );
            }
        }
    }

    #[test]
    fn pruned_knn_handles_duplicate_reference_rows() {
        // Exact distance ties: the stable sort keeps ascending row order,
        // and the bounded lists must pick the same winners.
        let reference = Matrix::from_rows(&[
            vec![1.0, 10.0],
            vec![1.0, 20.0],
            vec![1.0, 30.0],
            vec![1.0, 40.0],
        ]);
        let mut pruned = Matrix::from_rows(&[vec![1.0, f64::NAN]]);
        let mut brute = pruned.clone();
        KnnImputer { k: 2 }.impute(&mut pruned, &reference);
        knn_impute_reference(2, &mut brute, &reference);
        // First two tied rows win: mean(10, 20).
        assert_eq!(pruned[(0, 1)].to_bits(), 15.0f64.to_bits());
        assert_eq!(pruned[(0, 1)].to_bits(), brute[(0, 1)].to_bits());
    }

    /// SplitMix64: the cell source of the oracle proptest's matrices.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A matrix for the oracle proptest. An observed cell is a small
    /// integer, `±0.0`, a value near `±1e200` (its squared difference with
    /// most cells overflows to `inf`) or a plain real; with `ternary` it is
    /// one of -1, 0 and 1 in seven cases of eight, so rows with different
    /// co-observed counts often tie exactly. A missing cell is NaN or
    /// `±inf`. A row repeats an earlier row with probability 1/4 (exact
    /// ties), and misses every cell with probability `blank_pct`%.
    fn oracle_matrix(
        rows: usize,
        cols: usize,
        missing_pct: u64,
        blank_pct: u64,
        ternary: bool,
        state: &mut u64,
    ) -> Matrix {
        let mut data: Vec<f64> = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            if r > 0 && splitmix(state).is_multiple_of(4) {
                let src = (splitmix(state) % r as u64) as usize;
                data.extend_from_within(src * cols..(src + 1) * cols);
                continue;
            }
            let blank = splitmix(state) % 100 < blank_pct;
            for _ in 0..cols {
                let pick = splitmix(state);
                let x = if blank || pick % 100 < missing_pct {
                    [f64::NAN, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(pick >> 8) as usize % 4]
                } else if ternary && !(pick >> 8).is_multiple_of(8) {
                    ((pick >> 16) % 3) as f64 - 1.0
                } else {
                    match (pick >> 8) % 8 {
                        0..=2 => ((pick >> 16) % 7) as f64 - 3.0,
                        3 => -0.0,
                        4 => [1e200, -1e200, 1.5e200, -1.5e200][(pick >> 16) as usize % 4],
                        _ => ((pick >> 16) % 2000) as f64 / 100.0 - 10.0,
                    }
                };
                data.push(x);
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pruned kernel fills every cell with the bits of the
        /// brute-force reference and of the row-major kernel it replaced,
        /// and counts what that kernel counted, on both reference paths
        /// (fully observed at 0% missing, masked otherwise), at one and
        /// two mask words, and with `k` above the reference's row count.
        #[test]
        fn pruned_knn_matches_value_and_counter_oracles(
            cols in 1usize..81,
            ref_rows in 0usize..40,
            ref_missing in prop_oneof![Just(0u64), Just(10), Just(60), Just(100)],
            k in 1usize..7,
            ternary in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            let reference = oracle_matrix(ref_rows, cols, ref_missing, 0, ternary, &mut state);
            let data = oracle_matrix(6, cols, 35, 10, ternary, &mut state);
            let mut fast = data.clone();
            let mut brute = data.clone();
            let mut abandoning = data.clone();
            let counts = knn_impute_pruned(k, &mut fast, &reference);
            knn_impute_reference(k, &mut brute, &reference);
            let parent_counts = knn_impute_abandoning(k, &mut abandoning, &reference);
            for (i, ((a, b), c)) in fast
                .as_slice()
                .iter()
                .zip(brute.as_slice())
                .zip(abandoning.as_slice())
                .enumerate()
            {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "cell {} of {}x{} k={}", i, ref_rows, cols, k);
                prop_assert_eq!(a.to_bits(), c.to_bits(), "cell {} of {}x{} k={}", i, ref_rows, cols, k);
            }
            prop_assert_eq!(counts, parent_counts);
        }
    }

    #[test]
    fn reference_scales_distances_like_the_kernel() {
        // d = 7. Row 0 shares one column (sum 9, 9 * 7 = 63); row 1
        // shares five (sum 45). The kernel's 45 * (7 / 5) rounds to
        // 62.99999999999999 and (45 * 7) / 5 to exactly 63: the reference
        // has to scale the same way, or it keeps the tied row 0 where the
        // kernel takes the strictly closer row 1.
        let nan = f64::NAN;
        let reference = Matrix::from_rows(&[
            vec![3.0, nan, nan, nan, nan, nan, 100.0],
            vec![3.0, 3.0, 3.0, 3.0, 3.0, nan, 200.0],
        ]);
        let data = Matrix::from_rows(&[vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, nan]]);
        let mut pruned = data.clone();
        let mut brute = data;
        knn_impute_pruned(1, &mut pruned, &reference);
        knn_impute_reference(1, &mut brute, &reference);
        assert_eq!(pruned[(0, 6)], 200.0);
        assert_eq!(brute[(0, 6)].to_bits(), pruned[(0, 6)].to_bits());
    }

    #[test]
    fn imputer_names_are_stable() {
        assert_eq!(KnnImputer { k: 5 }.name(), "knn(k=5)");
        assert_eq!(MeanImputer.name(), "mean");
        assert_eq!(ZeroImputer.name(), "zero");
        assert_eq!(RegressionImputer::default().name(), "regression");
    }
}
