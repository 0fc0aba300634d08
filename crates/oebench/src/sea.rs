//! SEA — the Streaming Ensemble Algorithm, Street & Kim, KDD 2001 —
//! generalised over the three base models the paper pairs it with
//! (SEA-NN, SEA-DT, SEA-GBDT).
//!
//! Each window trains a fresh candidate model; the candidate joins the
//! ensemble if there is room, otherwise it replaces the worst existing
//! member *when it outperforms it on the current window* — "SEA maintains
//! an ensemble and replaces older models with current models of better
//! quality" (§4.5). Prediction is a majority vote (classification) or the
//! member median (regression). The members are the learner layer's
//! per-window base models; this module holds only SEA's policy.

use crate::learners::{window_loss, BaseKind, BaseModel, LearnerConfig, StreamLearner};
use oeb_linalg::Matrix;
use oeb_tabular::Task;

/// Boosting rounds of a SEA-GBDT member: fixed at the paper's 5 trees,
/// while Naive-GBDT boosts `ensemble_size` rounds (they agree at the
/// default; Figure 19 varies `ensemble_size`).
const MEMBER_GBDT_ROUNDS: usize = 5;

/// The SEA ensemble learner.
pub struct SeaLearner {
    kind: BaseKind,
    task: Task,
    cfg: LearnerConfig,
    members: Vec<BaseModel>,
    window_counter: u64,
}

impl SeaLearner {
    /// Creates an empty SEA ensemble of capacity `cfg.ensemble_size`.
    pub fn new(kind: BaseKind, task: Task, cfg: LearnerConfig) -> SeaLearner {
        SeaLearner {
            kind,
            task,
            cfg,
            members: Vec::new(),
            window_counter: 0,
        }
    }

    /// Every member's predictions for the window, member by member.
    fn member_predictions(&self, xs: &Matrix) -> Vec<Vec<f64>> {
        self.members
            .iter()
            .map(|m| {
                let mut preds = Vec::new();
                m.predict(xs, &mut preds);
                preds
            })
            .collect()
    }
}

impl StreamLearner for SeaLearner {
    fn predict(&self, xs: &Matrix, out: &mut Vec<f64>) {
        out.clear();
        if self.members.is_empty() {
            out.resize(xs.rows(), 0.0);
            return;
        }
        let preds = self.member_predictions(xs);
        let mut row = Vec::with_capacity(preds.len());
        for r in 0..xs.rows() {
            row.clear();
            row.extend(preds.iter().map(|p| p[r]));
            out.push(match self.task {
                Task::Classification { n_classes } => {
                    let mut votes = vec![0usize; n_classes];
                    for &p in &row {
                        votes[(p as usize).min(n_classes - 1)] += 1;
                    }
                    let mut best = 0;
                    for (c, &v) in votes.iter().enumerate() {
                        if v > votes[best] {
                            best = c;
                        }
                    }
                    best as f64
                }
                // Median of the members: the robust analogue of SEA's
                // majority vote (a single diverged member must not poison
                // the ensemble prediction).
                Task::Regression => {
                    row.sort_by(f64::total_cmp);
                    row[row.len() / 2]
                }
            });
        }
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        if xs.rows() == 0 {
            return;
        }
        self.window_counter += 1;
        let seed = self
            .cfg
            .seed
            .wrapping_mul(0x100000001B3)
            .wrapping_add(self.window_counter);
        let candidate = BaseModel::fit(
            self.kind,
            self.task,
            xs,
            ys,
            &self.cfg,
            seed,
            MEMBER_GBDT_ROUNDS,
        );

        if self.members.len() < self.cfg.ensemble_size.max(1) {
            self.members.push(candidate);
            return;
        }
        // Quality check on the current window.
        let mut preds = Vec::new();
        candidate.predict(xs, &mut preds);
        let candidate_loss = window_loss(self.task, &preds, ys);
        let (worst_idx, worst_loss) = self
            .member_predictions(xs)
            .iter()
            .map(|p| window_loss(self.task, p, ys))
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("non-empty ensemble");
        if candidate_loss < worst_loss {
            self.members[worst_idx] = candidate;
        }
    }

    fn memory_bytes(&self) -> usize {
        self.members.iter().map(BaseModel::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learners::tests::predict_row;

    fn window(offset: f64, n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 10) as f64 + offset]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| f64::from(r[0] >= offset + 5.0))
            .collect();
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn ensemble_fills_to_capacity_then_replaces() {
        let task = Task::Classification { n_classes: 2 };
        let mut sea = SeaLearner::new(
            BaseKind::Dt,
            task,
            LearnerConfig {
                ensemble_size: 3,
                ..Default::default()
            },
        );
        for w in 0..5 {
            let (xs, ys) = window(w as f64 * 0.1, 64);
            sea.train_window(&xs, &ys);
        }
        assert_eq!(sea.members.len(), 3);
    }

    #[test]
    fn majority_vote_classifies() {
        let task = Task::Classification { n_classes: 2 };
        let mut sea = SeaLearner::new(BaseKind::Dt, task, LearnerConfig::default());
        for _ in 0..3 {
            let (xs, ys) = window(0.0, 128);
            sea.train_window(&xs, &ys);
        }
        assert_eq!(predict_row(&sea, &[1.0]), 0.0);
        assert_eq!(predict_row(&sea, &[9.0]), 1.0);
    }

    #[test]
    fn regression_uses_member_median() {
        let task = Task::Regression;
        let mut sea = SeaLearner::new(BaseKind::Dt, task, LearnerConfig::default());
        let rows: Vec<Vec<f64>> = (0..128).map(|i| vec![(i % 10) as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
        let xs = Matrix::from_rows(&rows);
        for _ in 0..3 {
            sea.train_window(&xs, &ys);
        }
        assert!((predict_row(&sea, &[5.0]) - 15.0).abs() < 1.5);
    }

    #[test]
    fn empty_ensemble_predicts_zero() {
        let sea = SeaLearner::new(BaseKind::Nn, Task::Regression, LearnerConfig::default());
        assert_eq!(predict_row(&sea, &[1.0, 2.0]), 0.0);
        assert_eq!(sea.memory_bytes(), 0);
    }

    #[test]
    fn better_candidate_replaces_worst_member() {
        let task = Task::Classification { n_classes: 2 };
        let mut sea = SeaLearner::new(
            BaseKind::Dt,
            task,
            LearnerConfig {
                ensemble_size: 2,
                ..Default::default()
            },
        );
        // Fill with models for concept A.
        let (xs_a, ys_a) = window(0.0, 128);
        sea.train_window(&xs_a, &ys_a);
        sea.train_window(&xs_a, &ys_a);
        // A new concept: labels flipped. Candidates trained on B beat old
        // members on B-windows, so the ensemble converges to concept B.
        let ys_b: Vec<f64> = ys_a.iter().map(|y| 1.0 - y).collect();
        for _ in 0..4 {
            sea.train_window(&xs_a, &ys_b);
        }
        assert_eq!(predict_row(&sea, &[1.0]), 1.0);
        assert_eq!(predict_row(&sea, &[9.0]), 0.0);
    }

    #[test]
    fn sea_nn_trains_members() {
        let task = Task::Classification { n_classes: 2 };
        let mut sea = SeaLearner::new(
            BaseKind::Nn,
            task,
            LearnerConfig {
                epochs: 60,
                lr: 0.05,
                ..Default::default()
            },
        );
        // Normalised inputs, as the harness always feeds the learners.
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![(i % 10) as f64 / 10.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| f64::from(r[0] >= 0.5)).collect();
        let xs = Matrix::from_rows(&rows);
        sea.train_window(&xs, &ys);
        let mut preds = Vec::new();
        sea.predict(&xs, &mut preds);
        let correct = preds.iter().zip(&ys).filter(|(p, y)| p == y).count();
        assert!(correct > 200, "{correct}/256");
    }
}
