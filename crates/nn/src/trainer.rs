//! Window-level SGD training loop with the paper's defaults
//! (10 epochs, batch size 64, learning rate 0.01); the EWC and LwF
//! variants pass their regularisers as borrowed [`TrainOpts`].

use crate::mlp::{Mlp, TrainOpts};
use oeb_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// SGD hyper-parameters (§6.1 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct SgdConfig {
    /// Local epochs per window (paper default 10).
    pub epochs: usize,
    /// Mini-batch size (paper default 64).
    pub batch_size: usize,
    /// Learning rate (paper default 0.01).
    pub lr: f64,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            epochs: 10,
            batch_size: 64,
            lr: 0.01,
            seed: 0,
        }
    }
}

/// Trains `model` on the window `(xs, ys)` for `cfg.epochs` epochs of
/// shuffled mini-batches, every step under the continual-learning terms
/// of `opts` (EWC's anchor, LwF's teacher, or none); returns the mean
/// data loss over the final epoch.
pub fn train_window(
    model: &mut Mlp,
    xs: &Matrix,
    ys: &[f64],
    cfg: &SgdConfig,
    opts: &TrainOpts<'_>,
) -> f64 {
    assert_eq!(xs.rows(), ys.len(), "feature/target length mismatch");
    if xs.rows() == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..xs.rows()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut last_epoch_loss = 0.0;
    for _epoch in 0..cfg.epochs.max(1) {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            epoch_loss += model.train_batch(xs, ys, chunk, cfg.lr, opts);
            batches += 1;
        }
        last_epoch_loss = epoch_loss / batches.max(1) as f64;
    }
    last_epoch_loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Objective;

    fn line_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 16) as f64 / 16.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 0.5).collect();
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn loss_decreases_over_training() {
        let (xs, ys) = line_data(256);
        let mut m = Mlp::new(1, &[8], 1, Objective::SquaredError, 1);
        let first = train_window(
            &mut m,
            &xs,
            &ys,
            &SgdConfig {
                epochs: 1,
                ..Default::default()
            },
            &TrainOpts::default(),
        );
        let later = train_window(
            &mut m,
            &xs,
            &ys,
            &SgdConfig {
                epochs: 30,
                ..Default::default()
            },
            &TrainOpts::default(),
        );
        assert!(later < first, "first {first}, later {later}");
    }

    #[test]
    fn more_epochs_reach_lower_loss() {
        let (xs, ys) = line_data(256);
        let run = |epochs| {
            let mut m = Mlp::new(1, &[8], 1, Objective::SquaredError, 2);
            train_window(
                &mut m,
                &xs,
                &ys,
                &SgdConfig {
                    epochs,
                    ..Default::default()
                },
                &TrainOpts::default(),
            )
        };
        assert!(run(40) < run(1));
    }

    #[test]
    fn empty_window_is_a_noop() {
        let xs = Matrix::zeros(0, 1);
        let mut m = Mlp::new(1, &[4], 1, Objective::SquaredError, 3);
        let before = m.get_params();
        let loss = train_window(
            &mut m,
            &xs,
            &[],
            &SgdConfig::default(),
            &TrainOpts::default(),
        );
        assert_eq!(loss, 0.0);
        assert_eq!(m.get_params(), before);
    }

    #[test]
    fn moderate_ewc_lambda_limits_parameter_drift() {
        let (xs, ys) = line_data(256);
        let cfg = SgdConfig {
            epochs: 5,
            ..Default::default()
        };
        let drift_under = |opts: &TrainOpts| {
            let mut m = Mlp::new(1, &[8], 1, Objective::SquaredError, 4);
            let anchor = m.get_params();
            train_window(&mut m, &xs, &ys, &cfg, opts);
            m.get_params()
                .iter()
                .zip(&anchor)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / anchor.len() as f64
        };
        let free = drift_under(&TrainOpts::default());
        let m0 = Mlp::new(1, &[8], 1, Objective::SquaredError, 4);
        let (anchor, fisher) = (m0.get_params(), vec![1.0; m0.n_params()]);
        let anchored = drift_under(&TrainOpts {
            ewc: Some((&anchor, &fisher, 50.0)),
            ..Default::default()
        });
        assert!(anchored < free, "anchored {anchored} vs free {free}");
    }

    #[test]
    fn excessive_ewc_lambda_explodes() {
        // The paper (§6.1) observes that regularisation factors beyond
        // ~1e5 lead to loss explosions; with SGD the EWC step
        // lr * lambda * (theta - theta*) overshoots and diverges.
        let (xs, ys) = line_data(256);
        let mut m = Mlp::new(1, &[8], 1, Objective::SquaredError, 4);
        let anchor = m.get_params();
        let fisher = vec![1.0; m.n_params()];
        train_window(
            &mut m,
            &xs,
            &ys,
            &SgdConfig {
                epochs: 5,
                ..Default::default()
            },
            &TrainOpts {
                ewc: Some((&anchor, &fisher, 1e6)),
                ..Default::default()
            },
        );
        let params = m.get_params();
        let diverged = params.iter().any(|p| !p.is_finite() || p.abs() > 1e3);
        assert!(diverged, "expected divergence, params stayed sane");
    }
}
