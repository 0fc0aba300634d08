//! Window-level SGD training loop with the paper's defaults
//! (10 epochs, batch size 64, learning rate 0.01) and the pluggable
//! regularisers used by the EWC / LwF variants.

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

/// Continual-learning regulariser applied during window training.
#[derive(Debug, Clone)]
pub enum Regularizer {
    /// Plain SGD.
    None,
    /// Elastic Weight Consolidation: quadratic penalty around the previous
    /// window's parameters weighted by the Fisher diagonal.
    Ewc {
        /// Parameters after the previous window.
        anchor: Vec<f64>,
        /// Fisher diagonal estimated on the previous window.
        fisher: Vec<f64>,
        /// Regularisation factor (paper sweeps 1e2..1e5).
        lambda: f64,
    },
    /// Learning without Forgetting: distillation toward the previous
    /// window's model outputs.
    Lwf {
        /// Snapshot of the model after the previous window (boxed: an
        /// `Mlp` carries batch scratch and dwarfs the other variants).
        prev: Box<Mlp>,
        /// Regularisation factor (paper sweeps 1e-3..10).
        lambda: f64,
    },
}

/// Trains `model` on the window `(xs, ys)` for `cfg.epochs` epochs of
/// shuffled mini-batches; returns the mean data loss over the final epoch.
pub fn train_window(
    model: &mut Mlp,
    xs: &Matrix,
    ys: &[f64],
    cfg: &SgdConfig,
    reg: &Regularizer,
) -> f64 {
    assert_eq!(xs.rows(), ys.len(), "feature/target length mismatch");
    if xs.rows() == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..xs.rows()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut last_epoch_loss = 0.0;
    // The regulariser borrows are identical for every mini-batch, so the
    // options are built once per window, not once per chunk.
    let opts = match reg {
        Regularizer::None => TrainOpts::default(),
        Regularizer::Ewc {
            anchor,
            fisher,
            lambda,
        } => TrainOpts {
            ewc: Some((anchor, fisher, *lambda)),
            ..Default::default()
        },
        Regularizer::Lwf { prev, lambda } => TrainOpts {
            distill: Some((prev, *lambda)),
            ..Default::default()
        },
    };
    for _epoch in 0..cfg.epochs.max(1) {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            epoch_loss += model.train_batch(xs, ys, chunk, cfg.lr, &opts);
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
            &Regularizer::None,
        );
        let later = train_window(
            &mut m,
            &xs,
            &ys,
            &SgdConfig {
                epochs: 30,
                ..Default::default()
            },
            &Regularizer::None,
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
                &Regularizer::None,
            )
        };
        assert!(run(40) < run(1));
    }

    #[test]
    fn empty_window_is_a_noop() {
        let xs = Matrix::zeros(0, 1);
        let mut m = Mlp::new(1, &[4], 1, Objective::SquaredError, 3);
        let before = m.get_params();
        let loss = train_window(&mut m, &xs, &[], &SgdConfig::default(), &Regularizer::None);
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
        let drift_under = |reg: &Regularizer| {
            let mut m = Mlp::new(1, &[8], 1, Objective::SquaredError, 4);
            let anchor = m.get_params();
            train_window(&mut m, &xs, &ys, &cfg, reg);
            m.get_params()
                .iter()
                .zip(&anchor)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / anchor.len() as f64
        };
        let free = drift_under(&Regularizer::None);
        let m0 = Mlp::new(1, &[8], 1, Objective::SquaredError, 4);
        let anchored = drift_under(&Regularizer::Ewc {
            anchor: m0.get_params(),
            fisher: vec![1.0; m0.n_params()],
            lambda: 50.0,
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
            &Regularizer::Ewc {
                anchor,
                fisher,
                lambda: 1e6,
            },
        );
        let params = m.get_params();
        let diverged = params.iter().any(|p| !p.is_finite() || p.abs() > 1e3);
        assert!(diverged, "expected divergence, params stayed sane");
    }
}
