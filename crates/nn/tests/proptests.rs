//! Property-based tests for the neural substrate: parameter round-trips,
//! softmax simplex membership, loss nonnegativity, gradient-descent
//! sanity and exemplar-buffer invariants over arbitrary inputs.

use oeb_linalg::Matrix;
use oeb_nn::{softmax, ExemplarBuffer, Mlp, Objective, SgdConfig, TrainOpts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn params_roundtrip_preserves_function(
        seed in 0u64..1000,
        x in prop::collection::vec(-10.0..10.0f64, 4),
    ) {
        let m = Mlp::new(4, &[8, 4], 3, Objective::CrossEntropy, seed);
        let mut clone = Mlp::new(4, &[8, 4], 3, Objective::CrossEntropy, seed + 1);
        clone.set_params(&m.get_params());
        prop_assert_eq!(m.forward(&x), clone.forward(&x));
    }

    #[test]
    fn softmax_is_a_probability_simplex(z in prop::collection::vec(-50.0..50.0f64, 1..8)) {
        let p = softmax(&z);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
        // Softmax is shift-invariant.
        let shifted: Vec<f64> = z.iter().map(|v| v + 7.0).collect();
        let q = softmax(&shifted);
        for (a, b) in p.iter().zip(&q) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn losses_are_nonnegative(
        seed in 0u64..100,
        x in prop::collection::vec(-5.0..5.0f64, 3),
        y in 0usize..4,
    ) {
        let clf = Mlp::new(3, &[6], 4, Objective::CrossEntropy, seed);
        prop_assert!(clf.loss(&x, y as f64) >= 0.0);
        let reg = Mlp::new(3, &[6], 1, Objective::SquaredError, seed);
        prop_assert!(reg.loss(&x, 1.5) >= 0.0);
    }

    #[test]
    fn one_sgd_step_on_one_sample_reduces_its_loss(
        seed in 0u64..200,
        x in prop::collection::vec(-2.0..2.0f64, 3),
        y in -2.0..2.0f64,
    ) {
        let mut m = Mlp::new(3, &[8], 1, Objective::SquaredError, seed);
        let before = m.loss(&x, y);
        prop_assume!(before > 1e-6);
        let xs = Matrix::from_rows(std::slice::from_ref(&x));
        m.train_batch(&xs, &[y], &[0], 0.001, &TrainOpts::default());
        let after = m.loss(&x, y);
        prop_assert!(after <= before + 1e-9, "loss rose from {before} to {after}");
    }

    #[test]
    fn fisher_diagonal_is_nonnegative(seed in 0u64..100, n in 1usize..20) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 5) as f64, 1.0]).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let m = Mlp::new(2, &[4], 2, Objective::CrossEntropy, seed);
        let f = m.fisher_diagonal(&Matrix::from_rows(&rows), &ys, 50);
        prop_assert_eq!(f.len(), m.n_params());
        prop_assert!(f.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn exemplar_buffer_never_exceeds_capacity(
        capacity in 0usize..40,
        rounds in 1usize..4,
        labels in prop::collection::vec(0usize..3, 10..40),
    ) {
        let model = Mlp::new(2, &[4], 3, Objective::CrossEntropy, 1);
        let mut buf = ExemplarBuffer::new(capacity);
        for _ in 0..rounds {
            let rows: Vec<Vec<f64>> = labels
                .iter()
                .map(|&c| vec![c as f64, 1.0 - c as f64])
                .collect();
            let ys: Vec<f64> = labels.iter().map(|&c| c as f64).collect();
            buf.update(&model, &Matrix::from_rows(&rows), &ys, true);
            prop_assert!(buf.len() <= capacity.max(3), "buffer {} over capacity {}", buf.len(), capacity);
        }
    }

    #[test]
    fn training_config_is_deterministic(seed in 0u64..50) {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![(i % 8) as f64 / 8.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let xs = Matrix::from_rows(&rows);
        let cfg = SgdConfig { epochs: 3, batch_size: 16, lr: 0.05, seed };
        let run = || {
            let mut m = Mlp::new(1, &[6], 1, Objective::SquaredError, seed);
            oeb_nn::train_window(&mut m, &xs, &ys, &cfg, &oeb_nn::Regularizer::None);
            m.get_params()
        };
        prop_assert_eq!(run(), run());
    }
}
