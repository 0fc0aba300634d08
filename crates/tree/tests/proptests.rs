//! Property-based tests for the tree learners: prediction-range bounds,
//! determinism, training-set consistency on clean data, and robustness
//! to arbitrary (including missing) inputs.

use oeb_linalg::Matrix;
use oeb_tree::{
    AdaptiveRandomForest, ArfConfig, DecisionTree, Gbdt, GbdtConfig, HoeffdingConfig,
    HoeffdingTree, TreeConfig, TreeTask,
};
use proptest::prelude::*;

fn labelled_data() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, usize)> {
    (8usize..60, 1usize..4, 2usize..4).prop_flat_map(|(n, d, classes)| {
        prop::collection::vec(prop::collection::vec(-50.0..50.0f64, d), n).prop_map(move |rows| {
            let ys: Vec<f64> = rows
                .iter()
                .map(|r| {
                    let s: f64 = r.iter().sum();
                    ((s.abs() as usize) % classes) as f64
                })
                .collect();
            (rows, ys, classes)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dt_classification_predicts_only_seen_classes((rows, ys, classes) in labelled_data()) {
        let xs = Matrix::from_rows(&rows);
        let tree = DecisionTree::fit(
            &xs,
            &ys,
            TreeTask::Classification { n_classes: classes },
            &TreeConfig::default(),
        );
        for r in &rows {
            let p = tree.predict(r);
            prop_assert!(p.fract() == 0.0 && (p as usize) < classes);
        }
    }

    #[test]
    fn dt_regression_predictions_within_target_range((rows, _, _) in labelled_data()) {
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let xs = Matrix::from_rows(&rows);
        let tree = DecisionTree::fit(&xs, &ys, TreeTask::Regression, &TreeConfig::default());
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for r in &rows {
            let p = tree.predict(r);
            // Leaf values are means of training targets, so predictions
            // can never escape the target range.
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
        }
        // Arbitrary unseen points are also bounded.
        prop_assert!(tree.predict(&vec![1e6; rows[0].len()]) <= hi + 1e-9);
    }

    #[test]
    fn dt_fit_is_deterministic((rows, ys, classes) in labelled_data()) {
        let xs = Matrix::from_rows(&rows);
        let cfg = TreeConfig { seed: 9, ..Default::default() };
        let t1 = DecisionTree::fit(&xs, &ys, TreeTask::Classification { n_classes: classes }, &cfg);
        let t2 = DecisionTree::fit(&xs, &ys, TreeTask::Classification { n_classes: classes }, &cfg);
        for r in &rows {
            prop_assert_eq!(t1.predict(r), t2.predict(r));
        }
        prop_assert_eq!(t1.n_nodes(), t2.n_nodes());
    }

    #[test]
    fn dt_handles_rows_with_missing_features((rows, ys, classes) in labelled_data()) {
        let mut holey = rows.clone();
        for (i, row) in holey.iter_mut().enumerate() {
            if i % 3 == 0 {
                row[0] = f64::NAN;
            }
        }
        let xs = Matrix::from_rows(&holey);
        let tree = DecisionTree::fit(
            &xs,
            &ys,
            TreeTask::Classification { n_classes: classes },
            &TreeConfig::default(),
        );
        let all_nan = vec![f64::NAN; rows[0].len()];
        let p = tree.predict(&all_nan);
        prop_assert!((p as usize) < classes);
    }

    #[test]
    fn gbdt_regression_improves_on_constant_baseline((rows, _, _) in labelled_data()) {
        let ys: Vec<f64> = rows.iter().map(|r| r.iter().sum::<f64>()).collect();
        let xs = Matrix::from_rows(&rows);
        let model = Gbdt::fit(&xs, &ys, TreeTask::Regression, &GbdtConfig::default());
        let mean = oeb_linalg::mean(&ys);
        let baseline: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum();
        let fitted: f64 = rows
            .iter()
            .zip(&ys)
            .map(|(r, y)| (model.predict(r) - y).powi(2))
            .sum();
        prop_assert!(fitted <= baseline + 1e-6, "GBDT {fitted} worse than mean baseline {baseline}");
    }

    #[test]
    fn gbdt_classification_predicts_valid_classes((rows, ys, classes) in labelled_data()) {
        let xs = Matrix::from_rows(&rows);
        let model = Gbdt::fit(
            &xs,
            &ys,
            TreeTask::Classification { n_classes: classes },
            &GbdtConfig::default(),
        );
        for r in &rows {
            prop_assert!((model.predict(r) as usize) < classes);
        }
    }

    #[test]
    fn hoeffding_tree_predictions_always_valid(
        stream in prop::collection::vec((prop::collection::vec(-10.0..10.0f64, 3), 0usize..3), 10..200)
    ) {
        let mut tree = HoeffdingTree::new(3, 3, HoeffdingConfig {
            grace_period: 20,
            ..Default::default()
        });
        for (x, y) in &stream {
            prop_assert!(tree.predict(x) < 3);
            tree.learn_one(x, *y);
        }
        prop_assert!(tree.n_nodes() >= 1);
        prop_assert!(tree.memory_bytes() > 0);
    }

    #[test]
    fn arf_predictions_always_valid(
        stream in prop::collection::vec((prop::collection::vec(-10.0..10.0f64, 3), 0usize..2), 10..80)
    ) {
        let mut arf = AdaptiveRandomForest::new(3, 2, ArfConfig {
            n_trees: 3,
            ..Default::default()
        });
        for (x, y) in &stream {
            prop_assert!(arf.predict(x) < 2);
            arf.learn_one(x, *y);
        }
        prop_assert_eq!(arf.n_trees(), 3);
    }
}
