//! Property-based tests for the pipeline layer: harness loss semantics,
//! SEA capacity, recommendation totality, and report formatting over
//! arbitrary configurations.

use oeb_core::{
    assign_levels, fmt_mean_std, recommend, run_stream, Algorithm, HarnessConfig, ImputerChoice,
    LearnerConfig, Scenario,
};
use oeb_synth::{generate, Balance, DriftPattern, LabelMechanism, Level, StreamSpec, TaskSpec};
use oeb_tabular::Domain;
use proptest::prelude::*;

fn tiny_spec(classification: bool, seed: u64) -> StreamSpec {
    StreamSpec {
        name: "prop-harness".into(),
        domain: Domain::Others,
        n_rows: 400,
        n_numeric: 3,
        categorical: vec![],
        task: if classification {
            TaskSpec::Classification {
                n_classes: 2,
                mechanism: LabelMechanism::XToY,
                balance: Balance::Balanced,
                label_noise: 0.02,
            }
        } else {
            TaskSpec::Regression { noise: 0.1 }
        },
        drift_pattern: DriftPattern::Gradual,
        drift_level: Level::MediumLow,
        anomaly_level: Level::Low,
        anomaly_events: vec![],
        missing_level: Level::MediumLow,
        availability: vec![],
        seasonal_cycles: 0.0,
        default_window: 50,
        seed,
    }
}

fn arb_level() -> impl Strategy<Value = Level> {
    prop_oneof![
        Just(Level::Low),
        Just(Level::MediumLow),
        Just(Level::MediumHigh),
        Just(Level::High),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn classification_losses_are_error_rates(seed in 0u64..30) {
        let d = generate(&tiny_spec(true, seed), seed);
        let cfg = HarnessConfig {
            learner: LearnerConfig { epochs: 1, ..Default::default() },
            ..Default::default()
        };
        let r = run_stream(&d, Algorithm::NaiveDt, &cfg).expect("DT applies");
        for l in &r.per_window_loss {
            prop_assert!((0.0..=1.0).contains(l), "error rate {l} out of range");
        }
        prop_assert!(r.items > 0);
        prop_assert!(r.throughput > 0.0);
    }

    #[test]
    fn imputer_choice_never_changes_window_count(seed in 0u64..10) {
        let d = generate(&tiny_spec(false, seed), seed);
        let mut counts = Vec::new();
        for imputer in [
            ImputerChoice::Knn(2),
            ImputerChoice::Regression,
            ImputerChoice::Mean,
            ImputerChoice::Zero,
        ] {
            let cfg = HarnessConfig { imputer, ..Default::default() };
            let mut cfg = cfg;
            cfg.learner.epochs = 1;
            let r = run_stream(&d, Algorithm::NaiveDt, &cfg).expect("DT applies");
            counts.push(r.per_window_loss.len());
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn recommendation_is_total_and_nonempty(
        classification in any::<bool>(),
        drift in arb_level(),
        anomaly in arb_level(),
        missing in arb_level(),
        constrained in any::<bool>(),
    ) {
        let recs = recommend(&Scenario {
            classification,
            drift,
            anomaly,
            missing,
            resource_constrained: constrained,
        });
        prop_assert!(!recs.is_empty());
        // No duplicates in a recommendation list.
        for i in 0..recs.len() {
            for j in (i + 1)..recs.len() {
                prop_assert!(recs[i] != recs[j]);
            }
        }
    }

    #[test]
    fn level_assignment_is_monotone(values in prop::collection::vec(0.0..1.0f64, 4..40)) {
        let levels = assign_levels(&values);
        prop_assert_eq!(levels.len(), values.len());
        // Higher value never gets a strictly lower level.
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] > values[j] {
                    prop_assert!(levels[i] >= levels[j]);
                }
            }
        }
    }

    #[test]
    fn mean_std_formatting_is_parseable(mean in -100.0..100.0f64, std in 0.0..10.0f64) {
        let s = fmt_mean_std(mean, std);
        let parts: Vec<&str> = s.split('±').collect();
        prop_assert_eq!(parts.len(), 2);
        let m: f64 = parts[0].parse().expect("mean parses");
        prop_assert!((m - mean).abs() < 0.001);
    }
}
