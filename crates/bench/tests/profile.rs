//! End-to-end profiler contract over a real traced run: the per-stage
//! totals `oeb-profile` computes from the trace stream must equal the
//! `MetricsSnapshot` span aggregates exactly (both sum the same
//! nanosecond durations and floor once to microseconds), and the
//! rendered profile must be byte-identical whether the analysis fans
//! out over 1 or 4 threads, and two sweeps of one grid under two config
//! variants must profile as two sets of cells.
//!
//! This file holds exactly one test on purpose: oeb-trace state is
//! process-global, so the property owns the whole test binary.

use oeb_bench::profile::{analyze, check_metrics, parse_trace, profile_json, render_profile};
use oeb_core::{run_sweep, Algorithm, HarnessConfig};
use oeb_synth::{generate, Balance, DriftPattern, LabelMechanism, Level, StreamSpec, TaskSpec};
use oeb_tabular::Domain;

fn tiny_spec(seed: u64) -> StreamSpec {
    StreamSpec {
        name: "profile-clf".into(),
        domain: Domain::Others,
        n_rows: 240,
        n_numeric: 3,
        categorical: vec![],
        task: TaskSpec::Classification {
            n_classes: 2,
            mechanism: LabelMechanism::XToY,
            balance: Balance::Balanced,
            label_noise: 0.02,
        },
        drift_pattern: DriftPattern::Gradual,
        drift_level: Level::MediumLow,
        anomaly_level: Level::Low,
        anomaly_events: vec![],
        missing_level: Level::MediumLow,
        availability: vec![],
        seasonal_cycles: 0.0,
        default_window: 60,
        seed,
    }
}

/// Serialise the buffered trace exactly as `write_trace_file` would.
fn drain_trace_text() -> String {
    let events = oeb_trace::drain_events();
    let mut text = String::new();
    for (id, ev) in events.iter().enumerate() {
        text.push_str(&oeb_trace::render_trace_event(id, ev));
        text.push('\n');
    }
    text.push_str(&oeb_trace::render_trace_footer(
        events.len(),
        oeb_trace::dropped_events(),
    ));
    text.push('\n');
    text
}

#[test]
fn profile_totals_match_the_metrics_snapshot_and_are_thread_invariant() {
    let datasets = vec![generate(&tiny_spec(3), 0)];
    let algorithms = [Algorithm::NaiveDt, Algorithm::NaiveNn];
    let mut cfg = HarnessConfig {
        seed: 3,
        window_factor: 0.25,
        ..Default::default()
    };
    cfg.learner.epochs = 1;
    cfg.learner.hidden = vec![4];
    cfg.learner.ensemble_size = 1;
    cfg.learner.buffer_size = 20;

    // A second config variant of the same grid and seed, as one figure
    // runs its variants: the runs share dataset, learner, seed and rows.
    let variant = HarnessConfig {
        window_factor: 0.5,
        ..cfg.clone()
    };

    oeb_trace::reset();
    oeb_trace::enable();
    for config in [&cfg, &variant] {
        run_sweep(&datasets, &algorithms, config, None, None, 4).expect("valid sweep config");
    }
    // Snapshot and drain observe the same instrument state, in the
    // same order the CLI uses (trace file first, metrics second).
    let text = drain_trace_text();
    let snapshot = oeb_trace::snapshot();
    oeb_trace::disable();

    let trace = parse_trace(&text).expect("own trace parses");
    assert_eq!(trace.footer.dropped, 0);
    let profile = analyze(&trace, 1);

    // Exact equality against the snapshot: same counts, same
    // nanosecond sums — not approximately, bit for bit.
    assert!(!snapshot.spans.is_empty(), "sweep recorded no spans");
    assert_eq!(profile.stages.len(), snapshot.spans.len());
    for (name, span) in &snapshot.spans {
        let stage = profile
            .stages
            .get(name)
            .unwrap_or_else(|| panic!("span {name:?} missing from the profile"));
        assert_eq!(stage.count, span.count, "span {name:?} count");
        assert_eq!(stage.total_ns, span.total_ns, "span {name:?} total_ns");
    }
    // The rendered metrics table cross-check agrees too.
    let table = oeb_trace::render_metrics_table(&snapshot);
    let checked = check_metrics(&profile, &table).expect("span totals match");
    assert_eq!(checked, snapshot.spans.len());

    // Cells were attributed: the harness funnel tags every run, once.
    // One dataset x two learners x two config variants is four cells,
    // each with its run's wall time (a second context around a run would
    // add a cell without one; a context without the config digest would
    // merge the variants into two cells).
    assert_eq!(
        profile.cells.len(),
        4,
        "one cell per run: {:?}",
        profile.cells
    );
    assert!(profile.cells.iter().all(|c| c.rows == 240 && c.wall_ns > 0));
    assert!(profile.makespan_ns >= profile.lower_bound_ns);

    // Analysis fan-out is invisible: 1-thread and 4-thread profiles
    // serialise to identical bytes, human table included.
    let p1 = analyze(&trace, 1);
    let p4 = analyze(&trace, 4);
    let json1 = serde_json::to_string_pretty(&profile_json(&p1, 10)).unwrap();
    let json4 = serde_json::to_string_pretty(&profile_json(&p4, 10)).unwrap();
    assert_eq!(json1, json4);
    assert_eq!(render_profile(&p1, 10), render_profile(&p4, 10));
}
