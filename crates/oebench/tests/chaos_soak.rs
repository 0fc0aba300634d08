//! End-to-end chaos-soak: execute a slice of the fault × drift matrix
//! under full supervision with tracing enabled, so every invariant the
//! harness checks — panic isolation, cell accounting, forced
//! quarantine, clean-control bit-identity, deterministic logical
//! deadlines, and the `supervise.*` counter contract — is exercised in
//! one process.
//!
//! A single test keeps the global trace counters free of interference:
//! the harness compares counter deltas against record-derived totals,
//! which only holds when no concurrent supervision runs in the same
//! process.

use oeb_core::{run_chaos_matrix, ChaosOptions};

#[test]
fn chaos_matrix_holds_every_supervision_invariant() {
    // Tracing on: the counter-contract checks inside the harness engage.
    oeb_trace::enable();
    let options = ChaosOptions {
        seed: 42,
        max_cells: Some(12),
        threads: 2,
        max_retries: 2,
        rows: 360,
    };

    let report = run_chaos_matrix(&options);
    assert!(
        report.passed(),
        "supervision invariants violated: {:#?}",
        report.violations
    );
    assert_eq!(report.cells.len(), 12, "every scenario must report a cell");

    // The diagonal enumeration visits the drop-all axis exactly once in
    // the first 12 cells; dropping every window is a retryable
    // EmptyStream failure, so that cell must quarantine after spending
    // the full retry budget.
    let quarantined: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.status == "quarantined")
        .collect();
    assert!(
        quarantined.iter().any(|c| c.fault == "drop-all"),
        "drop-all must quarantine; cells: {:#?}",
        report.cells
    );
    for cell in &quarantined {
        assert!(
            !cell.detail.is_empty(),
            "quarantined cell without fault coordinates"
        );
    }
    assert!(report.summary.quarantined >= 1);
    assert!(
        report.summary.retries >= options.max_retries,
        "a quarantine must spend the whole retry budget"
    );
    // The deadline control times out deterministically on both runs.
    assert!(report.summary.timeouts >= 2);
    assert_eq!(report.summary.wall_timeouts, 0, "no wall deadline was set");

    // JSON report shape for the CI gate.
    let json = report.to_json();
    assert_eq!(json["cells"].as_array().unwrap().len(), 12);
    assert!(json["summary"]["quarantined"].as_u64().unwrap() >= 1);
    assert_eq!(json["violations"].as_array().unwrap().len(), 0);

    // Replaying the identical options reproduces the identical report:
    // fault injection, retry jitter and quarantine decisions all derive
    // from the seed.
    let replay = run_chaos_matrix(&options);
    assert!(
        replay.passed(),
        "replay violations: {:#?}",
        replay.violations
    );
    assert_eq!(report.cells, replay.cells, "chaos run is not replayable");
    assert_eq!(report.summary, replay.summary);
}
