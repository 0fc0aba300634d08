//! Golden tests for the four workspace-level semantic rules. Each
//! fixture under `tests/fixtures/semantic/` is a miniature workspace:
//! the `_pos` variant must produce exactly the diagnostics listed in
//! its `expected.txt` (one `<file> <line> <rule>` triple per line),
//! and the `_allow` variant — the same violation with an
//! `oeb-lint: allow(...)` comment at every diagnostic site — must
//! produce none. Running `Workspace::load` + `check` end-to-end also
//! exercises the parser and index on inputs the real workspace never
//! provides (orphan vocabulary entries, non-dense exit codes, lock
//! inversions).

use std::path::{Path, PathBuf};

use oeb_lint::Workspace;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/semantic")
        .join(name)
}

/// Runs the full workspace pipeline on a fixture and returns its
/// diagnostics as `<file> <line> <rule>` lines, in report order.
fn run(name: &str) -> Vec<String> {
    let root = fixture_root(name);
    let ws = Workspace::load(&root).unwrap_or_else(|e| panic!("load {name}: {e}"));
    ws.check(&[])
        .iter()
        .map(|d| format!("{} {} {}", d.file, d.line, d.rule))
        .collect()
}

fn expected(name: &str) -> Vec<String> {
    let path = fixture_root(name).join("expected.txt");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(str::to_owned)
        .collect()
}

fn assert_fixture(name: &str) {
    let got = run(name);
    let want = expected(name);
    assert_eq!(
        got, want,
        "fixture {name}: diagnostics diverge from expected.txt\n  got:  {got:#?}\n  want: {want:#?}"
    );
}

#[test]
fn counter_vocab_sync_positive() {
    assert_fixture("counter_vocab_pos");
}

#[test]
fn counter_vocab_sync_suppressed() {
    assert_fixture("counter_vocab_allow");
}

#[test]
fn exit_code_registry_positive() {
    assert_fixture("exit_code_pos");
}

#[test]
fn exit_code_registry_suppressed() {
    assert_fixture("exit_code_allow");
}

#[test]
fn lock_order_positive() {
    assert_fixture("lock_order_pos");
}

#[test]
fn lock_order_suppressed() {
    assert_fixture("lock_order_allow");
}

#[test]
fn stale_suppression_positive() {
    assert_fixture("stale_supp_pos");
}

#[test]
fn stale_suppression_suppressed() {
    assert_fixture("stale_supp_allow");
}

/// The diagnostics a fixture reports are stable across a reload —
/// `Workspace::load` has no hidden ordering dependence on filesystem
/// iteration (files are sorted during the walk).
#[test]
fn fixture_diagnostics_are_deterministic() {
    assert_eq!(run("exit_code_pos"), run("exit_code_pos"));
    assert_eq!(run("lock_order_pos"), run("lock_order_pos"));
}
