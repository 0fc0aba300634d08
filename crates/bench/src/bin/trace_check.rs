//! Validates an oeb-trace JSONL file against the exported schema (v3)
//! through [`oeb_bench::profile::parse_trace`], the reader `oeb-profile`
//! uses too: span ids run `0..n` in order, the numeric fields are
//! unsigned integers, `name` is non-empty, the attribution fields
//! (`dataset`, `learner`, `cell_seed`, `rows`, `config`) are all present
//! and well typed or all absent, and the footer (schema 3 or later) ends
//! the file with an `events` count equal to the span count. Used by
//! `ci.sh` to gate the traced smoke runs.
//!
//! With `--counters <metrics.txt>` it additionally validates the
//! counters section of a `--metrics` table against the *generated*
//! counter vocabulary (`oeb_bench::counter_vocab::KNOWN_COUNTERS`,
//! emitted by `oeb-lint index --emit-vocab` from the workspace's
//! `Counter::new` construction sites): a typo'd or undeclared counter
//! name fails the gate instead of silently shipping an unknown key.
//!
//! Usage: `trace_check [<trace.jsonl>] [--counters <metrics.txt>]`;
//! exits 0 when valid, 1 with a line-numbered message on an invalid
//! trace or one without spans, 2 on usage or I/O errors, and 3 —
//! registered in `EXIT_CODES.md` — when the trace is structurally
//! valid but its footer records silently dropped events (the trace is
//! truncated and span totals can no longer match the metrics
//! snapshot). At least one of the two inputs is required —
//! `--counters` alone gates the metrics table of a run made with
//! `--metrics` but without `--trace`.

use std::process::exit;

use oeb_bench::counter_vocab::KNOWN_COUNTERS;
use oeb_bench::profile::parse_trace;
use oeb_core::console::print;

/// Checks every row of the `counters` section of a rendered metrics
/// table against [`KNOWN_COUNTERS`].
fn check_counters(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trace_check: cannot read {path}: {e}");
        exit(2);
    });
    let mut in_counters = false;
    let mut seen = 0usize;
    for (i, line) in text.lines().enumerate() {
        if !line.starts_with(' ') {
            in_counters = line == "counters";
            continue;
        }
        if !in_counters {
            continue;
        }
        let Some(key) = line.split_whitespace().next() else {
            continue;
        };
        if !KNOWN_COUNTERS.contains(&key) {
            eprintln!(
                "trace_check: {path}: line {}: unknown counter {key:?}",
                i + 1
            );
            exit(1);
        }
        seen += 1;
    }
    if seen == 0 {
        eprintln!("trace_check: {path}: no counters section (was --metrics on?)");
        exit(1);
    }
    print(&format!("trace_check: {path}: {seen} counters OK\n"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<&str> = None;
    let mut counters: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--counters" => {
                i += 1;
                counters = args.get(i).map(String::as_str);
                if counters.is_none() {
                    eprintln!("trace_check: --counters needs a metrics file");
                    exit(2);
                }
            }
            p if path.is_none() => path = Some(p),
            _ => {
                eprintln!("usage: trace_check [<trace.jsonl>] [--counters <metrics.txt>]");
                exit(2);
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        // Counters-only mode: gate a metrics table with no trace file.
        if let Some(counters) = counters {
            check_counters(counters);
            return;
        }
        eprintln!("usage: trace_check [<trace.jsonl>] [--counters <metrics.txt>]");
        exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trace_check: cannot read {path}: {e}");
        exit(2);
    });
    let trace = parse_trace(&text).unwrap_or_else(|e| {
        eprintln!("trace_check: {path}: {e}");
        exit(1);
    });
    let n = trace.spans.len();
    if n == 0 {
        eprintln!("trace_check: {path}: no spans (was tracing enabled?)");
        exit(1);
    }
    let dropped = trace.footer.dropped;
    if dropped > 0 {
        // Exit 3 (see EXIT_CODES.md): structurally valid but silently
        // truncated — the buffer cap dropped events, so aggregate span
        // totals no longer match the metrics snapshot.
        eprintln!("trace_check: {path}: trace truncated: {dropped} events dropped");
        exit(3);
    }
    print(&format!("trace_check: {path}: {n} spans OK, footer OK\n"));
    if let Some(metrics_path) = counters {
        check_counters(metrics_path);
    }
}
