//! Validates an oeb-trace JSONL file against the exported schema (v2):
//! every span line is a JSON object with the required keys, `type` is
//! `"span"`, ids are monotone `0..n`, the numeric fields are unsigned
//! integers, and optional attribution fields (`dataset`, `learner`,
//! `cell_seed`, `rows`) are well-typed when present. The last line must
//! be the schema-v2 footer whose `events` count matches the span count.
//! Used by `ci.sh` to gate the traced smoke run.
//!
//! With `--counters <metrics.txt>` it additionally validates the
//! counters section of a `--metrics` table against the *generated*
//! counter vocabulary (`oeb_bench::counter_vocab::KNOWN_COUNTERS`,
//! emitted by `oeb-lint index --emit-vocab` from the workspace's
//! `Counter::new` construction sites): a typo'd or undeclared counter
//! name fails the gate instead of silently shipping an unknown key.
//!
//! Usage: `trace_check [<trace.jsonl>] [--counters <metrics.txt>]`;
//! exits 0 when valid, 1 with a line-numbered message otherwise, and
//! 3 — registered in `EXIT_CODES.md` — when the trace is structurally
//! valid but its footer records silently dropped events (the trace is
//! truncated and span totals can no longer match the metrics
//! snapshot). At least one of the two inputs is required —
//! `--counters` alone gates the metrics table of a run made with
//! `--metrics` but without `--trace`.

use std::process::exit;

use oeb_bench::counter_vocab::KNOWN_COUNTERS;

const REQUIRED: [&str; 7] = ["type", "id", "slot", "seq", "name", "start_us", "dur_us"];

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
    println!("trace_check: {path}: {seen} counters OK");
}

fn fail(line_no: usize, msg: &str) -> ! {
    eprintln!("trace_check: line {line_no}: {msg}");
    exit(1);
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
    let mut n = 0u64;
    let mut footer_dropped: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let v = serde_json::from_str(line)
            .unwrap_or_else(|e| fail(line_no, &format!("invalid JSON: {e:?}")));
        let Some(obj) = v.as_object() else {
            fail(line_no, "record is not an object");
        };
        if footer_dropped.is_some() {
            fail(line_no, "record after the footer");
        }
        if v["type"].as_str() == Some("footer") {
            for key in ["schema", "events", "dropped"] {
                if v[key].as_u64().is_none() {
                    fail(
                        line_no,
                        &format!("footer `{key}` is not an unsigned integer"),
                    );
                }
            }
            if v["schema"].as_u64() < Some(2) {
                fail(line_no, "footer `schema` must be >= 2");
            }
            if v["events"].as_u64() != Some(n) {
                fail(
                    line_no,
                    &format!(
                        "footer claims {:?} events but the file holds {n}",
                        v["events"].as_u64()
                    ),
                );
            }
            footer_dropped = v["dropped"].as_u64();
            continue;
        }
        for key in REQUIRED {
            if obj.get(key).is_none() {
                fail(line_no, &format!("missing key {key:?}"));
            }
        }
        if v["type"].as_str() != Some("span") {
            fail(line_no, "`type` is not \"span\"");
        }
        if v["name"].as_str().is_none_or(str::is_empty) {
            fail(line_no, "`name` must be a non-empty string");
        }
        for key in ["slot", "seq", "start_us", "dur_us", "start_ns", "dur_ns"] {
            if v[key].as_u64().is_none() {
                fail(line_no, &format!("`{key}` is not an unsigned integer"));
            }
        }
        // Attribution fields are optional but must be well-typed — and
        // all-or-nothing, since they serialise from one CellCtx.
        let attributed = obj.get("dataset").is_some();
        for key in ["dataset", "learner"] {
            match obj.get(key) {
                Some(s) if s.as_str().is_none_or(str::is_empty) => {
                    fail(line_no, &format!("`{key}` must be a non-empty string"));
                }
                Some(_) if !attributed => {
                    fail(line_no, &format!("`{key}` present without `dataset`"));
                }
                None if attributed => fail(line_no, &format!("attributed span lacks `{key}`")),
                _ => {}
            }
        }
        for key in ["cell_seed", "rows"] {
            match obj.get(key) {
                Some(x) if x.as_u64().is_none() => {
                    fail(line_no, &format!("`{key}` is not an unsigned integer"));
                }
                None if attributed => fail(line_no, &format!("attributed span lacks `{key}`")),
                _ => {}
            }
        }
        let id = v["id"]
            .as_u64()
            .unwrap_or_else(|| fail(line_no, "`id` is not an unsigned integer"));
        if id != n {
            fail(
                line_no,
                &format!("ids must be monotone: expected {n}, got {id}"),
            );
        }
        n += 1;
    }
    if n == 0 {
        eprintln!("trace_check: {path}: no records (was tracing enabled?)");
        exit(1);
    }
    let Some(dropped) = footer_dropped else {
        eprintln!("trace_check: {path}: missing footer record");
        exit(1);
    };
    if dropped > 0 {
        // Exit 3 (see EXIT_CODES.md): structurally valid but silently
        // truncated — the buffer cap dropped events, so aggregate span
        // totals no longer match the metrics snapshot.
        eprintln!("trace_check: {path}: trace truncated: {dropped} events dropped");
        exit(3);
    }
    println!("trace_check: {path}: {n} spans OK, footer OK");
    if let Some(metrics_path) = counters {
        check_counters(metrics_path);
    }
}
