//! CLI for the workspace invariant checker.
//!
//! ```text
//! oeb-lint check [--json] [--fix-hints] [--warn <rule>]... [--root <dir>]
//!                [--time-budget-ms <n>] [paths...]
//! oeb-lint index [--json] [--emit-vocab [<path>]] [--root <dir>]
//! oeb-lint rules
//! ```
//!
//! A whole-workspace `check` runs the token rules, the index-driven
//! semantic rules, and the stale-suppression analysis; `check` with
//! explicit paths runs the token rules only (semantic contracts are
//! workspace properties and need every file). `index` builds and
//! prints the workspace index, and `--emit-vocab` writes the generated
//! counter vocabulary consumed by `trace_check --counters`.
//!
//! Exit codes: 0 clean (warnings allowed), 1 violations at error
//! severity or a blown time budget, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use oeb_lint::engine::{check_file, render_human, to_json, Severity, SourceFile};
use oeb_lint::semantic::{is_known_rule, SEMANTIC_RULES};
use oeb_lint::{rules, Workspace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("index") => run_index(&args[1..]),
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: oeb-lint <check [--json] [--fix-hints] [--warn <rule>]... [--root <dir>] \
                 [--time-budget-ms <n>] [paths...] | index [--json] [--emit-vocab [<path>]] \
                 [--root <dir>] | rules>"
            );
            ExitCode::from(2)
        }
    }
}

fn print_rules() {
    for r in rules::all() {
        println!(
            "{} [{}]\n    invariant: {}\n    hint: {}",
            r.name,
            r.severity.label(),
            r.invariant,
            r.hint
        );
    }
    for (name, invariant, hint) in SEMANTIC_RULES {
        println!("{name} [error, workspace]\n    invariant: {invariant}\n    hint: {hint}");
    }
}

fn run_check(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut fix_hints = false;
    let mut warn_rules: Vec<String> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut time_budget_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--fix-hints" => fix_hints = true,
            "--warn" => match it.next() {
                Some(name) if is_known_rule(name) => warn_rules.push(name.clone()),
                Some(name) => {
                    eprintln!("oeb-lint: unknown rule `{name}` (see `oeb-lint rules`)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("oeb-lint: --warn needs a rule name");
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("oeb-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--time-budget-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => time_budget_ms = Some(ms),
                _ => {
                    eprintln!("oeb-lint: --time-budget-ms needs a millisecond count");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with('-') => {
                eprintln!("oeb-lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            other => paths.push(other.to_string()),
        }
    }

    let root = match root.or_else(default_root) {
        Some(r) => r,
        None => {
            eprintln!("oeb-lint: could not locate the workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };

    // The lint is part of the edit loop, so it gates its own latency:
    // a blown budget fails the run like a violation would.
    let watch = oeb_trace::Stopwatch::start();
    let (diags, file_count) = if paths.is_empty() {
        let ws = match Workspace::load(&root) {
            Ok(ws) => ws,
            Err(e) => {
                eprintln!("oeb-lint: loading {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        let n = ws.files.len();
        (ws.check(&warn_rules), n)
    } else {
        let mut diags = Vec::new();
        for rel in &paths {
            let file = match SourceFile::load(&root, rel) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("oeb-lint: reading {rel}: {e}");
                    return ExitCode::from(2);
                }
            };
            diags.extend(check_file(&file, &warn_rules));
        }
        let n = paths.len();
        (diags, n)
    };
    let elapsed_ms = watch.elapsed_seconds() * 1e3;

    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    if json {
        match serde_json::to_string_pretty(&to_json(&diags)) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("oeb-lint: serialising diagnostics: {e:?}");
                return ExitCode::from(2);
            }
        }
    } else {
        for d in &diags {
            print!("{}", render_human(d, fix_hints));
        }
        let rule_count = rules::all().len() + SEMANTIC_RULES.len();
        println!(
            "oeb-lint: {file_count} files, {rule_count} rules, {errors} errors, {warnings} warnings \
             ({elapsed_ms:.0} ms)"
        );
    }
    let mut failed = errors > 0;
    if let Some(budget) = time_budget_ms {
        if elapsed_ms > budget as f64 {
            eprintln!("oeb-lint: check took {elapsed_ms:.0} ms, over the {budget} ms budget");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_index(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut emit_vocab: Option<Option<String>> = None;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--emit-vocab" => {
                // Optional value: the next non-flag argument, else the
                // canonical generated path.
                let value = match it.peek() {
                    Some(v) if !v.starts_with('-') => Some(it.next().cloned().unwrap_or_default()),
                    _ => None,
                };
                emit_vocab = Some(value);
            }
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("oeb-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("oeb-lint: unknown index argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(default_root) {
        Some(r) => r,
        None => {
            eprintln!("oeb-lint: could not locate the workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("oeb-lint: loading {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = emit_vocab {
        let rel = path.unwrap_or_else(|| "crates/bench/src/counter_vocab.rs".to_string());
        let target = root.join(&rel);
        if let Err(e) = std::fs::write(&target, ws.index.render_vocab()) {
            eprintln!("oeb-lint: writing {}: {e}", target.display());
            return ExitCode::from(2);
        }
        println!(
            "oeb-lint: wrote {} counters to {rel}",
            ws.index.counter_vocabulary().len()
        );
        return ExitCode::SUCCESS;
    }
    if json {
        match serde_json::to_string_pretty(&ws.index.to_json()) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("oeb-lint: serialising index: {e:?}");
                return ExitCode::from(2);
            }
        }
    } else {
        let idx = &ws.index;
        println!(
            "oeb-lint index: {} files, {} counters ({} in vocabulary), {} gauges, \
             {} exit codes, {} lock sites, {} lock edges",
            idx.file_count,
            idx.counters.len(),
            idx.counter_vocabulary().len(),
            idx.gauges.len(),
            idx.exit_arms.len(),
            idx.lock_sites.len(),
            idx.lock_edges.len()
        );
    }
    ExitCode::SUCCESS
}

/// The workspace root: the manifest dir's grandparent when cargo runs
/// us (`crates/lint` → repo root), else the nearest ancestor of the
/// current directory holding a `Cargo.toml` with a `[workspace]` table.
fn default_root() -> Option<PathBuf> {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let candidate = PathBuf::from(&manifest).join("../..");
        if is_workspace_root(&candidate) {
            return Some(candidate);
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_root(dir: &std::path::Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .map(|s| s.contains("[workspace]"))
        .unwrap_or(false)
}
