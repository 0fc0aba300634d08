//! `oeb-profile`: timeline analytics over a recorded trace.
//!
//! ```text
//! oeb-profile <trace.jsonl> [--out PROFILE.json] [--top K] [--threads N]
//!             [--check-metrics metrics.txt]
//! ```
//!
//! The default mode prints the human-readable profile table to stdout
//! and, with `--out`, writes the deterministic `PROFILE.json`.
//! `--check-metrics` cross-checks the trace's per-stage totals against
//! a rendered metrics table from the same run — they must match
//! exactly, or the tool exits 1.
//!
//! Exit codes: 0 success, 1 analysis/check failure, 2 usage.

use std::path::PathBuf;
use std::process::ExitCode;

use oeb_bench::profile::{analyze, check_metrics, parse_trace, profile_json, render_profile};

const USAGE: &str = "usage: oeb-profile <trace.jsonl> [--out PROFILE.json] [--top K] [--threads N] [--check-metrics metrics.txt]";

struct Options {
    trace: PathBuf,
    out: Option<PathBuf>,
    top: usize,
    threads: usize,
    check_metrics: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        trace: PathBuf::new(),
        out: None,
        top: 10,
        threads: 1,
        check_metrics: None,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            "--top" => {
                opts.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top needs a positive integer".to_string())?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a positive integer".to_string())?;
            }
            "--check-metrics" => {
                opts.check_metrics = Some(PathBuf::from(value("--check-metrics")?));
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    match positional.as_slice() {
        [trace] => opts.trace = PathBuf::from(trace),
        _ => return Err("expected one trace file".to_string()),
    }
    Ok(opts)
}

fn run(opts: &Options) -> Result<(), String> {
    let text = std::fs::read_to_string(&opts.trace)
        .map_err(|e| format!("cannot read {}: {e}", opts.trace.display()))?;
    let trace = parse_trace(&text)?;

    let profile = analyze(&trace, opts.threads);
    print!("{}", render_profile(&profile, opts.top));
    if let Some(path) = &opts.check_metrics {
        let metrics = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let checked = check_metrics(&profile, &metrics)?;
        println!("\ncheck-metrics: {checked} span totals match the snapshot");
    }
    if let Some(path) = &opts.out {
        let json = serde_json::to_string_pretty(&profile_json(&profile, opts.top))
            .map_err(|e| format!("cannot serialise profile: {e}"))?;
        std::fs::write(path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("profile written to {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("oeb-profile: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("oeb-profile: {msg}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_profile_mode() {
        let o = opts(&["t.jsonl", "--out", "P.json", "--top", "3", "--threads", "4"]).unwrap();
        assert_eq!(o.trace, PathBuf::from("t.jsonl"));
        assert_eq!(o.out, Some(PathBuf::from("P.json")));
        assert_eq!((o.top, o.threads), (3, 4));
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(opts(&[]).is_err());
        assert!(opts(&["a", "b"]).is_err());
        assert!(opts(&["cost-model", "t.jsonl"]).is_err());
        assert!(opts(&["t.jsonl", "--nope"]).is_err());
        assert!(opts(&["t.jsonl", "--top"]).is_err());
    }
}
