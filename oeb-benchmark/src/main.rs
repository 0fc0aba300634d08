//! `oeb-benchmark`: the end-to-end benchmark of OEBench-rs.
//!
//! ```text
//! oeb-benchmark [--workload W]... [--seed S] [--seconds N] [--trace 0|1]
//!               [--quick] [--out FILE]
//! oeb-benchmark compare A.json B.json
//! ```
//!
//! One workload runs in this process and ends by printing one JSON line
//! (`correct`, `attempted`, `failed`, `metrics`). Several workloads (by
//! default all four) each run in a child process of their own, one after
//! another, so every workload starts with cold process caches and its
//! own peak RSS. `--out` appends each run's full record to a results
//! file that `compare` reads. See README.md for the workloads, the
//! metrics and how to measure a claim.

mod compare;
mod measure;
mod metrics;
mod run;
mod workloads;

use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use workloads::Workload;

/// Results file of a multi-workload run when `--out` is not given.
const DEFAULT_OUT: &str = "oeb-benchmark-results.json";

/// Environment knobs that would change what the program does: worker
/// count and cache capacities stay at the program's defaults.
const STRIPPED_ENV: [&str; 3] = [
    "OEBENCH_THREADS",
    "OEBENCH_PREPARE_CACHE",
    "OEBENCH_SYNTH_CACHE",
];

const USAGE: &str = "usage: oeb-benchmark [--workload W]... [--seed S] [--seconds N] \
                     [--trace 0|1] [--quick] [--out FILE]\n       \
                     oeb-benchmark compare A.json B.json\n\
                     workloads: table4-grid, prepare-55, stats-55, large-windows";

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 0,
        seconds: 20.0,
        trace: true,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    Workload::parse(name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
                cli.workloads.push(w);
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer\n{USAGE}"))?;
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds needs a positive number\n{USAGE}"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                };
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            _ => return Err(USAGE.to_string()),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = Workload::ALL.to_vec();
    }
    Ok(cli)
}

/// The runs stored in a results file; an absent file holds none.
fn load_runs(path: &Path) -> Result<Vec<Value>, String> {
    match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        Ok(text) => serde_json::from_str(&text)
            .ok()
            .and_then(|v: Value| v["runs"].as_array().cloned())
            .ok_or(format!("{}: not a results file", path.display())),
    }
}

fn append_run(path: &Path, record: Value) -> Result<(), String> {
    let mut runs = load_runs(path)?;
    runs.push(record);
    let mut file = Map::new();
    file.insert("schema", 1u64.into());
    file.insert("runs", Value::Array(runs));
    let text = serde_json::to_string_pretty(&Value::Object(file)).expect("JSON values serialise");
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One workload in this process.
fn run_one(cli: &Cli, workload: Workload) -> i32 {
    let record = run::run(&run::Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
    });
    run::print(&record);
    if let Some(out) = &cli.out {
        if let Err(e) = append_run(out, run::record_json(&record)) {
            eprintln!("{e}");
            return 3;
        }
    }
    println!("{}", run::result_line(&record));
    i32::from(!record.correct())
}

/// Several workloads, each in a child process, then a summary.
fn run_all(cli: &Cli) -> i32 {
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    let before = match load_runs(&out) {
        Ok(runs) => runs.len(),
        Err(e) => {
            eprintln!("{e}");
            return 3;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return 3;
        }
    };
    let mut ok = true;
    for w in &cli.workloads {
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name()]);
        child.args(["--seed", &cli.seed.to_string()]);
        child.args(["--seconds", &cli.seconds.to_string()]);
        child.args(["--trace", if cli.trace { "1" } else { "0" }]);
        child.arg("--out").arg(&out);
        if cli.quick {
            child.arg("--quick");
        }
        // The child inherits the environment `main` already stripped;
        // `status` waits for it to exit.
        match child.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    let runs = match load_runs(&out) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("{e}");
            return 3;
        }
    };
    let new = &runs[before.min(runs.len())..];
    println!(
        "== summary ({} runs appended to {})",
        new.len(),
        out.display()
    );
    for r in new {
        let metric = |name: &str| {
            let m = &r["end_to_end"][name];
            match (m["value"].as_f64(), m["unit"].as_str()) {
                (Some(v), Some(u)) => format!("{name}={v:.4}{u}"),
                _ => format!("{name}=n/a"),
            }
        };
        println!(
            "  {:<14} correct={} failed={}/{} {} {} {} {}",
            r["workload"].as_str().unwrap_or("?"),
            r["correct"].as_bool().unwrap_or(false),
            r["failed"].as_u64().unwrap_or(0),
            r["attempted"].as_u64().unwrap_or(0),
            metric("setup_s"),
            metric("wall_s"),
            metric("cpu_s"),
            metric("peak_rss_mb"),
        );
    }
    let all_correct = new.iter().all(|r| r["correct"].as_bool() == Some(true));
    i32::from(!(ok && all_correct && new.len() == cli.workloads.len()))
}

fn main() {
    // Before any thread exists and before the program reads them.
    for var in STRIPPED_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        match parse(&args) {
            Ok(cli) if cli.workloads.len() == 1 => run_one(&cli, cli.workloads[0]),
            Ok(cli) => run_all(&cli),
            Err(msg) => {
                eprintln!("{msg}");
                2
            }
        }
    };
    std::process::exit(code);
}
