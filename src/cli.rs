//! Command-line interface logic for the `oebench` binary.
//!
//! ```text
//! oebench list
//! oebench inspect "Electricity Prices" --scale 0.25
//! oebench stats   "Electricity Prices" --scale 0.25
//! oebench run     "Electricity Prices" --algorithm naive-dt --scale 0.25
//! oebench recommend "Electricity Prices" --scale 0.25
//! oebench export  "Electricity Prices" --out stream.csv --scale 0.05
//! ```

use oeb_core::{
    extract_stats, resolve_threads, run_chaos_matrix, run_sweep, set_default_threads,
    try_run_stream, Algorithm, ChaosOptions, HarnessConfig, HarnessError, Scenario, StatsConfig,
    SupervisePolicy,
};
use oeb_synth::Level;
use std::time::Duration;

/// A CLI failure: a message for stderr plus the process exit code.
///
/// Codes: `2` usage / bad arguments, `3..=14` the [`HarnessError`]
/// codes (`3` also covers unknown datasets, which are an invalid
/// configuration; `13` cell deadline, `14` quarantine), `1` anything
/// else including chaos-invariant violations.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    pub message: String,
    pub code: i32,
}

impl CliError {
    /// A usage error (exit code 2).
    pub fn usage(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    /// A generic runtime error with an explicit exit code.
    pub fn new(message: impl Into<String>, code: i32) -> CliError {
        CliError {
            message: message.into(),
            code,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl From<HarnessError> for CliError {
    fn from(e: HarnessError) -> CliError {
        CliError {
            message: e.to_string(),
            code: e.exit_code(),
        }
    }
}

/// Parsed CLI command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List all registry datasets.
    List,
    /// Generate and describe one dataset.
    Inspect { name: String },
    /// Extract and print open-environment statistics.
    Stats { name: String },
    /// Run one algorithm prequentially.
    Run { name: String, algorithm: Algorithm },
    /// Print the Figure 9 recommendation for a dataset's measured levels.
    Recommend { name: String },
    /// Export a generated stream to CSV.
    Export { name: String, out: String },
    /// Checkpointed sweep over the five representative datasets.
    Sweep {
        out: String,
        algorithm: Option<Algorithm>,
        limit: Option<usize>,
    },
    /// Chaos-soak run over the fault × drift matrix.
    Chaos {
        /// Optional path for the JSON chaos report.
        out: Option<String>,
        /// Scenario cap (`--limit`); `None` runs the full grid.
        limit: Option<usize>,
    },
}

/// Parsed options shared by all commands.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    pub command: Command,
    /// Registry scale factor.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Worker count for sweeps and statistics; `None` falls back to
    /// `OEBENCH_THREADS` and then the machine's available parallelism.
    pub threads: Option<usize>,
    /// When set, enable tracing and write the span stream to this
    /// JSON-lines file at the end of the run.
    pub trace: Option<String>,
    /// When set, print the end-of-run metrics table to stderr.
    pub metrics: bool,
    /// Per-cell wall-clock deadline in seconds (`--cell-deadline`),
    /// counted per attempt from the start of the evaluate stage; `None`
    /// sets no deadline.
    pub cell_deadline: Option<f64>,
    /// Per-cell retry budget before quarantine (`--max-retries`);
    /// `None` keeps the historical fail-fast sweep behaviour.
    pub max_retries: Option<usize>,
}

/// Usage text.
pub const USAGE: &str = "usage: oebench <command> [args] [--scale F] [--seed N] [--threads N]\n\
commands:\n\
  list                         list the 55 registry datasets\n\
  inspect <name>               generate a dataset and describe it\n\
  stats <name>                 extract its open-environment statistics\n\
  run <name> --algorithm <a>   prequential evaluation (a: naive-nn, ewc, lwf,\n\
                               icarl, sea-nn, naive-dt, naive-gbdt, sea-dt,\n\
                               sea-gbdt, arf)\n\
  recommend <name>             recommendation from measured statistics\n\
  export <name> --out <file>   write the generated stream as CSV\n\
  sweep --out <checkpoint>     checkpointed (dataset x algorithm) sweep over the\n\
                               five representative datasets; resumes from the\n\
                               checkpoint file [--algorithm a] [--limit N]\n\
  chaos                        chaos-soak run over the fault x drift matrix;\n\
                               exits 1 if any supervision invariant is violated\n\
                               [--out report.json] [--limit N] [--max-retries N]\n\
options:\n\
  --threads N                  worker count for sweeps and statistics (default:\n\
                               OEBENCH_THREADS or all cores); results are\n\
                               identical for any N\n\
  --cell-deadline SECS         sweep: wall-clock deadline per cell attempt,\n\
                               counted from its evaluate stage; a cell past it\n\
                               is recorded as timed out (exit 13)\n\
  --max-retries N              sweep/chaos: seeded retry budget per cell before\n\
                               quarantine (exit 14); 0 fails fast (default)\n\
  --trace <out.jsonl>          record spans and write them as JSON lines;\n\
                               results are bit-identical with tracing on or off\n\
  --metrics                    print the end-of-run metrics table to stderr";

/// Maps a CLI algorithm slug to an [`Algorithm`].
pub fn parse_algorithm(slug: &str) -> Option<Algorithm> {
    Some(match slug.to_ascii_lowercase().as_str() {
        "naive-nn" | "nn" => Algorithm::NaiveNn,
        "ewc" => Algorithm::Ewc,
        "lwf" => Algorithm::Lwf,
        "icarl" => Algorithm::Icarl,
        "sea-nn" => Algorithm::SeaNn,
        "naive-dt" | "dt" => Algorithm::NaiveDt,
        "naive-gbdt" | "gbdt" => Algorithm::NaiveGbdt,
        "sea-dt" => Algorithm::SeaDt,
        "sea-gbdt" => Algorithm::SeaGbdt,
        "arf" => Algorithm::Arf,
        _ => return None,
    })
}

/// Parses CLI arguments (without the program name).
pub fn parse(args: &[String]) -> Result<CliOptions, CliError> {
    let mut positional: Vec<&str> = Vec::new();
    let mut algorithm: Option<Algorithm> = None;
    let mut out: Option<String> = None;
    let mut limit: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut trace: Option<String> = None;
    let mut metrics = false;
    let mut cell_deadline: Option<f64> = None;
    let mut max_retries: Option<usize> = None;
    let mut scale = 0.25f64;
    let mut seed = 0u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &f64| v > 0.0 && v <= 1.0)
                    .ok_or_else(|| {
                        CliError::usage(format!("--scale needs a value in (0, 1]\n{USAGE}"))
                    })?;
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::usage(format!("--seed needs an integer\n{USAGE}")))?;
            }
            "--algorithm" => {
                i += 1;
                let slug = args.get(i).ok_or_else(|| CliError::usage(USAGE))?;
                algorithm = Some(parse_algorithm(slug).ok_or_else(|| {
                    CliError::usage(format!("unknown algorithm {slug:?}\n{USAGE}"))
                })?);
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).ok_or_else(|| CliError::usage(USAGE))?.clone());
            }
            "--limit" => {
                i += 1;
                limit = Some(args.get(i).and_then(|v| v.parse().ok()).ok_or_else(|| {
                    CliError::usage(format!("--limit needs an integer\n{USAGE}"))
                })?);
            }
            "--threads" => {
                i += 1;
                threads = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&v: &usize| v > 0)
                        .ok_or_else(|| {
                            CliError::usage(format!("--threads needs a positive integer\n{USAGE}"))
                        })?,
                );
            }
            "--trace" => {
                i += 1;
                trace = Some(
                    args.get(i)
                        .ok_or_else(|| {
                            CliError::usage(format!("--trace needs an output path\n{USAGE}"))
                        })?
                        .clone(),
                );
            }
            "--cell-deadline" => {
                i += 1;
                cell_deadline = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&v: &f64| v.is_finite() && v > 0.0)
                        .ok_or_else(|| {
                            CliError::usage(format!(
                                "--cell-deadline needs a positive number of seconds\n{USAGE}"
                            ))
                        })?,
                );
            }
            "--max-retries" => {
                i += 1;
                max_retries = Some(args.get(i).and_then(|v| v.parse().ok()).ok_or_else(|| {
                    CliError::usage(format!("--max-retries needs an integer\n{USAGE}"))
                })?);
            }
            "--metrics" => metrics = true,
            "--help" | "-h" => return Err(CliError::usage(USAGE)),
            other => positional.push(other),
        }
        i += 1;
    }
    let command = match positional.split_first() {
        Some((&"list", [])) => Command::List,
        Some((&"inspect", [name])) => Command::Inspect {
            name: name.to_string(),
        },
        Some((&"stats", [name])) => Command::Stats {
            name: name.to_string(),
        },
        Some((&"run", [name])) => Command::Run {
            name: name.to_string(),
            algorithm: algorithm
                .ok_or_else(|| CliError::usage(format!("run needs --algorithm\n{USAGE}")))?,
        },
        Some((&"recommend", [name])) => Command::Recommend {
            name: name.to_string(),
        },
        Some((&"export", [name])) => Command::Export {
            name: name.to_string(),
            out: out.ok_or_else(|| CliError::usage(format!("export needs --out\n{USAGE}")))?,
        },
        Some((&"sweep", [])) => Command::Sweep {
            out: out.ok_or_else(|| CliError::usage(format!("sweep needs --out\n{USAGE}")))?,
            algorithm,
            limit,
        },
        Some((&"chaos", [])) => Command::Chaos { out, limit },
        _ => return Err(CliError::usage(USAGE)),
    };
    Ok(CliOptions {
        command,
        scale,
        seed,
        threads,
        trace,
        metrics,
        cell_deadline,
        max_retries,
    })
}

fn find_entry(name: &str, scale: f64) -> Result<oeb_synth::DatasetEntry, CliError> {
    oeb_synth::registry_scaled(scale)
        .into_iter()
        .find(|e| e.spec.name.eq_ignore_ascii_case(name) || e.selected == Some(name))
        .ok_or_else(|| {
            CliError::new(
                format!("unknown dataset {name:?}; use `oebench list` to see the registry"),
                3,
            )
        })
}

/// Executes a parsed command, returning the text to print.
///
/// `--trace` / `--metrics` wrap the command: recording is enabled before
/// it runs, the span stream is written (even when the command failed —
/// a trace of a failing run is exactly when you want one) and the
/// metrics table goes to stderr, never stdout, so result output stays
/// byte-identical with observability on or off.
///
/// `--threads` becomes the process-wide default worker count, so the
/// statistics extractor and every nested pool honour it, not just the
/// sweep and chaos grids.
pub fn execute(opts: &CliOptions) -> Result<String, CliError> {
    set_default_threads(opts.threads);
    if opts.trace.is_some() || opts.metrics {
        oeb_trace::enable();
    }
    let result = run_command(opts);
    if let Some(path) = &opts.trace {
        if let Err(e) = oeb_trace::write_trace_file(std::path::Path::new(path)) {
            let write_err = CliError::new(format!("cannot write trace {path}: {e}"), 1);
            return result.and(Err(write_err));
        }
    }
    if opts.metrics {
        eprint!(
            "{}",
            oeb_trace::render_metrics_table(&oeb_trace::snapshot())
        );
    }
    result
}

fn run_command(opts: &CliOptions) -> Result<String, CliError> {
    match &opts.command {
        Command::List => {
            let mut out = String::from("name | task | domain | paper rows | bench rows | window\n");
            for e in oeb_synth::registry_scaled(opts.scale) {
                let task = if e.is_classification() { "clf" } else { "reg" };
                out.push_str(&format!(
                    "{} | {task} | {} | {} | {} | {}{}\n",
                    e.spec.name,
                    e.spec.domain.name(),
                    e.paper_rows,
                    e.spec.n_rows,
                    e.spec.default_window,
                    e.selected
                        .map(|s| format!(" | selected: {s}"))
                        .unwrap_or_default(),
                ));
            }
            Ok(out)
        }
        Command::Inspect { name } => {
            let entry = find_entry(name, opts.scale)?;
            let d = oeb_synth::generate(&entry.spec, opts.seed);
            let m = d.table.missing_stats();
            Ok(format!(
                "{}\n  task: {:?}\n  rows: {} ({} windows of {})\n  features: {} \
                 ({} numeric, {} categorical)\n  missing: {:.2}% cells, {:.2}% rows, \
                 {:.2}% columns\n  drift: {:?} at {:?}\n  anomalies: {:?} \
                 ({} events)\n",
                d.name,
                d.task,
                d.n_rows(),
                d.windows().len(),
                d.default_window,
                d.n_features(),
                entry.spec.n_numeric,
                entry.spec.categorical.len(),
                m.empty_cells * 100.0,
                m.rows_with_missing * 100.0,
                m.missing_columns * 100.0,
                entry.spec.drift_pattern,
                entry.spec.drift_level,
                entry.spec.anomaly_level,
                entry.spec.anomaly_events.len(),
            ))
        }
        Command::Stats { name } => {
            let entry = find_entry(name, opts.scale)?;
            let d = oeb_synth::generate(&entry.spec, opts.seed);
            let s = extract_stats(&d, &StatsConfig::default());
            Ok(format!(
                "{}\n  missing score:  {:.3} (rows {:.3}, cols {:.3}, cells {:.3})\n  \
                 data drift:     {:.3} (HDDDM {:.3}, kdq {:.3}, PCA-CD {:.3}, KS avg {:.3})\n  \
                 concept drift:  {:.3} (DDM {:.3}, EDDM {:.3}, ADWIN {:.3}, PERM {:.3})\n  \
                 anomaly score:  {:.3} (ECOD avg {:.3}, IForest avg {:.3})\n",
                s.name,
                s.missing_score(),
                s.missing_rows,
                s.missing_cols,
                s.missing_cells,
                s.drift_score(),
                s.drift_hdddm,
                s.drift_kdq,
                s.drift_pcacd,
                s.drift_ks.avg,
                s.concept_score(),
                s.concept_ddm,
                s.concept_eddm,
                s.concept_adwin,
                s.concept_perm,
                s.anomaly_score(),
                s.anomaly_ecod.avg,
                s.anomaly_iforest.avg,
            ))
        }
        Command::Run { name, algorithm } => {
            let entry = find_entry(name, opts.scale)?;
            let d = oeb_synth::generate(&entry.spec, opts.seed);
            let cfg = HarnessConfig {
                seed: opts.seed,
                ..Default::default()
            };
            let result = try_run_stream(&d, *algorithm, &cfg)?;
            let curve: Vec<String> = result
                .per_window_loss
                .iter()
                .map(|l| {
                    if l.is_finite() {
                        format!("{l:.3}")
                    } else {
                        "inf".into()
                    }
                })
                .collect();
            Ok(format!(
                "{} on {}\n  mean loss: {:.4}\n  throughput: {:.0} items/s\n  \
                 model memory: {:.1} KB\n  per-window: {}\n",
                result.algorithm,
                result.dataset,
                result.mean_loss,
                result.throughput,
                result.memory_bytes as f64 / 1024.0,
                curve.join(" "),
            ))
        }
        Command::Recommend { name } => {
            let entry = find_entry(name, opts.scale)?;
            let d = oeb_synth::generate(&entry.spec, opts.seed);
            let s = extract_stats(&d, &StatsConfig::default());
            let level = |score: f64| {
                if score > 0.3 {
                    Level::High
                } else if score > 0.15 {
                    Level::MediumHigh
                } else if score > 0.05 {
                    Level::MediumLow
                } else {
                    Level::Low
                }
            };
            let scenario = Scenario {
                classification: d.task.is_classification(),
                drift: level((s.drift_score() + s.concept_score()) / 2.0),
                anomaly: level(s.anomaly_score()),
                missing: level(s.missing_score()),
                resource_constrained: false,
            };
            let recs = oeb_core::recommend(&scenario);
            let names: Vec<&str> = recs.iter().map(|a| a.name()).collect();
            Ok(format!(
                "{}\n  measured: drift {:?}, anomaly {:?}, missing {:?}\n  recommended: {}\n",
                d.name,
                scenario.drift,
                scenario.anomaly,
                scenario.missing,
                names.join(", "),
            ))
        }
        Command::Export { name, out } => {
            let entry = find_entry(name, opts.scale)?;
            let d = oeb_synth::generate(&entry.spec, opts.seed);
            let csv = oeb_tabular::write_table(&d.table);
            std::fs::write(out, &csv).map_err(|e| {
                CliError::from(HarnessError::Io(format!("cannot write {out}: {e}")))
            })?;
            Ok(format!(
                "wrote {} rows x {} columns to {out}\n",
                d.n_rows(),
                d.table.n_cols(),
            ))
        }
        Command::Sweep {
            out,
            algorithm,
            limit,
        } => {
            let datasets: Vec<_> = oeb_synth::selected_five()
                .into_iter()
                .map(|e| oeb_synth::generate(&e.spec.scaled(opts.scale), opts.seed))
                .collect();
            let algorithms: Vec<Algorithm> = match algorithm {
                Some(a) => vec![*a],
                None => Algorithm::all().to_vec(),
            };
            let cfg = HarnessConfig {
                seed: opts.seed,
                supervise: SupervisePolicy {
                    wall_deadline: opts.cell_deadline.map(Duration::from_secs_f64),
                    max_retries: opts.max_retries.unwrap_or(0),
                    ..SupervisePolicy::unsupervised()
                },
                ..Default::default()
            };
            // Progress lines go to stderr; done/total is seeded from the
            // checkpoint, so a resumed sweep reports over the whole grid.
            oeb_core::set_sweep_progress(true);
            let report = run_sweep(
                &datasets,
                &algorithms,
                &cfg,
                Some(std::path::Path::new(out)),
                *limit,
                resolve_threads(opts.threads),
            )?;
            let (completed, inapplicable, failed) = report.counts();
            let mut text = String::new();
            for record in &report.records {
                text.push_str(&format!(
                    "{} | {} | {}\n",
                    record.dataset,
                    record.algorithm,
                    record.outcome.describe(),
                ));
            }
            text.push_str(&format!(
                "{completed} completed, {inapplicable} inapplicable, {failed} failed; \
                 checkpoint: {out}\n",
            ));
            if cfg.supervise.is_active() {
                let s = report.supervision();
                text.push_str(&format!(
                    "supervision: {} retries, {} recovered, {} timed out \
                     ({} wall-clock), {} quarantined\n",
                    s.retries, s.recovered, s.timeouts, s.wall_timeouts, s.quarantined,
                ));
            }
            Ok(text)
        }
        Command::Chaos { out, limit } => {
            let options = ChaosOptions {
                seed: opts.seed,
                max_cells: *limit,
                threads: resolve_threads(opts.threads),
                max_retries: opts.max_retries.unwrap_or(2),
                ..ChaosOptions::default()
            };
            let report = run_chaos_matrix(&options);
            if let Some(path) = out {
                std::fs::write(path, report.to_json_string()).map_err(|e| {
                    CliError::from(HarnessError::Io(format!("cannot write {path}: {e}")))
                })?;
            }
            let mut text = String::new();
            for cell in &report.cells {
                text.push_str(&format!(
                    "{} x {} | {}\n",
                    cell.fault, cell.drift, cell.detail
                ));
            }
            let s = &report.summary;
            text.push_str(&format!(
                "{} scenarios; supervision: {} retries, {} recovered, {} timed out, \
                 {} quarantined\n",
                report.cells.len(),
                s.retries,
                s.recovered,
                s.timeouts,
                s.quarantined,
            ));
            if report.passed() {
                text.push_str("all supervision invariants held\n");
                Ok(text)
            } else {
                for v in &report.violations {
                    text.push_str(&format!("violation: {v}\n"));
                }
                Err(CliError::new(
                    format!(
                        "{text}chaos: {} invariant(s) violated",
                        report.violations.len()
                    ),
                    1,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_list_and_flags() {
        let o = parse(&s(&["list", "--scale", "0.1", "--seed", "7"])).unwrap();
        assert_eq!(o.command, Command::List);
        assert_eq!(o.scale, 0.1);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn parses_threads_flag() {
        let o = parse(&s(&["sweep", "--out", "c.jsonl", "--threads", "4"])).unwrap();
        assert_eq!(o.threads, Some(4));
        let o = parse(&s(&["list"])).unwrap();
        assert_eq!(o.threads, None);
        assert_eq!(parse(&s(&["list", "--threads", "0"])).unwrap_err().code, 2);
        assert_eq!(parse(&s(&["list", "--threads", "x"])).unwrap_err().code, 2);
    }

    #[test]
    fn parses_trace_and_metrics_flags() {
        let o = parse(&s(&["list", "--trace", "/tmp/t.jsonl", "--metrics"])).unwrap();
        assert_eq!(o.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert!(o.metrics);
        assert_eq!(parse(&s(&["list", "--trace"])).unwrap_err().code, 2);
        let o = parse(&s(&["list"])).unwrap();
        assert!(o.trace.is_none() && !o.metrics);
    }

    #[test]
    fn parses_run_with_algorithm() {
        let o = parse(&s(&["run", "Electricity Prices", "--algorithm", "sea-dt"])).unwrap();
        assert_eq!(
            o.command,
            Command::Run {
                name: "Electricity Prices".into(),
                algorithm: Algorithm::SeaDt
            }
        );
    }

    #[test]
    fn run_without_algorithm_is_an_error() {
        assert!(parse(&s(&["run", "Electricity Prices"])).is_err());
    }

    #[test]
    fn algorithm_slugs_roundtrip() {
        for alg in Algorithm::all() {
            let slug = alg.name().to_ascii_lowercase();
            assert_eq!(parse_algorithm(&slug), Some(alg), "slug {slug}");
        }
        assert_eq!(parse_algorithm("nope"), None);
    }

    #[test]
    fn list_contains_all_55() {
        let o = parse(&s(&["list"])).unwrap();
        let out = execute(&o).unwrap();
        assert_eq!(out.lines().count(), 56); // header + 55
        assert!(out.contains("KDDCUP99"));
    }

    #[test]
    fn inspect_by_short_name() {
        let o = parse(&s(&["inspect", "AIR", "--scale", "0.02"])).unwrap();
        let out = execute(&o).unwrap();
        assert!(out.contains("Shunyi"));
        assert!(out.contains("missing"));
    }

    #[test]
    fn run_executes_prequentially() {
        let o = parse(&s(&[
            "run",
            "ELECTRICITY",
            "--algorithm",
            "dt",
            "--scale",
            "0.02",
        ]))
        .unwrap();
        let out = execute(&o).unwrap();
        assert!(out.contains("mean loss"));
    }

    #[test]
    fn arf_on_regression_reports_inapplicable() {
        let o = parse(&s(&["run", "AIR", "--algorithm", "arf", "--scale", "0.02"])).unwrap();
        assert!(execute(&o).is_err());
    }

    #[test]
    fn export_writes_csv() {
        let path = std::env::temp_dir().join("oeb_cli_export.csv");
        let o = parse(&s(&[
            "export",
            "ROOM",
            "--out",
            path.to_str().unwrap(),
            "--scale",
            "0.02",
        ]))
        .unwrap();
        let out = execute(&o).unwrap();
        assert!(out.contains("wrote"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 100);
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let o = parse(&s(&["inspect", "not-a-dataset"])).unwrap();
        assert!(execute(&o).is_err());
    }

    #[test]
    fn errors_carry_distinct_exit_codes() {
        // Usage errors exit 2.
        assert_eq!(parse(&s(&["run", "ROOM"])).unwrap_err().code, 2);
        assert_eq!(parse(&s(&["--scale", "7", "list"])).unwrap_err().code, 2);
        // Unknown dataset is an invalid configuration (3).
        let o = parse(&s(&["stats", "not-a-dataset"])).unwrap();
        assert_eq!(execute(&o).unwrap_err().code, 3);
        // An inapplicable (algorithm, task) pair maps NotApplicable (4).
        let o = parse(&s(&["run", "AIR", "--algorithm", "arf", "--scale", "0.02"])).unwrap();
        assert_eq!(execute(&o).unwrap_err().code, 4);
    }

    #[test]
    fn parses_sweep_with_options() {
        let o = parse(&s(&[
            "sweep",
            "--out",
            "ckpt.jsonl",
            "--algorithm",
            "naive-dt",
            "--limit",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            o.command,
            Command::Sweep {
                out: "ckpt.jsonl".into(),
                algorithm: Some(Algorithm::NaiveDt),
                limit: Some(3),
            }
        );
        assert!(parse(&s(&["sweep"])).is_err(), "sweep requires --out");
    }

    #[test]
    fn parses_schedule_flags() {
        // Sweeps always claim cells in grid order: the claim-order flags
        // are gone and, like any unknown flag, are usage errors.
        let cases: &[&[&str]] = &[
            &["sweep", "--out", "c.jsonl", "--schedule", "fifo"],
            &["sweep", "--out", "c.jsonl", "--schedule", "cost"],
            &["sweep", "--out", "c.jsonl", "--cost-model", "m.json"],
        ];
        for case in cases {
            assert_eq!(parse(&s(case)).unwrap_err().code, 2, "{case:?}");
        }
    }

    #[test]
    fn parses_supervision_flags() {
        let o = parse(&s(&[
            "sweep",
            "--out",
            "c.jsonl",
            "--cell-deadline",
            "2.5",
            "--max-retries",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.cell_deadline, Some(2.5));
        assert_eq!(o.max_retries, Some(3));
        let o = parse(&s(&["list"])).unwrap();
        assert!(o.cell_deadline.is_none() && o.max_retries.is_none());
        for bad in [
            &["list", "--cell-deadline", "0"][..],
            &["list", "--cell-deadline", "x"],
            &["list", "--max-retries", "-1"],
            &["list", "--max-retries"],
        ] {
            assert_eq!(parse(&s(bad)).unwrap_err().code, 2, "args {bad:?}");
        }
    }

    #[test]
    fn stats_mode_flag_is_a_usage_error() {
        assert!(parse(&s(&["stats", "ROOM"])).is_ok());
        for bad in [
            &["stats", "ROOM", "--stats-mode"][..],
            &["stats", "ROOM", "--stats-mode", "full"],
            &["stats", "ROOM", "--stats-mode", "incremental"],
            &["recommend", "ROOM", "--stats-mode", "full"],
        ] {
            assert_eq!(parse(&s(bad)).unwrap_err().code, 2, "args {bad:?}");
        }
    }

    #[test]
    fn parses_chaos_command() {
        let o = parse(&s(&["chaos", "--limit", "2", "--out", "r.json"])).unwrap();
        assert_eq!(
            o.command,
            Command::Chaos {
                out: Some("r.json".into()),
                limit: Some(2),
            }
        );
        let o = parse(&s(&["chaos"])).unwrap();
        assert_eq!(
            o.command,
            Command::Chaos {
                out: None,
                limit: None
            }
        );
    }

    #[test]
    fn chaos_smoke_runs_and_writes_a_report() {
        let path = std::env::temp_dir().join(format!("oeb_cli_chaos_{}.json", std::process::id()));
        let o = parse(&s(&[
            "chaos",
            "--limit",
            "1",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = execute(&o).unwrap();
        assert!(out.contains("all supervision invariants held"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"violations\""), "{json}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_checkpoints_and_resumes() {
        let path = std::env::temp_dir().join(format!("oeb_cli_sweep_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let args = s(&[
            "sweep",
            "--out",
            path.to_str().unwrap(),
            "--algorithm",
            "dt",
            "--scale",
            "0.02",
        ]);

        // Interrupt after two runs: the partial report stops early.
        let mut limited = parse(&args).unwrap();
        if let Command::Sweep { limit, .. } = &mut limited.command {
            *limit = Some(2);
        }
        let partial = execute(&limited).unwrap();
        assert_eq!(partial.lines().count(), 3); // 2 records + summary

        // Resume from the checkpoint: all five datasets are reported and
        // the two checkpointed runs are not repeated.
        let full = execute(&parse(&args).unwrap()).unwrap();
        assert_eq!(full.lines().count(), 6); // 5 records + summary
        assert!(full.contains("5 completed, 0 inapplicable, 0 failed"));
        // The header line, then one line per pair: no pair is run twice.
        let checkpoint = std::fs::read_to_string(&path).unwrap();
        assert!(checkpoint.starts_with("{\"header\":"), "{checkpoint}");
        assert_eq!(checkpoint.lines().count(), 1 + 5, "no pair is run twice");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_refuses_a_checkpoint_of_another_seed() {
        let path =
            std::env::temp_dir().join(format!("oeb_cli_sweep_seed_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let sweep = |seed: &str| {
            execute(
                &parse(&s(&[
                    "sweep",
                    "--out",
                    path.to_str().unwrap(),
                    "--algorithm",
                    "dt",
                    "--scale",
                    "0.02",
                    "--seed",
                    seed,
                    "--limit",
                    "1",
                ]))
                .unwrap(),
            )
        };
        sweep("0").unwrap();
        // Resuming seed 0's checkpoint as seed 1 used to print seed 0's
        // losses as seed 1's and exit 0.
        let err = sweep("1").unwrap_err();
        assert_eq!(err.code, 15, "{}", err.message);
        // The same seed still resumes.
        assert!(sweep("0").is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn supervised_sweep_prints_the_plain_records() {
        let sweep = |tag: &str, extra: &[&str]| {
            let path = std::env::temp_dir()
                .join(format!("oeb_cli_sweep_{tag}_{}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let mut args = s(&[
                "sweep",
                "--out",
                path.to_str().unwrap(),
                "--algorithm",
                "dt",
                "--scale",
                "0.02",
            ]);
            args.extend(s(extra));
            let out = execute(&parse(&args).unwrap()).unwrap();
            let _ = std::fs::remove_file(&path);
            out
        };
        let plain = sweep("plain", &[]);
        let supervised = sweep(
            "supervised",
            &["--cell-deadline", "60", "--max-retries", "1"],
        );
        // Five records, then the counts line, which names the checkpoint.
        let records = |out: &str| out.lines().take(5).map(str::to_string).collect::<Vec<_>>();
        assert_eq!(records(&supervised), records(&plain));
        assert_eq!(plain.lines().count(), 6, "{plain}");
        assert_eq!(
            supervised.lines().nth(6),
            Some("supervision: 0 retries, 0 recovered, 0 timed out (0 wall-clock), 0 quarantined"),
            "{supervised}"
        );
    }
}
