//! # oeb-bench
//!
//! The benchmark harness of the OEBench reproduction:
//!
//! * the `repro` binary regenerates every table and figure of the
//!   paper's evaluation (`cargo run -p oeb-bench --release --bin repro --
//!   all`), writing text and JSON artifacts under `results/`;
//! * the `bench_kernels` and `bench_train` binaries time the fast
//!   kernels against their references and assert bit-identical output;
//! * `trace_check` and `oeb-profile` validate and analyse trace files.

pub mod counter_vocab;
pub mod profile;

use std::fs;
use std::path::Path;

use oeb_core::experiments::{run_experiment, ExpContext, ExperimentOutput, ALL_EXPERIMENTS};
use oeb_core::stats::OeStats;
use oeb_core::LinePlot;
use oeb_trace::{SpanDef, Stopwatch};

static EXPERIMENT_SPAN: SpanDef = SpanDef::new("repro.experiment");

/// Extracts a float series from a JSON array (nulls = diverged = NaN).
fn json_floats(v: &serde_json::Value) -> Vec<f64> {
    v.as_array()
        .map(|a| a.iter().map(|x| x.as_f64().unwrap_or(f64::NAN)).collect())
        .unwrap_or_default()
}

/// Renders SVG figures for the curve experiments; returns
/// `(file-suffix, svg)` pairs (empty for non-curve experiments).
pub fn render_figures(out: &ExperimentOutput) -> Vec<(String, String)> {
    match out.id {
        "fig4" => vec![(
            "fig4.svg".into(),
            LinePlot::new("Valid-value ratio per window (evolving sensors)")
                .series("feature 0", json_floats(&out.json["feature0_valid_ratio"]))
                .series("feature 1", json_floats(&out.json["feature1_valid_ratio"]))
                .render(),
        )],
        "fig5" => vec![(
            "fig5.svg".into(),
            LinePlot::new("Test loss: filling vs discarding evolving features")
                .series("Filling (oracle)", json_floats(&out.json["oracle"]))
                .series("Filling (normal)", json_floats(&out.json["normal"]))
                .series("Discard", json_floats(&out.json["discard"]))
                .render(),
        )],
        "fig7" => {
            let markers: Vec<usize> = out.json["drift_windows"]
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(|v| v.as_u64())
                        .map(|v| v as usize)
                        .collect()
                })
                .unwrap_or_default();
            vec![(
                "fig7.svg".into(),
                LinePlot::new("Test loss around drift occurrences")
                    .series("Naive-DT", json_floats(&out.json["dt"]))
                    .series("Naive-NN", json_floats(&out.json["nn"]))
                    .markers(markers)
                    .render(),
            )]
        }
        "fig8" => {
            let flood = out.json["flood_window"].as_u64().unwrap_or(0) as usize;
            vec![(
                "fig8.svg".into(),
                LinePlot::new("Window anomaly ratios (flood marked)")
                    .series("ECOD", json_floats(&out.json["ecod"]))
                    .series("IForest", json_floats(&out.json["iforest"]))
                    .markers(vec![flood])
                    .render(),
            )]
        }
        "fig15" | "fig16" => {
            // One SVG per dataset, with one series per variant.
            let Some(curves) = out.json["curves"].as_array() else {
                return Vec::new();
            };
            let mut by_dataset: Vec<(String, LinePlot)> = Vec::new();
            for c in curves {
                let dataset = c["dataset"].as_str().unwrap_or("?").to_string();
                let label = format!(
                    "{} [{}]",
                    c["variant"].as_str().unwrap_or("?"),
                    c["algorithm"].as_str().unwrap_or("?")
                );
                let values = json_floats(&c["curve"]);
                match by_dataset.iter_mut().find(|(d, _)| *d == dataset) {
                    Some((_, plot)) => plot.series.push(oeb_core::Series { label, values }),
                    None => {
                        let title = format!("{} — {}", out.title, dataset);
                        by_dataset.push((dataset, LinePlot::new(title).series(label, values)));
                    }
                }
            }
            by_dataset
                .into_iter()
                .map(|(dataset, plot)| {
                    (
                        format!("{}_{}.svg", out.id, dataset.replace(' ', "_")),
                        plot.render(),
                    )
                })
                .collect()
        }
        _ => Vec::new(),
    }
}

/// Converts an [`oeb_trace::MetricsSnapshot`] into a JSON value for
/// embedding in benchmark artifacts: counters verbatim, spans as
/// `{count, total_seconds}`.
pub fn metrics_json(snap: &oeb_trace::MetricsSnapshot) -> serde_json::Value {
    let mut counters = serde_json::Map::new();
    for (name, v) in &snap.counters {
        counters.insert(name.clone(), (*v).into());
    }
    let mut spans = serde_json::Map::new();
    for (name, s) in &snap.spans {
        spans.insert(
            name.clone(),
            serde_json::json!({
                "count": s.count,
                "total_seconds": s.total_ns as f64 / 1e9,
            }),
        );
    }
    serde_json::json!({
        "counters": serde_json::Value::Object(counters),
        "spans": serde_json::Value::Object(spans),
    })
}

/// Number of alternating warm passes the benchmark bins run by default;
/// each reported figure is the minimum across passes.
pub const WARM_PASSES: usize = 5;

/// Wall-clock sample accumulator for one side of an alternating
/// warm-pass comparison.
///
/// For a fixed deterministic workload the minimum across passes is the
/// noise floor — scheduler hiccups and cold caches only ever inflate a
/// sample — so two timers fed from interleaved passes yield a ratio
/// that neither side's outliers can skew. Callers drive the alternation
/// loop themselves, which keeps per-pass hooks (trace enable/disable,
/// bit-identity asserts) outside the timed regions; [`warm_min_pair`]
/// wraps the common no-hook case.
#[derive(Debug, Default)]
pub struct WarmTimer {
    samples: Vec<f64>,
}

impl WarmTimer {
    /// An empty accumulator.
    pub fn new() -> WarmTimer {
        WarmTimer::default()
    }

    /// Times one pass of `f`, records the sample, and passes through the
    /// closure's result (so bit-identity checks can run on the output
    /// without re-entering the timed region).
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let watch = Stopwatch::start();
        let out = f();
        self.samples.push(watch.elapsed_seconds());
        out
    }

    /// Number of samples recorded so far.
    pub fn passes(&self) -> usize {
        self.samples.len()
    }

    /// The minimum recorded sample, in seconds.
    pub fn min_seconds(&self) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        *sorted.first().expect("min_seconds needs at least one pass")
    }
}

/// Times `a` and `b` over `passes` alternating warm passes (a, b, a, b,
/// …) and returns `(min_a_seconds, min_b_seconds)`.
pub fn warm_min_pair<F: FnMut(), G: FnMut()>(passes: usize, mut a: F, mut b: G) -> (f64, f64) {
    assert!(passes >= 1, "warm_min_pair needs at least one pass");
    let mut timer_a = WarmTimer::new();
    let mut timer_b = WarmTimer::new();
    for _ in 0..passes {
        timer_a.time(&mut a);
        timer_b.time(&mut b);
    }
    (timer_a.min_seconds(), timer_b.min_seconds())
}

/// Command-line options of the `repro` binary.
#[derive(Debug, Clone)]
pub struct ReproOptions {
    /// Experiment ids to run (`all` expands to every experiment).
    pub experiments: Vec<String>,
    /// Row-scale factor on the registry specs.
    pub scale: f64,
    /// Number of repeat seeds.
    pub n_seeds: usize,
    /// Output directory for artifacts.
    pub out_dir: String,
    /// Worker threads for parallel experiment grids; `None` falls back
    /// to `OEBENCH_THREADS` and then the machine's parallelism.
    pub threads: Option<usize>,
    /// Write a span trace (JSONL) to this path after the run.
    pub trace: Option<String>,
    /// Print the metrics table to stderr after the run.
    pub metrics: bool,
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions {
            experiments: vec!["all".into()],
            scale: 0.10,
            n_seeds: 3,
            out_dir: "results".into(),
            threads: None,
            trace: None,
            metrics: false,
        }
    }
}

/// Parses `repro` CLI arguments. Returns `Err(usage)` on bad input.
pub fn parse_args(args: &[String]) -> Result<ReproOptions, String> {
    let usage =
        "usage: repro [<exp-id>... | all] [--scale F] [--seeds N] [--out DIR] [--threads N]\n\
                 [--trace <out.jsonl>] [--metrics]\n\
                 experiment ids: table2 table3 fig2..fig19 table4/5/6/9/10/13";
    let mut opts = ReproOptions {
        experiments: Vec::new(),
        ..Default::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &f64| v > 0.0 && v <= 1.0)
                    .ok_or(format!("--scale needs a value in (0, 1]\n{usage}"))?;
            }
            "--seeds" => {
                i += 1;
                opts.n_seeds = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&v: &usize| v >= 1)
                    .ok_or(format!("--seeds needs a positive integer\n{usage}"))?;
            }
            "--out" => {
                i += 1;
                opts.out_dir = args
                    .get(i)
                    .cloned()
                    .ok_or(format!("--out needs a path\n{usage}"))?;
            }
            "--threads" => {
                i += 1;
                opts.threads = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&v: &usize| v >= 1)
                        .ok_or(format!("--threads needs a positive integer\n{usage}"))?,
                );
            }
            "--trace" => {
                i += 1;
                opts.trace = Some(
                    args.get(i)
                        .cloned()
                        .ok_or(format!("--trace needs an output path\n{usage}"))?,
                );
            }
            "--metrics" => opts.metrics = true,
            "--help" | "-h" => return Err(usage.to_string()),
            id => {
                if id != "all" && !ALL_EXPERIMENTS.contains(&id) {
                    return Err(format!("unknown experiment {id:?}\n{usage}"));
                }
                opts.experiments.push(id.to_string());
            }
        }
        i += 1;
    }
    if opts.experiments.is_empty() {
        return Err(usage.to_string());
    }
    Ok(opts)
}

/// Runs the selected experiments, writing artifacts and returning them.
///
/// When `--trace`/`--metrics` are set, tracing is enabled for the run;
/// the trace file is written (and the metrics table printed to stderr)
/// even if an experiment write fails partway through.
pub fn run_repro(opts: &ReproOptions) -> std::io::Result<Vec<ExperimentOutput>> {
    if opts.trace.is_some() || opts.metrics {
        oeb_trace::enable();
    }
    let result = run_repro_inner(opts);
    if let Some(path) = &opts.trace {
        if let Err(e) = oeb_trace::write_trace_file(Path::new(path)) {
            eprintln!("[repro] failed to write trace {path}: {e}");
            return result.and(Err(e));
        }
        eprintln!("[repro] trace written to {path}");
    }
    if opts.metrics {
        eprint!(
            "{}",
            oeb_trace::render_metrics_table(&oeb_trace::snapshot())
        );
    }
    result
}

fn run_repro_inner(opts: &ReproOptions) -> std::io::Result<Vec<ExperimentOutput>> {
    let ids: Vec<&str> = if opts.experiments.iter().any(|e| e == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        opts.experiments.iter().map(String::as_str).collect()
    };
    let ctx = ExpContext {
        scale: opts.scale,
        seeds: (0..opts.n_seeds as u64).collect(),
    };
    // Deep call sites (run_matrix's experiment grid) resolve their
    // worker count through this process-wide default.
    oeb_core::set_default_threads(opts.threads);
    fs::create_dir_all(&opts.out_dir)?;
    let mut stats_cache: Option<Vec<OeStats>> = None;
    let mut outputs = Vec::with_capacity(ids.len());
    for id in ids {
        eprintln!(
            "[repro] running {id} (scale {}, {} seeds)...",
            ctx.scale,
            ctx.seeds.len()
        );
        let watch = Stopwatch::start();
        let out = run_experiment(id, &ctx, &mut stats_cache)
            .expect("ids validated against ALL_EXPERIMENTS");
        let dir = Path::new(&opts.out_dir);
        fs::write(
            dir.join(format!("{id}.txt")),
            format!("# {}\n\n{}", out.title, out.text),
        )?;
        fs::write(
            dir.join(format!("{id}.json")),
            serde_json::to_string_pretty(&out.json).expect("json serialises"),
        )?;
        for (suffix, svg) in render_figures(&out) {
            fs::write(dir.join(suffix), svg)?;
        }
        eprintln!("[repro] {id} done in {:.1}s", watch.stop(&EXPERIMENT_SPAN));
        outputs.push(out);
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_experiments_and_flags() {
        let o = parse_args(&s(&["table4", "fig10", "--scale", "0.05", "--seeds", "2"])).unwrap();
        assert_eq!(o.experiments, vec!["table4", "fig10"]);
        assert_eq!(o.scale, 0.05);
        assert_eq!(o.n_seeds, 2);
    }

    #[test]
    fn parses_threads() {
        let o = parse_args(&s(&["table4", "--threads", "4"])).unwrap();
        assert_eq!(o.threads, Some(4));
        assert!(parse_args(&s(&["table4", "--threads", "0"])).is_err());
        assert!(parse_args(&s(&["table4", "--threads"])).is_err());
    }

    #[test]
    fn parses_trace_and_metrics() {
        let o = parse_args(&s(&["table4", "--trace", "/tmp/t.jsonl", "--metrics"])).unwrap();
        assert_eq!(o.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert!(o.metrics);
        assert!(parse_args(&s(&["table4", "--trace"])).is_err());
    }

    #[test]
    fn rejects_unknown_experiment() {
        assert!(parse_args(&s(&["table99"])).is_err());
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(parse_args(&s(&["table4", "--scale", "7"])).is_err());
        assert!(parse_args(&s(&["table4", "--scale"])).is_err());
    }

    #[test]
    fn requires_an_experiment() {
        assert!(parse_args(&s(&[])).is_err());
    }

    #[test]
    fn all_is_accepted() {
        let o = parse_args(&s(&["all"])).unwrap();
        assert_eq!(o.experiments, vec!["all"]);
    }

    #[test]
    fn warm_timer_tracks_minimum_and_passes_results_through() {
        let mut timer = WarmTimer::new();
        let mut acc = 0u64;
        for k in 0..4 {
            acc = timer.time(|| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                acc + k
            });
        }
        assert_eq!(timer.passes(), 4);
        assert_eq!(acc, 6);
        let min = timer.min_seconds();
        assert!(min >= 0.0005, "sleep floor missing: {min}");
        assert!(timer.samples.iter().all(|&s| s >= min));
    }

    #[test]
    fn warm_min_pair_alternates_sides() {
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b) = warm_min_pair(
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(*order.borrow(), vec!['a', 'b', 'a', 'b', 'a', 'b']);
        assert!(a >= 0.0 && b >= 0.0);
    }

    #[test]
    fn runs_a_cheap_experiment_end_to_end() {
        let dir = std::env::temp_dir().join("oeb_repro_test");
        let opts = ReproOptions {
            experiments: vec!["table2".into()],
            scale: 0.02,
            n_seeds: 1,
            out_dir: dir.to_string_lossy().into_owned(),
            threads: None,
            trace: None,
            metrics: false,
        };
        let outputs = run_repro(&opts).unwrap();
        assert_eq!(outputs.len(), 1);
        assert!(dir.join("table2.txt").exists());
        assert!(dir.join("table2.json").exists());
    }
}
