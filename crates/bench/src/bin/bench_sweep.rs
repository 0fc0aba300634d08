//! Wall-clock comparison of the staged sweep pipeline against the
//! unshared baseline, emitted as `BENCH_sweep.json`.
//!
//! Both sides evaluate the identical (dataset x algorithm x seed) grid
//! over the five representative datasets:
//!
//! * **baseline** — the pre-refactor per-run cost model: every cell
//!   regenerates its dataset and prepares its own stream (each learner
//!   re-ran generation, imputation, and scaling) and runs sequentially;
//! * **staged** — cells share generated datasets and
//!   [`PreparedStream`](oeb_core::PreparedStream) artifacts through the
//!   synth and prepare caches and fan out across the worker pool.
//!
//! The learner configuration is deliberately light (one epoch, small
//! network, single-member ensembles) so the comparison measures the
//! pipeline stages being shared, not network training throughput;
//! preprocessing runs the paper's full pipeline (KNN imputation + ECOD
//! outlier removal) at a dense window factor on both sides.
//!
//! Usage: `bench_sweep [--scale F] [--seeds N] [--threads N] [--out FILE]
//! [--reference-staged-seconds F]`
//!
//! `--reference-staged-seconds` takes the warm staged time (minimum
//! over repeated in-process passes) measured by a pre-instrumentation
//! build of this binary (same machine, same args) and records the
//! disabled-path overhead — instrumentation compiled in but switched
//! off versus not compiled in at all — next to the enabled-path ratio
//! the binary measures on its own. Warm minima are compared because
//! cold single passes jitter by several percent on shared machines.

use oeb_core::{
    evaluate_prepared, prepare_stream, resolve_threads, run_chaos_matrix, run_sweep, Algorithm,
    ChaosOptions, HarnessConfig, OutlierRemoval, RunResult,
};
use oeb_synth::StreamSpec;
use oeb_trace::Stopwatch;

struct Options {
    scale: f64,
    n_seeds: usize,
    threads: Option<usize>,
    out: String,
    reference_staged_seconds: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let usage = "usage: bench_sweep [--scale F] [--seeds N] [--threads N] [--out FILE] \
                 [--reference-staged-seconds F]";
    let mut opts = Options {
        scale: 0.10,
        n_seeds: 3,
        threads: None,
        out: "BENCH_sweep.json".into(),
        reference_staged_seconds: None,
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
            "--threads" => {
                i += 1;
                opts.threads = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&v: &usize| v >= 1)
                        .ok_or(format!("--threads needs a positive integer\n{usage}"))?,
                );
            }
            "--out" => {
                i += 1;
                opts.out = args
                    .get(i)
                    .cloned()
                    .ok_or(format!("--out needs a path\n{usage}"))?;
            }
            "--reference-staged-seconds" => {
                i += 1;
                opts.reference_staged_seconds = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .filter(|&v: &f64| v > 0.0)
                        .ok_or(format!(
                            "--reference-staged-seconds needs a positive number\n{usage}"
                        ))?,
                );
            }
            _ => return Err(usage.to_string()),
        }
        i += 1;
    }
    Ok(opts)
}

/// The paper's full preprocessing pipeline (KNN imputation — the
/// [`HarnessConfig`] default — plus ECOD outlier removal) with a light
/// learner. Both sides of the comparison use this identical
/// configuration.
fn bench_config(seed: u64) -> HarnessConfig {
    let mut cfg = HarnessConfig {
        seed,
        outlier_removal: OutlierRemoval::Ecod,
        window_factor: 0.25,
        ..Default::default()
    };
    cfg.learner.epochs = 1;
    cfg.learner.hidden = vec![8];
    cfg.learner.ensemble_size = 1;
    cfg.learner.buffer_size = 20;
    cfg
}

/// The pre-refactor cost model: every cell regenerates its dataset and
/// runs one full prepare of its own — no sharing, sequential. This is
/// what `run_seeds`/`run_matrix` did before the synth and prepare
/// caches: each (dataset, algorithm, seed) run called
/// `oeb_synth::generate` and re-ran the whole preprocessing pipeline.
fn run_baseline(
    specs: &[StreamSpec],
    algorithms: &[Algorithm],
    seeds: &[u64],
) -> (Vec<RunResult>, f64, f64, f64) {
    let mut results = Vec::new();
    let (mut generate_seconds, mut prepare_seconds, mut evaluate_seconds) = (0.0, 0.0, 0.0);
    for &seed in seeds {
        let cfg = bench_config(seed);
        for spec in specs {
            for &alg in algorithms {
                let t = Stopwatch::start();
                let dataset = oeb_synth::generate(spec, 0);
                generate_seconds += t.elapsed_seconds();
                let t = Stopwatch::start();
                let prepared = prepare_stream(&dataset, &cfg);
                prepare_seconds += t.elapsed_seconds();
                if let Ok(prepared) = prepared {
                    let t = Stopwatch::start();
                    let run = evaluate_prepared(&prepared, alg, &cfg);
                    evaluate_seconds += t.elapsed_seconds();
                    if let Ok(r) = run {
                        results.push(r);
                    }
                }
            }
        }
    }
    (results, generate_seconds, prepare_seconds, evaluate_seconds)
}

/// The staged pipeline: each dataset generated once, shared prepare
/// artifacts, parallel executor.
fn run_staged(
    specs: &[StreamSpec],
    algorithms: &[Algorithm],
    seeds: &[u64],
    threads: usize,
) -> Vec<RunResult> {
    let datasets: Vec<_> = specs
        .iter()
        .map(|spec| oeb_synth::generate(spec, 0))
        .collect();
    let mut results = Vec::new();
    for &seed in seeds {
        let cfg = bench_config(seed);
        let report = run_sweep(&datasets, algorithms, &cfg, None, None, threads)
            .expect("default config is valid");
        results.extend(report.completed().map(|(_, r)| r.clone()));
    }
    results
}

/// Result equality up to wall-clock fields (`train_seconds`,
/// `test_seconds`, `throughput`): the loss curves, item counts, and
/// degradation logs must match bit for bit.
fn same_modulo_timing(a: &[RunResult], b: &[RunResult]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dataset == y.dataset
                && x.algorithm == y.algorithm
                && bits(&x.per_window_loss) == bits(&y.per_window_loss)
                && x.mean_loss.to_bits() == y.mean_loss.to_bits()
                && x.items == y.items
                && x.degradations == y.degradations
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let threads = resolve_threads(opts.threads);
    let seeds: Vec<u64> = (0..opts.n_seeds as u64).collect();
    let algorithms = Algorithm::all().to_vec();
    let specs: Vec<StreamSpec> = oeb_synth::selected_five()
        .into_iter()
        .map(|e| e.spec.scaled(opts.scale))
        .collect();
    eprintln!(
        "[bench_sweep] {} datasets x {} algorithms x {} seeds, {} threads",
        specs.len(),
        algorithms.len(),
        seeds.len(),
        threads
    );

    // Staged side first, so its caches start cold and it pays the
    // first-generate/first-prepare costs itself; the baseline bypasses
    // the caches entirely.
    let started = Stopwatch::start();
    let staged = run_staged(&specs, &algorithms, &seeds, threads);
    let staged_seconds = started.elapsed_seconds();

    let started = Stopwatch::start();
    let (baseline, generate_seconds, prepare_seconds, evaluate_seconds) =
        run_baseline(&specs, &algorithms, &seeds);
    let baseline_seconds = started.elapsed_seconds();

    // Tracing overhead: alternating warm-cache staged passes with the
    // instrumentation disabled and enabled, timed by the shared
    // min-of-N helper (the minimum is the noise floor, so scheduler
    // hiccups inflate neither side). The alternation loop stays here so
    // the trace enable/disable toggles and the bit-identity assert run
    // outside the timed regions; the last traced pass supplies the
    // metrics block.
    let mut untraced_timer = oeb_bench::WarmTimer::new();
    let mut traced_timer = oeb_bench::WarmTimer::new();
    for _ in 0..oeb_bench::WARM_PASSES {
        let warm_untraced =
            untraced_timer.time(|| run_staged(&specs, &algorithms, &seeds, threads));
        oeb_trace::reset();
        oeb_trace::enable();
        let warm_traced = traced_timer.time(|| run_staged(&specs, &algorithms, &seeds, threads));
        oeb_trace::disable();
        assert!(
            same_modulo_timing(&warm_untraced, &warm_traced),
            "results must be bit-identical with tracing on and off"
        );
    }
    let untraced_seconds = untraced_timer.min_seconds();
    let traced_seconds = traced_timer.min_seconds();
    let enabled_overhead_pct = (traced_seconds / untraced_seconds.max(1e-9) - 1.0) * 100.0;
    let metrics = oeb_bench::metrics_json(&oeb_trace::snapshot());

    assert_eq!(
        staged.len(),
        baseline.len(),
        "staged and baseline grids must complete the same cells"
    );
    let speedup = baseline_seconds / staged_seconds.max(1e-9);

    // Per-stage time shares from the traced pass's span totals.
    let snap = oeb_trace::snapshot();
    const STAGES: [&str; 5] = [
        "prepare.impute",
        "prepare.scale",
        "prepare.detect",
        "evaluate.train",
        "evaluate.test",
    ];
    let stage_total: u64 = STAGES
        .iter()
        .filter_map(|s| snap.spans.get(*s).map(|v| v.total_ns))
        .sum();
    let mut stage_shares = serde_json::Map::new();
    for stage in STAGES {
        let ns = snap.spans.get(stage).map_or(0, |v| v.total_ns);
        stage_shares.insert(stage, (ns as f64 / stage_total.max(1) as f64).into());
    }

    // The disabled path — instrumentation compiled in but switched off
    // — is the warm untraced minimum above (tracing defaults to off);
    // the reference is the same warm minimum timed by a
    // pre-instrumentation build.
    let mut tracing = serde_json::Map::new();
    tracing.insert("warm_disabled_seconds", untraced_seconds.into());
    tracing.insert("warm_enabled_seconds", traced_seconds.into());
    tracing.insert("enabled_overhead_pct", enabled_overhead_pct.into());
    tracing.insert("results_bit_identical", serde_json::Value::Bool(true));
    let disabled_overhead_pct = opts.reference_staged_seconds.map(|reference| {
        let pct = (untraced_seconds / reference - 1.0) * 100.0;
        tracing.insert("pre_instrumentation_warm_staged_seconds", reference.into());
        tracing.insert("disabled_overhead_pct", pct.into());
        pct
    });

    // Supervision soak: the first scenarios of the chaos fault × drift
    // matrix plus its control runs, exercising seeded retry, forced
    // quarantine, and deterministic logical deadlines. The accounting
    // lands in the artifact so a supervision regression (a dropped
    // cell, a missed quarantine, a nondeterministic deadline) shows up
    // as a BENCH_sweep.json diff — and the run aborts outright if any
    // invariant is violated.
    let started = Stopwatch::start();
    let chaos = run_chaos_matrix(&ChaosOptions {
        seed: 0,
        max_cells: Some(8),
        threads,
        max_retries: 2,
        rows: 360,
    })
    .expect("chaos options are valid");
    let chaos_seconds = started.elapsed_seconds();
    assert!(
        chaos.passed(),
        "chaos invariants violated: {:?}",
        chaos.violations
    );
    let supervision = serde_json::json!({
        "soak_cells": chaos.cells.len() as u64,
        "soak_seconds": chaos_seconds,
        "retries": chaos.summary.retries as u64,
        "recovered": chaos.summary.recovered as u64,
        "timeouts": chaos.summary.timeouts as u64,
        "wall_timeouts": chaos.summary.wall_timeouts as u64,
        "quarantined": chaos.summary.quarantined as u64,
        "violations": chaos.violations.len() as u64,
    });

    let json = serde_json::json!({
        "benchmark": "five-dataset sweep, staged pipeline vs per-cell sequential baseline",
        "scale": opts.scale,
        "seeds": seeds.len() as u64,
        "threads": threads as u64,
        "algorithms": algorithms.len() as u64,
        "datasets": specs.len() as u64,
        "cells_completed": staged.len() as u64,
        "baseline_seconds": baseline_seconds,
        "baseline_generate_seconds": generate_seconds,
        "baseline_prepare_seconds": prepare_seconds,
        "baseline_evaluate_seconds": evaluate_seconds,
        "staged_seconds": staged_seconds,
        "speedup": speedup,
        "tracing": serde_json::Value::Object(tracing),
        "stage_shares": serde_json::Value::Object(stage_shares),
        "supervision": supervision,
        "metrics": metrics,
    });
    std::fs::write(
        &opts.out,
        serde_json::to_string_pretty(&json).expect("json serialises"),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    let disabled_note = disabled_overhead_pct
        .map(|pct| format!(", disabled-path {pct:+.2}% vs pre-instrumentation"))
        .unwrap_or_default();
    eprintln!(
        "[bench_sweep] baseline {baseline_seconds:.2}s, staged {staged_seconds:.2}s \
         ({speedup:.2}x), tracing enabled overhead {enabled_overhead_pct:+.2}%{disabled_note} \
         -> {}",
        opts.out
    );
}
