//! Batched training kernels vs their per-sample references, emitted as
//! `BENCH_train.json`.
//!
//! Two learner hot paths, each timed against the retained historical
//! implementation while asserting exact equivalence:
//!
//! * **MLP window SGD** — [`oeb_nn::train_window`] drives the blocked
//!   GEMM batch path (`matmul_xwt_bias_into` forward, `matmul_noskip_into`
//!   backward, `matmul_at_b_accum_into` gradients);
//!   [`oeb_nn::train_window_reference`] drives the per-sample loop. Both
//!   start from the same initial model with identical shuffling, and the
//!   final parameters must agree **bit-for-bit**.
//! * **Hoeffding split evaluation** — the maintained-aggregate
//!   `best_splits` fast path vs the retained reference on a densely fed
//!   leaf; the `(gain, feature, threshold, runner-up)` tuples must agree
//!   bit-for-bit.
//!
//! Timing uses [`oeb_bench::warm_min_pair`]: alternating warm passes,
//! minimum per side. A final traced quick pass records the new `train.*`
//! counters; `--metrics FILE` renders them as a metrics table for the CI
//! counter-vocabulary gate (`trace_check --counters`).
//!
//! Usage: `bench_train [--quick] [--out FILE] [--metrics FILE]`

use oeb_bench::warm_min_pair;
use oeb_linalg::Matrix;
use oeb_nn::{train_window, train_window_reference, Mlp, Objective, Regularizer, SgdConfig};
use oeb_tree::{HoeffdingConfig, HoeffdingTree};

struct Options {
    quick: bool,
    out: String,
    metrics: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let usage = "usage: bench_train [--quick] [--out FILE] [--metrics FILE]";
    let mut opts = Options {
        quick: false,
        out: "BENCH_train.json".into(),
        metrics: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--out" => {
                i += 1;
                opts.out = args.get(i).ok_or(usage)?.clone();
            }
            "--metrics" => {
                i += 1;
                opts.metrics = Some(args.get(i).ok_or(usage)?.clone());
            }
            _ => return Err(usage.into()),
        }
        i += 1;
    }
    Ok(opts)
}

/// Deterministic xorshift stream for synthetic windows.
fn lcg(seed: &mut u64) -> f64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

fn synth_window(rows: usize, cols: usize, n_classes: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut s = seed;
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| lcg(&mut s) * 3.0).collect())
        .collect();
    let ys: Vec<f64> = data
        .iter()
        .map(|r| {
            let t: f64 = r.iter().sum();
            ((t.abs() * 7.0) as usize % n_classes) as f64
        })
        .collect();
    (Matrix::from_rows(&data), ys)
}

/// MLP window training: GEMM batch path vs per-sample reference,
/// bit-identical final parameters.
fn bench_mlp(quick: bool, passes: usize) -> serde_json::Value {
    let (rows, input, hidden, n_classes, epochs): (usize, usize, Vec<usize>, usize, usize) =
        if quick {
            (512, 16, vec![32, 16], 4, 2)
        } else {
            (2048, 24, vec![64, 32], 5, 5)
        };
    let (xs, ys) = synth_window(rows, input, n_classes, 0x0eb_171);
    let cfg = SgdConfig {
        epochs,
        batch_size: 64,
        lr: 0.01,
        seed: 7,
    };
    let base = Mlp::new(input, &hidden, n_classes, Objective::CrossEntropy, 42);
    let mut batched_params = Vec::new();
    let mut reference_params = Vec::new();
    let (batched_seconds, reference_seconds) = warm_min_pair(
        passes,
        || {
            let mut m = base.clone();
            train_window(&mut m, &xs, &ys, &cfg, &Regularizer::None);
            batched_params = m.get_params();
        },
        || {
            let mut m = base.clone();
            train_window_reference(&mut m, &xs, &ys, &cfg, &Regularizer::None);
            reference_params = m.get_params();
        },
    );
    assert_eq!(batched_params.len(), reference_params.len());
    for (i, (a, b)) in batched_params.iter().zip(&reference_params).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "MLP param {i} diverged: {a} vs {b}"
        );
    }
    let speedup = reference_seconds / batched_seconds.max(1e-12);
    eprintln!(
        "[bench_train] mlp ({rows}x{input} -> {hidden:?} -> {n_classes}, {epochs} epochs): \
         reference {reference_seconds:.4}s, batched {batched_seconds:.4}s ({speedup:.2}x)"
    );
    serde_json::json!({
        "rows": rows as u64,
        "input": input as u64,
        "hidden": hidden.iter().map(|&h| h as u64).collect::<Vec<_>>(),
        "n_classes": n_classes as u64,
        "epochs": epochs as u64,
        "reference_seconds": reference_seconds,
        "batched_seconds": batched_seconds,
        "speedup": speedup,
        "params_bit_identical": true,
    })
}

/// Hoeffding split evaluation on a densely fed leaf: maintained
/// aggregates vs the allocating reference.
fn bench_hoeffding(quick: bool, passes: usize) -> serde_json::Value {
    let (samples, evals) = if quick { (4_000, 200) } else { (20_000, 2_000) };
    let (n_features, n_classes) = (8, 4);
    let cfg = HoeffdingConfig {
        grace_period: usize::MAX, // keep the root a leaf while feeding it
        ..Default::default()
    };
    let mut seed = 0x0eb_40ef;
    let mut grown = HoeffdingTree::new(n_features, n_classes, cfg);
    for _ in 0..samples {
        let x: Vec<f64> = (0..n_features).map(|_| lcg(&mut seed) * 10.0).collect();
        let y = (x[0].abs() * 3.0) as usize % n_classes;
        grown.learn_one(&x, y);
    }
    let mut fast_tree = grown.clone();
    let mut ref_tree = grown;
    let mut fast = None;
    let mut reference = None;
    let (fast_seconds, reference_seconds) = warm_min_pair(
        passes,
        || {
            for _ in 0..evals {
                fast = fast_tree.root_split_eval(false);
            }
        },
        || {
            for _ in 0..evals {
                reference = ref_tree.root_split_eval(true);
            }
        },
    );
    let fast = fast.expect("root stayed a leaf");
    let reference = reference.expect("root stayed a leaf");
    assert_eq!(fast.0.to_bits(), reference.0.to_bits(), "best gain");
    assert_eq!(fast.1, reference.1, "split feature");
    assert_eq!(fast.2.to_bits(), reference.2.to_bits(), "threshold");
    assert_eq!(fast.3.to_bits(), reference.3.to_bits(), "runner-up gain");
    let speedup = reference_seconds / fast_seconds.max(1e-12);
    eprintln!(
        "[bench_train] hoeffding ({samples} samples, {evals} split evals): \
         reference {reference_seconds:.4}s, fast {fast_seconds:.4}s ({speedup:.2}x)"
    );
    serde_json::json!({
        "leaf_samples": samples as u64,
        "split_evals": evals as u64,
        "n_features": n_features as u64,
        "n_classes": n_classes as u64,
        "reference_seconds": reference_seconds,
        "fast_seconds": fast_seconds,
        "speedup": speedup,
        "split_bit_identical": true,
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
    let passes = if opts.quick {
        3
    } else {
        oeb_bench::WARM_PASSES
    };

    let mlp = bench_mlp(opts.quick, passes);
    let hoeffding = bench_hoeffding(opts.quick, passes);

    // One traced pass through each batched path so the artifact (and the
    // CI counter gate) record the train.* counters the kernels emit.
    oeb_trace::reset();
    oeb_trace::enable();
    {
        let (xs, ys) = synth_window(256, 8, 3, 0x0eb_77a);
        let mut m = Mlp::new(8, &[16], 3, Objective::CrossEntropy, 9);
        train_window(
            &mut m,
            &xs,
            &ys,
            &SgdConfig {
                epochs: 1,
                ..Default::default()
            },
            &Regularizer::None,
        );
        let mut tree = HoeffdingTree::new(
            4,
            2,
            HoeffdingConfig {
                grace_period: 50,
                ..Default::default()
            },
        );
        let (hxs, hys) = synth_window(500, 4, 2, 0x0eb_77c);
        tree.learn_window(&hxs, &hys);
    }
    oeb_trace::disable();
    let snap = oeb_trace::snapshot();
    for counter in ["train.mlp.gemm_batches", "train.hoeffding.split_checks"] {
        assert!(
            snap.counters.get(counter).copied().unwrap_or(0) > 0,
            "traced pass never hit {counter}"
        );
    }
    if let Some(path) = &opts.metrics {
        std::fs::write(path, oeb_trace::render_metrics_table(&snap)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }
    let metrics = oeb_bench::metrics_json(&snap);

    let json = serde_json::json!({
        "benchmark": "batched training kernels vs per-sample references",
        "quick": opts.quick,
        "passes": passes as u64,
        "equivalence": {
            "mlp": "final parameters bit-identical (GEMM batch vs per-sample)",
            "hoeffding": "split tuples bit-identical (maintained aggregates vs rescan)",
        },
        "mlp": mlp,
        "hoeffding": hoeffding,
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
    eprintln!("[bench_train] -> {}", opts.out);
}
