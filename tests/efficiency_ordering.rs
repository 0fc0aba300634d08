//! §6.3 / Tables 5 and 6: decision trees are much faster and much
//! smaller than NN-based methods; SEA multiplies the NN footprint by the
//! ensemble size; EWC adds a Fisher pass to the naive NN's training.
//!
//! This test has a binary of its own: it reads the process-global
//! `train.mlp.*` counters, which a concurrently running test would move.

use oebench::prelude::*;

/// Runs one learner with tracing on and returns its result with the
/// (GEMM batches, per-sample gradients) it trained through.
fn counted_run(dataset: &StreamDataset, algorithm: Algorithm) -> (RunResult, u64, u64) {
    let counter = |name: &str| {
        oeb_trace::snapshot()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    };
    let work = || {
        (
            counter("train.mlp.gemm_batches"),
            counter("train.mlp.sample_gradients"),
        )
    };
    let before = work();
    let result = try_run_stream(dataset, algorithm, &HarnessConfig::default()).unwrap();
    let after = work();
    (result, after.0 - before.0, after.1 - before.1)
}

#[test]
fn efficiency_ordering_matches_the_paper() {
    oeb_trace::enable();
    let reg = oebench::synth::registry_scaled(0.05);
    let entry = reg
        .iter()
        .find(|e| e.spec.name == "Electricity Prices")
        .unwrap();
    let dataset = oebench::synth::generate(&entry.spec, 0);

    let (dt, _, _) = counted_run(&dataset, Algorithm::NaiveDt);
    let (nn, nn_batches, nn_gradients) = counted_run(&dataset, Algorithm::NaiveNn);
    let (sea_nn, _, _) = counted_run(&dataset, Algorithm::SeaNn);
    let (ewc, ewc_batches, ewc_gradients) = counted_run(&dataset, Algorithm::Ewc);

    // Throughput: trees refit per window beat 10-epoch SGD.
    assert!(
        dt.throughput > nn.throughput,
        "DT {} <= NN {}",
        dt.throughput,
        nn.throughput
    );
    // Memory: DT < NN < EWC (3x) and NN < SEA-NN (~5x).
    assert!(dt.memory_bytes < nn.memory_bytes);
    assert!(nn.memory_bytes < ewc.memory_bytes);
    assert!(nn.memory_bytes * 3 < sea_nn.memory_bytes);
    // EWC costs more than the naive NN (the paper notes EWC/LwF
    // "doubling the computational cost"). Counted as work, not timed:
    // EWC trains through the same GEMM batches and adds its Fisher pass
    // of per-sample gradients on top.
    assert!(nn_batches > 0);
    assert_eq!(ewc_batches, nn_batches);
    assert!(
        ewc_gradients > nn_gradients,
        "EWC {ewc_gradients} <= NN {nn_gradients} per-sample gradients"
    );
}
