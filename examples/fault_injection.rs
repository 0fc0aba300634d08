//! Fault injection: wrap a stream in a seeded [`FaultInjector`] and run
//! it through the resilient harness — corrupted cells, NaN bursts,
//! dropped/duplicated/truncated windows, schema violations, and
//! all-missing columns, all reproducible from one seed.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use oebench::faults::{DatasetFrames, FaultInjector};
use oebench::prelude::*;

fn main() {
    let entry = oebench::synth::selected("ELECTRICITY").expect("registry dataset");
    let spec = entry.spec.scaled(0.1);
    let dataset = oebench::synth::generate(&spec, 0);

    // A clean baseline run, then the same stream under the chaos preset
    // (roughly one window in ten structurally damaged, a few percent of
    // cells and labels corrupted).
    let mut config = HarnessConfig {
        degrade: DegradePolicy::resilient(),
        ..Default::default()
    };
    let clean = try_run_stream(&dataset, Algorithm::NaiveDt, &config).expect("clean run completes");

    config.fault_plan = Some(FaultPlan::chaos(42));
    let faulty = try_run_stream(&dataset, Algorithm::NaiveDt, &config)
        .expect("resilient policy absorbs chaos-level faults");

    println!(
        "{} under Naive(DT):\n  clean:  mean error {:.3} over {} windows\n  chaos:  \
         mean error {:.3} over {} windows, {} degradations",
        dataset.name,
        clean.mean_loss,
        clean.per_window_loss.len(),
        faulty.mean_loss,
        faulty.per_window_loss.len(),
        faulty.degradations.len(),
    );
    for d in faulty.degradations.iter().take(5) {
        println!("    {d}");
    }

    // The injector can also be driven directly, frame by frame, with a
    // log of every fault it fired. Same seed, same faults — injection is
    // keyed on (seed, window), so resuming mid-stream reproduces them.
    let feature_cols = dataset.feature_cols();
    let frames = DatasetFrames::new(&dataset, &feature_cols, 1.0);
    let mut injector = FaultInjector::new(frames, FaultPlan::chaos(42));
    let mut emitted = 0;
    while let Some(frame) = oebench::faults::FrameSource::next_frame(&mut injector) {
        let nan_cells = frame
            .features
            .as_slice()
            .iter()
            .filter(|v| v.is_nan())
            .count();
        if emitted < 3 {
            println!(
                "frame {:>3}: {} rows x {} cols, {} NaN cells",
                frame.index,
                frame.rows(),
                frame.cols(),
                nan_cells
            );
        }
        emitted += 1;
    }
    let log = injector.into_log();
    println!("{emitted} frames emitted, {} faults injected:", log.len());
    for kind in FaultKind::all() {
        println!("  {:<18} {}", kind.name(), log.count(kind));
    }
}
