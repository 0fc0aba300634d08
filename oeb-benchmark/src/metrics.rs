//! Metric definitions: the end-to-end metrics with their regression
//! bounds, and the per-layer metrics every workload reports under
//! `--trace 1`. `BENCHMARK.json` at the repository root mirrors these
//! tables; a test keeps the two in step.

/// An end-to-end metric. All are lower-is-better and measured with
/// tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (0: any increase).
    pub bound: f64,
    /// Reported by every workload, so it is gated in `BENCHMARK.json`.
    /// The others apply to one workload (`latency_ms_*`) or are zero on
    /// a correct run (`error_ratio`); they are printed, recorded and
    /// compared, and failures reach the one-line result as `failed`.
    pub gated: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        gated: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        gated: true,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
        gated: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.20,
        gated: true,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        bound: 0.25,
        gated: false,
    },
    EndToEnd {
        name: "latency_ms_p95",
        unit: "ms",
        bound: 0.25,
        gated: false,
    },
    EndToEnd {
        name: "error_ratio",
        unit: "ratio",
        bound: 0.0,
        gated: false,
    },
];

/// A per-layer metric every workload reports under `--trace 1`: times
/// that are never zero, and shares, ratios and counts that are zero
/// where a workload does not touch the layer. Workload-specific layer
/// times (`prepare.stream_s`, `stats.dataset_ms_max`, ...) are printed
/// and recorded beside them.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

pub const PER_LAYER: [Layer; 29] = [
    layer("synth.generate_s", "s", "lower"),
    layer("executor.serial_work_s", "s", "lower"),
    layer("executor.unattributed_s", "s", "lower"),
    layer("executor.efficiency", "ratio", "higher"),
    layer("executor.lb_ratio", "ratio", "lower"),
    layer("executor.cpu_wall_ratio", "ratio", "higher"),
    layer("kernel.sys_share", "ratio", "lower"),
    layer("decomposed.task_ms_p50", "ms", "lower"),
    layer("decomposed.task_ms_max", "ms", "lower"),
    layer("prepare.share", "ratio", "lower"),
    layer("evaluate.share", "ratio", "lower"),
    layer("stats.share", "ratio", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.events", "count", "lower"),
    layer("trace.events.dropped", "count", "lower"),
    layer("prepare.impute_share", "ratio", "lower"),
    layer("prepare.scale_share", "ratio", "lower"),
    layer("prepare.detect_share", "ratio", "lower"),
    layer("evaluate.train_share", "ratio", "lower"),
    layer("evaluate.test_share", "ratio", "lower"),
    layer("prepare.cache.hit_ratio", "ratio", "higher"),
    layer("knn.prune_ratio", "ratio", "higher"),
    layer("gemm.blocked_ratio", "ratio", "higher"),
    layer("gemm.dispatch.blocked", "count", "higher"),
    layer("gemm.dispatch.scalar", "count", "lower"),
    layer("learner.items_tested", "count", "higher"),
    layer("train.mlp.gemm_batches", "count", "higher"),
    layer("train.arf.parallel_members", "count", "higher"),
    layer("train.hoeffding.split_checks", "count", "lower"),
];

/// "lower" or "higher" for a metric either table defines.
pub fn better(name: &str) -> Option<&'static str> {
    match END_TO_END.iter().any(|m| m.name == name) {
        true => Some("lower"),
        false => PER_LAYER.iter().find(|m| m.name == name).map(|m| m.better),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` is what the regression gate reads; it must list
    /// exactly the gated metrics with the units, directions and bounds
    /// defined here, and exactly the four workloads.
    #[test]
    fn benchmark_json_mirrors_the_definitions() {
        let spec = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| spec[key].as_array().expect("array").clone();

        let e2e = list("end_to_end");
        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
        assert_eq!(e2e.len(), gated.len());
        for (entry, def) in e2e.iter().zip(gated) {
            assert_eq!(entry["name"].as_str(), Some(def.name));
            assert_eq!(entry["unit"].as_str(), Some(def.unit));
            assert_eq!(entry["better"].as_str(), Some("lower"));
            assert_eq!(entry["bound"].as_f64(), Some(def.bound), "{}", def.name);
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry["name"].as_str(), Some(def.name));
            assert_eq!(entry["unit"].as_str(), Some(def.unit));
            assert_eq!(entry["better"].as_str(), Some(def.better));
        }

        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name").to_string())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
