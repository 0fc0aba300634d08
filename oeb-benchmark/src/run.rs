//! One measured run of one workload: repeated set-up, timed passes with
//! tracing off, then the decomposed pass and (with `--trace 1`) the
//! traced pass, the correctness checks, and every metric.

use crate::measure::{self, median, pass_seed};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{self, Cell, Workload, THREADS};
use oeb_core::set_default_threads;
use oeb_tabular::StreamDataset;
use oeb_trace::Stopwatch;
use serde_json::{Map, Value};

/// Timed passes every full run makes at least, whatever `--seconds`
/// says: a median needs three, and for the five-dataset workloads two
/// passes after pass 0 evict its prepared streams from the keyed cache
/// (capacity 8) before the traced pass re-runs pass 0's config.
const MIN_PASSES: u64 = 3;

/// Set-up repeats: at least `MIN_SETUPS`, more while the repeats have
/// taken under `SETUP_BUDGET_S`, at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Timed-phase length; passes stop once the next would overrun it.
    pub seconds: f64,
    pub trace: bool,
    /// One pass at smoke size; golden digests are skipped.
    pub quick: bool,
}

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Samples the value summarises.
    pub n: usize,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub struct Record {
    pub workload: Workload,
    pub seed: u64,
    pub options_seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub passes: usize,
    pub host: Value,
    pub attempted: usize,
    pub failed: usize,
    pub checks: Vec<Check>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Collects metrics in report order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn one(&mut self, name: &str, unit: &str, value: f64) {
        self.over(name, unit, Some(value), 1);
    }

    fn median_of(&mut self, name: &str, unit: &str, samples: &[f64]) {
        self.over(name, unit, median(samples), samples.len());
    }

    /// A statistic over `n` samples; nothing when it could not be taken.
    fn over(&mut self, name: &str, unit: &str, value: Option<f64>, n: usize) {
        if let Some(value) = value {
            self.0.push(Metric {
                name: name.into(),
                unit: unit.into(),
                value,
                n,
            });
        }
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

/// Tallies cells into (attempted, failed).
fn tally(cells: &[Cell]) -> (usize, usize) {
    (
        cells.iter().filter(|c| c.attempted()).count(),
        cells.iter().filter(|c| c.failed()).count(),
    )
}

/// Set-up: generate the inputs and build the config, several times;
/// only one copy of the inputs is alive at a time. Returns the inputs
/// and each repeat's set-up and generate seconds.
fn set_up(opts: &Options) -> (Vec<StreamDataset>, Vec<f64>, Vec<f64>) {
    let w = opts.workload;
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut datasets = Vec::new();
    let clock = Stopwatch::start();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && clock.elapsed_seconds() < SETUP_BUDGET_S)
    {
        drop(std::mem::take(&mut datasets));
        let t = Stopwatch::start();
        datasets = workloads::generate(w, opts.seed, opts.quick);
        generate_s.push(t.elapsed_seconds());
        w.config(pass_seed(opts.seed, 0))
            .validate()
            .expect("benchmark configs are valid");
        setup_s.push(t.elapsed_seconds());
    }
    (datasets, setup_s, generate_s)
}

/// What the timed passes measured and produced.
#[derive(Default)]
struct Timed {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    user_ticks: u64,
    system_ticks: u64,
    /// `VmHWM` after pass 0 and after the last pass.
    peak_rss_mb: Option<f64>,
    vm_hwm_mb: Option<f64>,
    /// Per-call latencies (`stats-55`).
    latency_s: Vec<f64>,
    pass0: Vec<Cell>,
    attempted: usize,
    failed: usize,
    /// Cells of later stats passes that differ from pass 0.
    stats_drift: usize,
}

/// Timed passes, tracing off, until the next would overrun `--seconds`.
fn timed_passes(opts: &Options, datasets: &[StreamDataset]) -> Timed {
    let w = opts.workload;
    let mut t = Timed::default();
    let clock = Stopwatch::start();
    for pass in 0u64.. {
        let done = if opts.quick {
            pass >= 1
        } else {
            pass >= MIN_PASSES
                && clock.elapsed_seconds() + median(&t.wall_s).unwrap_or(0.0) > opts.seconds
        };
        if done {
            break;
        }
        let cfg = w.config(pass_seed(opts.seed, pass));
        let cpu_before = measure::process_cpu_ticks();
        let watch = Stopwatch::start();
        let (cells, latencies) = workloads::run_pass(w, datasets, &cfg);
        t.wall_s.push(watch.elapsed_seconds());
        if pass == 0 {
            // A cold process that generated the inputs and ran one pass:
            // what one CLI invocation holds. Later passes add streams the
            // prepare cache retains from earlier ones.
            t.peak_rss_mb = measure::vm_hwm_mb();
        }
        if let (Some(a), Some(b)) = (cpu_before, measure::process_cpu_ticks()) {
            t.cpu_s.push(a.seconds_until(b));
            t.user_ticks += b.user.saturating_sub(a.user);
            t.system_ticks += b.system.saturating_sub(a.system);
        }
        t.latency_s.extend(latencies);
        let (a, f) = tally(&cells);
        t.attempted += a;
        t.failed += f;
        if pass == 0 {
            t.pass0 = cells;
        } else if !w.is_sweep() {
            // Every stats pass computes the same thing.
            t.stats_drift += workloads::mismatches(&t.pass0, &cells);
        }
    }
    t.vm_hwm_mb = measure::vm_hwm_mb();
    t
}

pub fn run(opts: &Options) -> Record {
    let w = opts.workload;
    set_default_threads(Some(THREADS));
    let (datasets, setup_s, generate_s) = set_up(opts);
    let timed = timed_passes(opts, &datasets);
    let pass0 = &timed.pass0;
    let passes = timed.wall_s.len();
    let wall = median(&timed.wall_s).expect("at least one timed pass");
    let cpu = median(&timed.cpu_s);

    let mut checks = Vec::new();
    let (mut attempted, mut failed_cells) = (timed.attempted, timed.failed);
    let mut mismatched = 0;
    let digest = workloads::digest(pass0);
    if opts.seed == 0 && !opts.quick {
        let golden = w.golden();
        let ok = digest == golden;
        mismatched += usize::from(!ok);
        checks.push(Check {
            name: "pass-0 digest matches golden".into(),
            ok,
            detail: format!("{digest:#018x} (golden {golden:#018x})"),
        });
    } else {
        checks.push(Check {
            name: "pass-0 digest".into(),
            ok: true,
            detail: format!("{digest:#018x} (goldens exist for --seed 0 without --quick)"),
        });
    }
    if !w.is_sweep() {
        let drift = timed.stats_drift;
        mismatched += drift;
        checks.push(Check {
            name: "every stats pass equals pass 0".into(),
            ok: drift == 0,
            detail: format!("{drift} cells differ"),
        });
    }

    // Decomposed pass at pass 0's config, one thread, one call at a time.
    let cfg0 = w.config(pass_seed(opts.seed, 0));
    let dec = workloads::run_decomposed(w, &datasets, &cfg0);
    let (a, f) = tally(&dec.cells);
    attempted += a;
    failed_cells += f;
    let diff = workloads::mismatches(pass0, &dec.cells);
    mismatched += diff;
    checks.push(Check {
        name: "decomposed 1-thread pass equals run_sweep pass 0 bit for bit".into(),
        ok: diff == 0,
        detail: format!("{diff} of {} cells differ", pass0.len()),
    });

    // Traced pass at pass 0's config.
    let traced = opts
        .trace
        .then(|| workloads::run_traced(w, &datasets, &cfg0));
    if let Some(tr) = &traced {
        let (a, f) = tally(&tr.cells);
        attempted += a;
        failed_cells += f;
        let diff = workloads::mismatches(pass0, &tr.cells);
        mismatched += diff;
        checks.push(Check {
            name: "traced pass equals untraced pass 0 bit for bit".into(),
            ok: diff == 0,
            detail: format!("{diff} of {} cells differ", pass0.len()),
        });
    }
    checks.push(Check {
        name: "no cell failed, timed out or was quarantined".into(),
        ok: failed_cells == 0,
        detail: format!("{failed_cells} of {attempted} attempted"),
    });
    let failed = failed_cells + mismatched;

    // End-to-end metrics.
    let mut e2e = Metrics::default();
    e2e.median_of("setup_s", "s", &setup_s);
    e2e.median_of("wall_s", "s", &timed.wall_s);
    e2e.median_of("cpu_s", "s", &timed.cpu_s);
    e2e.over("peak_rss_mb", "MB", timed.peak_rss_mb, 1);
    if !w.is_sweep() {
        let latency_ms = ms(&timed.latency_s);
        e2e.median_of("latency_ms_p50", "ms", &latency_ms);
        e2e.over(
            "latency_ms_p95",
            "ms",
            measure::tail_percentile(&latency_ms, 95.0),
            latency_ms.len(),
        );
    }
    e2e.over(
        "error_ratio",
        "ratio",
        Some(ratio(failed as f64, attempted as f64)),
        attempted,
    );

    // Per-layer metrics: outside timings from the decomposed pass...
    let mut layer = Metrics::default();
    // A fold from +0.0: `Sum` of an empty f64 iterator is -0.0.
    let sum = |v: &[f64]| v.iter().fold(0.0, |acc, x| acc + x);
    let (prepare, evaluate, stats) = (sum(&dec.prepare_s), sum(&dec.evaluate_s), sum(&dec.stats_s));
    let serial = prepare + evaluate + stats;
    let longest = measure::max(&dec.task_s).unwrap_or(0.0);
    let threads = THREADS as f64;
    layer.median_of("synth.generate_s", "s", &generate_s);
    layer.one("executor.serial_work_s", "s", serial);
    layer.one("executor.unattributed_s", "s", wall * threads - serial);
    layer.one(
        "executor.efficiency",
        "ratio",
        ratio(serial, wall * threads),
    );
    layer.one(
        "executor.lb_ratio",
        "ratio",
        ratio(wall, longest.max(serial / threads)),
    );
    layer.over(
        "executor.cpu_wall_ratio",
        "ratio",
        cpu.map(|c| ratio(c, wall)),
        1,
    );
    // The high-water mark after every timed pass, prepare-cache
    // retention included; it varies with the number of passes.
    layer.over("memory.vm_hwm_mb", "MB", timed.vm_hwm_mb, 1);
    // Kernel share of the timed passes' CPU: thread spawns, page faults
    // and the TLB shootdowns that unmapping memory costs other threads.
    layer.over(
        "kernel.sys_share",
        "ratio",
        cpu.map(|_| {
            let (user, system) = (timed.user_ticks as f64, timed.system_ticks as f64);
            ratio(system, user + system)
        }),
        passes,
    );
    let task_ms = ms(&dec.task_s);
    layer.median_of("decomposed.task_ms_p50", "ms", &task_ms);
    layer.over(
        "decomposed.task_ms_max",
        "ms",
        measure::max(&task_ms),
        task_ms.len(),
    );
    layer.one("prepare.share", "ratio", ratio(prepare, serial));
    layer.one("evaluate.share", "ratio", ratio(evaluate, serial));
    layer.one("stats.share", "ratio", ratio(stats, serial));
    if w.is_sweep() {
        let (p, e) = (ms(&dec.prepare_s), ms(&dec.evaluate_s));
        layer.one("prepare.stream_s", "s", prepare);
        layer.median_of("prepare.stream_ms_p50", "ms", &p);
        layer.over("prepare.stream_ms_max", "ms", measure::max(&p), p.len());
        layer.one("evaluate.cell_s", "s", evaluate);
        layer.median_of("evaluate.cell_ms_p50", "ms", &e);
        layer.over("evaluate.cell_ms_max", "ms", measure::max(&e), e.len());
    } else {
        let s = ms(&dec.stats_s);
        let krows = datasets.iter().map(|d| d.n_rows()).sum::<usize>() as f64 / 1e3;
        layer.over("stats.dataset_ms_max", "ms", measure::max(&s), s.len());
        layer.one("stats.ms_per_krow", "ms/krow", ratio(stats * 1e3, krows));
    }

    // ...and the traced pass's in-program spans and counters.
    if let Some(tr) = &traced {
        traced_layers(&mut layer, tr, wall, w.is_sweep());
    }
    // Gated metrics first, in definition order; the rest after.
    layer.0.sort_by_key(|m| {
        PER_LAYER
            .iter()
            .position(|d| d.name == m.name)
            .unwrap_or(usize::MAX)
    });

    Record {
        workload: w,
        seed: opts.seed,
        options_seconds: opts.seconds,
        trace: opts.trace,
        quick: opts.quick,
        passes,
        host: measure::host(),
        attempted,
        failed,
        checks,
        end_to_end: e2e.0,
        per_layer: layer.0,
    }
}

/// Per-layer metrics from the traced pass's spans and counters.
fn traced_layers(layer: &mut Metrics, tr: &workloads::Traced, wall: f64, sweep: bool) {
    let snap = &tr.snapshot;
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let span_s = |name: &str| {
        snap.spans
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e9)
    };
    layer.one("trace.overhead_pct", "%", (tr.wall_s / wall - 1.0) * 100.0);
    layer.one("trace.events", "count", tr.events as f64);
    layer.one(
        "trace.events.dropped",
        "count",
        counter("trace.events.dropped"),
    );
    const STAGES: [&str; 5] = [
        "prepare.impute",
        "prepare.scale",
        "prepare.detect",
        "evaluate.train",
        "evaluate.test",
    ];
    let stage_total: f64 = STAGES.iter().map(|s| span_s(s)).sum();
    for stage in STAGES {
        layer.one(
            &format!("{stage}_share"),
            "ratio",
            ratio(span_s(stage), stage_total),
        );
    }
    if sweep {
        for stage in STAGES {
            layer.one(&format!("{stage}_s"), "s", span_s(stage));
        }
    }
    let (hit, miss) = (counter("prepare.cache.hit"), counter("prepare.cache.miss"));
    layer.one("prepare.cache.hit_ratio", "ratio", ratio(hit, hit + miss));
    let (pruned, scanned) = (
        counter("knn.candidates.pruned"),
        counter("knn.candidates.scanned"),
    );
    layer.one("knn.prune_ratio", "ratio", ratio(pruned, pruned + scanned));
    let (blocked, scalar) = (
        counter("gemm.dispatch.blocked"),
        counter("gemm.dispatch.scalar"),
    );
    layer.one(
        "gemm.blocked_ratio",
        "ratio",
        ratio(blocked, blocked + scalar),
    );
    for name in [
        "gemm.dispatch.blocked",
        "gemm.dispatch.scalar",
        "learner.items_tested",
        "train.mlp.gemm_batches",
        "train.arf.parallel_members",
        "train.hoeffding.split_checks",
        "prepare.rows",
    ] {
        layer.one(name, "count", counter(name));
    }
    // Windows slower than the histogram's last bound (50 ms), where
    // its percentiles read "inf".
    let over = snap
        .histograms
        .get("evaluate.window.latency_us")
        .and_then(|h| h.buckets.last())
        .map_or(0, |&(_, count)| count);
    layer.one("evaluate.window.latency_over_50ms", "count", over as f64);
}

fn metric_json(m: &Metric) -> Value {
    let mut o = Map::new();
    o.insert("value", m.value.into());
    o.insert("unit", m.unit.as_str().into());
    o.insert("n", m.n.into());
    Value::Object(o)
}

fn metrics_json(metrics: &[Metric]) -> Value {
    let mut o = Map::new();
    for m in metrics {
        o.insert(m.name.as_str(), metric_json(m));
    }
    Value::Object(o)
}

/// The full record, as stored in a results file.
pub fn record_json(r: &Record) -> Value {
    let mut o = Map::new();
    o.insert("workload", r.workload.name().into());
    o.insert("seed", r.seed.into());
    o.insert("seconds", r.options_seconds.into());
    o.insert("trace", r.trace.into());
    o.insert("quick", r.quick.into());
    o.insert("threads", THREADS.into());
    o.insert("passes", r.passes.into());
    o.insert("host", r.host.clone());
    o.insert("correct", r.correct().into());
    o.insert("attempted", r.attempted.into());
    o.insert("failed", r.failed.into());
    let checks: Vec<Value> = r
        .checks
        .iter()
        .map(|c| {
            let mut o = Map::new();
            o.insert("name", c.name.as_str().into());
            o.insert("ok", c.ok.into());
            o.insert("detail", c.detail.as_str().into());
            Value::Object(o)
        })
        .collect();
    o.insert("checks", Value::Array(checks));
    o.insert("end_to_end", metrics_json(&r.end_to_end));
    o.insert("per_layer", metrics_json(&r.per_layer));
    Value::Object(o)
}

/// The one-line result: with `--trace 0` every gated end-to-end metric,
/// with `--trace 1` every gated per-layer metric. A gated metric the run
/// could not measure makes the result incorrect.
pub fn result_line(r: &Record) -> String {
    let (defs, metrics): (Vec<(&str, &str)>, &[Metric]) = if r.trace {
        let defs = PER_LAYER.iter().map(|m| (m.name, m.unit));
        (defs.collect(), &r.per_layer)
    } else {
        let gated = END_TO_END.iter().filter(|m| m.gated);
        (gated.map(|m| (m.name, m.unit)).collect(), &r.end_to_end)
    };
    let mut out = Map::new();
    let mut missing = 0;
    for (name, unit) in defs {
        match metrics.iter().find(|m| m.name == name && m.unit == unit) {
            Some(m) => {
                let mut o = Map::new();
                o.insert("value", m.value.into());
                o.insert("unit", unit.into());
                out.insert(name, Value::Object(o));
            }
            None => missing += 1,
        }
    }
    let mut line = Map::new();
    line.insert("correct", (r.correct() && missing == 0).into());
    line.insert("attempted", r.attempted.max(1).into());
    line.insert("failed", (r.failed + missing).into());
    line.insert("metrics", Value::Object(out));
    serde_json::to_string(&Value::Object(line)).expect("JSON values serialise")
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let better = match crate::metrics::better(&m.name) {
            Some(b) => format!("{b} is better"),
            None => "not gated".to_string(),
        };
        println!(
            "  {:<36} {:>14.6} {:<8} n={:<5} {better}",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// Human-readable report of one run.
pub fn print(r: &Record) {
    println!(
        "== {} | seed {} | {} passes | {THREADS} threads | trace {} | {}",
        r.workload.name(),
        r.seed,
        r.passes,
        u8::from(r.trace),
        if r.quick { "quick" } else { "full" },
    );
    println!(
        "host {}",
        serde_json::to_string(&r.host).expect("serialises")
    );
    print_metrics("end-to-end (tracing off)", &r.end_to_end);
    print_metrics("per-layer", &r.per_layer);
    let get = |name: &str| r.per_layer.iter().find(|m| m.name == name).map(|m| m.value);
    let wall = r
        .end_to_end
        .iter()
        .find(|m| m.name == "wall_s")
        .map_or(0.0, |m| m.value);
    if r.workload.is_sweep() {
        let (prepare, evaluate, rest) = (
            get("prepare.stream_s").unwrap_or(0.0),
            get("evaluate.cell_s").unwrap_or(0.0),
            get("executor.unattributed_s").unwrap_or(0.0),
        );
        let total = wall * THREADS as f64;
        println!("reconciliation: wall_s x {THREADS} threads = {total:.4} s");
        for (name, secs) in [
            ("prepare (decomposed)", prepare),
            ("evaluate (decomposed)", evaluate),
            ("unattributed", rest),
        ] {
            println!(
                "  {name:<24} {secs:>10.4} s {:>7.1}%",
                100.0 * ratio(secs, total)
            );
        }
        println!(
            "  {:<24} {:>10.4} s  (set-up, outside wall_s)",
            "synth",
            get("synth.generate_s").unwrap_or(0.0)
        );
    }
    println!("checks");
    for c in &r.checks {
        println!(
            "  [{}] {}: {}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
}
