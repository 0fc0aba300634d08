//! Behavioural tests for the observability layer. All instruments share
//! process-global state, so everything runs inside one `#[test]` body with
//! explicit `reset()` fences between scenarios.

use std::sync::Arc;

use oeb_trace::{
    current_cell_ctx, drain_events, enable, enabled, flush_thread, metrics_to_json,
    render_metrics_table, render_trace_event, render_trace_footer, reset, set_thread_slot,
    snapshot, CellCtx, Counter, Gauge, Histogram, SpanDef, Stopwatch, TraceEvent,
};

static HITS: Counter = Counter::new("t.cache.hit");
static DEPTH: Gauge = Gauge::new("t.queue.depth");
static SIZES: Histogram = Histogram::new("t.sizes", &[10, 100, 1000]);
static PHASE: SpanDef = SpanDef::new("t.phase");
static WORKER: SpanDef = SpanDef::new("t.worker");
static EXEC_CLAIMS: Counter = Counter::new("executor.t.claims");

#[test]
fn end_to_end() {
    disabled_path_records_nothing();
    counters_gauges_histograms();
    histogram_quantiles_are_bucket_bounds();
    spans_merge_in_slot_order();
    cell_ctx_attaches_to_events();
    stopwatch_measures_with_tracing_off_and_on();
    span_totals_accumulate_nanoseconds();
    trace_lines_follow_schema_v3();
    json_and_table_are_stable();
    deterministic_counter_filter();
}

fn disabled_path_records_nothing() {
    assert!(!enabled(), "recording must start disabled");
    HITS.incr();
    DEPTH.set(7);
    SIZES.record(5);
    {
        let _g = PHASE.start();
    }
    {
        let _ctx = CellCtx {
            dataset: "d".into(),
            learner: "l".into(),
            seed: 0,
            rows: 1,
            config: 0,
        }
        .install();
        assert!(
            current_cell_ctx().is_none(),
            "disabled install must be inert"
        );
    }
    let snap = snapshot();
    // The dropped-events counter is always surfaced; nothing else records.
    assert_eq!(
        snap.counters,
        [("trace.events.dropped".to_string(), 0u64)].into()
    );
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.spans.is_empty());
    assert!(drain_events().is_empty());
}

fn counters_gauges_histograms() {
    enable();
    reset();
    HITS.add(3);
    HITS.incr();
    DEPTH.set(9);
    DEPTH.set(4);
    SIZES.record(5);
    SIZES.record(50);
    SIZES.record(5000);
    let snap = snapshot();
    assert_eq!(snap.counters["t.cache.hit"], 4);
    let g = snap.gauges["t.queue.depth"];
    assert_eq!((g.last, g.max), (4, 9));
    let h = &snap.histograms["t.sizes"];
    assert_eq!(h.count, 3);
    assert_eq!(h.sum, 5055);
    assert_eq!(h.buckets, vec![(10, 1), (100, 1), (1000, 0), (u64::MAX, 1)]);
    reset();
    assert_eq!(snapshot().counters["t.cache.hit"], 0);
}

/// Spawn workers with explicit slots; whatever order their buffers flush,
/// the drained stream is ordered by slot and ids are assignable monotone.
fn spans_merge_in_slot_order() {
    enable();
    reset();
    std::thread::scope(|scope| {
        for w in 0..4u32 {
            scope.spawn(move || {
                set_thread_slot(w + 1);
                for _ in 0..3 {
                    let _g = WORKER.start();
                }
                // Scoped workers flush before returning: the scope can
                // release the parent before this thread's TLS backstop.
                flush_thread();
            });
        }
    });
    {
        let _g = PHASE.start();
    }
    let events = drain_events();
    assert_eq!(events.len(), 13);
    let slots: Vec<u32> = events.iter().map(|e| e.slot).collect();
    let mut sorted = slots.clone();
    sorted.sort_unstable();
    assert_eq!(slots, sorted, "events must come out slot-ordered");
    for pair in events.windows(2) {
        if pair[0].slot == pair[1].slot {
            assert!(pair[0].seq < pair[1].seq, "per-slot order must be stable");
        }
    }
    let snap = snapshot();
    assert_eq!(snap.spans["t.worker"].count, 12);
    assert_eq!(snap.spans["t.phase"].count, 1);
    assert!(drain_events().is_empty(), "drain consumes");
}

/// p50/p95/p99 come deterministically from the cumulative bucket counts:
/// each quantile reports the inclusive upper bound of the bucket that
/// reaches the rank.
fn histogram_quantiles_are_bucket_bounds() {
    enable();
    reset();
    // 10 samples: 6 in the ≤10 bucket, 3 in ≤100, 1 in overflow.
    for _ in 0..6 {
        SIZES.record(4);
    }
    for _ in 0..3 {
        SIZES.record(60);
    }
    SIZES.record(9999);
    let h = snapshot().histograms["t.sizes"].clone();
    assert_eq!(h.p50(), 10, "rank 5 of 10 lands in the first bucket");
    assert_eq!(h.p95(), u64::MAX, "rank 10 of 10 lands in overflow");
    assert_eq!(h.quantile(0.90), 100, "rank 9 of 10 lands in the second");
    assert_eq!(h.p99(), u64::MAX);
    let empty = oeb_trace::HistogramSnapshot {
        count: 0,
        sum: 0,
        buckets: vec![(10, 0), (u64::MAX, 0)],
    };
    assert_eq!(empty.p50(), 0, "empty histogram quantiles are 0");
}

/// Spans recorded under an installed `CellCtx` carry it into the drained
/// stream; installs nest and restore; uncontextualised spans carry none.
fn cell_ctx_attaches_to_events() {
    enable();
    reset();
    let outer = CellCtx {
        dataset: "Electricity Prices".into(),
        learner: "arf".into(),
        seed: 42,
        rows: 1000,
        config: 1,
    };
    let inner = CellCtx {
        dataset: "Tetouan".into(),
        learner: "mlp".into(),
        seed: 7,
        rows: 500,
        config: 2,
    };
    {
        let _outer = outer.clone().install();
        {
            let _g = PHASE.start();
        }
        {
            let _inner = inner.clone().install();
            let _g = WORKER.start();
        }
        assert_eq!(
            current_cell_ctx().as_deref(),
            Some(&outer),
            "inner install must restore the outer context on drop"
        );
    }
    assert!(current_cell_ctx().is_none());
    {
        let _g = PHASE.start();
    }
    let events = drain_events();
    assert_eq!(events.len(), 3);
    let by_name = |n: &str| {
        events
            .iter()
            .filter(|e| e.name == n)
            .collect::<Vec<&TraceEvent>>()
    };
    let phases = by_name("t.phase");
    assert_eq!(phases[0].ctx.as_deref(), Some(&outer));
    assert_eq!(phases[1].ctx, None, "context must not leak past its guard");
    assert_eq!(by_name("t.worker")[0].ctx.as_deref(), Some(&inner));
}

fn stopwatch_measures_with_tracing_off_and_on() {
    oeb_trace::disable();
    reset();
    let sw = Stopwatch::start();
    let secs = sw.stop(&PHASE);
    assert!(secs >= 0.0, "stopwatch must measure even when disabled");
    assert!(drain_events().is_empty());
    enable();
    let sw = Stopwatch::start();
    let secs = sw.stop(&PHASE);
    assert!(secs >= 0.0);
    let events = drain_events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].name, "t.phase");
}

/// Span aggregates accumulate exact nanoseconds; the microsecond view is
/// derived once, so summed children can never exceed a parent by rounding.
fn span_totals_accumulate_nanoseconds() {
    enable();
    reset();
    for _ in 0..50 {
        let _g = PHASE.start();
    }
    let snap = snapshot();
    let s = snap.spans["t.phase"];
    assert_eq!(s.count, 50);
    assert_eq!(s.total_us(), s.total_ns / 1_000);
    let events = drain_events();
    let summed_ns: u64 = events.iter().map(|e| e.dur_ns).sum();
    assert_eq!(
        summed_ns, s.total_ns,
        "event nanoseconds must sum exactly to the span aggregate"
    );
    for e in &events {
        assert_eq!(e.dur_us(), e.dur_ns / 1_000);
        assert_eq!(e.start_us(), e.start_ns / 1_000);
    }
}

/// The serialized line format: v1 keys preserved, exact ns fields added,
/// ctx fields present iff attributed, and the footer carries schema,
/// event count and dropped count.
fn trace_lines_follow_schema_v3() {
    let plain = TraceEvent {
        name: "t.phase",
        slot: 1,
        seq: 0,
        start_ns: 1_234_567,
        dur_ns: 9_876,
        ctx: None,
    };
    assert_eq!(
        render_trace_event(0, &plain),
        "{\"type\":\"span\",\"id\":0,\"slot\":1,\"seq\":0,\"name\":\"t.phase\",\
         \"start_us\":1234,\"dur_us\":9,\"start_ns\":1234567,\"dur_ns\":9876}"
    );
    let attributed = TraceEvent {
        ctx: Some(Arc::new(CellCtx {
            dataset: "d\"x".into(),
            learner: "arf".into(),
            seed: 3,
            rows: 120,
            config: 0xabc,
        })),
        ..plain
    };
    assert_eq!(
        render_trace_event(5, &attributed),
        "{\"type\":\"span\",\"id\":5,\"slot\":1,\"seq\":0,\"name\":\"t.phase\",\
         \"start_us\":1234,\"dur_us\":9,\"start_ns\":1234567,\"dur_ns\":9876,\
         \"dataset\":\"d\\\"x\",\"learner\":\"arf\",\"cell_seed\":3,\"rows\":120,\
         \"config\":\"0000000000000abc\"}"
    );
    assert_eq!(
        render_trace_footer(13, 0),
        "{\"type\":\"footer\",\"schema\":3,\"events\":13,\"dropped\":0}"
    );
}

fn json_and_table_are_stable() {
    enable();
    reset();
    HITS.add(2);
    SIZES.record(1);
    let a = metrics_to_json(&snapshot());
    let b = metrics_to_json(&snapshot());
    assert_eq!(a, b);
    assert!(a.starts_with('{') && a.ends_with('}'));
    assert!(a.contains("\"t.cache.hit\":2"));
    let table = render_metrics_table(&snapshot());
    assert!(table.contains("t.cache.hit"));
    assert!(table.contains("counters"));
}

fn deterministic_counter_filter() {
    enable();
    reset();
    HITS.incr();
    EXEC_CLAIMS.add(5);
    let det = snapshot().deterministic_counters();
    assert!(det.contains_key("t.cache.hit"));
    assert!(!det.contains_key("executor.t.claims"));
}
