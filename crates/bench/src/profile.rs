//! Trace timeline analytics behind the `oeb-profile` binary.
//!
//! Consumes a schema-v3 trace (`--trace` JSONL from `repro` or the
//! sweep CLI) and produces the deterministic `PROFILE.json` document
//! plus a human-readable table: per-stage span totals, per-cell wall
//! time attributed through [`oeb_trace::CellCtx`], per-worker busy/idle
//! timelines, and the makespan against its scheduling lower bound
//! `max(longest cell, total cell time / workers)`.
//!
//! Determinism contract: the analysis is a pure function of the trace
//! bytes. Cell aggregation fans out over [`oeb_core::parallel_map`] but
//! deposits into per-key slots indexed by the sorted key order, so the
//! rendered output is byte-identical at any `--threads` value — a
//! property the `profile_output_is_thread_invariant` test pins.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use oeb_core::parallel_map;
use serde_json::Value;

/// The span that carries a whole cell's wall time: `cell.run` wraps
/// `try_run_stream`, the one per-run funnel of every execution path.
const CELL_WALL_SPAN: &str = "cell.run";

/// The attribution fields a span carries when it ran under a `CellCtx`:
/// all five or none, since they serialise from one context.
const ATTRIBUTION: [&str; 5] = ["dataset", "learner", "cell_seed", "rows", "config"];

/// The oldest trace schema this reader accepts: v3 added `config` to the
/// attribution fields.
const MIN_SCHEMA: u64 = 3;

/// One span record parsed back out of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span name (the `SpanDef` name).
    pub name: String,
    /// Worker slot that recorded the span.
    pub slot: u64,
    /// Epoch-relative start, exact nanoseconds.
    pub start_ns: u64,
    /// Duration, exact nanoseconds.
    pub dur_ns: u64,
    /// Attribution fields, present when the span ran under a `CellCtx`.
    pub dataset: Option<String>,
    /// Learner class from the cell context.
    pub learner: Option<String>,
    /// Cell seed from the cell context.
    pub cell_seed: Option<u64>,
    /// Raw dataset rows from the cell context.
    pub rows: Option<u64>,
    /// Digest of the run's harness config from the cell context.
    pub config: Option<String>,
}

impl TraceSpan {
    fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    fn cell_key(&self) -> Option<CellKey> {
        match (&self.dataset, &self.learner, self.cell_seed, &self.config) {
            (Some(d), Some(l), Some(s), Some(c)) => Some((d.clone(), l.clone(), s, c.clone())),
            _ => None,
        }
    }
}

/// `(dataset, learner, seed, config)`: one run of a grid.
type CellKey = (String, String, u64, String);

/// The trace footer record (always the last line of a trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFooter {
    /// Trace schema version.
    pub schema: u64,
    /// Number of span records the writer emitted.
    pub events: u64,
    /// Events silently dropped by the per-thread buffer cap.
    pub dropped: u64,
}

/// A parsed trace file: the span stream plus its footer.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// Span records in file order (the deterministic drained order).
    pub spans: Vec<TraceSpan>,
    /// The footer line that ends every trace.
    pub footer: TraceFooter,
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("`{key}` missing or not a non-negative integer"))
}

/// An optional attribution field: absent, or well typed.
fn attribution_field<T>(
    v: &Value,
    key: &str,
    parse: impl Fn(&Value) -> Option<T>,
) -> Result<Option<T>, String> {
    v.get(key)
        .map(|x| parse(x).ok_or_else(|| format!("`{key}` is mistyped or empty")))
        .transpose()
}

/// Validates the span record that `id` spans precede.
fn parse_span(v: &Value, id: u64) -> Result<TraceSpan, String> {
    let found = field_u64(v, "id")?;
    if found != id {
        return Err(format!(
            "ids must run 0..n in order: expected {id}, got {found}"
        ));
    }
    for key in ["seq", "start_us", "dur_us"] {
        field_u64(v, key)?;
    }
    let text = |x: &Value| x.as_str().filter(|s| !s.is_empty()).map(String::from);
    let name = v
        .get("name")
        .and_then(text)
        .ok_or("`name` missing or empty")?;
    let present = ATTRIBUTION.iter().filter(|k| v.get(k).is_some()).count();
    if present != 0 && present != ATTRIBUTION.len() {
        return Err(format!(
            "partial attribution: {present} of {ATTRIBUTION:?} present"
        ));
    }
    Ok(TraceSpan {
        name,
        slot: field_u64(v, "slot")?,
        start_ns: field_u64(v, "start_ns")?,
        dur_ns: field_u64(v, "dur_ns")?,
        dataset: attribution_field(v, "dataset", text)?,
        learner: attribution_field(v, "learner", text)?,
        cell_seed: attribution_field(v, "cell_seed", Value::as_u64)?,
        rows: attribution_field(v, "rows", Value::as_u64)?,
        config: attribution_field(v, "config", text)?,
    })
}

/// Validates the footer record that `spans` span records precede.
fn parse_footer(v: &Value, spans: u64) -> Result<TraceFooter, String> {
    let footer = TraceFooter {
        schema: field_u64(v, "schema")?,
        events: field_u64(v, "events")?,
        dropped: field_u64(v, "dropped")?,
    };
    if footer.schema < MIN_SCHEMA {
        return Err(format!(
            "footer `schema` must be >= {MIN_SCHEMA}, got {}",
            footer.schema
        ));
    }
    if footer.events != spans {
        return Err(format!(
            "footer claims {} events but the file holds {spans}",
            footer.events
        ));
    }
    Ok(footer)
}

/// Parse and validate a schema-v3 trace JSONL document, the one reader
/// behind `trace_check` and `oeb-profile`. Every span carries ids
/// `0..n` in file order, unsigned `slot`/`seq`/`start_us`/`dur_us`/
/// `start_ns`/`dur_ns`, a non-empty `name`, and either all five
/// attribution fields, well typed, or none. The footer (`schema >= 3`)
/// ends the file and its `events` equals the span count. Rejects the
/// first violation (a blank line is invalid JSON) with a message naming
/// its line, and a trace without a footer.
pub fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    let mut spans = Vec::new();
    let mut footer = None;
    for (idx, line) in text.lines().enumerate() {
        let at_line = |e: String| format!("line {}: {e}", idx + 1);
        if footer.is_some() {
            return Err(at_line("record after the footer".into()));
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| at_line(format!("invalid JSON: {e}")))?;
        let n = spans.len() as u64;
        match v.get("type").and_then(Value::as_str) {
            Some("span") => spans.push(parse_span(&v, n).map_err(at_line)?),
            Some("footer") => footer = Some(parse_footer(&v, n).map_err(at_line)?),
            other => return Err(at_line(format!("unknown record type {other:?}"))),
        }
    }
    let footer = footer.ok_or("trace has no footer line (every trace ends with one)")?;
    Ok(ParsedTrace { spans, footer })
}

/// Aggregate totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    /// Number of span records.
    pub count: u64,
    /// Sum of exact durations in nanoseconds.
    pub total_ns: u64,
}

/// Everything attributed to one `(dataset, learner, seed, config)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellProfile {
    /// Dataset name.
    pub dataset: String,
    /// Learner class.
    pub learner: String,
    /// Cell seed.
    pub seed: u64,
    /// Digest of the run's harness config (16 hex digits).
    pub config: String,
    /// Raw dataset rows (max over the cell's spans).
    pub rows: u64,
    /// Wall time of the cell's top-level run spans.
    pub wall_ns: u64,
    /// Per-stage totals inside this cell.
    pub stages: BTreeMap<String, StageTotal>,
}

/// Busy/idle summary for one worker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Trace slot (0 = spawning thread, 1.. = workers).
    pub slot: u64,
    /// Span records this slot recorded.
    pub events: u64,
    /// Union length of the slot's span intervals (nested spans don't
    /// double-count).
    pub busy_ns: u64,
}

/// The full analysis of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Span records analysed.
    pub events: u64,
    /// Dropped-event count from the footer.
    pub dropped: u64,
    /// Trace schema version from the footer.
    pub trace_schema: u64,
    /// Per-stage totals over the whole trace.
    pub stages: BTreeMap<String, StageTotal>,
    /// Per-cell profiles, slowest first (ties broken by key).
    pub cells: Vec<CellProfile>,
    /// Per-slot busy/idle summaries, by slot.
    pub workers: Vec<WorkerProfile>,
    /// Wall time from first span start to last span end.
    pub makespan_ns: u64,
    /// Longest single cell wall time.
    pub longest_cell_ns: u64,
    /// Sum of all cell wall times.
    pub total_cell_ns: u64,
    /// Scheduling lower bound: `max(longest cell, total / workers)`.
    pub lower_bound_ns: u64,
    /// `Σ busy / (workers · makespan)`, in `[0, 1]`.
    pub utilization: f64,
}

/// Union length of a set of `[start, end)` intervals.
fn interval_union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Analyse a parsed trace. `threads` bounds the fan-out of the per-cell
/// aggregation; the result is byte-identical for every value.
pub fn analyze(trace: &ParsedTrace, threads: usize) -> Profile {
    let mut stages: BTreeMap<String, StageTotal> = BTreeMap::new();
    for s in &trace.spans {
        let t = stages.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns;
    }

    // Group attributed spans by cell key, sorted for determinism.
    let mut by_cell: BTreeMap<CellKey, Vec<&TraceSpan>> = BTreeMap::new();
    for s in &trace.spans {
        if let Some(key) = s.cell_key() {
            by_cell.entry(key).or_default().push(s);
        }
    }
    let grouped: Vec<_> = by_cell.iter().collect();
    let mut cells: Vec<CellProfile> = parallel_map(grouped.len(), threads.max(1), |i| {
        let ((dataset, learner, seed, config), spans) = &grouped[i];
        let mut cell = CellProfile {
            dataset: dataset.clone(),
            learner: learner.clone(),
            seed: *seed,
            config: config.clone(),
            rows: spans.iter().filter_map(|s| s.rows).max().unwrap_or(0),
            wall_ns: 0,
            stages: BTreeMap::new(),
        };
        for s in spans.iter() {
            let t = cell.stages.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns;
            if s.name == CELL_WALL_SPAN {
                cell.wall_ns += s.dur_ns;
            }
        }
        cell
    });
    cells.sort_by(|a, b| {
        b.wall_ns.cmp(&a.wall_ns).then_with(|| {
            (&a.dataset, &a.learner, a.seed, &a.config)
                .cmp(&(&b.dataset, &b.learner, b.seed, &b.config))
        })
    });

    // Per-slot busy time: union of span intervals, so nesting and
    // overlap within a slot never double-count.
    let mut by_slot: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &trace.spans {
        by_slot
            .entry(s.slot)
            .or_default()
            .push((s.start_ns, s.end_ns()));
    }
    let workers: Vec<WorkerProfile> = by_slot
        .into_iter()
        .map(|(slot, iv)| WorkerProfile {
            slot,
            events: iv.len() as u64,
            busy_ns: interval_union_ns(iv),
        })
        .collect();

    let start = trace.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end = trace.spans.iter().map(TraceSpan::end_ns).max().unwrap_or(0);
    let makespan_ns = end.saturating_sub(start);
    let longest_cell_ns = cells.iter().map(|c| c.wall_ns).max().unwrap_or(0);
    let total_cell_ns: u64 = cells.iter().map(|c| c.wall_ns).sum();
    // Workers executing cells bound the schedule; when no cell spans are
    // attributed, every recording slot counts.
    let cell_workers = trace
        .spans
        .iter()
        .filter(|s| s.name == CELL_WALL_SPAN)
        .map(|s| s.slot)
        .collect::<std::collections::BTreeSet<_>>()
        .len()
        .max(1);
    let n_workers = if total_cell_ns > 0 {
        cell_workers
    } else {
        workers.len().max(1)
    };
    let lower_bound_ns = longest_cell_ns.max(total_cell_ns / n_workers as u64);
    let busy: u64 = workers.iter().map(|w| w.busy_ns).sum();
    let utilization = if makespan_ns > 0 && !workers.is_empty() {
        (busy as f64 / (workers.len() as u64 * makespan_ns) as f64).min(1.0)
    } else {
        0.0
    };

    Profile {
        events: trace.spans.len() as u64,
        dropped: trace.footer.dropped,
        trace_schema: trace.footer.schema,
        stages,
        cells,
        workers,
        makespan_ns,
        longest_cell_ns,
        total_cell_ns,
        lower_bound_ns,
        utilization,
    }
}

fn stage_map_json(stages: &BTreeMap<String, StageTotal>) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    for (name, t) in stages {
        m.insert(
            name.clone(),
            serde_json::json!({ "count": t.count, "total_ns": t.total_ns }),
        );
    }
    serde_json::Value::Object(m)
}

/// Build the `PROFILE.json` document. Keys are inserted in a fixed
/// order, so equal profiles serialise to equal bytes.
pub fn profile_json(p: &Profile, top: usize) -> serde_json::Value {
    let cells: Vec<serde_json::Value> = p
        .cells
        .iter()
        .map(|c| {
            serde_json::json!({
                "dataset": c.dataset.clone(),
                "learner": c.learner.clone(),
                "seed": c.seed,
                "config": c.config.clone(),
                "rows": c.rows,
                "wall_ns": c.wall_ns,
                "stages": stage_map_json(&c.stages),
            })
        })
        .collect();
    let top_cells: Vec<serde_json::Value> = p
        .cells
        .iter()
        .take(top)
        .map(|c| {
            serde_json::json!({
                "dataset": c.dataset.clone(),
                "learner": c.learner.clone(),
                "seed": c.seed,
                "config": c.config.clone(),
                "wall_ns": c.wall_ns,
            })
        })
        .collect();
    let per_worker: Vec<serde_json::Value> = p
        .workers
        .iter()
        .map(|w| serde_json::json!({ "slot": w.slot, "events": w.events, "busy_ns": w.busy_ns }))
        .collect();
    serde_json::json!({
        "schema": 1,
        "events": p.events,
        "dropped": p.dropped,
        "trace_schema": p.trace_schema,
        "stages": stage_map_json(&p.stages),
        "timeline": serde_json::json!({
            "workers": p.workers.len() as u64,
            "makespan_ns": p.makespan_ns,
            "busy_ns": p.workers.iter().map(|w| w.busy_ns).sum::<u64>(),
            "utilization": p.utilization,
            "longest_cell_ns": p.longest_cell_ns,
            "total_cell_ns": p.total_cell_ns,
            "lower_bound_ns": p.lower_bound_ns,
            "per_worker": per_worker,
        }),
        "cells": cells,
        "top": top_cells,
    })
}

fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Render the human-readable profile table.
pub fn render_profile(p: &Profile, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} events, {} dropped (trace schema {})",
        p.events, p.dropped, p.trace_schema
    );
    let busy: u64 = p.workers.iter().map(|w| w.busy_ns).sum();
    let _ = writeln!(out, "\nstages (share of busy time)");
    let width = p.stages.keys().map(String::len).max().unwrap_or(5).max(5);
    for (name, t) in &p.stages {
        let share = if busy > 0 {
            100.0 * t.total_ns as f64 / busy as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {name:<width$}  count={:<6} total_ms={:<12} share={share:.1}%",
            t.count,
            ms(t.total_ns),
        );
    }
    let _ = writeln!(
        out,
        "\ntimeline: workers={} makespan_ms={} busy_ms={} utilization={:.1}%",
        p.workers.len(),
        ms(p.makespan_ns),
        ms(busy),
        100.0 * p.utilization
    );
    let _ = writeln!(
        out,
        "lower bound_ms={} (longest cell {} / total-over-workers {})",
        ms(p.lower_bound_ns),
        ms(p.longest_cell_ns),
        ms(p.total_cell_ns),
    );
    for w in &p.workers {
        let idle = p.makespan_ns.saturating_sub(w.busy_ns);
        let _ = writeln!(
            out,
            "  slot {:<3} events={:<6} busy_ms={:<12} idle_ms={}",
            w.slot,
            w.events,
            ms(w.busy_ns),
            ms(idle)
        );
    }
    if !p.cells.is_empty() {
        let _ = writeln!(out, "\ntop {} cells by wall time", top.min(p.cells.len()));
        for c in p.cells.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<28} {:<10} seed={:<20} config={} rows={:<8} wall_ms={}",
                c.dataset,
                c.learner,
                c.seed,
                c.config,
                c.rows,
                ms(c.wall_ns)
            );
        }
    }
    out
}

/// Cross-check the profile's per-stage totals against a rendered
/// metrics table (`render_metrics_table` output): every span row must
/// match the trace aggregate exactly — same count, same `total_us`
/// (both floor the same nanosecond sum once). Returns the number of
/// span names checked.
pub fn check_metrics(p: &Profile, metrics_text: &str) -> Result<usize, String> {
    if p.dropped > 0 {
        return Err(format!(
            "trace dropped {} events; span totals cannot match the snapshot",
            p.dropped
        ));
    }
    let mut in_spans = false;
    let mut checked = 0usize;
    let mut seen = std::collections::BTreeSet::new();
    for line in metrics_text.lines() {
        if !line.starts_with(' ') {
            in_spans = line == "spans";
            continue;
        }
        if !in_spans {
            continue;
        }
        let mut it = line.split_whitespace();
        let name = it.next().ok_or("empty span row")?;
        let mut count = None;
        let mut total_us = None;
        for kv in it {
            if let Some(v) = kv.strip_prefix("count=") {
                count = v.parse::<u64>().ok();
            } else if let Some(v) = kv.strip_prefix("total_us=") {
                total_us = v.parse::<u64>().ok();
            }
        }
        let (count, total_us) = match (count, total_us) {
            (Some(c), Some(t)) => (c, t),
            _ => return Err(format!("unparseable span row: {line:?}")),
        };
        let stage = p
            .stages
            .get(name)
            .ok_or_else(|| format!("span {name:?} in metrics but absent from the trace"))?;
        if stage.count != count || stage.total_ns / 1_000 != total_us {
            return Err(format!(
                "span {name:?}: metrics count={count} total_us={total_us}, trace count={} total_us={}",
                stage.count,
                stage.total_ns / 1_000
            ));
        }
        seen.insert(name.to_string());
        checked += 1;
    }
    if let Some(missing) = p.stages.keys().find(|k| !seen.contains(*k)) {
        return Err(format!(
            "span {missing:?} in the trace but absent from the metrics table"
        ));
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, slot: u64, start: u64, dur: u64) -> String {
        format!(
            "{{\"type\":\"span\",\"id\":{id},\"slot\":{slot},\"seq\":0,\"name\":\"{name}\",\"start_us\":{},\"dur_us\":{},\"start_ns\":{start},\"dur_ns\":{dur}}}",
            start / 1_000,
            dur / 1_000
        )
    }

    fn cell_span(
        id: u64,
        name: &str,
        slot: u64,
        start: u64,
        dur: u64,
        cell: (&str, &str, u64, u64),
    ) -> String {
        let mut line = span(id, name, slot, start, dur);
        line.pop();
        format!(
            "{line},\"dataset\":\"{}\",\"learner\":\"{}\",\"cell_seed\":{},\"rows\":{},\"config\":\"00000000000000c{}\"}}",
            cell.0, cell.1, cell.2, cell.3, cell.2
        )
    }

    fn sample_trace() -> String {
        let lines = [
            cell_span(0, "cell.run", 1, 0, 4_000_000, ("beijing", "arf", 7, 100)),
            cell_span(
                1,
                "evaluate.train",
                1,
                100,
                1_000_000,
                ("beijing", "arf", 7, 100),
            ),
            cell_span(2, "cell.run", 2, 0, 2_000_000, ("room", "tree", 9, 50)),
            span(3, "report.render", 0, 4_000_000, 500_000),
            "{\"type\":\"footer\",\"schema\":3,\"events\":4,\"dropped\":0}".to_string(),
        ];
        lines.join("\n") + "\n"
    }

    #[test]
    fn parses_and_analyses_a_small_trace() {
        let trace = parse_trace(&sample_trace()).unwrap();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.footer.dropped, 0);

        let p = analyze(&trace, 2);
        assert_eq!(p.stages["cell.run"].count, 2);
        assert_eq!(p.stages["cell.run"].total_ns, 6_000_000);
        assert_eq!(p.cells.len(), 2);
        // Slowest first.
        assert_eq!(p.cells[0].dataset, "beijing");
        assert_eq!(p.cells[0].wall_ns, 4_000_000);
        assert_eq!(p.cells[0].rows, 100);
        // Nested train span does not inflate busy time for slot 1.
        let slot1 = p.workers.iter().find(|w| w.slot == 1).unwrap();
        assert_eq!(slot1.busy_ns, 4_000_000);
        assert_eq!(p.makespan_ns, 4_500_000);
        assert_eq!(p.total_cell_ns, 6_000_000);
        // Two slots ran cells: lower bound = max(4ms, 6ms / 2) = 4ms.
        assert_eq!(p.lower_bound_ns, 4_000_000);
    }

    #[test]
    fn analysis_is_thread_invariant() {
        let trace = parse_trace(&sample_trace()).unwrap();
        let one = serde_json::to_string(&profile_json(&analyze(&trace, 1), 5)).unwrap();
        let four = serde_json::to_string(&profile_json(&analyze(&trace, 4), 5)).unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn check_metrics_accepts_matching_and_rejects_drifted_tables() {
        let p = analyze(&parse_trace(&sample_trace()).unwrap(), 1);
        let good = "counters\n  x  1\nspans\n  cell.run        count=2 total_us=6000 mean_us=3000\n  evaluate.train  count=1 total_us=1000 mean_us=1000\n  report.render   count=1 total_us=500 mean_us=500\n";
        assert_eq!(check_metrics(&p, good).unwrap(), 3);
        let drifted = good.replace("total_us=6000", "total_us=6001");
        assert!(check_metrics(&p, &drifted).is_err());
        let missing = "spans\n  cell.run  count=2 total_us=6000 mean_us=3000\n";
        assert!(check_metrics(&p, missing)
            .unwrap_err()
            .contains("absent from the metrics"));
    }

    #[test]
    fn v1_traces_are_rejected() {
        // Microsecond-only spans name the line and the missing field.
        let v1 = "{\"type\":\"span\",\"id\":0,\"slot\":0,\"seq\":0,\"name\":\"a\",\"start_us\":10,\"dur_us\":5}\n";
        let err = parse_trace(v1).unwrap_err();
        assert!(err.contains("line 1") && err.contains("start_ns"), "{err}");
        let no_dur = sample_trace().replacen(",\"dur_ns\":4000000", "", 1);
        let err = parse_trace(&no_dur).unwrap_err();
        assert!(err.contains("line 1") && err.contains("dur_ns"), "{err}");
        // Nanosecond spans without the footer line are cut short.
        let footerless: String = sample_trace()
            .lines()
            .filter(|l| !l.contains("footer"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse_trace(&footerless).unwrap_err().contains("no footer"));
        assert!(parse_trace("").unwrap_err().contains("no footer"));
    }

    #[test]
    fn malformed_lines_are_rejected_naming_the_line() {
        let good = sample_trace();
        assert!(parse_trace(&good).is_ok());
        // (line, first occurrence to corrupt, its replacement, fragment)
        let cases = [
            (2, "\"id\":1", "\"id\":5", "ids must run"),
            (1, "\"seq\":0,", "", "`seq`"),
            (1, "\"start_us\":0", "\"start_us\":-1", "`start_us`"),
            (4, "\"dur_us\":500", "\"dur_us\":0.5", "`dur_us`"),
            (4, "\"report.render\"", "\"\"", "`name`"),
            (1, ",\"rows\":100", "", "partial attribution"),
            (
                3,
                ",\"config\":\"00000000000000c9\"",
                "",
                "partial attribution",
            ),
            (
                1,
                "\"config\":\"00000000000000c7\"",
                "\"config\":7",
                "`config`",
            ),
            (1, "\"beijing\"", "7", "`dataset`"),
            (3, "\"tree\"", "\"\"", "`learner`"),
            (3, "\"cell_seed\":9", "\"cell_seed\":\"9\"", "`cell_seed`"),
            (5, "\"schema\":3", "\"schema\":2", "`schema`"),
            (5, "\"events\":4", "\"events\":3", "footer claims"),
            (
                3,
                "\n{\"type\":\"span\",\"id\":2",
                "\n\n{\"type\":\"span\",\"id\":2",
                "invalid JSON",
            ),
        ];
        for (line, from, to, fragment) in cases {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from} not in the fixture");
            let err = parse_trace(&bad).unwrap_err();
            assert!(
                err.starts_with(&format!("line {line}: ")) && err.contains(fragment),
                "{from} -> {to}: expected line {line} / {fragment}, got {err}"
            );
        }
        // Nothing follows the footer.
        let trailing = format!("{good}{}\n", span(4, "late", 0, 0, 1));
        let err = parse_trace(&trailing).unwrap_err();
        assert!(err.starts_with("line 6: record after the footer"), "{err}");
    }

    #[test]
    fn interval_union_merges_overlaps() {
        assert_eq!(interval_union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(interval_union_ns(vec![]), 0);
    }
}
