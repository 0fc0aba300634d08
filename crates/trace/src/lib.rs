//! Deterministic, dependency-free observability for the OEBench workspace.
//!
//! The pipeline's load-bearing invariant is that *results never depend on
//! wall-clock time or scheduling*: an N-thread run is bit-identical to a
//! sequential one. Instrumentation must not be allowed to erode that, so
//! this crate draws a hard line:
//!
//! - **Wall-clock readings live here and nowhere else.** The `raw-instant`
//!   lint rule forbids `Instant::now`/`SystemTime::now` outside this crate;
//!   code that needs a duration (even one that is itself a reported paper
//!   metric, like training time) goes through [`Stopwatch`].
//! - **Zero cost when disabled.** Every recording entry point checks one
//!   relaxed atomic flag and returns; the disabled path performs no clock
//!   read, no allocation, and takes no lock. Results are bit-identical with
//!   tracing on, off, or compiled out.
//! - **Deterministic export ordering.** Metric snapshots are keyed by
//!   `BTreeMap`; span buffers are thread-local and tagged with the owning
//!   worker's *slot* (the same slot indices the executor uses for result
//!   collection), then merged by `(slot, start, seq)` with a stable sort —
//!   so the trace stream's ordering does not depend on which thread
//!   happened to flush first.
//!
//! Metric handles are `static` items with interior atomics; they register
//! themselves into a global registry on first touch, so defining one is
//! free and dead instruments never appear in a snapshot.
//!
//! ```
//! static CACHE_HITS: oeb_trace::Counter = oeb_trace::Counter::new("demo.cache.hit");
//! static IMPUTE: oeb_trace::SpanDef = oeb_trace::SpanDef::new("demo.impute");
//!
//! oeb_trace::enable();
//! {
//!     let _span = IMPUTE.start(); // RAII: records duration on drop
//!     CACHE_HITS.incr();
//! }
//! let snap = oeb_trace::snapshot();
//! assert_eq!(snap.counters["demo.cache.hit"], 1);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Version of the JSON-lines trace schema written by [`write_trace_file`].
/// v2 added per-event cell context fields, exact `start_ns`/`dur_ns`, and
/// the mandatory trailing footer record; v3 added the run's config digest
/// (`config`) to the cell context.
pub const TRACE_SCHEMA_VERSION: u32 = 3;

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Lock a mutex, recovering the guard if a panicking holder poisoned it.
/// All state behind these locks is valid under torn updates (counters and
/// event buffers), so continuing is always safe and keeps this crate free
/// of panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

struct Registry {
    counters: Vec<&'static Counter>,
    gauges: Vec<&'static Gauge>,
    histograms: Vec<&'static Histogram>,
    spans: Vec<&'static SpanDef>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: Vec::new(),
    gauges: Vec::new(),
    histograms: Vec::new(),
    spans: Vec::new(),
});

/// Process-relative time origin for span start offsets. Fixed at the first
/// `enable()` (or first span if somehow recorded earlier) so offsets in one
/// trace file share one origin.
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

fn epoch_nanos(at: Instant) -> u64 {
    let mut guard = lock(&EPOCH);
    let epoch = guard.get_or_insert(at);
    at.saturating_duration_since(*epoch).as_nanos() as u64
}

/// Is recording currently on? One relaxed load — this is the whole cost of
/// every instrument on the disabled path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on. Fixes the trace epoch on first call.
pub fn enable() {
    lock(&EPOCH).get_or_insert_with(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn recording off. Already-recorded values remain until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Cell context (attribution)
// ---------------------------------------------------------------------------

/// Ambient attribution for span events: which `(dataset, learner, seed,
/// config)` cell the current thread is working on, and how many raw rows
/// that cell covers. `config` is a digest of the run's harness config, so
/// the runs of one grid under two config variants (one figure's
/// imputers, window sizes, ...) stay two cells. Installed by the harness
/// around each run via [`CellCtx::install`]; every span event recorded
/// while a context is active carries an `Arc` to it, so the trace stream
/// can be grouped per cell after the fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCtx {
    pub dataset: String,
    pub learner: String,
    pub seed: u64,
    pub rows: u64,
    pub config: u64,
}

thread_local! {
    static CTX: RefCell<Option<Arc<CellCtx>>> = const { RefCell::new(None) };
}

impl CellCtx {
    /// Install this context on the current thread until the returned guard
    /// drops (the previous context, if any, is restored — installs nest).
    /// Disabled path: one relaxed load, the guard is inert and no TLS is
    /// touched.
    #[inline]
    pub fn install(self) -> CellCtxGuard {
        if !enabled() {
            return CellCtxGuard(None);
        }
        let prev = CTX
            .try_with(|c| c.borrow_mut().replace(Arc::new(self)))
            .unwrap_or(None);
        CellCtxGuard(Some(PrevCtx(prev)))
    }
}

struct PrevCtx(Option<Arc<CellCtx>>);

/// RAII guard from [`CellCtx::install`]; restores the previous context on
/// drop.
pub struct CellCtxGuard(Option<PrevCtx>);

impl Drop for CellCtxGuard {
    fn drop(&mut self) {
        if let Some(PrevCtx(prev)) = self.0.take() {
            let _ = CTX.try_with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// The context currently installed on this thread, if any.
pub fn current_cell_ctx() -> Option<Arc<CellCtx>> {
    CTX.try_with(|c| c.borrow().clone()).unwrap_or(None)
}

// ---------------------------------------------------------------------------
// Counter / Gauge / Histogram
// ---------------------------------------------------------------------------

/// Monotone event counter. Schedule-invariant for all instruments in the
/// workspace except the `executor.*` family (see DESIGN.md "Observability"
/// for the determinism contract).
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn ensure_registered(&'static self) {
        if self.registered.swap(true, Ordering::Relaxed) {
            return;
        }
        lock(&REGISTRY).counters.push(self);
    }
}

/// Last-written + high-water-mark gauge (e.g. executor queue depth).
pub struct Gauge {
    name: &'static str,
    last: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            last: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    #[inline]
    pub fn set(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.last.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn ensure_registered(&'static self) {
        if self.registered.swap(true, Ordering::Relaxed) {
            return;
        }
        lock(&REGISTRY).gauges.push(self);
    }
}

/// Upper bound on bucket count (`bounds` entries plus one overflow bucket).
/// Fixed so the storage can live inline in a `static` with no allocation.
pub const MAX_BUCKETS: usize = 12;

/// Fixed-bucket histogram over `u64` samples (typically microseconds or
/// element counts). `bounds` are inclusive upper edges in ascending order;
/// samples above the last bound land in the overflow bucket. Bounds beyond
/// [`MAX_BUCKETS`]` - 1` are ignored rather than panicking.
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    buckets: [AtomicU64; MAX_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        Histogram {
            name,
            bounds,
            buckets: [const { AtomicU64::new(0) }; MAX_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    fn used_bounds(&self) -> &'static [u64] {
        let n = self.bounds.len().min(MAX_BUCKETS - 1);
        &self.bounds[..n]
    }

    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        let bounds = self.used_bounds();
        let mut idx = bounds.len(); // overflow bucket
        for (i, b) in bounds.iter().enumerate() {
            if v <= *b {
                idx = i;
                break;
            }
        }
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn ensure_registered(&'static self) {
        if self.registered.swap(true, Ordering::Relaxed) {
            return;
        }
        lock(&REGISTRY).histograms.push(self);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A named span site. `start()` returns an RAII guard that records the
/// duration on drop; per-definition count/total aggregates feed the metrics
/// snapshot (per-stage time shares) while the individual events feed the
/// `--trace` JSON-lines stream.
pub struct SpanDef {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    registered: AtomicBool,
}

impl SpanDef {
    pub const fn new(name: &'static str) -> Self {
        SpanDef {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Begin a span. Disabled path: one atomic load, no clock read, no
    /// allocation — the guard is inert.
    #[inline]
    pub fn start(&'static self) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        SpanGuard(Some(ActiveSpan {
            def: self,
            start: Instant::now(),
        }))
    }

    // Durations are carried in whole nanoseconds end to end — both in the
    // per-definition aggregate and in the buffered event — and rounded to
    // microseconds exactly once, at serialization. Truncating each event
    // independently (the old behaviour) let summed child spans exceed
    // their parent by up to 1 µs per child.
    fn record_from(&'static self, start: Instant) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.ensure_registered();
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(dur_ns, Ordering::Relaxed);
        push_event(self.name, epoch_nanos(start), dur_ns);
    }

    fn ensure_registered(&'static self) {
        if self.registered.swap(true, Ordering::Relaxed) {
            return;
        }
        lock(&REGISTRY).spans.push(self);
    }
}

struct ActiveSpan {
    def: &'static SpanDef,
    start: Instant,
}

/// RAII guard from [`SpanDef::start`]. Records on drop if recording is
/// still enabled.
pub struct SpanGuard(Option<ActiveSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            if enabled() {
                active.def.record_from(active.start);
            }
        }
    }
}

/// The one sanctioned way to measure a duration whose *value* must flow
/// into results (training/test seconds are themselves reported paper
/// metrics). Always reads the clock — the measured number is identical
/// whether tracing is on or off — and additionally records a span event
/// when recording is enabled.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    #[inline]
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Elapsed whole microseconds — the sanctioned sample source for
    /// latency [`Histogram`]s (per-item test-then-train timing).
    pub fn elapsed_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Stop, returning elapsed seconds; records a span under `def` when
    /// recording is enabled.
    pub fn stop(self, def: &'static SpanDef) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if enabled() {
            def.record_from(self.start);
        }
        secs
    }
}

// ---------------------------------------------------------------------------
// Per-thread event buffers (slot-ordered, like executor result collection)
// ---------------------------------------------------------------------------

/// Per-thread event cap; beyond it events are counted as dropped rather
/// than growing without bound. 2^18 events ≈ 10 MB per thread worst case.
const MAX_THREAD_EVENTS: usize = 1 << 18;

static DROPPED: AtomicU64 = AtomicU64::new(0);

#[derive(Clone)]
struct Event {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    seq: u32,
    ctx: Option<Arc<CellCtx>>,
}

struct ThreadBuf {
    slot: u32,
    seq: u32,
    events: Vec<Event>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if !self.events.is_empty() {
            lock(&CHUNKS).push((self.slot, std::mem::take(&mut self.events)));
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf {
            slot: 0,
            seq: 0,
            events: Vec::new(),
        })
    };
}

/// Flushed per-thread buffers awaiting export, tagged with their slot.
static CHUNKS: Mutex<Vec<(u32, Vec<Event>)>> = Mutex::new(Vec::new());

/// Tag the current thread's events with a slot index. The executor assigns
/// slot `w + 1` to worker `w` (the spawning thread keeps slot 0), mirroring
/// its slot-ordered result collection so the merged trace ordering is
/// independent of thread scheduling.
pub fn set_thread_slot(slot: u32) {
    let _ = BUF.try_with(|b| b.borrow_mut().slot = slot);
}

fn push_event(name: &'static str, start_ns: u64, dur_ns: u64) {
    let ctx = current_cell_ctx();
    // try_with: events arriving during thread teardown are dropped rather
    // than panicking on a destroyed TLS key.
    let pushed = BUF.try_with(|b| {
        let mut b = b.borrow_mut();
        if b.events.len() >= MAX_THREAD_EVENTS {
            return false;
        }
        let seq = b.seq;
        b.seq = b.seq.wrapping_add(1);
        b.events.push(Event {
            name,
            start_ns,
            dur_ns,
            seq,
            ctx,
        });
        true
    });
    if pushed != Ok(true) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Move the calling thread's buffered events into the global chunk list.
/// Worker threads flush automatically on exit (TLS drop) as a backstop,
/// but `std::thread::scope` releases the parent when a worker closure
/// *returns* — before that worker's TLS destructors run — so scoped
/// workers must call this explicitly as their closure's last statement
/// or a parent-side drain can race past their backstop flush. The
/// exporting thread calls this for itself.
pub fn flush_thread() {
    let _ = BUF.try_with(|b| b.borrow_mut().flush());
}

// ---------------------------------------------------------------------------
// Export: trace stream
// ---------------------------------------------------------------------------

/// One exported span event, in final deterministic order. Times are exact
/// nanoseconds; the microsecond fields in the serialized stream are
/// derived from these once, at write time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: &'static str,
    pub slot: u32,
    pub seq: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Cell attribution active when the span was recorded, if any.
    pub ctx: Option<Arc<CellCtx>>,
}

impl TraceEvent {
    /// Epoch-relative start in whole microseconds (serialized form).
    pub fn start_us(&self) -> u64 {
        self.start_ns / 1_000
    }

    /// Duration in whole microseconds (serialized form).
    pub fn dur_us(&self) -> u64 {
        self.dur_ns / 1_000
    }
}

/// Drain all recorded span events in deterministic order: stable-sorted by
/// `(slot, start_ns, seq)`, so the stream's shape does not depend on which
/// thread's buffer reached the chunk list first. Consumes the events.
pub fn drain_events() -> Vec<TraceEvent> {
    flush_thread();
    let chunks = std::mem::take(&mut *lock(&CHUNKS));
    let mut events: Vec<(u32, Event)> = Vec::new();
    for (slot, chunk) in chunks {
        for ev in chunk {
            events.push((slot, ev));
        }
    }
    events.sort_by_key(|(slot, ev)| (*slot, ev.start_ns, ev.seq));
    events
        .into_iter()
        .map(|(slot, ev)| TraceEvent {
            name: ev.name,
            slot,
            seq: ev.seq,
            start_ns: ev.start_ns,
            dur_ns: ev.dur_ns,
            ctx: ev.ctx,
        })
        .collect()
}

/// Number of events discarded because a per-thread buffer hit its cap.
/// Surfaced in every metrics snapshot (`trace.events.dropped`) and in the
/// trace footer, so silent truncation is always detectable.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Serialise one drained event as a schema-v3 span record. Pulled out of
/// [`write_trace_file`] so tests and in-process consumers share the exact
/// byte format.
pub fn render_trace_event(id: usize, ev: &TraceEvent) -> String {
    let mut line = format!(
        "{{\"type\":\"span\",\"id\":{id},\"slot\":{},\"seq\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"start_ns\":{},\"dur_ns\":{}",
        ev.slot,
        ev.seq,
        json_escape(ev.name),
        ev.start_us(),
        ev.dur_us(),
        ev.start_ns,
        ev.dur_ns,
    );
    if let Some(ctx) = &ev.ctx {
        line.push_str(&format!(
            ",\"dataset\":\"{}\",\"learner\":\"{}\",\"cell_seed\":{},\"rows\":{},\"config\":\"{:016x}\"",
            json_escape(&ctx.dataset),
            json_escape(&ctx.learner),
            ctx.seed,
            ctx.rows,
            ctx.config,
        ));
    }
    line.push('}');
    line
}

/// Serialise the trace footer: schema version, number of span
/// records written, and how many events were silently dropped by the
/// per-thread buffer cap (so a truncated trace is detectable after the
/// fact — `trace_check` turns a nonzero `dropped` into a distinct exit
/// code).
pub fn render_trace_footer(events: usize, dropped: u64) -> String {
    format!("{{\"type\":\"footer\",\"schema\":{TRACE_SCHEMA_VERSION},\"events\":{events},\"dropped\":{dropped}}}")
}

/// Write the drained span stream as JSON lines (schema v3). Each span
/// record carries `type`, a monotone `id` assigned after the deterministic
/// merge, the owning `slot`, per-thread `seq`, the span `name`,
/// epoch-relative `start_us`/`dur_us` (rounded once from the exact
/// nanosecond fields `start_ns`/`dur_ns`), and — when the span was
/// recorded under a [`CellCtx`] — the attribution fields `dataset`,
/// `learner`, `cell_seed`, `rows` and `config` (16 hex digits). The final
/// line is the footer record.
pub fn write_trace_file(path: &Path) -> std::io::Result<()> {
    let events = drain_events();
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    for (id, ev) in events.iter().enumerate() {
        writeln!(out, "{}", render_trace_event(id, ev))?;
    }
    writeln!(
        out,
        "{}",
        render_trace_footer(events.len(), dropped_events())
    )?;
    out.flush()
}

// ---------------------------------------------------------------------------
// Export: metrics snapshot
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    pub last: u64,
    pub max: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// `(inclusive upper bound, count)`; the final entry is the overflow
    /// bucket with bound `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Deterministic quantile estimate from the log buckets: the inclusive
    /// upper bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Conservative by construction (the true value is
    /// ≤ the returned bound); samples past the last bound report
    /// `u64::MAX`. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (bound, c) in &self.buckets {
            cumulative = cumulative.saturating_add(*c);
            if cumulative >= rank {
                return *bound;
            }
        }
        u64::MAX
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    pub count: u64,
    /// Exact summed duration in nanoseconds (see `SpanDef::record_from`).
    pub total_ns: u64,
}

impl SpanSnapshot {
    /// Total in whole microseconds, rounded once from the nanosecond sum.
    pub fn total_us(&self) -> u64 {
        self.total_ns / 1_000
    }
}

/// Point-in-time view of every registered instrument, keyed by name in
/// `BTreeMap`s so iteration (and therefore any rendering) is ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub spans: BTreeMap<String, SpanSnapshot>,
}

pub fn snapshot() -> MetricsSnapshot {
    let reg = lock(&REGISTRY);
    let mut snap = MetricsSnapshot::default();
    for c in &reg.counters {
        snap.counters.insert(c.name.to_string(), c.get());
    }
    for g in &reg.gauges {
        snap.gauges.insert(
            g.name.to_string(),
            GaugeSnapshot {
                last: g.last.load(Ordering::Relaxed),
                max: g.max.load(Ordering::Relaxed),
            },
        );
    }
    for h in &reg.histograms {
        let bounds = h.used_bounds();
        let mut buckets = Vec::with_capacity(bounds.len() + 1);
        for (i, b) in bounds.iter().enumerate() {
            buckets.push((*b, h.buckets[i].load(Ordering::Relaxed)));
        }
        buckets.push((u64::MAX, h.buckets[bounds.len()].load(Ordering::Relaxed)));
        snap.histograms.insert(
            h.name.to_string(),
            HistogramSnapshot {
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
                buckets,
            },
        );
    }
    for s in &reg.spans {
        snap.spans.insert(
            s.name.to_string(),
            SpanSnapshot {
                count: s.count.load(Ordering::Relaxed),
                total_ns: s.total_ns.load(Ordering::Relaxed),
            },
        );
    }
    // Always surfaced (even at zero) so a truncated trace is visible in
    // the metrics table, not only in the trace footer.
    snap.counters
        .insert("trace.events.dropped".to_string(), dropped_events());
    snap
}

impl MetricsSnapshot {
    /// Counters under the schedule-invariant contract: everything except
    /// the `executor.*` family, whose values legitimately depend on which
    /// worker claimed which task, and the `supervise.wall.*` family,
    /// which counts wall-clock deadline events (machine noise by
    /// definition). Tests assert these are identical across thread
    /// counts.
    pub fn deterministic_counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(name, _)| {
                !name.starts_with("executor.") && !name.starts_with("supervise.wall.")
            })
            .map(|(name, v)| (name.clone(), *v))
            .collect()
    }
}

/// Render the snapshot as an aligned human-readable table (the `--metrics`
/// output). Ordering follows the `BTreeMap` keys, so it is stable.
pub fn render_metrics_table(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut section = |title: &str, rows: &[(String, String)]| {
        if rows.is_empty() {
            return;
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        out.push_str(title);
        out.push('\n');
        for (k, v) in rows {
            out.push_str(&format!("  {k:<width$}  {v}\n"));
        }
    };
    let counter_rows: Vec<(String, String)> = snap
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), v.to_string()))
        .collect();
    section("counters", &counter_rows);
    let gauge_rows: Vec<(String, String)> = snap
        .gauges
        .iter()
        .map(|(k, g)| (k.clone(), format!("last={} max={}", g.last, g.max)))
        .collect();
    section("gauges", &gauge_rows);
    let span_rows: Vec<(String, String)> = snap
        .spans
        .iter()
        .map(|(k, s)| {
            let total_us = s.total_us();
            let mean = total_us.checked_div(s.count).unwrap_or(0);
            (
                k.clone(),
                format!("count={} total_us={total_us} mean_us={mean}", s.count),
            )
        })
        .collect();
    section("spans", &span_rows);
    let bound_str = |b: u64| {
        if b == u64::MAX {
            "inf".to_string()
        } else {
            b.to_string()
        }
    };
    let hist_rows: Vec<(String, String)> = snap
        .histograms
        .iter()
        .map(|(k, h)| {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(b, c)| format!("{}:{c}", bound_str(*b)))
                .collect();
            (
                k.clone(),
                format!(
                    "count={} sum={} p50={} p95={} p99={} [{}]",
                    h.count,
                    h.sum,
                    bound_str(h.p50()),
                    bound_str(h.p95()),
                    bound_str(h.p99()),
                    buckets.join(" ")
                ),
            )
        })
        .collect();
    section("histograms", &hist_rows);
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Reset (tests and benchmarks)
// ---------------------------------------------------------------------------

/// Zero every registered instrument, discard buffered events, and restart
/// the epoch. Leaves the enabled flag as-is. Buffers owned by *live* other
/// threads are not reachable and are left alone; in practice worker threads
/// are scoped and have exited by the time anything resets.
pub fn reset() {
    {
        let reg = lock(&REGISTRY);
        for c in &reg.counters {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in &reg.gauges {
            g.last.store(0, Ordering::Relaxed);
            g.max.store(0, Ordering::Relaxed);
        }
        for h in &reg.histograms {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
        }
        for s in &reg.spans {
            s.count.store(0, Ordering::Relaxed);
            s.total_ns.store(0, Ordering::Relaxed);
        }
    }
    lock(&CHUNKS).clear();
    DROPPED.store(0, Ordering::Relaxed);
    let _ = BUF.try_with(|b| {
        let mut b = b.borrow_mut();
        b.events.clear();
        b.seq = 0;
    });
    *lock(&EPOCH) = Some(Instant::now());
}
