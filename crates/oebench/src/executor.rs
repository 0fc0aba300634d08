//! Deterministic work-stealing executor for sweep cells.
//!
//! A sweep is an embarrassingly parallel grid of (dataset, algorithm,
//! seed) cells, but OEBench's results must be reproducible: running the
//! same sweep with 1 or 16 workers has to produce the same report. The
//! executor gets both properties by separating *scheduling* from
//! *ordering*: workers claim cell indices from a shared atomic counter
//! (natural work stealing — a worker stuck on a slow neural-network cell
//! simply claims fewer cells), and every result lands in the slot of its
//! cell index, so collection order is the cell order no matter which
//! worker ran what. Each cell seeds its own RNGs from its coordinates,
//! never from worker identity, making the computation itself
//! schedule-independent.
//!
//! Thread-count resolution (strongest first): an explicit `--threads N`,
//! the process-wide default installed by [`set_default_threads`] (the
//! CLI layer sets this so deep call sites like the experiment drivers
//! inherit the flag), the `OEBENCH_THREADS` environment variable, and
//! finally [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use oeb_trace::{Counter, Gauge, SpanDef};

/// `executor.*` instruments are the one family *excluded* from the
/// schedule-invariance contract: which worker claims which index is real
/// scheduling information, and that is exactly what they report. The
/// watchdog counter belongs here for the same reason: whether a wall
/// clock expires depends on the machine, never on the computation.
static CLAIMS: Counter = Counter::new("executor.claims");
static SEQUENTIAL_RUNS: Counter = Counter::new("executor.sequential_runs");
static PARALLEL_RUNS: Counter = Counter::new("executor.parallel_runs");
static QUEUE_DEPTH: Gauge = Gauge::new("executor.queue.depth");
static WORKERS: Gauge = Gauge::new("executor.workers");
static WATCHDOG_FIRED: Counter = Counter::new("executor.watchdog.fired");
static WORKER_SPAN: SpanDef = SpanDef::new("executor.worker");
static TASK_SPAN: SpanDef = SpanDef::new("executor.task");

/// Process-wide default worker count; 0 means "not set".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide default worker count (the CLI's `--threads`
/// flag). `None` or `Some(0)` clears it back to auto-detection.
pub fn set_default_threads(threads: Option<usize>) {
    DEFAULT_THREADS.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Resolves the worker count: `explicit` beats the
/// [`set_default_threads`] default, which beats `OEBENCH_THREADS`, which
/// beats the machine's available parallelism. Always at least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    let default = DEFAULT_THREADS.load(Ordering::Relaxed);
    if default > 0 {
        return default;
    }
    if let Some(n) = std::env::var("OEBENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Cooperative cancellation signal for one supervised cell attempt.
///
/// The watchdog thread *sets* the flag when an attempt's wall-clock
/// deadline expires; the evaluation loop *polls* it between windows (and
/// the item-level prequential loop between items) and bails out with a
/// typed [`HarnessError::CellTimedOut`](crate::error::HarnessError)
/// instead of hanging the sweep. A [`CancelFlag::never`] carries no
/// state and never fires, so the unsupervised path stays branch-cheap.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Option<Arc<AtomicBool>>);

impl CancelFlag {
    /// A flag that can never fire (the unsupervised default).
    pub fn never() -> CancelFlag {
        CancelFlag(None)
    }

    /// A live flag, initially not cancelled. Clones share the signal.
    pub fn armed() -> CancelFlag {
        CancelFlag(Some(Arc::new(AtomicBool::new(false))))
    }

    /// Fires the flag. A [`CancelFlag::never`] flag ignores this.
    pub fn cancel(&self) {
        if let Some(flag) = &self.0 {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Has the flag fired? One relaxed load on the armed path, a plain
    /// branch on the never path.
    pub fn is_cancelled(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

/// One worker's interface to the wall-clock watchdog.
///
/// Each cell *attempt* arms a fresh deadline ([`WatchdogSlot::arm`]), so
/// a retried cell gets its full wall budget back per attempt instead of
/// inheriting a burnt clock. Without a configured deadline, `arm`
/// returns [`CancelFlag::never`] and records nothing.
pub struct WatchdogSlot {
    deadline: Option<Duration>,
    // (attempt start, its cancel flag); None while the worker is idle.
    // A fresh flag per attempt makes firing race-free: a flag belongs to
    // exactly one attempt, so a late cancellation cannot leak into the
    // next cell the worker picks up.
    active: Mutex<Option<(std::time::Instant, CancelFlag)>>,
}

impl WatchdogSlot {
    fn new(deadline: Option<Duration>) -> WatchdogSlot {
        WatchdogSlot {
            deadline,
            active: Mutex::new(None),
        }
    }

    /// Starts a fresh wall-clock deadline for one attempt and returns
    /// the flag the attempt should poll.
    pub fn arm(&self) -> CancelFlag {
        if self.deadline.is_none() {
            return CancelFlag::never();
        }
        let flag = CancelFlag::armed();
        // oeb-lint: allow(raw-instant, wall-clock-in-results) -- watchdog deadline origin; the reading only feeds the cancel flag, never a result field
        let started = std::time::Instant::now();
        *lock_recover(&self.active) = Some((started, flag.clone()));
        flag
    }

    /// Clears the active deadline (the attempt finished on its own).
    pub fn disarm(&self) {
        if self.deadline.is_some() {
            *lock_recover(&self.active) = None;
        }
    }

    /// Watchdog-side sweep: fire and clear the flag if the active
    /// attempt has outlived the deadline.
    fn expire(&self) {
        let Some(deadline) = self.deadline else {
            return;
        };
        let mut active = lock_recover(&self.active);
        if let Some((started, flag)) = active.as_ref() {
            if started.elapsed() >= deadline {
                flag.cancel();
                WATCHDOG_FIRED.incr();
                *active = None;
            }
        }
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock: every value
/// behind these locks is valid under torn updates (an `Option` slot is
/// either written or not), so a panicking holder must not cascade.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Maps `f` over `0..n` on up to `threads` workers and returns the
/// results in index order.
///
/// Workers claim indices from a shared counter (work stealing by
/// construction) and deposit each result in its index's slot, so the
/// output is identical to `(0..n).map(f).collect()` whenever `f(i)`
/// depends only on `i` — the parallel sweep stays bit-identical to the
/// sequential one. `f` must not panic: a panicking worker aborts the
/// scope (callers wanting isolation catch panics inside `f`, as
/// `run_isolated` does).
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_watchdog(n, threads, None, |i, _| f(i))
}

/// [`parallel_map`] supervised by a wall-clock watchdog.
///
/// `f` receives its worker's [`WatchdogSlot`]; each cell attempt calls
/// [`WatchdogSlot::arm`] to start a deadline and polls the returned
/// [`CancelFlag`] cooperatively. When `wall_deadline` is `None` the
/// watchdog thread is never spawned and arming is free — this path is
/// byte-identical to the historical unsupervised executor.
pub fn parallel_map_watchdog<T, F>(
    n: usize,
    threads: usize,
    wall_deadline: Option<Duration>,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &WatchdogSlot) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        SEQUENTIAL_RUNS.incr();
        let slot = WatchdogSlot::new(wall_deadline);
        return with_watchdog(wall_deadline, std::slice::from_ref(&slot), || {
            (0..n)
                .map(|i| {
                    let _task = TASK_SPAN.start();
                    CLAIMS.incr();
                    f(i, &slot)
                })
                .collect()
        });
    }
    PARALLEL_RUNS.incr();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    WORKERS.set(workers as u64);
    let dog_slots: Vec<WatchdogSlot> = (0..workers)
        .map(|_| WatchdogSlot::new(wall_deadline))
        .collect();
    let (slots_ref, next_ref, f_ref, dog_ref) = (&slots, &next, &f, &dog_slots);
    with_watchdog(wall_deadline, &dog_slots, || {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (slots, next, f) = (slots_ref, next_ref, f_ref);
                let dog_slot = &dog_ref[w];
                scope.spawn(move || {
                    // Slot w+1 mirrors the result-slot discipline: the trace
                    // stream merges per-worker buffers in slot order, so the
                    // export is stably ordered however the OS scheduled us.
                    // (The spawning thread keeps slot 0.)
                    oeb_trace::set_thread_slot(w as u32 + 1);
                    let worker = WORKER_SPAN.start();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        CLAIMS.incr();
                        QUEUE_DEPTH.set((n - i) as u64);
                        let _task = TASK_SPAN.start();
                        let result = f(i, dog_slot);
                        dog_slot.disarm();
                        *lock_recover(&slots[i]) = Some(result);
                    }
                    // Flush before the closure returns: `thread::scope`
                    // releases the parent when the closure ends, which can
                    // be before this thread's TLS destructors run — a
                    // drain on the parent would miss the backstop flush.
                    drop(worker);
                    oeb_trace::flush_thread();
                });
            }
        });
    });
    slots
        .into_iter()
        .map(|slot| lock_recover_into(slot).expect("every index claimed exactly once"))
        .collect()
}

fn lock_recover_into<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `body` with (when a deadline is configured) a watchdog thread
/// periodically expiring overdue attempts in `slots`. The thread is
/// joined before this returns.
fn with_watchdog<R>(
    wall_deadline: Option<Duration>,
    slots: &[WatchdogSlot],
    body: impl FnOnce() -> R,
) -> R {
    let Some(deadline) = wall_deadline else {
        return body();
    };
    // Poll at an eighth of the deadline, clamped to [1ms, 50ms]: fine
    // enough that an expired cell is cancelled promptly, coarse enough
    // that the watchdog is invisible in profiles.
    let poll = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(50));
    let stop = AtomicBool::new(false);
    let (stop_ref, slots_ref) = (&stop, slots);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                for slot in slots_ref {
                    slot.expire();
                }
                std::thread::sleep(poll);
            }
        });
        let result = body();
        stop.store(true, Ordering::SeqCst);
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_index_order() {
        let seq = parallel_map(64, 1, |i| i * i);
        let par = parallel_map(64, 4, |i| i * i);
        assert_eq!(seq, par);
        assert_eq!(par[10], 100);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(parallel_map(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn uneven_work_is_stolen_not_blocked() {
        // One slow item must not serialize the rest: with 2 workers the
        // 15 fast items all complete while the slow one runs.
        let out = parallel_map(16, 2, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_threads_beat_everything() {
        assert_eq!(resolve_threads(Some(3)), 3);
        // Zero means "unset", falling through to the next source.
        assert!(resolve_threads(Some(0)) >= 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn default_threads_are_consulted_when_no_explicit_value() {
        set_default_threads(Some(5));
        assert_eq!(resolve_threads(None), 5);
        assert_eq!(resolve_threads(Some(2)), 2);
        set_default_threads(None);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn never_flag_ignores_cancellation() {
        let flag = CancelFlag::never();
        flag.cancel();
        assert!(!flag.is_cancelled());
        let armed = CancelFlag::armed();
        assert!(!armed.is_cancelled());
        armed.cancel();
        assert!(armed.is_cancelled());
    }

    #[test]
    fn watchdog_cancels_an_overrunning_task() {
        // A 5ms deadline over a task that polls its flag: the watchdog
        // must fire and the task must observe the cancellation.
        let out = parallel_map_watchdog(2, 2, Some(Duration::from_millis(5)), |i, dog| {
            let flag = dog.arm();
            for _ in 0..2_000 {
                if flag.is_cancelled() {
                    return (i, true);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (i, false)
        });
        assert_eq!(out.len(), 2);
        for (i, cancelled) in out {
            assert!(cancelled, "task {i} ran past a 5ms deadline uncancelled");
        }
    }

    #[test]
    fn generous_deadline_never_fires() {
        let out = parallel_map_watchdog(8, 4, Some(Duration::from_secs(60)), |i, dog| {
            let flag = dog.arm();
            assert!(!flag.is_cancelled());
            i * 3
        });
        assert_eq!(out, (0..8).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn disarm_prevents_a_stale_cancellation() {
        // A finished attempt's flag must never fire after disarm, even
        // once its start time is long past the deadline.
        let slot = WatchdogSlot::new(Some(Duration::from_millis(0)));
        let flag = slot.arm();
        slot.disarm();
        std::thread::sleep(Duration::from_millis(2));
        slot.expire();
        assert!(!flag.is_cancelled(), "disarmed attempt was cancelled");
        // A fresh attempt on the same slot gets its own flag.
        let second = slot.arm();
        slot.expire();
        assert!(second.is_cancelled());
        assert!(!flag.is_cancelled(), "old flag fired for a new attempt");
    }

    #[test]
    fn unconfigured_watchdog_arms_to_a_never_flag() {
        let slot = WatchdogSlot::new(None);
        let flag = slot.arm();
        slot.expire();
        assert!(!flag.is_cancelled());
    }
}
