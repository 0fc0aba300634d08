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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use oeb_trace::{Counter, Gauge, SpanDef};

/// `executor.*` instruments are the one family *excluded* from the
/// schedule-invariance contract: which worker claims which index is real
/// scheduling information, and that is exactly what they report.
static CLAIMS: Counter = Counter::new("executor.claims");
static SEQUENTIAL_RUNS: Counter = Counter::new("executor.sequential_runs");
static PARALLEL_RUNS: Counter = Counter::new("executor.parallel_runs");
static QUEUE_DEPTH: Gauge = Gauge::new("executor.queue.depth");
static WORKERS: Gauge = Gauge::new("executor.workers");
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
/// scope (callers wanting isolation catch panics inside `f`, as the
/// grid runner `crate::sweep::run_grid` does for every run).
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        SEQUENTIAL_RUNS.incr();
        return (0..n)
            .map(|i| {
                let _task = TASK_SPAN.start();
                CLAIMS.incr();
                f(i)
            })
            .collect();
    }
    PARALLEL_RUNS.incr();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    WORKERS.set(workers as u64);
    let (slots_ref, next_ref, f_ref) = (&slots, &next, &f);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (slots, next, f) = (slots_ref, next_ref, f_ref);
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
                    let result = f(i);
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
    slots
        .into_iter()
        .map(|slot| lock_recover_into(slot).expect("every index claimed exactly once"))
        .collect()
}

fn lock_recover_into<T>(m: Mutex<T>) -> T {
    m.into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
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
}
