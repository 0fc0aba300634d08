//! Cell supervision: logical deadlines, a wall-clock deadline, seeded
//! retry with exponential backoff, and quarantine.
//!
//! A benchmark sweep over hostile streams needs more than panic
//! isolation: a cell can *hang* (a diverging learner grinding through a
//! pathological window), *thrash* (transient non-finite losses that a
//! fresh attempt would survive), or fail every attempt it is given. The
//! supervision layer bounds all three without giving up determinism:
//!
//! - **Logical deadlines** ([`CellBudget`]) cap the windows a cell
//!   enters. They are checked cooperatively inside the evaluate loop, so hitting one is a pure function of the stream — replays are
//!   bit-identical at any thread count.
//! - **Wall-clock deadlines** ride the same budget: each attempt's
//!   [`CellBudget`] starts a clock, and the same cooperative checks read
//!   it. Wall timeouts are machine noise by definition, so they are
//!   *retryable* and their counter lives under the `supervise.wall.`
//!   prefix, which the trace layer excludes from the
//!   schedule-invariance contract.
//! - **Seeded retry** ([`supervise_cell`]): every retry decision —
//!   whether to retry, how long to back off — derives from the cell's
//!   seed ([`cell_seed`]) and the attempt number, never from a clock or
//!   a global RNG, so a replayed cell spends its budget identically.
//! - **Quarantine**: a cell that exhausts its retry budget becomes a
//!   typed [`HarnessError::Quarantined`] outcome, serialized into the
//!   sweep report and checkpoint, instead of aborting the run.

use crate::error::HarnessError;
use oeb_trace::{Counter, Stopwatch};
use std::time::Duration;

// Supervision instruments. `supervise.retries`, `supervise.timeouts`
// (logical) and `supervise.quarantined` are deterministic: on a fixed
// grid with fixed seeds they count the same events on every run at every
// thread count. The `supervise.wall.*` family is machine-dependent by
// construction (a wall clock fired) and is excluded from the
// schedule-invariance contract in `oeb_trace`.
static RETRIES: Counter = Counter::new("supervise.retries");
static TIMEOUTS: Counter = Counter::new("supervise.timeouts");
static QUARANTINED: Counter = Counter::new("supervise.quarantined");
static WALL_TIMEOUTS: Counter = Counter::new("supervise.wall.timeouts");
static WALL_RETRIES: Counter = Counter::new("supervise.wall.retries");

/// Largest backoff exponent: caps the schedule at `base * 2^6` so a deep
/// retry budget cannot sleep a sweep for minutes.
const MAX_BACKOFF_EXP: u32 = 6;

/// How a sweep supervises its cells, carried as
/// [`HarnessConfig::supervise`](crate::harness::HarnessConfig::supervise).
/// The default is fully unsupervised — no deadlines, no retries — so a
/// default config runs every cell once, unbudgeted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisePolicy {
    /// Logical deadline: windows a cell may *enter* (warm-up included).
    pub max_windows: Option<usize>,
    /// Wall-clock deadline per *attempt* of the evaluate stage.
    /// Machine-dependent; an expired deadline is retryable.
    pub wall_deadline: Option<Duration>,
    /// Retries a failing cell may spend before quarantine. `0` disables
    /// retry and quarantine entirely: failures stay plain failures.
    pub max_retries: usize,
    /// Base backoff before the first retry; attempt `k` backs off
    /// `base * 2^(k-1)` plus seeded jitter in `[0, base)`.
    pub backoff_base: Duration,
}

impl SupervisePolicy {
    /// No deadlines, no retries: the historical sweep behaviour.
    pub fn unsupervised() -> SupervisePolicy {
        SupervisePolicy {
            max_windows: None,
            wall_deadline: None,
            max_retries: 0,
            backoff_base: Duration::from_millis(10),
        }
    }

    /// Is any supervision feature active?
    pub fn is_active(&self) -> bool {
        self.max_windows.is_some() || self.wall_deadline.is_some() || self.max_retries > 0
    }

    /// A fresh budget for one attempt: the logical limit, and a wall
    /// clock started now when a deadline is set. A retried cell calls
    /// this again, so each attempt gets its full wall budget back.
    pub fn budget(&self) -> CellBudget {
        CellBudget {
            max_windows: self.max_windows,
            wall: self.wall_deadline.map(|limit| (Stopwatch::start(), limit)),
        }
    }
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy::unsupervised()
    }
}

/// One attempt's deadline state, threaded into the evaluate loop.
/// [`CellBudget::check`] is the single
/// cooperative cancellation point: it reports a logical deadline
/// (deterministic) or an expired wall-clock deadline (machine noise) as
/// a typed [`HarnessError::CellTimedOut`].
#[derive(Debug, Clone, Default)]
pub struct CellBudget {
    /// Windows the attempt may enter.
    pub max_windows: Option<usize>,
    /// The attempt's start and the wall-clock time it may take.
    pub wall: Option<(Stopwatch, Duration)>,
}

impl CellBudget {
    /// A budget that never expires (the unsupervised path).
    pub fn unlimited() -> CellBudget {
        CellBudget::default()
    }

    /// Cooperative deadline check with the attempt's progress so far
    /// (`items` is reported in the timeout, not bounded).
    ///
    /// The clock is read only when a wall deadline is set, and *after*
    /// the logical bound: when both would fire, the deterministic
    /// verdict wins so replays agree.
    pub fn check(&self, windows: usize, items: usize) -> Result<(), HarnessError> {
        let logical = self.max_windows.is_some_and(|m| windows >= m);
        let wall = !logical
            && self
                .wall
                .as_ref()
                .is_some_and(|(started, limit)| started.elapsed_seconds() >= limit.as_secs_f64());
        if logical || wall {
            return Err(HarnessError::CellTimedOut {
                windows,
                items,
                wall,
            });
        }
        Ok(())
    }
}

/// Stable per-cell seed: FNV-1a over the sweep seed and the cell's
/// coordinates, finished with a SplitMix64 avalanche. Every retry and
/// backoff decision for the cell derives from this value, so replaying a
/// sweep replays its retry sequences bit-for-bit.
pub fn cell_seed(sweep_seed: u64, dataset: &str, algorithm: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h = FNV_OFFSET;
    for chunk in [
        &sweep_seed.to_le_bytes()[..],
        dataset.as_bytes(),
        b"|",
        algorithm.as_bytes(),
    ] {
        for &b in chunk {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    splitmix64(h)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The backoff before retry `k` (1-based): `base * 2^(k-1)` capped at
/// `2^6`, plus seeded jitter in `[0, base)`. Pure in `(seed, k, base)`.
pub fn backoff_duration(seed: u64, retry: usize, base: Duration) -> Duration {
    let exp = (retry.saturating_sub(1) as u32).min(MAX_BACKOFF_EXP);
    let jitter_ms = if base.as_millis() > 0 {
        splitmix64(seed ^ (retry as u64).wrapping_mul(0x9e3779b97f4a7c15)) % base.as_millis() as u64
    } else {
        0
    };
    base * 2u32.pow(exp) + Duration::from_millis(jitter_ms)
}

/// What supervision did to one cell, beyond the result itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Supervised<T> {
    /// The final result: success, a non-retryable failure, a logical
    /// timeout, or [`HarnessError::Quarantined`] after an exhausted
    /// budget.
    pub result: Result<T, HarnessError>,
    /// Attempts spent (≥ 1).
    pub attempts: usize,
    /// Backoffs actually slept, in order, in milliseconds. Deterministic
    /// in the cell seed whenever the attempt failures are.
    pub backoff_ms: Vec<u64>,
}

impl<T> Supervised<T> {
    /// One deterministic line for
    /// [`RunResult::degradations`](crate::harness::RunResult::degradations)
    /// when the cell needed retries to succeed, so supervision history
    /// survives checkpoint round-trips.
    pub fn recovery_note(&self) -> Option<String> {
        if self.attempts <= 1 || self.result.is_err() {
            return None;
        }
        let backoffs: Vec<String> = self.backoff_ms.iter().map(|ms| format!("{ms}ms")).collect();
        Some(format!(
            "supervision: recovered on attempt {} (backoff [{}])",
            self.attempts,
            backoffs.join(", ")
        ))
    }
}

/// Drives one cell through the retry state machine.
///
/// `attempt` is invoked with the 0-based attempt number; it should run
/// the cell under a *fresh* [`CellBudget`] per call. Retryable failures
/// ([`HarnessError::is_retryable`]) spend the budget with seeded
/// exponential backoff between attempts; exhausting it yields
/// [`HarnessError::Quarantined`]. Non-retryable failures — including
/// deterministic logical timeouts — return immediately. With `max_retries == 0` the attempt's own error is
/// returned untouched, which keeps the unsupervised path's outcomes
/// byte-identical to the historical sweep.
pub fn supervise_cell<T>(
    policy: &SupervisePolicy,
    seed: u64,
    mut attempt: impl FnMut(usize) -> Result<T, HarnessError>,
) -> Supervised<T> {
    let mut backoff_ms = Vec::new();
    let mut k = 0usize;
    loop {
        match attempt(k) {
            Ok(value) => {
                return Supervised {
                    result: Ok(value),
                    attempts: k + 1,
                    backoff_ms,
                }
            }
            Err(e) => {
                if let HarnessError::CellTimedOut { wall, .. } = &e {
                    if *wall {
                        WALL_TIMEOUTS.incr();
                    } else {
                        TIMEOUTS.incr();
                    }
                }
                if !e.is_retryable() || policy.max_retries == 0 {
                    return Supervised {
                        result: Err(e),
                        attempts: k + 1,
                        backoff_ms,
                    };
                }
                if k >= policy.max_retries {
                    QUARANTINED.incr();
                    return Supervised {
                        result: Err(HarnessError::Quarantined {
                            attempts: k + 1,
                            last_kind: e.kind().to_string(),
                            reason: e.to_string(),
                        }),
                        attempts: k + 1,
                        backoff_ms,
                    };
                }
                // Wall-triggered retries are machine noise; everything
                // else (panics, fault-injected divergence, I/O) recurs
                // deterministically on a fixed grid.
                if matches!(&e, HarnessError::CellTimedOut { wall: true, .. }) {
                    WALL_RETRIES.incr();
                } else {
                    RETRIES.incr();
                }
                k += 1;
                let pause = backoff_duration(seed, k, policy.backoff_base);
                backoff_ms.push(pause.as_millis() as u64);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(kind: &str) -> HarnessError {
        match kind {
            "panic" => HarnessError::Panicked("boom".into()),
            "config" => HarnessError::InvalidConfig("bad".into()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn unlimited_budget_never_expires() {
        let b = CellBudget::unlimited();
        assert!(b.check(usize::MAX - 1, usize::MAX - 1).is_ok());
        // The default policy's budget reads no clock either.
        let b = SupervisePolicy::unsupervised().budget();
        assert!(b.wall.is_none());
        assert!(b.check(usize::MAX - 1, usize::MAX - 1).is_ok());
    }

    #[test]
    fn logical_deadlines_fire_deterministically() {
        let b = CellBudget {
            max_windows: Some(5),
            ..CellBudget::unlimited()
        };
        assert!(b.check(4, 999).is_ok());
        let e = b.check(5, 10).unwrap_err();
        assert!(
            matches!(e, HarnessError::CellTimedOut { wall: false, .. }),
            "{e}"
        );
    }

    fn wall_budget(deadline: Duration, max_windows: Option<usize>) -> CellBudget {
        SupervisePolicy {
            max_windows,
            wall_deadline: Some(deadline),
            ..SupervisePolicy::unsupervised()
        }
        .budget()
    }

    #[test]
    fn expired_deadline_reports_a_wall_timeout() {
        let generous = wall_budget(Duration::from_secs(3600), None);
        assert!(generous.check(3, 30).is_ok());
        let e = wall_budget(Duration::ZERO, None).check(3, 30).unwrap_err();
        assert!(matches!(
            e,
            HarnessError::CellTimedOut {
                windows: 3,
                items: 30,
                wall: true
            }
        ));
    }

    #[test]
    fn logical_verdict_wins_over_a_simultaneous_wall_timeout() {
        // Both deadlines hold; the deterministic one must be reported so
        // replays without the wall race agree.
        let e = wall_budget(Duration::ZERO, Some(2))
            .check(2, 0)
            .unwrap_err();
        assert!(matches!(e, HarnessError::CellTimedOut { wall: false, .. }));
    }

    #[test]
    fn cell_seed_separates_coordinates_and_is_stable() {
        let a = cell_seed(7, "Electricity Prices", "ARF");
        assert_eq!(a, cell_seed(7, "Electricity Prices", "ARF"));
        assert_ne!(a, cell_seed(8, "Electricity Prices", "ARF"));
        assert_ne!(a, cell_seed(7, "Electricity Prices", "EWC"));
        assert_ne!(a, cell_seed(7, "Beijing PM2.5", "ARF"));
        // The separator keeps ("ab", "c") and ("a", "bc") distinct.
        assert_ne!(cell_seed(0, "ab", "c"), cell_seed(0, "a", "bc"));
    }

    #[test]
    fn backoff_grows_exponentially_with_seeded_jitter() {
        let base = Duration::from_millis(10);
        let b1 = backoff_duration(42, 1, base);
        let b2 = backoff_duration(42, 2, base);
        let b3 = backoff_duration(42, 3, base);
        assert!((10..20).contains(&(b1.as_millis() as u64)), "{b1:?}");
        assert!((20..30).contains(&(b2.as_millis() as u64)), "{b2:?}");
        assert!((40..50).contains(&(b3.as_millis() as u64)), "{b3:?}");
        // Replay is bit-identical; a different seed jitters differently
        // for at least one retry index.
        assert_eq!(b2, backoff_duration(42, 2, base));
        assert!(
            (1..=8).any(|k| backoff_duration(42, k, base) != backoff_duration(43, k, base)),
            "jitter ignored the seed"
        );
        // The exponent is capped.
        let huge = backoff_duration(42, 100, base);
        assert!(huge < base * 2u32.pow(MAX_BACKOFF_EXP) + base);
    }

    #[test]
    fn success_on_first_attempt_spends_nothing() {
        let policy = SupervisePolicy {
            max_retries: 3,
            backoff_base: Duration::ZERO,
            ..SupervisePolicy::unsupervised()
        };
        let out = supervise_cell(&policy, 1, |_| Ok::<_, HarnessError>(99));
        assert_eq!(out.attempts, 1);
        assert!(out.backoff_ms.is_empty());
        assert!(out.recovery_note().is_none());
        assert_eq!(out.result.unwrap(), 99);
    }

    #[test]
    fn retryable_failure_recovers_and_notes_the_attempts() {
        let policy = SupervisePolicy {
            max_retries: 3,
            backoff_base: Duration::from_millis(1),
            ..SupervisePolicy::unsupervised()
        };
        let out = supervise_cell(
            &policy,
            5,
            |k| {
                if k < 2 {
                    Err(fail("panic"))
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(out.result.as_ref().unwrap(), &7);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.backoff_ms.len(), 2);
        let note = out.recovery_note().unwrap();
        assert!(note.contains("attempt 3"), "{note}");
        // The note is deterministic: same seed, same failures, same text.
        let again = supervise_cell(
            &policy,
            5,
            |k| {
                if k < 2 {
                    Err(fail("panic"))
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(again.recovery_note().unwrap(), note);
    }

    #[test]
    fn exhausted_budget_quarantines_with_the_last_failure() {
        let policy = SupervisePolicy {
            max_retries: 2,
            backoff_base: Duration::ZERO,
            ..SupervisePolicy::unsupervised()
        };
        let out = supervise_cell(&policy, 9, |_| Err::<(), _>(fail("panic")));
        assert_eq!(out.attempts, 3);
        match out.result.unwrap_err() {
            HarnessError::Quarantined {
                attempts,
                last_kind,
                reason,
            } => {
                assert_eq!(attempts, 3);
                assert_eq!(last_kind, "panicked");
                assert!(reason.contains("boom"));
            }
            other => panic!("expected quarantine, got {other}"),
        }
    }

    #[test]
    fn non_retryable_failure_short_circuits() {
        let policy = SupervisePolicy {
            max_retries: 5,
            backoff_base: Duration::ZERO,
            ..SupervisePolicy::unsupervised()
        };
        let mut calls = 0;
        let out = supervise_cell(&policy, 2, |_| {
            calls += 1;
            Err::<(), _>(fail("config"))
        });
        assert_eq!(calls, 1);
        assert!(matches!(
            out.result.unwrap_err(),
            HarnessError::InvalidConfig(_)
        ));
    }

    #[test]
    fn logical_timeout_is_not_retried() {
        let policy = SupervisePolicy {
            max_retries: 5,
            backoff_base: Duration::ZERO,
            ..SupervisePolicy::unsupervised()
        };
        let mut calls = 0;
        let out = supervise_cell(&policy, 2, |_| {
            calls += 1;
            Err::<(), _>(HarnessError::CellTimedOut {
                windows: 4,
                items: 160,
                wall: false,
            })
        });
        assert_eq!(calls, 1, "a deterministic timeout must not burn budget");
        assert!(matches!(
            out.result.unwrap_err(),
            HarnessError::CellTimedOut { wall: false, .. }
        ));
    }

    #[test]
    fn zero_retry_policy_returns_the_plain_error() {
        // The unsupervised path must never rewrite failures into
        // quarantine: with no retry budget the attempt's error passes
        // through untouched.
        let policy = SupervisePolicy::unsupervised();
        let out = supervise_cell(&policy, 0, |_| Err::<(), _>(fail("panic")));
        assert_eq!(out.attempts, 1);
        assert!(matches!(out.result.unwrap_err(), HarnessError::Panicked(_)));
    }
}
