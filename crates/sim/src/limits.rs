//! Resource budgets and cooperative cancellation.
//!
//! Long-running evaluation (batch requests, mapper searches, the future
//! `teaal serve` daemon) needs every run to be *interruptible*: a
//! pathological spec must degrade into a structured error carrying the
//! telemetry gathered so far — never a hang, an abort, or an unbounded
//! allocation. Two pieces provide that:
//!
//! - [`EvalLimits`] declares the budgets: a wall-clock deadline, a cap
//!   on engine steps (loop-rank visits), a cap on produced output
//!   entries, and a resident-byte bound for the shared caches.
//! - [`CancelToken`] enforces them cooperatively. It is a cheap shared
//!   handle (an `Arc` of atomics) charged by the engine's hot loop and
//!   polled at coarse boundaries — co-iteration streams, shard loops,
//!   transform steps, mapper candidates. The hot-loop cost is one
//!   relaxed `fetch_add` plus a compare; the `Instant::now()` deadline
//!   check is amortized to once per 1024 steps.
//!
//! Exceeding a budget surfaces as
//! [`SimError::DeadlineExceeded`] / [`SimError::BudgetExceeded`] /
//! [`SimError::Cancelled`], each carrying a [`Progress`] snapshot.
//! Because polls are amortized, enforcement is slightly lazy: a run may
//! overshoot a budget by up to one poll interval before the error
//! returns — the contract is prompt termination, not exact metering.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::SimError;

/// How often (in engine steps) the token re-checks the wall clock and
/// the external cancel flag; budgets are checked on every charge.
const POLL_MASK_BITS: u32 = 10; // every 1024 steps

/// Declarative resource budgets for one evaluation (or one shared
/// session — attach the same limits to a context to bound its caches).
///
/// `None`/default means unbounded. Build with the `with_*` methods:
///
/// ```
/// use std::time::Duration;
/// let limits = teaal_sim::EvalLimits::default()
///     .with_deadline(Duration::from_millis(500))
///     .with_max_engine_steps(1_000_000);
/// assert!(limits.is_limited());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvalLimits {
    /// Wall-clock budget, anchored when a [`CancelToken`] is created.
    pub deadline: Option<Duration>,
    /// Maximum engine steps (loop-rank visits across the whole run).
    pub max_engine_steps: Option<u64>,
    /// Maximum output entries materialized across all output tensors.
    pub max_output_entries: Option<u64>,
    /// Resident-byte bound shared by the evaluation caches (transform /
    /// plan / report); enforced by LRU eviction, not by erroring.
    pub max_resident_cache_bytes: Option<u64>,
}

impl EvalLimits {
    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the engine-step budget.
    #[must_use]
    pub fn with_max_engine_steps(mut self, steps: u64) -> Self {
        self.max_engine_steps = Some(steps);
        self
    }

    /// Sets the output-entry budget.
    #[must_use]
    pub fn with_max_output_entries(mut self, entries: u64) -> Self {
        self.max_output_entries = Some(entries);
        self
    }

    /// Whether any budget is set (if not, the engine skips token
    /// plumbing entirely).
    pub fn is_limited(&self) -> bool {
        self != &EvalLimits::default()
    }

    /// Merges these limits against a server-side cap: each budget is
    /// the *tighter* of the two (`None` means unbounded on that side).
    ///
    /// This is how `teaal serve` derives per-request limits — the
    /// client's overrides can only shrink the daemon's defaults, never
    /// widen them:
    ///
    /// ```
    /// use std::time::Duration;
    /// use teaal_sim::EvalLimits;
    /// let server = EvalLimits::default()
    ///     .with_deadline(Duration::from_secs(5))
    ///     .with_max_engine_steps(1_000_000);
    /// let client = EvalLimits::default()
    ///     .with_deadline(Duration::from_secs(60))
    ///     .with_max_output_entries(10_000);
    /// let merged = client.clamped_by(&server);
    /// assert_eq!(merged.deadline, Some(Duration::from_secs(5)));
    /// assert_eq!(merged.max_engine_steps, Some(1_000_000));
    /// assert_eq!(merged.max_output_entries, Some(10_000));
    /// ```
    #[must_use]
    pub fn clamped_by(&self, cap: &EvalLimits) -> EvalLimits {
        fn tighter<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (x, None) | (None, x) => x,
            }
        }
        EvalLimits {
            deadline: tighter(self.deadline, cap.deadline),
            max_engine_steps: tighter(self.max_engine_steps, cap.max_engine_steps),
            max_output_entries: tighter(self.max_output_entries, cap.max_output_entries),
            max_resident_cache_bytes: tighter(
                self.max_resident_cache_bytes,
                cap.max_resident_cache_bytes,
            ),
        }
    }
}

/// Work observed at the moment a budget tripped, carried inside the
/// structured error so callers keep partial telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Engine steps (loop-rank visits) performed.
    pub engine_steps: u64,
    /// Output entries materialized.
    pub output_entries: u64,
    /// Wall-clock milliseconds since the token was created.
    pub elapsed_ms: u64,
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} engine steps, {} output entries, {} ms",
            self.engine_steps, self.output_entries, self.elapsed_ms
        )
    }
}

/// Which [`EvalLimits`] budget a [`SimError::BudgetExceeded`] names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`EvalLimits::max_engine_steps`].
    EngineSteps,
    /// [`EvalLimits::max_output_entries`].
    OutputEntries,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::EngineSteps => write!(f, "engine-step"),
            BudgetKind::OutputEntries => write!(f, "output-entry"),
        }
    }
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    start: Instant,
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    max_outputs: Option<u64>,
    steps: AtomicU64,
    outputs: AtomicU64,
}

/// A shared cooperative-cancellation handle enforcing [`EvalLimits`].
///
/// Clones share one budget: charge it from any thread, cancel it from
/// any thread, and every holder observes the trip at its next poll.
/// The deadline is anchored at [`CancelToken::new`] — create the token
/// when the user's request starts, then share it across retries, graph
/// supersteps, or mapper candidates so the whole session shares one
/// clock.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// Creates a token enforcing `limits`, anchoring the deadline now.
    pub fn new(limits: &EvalLimits) -> Self {
        let start = Instant::now();
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                start,
                deadline: limits.deadline.map(|d| start + d),
                max_steps: limits.max_engine_steps,
                max_outputs: limits.max_output_entries,
                steps: AtomicU64::new(0),
                outputs: AtomicU64::new(0),
            }),
        }
    }

    /// A token with no budgets — it only trips if
    /// [`CancelToken::cancel`] is called.
    pub fn unlimited() -> Self {
        CancelToken::new(&EvalLimits::default())
    }

    /// Requests cancellation; every holder errors with
    /// [`SimError::Cancelled`] at its next poll.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Work charged against this token so far.
    pub fn progress(&self) -> Progress {
        Progress {
            engine_steps: self.inner.steps.load(Ordering::Relaxed),
            output_entries: self.inner.outputs.load(Ordering::Relaxed),
            elapsed_ms: self.inner.start.elapsed().as_millis() as u64,
        }
    }

    /// Charges `n` engine steps; the hot-loop entry point.
    ///
    /// Cost is one relaxed `fetch_add` plus a compare. The wall-clock
    /// and external-cancel checks run only when the counter crosses a
    /// 1024-step boundary, so `Instant::now()` stays off the hot path.
    ///
    /// # Errors
    ///
    /// [`SimError::BudgetExceeded`] when the step budget is exhausted;
    /// [`SimError::Cancelled`] / [`SimError::DeadlineExceeded`] from
    /// the amortized poll.
    #[inline]
    pub fn charge_steps(&self, n: u64) -> Result<(), SimError> {
        let inner = &*self.inner;
        let old = inner.steps.fetch_add(n, Ordering::Relaxed);
        let new = old.saturating_add(n);
        if let Some(limit) = inner.max_steps {
            if new > limit {
                return Err(SimError::BudgetExceeded {
                    resource: BudgetKind::EngineSteps,
                    limit,
                    used: new,
                    progress: self.progress(),
                });
            }
        }
        if (old >> POLL_MASK_BITS) != (new >> POLL_MASK_BITS) {
            self.poll()?;
        }
        Ok(())
    }

    /// Charges `n` materialized output entries.
    ///
    /// # Errors
    ///
    /// [`SimError::BudgetExceeded`] when the output budget is
    /// exhausted.
    #[inline]
    pub fn charge_outputs(&self, n: u64) -> Result<(), SimError> {
        let inner = &*self.inner;
        let new = inner
            .outputs
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        if let Some(limit) = inner.max_outputs {
            if new > limit {
                return Err(SimError::BudgetExceeded {
                    resource: BudgetKind::OutputEntries,
                    limit,
                    used: new,
                    progress: self.progress(),
                });
            }
        }
        Ok(())
    }

    /// Full check — external cancel flag, deadline, and both budgets.
    /// Called at coarse boundaries: stream starts, shard loops,
    /// transform steps, mapper candidates, graph supersteps.
    ///
    /// # Errors
    ///
    /// The matching [`SimError`] variant for whichever trip fires
    /// first, carrying a [`Progress`] snapshot.
    pub fn checkpoint(&self) -> Result<(), SimError> {
        self.poll()?;
        let inner = &*self.inner;
        if let Some(limit) = inner.max_steps {
            let used = inner.steps.load(Ordering::Relaxed);
            if used > limit {
                return Err(SimError::BudgetExceeded {
                    resource: BudgetKind::EngineSteps,
                    limit,
                    used,
                    progress: self.progress(),
                });
            }
        }
        if let Some(limit) = inner.max_outputs {
            let used = inner.outputs.load(Ordering::Relaxed);
            if used > limit {
                return Err(SimError::BudgetExceeded {
                    resource: BudgetKind::OutputEntries,
                    limit,
                    used,
                    progress: self.progress(),
                });
            }
        }
        Ok(())
    }

    /// The slow half of the amortized check: cancel flag + deadline.
    fn poll(&self) -> Result<(), SimError> {
        let inner = &*self.inner;
        if inner.cancelled.load(Ordering::Relaxed) {
            return Err(SimError::Cancelled {
                progress: self.progress(),
            });
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(SimError::DeadlineExceeded {
                    progress: self.progress(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_are_unbounded() {
        assert!(!EvalLimits::default().is_limited());
        let token = CancelToken::unlimited();
        for _ in 0..10 {
            token.charge_steps(10_000).unwrap();
        }
        token.charge_outputs(1 << 40).unwrap();
        token.checkpoint().unwrap();
    }

    #[test]
    fn clamping_takes_the_tighter_of_each_budget() {
        let server = EvalLimits::default()
            .with_deadline(Duration::from_millis(100))
            .with_max_engine_steps(50);
        let client = EvalLimits::default()
            .with_deadline(Duration::from_millis(500))
            .with_max_engine_steps(10)
            .with_max_output_entries(7);
        let merged = client.clamped_by(&server);
        assert_eq!(merged.deadline, Some(Duration::from_millis(100)));
        assert_eq!(merged.max_engine_steps, Some(10));
        assert_eq!(merged.max_output_entries, Some(7));
        assert_eq!(merged.max_resident_cache_bytes, None);
        // Clamping by unbounded caps is the identity.
        assert_eq!(client.clamped_by(&EvalLimits::default()), client);
        // Unbounded requests inherit the caps wholesale.
        assert_eq!(EvalLimits::default().clamped_by(&server), server);
    }

    #[test]
    fn step_budget_trips_with_progress() {
        let token = CancelToken::new(&EvalLimits::default().with_max_engine_steps(100));
        token.charge_steps(100).unwrap();
        let err = token.charge_steps(1).unwrap_err();
        match err {
            SimError::BudgetExceeded {
                resource: BudgetKind::EngineSteps,
                limit: 100,
                used: 101,
                progress,
            } => assert_eq!(progress.engine_steps, 101),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn output_budget_trips() {
        let token = CancelToken::new(&EvalLimits::default().with_max_output_entries(5));
        token.charge_outputs(5).unwrap();
        assert!(matches!(
            token.charge_outputs(1),
            Err(SimError::BudgetExceeded {
                resource: BudgetKind::OutputEntries,
                ..
            })
        ));
    }

    #[test]
    fn expired_deadline_fires_at_checkpoint() {
        let token = CancelToken::new(&EvalLimits::default().with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            token.checkpoint(),
            Err(SimError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn deadline_fires_on_amortized_step_poll() {
        let token = CancelToken::new(&EvalLimits::default().with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        // Single-step charges must still observe the deadline within one
        // poll interval (1024 steps).
        let mut tripped = None;
        for i in 0..2048 {
            if let Err(e) = token.charge_steps(1) {
                tripped = Some((i, e));
                break;
            }
        }
        let (steps, err) = tripped.expect("deadline observed within 2048 steps");
        assert!(steps < 2048);
        assert!(matches!(err, SimError::DeadlineExceeded { .. }));
    }

    #[test]
    fn external_cancel_is_shared_across_clones() {
        let token = CancelToken::unlimited();
        let clone = token.clone();
        clone.cancel();
        let err = token.checkpoint().unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }));
    }

    #[test]
    fn progress_display_is_humane() {
        let p = Progress {
            engine_steps: 7,
            output_entries: 3,
            elapsed_ms: 12,
        };
        assert_eq!(p.to_string(), "7 engine steps, 3 output entries, 12 ms");
    }
}
