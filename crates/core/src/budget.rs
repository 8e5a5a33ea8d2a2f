//! Execution budgets: deadlines, pivot caps, cooperative cancellation.
//!
//! A [`Budget`] travels from the query executor down into every transport
//! solve. The solver loops probe it every [`CHECK_INTERVAL`] pivots (and
//! once at solve entry) and bail out with
//! [`TransportError::BudgetExhausted`](crate::error::TransportError::BudgetExhausted)
//! instead of spinning, carrying a [`BudgetReason`] that upper layers use
//! to build degraded-but-principled answers from the lower bounds already
//! computed.
//!
//! `Budget::unlimited()` (the default) allocates nothing and reduces every
//! probe to a couple of `Option` tests, so unbudgeted solves stay
//! bit-identical and essentially free.
//!
//! Pivot accounting uses a *shared pool*: the cap bounds the cumulative
//! pivot count across every solve that carries a clone of the budget, so a
//! query-level `--max-pivots` limits the whole filter-and-refine run, not
//! each individual solve. Solvers charge in batches of `CHECK_INTERVAL`
//! and settle the remainder on successful exit, so the pool stays accurate
//! even across many small solves — and a solve that already reached its
//! optimum is never failed retroactively.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emd_faultkit::{Fault, FaultInjector, Site};

/// How many pivots a solver loop runs between budget probes.
///
/// Small enough that a deadline overshoot is bounded by tens of
/// microseconds of pivot work, large enough that the probe (an atomic add
/// plus an `Instant::now` when a deadline is set) is amortized to noise.
pub(crate) const CHECK_INTERVAL: u64 = 64;

/// Why a budget stopped the computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cumulative pivot pool was exhausted.
    PivotCap,
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// A fault-injection plan forced the exhaustion (tests only).
    Injected,
}

impl std::fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Deadline => write!(f, "deadline"),
            Self::PivotCap => write!(f, "pivot cap"),
            Self::Cancelled => write!(f, "cancelled"),
            Self::Injected => write!(f, "injected"),
        }
    }
}

/// Cooperative cancellation flag shared between a query and its caller.
///
/// Cloning shares the flag: cancel any clone and every budget holding one
/// observes it at its next probe.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untriggered token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; all holders observe it at their next probe.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) has been called on any clone.
    fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared cumulative pivot pool: `used` is incremented by every solver
/// that holds a clone of the budget; the cap bounds the sum.
#[derive(Debug, Clone)]
struct PivotPool {
    cap: u64,
    used: Arc<AtomicU64>,
}

/// An execution budget threaded from the executor into every solve.
///
/// All limits are optional and composable; the default is unlimited and
/// allocation-free. The pivot cap is a shared pool: it bounds the
/// cumulative pivot count of every solve that carries a clone of the
/// budget, so a query-level cap limits the whole filter-and-refine run.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    pivots: Option<PivotPool>,
    cancel: Option<CancelToken>,
    faults: Option<Arc<dyn FaultInjector>>,
}

impl Budget {
    /// The no-limit budget: every probe succeeds, nothing is allocated.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Adds a wall-clock deadline `timeout` from now.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        // lint: allow(nondeterminism): the wall clock IS the deadline contract;
        // results stay deterministic because expiry degrades, never reorders.
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Caps the cumulative pivot count across all solves sharing this
    /// budget (clones share the pool).
    #[must_use]
    pub fn with_pivot_cap(mut self, cap: u64) -> Self {
        self.pivots = Some(PivotPool {
            cap,
            used: Arc::new(AtomicU64::new(0)),
        });
        self
    }

    /// Attaches a cooperative cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a fault injector, probed at every solve entry and by the
    /// executor's worker probe before a query runs (tests only).
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<dyn FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The fault the attached injector asks `site` to simulate; `None`
    /// without an injector. Counts one occurrence of `site`.
    #[must_use]
    pub fn fault(&self, site: Site) -> Option<Fault> {
        self.faults.as_ref()?.check(site)
    }

    /// True if no limit of any kind is set.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.pivots.is_none()
            && self.cancel.is_none()
            && self.faults.is_none()
    }

    /// Cumulative pivots charged to the shared pool so far (0 if no cap).
    #[must_use]
    pub fn pivots_used(&self) -> u64 {
        self.pivots
            .as_ref()
            .map_or(0, |p| p.used.load(Ordering::Relaxed))
    }

    /// Probes every limit without charging work.
    ///
    /// # Errors
    ///
    /// Returns the [`BudgetReason`] of the first exhausted limit:
    /// cancellation, then deadline, then the pivot pool.
    pub fn check(&self) -> Result<(), BudgetReason> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(BudgetReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            // lint: allow(nondeterminism): deadline probe; callers surface
            // expiry as a degraded Outcome, never as a different answer.
            if Instant::now() >= deadline {
                return Err(BudgetReason::Deadline);
            }
        }
        if let Some(pool) = &self.pivots {
            if pool.used.load(Ordering::Relaxed) > pool.cap {
                return Err(BudgetReason::PivotCap);
            }
        }
        Ok(())
    }

    /// Charges `n` pivots to the shared pool, then probes every limit.
    ///
    /// # Errors
    ///
    /// Returns the [`BudgetReason`] of the first exhausted limit after the
    /// charge is applied; the charge itself always lands (so the pool stays
    /// accurate even on the failing probe).
    pub(crate) fn charge_pivots(&self, n: u64) -> Result<(), BudgetReason> {
        self.settle_pivots(n);
        self.check()
    }

    /// Charges `n` pivots to the shared pool without failing.
    ///
    /// Solvers call this on *successful* exit for the remainder below
    /// the probe interval: a solve that reached its optimum must report its
    /// work (so later solves see the true cumulative total) but must not be
    /// failed retroactively.
    pub fn settle_pivots(&self, n: u64) {
        if let Some(pool) = &self.pivots {
            pool.used.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Probes the fault injector and every limit at solve entry.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetReason::Injected`] when an attached fault plan fires
    /// at this solve occurrence, otherwise whatever [`check`](Self::check)
    /// reports.
    // lint: allow(unbudgeted): this method lives on Budget itself.
    pub fn note_solve(&self) -> Result<(), BudgetReason> {
        if self.fault(Site::Solve) == Some(Fault::BudgetExhausted) {
            return Err(BudgetReason::Injected);
        }
        self.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_faultkit::FailPlan;

    #[test]
    fn unlimited_budget_always_passes() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        assert_eq!(budget.check(), Ok(()));
        assert_eq!(budget.charge_pivots(1_000_000), Ok(()));
        assert_eq!(budget.note_solve(), Ok(()));
        assert_eq!(budget.pivots_used(), 0);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_cancel(token.clone());
        let clone = budget.clone();
        assert_eq!(clone.check(), Ok(()));
        token.cancel();
        assert_eq!(clone.check(), Err(BudgetReason::Cancelled));
        assert_eq!(budget.check(), Err(BudgetReason::Cancelled));
    }

    #[test]
    fn expired_deadline_fails_check() {
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(budget.check(), Err(BudgetReason::Deadline));
    }

    #[test]
    fn pivot_pool_is_cumulative_across_clones() {
        let budget = Budget::unlimited().with_pivot_cap(100);
        let clone = budget.clone();
        assert_eq!(budget.charge_pivots(60), Ok(()));
        assert_eq!(clone.charge_pivots(30), Ok(()));
        assert_eq!(budget.pivots_used(), 90);
        // 90 + 20 = 110 > 100: the charge lands, then the probe fails.
        assert_eq!(clone.charge_pivots(20), Err(BudgetReason::PivotCap));
        assert_eq!(budget.pivots_used(), 110);
    }

    #[test]
    fn settle_never_fails_but_later_checks_do() {
        let budget = Budget::unlimited().with_pivot_cap(10);
        budget.settle_pivots(50);
        assert_eq!(budget.pivots_used(), 50);
        assert_eq!(budget.check(), Err(BudgetReason::PivotCap));
    }

    #[test]
    fn injected_solve_fault_surfaces_as_injected() {
        let plan = Arc::new(FailPlan::new().exhaust_solve(2));
        let budget = Budget::unlimited().with_faults(plan);
        assert_eq!(budget.note_solve(), Ok(()));
        assert_eq!(budget.note_solve(), Err(BudgetReason::Injected));
        assert_eq!(budget.note_solve(), Ok(()));
    }

    #[test]
    fn worker_faults_ride_the_budget() {
        let plan = Arc::new(FailPlan::new().panic_worker(1));
        let budget = Budget::unlimited().with_faults(plan);
        assert_eq!(budget.fault(Site::Worker(0)), None);
        assert_eq!(budget.fault(Site::Worker(1)), Some(Fault::Panic));
        assert_eq!(Budget::unlimited().fault(Site::Worker(1)), None);
    }

    #[test]
    fn cancellation_takes_priority_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_cancel(token);
        assert_eq!(budget.check(), Err(BudgetReason::Cancelled));
    }

    #[test]
    fn reasons_display_briefly() {
        assert_eq!(BudgetReason::Deadline.to_string(), "deadline");
        assert_eq!(BudgetReason::PivotCap.to_string(), "pivot cap");
        assert_eq!(BudgetReason::Cancelled.to_string(), "cancelled");
        assert_eq!(BudgetReason::Injected.to_string(), "injected");
    }
}
