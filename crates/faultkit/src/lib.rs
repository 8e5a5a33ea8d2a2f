#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-faultkit
//!
//! Deterministic, zero-dependency fault injection for the flexemd stack.
//!
//! Production failure paths — a disk read that errors mid-open, a solver
//! that runs out of budget, a worker thread that panics — are rare in tests
//! precisely because tests run on healthy machines. This crate makes those
//! paths *reachable on demand*: a [`FaultInjector`] is threaded (behind an
//! `Option`/default no-op) through the store reader, the simplex solver
//! entry, and the executor's panic-isolated entry point, and a
//! [`FailPlan`] decides, purely from per-site atomic counters, whether the
//! *k*-th occurrence of a site should fail.
//!
//! Everything is deterministic: the same plan against the same call
//! sequence injects the same faults, so every injected failure is a
//! reproducible test case. [`FailPlan::from_seed`] derives a plan from a
//! single `u64` so property tests can sweep fault schedules the same way
//! they sweep inputs.
//!
//! The crate deliberately knows nothing about the rest of the workspace:
//! sites and faults are plain enums, and consumers map [`Fault`]s onto
//! their own typed errors (`DurableError::Io`, `CoreError::BudgetExhausted`,
//! `QueryError::WorkerPanicked`).

use std::sync::atomic::{AtomicU64, Ordering};

/// A place in the engine where a fault can be injected.
///
/// Each site corresponds to one instrumented code path; consumers call
/// [`FaultInjector::check`] with the site they are about to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A store-layer file read (checkpoint, segment or WAL). Occurrences are
    /// counted in the order the reader issues them.
    StoreRead,
    /// Entry into a transport simplex solve. Occurrences are
    /// counted per [`FaultInjector`] across all solves it observes.
    Solve,
    /// A panic-isolated query, identified by the ordinal its caller
    /// passed to `Executor::run_isolated`.
    Worker(usize),
    /// A WAL record append (the write of one framed record). Occurrences
    /// are counted in append order.
    WalAppend,
    /// A WAL sync point (the fsync that makes appended records durable).
    /// Occurrences are counted in sync order.
    WalSync,
    /// A compaction run (folding the WAL tail into a sealed segment).
    /// Occurrences are counted per compaction attempt.
    Compact,
}

/// The fault an injector asks a site to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an I/O error (store reads).
    Io,
    /// Report the solver budget as exhausted (transport solves).
    BudgetExhausted,
    /// Panic inside the panic-isolated query; the payload is an
    /// [`InjectedPanic`] so harnesses can tell injected panics from real
    /// ones.
    Panic,
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io => write!(f, "io"),
            Self::BudgetExhausted => write!(f, "budget-exhausted"),
            Self::Panic => write!(f, "panic"),
        }
    }
}

/// Decides whether the operation at `site` should fail.
///
/// Implementations must be cheap and thread-safe: the check sits on hot
/// paths (solver entries, segment reads) guarded only by an `Option`.
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// Called immediately before the instrumented operation runs.
    ///
    /// Returns `Some(fault)` if this occurrence should fail, `None` to let
    /// it proceed. Implementations may advance internal counters on every
    /// call, so a site must be checked exactly once per occurrence.
    fn check(&self, site: Site) -> Option<Fault>;
}

/// The no-op injector: never injects anything.
///
/// Used as the default wherever a `&dyn FaultInjector` is required but no
/// plan is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn check(&self, _site: Site) -> Option<Fault> {
        None
    }
}

/// Panic payload used by injected worker panics.
///
/// Harnesses (the CLI panic hook, the executor's `catch_unwind`) downcast
/// panic payloads to this type to distinguish an injected panic from a
/// genuine bug, so only injected panics are silenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The worker (chunk index) the panic was injected into.
    pub worker: usize,
}

impl InjectedPanic {
    /// Builds the payload for a panic injected into worker `worker`.
    #[must_use]
    pub fn new(worker: usize) -> Self {
        Self { worker }
    }
}

impl std::fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected panic in worker {}", self.worker)
    }
}

/// A deterministic fault schedule: fail the `k`-th read, exhaust the
/// `j`-th solve, panic in worker `w`.
///
/// Occurrence indices are 1-based (`fail_read(1)` fails the first read).
/// Counters are per-plan atomics, so one plan tracks one engine run; build
/// a fresh plan (or the same seed again) to replay the schedule.
#[derive(Debug, Default)]
pub struct FailPlan {
    fail_read: Option<u64>,
    exhaust_solve: Option<u64>,
    panic_worker: Option<usize>,
    fail_wal_append: Option<u64>,
    fail_wal_sync: Option<u64>,
    fail_compact: Option<u64>,
    reads: AtomicU64,
    solves: AtomicU64,
    wal_appends: AtomicU64,
    wal_syncs: AtomicU64,
    compacts: AtomicU64,
}

impl FailPlan {
    /// An empty plan that injects nothing until configured.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail the `k`-th store read (1-based) with [`Fault::Io`].
    #[must_use]
    pub fn fail_read(mut self, k: u64) -> Self {
        self.fail_read = Some(k);
        self
    }

    /// Inject [`Fault::BudgetExhausted`] at the `j`-th transport solve
    /// (1-based).
    #[must_use]
    pub fn exhaust_solve(mut self, j: u64) -> Self {
        self.exhaust_solve = Some(j);
        self
    }

    /// Panic in worker `w` (every query run under that ordinal).
    #[must_use]
    pub fn panic_worker(mut self, w: usize) -> Self {
        self.panic_worker = Some(w);
        self
    }

    /// Fail the `k`-th WAL record append (1-based) with [`Fault::Io`].
    #[must_use]
    pub fn fail_wal_append(mut self, k: u64) -> Self {
        self.fail_wal_append = Some(k);
        self
    }

    /// Fail the `k`-th WAL sync point (1-based) with [`Fault::Io`].
    #[must_use]
    pub fn fail_wal_sync(mut self, k: u64) -> Self {
        self.fail_wal_sync = Some(k);
        self
    }

    /// Fail the `k`-th compaction run (1-based) with [`Fault::Io`].
    #[must_use]
    pub fn fail_compact(mut self, k: u64) -> Self {
        self.fail_compact = Some(k);
        self
    }

    /// Derives a plan from a seed, for property-test sweeps.
    ///
    /// The seed is expanded with a splitmix64 chain into six independent
    /// draws: which read to fail (1..=8), which solve to exhaust (1..=8),
    /// which worker to panic (0..=3), which WAL append to fail (1..=8),
    /// which WAL sync to fail (1..=8), and which compaction to fail
    /// (1..=4). Each failpoint is armed with probability 1/2, so seeds
    /// cover every subset of the six faults. The first three draws use
    /// exactly the sequence earlier releases used, so a seed arms the
    /// same read/solve/panic schedule it always did.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut draw = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut plan = Self::new();
        let (arm_read, read_k) = (draw() % 2 == 0, draw() % 8 + 1);
        let (arm_solve, solve_j) = (draw() % 2 == 0, draw() % 8 + 1);
        let (arm_panic, worker_w) = (draw() % 2 == 0, draw() % 4);
        let (arm_append, append_k) = (draw() % 2 == 0, draw() % 8 + 1);
        let (arm_sync, sync_k) = (draw() % 2 == 0, draw() % 8 + 1);
        let (arm_compact, compact_k) = (draw() % 2 == 0, draw() % 4 + 1);
        if arm_read {
            plan = plan.fail_read(read_k);
        }
        if arm_solve {
            plan = plan.exhaust_solve(solve_j);
        }
        if arm_panic {
            plan = plan.panic_worker(usize::try_from(worker_w).unwrap_or(0));
        }
        if arm_append {
            plan = plan.fail_wal_append(append_k);
        }
        if arm_sync {
            plan = plan.fail_wal_sync(sync_k);
        }
        if arm_compact {
            plan = plan.fail_compact(compact_k);
        }
        plan
    }

    /// True if the plan has no armed failpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fail_read.is_none()
            && self.exhaust_solve.is_none()
            && self.panic_worker.is_none()
            && self.fail_wal_append.is_none()
            && self.fail_wal_sync.is_none()
            && self.fail_compact.is_none()
    }

    /// Number of store reads observed so far.
    #[must_use]
    pub fn reads_seen(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of transport solves observed so far.
    #[must_use]
    pub fn solves_seen(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    /// Number of WAL record appends observed so far.
    #[must_use]
    pub fn wal_appends_seen(&self) -> u64 {
        self.wal_appends.load(Ordering::Relaxed)
    }

    /// Number of WAL sync points observed so far.
    #[must_use]
    pub fn wal_syncs_seen(&self) -> u64 {
        self.wal_syncs.load(Ordering::Relaxed)
    }

    /// Number of compaction runs observed so far.
    #[must_use]
    pub fn compacts_seen(&self) -> u64 {
        self.compacts.load(Ordering::Relaxed)
    }
}

impl FaultInjector for FailPlan {
    fn check(&self, site: Site) -> Option<Fault> {
        match site {
            Site::StoreRead => {
                let seen = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
                (self.fail_read == Some(seen)).then_some(Fault::Io)
            }
            Site::Solve => {
                let seen = self.solves.fetch_add(1, Ordering::Relaxed) + 1;
                (self.exhaust_solve == Some(seen)).then_some(Fault::BudgetExhausted)
            }
            Site::Worker(w) => (self.panic_worker == Some(w)).then_some(Fault::Panic),
            Site::WalAppend => {
                let seen = self.wal_appends.fetch_add(1, Ordering::Relaxed) + 1;
                (self.fail_wal_append == Some(seen)).then_some(Fault::Io)
            }
            Site::WalSync => {
                let seen = self.wal_syncs.fetch_add(1, Ordering::Relaxed) + 1;
                (self.fail_wal_sync == Some(seen)).then_some(Fault::Io)
            }
            Site::Compact => {
                let seen = self.compacts.fetch_add(1, Ordering::Relaxed) + 1;
                (self.fail_compact == Some(seen)).then_some(Fault::Io)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_fires() {
        for site in [
            Site::StoreRead,
            Site::Solve,
            Site::Worker(0),
            Site::WalAppend,
            Site::WalSync,
            Site::Compact,
        ] {
            assert_eq!(NoFaults.check(site), None);
        }
    }

    #[test]
    fn fail_read_hits_exactly_the_kth_read() {
        let plan = FailPlan::new().fail_read(3);
        assert_eq!(plan.check(Site::StoreRead), None);
        assert_eq!(plan.check(Site::StoreRead), None);
        assert_eq!(plan.check(Site::StoreRead), Some(Fault::Io));
        assert_eq!(plan.check(Site::StoreRead), None);
        assert_eq!(plan.reads_seen(), 4);
    }

    #[test]
    fn exhaust_solve_hits_exactly_the_jth_solve() {
        let plan = FailPlan::new().exhaust_solve(2);
        assert_eq!(plan.check(Site::Solve), None);
        assert_eq!(plan.check(Site::Solve), Some(Fault::BudgetExhausted));
        assert_eq!(plan.check(Site::Solve), None);
        assert_eq!(plan.solves_seen(), 3);
    }

    #[test]
    fn panic_worker_targets_one_worker_repeatedly() {
        let plan = FailPlan::new().panic_worker(1);
        assert_eq!(plan.check(Site::Worker(0)), None);
        assert_eq!(plan.check(Site::Worker(1)), Some(Fault::Panic));
        assert_eq!(plan.check(Site::Worker(1)), Some(Fault::Panic));
        assert_eq!(plan.check(Site::Worker(2)), None);
    }

    #[test]
    fn sites_are_counted_independently() {
        let plan = FailPlan::new().fail_read(1).exhaust_solve(1);
        assert_eq!(plan.check(Site::Solve), Some(Fault::BudgetExhausted));
        assert_eq!(plan.check(Site::StoreRead), Some(Fault::Io));
    }

    #[test]
    fn fail_wal_append_hits_exactly_the_kth_append() {
        let plan = FailPlan::new().fail_wal_append(2);
        assert_eq!(plan.check(Site::WalAppend), None);
        assert_eq!(plan.check(Site::WalAppend), Some(Fault::Io));
        assert_eq!(plan.check(Site::WalAppend), None);
        assert_eq!(plan.wal_appends_seen(), 3);
    }

    #[test]
    fn fail_wal_sync_hits_exactly_the_kth_sync() {
        let plan = FailPlan::new().fail_wal_sync(3);
        assert_eq!(plan.check(Site::WalSync), None);
        assert_eq!(plan.check(Site::WalSync), None);
        assert_eq!(plan.check(Site::WalSync), Some(Fault::Io));
        assert_eq!(plan.check(Site::WalSync), None);
        assert_eq!(plan.wal_syncs_seen(), 4);
    }

    #[test]
    fn fail_compact_hits_exactly_the_kth_run() {
        let plan = FailPlan::new().fail_compact(1);
        assert_eq!(plan.check(Site::Compact), Some(Fault::Io));
        assert_eq!(plan.check(Site::Compact), None);
        assert_eq!(plan.compacts_seen(), 2);
    }

    #[test]
    fn wal_sites_are_counted_independently_of_legacy_sites() {
        let plan = FailPlan::new()
            .fail_read(1)
            .fail_wal_append(1)
            .fail_wal_sync(1)
            .fail_compact(1);
        // WAL-site traffic must not advance the read counter and vice
        // versa: each first occurrence still fires.
        assert_eq!(plan.check(Site::WalAppend), Some(Fault::Io));
        assert_eq!(plan.check(Site::WalSync), Some(Fault::Io));
        assert_eq!(plan.check(Site::Compact), Some(Fault::Io));
        assert_eq!(plan.check(Site::StoreRead), Some(Fault::Io));
        assert_eq!(plan.reads_seen(), 1);
        assert_eq!(plan.wal_appends_seen(), 1);
    }

    #[test]
    fn from_seed_preserves_legacy_draw_sequence() {
        // The first three (arm, value) pairs come from the same splitmix64
        // positions as before the WAL sites existed, so any recorded seed
        // still arms the identical read/solve/panic schedule.
        let mut state = 7u64;
        let mut draw = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (arm_read, read_k) = (draw() % 2 == 0, draw() % 8 + 1);
        let (arm_solve, solve_j) = (draw() % 2 == 0, draw() % 8 + 1);
        let (arm_panic, worker_w) = (draw() % 2 == 0, draw() % 4);
        let plan = FailPlan::from_seed(7);
        assert_eq!(plan.fail_read, arm_read.then_some(read_k));
        assert_eq!(plan.exhaust_solve, arm_solve.then_some(solve_j));
        assert_eq!(
            plan.panic_worker,
            arm_panic.then_some(usize::try_from(worker_w).unwrap_or(0))
        );
    }

    #[test]
    fn from_seed_covers_wal_failpoints() {
        let plans: Vec<FailPlan> = (0..256u64).map(FailPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.fail_wal_append.is_some()));
        assert!(plans.iter().any(|p| p.fail_wal_sync.is_some()));
        assert!(plans.iter().any(|p| p.fail_compact.is_some()));
        assert!(plans
            .iter()
            .any(|p| p.fail_wal_append.is_none() && p.fail_wal_sync.is_none()));
    }

    #[test]
    fn from_seed_is_deterministic() {
        for seed in 0..64u64 {
            let a = FailPlan::from_seed(seed);
            let b = FailPlan::from_seed(seed);
            assert_eq!(a.fail_read, b.fail_read);
            assert_eq!(a.exhaust_solve, b.exhaust_solve);
            assert_eq!(a.panic_worker, b.panic_worker);
            assert_eq!(a.fail_wal_append, b.fail_wal_append);
            assert_eq!(a.fail_wal_sync, b.fail_wal_sync);
            assert_eq!(a.fail_compact, b.fail_compact);
        }
    }

    #[test]
    fn from_seed_covers_armed_and_empty_plans() {
        let plans: Vec<FailPlan> = (0..256u64).map(FailPlan::from_seed).collect();
        assert!(plans.iter().any(FailPlan::is_empty));
        assert!(plans.iter().any(|p| p.fail_read.is_some()));
        assert!(plans.iter().any(|p| p.exhaust_solve.is_some()));
        assert!(plans.iter().any(|p| p.panic_worker.is_some()));
    }

    #[test]
    fn injected_panic_formats_worker() {
        assert_eq!(
            InjectedPanic::new(3).to_string(),
            "injected panic in worker 3"
        );
    }
}
