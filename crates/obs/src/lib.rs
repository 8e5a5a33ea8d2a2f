#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-obs
//!
//! Observability for the flexemd workspace (its one dependency is the
//! JSON codec, `emd-json`, for the snapshot writer): a
//! [`MetricsRegistry`] of monotonic counters, log-scale duration
//! histograms and gauges, plus span-style wall-clock stage timing
//! ([`span`]). The paper's evaluation (Section 5 of Wichterich et al.,
//! SIGMOD 2008) attributes query cost to individual pipeline stages —
//! filter evaluations per stage of the `Red-IM -> Red-EMD -> EMD` chain,
//! exact-EMD refinements, simplex pivots per solve — and this crate is
//! the instrumentation that produces those breakdowns for the
//! reconstructed experiments and the `flexemd --metrics json` CLI.
//!
//! ## Recording model
//!
//! Metrics are recorded into a **per-thread scope**. Nothing is recorded
//! until a thread installs one with [`Recording::start`]; while no scope
//! exists anywhere in the process, every record call is a no-op that
//! costs one relaxed atomic load and one branch — cheap enough for the
//! solver hot paths of `emd-core`.
//!
//! ```
//! let recording = emd_obs::Recording::start();
//! emd_obs::counter_add("demo.widgets", 3);
//! {
//!     let _span = emd_obs::span("demo.work");
//!     // ... timed work ...
//! }
//! let registry = recording.finish();
//! assert_eq!(registry.counter("demo.widgets"), 3);
//! assert_eq!(registry.histogram("demo.work").map(|h| h.count()), Some(1));
//! ```
//!
//! Scopes nest (the inner scope shadows the outer until finished) and are
//! strictly thread-local: a worker thread spawned while a scope is active
//! records nothing unless it installs its own scope. A caller that wants
//! one total finishes each worker's scope and folds the registries with
//! [`MetricsRegistry::merge`] in a fixed order, as the server does.
//!
//! ## Determinism contract
//!
//! Recording **never** influences the instrumented computation: enabling
//! or disabling metrics yields bit-identical query results (property
//! tested in `emd-query`). Counter values are deterministic for a
//! deterministic workload; histogram *counts* are deterministic while
//! their bucket placement and sums reflect wall-clock time.
//!
//! ## Export
//!
//! [`MetricsRegistry::to_json_string`] renders a schema-versioned
//! ([`SCHEMA`]) JSON document with keys in sorted (deterministic) order;
//! see `DESIGN.md` §7 for the schema.

mod gauge;
mod registry;
mod tracer;

pub use gauge::{Gauge, GaugeGuard};
pub use registry::{DurationHistogram, MetricsRegistry, SpanEvent, SCHEMA};
pub use tracer::{span, span_with, Span};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of live [`Recording`] scopes across all threads. The hot-path
/// gate: record calls bail out on `0` after one relaxed load.
static ACTIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOCAL: RefCell<Option<LocalScope>> = const { RefCell::new(None) };
}

/// The per-thread recording state behind a [`Recording`] guard.
struct LocalScope {
    registry: MetricsRegistry,
    events: bool,
}

/// Whether any thread currently has a recording scope installed.
///
/// This is the cheap global gate instrumented code checks first; it may
/// return `true` on a thread that itself records nothing (the scope lives
/// on another thread).
#[inline]
pub fn enabled() -> bool {
    ACTIVE_SCOPES.load(Ordering::Relaxed) != 0
}

/// Whether the *current thread* has a recording scope installed.
pub fn recording() -> bool {
    enabled() && LOCAL.with(|slot| slot.borrow().is_some())
}

/// Run `f` against the current thread's registry, if one is installed.
pub(crate) fn with_current<F: FnOnce(&mut MetricsRegistry, bool)>(f: F) {
    if !enabled() {
        return;
    }
    LOCAL.with(|slot| {
        if let Ok(mut slot) = slot.try_borrow_mut() {
            if let Some(scope) = slot.as_mut() {
                f(&mut scope.registry, scope.events);
            }
        }
    });
}

/// Add `by` to the monotonic counter `name` in the current scope (no-op
/// without one).
pub fn counter_add(name: &str, by: u64) {
    with_current(|registry, _| registry.counter_add(name, by));
}

/// Record one duration observation into the histogram `name` in the
/// current scope (no-op without one).
pub fn observe_nanos(name: &str, nanos: u64) {
    with_current(|registry, _| registry.observe_nanos(name, nanos));
}

/// A live per-thread recording scope. Create with [`Recording::start`],
/// harvest with [`Recording::finish`]. Dropping without finishing
/// discards the recorded metrics and restores the previous scope (scopes
/// nest).
#[derive(Debug)]
pub struct Recording {
    previous: Option<LocalScope>,
    finished: bool,
    /// Scopes are thread-local; keep the guard `!Send` so it is finished
    /// on the thread that started it.
    _not_send: PhantomData<*const ()>,
}

impl std::fmt::Debug for LocalScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalScope")
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl Recording {
    /// Install a fresh recording scope on this thread.
    #[must_use = "dropping the guard immediately stops recording"]
    pub fn start() -> Self {
        Self::start_inner(false)
    }

    /// Like [`Recording::start`], additionally keeping a per-span event
    /// log ([`MetricsRegistry::events`]) in completion order. Costs one
    /// allocation per span; intended for single-query traces, not batch
    /// throughput runs.
    #[must_use = "dropping the guard immediately stops recording"]
    pub fn with_events() -> Self {
        Self::start_inner(true)
    }

    fn start_inner(events: bool) -> Self {
        let previous = LOCAL.with(|slot| {
            slot.borrow_mut().replace(LocalScope {
                registry: MetricsRegistry::new(),
                events,
            })
        });
        ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
        Recording {
            previous,
            finished: false,
            _not_send: PhantomData,
        }
    }

    /// End the scope and return everything recorded on this thread while
    /// it was active. The previously installed scope (if any) resumes.
    pub fn finish(mut self) -> MetricsRegistry {
        self.finished = true;
        self.teardown()
            .map_or_else(MetricsRegistry::new, |scope| scope.registry)
    }

    fn teardown(&mut self) -> Option<LocalScope> {
        ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
        LOCAL.with(|slot| {
            let mut slot = slot.borrow_mut();
            let current = slot.take();
            *slot = self.previous.take();
            current
        })
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.teardown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_scope_records_nothing() {
        counter_add("lib.orphan", 1);
        let recording = Recording::start();
        let registry = recording.finish();
        assert_eq!(registry.counter("lib.orphan"), 0);
    }

    #[test]
    fn scope_captures_and_restores() {
        let outer = Recording::start();
        counter_add("lib.outer", 1);
        {
            let inner = Recording::start();
            counter_add("lib.inner", 2);
            let inner_registry = inner.finish();
            assert_eq!(inner_registry.counter("lib.inner"), 2);
            assert_eq!(inner_registry.counter("lib.outer"), 0);
        }
        counter_add("lib.outer", 1);
        let registry = outer.finish();
        assert_eq!(registry.counter("lib.outer"), 2);
        assert_eq!(registry.counter("lib.inner"), 0);
    }

    #[test]
    fn dropped_scope_discards_and_restores() {
        let outer = Recording::start();
        {
            let _inner = Recording::start();
            counter_add("lib.dropped", 7);
        }
        counter_add("lib.kept", 1);
        let registry = outer.finish();
        assert_eq!(registry.counter("lib.dropped"), 0);
        assert_eq!(registry.counter("lib.kept"), 1);
    }

    #[test]
    fn scopes_are_thread_local() {
        let recording = Recording::start();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    // Global flag is on, but this thread has no scope.
                    assert!(enabled());
                    assert!(!crate::recording());
                    counter_add("lib.worker", 5);
                    let worker = Recording::start();
                    counter_add("lib.worker", 5);
                    let registry = worker.finish();
                    assert_eq!(registry.counter("lib.worker"), 5);
                })
                .join()
                .expect("worker thread");
        });
        let registry = recording.finish();
        assert_eq!(registry.counter("lib.worker"), 0);
    }
}
