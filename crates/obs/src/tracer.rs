//! Span-style tracing: wall-clock timing of named stages, recorded as
//! duration histograms (and, for event-logging scopes, a per-span event
//! log) in the current thread's [`Recording`](crate::Recording) scope.

use crate::registry::SpanEvent;
use std::time::Instant;

/// A live span: created by [`span`], records its wall-clock duration into
/// the histogram of the same name when dropped. Inert (no allocation, no
/// clock read) when the current thread is not recording.
#[derive(Debug)]
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct Span {
    inner: Option<(String, Instant)>,
}

impl Span {
    /// A span that records nothing (used when tracing is disabled).
    fn inert() -> Self {
        Span { inner: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, started)) = self.inner.take() {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            crate::with_current(|registry, events| {
                registry.observe_nanos(&name, nanos);
                if events {
                    registry.push_event(SpanEvent {
                        name: name.clone(),
                        nanos,
                    });
                }
            });
        }
    }
}

/// Open a span named `name`. When the current thread is not recording
/// this is a no-op costing one atomic load and one branch.
pub fn span(name: &str) -> Span {
    if crate::recording() {
        Span {
            inner: Some((name.to_owned(), Instant::now())),
        }
    } else {
        Span::inert()
    }
}

/// Open a span whose name is built lazily — use when the name needs
/// formatting (e.g. per-stage names) so the allocation only happens while
/// recording.
pub fn span_with(make_name: impl FnOnce() -> String) -> Span {
    if crate::recording() {
        Span {
            inner: Some((make_name(), Instant::now())),
        }
    } else {
        Span::inert()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, Recording};

    #[test]
    fn span_records_into_histogram() {
        let recording = Recording::start();
        {
            let _span = span("tracer.test");
            std::hint::black_box(42);
        }
        let registry = recording.finish();
        let histogram = registry.histogram("tracer.test").expect("span recorded");
        assert_eq!(histogram.count(), 1);
        assert!(registry.events().is_empty(), "plain scope keeps no events");
    }

    #[test]
    fn with_events_logs_completion_order() {
        let recording = Recording::with_events();
        {
            let _outer = span("tracer.outer");
            let _inner = span("tracer.inner");
        }
        let registry = recording.finish();
        let names: Vec<&str> = registry.events().iter().map(|e| e.name.as_str()).collect();
        // Inner drops before outer (reverse declaration order).
        assert_eq!(names, vec!["tracer.inner", "tracer.outer"]);
    }

    #[test]
    fn spans_are_inert_without_a_scope() {
        {
            let _span = span("tracer.orphan");
        }
        let recording = Recording::start();
        let registry: MetricsRegistry = recording.finish();
        assert!(registry.histogram("tracer.orphan").is_none());
    }
}
