//! The harness's own spans, recorded around every call into a layer's
//! public function during a traced run.
//!
//! Spans live in memory (name, start, end, parent, operation id) and are
//! written to `trace.json` when the run ends. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans cover.
//! A disabled tracer records nothing, so timed runs pay one branch per
//! call site. Spans are never the source of an end-to-end number.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Identity of the operation (`client * 1_000_000 + index`) the span
    /// belongs to; spans of one operation share it.
    pub op: Option<u64>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// Open spans on the (single) harness thread; the top is the parent of
    /// whatever is recorded next.
    stack: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[id].end_ns = end;
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    fn ns_of(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn enter(&self, name: &str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let start = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name: name.to_owned(),
            start_ns: start,
            end_ns: start,
            parent: self.stack.borrow().last().copied(),
            op: None,
        });
        self.stack.borrow_mut().push(id);
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Record an already-measured interval (an operation timed on the
    /// harness thread or by a client thread) under the innermost open span.
    pub fn record(&self, name: &str, start: Instant, end: Instant, op: u64) {
        if !self.enabled {
            return;
        }
        self.spans.borrow_mut().push(Span {
            name: name.to_owned(),
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            parent: self.stack.borrow().last().copied(),
            op: Some(op),
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .count()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it (children of concurrent clients may
/// overlap each other, so their lengths cannot simply be summed).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let outer = &spans[parent];
            let start = span.start_ns.max(outer.start_ns);
            let end = span.end_ns.min(outer.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.nanos() - covered
        })
        .collect()
}

/// `trace.json`: every span with its self time, plus self time summed by
/// span name.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (span, &own) in spans.iter().zip(&selfs) {
        let entry = by_name.entry(&span.name).or_default();
        entry.0 += 1;
        entry.1 += span.nanos();
        entry.2 += own;
    }
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"by_name\":{{");
    for (index, (name, (count, total, own))) in by_name.iter().enumerate() {
        let sep = if index == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        );
    }
    out.push_str("},\"spans\":[");
    for (id, (span, own)) in spans.iter().zip(&selfs).enumerate() {
        let sep = if id == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"self_ns\":{own}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            opt(span.parent.map(|p| p as u64)),
            opt(span.op),
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            op: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 > child 10..60 > grandchild 20..30
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_unions_sibling_children() {
        // Disjoint siblings add up; overlapping siblings (two concurrent
        // clients) count their shared stretch once; a child sticking out
        // of its parent is clipped to it.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 0, 20, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 40, 70, Some(0)),
            span("d", 90, 120, Some(0)),
        ];
        // covered: 0..20, 30..70, 90..100 = 70
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_guards_and_attaches_operations() {
        let tracer = Tracer::new(true);
        {
            let _setup = tracer.enter("setup");
            {
                let _inner = tracer.enter("data.generate");
            }
            let now = Instant::now();
            tracer.record("executor.knn", now, now, 7);
        }
        let _other = tracer.enter("reopen");
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].op), (Some(0), Some(7)));
        assert_eq!(spans[3].parent, None);
        assert_eq!(tracer.count("executor.knn"), 1);
        let json = trace_json("w", 1, &spans);
        assert!(emd_store::json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let _guard = tracer.enter("setup");
        tracer.record("op", Instant::now(), Instant::now(), 0);
        assert!(tracer.spans().is_empty());
    }
}
