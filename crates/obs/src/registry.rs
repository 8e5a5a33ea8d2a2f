//! The metrics registry: counters, gauges, log-scale duration histograms
//! and the optional span event log, with deterministic merge and a
//! schema-versioned JSON export.

use emd_json::{write_escaped, write_number};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier stamped into every JSON export. Bump the suffix on
/// any backwards-incompatible change to the document layout.
pub const SCHEMA: &str = "flexemd-metrics/v1";

/// Number of log2 buckets in a [`DurationHistogram`]. Bucket `k` covers
/// `[2^k, 2^(k+1))` nanoseconds (bucket 0 additionally covers 0), so 48
/// buckets span sub-nanosecond to ~3.2 days — far beyond any single query.
const BUCKETS: usize = 48;

/// A fixed-layout duration histogram with log2-scale buckets.
///
/// The layout is fixed (no dynamic rebinning) so that merging two
/// histograms is a plain element-wise sum — associative, commutative and
/// exact — so registries recorded on several threads merge to the same
/// counts as one recorded on a single thread.
#[derive(Debug, Clone, PartialEq)]
pub struct DurationHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }
}

/// Bucket index for a duration: floor(log2(nanos)), clamped to the fixed
/// bucket range; zero durations land in bucket 0.
fn bucket_index(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        ((63 - nanos.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

impl DurationHistogram {
    /// Record one observation.
    pub fn record(&mut self, nanos: u64) {
        if let Some(slot) = self.counts.get_mut(bucket_index(nanos)) {
            *slot += 1;
        }
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed durations in nanoseconds.
    pub fn sum_nanos(&self) -> u128 {
        self.sum_nanos
    }

    /// Smallest observation in nanoseconds (`None` when empty).
    fn min_nanos(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_nanos)
    }

    /// Largest observation in nanoseconds (`None` when empty).
    fn max_nanos(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_nanos)
    }

    /// Non-empty buckets as `(inclusive_upper_bound_nanos, count)` pairs
    /// in ascending bound order.
    fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| {
                let bound = if index + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (index + 1)) - 1
                };
                (bound, count)
            })
    }

    /// Element-wise sum with another histogram (exact; see the type docs).
    pub fn merge(&mut self, other: &DurationHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

/// One completed span, kept only by event-logging scopes
/// ([`Recording::with_events`](crate::Recording::with_events)).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span (histogram) name.
    pub name: String,
    /// Wall-clock duration of the span.
    pub nanos: u64,
}

/// A bag of named metrics: monotonic counters, gauges, duration
/// histograms and an optional span event log.
///
/// All maps are `BTreeMap`s so iteration — and therefore the JSON export —
/// is deterministic. [`merge`](Self::merge) sums counters and histograms
/// (exact integer arithmetic) and lets the merged-in registry's gauges win,
/// so merging per-thread registries in a fixed order yields a fully
/// deterministic result for deterministic workloads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, DurationHistogram>,
    events: Vec<SpanEvent>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
    }

    /// Add `by` to the counter `name`, creating it at zero.
    pub fn counter_add(&mut self, name: &str, by: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot += by;
        } else {
            self.counters.insert(name.to_owned(), by);
        }
    }

    /// Current value of the counter `name` (zero when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in sorted name order.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Set the gauge `name` (last write wins).
    pub(crate) fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges in sorted name order.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Record one observation into the histogram `name`.
    pub fn observe_nanos(&mut self, name: &str, nanos: u64) {
        if let Some(histogram) = self.histograms.get_mut(name) {
            histogram.record(nanos);
        } else {
            let mut histogram = DurationHistogram::default();
            histogram.record(nanos);
            self.histograms.insert(name.to_owned(), histogram);
        }
    }

    /// The histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&DurationHistogram> {
        self.histograms.get(name)
    }

    /// All histograms in sorted name order.
    pub fn histograms(&self) -> &BTreeMap<String, DurationHistogram> {
        &self.histograms
    }

    /// Append a span event (event-logging scopes only).
    pub(crate) fn push_event(&mut self, event: SpanEvent) {
        self.events.push(event);
    }

    /// Completed span events in completion order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Merge another registry into this one: counters and histograms sum,
    /// the other registry's gauges overwrite, events append. Summation is
    /// exact integer arithmetic, so merging chunk registries in chunk
    /// order reproduces the sequential totals bit for bit.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &value) in &other.counters {
            self.counter_add(name, value);
        }
        for (name, &value) in &other.gauges {
            self.gauges.insert(name.clone(), value);
        }
        for (name, histogram) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.merge(histogram);
            } else {
                self.histograms.insert(name.clone(), histogram.clone());
            }
        }
        self.events.extend(other.events.iter().cloned());
    }

    /// Render the registry as a pretty-printed, schema-versioned JSON
    /// document ([`SCHEMA`]). Keys appear in sorted order; counters and
    /// nanosecond sums are emitted as exact integers.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = write!(out, "  \"schema\": ");
        write_escaped(&mut out, SCHEMA);
        out.push_str(",\n  \"counters\": {");
        for (index, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if index == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_escaped(&mut out, name);
            let _ = write!(out, ": {value}");
        }
        out.push_str(if self.counters.is_empty() {
            "}"
        } else {
            "\n  }"
        });
        out.push_str(",\n  \"gauges\": {");
        for (index, (name, value)) in self.gauges.iter().enumerate() {
            out.push_str(if index == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_escaped(&mut out, name);
            out.push_str(": ");
            write_number(&mut out, *value);
        }
        out.push_str(if self.gauges.is_empty() { "}" } else { "\n  }" });
        out.push_str(",\n  \"histograms\": {");
        for (index, (name, histogram)) in self.histograms.iter().enumerate() {
            out.push_str(if index == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_escaped(&mut out, name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum_nanos\": {}, \"min_nanos\": {}, \"max_nanos\": {}, \"buckets\": [",
                histogram.count(),
                histogram.sum_nanos(),
                histogram.min_nanos().unwrap_or(0),
                histogram.max_nanos().unwrap_or(0),
            );
            for (bucket_index, (bound, count)) in histogram.buckets().enumerate() {
                if bucket_index > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"le_nanos\": {bound}, \"count\": {count}}}");
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "}"
        } else {
            "\n  }"
        });
        if !self.events.is_empty() {
            out.push_str(",\n  \"events\": [");
            for (index, event) in self.events.iter().enumerate() {
                out.push_str(if index == 0 { "\n" } else { ",\n" });
                out.push_str("    {\"name\": ");
                write_escaped(&mut out, &event.name);
                let _ = write!(out, ", \"nanos\": {}}}", event.nanos);
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = DurationHistogram::default();
        assert_eq!(h.min_nanos(), None);
        h.record(10);
        h.record(30);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_nanos(), 40);
        assert_eq!(h.min_nanos(), Some(10));
        assert_eq!(h.max_nanos(), Some(30));
        // 10 and 30 land in buckets [8,16) and [16,32): bounds 15 and 31.
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets, vec![(15, 1), (31, 1)]);
    }

    #[test]
    fn merge_is_exact_and_order_insensitive() {
        let mut a = DurationHistogram::default();
        a.record(5);
        a.record(100);
        let mut b = DurationHistogram::default();
        b.record(7);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 3);
        assert_eq!(ab.sum_nanos(), 112);
    }

    #[test]
    fn registry_merge_sums_counters_and_appends_events() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 1);
        a.gauge_set("g", 1.0);
        a.observe_nanos("h", 8);
        a.push_event(SpanEvent {
            name: "h".into(),
            nanos: 8,
        });
        let mut b = MetricsRegistry::new();
        b.counter_add("x", 2);
        b.counter_add("y", 5);
        b.gauge_set("g", 2.0);
        b.observe_nanos("h", 16);

        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 5);
        assert_eq!(a.gauge("g"), Some(2.0));
        assert_eq!(a.histogram("h").map(DurationHistogram::count), Some(2));
        assert_eq!(a.events().len(), 1);
    }

    #[test]
    fn registry_merge_matches_sequential_totals() {
        // Recording into one registry must equal recording into chunks
        // and merging in chunk order.
        let observations: Vec<(&str, u64)> =
            vec![("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5), ("a", 6)];
        let mut sequential = MetricsRegistry::new();
        for (name, value) in &observations {
            sequential.counter_add(name, *value);
            sequential.observe_nanos(name, *value);
        }
        let mut merged = MetricsRegistry::new();
        for chunk in observations.chunks(2) {
            let mut part = MetricsRegistry::new();
            for (name, value) in chunk {
                part.counter_add(name, *value);
                part.observe_nanos(name, *value);
            }
            merged.merge(&part);
        }
        assert_eq!(sequential, merged);
    }

    #[test]
    fn json_export_is_schema_versioned_and_sorted() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("zeta", 1);
        registry.counter_add("alpha", 2);
        registry.gauge_set("threads", 4.0);
        registry.observe_nanos("span.work", 100);
        let json = registry.to_json_string();
        assert!(json.contains("\"schema\": \"flexemd-metrics/v1\""));
        let alpha = json.find("\"alpha\"").expect("alpha present");
        let zeta = json.find("\"zeta\"").expect("zeta present");
        assert!(alpha < zeta, "counters sorted by name");
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"sum_nanos\": 100"));
        assert!(json.contains("\"le_nanos\": 127"));
        assert!(!json.contains("\"events\""), "no events section when empty");
    }

    #[test]
    fn json_escapes_and_non_finite_gauges() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("weird\"name\\with\nescapes", 1);
        registry.gauge_set("bad", f64::INFINITY);
        let json = registry.to_json_string();
        assert!(json.contains("weird\\\"name\\\\with\\nescapes"));
        assert!(json.contains("\"bad\": null"));
    }

    #[test]
    fn empty_registry_renders_valid_json() {
        let json = MetricsRegistry::new().to_json_string();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }
}
