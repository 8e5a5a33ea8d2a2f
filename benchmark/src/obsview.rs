//! The `emd-obs` counters and span histograms of a traced round, read
//! either from a local [`MetricsRegistry`] or from the server's
//! `GET /metrics` document (its workers record on their own threads).

use crate::metrics::Res;
use crate::spans::Tracer;
use emd_obs::{MetricsRegistry, Recording};
use emd_store::json::{self, Value};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
pub struct ObsView {
    counters: BTreeMap<String, u64>,
    /// Span histogram name -> (observations, summed nanoseconds).
    spans: BTreeMap<String, (u64, u64)>,
}

impl ObsView {
    /// Start recording the program's own metrics on this thread, when the
    /// run is traced.
    pub fn record(tracer: &Tracer) -> Option<Recording> {
        tracer.enabled().then(Recording::start)
    }

    /// What the program recorded since [`ObsView::record`].
    pub fn harvest(recording: Option<Recording>) -> Option<ObsView> {
        recording.map(|r| ObsView::from_registry(&r.finish()))
    }

    pub fn from_registry(registry: &MetricsRegistry) -> Self {
        ObsView {
            counters: registry.counters().clone(),
            spans: registry
                .histograms()
                .iter()
                .map(|(name, h)| {
                    let sum = u64::try_from(h.sum_nanos()).unwrap_or(u64::MAX);
                    (name.clone(), (h.count(), sum))
                })
                .collect(),
        }
    }

    pub fn from_metrics_json(text: &str) -> Res<Self> {
        let value = json::parse(text)?;
        let object = value.as_object().ok_or("/metrics is not an object")?;
        let section = |key: &str| {
            object
                .get(key)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("/metrics lacks `{key}`"))
        };
        let whole = |value: Option<&Value>| match value {
            Some(Value::Number(n)) if *n >= 0.0 => Ok(*n as u64),
            _ => Err("/metrics holds a non-numeric count"),
        };
        let mut view = ObsView::default();
        for (name, value) in section("counters")? {
            view.counters.insert(name.clone(), whole(Some(value))?);
        }
        for (name, value) in section("histograms")? {
            let entry = value
                .as_object()
                .ok_or("/metrics histogram is not an object")?;
            let pair = (whole(entry.get("count"))?, whole(entry.get("sum_nanos"))?);
            view.spans.insert(name.clone(), pair);
        }
        Ok(view)
    }

    pub fn merge(&mut self, other: &ObsView) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
        for (name, (count, sum)) in &other.spans {
            let entry = self.spans.entry(name.clone()).or_default();
            entry.0 += count;
            entry.1 += sum;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum over counters whose name passes `keep`.
    pub fn counters_where(&self, keep: impl Fn(&str) -> bool) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| keep(n))
            .map(|(_, v)| v)
            .sum()
    }

    /// Summed nanoseconds of the span histogram `name`.
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.1)
    }

    /// Summed nanoseconds over span histograms whose name passes `keep`.
    pub fn span_ns_where(&self, keep: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|(n, _)| keep(n))
            .map(|(_, s)| s.1)
            .sum()
    }

    /// Mean of the span histogram `name` in milliseconds (0 when empty).
    pub fn span_mean_ms(&self, name: &str) -> f64 {
        match self.spans.get(name) {
            Some(&(count, sum)) if count > 0 => sum as f64 / count as f64 / 1e6,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_and_its_json_rendering_read_the_same() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("query.queries", 3);
        registry.counter_add("query.stage.red-emd(d'=8/8).evaluations", 40);
        registry.observe_nanos("query.execute", 1_500_000);
        registry.observe_nanos("query.execute", 500_000);
        registry.observe_nanos("query.stage.x.prepare", 7);
        let direct = ObsView::from_registry(&registry);
        let parsed = ObsView::from_metrics_json(&registry.to_json_string()).expect("parses");
        for view in [&direct, &parsed] {
            assert_eq!(view.counter("query.queries"), 3);
            assert_eq!(view.counter("absent"), 0);
            assert_eq!(view.span_ns("query.execute"), 2_000_000);
            assert!((view.span_mean_ms("query.execute") - 1.0).abs() < 1e-12);
            assert_eq!(view.span_ns_where(|n| n.ends_with(".prepare")), 7);
            assert_eq!(view.counters_where(|n| n.ends_with(".evaluations")), 40);
        }
        let mut merged = direct.clone();
        merged.merge(&parsed);
        assert_eq!(merged.counter("query.queries"), 6);
        assert_eq!(merged.span_ns("query.execute"), 4_000_000);
    }
}
