//! The metric tables — the same names, units, directions and bounds that
//! `BENCHMARK.json` declares (a unit test keeps the two in step) — and the
//! one-line JSON result every run ends with.

use emd_store::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("reopen_ms", "ms", Lower, 0.25),
    e2e("query_p50_ms", "ms", Lower, 0.25),
    e2e("query_p90_ms", "ms", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("refinements_per_query", "count", Lower, 0.20),
    e2e("ingest_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("disk_bytes_per_user_byte", "ratio", Lower, 0.01),
];

/// Single layers, from the traced run. No bounds: they explain an
/// end-to-end number, they do not gate a change.
pub const PER_LAYER: &[MetricDef] = &[
    layer("data.generate_s", "s", Lower),
    layer("reduction.flow_sample_s", "s", Lower),
    layer("reduction.kmedoids_s", "s", Lower),
    layer("reduction.fb_all_s", "s", Lower),
    layer("reduction.precompute_s", "s", Lower),
    layer("reduction.red_emd_eval_us.d8", "us", Lower),
    layer("reduction.red_emd_eval_us.d12", "us", Lower),
    layer("reduction.red_emd_eval_us.d24", "us", Lower),
    layer("core.emd_cold_us.d32", "us", Lower),
    layer("core.emd_cold_us.d48", "us", Lower),
    layer("core.emd_cold_us.d96", "us", Lower),
    layer("core.emd_warm_us.d32", "us", Lower),
    layer("core.emd_warm_us.d48", "us", Lower),
    layer("core.emd_warm_us.d96", "us", Lower),
    layer("core.emd_solves_per_query", "count", Lower),
    layer("core.lb_im_evals_per_query", "count", Lower),
    layer("transport.solves_per_query", "count", Lower),
    layer("transport.pivots_per_query", "count", Lower),
    layer("transport.repair_pivots_per_query", "count", Lower),
    layer("transport.warm_hit_ratio", "ratio", Higher),
    layer("transport.solve_ms_per_query", "ms", Lower),
    layer("transport.ns_per_pivot", "ns", Lower),
    layer("query.stage1_evals_per_query", "count", Lower),
    layer("query.stage2_evals_per_query", "count", Lower),
    layer("query.scan_ms_per_query", "ms", Lower),
    layer("query.knop_ms_per_query", "ms", Lower),
    layer("query.prepare_ms_per_query", "ms", Lower),
    layer("query.execute_ms_per_query", "ms", Lower),
    layer("query.unaccounted_ratio", "ratio", Lower),
    layer("cluster.build_s", "s", Lower),
    layer("cluster.attach_ms", "ms", Lower),
    layer("cluster.visited_per_query", "count", Lower),
    layer("cluster.pruned_per_query", "count", Higher),
    layer("cluster.emitted_per_query", "count", Lower),
    layer("durable.append_us", "us", Lower),
    layer("durable.sync_ms", "ms", Lower),
    layer("durable.syncs", "count", Lower),
    layer("durable.compact_ms", "ms", Lower),
    layer("durable.compactions", "count", Lower),
    layer("durable.open_ms", "ms", Lower),
    layer("durable.replayed_records", "count", Lower),
    layer("durable.torn_tail_bytes", "count", Lower),
    layer("durable.snapshot_us", "us", Lower),
    layer("dynamic.knn_vs_static_ratio", "ratio", Lower),
    layer("store.save_ms", "ms", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("store.bytes_read", "count", Lower),
    layer("store.sections_verified", "count", Lower),
    layer("store.index_bytes", "count", Lower),
    layer("wal.appends", "count", Lower),
    layer("wal.synced_bytes", "count", Lower),
    layer("wal.bytes_per_record", "count", Lower),
    layer("serve.insert_p50_ms", "ms", Lower),
    layer("serve.insert_p90_ms", "ms", Lower),
    layer("serve.handler_knn_ms", "ms", Lower),
    layer("serve.handler_insert_ms", "ms", Lower),
    layer("serve.wire_overhead_ms", "ms", Lower),
    layer("serve.healthz_us", "us", Lower),
    layer("serve.local_knn_p50_ms", "ms", Lower),
    layer("serve.qps_c1", "1/s", Higher),
    layer("serve.qps_c2", "1/s", Higher),
    layer("serve.scaling_c2_over_c1", "ratio", Higher),
    layer("serve.shed", "count", Lower),
    layer("serve.status_5xx", "count", Lower),
    layer("serve.snapshot_swaps", "count", Lower),
    layer("obs.untraced_queries_per_s", "1/s", Higher),
    layer("obs.trace_overhead_ratio", "ratio", Higher),
    layer("harness.round_spread", "ratio", Lower),
];

/// Metric values by declared name. Setting an undeclared name is a bug in
/// the harness, so it panics.
#[derive(Debug, Clone)]
pub struct Values {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Per-layer metrics start at 0: a layer a workload never enters did
    /// no work there.
    pub fn per_layer() -> Self {
        Values {
            defs: PER_LAYER,
            values: PER_LAYER.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    pub fn end_to_end() -> Self {
        Values {
            defs: END_TO_END,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.values.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(definition, value)` in declaration order; errors when a declared
    /// metric was never set.
    pub fn in_order(&self) -> Res<Vec<(MetricDef, f64)>> {
        self.defs
            .iter()
            .map(|def| {
                let value = self
                    .get(def.name)
                    .ok_or_else(|| format!("metric `{}` was not measured", def.name))?;
                if !value.is_finite() {
                    return Err(format!("metric `{}` is not finite: {value}", def.name).into());
                }
                Ok((*def, value))
            })
            .collect()
    }
}

/// What one run of one workload ends with.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn new(correct: bool, attempted: u64, failed: u64, values: &Values) -> Res<Self> {
        Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics: values
                .in_order()?
                .into_iter()
                .map(|(def, value)| (def.name.to_owned(), value, def.unit.to_owned()))
                .collect(),
        })
    }

    /// The result line: exactly the keys `correct`, `attempted`, `failed`
    /// and `metrics`, values printed with all their digits.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (index, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if index == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    pub fn from_json_line(line: &str) -> Res<Self> {
        Self::from_value(&json::parse(line)?)
    }

    pub fn from_value(value: &Value) -> Res<Self> {
        let object = value.as_object().ok_or("result line is not an object")?;
        let number = |key: &str| match object.get(key) {
            Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("result line lacks a whole number `{key}`")),
        };
        let Some(Value::Bool(correct)) = object.get("correct") else {
            return Err("result line lacks `correct`".into());
        };
        let metrics = object
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("result line lacks `metrics`")?
            .iter()
            .map(|(name, entry)| {
                let entry = entry.as_object();
                let value = entry.and_then(|e| match e.get("value") {
                    Some(Value::Number(n)) => Some(*n),
                    _ => None,
                });
                let unit = entry.and_then(|e| e.get("unit")).and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_owned())),
                    _ => Err(format!("metric `{name}` lacks value or unit")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunResult {
            correct: *correct,
            attempted: number("attempted")?,
            failed: number("failed")?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Every declared metric present with the declared unit, nothing
    /// failed: what `ci.sh` asserts of a result file.
    pub fn check_against(&self, defs: &[(String, String)]) -> Result<(), String> {
        if !self.correct || self.failed != 0 || self.attempted == 0 {
            return Err(format!(
                "correct = {}, attempted = {}, failed = {}",
                self.correct, self.attempted, self.failed
            ));
        }
        for (name, unit) in defs {
            match self.metrics.iter().find(|m| &m.0 == name) {
                None => return Err(format!("metric `{name}` is missing")),
                Some(m) if &m.2 != unit => {
                    return Err(format!(
                        "metric `{name}` has unit `{}`, declared `{unit}`",
                        m.2
                    ));
                }
                Some(m) if !m.1.is_finite() => return Err(format!("metric `{name}` = {}", m.1)),
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// What `BENCHMARK.json` declares, as far as the harness needs it.
#[derive(Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    /// `(name, unit, better, bound)`
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit, better)`
    pub per_layer: Vec<(String, String, String)>,
    pub run_seconds: u64,
}

impl Spec {
    pub fn parse(text: &str) -> Res<Self> {
        let value = json::parse(text)?;
        let object = value.as_object().ok_or("BENCHMARK.json is not an object")?;
        let list = |key: &str| {
            object
                .get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json lacks the list `{key}`"))
        };
        let text_of = |entry: &Value, key: &str| {
            entry
                .as_object()
                .and_then(|e| e.get(key))
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json entry lacks `{key}`"))
        };
        let mut end_to_end = Vec::new();
        for entry in list("end_to_end")? {
            let Some(Value::Number(bound)) = entry.as_object().and_then(|e| e.get("bound")) else {
                return Err("end_to_end entry lacks `bound`".into());
            };
            end_to_end.push((
                text_of(entry, "name")?,
                text_of(entry, "unit")?,
                text_of(entry, "better")?,
                *bound,
            ));
        }
        let mut per_layer = Vec::new();
        for entry in list("per_layer")? {
            per_layer.push((
                text_of(entry, "name")?,
                text_of(entry, "unit")?,
                text_of(entry, "better")?,
            ));
        }
        let workloads = list("workloads")?
            .iter()
            .map(|entry| text_of(entry, "name"))
            .collect::<Result<_, _>>()?;
        let Some(Value::Number(run_seconds)) = object.get("run_seconds") else {
            return Err("BENCHMARK.json lacks `run_seconds`".into());
        };
        Ok(Spec {
            workloads,
            end_to_end,
            per_layer,
            run_seconds: *run_seconds as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direction(better: Better) -> String {
        match better {
            Better::Lower => "lower".to_owned(),
            Better::Higher => "higher".to_owned(),
        }
    }

    fn spec() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Spec::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_declares_exactly_the_tables() {
        let spec = spec();
        let declared: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    direction(d.better),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(spec.end_to_end, declared);
        let declared: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), direction(d.better)))
            .collect();
        assert_eq!(spec.per_layer, declared);
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        assert_eq!(spec.run_seconds, crate::RUN_SECONDS);
    }

    #[test]
    fn tables_meet_the_contracts_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Lower);
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for def in END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25 && def.bound <= setup.bound);
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are used once"
        );
    }

    #[test]
    fn result_line_round_trips_and_is_checked() {
        let mut values = Values::end_to_end();
        for (index, def) in END_TO_END.iter().enumerate() {
            values.set(def.name, 1.25 + index as f64 / 3.0);
        }
        let result = RunResult::new(true, 1000, 0, &values).expect("all set");
        let line = result.to_json_line();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json_line(&line).expect("parses");
        assert_eq!(back.attempted, 1000);
        assert_eq!(back.metric("queries_per_s"), result.metric("queries_per_s"));
        let defs: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect();
        assert_eq!(back.check_against(&defs), Ok(()));

        let mut wrong_unit = back.clone();
        wrong_unit.metrics[0].2 = "h".to_owned();
        assert!(wrong_unit.check_against(&defs).is_err());
        let mut failed = back.clone();
        failed.failed = 1;
        assert!(failed.check_against(&defs).is_err());
        let mut missing = back;
        missing.metrics.pop();
        assert!(missing.check_against(&defs).is_err());
    }

    #[test]
    fn unmeasured_metric_is_an_error_not_a_zero() {
        let mut values = Values::end_to_end();
        values.set("setup_s", 1.0);
        assert!(RunResult::new(true, 1, 0, &values).is_err());
        assert!(Values::per_layer().in_order().is_ok());
    }
}
