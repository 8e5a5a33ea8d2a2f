//! The one query-shape vocabulary shared by every entry point.
//!
//! `flexemd query` and `flexemd serve` both accept the same four knobs
//! — `k`, `range`/`epsilon`, `deadline_ms`, `max_pivots` — and both must
//! translate them into an engine [`Query`] (a [`QueryMode`] plus a
//! [`Budget`]) identically, or "the server returned a different answer
//! than the CLI" becomes a bug class. [`QuerySpec`] is
//! that single translation: CLI flags enter via [`QuerySpec::from_raw`],
//! HTTP JSON bodies via [`QuerySpec::from_json`], and both feed the same
//! validation and the same [`QuerySpec::query_for`] lowering.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::error::ServeError;
use emd_core::Histogram;
use emd_json::Value;
use emd_query::{Budget, Query, QueryMode};

/// The k used when a request names neither `k` nor a range radius.
pub const DEFAULT_K: usize = 10;

/// A validated query shape: what to ask (`k` / `epsilon`) and how hard
/// to try (`deadline_ms` / `max_pivots`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuerySpec {
    /// kNN cardinality; mutually exclusive with `epsilon`.
    pub k: Option<usize>,
    /// Range-query radius; mutually exclusive with `k`.
    pub epsilon: Option<f64>,
    /// Wall-clock budget in milliseconds (absent = unlimited).
    pub deadline_ms: Option<u64>,
    /// Simplex-pivot budget across all solves (absent = unlimited).
    pub max_pivots: Option<u64>,
}

fn bad(field: &str, expected: &str) -> ServeError {
    ServeError::BadRequest(format!("`{field}` must be {expected}"))
}

fn parse_field<T: std::str::FromStr>(
    raw: Option<&str>,
    field: &str,
    expected: &str,
) -> Result<Option<T>, ServeError> {
    raw.map(|text| text.parse::<T>().map_err(|_| bad(field, expected)))
        .transpose()
}

/// An optional body field (absent and `null` both mean "not given")
/// read through one of `Value`'s typed accessors.
fn json_field<T>(
    map: &BTreeMap<String, Value>,
    field: &str,
    read: impl FnOnce(&Value) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, ServeError> {
    match map.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => read(value).map(Some).ok_or_else(|| bad(field, expected)),
    }
}

fn json_integer(map: &BTreeMap<String, Value>, field: &str) -> Result<Option<u64>, ServeError> {
    json_field(map, field, Value::as_u64, "a non-negative integer")
}

impl QuerySpec {
    /// Build a spec from raw CLI flag values (`None` = flag absent).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when a value fails to parse,
    /// when `k` and `range` are both given, or when a value is out of
    /// domain (`k == 0`, negative/non-finite `range`).
    pub fn from_raw(
        k: Option<&str>,
        range: Option<&str>,
        deadline_ms: Option<&str>,
        max_pivots: Option<&str>,
    ) -> Result<Self, ServeError> {
        let spec = QuerySpec {
            k: parse_field(k, "k", "a positive integer")?,
            epsilon: parse_field(range, "range", "a non-negative number")?,
            deadline_ms: parse_field(deadline_ms, "deadline-ms", "a duration in milliseconds")?,
            max_pivots: parse_field(max_pivots, "max-pivots", "a pivot count")?,
        };
        spec.validated()
    }

    /// Build a spec from the fields of a parsed JSON request body
    /// (`k`, `epsilon`, `deadline_ms`, `max_pivots`; all optional).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for wrongly-typed fields and
    /// for the same domain violations as [`QuerySpec::from_raw`].
    pub fn from_json(map: &BTreeMap<String, Value>) -> Result<Self, ServeError> {
        let k = match json_integer(map, "k")? {
            Some(n) => Some(usize::try_from(n).map_err(|_| bad("k", "a positive integer"))?),
            None => None,
        };
        let spec = QuerySpec {
            k,
            epsilon: json_field(map, "epsilon", Value::as_f64, "a number")?,
            deadline_ms: json_integer(map, "deadline_ms")?,
            max_pivots: json_integer(map, "max_pivots")?,
        };
        spec.validated()
    }

    fn validated(self) -> Result<Self, ServeError> {
        if self.k == Some(0) {
            return Err(bad("k", "a positive integer"));
        }
        if let Some(epsilon) = self.epsilon {
            if !epsilon.is_finite() || epsilon < 0.0 {
                return Err(bad("epsilon", "a finite non-negative number"));
            }
            if self.k.is_some() {
                return Err(ServeError::BadRequest(
                    "specify `k` or `epsilon`, not both".to_owned(),
                ));
            }
        }
        Ok(self)
    }

    /// The query mode this spec asks for ([`DEFAULT_K`]-NN when neither
    /// `k` nor `epsilon` was given).
    #[must_use]
    pub fn mode(&self) -> QueryMode {
        match (self.k, self.epsilon) {
            (_, Some(epsilon)) => QueryMode::Range(epsilon),
            (Some(k), None) => QueryMode::Knn(k),
            (None, None) => QueryMode::Knn(DEFAULT_K),
        }
    }

    /// Lower the effort knobs into an engine [`Budget`]; the deadline
    /// clock starts now.
    #[must_use]
    pub fn budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(pivots) = self.max_pivots {
            budget = budget.with_pivot_cap(pivots);
        }
        budget
    }

    /// Lower this spec into the engine [`Query`] for `histogram`: its
    /// mode plus a fresh [`budget`](Self::budget).
    #[must_use]
    pub fn query_for(&self, histogram: Histogram) -> Query {
        Query {
            histogram,
            mode: self.mode(),
            budget: self.budget(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(body: &str) -> BTreeMap<String, Value> {
        emd_json::parse(body)
            .expect("test body parses")
            .as_object()
            .expect("test body is an object")
            .clone()
    }

    #[test]
    fn defaults_to_ten_nn_unlimited() {
        let spec = QuerySpec::from_raw(None, None, None, None).expect("empty spec is valid");
        assert_eq!(spec.mode(), QueryMode::Knn(DEFAULT_K));
        assert!(spec.budget().is_unlimited());
    }

    #[test]
    fn raw_flags_parse() {
        let spec =
            QuerySpec::from_raw(Some("5"), None, Some("250"), Some("10000")).expect("valid flags");
        assert_eq!(spec.mode(), QueryMode::Knn(5));
        assert!(!spec.budget().is_unlimited());
        assert_eq!(spec.deadline_ms, Some(250));
        assert_eq!(spec.max_pivots, Some(10_000));
    }

    #[test]
    fn range_flag_selects_range_mode() {
        let spec = QuerySpec::from_raw(None, Some("0.75"), None, None).expect("valid range");
        assert_eq!(spec.mode(), QueryMode::Range(0.75));
    }

    #[test]
    fn k_and_range_conflict() {
        let error =
            QuerySpec::from_raw(Some("3"), Some("0.5"), None, None).expect_err("conflicting spec");
        assert!(error.to_string().contains("not both"));
    }

    #[test]
    fn bad_raw_values_are_typed_errors() {
        for (k, range, deadline, pivots) in [
            (Some("zero"), None, None, None),
            (Some("0"), None, None, None),
            (Some("-3"), None, None, None),
            (None, Some("-1.0"), None, None),
            (None, Some("NaN"), None, None),
            (None, None, Some("soon"), None),
            (None, None, None, Some("1.5")),
        ] {
            let result = QuerySpec::from_raw(k, range, deadline, pivots);
            assert!(
                matches!(result, Err(ServeError::BadRequest(_))),
                "{k:?}/{range:?}/{deadline:?}/{pivots:?} should be rejected"
            );
        }
    }

    #[test]
    fn json_fields_parse() {
        let spec = QuerySpec::from_json(&object(
            r#"{"k": 4, "deadline_ms": 100, "max_pivots": 500}"#,
        ))
        .expect("valid body");
        assert_eq!(spec.mode(), QueryMode::Knn(4));
        assert_eq!(spec.deadline_ms, Some(100));
        assert_eq!(spec.max_pivots, Some(500));
    }

    #[test]
    fn json_epsilon_selects_range_mode() {
        let spec = QuerySpec::from_json(&object(r#"{"epsilon": 2.5}"#)).expect("valid body");
        assert_eq!(spec.mode(), QueryMode::Range(2.5));
    }

    #[test]
    fn json_rejects_wrong_types_and_domains() {
        for body in [
            r#"{"k": "five"}"#,
            r#"{"k": 2.5}"#,
            r#"{"k": -1}"#,
            r#"{"k": 0}"#,
            r#"{"epsilon": "wide"}"#,
            r#"{"epsilon": -0.5}"#,
            r#"{"deadline_ms": [1]}"#,
            r#"{"max_pivots": 1.25}"#,
            r#"{"k": 3, "epsilon": 1.0}"#,
        ] {
            let result = QuerySpec::from_json(&object(body));
            assert!(
                matches!(result, Err(ServeError::BadRequest(_))),
                "{body} should be rejected"
            );
        }
    }

    #[test]
    fn json_null_means_absent() {
        let spec =
            QuerySpec::from_json(&object(r#"{"k": null, "deadline_ms": null}"#)).expect("valid");
        assert_eq!(spec, QuerySpec::default());
    }

    #[test]
    fn cli_and_json_agree() {
        let raw = QuerySpec::from_raw(Some("7"), None, Some("40"), Some("9")).expect("raw");
        let json = QuerySpec::from_json(&object(r#"{"k": 7, "deadline_ms": 40, "max_pivots": 9}"#))
            .expect("json");
        assert_eq!(raw, json);
    }
}
