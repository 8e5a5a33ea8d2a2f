//! Lint classes, findings, and the schema-versioned JSON report
//! (`flexemd-lint/v1`), mirroring the `flexemd-metrics/v1` convention:
//! a zero-dependency writer, sorted keys, exact integers.

use emd_json::write_escaped;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Schema identifier stamped into every JSON report. Bump the suffix on
/// any backwards-incompatible change to the document layout.
pub const SCHEMA: &str = "flexemd-lint/v1";

/// Every lint class the engine knows, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintClass {
    /// Panic-capable calls in library code (`// lint: allow(panic)`).
    PanicMarkers,
    /// `expr[i]` without a `// bounds:` justification.
    UnjustifiedIndexing,
    /// Files without a leading `//!` module doc comment.
    MissingModuleDocs,
    /// Public fallible fns without an `# Errors` doc section.
    ErrorsDocs,
    /// Float comparisons/NaN discipline in solver hot paths.
    FloatDiscipline,
    /// Panic patterns in failure-path code (no escape, no budget).
    FailurePath,
    /// Workspace lint-table opt-in, `#![forbid(unsafe_code)]`, and path
    /// lists whose every entry names a file.
    Preamble,
    /// Wall clocks, unordered containers and thread spawning in
    /// result-affecting crates (`// lint: allow(nondeterminism)`).
    Determinism,
    /// Public solver entry points without a `Budget`/`CancelToken`
    /// (`// lint: allow(unbudgeted)`).
    BudgetPropagation,
    /// `as` casts between numeric types in checksum/accounting/bound
    /// code (`// lint: allow(lossy-cast)`).
    LossyCast,
    /// Stringly-typed `Err(...)` constructions
    /// (`// lint: allow(error-taxonomy)`).
    ErrorTaxonomy,
    /// Named f64 tolerance consts (`const NAME: f64 = <below 1e-6>;`) in
    /// library code.
    Tolerances,
}

impl LintClass {
    /// Stable kebab-case name used in budgets, JSON and messages.
    pub fn name(self) -> &'static str {
        match self {
            LintClass::PanicMarkers => "panic-markers",
            LintClass::UnjustifiedIndexing => "unjustified-indexing",
            LintClass::MissingModuleDocs => "missing-module-docs",
            LintClass::ErrorsDocs => "errors-docs",
            LintClass::FloatDiscipline => "float-discipline",
            LintClass::FailurePath => "failure-path",
            LintClass::Preamble => "preamble",
            LintClass::Determinism => "determinism",
            LintClass::BudgetPropagation => "budget-propagation",
            LintClass::LossyCast => "lossy-cast",
            LintClass::ErrorTaxonomy => "error-taxonomy",
            LintClass::Tolerances => "tolerances",
        }
    }

    /// Classes tracked by the `lint-budget.toml` ratchet, in file order.
    pub const BUDGETED: [LintClass; 7] = [
        LintClass::PanicMarkers,
        LintClass::UnjustifiedIndexing,
        LintClass::Determinism,
        LintClass::BudgetPropagation,
        LintClass::LossyCast,
        LintClass::ErrorTaxonomy,
        LintClass::Tolerances,
    ];
}

/// A single hard finding, printed `path:line: [class] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Which lint produced it.
    pub class: LintClass,
    /// Human-readable explanation including the fix or escape hatch.
    pub message: String,
}

/// One budgeted (annotated or tolerated) site with its location, for
/// `--sites` and the fixture tests. Not serialized — the JSON document
/// carries only the counts.
#[derive(Debug, Clone)]
pub struct BudgetedSite {
    /// File the site is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Which lint counted it.
    pub class: LintClass,
}

/// Aggregated lint results: hard findings plus per-class, per-crate
/// budgeted (annotated or tolerated) site counts.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Hard findings (fail the lint regardless of budgets).
    pub findings: Vec<Finding>,
    /// `class name → crate → budgeted site count`.
    pub budgeted: BTreeMap<&'static str, BTreeMap<String, usize>>,
    /// Every budgeted site with file/line detail, in scan order.
    pub sites: Vec<BudgetedSite>,
    /// Files the float-discipline audit ran over.
    pub hot_path_files: usize,
    /// Files the lossy-cast audit ran over.
    pub cast_audited_files: usize,
}

impl LintReport {
    /// Record a hard finding.
    pub fn finding(
        &mut self,
        path: &std::path::Path,
        line: u32,
        class: LintClass,
        message: String,
    ) {
        self.findings.push(Finding {
            path: path.to_owned(),
            line,
            class,
            message,
        });
    }

    /// Count one budgeted site of `class` at `path:line` against `krate`.
    pub fn budgeted_site(
        &mut self,
        path: &std::path::Path,
        line: u32,
        class: LintClass,
        krate: &str,
    ) {
        self.sites.push(BudgetedSite {
            path: path.to_owned(),
            line,
            class,
        });
        *self
            .budgeted
            .entry(class.name())
            .or_default()
            .entry(krate.to_owned())
            .or_insert(0) += 1;
    }

    /// Ensure every budgeted class has an entry for `krate` (zero when
    /// nothing was counted), so budgets are total over crates.
    pub fn ensure_crate(&mut self, krate: &str) {
        for class in LintClass::BUDGETED {
            self.budgeted
                .entry(class.name())
                .or_default()
                .entry(krate.to_owned())
                .or_insert(0);
        }
    }

    /// The budgeted count for `class` in `krate` (zero when absent).
    pub fn budgeted_count(&self, class: LintClass, krate: &str) -> usize {
        self.budgeted
            .get(class.name())
            .and_then(|by_crate| by_crate.get(krate))
            .copied()
            .unwrap_or(0)
    }

    /// Render the report as a schema-versioned JSON document. Keys are
    /// sorted (BTreeMap iteration) and findings appear in scan order, so
    /// two runs over the same tree produce byte-identical output.
    pub fn to_json_string(&self, budgets: &BTreeMap<String, BTreeMap<String, usize>>) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": ");
        write_escaped(&mut out, SCHEMA);
        let _ = write!(
            out,
            ",\n  \"clean\": {},\n  \"findings\": [",
            self.findings.is_empty()
        );
        for (index, finding) in self.findings.iter().enumerate() {
            out.push_str(if index == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"lint\": ");
            write_escaped(&mut out, finding.class.name());
            out.push_str(", \"path\": ");
            write_escaped(&mut out, &finding.path.display().to_string());
            let _ = write!(out, ", \"line\": {}, \"message\": ", finding.line);
            write_escaped(&mut out, &finding.message);
            out.push('}');
        }
        out.push_str(if self.findings.is_empty() {
            "]"
        } else {
            "\n  ]"
        });
        out.push_str(",\n  \"budgeted\": ");
        write_counts(&mut out, self.budgeted.iter().map(|(k, v)| (*k, v)));
        out.push_str(",\n  \"budgets\": ");
        write_counts(&mut out, budgets.iter().map(|(k, v)| (k.as_str(), v)));
        out.push_str("\n}\n");
        out
    }
}

/// Write a `{class: {crate: n}}` two-level object.
fn write_counts<'a>(
    out: &mut String,
    sections: impl Iterator<Item = (&'a str, &'a BTreeMap<String, usize>)>,
) {
    out.push('{');
    let mut first_section = true;
    for (name, by_crate) in sections {
        out.push_str(if first_section { "\n" } else { ",\n" });
        first_section = false;
        out.push_str("    ");
        write_escaped(out, name);
        out.push_str(": {");
        for (index, (krate, count)) in by_crate.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            write_escaped(out, krate);
            let _ = write!(out, ": {count}");
        }
        out.push('}');
    }
    out.push_str(if first_section { "}" } else { "\n  }" });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn json_report_is_schema_versioned_and_sorted() {
        let mut report = LintReport::default();
        report.ensure_crate("core");
        report.budgeted_site(
            Path::new("crates/core/src/emd.rs"),
            3,
            LintClass::PanicMarkers,
            "core",
        );
        report.finding(
            Path::new("crates/core/src/emd.rs"),
            7,
            LintClass::Determinism,
            "uses \"HashMap\"".into(),
        );
        let budgets = BTreeMap::new();
        let json = report.to_json_string(&budgets);
        assert!(json.contains("\"schema\": \"flexemd-lint/v1\""));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"lint\": \"determinism\""));
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("uses \\\"HashMap\\\""));
        assert!(json.contains("\"panic-markers\": {\"core\": 1}"));
        // Every budgeted class has a core entry after ensure_crate.
        for class in LintClass::BUDGETED {
            assert!(json.contains(class.name()), "{} missing", class.name());
        }
    }

    #[test]
    fn empty_report_is_clean_valid_json() {
        let report = LintReport::default();
        let json = report.to_json_string(&BTreeMap::new());
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"budgeted\": {}"));
    }
}
