//! Drive every lint pass over the known-positive / known-negative
//! fixture corpus in `tests/fixtures/` and pin down exactly which lines
//! each pass reports, budgets, or ignores.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use xtask::engine;
use xtask::passes::{self, PanicPolicy};
use xtask::report::{LintClass, LintReport};
use xtask::source::SourceFile;

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    SourceFile::new(PathBuf::from(name), text)
}

/// Lines of hard findings for `class`, ascending.
fn finding_lines(report: &LintReport, class: LintClass) -> Vec<u32> {
    let mut lines: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.class == class)
        .map(|f| f.line)
        .collect();
    lines.sort_unstable();
    lines
}

/// Lines of budgeted sites for `class`, ascending.
fn budgeted_lines(report: &LintReport, class: LintClass) -> Vec<u32> {
    let mut lines: Vec<u32> = report
        .sites
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.line)
        .collect();
    lines.sort_unstable();
    lines
}

/// The 1-based line number of the first line containing `needle`.
fn line_of(file: &SourceFile, needle: &str) -> u32 {
    for (index, line) in file.text.lines().enumerate() {
        if line.contains(needle) {
            return u32::try_from(index).unwrap() + 1;
        }
    }
    panic!("fixture does not contain {needle:?}");
}

#[test]
fn panic_fixture_marker_required() {
    let file = fixture("panic.rs");
    let mut report = LintReport::default();
    passes::panic_pass(&file, "core", PanicPolicy::MarkerRequired, &mut report);
    assert_eq!(
        finding_lines(&report, LintClass::PanicMarkers),
        vec![line_of(&file, "\"7\".parse().unwrap()")],
        "exactly the unmarked site is a finding"
    );
    assert_eq!(
        budgeted_lines(&report, LintClass::PanicMarkers),
        vec![line_of(&file, ".expect(\"fixture\")")],
        "exactly the marked site is budgeted"
    );
}

#[test]
fn panic_fixture_counted_policy_budgets_everything() {
    let file = fixture("panic.rs");
    let mut report = LintReport::default();
    passes::panic_pass(&file, "bench", PanicPolicy::Counted, &mut report);
    assert!(finding_lines(&report, LintClass::PanicMarkers).is_empty());
    assert_eq!(report.budgeted_count(LintClass::PanicMarkers, "bench"), 2);
}

#[test]
fn failure_path_fixture_has_no_escape() {
    let file = fixture("failure_path.rs");
    let mut report = LintReport::default();
    passes::panic_pass(&file, "core", PanicPolicy::Forbidden, &mut report);
    assert_eq!(
        finding_lines(&report, LintClass::FailurePath),
        vec![
            line_of(&file, "\"7\".parse().unwrap()"),
            line_of(&file, "panic!(\"failure paths"),
        ],
        "markers do not excuse failure-path panics"
    );
}

#[test]
fn indexing_fixture() {
    let file = fixture("indexing.rs");
    let mut report = LintReport::default();
    passes::indexing_pass(&file, "core", &mut report);
    assert_eq!(
        budgeted_lines(&report, LintClass::UnjustifiedIndexing),
        vec![line_of(&file, "values[i]"), line_of(&file, "pairs[0].0")],
        "slice types, macros, strings and justified sites must not count"
    );
}

#[test]
fn module_docs_fixture() {
    let missing = fixture("module_docs_missing.rs");
    let mut report = LintReport::default();
    passes::module_docs_pass(&missing, &mut report);
    assert_eq!(
        finding_lines(&report, LintClass::MissingModuleDocs),
        vec![1]
    );

    let documented = fixture("panic.rs");
    let mut report = LintReport::default();
    passes::module_docs_pass(&documented, &mut report);
    assert!(report.findings.is_empty() && report.sites.is_empty());
}

#[test]
fn errors_docs_fixture() {
    let file = fixture("errors_docs.rs");
    let mut report = LintReport::default();
    passes::errors_docs_pass(&file, &mut report);
    assert_eq!(
        finding_lines(&report, LintClass::ErrorsDocs),
        vec![
            line_of(&file, "pub fn undocumented"),
            line_of(&file, "pub fn nested_result"),
        ],
        "the documented fn and the private fn must not be flagged; the \
         tuple-nested Result must be"
    );
}

#[test]
fn determinism_fixture() {
    let file = fixture("determinism.rs");
    let mut report = LintReport::default();
    passes::determinism_pass(&file, "core", &mut report);
    assert_eq!(
        finding_lines(&report, LintClass::Determinism),
        vec![line_of(&file, "HashMap::<u32, u32>::new()")],
        "comment/string/test decoys must not count"
    );
    assert_eq!(
        budgeted_lines(&report, LintClass::Determinism),
        vec![line_of(&file, "Instant::now()")],
    );
}

#[test]
fn budget_propagation_fixture() {
    let file = fixture("budget_propagation.rs");
    let mut report = LintReport::default();
    passes::budget_propagation_pass(&file, "query", &mut report);
    assert_eq!(
        finding_lines(&report, LintClass::BudgetPropagation),
        vec![
            line_of(&file, "pub fn solve("),
            line_of(&file, "pub fn run(&self, h: &Histogram)"),
        ],
        "budget-, cancel- and query-accepting fns and non-solver fns are clean"
    );
    assert_eq!(
        budgeted_lines(&report, LintClass::BudgetPropagation),
        vec![line_of(&file, "pub fn knn(")],
    );
}

#[test]
fn lossy_cast_fixture() {
    let file = fixture("lossy_cast.rs");
    let mut report = LintReport::default();
    passes::lossy_cast_pass(&file, "store", &mut report);
    let unannotated = line_of(&file, "pub fn unannotated");
    assert_eq!(
        finding_lines(&report, LintClass::LossyCast),
        vec![unannotated + 1],
        "only the unannotated numeric cast is a finding"
    );
    assert_eq!(report.budgeted_count(LintClass::LossyCast, "store"), 1);
}

#[test]
fn error_taxonomy_fixture() {
    let file = fixture("error_taxonomy.rs");
    let mut report = LintReport::default();
    passes::error_taxonomy_pass(&file, "store", &mut report);
    assert_eq!(
        finding_lines(&report, LintClass::ErrorTaxonomy),
        vec![
            line_of(&file, "Err(\"stringly\".to_string())"),
            line_of(&file, "Err(format!"),
        ],
        "typed Err and in-string decoys must not count"
    );
    assert_eq!(
        budgeted_lines(&report, LintClass::ErrorTaxonomy),
        vec![line_of(&file, "Err(String::from(\"excused\"))")],
    );
}

#[test]
fn float_discipline_fixture() {
    let file = fixture("float_discipline.rs");
    let mut report = LintReport::default();
    passes::float_discipline_pass(&file, &mut report);
    let lines = finding_lines(&report, LintClass::FloatDiscipline);
    let expected = vec![
        line_of(&file, "x == 0.5"),
        line_of(&file, "a.partial_cmp(&b)"),
        line_of(&file, "    f64::NAN"),
    ];
    assert_eq!(lines, expected, "each marked twin must be clean");
}

/// The flagship property: a file whose only "findings" live inside raw
/// strings and multi-line block comments. The token engine reports
/// nothing, where a line/regex scanner fabricates findings from it.
#[test]
fn masking_fixture_token_engine_is_immune() {
    let file = fixture("masking.rs");
    let mut report = LintReport::default();
    passes::panic_pass(&file, "core", PanicPolicy::MarkerRequired, &mut report);
    passes::indexing_pass(&file, "core", &mut report);
    passes::determinism_pass(&file, "core", &mut report);
    passes::error_taxonomy_pass(&file, "core", &mut report);
    assert!(
        report.findings.is_empty() && report.sites.is_empty(),
        "token engine fabricated findings from strings/comments: {:?}",
        report.findings
    );
}

/// A path-list entry that names no file is a finding, not a silent skip:
/// a moved file would otherwise drop out of its audit.
#[test]
fn path_list_entry_without_a_file_is_a_finding() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let mut report = LintReport::default();
    let list = ["fixtures/lossy_cast.rs", "fixtures/moved_away.rs"];
    engine::check_path_list(&root, "LOSSY_CAST_PATHS", &list, &mut report);
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(
        messages,
        ["LOSSY_CAST_PATHS entry `fixtures/moved_away.rs` names no file"]
    );
    assert_eq!(report.findings[0].class, LintClass::Preamble);
}

/// The whole-workspace scan agrees with the checked-in budget file; this
/// is the same invariant `cargo xtask lint` enforces, pinned as a test.
#[test]
fn live_scan_is_clean_against_the_ratchet() {
    let root = engine::workspace_root().unwrap();
    let mut report = engine::scan(&root).unwrap();
    xtask::budget::check(&root.join("lint-budget.toml"), &mut report).unwrap();
    let render = |f: &xtask::report::Finding| {
        format!(
            "{}:{} [{}] {}",
            f.path.display(),
            f.line,
            f.class.name(),
            f.message
        )
    };
    assert!(
        report.findings.is_empty(),
        "unannotated findings or budget drift on the live tree: {:?}",
        report.findings.iter().map(render).collect::<Vec<_>>()
    );
}
