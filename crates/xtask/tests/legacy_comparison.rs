//! On the live tree, the token engine reports findings identical to or
//! strictly stricter than the retired regex line scanner: every line the
//! legacy scanner flags is either reported by the token engine (as a
//! finding or a budgeted site) or excused by the extended marker grammar
//! (contiguous comment runs) that the line scanner cannot parse.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use xtask::engine::{self, LIBRARY_CRATES, TOOL_CRATES};
use xtask::legacy;
use xtask::passes::{self, PanicPolicy};
use xtask::report::{LintClass, LintReport};
use xtask::source::SourceFile;

/// All lines the token engine attributes to `classes`, findings and
/// budgeted sites alike.
fn token_lines(report: &LintReport, classes: &[LintClass]) -> BTreeSet<u32> {
    report
        .findings
        .iter()
        .filter(|f| classes.contains(&f.class))
        .map(|f| f.line)
        .chain(
            report
                .sites
                .iter()
                .filter(|s| classes.contains(&s.class))
                .map(|s| s.line),
        )
        .collect()
}

fn to_u32(line: usize) -> u32 {
    u32::try_from(line).unwrap()
}

#[test]
fn token_engine_is_identical_or_stricter_than_legacy() {
    let root = engine::workspace_root().unwrap();
    let mut files_checked = 0usize;
    let mut legacy_panic_total = 0usize;
    let mut legacy_indexing_total = 0usize;

    for &krate in LIBRARY_CRATES.iter().chain(TOOL_CRATES.iter()) {
        let src = root.join("crates").join(krate).join("src");
        for path in engine::rust_files(&src).unwrap() {
            files_checked += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let rel = path.strip_prefix(&root).unwrap_or(&path).to_path_buf();
            let file = SourceFile::new(rel.clone(), text.clone());
            let lines = legacy::scan_lines(&text);

            // Panic sites: legacy marked + unmarked vs token findings +
            // budgeted sites, under the crate's real policy.
            let policy = if engine::is_failure_path(krate, &path) {
                PanicPolicy::Forbidden
            } else if TOOL_CRATES.contains(&krate) {
                PanicPolicy::Counted
            } else {
                PanicPolicy::MarkerRequired
            };
            let mut report = LintReport::default();
            report.ensure_crate(krate);
            passes::panic_pass(&file, krate, policy, &mut report);
            let token = token_lines(&report, &[LintClass::PanicMarkers, LintClass::FailurePath]);
            let (legacy_marked, legacy_unmarked) = legacy::panic_sites(&lines);
            for line in legacy_marked.iter().chain(legacy_unmarked.iter()) {
                legacy_panic_total += 1;
                assert!(
                    token.contains(&to_u32(*line)),
                    "{}:{line}: legacy panic site missed by the token engine",
                    rel.display()
                );
            }

            // Indexing: every legacy site is either a token site or
            // excused by a marker in a contiguous comment run the line
            // scanner cannot see.
            let mut report = LintReport::default();
            report.ensure_crate(krate);
            passes::indexing_pass(&file, krate, &mut report);
            let token = token_lines(&report, &[LintClass::UnjustifiedIndexing]);
            for line in legacy::unjustified_indexing_lines(&lines) {
                legacy_indexing_total += 1;
                let line32 = to_u32(line);
                assert!(
                    token.contains(&line32)
                        || file.has_marker(line32, "bounds:")
                        || file.has_marker(line32, "lint: allow(indexing)"),
                    "{}:{line}: legacy indexing site missed by the token engine",
                    rel.display()
                );
            }

            // `# Errors` docs (library crates only, mirroring scan()):
            // the token pass also sees Results nested in return types,
            // so it must flag at least every legacy line.
            if LIBRARY_CRATES.contains(&krate) {
                let mut report = LintReport::default();
                report.ensure_crate(krate);
                passes::errors_docs_pass(&file, &mut report);
                let token = token_lines(&report, &[LintClass::ErrorsDocs]);
                for line in legacy::undocumented_fallible_lines(&lines) {
                    // A `//` marker interleaved with the doc block makes
                    // the legacy reconstruction drop the docs entirely;
                    // the comment-run walk still sees `# Errors` there.
                    assert!(
                        token.contains(&to_u32(line)) || file.has_marker(to_u32(line), "# Errors"),
                        "{}:{line}: legacy errors-docs site missed by the token engine",
                        rel.display()
                    );
                }
            }
        }
    }

    // Guard against a path mistake making the walk (and the test) vacuous.
    assert!(files_checked > 40, "only {files_checked} files scanned");
    assert!(
        legacy_panic_total > 30,
        "only {legacy_panic_total} legacy panic sites compared"
    );
    assert!(
        legacy_indexing_total > 100,
        "only {legacy_indexing_total} legacy indexing sites compared"
    );
}

/// The whole-workspace scan agrees with the checked-in budget file; this
/// is the same invariant `cargo xtask lint` enforces, pinned as a test.
#[test]
fn live_scan_is_clean_against_the_ratchet() {
    let root = engine::workspace_root().unwrap();
    let mut report = engine::scan(&root).unwrap();
    xtask::budget::check(&root.join("lint-budget.toml"), &mut report).unwrap();
    assert!(
        report.findings.is_empty(),
        "unannotated findings or budget drift on the live tree: {:?}",
        report
            .findings
            .iter()
            .map(|f| format!(
                "{}:{} [{}] {}",
                f.path.display(),
                f.line,
                f.class.name(),
                f.message
            ))
            .collect::<Vec<_>>()
    );
}
