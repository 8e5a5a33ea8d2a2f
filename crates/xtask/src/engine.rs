//! The lint engine: walks the workspace, lexes every scanned file once,
//! routes it through the passes that apply to its crate and path, then
//! checks the budget ratchet and renders the report.
//!
//! Scoping:
//! - **Library crates** (the nine `emd-*` crates) get the panic ban
//!   (marker-required), indexing audit, module-docs audit, `# Errors`
//!   docs and the error-taxonomy audit.
//! - **Tool crates** (`bench`, `xtask`) get panic/indexing/module-docs
//!   with *counted* semantics: no markers required, but every site is
//!   held against a shrinking budget.
//! - **Result-affecting crates** (`core`, `reduction`, `query`)
//!   additionally get the determinism audit.
//! - **`core` and `query`** get the budget-propagation audit (core's
//!   context-reuse entry points sit on the solver hot path).
//! - Float discipline runs over the solver hot-path file list, and its
//!   tolerance check (small f64 literals, named tolerance consts) over
//!   every library crate; the lossy-cast audit over the
//!   checksum/accounting/bound file list. An entry of either list that
//!   names no file is a finding: it would silently exempt the file it
//!   meant.

use crate::budget;
use crate::passes;
use crate::report::{LintClass, LintReport};
use crate::source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// Library crates subject to the marker-required panic ban, indexing
/// audit, `# Errors` docs and error-taxonomy audits.
pub const LIBRARY_CRATES: [&str; 9] = [
    "json",
    "core",
    "reduction",
    "query",
    "data",
    "obs",
    "store",
    "faultkit",
    "serve",
];

/// Tool crates: scanned with counted (markerless) budget semantics.
pub const TOOL_CRATES: [&str; 2] = ["bench", "xtask"];

/// Crates whose outputs are covered by bit-identity guarantees; the
/// determinism audit runs here.
pub const RESULT_AFFECTING_CRATES: [&str; 3] = ["core", "reduction", "query"];

/// Crates whose public solver entry points must propagate budgets.
pub const BUDGET_AUDIT_CRATES: [&str; 2] = ["query", "core"];

/// Solver hot paths and closed-form bounds (the library's and
/// emd-bench's) subject to the float-discipline lint, relative to the
/// workspace root.
pub const HOT_PATHS: [&str; 12] = [
    "crates/core/src/simplex.rs",
    "crates/core/src/vogel.rs",
    "crates/core/src/tree.rs",
    "crates/core/src/problem.rs",
    "crates/core/src/certify.rs",
    "crates/core/src/workspace.rs",
    "crates/core/src/context.rs",
    "crates/core/src/emd.rs",
    "crates/core/src/lower_bounds/im.rs",
    "crates/core/src/lower_bounds/dual.rs",
    "crates/bench/src/lower_bounds/centroid.rs",
    "crates/bench/src/lower_bounds/scaled_lp.rs",
];

/// Checksum, accounting and bound-computation files subject to the
/// lossy-cast audit, relative to the workspace root.
pub const LOSSY_CAST_PATHS: [&str; 12] = [
    "crates/query/src/durable/crc32.rs",
    "crates/query/src/durable/wal.rs",
    "crates/core/src/budget.rs",
    "crates/core/src/certify.rs",
    "crates/core/src/emd.rs",
    "crates/core/src/lower_bounds/im.rs",
    "crates/core/src/lower_bounds/dual.rs",
    "crates/bench/src/lower_bounds/centroid.rs",
    "crates/bench/src/lower_bounds/scaled_lp.rs",
    "crates/reduction/src/tightness.rs",
    "crates/reduction/src/reduced_cost.rs",
    "crates/reduction/src/reduced_emd.rs",
];

/// Whether a file sits on a failure path, where the panic ban is
/// absolute: error types, budget plumbing, degraded-outcome types, and
/// the whole fault-injection crate.
pub fn is_failure_path(krate: &str, file: &Path) -> bool {
    if krate == "faultkit" {
        return true;
    }
    matches!(
        file.file_name().and_then(|n| n.to_str()),
        Some("error.rs" | "budget.rs" | "outcome.rs")
    )
}

/// Locate the workspace root: the directory holding the `[workspace]`
/// manifest, walking up from the current directory.
///
/// # Errors
///
/// Fails when no ancestor directory holds a workspace manifest.
pub fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root above the current directory".into());
        }
    }
}

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
///
/// # Errors
///
/// Fails when a directory cannot be listed.
pub fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let entries = fs::read_dir(&current)
            .map_err(|e| format!("cannot list {}: {e}", current.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", current.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Whether `path` ends with one of the workspace-relative entries in
/// `list` (paths compare componentwise, so separators are portable).
fn in_path_list(root: &Path, path: &Path, list: &[&str]) -> bool {
    list.iter().any(|rel| root.join(rel) == path)
}

/// A finding (class `preamble`) for every entry of the path list `name`
/// that names no file under `root`: a moved or deleted file must not
/// drop out of its audit unnoticed.
pub fn check_path_list(root: &Path, name: &str, list: &[&str], report: &mut LintReport) {
    for rel in list.iter().filter(|rel| !root.join(rel).is_file()) {
        report.finding(
            &root.join("crates/xtask/src/engine.rs"),
            1,
            LintClass::Preamble,
            format!("{name} entry `{rel}` names no file"),
        );
    }
}

/// Run every pass over the workspace rooted at `root`, producing the
/// full report (budget ratchet not yet applied).
///
/// # Errors
///
/// Fails when a source file or manifest cannot be read.
pub fn scan(root: &Path) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let all_crates = LIBRARY_CRATES.iter().chain(TOOL_CRATES.iter());
    for &krate in all_crates {
        report.ensure_crate(krate);
        let library = LIBRARY_CRATES.contains(&krate);
        let src = root.join("crates").join(krate).join("src");
        for path in rust_files(&src)? {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let display_path = path
                .strip_prefix(root)
                .map(Path::to_path_buf)
                .unwrap_or_else(|_| path.clone());
            let file = SourceFile::new(display_path, text);

            let panic_policy = if library && is_failure_path(krate, &file.path) {
                passes::PanicPolicy::Forbidden
            } else if library {
                passes::PanicPolicy::MarkerRequired
            } else {
                passes::PanicPolicy::Counted
            };
            passes::panic_pass(&file, krate, panic_policy, &mut report);
            passes::indexing_pass(&file, krate, &mut report);
            passes::module_docs_pass(&file, &mut report);
            if library {
                passes::errors_docs_pass(&file, &mut report);
                passes::error_taxonomy_pass(&file, krate, &mut report);
                passes::tolerance_pass(&file, krate, &mut report);
            }
            if RESULT_AFFECTING_CRATES.contains(&krate) {
                passes::determinism_pass(&file, krate, &mut report);
            }
            if BUDGET_AUDIT_CRATES.contains(&krate) {
                passes::budget_propagation_pass(&file, krate, &mut report);
            }
            if in_path_list(root, &path, &HOT_PATHS) {
                passes::float_discipline_pass(&file, &mut report);
                report.hot_path_files += 1;
            }
            if in_path_list(root, &path, &LOSSY_CAST_PATHS) {
                passes::lossy_cast_pass(&file, krate, &mut report);
                report.cast_audited_files += 1;
            }
        }
    }
    check_path_list(root, "HOT_PATHS", &HOT_PATHS, &mut report);
    check_path_list(root, "LOSSY_CAST_PATHS", &LOSSY_CAST_PATHS, &mut report);
    check_preambles(root, &mut report)?;
    Ok(report)
}

/// Lint preamble (class `preamble`): every workspace crate opts into
/// `[lints] workspace = true` and forbids unsafe code in its entry file.
fn check_preambles(root: &Path, report: &mut LintReport) -> Result<(), String> {
    let mut crate_dirs: Vec<PathBuf> = vec![root.to_path_buf()];
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
            if entry.path().is_dir() {
                crate_dirs.push(entry.path());
            }
        }
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        let manifest_path = dir.join("Cargo.toml");
        let manifest = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        if !(manifest.contains("[lints]") && manifest.contains("workspace = true")) {
            report.finding(
                &manifest_path,
                1,
                LintClass::Preamble,
                "crate does not opt into the workspace lint table \
                 (`[lints] workspace = true`)"
                    .into(),
            );
        }
        let entry_file = ["src/lib.rs", "src/main.rs"]
            .iter()
            .map(|rel| dir.join(rel))
            .find(|p| p.is_file());
        let Some(entry_file) = entry_file else {
            continue; // virtual manifest or non-standard layout
        };
        let text = fs::read_to_string(&entry_file)
            .map_err(|e| format!("cannot read {}: {e}", entry_file.display()))?;
        if !text.contains("#![forbid(unsafe_code)]") {
            report.finding(
                &entry_file,
                1,
                LintClass::Preamble,
                "entry file lacks `#![forbid(unsafe_code)]`".into(),
            );
        }
    }
    Ok(())
}

/// Options for [`run_lint`].
#[derive(Debug, Default)]
pub struct Options {
    /// Rewrite `lint-budget.toml` from the scan instead of checking it.
    pub write_budget: bool,
    /// Where to write the `flexemd-lint/v1` JSON report (`-` = stdout).
    pub json: Option<String>,
    /// Print the `path:line` of every budgeted site of this class, so
    /// ratchet work ("shrink crate X's debt by N") is actionable without
    /// re-deriving the scanner's rules by hand.
    pub sites: Option<String>,
}

/// Full lint run: scan, budget ratchet (or rewrite), JSON dump.
///
/// # Errors
///
/// Returns the rendered failure report (findings or I/O problems); the
/// caller prints it and exits nonzero.
pub fn run_lint(options: &Options) -> Result<String, String> {
    let root = workspace_root()?;
    let mut report = scan(&root)?;
    let budget_path = root.join("lint-budget.toml");
    let budgets = if options.write_budget {
        let rendered = budget::render(&report);
        fs::write(&budget_path, &rendered)
            .map_err(|e| format!("cannot write {}: {e}", budget_path.display()))?;
        budget::parse(&rendered)?
    } else {
        budget::check(&budget_path, &mut report)?
    };
    if let Some(target) = &options.json {
        let json = report.to_json_string(&budgets);
        if target == "-" {
            print!("{json}");
        } else {
            fs::write(target, json).map_err(|e| format!("cannot write {target}: {e}"))?;
        }
    }
    if let Some(class) = &options.sites {
        for site in &report.sites {
            if site.class.name() == class {
                println!("{}:{}: [{class}]", site.path.display(), site.line);
            }
        }
    }
    if report.findings.is_empty() {
        let scanned = LIBRARY_CRATES.len() + TOOL_CRATES.len();
        Ok(format!(
            "xtask lint: clean ({scanned} crates, {} hot-path files, {} cast-audited files)",
            report.hot_path_files, report.cast_audited_files
        ))
    } else {
        use std::fmt::Write as _;
        let mut out = String::new();
        for finding in &report.findings {
            let _ = writeln!(
                out,
                "{}:{}: [{}] {}",
                finding.path.display(),
                finding.line,
                finding.class.name(),
                finding.message
            );
        }
        let _ = writeln!(out, "xtask lint: {} finding(s)", report.findings.len());
        Err(out)
    }
}
