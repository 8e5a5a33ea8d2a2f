//! The lint passes: each walks a [`SourceFile`]'s code-token stream
//! (trivia and `#[cfg(test)]` regions already removed) and records hard
//! findings or budgeted sites into a [`LintReport`].
//!
//! Because the passes see tokens, not lines, they are immune to the
//! classic regex failure modes: patterns inside string literals, raw
//! strings, char literals, and (nested) block comments never match, and
//! adjacency checks (`expr[` vs `&mut [`) use real token boundaries.

use crate::lexer::TokenKind;
use crate::report::{LintClass, LintReport};
use crate::source::SourceFile;

/// How strictly panic sites are treated in a given file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicPolicy {
    /// Library code: a `// lint: allow(panic)` marker excuses a site
    /// into the budget; unmarked sites are findings.
    MarkerRequired,
    /// Failure-path code: every site is a finding, no escape.
    Forbidden,
    /// Tool crates (bench, xtask): every site is tolerated but counted
    /// against the crate's shrinking budget.
    Counted,
}

/// Panic-capable idents called as macros (`name!(…)`).
const PANIC_MACROS: [(&str, &str); 4] = [
    ("panic", "explicit panic!"),
    ("unreachable", "unreachable! can panic"),
    ("todo", "todo! panics"),
    ("unimplemented", "unimplemented! panics"),
];

/// Panic-capable idents called as methods (`.name(…)`).
const PANIC_METHODS: [(&str, &str); 2] = [
    ("unwrap", "unwrap() can panic"),
    ("expect", "expect() can panic"),
];

/// Numeric primitive type names for the lossy-cast audit.
const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Panic ban (classes `panic-markers` / `failure-path`). At most one
/// site per line is recorded, matching the line-scanner the budgets were
/// calibrated against.
pub fn panic_pass(file: &SourceFile, krate: &str, policy: PanicPolicy, report: &mut LintReport) {
    let mut last_line = 0u32;
    for pos in 0..file.code.len() {
        let Some(token) = file.code_token(pos) else {
            break;
        };
        if token.kind != TokenKind::Ident || token.line == last_line {
            continue;
        }
        let lexeme = file.code_lexeme(pos);
        let why = PANIC_MACROS
            .iter()
            .find(|(name, _)| *name == lexeme && file.is_punct(pos + 1, "!"))
            .or_else(|| {
                PANIC_METHODS.iter().find(|(name, _)| {
                    *name == lexeme
                        && pos > 0
                        && file.is_punct(pos - 1, ".")
                        && file.is_punct(pos + 1, "(")
                })
            })
            .map(|(_, why)| *why);
        let Some(why) = why else {
            continue;
        };
        last_line = token.line;
        match policy {
            PanicPolicy::Forbidden => report.finding(
                &file.path,
                token.line,
                LintClass::FailurePath,
                format!(
                    "{why} in failure-path code; panics are banned outright here \
                     (no marker escape) — return a value instead"
                ),
            ),
            PanicPolicy::Counted => {
                report.budgeted_site(&file.path, token.line, LintClass::PanicMarkers, krate);
            }
            PanicPolicy::MarkerRequired => {
                if file.has_marker(token.line, "lint: allow(panic)") {
                    report.budgeted_site(&file.path, token.line, LintClass::PanicMarkers, krate);
                } else {
                    report.finding(
                        &file.path,
                        token.line,
                        LintClass::PanicMarkers,
                        format!(
                            "{why} in library code; return a Result or mark the site \
                             `// lint: allow(panic): <reason>`"
                        ),
                    );
                }
            }
        }
    }
}

/// Indexing audit (class `unjustified-indexing`): `expr[…]` — a `[`
/// directly abutting an identifier, `)` or `]` — without a `// bounds:`
/// justification or `// lint: allow(indexing)` marker. Counted per line
/// against the budget, never a hard finding (brackets are ubiquitous in
/// numeric code; the ratchet stops *growth*).
pub fn indexing_pass(file: &SourceFile, krate: &str, report: &mut LintReport) {
    let mut last_line = 0u32;
    for pos in 0..file.code.len() {
        if !file.is_punct(pos, "[") {
            continue;
        }
        let Some(token) = file.code_token(pos) else {
            break;
        };
        if token.line == last_line {
            continue;
        }
        // The raw predecessor decides adjacency: the lexer is total, so
        // `tokens[i-1]` ends exactly where `[` starts; whitespace or an
        // operator between means slice-type / array-literal syntax.
        let Some(&raw_index) = file.code.get(pos) else {
            break;
        };
        let indexes_expression = raw_index > 0
            && file.tokens.get(raw_index - 1).is_some_and(|prev| {
                prev.kind == TokenKind::Ident || matches!(prev.lexeme(&file.text), ")" | "]")
            });
        if !indexes_expression {
            continue;
        }
        if file.has_marker(token.line, "bounds:")
            || file.has_marker(token.line, "lint: allow(indexing)")
        {
            continue;
        }
        last_line = token.line;
        report.budgeted_site(
            &file.path,
            token.line,
            LintClass::UnjustifiedIndexing,
            krate,
        );
    }
}

/// Module-docs audit (class `missing-module-docs`): a file that does
/// not open with `//!` is a finding.
pub fn module_docs_pass(file: &SourceFile, report: &mut LintReport) {
    if !file.has_module_docs() {
        report.finding(
            &file.path,
            1,
            LintClass::MissingModuleDocs,
            "file does not open with a `//!` module doc comment".to_owned(),
        );
    }
}

/// One `pub fn` found by [`for_each_public_fn`].
#[derive(Debug)]
pub struct PublicFn<'a> {
    /// The function's name.
    pub name: &'a str,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-position of the `pub` token (for doc lookups).
    pub pub_pos: usize,
    /// Code-position range of the signature: `(` through the token
    /// before the body `{` or terminating `;`.
    pub signature: std::ops::Range<usize>,
}

/// Walk every `pub fn` (unrestricted visibility only — `pub(crate)` and
/// friends are skipped) and invoke `visit` with its parsed header.
pub fn for_each_public_fn(file: &SourceFile, mut visit: impl FnMut(&SourceFile, PublicFn<'_>)) {
    let mut pos = 0usize;
    while pos < file.code.len() {
        if !file.is_ident(pos, "pub") {
            pos += 1;
            continue;
        }
        let pub_pos = pos;
        pos += 1;
        if file.is_punct(pos, "(") {
            // Restricted visibility: skip the `(…)` and treat the item
            // as non-public.
            let mut depth = 0usize;
            while pos < file.code.len() {
                match file.code_lexeme(pos) {
                    "(" => depth += 1,
                    ")" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            pos += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                pos += 1;
            }
            continue;
        }
        // Qualifiers between `pub` and `fn`.
        while matches!(
            file.code_lexeme(pos),
            "const" | "async" | "unsafe" | "extern"
        ) || file
            .code_token(pos)
            .is_some_and(|t| t.kind == TokenKind::Str)
        {
            pos += 1;
        }
        if !file.is_ident(pos, "fn") {
            continue;
        }
        let Some(fn_token) = file.code_token(pos) else {
            break;
        };
        let line = fn_token.line;
        let name_pos = pos + 1;
        let name = file.code_lexeme(name_pos);
        if name.is_empty() {
            break;
        }
        // Signature: from after the name to the body `{` or a `;`.
        let mut end = name_pos + 1;
        while end < file.code.len() {
            let lexeme = file.code_lexeme(end);
            if lexeme == "{" || lexeme == ";" {
                break;
            }
            end += 1;
        }
        visit(
            file,
            PublicFn {
                name,
                line,
                pub_pos,
                signature: name_pos + 1..end,
            },
        );
        pos = end;
    }
}

/// Whether the signature range mentions the identifier `name`.
fn signature_mentions(file: &SourceFile, header: &PublicFn<'_>, name: &str) -> bool {
    header.signature.clone().any(|pos| file.is_ident(pos, name))
}

/// Whether the signature declares a `Result` return type (any path).
fn returns_result(file: &SourceFile, header: &PublicFn<'_>) -> bool {
    let mut seen_arrow = false;
    for pos in header.signature.clone() {
        if file.is_punct(pos, "->") {
            seen_arrow = true;
        } else if seen_arrow && file.is_ident(pos, "Result") {
            return true;
        }
    }
    false
}

/// `# Errors` docs (class `errors-docs`, hard): every `pub fn` returning
/// a `Result` must document failure modes under an `# Errors` heading.
pub fn errors_docs_pass(file: &SourceFile, report: &mut LintReport) {
    let mut found: Vec<(String, u32)> = Vec::new();
    for_each_public_fn(file, |file, header| {
        if returns_result(file, &header) && !file.docs_above(header.pub_pos).contains("# Errors") {
            found.push((header.name.to_owned(), header.line));
        }
    });
    for (name, line) in found {
        report.finding(
            &file.path,
            line,
            LintClass::ErrorsDocs,
            format!("public fallible fn `{name}` lacks an `# Errors` doc section"),
        );
    }
}

/// Name prefixes that mark a public fn as a solver/refinement entry
/// point for the budget-propagation audit.
const SOLVER_ENTRY_PREFIXES: [&str; 7] =
    ["knn", "range", "run", "refine", "execute", "knop", "query"];

/// Name substrings that mark a public fn as a solver/refinement entry
/// point wherever they appear: `solve` kernels plus the warm-start and
/// context-reuse surface (`solve_warm`, `emd_in_context`, ...), which
/// sit on the same hot path and must carry a budget or declare why not.
const SOLVER_ENTRY_SUBSTRINGS: [&str; 3] = ["solve", "warm", "context"];

/// Whether a public fn name looks like a solver/refinement entry point.
fn is_solver_entry(name: &str) -> bool {
    SOLVER_ENTRY_SUBSTRINGS
        .iter()
        .any(|needle| name.contains(needle))
        || SOLVER_ENTRY_PREFIXES
            .iter()
            .any(|prefix| name == *prefix || name.starts_with(&format!("{prefix}_")))
}

/// Budget-propagation audit (class `budget-propagation`): every public
/// solver/refinement entry point in `core`/`query` must accept a
/// `Budget`, a `CancelToken` or a `Query` (which carries its budget), or
/// bear an explicit `// lint: allow(unbudgeted): <reason>` annotation —
/// so new kernels cannot silently regress execution governance.
pub fn budget_propagation_pass(file: &SourceFile, krate: &str, report: &mut LintReport) {
    let mut sites: Vec<(String, u32, bool)> = Vec::new();
    for_each_public_fn(file, |file, header| {
        if !is_solver_entry(header.name) {
            return;
        }
        if ["Budget", "CancelToken", "Query"]
            .iter()
            .any(|carrier| signature_mentions(file, &header, carrier))
        {
            return;
        }
        let annotated = file.has_marker(header.line, "lint: allow(unbudgeted)");
        sites.push((header.name.to_owned(), header.line, annotated));
    });
    for (name, line, annotated) in sites {
        if annotated {
            report.budgeted_site(&file.path, line, LintClass::BudgetPropagation, krate);
        } else {
            report.finding(
                &file.path,
                line,
                LintClass::BudgetPropagation,
                format!(
                    "public solver entry `{name}` neither accepts a Budget/CancelToken/Query nor \
                     declares itself unbudgeted; thread a budget through or mark the site \
                     `// lint: allow(unbudgeted): <reason>`"
                ),
            );
        }
    }
}

/// Token patterns the determinism audit forbids: `(sequence, message)`.
const NONDETERMINISM_PATTERNS: [(&[&str], &str); 6] = [
    (
        &["Instant", "::", "now"],
        "wall-clock read (Instant::now) in a result-affecting crate",
    ),
    (&["SystemTime"], "SystemTime in a result-affecting crate"),
    (
        &["HashMap"],
        "HashMap has nondeterministic iteration order; use BTreeMap or an indexed Vec",
    ),
    (
        &["HashSet"],
        "HashSet has nondeterministic iteration order; use BTreeSet or a sorted Vec",
    ),
    (
        &["thread", "::", "spawn"],
        "unstructured thread::spawn in a result-affecting crate",
    ),
    (
        &["thread", "::", "scope"],
        "thread::scope parallelism in a result-affecting crate",
    ),
];

/// Determinism audit (class `determinism`): forbid wall clocks,
/// unordered containers and thread spawning in result-affecting crates
/// outside `// lint: allow(nondeterminism): <reason>` annotated sites —
/// protecting the bit-identity properties proptest can only sample.
pub fn determinism_pass(file: &SourceFile, krate: &str, report: &mut LintReport) {
    for pos in 0..file.code.len() {
        let Some(token) = file.code_token(pos) else {
            break;
        };
        if token.kind != TokenKind::Ident {
            continue;
        }
        for (sequence, message) in NONDETERMINISM_PATTERNS {
            let matched = sequence.iter().enumerate().all(|(offset, expected)| {
                if expected
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                {
                    file.is_ident(pos + offset, expected)
                } else {
                    file.is_punct(pos + offset, expected)
                }
            });
            if !matched {
                continue;
            }
            if file.has_marker(token.line, "lint: allow(nondeterminism)") {
                report.budgeted_site(&file.path, token.line, LintClass::Determinism, krate);
            } else {
                report.finding(
                    &file.path,
                    token.line,
                    LintClass::Determinism,
                    format!(
                        "{message}; make the site deterministic or mark it \
                         `// lint: allow(nondeterminism): <reason>`"
                    ),
                );
            }
            break;
        }
    }
}

/// Lossy-cast audit (class `lossy-cast`): `as` casts between numeric
/// types in checksum, accounting and bound-computation code. Prefer
/// `From`/`TryFrom`; deliberate truncations carry
/// `// lint: allow(lossy-cast): <reason>`.
pub fn lossy_cast_pass(file: &SourceFile, krate: &str, report: &mut LintReport) {
    for pos in 0..file.code.len() {
        if !file.is_ident(pos, "as") {
            continue;
        }
        let target = file.code_lexeme(pos + 1);
        if !NUMERIC_TYPES.contains(&target) {
            continue;
        }
        let Some(token) = file.code_token(pos) else {
            break;
        };
        if file.has_marker(token.line, "lint: allow(lossy-cast)") {
            report.budgeted_site(&file.path, token.line, LintClass::LossyCast, krate);
        } else {
            report.finding(
                &file.path,
                token.line,
                LintClass::LossyCast,
                format!(
                    "`as {target}` cast in checksum/accounting/bound code can silently \
                     truncate or round; use From/TryFrom or mark the site \
                     `// lint: allow(lossy-cast): <reason>`"
                ),
            );
        }
    }
}

/// Error-taxonomy audit (class `error-taxonomy`): `Err(...)` built from
/// a bare string (`Err("…")`, `Err(format!(…))`, `Err(String::from(…))`)
/// instead of the crate's typed error enum. File-wide escapes use
/// `// lint: allow(error-taxonomy, file): <reason>`.
pub fn error_taxonomy_pass(file: &SourceFile, krate: &str, report: &mut LintReport) {
    let file_allowed = file.has_file_marker("lint: allow(error-taxonomy, file)");
    for pos in 0..file.code.len() {
        if !(file.is_ident(pos, "Err") && file.is_punct(pos + 1, "(")) {
            continue;
        }
        let payload = pos + 2;
        let stringly = file
            .code_token(payload)
            .is_some_and(|t| matches!(t.kind, TokenKind::Str | TokenKind::RawStr))
            || (file.is_ident(payload, "format") && file.is_punct(payload + 1, "!"))
            || (file.is_ident(payload, "String")
                && file.is_punct(payload + 1, "::")
                && file.is_ident(payload + 2, "from"));
        if !stringly {
            continue;
        }
        let Some(token) = file.code_token(pos) else {
            break;
        };
        if file_allowed || file.has_marker(token.line, "lint: allow(error-taxonomy)") {
            report.budgeted_site(&file.path, token.line, LintClass::ErrorTaxonomy, krate);
        } else {
            report.finding(
                &file.path,
                token.line,
                LintClass::ErrorTaxonomy,
                "stringly-typed Err(...); use the crate's typed error enum or mark the \
                 site `// lint: allow(error-taxonomy): <reason>` (file-wide: \
                 `// lint: allow(error-taxonomy, file): <reason>`)"
                    .into(),
            );
        }
    }
}

/// Float discipline in solver hot paths (class `float-discipline`).
pub fn float_discipline_pass(file: &SourceFile, report: &mut LintReport) {
    for pos in 0..file.code.len() {
        let Some(token) = file.code_token(pos) else {
            break;
        };
        let line = token.line;
        // `==` / `!=` against a float literal.
        if (file.is_punct(pos, "==") || file.is_punct(pos, "!=")) && float_neighbor(file, pos) {
            if !file.has_marker(line, "float: exact") {
                report.finding(
                    &file.path,
                    line,
                    LintClass::FloatDiscipline,
                    "`==`/`!=` against a float literal; use a tolerance or mark \
                     `// float: exact — <reason>`"
                        .into(),
                );
            }
            continue;
        }
        if file.is_ident(pos, "partial_cmp")
            && pos > 0
            && file.is_punct(pos - 1, ".")
            && !file.has_marker(line, "float: partial")
        {
            report.finding(
                &file.path,
                line,
                LintClass::FloatDiscipline,
                "partial_cmp on floats can observe NaN; use total_cmp or mark \
                 `// float: partial — <reason>`"
                    .into(),
            );
            continue;
        }
        if (file.is_ident(pos, "f64") || file.is_ident(pos, "f32"))
            && file.is_punct(pos + 1, "::")
            && file.is_ident(pos + 2, "NAN")
            && !file.has_marker(line, "float: nan")
        {
            report.finding(
                &file.path,
                line,
                LintClass::FloatDiscipline,
                "NaN constant in a solver hot path; mark the sentinel \
                 `// float: nan — <reason>`"
                    .into(),
            );
        }
    }
}

/// The magnitude below which an f64 literal is a tolerance.
const TOLERANCE_BELOW: f64 = 1e-6;

/// Tolerances in library code. An f64 literal in `(0, 1e-6)` outside a
/// `const` item is a finding (class `float-discipline`) unless its line
/// carries `// float: tolerance — <reason>`: a tolerance decides results,
/// so it is named once or says why it stands alone. A `const NAME: f64 =
/// <such a literal>;` is a named tolerance, counted against the crate's
/// `tolerances` budget, which may only fall.
pub fn tolerance_pass(file: &SourceFile, krate: &str, report: &mut LintReport) {
    let mut pos = 0;
    while let Some(token) = file.code_token(pos) {
        let line = token.line;
        if file.is_ident(pos, "const") && file.is_punct(pos + 2, ":") {
            let mut end = pos;
            while file.code_token(end).is_some() && !file.is_punct(end, ";") {
                end += 1;
            }
            let named = file.is_ident(pos + 3, "f64")
                && file.is_punct(pos + 4, "=")
                && is_tolerance(file, pos + 5)
                && end == pos + 6;
            if named {
                report.budgeted_site(&file.path, line, LintClass::Tolerances, krate);
            }
            pos = end + 1;
            continue;
        }
        if is_tolerance(file, pos) && !file.has_marker(line, "float: tolerance") {
            report.finding(
                &file.path,
                line,
                LintClass::FloatDiscipline,
                format!(
                    "f64 literal `{}` below {TOLERANCE_BELOW:e} outside a const item; name \
                     the tolerance or mark `// float: tolerance — <reason>`",
                    file.code_lexeme(pos)
                ),
            );
        }
        pos += 1;
    }
}

/// Whether the code token at `pos` is a float literal in `(0, 1e-6)`.
fn is_tolerance(file: &SourceFile, pos: usize) -> bool {
    let is_float = file
        .code_token(pos)
        .is_some_and(|t| t.kind == TokenKind::Float);
    let digits: String = file
        .code_lexeme(pos)
        .chars()
        .filter(|&c| c != '_')
        .collect();
    let digits = digits.trim_end_matches("f64").trim_end_matches("f32");
    is_float
        && digits
            .parse::<f64>()
            .is_ok_and(|value| value > 0.0 && value < TOLERANCE_BELOW)
}

/// Whether the comparison at code-position `pos` has a float literal on
/// either side (a leading unary minus on the right is looked through).
fn float_neighbor(file: &SourceFile, pos: usize) -> bool {
    let is_float = |p: usize| {
        file.code_token(p)
            .is_some_and(|t| t.kind == TokenKind::Float)
    };
    (pos > 0 && is_float(pos - 1))
        || is_float(pos + 1)
        || (file.is_punct(pos + 1, "-") && is_float(pos + 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(text: &str) -> SourceFile {
        SourceFile::new(PathBuf::from("test.rs"), text.to_owned())
    }

    fn run<F: Fn(&SourceFile, &mut LintReport)>(text: &str, pass: F) -> LintReport {
        let mut report = LintReport::default();
        pass(&file(text), &mut report);
        report
    }

    #[test]
    fn panic_pass_sees_through_strings_and_comments() {
        let report = run(
            "fn a() { let s = \".unwrap()\"; } // x.unwrap()\n/* y.unwrap() */\nfn b() { z.unwrap(); }\n",
            |f, r| panic_pass(f, "core", PanicPolicy::MarkerRequired, r),
        );
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 3);
    }

    #[test]
    fn panic_policy_counted_budgets_without_markers() {
        let report = run("fn a() { x.unwrap(); y.expect(\"m\"); }\n", |f, r| {
            panic_pass(f, "bench", PanicPolicy::Counted, r);
        });
        assert!(report.findings.is_empty());
        // One site per line.
        assert_eq!(report.budgeted_count(LintClass::PanicMarkers, "bench"), 1);
    }

    #[test]
    fn indexing_requires_adjacency() {
        let report = run(
            "fn a(xs: &[f64]) { let v = vec![0.0; 3]; let x = xs[0] + xs[1]; }\n",
            |f, r| indexing_pass(f, "core", r),
        );
        assert_eq!(
            report.budgeted_count(LintClass::UnjustifiedIndexing, "core"),
            1,
            "one line with index expressions"
        );
    }

    #[test]
    fn indexing_accepts_bounds_justification() {
        let report = run(
            "fn a(xs: &[f64]) {\n  // bounds: len checked above\n  let x = xs[0];\n}\n",
            |f, r| indexing_pass(f, "core", r),
        );
        assert_eq!(
            report.budgeted_count(LintClass::UnjustifiedIndexing, "core"),
            0
        );
    }

    #[test]
    fn determinism_flags_and_budgets() {
        let text = "use std::collections::HashMap;\nfn a() {\n  // lint: allow(nondeterminism): merge order fixed\n  std::thread::scope(|s| {});\n}\n";
        let report = run(text, |f, r| determinism_pass(f, "query", r));
        assert_eq!(report.findings.len(), 1, "HashMap import is a finding");
        assert_eq!(report.budgeted_count(LintClass::Determinism, "query"), 1);
    }

    #[test]
    fn budget_propagation_checks_signatures() {
        let text = "\
/// X.
pub fn solve(p: &P) -> R { body() }
/// Y.
pub fn solve_budgeted(p: &P, budget: &Budget) -> R { body() }
// lint: allow(unbudgeted): fast path, budgeted twin exists
pub fn knn_plain(p: &P) -> R { body() }
pub fn helper(p: &P) -> R { body() }
";
        let report = run(text, |f, r| budget_propagation_pass(f, "core", r));
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("`solve`"));
        assert_eq!(
            report.budgeted_count(LintClass::BudgetPropagation, "core"),
            1
        );
    }

    #[test]
    fn lossy_cast_flags_numeric_targets_only() {
        let text = "fn a(x: u8, m: &M) { let y = x as u32; let t = m as &dyn T; }\n";
        let report = run(text, |f, r| lossy_cast_pass(f, "store", r));
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("as u32"));
    }

    #[test]
    fn error_taxonomy_flags_stringly_errs() {
        let text = "\
fn a() -> Result<(), E> { Err(Error::Bad) }
fn b() -> Result<(), String> { Err(format!(\"bad {x}\")) }
fn c() -> Result<(), String> { Err(\"bad\".into()) }
";
        let report = run(text, |f, r| error_taxonomy_pass(f, "data", r));
        assert_eq!(report.findings.len(), 2);
    }

    #[test]
    fn error_taxonomy_file_marker_budgets_all_sites() {
        let text = "\
//! Internal parser. lint: allow(error-taxonomy, file): converted at the boundary
fn b() -> Result<(), String> { Err(format!(\"bad\")) }
fn c() -> Result<(), String> { Err(\"bad\".into()) }
";
        let report = run(text, |f, r| error_taxonomy_pass(f, "store", r));
        assert!(report.findings.is_empty());
        assert_eq!(report.budgeted_count(LintClass::ErrorTaxonomy, "store"), 2);
    }

    #[test]
    fn errors_docs_uses_token_docs() {
        let text = "\
/// Does things.
///
/// # Errors
/// Fails when sad.
pub fn ok_fn() -> Result<(), E> { Ok(()) }
/// Undocumented.
pub fn bad_fn() -> Result<(), E> { Ok(()) }
pub fn infallible() -> usize { 0 }
pub(crate) fn internal() -> Result<(), E> { Ok(()) }
";
        let report = run(text, errors_docs_pass);
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].message.contains("bad_fn"));
    }

    #[test]
    fn float_discipline_on_tokens() {
        let text = "fn a() { if x == 0.0 {} if i == 0 {} if y != -1.5 {} }\n";
        let report = run(text, float_discipline_pass);
        assert_eq!(report.findings.len(), 2);
    }

    #[test]
    fn tolerance_pass_names_or_marks_small_literals() {
        let text = "const A: f64 = 1e-9;\npub(crate) const B: f64 = 2.5e-7;\n\
                    const C: f64 = 0.5;\nconst D: f64 = 1e-9 * 2.0;\n\
                    fn a(x: f64) -> bool { x < 1e-12 || x > 0.0 }\n\
                    // float: tolerance — fixture reason\nfn b(x: f64) -> bool { x < 1e-12 }\n";
        let report = run(text, |f, r| tolerance_pass(f, "core", r));
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 5);
        assert_eq!(report.budgeted_count(LintClass::Tolerances, "core"), 2);
    }

    #[test]
    fn float_discipline_honors_markers() {
        let text =
            "fn a() {\n  // float: exact — drift is exactly representable\n  if x == 0.0 {}\n}\n";
        let report = run(text, float_discipline_pass);
        assert!(report.findings.is_empty());
    }
}
