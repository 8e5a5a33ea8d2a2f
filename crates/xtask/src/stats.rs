//! `cargo xtask stats`: the one size counter. It takes no flags and
//! prints four tables, each headed by the rule that produced it:
//!
//! - **Non-test lines** per crate, for every `.rs` under `crates/*/src`
//!   and under `src/`: the lines before the file's first line that starts
//!   with `#[cfg(test)]` in column 0, the test module (all of them when
//!   there is none; an indented `#[cfg(test)]` on one item does not end
//!   the count).
//! - **`pub` item lines** per library crate: those non-test lines that
//!   start with `pub fn|struct|enum|trait|type|const|static|mod|use`;
//!   `pub(crate)` and other restricted visibilities do not count.
//! - **CLI settable values**: the verbs of the `VERBS` table in
//!   `src/bin/flexemd.rs` and the (verb, option) pairs it accepts.
//! - **Doc bytes**: the size of each document in [`DOC_CAPS`] (`wc -c`)
//!   beside its cap, which `tests/design_map.rs` enforces.
//!
//! The rules are line-based on purpose: they are cheap to restate by
//! hand (`awk`, `grep`) on any checkout, so a parent and a change can be
//! counted the same way.

use crate::engine::{rust_files, LIBRARY_CRATES};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// The rule of the first table.
const NON_TEST_RULE: &str = "non-test lines: lines before each file's first \
     `#[cfg(test)]` in column 0, every .rs under crates/*/src and src/";

/// The rule of the second table.
const PUB_ITEM_RULE: &str = "pub item lines: non-test lines starting with \
     `pub fn|struct|enum|trait|type|const|static|mod|use` (not `pub(crate)`), library crates";

/// The rule of the third table.
const CLI_RULE: &str = "CLI settable values: verbs and (verb, option) pairs of \
     `VERBS` in src/bin/flexemd.rs";

/// The rule of the fourth table.
const DOC_RULE: &str = "doc bytes: `wc -c` of each capped document, then its cap";

/// The documents whose size is capped, with their caps in bytes.
pub const DOC_CAPS: [(&str, u64); 3] = [
    ("DESIGN.md", 40_000),
    ("EXPERIMENTS.md", 45_000),
    ("README.md", 12_000),
];

/// The item keywords a counted `pub` line starts with.
const PUB_ITEM_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

/// The lines of `text` before its first line starting with `#[cfg(test)]`
/// in column 0.
pub fn non_test_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
}

/// Whether a line declares a `pub` item by the second table's rule.
pub fn is_pub_item_line(line: &str) -> bool {
    let mut words = line.split_whitespace();
    words.next() == Some("pub") && words.next().is_some_and(|w| PUB_ITEM_KEYWORDS.contains(&w))
}

/// `(non-test lines, pub item lines)` of one source text.
pub fn count(text: &str) -> (usize, usize) {
    non_test_lines(text).fold((0, 0), |(lines, items), line| {
        (lines + 1, items + usize::from(is_pub_item_line(line)))
    })
}

/// The `VERBS` table of the CLI source: each verb with the options it
/// accepts, in table order. A string literal right after `(` names a
/// verb; every other literal is an option of the verb before it.
pub fn verb_table(cli_source: &str) -> Vec<(String, Vec<String>)> {
    let mut table: Vec<(String, Vec<String>)> = Vec::new();
    let block = cli_source
        .lines()
        .skip_while(|line| !line.trim_start().starts_with("const VERBS"))
        .skip(1)
        .take_while(|line| line.trim() != "];");
    for line in block {
        let mut rest = line;
        while let Some(open) = rest.find('"') {
            let before = rest.get(..open).unwrap_or_default().trim_end();
            let after = rest.get(open + 1..).unwrap_or_default();
            let Some(close) = after.find('"') else { break };
            let literal = after.get(..close).unwrap_or_default().to_owned();
            if before.ends_with('(') {
                table.push((literal, Vec::new()));
            } else if let Some((_, options)) = table.last_mut() {
                options.push(literal);
            }
            rest = after.get(close + 1..).unwrap_or_default();
        }
    }
    table
}

/// One crate's counts.
struct CrateCount {
    /// Directory name under `crates/`, or `flexemd` for the root `src/`.
    name: String,
    /// Non-test lines over the crate's source files.
    lines: usize,
    /// `pub` item lines over the crate's source files.
    pub_items: usize,
}

/// Count every crate under `root/crates` plus the root package's `src/`.
fn count_workspace(root: &Path) -> Result<Vec<CrateCount>, String> {
    let mut dirs: Vec<(String, std::path::PathBuf)> = Vec::new();
    let crates = root.join("crates");
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("cannot list {}: {e}", crates.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("cannot list {}: {e}", crates.display()))?
            .path();
        if path.join("src").is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            dirs.push((name, path.join("src")));
        }
    }
    dirs.sort();
    dirs.push(("flexemd".to_owned(), root.join("src")));
    let mut counts = Vec::with_capacity(dirs.len());
    for (name, src) in dirs {
        let (mut lines, mut pub_items) = (0, 0);
        for file in rust_files(&src)? {
            let text = fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let (l, p) = count(&text);
            lines += l;
            pub_items += p;
        }
        counts.push(CrateCount {
            name,
            lines,
            pub_items,
        });
    }
    Ok(counts)
}

/// Render the four tables for the workspace at `root`.
///
/// # Errors
///
/// Fails when a source file or a capped document cannot be read.
pub fn render(root: &Path) -> Result<String, String> {
    let counts = count_workspace(root)?;
    let cli_path = root.join("src/bin/flexemd.rs");
    let cli = fs::read_to_string(&cli_path)
        .map_err(|e| format!("cannot read {}: {e}", cli_path.display()))?;
    let verbs = verb_table(&cli);
    let is_library = |c: &&CrateCount| LIBRARY_CRATES.contains(&c.name.as_str());

    let mut out = String::new();
    let _ = writeln!(out, "{NON_TEST_RULE}");
    for c in &counts {
        let _ = writeln!(out, "  {:<12} {:>6}", c.name, c.lines);
    }
    let library: usize = counts.iter().filter(is_library).map(|c| c.lines).sum();
    let all: usize = counts.iter().map(|c| c.lines).sum();
    let _ = writeln!(
        out,
        "  {:<12} {library:>6}  (the {} library crates)",
        "library",
        LIBRARY_CRATES.len()
    );
    let _ = writeln!(out, "  {:<12} {all:>6}", "all");

    let _ = writeln!(out, "\n{PUB_ITEM_RULE}");
    for c in counts.iter().filter(is_library) {
        let _ = writeln!(out, "  {:<12} {:>6}", c.name, c.pub_items);
    }
    let pub_items: usize = counts.iter().filter(is_library).map(|c| c.pub_items).sum();
    let _ = writeln!(out, "  {:<12} {pub_items:>6}", "library");

    let _ = writeln!(out, "\n{CLI_RULE}");
    for (verb, options) in &verbs {
        let _ = writeln!(
            out,
            "  {verb:<12} {:>6}  {}",
            options.len(),
            options.join(" ")
        );
    }
    let pairs: usize = verbs.iter().map(|(_, options)| options.len()).sum();
    let _ = writeln!(out, "  verbs {}, (verb, option) pairs {pairs}", verbs.len());

    let _ = writeln!(out, "\n{DOC_RULE}");
    for (doc, cap) in DOC_CAPS {
        let path = root.join(doc);
        let bytes = fs::metadata(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?
            .len();
        let _ = writeln!(out, "  {doc:<15} {bytes:>6} / {cap}");
    }
    Ok(out)
}
