//! The docs describe the tree as it is.
//!
//! - DESIGN.md §4's module map: every file the map names exists, and
//!   every `.rs` under a library crate's `src/` is named. The map's
//!   grammar: a line `    NAME/  (...)` opens crate `crates/NAME`;
//!   `src/:` and `tests/:` switch to that crate's directory; every token
//!   ending in `.rs` (with `dir/{a,b}.rs` brace lists) names a file
//!   there, or under the workspace root before the first crate; `#`
//!   starts a comment.
//! - Every reference to a section of the design document resolves. A
//!   reference is the word `DESIGN` (then optionally `.md`, a closing
//!   backtick and a comma) and a space, followed by a number `§N` (more
//!   may follow, joined by `and`, `or`, `,` or `/`), by `section N`, or
//!   by a quoted title; inside the design document itself every bare
//!   `§N` counts too. A number must match a `## N.` heading, a title the
//!   text of a heading. They are read from the `.rs` files under
//!   `crates/`, `src/`, `tests/`, `examples/` and `benchmark/src/`, from
//!   `README.md` and `EXPERIMENTS.md`, and from the build-and-verify
//!   notes: every `SKILL.md` under a hidden directory of the root.
//! - The capped documents stay within their caps (`xtask::stats::DOC_CAPS`).

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use xtask::engine::{rust_files, LIBRARY_CRATES};
use xtask::stats::DOC_CAPS;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

/// The code block under DESIGN.md's "## 4." heading.
fn module_map(design: &str) -> Vec<&str> {
    design
        .lines()
        .skip_while(|line| !line.starts_with("## 4."))
        .skip_while(|line| !line.starts_with("```"))
        .skip(1)
        .take_while(|line| !line.starts_with("```"))
        .collect()
}

/// `dir/{a,b}.rs` -> `dir/a.rs`, `dir/b.rs`; anything else unchanged.
fn expand(token: &str) -> Vec<String> {
    match (token.find('{'), token.find('}')) {
        (Some(open), Some(close)) => token[open + 1..close]
            .split(',')
            .map(|stem| format!("{}{stem}{}", &token[..open], &token[close + 1..]))
            .collect(),
        _ => vec![token.to_owned()],
    }
}

/// Every path the map names, resolved against `root`.
fn named_paths(root: &Path, map: &[&str]) -> BTreeSet<PathBuf> {
    let mut named = BTreeSet::new();
    let mut base = root.to_path_buf();
    let mut krate: Option<PathBuf> = None;
    for line in map {
        let code = line.split('#').next().unwrap();
        let mut rest = code.trim_start();
        let indent = code.len() - rest.len();
        if indent == 4 {
            if let Some((name, _)) = rest.split_once("/ ") {
                krate = Some(root.join("crates").join(name));
                continue;
            }
        }
        for (prefix, sub) in [("src/:", "src"), ("tests/:", "tests")] {
            if let Some(after) = rest.strip_prefix(prefix) {
                base = krate.as_ref().expect("src/: outside a crate").join(sub);
                rest = after;
            }
        }
        let root_level = krate.is_none();
        for word in rest.split_whitespace() {
            let word = word.trim_matches(|c: char| !(c.is_alphanumeric() || "_/{},.".contains(c)));
            if word.ends_with(".rs") {
                for file in expand(word) {
                    named.insert(if root_level {
                        root.join(&file)
                    } else {
                        base.join(&file)
                    });
                }
            }
        }
    }
    named
}

#[test]
fn design_module_map_matches_the_tree() {
    let root = workspace_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let map = module_map(&design);
    assert!(map.len() > 20, "DESIGN.md §4 has no module map");
    let named = named_paths(&root, &map);

    let missing: Vec<_> = named.iter().filter(|path| !path.is_file()).collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md §4 names missing files: {missing:?}"
    );

    let mut unnamed = Vec::new();
    for krate in LIBRARY_CRATES {
        for file in rust_files(&root.join("crates").join(krate).join("src")).unwrap() {
            if !named.contains(&file) {
                unnamed.push(file);
            }
        }
    }
    assert!(unnamed.is_empty(), "DESIGN.md §4 omits: {unnamed:?}");
}

#[test]
fn brace_lists_expand() {
    assert_eq!(
        expand("engine/{mod,plan}.rs"),
        vec!["engine/mod.rs", "engine/plan.rs"]
    );
    assert_eq!(expand("lib.rs"), vec!["lib.rs"]);
}

/// A section of the design document, as a reference names it.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    /// `§N` or `section N`: the `N` of a `## N.` heading.
    Number(String),
    /// A quoted heading text.
    Title(String),
}

/// `text` with every line break and comment leader folded into one
/// space, so a reference that a comment wraps reads as one.
fn flatten(text: &str) -> String {
    text.lines()
        .map(|line| {
            let line = line.trim_start();
            ["//!", "///", "//"]
                .iter()
                .find_map(|leader| line.strip_prefix(leader))
                .unwrap_or(line)
                .trim()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The section number at the start of `text` (`4`, `6c`), if it starts
/// with a digit.
fn number(text: &str) -> Option<&str> {
    let end = text
        .find(|c: char| !c.is_ascii_alphanumeric())
        .unwrap_or(text.len());
    let id = &text[..end];
    id.starts_with(|c: char| c.is_ascii_digit()).then_some(id)
}

/// The quoted title at the start of `text`, if any.
fn quoted(text: &str) -> Option<&str> {
    let inner = text.strip_prefix('"')?;
    inner.find('"').map(|end| &inner[..end])
}

/// `§N`, then any `§M` joined to it by `and`, `or`, `,` or `/`, each
/// optionally followed by a quoted title.
fn numbers(mut text: &str, found: &mut Vec<Target>) {
    while let Some(id) = text.strip_prefix('§').and_then(number) {
        found.push(Target::Number(id.to_owned()));
        text = text['§'.len_utf8() + id.len()..].trim_start();
        if let Some(title) = quoted(text) {
            found.push(Target::Title(title.to_owned()));
        }
        match ["and ", "or ", ", ", "/ "]
            .iter()
            .find_map(|joint| text.strip_prefix(joint))
        {
            Some(rest) => text = rest.trim_start(),
            None => break,
        }
    }
}

/// Every reference to a design section in `text`.
fn references(text: &str) -> Vec<Target> {
    let flat = flatten(text);
    let mut found = Vec::new();
    let mut rest = flat.as_str();
    while let Some(at) = rest.find("DESIGN") {
        rest = &rest[at + "DESIGN".len()..];
        let mut after = rest.strip_prefix(".md").unwrap_or(rest);
        after = after.strip_prefix('`').unwrap_or(after);
        after = after.strip_prefix(',').unwrap_or(after);
        let Some(after) = after.strip_prefix(' ') else {
            continue;
        };
        let after = after.trim_start();
        if let Some(title) = quoted(after) {
            found.push(Target::Title(title.to_owned()));
        } else if let Some(id) = after.strip_prefix("section ").and_then(number) {
            found.push(Target::Number(id.to_owned()));
        } else {
            numbers(after, &mut found);
        }
    }
    found
}

/// Every bare `§N` in `text` (the design document's references to
/// itself).
fn self_references(text: &str) -> Vec<Target> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices('§') {
        if let Some(id) = number(&text[at + '§'.len_utf8()..]) {
            found.push(Target::Number(id.to_owned()));
        }
    }
    found
}

/// The sections of a design document: `## N.` numbers and heading texts
/// (with and without that number).
fn sections(design: &str) -> BTreeSet<Target> {
    let mut found = BTreeSet::new();
    for line in design.lines().filter(|line| line.starts_with('#')) {
        let heading = line.trim_start_matches('#').trim();
        found.insert(Target::Title(heading.to_owned()));
        if let Some((id, title)) = heading.split_once(". ") {
            if line.starts_with("## ") && number(id) == Some(id) {
                found.insert(Target::Number(id.to_owned()));
                found.insert(Target::Title(title.to_owned()));
            }
        }
    }
    found
}

/// The files references are read from, beside the design document.
fn citing_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        files.extend(rust_files(&root.join(dir)).unwrap());
    }
    files.extend(["README.md", "EXPERIMENTS.md"].map(|doc| root.join(doc)));
    let mut stack: Vec<PathBuf> = std::fs::read_dir(root)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            path.is_dir() && name.starts_with('.') && name != ".git"
        })
        .collect();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|name| name == "SKILL.md") {
                files.push(path);
            }
        }
    }
    files
}

#[test]
fn every_design_reference_resolves() {
    let root = workspace_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let sections = sections(&design);
    let mut cited = vec![(root.join("DESIGN.md"), self_references(&design))];
    for file in citing_files(&root) {
        let text = std::fs::read_to_string(&file).unwrap();
        cited.push((file, references(&text)));
    }

    let total: usize = cited.iter().map(|(_, targets)| targets.len()).sum();
    assert!(total >= 10, "only {total} references to DESIGN.md found");
    let mut dangling = Vec::new();
    for (file, targets) in &cited {
        for target in targets.iter().filter(|target| !sections.contains(target)) {
            dangling.push((file.strip_prefix(&root).unwrap_or(file), target));
        }
    }
    assert!(
        dangling.is_empty(),
        "references to no section of DESIGN.md: {dangling:?}"
    );
}

#[test]
fn docs_stay_within_their_caps() {
    let root = workspace_root();
    for (doc, cap) in DOC_CAPS {
        let bytes = std::fs::metadata(root.join(doc)).unwrap().len();
        assert!(
            bytes <= cap,
            "{doc} is {bytes} bytes, over its cap of {cap}"
        );
    }
}

#[test]
fn references_are_read_in_every_form() {
    // The word is spliced in so that this file cites nothing itself.
    let word = "DESIGN";
    let number = |id: &str| Target::Number(id.to_owned());
    let title = |text: &str| Target::Title(text.to_owned());
    let text = format!(
        "see `{word}.md` §10 and §16.\n//! ({word}.md, \"Warm answers\n//! and ties\"); \
         {word} §6c \"The chain condition\", {word}.md section 5 and \
         {word}.md maps every experiment; {word} §4's map"
    );
    assert_eq!(
        references(&text),
        vec![
            number("10"),
            number("16"),
            title("Warm answers and ties"),
            number("6c"),
            title("The chain condition"),
            number("5"),
            number("4"),
        ]
    );
    assert_eq!(
        self_references("§3 and §4. §x"),
        vec![number("3"), number("4")]
    );

    let headings =
        sections("# Top\n## 3. Kernel\n### Warm answers and ties\n#### 1. Not a section");
    assert!(headings.contains(&number("3")));
    assert!(headings.contains(&title("Kernel")));
    assert!(headings.contains(&title("3. Kernel")));
    assert!(headings.contains(&title("Warm answers and ties")));
    assert!(!headings.contains(&number("1")));
}
