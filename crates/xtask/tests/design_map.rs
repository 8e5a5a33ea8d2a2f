//! DESIGN.md §4's module map describes the tree as it is: every file the
//! map names exists, and every `.rs` under a library crate's `src/` is
//! named.
//!
//! The map's grammar: a line `    NAME/  (...)` opens crate
//! `crates/NAME`; `src/:` and `tests/:` switch to that crate's
//! directory; every token ending in `.rs` (with `dir/{a,b}.rs` brace
//! lists) names a file there, or under the workspace root before the
//! first crate; `#` starts a comment.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use xtask::engine::{rust_files, LIBRARY_CRATES};

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
