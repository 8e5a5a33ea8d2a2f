//! Pin the rules of `cargo xtask stats` on fixtures whose counts are
//! known by hand (`tests/fixtures/stats.rs`, `tests/fixtures/verbs.rs`).

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use xtask::stats;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

#[test]
fn non_test_lines_end_at_the_column_zero_test_module() {
    let text = fixture("stats.rs");
    let (lines, _) = stats::count(&text);
    assert_eq!(lines, 27);
    // Without a test module every line counts.
    assert_eq!(stats::count("fn a() {}\n\nfn b() {}\n").0, 3);
}

#[test]
fn pub_item_lines_skip_restricted_visibility_fields_and_test_code() {
    let text = fixture("stats.rs");
    let items: Vec<usize> = stats::non_test_lines(&text)
        .enumerate()
        .filter(|(_, line)| stats::is_pub_item_line(line))
        .map(|(index, _)| index + 1)
        .collect();
    assert_eq!(items, vec![5, 6, 9, 12, 21]);
    assert_eq!(stats::count(&text).1, 5);
    for line in [
        "pub(crate) fn f() {}",
        "pub field: u8,",
        "// pub fn f",
        "pub async fn f() {}",
    ] {
        assert!(!stats::is_pub_item_line(line), "{line}");
    }
}

#[test]
fn verb_table_reads_verbs_and_their_options() {
    let table = stats::verb_table(&fixture("verbs.rs"));
    let verbs: Vec<(&str, usize)> = table
        .iter()
        .map(|(verb, options)| (verb.as_str(), options.len()))
        .collect();
    assert_eq!(verbs, vec![("first", 2), ("bare", 0), ("wide", 4)]);
    assert_eq!(table[2].1, vec!["index", "k", "range", "drain-stdin"]);
}
