//! Tests for the workspace's JSON codec. They live as an integration
//! test so the brace-heavy JSON literals stay out of the library source
//! tree.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_json::{parse, write_escaped, write_number, Value, MAX_DEPTH};
use std::collections::BTreeMap;

#[test]
fn parses_manifest_shape() {
    let text = r#"{
        "schema": "flexemd-store/v1",
        "name": "demo",
        "database": "database.seg",
        "reductions": [
            {"name": "kmed:6", "segment": "reduction-0.seg"},
            {"name": "fb-all:12", "segment": "reduction-1.seg"}
        ]
    }"#;
    let value = parse(text).unwrap();
    let object = value.as_object().unwrap();
    assert_eq!(object["schema"].as_str(), Some("flexemd-store/v1"));
    let reductions = object["reductions"].as_array().unwrap();
    assert_eq!(reductions.len(), 2);
    assert_eq!(
        reductions[1].as_object().unwrap()["segment"].as_str(),
        Some("reduction-1.seg")
    );
}

#[test]
fn parses_scalars_and_nesting() {
    assert_eq!(parse("null").unwrap(), Value::Null);
    assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
    assert_eq!(parse("-2.5e1").unwrap(), Value::Number(-25.0));
    assert_eq!(
        parse(r#"[1, [2, {"a": 3}]]"#).unwrap(),
        Value::Array(vec![
            Value::Number(1.0),
            Value::Array(vec![
                Value::Number(2.0),
                Value::Object(BTreeMap::from([("a".to_owned(), Value::Number(3.0))])),
            ]),
        ])
    );
}

#[test]
fn escape_roundtrip() {
    let nasty = "quote \" slash \\ newline \n tab \t unicode é";
    let mut rendered = String::new();
    write_escaped(&mut rendered, nasty);
    assert_eq!(parse(&rendered).unwrap().as_str(), Some(nasty));
    // A scalar beyond the basic plane is written raw and read back both
    // raw and as an escaped surrogate pair.
    let mut rendered = String::new();
    write_escaped(&mut rendered, "\u{1F600}");
    assert_eq!(rendered, "\"\u{1F600}\"");
    assert_eq!(parse(&rendered).unwrap().as_str(), Some("\u{1F600}"));
    let escaped = parse(r#""a\ud83d\ude00\u00e9""#).unwrap();
    assert_eq!(escaped.as_str(), Some("a\u{1F600}é"));
}

#[test]
fn numbers_roundtrip_by_bits() {
    let tricky = [
        0.0,
        -0.0,
        -3.0,
        0.1,
        1.0 / 3.0,
        1e-7,
        1e15,
        1e300,
        f64::MIN_POSITIVE,
        -2.2250738585072014e-308,
        5e-324,
        f64::MAX,
    ];
    for x in tricky {
        let mut text = String::new();
        write_number(&mut text, x);
        let back = parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(x.to_bits(), back.to_bits(), "{x} written as {text}");
    }
    for (x, expected) in [(4.0, "4"), (-0.0, "-0"), (1e15, "1000000000000000")] {
        let mut text = String::new();
        write_number(&mut text, x);
        assert_eq!(text, expected);
    }
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut text = String::new();
        write_number(&mut text, x);
        assert_eq!(text, "null");
    }
}

#[test]
fn typed_accessors_check_shape_and_domain() {
    let value =
        parse(r#"{"n": 7, "x": 0.5, "neg": -1, "big": 9007199254740992, "s": "7"}"#).unwrap();
    assert_eq!(value.get("n").and_then(Value::as_u64), Some(7));
    assert_eq!(value.get("n").and_then(Value::as_f64), Some(7.0));
    assert_eq!(value.get("x").and_then(Value::as_f64), Some(0.5));
    for field in ["x", "neg", "big", "s", "missing"] {
        assert_eq!(value.get(field).and_then(Value::as_u64), None, "{field}");
    }
    assert_eq!(value.get("s").and_then(Value::as_f64), None);
    assert_eq!(Value::Number(1.0).get("n"), None);
}

#[test]
fn rejects_malformed_documents() {
    assert!(parse("{").is_err());
    assert!(parse("[1,]").is_err());
    assert!(parse(r#"{"a": 1 "b": 2}"#).is_err());
    assert!(parse("1 2").is_err());
    assert!(parse(r#""unterminated"#).is_err());
    assert!(parse(r#"{"dup": 1, "dup": 2}"#).is_err());
    assert!(parse("nul").is_err());
    // Surrogates: lone high, lone low, reversed pair, high + non-escape.
    assert!(parse(r#""\ud83d""#).is_err());
    assert!(parse(r#""\ude00""#).is_err());
    assert!(parse(r#""\ude00\ud83d""#).is_err());
    assert!(parse(r#""\ud83dx""#).is_err());
    assert!(parse(r#""\ud83d\u0041""#).is_err());
    // Nesting is bounded: deep input is an error, not a stack overflow.
    let deep = "[".repeat(200_000);
    let error = parse(&deep).unwrap_err();
    assert!(error.contains("nesting deeper than 64"), "{error}");
    let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&at_bound).is_ok());
}
