//! The dataset JSON format, pinned: the golden literals are
//! the bytes the PR 18 build (derive-style codec) wrote for the same
//! values, pasted — so files written before the codec was made explicit
//! read back bit-for-bit and files written now are byte-identical.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{CostMatrix, Histogram};
use emd_data::io::{self, IoError};
use emd_data::Dataset;
use proptest::prelude::*;

fn h(bins: &[f64]) -> Histogram {
    Histogram::new(bins.to_vec()).unwrap()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn dataset_json(dataset: &Dataset) -> String {
    let mut out = String::new();
    dataset.to_json(&mut out);
    out
}

fn dataset_from(text: &str) -> Result<Dataset, String> {
    Dataset::from_json(&emd_json::parse(text).unwrap())
}

/// Every `f64` compared by `to_bits`, everything else exactly.
fn assert_same(a: &Dataset, b: &Dataset) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.histograms.len(), b.histograms.len());
    for (x, y) in a.histograms.iter().zip(&b.histograms) {
        assert_eq!(bits(x.bins()), bits(y.bins()));
    }
    assert_eq!(
        (a.cost.rows(), a.cost.cols()),
        (b.cost.rows(), b.cost.cols())
    );
    assert_eq!(bits(a.cost.entries()), bits(b.cost.entries()));
    let flat = |d: &Dataset| {
        d.positions
            .as_ref()
            .map(|points| points.iter().map(|p| bits(p)).collect::<Vec<_>>())
    };
    assert_eq!(flat(a), flat(b));
}

fn golden_dataset() -> Dataset {
    Dataset {
        name: "golden \"two\"".to_owned(),
        histograms: vec![h(&[0.25, 0.75]), h(&[1.0, 0.0])],
        labels: vec![0, 7],
        cost: CostMatrix::new(2, 2, vec![0.0, 1.5, 1.5, 0.0]).unwrap(),
        positions: Some(vec![vec![0.0, 0.5], vec![1.0, -2.0]]),
    }
}

#[test]
fn dataset_golden_with_positions() {
    let literal = concat!(
        r#"{"name":"golden \"two\"","histograms":[[0.25,0.75],[1,0]],"labels":[0,7],"#,
        r#""cost":{"rows":2,"cols":2,"entries":[0,1.5,1.5,0]},"positions":[[0,0.5],[1,-2]]}"#
    );
    let dataset = golden_dataset();
    assert_eq!(dataset_json(&dataset), literal);
    assert_same(&dataset_from(literal).unwrap(), &dataset);
}

#[test]
fn dataset_golden_without_positions() {
    let literal = concat!(
        r#"{"name":"golden \"two\"","histograms":[[0.25,0.75],[1,0]],"labels":[0,7],"#,
        r#""cost":{"rows":2,"cols":2,"entries":[0,1.5,1.5,0]},"positions":null}"#
    );
    let dataset = Dataset {
        positions: None,
        ..golden_dataset()
    };
    assert_eq!(dataset_json(&dataset), literal);
    assert_same(&dataset_from(literal).unwrap(), &dataset);
    // An absent `positions` reads like `null`.
    let absent = literal.replace(r#","positions":null"#, "");
    assert_same(&dataset_from(&absent).unwrap(), &dataset);
}

#[test]
fn dataset_rejects_what_the_derive_rejected() {
    let good = dataset_json(&golden_dataset());
    assert!(dataset_from(&good).is_ok());
    for (from, to) in [
        // Missing field, wrong shape.
        (r#""name":"golden \"two\"","#, ""),
        (r#""labels":[0,7],"#, ""),
        (r#""name":"golden \"two\"""#, r#""name":7"#),
        (
            r#""histograms":[[0.25,0.75],[1,0]]"#,
            r#""histograms":[0.25,0.75]"#,
        ),
        (r#""positions":[[0,0.5],[1,-2]]"#, r#""positions":[0,0.5]"#),
        // Labels: non-integer, negative, beyond u32.
        (r#""labels":[0,7]"#, r#""labels":[0,7.5]"#),
        (r#""labels":[0,7]"#, r#""labels":[0,-7]"#),
        (r#""labels":[0,7]"#, r#""labels":[0,4294967296]"#),
        // Constructors: unnormalized histogram, ragged cost matrix.
        (r#"[0.25,0.75]"#, r#"[0.5,0.6]"#),
        (r#""entries":[0,1.5,1.5,0]"#, r#""entries":[0,1.5,1.5]"#),
        // `Dataset::validate`: label count, histogram dimensionality.
        (r#""labels":[0,7]"#, r#""labels":[0]"#),
        (r#"[1,0]"#, r#"[1]"#),
    ] {
        assert!(good.contains(from), "fixture lacks {from}");
        let bad = good.replacen(from, to, 1);
        assert!(dataset_from(&bad).is_err(), "accepted {bad}");
    }
    assert_eq!(dataset_from(&good).unwrap().labels, vec![0, 7]);
    let max = good.replacen("[0,7]", "[0,4294967295]", 1);
    assert_eq!(dataset_from(&max).unwrap().labels, vec![0, u32::MAX]);
}

/// A file nested past the parser's bound is a typed error naming the
/// file — not a stack overflow.
#[test]
fn deeply_nested_file_is_a_json_error() {
    let dir = std::env::temp_dir().join(format!("flexemd-json-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let error = io::load(&path).unwrap_err();
    assert!(matches!(error, IoError::Json { .. }), "{error}");
    let message = error.to_string();
    assert!(message.starts_with("json error in "), "{message}");
    assert!(message.contains("deep.json"), "{message}");
    assert_eq!(message.matches("json error").count(), 1, "{message}");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn histogram(dim: usize) -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, dim).prop_filter_map("positive total mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

fn dataset() -> impl Strategy<Value = Dataset> {
    (1usize..6, 0usize..5).prop_flat_map(|(dim, count)| {
        (
            prop::collection::vec(histogram(dim), count),
            prop::collection::vec(0u32..=u32::MAX, count),
            prop::collection::vec(0.0_f64..1e6, dim * dim),
            prop::option::weighted(
                0.5,
                prop::collection::vec(prop::collection::vec(-1e3_f64..1e3, 2), dim),
            ),
        )
            .prop_map(move |(histograms, labels, entries, positions)| Dataset {
                name: format!("prop-{dim}\t\"{count}\""),
                histograms,
                labels,
                cost: CostMatrix::new(dim, dim, entries).expect("non-negative and finite"),
                positions,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid dataset survives text: floats to the bit, labels exactly.
    #[test]
    fn dataset_roundtrips_bit_for_bit(dataset in dataset()) {
        let back = dataset_from(&dataset_json(&dataset)).unwrap();
        assert_same(&back, &dataset);
    }
}
