//! The dual repair's branch-free entering scan and dual shift against
//! the strict-`<` scan and branchy shifts they replaced.
//!
//! `repair_entering` lists the marked rows branch-free, scans each in
//! full against a `v` masked to `-∞` off the cut, takes the least reduced
//! cost in independent lanes, then locates the first cell equal to it;
//! `shift_marked` shifts the marked duals by a select. [`reference`]
//! holds the scan it replaced: a gathered, doubly-indexed row-major scan
//! that keeps the first strict minimum. The two must agree cell for cell
//! and bit for bit: at every row width from 1 to 64 (so every tail length
//! of the lanes), under exact ties and ties between `0.0` and `-0.0`,
//! with fully masked rows, and with no cut cell at all — the
//! `Repair::Abandoned` exit.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::simplex::{repair_entering, shift_marked};
use proptest::prelude::*;

mod reference {
    //! The entering scan of `dual_repair` as a doubly-indexed loop over
    //! the whole tableau.

    /// The first cell in row-major order of least reduced cost among
    /// marked rows and unmarked columns, strictly below `+∞`.
    pub fn entering(
        costs: &[f64],
        u: &[f64],
        v: &[f64],
        row_side: &[bool],
        col_side: &[bool],
    ) -> Option<(usize, usize, f64)> {
        let n = v.len();
        let cut_cols: Vec<usize> = (0..n).filter(|&j| !col_side[j]).collect();
        let mut entering = None;
        let mut best = f64::INFINITY;
        for i in 0..u.len() {
            if !row_side[i] {
                continue;
            }
            for &j in &cut_cols {
                let reduced = costs[i * n + j] - u[i] - v[j];
                if reduced < best {
                    best = reduced;
                    entering = Some((i, j));
                }
            }
        }
        entering.map(|(i, j)| (i, j, best))
    }
}

/// A value from a handful, `0.0` and `-0.0` among them: exact ties in
/// every scan and reduced costs of either zero.
fn tied() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![-0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 1e-10])
}

/// A value from a continuum: ties only by accident.
fn spread() -> impl Strategy<Value = f64> {
    -3.0_f64..3.0
}

/// Row-major costs, `u`, `v`, and the row and column marks of a cut.
type Tableau = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<bool>, Vec<bool>);

/// An entering cell with the bits of its reduced cost.
type Found = Option<(usize, usize, u64)>;

/// Costs `m x n`, duals `u` and `v` drawn from `values`, and the cut's
/// marks: rows marked with probability `rows`, columns with probability
/// `cols`.
fn tableau<S: Strategy<Value = f64>>(
    values: fn() -> S,
    rows: f64,
    cols: f64,
) -> impl Strategy<Value = Tableau> {
    (1usize..=6, 1usize..=64).prop_flat_map(move |(m, n)| {
        (
            prop::collection::vec(values(), m * n),
            prop::collection::vec(values(), m),
            prop::collection::vec(values(), n),
            marks(m, rows),
            marks(n, cols),
        )
    })
}

/// `len` marks, each set with probability `probability`.
fn marks(len: usize, probability: f64) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(prop::option::weighted(probability, Just(())), len)
        .prop_map(|marks| marks.iter().map(Option::is_some).collect())
}

/// `repair_entering` as the reference sees it: cell and reduced-cost bits.
fn entering_bits(
    costs: &[f64],
    u: &[f64],
    v: &[f64],
    row_side: &[bool],
    col_side: &[bool],
) -> (Found, Found) {
    let bits = |found: Option<(usize, usize, f64)>| found.map(|(i, j, r)| (i, j, r.to_bits()));
    let (mut cut_v, mut cut_rows) = (Vec::new(), Vec::new());
    let scanned = repair_entering(costs, u, v, row_side, col_side, &mut cut_v, &mut cut_rows);
    (
        bits(scanned),
        bits(reference::entering(costs, u, v, row_side, col_side)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tie-heavy tableaus of every width: the same cell, the same bits.
    #[test]
    fn entering_scan_matches_reference_under_ties(
        (costs, u, v, row_side, col_side) in tableau(tied, 0.6, 0.4),
    ) {
        let (scanned, expected) = entering_bits(&costs, &u, &v, &row_side, &col_side);
        prop_assert_eq!(scanned, expected);
    }

    /// Continuous tableaus of every width, mostly masked: a few rows and
    /// columns cross the cut, often none.
    #[test]
    fn entering_scan_matches_reference_on_sparse_cuts(
        (costs, u, v, row_side, col_side) in tableau(spread, 0.2, 0.8),
    ) {
        let (scanned, expected) = entering_bits(&costs, &u, &v, &row_side, &col_side);
        prop_assert_eq!(scanned, expected);
    }

    /// The select-shift against `+=` on the supply side and `-=` on the
    /// demand side, signed zeros included.
    #[test]
    fn dual_shift_matches_reference(
        duals in prop::collection::vec(tied(), 1usize..=64),
        side in marks(64, 0.5),
        best in tied(),
    ) {
        let side = &side[..duals.len()];
        let (mut up, mut down) = (duals.clone(), duals.clone());
        shift_marked(&mut up, side, best);
        shift_marked(&mut down, side, -best);
        let (mut up_ref, mut down_ref) = (duals.clone(), duals);
        for ((x, y), &marked) in up_ref.iter_mut().zip(&mut down_ref).zip(side) {
            if marked {
                *x += best;
                *y -= best;
            }
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&up), bits(&up_ref));
        prop_assert_eq!(bits(&down), bits(&down_ref));
    }
}

/// No cut cell at all — no marked row, or every column marked — finds no
/// entering cell: the repair is abandoned for a cold start.
#[test]
fn no_cut_cell_finds_nothing() {
    let (m, n) = (3, 13);
    let costs: Vec<f64> = (0..m * n).map(|k| (k % 5) as f64 - 2.0).collect();
    let (u, v) = (vec![0.5; m], vec![-0.25; n]);
    let cases = [
        (vec![false; m], vec![false; n]),
        (vec![true; m], vec![true; n]),
        (vec![false, true, false], vec![true; n]),
    ];
    for (row_side, col_side) in cases {
        assert_eq!(
            entering_bits(&costs, &u, &v, &row_side, &col_side),
            (None, None)
        );
    }
}

/// The first of equal minima in row-major order wins, across rows and
/// across the lanes of one row, and is reported with its own bits: the
/// `-0.0` of column 5 even though column 10's `0.0`, two lanes earlier
/// in the lane fold, ties it. A cheaper cell off the cut never wins.
#[test]
fn first_minimum_wins_ties() {
    let n = 19;
    let mut costs = vec![1.0; 2 * n];
    costs[3] = -1.0;
    costs[5] = -0.0;
    costs[10] = 0.0;
    costs[n + 1] = -0.0;
    let (u, v) = (vec![0.0; 2], vec![0.0; n]);
    let rows = [true, true];
    let mut cols = vec![false; n];
    cols[3] = true;
    let (mut cut_v, mut cut_rows) = (Vec::new(), Vec::new());
    let found = repair_entering(&costs, &u, &v, &rows, &cols, &mut cut_v, &mut cut_rows);
    assert_eq!(
        found.map(|(i, j, r)| (i, j, r.to_bits())),
        Some((0, 5, (-0.0_f64).to_bits()))
    );
}
