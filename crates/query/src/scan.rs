//! Brute-force oracles.
//!
//! These free functions compute exact k-NN and range answers by refining
//! every database object. Tests use them to prove completeness of the
//! multistep pipelines; benches use them as the no-filter baseline cost.
//!
//! They are front-ends over a *zero-stage* [`QueryPlan`] run by the
//! shared [`Executor`]: KNOP over the zero bound, the path every plan
//! takes, so the oracles and the engine cannot drift apart.
//!
//! The refiner runs with warm-start contexts forced **off**: an oracle
//! must not depend on the order it visits candidates, and on cost
//! matrices with tied optima a warm-started solve may settle on a
//! different (equally optimal) basis whose objective differs in the last
//! ulp. Cold solves are the deterministic reference those comparisons
//! need, and a cold solve never stops at KNOP's threshold: the oracle
//! solves every object to its exact distance.

use crate::engine::{Database, Executor, QueryPlan};
use crate::error::QueryError;
use crate::filters::EmdDistance;
use crate::Neighbor;
use emd_core::{CostMatrix, Histogram};
use std::sync::Arc;

fn scan_executor(database: &[Histogram], cost: &CostMatrix) -> Result<Executor, QueryError> {
    let db = Database::new(database.to_vec(), Arc::new(cost.clone()))?;
    Ok(Executor::new(QueryPlan::sequential(Box::new(
        EmdDistance::new(&db)?.with_warm_start(false),
    ))?))
}

/// Exact k-NN by full scan. Returns up to `k` neighbors in ascending
/// distance order (ties broken by id).
///
/// # Errors
///
/// Returns [`QueryError`] when `k = 0`, the query or a database histogram
/// disagrees with `cost`, or an exact EMD computation fails.
pub fn brute_force_knn(
    query: &Histogram,
    database: &[Histogram],
    cost: &CostMatrix,
    k: usize,
) -> Result<Vec<Neighbor>, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    if database.is_empty() {
        return Ok(Vec::new());
    }
    let (neighbors, _) = scan_executor(database, cost)?.knn(query, k)?;
    Ok(neighbors)
}

/// Exact range query by full scan, ascending distance order.
///
/// # Errors
///
/// Returns [`QueryError`] when shapes disagree with `cost`, `epsilon` is
/// negative or non-finite, or an exact EMD computation fails.
pub fn brute_force_range(
    query: &Histogram,
    database: &[Histogram],
    cost: &CostMatrix,
    epsilon: f64,
) -> Result<Vec<Neighbor>, QueryError> {
    if database.is_empty() {
        return Ok(Vec::new());
    }
    let (hits, _) = scan_executor(database, cost)?.range(query, epsilon)?;
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn knn_finds_nearest() {
        let database = vec![
            h(&[0.0, 0.0, 1.0]),
            h(&[0.0, 1.0, 0.0]),
            h(&[1.0, 0.0, 0.0]),
        ];
        let cost = ground::linear(3).unwrap();
        let query = h(&[0.9, 0.1, 0.0]);
        let neighbors = brute_force_knn(&query, &database, &cost, 2).unwrap();
        assert_eq!(neighbors[0].id, 2);
        assert_eq!(neighbors[1].id, 1);
        assert!(brute_force_knn(&query, &database, &cost, 0).is_err());
    }

    #[test]
    fn range_includes_boundary() {
        let database = vec![h(&[1.0, 0.0]), h(&[0.0, 1.0])];
        let cost = ground::linear(2).unwrap();
        let query = h(&[1.0, 0.0]);
        let hits = brute_force_range(&query, &database, &cost, 1.0).unwrap();
        assert_eq!(hits.len(), 2, "distance exactly 1.0 is included");
        let hits = brute_force_range(&query, &database, &cost, 0.5).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn empty_database_returns_empty_answers() {
        let cost = ground::linear(2).unwrap();
        let query = h(&[1.0, 0.0]);
        assert!(brute_force_knn(&query, &[], &cost, 3).unwrap().is_empty());
        assert!(brute_force_range(&query, &[], &cost, 1.0)
            .unwrap()
            .is_empty());
    }
}
