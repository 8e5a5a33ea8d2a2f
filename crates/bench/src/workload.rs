//! Query workloads (Definition 6 of the paper).
//!
//! A workload `w = {(x_1, eps_1), ..., (x_t, eps_t)}` pairs query vectors
//! with range thresholds. k-NN experiments use the queries alone; range
//! experiments calibrate each `eps_i` as the exact k-th nearest-neighbor
//! distance of `x_i` in the database, so a range query returns the same
//! result set as the k-NN query (Section 4's correspondence). Experiment
//! E11 is its one caller.

use emd_core::{emd, CoreError, CostMatrix, Histogram};

/// A query workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Query histograms.
    pub queries: Vec<Histogram>,
    /// Range thresholds; empty for pure k-NN workloads.
    pub epsilons: Vec<f64>,
}

impl Workload {
    /// A k-NN workload: queries without thresholds.
    pub fn knn(queries: Vec<Histogram>) -> Self {
        Workload {
            queries,
            epsilons: Vec::new(),
        }
    }

    /// Calibrate range thresholds: `eps_i` = exact EMD of the k-th nearest
    /// database neighbor of query `i`. Costs `|queries| * |database|`
    /// exact EMD computations — a one-off workload-construction step, as
    /// in the paper's experimental setup.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when `k` is zero or exceeds the database size, or
    /// when an exact EMD computation fails during calibration.
    pub fn range_from_knn(
        queries: Vec<Histogram>,
        database: &[Histogram],
        cost: &CostMatrix,
        k: usize,
    ) -> Result<Self, CoreError> {
        assert!(k >= 1, "k-th neighbor needs k >= 1");
        assert!(
            database.len() >= k,
            "database of {} cannot have a {k}-th neighbor",
            database.len()
        );
        let mut epsilons = Vec::with_capacity(queries.len());
        let mut distances = Vec::with_capacity(database.len());
        for query in &queries {
            distances.clear();
            for object in database {
                distances.push(emd(query, object, cost)?);
            }
            // k-th smallest (1-based) via partial selection.
            let (_, kth, _) = distances.select_nth_unstable_by(k - 1, f64::total_cmp);
            epsilons.push(*kth);
        }
        Ok(Workload { queries, epsilons })
    }

    /// Iterate `(query, epsilon)` pairs; panics if the workload has no
    /// thresholds.
    pub fn ranges(&self) -> impl Iterator<Item = (&Histogram, f64)> + '_ {
        assert_eq!(
            self.queries.len(),
            self.epsilons.len(),
            "range iteration needs calibrated thresholds"
        );
        self.queries.iter().zip(self.epsilons.iter().copied())
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn epsilon_is_kth_neighbor_distance() {
        let database = vec![
            h(&[1.0, 0.0, 0.0, 0.0]), // distance 0 to the query
            h(&[0.0, 1.0, 0.0, 0.0]), // distance 1
            h(&[0.0, 0.0, 1.0, 0.0]), // distance 2
            h(&[0.0, 0.0, 0.0, 1.0]), // distance 3
        ];
        let cost = ground::linear(4).unwrap();
        let query = h(&[1.0, 0.0, 0.0, 0.0]);
        let workload = Workload::range_from_knn(vec![query], &database, &cost, 3).unwrap();
        assert!((workload.epsilons[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn range_query_with_calibrated_epsilon_returns_k_objects() {
        let database = vec![
            h(&[1.0, 0.0, 0.0]),
            h(&[0.5, 0.5, 0.0]),
            h(&[0.0, 0.5, 0.5]),
            h(&[0.0, 0.0, 1.0]),
        ];
        let cost = ground::linear(3).unwrap();
        let query = h(&[0.9, 0.1, 0.0]);
        let k = 2;
        let workload = Workload::range_from_knn(vec![query.clone()], &database, &cost, k).unwrap();
        let eps = workload.epsilons[0];
        let within = database
            .iter()
            .filter(|object| emd(&query, object, &cost).unwrap() <= eps)
            .count();
        // At least k objects (ties may add more).
        assert!(within >= k);
    }

    #[test]
    fn knn_workload_has_no_thresholds() {
        let workload = Workload::knn(vec![h(&[1.0, 0.0])]);
        assert_eq!(workload.len(), 1);
        assert!(workload.epsilons.is_empty());
    }

    #[test]
    #[should_panic(expected = "range iteration needs calibrated thresholds")]
    fn ranges_panics_without_thresholds() {
        let workload = Workload::knn(vec![h(&[1.0, 0.0])]);
        let _ = workload.ranges().count();
    }
}
