//! The classic full-dimensional lower bounds of the EMD, which no index
//! reaches: full LB_IM (the library's [`LbIm`] under the database's own
//! cost, reference \[1\]), Rubner's [`CentroidBound`] (reference \[17\])
//! and [`ScaledL1`]. [`ClassicFilter`] makes each one stage of a plan for
//! A5 and E5.

mod centroid;
mod scaled_lp;

pub use centroid::CentroidBound;
pub use scaled_lp::ScaledL1;

use emd_core::ground::Metric;
use emd_core::lower_bounds::LbIm;
use emd_core::{Budget, CoreError, Histogram};
use emd_query::{Database, Filter, PreparedFilter, QueryError};

#[derive(Debug, Clone)]
enum Bound {
    LbIm(LbIm),
    ScaledL1(ScaledL1),
    /// With every object's centroid, in id order.
    Centroid(CentroidBound, Vec<Vec<f64>>),
}

/// A classic bound as a filter stage over a database snapshot, named
/// `lb-im(d=…)`, `scaled-l1(d=…)` or `centroid(d=…)`. Closed-form: no
/// solver, no budget.
#[derive(Debug, Clone)]
pub struct ClassicFilter {
    name: String,
    database: Database,
    bound: Bound,
}

impl ClassicFilter {
    /// LB_IM on the original dimensionality, under the snapshot's cost.
    pub fn lb_im(database: &Database) -> Self {
        let bound = Bound::LbIm(LbIm::new(database.cost().clone()));
        Self::over(database, "lb-im", bound)
    }

    /// The scaled-L1 bound under the snapshot's cost.
    pub fn scaled_l1(database: &Database) -> Self {
        let bound = Bound::ScaledL1(ScaledL1::new(database.cost()));
        Self::over(database, "scaled-l1", bound)
    }

    /// Rubner's centroid bound, given the bin positions inducing the
    /// ground distance; every object's centroid is computed here.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the centroid bound rejects `positions`
    /// or their number is not the snapshot's dimensionality.
    pub fn centroid(
        database: &Database,
        positions: Vec<Vec<f64>>,
        metric: Metric,
    ) -> Result<Self, QueryError> {
        let bound = CentroidBound::new(positions, metric)?;
        let centroids = database.histograms().iter().map(|h| bound.centroid(h));
        let centroids = centroids.collect::<Result<_, _>>()?;
        let bound = Bound::Centroid(bound, centroids);
        Ok(Self::over(database, "centroid", bound))
    }

    fn over(database: &Database, kind: &str, bound: Bound) -> Self {
        let name = format!("{kind}(d={})", database.dim());
        let database = database.clone();
        ClassicFilter {
            name,
            database,
            bound,
        }
    }
}

impl Filter for ClassicFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.database.len()
    }

    fn slack(&self) -> f64 {
        emd_core::distance_slack(self.database.cost())
    }

    fn prepare(
        &self,
        query: &Histogram,
        _budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        let (expected, got) = (self.database.dim(), query.dim());
        if got != expected {
            let (expected_rows, expected_cols, got_rows, got_cols) = (expected, expected, got, got);
            let mismatch = CoreError::DimensionMismatch {
                expected_rows,
                expected_cols,
                got_rows,
                got_cols,
            };
            return Err(mismatch.into());
        }
        let centroid = match &self.bound {
            Bound::Centroid(bound, _) => bound.centroid(query)?,
            Bound::LbIm(_) | Bound::ScaledL1(_) => Vec::new(),
        };
        let query = query.clone();
        Ok(Box::new(Prepared {
            filter: self,
            query,
            centroid,
            evaluations: 0,
        }))
    }
}

struct Prepared<'a> {
    filter: &'a ClassicFilter,
    query: Histogram,
    /// The query's centroid under a centroid bound, else empty.
    centroid: Vec<f64>,
    evaluations: usize,
}

impl PreparedFilter for Prepared<'_> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        let unknown = || QueryError::UnknownObject(id);
        let object = self.filter.database.get(id).ok_or_else(unknown)?;
        let bound = match &self.filter.bound {
            Bound::LbIm(im) => im.bound(&self.query, object)?,
            Bound::ScaledL1(l1) => l1.bound(&self.query, object)?,
            Bound::Centroid(rubner, centroids) => {
                let object = centroids.get(id).ok_or_else(unknown)?;
                rubner.metric.distance(&self.centroid, object)
            }
        };
        self.evaluations += 1;
        Ok(bound)
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;
    use emd_query::EmdDistance;
    use std::sync::Arc;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    fn database() -> Database {
        let db = vec![
            h(&[1.0, 0.0, 0.0, 0.0]),
            h(&[0.0, 1.0, 0.0, 0.0]),
            h(&[0.25, 0.25, 0.25, 0.25]),
            h(&[0.0, 0.0, 0.5, 0.5]),
        ];
        Database::new(db, Arc::new(ground::linear(4).unwrap())).unwrap()
    }

    #[test]
    fn classic_filters_lower_bound_exact() {
        let db = database();
        let query = h(&[0.4, 0.1, 0.3, 0.2]);
        let positions = ground::linear_positions(4);
        let filters = [
            ClassicFilter::lb_im(&db),
            ClassicFilter::centroid(&db, positions, Metric::Manhattan).unwrap(),
            ClassicFilter::scaled_l1(&db),
        ];
        let names: Vec<_> = filters.iter().map(Filter::name).collect();
        assert_eq!(names, ["lb-im(d=4)", "centroid(d=4)", "scaled-l1(d=4)"]);
        let exact = EmdDistance::new(&db).unwrap();
        let mut exact_prepared = exact.prepare(&query, &Budget::unlimited()).unwrap();
        for filter in &filters {
            let mut prepared = filter.prepare(&query, &Budget::unlimited()).unwrap();
            for id in 0..db.len() {
                let bound = prepared.distance(id).unwrap();
                let truth = exact_prepared.distance(id).unwrap();
                assert!(
                    bound <= truth + 1e-9,
                    "{} returned {bound} > exact {truth} for object {id}",
                    filter.name()
                );
            }
            assert_eq!(prepared.evaluations(), db.len());
            assert!(matches!(
                prepared.distance(db.len()).unwrap_err(),
                QueryError::UnknownObject(4)
            ));
        }
    }

    #[test]
    fn mismatched_shapes_are_rejected() {
        let db = database();
        let three = ground::linear_positions(3);
        assert!(ClassicFilter::centroid(&db, three, Metric::Euclidean).is_err());
        let filter = ClassicFilter::scaled_l1(&db);
        assert!(filter
            .prepare(&h(&[0.5, 0.5]), &Budget::unlimited())
            .is_err());
    }
}
