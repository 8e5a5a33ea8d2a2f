//! A mutable EMD retrieval index with copy-on-write snapshots.
//!
//! A static [`QueryPlan`] indexes an immutable database snapshot — the
//! setting of the paper's experiments. Real deployments also insert
//! and delete objects; `DynamicIndex` supports both while keeping the
//! reduced (filter) representation of every object in sync, so queries
//! retain the complete filter-and-refine behaviour without rebuilds.
//!
//! Deletions use tombstones: ids are stable, storage is reclaimed by
//! [`DynamicIndex::compact`]. Storage lives behind `Arc`s mutated with
//! [`Arc::make_mut`]: taking a [`DynamicSnapshot`] is O(live) in ids and
//! copies **no histogram data**, and later mutations copy-on-write
//! without disturbing outstanding snapshots. Queries execute through the
//! shared engine [`Executor`] — the KNOP refinement loop
//! lives only in [`knop`](crate::knop), not here — and through the same
//! prepared Red-EMD / exact-EMD evaluators as the static filters, looked
//! up through the snapshot's id map: every live query has its own warm
//! solver context and honours the [`Budget`] it runs under.

use crate::engine::{Executor, Query, QueryPlan};
use crate::error::QueryError;
use crate::filters::{Filter, Objects, PreparedEmd, PreparedFilter, PreparedReducedEmd};
use crate::outcome::QueryOutcome;
use crate::stats::QueryStats;
use crate::Neighbor;
use emd_core::{Budget, CostMatrix, Histogram};
use emd_reduction::ReducedEmd;
use std::sync::Arc;

/// A mutable database with a reduced-EMD filter kept in sync.
///
/// ```
/// use emd_core::{ground, Histogram};
/// use emd_query::DynamicIndex;
/// use emd_reduction::{CombiningReduction, ReducedEmd};
/// use std::sync::Arc;
///
/// let cost = Arc::new(ground::linear(4)?);
/// let reduced = ReducedEmd::new(&cost, CombiningReduction::new(vec![0, 0, 1, 1], 2)?)?;
/// let mut index = DynamicIndex::new(cost, reduced)?;
///
/// let a = index.insert(Histogram::new(vec![1.0, 0.0, 0.0, 0.0])?)?;
/// let b = index.insert(Histogram::new(vec![0.0, 0.0, 0.0, 1.0])?)?;
/// let (nearest, _) = index.knn(&Histogram::new(vec![0.9, 0.1, 0.0, 0.0])?, 1)?;
/// assert_eq!(nearest[0].id, a);
///
/// index.remove(a);
/// let (nearest, _) = index.knn(&Histogram::new(vec![0.9, 0.1, 0.0, 0.0])?, 1)?;
/// assert_eq!(nearest[0].id, b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicIndex {
    cost: Arc<CostMatrix>,
    reduced: ReducedEmd,
    /// Original histograms; `None` marks a deleted id. Shared with
    /// snapshots, mutated copy-on-write.
    objects: Arc<Vec<Option<Histogram>>>,
    /// Reduced (database-side) representation of each live object.
    reduced_objects: Arc<Vec<Option<Histogram>>>,
    live: usize,
}

impl DynamicIndex {
    /// Create an empty index for histograms matching `cost`, filtered by
    /// the given reduced EMD (its `R2` side applies to stored objects).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the reduced EMD's original dimensionality
    /// disagrees with `cost`.
    pub fn new(cost: Arc<CostMatrix>, reduced: ReducedEmd) -> Result<Self, QueryError> {
        if reduced.r2().original_dim() != cost.cols() {
            return Err(QueryError::Reduction(format!(
                "reduction covers {} dimensions, cost matrix {}",
                reduced.r2().original_dim(),
                cost.cols()
            )));
        }
        Ok(DynamicIndex {
            cost,
            reduced,
            objects: Arc::new(Vec::new()),
            reduced_objects: Arc::new(Vec::new()),
            live: 0,
        })
    }

    /// The ground-distance matrix this index was built over.
    pub fn cost(&self) -> &Arc<CostMatrix> {
        &self.cost
    }

    /// Number of live (not deleted) objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live objects remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert a histogram; returns its stable id.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the histogram's dimensionality disagrees with
    /// the index, or the reduction of the new object fails.
    pub fn insert(&mut self, histogram: Histogram) -> Result<usize, QueryError> {
        if histogram.dim() != self.cost.cols() {
            return Err(QueryError::Core(emd_core::CoreError::DimensionMismatch {
                expected_rows: self.cost.rows(),
                expected_cols: self.cost.cols(),
                got_rows: histogram.dim(),
                got_cols: histogram.dim(),
            }));
        }
        let reduced = self.reduced.reduce_second(&histogram)?;
        let id = self.objects.len();
        Arc::make_mut(&mut self.objects).push(Some(histogram));
        Arc::make_mut(&mut self.reduced_objects).push(Some(reduced));
        self.live += 1;
        Ok(id)
    }

    /// Delete by id. Returns `true` if the object existed and was live.
    pub fn remove(&mut self, id: usize) -> bool {
        if self.get(id).is_none() {
            return false;
        }
        if let Some(slot) = Arc::make_mut(&mut self.objects).get_mut(id) {
            *slot = None;
        }
        if let Some(slot) = Arc::make_mut(&mut self.reduced_objects).get_mut(id) {
            *slot = None;
        }
        self.live -= 1;
        true
    }

    /// Fetch a live object.
    pub fn get(&self, id: usize) -> Option<&Histogram> {
        self.objects.get(id).and_then(Option::as_ref)
    }

    /// Drop tombstones, renumbering ids densely. Returns the mapping
    /// `new_id -> old_id`. Outstanding snapshots keep the old id space
    /// (copy-on-write).
    pub fn compact(&mut self) -> Vec<usize> {
        let mut mapping = Vec::with_capacity(self.live);
        let mut objects = Vec::with_capacity(self.live);
        let mut reduced_objects = Vec::with_capacity(self.live);
        for (old_id, slot) in Arc::make_mut(&mut self.objects).drain(..).enumerate() {
            if let Some(histogram) = slot {
                mapping.push(old_id);
                objects.push(Some(histogram));
            }
        }
        reduced_objects.extend(
            Arc::make_mut(&mut self.reduced_objects)
                .drain(..)
                .flatten()
                .map(Some),
        );
        debug_assert_eq!(objects.len(), reduced_objects.len());
        self.objects = Arc::new(objects);
        self.reduced_objects = Arc::new(reduced_objects);
        mapping
    }

    /// An immutable, queryable snapshot of the current live objects.
    ///
    /// Cheap: shares the histogram storage with the index (ids only are
    /// materialized); later [`insert`](Self::insert) /
    /// [`remove`](Self::remove) / [`compact`](Self::compact) calls
    /// copy-on-write and leave the snapshot untouched.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::EmptyDatabase`] when no live objects remain.
    pub fn snapshot(&self) -> Result<DynamicSnapshot, QueryError> {
        if self.live == 0 {
            return Err(QueryError::EmptyDatabase);
        }
        let ids: Arc<Vec<usize>> = Arc::new(
            self.objects
                .iter()
                .enumerate()
                .filter_map(|(id, slot)| slot.as_ref().map(|_| id))
                .collect(),
        );
        let stage = LiveReducedFilter {
            name: format!(
                "red-emd(d'={}/{})",
                self.reduced.r1().reduced_dim(),
                self.reduced.r2().reduced_dim()
            ),
            reduced: self.reduced.clone(),
            reduced_objects: LiveObjects {
                slots: Arc::clone(&self.reduced_objects),
                ids: Arc::clone(&ids),
            },
        };
        let refiner = LiveEmdFilter {
            name: format!("emd(d={})", self.cost.rows()),
            cost: Arc::clone(&self.cost),
            objects: LiveObjects {
                slots: Arc::clone(&self.objects),
                ids: Arc::clone(&ids),
            },
        };
        let plan = QueryPlan::new(vec![Box::new(stage)], Box::new(refiner))?;
        Ok(DynamicSnapshot {
            executor: Executor::new(plan),
            ids,
        })
    }

    /// Exact k-NN over the live objects: reduced-EMD filter ranking
    /// followed by KNOP refinement in the shared engine (complete —
    /// identical results to scanning every live object with the exact
    /// EMD).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] on `k = 0`, an empty index, a query shape
    /// mismatch, or if an exact EMD refinement fails.
    // lint: allow(unbudgeted): sugar over DynamicSnapshot::knn.
    pub fn knn(
        &self,
        query: &Histogram,
        k: usize,
    ) -> Result<(Vec<Neighbor>, QueryStats), QueryError> {
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        self.snapshot()?.knn(query, k)
    }

    /// Exact range query over the live objects (all live objects with
    /// exact distance `<= epsilon`, ascending).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] on a negative or non-finite `epsilon`, an
    /// empty index, a query shape mismatch, or a refinement failure.
    // lint: allow(unbudgeted): sugar over DynamicSnapshot::range.
    pub fn range(
        &self,
        query: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<Neighbor>, QueryStats), QueryError> {
        self.snapshot()?.range(query, epsilon)
    }
}

/// An immutable view of a [`DynamicIndex`] at snapshot time: queries run
/// through the shared [`Executor`] against the live objects, returning
/// their *stable* ids. Unaffected by later index mutations.
#[derive(Debug)]
pub struct DynamicSnapshot {
    executor: Executor,
    /// Dense (engine) id -> stable (index) id.
    ids: Arc<Vec<usize>>,
}

impl DynamicSnapshot {
    /// Number of live objects captured.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the snapshot is empty (never true: empty indexes refuse to
    /// snapshot).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The underlying executor (dense ids; use [`run`](Self::run) for
    /// stable ids).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The stable (index) id stored at dense (engine) position `dense`
    /// — the inverse view callers need when they run the raw
    /// [`executor`](Self::executor) and must map its ids back.
    pub fn stable_id(&self, dense: usize) -> Option<usize> {
        self.ids.get(dense).copied()
    }

    /// Run one [`Query`] under the budget it carries, answering in stable
    /// ids (exact neighbors and degraded candidates alike).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] under the same conditions as
    /// [`Executor::run`].
    pub fn run(&self, query: &Query) -> Result<(QueryOutcome, QueryStats), QueryError> {
        let (outcome, stats) = self.executor.run(query)?;
        Ok((outcome.map_ids(|dense| self.stable_id(dense))?, stats))
    }

    /// Exact k-NN with stable ids.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] under the same conditions as
    /// [`Executor::knn`].
    // lint: allow(unbudgeted): sugar over run with Budget::unlimited().
    pub fn knn(
        &self,
        query: &Histogram,
        k: usize,
    ) -> Result<(Vec<Neighbor>, QueryStats), QueryError> {
        let (outcome, stats) = self.run(&Query::knn(query.clone(), k))?;
        Ok((outcome.into_exact()?, stats))
    }

    /// Exact range query with stable ids.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] under the same conditions as
    /// [`Executor::range`].
    // lint: allow(unbudgeted): sugar over run with Budget::unlimited().
    pub fn range(
        &self,
        query: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<Neighbor>, QueryStats), QueryError> {
        let (outcome, stats) = self.run(&Query::range(query.clone(), epsilon))?;
        Ok((outcome.into_exact()?, stats))
    }
}

/// The live subset of a dynamic index's storage (original or reduced
/// histograms) under the snapshot's dense ids. No histogram data copied.
#[derive(Debug)]
struct LiveObjects {
    slots: Arc<Vec<Option<Histogram>>>,
    ids: Arc<Vec<usize>>,
}

impl Objects for LiveObjects {
    fn object(&self, id: usize) -> Result<&Histogram, QueryError> {
        let stable = *self.ids.get(id).ok_or(QueryError::UnknownObject(id))?;
        self.slots
            .get(stable)
            .and_then(Option::as_ref)
            .ok_or(QueryError::UnknownObject(stable))
    }
}

/// Reduced-EMD filter over the live objects: the evaluator of
/// [`ReducedEmdFilter`](crate::ReducedEmdFilter), looked up through the
/// snapshot's id map.
#[derive(Debug)]
struct LiveReducedFilter {
    name: String,
    reduced: ReducedEmd,
    reduced_objects: LiveObjects,
}

impl Filter for LiveReducedFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.reduced_objects.ids.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        Ok(Box::new(PreparedReducedEmd::new(
            query,
            &self.reduced,
            &self.reduced_objects,
            budget,
            true,
        )?))
    }
}

/// Exact EMD refiner over the live objects: the evaluator of
/// [`EmdDistance`](crate::EmdDistance), looked up through the snapshot's
/// id map.
#[derive(Debug)]
struct LiveEmdFilter {
    name: String,
    cost: Arc<CostMatrix>,
    objects: LiveObjects,
}

impl Filter for LiveEmdFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.objects.ids.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        Ok(Box::new(PreparedEmd::new(
            query,
            &self.objects,
            &self.cost,
            budget,
            true,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{brute_force_knn, brute_force_range};
    use emd_core::ground;
    use emd_reduction::CombiningReduction;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    fn index() -> DynamicIndex {
        let cost = Arc::new(ground::linear(4).unwrap());
        let r = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        DynamicIndex::new(cost, reduced).unwrap()
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut index = index();
        let a = index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let b = index.insert(h(&[0.0, 0.0, 0.0, 1.0])).unwrap();
        let c = index.insert(h(&[0.5, 0.5, 0.0, 0.0])).unwrap();
        assert_eq!(index.len(), 3);

        let query = h(&[0.9, 0.1, 0.0, 0.0]);
        let (neighbors, stats) = index.knn(&query, 2).unwrap();
        assert_eq!(neighbors[0].id, a);
        assert_eq!(neighbors[1].id, c);
        assert_eq!(stats.filter_evaluations[0].1, 3);

        assert!(index.remove(a));
        assert!(!index.remove(a), "double delete is a no-op");
        assert_eq!(index.len(), 2);
        let (neighbors, _) = index.knn(&query, 2).unwrap();
        assert_eq!(neighbors[0].id, c);
        assert_eq!(neighbors[1].id, b);
        assert!(index.get(a).is_none());
        assert!(index.get(b).is_some());
    }

    #[test]
    fn matches_brute_force_after_churn() {
        let mut index = index();
        let mut live = Vec::new();
        for i in 0..12 {
            let mut bins = vec![0.1; 4];
            bins[i % 4] += 0.6;
            let histogram = Histogram::normalized(bins).unwrap();
            let id = index.insert(histogram.clone()).unwrap();
            live.push((id, histogram));
        }
        // Delete every third object.
        live.retain(|(id, _)| {
            if id % 3 == 0 {
                assert!(index.remove(*id));
                false
            } else {
                true
            }
        });

        let cost = ground::linear(4).unwrap();
        let query = h(&[0.25, 0.25, 0.3, 0.2]);
        let database: Vec<Histogram> = live.iter().map(|(_, h)| h.clone()).collect();
        let expected = brute_force_knn(&query, &database, &cost, 3).unwrap();
        let (got, _) = index.knn(&query, 3).unwrap();
        let expected_distances: Vec<i64> = expected
            .iter()
            .map(|n| (n.distance * 1e9).round() as i64)
            .collect();
        let got_distances: Vec<i64> = got
            .iter()
            .map(|n| (n.distance * 1e9).round() as i64)
            .collect();
        assert_eq!(got_distances, expected_distances);
    }

    #[test]
    fn compact_renumbers_densely() {
        let mut index = index();
        let a = index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let b = index.insert(h(&[0.0, 1.0, 0.0, 0.0])).unwrap();
        let c = index.insert(h(&[0.0, 0.0, 1.0, 0.0])).unwrap();
        index.remove(b);
        let mapping = index.compact();
        assert_eq!(mapping, vec![a, c]);
        assert_eq!(index.len(), 2);
        let query = h(&[0.0, 0.0, 0.9, 0.1]);
        let (neighbors, _) = index.knn(&query, 1).unwrap();
        assert_eq!(neighbors[0].id, 1, "c is now id 1");
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut index = index();
        assert!(index.insert(h(&[0.5, 0.5])).is_err());
        assert!(matches!(
            index.knn(&h(&[0.25, 0.25, 0.25, 0.25]), 1).unwrap_err(),
            QueryError::EmptyDatabase
        ));
        index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        assert!(matches!(
            index.knn(&h(&[0.25, 0.25, 0.25, 0.25]), 0).unwrap_err(),
            QueryError::ZeroK
        ));
        assert!(matches!(
            index
                .range(&h(&[0.25, 0.25, 0.25, 0.25]), f64::NAN)
                .unwrap_err(),
            QueryError::InvalidEpsilon(_)
        ));
        assert!(!index.remove(999));
    }

    #[test]
    fn completeness_with_loose_reduction() {
        // An all-in-one-group reduction has bound 0 everywhere: the filter
        // is useless but the results must still be exact.
        let cost = Arc::new(ground::linear(4).unwrap());
        let r = CombiningReduction::new(vec![0, 0, 0, 0], 1).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let mut index = DynamicIndex::new(cost, reduced).unwrap();
        for i in 0..4 {
            index.insert(Histogram::unit(4, i).unwrap()).unwrap();
        }
        let query = Histogram::unit(4, 2).unwrap();
        let (neighbors, stats) = index.knn(&query, 2).unwrap();
        assert_eq!(neighbors[0].id, 2);
        assert_eq!(stats.refinements, 4, "useless filter refines everything");
    }

    /// Sort (distance, id) pairs canonically so equal-distance results
    /// compare deterministically across implementations.
    fn canonical(neighbors: &[Neighbor]) -> Vec<(i64, usize)> {
        let mut pairs: Vec<(i64, usize)> = neighbors
            .iter()
            .map(|n| ((n.distance * 1e9).round() as i64, n.id))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn interleaved_churn_matches_brute_force() {
        // Satellite: interleave insert/remove/compact with k-NN *and*
        // range queries, asserting against the brute-force oracles over
        // exactly the live objects after every phase.
        let cost = ground::linear(4).unwrap();
        let queries = [
            h(&[0.25, 0.25, 0.25, 0.25]),
            h(&[0.7, 0.1, 0.1, 0.1]),
            h(&[0.0, 0.2, 0.3, 0.5]),
        ];
        let mut index = index();
        // live: stable id -> histogram, tracking the oracle database.
        let mut live: Vec<(usize, Histogram)> = Vec::new();

        let check = |index: &DynamicIndex, live: &[(usize, Histogram)]| {
            let database: Vec<Histogram> = live.iter().map(|(_, h)| h.clone()).collect();
            for query in &queries {
                for k in [1, 2, 4] {
                    let expected = brute_force_knn(query, &database, &cost, k).unwrap();
                    let (got, _) = index.knn(query, k).unwrap();
                    assert_eq!(got.len(), expected.len().min(k));
                    assert_eq!(
                        canonical(&got).iter().map(|(d, _)| *d).collect::<Vec<_>>(),
                        canonical(&expected)
                            .iter()
                            .map(|(d, _)| *d)
                            .collect::<Vec<_>>(),
                        "k-NN distances diverge from brute force"
                    );
                }
                for epsilon in [0.3, 0.8, 2.0] {
                    let expected = brute_force_range(query, &database, &cost, epsilon).unwrap();
                    let (got, _) = index.range(query, epsilon).unwrap();
                    // Range hits are a set: map got ids back through live
                    // to histogram-level identity via distances.
                    assert_eq!(
                        canonical(&got).iter().map(|(d, _)| *d).collect::<Vec<_>>(),
                        canonical(&expected)
                            .iter()
                            .map(|(d, _)| *d)
                            .collect::<Vec<_>>(),
                        "range hits diverge from brute force at eps={epsilon}"
                    );
                }
            }
        };

        // Phase 1: bulk insert.
        for i in 0..10 {
            let mut bins = vec![0.05; 4];
            bins[i % 4] += 0.5;
            bins[(i + 1) % 4] += 0.3;
            let histogram = Histogram::normalized(bins).unwrap();
            let id = index.insert(histogram.clone()).unwrap();
            live.push((id, histogram));
        }
        check(&index, &live);

        // Phase 2: remove some, insert more.
        live.retain(|(id, _)| {
            if id % 3 == 1 {
                assert!(index.remove(*id));
                false
            } else {
                true
            }
        });
        for i in 0..4 {
            let histogram = Histogram::unit(4, i).unwrap();
            let id = index.insert(histogram.clone()).unwrap();
            live.push((id, histogram));
        }
        check(&index, &live);

        // Phase 3: compact (renumbers), then more churn.
        let mapping = index.compact();
        assert_eq!(mapping.len(), live.len());
        live = mapping
            .iter()
            .enumerate()
            .map(|(new_id, old_id)| {
                let (_, histogram) = live
                    .iter()
                    .find(|(id, _)| id == old_id)
                    .expect("mapping covers live ids");
                (new_id, histogram.clone())
            })
            .collect();
        check(&index, &live);

        let last = live.last().unwrap().0;
        assert!(index.remove(last));
        live.pop();
        check(&index, &live);
    }

    #[test]
    fn snapshot_is_isolated_from_mutations() {
        let mut index = index();
        let a = index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let b = index.insert(h(&[0.0, 0.0, 0.0, 1.0])).unwrap();
        let snapshot = index.snapshot().unwrap();
        assert_eq!(snapshot.len(), 2);

        // Mutate after snapshotting: remove a, insert a closer object.
        assert!(index.remove(a));
        index.insert(h(&[0.9, 0.1, 0.0, 0.0])).unwrap();

        let query = h(&[1.0, 0.0, 0.0, 0.0]);
        // The snapshot still sees the original two objects...
        let (frozen, _) = snapshot.knn(&query, 1).unwrap();
        assert_eq!(frozen[0].id, a);
        // ...while the index sees the new state.
        let (current, _) = index.knn(&query, 2).unwrap();
        assert_ne!(current[0].id, a);
        assert_eq!(current[1].id, b);
    }
}
