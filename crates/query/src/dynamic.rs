//! A mutable EMD retrieval index whose snapshots are plain databases.
//!
//! A static [`QueryPlan`] indexes an immutable database snapshot — the
//! setting of the paper's experiments. Real deployments also insert
//! and delete objects; `DynamicIndex` supports both while keeping the
//! reduced (filter) representation of every object in sync, so queries
//! retain the complete filter-and-refine behaviour without rebuilds.
//!
//! **One id.** [`DynamicIndex::insert`] names each object with a `u64`
//! allocated monotonically and never reused; that id is what
//! [`get`](DynamicIndex::get), [`remove`](DynamicIndex::remove) and every
//! query answer speak, and it survives [`DynamicIndex::compact`].
//! Because ids are handed out in append order and compaction keeps that
//! order, position -> id is one ascending `Vec<u64>` and id -> position
//! a binary search on it: there is no second map to keep in step, and a
//! storage position never leaves this module.
//!
//! **One store.** Deletions leave tombstones, reclaimed by
//! [`DynamicIndex::compact`]. A [`Histogram`] is an immutable shared
//! handle, so a [`DynamicSnapshot`] simply *is* a [`Database`]: taking
//! one collects the live handles (a reference-count bump per object, no
//! histogram data copied) into an ordinary database plus its reduced
//! arena, and no later mutation of the index can reach them.
//!
//! **The plan.** A snapshot runs the stages of [`QueryPlan::chain`] —
//! `anchor(a=b) -> red-im(d'=a/b) -> red-emd(d'=a/b) -> emd(d=n)`, the
//! paper's Figure 10 chain over a closed-form metric floor, the very
//! filters a static plan is built from — through the shared engine
//! [`Executor`]; the KNOP loop lives only in [`knop`](crate::knop), not
//! here. What the stages need per *index* (the reduction, the LB_IM
//! sort orders over its reduced cost, the anchor columns — none when the
//! cost is not a metric, and then the chain is Figure 10 alone) is
//! derived once in [`DynamicIndex::new`] and shared by `Arc`; what they
//! need per *object* (its reduced vector, its anchor projection) is
//! derived once at insert and shared with every snapshot the same way.
//! Neither is persisted. The executor's dense ids
//! (the live objects, in ascending id order) exist only inside one
//! snapshot, which translates them back on the way out.

use crate::engine::{chain_stages, Database, Executor, Query, QueryPlan};
use crate::error::QueryError;
use crate::filters::{AnchorFilter, EmdDistance, ReducedImFilter};
use crate::outcome::QueryOutcome;
use crate::stats::QueryStats;
use crate::Neighbor;
use emd_core::lower_bounds::{AnchorBound, LbIm};
use emd_core::{CostMatrix, Histogram};
use emd_reduction::{PersistedReduction, ReducedEmd};
use std::sync::Arc;

/// A mutable database with the reduced (filter) representation of every
/// object kept in sync.
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
/// let query = Histogram::new(vec![0.9, 0.1, 0.0, 0.0])?;
/// // Queries run on a snapshot: take one, ask it as often as you like.
/// let (nearest, _) = index.snapshot()?.knn(&query, 1)?;
/// assert_eq!(nearest[0].0, a);
///
/// index.remove(a);
/// index.compact(); // reclaims a's storage; b is still b
/// let (nearest, _) = index.snapshot()?.knn(&query, 1)?;
/// assert_eq!(nearest[0].0, b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicIndex {
    cost: Arc<CostMatrix>,
    reduced: Arc<ReducedEmd>,
    /// LB_IM over the reduced cost, derived once per index.
    bound: Arc<LbIm>,
    /// The chain's anchor floor over `cost`, derived once per index;
    /// `None` when `cost` is not a metric.
    floor: Option<Arc<AnchorBound>>,
    /// Original histograms by position; `None` marks a removed object.
    objects: Vec<Option<Histogram>>,
    /// Reduced (database-side) representation of each live object.
    reduced_objects: Vec<Option<Histogram>>,
    /// Anchor projection of each live object (empty without a floor).
    projections: Vec<Option<Arc<[f64]>>>,
    /// Position -> id, strictly ascending; every entry is `< next_id`.
    ids: Vec<u64>,
    next_id: u64,
    live: usize,
}

/// What the filter stages hold of one object, derived from it once.
#[derive(Debug)]
pub(crate) struct Derived {
    /// Its `R2` side.
    reduced: Histogram,
    /// Its anchor projection; empty when the index has no floor.
    projection: Arc<[f64]>,
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
            bound: Arc::new(LbIm::new(reduced.reduced_cost().clone())),
            floor: AnchorFilter::floor_bound(&cost, &reduced).map(Arc::new),
            cost,
            reduced: Arc::new(reduced),
            objects: Vec::new(),
            reduced_objects: Vec::new(),
            projections: Vec::new(),
            ids: Vec::new(),
            next_id: 0,
            live: 0,
        })
    }

    /// Rebuild an index from persisted state: `histograms` under the
    /// strictly ascending `ids`, all below `next_id` (the caller has
    /// checked both — the id lookup leans on them), with `bundle`'s
    /// reduced arena derived from those histograms on open. The anchor
    /// projections are derived here; nothing derived is ever stored.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new) and [`insert`](Self::insert).
    pub(crate) fn restore(
        cost: Arc<CostMatrix>,
        bundle: PersistedReduction,
        histograms: Vec<Histogram>,
        ids: Vec<u64>,
        next_id: u64,
    ) -> Result<Self, QueryError> {
        debug_assert!(ids.windows(2).all(|pair| pair.first() < pair.last()));
        debug_assert!(ids.last().is_none_or(|&last| last < next_id));
        let (_, reduced, arena) = bundle.into_parts();
        let mut index = DynamicIndex::new(cost, reduced)?;
        for ((histogram, reduced), id) in histograms.into_iter().zip(arena).zip(ids) {
            let projection = index.project(&histogram)?;
            index.next_id = id;
            index.push(
                histogram,
                Derived {
                    reduced,
                    projection,
                },
            );
        }
        index.next_id = next_id;
        Ok(index)
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

    /// The id the next [`insert`](Self::insert) will return.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Insert a histogram; returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the histogram's dimensionality disagrees with
    /// the index, or the reduction of the new object fails.
    pub fn insert(&mut self, histogram: Histogram) -> Result<u64, QueryError> {
        let derived = self.reduce(&histogram)?;
        Ok(self.push(histogram, derived))
    }

    /// The fallible half of an insert: check the shape of `histogram` and
    /// derive what the filter stages hold of it, changing nothing.
    pub(crate) fn reduce(&self, histogram: &Histogram) -> Result<Derived, QueryError> {
        if histogram.dim() != self.cost.cols() {
            return Err(QueryError::Core(emd_core::CoreError::DimensionMismatch {
                expected_rows: self.cost.rows(),
                expected_cols: self.cost.cols(),
                got_rows: histogram.dim(),
                got_cols: histogram.dim(),
            }));
        }
        Ok(Derived {
            reduced: self.reduced.reduce_second(histogram)?,
            projection: self.project(histogram)?,
        })
    }

    /// The anchor projection of `histogram`; empty without a floor.
    fn project(&self, histogram: &Histogram) -> Result<Arc<[f64]>, QueryError> {
        Ok(match &self.floor {
            Some(floor) => floor.project(histogram)?,
            None => Arc::from([]),
        })
    }

    /// The infallible half of an insert: store `histogram` with what
    /// [`reduce`](Self::reduce) derived from it, under
    /// [`next_id`](Self::next_id).
    pub(crate) fn push(&mut self, histogram: Histogram, derived: Derived) -> u64 {
        let id = self.next_id;
        self.objects.push(Some(histogram));
        self.reduced_objects.push(Some(derived.reduced));
        self.projections.push(Some(derived.projection));
        self.ids.push(id);
        self.next_id += 1;
        self.live += 1;
        id
    }

    /// The storage position of a live object.
    fn position(&self, id: u64) -> Option<usize> {
        let position = self.ids.binary_search(&id).ok()?;
        self.objects.get(position)?.as_ref().map(|_| position)
    }

    /// Delete by id. Returns `true` if the object existed and was live.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(position) = self.position(id) else {
            return false;
        };
        for slots in [&mut self.objects, &mut self.reduced_objects] {
            if let Some(slot) = slots.get_mut(position) {
                *slot = None;
            }
        }
        if let Some(slot) = self.projections.get_mut(position) {
            *slot = None;
        }
        self.live -= 1;
        true
    }

    /// Fetch a live object.
    pub fn get(&self, id: u64) -> Option<&Histogram> {
        self.objects.get(self.position(id)?)?.as_ref()
    }

    /// The live objects with their ids, in ascending id order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (u64, &Histogram)> {
        let slots = self.ids.iter().zip(self.objects.iter());
        slots.filter_map(|(&id, slot)| Some((id, slot.as_ref()?)))
    }

    /// Reclaim the storage of removed objects. Ids are unaffected, and
    /// outstanding snapshots keep the handles they collected.
    pub fn compact(&mut self) {
        self.ids = self.live().map(|(id, _)| id).collect();
        self.objects.retain(Option::is_some);
        self.reduced_objects.retain(Option::is_some);
        self.projections.retain(Option::is_some);
    }

    /// An immutable, queryable snapshot of the current live objects: a
    /// [`Database`] of their handles under the stages of
    /// [`QueryPlan::chain`]. Every query of the index runs on one.
    ///
    /// O(live) reference-count bumps — take one and run many queries on
    /// it — and no histogram, reduced vector or anchor projection copied;
    /// later
    /// [`insert`](Self::insert) / [`remove`](Self::remove) /
    /// [`compact`](Self::compact) calls leave the snapshot untouched.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::EmptyDatabase`] when no live objects remain.
    pub fn snapshot(&self) -> Result<DynamicSnapshot, QueryError> {
        if self.live == 0 {
            return Err(QueryError::EmptyDatabase);
        }
        let ids = self.live().map(|(id, _)| id).collect();
        let objects = self.objects.iter().flatten().cloned().collect();
        let reduced_objects = self.reduced_objects.iter().flatten().cloned().collect();
        let database = Database::new(objects, Arc::clone(&self.cost))?;
        let red_im = ReducedImFilter::from_shared(
            Arc::clone(&self.reduced),
            Arc::clone(&self.bound),
            reduced_objects,
        );
        let floor = self.floor.as_ref().map(|floor| {
            let projections = self.projections.iter().flatten().cloned().collect();
            AnchorFilter::from_shared(Arc::clone(floor), projections)
        });
        let refiner = Box::new(EmdDistance::new(&database)?);
        Ok(DynamicSnapshot {
            executor: Executor::new(QueryPlan::new(chain_stages(floor, red_im), refiner)?),
            ids,
            database,
        })
    }
}

/// An immutable view of a [`DynamicIndex`] at snapshot time: queries run
/// through the shared [`Executor`] against the live objects and answer
/// in the index's ids. Unaffected by later index mutations.
#[derive(Debug)]
pub struct DynamicSnapshot {
    executor: Executor,
    /// Dense (executor) id -> id, ascending.
    ids: Vec<u64>,
    /// The live objects, by dense id.
    database: Database,
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

    /// Fetch an object that was live when the snapshot was taken.
    pub fn get(&self, id: u64) -> Option<&Histogram> {
        self.database.get(self.ids.binary_search(&id).ok()?)
    }

    /// The underlying executor, for its plan and statistics. Its answers
    /// are in dense ids private to this snapshot; [`run`](Self::run) and
    /// [`run_isolated`](Self::run_isolated) answer in the index's ids.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Run one [`Query`] under the budget it carries, answering in the
    /// index's ids (exact neighbors and degraded candidates alike).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] under the same conditions as
    /// [`Executor::run`], and [`QueryError::UnknownObject`] for an id
    /// that does not fit the outcome's `usize`.
    pub fn run(&self, query: &Query) -> Result<(QueryOutcome, QueryStats), QueryError> {
        let (outcome, stats) = self.executor.run(query)?;
        Ok((self.in_ids(outcome)?, stats))
    }

    /// [`run`](Self::run) with panic isolation — the server's entry
    /// point; see [`Executor::run_isolated`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run) and
    /// [`Executor::run_isolated`].
    pub fn run_isolated(
        &self,
        query: &Query,
        worker: usize,
    ) -> Result<(QueryOutcome, QueryStats), QueryError> {
        let (outcome, stats) = self.executor.run_isolated(query, worker)?;
        Ok((self.in_ids(outcome)?, stats))
    }

    /// Exact k-NN as `(id, distance)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] under the same conditions as
    /// [`Executor::knn`].
    // lint: allow(unbudgeted): sugar over Executor::knn with Budget::unlimited().
    pub fn knn(
        &self,
        query: &Histogram,
        k: usize,
    ) -> Result<(Vec<(u64, f64)>, QueryStats), QueryError> {
        let (neighbors, stats) = self.executor.knn(query, k)?;
        Ok((self.in_pairs(neighbors)?, stats))
    }

    /// Exact range query as `(id, distance)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] under the same conditions as
    /// [`Executor::range`].
    // lint: allow(unbudgeted): sugar over Executor::range with Budget::unlimited().
    pub fn range(
        &self,
        query: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<(u64, f64)>, QueryStats), QueryError> {
        let (neighbors, stats) = self.executor.range(query, epsilon)?;
        Ok((self.in_pairs(neighbors)?, stats))
    }

    /// Rewrite an outcome's dense ids as the index's ids; one that does
    /// not fit the outcome's `usize` is an error, never a wrong id.
    fn in_ids(&self, outcome: QueryOutcome) -> Result<QueryOutcome, QueryError> {
        outcome.map_ids(|dense| usize::try_from(*self.ids.get(dense)?).ok())
    }

    /// Rewrite exact neighbors as `(id, distance)` pairs.
    fn in_pairs(&self, neighbors: Vec<Neighbor>) -> Result<Vec<(u64, f64)>, QueryError> {
        let id = |dense: usize| self.ids.get(dense).ok_or(QueryError::UnknownObject(dense));
        let pairs = neighbors.iter().map(|n| Ok((*id(n.id)?, n.distance)));
        pairs.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{brute_force_knn, brute_force_range};
    use emd_core::ground;
    use emd_reduction::CombiningReduction;

    impl DynamicIndex {
        /// Storage positions in use, tombstones included.
        pub(crate) fn positions(&self) -> usize {
            self.ids.len()
        }
    }

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
        let (neighbors, stats) = index.snapshot().unwrap().knn(&query, 2).unwrap();
        assert_eq!(neighbors[0].0, a);
        assert_eq!(neighbors[1].0, c);
        assert_eq!(stats.filter_evaluations[0], ("anchor(a=2)".to_owned(), 3));
        assert_eq!(stats.filter_evaluations[1].0, "red-im(d'=2/2)");
        assert_eq!(stats.filter_evaluations[2].0, "red-emd(d'=2/2)");

        assert!(index.remove(a));
        assert!(!index.remove(a), "double delete is a no-op");
        assert_eq!(index.len(), 2);
        let (neighbors, _) = index.snapshot().unwrap().knn(&query, 2).unwrap();
        assert_eq!(neighbors[0].0, c);
        assert_eq!(neighbors[1].0, b);
        assert!(index.get(a).is_none());
        assert!(index.get(b).is_some());
    }

    /// Distances rounded and sorted, so equal-distance results compare
    /// deterministically across implementations.
    fn canonical(distances: impl Iterator<Item = f64>) -> Vec<i64> {
        let mut rounded: Vec<i64> = distances.map(|d| (d * 1e9).round() as i64).collect();
        rounded.sort_unstable();
        rounded
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
        let (got, _) = index.snapshot().unwrap().knn(&query, 3).unwrap();
        assert_eq!(
            canonical(got.iter().map(|hit| hit.1)),
            canonical(expected.iter().map(|n| n.distance))
        );
    }

    #[test]
    fn compact_reclaims_storage_and_keeps_ids() {
        let mut index = index();
        let a = index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let b = index.insert(h(&[0.0, 1.0, 0.0, 0.0])).unwrap();
        let c = index.insert(h(&[0.0, 0.0, 1.0, 0.0])).unwrap();
        index.remove(b);
        assert_eq!(index.positions(), 3);
        index.compact();
        assert_eq!((index.positions(), index.len()), (2, 2));
        let query = h(&[0.0, 0.0, 0.9, 0.1]);
        let (neighbors, _) = index.snapshot().unwrap().knn(&query, 1).unwrap();
        assert_eq!(neighbors[0].0, c, "c is still c");
        assert!(index.get(a).is_some() && index.get(b).is_none());
        let d = index.insert(h(&[0.0, 0.0, 0.0, 1.0])).unwrap();
        assert_eq!(d, 3, "b's id is not reused");
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut index = index();
        assert!(index.insert(h(&[0.5, 0.5])).is_err());
        assert_eq!(index.next_id(), 0, "a rejected insert consumes no id");
        // An empty index has no snapshot to query, whatever the query asks.
        let query = h(&[0.25, 0.25, 0.25, 0.25]);
        assert!(matches!(
            index.snapshot().and_then(|s| s.knn(&query, 0)).unwrap_err(),
            QueryError::EmptyDatabase
        ));
        index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let snapshot = index.snapshot().unwrap();
        assert!(matches!(
            snapshot.knn(&query, 0).unwrap_err(),
            QueryError::ZeroK
        ));
        assert!(matches!(
            snapshot.range(&query, f64::NAN).unwrap_err(),
            QueryError::InvalidEpsilon(_)
        ));
        assert!(!index.remove(999));
    }

    #[test]
    fn completeness_with_loose_reduction() {
        // An all-in-one-group reduction has bound 0 everywhere, and a
        // squared chain is no metric, so no anchor floor stands in for it:
        // the filter is useless but the results must still be exact.
        let squared = |i: usize, j: usize| (i as f64 - j as f64).powi(2);
        let cost = Arc::new(CostMatrix::from_fn(4, squared).unwrap());
        let r = CombiningReduction::new(vec![0, 0, 0, 0], 1).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let mut index = DynamicIndex::new(cost, reduced).unwrap();
        for i in 0..4 {
            index.insert(Histogram::unit(4, i).unwrap()).unwrap();
        }
        let query = Histogram::unit(4, 2).unwrap();
        let (neighbors, stats) = index.snapshot().unwrap().knn(&query, 2).unwrap();
        assert_eq!(neighbors[0].0, 2);
        assert_eq!(stats.filter_evaluations.len(), 2, "Figure 10 as printed");
        assert_eq!(stats.refinements, 4, "useless filter refines everything");
    }

    #[test]
    fn interleaved_churn_matches_brute_force() {
        // Interleave insert/remove/compact with k-NN *and* range queries,
        // asserting against the brute-force oracles over exactly the live
        // objects after every phase. The oracle is keyed by the id
        // `insert` returned, so an id that drifted to another histogram
        // (across a removal, a compaction) fails here.
        let cost = ground::linear(4).unwrap();
        let queries = [
            h(&[0.25, 0.25, 0.25, 0.25]),
            h(&[0.7, 0.1, 0.1, 0.1]),
            h(&[0.0, 0.2, 0.3, 0.5]),
        ];
        let mut index = index();
        let mut live: Vec<(u64, Histogram)> = Vec::new();

        let check = |index: &DynamicIndex, live: &[(u64, Histogram)]| {
            assert_eq!(index.len(), live.len());
            for (id, histogram) in live {
                assert_eq!(index.get(*id), Some(histogram), "id {id} names its object");
            }
            let database: Vec<Histogram> = live.iter().map(|(_, h)| h.clone()).collect();
            // Every hit carries the distance of the object its id names.
            let names_its_object = |query: &Histogram, hits: &[(u64, f64)]| {
                for &(id, distance) in hits {
                    let (_, named) = live.iter().find(|(live_id, _)| *live_id == id).unwrap();
                    let exact = emd_core::emd(query, named, &cost).unwrap();
                    assert!(
                        (exact - distance).abs() < 1e-9,
                        "id {id} names another object"
                    );
                }
            };
            let snapshot = index.snapshot().unwrap();
            for query in &queries {
                for k in [1, 2, 4] {
                    let expected = brute_force_knn(query, &database, &cost, k).unwrap();
                    let (got, _) = snapshot.knn(query, k).unwrap();
                    assert_eq!(got.len(), expected.len().min(k));
                    assert_eq!(
                        canonical(got.iter().map(|hit| hit.1)),
                        canonical(expected.iter().map(|n| n.distance)),
                        "k-NN distances diverge from brute force"
                    );
                    names_its_object(query, &got);
                }
                for epsilon in [0.3, 0.8, 2.0] {
                    let expected = brute_force_range(query, &database, &cost, epsilon).unwrap();
                    let (got, _) = snapshot.range(query, epsilon).unwrap();
                    assert_eq!(
                        canonical(got.iter().map(|hit| hit.1)),
                        canonical(expected.iter().map(|n| n.distance)),
                        "range hits diverge from brute force at eps={epsilon}"
                    );
                    names_its_object(query, &got);
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

        // Phase 3: compact under a frozen snapshot. The oracle is not
        // re-keyed — the ids handed out before name the same histograms
        // after — and the snapshot's answers do not move by a bit.
        let bits = |snapshot: &DynamicSnapshot| -> Vec<Vec<(u64, u64)>> {
            let answer = |query| snapshot.knn(query, 4).unwrap().0;
            let bits = |hits: Vec<(u64, f64)>| hits.iter().map(|h| (h.0, h.1.to_bits())).collect();
            queries.iter().map(answer).map(bits).collect()
        };
        let frozen = index.snapshot().unwrap();
        let before = bits(&frozen);
        assert!(index.positions() > live.len(), "tombstones to reclaim");
        index.compact();
        assert_eq!(index.positions(), live.len());
        check(&index, &live);
        assert_eq!(
            bits(&frozen),
            before,
            "a frozen snapshot ignores compaction"
        );
        assert_eq!(bits(&index.snapshot().unwrap()), before);

        // Phase 4: churn on the compacted index, then compact again. New
        // ids continue past every id ever handed out.
        let (last, _) = live.pop().unwrap();
        assert!(index.remove(last));
        check(&index, &live);
        let histogram = h(&[0.15, 0.2, 0.3, 0.35]);
        let id = index.insert(histogram.clone()).unwrap();
        assert_eq!(id, last + 1, "ids are never reused");
        live.push((id, histogram));
        index.compact();
        check(&index, &live);
    }

    #[test]
    fn snapshot_shares_the_anchor_projections() {
        // A projection is made once, at insert; a snapshot takes a handle
        // to that allocation (a copy would leave the count at one).
        let mut index = index();
        index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        index.insert(h(&[0.0, 0.5, 0.5, 0.0])).unwrap();
        let holders = |index: &DynamicIndex| -> Vec<usize> {
            let live = index.projections.iter().flatten();
            live.map(Arc::strong_count).collect()
        };
        assert_eq!(holders(&index), [1, 1]);
        let first = index.snapshot().unwrap();
        let second = index.snapshot().unwrap();
        assert_eq!(holders(&index), [3, 3]);
        drop((first, second));
        assert_eq!(holders(&index), [1, 1]);
        // Both anchors of the 4-bin chain: bins 0 and 2.
        assert_eq!(*index.projections[1].clone().unwrap(), [1.5, 0.5]);
    }

    #[test]
    fn snapshot_is_isolated_from_mutations() {
        let mut index = index();
        let a = index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let b = index.insert(h(&[0.0, 0.0, 0.0, 1.0])).unwrap();
        let snapshot = index.snapshot().unwrap();
        assert_eq!(snapshot.len(), 2);

        // A snapshot holds the index's own histograms: no bin was copied.
        let shares = |index: &DynamicIndex, ids: &[u64]| {
            for &id in ids {
                let (live, frozen) = (index.get(id).unwrap(), snapshot.get(id).unwrap());
                assert_eq!(live.bins().as_ptr(), frozen.bins().as_ptr(), "id {id}");
            }
        };
        shares(&index, &[a, b]);
        let query = h(&[1.0, 0.0, 0.0, 0.0]);
        let bits = |hits: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
            hits.iter().map(|hit| (hit.0, hit.1.to_bits())).collect()
        };
        let before = bits(snapshot.knn(&query, 2).unwrap().0);

        // Mutate after snapshotting: remove a, insert a closer object,
        // reclaim a's slot.
        assert!(index.remove(a));
        let c = index.insert(h(&[0.9, 0.1, 0.0, 0.0])).unwrap();
        index.compact();

        // The snapshot still sees the original two objects, bit for bit,
        // and the survivor is still the one histogram both sides hold...
        assert_eq!(bits(snapshot.knn(&query, 2).unwrap().0), before);
        assert_eq!(before[0].0, a);
        assert_eq!(snapshot.get(a), Some(&query));
        assert!(snapshot.get(c).is_none());
        shares(&index, &[b]);
        // ...while the index sees the new state.
        let (current, _) = index.snapshot().unwrap().knn(&query, 2).unwrap();
        assert_eq!((current[0].0, current[1].0), (c, b));
    }
}
