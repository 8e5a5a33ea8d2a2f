//! Filter distances over an indexed database snapshot.
//!
//! A [`Filter`] holds everything that can be precomputed *per database*
//! (reduced vectors, sorted cost rows, centroids) over a shared
//! [`Database`] snapshot; [`Filter::prepare`] builds the cheap
//! *per-query* state (the reduced query, its centroid, ...), and
//! [`PreparedFilter::distance`] evaluates one object in the hot loop,
//! counting evaluations for the experiment harness.
//!
//! All filters except [`EmdDistance`] are lower bounds of the exact EMD,
//! so any of them — and any chain of them ordered by increasing tightness
//! — yields complete multistep query processing (GEMINI/KNOP, \[10, 18\]).
//! Filters are `Send + Sync` by construction so a
//! [`QueryPlan`](crate::QueryPlan) can be shared across the batch
//! executor's threads.

use crate::engine::Database;
use crate::error::QueryError;
use emd_core::ground::Metric;
use emd_core::lower_bounds::{CentroidBound, LbIm, ScaledL1};
use emd_core::{
    emd_in_context, emd_in_context_within, Bounded, Budget, CostMatrix, EmdContext, Histogram,
};
use emd_reduction::{PersistedReduction, ReducedEmd};
use std::sync::Arc;

/// Check that a persisted bundle matches the snapshot it will filter:
/// same object count, and reductions built for the snapshot's
/// dimensionality. The store's open path already validated the bundle
/// internally; this guards against pairing a bundle with the *wrong*
/// (e.g. freshly rebuilt, differently sized) snapshot.
pub(crate) fn check_persisted(
    database: &Database,
    bundle: &PersistedReduction,
) -> Result<(), QueryError> {
    if bundle.reduced_database().len() != database.len() {
        return Err(QueryError::Reduction(format!(
            "persisted bundle `{}` indexes {} objects, snapshot holds {}",
            bundle.name(),
            bundle.reduced_database().len(),
            database.len()
        )));
    }
    let original = bundle.reduced().r2().original_dim();
    if original != database.dim() {
        return Err(QueryError::Reduction(format!(
            "persisted bundle `{}` reduces {original} dimensions, snapshot has {}",
            bundle.name(),
            database.dim()
        )));
    }
    Ok(())
}

/// The stage name of a filter over `reduced` — `kind(d'=a/b)`, with `a`
/// / `b` the query- and database-side reduced dimensionalities. One
/// spelling for in-memory, disk-opened and live stages, so their
/// [`QueryStats`](crate::QueryStats) rows merge.
fn reduced_stage_name(kind: &str, reduced: &ReducedEmd) -> String {
    format!(
        "{kind}(d'={}/{})",
        reduced.r1().reduced_dim(),
        reduced.r2().reduced_dim()
    )
}

/// The `R2` side of every object of `database`, in id order.
fn reduce_database(
    database: &Database,
    reduced: &ReducedEmd,
) -> Result<Arc<[Histogram]>, QueryError> {
    let objects = database.histograms().iter();
    Ok(objects
        .map(|h| reduced.reduce_second(h))
        .collect::<Result<_, _>>()?)
}

/// A database-indexed distance function, instantiable per query.
///
/// `Send + Sync` is a supertrait so plans built from boxed filters can be
/// shared by reference across the batch executor's worker threads.
pub trait Filter: Send + Sync {
    /// Stage name used in statistics (e.g. `"red-emd(d'=8)"`).
    fn name(&self) -> &str;
    /// Number of indexed objects.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Build the per-query evaluator under an execution [`Budget`].
    ///
    /// Solver-backed filters ([`EmdDistance`], [`ReducedEmdFilter`]) probe
    /// the budget inside every LP solve, surfacing
    /// [`QueryError::BudgetExhausted`] from [`PreparedFilter::distance`].
    /// Closed-form filters evaluate in microseconds and ignore it (the
    /// scan and the KNOP loop check it between candidates).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the query's shape does not match the
    /// indexed database.
    fn prepare(
        &self,
        query: &Histogram,
        budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError>;
}

/// Per-query filter state; evaluates single objects.
pub trait PreparedFilter {
    /// Distance from the prepared query to database object `id`.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] on an out-of-range id or when the
    /// underlying distance computation fails (solver failure); shape
    /// mismatches are ruled out at [`Filter`] construction.
    fn distance(&mut self, id: usize) -> Result<f64, QueryError>;
    /// [`distance`](Self::distance) for a caller that only needs the
    /// value when it is at most `cutoff` (the KNOP loop, against its
    /// current k-th distance or ε): an evaluator that can prove
    /// `distance > cutoff` before it knows the distance may answer
    /// [`Bounded::Above`] with a lower bound *strictly* above `cutoff`.
    /// The default computes the distance; only the exact-EMD refiner,
    /// when it runs warm, has a bound to stop on.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`distance`](Self::distance).
    fn distance_within(&mut self, id: usize, cutoff: f64) -> Result<Bounded, QueryError> {
        let _ = cutoff;
        self.distance(id).map(Bounded::Optimal)
    }
    /// Number of `distance` / `distance_within` calls so far.
    fn evaluations(&self) -> usize;
}

/// The histogram stored under dense id `id`.
fn object(objects: &[Histogram], id: usize) -> Result<&Histogram, QueryError> {
    objects.get(id).ok_or(QueryError::UnknownObject(id))
}

/// The solver context of one prepared query, reused across candidates.
/// Warm, each solve starts from the basis the previous candidate's ended
/// on; cold (`with_warm_start(false)`), the basis is forgotten before
/// every evaluation, so the same body solves from a Vogel start and —
/// having no inherited dual bound — never stops at a cutoff.
struct Evaluator {
    context: EmdContext,
    warm_start: bool,
}

impl Evaluator {
    fn new(warm_start: bool) -> Self {
        Evaluator {
            context: EmdContext::new(),
            warm_start,
        }
    }

    /// The context to run the next evaluation through.
    fn context(&mut self) -> &mut EmdContext {
        if !self.warm_start {
            self.context.clear_warm_state();
        }
        &mut self.context
    }
}

// ---------------------------------------------------------------------
// Exact EMD (refinement distance / no-filter baseline)
// ---------------------------------------------------------------------

/// The exact, original-dimensionality EMD. Used as the refinement
/// distance of every plan and as the sequential-scan baseline.
#[derive(Debug, Clone)]
pub struct EmdDistance {
    name: String,
    database: Database,
    warm_start: bool,
}

impl EmdDistance {
    /// Index a database snapshot for exact EMD evaluation. Prepared
    /// evaluators carry a per-query [`EmdContext`], so consecutive
    /// candidates warm-start each other; [`EmdDistance::with_warm_start`]
    /// turns that off.
    ///
    /// # Errors
    ///
    /// Infallible today (the snapshot is already validated against its
    /// cost matrix); the `Result` keeps the constructor uniform with the
    /// other filters.
    pub fn new(database: &Database) -> Result<Self, QueryError> {
        Ok(EmdDistance {
            name: format!("emd(d={})", database.cost().rows()),
            database: database.clone(),
            warm_start: true,
        })
    }

    /// With `false`, the evaluator forgets its basis before every
    /// evaluation, so each one is a cold solve that depends on nothing
    /// but its own pair and never stops at a cutoff — the oracle the
    /// brute-force scan, the parity suites and the benchmark gate compare
    /// warm answers against.
    #[must_use]
    // lint: allow(unbudgeted): builder flag, performs no solver work
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// The ground-distance matrix.
    pub fn cost(&self) -> &CostMatrix {
        self.database.cost()
    }

    /// The indexed histograms.
    pub fn database(&self) -> &[Histogram] {
        self.database.histograms()
    }
}

impl Filter for EmdDistance {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.database.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        Ok(Box::new(PreparedEmd::new(
            query,
            self.database.histograms(),
            self.database.cost(),
            budget,
            self.warm_start,
        )?))
    }
}

/// Per-query exact-EMD evaluator.
struct PreparedEmd<'a> {
    query: Histogram,
    objects: &'a [Histogram],
    cost: &'a CostMatrix,
    budget: Budget,
    evaluator: Evaluator,
    evaluations: usize,
}

impl<'a> PreparedEmd<'a> {
    /// Checks the query against `cost` and sets up the evaluator; every
    /// solve probes `budget`.
    fn new(
        query: &Histogram,
        objects: &'a [Histogram],
        cost: &'a CostMatrix,
        budget: &Budget,
        warm_start: bool,
    ) -> Result<Self, QueryError> {
        check_dim(query, cost.rows())?;
        Ok(PreparedEmd {
            query: query.clone(),
            objects,
            cost,
            budget: budget.clone(),
            evaluator: Evaluator::new(warm_start),
            evaluations: 0,
        })
    }
}

impl PreparedFilter for PreparedEmd<'_> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        self.evaluations += 1;
        let y = object(self.objects, id)?;
        Ok(emd_in_context(
            &self.query,
            y,
            self.cost,
            &self.budget,
            self.evaluator.context(),
        )?)
    }

    fn distance_within(&mut self, id: usize, cutoff: f64) -> Result<Bounded, QueryError> {
        self.evaluations += 1;
        let y = object(self.objects, id)?;
        Ok(emd_in_context_within(
            &self.query,
            y,
            self.cost,
            &self.budget,
            cutoff,
            self.evaluator.context(),
        )?)
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

// ---------------------------------------------------------------------
// Reduced EMD (the paper's Red-EMD filter)
// ---------------------------------------------------------------------

/// The paper's dimensionality-reduction filter: reduced-vector EMD under
/// the optimal reduced cost matrix. Database vectors are reduced once at
/// construction; the query is reduced once per query.
#[derive(Debug, Clone)]
pub struct ReducedEmdFilter {
    name: String,
    reduced: Arc<ReducedEmd>,
    reduced_database: Arc<[Histogram]>,
    warm_start: bool,
}

impl ReducedEmdFilter {
    /// Reduce and index a database snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when a database histogram cannot be reduced by
    /// `reduced` (shape mismatch).
    pub fn new(database: &Database, reduced: ReducedEmd) -> Result<Self, QueryError> {
        let reduced_database = reduce_database(database, &reduced)?;
        Ok(Self::from_shared(Arc::new(reduced), reduced_database))
    }

    /// The stage over an already reduced arena, shared rather than copied.
    fn from_shared(reduced: Arc<ReducedEmd>, reduced_database: Arc<[Histogram]>) -> Self {
        ReducedEmdFilter {
            name: reduced_stage_name("red-emd", &reduced),
            reduced,
            reduced_database,
            warm_start: true,
        }
    }

    /// With `false`, the evaluator forgets its basis before every
    /// evaluation, so each one is a cold solve that depends on nothing
    /// but its own pair and never stops at a cutoff — the oracle the
    /// brute-force scan, the parity suites and the benchmark gate compare
    /// warm answers against.
    #[must_use]
    // lint: allow(unbudgeted): builder flag, performs no solver work
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Index a database snapshot from a persisted bundle, reusing the
    /// precomputed reduced arena instead of re-reducing every object.
    /// The stage name is derived from the reduction dimensionalities
    /// exactly as in [`ReducedEmdFilter::new`], so statistics from a
    /// disk-opened plan merge with (and are comparable to) an in-memory
    /// plan's.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Reduction`] when the bundle's object count
    /// or original dimensionality disagrees with `database`.
    pub fn from_persisted(
        database: &Database,
        bundle: PersistedReduction,
    ) -> Result<Self, QueryError> {
        check_persisted(database, &bundle)?;
        let (_, reduced, reduced_database) = bundle.into_parts();
        Ok(Self::from_shared(
            Arc::new(reduced),
            reduced_database.into(),
        ))
    }

    /// The underlying reduced EMD (reductions + reduced cost matrix).
    pub fn reduced(&self) -> &ReducedEmd {
        &self.reduced
    }

    /// The reduced database vectors.
    pub fn reduced_database(&self) -> &[Histogram] {
        &self.reduced_database
    }
}

impl Filter for ReducedEmdFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.reduced_database.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        Ok(Box::new(PreparedReducedEmd::new(
            query,
            &self.reduced,
            &self.reduced_database,
            budget,
            self.warm_start,
        )?))
    }
}

/// Per-query Red-EMD evaluator over *reduced* database vectors.
struct PreparedReducedEmd<'a> {
    reduced_query: Histogram,
    reduced: &'a ReducedEmd,
    reduced_objects: &'a [Histogram],
    budget: Budget,
    evaluator: Evaluator,
    evaluations: usize,
}

impl<'a> PreparedReducedEmd<'a> {
    /// Reduces the query once and sets up the evaluator; every solve
    /// probes `budget`.
    fn new(
        query: &Histogram,
        reduced: &'a ReducedEmd,
        reduced_objects: &'a [Histogram],
        budget: &Budget,
        warm_start: bool,
    ) -> Result<Self, QueryError> {
        Ok(PreparedReducedEmd {
            reduced_query: reduced.reduce_first(query)?,
            reduced,
            reduced_objects,
            budget: budget.clone(),
            evaluator: Evaluator::new(warm_start),
            evaluations: 0,
        })
    }
}

impl PreparedFilter for PreparedReducedEmd<'_> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        self.evaluations += 1;
        let ry = object(self.reduced_objects, id)?;
        Ok(self.reduced.distance_reduced_in_context(
            &self.reduced_query,
            ry,
            &self.budget,
            self.evaluator.context(),
        )?)
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

// ---------------------------------------------------------------------
// LB_IM on reduced features (the paper's Red-IM filter, Figure 10)
// ---------------------------------------------------------------------

/// LB_IM evaluated on the *reduced* vectors under the *reduced* cost
/// matrix — filter 1 of the paper's chained setup (Figure 10). A lower
/// bound of the reduced EMD, hence transitively of the exact EMD.
#[derive(Debug, Clone)]
pub struct ReducedImFilter {
    name: String,
    bound: Arc<LbIm>,
    reduced: Arc<ReducedEmd>,
    reduced_database: Arc<[Histogram]>,
}

impl ReducedImFilter {
    /// Reduce and index a database snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when a database histogram cannot be reduced by
    /// `reduced` (shape mismatch).
    pub fn new(database: &Database, reduced: ReducedEmd) -> Result<Self, QueryError> {
        let reduced_database = reduce_database(database, &reduced)?;
        Ok(Self::over(reduced, reduced_database))
    }

    /// Index a database snapshot from a persisted bundle, reusing the
    /// precomputed reduced arena. Stage-name and semantics match
    /// [`ReducedImFilter::new`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Reduction`] when the bundle's object count
    /// or original dimensionality disagrees with `database`.
    pub fn from_persisted(
        database: &Database,
        bundle: PersistedReduction,
    ) -> Result<Self, QueryError> {
        check_persisted(database, &bundle)?;
        let (_, reduced, reduced_database) = bundle.into_parts();
        Ok(Self::over(reduced, reduced_database.into()))
    }

    /// The stage over a reduced arena, deriving LB_IM from `reduced`.
    fn over(reduced: ReducedEmd, reduced_database: Arc<[Histogram]>) -> Self {
        let bound = LbIm::new(reduced.reduced_cost().clone());
        Self::from_shared(Arc::new(reduced), Arc::new(bound), reduced_database)
    }

    /// The stage over parts derived elsewhere — `bound` is LB_IM over
    /// `reduced`'s reduced cost, `reduced_database` the `R2` side of the
    /// objects — shared rather than copied: a live index derives the
    /// first two once and hands them to every snapshot.
    pub(crate) fn from_shared(
        reduced: Arc<ReducedEmd>,
        bound: Arc<LbIm>,
        reduced_database: Arc<[Histogram]>,
    ) -> Self {
        ReducedImFilter {
            name: reduced_stage_name("red-im", &reduced),
            bound,
            reduced,
            reduced_database,
        }
    }

    /// The Red-EMD stage this one lower-bounds: the same reduction over
    /// the same reduced arena, neither copied.
    pub(crate) fn red_emd_stage(&self) -> ReducedEmdFilter {
        ReducedEmdFilter::from_shared(
            Arc::clone(&self.reduced),
            Arc::clone(&self.reduced_database),
        )
    }
}

impl Filter for ReducedImFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.reduced_database.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        _budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        Ok(Box::new(PreparedReducedIm::new(
            query,
            &self.reduced,
            &self.bound,
            &self.reduced_database,
        )?))
    }
}

/// Per-query Red-IM evaluator over *reduced* database vectors.
/// Closed-form: no solver context, no budget.
struct PreparedReducedIm<'a> {
    reduced_query: Histogram,
    bound: &'a LbIm,
    reduced_objects: &'a [Histogram],
    evaluations: usize,
}

impl<'a> PreparedReducedIm<'a> {
    /// Reduces the query once; `bound` is LB_IM over `reduced`'s reduced
    /// cost matrix.
    fn new(
        query: &Histogram,
        reduced: &ReducedEmd,
        bound: &'a LbIm,
        reduced_objects: &'a [Histogram],
    ) -> Result<Self, QueryError> {
        Ok(PreparedReducedIm {
            reduced_query: reduced.reduce_first(query)?,
            bound,
            reduced_objects,
            evaluations: 0,
        })
    }
}

impl PreparedFilter for PreparedReducedIm<'_> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        self.evaluations += 1;
        let ry = object(self.reduced_objects, id)?;
        Ok(self.bound.bound(&self.reduced_query, ry)?)
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

// ---------------------------------------------------------------------
// Classic full-dimensional filters
// ---------------------------------------------------------------------

/// LB_IM on the original dimensionality (the baseline filter of
/// reference \[1\], used standalone for comparison).
#[derive(Debug, Clone)]
pub struct FullLbImFilter {
    name: String,
    bound: LbIm,
    database: Database,
}

impl FullLbImFilter {
    /// Index a database snapshot under its own cost matrix.
    ///
    /// # Errors
    ///
    /// Infallible today (the snapshot is already validated); the `Result`
    /// keeps the constructor uniform with the other filters.
    pub fn new(database: &Database) -> Result<Self, QueryError> {
        Ok(FullLbImFilter {
            name: format!("lb-im(d={})", database.cost().rows()),
            bound: LbIm::new(database.cost().clone()),
            database: database.clone(),
        })
    }
}

impl Filter for FullLbImFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.database.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        _budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        check_dim(query, self.bound.cost().rows())?;
        Ok(Box::new(PreparedFullIm {
            query: query.clone(),
            filter: self,
            evaluations: 0,
        }))
    }
}

struct PreparedFullIm<'a> {
    query: Histogram,
    filter: &'a FullLbImFilter,
    evaluations: usize,
}

impl PreparedFilter for PreparedFullIm<'_> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        self.evaluations += 1;
        Ok(self
            .filter
            .bound
            .bound(&self.query, object(self.filter.database.histograms(), id)?)?)
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

/// Rubner's centroid bound as a filter: database centroids are
/// precomputed, each evaluation is one `metric` call in feature space.
#[derive(Debug, Clone)]
pub struct CentroidFilter {
    name: String,
    bound: CentroidBound,
    database_centroids: Vec<Vec<f64>>,
    metric: Metric,
}

impl CentroidFilter {
    /// Index a database snapshot given the bin positions inducing the
    /// ground distance.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the centroid bound rejects `positions`
    /// or their dimensionality disagrees with the snapshot.
    pub fn new(
        database: &Database,
        positions: Vec<Vec<f64>>,
        metric: Metric,
    ) -> Result<Self, QueryError> {
        let bound = CentroidBound::new(positions, metric)?;
        if !database.is_empty() {
            check_dim_count(database.dim(), bound.dim())?;
        }
        let database_centroids = database
            .histograms()
            .iter()
            .map(|h| bound.centroid(h))
            .collect();
        Ok(CentroidFilter {
            name: format!("centroid(d={})", bound.dim()),
            bound,
            database_centroids,
            metric,
        })
    }
}

impl Filter for CentroidFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.database_centroids.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        _budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        check_dim(query, self.bound.dim())?;
        Ok(Box::new(PreparedCentroid {
            query_centroid: self.bound.centroid(query),
            filter: self,
            evaluations: 0,
        }))
    }
}

struct PreparedCentroid<'a> {
    query_centroid: Vec<f64>,
    filter: &'a CentroidFilter,
    evaluations: usize,
}

impl PreparedFilter for PreparedCentroid<'_> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        self.evaluations += 1;
        let centroid = self
            .filter
            .database_centroids
            .get(id)
            .ok_or(QueryError::UnknownObject(id))?;
        Ok(self.filter.metric.distance(&self.query_centroid, centroid))
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

/// The scaled-L1 bound as a filter — the cheapest possible first stage.
#[derive(Debug, Clone)]
pub struct ScaledL1Filter {
    name: String,
    bound: ScaledL1,
    database: Database,
}

impl ScaledL1Filter {
    /// Index a database snapshot under its own cost matrix.
    ///
    /// # Errors
    ///
    /// Infallible today (the snapshot is already validated); the `Result`
    /// keeps the constructor uniform with the other filters.
    pub fn new(database: &Database) -> Result<Self, QueryError> {
        Ok(ScaledL1Filter {
            name: format!("scaled-l1(d={})", database.cost().rows()),
            bound: ScaledL1::new(database.cost()),
            database: database.clone(),
        })
    }
}

impl Filter for ScaledL1Filter {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.database.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        _budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        Ok(Box::new(PreparedScaledL1 {
            query: query.clone(),
            filter: self,
            evaluations: 0,
        }))
    }
}

struct PreparedScaledL1<'a> {
    query: Histogram,
    filter: &'a ScaledL1Filter,
    evaluations: usize,
}

impl PreparedFilter for PreparedScaledL1<'_> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        self.evaluations += 1;
        Ok(self
            .filter
            .bound
            .bound(&self.query, object(self.filter.database.histograms(), id)?)?)
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

/// The anchor (weak-duality) bound as a filter: database projections are
/// precomputed, each evaluation is `O(#anchors)` — the cheapest filter in
/// the toolbox. Requires a metric ground distance (validated at
/// construction). Not comparable to the reduced EMD, so use it standalone
/// in front of the refiner rather than inside a Red-IM/Red-EMD chain.
#[derive(Debug, Clone)]
pub struct AnchorFilter {
    name: String,
    bound: emd_core::lower_bounds::AnchorBound,
    database_projections: Vec<Vec<f64>>,
}

impl AnchorFilter {
    /// Index a database snapshot with `anchors` spread anchor bins.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the anchor bound cannot be built (bad
    /// anchor count) or a database projection fails.
    pub fn new(database: &Database, anchors: usize) -> Result<Self, QueryError> {
        let bound =
            emd_core::lower_bounds::AnchorBound::with_spread_anchors(database.cost(), anchors)?;
        let database_projections = database
            .histograms()
            .iter()
            .map(|h| Ok(bound.project(h)?))
            .collect::<Result<Vec<_>, QueryError>>()?;
        Ok(AnchorFilter {
            name: format!("anchor(a={})", bound.num_anchors()),
            bound,
            database_projections,
        })
    }
}

impl Filter for AnchorFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.database_projections.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        _budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        let query_projection = self.bound.project(query)?;
        Ok(Box::new(PreparedAnchor {
            query_projection,
            filter: self,
            evaluations: 0,
        }))
    }
}

struct PreparedAnchor<'a> {
    query_projection: Vec<f64>,
    filter: &'a AnchorFilter,
    evaluations: usize,
}

impl PreparedFilter for PreparedAnchor<'_> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        self.evaluations += 1;
        let projection = self
            .filter
            .database_projections
            .get(id)
            .ok_or(QueryError::UnknownObject(id))?;
        Ok(self
            .filter
            .bound
            .bound_from_projections(&self.query_projection, projection))
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

fn check_dim(h: &Histogram, expected: usize) -> Result<(), QueryError> {
    check_dim_count(h.dim(), expected)
}

fn check_dim_count(got: usize, expected: usize) -> Result<(), QueryError> {
    if got != expected {
        return Err(QueryError::Core(emd_core::CoreError::DimensionMismatch {
            expected_rows: expected,
            expected_cols: expected,
            got_rows: got,
            got_cols: got,
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::{emd, ground};
    use emd_reduction::CombiningReduction;

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
    fn exact_filter_matches_direct_emd() {
        let db = database();
        let filter = EmdDistance::new(&db).unwrap();
        let query = h(&[0.5, 0.5, 0.0, 0.0]);
        let mut prepared = filter.prepare(&query, &Budget::unlimited()).unwrap();
        for (id, object) in db.histograms().iter().enumerate() {
            let expected = emd(&query, object, db.cost()).unwrap();
            assert!((prepared.distance(id).unwrap() - expected).abs() < 1e-12);
        }
        assert_eq!(prepared.evaluations(), 4);
        assert!(matches!(
            prepared.distance(4).unwrap_err(),
            QueryError::UnknownObject(4)
        ));
    }

    #[test]
    fn all_filters_lower_bound_exact() {
        let db = database();
        let query = h(&[0.4, 0.1, 0.3, 0.2]);
        let reduction = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let reduced = ReducedEmd::new(db.cost(), reduction).unwrap();

        let filters: Vec<Box<dyn Filter>> = vec![
            Box::new(ReducedEmdFilter::new(&db, reduced.clone()).unwrap()),
            Box::new(ReducedImFilter::new(&db, reduced).unwrap()),
            Box::new(FullLbImFilter::new(&db).unwrap()),
            Box::new(
                CentroidFilter::new(&db, ground::linear_positions(4), Metric::Manhattan).unwrap(),
            ),
            Box::new(ScaledL1Filter::new(&db).unwrap()),
        ];
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
        }
    }

    #[test]
    fn red_im_lower_bounds_red_emd() {
        // The Figure 10 chain requires each stage to bound the next.
        let db = database();
        let query = h(&[0.1, 0.2, 0.3, 0.4]);
        let reduction = CombiningReduction::new(vec![0, 1, 1, 0], 2).unwrap();
        let reduced = ReducedEmd::new(db.cost(), reduction).unwrap();
        let red_im = ReducedImFilter::new(&db, reduced).unwrap();
        // The chain's Red-EMD stage: same reduction, same reduced arena.
        let red_emd = red_im.red_emd_stage();
        assert!(Arc::ptr_eq(&red_im.reduced, &red_emd.reduced));
        assert!(Arc::ptr_eq(
            &red_im.reduced_database,
            &red_emd.reduced_database
        ));
        let mut p_emd = red_emd.prepare(&query, &Budget::unlimited()).unwrap();
        let mut p_im = red_im.prepare(&query, &Budget::unlimited()).unwrap();
        for id in 0..db.len() {
            assert!(p_im.distance(id).unwrap() <= p_emd.distance(id).unwrap() + 1e-9);
        }
    }

    #[test]
    fn snapshot_construction_rejects_dimension_mismatch() {
        let db = database();
        let wrong_cost = Arc::new(ground::linear(3).unwrap());
        assert!(Database::new(db.histograms().to_vec(), wrong_cost).is_err());
    }

    #[test]
    fn prepare_rejects_mismatched_query() {
        let db = database();
        let filter = EmdDistance::new(&db).unwrap();
        assert!(filter
            .prepare(&h(&[0.5, 0.5]), &Budget::unlimited())
            .is_err());
    }

    #[test]
    fn asymmetric_reduction_filter() {
        // Query stays at full dimensionality, database is halved.
        let db = database();
        let r1 = CombiningReduction::identity(4).unwrap();
        let r2 = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
        let reduced = ReducedEmd::with_asymmetric(db.cost(), r1, r2).unwrap();
        let filter = ReducedEmdFilter::new(&db, reduced).unwrap();
        let query = h(&[0.4, 0.1, 0.3, 0.2]);
        let exact = EmdDistance::new(&db).unwrap();
        let mut p = filter.prepare(&query, &Budget::unlimited()).unwrap();
        let mut e = exact.prepare(&query, &Budget::unlimited()).unwrap();
        for id in 0..db.len() {
            assert!(p.distance(id).unwrap() <= e.distance(id).unwrap() + 1e-9);
        }
    }
}

#[cfg(test)]
mod anchor_tests {
    use super::*;
    use crate::engine::{Executor, QueryPlan};
    use emd_core::{emd, ground};
    use std::sync::Arc;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn anchor_filter_lower_bounds_and_is_complete() {
        let db = Database::new(
            vec![
                h(&[1.0, 0.0, 0.0, 0.0]),
                h(&[0.0, 0.5, 0.5, 0.0]),
                h(&[0.0, 0.0, 0.0, 1.0]),
                h(&[0.25, 0.25, 0.25, 0.25]),
            ],
            Arc::new(ground::linear(4).unwrap()),
        )
        .unwrap();
        let filter = AnchorFilter::new(&db, 2).unwrap();
        let query = h(&[0.6, 0.4, 0.0, 0.0]);
        {
            let mut prepared = filter.prepare(&query, &Budget::unlimited()).unwrap();
            for (id, object) in db.histograms().iter().enumerate() {
                let exact = emd(&query, object, db.cost()).unwrap();
                assert!(prepared.distance(id).unwrap() <= exact + 1e-9);
            }
        }
        // Standalone anchor -> EMD plan returns brute-force results.
        let executor = Executor::new(
            QueryPlan::new(
                vec![Box::new(filter)],
                Box::new(EmdDistance::new(&db).unwrap()),
            )
            .unwrap(),
        );
        let (got, stats) = executor.knn(&query, 2).unwrap();
        let expected = crate::scan::brute_force_knn(&query, db.histograms(), db.cost(), 2).unwrap();
        assert_eq!(
            got.iter().map(|n| n.id).collect::<Vec<_>>(),
            expected.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        assert!(stats.refinements <= db.len());
    }
}
