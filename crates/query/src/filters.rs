//! Filter stages over an indexed database snapshot.
//!
//! A stage is *a projection of the query plus an evaluator over a space*
//! — a space being an arena of histograms (or of what a bound projects
//! them to) in id order. There are two evaluators. `PreparedEmd` is
//! the LP: the EMD of the projected query and one arena object under the
//! space's cost matrix — [`EmdDistance`] over the database,
//! [`ReducedEmdFilter`] over `R1·q`, the reduced arena and `C'` (the
//! paper's Section 4: Red-EMD "is again an EMD"). `PreparedBound` is a
//! closed form of the shape *project a histogram once, bound two
//! projections* (`ProjectedBound`) — [`ReducedImFilter`] is full LB_IM
//! over the reduced space, the clustered source's pivot keys are it over
//! the closure of the reduced cost.
//!
//! A [`Filter`] holds what is precomputed *per database*;
//! [`Filter::prepare`] projects the query once and hands back the
//! evaluator, and [`PreparedFilter::distance`] evaluates one object in
//! the hot loop, counting evaluations for the experiment harness.
//!
//! All filters except [`EmdDistance`] are lower bounds of the exact EMD,
//! so any of them — and any chain of them, in any order: each stage
//! bounds the EMD and the chain keeps the running max
//! ([`ChainedRanking`](crate::ranking::ChainedRanking)) — yields complete
//! multistep query processing (GEMINI/KNOP, \[10, 18\]). Cheapest first
//! is the order that pays.
//! Filters are `Send + Sync` by construction so a
//! [`QueryPlan`](crate::QueryPlan) can be shared across threads (the
//! server's worker pool).

use crate::engine::Database;
use crate::error::QueryError;
use emd_core::lower_bounds::{AnchorBound, LbIm};
use emd_core::{
    distance_slack, emd_in_context_within, Bounded, Budget, CostMatrix, EmdContext, Histogram,
};
use emd_reduction::{PersistedReduction, ReducedEmd};
use std::sync::Arc;

/// Check that a persisted bundle matches the snapshot it will filter:
/// same object count, and reductions built for the snapshot's
/// dimensionality. The store's open path already validated the bundle
/// internally; this guards against pairing a bundle with the *wrong*
/// (e.g. freshly rebuilt, differently sized) snapshot.
fn check_persisted(database: &Database, bundle: &PersistedReduction) -> Result<(), QueryError> {
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

/// `reduced` with the `R2` side of every object of `database`, in id
/// order, as a persisted bundle carries them.
pub(crate) fn reduce(
    database: &Database,
    reduced: ReducedEmd,
) -> Result<PersistedReduction, QueryError> {
    let histograms = database.histograms();
    Ok(PersistedReduction::precompute("", reduced, histograms)?)
}

/// A database-indexed distance function, instantiable per query.
///
/// `Send + Sync` is a supertrait so plans built from boxed filters can be
/// shared by reference across threads.
pub trait Filter: Send + Sync {
    /// Stage name used in statistics (e.g. `"red-emd(d'=8)"`).
    fn name(&self) -> &str;
    /// Number of indexed objects.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The [`distance_slack`] of the cost this filter computes under; a
    /// plan discards with the largest (see [`QueryPlan`](crate::QueryPlan)).
    fn slack(&self) -> f64;
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
    /// The default computes the distance; only the LP evaluator, when it
    /// runs warm, has a bound to stop on.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`distance`](Self::distance).
    fn distance_within(&mut self, id: usize, cutoff: f64) -> Result<Bounded, QueryError> {
        let _ = cutoff;
        self.distance(id).map(Bounded::Optimal)
    }
    /// Number of `distance` / `distance_within` calls that ran to an
    /// answer so far; one a budget interrupted is not an evaluation.
    fn evaluations(&self) -> usize;
}

/// A borrowed evaluator is one, so a chain can own a stage its caller
/// keeps (the executor reads every stage's evaluation count afterwards).
impl<F: PreparedFilter + ?Sized> PreparedFilter for &mut F {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        (**self).distance(id)
    }

    fn distance_within(&mut self, id: usize, cutoff: f64) -> Result<Bounded, QueryError> {
        (**self).distance_within(id, cutoff)
    }

    fn evaluations(&self) -> usize {
        (**self).evaluations()
    }
}

// ---------------------------------------------------------------------
// The LP evaluator: exact EMD, Red-EMD
// ---------------------------------------------------------------------

/// The EMD of one query against the objects of a space, under the
/// space's cost matrix. One solver context serves the whole query: warm,
/// each solve starts from the basis the previous candidate's ended on;
/// cold (`with_warm_start(false)`), the basis is forgotten before every
/// evaluation, so the same body solves from a Vogel start and — having no
/// inherited dual bound — never stops at a cutoff.
pub(crate) struct PreparedEmd<'a> {
    query: Histogram,
    objects: &'a [Histogram],
    cost: &'a CostMatrix,
    budget: Budget,
    context: EmdContext,
    warm_start: bool,
    evaluations: usize,
}

impl<'a> PreparedEmd<'a> {
    /// Checks `query` — already projected into the space — against
    /// `cost`; every solve probes `budget`.
    pub(crate) fn new(
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
            context: EmdContext::new(),
            warm_start,
            evaluations: 0,
        })
    }
}

impl PreparedFilter for PreparedEmd<'_> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        // No bound lies above an infinite cutoff: this is `Optimal`.
        let (Bounded::Optimal(distance) | Bounded::Above(distance)) =
            self.distance_within(id, f64::INFINITY)?;
        Ok(distance)
    }

    fn distance_within(&mut self, id: usize, cutoff: f64) -> Result<Bounded, QueryError> {
        let object = self.objects.get(id).ok_or(QueryError::UnknownObject(id))?;
        if !self.warm_start {
            self.context.clear_warm_state();
        }
        let solved = emd_in_context_within(
            &self.query,
            object,
            self.cost,
            &self.budget,
            cutoff,
            &mut self.context,
        )?;
        self.evaluations += 1;
        Ok(solved)
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

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

    fn slack(&self) -> f64 {
        distance_slack(self.database.cost())
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

/// The paper's dimensionality-reduction filter: reduced-vector EMD under
/// the optimal reduced cost matrix — the LP evaluator over the reduced
/// space. Database vectors are reduced once at construction; the query
/// is reduced once per query.
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
        Self::from_persisted(database, reduce(database, reduced)?)
    }

    /// The stage over an already reduced arena, shared rather than copied.
    fn over(reduced_database: Arc<[Histogram]>, reduced: Arc<ReducedEmd>) -> Self {
        ReducedEmdFilter {
            name: reduced_stage_name("red-emd", &reduced),
            reduced,
            reduced_database,
            warm_start: true,
        }
    }

    /// Cold solves on `false`, as [`EmdDistance::with_warm_start`].
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
        Ok(Self::over(reduced_database.into(), Arc::new(reduced)))
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

    fn slack(&self) -> f64 {
        distance_slack(self.reduced.reduced_cost())
    }

    fn prepare(
        &self,
        query: &Histogram,
        budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        Ok(Box::new(PreparedEmd::new(
            &self.reduced.reduce_first(query)?,
            &self.reduced_database,
            self.reduced.reduced_cost(),
            budget,
            self.warm_start,
        )?))
    }
}

// ---------------------------------------------------------------------
// The closed-form evaluator: Red-IM, anchors
// ---------------------------------------------------------------------

/// The shape both closed-form lower bounds here have: *project a
/// histogram once, bound two projections*. Database objects are
/// projected at construction, the query (shape-checked) once per query.
pub(crate) trait ProjectedBound: Send + Sync {
    /// What a histogram is projected to.
    type Projection: Send + Sync;
    /// Project a query-side histogram.
    fn project(&self, histogram: &Histogram) -> Result<Self::Projection, QueryError>;
    /// The bound between a query's and an object's projection.
    fn bound(&self, query: &Self::Projection, object: &Self::Projection)
        -> Result<f64, QueryError>;
}

/// LB_IM bounds the histograms themselves; its space may be rectangular
/// (`R1 != R2`), with queries on the rows.
impl ProjectedBound for LbIm {
    type Projection = Histogram;

    fn project(&self, histogram: &Histogram) -> Result<Histogram, QueryError> {
        check_dim(histogram, self.cost().rows())?;
        Ok(histogram.clone())
    }

    fn bound(&self, query: &Histogram, object: &Histogram) -> Result<f64, QueryError> {
        Ok(LbIm::bound(self, query, object)?)
    }
}

/// A projection is a shared handle, as a [`Histogram`] is: a live index
/// projects an object once, at insert, and every snapshot it publishes
/// holds the same allocation.
impl ProjectedBound for AnchorBound {
    type Projection = Arc<[f64]>;

    fn project(&self, histogram: &Histogram) -> Result<Arc<[f64]>, QueryError> {
        Ok(AnchorBound::project(self, histogram)?)
    }

    fn bound(&self, query: &Arc<[f64]>, object: &Arc<[f64]>) -> Result<f64, QueryError> {
        Ok(self.bound_from_projections(query, object))
    }
}

/// A closed-form bound of one query against the projections of a space.
/// No solver context, no budget.
pub(crate) struct PreparedBound<'a, B: ProjectedBound> {
    query: B::Projection,
    bound: &'a B,
    projections: &'a [B::Projection],
    evaluations: usize,
}

impl<'a, B: ProjectedBound> PreparedBound<'a, B> {
    /// Projects `query` — already in the space `bound` projects from —
    /// once.
    pub(crate) fn new(
        query: &Histogram,
        bound: &'a B,
        projections: &'a [B::Projection],
    ) -> Result<Self, QueryError> {
        Ok(PreparedBound {
            query: bound.project(query)?,
            bound,
            projections,
            evaluations: 0,
        })
    }
}

impl<B: ProjectedBound> PreparedFilter for PreparedBound<'_, B> {
    fn distance(&mut self, id: usize) -> Result<f64, QueryError> {
        let object = self
            .projections
            .get(id)
            .ok_or(QueryError::UnknownObject(id))?;
        let bound = self.bound.bound(&self.query, object)?;
        self.evaluations += 1;
        Ok(bound)
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }
}

/// What a closed-form stage holds per database: the bound, every
/// object's projection, in id order, and the slack of its cost.
#[derive(Debug, Clone)]
struct BoundStage<B: ProjectedBound> {
    name: String,
    bound: Arc<B>,
    projections: Arc<[B::Projection]>,
    slack: f64,
}

/// A closed-form filter (Red-IM, the anchor floor): each is a [`Filter`]
/// through the one impl below.
trait ClosedForm: Send + Sync {
    /// The bound the stage evaluates.
    type Bound: ProjectedBound;
    /// The bound and the projected database.
    fn stage(&self) -> &BoundStage<Self::Bound>;
    /// The query in the space the bound projects from: the database's
    /// own, unless the stage lives in a reduced one.
    fn project_query(&self, query: &Histogram) -> Result<Histogram, QueryError> {
        Ok(query.clone())
    }
}

impl<S: ClosedForm> Filter for S {
    fn name(&self) -> &str {
        &self.stage().name
    }

    fn len(&self) -> usize {
        self.stage().projections.len()
    }

    fn slack(&self) -> f64 {
        self.stage().slack
    }

    fn prepare(
        &self,
        query: &Histogram,
        _budget: &Budget,
    ) -> Result<Box<dyn PreparedFilter + '_>, QueryError> {
        let stage = self.stage();
        Ok(Box::new(PreparedBound::new(
            &self.project_query(query)?,
            stage.bound.as_ref(),
            &stage.projections,
        )?))
    }
}

/// LB_IM evaluated on the *reduced* vectors under the *reduced* cost
/// matrix — filter 1 of the paper's chained setup (Figure 10): full
/// LB_IM over the reduced space. A lower bound of the reduced EMD, hence
/// transitively of the exact EMD.
#[derive(Debug, Clone)]
pub struct ReducedImFilter {
    /// LB_IM over the reduced cost; its projections are the reduced arena.
    stage: BoundStage<LbIm>,
    /// The reduction a query is projected by.
    reduced: Arc<ReducedEmd>,
}

impl ReducedImFilter {
    /// Reduce and index a database snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when a database histogram cannot be reduced by
    /// `reduced` (shape mismatch).
    pub fn new(database: &Database, reduced: ReducedEmd) -> Result<Self, QueryError> {
        Self::from_persisted(database, reduce(database, reduced)?)
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
        let bound = Arc::new(LbIm::new(reduced.reduced_cost().clone()));
        let reduced = Arc::new(reduced);
        Ok(Self::over(reduced_database.into(), reduced, bound))
    }

    /// The stage over shared parts: `bound` is LB_IM over `reduced`'s
    /// reduced cost, `reduced_database` the `R2` side of the objects.
    fn over(
        reduced_database: Arc<[Histogram]>,
        reduced: Arc<ReducedEmd>,
        bound: Arc<LbIm>,
    ) -> Self {
        ReducedImFilter {
            stage: BoundStage {
                name: reduced_stage_name("red-im", &reduced),
                bound,
                projections: reduced_database,
                slack: distance_slack(reduced.reduced_cost()),
            },
            reduced,
        }
    }
}

impl ClosedForm for ReducedImFilter {
    type Bound = LbIm;

    fn stage(&self) -> &BoundStage<LbIm> {
        &self.stage
    }

    fn project_query(&self, query: &Histogram) -> Result<Histogram, QueryError> {
        Ok(self.reduced.reduce_first(query)?)
    }
}

/// The anchor (weak-duality) bound as a filter: database projections are
/// precomputed, each evaluation is `O(#anchors)` — the cheapest filter in
/// the toolbox. Requires a metric ground distance (validated at
/// construction). Not comparable to the reduced EMD — on blobs it is the
/// tighter of the two, on scattered mass the looser — which is why
/// [`QueryPlan::chain`](crate::QueryPlan::chain) puts it *under* Red-IM
/// and Red-EMD instead of in their place: the chain keeps the running
/// max, so each stage only has to bound the EMD. It is stage 1 of that
/// chain over a scan, and the stage right above the cluster traversal of
/// a [`ClusteredIndex`](crate::ClusteredIndex).
#[derive(Debug, Clone)]
pub struct AnchorFilter(BoundStage<AnchorBound>);

impl AnchorFilter {
    /// Index a database snapshot with `anchors` spread anchor bins
    /// (clamped to `1..=bins`).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when the snapshot's cost is not a metric.
    pub fn new(database: &Database, anchors: usize) -> Result<Self, QueryError> {
        let bound = AnchorBound::with_spread_anchors(database.cost(), anchors)?;
        let objects = database.histograms().iter();
        let projections = objects
            .map(|h| bound.project(h))
            .collect::<Result<_, _>>()?;
        let slack = distance_slack(database.cost());
        Ok(Self::over(Arc::new(bound), projections, slack))
    }

    /// The stage over shared parts: `projections` what `bound` projects
    /// the objects to, `slack` that of the cost it was built over.
    fn over(bound: Arc<AnchorBound>, projections: Arc<[Arc<[f64]>]>, slack: f64) -> Self {
        AnchorFilter(BoundStage {
            name: format!("anchor(a={})", bound.num_anchors()),
            bound,
            projections,
            slack,
        })
    }
}

impl ClosedForm for AnchorFilter {
    type Bound = AnchorBound;

    fn stage(&self) -> &BoundStage<AnchorBound> {
        &self.0
    }
}

// ---------------------------------------------------------------------
// The chain's derived state: anchor -> Red-IM -> Red-EMD
// ---------------------------------------------------------------------

/// The one owner of what the stages of
/// [`QueryPlan::chain`](crate::QueryPlan::chain) derive: per index the
/// reduction, LB_IM over `C'` and the anchor floor, per object its `R2`
/// side and anchor projection. The scan and the clustered index enter it
/// through [`ChainState::persisted`], the live index through
/// [`ChainState::new`] and [`ChainState::object`]; none derives any of it
/// itself.
#[derive(Debug)]
pub(crate) struct ChainState {
    /// The reduction every stage reads.
    reduced: Arc<ReducedEmd>,
    lb_im: Arc<LbIm>,
    /// The anchor bound and its cost's slack; `None` off a metric, and
    /// then the chain is Figure 10 as printed.
    floor: Option<(Arc<AnchorBound>, f64)>,
}

/// The chain's reduction, the reduced arena, and the stages over both —
/// what [`ChainState::persisted`] hands a plan or an index.
pub(crate) type Chain = (Arc<ReducedEmd>, Arc<[Histogram]>, Vec<Box<dyn Filter>>);

/// One object's `R2` side and anchor projection (empty without a floor),
/// for an index that derives its objects one at a time.
#[derive(Debug, Clone)]
pub(crate) struct ObjectState {
    pub(crate) reduced: Histogram,
    pub(crate) projection: Arc<[f64]>,
}

impl ChainState {
    /// The chain over `cost` reduced by `reduced`. The floor keeps as
    /// many spread anchors as `reduced` keeps database-side dimensions: a
    /// constant of the index.
    pub(crate) fn new(cost: &CostMatrix, reduced: ReducedEmd) -> Self {
        let lb_im = Arc::new(LbIm::new(reduced.reduced_cost().clone()));
        let bound = AnchorBound::with_spread_anchors(cost, reduced.r2().reduced_dim()).ok();
        ChainState {
            floor: bound.map(|bound| (Arc::new(bound), distance_slack(cost))),
            reduced: Arc::new(reduced),
            lb_im,
        }
    }

    /// The one way into the chain over a reduced database: `bundle`
    /// checked against `database`, its reduction, its arena and the
    /// stages of [`QueryPlan::chain`](crate::QueryPlan::chain) over both.
    pub(crate) fn persisted(
        database: &Database,
        bundle: &PersistedReduction,
    ) -> Result<Chain, QueryError> {
        check_persisted(database, bundle)?;
        let chain = Self::new(database.cost(), bundle.reduced().clone());
        let arena: Arc<[Histogram]> = bundle.reduced_database().into();
        let projections = chain.projections(database.histograms())?;
        let stages = chain.stages(Arc::clone(&arena), projections);
        Ok((chain.reduced, arena, stages))
    }

    /// One object's state; `reduced` is its `R2` side when a
    /// [`PersistedReduction`] already derived it.
    pub(crate) fn object(
        &self,
        histogram: &Histogram,
        reduced: Option<Histogram>,
    ) -> Result<ObjectState, QueryError> {
        Ok(ObjectState {
            reduced: reduced.map_or_else(|| self.reduced.reduce_second(histogram), Ok)?,
            projection: self.project(histogram)?,
        })
    }

    /// The anchor projection of each histogram, in order; none without a
    /// floor.
    pub(crate) fn projections(
        &self,
        histograms: &[Histogram],
    ) -> Result<Arc<[Arc<[f64]>]>, QueryError> {
        if self.floor.is_none() {
            return Ok(Arc::from([]));
        }
        histograms.iter().map(|h| self.project(h)).collect()
    }

    fn project(&self, histogram: &Histogram) -> Result<Arc<[f64]>, QueryError> {
        match &self.floor {
            Some((bound, _)) => Ok(bound.project(histogram)?),
            None => Ok(Arc::from([])),
        }
    }

    /// The stages over the objects' `R2` sides (`arena`) and anchor
    /// `projections`, in chain order, `anchor(a=…)` (with a floor),
    /// `red-im(d'=…)`, `red-emd(d'=…)`: each at its own cost's slack,
    /// the two reduced stages holding handles to one arena, never copies.
    pub(crate) fn stages(
        &self,
        arena: Arc<[Histogram]>,
        projections: Arc<[Arc<[f64]>]>,
    ) -> Vec<Box<dyn Filter>> {
        let mut stages: Vec<Box<dyn Filter>> = Vec::with_capacity(3);
        if let Some((bound, slack)) = &self.floor {
            let floor = AnchorFilter::over(Arc::clone(bound), projections, *slack);
            stages.push(Box::new(floor));
        }
        let (reduced, lb_im) = (&self.reduced, Arc::clone(&self.lb_im));
        let red_im = ReducedImFilter::over(Arc::clone(&arena), Arc::clone(reduced), lb_im);
        stages.push(Box::new(red_im));
        stages.push(Box::new(ReducedEmdFilter::over(arena, Arc::clone(reduced))));
        stages
    }
}

fn check_dim(h: &Histogram, expected: usize) -> Result<(), QueryError> {
    if h.dim() != expected {
        return Err(QueryError::Core(emd_core::CoreError::DimensionMismatch {
            expected_rows: expected,
            expected_cols: expected,
            got_rows: h.dim(),
            got_cols: h.dim(),
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
            Box::new(AnchorFilter::new(&db, 2).unwrap()),
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
        let chain = ChainState::new(db.cost(), reduced.clone());
        let (_, _, arena) = reduce(&db, reduced).unwrap().into_parts();
        let arena: Arc<[Histogram]> = arena.into();
        let projections = chain.projections(db.histograms()).unwrap();
        let stages = chain.stages(Arc::clone(&arena), projections);
        let names: Vec<_> = stages.iter().map(|stage| stage.name()).collect();
        assert_eq!(names, ["anchor(a=2)", "red-im(d'=2/2)", "red-emd(d'=2/2)"]);
        // Red-IM and Red-EMD share the chain's reduction and one reduced
        // arena: each holds a handle (a copy would leave a count lower).
        assert_eq!(Arc::strong_count(&arena), 3);
        assert_eq!(Arc::strong_count(&chain.reduced), 3);
        let mut p_im = stages[1].prepare(&query, &Budget::unlimited()).unwrap();
        let mut p_emd = stages[2].prepare(&query, &Budget::unlimited()).unwrap();
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
