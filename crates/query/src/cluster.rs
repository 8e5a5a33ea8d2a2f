//! Cluster-pruned metric index over the reduced-space arena.
//!
//! Every stage-1 filter so far paid O(n) reduced-EMD evaluations per
//! query. This module breaks that ceiling: because the reduced EMD is a
//! *metric* whenever the reduced ground distance is (PAPER.md's metric
//! preservation lemma), the reduced arena can be partitioned into
//! clusters — each with a pivot and a covering radius — and the triangle
//! inequality prunes whole clusters with a **single** pivot evaluation:
//!
//! ```text
//! d(q, o) >= d(q, pivot) - radius      for every member o,
//! ```
//!
//! so `max(0, d(q, pivot) - radius)` is a sound lower bound for every
//! member, and (by the reduction's lower-bound property) of the exact
//! EMD as well — the chain condition KNOP needs.
//!
//! The minima of Definition 5 do not always preserve the triangle
//! inequality (merging a chain into three blocks puts the outer pair at
//! ground distance 3 with two 1-hops between them), so the index prunes
//! with the EMD over the **metric closure** of the reduced cost: every
//! entry replaced by its all-pairs shortest-path distance. The closure
//! only lowers entries, so `EMD_closure <= Red-EMD <= EMD` keeps the
//! bound chain intact, and shortest-path distances satisfy the triangle
//! inequality by construction. When the reduced cost is already a metric
//! the closure is bit-identical to it and nothing changes.
//!
//! Construction is greedy k-center (minimum-maximum, Gonzalez): pick the
//! object farthest from all chosen pivots as the next pivot, `~sqrt(n) ·
//! factor` times. A triangle shortcut (`d(new pivot, old pivot) >= 2 ·
//! d(o, old pivot)` implies the new pivot cannot steal `o`) keeps
//! construction well below the naive `k·n` solves on clustered data.
//!
//! At query time [`ClusteredIndex`] is a [`CandidateSource`] whose stream
//! **solves no LP until a closed-form bound asks for it**. LB_IM over
//! the pruning cost lower-bounds the pruning distance (`LB_IM_closure <=
//! EMD_closure <= Red-EMD <= EMD`), and over a metric ground distance the
//! anchor bound on the *original* histograms (`anchor <= EMD`, the floor
//! [`QueryPlan::chain`](crate::QueryPlan::chain) puts under its stages)
//! lower-bounds the exact EMD directly. Neither bounds the other, so a
//! member's key is the **running max** of what is known of it — each term
//! bounds the EMD, and that is all KNOP needs of an emitted key. Writing
//! `d` for the pruning distance, the stream's best-first heap holds four
//! kinds of entry, ordered on equal keys as listed:
//!
//! | kind | key | on pop |
//! |---|---|---|
//! | *lazy cluster* | `max(0, LB_IM(q, pivot) - radius)` | solve the pivot; push its *cluster* and its own *member* entry |
//! | *cluster* | `max(0, d(q, pivot) - radius)` | push a *lazy member* per non-pivot member (no LP) |
//! | *lazy member* | `max(LB_IM(q, o), anchor(q, o))` | solve `o`; push its *member* entry |
//! | *member* | `max(d(q, o), anchor(q, o))` | emit `(o, key)` |
//!
//! (Without a metric ground distance there is no anchor term and the
//! member keys are `LB_IM(q, o)` and `d(q, o)`.) A deferred key never
//! exceeds its solved twin's (`LB_IM <= d`, and the anchor term rides
//! along unchanged), a cluster's key never exceeds any of its members'
//! (`d(q, pivot) - radius <= d(q, o)`, and the max only raises the
//! member's), and every non-member kind orders before *member* on equal
//! keys; so when a member entry `(key, id)` is at the top, every entry
//! that could still produce a member at `<= key` has already been popped
//! and resolved, and candidates are emitted in exactly the ascending
//! `(key, id)` order a full scan of `max(d, anchor)` produces; only the
//! number of solves changes. A cluster whose (deferred or real) bound, or
//! a member whose closed-form key, exceeds KNOP's stopping frontier is
//! never solved: that is the sublinear win the benchmark's
//! `gauss32-clustered-20k` workload measures
//! (`cluster.visited_per_query` / `cluster.pruned_per_query`; the
//! stream's `index.deferred_bounds` / `index.deferred_solved` counters
//! say how many LB_IM evaluations it made and how many entries it later
//! had to solve).
//!
//! The clustering persists through `emd-store` ([`ClusteredIndex::to_stored`]
//! / [`ClusteredIndex::from_stored`]) so `build-index --cluster` pays
//! construction once. Budgets propagate through the traversal: a firing
//! surfaces as [`QueryError::BudgetExhausted`] from the stream with the
//! interrupted entry still in the heap, so the degraded answer is
//! surrendered *every* object not yet emitted at its tightest computed
//! bound — a member or lazy member at its key, the members of a cluster
//! (its pivot too, while the cluster is still lazy) at the cluster's
//! bound.

use crate::engine::source::{CandidateSource, CandidateStream};
use crate::engine::Database;
use crate::error::QueryError;
use crate::filters::{
    check_persisted, reduce_database, AnchorFilter, PreparedBound, PreparedEmd, PreparedFilter,
};
use crate::ranking::{Key, Ranking};
use emd_core::certify::debug_check_lower_bound;
use emd_core::lower_bounds::{AnchorBound, LbIm};
use emd_core::{emd_in_context, Budget, CostMatrix, EmdContext, Histogram};
use emd_reduction::{PersistedReduction, ReducedEmd};
use emd_store::StoredClustering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Tolerance for symmetry/zero-diagonal checks on the reduced cost, and
/// for the debug metric assertion on its closure.
const METRIC_TOL: f64 = 1e-9;

/// Heap entry kinds, in their order on equal keys: a deferred entry
/// resolves before its solved twin and everything resolves before a
/// member is emitted, which is what makes the emission order identical
/// to a full scan's (k-center on duplicates gives zero radii and equal
/// keys; this order is what decides those).
const ENTRY_LAZY_CLUSTER: u8 = 0;
const ENTRY_CLUSTER: u8 = 1;
const ENTRY_LAZY_MEMBER: u8 = 2;
const ENTRY_MEMBER: u8 = 3;

/// A greedy k-center clustering of the reduced arena, queryable as a
/// [`CandidateSource`] with triangle-inequality cluster pruning.
///
/// # Examples
///
/// Build over a snapshot, stream candidates, and round-trip the
/// clustering through its stored form:
///
/// ```
/// use emd_core::{ground, Budget, Histogram};
/// use emd_query::{CandidateSource, ClusteredIndex, Database};
/// use emd_reduction::{CombiningReduction, ReducedEmd};
/// use std::sync::Arc;
///
/// let cost = Arc::new(ground::linear(4).unwrap());
/// let database = Database::new(
///     vec![
///         Histogram::unit(4, 0).unwrap(),
///         Histogram::unit(4, 1).unwrap(),
///         Histogram::unit(4, 3).unwrap(),
///     ],
///     cost.clone(),
/// )
/// .unwrap();
/// // Symmetric 4 -> 2 reduction: the reduced EMD stays a metric.
/// let reduction = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
/// let reduced = ReducedEmd::new(&cost, reduction).unwrap();
///
/// let index = ClusteredIndex::build(&database, reduced, 1.0).unwrap();
/// assert!(index.clusters() >= 1 && index.clusters() <= index.len());
///
/// let query = Histogram::unit(4, 0).unwrap();
/// let mut stream = index.prepare(&query, &Budget::unlimited()).unwrap();
/// let (first, distance) = stream.next().unwrap().unwrap();
/// assert_eq!((first, distance), (0, 0.0));
///
/// // The geometry persists: stored form rebuilds the same index.
/// let stored = index.to_stored();
/// assert_eq!(stored.pivots.len(), index.clusters());
/// ```
#[derive(Debug, Clone)]
pub struct ClusteredIndex {
    name: String,
    reduced: ReducedEmd,
    /// LB_IM over the metric closure of the reduced ground distance —
    /// [`LbIm::cost`] is the cost every construction and query-time
    /// distance in this index uses; the bound defers those distances.
    pruning: LbIm,
    reduced_database: Arc<[Histogram]>,
    /// The anchor bound over the database's own cost and objects, folded
    /// into every member key; `None` when that cost is not a metric.
    /// Derived from the database on every build and open, never stored.
    floor: Option<AnchorFilter>,
    pivots: Vec<u32>,
    assignments: Vec<u32>,
    radii: Vec<f64>,
    /// Member ids per cluster, ascending (includes the pivot).
    members: Vec<Vec<u32>>,
}

impl ClusteredIndex {
    /// Build the clustering from scratch: reduce every database object,
    /// then run greedy k-center into `ceil(sqrt(n) * factor)` clusters
    /// (clamped to `[1, n]`).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::EmptyDatabase`] for an empty snapshot,
    /// [`QueryError::Reduction`] when `factor` is not positive and
    /// finite, when the reduction is asymmetric, or when the reduced
    /// ground distance is not a metric (triangle pruning would be
    /// unsound), and any solver error from the construction distances.
    pub fn build(
        database: &Database,
        reduced: ReducedEmd,
        factor: f64,
    ) -> Result<Self, QueryError> {
        let arena = reduce_database(database, &reduced)?;
        Self::assemble(database, reduced, arena, factor)
    }

    /// Build the clustering over a bundle's precomputed reduced arena
    /// (no re-reduction) — the `build-index --cluster` path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusteredIndex::build`], plus
    /// [`QueryError::Reduction`] when `bundle` does not match `database`.
    pub fn from_persisted(
        database: &Database,
        bundle: &PersistedReduction,
        factor: f64,
    ) -> Result<Self, QueryError> {
        check_persisted(database, bundle)?;
        Self::assemble(
            database,
            bundle.reduced().clone(),
            bundle.reduced_database().to_vec().into(),
            factor,
        )
    }

    /// Reattach a persisted clustering to its bundle without re-running
    /// construction — the index-open path. The geometry is revalidated
    /// structurally (ranges, pivot self-assignment, finite radii) but
    /// radii are trusted, mirroring the store's contract for the reduced
    /// arena itself.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Reduction`] when `bundle` does not match
    /// `database`, when the reduction is asymmetric or non-metric, or
    /// when `stored` is structurally inconsistent with the arena.
    pub fn from_stored(
        database: &Database,
        bundle: &PersistedReduction,
        stored: &StoredClustering,
    ) -> Result<Self, QueryError> {
        check_persisted(database, bundle)?;
        let reduced = bundle.reduced().clone();
        let pruning = LbIm::new(pruning_cost_for(&reduced)?);
        let arena: Arc<[Histogram]> = bundle.reduced_database().to_vec().into();
        validate_stored(stored, arena.len())?;
        let members = members_of(&stored.assignments, stored.pivots.len());
        Ok(ClusteredIndex {
            name: index_name(&reduced, pruning.cost(), stored.pivots.len()),
            floor: AnchorFilter::floor(database, &reduced)?,
            reduced,
            pruning,
            reduced_database: arena,
            pivots: stored.pivots.clone(),
            assignments: stored.assignments.clone(),
            radii: stored.radii.clone(),
            members,
        })
    }

    /// The clustering geometry in its storable form (pivots,
    /// assignments, radii), for [`Database::save_with_clusterings`].
    pub fn to_stored(&self) -> StoredClustering {
        StoredClustering {
            pivots: self.pivots.clone(),
            assignments: self.assignments.clone(),
            radii: self.radii.clone(),
        }
    }

    /// Number of clusters (pivots).
    pub fn clusters(&self) -> usize {
        self.pivots.len()
    }

    /// Pivot object ids, in cluster order.
    pub fn pivots(&self) -> &[u32] {
        &self.pivots
    }

    /// Cluster assignment per object id.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Covering radius per cluster (max member distance to the pivot).
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// The reduced EMD the clustering was built under.
    pub fn reduced(&self) -> &ReducedEmd {
        &self.reduced
    }

    /// The cost matrix pruning distances are computed under: the metric
    /// closure of the reduced ground distance (bit-identical to it when
    /// the reduced cost is already a metric).
    pub fn pruning_cost(&self) -> &CostMatrix {
        self.pruning.cost()
    }

    fn assemble(
        database: &Database,
        reduced: ReducedEmd,
        arena: Arc<[Histogram]>,
        factor: f64,
    ) -> Result<Self, QueryError> {
        let pruning = LbIm::new(pruning_cost_for(&reduced)?);
        let n = arena.len();
        if n == 0 {
            return Err(QueryError::EmptyDatabase);
        }
        if !factor.is_finite() || factor <= 0.0 {
            return Err(QueryError::Reduction(format!(
                "cluster factor {factor} must be positive and finite"
            )));
        }
        let target = ((n as f64).sqrt() * factor).ceil() as usize;
        let k = target.clamp(1, n);
        let (pivots, assignments, radii) = greedy_k_center(pruning.cost(), &arena, k)?;
        let members = members_of(&assignments, pivots.len());
        Ok(ClusteredIndex {
            name: index_name(&reduced, pruning.cost(), pivots.len()),
            floor: AnchorFilter::floor(database, &reduced)?,
            reduced,
            pruning,
            reduced_database: arena,
            pivots,
            assignments,
            radii,
            members,
        })
    }
}

impl CandidateSource for ClusteredIndex {
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
    ) -> Result<Box<dyn CandidateStream + '_>, QueryError> {
        // Two evaluators run over the reduced arena under the pruning
        // cost: the LP that is the pruning distance, and the LB_IM that
        // puts it off. The floor runs over the original objects.
        let reduced_query = self.reduced.reduce_first(query)?;
        let arena = &self.reduced_database;
        let cost = self.pruning.cost();
        let floor = self.floor.as_ref().map(|floor| floor.prepared(query));
        let mut stream = ClusterStream {
            index: self,
            budget: budget.clone(),
            deferred: PreparedBound::new(&reduced_query, &self.pruning, arena)?,
            floor: floor.transpose()?,
            solved: PreparedEmd::new(&reduced_query, arena, cost, budget, true)?,
            heap: BinaryHeap::with_capacity(self.pivots.len()),
            emitted: 0,
            visited: 0,
        };
        stream.bound_clusters()?;
        Ok(Box::new(stream))
    }
}

fn index_name(reduced: &ReducedEmd, pruning_cost: &CostMatrix, clusters: usize) -> String {
    let closed = pruning_cost.entries() != reduced.reduced_cost().entries();
    format!(
        "clustered(d'={}, k={}{})",
        reduced.r1().reduced_dim(),
        clusters,
        if closed { ", closed" } else { "" }
    )
}

/// The cost every distance in the index is computed under: the metric
/// closure (all-pairs shortest paths) of the reduced ground distance.
///
/// Triangle pruning needs a metric, but the minima of Definition 5 do
/// not always deliver one. Replacing each entry by its shortest-path
/// distance restores the triangle inequality without breaking the bound
/// chain: closure entries never exceed the originals, so the EMD under
/// the closure lower-bounds the reduced EMD (and hence the exact EMD).
/// Symmetry cannot be repaired the same way, so an asymmetric reduction
/// or reduced cost is still rejected.
fn pruning_cost_for(reduced: &ReducedEmd) -> Result<CostMatrix, QueryError> {
    if reduced.r1().assignment() != reduced.r2().assignment() {
        return Err(QueryError::Reduction(
            "clustered index requires a symmetric reduction (identical query- and \
             database-side assignments); asymmetric reduced distances are not a metric"
                .to_owned(),
        ));
    }
    let cost = reduced.reduced_cost();
    let dim = cost.rows();
    for i in 0..dim {
        if cost.at(i, i).abs() > METRIC_TOL {
            return Err(QueryError::Reduction(format!(
                "reduced cost has non-zero diagonal entry {} at bin {i}; \
                 pruning distances would not vanish on identical operands",
                cost.at(i, i)
            )));
        }
        for j in 0..i {
            if (cost.at(i, j) - cost.at(j, i)).abs() > METRIC_TOL {
                return Err(QueryError::Reduction(format!(
                    "reduced cost is asymmetric at ({i}, {j}); \
                     triangle-inequality pruning would be unsound"
                )));
            }
        }
    }
    let mut entries = cost.entries().to_vec();
    // Floyd-Warshall over the complete graph on reduced bins. The loop
    // order is fixed, so the closure is deterministic and reopen paths
    // rebuild bit-identical pruning distances.
    for k in 0..dim {
        for i in 0..dim {
            let through = entries.get(i * dim + k).copied().unwrap_or(f64::INFINITY);
            for j in 0..dim {
                let candidate =
                    through + entries.get(k * dim + j).copied().unwrap_or(f64::INFINITY);
                if let Some(entry) = entries.get_mut(i * dim + j) {
                    if candidate < *entry {
                        *entry = candidate;
                    }
                }
            }
        }
    }
    let closure = CostMatrix::new(dim, dim, entries)?;
    debug_assert!(
        closure.is_metric(METRIC_TOL),
        "shortest-path closure of a symmetric zero-diagonal cost is a metric"
    );
    Ok(closure)
}

/// Structural validation of an externally supplied stored clustering
/// (the store codec performs the same checks on decode; `StoredClustering`
/// has public fields, so revalidate before trusting the geometry).
fn validate_stored(stored: &StoredClustering, objects: usize) -> Result<(), QueryError> {
    let clusters = stored.pivots.len();
    if stored.assignments.len() != objects {
        return Err(QueryError::Reduction(format!(
            "clustering assigns {} objects, arena holds {objects}",
            stored.assignments.len()
        )));
    }
    if stored.radii.len() != clusters {
        return Err(QueryError::Reduction(format!(
            "clustering has {clusters} pivots but {} radii",
            stored.radii.len()
        )));
    }
    if objects > 0 && (clusters == 0 || clusters > objects) {
        return Err(QueryError::Reduction(format!(
            "clustering has {clusters} clusters for {objects} objects"
        )));
    }
    for (cluster, &pivot) in stored.pivots.iter().enumerate() {
        let owner = stored.assignments.get(pivot as usize).copied();
        if owner != Some(cluster as u32) {
            return Err(QueryError::Reduction(format!(
                "pivot {pivot} of cluster {cluster} is not assigned to its own cluster"
            )));
        }
    }
    for (id, &a) in stored.assignments.iter().enumerate() {
        if a as usize >= clusters {
            return Err(QueryError::Reduction(format!(
                "object {id} assigned to cluster {a} of {clusters}"
            )));
        }
    }
    for (cluster, &radius) in stored.radii.iter().enumerate() {
        if !radius.is_finite() || radius < 0.0 {
            return Err(QueryError::Reduction(format!(
                "cluster {cluster} has invalid radius {radius}"
            )));
        }
    }
    Ok(())
}

/// Pivot ids, per-object cluster assignments, and covering radii — the
/// geometry triple greedy k-center produces and the store persists.
type ClusterGeometry = (Vec<u32>, Vec<u32>, Vec<f64>);

/// Greedy k-center (Gonzalez): `pivots`, `assignments`, covering
/// `radii`. Deterministic — the first pivot is object 0 and ties go to
/// the smallest id.
fn greedy_k_center(
    cost: &CostMatrix,
    arena: &[Histogram],
    k: usize,
) -> Result<ClusterGeometry, QueryError> {
    let budget = Budget::unlimited();
    let mut context = EmdContext::new();
    let n = arena.len();
    let Some(first) = arena.first() else {
        return Err(QueryError::EmptyDatabase);
    };
    // d_near[o] = distance of o to its nearest chosen pivot.
    let mut d_near: Vec<f64> = Vec::with_capacity(n);
    for h in arena {
        d_near.push(emd_in_context(first, h, cost, &budget, &mut context)?);
    }
    let mut assignments: Vec<u32> = vec![0; n];
    let mut pivots: Vec<u32> = vec![0];
    while pivots.len() < k {
        // Next pivot: the object farthest from all chosen pivots.
        let mut next = 0usize;
        let mut farthest = f64::NEG_INFINITY;
        for (id, &d) in d_near.iter().enumerate() {
            if d > farthest {
                farthest = d;
                next = id;
            }
        }
        if farthest <= 0.0 {
            // Every object coincides with a pivot; more clusters would
            // only produce empty ones.
            break;
        }
        let next_h = arena.get(next).ok_or(QueryError::UnknownObject(next))?;
        // Pivot-to-pivot distances feed the triangle shortcut below.
        let mut pivot_distances: Vec<f64> = Vec::with_capacity(pivots.len());
        for &p in &pivots {
            let ph = arena
                .get(p as usize)
                .ok_or(QueryError::UnknownObject(p as usize))?;
            pivot_distances.push(emd_in_context(next_h, ph, cost, &budget, &mut context)?);
        }
        let t = pivots.len() as u32;
        for ((h, a), dn) in arena
            .iter()
            .zip(assignments.iter_mut())
            .zip(d_near.iter_mut())
        {
            // d(new, o) >= d(new, old pivot) - d(o, old pivot) >= d(o, old
            // pivot) when the pivot gap is at least twice d_near: the new
            // pivot cannot steal o, skip the solve.
            let gap = pivot_distances
                .get(*a as usize)
                .copied()
                .unwrap_or(f64::NEG_INFINITY);
            if gap >= 2.0 * *dn {
                continue;
            }
            let d = emd_in_context(next_h, h, cost, &budget, &mut context)?;
            if d < *dn {
                *dn = d;
                *a = t;
            }
        }
        pivots.push(next as u32);
    }
    let mut radii = vec![0.0f64; pivots.len()];
    for (a, dn) in assignments.iter().zip(d_near.iter()) {
        if let Some(r) = radii.get_mut(*a as usize) {
            if *dn > *r {
                *r = *dn;
            }
        }
    }
    Ok((pivots, assignments, radii))
}

/// Group object ids by cluster (ascending within each cluster).
fn members_of(assignments: &[u32], clusters: usize) -> Vec<Vec<u32>> {
    let mut members = vec![Vec::new(); clusters];
    for (id, &a) in assignments.iter().enumerate() {
        if let Some(list) = members.get_mut(a as usize) {
            list.push(id as u32);
        }
    }
    members
}

/// Per-query traversal state: a best-first heap over deferred and real
/// cluster bounds, deferred member bounds and evaluated member distances
/// (the module docs tabulate the four kinds).
///
/// Soundness of the emission order: every object not yet emitted is
/// covered by exactly one entry whose key lower-bounds its distance — its
/// own (lazy) member entry, or its cluster's (lazy) entry. When a member
/// entry `(d, id)` is at the top, every other kind of entry with key
/// `<= d` has already been popped and resolved (they order first on
/// ties), so every member at distance `<= d` is already in the heap as a
/// member and the pop order is globally ascending `(distance, id)`,
/// exactly like a materialized scan.
struct ClusterStream<'a> {
    index: &'a ClusteredIndex,
    budget: Budget,
    /// LB_IM under the pruning cost: the key of every lazy entry pushed.
    deferred: PreparedBound<'a, LbIm>,
    /// The anchor bound under the database's own cost, raising every
    /// member key it exceeds.
    floor: Option<PreparedBound<'a, AnchorBound>>,
    /// The pruning distance, one LP under the stream's budget: every
    /// solve is the pop of a lazy entry.
    solved: PreparedEmd<'a>,
    heap: BinaryHeap<Reverse<(Key, u8, u32)>>,
    emitted: usize,
    visited: usize,
}

impl ClusterStream<'_> {
    /// Bound every cluster by LB_IM of its pivot: one lazy cluster entry
    /// each, no LP.
    fn bound_clusters(&mut self) -> Result<(), QueryError> {
        let index = self.index;
        for (cluster, (&pivot, &radius)) in index.pivots.iter().zip(&index.radii).enumerate() {
            let bound = (self.deferred.distance(pivot as usize)? - radius).max(0.0);
            self.heap
                .push(Reverse((Key(bound), ENTRY_LAZY_CLUSTER, cluster as u32)));
        }
        Ok(())
    }

    /// `key` or the anchor bound of object `id`, whichever is larger: the
    /// running max that keeps a member's key the tightest bound known.
    fn floored(&mut self, id: u32, key: f64) -> Result<f64, QueryError> {
        match &mut self.floor {
            Some(floor) => Ok(floor.distance(id as usize)?.max(key)),
            None => Ok(key),
        }
    }

    /// Open the cluster whose entry is at the top of the heap: a lazy
    /// member entry for every member except the pivot, which rides its own
    /// member entry since the cluster was solved. Past the leading probe
    /// nothing here can exhaust a budget, so the entry is popped only
    /// then — and before the pushes, whose keys may sort below it.
    fn expand(&mut self, cluster: u32) -> Result<(), QueryError> {
        self.budget.check().map_err(QueryError::BudgetExhausted)?;
        self.heap.pop();
        self.visited += 1;
        let index = self.index;
        let pivot = index.pivots.get(cluster as usize).copied();
        let members = index.members.get(cluster as usize);
        for &m in members.into_iter().flatten() {
            if Some(m) != pivot {
                let bound = self.deferred.distance(m as usize)?;
                let bound = self.floored(m, bound)?;
                self.heap.push(Reverse((Key(bound), ENTRY_LAZY_MEMBER, m)));
            }
        }
        Ok(())
    }
}

impl Ranking for ClusterStream<'_> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
        let index = self.index;
        // Peek, resolve, then pop: an entry whose resolution fails (a
        // budget firing) stays in the heap for `drain_computed`.
        while let Some(&Reverse((Key(key), kind, id))) = self.heap.peek() {
            match kind {
                ENTRY_LAZY_CLUSTER => {
                    let cluster = id as usize;
                    let geometry = index.pivots.get(cluster).zip(index.radii.get(cluster));
                    let (&pivot, &radius) = geometry.ok_or(QueryError::UnknownObject(cluster))?;
                    let d = self.solved.distance(pivot as usize)?;
                    let bound = (d - radius).max(0.0);
                    // Wherever the deferred bound is positive this is
                    // `LB_IM(q, pivot) <= d` with the radius taken off
                    // both sides.
                    debug_check_lower_bound("deferred cluster bound", key, bound);
                    let member = self.floored(pivot, d)?;
                    self.heap.pop();
                    self.heap.push(Reverse((Key(bound), ENTRY_CLUSTER, id)));
                    self.heap.push(Reverse((Key(member), ENTRY_MEMBER, pivot)));
                }
                ENTRY_CLUSTER => self.expand(id)?,
                ENTRY_LAZY_MEMBER => {
                    let d = self.solved.distance(id as usize)?;
                    let member = self.floored(id, d)?;
                    // `LB_IM <= d` under the same anchor term: a deferred
                    // key never exceeds its solved twin's.
                    debug_check_lower_bound("deferred member bound", key, member);
                    self.heap.pop();
                    self.heap.push(Reverse((Key(member), ENTRY_MEMBER, id)));
                }
                // ENTRY_MEMBER: everything at or below it is resolved.
                _ => {
                    self.heap.pop();
                    self.emitted += 1;
                    return Ok(Some((id as usize, key)));
                }
            }
        }
        Ok(None)
    }

    fn drain_computed(&mut self) -> Vec<(usize, f64)> {
        let index = self.index;
        let mut out = Vec::new();
        for Reverse((Key(key), kind, id)) in self.heap.drain() {
            if kind == ENTRY_LAZY_MEMBER || kind == ENTRY_MEMBER {
                out.push((id as usize, key));
                continue;
            }
            // An unopened cluster's bound covers all its members, for
            // free. Once the cluster is solved its pivot rides a member
            // entry of its own; while it is lazy the pivot has none.
            let own_entry = (kind == ENTRY_CLUSTER)
                .then(|| index.pivots.get(id as usize).copied())
                .flatten();
            let members = index.members.get(id as usize);
            for &m in members.into_iter().flatten() {
                if Some(m) != own_entry {
                    out.push((m as usize, key));
                }
            }
        }
        out
    }
}

impl CandidateStream for ClusterStream<'_> {
    fn evaluations(&self) -> usize {
        self.solved.evaluations()
    }
}

impl Drop for ClusterStream<'_> {
    fn drop(&mut self) {
        let total = self.index.pivots.len();
        emd_obs::counter_add("index.clusters_visited", self.visited as u64);
        emd_obs::counter_add(
            "index.clusters_pruned",
            total.saturating_sub(self.visited) as u64,
        );
        emd_obs::counter_add("index.candidates_emitted", self.emitted as u64);
        emd_obs::counter_add("index.deferred_bounds", self.deferred.evaluations() as u64);
        emd_obs::counter_add("index.deferred_solved", self.solved.evaluations() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;
    use emd_reduction::CombiningReduction;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_database(n: usize, dim: usize, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let histograms = (0..n)
            .map(|_| {
                let bins: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                Histogram::normalized(bins).unwrap()
            })
            .collect();
        // Saturated chain: min-reduction over contiguous blocks keeps the
        // reduced costs in {0, 1, 2}, which satisfies the triangle
        // inequality (an unsaturated chain would not — blocks two hops
        // apart sit at ground distance 3 > 1 + 1).
        let cost = ground::saturated(&ground::linear(dim).unwrap(), 2.0).unwrap();
        Database::new(histograms, Arc::new(cost)).unwrap()
    }

    fn reduction(dim: usize, reduced_dim: usize) -> CombiningReduction {
        let assignment: Vec<usize> = (0..dim).map(|i| i * reduced_dim / dim).collect();
        CombiningReduction::new(assignment, reduced_dim).unwrap()
    }

    fn index_over(database: &Database, reduced_dim: usize, factor: f64) -> ClusteredIndex {
        let reduced =
            ReducedEmd::new(database.cost_arc(), reduction(database.dim(), reduced_dim)).unwrap();
        ClusteredIndex::build(database, reduced, factor).unwrap()
    }

    /// Reference order: the pruning distance of every object or, where
    /// it is larger, the object's anchor bound — ascending (key, id).
    fn scan_order(index: &ClusteredIndex, query: &Histogram) -> Vec<(usize, f64)> {
        let reduced_query = index.reduced.reduce_first(query).unwrap();
        let budget = Budget::unlimited();
        let mut context = EmdContext::new();
        let mut floor = index.floor.as_ref().map(|f| f.prepared(query).unwrap());
        let mut order: Vec<(usize, f64)> = index
            .reduced_database
            .iter()
            .enumerate()
            .map(|(id, h)| {
                let d = emd_in_context(
                    &reduced_query,
                    h,
                    index.pruning_cost(),
                    &budget,
                    &mut context,
                )
                .unwrap();
                let anchor = floor.as_mut().map_or(0.0, |f| f.distance(id).unwrap());
                (id, d.max(anchor))
            })
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        order
    }

    #[test]
    fn structure_is_a_valid_partition() {
        let database = random_database(60, 8, 11);
        let index = index_over(&database, 4, 1.0);
        assert!(index.clusters() >= 1 && index.clusters() <= 60);
        assert_eq!(index.assignments().len(), 60);
        assert_eq!(index.radii().len(), index.clusters());
        // Pivots belong to their own clusters; members cover 0..n once.
        for (cluster, &pivot) in index.pivots().iter().enumerate() {
            assert_eq!(index.assignments()[pivot as usize] as usize, cluster);
        }
        let mut seen: Vec<u32> = index.members.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..60).collect::<Vec<u32>>());
        // Radii cover: every member within its cluster's radius.
        let budget = Budget::unlimited();
        let mut context = EmdContext::new();
        for (id, &a) in index.assignments().iter().enumerate() {
            let pivot = index.pivots()[a as usize] as usize;
            let d = index
                .reduced
                .distance_reduced_in_context(
                    &index.reduced_database[id],
                    &index.reduced_database[pivot],
                    &budget,
                    &mut context,
                )
                .unwrap();
            assert!(
                d <= index.radii()[a as usize] + 1e-9,
                "object {id}: {d} > radius {}",
                index.radii()[a as usize]
            );
        }
    }

    #[test]
    fn stream_emits_full_scan_order() {
        let database = random_database(50, 8, 7);
        let index = index_over(&database, 4, 1.0);
        let queries = [
            Histogram::unit(8, 0).unwrap(),
            Histogram::unit(8, 5).unwrap(),
        ];
        for query in &queries {
            let expected = scan_order(&index, query);
            let mut stream = index.prepare(query, &Budget::unlimited()).unwrap();
            let mut got = Vec::new();
            while let Some(item) = stream.next().unwrap() {
                got.push(item);
            }
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(expected.iter()) {
                assert_eq!(g.0, e.0);
                assert_eq!(g.1.to_bits(), e.1.to_bits(), "object {}", g.0);
            }
        }
    }

    /// Tight, well-separated groups around three distant chain bins.
    fn separated_database(seed: u64) -> Database {
        let mut histograms = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for center in [1usize, 8, 15] {
            for _ in 0..20 {
                let mut bins = vec![0.0005; 18];
                bins[center] += 0.9 + rng.gen_range(0.0..0.05);
                histograms.push(Histogram::normalized(bins).unwrap());
            }
        }
        let cost = ground::saturated(&ground::linear(18).unwrap(), 2.0).unwrap();
        Database::new(histograms, Arc::new(cost)).unwrap()
    }

    #[test]
    fn early_stop_evaluates_fewer_objects_on_clustered_data() {
        // Pulling only the first few candidates must not bound-expand
        // every cluster.
        let database = separated_database(13);
        let index = index_over(&database, 6, 1.0);
        let query = database.get(0).unwrap().clone();
        let mut stream = index.prepare(&query, &Budget::unlimited()).unwrap();
        for _ in 0..5 {
            stream.next().unwrap().unwrap();
        }
        assert!(
            stream.evaluations() < database.len(),
            "expected pruning: {} evaluations for {} objects",
            stream.evaluations(),
            database.len()
        );
    }

    /// `(emitted, drained, fired)`.
    type Pulled = (Vec<(usize, f64)>, Vec<(usize, f64)>, bool);

    /// Pull `stream` until it ends or its budget fires, then drain it.
    fn pull_and_drain(stream: &mut dyn CandidateStream) -> Pulled {
        let mut emitted = Vec::new();
        let fired = loop {
            match stream.next() {
                Ok(Some(item)) => emitted.push(item),
                Ok(None) => break false,
                Err(QueryError::BudgetExhausted(_)) => break true,
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        (emitted, stream.drain_computed(), fired)
    }

    /// Emitted and drained together name every object exactly once, the
    /// emitted prefix is the scan's, and every drained bound lower-bounds
    /// the object's scan key.
    fn assert_nothing_lost(index: &ClusteredIndex, query: &Histogram, pulled: &Pulled) {
        let (emitted, drained, _) = pulled;
        let scan = scan_order(index, query);
        let mut ids: Vec<usize> = emitted.iter().chain(drained).map(|&(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..index.len()).collect::<Vec<_>>());
        for (got, expected) in emitted.iter().zip(&scan) {
            assert_eq!((got.0, got.1.to_bits()), (expected.0, expected.1.to_bits()));
        }
        for &(id, bound) in drained {
            let (_, distance) = scan.iter().find(|(scanned, _)| *scanned == id).unwrap();
            assert!(
                bound >= 0.0 && bound <= distance + 1e-9,
                "object {id}: drained bound {bound} above its distance {distance}"
            );
        }
    }

    #[test]
    fn budget_firing_surfaces_with_computed_bounds() {
        // Well-separated data keeps distant clusters unexpanded after the
        // first pull, so solves remain for the exhausted pool to fail.
        let database = separated_database(19);
        let index = index_over(&database, 6, 1.0);
        let query = database.get(0).unwrap().clone();
        // The pool is shared across clones: let the stream solve its way
        // to a first candidate under a generous cap, then exhaust the pool
        // from the outside so the next solve must surface the firing.
        let budget = Budget::unlimited().with_pivot_cap(1_000_000);
        let mut stream = index.prepare(&query, &budget).unwrap();
        let first = stream.next().unwrap().unwrap();
        budget.settle_pivots(1_000_000);
        // Already-solved members may still emit for free, but resolving
        // any deferred entry needs a solve, which must fire.
        let (mut emitted, drained, fired) = pull_and_drain(stream.as_mut());
        assert!(fired, "an exhausted pivot pool must fire before completion");
        emitted.insert(0, first);
        // The interrupted entry is still there: nothing is lost.
        assert_nothing_lost(&index, &query, &(emitted, drained, fired));
    }

    #[test]
    fn nothing_is_lost_at_any_pivot_cap() {
        // Every way a cap can fire — inside a pivot solve, inside a member
        // solve, at the probe that opens a cluster — leaves the entry it
        // interrupted in the heap.
        let database = random_database(40, 8, 31);
        let index = index_over(&database, 4, 1.0);
        let query = Histogram::normalized(vec![0.3, 0.1, 0.1, 0.05, 0.05, 0.1, 0.1, 0.2]).unwrap();
        let mut degraded = 0;
        for cap in 0.. {
            let budget = Budget::unlimited().with_pivot_cap(cap);
            let mut stream = index.prepare(&query, &budget).unwrap();
            let pulled = pull_and_drain(stream.as_mut());
            assert_nothing_lost(&index, &query, &pulled);
            if !pulled.2 {
                assert_eq!(pulled.0.len(), 40, "an unfired stream emits everything");
                break;
            }
            degraded += 1;
        }
        assert!(
            degraded > 10,
            "only {degraded} caps fired: the sweep is vacuous"
        );
    }

    #[test]
    fn expired_budget_still_surrenders_every_cluster_bound() {
        // Bounding runs no LP and probes no budget: a stream that cannot
        // solve anything still covers every object with a valid bound.
        let database = separated_database(23);
        let index = index_over(&database, 6, 1.0);
        let query = database.get(30).unwrap().clone();
        let budget = Budget::unlimited().with_pivot_cap(0);
        budget.settle_pivots(1);
        let mut stream = index.prepare(&query, &budget).unwrap();
        let pulled = pull_and_drain(stream.as_mut());
        assert!(pulled.2 && pulled.0.is_empty());
        assert_eq!(stream.evaluations(), 0);
        assert_nothing_lost(&index, &query, &pulled);
    }

    #[test]
    fn duplicates_and_exact_ties_emit_in_scan_order() {
        // Dyadic masses under an integer cost: every distance and every
        // LB_IM is exact, duplicates give zero radii, and many keys of
        // different kinds coincide — the case the kind order decides.
        let shapes = [
            vec![0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.25, 0.25],
            vec![0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
        ];
        let histograms = (0..30)
            .map(|i| Histogram::new(shapes[(i * 7) % shapes.len()].clone()).unwrap())
            .collect();
        let cost = ground::saturated(&ground::linear(8).unwrap(), 2.0).unwrap();
        let database = Database::new(histograms, Arc::new(cost)).unwrap();
        for factor in [0.5, 1.0, 3.0] {
            let index = index_over(&database, 4, factor);
            assert!(index.radii().contains(&0.0));
            for shape in &shapes {
                let query = Histogram::new(shape.clone()).unwrap();
                let mut stream = index.prepare(&query, &Budget::unlimited()).unwrap();
                let pulled = pull_and_drain(stream.as_mut());
                assert_eq!(pulled.0.len(), 30);
                assert_nothing_lost(&index, &query, &pulled);
            }
        }
    }

    #[test]
    fn deferral_counters_say_what_the_pre_filter_saved() {
        let database = separated_database(13);
        let index = index_over(&database, 6, 1.0);
        let query = database.get(0).unwrap().clone();
        let recording = emd_obs::Recording::start();
        let mut stream = index.prepare(&query, &Budget::unlimited()).unwrap();
        for _ in 0..5 {
            stream.next().unwrap().unwrap();
        }
        let solves = stream.evaluations() as u64;
        drop(stream);
        let registry = recording.finish();
        // Every solve resolved a deferred entry; every deferred entry cost
        // one LB_IM evaluation; far from every one had to be solved.
        assert_eq!(registry.counter("index.deferred_solved"), solves);
        assert_eq!(registry.counter("core.emd.solves"), solves);
        let deferred = registry.counter("index.deferred_bounds");
        assert_eq!(registry.counter("core.lb_im.evaluations"), deferred);
        assert!(
            solves < deferred && deferred <= 60,
            "{solves} of {deferred}"
        );
    }

    #[test]
    fn rejects_asymmetric_and_non_metric_reductions() {
        let database = random_database(10, 8, 3);
        let r1 = reduction(8, 4);
        let r2 = reduction(8, 2);
        let reduced = ReducedEmd::with_asymmetric(database.cost_arc(), r1, r2).unwrap();
        assert!(matches!(
            ClusteredIndex::build(&database, reduced, 1.0),
            Err(QueryError::Reduction(_))
        ));
    }

    #[test]
    fn non_metric_reduced_cost_is_closed_not_rejected() {
        // An unsaturated chain merged into thirds puts the outer blocks
        // at ground distance 4 with two 1-hops between them: not a
        // metric. The index repairs it with the shortest-path closure
        // instead of rejecting.
        let mut rng = StdRng::seed_from_u64(5);
        let histograms = (0..20)
            .map(|_| {
                let bins: Vec<f64> = (0..9).map(|_| rng.gen_range(0.0..1.0)).collect();
                Histogram::normalized(bins).unwrap()
            })
            .collect();
        let database = Database::new(histograms, Arc::new(ground::linear(9).unwrap())).unwrap();
        let reduced = ReducedEmd::new(database.cost_arc(), reduction(9, 3)).unwrap();
        assert!(!reduced.reduced_cost().is_metric(1e-9));

        let index = ClusteredIndex::build(&database, reduced, 1.0).unwrap();
        assert!(index.name().contains("closed"));
        assert!(index.pruning_cost().is_metric(1e-9));
        // The closure only lowers entries, preserving the bound chain.
        for (c, o) in index
            .pruning_cost()
            .entries()
            .iter()
            .zip(index.reduced().reduced_cost().entries())
        {
            assert!(c <= o);
        }
        // Emission is still bit-identical to a scan under the closure
        // (floored by the anchor bound: the 9-bin chain itself is a metric).
        let query = Histogram::unit(9, 4).unwrap();
        let expected = scan_order(&index, &query);
        let mut stream = index.prepare(&query, &Budget::unlimited()).unwrap();
        for e in &expected {
            let got = stream.next().unwrap().unwrap();
            assert_eq!(got.0, e.0);
            assert_eq!(got.1.to_bits(), e.1.to_bits());
        }
        assert!(stream.next().unwrap().is_none());
    }

    #[test]
    fn rejects_bad_factors_and_empty_databases() {
        let database = random_database(10, 8, 3);
        let reduced = ReducedEmd::new(database.cost_arc(), reduction(8, 4)).unwrap();
        for factor in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(ClusteredIndex::build(&database, reduced.clone(), factor).is_err());
        }
        let empty = Database::new(Vec::new(), database.cost_arc().clone()).unwrap();
        assert!(matches!(
            ClusteredIndex::build(&empty, reduced, 1.0),
            Err(QueryError::EmptyDatabase)
        ));
    }

    #[test]
    fn stored_roundtrip_rebuilds_identical_geometry() {
        let database = random_database(40, 8, 23);
        let reduced = ReducedEmd::new(database.cost_arc(), reduction(8, 4)).unwrap();
        let bundle =
            PersistedReduction::precompute("kmed:4", reduced, database.histograms()).unwrap();
        let index = ClusteredIndex::from_persisted(&database, &bundle, 1.0).unwrap();
        let stored = index.to_stored();
        let reopened = ClusteredIndex::from_stored(&database, &bundle, &stored).unwrap();
        assert_eq!(reopened.pivots(), index.pivots());
        assert_eq!(reopened.assignments(), index.assignments());
        assert_eq!(reopened.radii().len(), index.radii().len());
        for (a, b) in reopened.radii().iter().zip(index.radii().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And it queries identically.
        let query = Histogram::unit(8, 1).unwrap();
        let mut s1 = index.prepare(&query, &Budget::unlimited()).unwrap();
        let mut s2 = reopened.prepare(&query, &Budget::unlimited()).unwrap();
        loop {
            let (a, b) = (s1.next().unwrap(), s2.next().unwrap());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn from_stored_rejects_tampered_geometry() {
        let database = random_database(20, 8, 29);
        let reduced = ReducedEmd::new(database.cost_arc(), reduction(8, 4)).unwrap();
        let bundle =
            PersistedReduction::precompute("kmed:4", reduced, database.histograms()).unwrap();
        let index = ClusteredIndex::from_persisted(&database, &bundle, 1.0).unwrap();
        let good = index.to_stored();

        let mut wrong_count = good.clone();
        wrong_count.assignments.pop();
        assert!(ClusteredIndex::from_stored(&database, &bundle, &wrong_count).is_err());

        let mut foreign_pivot = good.clone();
        if let Some(p) = foreign_pivot.pivots.first_mut() {
            *p = 19;
        }
        // Either the pivot now collides with another cluster's member or
        // its self-assignment breaks; both must be rejected unless object
        // 19 already was pivot 0's member assigned to cluster 0.
        if foreign_pivot.assignments[19] != 0 {
            assert!(ClusteredIndex::from_stored(&database, &bundle, &foreign_pivot).is_err());
        }

        let mut bad_radius = good;
        if let Some(r) = bad_radius.radii.first_mut() {
            *r = f64::NAN;
        }
        assert!(ClusteredIndex::from_stored(&database, &bundle, &bad_radius).is_err());
    }
}
