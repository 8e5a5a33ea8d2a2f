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
//! ground distance 3 with two 1-hops between them), so the *geometry* —
//! construction distances, covering radii and the pivot keys at query
//! time — is computed over the **metric closure** of the reduced cost:
//! every entry replaced by its all-pairs shortest-path distance. The
//! closure only lowers entries, so `EMD_closure <= Red-EMD <= EMD` keeps
//! the bound chain intact, and shortest-path distances satisfy the
//! triangle inequality by construction. When the reduced cost is already
//! a metric the closure is bit-identical to it and nothing changes.
//!
//! Construction is greedy k-center (minimum-maximum, Gonzalez): pick the
//! object farthest from all chosen pivots as the next pivot, `~sqrt(n) ·
//! factor` times. A triangle shortcut (`d(new pivot, old pivot) >= 2 ·
//! d(o, old pivot)` implies the new pivot cannot steal `o`) keeps
//! construction well below the naive `k·n` distances on clustered data.
//! When the closure is a path ([`PathMetric`]) every distance is the
//! closed form over the CDFs; otherwise a solve the shortcut leaves stops
//! at the first proof ([`Bounded::Above`]) that the new pivot is no
//! nearer than `o`'s nearest pivot so far.
//!
//! At query time [`ClusteredIndex`] is a [`CandidateSource`] in two
//! layers. The **traversal** only decides which objects stage 1 emits,
//! and does so with two kinds of entry:
//!
//! | kind | key | on pop |
//! |---|---|---|
//! | *cluster* | `max(0, LB_IM_closure(q, pivot) - radius)` | probe the budget; its members follow |
//! | *member* | its cluster's key | emit `(o, key)` |
//!
//! LB_IM over the closure lower-bounds the closure's EMD, so a cluster's
//! key bounds every member (`d(q, pivot) - radius <= d(q, o)` for `d` =
//! `EMD_closure`) and hence the exact EMD. The traversal solves no LP and
//! evaluates no per-member bound: one LB_IM per pivot when the query is
//! prepared, nothing after. An opened cluster's key is the smallest left,
//! so its members leave at it and emission is ascending.
//!
//! **On top** the index stacks the stages of
//! [`QueryPlan::chain`](crate::QueryPlan::chain) — `anchor -> red-im ->
//! red-emd` over the arena of the [`PersistedReduction`] it is built or
//! opened from, assembled by the one call `QueryPlan::chain` makes —
//! under the executor's [`ChainedRanking`], which keys every candidate by
//! the running max of what is known of it. A cluster's key never exceeds
//! Red-EMD, so that max is the chain's `max(anchor, Red-IM, Red-EMD)` and
//! KNOP refines exactly what `QueryPlan::chain` refines; what the index
//! changes is how many of the chain's bounds run. A cluster whose key
//! exceeds KNOP's stopping frontier is never opened: that is the
//! sublinear win the benchmark's `gauss32-clustered-20k` workload
//! measures (`cluster.visited_per_query` / `cluster.pruned_per_query`;
//! `index.candidates_emitted` counts what the chain hands KNOP).
//!
//! The clustering persists in the sealed segment ([`ClusteredIndex::to_stored`]
//! / [`ClusteredIndex::from_stored`]) so `ingest --cluster` pays
//! construction once. Budgets propagate: the traversal probes before it
//! opens a cluster and the Red-EMD stage inside every solve. A firing
//! surfaces as [`QueryError::BudgetExhausted`] with the interrupted entry
//! left in place, so the degraded answer is surrendered *every* object
//! not yet emitted — by [`ChainedRanking`]'s drain over the traversal's,
//! which gives an unopened cluster's key to all of its members.

use crate::durable::StoredClustering;
use crate::engine::source::{CandidateSource, CandidateStream};
use crate::engine::Database;
use crate::error::QueryError;
use crate::filters::{reduce, Chain, ChainState, Filter, PreparedBound, PreparedFilter};
use crate::ranking::{ChainedRanking, Key, Ranking};
use emd_core::lower_bounds::LbIm;
use emd_core::{emd_in_context_within, Bounded, Budget};
use emd_core::{CostMatrix, EmdContext, Histogram, PathMetric};
use emd_reduction::{PersistedReduction, ReducedEmd};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

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
pub struct ClusteredIndex {
    name: String,
    reduced: Arc<ReducedEmd>,
    /// LB_IM over the metric closure of the reduced ground distance —
    /// [`LbIm::cost`] is the cost of every construction distance and the
    /// bound that keys the clusters at query time.
    pruning: LbIm,
    /// The reduced arena, by object id: the handle its Red-IM and Red-EMD
    /// stages hold, from which the pivot keys read the pivots.
    arena: Arc<[Histogram]>,
    /// The stages of [`QueryPlan::chain`](crate::QueryPlan::chain) over
    /// this index's reduced arena, ending in the Red-EMD stage. The anchor
    /// projections are derived on every build and open, never stored.
    stages: Vec<Box<dyn Filter>>,
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
    /// finite, when the reduction is asymmetric, or when the metric
    /// closure of the reduced ground distance is no metric (triangle
    /// pruning would be unsound), and any solver error from the
    /// construction distances.
    pub fn build(
        database: &Database,
        reduced: ReducedEmd,
        factor: f64,
    ) -> Result<Self, QueryError> {
        Self::from_persisted(database, &reduce(database, reduced)?, factor)
    }

    /// Build the clustering over a bundle's precomputed reduced arena
    /// (no re-reduction) — the `ingest --cluster` path.
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
        Self::assemble(ChainState::persisted(database, bundle)?, factor)
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
        let chain = ChainState::persisted(database, bundle)?;
        let (reduced, arena, _) = &chain;
        let pruning = LbIm::new(pruning_cost_for(reduced)?);
        if let Some(reason) = stored.defect(arena.len()) {
            return Err(QueryError::Reduction(reason));
        }
        let geometry = (
            stored.pivots.clone(),
            stored.assignments.clone(),
            stored.radii.clone(),
        );
        Ok(Self::over(chain, pruning, geometry))
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

    fn assemble(chain: Chain, factor: f64) -> Result<Self, QueryError> {
        let (reduced, arena, _) = &chain;
        let pruning = LbIm::new(pruning_cost_for(reduced)?);
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
        let geometry = greedy_k_center(pruning.cost(), arena, k)?;
        Ok(Self::over(chain, pruning, geometry))
    }

    /// The index of `geometry` over the chain's arena, with its stages.
    fn over(
        (reduced, arena, stages): Chain,
        pruning: LbIm,
        (pivots, assignments, radii): ClusterGeometry,
    ) -> Self {
        ClusteredIndex {
            name: index_name(&reduced, pruning.cost(), pivots.len()),
            stages,
            members: members_of(&assignments, pivots.len()),
            arena,
            reduced,
            pruning,
            pivots,
            assignments,
            radii,
        }
    }
}

impl CandidateSource for ClusteredIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.assignments.len()
    }

    fn prepare(
        &self,
        query: &Histogram,
        budget: &Budget,
    ) -> Result<Box<dyn CandidateStream + '_>, QueryError> {
        // Key every cluster by LB_IM of its pivot under the closure: the
        // only bounds the traversal computes.
        let reduced_query = self.reduced.reduce_first(query)?;
        let mut pivot_bound = PreparedBound::new(&reduced_query, &self.pruning, &self.arena)?;
        let mut clusters = BinaryHeap::with_capacity(self.pivots.len());
        let pivots = self.pivots.iter().zip(&self.radii);
        for (cluster, (&pivot, &radius)) in pivots.enumerate() {
            let key = (pivot_bound.distance(pivot as usize)? - radius).max(0.0);
            clusters.push(Reverse((Key(key), cluster as u32)));
        }
        let mut ranking: Box<dyn Ranking + '_> = Box::new(ClusterStream {
            index: self,
            budget: budget.clone(),
            clusters,
            open: (0.0, &[]),
            visited: 0,
        });
        // The chain on top; its last stage is Red-EMD, whose solves are
        // the stream's evaluations.
        let stages = self.stages.split_last();
        let (red_emd, below) =
            stages.ok_or_else(|| QueryError::Reduction("an index without stages".to_owned()))?;
        for stage in below {
            ranking = Box::new(ChainedRanking::new(ranking, stage.prepare(query, budget)?));
        }
        Ok(Box::new(IndexStream {
            chain: ChainedRanking::new(ranking, red_emd.prepare(query, budget)?),
            emitted: 0,
        }))
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
/// A non-zero diagonal or an asymmetry the closure keeps cannot be
/// repaired the same way: the closure must pass
/// [`CostMatrix::is_metric`], the one metric test, and an asymmetric
/// reduction is rejected before it is built.
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
    if !closure.is_metric() {
        return Err(QueryError::Reduction(
            "the metric closure of the reduced cost is no metric (a non-zero diagonal \
             or an asymmetry); triangle-inequality pruning would be unsound"
                .to_owned(),
        ));
    }
    Ok(closure)
}

/// Pivot ids, per-object cluster assignments, and covering radii — the
/// geometry triple greedy k-center produces and the store persists.
type ClusterGeometry = (Vec<u32>, Vec<u32>, Vec<f64>);

/// Greedy k-center (Gonzalez): `pivots`, `assignments`, covering
/// `radii`. Deterministic — the first pivot is object 0 and ties go to
/// the smallest id. On a path `cost` every distance is the closed form;
/// otherwise a warm LP that may stop at a bound above its cutoff.
fn greedy_k_center(
    cost: &CostMatrix,
    arena: &[Histogram],
    k: usize,
) -> Result<ClusterGeometry, QueryError> {
    let budget = Budget::unlimited();
    let path = PathMetric::of(cost);
    let mut context = EmdContext::new();
    let mut distance = |x: &Histogram, y: &Histogram, cutoff: f64| -> Result<_, QueryError> {
        Ok(match &path {
            Some(path) => Bounded::Optimal(path.distance(x, y)),
            None => emd_in_context_within(x, y, cost, &budget, cutoff, &mut context)?,
        })
    };
    let Some(first) = arena.first() else {
        return Err(QueryError::EmptyDatabase);
    };
    // d_near[o] = distance of o to its nearest chosen pivot.
    let mut d_near = Vec::with_capacity(arena.len());
    for h in arena {
        let (Bounded::Optimal(d) | Bounded::Above(d)) = distance(first, h, f64::INFINITY)?;
        d_near.push(d);
    }
    let mut assignments: Vec<u32> = vec![0; arena.len()];
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
        // Pivot gaps feed the triangle shortcut below; one at least twice a
        // cluster's radius skips all of it, so its solve may stop above that.
        let radii = covering_radii(&assignments, &d_near, pivots.len());
        let mut pivot_distances: Vec<f64> = Vec::with_capacity(pivots.len());
        for (&p, &r) in pivots.iter().zip(&radii) {
            let ph = arena
                .get(p as usize)
                .ok_or(QueryError::UnknownObject(p as usize))?;
            let (Bounded::Optimal(gap) | Bounded::Above(gap)) = distance(next_h, ph, 2.0 * r)?;
            pivot_distances.push(gap);
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
            let gap = pivot_distances.get(*a as usize);
            if gap.is_some_and(|&gap| gap >= 2.0 * *dn) {
                continue;
            }
            // Only `d < dn` steals, so a solve may stop at a bound above dn.
            match distance(next_h, h, *dn)? {
                Bounded::Optimal(d) if d < *dn => (*dn, *a) = (d, t),
                _ => {}
            }
        }
        pivots.push(next as u32);
    }
    let radii = covering_radii(&assignments, &d_near, pivots.len());
    Ok((pivots, assignments, radii))
}

/// Each cluster's covering radius: the largest `d_near` of its members.
fn covering_radii(assignments: &[u32], d_near: &[f64], clusters: usize) -> Vec<f64> {
    let mut radii = vec![0.0f64; clusters];
    for (a, dn) in assignments.iter().zip(d_near) {
        if let Some(r) = radii.get_mut(*a as usize) {
            if *dn > *r {
                *r = *dn;
            }
        }
    }
    radii
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

/// The per-query traversal: a best-first heap of unopened clusters, and
/// the members of the last one opened still to emit at its key (the
/// module docs tabulate the two kinds). Every object not yet emitted is
/// covered by exactly one of them, at a key that lower-bounds its EMD.
struct ClusterStream<'a> {
    index: &'a ClusteredIndex,
    budget: Budget,
    clusters: BinaryHeap<Reverse<(Key, u32)>>,
    /// The open cluster's key and the members it has not emitted yet.
    open: (f64, &'a [u32]),
    visited: usize,
}

impl Ranking for ClusterStream<'_> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
        loop {
            let (key, members) = self.open;
            if let Some((&member, rest)) = members.split_first() {
                self.open = (key, rest);
                return Ok(Some((member as usize, key)));
            }
            let Some(&Reverse((Key(key), cluster))) = self.clusters.peek() else {
                return Ok(None);
            };
            // Probe, then pop: a firing leaves the cluster for
            // `drain_computed`.
            self.budget.check().map_err(QueryError::BudgetExhausted)?;
            self.clusters.pop();
            self.visited += 1;
            let members = self.index.members.get(cluster as usize);
            self.open = (key, members.map_or(&[], Vec::as_slice));
        }
    }

    fn drain_computed(&mut self) -> Vec<(usize, f64)> {
        let index = self.index;
        let (key, members) = std::mem::take(&mut self.open);
        let mut out: Vec<(usize, f64)> = members.iter().map(|&m| (m as usize, key)).collect();
        // An unopened cluster's key covers all its members, for free.
        for Reverse((Key(key), cluster)) in self.clusters.drain() {
            let members = index.members.get(cluster as usize).into_iter().flatten();
            out.extend(members.map(|&m| (m as usize, key)));
        }
        out
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
    }
}

/// What [`ClusteredIndex::prepare`] hands out: the chain over the
/// traversal, counting what it emits.
struct IndexStream<'a> {
    chain: ChainedRanking<'a>,
    emitted: usize,
}

impl Ranking for IndexStream<'_> {
    fn next(&mut self) -> Result<Option<(usize, f64)>, QueryError> {
        let next = self.chain.next()?;
        self.emitted += usize::from(next.is_some());
        Ok(next)
    }

    fn drain_computed(&mut self) -> Vec<(usize, f64)> {
        self.chain.drain_computed()
    }
}

impl CandidateStream for IndexStream<'_> {
    fn evaluations(&self) -> usize {
        self.chain.evaluations()
    }
}

impl Drop for IndexStream<'_> {
    fn drop(&mut self) {
        emd_obs::counter_add("index.candidates_emitted", self.emitted as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryPlan;
    use crate::filters::AnchorFilter;
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

    /// Reference order: every object at the chain's key — the largest of
    /// its stages' bounds, `max(anchor, Red-IM, Red-EMD)` — ascending
    /// `(key, id)`.
    fn scan_order(index: &ClusteredIndex, query: &Histogram) -> Vec<(usize, f64)> {
        let budget = Budget::unlimited();
        let mut stages: Vec<_> = index
            .stages
            .iter()
            .map(|stage| stage.prepare(query, &budget).unwrap())
            .collect();
        let mut order: Vec<(usize, f64)> = (0..index.len())
            .map(|id| {
                let bounds = stages.iter_mut().map(|stage| stage.distance(id).unwrap());
                (id, bounds.fold(0.0, f64::max))
            })
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        order
    }

    /// `emitted` is a prefix of `scan` up to the order of exact ties, which
    /// leave in the chain's arrival order: the same keys, bit for bit, in
    /// the same ascending sequence, each at its own object's scan key.
    fn assert_scan_prefix(emitted: &[(usize, f64)], scan: &[(usize, f64)]) {
        assert!(emitted.len() <= scan.len());
        for (&(id, key), &(_, expected)) in emitted.iter().zip(scan) {
            let (_, own) = scan.iter().find(|(scanned, _)| *scanned == id).unwrap();
            assert_eq!(key.to_bits(), expected.to_bits(), "object {id}");
            assert_eq!(key.to_bits(), own.to_bits(), "object {id}");
        }
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
        let arena = reduce(&database, index.reduced().clone()).unwrap();
        let arena = arena.reduced_database();
        let budget = Budget::unlimited();
        let mut context = EmdContext::new();
        for (id, &a) in index.assignments().iter().enumerate() {
            let pivot = index.pivots()[a as usize] as usize;
            let d = index
                .reduced
                .distance_reduced_in_context(&arena[id], &arena[pivot], &budget, &mut context)
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
            assert_scan_prefix(&got, &expected);
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
        assert_scan_prefix(emitted, &scan);
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
        // The pool is shared across clones: let the chain solve its way
        // to a first candidate under a generous cap, then exhaust the pool
        // from the outside so the next solve must surface the firing.
        let budget = Budget::unlimited().with_pivot_cap(1_000_000);
        let mut stream = index.prepare(&query, &budget).unwrap();
        let first = stream.next().unwrap().unwrap();
        budget.settle_pivots(1_000_000);
        // Already-solved candidates may still emit for free, but the rest
        // need a Red-EMD solve or a cluster opened, and either fires.
        let (mut emitted, drained, fired) = pull_and_drain(stream.as_mut());
        assert!(fired, "an exhausted pivot pool must fire before completion");
        emitted.insert(0, first);
        // The interrupted entry is still there: nothing is lost.
        assert_nothing_lost(&index, &query, &(emitted, drained, fired));
    }

    #[test]
    fn nothing_is_lost_at_any_pivot_cap() {
        // Every way a cap can fire — inside a Red-EMD solve, at the probe
        // that opens a cluster — leaves what it interrupted in place: the
        // chain's frontier, the traversal's cluster.
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
        // Keying the clusters runs no LP and probes no budget: a stream
        // that cannot open a cluster still covers every object with a
        // valid bound, through the chain's drain over the traversal's.
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
        // LB_IM is exact, duplicates give zero radii, and many keys
        // coincide. The keys come out in the scan's order; exact ties
        // among them in the chain's arrival order, not by id.
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
    fn counters_say_what_the_chain_saved() {
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
        // Every solve is the Red-EMD stage's; the chain handed out five
        // candidates; the traversal opened far from every cluster.
        assert_eq!(registry.counter("core.emd.solves"), solves);
        assert_eq!(registry.counter("index.candidates_emitted"), 5);
        let visited = registry.counter("index.clusters_visited");
        let pruned = registry.counter("index.clusters_pruned");
        assert_eq!(visited + pruned, index.clusters() as u64);
        assert!(
            pruned > 0 && solves < 60,
            "{visited} visited, {solves} solves"
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
        assert!(!reduced.reduced_cost().is_metric());

        let index = ClusteredIndex::build(&database, reduced, 1.0).unwrap();
        assert!(index.name().contains("closed"));
        assert!(index.pruning.cost().is_metric());
        // The closure only lowers entries, preserving the bound chain.
        for (c, o) in index
            .pruning
            .cost()
            .entries()
            .iter()
            .zip(index.reduced().reduced_cost().entries())
        {
            assert!(c <= o);
        }
        // The closure shapes only the geometry: emission is the chain's
        // scan over the reduced cost itself, and no key is below what a
        // scan of the closure's EMD (floored by the anchor bound: the
        // 9-bin chain itself is a metric) would have given it.
        let query = Histogram::unit(9, 4).unwrap();
        let expected = scan_order(&index, &query);
        let mut stream = index.prepare(&query, &Budget::unlimited()).unwrap();
        let mut got = Vec::new();
        while let Some(item) = stream.next().unwrap() {
            got.push(item);
        }
        assert_eq!(got.len(), expected.len());
        assert_scan_prefix(&got, &expected);
        let reduced_query = index.reduced().reduce_first(&query).unwrap();
        let anchors = AnchorFilter::new(&database, index.reduced().r2().reduced_dim()).unwrap();
        let mut anchor = anchors.prepare(&query, &Budget::unlimited()).unwrap();
        let arena = reduce(&database, index.reduced().clone()).unwrap();
        for (id, key) in got {
            let reduced = &arena.reduced_database()[id];
            let closed = emd_core::emd(&reduced_query, reduced, index.pruning.cost()).unwrap();
            let parent = closed.max(anchor.distance(id).unwrap());
            assert!(key >= parent - 1e-12, "object {id}: {key} below {parent}");
        }
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

    /// A random arena of `n` histograms over `dim` bins, about a third of
    /// the bins empty.
    fn random_arena(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Histogram> {
        (0..n)
            .map(|_| {
                let bins = (0..dim).map(|_| {
                    if rng.gen_bool(0.3) {
                        0.0
                    } else {
                        rng.gen_range(0.05..1.0)
                    }
                });
                let mut bins: Vec<f64> = bins.collect();
                bins[rng.gen_range(0..dim)] += 0.5;
                Histogram::normalized(bins).unwrap()
            })
            .collect()
    }

    /// The greedy k-center loop with a cold `emd` per pair and no cutoff:
    /// the oracle the build's cutoff solves are held to.
    fn k_center_oracle(cost: &CostMatrix, arena: &[Histogram], k: usize) -> ClusterGeometry {
        let d = |a: usize, b: usize| emd_core::emd(&arena[a], &arena[b], cost).unwrap();
        let mut d_near: Vec<f64> = (0..arena.len()).map(|o| d(0, o)).collect();
        let mut assignments = vec![0u32; arena.len()];
        let mut pivots = vec![0u32];
        while pivots.len() < k {
            let (next, farthest) = (d_near.iter().copied().enumerate()).fold(
                (0, f64::NEG_INFINITY),
                |best, (o, dn)| {
                    if dn > best.1 {
                        (o, dn)
                    } else {
                        best
                    }
                },
            );
            if farthest <= 0.0 {
                break;
            }
            let gaps: Vec<f64> = pivots.iter().map(|&p| d(next, p as usize)).collect();
            for o in 0..arena.len() {
                if gaps[assignments[o] as usize] >= 2.0 * d_near[o] {
                    continue;
                }
                let dist = d(next, o);
                if dist < d_near[o] {
                    (d_near[o], assignments[o]) = (dist, pivots.len() as u32);
                }
            }
            pivots.push(next as u32);
        }
        let mut radii = vec![0.0f64; pivots.len()];
        for (&a, &dn) in assignments.iter().zip(&d_near) {
            radii[a as usize] = radii[a as usize].max(dn);
        }
        (pivots, assignments, radii)
    }

    /// On small random metric databases — Euclidean distances between
    /// random points in the plane, histograms with empty bins — the build,
    /// whose steal solves stop at the object's current nearest distance,
    /// picks the oracle's pivots and assignments, with radii within
    /// `distance_slack`, and runs no more LP solves.
    #[test]
    fn cutoff_build_matches_the_cold_oracle() {
        let mut cut_some = false;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = rng.gen_range(4..10usize);
            let points: Vec<Vec<f64>> = (0..dim)
                .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
                .collect();
            let cost = ground::from_points(&points, ground::Metric::Euclidean).unwrap();
            let n = rng.gen_range(20..60);
            let arena = random_arena(&mut rng, n, dim);
            let k = rng.gen_range(2..=8);

            let solves = |build: &dyn Fn() -> ClusterGeometry| {
                let recording = emd_obs::Recording::start();
                let geometry = build();
                let registry = recording.finish();
                let cuts = registry.counter("transport.solve.cut")
                    + registry.counter("core.emd.floor_cuts");
                (geometry, registry.counter("transport.solve.calls"), cuts)
            };
            let (built, built_solves, cuts) =
                solves(&|| greedy_k_center(&cost, &arena, k).unwrap());
            let (oracle, oracle_solves, _) = solves(&|| k_center_oracle(&cost, &arena, k));
            assert_eq!((&built.0, &built.1), (&oracle.0, &oracle.1), "seed {seed}");
            for (r, o) in built.2.iter().zip(&oracle.2) {
                assert!(
                    (r - o).abs() <= emd_core::distance_slack(&cost),
                    "seed {seed}"
                );
            }
            assert!(built_solves <= oracle_solves, "seed {seed}");
            cut_some |= cuts > 0;
        }
        assert!(cut_some, "some steal solve must stop at its cutoff");
    }

    /// [`cutoff_build_matches_the_cold_oracle`] on a line: over shuffled,
    /// unevenly spaced 1-D points the build answers every distance from
    /// the CDFs — no LP at all — and still picks the oracle's pivots and
    /// assignments, with radii within `distance_slack`.
    #[test]
    fn path_build_matches_the_cold_oracle() {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = rng.gen_range(4..10usize);
            let points: Vec<Vec<f64>> = (0..dim).map(|_| vec![rng.gen_range(0.0..1.0)]).collect();
            let cost = ground::from_points(&points, ground::Metric::Euclidean).unwrap();
            let n = rng.gen_range(20..60);
            let arena = random_arena(&mut rng, n, dim);
            let k = rng.gen_range(2..=8);

            let recording = emd_obs::Recording::start();
            let built = greedy_k_center(&cost, &arena, k).unwrap();
            let registry = recording.finish();
            assert_eq!(registry.counter("transport.solve.calls"), 0, "seed {seed}");
            assert!(registry.counter("core.emd.closed_form") > 0, "seed {seed}");
            let oracle = k_center_oracle(&cost, &arena, k);
            assert_eq!((&built.0, &built.1), (&oracle.0, &oracle.1), "seed {seed}");
            for (r, o) in built.2.iter().zip(&oracle.2) {
                assert!(
                    (r - o).abs() <= emd_core::distance_slack(&cost),
                    "seed {seed}"
                );
            }
        }
    }

    /// The benchmark's case: a 32-bin chain reduced to 8 contiguous
    /// groups. Its pruning cost is a path, so the build solves no LP.
    #[test]
    fn chain_reduction_builds_without_an_lp() {
        let mut rng = StdRng::seed_from_u64(7);
        let cost = Arc::new(ground::linear(32).unwrap());
        let database = Database::new(random_arena(&mut rng, 80, 32), cost.clone()).unwrap();
        let reduced = ReducedEmd::new(&cost, reduction(32, 8)).unwrap();
        let recording = emd_obs::Recording::start();
        let index = ClusteredIndex::build(&database, reduced, 1.0).unwrap();
        let registry = recording.finish();
        assert!(PathMetric::of(index.pruning.cost()).is_some());
        assert_eq!(registry.counter("transport.solve.calls"), 0);
        assert!(registry.counter("core.emd.closed_form") > 0);
        assert!(index.clusters() > 1);
    }

    /// One database, one bundle, one way into the chain: the scan's plan,
    /// a built and a reopened index and a live snapshot hold the same
    /// stages at the same slacks, and where an arena is held its Red-IM
    /// and Red-EMD stages share it and the reduction (a copy would leave a
    /// count lower). The snapshot's stages come from the same
    /// `ChainState::stages` as the others'.
    #[test]
    fn every_reader_holds_the_chain_of_one_bundle() {
        let database = random_database(30, 8, 5);
        let reduced = ReducedEmd::new(database.cost_arc(), reduction(8, 4)).unwrap();
        let bundle = reduce(&database, reduced.clone()).unwrap();
        let rows = |stages: &[Box<dyn Filter>]| -> Vec<(String, u64)> {
            let row = |stage: &dyn Filter| (stage.name().to_owned(), stage.slack().to_bits());
            stages.iter().map(|stage| row(stage.as_ref())).collect()
        };
        let plan = QueryPlan::chain(&database, &bundle).unwrap();
        let expected = rows(plan.stages());
        assert_eq!(expected.len(), 3);
        let (chain, arena, stages) = ChainState::persisted(&database, &bundle).unwrap();
        assert_eq!(rows(&stages), expected);
        assert_eq!(
            (Arc::strong_count(&arena), Arc::strong_count(&chain)),
            (3, 3)
        );

        let built = ClusteredIndex::from_persisted(&database, &bundle, 1.0).unwrap();
        let stored = built.to_stored();
        let reopened = ClusteredIndex::from_stored(&database, &bundle, &stored).unwrap();
        for index in [&built, &reopened] {
            assert_eq!(rows(&index.stages), expected);
            let counts = (
                Arc::strong_count(&index.arena),
                Arc::strong_count(&index.reduced),
            );
            assert_eq!(counts, (3, 3));
        }

        let dir = std::env::temp_dir().join(format!("flexemd-one-chain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cost = Arc::clone(database.cost_arc());
        let mut live = crate::DurableIndex::create(&dir, cost, reduced).unwrap();
        for histogram in database.histograms() {
            live.append_insert(histogram.clone()).unwrap();
        }
        let snapshot = live.snapshot().unwrap();
        assert_eq!(rows(snapshot.executor().plan().stages()), expected);
        drop(live);
        std::fs::remove_dir_all(&dir).ok();
    }
}
