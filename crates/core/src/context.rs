//! The one EMD evaluation: [`emd_in_context_within`] is the only function
//! in this crate that builds a transportation problem.
//!
//! Zero-mass bins contribute no flow in any feasible solution, so they are
//! stripped before the LP is built; multimedia histograms are typically
//! sparse and this shrinks the tableau substantially. The stripped
//! tableau is staged in — and solved through — a caller-owned
//! [`EmdContext`] holding the solver's workspace plus the support
//! indices and the flattened row-major cost buffer.
//!
//! ## Warm starts
//!
//! Consecutive evaluations through one context against one fixed query
//! histogram — the KNOP refinement pattern — reuse every allocation and
//! warm-start the simplex from an earlier candidate's basis. A *cold*
//! evaluation is the same body from an empty basis: a fresh context
//! ([`crate::emd`] makes one per call), or a used one after
//! [`EmdContext::clear_warm_state`]. The solver reads its answer off the
//! duals of the final basis (see the crate docs on warm starts), so a
//! warm-started solve agrees with a cold solve to the bit whenever the
//! optimum is unique.
//!
//! ## Learned potentials
//!
//! Every solve against the context's query that runs to its optimum
//! leaves duals `u` on the query's support `supp x`. Their c-transform
//! `v_j = min_{i ∈ supp x} (c_ij − u_i)`, taken over every column of the
//! cost matrix, satisfies `u_i + v_j ≤ c_ij` by construction — whatever
//! the solver's tolerances — so by weak duality `u·x + v·y` is a floor on
//! `EMD(x, y)` for *every* candidate `y`, not only the one solved. The
//! context keeps the last [`LEARNED`] of them, with each solve's basis,
//! for as long as the query and the cost matrix stay the same; a new
//! query, a new cost or [`EmdContext::clear_warm_state`] empties the
//! ring. A solve is learned from lazily, at the next evaluation against
//! the same query, so a one-shot context pays nothing.
//!
//! Before the LP is built, the highest floor, lowered by the margin the
//! mid-repair certificate uses (`simplex::dual_bound_slack`), answers
//! [`Bounded::Above`] when it is strictly above the cutoff. Otherwise
//! the solve starts from the basis of the entry that floors this
//! candidate highest among those learned on the same support — its
//! duals are the nearest to optimal for it — and, with none, from the
//! basis the previous solve ended on, matched by tableau shape.
//!
//! ## Budgets and cutoffs
//!
//! Every evaluation takes a [`Budget`] (`Budget::unlimited()` for none)
//! and surfaces a firing as the typed [`CoreError::BudgetExhausted`].
//! [`emd_in_context_within`] additionally takes a cutoff and may stop at
//! a certified lower bound above it instead of the distance;
//! [`emd_in_context`] is its `f64::INFINITY` call. A floor answer probes
//! the budget as a solve would, so deadlines, cancellation and injected
//! solve faults fire on the same evaluation with or without it.

use crate::budget::Budget;
use crate::cost::CostMatrix;
use crate::error::{CoreError, TransportError};
use crate::histogram::Histogram;
use crate::problem::TransportProblem;
use crate::simplex::{dual_bound_slack, solve_warm_objective, Bounded};
use crate::workspace::{SolverWorkspace, WorkspaceStats};
use crate::EmdReport;

/// How many optimal solves an [`EmdContext`] remembers for its query:
/// one ring slot each. Measured on the tiling benchmark's exact solves,
/// 8 / 16 / 32 slots left 1 980 / 1 824 / 1 784 repair pivots per query.
const LEARNED: usize = 16;

/// What one optimal solve against the context's query taught it.
#[derive(Debug, Default)]
pub(crate) struct Learned {
    /// The solve's duals on the query's support, in support order.
    pub(crate) u: Vec<f64>,
    /// `u · x`: the floor's share that does not depend on the candidate.
    ux: f64,
    /// `max |u_i|`, for the floor's slack.
    magnitude_u: f64,
    /// The c-transform of `u`, one entry per cost column.
    pub(crate) v: Vec<f64>,
    /// The solve's optimal basis, in cells of its stripped tableau.
    cells: Vec<(usize, usize)>,
    /// The cost columns of that tableau: the candidate's support.
    y_index: Vec<usize>,
}

/// The ring of [`Learned`] potentials of one query under one cost.
#[derive(Debug, Default)]
struct Potentials {
    /// The query's bins and the cost entries the ring was learned under.
    query: Vec<f64>,
    cost: Vec<f64>,
    /// Ring slots; the first `live` hold entries, the rest keep their
    /// buffers for the next query.
    entries: Vec<Learned>,
    live: usize,
    /// The slot the next entry overwrites.
    next: usize,
    /// Whether the last evaluation ran an LP to its optimum, leaving its
    /// basis and duals in the workspace, its tableau in the staging buffers.
    pending: bool,
}

impl Potentials {
    /// Forget every entry and the solve pending harvest.
    fn clear(&mut self) {
        self.live = 0;
        self.next = 0;
        self.pending = false;
    }

    /// The highest learned floor on the EMD of a query of total mass
    /// `supply` against the stripped candidate `(y_index, demands)` of
    /// total mass `demand`, lowered by its slack, and the slot of the entry
    /// learned on the same support that floors it highest.
    fn floor(
        &self,
        y_index: &[usize],
        demands: &[f64],
        supply: f64,
        demand: f64,
    ) -> (f64, Option<usize>) {
        let mut floor = f64::NEG_INFINITY;
        let mut seed: Option<(usize, f64)> = None;
        // bounds: `live` never exceeds the slots pushed so far
        for (slot, learned) in self.entries[..self.live].iter().enumerate() {
            let mut dual = learned.ux;
            let mut magnitude_v = 0.0_f64;
            for (&j, &mass) in y_index.iter().zip(demands) {
                let vj = learned.v[j]; // bounds: v has one entry per cost column, and y_index holds columns
                dual += vj * mass;
                magnitude_v = magnitude_v.max(vj.abs());
            }
            let bound = dual - dual_bound_slack(supply, demand, learned.magnitude_u + magnitude_v);
            floor = floor.max(bound);
            if seed.is_none_or(|(_, best)| bound > best) && learned.y_index == y_index {
                seed = Some((slot, bound));
            }
        }
        (floor, seed.map(|(slot, _)| slot))
    }
}

/// Whether `a` and `b` hold the same bits, element for element. The
/// differences are or-ed together with no early exit, so the loop runs
/// at memory speed; `-0.0` and `0.0` differ, NaNs of one payload agree.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits()))
            == 0
}

/// Caller-owned scratch for repeated EMD evaluations.
///
/// Owns the transport workspace (dual vectors, basis tree, warm-start
/// basis), the core-level staging buffers (support indices, stripped
/// marginals, flattened costs) and the potentials learned against the
/// current query. After the first evaluations have grown the buffers,
/// the steady path performs no heap allocation.
#[derive(Debug, Default)]
pub struct EmdContext {
    ws: SolverWorkspace,
    x_index: Vec<usize>,
    y_index: Vec<usize>,
    supplies: Vec<f64>,
    demands: Vec<f64>,
    costs: Vec<f64>,
    learned: Potentials,
}

impl EmdContext {
    /// An empty context; buffers grow on first use and are kept across
    /// evaluations.
    #[must_use]
    pub fn new() -> Self {
        EmdContext::default()
    }

    /// Transport-level work counters (solves, warm attempts/hits, pivots)
    /// accumulated by every evaluation routed through this context.
    #[must_use]
    pub(crate) fn stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Forget the warm-start basis and every learned potential: the next
    /// evaluation solves cold. Scratch buffers keep their capacity.
    // lint: allow(unbudgeted): state reset, performs no solver work
    pub fn clear_warm_state(&mut self) {
        self.ws.clear_warm_state();
        self.learned.clear();
    }

    /// The optimal flows of the last evaluation that ran to
    /// [`Bounded::Optimal`], in original bin indices.
    pub(crate) fn last_report(&mut self, distance: f64) -> EmdReport {
        let flows = self
            .ws
            .last_solution(&self.supplies, &self.demands, distance)
            .flows
            .into_iter()
            // bounds: the solver's cells index the stripped tableau, whose
            // axes are exactly x_index / y_index.
            .map(|(i, j, f)| (self.x_index[i], self.y_index[j], f))
            .collect();
        EmdReport { distance, flows }
    }

    /// Start an evaluation against `x` under `cost`: empty the ring if it
    /// was learned against another query or cost, then learn from the
    /// last solve if it ran to its optimum against `x`. Costs nothing
    /// while the ring is empty and no solve is pending.
    fn learn(&mut self, x: &Histogram, cost: &CostMatrix) {
        let ring = &mut self.learned;
        // Equal queries have equal row counts, so equal entries mean an
        // equal shape.
        if ring.live > 0
            && !(same_bits(&ring.query, x.bins()) && same_bits(&ring.cost, cost.entries()))
        {
            ring.clear();
        }
        if !std::mem::take(&mut ring.pending) {
            return;
        }
        // The staging buffers still hold the pending solve's tableau.
        let staged = self
            .x_index
            .iter()
            .copied()
            .zip(self.supplies.iter().copied());
        if !staged.eq(x.nonzero()) {
            return;
        }
        if ring.live == 0 {
            ring.query.clear();
            ring.query.extend_from_slice(x.bins());
            ring.cost.clear();
            ring.cost.extend_from_slice(cost.entries());
        }
        if ring.next == ring.entries.len() {
            ring.entries.push(Learned::default());
        }
        let entry = &mut ring.entries[ring.next]; // bounds: next < entries.len(), pushed just above when equal
        ring.next = (ring.next + 1) % LEARNED;
        ring.live = (ring.live + 1).min(LEARNED);

        // The solve's duals, as its dual readout left them.
        entry.u.clone_from(&self.ws.pivot.u);
        entry.ux = entry.u.iter().zip(&self.supplies).map(|(u, s)| u * s).sum();
        entry.magnitude_u = entry.u.iter().fold(0.0, |max, u| max.max(u.abs()));
        // Their c-transform over every column: dual-feasible for any y.
        entry.v.clear();
        entry.v.resize(cost.cols(), f64::INFINITY);
        for (&i, &ui) in self.x_index.iter().zip(&entry.u) {
            for (vj, &c) in entry.v.iter_mut().zip(cost.row(i)) {
                *vj = vj.min(c - ui);
            }
        }
        entry.cells.clone_from(&self.ws.warm_cells);
        entry.y_index.clone_from(&self.y_index);
    }

    /// Stage the stripped tableau of `x`, `y` under `cost` as a problem;
    /// [`Self::unstage`] takes the buffers back.
    fn stage(&mut self, cost: &CostMatrix) -> TransportProblem {
        self.costs.clear();
        self.costs.reserve(self.x_index.len() * self.y_index.len());
        for &i in &self.x_index {
            let row = cost.row(i);
            self.costs.extend(self.y_index.iter().map(|&j| row[j])); // bounds: y_index holds support positions < cost.cols()
        }
        // Round-trip the owned buffers through the problem: `into_parts`
        // returns them after the solve, so the steady path never reallocates.
        TransportProblem::new(
            std::mem::take(&mut self.supplies),
            std::mem::take(&mut self.demands),
            std::mem::take(&mut self.costs),
        )
    }

    fn unstage(&mut self, problem: TransportProblem) {
        (self.supplies, self.demands, self.costs) = problem.into_parts();
    }

    /// Every entry the ring holds.
    #[cfg(test)]
    pub(crate) fn learned(&self) -> &[Learned] {
        &self.learned.entries[..self.learned.live] // bounds: live never exceeds the slots pushed
    }

    /// The highest floor the ring gives `y`, lowered by its slack;
    /// `-∞` from an empty ring.
    #[cfg(test)]
    pub(crate) fn floor(&self, y: &Histogram) -> f64 {
        let (y_index, demands): (Vec<usize>, Vec<f64>) = y.nonzero().unzip();
        let supply = self.learned.query.iter().sum();
        let demand = demands.iter().sum();
        self.learned.floor(&y_index, &demands, supply, demand).0
    }
}

/// Exact EMD (Definition 1) of `x` and `y` under `cost`, which may be
/// rectangular (`x` against its rows, `y` against its columns). Reuses
/// the context's buffers and what it learned from earlier evaluations
/// against `x` (see the module docs); from a fresh or cleared context it
/// is a cold solve.
///
/// # Errors
///
/// [`CoreError::DimensionMismatch`] when `x` does not match `cost.rows()`
/// or `y` does not match `cost.cols()`, [`CoreError::BudgetExhausted`]
/// when `budget` fires at solve entry or mid-solve, and
/// [`CoreError::Solver`] if the simplex fails to converge (a numerical
/// pathology: the operands were checked when they were built). The
/// context stays usable after an error: the next evaluation solves from
/// the basis the last successful one left.
pub fn emd_in_context(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
    budget: &Budget,
    ctx: &mut EmdContext,
) -> Result<f64, CoreError> {
    match emd_in_context_within(x, y, cost, budget, f64::INFINITY, ctx)? {
        Bounded::Optimal(distance) => Ok(distance),
        Bounded::Above(_) => Err(CoreError::Solver(
            "a solve without a cutoff was cut".to_owned(),
        )),
    }
}

/// [`emd_in_context`] for a caller that only needs the distance if it is
/// at most `cutoff` — KNOP refining a candidate against its current k-th
/// distance, a range query against ε. Returns [`Bounded::Optimal`] with
/// the exact EMD, or [`Bounded::Above`] with a certified lower bound
/// strictly above `cutoff` as soon as a learned floor or the warm solve
/// can prove one (see the crate docs on cutoffs); the context stays warm
/// either way. `f64::INFINITY` is [`emd_in_context`] itself.
///
/// # Errors
///
/// Same failure modes as [`emd_in_context`].
pub fn emd_in_context_within(
    x: &Histogram,
    y: &Histogram,
    cost: &CostMatrix,
    budget: &Budget,
    cutoff: f64,
    ctx: &mut EmdContext,
) -> Result<Bounded, CoreError> {
    emd_obs::counter_add("core.emd.solves", 1);
    if cost.rows() != x.dim() || cost.cols() != y.dim() {
        return Err(CoreError::DimensionMismatch {
            expected_rows: cost.rows(),
            expected_cols: cost.cols(),
            got_rows: x.dim(),
            got_cols: y.dim(),
        });
    }

    // Identical operands under a square matrix with zero diagonal have
    // distance 0 with the identity flow; skip the LP.
    if cost.is_square() && x == y {
        // float: exact — identity shortcut requires an exactly zero diagonal, else fall through to the LP
        let diagonal_free = x.nonzero().all(|(i, _)| cost.at(i, i) == 0.0);
        if diagonal_free {
            return Ok(Bounded::Optimal(0.0));
        }
    }

    ctx.learn(x, cost);

    // Strip zero-mass bins into the context's staging buffers.
    ctx.x_index.clear();
    ctx.supplies.clear();
    for (i, mass) in x.nonzero() {
        ctx.x_index.push(i);
        ctx.supplies.push(mass);
    }
    ctx.y_index.clear();
    ctx.demands.clear();
    for (j, mass) in y.nonzero() {
        ctx.y_index.push(j);
        ctx.demands.push(mass);
    }
    debug_assert!(
        !ctx.x_index.is_empty() && !ctx.y_index.is_empty(),
        "normalized histograms have non-empty support"
    );

    let (supply, demand) = (ctx.supplies.iter().sum(), ctx.demands.iter().sum());
    let (floor, seed) = ctx
        .learned
        .floor(&ctx.y_index, &ctx.demands, supply, demand);
    if floor > cutoff {
        // Answered without an LP, but probed like a solve.
        budget.note_solve().map_err(CoreError::BudgetExhausted)?;
        emd_obs::counter_add("core.emd.floor_cuts", 1);
        if cfg!(debug_assertions) {
            let problem = ctx.stage(cost);
            crate::certify::debug_certify_cut(&problem, floor, cutoff);
            ctx.unstage(problem);
        }
        return Ok(Bounded::Above(floor));
    }
    if let Some(slot) = seed {
        let basis = &ctx.learned.entries[slot].cells; // bounds: floor returns live slots only
        ctx.ws.seed(ctx.x_index.len(), ctx.y_index.len(), basis);
    }

    let problem = ctx.stage(cost);
    let solved = solve_warm_objective(&problem, budget, cutoff, &mut ctx.ws);
    ctx.unstage(problem);
    let objective = match solved {
        Ok(Bounded::Optimal(objective)) => objective,
        // No flow to certify: the simplex has already checked the
        // bound against a cold re-solve (debug builds).
        Ok(above @ Bounded::Above(_)) => return Ok(above),
        // Budget exhaustion stays typed so upper layers can degrade.
        Err(TransportError::BudgetExhausted { reason }) => {
            return Err(CoreError::BudgetExhausted(reason));
        }
        Err(other) => return Err(CoreError::Solver(other.to_string())),
    };

    ctx.learned.pending = true;
    if cfg!(debug_assertions) {
        crate::certify::debug_certify_report(x, y, cost, &ctx.last_report(objective));
    }
    Ok(Bounded::Optimal(objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd;
    use crate::ground;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    #[test]
    fn context_matches_context_free_path() {
        let x = h(&[0.1, 0.4, 0.0, 0.3, 0.2]);
        let ys = [
            h(&[0.3, 0.0, 0.3, 0.0, 0.4]),
            h(&[0.2, 0.2, 0.2, 0.2, 0.2]),
            h(&[0.0, 0.0, 1.0, 0.0, 0.0]),
            h(&[0.5, 0.1, 0.1, 0.1, 0.2]),
        ];
        let c = ground::linear(5).unwrap();
        let mut ctx = EmdContext::new();
        for y in &ys {
            let cold = emd(&x, y, &c).unwrap();
            let warm = emd_in_context(&x, y, &c, &Budget::unlimited(), &mut ctx).unwrap();
            assert_eq!(cold.to_bits(), warm.to_bits());
        }
        assert_eq!(ctx.stats().solves, 4);
    }

    #[test]
    fn identity_shortcut_still_fires() {
        let x = h(&[0.25, 0.25, 0.5]);
        let c = ground::linear(3).unwrap();
        let mut ctx = EmdContext::new();
        assert_eq!(
            emd_in_context(&x, &x, &c, &Budget::unlimited(), &mut ctx).unwrap(),
            0.0
        );
        // The shortcut skips the LP entirely: no transport solve recorded,
        // so even an exhausted budget returns the exact zero distance.
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let cancelled = Budget::unlimited().with_cancel(token);
        assert_eq!(
            emd_in_context(&x, &x, &c, &cancelled, &mut ctx).unwrap(),
            0.0
        );
        assert_eq!(ctx.stats().solves, 0);
    }

    #[test]
    fn rectangular_operands_warm_start() {
        let x = h(&[0.5, 0.25, 0.25]);
        let ys = [h(&[0.5, 0.5]), h(&[0.25, 0.75]), h(&[0.9, 0.1])];
        let c = CostMatrix::new(3, 2, vec![0.0, 2.0, 1.0, 1.0, 2.0, 0.0]).unwrap();
        let mut ctx = EmdContext::new();
        for y in &ys {
            let cold = emd(&x, y, &c).unwrap();
            let warm = emd_in_context(&x, y, &c, &Budget::unlimited(), &mut ctx).unwrap();
            assert_eq!(cold.to_bits(), warm.to_bits());
        }
        let stats = ctx.stats();
        assert_eq!(stats.solves, 3);
        assert_eq!(stats.warm_attempts, 2, "same support shape across ys");
    }

    #[test]
    fn cutoffs_answer_with_sound_bounds_and_keep_the_context_warm() {
        let x = h(&[0.3, 0.1, 0.2, 0.1, 0.3]);
        let ys = [
            h(&[0.1, 0.3, 0.2, 0.3, 0.1]),
            h(&[0.6, 0.1, 0.1, 0.1, 0.1]),
            h(&[0.1, 0.1, 0.1, 0.1, 0.6]),
            h(&[0.2, 0.2, 0.2, 0.2, 0.2]),
            h(&[0.05, 0.05, 0.1, 0.2, 0.6]),
        ];
        let c = ground::linear(5).unwrap();
        let mut ctx = EmdContext::new();
        let mut cuts = 0;
        let recording = emd_obs::Recording::start();
        for fraction in [0.25, 0.75, 1.0, 1.5] {
            for y in &ys {
                let exact = emd(&x, y, &c).unwrap();
                let cutoff = exact * fraction;
                match emd_in_context_within(&x, y, &c, &Budget::unlimited(), cutoff, &mut ctx)
                    .unwrap()
                {
                    Bounded::Optimal(distance) => assert!((distance - exact).abs() < 1e-12),
                    Bounded::Above(bound) => {
                        cuts += 1;
                        assert!(cutoff < bound && bound <= exact + 1e-12);
                    }
                }
            }
        }
        let registry = recording.finish();
        let solve_cuts = registry.counter("transport.solve.cut");
        let floor_cuts = registry.counter("core.emd.floor_cuts");
        assert!(cuts > 0, "a cutoff at a quarter of the distance must cut");
        // Both ways to stop early run: a learned floor before any LP, and
        // the certificate mid-repair.
        let stats = ctx.stats();
        assert!(floor_cuts > 0 && solve_cuts > 0, "{stats:?}");
        assert_eq!(cuts, floor_cuts + solve_cuts);
        assert_eq!(stats.solves + floor_cuts, 20);
        assert_eq!(
            stats.warm_hits,
            stats.solves - 1,
            "a cut solve hands on its basis"
        );
    }

    #[test]
    fn equal_shape_different_support_never_cuts_unsoundly() {
        // Supports {0, 1, 2} then {1, 2, 3}: both strip to a 4 x 3
        // tableau, but over different columns of the cost matrix, so the
        // inherited basis was optimal for other costs.
        let x = h(&[0.1, 0.2, 0.3, 0.4]);
        let low = h(&[0.5, 0.3, 0.2, 0.0]);
        let high = h(&[0.0, 0.2, 0.3, 0.5]);
        let c = CostMatrix::new(
            4,
            4,
            vec![
                0.0, 3.0, 1.0, 7.0, //
                3.0, 0.0, 5.0, 2.0, //
                1.0, 5.0, 0.0, 4.0, //
                7.0, 2.0, 4.0, 0.0,
            ],
        )
        .unwrap();
        // Two queries of equal support size, alternating on every call:
        // each call empties the learned ring, so every solve after the
        // first starts from the shape-matched basis the last one left.
        // One fixed query: the ring seeds only on equal supports and
        // floors the rest.
        let alternate = h(&[0.4, 0.3, 0.2, 0.1]);
        for alternating in [true, false] {
            let mut ctx = EmdContext::new();
            let mut call = 0;
            let recording = emd_obs::Recording::start();
            for step in 0..12 {
                let y = if step % 2 == 0 { &low } else { &high };
                for fraction in [0.1, 0.5, 0.9, 0.999] {
                    let x = if alternating && call % 2 == 1 {
                        &alternate
                    } else {
                        &x
                    };
                    call += 1;
                    let exact = emd(x, y, &c).unwrap();
                    let cutoff = exact * fraction;
                    match emd_in_context_within(x, y, &c, &Budget::unlimited(), cutoff, &mut ctx)
                        .unwrap()
                    {
                        Bounded::Optimal(distance) => assert!((distance - exact).abs() < 1e-12),
                        Bounded::Above(bound) => {
                            assert!(cutoff < bound && bound <= exact + 1e-12);
                        }
                    }
                }
            }
            let floor_cuts = recording.finish().counter("core.emd.floor_cuts");
            if alternating {
                assert_eq!(floor_cuts, 0);
                assert_eq!(ctx.stats().warm_attempts, 47, "equal shapes always match");
            } else {
                assert!(floor_cuts > 0);
            }
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let x = h(&[0.5, 0.5]);
        let y = h(&[0.5, 0.25, 0.25]);
        let c = ground::linear(2).unwrap();
        let mut ctx = EmdContext::new();
        assert!(matches!(
            emd_in_context(&x, &y, &c, &Budget::unlimited(), &mut ctx).unwrap_err(),
            CoreError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn budget_exhaustion_stays_typed_and_context_survives() {
        let x = h(&[0.1, 0.4, 0.0, 0.3, 0.2]);
        let y = h(&[0.3, 0.0, 0.3, 0.0, 0.4]);
        let z = h(&[0.2, 0.2, 0.2, 0.2, 0.2]);
        let c = ground::linear(5).unwrap();
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let cancelled = Budget::unlimited().with_cancel(token);
        // On a fresh context and on a warmed one: the error is typed and
        // the next evaluation returns the cold answer.
        for warm_up in [false, true] {
            let mut ctx = EmdContext::new();
            if warm_up {
                emd_in_context(&x, &z, &c, &Budget::unlimited(), &mut ctx).unwrap();
            }
            let err = emd_in_context(&x, &y, &c, &cancelled, &mut ctx).unwrap_err();
            assert_eq!(
                err,
                CoreError::BudgetExhausted(crate::budget::BudgetReason::Cancelled)
            );
            let ok = emd_in_context(&x, &y, &c, &Budget::unlimited(), &mut ctx).unwrap();
            assert_eq!(ok.to_bits(), emd(&x, &y, &c).unwrap().to_bits());
        }
    }

    #[test]
    fn clear_warm_state_forces_cold_solves() {
        let x = h(&[0.1, 0.4, 0.0, 0.3, 0.2]);
        let y = h(&[0.3, 0.0, 0.3, 0.0, 0.4]);
        let c = ground::linear(5).unwrap();
        let mut ctx = EmdContext::new();
        emd_in_context(&x, &y, &c, &Budget::unlimited(), &mut ctx).unwrap();
        ctx.clear_warm_state();
        emd_in_context(&x, &y, &c, &Budget::unlimited(), &mut ctx).unwrap();
        assert_eq!(ctx.stats().warm_attempts, 0);
    }
}
