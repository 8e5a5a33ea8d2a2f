//! The transportation simplex (MODI / u-v method).
//!
//! Starting from an initial basic feasible solution in the workspace's
//! basis tree — a Vogel basis on a cold start (built in the workspace's
//! scratch from incrementally kept line minima, see `vogel`), or the
//! previous solve's basis re-fit to the new marginals (directly, or via a
//! short dual-simplex repair when the fit is primal-infeasible) on a warm
//! start — each iteration
//!
//! 1. computes dual variables `u`, `v` from the basis tree,
//! 2. searches for a non-basic cell with negative reduced cost
//!    `c[i][j] - u[i] - v[j]` (Dantzig most-negative rule, falling back to
//!    Bland's rule after a long run of degenerate pivots to guarantee
//!    termination),
//! 3. pivots: the entering cell closes a unique cycle in the basis tree;
//!    flow is shifted around the cycle until a basic cell hits zero, which
//!    leaves the basis.
//!
//! ## Canonical extraction
//!
//! The one entry, [`solve_warm_objective`], extracts every solution the
//! same way: the tree is reset from its cells sorted by `(row, col)`,
//! flows are re-derived from the marginals by leaf peeling
//! ([`BasisTree::fit`]), and the objective is summed over every basic
//! cell in sorted-cell order. The answer therefore depends only on the
//! final basis, never on the pivot history, which is what makes
//! warm-started solves
//! bit-identical to cold solves whenever both reach the same optimal
//! basis — and, the sum being the basis' dual value, equal to the last
//! few ulps when they reach different ones.
//!
//! ## Counters
//!
//! The pivot loops tally their pivots by kind in a `PivotTally`, which
//! each solve records once, on whichever exit it takes — optimal, cut,
//! abandoned repair, budget or iteration-limit error: into the
//! workspace's [`WorkspaceStats`] and, under an `emd_obs` recording scope,
//! into `transport.simplex.pivots`, `…bland_pivots`,
//! `…degenerate_pivots` and `transport.warm.repair_pivots`. A served
//! query (whose server always records) thus pays one registry lookup per
//! counter and solve instead of one per pivot, with the same totals.

use crate::budget::{Budget, BudgetReason, CHECK_INTERVAL};
use crate::error::TransportError;
use crate::problem::{Solution, TransportProblem};
use crate::tree::BasisTree;
use crate::vogel;
use crate::workspace::{PivotScratch, SolverWorkspace, WorkspaceStats};
use crate::EPS;

/// Hard pivot cap applied regardless of the per-solve limit:
/// `100 * (m + n)^2 + 4096`. The limit is clamped to it, so a
/// degenerate-cycling instance can never hang the process — it reports
/// [`TransportError::IterationLimit`] instead. The per-solve limit
/// (`64 * (m + n) + 4096`) sits far below this cap for every tableau size,
/// so normal solves are unaffected.
#[must_use]
pub(crate) fn hard_iteration_cap(m: usize, n: usize) -> usize {
    100usize
        .saturating_mul(m + n)
        .saturating_mul(m + n)
        .saturating_add(4096)
}

/// Per-solve cap on primal pivots, far above what non-pathological
/// instances need.
fn iteration_limit(m: usize, n: usize) -> usize {
    64 * (m + n) + 4096
}

/// Number of consecutive degenerate pivots after which the pricing rule
/// switches from most-negative to Bland's anti-cycling rule.
const DEGENERATE_PIVOT_LIMIT: usize = 64;

/// Reduced costs above `-OPTIMALITY_TOLERANCE` count as non-negative.
const OPTIMALITY_TOLERANCE: f64 = 1e-10;

/// A warm basis counts as primal-feasible for new marginals when no
/// basic flow is below `-WARM_FEASIBILITY`; one that is gets repaired.
/// Two orders above what leaf peeling accumulates in rounding (a few
/// `1e-16` per node) and two below [`EPS`], because marginals that
/// nearly cancel on a bin leave *real* residuals in between — 9e-13 on
/// the benchmark's Gaussian corpus — and a basis that ships one of them
/// the wrong way is optimal for some other problem: accepted at `EPS`,
/// it returned a dual value 1.1e-11 below the optimum (5e-10 of the
/// distance) on the pair `tests/warm_chain.rs` pins.
const WARM_FEASIBILITY: f64 = 1e-14;

/// Solve a transportation problem: [`solve_warm`] from an empty
/// workspace, under no budget.
///
/// # Errors
///
/// Propagates any [`TransportError`] from the solve: iteration-limit
/// exhaustion or an internal invariant violation.
pub(crate) fn solve(problem: &TransportProblem) -> Result<Solution, TransportError> {
    solve_warm(problem, &Budget::unlimited(), &mut SolverWorkspace::new())
}

/// Maps a failed budget probe to its typed error, counting it.
fn budget_exhausted(reason: BudgetReason) -> TransportError {
    emd_obs::counter_add("transport.budget_exhausted", 1);
    TransportError::BudgetExhausted { reason }
}

/// [`solve_warm_objective`] without a cutoff, with the flow triples
/// materialized.
///
/// # Errors
///
/// Same failure modes as [`solve_warm_objective`].
pub(crate) fn solve_warm(
    problem: &TransportProblem,
    budget: &Budget,
    workspace: &mut SolverWorkspace,
) -> Result<Solution, TransportError> {
    match solve_warm_objective(problem, budget, f64::INFINITY, workspace)? {
        Bounded::Optimal(objective) => Ok(workspace.last_solution(objective)),
        Bounded::Above(_) => Err(TransportError::Internal {
            detail: "a solve without a cutoff was cut",
        }),
    }
}

/// Relative margin of the cutoff test in [`solve_warm_objective`]. The
/// running dual objective must pass `cutoff * (1 + CUT_MARGIN)` before a
/// certificate is attempted, and the certified bound is lowered by
/// `CUT_MARGIN` times the magnitude of the duals it was summed from, so
/// a cut never rests on the last bits of either side: about `2e-14` of
/// rounding accumulates over the few hundred terms of the largest
/// tableaus this crate targets, five orders of magnitude below it.
pub(crate) const CUT_MARGIN: f64 = 1e-9;

/// What a solve under a cutoff established about the optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bounded {
    /// The solve ran to optimality: the exact objective.
    Optimal(f64),
    /// The solve stopped early: a certified lower bound on the optimum,
    /// strictly above the cutoff it was given.
    Above(f64),
}

/// The simplex: every solve in this crate is this function. Returns the
/// optimal objective, leaving the canonical cells and flows in the
/// workspace's tree (readable via [`SolverWorkspace::last_solution`]).
/// After the workspace has grown to the tableau size a solve — warm or
/// cold, the Vogel start included — performs no heap allocation.
///
/// **Seeding.** When `workspace` holds the basis of an earlier solve with
/// the same tableau shape, the tree is reset from its cells and re-fit to
/// the new marginals by leaf peeling. If the fit is feasible the pivot
/// loop starts from it — usually a few pivots from optimal when the
/// instances are related (e.g. consecutive KNOP candidates sharing the
/// query marginal). An infeasible fit goes through dual-simplex repair
/// (`dual_repair`): the shared cost matrix keeps the old basis
/// dual-feasible, so a short dual run restores primal feasibility,
/// typically landing on the new optimum outright. A workspace without a
/// matching basis — a fresh one, or one after
/// [`SolverWorkspace::clear_warm_state`] — and a repair that exceeds its
/// pivot cap start cold from a Vogel basis. Either way the result is the
/// exact optimum; thanks to canonical extraction, warm and cold solves
/// are bit-identical whenever both reach the same optimal basis (always
/// the case for instances with a unique optimum).
///
/// **Budget.** `budget` is probed at solve entry and every
/// [`CHECK_INTERVAL`] pivots; pivots are charged to the budget's shared
/// pool so a cap spans all solves holding a clone. `Budget::unlimited()`
/// never fires.
///
/// **Cutoff.** `cutoff` lets a caller that only needs to know whether the
/// optimum exceeds a threshold stop early. The dual-simplex repair of a
/// warm basis raises a lower bound on the optimum with every pivot; once
/// that bound passes `cutoff` (see [`CUT_MARGIN`]) and a certificate
/// computed from scratch confirms it, the solve returns
/// [`Bounded::Above`] instead of pivoting on. The cut basis becomes the
/// workspace's warm basis (it is as dual-feasible as the one it was
/// repaired from); the workspace then holds no solution to read. A cold
/// start has no such bound and always runs to [`Bounded::Optimal`], and
/// `f64::INFINITY` never cuts: the solve is then pivot for pivot the one
/// without a cutoff.
///
/// # Errors
///
/// Returns [`TransportError::BudgetExhausted`] when the budget's deadline,
/// pivot cap, or cancellation fires (at entry or mid-solve, warm or
/// cold); [`TransportError::IterationLimit`] when the per-solve pivot
/// limit is exhausted before reaching optimality; and
/// [`TransportError::Internal`] if a pivot cycle is structurally
/// malformed. On error the workspace keeps the basis it held before the
/// call (the last optimal or cut one); the pivots the failed solve did
/// perform are counted all the same.
pub(crate) fn solve_warm_objective(
    problem: &TransportProblem,
    budget: &Budget,
    cutoff: f64,
    workspace: &mut SolverWorkspace,
) -> Result<Bounded, TransportError> {
    let _solve_span = emd_obs::span("transport.solve");
    emd_obs::counter_add("transport.solve.calls", 1);
    budget.note_solve().map_err(budget_exhausted)?;
    workspace.stats.solves += 1;
    let mut tally = PivotTally::default();
    let solved = seed_and_solve(problem, budget, cutoff, workspace, &mut tally);
    tally.record(&mut workspace.stats);
    solved
}

/// Pivots one solve performed, by kind, recorded once when it returns.
#[derive(Debug, Default)]
struct PivotTally {
    /// Primal (MODI) pivots; `bland` and `degenerate` are subsets.
    primal: u64,
    /// Primal pivots priced by Bland's rule.
    bland: u64,
    /// Primal pivots that shifted at most [`EPS`] of flow.
    degenerate: u64,
    /// Dual-simplex repair pivots of a warm seed.
    repair: u64,
}

impl PivotTally {
    /// Add the tally to `stats` and, when recording, to the counters.
    /// Repair pivots count only under their own counter: adding them to
    /// `transport.simplex.pivots` too would double-charge warm solves in
    /// any report that reads both.
    fn record(&self, stats: &mut WorkspaceStats) {
        stats.pivots += self.primal + self.repair;
        stats.repair_pivots += self.repair;
        let counters = [
            ("transport.simplex.pivots", self.primal),
            ("transport.simplex.bland_pivots", self.bland),
            ("transport.simplex.degenerate_pivots", self.degenerate),
            ("transport.warm.repair_pivots", self.repair),
        ];
        for (name, count) in counters {
            if count > 0 {
                emd_obs::counter_add(name, count);
            }
        }
    }
}

/// The body of [`solve_warm_objective`] after its entry probe: seed a
/// basis, pivot to the optimum (or a cut), extract. Every pivot goes into
/// `tally`.
fn seed_and_solve(
    problem: &TransportProblem,
    budget: &Budget,
    cutoff: f64,
    ws: &mut SolverWorkspace,
    tally: &mut PivotTally,
) -> Result<Bounded, TransportError> {
    let m = problem.num_sources();
    let n = problem.num_targets();
    let (supplies, demands) = (problem.supplies(), problem.demands());

    // Seed a basic feasible solution: the previous basis re-fit to the
    // new marginals when possible, a cold Vogel basis otherwise.
    let mut seeded_warm = false;
    if ws.has_warm_basis(m, n) {
        ws.stats.warm_attempts += 1;
        emd_obs::counter_add("transport.warm.attempts", 1);
        let basis = ws.warm_cells.iter().map(|&(row, col)| (row, col, 0.0));
        ws.tree.reset(m, n, basis);
        let repair = if ws.tree.fit(supplies, demands, WARM_FEASIBILITY) {
            // Degenerate cells can re-fit to a tiny negative flow; clamp
            // so the pivot ratio test never sees a negative basic flow.
            for flow in ws.tree.flows_mut() {
                *flow = flow.max(0.0);
            }
            Repair::Feasible
        } else if m > 1 && n > 1 {
            // The fit is primal-infeasible, but successive candidates
            // share the cost matrix, so the old basis (optimal, or cut
            // mid-repair) is still dual-feasible: a short dual-simplex run restores primal
            // feasibility (and typically optimality with it) far cheaper
            // than a cold Vogel start plus primal pivots.
            dual_repair(problem, budget, cutoff, &mut ws.tree, &mut ws.pivot, tally)?
        } else {
            Repair::Abandoned
        };
        if let Repair::Feasible | Repair::Cut { .. } = repair {
            ws.stats.warm_hits += 1;
            emd_obs::counter_add("transport.warm.hits", 1);
            seeded_warm = true;
        }
        if let Repair::Cut { lower_bound } = repair {
            emd_obs::counter_add("transport.solve.cut", 1);
            ws.warm_cells.clear();
            ws.warm_cells.extend(ws.tree.cells());
            ws.warm_cells.sort_unstable();
            crate::certify::debug_certify_cut(problem, lower_bound, cutoff);
            return Ok(Bounded::Above(lower_bound));
        }
    }
    if !seeded_warm {
        let basis = vogel::initial_basis_into(problem, &mut ws.vogel);
        ws.tree.reset(m, n, basis.iter().copied());
    }

    // Trivial tableaus (single row or column) have a unique basis, which
    // is therefore optimal: skip the pivot loop entirely.
    if m > 1 && n > 1 {
        let limit = iteration_limit(m, n);
        pivot_to_optimum(problem, limit, budget, &mut ws.tree, &mut ws.pivot, tally)?;
    }

    // Canonical extraction: the tree reset from its sorted cells, flows
    // re-derived from the marginals, objective summed in slot order. The
    // sorted cells are the basis remembered for the next solve.
    ws.warm_shape = Some((m, n));
    ws.warm_cells.clear();
    ws.warm_cells.extend(ws.tree.cells());
    ws.warm_cells.sort_unstable();
    let basis = ws.warm_cells.iter().map(|&(row, col)| (row, col, 0.0));
    ws.tree.reset(m, n, basis);
    let feasible = ws.tree.fit(supplies, demands, EPS);
    debug_assert!(feasible, "optimal basis must re-fit feasibly");
    // Every basic cell counts, however small its flow: the sum is then
    // the basis' dual value, which two optimal bases share, whereas a sum
    // over the flows above `EPS` alone differs between them by whatever
    // each happened to route through its sub-`EPS` residuals
    // ([`crate::objective_slack`]).
    let mut objective = 0.0;
    for ((row, col), &flow) in ws.tree.cells().zip(ws.tree.flows()) {
        objective += flow * problem.cost(row, col);
    }

    if cfg!(debug_assertions) {
        let solution = ws.last_solution(objective);
        crate::certify::debug_certify_solution(problem, &solution, "simplex");
    }
    Ok(Bounded::Optimal(objective))
}

/// How a dual-simplex repair ended.
#[derive(Clone, Copy)]
enum Repair {
    /// Every basic flow is non-negative; the primal loop finishes from
    /// the tree.
    Feasible,
    /// The repair cap was exceeded or no entering candidate exists: the
    /// caller falls back to a cold Vogel start.
    Abandoned,
    /// The certified dual bound passed the cutoff; the tree holds the
    /// (primal-infeasible) basis it was certified on.
    Cut { lower_bound: f64 },
}

/// A lower bound on the optimum of `problem` from the basis in `tree`,
/// resting on nothing but the problem data: for *any* duals `u`, `v`
/// and any feasible flow `f`,
/// `Σ c·f = Σ uᵢsᵢ + Σ vⱼdⱼ + Σ (c − u − v)·f ≥ Σ uᵢsᵢ + Σ vⱼdⱼ + min(0, min (c − u − v))·Σs`.
/// The duals are read fresh off the tree (not the incrementally shifted
/// ones the repair prices with) and every cell is priced, so neither the
/// rounding accumulated over a long repair nor a basis that was never
/// dual-feasible — warm bases are matched by tableau shape only, and two
/// supports of equal size strip different cost matrices — can overstate
/// it. The bound is lowered by [`dual_bound_slack`].
fn certified_lower_bound(
    problem: &TransportProblem,
    tree: &mut BasisTree,
    scratch: &mut PivotScratch,
) -> f64 {
    let (u, v) = (&mut scratch.cert_u, &mut scratch.cert_v);
    tree.duals(|i, j| problem.cost(i, j), u, v);
    let mut dual = 0.0;
    let mut supply = 0.0;
    let mut magnitude_u = 0.0_f64;
    for (&ui, &si) in u.iter().zip(problem.supplies()) {
        dual += ui * si;
        supply += si;
        magnitude_u = magnitude_u.max(ui.abs());
    }
    let mut demand = 0.0;
    let mut magnitude_v = 0.0_f64;
    for (&vj, &dj) in v.iter().zip(problem.demands()) {
        dual += vj * dj;
        demand += dj;
        magnitude_v = magnitude_v.max(vj.abs());
    }
    let mut min_reduced = 0.0_f64;
    for (row, &ui) in problem.costs().chunks_exact(v.len()).zip(u.iter()) {
        for (&c, &vj) in row.iter().zip(v.iter()) {
            min_reduced = min_reduced.min(c - ui - vj);
        }
    }
    min_reduced.mul_add(supply, dual) - dual_bound_slack(supply, demand, magnitude_u + magnitude_v)
}

/// What a certified dual bound is lowered by: [`CUT_MARGIN`] of the
/// largest dual, `magnitude`, per unit of `supply`, plus what an
/// imbalance between the marginal totals `supply` and `demand`
/// (tolerated up to `2 · MASS_EPS`) could shift. The one margin behind
/// both bounds that end a solve early — `certified_lower_bound` mid-repair
/// and an `EmdContext`'s learned floor before any LP.
pub(crate) fn dual_bound_slack(supply: f64, demand: f64, magnitude: f64) -> f64 {
    CUT_MARGIN.mul_add(supply, (supply - demand).abs()) * magnitude
}

/// Restore primal feasibility of a re-fit warm basis by dual-simplex
/// pivots on the basis tree.
///
/// The tree holds a spanning-tree basis whose flows (derived from the new
/// marginals by leaf peeling) may be negative. Each iteration picks the
/// most negative basic edge as the *leaving* edge `L = (r, c)`; deleting
/// it splits the tree into the component of `r` and the component of `c`.
/// The *entering* edge is the minimum-reduced-cost cell `(i, j)` with `i`
/// in `c`'s component and `j`'s demand node in `r`'s component — the
/// unique orientation whose cycle pushes flow **onto** `L`, driving it to
/// exactly zero with `theta = -flow(L) > 0`. When the previous solve used
/// the same cost matrix the basis is dual-feasible (all reduced costs
/// non-negative) and this is the textbook dual simplex: primal
/// feasibility is restored in a handful of pivots and the result is
/// already optimal. With different costs it still terminates at a
/// feasible basis for the primal loop to finish from.
///
/// A dual-feasible basis prices the new marginals at
/// `Σ uᵢsᵢ + Σ vⱼdⱼ = Σ flow·cost`, a lower bound on the optimum that
/// each pivot raises by `theta` times the entering reduced cost. The
/// repair keeps that running objective and, once it passes `cutoff` by
/// [`CUT_MARGIN`], asks `certified_lower_bound` whether the basis at
/// hand really proves `optimum > cutoff`; only a certificate ends the
/// repair early. A failed certificate (the inherited basis was not
/// dual-feasible, so the running objective bounds nothing) stops the
/// test for the rest of the solve.
///
/// Returns [`Repair::Feasible`] once every basic flow is non-negative
/// (tiny negatives within `WARM_FEASIBILITY` clamped), [`Repair::Cut`] on a
/// certified bound above `cutoff`, [`Repair::Abandoned`] when the repair
/// cap is exceeded or no entering candidate exists, and a typed error
/// when `budget` fires mid-repair. Every pivot, whatever the ending, is
/// tallied in `tally.repair`.
fn dual_repair(
    problem: &TransportProblem,
    budget: &Budget,
    cutoff: f64,
    tree: &mut BasisTree,
    scratch: &mut PivotScratch,
    tally: &mut PivotTally,
) -> Result<Repair, TransportError> {
    let m = problem.num_sources();
    let n = problem.num_targets();
    // Repairs beyond this bound mean the old basis carries no useful
    // information for the new marginals; Vogel is cheaper at that point.
    let max_repairs = 4 * (m + n) + 16;
    let limited = !budget.is_unlimited();
    let mut pending_pivots: u64 = 0;

    // Duals are computed once and then maintained incrementally: a dual
    // pivot with entering reduced cost `rc` shifts every dual on the
    // marked component by `rc` (supplies up, demands down), which keeps
    // `u[i] + v[j] = cost(i, j)` on every surviving basic cell without
    // re-traversing the tree. The primal loop recomputes duals from
    // scratch afterwards, so the accumulated rounding never reaches the
    // optimality test.
    tree.duals(|i, j| problem.cost(i, j), &mut scratch.u, &mut scratch.v);

    let mut objective: f64 = tree
        .cells()
        .zip(tree.flows())
        .map(|((row, col), &flow)| flow * problem.cost(row, col))
        .sum();
    let mut trigger = CUT_MARGIN.mul_add(cutoff.abs(), cutoff);

    for _ in 0..max_repairs {
        if objective > trigger {
            emd_obs::counter_add("transport.warm.cut_checks", 1);
            let lower_bound = certified_lower_bound(problem, tree, scratch);
            if lower_bound > cutoff {
                budget.settle_pivots(pending_pivots);
                return Ok(Repair::Cut { lower_bound });
            }
            trigger = f64::INFINITY;
        }
        // Most negative basic flow leaves; first-minimal in slot order
        // keeps the scan deterministic under ties.
        let mut leaving: Option<usize> = None;
        let mut worst = -WARM_FEASIBILITY;
        for (id, &flow) in tree.flows().iter().enumerate() {
            if flow < worst {
                worst = flow;
                leaving = Some(id);
            }
        }
        let Some(leaving) = leaving else {
            // Primal-feasible: clamp the tiny negatives the scan ignored
            // so the ratio test never sees a negative basic flow.
            for flow in tree.flows_mut() {
                *flow = flow.max(0.0);
            }
            budget.settle_pivots(pending_pivots);
            return Ok(Repair::Feasible);
        };
        if limited {
            pending_pivots += 1;
            if pending_pivots >= CHECK_INTERVAL {
                budget
                    .charge_pivots(pending_pivots)
                    .map_err(budget_exhausted)?;
                pending_pivots = 0;
            }
        }

        let theta = -worst;
        // Component of the demand endpoint of L, with L deleted.
        tree.mark_cut(leaving, &mut scratch.side);
        let (row_side, col_side) = scratch.side.split_at(m);
        // Entering candidates cross the cut against L's orientation: row
        // in c's component, demand node in r's component.
        let entering = repair_entering(
            problem.costs(),
            &scratch.u,
            &scratch.v,
            row_side,
            col_side,
            &mut scratch.cut_v,
            &mut scratch.cut_rows,
        );
        let Some((ei, ej, best)) = entering else {
            // Structurally impossible for connected tableaus with positive
            // marginals; bail to the cold path rather than loop.
            budget.settle_pivots(pending_pivots);
            return Ok(Repair::Abandoned);
        };
        tally.repair += 1;

        // The cycle of the entering edge crosses the cut exactly once —
        // through L, oriented so L's flow gains theta and lands on zero.
        // Signs alternate exactly as in the primal pivot, but without the
        // non-negativity clamp: other edges may legitimately go negative
        // and be repaired by a later iteration.
        tree.cycle_into(tree.demand_node(ej), ei, &mut scratch.path);
        let flows = tree.flows_mut();
        for (k, &id) in scratch.path.iter().enumerate() {
            let flow = &mut flows[id]; // bounds: path holds slot ids < m + n - 1 = flows.len()
            if k % 2 == 0 {
                *flow -= theta;
            } else {
                *flow += theta;
            }
        }
        tree.pivot(leaving, ei, ej, theta);
        objective += theta * best;
        // Re-anchor the duals of the absorbed component: shifting supplies
        // up and demands down by the entering reduced cost restores
        // `u + v = cost` on the new basic cell and leaves every other
        // basic cell's equation untouched.
        shift_marked(&mut scratch.u, row_side, best);
        shift_marked(&mut scratch.v, col_side, -best);
    }

    budget.settle_pivots(pending_pivots);
    Ok(Repair::Abandoned)
}

/// Independent accumulators of the entering scan's row minima: wide
/// enough to fill the vector unit, so a row is a run of packed selects
/// rather than a chain of dependent compares.
const LANES: usize = 8;

/// `candidate` if it is strictly below `least`, else `least`: the
/// strict-`<` rule of a first-minimum scan as a select, which never
/// takes a NaN.
fn lesser(least: f64, candidate: f64) -> f64 {
    if candidate < least {
        candidate
    } else {
        least
    }
}

/// The least reduced cost `c - ui - vj` of one tableau row against the
/// column duals `v`; `+∞` when there is none.
fn least_reduced(row: &[f64], ui: f64, v: &[f64]) -> f64 {
    let mut lanes = [f64::INFINITY; LANES];
    let (costs, duals) = (row.chunks_exact(LANES), v.chunks_exact(LANES));
    let tail = costs
        .remainder()
        .iter()
        .zip(duals.remainder())
        .fold(f64::INFINITY, |a, (&c, &vj)| lesser(a, c - ui - vj));
    for (costs, duals) in costs.zip(duals) {
        for ((lane, &c), &vj) in lanes.iter_mut().zip(costs).zip(duals) {
            *lane = lesser(*lane, c - ui - vj);
        }
    }
    lanes.iter().fold(tail, |a, &b| lesser(a, b))
}

/// The entering cell of a dual-repair pivot and its reduced cost: the
/// first cell in row-major order of least `c - u[i] - v[j]` among rows
/// marked in `row_side` and columns unmarked in `col_side`, or `None`
/// when no such cell has a reduced cost below `+∞`.
///
/// `cut_v` is rebuilt as `v` with the marked columns masked to `-∞`, so
/// their reduced costs are `+∞`, and `cut_rows` as the marked rows, each
/// of which is scanned in full, branch-free, in independent lanes; a
/// second pass locates the first cell of the winning row that equals the
/// least value. Floating-point minima are exact, so that value does not
/// depend on the order it is taken in; the first row whose minimum
/// equals it, and the first cell of that row that does, is the cell a
/// strict-`<` row-major scan keeps, since every earlier cell is strictly
/// larger. The reduced cost is recomputed at that cell, so its sign of
/// zero is the cell's own whichever zero the lanes returned.
pub(crate) fn repair_entering(
    costs: &[f64],
    u: &[f64],
    v: &[f64],
    row_side: &[bool],
    col_side: &[bool],
    cut_v: &mut Vec<f64>,
    cut_rows: &mut Vec<usize>,
) -> Option<(usize, usize, f64)> {
    cut_v.clear();
    cut_v.extend(
        v.iter()
            .zip(col_side)
            .map(|(&vj, &marked)| if marked { f64::NEG_INFINITY } else { vj }),
    );
    // Every row is written at the cursor and only a marked one advances
    // it: the list is built, and then walked, with no branch on the marks.
    cut_rows.clear();
    cut_rows.resize(row_side.len(), 0);
    let mut marked_rows = 0;
    for (i, &marked) in row_side.iter().enumerate() {
        cut_rows[marked_rows] = i; // bounds: marked_rows <= i < row_side.len() = cut_rows.len()
        marked_rows += usize::from(marked);
    }
    cut_rows.truncate(marked_rows);
    let n = v.len();
    let mut best = f64::INFINITY;
    let mut best_row = None;
    for &i in cut_rows.iter() {
        // bounds: i < m = u.len(), and costs holds m rows of n
        let (row, ui) = (&costs[i * n..(i + 1) * n], u[i]);
        let least = least_reduced(row, ui, cut_v);
        if least < best {
            best = least;
            best_row = Some((i, row, ui));
        }
    }
    let (i, row, ui) = best_row?;
    row.iter()
        .zip(cut_v.iter())
        .enumerate()
        .find_map(|(j, (&c, &vj))| {
            let reduced = c - ui - vj;
            // float: exact — `best` is one of this row's reduced costs, computed by the same expression
            (reduced == best).then_some((i, j, reduced))
        })
}

/// Add `delta` to every dual whose node is marked in `side`, as a select
/// rather than a branch: a marked dual becomes `x + delta`, any other
/// keeps its bits. The marks are the two sides of a cut, with no pattern
/// a branch predictor could learn.
pub(crate) fn shift_marked(duals: &mut [f64], side: &[bool], delta: f64) {
    for (dual, &marked) in duals.iter_mut().zip(side) {
        *dual = if marked { *dual + delta } else { *dual };
    }
}

/// Run MODI pivots on `tree` until optimality, at most `limit` of them
/// (clamped to [`hard_iteration_cap`]), each tallied in `tally`. The tree
/// then holds an optimal basis (flows included, though callers re-derive
/// them canonically).
fn pivot_to_optimum(
    problem: &TransportProblem,
    limit: usize,
    budget: &Budget,
    tree: &mut BasisTree,
    scratch: &mut PivotScratch,
    tally: &mut PivotTally,
) -> Result<(), TransportError> {
    let m = problem.num_sources();
    let n = problem.num_targets();
    let max_iterations = limit.min(hard_iteration_cap(m, n));
    let limited = !budget.is_unlimited();
    let mut pending_pivots: u64 = 0;
    let mut performed: u64 = 0;

    let mut degenerate_run = 0usize;
    // `performed` counts this call's pivots against the cap; the tally
    // may already hold other loops' pivots of the same solve.
    while performed < u64::try_from(max_iterations).unwrap_or(u64::MAX) {
        tree.duals(|i, j| problem.cost(i, j), &mut scratch.u, &mut scratch.v);

        let use_bland = degenerate_run >= DEGENERATE_PIVOT_LIMIT;
        let entering = find_entering(problem.costs(), &scratch.u, &scratch.v, use_bland);
        let Some((ei, ej)) = entering else {
            // Optimum reached: settle the uncharged pivot remainder so the
            // shared pool stays accurate, but never fail a finished solve.
            budget.settle_pivots(pending_pivots);
            return Ok(());
        };
        if limited {
            pending_pivots += 1;
            if pending_pivots >= CHECK_INTERVAL {
                budget
                    .charge_pivots(pending_pivots)
                    .map_err(budget_exhausted)?;
                pending_pivots = 0;
            }
        }
        performed += 1;
        tally.primal += 1;
        if use_bland {
            tally.bland += 1;
        }

        // The entering edge (ei, ej) closes a cycle with the tree path from
        // demand node of ej back to supply node ei. Walking the cycle from
        // the entering edge, signs alternate starting with '-' on the first
        // path edge (it shares the demand node with the entering '+' edge).
        tree.cycle_into(tree.demand_node(ej), ei, &mut scratch.path);

        let flows = tree.flows_mut();
        let mut theta = f64::INFINITY;
        let mut leaving: Option<usize> = None;
        // Strict '<' keeps the first minimal '-' edge in path order, which
        // together with Bland pricing yields a terminating pivot rule.
        for &id in scratch.path.iter().step_by(2) {
            let flow = flows[id]; // bounds: path holds slot ids < m + n - 1 = flows.len()
            if flow < theta {
                theta = flow;
                leaving = Some(id);
            }
        }
        let Some(leaving) = leaving else {
            // The cycle alternates signs starting with '-', so a missing
            // leaving edge means the basis tree lost an edge: a solver
            // bug, reported rather than panicking.
            return Err(TransportError::Internal {
                detail: "pivot cycle has no '-' edge to leave the basis",
            });
        };

        for (k, &id) in scratch.path.iter().enumerate() {
            let flow = &mut flows[id]; // bounds: path holds slot ids < m + n - 1 = flows.len()
            if k % 2 == 0 {
                *flow = (*flow - theta).max(0.0);
            } else {
                *flow += theta;
            }
        }
        tree.pivot(leaving, ei, ej, theta);

        if theta <= EPS {
            degenerate_run += 1;
            tally.degenerate += 1;
        } else {
            degenerate_run = 0;
        }
    }

    budget.settle_pivots(pending_pivots);
    Err(TransportError::IterationLimit {
        iterations: max_iterations,
    })
}

/// Price the non-basic cells over the flat row-major cost buffer. Returns
/// the entering cell or `None` at optimality. Cells currently in the basis
/// have reduced cost ~0 and are naturally skipped by the negativity test.
///
/// The scan walks `costs` contiguously (`chunks_exact` rows zipped with
/// the dual slices), so the inner loop carries no bounds checks and
/// autovectorizes; the comparison order is identical to the classic
/// doubly-indexed formulation, preserving Dantzig/Bland tie-breaking
/// bit-for-bit.
fn find_entering(costs: &[f64], u: &[f64], v: &[f64], bland: bool) -> Option<(usize, usize)> {
    let n = v.len();
    let mut best: Option<(usize, usize)> = None;
    let mut best_reduced = -OPTIMALITY_TOLERANCE;
    for (i, (row, &ui)) in costs.chunks_exact(n).zip(u).enumerate() {
        for (j, (&c, &vj)) in row.iter().zip(v).enumerate() {
            let reduced = c - ui - vj;
            if reduced < best_reduced {
                if bland {
                    // First (lexicographically smallest) improving cell.
                    return Some((i, j));
                }
                best_reduced = reduced;
                best = Some((i, j));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::{certify_solution, CERT_EPS};

    fn solve_unwrap(supplies: Vec<f64>, demands: Vec<f64>, costs: Vec<f64>) -> Solution {
        let problem = TransportProblem::new(supplies, demands, costs);
        let solution = solve(&problem).unwrap();
        assert_eq!(certify_solution(&problem, &solution, CERT_EPS), Ok(()));
        solution
    }

    #[test]
    fn identity_costs_zero() {
        let solution = solve_unwrap(
            vec![0.25, 0.25, 0.5],
            vec![0.25, 0.25, 0.5],
            vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0],
        );
        assert!(solution.objective.abs() < 1e-12);
    }

    #[test]
    fn textbook_instance() {
        // Classic 3x4 instance (Taha's): optimum 435, which the SSP oracle
        // confirms (`tests/proptest_solvers.rs::textbook_instance_matches_ssp`).
        let supplies = vec![15.0, 25.0, 10.0];
        let demands = vec![5.0, 15.0, 15.0, 15.0];
        let costs = vec![
            10.0, 2.0, 20.0, 11.0, //
            12.0, 7.0, 9.0, 20.0, //
            4.0, 14.0, 16.0, 18.0,
        ];
        let solution = solve_unwrap(supplies, demands, costs);
        assert!((solution.objective - 435.0).abs() < 1e-9);
    }

    #[test]
    fn paper_figure_one_x_vs_y() {
        // Figure 1 of the paper: EMD(x, y) = 1.0 with |i-j| ground distance.
        let x = vec![0.5, 0.0, 0.2, 0.0, 0.3, 0.0];
        let y = vec![0.0, 0.5, 0.0, 0.2, 0.0, 0.3];
        let costs: Vec<f64> = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i as f64 - j as f64).abs()))
            .collect();
        let solution = solve_unwrap(x, y, costs);
        assert!((solution.objective - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_figure_one_x_vs_z() {
        // Figure 1 of the paper: EMD(x, z) = 1.6.
        let x = vec![0.5, 0.0, 0.2, 0.0, 0.3, 0.0];
        let z = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let costs: Vec<f64> = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i as f64 - j as f64).abs()))
            .collect();
        let solution = solve_unwrap(x, z, costs);
        assert!((solution.objective - 1.6).abs() < 1e-12);
    }

    #[test]
    fn single_row_and_column() {
        let s = solve_unwrap(vec![1.0], vec![0.5, 0.5], vec![2.0, 4.0]);
        assert!((s.objective - 3.0).abs() < 1e-12);
        let s = solve_unwrap(vec![0.5, 0.5], vec![1.0], vec![2.0, 4.0]);
        assert!((s.objective - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rectangular_tableau() {
        let s = solve_unwrap(
            vec![0.5, 0.5],
            vec![0.2, 0.3, 0.5],
            vec![1.0, 2.0, 3.0, 3.0, 2.0, 1.0],
        );
        // Optimal: x0 -> y0 (0.2 * 1), x0 -> y1 (0.3 * 2), x1 -> y2 (0.5 * 1)
        assert!((s.objective - 1.3).abs() < 1e-12);
    }

    #[test]
    fn degenerate_masses() {
        // Many zero supplies/demands and exactly matching masses.
        let s = solve_unwrap(
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
            (0..16)
                .map(|k| ((k / 4) as f64 - (k % 4) as f64).abs())
                .collect(),
        );
        assert!((s.objective - 1.0).abs() < 1e-12);
    }

    /// The primal loop alone, from a Vogel basis, under an explicit pivot
    /// limit — the parameter `solve_warm_objective` fills with
    /// `iteration_limit`. Returns the pivot count.
    fn pivot_with_limit(problem: &TransportProblem, limit: usize) -> Result<u64, TransportError> {
        let mut ws = SolverWorkspace::new();
        ws.tree.reset(
            problem.num_sources(),
            problem.num_targets(),
            vogel::initial_basis(problem).cells.iter().copied(),
        );
        let mut tally = PivotTally::default();
        pivot_to_optimum(
            problem,
            limit,
            &Budget::unlimited(),
            &mut ws.tree,
            &mut ws.pivot,
            &mut tally,
        )?;
        Ok(tally.primal)
    }

    #[test]
    fn iteration_limit_reported() {
        let problem = TransportProblem::new(
            vec![0.3, 0.3, 0.4],
            vec![0.2, 0.5, 0.3],
            vec![4.0, 1.0, 3.0, 2.0, 5.0, 2.0, 3.0, 3.0, 1.0],
        );
        assert_eq!(
            pivot_with_limit(&problem, 0).unwrap_err(),
            TransportError::IterationLimit { iterations: 0 }
        );
    }

    #[test]
    fn solution_flows_are_positive() {
        let s = solve_unwrap(vec![0.5, 0.5], vec![0.5, 0.5], vec![0.0, 1.0, 1.0, 0.0]);
        assert!(s.flows.iter().all(|&(_, _, f)| f > 0.0));
        assert!(s.objective.abs() < 1e-12);
    }

    #[test]
    fn flows_are_sorted_by_cell() {
        // Canonical extraction reports flows in (row, col) order.
        let s = solve_unwrap(
            vec![0.3, 0.3, 0.4],
            vec![0.2, 0.5, 0.3],
            vec![4.0, 1.0, 3.0, 2.0, 5.0, 2.0, 3.0, 3.0, 1.0],
        );
        let cells: Vec<_> = s.flows.iter().map(|&(i, j, _)| (i, j)).collect();
        let mut sorted = cells.clone();
        sorted.sort_unstable();
        assert_eq!(cells, sorted);
    }

    fn textbook_problem() -> TransportProblem {
        TransportProblem::new(
            vec![15.0, 25.0, 10.0],
            vec![5.0, 15.0, 15.0, 15.0],
            vec![
                10.0, 2.0, 20.0, 11.0, //
                12.0, 7.0, 9.0, 20.0, //
                4.0, 14.0, 16.0, 18.0,
            ],
        )
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_unbudgeted() {
        // `solve` is the unlimited call; a budget that is probed and
        // charged but never fires must not move a pivot either.
        let problem = textbook_problem();
        let plain = solve(&problem).unwrap();
        let generous = Budget::unlimited().with_pivot_cap(1 << 20);
        let budgeted = solve_warm(&problem, &generous, &mut SolverWorkspace::new()).unwrap();
        assert!(
            generous.pivots_used() > 0,
            "the generous budget was charged"
        );
        assert_eq!(plain.objective.to_bits(), budgeted.objective.to_bits());
        assert_eq!(plain.flows, budgeted.flows);
    }

    #[test]
    fn warm_solve_matches_cold_on_repeat() {
        // Solving the same instance twice through one workspace: the
        // second solve re-optimizes from the stored optimal basis (zero
        // pivots) and must return bit-identical results.
        let problem = textbook_problem();
        let mut ws = SolverWorkspace::new();
        let cold = solve_warm(&problem, &Budget::unlimited(), &mut ws).unwrap();
        let pivots_cold = ws.stats().pivots;
        let warm = solve_warm(&problem, &Budget::unlimited(), &mut ws).unwrap();
        assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
        assert_eq!(cold.flows, warm.flows);
        let stats = ws.stats();
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.warm_attempts, 1);
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(
            stats.pivots, pivots_cold,
            "re-solving from the optimal basis needs no pivots"
        );
    }

    #[test]
    fn warm_solve_matches_cold_across_demand_changes() {
        // Same supply marginal, different demand marginals: the KNOP
        // access pattern. Warm results must equal cold results to the bit.
        let supplies = vec![0.25, 0.35, 0.4];
        let costs = vec![
            0.31, 0.77, 0.13, 0.52, //
            0.64, 0.08, 0.95, 0.23, //
            0.47, 0.59, 0.36, 0.81,
        ];
        let demand_sets = [
            vec![0.2, 0.3, 0.4, 0.1],
            vec![0.4, 0.1, 0.25, 0.25],
            vec![0.05, 0.45, 0.3, 0.2],
            vec![0.3, 0.3, 0.3, 0.1],
        ];
        let mut ws = SolverWorkspace::new();
        for demands in &demand_sets {
            let problem = TransportProblem::new(supplies.clone(), demands.clone(), costs.clone());
            let cold = solve(&problem).unwrap();
            let warm = solve_warm(&problem, &Budget::unlimited(), &mut ws).unwrap();
            assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
            assert_eq!(cold.flows, warm.flows);
        }
        assert_eq!(ws.stats().warm_attempts, 3);
    }

    #[test]
    fn warm_falls_back_to_cold_on_shape_change() {
        let mut ws = SolverWorkspace::new();
        let p1 = textbook_problem();
        solve_warm(&p1, &Budget::unlimited(), &mut ws).unwrap();
        // Different shape: no warm attempt, still correct.
        let p2 = TransportProblem::new(
            vec![0.5, 0.5],
            vec![0.2, 0.3, 0.5],
            vec![1.0, 2.0, 3.0, 3.0, 2.0, 1.0],
        );
        let warm = solve_warm(&p2, &Budget::unlimited(), &mut ws).unwrap();
        assert!((warm.objective - 1.3).abs() < 1e-12);
        assert_eq!(ws.stats().warm_attempts, 0);
        assert!(ws.has_warm_basis(2, 3));
    }

    #[test]
    fn cancelled_budget_fails_at_entry() {
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let err =
            solve_warm(&textbook_problem(), &budget, &mut SolverWorkspace::new()).unwrap_err();
        assert_eq!(
            err,
            TransportError::BudgetExhausted {
                reason: BudgetReason::Cancelled
            }
        );
    }

    #[test]
    fn expired_deadline_fails_at_entry() {
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let err =
            solve_warm(&textbook_problem(), &budget, &mut SolverWorkspace::new()).unwrap_err();
        assert_eq!(
            err,
            TransportError::BudgetExhausted {
                reason: BudgetReason::Deadline
            }
        );
    }

    #[test]
    fn pivot_pool_spans_successive_solves() {
        // One solve settles its pivots into the shared pool without
        // failing; the next solve's entry probe sees the exhausted cap.
        let problem = textbook_problem();
        let budget = Budget::unlimited().with_pivot_cap(1);
        let first = solve_warm(&problem, &budget, &mut SolverWorkspace::new()).unwrap();
        assert!(budget.pivots_used() >= 1, "textbook instance must pivot");
        assert!(first.objective <= 455.0 + 1e-9);
        // Each successful solve settles its pivots into the shared pool; once
        // the pool exceeds the cap, the next solve fails at its entry probe.
        let mut exhausted = None;
        for _ in 0..8 {
            if let Err(err) = solve_warm(&problem, &budget, &mut SolverWorkspace::new()) {
                exhausted = Some(err);
                break;
            }
        }
        assert_eq!(
            exhausted,
            Some(TransportError::BudgetExhausted {
                reason: BudgetReason::PivotCap
            })
        );
    }

    /// Every pivot a solve performs is counted once it returns, whatever
    /// the exit: the `transport.*` counters of one solve equal its
    /// `WorkspaceStats` deltas — here with a pivot cap firing mid-repair
    /// (warm) and mid-primal (cold), then with the solves run to the end.
    #[test]
    fn counters_equal_stats_deltas_on_every_exit() {
        // A line of 24 bins, mass swung from one end to the other: the
        // warm basis needs a long repair.
        let n = 24;
        let line: Vec<f64> = (0..n * n)
            .map(|k| ((k / n) as f64 - (k % n) as f64).abs())
            .collect();
        let ramp = |rising: bool| -> Vec<f64> {
            let raw: Vec<f64> = (0..n)
                .map(|j| if rising { j + 1 } else { n - j } as f64)
                .map(|w| w * w)
                .collect();
            let total: f64 = raw.iter().sum();
            raw.iter().map(|w| w / total).collect()
        };
        let problem =
            |rising: bool| TransportProblem::new(ramp(!rising), ramp(rising), line.clone());
        let (first, swung) = (problem(false), problem(true));
        let mut warm = SolverWorkspace::new();
        solve_warm(&first, &Budget::unlimited(), &mut warm).unwrap();
        // Scrambled costs on 96 uniform bins: a long primal run from the
        // Vogel basis.
        let bins = 96;
        let scrambled: Vec<f64> = (0..bins * bins)
            .map(|k| ((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54) as f64)
            .collect();
        let uniform = vec![1.0 / bins as f64; bins];
        let scrambled = TransportProblem::new(uniform.clone(), uniform, scrambled);

        let counted = |workspace: &mut SolverWorkspace, problem, budget: &Budget| {
            let before = workspace.stats();
            let recording = emd_obs::Recording::start();
            let solved = solve_warm(problem, budget, workspace);
            let registry = recording.finish();
            let after = workspace.stats();
            let repair = registry.counter("transport.warm.repair_pivots");
            let primal = registry.counter("transport.simplex.pivots");
            assert_eq!(repair, after.repair_pivots - before.repair_pivots);
            assert_eq!(primal + repair, after.pivots - before.pivots);
            (solved.map(|s| s.objective), repair, primal)
        };
        // A fresh pool each time: the first charge of 64 pivots fires it,
        // before the 64th pivot runs.
        let capped = || Budget::unlimited().with_pivot_cap(1);
        let fired = Err(TransportError::BudgetExhausted {
            reason: BudgetReason::PivotCap,
        });
        let (solved, repair, primal) = counted(&mut warm.clone(), &swung, &capped());
        assert_eq!(
            (solved, repair, primal),
            (fired.clone(), CHECK_INTERVAL - 1, 0)
        );
        let (solved, repair, primal) = counted(&mut SolverWorkspace::new(), &scrambled, &capped());
        assert_eq!((solved, repair, primal), (fired, 0, CHECK_INTERVAL - 1));

        let (solved, repair, _) = counted(&mut warm, &swung, &Budget::unlimited());
        assert!(solved.is_ok() && repair >= CHECK_INTERVAL);
        let (solved, _, primal) = counted(
            &mut SolverWorkspace::new(),
            &scrambled,
            &Budget::unlimited(),
        );
        assert!(solved.is_ok() && primal >= CHECK_INTERVAL);
    }

    #[test]
    fn requested_iteration_limit_is_clamped_to_hard_cap() {
        // Even an effectively unbounded request cannot exceed the hard cap,
        // so a degenerate-cycling instance reports IterationLimit with the
        // clamped budget instead of hanging.
        let problem = textbook_problem();
        let pivots = pivot_with_limit(&problem, usize::MAX).unwrap();
        assert!(pivots <= hard_iteration_cap(3, 4) as u64);
        assert_eq!(hard_iteration_cap(3, 4), 100 * 49 + 4096);
        assert!(iteration_limit(3, 4) < hard_iteration_cap(3, 4));
    }
}
