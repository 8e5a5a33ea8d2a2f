//! Long warm chains through one [`SolverWorkspace`]: the steady state of
//! the KNOP refinement loop, where almost every solve is a dual-simplex
//! repair of the previous candidate's basis.
//!
//! Each chain solves 50+ consecutive demand marginals against one supply
//! marginal. The steps mix small drifts, zero-mass bins stripped to
//! different tableau shapes, exact repeats, single-bin demands (`m x 1`)
//! and mass swung from one end of the bins to the other — the last kind
//! is what exhausts the repair cap and falls back to a Vogel start. Every
//! objective is checked against the structurally unrelated SSP solver and
//! every solution against the conservation certificate.
//!
//! [`pivot_sequence_is_pinned`] additionally fixes the work counters and
//! an objective checksum of three seeded chains. The counters were
//! recorded with the adjacency-list basis tree this crate used before the
//! rooted tree: a change to a pivot rule or a tie-break moves them, so it
//! fails here instead of silently moving one-ulp ties in query answers.
//! The flow checksums beside them were recorded at the parent of the
//! cutoff change: a solve without a cutoff is that solve still. The
//! objective checksums were recorded when the objective became the final
//! basis' dual value instead of its primal sum, which moves last bits of
//! the objective but no pivot and no flow.
//!
//! The cutoff suites run the same chains under random cutoffs — below,
//! at and above each step's optimum — and hold every verdict against
//! SSP: a cut proves `cutoff < bound <= optimum`, an uncut solve is the
//! solve without a cutoff to the bit, and the chain behind a cut (which
//! continues from the cut basis) keeps returning optima.
//!
//! [`warm_and_cold_agree_on_sub_eps_residuals`] pins the warm/cold
//! contract ([`objective_slack`]) on the one measured pair that broke it
//! while the objective sum dropped flows below `EPS`.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use super::ssp::solve_ssp;
use crate::budget::Budget;
use crate::certify::{certify_solution, CERT_EPS};
use crate::objective_slack;
use crate::problem::TransportProblem;
use crate::simplex::{solve, solve_warm, solve_warm_objective, Bounded};
use crate::workspace::{SolverWorkspace, WorkspaceStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which ground cost a chain runs under.
#[derive(Debug, Clone, Copy)]
enum Costs {
    /// `|i - j|` on a line: integer costs, massively tied reduced costs —
    /// the regime where entering/leaving tie-breaks decide the basis.
    Line,
    /// Continuous random costs: generically unique optima.
    Continuous,
}

/// The problems of one seeded chain: a fixed supply marginal of `m` bins
/// against `steps` demand marginals over at most `n` bins (zero-mass bins
/// are stripped, so the tableau shape varies along the chain).
fn chain(seed: u64, m: usize, n: usize, steps: usize, costs: Costs) -> Vec<TransportProblem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let supplies = normalized((0..m).map(|_| rng.gen_range(0.05..1.0)).collect());
    let full_costs: Vec<f64> = match costs {
        Costs::Line => (0..m * n)
            .map(|k| ((k / n) as f64 - (k % n) as f64).abs())
            .collect(),
        Costs::Continuous => (0..m * n).map(|_| rng.gen_range(0.01..10.0)).collect(),
    };
    let mut raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
    let mut problems = Vec::with_capacity(steps);
    for step in 0..steps {
        match rng.gen_range(0..8usize) {
            // Repeat the previous instance exactly.
            0 if step > 0 => {}
            // Strip a random subset of bins: a different tableau shape.
            1 => {
                for mass in &mut raw {
                    *mass = if rng.gen_bool(0.3) {
                        0.0
                    } else {
                        rng.gen_range(0.05..1.0)
                    };
                }
            }
            // Swing all mass to one end: the old basis is useless.
            2 => {
                let low_end = step % 2 == 0;
                for (j, mass) in raw.iter_mut().enumerate() {
                    let near = if low_end { j < n / 4 } else { j >= n - n / 4 };
                    *mass = if near { rng.gen_range(0.5..1.0) } else { 1e-9 };
                }
            }
            // A single-bin demand: an `m x 1` tableau.
            3 if step % 5 == 0 => {
                raw.iter_mut().for_each(|mass| *mass = 0.0);
                raw[rng.gen_range(0..n)] = 1.0;
            }
            // Drift: the neighbouring-candidate case repair is built for.
            _ => {
                for mass in &mut raw {
                    *mass = (*mass).max(0.02) * rng.gen_range(0.8..1.25);
                }
            }
        }
        if raw.iter().all(|&mass| mass <= 0.0) {
            raw[step % n] = 1.0;
        }
        let kept: Vec<usize> = (0..n).filter(|&j| raw[j] > 0.0).collect();
        let demands = normalized(kept.iter().map(|&j| raw[j]).collect());
        let stripped_costs = (0..m)
            .flat_map(|i| kept.iter().map(move |&j| (i, j)))
            .map(|(i, j)| full_costs[i * n + j])
            .collect();
        problems.push(TransportProblem::new(
            supplies.clone(),
            demands,
            stripped_costs,
        ));
    }
    problems
}

fn normalized(raw: Vec<f64>) -> Vec<f64> {
    let total: f64 = raw.iter().sum();
    raw.iter().map(|x| x / total).collect()
}

/// Solve a chain through one workspace, checking every step against SSP
/// and the certificate. Returns the workspace counters, a checksum of
/// the objectives' bit patterns and one of the flows'.
fn run_chain(problems: &[TransportProblem]) -> (WorkspaceStats, u64, u64) {
    let mut ws = SolverWorkspace::new();
    let mut checksum = 0u64;
    let mut flow_checksum = 0u64;
    for (step, problem) in problems.iter().enumerate() {
        let warm = solve_warm(problem, &Budget::unlimited(), &mut ws).expect("warm solve succeeds");
        let reference = solve_ssp(problem).expect("ssp solves valid instances");
        assert!(
            (warm.objective - reference.objective).abs() < 1e-9,
            "step {step}: simplex {} != ssp {}",
            warm.objective,
            reference.objective
        );
        assert!(
            certify_solution(problem, &warm, CERT_EPS).is_ok(),
            "step {step}: certificate failed"
        );
        checksum = checksum.rotate_left(7) ^ warm.objective.to_bits();
        for &(row, col, flow) in &warm.flows {
            flow_checksum =
                flow_checksum.rotate_left(7) ^ flow.to_bits() ^ ((row as u64) << 32 | col as u64);
        }
    }
    (ws.stats(), checksum, flow_checksum)
}

/// Solve a chain through one workspace under seeded cutoffs, checking
/// every verdict. Returns how many solves were cut.
fn run_chain_with_cutoffs(problems: &[TransportProblem], seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ws = SolverWorkspace::new();
    let mut cuts = 0;
    for (step, problem) in problems.iter().enumerate() {
        let optimum = solve_ssp(problem)
            .expect("ssp solves valid instances")
            .objective;
        let cutoff = match rng.gen_range(0..4usize) {
            // A tie: no bound can be strictly above the optimum itself.
            0 => optimum,
            // No cutoff at all.
            1 => f64::INFINITY,
            _ => optimum * rng.gen_range(0.0..1.6),
        };
        let mut uncut = ws.clone();
        let verdict = solve_warm_objective(problem, &Budget::unlimited(), cutoff, &mut ws)
            .expect("warm solve succeeds");
        match verdict {
            Bounded::Above(bound) => {
                cuts += 1;
                assert!(
                    cutoff < bound && bound <= optimum + 1e-12,
                    "step {step}: cut at {cutoff} on {bound}, ssp optimum {optimum}"
                );
            }
            Bounded::Optimal(objective) => {
                assert!(
                    (objective - optimum).abs() < 1e-9,
                    "step {step}: simplex {objective} != ssp {optimum}"
                );
                let reference =
                    solve_warm_objective(problem, &Budget::unlimited(), f64::INFINITY, &mut uncut)
                        .expect("warm solve succeeds");
                assert_eq!(
                    reference,
                    Bounded::Optimal(objective),
                    "step {step}: cutoff {cutoff}"
                );
                let (supplies, demands) = (problem.supplies(), problem.demands());
                assert_eq!(
                    ws.last_solution(supplies, demands, objective),
                    uncut.last_solution(supplies, demands, objective)
                );
                assert!(
                    cutoff >= optimum || objective > cutoff,
                    "step {step}: an optimum above the cutoff is still an optimum"
                );
            }
        }
    }
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Rectangular and square chains, tied and continuous costs.
    #[test]
    fn warm_chains_match_ssp(
        seed in 0u64..u64::MAX,
        m in 2usize..=9,
        n in 2usize..=11,
        line in prop::sample::select(vec![true, false]),
    ) {
        let costs = if line { Costs::Line } else { Costs::Continuous };
        let problems = chain(seed, m, n, 50, costs);
        let (stats, _, _) = run_chain(&problems);
        prop_assert_eq!(stats.solves, 50);
        prop_assert!(stats.warm_hits <= stats.warm_attempts);
        prop_assert!(stats.repair_pivots <= stats.pivots);
        run_chain_with_cutoffs(&problems, seed);
    }

    /// Larger tied-cost chains: the size at which swings exhaust the
    /// repair cap (`4 (m + n) + 16` dual pivots) and the solve restarts
    /// from a Vogel basis.
    #[test]
    fn large_tied_chains_match_ssp(seed in 0u64..u64::MAX, m in 20usize..=28, n in 20usize..=28) {
        let problems = chain(seed, m, n, 50, Costs::Line);
        let (stats, _, _) = run_chain(&problems);
        prop_assert_eq!(stats.solves, 50);
        prop_assert!(stats.repair_pivots > 0);
        run_chain_with_cutoffs(&problems, seed);
    }

    /// A single supply bin: every tableau is `1 x n`, its only basis is
    /// optimal and no pivot runs.
    #[test]
    fn single_row_chains_never_pivot(seed in 0u64..u64::MAX, n in 1usize..=10) {
        let (stats, _, _) = run_chain(&chain(seed, 1, n, 50, Costs::Continuous));
        prop_assert_eq!(stats.pivots, 0);
    }

    /// Consecutive operands of equal shape over *different* supports:
    /// the demand's support slides between columns `0..n` and `1..=n`
    /// of one cost matrix, so the inherited basis matches by shape but
    /// was optimal under other costs and need not be dual-feasible. A
    /// cut must rest on the certificate, never on the running objective.
    #[test]
    fn sliding_supports_never_cut_unsoundly(
        seed in 0u64..u64::MAX,
        m in 2usize..=8,
        n in 2usize..=8,
        line in prop::sample::select(vec![true, false]),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let supplies = normalized((0..m).map(|_| rng.gen_range(0.05..1.0)).collect());
        let width = n + 1;
        let full_costs: Vec<f64> = (0..m * width)
            .map(|k| if line {
                ((k / width) as f64 - (k % width) as f64).abs()
            } else {
                rng.gen_range(0.01..10.0)
            })
            .collect();
        let problems: Vec<TransportProblem> = (0..40)
            .map(|step| {
                let first = step % 2;
                let demands = normalized((0..n).map(|_| rng.gen_range(0.05..1.0)).collect());
                let costs = (0..m)
                    .flat_map(|i| (first..first + n).map(move |j| (i, j)))
                    .map(|(i, j)| full_costs[i * width + j])
                    .collect();
                TransportProblem::new(supplies.clone(), demands, costs)
            })
            .collect();
        run_chain_with_cutoffs(&problems, seed);
    }
}

/// The cutoff suites are not vacuous: on the pinned chains a good share
/// of the solves whose cutoff lies below the optimum is cut.
#[test]
fn cutoffs_below_the_optimum_cut() {
    let cuts: usize = [
        chain(14, 12, 16, 60, Costs::Line),
        chain(15, 10, 14, 60, Costs::Continuous),
        chain(16, 24, 24, 80, Costs::Line),
    ]
    .iter()
    .zip(1u64..)
    .map(|(problems, seed)| run_chain_with_cutoffs(problems, seed))
    .sum();
    assert!(cuts >= 20, "only {cuts} of 200 solves were cut");
}

/// Work counters, objective and flow checksums of three fixed chains
/// (see the module docs for when each was recorded); equal numbers mean
/// the same pivots in the same order with the same answers. The third chain
/// abandons two repairs at the cap of `4 (24 + 24) + 16 = 208` pivots;
/// since a solve records its pivots once on every exit, those 416 count
/// in `pivots` / `repair_pivots` as they always did in the
/// `transport.*` counters (798 / 775 before).
#[test]
fn pivot_sequence_is_pinned() {
    // (chain, [solves, warm attempts, warm hits, pivots, repair pivots],
    // objective checksum, flow checksum)
    let pinned = [
        (
            chain(14, 12, 16, 60, Costs::Line),
            [60, 43, 43, 545, 520],
            0x8982_e265_d338_c016_u64,
            0x56e7_9c72_c683_4bc2,
        ),
        (
            chain(15, 10, 14, 60, Costs::Continuous),
            [60, 45, 45, 224, 154],
            0xfefa_e1cd_8023_508b,
            0x96f6_3a89_92a5_84b1,
        ),
        (
            chain(16, 24, 24, 80, Costs::Line),
            [80, 66, 64, 1_214, 1_191],
            0xe890_7585_b676_d914,
            0xd960_f309_01dc_9e6a,
        ),
    ];
    let mut fell_back = false;
    for (problems, [solves, warm_attempts, warm_hits, pivots, repair_pivots], checksum, flows) in
        pinned
    {
        let expected = WorkspaceStats {
            solves,
            warm_attempts,
            warm_hits,
            pivots,
            repair_pivots,
        };
        assert_eq!(run_chain(&problems), (expected, checksum, flows));
        fell_back |= warm_hits < warm_attempts;
    }
    assert!(fell_back, "some chain must exhaust the repair cap");
}

/// The warm/cold contract, pinned on the pair that broke it (benchmark
/// corpus `gauss32-clustered-20k`, seed 1, query 2: object 14809 solved
/// warm behind object 5903). The generator's additive floor leaves
/// ~2.3e-7 of mass on every far bin of all three histograms, equal to
/// within ~9e-13 — residual basic flows just under [`EPS`]. The Vogel
/// basis routes them across the whole chain (costs 24–31), the repaired
/// warm basis over 4–10 bins: two bases of the same optimum. Two
/// tolerances turned that into two answers. While the objective sum
/// skipped flows at or below `EPS` the solves reported
/// 0.0199843447234902 and 0.019984344851542737 — 1.28e-10 apart, 6.4e-9
/// of the distance, beyond the 1e-9 relative the benchmark's gate allows
/// — each short of the optimum by what it had dropped. And while a warm
/// basis counted as feasible down to `-EPS`, a seed that shipped such a
/// residual the wrong way was kept (reached from another predecessor,
/// the same object read 1.1e-11 low). Summed over every basic cell, from
/// a seed repaired down to 1e-14, both solves report the optimum.
#[test]
fn warm_and_cold_agree_on_sub_eps_residuals() {
    const QUERY: [u64; 32] = [
        0x3e8f0231828fdb8b,
        0x3e8f33c446cc5e28,
        0x3e927160be4713c6,
        0x3eb376293d7a8731,
        0x3eee051ae7c8f881,
        0x3f240b1d9399646b,
        0x3f5366517f6de467,
        0x3f7ae316b5e596c0,
        0x3f9aa72255b6f13c,
        0x3fb2e51f5f8240e1,
        0x3fc328bcd6b693ce,
        0x3fcbc94274cdf85e,
        0x3fccd19b074ad373,
        0x3fc560204093852f,
        0x3fb6ad3fa3b3f511,
        0x3fa13456621d500f,
        0x3f82ab5d7e059c4d,
        0x3f5cfa96858baa56,
        0x3f30186d507e363a,
        0x3ef9c52b1fa7de67,
        0x3ec06dcb49280fd2,
        0x3e95627a041096c6,
        0x3e8f6e45a1b93fb1,
        0x3e8f03cdf5f74df7,
        0x3e8f01053dfaa0c1,
        0x3e8f00f7f1681121,
        0x3e8f00f7c40b7e77,
        0x3e8f00f7c39cf762,
        0x3e8f00f7c39c36ef,
        0x3e8f00f7c39c35ff,
        0x3e8f00f7c39c35ff,
        0x3e8f00f7c39c35ff,
    ];
    const BEFORE: [u64; 32] = [
        0x3e8eecafa0e3d923,
        0x3e8f1f9dba2c919a,
        0x3e92728e4038c031,
        0x3eb38b77b35f3a55,
        0x3eedf6173ca083f5,
        0x3f23e1f16436a74f,
        0x3f532949528e8004,
        0x3f7a7da057fde5af,
        0x3f9a3e15beddaeb5,
        0x3fb2a0260f9c33b9,
        0x3fc2f1319b8f6044,
        0x3fcb9a7bfce6b9d8,
        0x3fccd1b39687892d,
        0x3fc58e84ea5f039e,
        0x3fb71ac5aef3cc6c,
        0x3fa1bde892b23b1d,
        0x3f83858fde4fbaf3,
        0x3f5ec8029500f738,
        0x3f3165caf72e57ab,
        0x3efc60382b46ece9,
        0x3ec23ea3825db935,
        0x3e963c5c12fc743a,
        0x3e8f6c789c23e7b2,
        0x3e8eeed96e61ea04,
        0x3e8eeb79a784c597,
        0x3e8eeb6911c75415,
        0x3e8eeb68d7774880,
        0x3e8eeb68d6e48e81,
        0x3e8eeb68d6e38636,
        0x3e8eeb68d6e384e1,
        0x3e8eeb68d6e384e0,
        0x3e8eeb68d6e384e0,
    ];
    const PINNED: [u64; 32] = [
        0x3e8f0243014deb1f,
        0x3e8f377b70c19576,
        0x3e92a377fb5740a0,
        0x3eb4632e9a98dfaa,
        0x3eef909af4fb3c3b,
        0x3f24f300e4e045a4,
        0x3f5424505e44a010,
        0x3f7bbaa3f390b641,
        0x3f9b4dbfc1cc5851,
        0x3fb33a1c958a498b,
        0x3fc35d8f383cc9bd,
        0x3fcbe5d552d9a71f,
        0x3fccbdc677163131,
        0x3fc52cfc995bd9be,
        0x3fb6509ee79bbaf3,
        0x3fa0d1274b5378e2,
        0x3f822096c716e7df,
        0x3f5bf3327608a34e,
        0x3f2ed799e51d89fb,
        0x3ef8896b7a3e06e5,
        0x3ebf461a73da85a9,
        0x3e9506aed9b1b675,
        0x3e8f66e5a62da429,
        0x3e8f0390bef6b508,
        0x3e8f00fc406cbcf4,
        0x3e8f00f002685387,
        0x3e8f00efd8ede201,
        0x3e8f00efd8897d84,
        0x3e8f00efd888cfe1,
        0x3e8f00efd888cf09,
        0x3e8f00efd888cf09,
        0x3e8f00efd888cf09,
    ];

    const BEFORE_ELSEWHERE: [u64; 32] = [
        0x3e8f6d675c9d338a,
        0x3e8f8cb349eed021,
        0x3e91bca55e1c9b6b,
        0x3eaf18752d5c677d,
        0x3ee81e9abcbb6f8d,
        0x3f210e03df8d51fd,
        0x3f51631e1aa13c0d,
        0x3f7928447db1b677,
        0x3f99cc302ffd64f2,
        0x3fb2bf16beeef67c,
        0x3fc34e783941aff1,
        0x3fcc2df57dc69590,
        0x3fcd2559d2e6202b,
        0x3fc55c971776a510,
        0x3fb630621a2617f3,
        0x3fa0552540b957d3,
        0x3f8109c804a90fe9,
        0x3f59316dfa94ca02,
        0x3f2a6b9768e698e7,
        0x3ef3d63b3272eb82,
        0x3eb88a7e6bf19446,
        0x3e938dedf63ef631,
        0x3e8fada908422363,
        0x3e8f6e394ba80b63,
        0x3e8f6cbaa630bc97,
        0x3e8f6cb445fa016e,
        0x3e8f6cb432bb7170,
        0x3e8f6cb4329252f0,
        0x3e8f6cb4329214b9,
        0x3e8f6cb432921476,
        0x3e8f6cb432921476,
        0x3e8f6cb432921476,
    ];
    let marginal = |bits: &[u64; 32]| bits.iter().map(|&b| f64::from_bits(b)).collect();
    let line: Vec<f64> = (0..32 * 32)
        .map(|k| ((k / 32) as f64 - (k % 32) as f64).abs())
        .collect();
    let problem = |demand| TransportProblem::new(marginal(&QUERY), marginal(demand), line.clone());
    let pinned = problem(&PINNED);
    let cold = solve(&pinned).unwrap().objective;
    assert!((cold - 0.019984344895660).abs() < 1e-14, "cold {cold:?}");

    // Object 5903 seeds the basis that dropped less than Vogel's did;
    // object 3985 the one that kept a residual flowing backwards.
    let budget = Budget::unlimited();
    for before in [&BEFORE, &BEFORE_ELSEWHERE] {
        let mut workspace = SolverWorkspace::new();
        solve_warm(&problem(before), &budget, &mut workspace).unwrap();
        let warm = solve_warm(&pinned, &budget, &mut workspace)
            .unwrap()
            .objective;
        assert_eq!(workspace.stats().warm_hits, 1, "the second solve ran warm");
        let gap = (warm - cold).abs();
        assert!(gap <= objective_slack(32, 32, 31.0), "gap {gap:e}");
        // What the pair is pinned for: a few ulps (4e-18 each), not 1e-10.
        assert!(
            gap <= 1e-15,
            "gap {gap:e}: a sub-EPS residual counts again?"
        );
    }
    // SSP still drops them from the basis it ends on.
    let reference = solve_ssp(&pinned).unwrap().objective;
    assert!((cold - reference).abs() <= objective_slack(32, 32, 31.0));
}
