//! Observability must never change answers: queries executed under a
//! metrics recording scope return bit-identical neighbors to unscoped
//! execution, and the registry's counters say what the stats say.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{ground, Histogram};
use emd_query::{
    ClusteredIndex, Database, EmdDistance, Executor, Filter, Query, QueryPlan, ReducedEmdFilter,
};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use proptest::prelude::*;
use std::sync::Arc;

const DIM: usize = 6;

fn histogram() -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, DIM).prop_filter_map("positive mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

/// The reduction of these tests: 3 bins, each combining two neighbours.
fn reduced(database: &Database) -> ReducedEmd {
    let r = CombiningReduction::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap();
    ReducedEmd::new(database.cost(), r).unwrap()
}

/// The paper's canonical chain for these tests: one Red-EMD stage over
/// [`reduced`], refined by the exact EMD.
fn chained_executor(database: &Database) -> Executor {
    let stages: Vec<Box<dyn Filter>> = vec![Box::new(
        ReducedEmdFilter::new(database, reduced(database)).unwrap(),
    )];
    let refiner = Box::new(EmdDistance::new(database).unwrap());
    Executor::new(QueryPlan::new(stages, refiner).unwrap())
}

/// The shipped chain, [`QueryPlan::chain`] over [`reduced`]: the anchor
/// floor, Red-IM and Red-EMD.
fn shipped_chain(database: &Database) -> Executor {
    let bundle = PersistedReduction::precompute("", reduced(database), database.histograms());
    Executor::new(QueryPlan::chain(database, &bundle.unwrap()).unwrap())
}

/// The same reduction behind a clustered candidate source: its stream
/// flushes the `index.*` counters.
fn clustered_executor(database: &Database) -> Executor {
    let index = ClusteredIndex::build(database, reduced(database), 1.0).unwrap();
    let refiner = Box::new(EmdDistance::new(database).unwrap());
    let plan = QueryPlan::new(Vec::new(), refiner).unwrap();
    Executor::new(plan.with_source(Box::new(index)).unwrap())
}

fn fixed_database(n: usize) -> Database {
    let cost = Arc::new(ground::linear(DIM).unwrap());
    let histograms: Vec<Histogram> = (0..n)
        .map(|i| {
            let mut bins = [1.0; DIM];
            // bounds: i % DIM and (i / DIM) % DIM are both < DIM
            bins[i % DIM] += (i + 1) as f64;
            bins[(i / DIM) % DIM] += 2.0;
            let total: f64 = bins.iter().sum();
            Histogram::new(bins.iter().map(|b| b / total).collect()).unwrap()
        })
        .collect();
    Database::new(histograms, cost).unwrap()
}

fn fixed_workload(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            let mut bins = [1.0; DIM];
            // bounds: (i * 2 + 1) % DIM < DIM
            bins[(i * 2 + 1) % DIM] += i as f64;
            let total: f64 = bins.iter().sum();
            let histogram = Histogram::new(bins.iter().map(|b| b / total).collect()).unwrap();
            if i % 2 == 0 {
                Query::knn(histogram, 1 + i % 3)
            } else {
                Query::range(histogram, (i as f64).mul_add(0.25, 0.5))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recording metrics is invisible to the computation: identical ids
    /// and the exact same f64 distances with and without a scope.
    #[test]
    fn metrics_scope_never_changes_answers(
        database in prop::collection::vec(histogram(), 4..12),
        query in histogram(),
        k in 1usize..5,
        epsilon in 0.0_f64..2.5,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        // One Red-EMD stage, and the shipped chain: the anchor floor,
        // Red-IM and Red-EMD.
        let chain = shipped_chain(&database);
        let red_emd = "red-emd(d'=3/3)";
        let plans = [
            (chained_executor(&database), vec![red_emd]),
            (chain, vec!["anchor(a=3)", "red-im(d'=3/3)", red_emd]),
        ];
        for (executor, stages) in plans {
            let (plain_knn, plain_knn_stats) = executor.knn(&query, k).unwrap();
            let (plain_range, plain_range_stats) = executor.range(&query, epsilon).unwrap();

            let recording = emd_obs::Recording::start();
            let (scoped_knn, scoped_knn_stats) = executor.knn(&query, k).unwrap();
            let (scoped_range, scoped_range_stats) = executor.range(&query, epsilon).unwrap();
            let registry = recording.finish();

            // Bit-identical results and identical stats façade output.
            prop_assert_eq!(plain_knn, scoped_knn);
            prop_assert_eq!(plain_range, scoped_range);
            prop_assert_eq!(&plain_knn_stats, &scoped_knn_stats);
            prop_assert_eq!(&plain_range_stats, &scoped_range_stats);

            // And the registry mirrors the stats façade exactly, stage by
            // stage.
            prop_assert_eq!(registry.counter("query.queries"), 2);
            let expected_refinements =
                (plain_knn_stats.refinements + plain_range_stats.refinements) as u64;
            prop_assert_eq!(registry.counter("query.refinements"), expected_refinements);
            let names: Vec<&str> = plain_knn_stats
                .filter_evaluations
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            prop_assert_eq!(names, stages);
            for (name, _) in &plain_knn_stats.filter_evaluations {
                let expected: usize = plain_knn_stats
                    .filter_evaluations
                    .iter()
                    .chain(plain_range_stats.filter_evaluations.iter())
                    .filter(|(stage, _)| stage == name)
                    .map(|(_, n)| n)
                    .sum();
                let counter = registry.counter(&format!("query.stage.{name}.evaluations"));
                prop_assert_eq!(counter, expected as u64, "{}", name);
            }
        }

        // The clustered source the same: answers and stats untouched, and
        // its counters say what the stats say — every LP was the source's
        // Red-EMD stage or a refinement, and the stream handed KNOP what
        // it refined plus at most the one candidate that stopped it.
        let clustered = clustered_executor(&database);
        let (plain_knn, plain_knn_stats) = clustered.knn(&query, k).unwrap();
        let (plain_range, plain_range_stats) = clustered.range(&query, epsilon).unwrap();
        let recording = emd_obs::Recording::start();
        let (scoped_knn, scoped_knn_stats) = clustered.knn(&query, k).unwrap();
        let (scoped_range, scoped_range_stats) = clustered.range(&query, epsilon).unwrap();
        let registry = recording.finish();
        prop_assert_eq!(plain_knn, scoped_knn);
        prop_assert_eq!(plain_range, scoped_range);
        prop_assert_eq!(&plain_knn_stats, &scoped_knn_stats);
        prop_assert_eq!(&plain_range_stats, &scoped_range_stats);
        let solved = plain_knn_stats.filter_evaluations[0].1 + plain_range_stats.filter_evaluations[0].1;
        let refined = (plain_knn_stats.refinements + plain_range_stats.refinements) as u64;
        prop_assert_eq!(registry.counter("core.emd.solves"), solved as u64 + refined);
        let emitted = registry.counter("index.candidates_emitted");
        prop_assert!(refined <= emitted && emitted <= refined + 2, "{} of {}", refined, emitted);
    }
}

/// The cutoff counters on a recorded workload: the refinements a solve
/// cut mid-repair (`transport.solve.cut`) and those a learned floor
/// answered before any LP (`core.emd.floor_cuts`) are the stats façade's
/// `refinements_cut`, every solve cut passed a certificate
/// (`transport.warm.cut_checks`), and no query cut more refinements than
/// it discarded — every returned neighbor was solved to the end.
#[test]
fn cut_counters_mirror_the_stats() {
    let database = fixed_database(24);
    let executor = chained_executor(&database);
    let recording = emd_obs::Recording::start();
    let mut cut = 0;
    for query in fixed_workload(12) {
        let (outcome, stats) = executor.run(&query).unwrap();
        assert!(outcome.exact().is_some());
        assert!(
            stats.refinements_cut <= stats.refinements - stats.results,
            "{stats:?}"
        );
        cut += stats.refinements_cut as u64;
    }
    let registry = recording.finish();
    assert!(cut > 0, "the workload must exercise the cutoff");
    let solve_cuts = registry.counter("transport.solve.cut");
    assert_eq!(solve_cuts + registry.counter("core.emd.floor_cuts"), cut);
    assert!(registry.counter("transport.warm.cut_checks") >= solve_cuts);
}

/// One cold start per LP context per query. Each prepared LP stage — the
/// refiner and the Red-EMD stage, over a scan through `QueryPlan::chain`
/// or above the clustered traversal — owns one solver context, whose
/// first solve starts from a Vogel basis and every later one from the
/// basis before it (the corpus has full support, so every tableau of a
/// context has one shape). `transport.solve.calls − transport.warm.hits`
/// therefore counts the contexts that solved: a warm chain that silently
/// turns cold — a shape mismatch, a dropped basis, an abandoned repair —
/// raises it.
#[test]
fn one_cold_start_per_lp_context_per_query() {
    let database = fixed_database(24);
    let chain = shipped_chain(&database);
    for executor in [chain, clustered_executor(&database)] {
        let mut solved = 0;
        for (i, query) in fixed_workload(12).into_iter().enumerate() {
            let recording = emd_obs::Recording::start();
            let (_, stats) = executor.knn(&query.histogram, 1 + i % 4).unwrap();
            let registry = recording.finish();
            // The clustered source reports its Red-EMD stage's solves as
            // its own evaluations.
            let red_emd: usize = stats
                .filter_evaluations
                .iter()
                .filter(|(name, _)| name.starts_with("red-emd") || name.starts_with("clustered"))
                .map(|&(_, evaluations)| evaluations)
                .sum();
            let contexts = u64::from(red_emd > 0) + u64::from(stats.refinements > 0);
            let calls = registry.counter("transport.solve.calls");
            let cold = calls - registry.counter("transport.warm.hits");
            assert_eq!(cold, contexts, "query {i}: {calls} solves, {stats:?}");
            solved += calls;
        }
        assert!(solved > 24, "the workload must chain warm solves");
    }
}
