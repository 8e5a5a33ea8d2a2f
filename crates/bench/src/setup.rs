//! Shared experiment setup: seeded corpora, workloads, reduction
//! construction and query measurement.
//!
//! Every corpus is materialized once as an immutable [`Database`]
//! snapshot; experiments build [`QueryPlan`]s over it and run them
//! through an [`Executor`], so the harness measures exactly the code
//! path the library's entry points use.

use emd_core::{CostMatrix, Histogram};
use emd_data::color::{self, ColorParams};
use emd_data::tiling::{self, TilingParams};
use emd_data::Dataset;
use emd_query::{
    Database, EmdDistance, Executor, Filter, QueryPlan, QueryStats, ReducedEmdFilter,
    ReducedImFilter,
};
use emd_reduction::fb::{fb_all, fb_mod, FbOptions};
use emd_reduction::flow_sample::{draw_sample, FlowSample};
use emd_reduction::kmedoids::kmedoids_reduction;
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Corpus/workload sizes. `quick` finishes the whole suite in minutes on
/// a laptop; `full` approaches the paper's scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Objects per class in the tiling corpus (10 classes).
    pub tiling_per_class: usize,
    /// Objects per class in the color corpus (10 classes).
    pub color_per_class: usize,
    /// Queries per workload.
    pub queries: usize,
    /// Flow-sample size |S| for the FB reductions.
    pub sample: usize,
}

impl Scale {
    /// Minutes-scale suite.
    pub fn quick() -> Self {
        Scale {
            tiling_per_class: 42,
            color_per_class: 32,
            queries: 20,
            sample: 24,
        }
    }

    /// Paper-scale suite (much slower).
    pub fn full() -> Self {
        Scale {
            tiling_per_class: 205,
            color_per_class: 205,
            queries: 50,
            sample: 60,
        }
    }
}

/// A corpus split into an immutable database snapshot and a query set.
pub struct Bench {
    /// Corpus name (e.g. `"tiling-12x8"`).
    pub name: String,
    /// Immutable snapshot shared by every plan built over this bench.
    pub database: Database,
    /// Ground-distance matrix (also reachable via `database.cost()`).
    pub cost: Arc<CostMatrix>,
    /// Held-out query histograms.
    pub queries: Vec<Histogram>,
    /// Bin positions in feature space, when the corpus has a geometry.
    pub positions: Option<Vec<Vec<f64>>>,
}

impl Bench {
    fn from_dataset(dataset: Dataset, queries: usize) -> Self {
        let name = dataset.name.clone();
        let positions = dataset.positions.clone();
        let cost = Arc::new(dataset.cost.clone());
        let (database, query_set) = dataset.split_queries(queries);
        let database =
            Database::new(database.histograms, cost.clone()).expect("dataset is self-consistent");
        Bench {
            name,
            database,
            cost,
            queries: query_set,
            positions,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.cost.rows()
    }
}

/// The RETINA-like 12x8 tiling corpus (96 dimensions).
pub fn tiling_bench(scale: &Scale, seed: u64) -> Bench {
    let params = TilingParams {
        per_class: scale.tiling_per_class + scale.queries.div_ceil(10),
        ..TilingParams::default()
    };
    let dataset = tiling::generate(&params, &mut StdRng::seed_from_u64(seed));
    Bench::from_dataset(shuffle(dataset, seed ^ 0x51ed), scale.queries)
}

/// The IRMA-like 6x6x6 color corpus (216 dimensions).
pub fn color_bench(scale: &Scale, seed: u64) -> Bench {
    let params = ColorParams {
        per_class: scale.color_per_class + scale.queries.div_ceil(10),
        ..ColorParams::default()
    };
    let dataset = color::generate(&params, &mut StdRng::seed_from_u64(seed));
    Bench::from_dataset(shuffle(dataset, seed ^ 0xc01a), scale.queries)
}

/// Shuffle a dataset so the query split is class-balanced.
fn shuffle(mut dataset: Dataset, seed: u64) -> Dataset {
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let histograms = order
        .iter()
        .map(|&i| dataset.histograms[i].clone())
        .collect();
    let labels = order.iter().map(|&i| dataset.labels[i]).collect();
    dataset.histograms = histograms;
    dataset.labels = labels;
    dataset
}

/// The five reduction strategies the paper compares, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// k-medoids clustering on the ground distance (Section 3.3).
    KMed,
    /// FB-Mod from the `Base` initial solution (Section 3.4).
    FbModBase,
    /// FB-Mod from the k-medoids initial solution.
    FbModKMed,
    /// FB-All from the `Base` initial solution.
    FbAllBase,
    /// FB-All from the k-medoids initial solution.
    FbAllKMed,
}

impl Strategy {
    /// All strategies in the paper's presentation order.
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::KMed,
            Strategy::FbModBase,
            Strategy::FbModKMed,
            Strategy::FbAllBase,
            Strategy::FbAllKMed,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::KMed => "KMed",
            Strategy::FbModBase => "FB-Mod(Base)",
            Strategy::FbModKMed => "FB-Mod(KMed)",
            Strategy::FbAllBase => "FB-All(Base)",
            Strategy::FbAllKMed => "FB-All(KMed)",
        }
    }
}

/// Flow sample shared by the FB strategies of one bench (computing it is
/// the expensive preprocessing step; experiments reuse it across d').
/// Solves on every core — the |S|^2 EMD solves dominate preprocessing,
/// and `F^S` is bit-identical at any thread count.
pub fn flow_sample(bench: &Bench, sample_size: usize, seed: u64) -> FlowSample {
    let mut rng = StdRng::seed_from_u64(seed);
    let sample: Vec<Histogram> = draw_sample(bench.database.histograms(), sample_size, &mut rng)
        .into_iter()
        .cloned()
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    FlowSample::from_histograms_parallel(&sample, &bench.cost, threads).expect("sample >= 2")
}

/// Build one reduction with the given strategy.
pub fn build_reduction(
    strategy: Strategy,
    bench: &Bench,
    flows: &FlowSample,
    d_red: usize,
    seed: u64,
) -> CombiningReduction {
    let options = FbOptions::default();
    let kmed = || {
        kmedoids_reduction(&bench.cost, d_red, &mut StdRng::seed_from_u64(seed))
            .expect("valid k")
            .reduction
    };
    match strategy {
        Strategy::KMed => kmed(),
        Strategy::FbModBase => {
            let base = CombiningReduction::base(bench.dim(), d_red).expect("valid");
            fb_mod(base, flows, &bench.cost, options).reduction
        }
        Strategy::FbModKMed => fb_mod(kmed(), flows, &bench.cost, options).reduction,
        Strategy::FbAllBase => {
            let base = CombiningReduction::base(bench.dim(), d_red).expect("valid");
            fb_all(base, flows, &bench.cost, options).reduction
        }
        Strategy::FbAllKMed => fb_all(kmed(), flows, &bench.cost, options).reduction,
    }
}

/// Unwrap experiment-harness plumbing. A panic here means the harness is
/// mis-assembled, not that a measured system failed; centralizing the
/// panic keeps the crate's panic-site budget flat as experiments grow.
pub(crate) fn checked<T, E: std::fmt::Debug>(result: Result<T, E>, what: &str) -> T {
    match result {
        Ok(value) => value,
        Err(error) => panic!("{what}: {error:?}"),
    }
}

/// Build the paper's Figure 10 plan (`Red-IM -> Red-EMD -> EMD`) for a
/// symmetric reduction and wrap it in an executor: the two stages named
/// explicitly, because this is what the paper's experiments measure —
/// [`QueryPlan::chain`] puts an anchor stage in front of them
/// ([`anchor_chain_executor`]).
pub fn chained_executor(bench: &Bench, reduction: CombiningReduction) -> Executor {
    let reduced = checked(
        ReducedEmd::new(&bench.cost, reduction),
        "validated reduction",
    );
    let stages: Vec<Box<dyn Filter>> = vec![
        Box::new(checked(
            ReducedImFilter::new(&bench.database, reduced.clone()),
            "red-im filter over the bench database",
        )),
        Box::new(checked(
            ReducedEmdFilter::new(&bench.database, reduced),
            "red-emd filter over the bench database",
        )),
    ];
    let plan = QueryPlan::new(stages, Box::new(refiner(bench)));
    Executor::new(checked(plan, "chained plan"))
}

/// The plan every served and benchmarked query runs,
/// `anchor -> Red-IM -> Red-EMD -> EMD`: [`QueryPlan::chain`].
pub fn anchor_chain_executor(bench: &Bench, reduction: CombiningReduction) -> Executor {
    let reduced = checked(
        ReducedEmd::new(&bench.cost, reduction),
        "validated reduction",
    );
    let bundle = checked(
        PersistedReduction::precompute("", reduced, bench.database.histograms()),
        "reduced bench database",
    );
    let plan = QueryPlan::chain(&bench.database, &bundle);
    Executor::new(checked(plan, "anchor chain plan"))
}

/// A single-stage `Red-EMD -> EMD` plan wrapped in an executor.
pub fn red_emd_executor(bench: &Bench, reduction: CombiningReduction) -> Executor {
    let reduced = ReducedEmd::new(&bench.cost, reduction).expect("validated reduction");
    let stages: Vec<Box<dyn Filter>> = vec![Box::new(
        ReducedEmdFilter::new(&bench.database, reduced).expect("consistent"),
    )];
    Executor::new(QueryPlan::new(stages, Box::new(refiner(bench))).expect("consistent"))
}

/// The zero-stage sequential-scan plan (exact EMD against every object).
pub fn scan_executor(bench: &Bench) -> Executor {
    Executor::new(QueryPlan::sequential(Box::new(refiner(bench))).expect("non-empty database"))
}

/// The exact-EMD refiner over the bench database.
pub fn refiner(bench: &Bench) -> EmdDistance {
    EmdDistance::new(&bench.database).expect("consistent")
}

/// Averaged measurements of a k-NN workload against one plan.
#[derive(Debug, Clone)]
pub struct WorkloadMeasurement {
    /// Mean refinements (candidate count) per query.
    pub refinements: f64,
    /// Mean evaluations per filter stage, in chain order.
    pub stage_evaluations: Vec<(String, f64)>,
    /// Mean wall-clock time per query.
    pub time_per_query: Duration,
}

/// Run every query at the given `k` and average the statistics.
pub fn measure_knn(executor: &Executor, queries: &[Histogram], k: usize) -> WorkloadMeasurement {
    let mut total = QueryStats::default();
    let started = Instant::now();
    for query in queries {
        let (_, stats) = executor.knn(query, k).expect("consistent plan");
        total.accumulate(&stats);
    }
    let elapsed = started.elapsed();
    let n = queries.len().max(1) as f64;
    WorkloadMeasurement {
        refinements: total.refinements as f64 / n,
        stage_evaluations: total
            .filter_evaluations
            .iter()
            .map(|(name, count)| (name.clone(), *count as f64 / n))
            .collect(),
        time_per_query: elapsed / queries.len().max(1) as u32,
    }
}

/// Mean tightness ratio `reduced_emd / exact_emd` over query-database
/// pairs (0 treated as perfectly tight when both are 0). The selectivity
/// proxy of experiment E10.
pub fn mean_tightness_ratio(bench: &Bench, reduction: &CombiningReduction, pairs: usize) -> f64 {
    let reduced = ReducedEmd::new(&bench.cost, reduction.clone()).expect("validated");
    let mut total = 0.0;
    let mut count = 0usize;
    'outer: for query in &bench.queries {
        for object in bench.database.histograms() {
            if count >= pairs {
                break 'outer;
            }
            let exact = emd_core::emd(query, object, &bench.cost).expect("consistent");
            let bound = reduced.distance(query, object).expect("consistent");
            total += if exact > 1e-12 { bound / exact } else { 1.0 };
            count += 1;
        }
    }
    total / count.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            tiling_per_class: 3,
            color_per_class: 2,
            queries: 4,
            sample: 6,
        }
    }

    #[test]
    fn benches_are_consistent() {
        let bench = tiling_bench(&tiny_scale(), 7);
        assert_eq!(bench.dim(), 96);
        assert_eq!(bench.queries.len(), 4);
        assert!(!bench.database.is_empty());
        let bench = color_bench(&tiny_scale(), 7);
        assert_eq!(bench.dim(), 216);
    }

    #[test]
    fn all_strategies_produce_valid_reductions() {
        let bench = tiling_bench(&tiny_scale(), 11);
        let flows = flow_sample(&bench, 6, 13);
        for strategy in Strategy::all() {
            let reduction = build_reduction(strategy, &bench, &flows, 8, 17);
            assert_eq!(reduction.original_dim(), 96);
            assert_eq!(reduction.reduced_dim(), 8);
        }
    }

    #[test]
    fn measured_plan_is_complete() {
        let bench = tiling_bench(&tiny_scale(), 23);
        let flows = flow_sample(&bench, 6, 29);
        let reduction = build_reduction(Strategy::FbModKMed, &bench, &flows, 8, 31);
        let chained = chained_executor(&bench, reduction);
        let scan = scan_executor(&bench);
        let query = &bench.queries[0];
        let (expected, _) = scan.knn(query, 3).unwrap();
        let (got, _) = chained.knn(query, 3).unwrap();
        assert_eq!(
            got.iter().map(|n| n.id).collect::<Vec<_>>(),
            expected.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        let measurement = measure_knn(&chained, &bench.queries, 3);
        assert!(measurement.refinements >= 3.0);
        assert!(measurement.refinements <= bench.database.len() as f64);
    }

    #[test]
    fn tightness_ratio_in_unit_interval() {
        let bench = tiling_bench(&tiny_scale(), 37);
        let flows = flow_sample(&bench, 6, 41);
        let reduction = build_reduction(Strategy::KMed, &bench, &flows, 12, 43);
        let ratio = mean_tightness_ratio(&bench, &reduction, 20);
        assert!((0.0..=1.0 + 1e-9).contains(&ratio), "ratio {ratio}");
    }
}
