//! The reconstructed experiment suite (see DESIGN.md section 5 and
//! EXPERIMENTS.md). Each function regenerates one table/figure.

use crate::report::{fnum, Table};
use crate::setup::{
    build_reduction, chained_executor, chained_executor_mode, checked, color_bench, flow_sample,
    mean_tightness_ratio, measure_knn, red_emd_executor, refiner, scan_executor, tiling_bench,
    Bench, Scale, Strategy,
};
use emd_obs::DurationHistogram;
use emd_query::{
    Database, EmdDistance, Executor, Filter, FullLbImFilter, Query, QueryPlan, ReducedEmdFilter,
};
use emd_reduction::fb::{fb_all, fb_mod, FbOptions};
use emd_reduction::flow_sample::draw_sample;
use emd_reduction::kmedoids::kmedoids_reduction;
use emd_reduction::pca::pca_guided_reduction;
use emd_reduction::{CombiningReduction, ReducedEmd};
use emd_serve::{LoadgenConfig, QuerySpec, ServeConfig, Server, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SEED: u64 = 20080609; // SIGMOD'08 started June 9, 2008.
const K_DEFAULT: usize = 10;

fn reduced_dims_96(quick: bool) -> Vec<usize> {
    // d' below 8 barely filters (nearly all of the database survives) and
    // each surviving candidate costs a full 96-d EMD, so the quick sweep
    // starts at 8.
    if quick {
        vec![8, 12, 16, 24, 32]
    } else {
        vec![4, 8, 12, 16, 24, 32, 48]
    }
}

fn reduced_dims_216(quick: bool) -> Vec<usize> {
    // As in the 96-d sweep, very small d' barely filters while every
    // candidate costs a (much more expensive) 216-d EMD.
    if quick {
        vec![9, 18, 27]
    } else {
        vec![6, 9, 18, 27, 36, 54]
    }
}

/// Candidate counts (refinements of a `Red-EMD -> EMD` pipeline) per
/// strategy and reduced dimensionality.
fn candidates_sweep(table: &mut Table, bench: &Bench, dims: &[usize], sample: usize) {
    let flows = flow_sample(bench, sample, SEED ^ 0xf10);
    table.note(format!(
        "database {} ({} objects, d={}), {} queries, k={K_DEFAULT}, |S|={sample}",
        bench.name,
        bench.database.len(),
        bench.dim(),
        bench.queries.len()
    ));
    for &d_red in dims {
        let mut cells = vec![d_red.to_string()];
        for strategy in Strategy::all() {
            let reduction = build_reduction(strategy, bench, &flows, d_red, SEED ^ 0xbead);
            let executor = red_emd_executor(bench, reduction);
            let measurement = measure_knn(&executor, &bench.queries, K_DEFAULT);
            cells.push(fnum(measurement.refinements));
        }
        table.row(cells);
    }
}

/// E1: candidates vs d' on the 96-d tiling corpus (cf. DESIGN.md E1).
pub fn e1(scale: &Scale, quick: bool) -> Table {
    let mut table = Table::new(
        "E1",
        "candidates vs reduced dimensionality d' (tiling, 96-d)",
        &[
            "d'",
            "KMed",
            "FB-Mod(Base)",
            "FB-Mod(KMed)",
            "FB-All(Base)",
            "FB-All(KMed)",
        ],
    );
    let bench = tiling_bench(scale, SEED);
    candidates_sweep(&mut table, &bench, &reduced_dims_96(quick), scale.sample);
    table.note("expectation: flow-based (data-dependent) strategies produce fewer candidates than KMed at equal d'; candidates shrink as d' grows");
    table
}

/// E2: candidates vs d' on the 216-d color corpus.
pub fn e2(scale: &Scale, quick: bool) -> Table {
    let mut table = Table::new(
        "E2",
        "candidates vs reduced dimensionality d' (color, 216-d)",
        &[
            "d'",
            "KMed",
            "FB-Mod(Base)",
            "FB-Mod(KMed)",
            "FB-All(Base)",
            "FB-All(KMed)",
        ],
    );
    let bench = color_bench(scale, SEED);
    candidates_sweep(&mut table, &bench, &reduced_dims_216(quick), scale.sample);
    table.note("expectation: same ordering as E1 in the high-dimensional regime");
    table
}

/// E3: filter selectivity (candidate fraction) at a fixed d' per corpus.
pub fn e3(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E3",
        "filter selectivity (mean candidate fraction of the database)",
        &[
            "corpus",
            "d'",
            "KMed",
            "FB-Mod(Base)",
            "FB-Mod(KMed)",
            "FB-All(Base)",
            "FB-All(KMed)",
        ],
    );
    for (bench, d_red) in [
        (tiling_bench(scale, SEED), 12usize),
        (color_bench(scale, SEED), 18usize),
    ] {
        let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
        let n = bench.database.len() as f64;
        let mut cells = vec![bench.name.clone(), d_red.to_string()];
        for strategy in Strategy::all() {
            let reduction = build_reduction(strategy, &bench, &flows, d_red, SEED ^ 0xbead);
            let executor = red_emd_executor(&bench, reduction);
            let measurement = measure_knn(&executor, &bench.queries, K_DEFAULT);
            cells.push(fnum(measurement.refinements / n));
        }
        table.row(cells);
    }
    table.note("lower is better; k=10");
    table
}

/// E4: mean response time per query vs d' (tiling), against the
/// sequential scan.
pub fn e4(scale: &Scale, quick: bool) -> Table {
    let mut table = Table::new(
        "E4",
        "response time per k-NN query vs d' (tiling, 96-d)",
        &["d'", "KMed [ms]", "FB-All(KMed) [ms]", "seq. scan [ms]"],
    );
    let bench = tiling_bench(scale, SEED);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let scan = scan_executor(&bench);
    let scan_time = measure_knn(&scan, &bench.queries, K_DEFAULT)
        .time_per_query
        .as_secs_f64()
        * 1e3;
    for &d_red in &reduced_dims_96(quick) {
        let mut cells = vec![d_red.to_string()];
        for strategy in [Strategy::KMed, Strategy::FbAllKMed] {
            let reduction = build_reduction(strategy, &bench, &flows, d_red, SEED ^ 0xbead);
            let executor = chained_executor(&bench, reduction);
            let measurement = measure_knn(&executor, &bench.queries, K_DEFAULT);
            cells.push(fnum(measurement.time_per_query.as_secs_f64() * 1e3));
        }
        cells.push(fnum(scan_time));
        table.row(cells);
    }
    table.note("expectation: U-shape — too-small d' lets candidates explode, too-large d' makes the filter itself expensive; interior optimum well below d=96");
    table
}

/// E5: filter chaining (Figure 10 of the paper) — configurations against
/// the sequential scan.
pub fn e5(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E5",
        "chaining filters (tiling, 96-d, d'=12, k=10)",
        &[
            "configuration",
            "stage-1 evals",
            "stage-2 evals",
            "refinements",
            "ms/query",
        ],
    );
    let bench = tiling_bench(scale, SEED);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let reduction = build_reduction(Strategy::FbAllKMed, &bench, &flows, 12, SEED ^ 0xbead);

    let mut run = |name: &str, executor: Executor| {
        let m = measure_knn(&executor, &bench.queries, K_DEFAULT);
        let stage = |i: usize| {
            m.stage_evaluations
                .get(i)
                .map(|(_, n)| fnum(*n))
                .unwrap_or_else(|| "-".into())
        };
        table.row(vec![
            name.to_owned(),
            stage(0),
            stage(1),
            fnum(m.refinements),
            fnum(m.time_per_query.as_secs_f64() * 1e3),
        ]);
    };

    run("seq. scan", scan_executor(&bench));
    run(
        "LB-IM(96) -> EMD",
        Executor::new(
            QueryPlan::new(
                vec![Box::new(
                    FullLbImFilter::new(&bench.database).expect("consistent"),
                )],
                Box::new(refiner(&bench)),
            )
            .expect("consistent"),
        ),
    );
    run(
        "Red-EMD -> EMD",
        red_emd_executor(&bench, reduction.clone()),
    );
    run(
        "Red-IM -> Red-EMD -> EMD",
        chained_executor(&bench, reduction),
    );
    table.note("expectation: the chained Red-IM stage removes most Red-EMD evaluations at negligible cost; both reduced pipelines beat the full-dimensional LB-IM filter in time");
    table
}

/// E6: varying k.
pub fn e6(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E6",
        "varying k (tiling, 96-d, d'=12, FB-All(KMed) chained)",
        &["k", "refinements", "red-emd evals", "ms/query"],
    );
    let bench = tiling_bench(scale, SEED);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let reduction = build_reduction(Strategy::FbAllKMed, &bench, &flows, 12, SEED ^ 0xbead);
    let executor = chained_executor(&bench, reduction);
    for k in [1usize, 5, 10, 20, 50] {
        let k = k.min(bench.database.len());
        let m = measure_knn(&executor, &bench.queries, k);
        table.row(vec![
            k.to_string(),
            fnum(m.refinements),
            fnum(m.stage_evaluations.get(1).map(|(_, n)| *n).unwrap_or(0.0)),
            fnum(m.time_per_query.as_secs_f64() * 1e3),
        ]);
    }
    table.note("expectation: candidates and time grow sublinearly in k");
    table
}

/// E7: scalability in database size.
pub fn e7(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E7",
        "scalability in database size (tiling, 96-d, d'=12, k=10)",
        &[
            "N",
            "refinements",
            "candidate fraction",
            "ms/query",
            "scan ms/query",
        ],
    );
    for factor in [1usize, 2, 4, 8] {
        let sub_scale = Scale {
            tiling_per_class: scale.tiling_per_class * factor / 4 + 2,
            ..*scale
        };
        let bench = tiling_bench(&sub_scale, SEED);
        let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
        let reduction = build_reduction(Strategy::FbAllKMed, &bench, &flows, 12, SEED ^ 0xbead);
        let executor = chained_executor(&bench, reduction);
        let m = measure_knn(&executor, &bench.queries, K_DEFAULT);
        let scan = scan_executor(&bench);
        // Scan time extrapolated from a few queries to keep E7 fast.
        let scan_queries = &bench.queries[..bench.queries.len().min(5)];
        let scan_time = measure_knn(&scan, scan_queries, K_DEFAULT)
            .time_per_query
            .as_secs_f64()
            * 1e3;
        let n = bench.database.len();
        table.row(vec![
            n.to_string(),
            fnum(m.refinements),
            fnum(m.refinements / n as f64),
            fnum(m.time_per_query.as_secs_f64() * 1e3),
            fnum(scan_time),
        ]);
    }
    table.note("expectation: filtered time grows far slower than the scan; candidate fraction roughly stable");
    table
}

/// E8: flow-sample size ablation.
pub fn e8(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E8",
        "flow sample size |S| ablation (tiling, 96-d, d'=12, k=10)",
        &[
            "|S|",
            "FB-Mod(KMed) cand.",
            "FB-All(KMed) cand.",
            "sampling [s]",
        ],
    );
    let bench = tiling_bench(scale, SEED);
    for sample in [6usize, 12, 24, 48] {
        let sample = sample.min(bench.database.len());
        let started = Instant::now();
        let flows = flow_sample(&bench, sample, SEED ^ 0xf10);
        let sampling_time = started.elapsed().as_secs_f64();
        let mut cells = vec![sample.to_string()];
        for strategy in [Strategy::FbModKMed, Strategy::FbAllKMed] {
            let reduction = build_reduction(strategy, &bench, &flows, 12, SEED ^ 0xbead);
            let executor = red_emd_executor(&bench, reduction);
            let m = measure_knn(&executor, &bench.queries, K_DEFAULT);
            cells.push(fnum(m.refinements));
        }
        cells.push(fnum(sampling_time));
        table.row(cells);
    }
    table.note(
        "expectation: quality saturates at moderate |S| while sampling cost grows quadratically",
    );
    table
}

/// E9: preprocessing cost per strategy.
pub fn e9(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E9",
        "preprocessing cost (tiling, 96-d)",
        &[
            "d'",
            "k-medoids [ms]",
            "flow sampling [ms]",
            "FB-Mod opt [ms]",
            "FB-All opt [ms]",
        ],
    );
    let bench = tiling_bench(scale, SEED);
    let started = Instant::now();
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let sampling_ms = started.elapsed().as_secs_f64() * 1e3;
    for d_red in [8usize, 16] {
        let started = Instant::now();
        let kmed = kmedoids_reduction(&bench.cost, d_red, &mut StdRng::seed_from_u64(SEED))
            .expect("valid k")
            .reduction;
        let kmed_ms = started.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        let _ = fb_mod(kmed.clone(), &flows, &bench.cost, FbOptions::default());
        let fb_mod_ms = started.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        let _ = fb_all(kmed, &flows, &bench.cost, FbOptions::default());
        let fb_all_ms = started.elapsed().as_secs_f64() * 1e3;

        table.row(vec![
            d_red.to_string(),
            fnum(kmed_ms),
            fnum(sampling_ms),
            fnum(fb_mod_ms),
            fnum(fb_all_ms),
        ]);
    }
    table.note("one-off costs; flow sampling dominates and is shared across all d'");
    table
}

/// E10: lower-bound tightness (mean reduced/exact ratio) vs d'.
pub fn e10(scale: &Scale, quick: bool) -> Table {
    let mut table = Table::new(
        "E10",
        "lower-bound tightness: mean Red-EMD / EMD vs d' (tiling, 96-d)",
        &[
            "d'",
            "KMed",
            "FB-Mod(Base)",
            "FB-Mod(KMed)",
            "FB-All(Base)",
            "FB-All(KMed)",
        ],
    );
    let bench = tiling_bench(scale, SEED);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let pairs = if quick { 400 } else { 2000 };
    for &d_red in &reduced_dims_96(quick) {
        let mut cells = vec![d_red.to_string()];
        for strategy in Strategy::all() {
            let reduction = build_reduction(strategy, &bench, &flows, d_red, SEED ^ 0xbead);
            cells.push(fnum(mean_tightness_ratio(&bench, &reduction, pairs)));
        }
        table.row(cells);
    }
    table.note("1.0 = perfectly tight; expectation: monotone in d', flow-based > KMed");
    table
}

/// A1: THRESH ablation for the FB optimizers.
pub fn a1(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "A1",
        "FB improvement threshold (THRESH) ablation (tiling, d'=12)",
        &[
            "THRESH",
            "FB-All tightness",
            "FB-All reassigns",
            "candidates",
        ],
    );
    let bench = tiling_bench(scale, SEED);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let kmed = kmedoids_reduction(&bench.cost, 12, &mut StdRng::seed_from_u64(SEED))
        .expect("valid k")
        .reduction;
    for threshold in [0.0, 1e-9, 1e-3, 1e-2] {
        let options = FbOptions {
            threshold,
            ..FbOptions::default()
        };
        let result = fb_all(kmed.clone(), &flows, &bench.cost, options);
        let executor = red_emd_executor(&bench, result.reduction.clone());
        let m = measure_knn(&executor, &bench.queries, K_DEFAULT);
        table.row(vec![
            format!("{threshold:.0e}"),
            fnum(result.tightness),
            result.reassignments.to_string(),
            fnum(m.refinements),
        ]);
    }
    table.note("expectation: large THRESH stops early (fewer reassignments, looser bound); tiny THRESH changes little vs 0");
    table
}

/// A2: asymmetric reductions R1 != R2 (query kept at full d).
pub fn a2(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "A2",
        "asymmetric reductions: query-side d' vs candidates (tiling, db d'=8, k=10)",
        &["query d'", "db d'", "candidates", "ms/query"],
    );
    let bench = tiling_bench(scale, SEED);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let r_db = build_reduction(Strategy::FbAllKMed, &bench, &flows, 8, SEED ^ 0xbead);
    for (label, r_query) in [
        ("8 (symmetric)", r_db.clone()),
        (
            "96 (identity)",
            CombiningReduction::identity(bench.dim()).expect("valid"),
        ),
    ] {
        let reduced =
            ReducedEmd::with_asymmetric(&bench.cost, r_query, r_db.clone()).expect("validated");
        let stages: Vec<Box<dyn Filter>> = vec![Box::new(
            ReducedEmdFilter::new(&bench.database, reduced).expect("consistent"),
        )];
        let executor =
            Executor::new(QueryPlan::new(stages, Box::new(refiner(&bench))).expect("consistent"));
        let m = measure_knn(&executor, &bench.queries, K_DEFAULT);
        table.row(vec![
            label.to_owned(),
            "8".to_owned(),
            fnum(m.refinements),
            fnum(m.time_per_query.as_secs_f64() * 1e3),
        ]);
    }
    table.note("expectation: an unreduced query tightens the bound (fewer candidates) at a higher per-filter cost");
    table
}

/// A3: PCA-guided reduction vs the paper's strategies.
pub fn a3(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "A3",
        "geometry-blind (PCA-guided) vs ground-distance-aware reductions (tiling, d'=12)",
        &["strategy", "candidates", "tightness ratio"],
    );
    let bench = tiling_bench(scale, SEED);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x9ca);
    let sample: Vec<_> = draw_sample(bench.database.histograms(), scale.sample, &mut rng)
        .into_iter()
        .cloned()
        .collect();
    let pca = pca_guided_reduction(&sample, 12, 6, &mut rng).expect("valid inputs");
    let kmed = build_reduction(Strategy::KMed, &bench, &flows, 12, SEED ^ 0xbead);
    let fb = build_reduction(Strategy::FbAllKMed, &bench, &flows, 12, SEED ^ 0xbead);
    for (label, reduction) in [("PCA-guided", pca), ("KMed", kmed), ("FB-All(KMed)", fb)] {
        let executor = red_emd_executor(&bench, reduction.clone());
        let m = measure_knn(&executor, &bench.queries, K_DEFAULT);
        let ratio = mean_tightness_ratio(&bench, &reduction, 300);
        table.row(vec![label.to_owned(), fnum(m.refinements), fnum(ratio)]);
    }
    table.note("expectation (paper, section 3.1): ignoring the ground distance filters far worse — PCA-guided trails both");
    table
}

/// E11: range-query candidates (Definition 6 workload) across strategies.
pub fn e11(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E11",
        "range-query candidates with calibrated epsilons (tiling, 96-d, d'=12)",
        &["strategy", "mean candidates", "mean hits", "ms/query"],
    );
    let bench = tiling_bench(scale, SEED);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    // Definition 6: epsilon_i = exact k-NN distance of query i (k = 10),
    // so range results coincide with the k-NN results.
    let workload = emd_data::Workload::range_from_knn(
        bench.queries.clone(),
        bench.database.histograms(),
        &bench.cost,
        K_DEFAULT,
    )
    .expect("non-degenerate workload");
    for strategy in Strategy::all() {
        let reduction = build_reduction(strategy, &bench, &flows, 12, SEED ^ 0xbead);
        let executor = red_emd_executor(&bench, reduction);
        let mut refinements = 0usize;
        let mut hits = 0usize;
        let started = Instant::now();
        for (query, epsilon) in workload.ranges() {
            let (results, stats) = executor.range(query, epsilon).expect("consistent");
            refinements += stats.refinements;
            hits += results.len();
        }
        let n = workload.len() as f64;
        table.row(vec![
            strategy.label().to_owned(),
            fnum(refinements as f64 / n),
            fnum(hits as f64 / n),
            fnum(started.elapsed().as_secs_f64() * 1e3 / n),
        ]);
    }
    table.note(
        "epsilon = exact 10-NN distance per query (Definition 6); hits >= 10 by construction",
    );
    table
}

/// Seeded 32-d Gaussian bench shared by A4 and E12 (at `Scale::full`
/// this is the tentpole's ~1k-object corpus: 6 classes x 205 per class).
fn gaussian_bench(scale: &Scale) -> Bench {
    use emd_data::gaussian::{self, GaussianParams};
    let params = GaussianParams {
        dim: 32,
        num_classes: 6,
        per_class: scale.tiling_per_class,
        ..GaussianParams::default()
    };
    let dataset = gaussian::generate(&params, &mut StdRng::seed_from_u64(SEED));
    let (dataset, queries) = dataset.split_queries(scale.queries);
    let cost = std::sync::Arc::new(dataset.cost.clone());
    let database =
        Database::new(dataset.histograms, cost.clone()).expect("dataset is self-consistent");
    Bench {
        name: dataset.name,
        database,
        cost,
        queries,
        positions: dataset.positions,
    }
}

/// A4: VP-tree metric index vs the filter pipeline.
pub fn a4(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "A4",
        "metric index (VP-tree) vs reduction filter pipeline (gaussian, 32-d, k=10)",
        &["approach", "exact EMDs/query", "ms/query", "build [ms]"],
    );
    let bench = gaussian_bench(scale);

    // VP-tree over the exact EMD.
    let started = Instant::now();
    let tree = emd_query::VpTree::build(&bench.database).expect("non-empty");
    let tree_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let mut tree_distances = 0usize;
    for query in &bench.queries {
        let (_, stats) = tree.knn(query, K_DEFAULT).expect("valid query");
        tree_distances += stats.distance_computations;
    }
    let n = bench.queries.len() as f64;
    table.row(vec![
        "VP-tree (exact EMD)".to_owned(),
        fnum(tree_distances as f64 / n),
        fnum(started.elapsed().as_secs_f64() * 1e3 / n),
        fnum(tree_build_ms),
    ]);

    // Reduction filter pipeline at d' = 8.
    let started = Instant::now();
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let reduction = build_reduction(Strategy::FbAllKMed, &bench, &flows, 8, SEED ^ 0xbead);
    let executor = chained_executor(&bench, reduction);
    let pipeline_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let m = measure_knn(&executor, &bench.queries, K_DEFAULT);
    table.row(vec![
        "Red-IM -> Red-EMD -> EMD (d'=8)".to_owned(),
        fnum(m.refinements),
        fnum(m.time_per_query.as_secs_f64() * 1e3),
        fnum(pipeline_build_ms),
    ]);

    let scan = scan_executor(&bench);
    let s = measure_knn(&scan, &bench.queries, K_DEFAULT);
    table.row(vec![
        "sequential scan".to_owned(),
        fnum(s.refinements),
        fnum(s.time_per_query.as_secs_f64() * 1e3),
        "0".to_owned(),
    ]);
    table.note("both index and pipeline are exact; the comparison is exact-EMD computations per query and build cost");
    table
}

/// E12: parallel batch-query throughput of the executor. One shared
/// executor, one workload; `run_batch` across worker-thread counts must
/// return results and merged stats bit-identical to the sequential run,
/// with the wall-clock speedup as the payoff.
pub fn e12(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E12",
        "parallel batch k-NN throughput (gaussian, 32-d, d'=8, k=10)",
        &["threads", "ms/query", "speedup", "matches sequential"],
    );
    let bench = gaussian_bench(scale);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let reduction = build_reduction(Strategy::FbAllKMed, &bench, &flows, 8, SEED ^ 0xbead);
    let executor = chained_executor(&bench, reduction);
    let workload: Vec<Query> = bench
        .queries
        .iter()
        .map(|q| Query::knn(q.clone(), K_DEFAULT))
        .collect();
    table.note(format!(
        "database {} ({} objects), batch of {} queries on one shared snapshot; \
         host exposes {} core(s) — wall-clock speedup needs more than one",
        bench.name,
        bench.database.len(),
        workload.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    let (baseline, baseline_stats) = executor.run_batch(&workload, 1).expect("consistent plan");
    let mut sequential_ms = 0.0_f64;
    for threads in [1usize, 2, 4, 8] {
        let started = Instant::now();
        let (results, stats) = executor
            .run_batch(&workload, threads)
            .expect("consistent plan");
        let ms = started.elapsed().as_secs_f64() * 1e3 / workload.len().max(1) as f64;
        if threads == 1 {
            sequential_ms = ms;
        }
        let identical = results == baseline && stats == baseline_stats;
        table.row(vec![
            threads.to_string(),
            fnum(ms),
            fnum(sequential_ms / ms.max(1e-12)),
            identical.to_string(),
        ]);
    }
    table.note("results and accumulated stats are bit-identical across thread counts; only wall-clock changes");
    table
}

/// E13: observability. Runs the E12 workload once without a metrics
/// scope and once under [`emd_obs::Recording`], asserts the answers are
/// bit-identical, and reads the stage/solver breakdown off the harvested
/// registry — the same numbers `flexemd query --metrics json` exports.
pub fn e13(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E13",
        "observability: metrics registry breakdown (gaussian, 32-d, d'=8, k=10)",
        &["metric", "value"],
    );
    let bench = gaussian_bench(scale);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let reduction = build_reduction(Strategy::FbAllKMed, &bench, &flows, 8, SEED ^ 0xbead);
    let executor = chained_executor(&bench, reduction);
    let workload: Vec<Query> = bench
        .queries
        .iter()
        .map(|q| Query::knn(q.clone(), K_DEFAULT))
        .collect();
    table.note(format!(
        "database {} ({} objects), {} queries; registry schema {}",
        bench.name,
        bench.database.len(),
        workload.len(),
        emd_obs::SCHEMA
    ));

    // Warm-up, then the disabled path (no scope anywhere: every record
    // call is one relaxed load + branch).
    let (baseline, _) = executor.run_batch(&workload, 1).expect("consistent plan");
    let started = Instant::now();
    let (off_results, _) = executor.run_batch(&workload, 1).expect("consistent plan");
    let off = started.elapsed();

    // The recorded path.
    let recording = emd_obs::Recording::start();
    let started = Instant::now();
    let (on_results, _) = executor.run_batch(&workload, 1).expect("consistent plan");
    let on = started.elapsed();
    let registry = recording.finish();

    assert_eq!(baseline, off_results, "disabled run changed answers");
    assert_eq!(baseline, on_results, "recording changed answers");

    let n = workload.len().max(1) as f64;
    let per_query = |value: u64| fnum(value as f64 / n);
    table.row(vec![
        "queries recorded".to_owned(),
        registry.counter("query.queries").to_string(),
    ]);
    for (name, value) in registry.counters() {
        if let Some(stage) = name
            .strip_prefix("query.stage.")
            .and_then(|rest| rest.strip_suffix(".evaluations"))
        {
            table.row(vec![
                format!("{stage} evaluations/query"),
                per_query(*value),
            ]);
        }
    }
    for (label, counter) in [
        ("EMD refinements/query", "query.refinements"),
        ("exact EMD solves/query", "core.emd.solves"),
        ("simplex solver calls/query", "transport.solve.calls"),
        ("simplex pivots/query", "transport.simplex.pivots"),
        (
            "degenerate Vogel cells/query",
            "transport.vogel.degenerate_cells",
        ),
    ] {
        table.row(vec![label.to_owned(), per_query(registry.counter(counter))]);
    }
    for (label, histogram) in [
        ("query.execute span", "query.execute"),
        ("query.knop span", "query.knop"),
        ("transport.solve span", "transport.solve"),
    ] {
        if let Some(mean) = registry
            .histogram(histogram)
            .and_then(DurationHistogram::mean_nanos)
        {
            table.row(vec![format!("{label} mean [us]"), fnum(mean / 1e3)]);
        }
    }
    table.row(vec![
        "ms/query, metrics off".to_owned(),
        fnum(off.as_secs_f64() * 1e3 / n),
    ]);
    table.row(vec![
        "ms/query, metrics on".to_owned(),
        fnum(on.as_secs_f64() * 1e3 / n),
    ]);
    table.row(vec![
        "recording overhead [%]".to_owned(),
        fnum((on.as_secs_f64() / off.as_secs_f64().max(1e-12) - 1.0) * 100.0),
    ]);
    table.note(
        "answers are asserted bit-identical with metrics off and on; \
         the off path costs one relaxed atomic load per record call",
    );
    table
}

/// E14: the persistent index store. For growing corpora, compares
/// cold-starting a query pipeline by `Database::open` on a checksummed
/// segment directory against a full rebuild from the JSON dataset (load,
/// re-validate, recompute `C'`, re-reduce every histogram), asserting the
/// two pipelines answer a probe query bit-identically.
pub fn e14(scale: &Scale, quick: bool) -> Table {
    use emd_data::gaussian::{self, GaussianParams};
    use emd_query::ReducedImFilter;
    use emd_reduction::PersistedReduction;

    let mut table = Table::new(
        "E14",
        "index store: cold-start open vs rebuild from JSON (gaussian, 32-d, d'=8)",
        &[
            "objects",
            "index [KiB]",
            "rebuild [ms]",
            "open [ms]",
            "speedup",
            "identical",
        ],
    );
    let d_red = 8;
    let k = K_DEFAULT;
    let base = scale.tiling_per_class.max(2);
    let per_class_sizes = if quick {
        vec![base / 2, base]
    } else {
        vec![base / 2, base, base * 2]
    };
    let scratch = std::env::temp_dir().join(format!("flexemd-e14-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    table.note(
        "rebuild = JSON load + validate + recompute C' + re-reduce arena; \
         open = verify checksummed segments and re-check invariants",
    );

    for per_class in per_class_sizes {
        let params = GaussianParams {
            dim: 32,
            num_classes: 6,
            per_class,
            ..GaussianParams::default()
        };
        let dataset = gaussian::generate(&params, &mut StdRng::seed_from_u64(SEED));
        let json_path = scratch.join(format!("corpus-{per_class}.json"));
        emd_data::io::save(&dataset, &json_path).expect("write dataset JSON");
        let index_dir = scratch.join(format!("index-{per_class}"));

        // Build once and persist the index.
        let cost = std::sync::Arc::new(dataset.cost.clone());
        let database = Database::new(dataset.histograms.clone(), cost.clone())
            .expect("dataset is self-consistent");
        let kmed = kmedoids_reduction(&cost, d_red, &mut StdRng::seed_from_u64(SEED))
            .expect("clustering converges")
            .reduction;
        let reduced = ReducedEmd::new(&cost, kmed).expect("validated reduction");
        let bundle = PersistedReduction::precompute("kmed", reduced, database.histograms())
            .expect("matching dimensions");
        database
            .save(&index_dir, &dataset.name, &[bundle])
            .expect("save index");
        let index_bytes: u64 = std::fs::read_dir(&index_dir)
            .expect("index directory")
            .map(|entry| entry.and_then(|e| e.metadata()).map_or(0, |m| m.len()))
            .sum();

        // Cold path A: rebuild everything from the JSON artifact.
        let started = Instant::now();
        let loaded = emd_data::io::load(&json_path).expect("read dataset JSON");
        let rebuilt_cost = std::sync::Arc::new(loaded.cost.clone());
        let rebuilt_db = Database::new(loaded.histograms, rebuilt_cost.clone())
            .expect("dataset is self-consistent");
        let rebuilt_kmed =
            kmedoids_reduction(&rebuilt_cost, d_red, &mut StdRng::seed_from_u64(SEED))
                .expect("clustering converges")
                .reduction;
        let rebuilt_reduced = ReducedEmd::new(&rebuilt_cost, rebuilt_kmed).expect("validated");
        let rebuilt_bundle =
            PersistedReduction::precompute("kmed", rebuilt_reduced, rebuilt_db.histograms())
                .expect("matching dimensions");
        let rebuild_ms = started.elapsed().as_secs_f64() * 1e3;

        // Cold path B: open the persisted index.
        let started = Instant::now();
        let opened = Database::open(&index_dir).expect("open index");
        let open_ms = started.elapsed().as_secs_f64() * 1e3;
        let opened_bundle = opened
            .reductions
            .into_iter()
            .next()
            .expect("index holds the reduction");

        // Both cold starts must produce the same pipeline: probe with one
        // chained k-NN query and compare bit-for-bit.
        let probe = rebuilt_db.get(0).expect("non-empty database").clone();
        let build_executor = |db: &Database, bundle: PersistedReduction| {
            let stages: Vec<Box<dyn Filter>> = vec![
                Box::new(ReducedImFilter::from_persisted(db, bundle.clone()).expect("consistent")),
                Box::new(ReducedEmdFilter::from_persisted(db, bundle).expect("consistent")),
            ];
            let refiner = Box::new(EmdDistance::new(db).expect("consistent"));
            Executor::new(QueryPlan::new(stages, refiner).expect("consistent"))
        };
        let (rebuilt_answer, rebuilt_stats) = build_executor(&rebuilt_db, rebuilt_bundle)
            .knn(&probe, k)
            .expect("consistent plan");
        let (opened_answer, opened_stats) = build_executor(&opened.database, opened_bundle)
            .knn(&probe, k)
            .expect("consistent plan");
        let identical = rebuilt_answer == opened_answer
            && rebuilt_stats.filter_evaluations == opened_stats.filter_evaluations
            && rebuilt_stats.refinements == opened_stats.refinements;
        assert!(identical, "persisted pipeline diverged from rebuild");

        table.row(vec![
            rebuilt_db.len().to_string(),
            fnum(index_bytes as f64 / 1024.0),
            fnum(rebuild_ms),
            fnum(open_ms),
            fnum(rebuild_ms / open_ms.max(1e-9)),
            identical.to_string(),
        ]);
    }
    std::fs::remove_dir_all(&scratch).ok();
    table
}

/// E15: execution governance. Sweeps per-query wall-clock deadlines over
/// the E12 corpus: every outcome is either exact or a degraded ranking,
/// asserted sorted ascending by its lower bounds — never an error, never
/// a panic. The `unlimited` row is the plain path: every query runs the
/// one `Executor::run` body, whose budget probes cost three `Option`
/// tests per candidate when nothing is limited.
pub fn e15(scale: &Scale, _quick: bool) -> Table {
    use emd_query::{Budget, Query, QueryOutcome};
    use std::time::Duration;

    let mut table = Table::new(
        "E15",
        "execution governance: deadline sweep (gaussian, 32-d, d'=8, k=10)",
        &["run", "exact", "degraded", "mean ranked", "ms/query"],
    );
    let bench = gaussian_bench(scale);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let reduction = build_reduction(Strategy::FbAllKMed, &bench, &flows, 8, SEED ^ 0xbead);
    let executor = chained_executor(&bench, reduction);
    let n = bench.queries.len().max(1) as f64;
    table.note(format!(
        "database {} ({} objects), {} queries; each query gets a fresh wall-clock deadline",
        bench.name,
        bench.database.len(),
        bench.queries.len()
    ));

    // Degraded rankings must be ordered by their lower bounds — the
    // engine's principled-degradation contract.
    for (label, deadline) in [
        ("unlimited", None),
        ("100 ms", Some(Duration::from_millis(100))),
        ("1 ms", Some(Duration::from_millis(1))),
        ("0 ms", Some(Duration::ZERO)),
    ] {
        let mut exact = 0usize;
        let mut degraded = 0usize;
        let mut ranked = 0usize;
        let started = Instant::now();
        for query in &bench.queries {
            let budget =
                deadline.map_or_else(Budget::unlimited, |d| Budget::unlimited().with_deadline(d));
            let request = Query {
                budget,
                ..Query::knn(query.clone(), K_DEFAULT)
            };
            let (outcome, _) = executor
                .run(&request)
                .expect("budget firing degrades, it never errors");
            match outcome {
                QueryOutcome::Exact(_) => exact += 1,
                QueryOutcome::Degraded(result) => {
                    degraded += 1;
                    ranked += result.candidates.len();
                    for pair in result.candidates.windows(2) {
                        assert!(
                            pair[0].bound <= pair[1].bound,
                            "degraded ranking out of bound order"
                        );
                    }
                }
            }
        }
        let ms = started.elapsed().as_secs_f64() * 1e3 / n;
        table.row(vec![
            label.to_owned(),
            exact.to_string(),
            degraded.to_string(),
            if degraded == 0 {
                "-".to_owned()
            } else {
                fnum(ranked as f64 / degraded as f64)
            },
            fnum(ms),
        ]);
    }
    table
}

/// One measured workload of the E16 warm-start report (`BENCH_PR7.json`).
struct WarmColdRow {
    /// Workload label, e.g. `"E4-style tiling"`.
    workload: String,
    /// Histogram dimensionality.
    dim: usize,
    /// Reduced dimensionality d' of the chained plan.
    d_red: usize,
    /// Database size.
    objects: usize,
    /// Query count.
    queries: usize,
    /// Neighbors requested per query.
    k: usize,
    /// Best-of-reps mean response time, cold mode (fresh workspace per solve).
    cold_ms_per_query: f64,
    /// Best-of-reps mean response time, warm mode (reused per-query context).
    warm_ms_per_query: f64,
    /// `cold_ms_per_query / warm_ms_per_query`.
    speedup: f64,
    /// Mean simplex pivots per query, cold mode.
    cold_pivots_per_query: f64,
    /// Mean simplex pivots per query, warm mode.
    warm_pivots_per_query: f64,
    /// Mean dual-repair pivots per query, warm mode (counted separately
    /// from simplex pivots; earlier revisions double-counted them).
    warm_repair_pivots_per_query: f64,
    /// Total warm-basis refit attempts over the timed warm passes.
    warm_attempts: u64,
    /// Refit attempts that produced a feasible starting basis.
    warm_hits: u64,
    /// `warm_hits / warm_attempts`.
    warm_hit_rate: f64,
    /// Warm-vs-cold answers (ids, distance bits, stats) matched exactly.
    bit_identical: bool,
}

serde::impl_serde_struct!(WarmColdRow {
    workload,
    dim,
    d_red,
    objects,
    queries,
    k,
    cold_ms_per_query,
    warm_ms_per_query,
    speedup,
    cold_pivots_per_query,
    warm_pivots_per_query,
    warm_repair_pivots_per_query,
    warm_attempts,
    warm_hits,
    warm_hit_rate,
    bit_identical,
});

/// The schema-versioned payload E16 writes to the repository root.
struct WarmColdReport {
    /// Schema tag, always `"flexemd-bench/v1"`.
    schema: String,
    /// Producing experiment id (`"E16"`).
    experiment: String,
    /// Human-readable summary of the methodology.
    description: String,
    /// One entry per measured workload.
    rows: Vec<WarmColdRow>,
}

serde::impl_serde_struct!(WarmColdReport {
    schema,
    experiment,
    description,
    rows,
});

/// A tie-broken copy of a bench: every non-zero ground-distance entry
/// gets a deterministic relative jitter of at most 1e-4. Grid and linear
/// ground distances are integer-valued, so ties between transport bases
/// are common and warm/cold solves may legitimately settle on different
/// (equally optimal) bases whose objectives differ in the last ulp. The
/// jitter makes every LP's optimal basis generically unique, so E16 can
/// assert *bit-identical* answers rather than a tolerance — while keeping
/// the corpus geometry (and hence filter selectivity) E4/E12-style to
/// within 0.01%.
fn tie_broken(bench: &Bench, seed: u64) -> Bench {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries: Vec<f64> = bench
        .cost
        .entries()
        .iter()
        .map(|&c| {
            if c == 0.0 {
                0.0
            } else {
                c * (1.0 + rng.gen_range(0.0_f64..1e-4))
            }
        })
        .collect();
    let cost = std::sync::Arc::new(checked(
        emd_core::CostMatrix::new(bench.cost.rows(), bench.cost.cols(), entries),
        "jittered copy of a valid matrix stays valid",
    ));
    Bench {
        name: format!("{} [tie-broken]", bench.name),
        database: checked(
            Database::new(bench.database.histograms().to_vec(), cost.clone()),
            "same histograms over the same dimensions",
        ),
        cost,
        queries: bench.queries.clone(),
        positions: bench.positions.clone(),
    }
}

/// Measure one chained KNOP workload cold (warm starts forced off — the
/// pre-warm code path) and warm (per-query solver contexts) in the same
/// run: an untimed parity pass asserts bit-identical answers, then
/// best-of-3 timed passes under [`emd_obs::Recording`] scopes collect
/// response times, pivot counts, and the warm-start hit rate.
fn warm_cold_row(
    bench: &Bench,
    workload: &str,
    d_red: usize,
    k: usize,
    sample: usize,
) -> WarmColdRow {
    let flows = flow_sample(bench, sample, SEED ^ 0xf10);
    let reduction = build_reduction(Strategy::FbAllKMed, bench, &flows, d_red, SEED ^ 0xbead);
    let cold = chained_executor_mode(bench, reduction.clone(), false);
    let warm = chained_executor_mode(bench, reduction, true);

    let mut bit_identical = true;
    for query in &bench.queries {
        let (cold_neighbors, cold_stats) = checked(cold.knn(query, k), "consistent cold plan");
        let (warm_neighbors, warm_stats) = checked(warm.knn(query, k), "consistent warm plan");
        bit_identical &= cold_stats == warm_stats
            && cold_neighbors.len() == warm_neighbors.len()
            && cold_neighbors
                .iter()
                .zip(&warm_neighbors)
                .all(|(c, w)| c.id == w.id && c.distance.to_bits() == w.distance.to_bits());
    }
    assert!(bit_identical, "warm-vs-cold answers diverged on {workload}");

    const REPS: usize = 3;
    let per_query_solves = (bench.queries.len().max(1) * REPS) as f64;
    let recording = emd_obs::Recording::start();
    let mut cold_ms = f64::INFINITY;
    for _ in 0..REPS {
        let pass = measure_knn(&cold, &bench.queries, k).time_per_query;
        cold_ms = cold_ms.min(pass.as_secs_f64() * 1e3);
    }
    let cold_registry = recording.finish();
    let recording = emd_obs::Recording::start();
    let mut warm_ms = f64::INFINITY;
    for _ in 0..REPS {
        let pass = measure_knn(&warm, &bench.queries, k).time_per_query;
        warm_ms = warm_ms.min(pass.as_secs_f64() * 1e3);
    }
    let warm_registry = recording.finish();

    let warm_attempts = warm_registry.counter("transport.warm.attempts");
    let warm_hits = warm_registry.counter("transport.warm.hits");
    WarmColdRow {
        workload: workload.to_owned(),
        dim: bench.dim(),
        d_red,
        objects: bench.database.len(),
        queries: bench.queries.len(),
        k,
        cold_ms_per_query: cold_ms,
        warm_ms_per_query: warm_ms,
        speedup: cold_ms / warm_ms.max(1e-12),
        cold_pivots_per_query: cold_registry.counter("transport.simplex.pivots") as f64
            / per_query_solves,
        warm_pivots_per_query: warm_registry.counter("transport.simplex.pivots") as f64
            / per_query_solves,
        warm_repair_pivots_per_query: warm_registry.counter("transport.warm.repair_pivots") as f64
            / per_query_solves,
        warm_attempts,
        warm_hits,
        warm_hit_rate: warm_hits as f64 / warm_attempts.max(1) as f64,
        bit_identical,
    }
}

/// E16: warm-start solver workspaces. Cold-vs-warm response times on the
/// E4-style (tiling, 96-d) and E12-style (gaussian, 32-d) chained KNOP
/// workloads, measured A/B in the same run with bit-identical answers
/// asserted, plus the solver-level economics (pivots per query, warm-start
/// hit rate) and a k=1 overhead row. Writes `BENCH_PR7.json`
/// (schema `flexemd-bench/v1`) to the repository root.
pub fn e16(scale: &Scale, _quick: bool) -> Table {
    let mut table = Table::new(
        "E16",
        "warm-start solver workspaces: cold vs warm (chained KNOP plans)",
        &[
            "workload",
            "k",
            "cold ms/q",
            "warm ms/q",
            "speedup",
            "cold piv/q",
            "warm piv/q",
            "repair piv/q",
            "hit rate",
            "identical",
        ],
    );
    let tiling = tie_broken(&tiling_bench(scale, SEED), SEED ^ 0x71e);
    let gaussian = tie_broken(&gaussian_bench(scale), SEED ^ 0x9a55);
    let rows = vec![
        warm_cold_row(&tiling, "E4-style tiling", 16, K_DEFAULT, scale.sample),
        warm_cold_row(&gaussian, "E12-style gaussian", 8, K_DEFAULT, scale.sample),
        warm_cold_row(&gaussian, "E12-style gaussian", 8, 1, scale.sample),
    ];
    for row in &rows {
        table.row(vec![
            row.workload.clone(),
            row.k.to_string(),
            fnum(row.cold_ms_per_query),
            fnum(row.warm_ms_per_query),
            fnum(row.speedup),
            fnum(row.cold_pivots_per_query),
            fnum(row.warm_pivots_per_query),
            fnum(row.warm_repair_pivots_per_query),
            fnum(row.warm_hit_rate),
            row.bit_identical.to_string(),
        ]);
    }
    table.note(
        "cold = fresh solver workspace and buffers per candidate (the pre-warm \
         code path); warm = one reused context per prepared query; answers \
         asserted bit-identical in the same run, best-of-3 timing",
    );
    table.note(
        "ground distances carry a deterministic <=0.01% tie-breaking jitter so \
         every LP has a unique optimal basis and bit-parity is exact",
    );
    let report = WarmColdReport {
        schema: "flexemd-bench/v1".to_owned(),
        experiment: "E16".to_owned(),
        description: "Warm-start solver workspaces: chained KNOP (Red-IM -> Red-EMD -> EMD) \
                      measured with warm-start contexts forced off (cold) and on (warm) in \
                      the same run; answers asserted bit-identical; best-of-3 timing; pivot \
                      counts and warm hit rates from the emd-obs registry."
            .to_owned(),
        rows,
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR7.json");
    match serde_json::to_vec_pretty(&report).map(|bytes| std::fs::write(&path, bytes)) {
        Ok(Ok(())) => table.note(format!("wrote {}", path.display())),
        Ok(Err(error)) => table.note(format!("could not write BENCH_PR7.json: {error}")),
        Err(error) => table.note(format!("could not serialize BENCH_PR7.json: {error}")),
    }
    table
}

/// One measured database size of the E17 scalability report
/// (`BENCH_PR8.json`).
struct ScalabilityRow {
    /// Database size n.
    objects: usize,
    /// Clusters built by greedy k-center (`ceil(sqrt(n))`).
    clusters: usize,
    /// Query count.
    queries: usize,
    /// Neighbors requested per query.
    k: usize,
    /// Histogram dimensionality.
    dim: usize,
    /// Reduced dimensionality d'.
    d_red: usize,
    /// Mean stage-1 lower-bound evaluations per query, full-scan plan
    /// (always exactly n: the Red-EMD filter evaluates every object).
    scan_stage1_per_query: f64,
    /// Mean stage-1 lower-bound evaluations per query, clustered source
    /// (pivot distances plus members of expanded clusters only).
    clustered_stage1_per_query: f64,
    /// `clustered_stage1_per_query / scan_stage1_per_query`.
    stage1_ratio: f64,
    /// Mean clusters expanded per query (bound below the stopping radius).
    clusters_visited_per_query: f64,
    /// Mean clusters never expanded per query (triangle-pruned).
    clusters_pruned_per_query: f64,
    /// Mean exact EMD refinements per query (identical for both plans).
    refinements_per_query: f64,
    /// Mean response time, full-scan plan.
    scan_ms_per_query: f64,
    /// Mean response time, clustered source.
    clustered_ms_per_query: f64,
    /// Wall-clock cost of building the clustered index.
    build_ms: f64,
    /// Scan-vs-clustered answers (ids and distance bits) matched exactly.
    bit_identical: bool,
}

serde::impl_serde_struct!(ScalabilityRow {
    objects,
    clusters,
    queries,
    k,
    dim,
    d_red,
    scan_stage1_per_query,
    clustered_stage1_per_query,
    stage1_ratio,
    clusters_visited_per_query,
    clusters_pruned_per_query,
    refinements_per_query,
    scan_ms_per_query,
    clustered_ms_per_query,
    build_ms,
    bit_identical,
});

/// The schema-versioned payload E17 writes to the repository root.
struct ScalabilityReport {
    /// Schema tag, always `"flexemd-bench/v1"`.
    schema: String,
    /// Producing experiment id (`"E17"`).
    experiment: String,
    /// Human-readable summary of the methodology.
    description: String,
    /// One entry per database size, ascending.
    rows: Vec<ScalabilityRow>,
}

serde::impl_serde_struct!(ScalabilityReport {
    schema,
    experiment,
    description,
    rows,
});

/// Synthetic clustered corpus for the E17 scalability sweep: `groups`
/// well-separated modes on a 64-bin chain whose ground distance is
/// saturated at `tau = 4`. Group `g` concentrates its mass on the
/// four-bin window `[4g, 4g+3]` with up to ~15% spilling into the next
/// bin, so contiguous four-bin blocks reduce each group to (nearly) one
/// reduced bin: intra-group reduced distances are small, inter-group
/// distances saturate, and triangle pruning has real separation to work
/// with. Returns `(database, held-out queries)`.
fn separated_corpus(
    objects: usize,
    queries: usize,
    seed: u64,
) -> (Database, Vec<emd_core::Histogram>) {
    const DIM: usize = 64;
    const GROUPS: usize = 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let bases: Vec<[f64; 5]> = (0..GROUPS)
        .map(|_| {
            [
                rng.gen_range(0.2..1.0),
                rng.gen_range(0.2..1.0),
                rng.gen_range(0.2..1.0),
                rng.gen_range(0.2..1.0),
                rng.gen_range(0.0..0.15),
            ]
        })
        .collect();
    let draw = |group: usize, rng: &mut StdRng| {
        let mut bins = vec![0.0_f64; DIM];
        let start = 4 * group;
        // group is taken modulo GROUPS, so the lookup always succeeds.
        for (offset, &base) in bases.get(group).into_iter().flatten().enumerate() {
            if let Some(slot) = bins.get_mut(start + offset) {
                *slot = base * rng.gen_range(0.8..1.2);
            }
        }
        checked(
            emd_core::Histogram::normalized(bins),
            "window weights are positive",
        )
    };
    let mut all: Vec<emd_core::Histogram> = (0..objects + queries)
        .map(|i| draw(i % GROUPS, &mut rng))
        .collect();
    let query_set = all.split_off(objects);
    let cost = std::sync::Arc::new(checked(
        emd_core::ground::linear(DIM).and_then(|c| emd_core::ground::saturated(&c, 4.0)),
        "chain ground distance saturates cleanly",
    ));
    let database = checked(Database::new(all, cost), "corpus is self-consistent");
    (database, query_set)
}

/// Measure one database size of the E17 sweep: the same
/// `Red-EMD -> EMD` query answered by a full-scan plan and by a
/// [`ClusteredIndex`](emd_query::ClusteredIndex) candidate source, with
/// answers asserted bit-identical and stage-1 evaluation counts taken
/// from [`QueryStats`](emd_query::QueryStats) (cluster visit/prune
/// counts from the `emd-obs` registry).
fn scalability_row(objects: usize, queries: usize, k: usize) -> ScalabilityRow {
    const D_RED: usize = 16;
    let (database, query_set) = separated_corpus(objects, queries, SEED ^ objects as u64);
    let assignments: Vec<usize> = (0..database.dim()).map(|bin| bin / 4).collect();
    let reduction = checked(
        CombiningReduction::new(assignments, D_RED),
        "contiguous blocks form a valid reduction",
    );
    let reduced = checked(
        ReducedEmd::new(database.cost_arc(), reduction),
        "saturated chain reduces cleanly",
    );

    let scan_plan = checked(
        QueryPlan::new(
            vec![Box::new(checked(
                ReducedEmdFilter::new(&database, reduced.clone()),
                "reduction matches the corpus",
            )) as Box<dyn Filter>],
            Box::new(checked(
                EmdDistance::new(&database),
                "refiner over a valid snapshot",
            )),
        ),
        "single-stage plan is well-formed",
    );
    let scan = Executor::new(scan_plan);

    let started = Instant::now();
    let index = checked(
        emd_query::ClusteredIndex::build(&database, reduced, 1.0),
        "separated corpus clusters cleanly",
    );
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    let clusters = index.clusters();
    let clustered_plan = checked(
        QueryPlan::new(
            Vec::new(),
            Box::new(checked(
                EmdDistance::new(&database),
                "refiner over a valid snapshot",
            )),
        )
        .and_then(|plan| plan.with_source(Box::new(index))),
        "source indexes the same snapshot",
    );
    let clustered = Executor::new(clustered_plan);

    let mut bit_identical = true;
    for query in &query_set {
        let (scan_neighbors, _) = checked(scan.knn(query, k), "consistent scan plan");
        let (clustered_neighbors, _) =
            checked(clustered.knn(query, k), "consistent clustered plan");
        bit_identical &= scan_neighbors.len() == clustered_neighbors.len()
            && scan_neighbors
                .iter()
                .zip(&clustered_neighbors)
                .all(|(s, c)| s.id == c.id && s.distance.to_bits() == c.distance.to_bits());
    }
    assert!(
        bit_identical,
        "scan-vs-clustered answers diverged at n = {objects}"
    );

    let scan_measurement = measure_knn(&scan, &query_set, k);
    let recording = emd_obs::Recording::start();
    let clustered_measurement = measure_knn(&clustered, &query_set, k);
    let registry = recording.finish();

    let per_query = query_set.len().max(1) as f64;
    let stage1 = |m: &crate::setup::WorkloadMeasurement| {
        m.stage_evaluations.first().map_or(0.0, |(_, n)| *n)
    };
    let scan_stage1 = stage1(&scan_measurement);
    let clustered_stage1 = stage1(&clustered_measurement);
    ScalabilityRow {
        objects,
        clusters,
        queries: query_set.len(),
        k,
        dim: database.dim(),
        d_red: D_RED,
        scan_stage1_per_query: scan_stage1,
        clustered_stage1_per_query: clustered_stage1,
        stage1_ratio: clustered_stage1 / scan_stage1.max(1.0),
        clusters_visited_per_query: registry.counter("index.clusters_visited") as f64 / per_query,
        clusters_pruned_per_query: registry.counter("index.clusters_pruned") as f64 / per_query,
        refinements_per_query: clustered_measurement.refinements,
        scan_ms_per_query: scan_measurement.time_per_query.as_secs_f64() * 1e3,
        clustered_ms_per_query: clustered_measurement.time_per_query.as_secs_f64() * 1e3,
        build_ms,
        bit_identical,
    }
}

/// E17: sublinear stage-1 candidate generation. Greedy k-center
/// clustering over the reduced space vs the full Red-EMD scan on a
/// synthetic well-separated corpus, swept over database sizes, with
/// bit-identical answers asserted at every size. Writes
/// `BENCH_PR8.json` (schema `flexemd-bench/v1`) to the repository root.
pub fn e17(scale: &Scale, quick: bool) -> Table {
    let mut table = Table::new(
        "E17",
        "clustered candidate source vs full Red-EMD scan (separated 64-d corpus)",
        &[
            "n",
            "clusters",
            "scan lb/q",
            "clustered lb/q",
            "ratio",
            "visited/q",
            "pruned/q",
            "refine/q",
            "scan ms/q",
            "clustered ms/q",
            "build ms",
            "identical",
        ],
    );
    let sizes: &[usize] = if quick {
        &[500, 1_000, 2_000]
    } else {
        &[10_000, 30_000, 100_000]
    };
    let queries = scale.queries.min(20);
    let rows: Vec<ScalabilityRow> = sizes
        .iter()
        .map(|&n| scalability_row(n, queries, K_DEFAULT))
        .collect();
    for row in &rows {
        table.row(vec![
            row.objects.to_string(),
            row.clusters.to_string(),
            fnum(row.scan_stage1_per_query),
            fnum(row.clustered_stage1_per_query),
            fnum(row.stage1_ratio),
            fnum(row.clusters_visited_per_query),
            fnum(row.clusters_pruned_per_query),
            fnum(row.refinements_per_query),
            fnum(row.scan_ms_per_query),
            fnum(row.clustered_ms_per_query),
            fnum(row.build_ms),
            row.bit_identical.to_string(),
        ]);
    }
    table.note(
        "both plans refine with the exact EMD through the same KNOP loop; \
         stage-1 counts are lower-bound evaluations in the reduced space \
         (the scan computes all n, the clustered source computes pivot \
         distances plus members of expanded clusters); answers asserted \
         bit-identical at every size",
    );
    table.note("acceptance: ratio <= 0.5 at the largest n (checked in CI against BENCH_PR8.json)");
    let report = ScalabilityReport {
        schema: "flexemd-bench/v1".to_owned(),
        experiment: "E17".to_owned(),
        description: "Sublinear stage-1 candidates: greedy k-center clustering with \
                      triangle-inequality pruning over the reduced space vs the full \
                      Red-EMD scan, swept over database sizes on a 16-mode separated \
                      64-d corpus (saturated chain ground distance, contiguous 4-bin \
                      block reduction to d' = 16); answers bit-identical; stage-1 \
                      evaluation counts from QueryStats, cluster visit/prune counts \
                      from the emd-obs registry."
            .to_owned(),
        rows,
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR8.json");
    match serde_json::to_vec_pretty(&report).map(|bytes| std::fs::write(&path, bytes)) {
        Ok(Ok(())) => table.note(format!("wrote {}", path.display())),
        Ok(Err(error)) => table.note(format!("could not write BENCH_PR8.json: {error}")),
        Err(error) => table.note(format!("could not serialize BENCH_PR8.json: {error}")),
    }
    table
}

/// One measured sweep point of the E18 serving-load report
/// (`BENCH_PR9.json`).
struct ServeLoadRow {
    /// Sweep this point belongs to: `"threads"` or `"deadline"`.
    sweep: String,
    /// Closed-loop client threads.
    threads: usize,
    /// Requests issued over the run.
    requests: usize,
    /// Per-request deadline in milliseconds; `-1` = unlimited.
    deadline_ms: f64,
    /// Exact `200` responses.
    ok: usize,
    /// Degraded `200` responses.
    degraded: usize,
    /// `429` shed responses.
    shed: usize,
    /// `5xx` responses and transport failures.
    server_errors: usize,
    /// `degraded / (ok + degraded)`.
    degraded_rate: f64,
    /// Answered requests per second of wall clock.
    throughput_rps: f64,
    /// Mean latency over answered requests, microseconds.
    mean_us: f64,
    /// Median latency, microseconds.
    p50_us: u64,
    /// 99th-percentile latency, microseconds.
    p99_us: u64,
}

serde::impl_serde_struct!(ServeLoadRow {
    sweep,
    threads,
    requests,
    deadline_ms,
    ok,
    degraded,
    shed,
    server_errors,
    degraded_rate,
    throughput_rps,
    mean_us,
    p50_us,
    p99_us,
});

/// The schema-versioned payload E18 writes to the repository root.
struct ServeLoadReport {
    /// Schema tag, always `"flexemd-bench/v1"`.
    schema: String,
    /// Producing experiment id (`"E18"`).
    experiment: String,
    /// Human-readable summary of the methodology.
    description: String,
    /// One entry per sweep point.
    rows: Vec<ServeLoadRow>,
}

serde::impl_serde_struct!(ServeLoadReport {
    schema,
    experiment,
    description,
    rows,
});

/// Drive one loadgen workload against the live server and fold the
/// report into a sweep row.
fn serve_load_point(
    addr: std::net::SocketAddr,
    sweep: &str,
    threads: usize,
    requests: usize,
    deadline_ms: Option<u64>,
) -> Result<ServeLoadRow, emd_serve::ServeError> {
    let spec = QuerySpec {
        k: Some(K_DEFAULT),
        deadline_ms,
        ..QuerySpec::default()
    };
    let config = LoadgenConfig {
        addr: addr.to_string(),
        threads,
        requests,
        spec,
        seed: SEED,
        io_timeout: std::time::Duration::from_secs(60),
    };
    let report = emd_serve::loadgen::run(&config)?;
    Ok(ServeLoadRow {
        sweep: sweep.to_owned(),
        threads,
        requests,
        deadline_ms: deadline_ms.map_or(-1.0, |ms| ms as f64),
        ok: report.ok,
        degraded: report.degraded,
        shed: report.shed,
        server_errors: report.server_errors,
        degraded_rate: report.degraded_rate(),
        throughput_rps: report.throughput_rps,
        mean_us: report.latency.mean_us,
        p50_us: report.latency.p50_us,
        p99_us: report.latency.p99_us,
    })
}

/// Serving under load: an in-process `flexemd serve` instance over the
/// E4-style Gaussian corpus with a chained `Red-EMD -> EMD` plan, driven
/// by the closed-loop load generator. Two sweeps share the server:
/// throughput vs client thread count (unlimited budgets), then a
/// deadline sweep at fixed concurrency showing the degraded-rate /
/// latency tradeoff of per-request admission budgets.
pub fn e18(scale: &Scale, quick: bool) -> Table {
    let mut table = Table::new(
        "E18",
        "Query serving under load: thread and deadline sweeps",
        &[
            "sweep",
            "thr",
            "deadline",
            "req",
            "ok",
            "degr",
            "shed",
            "err",
            "degr-rate",
            "rps",
            "p50 us",
            "p99 us",
        ],
    );
    let bench = gaussian_bench(scale);
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let reduction = build_reduction(Strategy::FbAllKMed, &bench, &flows, 8, SEED ^ 0xbead);
    let executor = chained_executor(&bench, reduction);
    let snapshot = Snapshot {
        executor,
        database: bench.database.clone(),
        name: bench.name.clone(),
        faults: None,
        ingest: None,
    };
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let server = match Server::start(snapshot, config) {
        Ok(server) => server,
        Err(error) => {
            table.note(format!("could not start the query server: {error}"));
            return table;
        }
    };
    let addr = server.addr();
    table.note(format!(
        "corpus {} ({} objects, d={}), chained FB-All+KMed plan (d'=8), 4 server workers, \
         k={K_DEFAULT}, deterministic seeded workload",
        bench.name,
        bench.database.len(),
        bench.dim(),
    ));

    let requests = if quick { 64 } else { 256 };
    let mut rows: Vec<ServeLoadRow> = Vec::new();
    let points: Vec<(&str, usize, Option<u64>)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| ("threads", threads, None))
        .chain(
            [None, Some(20), Some(5), Some(1), Some(0)]
                .iter()
                .map(|&deadline| ("deadline", 4usize, deadline)),
        )
        .collect();
    for (sweep, threads, deadline_ms) in points {
        match serve_load_point(addr, sweep, threads, requests, deadline_ms) {
            Ok(row) => rows.push(row),
            Err(error) => table.note(format!(
                "sweep {sweep} (threads={threads}, deadline={deadline_ms:?}) failed: {error}"
            )),
        }
    }
    if let Err(error) = server.drain_and_join() {
        table.note(format!("drain failed: {error}"));
    }

    for row in &rows {
        let deadline = if row.deadline_ms < 0.0 {
            "none".to_owned()
        } else {
            format!("{} ms", row.deadline_ms)
        };
        table.row(vec![
            row.sweep.clone(),
            row.threads.to_string(),
            deadline,
            row.requests.to_string(),
            row.ok.to_string(),
            row.degraded.to_string(),
            row.shed.to_string(),
            row.server_errors.to_string(),
            fnum(row.degraded_rate),
            fnum(row.throughput_rps),
            row.p50_us.to_string(),
            row.p99_us.to_string(),
        ]);
    }
    table.note(
        "thread sweep: unlimited budgets, closed loop (each client waits for its response); \
         deadline sweep: 4 clients, per-request wall-clock budgets lowered through the same \
         QuerySpec the CLI uses — tighter deadlines trade exactness (degraded-rate rises) \
         for tail latency",
    );
    let report = ServeLoadReport {
        schema: "flexemd-bench/v1".to_owned(),
        experiment: "E18".to_owned(),
        description: "Closed-loop load generation against a live flexemd serve instance \
                      (std-only HTTP/1.1, 4 workers, bounded accept queue) over the E4-style \
                      32-d Gaussian corpus with a chained FB-All+KMed plan (d' = 8): \
                      throughput vs client thread count with unlimited budgets, then a \
                      per-request deadline sweep at 4 clients showing the degraded-rate / \
                      latency tradeoff; responses carry exact/degraded flags and the workload \
                      is a deterministic splitmix64 stream."
            .to_owned(),
        rows,
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR9.json");
    match serde_json::to_vec_pretty(&report).map(|bytes| std::fs::write(&path, bytes)) {
        Ok(Ok(())) => table.note(format!("wrote {}", path.display())),
        Ok(Err(error)) => table.note(format!("could not write BENCH_PR9.json: {error}")),
        Err(error) => table.note(format!("could not serialize BENCH_PR9.json: {error}")),
    }
    table
}

/// One measured point of the E19 streaming-ingest / crash-recovery
/// report (`BENCH_PR10.json`).
struct IngestRow {
    /// Measurement family: `"ingest"`, `"recovery"` or `"query"`.
    phase: String,
    /// Point within the family (e.g. `"sync-each"`, `"replay-128"`).
    mode: String,
    /// Live objects in the index at measurement time.
    objects: usize,
    /// Bytes in the active WAL file at measurement time.
    wal_bytes: u64,
    /// Wall-clock for the measured operation, milliseconds.
    elapsed_ms: f64,
    /// Mean per-operation cost (insert / replayed record / query),
    /// microseconds.
    per_op_us: f64,
}

serde::impl_serde_struct!(IngestRow {
    phase,
    mode,
    objects,
    wal_bytes,
    elapsed_ms,
    per_op_us,
});

/// The schema-versioned payload E19 writes to the repository root.
struct IngestReport {
    /// Schema tag, always `"flexemd-bench/v1"`.
    schema: String,
    /// Producing experiment id (`"E19"`).
    experiment: String,
    /// Human-readable summary of the methodology.
    description: String,
    /// One entry per measurement point.
    rows: Vec<IngestRow>,
}

serde::impl_serde_struct!(IngestReport {
    schema,
    experiment,
    description,
    rows,
});

/// A scratch directory for one E19 durable index, cleared on entry.
fn e19_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flexemd-bench-e19-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bytes in the active `wal-<epoch>.log` of a durable directory.
fn wal_bytes(dir: &std::path::Path, epoch: u64) -> u64 {
    std::fs::metadata(dir.join(format!("wal-{epoch}.log"))).map_or(0, |meta| meta.len())
}

/// Streaming ingest and crash recovery: the durability cost of the WAL
/// (fsync-per-record vs batched group commit), recovery time as a
/// function of replayed WAL length (and the compaction fast path that
/// collapses it), and query latency on copy-on-write snapshots that stay
/// bit-stable while ingest and compaction run underneath them.
pub fn e19(scale: &Scale, quick: bool) -> Table {
    let mut table = Table::new(
        "E19",
        "Streaming ingest: WAL durability cost, recovery replay, snapshot isolation",
        &["phase", "mode", "objects", "wal bytes", "ms", "us/op"],
    );
    let bench = gaussian_bench(scale);
    let histograms = bench.database.histograms();
    let n = histograms.len().min(if quick { 96 } else { 256 });
    let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
    let reduction = build_reduction(Strategy::KMed, &bench, &flows, 8, SEED ^ 0xbead);
    let reduced = |r: &CombiningReduction| {
        checked(
            ReducedEmd::new(&bench.cost, r.clone()),
            "validated reduction",
        )
    };
    table.note(format!(
        "corpus {} (d={}), first {n} objects ingested per run, KMed reduction (d'=8)",
        bench.name,
        bench.dim(),
    ));
    let mut rows: Vec<IngestRow> = Vec::new();

    // Phase 1 — ingest throughput: one fsync per acknowledged record vs
    // group commit (append everything, sync once).
    for (mode, sync_each) in [("sync-each", true), ("batched", false)] {
        let dir = e19_dir(mode);
        let mut index = checked(
            emd_query::DurableIndex::create(&dir, bench.cost.clone(), reduced(&reduction)),
            "create durable index",
        );
        let started = Instant::now();
        for histogram in histograms.iter().take(n) {
            if sync_each {
                checked(index.insert(histogram.clone()), "durable insert");
            } else {
                checked(index.append_insert(histogram.clone()), "append insert");
            }
        }
        checked(index.sync(), "final sync");
        let elapsed = started.elapsed();
        rows.push(IngestRow {
            phase: "ingest".to_owned(),
            mode: mode.to_owned(),
            objects: index.len(),
            wal_bytes: wal_bytes(&dir, index.epoch()),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            per_op_us: elapsed.as_secs_f64() * 1e6 / n.max(1) as f64,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Phase 2 — recovery: reopen cost scales with the replayed WAL
    // length; compaction folds the tail into a sealed segment and leaves
    // a single compact-epoch record to replay.
    let recovery_lengths = [n.div_ceil(4).max(1), n.div_ceil(2).max(1), n.max(1)];
    for replayed in recovery_lengths {
        let dir = e19_dir(&format!("recover-{replayed}"));
        {
            let mut index = checked(
                emd_query::DurableIndex::create(&dir, bench.cost.clone(), reduced(&reduction)),
                "create durable index",
            );
            for histogram in histograms.iter().take(replayed) {
                checked(index.append_insert(histogram.clone()), "append insert");
            }
            checked(index.sync(), "final sync");
        }
        let started = Instant::now();
        let (reopened, report) = checked(emd_query::DurableIndex::open(&dir), "reopen");
        let elapsed = started.elapsed();
        rows.push(IngestRow {
            phase: "recovery".to_owned(),
            mode: format!("replay-{}", report.replayed_records),
            objects: reopened.len(),
            wal_bytes: wal_bytes(&dir, reopened.epoch()),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            per_op_us: elapsed.as_secs_f64() * 1e6 / report.replayed_records.max(1) as f64,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        let dir = e19_dir("recover-compacted");
        {
            let mut index = checked(
                emd_query::DurableIndex::create(&dir, bench.cost.clone(), reduced(&reduction)),
                "create durable index",
            );
            for histogram in histograms.iter().take(n) {
                checked(index.append_insert(histogram.clone()), "append insert");
            }
            checked(index.sync(), "final sync");
            checked(index.compact(), "compact");
        }
        let started = Instant::now();
        let (reopened, report) = checked(emd_query::DurableIndex::open(&dir), "reopen");
        let elapsed = started.elapsed();
        rows.push(IngestRow {
            phase: "recovery".to_owned(),
            mode: "after-compact".to_owned(),
            objects: reopened.len(),
            wal_bytes: wal_bytes(&dir, reopened.epoch()),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            per_op_us: elapsed.as_secs_f64() * 1e6 / report.replayed_records.max(1) as f64,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Phase 3 — snapshot isolation: query a frozen pre-ingest snapshot,
    // ingest and compact underneath it, query it again (must be
    // bit-identical), then query a fresh post-compaction snapshot.
    {
        let dir = e19_dir("query");
        let mut index = checked(
            emd_query::DurableIndex::create(&dir, bench.cost.clone(), reduced(&reduction)),
            "create durable index",
        );
        for histogram in histograms.iter().take(n) {
            checked(index.append_insert(histogram.clone()), "append insert");
        }
        checked(index.sync(), "final sync");
        let queries: Vec<_> = bench.queries.iter().take(8).collect();
        let k = K_DEFAULT.min(n);
        let run_queries = |snapshot: &emd_query::DurableSnapshot| {
            let started = Instant::now();
            let fingerprints: Vec<Vec<(u64, u64)>> = queries
                .iter()
                .map(|query| {
                    checked(snapshot.knn(query, k), "snapshot knn")
                        .0
                        .iter()
                        .map(|&(id, distance)| (id, distance.to_bits()))
                        .collect()
                })
                .collect();
            (started.elapsed(), fingerprints)
        };
        let frozen = checked(index.snapshot(), "pre-ingest snapshot");
        let (elapsed, baseline) = run_queries(&frozen);
        rows.push(IngestRow {
            phase: "query".to_owned(),
            mode: "frozen-snapshot".to_owned(),
            objects: frozen.len(),
            wal_bytes: wal_bytes(&dir, index.epoch()),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            per_op_us: elapsed.as_secs_f64() * 1e6 / queries.len().max(1) as f64,
        });
        for histogram in histograms.iter().take(n.min(16)) {
            checked(index.append_insert(histogram.clone()), "append insert");
        }
        checked(index.sync(), "final sync");
        checked(index.compact(), "compact");
        let (elapsed, after) = run_queries(&frozen);
        let stable = baseline == after;
        rows.push(IngestRow {
            phase: "query".to_owned(),
            mode: "frozen-after-compact".to_owned(),
            objects: frozen.len(),
            wal_bytes: wal_bytes(&dir, index.epoch()),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            per_op_us: elapsed.as_secs_f64() * 1e6 / queries.len().max(1) as f64,
        });
        let fresh = checked(index.snapshot(), "post-compaction snapshot");
        let (elapsed, _) = run_queries(&fresh);
        rows.push(IngestRow {
            phase: "query".to_owned(),
            mode: "fresh-snapshot".to_owned(),
            objects: fresh.len(),
            wal_bytes: wal_bytes(&dir, index.epoch()),
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            per_op_us: elapsed.as_secs_f64() * 1e6 / queries.len().max(1) as f64,
        });
        table.note(format!(
            "frozen snapshot bit-stable across {} concurrent inserts + compaction: {stable}",
            n.min(16),
        ));
        assert!(stable, "pre-ingest snapshot moved under ingest");
        let _ = std::fs::remove_dir_all(&dir);
    }

    for row in &rows {
        table.row(vec![
            row.phase.clone(),
            row.mode.clone(),
            row.objects.to_string(),
            row.wal_bytes.to_string(),
            fnum(row.elapsed_ms),
            fnum(row.per_op_us),
        ]);
    }
    table.note(
        "ingest: sync-each pays one fsync per acknowledged record, batched appends \
         everything and syncs once (group commit); recovery: reopen replays the WAL over \
         the sealed segment, so compaction collapses replay to the single compact-epoch \
         record; query: copy-on-write snapshots answer bit-identically while ingest and \
         compaction run underneath",
    );
    let report = IngestReport {
        schema: "flexemd-bench/v1".to_owned(),
        experiment: "E19".to_owned(),
        description: "Streaming ingest into the WAL-backed durable index over the 32-d \
                      Gaussian corpus (KMed reduction, d' = 8): per-record fsync vs batched \
                      group commit throughput, cold-open recovery time vs replayed WAL \
                      length (including the post-compaction fast path), and exact k-NN \
                      latency on copy-on-write snapshots frozen before concurrent inserts \
                      and compaction — the frozen snapshot must answer bit-identically \
                      before and after."
            .to_owned(),
        rows,
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR10.json");
    match serde_json::to_vec_pretty(&report).map(|bytes| std::fs::write(&path, bytes)) {
        Ok(Ok(())) => table.note(format!("wrote {}", path.display())),
        Ok(Err(error)) => table.note(format!("could not write BENCH_PR10.json: {error}")),
        Err(error) => table.note(format!("could not serialize BENCH_PR10.json: {error}")),
    }
    table
}

/// All experiments in order.
pub fn all(scale: &Scale, quick: bool) -> Vec<Table> {
    vec![
        e1(scale, quick),
        e2(scale, quick),
        e3(scale, quick),
        e4(scale, quick),
        e5(scale, quick),
        e6(scale, quick),
        e7(scale, quick),
        e8(scale, quick),
        e9(scale, quick),
        e10(scale, quick),
        e11(scale, quick),
        e12(scale, quick),
        e13(scale, quick),
        e14(scale, quick),
        e15(scale, quick),
        e16(scale, quick),
        e17(scale, quick),
        e18(scale, quick),
        e19(scale, quick),
        a1(scale, quick),
        a2(scale, quick),
        a3(scale, quick),
        a4(scale, quick),
    ]
}

/// Dispatch by experiment id (case-insensitive).
pub fn by_id(id: &str, scale: &Scale, quick: bool) -> Option<Table> {
    match id.to_ascii_lowercase().as_str() {
        "e1" => Some(e1(scale, quick)),
        "e2" => Some(e2(scale, quick)),
        "e3" => Some(e3(scale, quick)),
        "e4" => Some(e4(scale, quick)),
        "e5" => Some(e5(scale, quick)),
        "e6" => Some(e6(scale, quick)),
        "e7" => Some(e7(scale, quick)),
        "e8" => Some(e8(scale, quick)),
        "e9" => Some(e9(scale, quick)),
        "e10" => Some(e10(scale, quick)),
        "e11" => Some(e11(scale, quick)),
        "e12" => Some(e12(scale, quick)),
        "e13" => Some(e13(scale, quick)),
        "e14" => Some(e14(scale, quick)),
        "e15" => Some(e15(scale, quick)),
        "e16" => Some(e16(scale, quick)),
        "e17" => Some(e17(scale, quick)),
        "e18" => Some(e18(scale, quick)),
        "e19" => Some(e19(scale, quick)),
        "a1" => Some(a1(scale, quick)),
        "a2" => Some(a2(scale, quick)),
        "a3" => Some(a3(scale, quick)),
        "a4" => Some(a4(scale, quick)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            tiling_per_class: 3,
            color_per_class: 2,
            queries: 3,
            sample: 5,
        }
    }

    #[test]
    fn dispatch_rejects_unknown_ids() {
        assert!(by_id("e99", &tiny(), true).is_none());
        assert!(by_id("", &tiny(), true).is_none());
    }

    #[test]
    fn dispatch_is_case_insensitive() {
        // E9 is the cheapest experiment (preprocessing only); use it to
        // exercise the dispatch path without a long corpus sweep.
        assert!(by_id("E9", &tiny(), true).is_some());
    }

    #[test]
    fn e5_smoke() {
        let table = e5(&tiny(), true);
        assert_eq!(table.rows.len(), 4);
        assert!(table.to_string().contains("Red-IM"));
    }

    #[test]
    fn a2_smoke() {
        let table = a2(&tiny(), true);
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn e13_reports_registry_breakdown() {
        let table = e13(&tiny(), true);
        let text = table.to_string();
        assert!(text.contains("queries recorded"));
        assert!(text.contains("simplex pivots/query"));
        assert!(text.contains(emd_obs::SCHEMA));
    }

    #[test]
    fn e15_zero_deadline_degrades_every_query() {
        let table = e15(&tiny(), true);
        let zero_row = table
            .rows
            .iter()
            .find(|row| row[0] == "0 ms")
            .expect("0 ms sweep row");
        assert_eq!(zero_row[1], "0", "0 ms deadline left exact answers");
        assert_eq!(zero_row[2], "3", "0 ms deadline must degrade all queries");
        let unlimited_row = table
            .rows
            .iter()
            .find(|row| row[0] == "unlimited")
            .expect("unlimited sweep row");
        assert_eq!(unlimited_row[2], "0", "unlimited budget degraded");
    }

    #[test]
    fn e12_batches_match_sequential() {
        let table = e12(&tiny(), true);
        assert_eq!(table.rows.len(), 4);
        for row in &table.rows {
            assert_eq!(row[3], "true", "thread count {} diverged", row[0]);
        }
    }
}
