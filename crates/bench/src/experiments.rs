//! The reconstructed experiment suite (see DESIGN.md, "Reconstructed
//! evaluation", and EXPERIMENTS.md). Each function regenerates one
//! table/figure.

use crate::lower_bounds::ClassicFilter;
use crate::pca::pca_guided_reduction;
use crate::report::{fnum, Table};
use crate::setup::{
    anchor_chain_executor, build_reduction, chained_executor, checked, color_bench, flow_sample,
    mean_tightness_ratio, measure_knn, red_emd_executor, refiner, scan_executor, tiling_bench,
    Bench, Scale, Strategy,
};
use crate::workload::Workload;
use emd_core::ground::Metric;
use emd_core::{Budget, Histogram};
use emd_query::{
    AnchorFilter, Database, Executor, Filter, QueryError, QueryPlan, ReducedEmdFilter,
    ReducedImFilter,
};
use emd_reduction::fb::{fb_all, fb_mod, FbOptions};
use emd_reduction::flow_sample::draw_sample;
use emd_reduction::kmedoids::kmedoids_reduction;
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// E1: candidates vs d' on the 96-d tiling corpus (cf. EXPERIMENTS.md E1).
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
            "stage-3 evals",
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
            stage(2),
            fnum(m.refinements),
            fnum(m.time_per_query.as_secs_f64() * 1e3),
        ]);
    };

    run("seq. scan", scan_executor(&bench));
    run(
        "LB-IM(96) -> EMD",
        Executor::new(
            QueryPlan::new(
                vec![Box::new(ClassicFilter::lb_im(&bench.database))],
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
        chained_executor(&bench, reduction.clone()),
    );
    run(
        "anchor -> Red-IM -> Red-EMD -> EMD",
        anchor_chain_executor(&bench, reduction),
    );
    table.note("expectation: the chained Red-IM stage removes most Red-EMD evaluations at negligible cost; both reduced pipelines beat the full-dimensional LB-IM filter in time. The last row is not the paper's: QueryPlan::chain, its two stages over a closed-form anchor floor (d' anchors), ranked by the running max");
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
    let workload = Workload::range_from_knn(
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

/// Seeded 32-d Gaussian bench shared by A4 and A5 (at `Scale::full`
/// a ~1k-object corpus: 6 classes x 205 per class).
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
    let tree = crate::vptree::VpTree::build(&bench.database).expect("non-empty");
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

/// A5: the closed-form metric bounds (centroid, anchor, scaled L1) beside
/// the paper's filters, each as the single stage of a `filter -> EMD`
/// plan: mean tightness `bound / EMD` over a strided sample of
/// query-object pairs, cost per evaluation, refinements per query.
/// Asserts `bound <= EMD` on every sampled pair.
pub fn a5(scale: &Scale, quick: bool) -> Table {
    let mut table = Table::new(
        "A5",
        "closed-form bounds beside the paper's filters (single-stage filter -> EMD, and the chain; k=10)",
        &[
            "corpus",
            "filter",
            "bound / EMD",
            "ns / evaluation",
            "refinements",
        ],
    );
    let pairs = if quick { 400 } else { 2000 };
    for (bench, d_red, strategy) in [
        (tiling_bench(scale, SEED), 12, Strategy::FbAllKMed),
        (gaussian_bench(scale), 8, Strategy::KMed),
    ] {
        let database = &bench.database;
        let flows = flow_sample(&bench, scale.sample, SEED ^ 0xf10);
        let reduction = build_reduction(strategy, &bench, &flows, d_red, SEED ^ 0xbead);
        let reduced = checked(
            ReducedEmd::new(&bench.cost, reduction),
            "validated reduction",
        );
        // Both ground distances are Euclidean in the bin positions (the
        // Gaussian corpus is a line, where every norm is |i - j|).
        let positions = bench.positions.clone().unwrap_or_default();
        fn stage<F: Filter + 'static>(filter: Result<F, QueryError>) -> Box<dyn Filter> {
            Box::new(checked(filter, "filter over the bench database"))
        }
        let centroid = ClassicFilter::centroid(database, positions, Metric::Euclidean);
        let filters = vec![
            stage(centroid),
            stage(AnchorFilter::new(database, 16)),
            stage(AnchorFilter::new(database, 4)),
            Box::new(ClassicFilter::scaled_l1(database)),
            Box::new(ClassicFilter::lb_im(database)),
            stage(ReducedImFilter::new(database, reduced.clone())),
            stage(ReducedEmdFilter::new(database, reduced.clone())),
        ];
        let stride = (database.len() * bench.queries.len() / pairs).max(1);
        let sample = || (0..database.len()).step_by(stride);
        let exact = bounds_over(&refiner(&bench), &bench.queries, sample()).0;
        let tightness = |name: &str, bounds: &[f64]| {
            let ratios = bounds.iter().zip(&exact).map(|(bound, exact)| {
                let holds = *bound <= exact + 1e-9;
                checked(holds.then_some(()).ok_or(name), "a lower bound");
                if *exact > 1e-12 {
                    bound / exact
                } else {
                    1.0
                }
            });
            ratios.sum::<f64>() / exact.len() as f64
        };
        for filter in filters {
            let (bounds, nanos) = bounds_over(filter.as_ref(), &bench.queries, sample());
            let name = filter.name().to_owned();
            let plan = QueryPlan::new(vec![filter], Box::new(refiner(&bench)));
            let executor = Executor::new(checked(plan, "single-stage plan"));
            let m = measure_knn(&executor, &bench.queries, K_DEFAULT);
            table.row(vec![
                bench.name.clone(),
                name.clone(),
                fnum(tightness(&name, &bounds)),
                fnum(nanos / exact.len() as f64),
                fnum(m.refinements),
            ]);
        }
        // What the chain ranks a candidate by once every stage has seen
        // it: the largest of its three bounds.
        let chain = [
            stage(AnchorFilter::new(database, d_red)),
            stage(ReducedImFilter::new(database, reduced.clone())),
            stage(ReducedEmdFilter::new(database, reduced.clone())),
        ];
        let mut running_max = vec![0.0_f64; exact.len()];
        for filter in &chain {
            let (bounds, _) = bounds_over(filter.as_ref(), &bench.queries, sample());
            for (max, bound) in running_max.iter_mut().zip(&bounds) {
                *max = max.max(*bound);
            }
        }
        let bundle = checked(
            PersistedReduction::precompute("", reduced, database.histograms()),
            "reduced bench database",
        );
        let plan = QueryPlan::chain(database, &bundle);
        let executor = Executor::new(checked(plan, "anchor chain plan"));
        let m = measure_knn(&executor, &bench.queries, K_DEFAULT);
        let name = chain
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(" -> ");
        table.row(vec![
            bench.name.clone(),
            name.clone(),
            fnum(tightness(&name, &running_max)),
            "-".to_owned(),
            fnum(m.refinements),
        ]);
    }
    table.note(
        "1.0 = perfectly tight; blobs on a grid are the friendliest data a centroid can meet. The chain row is QueryPlan::chain: its bound is the running max of its three stages, it has no single evaluation cost",
    );
    table
}

/// `filter`'s value for every query against the objects `ids` yields,
/// with the nanoseconds the evaluations (not the per-query set-up) took.
fn bounds_over(
    filter: &dyn Filter,
    queries: &[Histogram],
    ids: impl Iterator<Item = usize> + Clone,
) -> (Vec<f64>, f64) {
    let mut values = Vec::new();
    let mut nanos = 0.0;
    for query in queries {
        let mut prepared = checked(filter.prepare(query, &Budget::unlimited()), "bench query");
        let started = Instant::now();
        values.extend(
            ids.clone()
                .map(|id| checked(prepared.distance(id), "bench object")),
        );
        nanos += started.elapsed().as_secs_f64() * 1e9;
    }
    (values, nanos)
}

/// Every experiment id, in the order `experiments all` runs them.
pub const IDS: [&str; 16] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "a1", "a2", "a3", "a4",
    "a5",
];

/// The function behind an experiment id (case-insensitive).
fn experiment(id: &str) -> Option<fn(&Scale, bool) -> Table> {
    Some(match id.to_ascii_lowercase().as_str() {
        "e1" => e1,
        "e2" => e2,
        "e3" => e3,
        "e4" => e4,
        "e5" => e5,
        "e6" => e6,
        "e7" => e7,
        "e8" => e8,
        "e9" => e9,
        "e10" => e10,
        "e11" => e11,
        "a1" => a1,
        "a2" => a2,
        "a3" => a3,
        "a4" => a4,
        "a5" => a5,
        _ => return None,
    })
}

/// Dispatch by experiment id (case-insensitive).
pub fn by_id(id: &str, scale: &Scale, quick: bool) -> Option<Table> {
    experiment(id).map(|run| run(scale, quick))
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
        for id in ["e99", "", "e12", "e13", "e19"] {
            assert!(by_id(id, &tiny(), true).is_none(), "{id:?} dispatched");
        }
        for id in IDS {
            assert!(experiment(id).is_some(), "{id} is listed but unknown");
        }
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
        assert_eq!(table.rows.len(), 5);
        assert!(table.to_string().contains("Red-IM"));
    }

    #[test]
    fn a2_smoke() {
        let table = a2(&tiny(), true);
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn a5_smoke() {
        let table = a5(&tiny(), true);
        assert_eq!(
            table.rows.len(),
            16,
            "seven filters and the chain on two corpora"
        );
        for row in &table.rows {
            let tightness: f64 = row[2].parse().unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&tightness), "{row:?}");
        }
    }
}
