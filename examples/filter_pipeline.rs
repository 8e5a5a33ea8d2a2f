//! Anatomy of the Figure 10 filter chain, including asymmetric
//! query/database reductions (R1 != R2) and per-stage statistics.
//!
//! ```sh
//! cargo run --release --example filter_pipeline
//! ```

use flexemd::data::gaussian::{self, GaussianParams};
use flexemd::query::{Database, EmdDistance, Executor, QueryPlan, ReducedEmdFilter};
use flexemd::reduction::kmedoids::kmedoids_reduction;
use flexemd::reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let params = GaussianParams {
        dim: 32,
        num_classes: 4,
        per_class: 60,
        ..GaussianParams::default()
    };
    let dataset = gaussian::generate(&params, &mut rng);
    let (dataset, queries) = dataset.split_queries(5);
    let cost = Arc::new(dataset.cost.clone());
    let database = Database::new(dataset.histograms, cost.clone())?;
    let query = &queries[0];

    // Symmetric reduction to d' = 8 via k-medoids.
    let r = kmedoids_reduction(&cost, 8, &mut rng)?.reduction;

    // --- Configuration A: the full Figure 10 chain, over its anchor floor
    let reduced = ReducedEmd::new(&cost, r.clone())?;
    let bundle = PersistedReduction::precompute("", reduced, database.histograms())?;
    let chain = Executor::new(QueryPlan::chain(&database, &bundle)?);
    let (neighbors, stats) = chain.knn(query, 5)?;
    println!(
        "Figure 10 chain (anchor -> Red-IM -> Red-EMD -> EMD), N = {}:",
        database.len()
    );
    for (stage, evaluations) in &stats.filter_evaluations {
        println!("  {stage:<18} {evaluations} evaluations");
    }
    println!("  refinements        {}", stats.refinements);
    println!(
        "  result ids         {:?}",
        neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
    );

    // --- Configuration B: asymmetric R1 != R2 ---------------------------
    // Keep the query at full 32 dimensions, reduce only the database: a
    // tighter bound at a higher per-evaluation cost (Section 3.1).
    let r1 = CombiningReduction::identity(32)?;
    let asymmetric = ReducedEmd::with_asymmetric(&cost, r1, r)?;
    let pipeline = Executor::new(QueryPlan::new(
        vec![Box::new(ReducedEmdFilter::new(&database, asymmetric)?)],
        Box::new(EmdDistance::new(&database)?),
    )?);
    let (asym_neighbors, asym_stats) = pipeline.knn(query, 5)?;
    println!("\nasymmetric filter (query 32-d, database 8-d):");
    println!("  refinements        {}", asym_stats.refinements);
    assert_eq!(
        neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
        asym_neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
        "both pipelines are complete: identical results"
    );
    println!("  identical results  yes (completeness, Theorem 1)");

    // --- Ground truth ----------------------------------------------------
    let scan = Executor::new(QueryPlan::sequential(Box::new(EmdDistance::new(
        &database,
    )?))?);
    let (truth, scan_stats) = scan.knn(query, 5)?;
    assert_eq!(
        truth.iter().map(|n| n.id).collect::<Vec<_>>(),
        neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
    );
    println!(
        "\nsequential scan needed {} refinements; the chain needed {}.",
        scan_stats.refinements, stats.refinements
    );

    Ok(())
}
