//! Color-based image retrieval on a synthetic high-dimensional corpus —
//! the IRMA-like scenario of the paper's motivation: 216-dimensional
//! quantized color histograms where the exact EMD is too slow to scan.
//!
//! Builds the full preprocessing chain of Section 3.4 (flow sampling +
//! FB-All from a k-medoids start) and runs class-labelled k-NN queries
//! through the chained Red-IM -> Red-EMD -> EMD pipeline of Figure 10
//! (`QueryPlan::chain`, which puts a closed-form anchor stage under it:
//! the color cube's ground distance is a metric).
//!
//! ```sh
//! cargo run --release --example image_retrieval
//! ```

use flexemd::data::color::{self, ColorParams};
use flexemd::query::{Database, Executor, QueryPlan};
use flexemd::reduction::fb::{fb_all, FbOptions};
use flexemd::reduction::flow_sample::{draw_sample, FlowSample};
use flexemd::reduction::kmedoids::kmedoids_reduction;
use flexemd::reduction::{PersistedReduction, ReducedEmd};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);
    let params = ColorParams {
        side: 6, // 216 dimensions
        num_classes: 8,
        per_class: 40,
        ..ColorParams::default()
    };
    println!("generating synthetic color corpus (8 classes x 40 images, 216-d)...");
    let mut dataset = color::generate(&params, &mut rng);
    // Shuffle so the held-out query split is class-balanced.
    {
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        order.shuffle(&mut rng);
        dataset.histograms = order
            .iter()
            .map(|&i| dataset.histograms[i].clone())
            .collect();
        dataset.labels = order.iter().map(|&i| dataset.labels[i]).collect();
    }
    let query_labels: Vec<u32> = dataset.labels[dataset.len() - 8..].to_vec();
    let (dataset, queries) = dataset.split_queries(8);
    let labels = dataset.labels.clone();
    let cost = Arc::new(dataset.cost.clone());
    let database = Database::new(dataset.histograms, cost.clone())?;

    // Preprocessing (one-off, Section 3.4): sample flows, optimize the
    // reduction to d' = 18 starting from the k-medoids clustering.
    let d_red = 18;
    println!("sampling EMD flows (|S| = 24) and optimizing a {d_red}-d reduction...");
    let started = Instant::now();
    let sample: Vec<_> = draw_sample(database.histograms(), 24, &mut rng)
        .into_iter()
        .cloned()
        .collect();
    let flows = FlowSample::from_histograms_parallel(&sample, &cost, 1)?;
    let kmed = kmedoids_reduction(&cost, d_red, &mut rng)?.reduction;
    let optimized = fb_all(kmed, &flows, &cost, FbOptions::default());
    println!(
        "  preprocessing took {:.2}s ({} reassignments, tightness {:.4})",
        started.elapsed().as_secs_f64(),
        optimized.reassignments,
        optimized.tightness
    );

    let reduced = ReducedEmd::new(&cost, optimized.reduction)?;
    let bundle = PersistedReduction::precompute("", reduced, database.histograms())?;
    let pipeline = Executor::new(QueryPlan::chain(&database, &bundle)?);

    println!("\nrunning {} 10-NN queries:", queries.len());
    let mut class_hits = 0usize;
    let mut class_total = 0usize;
    let started = Instant::now();
    for (index, query) in queries.iter().enumerate() {
        let (neighbors, stats) = pipeline.knn(query, 10)?;
        let query_class = query_labels[index];
        let hits = neighbors
            .iter()
            .filter(|n| labels[n.id] == query_class)
            .count();
        class_hits += hits;
        class_total += neighbors.len();
        let stages = stats.filter_evaluations.iter();
        let stages: Vec<String> = stages
            .map(|(name, evaluations)| {
                let kind = name.split('(').next().unwrap_or(name);
                format!("{evaluations} {kind}")
            })
            .collect();
        println!(
            "  query {index}: {}, {} refinements -> {}/{} same-class",
            stages.join(", "),
            stats.refinements,
            hits,
            neighbors.len()
        );
    }
    println!(
        "\nmean time per query: {:.1} ms; same-class precision {:.0}%",
        started.elapsed().as_secs_f64() * 1e3 / queries.len() as f64,
        100.0 * class_hits as f64 / class_total as f64
    );
    println!("(lossless retrieval: identical results to a full EMD scan, cf. Theorem 1)");
    Ok(())
}
