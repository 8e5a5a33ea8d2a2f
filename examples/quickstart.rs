//! Quickstart: exact EMD, a flexible reduction, and a complete k-NN query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flexemd::core::{emd, ground, Histogram};
use flexemd::query::{Database, EmdDistance, Executor, QueryPlan, ReducedEmdFilter};
use flexemd::reduction::{CombiningReduction, ReducedEmd};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The Earth Mover's Distance (Figure 1 of the paper) ---------
    let x = Histogram::new(vec![0.5, 0.0, 0.2, 0.0, 0.3, 0.0])?;
    let y = Histogram::new(vec![0.0, 0.5, 0.0, 0.2, 0.0, 0.3])?;
    let z = Histogram::new(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0])?;
    let cost = ground::linear(6)?; // c_ij = |i - j|

    println!("EMD(x, y) = {:.3}  (paper: 1.0)", emd(&x, &y, &cost)?);
    println!("EMD(x, z) = {:.3}  (paper: 1.6)", emd(&x, &z, &cost)?);
    let l1 = |a: &Histogram, b: &Histogram| -> f64 {
        a.bins()
            .iter()
            .zip(b.bins())
            .map(|(p, q)| (p - q).abs())
            .sum()
    };
    println!(
        "L1 ranks them the other way: L1(x,y) = {:.1}, L1(x,z) = {:.1}",
        l1(&x, &y),
        l1(&x, &z)
    );

    // --- 2. A flexible dimensionality reduction (Definitions 3-5) ------
    // Merge the two halves of the chain into two reduced dimensions.
    let reduction = CombiningReduction::new(vec![0, 0, 0, 1, 1, 1], 2)?;
    let reduced = ReducedEmd::new(&cost, reduction)?;
    println!(
        "reduced (6 -> 2 dims) EMD(x, y) = {:.3}  (a lower bound of the exact 1.0)",
        reduced.distance(&x, &y)?
    );

    // --- 3. Complete k-NN search through the filter ---------------------
    // One immutable snapshot shared by every stage of the plan.
    let database = Database::new(vec![x.clone(), y, z], Arc::new(cost))?;
    let executor = Executor::new(QueryPlan::new(
        vec![Box::new(ReducedEmdFilter::new(&database, reduced)?)],
        Box::new(EmdDistance::new(&database)?),
    )?);
    let (neighbors, stats) = executor.knn(&x, 2)?;
    println!("2-NN of x:");
    for n in &neighbors {
        println!("  object {} at distance {:.3}", n.id, n.distance);
    }
    println!(
        "filter evaluations: {}, exact EMD refinements: {} (of {} objects)",
        stats.total_filter_evaluations(),
        stats.refinements,
        3
    );
    Ok(())
}
