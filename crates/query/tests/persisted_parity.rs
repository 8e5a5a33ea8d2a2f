//! Disk/memory parity: a pipeline rebuilt from a persisted index answers
//! every query bit-identically to the pipeline built in memory — same
//! neighbors, same distances, and the same per-stage candidate counts —
//! and both return brute force's neighbors. The chained case is
//! [`QueryPlan::chain`] on either side: the anchor floor is never stored,
//! so the reopened plan re-derives it from the reopened database.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{distance_slack, ground, Histogram};
use emd_query::scan::brute_force_knn;
use emd_query::{Database, EmdDistance, Executor, Filter, QueryPlan, ReducedEmdFilter};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const DIM: usize = 6;

fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("emd-query-parity-{}-{id}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn histogram() -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0.0_f64..1.0, DIM).prop_filter_map("positive mass", |raw| {
        let total: f64 = raw.iter().sum();
        (total > 1e-6)
            .then(|| Histogram::new(raw.iter().map(|x| x / total).collect()).ok())
            .flatten()
    })
}

fn reduction() -> impl Strategy<Value = CombiningReduction> {
    (1..=DIM).prop_flat_map(|k| {
        (
            Just(k),
            prop::collection::vec(0..k, DIM),
            prop::sample::subsequence((0..DIM).collect::<Vec<_>>(), k),
        )
            .prop_map(|(k, mut assignment, seeds)| {
                for (group, &dimension) in seeds.iter().enumerate() {
                    assignment[dimension] = group;
                }
                CombiningReduction::new(assignment, k).expect("valid by construction")
            })
    })
}

fn executor(database: &Database, stages: Vec<Box<dyn Filter>>) -> Executor {
    let refiner = Box::new(EmdDistance::new(database).unwrap());
    Executor::new(QueryPlan::new(stages, refiner).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `anchor -> Red-IM -> Red-EMD -> EMD` (or single-stage Red-EMD)
    /// built from a save/open round trip is indistinguishable from the
    /// in-memory build: bit-identical k-NN results AND identical
    /// filter-stage evaluation counts.
    #[test]
    fn persisted_pipeline_matches_in_memory_bit_for_bit(
        histograms in prop::collection::vec(histogram(), 4..14),
        query in histogram(),
        r in reduction(),
        chain in prop::sample::select(vec![false, true]),
        k in 1usize..6,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(histograms, cost).unwrap();
        let reduced = ReducedEmd::new(database.cost(), r).unwrap();
        let bundle =
            PersistedReduction::precompute("parity", reduced.clone(), database.histograms())
                .unwrap();

        // Persist and reopen: the index-backed database and bundle.
        let dir = scratch_dir();
        database.save(&dir, "parity-corpus", std::slice::from_ref(&bundle)).unwrap();
        let opened = Database::open(&dir).unwrap();
        prop_assert_eq!(opened.name.as_str(), "parity-corpus");
        prop_assert_eq!(opened.reductions.len(), 1);
        let reopened_bundle = opened.reductions.into_iter().next().unwrap();

        let (memory, disk) = if chain {
            (
                Executor::new(QueryPlan::chain(&database, &bundle).unwrap()),
                Executor::new(QueryPlan::chain(&opened.database, &reopened_bundle).unwrap()),
            )
        } else {
            let memory: Box<dyn Filter> =
                Box::new(ReducedEmdFilter::new(&database, reduced).unwrap());
            let disk: Box<dyn Filter> = Box::new(
                ReducedEmdFilter::from_persisted(&opened.database, reopened_bundle).unwrap(),
            );
            (
                executor(&database, vec![memory]),
                executor(&opened.database, vec![disk]),
            )
        };
        prop_assert_eq!(memory.plan().stage_names(), disk.plan().stage_names());
        let stages = disk.plan().stage_names();
        prop_assert_eq!(stages.len(), if chain { 3 } else { 1 });
        prop_assert_eq!(stages[0].starts_with("anchor(a="), chain);

        let (memory_neighbors, memory_stats) = memory.knn(&query, k).unwrap();
        let (disk_neighbors, disk_stats) = disk.knn(&query, k).unwrap();

        // Bit-identical results: same ids and the exact same f64 bits.
        prop_assert_eq!(memory_neighbors.len(), disk_neighbors.len());
        for (m, d) in memory_neighbors.iter().zip(&disk_neighbors) {
            prop_assert_eq!(m.id, d.id);
            prop_assert_eq!(m.distance.to_bits(), d.distance.to_bits());
        }
        // Identical filter behavior: same stage names, same candidate
        // counts, same number of exact refinements.
        prop_assert_eq!(&memory_stats.filter_evaluations, &disk_stats.filter_evaluations);
        prop_assert_eq!(memory_stats.refinements, disk_stats.refinements);

        // And the reopened plan's neighbors are brute force's, to within
        // what two solves of one pair may differ by.
        let brute = brute_force_knn(&query, database.histograms(), database.cost(), k).unwrap();
        prop_assert_eq!(disk_neighbors.len(), brute.len());
        for (d, b) in disk_neighbors.iter().zip(&brute) {
            prop_assert_eq!(d.id, b.id);
            prop_assert!((d.distance - b.distance).abs() <= distance_slack(database.cost()));
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
