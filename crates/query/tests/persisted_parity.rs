//! Disk/memory parity: a pipeline rebuilt from a persisted index answers
//! every query bit-identically to the pipeline built in memory — same
//! neighbors, same distances, and the same per-stage candidate counts.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{ground, Histogram};
use emd_query::{
    Database, EmdDistance, Executor, Filter, QueryPlan, ReducedEmdFilter, ReducedImFilter,
};
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

    /// `Red-IM -> Red-EMD -> EMD` built from a save/open round trip is
    /// indistinguishable from the in-memory build: bit-identical k-NN
    /// results AND identical filter-stage evaluation counts.
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
        database.save(&dir, "parity-corpus", &[bundle]).unwrap();
        let opened = Database::open(&dir).unwrap();
        prop_assert_eq!(opened.name.as_str(), "parity-corpus");
        prop_assert_eq!(opened.reductions.len(), 1);
        let reopened_bundle = opened.reductions.into_iter().next().unwrap();

        // The one chain constructor, from the same bundle: it must be the
        // `from_persisted` pair below in everything observable.
        let constructed = chain.then(|| {
            let red_im =
                ReducedImFilter::from_persisted(&opened.database, reopened_bundle.clone());
            Executor::new(QueryPlan::chain(&opened.database, red_im.unwrap()).unwrap())
        });

        let mut memory_stages: Vec<Box<dyn Filter>> = Vec::new();
        let mut disk_stages: Vec<Box<dyn Filter>> = Vec::new();
        if chain {
            memory_stages.push(Box::new(
                ReducedImFilter::new(&database, reduced.clone()).unwrap(),
            ));
            disk_stages.push(Box::new(
                ReducedImFilter::from_persisted(&opened.database, reopened_bundle.clone())
                    .unwrap(),
            ));
        }
        memory_stages.push(Box::new(ReducedEmdFilter::new(&database, reduced).unwrap()));
        disk_stages.push(Box::new(
            ReducedEmdFilter::from_persisted(&opened.database, reopened_bundle).unwrap(),
        ));

        let memory = executor(&database, memory_stages);
        let disk = executor(&opened.database, disk_stages);

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

        if let Some(constructed) = constructed {
            prop_assert_eq!(constructed.plan().stage_names(), disk.plan().stage_names());
            let (neighbors, stats) = constructed.knn(&query, k).unwrap();
            let bits = |n: &emd_query::Neighbor| (n.id, n.distance.to_bits());
            prop_assert_eq!(
                neighbors.iter().map(bits).collect::<Vec<_>>(),
                disk_neighbors.iter().map(bits).collect::<Vec<_>>()
            );
            prop_assert_eq!(stats, disk_stats);
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
