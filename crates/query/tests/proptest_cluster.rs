//! Property-based validation of the clustered candidate source: for
//! random databases (including ones whose min-reduced ground distance is
//! *not* a metric and must be closed), a plan driven by
//! [`ClusteredIndex`] answers k-NN and range queries bit-identically to
//! the full Red-EMD scan plan and to brute force; its stream — a cluster
//! traversal under the chain `anchor -> red-im -> red-emd` (the 6-bin
//! chain is a metric) — emits the keys of a scan of the chain's
//! `max(anchor, Red-IM, Red-EMD)` in order, even where duplicates and
//! exact ties make many keys coincide (tied objects leave in the chain's
//! arrival order, not by id); budgeted execution stays principled and
//! loses no candidate at any pivot cap; and the persisted geometry
//! round-trips into an index with the same answers.

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::lower_bounds::{AnchorBound, LbIm};
use emd_core::{emd, ground, Budget, Histogram};
use emd_query::scan::brute_force_knn;
use emd_query::{
    CandidateSource, ClusteredIndex, Database, DegradedResult, EmdDistance, Executor, Filter,
    Query, QueryError, QueryOutcome, QueryPlan, ReducedEmdFilter,
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

/// Eight eighths of mass dealt over the bins: dyadic masses, so under the
/// integer chain cost every EMD, every LB_IM and every cluster bound is
/// computed exactly and equal distances are equal bits.
fn dyadic_histogram() -> impl Strategy<Value = Histogram> {
    prop::collection::vec(0..DIM, 8).prop_map(|bins| {
        let mut masses = vec![0.0; DIM];
        for bin in bins {
            masses[bin] += 0.125;
        }
        Histogram::new(masses).expect("eight eighths")
    })
}

/// `(emitted, drained)`.
type Pulled = (Vec<(usize, f64)>, Vec<(usize, f64)>);

/// Pull `source`'s stream for `query` under `budget` until it ends or the
/// budget fires, then drain it.
fn pull_and_drain(source: &ClusteredIndex, query: &Histogram, budget: &Budget) -> Pulled {
    let mut stream = source.prepare(query, budget).unwrap();
    let mut emitted = Vec::new();
    loop {
        match stream.next() {
            Ok(Some(item)) => emitted.push(item),
            Ok(None) | Err(QueryError::BudgetExhausted(_)) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    (emitted, stream.drain_computed())
}

/// Every object's key under the chain — the largest of its anchor bound
/// under the database's own cost, its LB_IM and its Red-EMD (solved cold)
/// under the reduced cost — in ascending `(key, id)` order: what a full
/// scan of the running max emits.
fn scan_order(index: &ClusteredIndex, database: &Database, query: &Histogram) -> Vec<(usize, f64)> {
    let reduced = index.reduced();
    let reduced_query = reduced.reduce_first(query).unwrap();
    let anchors = reduced.r2().reduced_dim();
    let floor = AnchorBound::with_spread_anchors(database.cost(), anchors).unwrap();
    let red_im = LbIm::new(reduced.reduced_cost().clone());
    let mut order: Vec<(usize, f64)> = database
        .histograms()
        .iter()
        .map(|h| {
            let object = reduced.reduce_second(h).unwrap();
            let red_emd = emd(&reduced_query, &object, reduced.reduced_cost()).unwrap();
            let lb_im = red_im.bound(&reduced_query, &object).unwrap();
            floor.bound(query, h).unwrap().max(lb_im).max(red_emd)
        })
        .enumerate()
        .collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    order
}

/// The key of `id` in `scan`.
fn key_of(scan: &[(usize, f64)], id: usize) -> f64 {
    scan.iter().find(|(scanned, _)| *scanned == id).unwrap().1
}

/// A degraded ranking is principled: ascending `(bound, id)`, no object
/// twice, every bound a valid lower bound of the exact EMD, exact flags
/// truthful — and complete: with nothing lost there are always `k`
/// candidates to return (all of them, for `k >= n`).
fn assert_principled(result: &DegradedResult, database: &Database, query: &Histogram, k: usize) {
    assert_eq!(result.candidates.len(), k.min(database.len()));
    for pair in result.candidates.windows(2) {
        let earlier = (pair[0].bound, pair[0].id);
        let later = (pair[1].bound, pair[1].id);
        assert!(
            earlier < later,
            "ranking not ascending: {earlier:?} vs {later:?}"
        );
    }
    let mut ids: Vec<usize> = result.candidates.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        result.candidates.len(),
        "an object is ranked twice"
    );
    for candidate in &result.candidates {
        let object = database.get(candidate.id).unwrap();
        let distance = emd(query, object, database.cost()).unwrap();
        if candidate.exact {
            assert_eq!(
                candidate.bound.to_bits(),
                distance.to_bits(),
                "exact-flagged bound must be the exact distance"
            );
        } else {
            assert!(
                candidate.bound <= distance + 1e-9,
                "lower bound {} exceeds exact distance {} for object {}",
                candidate.bound,
                distance,
                candidate.id
            );
        }
    }
}

/// The shared reduction of every plan in this suite: contiguous pairs,
/// `d' = 3`. Min-reducing the plain 6-bin chain over these blocks
/// violates the triangle inequality, so every property here exercises
/// the metric-closure construction path.
fn reduced(database: &Database) -> ReducedEmd {
    ReducedEmd::new(
        database.cost(),
        CombiningReduction::new(vec![0, 0, 1, 1, 2, 2], 3).unwrap(),
    )
    .unwrap()
}

/// Full-scan comparison plan: one Red-EMD stage over a cold exact-EMD
/// refiner. Warm starts are off so refined distances are independent of
/// refinement order and cross-plan answers can be compared bit-for-bit.
fn scan_executor(database: &Database) -> Executor {
    let stages: Vec<Box<dyn Filter>> = vec![Box::new(
        ReducedEmdFilter::new(database, reduced(database))
            .unwrap()
            .with_warm_start(false),
    )];
    let refiner = Box::new(EmdDistance::new(database).unwrap().with_warm_start(false));
    Executor::new(QueryPlan::new(stages, refiner).unwrap())
}

/// Clustered plan: the same snapshot behind a [`ClusteredIndex`]
/// candidate source (no filter stages) over the same cold refiner.
fn clustered_executor(database: &Database, factor: f64) -> Executor {
    let index = ClusteredIndex::build(database, reduced(database), factor).unwrap();
    let refiner = Box::new(EmdDistance::new(database).unwrap().with_warm_start(false));
    let plan = QueryPlan::new(Vec::new(), refiner)
        .unwrap()
        .with_source(Box::new(index))
        .unwrap();
    Executor::new(plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clustered k-NN answers equal the full-scan plan's answers down to
    /// the last distance bit, for any cluster-count factor.
    #[test]
    fn clustered_knn_is_bit_identical_to_scan(
        database in prop::collection::vec(histogram(), 3..24),
        query in histogram(),
        k in 1usize..6,
        factor in prop::sample::select(vec![0.5_f64, 1.0, 2.0]),
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let scan = scan_executor(&database);
        let clustered = clustered_executor(&database, factor);

        let (expected, _) = scan.knn(&query, k).unwrap();
        let (got, _) = clustered.knn(&query, k).unwrap();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.id, e.id);
            prop_assert_eq!(g.distance.to_bits(), e.distance.to_bits());
        }
        // Both refine cold, as the oracle does: the chained stream returns
        // brute force's very bits.
        let brute = brute_force_knn(&query, database.histograms(), database.cost(), k).unwrap();
        prop_assert_eq!(got, brute);
    }

    /// Clustered range answers equal the full-scan plan's answers —
    /// same hit set, same bits (boundary inclusion must match).
    #[test]
    fn clustered_range_is_bit_identical_to_scan(
        database in prop::collection::vec(histogram(), 3..20),
        query in histogram(),
        epsilon in 0.0_f64..3.0,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let scan = scan_executor(&database);
        let clustered = clustered_executor(&database, 1.0);

        let (expected, _) = scan.range(&query, epsilon).unwrap();
        let (got, _) = clustered.range(&query, epsilon).unwrap();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.id, e.id);
            prop_assert_eq!(g.distance.to_bits(), e.distance.to_bits());
        }
    }

    /// An unlimited budget through the clustered source never degrades,
    /// and the `knn` sugar returns what `run` does bit-for-bit.
    #[test]
    fn clustered_unlimited_budget_is_bit_identical(
        database in prop::collection::vec(histogram(), 3..16),
        query in histogram(),
        k in 1usize..5,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let clustered = clustered_executor(&database, 1.0);

        let (exact, exact_stats) = clustered.knn(&query, k).unwrap();
        let (outcome, stats) = clustered.run(&Query::knn(query, k)).unwrap();
        let neighbors = outcome.exact().expect("unlimited budget cannot degrade");
        prop_assert_eq!(neighbors.len(), exact.len());
        for (a, b) in neighbors.iter().zip(&exact) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        prop_assert_eq!(stats, exact_stats);
    }

    /// The stream drained to exhaustion is the full scan of its keys, bit
    /// for bit and in order — on corpora drawn with repetition from a few
    /// dyadic histograms, where k-center yields zero radii and cluster and
    /// chain keys tie exactly. Tied objects leave in the chain's arrival
    /// order, so each is checked against its own scan key.
    #[test]
    fn lazy_stream_is_the_scan_on_duplicates_and_ties(
        pool in prop::collection::vec(dyadic_histogram(), 1..5),
        picks in prop::collection::vec(0usize..4, 3..24),
        query in dyadic_histogram(),
        factor in prop::sample::select(vec![0.5_f64, 1.0, 3.0]),
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let objects = picks.iter().map(|pick| pool[pick % pool.len()].clone()).collect();
        let database = Database::new(objects, cost).unwrap();
        let index = ClusteredIndex::build(&database, reduced(&database), factor).unwrap();
        // The query itself, and a stored object (distance zero, tied with
        // all of its duplicates).
        for query in [&query, &pool[0]] {
            let expected = scan_order(&index, &database, query);
            let (emitted, drained) = pull_and_drain(&index, query, &Budget::unlimited());
            prop_assert!(drained.is_empty());
            prop_assert_eq!(emitted.len(), expected.len());
            for (&(id, key), &(_, want)) in emitted.iter().zip(&expected) {
                prop_assert_eq!(key.to_bits(), want.to_bits());
                prop_assert_eq!(key.to_bits(), key_of(&expected, id).to_bits());
            }
        }
    }

    /// At every pivot cap from nothing to enough, what the stream emitted
    /// and what it surrenders afterwards name every object exactly once:
    /// the emitted prefix is the scan's, and every drained bound
    /// lower-bounds the object's scan key (hence its exact EMD).
    #[test]
    fn stream_loses_nothing_at_any_pivot_cap(
        database in prop::collection::vec(histogram(), 4..16),
        query in histogram(),
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let index = ClusteredIndex::build(&database, reduced(&database), 1.0).unwrap();
        let scan = scan_order(&index, &database, &query);
        for cap in 0u64.. {
            let budget = Budget::unlimited().with_pivot_cap(cap);
            let (emitted, drained) = pull_and_drain(&index, &query, &budget);
            let mut ids: Vec<usize> = emitted.iter().chain(&drained).map(|&(id, _)| id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..database.len()).collect::<Vec<_>>(), "cap {}", cap);
            for (&(id, key), &(_, want)) in emitted.iter().zip(&scan) {
                prop_assert!((key - want).abs() <= 1e-9, "cap {}", cap);
                prop_assert!((key - key_of(&scan, id)).abs() <= 1e-9, "cap {}", cap);
            }
            for &(id, bound) in &drained {
                let distance = key_of(&scan, id);
                prop_assert!(bound >= 0.0 && bound <= distance + 1e-9, "cap {}", cap);
            }
            if emitted.len() == database.len() {
                break;
            }
        }
    }

    /// At every pivot cap from nothing to enough, budgeted clustered k-NN
    /// either matches the exact answer bit-for-bit or degrades to a
    /// principled, complete ranking — for `k = n` one that names every
    /// object.
    #[test]
    fn clustered_degraded_rankings_are_principled(
        database in prop::collection::vec(histogram(), 4..12),
        query in histogram(),
        k in 1usize..5,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let clustered = clustered_executor(&database, 1.0);
        for k in [k, database.len()] {
            let (exact, _) = clustered.knn(&query, k).unwrap();
            for cap in 0u64.. {
                let budget = Budget::unlimited().with_pivot_cap(cap);
                let request = Query { budget, ..Query::knn(query.clone(), k) };
                let (outcome, _) = clustered.run(&request).unwrap();
                match outcome {
                    QueryOutcome::Degraded(result) => {
                        assert_principled(&result, &database, &query, k);
                    }
                    QueryOutcome::Exact(neighbors) => {
                        prop_assert_eq!(neighbors.len(), exact.len());
                        for (a, b) in neighbors.iter().zip(&exact) {
                            prop_assert_eq!(a.id, b.id);
                            prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                        }
                        break;
                    }
                }
            }
        }
    }

    /// Exporting the clustering and reattaching it to its bundle
    /// reproduces the geometry bit-for-bit and answers queries
    /// identically to the freshly built index.
    #[test]
    fn stored_roundtrip_preserves_geometry_and_answers(
        database in prop::collection::vec(histogram(), 3..16),
        query in histogram(),
        k in 1usize..5,
    ) {
        let cost = Arc::new(ground::linear(DIM).unwrap());
        let database = Database::new(database, cost).unwrap();
        let bundle = PersistedReduction::precompute(
            "pairs:3",
            reduced(&database),
            database.histograms(),
        )
        .unwrap();
        let built = ClusteredIndex::from_persisted(&database, &bundle, 1.0).unwrap();
        let stored = built.to_stored();
        let reopened = ClusteredIndex::from_stored(&database, &bundle, &stored).unwrap();

        prop_assert_eq!(reopened.pivots(), built.pivots());
        prop_assert_eq!(reopened.assignments(), built.assignments());
        prop_assert_eq!(
            reopened.radii().iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            built.radii().iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );

        let refiner = |db: &Database| {
            Box::new(EmdDistance::new(db).unwrap().with_warm_start(false))
        };
        let built_exec = Executor::new(
            QueryPlan::new(Vec::new(), refiner(&database))
                .unwrap()
                .with_source(Box::new(built))
                .unwrap(),
        );
        let reopened_exec = Executor::new(
            QueryPlan::new(Vec::new(), refiner(&database))
                .unwrap()
                .with_source(Box::new(reopened))
                .unwrap(),
        );
        let (expected, expected_stats) = built_exec.knn(&query, k).unwrap();
        let (got, got_stats) = reopened_exec.knn(&query, k).unwrap();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.id, e.id);
            prop_assert_eq!(g.distance.to_bits(), e.distance.to_bits());
        }
        prop_assert_eq!(got_stats, expected_stats);
    }
}
