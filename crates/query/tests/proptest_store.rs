//! Property tests for the on-disk index: random valid indexes
//! round-trip through `Database::save` / `Database::open`
//! bit-identically, and *any* single-byte corruption or truncation of
//! any file of the directory (`CURRENT`, `base.seg`, the sealed segment
//! with its clustering, the WAL) surfaces as a typed [`DurableError`] —
//! never as a successful open with wrong data. (The segment container's
//! own sweeps are unit tests of `durable::segment`.)

// Test helpers outside #[test] fns still get test-style panic latitude.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use emd_core::{CostMatrix, Histogram};
use emd_query::{Database, DurableError, OpenedIndex, StoredClustering};
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const DIM: usize = 5;

/// Fresh scratch directory per proptest case — cases run concurrently,
/// so a shared directory would race.
fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "emd-store-prop-{}-{label}-{id}",
        std::process::id()
    ));
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

fn cost_matrix() -> impl Strategy<Value = CostMatrix> {
    prop::collection::vec(0.0_f64..10.0, DIM * DIM)
        .prop_map(|entries| CostMatrix::new(DIM, DIM, entries).expect("non-negative and finite"))
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

/// A random, fully valid index: database + one precomputed reduction.
fn index_parts() -> impl Strategy<Value = (Vec<Histogram>, CostMatrix, CombiningReduction)> {
    (
        prop::collection::vec(histogram(), 1..8),
        cost_matrix(),
        reduction(),
    )
}

fn build_bundle(
    cost: &CostMatrix,
    r: CombiningReduction,
    database: &[Histogram],
) -> PersistedReduction {
    let reduced = ReducedEmd::new(cost, r).expect("valid reduction");
    PersistedReduction::precompute("prop", reduced, database).expect("matching dimensions")
}

/// Every file of an index directory the open path reads.
const FILES: [&str; 4] = ["CURRENT", "base.seg", "sealed-1.seg", "wal-1.log"];

/// Save `database` under `cost` with one bundle and an optional
/// clustering into `dir`.
fn save(
    dir: &Path,
    name: &str,
    database: &[Histogram],
    cost: &CostMatrix,
    bundle: &PersistedReduction,
    clustering: Option<StoredClustering>,
) {
    let database = Database::new(database.to_vec(), Arc::new(cost.clone())).unwrap();
    database
        .save_with_clusterings(dir, name, std::slice::from_ref(bundle), &[clustering])
        .unwrap();
}

fn open(dir: &Path) -> Result<OpenedIndex, DurableError> {
    Database::open(dir)
}

fn assert_bits_eq(left: &[Histogram], right: &[Histogram]) {
    assert_eq!(left.len(), right.len());
    for (a, b) in left.iter().zip(right) {
        let a: Vec<u64> = a.bins().iter().map(|w| w.to_bits()).collect();
        let b: Vec<u64> = b.bins().iter().map(|w| w.to_bits()).collect();
        assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid index round-trips through disk bit-identically:
    /// histograms, cost matrix and reduction assignments as stored, the
    /// reduced cost matrix C' and the reduced arena as derived on open.
    #[test]
    fn save_open_roundtrip_is_bit_identical(
        (database, cost, r) in index_parts(),
    ) {
        let dir = scratch_dir("roundtrip");
        let bundle = build_bundle(&cost, r, &database);
        save(&dir, "prop-corpus", &database, &cost, &bundle, None);
        let stored = open(&dir).unwrap();

        prop_assert_eq!(stored.name.as_str(), "prop-corpus");
        assert_bits_eq(stored.database.histograms(), &database);
        prop_assert_eq!(stored.database.cost(), &cost);
        prop_assert_eq!(stored.reductions.len(), 1);
        prop_assert_eq!(&stored.clusterings, &vec![None]);
        let reopened = &stored.reductions[0];
        prop_assert_eq!(
            reopened.reduced().r1().assignment(),
            bundle.reduced().r1().assignment()
        );
        prop_assert_eq!(
            reopened.reduced().r2().assignment(),
            bundle.reduced().r2().assignment()
        );
        let got: Vec<u64> = reopened
            .reduced()
            .reduced_cost()
            .entries()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        let want: Vec<u64> = bundle
            .reduced()
            .reduced_cost()
            .entries()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        prop_assert_eq!(got, want);
        assert_bits_eq(reopened.reduced_database(), bundle.reduced_database());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping any single byte of any file of the directory makes
    /// `Database::open` fail with a typed error — corruption never opens
    /// successfully.
    #[test]
    fn any_single_byte_flip_in_a_segment_is_detected(
        (database, cost, r) in index_parts(),
        offset_seed in 0usize..10_000,
        mask in 1u8..=255,
        file in prop::sample::select(FILES.to_vec()),
    ) {
        let dir = scratch_dir("flip");
        let bundle = build_bundle(&cost, r, &database);
        save(&dir, "prop-corpus", &database, &cost, &bundle, None);

        let victim = dir.join(file);
        let mut bytes = std::fs::read(&victim).unwrap();
        let offset = offset_seed % bytes.len();
        bytes[offset] ^= mask;
        std::fs::write(&victim, &bytes).unwrap();

        let result = open(&dir);
        prop_assert!(
            result.is_err(),
            "byte {} xor {:#04x} in {} opened successfully",
            offset,
            mask,
            victim.display()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating any file of the directory at any point makes
    /// `Database::open` fail — a partial file never opens as a
    /// smaller-but-valid index.
    #[test]
    fn any_truncation_of_a_segment_is_detected(
        (database, cost, r) in index_parts(),
        cut_seed in 0usize..10_000,
        file in prop::sample::select(FILES.to_vec()),
    ) {
        let dir = scratch_dir("trunc");
        let bundle = build_bundle(&cost, r, &database);
        save(&dir, "prop-corpus", &database, &cost, &bundle, None);

        let victim = dir.join(file);
        let bytes = std::fs::read(&victim).unwrap();
        let keep = cut_seed % bytes.len(); // strictly shorter than the file
        std::fs::write(&victim, &bytes[..keep]).unwrap();

        let result = open(&dir);
        prop_assert!(
            result.is_err(),
            "truncation to {} of {} bytes in {} opened successfully",
            keep,
            bytes.len(),
            victim.display()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A clustering-carrying index round-trips bit-identically: pivots,
    /// assignments, and radius bit patterns all survive save -> open.
    #[test]
    fn clustering_roundtrip_is_bit_identical(
        (database, cost, r) in index_parts(),
        seed in 0u64..1_000,
    ) {
        let dir = scratch_dir("cluster-roundtrip");
        let bundle = build_bundle(&cost, r, &database);
        let clusters = 1 + (seed as usize) % database.len();
        let stored_clustering = StoredClustering {
            pivots: (0..clusters as u32).collect(),
            assignments: (0..database.len())
                .map(|object| {
                    if object < clusters {
                        object as u32 // pivots own their clusters
                    } else {
                        ((object as u64 * 7 + seed) % clusters as u64) as u32
                    }
                })
                .collect(),
            radii: (0..clusters)
                .map(|cluster| (cluster as f64).mul_add(0.37, (seed % 13) as f64 * 0.11))
                .collect(),
        };
        save(&dir, "prop-corpus", &database, &cost, &bundle, Some(stored_clustering.clone()));

        let stored = open(&dir).unwrap();
        prop_assert_eq!(stored.clusterings.len(), 1);
        let reopened = stored.clusterings[0].as_ref().expect("clustering saved");
        prop_assert_eq!(&reopened.pivots, &stored_clustering.pivots);
        prop_assert_eq!(&reopened.assignments, &stored_clustering.assignments);
        prop_assert_eq!(
            reopened.radii.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            stored_clustering.radii.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any single-byte flip anywhere in a clustering-carrying sealed
    /// segment is detected at open time.
    #[test]
    fn any_single_byte_flip_in_a_clustering_segment_is_detected(
        (database, cost, r) in index_parts(),
        stored_clustering_seed in 0usize..4,
        offset_seed in 0usize..10_000,
        mask in 1u8..=255,
    ) {
        let dir = scratch_dir("cluster-flip");
        let bundle = build_bundle(&cost, r, &database);
        let clusters = 1 + stored_clustering_seed % database.len();
        let stored_clustering = StoredClustering {
            pivots: (0..clusters as u32).collect(),
            assignments: (0..database.len())
                .map(|object| (object % clusters) as u32)
                .collect(),
            radii: vec![0.25; clusters],
        };
        save(&dir, "prop-corpus", &database, &cost, &bundle, Some(stored_clustering));

        let victim = dir.join("sealed-1.seg");
        let mut bytes = std::fs::read(&victim).unwrap();
        let offset = offset_seed % bytes.len();
        bytes[offset] ^= mask;
        std::fs::write(&victim, &bytes).unwrap();

        let result = open(&dir);
        prop_assert!(
            result.is_err(),
            "byte {} xor {:#04x} in {} opened successfully",
            offset,
            mask,
            victim.display()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Exhaustive single-byte corruption of a clustering-carrying index:
/// flipping *every* byte of every file, one at a time, must fail
/// `Database::open` with a typed error — the clustering section enjoys
/// the same checksum protection as every other section.
#[test]
fn every_byte_flip_in_a_clustering_section_never_opens() {
    let dir = scratch_dir("cluster-sweep");
    let database: Vec<Histogram> = (0..4)
        .map(|i| {
            let mut w = vec![0.1; DIM];
            w[i % DIM] += 0.5;
            let total: f64 = w.iter().sum();
            Histogram::new(w.into_iter().map(|x| x / total).collect()).unwrap()
        })
        .collect();
    let cost = CostMatrix::from_fn(DIM, |i, j| (i as f64 - j as f64).abs()).unwrap();
    let r = CombiningReduction::new(vec![0, 0, 1, 1, 2], 3).unwrap();
    let bundle = build_bundle(&cost, r, &database);
    let stored_clustering = StoredClustering {
        pivots: vec![0, 1],
        assignments: vec![0, 1, 0, 1],
        radii: vec![0.5, 1.5],
    };
    save(
        &dir,
        "sweep-corpus",
        &database,
        &cost,
        &bundle,
        Some(stored_clustering),
    );

    for file in FILES {
        let victim = dir.join(file);
        let pristine = std::fs::read(&victim).unwrap();
        for offset in 0..pristine.len() {
            let mut corrupted = pristine.clone();
            corrupted[offset] ^= 0x5a;
            std::fs::write(&victim, &corrupted).unwrap();
            let err =
                open(&dir).expect_err(&format!("flip at byte {offset} of {file} must not open"));
            assert_stored_error(&err);
        }
        std::fs::write(&victim, &pristine).unwrap();
    }
    let stored = open(&dir).expect("restored index opens again");
    assert!(stored.clusterings[0].is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// Every corruption error is one of the typed variants — never a panic,
/// and the assertion documents the full closed set.
fn assert_stored_error(err: &DurableError) {
    match err {
        DurableError::Io { .. }
        | DurableError::BadMagic { .. }
        | DurableError::VersionSkew { .. }
        | DurableError::Truncated { .. }
        | DurableError::ChecksumMismatch { .. }
        | DurableError::UnknownSection { .. }
        | DurableError::MissingSection { .. }
        | DurableError::Invalid { .. }
        | DurableError::Checkpoint { .. }
        | DurableError::Locked { .. } => {}
        DurableError::Query(error) => panic!("damage surfaced as a query error: {error}"),
    }
}
