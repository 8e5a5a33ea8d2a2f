//! Directory-level index persistence: segments + manifest in, validated
//! engine-ready artifacts out.
//!
//! An index directory is written by [`save_index`] and read back by
//! [`open_index`]. The open path re-establishes, in order, every
//! invariant the in-memory construction path enforces:
//!
//! 1. segment integrity (magic, version window, truncation, per-section
//!    CRC32) — [`crate::segment::SegmentReader`];
//! 2. per-value validity (unit-mass histograms, non-negative finite
//!    costs, Definition 3 reductions) — [`crate::sections`] decoding
//!    through the engine constructors;
//! 3. cross-section agreement (histogram dimensionality vs. cost-matrix
//!    columns, mirroring `Database::new`; reduced arena length vs.
//!    database length; stored `C'` bit-identical to the recomputed
//!    optimal reduced cost matrix) — this module plus
//!    [`PersistedReduction::from_parts`].
//!
//! The manifest is written last, so a crashed [`save_index`] leaves a
//! directory without a manifest — unopenable, never silently partial.

use std::path::{Path, PathBuf};

use emd_core::{CostMatrix, Histogram};
use emd_reduction::PersistedReduction;

use crate::error::StoreError;
use crate::manifest::{Manifest, ManifestReduction, MANIFEST_FILE};
use crate::sections;
use crate::segment::{SectionKind, SegmentReader, SegmentWriter};

/// Database segment file name inside an index directory.
pub(crate) const DATABASE_SEGMENT: &str = "database.seg";

/// Section name of the histogram arena in the database segment.
const SECTION_HISTOGRAMS: &str = "histograms";
/// Section name of the cost matrix in the database segment.
const SECTION_COST: &str = "cost";
/// Section name of the query-side reduction in a reduction segment.
const SECTION_R1: &str = "r1";
/// Section name of the database-side reduction in a reduction segment.
const SECTION_R2: &str = "r2";
/// Section name of the reduced cost matrix `C'` in a reduction segment.
const SECTION_REDUCED_COST: &str = "reduced-cost";
/// Section name of the precomputed reduced arena in a reduction segment.
const SECTION_REDUCED_ARENA: &str = "reduced-histograms";
/// Section name of the optional clustering in a reduction segment.
const SECTION_CLUSTERING: &str = "clustering";

/// A fully validated index loaded from disk.
#[derive(Debug)]
pub struct StoredIndex {
    /// Index name from the manifest.
    pub name: String,
    /// Database histograms, in id order.
    pub histograms: Vec<Histogram>,
    /// Original ground-distance matrix.
    pub cost: CostMatrix,
    /// Reduction bundles, in manifest (pipeline) order.
    pub reductions: Vec<PersistedReduction>,
    /// Optional clustering per reduction bundle, parallel to
    /// [`StoredIndex::reductions`]. `None` when the bundle was saved
    /// without one.
    pub clusterings: Vec<Option<sections::StoredClustering>>,
}

/// Segment file name of reduction `index`.
fn reduction_segment_name(index: usize) -> String {
    format!("reduction-{index}.seg")
}

/// Write a complete index directory: database segment, one segment per
/// reduction bundle, then the manifest.
///
/// # Errors
///
/// Returns [`StoreError::Io`] when the directory or a file cannot be
/// written.
pub fn save_index(
    dir: &Path,
    name: &str,
    histograms: &[Histogram],
    cost: &CostMatrix,
    reductions: &[PersistedReduction],
) -> Result<(), StoreError> {
    save_index_with(dir, name, histograms, cost, reductions, &[])
}

/// [`save_index`] with an optional clustering per reduction bundle.
///
/// `clusterings` is read positionally: `clusterings[i]`, when present
/// and `Some`, is written as an extra `clustering` section of reduction
/// segment `i`. A slice shorter than `reductions` (including the empty
/// slice [`save_index`] passes) leaves the remaining bundles
/// clustering-free.
///
/// # Errors
///
/// Returns [`StoreError::Io`] when the directory or a file cannot be
/// written.
pub fn save_index_with(
    dir: &Path,
    name: &str,
    histograms: &[Histogram],
    cost: &CostMatrix,
    reductions: &[PersistedReduction],
    clusterings: &[Option<sections::StoredClustering>],
) -> Result<(), StoreError> {
    let _span = emd_obs::span("store.save");
    std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;

    let database_path = dir.join(DATABASE_SEGMENT);
    let mut writer = SegmentWriter::create(&database_path)?;
    writer.section(
        SectionKind::HistogramArena,
        SECTION_HISTOGRAMS,
        &sections::encode_histogram_arena(cost.cols(), histograms),
    )?;
    writer.section(
        SectionKind::CostMatrix,
        SECTION_COST,
        &sections::encode_cost_matrix(cost),
    )?;
    writer.finish()?;

    let mut entries = Vec::with_capacity(reductions.len());
    for (index, bundle) in reductions.iter().enumerate() {
        let segment = reduction_segment_name(index);
        let path = dir.join(&segment);
        let mut writer = SegmentWriter::create(&path)?;
        let reduced = bundle.reduced();
        writer.section(
            SectionKind::Reduction,
            SECTION_R1,
            &sections::encode_reduction(reduced.r1()),
        )?;
        writer.section(
            SectionKind::Reduction,
            SECTION_R2,
            &sections::encode_reduction(reduced.r2()),
        )?;
        writer.section(
            SectionKind::CostMatrix,
            SECTION_REDUCED_COST,
            &sections::encode_cost_matrix(reduced.reduced_cost()),
        )?;
        writer.section(
            SectionKind::HistogramArena,
            SECTION_REDUCED_ARENA,
            &sections::encode_histogram_arena(
                reduced.r2().reduced_dim(),
                bundle.reduced_database(),
            ),
        )?;
        if let Some(clustering) = clusterings.get(index).and_then(Option::as_ref) {
            writer.section(
                SectionKind::Clustering,
                SECTION_CLUSTERING,
                &sections::encode_clustering(clustering),
            )?;
        }
        writer.finish()?;
        entries.push(ManifestReduction {
            name: bundle.name().to_owned(),
            segment,
        });
    }

    let manifest = Manifest {
        name: name.to_owned(),
        database: DATABASE_SEGMENT.to_owned(),
        reductions: entries,
    };
    let manifest_path = dir.join(MANIFEST_FILE);
    std::fs::write(&manifest_path, manifest.render())
        .map_err(|e| StoreError::io(&manifest_path, e))?;
    Ok(())
}

/// Open and fully validate the index directory at `dir`.
///
/// Emits a `store.open` span plus the segment readers'
/// `store.bytes_read` / `store.sections_verified` counters when an obs
/// recording is active.
///
/// # Errors
///
/// Returns [`StoreError::Io`] for unreadable files,
/// [`StoreError::Manifest`] for a missing or malformed manifest, the
/// segment-level errors of [`SegmentReader::open`] for damaged segments,
/// and [`StoreError::Invalid`] when sections decode but violate an
/// engine invariant (shape disagreement, reduced cost mismatch,
/// arena-length mismatch).
pub fn open_index(dir: &Path) -> Result<StoredIndex, StoreError> {
    open_index_with(dir, &emd_faultkit::NoFaults)
}

/// [`open_index`] with a deterministic fault injector probed before every
/// file read (the manifest, then each segment in manifest order). An
/// injected [`Fault::Io`](emd_faultkit::Fault) surfaces as the same
/// [`StoreError::Io`] a real filesystem failure would, so the
/// fault-injection harness can walk every read in the open path and
/// assert each one maps to a typed error.
///
/// # Errors
///
/// Same failure modes as [`open_index`], plus injected IO faults.
pub fn open_index_with(
    dir: &Path,
    faults: &dyn emd_faultkit::FaultInjector,
) -> Result<StoredIndex, StoreError> {
    let _span = emd_obs::span("store.open");
    let manifest_path = dir.join(MANIFEST_FILE);
    if let Some(emd_faultkit::Fault::Io) = faults.check(emd_faultkit::Site::StoreRead) {
        return Err(StoreError::io(
            &manifest_path,
            StoreError::injected_read_fault(),
        ));
    }
    let manifest_text =
        std::fs::read_to_string(&manifest_path).map_err(|e| StoreError::io(&manifest_path, e))?;
    let manifest = Manifest::parse(&manifest_path, &manifest_text)?;

    let (histograms, cost) = open_database_segment(&dir.join(&manifest.database), faults)?;

    let mut reductions = Vec::with_capacity(manifest.reductions.len());
    let mut clusterings = Vec::with_capacity(manifest.reductions.len());
    for entry in &manifest.reductions {
        let path = dir.join(&entry.segment);
        let (bundle, clustering) =
            open_reduction_segment(&path, &entry.name, &cost, histograms.len(), faults)?;
        reductions.push(bundle);
        clusterings.push(clustering);
    }

    Ok(StoredIndex {
        name: manifest.name,
        histograms,
        cost,
        reductions,
        clusterings,
    })
}

/// Open the database segment: histogram arena + original cost matrix,
/// with the `Database::new` shape-agreement check.
fn open_database_segment(
    path: &Path,
    faults: &dyn emd_faultkit::FaultInjector,
) -> Result<(Vec<Histogram>, CostMatrix), StoreError> {
    let reader = SegmentReader::open_with(path, faults)?;
    reader.allow_only(&[SECTION_HISTOGRAMS, SECTION_COST])?;
    let arena = reader.typed_section(SectionKind::HistogramArena, SECTION_HISTOGRAMS)?;
    let (dim, histograms) =
        sections::decode_histogram_arena(path, SECTION_HISTOGRAMS, arena.payload())?;
    let cost_section = reader.typed_section(SectionKind::CostMatrix, SECTION_COST)?;
    let cost = sections::decode_cost_matrix(path, SECTION_COST, cost_section.payload())?;
    if dim != cost.cols() {
        return Err(StoreError::invalid(
            path,
            SECTION_HISTOGRAMS,
            format!(
                "histogram dimensionality {dim} disagrees with the cost matrix ({} columns)",
                cost.cols()
            ),
        ));
    }
    Ok((histograms, cost))
}

/// Open one reduction segment and reassemble the bundle through
/// [`PersistedReduction::from_parts`], plus its optional clustering.
fn open_reduction_segment(
    path: &PathBuf,
    name: &str,
    cost: &CostMatrix,
    database_len: usize,
    faults: &dyn emd_faultkit::FaultInjector,
) -> Result<(PersistedReduction, Option<sections::StoredClustering>), StoreError> {
    let reader = SegmentReader::open_with(path, faults)?;
    reader.allow_only(&[
        SECTION_R1,
        SECTION_R2,
        SECTION_REDUCED_COST,
        SECTION_REDUCED_ARENA,
        SECTION_CLUSTERING,
    ])?;
    let r1_section = reader.typed_section(SectionKind::Reduction, SECTION_R1)?;
    let r1 = sections::decode_reduction(path, SECTION_R1, r1_section.payload())?;
    let r2_section = reader.typed_section(SectionKind::Reduction, SECTION_R2)?;
    let r2 = sections::decode_reduction(path, SECTION_R2, r2_section.payload())?;
    let cost_section = reader.typed_section(SectionKind::CostMatrix, SECTION_REDUCED_COST)?;
    let reduced_cost =
        sections::decode_cost_matrix(path, SECTION_REDUCED_COST, cost_section.payload())?;
    let arena_section = reader.typed_section(SectionKind::HistogramArena, SECTION_REDUCED_ARENA)?;
    let (arena_dim, reduced_database) =
        sections::decode_histogram_arena(path, SECTION_REDUCED_ARENA, arena_section.payload())?;
    if reduced_database.len() != database_len {
        return Err(StoreError::invalid(
            path,
            SECTION_REDUCED_ARENA,
            format!(
                "precomputed arena holds {} histograms, database holds {database_len}",
                reduced_database.len()
            ),
        ));
    }
    if arena_dim != r2.reduced_dim() {
        return Err(StoreError::invalid(
            path,
            SECTION_REDUCED_ARENA,
            format!(
                "precomputed arena dimensionality {arena_dim} disagrees with the \
                 database-side reduction ({} reduced dimensions)",
                r2.reduced_dim()
            ),
        ));
    }
    let clustering = match reader.maybe_section(SectionKind::Clustering, SECTION_CLUSTERING)? {
        Some(section) => {
            let clustering =
                sections::decode_clustering(path, SECTION_CLUSTERING, section.payload())?;
            if clustering.assignments.len() != database_len {
                return Err(StoreError::invalid(
                    path,
                    SECTION_CLUSTERING,
                    format!(
                        "clustering assigns {} objects, database holds {database_len}",
                        clustering.assignments.len()
                    ),
                ));
            }
            Some(clustering)
        }
        None => None,
    };
    let bundle =
        PersistedReduction::from_parts(name, cost, r1, r2, &reduced_cost, reduced_database)
            .map_err(|e| StoreError::invalid(path, SECTION_REDUCED_COST, e.to_string()))?;
    Ok((bundle, clustering))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;
    use emd_reduction::{CombiningReduction, ReducedEmd};

    fn temp_dir(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("emd-store-index-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fixture() -> (Vec<Histogram>, CostMatrix, Vec<PersistedReduction>) {
        let cost = ground::linear(4).unwrap();
        let histograms = vec![
            Histogram::new(vec![1.0, 0.0, 0.0, 0.0]).unwrap(),
            Histogram::new(vec![0.0, 0.5, 0.5, 0.0]).unwrap(),
            Histogram::new(vec![0.25, 0.25, 0.25, 0.25]).unwrap(),
        ];
        let reduced =
            ReducedEmd::new(&cost, CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap()).unwrap();
        let bundle = PersistedReduction::precompute("kmed:2", reduced, &histograms).unwrap();
        (histograms, cost, vec![bundle])
    }

    #[test]
    fn save_open_roundtrip_is_bit_identical() {
        let dir = temp_dir("roundtrip");
        let (histograms, cost, reductions) = fixture();
        save_index(&dir, "demo", &histograms, &cost, &reductions).unwrap();

        let index = open_index(&dir).unwrap();
        assert_eq!(index.name, "demo");
        assert_eq!(index.cost, cost);
        assert_eq!(index.histograms.len(), histograms.len());
        for (a, b) in histograms.iter().zip(&index.histograms) {
            for (x, y) in a.bins().iter().zip(b.bins()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(index.reductions.len(), 1);
        let bundle = &index.reductions[0];
        assert_eq!(bundle.name(), "kmed:2");
        for (a, b) in reductions[0]
            .reduced_database()
            .iter()
            .zip(bundle.reduced_database())
        {
            for (x, y) in a.bins().iter().zip(b.bins()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_io_error() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(open_index(&dir), Err(StoreError::Io { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_pointing_at_missing_segment_fails() {
        let dir = temp_dir("dangling");
        let (histograms, cost, reductions) = fixture();
        save_index(&dir, "demo", &histograms, &cost, &reductions).unwrap();
        std::fs::remove_file(dir.join("reduction-0.seg")).unwrap();
        assert!(matches!(open_index(&dir), Err(StoreError::Io { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn swapped_reduction_segment_is_detected() {
        // Build two indexes over *different* cost scales; grafting a
        // reduction segment across them must fail the C' recompute check.
        let dir_a = temp_dir("swap-a");
        let dir_b = temp_dir("swap-b");
        let (histograms, cost, reductions) = fixture();
        save_index(&dir_a, "a", &histograms, &cost, &reductions).unwrap();

        let scaled = CostMatrix::new(
            cost.rows(),
            cost.cols(),
            cost.entries().iter().map(|c| c * 2.0).collect(),
        )
        .unwrap();
        let reduced = ReducedEmd::new(
            &scaled,
            CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap(),
        )
        .unwrap();
        let bundle = PersistedReduction::precompute("kmed:2", reduced, &histograms).unwrap();
        save_index(&dir_b, "b", &histograms, &scaled, &[bundle]).unwrap();

        std::fs::copy(dir_b.join("reduction-0.seg"), dir_a.join("reduction-0.seg")).unwrap();
        let err = open_index(&dir_a).unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn clustering_roundtrip_is_bit_identical() {
        let dir = temp_dir("clustered");
        let (histograms, cost, reductions) = fixture();
        let clustering = sections::StoredClustering {
            pivots: vec![0, 1],
            assignments: vec![0, 1, 1],
            radii: vec![0.0, 0.125],
        };
        save_index_with(
            &dir,
            "demo",
            &histograms,
            &cost,
            &reductions,
            &[Some(clustering.clone())],
        )
        .unwrap();

        let index = open_index(&dir).unwrap();
        assert_eq!(index.clusterings.len(), 1);
        let back = index.clusterings.first().unwrap().as_ref().unwrap();
        assert_eq!(back.pivots, clustering.pivots);
        assert_eq!(back.assignments, clustering.assignments);
        for (a, b) in clustering.radii.iter().zip(&back.radii) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_without_clustering_opens_with_none() {
        let dir = temp_dir("unclustered");
        let (histograms, cost, reductions) = fixture();
        save_index(&dir, "demo", &histograms, &cost, &reductions).unwrap();
        let index = open_index(&dir).unwrap();
        assert_eq!(index.clusterings, vec![None]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clustering_object_count_mismatch_is_detected() {
        let dir = temp_dir("clustered-mismatch");
        let (histograms, cost, reductions) = fixture();
        let clustering = sections::StoredClustering {
            pivots: vec![0],
            assignments: vec![0, 0],
            radii: vec![0.5],
        };
        save_index_with(
            &dir,
            "demo",
            &histograms,
            &cost,
            &reductions,
            &[Some(clustering)],
        )
        .unwrap();
        let err = open_index(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_database_roundtrips() {
        let dir = temp_dir("empty");
        let cost = ground::linear(4).unwrap();
        save_index(&dir, "empty", &[], &cost, &[]).unwrap();
        let index = open_index(&dir).unwrap();
        assert!(index.histograms.is_empty());
        assert!(index.reductions.is_empty());
        assert_eq!(index.cost, cost);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
