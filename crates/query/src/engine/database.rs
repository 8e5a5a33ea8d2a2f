//! The shared, immutable database snapshot all filters index.
//!
//! [`Database`] is the one ownership story for a corpus: an
//! `Arc<[Histogram]>` — one slice of handles, each
//! [`Histogram`](emd_core::Histogram) itself a shared immutable
//! allocation — together with the cost matrix that defines distances over
//! them. Filters clone the (cheap, reference-counted) slice handle, so a
//! whole plan — and every plan built over the same snapshot — looks at
//! the same objects, and a live snapshot
//! ([`DurableIndex::snapshot`](crate::DurableIndex::snapshot)) is just a
//! `Database` collected from the index's own handles.

use crate::durable::{self, StoredClustering};
use crate::error::{DurableError, QueryError};
use emd_core::{CostMatrix, Histogram};
use emd_reduction::PersistedReduction;
use std::path::Path;
use std::sync::Arc;

/// An immutable snapshot of a histogram database plus its ground-distance
/// matrix.
///
/// Cloning a `Database` is two atomic reference-count increments; the
/// slice of histogram handles is never duplicated. All filter constructors
/// take `&Database` and keep a clone, which is what makes a multi-stage
/// [`QueryPlan`](crate::QueryPlan) a set of views over one arena rather
/// than a set of private copies.
#[derive(Debug, Clone)]
pub struct Database {
    /// One slice of histogram handles, in id order.
    histograms: Arc<[Histogram]>,
    /// Ground-distance matrix; database objects index its columns.
    cost: Arc<CostMatrix>,
}

impl Database {
    /// Build a snapshot from owned histograms, validating every object
    /// against the cost matrix once — downstream filters rely on this and
    /// skip per-object shape checks.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] when a histogram's dimensionality disagrees
    /// with `cost.cols()`.
    pub fn new(histograms: Vec<Histogram>, cost: Arc<CostMatrix>) -> Result<Self, QueryError> {
        for h in &histograms {
            if h.dim() != cost.cols() {
                return Err(QueryError::Core(emd_core::CoreError::DimensionMismatch {
                    expected_rows: cost.rows(),
                    expected_cols: cost.cols(),
                    got_rows: h.dim(),
                    got_cols: h.dim(),
                }));
            }
        }
        Ok(Database {
            histograms: histograms.into(),
            cost,
        })
    }

    /// Number of objects in the snapshot.
    pub fn len(&self) -> usize {
        self.histograms.len()
    }

    /// Whether the snapshot holds no objects.
    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty()
    }

    /// Dimensionality of the database-side histograms.
    pub fn dim(&self) -> usize {
        self.cost.cols()
    }

    /// All histograms, in id order.
    pub fn histograms(&self) -> &[Histogram] {
        &self.histograms
    }

    /// One object by id.
    pub fn get(&self, id: usize) -> Option<&Histogram> {
        self.histograms.get(id)
    }

    /// The ground-distance matrix.
    pub fn cost(&self) -> &CostMatrix {
        &self.cost
    }

    /// Shared handle to the ground-distance matrix.
    pub fn cost_arc(&self) -> &Arc<CostMatrix> {
        &self.cost
    }

    /// Shared handle to the histogram arena (test-only: lets tests assert
    /// snapshots share one allocation).
    #[cfg(test)]
    pub(crate) fn arena(&self) -> &Arc<[Histogram]> {
        &self.histograms
    }

    /// Persist this snapshot with its one reduction bundle as a new
    /// index directory at `dir` (see [`crate::durable`] for the layout).
    /// Only the histograms, the cost matrix, `R1`, `R2` and `name` are
    /// written — the reduced cost matrix and the bundle's arena are
    /// rederived on open.
    ///
    /// # Examples
    ///
    /// ```
    /// use emd_query::Database;
    /// use emd_core::{ground, Histogram};
    /// use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};
    /// use std::sync::Arc;
    ///
    /// let dir = std::env::temp_dir().join(format!("flexemd-doc-save-{}", std::process::id()));
    /// let cost = Arc::new(ground::linear(4)?);
    /// let db = Database::new(
    ///     vec![Histogram::unit(4, 0)?, Histogram::unit(4, 3)?],
    ///     Arc::clone(&cost),
    /// )?;
    /// let reduced = ReducedEmd::new(&cost, CombiningReduction::new(vec![0, 0, 1, 1], 2)?)?;
    /// let bundle = PersistedReduction::precompute("kmed:2", reduced, db.histograms())?;
    /// db.save(&dir, "demo", &[bundle])?;
    ///
    /// let opened = Database::open(&dir)?;
    /// assert_eq!(opened.name, "demo");
    /// assert_eq!(opened.database.len(), 2);
    /// std::fs::remove_dir_all(&dir)?;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DurableError`] when `reductions` does not hold exactly one
    /// bundle, `dir` already holds an index, or a file cannot be written.
    /// (Storage failures are not [`QueryError`]s: that type is
    /// `Clone + PartialEq` for plan bookkeeping, which `std::io::Error`
    /// cannot satisfy.)
    pub fn save(
        &self,
        dir: &Path,
        name: &str,
        reductions: &[PersistedReduction],
    ) -> Result<(), DurableError> {
        self.save_with_clusterings(dir, name, reductions, &[])
    }

    /// [`Database::save`] plus the bundle's clustering geometry:
    /// `clusterings` is empty, or holds `Some` geometry exported by
    /// [`ClusteredIndex::to_stored`](crate::ClusteredIndex::to_stored)
    /// or `None`.
    ///
    /// # Errors
    ///
    /// As [`Database::save`], and when `clusterings` holds more than one
    /// entry or the clustering does not assign every object.
    pub fn save_with_clusterings(
        &self,
        dir: &Path,
        name: &str,
        reductions: &[PersistedReduction],
        clusterings: &[Option<StoredClustering>],
    ) -> Result<(), DurableError> {
        let ([bundle], [] | [_]) = (reductions, clusterings) else {
            return Err(DurableError::invalid(
                dir,
                "r1",
                format!(
                    "an index holds one reduction bundle and at most one clustering, \
                     not {} and {}",
                    reductions.len(),
                    clusterings.len()
                ),
            ));
        };
        let clustering = clusterings.first().and_then(Option::as_ref);
        if clustering.is_some_and(|c| c.assignments.len() != self.len()) {
            return Err(DurableError::invalid(
                dir,
                "clustering",
                format!("the clustering does not assign all {} objects", self.len()),
            ));
        }
        durable::bulk_load(
            dir,
            name,
            &self.histograms,
            &self.cost,
            bundle.reduced(),
            clustering,
        )
    }

    /// Open an index directory read-only: no lock is taken and nothing
    /// is written. Every invariant [`Database::new`] enforces, the
    /// segment checksums and the reductions' Definition 3 checks hold
    /// before any query can run; `C'` and the bundle's arena are derived
    /// from what was read. Ids are positions, so a directory from which
    /// an object was removed does not open here.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError`] when a file is missing, damaged
    /// (truncation, checksum mismatch, version skew) or internally
    /// inconsistent, when the directory holds a retired
    /// `flexemd-store/v1` index, or when an object was removed.
    pub fn open(dir: &Path) -> Result<OpenedIndex, DurableError> {
        Self::open_with(dir, &emd_faultkit::NoFaults)
    }

    /// [`Database::open`] with a deterministic fault injector probed
    /// before every file read in the open path: the checkpoint,
    /// `base.seg`, the sealed segment, the WAL. Production callers use
    /// [`Database::open`]; this entry point exists for fault injection.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Database::open`], plus injected IO faults.
    pub fn open_with(
        dir: &Path,
        faults: &dyn emd_faultkit::FaultInjector,
    ) -> Result<OpenedIndex, DurableError> {
        let _span = emd_obs::span("store.open");
        let stored = durable::read(dir, faults)?;
        if !stored.ids.iter().copied().eq(0..stored.next_id) {
            return Err(DurableError::invalid(
                dir,
                "external-ids",
                "objects were removed from this index, so its ids are no longer \
                 positions: open it with `flexemd serve --wal`",
            ));
        }
        let database = Database::new(stored.histograms, stored.cost)
            .map_err(|e| DurableError::invalid(dir, "histograms", e.to_string()))?;
        Ok(OpenedIndex {
            name: stored.name,
            database,
            reductions: vec![stored.bundle],
            clusterings: vec![stored.clustering],
        })
    }
}

/// A validated index loaded from disk: the snapshot plus its reduction
/// bundle, ready to assemble into a plan via
/// [`ReducedEmdFilter::from_persisted`](crate::ReducedEmdFilter::from_persisted)
/// / [`ReducedImFilter::from_persisted`](crate::ReducedImFilter::from_persisted).
#[derive(Debug)]
pub struct OpenedIndex {
    /// The index name `build-index` recorded; empty when none was.
    pub name: String,
    /// The database snapshot.
    pub database: Database,
    /// The one reduction bundle, its `C'` and arena derived on open.
    pub reductions: Vec<PersistedReduction>,
    /// The bundle's clustering geometry, parallel to `reductions`: `Some`
    /// where the index was saved with a
    /// [`ClusteredIndex`](crate::ClusteredIndex) and no object was added
    /// since, rehydrated via
    /// [`ClusteredIndex::from_stored`](crate::ClusteredIndex::from_stored).
    pub clusterings: Vec<Option<StoredClustering>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;

    #[test]
    fn snapshot_is_shared_not_copied() {
        let cost = Arc::new(ground::linear(3).unwrap());
        let db = Database::new(
            vec![
                Histogram::unit(3, 0).unwrap(),
                Histogram::unit(3, 2).unwrap(),
            ],
            cost,
        )
        .unwrap();
        let view = db.clone();
        assert!(Arc::ptr_eq(db.arena(), view.arena()));
        assert_eq!(db.len(), 2);
        assert_eq!(db.dim(), 3);
        assert!(!db.is_empty());
        assert_eq!(db.get(1), Some(&Histogram::unit(3, 2).unwrap()));
        assert!(db.get(2).is_none());
    }

    #[test]
    fn rejects_mismatched_histograms() {
        let cost = Arc::new(ground::linear(3).unwrap());
        assert!(Database::new(vec![Histogram::unit(4, 0).unwrap()], cost).is_err());
    }

    #[test]
    fn save_open_roundtrip() {
        use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};

        let mut dir = std::env::temp_dir();
        dir.push(format!("emd-query-db-roundtrip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cost = Arc::new(ground::linear(4).unwrap());
        let db = Database::new(
            vec![
                Histogram::unit(4, 0).unwrap(),
                Histogram::unit(4, 3).unwrap(),
            ],
            cost.clone(),
        )
        .unwrap();
        let reduced =
            ReducedEmd::new(&cost, CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap()).unwrap();
        let bundle = PersistedReduction::precompute("kmed:2", reduced, db.histograms()).unwrap();
        db.save(&dir, "demo", &[bundle]).unwrap();

        let opened = Database::open(&dir).unwrap();
        assert_eq!(opened.name, "demo");
        assert_eq!(opened.database.len(), 2);
        assert_eq!(opened.database.dim(), 4);
        assert_eq!(opened.database.histograms(), db.histograms());
        assert_eq!(opened.reductions.len(), 1);
        assert_eq!(opened.reductions[0].reduced_database().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_takes_exactly_one_bundle() {
        let dir = std::env::temp_dir().join(format!("emd-query-db-one-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cost = Arc::new(ground::linear(3).unwrap());
        let db = Database::new(vec![Histogram::unit(3, 0).unwrap()], cost).unwrap();
        let error = db.save(&dir, "none", &[]).unwrap_err();
        assert!(matches!(error, DurableError::Invalid { .. }), "{error}");
        assert!(!dir.join("CURRENT").exists(), "nothing is written");
    }
}
