//! Online writes for `flexemd serve`: a single-writer ingest loop over a
//! [`DurableIndex`] with lock-free readers.
//!
//! The concurrency contract:
//!
//! * **One writer at a time.** Every mutation (`POST /v1/insert`,
//!   `POST /v1/remove`, compaction) takes the writer mutex, appends to
//!   the WAL ([`DurableIndex::append_insert`] /
//!   [`DurableIndex::append_remove`]), **syncs** ([`DurableIndex::sync`]),
//!   and only then swaps the reader snapshot — a `200` is therefore a
//!   durability acknowledgment, not a buffer write.
//! * **Readers never block on the writer.** Queries, `query_id`
//!   look-ups and the object count clone an `Arc<DurableSnapshot>` out of
//!   a mutex held for nanoseconds and answer from that frozen view — a
//!   database of shared, immutable histograms — never from the writer's
//!   state, so none of them queues behind an fsync. A snapshot taken
//!   before an insert keeps answering bit-identically while (and after)
//!   the writer works — including across compaction, which reclaims
//!   storage and changes no id.
//!
//! The swap is observable as the `snapshot.swaps` counter; WAL traffic
//! shows up under `wal.appends` / `wal.synced_bytes` from the durable
//! module, and compactions under `compact.runs`.

use std::sync::{Arc, Mutex};

use emd_core::Histogram;
use emd_query::durable::CompactReport;
use emd_query::{DurableError, DurableIndex, DurableSnapshot};

use crate::server::unpoisoned;

/// Shared mutable corpus state behind the server's write routes.
#[derive(Debug)]
pub struct IngestState {
    /// The single writer. Mutations serialize here.
    writer: Mutex<DurableIndex>,
    /// The reader view: swapped (never mutated) after each durable write.
    /// `None` until the corpus holds its first object.
    current: Mutex<Option<Arc<DurableSnapshot>>>,
}

impl IngestState {
    /// Wrap an opened [`DurableIndex`], publishing its current contents
    /// as the initial reader snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError`] when the initial snapshot cannot be
    /// prepared (an empty index is fine: readers simply see no corpus
    /// until the first insert).
    pub fn new(index: DurableIndex) -> Result<Self, DurableError> {
        let initial = if index.is_empty() {
            None
        } else {
            Some(Arc::new(index.snapshot()?))
        };
        Ok(IngestState {
            writer: Mutex::new(index),
            current: Mutex::new(initial),
        })
    }

    /// The current reader snapshot (`None` while the corpus is empty).
    /// Cheap: one short lock and an `Arc` clone.
    #[must_use]
    pub fn snapshot(&self) -> Option<Arc<DurableSnapshot>> {
        unpoisoned(&self.current).clone()
    }

    /// Live object count of the current reader snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshot().map_or(0, |snapshot| snapshot.len())
    }

    /// Whether the corpus currently holds no live objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Durably insert one object and publish a fresh reader snapshot.
    /// Returns the external id. The WAL is synced before this returns —
    /// the caller may acknowledge immediately.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError`] when validation, the WAL append, or the
    /// sync fails; the reader snapshot is left unswapped in that case.
    /// After a *sync* failure the record's durability is indeterminate
    /// (it may still have reached disk); reopening the directory
    /// recovers the authoritative state. The server maps disk-side
    /// failures to 500, never 400.
    pub fn insert(&self, histogram: Histogram) -> Result<u64, DurableError> {
        let mut writer = unpoisoned(&self.writer);
        let external_id = writer.append_insert(histogram)?;
        writer.sync()?;
        self.publish(&writer)?;
        Ok(external_id)
    }

    /// Durably remove one object by external id and publish a fresh
    /// reader snapshot. Returns `false` (changing nothing) for unknown
    /// ids.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError`] when the WAL append or sync fails.
    pub fn remove(&self, external_id: u64) -> Result<bool, DurableError> {
        let mut writer = unpoisoned(&self.writer);
        if !writer.append_remove(external_id)? {
            return Ok(false);
        }
        writer.sync()?;
        self.publish(&writer)?;
        Ok(true)
    }

    /// Fold the WAL into a sealed segment (see
    /// [`DurableIndex::compact`]) and publish a fresh reader snapshot.
    /// Outstanding reader snapshots keep answering from their frozen
    /// pre-compaction view.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError`] when sealing or the checkpoint flip
    /// fails; the old epoch (and the old reader snapshot) stay intact.
    pub fn compact(&self) -> Result<CompactReport, DurableError> {
        let mut writer = unpoisoned(&self.writer);
        let report = writer.compact()?;
        self.publish(&writer)?;
        Ok(report)
    }

    /// Swap the reader snapshot to the writer's current state.
    fn publish(&self, writer: &DurableIndex) -> Result<(), DurableError> {
        let fresh = if writer.is_empty() {
            None
        } else {
            Some(Arc::new(writer.snapshot()?))
        };
        *unpoisoned(&self.current) = fresh;
        emd_obs::counter_add("snapshot.swaps", 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;
    use emd_reduction::{CombiningReduction, ReducedEmd};
    use std::path::PathBuf;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flexemd-ingest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn state(dir: &std::path::Path) -> IngestState {
        let cost = Arc::new(ground::linear(4).unwrap());
        let reduced =
            ReducedEmd::new(&cost, CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap()).unwrap();
        IngestState::new(DurableIndex::create(dir, cost, reduced).unwrap()).unwrap()
    }

    #[test]
    fn empty_corpus_has_no_snapshot_until_first_insert() {
        let dir = tmp_dir("empty");
        let ingest = state(&dir);
        assert!(ingest.snapshot().is_none());
        let id = ingest.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        assert_eq!(id, 0);
        assert!(ingest.snapshot().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_insert_snapshots_stay_frozen() {
        let dir = tmp_dir("frozen");
        let ingest = state(&dir);
        ingest.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        ingest.insert(h(&[0.0, 0.0, 0.0, 1.0])).unwrap();
        let frozen = ingest.snapshot().unwrap();
        let query = h(&[0.5, 0.5, 0.0, 0.0]);
        let before = frozen.knn(&query, 2).unwrap().0;
        ingest.insert(h(&[0.5, 0.5, 0.0, 0.0])).unwrap();
        ingest.remove(0).unwrap();
        ingest.compact().unwrap();
        let after = frozen.knn(&query, 2).unwrap().0;
        let bits = |v: &[(u64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|&(i, d)| (i, d.to_bits())).collect()
        };
        assert_eq!(bits(&before), bits(&after));
        // The removed id still resolves in the snapshot that held it...
        assert_eq!(frozen.get(0), Some(&h(&[1.0, 0.0, 0.0, 0.0])));
        // ...while the live view moved on.
        let live = ingest.snapshot().unwrap();
        assert_eq!(live.knn(&query, 1).unwrap().0[0].0, 2);
        assert_eq!(live.get(0), None);
        assert_eq!(live.get(2), Some(&query));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readers_do_not_wait_for_the_writer() {
        let dir = tmp_dir("readers");
        let ingest = state(&dir);
        assert_eq!((ingest.len(), ingest.is_empty()), (0, true));
        ingest.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        ingest.insert(h(&[0.0, 0.0, 0.0, 1.0])).unwrap();
        // The writer mutex is held here for as long as an insert holds it
        // across its fsync; a reader that needed it would never answer.
        let writer = unpoisoned(&ingest.writer);
        let (answers, answered) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let snapshot = ingest.snapshot();
                let second = snapshot.as_ref().and_then(|s| s.get(1).cloned());
                let len = snapshot.map(|snapshot| snapshot.len());
                answers.send((ingest.len(), ingest.is_empty(), second, len))
            });
            let got = answered.recv_timeout(std::time::Duration::from_secs(30));
            drop(writer);
            let second = h(&[0.0, 0.0, 0.0, 1.0]);
            assert_eq!(got, Ok((2, false, Some(second), Some(2))));
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_of_unknown_id_is_a_clean_no() {
        let dir = tmp_dir("no-op");
        let ingest = state(&dir);
        ingest.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        assert!(!ingest.remove(42).unwrap());
        assert_eq!(ingest.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
