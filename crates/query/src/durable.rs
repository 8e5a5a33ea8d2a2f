//! A crash-safe [`DynamicIndex`]: sealed segments + WAL tail.
//!
//! [`DynamicIndex`] gives the engine online insert/remove/compact — but
//! only in memory, so every restart forgets every ingested object.
//! `DurableIndex` makes the same operations durable with the classic
//! sealed-prefix / logged-tail split:
//!
//! ```text
//! <dir>/
//!   CURRENT             the checkpoint: "flexemd-durable/v1 <epoch>"
//!   LOCK                advisory exclusive lock (held while open)
//!   base.seg            cost matrix + R1/R2 reductions (written once)
//!   sealed-<epoch>.seg  dense histogram arena + external-id map
//!   wal-<epoch>.log     every mutation since the sealed segment
//! ```
//!
//! * **Writes** append a [`WalRecord`] first; the in-memory index applies
//!   the mutation, and durability is only claimed after an explicit
//!   [`DurableIndex::sync`] — the server acknowledges an insert exactly
//!   then, never earlier.
//! * **Open** replays the WAL over the sealed segment, re-deriving the
//!   reduced (filter) representation of every object through the same
//!   [`ReducedEmd`] used at write time, so the paper's KNOP guarantee
//!   (`LB ≤ Red-EMD ≤ EMD`) holds across restarts bit-for-bit.
//! * **Compaction** folds the tail into a new sealed segment and starts a
//!   fresh WAL whose first record is [`WalRecord::CompactEpoch`] carrying
//!   the sealed objects' ids and the id allocator's watermark — ids held
//!   by clients survive compaction and restarts. The checkpoint flips via
//!   write-temp + fsync + atomic rename, so a crash anywhere during
//!   compaction reopens either the old epoch or the new one, never a
//!   mixture; orphaned files are swept on the next successful open.
//! * **Ids**: there is one id space, and [`DynamicIndex`] owns it — a
//!   `u64` per object, allocated monotonically, never reused, untouched
//!   by compaction. This layer keeps no id state of its own: it logs the
//!   id the index is about to hand out, persists the index's ids beside
//!   the sealed histograms, and hands both back on open. (The WAL and
//!   segment formats call them *external* ids.)
//! * **Single owner**: both [`DurableIndex::create`] and
//!   [`DurableIndex::open`] take an advisory exclusive lock on
//!   `<dir>/LOCK` and hold it for the index's lifetime — a second
//!   process (or a second handle in the same process) opening the same
//!   directory fails with a typed [`StoreError::Locked`] instead of
//!   interleaving WAL appends and sweeping each other's epoch files.
//!   The OS releases the lock when its owner dies, so a crash never
//!   leaves a stale lock behind and kill-anywhere recovery still works.
//!
//! Copy-on-write isolation is inherited from [`DynamicIndex`]: a
//! [`DurableSnapshot`] taken before a mutation keeps answering from the
//! pre-mutation state, which is how `flexemd serve` lets readers run
//! against a frozen view while the single writer applies inserts.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use emd_core::{CostMatrix, Histogram};
use emd_faultkit::{Fault, FaultInjector, NoFaults, Site};
use emd_reduction::ReducedEmd;
use emd_store::sections;
use emd_store::segment::{SectionKind, SegmentReader, SegmentWriter};
use emd_store::wal::{self, TornTail, WalRecord, WalWriter};
use emd_store::StoreError;

use crate::dynamic::DynamicIndex;
use crate::error::QueryError;

/// A frozen view of a [`DurableIndex`]: the [`DynamicIndex`]'s own
/// snapshot, which already answers in the ids clients hold.
pub use crate::dynamic::DynamicSnapshot as DurableSnapshot;

/// Schema tag written as the first token of the `CURRENT` checkpoint.
pub const CHECKPOINT_SCHEMA: &str = "flexemd-durable/v1";

/// File name of the checkpoint.
pub const CHECKPOINT_FILE: &str = "CURRENT";

/// File name of the base segment (cost matrix + reductions).
const BASE_SEGMENT: &str = "base.seg";

/// File name of the advisory directory lock.
const LOCK_FILE: &str = "LOCK";

/// Failures of the durable index: persistence errors keep their store
/// typing, engine errors keep their query typing.
#[derive(Debug)]
pub enum DurableError {
    /// The store layer failed (IO, corruption, checksum, checkpoint).
    Store(StoreError),
    /// The engine rejected data (shape mismatch, reduction failure, …).
    Query(QueryError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Store(e) => write!(f, "store error: {e}"),
            DurableError::Query(e) => write!(f, "query error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Store(e) => Some(e),
            DurableError::Query(e) => Some(e),
        }
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

impl From<QueryError> for DurableError {
    fn from(e: QueryError) -> Self {
        DurableError::Query(e)
    }
}

/// What [`DurableIndex::open`] found on disk.
#[derive(Debug)]
pub struct OpenReport {
    /// The compaction epoch the checkpoint named.
    pub epoch: u64,
    /// Objects loaded from the sealed segment.
    pub sealed_objects: usize,
    /// WAL records replayed over the sealed prefix.
    pub replayed_records: usize,
    /// A torn tail discarded during replay, if any (already truncated
    /// away; subsequent appends continue from the clean prefix).
    pub torn_tail: Option<TornTail>,
}

/// What [`DurableIndex::compact`] did.
#[derive(Debug)]
pub struct CompactReport {
    /// The epoch the index now runs at.
    pub epoch: u64,
    /// Live objects sealed into the new segment.
    pub sealed_objects: usize,
    /// WAL bytes folded away (length of the retired log file).
    pub folded_wal_bytes: u64,
}

/// The path of epoch `epoch`'s WAL file.
pub fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch}.log"))
}

/// The path of epoch `epoch`'s sealed segment.
fn sealed_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("sealed-{epoch}.seg"))
}

/// Take the advisory exclusive lock on `<dir>/LOCK`. The lock lives in
/// the returned handle: it is released when the handle drops or its
/// process dies, so a crashed owner never blocks recovery — only a
/// genuinely live concurrent owner is refused, with a typed
/// [`StoreError::Locked`].
fn lock_dir(dir: &Path) -> Result<File, StoreError> {
    let path = dir.join(LOCK_FILE);
    let file = File::options()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| StoreError::io(&path, e))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(StoreError::Locked { path }),
        Err(std::fs::TryLockError::Error(e)) => Err(StoreError::io(&path, e)),
    }
}

/// Fsync a directory so a just-renamed checkpoint survives power loss.
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    let handle = File::open(dir).map_err(|e| StoreError::io(dir, e))?;
    handle.sync_all().map_err(|e| StoreError::io(dir, e))
}

/// Write the checkpoint atomically: temp file, fsync, rename, dir fsync.
fn write_checkpoint(dir: &Path, epoch: u64) -> Result<(), StoreError> {
    let tmp = dir.join("CURRENT.tmp");
    let final_path = dir.join(CHECKPOINT_FILE);
    std::fs::write(&tmp, format!("{CHECKPOINT_SCHEMA} {epoch}\n"))
        .map_err(|e| StoreError::io(&tmp, e))?;
    let handle = File::open(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
    handle.sync_all().map_err(|e| StoreError::io(&tmp, e))?;
    std::fs::rename(&tmp, &final_path).map_err(|e| StoreError::io(&final_path, e))?;
    sync_dir(dir)
}

/// Read the checkpoint; every malformation is a typed
/// [`StoreError::Manifest`].
///
/// # Errors
///
/// [`StoreError::Io`] when `CURRENT` cannot be read, [`StoreError::Manifest`]
/// when it is not `flexemd-durable/v1 <epoch>`.
pub fn read_checkpoint(dir: &Path) -> Result<u64, StoreError> {
    let path = dir.join(CHECKPOINT_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| StoreError::io(&path, e))?;
    let manifest_err = |reason: String| StoreError::Manifest {
        path: path.clone(),
        reason,
    };
    let mut tokens = text.split_whitespace();
    match tokens.next() {
        Some(schema) if schema == CHECKPOINT_SCHEMA => {}
        Some(schema) => {
            return Err(manifest_err(format!(
                "schema `{schema}` is not `{CHECKPOINT_SCHEMA}`"
            )))
        }
        None => return Err(manifest_err("empty checkpoint".to_owned())),
    }
    let epoch = tokens
        .next()
        .ok_or_else(|| manifest_err("checkpoint names no epoch".to_owned()))?;
    let epoch: u64 = epoch
        .parse()
        .map_err(|_| manifest_err(format!("epoch `{epoch}` is not a u64")))?;
    if tokens.next().is_some() {
        return Err(manifest_err("trailing tokens after the epoch".to_owned()));
    }
    Ok(epoch)
}

/// A WAL-backed, crash-safe dynamic index over one directory.
#[derive(Debug)]
pub struct DurableIndex {
    dir: PathBuf,
    index: DynamicIndex,
    epoch: u64,
    walw: WalWriter,
    faults: Arc<dyn FaultInjector>,
    /// Advisory exclusive lock on the directory; held (and declared
    /// last, so it drops last) for the index's whole lifetime.
    _lock: File,
}

impl DurableIndex {
    /// Create a fresh durable index at `dir` (the directory must exist
    /// and be empty of index files): writes `base.seg`, an empty
    /// `wal-0.log`, and the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Query`] when the reduction disagrees with
    /// `cost`, and [`DurableError::Store`] when any file cannot be
    /// written or synced — including [`StoreError::Locked`] when another
    /// live handle already owns the directory.
    pub fn create(
        dir: &Path,
        cost: Arc<CostMatrix>,
        reduced: ReducedEmd,
    ) -> Result<Self, DurableError> {
        Self::create_with(dir, cost, reduced, Arc::new(NoFaults))
    }

    /// [`DurableIndex::create`] with a fault injector for crash tests.
    ///
    /// # Errors
    ///
    /// Same contract as [`DurableIndex::create`], plus injected faults.
    pub fn create_with(
        dir: &Path,
        cost: Arc<CostMatrix>,
        reduced: ReducedEmd,
        faults: Arc<dyn FaultInjector>,
    ) -> Result<Self, DurableError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        let lock = lock_dir(dir)?;
        let index = DynamicIndex::new(Arc::clone(&cost), reduced.clone())?;
        let base = dir.join(BASE_SEGMENT);
        let mut writer = SegmentWriter::create(&base)?;
        writer.section(
            SectionKind::CostMatrix,
            "cost",
            &sections::encode_cost_matrix(&cost),
        )?;
        writer.section(
            SectionKind::Reduction,
            "r1",
            &sections::encode_reduction(reduced.r1()),
        )?;
        writer.section(
            SectionKind::Reduction,
            "r2",
            &sections::encode_reduction(reduced.r2()),
        )?;
        writer.finish()?;
        let walw = WalWriter::create_with(&wal_path(dir, 0), Arc::clone(&faults))?;
        write_checkpoint(dir, 0)?;
        Ok(DurableIndex {
            dir: dir.to_path_buf(),
            index,
            epoch: 0,
            walw,
            faults,
            _lock: lock,
        })
    }

    /// Open an existing durable index, replaying its WAL over the sealed
    /// segment. A reported torn tail has already been truncated away;
    /// everything else about the open is fail-closed.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Store`] for every form of on-disk damage
    /// (missing files, checksum mismatches, mid-file corruption, records
    /// that contradict the sealed segment) or when another live handle
    /// owns the directory ([`StoreError::Locked`]), and
    /// [`DurableError::Query`] when replayed data violates engine
    /// invariants.
    pub fn open(dir: &Path) -> Result<(Self, OpenReport), DurableError> {
        Self::open_with(dir, Arc::new(NoFaults))
    }

    /// [`DurableIndex::open`] with a fault injector for crash tests.
    ///
    /// # Errors
    ///
    /// Same contract as [`DurableIndex::open`], plus injected faults.
    pub fn open_with(
        dir: &Path,
        faults: Arc<dyn FaultInjector>,
    ) -> Result<(Self, OpenReport), DurableError> {
        let _span = emd_obs::span_with(|| format!("durable.open({})", dir.display()));
        // Own the directory before reading anything: replay truncates
        // torn tails and open sweeps orphans, neither of which may race
        // a concurrent owner.
        let lock = lock_dir(dir)?;
        let epoch = read_checkpoint(dir)?;
        let base = SegmentReader::open_with(&dir.join(BASE_SEGMENT), faults.as_ref())?;
        base.allow_only(&["cost", "r1", "r2"])?;
        let cost_section = base.typed_section(SectionKind::CostMatrix, "cost")?;
        let cost = Arc::new(sections::decode_cost_matrix(
            base.path(),
            "cost",
            cost_section.payload(),
        )?);
        let r1_section = base.typed_section(SectionKind::Reduction, "r1")?;
        let r1 = sections::decode_reduction(base.path(), "r1", r1_section.payload())?;
        let r2_section = base.typed_section(SectionKind::Reduction, "r2")?;
        let r2 = sections::decode_reduction(base.path(), "r2", r2_section.payload())?;
        let reduced = ReducedEmd::with_asymmetric(&cost, r1, r2)
            .map_err(|e| QueryError::Reduction(e.to_string()))?;
        let sealed = (epoch > 0)
            .then(|| read_sealed(&sealed_path(dir, epoch), faults.as_ref()))
            .transpose()?;

        let wal_file = wal_path(dir, epoch);
        let replay = wal::replay_with(&wal_file, Arc::clone(&faults))?;
        let invalid_wal =
            |reason: String| DurableError::Store(StoreError::invalid(&wal_file, "wal", reason));
        let mut records = replay.records.iter().map(|(_lsn, record)| record);
        let sealed_objects = sealed.as_ref().map_or(0, |(_, ids)| ids.len());
        let mut index = if let Some((histograms, sealed_ids)) = sealed {
            // The compact-epoch record is fsynced before the checkpoint
            // ever names its epoch, so a post-compaction WAL without one
            // is real damage, not a survivable torn tail.
            let next_id = match records.next() {
                Some(WalRecord::CompactEpoch {
                    epoch: sealed_epoch,
                    next_external,
                    external_ids,
                }) => {
                    if *sealed_epoch != epoch {
                        return Err(invalid_wal(format!(
                            "compact-epoch names epoch {sealed_epoch}, checkpoint says {epoch}"
                        )));
                    }
                    if *external_ids != sealed_ids {
                        return Err(invalid_wal(
                            "compact-epoch id map disagrees with the sealed segment".to_owned(),
                        ));
                    }
                    if sealed_ids.last().is_some_and(|last| next_external <= last) {
                        return Err(invalid_wal(format!(
                            "compact-epoch next-external {next_external} below sealed maximum"
                        )));
                    }
                    *next_external
                }
                _ => {
                    return Err(invalid_wal(
                        "post-compaction WAL must start with a compact-epoch record".to_owned(),
                    ))
                }
            };
            DynamicIndex::restore(cost, reduced, histograms, sealed_ids, next_id)?
        } else {
            DynamicIndex::new(cost, reduced)?
        };
        for record in records {
            match record {
                WalRecord::CompactEpoch { .. } => {
                    return Err(invalid_wal("misplaced compact-epoch record".to_owned()));
                }
                WalRecord::Insert {
                    external_id,
                    histogram,
                } => {
                    if *external_id != index.next_id() {
                        return Err(invalid_wal(format!(
                            "insert carries external id {external_id}, expected {}",
                            index.next_id()
                        )));
                    }
                    index.insert(histogram.clone())?;
                }
                WalRecord::Remove { external_id } => {
                    if !index.remove(*external_id) {
                        return Err(invalid_wal(format!(
                            "remove of unknown external id {external_id}"
                        )));
                    }
                }
            }
        }
        let replayed_records = replay.records.len();
        let torn_tail = replay.torn_tail.clone();
        let walw = WalWriter::open_for_append(&wal_file, &replay, Arc::clone(&faults))?;
        let durable = DurableIndex {
            dir: dir.to_path_buf(),
            index,
            epoch,
            walw,
            faults,
            _lock: lock,
        };
        durable.sweep_orphans();
        Ok((
            durable,
            OpenReport {
                epoch,
                sealed_objects,
                replayed_records,
                torn_tail,
            },
        ))
    }

    /// Remove files left behind by a compaction that crashed between
    /// writing new-epoch files and flipping (or after flipping) the
    /// checkpoint. Best-effort: an undeletable orphan is harmless — it
    /// is swept again on the next open.
    fn sweep_orphans(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let stale = parse_epoch_file(name).is_some_and(|epoch| epoch != self.epoch)
                || name == "CURRENT.tmp";
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// The ground-distance matrix this index persists against.
    #[must_use]
    pub fn cost(&self) -> &Arc<CostMatrix> {
        self.index.cost()
    }

    /// Live object count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no live objects remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The compaction epoch currently on disk.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The directory this index persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append an insert to the WAL and apply it in memory, returning the
    /// new object's id. **Not yet durable**: call
    /// [`DurableIndex::sync`] before acknowledging it to a client. Batch
    /// loaders amortize one sync over many appends.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Query`] when the histogram's shape or
    /// reduction is rejected (nothing is logged), and
    /// [`DurableError::Store`] when the WAL append fails — the in-memory
    /// index is only touched after the append succeeds, so a failure
    /// changes nothing and consumes no id.
    pub fn append_insert(&mut self, histogram: Histogram) -> Result<u64, DurableError> {
        let derived = self.index.reduce(&histogram)?;
        self.walw.append(&WalRecord::Insert {
            external_id: self.index.next_id(),
            histogram: histogram.clone(),
        })?;
        Ok(self.index.push(histogram, derived))
    }

    /// Insert with immediate durability: append + [`DurableIndex::sync`].
    ///
    /// # Errors
    ///
    /// Propagates [`DurableIndex::append_insert`] and
    /// [`DurableIndex::sync`] failures. After a sync failure the record's
    /// durability is *unknown* (it may still reach disk); reopening the
    /// directory recovers the authoritative state.
    pub fn insert(&mut self, histogram: Histogram) -> Result<u64, DurableError> {
        let external_id = self.append_insert(histogram)?;
        self.sync()?;
        Ok(external_id)
    }

    /// Append a remove to the WAL and apply it in memory. Returns `false`
    /// (logging nothing) when the id names no live object. Like
    /// [`DurableIndex::append_insert`], durable only after
    /// [`DurableIndex::sync`].
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Store`] when the WAL append fails; the
    /// in-memory state is untouched in that case.
    pub fn append_remove(&mut self, external_id: u64) -> Result<bool, DurableError> {
        if self.index.get(external_id).is_none() {
            return Ok(false);
        }
        self.walw.append(&WalRecord::Remove { external_id })?;
        Ok(self.index.remove(external_id))
    }

    /// Remove with immediate durability: append + [`DurableIndex::sync`].
    ///
    /// # Errors
    ///
    /// Propagates [`DurableIndex::append_remove`] and
    /// [`DurableIndex::sync`] failures (see [`DurableIndex::insert`] for
    /// post-sync-failure semantics).
    pub fn remove(&mut self, external_id: u64) -> Result<bool, DurableError> {
        if !self.append_remove(external_id)? {
            return Ok(false);
        }
        self.sync()?;
        Ok(true)
    }

    /// Fetch a live object by id.
    #[must_use]
    pub fn get(&self, external_id: u64) -> Option<&Histogram> {
        self.index.get(external_id)
    }

    /// Make every appended record durable (fsync). The explicit point
    /// after which appends may be acknowledged.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Store`] on flush/fsync failure (real or
    /// injected at `Site::WalSync`).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.walw.sync()?;
        Ok(())
    }

    /// Fold the WAL into a new sealed segment and start a fresh log.
    ///
    /// Steps, in crash-safe order: compact the in-memory index (ids are
    /// unaffected), write `sealed-<epoch+1>.seg`, create
    /// `wal-<epoch+1>.log` whose first record is the
    /// [`WalRecord::CompactEpoch`] id map, flip the checkpoint
    /// atomically, then retire the old epoch's files. A crash before the
    /// checkpoint flip reopens the old epoch; after it, the new one —
    /// never a mixture. Outstanding snapshots are unaffected (they hold
    /// their own handles to the immutable histograms).
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Store`] when sealing, logging or the
    /// checkpoint flip fails (real or injected at `Site::Compact`). The
    /// in-memory index stays consistent and the old epoch stays intact.
    pub fn compact(&mut self) -> Result<CompactReport, DurableError> {
        let _span = emd_obs::span("durable.compact");
        if let Some(Fault::Io) = self.faults.check(Site::Compact) {
            return Err(StoreError::io(
                sealed_path(&self.dir, self.epoch + 1),
                std::io::Error::other("injected compaction fault"),
            )
            .into());
        }
        let new_epoch = self.epoch + 1;
        // Reclaim in memory first; ids are unaffected, so a failure below
        // leaves a fully consistent (just un-sealed) index.
        self.index.compact();
        let (externals, histograms): (Vec<u64>, Vec<Histogram>) = self
            .index
            .live()
            .map(|(id, histogram)| (id, histogram.clone()))
            .unzip();
        let dim = histograms.first().map_or(0, Histogram::dim);
        let sealed_file = sealed_path(&self.dir, new_epoch);
        let mut writer = SegmentWriter::create(&sealed_file)?;
        writer.section(
            SectionKind::HistogramArena,
            "histograms",
            &sections::encode_histogram_arena(dim, &histograms),
        )?;
        writer.section(
            SectionKind::IdMap,
            "external-ids",
            &sections::encode_id_map(&externals),
        )?;
        writer.finish()?;

        let old_wal = wal_path(&self.dir, self.epoch);
        let folded_wal_bytes = std::fs::metadata(&old_wal).map_or(0, |m| m.len());
        let mut new_wal =
            WalWriter::create_with(&wal_path(&self.dir, new_epoch), Arc::clone(&self.faults))?;
        new_wal.append(&WalRecord::CompactEpoch {
            epoch: new_epoch,
            next_external: self.index.next_id(),
            external_ids: externals,
        })?;
        new_wal.sync()?;
        write_checkpoint(&self.dir, new_epoch)?;

        // The flip is durable: swap in the new epoch and retire the old
        // files (best-effort — orphans are swept on the next open).
        let old_sealed = sealed_path(&self.dir, self.epoch);
        self.epoch = new_epoch;
        self.walw = new_wal;
        let _ = std::fs::remove_file(&old_wal);
        if old_sealed.exists() {
            let _ = std::fs::remove_file(&old_sealed);
        }
        emd_obs::counter_add("compact.runs", 1);
        Ok(CompactReport {
            epoch: new_epoch,
            sealed_objects: self.index.len(),
            folded_wal_bytes,
        })
    }

    /// An immutable, queryable snapshot: a [`Database`](crate::Database)
    /// of the live histograms (shared handles, no bins copied), isolated
    /// from every later mutation, including compaction.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Query`] ([`QueryError::EmptyDatabase`])
    /// when no live objects remain.
    pub fn snapshot(&self) -> Result<DurableSnapshot, DurableError> {
        Ok(self.index.snapshot()?)
    }
}

/// Match `wal-<epoch>.log` / `sealed-<epoch>.seg` names, returning the
/// epoch, for orphan sweeping.
fn parse_epoch_file(name: &str) -> Option<u64> {
    let epoch = name
        .strip_prefix("wal-")
        .and_then(|rest| rest.strip_suffix(".log"))
        .or_else(|| {
            name.strip_prefix("sealed-")
                .and_then(|rest| rest.strip_suffix(".seg"))
        })?;
    epoch.parse().ok()
}

/// Read a sealed segment: the histograms and, position for position,
/// their ids (strictly ascending — [`sections::decode_id_map`] rejects
/// anything else).
fn read_sealed(
    path: &Path,
    faults: &dyn FaultInjector,
) -> Result<(Vec<Histogram>, Vec<u64>), StoreError> {
    let sealed = SegmentReader::open_with(path, faults)?;
    sealed.allow_only(&["histograms", "external-ids"])?;
    let arena_section = sealed.typed_section(SectionKind::HistogramArena, "histograms")?;
    let (_, histograms) =
        sections::decode_histogram_arena(sealed.path(), "histograms", arena_section.payload())?;
    let ids_section = sealed.typed_section(SectionKind::IdMap, "external-ids")?;
    let ids = sections::decode_id_map(sealed.path(), "external-ids", ids_section.payload())?;
    if ids.len() != histograms.len() {
        return Err(StoreError::invalid(
            path,
            "external-ids",
            format!("{} ids for {} histograms", ids.len(), histograms.len()),
        ));
    }
    Ok((histograms, ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_core::ground;
    use emd_reduction::CombiningReduction;

    fn h(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).unwrap()
    }

    fn reduced(cost: &CostMatrix) -> ReducedEmd {
        ReducedEmd::new(cost, CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap()).unwrap()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flexemd-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fresh(dir: &Path) -> DurableIndex {
        let cost = Arc::new(ground::linear(4).unwrap());
        let r = reduced(&cost);
        DurableIndex::create(dir, cost, r).unwrap()
    }

    fn corpus() -> Vec<Histogram> {
        vec![
            h(&[1.0, 0.0, 0.0, 0.0]),
            h(&[0.0, 1.0, 0.0, 0.0]),
            h(&[0.0, 0.0, 1.0, 0.0]),
            h(&[0.0, 0.0, 0.0, 1.0]),
            h(&[0.25, 0.25, 0.25, 0.25]),
        ]
    }

    #[test]
    fn create_insert_reopen_replays_identically() {
        let dir = tmp_dir("reopen");
        let query = h(&[0.8, 0.2, 0.0, 0.0]);
        let before;
        {
            let mut index = fresh(&dir);
            for histogram in corpus() {
                index.insert(histogram).unwrap();
            }
            index.remove(1).unwrap();
            before = index.snapshot().unwrap().knn(&query, 3).unwrap().0;
        }
        let (reopened, report) = DurableIndex::open(&dir).unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(report.replayed_records, 6);
        assert!(report.torn_tail.is_none());
        assert_eq!(reopened.len(), 4);
        let after = reopened.snapshot().unwrap().knn(&query, 3).unwrap().0;
        let bits = |v: &[(u64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|&(i, d)| (i, d.to_bits())).collect()
        };
        assert_eq!(bits(&before), bits(&after), "bit-identical across reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_ids_survive_compaction_and_reopen() {
        let dir = tmp_dir("compact-ids");
        let mut index = fresh(&dir);
        let ids: Vec<u64> = corpus()
            .into_iter()
            .map(|histogram| index.insert(histogram).unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        index.remove(0).unwrap();
        index.remove(2).unwrap();
        let report = index.compact().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.sealed_objects, 3);

        // Queries keep answering in external ids after compaction...
        let (hits, _) = index
            .snapshot()
            .unwrap()
            .knn(&h(&[0.0, 0.9, 0.1, 0.0]), 1)
            .unwrap();
        assert_eq!(hits[0].0, 1, "external id 1 survives compaction");
        // ...and the persisted id map restores them after reopen.
        let next_before = index.insert(h(&[0.5, 0.0, 0.0, 0.5])).unwrap();
        assert_eq!(next_before, 5, "allocator continues after compaction");
        drop(index);
        let (reopened, report) = DurableIndex::open(&dir).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.sealed_objects, 3);
        let (hits, _) = reopened
            .snapshot()
            .unwrap()
            .knn(&h(&[0.0, 0.9, 0.1, 0.0]), 1)
            .unwrap();
        assert_eq!(hits[0].0, 1, "external id survives compaction + reopen");
        assert!(reopened.get(0).is_none(), "removed ids stay removed");
        assert!(reopened.get(5).is_some(), "post-compaction insert survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_compaction_preserves_id_allocator() {
        let dir = tmp_dir("empty-compact");
        let mut index = fresh(&dir);
        let a = index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        index.remove(a).unwrap();
        index.compact().unwrap();
        drop(index);
        let (mut reopened, _) = DurableIndex::open(&dir).unwrap();
        let b = reopened.insert(h(&[0.0, 1.0, 0.0, 0.0])).unwrap();
        assert!(b > a, "external ids are never reused ({b} vs {a})");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_is_isolated_from_ingest_and_compaction() {
        let dir = tmp_dir("snapshot-iso");
        let mut index = fresh(&dir);
        for histogram in corpus() {
            index.insert(histogram).unwrap();
        }
        let query = h(&[0.9, 0.1, 0.0, 0.0]);
        let snapshot = index.snapshot().unwrap();
        let frozen = snapshot.knn(&query, 2).unwrap().0;

        index.remove(0).unwrap();
        index.insert(h(&[0.95, 0.05, 0.0, 0.0])).unwrap();
        index.compact().unwrap();

        let frozen_again = snapshot.knn(&query, 2).unwrap().0;
        let bits = |v: &[(u64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|&(i, d)| (i, d.to_bits())).collect()
        };
        assert_eq!(bits(&frozen), bits(&frozen_again), "snapshot is frozen");
        let (current, _) = index.snapshot().unwrap().knn(&query, 1).unwrap();
        assert_eq!(current[0].0, 5, "the index sees the new object");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsynced_appends_batch_then_sync() {
        let dir = tmp_dir("batch");
        let mut index = fresh(&dir);
        for histogram in corpus() {
            index.append_insert(histogram).unwrap();
        }
        index.sync().unwrap();
        drop(index);
        let (reopened, report) = DurableIndex::open(&dir).unwrap();
        assert_eq!(report.replayed_records, 5);
        assert_eq!(reopened.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_of_unknown_id_logs_nothing() {
        let dir = tmp_dir("unknown-remove");
        let mut index = fresh(&dir);
        index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        assert!(!index.remove(99).unwrap());
        drop(index);
        let (_, report) = DurableIndex::open(&dir).unwrap();
        assert_eq!(report.replayed_records, 1, "no-op removes are not logged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_recovers_prefix_and_appends_continue() {
        let dir = tmp_dir("torn");
        {
            let mut index = fresh(&dir);
            for histogram in corpus() {
                index.insert(histogram).unwrap();
            }
        }
        let wal_file = wal_path(&dir, 0);
        let bytes = std::fs::read(&wal_file).unwrap();
        std::fs::write(&wal_file, &bytes[..bytes.len() - 5]).unwrap();
        let (mut reopened, report) = DurableIndex::open(&dir).unwrap();
        assert!(report.torn_tail.is_some(), "tear is reported");
        assert_eq!(report.replayed_records, 4, "clean prefix survives");
        assert_eq!(reopened.len(), 4);
        // The torn object's external id was never acknowledged; the
        // allocator may reuse it — what matters is appends still work.
        let id = reopened.insert(h(&[0.1, 0.2, 0.3, 0.4])).unwrap();
        assert_eq!(id, 4);
        drop(reopened);
        let (final_index, report) = DurableIndex::open(&dir).unwrap();
        assert!(report.torn_tail.is_none(), "tail was truncated on reopen");
        assert_eq!(final_index.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn midfile_wal_corruption_fails_typed() {
        let dir = tmp_dir("midfile");
        {
            let mut index = fresh(&dir);
            for histogram in corpus() {
                index.insert(histogram).unwrap();
            }
        }
        let wal_file = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&wal_file).unwrap();
        bytes[40] ^= 0x10; // inside the first record, valid records follow
        std::fs::write(&wal_file, &bytes).unwrap();
        let error = DurableIndex::open(&dir).expect_err("mid-file damage is fatal");
        assert!(
            matches!(
                error,
                DurableError::Store(StoreError::ChecksumMismatch { .. })
            ),
            "got {error}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_insert_keeps_id_space_aligned() {
        use emd_faultkit::FailPlan;
        let dir = tmp_dir("append-fault");
        let cost = Arc::new(ground::linear(4).unwrap());
        let r = reduced(&cost);
        let plan = Arc::new(FailPlan::new().fail_wal_append(2));
        let mut index = DurableIndex::create_with(&dir, cost, r, plan).unwrap();
        let first = index.insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let error = index
            .insert(h(&[0.0, 1.0, 0.0, 0.0]))
            .expect_err("second append injected");
        assert!(matches!(error, DurableError::Store(StoreError::Io { .. })));
        // The in-memory index is only touched after the append succeeds:
        // the failed insert consumed no id and no storage position.
        assert_eq!((index.len(), index.index.positions()), (1, 1));
        let second = index.insert(h(&[0.0, 0.0, 1.0, 0.0])).unwrap();
        assert_eq!((first, second), (0, 1));
        let probe = h(&[0.0, 0.0, 0.9, 0.1]);
        let (hits, _) = index.snapshot().unwrap().knn(&probe, 1).unwrap();
        assert_eq!(hits[0].0, 1, "ids stay aligned after the failed append");
        // Compaction stays consistent...
        let report = index.compact().unwrap();
        assert_eq!(report.sealed_objects, 2);
        let (hits, _) = index.snapshot().unwrap().knn(&probe, 1).unwrap();
        assert_eq!(hits[0].0, 1, "alignment survives compaction");
        // ...and so does a cold reopen (the failed append was never
        // logged, so replay sees a dense history).
        drop(index);
        let (reopened, _) = DurableIndex::open(&dir).unwrap();
        let (hits, _) = reopened.snapshot().unwrap().knn(&probe, 1).unwrap();
        assert_eq!(hits[0].0, 1, "alignment survives reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_lock_excludes_concurrent_owners() {
        let dir = tmp_dir("lock");
        let index = fresh(&dir);
        let error = DurableIndex::open(&dir).expect_err("live owner must exclude a second open");
        assert!(
            matches!(error, DurableError::Store(StoreError::Locked { .. })),
            "got {error}"
        );
        // Releasing the handle releases the lock.
        drop(index);
        let (reopened, _) = DurableIndex::open(&dir).unwrap();
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_compact_fault_leaves_old_epoch_intact() {
        use emd_faultkit::FailPlan;
        let dir = tmp_dir("compact-fault");
        let cost = Arc::new(ground::linear(4).unwrap());
        let r = reduced(&cost);
        let plan = Arc::new(FailPlan::new().fail_compact(1));
        let mut index = DurableIndex::create_with(&dir, cost, r, plan).unwrap();
        for histogram in corpus() {
            index.insert(histogram).unwrap();
        }
        index.remove(1).unwrap();
        let error = index.compact().expect_err("first compaction injected");
        assert!(matches!(error, DurableError::Store(StoreError::Io { .. })));
        // The failed compaction must not have flipped the checkpoint...
        assert_eq!(index.epoch(), 0);
        // ...and a second attempt succeeds.
        let report = index.compact().unwrap();
        assert_eq!(report.epoch, 1);
        drop(index);
        let (reopened, _) = DurableIndex::open(&dir).unwrap();
        assert_eq!(reopened.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_seal_and_checkpoint_reopens_old_epoch() {
        let dir = tmp_dir("crash-window");
        let mut index = fresh(&dir);
        for histogram in corpus() {
            index.insert(histogram).unwrap();
        }
        // Simulate the crash window: new-epoch files exist, checkpoint
        // still names epoch 0.
        let externals: Vec<u64> = vec![0, 1, 2, 3, 4];
        let sealed_file = sealed_path(&dir, 1);
        let mut writer = SegmentWriter::create(&sealed_file).unwrap();
        writer
            .section(
                SectionKind::HistogramArena,
                "histograms",
                &sections::encode_histogram_arena(4, &corpus()),
            )
            .unwrap();
        writer
            .section(
                SectionKind::IdMap,
                "external-ids",
                &sections::encode_id_map(&externals),
            )
            .unwrap();
        writer.finish().unwrap();
        let mut orphan_wal = WalWriter::create(&wal_path(&dir, 1)).unwrap();
        orphan_wal
            .append(&WalRecord::CompactEpoch {
                epoch: 1,
                next_external: 5,
                external_ids: externals,
            })
            .unwrap();
        orphan_wal.sync().unwrap();
        drop(index);
        let (reopened, report) = DurableIndex::open(&dir).unwrap();
        assert_eq!(report.epoch, 0, "old epoch wins before the flip");
        assert_eq!(reopened.len(), 5);
        assert!(
            !sealed_path(&dir, 1).exists() && !wal_path(&dir, 1).exists(),
            "orphans are swept"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_ids_out_of_order_fail_typed() {
        // Id -> position is a binary search, so a sealed id map that is
        // not ascending must not open. No build ever wrote one (sealing
        // order is insertion order); hand-write it.
        let dir = tmp_dir("swapped-ids");
        drop(fresh(&dir));
        let swapped: Vec<u64> = vec![0, 2, 1, 3, 4];
        let mut writer = SegmentWriter::create(&sealed_path(&dir, 1)).unwrap();
        writer
            .section(
                SectionKind::HistogramArena,
                "histograms",
                &sections::encode_histogram_arena(4, &corpus()),
            )
            .unwrap();
        writer
            .section(
                SectionKind::IdMap,
                "external-ids",
                &sections::encode_id_map(&swapped),
            )
            .unwrap();
        writer.finish().unwrap();
        let mut wal = WalWriter::create(&wal_path(&dir, 1)).unwrap();
        wal.append(&WalRecord::CompactEpoch {
            epoch: 1,
            next_external: 5,
            external_ids: swapped,
        })
        .unwrap();
        wal.sync().unwrap();
        write_checkpoint(&dir, 1).unwrap();
        let error = DurableIndex::open(&dir).expect_err("unsorted sealed ids");
        assert!(
            matches!(error, DurableError::Store(StoreError::Invalid { .. })),
            "got {error}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_malformations_are_typed() {
        let dir = tmp_dir("bad-checkpoint");
        fresh(&dir);
        for bad in [
            "",
            "flexemd-durable/v1",
            "other/v1 0",
            "flexemd-durable/v1 x",
        ] {
            std::fs::write(dir.join(CHECKPOINT_FILE), bad).unwrap();
            let error = DurableIndex::open(&dir).expect_err("bad checkpoint");
            assert!(
                matches!(error, DurableError::Store(StoreError::Manifest { .. })),
                "`{bad}` gave {error}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
