//! The one on-disk index format, and the one live index over it:
//! [`DurableIndex`], sealed segments + WAL tail. Whether
//! `Database::save` (`flexemd ingest` into a new directory) wrote a
//! directory or a [`DurableIndex`] (`flexemd ingest` into an existing
//! one, `serve --writable`) grew it, it looks like this:
//!
//! ```text
//! <dir>/
//!   CURRENT             the checkpoint: "flexemd-durable/v1 <epoch>"
//!   LOCK                advisory exclusive lock (held by a writer)
//!   base.seg            cost matrix C + reductions R1/R2 (+ index name)
//!   sealed-<epoch>.seg  histogram arena + id map (+ clustering)
//!   wal-<epoch>.log     every mutation since the sealed segment
//! ```
//!
//! Only what cannot be derived is stored: the reduced cost matrix `C'`
//! (Definition 5) and every object's reduced vector and anchor
//! projection are recomputed on open, so the paper's KNOP guarantee
//! (`LB ≤ Red-EMD ≤ EMD`) holds across restarts bit-for-bit.
//!
//! * **One writer.** Objects reach a sealed segment only through the
//!   compaction writer: seal the live histograms with their ids, start
//!   the epoch's WAL with a [`WalRecord::CompactEpoch`] record (the id
//!   allocator's watermark), flip the checkpoint via
//!   write-temp + fsync + atomic rename. A bulk load writes `base.seg`
//!   and then epoch 1 through it, so a bulk load and a fresh index that
//!   appended, synced and compacted the same corpus write the same
//!   checkpoint, sealed segment and WAL; only a bulk load writes a
//!   clustering. A crash reopens the
//!   old epoch or the new one, never a mixture (a killed bulk load
//!   leaves no checkpoint); orphans are swept on the next writable open.
//!   A writer that starts a directory refuses one holding an index.
//! * **One reader:** checkpoint → base → sealed → WAL replay, shared by
//!   `Database::open` (read-only: no lock, no write, not even to
//!   truncate a torn tail) and [`DurableIndex::open`].
//! * **One way to write:** [`DurableIndex::append_insert`] /
//!   [`DurableIndex::append_remove`] log a [`WalRecord`] and then apply
//!   it in memory; durability is claimed only after an explicit
//!   [`DurableIndex::sync`] — the server acknowledges an insert exactly
//!   then, never earlier.
//! * **One id space:** a `u64` per object, allocated monotonically in
//!   append order, never reused, untouched by compaction. Compaction
//!   keeps that order, so position -> id is one ascending `Vec<u64>` and
//!   id -> position a binary search on it; a storage position never
//!   leaves this module. (The WAL and segment formats call the ids
//!   *external*.)
//! * **Single owner**: every writer holds an advisory exclusive lock on
//!   `<dir>/LOCK`; a second one fails with a typed
//!   [`DurableError::Locked`]. The OS releases the lock when its owner
//!   dies, so a crash never leaves a stale lock behind.
//!
//! **Filter state.** The chain's one owner of derived state
//! (`filters::ChainState`, as in the static and clustered plans) is built
//! when the index is created or opened. It derives each object's state —
//! its `R2` vector, its anchor projection — once, at insert or replay,
//! and the index keeps it in the object's slot beside its histogram. A
//! removal tombstones the slot; [`DurableIndex::compact`] reclaims it.
//!
//! **Snapshots.** A [`Histogram`] is an immutable shared handle, so a
//! [`DurableSnapshot`] is a [`Database`] of the live handles (a
//! reference-count bump per object, nothing copied) under the stages of
//! [`QueryPlan::chain`], run by the shared engine [`Executor`]. No later
//! write or compaction reaches it, which is how `flexemd serve` lets
//! readers run against a frozen view while the single writer applies
//! inserts. The executor's dense ids (the live objects, in ascending id
//! order) exist only inside one snapshot, which translates them back on
//! the way out.
//!
//! **The file formats** are this module's private business:
//!
//! * `segment` — the binary container of `base.seg` and
//!   `sealed-<epoch>.seg`: magic, version, typed sections, per-section
//!   CRC32 (`crc32`).
//! * `sections` — typed payload codecs that decode **through the engine
//!   constructors**, so stored data re-passes histogram mass
//!   normalization, cost-matrix and Definition 3 validation on open.
//! * `wal` — the append-only, checksummed mutation log.
//!
//! **Corruption is a typed error, never a wrong answer.** Truncation, bit
//! flips, version skew, missing sections and cross-section disagreement
//! each map to a typed [`DurableError`] on the open path. When an obs
//! recording is active, segment and WAL reads add to the
//! `store.bytes_read` / `store.sections_verified` counters.

mod crc32;
mod sections;
mod segment;
mod wal;

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use emd_core::{CostMatrix, Histogram};
use emd_faultkit::{Fault, FaultInjector, NoFaults, Site};
use emd_reduction::{PersistedReduction, ReducedEmd};

use crate::engine::{Database, Executor, Query, QueryPlan};
use crate::error::{DurableError, QueryError};
use crate::filters::{ChainState, EmdDistance, ObjectState};
use crate::outcome::QueryOutcome;
use crate::stats::QueryStats;
use crate::Neighbor;

pub use sections::StoredClustering;
use segment::{SectionKind, SegmentReader, SegmentWriter};
use wal::WalWriter;
pub use wal::{TornTail, WalRecord, WalReplay};

/// Schema tag written as the first token of the `CURRENT` checkpoint.
pub const CHECKPOINT_SCHEMA: &str = "flexemd-durable/v1";

/// File name of the checkpoint.
pub const CHECKPOINT_FILE: &str = "CURRENT";

/// File name of the base segment (cost matrix + reductions).
const BASE_SEGMENT: &str = "base.seg";

/// File name of the advisory directory lock.
const LOCK_FILE: &str = "LOCK";

/// The manifest of the retired `flexemd-store/v1` format, which kept a
/// static index in `index.json` + `database.seg` + `reduction-N.seg`.
const RETIRED_MANIFEST: &str = "index.json";

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
fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
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
/// [`DurableError::Locked`].
fn lock_dir(dir: &Path) -> Result<File, DurableError> {
    let path = dir.join(LOCK_FILE);
    let file = File::options()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| DurableError::io(&path, e))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(DurableError::Locked { path }),
        Err(std::fs::TryLockError::Error(e)) => Err(DurableError::io(&path, e)),
    }
}

/// The typed refusal of a directory in the retired `flexemd-store/v1`
/// format.
fn retired_format(dir: &Path) -> DurableError {
    DurableError::Checkpoint {
        path: dir.join(RETIRED_MANIFEST),
        reason: "this is a flexemd-store/v1 index, which this build no longer reads: \
                 rebuild it with `flexemd ingest` into a new directory"
            .to_owned(),
    }
}

/// The typed error of a directory whose checkpoint cannot be read
/// (`error`): the retired format's when it holds one, else the IO error
/// on `CURRENT`.
fn no_checkpoint(dir: &Path, error: std::io::Error) -> DurableError {
    if dir.join(RETIRED_MANIFEST).exists() {
        retired_format(dir)
    } else {
        DurableError::io(dir.join(CHECKPOINT_FILE), error)
    }
}

/// Refuse a directory that already holds an index: a writer that
/// starts a directory never destroys the objects in one.
fn refuse_existing_index(dir: &Path) -> Result<(), DurableError> {
    if dir.join(RETIRED_MANIFEST).exists() {
        return Err(retired_format(dir));
    }
    let path = dir.join(CHECKPOINT_FILE);
    if path.exists() {
        return Err(DurableError::io(
            path,
            std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "the directory already holds an index: a new one needs a directory of its own",
            ),
        ));
    }
    Ok(())
}

/// The checkpoint's one line.
fn checkpoint_line(epoch: u64) -> String {
    format!("{CHECKPOINT_SCHEMA} {epoch}\n")
}

/// Write the checkpoint atomically: temp file, fsync, rename, then fsync
/// the directory so the rename survives power loss.
fn write_checkpoint(dir: &Path, epoch: u64) -> Result<(), DurableError> {
    let tmp = dir.join("CURRENT.tmp");
    let final_path = dir.join(CHECKPOINT_FILE);
    std::fs::write(&tmp, checkpoint_line(epoch)).map_err(|e| DurableError::io(&tmp, e))?;
    let sync = |path: &Path| File::open(path).and_then(|handle| handle.sync_all());
    sync(&tmp).map_err(|e| DurableError::io(&tmp, e))?;
    std::fs::rename(&tmp, &final_path).map_err(|e| DurableError::io(&final_path, e))?;
    sync(dir).map_err(|e| DurableError::io(dir, e))
}

/// Read the checkpoint, probing `faults` first like every file read of
/// the open path. Anything but the exact line the writer writes is a
/// typed [`DurableError::Checkpoint`], so no byte flip or truncation of
/// `CURRENT` names an epoch.
///
/// # Errors
///
/// [`DurableError::Io`] when `CURRENT` cannot be read (or a read fault is
/// injected), [`DurableError::Checkpoint`] when it is not
/// `flexemd-durable/v1 <epoch>` or the directory holds a retired
/// `flexemd-store/v1` index.
pub fn read_checkpoint(dir: &Path, faults: &dyn FaultInjector) -> Result<u64, DurableError> {
    let path = dir.join(CHECKPOINT_FILE);
    if let Some(Fault::Io) = faults.check(Site::StoreRead) {
        return Err(DurableError::injected(&path, "read"));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| no_checkpoint(dir, e))?;
    text.strip_prefix(CHECKPOINT_SCHEMA)
        .and_then(|rest| rest.trim().parse().ok())
        .filter(|&epoch| checkpoint_line(epoch) == text)
        .ok_or_else(|| DurableError::Checkpoint {
            path,
            reason: format!("expected the line `{CHECKPOINT_SCHEMA} <epoch>`, found {text:?}"),
        })
}

/// Replay epoch `epoch`'s WAL of `dir` read-only, as the one reader
/// does (a torn tail is reported, not truncated): the file it read and
/// what it holds. `flexemd wal-inspect` prints it.
///
/// # Errors
///
/// [`DurableError::Io`] when the log cannot be read, and the typed
/// damage of a log that does not replay (mid-file checksum mismatch,
/// bad magic, version skew, an undecodable record).
pub fn replay_wal(dir: &Path, epoch: u64) -> Result<(PathBuf, WalReplay), DurableError> {
    let path = wal_path(dir, epoch);
    let replay = wal::replay_with(&path, &NoFaults)?;
    Ok((path, replay))
}

/// Write `base.seg`: the cost matrix, both reductions and, when not
/// empty, the index name.
fn write_base(
    dir: &Path,
    cost: &CostMatrix,
    reduced: &ReducedEmd,
    name: &str,
) -> Result<(), DurableError> {
    let mut writer = SegmentWriter::create(&dir.join(BASE_SEGMENT))?;
    let cost = sections::encode_cost_matrix(cost);
    writer.section(SectionKind::CostMatrix, "cost", &cost)?;
    for (role, reduction) in [("r1", reduced.r1()), ("r2", reduced.r2())] {
        let payload = sections::encode_reduction(reduction);
        writer.section(SectionKind::Reduction, role, &payload)?;
    }
    if !name.is_empty() {
        writer.section(SectionKind::Text, "name", name.as_bytes())?;
    }
    writer.finish()
}

/// The compaction writer, the one way objects reach a sealed segment:
/// seal `histograms` under their ascending `ids` (plus a bulk load's
/// `clustering`) as `epoch`, start the epoch's WAL with the
/// compact-epoch record, and flip the checkpoint. Returns the new WAL,
/// open for appends.
fn write_epoch(
    dir: &Path,
    epoch: u64,
    histograms: &[Histogram],
    ids: &[u64],
    next_id: u64,
    clustering: Option<&StoredClustering>,
    faults: Arc<dyn FaultInjector>,
) -> Result<WalWriter, DurableError> {
    let dim = histograms.first().map_or(0, Histogram::dim);
    let arena = sections::encode_histogram_arena(dim, histograms);
    let mut writer = SegmentWriter::create(&sealed_path(dir, epoch))?;
    writer.section(SectionKind::HistogramArena, "histograms", &arena)?;
    let id_map = sections::encode_id_map(ids);
    writer.section(SectionKind::IdMap, "external-ids", &id_map)?;
    if let Some(clustering) = clustering {
        let payload = sections::encode_clustering(clustering);
        writer.section(SectionKind::Clustering, "clustering", &payload)?;
    }
    writer.finish()?;
    let mut walw = WalWriter::create_with(&wal_path(dir, epoch), faults)?;
    walw.append(&WalRecord::CompactEpoch {
        epoch,
        next_external: next_id,
    })?;
    walw.sync()?;
    write_checkpoint(dir, epoch)?;
    Ok(walw)
}

/// Bulk-load `histograms` (ids `0..n`) into a new index directory:
/// `base.seg`, then epoch 1 through the compaction writer.
pub(crate) fn bulk_load(
    dir: &Path,
    name: &str,
    histograms: &[Histogram],
    cost: &CostMatrix,
    reduced: &ReducedEmd,
    clustering: Option<&StoredClustering>,
) -> Result<(), DurableError> {
    let _span = emd_obs::span("store.save");
    std::fs::create_dir_all(dir).map_err(|e| DurableError::io(dir, e))?;
    let _lock = lock_dir(dir)?;
    refuse_existing_index(dir)?;
    write_base(dir, cost, reduced, name)?;
    let ids: Vec<u64> = (0..).take(histograms.len()).collect();
    let next_id = ids.last().map_or(0, |last| last + 1);
    write_epoch(
        dir,
        1,
        histograms,
        &ids,
        next_id,
        clustering,
        Arc::new(NoFaults),
    )?;
    Ok(())
}

/// What the one reader found: the live objects in ascending id order,
/// and what the filter step derives from them.
#[derive(Debug)]
pub(crate) struct Stored {
    /// The epoch the checkpoint names.
    pub(crate) epoch: u64,
    /// The name `base.seg` records; empty when none was recorded.
    pub(crate) name: String,
    pub(crate) cost: Arc<CostMatrix>,
    /// `R1`/`R2` with the derived `C'`, and the live objects' derived
    /// reduced arena.
    pub(crate) bundle: PersistedReduction,
    pub(crate) histograms: Vec<Histogram>,
    pub(crate) ids: Vec<u64>,
    /// The id allocator's watermark.
    pub(crate) next_id: u64,
    /// The sealed clustering, while it covers every live object: no WAL
    /// record follows the compact-epoch one.
    pub(crate) clustering: Option<StoredClustering>,
    pub(crate) sealed_objects: usize,
    /// The WAL's valid prefix; a writable open truncates the log to it.
    pub(crate) replay: WalReplay,
}

/// The one reader: checkpoint → base → sealed → WAL replay, probing
/// `faults` before each file read. It takes no lock and writes nothing.
pub(crate) fn read(dir: &Path, faults: &dyn FaultInjector) -> Result<Stored, DurableError> {
    let epoch = read_checkpoint(dir, faults)?;
    let base = SegmentReader::open_with(&dir.join(BASE_SEGMENT), faults)?;
    base.allow_only(&["cost", "r1", "r2", "name"])?;
    let payload = |kind, role| base.typed_section(kind, role);
    let (path, cost_matrix) = (base.path(), SectionKind::CostMatrix);
    let decode = emd_obs::span("store.decode");
    let cost = sections::decode_cost_matrix(path, "cost", payload(cost_matrix, "cost")?)?;
    let r1 = sections::decode_reduction(path, "r1", payload(SectionKind::Reduction, "r1")?)?;
    let r2 = sections::decode_reduction(path, "r2", payload(SectionKind::Reduction, "r2")?)?;
    let name = match base.maybe_section(SectionKind::Text, "name")? {
        Some(payload) => std::str::from_utf8(payload)
            .map_err(|_| DurableError::invalid(path, "name", "not UTF-8"))?
            .to_owned(),
        None => String::new(),
    };
    drop(decode);
    let derive = emd_obs::span("store.derive");
    let reduced = ReducedEmd::with_asymmetric(&cost, r1, r2)
        .map_err(|e| DurableError::invalid(path, "r2", e.to_string()))?;
    drop(derive);
    let (sealed, mut ids, clustering) = match epoch {
        0 => (Vec::new(), Vec::new(), None),
        _ => read_sealed(&sealed_path(dir, epoch), faults)?,
    };

    let wal_file = wal_path(dir, epoch);
    let replay = wal::replay_with(&wal_file, faults)?;
    let invalid_wal = |reason: String| DurableError::invalid(&wal_file, "wal", reason);
    let mut records = replay.records.iter().map(|(_lsn, record)| record);
    let mut next_id = 0;
    if epoch > 0 {
        // The compact-epoch record is fsynced before the checkpoint ever
        // names its epoch, so a sealed epoch's WAL without one is real
        // damage, not a survivable torn tail.
        let Some(WalRecord::CompactEpoch {
            epoch: sealed_epoch,
            next_external,
        }) = records.next()
        else {
            return Err(invalid_wal(
                "post-compaction WAL must start with a compact-epoch record".to_owned(),
            ));
        };
        let agrees = *sealed_epoch == epoch && ids.last().is_none_or(|last| next_external > last);
        if !agrees {
            return Err(invalid_wal(format!(
                "compact-epoch record (epoch {sealed_epoch}, next id {next_external}) disagrees \
                 with the checkpoint (epoch {epoch}) or the sealed segment's ids"
            )));
        }
        next_id = *next_external;
    }
    let sealed_objects = sealed.len();
    let clustering = clustering.filter(|_| records.len() == 0);
    let mut objects: Vec<Option<Histogram>> = sealed.into_iter().map(Some).collect();
    for record in records {
        match record {
            WalRecord::CompactEpoch { .. } => {
                return Err(invalid_wal("misplaced compact-epoch record".to_owned()));
            }
            WalRecord::Insert {
                external_id,
                histogram,
            } => {
                if *external_id != next_id {
                    return Err(invalid_wal(format!(
                        "insert carries external id {external_id}, expected {next_id}"
                    )));
                }
                ids.push(next_id);
                objects.push(Some(histogram.clone()));
                next_id += 1;
            }
            WalRecord::Remove { external_id } => {
                let live = ids
                    .binary_search(external_id)
                    .ok()
                    .and_then(|position| objects.get_mut(position))
                    .and_then(Option::take);
                if live.is_none() {
                    return Err(invalid_wal(format!(
                        "remove of unknown external id {external_id}"
                    )));
                }
            }
        }
    }
    let (ids, histograms): (Vec<u64>, Vec<Histogram>) = ids
        .into_iter()
        .zip(objects)
        .filter_map(|(id, object)| Some((id, object?)))
        .unzip();
    // Every live histogram must match the cost matrix, which `R2` was
    // just checked against.
    let bundle = {
        let _span = emd_obs::span("store.derive");
        PersistedReduction::precompute(name.clone(), reduced, &histograms)
            .map_err(|e| DurableError::invalid(dir, "histograms", e.to_string()))?
    };
    Ok(Stored {
        epoch,
        name,
        cost: Arc::new(cost),
        bundle,
        histograms,
        ids,
        next_id,
        clustering,
        sealed_objects,
        replay,
    })
}

/// One object of a [`DurableIndex`]: its histogram and what the filter
/// stages derive from it, once.
#[derive(Debug)]
struct Object {
    histogram: Histogram,
    state: ObjectState,
}

/// The live index over one directory: WAL-backed and crash-safe, with
/// the filter state of every object kept in step with each write.
///
/// ```
/// use emd_core::{ground, Histogram};
/// use emd_query::DurableIndex;
/// use emd_reduction::{CombiningReduction, ReducedEmd};
/// use std::sync::Arc;
///
/// let dir = std::env::temp_dir().join(format!("durable-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let cost = Arc::new(ground::linear(4)?);
/// let reduced = ReducedEmd::new(&cost, CombiningReduction::new(vec![0, 0, 1, 1], 2)?)?;
/// let mut index = DurableIndex::create(&dir, cost, reduced)?;
///
/// let a = index.append_insert(Histogram::new(vec![1.0, 0.0, 0.0, 0.0])?)?;
/// let b = index.append_insert(Histogram::new(vec![0.0, 0.0, 0.0, 1.0])?)?;
/// index.sync()?; // both inserts are durable from here on
/// let query = Histogram::new(vec![0.9, 0.1, 0.0, 0.0])?;
/// // Queries run on a snapshot: take one, ask it as often as you like.
/// let (nearest, _) = index.snapshot()?.knn(&query, 1)?;
/// assert_eq!(nearest[0].0, a);
///
/// index.append_remove(a)?;
/// index.compact()?; // reclaims a's storage; b is still b
/// let (nearest, _) = index.snapshot()?.knn(&query, 1)?;
/// assert_eq!(nearest[0].0, b);
/// # drop(index);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DurableIndex {
    dir: PathBuf,
    /// The name `base.seg` records; empty when none was recorded.
    name: String,
    cost: Arc<CostMatrix>,
    /// What the chain's stages derive, per index and per object.
    chain: ChainState,
    /// Position -> id, strictly ascending; every entry is `< next_id`.
    ids: Vec<u64>,
    /// One slot per position; `None` marks a removed object.
    objects: Vec<Option<Object>>,
    next_id: u64,
    live: usize,
    epoch: u64,
    walw: WalWriter,
    faults: Arc<dyn FaultInjector>,
    /// Advisory exclusive lock on the directory; held (and declared
    /// last, so it drops last) for the index's whole lifetime.
    _lock: File,
}

impl DurableIndex {
    /// Create a fresh durable index at `dir` (created if missing; one
    /// that already holds an index is refused): writes `base.seg`, an
    /// empty `wal-0.log`, and the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Query`] when the reduction disagrees with
    /// `cost`, and [`DurableError::Io`] when any file cannot be
    /// written or synced — including [`DurableError::Locked`] when another
    /// live handle already owns the directory — or the directory already
    /// holds an index.
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
        if reduced.r2().original_dim() != cost.cols() {
            return Err(QueryError::Reduction(format!(
                "reduction covers {} dimensions, cost matrix {}",
                reduced.r2().original_dim(),
                cost.cols()
            ))
            .into());
        }
        std::fs::create_dir_all(dir).map_err(|e| DurableError::io(dir, e))?;
        let lock = lock_dir(dir)?;
        refuse_existing_index(dir)?;
        write_base(dir, &cost, &reduced, "")?;
        let walw = WalWriter::create_with(&wal_path(dir, 0), Arc::clone(&faults))?;
        write_checkpoint(dir, 0)?;
        Ok(Self::empty(
            dir,
            String::new(),
            cost,
            reduced,
            walw,
            faults,
            lock,
        ))
    }

    /// An index over `dir` holding no object yet, at epoch 0, with the
    /// per-index filter state derived from `cost` and `reduced`.
    fn empty(
        dir: &Path,
        name: String,
        cost: Arc<CostMatrix>,
        reduced: ReducedEmd,
        walw: WalWriter,
        faults: Arc<dyn FaultInjector>,
        lock: File,
    ) -> Self {
        DurableIndex {
            dir: dir.to_path_buf(),
            name,
            chain: ChainState::new(&cost, reduced),
            cost,
            ids: Vec::new(),
            objects: Vec::new(),
            next_id: 0,
            live: 0,
            epoch: 0,
            walw,
            faults,
            _lock: lock,
        }
    }

    /// Open an existing durable index, replaying its WAL over the sealed
    /// segment. A reported torn tail has already been truncated away;
    /// everything else about the open is fail-closed.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DurableError`] for every form of on-disk damage
    /// (missing files, checksum mismatches, mid-file corruption, records
    /// that contradict the sealed segment) or when another live handle
    /// owns the directory ([`DurableError::Locked`]), and
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
        // A directory without a checkpoint holds no index: refuse it with
        // the reader's error before the lock file is created in it (a
        // metadata check, so no read fault is probed).
        std::fs::metadata(dir.join(CHECKPOINT_FILE)).map_err(|e| no_checkpoint(dir, e))?;
        // Own the directory before reading anything: replay truncates
        // torn tails and open sweeps orphans, neither of which may race
        // a concurrent owner.
        let lock = lock_dir(dir)?;
        let stored = read(dir, faults.as_ref())?;
        let report = OpenReport {
            epoch: stored.epoch,
            sealed_objects: stored.sealed_objects,
            replayed_records: stored.replay.records.len(),
            torn_tail: stored.replay.torn_tail.clone(),
        };
        let wal_file = wal_path(dir, stored.epoch);
        let walw = WalWriter::open_for_append(&wal_file, &stored.replay, Arc::clone(&faults))?;
        let (_, reduced, arena) = stored.bundle.into_parts();
        let mut index = Self::empty(dir, stored.name, stored.cost, reduced, walw, faults, lock);
        index.epoch = stored.epoch;
        // The reader hands back strictly ascending ids below its watermark
        // (the id lookup leans on both) and the derived reduced arena.
        let objects = stored.histograms.into_iter().zip(arena).zip(stored.ids);
        for ((histogram, reduced), id) in objects {
            let state = index.chain.object(&histogram, Some(reduced))?;
            index.push(id, Object { histogram, state });
        }
        index.next_id = stored.next_id;
        index.sweep_orphans();
        Ok((index, report))
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
        &self.cost
    }

    /// The name `base.seg` records (a bulk load names its corpus);
    /// empty when none was recorded.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Live object count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live objects remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The compaction epoch currently on disk.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
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
    /// [`DurableError::Io`] when the WAL append fails — the in-memory
    /// index is only touched after the append succeeds, so a failure
    /// changes nothing and consumes no id.
    pub fn append_insert(&mut self, histogram: Histogram) -> Result<u64, DurableError> {
        if histogram.dim() != self.cost.cols() {
            return Err(QueryError::Core(emd_core::CoreError::DimensionMismatch {
                expected_rows: self.cost.rows(),
                expected_cols: self.cost.cols(),
                got_rows: histogram.dim(),
                got_cols: histogram.dim(),
            })
            .into());
        }
        let object = Object {
            state: self.chain.object(&histogram, None)?,
            histogram,
        };
        let id = self.next_id;
        self.walw.append(&WalRecord::Insert {
            external_id: id,
            histogram: object.histogram.clone(),
        })?;
        self.push(id, object);
        Ok(id)
    }

    /// Store `object` under `id`, above every id stored so far.
    fn push(&mut self, id: u64, object: Object) {
        self.objects.push(Some(object));
        self.ids.push(id);
        self.next_id = id + 1;
        self.live += 1;
    }

    /// The storage position of a live object.
    fn position(&self, id: u64) -> Option<usize> {
        let position = self.ids.binary_search(&id).ok()?;
        self.objects.get(position)?.as_ref().map(|_| position)
    }

    /// Append a remove to the WAL and apply it in memory. Returns `false`
    /// (logging nothing) when the id names no live object. Like
    /// [`DurableIndex::append_insert`], durable only after
    /// [`DurableIndex::sync`].
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Io`] when the WAL append fails; the
    /// in-memory state is untouched in that case.
    pub fn append_remove(&mut self, external_id: u64) -> Result<bool, DurableError> {
        let Some(position) = self.position(external_id) else {
            return Ok(false);
        };
        self.walw.append(&WalRecord::Remove { external_id })?;
        if let Some(slot) = self.objects.get_mut(position) {
            *slot = None;
        }
        self.live -= 1;
        Ok(true)
    }

    /// Fetch a live object by id.
    #[must_use]
    pub fn get(&self, external_id: u64) -> Option<&Histogram> {
        let object = self.objects.get(self.position(external_id)?)?.as_ref();
        object.map(|object| &object.histogram)
    }

    /// Make every appended record durable (fsync). The explicit point
    /// after which appends may be acknowledged. After a failure the
    /// durability of the unsynced records is *unknown* (they may still
    /// reach disk); reopening the directory recovers the authoritative
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Io`] on flush/fsync failure (real or
    /// injected at `Site::WalSync`).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.walw.sync()?;
        Ok(())
    }

    /// Fold the WAL into a new sealed segment and start a fresh log,
    /// through the one writer a bulk load uses too.
    ///
    /// Steps, in crash-safe order: reclaim the tombstoned slots in memory
    /// (ids are unaffected), write `sealed-<epoch+1>.seg`, create
    /// `wal-<epoch+1>.log` whose first record is the
    /// [`WalRecord::CompactEpoch`] watermark, flip the checkpoint
    /// atomically, then retire the old epoch's files. A crash before the
    /// checkpoint flip reopens the old epoch; after it, the new one —
    /// never a mixture. Outstanding snapshots are unaffected (they hold
    /// their own handles to the immutable histograms).
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Io`] when sealing, logging or the
    /// checkpoint flip fails (real or injected at `Site::Compact`). The
    /// in-memory index stays consistent and the old epoch stays intact.
    pub fn compact(&mut self) -> Result<CompactReport, DurableError> {
        let _span = emd_obs::span("durable.compact");
        if let Some(Fault::Io) = self.faults.check(Site::Compact) {
            let path = sealed_path(&self.dir, self.epoch + 1);
            return Err(DurableError::injected(path, "compaction"));
        }
        let new_epoch = self.epoch + 1;
        // Reclaim in memory first; ids are unaffected, so a failure below
        // leaves a fully consistent (just un-sealed) index.
        self.ids = self.live().map(|(id, _)| id).collect();
        self.objects.retain(Option::is_some);
        let histograms: Vec<Histogram> = self.live().map(|(_, o)| o.histogram.clone()).collect();
        let old_wal = wal_path(&self.dir, self.epoch);
        let folded_wal_bytes = std::fs::metadata(&old_wal).map_or(0, |m| m.len());
        let new_wal = write_epoch(
            &self.dir,
            new_epoch,
            &histograms,
            &self.ids,
            self.next_id,
            None,
            Arc::clone(&self.faults),
        )?;

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
            sealed_objects: self.live,
            folded_wal_bytes,
        })
    }

    /// The live objects with their ids, in ascending id order.
    fn live(&self) -> impl Iterator<Item = (u64, &Object)> {
        let slots = self.ids.iter().zip(&self.objects);
        slots.filter_map(|(&id, slot)| Some((id, slot.as_ref()?)))
    }

    /// An immutable, queryable snapshot of the live objects: a
    /// [`Database`] of their handles under the stages of
    /// [`QueryPlan::chain`]. Every query of the index runs on one.
    ///
    /// O(live) reference-count bumps — take one and run many queries on
    /// it — and no histogram, reduced vector or anchor projection copied;
    /// later writes and compactions leave the snapshot untouched.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Query`] ([`QueryError::EmptyDatabase`])
    /// when no live objects remain.
    pub fn snapshot(&self) -> Result<DurableSnapshot, DurableError> {
        if self.live == 0 {
            return Err(QueryError::EmptyDatabase.into());
        }
        let histograms = self.live().map(|(_, o)| o.histogram.clone()).collect();
        let database = Database::new(histograms, Arc::clone(&self.cost))?;
        let state =
            |(_, o): (u64, &Object)| (o.state.reduced.clone(), Arc::clone(&o.state.projection));
        let (arena, projections): (Vec<_>, Vec<_>) = self.live().map(state).unzip();
        let stages = self.chain.stages(arena.into(), projections.into());
        let plan = QueryPlan::new(stages, Box::new(EmdDistance::new(&database)?))?;
        Ok(DurableSnapshot {
            executor: Executor::new(plan),
            ids: self.live().map(|(id, _)| id).collect(),
            database,
        })
    }
}

/// An immutable view of a [`DurableIndex`] at snapshot time: queries run
/// through the shared [`Executor`] against the live objects and answer
/// in the index's ids. Unaffected by later writes and compactions.
#[derive(Debug)]
pub struct DurableSnapshot {
    executor: Executor,
    /// Dense (executor) id -> id, ascending.
    ids: Vec<u64>,
    /// The live objects, by dense id.
    database: Database,
}

impl DurableSnapshot {
    /// Number of live objects captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the snapshot is empty (never true: empty indexes refuse to
    /// snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Fetch an object that was live when the snapshot was taken.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&Histogram> {
        self.database.get(self.ids.binary_search(&id).ok()?)
    }

    /// The underlying executor, for its plan and statistics. Its answers
    /// are in dense ids private to this snapshot; [`run`](Self::run) and
    /// [`run_isolated`](Self::run_isolated) answer in the index's ids.
    #[must_use]
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Run one [`Query`] under the budget it carries, answering in the
    /// index's ids (exact neighbors and degraded candidates alike).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] under the same conditions as
    /// [`Executor::run`], and [`QueryError::UnknownObject`] for an id
    /// that does not fit the outcome's `usize`.
    pub fn run(&self, query: &Query) -> Result<(QueryOutcome, QueryStats), QueryError> {
        let (outcome, stats) = self.executor.run(query)?;
        Ok((self.in_ids(outcome)?, stats))
    }

    /// [`run`](Self::run) with panic isolation — the server's entry
    /// point; see [`Executor::run_isolated`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run) and
    /// [`Executor::run_isolated`].
    pub fn run_isolated(
        &self,
        query: &Query,
        worker: usize,
    ) -> Result<(QueryOutcome, QueryStats), QueryError> {
        let (outcome, stats) = self.executor.run_isolated(query, worker)?;
        Ok((self.in_ids(outcome)?, stats))
    }

    /// Exact k-NN as `(id, distance)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] under the same conditions as
    /// [`Executor::knn`].
    // lint: allow(unbudgeted): sugar over Executor::knn with Budget::unlimited().
    pub fn knn(
        &self,
        query: &Histogram,
        k: usize,
    ) -> Result<(Vec<(u64, f64)>, QueryStats), QueryError> {
        let (neighbors, stats) = self.executor.knn(query, k)?;
        Ok((self.in_pairs(neighbors)?, stats))
    }

    /// Exact range query as `(id, distance)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] under the same conditions as
    /// [`Executor::range`].
    // lint: allow(unbudgeted): sugar over Executor::range with Budget::unlimited().
    pub fn range(
        &self,
        query: &Histogram,
        epsilon: f64,
    ) -> Result<(Vec<(u64, f64)>, QueryStats), QueryError> {
        let (neighbors, stats) = self.executor.range(query, epsilon)?;
        Ok((self.in_pairs(neighbors)?, stats))
    }

    /// Rewrite an outcome's dense ids as the index's ids; one that does
    /// not fit the outcome's `usize` is an error, never a wrong id.
    fn in_ids(&self, outcome: QueryOutcome) -> Result<QueryOutcome, QueryError> {
        outcome.map_ids(|dense| usize::try_from(*self.ids.get(dense)?).ok())
    }

    /// Rewrite exact neighbors as `(id, distance)` pairs.
    fn in_pairs(&self, neighbors: Vec<Neighbor>) -> Result<Vec<(u64, f64)>, QueryError> {
        let id = |dense: usize| self.ids.get(dense).ok_or(QueryError::UnknownObject(dense));
        let pairs = neighbors.iter().map(|n| Ok((*id(n.id)?, n.distance)));
        pairs.collect()
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

/// A sealed segment's histograms, their ids and its clustering.
type Sealed = (Vec<Histogram>, Vec<u64>, Option<StoredClustering>);

/// Read a sealed segment: the histograms, position for position their
/// ids (strictly ascending — [`sections::decode_id_map`] rejects
/// anything else), and the clustering a bulk load may have written.
fn read_sealed(path: &Path, faults: &dyn FaultInjector) -> Result<Sealed, DurableError> {
    let sealed = SegmentReader::open_with(path, faults)?;
    sealed.allow_only(&["histograms", "external-ids", "clustering"])?;
    let _span = emd_obs::span("store.decode");
    let arena = sealed.typed_section(SectionKind::HistogramArena, "histograms")?;
    let (_, histograms) = sections::decode_histogram_arena(path, "histograms", arena)?;
    let id_map = sealed.typed_section(SectionKind::IdMap, "external-ids")?;
    let ids = sections::decode_id_map(path, "external-ids", id_map)?;
    if ids.len() != histograms.len() {
        return Err(DurableError::invalid(
            path,
            "external-ids",
            format!("{} ids for {} histograms", ids.len(), histograms.len()),
        ));
    }
    let clustering = sealed
        .maybe_section(SectionKind::Clustering, "clustering")?
        .map(|payload| sections::decode_clustering(path, "clustering", payload, histograms.len()))
        .transpose()?;
    Ok((histograms, ids, clustering))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{brute_force_knn, brute_force_range};
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
                index.append_insert(histogram).unwrap();
            }
            index.append_remove(1).unwrap();
            index.sync().unwrap();
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
            .map(|histogram| index.append_insert(histogram).unwrap())
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        index.append_remove(0).unwrap();
        index.append_remove(2).unwrap();
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
        let next_before = index.append_insert(h(&[0.5, 0.0, 0.0, 0.5])).unwrap();
        assert_eq!(next_before, 5, "allocator continues after compaction");
        index.sync().unwrap();
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
        let a = index.append_insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        index.append_remove(a).unwrap();
        index.compact().unwrap();
        drop(index);
        let (mut reopened, _) = DurableIndex::open(&dir).unwrap();
        let b = reopened.append_insert(h(&[0.0, 1.0, 0.0, 0.0])).unwrap();
        assert!(b > a, "external ids are never reused ({b} vs {a})");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_is_isolated_from_ingest_and_compaction() {
        let dir = tmp_dir("snapshot-iso");
        let mut index = fresh(&dir);
        for histogram in corpus() {
            index.append_insert(histogram).unwrap();
        }
        let query = h(&[0.9, 0.1, 0.0, 0.0]);
        let snapshot = index.snapshot().unwrap();
        let frozen = snapshot.knn(&query, 2).unwrap().0;

        index.append_remove(0).unwrap();
        index.append_insert(h(&[0.95, 0.05, 0.0, 0.0])).unwrap();
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
        index.append_insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        assert!(!index.append_remove(99).unwrap());
        index.sync().unwrap();
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
                index.append_insert(histogram).unwrap();
            }
            index.sync().unwrap();
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
        let id = reopened.append_insert(h(&[0.1, 0.2, 0.3, 0.4])).unwrap();
        assert_eq!(id, 4);
        reopened.sync().unwrap();
        drop(reopened);
        let (final_index, report) = DurableIndex::open(&dir).unwrap();
        assert!(report.torn_tail.is_none(), "tail was truncated on reopen");
        assert_eq!(final_index.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash can persist a file's new size before its data: the WAL
    /// then ends in zeros. Nothing verifiable follows the last record, so
    /// the zeros are a torn tail, truncated on open.
    #[test]
    fn zero_filled_wal_tail_is_a_torn_tail() {
        let dir = tmp_dir("zero-tail");
        {
            let mut index = fresh(&dir);
            for histogram in corpus() {
                index.append_insert(histogram).unwrap();
            }
            index.sync().unwrap();
        }
        let wal_file = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&wal_file).unwrap();
        let synced = bytes.len() as u64;
        bytes.resize(bytes.len() + 4096, 0);
        std::fs::write(&wal_file, &bytes).unwrap();

        let replay = wal::replay_with(&wal_file, &NoFaults).unwrap();
        assert_eq!(replay.records.len(), 5, "every synced record replays");
        let tail = replay.torn_tail.expect("the zeros are reported");
        assert_eq!((tail.offset, tail.discarded_bytes), (synced, 4096));

        let (mut reopened, report) = DurableIndex::open(&dir).unwrap();
        assert!(report.torn_tail.is_some(), "tear is reported");
        assert_eq!(reopened.len(), 5);
        assert_eq!(std::fs::metadata(&wal_file).unwrap().len(), synced);
        assert_eq!(reopened.append_insert(h(&[0.1, 0.2, 0.3, 0.4])).unwrap(), 5);
        reopened.sync().unwrap();
        drop(reopened);
        let (final_index, report) = DurableIndex::open(&dir).unwrap();
        assert!(report.torn_tail.is_none(), "tail was truncated on open");
        assert_eq!(final_index.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn midfile_wal_corruption_fails_typed() {
        let dir = tmp_dir("midfile");
        {
            let mut index = fresh(&dir);
            for histogram in corpus() {
                index.append_insert(histogram).unwrap();
            }
            index.sync().unwrap();
        }
        let wal_file = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&wal_file).unwrap();
        bytes[40] ^= 0x10; // inside the first record, valid records follow
        std::fs::write(&wal_file, &bytes).unwrap();
        let error = DurableIndex::open(&dir).expect_err("mid-file damage is fatal");
        assert!(
            matches!(error, DurableError::ChecksumMismatch { .. }),
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
        let first = index.append_insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let error = index
            .append_insert(h(&[0.0, 1.0, 0.0, 0.0]))
            .expect_err("second append injected");
        assert!(matches!(error, DurableError::Io { .. }));
        // The in-memory index is only touched after the append succeeds:
        // the failed insert consumed no id and no storage position.
        assert_eq!((index.len(), index.positions()), (1, 1));
        let second = index.append_insert(h(&[0.0, 0.0, 1.0, 0.0])).unwrap();
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
        assert!(matches!(error, DurableError::Locked { .. }), "got {error}");
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
            index.append_insert(histogram).unwrap();
        }
        index.append_remove(1).unwrap();
        let error = index.compact().expect_err("first compaction injected");
        assert!(matches!(error, DurableError::Io { .. }));
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
            index.append_insert(histogram).unwrap();
        }
        index.sync().unwrap();
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
        let mut orphan_wal =
            WalWriter::create_with(&wal_path(&dir, 1), Arc::new(NoFaults)).unwrap();
        orphan_wal
            .append(&WalRecord::CompactEpoch {
                epoch: 1,
                next_external: 5,
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
        let mut wal = WalWriter::create_with(&wal_path(&dir, 1), Arc::new(NoFaults)).unwrap();
        wal.append(&WalRecord::CompactEpoch {
            epoch: 1,
            next_external: 5,
        })
        .unwrap();
        wal.sync().unwrap();
        write_checkpoint(&dir, 1).unwrap();
        let error = DurableIndex::open(&dir).expect_err("unsorted sealed ids");
        assert!(matches!(error, DurableError::Invalid { .. }), "got {error}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_insert_of_another_dimensionality_fails_typed() {
        // The append path refuses a histogram the cost does not fit, so
        // no writer logs one; hand-write it. Its CRC holds: only the
        // reader's derivation of the reduced arena can refuse it.
        let dir = tmp_dir("wrong-dim-insert");
        drop(fresh(&dir));
        let mut wal = WalWriter::create_with(&wal_path(&dir, 0), Arc::new(NoFaults)).unwrap();
        let histogram = h(&[0.5, 0.5]);
        wal.append(&WalRecord::Insert {
            external_id: 0,
            histogram,
        })
        .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let histograms = |error: &DurableError| matches!(error, DurableError::Invalid { section, .. } if section == "histograms");
        let error = Database::open(&dir).expect_err("a 2-bin insert under a 4-bin cost");
        assert!(histograms(&error), "got {error}");
        let error = DurableIndex::open(&dir).expect_err("a 2-bin insert under a 4-bin cost");
        assert!(histograms(&error), "got {error}");
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
                matches!(error, DurableError::Checkpoint { .. }),
                "`{bad}` gave {error}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn bulk(dir: &Path, name: &str, clustering: Option<&StoredClustering>) {
        let cost = ground::linear(4).unwrap();
        bulk_load(dir, name, &corpus(), &cost, &reduced(&cost), clustering).unwrap();
    }

    #[test]
    fn a_version_1_log_is_version_skew_naming_the_wal() {
        // Version 1 repeated the sealed ids in the compact-epoch record;
        // this build must refuse such a log, not misread it.
        let dir = tmp_dir("wal-v1");
        bulk(&dir, "v1", None);
        let log = wal_path(&dir, 1);
        let mut bytes = std::fs::read(&log).unwrap();
        // The major version follows the 8-byte magic.
        bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
        std::fs::write(&log, &bytes).unwrap();
        let writable = DurableIndex::open(&dir).map(|_| ()).unwrap_err();
        let read_only = Database::open(&dir).map(|_| ()).unwrap_err();
        for error in [writable, read_only] {
            assert!(
                matches!(
                    error,
                    DurableError::VersionSkew {
                        major: 1,
                        minor: 0,
                        ..
                    }
                ),
                "{error}"
            );
            let text = error.to_string();
            assert!(
                text.contains("has WAL format v1.0; this build reads v2.x"),
                "{text}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bulk_load_writes_what_compaction_writes() {
        let loaded = tmp_dir("bulk-equal-a");
        bulk(&loaded, "", None);
        let ingested = tmp_dir("bulk-equal-b");
        let mut index = fresh(&ingested);
        for histogram in corpus() {
            index.append_insert(histogram).unwrap();
        }
        index.sync().unwrap();
        index.compact().unwrap();
        for file in ["CURRENT", "base.seg", "sealed-1.seg", "wal-1.log"] {
            let read = |dir: &Path| std::fs::read(dir.join(file)).unwrap();
            assert_eq!(read(&loaded), read(&ingested), "{file}");
        }
        assert!(!wal_path(&loaded, 0).exists());
        std::fs::remove_dir_all(&loaded).ok();
        std::fs::remove_dir_all(&ingested).ok();
    }

    #[test]
    fn writers_refuse_a_directory_holding_an_index() {
        let dir = tmp_dir("refuse");
        bulk(&dir, "demo", None);
        let before = std::fs::read(sealed_path(&dir, 1)).unwrap();
        let cost = Arc::new(ground::linear(4).unwrap());
        let again = bulk_load(&dir, "demo", &[], &cost, &reduced(&cost), None);
        assert!(matches!(again, Err(DurableError::Io { .. })), "{again:?}");
        let r = reduced(&cost);
        assert!(DurableIndex::create(&dir, cost, r).is_err());
        assert_eq!(std::fs::read(sealed_path(&dir, 1)).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_open_roundtrip_is_bit_identical() {
        let dir = tmp_dir("roundtrip");
        let cost = ground::linear(4).unwrap();
        let histograms = corpus();
        bulk_load(&dir, "demo", &histograms, &cost, &reduced(&cost), None).unwrap();

        let stored = read(&dir, &NoFaults).unwrap();
        assert_eq!(stored.name, "demo");
        assert_eq!(*stored.cost, cost);
        assert_eq!(stored.histograms.len(), histograms.len());
        for (a, b) in histograms.iter().zip(&stored.histograms) {
            for (x, y) in a.bins().iter().zip(b.bins()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let expected =
            PersistedReduction::precompute("demo".to_owned(), reduced(&cost), &histograms).unwrap();
        assert_eq!(stored.bundle.name(), "demo");
        let derived = stored.bundle.reduced_database();
        assert_eq!(derived.len(), expected.reduced_database().len());
        for (a, b) in expected.reduced_database().iter().zip(derived) {
            for (x, y) in a.bins().iter().zip(b.bins()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_is_io_error() {
        let dir = tmp_dir("no-checkpoint");
        assert!(matches!(
            read(&dir, &NoFaults),
            Err(DurableError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_format_is_a_typed_error_naming_it() {
        let dir = tmp_dir("retired");
        std::fs::write(dir.join(RETIRED_MANIFEST), "{}").unwrap();
        let error = read(&dir, &NoFaults).unwrap_err();
        assert!(matches!(error, DurableError::Checkpoint { .. }), "{error}");
        assert!(error.to_string().contains("flexemd-store/v1"), "{error}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_naming_a_missing_sealed_segment_fails() {
        let dir = tmp_dir("dangling");
        bulk(&dir, "demo", None);
        std::fs::remove_file(sealed_path(&dir, 1)).unwrap();
        assert!(matches!(
            read(&dir, &NoFaults),
            Err(DurableError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bulk_load_without_clustering_opens_with_none() {
        let dir = tmp_dir("unclustered");
        bulk(&dir, "demo", None);
        let stored = read(&dir, &NoFaults).unwrap();
        assert_eq!((stored.epoch, stored.name.as_str()), (1, "demo"));
        assert_eq!(stored.histograms, corpus());
        assert_eq!(stored.ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(stored.bundle.reduced_database().len(), 5);
        assert!(stored.clustering.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clustering_is_kept_only_while_it_covers_every_live_object() {
        let dir = tmp_dir("clustered");
        let clustering = StoredClustering {
            pivots: vec![0, 1],
            assignments: vec![0, 1, 1, 0, 1],
            radii: vec![0.5, 1.5],
        };
        bulk(&dir, "demo", Some(&clustering));
        assert_eq!(read(&dir, &NoFaults).unwrap().clustering, Some(clustering));
        let (mut index, _) = DurableIndex::open(&dir).unwrap();
        index.append_insert(h(&[0.5, 0.5, 0.0, 0.0])).unwrap();
        index.sync().unwrap();
        drop(index);
        let stored = read(&dir, &NoFaults).unwrap();
        assert_eq!((stored.histograms.len(), stored.clustering), (6, None));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clustering_object_count_mismatch_is_detected() {
        let dir = tmp_dir("clustered-mismatch");
        let clustering = StoredClustering {
            pivots: vec![0],
            assignments: vec![0, 0],
            radii: vec![0.5],
        };
        bulk(&dir, "demo", Some(&clustering));
        let error = read(&dir, &NoFaults).unwrap_err();
        assert!(matches!(error, DurableError::Invalid { .. }), "{error}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_database_roundtrips() {
        let dir = tmp_dir("empty");
        let cost = ground::linear(4).unwrap();
        bulk_load(&dir, "empty", &[], &cost, &reduced(&cost), None).unwrap();
        let stored = read(&dir, &NoFaults).unwrap();
        assert!(stored.histograms.is_empty());
        assert_eq!((stored.name.as_str(), stored.next_id), ("empty", 0));
        assert_eq!(*stored.cost, cost);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_reader_writes_nothing_not_even_a_torn_tail() {
        let dir = tmp_dir("read-only");
        {
            let mut index = fresh(&dir);
            for histogram in corpus() {
                index.append_insert(histogram).unwrap();
            }
            index.sync().unwrap();
        }
        let wal_file = wal_path(&dir, 0);
        let bytes = std::fs::read(&wal_file).unwrap();
        std::fs::write(&wal_file, &bytes[..bytes.len() - 5]).unwrap();
        let held = lock_dir(&dir).unwrap();
        let stored = read(&dir, &NoFaults).unwrap();
        drop(held);
        assert!(stored.replay.torn_tail.is_some());
        assert_eq!(stored.histograms.len(), 4, "the valid prefix replays");
        assert_eq!(std::fs::read(&wal_file).unwrap(), &bytes[..bytes.len() - 5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    impl DurableIndex {
        /// Storage positions in use, tombstones included.
        fn positions(&self) -> usize {
            self.ids.len()
        }
    }

    /// Distances rounded and sorted, so equal-distance results compare
    /// deterministically across implementations.
    fn canonical(distances: impl Iterator<Item = f64>) -> Vec<i64> {
        let mut rounded: Vec<i64> = distances.map(|d| (d * 1e9).round() as i64).collect();
        rounded.sort_unstable();
        rounded
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let dir = tmp_dir("roundtrip-in-memory");
        let mut index = fresh(&dir);
        let a = index.append_insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let b = index.append_insert(h(&[0.0, 0.0, 0.0, 1.0])).unwrap();
        let c = index.append_insert(h(&[0.5, 0.5, 0.0, 0.0])).unwrap();
        assert_eq!(index.len(), 3);

        let query = h(&[0.9, 0.1, 0.0, 0.0]);
        let (neighbors, stats) = index.snapshot().unwrap().knn(&query, 2).unwrap();
        assert_eq!(neighbors[0].0, a);
        assert_eq!(neighbors[1].0, c);
        assert_eq!(stats.filter_evaluations[0], ("anchor(a=2)".to_owned(), 3));
        assert_eq!(stats.filter_evaluations[1].0, "red-im(d'=2/2)");
        assert_eq!(stats.filter_evaluations[2].0, "red-emd(d'=2/2)");

        assert!(index.append_remove(a).unwrap());
        assert!(!index.append_remove(a).unwrap(), "double delete is a no-op");
        assert_eq!(index.len(), 2);
        let (neighbors, _) = index.snapshot().unwrap().knn(&query, 2).unwrap();
        assert_eq!(neighbors[0].0, c);
        assert_eq!(neighbors[1].0, b);
        assert!(index.get(a).is_none());
        assert!(index.get(b).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matches_brute_force_after_churn() {
        let dir = tmp_dir("churn");
        let mut index = fresh(&dir);
        let mut live = Vec::new();
        for i in 0..12 {
            let mut bins = vec![0.1; 4];
            bins[i % 4] += 0.6;
            let histogram = Histogram::normalized(bins).unwrap();
            let id = index.append_insert(histogram.clone()).unwrap();
            live.push((id, histogram));
        }
        // Delete every third object.
        live.retain(|(id, _)| {
            if id % 3 == 0 {
                assert!(index.append_remove(*id).unwrap());
                false
            } else {
                true
            }
        });

        let cost = ground::linear(4).unwrap();
        let query = h(&[0.25, 0.25, 0.3, 0.2]);
        let database: Vec<Histogram> = live.iter().map(|(_, h)| h.clone()).collect();
        let expected = brute_force_knn(&query, &database, &cost, 3).unwrap();
        let (got, _) = index.snapshot().unwrap().knn(&query, 3).unwrap();
        assert_eq!(
            canonical(got.iter().map(|hit| hit.1)),
            canonical(expected.iter().map(|n| n.distance))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_reclaims_storage_and_keeps_ids() {
        let dir = tmp_dir("reclaim");
        let mut index = fresh(&dir);
        let a = index.append_insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let b = index.append_insert(h(&[0.0, 1.0, 0.0, 0.0])).unwrap();
        let c = index.append_insert(h(&[0.0, 0.0, 1.0, 0.0])).unwrap();
        index.append_remove(b).unwrap();
        assert_eq!(index.positions(), 3);
        index.compact().unwrap();
        assert_eq!((index.positions(), index.len()), (2, 2));
        let query = h(&[0.0, 0.0, 0.9, 0.1]);
        let (neighbors, _) = index.snapshot().unwrap().knn(&query, 1).unwrap();
        assert_eq!(neighbors[0].0, c, "c is still c");
        assert!(index.get(a).is_some() && index.get(b).is_none());
        let d = index.append_insert(h(&[0.0, 0.0, 0.0, 1.0])).unwrap();
        assert_eq!(d, 3, "b's id is not reused");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_inputs() {
        let dir = tmp_dir("bad-inputs");
        let mut index = fresh(&dir);
        assert!(index.append_insert(h(&[0.5, 0.5])).is_err());
        assert_eq!(index.next_id, 0, "a rejected insert consumes no id");
        // An empty index has no snapshot to query, whatever the query asks.
        assert!(matches!(
            index.snapshot().unwrap_err(),
            DurableError::Query(QueryError::EmptyDatabase)
        ));
        let query = h(&[0.25, 0.25, 0.25, 0.25]);
        index.append_insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let snapshot = index.snapshot().unwrap();
        assert!(matches!(
            snapshot.knn(&query, 0).unwrap_err(),
            QueryError::ZeroK
        ));
        assert!(matches!(
            snapshot.range(&query, f64::NAN).unwrap_err(),
            QueryError::InvalidEpsilon(_)
        ));
        assert!(!index.append_remove(999).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn completeness_with_loose_reduction() {
        // An all-in-one-group reduction has bound 0 everywhere, and a
        // squared chain is no metric, so no anchor floor stands in for it:
        // the filter is useless but the results must still be exact.
        let dir = tmp_dir("loose");
        let squared = |i: usize, j: usize| (i as f64 - j as f64).powi(2);
        let cost = Arc::new(CostMatrix::from_fn(4, squared).unwrap());
        let r = CombiningReduction::new(vec![0, 0, 0, 0], 1).unwrap();
        let reduced = ReducedEmd::new(&cost, r).unwrap();
        let mut index = DurableIndex::create(&dir, cost, reduced).unwrap();
        for i in 0..4 {
            index.append_insert(Histogram::unit(4, i).unwrap()).unwrap();
        }
        let query = Histogram::unit(4, 2).unwrap();
        let (neighbors, stats) = index.snapshot().unwrap().knn(&query, 2).unwrap();
        assert_eq!(neighbors[0].0, 2);
        assert_eq!(stats.filter_evaluations.len(), 2, "Figure 10 as printed");
        assert_eq!(stats.refinements, 4, "useless filter refines everything");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interleaved_churn_matches_brute_force() {
        // Interleave insert/remove/compact with k-NN *and* range queries,
        // asserting against the brute-force oracles over exactly the live
        // objects after every phase. The oracle is keyed by the id
        // `append_insert` returned, so an id that drifted to another
        // histogram (across a removal, a compaction) fails here.
        let cost = ground::linear(4).unwrap();
        let queries = [
            h(&[0.25, 0.25, 0.25, 0.25]),
            h(&[0.7, 0.1, 0.1, 0.1]),
            h(&[0.0, 0.2, 0.3, 0.5]),
        ];
        let dir = tmp_dir("interleaved");
        let mut index = fresh(&dir);
        let mut live: Vec<(u64, Histogram)> = Vec::new();

        let check = |index: &DurableIndex, live: &[(u64, Histogram)]| {
            assert_eq!(index.len(), live.len());
            for (id, histogram) in live {
                assert_eq!(index.get(*id), Some(histogram), "id {id} names its object");
            }
            let database: Vec<Histogram> = live.iter().map(|(_, h)| h.clone()).collect();
            // Every hit carries the distance of the object its id names.
            let names_its_object = |query: &Histogram, hits: &[(u64, f64)]| {
                for &(id, distance) in hits {
                    let (_, named) = live.iter().find(|(live_id, _)| *live_id == id).unwrap();
                    let exact = emd_core::emd(query, named, &cost).unwrap();
                    assert!(
                        (exact - distance).abs() < 1e-9,
                        "id {id} names another object"
                    );
                }
            };
            let snapshot = index.snapshot().unwrap();
            for query in &queries {
                for k in [1, 2, 4] {
                    let expected = brute_force_knn(query, &database, &cost, k).unwrap();
                    let (got, _) = snapshot.knn(query, k).unwrap();
                    assert_eq!(got.len(), expected.len().min(k));
                    assert_eq!(
                        canonical(got.iter().map(|hit| hit.1)),
                        canonical(expected.iter().map(|n| n.distance)),
                        "k-NN distances diverge from brute force"
                    );
                    names_its_object(query, &got);
                }
                for epsilon in [0.3, 0.8, 2.0] {
                    let expected = brute_force_range(query, &database, &cost, epsilon).unwrap();
                    let (got, _) = snapshot.range(query, epsilon).unwrap();
                    assert_eq!(
                        canonical(got.iter().map(|hit| hit.1)),
                        canonical(expected.iter().map(|n| n.distance)),
                        "range hits diverge from brute force at eps={epsilon}"
                    );
                    names_its_object(query, &got);
                }
            }
        };

        // Phase 1: bulk insert.
        for i in 0..10 {
            let mut bins = vec![0.05; 4];
            bins[i % 4] += 0.5;
            bins[(i + 1) % 4] += 0.3;
            let histogram = Histogram::normalized(bins).unwrap();
            let id = index.append_insert(histogram.clone()).unwrap();
            live.push((id, histogram));
        }
        check(&index, &live);

        // Phase 2: remove some, insert more.
        live.retain(|(id, _)| {
            if id % 3 == 1 {
                assert!(index.append_remove(*id).unwrap());
                false
            } else {
                true
            }
        });
        for i in 0..4 {
            let histogram = Histogram::unit(4, i).unwrap();
            let id = index.append_insert(histogram.clone()).unwrap();
            live.push((id, histogram));
        }
        check(&index, &live);

        // Phase 3: compact under a frozen snapshot. The oracle is not
        // re-keyed — the ids handed out before name the same histograms
        // after — and the snapshot's answers do not move by a bit.
        let bits = |snapshot: &DurableSnapshot| -> Vec<Vec<(u64, u64)>> {
            let answer = |query| snapshot.knn(query, 4).unwrap().0;
            let bits = |hits: Vec<(u64, f64)>| hits.iter().map(|h| (h.0, h.1.to_bits())).collect();
            queries.iter().map(answer).map(bits).collect()
        };
        let frozen = index.snapshot().unwrap();
        let before = bits(&frozen);
        assert!(index.positions() > live.len(), "tombstones to reclaim");
        index.compact().unwrap();
        assert_eq!(index.positions(), live.len());
        check(&index, &live);
        assert_eq!(
            bits(&frozen),
            before,
            "a frozen snapshot ignores compaction"
        );
        assert_eq!(bits(&index.snapshot().unwrap()), before);

        // Phase 4: churn on the compacted index, then compact again. New
        // ids continue past every id ever handed out.
        let (last, _) = live.pop().unwrap();
        assert!(index.append_remove(last).unwrap());
        check(&index, &live);
        let histogram = h(&[0.15, 0.2, 0.3, 0.35]);
        let id = index.append_insert(histogram.clone()).unwrap();
        assert_eq!(id, last + 1, "ids are never reused");
        live.push((id, histogram));
        index.compact().unwrap();
        check(&index, &live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_shares_the_anchor_projections() {
        // A projection is made once, at insert; a snapshot takes a handle
        // to that allocation (a copy would leave the count at one).
        let dir = tmp_dir("projections");
        let mut index = fresh(&dir);
        index.append_insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        index.append_insert(h(&[0.0, 0.5, 0.5, 0.0])).unwrap();
        let holders = |index: &DurableIndex| -> Vec<usize> {
            let live = index.objects.iter().flatten();
            live.map(|object| Arc::strong_count(&object.state.projection))
                .collect()
        };
        assert_eq!(holders(&index), [1, 1]);
        let first = index.snapshot().unwrap();
        let second = index.snapshot().unwrap();
        assert_eq!(holders(&index), [3, 3]);
        drop((first, second));
        assert_eq!(holders(&index), [1, 1]);
        // Both anchors of the 4-bin chain: bins 0 and 2.
        let second = index.objects[1].as_ref().unwrap();
        assert_eq!(*second.state.projection, [1.5, 0.5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_is_isolated_from_mutations() {
        let dir = tmp_dir("isolated");
        let mut index = fresh(&dir);
        let a = index.append_insert(h(&[1.0, 0.0, 0.0, 0.0])).unwrap();
        let b = index.append_insert(h(&[0.0, 0.0, 0.0, 1.0])).unwrap();
        let snapshot = index.snapshot().unwrap();
        assert_eq!(snapshot.len(), 2);

        // A snapshot holds the index's own histograms: no bin was copied.
        let shares = |index: &DurableIndex, ids: &[u64]| {
            for &id in ids {
                let (live, frozen) = (index.get(id).unwrap(), snapshot.get(id).unwrap());
                assert_eq!(live.bins().as_ptr(), frozen.bins().as_ptr(), "id {id}");
            }
        };
        shares(&index, &[a, b]);
        let query = h(&[1.0, 0.0, 0.0, 0.0]);
        let bits = |hits: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
            hits.iter().map(|hit| (hit.0, hit.1.to_bits())).collect()
        };
        let before = bits(snapshot.knn(&query, 2).unwrap().0);

        // Mutate after snapshotting: remove a, insert a closer object,
        // reclaim a's slot.
        assert!(index.append_remove(a).unwrap());
        let c = index.append_insert(h(&[0.9, 0.1, 0.0, 0.0])).unwrap();
        index.compact().unwrap();

        // The snapshot still sees the original two objects, bit for bit,
        // and the survivor is still the one histogram both sides hold...
        assert_eq!(bits(snapshot.knn(&query, 2).unwrap().0), before);
        assert_eq!(before[0].0, a);
        assert_eq!(snapshot.get(a), Some(&query));
        assert!(snapshot.get(c).is_none());
        shares(&index, &[b]);
        // ...while the index sees the new state.
        let (current, _) = index.snapshot().unwrap().knn(&query, 2).unwrap();
        assert_eq!((current[0].0, current[1].0), (c, b));
        std::fs::remove_dir_all(&dir).ok();
    }
}
