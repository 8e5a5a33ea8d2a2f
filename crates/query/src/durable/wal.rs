//! Write-ahead log of an index directory (`FXEMDWAL` v1).
//!
//! The segment files of `segment` are immutable snapshots: they
//! are written once, fsynced, and only ever read afterwards. A long-running
//! service also needs the *mutable tail* — inserts and removes that arrived
//! after the last snapshot — to survive a crash. This module is that tail:
//! an append-only, checksummed log with the same little-endian, CRC32,
//! fail-closed discipline as the segment container.
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic  "FXEMDWAL"                                   8 bytes  |
//! | version major (u16 LE) | version minor (u16 LE)     4 bytes  |
//! +--------------------------------------------------------------+
//! | record 0:                                                    |
//! |   kind (u32 LE) | lsn (u64 LE)                     12 bytes  |
//! |   payload len (u64 LE) | crc32 (u32 LE)            12 bytes  |
//! |   payload (payload-len bytes)                                |
//! +--------------------------------------------------------------+
//! | record 1: ...                                                |
//! +--------------------------------------------------------------+
//! ```
//!
//! The CRC32 of a record covers its *entire frame* — kind, LSN and payload
//! length included — so a bit flip anywhere in a record is detected, not
//! just flips inside the payload. LSNs start at 1 and are strictly
//! contiguous; a gap or repeat in a record that passes its checksum is a
//! hard [`DurableError::Invalid`], because random corruption cannot produce
//! it.
//!
//! **Recovery policy** (the tentpole contract: typed error or clean
//! prefix, never wrong answers, never a silent drop):
//!
//! * Damage that plausibly comes from a torn final write — a record header
//!   or payload that runs past end-of-file, or a checksum failure on a
//!   record whose declared frame ends exactly at end-of-file — recovers
//!   the *clean prefix*: every record before the damage replays, and the
//!   discarded byte count is reported in [`WalReplay::torn_tail`] so the
//!   caller can log it and truncate before appending again.
//! * A checksum failure *followed by a verifiable record* is a hard typed
//!   error ([`DurableError::ChecksumMismatch`]). Valid records after a
//!   damaged one mean this is not a torn write; silently resuming past it
//!   could resurrect a removed object or drop an acknowledged insert,
//!   which is exactly the "wrong answers" the durable contract bans.
//!   Followed only by bytes that verify as no record (a zero-filled tail,
//!   left when a crash persisted the file's size before its data), it is
//!   a torn tail like the others.
//! * A record whose declared frame cannot even be checksummed — the
//!   payload length is implausible or the declared extent runs past
//!   end-of-file — *looks* like a torn tail, but a mid-file bit flip in
//!   the length field produces the same shape. Before declaring a tear,
//!   replay scans forward for any verifiable record frame (plausible
//!   length, in-bounds extent, matching CRC32): acknowledged records
//!   following the damage prove it is mid-file, and replay fails hard
//!   ([`DurableError::Invalid`]) instead of truncating them away.
//!
//! Durability is explicit: [`WalWriter::append`] only buffers; a record is
//! durable — and may be acknowledged to a client — only after
//! [`WalWriter::sync`] returns. Both paths carry faultkit probes
//! ([`Site::WalAppend`], [`Site::WalSync`]) so crash schedules are
//! reachable in tests.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use emd_core::Histogram;
use emd_faultkit::{Fault, FaultInjector, Site};

use super::crc32;
use super::sections::Payload;
use crate::error::DurableError;

/// Magic bytes every WAL file starts with.
const WAL_MAGIC: [u8; 8] = *b"FXEMDWAL";

/// Major WAL format version; a mismatch is [`DurableError::VersionSkew`].
const WAL_VERSION_MAJOR: u16 = 1;

/// Minor WAL format version; files with a larger minor are rejected.
const WAL_VERSION_MINOR: u16 = 0;

/// Byte length of the fixed file header (magic + version).
const WAL_HEADER_LEN: u64 = 12;

/// On-disk tag of an insert record.
const KIND_INSERT: u32 = 1;
/// On-disk tag of a remove record.
const KIND_REMOVE: u32 = 2;
/// On-disk tag of a compaction-epoch record.
const KIND_COMPACT_EPOCH: u32 = 3;

/// Refuse to believe a single record's payload is larger than this
/// (1 GiB); a bigger declared length is treated as damage, not an
/// allocation request.
const MAX_PAYLOAD_LEN: u64 = 1 << 30;

/// `usize -> u64` widening for on-disk length fields and byte
/// accounting; exact on every supported platform (`usize` is at most
/// 64 bits wide, so the fallback arm is unreachable).
fn widen(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// One logged mutation of the dynamic index.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An object was inserted under a caller-visible stable id.
    Insert {
        /// The external id the service handed back to the client.
        external_id: u64,
        /// The inserted histogram, re-validated on replay.
        histogram: Histogram,
    },
    /// The object with this external id was removed.
    Remove {
        /// The external id being tombstoned.
        external_id: u64,
    },
    /// A compaction sealed every earlier record into a segment.
    ///
    /// The record is written as the *first* record of the post-compaction
    /// WAL and repeats the sealed segment's id map, so ids held by
    /// clients survive the restart: `external_ids[position]` is the id of
    /// the object stored at `position` in the sealed segment. Compaction
    /// renumbers nothing — the map is strictly ascending because ids are
    /// allocated, and objects sealed, in insertion order.
    CompactEpoch {
        /// Monotonic compaction epoch (names the sealed segment file).
        epoch: u64,
        /// The next external id the allocator will hand out. Persisted so
        /// ids never restart (and collide with ids clients still hold)
        /// even when a compaction seals an empty index.
        next_external: u64,
        /// `position -> external_id` map for the sealed prefix.
        external_ids: Vec<u64>,
    },
}

impl WalRecord {
    /// The on-disk kind tag of this record.
    #[must_use]
    pub(super) fn kind(&self) -> u32 {
        match self {
            WalRecord::Insert { .. } => KIND_INSERT,
            WalRecord::Remove { .. } => KIND_REMOVE,
            WalRecord::CompactEpoch { .. } => KIND_COMPACT_EPOCH,
        }
    }

    /// Encode this record's payload (everything after the frame header).
    fn encode_payload(&self) -> Vec<u8> {
        match self {
            WalRecord::Insert {
                external_id,
                histogram,
            } => {
                let bins = histogram.bins();
                let mut out = Vec::with_capacity(16 + bins.len() * 8);
                out.extend_from_slice(&external_id.to_le_bytes());
                out.extend_from_slice(&widen(bins.len()).to_le_bytes());
                for &mass in bins {
                    out.extend_from_slice(&mass.to_le_bytes());
                }
                out
            }
            WalRecord::Remove { external_id } => external_id.to_le_bytes().to_vec(),
            WalRecord::CompactEpoch {
                epoch,
                next_external,
                external_ids,
            } => {
                let mut out = Vec::with_capacity(24 + external_ids.len() * 8);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&next_external.to_le_bytes());
                out.extend_from_slice(&widen(external_ids.len()).to_le_bytes());
                for &id in external_ids {
                    out.extend_from_slice(&id.to_le_bytes());
                }
                out
            }
        }
    }

    /// Decode a record payload for `kind`, re-validating histograms
    /// through [`Histogram::new`] exactly like segment decoding does.
    fn decode_payload(kind: u32, payload: &[u8], path: &Path) -> Result<WalRecord, DurableError> {
        let mut cursor = Payload::new(path, "wal-record", payload);
        let record = match kind {
            KIND_INSERT => {
                let external_id = cursor.u64("insert external id")?;
                let dim = cursor.length("insert histogram dimensionality")?;
                let bins = cursor.f64s(dim, "insert histogram bins")?;
                let histogram = Histogram::new(bins).map_err(|e| {
                    DurableError::invalid(path, "wal-record", format!("insert rejected: {e}"))
                })?;
                WalRecord::Insert {
                    external_id,
                    histogram,
                }
            }
            KIND_REMOVE => WalRecord::Remove {
                external_id: cursor.u64("remove external id")?,
            },
            KIND_COMPACT_EPOCH => {
                let epoch = cursor.u64("compaction epoch")?;
                let next_external = cursor.u64("next external id")?;
                let count = cursor.length("compaction id-map length")?;
                // Not reserved: `count` is untrusted until the entries
                // behind it have been read.
                let mut external_ids = Vec::new();
                for _ in 0..count {
                    external_ids.push(cursor.u64("compaction id-map entry")?);
                }
                WalRecord::CompactEpoch {
                    epoch,
                    next_external,
                    external_ids,
                }
            }
            other => {
                return Err(DurableError::UnknownSection {
                    path: path.to_path_buf(),
                    kind: other,
                })
            }
        };
        cursor.finish()?;
        Ok(record)
    }
}

/// Encode one full record frame (header + payload) for `lsn`.
fn encode_frame(record: &WalRecord, lsn: u64) -> Vec<u8> {
    let payload = record.encode_payload();
    let mut frame = Vec::with_capacity(24 + payload.len());
    frame.extend_from_slice(&record.kind().to_le_bytes());
    frame.extend_from_slice(&lsn.to_le_bytes());
    frame.extend_from_slice(&widen(payload.len()).to_le_bytes());
    let mut hasher = crc32::Hasher::new();
    // The checksum covers kind | lsn | payload-len | payload, so header
    // bit flips fail verification just like payload flips.
    hasher.update(&frame);
    hasher.update(&payload);
    frame.extend_from_slice(&hasher.finalize().to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Append handle for one WAL file: assigns LSNs, frames records, and
/// makes them durable on explicit [`WalWriter::sync`] points.
#[derive(Debug)]
pub(super) struct WalWriter {
    out: BufWriter<File>,
    path: PathBuf,
    next_lsn: u64,
    /// Bytes appended since the last successful sync (obs reporting).
    unsynced_bytes: u64,
    faults: Arc<dyn FaultInjector>,
}

impl WalWriter {
    /// Create a fresh WAL at `path` (truncating any existing file),
    /// write its header, and sync it so the empty log itself is durable.
    /// `faults` is probed at every append and sync.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Io`] when the file cannot be created,
    /// written or synced (including injected faults).
    pub(super) fn create_with(
        path: &Path,
        faults: Arc<dyn FaultInjector>,
    ) -> Result<Self, DurableError> {
        let file = File::create(path).map_err(|e| DurableError::io(path, e))?;
        let mut writer = WalWriter {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            next_lsn: 1,
            unsynced_bytes: 0,
            faults,
        };
        writer.put(&WAL_MAGIC)?;
        writer.put(&WAL_VERSION_MAJOR.to_le_bytes())?;
        writer.put(&WAL_VERSION_MINOR.to_le_bytes())?;
        writer.sync()?;
        Ok(writer)
    }

    /// Reopen an existing WAL for appending after [`replay_with`].
    ///
    /// The file is truncated to `replay.valid_len` — discarding a torn
    /// tail if one was reported — and the writer resumes at
    /// `replay.next_lsn()`, so recovery and append form one atomic
    /// hand-off: nothing between the valid prefix and the next record.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Io`] when the file cannot be opened,
    /// truncated or positioned.
    pub(super) fn open_for_append(
        path: &Path,
        replay: &WalReplay,
        faults: Arc<dyn FaultInjector>,
    ) -> Result<Self, DurableError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| DurableError::io(path, e))?;
        file.set_len(replay.valid_len)
            .map_err(|e| DurableError::io(path, e))?;
        let mut out = BufWriter::new(file);
        out.seek(SeekFrom::Start(replay.valid_len))
            .map_err(|e| DurableError::io(path, e))?;
        Ok(WalWriter {
            out,
            path: path.to_path_buf(),
            next_lsn: replay.next_lsn(),
            unsynced_bytes: 0,
            faults,
        })
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        self.out
            .write_all(bytes)
            .map_err(|e| DurableError::io(&self.path, e))?;
        self.unsynced_bytes += widen(bytes.len());
        Ok(())
    }

    /// The LSN the next appended record will receive.
    #[cfg(test)]
    pub(super) fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Append one record, returning its assigned LSN.
    ///
    /// The record is only *buffered*: it is not durable — and must not be
    /// acknowledged to a client — until [`WalWriter::sync`] succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Io`] on write failure or when the
    /// [`Site::WalAppend`] faultkit probe injects one.
    pub(super) fn append(&mut self, record: &WalRecord) -> Result<u64, DurableError> {
        if let Some(Fault::Io) = self.faults.check(Site::WalAppend) {
            return Err(DurableError::injected(&self.path, "wal"));
        }
        let lsn = self.next_lsn;
        let frame = encode_frame(record, lsn);
        self.put(&frame)?;
        self.next_lsn += 1;
        emd_obs::counter_add("wal.appends", 1);
        Ok(lsn)
    }

    /// Flush buffered records and fsync the file: the explicit
    /// durability point. Everything appended before a successful `sync`
    /// survives a crash after it.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Io`] on flush/sync failure or when the
    /// [`Site::WalSync`] faultkit probe injects one.
    pub(super) fn sync(&mut self) -> Result<(), DurableError> {
        if let Some(Fault::Io) = self.faults.check(Site::WalSync) {
            return Err(DurableError::injected(&self.path, "wal"));
        }
        self.out
            .flush()
            .map_err(|e| DurableError::io(&self.path, e))?;
        self.out
            .get_ref()
            .sync_all()
            .map_err(|e| DurableError::io(&self.path, e))?;
        emd_obs::counter_add("wal.synced_bytes", self.unsynced_bytes);
        self.unsynced_bytes = 0;
        Ok(())
    }
}

/// A torn tail discarded during replay: damage at the end of the log
/// consistent with a crash mid-write. Reported, never silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// File offset of the first damaged byte (= length of the clean
    /// prefix that was kept).
    pub offset: u64,
    /// Bytes discarded after `offset`.
    pub discarded_bytes: u64,
    /// What the damage looked like (for logs and `wal-inspect`).
    pub reason: String,
}

/// The result of replaying a WAL: the decoded clean prefix plus how the
/// file ended.
#[derive(Debug)]
pub struct WalReplay {
    /// Every valid record in LSN order, paired with its LSN.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte length of the valid prefix (header included); a writer
    /// reopening this log truncates to this length.
    pub valid_len: u64,
    /// `Some` when a torn tail was discarded; `None` for a clean log.
    pub torn_tail: Option<TornTail>,
}

impl WalReplay {
    /// The LSN the next appended record must carry.
    #[must_use]
    pub(super) fn next_lsn(&self) -> u64 {
        self.records.last().map_or(1, |(lsn, _)| lsn + 1)
    }
}

/// Replay a WAL from disk, enforcing the recovery policy described in
/// the module docs: torn tails recover the clean prefix (reported via
/// [`WalReplay::torn_tail`]); mid-file damage is a hard typed error.
/// `faults` is probed before the file read.
///
/// # Errors
///
/// Returns [`DurableError::Io`] when the file cannot be read (including a
/// fault injected at [`Site::StoreRead`]), [`DurableError::BadMagic`] /
/// [`DurableError::VersionSkew`] for foreign or future files,
/// [`DurableError::Truncated`] when even the file header is short,
/// [`DurableError::ChecksumMismatch`] for mid-file damage,
/// [`DurableError::UnknownSection`] for an unknown record kind that passes
/// its checksum, and [`DurableError::Invalid`] for payloads that decode
/// but violate engine invariants or LSN contiguity.
pub(super) fn replay_with(
    path: &Path,
    faults: &dyn FaultInjector,
) -> Result<WalReplay, DurableError> {
    let _span = emd_obs::span_with(|| format!("wal.replay({})", path.display()));
    if let Some(Fault::Io) = faults.check(Site::StoreRead) {
        return Err(DurableError::injected(path, "read"));
    }
    let mut file = File::open(path).map_err(|e| DurableError::io(path, e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| DurableError::io(path, e))?;
    emd_obs::counter_add("store.bytes_read", widen(bytes.len()));
    replay_bytes(path, &bytes)
}

/// Shape of the frame header at some offset, before checksum
/// verification.
struct FrameHeader {
    kind: u32,
    lsn: u64,
    payload_len: u64,
    crc: u32,
}

/// Read the 24-byte frame header at `offset`; `None` when fewer than 24
/// bytes remain (torn header).
fn frame_header(bytes: &[u8], offset: usize) -> Option<FrameHeader> {
    let end = offset.checked_add(24)?;
    let header = bytes.get(offset..end)?;
    let kind = u32::from_le_bytes(header.get(0..4)?.try_into().ok()?);
    let lsn = u64::from_le_bytes(header.get(4..12)?.try_into().ok()?);
    let payload_len = u64::from_le_bytes(header.get(12..20)?.try_into().ok()?);
    let crc = u32::from_le_bytes(header.get(20..24)?.try_into().ok()?);
    Some(FrameHeader {
        kind,
        lsn,
        payload_len,
        crc,
    })
}

/// Whether a verifiable record frame — plausible length, in-bounds
/// extent, matching CRC32 — starts anywhere in `bytes[from..]`.
///
/// This is the torn-tail tiebreaker: a record whose declared frame
/// cannot be checksummed (implausible or past-end-of-file length), or
/// fails its checksum, is only a torn final write if nothing real
/// follows it. A verifiable
/// record after the damage proves a mid-file length-field flip, where
/// truncating to the "clean prefix" would silently drop acknowledged
/// durable records. A false positive would require a torn partial
/// payload to embed a full CRC32-valid frame, which random damage
/// cannot plausibly produce.
fn valid_frame_follows(bytes: &[u8], from: usize) -> bool {
    let header_len = 24usize;
    let mut probe = from;
    while probe.saturating_add(header_len) <= bytes.len() {
        if let Some(frame) = frame_header(bytes, probe) {
            if frame.payload_len <= MAX_PAYLOAD_LEN {
                if let Ok(payload_len) = usize::try_from(frame.payload_len) {
                    let frame_end = probe
                        .checked_add(header_len)
                        .and_then(|end| end.checked_add(payload_len));
                    if let Some(frame_end) = frame_end {
                        if let (Some(prefix), Some(payload)) = (
                            bytes.get(probe..probe + 20),
                            bytes.get(probe + header_len..frame_end),
                        ) {
                            let mut hasher = crc32::Hasher::new();
                            hasher.update(prefix);
                            hasher.update(payload);
                            if hasher.finalize() == frame.crc {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        probe += 1;
    }
    false
}

/// Decode an in-memory WAL image (the core of [`replay_with`], separated so
/// corruption tests can drive it byte-exactly).
///
/// # Errors
///
/// Same contract as [`replay_with`].
fn replay_bytes(path: &Path, bytes: &[u8]) -> Result<WalReplay, DurableError> {
    let header_len = usize::try_from(WAL_HEADER_LEN)
        .map_err(|_| DurableError::invalid(path, "wal-header", "header length overflows usize"))?;
    let Some(header) = bytes.get(..header_len) else {
        return Err(DurableError::Truncated {
            path: path.to_path_buf(),
            what: "WAL file header".to_owned(),
            expected: WAL_HEADER_LEN,
            got: widen(bytes.len()),
        });
    };
    let bad_header = || DurableError::invalid(path, "wal-header", "header shorter than declared");
    if header.get(0..8).ok_or_else(bad_header)? != WAL_MAGIC {
        return Err(DurableError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = |lo: usize| -> Result<u16, DurableError> {
        let pair = header.get(lo..lo + 2).ok_or_else(bad_header)?;
        Ok(u16::from_le_bytes(
            pair.try_into().map_err(|_| bad_header())?,
        ))
    };
    let major = version(8)?;
    let minor = version(10)?;
    if major != WAL_VERSION_MAJOR || minor > WAL_VERSION_MINOR {
        return Err(DurableError::VersionSkew {
            path: path.to_path_buf(),
            major,
            minor,
        });
    }

    let mut records = Vec::new();
    let mut offset = header_len;
    let mut torn_tail = None;
    let mut expected_lsn = 1u64;
    while offset < bytes.len() {
        let torn = |reason: String| TornTail {
            offset: widen(offset),
            discarded_bytes: widen(bytes.len() - offset),
            reason,
        };
        let Some(frame) = frame_header(bytes, offset) else {
            torn_tail = Some(torn("record header runs past end of file".to_owned()));
            break;
        };
        if frame.payload_len > MAX_PAYLOAD_LEN {
            // An absurd length field cannot be verified against its
            // checksum (the frame extent is off the end of any real
            // file). It is tail damage only if nothing verifiable
            // follows; otherwise a mid-file length flip is hiding
            // acknowledged records and truncation would drop them.
            if valid_frame_follows(bytes, offset + 1) {
                return Err(DurableError::invalid(
                    path,
                    "wal-record",
                    format!(
                        "record at offset {offset} declares an implausible payload of {} bytes \
                         while verifiable records follow — mid-file damage, not a torn tail",
                        frame.payload_len
                    ),
                ));
            }
            torn_tail = Some(torn(format!(
                "record declares implausible payload of {} bytes",
                frame.payload_len
            )));
            break;
        }
        let payload_len = usize::try_from(frame.payload_len)
            .map_err(|_| DurableError::invalid(path, "wal-record", "payload length overflows"))?;
        let header_end = offset + 24;
        let Some(frame_end) = header_end.checked_add(payload_len) else {
            return Err(DurableError::invalid(
                path,
                "wal-record",
                "record extent overflows",
            ));
        };
        let (Some(checked_prefix), Some(payload)) = (
            bytes.get(offset..offset + 20),
            bytes.get(header_end..frame_end),
        ) else {
            // Same tiebreaker as the implausible-length case: a frame
            // that runs past end-of-file is a torn write only when no
            // verifiable record follows it.
            if valid_frame_follows(bytes, offset + 1) {
                return Err(DurableError::invalid(
                    path,
                    "wal-record",
                    format!(
                        "record at offset {offset} runs past end of file while verifiable \
                         records follow — mid-file damage, not a torn tail"
                    ),
                ));
            }
            torn_tail = Some(torn("record payload runs past end of file".to_owned()));
            break;
        };
        let mut hasher = crc32::Hasher::new();
        hasher.update(checked_prefix);
        hasher.update(payload);
        let computed = hasher.finalize();
        if computed != frame.crc {
            if frame_end == bytes.len() {
                // The damaged record is the last thing in the file: the
                // classic torn final write. Keep the clean prefix.
                torn_tail = Some(torn(format!(
                    "final record checksum mismatch (header {:#010x}, payload {computed:#010x})",
                    frame.crc
                )));
                break;
            }
            // Bytes follow the damaged record. Only a verifiable record
            // among them proves mid-file damage; without one they are a
            // torn tail too (a crash can leave a file's new size on disk
            // before its data, as a run of zeros).
            if !valid_frame_follows(bytes, offset + 1) {
                torn_tail = Some(torn(format!(
                    "record checksum mismatch with no verifiable record after it \
                     (header {:#010x}, payload {computed:#010x})",
                    frame.crc
                )));
                break;
            }
            return Err(DurableError::ChecksumMismatch {
                path: path.to_path_buf(),
                section: format!("wal record at offset {offset}"),
                expected: frame.crc,
                got: computed,
            });
        }
        if frame.lsn != expected_lsn {
            return Err(DurableError::invalid(
                path,
                "wal-record",
                format!("LSN {} where {expected_lsn} was expected", frame.lsn),
            ));
        }
        let record = WalRecord::decode_payload(frame.kind, payload, path)?;
        records.push((frame.lsn, record));
        expected_lsn += 1;
        offset = frame_end;
    }

    emd_obs::counter_add("wal.replayed_records", widen(records.len()));
    Ok(WalReplay {
        records,
        valid_len: widen(offset),
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emd_faultkit::NoFaults;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("flexemd-wal-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn histogram(bins: &[f64]) -> Histogram {
        Histogram::new(bins.to_vec()).expect("valid test histogram")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                external_id: 0,
                histogram: histogram(&[0.5, 0.25, 0.25]),
            },
            WalRecord::Insert {
                external_id: 1,
                histogram: histogram(&[0.0, 1.0, 0.0]),
            },
            WalRecord::Remove { external_id: 0 },
            WalRecord::CompactEpoch {
                epoch: 1,
                next_external: 2,
                external_ids: vec![1],
            },
            WalRecord::Insert {
                external_id: 2,
                histogram: histogram(&[0.25, 0.25, 0.5]),
            },
        ]
    }

    fn write_log(path: &Path, records: &[WalRecord]) {
        let mut writer = WalWriter::create_with(path, Arc::new(NoFaults)).expect("create WAL");
        for record in records {
            writer.append(record).expect("append");
        }
        writer.sync().expect("sync");
    }

    #[test]
    fn roundtrip_replays_every_record_in_order() {
        let path = tmp("roundtrip");
        let records = sample_records();
        write_log(&path, &records);
        let replay = replay_with(&path, &NoFaults).expect("replay");
        assert!(replay.torn_tail.is_none());
        assert_eq!(replay.records.len(), records.len());
        for (i, ((lsn, got), want)) in replay.records.iter().zip(&records).enumerate() {
            assert_eq!(*lsn, (i + 1) as u64, "LSNs are contiguous from 1");
            assert_eq!(got, want);
        }
        assert_eq!(replay.next_lsn(), records.len() as u64 + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn implausible_id_map_length_is_invalid_not_an_allocation() {
        // A CompactEpoch payload declaring 2^40 ids over 8 bytes of them.
        let mut payload = Vec::new();
        for field in [1u64, 9, 1 << 40, 3] {
            payload.extend_from_slice(&field.to_le_bytes());
        }
        assert!(matches!(
            WalRecord::decode_payload(KIND_COMPACT_EPOCH, &payload, Path::new("wal")),
            Err(DurableError::Invalid { .. })
        ));
    }

    #[test]
    fn empty_log_replays_empty() {
        let path = tmp("empty");
        write_log(&path, &[]);
        let replay = replay_with(&path, &NoFaults).expect("replay");
        assert!(replay.records.is_empty());
        assert!(replay.torn_tail.is_none());
        assert_eq!(replay.valid_len, WAL_HEADER_LEN);
        assert_eq!(replay.next_lsn(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_anywhere_yields_clean_prefix_or_typed_error() {
        let path = tmp("truncate");
        write_log(&path, &sample_records());
        let full = std::fs::read(&path).expect("read log");
        let clean = replay_bytes(&path, &full).expect("clean replay");
        for cut in 0..full.len() {
            let result = replay_bytes(&path, &full[..cut]);
            match result {
                Ok(replay) => {
                    // Every replayed record must be a prefix of the
                    // uncrashed replay — never an invented record.
                    assert!(replay.records.len() <= clean.records.len());
                    assert_eq!(
                        replay.records,
                        clean.records[..replay.records.len()],
                        "cut at {cut} replayed a non-prefix"
                    );
                    // Records may only be dropped with a torn-tail
                    // report; a cut exactly on a record boundary is the
                    // one case with nothing to report.
                    if replay.records.len() < clean.records.len() {
                        assert!(
                            replay.torn_tail.is_some() || replay.valid_len == cut as u64,
                            "cut at {cut} dropped records silently"
                        );
                    }
                    assert!(
                        replay.valid_len <= cut as u64,
                        "cut at {cut} claims bytes past the file end"
                    );
                }
                Err(error) => {
                    assert!(
                        matches!(
                            error,
                            DurableError::Truncated { .. }
                                | DurableError::BadMagic { .. }
                                | DurableError::VersionSkew { .. }
                        ),
                        "cut at {cut} gave unexpected error {error}"
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_reported_not_silent() {
        let path = tmp("torn");
        write_log(&path, &sample_records());
        let full = std::fs::read(&path).expect("read log");
        // Cut mid-way through the last record's payload.
        let cut = full.len() - 3;
        let replay = replay_bytes(&path, &full[..cut]).expect("prefix replay");
        let tail = replay.torn_tail.expect("torn tail must be reported");
        assert_eq!(tail.offset, replay.valid_len);
        assert!(tail.discarded_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_flip_never_changes_an_accepted_record() {
        let path = tmp("flip");
        let records = sample_records();
        write_log(&path, &records);
        let full = std::fs::read(&path).expect("read log");
        let clean = replay_bytes(&path, &full).expect("clean replay");
        for i in 0..full.len() {
            let mut damaged = full.clone();
            damaged[i] ^= 0x40;
            // A typed error is always acceptable; an accepted replay
            // must be a clean prefix of the original — a flipped record
            // may vanish (reported) but never replay altered.
            if let Ok(replay) = replay_bytes(&path, &damaged) {
                assert!(
                    replay.records.len() < clean.records.len() || replay.records == clean.records,
                    "flip at byte {i} changed an accepted record"
                );
                assert_eq!(replay.records, clean.records[..replay.records.len()]);
                if replay.records.len() < clean.records.len() {
                    assert!(
                        replay.torn_tail.is_some(),
                        "flip at byte {i} dropped records silently"
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn midfile_corruption_is_a_hard_error() {
        let path = tmp("midfile");
        write_log(&path, &sample_records());
        let mut bytes = std::fs::read(&path).expect("read log");
        // Flip a byte inside the first record's payload: valid records
        // follow, so this must NOT be recovered as a prefix.
        let header = usize::try_from(WAL_HEADER_LEN).expect("small");
        let idx = header + 30;
        bytes[idx] ^= 0x01;
        let error = replay_bytes(&path, &bytes).expect_err("mid-file damage is fatal");
        assert!(
            matches!(error, DurableError::ChecksumMismatch { .. }),
            "got {error}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn midfile_length_flip_is_a_hard_error_when_records_follow() {
        let path = tmp("length-flip");
        write_log(&path, &sample_records());
        let header = usize::try_from(WAL_HEADER_LEN).expect("small");
        // Record 0's payload-length field occupies header+12..header+20.
        // An implausible (> MAX_PAYLOAD_LEN) length with acknowledged
        // records following must be mid-file damage, never a torn tail
        // that truncates those records away.
        let mut implausible = std::fs::read(&path).expect("read log");
        implausible[header + 18] = 0xff;
        let error =
            replay_bytes(&path, &implausible).expect_err("implausible length with records after");
        assert!(matches!(error, DurableError::Invalid { .. }), "got {error}");

        // A plausible-but-oversized length whose frame extent swallows
        // the rest of the file is the same shape of damage.
        let mut oversized = std::fs::read(&path).expect("read log");
        oversized[header + 13] ^= 0x40; // + 0x4000 bytes: plausible, past EOF
        let error =
            replay_bytes(&path, &oversized).expect_err("oversized length with records after");
        assert!(matches!(error, DurableError::Invalid { .. }), "got {error}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn implausible_length_with_nothing_following_is_a_torn_tail() {
        let path = tmp("length-tail");
        write_log(&path, &sample_records()[..1]);
        let header = usize::try_from(WAL_HEADER_LEN).expect("small");
        let mut bytes = std::fs::read(&path).expect("read log");
        bytes[header + 18] = 0xff;
        // Only the damaged record's own bytes follow the flipped length
        // field — no verifiable frame — so this is a recoverable tear.
        let replay = replay_bytes(&path, &bytes).expect("tail damage recovers");
        assert!(replay.records.is_empty());
        let tail = replay.torn_tail.expect("tear must be reported");
        assert_eq!(tail.offset, WAL_HEADER_LEN);
        assert_eq!(replay.valid_len, WAL_HEADER_LEN);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_for_append_resumes_lsns_after_torn_tail() {
        let path = tmp("resume");
        write_log(&path, &sample_records());
        let full = std::fs::read(&path).expect("read log");
        std::fs::write(&path, &full[..full.len() - 3]).expect("tear the tail");
        let replay1 = replay_with(&path, &NoFaults).expect("replay torn log");
        assert!(replay1.torn_tail.is_some());
        let kept = replay1.records.len();
        let mut writer = WalWriter::open_for_append(&path, &replay1, Arc::new(NoFaults))
            .expect("reopen for append");
        assert_eq!(writer.next_lsn(), (kept + 1) as u64);
        writer
            .append(&WalRecord::Remove { external_id: 42 })
            .expect("append after recovery");
        writer.sync().expect("sync");
        let replay2 = replay_with(&path, &NoFaults).expect("replay repaired log");
        assert!(replay2.torn_tail.is_none());
        assert_eq!(replay2.records.len(), kept + 1);
        assert_eq!(
            replay2.records.last().expect("appended record").1,
            WalRecord::Remove { external_id: 42 }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lsn_gap_is_rejected() {
        let path = tmp("lsn-gap");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_VERSION_MAJOR.to_le_bytes());
        bytes.extend_from_slice(&WAL_VERSION_MINOR.to_le_bytes());
        // A perfectly checksummed record carrying LSN 2 where 1 belongs.
        bytes.extend_from_slice(&encode_frame(&WalRecord::Remove { external_id: 7 }, 2));
        let error = replay_bytes(&path, &bytes).expect_err("LSN gap is fatal");
        assert!(matches!(error, DurableError::Invalid { .. }), "got {error}");
    }

    #[test]
    fn unknown_record_kind_is_rejected() {
        let path = tmp("unknown-kind");
        let mut frame = Vec::new();
        frame.extend_from_slice(&99u32.to_le_bytes());
        frame.extend_from_slice(&1u64.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        let mut hasher = crc32::Hasher::new();
        hasher.update(&frame);
        frame.extend_from_slice(&hasher.finalize().to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&WAL_VERSION_MAJOR.to_le_bytes());
        bytes.extend_from_slice(&WAL_VERSION_MINOR.to_le_bytes());
        bytes.extend_from_slice(&frame);
        let error = replay_bytes(&path, &bytes).expect_err("unknown kind is fatal");
        assert!(
            matches!(error, DurableError::UnknownSection { kind: 99, .. }),
            "got {error}"
        );
    }

    #[test]
    fn foreign_magic_and_future_version_are_rejected() {
        let path = tmp("magic");
        let error = replay_bytes(&path, b"NOTAWAL!....").expect_err("foreign file");
        assert!(matches!(error, DurableError::BadMagic { .. }));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WAL_MAGIC);
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        let error = replay_bytes(&path, &bytes).expect_err("future version");
        assert!(matches!(error, DurableError::VersionSkew { major: 2, .. }));
    }

    #[test]
    fn injected_append_and_sync_faults_surface_as_io_errors() {
        use emd_faultkit::FailPlan;
        let path = tmp("faults");
        {
            let plan = Arc::new(FailPlan::new().fail_wal_append(2));
            let mut writer = WalWriter::create_with(&path, plan).expect("create");
            writer
                .append(&WalRecord::Remove { external_id: 1 })
                .expect("first append survives");
            let error = writer
                .append(&WalRecord::Remove { external_id: 2 })
                .expect_err("second append injected");
            assert!(matches!(error, DurableError::Io { .. }));
        }
        {
            let plan = Arc::new(FailPlan::new().fail_wal_sync(2));
            let mut writer = WalWriter::create_with(&path, plan).expect("create syncs once");
            writer
                .append(&WalRecord::Remove { external_id: 1 })
                .expect("append survives");
            let error = writer.sync().expect_err("second sync injected");
            assert!(matches!(error, DurableError::Io { .. }));
        }
        std::fs::remove_file(&path).ok();
    }
}
