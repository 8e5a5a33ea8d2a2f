//! The binary segment format (`FXEMDSEG` v1).
//!
//! A segment file is a fixed little-endian container:
//!
//! ```text
//! +--------------------------------------------------------------+
//! | magic  "FXEMDSEG"                                   8 bytes  |
//! | version major (u16 LE) | version minor (u16 LE)     4 bytes  |
//! | section count (u32 LE)                              4 bytes  |
//! +--------------------------------------------------------------+
//! | section 0:                                                   |
//! |   kind (u32 LE) | name len (u32 LE)                 8 bytes  |
//! |   payload len (u64 LE)                              8 bytes  |
//! |   payload crc32 (u32 LE)                            4 bytes  |
//! |   name (UTF-8, name-len bytes)                               |
//! |   payload (payload-len bytes)                                |
//! +--------------------------------------------------------------+
//! | section 1: ...                                               |
//! +--------------------------------------------------------------+
//! ```
//!
//! [`SegmentWriter`] writes each section in one shot from its encoded
//! payload, header (length + checksum) first, and patches the section
//! count into the file header on `finish`.
//! [`SegmentReader`] validates everything *before* handing out payloads:
//! magic, version window, header and payload truncation, per-section
//! CRC32, and section-name UTF-8. Decoding payloads into typed values is
//! the job of [`crate::sections`].

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc32;
use crate::error::StoreError;

/// Magic bytes every segment file starts with.
const MAGIC: [u8; 8] = *b"FXEMDSEG";

/// Major format version this build writes and reads. A mismatch is a
/// hard [`StoreError::VersionSkew`].
pub(crate) const VERSION_MAJOR: u16 = 1;

/// Minor format version this build writes. Files with a *smaller or
/// equal* minor open fine; a larger minor means the file may carry
/// constructs this build does not understand and is rejected.
pub(crate) const VERSION_MINOR: u16 = 0;

/// Byte length of the fixed file header (magic + version + count).
const FILE_HEADER_LEN: u64 = 16;

/// Typed tag describing how a section's payload is encoded.
///
/// The tag pins the *codec*; the section name pins the *role* (e.g. the
/// reduced cost matrix `C'` is a [`SectionKind::CostMatrix`] payload
/// named `reduced-cost`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// A dense arena of equal-dimensional histograms.
    HistogramArena,
    /// A row-major cost matrix (original `C` or reduced `C'`).
    CostMatrix,
    /// A combining reduction's assignment vector (Definition 3).
    Reduction,
    /// A greedy k-center clustering (pivots, assignments, radii) over a
    /// reduction's precomputed arena.
    Clustering,
    /// A dense `position -> external id` map (sealed WAL segments).
    IdMap,
    /// A UTF-8 string (the index name).
    Text,
}

impl SectionKind {
    /// The on-disk tag value.
    pub fn tag(self) -> u32 {
        match self {
            SectionKind::HistogramArena => 1,
            SectionKind::CostMatrix => 2,
            SectionKind::Reduction => 3,
            SectionKind::Clustering => 4,
            SectionKind::IdMap => 5,
            SectionKind::Text => 6,
        }
    }

    /// Decode an on-disk tag.
    fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            1 => Some(SectionKind::HistogramArena),
            2 => Some(SectionKind::CostMatrix),
            3 => Some(SectionKind::Reduction),
            4 => Some(SectionKind::Clustering),
            5 => Some(SectionKind::IdMap),
            6 => Some(SectionKind::Text),
            _ => None,
        }
    }
}

/// Writer for one segment file.
///
/// Usage: `create` → `section`* → `finish`. Dropping a writer without
/// `finish` leaves a file with a zero section count that readers will
/// reject as missing its sections — partial writes never masquerade as
/// complete segments.
#[derive(Debug)]
pub struct SegmentWriter {
    out: BufWriter<File>,
    path: PathBuf,
    sections: u32,
}

impl SegmentWriter {
    /// Create `path` (truncating any existing file) and write the fixed
    /// header with a zero section count; `finish` patches the real count.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file cannot be created or the
    /// header cannot be written.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        let file = File::create(path).map_err(|e| StoreError::io(path, e))?;
        let mut writer = SegmentWriter {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            sections: 0,
        };
        writer.put(&MAGIC)?;
        writer.put(&VERSION_MAJOR.to_le_bytes())?;
        writer.put(&VERSION_MINOR.to_le_bytes())?;
        writer.put(&0u32.to_le_bytes())?; // section count, patched by finish
        Ok(writer)
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.out
            .write_all(bytes)
            .map_err(|e| StoreError::io(&self.path, e))
    }

    /// Write one whole section: kind tag, name length, payload length,
    /// payload CRC32, name, payload.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Invalid`] when the name is longer than
    /// `u32::MAX` bytes and [`StoreError::Io`] on write failure.
    pub fn section(
        &mut self,
        kind: SectionKind,
        name: &str,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        let name_len = u32::try_from(name.len()).map_err(|_| {
            StoreError::invalid(&self.path, name, "section name longer than u32::MAX bytes")
        })?;
        self.put(&kind.tag().to_le_bytes())?;
        self.put(&name_len.to_le_bytes())?;
        self.put(&(payload.len() as u64).to_le_bytes())?;
        self.put(&crc32::checksum(payload).to_le_bytes())?;
        self.put(name.as_bytes())?;
        self.put(payload)?;
        self.sections += 1;
        Ok(())
    }

    /// Patch the section count, flush, and sync the file to disk.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on seek/flush/sync failure.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.out
            .seek(SeekFrom::Start(FILE_HEADER_LEN - 4))
            .map_err(|e| StoreError::io(&self.path, e))?;
        let count = self.sections;
        self.put(&count.to_le_bytes())?;
        self.out
            .flush()
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.out
            .get_ref()
            .sync_all()
            .map_err(|e| StoreError::io(&self.path, e))?;
        Ok(())
    }
}

/// One fully verified section of an opened segment.
#[derive(Debug, Clone)]
pub struct Section {
    kind: SectionKind,
    name: String,
    payload: Vec<u8>,
}

impl Section {
    /// The payload codec tag.
    pub fn kind(&self) -> SectionKind {
        self.kind
    }

    /// The section's role name (e.g. `histograms`, `reduced-cost`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The checksum-verified payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }
}

/// A little-endian cursor over the segment byte buffer that turns every
/// shortfall into [`StoreError::Truncated`].
struct Cursor<'a> {
    buf: &'a [u8],
    offset: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let available = self.buf.len() - self.offset;
        if n > available {
            return Err(StoreError::Truncated {
                path: self.path.to_path_buf(),
                what: what.to_owned(),
                expected: n as u64,
                got: available as u64,
            });
        }
        // bounds: the shortfall check above guarantees offset + n <= len.
        let slice = &self.buf[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    fn u16(&mut self, what: &str) -> Result<u16, StoreError> {
        let bytes = self.take(2, what)?;
        let mut raw = [0u8; 2];
        raw.copy_from_slice(bytes);
        Ok(u16::from_le_bytes(raw))
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let bytes = self.take(4, what)?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let bytes = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }
}

/// Validating reader for one segment file.
///
/// `open_with` reads the whole file, then verifies magic, version window,
/// every header field against the remaining byte count, and every
/// payload against its CRC32 — a [`SegmentReader`] in hand means every
/// byte it serves was checksum-verified.
#[derive(Debug)]
pub struct SegmentReader {
    path: PathBuf,
    sections: Vec<Section>,
}

impl SegmentReader {
    /// Open and fully verify the segment at `path`, probing `faults`
    /// before the file read: an injected
    /// [`Fault::Io`](emd_faultkit::Fault) surfaces as the same
    /// [`StoreError::Io`] a real read failure would, which is how the
    /// fault-injection tests prove every read maps to a typed error.
    ///
    /// Emits `store.bytes_read` and `store.sections_verified` counters
    /// when an obs recording is active.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file cannot be read,
    /// [`StoreError::BadMagic`] / [`StoreError::VersionSkew`] for foreign
    /// or incompatible files, [`StoreError::Truncated`] when any declared
    /// length overruns the file, [`StoreError::UnknownSection`] for
    /// unrecognized kind tags, [`StoreError::ChecksumMismatch`] when a
    /// payload fails CRC verification, and [`StoreError::Invalid`] for
    /// non-UTF-8 section names.
    pub fn open_with(
        path: &Path,
        faults: &dyn emd_faultkit::FaultInjector,
    ) -> Result<Self, StoreError> {
        let _span = emd_obs::span_with(|| format!("store.read_segment({})", path.display()));
        if let Some(emd_faultkit::Fault::Io) = faults.check(emd_faultkit::Site::StoreRead) {
            return Err(StoreError::io(path, StoreError::injected_read_fault()));
        }
        let buf = std::fs::read(path).map_err(|e| StoreError::io(path, e))?;
        emd_obs::counter_add("store.bytes_read", buf.len() as u64);
        let mut cursor = Cursor {
            buf: &buf,
            offset: 0,
            path,
        };
        let magic = cursor.take(MAGIC.len(), "file magic")?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        let major = cursor.u16("version major")?;
        let minor = cursor.u16("version minor")?;
        if major != VERSION_MAJOR || minor > VERSION_MINOR {
            return Err(StoreError::VersionSkew {
                path: path.to_path_buf(),
                major,
                minor,
            });
        }
        let count = cursor.u32("section count")?;
        // Nothing is reserved for `count`: it is untrusted until the
        // sections have been read, and a damaged one must end as the typed
        // `Truncated` below, not as a failed allocation here.
        let mut sections = Vec::new();
        for index in 0..count {
            let what = format!("section {index} header");
            let tag = cursor.u32(&what)?;
            let kind = SectionKind::from_tag(tag).ok_or(StoreError::UnknownSection {
                path: path.to_path_buf(),
                kind: tag,
            })?;
            let name_len = cursor.u32(&what)? as usize;
            let payload_len = cursor.u64(&what)?;
            let stored_crc = cursor.u32(&what)?;
            let name_bytes = cursor.take(name_len, &format!("section {index} name"))?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| {
                    StoreError::invalid(
                        path,
                        format!("section {index}"),
                        "section name is not valid UTF-8",
                    )
                })?
                .to_owned();
            let payload_len = usize::try_from(payload_len).map_err(|_| StoreError::Truncated {
                path: path.to_path_buf(),
                what: format!("section `{name}` payload"),
                expected: payload_len,
                got: (buf.len() - cursor.offset) as u64,
            })?;
            let payload = cursor.take(payload_len, &format!("section `{name}` payload"))?;
            let actual_crc = crc32::checksum(payload);
            if actual_crc != stored_crc {
                return Err(StoreError::ChecksumMismatch {
                    path: path.to_path_buf(),
                    section: name,
                    expected: stored_crc,
                    got: actual_crc,
                });
            }
            sections.push(Section {
                kind,
                name,
                payload: payload.to_vec(),
            });
        }
        if cursor.offset != buf.len() {
            return Err(StoreError::invalid(
                path,
                "<trailer>",
                format!(
                    "{} trailing bytes after the last section",
                    buf.len() - cursor.offset
                ),
            ));
        }
        emd_obs::counter_add("store.sections_verified", u64::from(count));
        Ok(SegmentReader {
            path: path.to_path_buf(),
            sections,
        })
    }

    /// The file this reader was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All verified sections, in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Fail closed on a section name outside `allowed`. Names are outside
    /// the per-section payload checksum, so a bit flip in the name of an
    /// *optional* section (the clustering) would otherwise make it
    /// silently invisible; and an unknown section is a format extension
    /// this build cannot honour, not something to skip.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Invalid`] naming the first unexpected
    /// section.
    pub fn allow_only(&self, allowed: &[&str]) -> Result<(), StoreError> {
        match self.sections.iter().find(|s| !allowed.contains(&s.name())) {
            Some(section) => Err(StoreError::invalid(
                &self.path,
                section.name(),
                "unexpected section name for this segment",
            )),
            None => Ok(()),
        }
    }

    /// Look up a section by role name.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingSection`] when no section carries
    /// `name`.
    pub fn section(&self, name: &str) -> Result<&Section, StoreError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| StoreError::MissingSection {
                path: self.path.clone(),
                section: name.to_owned(),
            })
    }

    /// Look up a section by name and require a specific codec kind.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingSection`] when absent and
    /// [`StoreError::Invalid`] when present with the wrong kind tag.
    pub fn typed_section(&self, kind: SectionKind, name: &str) -> Result<&Section, StoreError> {
        let section = self.section(name)?;
        if section.kind != kind {
            return Err(StoreError::invalid(
                &self.path,
                name,
                format!("expected kind {:?}, found {:?}", kind, section.kind),
            ));
        }
        Ok(section)
    }

    /// Look up an *optional* section by name and codec kind.
    ///
    /// Returns `Ok(None)` when no section carries `name` — the accessor
    /// for sections whose absence is a valid state (e.g. a sealed
    /// segment written without a clustering).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Invalid`] when a section named `name`
    /// exists but carries the wrong kind tag.
    pub fn maybe_section(
        &self,
        kind: SectionKind,
        name: &str,
    ) -> Result<Option<&Section>, StoreError> {
        match self.sections.iter().find(|s| s.name == name) {
            None => Ok(None),
            Some(section) if section.kind == kind => Ok(Some(section)),
            Some(section) => Err(StoreError::invalid(
                &self.path,
                name,
                format!("expected kind {:?}, found {:?}", kind, section.kind),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("emd-store-segment-{}-{name}", std::process::id()));
        dir
    }

    #[test]
    fn roundtrip_two_sections() {
        let path = temp_path("roundtrip.seg");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.section(SectionKind::CostMatrix, "cost", &[1, 2, 3, 4])
            .unwrap();
        w.section(SectionKind::HistogramArena, "histograms", &[9, 8, 7])
            .unwrap();
        w.finish().unwrap();

        let r = SegmentReader::open_with(&path, &emd_faultkit::NoFaults).unwrap();
        assert_eq!(r.sections().len(), 2);
        assert_eq!(r.section("cost").unwrap().payload(), &[1, 2, 3, 4]);
        let h = r
            .typed_section(SectionKind::HistogramArena, "histograms")
            .unwrap();
        assert_eq!(h.payload(), &[9, 8, 7]);
        assert!(matches!(
            r.section("nope"),
            Err(StoreError::MissingSection { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_foreign_file() {
        let path = temp_path("foreign.bin");
        std::fs::write(&path, b"definitely not a segment").unwrap();
        assert!(matches!(
            SegmentReader::open_with(&path, &emd_faultkit::NoFaults),
            Err(StoreError::BadMagic { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_version_skew() {
        let path = temp_path("skew.seg");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open_with(&path, &emd_faultkit::NoFaults),
            Err(StoreError::VersionSkew {
                major: 2,
                minor: 0,
                ..
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_payload_byte_is_checksum_mismatch() {
        let path = temp_path("flip.seg");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.section(SectionKind::CostMatrix, "cost", &[10, 20, 30])
            .unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open_with(&path, &emd_faultkit::NoFaults),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_truncation_error() {
        let path = temp_path("trunc.seg");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.section(SectionKind::CostMatrix, "cost", &[0u8; 64])
            .unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(matches!(
            SegmentReader::open_with(&path, &emd_faultkit::NoFaults),
            Err(StoreError::Truncated { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damaged_section_count_is_truncation_not_an_allocation() {
        let path = temp_path("count.seg");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.section(SectionKind::CostMatrix, "cost", &[1, 2, 3])
            .unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The section count is the last field of the 16-byte file header.
        bytes[12..16].copy_from_slice(&0x5A00_0005u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open_with(&path, &emd_faultkit::NoFaults),
            Err(StoreError::Truncated { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_writer_leaves_unreadable_sections() {
        let path = temp_path("unfinished.seg");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.section(SectionKind::CostMatrix, "cost", &[1, 2, 3])
            .unwrap();
        drop(w); // no finish(): count stays zero
        let r = SegmentReader::open_with(&path, &emd_faultkit::NoFaults);
        // Either the buffered bytes never hit disk (truncated/invalid) or
        // the zero count exposes the section bytes as trailing garbage.
        assert!(r.is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
