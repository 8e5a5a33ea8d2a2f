//! The bytes a fixed small index writes, pinned: every section's stored
//! CRC-32, the WAL frame's CRC-32 and every file's length are literals.
//! A change to the checksum kernel or a codec that moves one digest — and
//! so could no longer open an index an earlier build wrote — fails here.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::sync::Arc;

use emd_core::{ground, Histogram};
use emd_query::Database;
use emd_reduction::{CombiningReduction, PersistedReduction, ReducedEmd};

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    usize::try_from(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())).unwrap()
}

/// `(name, stored crc)` of every section of a segment file, read straight
/// from the container layout: a 16-byte file header, then per section
/// `kind u32 | name len u32 | payload len u64 | crc u32 | name | payload`.
fn section_crcs(path: &Path) -> Vec<(String, u32)> {
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(&bytes[..8], b"FXEMDSEG");
    let count = u32_at(&bytes, 12);
    let mut at = 16;
    let mut sections = Vec::new();
    for _ in 0..count {
        let name_len = usize::try_from(u32_at(&bytes, at + 4)).unwrap();
        let payload_len = u64_at(&bytes, at + 8);
        let crc = u32_at(&bytes, at + 16);
        let name = std::str::from_utf8(&bytes[at + 20..at + 20 + name_len]).unwrap();
        sections.push((name.to_owned(), crc));
        at += 20 + name_len + payload_len;
    }
    assert_eq!(
        at,
        bytes.len(),
        "{} holds only its sections",
        path.display()
    );
    sections
}

fn sections(pairs: &[(&str, u32)]) -> Vec<(String, u32)> {
    pairs.iter().map(|&(n, c)| (n.to_owned(), c)).collect()
}

#[test]
fn a_fixed_index_writes_pinned_digests_and_lengths() {
    let dir = std::env::temp_dir().join(format!("emd-pinned-digests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let histograms = [
        [0.25, 0.25, 0.25, 0.25],
        [0.5, 0.125, 0.125, 0.25],
        [0.0, 0.75, 0.0, 0.25],
    ]
    .map(|bins| Histogram::new(bins.to_vec()).unwrap())
    .to_vec();
    let cost = Arc::new(ground::linear(4).unwrap());
    let reduction = CombiningReduction::new(vec![0, 0, 1, 1], 2).unwrap();
    let reduced = ReducedEmd::new(&cost, reduction).unwrap();
    let bundle = PersistedReduction::precompute("pinned", reduced, &histograms).unwrap();
    Database::new(histograms, cost)
        .unwrap()
        .save(&dir, "pinned", &[bundle])
        .unwrap();

    let length = |file: &str| std::fs::metadata(dir.join(file)).unwrap().len();
    assert_eq!(length("CURRENT"), 21);
    assert_eq!(length("base.seg"), 322);
    assert_eq!(length("sealed-1.seg"), 222);
    assert_eq!(length("wal-1.log"), 52);

    assert_eq!(
        section_crcs(&dir.join("base.seg")),
        sections(&[
            ("cost", 0x826D_CDA3),
            ("r1", 0xC5AD_E473),
            ("r2", 0xC5AD_E473),
            ("name", 0xE527_E5E7),
        ])
    );
    assert_eq!(
        section_crcs(&dir.join("sealed-1.seg")),
        sections(&[("histograms", 0x9B7F_E465), ("external-ids", 0x3C58_CBFE)])
    );
    // The WAL: a 12-byte header, then the compact-epoch frame, whose
    // header is `kind u32 | lsn u64 | payload len u64 | crc u32` and whose
    // payload is `epoch u64 | next id u64`.
    let wal = std::fs::read(dir.join("wal-1.log")).unwrap();
    assert_eq!(u32_at(&wal, 12 + 20), 0xA000_25CE);

    // And the directory opens: every digest verifies.
    let opened = Database::open(&dir).unwrap();
    assert_eq!(opened.database.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}
