#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-store
//!
//! Persistent index store for the flexemd engine: checksummed on-disk
//! segments for database snapshots, reduction matrices, reduced cost
//! matrices and precomputed reduced histogram arenas, tied together by a
//! JSON manifest (`flexemd-store/v1`).
//!
//! Section 4 of the paper treats reduction as **offline preprocessing**:
//! the filter step of multistep query processing works purely on
//! pre-reduced data. This crate makes that preprocessing a durable
//! artifact — build the index once, then *open* it (O(read)) instead of
//! rebuilding it (O(reduce + LP)) on every process start.
//!
//! Layering:
//!
//! * [`segment`] — the binary container: magic, version, typed sections,
//!   per-section CRC32; [`SegmentWriter`] / [`SegmentReader`].
//! * [`sections`] — typed payload codecs that decode **through the
//!   engine constructors**, so stored data re-passes histogram mass
//!   normalization, cost-matrix and Definition 3 validation on open.
//! * [`manifest`] — the `index.json` document naming the segments.
//! * [`index`] — directory-level [`save_index`] / [`open_index`]
//!   returning validated [`StoredIndex`] artifacts.
//!
//! The error contract is central: **corruption never surfaces as a
//! wrong query answer**. Truncation, bit flips, version skew, missing
//! sections, cross-section disagreement and a tampered reduced cost
//! matrix each map to a typed [`StoreError`] on the open path.
//!
//! The manifest JSON is read and written through `emd-json`, the
//! workspace's one JSON codec, re-exported here as [`json`].
//!
//! When an obs recording is active, opening an index emits a
//! `store.open` span and `store.bytes_read` / `store.sections_verified`
//! counters.

pub mod crc32;
mod error;
pub mod index;
pub mod manifest;
pub mod sections;
pub mod segment;
pub mod wal;

/// `emd-json` under its old path: `benchmark/` compiles against
/// `emd_store::json::{self, Value}`. Goes once the benchmark is repointed.
pub use ::emd_json as json;
pub use error::StoreError;
pub use index::{open_index, open_index_with, save_index, save_index_with, StoredIndex};
pub use manifest::{Manifest, ManifestReduction, MANIFEST_FILE, SCHEMA};
pub use sections::StoredClustering;
pub use segment::{SectionKind, SegmentReader, SegmentWriter};
pub use wal::{TornTail, WalRecord, WalReplay, WalWriter};
