#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-store
//!
//! The file formats of a flexemd index directory: checksummed segment
//! files and the write-ahead log. Which files a directory holds, and
//! how they are written and read back, is `emd_query::durable`'s.
//!
//! Section 4 of the paper treats reduction as **offline preprocessing**:
//! the filter step of multistep query processing works purely on
//! pre-reduced data. An index keeps only what that data cannot be
//! derived from — the histograms, the cost matrix `C` and the
//! reductions `R1`/`R2` — and rederives `C'` and the reduced arena on
//! open.
//!
//! Layering:
//!
//! * [`segment`] — the binary container: magic, version, typed sections,
//!   per-section CRC32; [`SegmentWriter`] / [`SegmentReader`].
//! * [`sections`] — typed payload codecs that decode **through the
//!   engine constructors**, so stored data re-passes histogram mass
//!   normalization, cost-matrix and Definition 3 validation on open.
//! * [`wal`] — the append-only, checksummed mutation log.
//!
//! The error contract is central: **corruption never surfaces as a
//! wrong query answer**. Truncation, bit flips, version skew, missing
//! sections and cross-section disagreement each map to a typed
//! [`StoreError`] on the open path.
//!
//! When an obs recording is active, segment and WAL reads add to the
//! `store.bytes_read` / `store.sections_verified` counters.

pub mod crc32;
mod error;
pub mod sections;
pub mod segment;
pub mod wal;

/// `emd-json` under its old path: `benchmark/` compiles against
/// `emd_store::json::{self, Value}`. Goes once the benchmark is repointed.
pub use ::emd_json as json;
pub use error::StoreError;
pub use sections::StoredClustering;
pub use segment::{SectionKind, SegmentReader, SegmentWriter};
pub use wal::{TornTail, WalRecord, WalReplay, WalWriter};
