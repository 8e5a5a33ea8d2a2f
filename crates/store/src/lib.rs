#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-store
//!
//! A stub. The file formats of an index directory are private to
//! `emd_query::durable`; this crate keeps only the path `benchmark/`
//! still imports, and goes once the benchmark is repointed.

/// `emd-json` under its old path: `benchmark/` compiles against
/// `emd_store::json::{self, Value}`. Goes once the benchmark is repointed.
pub use ::emd_json as json;
