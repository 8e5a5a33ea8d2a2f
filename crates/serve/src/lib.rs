#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-serve
//!
//! A long-running query server over an immutable flexemd index
//! snapshot — the serving layer the paper's batch experiments
//! (Wichterich et al., SIGMOD 2008) never needed, but any deployment of
//! EMD similarity search does.
//!
//! Like the rest of the workspace this crate is **zero-dependency**:
//! the HTTP/1.1 surface is a strict std-only reader/writer
//! ([`http`]), JSON rides the workspace's one codec (`emd-json`), and concurrency is a
//! fixed worker pool over `std::net` + `std::sync`.
//!
//! The moving parts:
//!
//! - [`server`] — accept loop, bounded queue, worker pool, admission
//!   control (shed with 429 beyond [`ServeConfig::max_inflight`]),
//!   per-request panic isolation, `/metrics` aggregation, graceful
//!   drain.
//! - [`spec`] — the [`QuerySpec`] vocabulary (`k`, `epsilon`,
//!   `deadline_ms`, `max_pivots`) shared verbatim by `flexemd query`
//!   and the HTTP API.
//! - [`ingest`] — the single-writer apply loop behind a writable
//!   server's insert / remove / compact routes.
//! - [`http`] / [`error`] — the typed protocol (and its one-request
//!   client, [`http::http_call`]) and failure taxonomy.

pub mod error;
pub mod http;
pub mod ingest;
pub mod server;
pub mod spec;

/// [`http::http_call`] under its old path, which `benchmark/` still
/// imports. Goes once the benchmark is repointed.
pub mod loadgen {
    pub use crate::http::http_call;
}

pub use error::ServeError;
pub use http::{Method, Request, Response};
pub use ingest::IngestState;
pub use server::{RunningServer, ServeConfig, Server, ShutdownHandle, Snapshot, RESPONSE_SCHEMA};
pub use spec::{QuerySpec, DEFAULT_K};
