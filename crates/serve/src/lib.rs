#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # emd-serve
//!
//! A long-running query server (and its load-generation harness) over
//! an immutable flexemd index snapshot — the serving layer the paper's
//! batch experiments (Wichterich et al., SIGMOD 2008) never needed, but
//! any deployment of EMD similarity search does.
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
//!   `deadline_ms`, `max_pivots`) shared verbatim by `flexemd query`,
//!   the HTTP API, and the load generator.
//! - [`loadgen`] — a deterministic closed-loop client emitting a
//!   schema-versioned [`LoadgenReport`].
//! - [`http`] / [`error`] — the typed protocol and failure taxonomy.

pub mod error;
pub mod http;
pub mod ingest;
pub mod loadgen;
pub mod server;
pub mod spec;

pub use error::ServeError;
pub use http::{Limits, Method, Request, Response};
pub use ingest::IngestState;
pub use loadgen::{LoadgenConfig, LoadgenReport, REPORT_SCHEMA};
pub use server::{RunningServer, ServeConfig, Server, ShutdownHandle, Snapshot, RESPONSE_SCHEMA};
pub use spec::{QuerySpec, DEFAULT_K};
