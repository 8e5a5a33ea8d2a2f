//! The transportation solver's cross-module suites: property tests
//! against an independent oracle, the pinned warm chains, the Vogel
//! and repair-scan parity checks, the certificate properties and the potentials an
//! `EmdContext` learns. They reach into the
//! crate-private solver, so they compile into the unit-test build of
//! `emd-core` (`src/lib.rs` declares this module under `#[cfg(test)]`)
//! rather than as integration tests; their names run
//! `transport::<suite>::<test>`.

mod certificates;
mod learned_potentials;
mod proptest_degenerate;
mod proptest_solvers;
mod scan_parity;
mod ssp;
mod vogel_parity;
mod warm_chain;
mod warm_start;
