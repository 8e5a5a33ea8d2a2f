//! The transportation solver's cross-module suites: property tests
//! against an independent oracle, the pinned warm chains, the Vogel
//! parity check and the certificate properties. They reach into the
//! crate-private solver, so they compile into the unit-test build of
//! `emd-core` (`src/lib.rs` declares this module under `#[cfg(test)]`)
//! rather than as integration tests; their names run
//! `transport::<suite>::<test>`.

mod certificates;
mod proptest_degenerate;
mod proptest_solvers;
mod ssp;
mod vogel_parity;
mod warm_chain;
mod warm_start;
