//! Test support shared by the transport integration tests.

pub mod ssp;
