//! Test support for the reduction integration tests.

pub mod exhaustive;
