//! `emd-lint`: the repo-local static-analysis engine behind
//! `cargo xtask lint`.
//!
//! The engine lexes every scanned source file into a total token stream
//! ([`lexer`]), derives per-file context — `#[cfg(test)]` masking,
//! annotation lookups, doc blocks — ([`source`]), and runs lint passes
//! over tokens-with-context ([`passes`]) instead of line regexes, so
//! comments, strings, raw strings and macro bodies can neither mask nor
//! fabricate findings. Results aggregate into a [`report::LintReport`]
//! with hard findings plus per-class, per-crate budgeted site counts,
//! ratcheted against `lint-budget.toml` ([`budget`]) and exportable as
//! schema-versioned JSON (`flexemd-lint/v1`).
//!
//! [`stats`] is the size counter behind `cargo xtask stats`: non-test
//! lines per crate, `pub` item lines per library crate and the CLI's
//! settable values, each table printed under its rule.
//!
//! See `DESIGN.md` §7 for the passes and the annotation grammar.

#![forbid(unsafe_code)]

pub mod budget;
pub mod engine;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod source;
pub mod stats;
