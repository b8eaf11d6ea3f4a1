//! Workspace-root helper library for the `rebooting-models` reproduction.
//!
//! The actual functionality lives in the workspace crates; this package
//! owns the repository-level `examples/` and `tests/` directories plus
//! [`workload`], the generator the integration tests share.

pub mod workload;

/// README.md's Rust blocks, compiled and run as doctests so the README
/// cannot name API that no longer exists.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
