//! Workspace-root helper library for the `rebooting-models` reproduction.
//!
//! The actual functionality lives in the workspace crates; this package
//! owns the repository-level `examples/` and `tests/` directories plus
//! [`workload`], the generator the integration tests share.

pub mod workload;
