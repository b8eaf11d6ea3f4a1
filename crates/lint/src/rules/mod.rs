//! The three rule families of `rebootlint`.

pub mod determinism;
pub mod eventloop;
pub mod panics;
