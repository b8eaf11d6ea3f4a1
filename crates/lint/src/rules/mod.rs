//! The five rule families of `rebootlint`.

pub mod alloc;
pub mod determinism;
pub mod eventloop;
pub mod locks;
pub mod panics;
