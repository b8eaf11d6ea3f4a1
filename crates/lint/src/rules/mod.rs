//! The seven rule families of `rebootlint`.

pub mod alloc;
pub mod determinism;
pub mod eventloop;
pub mod families;
pub mod freeze;
pub mod locks;
pub mod panics;
