//! Deterministic parallel primitives, re-exported from [`dpx_runtime`].
//!
//! The implementation lives in the `dpx-runtime` crate, below `dpx-data`, so
//! the flat counting kernel can use it. This module re-exports it so
//! `dpclustx::parallel::{ordered_parallel_map, default_threads}` callers (the
//! bench sweeps, the CLI) keep working unchanged.
//!
//! See [`dpx_runtime::parallel`] for the determinism contract (pure
//! per-item work, input-order results, panic propagation).

pub use dpx_runtime::parallel::{default_threads, ordered_parallel_map};
