//! Deterministic parallel primitives, re-exported from [`dpx_runtime`].
//!
//! The ordered map started life in the bench crate as a sweep helper and was
//! promoted here by the staged engine; the flat counting kernel then needed
//! the same thread machinery below `dpx-data`, so the implementation moved
//! down into the `dpx-runtime` crate. This module re-exports it so existing
//! `dpclustx::parallel::{ordered_parallel_map, default_threads}` callers
//! keep working unchanged.
//!
//! See [`dpx_runtime::parallel`] for the determinism contract (pure
//! per-item work, input-order results, panic propagation).

pub use dpx_runtime::parallel::{default_threads, ordered_parallel_map};
