//! # dpx-runtime — deterministic parallel primitives for DPClustX
//!
//! The workspace parallelizes two shapes of work — data-chunk count–merge
//! (contingency counting) and bench-cell sweeps — and both must stay
//! *bit-identical* to their sequential forms: DP releases are part of the
//! privacy proof, so "parallel" may never mean "different". Requests are
//! served concurrently by one engine only, the resident daemon in
//! `dpx-serve`, whose workers each run one request on one thread; the
//! engine's stages themselves are single-threaded.
//!
//! This crate holds the primitives that make that guarantee by
//! construction, below every other workspace crate so `dpx-data` and
//! `dpclustx` can share them:
//!
//! * [`ordered_parallel_map`] — apply a pure function to each item on worker
//!   threads, results returned in input order (the fig5/fig6 bench sweeps;
//!   `dpclustx::parallel` re-exports it).
//! * [`chunk_worker_reduce`] — the counts kernel's reduction: fixed-granule
//!   chunks claimed by workers off an atomic counter, each worker folding
//!   into **one reusable accumulator** (per-thread table reuse), partials
//!   combined with a balanced [`pairwise_merge`] tree. With an associative,
//!   commutative merge (e.g. element-wise integer addition) the reduction is
//!   exactly the sequential result for every thread count.
//!
//! Robust serving adds two more process-level primitives, also below every
//! other crate so the DP layer and the pipeline can share them:
//!
//! * [`cancel`] — a cooperative [`CancelToken`] with an optional deadline,
//!   polled at pipeline stage boundaries (the privacy-clean stopping points).
//! * [`faultpoint`] — named, environment-armed crash points
//!   (`ledger.pre_fsync`, `service.pre_spend`, …) that let a test harness
//!   kill a serving process at one exact state and assert recovery.
//!
//! The serving hot path amortizes its per-request costs with two more
//! coordination primitives, value-agnostic so the DP and engine crates can
//! apply them to grants and count tables respectively:
//!
//! * [`batch`] — a leader/follower [`Batcher`]: the first submitter commits
//!   the whole queue in one `process` call (group commit), every submitter
//!   still acks only after its own item is committed.
//! * [`singleflight`] — a [`SingleFlight`] key set: one builder per key,
//!   followers block on the flight instead of duplicating the build, and a
//!   panicking builder releases the key instead of wedging them.
//!
//! The resident serving daemon — the one engine that runs requests
//! concurrently — adds one admission primitive:
//!
//! * [`queue`] — a [`BoundedTenantQueue`]: bounded per-tenant lanes with
//!   weighted round-robin dequeue, so backpressure is per tenant and one
//!   noisy tenant cannot starve the rest of the rotation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cancel;
pub mod faultpoint;
pub mod parallel;
pub mod queue;
pub mod singleflight;

pub use batch::{BatchWindow, Batcher, Submit};
pub use cancel::{CancelToken, REASON_DEADLINE};
pub use parallel::{chunk_worker_reduce, default_threads, ordered_parallel_map, pairwise_merge};
pub use queue::{BoundedTenantQueue, PushError};
pub use singleflight::{Claim, FlightGuard, SingleFlight};
