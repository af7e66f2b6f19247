//! # dpx-serve — the concurrent explanation service for DPClustX
//!
//! The demonstration paper presents DPClustX as an interactive *system*: many
//! analysts point sessions at shared sensitive datasets and ask for private
//! explanations. This crate is the serving layer behind that picture:
//!
//! * [`DatasetRegistry`] — named datasets, each with the state concurrent
//!   requests must share: the `Arc`'d data, one
//!   [`SharedCountsCache`](dpclustx::engine::SharedCountsCache) (requests
//!   over the same clustering reuse each other's one-pass count tables), and
//!   one [`SharedAccountant`](dpx_dp::SharedAccountant) whose check-and-spend
//!   is a single atomic operation — there is no TOCTOU window through which
//!   two racing requests could jointly breach the dataset's ε cap.
//! * [`ExplainRequest`] / [`ExplainResponse`] — the JSONL wire format. Each
//!   request carries its own seed, ε split, weights, and Stage-2 kernel;
//!   each response carries the explanation plus per-stage observer summaries,
//!   serialized so that sorted response lines are byte-identical for every
//!   worker count (wall-clock and scheduling-dependent fields are excluded).
//! * [`ExplainService`] — the per-request executor: validate, reserve the
//!   request's whole ε, run the staged engine, build the response.
//!   `{"op": "append"}` requests grow a registered dataset in place — they
//!   spend no ε, refresh every served clustering's cached counts
//!   incrementally via
//!   [`ClusteredCounts::apply_delta`](dpx_data::contingency::ClusteredCounts::apply_delta)
//!   (O(|delta|), never a rebuild), and run one at a time per registry.
//! * [`Daemon`] — the one engine that runs requests concurrently, for every
//!   transport: bounded per-tenant queues, typed admission rejects, rolling
//!   metrics, a per-request unwind guard, and graceful drain. Its line
//!   transport ([`serve_lines`], behind `--requests` and stdin) is
//!   closed-loop — at most `queue_capacity` requests unanswered, every
//!   append a barrier, no rolling-latency deadline pricing — so a request
//!   file's answers are a function of the file alone, for any worker count.
//!   The socket transport ([`serve_socket`]) keeps full admission control.
//!
//! Crash safety rides on the DP crate's sharded write-ahead ledgers: a
//! durable registry ([`DatasetRegistry::with_shards`]) gives every dataset
//! its own accountant shard with its own WAL file, each grant fsynced
//! before `try_spend` reports success and each shard recovered
//! independently on restart. [`DaemonConfig::granted`] lets a restarted
//! daemon skip re-spending for recovered request ids,
//! [`DaemonConfig::checkpoint_every`] bounds replay by compacting each
//! shard's WAL to a checkpoint record, and every response is handed to the
//! transport's reply sink as it is produced, so a crash loses at most the
//! in-flight lines. Under contention the ledger **group-commits**:
//! concurrent spenders' grants are appended and fsynced as one batch by a
//! leader thread (see [`GroupCommitPolicy`](dpx_dp::GroupCommitPolicy)),
//! every spend still acking only after *its own* record is durable.
//! Requests are deadline-bounded cooperatively: a
//! [`CancelToken`](dpx_runtime::CancelToken) minted before the spend bounds
//! time queued in the commit window, time blocked on another request's
//! in-flight counts build, and the engine's stage boundaries. A request that
//! expires *before* its grant commits answers `ok: false` with reason
//! `deadline_exceeded` and spends no ε; one that expires later keeps its
//! reserved ε spent.
//!
//! `dpclustx-cli serve-daemon` wires the daemon to stdin, a request file, or
//! a Unix socket; `dpclustx-cli serve-batch` is the same command with a
//! request file required: JSONL requests in, JSONL responses (sorted by id)
//! out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abuse;
pub mod daemon;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod request;
pub mod service;

pub use abuse::{
    AbuseReport, BatteryOutcome, DeadlineStormConfig, InterferenceConfig, OverloadStormConfig,
    ReplayFloodConfig, StormConfig,
};
pub use daemon::{
    serve_lines, serve_socket, Daemon, DaemonConfig, DaemonReply, DrainSummary, LineOutcome,
    ReplySink,
};
pub use dpx_dp::shards::{AccountantShards, ShardConfig};
pub use json::Json;
pub use metrics::MetricsRegistry;
pub use registry::{
    derive_labels, AppendSummary, DatasetEntry, DatasetRegistry, COUNTS_CACHE_MAX_ENTRIES,
};
pub use request::{
    reject_reason, ExplainRequest, ExplainResponse, RequestOp, ServedExplanation, ServedOutcome,
    StageSummary, WireReject,
};
pub use service::{parse_requests_lenient, reason, ExplainService};
