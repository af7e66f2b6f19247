//! # dpclustx-cli — the DPClustX demonstration front end
//!
//! The SIGMOD demo presents DPClustX as an interactive system: load a
//! sensitive table, pick a clustering method and a privacy budget, and read
//! the private explanation. This crate is that system as a CLI:
//!
//! ```text
//! dpclustx-cli generate --dataset diabetes --rows 20000 --out patients
//! dpclustx-cli explain  --data patients.csv --schema patients.schema \
//!                   --method dp-kmeans --clusters 3 --eps-hist 0.1
//! dpclustx-cli evaluate --data patients.csv --schema patients.schema --clusters 3
//! dpclustx-cli rank     --data patients.csv --schema patients.schema --clusters 3 --cluster 0
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod repl;

use std::fmt;

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Bad command-line usage; the string is a user-facing message.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Data-layer failure (CSV/schema parsing, domain violations).
    Data(dpx_data::DataError),
    /// DP pipeline failure.
    Dp(dpx_dp::DpError),
    /// Durable ε ledger failure (corrupt file, wrong magic, failed fsync).
    Ledger(dpx_dp::LedgerError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            // The kind keeps NotFound vs PermissionDenied (etc.)
            // distinguishable once the error is flattened to a log line.
            CliError::Io(e) => write!(f, "io error ({:?}): {e}", e.kind()),
            CliError::Data(e) => write!(f, "data error: {e}"),
            CliError::Dp(e) => write!(f, "privacy error: {e}"),
            CliError::Ledger(e) => write!(f, "ledger error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<dpx_data::DataError> for CliError {
    fn from(e: dpx_data::DataError) -> Self {
        CliError::Data(e)
    }
}

impl From<dpx_dp::DpError> for CliError {
    fn from(e: dpx_dp::DpError) -> Self {
        CliError::Dp(e)
    }
}

impl From<dpx_dp::LedgerError> for CliError {
    fn from(e: dpx_dp::LedgerError) -> Self {
        CliError::Ledger(e)
    }
}

/// The usage text printed by `dpclustx-cli help`.
pub const USAGE: &str = "\
dpclustx — differentially private explanations for clusters

USAGE:
  dpclustx-cli generate --dataset <diabetes|census|stackoverflow> [--rows N]
                    [--groups K] [--seed S] --out <prefix>
      Writes <prefix>.csv and <prefix>.schema with synthetic data.

  dpclustx-cli explain  --data <file.csv> --schema <file.schema> --clusters K
                    [--method <kmeans|dp-kmeans|kmodes|agglomerative|gmm>]
                    [--clust-eps E] [--eps-cand E] [--eps-comb E] [--eps-hist E]
                    [--k N] [--weights INT,SUF,DIV] [--seed S] [--timings]
                    [--stage2-kernel <seq|counter>]
      Clusters the data and prints the DP explanation with a privacy audit.
      --timings additionally prints the staged-engine report: per-stage wall
      time, ε charged per ledger label, and stage metrics.
      --stage2-kernel picks the Stage-2 search: 'seq' streams Gumbel noise
      from the session RNG (default; reproduces historical seeds), 'counter'
      derives per-combination noise from a keyed counter PRF (enables exact
      pruning). Both sweep on one thread.

  dpclustx-cli evaluate ... (same flags as explain)
      Additionally compares against the non-private TabEE reference
      (requires raw data access; offline analysis only).

  dpclustx-cli session  --data <file.csv> --schema <file.schema> [--budget E]
                    [--stage2-kernel <seq|counter>]
      Interactive analyst session: every command spends one shared budget.

  dpclustx-cli report   ... --report-out <file.md> [--title T]
      Writes the explanation (+ audit) as a shareable markdown report.

  dpclustx-cli serve-daemon --data <file.csv> --schema <file.schema>
                    --out <resps.jsonl> [--requests <reqs.jsonl> | --socket <path>]
                    [--workers N] [--queue-capacity N] [--drain-deadline-ms MS]
                    [--metrics-out <stats.json>] [--metrics-every N]
                    [--budget E] [--name NAME] [--ledger-dir <dir>]
                    [--checkpoint-every N] [--resume] [--deadline-ms MS]
      Runs the explanation service as a resident daemon, the one engine that
      serves requests concurrently. Requests (one JSON object per line; 'id'
      required, everything else defaulted: dataset, seed, cluster_by,
      n_clusters, k, eps_cand, eps_comb, eps_hist, weights, stage2_kernel,
      consistency, deadline_ms) stream in over stdin (default), a JSONL file
      (--requests), or a Unix socket (--socket, one handler per connection,
      replies echoed per line), and execute on --workers threads (default
      2) against the loaded dataset. All requests share one counts cache and
      one atomically-charged privacy accountant (--budget caps the dataset's
      total ε; a request that would breach it is rejected with nothing
      recorded).
      The file and stdin transports are closed-loop, so their output is a
      function of the request lines alone and byte-identical for every
      --workers value: at most --queue-capacity (default 32) of their
      requests are unanswered at once, so a file is never answered
      'overloaded'; an 'op':'append' line is a barrier, sent only once every
      earlier line is answered, with nothing after it read until it is
      answered; and admission does not price deadlines against the rolling
      latency estimate (each request's own deadline still bounds it).
      Socket traffic gets full admission control, every reject typed on the
      response stream before any ε is touched: budget_exceeded
      (+eps_remaining) when the request's ε exceeds the shard's live
      headroom, deadline_exceeded when the deadline is infeasible behind the
      current queue at the rolling latency estimate, overloaded
      (+retry_after_ms backpressure hint) when the tenant's lane
      (--queue-capacity slots per dataset, weighted round-robin dequeue) is
      full, draining once shutdown began. A shed id is NOT consumed —
      retrying the identical request after the hint is the contract. A
      replayed id is answered duplicate_id; a line that fails to parse is
      answered with a typed reject (bad_line, invalid_epsilon) on the
      response stream when it declares an id, as a control line otherwise.
      A request that panics is answered 'worker panicked: <message>' and its
      worker keeps serving.
      Two control ops answer on the transport only (never the durable
      stream): {'id':N,'op':'stats'} returns the rolling metrics snapshot
      (queue depth, p50/p99 latency, per-stage means, per-dataset ε burn,
      rejects by class; --metrics-out dumps the same JSON every
      --metrics-every completions), {'id':N,'op':'shutdown'} — or transport
      EOF, the SIGTERM-equivalent for this no-unsafe binary — closes
      admission and drains: queued work finishes under --drain-deadline-ms
      (unstarted work past it is shed at zero ε, in-flight work has its
      deadline capped), every shard ledger is checkpointed, and the exit
      summary reports served/shed/rejected, per-dataset ε, and accounting
      probe violations. Responses append-and-flush as they land and are
      rewritten sorted by id (an id's executed answer before its rejects)
      on a clean drain.
      --ledger-dir makes accounting durable and sharded: each dataset gets
      its own write-ahead ledger (<dir>/<dataset>.wal), every grant is
      fsynced before its request runs, and a restart with the same
      --ledger-dir recovers each shard at its exact spend instead of
      double-charging the cap. --checkpoint-every N (requires --ledger-dir)
      compacts a shard's ledger to a single checkpoint record after every N
      grants, so recovery replays at most N records instead of the full
      history. --resume (requires --ledger-dir and --requests) keeps the
      served lines already in --out, skips the first line of each kept id
      (a later replay of it is still answered duplicate_id), and skips
      re-spending for request ids that hold a recovered grant: a kill
      anywhere, mid-drain included, resumes to the uninterrupted bytes. The
      summary reports each shard's ledger stats (records replayed, torn
      bytes truncated, checkpoint age, grants per fsync) alongside the ε
      accounting. Concurrent grants share fsyncs: the first spender to reach
      the ledger leads, appends every grant queued behind it (up to 64) under
      a single fsync without waiting for more, and wakes the others; every
      request still acks only after its own grant is durable.
      --deadline-ms bounds each request's wall clock (per-request
      'deadline_ms' overrides it), covering admission too: a request whose
      deadline expires before its grant commits is rejected with reason
      deadline_exceeded and spends NO ε; once the grant is durable, a later
      timeout keeps the reserved ε spent. An 'op':'append' line with
      'rows':[[..],..] appends coded rows to the named dataset instead of
      explaining: it spends no ε, refreshes every served clustering's cached
      count tables incrementally (O(delta), never a rebuild), and runs one
      at a time per registry. On --resume, appends always re-execute (they
      rebuild in-memory dataset state deterministically and for free).

  dpclustx-cli serve-batch --data <file.csv> --schema <file.schema>
                    --requests <reqs.jsonl> --out <resps.jsonl> [serve-daemon flags]
      serve-daemon with --requests required: the same engine, flags,
      defaults, and summary, for answering one request file.

  dpclustx-cli rank     ... --cluster C
      Prints the exact (non-private!) ranked candidate attributes of one
      cluster — the paper's Figure 4 view, for debugging and demos.

  dpclustx-cli help
      Prints this text.
";
