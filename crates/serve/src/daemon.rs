//! The resident explanation daemon: admission control, per-tenant
//! backpressure, and graceful drain — the one engine that runs explanation
//! requests concurrently.
//!
//! [`ExplainService`] serves one request; [`Daemon`] wraps it in a
//! long-lived request pipeline shared by every transport (request file,
//! stdin, Unix socket, in-process callers):
//!
//! ```text
//!   transport line ──► admit ──► queue (per-tenant, bounded, round-robin)
//!                        │                      │
//!                        │ typed reject         ▼ worker pop
//!                        ▼                    spend ──► execute ──► respond
//!                   reply sink ◄──────────────────────────────────────┘
//! ```
//!
//! **Admission** rejects at enqueue time, before any ε is touched:
//!
//! * `budget_exceeded` + `eps_remaining` — the dataset's shard cannot cover
//!   the request's total ε (the authoritative atomic check still happens at
//!   spend time; admission just refuses work that is already hopeless);
//! * `deadline_exceeded` — the request's deadline is infeasible behind the
//!   current queue given the rolling per-request latency estimate;
//! * `overloaded` + `retry_after_ms` — the tenant's bounded queue is full
//!   ([`BoundedTenantQueue`]); the hint prices the wait from queue depth ×
//!   rolling latency;
//! * `draining` — shutdown has begun and admission is closed;
//! * `duplicate_id` — the id was already admitted this process lifetime
//!   (ids are the idempotency key; admission rejects do **not** consume the
//!   id, so a backpressured caller can retry the same request).
//!
//! **Drain** (`{"op": "shutdown"}` or transport EOF — the workspace forbids
//! `unsafe`, so a SIGTERM pipe is out of reach; `kill -TERM` a daemon via a
//! wrapper that closes stdin, which is semantically identical) stops
//! admission, lets workers finish the queue under the drain deadline —
//! queued-but-unstarted work past the deadline is *shed* at zero ε with
//! reason `deadline_exceeded`, and in-flight work has its
//! [`CancelToken`](dpx_runtime::cancel::CancelToken)
//! deadline capped by the time remaining — then checkpoints every shard
//! ledger and reports a [`DrainSummary`]. A kill anywhere in that sequence
//! is covered by the crash matrix: the WALs recover the exact spend and a
//! `--resume` run converges on byte-identical output.
//!
//! **Replies** are pushed, not returned: every admitted or rejected request
//! eventually invokes the [`ReplySink`] exactly once with a
//! [`DaemonReply::Response`]; control traffic (`stats`/`shutdown` acks,
//! id-less bad lines) arrives as [`DaemonReply::Control`] and must never be
//! written to the durable response stream — stats snapshots are
//! scheduling-dependent by nature, and keeping them off the canonical
//! stream is what preserves byte-identical resume. A request that panics
//! mid-pipeline is answered once with `worker panicked: <message>`
//! (counted as a reject); its worker keeps serving.
//!
//! **Line transport** ([`serve_lines`], behind `--requests` and stdin) is
//! closed-loop, so a request file's answers are a function of the file
//! alone: it keeps at most `queue_capacity` of its own requests unanswered
//! (a file never sees `overloaded`), treats every append as a barrier (sent
//! once every earlier line is answered, and nothing after it is read until
//! it is answered), and skips the rolling-latency deadline estimate at
//! admission — each request's own deadline still bounds it. The socket
//! transport keeps full admission control.

use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::registry::DatasetRegistry;
use crate::request::{reject_reason, ExplainRequest, ExplainResponse, RequestOp, WireReject};
use crate::service::{is_blank_or_comment, reason, ExplainService};
use dpclustx::engine::StageEvent;
use dpx_runtime::faultpoint::{self, DAEMON_PRE_DRAIN_CHECKPOINT};
use dpx_runtime::queue::{BoundedTenantQueue, PushError};
use std::any::Any;
use std::collections::HashSet;
use std::io::{self, BufRead, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One reply from the daemon, classified for the transport.
#[derive(Debug)]
pub enum DaemonReply<'a> {
    /// A per-request response line (serve, deterministic error, or typed
    /// admission reject) — belongs on the durable response stream.
    Response(&'a ExplainResponse),
    /// A control line (stats snapshot, shutdown ack, id-less bad-line
    /// error) — transport only, never durable.
    Control(&'a Json),
}

/// Where daemon replies go. Invoked from admission (rejects, control acks)
/// and from worker threads (served responses), so it must be `Send + Sync`;
/// the daemon clones it into each queued job.
pub type ReplySink = Arc<dyn Fn(DaemonReply<'_>) + Send + Sync>;

/// What [`Daemon::handle_line`] decided about one transport line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading the transport.
    Continue,
    /// The line was a shutdown op: admission is closed, stop reading and
    /// run [`Daemon::drain_and_join`].
    ShutdownRequested,
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads executing dequeued requests.
    pub workers: usize,
    /// Per-tenant queue bound; a full lane answers `overloaded`.
    pub queue_capacity: usize,
    /// Wall-clock budget of the drain phase, measured from the moment
    /// admission closes. Queued work that has not started by then is shed.
    pub drain_deadline_ms: u64,
    /// Default per-request deadline for requests that carry none.
    pub deadline_ms: Option<u64>,
    /// Request ids holding durable grants from a recovered ledger (resume):
    /// execution skips their spend, and the deterministic pipeline
    /// reproduces the crashed run's response.
    pub granted: HashSet<u64>,
    /// Auto-checkpoint each shard's WAL after this many grants.
    pub checkpoint_every: Option<u64>,
    /// Overwrite this file with the deterministic stats snapshot every 64
    /// completed requests (and once more at drain).
    pub metrics_out: Option<PathBuf>,
}

/// Latency-ring window of the metrics registry.
const METRICS_WINDOW: usize = 512;

/// Completed requests between `metrics_out` dumps.
const METRICS_EVERY: u64 = 64;

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            queue_capacity: 32,
            drain_deadline_ms: 10_000,
            deadline_ms: None,
            granted: HashSet::new(),
            checkpoint_every: None,
            metrics_out: None,
        }
    }
}

/// One admitted request waiting for a worker.
struct Job {
    request: ExplainRequest,
    reply: ReplySink,
    enqueued: Instant,
}

/// How the drain ended, for the operator's exit summary.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// What closed admission (`"shutdown op"` or `"transport closed"`).
    pub drain_reason: String,
    /// Requests served successfully over the daemon's lifetime.
    pub served: u64,
    /// Queued requests shed unstarted at the drain deadline (zero ε).
    pub shed: u64,
    /// Requests answered with an error (admission + execution), sheds
    /// included.
    pub rejected: u64,
    /// Shards whose WAL was checkpointed at drain.
    pub checkpointed: usize,
    /// Checkpoint failures, `dataset: error` per line (empty on a clean
    /// drain).
    pub checkpoint_errors: Vec<String>,
    /// Per-dataset `(name, spent, remaining)` at exit.
    pub datasets: Vec<(String, f64, Option<f64>)>,
    /// Accounting probe violations across all shards (must be empty).
    pub probe_violations: Vec<String>,
}

impl DrainSummary {
    /// Whether the drain left the process in a clean state.
    pub fn clean(&self) -> bool {
        self.checkpoint_errors.is_empty() && self.probe_violations.is_empty()
    }

    /// The human-readable exit summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "daemon drained ({}): served {}, rejected {}, shed {}\n",
            self.drain_reason, self.served, self.rejected, self.shed
        );
        for (name, spent, remaining) in &self.datasets {
            match remaining {
                Some(remaining) => out.push_str(&format!(
                    "  dataset {name}: spent {spent:.6}, remaining {remaining:.6}\n"
                )),
                None => out.push_str(&format!("  dataset {name}: spent {spent:.6} (uncapped)\n")),
            }
        }
        out.push_str(&format!(
            "  checkpointed {} shard ledger(s)\n",
            self.checkpointed
        ));
        for error in &self.checkpoint_errors {
            out.push_str(&format!("  checkpoint FAILED: {error}\n"));
        }
        out.push_str(&format!(
            "  probe violations: {}\n",
            self.probe_violations.len()
        ));
        for violation in &self.probe_violations {
            out.push_str(&format!("  probe violation: {violation}\n"));
        }
        out
    }
}

/// The resident daemon (see the module docs).
pub struct Daemon {
    service: ExplainService,
    queue: BoundedTenantQueue<Job>,
    metrics: MetricsRegistry,
    config: DaemonConfig,
    draining: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    drain_reason: Mutex<String>,
    /// Ids admitted this process lifetime (the idempotency key space).
    seen: Mutex<HashSet<u64>>,
    /// Completed requests (served + rejected), for `METRICS_EVERY` pacing.
    completed: AtomicU64,
}

impl Daemon {
    /// A daemon serving `registry` under `config`. Applies
    /// `checkpoint_every` to every shard registered so far.
    pub fn new(registry: Arc<DatasetRegistry>, config: DaemonConfig) -> Arc<Self> {
        if let Some(every) = config.checkpoint_every {
            let shards = registry.shards();
            for name in shards.names() {
                if let Some(accountant) = shards.get(&name) {
                    accountant.set_checkpoint_every(Some(every));
                }
            }
        }
        let workers = config.workers.max(1);
        Arc::new(Daemon {
            service: ExplainService::new(registry),
            queue: BoundedTenantQueue::new(config.queue_capacity),
            metrics: MetricsRegistry::new(METRICS_WINDOW),
            config: DaemonConfig { workers, ..config },
            draining: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            drain_reason: Mutex::new(String::new()),
            seen: Mutex::new(HashSet::new()),
            completed: AtomicU64::new(0),
        })
    }

    /// The registry this daemon serves from.
    pub fn registry(&self) -> &DatasetRegistry {
        self.service.registry()
    }

    /// The rolling metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Whether admission is closed.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Spawns the worker pool. Threads exit once the queue is closed and
    /// fully drained; hand the handles to [`Self::drain_and_join`].
    pub fn start(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        (0..self.config.workers)
            .map(|_| {
                let daemon = Arc::clone(self);
                std::thread::spawn(move || daemon.worker_loop())
            })
            .collect()
    }

    fn lock_seen(&self) -> std::sync::MutexGuard<'_, HashSet<u64>> {
        self.seen.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn drain_deadline_instant(&self) -> Option<Instant> {
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Handles one transport line: classify, answer control ops, run
    /// admission, enqueue. Every line with a parseable id is answered
    /// exactly once through `reply`.
    pub fn handle_line(&self, line: &str, reply: &ReplySink) -> LineOutcome {
        let trimmed = line.trim();
        if is_blank_or_comment(trimmed) {
            return LineOutcome::Continue;
        }
        match ExplainRequest::classify_json_line(trimmed) {
            Ok(request) => self.handle_request(request, reply),
            Err(reject) => {
                self.answer_wire_reject(&reject, reply);
                LineOutcome::Continue
            }
        }
    }

    /// Answers a line that failed wire classification: on the response
    /// stream when it declared an id, as a control line otherwise (so the
    /// line is never silently dropped). The answer carries no headroom
    /// reading — the line never touched the budget, and a live reading
    /// would make the stream depend on scheduling.
    fn answer_wire_reject(&self, reject: &WireReject, reply: &ReplySink) {
        self.metrics.record_reject(reject.reason);
        self.completed.fetch_add(1, Ordering::Relaxed);
        match reject.id {
            Some(id) => {
                let response =
                    ExplainResponse::error(id, reject.message.clone()).with_reason(reject.reason);
                reply(DaemonReply::Response(&response));
            }
            None => {
                let control = Json::object()
                    .field("ok", false)
                    .field("error", reject.message.as_str())
                    .field("reason", reject.reason);
                reply(DaemonReply::Control(&control));
            }
        }
    }

    /// [`Self::handle_line`] after classification — the entry point for
    /// in-process callers (the abuse battery drives this directly).
    pub fn handle_request(&self, request: ExplainRequest, reply: &ReplySink) -> LineOutcome {
        self.submit(request, reply, true)
    }

    /// Marks `id` admitted without running it: a resumed line transport
    /// skips a request whose answer it kept, and a later replay of the id
    /// must still be refused as a duplicate.
    fn mark_admitted(&self, id: u64) {
        self.lock_seen().insert(id);
    }

    /// Answers control ops, runs admission, enqueues. `price_deadline`
    /// turns on the rolling-latency deadline estimate at admission; the
    /// closed-loop line transport turns it off.
    fn submit(
        &self,
        request: ExplainRequest,
        reply: &ReplySink,
        price_deadline: bool,
    ) -> LineOutcome {
        match request.op {
            RequestOp::Stats => {
                let ack = Json::object()
                    .field("id", request.id)
                    .field("ok", true)
                    .field("op", "stats")
                    .field("stats", self.stats_json());
                reply(DaemonReply::Control(&ack));
                return LineOutcome::Continue;
            }
            RequestOp::Shutdown => {
                self.begin_drain("shutdown op");
                let ack = Json::object()
                    .field("id", request.id)
                    .field("ok", true)
                    .field("op", "shutdown")
                    .field("draining", true);
                reply(DaemonReply::Control(&ack));
                return LineOutcome::ShutdownRequested;
            }
            RequestOp::Explain | RequestOp::Append { .. } => {}
        }
        if let Some(response) = self.admission_reject(&request, price_deadline) {
            let class = response.reason.clone().unwrap_or_default();
            self.metrics.record_reject(&class);
            self.completed.fetch_add(1, Ordering::Relaxed);
            reply(DaemonReply::Response(&response));
            return LineOutcome::Continue;
        }
        let id = request.id;
        let tenant = request.dataset.clone();
        let job = Job {
            request,
            reply: Arc::clone(reply),
            enqueued: Instant::now(),
        };
        match self.queue.push(&tenant, job) {
            Ok(_) => {
                self.metrics.set_queue_depth(self.queue.len());
            }
            Err(error) => {
                // The push was refused, so the id was not consumed: the
                // caller may retry the identical request after the hint.
                self.lock_seen().remove(&id);
                let response = match error {
                    PushError::Full { depth, capacity } => {
                        let rolling = self.metrics.rolling_request_ms().max(1.0);
                        let retry_after =
                            ((depth as f64 / self.config.workers as f64) * rolling).ceil() as u64;
                        self.metrics.record_reject(reject_reason::OVERLOADED);
                        ExplainResponse::error(
                            id,
                            format!("tenant '{tenant}' queue is full ({depth}/{capacity} queued)"),
                        )
                        .with_reason(reject_reason::OVERLOADED)
                        .with_retry_after_ms(retry_after.max(1))
                    }
                    PushError::Closed => {
                        self.metrics.record_reject(reason::DRAINING);
                        ExplainResponse::error(id, "daemon is draining; admission is closed")
                            .with_reason(reason::DRAINING)
                    }
                };
                self.completed.fetch_add(1, Ordering::Relaxed);
                reply(DaemonReply::Response(&response));
            }
        }
        LineOutcome::Continue
    }

    /// The admission decision for an explain/append request: `Some(reject)`
    /// to refuse before queuing (no ε touched, id not consumed), `None` to
    /// admit. Queue-full is decided by the push itself.
    fn admission_reject(
        &self,
        request: &ExplainRequest,
        price_deadline: bool,
    ) -> Option<ExplainResponse> {
        if self.is_draining() {
            return Some(
                ExplainResponse::error(request.id, "daemon is draining; admission is closed")
                    .with_reason(reason::DRAINING),
            );
        }
        if !self.lock_seen().insert(request.id) {
            return Some(
                ExplainResponse::error(
                    request.id,
                    format!("duplicate request id {} (already admitted)", request.id),
                )
                .with_reason(reject_reason::DUPLICATE_ID),
            );
        }
        // From here on a reject must release the id again.
        let release = |response: ExplainResponse| {
            self.lock_seen().remove(&request.id);
            Some(response)
        };
        if request.is_append() {
            // Appends spend no ε and carry no deadline: nothing to admit on.
            return None;
        }
        // Budget feasibility against the shard's live headroom. Recovered
        // grants (resume) already hold their ε — re-checking would refuse
        // work that is already paid for.
        if !self.config.granted.contains(&request.id) {
            if let Some(remaining) = self
                .registry()
                .get(&request.dataset)
                .and_then(|entry| entry.accountant().remaining())
            {
                let total = request.total_epsilon();
                if total > remaining {
                    return release(
                        ExplainResponse::error(
                            request.id,
                            format!(
                                "admission rejected: request ε {total:.6} exceeds dataset \
                                 headroom {remaining:.6}"
                            ),
                        )
                        .with_reason(reason::BUDGET_EXCEEDED)
                        .with_eps_remaining(remaining),
                    );
                }
            }
        }
        // Deadline feasibility behind the current queue, priced with the
        // rolling per-request latency (skipped before the first completion —
        // there is no estimate to price with — and on the closed-loop line
        // transport, whose answers must not depend on timing).
        let deadline_ms = request.deadline_ms.or(self.config.deadline_ms);
        if let Some(deadline_ms) = deadline_ms.filter(|_| price_deadline) {
            let rolling = self.metrics.rolling_request_ms();
            if rolling > 0.0 {
                let queued = self.queue.len();
                let est_wait_ms = (queued as f64 / self.config.workers as f64) * rolling;
                if est_wait_ms > deadline_ms as f64 {
                    return release(
                        ExplainResponse::error(
                            request.id,
                            format!(
                                "deadline {deadline_ms} ms infeasible: ~{est_wait_ms:.0} ms of \
                                 queued work ahead"
                            ),
                        )
                        .with_reason(reason::DEADLINE_EXCEEDED),
                    );
                }
            }
        }
        None
    }

    fn worker_loop(&self) {
        while let Some((_tenant, mut job)) = self.queue.pop_wait() {
            self.metrics.set_queue_depth(self.queue.len());
            job.request.deadline_ms = job.request.deadline_ms.or(self.config.deadline_ms);
            if let Some(deadline) = self.drain_deadline_instant() {
                let now = Instant::now();
                if now >= deadline {
                    // Shed: queued but never started, so no ε was spent.
                    let response = ExplainResponse::error(
                        job.request.id,
                        "drain deadline passed before the request started",
                    )
                    .with_reason(reason::DEADLINE_EXCEEDED);
                    self.metrics.record_shed();
                    self.metrics.record_reject(reason::DEADLINE_EXCEEDED);
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    (job.reply)(DaemonReply::Response(&response));
                    continue;
                }
                // In-flight during drain: cap the request's cooperative
                // deadline by the drain time remaining, so the drain phase
                // ends when promised even if a request would have run long.
                let remaining_ms = (deadline - now).as_millis().max(1) as u64;
                job.request.deadline_ms = Some(
                    job.request
                        .deadline_ms
                        .map_or(remaining_ms, |d| d.min(remaining_ms)),
                );
            }
            let granted = self.config.granted.contains(&job.request.id);
            let tap = |event: &StageEvent| self.metrics.observe_stage(event);
            // The unwind guard: a panicking request is answered once with
            // its panic message and this worker keeps serving. Its reserved
            // ε stays spent, like any failure after the grant.
            let response = catch_unwind(AssertUnwindSafe(|| {
                self.service
                    .execute_tapped(&job.request, granted, Some(&tap))
            }))
            .unwrap_or_else(|payload| {
                ExplainResponse::error(
                    job.request.id,
                    format!("worker panicked: {}", panic_message(payload.as_ref())),
                )
            });
            let latency = job.enqueued.elapsed();
            if response.is_ok() {
                let eps_spent = response
                    .explanation()
                    .map_or(0.0, |served| served.eps_spent);
                self.metrics
                    .record_served(&job.request.dataset, latency, eps_spent);
            } else {
                let class = response.reason.as_deref().unwrap_or("other").to_string();
                self.metrics.record_reject(&class);
            }
            self.completed.fetch_add(1, Ordering::Relaxed);
            (job.reply)(DaemonReply::Response(&response));
            self.maybe_dump_metrics();
        }
    }

    /// Closes admission and starts the drain clock. Idempotent; the first
    /// reason wins.
    pub fn begin_drain(&self, why: &str) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        *self
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner) =
            Some(Instant::now() + Duration::from_millis(self.config.drain_deadline_ms));
        *self
            .drain_reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = why.to_string();
        self.queue.close();
    }

    /// Drains the queue (closing admission first if the transport ended
    /// without a shutdown op), joins the workers, checkpoints every shard
    /// ledger, and reports the exit summary.
    pub fn drain_and_join(&self, workers: Vec<JoinHandle<()>>) -> DrainSummary {
        self.begin_drain("transport closed");
        for worker in workers {
            let _ = worker.join();
        }
        faultpoint::hit(DAEMON_PRE_DRAIN_CHECKPOINT);
        let shards = self.registry().shards();
        let mut checkpointed = 0usize;
        let mut checkpoint_errors = Vec::new();
        for name in shards.names() {
            if let Some(accountant) = shards.get(&name) {
                match accountant.checkpoint_now() {
                    Ok(()) => checkpointed += 1,
                    Err(error) => checkpoint_errors.push(format!("{name}: {error}")),
                }
            }
        }
        self.dump_metrics_now();
        let (served, shed, rejected) = self.metrics.totals();
        let datasets = self
            .registry()
            .names()
            .into_iter()
            .filter_map(|name| {
                self.registry().get(&name).map(|entry| {
                    let accountant = entry.accountant();
                    (name, accountant.spent(), accountant.remaining())
                })
            })
            .collect();
        DrainSummary {
            drain_reason: self
                .drain_reason
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            served,
            shed,
            rejected,
            checkpointed,
            checkpoint_errors,
            datasets,
            probe_violations: shards.probe_violations(),
        }
    }

    /// The deterministic stats snapshot (the `{"op": "stats"}` payload).
    pub fn stats_json(&self) -> Json {
        let registry = self.registry();
        self.metrics
            .snapshot_json(self.is_draining(), self.config.workers, &|name| {
                registry
                    .get(name)
                    .and_then(|entry| entry.accountant().remaining())
            })
    }

    fn maybe_dump_metrics(&self) {
        if self.config.metrics_out.is_none() {
            return;
        }
        let completed = self.completed.load(Ordering::Relaxed);
        if completed > 0 && completed.is_multiple_of(METRICS_EVERY) {
            self.dump_metrics_now();
        }
    }

    fn dump_metrics_now(&self) {
        if let Some(path) = &self.config.metrics_out {
            let mut line = self.stats_json().render();
            line.push('\n');
            // Best effort: a failed dump must not take the daemon down.
            let _ = std::fs::write(path, line);
        }
    }
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// A line transport's unanswered requests. Every request line handed to the
/// daemon gets exactly one reply, so the count rises per line and falls per
/// reply.
#[derive(Default)]
struct Outstanding {
    count: Mutex<usize>,
    answered: Condvar,
}

impl Outstanding {
    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until fewer than `bound` requests are unanswered.
    fn wait_below(&self, bound: usize) {
        let mut count = self.lock();
        while *count >= bound {
            count = self
                .answered
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Reads JSONL request lines from `reader` until EOF or a shutdown op and
/// serves them closed-loop (see the module docs): at most `queue_capacity`
/// of them unanswered, appends as barriers, no rolling-latency deadline
/// pricing at admission. The answers are therefore a function of the lines
/// alone, for any worker count.
///
/// On a resumed run, `skip_ids` holds the ids whose answers were kept: the
/// first line carrying each is skipped and its id marked admitted, so a
/// later replay of it is answered `duplicate_id` exactly as in the
/// uninterrupted run. Invalid UTF-8 is answered as a `bad_line` reject.
///
/// The daemon's workers must be running ([`Daemon::start`]): the transport
/// waits for answers before it reads on.
pub fn serve_lines<R: BufRead>(
    daemon: &Daemon,
    mut reader: R,
    reply: &ReplySink,
    skip_ids: &HashSet<u64>,
) -> io::Result<()> {
    let outstanding = Arc::new(Outstanding::default());
    let counted: ReplySink = {
        let outstanding = Arc::clone(&outstanding);
        let reply = Arc::clone(reply);
        Arc::new(move |inbound: DaemonReply<'_>| {
            reply(inbound);
            *outstanding.lock() -= 1;
            outstanding.answered.notify_all();
        })
    };
    let capacity = daemon.config.queue_capacity.max(1);
    let mut skip = skip_ids.clone();
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            return Ok(());
        }
        if raw.last() == Some(&b'\n') {
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
        }
        let Ok(text) = std::str::from_utf8(&raw) else {
            daemon.answer_wire_reject(&WireReject::unparseable(NOT_UTF8), reply);
            continue;
        };
        let trimmed = text.trim();
        if is_blank_or_comment(trimmed) {
            continue;
        }
        let request = match ExplainRequest::classify_json_line(trimmed) {
            Ok(request) => request,
            Err(reject) => {
                daemon.answer_wire_reject(&reject, reply);
                continue;
            }
        };
        if !request.is_control() && skip.remove(&request.id) {
            daemon.mark_admitted(request.id);
            continue;
        }
        let barrier = request.is_append();
        outstanding.wait_below(if barrier { 1 } else { capacity });
        *outstanding.lock() += 1;
        let outcome = daemon.submit(request, &counted, false);
        if barrier {
            outstanding.wait_below(1);
        }
        if outcome == LineOutcome::ShutdownRequested {
            return Ok(());
        }
    }
}

/// The `bad_line` message for a transport line that is not UTF-8.
const NOT_UTF8: &str = "request line is not valid UTF-8";

/// Serves the daemon over a Unix socket at `path` until some connection
/// sends `{"op": "shutdown"}`.
///
/// Each connection gets its own handler thread and its own reply stream:
/// every reply for a request admitted on that connection is written back to
/// it as one JSON line, and replies of the [`DaemonReply::Response`] class
/// are *also* forwarded to `durable` — the socket is a transport, the
/// durable sink is the canonical response stream, and control lines never
/// reach it. A connection closing only ends that connection; the daemon
/// keeps serving others. A pre-existing socket file at `path` is replaced.
pub fn serve_socket(daemon: &Daemon, path: &Path, durable: &ReplySink) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(error) if error.kind() == io::ErrorKind::NotFound => {}
        Err(error) => return Err(error),
    }
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    std::thread::scope(|scope| -> io::Result<()> {
        while !daemon.is_draining() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let durable = Arc::clone(durable);
                    scope.spawn(move || {
                        let _ = serve_connection(daemon, stream, &durable);
                    });
                }
                Err(error)
                    if error.kind() == io::ErrorKind::WouldBlock
                        || error.kind() == io::ErrorKind::TimedOut =>
                {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(error) => return Err(error),
            }
        }
        Ok(())
    })?;
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// One socket connection: read request lines, echo every reply back as a
/// JSON line, forward response-class replies to the durable sink.
fn serve_connection(daemon: &Daemon, stream: UnixStream, durable: &ReplySink) -> io::Result<()> {
    // Replies arrive asynchronously from worker threads, so the write half
    // is shared behind a mutex; a client that hung up just loses its echo.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let reply: ReplySink = {
        let writer = Arc::clone(&writer);
        let durable = Arc::clone(durable);
        Arc::new(move |inbound: DaemonReply<'_>| {
            let mut line = match &inbound {
                DaemonReply::Response(response) => response.to_json_line(),
                DaemonReply::Control(control) => control.render(),
            };
            line.push('\n');
            {
                let mut writer = writer.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = writer.write_all(line.as_bytes());
                let _ = writer.flush();
            }
            if matches!(inbound, DaemonReply::Response(_)) {
                durable(inbound);
            }
        })
    };

    let mut stream = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Drain every complete line currently buffered.
        while let Some(newline) = pending.iter().position(|&b| b == b'\n') {
            let mut raw: Vec<u8> = pending.drain(..=newline).collect();
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
            if handle_raw_line(daemon, &raw, &reply) == LineOutcome::ShutdownRequested {
                return Ok(());
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Connection EOF: a trailing unterminated line still counts.
                if !pending.is_empty()
                    && handle_raw_line(daemon, &pending, &reply) == LineOutcome::ShutdownRequested
                {
                    return Ok(());
                }
                return Ok(());
            }
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(error)
                if error.kind() == io::ErrorKind::WouldBlock
                    || error.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle poll: a *different* connection may have begun the
                // drain; this one must stop reading too.
                if daemon.is_draining() {
                    return Ok(());
                }
            }
            Err(error) => return Err(error),
        }
    }
}

/// Decodes one raw transport line (UTF-8 check included) and hands it to
/// [`Daemon::handle_line`].
fn handle_raw_line(daemon: &Daemon, raw: &[u8], reply: &ReplySink) -> LineOutcome {
    match std::str::from_utf8(raw) {
        Ok(text) => daemon.handle_line(text, reply),
        Err(_) => {
            daemon.answer_wire_reject(&WireReject::unparseable(NOT_UTF8), reply);
            LineOutcome::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::PANIC_AFTER_GRANT_SEED;
    use dpx_data::synth::diabetes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn registry() -> Arc<DatasetRegistry> {
        let mut rng = StdRng::seed_from_u64(5);
        let data = Arc::new(diabetes::spec(2).generate(400, &mut rng).data);
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("default", data, None);
        registry
    }

    /// Response-class replies, with a wait that fails instead of hanging.
    #[derive(Default)]
    struct Replies {
        lines: Mutex<Vec<ExplainResponse>>,
        arrived: Condvar,
    }

    impl Replies {
        fn sink(self: &Arc<Self>) -> ReplySink {
            let replies = Arc::clone(self);
            Arc::new(move |reply: DaemonReply<'_>| {
                if let DaemonReply::Response(response) = reply {
                    replies.lines.lock().unwrap().push(response.clone());
                    replies.arrived.notify_all();
                }
            })
        }

        /// Waits up to a minute for `n` replies, sorted by id.
        fn wait_for(&self, n: usize) -> Vec<ExplainResponse> {
            let (lines, timeout) = self
                .arrived
                .wait_timeout_while(
                    self.lines.lock().unwrap(),
                    Duration::from_secs(60),
                    |lines| lines.len() < n,
                )
                .unwrap();
            assert!(!timeout.timed_out(), "only {} of {n} replies", lines.len());
            let mut lines = lines.clone();
            lines.sort_by_key(|r| r.id);
            lines
        }
    }

    #[test]
    fn a_panicking_request_fails_alone_and_its_worker_keeps_serving() {
        let registry = registry();
        // One worker: if the panic killed it, nothing after would be served.
        let daemon = Daemon::new(
            Arc::clone(&registry),
            DaemonConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let handles = daemon.start();
        let replies = Arc::new(Replies::default());
        let sink = replies.sink();
        for id in 0..5 {
            let mut request = ExplainRequest::new(id);
            if id == 2 {
                request.seed = PANIC_AFTER_GRANT_SEED;
            }
            daemon.handle_request(request, &sink);
        }
        let first = replies.wait_for(5);
        for response in &first {
            if response.id == 2 {
                let err = response.outcome.as_ref().unwrap_err();
                assert!(
                    err.starts_with("worker panicked: ") && err.contains("injected fault"),
                    "the poisoned request must surface its panic, got: {err}"
                );
            } else {
                assert!(response.is_ok(), "{:?}", response.outcome);
            }
        }

        // The reservation stays charged: ε reserved before the panic is
        // never refunded after a partial release.
        let entry = registry.get("default").expect("registered");
        assert_eq!(entry.accountant().num_charges(), 5);
        // The cache is not wedged and the worker survived: more requests
        // over the same clustering are served.
        assert!(!entry.cache().is_empty());
        for id in 10..14 {
            daemon.handle_request(ExplainRequest::new(id), &sink);
        }
        let all = replies.wait_for(9);
        assert!(all
            .iter()
            .filter(|r| r.id >= 10)
            .all(ExplainResponse::is_ok));
        assert_eq!(entry.accountant().num_charges(), 9);

        let summary = daemon.drain_and_join(handles);
        assert!(summary.clean(), "{summary:?}");
        assert_eq!((summary.served, summary.rejected), (8, 1));
    }

    fn append_line(id: u64, registry: &DatasetRegistry) -> String {
        let entry = registry.get("default").unwrap();
        let data = entry.data();
        let rows: Vec<String> = (0..5)
            .map(|r| {
                let row: Vec<String> = (0..data.schema().arity())
                    .map(|a| data.column(a)[r].to_string())
                    .collect();
                format!("[{}]", row.join(","))
            })
            .collect();
        format!(
            "{{\"id\": {id}, \"op\": \"append\", \"rows\": [{}]}}\n",
            rows.join(",")
        )
    }

    #[test]
    fn line_transport_with_appends_is_identical_across_worker_counts() {
        let serve = |workers: usize| -> Vec<String> {
            let registry = registry();
            let mut input = String::new();
            for id in 0..3 {
                input.push_str(&format!("{{\"id\": {id}, \"seed\": {id}}}\n"));
            }
            input.push_str(&append_line(3, &registry));
            input.push_str("{\"id\": 4}\n");
            input.push_str(&append_line(5, &registry));
            input.push_str("{\"id\": 6, \"n_clusters\": 3}\n");
            let daemon = Daemon::new(
                Arc::clone(&registry),
                DaemonConfig {
                    workers,
                    ..Default::default()
                },
            );
            let handles = daemon.start();
            let replies = Arc::new(Replies::default());
            serve_lines(&daemon, input.as_bytes(), &replies.sink(), &HashSet::new())
                .expect("in-memory transport");
            assert!(daemon.drain_and_join(handles).clean());
            assert_eq!(registry.get("default").unwrap().data().n_rows(), 410);
            replies
                .wait_for(7)
                .iter()
                .map(ExplainResponse::to_json_line)
                .collect()
        };
        let expected = serve(1);
        assert!(
            expected[3].contains("\"total_rows\":405"),
            "{}",
            expected[3]
        );
        assert!(
            expected[5].contains("\"total_rows\":410"),
            "{}",
            expected[5]
        );
        for workers in [2, 7] {
            assert_eq!(serve(workers), expected, "workers={workers}");
        }
    }
}
