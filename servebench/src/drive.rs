//! The load generator and the two servers it drives.
//!
//! One generator thread sends plan items to a [`Server`]. In the open loop
//! each item is due at a fixed rate and its latency runs from when it was
//! *due*, so a stall that holds the generator back is charged to every
//! request it delays. In the closed loop the generator keeps a fixed number
//! of requests outstanding.
//!
//! Appends are ordering barriers, as in a batch: the generator sends an
//! append only once every earlier request is answered, and sends nothing
//! after it until it is answered. Which dataset version an explain sees is
//! then a function of the plan alone, so response digests repeat.

use crate::collect::Collector;
use crate::trace::{self, Spans};
use crate::workload::Plan;
use dpclustx::engine::{
    CollectingObserver, ExplainContext, ExplainEngine, STAGE_BUILD_COUNTS, STAGE_CANDIDATES,
    STAGE_COMBINATION, STAGE_HISTOGRAMS,
};
use dpx_dp::budget::Epsilon;
use dpx_dp::histogram::GeometricHistogram;
use dpx_serve::{
    derive_labels, Daemon, DatasetRegistry, ExplainRequest, ExplainResponse, ReplySink, RequestOp,
    ServedExplanation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the generator waits on an unanswered request before it fails
/// the run.
const STALL_LIMIT: Duration = Duration::from_secs(60);
/// Most requests the open loop keeps outstanding: under the daemon's queue
/// capacity of 32, so a burst of arrivals during a host stall is delayed,
/// not refused as `overloaded`.
pub const OPEN_CAP: usize = 24;

/// Where the generator sends requests.
pub trait Server: Sync {
    fn send(&self, request: ExplainRequest);
}

/// The resident daemon, entered through `Daemon::handle_request`.
pub struct DaemonServer {
    pub daemon: Arc<Daemon>,
    pub sink: ReplySink,
}

impl Server for DaemonServer {
    fn send(&self, request: ExplainRequest) {
        self.daemon.handle_request(request, &self.sink);
    }
}

/// What the generator recorded for one sent item.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub due: Instant,
    /// How late the send started, apart from `barrier`.
    pub lag: Duration,
    /// The part of the lateness spent held at an append barrier.
    pub barrier: Duration,
    pub parse: Duration,
    /// Duration of the server's `send` call.
    pub admit: Duration,
}

/// The generator: sends plan items and records when.
pub struct Generator<'a> {
    pub plan: &'a mut Plan,
    pub collector: &'a Collector,
    pub server: &'a dyn Server,
    pub sent: Vec<Option<Sent>>,
    /// When the generator sat in a barrier wait, oldest first.
    held: Vec<(Instant, Instant)>,
}

impl<'a> Generator<'a> {
    pub fn new(plan: &'a mut Plan, collector: &'a Collector, server: &'a dyn Server) -> Self {
        Generator {
            plan,
            collector,
            server,
            sent: Vec::new(),
            held: Vec::new(),
        }
    }

    /// Waits until at most `limit` requests are outstanding; a server that
    /// leaves requests unanswered for [`STALL_LIMIT`] fails the run.
    fn settle(&self, limit: usize) -> Result<(), String> {
        if self
            .collector
            .wait_outstanding(limit, Instant::now() + STALL_LIMIT)
        {
            Ok(())
        } else {
            Err(format!("requests unanswered after {STALL_LIMIT:?}"))
        }
    }

    /// Waits until nothing is outstanding, recording the wait.
    fn barrier(&mut self) -> Result<(), String> {
        let from = Instant::now();
        self.settle(0)?;
        self.held.push((from, Instant::now()));
        Ok(())
    }

    /// How much of `[due, start]` the generator spent in barrier waits.
    fn held_between(&self, due: Instant, start: Instant) -> Duration {
        self.held
            .iter()
            .rev()
            .take_while(|(_, until)| *until > due)
            .map(|&(from, until)| until.min(start).saturating_duration_since(from.max(due)))
            .sum()
    }

    /// Sends item `index` once `due` has come (and, for an append, once
    /// nothing is outstanding); waits for an append's reply before
    /// returning.
    fn send(&mut self, index: usize, due: Option<Instant>) -> Result<(), String> {
        self.plan.extend_to(index + 1);
        let barrier = self.plan.items[index].is_append();
        if barrier {
            self.barrier()?;
        }
        let now = Instant::now();
        let due = match due {
            Some(due) if due > now => {
                std::thread::sleep(due - now);
                due
            }
            Some(due) => due,
            None => now,
        };
        let start = Instant::now();
        let request = ExplainRequest::classify_json_line(&self.plan.items[index].line)
            .map_err(|reject| format!("plan item {index} does not parse: {}", reject.message))?;
        let parsed = Instant::now();
        self.collector.note_sent();
        self.server.send(request);
        let admitted = Instant::now();
        if self.sent.len() <= index {
            self.sent.resize(index + 1, None);
        }
        let held = self.held_between(due, start);
        self.sent[index] = Some(Sent {
            due,
            lag: start.saturating_duration_since(due).saturating_sub(held),
            barrier: held,
            parse: parsed - start,
            admit: admitted - parsed,
        });
        if barrier {
            self.barrier()?;
        }
        Ok(())
    }

    /// Sends `range` one at a time, each after the previous reply.
    pub fn sequential(&mut self, range: std::ops::Range<usize>) -> Result<(), String> {
        for index in range {
            self.send(index, None)?;
            self.settle(0)?;
        }
        Ok(())
    }

    /// Sends `range` at `rate` per second from now and waits for every
    /// reply. Gaps are fixed, or exponential when `poisson` (drawn from
    /// `seed`, so a seed replays its schedule). A request due while
    /// [`OPEN_CAP`] are outstanding waits for a reply first, and that wait
    /// counts in its latency.
    pub fn open_loop(
        &mut self,
        range: std::ops::Range<usize>,
        rate: f64,
        poisson: bool,
        seed: u64,
    ) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0a11_7e5c_4ed0);
        let mut due = Instant::now() + Duration::from_millis(2);
        for index in range {
            self.settle(OPEN_CAP - 1)?;
            self.send(index, Some(due))?;
            let gap = if poisson {
                -(1.0 - rng.gen::<f64>()).ln() / rate
            } else {
                1.0 / rate
            };
            due += Duration::from_secs_f64(gap);
        }
        self.settle(0)
    }

    /// Sends `range` keeping at most `window` requests outstanding, and
    /// waits for every reply.
    pub fn windowed(&mut self, range: std::ops::Range<usize>, window: usize) -> Result<(), String> {
        for index in range {
            self.settle(window - 1)?;
            self.send(index, None)?;
        }
        self.settle(0)
    }

    /// Keeps `window` requests outstanding from item `first` on, for
    /// `length`; then waits for the stragglers. Returns the first unsent
    /// index and the phase's start and end.
    pub fn closed_loop(
        &mut self,
        first: usize,
        window: usize,
        length: Duration,
    ) -> Result<(usize, Instant, Instant), String> {
        let start = Instant::now();
        let end = start + length;
        let mut index = first;
        while Instant::now() < end {
            if !self.collector.wait_outstanding(window - 1, end) {
                break;
            }
            self.send(index, None)?;
            index += 1;
        }
        self.settle(0)?;
        Ok((index, start, end))
    }
}

struct Job {
    request: ExplainRequest,
    /// When `send` was entered and when the job was queued: the traced
    /// admission span, kept disjoint from the queue wait that follows.
    entered: Instant,
    pushed: Instant,
}

#[derive(Default)]
struct Fifo {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The traced stand-in for the daemon: a FIFO drained by worker threads
/// that call the public pieces of the serving path in the order the
/// daemon's worker does, timing each.
pub struct TracedServer {
    registry: Arc<DatasetRegistry>,
    collector: Arc<Collector>,
    fifo: Mutex<Fifo>,
    ready: Condvar,
    max_depth: AtomicUsize,
    spans: Mutex<Vec<(u64, Spans)>>,
}

impl Server for TracedServer {
    fn send(&self, request: ExplainRequest) {
        let entered = Instant::now();
        let mut fifo = self.fifo.lock().unwrap_or_else(PoisonError::into_inner);
        fifo.jobs.push_back(Job {
            request,
            entered,
            pushed: Instant::now(),
        });
        self.max_depth.fetch_max(fifo.jobs.len(), Ordering::Relaxed);
        drop(fifo);
        self.ready.notify_one();
    }
}

impl TracedServer {
    pub fn new(registry: Arc<DatasetRegistry>, collector: Arc<Collector>) -> Arc<Self> {
        Arc::new(TracedServer {
            registry,
            collector,
            fifo: Mutex::default(),
            ready: Condvar::new(),
            max_depth: AtomicUsize::new(0),
            spans: Mutex::default(),
        })
    }

    pub fn start(self: &Arc<Self>, workers: usize) -> Vec<JoinHandle<()>> {
        (0..workers)
            .map(|_| {
                let server = Arc::clone(self);
                std::thread::spawn(move || server.worker())
            })
            .collect()
    }

    /// Closes the FIFO, joins the workers, and hands back every request's
    /// server-side spans by id.
    pub fn stop(&self, workers: Vec<JoinHandle<()>>) -> Result<Vec<(u64, Spans)>, String> {
        self.fifo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
        for worker in workers {
            worker
                .join()
                .map_err(|_| "a traced worker panicked".to_string())?;
        }
        Ok(std::mem::take(
            &mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner),
        ))
    }

    pub fn max_depth(&self) -> usize {
        self.max_depth.load(Ordering::Relaxed)
    }

    fn worker(&self) {
        loop {
            let job = {
                let mut fifo = self.fifo.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(job) = fifo.jobs.pop_front() {
                        break job;
                    }
                    if fifo.closed {
                        return;
                    }
                    fifo = self
                        .ready
                        .wait(fifo)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let mut spans = Spans::default();
            spans.set(trace::ADMIT, job.pushed - job.entered);
            spans.set(trace::WAIT, job.pushed.elapsed());
            let id = job.request.id;
            let response = self
                .execute(&job.request, &mut spans)
                .unwrap_or_else(|message| ExplainResponse::error(id, message));
            spans.set(trace::RENDER, self.collector.answer(&response));
            self.spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((id, spans));
        }
    }

    fn execute(
        &self,
        request: &ExplainRequest,
        spans: &mut Spans,
    ) -> Result<ExplainResponse, String> {
        let id = request.id;
        if let RequestOp::Append { rows } = &request.op {
            let start = Instant::now();
            let summary = self.registry.append_rows(&request.dataset, rows)?;
            spans.set(trace::APPEND, start.elapsed());
            spans.refreshed = Some(summary.refreshed_clusterings);
            return Ok(ExplainResponse::appended(id, summary));
        }
        let entry = self
            .registry
            .get(&request.dataset)
            .ok_or_else(|| format!("unknown dataset '{}'", request.dataset))?;
        let total = Epsilon::new(request.total_epsilon()).map_err(|e| e.to_string())?;

        let start = Instant::now();
        entry
            .accountant()
            .try_spend_grant_cancellable(id, format!("request/{id}"), total, None)
            .map_err(|e| format!("budget rejected: {e}"))?;
        spans.set(trace::GRANT, start.elapsed());

        let start = Instant::now();
        entry.note_clustering(request.cluster_by, request.n_clusters);
        spans.set(trace::NOTE, start.elapsed());

        let start = Instant::now();
        let labels = derive_labels(entry.data(), request.cluster_by, request.n_clusters);
        spans.set(trace::DERIVE, start.elapsed());

        let start = Instant::now();
        let mut ctx = ExplainContext::with_fingerprint(
            entry.data_arc(),
            entry.fingerprint(),
            request.seed,
            entry.cache(),
        );
        let engine = ExplainEngine::new(request.config()).with_stage2_kernel(request.stage2_kernel);
        let mut observer = CollectingObserver::new();
        let outcome = engine
            .explain_with_mechanism(
                &mut ctx,
                &labels,
                request.n_clusters,
                &GeometricHistogram,
                &mut observer,
            )
            .map_err(|e| e.to_string())?;
        let engine_ms = start.elapsed().as_secs_f64() * 1e3;
        for event in observer.events() {
            let metric = |name: &str| {
                event
                    .metrics
                    .iter()
                    .find(|(key, _)| *key == name)
                    .map_or(0.0, |(_, value)| *value)
            };
            let layer = match event.stage {
                STAGE_BUILD_COUNTS => {
                    let hit = metric("cache_hit") == 1.0;
                    spans.cache_hit = Some(hit);
                    if !hit {
                        let data = entry.data();
                        spans.build_bytes = (data.n_rows() * data.schema().arity() * 4) as f64;
                    }
                    trace::COUNTS
                }
                STAGE_CANDIDATES => trace::STAGE1,
                STAGE_COMBINATION => {
                    spans.leaves = metric("combinations_enumerated");
                    trace::STAGE2
                }
                STAGE_HISTOGRAMS => trace::HIST,
                _ => trace::ENGINE_OTHER,
            };
            spans.ms[layer] += event.wall.as_secs_f64() * 1e3;
        }
        let stage_ms: f64 = [trace::COUNTS, trace::STAGE1, trace::STAGE2, trace::HIST]
            .iter()
            .map(|&layer| spans.ms[layer])
            .sum();
        spans.ms[trace::ENGINE_OTHER] += (engine_ms - stage_ms).max(0.0);

        let start = Instant::now();
        let served = ServedExplanation::new(
            &outcome.explanation,
            outcome.accountant.spent(),
            observer.events(),
        );
        let response = ExplainResponse::success(id, served);
        spans.set(trace::RESPOND, start.elapsed());
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, Plan};

    /// Answers in the send call itself, stalling on one id.
    struct Stalling<'a> {
        collector: &'a Collector,
        stall_id: u64,
    }

    impl Server for Stalling<'_> {
        fn send(&self, request: ExplainRequest) {
            if request.id == self.stall_id {
                std::thread::sleep(Duration::from_millis(40));
            }
            self.collector
                .answer(&ExplainResponse::error(request.id, "fake"));
        }
    }

    #[test]
    fn open_loop_latency_runs_from_due_time() {
        let mut plan = Plan::new(by_name("search-small").unwrap(), 3);
        let first = by_name("search-small").unwrap().warm.len();
        plan.extend_to(first + 12);
        let collector = Collector::default();
        let server = Stalling {
            collector: &collector,
            stall_id: (first + 2) as u64,
        };
        let mut generator = Generator::new(&mut plan, &collector, &server);
        // One request per millisecond; the third stalls the generator 40 ms.
        generator
            .open_loop(first..first + 12, 1000.0, false, 3)
            .unwrap();
        let sent = generator.sent.clone();
        let latency = |i: usize| {
            let reply = collector.get(i).expect("answered");
            (reply.at - sent[i].unwrap().due).as_secs_f64() * 1e3
        };
        // The request sent right after the stall was due ~39 ms before it
        // went out: its latency shows the stall, though its own service
        // took microseconds.
        assert!(latency(first + 3) > 30.0, "latency {}", latency(first + 3));
        assert!(sent[first + 3].unwrap().lag > Duration::from_millis(30));
        // Before the stall the generator kept pace.
        assert!(latency(first) < 30.0);
        // Later items are due 1 ms apart, so they catch up one by one.
        assert!(latency(first + 11) < latency(first + 3));
    }

    /// Holds requests in a FIFO that a helper thread answers.
    #[derive(Default)]
    struct Backlog {
        held: Mutex<VecDeque<u64>>,
        most: AtomicUsize,
    }

    impl Server for Backlog {
        fn send(&self, request: ExplainRequest) {
            let mut held = self.held.lock().unwrap();
            held.push_back(request.id);
            self.most.fetch_max(held.len(), Ordering::Relaxed);
        }
    }

    #[test]
    fn open_loop_never_holds_more_than_the_cap() {
        let w = by_name("search-small").unwrap();
        let mut plan = Plan::new(w, 5);
        let (first, n) = (w.warm.len(), 3 * OPEN_CAP);
        plan.extend_to(first + n);
        let collector = Collector::default();
        let server = Backlog::default();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(2));
                    let id = server.held.lock().unwrap().pop_front();
                    if let Some(id) = id {
                        collector.answer(&ExplainResponse::error(id, "fake"));
                    }
                }
            });
            // Ten times faster than the helper answers, so the backlog
            // reaches the cap.
            let result = Generator::new(&mut plan, &collector, &server).open_loop(
                first..first + n,
                5000.0,
                false,
                5,
            );
            done.store(true, Ordering::Relaxed);
            result.unwrap();
        });
        let most = server.most.load(Ordering::Relaxed);
        assert!(most <= OPEN_CAP && most > OPEN_CAP / 2, "held {most}");
        assert!((first..first + n).all(|i| collector.get(i).is_some()));
    }
}
