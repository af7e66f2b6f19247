//! Serving-layer contention sweep: requests/second and tail latency of the
//! `dpx-serve` executor over a **durable** ε ledger, at worker counts
//! {1,2,4,8}. Every cell drives the real hot path — each request's grant is
//! group-committed into the dataset's WAL before its pipeline runs — so the
//! sweep measures how far concurrent grants share fsyncs. The response
//! digest is asserted identical across every cell before any timing is
//! trusted (a faster wrong answer is not a result).
//!
//! Emits `BENCH_serve.json` (default `results/BENCH_serve.json`, override
//! with `--out`). Each cell records `requests_per_sec`, `p50_ms`, `p99_ms`,
//! `grants_per_fsync` (grants appended / fsynced batches — the amortization
//! factor), and `singleflight_hits` (requests that joined another request's
//! in-flight counts build instead of scanning). A `host` block records the
//! core count and build profile.
//!
//! A final `daemon` cell pushes the same mix through the resident
//! `serve-daemon` pipeline — bounded tenant queue, admission control,
//! worker pool — with more submitters than queue slots, reporting what the
//! daemon *sustains* under backpressure: `sustained_rps`, client-perceived
//! `p50_ms`/`p99_ms` (overload retries included), `shed`/`shed_rate`. The
//! cell is guarded the same way the sweep is: every request must be served
//! exactly once, ε spent must equal the served total exactly, and the
//! accounting probes must stay silent before the numbers are written.
//!
//! ```text
//! cargo run -p dpx-bench --release --bin serve_throughput -- \
//!     --rows 4000 --requests 64 --threads 1,2,4,8
//! ```

use dpx_bench::{Args, Json};
use dpx_data::synth;
use dpx_dp::budget::Epsilon;
use dpx_dp::shards::{AccountantShards, ShardConfig};
use dpx_serve::daemon::{Daemon, DaemonConfig, DaemonReply, ReplySink};
use dpx_serve::{DatasetRegistry, ExplainRequest, ExplainResponse, ExplainService};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The request mix: clusterings cycled in blocks of 8, so the shared counts
/// cache sees cold misses, a high warm-hit rate, and — because workers claim
/// ids round-robin — *identical cold requests racing concurrently*, the case
/// the cache's single-flight discipline exists for.
fn batch(n_requests: usize) -> Vec<ExplainRequest> {
    (0..n_requests as u64)
        .map(|id| {
            let block = (id / 8) as usize;
            let mut req = ExplainRequest::new(id);
            req.cluster_by = [0, 2, 4, 6][block % 4];
            req.n_clusters = 2 + (block % 3);
            req
        })
        .collect()
}

/// A stable content digest of the sorted response lines (FNV-1a over the
/// bytes) — cheap to compare across cells.
fn digest(responses: &[ExplainResponse]) -> u64 {
    let mut sorted: Vec<&ExplainResponse> = responses.iter().collect();
    sorted.sort_by_key(|r| r.id);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for response in sorted {
        for byte in response.to_json_line().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// One run's sample: (wall seconds, latencies ms, grants/fsync,
/// singleflight hits, ok count).
type RunSample = (f64, Vec<f64>, f64, u64, usize);

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// One timed run of the batch: `workers` OS threads each execute a disjoint
/// stride of the requests, timing every call. Returns (wall seconds,
/// per-request latencies in ms, responses).
fn drive(
    service: &ExplainService,
    requests: &[ExplainRequest],
    workers: usize,
) -> (f64, Vec<f64>, Vec<ExplainResponse>) {
    let t0 = Instant::now();
    let per_thread: Vec<Vec<(ExplainResponse, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for req in requests.iter().skip(w).step_by(workers) {
                        let t = Instant::now();
                        let resp = service.execute(req);
                        out.push((resp, t.elapsed().as_secs_f64() * 1e3));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    for (resp, ms) in per_thread.into_iter().flatten() {
        responses.push(resp);
        latencies.push(ms);
    }
    (wall, latencies, responses)
}

/// What one daemon request-reply submitter observed for one request:
/// client-perceived latency (first submit to ok reply, overload retries and
/// backoff included) and how many times the daemon shed it first.
struct DaemonSample {
    latency_ms: f64,
    sheds: u64,
}

/// Drives the resident daemon with `submitters` backpressure-respecting
/// clients over one shared tenant lane: each client submits its stride
/// request-reply, and on an `overloaded` reject honors the daemon's
/// `retry_after_ms` hint (capped) before resubmitting the *same id* — the
/// contract the admission layer documents. Returns (wall seconds, samples).
fn drive_daemon(
    daemon: &Daemon,
    requests: &[ExplainRequest],
    submitters: usize,
) -> (f64, Vec<DaemonSample>) {
    // One reply slot per in-flight request; the sink fills it, the
    // submitter waits on it. (ok, retry_after_ms) is all the client reads.
    type Slot = Arc<(Mutex<Option<(bool, Option<u64>)>>, Condvar)>;
    let submit_wait = |request: &ExplainRequest| -> (bool, Option<u64>) {
        let slot: Slot = Arc::new((Mutex::new(None), Condvar::new()));
        let sink: ReplySink = {
            let slot = Arc::clone(&slot);
            Arc::new(move |reply: DaemonReply<'_>| {
                if let DaemonReply::Response(response) = reply {
                    *slot.0.lock().unwrap() = Some((response.is_ok(), response.retry_after_ms));
                    slot.1.notify_all();
                }
            })
        };
        daemon.handle_request(request.clone(), &sink);
        let mut guard = slot.0.lock().unwrap();
        while guard.is_none() {
            guard = slot.1.wait(guard).unwrap();
        }
        guard.take().expect("reply recorded before wake")
    };

    let t0 = Instant::now();
    let per_thread: Vec<Vec<DaemonSample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                let submit_wait = &submit_wait;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for request in requests.iter().skip(s).step_by(submitters) {
                        let t = Instant::now();
                        let mut sheds = 0u64;
                        loop {
                            let (ok, retry_after_ms) = submit_wait(request);
                            if ok {
                                break;
                            }
                            sheds += 1;
                            assert!(sheds < 10_000, "request {} never admitted", request.id);
                            let backoff = retry_after_ms.unwrap_or(1).min(50);
                            std::thread::sleep(Duration::from_millis(backoff));
                        }
                        out.push(DaemonSample {
                            latency_ms: t.elapsed().as_secs_f64() * 1e3,
                            sheds,
                        });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    (wall, per_thread.into_iter().flatten().collect())
}

fn main() {
    let args = Args::parse();
    let rows = args.usize("rows", 4_000);
    let n_requests = args.usize("requests", 256);
    let runs = args.usize("runs", 5);
    let seed = args.u64("seed", 2026);
    let threads = args.usize_list("threads", &[1, 2, 4, 8]);
    let out = args.string("out", "results/BENCH_serve.json");

    let mut rng = StdRng::seed_from_u64(seed);
    let data = Arc::new(synth::diabetes::spec(3).generate(rows, &mut rng).data);
    let requests = batch(n_requests);
    let base = std::env::temp_dir().join(format!("dpx-bench-serve-{}", std::process::id()));
    eprintln!(
        "# serve_throughput: {rows} rows, {n_requests} requests, workers {threads:?}, \
         {runs} runs"
    );

    let config = ShardConfig {
        cap: Some(Epsilon::new(1e6).unwrap()),
        checkpoint_every: None,
    };
    let mut reference_digest = None;
    let mut cells = Vec::new();
    for &workers in &threads {
        // Best run (by wall clock); its latencies and counters are the ones
        // reported, so each cell comes from one coherent run.
        let mut best: Option<RunSample> = None;
        for run in 0..runs {
            // Fresh ledger dir, registry, and cache per run: the accountant
            // and counts start cold, so every run measures the same work —
            // durable WAL included.
            let dir = base.join(format!("w{workers}-r{run}"));
            let _ = std::fs::remove_dir_all(&dir);
            let shards = Arc::new(AccountantShards::in_dir(&dir).expect("ledger dir"));
            let registry = Arc::new(DatasetRegistry::with_shards(Arc::clone(&shards)));
            let entry = registry
                .register_sharded("default", Arc::clone(&data), config)
                .expect("register dataset shard");
            let service = ExplainService::new(Arc::clone(&registry));

            let (wall, latencies, responses) = drive(&service, &requests, workers);
            let d = digest(&responses);
            match reference_digest {
                None => reference_digest = Some(d),
                Some(reference) => assert_eq!(
                    d, reference,
                    "workers={workers}: responses diverged from the reference"
                ),
            }
            let ok = responses.iter().filter(|r| r.is_ok()).count();
            let stats = entry.accountant().ledger_stats();
            let grants_per_fsync = if stats.append_batches > 0 {
                stats.grants_appended as f64 / stats.append_batches as f64
            } else {
                0.0
            };
            let singleflight_hits = entry.cache().singleflight_hits();
            if best.as_ref().is_none_or(|(w, ..)| wall < *w) {
                best = Some((wall, latencies, grants_per_fsync, singleflight_hits, ok));
            }
        }
        let (wall, mut latencies, grants_per_fsync, singleflight_hits, ok) =
            best.expect("at least one run");
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rate = n_requests as f64 / wall;
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        eprintln!(
            "# workers {workers:>2}: best {wall:.3}s  ({rate:6.1} req/s, \
             p50 {p50:.2}ms, p99 {p99:.2}ms, {grants_per_fsync:.2} grants/fsync, \
             {singleflight_hits} singleflight hits, {ok} ok)"
        );
        cells.push(
            Json::object()
                .field("workers", workers)
                .field("wall_s_best", wall)
                .field("requests_per_sec", rate)
                .field("p50_ms", p50)
                .field("p99_ms", p99)
                .field("grants_per_fsync", grants_per_fsync)
                .field("singleflight_hits", singleflight_hits)
                .field("ok", ok),
        );
    }
    // Daemon mode: the same request mix through `serve-daemon`'s resident
    // pipeline — bounded tenant queue, admission control, worker pool —
    // driven by backpressure-respecting clients at well past the queue
    // bound, so the cell reports what the daemon *sustains* while shedding
    // (client-perceived latency, retries included) rather than what an
    // unbounded batch absorbs.
    let daemon_workers = args.usize("daemon-workers", 4);
    let daemon_queue = args.usize("daemon-queue", 4);
    let daemon_submitters = args.usize("daemon-submitters", 16);
    let daemon_cell = {
        let dir = base.join("daemon");
        let _ = std::fs::remove_dir_all(&dir);
        let shards = Arc::new(AccountantShards::in_dir(&dir).expect("ledger dir"));
        let registry = Arc::new(DatasetRegistry::with_shards(Arc::clone(&shards)));
        let entry = registry
            .register_sharded("default", Arc::clone(&data), config)
            .expect("register dataset shard");
        let daemon = Daemon::new(
            Arc::clone(&registry),
            DaemonConfig {
                workers: daemon_workers,
                queue_capacity: daemon_queue,
                drain_deadline_ms: 600_000,
                ..Default::default()
            },
        );
        let handles = daemon.start();
        let (wall, samples) = drive_daemon(&daemon, &requests, daemon_submitters);
        let summary = daemon.drain_and_join(handles);

        // Guards before any number is trusted: every request served exactly
        // once, ε spent exactly per served request, accounting probes clean.
        assert_eq!(
            summary.served, n_requests as u64,
            "daemon served {} of {n_requests} requests",
            summary.served
        );
        assert!(
            summary.probe_violations.is_empty(),
            "daemon accounting probes tripped: {:?}",
            summary.probe_violations
        );
        let spent = entry.accountant().spent();
        let expected = 0.3 * n_requests as f64;
        assert!(
            (spent - expected).abs() < 1e-6,
            "daemon spent {spent}, want exactly {expected} over served requests"
        );

        let shed: u64 = samples.iter().map(|s| s.sheds).sum();
        let mut latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sustained_rps = n_requests as f64 / wall;
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        let shed_rate = shed as f64 / (shed + n_requests as u64) as f64;
        eprintln!(
            "# daemon {daemon_workers}w q{daemon_queue} x{daemon_submitters}: {wall:.3}s  \
             ({sustained_rps:6.1} req/s sustained, p50 {p50:.2}ms, p99 {p99:.2}ms, \
             {shed} sheds, shed rate {shed_rate:.3})"
        );
        Json::object()
            .field("workers", daemon_workers)
            .field("queue_capacity", daemon_queue)
            .field("submitters", daemon_submitters)
            .field("requests", n_requests)
            .field("served", summary.served)
            .field("shed", shed)
            .field("shed_rate", shed_rate)
            .field("sustained_rps", sustained_rps)
            .field("p50_ms", p50)
            .field("p99_ms", p99)
    };
    let _ = std::fs::remove_dir_all(&base);

    let doc = Json::object()
        .field("bench", "serve_throughput")
        .field("host", dpx_bench::host_block())
        .field("rows", rows)
        .field("requests", n_requests)
        .field("runs", runs)
        .field("seed", seed)
        .field(
            "digest",
            format!("{:016x}", reference_digest.expect("at least one run")),
        )
        .field("cells", cells)
        .field("daemon", daemon_cell);

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, doc.pretty()).expect("write BENCH json");
    eprintln!("# wrote {out}");
}
