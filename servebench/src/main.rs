//! servebench: the repository benchmark. Drives the resident explanation
//! daemon (`dpx_serve::daemon::Daemon`, configured as `serve-daemon` is by
//! default) with one open-loop load generator, then a closed-loop saturation
//! phase, and checks every answer before printing a number.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path servebench/Cargo.toml -- \
//!     --workload warm-large --seed 1 --seconds 36 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the same
//! open-loop schedule once through the daemon and once through a traced
//! copy of the serving path, and prints the per-layer table and metrics.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. See `README.md` for the layer → metric map.

mod collect;
mod drive;
mod host;
mod quality;
mod stats;
mod trace;
mod workload;

use collect::{digest, Collector, Reply};
use dpx_data::Dataset;
use dpx_dp::shards::{AccountantShards, ShardConfig};
use dpx_serve::{reason, Daemon, DaemonConfig, DatasetRegistry, Json};
use drive::{DaemonServer, Generator, Sent, TracedServer};
use host::Host;
use stats::{mean, median, tail, windowed_tail};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trace::{layer_table, RequestTrace};
use workload::{Op, Plan, Workload, APPEND_ROWS, DATASET};

const USAGE: &str = "usage: servebench --workload <warm-large|search-small|append-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";
/// Share of `--seconds` spent in the open-loop phase; the closed-loop
/// saturation phase gets the rest.
const OPEN_SHARE: f64 = 0.85;
/// Requests kept outstanding in the closed loop and the gate bursts: enough
/// to keep both workers busy, well under the daemon's queue capacity of 32,
/// so nothing is refused.
const WINDOW: usize = 8;
/// Requests after the warm-ups that every gate replica replays.
const GATE_BURST: usize = 40;
/// Set-ups without a gate burst, measured only for `setup_s`.
const BARE_SETUPS: usize = 6;
/// Appends timed after the explain phases on workloads without appends.
const PROBE_APPENDS: usize = 31;
/// Pause before each probe append. Back to back, the probes on
/// `search-small` last under 0.2 s and their median follows whichever
/// short spell of host interference they land in; paced, they span about
/// 1.5 s.
const PROBE_GAP: Duration = Duration::from_millis(40);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload::by_name(workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|message| {
        eprintln!("servebench: {message}\n{USAGE}");
        std::process::exit(2);
    });
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(report) => print!("{report}"),
        Err(message) => {
            eprintln!("servebench: {message}");
            std::process::exit(1);
        }
    }
}

/// Correctness failures found so far.
#[derive(Default)]
struct Gate(Vec<String>);

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    fn result(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("correctness gate failed:\n{}", self.0.join("\n")))
        }
    }
}

fn open_registry(data: &Arc<Dataset>, dir: &Path) -> Result<Arc<DatasetRegistry>, String> {
    let shards = AccountantShards::in_dir(dir).map_err(|e| e.to_string())?;
    let registry = DatasetRegistry::with_shards(Arc::new(shards));
    // serve-daemon's default: uncapped, per-grant fsync, no checkpoints.
    registry
        .register_sharded(DATASET, Arc::clone(data), ShardConfig::default())
        .map_err(|e| e.to_string())?;
    Ok(Arc::new(registry))
}

/// A daemon over a fresh durable registry, warmed up.
struct DaemonSide {
    plan: Plan,
    registry: Arc<DatasetRegistry>,
    collector: Arc<Collector>,
    server: DaemonServer,
    workers: Vec<JoinHandle<()>>,
    setup_s: f64,
}

impl DaemonSide {
    /// Set-up as timed by `setup_s`: registration (fingerprint scan), shard
    /// WAL open, daemon start, and the warm-up builds.
    fn start(
        w: &'static Workload,
        seed: u64,
        data: &Arc<Dataset>,
        dir: &Path,
    ) -> Result<Self, String> {
        let mut plan = Plan::new(w, seed);
        let start = Instant::now();
        let registry = open_registry(data, dir)?;
        let daemon = Daemon::new(Arc::clone(&registry), DaemonConfig::default());
        let workers = daemon.start();
        let collector = Arc::new(Collector::default());
        let server = DaemonServer {
            daemon,
            sink: collector.sink(),
        };
        let warm = 0..w.warm.len();
        Generator::new(&mut plan, &collector, &server).sequential(warm)?;
        let setup_s = start.elapsed().as_secs_f64();
        Ok(DaemonSide {
            plan,
            registry,
            collector,
            server,
            workers,
            setup_s,
        })
    }

    fn generator(&mut self) -> Generator<'_> {
        Generator::new(&mut self.plan, &self.collector, &self.server)
    }

    /// Drains the daemon and checks what it served.
    fn finish(self, gate: &mut Gate, label: &str, base_rows: usize) -> Finished {
        let summary = self.server.daemon.drain_and_join(self.workers);
        gate.check(summary.clean(), || {
            format!("{label}: unclean drain:\n{}", summary.render())
        });
        let replies = self.collector.replies();
        check_served(
            gate,
            label,
            &self.plan,
            &replies,
            &self.registry,
            base_rows,
            &self.collector,
        );
        let rejects = self.server.daemon.metrics().totals().2;
        Finished {
            plan: self.plan,
            replies,
            rejects,
        }
    }
}

struct Finished {
    plan: Plan,
    replies: Vec<Option<Reply>>,
    rejects: u64,
}

/// The gate's per-run checks: every sent item answered once, no ledger
/// write or panic failures, append sizes as sent, shard ε equal to the ε of
/// the served explains, accounting probes silent.
fn check_served(
    gate: &mut Gate,
    label: &str,
    plan: &Plan,
    replies: &[Option<Reply>],
    registry: &DatasetRegistry,
    base_rows: usize,
    collector: &Collector,
) {
    gate.check(collector.stray() == 0, || {
        format!("{label}: {} stray replies", collector.stray())
    });
    let mut served_eps = 0.0;
    for (item, reply) in plan.items.iter().zip(replies) {
        let Some(reply) = reply else { continue };
        let broken = reply.reason.as_deref() == Some(reason::LEDGER_WRITE)
            || reply
                .error
                .as_deref()
                .is_some_and(|e| e.contains("panicked"));
        gate.check(!broken, || {
            format!("{label}: request {} failed: {:?}", item.id, reply.error)
        });
        match item.op {
            Op::Append { index } if reply.ok => {
                let want = (base_rows + APPEND_ROWS * (index + 1)) as u64;
                let got = reply.total_rows.unwrap_or(0);
                gate.check(got == want, || {
                    format!("{label}: append {} left {got} rows, want {want}", item.id)
                });
            }
            Op::Explain { .. } if reply.ok => served_eps += item.eps,
            _ => {}
        }
    }
    gate.check(replies.len() <= plan.items.len(), || {
        format!("{label}: replies to unplanned ids")
    });
    match registry.get(DATASET) {
        Some(entry) => {
            let spent = entry.accountant().spent();
            gate.check(spent == served_eps, || {
                format!("{label}: shard spent ε {spent:?}, served explains asked {served_eps:?}")
            });
        }
        None => gate.0.push(format!("{label}: dataset vanished")),
    }
    let violations = registry.shards().probe_violations();
    gate.check(violations.is_empty(), || {
        format!("{label}: probe violations {violations:?}")
    });
}

/// Replies to plan items `indices`, each present.
fn answered(
    replies: &[Option<Reply>],
    indices: impl Iterator<Item = usize>,
) -> Result<Vec<&Reply>, String> {
    indices
        .map(|i| {
            replies
                .get(i)
                .and_then(Option::as_ref)
                .ok_or_else(|| format!("plan item {i} was never answered"))
        })
        .collect()
}

fn latency_ms(sent: &[Option<Sent>], replies: &[Option<Reply>], index: usize) -> f64 {
    match (&sent[index], &replies[index]) {
        (Some(sent), Some(reply)) => {
            reply.at.saturating_duration_since(sent.due).as_secs_f64() * 1e3
        }
        _ => f64::NAN,
    }
}

/// One metric line of the final JSON object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn render(metrics: &[Metric], attempted: usize, failed: usize) -> String {
    let mut object = Json::object();
    for m in metrics {
        object = object.field(
            m.name,
            Json::object().field("value", m.value).field("unit", m.unit),
        );
    }
    Json::object()
        .field("correct", true)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", object)
        .render()
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let data = Arc::new(w.data(args.seed));
    let base_rows = data.n_rows();
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let host = Host::measure(&data, work);
    let mut gate = Gate::default();
    let mut setup_s = Vec::new();
    let mut out = String::new();

    // Gate replicas: two daemons and the traced path replay the warm-ups
    // and the first GATE_BURST requests; their digests must agree.
    let n_warm = w.warm.len();
    let burst = 0..n_warm + GATE_BURST;
    let mut digests = Vec::new();
    for replica in 0..2 {
        let mut side =
            DaemonSide::start(w, args.seed, &data, &work.join(format!("gate{replica}")))?;
        setup_s.push(side.setup_s);
        side.generator().windowed(n_warm..burst.end, WINDOW)?;
        let done = side.finish(&mut gate, &format!("gate replica {replica}"), base_rows);
        digests.push(digest(&done.replies, burst.clone()));
    }
    let traced = traced_run(
        w,
        args.seed,
        &data,
        &work.join("gate-traced"),
        &mut gate,
        base_rows,
        |g| g.windowed(n_warm..burst.end, WINDOW),
    )?;
    digests.push(digest(&traced.replies, burst.clone()));
    gate.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("gate replicas disagree: digests {digests:x?}")
    });
    for bare in 0..BARE_SETUPS {
        let side = DaemonSide::start(w, args.seed, &data, &work.join(format!("bare{bare}")))?;
        setup_s.push(side.setup_s);
        side.finish(&mut gate, "bare set-up", base_rows);
    }

    // The measured run.
    // A traced run replays the open loop twice (daemon, then traced path),
    // each for half of `--seconds`; an untraced run adds the closed loop.
    let open_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds * OPEN_SHARE
    };
    let n_open = ((w.rate_rps * open_s).round() as usize).max(1);
    let open = n_warm..n_warm + n_open;
    let mut side = DaemonSide::start(w, args.seed, &data, &work.join("measured"))?;
    setup_s.push(side.setup_s);
    let mut generator = side.generator();
    // The closed loop's requests are planned up front (four times the
    // open-loop rate's worth, more only if needed), so plan memory does not track
    // throughput into rss_peak_mb.
    let closed_s = args.seconds - open_s;
    generator
        .plan
        .extend_to(open.end + (4.0 * w.rate_rps * closed_s).ceil() as usize);
    generator.open_loop(open.clone(), w.rate_rps, w.poisson, args.seed)?;
    let mut closed = (open.end, Instant::now(), Instant::now());
    let mut probe = 0..0;
    if !args.trace {
        closed = generator.closed_loop(open.end, WINDOW, Duration::from_secs_f64(closed_s))?;
        if w.append_every.is_none() {
            let first = generator.plan.items.len();
            for _ in 0..PROBE_APPENDS {
                generator.plan.push_append();
            }
            probe = first..generator.plan.items.len();
            for index in probe.clone() {
                std::thread::sleep(PROBE_GAP);
                generator.sequential(index..index + 1)?;
            }
        }
    }
    let sent = generator.sent;
    let admit_us: Vec<f64> = open
        .clone()
        .filter_map(|i| sent[i].map(|s| s.admit.as_secs_f64() * 1e6))
        .collect();
    let measured = side.finish(&mut gate, "measured run", base_rows);
    let replies = &measured.replies;
    let items = &measured.plan.items;
    let open_replies = answered(replies, open.clone())?;
    let explain_ms: Vec<f64> = open
        .clone()
        .filter(|&i| !items[i].is_append())
        .map(|i| latency_ms(&sent, replies, i))
        .collect();
    let untraced = windowed_tail(&explain_ms, 0.99);

    if args.trace {
        let traced = traced_run(
            w,
            args.seed,
            &data,
            &work.join("traced"),
            &mut gate,
            base_rows,
            |g| g.open_loop(open.clone(), w.rate_rps, w.poisson, args.seed),
        )?;
        gate.check(
            digest(replies, open.clone()) == digest(&traced.replies, open.clone()),
            || "traced run's responses differ from the untraced run's".to_string(),
        );
        gate.result()?;
        out.push_str(&format!(
            "{}\n",
            Json::object().field("host", host.json()).render()
        ));
        let traces: Vec<RequestTrace> = open
            .clone()
            .map(|i| traced.trace_of(i))
            .collect::<Result<_, _>>()?;
        let traced_tail = tail(
            &traces
                .iter()
                .filter(|t| t.spans.cache_hit.is_some())
                .map(|t| t.e2e_ms)
                .collect::<Vec<_>>(),
            0.99,
        );
        let table = layer_table(&traces);
        out.push_str(&format!(
            "# {} traced: p50 {:.4} ms (untraced p50 {:.4} ms, p{:.1} {:.4} ms, n={})\n{}",
            w.name,
            traced_tail.p50,
            untraced.p50,
            untraced.q * 100.0,
            untraced.tail,
            untraced.n,
            table.render()
        ));
        let mut metrics = layer_metrics(&traces, &traced, &host);
        metrics.extend([
            Metric {
                name: "daemon.admit_us",
                value: mean(&admit_us),
                unit: "us",
            },
            Metric {
                name: "daemon.rejects",
                value: measured.rejects as f64,
                unit: "count",
            },
            Metric {
                name: "gap_ms",
                value: table.gap_ms,
                unit: "ms",
            },
            Metric {
                name: "trace.overhead_pct",
                value: 100.0 * (traced_tail.p50 - untraced.p50) / untraced.p50,
                unit: "%",
            },
        ]);
        metrics.sort_by_key(|m| m.name);
        for m in &metrics {
            out.push_str(&format!("{:<28} {:>14.6} {}\n", m.name, m.value, m.unit));
        }
        let attempted = 2 * open.len();
        let failed = open_replies.iter().filter(|r| !r.ok).count()
            + answered(&traced.replies, open.clone())?
                .iter()
                .filter(|r| !r.ok)
                .count();
        out.push_str(&render(&metrics, attempted, failed));
        out.push('\n');
        return Ok(out);
    }

    gate.result()?;
    let (closed_end, closed_start, closed_stop) = closed;
    let closed_range = open.end..closed_end;
    let completed = closed_range
        .clone()
        .filter(|&i| !items[i].is_append())
        .filter(|&i| {
            replies[i]
                .as_ref()
                .is_some_and(|r| r.ok && r.at <= closed_stop)
        })
        .count();
    let throughput = completed as f64 / (closed_stop - closed_start).as_secs_f64();
    let all = answered(
        replies,
        open.clone()
            .chain(closed_range.clone())
            .chain(probe.clone()),
    )?;
    let failed = all.iter().filter(|r| !r.ok).count();
    let mut failures: std::collections::BTreeMap<&str, usize> = Default::default();
    for reply in all.iter().filter(|r| !r.ok) {
        *failures
            .entry(reply.reason.as_deref().unwrap_or("other"))
            .or_default() += 1;
    }
    let appends: Vec<f64> = open
        .clone()
        .chain(probe)
        .filter(|&i| items[i].is_append())
        .map(|i| latency_ms(&sent, replies, i))
        .collect();
    let quality =
        quality::mean_quality(&data, &measured.plan.deltas, &items[open.clone()], replies)?;
    let metrics = [
        Metric {
            name: "p50_ms",
            value: untraced.p50,
            unit: "ms",
        },
        Metric {
            name: "p99_ms",
            value: untraced.tail,
            unit: "ms",
        },
        Metric {
            name: "throughput_rps",
            value: throughput,
            unit: "req/s",
        },
        Metric {
            name: "success_rate",
            value: 1.0 - failed as f64 / all.len() as f64,
            unit: "fraction",
        },
        Metric {
            name: "append_p50_ms",
            value: median(&appends),
            unit: "ms",
        },
        Metric {
            name: "quality",
            value: quality,
            unit: "score",
        },
        Metric {
            name: "rss_peak_mb",
            value: host::rss_peak_mb(),
            unit: "MB",
        },
        Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
        },
    ];
    out.push_str(&format!(
        "{}\n",
        Json::object().field("host", host.json()).render()
    ));
    out.push_str(&format!(
        "# {}: {}\n# open loop {} req/s for {:.1} s, closed loop {} outstanding for {:.1} s\n\
         # p50 over n={} explains; p99_ms is the lower quartile of per-window p{:.1}; error_rate {:.6} \
         {:?}; {} appends timed; {} set-ups\n",
        w.name,
        w.why,
        w.rate_rps,
        open_s,
        WINDOW,
        args.seconds - open_s,
        untraced.n,
        untraced.q * 100.0,
        failed as f64 / all.len() as f64,
        failures,
        appends.len(),
        setup_s.len(),
    ));
    for m in &metrics {
        out.push_str(&format!("{:<16} {:>14.6} {}\n", m.name, m.value, m.unit));
    }
    out.push_str(&render(&metrics, all.len(), failed));
    out.push('\n');
    Ok(out)
}

/// A finished traced run: replies, the generator's records, and the
/// server-side spans.
struct Traced {
    replies: Vec<Option<Reply>>,
    sent: Vec<Option<Sent>>,
    spans: Vec<Option<trace::Spans>>,
    max_depth: usize,
    cache_entries: usize,
    singleflight_joins: u64,
    grants_per_fsync: f64,
}

impl Traced {
    fn trace_of(&self, index: usize) -> Result<RequestTrace, String> {
        let missing = || format!("traced item {index} has no record");
        let sent = self
            .sent
            .get(index)
            .copied()
            .flatten()
            .ok_or_else(missing)?;
        let reply = self
            .replies
            .get(index)
            .and_then(Option::as_ref)
            .ok_or_else(missing)?;
        let mut spans = self
            .spans
            .get(index)
            .cloned()
            .flatten()
            .ok_or_else(missing)?;
        spans.set(trace::LAG, sent.lag);
        spans.set(trace::BARRIER, sent.barrier);
        spans.set(trace::PARSE, sent.parse);
        Ok(RequestTrace {
            e2e_ms: reply.at.saturating_duration_since(sent.due).as_secs_f64() * 1e3,
            spans,
        })
    }
}

/// Runs `drive` against the traced serving path over a fresh registry,
/// after the same warm-ups a daemon set-up does, and gate-checks it.
fn traced_run(
    w: &'static Workload,
    seed: u64,
    data: &Arc<Dataset>,
    dir: &Path,
    gate: &mut Gate,
    base_rows: usize,
    drive: impl FnOnce(&mut Generator<'_>) -> Result<(), String>,
) -> Result<Traced, String> {
    let mut plan = Plan::new(w, seed);
    let registry = open_registry(data, dir)?;
    let collector = Arc::new(Collector::default());
    let server = TracedServer::new(Arc::clone(&registry), Arc::clone(&collector));
    let workers = server.start(DaemonConfig::default().workers);
    let entry = registry.get(DATASET).ok_or("dataset vanished")?;
    let mut generator = Generator::new(&mut plan, &collector, &*server);
    generator.sequential(0..w.warm.len())?;
    let joins_before = entry.cache().singleflight_hits();
    let result = drive(&mut generator);
    let sent = generator.sent;
    let by_id = server.stop(workers)?;
    result?;
    let replies = collector.replies();
    check_served(
        gate,
        "traced run",
        &plan,
        &replies,
        &registry,
        base_rows,
        &collector,
    );
    let mut spans = vec![None; plan.items.len()];
    for (id, s) in by_id {
        if let Some(slot) = spans.get_mut(id as usize) {
            *slot = Some(s);
        }
    }
    let entry = registry.get(DATASET).ok_or("dataset vanished")?;
    let stats = entry.accountant().ledger_stats();
    Ok(Traced {
        replies,
        sent,
        spans,
        max_depth: server.max_depth(),
        cache_entries: entry.cache().len(),
        singleflight_joins: entry.cache().singleflight_hits() - joins_before,
        grants_per_fsync: stats.grants_appended as f64 / stats.append_batches.max(1) as f64,
    })
}

/// The per-layer metrics of a traced run (see `README.md`).
fn layer_metrics(traces: &[RequestTrace], traced: &Traced, host: &Host) -> Vec<Metric> {
    let explains: Vec<&RequestTrace> = traces
        .iter()
        .filter(|t| t.spans.cache_hit.is_some())
        .collect();
    let appends: Vec<&RequestTrace> = traces
        .iter()
        .filter(|t| t.spans.refreshed.is_some())
        .collect();
    let of = |set: &[&RequestTrace], layer: usize| -> Vec<f64> {
        set.iter().map(|t| t.spans.ms[layer]).collect()
    };
    let hits: Vec<&RequestTrace> = explains
        .iter()
        .copied()
        .filter(|t| t.spans.cache_hit == Some(true))
        .collect();
    let misses: Vec<&RequestTrace> = explains
        .iter()
        .copied()
        .filter(|t| t.spans.cache_hit == Some(false))
        .collect();
    let build_ms: f64 = of(&misses, trace::COUNTS).iter().sum();
    let build_bytes: f64 = misses.iter().map(|t| t.spans.build_bytes).sum();
    let build_gbps = if build_ms > 0.0 {
        build_bytes / (build_ms / 1e3) / 1e9
    } else {
        0.0
    };
    let stage2_ms: f64 = of(&explains, trace::STAGE2).iter().sum();
    let leaves: f64 = explains.iter().map(|t| t.spans.leaves).sum();
    let wait = tail(&of(&explains, trace::WAIT), 0.99);
    let grant = tail(&of(&explains, trace::GRANT), 0.99);
    let all: Vec<&RequestTrace> = traces.iter().collect();
    let mean_of = |set: &[&RequestTrace], layer: usize| mean(&of(set, layer));
    vec![
        Metric {
            name: "wire.parse_us",
            value: 1e3 * mean_of(&all, trace::PARSE),
            unit: "us",
        },
        Metric {
            name: "wire.render_us",
            value: 1e3 * mean_of(&all, trace::RENDER),
            unit: "us",
        },
        Metric {
            name: "daemon.queue_wait_p50_ms",
            value: wait.p50,
            unit: "ms",
        },
        Metric {
            name: "daemon.queue_wait_p99_ms",
            value: wait.tail,
            unit: "ms",
        },
        Metric {
            name: "daemon.queue_depth_max",
            value: traced.max_depth as f64,
            unit: "count",
        },
        Metric {
            name: "ledger.grant_p50_ms",
            value: grant.p50,
            unit: "ms",
        },
        Metric {
            name: "ledger.grant_p99_ms",
            value: grant.tail,
            unit: "ms",
        },
        Metric {
            name: "ledger.grants_per_fsync",
            value: traced.grants_per_fsync,
            unit: "count",
        },
        Metric {
            name: "registry.note_us",
            value: 1e3 * mean_of(&explains, trace::NOTE),
            unit: "us",
        },
        Metric {
            name: "labels.derive_ms",
            value: mean_of(&explains, trace::DERIVE),
            unit: "ms",
        },
        Metric {
            name: "counts.hit_ms",
            value: mean_of(&hits, trace::COUNTS),
            unit: "ms",
        },
        Metric {
            name: "counts.build_ms",
            value: mean_of(&misses, trace::COUNTS),
            unit: "ms",
        },
        Metric {
            name: "counts.hit_ratio",
            value: hits.len() as f64 / explains.len().max(1) as f64,
            unit: "fraction",
        },
        Metric {
            name: "counts.singleflight_joins",
            value: traced.singleflight_joins as f64,
            unit: "count",
        },
        Metric {
            name: "counts.build_gbps",
            value: build_gbps,
            unit: "GB/s",
        },
        Metric {
            name: "counts.roofline_frac",
            value: build_gbps / host.read_gbps,
            unit: "fraction",
        },
        Metric {
            name: "counts.cache_entries",
            value: traced.cache_entries as f64,
            unit: "count",
        },
        Metric {
            name: "append.ms",
            value: mean_of(&appends, trace::APPEND),
            unit: "ms",
        },
        Metric {
            name: "append.refreshed",
            value: mean(
                &appends
                    .iter()
                    .map(|t| t.spans.refreshed.unwrap_or(0) as f64)
                    .collect::<Vec<_>>(),
            ),
            unit: "count",
        },
        Metric {
            name: "stage1.ms",
            value: mean_of(&explains, trace::STAGE1),
            unit: "ms",
        },
        Metric {
            name: "stage2.ms",
            value: mean_of(&explains, trace::STAGE2),
            unit: "ms",
        },
        Metric {
            name: "stage2.leaves_per_s",
            value: if stage2_ms > 0.0 {
                leaves / (stage2_ms / 1e3)
            } else {
                0.0
            },
            unit: "1/s",
        },
        Metric {
            name: "histogram.ms",
            value: mean_of(&explains, trace::HIST),
            unit: "ms",
        },
        Metric {
            name: "engine.other_ms",
            value: mean_of(&explains, trace::ENGINE_OTHER),
            unit: "ms",
        },
        Metric {
            name: "response.build_us",
            value: 1e3 * mean_of(&explains, trace::RESPOND),
            unit: "us",
        },
        Metric {
            name: "gen.lag_ms",
            value: mean_of(&all, trace::LAG),
            unit: "ms",
        },
        Metric {
            name: "gen.barrier_ms",
            value: mean_of(&all, trace::BARRIER),
            unit: "ms",
        },
        Metric {
            name: "host.read_gbps",
            value: host.read_gbps,
            unit: "GB/s",
        },
    ]
}
