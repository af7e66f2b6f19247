//! `serve-daemon`: the resident explanation daemon over one registered
//! dataset.

use super::{flag, load, Flag};
use super::{Fallback::*, Kind::*};
use crate::args::Cli;
use crate::CliError;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

/// `serve-daemon`'s own flags (beside `--data` and `--schema`).
pub(super) const FLAGS: &[Flag] = &[
    flag(
        "out",
        Value,
        Required,
        "response file (JSONL): appended as answers land, rewritten sorted by id at a clean drain",
    ),
    flag(
        "requests",
        Value,
        Unset,
        "request file (JSONL), served closed-loop; with neither this nor --socket, stdin",
    ),
    flag(
        "socket",
        Value,
        Unset,
        "Unix socket to serve, one handler per connection, with full admission control",
    ),
    flag("workers", Value, Default("2"), "worker threads"),
    flag(
        "queue-capacity",
        Value,
        Default("32"),
        "queued requests per dataset; a full lane answers overloaded",
    ),
    flag(
        "drain-deadline-ms",
        Value,
        Default("10000"),
        "time the drain gives queued work; unstarted work past it is shed at zero ε",
    ),
    flag(
        "deadline-ms",
        Value,
        Unset,
        "wall-clock bound of each request, admission included (a request's deadline_ms overrides it)",
    ),
    flag("budget", Value, Unset, "ε cap of the dataset (uncapped when absent)"),
    flag("name", Value, Default("default"), "name requests address the dataset by"),
    flag(
        "ledger-dir",
        Value,
        Unset,
        "directory of durable per-dataset ε ledgers (<dir>/<name>.wal)",
    ),
    flag(
        "checkpoint-every",
        Value,
        Unset,
        "compact a shard's ledger after this many grants (needs --ledger-dir)",
    ),
    flag(
        "resume",
        Switch,
        Unset,
        "keep the served lines already in --out and skip re-spending for ids holding a \
         recovered grant (needs --ledger-dir and --requests)",
    ),
    flag(
        "metrics-out",
        Value,
        Unset,
        "file the stats snapshot is rewritten to every 64 completed requests and at drain",
    ),
];

/// Prints each durable shard's recovery, checkpoint and group-commit statistics
/// for the serving command's human summary.
fn print_ledger_stats(
    out: &mut dyn Write,
    registry: &dpx_serve::DatasetRegistry,
) -> Result<(), CliError> {
    for (shard, stats) in registry.shards().stats() {
        let origin = if stats.recovered_from_checkpoint {
            format!(
                "from checkpoint (+{} tail records)",
                stats.checkpoint_age_at_recovery
            )
        } else {
            "full history".to_string()
        };
        writeln!(
            out,
            "ledger '{shard}': replayed {} records ({origin}), truncated {} torn bytes, \
             {} checkpoints written ({} failed), {} grants since last checkpoint",
            stats.records_replayed,
            stats.truncated_bytes,
            stats.checkpoints_written,
            stats.checkpoint_failures,
            stats.appends_since_checkpoint
        )?;
        if stats.append_batches > 0 {
            writeln!(
                out,
                "ledger '{shard}': {} grants over {} fsync batches ({:.2} grants/fsync)",
                stats.grants_appended,
                stats.append_batches,
                stats.grants_appended as f64 / stats.append_batches as f64
            )?;
        }
    }
    Ok(())
}

/// Runs the resident explanation daemon (see `dpx_serve::daemon`) over one
/// registered dataset, on one transport: a `--requests` file, stdin, or a
/// `--socket`.
///
/// The file and stdin transports are closed-loop (at most
/// `--queue-capacity` requests unanswered, appends as barriers), so their
/// response stream — rewritten sorted by id at a clean drain — is
/// byte-identical for any `--workers` value.
///
/// `--ledger-dir` attaches a durable sharded ε ledger: each dataset gets its
/// own write-ahead file (`<dir>/<dataset>.wal`), every grant is fsynced
/// before its request runs, and a restarted invocation recovers each shard at
/// its exact spend. `--checkpoint-every N` compacts a shard's WAL to a
/// checkpoint record after every N grants, bounding recovery replay.
/// `--resume` (requires `--ledger-dir` and `--requests`) keeps the served
/// lines an interrupted run already flushed to `--out` and skips re-spending
/// for request ids that hold a recovered grant, so kill-and-rerun converges
/// on exactly the uninterrupted output without double-charging.
pub(super) fn serve_daemon(cli: &Cli, out: &mut dyn Write) -> Result<(), CliError> {
    use dpx_dp::budget::Epsilon;
    use dpx_runtime::faultpoint::{self, SERVICE_POST_RESPOND};
    use dpx_serve::daemon::{serve_lines, serve_socket, Daemon, DaemonConfig, DaemonReply};
    use dpx_serve::{parse_requests_lenient, AccountantShards, DatasetRegistry, ShardConfig};
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex, PoisonError};

    // Every flag is read and checked before the (expensive) dataset load,
    // so a bad invocation fails fast.
    let requests_path = cli.opt_str("requests");
    let socket_path = cli.opt_str("socket");
    let workers = cli.get::<usize>("workers")?.max(1);
    let queue_capacity = cli.get("queue-capacity")?;
    let drain_deadline_ms = cli.get("drain-deadline-ms")?;
    let deadline_ms = cli.opt("deadline-ms")?;
    let metrics_out = cli.opt_str("metrics-out");
    let ledger_dir = cli.opt_str("ledger-dir");
    let checkpoint_every = cli.opt("checkpoint-every")?;
    let resume = cli.bool("resume");
    if queue_capacity == 0 {
        return Err(CliError::Usage(
            "--queue-capacity must be positive (a zero-slot daemon can admit nothing)".into(),
        ));
    }
    if requests_path.is_some() && socket_path.is_some() {
        return Err(CliError::Usage(
            "--requests and --socket are mutually exclusive transports (pick one; \
             with neither, the daemon reads stdin)"
                .into(),
        ));
    }
    if resume && requests_path.is_none() {
        return Err(CliError::Usage(
            "--resume requires --requests (the request file is replayed with already-served \
             ids skipped; a socket or stdin stream cannot be replayed)"
                .into(),
        ));
    }
    if resume && ledger_dir.is_none() {
        return Err(CliError::Usage(
            "--resume requires --ledger-dir (there is no grant log to resume from)".into(),
        ));
    }
    if let Some(every) = checkpoint_every {
        if ledger_dir.is_none() {
            return Err(CliError::Usage(
                "--checkpoint-every requires --ledger-dir (nothing to checkpoint in memory)".into(),
            ));
        }
        if every == 0 {
            return Err(CliError::Usage(
                "--checkpoint-every must be positive".into(),
            ));
        }
    }
    let cap = cli.opt("budget")?.map(Epsilon::new).transpose()?;
    let name = cli.str("name")?;
    let out_path = cli.str("out")?;
    let data = Arc::new(load(cli)?);

    // With --ledger-dir, registering the dataset recovers its shard's
    // write-ahead ledger; the recovered grants are the ids that skip the
    // spend.
    let (registry, entry) = match ledger_dir {
        Some(dir) => {
            let shards = AccountantShards::in_dir(std::path::Path::new(dir))?;
            let registry = Arc::new(DatasetRegistry::with_shards(Arc::new(shards)));
            let config = ShardConfig {
                cap,
                checkpoint_every,
            };
            let entry = registry.register_sharded(name, data, config)?;
            (registry, entry)
        }
        None => {
            let registry = Arc::new(DatasetRegistry::new());
            let entry = registry.register(name, data, cap);
            (registry, entry)
        }
    };

    // --resume keeps served (ok) response lines and skips their ids on the
    // replayed request stream. Error lines are never kept: re-answering a
    // reject or a failed request is deterministic and charges nothing a
    // recovered grant does not already cover. Appends always re-execute —
    // their effect is in-memory dataset state.
    let append_ids: HashSet<u64> = match (requests_path, resume) {
        (Some(path), true) => {
            let (requests, _) = parse_requests_lenient(BufReader::new(File::open(path)?))?;
            requests
                .iter()
                .filter(|r| r.is_append())
                .map(|r| r.id)
                .collect()
        }
        _ => HashSet::new(),
    };
    let kept: Vec<(u64, String)> = if resume {
        read_kept_responses(out_path)?
            .into_iter()
            .filter(|(id, _)| !append_ids.contains(id))
            .filter(|(_, line)| line.contains("\"ok\":true"))
            .collect()
    } else {
        Vec::new()
    };
    let skip_ids: HashSet<u64> = kept.iter().map(|(id, _)| *id).collect();

    let config = DaemonConfig {
        workers,
        queue_capacity,
        drain_deadline_ms,
        deadline_ms,
        granted: entry.accountant().granted_ids().into_iter().collect(),
        checkpoint_every,
        metrics_out: metrics_out.map(std::path::PathBuf::from),
    };
    let daemon = Daemon::new(Arc::clone(&registry), config);
    let handles = daemon.start();

    // The durable response stream: kept lines are re-written first, then
    // every response-class reply is appended and flushed as it lands — a
    // crash loses at most the in-flight lines. Control replies (stats and
    // shutdown acks) are buffered for the human summary instead; they are
    // scheduling-dependent snapshots and must never touch this stream.
    let mut stream = BufWriter::new(File::create(out_path)?);
    for (_, line) in &kept {
        writeln!(stream, "{line}")?;
    }
    stream.flush()?;
    let stream = Arc::new(Mutex::new(stream));
    let collected: Arc<Mutex<Vec<(u64, u8, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let controls: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let durable: dpx_serve::ReplySink = {
        let stream = Arc::clone(&stream);
        let collected = Arc::clone(&collected);
        let controls = Arc::clone(&controls);
        Arc::new(move |reply: DaemonReply<'_>| match reply {
            DaemonReply::Response(response) => {
                let line = response.to_json_line();
                {
                    let mut w = stream.lock().unwrap_or_else(PoisonError::into_inner);
                    let _ = writeln!(w, "{line}");
                    let _ = w.flush();
                }
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((response.id, answer_rank(response), line));
                faultpoint::hit(SERVICE_POST_RESPOND);
            }
            DaemonReply::Control(control) => controls
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(control.render()),
        })
    };

    match (requests_path, socket_path) {
        (Some(path), None) => {
            serve_lines(
                &daemon,
                BufReader::new(File::open(path)?),
                &durable,
                &skip_ids,
            )?;
        }
        (None, Some(path)) => {
            writeln!(
                out,
                "daemon listening on {path} (send {{\"op\":\"shutdown\"}} to drain)"
            )?;
            serve_socket(&daemon, std::path::Path::new(path), &durable)?;
        }
        (None, None) => {
            let stdin = std::io::stdin();
            serve_lines(&daemon, stdin.lock(), &durable, &skip_ids)?;
        }
        (Some(_), Some(_)) => unreachable!("rejected above"),
    }
    let summary = daemon.drain_and_join(handles);

    // Clean drain: rewrite the durable stream sorted by id, an id's
    // executed answer before its rejects — the canonical form every clean
    // or resumed run produces. (After a crash the appended unsorted prefix
    // is what survives, and --resume converges it.) The sort is stable, so
    // same-rank lines of one id keep their arrival order, which the
    // transport's synchronous rejects fix.
    let mut lines: Vec<(u64, u8, String)> =
        kept.into_iter().map(|(id, line)| (id, 0, line)).collect();
    lines.extend(
        collected
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned(),
    );
    lines.sort_by_key(|&(id, rank, _)| (id, rank));
    drop(stream);
    let mut writer = BufWriter::new(File::create(out_path)?);
    for (_, _, line) in &lines {
        writeln!(writer, "{line}")?;
    }
    writer.flush()?;

    if resume {
        writeln!(
            out,
            "resumed: kept {} previously served responses, re-ran {}",
            skip_ids.len(),
            lines.len() - skip_ids.len()
        )?;
    }
    for control in controls
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        writeln!(out, "control: {control}")?;
    }
    write!(out, "{}", summary.render())?;
    writeln!(
        out,
        "responses -> {out_path} ({} lines, sorted by id)",
        lines.len()
    )?;
    writeln!(
        out,
        "counts cache: {} single-flight waits joined an in-flight build",
        entry.cache().singleflight_hits()
    )?;
    if ledger_dir.is_some() {
        print_ledger_stats(out, &registry)?;
    }
    if !summary.clean() {
        return Err(CliError::Usage(format!(
            "daemon drain was not clean: {} checkpoint failure(s), {} probe violation(s)",
            summary.checkpoint_errors.len(),
            summary.probe_violations.len()
        )));
    }
    Ok(())
}

/// Where a response sorts among the lines of its id: the executed answer
/// (served or failed in the pipeline) first, then the rejects given before
/// execution — wire rejects, a replayed id's `duplicate_id`, and the
/// admission classes that release the id.
fn answer_rank(response: &dpx_serve::ExplainResponse) -> u8 {
    use dpx_serve::{reason, reject_reason};
    match response.reason.as_deref() {
        Some(
            reject_reason::BAD_LINE
            | reject_reason::DUPLICATE_ID
            | reject_reason::INVALID_EPSILON
            | reject_reason::OVERLOADED
            | reason::DRAINING,
        ) => 1,
        _ => 0,
    }
}

/// Reads the response lines an interrupted serving run already wrote to
/// `path` (missing file → nothing kept). A final line that is torn — no
/// trailing newline, or unparseable — is dropped: the crash landed mid-write
/// and its request will simply be re-served. An unparseable *interior* line
/// means the file is not a response stream at all, which is an error rather
/// than something to silently overwrite.
fn read_kept_responses(path: &str) -> Result<Vec<(u64, String)>, CliError> {
    use dpx_serve::Json;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(CliError::Io(e)),
    };
    let mut lines: Vec<&str> = text.lines().collect();
    if !text.ends_with('\n') {
        lines.pop();
    }
    let last = lines.len();
    let mut kept = Vec::with_capacity(lines.len());
    for (i, line) in lines.into_iter().enumerate() {
        let id = Json::parse(line)
            .ok()
            .and_then(|json| json.get("id").and_then(Json::as_u64));
        match id {
            Some(id) => kept.push((id, line.to_string())),
            None if i + 1 == last => {} // torn tail despite its newline
            None => {
                return Err(CliError::Usage(format!(
                    "--resume: line {} of {path} is not a response line; refusing to overwrite",
                    i + 1
                )))
            }
        }
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::tests::{generated, run_cli, run_on, tmpdir};
    use std::path::{Path, PathBuf};

    /// Writes `body` as the request file `name` in the test directory.
    fn request_file(name: &str, body: &str) -> PathBuf {
        let path = tmpdir().join(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    /// Runs `serve-daemon` over the generated `(csv, schema)` and the request
    /// file `reqs` into `resp`, with `extra` flags.
    fn serve_file(data: &(String, String), reqs: &Path, resp: &Path, extra: &[&str]) -> String {
        let files = [
            "--requests",
            reqs.to_str().unwrap(),
            "--out",
            resp.to_str().unwrap(),
        ];
        run_on("serve-daemon", data, &[&files[..], extra].concat()).unwrap()
    }

    /// The usage error `args` is refused with.
    fn usage_error(args: &[&str]) -> String {
        match run_cli(args) {
            Err(CliError::Usage(m)) => m,
            other => panic!("{args:?}: want usage error, got {other:?}"),
        }
    }

    /// A coded row of the generated CSV with every attribute at `code`, as
    /// a JSON array (codes start at 0, so "0" is valid for every attribute).
    fn row_of(csv: &str, code: &str) -> String {
        let header = std::fs::read_to_string(csv).unwrap();
        let arity = header.lines().next().unwrap().split(',').count();
        format!("[{}]", vec![code; arity].join(","))
    }

    #[test]
    fn batch_is_byte_identical_across_worker_counts() {
        let data = generated("diabetes", "served", "900");
        // Unsorted ids, a shared clustering (cache reuse), a per-request
        // kernel override, and one bad request that must fail alone.
        let reqs = request_file(
            "served-reqs.jsonl",
            concat!(
                "{\"id\": 7, \"seed\": 1, \"n_clusters\": 3}\n",
                "# comment line\n",
                "{\"id\": 2, \"seed\": 2, \"n_clusters\": 3}\n",
                "{\"id\": 5, \"seed\": 3, \"n_clusters\": 2, \"stage2_kernel\": \"counter\"}\n",
                "{\"id\": 1, \"seed\": 4, \"cluster_by\": 9999}\n",
            ),
        );
        let mut outputs = Vec::new();
        for workers in ["1", "2", "7"] {
            let resp = tmpdir().join(format!("served-resp-{workers}.jsonl"));
            let text = serve_file(&data, &reqs, &resp, &["--workers", workers]);
            assert!(text.contains("served 3, rejected 1, shed 0"), "{text}");
            outputs.push(std::fs::read(&resp).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "workers 1 vs 2 diverged");
        assert_eq!(outputs[0], outputs[2], "workers 1 vs 7 diverged");
        let text = String::from_utf8(outputs[0].clone()).unwrap();
        let ids: Vec<&str> = text.lines().map(|l| l.split(',').next().unwrap()).collect();
        assert_eq!(
            ids,
            vec!["{\"id\":1", "{\"id\":2", "{\"id\":5", "{\"id\":7"],
            "responses sorted by id"
        );
        assert!(text.lines().next().unwrap().contains("out of range"));
    }

    #[test]
    fn serve_daemon_drains_cleanly_and_control_lines_leave_the_stream_unchanged() {
        let data = generated("diabetes", "daemon", "700");
        let explains = concat!(
            "{\"id\": 7, \"seed\": 1, \"n_clusters\": 3}\n",
            "# comment lines are skipped by both front ends\n",
            "{\"id\": 2, \"seed\": 2, \"n_clusters\": 3}\n",
            "{\"id\": 5, \"seed\": 3, \"n_clusters\": 2}\n",
        );
        let daemon_reqs = request_file(
            "daemon-reqs.jsonl",
            &format!(
                "{explains}{}\n{}\n",
                "{\"id\": 90, \"op\": \"stats\"}", "{\"id\": 91, \"op\": \"shutdown\"}"
            ),
        );
        let batch_reqs = request_file("batch-reqs.jsonl", explains);

        let daemon_resp = tmpdir().join("daemon-resp.jsonl");
        let metrics = tmpdir().join("daemon-stats.json");
        let text = serve_file(
            &data,
            &daemon_reqs,
            &daemon_resp,
            &["--workers", "2", "--metrics-out", metrics.to_str().unwrap()],
        );
        assert!(text.contains("daemon drained (shutdown op)"), "{text}");
        assert!(text.contains("served 3, rejected 0, shed 0"), "{text}");
        assert!(text.contains("probe violations: 0"), "{text}");
        // Control acks surface in the human summary, never the stream.
        assert!(text.contains("\"op\":\"stats\""), "{text}");
        assert!(text.contains("\"queue_depth\":"), "{text}");

        // The durable stream is byte-identical to a run over the same
        // explains without the control lines: same responses, sorted by id.
        let batch_resp = tmpdir().join("batch-resp.jsonl");
        serve_file(&data, &batch_reqs, &batch_resp, &["--workers", "1"]);
        assert_eq!(
            std::fs::read(&daemon_resp).unwrap(),
            std::fs::read(&batch_resp).unwrap(),
            "control lines changed the durable stream"
        );
        let body = std::fs::read_to_string(&daemon_resp).unwrap();
        assert!(
            !body.contains("\"op\":"),
            "control lines leaked onto the durable stream:\n{body}"
        );

        // --metrics-out got the final deterministic snapshot at drain.
        let stats = std::fs::read_to_string(&metrics).unwrap();
        for key in [
            "\"served\":3",
            "\"queue_depth\":",
            "\"latency_ms\":",
            "\"rejects\":",
        ] {
            assert!(stats.contains(key), "stats file misses {key}: {stats}");
        }

        // A removed Stage-2 selector is one typed bad_line reject echoing
        // its id.
        let removed = request_file(
            "removed-kernel.jsonl",
            "{\"id\": 4, \"stage2_kernel\": \"counter-par/3\"}\n",
        );
        let out = tmpdir().join("removed-kernel-resp.jsonl");
        serve_file(&data, &removed, &out, &[]);
        let stream = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = stream.lines().collect();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].starts_with("{\"id\":4,\"ok\":false"),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"reason\":\"bad_line\""), "{}", lines[0]);
        assert!(lines[0].contains("seq|counter"), "{}", lines[0]);
    }

    #[test]
    fn serve_daemon_validates_its_transport_and_queue_flags() {
        let m = usage_error(&["serve-daemon", "--queue-capacity", "0"]);
        assert!(m.contains("--queue-capacity"), "{m}");
        let m = usage_error(&[
            "serve-daemon",
            "--requests",
            "a.jsonl",
            "--socket",
            "b.sock",
        ]);
        assert!(m.contains("mutually exclusive"), "{m}");
        let m = usage_error(&["serve-daemon", "--resume", "--ledger-dir", "x"]);
        assert!(m.contains("--resume requires --requests"), "{m}");
    }

    #[test]
    fn batch_budget_cap_limits_accepted_requests() {
        let data = generated("diabetes", "capped", "400");
        let reqs = request_file(
            "capped-reqs.jsonl",
            "{\"id\": 1}\n{\"id\": 2}\n{\"id\": 3}\n{\"id\": 4}\n",
        );
        let resp = tmpdir().join("capped-resp.jsonl");
        // Each default request costs ε = 0.3; a 0.65 cap admits exactly 2.
        let text = serve_file(&data, &reqs, &resp, &["--workers", "1", "--budget", "0.65"]);
        assert!(text.contains("served 2, rejected 2, shed 0"), "{text}");
        assert!(
            text.contains("dataset default: spent 0.600000, remaining 0.050000"),
            "{text}"
        );
        let body = std::fs::read_to_string(&resp).unwrap();
        assert_eq!(
            body.matches("\"reason\":\"budget_exceeded\"").count(),
            2,
            "rejections surface in responses:\n{body}"
        );
    }

    #[test]
    fn batch_answers_duplicate_id_and_invalid_epsilon_lines() {
        let data = generated("diabetes", "hostile", "400");
        // id 1 is claimed, replayed (must reject, original still served),
        // and id 9 asks for a negative ε (must reject at the wire).
        let reqs = request_file(
            "hostile-reqs.jsonl",
            concat!(
                "{\"id\": 1, \"seed\": 3}\n",
                "{\"id\": 2}\n",
                "{\"id\": 1, \"seed\": 99}\n",
                "{\"id\": 9, \"eps_cand\": -0.5}\n",
            ),
        );
        let resp = tmpdir().join("hostile-resp.jsonl");
        let mut outputs = Vec::new();
        for workers in ["1", "3"] {
            let text = serve_file(
                &data,
                &reqs,
                &resp,
                &["--workers", workers, "--budget", "2.0"],
            );
            assert!(text.contains("served 2, rejected 2, shed 0"), "{text}");
            outputs.push(std::fs::read(&resp).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "rejects broke worker determinism");
        let body = String::from_utf8(outputs[0].clone()).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4, "one answer per request line:\n{body}");
        // id 1: the original execution first, then the replay's reject —
        // echoing the id and the typed reason. Wire and duplicate rejects
        // never touch the budget, so they carry no (scheduling-dependent)
        // headroom reading.
        assert!(
            lines[0].starts_with("{\"id\":1,\"ok\":true"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"id\":1,\"ok\":false"),
            "{}",
            lines[1]
        );
        assert!(
            lines[1].contains("\"reason\":\"duplicate_id\""),
            "{}",
            lines[1]
        );
        assert!(!lines[1].contains("\"eps_remaining\":"), "{}", lines[1]);
        assert!(
            lines[1].contains("duplicate request id 1 (already admitted)"),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].starts_with("{\"id\":2,\"ok\":true"),
            "{}",
            lines[2]
        );
        assert!(
            lines[3].starts_with("{\"id\":9,\"ok\":false"),
            "{}",
            lines[3]
        );
        assert!(
            lines[3].contains("\"reason\":\"invalid_epsilon\""),
            "{}",
            lines[3]
        );
        assert!(!lines[3].contains("\"eps_remaining\":"), "{}", lines[3]);
    }

    #[test]
    fn batch_appends_grow_the_dataset_and_always_rerun_on_resume() {
        let data = generated("diabetes", "grown", "400");
        let row = row_of(&data.0, "0");
        let reqs = request_file(
            "grown-reqs.jsonl",
            &format!(
                "{{\"id\": 1, \"n_clusters\": 3}}\n\
                 {{\"id\": 2, \"op\": \"append\", \"rows\": [{row}, {row}]}}\n\
                 {{\"id\": 3, \"n_clusters\": 3, \"seed\": 9}}\n"
            ),
        );
        // Byte-identical across worker counts, with the append as a barrier.
        let mut outputs = Vec::new();
        for workers in ["1", "3"] {
            let resp = tmpdir().join(format!("grown-resp-{workers}.jsonl"));
            let text = serve_file(&data, &reqs, &resp, &["--workers", workers]);
            assert!(text.contains("served 3, rejected 0, shed 0"), "{text}");
            outputs.push(std::fs::read(&resp).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "workers 1 vs 3 diverged");
        let body = String::from_utf8(outputs[0].clone()).unwrap();
        let append_line = body.lines().find(|l| l.contains("\"id\":2")).unwrap();
        assert!(append_line.contains("\"op\":\"append\""), "{append_line}");
        assert!(append_line.contains("\"appended\":2"), "{append_line}");
        assert!(append_line.contains("\"total_rows\":402"), "{append_line}");

        // A resumed run keeps the explain lines but always re-executes the
        // append (the grown dataset lives in memory only), converging on the
        // same output without re-spending the kept explains' ε.
        let ledger = tmpdir().join("grown-ledger");
        let resp = tmpdir().join("grown-resp-durable.jsonl");
        let flags = ["--workers", "2", "--ledger-dir", ledger.to_str().unwrap()];
        serve_file(&data, &reqs, &resp, &flags);
        let first = std::fs::read(&resp).unwrap();
        let text = serve_file(
            &data,
            &reqs,
            &resp,
            &[&flags[..], &["--resume"][..]].concat(),
        );
        assert!(
            text.contains("resumed: kept 2 previously served responses, re-ran 1"),
            "{text}"
        );
        assert!(text.contains("served 1, rejected 0, shed 0"), "{text}");
        assert_eq!(
            std::fs::read(&resp).unwrap(),
            first,
            "resume converged on the uninterrupted output"
        );
    }

    #[test]
    fn batch_ledger_recovers_and_resume_completes_a_torn_run() {
        let data = generated("diabetes", "durable", "400");
        let reqs = request_file(
            "durable-reqs.jsonl",
            "{\"id\": 1}\n{\"id\": 2}\n{\"id\": 3}\n{\"id\": 4}\n",
        );
        let resp = tmpdir().join("durable-resp.jsonl");
        let ledger_dir = tmpdir().join("durable-ledger");
        let flags = [
            "--workers",
            "2",
            "--budget",
            "10",
            "--ledger-dir",
            ledger_dir.to_str().unwrap(),
            "--checkpoint-every",
            "3",
        ];

        let text = serve_file(&data, &reqs, &resp, &flags);
        assert!(text.contains("served 4, rejected 0, shed 0"), "{text}");
        assert!(
            text.contains("dataset default: spent 1.200000, remaining 8.800000"),
            "{text}"
        );
        // The summary reports per-shard ledger stats. A fresh run replays
        // nothing; --checkpoint-every 3 lands one checkpoint after the third
        // grant, and the clean drain writes the second.
        assert!(
            text.contains("ledger 'default': replayed 0 records (full history)"),
            "{text}"
        );
        assert!(text.contains("2 checkpoints written (0 failed)"), "{text}");
        assert!(
            ledger_dir.join("default.wal").is_file(),
            "per-dataset WAL lives under the ledger dir"
        );
        let reference = std::fs::read_to_string(&resp).unwrap();

        // Simulate a crash: keep two complete response lines plus a torn
        // third. The ledger still holds all four fsynced grants, so the
        // resumed run must reproduce the rest without any new spending.
        let mut torn: String = reference
            .lines()
            .take(2)
            .map(|l| format!("{l}\n"))
            .collect();
        torn.push_str("{\"id\":9"); // mid-write fragment, no newline
        std::fs::write(&resp, &torn).unwrap();

        let text = serve_file(
            &data,
            &reqs,
            &resp,
            &[&flags[..], &["--resume"][..]].concat(),
        );
        assert!(
            text.contains("resumed: kept 2 previously served responses, re-ran 2"),
            "{text}"
        );
        assert!(text.contains("served 2, rejected 0, shed 0"), "{text}");
        // Replayed grants, no double-charging: spend is still 4 × 0.3.
        assert!(
            text.contains("dataset default: spent 1.200000, remaining 8.800000"),
            "{text}"
        );
        // Resume output carries the ledger stats too: recovery started from
        // the checkpoint the clean drain wrote, with no tail to replay.
        assert!(
            text.contains(
                "ledger 'default': replayed 1 records (from checkpoint (+0 tail records))"
            ),
            "{text}"
        );
        assert_eq!(
            std::fs::read_to_string(&resp).unwrap(),
            reference,
            "resume converged on the uninterrupted output"
        );
    }

    #[test]
    fn batch_resume_requires_a_ledger() {
        let m = usage_error(&["serve-daemon", "--requests", "r.jsonl", "--resume"]);
        assert!(m.contains("--resume requires --ledger-dir"), "{m}");
    }

    #[test]
    fn batch_rejects_the_removed_single_file_ledger_flag() {
        let m = usage_error(&["serve-daemon", "--requests", "r.jsonl", "--ledger", "x.wal"]);
        assert!(m.contains("serve-daemon: unknown flag --ledger"), "{m}");
    }

    #[test]
    fn batch_checkpoint_every_requires_a_ledger_dir() {
        let m = usage_error(&[
            "serve-daemon",
            "--requests",
            "r.jsonl",
            "--checkpoint-every",
            "4",
        ]);
        assert!(m.contains("requires --ledger-dir"), "{m}");
    }

    #[test]
    fn batch_group_committed_ledger_preserves_output() {
        let data = generated("diabetes", "grouped", "400");
        let lines: String = (1..=6).map(|id| format!("{{\"id\": {id}}}\n")).collect();
        let reqs = request_file("grouped-reqs.jsonl", &lines);
        // In-memory reference vs group-committed durable run: the response
        // stream must be byte-identical (batching changes fsync scheduling,
        // never results).
        let base_resp = tmpdir().join("grouped-base.jsonl");
        let grouped_resp = tmpdir().join("grouped-batched.jsonl");
        let text = serve_file(&data, &reqs, &base_resp, &["--workers", "4"]);
        assert!(text.contains("served 6, rejected 0, shed 0"), "{text}");
        let ledger = tmpdir().join("grouped-ledger-gc");
        let text = serve_file(
            &data,
            &reqs,
            &grouped_resp,
            &["--workers", "4", "--ledger-dir", ledger.to_str().unwrap()],
        );
        assert!(text.contains("served 6, rejected 0, shed 0"), "{text}");
        assert!(text.contains("grants/fsync"), "{text}");
        assert!(text.contains("single-flight waits"), "{text}");
        assert_eq!(
            std::fs::read(&base_resp).unwrap(),
            std::fs::read(&grouped_resp).unwrap(),
            "group commit must not change served bytes"
        );
    }

    #[test]
    fn batch_deadline_times_out_requests_without_spending() {
        let data = generated("diabetes", "deadline", "400");
        let reqs = request_file("deadline-reqs.jsonl", "{\"id\": 1}\n{\"id\": 2}\n");
        let resp = tmpdir().join("deadline-resp.jsonl");
        let text = serve_file(
            &data,
            &reqs,
            &resp,
            &["--workers", "1", "--budget", "1.0", "--deadline-ms", "0"],
        );
        assert!(text.contains("served 0, rejected 2, shed 0"), "{text}");
        // An already-expired deadline is caught before the grant commits:
        // the requests are turned away with the cap's full headroom intact.
        assert!(
            text.contains("dataset default: spent 0.000000, remaining 1.000000"),
            "{text}"
        );
        let body = std::fs::read_to_string(&resp).unwrap();
        assert_eq!(body.matches("\"reason\":\"deadline_exceeded\"").count(), 2);
        assert!(body.contains("\"eps_remaining\":"), "{body}");
    }

    #[test]
    fn batch_answers_an_id_less_line_with_a_control_reply() {
        let data = generated("so", "badreq", "200");
        let reqs = request_file("badreq.jsonl", "{\"id\": 1}\nnot json at all\n");
        let resp = tmpdir().join("badreq-out.jsonl");
        // A line with no parseable id cannot be keyed on the response
        // stream: it gets the daemon's control answer in the summary, and
        // the rest of the file is still served.
        let text = serve_file(&data, &reqs, &resp, &[]);
        assert!(text.contains("served 1, rejected 1, shed 0"), "{text}");
        let control = text
            .lines()
            .find(|l| l.starts_with("control: "))
            .unwrap_or_else(|| panic!("no control answer in:\n{text}"));
        assert!(control.contains("\"reason\":\"bad_line\""), "{control}");
        let body = std::fs::read_to_string(&resp).unwrap();
        assert_eq!(body.lines().count(), 1, "{body}");
        assert!(body.starts_with("{\"id\":1,\"ok\":true"), "{body}");
    }

    #[test]
    fn batch_answers_a_long_file_at_the_default_queue_capacity() {
        let data = generated("diabetes", "long", "300");
        let lines: String = (1..=200)
            .map(|id| format!("{{\"id\": {id}, \"seed\": {id}}}\n"))
            .collect();
        let reqs = request_file("long-reqs.jsonl", &lines);
        let resp = tmpdir().join("long-resp.jsonl");
        // Default workers (2) and queue capacity (32): the file transport
        // never has more than 32 requests unanswered, so none is shed.
        let text = serve_file(&data, &reqs, &resp, &[]);
        assert!(text.contains("served 200, rejected 0, shed 0"), "{text}");
        let body = std::fs::read_to_string(&resp).unwrap();
        assert_eq!(body.lines().count(), 200);
        assert_eq!(body.matches("\"ok\":true").count(), 200);
        assert!(!body.contains("overloaded"), "{body}");
    }

    #[test]
    fn batch_appends_are_barriers_at_any_worker_count() {
        let data = generated("diabetes", "barrier", "500");
        let rows = vec![row_of(&data.0, "1"); 25].join(",");
        let mut lines = String::new();
        let mut id = 0u64;
        for _ in 0..4 {
            for _ in 0..6 {
                id += 1;
                lines.push_str(&format!(
                    "{{\"id\": {id}, \"seed\": {id}, \"n_clusters\": {}}}\n",
                    2 + id % 2
                ));
            }
            id += 1;
            lines.push_str(&format!(
                "{{\"id\": {id}, \"op\": \"append\", \"rows\": [{rows}]}}\n"
            ));
        }
        let reqs = request_file("barrier-reqs.jsonl", &lines);
        let mut outputs = Vec::new();
        for workers in ["1", "2", "7"] {
            let resp = tmpdir().join(format!("barrier-resp-{workers}.jsonl"));
            let text = serve_file(&data, &reqs, &resp, &["--workers", workers]);
            assert!(text.contains("served 28, rejected 0, shed 0"), "{text}");
            outputs.push(std::fs::read_to_string(&resp).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "workers 1 vs 2 diverged");
        assert_eq!(outputs[0], outputs[2], "workers 1 vs 7 diverged");
        // Every append saw every earlier append: the totals climb by 25.
        let totals: Vec<&str> = outputs[0]
            .lines()
            .filter(|l| l.contains("\"op\":\"append\""))
            .map(|l| l.split("\"total_rows\":").nth(1).unwrap())
            .map(|rest| rest.split(|c: char| !c.is_ascii_digit()).next().unwrap())
            .collect();
        assert_eq!(totals, vec!["525", "550", "575", "600"]);
    }

    #[test]
    fn batch_resume_over_a_finished_run_keeps_the_replay_answer() {
        let data = generated("diabetes", "replayed", "300");
        // id 1 is served, then replayed: the replay's reject sorts after
        // the served line of the same id.
        let reqs = request_file(
            "replayed-reqs.jsonl",
            "{\"id\": 1, \"seed\": 3}\n{\"id\": 2}\n{\"id\": 1, \"seed\": 99}\n{\"id\": 0}\n",
        );
        let resp = tmpdir().join("replayed-resp.jsonl");
        let ledger = tmpdir().join("replayed-ledger");
        let _ = std::fs::remove_dir_all(&ledger);
        let flags = ["--workers", "2", "--ledger-dir", ledger.to_str().unwrap()];
        serve_file(&data, &reqs, &resp, &flags);
        let first = std::fs::read_to_string(&resp).unwrap();
        let ids: Vec<(&str, bool)> = first
            .lines()
            .map(|l| (l.split(',').next().unwrap(), l.contains("\"ok\":true")))
            .collect();
        assert_eq!(
            ids,
            vec![
                ("{\"id\":0", true),
                ("{\"id\":1", true),
                ("{\"id\":1", false),
                ("{\"id\":2", true)
            ],
            "{first}"
        );
        assert!(first.contains("\"reason\":\"duplicate_id\""), "{first}");
        let text = serve_file(
            &data,
            &reqs,
            &resp,
            &[&flags[..], &["--resume"][..]].concat(),
        );
        assert!(
            text.contains("resumed: kept 3 previously served responses, re-ran 1"),
            "{text}"
        );
        assert_eq!(std::fs::read_to_string(&resp).unwrap(), first);
    }
}
