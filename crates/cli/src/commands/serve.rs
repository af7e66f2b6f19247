//! `serve-daemon` and `serve-batch`: the resident explanation daemon over
//! one registered dataset (`serve-batch` is the same command with a request
//! file required).

use super::load;
use crate::args::Cli;
use crate::CliError;
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// The serving command's durable state: ledger/durability flag validation,
/// the loaded dataset, and the (possibly durable) registry with its
/// recovered grant set.
struct ServingSetup {
    registry: std::sync::Arc<dpx_serve::DatasetRegistry>,
    entry: std::sync::Arc<dpx_serve::DatasetEntry>,
    granted: std::collections::HashSet<u64>,
    ledger_dir: Option<String>,
    resume: bool,
    deadline_ms: Option<u64>,
    checkpoint_every: Option<u64>,
}

/// Validates the shared durability flags, loads the dataset, and opens the
/// registry — recovering each shard's write-ahead ledger when --ledger-dir
/// is given.
fn open_serving_setup(cli: &Cli) -> Result<ServingSetup, CliError> {
    use dpx_serve::{AccountantShards, DatasetRegistry, ShardConfig};
    use std::sync::Arc;

    if cli.opt_string("ledger").is_some() {
        return Err(CliError::Usage(
            "--ledger <file> was replaced by --ledger-dir <dir> \
             (one write-ahead ledger per dataset: <dir>/<dataset>.wal)"
                .into(),
        ));
    }
    let ledger_dir = cli.opt_string("ledger-dir");
    let resume = cli.bool("resume");
    let deadline_ms = cli.opt_u64("deadline-ms")?;
    let checkpoint_every = cli.opt_u64("checkpoint-every")?;
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
    let data = load(cli)?;
    let cap = match cli.f64("budget", f64::INFINITY)? {
        b if b.is_infinite() => None,
        b => Some(dpx_dp::budget::Epsilon::new(b)?),
    };

    let registry = match &ledger_dir {
        Some(dir) => Arc::new(DatasetRegistry::with_shards(Arc::new(
            AccountantShards::in_dir(std::path::Path::new(dir))?,
        ))),
        None => Arc::new(DatasetRegistry::new()),
    };
    let name = cli.string("name", "default");
    let entry = match &ledger_dir {
        Some(_) => {
            let config = ShardConfig {
                cap,
                checkpoint_every,
            };
            registry.register_sharded(name, Arc::new(data), config)?
        }
        None => registry.register(name, Arc::new(data), cap),
    };
    let granted = entry.accountant().granted_ids().into_iter().collect();
    Ok(ServingSetup {
        registry,
        entry,
        granted,
        ledger_dir,
        resume,
        deadline_ms,
        checkpoint_every,
    })
}

/// Prints each durable shard's recovery, checkpoint and group-commit statistics
/// for the serving command's human summary.
fn print_ledger_stats<W: std::io::Write>(
    out: &mut W,
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
/// `--socket`. `serve-batch` is this command with `--requests` required.
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
pub(super) fn serve_daemon<W: std::io::Write>(
    cli: &Cli,
    out: &mut W,
    requests_required: bool,
) -> Result<(), CliError> {
    use dpx_runtime::faultpoint::{self, SERVICE_POST_RESPOND};
    use dpx_serve::daemon::{serve_lines, serve_socket, Daemon, DaemonConfig, DaemonReply};
    use dpx_serve::parse_requests_lenient;
    use std::collections::HashSet;
    use std::io::Write as _;
    use std::sync::{Arc, Mutex, PoisonError};

    // Daemon-specific flag validation comes before the (expensive) dataset
    // load so a bad invocation fails fast.
    let requests_path = cli.opt_string("requests");
    let socket_path = cli.opt_string("socket");
    if requests_required && requests_path.is_none() {
        return Err(CliError::Usage(
            "serve-batch requires --requests <file.jsonl> (serve-daemon also reads stdin or \
             a --socket)"
                .into(),
        ));
    }
    let workers = cli.usize("workers", 2)?.max(1);
    let queue_capacity = cli.usize("queue-capacity", 32)?;
    let drain_deadline_ms = cli.u64("drain-deadline-ms", 10_000)?;
    let metrics_out = cli.opt_string("metrics-out");
    let metrics_every = cli.u64("metrics-every", 64)?;
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
    if cli.bool("resume") && requests_path.is_none() {
        return Err(CliError::Usage(
            "--resume requires --requests (the request file is replayed with already-served \
             ids skipped; a socket or stdin stream cannot be replayed)"
                .into(),
        ));
    }
    let setup = open_serving_setup(cli)?;
    let out_path = cli.required("out")?.to_string();

    // --resume keeps served (ok) response lines and skips their ids on the
    // replayed request stream. Error lines are never kept: re-answering a
    // reject or a failed request is deterministic and charges nothing a
    // recovered grant does not already cover. Appends always re-execute —
    // their effect is in-memory dataset state.
    let append_ids: HashSet<u64> = match (&requests_path, setup.resume) {
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
    let kept: Vec<(u64, String)> = if setup.resume {
        read_kept_responses(&out_path)?
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
        deadline_ms: setup.deadline_ms,
        granted: setup.granted.clone(),
        checkpoint_every: setup.checkpoint_every,
        metrics_out: metrics_out.as_ref().map(std::path::PathBuf::from),
        metrics_every,
        ..Default::default()
    };
    let daemon = Daemon::new(Arc::clone(&setup.registry), config);
    let handles = daemon.start();

    // The durable response stream: kept lines are re-written first, then
    // every response-class reply is appended and flushed as it lands — a
    // crash loses at most the in-flight lines. Control replies (stats and
    // shutdown acks) are buffered for the human summary instead; they are
    // scheduling-dependent snapshots and must never touch this stream.
    let mut stream = BufWriter::new(File::create(&out_path)?);
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

    match (&requests_path, &socket_path) {
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
    let mut writer = BufWriter::new(File::create(&out_path)?);
    for (_, _, line) in &lines {
        writeln!(writer, "{line}")?;
    }
    writer.flush()?;

    if setup.resume {
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
        setup.entry.cache().singleflight_hits()
    )?;
    if setup.ledger_dir.is_some() {
        print_ledger_stats(out, &setup.registry)?;
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
    use crate::commands::tests::{run_cli, tmpdir};

    #[test]
    fn batch_is_byte_identical_across_worker_counts() {
        let dir = tmpdir();
        let prefix = dir.join("served");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "900",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        let reqs = dir.join("served-reqs.jsonl");
        // Unsorted ids, a shared clustering (cache reuse), a per-request
        // kernel override, and one bad request that must fail alone.
        std::fs::write(
            &reqs,
            concat!(
                "{\"id\": 7, \"seed\": 1, \"n_clusters\": 3}\n",
                "# comment line\n",
                "{\"id\": 2, \"seed\": 2, \"n_clusters\": 3}\n",
                "{\"id\": 5, \"seed\": 3, \"n_clusters\": 2, \"stage2_kernel\": \"counter\"}\n",
                "{\"id\": 1, \"seed\": 4, \"cluster_by\": 9999}\n",
            ),
        )
        .unwrap();
        let mut outputs = Vec::new();
        for workers in ["1", "2", "7"] {
            let resp = dir.join(format!("served-resp-{workers}.jsonl"));
            let resp_s = resp.to_str().unwrap();
            let text = run_cli(&[
                "serve-batch",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp_s,
                "--workers",
                workers,
            ])
            .unwrap();
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
    fn serve_daemon_drains_cleanly_and_matches_serve_batch_bytes() {
        let dir = tmpdir();
        let prefix = dir.join("daemon");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "700",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        let explains = concat!(
            "{\"id\": 7, \"seed\": 1, \"n_clusters\": 3}\n",
            "# comment lines are skipped by both front ends\n",
            "{\"id\": 2, \"seed\": 2, \"n_clusters\": 3}\n",
            "{\"id\": 5, \"seed\": 3, \"n_clusters\": 2}\n",
        );
        let daemon_reqs = dir.join("daemon-reqs.jsonl");
        std::fs::write(
            &daemon_reqs,
            format!(
                "{explains}{}\n{}\n",
                "{\"id\": 90, \"op\": \"stats\"}", "{\"id\": 91, \"op\": \"shutdown\"}"
            ),
        )
        .unwrap();
        let batch_reqs = dir.join("batch-reqs.jsonl");
        std::fs::write(&batch_reqs, explains).unwrap();

        let daemon_resp = dir.join("daemon-resp.jsonl");
        let metrics = dir.join("daemon-stats.json");
        let text = run_cli(&[
            "serve-daemon",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--requests",
            daemon_reqs.to_str().unwrap(),
            "--out",
            daemon_resp.to_str().unwrap(),
            "--workers",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("daemon drained (shutdown op)"), "{text}");
        assert!(text.contains("served 3, rejected 0, shed 0"), "{text}");
        assert!(text.contains("probe violations: 0"), "{text}");
        // Control acks surface in the human summary, never the stream.
        assert!(text.contains("\"op\":\"stats\""), "{text}");
        assert!(text.contains("\"queue_depth\":"), "{text}");

        // The daemon's durable stream is byte-identical to a serve-batch
        // run over the same explains without the control lines: same
        // responses, sorted by id.
        let batch_resp = dir.join("batch-resp.jsonl");
        run_cli(&[
            "serve-batch",
            "--data",
            &csv,
            "--schema",
            &schema,
            "--requests",
            batch_reqs.to_str().unwrap(),
            "--out",
            batch_resp.to_str().unwrap(),
            "--workers",
            "1",
        ])
        .unwrap();
        assert_eq!(
            std::fs::read(&daemon_resp).unwrap(),
            std::fs::read(&batch_resp).unwrap(),
            "daemon and batch streams diverged"
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
        // its id, identically from both front ends.
        let removed = dir.join("removed-kernel.jsonl");
        std::fs::write(
            &removed,
            "{\"id\": 4, \"stage2_kernel\": \"counter-par/3\"}\n",
        )
        .unwrap();
        let mut streams = Vec::new();
        for command in ["serve-daemon", "serve-batch"] {
            let out = dir.join(format!("removed-{command}.jsonl"));
            run_cli(&[
                command,
                "--data",
                &csv,
                "--schema",
                &schema,
                "--requests",
                removed.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap();
            streams.push(std::fs::read_to_string(&out).unwrap());
        }
        assert_eq!(streams[0], streams[1], "daemon and batch rejects diverged");
        let lines: Vec<&str> = streams[0].lines().collect();
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
        let err = run_cli(&["serve-daemon", "--queue-capacity", "0"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--queue-capacity"), "{m}"),
            other => panic!("want usage error, got {other:?}"),
        }
        let err = run_cli(&[
            "serve-daemon",
            "--requests",
            "a.jsonl",
            "--socket",
            "b.sock",
        ])
        .unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("mutually exclusive"), "{m}"),
            other => panic!("want usage error, got {other:?}"),
        }
        let err = run_cli(&["serve-daemon", "--resume", "--ledger-dir", "x"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--resume requires --requests"), "{m}"),
            other => panic!("want usage error, got {other:?}"),
        }
        // serve-batch is the daemon on a request file: the file is required.
        let err = run_cli(&["serve-batch", "--workers", "2"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("requires --requests"), "{m}"),
            other => panic!("want usage error, got {other:?}"),
        }
    }

    #[test]
    fn batch_budget_cap_limits_accepted_requests() {
        let dir = tmpdir();
        let prefix = dir.join("capped");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("capped-reqs.jsonl");
        std::fs::write(
            &reqs,
            "{\"id\": 1}\n{\"id\": 2}\n{\"id\": 3}\n{\"id\": 4}\n",
        )
        .unwrap();
        let resp = dir.join("capped-resp.jsonl");
        // Each default request costs ε = 0.3; a 0.65 cap admits exactly 2.
        let text = run_cli(&[
            "serve-batch",
            "--data",
            &format!("{prefix_s}.csv"),
            "--schema",
            &format!("{prefix_s}.schema"),
            "--requests",
            reqs.to_str().unwrap(),
            "--out",
            resp.to_str().unwrap(),
            "--workers",
            "1",
            "--budget",
            "0.65",
        ])
        .unwrap();
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
        let dir = tmpdir();
        let prefix = dir.join("hostile");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("hostile-reqs.jsonl");
        // id 1 is claimed, replayed (must reject, original still served),
        // and id 9 asks for a negative ε (must reject at the wire).
        std::fs::write(
            &reqs,
            concat!(
                "{\"id\": 1, \"seed\": 3}\n",
                "{\"id\": 2}\n",
                "{\"id\": 1, \"seed\": 99}\n",
                "{\"id\": 9, \"eps_cand\": -0.5}\n",
            ),
        )
        .unwrap();
        let resp = dir.join("hostile-resp.jsonl");
        let mut outputs = Vec::new();
        for workers in ["1", "3"] {
            let text = run_cli(&[
                "serve-batch",
                "--data",
                &format!("{prefix_s}.csv"),
                "--schema",
                &format!("{prefix_s}.schema"),
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp.to_str().unwrap(),
                "--workers",
                workers,
                "--budget",
                "2.0",
            ])
            .unwrap();
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
        let dir = tmpdir();
        let prefix = dir.join("grown");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        // A row of zeros is valid for every attribute (codes start at 0);
        // the CSV header tells us the arity.
        let header = std::fs::read_to_string(&csv)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_string();
        let arity = header.split(',').count();
        let row = format!("[{}]", vec!["0"; arity].join(","));
        let reqs = dir.join("grown-reqs.jsonl");
        std::fs::write(
            &reqs,
            format!(
                "{{\"id\": 1, \"n_clusters\": 3}}\n\
                 {{\"id\": 2, \"op\": \"append\", \"rows\": [{row}, {row}]}}\n\
                 {{\"id\": 3, \"n_clusters\": 3, \"seed\": 9}}\n"
            ),
        )
        .unwrap();
        // Byte-identical across worker counts, with the append as a barrier.
        let mut outputs = Vec::new();
        for workers in ["1", "3"] {
            let resp = dir.join(format!("grown-resp-{workers}.jsonl"));
            let text = run_cli(&[
                "serve-batch",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp.to_str().unwrap(),
                "--workers",
                workers,
            ])
            .unwrap();
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
        let ledger = dir.join("grown-ledger");
        let resp = dir.join("grown-resp-durable.jsonl");
        let durable = |resume: bool| {
            let mut args = vec![
                "serve-batch",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp.to_str().unwrap(),
                "--workers",
                "2",
                "--ledger-dir",
                ledger.to_str().unwrap(),
            ];
            if resume {
                args.push("--resume");
            }
            run_cli(&args).unwrap()
        };
        durable(false);
        let first = std::fs::read(&resp).unwrap();
        let text = durable(true);
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
        let dir = tmpdir();
        let prefix = dir.join("durable");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("durable-reqs.jsonl");
        std::fs::write(
            &reqs,
            "{\"id\": 1}\n{\"id\": 2}\n{\"id\": 3}\n{\"id\": 4}\n",
        )
        .unwrap();
        let resp = dir.join("durable-resp.jsonl");
        let ledger_dir = dir.join("durable-ledger");
        let args = |extra: &[&str]| -> Vec<String> {
            let mut v: Vec<String> = [
                "serve-batch",
                "--data",
                &format!("{prefix_s}.csv"),
                "--schema",
                &format!("{prefix_s}.schema"),
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp.to_str().unwrap(),
                "--workers",
                "2",
                "--budget",
                "10",
                "--ledger-dir",
                ledger_dir.to_str().unwrap(),
                "--checkpoint-every",
                "3",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        let run = |extra: &[&str]| {
            let argv = args(extra);
            run_cli(&argv.iter().map(String::as_str).collect::<Vec<_>>())
        };

        let text = run(&[]).unwrap();
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

        let text = run(&["--resume"]).unwrap();
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
        let err = run_cli(&["serve-batch", "--requests", "r.jsonl", "--resume"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--resume requires --ledger-dir"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn batch_rejects_the_removed_single_file_ledger_flag() {
        let err =
            run_cli(&["serve-batch", "--requests", "r.jsonl", "--ledger", "x.wal"]).unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--ledger-dir"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn batch_checkpoint_every_requires_a_ledger_dir() {
        let err = run_cli(&[
            "serve-batch",
            "--requests",
            "r.jsonl",
            "--checkpoint-every",
            "4",
        ])
        .unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("requires --ledger-dir"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn batch_group_committed_ledger_preserves_output() {
        let dir = tmpdir();
        let prefix = dir.join("grouped");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("grouped-reqs.jsonl");
        let lines: String = (1..=6).map(|id| format!("{{\"id\": {id}}}\n")).collect();
        std::fs::write(&reqs, lines).unwrap();
        let csv = format!("{prefix_s}.csv");
        let schema = format!("{prefix_s}.schema");
        let serve = |resp: &str, extra: &[&str]| {
            let mut args = vec![
                "serve-batch",
                "--data",
                &csv,
                "--schema",
                &schema,
                "--requests",
                reqs.to_str().unwrap(),
                "--out",
                resp,
                "--workers",
                "4",
            ];
            args.extend_from_slice(extra);
            run_cli(&args).unwrap()
        };
        // In-memory reference vs group-committed durable run: the response
        // stream must be byte-identical (batching changes fsync scheduling,
        // never results).
        let base_resp = dir.join("grouped-base.jsonl");
        let grouped_resp = dir.join("grouped-batched.jsonl");
        let text = serve(base_resp.to_str().unwrap(), &[]);
        assert!(text.contains("served 6, rejected 0, shed 0"), "{text}");
        let ledger = dir.join("grouped-ledger-gc");
        let text = serve(
            grouped_resp.to_str().unwrap(),
            &["--ledger-dir", ledger.to_str().unwrap()],
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
        let dir = tmpdir();
        let prefix = dir.join("deadline");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            "400",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("deadline-reqs.jsonl");
        std::fs::write(&reqs, "{\"id\": 1}\n{\"id\": 2}\n").unwrap();
        let resp = dir.join("deadline-resp.jsonl");
        let text = run_cli(&[
            "serve-batch",
            "--data",
            &format!("{prefix_s}.csv"),
            "--schema",
            &format!("{prefix_s}.schema"),
            "--requests",
            reqs.to_str().unwrap(),
            "--out",
            resp.to_str().unwrap(),
            "--workers",
            "1",
            "--budget",
            "1.0",
            "--deadline-ms",
            "0",
        ])
        .unwrap();
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
        let dir = tmpdir();
        let prefix = dir.join("badreq");
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "so",
            "--rows",
            "200",
            "--out",
            prefix_s,
        ])
        .unwrap();
        let reqs = dir.join("badreq.jsonl");
        std::fs::write(&reqs, "{\"id\": 1}\nnot json at all\n").unwrap();
        let resp = dir.join("badreq-out.jsonl");
        // A line with no parseable id cannot be keyed on the response
        // stream: it gets the daemon's control answer in the summary, and
        // the rest of the file is still served.
        let text = run_cli(&[
            "serve-batch",
            "--data",
            &format!("{prefix_s}.csv"),
            "--schema",
            &format!("{prefix_s}.schema"),
            "--requests",
            reqs.to_str().unwrap(),
            "--out",
            resp.to_str().unwrap(),
        ])
        .unwrap();
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

    /// Generates a Diabetes CSV + schema of `rows` rows under `name` and
    /// returns their paths.
    fn generated(name: &str, rows: &str) -> (String, String) {
        let prefix = tmpdir().join(name);
        let prefix_s = prefix.to_str().unwrap();
        run_cli(&[
            "generate",
            "--dataset",
            "diabetes",
            "--rows",
            rows,
            "--out",
            prefix_s,
        ])
        .unwrap();
        (format!("{prefix_s}.csv"), format!("{prefix_s}.schema"))
    }

    /// Runs `serve-batch` over `reqs` into `resp` with `extra` flags.
    fn serve_file(csv: &str, schema: &str, reqs: &str, resp: &str, extra: &[&str]) -> String {
        let mut args = vec![
            "serve-batch",
            "--data",
            csv,
            "--schema",
            schema,
            "--requests",
            reqs,
            "--out",
            resp,
        ];
        args.extend_from_slice(extra);
        run_cli(&args).unwrap()
    }

    #[test]
    fn batch_answers_a_long_file_at_the_default_queue_capacity() {
        let (csv, schema) = generated("long", "300");
        let reqs = tmpdir().join("long-reqs.jsonl");
        let lines: String = (1..=200)
            .map(|id| format!("{{\"id\": {id}, \"seed\": {id}}}\n"))
            .collect();
        std::fs::write(&reqs, lines).unwrap();
        let resp = tmpdir().join("long-resp.jsonl");
        // Default workers (2) and queue capacity (32): the file transport
        // never has more than 32 requests unanswered, so none is shed.
        let text = serve_file(
            &csv,
            &schema,
            reqs.to_str().unwrap(),
            resp.to_str().unwrap(),
            &[],
        );
        assert!(text.contains("served 200, rejected 0, shed 0"), "{text}");
        let body = std::fs::read_to_string(&resp).unwrap();
        assert_eq!(body.lines().count(), 200);
        assert_eq!(body.matches("\"ok\":true").count(), 200);
        assert!(!body.contains("overloaded"), "{body}");
    }

    #[test]
    fn batch_appends_are_barriers_at_any_worker_count() {
        let (csv, schema) = generated("barrier", "500");
        let arity = std::fs::read_to_string(&csv)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .split(',')
            .count();
        let row = format!("[{}]", vec!["1"; arity].join(","));
        let rows = vec![row; 25].join(",");
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
        let reqs = tmpdir().join("barrier-reqs.jsonl");
        std::fs::write(&reqs, lines).unwrap();
        let mut outputs = Vec::new();
        for workers in ["1", "2", "7"] {
            let resp = tmpdir().join(format!("barrier-resp-{workers}.jsonl"));
            let text = serve_file(
                &csv,
                &schema,
                reqs.to_str().unwrap(),
                resp.to_str().unwrap(),
                &["--workers", workers],
            );
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
        let (csv, schema) = generated("replayed", "300");
        let reqs = tmpdir().join("replayed-reqs.jsonl");
        // id 1 is served, then replayed: the replay's reject sorts after
        // the served line of the same id.
        std::fs::write(
            &reqs,
            "{\"id\": 1, \"seed\": 3}\n{\"id\": 2}\n{\"id\": 1, \"seed\": 99}\n{\"id\": 0}\n",
        )
        .unwrap();
        let resp = tmpdir().join("replayed-resp.jsonl");
        let ledger = tmpdir().join("replayed-ledger");
        let _ = std::fs::remove_dir_all(&ledger);
        let flags = ["--workers", "2", "--ledger-dir", ledger.to_str().unwrap()];
        serve_file(
            &csv,
            &schema,
            reqs.to_str().unwrap(),
            resp.to_str().unwrap(),
            &flags,
        );
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
        let mut resumed = flags.to_vec();
        resumed.push("--resume");
        let text = serve_file(
            &csv,
            &schema,
            reqs.to_str().unwrap(),
            resp.to_str().unwrap(),
            &resumed,
        );
        assert!(
            text.contains("resumed: kept 3 previously served responses, re-ran 1"),
            "{text}"
        );
        assert_eq!(std::fs::read_to_string(&resp).unwrap(), first);
    }
}
