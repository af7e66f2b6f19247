//! The crash matrix: `serve-daemon --requests` under every single-point kill.
//!
//! For each named fault point on the serving path, a child `dpclustx-cli`
//! process is armed (via `DPX_CRASH_AT=point:nth`) to abort — no unwinding,
//! no flushes — at a seeded hit count, then restarted with `--resume` against
//! the same sharded ledger directory. Every run checkpoints aggressively
//! (`--checkpoint-every 2`), so the kill schedule also lands *inside* the
//! checkpoint's compact-and-truncate (before and after the atomic rename that
//! replaces the WAL). After every kill the matrix asserts the recovery
//! invariants the design document promises:
//!
//! 1. the recovered spend covers every response the crashed run managed to
//!    flush (no output without a durable grant), never exceeds the cap, and
//!    is a whole number of grants (no torn, half-counted record) — whether
//!    recovery starts from a checkpoint record or full history;
//! 2. the union of pre-crash and post-recovery responses is byte-identical
//!    to an uninterrupted run — at 1 worker and at 4.
//!
//! Every durable grant is group-committed, so at 4 workers the `ledger.*`
//! points land on batches of however many grants queued together, and a
//! kill between a batch's write and its fsync, or between the fsync and the
//! acks, hits a batch none of whose spends has acked.
//!
//! Everything is seeded and nothing asserts wall-clock time. At 1 worker a
//! schedule names one exact program state; at 4, batch boundaries depend on
//! scheduling, so a schedule names one of several states, each of which must
//! recover.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_dpclustx-cli");
const CAP: f64 = 10.0;
/// Default ε split per request: eps_cand + eps_comb + eps_hist = 0.3.
const EPS_PER_REQUEST: f64 = 0.3;
const N_REQUESTS: usize = 5;

const POINTS: [&str; 8] = [
    "ledger.pre_fsync",
    "ledger.post_fsync",
    "ledger.ckpt_pre_rename",
    "ledger.ckpt_post_rename",
    "shard.pre_append",
    "service.pre_spend",
    "service.post_spend",
    "service.post_respond",
];

/// Seeded nth-hit choices (no `rand` in the test: a bare LCG is plenty).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpx-crash-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(args: &[&str]) -> Output {
    let output = Command::new(BIN).args(args).output().expect("spawn cli");
    assert!(
        output.status.success(),
        "{:?} failed:\n{}",
        args,
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn serve_args(
    csv: &str,
    schema: &str,
    reqs: &Path,
    out: &Path,
    workers: usize,
    ledger: Option<&Path>,
    resume: bool,
) -> Vec<String> {
    let mut args = vec![
        "serve-daemon".to_string(),
        "--data".into(),
        csv.to_string(),
        "--schema".into(),
        schema.to_string(),
        "--requests".into(),
        reqs.to_str().unwrap().to_string(),
        "--out".into(),
        out.to_str().unwrap().to_string(),
        "--workers".into(),
        workers.to_string(),
        "--budget".into(),
        CAP.to_string(),
    ];
    if let Some(ledger) = ledger {
        args.push("--ledger-dir".into());
        args.push(ledger.to_str().unwrap().to_string());
        args.push("--checkpoint-every".into());
        args.push("2".into());
    }
    if resume {
        args.push("--resume".into());
    }
    args
}

/// The ids of complete, ok-marked response lines in a possibly-torn file.
fn flushed_ok_ids(out: &Path) -> HashSet<u64> {
    let text = match std::fs::read_to_string(out) {
        Ok(text) => text,
        Err(_) => return HashSet::new(), // crash before the first response
    };
    let mut lines: Vec<&str> = text.lines().collect();
    if !text.ends_with('\n') {
        lines.pop(); // torn final line
    }
    lines
        .iter()
        .filter_map(|line| {
            let json = dpx_serve::Json::parse(line).ok()?;
            if json.get("ok").and_then(dpx_serve::Json::as_bool)? {
                json.get("id").and_then(dpx_serve::Json::as_u64)
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn every_single_point_kill_recovers_to_the_uninterrupted_output() {
    let dir = tmpdir();
    let prefix = dir.join("matrix");
    let prefix_s = prefix.to_str().unwrap().to_string();
    run_ok(&[
        "generate",
        "--dataset",
        "diabetes",
        "--rows",
        "400",
        "--out",
        &prefix_s,
    ]);
    let csv = format!("{prefix_s}.csv");
    let schema = format!("{prefix_s}.schema");
    let reqs = dir.join("matrix-reqs.jsonl");
    std::fs::write(
        &reqs,
        (1..=N_REQUESTS)
            .map(|id| format!("{{\"id\": {id}, \"seed\": {id}}}\n"))
            .collect::<String>(),
    )
    .unwrap();

    // Uninterrupted reference: byte-identical at 1 and 4 workers.
    let reference = {
        let mut outs = Vec::new();
        for workers in [1usize, 4] {
            let out = dir.join(format!("reference-w{workers}.jsonl"));
            let args = serve_args(&csv, &schema, &reqs, &out, workers, None, false);
            let argv: Vec<&str> = args.iter().map(String::as_str).collect();
            run_ok(&argv);
            outs.push(std::fs::read(&out).unwrap());
        }
        assert_eq!(outs[0], outs[1], "reference diverged across worker counts");
        outs.remove(0)
    };

    let mut lcg = Lcg(0x5eed_2026);
    let mut scenarios = 0usize;
    let mut crashed = 0usize;
    for workers in [1usize, 4] {
        for point in POINTS {
            // Two seeded hit counts per point; dedup keeps the run count flat.
            let nths: HashSet<u64> = (0..2).map(|_| 1 + lcg.next() % 4).collect();
            for nth in nths {
                scenarios += 1;
                let tag = format!("w{workers}-{}-{nth}", point.replace('.', "_"));
                let out = dir.join(format!("{tag}.jsonl"));
                let ledger_dir = dir.join(format!("{tag}-ledger"));
                let wal = ledger_dir.join("default.wal");
                let _ = std::fs::remove_file(&out);
                let _ = std::fs::remove_dir_all(&ledger_dir);

                let args = serve_args(&csv, &schema, &reqs, &out, workers, Some(&ledger_dir), true);
                let killed = Command::new(BIN)
                    .args(&args)
                    .env("DPX_CRASH_AT", format!("{point}:{nth}"))
                    .output()
                    .expect("spawn armed cli");
                if killed.status.success() {
                    // The point was hit fewer than nth times: nothing to
                    // recover, but the completed run must match the reference.
                    assert_eq!(
                        std::fs::read(&out).unwrap(),
                        reference,
                        "[{tag}] un-triggered run diverged"
                    );
                } else {
                    crashed += 1;
                    let stderr = String::from_utf8_lossy(&killed.stderr);
                    assert!(
                        stderr.contains("injected crash at"),
                        "[{tag}] died without the injection marker:\n{stderr}"
                    );
                }

                // Invariant 1: whatever the kill left behind, the shard's
                // ledger covers every flushed response and respects the cap
                // — via its checkpoint record, its grant tail, or both.
                let recovery = dpx_dp::ledger::recover(&wal).expect("ledger recovers");
                let spent = recovery.spent();
                assert!(
                    spent <= CAP + 1e-9,
                    "[{tag}] recovered spend {spent} exceeds cap {CAP}"
                );
                // All-or-none at grant granularity: the recovered spend is an
                // integral number of whole 0.3-ε grants.
                let grants = spent / EPS_PER_REQUEST;
                assert!(
                    (grants - grants.round()).abs() < 1e-6,
                    "[{tag}] recovered spend {spent} is not a whole number of grants"
                );
                let grant_ids: HashSet<u64> = recovery.granted_ids().collect();
                let ok_ids = flushed_ok_ids(&out);
                for id in &ok_ids {
                    assert!(
                        grant_ids.contains(id),
                        "[{tag}] response {id} was flushed without a durable grant"
                    );
                }
                assert!(
                    spent + 1e-9 >= EPS_PER_REQUEST * ok_ids.len() as f64,
                    "[{tag}] spend {spent} does not cover {} flushed responses",
                    ok_ids.len()
                );

                // Invariant 2: resume converges on the uninterrupted bytes.
                let argv: Vec<&str> = args.iter().map(String::as_str).collect();
                run_ok(&argv);
                assert_eq!(
                    std::fs::read(&out).unwrap(),
                    reference,
                    "[{tag}] resumed output diverged from the uninterrupted run"
                );
                let settled = dpx_dp::ledger::recover(&wal).expect("ledger recovers");
                let expected = EPS_PER_REQUEST * N_REQUESTS as f64;
                assert!(
                    (settled.spent() - expected).abs() < 1e-9,
                    "[{tag}] settled spend {} != {expected} (double-spend?)",
                    settled.spent()
                );
                let settled_ids: HashSet<u64> = settled.granted_ids().collect();
                assert_eq!(
                    settled_ids,
                    (1..=N_REQUESTS as u64).collect::<HashSet<u64>>(),
                    "[{tag}] each request holds exactly one grant"
                );
            }
        }
    }
    assert!(
        crashed >= scenarios / 2,
        "only {crashed}/{scenarios} schedules actually fired — the matrix is \
         not exercising the kill paths"
    );
}

/// Kills at the ledger's fsync fault points while an **abuse storm** — not a
/// quiet batch — is in flight: honest small requests racing a budget whale
/// (a 1.2-ε request), already-expired zero-deadline straddlers, and a
/// duplicate-id replay line. The recovery invariants are unchanged from the
/// quiet matrix, but now over hostile traffic:
///
/// 1. every grant the ledger recovers belongs to a request that is allowed
///    to spend (straddlers and the replay can never hold one), and the
///    recovered spend equals the per-id ε sum over exactly those grants —
///    computed from the request file, since mixed ε breaks whole-multiple
///    checks;
/// 2. every flushed ok response has a durable grant;
/// 3. `--resume` converges on the uninterrupted bytes, including the
///    deterministic straddler rejections and the replay's wire reject line.
///
/// The run is deliberately uncapped: a cap would attach admission-order-
/// dependent `eps_remaining` values to the straddler error lines and break
/// the byte-identity assertion.
#[test]
fn group_commit_kill_during_abuse_storm_recovers_cleanly() {
    let dir = tmpdir();
    let prefix = dir.join("stormmatrix");
    let prefix_s = prefix.to_str().unwrap().to_string();
    run_ok(&[
        "generate",
        "--dataset",
        "diabetes",
        "--rows",
        "400",
        "--out",
        &prefix_s,
    ]);
    let csv = format!("{prefix_s}.csv");
    let schema = format!("{prefix_s}.schema");
    let reqs = dir.join("stormmatrix-reqs.jsonl");
    let mut traffic = String::new();
    for id in 1..=6u64 {
        traffic.push_str(&format!("{{\"id\": {id}, \"seed\": {id}}}\n"));
    }
    // The whale: one request asking for 4x the default budget.
    traffic.push_str(
        "{\"id\": 100, \"seed\": 100, \"eps_cand\": 0.4, \"eps_comb\": 0.4, \"eps_hist\": 0.4}\n",
    );
    // Straddlers: already expired on arrival, must never reach the ledger.
    traffic.push_str("{\"id\": 200, \"deadline_ms\": 0}\n");
    traffic.push_str("{\"id\": 201, \"deadline_ms\": 0}\n");
    // A replay of id 1: rejected at the wire, answered on the stream.
    traffic.push_str("{\"id\": 1, \"seed\": 77}\n");
    std::fs::write(&reqs, traffic).unwrap();

    // ε per id that may legally hold a grant; straddlers and the replay
    // line must never appear in the ledger at all.
    let eps_of = |id: u64| -> Option<f64> {
        match id {
            1..=6 => Some(EPS_PER_REQUEST),
            100 => Some(1.2),
            _ => None,
        }
    };
    let settled_expected: HashSet<u64> = (1..=6u64).chain([100]).collect();
    let settled_eps = 6.0 * EPS_PER_REQUEST + 1.2;

    let storm_args = |out: &Path, workers: usize, ledger: Option<&Path>| -> Vec<String> {
        let mut args = vec![
            "serve-daemon".to_string(),
            "--data".into(),
            csv.clone(),
            "--schema".into(),
            schema.clone(),
            "--requests".into(),
            reqs.to_str().unwrap().to_string(),
            "--out".into(),
            out.to_str().unwrap().to_string(),
            "--workers".into(),
            workers.to_string(),
        ];
        if let Some(ledger) = ledger {
            for flag in [
                "--ledger-dir",
                ledger.to_str().unwrap(),
                "--checkpoint-every",
                "2",
                "--resume",
            ] {
                args.push(flag.to_string());
            }
        }
        args
    };

    // Uninterrupted reference: the storm's answer stream is byte-identical
    // at 1 and 4 workers, hostile lines included.
    let reference = {
        let mut outs = Vec::new();
        for workers in [1usize, 4] {
            let out = dir.join(format!("storm-reference-w{workers}.jsonl"));
            let args = storm_args(&out, workers, None);
            let argv: Vec<&str> = args.iter().map(String::as_str).collect();
            run_ok(&argv);
            outs.push(std::fs::read(&out).unwrap());
        }
        assert_eq!(outs[0], outs[1], "storm reference diverged across workers");
        outs.remove(0)
    };
    let reference_text = String::from_utf8(reference.clone()).unwrap();
    assert!(
        reference_text.contains("\"reason\":\"duplicate_id\""),
        "the storm's replay line never surfaced:\n{reference_text}"
    );
    assert!(
        reference_text.contains("\"reason\":\"deadline_exceeded\""),
        "the storm's straddlers never surfaced:\n{reference_text}"
    );

    let mut crashed = 0usize;
    let mut scenarios = 0usize;
    for point in ["ledger.pre_fsync", "ledger.post_fsync"] {
        for nth in [1u64, 2] {
            scenarios += 1;
            let tag = format!("storm-{}-{nth}", point.replace('.', "_"));
            let out = dir.join(format!("{tag}.jsonl"));
            let ledger_dir = dir.join(format!("{tag}-ledger"));
            let wal = ledger_dir.join("default.wal");
            let args = storm_args(&out, 4, Some(&ledger_dir));
            let killed = Command::new(BIN)
                .args(&args)
                .env("DPX_CRASH_AT", format!("{point}:{nth}"))
                .output()
                .expect("spawn armed cli");
            if killed.status.success() {
                assert_eq!(
                    std::fs::read(&out).unwrap(),
                    reference,
                    "[{tag}] un-triggered run diverged"
                );
            } else {
                crashed += 1;
                let stderr = String::from_utf8_lossy(&killed.stderr);
                assert!(
                    stderr.contains("injected crash at"),
                    "[{tag}] died without the injection marker:\n{stderr}"
                );
            }

            // Invariant 1: only spend-eligible ids hold grants, and the
            // recovered spend is exactly the per-id ε sum over them.
            let recovery = dpx_dp::ledger::recover(&wal).expect("ledger recovers");
            let grant_ids: HashSet<u64> = recovery.granted_ids().collect();
            let mut expected_spend = 0.0;
            for id in &grant_ids {
                match eps_of(*id) {
                    Some(eps) => expected_spend += eps,
                    None => panic!("[{tag}] id {id} must never hold a grant"),
                }
            }
            let spent = recovery.spent();
            assert!(
                (spent - expected_spend).abs() < 1e-9,
                "[{tag}] recovered spend {spent} != per-id sum {expected_spend}"
            );

            // Invariant 2: no flushed ok response without a durable grant.
            let ok_ids = flushed_ok_ids(&out);
            for id in &ok_ids {
                assert!(
                    grant_ids.contains(id),
                    "[{tag}] response {id} was flushed without a durable grant"
                );
            }

            // Invariant 3: resume converges on the uninterrupted bytes and
            // settles on exactly one grant per spend-eligible request.
            let argv: Vec<&str> = args.iter().map(String::as_str).collect();
            run_ok(&argv);
            assert_eq!(
                std::fs::read(&out).unwrap(),
                reference,
                "[{tag}] resumed storm output diverged"
            );
            let settled = dpx_dp::ledger::recover(&wal).expect("ledger recovers");
            assert!(
                (settled.spent() - settled_eps).abs() < 1e-9,
                "[{tag}] settled spend {} != {settled_eps} (double-spend?)",
                settled.spent()
            );
            let settled_ids: HashSet<u64> = settled.granted_ids().collect();
            assert_eq!(
                settled_ids, settled_expected,
                "[{tag}] settled grants must cover exactly the spenders"
            );
        }
    }
    assert!(
        crashed >= scenarios / 2,
        "only {crashed}/{scenarios} storm kills actually fired"
    );
}

/// Fault points on the daemon's shutdown path, in drain order: after the
/// workers joined but before any shard checkpoint, inside the drain
/// checkpoint's compact-and-truncate (before and after the atomic rename),
/// plus one mid-serve kill (`service.post_respond:2`) for the pre-drain
/// contrast. No `--checkpoint-every` is passed, so the `ledger.ckpt_*`
/// points can only fire inside `{"op":"shutdown"}`'s drain checkpoint —
/// the kill provably lands mid-drain.
const DAEMON_POINTS: [(&str, u64); 4] = [
    ("service.post_respond", 2),
    ("daemon.pre_drain_checkpoint", 1),
    ("ledger.ckpt_pre_rename", 1),
    ("ledger.ckpt_post_rename", 1),
];

/// Kills `serve-daemon` at every point of its drain sequence. The daemon's
/// promise is that shutdown is just another crash the ledger already
/// survives: whether the kill lands mid-serve, after the workers drained
/// but before the checkpoint, or inside the checkpoint's rename, the WAL
/// recovers every flushed response's grant under the cap, and a `--resume`
/// run (same request file, shutdown op included) converges byte-identically
/// on the uninterrupted run's sorted response stream.
#[test]
fn daemon_kill_mid_drain_recovers_to_the_uninterrupted_output() {
    let dir = tmpdir();
    let prefix = dir.join("daemonmatrix");
    let prefix_s = prefix.to_str().unwrap().to_string();
    run_ok(&[
        "generate",
        "--dataset",
        "diabetes",
        "--rows",
        "400",
        "--out",
        &prefix_s,
    ]);
    let csv = format!("{prefix_s}.csv");
    let schema = format!("{prefix_s}.schema");
    let reqs = dir.join("daemonmatrix-reqs.jsonl");
    let mut traffic: String = (1..=N_REQUESTS)
        .map(|id| format!("{{\"id\": {id}, \"seed\": {id}}}\n"))
        .collect();
    // The daemon's SIGTERM equivalent: admission closes, the queue drains,
    // every shard checkpoints. The kill schedule lands inside that sequence.
    traffic.push_str("{\"id\": 99, \"op\": \"shutdown\"}\n");
    std::fs::write(&reqs, traffic).unwrap();

    let daemon_args = |out: &Path, ledger: Option<&Path>, resume: bool| -> Vec<String> {
        let mut args = vec![
            "serve-daemon".to_string(),
            "--data".into(),
            csv.clone(),
            "--schema".into(),
            schema.clone(),
            "--requests".into(),
            reqs.to_str().unwrap().to_string(),
            "--out".into(),
            out.to_str().unwrap().to_string(),
            "--workers".into(),
            "2".into(),
            "--budget".into(),
            CAP.to_string(),
        ];
        if let Some(ledger) = ledger {
            args.push("--ledger-dir".into());
            args.push(ledger.to_str().unwrap().to_string());
        }
        if resume {
            args.push("--resume".into());
        }
        args
    };

    // Uninterrupted reference: the daemon's sorted durable stream.
    let reference = {
        let out = dir.join("daemon-reference.jsonl");
        let args = daemon_args(&out, None, false);
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let output = run_ok(&argv);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains("daemon drained (shutdown op)"),
            "reference run never drained:\n{stdout}"
        );
        assert!(stdout.contains("probe violations: 0"), "{stdout}");
        std::fs::read(&out).unwrap()
    };

    let mut crashed = 0usize;
    for (point, nth) in DAEMON_POINTS {
        let tag = format!("daemon-{}-{nth}", point.replace('.', "_"));
        let out = dir.join(format!("{tag}.jsonl"));
        let ledger_dir = dir.join(format!("{tag}-ledger"));
        let wal = ledger_dir.join("default.wal");

        let args = daemon_args(&out, Some(&ledger_dir), false);
        let killed = Command::new(BIN)
            .args(&args)
            .env("DPX_CRASH_AT", format!("{point}:{nth}"))
            .output()
            .expect("spawn armed daemon");
        if killed.status.success() {
            assert_eq!(
                std::fs::read(&out).unwrap(),
                reference,
                "[{tag}] un-triggered run diverged"
            );
        } else {
            crashed += 1;
            let stderr = String::from_utf8_lossy(&killed.stderr);
            assert!(
                stderr.contains("injected crash at"),
                "[{tag}] died without the injection marker:\n{stderr}"
            );
        }

        // Invariant 1: wherever in the drain the kill landed, the WAL
        // recovers every flushed response's grant under the cap.
        let recovery = dpx_dp::ledger::recover(&wal).expect("ledger recovers");
        let spent = recovery.spent();
        assert!(
            spent <= CAP + 1e-9,
            "[{tag}] recovered spend {spent} exceeds cap {CAP}"
        );
        let grant_ids: HashSet<u64> = recovery.granted_ids().collect();
        let ok_ids = flushed_ok_ids(&out);
        for id in &ok_ids {
            assert!(
                grant_ids.contains(id),
                "[{tag}] response {id} was flushed without a durable grant"
            );
        }
        assert!(
            spent + 1e-9 >= EPS_PER_REQUEST * ok_ids.len() as f64,
            "[{tag}] spend {spent} does not cover {} flushed responses",
            ok_ids.len()
        );

        // Invariant 2: the resumed daemon keeps the served lines, re-runs
        // the rest, drains cleanly, and converges on the reference bytes.
        let args = daemon_args(&out, Some(&ledger_dir), true);
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let output = run_ok(&argv);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains("daemon drained (shutdown op)"),
            "[{tag}] resumed daemon never drained:\n{stdout}"
        );
        assert_eq!(
            std::fs::read(&out).unwrap(),
            reference,
            "[{tag}] resumed output diverged from the uninterrupted run"
        );
        let settled = dpx_dp::ledger::recover(&wal).expect("ledger recovers");
        let expected = EPS_PER_REQUEST * N_REQUESTS as f64;
        assert!(
            (settled.spent() - expected).abs() < 1e-9,
            "[{tag}] settled spend {} != {expected} (double-spend?)",
            settled.spent()
        );
        let settled_ids: HashSet<u64> = settled.granted_ids().collect();
        assert_eq!(
            settled_ids,
            (1..=N_REQUESTS as u64).collect::<HashSet<u64>>(),
            "[{tag}] each request holds exactly one grant"
        );
    }
    assert_eq!(
        crashed,
        DAEMON_POINTS.len(),
        "every daemon drain kill is deterministic and must fire"
    );
}
