//! Crash-recovery battery for the serving stack, in-process (the
//! subprocess-kill matrix lives in `crates/cli/tests/crash_matrix.rs`).
//!
//! What must hold:
//!
//! * a ledgered accountant's grants survive a drop-and-recover cycle with the
//!   exact spend and request ids;
//! * a restarted daemon that holds the recovered ids in
//!   [`DaemonConfig::granted`] reproduces byte-identical responses without
//!   charging a second time;
//! * deadline cancellation surfaces as a typed engine error with the reserved
//!   ε deliberately left spent.

use dpx_data::synth;
use dpx_dp::budget::Epsilon;
use dpx_dp::ledger::recover;
use dpx_dp::DpError;
use dpx_runtime::{CancelToken, REASON_DEADLINE};
use dpx_serve::{
    serve_lines, AccountantShards, Daemon, DaemonConfig, DaemonReply, DatasetRegistry,
    ExplainResponse, ReplySink, ShardConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const BATCH: &str = r#"
{"id": 1, "seed": 41, "cluster_by": 0, "n_clusters": 3}
{"id": 2, "seed": 42, "cluster_by": 2, "n_clusters": 2}
{"id": 3, "seed": 43, "cluster_by": 0, "n_clusters": 3, "stage2_kernel": "counter"}
"#;

fn ledger_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dpx-serve-recovery-{}-{tag}", std::process::id()))
}

fn dataset() -> Arc<dpx_data::Dataset> {
    let mut rng = StdRng::seed_from_u64(2026);
    Arc::new(synth::diabetes::spec(3).generate(800, &mut rng).data)
}

fn registry_with_ledger(
    data: Arc<dpx_data::Dataset>,
    dir: &std::path::Path,
) -> (Arc<DatasetRegistry>, HashSet<u64>) {
    let shards = Arc::new(AccountantShards::in_dir(dir).expect("shard dir opens"));
    let registry = Arc::new(DatasetRegistry::with_shards(shards));
    let entry = registry
        .register_sharded(
            "default",
            data,
            ShardConfig::capped(Epsilon::new(10.0).unwrap()),
        )
        .expect("shard recovers");
    let granted: HashSet<u64> = entry.accountant().granted_ids().into_iter().collect();
    (registry, granted)
}

/// Serves the JSONL `lines` through a fresh daemon's line transport, as
/// `serve-batch` does, and returns the responses sorted by id.
fn serve_lines_sorted(
    registry: &Arc<DatasetRegistry>,
    lines: &str,
    workers: usize,
    granted: HashSet<u64>,
) -> Vec<ExplainResponse> {
    let daemon = Daemon::new(
        Arc::clone(registry),
        DaemonConfig {
            workers,
            granted,
            ..Default::default()
        },
    );
    let handles = daemon.start();
    let replies = Arc::new(Mutex::new(Vec::new()));
    let sink: ReplySink = {
        let replies = Arc::clone(&replies);
        Arc::new(move |reply: DaemonReply<'_>| {
            if let DaemonReply::Response(response) = reply {
                replies.lock().unwrap().push(response.clone());
            }
        })
    };
    serve_lines(&daemon, lines.as_bytes(), &sink, &HashSet::new()).expect("in-memory read");
    let summary = daemon.drain_and_join(handles);
    assert!(summary.clean(), "{summary:?}");
    let mut responses = replies.lock().unwrap().clone();
    responses.sort_by_key(|r| r.id);
    responses
}

fn response_lines(
    registry: &Arc<DatasetRegistry>,
    granted: HashSet<u64>,
    workers: usize,
) -> Vec<String> {
    serve_lines_sorted(registry, BATCH, workers, granted)
        .iter()
        .map(ExplainResponse::to_json_line)
        .collect()
}

#[test]
fn recovered_ledger_replays_grants_and_skips_respending() {
    let dir = ledger_dir("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let wal = dir.join("default.wal");
    let data = dataset();

    // First life: empty ledger, three fresh spends.
    let (registry, granted) = registry_with_ledger(Arc::clone(&data), &dir);
    assert!(granted.is_empty(), "fresh ledger grants nothing");
    let first = response_lines(&registry, granted, 2);
    assert_eq!(first.len(), 3);
    let entry = registry.get("default").unwrap();
    assert!((entry.accountant().spent() - 0.9).abs() < 1e-9);
    drop(registry);

    // The grants are on disk with their request ids and the exact spend.
    let recovery = recover(&wal).expect("ledger recovers");
    assert_eq!(recovery.truncated_bytes, 0);
    assert!((recovery.spent() - 0.9).abs() < 1e-9);
    // The daemon's clean drain compacted the WAL, so the grants sit in its
    // checkpoint record rather than the tail.
    let ids: HashSet<u64> = recovery.granted_ids().collect();
    assert_eq!(ids, HashSet::from([1, 2, 3]));

    // Second life: every id is granted, so the daemon reproduces the exact
    // bytes while the accountant only ever replays — no new charges.
    let (registry, granted) = registry_with_ledger(data, &dir);
    assert_eq!(granted, HashSet::from([1, 2, 3]));
    let second = response_lines(&registry, granted, 4);
    assert_eq!(second, first, "granted replay must be byte-identical");
    let entry = registry.get("default").unwrap();
    assert!(
        (entry.accountant().spent() - 0.9).abs() < 1e-9,
        "replayed grants must not double-spend"
    );
    let settled = recover(&wal).expect("ledger recovers");
    assert_eq!(
        settled.granted_ids().count(),
        3,
        "no grant was appended twice"
    );
    assert!((settled.spent() - 0.9).abs() < 1e-9);
}

#[test]
fn deadline_cancellation_is_typed_and_keeps_the_reservation() {
    use dpclustx::engine::{ExplainEngine, NoopObserver};
    use dpclustx::framework::DpClustXConfig;

    let data = dataset();
    let labels: Vec<usize> = data.column(0).iter().map(|&v| v as usize % 3).collect();
    let engine = ExplainEngine::new(DpClustXConfig::default())
        .with_cancel(CancelToken::with_deadline(Duration::from_millis(0)));
    let mut rng = StdRng::seed_from_u64(7);
    let err = engine
        .explain_uncached(
            &data,
            &labels,
            3,
            &dpx_dp::histogram::GeometricHistogram,
            &mut rng,
            &mut NoopObserver,
        )
        .expect_err("a zero deadline cancels before the first stage");
    match err {
        DpError::Cancelled { ref reason } => assert_eq!(reason, REASON_DEADLINE),
        other => panic!("expected Cancelled, got {other}"),
    }

    // An explicit cancel wins over a later deadline, first reason sticks.
    let token = CancelToken::with_deadline(Duration::from_secs(3600));
    token.cancel("operator_abort");
    token.cancel("second_reason_ignored");
    assert_eq!(token.cancel_reason().as_deref(), Some("operator_abort"));
}
