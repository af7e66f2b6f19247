//! Ledger-recovery harness: how long `open()`-to-serving takes on a grant
//! history of N records, full-history replay vs checkpointed recovery, with
//! the recovered spend asserted **bit-identical** between the two before any
//! timing is trusted (a faster recovery that lands on a different ε is not a
//! result — it is a correctness bug).
//!
//! Also reports the composition-aware replay dividend: the flat sum the
//! pre-v2 ledger would have reconstructed vs the tight
//! sequential-plus-max-per-group bound the v2 format replays, i.e. how much
//! ε a restart reclaims for the analysts.
//!
//! Emits `BENCH_ledger.json` (default `results/BENCH_ledger.json`, override
//! with `--out`):
//!
//! ```text
//! cargo run -p dpx-bench --release --bin ledger_recovery -- \
//!     --grants 10000,100000 --checkpoint-every 1000
//! ```

use dpx_bench::{Args, Json};
use dpx_dp::ledger::{CheckpointRecord, GrantRecord, GroupSnapshot, LedgerWriter};
use dpx_dp::SharedAccountant;
use std::path::Path;
use std::time::Instant;

/// The grant mix: every fourth grant is a parallel-composition member over
/// four cycling partition groups, the rest compose sequentially. ε varies so
/// replay order matters and the bit-exactness assertion has teeth.
fn history(n: usize) -> Vec<GrantRecord> {
    (0..n)
        .map(|i| {
            let epsilon = 0.001 + (i % 17) as f64 * 0.0001;
            let group = if i % 4 == 0 {
                Some(format!("region/{}", i % 4 + (i / 4) % 4))
            } else {
                None
            };
            GrantRecord {
                request_id: i as u64 + 1,
                epsilon,
                label: format!("request/{}", i + 1),
                group,
            }
        })
        .collect()
}

/// The checkpoint record a live accountant would have written after the
/// first `upto` grants: the left-fold sequential partial sum, the granted
/// ids, and the per-group maxima in group-creation order — exactly the
/// state `Recovery::spent` seeds its fold with.
fn checkpoint_after(grants: &[GrantRecord], upto: usize) -> CheckpointRecord {
    let prefix = &grants[..upto];
    let mut seq_spent = 0.0f64;
    let mut groups: Vec<GroupSnapshot> = Vec::new();
    for g in prefix {
        match g.group.as_deref() {
            None => seq_spent += g.epsilon,
            Some(name) => match groups.iter_mut().find(|s| s.name == name) {
                Some(s) => s.max = s.max.max(g.epsilon),
                None => groups.push(GroupSnapshot {
                    name: name.to_string(),
                    max: g.epsilon,
                }),
            },
        }
    }
    CheckpointRecord {
        seq_spent,
        granted: prefix.iter().map(|g| g.request_id).collect(),
        groups,
    }
}

/// The conservative flat-sum bound the v1 ledger replayed: every grant
/// added, parallel composition ignored.
fn flat_sum(grants: &[GrantRecord]) -> f64 {
    grants.iter().map(|g| g.epsilon).sum()
}

/// Best-of-`runs` wall time of a cold open-to-serving recovery: parse and
/// CRC-check the file, then rebuild the accountant at the recovered spend.
fn time_recovery(path: &Path, runs: usize) -> (f64, f64, u64) {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut replayed = 0;
    for _ in 0..runs {
        let t0 = Instant::now();
        let (writer, recovery) = LedgerWriter::open(path).expect("ledger opens");
        let accountant = SharedAccountant::recovered(None, writer, &recovery);
        best = best.min(t0.elapsed().as_secs_f64());
        spent = accountant.spent();
        replayed = recovery.records_replayed();
    }
    (best, spent, replayed)
}

fn main() {
    let args = Args::parse();
    let sizes = args.usize_list("grants", &[10_000, 100_000]);
    let checkpoint_every = args.usize("checkpoint-every", 1_000);
    let runs = args.usize("runs", 3);
    let out = args.string("out", "results/BENCH_ledger.json");
    let dir = std::env::temp_dir().join(format!("dpx-bench-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    eprintln!(
        "# ledger_recovery: grants {sizes:?}, checkpoint every {checkpoint_every}, {runs} runs"
    );

    let mut cells = Vec::new();
    for &n in &sizes {
        let grants = history(n);

        // Full-history ledger: every grant framed on disk, no checkpoint.
        let full_path = dir.join(format!("full-{n}.wal"));
        let _ = std::fs::remove_file(&full_path);
        let (mut writer, _) = LedgerWriter::open(&full_path).expect("create full ledger");
        writer.append_all(&grants).expect("append full history");
        drop(writer);

        // Checkpointed ledger: the same history, compacted the way a live
        // accountant with `checkpoint_every` would leave it — one checkpoint
        // record plus the post-checkpoint grant tail.
        let tail_start = n - n % checkpoint_every.max(1);
        let tail_start = if tail_start == n && n > 0 {
            n - checkpoint_every.min(n)
        } else {
            tail_start
        };
        let ckpt_path = dir.join(format!("ckpt-{n}.wal"));
        let _ = std::fs::remove_file(&ckpt_path);
        let (mut writer, _) = LedgerWriter::open(&ckpt_path).expect("create ckpt ledger");
        writer
            .checkpoint(&checkpoint_after(&grants, tail_start))
            .expect("write checkpoint");
        writer
            .append_all(&grants[tail_start..])
            .expect("append tail");
        drop(writer);

        let (full_s, full_spent, full_replayed) = time_recovery(&full_path, runs);
        let (ckpt_s, ckpt_spent, ckpt_replayed) = time_recovery(&ckpt_path, runs);

        // Correctness before timing: both recoveries land on the same bits,
        // and that spend matches an in-memory replay of the tight bound.
        assert_eq!(
            full_spent.to_bits(),
            ckpt_spent.to_bits(),
            "n={n}: checkpointed recovery diverged from full-history replay"
        );
        let flat = flat_sum(&grants);
        let reclaimed = flat - full_spent;
        assert!(
            reclaimed > 0.0,
            "n={n}: the grant mix must exercise parallel composition"
        );

        let speedup = full_s / ckpt_s;
        eprintln!(
            "# {n:>7} grants: full {full_s:.4}s ({full_replayed} records) vs \
             checkpointed {ckpt_s:.4}s ({ckpt_replayed} records) — {speedup:.1}x; \
             tight ε {full_spent:.3} reclaims {reclaimed:.3} over flat {flat:.3}"
        );
        if n >= 100_000 {
            assert!(
                ckpt_s < full_s,
                "n={n}: checkpointed recovery ({ckpt_s}s) must beat \
                 full-history replay ({full_s}s)"
            );
        }
        let full_bytes = std::fs::metadata(&full_path).expect("stat full").len();
        let ckpt_bytes = std::fs::metadata(&ckpt_path).expect("stat ckpt").len();
        cells.push(
            Json::object()
                .field("grants", n)
                .field("full_recover_s", full_s)
                .field("full_records_replayed", full_replayed as usize)
                .field("full_wal_bytes", full_bytes as usize)
                .field("checkpointed_recover_s", ckpt_s)
                .field("checkpointed_records_replayed", ckpt_replayed as usize)
                .field("checkpointed_wal_bytes", ckpt_bytes as usize)
                .field("speedup", speedup)
                .field("spent_tight", full_spent)
                .field("spent_flat", flat)
                .field("eps_reclaimed", reclaimed),
        );
    }

    let doc = Json::object()
        .field("bench", "ledger_recovery")
        .field("host", dpx_bench::host_block())
        .field("checkpoint_every", checkpoint_every)
        .field("runs", runs)
        .field("cells", cells);

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, doc.pretty()).expect("write BENCH json");
    eprintln!("# wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
}
