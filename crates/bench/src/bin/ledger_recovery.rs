//! Ledger-recovery harness: how long `open()`-to-serving takes on a grant
//! history of N records, full-history replay vs checkpointed recovery, with
//! the recovered spend asserted **identical** between the two before any
//! timing is trusted (a faster recovery that lands on a different ε is not a
//! result — it is a correctness bug).
//!
//! Also runs the long-horizon accountant cell: `--accountant-grants` grants
//! on one capped in-memory shard, timing the first and the last 10% of them.
//! A shard that keeps a running total costs the same per grant at the end as
//! at the start; one that re-sums a charge history per cap check does not.
//!
//! Emits `BENCH_ledger.json` (default `results/BENCH_ledger.json`, override
//! with `--out`):
//!
//! ```text
//! cargo run -p dpx-bench --release --bin ledger_recovery -- \
//!     --grants 10000,100000 --checkpoint-every 1000 --accountant-grants 1000000
//! ```

use dpx_bench::{Args, Json};
use dpx_dp::budget::{epsilon_units, Epsilon};
use dpx_dp::ledger::{CheckpointRecord, GrantRecord, LedgerWriter};
use dpx_dp::SharedAccountant;
use std::path::Path;
use std::time::Instant;

/// The grant mix: ε varies over 17 values so the total is not a multiple of
/// one grant.
fn history(n: usize) -> Vec<GrantRecord> {
    (0..n)
        .map(|i| {
            let epsilon = 0.001 + (i % 17) as f64 * 0.0001;
            GrantRecord::for_request(i as u64 + 1, epsilon_units(epsilon).expect("in range"))
        })
        .collect()
}

/// The checkpoint record a live accountant would have written after the
/// first `upto` grants: their unit total and their sorted request ids.
fn checkpoint_after(grants: &[GrantRecord], upto: usize) -> CheckpointRecord {
    let prefix = &grants[..upto];
    let mut granted: Vec<u64> = prefix.iter().map(|g| g.request_id).collect();
    granted.sort_unstable();
    CheckpointRecord {
        spent_units: prefix.iter().map(|g| g.units).sum(),
        granted,
    }
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

/// The long-horizon cell: `n` grants of 0.5 ε on a fresh shard capped well
/// above their total, request ids `id(0..n)`, returning µs per grant over the
/// first and the last 10%, each the best of `runs` shards (a window lasts
/// about 10 ms, short enough for one scheduler stall to double it).
fn time_long_horizon(n: usize, runs: usize, id: impl Fn(usize) -> u64) -> (f64, f64) {
    let eps = Epsilon::new(0.5).expect("valid ε");
    let window = (n / 10).max(1);
    let (mut first, mut last) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs {
        let shard = SharedAccountant::with_cap(Epsilon::new(n as f64).expect("positive cap"));
        let mut start = Instant::now();
        for i in 0..n {
            if i == n - window {
                start = Instant::now();
            }
            shard
                .try_spend_grant(id(i), "request", eps)
                .expect("under the cap");
            if i + 1 == window {
                first = first.min(start.elapsed().as_secs_f64());
            }
        }
        last = last.min(start.elapsed().as_secs_f64());
        assert_eq!(shard.num_charges(), n, "every grant recorded");
        assert_eq!(shard.spent(), 0.5 * n as f64, "exact total");
    }
    let per_grant_us = |secs: f64| secs * 1e6 / window as f64;
    (per_grant_us(first), per_grant_us(last))
}

fn main() {
    let args = Args::parse();
    let sizes = args.usize_list("grants", &[10_000, 100_000]);
    let checkpoint_every = args.usize("checkpoint-every", 1_000);
    let runs = args.usize("runs", 3);
    let accountant_grants = args.usize("accountant-grants", 1_000_000);
    let out = args.string("out", "results/BENCH_ledger.json");
    let dir = std::env::temp_dir().join(format!("dpx-bench-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    eprintln!(
        "# ledger_recovery: grants {sizes:?}, checkpoint every {checkpoint_every}, {runs} runs, \
         {accountant_grants} accountant grants"
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

        // Correctness before timing: both recoveries land on the same bits.
        assert_eq!(
            full_spent.to_bits(),
            ckpt_spent.to_bits(),
            "n={n}: checkpointed recovery diverged from full-history replay"
        );

        let speedup = full_s / ckpt_s;
        eprintln!(
            "# {n:>7} grants: full {full_s:.4}s ({full_replayed} records) vs \
             checkpointed {ckpt_s:.4}s ({ckpt_replayed} records) — {speedup:.1}x; \
             spent ε {full_spent:.3}"
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
                .field("spent", full_spent),
        );
    }

    // Increasing ids, as the CLI and the benchmarks assign them; then the
    // same count scattered over the id space (multiplying by an odd constant
    // permutes u64), the worst case for the granted-id set's locality.
    let (first_us, last_us) = time_long_horizon(accountant_grants, runs, |i| i as u64 + 1);
    let (scattered_first_us, scattered_last_us) = time_long_horizon(accountant_grants, runs, |i| {
        (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    });
    let ratio = last_us / first_us;
    let scattered_ratio = scattered_last_us / scattered_first_us;
    eprintln!(
        "# {accountant_grants} capped in-memory grants: {first_us:.3} µs/grant over the first \
         10%, {last_us:.3} over the last — {ratio:.2}x (scattered ids {scattered_ratio:.2}x)"
    );
    let long_horizon = Json::object()
        .field("grants", accountant_grants)
        .field("first_10pct_us_per_grant", first_us)
        .field("last_10pct_us_per_grant", last_us)
        .field("last_over_first", ratio)
        .field("scattered_ids_first_10pct_us_per_grant", scattered_first_us)
        .field("scattered_ids_last_10pct_us_per_grant", scattered_last_us)
        .field("scattered_ids_last_over_first", scattered_ratio);

    let doc = Json::object()
        .field("bench", "ledger_recovery")
        .field("host", dpx_bench::host_block())
        .field("checkpoint_every", checkpoint_every)
        .field("runs", runs)
        .field("cells", cells)
        .field("long_horizon", long_horizon);

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, doc.pretty()).expect("write BENCH json");
    eprintln!("# wrote {out}");
    let _ = std::fs::remove_dir_all(&dir);
}
