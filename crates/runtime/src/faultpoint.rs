//! Deterministic fault injection: named crash points on the serving path.
//!
//! Crash-safety claims ("the ledger never forgets a grant", "a restart never
//! double-spends") are only as good as the crashes they were tested against.
//! This module instruments the danger zones with **named fault points** —
//! `ledger.pre_fsync`, `ledger.post_fsync`, `service.pre_spend`,
//! `service.post_spend`, `service.post_respond` — each a single
//! [`hit`] call that is a no-op in production.
//!
//! A *crash schedule* arms exactly one point: when the named point is hit for
//! the N-th time, the process **aborts** (`std::process::abort`, no unwinding,
//! no destructors, no buffered flushes — the closest portable stand-in for a
//! `kill -9`). The schedule comes from the environment so a test harness can
//! drive a child process through every single-point kill:
//!
//! ```text
//! DPX_CRASH_AT="ledger.pre_fsync:3"   # abort on the 3rd pre-fsync hit
//! ```
//!
//! Determinism: hit counts are process-global. With one worker the serving
//! path hits each point a deterministic number of times for a given request
//! batch, so a schedule names one exact program state. With more workers the
//! ledger's group commit folds however many grants happened to queue into
//! one batch, so `ledger.*` hit counts depend on scheduling and a schedule
//! names one of several states — each of which must still recover. The
//! `crash_matrix` test enumerates schedules from a seed and asserts the
//! recovery invariants after each kill.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Fault point: a batch of ledger records (one or more grants of a group
/// commit) has been written but not yet fsynced. A kill here may tear the
/// batch mid-record; recovery must truncate the tail and count only the
/// durable prefix.
pub const LEDGER_PRE_FSYNC: &str = "ledger.pre_fsync";
/// Fault point: a batch of ledger records is durable but no spender in it
/// has been acked or charged in memory. Recovery must count every grant in
/// the batch; none of their responses may have been flushed.
pub const LEDGER_POST_FSYNC: &str = "ledger.post_fsync";
/// Fault point: a request has been admitted but its ε not yet reserved.
pub const SERVICE_PRE_SPEND: &str = "service.pre_spend";
/// Fault point: ε is reserved (and durable when a ledger is attached) but the
/// explanation has not been computed. The reservation must survive.
pub const SERVICE_POST_SPEND: &str = "service.post_spend";
/// Fault point: a response line has been written and flushed. A restart must
/// not recompute-and-duplicate it.
pub const SERVICE_POST_RESPOND: &str = "service.post_respond";
/// Fault point: a shard accountant passed its cap check but has not yet
/// appended the grant to its WAL. A kill here must lose the request, never
/// the budget invariant.
pub const SHARD_PRE_APPEND: &str = "shard.pre_append";
/// Fault point: a checkpoint's compacted replacement file is written and
/// synced, but the atomic rename over the live WAL has not happened. A kill
/// here must leave the full-history WAL intact (plus a stale tmp to sweep).
pub const LEDGER_CKPT_PRE_RENAME: &str = "ledger.ckpt_pre_rename";
/// Fault point: the checkpoint rename is done but the directory entry may
/// not be synced and the writer handle not yet reopened. Recovery must read
/// either the compacted file or the full history, both with the exact spend.
pub const LEDGER_CKPT_POST_RENAME: &str = "ledger.ckpt_post_rename";
/// Fault point: the daemon has stopped admission and joined its workers but
/// has not yet checkpointed the shard ledgers. A kill here must leave every
/// WAL recoverable with the full drained spend.
pub const DAEMON_PRE_DRAIN_CHECKPOINT: &str = "daemon.pre_drain_checkpoint";

/// One armed kill: abort when `point` is hit for the `nth` time (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSchedule {
    /// The fault-point name to kill at.
    pub point: String,
    /// Which hit (1-based) triggers the abort.
    pub nth: u64,
}

/// Parses a `point:nth` schedule string (the `DPX_CRASH_AT` format).
pub fn parse_schedule(text: &str) -> Result<CrashSchedule, String> {
    let (point, nth) = text
        .rsplit_once(':')
        .ok_or_else(|| format!("crash schedule '{text}' is not 'point:nth'"))?;
    if point.is_empty() {
        return Err(format!("crash schedule '{text}' has an empty point name"));
    }
    let nth: u64 = nth
        .parse()
        .map_err(|_| format!("crash schedule '{text}' has a non-integer hit count"))?;
    if nth == 0 {
        return Err(format!(
            "crash schedule '{text}' must use a 1-based hit count"
        ));
    }
    Ok(CrashSchedule {
        point: point.to_string(),
        nth,
    })
}

fn armed() -> Option<&'static CrashSchedule> {
    static ARMED: OnceLock<Option<CrashSchedule>> = OnceLock::new();
    ARMED
        .get_or_init(|| {
            let text = std::env::var("DPX_CRASH_AT").ok()?;
            match parse_schedule(&text) {
                Ok(schedule) => Some(schedule),
                Err(message) => {
                    // A typo'd schedule must not silently test nothing.
                    eprintln!("dpx-runtime: ignoring DPX_CRASH_AT: {message}");
                    None
                }
            }
        })
        .as_ref()
}

fn counters() -> &'static Mutex<HashMap<String, u64>> {
    static COUNTERS: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Marks one pass through the fault point `name`.
///
/// Increments the point's process-global hit counter, then aborts the process
/// iff the armed crash schedule (from `DPX_CRASH_AT`) names this point and
/// this hit. Unarmed (the production configuration) it is a counter bump.
pub fn hit(name: &str) {
    let count = {
        let mut map = counters()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let slot = map.entry(name.to_string()).or_insert(0);
        *slot += 1;
        *slot
    };
    if let Some(schedule) = armed() {
        if schedule.point == name && schedule.nth == count {
            // stderr is line-buffered and this is the last thing the process
            // does; the marker lets harnesses distinguish an injected crash
            // from an organic abort.
            eprintln!("dpx-runtime: injected crash at {name} (hit {count})");
            std::process::abort();
        }
    }
}

/// How many times `name` has been hit in this process (test observability).
pub fn hits(name: &str) -> u64 {
    counters()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_schedule_roundtrips() {
        let s = parse_schedule("ledger.pre_fsync:3").unwrap();
        assert_eq!(s.point, "ledger.pre_fsync");
        assert_eq!(s.nth, 3);
    }

    #[test]
    fn parse_schedule_rejects_malformed_inputs() {
        assert!(parse_schedule("no-colon").is_err());
        assert!(parse_schedule(":4").is_err());
        assert!(parse_schedule("p:zero").is_err());
        assert!(parse_schedule("p:0").is_err(), "hit counts are 1-based");
    }

    #[test]
    fn unarmed_hits_count_per_point() {
        // The test process has no DPX_CRASH_AT, so hits only count.
        let base_a = hits("test.point_a");
        let base_b = hits("test.point_b");
        hit("test.point_a");
        hit("test.point_a");
        hit("test.point_b");
        assert_eq!(hits("test.point_a"), base_a + 2);
        assert_eq!(hits("test.point_b"), base_b + 1);
        assert_eq!(hits("test.never_hit"), 0);
    }
}
