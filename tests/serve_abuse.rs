//! The adversarial serving battery suite: seeded hostile-traffic storms
//! against the real serving stack, plus the harness's own teeth check.
//!
//! Every battery's traffic shape is a pure function of its seed, and every
//! violation message embeds that seed — a red run here prints everything
//! needed to reproduce it (`dpx_serve::abuse` module docs). The chaos
//! half of the battery (killing the process at ledger fault points while a
//! storm is in flight) lives in `crates/cli/tests/crash_matrix.rs`,
//! because fault points abort the whole process.

use dpx_dp::budget::Epsilon;
use dpx_dp::SharedAccountant;
use dpx_serve::abuse::{
    budget_storm, deadline_storm, gate_storm, interference, replay_flood, run_all,
    shrink_gate_storm, DeadlineStormConfig, InterferenceConfig, NaiveGate, ReplayFloodConfig,
    StormConfig,
};

/// The full battery sweep must hold every invariant, on more than one
/// traffic shape. A failure prints the seed that reproduces it.
#[test]
fn every_battery_passes_on_the_real_stack() {
    for seed in [11, 0xABu64] {
        let report = run_all(seed);
        assert!(
            report.passed(),
            "abuse battery violations (rerun with seed {seed}):\n{}",
            report.violations().join("\n")
        );
        for outcome in &report.outcomes {
            assert_eq!(outcome.seed, seed);
            assert_eq!(
                outcome.admitted + outcome.rejected,
                outcome.total,
                "{}: every request must be answered, never silently dropped",
                outcome.battery
            );
        }
    }
}

/// The storm must actually exercise contention: some small requests are
/// served, some traffic is turned away once the whales drain the cap, and
/// the rejected lines carry the machine-readable budget shape (checked
/// inside the battery).
#[test]
fn budget_storm_produces_both_admissions_and_rejections() {
    let outcome = budget_storm(&StormConfig {
        seed: 7,
        ..Default::default()
    });
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert!(outcome.admitted > 0, "nothing was served");
    assert!(
        outcome.rejected > 0,
        "nothing was rejected — the storm never saturated the cap"
    );
    assert!(outcome.honest_admitted <= outcome.honest_total);
}

/// Replays must be free and byte-stable even when the flood outnumbers the
/// fresh traffic badly.
#[test]
fn heavy_replay_flood_spends_nothing_extra() {
    let outcome = replay_flood(&ReplayFloodConfig {
        seed: 23,
        victims: 4,
        replays: 6,
        fresh: 2,
        ..Default::default()
    });
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert_eq!(outcome.honest_total, 2);
    assert_eq!(
        outcome.honest_admitted, 2,
        "fresh traffic starved by replays"
    );
}

/// Already-expired requests must never reach the ledger, at any worker
/// width.
#[test]
fn deadline_storm_holds_at_odd_worker_widths() {
    for workers in [1, 3] {
        let outcome = deadline_storm(&DeadlineStormConfig {
            seed: 31,
            workers,
            ..Default::default()
        });
        assert!(
            outcome.passed(),
            "workers={workers}: {:?}",
            outcome.violations
        );
        assert_eq!(outcome.honest_admitted, outcome.honest_total);
    }
}

/// A noisy tenant's budget-rejection storm must not break or starve the
/// victim tenant.
#[test]
fn interference_keeps_the_victim_tenant_whole() {
    let outcome = interference(&InterferenceConfig {
        seed: 47,
        ..Default::default()
    });
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert_eq!(outcome.honest_admitted, outcome.honest_total);
}

/// The harness's teeth: the same gate storm that the shipped accountant
/// survives must CATCH the naive check-then-spend gate, the failure must
/// be reproducible from the seed the violation prints, and shrinking must
/// find a smaller still-failing spender count.
#[test]
fn gate_storm_catches_the_naive_gate_and_reproduces_from_its_seed() {
    let seed = 0x0BAD_5EED;
    let first = gate_storm(&NaiveGate::new(0.3, 16), 16, 0.3, seed);
    assert!(!first.passed(), "the naive gate escaped the storm");
    assert!(
        first.violations[0].contains(&format!("seed={seed}")),
        "violation must print its seed: {:?}",
        first.violations
    );

    // Reproduction: the printed seed re-creates the same failing run.
    let again = gate_storm(&NaiveGate::new(0.3, 16), 16, 0.3, seed);
    assert!(!again.passed());
    assert_eq!(first.violations, again.violations, "seeded runs must agree");

    // Shrinking: halving finds a smaller storm that still fails.
    let smallest = shrink_gate_storm(|racers| NaiveGate::new(0.3, racers), 16, 0.3, seed);
    assert!(!smallest.passed());
    assert!(
        smallest.total < 16,
        "shrink kept the full storm: {} spenders",
        smallest.total
    );
}

/// The shipped accountant passes the very storm that catches the naive
/// gate — and when the storm passes, shrinking returns the full-size run
/// untouched.
#[test]
fn atomic_gate_survives_the_storm_the_naive_gate_fails() {
    let make = |_racers| SharedAccountant::with_cap(Epsilon::new(0.3).unwrap());
    let outcome = gate_storm(&make(16), 16, 0.3, 0x0BAD_5EED);
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert_eq!(outcome.admitted, 1, "the cap fits exactly one spend");
    let shrunk = shrink_gate_storm(make, 16, 0.3, 0x0BAD_5EED);
    assert!(shrunk.passed());
    assert_eq!(shrunk.total, 16, "a passing storm must not shrink");
}
