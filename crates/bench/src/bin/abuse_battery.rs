//! Adversarial resilience sweep: the abuse battery's success-rate curve as
//! the adversary's share of the traffic grows.
//!
//! Two parts, both seeded and deterministic in shape:
//!
//! 1. **The full battery** ([`dpx_serve::abuse::run_all`]) must pass — the
//!    curve below is only a result if every accounting invariant held while
//!    it was measured.
//! 2. **The fraction sweep**: a fixed-size request storm where the
//!    adversary's share of the traffic steps through `--fractions`
//!    (default `0,0.25,0.5,0.75,1`). Honest traffic is small ε requests;
//!    adversaries are budget whales. Each point records the honest success
//!    rate, the admission split, and the invariant violations observed —
//!    the committed-results guard requires `cap_exceeded` to be zero at
//!    every fraction.
//!
//! Emits `BENCH_abuse.json` (default `results/BENCH_abuse.json`, override
//! with `--out`).
//!
//! ```text
//! cargo run -p dpx-bench --release --bin abuse_battery -- \
//!     --requests 32 --seed 2026
//! ```

use dpx_bench::{Args, Json};
use dpx_serve::abuse::{budget_storm, run_all, StormConfig};

fn main() {
    let args = Args::parse();
    let total = args.usize("requests", 32);
    let rows = args.usize("rows", 240);
    let workers = args.usize("workers", 8);
    let seed = args.u64("seed", 2026);
    let eps_small = args.f64("eps-small", 0.03);
    let eps_whale = args.f64("eps-whale", 0.72);
    let cap = args.f64("cap", 1.2);
    let fractions = args.f64_list("fractions", &[0.0, 0.25, 0.5, 0.75, 1.0]);
    let out = args.string("out", "results/BENCH_abuse.json");

    eprintln!(
        "# abuse_battery: {total} requests/storm, fractions {fractions:?}, \
         cap {cap}, seed {seed}"
    );

    // Part 1: the full battery. A violation here is a bug, not a data
    // point — refuse to emit a curve measured on a broken stack.
    let report = run_all(seed);
    for outcome in &report.outcomes {
        eprintln!(
            "# battery {:>14}: {}/{} admitted, honest rate {:.2}{}",
            outcome.battery,
            outcome.admitted,
            outcome.total,
            outcome.honest_success_rate(),
            if outcome.passed() { "" } else { "  VIOLATIONS" }
        );
    }
    assert!(
        report.passed(),
        "abuse battery violations (seed {seed}):\n{}",
        report.violations().join("\n")
    );
    let batteries: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            Json::object()
                .field("battery", o.battery)
                .field("total", o.total)
                .field("admitted", o.admitted)
                .field("rejected", o.rejected)
                .field("honest_success_rate", o.honest_success_rate())
                .field("violations", o.violations.len())
        })
        .collect();

    // Part 2: the fraction sweep. Each point is its own storm with its own
    // derived seed, so points are independent and individually replayable.
    let mut points = Vec::new();
    for (i, &fraction) in fractions.iter().enumerate() {
        let whales = ((fraction * total as f64).round() as usize).min(total);
        let small = total - whales;
        let point_seed = seed ^ ((i as u64 + 1) << 32);
        let outcome = budget_storm(&StormConfig {
            seed: point_seed,
            small,
            whales,
            eps_small,
            eps_whale,
            cap,
            workers,
            rows,
        });
        // The sweep tolerates a starved shard at whale-heavy fractions (an
        // all-adversary storm that admits nobody honest is the expected
        // shape, not a bug) — but never an accounting violation.
        let cap_exceeded = outcome
            .violations
            .iter()
            .filter(|v| v.contains("cap exceeded"))
            .count();
        let accounting_violations: Vec<&String> = outcome
            .violations
            .iter()
            .filter(|v| !v.contains("served nothing"))
            .collect();
        assert!(
            accounting_violations.is_empty(),
            "fraction {fraction} (seed {point_seed}) violated accounting:\n{}",
            outcome.violations.join("\n")
        );
        eprintln!(
            "# fraction {fraction:>4}: {small:>2} honest + {whales:>2} whales -> \
             honest rate {:.2}, {} admitted / {} rejected, cap_exceeded {cap_exceeded}",
            outcome.honest_success_rate(),
            outcome.admitted,
            outcome.rejected
        );
        points.push(
            Json::object()
                .field("adversary_fraction", fraction)
                .field("seed", point_seed)
                .field("honest", small)
                .field("whales", whales)
                .field("admitted", outcome.admitted)
                .field("rejected", outcome.rejected)
                .field("honest_admitted", outcome.honest_admitted)
                .field("honest_success_rate", outcome.honest_success_rate())
                .field("cap_exceeded", cap_exceeded),
        );
    }

    let doc = Json::object()
        .field("bench", "abuse_battery")
        .field("host", dpx_bench::host_block())
        .field("requests", total)
        .field("rows", rows)
        .field("workers", workers)
        .field("seed", seed)
        .field("eps_small", eps_small)
        .field("eps_whale", eps_whale)
        .field("cap", cap)
        .field("batteries", batteries)
        .field("points", points);

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, doc.pretty()).expect("write BENCH json");
    eprintln!("# wrote {out}");
}
