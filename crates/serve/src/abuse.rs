//! Adversarial serving batteries: deterministic hostile-traffic harnesses
//! for the concurrent explanation service.
//!
//! The serving layer's privacy story rests on a handful of invariants that
//! only matter under *hostile* load — a cooperative benchmark never probes
//! them. This module drives the resident [`Daemon`] (and, for the
//! interference sweep, [`ExplainService`] directly) with adversarial traffic
//! shapes and checks the invariants with the DP crate's
//! [`AccountantProbe`](dpx_dp::AccountantProbe) (an atomic, one-lock
//! snapshot of a shard's accounting):
//!
//! * [`budget_storm`] — many small requests race whale requests into a
//!   near-empty shard. The cap must hold under every interleaving, every
//!   served request must hold exactly one WAL grant, and the spent total
//!   must equal the sum of served requests' ε.
//! * [`replay_flood`] — already-granted ids are re-sent concurrently to a
//!   fresh daemon that recovered their grants (the crash-resume path abused
//!   as a replay attack) while fresh requests race them. Each id executes
//!   once, byte-identical to its original response, every further replay is
//!   refused `duplicate_id`, and the flood spends **zero** additional ε;
//!   only the fresh requests may move the accountant.
//! * [`deadline_storm`] — already-expired requests (`deadline_ms: 0`) and
//!   deadline-straddling requests race live ones. An expiry before the
//!   grant commits must cost nothing; one after stays spent — so the spent
//!   total must equal the sum of ε over *granted* ids exactly, whichever
//!   way each straddler fell.
//! * [`interference`] — a noisy tenant hammers its own (tiny) budget while
//!   a victim tenant serves normal traffic on a different dataset. The
//!   victim's tail latency must stay within a configured factor of its solo
//!   baseline, and the noisy tenant's storm must never touch the victim's
//!   budget.
//! * [`overload_storm`] — a flood tenant slams the resident daemon's
//!   bounded per-tenant queue at roughly twice the sustainable rate while
//!   an honest tenant serves sequential traffic. The daemon must shed the
//!   excess with typed `overloaded` rejects carrying `retry_after_ms`
//!   hints, keep the honest tail within a factor of its solo baseline, and
//!   spend ε exactly for the requests that were actually served.
//!
//! Every battery is **seeded**: the traffic shape (request ordering, seeds,
//! thread jitter) is a pure function of `config.seed`, every violation
//! message embeds that seed, and re-running the battery with the printed
//! seed reproduces the failing traffic. [`shrink_gate_storm`] shrinks a
//! failing gate storm to its smallest still-failing spender count.
//!
//! The harness needs teeth: a checker that cannot fail is not a check. The
//! [`SpendGate`] trait abstracts the admission primitive under test, and
//! [`NaiveGate`] implements the classic check-then-spend TOCTOU bug —
//! [`gate_storm`] must *fail* on it (and does, which the abuse suite
//! asserts) while [`SharedAccountant`]'s atomic check-and-spend passes.
//!
//! One battery deliberately lives elsewhere: **chaos under storm** (killing
//! the process at ledger fault points mid-storm) cannot run in-process —
//! the fault points abort the whole process, test runner included — so it
//! drives `dpclustx-cli serve-batch` (the daemon on a request file) as a
//! child process from the CLI crate's crash matrix
//! (`crates/cli/tests/crash_matrix.rs`).

use crate::daemon::{Daemon, DaemonConfig, DaemonReply, ReplySink};
use crate::registry::DatasetRegistry;
use crate::request::{reject_reason, ExplainRequest, ExplainResponse};
use crate::service::{reason, ExplainService};
use dpx_data::synth::diabetes;
use dpx_dp::budget::Epsilon;
use dpx_dp::shards::ShardConfig;
use dpx_dp::SharedAccountant;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Barrier, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// SplitMix64: the batteries' own tiny deterministic generator. Traffic
/// shapes must be a pure function of the battery seed, with no dependence
/// on a global RNG's state.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle (the admission order under test).
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (split_mix(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Nearest-rank percentile (q in [0, 100]) of a latency sample.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A registry with one sharded, capped dataset per `(name, cap)` pair —
/// sharded (not plain `register`) so the shard map's
/// [`probes`](dpx_dp::AccountantShards::probes) see every accountant the
/// battery drives.
fn battery_registry(tenants: &[(&str, f64)], rows: usize, seed: u64) -> Arc<DatasetRegistry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let registry = Arc::new(DatasetRegistry::new());
    for (name, cap) in tenants {
        let data = Arc::new(diabetes::spec(2).generate(rows, &mut rng).data);
        registry
            .register_sharded(
                *name,
                data,
                ShardConfig::capped(Epsilon::new(*cap).expect("battery cap")),
            )
            .expect("in-memory shard open cannot fail");
    }
    registry
}

/// An explain request against `dataset` whose total ε is `total_eps`
/// (split evenly over the three stages).
fn sized_request(id: u64, dataset: &str, total_eps: f64, seed: u64) -> ExplainRequest {
    let mut req = ExplainRequest::new(id);
    req.dataset = dataset.to_string();
    req.seed = seed;
    let third = total_eps / 3.0;
    req.eps_cand = third;
    req.eps_comb = third;
    req.eps_hist = Some(third);
    req
}

/// What one battery run observed: admission counts plus every invariant
/// violation (empty = the battery passed). Violation messages embed the
/// battery seed, so a red run is reproducible from its own report.
#[derive(Debug, Clone)]
pub struct BatteryOutcome {
    /// Which battery ran.
    pub battery: &'static str,
    /// The seed the whole traffic shape derives from.
    pub seed: u64,
    /// Requests the battery sent.
    pub total: usize,
    /// Requests answered `ok: true`.
    pub admitted: usize,
    /// Requests answered `ok: false`.
    pub rejected: usize,
    /// The honest (non-adversarial) slice of the traffic.
    pub honest_total: usize,
    /// Honest requests answered `ok: true`.
    pub honest_admitted: usize,
    /// Every invariant violation observed; empty means the battery passed.
    pub violations: Vec<String>,
}

impl BatteryOutcome {
    fn new(battery: &'static str, seed: u64) -> Self {
        BatteryOutcome {
            battery,
            seed,
            total: 0,
            admitted: 0,
            rejected: 0,
            honest_total: 0,
            honest_admitted: 0,
            violations: Vec::new(),
        }
    }

    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fraction of honest requests that were served (1.0 when the battery
    /// has no honest slice).
    pub fn honest_success_rate(&self) -> f64 {
        if self.honest_total == 0 {
            1.0
        } else {
            self.honest_admitted as f64 / self.honest_total as f64
        }
    }

    fn violation(&mut self, message: impl Into<String>) {
        self.violations.push(format!(
            "[{} seed={}] {}",
            self.battery,
            self.seed,
            message.into()
        ));
    }
}

/// The outcomes of one full battery sweep (see [`run_all`]).
#[derive(Debug, Clone)]
pub struct AbuseReport {
    /// The seed every battery in the sweep derived its traffic from.
    pub seed: u64,
    /// Per-battery outcomes, in run order.
    pub outcomes: Vec<BatteryOutcome>,
}

impl AbuseReport {
    /// Whether every battery passed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(BatteryOutcome::passed)
    }

    /// Every violation across the sweep, in battery order.
    pub fn violations(&self) -> Vec<String> {
        self.outcomes
            .iter()
            .flat_map(|o| o.violations.iter().cloned())
            .collect()
    }
}

/// Budget-exhaustion storm shape: `small` honest requests race `whales`
/// budget-draining requests into one capped shard.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Seed of the whole traffic shape.
    pub seed: u64,
    /// Honest small requests.
    pub small: usize,
    /// Adversarial whale requests.
    pub whales: usize,
    /// Per-request ε of a small request.
    pub eps_small: f64,
    /// Per-request ε of a whale.
    pub eps_whale: f64,
    /// The shard's ε cap.
    pub cap: f64,
    /// Daemon worker-pool width the storm runs on.
    pub workers: usize,
    /// Rows in the stormed dataset.
    pub rows: usize,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            seed: 0xD5C1_05F0,
            small: 24,
            whales: 2,
            eps_small: 0.03,
            eps_whale: 0.72,
            cap: 1.2,
            workers: 8,
            rows: 240,
        }
    }
}

/// Runs a budget-exhaustion storm and checks the cap invariants.
///
/// Invariants: the shard probe reports no violation (cap never exceeded,
/// no duplicate WAL grant, no negative accounting); the granted-id set
/// equals the served-id set exactly; the spent total equals the sum of
/// served requests' ε; every rejected line carries reason
/// `budget_exceeded` plus an `eps_remaining` reading.
pub fn budget_storm(config: &StormConfig) -> BatteryOutcome {
    let mut outcome = BatteryOutcome::new("budget_storm", config.seed);
    let registry = battery_registry(&[("storm", config.cap)], config.rows, config.seed);

    let mut state = config.seed;
    let mut requests: Vec<ExplainRequest> = Vec::with_capacity(config.small + config.whales);
    for i in 0..config.small {
        requests.push(sized_request(
            i as u64 + 1,
            "storm",
            config.eps_small,
            split_mix(&mut state),
        ));
    }
    for w in 0..config.whales {
        requests.push(sized_request(
            1_000_000 + w as u64,
            "storm",
            config.eps_whale,
            split_mix(&mut state),
        ));
    }
    shuffle(&mut requests, &mut state);
    let eps_of: BTreeMap<u64, f64> = requests.iter().map(|r| (r.id, r.total_epsilon())).collect();

    let responses = serve_storm(&registry, requests, config.workers, HashSet::new());
    outcome.total = responses.len();
    outcome.honest_total = config.small;
    let mut served_ids: Vec<u64> = Vec::new();
    for response in &responses {
        if response.is_ok() {
            outcome.admitted += 1;
            if response.id < 1_000_000 {
                outcome.honest_admitted += 1;
            }
            served_ids.push(response.id);
        } else {
            outcome.rejected += 1;
            if response.reason.as_deref() != Some(reason::BUDGET_EXCEEDED) {
                outcome.violation(format!(
                    "rejected id {} carries reason {:?}, want budget_exceeded",
                    response.id, response.reason
                ));
            }
            if response.eps_remaining.is_none() {
                outcome.violation(format!(
                    "rejected id {} carries no eps_remaining on a capped shard",
                    response.id
                ));
            }
        }
    }
    if outcome.admitted == 0 {
        outcome.violation("storm served nothing — the shard admitted no request at all");
    }

    let entry = registry.get("storm").expect("registered");
    check_accounting(
        &mut outcome,
        &registry,
        entry.accountant(),
        &served_ids,
        &eps_of,
    );
    outcome
}

/// Serves `requests` on a fresh daemon over `registry`, `workers` wide, and
/// returns every response-class reply. All requests are submitted at once
/// through [`Daemon::handle_request`], so they race on the pool; the queue
/// holds them all and the drain lets every one finish, so admission sheds
/// nothing for lack of room or time. `granted` is the daemon's
/// recovered-grant set (see [`DaemonConfig::granted`]).
fn serve_storm(
    registry: &Arc<DatasetRegistry>,
    requests: Vec<ExplainRequest>,
    workers: usize,
    granted: HashSet<u64>,
) -> Vec<ExplainResponse> {
    let daemon = Daemon::new(
        Arc::clone(registry),
        DaemonConfig {
            workers,
            queue_capacity: requests.len().max(1),
            drain_deadline_ms: 120_000,
            granted,
            ..Default::default()
        },
    );
    let handles = daemon.start();
    let replies = Arc::new(Mutex::new(Vec::new()));
    let sink = collecting_sink(&replies);
    for request in requests {
        daemon.handle_request(request, &sink);
    }
    daemon.drain_and_join(handles);
    let replies = replies.lock().unwrap_or_else(PoisonError::into_inner);
    replies.clone()
}

/// Checks the structural accounting invariants shared by the batteries:
/// probe violations, granted-set equality, and the spent-ε sum.
fn check_accounting(
    outcome: &mut BatteryOutcome,
    registry: &DatasetRegistry,
    accountant: &SharedAccountant,
    expected_granted: &[u64],
    eps_of: &BTreeMap<u64, f64>,
) {
    for violation in registry.shards().probe_violations() {
        outcome.violation(violation);
    }
    let granted = accountant.granted_ids();
    let mut expected: Vec<u64> = expected_granted.to_vec();
    expected.sort_unstable();
    if granted != expected {
        outcome.violation(format!(
            "granted ids {granted:?} do not match served ids {expected:?}"
        ));
    }
    let want_spent: f64 = expected.iter().map(|id| eps_of[id]).sum();
    let spent = accountant.spent();
    if (spent - want_spent).abs() > 1e-9 {
        outcome.violation(format!(
            "spent {spent} does not equal the sum of granted requests' eps {want_spent}"
        ));
    }
}

/// Replay-flood shape: `victims` granted requests are each re-sent
/// `replays` times concurrently, racing `fresh` first-time requests.
#[derive(Debug, Clone)]
pub struct ReplayFloodConfig {
    /// Seed of the whole traffic shape.
    pub seed: u64,
    /// Requests granted before the flood (the replay targets).
    pub victims: usize,
    /// Concurrent re-sends per victim.
    pub replays: usize,
    /// First-time requests racing the replays.
    pub fresh: usize,
    /// The shard's ε cap (generous: the flood must not be masked by
    /// budget rejections).
    pub cap: f64,
    /// Worker-pool width.
    pub workers: usize,
    /// Rows in the dataset.
    pub rows: usize,
}

impl Default for ReplayFloodConfig {
    fn default() -> Self {
        ReplayFloodConfig {
            seed: 0x5EED_F100,
            victims: 6,
            replays: 3,
            fresh: 4,
            cap: 8.0,
            workers: 8,
            rows: 240,
        }
    }
}

/// Runs a duplicate-id replay flood and checks the zero-ε replay
/// invariants.
///
/// The victims are granted on one daemon; the flood then hits a **fresh**
/// daemon that holds their grants as recovered (the resume path), so each
/// victim id is admitted once more and its later replays are duplicates.
///
/// Invariants: each victim id is executed exactly once by the flood, and
/// that answer is byte-identical to the original grant's response; every
/// other replay is refused `duplicate_id`; the flood adds **zero** ε and
/// zero charges beyond the fresh requests' own; the WAL holds exactly one
/// grant per distinct id (the probe's duplicate-grant check); the shard
/// probe reports no violation.
pub fn replay_flood(config: &ReplayFloodConfig) -> BatteryOutcome {
    let mut outcome = BatteryOutcome::new("replay_flood", config.seed);
    let registry = battery_registry(&[("replay", config.cap)], config.rows, config.seed);

    let mut state = config.seed;
    let victims: Vec<ExplainRequest> = (0..config.victims)
        .map(|i| sized_request(i as u64 + 1, "replay", 0.3, split_mix(&mut state)))
        .collect();
    let mut eps_of: BTreeMap<u64, f64> =
        victims.iter().map(|r| (r.id, r.total_epsilon())).collect();

    // Phase 1: grant the victims normally and remember their exact bytes.
    let baseline: BTreeMap<u64, String> =
        serve_storm(&registry, victims.clone(), config.workers, HashSet::new())
            .iter()
            .map(|r| (r.id, r.to_json_line()))
            .collect();
    let entry = registry.get("replay").expect("registered");
    let accountant = entry.accountant();
    let spent_before = accountant.spent();
    let charges_before = accountant.num_charges();
    let granted_ids: HashSet<u64> = accountant.granted_ids().into_iter().collect();
    if granted_ids.len() != config.victims {
        outcome.violation(format!(
            "baseline granted {} victims, want {}",
            granted_ids.len(),
            config.victims
        ));
    }

    // Phase 2: the flood — every victim re-sent `replays` times, shuffled
    // in with fresh requests, all racing on a fresh daemon's worker pool.
    let mut flood: Vec<ExplainRequest> = Vec::new();
    for _ in 0..config.replays {
        flood.extend(victims.iter().cloned());
    }
    for i in 0..config.fresh {
        let req = sized_request(10_000 + i as u64, "replay", 0.3, split_mix(&mut state));
        eps_of.insert(req.id, req.total_epsilon());
        flood.push(req);
    }
    shuffle(&mut flood, &mut state);
    outcome.total = flood.len();
    outcome.honest_total = config.fresh;
    let responses = serve_storm(&registry, flood, config.workers, granted_ids.clone());

    let mut fresh_served: Vec<u64> = Vec::new();
    let mut replays_executed: BTreeMap<u64, usize> = BTreeMap::new();
    for response in &responses {
        if response.is_ok() {
            outcome.admitted += 1;
        } else {
            outcome.rejected += 1;
        }
        if granted_ids.contains(&response.id) {
            if response.reason.as_deref() == Some(reject_reason::DUPLICATE_ID) {
                continue;
            }
            *replays_executed.entry(response.id).or_default() += 1;
            match baseline.get(&response.id) {
                Some(expected) if *expected == response.to_json_line() => {}
                Some(_) => outcome.violation(format!(
                    "replayed id {} diverged from its original response bytes",
                    response.id
                )),
                None => unreachable!("granted ids come from the baseline"),
            }
        } else {
            if response.is_ok() {
                outcome.honest_admitted += 1;
                fresh_served.push(response.id);
            } else {
                outcome.violation(format!(
                    "fresh id {} was rejected under a generous cap: {:?}",
                    response.id,
                    response.outcome.as_ref().err()
                ));
            }
        }
    }

    for id in &granted_ids {
        let executed = replays_executed.get(id).copied().unwrap_or(0);
        if executed != 1 {
            outcome.violation(format!(
                "victim id {id} was executed {executed} times by the flood, want exactly once"
            ));
        }
    }

    // Zero additional ε for the whole flood beyond the fresh requests' own.
    let fresh_eps: f64 = fresh_served.iter().map(|id| eps_of[id]).sum();
    let spent = accountant.spent();
    if (spent - (spent_before + fresh_eps)).abs() > 1e-9 {
        outcome.violation(format!(
            "flood moved spent from {spent_before} to {spent}; only {fresh_eps} of fresh eps was legitimate"
        ));
    }
    if accountant.num_charges() != charges_before + fresh_served.len() {
        outcome.violation(format!(
            "flood moved charges from {charges_before} to {} with only {} fresh grants",
            accountant.num_charges(),
            fresh_served.len()
        ));
    }
    let mut expected: Vec<u64> = granted_ids.iter().copied().chain(fresh_served).collect();
    expected.sort_unstable();
    check_accounting(&mut outcome, &registry, accountant, &expected, &eps_of);
    outcome
}

/// Deadline-storm shape: already-expired and deadline-straddling requests
/// race live ones.
#[derive(Debug, Clone)]
pub struct DeadlineStormConfig {
    /// Seed of the whole traffic shape.
    pub seed: u64,
    /// Requests with no deadline (must all be served).
    pub live: usize,
    /// Requests with `deadline_ms: 0` — already expired at admission, so
    /// they must be turned away before the grant commits, at zero ε.
    pub straddlers: usize,
    /// Requests with a 1 ms deadline — they may expire before or after
    /// their grant commits, and either way the accounting must balance.
    pub racers: usize,
    /// The shard's ε cap (generous enough for every request).
    pub cap: f64,
    /// Worker-pool width.
    pub workers: usize,
    /// Rows in the dataset.
    pub rows: usize,
}

impl Default for DeadlineStormConfig {
    fn default() -> Self {
        DeadlineStormConfig {
            seed: 0xDEAD_11FE,
            live: 6,
            straddlers: 10,
            racers: 6,
            cap: 16.0,
            workers: 8,
            rows: 240,
        }
    }
}

/// Runs a deadline storm and checks the expiry-accounting invariants.
///
/// Invariants: every live request is served; every already-expired request
/// answers `deadline_exceeded` with **no** grant recorded; a racer's grant
/// is kept iff its ε is counted — whichever side of durability its expiry
/// landed on, the spent total equals the sum of ε over granted ids; the
/// shard probe reports no violation.
pub fn deadline_storm(config: &DeadlineStormConfig) -> BatteryOutcome {
    let mut outcome = BatteryOutcome::new("deadline_storm", config.seed);
    let registry = battery_registry(&[("deadline", config.cap)], config.rows, config.seed);

    let mut state = config.seed;
    let mut requests: Vec<ExplainRequest> = Vec::new();
    for i in 0..config.live {
        requests.push(sized_request(
            i as u64 + 1,
            "deadline",
            0.3,
            split_mix(&mut state),
        ));
    }
    for i in 0..config.straddlers {
        let mut req = sized_request(1_000 + i as u64, "deadline", 0.3, split_mix(&mut state));
        req.deadline_ms = Some(0);
        requests.push(req);
    }
    for i in 0..config.racers {
        let mut req = sized_request(2_000 + i as u64, "deadline", 0.15, split_mix(&mut state));
        req.deadline_ms = Some(1);
        requests.push(req);
    }
    shuffle(&mut requests, &mut state);
    let eps_of: BTreeMap<u64, f64> = requests.iter().map(|r| (r.id, r.total_epsilon())).collect();

    let responses = serve_storm(&registry, requests, config.workers, HashSet::new());
    outcome.total = responses.len();
    outcome.honest_total = config.live;
    let entry = registry.get("deadline").expect("registered");
    let accountant = entry.accountant();
    let granted: HashSet<u64> = accountant.granted_ids().into_iter().collect();

    for response in &responses {
        let is_live = response.id < 1_000;
        let is_straddler = (1_000..2_000).contains(&response.id);
        if response.is_ok() {
            outcome.admitted += 1;
            if is_live {
                outcome.honest_admitted += 1;
            }
            if !granted.contains(&response.id) {
                outcome.violation(format!(
                    "served id {} holds no grant in the ledger",
                    response.id
                ));
            }
        } else {
            outcome.rejected += 1;
            if response.reason.as_deref() != Some(reason::DEADLINE_EXCEEDED) {
                outcome.violation(format!(
                    "id {} failed with reason {:?}, want deadline_exceeded (cap is generous)",
                    response.id, response.reason
                ));
            }
            if is_live {
                outcome.violation(format!("live id {} was not served", response.id));
            }
            if is_straddler && granted.contains(&response.id) {
                outcome.violation(format!(
                    "already-expired id {} still recorded a grant — pre-commit expiry must cost nothing",
                    response.id
                ));
            }
        }
    }

    // The one invariant that holds whichever way each racer fell: ε is
    // spent exactly for the granted ids.
    let expected: Vec<u64> = granted.iter().copied().collect();
    check_accounting(&mut outcome, &registry, accountant, &expected, &eps_of);
    outcome
}

/// Mixed-tenant interference shape: a noisy tenant storms its own tiny
/// budget while a victim tenant serves sequential traffic.
#[derive(Debug, Clone)]
pub struct InterferenceConfig {
    /// Seed of the whole traffic shape.
    pub seed: u64,
    /// The victim tenant's sequential requests (latency-measured).
    pub victims: usize,
    /// The noisy tenant's spam requests.
    pub adversaries: usize,
    /// Threads the noisy tenant spams from.
    pub adversary_workers: usize,
    /// The noisy tenant's ε cap — tiny, so its storm degenerates into a
    /// stream of budget rejections hammering the shard path.
    pub noisy_cap: f64,
    /// The victim's storm p99 may be at most this factor over its solo
    /// baseline p99 (after the measurement floor).
    pub fairness_factor: f64,
    /// Latencies below this floor are treated as the floor — sub-floor
    /// baselines would make the factor a coin flip on scheduler noise.
    pub floor_ms: u64,
    /// Rows in each tenant's dataset.
    pub rows: usize,
}

impl Default for InterferenceConfig {
    fn default() -> Self {
        InterferenceConfig {
            seed: 0xFA12_0E55,
            victims: 16,
            adversaries: 48,
            adversary_workers: 4,
            noisy_cap: 0.5,
            fairness_factor: 50.0,
            floor_ms: 40,
            rows: 240,
        }
    }
}

/// Runs a mixed-tenant interference sweep and checks the fairness bound.
///
/// Invariants: every victim request is served in both the solo and the
/// stormed run; the victim's stormed p99 latency stays within
/// `fairness_factor` of its solo baseline (both floored at `floor_ms`);
/// the noisy tenant's storm never touches the victim's budget, and neither
/// shard's probe reports a violation.
pub fn interference(config: &InterferenceConfig) -> BatteryOutcome {
    let mut outcome = BatteryOutcome::new("interference", config.seed);
    let victim_cap = config.victims as f64 * 0.3 + 1.0;

    let mut state = config.seed;
    let victim_requests: Vec<ExplainRequest> = (0..config.victims)
        .map(|i| sized_request(i as u64 + 1, "victim", 0.3, split_mix(&mut state)))
        .collect();
    let spam_requests: Vec<ExplainRequest> = (0..config.adversaries)
        .map(|i| sized_request(50_000 + i as u64, "noisy", 0.3, split_mix(&mut state)))
        .collect();

    let run_victims = |service: &ExplainService| -> (Vec<Duration>, usize) {
        let mut latencies = Vec::with_capacity(victim_requests.len());
        let mut served = 0;
        for request in &victim_requests {
            let start = Instant::now();
            if service.execute(request).is_ok() {
                served += 1;
            }
            latencies.push(start.elapsed());
        }
        latencies.sort_unstable();
        (latencies, served)
    };

    // Solo baseline: the victim alone on a fresh registry.
    let solo_registry = battery_registry(&[("victim", victim_cap)], config.rows, config.seed);
    let solo_service = ExplainService::new(Arc::clone(&solo_registry));
    let (solo_latencies, solo_served) = run_victims(&solo_service);
    if solo_served != config.victims {
        outcome.violation(format!(
            "solo baseline served {solo_served}/{} victims",
            config.victims
        ));
    }

    // The stormed run: same victim traffic, with the noisy tenant spamming
    // its own shard from `adversary_workers` threads the whole time.
    let registry = battery_registry(
        &[("victim", victim_cap), ("noisy", config.noisy_cap)],
        config.rows,
        config.seed,
    );
    let service = ExplainService::new(Arc::clone(&registry));
    let spam_served = Mutex::new(0usize);
    let (storm_latencies, storm_served) = std::thread::scope(|scope| {
        for worker in 0..config.adversary_workers {
            let service = &service;
            let spam_requests = &spam_requests;
            let spam_served = &spam_served;
            scope.spawn(move || {
                let mut served = 0;
                for request in spam_requests
                    .iter()
                    .skip(worker)
                    .step_by(config.adversary_workers.max(1))
                {
                    if service.execute(request).is_ok() {
                        served += 1;
                    }
                }
                *spam_served.lock().unwrap_or_else(PoisonError::into_inner) += served;
            });
        }
        run_victims(&service)
    });
    let spam_served = spam_served
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);

    outcome.total = config.victims + config.adversaries;
    outcome.honest_total = config.victims;
    outcome.honest_admitted = storm_served;
    outcome.admitted = storm_served + spam_served;
    outcome.rejected = outcome.total - outcome.admitted;
    if storm_served != config.victims {
        outcome.violation(format!(
            "victim tenant served {storm_served}/{} under the storm — the noisy tenant broke a victim request",
            config.victims
        ));
    }

    // Fairness: the victim's tail may not degrade beyond the bound.
    let floor = Duration::from_millis(config.floor_ms);
    let solo_p99 = percentile(&solo_latencies, 99.0).max(floor);
    let storm_p99 = percentile(&storm_latencies, 99.0).max(floor);
    if storm_p99.as_secs_f64() > solo_p99.as_secs_f64() * config.fairness_factor {
        outcome.violation(format!(
            "victim p99 degraded beyond the fairness bound: solo {solo_p99:?}, stormed {storm_p99:?}, factor {}",
            config.fairness_factor
        ));
    }

    // Isolation: the storm spent nothing from the victim's budget, and
    // both shards' accounting held.
    let victim_entry = registry.get("victim").expect("registered");
    let victim_acc = victim_entry.accountant();
    let want_victim: f64 = victim_requests
        .iter()
        .map(ExplainRequest::total_epsilon)
        .sum();
    if (victim_acc.spent() - want_victim).abs() > 1e-9 {
        outcome.violation(format!(
            "victim shard spent {} but its own traffic only accounts for {want_victim}",
            victim_acc.spent()
        ));
    }
    for violation in registry.shards().probe_violations() {
        outcome.violation(violation);
    }
    outcome
}

/// Overload-storm shape: a flood tenant slams the resident daemon's
/// bounded queue far faster than the worker pool drains it while an honest
/// tenant serves sequential request-reply traffic.
#[derive(Debug, Clone)]
pub struct OverloadStormConfig {
    /// Seed of the whole traffic shape.
    pub seed: u64,
    /// The honest tenant's sequential requests (latency-measured).
    pub honest: usize,
    /// The flood tenant's unpaced burst.
    pub flood: usize,
    /// Threads the flood bursts from.
    pub flood_workers: usize,
    /// The daemon's worker-pool width.
    pub workers: usize,
    /// The daemon's per-tenant queue bound — small, so the flood overruns
    /// it while the honest lane (depth ≤ 1) never does.
    pub queue_capacity: usize,
    /// The honest storm p99 may be at most this factor over its solo
    /// baseline p99 (after the measurement floor).
    pub fairness_factor: f64,
    /// Latencies below this floor are treated as the floor.
    pub floor_ms: u64,
    /// Rows in each tenant's dataset.
    pub rows: usize,
}

impl Default for OverloadStormConfig {
    fn default() -> Self {
        OverloadStormConfig {
            seed: 0x0E11_0AD5,
            honest: 12,
            flood: 48,
            flood_workers: 4,
            workers: 2,
            queue_capacity: 4,
            fairness_factor: 50.0,
            floor_ms: 40,
            rows: 240,
        }
    }
}

/// A sink that appends every response-class reply to `into`.
fn collecting_sink(into: &Arc<Mutex<Vec<ExplainResponse>>>) -> ReplySink {
    let into = Arc::clone(into);
    Arc::new(move |reply: DaemonReply<'_>| {
        if let DaemonReply::Response(response) = reply {
            into.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(response.clone());
        }
    })
}

/// Submits `requests` to `daemon` one at a time, each waiting for its own
/// reply (request-reply discipline: the tenant's lane depth never exceeds
/// one). Returns sorted latencies and the per-request replies.
fn run_request_reply(
    daemon: &Daemon,
    requests: &[ExplainRequest],
) -> (Vec<Duration>, Vec<ExplainResponse>) {
    let mut latencies = Vec::with_capacity(requests.len());
    let mut records = Vec::with_capacity(requests.len());
    for request in requests {
        let slot: Arc<(Mutex<Option<ExplainResponse>>, Condvar)> =
            Arc::new((Mutex::new(None), Condvar::new()));
        let sink: ReplySink = {
            let slot = Arc::clone(&slot);
            Arc::new(move |reply: DaemonReply<'_>| {
                if let DaemonReply::Response(response) = reply {
                    *slot.0.lock().unwrap_or_else(PoisonError::into_inner) = Some(response.clone());
                    slot.1.notify_all();
                }
            })
        };
        let start = Instant::now();
        daemon.handle_request(request.clone(), &sink);
        let mut guard = slot.0.lock().unwrap_or_else(PoisonError::into_inner);
        while guard.is_none() {
            guard = slot.1.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        latencies.push(start.elapsed());
        records.push(guard.take().expect("reply recorded before wake"));
    }
    latencies.sort_unstable();
    (latencies, records)
}

/// Runs an overload storm against the resident daemon and checks the
/// shedding invariants.
///
/// Invariants: every honest request is served in both the solo and the
/// stormed run (the honest lane never fills, so admission never sheds it);
/// the flood overruns its bounded lane and every shed reply carries reason
/// `overloaded` plus a `retry_after_ms >= 1` hint; the honest stormed p99
/// stays within `fairness_factor` of its solo baseline; the drain summary's
/// served/rejected counters agree with the replies on the wire; and each
/// tenant's shard spent ε exactly for its served requests (probe-checked).
pub fn overload_storm(config: &OverloadStormConfig) -> BatteryOutcome {
    let mut outcome = BatteryOutcome::new("overload_storm", config.seed);
    let honest_cap = config.honest as f64 * 0.3 + 1.0;
    let flood_cap = config.flood as f64 * 0.3 + 1.0;

    let mut state = config.seed;
    let honest_requests: Vec<ExplainRequest> = (0..config.honest)
        .map(|i| sized_request(i as u64 + 1, "honest", 0.3, split_mix(&mut state)))
        .collect();
    let flood_requests: Vec<ExplainRequest> = (0..config.flood)
        .map(|i| sized_request(70_000 + i as u64, "flood", 0.3, split_mix(&mut state)))
        .collect();
    let eps_of: BTreeMap<u64, f64> = honest_requests
        .iter()
        .chain(flood_requests.iter())
        .map(|r| (r.id, r.total_epsilon()))
        .collect();

    let daemon_config = |workers: usize| DaemonConfig {
        workers,
        queue_capacity: config.queue_capacity,
        // Generous: the battery measures backpressure, not drain shedding,
        // so everything still queued at shutdown must be allowed to finish.
        drain_deadline_ms: 120_000,
        ..Default::default()
    };

    // Solo baseline: the honest tenant alone on a fresh daemon.
    let solo_registry = battery_registry(&[("honest", honest_cap)], config.rows, config.seed);
    let solo_daemon = Daemon::new(Arc::clone(&solo_registry), daemon_config(config.workers));
    let solo_workers = solo_daemon.start();
    let (solo_latencies, solo_records) = run_request_reply(&solo_daemon, &honest_requests);
    let solo_summary = solo_daemon.drain_and_join(solo_workers);
    if solo_records.iter().filter(|r| r.is_ok()).count() != config.honest {
        outcome.violation(format!(
            "solo baseline served {}/{} honest requests",
            solo_records.iter().filter(|r| r.is_ok()).count(),
            config.honest
        ));
    }
    for violation in solo_summary.probe_violations {
        outcome.violation(violation);
    }

    // The storm: flood threads burst unpaced into their bounded lane while
    // the honest tenant keeps its request-reply discipline.
    let registry = battery_registry(
        &[("honest", honest_cap), ("flood", flood_cap)],
        config.rows,
        config.seed,
    );
    let daemon = Daemon::new(Arc::clone(&registry), daemon_config(config.workers));
    let worker_handles = daemon.start();
    let flood_records = Arc::new(Mutex::new(Vec::new()));
    let (storm_latencies, honest_records) = std::thread::scope(|scope| {
        for worker in 0..config.flood_workers {
            let daemon = &daemon;
            let flood_requests = &flood_requests;
            let sink = collecting_sink(&flood_records);
            scope.spawn(move || {
                for request in flood_requests
                    .iter()
                    .skip(worker)
                    .step_by(config.flood_workers.max(1))
                {
                    daemon.handle_request(request.clone(), &sink);
                }
            });
        }
        run_request_reply(&daemon, &honest_requests)
    });
    let summary = daemon.drain_and_join(worker_handles);
    let flood_records = flood_records
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();

    outcome.total = config.honest + config.flood;
    outcome.honest_total = config.honest;
    outcome.honest_admitted = honest_records.iter().filter(|r| r.is_ok()).count();
    if outcome.honest_admitted != config.honest {
        outcome.violation(format!(
            "honest tenant served {}/{} under the flood — request-reply traffic must never be shed",
            outcome.honest_admitted, config.honest
        ));
    }
    if flood_records.len() != config.flood {
        outcome.violation(format!(
            "flood got {} replies for {} requests — a request was dropped without an answer",
            flood_records.len(),
            config.flood
        ));
    }
    let mut honest_served: Vec<u64> = Vec::new();
    let mut flood_served: Vec<u64> = Vec::new();
    for record in honest_records.iter().chain(flood_records.iter()) {
        if record.is_ok() {
            outcome.admitted += 1;
            if record.id < 70_000 {
                honest_served.push(record.id);
            } else {
                flood_served.push(record.id);
            }
        } else {
            outcome.rejected += 1;
            if record.reason.as_deref() != Some(reject_reason::OVERLOADED) {
                outcome.violation(format!(
                    "shed id {} carries reason {:?}, want overloaded (caps are generous, no deadlines set)",
                    record.id, record.reason
                ));
            }
            match record.retry_after_ms {
                Some(hint) if hint >= 1 => {}
                other => outcome.violation(format!(
                    "shed id {} carries retry_after_ms {other:?}, want a hint >= 1",
                    record.id
                )),
            }
        }
    }
    if outcome.rejected == 0 {
        outcome.violation(format!(
            "{} flood requests never overloaded a {}-deep lane on {} workers — the storm has no teeth",
            config.flood, config.queue_capacity, config.workers
        ));
    }

    // Fairness: the honest tail may not degrade beyond the bound.
    let floor = Duration::from_millis(config.floor_ms);
    let solo_p99 = percentile(&solo_latencies, 99.0).max(floor);
    let storm_p99 = percentile(&storm_latencies, 99.0).max(floor);
    if storm_p99.as_secs_f64() > solo_p99.as_secs_f64() * config.fairness_factor {
        outcome.violation(format!(
            "honest p99 degraded beyond the fairness bound: solo {solo_p99:?}, stormed {storm_p99:?}, factor {}",
            config.fairness_factor
        ));
    }

    // The daemon's own ledgerized view must agree with the wire.
    if summary.served != outcome.admitted as u64 {
        outcome.violation(format!(
            "drain summary served {} but {} ok replies were observed",
            summary.served, outcome.admitted
        ));
    }
    if summary.rejected != outcome.rejected as u64 {
        outcome.violation(format!(
            "drain summary rejected {} but {} error replies were observed",
            summary.rejected, outcome.rejected
        ));
    }

    // ε is spent exactly for what was served, per tenant, probe-checked.
    let honest_entry = registry.get("honest").expect("registered");
    check_accounting(
        &mut outcome,
        &registry,
        honest_entry.accountant(),
        &honest_served,
        &eps_of,
    );
    let flood_entry = registry.get("flood").expect("registered");
    check_accounting(
        &mut outcome,
        &registry,
        flood_entry.accountant(),
        &flood_served,
        &eps_of,
    );
    outcome
}

/// Runs every in-process battery on `seed`-derived traffic.
pub fn run_all(seed: u64) -> AbuseReport {
    let outcomes = vec![
        budget_storm(&StormConfig {
            seed,
            ..Default::default()
        }),
        replay_flood(&ReplayFloodConfig {
            seed,
            ..Default::default()
        }),
        deadline_storm(&DeadlineStormConfig {
            seed,
            ..Default::default()
        }),
        interference(&InterferenceConfig {
            seed,
            ..Default::default()
        }),
        overload_storm(&OverloadStormConfig {
            seed,
            ..Default::default()
        }),
    ];
    AbuseReport { seed, outcomes }
}

/// The admission primitive a gate storm hammers: can this spend of ε be
/// admitted against the cap?
///
/// [`SharedAccountant`] implements it with its atomic check-and-spend;
/// [`NaiveGate`] implements the TOCTOU bug the atomic form exists to
/// prevent. The abuse suite runs [`gate_storm`] against both: the harness
/// only counts as a check because it *fails* on the broken gate.
pub trait SpendGate: Sync {
    /// Attempts to admit a spend of `eps` for request `id`.
    fn try_admit(&self, id: u64, eps: Epsilon) -> bool;
    /// Total ε admitted so far.
    fn admitted_eps(&self) -> f64;
    /// The gate's ε cap, if any.
    fn gate_cap(&self) -> Option<f64>;
}

impl SpendGate for SharedAccountant {
    fn try_admit(&self, id: u64, eps: Epsilon) -> bool {
        self.try_spend_grant(id, format!("abuse/{id}"), eps).is_ok()
    }

    fn admitted_eps(&self) -> f64 {
        self.spent()
    }

    fn gate_cap(&self) -> Option<f64> {
        self.cap()
    }
}

/// The classic check-then-spend gate: the cap check and the spend are two
/// separate critical sections with a window between them, so racing
/// spenders can all pass the check against the same headroom and jointly
/// breach the cap. Exists purely to prove [`gate_storm`] has teeth.
///
/// The window is a barrier sized to the storm: every racer checks, then
/// waits for all the others before spending. So every racer passes the
/// check against an untouched budget, and the breach — how many were
/// admitted, and the ε they spent — is a function of the storm, not of
/// thread scheduling.
#[derive(Debug)]
pub struct NaiveGate {
    cap: f64,
    spent: Mutex<f64>,
    window: Barrier,
}

impl NaiveGate {
    /// A naive gate with `cap` for a storm of `racers` spenders, each of
    /// which must call [`SpendGate::try_admit`] exactly once.
    pub fn new(cap: f64, racers: usize) -> Self {
        NaiveGate {
            cap,
            spent: Mutex::new(0.0),
            window: Barrier::new(racers),
        }
    }
}

impl SpendGate for NaiveGate {
    fn try_admit(&self, _id: u64, eps: Epsilon) -> bool {
        let fits = {
            let spent = self.spent.lock().unwrap_or_else(PoisonError::into_inner);
            *spent + eps.get() <= self.cap + 1e-12
        };
        // The TOCTOU window: no racer spends until every racer has checked.
        self.window.wait();
        if !fits {
            return false;
        }
        *self.spent.lock().unwrap_or_else(PoisonError::into_inner) += eps.get();
        true
    }

    fn admitted_eps(&self) -> f64 {
        *self.spent.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn gate_cap(&self) -> Option<f64> {
        Some(self.cap)
    }
}

/// Slams `spenders` barrier-aligned threads into `gate`, each trying to
/// admit one spend of `eps`, with seeded per-thread jitter. The invariant:
/// whatever the interleaving, the gate's admitted total never exceeds its
/// cap (within the accountant's own 1e-9 relative tolerance).
pub fn gate_storm<G: SpendGate>(gate: &G, spenders: usize, eps: f64, seed: u64) -> BatteryOutcome {
    let mut outcome = BatteryOutcome::new("gate_storm", seed);
    outcome.total = spenders;
    outcome.honest_total = spenders;
    let eps = Epsilon::new(eps).expect("storm eps");
    let barrier = Barrier::new(spenders);
    let admitted = Mutex::new(0usize);
    std::thread::scope(|scope| {
        for i in 0..spenders {
            let barrier = &barrier;
            let admitted = &admitted;
            let gate = &gate;
            let mut state = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            scope.spawn(move || {
                barrier.wait();
                // Seeded jitter: a few hundred spins of deterministic work
                // so the racers hit the gate in a seed-dependent order.
                let spins = split_mix(&mut state) % 512;
                let mut sink = state;
                for _ in 0..spins {
                    sink = split_mix(&mut sink) | 1;
                }
                if sink != 0 && gate.try_admit(i as u64 + 1, eps) {
                    *admitted.lock().unwrap_or_else(PoisonError::into_inner) += 1;
                }
            });
        }
    });
    outcome.admitted = admitted
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    outcome.honest_admitted = outcome.admitted;
    outcome.rejected = spenders - outcome.admitted;
    if let Some(cap) = gate.gate_cap() {
        let spent = gate.admitted_eps();
        if spent > cap * (1.0 + 1e-9) {
            outcome.violation(format!(
                "{spenders} spenders x {} eps breached the cap: admitted {spent} > cap {cap}",
                eps.get()
            ));
        }
    }
    outcome
}

/// Shrinks a failing gate storm: halves the spender count while the storm
/// still fails, returning the smallest failing outcome found (or the
/// original outcome when the storm passes at full size). `make_gate` gets
/// each storm's spender count. The returned outcome's seed reproduces its
/// run through [`gate_storm`].
pub fn shrink_gate_storm<G: SpendGate>(
    make_gate: impl Fn(usize) -> G,
    spenders: usize,
    eps: f64,
    seed: u64,
) -> BatteryOutcome {
    let mut smallest = gate_storm(&make_gate(spenders), spenders, eps, seed);
    if smallest.passed() {
        return smallest;
    }
    let mut n = spenders;
    while n > 2 {
        let candidate = gate_storm(&make_gate(n / 2), n / 2, eps, seed);
        if candidate.passed() {
            break;
        }
        n /= 2;
        smallest = candidate;
    }
    smallest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_mix_is_deterministic_and_shuffle_permutes() {
        let mut a = 7;
        let mut b = 7;
        let xs: Vec<u64> = (0..8).map(|_| split_mix(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| split_mix(&mut b)).collect();
        assert_eq!(xs, ys);

        let mut items: Vec<u32> = (0..32).collect();
        let mut state = 3;
        shuffle(&mut items, &mut state);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<u32>>());
        assert_ne!(items, sorted, "a 32-element shuffle virtually never fixes");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&sample, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&sample, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&[], 99.0), Duration::ZERO);
    }

    #[test]
    fn naive_gate_fails_the_gate_storm_and_atomic_gate_passes() {
        // Cap fits exactly one spend: any second admission is a breach.
        let naive = gate_storm(&NaiveGate::new(0.3, 8), 8, 0.3, 42);
        assert!(!naive.passed(), "the naive gate must be caught");
        assert!(
            naive.violations[0].contains("seed=42"),
            "{:?}",
            naive.violations
        );

        let atomic = SharedAccountant::with_cap(Epsilon::new(0.3).unwrap());
        let outcome = gate_storm(&atomic, 8, 0.3, 42);
        assert!(outcome.passed(), "{:?}", outcome.violations);
        assert_eq!(outcome.admitted, 1, "exactly one spend fits the cap");
    }
}
