//! Privacy parameters and budget accounting.
//!
//! The paper's Algorithm 2 composes three stages — candidate-set selection
//! (`ε_CandSet`), combination selection (`ε_TopComb`) and histogram release
//! (`ε_Hist`) — via *sequential composition*, while the per-cluster histograms
//! inside the last stage compose in *parallel* because clusters are disjoint
//! (Proposition 2.1). The [`Accountant`] here makes that arithmetic explicit
//! and auditable: every mechanism invocation records a labelled charge, and the
//! total is checked against a cap so an experiment can assert, at run time,
//! that it spent exactly the ε it claims (Theorem 5.1).
//!
//! A served request's whole `ε_CandSet + ε_TopComb + ε_Hist` is one grant
//! against its dataset's long-lived [`SharedAccountant`], which keeps an
//! exact running total in integer units of 10⁻¹² ε (see [`epsilon_units`])
//! rather than a history of charges.

use crate::error::DpError;
use crate::ledger::{CheckpointRecord, GrantRecord, LedgerWriter, Recovery, NO_REQUEST};
use dpx_runtime::faultpoint::{self, SHARD_PRE_APPEND};
use dpx_runtime::{Batcher, CancelToken, Submit};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A validated privacy parameter `ε > 0`.
///
/// `Epsilon` is a unit-like newtype: it can only be constructed through
/// [`Epsilon::new`], which rejects non-finite and non-positive values, so any
/// `Epsilon` reaching a mechanism is known-good.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a new `Epsilon`, rejecting values that are not finite and `> 0`.
    pub fn new(value: f64) -> Result<Self, DpError> {
        if value.is_finite() && value > 0.0 {
            Ok(Epsilon(value))
        } else {
            Err(DpError::InvalidEpsilon(value))
        }
    }

    /// Returns the raw `f64` value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Splits this budget into `parts` equal shares (sequential composition in
    /// reverse: running `parts` mechanisms each with the returned ε composes
    /// back to `self`). `parts == 0` is a [`DpError::InvalidSplit`] — the
    /// split is a library-level precondition, not a caller bug to panic on.
    pub fn split(self, parts: usize) -> Result<Epsilon, DpError> {
        if parts == 0 {
            return Err(DpError::InvalidSplit { parts });
        }
        // Dividing a positive finite float by a positive integer stays positive
        // and finite, so the invariant is preserved without re-validation.
        Ok(Epsilon(self.0 / parts as f64))
    }

    /// Splits this budget by an arbitrary positive fraction in `(0, 1]`.
    pub fn fraction(self, frac: f64) -> Result<Epsilon, DpError> {
        if !(frac.is_finite() && frac > 0.0 && frac <= 1.0) {
            return Err(DpError::InvalidEpsilon(self.0 * frac));
        }
        Epsilon::new(self.0 * frac)
    }

    /// Sequentially composes two budgets: a mechanism spending `self` followed
    /// by one spending `other` spends `self + other` in total.
    pub fn compose(self, other: Epsilon) -> Epsilon {
        Epsilon(self.0 + other.0)
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// The global (L1) sensitivity of a query, per Definition 2.6 of the paper.
///
/// DPClustX's whole design revolves around driving this quantity down to `1`
/// for its quality functions; the mechanisms in this crate scale their noise by
/// it.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Sensitivity(f64);

impl Sensitivity {
    /// Sensitivity 1 — the bound proved for all of DPClustX's low-sensitivity
    /// quality functions (Propositions 4.2, 4.4, 4.6, 4.8, 4.9).
    pub const ONE: Sensitivity = Sensitivity(1.0);

    /// Creates a new `Sensitivity`, rejecting values not finite and `> 0`.
    pub fn new(value: f64) -> Result<Self, DpError> {
        if value.is_finite() && value > 0.0 {
            Ok(Sensitivity(value))
        } else {
            Err(DpError::InvalidSensitivity(value))
        }
    }

    /// Returns the raw `f64` value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

/// One recorded privacy charge.
#[derive(Debug, Clone, PartialEq)]
pub struct Charge {
    /// Human-readable label, e.g. `"stage1/topk/cluster-3"`.
    pub label: String,
    /// ε spent by this charge.
    pub epsilon: f64,
    /// How this charge composes with its siblings.
    pub kind: ChargeKind,
}

/// How a charge composes with other charges in the same accountant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// Sequential composition: ε adds up.
    Sequential,
    /// Parallel composition over disjoint data partitions: within one named
    /// parallel group only the *maximum* ε counts.
    Parallel,
}

/// A position in an [`Accountant`]'s ledger, captured with
/// [`Accountant::mark`]. Passing it back to [`Accountant::charges_since`] or
/// [`Accountant::spent_since`] isolates the charges recorded after the mark —
/// how the engine's observer attributes ε to individual pipeline stages
/// without the accountant having to know about stages.
#[derive(Debug, Clone)]
pub struct LedgerMark {
    /// Number of sequential charges at mark time.
    sequential_len: usize,
    /// Member count per parallel group at mark time (groups are append-only,
    /// so groups beyond this vector's length are entirely new).
    parallel_lens: Vec<usize>,
    /// Total ε spent at mark time.
    spent: f64,
}

/// A privacy-budget accountant with an optional hard cap.
///
/// Charges tagged [`ChargeKind::Sequential`] add up; charges recorded through
/// [`Accountant::charge_parallel`] with the same group name contribute only
/// their maximum (Proposition 2.1, parallel composition). Post-processing is
/// free and therefore simply never recorded.
///
/// # Example
/// ```
/// use dpx_dp::budget::{Accountant, Epsilon};
/// let mut acc = Accountant::with_cap(Epsilon::new(0.3).unwrap());
/// acc.charge("stage1", Epsilon::new(0.1).unwrap()).unwrap();
/// acc.charge_parallel("hist/cluster", "c0", Epsilon::new(0.05).unwrap()).unwrap();
/// acc.charge_parallel("hist/cluster", "c1", Epsilon::new(0.05).unwrap()).unwrap();
/// // Parallel group counts once: total is 0.1 + 0.05, not 0.1 + 0.10.
/// assert!((acc.spent() - 0.15).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Accountant {
    cap: Option<f64>,
    sequential: Vec<Charge>,
    /// `(group, max ε seen, members)`, in group-creation order.
    parallel: Vec<(String, f64, Vec<Charge>)>,
    /// Group name → index into `parallel`. Lookup used to be a linear scan
    /// per charge — O(#groups · #charges) across a per-cluster histogram
    /// release; the map makes each charge O(1) without disturbing the
    /// creation order that `parallel` preserves.
    parallel_index: HashMap<String, usize>,
}

impl Accountant {
    /// Creates an accountant with no cap (pure bookkeeping).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an accountant that rejects charges once the total would exceed
    /// `cap`.
    pub fn with_cap(cap: Epsilon) -> Self {
        Accountant {
            cap: Some(cap.get()),
            ..Self::default()
        }
    }

    /// Total ε spent so far (sequential sum + max of each parallel group).
    pub fn spent(&self) -> f64 {
        let seq: f64 = self.sequential.iter().map(|c| c.epsilon).sum();
        let par: f64 = self.parallel.iter().map(|(_, max, _)| *max).sum();
        // `Sum for f64` folds from an identity of -0.0, so an empty ledger
        // would render as "-0.000000". Adding +0.0 flips only that sign bit;
        // every non-zero total is unchanged.
        seq + par + 0.0
    }

    /// The configured cap, if any.
    pub fn cap(&self) -> Option<f64> {
        self.cap
    }

    /// Headroom under the cap: `cap - spent`, clamped at zero. `None` when
    /// the accountant is uncapped (headroom is unbounded, not zero).
    pub fn remaining(&self) -> Option<f64> {
        self.cap.map(|cap| (cap - self.spent()).max(0.0))
    }

    fn check_cap(&self, extra: f64) -> Result<(), DpError> {
        if let Some(cap) = self.cap {
            let spent = self.spent();
            // A tiny tolerance absorbs float round-off from repeated splits.
            if spent + extra > cap * (1.0 + 1e-9) {
                return Err(DpError::BudgetExceeded {
                    spent,
                    requested: extra,
                    cap,
                });
            }
        }
        Ok(())
    }

    /// Records a sequentially-composing charge.
    pub fn charge(&mut self, label: impl Into<String>, eps: Epsilon) -> Result<(), DpError> {
        self.check_cap(eps.get())?;
        self.sequential.push(Charge {
            label: label.into(),
            epsilon: eps.get(),
            kind: ChargeKind::Sequential,
        });
        Ok(())
    }

    /// Records a charge belonging to the parallel-composition group `group`.
    ///
    /// All members of a group must act on *disjoint* partitions of the data
    /// (e.g. per-cluster histograms); the group then costs only its maximum ε.
    pub fn charge_parallel(
        &mut self,
        group: impl Into<String>,
        member: impl Into<String>,
        eps: Epsilon,
    ) -> Result<(), DpError> {
        let group = group.into();
        let charge = Charge {
            label: member.into(),
            epsilon: eps.get(),
            kind: ChargeKind::Parallel,
        };
        match self.parallel_index.get(&group) {
            Some(&idx) => {
                let extra = (eps.get() - self.parallel[idx].1).max(0.0);
                self.check_cap(extra)?;
                let entry = &mut self.parallel[idx];
                entry.1 = entry.1.max(eps.get());
                entry.2.push(charge);
            }
            None => {
                self.check_cap(eps.get())?;
                self.parallel_index
                    .insert(group.clone(), self.parallel.len());
                self.parallel.push((group, eps.get(), vec![charge]));
            }
        }
        Ok(())
    }

    /// Number of individual charges recorded (for audit output).
    pub fn num_charges(&self) -> usize {
        self.sequential.len() + self.parallel.iter().map(|(_, _, m)| m.len()).sum::<usize>()
    }

    /// Iterates over all sequential charges (audit trail).
    pub fn sequential_charges(&self) -> impl Iterator<Item = &Charge> {
        self.sequential.iter()
    }

    /// Captures the current ledger position for later delta queries.
    pub fn mark(&self) -> LedgerMark {
        LedgerMark {
            sequential_len: self.sequential.len(),
            parallel_lens: self.parallel.iter().map(|(_, _, m)| m.len()).collect(),
            spent: self.spent(),
        }
    }

    /// All individual charges recorded after `mark`, in recording order
    /// (sequential charges first, then new parallel-group members). Labels of
    /// parallel members are qualified as `group/member`.
    pub fn charges_since(&self, mark: &LedgerMark) -> Vec<Charge> {
        let mut out: Vec<Charge> = self
            .sequential
            .iter()
            .skip(mark.sequential_len)
            .cloned()
            .collect();
        for (i, (group, _, members)) in self.parallel.iter().enumerate() {
            let seen = mark.parallel_lens.get(i).copied().unwrap_or(0);
            for c in members.iter().skip(seen) {
                out.push(Charge {
                    label: format!("{group}/{}", c.label),
                    epsilon: c.epsilon,
                    kind: c.kind,
                });
            }
        }
        out
    }

    /// ε spent since `mark` (accounting for parallel-composition maxima, so
    /// deltas over all stages sum to [`Accountant::spent`]).
    pub fn spent_since(&self, mark: &LedgerMark) -> f64 {
        self.spent() - mark.spent
    }

    /// Renders a human-readable audit trail of the spend.
    pub fn audit(&self) -> String {
        let mut out = String::new();
        for c in &self.sequential {
            out.push_str(&format!("  seq  {:<40} ε={}\n", c.label, c.epsilon));
        }
        for (g, max, members) in &self.parallel {
            out.push_str(&format!(
                "  par  {:<40} ε={} (max over {} members)\n",
                g,
                max,
                members.len()
            ));
        }
        out.push_str(&format!("  total ε = {}\n", self.spent()));
        out
    }
}

/// Shard accounting resolution: units per ε (one unit is 10⁻¹² ε).
const UNITS_PER_EPSILON: f64 = 1e12;

/// Converts ε to whole shard units, rounding to the **nearest** unit.
///
/// Every grant is therefore within 5·10⁻¹³ ε of its `f64` value, and
/// decimal and dyadic budgets convert exactly (0.1 → 10¹¹, 0.5 → 5·10¹¹), so
/// three 0.1 grants fill a 0.3 cap exactly even though the `f64` sum
/// `0.1 + 0.1 + 0.1` is `0.30000000000000004`. From then on a shard's sums
/// and cap checks are exact integer arithmetic. An ε that rounds to zero
/// units (below 5·10⁻¹³) or does not fit in a `u64` (about 1.8·10⁷ ε and
/// up) is [`DpError::EpsilonOutOfRange`]: it is never saturated or wrapped.
pub fn epsilon_units(eps: f64) -> Result<u64, DpError> {
    let units = (eps * UNITS_PER_EPSILON).round();
    // `u64::MAX as f64` is 2⁶⁴, one past the largest u64, so `<` keeps the
    // cast exact; NaN fails both comparisons.
    if units >= 1.0 && units < u64::MAX as f64 {
        Ok(units as u64)
    } else {
        Err(DpError::EpsilonOutOfRange(eps))
    }
}

/// The ε value of `units` shard units (the inverse of [`epsilon_units`]).
pub fn units_epsilon(units: u64) -> f64 {
    units as f64 / UNITS_PER_EPSILON
}

/// A cap's units, converted like a grant. A cap outside the representable
/// range clamps *down* (to zero, or to the largest `u64`): a tighter cap is
/// privacy-safe, a looser one would not be.
fn cap_units(cap: Epsilon) -> u64 {
    epsilon_units(cap.get()).unwrap_or(if cap.get() < 1.0 { 0 } else { u64::MAX })
}

/// The mutable state of one [`SharedAccountant`], guarded by its mutex.
#[derive(Debug, Default)]
struct Ledgered {
    /// The cap in units (`None`: uncapped).
    cap: Option<u64>,
    /// Units charged: recovered plus committed this run.
    spent: u64,
    /// Units admitted to the group-commit queue but not yet charged.
    /// Admission reserves against the cap under this same lock, so
    /// concurrent enqueuers cannot jointly breach it; the batch leader
    /// converts the reservation into charges at commit (or releases it on
    /// failure or cancellation-withdrawal).
    pending: u64,
    /// Grants charged (a recovered checkpoint that carries spend counts as
    /// one).
    charges: usize,
    /// Request ids holding durable grants (recovered + accepted this run) —
    /// the skip-set a checkpoint must carry for resume to stay correct. A
    /// B-tree rather than a hash set: ids arrive mostly increasing, so an
    /// insert walks a cache-hot rightmost path however many ids are held
    /// (a hash table of 10⁶ ids outgrows the cache and rehashes them all
    /// at once), and checkpoints and [`SharedAccountant::granted_ids`] get
    /// sorted order without a sort.
    granted: BTreeSet<u64>,
    /// Every grant of an id `granted` already held.
    duplicates: Vec<u64>,
    sink: Option<LedgerWriter>,
    /// Grants appended since the last checkpoint (or since recovery).
    appends_since_checkpoint: u64,
    /// Checkpoint after this many appends (`None`: never automatically).
    checkpoint_every: Option<u64>,
    stats: LedgerStats,
}

impl Ledgered {
    /// Admission: whether `units` more fit alongside everything spent and
    /// reserved. Exact: an uncapped shard's cap is the largest `u64`.
    fn admit(&self, units: u64) -> Result<(), DpError> {
        let cap = self.cap.unwrap_or(u64::MAX);
        let total = self
            .spent
            .checked_add(self.pending)
            .and_then(|t| t.checked_add(units));
        match total {
            Some(total) if total <= cap => Ok(()),
            _ => Err(DpError::BudgetExceeded {
                spent: units_epsilon(self.spent),
                requested: units_epsilon(units),
                cap: units_epsilon(cap),
            }),
        }
    }

    /// Records an admitted grant. Admission checked that `spent + pending`
    /// plus these units fits in a `u64`, so the sum cannot overflow.
    fn record(&mut self, request_id: u64, units: u64) {
        self.spent += units;
        self.charges += 1;
        if request_id != NO_REQUEST && !self.granted.insert(request_id) {
            self.duplicates.push(request_id);
        }
    }

    /// Compacts the attached WAL to `magic + checkpoint` capturing the
    /// current total and granted ids (sorted, duplicates repeated, so equal
    /// states write equal bytes). A compaction failure is recorded in the
    /// stats but does not propagate: the pre-checkpoint WAL still holds the
    /// full history, so nothing is lost — the log just stays long.
    fn checkpoint(&mut self) {
        let mut granted: Vec<u64> = self.granted.iter().copied().collect();
        if !self.duplicates.is_empty() {
            granted.extend(&self.duplicates);
            granted.sort_unstable();
        }
        let record = CheckpointRecord {
            spent_units: self.spent,
            granted,
        };
        if let Some(sink) = self.sink.as_mut() {
            match sink.checkpoint(&record) {
                Ok(()) => {
                    self.appends_since_checkpoint = 0;
                    self.stats.checkpoints_written += 1;
                }
                Err(_) => self.stats.checkpoint_failures += 1,
            }
        }
    }

    /// Records `grants` grant records made durable by **one** fsync: bumps
    /// the per-fsync observability counters and applies the auto-checkpoint
    /// policy — at most one compaction per batch, however large the batch.
    fn note_batch(&mut self, grants: u64) {
        self.stats.grants_appended += grants;
        self.stats.append_batches += 1;
        self.appends_since_checkpoint += grants;
        if let Some(every) = self.checkpoint_every {
            if self.sink.is_some() && self.appends_since_checkpoint >= every {
                self.checkpoint();
            }
        }
    }
}

/// Most grants one group commit appends under a single fsync. The leader
/// never waits for followers: a batch is whatever queued while the previous
/// commit was in flight, capped here so one fsync's latency stays bounded.
const MAX_GRANT_BATCH: usize = 64;

/// Observability counters for a [`SharedAccountant`]'s durable ledger: what
/// recovery had to do, and what the checkpoint policy has done since. All
/// zeros for purely in-memory accountants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Records decoded during recovery (a head checkpoint counts as one).
    pub records_replayed: u64,
    /// Torn-tail bytes recovery truncated.
    pub truncated_bytes: u64,
    /// Whether recovery started from a checkpoint record.
    pub recovered_from_checkpoint: bool,
    /// Grant records that postdated the checkpoint at recovery time (the
    /// checkpoint's age; equals `records_replayed` minus the checkpoint
    /// itself when one was present).
    pub checkpoint_age_at_recovery: u64,
    /// Grants appended since the last checkpoint (or recovery).
    pub appends_since_checkpoint: u64,
    /// Checkpoints successfully written by this accountant.
    pub checkpoints_written: u64,
    /// Checkpoint attempts that failed (the WAL keeps its full history; the
    /// failure costs log length, never ε).
    pub checkpoint_failures: u64,
    /// Grant records made durable by this accountant.
    pub grants_appended: u64,
    /// Fsynced append batches (one per group commit), so
    /// `grants_appended / append_batches` is the grants-per-fsync
    /// amortization factor (checkpoint compactions excluded — they are
    /// policy, not spend).
    pub append_batches: u64,
}

/// A thread-safe ε shard: many requests spending from one dataset's budget,
/// with **check-and-spend as a single atomic operation**.
///
/// Concurrency turns the cap check into a privacy hazard: two requests that
/// each observe `remaining ≥ ε` and *then* record their charge can together
/// push the total past the cap — a classic TOCTOU race that silently breaks
/// the ε-DP guarantee (the composition theorem bounds the *actual* total
/// spend, not what each racer believed it to be). Here every
/// [`try_spend`](SharedAccountant::try_spend) holds the shard lock across
/// both the cap check and the recording (with a durable sink: the
/// reservation the commit later turns into a charge), so there is no window
/// in which a second spender can sneak past a stale check: the sum of all
/// accepted grants can never exceed the cap, for any interleaving.
///
/// The shard keeps a running total, not a history: the spent and reserved ε
/// as integer units (see [`epsilon_units`]), a grant counter, and the set of
/// request ids holding grants. A grant and a cap check therefore cost the
/// same however many grants came before, and the cap check is an exact
/// integer `<=`. Grants compose sequentially; parallel composition is the
/// per-request [`Accountant`]'s business.
///
/// # Durability
///
/// An optional write-ahead sink (see [`crate::ledger`]) can be attached, after
/// which every accepted spend follows the WAL rule *reserve against the cap →
/// append+fsync → record in memory*. The reservation is taken under the one
/// lock; the append and the in-memory charge happen together under it again,
/// in a batch of up to 64 queued grants committed with one fsync (group
/// commit, see [`SharedAccountant::try_spend_grant_cancellable`]). A spend
/// only reports success once its grant is on stable storage, so a
/// crash at any instant leaves the durable record a superset of every spend
/// any caller ever saw accepted — the restart can only over-count
/// (privacy-safe), never forget.
#[derive(Debug, Default)]
pub struct SharedAccountant {
    inner: std::sync::Mutex<Ledgered>,
    /// Leader/follower queue for durable grant spends (see
    /// [`SharedAccountant::try_spend_grant_cancellable`]). Idle without a
    /// sink.
    batcher: Batcher<GrantRecord, Result<(), DpError>>,
}

impl SharedAccountant {
    /// A shared accountant with no cap (pure concurrent bookkeeping).
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared accountant that atomically rejects grants once the total
    /// would exceed `cap` (converted to units like a grant).
    pub fn with_cap(cap: Epsilon) -> Self {
        SharedAccountant {
            inner: std::sync::Mutex::new(Ledgered {
                cap: Some(cap_units(cap)),
                ..Ledgered::default()
            }),
            batcher: Batcher::new(),
        }
    }

    /// Rebuilds an accountant from a recovered ledger and re-attaches the
    /// writer for further durable spends. Replayed grants **bypass the cap**
    /// — they are history, and under-reporting spent ε is the one direction
    /// accounting must never err in. A recovered spend at or above the cap
    /// leaves zero headroom; it does not fail recovery.
    ///
    /// Replay is exact: a head checkpoint seeds the total with its units and
    /// the granted set with its ids, and tail grants add their recorded
    /// units, so the rebuilt [`SharedAccountant::spent`] equals the
    /// pre-crash value to the last unit.
    pub fn recovered(cap: Option<Epsilon>, writer: LedgerWriter, recovery: &Recovery) -> Self {
        // One sort of every recovered id finds the duplicates as adjacent
        // pairs and lets the set bulk-build from sorted input.
        let mut ids: Vec<u64> = recovery.granted_ids().collect();
        ids.sort_unstable();
        let duplicates = ids
            .windows(2)
            .filter(|pair| pair[0] == pair[1])
            .map(|pair| pair[0])
            .collect();
        let ckpt_spent = recovery.checkpoint.as_ref().map_or(0, |c| c.spent_units);
        let inner = Ledgered {
            cap: cap.map(cap_units),
            spent: recovery.spent_units(),
            charges: usize::from(ckpt_spent > 0) + recovery.grants.len(),
            granted: ids.into_iter().collect(),
            duplicates,
            sink: Some(writer),
            appends_since_checkpoint: recovery.checkpoint_age(),
            stats: LedgerStats {
                records_replayed: recovery.records_replayed(),
                truncated_bytes: recovery.truncated_bytes,
                recovered_from_checkpoint: recovery.checkpoint.is_some(),
                checkpoint_age_at_recovery: recovery.checkpoint_age(),
                ..LedgerStats::default()
            },
            ..Ledgered::default()
        };
        SharedAccountant {
            inner: std::sync::Mutex::new(inner),
            batcher: Batcher::new(),
        }
    }

    /// Attaches a durable write-ahead sink: from now on every accepted spend
    /// is fsynced to the ledger file before it is reported accepted.
    pub fn attach_ledger(&self, writer: LedgerWriter) {
        self.lock().sink = Some(writer);
    }

    /// Whether a durable sink is attached.
    pub fn is_durable(&self) -> bool {
        self.lock().sink.is_some()
    }

    /// Every mutation is an admission check followed by integer updates with
    /// no panicking operation in between, so the state is consistent even if
    /// a holder's thread panicked elsewhere between operations; recovering
    /// from poisoning is therefore sound, and keeps one crashed worker from
    /// wedging every other session's budget.
    fn lock(&self) -> std::sync::MutexGuard<'_, Ledgered> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Atomically checks the cap **and** records a grant: either the grant
    /// is accepted and fully recorded, or nothing is recorded and
    /// [`DpError::BudgetExceeded`] is returned. No interleaving of concurrent
    /// `try_spend` calls can overdraw the cap.
    ///
    /// With a durable sink attached the grant is recorded under
    /// [`NO_REQUEST`]; spends that belong to a serving request should use
    /// [`try_spend_grant`](Self::try_spend_grant) so a resumed run can skip
    /// the request by id.
    pub fn try_spend(&self, label: impl Into<String>, eps: Epsilon) -> Result<(), DpError> {
        self.try_spend_grant(NO_REQUEST, label, eps)
    }

    /// [`try_spend`](Self::try_spend) with an explicit request id recorded in
    /// the durable grant: [`try_spend_grant_cancellable`] with no token.
    ///
    /// [`try_spend_grant_cancellable`]: Self::try_spend_grant_cancellable
    pub fn try_spend_grant(
        &self,
        request_id: u64,
        label: impl Into<String>,
        eps: Epsilon,
    ) -> Result<(), DpError> {
        self.try_spend_grant_cancellable(request_id, label, eps, None)
    }

    /// [`try_spend_grant`](Self::try_spend_grant) with cooperative
    /// cancellation.
    ///
    /// The token is consulted **before any ε is reserved**: an
    /// already-cancelled token (e.g. an expired deadline) returns
    /// [`DpError::Cancelled`] having spent nothing. An ε outside the unit
    /// range is [`DpError::EpsilonOutOfRange`], also having spent nothing.
    /// Without a sink the spend is a cap check and an in-memory charge
    /// under the lock; the label is not kept. With one, the spend is
    /// *admitted* (its units reserved against the cap under the accountant
    /// lock — concurrent admissions cannot jointly breach it) and enqueued;
    /// the first enqueuer to find no commit in flight becomes the batch
    /// leader and, without waiting for anyone, commits up to 64 queued
    /// grants with **one** append+fsync. Every spend returns only after its
    /// own record is durable — success implies durable, and a failed fsync
    /// rejects every spend of its batch with [`DpError::LedgerWrite`].
    ///
    /// A token that cancels while the grant is still **queued** withdraws it
    /// (reservation released, nothing spent). Once the leader has drained the
    /// grant the commit is in flight and can no longer be withdrawn; the call
    /// then reports the commit's outcome — a cancellation observed *after* a
    /// durable commit is the caller's to handle (the ε is spent; grants are
    /// never refunded).
    pub fn try_spend_grant_cancellable(
        &self,
        request_id: u64,
        label: impl Into<String>,
        eps: Epsilon,
        cancel: Option<&CancelToken>,
    ) -> Result<(), DpError> {
        if let Some(reason) = cancel.and_then(CancelToken::cancel_reason) {
            return Err(DpError::Cancelled { reason });
        }
        let units = epsilon_units(eps.get())?;
        // Admission: reserve against the cap under the accountant lock, then
        // release it before queueing so the leader can take it for the commit.
        {
            let mut inner = self.lock();
            inner.admit(units)?;
            if inner.sink.is_none() {
                inner.record(request_id, units);
                return Ok(());
            }
            inner.pending += units;
        }
        let grant = GrantRecord {
            request_id,
            units,
            label: label.into(),
        };
        match self
            .batcher
            .submit(grant, MAX_GRANT_BATCH, cancel, |batch| {
                self.commit_batch(batch)
            }) {
            Submit::Done(result) => result,
            Submit::Cancelled { item, reason } => {
                // Withdrawn before the leader drained it: release the
                // reservation — nothing was appended, nothing spent.
                self.lock().pending -= item.units;
                Err(DpError::Cancelled { reason })
            }
        }
    }

    /// The batch leader's commit: one append+fsync for the whole batch, then
    /// in-memory charges. Runs under the accountant lock, so checkpoints
    /// serialize against it.
    fn commit_batch(&self, batch: Vec<GrantRecord>) -> Vec<Result<(), DpError>> {
        let mut inner = self.lock();
        faultpoint::hit(SHARD_PRE_APPEND);
        // Admission only enqueues with a sink, and a sink is never detached.
        let append = inner
            .sink
            .as_mut()
            .expect("queued grants imply a sink")
            .append_all(&batch);
        // The reservation resolves either way: into charges on success,
        // released on failure. Admission bounded the reserved sum.
        inner.pending -= batch.iter().map(|g| g.units).sum::<u64>();
        match append {
            Err(e) => {
                let message = e.to_string();
                batch
                    .iter()
                    .map(|_| {
                        Err(DpError::LedgerWrite {
                            message: message.clone(),
                        })
                    })
                    .collect()
            }
            Ok(()) => {
                // Cap-bypassing record: the grant is already durable, and a
                // durable grant must be counted unconditionally — admission
                // did the cap check, and replay would count it.
                for grant in &batch {
                    inner.record(grant.request_id, grant.units);
                }
                inner.note_batch(batch.len() as u64);
                batch.iter().map(|_| Ok(())).collect()
            }
        }
    }

    /// Total ε spent so far (exact units, rendered as `f64`).
    pub fn spent(&self) -> f64 {
        units_epsilon(self.lock().spent)
    }

    /// Headroom under the cap, clamped at zero (`None` when uncapped).
    pub fn remaining(&self) -> Option<f64> {
        let inner = self.lock();
        inner
            .cap
            .map(|cap| units_epsilon(cap.saturating_sub(inner.spent)))
    }

    /// The configured cap, if any (in whole units, rendered as `f64`).
    pub fn cap(&self) -> Option<f64> {
        self.lock().cap.map(units_epsilon)
    }

    /// Number of grants charged.
    pub fn num_charges(&self) -> usize {
        self.lock().charges
    }

    /// Request ids holding grants (recovered from the ledger plus accepted
    /// this run), sorted — the resume skip-set.
    pub fn granted_ids(&self) -> Vec<u64> {
        self.lock().granted.iter().copied().collect()
    }

    /// Point-in-time ledger observability counters (see [`LedgerStats`]).
    pub fn ledger_stats(&self) -> LedgerStats {
        let inner = self.lock();
        LedgerStats {
            appends_since_checkpoint: inner.appends_since_checkpoint,
            ..inner.stats
        }
    }

    /// Sets the auto-checkpoint policy: after every `every` durable appends
    /// the WAL is compacted to a single checkpoint record (`None` disables).
    /// The compaction happens inside the spend's critical section, so the
    /// checkpoint always snapshots a consistent accountant state.
    pub fn set_checkpoint_every(&self, every: Option<u64>) {
        self.lock().checkpoint_every = every;
    }

    /// Compacts the attached WAL to a checkpoint of the current state right
    /// now, regardless of policy. Returns [`DpError::LedgerWrite`] if the
    /// compaction failed (the WAL then still holds its full history — a
    /// checkpoint failure costs log length, never ε). No-op without a sink.
    pub fn checkpoint_now(&self) -> Result<(), DpError> {
        let mut inner = self.lock();
        if inner.sink.is_none() {
            return Ok(());
        }
        let failures_before = inner.stats.checkpoint_failures;
        inner.checkpoint();
        if inner.stats.checkpoint_failures > failures_before {
            return Err(DpError::LedgerWrite {
                message: "checkpoint compaction failed; WAL keeps full history".to_string(),
            });
        }
        Ok(())
    }

    /// A consistency probe of the accountant, read under **one** critical
    /// section — the adversarial harness's view. Reading `spent()` and
    /// `granted_ids()` as two calls can pair a spend total with the grant
    /// set of a different instant and report a phantom violation; the probe
    /// can't.
    pub fn probe(&self) -> AccountantProbe {
        let inner = self.lock();
        let mut duplicate_grant_ids = inner.duplicates.clone();
        duplicate_grant_ids.sort_unstable();
        duplicate_grant_ids.dedup();
        AccountantProbe {
            spent_units: inner.spent,
            cap_units: inner.cap,
            pending_units: inner.pending,
            num_charges: inner.charges,
            grants: inner.granted.len() + inner.duplicates.len(),
            duplicate_grant_ids,
        }
    }
}

/// A point-in-time invariant snapshot of one [`SharedAccountant`], captured
/// atomically by [`SharedAccountant::probe`]. The abuse batteries call
/// [`AccountantProbe::violations`] mid-storm and after settling; any
/// non-empty result is a privacy-accounting bug, not load.
#[derive(Debug, Clone, PartialEq)]
pub struct AccountantProbe {
    /// Units charged.
    pub spent_units: u64,
    /// The configured cap in units, if any.
    pub cap_units: Option<u64>,
    /// Units reserved in the group-commit queue but not yet charged.
    pub pending_units: u64,
    /// Grants charged.
    pub num_charges: usize,
    /// Request-id grants recorded (recovered + this run).
    pub grants: usize,
    /// Request ids holding more than one grant — always a violation: a
    /// request's ε is reserved exactly once, and replays must ride the
    /// original grant.
    pub duplicate_grant_ids: Vec<u64>,
}

impl AccountantProbe {
    /// Whether the recorded spend plus queued reservations exceeds the cap —
    /// the admission rule's exact integer comparison.
    pub fn cap_exceeded(&self) -> bool {
        self.cap_units.is_some_and(|cap| {
            self.spent_units
                .checked_add(self.pending_units)
                .is_none_or(|total| total > cap)
        })
    }

    /// Every invariant this snapshot violates, rendered for a failure
    /// report. Empty means the accountant looked consistent at the probed
    /// instant.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.cap_exceeded() {
            out.push(format!(
                "cap exceeded: spent {} + pending {} > cap {:?} (units of 1e-12 ε)",
                self.spent_units, self.pending_units, self.cap_units
            ));
        }
        if !self.duplicate_grant_ids.is_empty() {
            out.push(format!(
                "duplicate WAL grants for request ids {:?}",
                self.duplicate_grant_ids
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_rejects_bad_values() {
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-1.0).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::new(1e-12).is_ok());
    }

    #[test]
    fn epsilon_split_and_compose_roundtrip() {
        let e = Epsilon::new(0.9).unwrap();
        let part = e.split(3).unwrap();
        assert!((part.get() - 0.3).abs() < 1e-15);
        let back = part.compose(part).compose(part);
        assert!((back.get() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn epsilon_split_zero_is_typed_error() {
        // Regression: this used to `assert!` inside the library; a malformed
        // request could bring down a whole serving process instead of
        // surfacing a per-request error.
        let err = Epsilon::new(1.0).unwrap().split(0).unwrap_err();
        assert_eq!(err, DpError::InvalidSplit { parts: 0 });
        assert!(err.to_string().contains("0 parts"));
    }

    #[test]
    fn epsilon_fraction_validates() {
        let e = Epsilon::new(1.0).unwrap();
        assert!(e.fraction(0.5).is_ok());
        assert!(e.fraction(0.0).is_err());
        assert!(e.fraction(1.5).is_err());
        assert!(e.fraction(f64::NAN).is_err());
    }

    #[test]
    fn sensitivity_rejects_bad_values() {
        assert!(Sensitivity::new(0.0).is_err());
        assert!(Sensitivity::new(-3.0).is_err());
        assert!(Sensitivity::new(f64::NAN).is_err());
        assert_eq!(Sensitivity::ONE.get(), 1.0);
    }

    #[test]
    fn accountant_sequential_sums() {
        let mut acc = Accountant::new();
        acc.charge("a", Epsilon::new(0.1).unwrap()).unwrap();
        acc.charge("b", Epsilon::new(0.2).unwrap()).unwrap();
        assert!((acc.spent() - 0.3).abs() < 1e-12);
        assert_eq!(acc.num_charges(), 2);
    }

    #[test]
    fn accountant_parallel_takes_max() {
        let mut acc = Accountant::new();
        acc.charge_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        acc.charge_parallel("hist", "c1", Epsilon::new(0.07).unwrap())
            .unwrap();
        acc.charge_parallel("hist", "c2", Epsilon::new(0.02).unwrap())
            .unwrap();
        assert!((acc.spent() - 0.07).abs() < 1e-12);
        assert_eq!(acc.num_charges(), 3);
    }

    #[test]
    fn accountant_two_parallel_groups_are_sequential_between_them() {
        let mut acc = Accountant::new();
        acc.charge_parallel("g1", "a", Epsilon::new(0.1).unwrap())
            .unwrap();
        acc.charge_parallel("g2", "b", Epsilon::new(0.2).unwrap())
            .unwrap();
        assert!((acc.spent() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn accountant_enforces_cap() {
        let mut acc = Accountant::with_cap(Epsilon::new(0.3).unwrap());
        acc.charge("a", Epsilon::new(0.2).unwrap()).unwrap();
        let err = acc.charge("b", Epsilon::new(0.2).unwrap()).unwrap_err();
        match err {
            DpError::BudgetExceeded { spent, cap, .. } => {
                assert!((spent - 0.2).abs() < 1e-12);
                assert!((cap - 0.3).abs() < 1e-12);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // The failed charge must not have been recorded.
        assert!((acc.spent() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn accountant_cap_parallel_only_charges_increment() {
        let mut acc = Accountant::with_cap(Epsilon::new(0.1).unwrap());
        for i in 0..100 {
            // 100 parallel members at ε=0.1 fit exactly: only the max counts.
            acc.charge_parallel("h", format!("m{i}"), Epsilon::new(0.1).unwrap())
                .unwrap();
        }
        assert!((acc.spent() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn accountant_cap_tolerates_split_roundoff() {
        // ε/3 three times must re-compose to ε within the cap, despite float error.
        let cap = Epsilon::new(0.1).unwrap();
        let mut acc = Accountant::with_cap(cap);
        let part = cap.split(3).unwrap();
        for i in 0..3 {
            acc.charge(format!("p{i}"), part).unwrap();
        }
    }

    #[test]
    fn shared_accountant_spends_atomically_across_threads() {
        // 16 threads race 0.1-charges against a 0.5 cap: exactly 5 must be
        // accepted, and the ledger must record each accepted spend in full.
        let acc = SharedAccountant::with_cap(Epsilon::new(0.5).unwrap());
        let accepted = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..16 {
                let acc = &acc;
                let accepted = &accepted;
                scope.spawn(move || {
                    if acc
                        .try_spend(format!("t{t}"), Epsilon::new(0.1).unwrap())
                        .is_ok()
                    {
                        accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        let n = accepted.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(n, 5, "cap 0.5 admits exactly five 0.1 spends");
        assert_eq!(acc.num_charges(), n);
        assert_eq!(acc.spent(), 0.5);
    }

    #[test]
    fn shared_accountant_rejection_records_nothing() {
        let acc = SharedAccountant::with_cap(Epsilon::new(0.2).unwrap());
        acc.try_spend("fits", Epsilon::new(0.15).unwrap()).unwrap();
        let err = acc
            .try_spend("overdraws", Epsilon::new(0.15).unwrap())
            .unwrap_err();
        assert!(matches!(err, DpError::BudgetExceeded { .. }));
        // ε a shard cannot count exactly is refused before the cap check.
        for eps in [1e-13, 2e7, f64::MAX] {
            let err = acc.try_spend("unaccountable", Epsilon::new(eps).unwrap());
            assert_eq!(err, Err(DpError::EpsilonOutOfRange(eps)));
        }
        assert_eq!(acc.num_charges(), 1);
        assert_eq!(acc.spent(), 0.15);
        assert_eq!(acc.probe().pending_units, 0);
    }

    #[test]
    fn epsilon_units_round_to_nearest_and_convert_decimals_exactly() {
        for k in 1..=200_000u64 {
            let eps = k as f64 / 20_000.0;
            assert_eq!(epsilon_units(eps), Ok(k * 50_000_000), "ε = {eps}");
        }
        // The f64 sum 0.30000000000000004 rounds to the unit sum 3·10¹¹.
        assert_eq!(epsilon_units(0.1 + 0.1 + 0.1), Ok(300_000_000_000));
        assert_eq!(epsilon_units(4e-13), Err(DpError::EpsilonOutOfRange(4e-13)));
        assert_eq!(epsilon_units(6e-13), Ok(1));
        assert!(epsilon_units(1.8e7).is_ok());
        assert!(epsilon_units(1.9e7).is_err());
        assert!(epsilon_units(f64::NAN).is_err());
        assert_eq!(units_epsilon(500_000_000_000), 0.5);
    }

    #[test]
    fn spend_landing_exactly_on_the_cap_is_admitted_and_one_unit_more_is_not() {
        // Three 0.1 grants fill a 0.3 cap, although 0.1 + 0.1 + 0.1 > 0.3 in
        // f64: the gate compares integer units.
        let acc = SharedAccountant::with_cap(Epsilon::new(0.3).unwrap());
        for i in 0..3 {
            acc.try_spend(format!("g{i}"), Epsilon::new(0.1).unwrap())
                .unwrap();
        }
        assert_eq!(acc.remaining(), Some(0.0));
        let probe = acc.probe();
        assert_eq!(probe.spent_units, probe.cap_units.unwrap());
        assert!(!probe.cap_exceeded(), "on the cap is within it");
        assert!(probe.violations().is_empty());
        let one_unit = Epsilon::new(units_epsilon(1)).unwrap();
        assert!(matches!(
            acc.try_spend("one unit more", one_unit),
            Err(DpError::BudgetExceeded { .. })
        ));
        // The probe applies the gate's rule: one unit past the cap, in spend
        // or in reservation, is a violation.
        let over = AccountantProbe {
            spent_units: probe.spent_units + 1,
            ..probe.clone()
        };
        assert!(over.cap_exceeded());
        assert!(over.violations()[0].contains("cap exceeded"));
        let reserved = AccountantProbe {
            pending_units: 1,
            ..probe
        };
        assert!(reserved.cap_exceeded());
    }

    #[test]
    fn recovered_duplicate_grant_is_reported_by_the_probe() {
        let path = wal_path("duplicate.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        let units = epsilon_units(0.1).unwrap();
        for id in [5, 6, 5] {
            writer.append(&GrantRecord::for_request(id, units)).unwrap();
        }
        drop(writer);
        for generation in 0..2 {
            let (writer, recovery) = LedgerWriter::open(&path).unwrap();
            let acc = SharedAccountant::recovered(None, writer, &recovery);
            let probe = acc.probe();
            assert_eq!(
                probe.duplicate_grant_ids,
                vec![5],
                "generation {generation}"
            );
            assert_eq!(probe.grants, 3);
            assert!(probe.violations()[0].contains("duplicate"));
            assert_eq!(acc.granted_ids(), vec![5, 6]);
            // A checkpoint keeps the duplicate, so the next recovery still
            // reports it.
            acc.checkpoint_now().unwrap();
        }
    }

    #[test]
    fn ledger_mark_isolates_stage_charges() {
        let mut acc = Accountant::new();
        acc.charge("stage1", Epsilon::new(0.1).unwrap()).unwrap();
        let mark = acc.mark();
        assert!(acc.charges_since(&mark).is_empty());
        assert_eq!(acc.spent_since(&mark), 0.0);

        acc.charge("stage2", Epsilon::new(0.2).unwrap()).unwrap();
        acc.charge_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        acc.charge_parallel("hist", "c1", Epsilon::new(0.05).unwrap())
            .unwrap();
        let delta = acc.charges_since(&mark);
        assert_eq!(delta.len(), 3);
        assert_eq!(delta[0].label, "stage2");
        assert_eq!(delta[1].label, "hist/c0");
        assert_eq!(delta[2].label, "hist/c1");
        // Parallel group counts once: 0.2 + max(0.05, 0.05).
        assert!((acc.spent_since(&mark) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ledger_mark_sees_new_members_of_old_parallel_groups() {
        let mut acc = Accountant::new();
        acc.charge_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        let mark = acc.mark();
        acc.charge_parallel("hist", "c1", Epsilon::new(0.07).unwrap())
            .unwrap();
        let delta = acc.charges_since(&mark);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].label, "hist/c1");
        // The max rose from 0.05 to 0.07 → delta is the increment only.
        assert!((acc.spent_since(&mark) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn stage_deltas_sum_to_total_spend() {
        let mut acc = Accountant::new();
        let m0 = acc.mark();
        acc.charge("a", Epsilon::new(0.1).unwrap()).unwrap();
        let m1 = acc.mark();
        acc.charge_parallel("g", "x", Epsilon::new(0.3).unwrap())
            .unwrap();
        let m2 = acc.mark();
        acc.charge("b", Epsilon::new(0.2).unwrap()).unwrap();
        let total = acc.spent_since(&m0);
        let parts = acc.spent_since(&m0) - acc.spent_since(&m1)
            + (acc.spent_since(&m1) - acc.spent_since(&m2))
            + acc.spent_since(&m2);
        assert!((parts - total).abs() < 1e-12);
        assert!((total - 0.6).abs() < 1e-12);
    }

    #[test]
    fn remaining_reports_headroom_and_clamps() {
        let acc = SharedAccountant::with_cap(Epsilon::new(0.5).unwrap());
        assert_eq!(acc.remaining(), Some(0.5));
        acc.try_spend("a", Epsilon::new(0.3).unwrap()).unwrap();
        assert!((acc.remaining().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(SharedAccountant::new().remaining(), None);
    }

    #[test]
    fn durable_spends_survive_recovery_and_skip_by_request_id() {
        let path = wal_path("durable.wal");

        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert!(recovery.grants.is_empty());
        let acc = SharedAccountant::recovered(Some(Epsilon::new(0.5).unwrap()), writer, &recovery);
        assert!(acc.is_durable());
        acc.try_spend_grant(1, "request/1", Epsilon::new(0.3).unwrap())
            .unwrap();
        // Cap rejection appends nothing to the durable log.
        assert!(acc
            .try_spend_grant(2, "request/2", Epsilon::new(0.3).unwrap())
            .is_err());
        acc.try_spend("session", Epsilon::new(0.1).unwrap())
            .unwrap();
        drop(acc);

        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.grants.len(), 2);
        assert_eq!(recovery.grants[0].request_id, 1);
        assert_eq!(recovery.grants[1].request_id, NO_REQUEST);
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(0.5).unwrap()), writer, &recovery);
        assert!((resumed.spent() - 0.4).abs() < 1e-12);
        assert!((resumed.remaining().unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(resumed.granted_ids(), vec![1]);
        let stats = resumed.ledger_stats();
        assert_eq!(stats.records_replayed, 2);
        assert!(!stats.recovered_from_checkpoint);
        // The replayed spend still gates new grants against the cap.
        assert!(resumed
            .try_spend_grant(3, "request/3", Epsilon::new(0.2).unwrap())
            .is_err());
        resumed
            .try_spend_grant(3, "request/3", Epsilon::new(0.1).unwrap())
            .unwrap();
    }

    #[test]
    fn replay_bypasses_cap_but_blocks_new_spends() {
        let path = wal_path("overcap.wal");
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        let units = epsilon_units(0.4).unwrap();
        writer.append(&GrantRecord::for_request(1, units)).unwrap();
        writer.append(&GrantRecord::for_request(2, units)).unwrap();
        drop(writer);

        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        // Recovered spend 0.8 exceeds the 0.5 cap: replay must not fail, but
        // headroom is zero and any new spend is rejected.
        let acc = SharedAccountant::recovered(Some(Epsilon::new(0.5).unwrap()), writer, &recovery);
        assert_eq!(acc.spent(), 0.8);
        assert_eq!(acc.remaining(), Some(0.0));
        assert!(acc.try_spend("more", Epsilon::new(0.01).unwrap()).is_err());
    }

    /// A crash+recover chain through checkpoints reproduces the live
    /// accountant's spend to the last unit.
    #[test]
    fn checkpointed_recovery_is_bit_exact_with_live_accountant() {
        let path = wal_path("bitexact.wal");
        // 0.1 and 0.3 are not exactly representable: their f64 sums drift,
        // their unit sums do not.
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        for (id, eps) in [(1, 0.1), (2, 0.3), (3, 0.1)] {
            acc.try_spend_grant(id, format!("request/{id}"), Epsilon::new(eps).unwrap())
                .unwrap();
        }
        acc.checkpoint_now().unwrap();
        acc.try_spend("session", Epsilon::new(0.7).unwrap())
            .unwrap();
        for (id, eps) in [(4, 0.2), (5, 0.1)] {
            acc.try_spend_grant(id, format!("request/{id}"), Epsilon::new(eps).unwrap())
                .unwrap();
        }
        assert_eq!(acc.spent(), 1.5);
        let live_bits = acc.spent().to_bits();
        let stats = acc.ledger_stats();
        assert_eq!(stats.checkpoints_written, 1);
        assert_eq!(stats.appends_since_checkpoint, 3);
        drop(acc);

        // "Crash": recover from the checkpointed WAL.
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert!(recovery.checkpoint.is_some());
        assert_eq!(recovery.checkpoint_age(), 3);
        assert_eq!(recovery.spent().to_bits(), live_bits, "Recovery::spent");
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        assert_eq!(resumed.spent().to_bits(), live_bits, "replayed accountant");
        assert_eq!(resumed.granted_ids(), vec![1, 2, 3, 4, 5]);

        // Checkpoint again post-recovery and recover once more: the chain of
        // checkpoints stays exact, and equal states write equal bytes.
        resumed
            .try_spend_grant(6, "request/6", Epsilon::new(0.1).unwrap())
            .unwrap();
        let live_bits = resumed.spent().to_bits();
        resumed.checkpoint_now().unwrap();
        let first = std::fs::read(&path).unwrap();
        resumed.checkpoint_now().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first, "deterministic bytes");
        drop(resumed);
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.records_replayed(), 1, "fully compacted");
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        assert_eq!(resumed.spent().to_bits(), live_bits, "second generation");
    }

    #[test]
    fn auto_checkpoint_policy_compacts_the_wal() {
        let path = wal_path("autockpt.wal");
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        acc.set_checkpoint_every(Some(3));
        for id in 1..=7u64 {
            acc.try_spend_grant(id, format!("request/{id}"), Epsilon::new(0.1).unwrap())
                .unwrap();
        }
        let stats = acc.ledger_stats();
        assert_eq!(stats.checkpoints_written, 2, "after the 3rd and 6th grant");
        assert_eq!(
            stats.appends_since_checkpoint, 1,
            "the 7th is post-compaction"
        );
        let spent_bits = acc.spent().to_bits();
        drop(acc);

        let (_, recovery) = LedgerWriter::open(&path).unwrap();
        // 1 checkpoint + the single post-checkpoint grant, not 7 records.
        assert_eq!(recovery.records_replayed(), 2);
        assert_eq!(recovery.spent().to_bits(), spent_bits);
        let mut ids: Vec<u64> = recovery.granted_ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=7).collect::<Vec<u64>>());
    }

    fn wal_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpx-budget-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Takes the accountant's commit leadership, runs `release` (which lets
    /// the spenders go), and keeps leading until `grants` spends of 0.1 ε
    /// have been admitted behind it. They pile up in the queue meanwhile, so
    /// the next leader commits them together: a forced batch, with no wait
    /// in the commit path itself.
    fn lead_until_admitted(acc: &SharedAccountant, grants: u64, release: impl FnOnce()) {
        let placeholder = GrantRecord::for_request(NO_REQUEST, 0);
        let target = grants * epsilon_units(0.1).unwrap();
        let mut release = Some(release);
        let out = acc
            .batcher
            .submit(placeholder, MAX_GRANT_BATCH, None, |batch| {
                release.take().expect("the placeholder leads once")();
                while acc.probe().pending_units < target {
                    std::thread::yield_now();
                }
                // Holding leadership is what forces the pile-up; the pause
                // only covers the instant between a spender's admission
                // dropping the lock and its enqueue.
                std::thread::sleep(std::time::Duration::from_millis(20));
                batch.iter().map(|_| Ok(())).collect()
            });
        assert!(matches!(out, Submit::Done(Ok(()))));
    }

    #[test]
    fn group_commit_batches_grants_under_one_fsync_and_recovers_bit_exact() {
        const N: u64 = 8;
        let path = wal_path("group-commit.wal");
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        let barrier = std::sync::Barrier::new(N as usize + 1);
        std::thread::scope(|scope| {
            for id in 1..=N {
                let acc = &acc;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    acc.try_spend_grant_cancellable(
                        id,
                        format!("request/{id}"),
                        Epsilon::new(0.1).unwrap(),
                        None,
                    )
                    .unwrap();
                });
            }
            lead_until_admitted(&acc, N, || {
                barrier.wait();
            });
        });
        let stats = acc.ledger_stats();
        assert_eq!(stats.grants_appended, N);
        assert!(
            stats.append_batches < N,
            "barrier-aligned spends must share at least one fsync \
             (got {} batches for {N} grants)",
            stats.append_batches
        );
        assert_eq!(acc.granted_ids(), (1..=N).collect::<Vec<u64>>());
        let live_bits = acc.spent().to_bits();
        drop(acc);

        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.spent().to_bits(), live_bits, "Recovery::spent");
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        assert_eq!(resumed.spent().to_bits(), live_bits, "replayed accountant");
        assert_eq!(resumed.granted_ids(), (1..=N).collect::<Vec<u64>>());
    }

    #[test]
    fn group_commit_admission_holds_cap_under_concurrency() {
        // 16 racing 0.1-spends against a 0.5 cap through the grouped path:
        // exactly 5 admitted, and the WAL holds exactly the accepted grants.
        let path = wal_path("group-cap.wal");
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(0.5).unwrap()), writer, &recovery);
        let accepted = std::sync::atomic::AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(16);
        std::thread::scope(|scope| {
            for id in 1..=16u64 {
                let acc = &acc;
                let accepted = &accepted;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    if acc
                        .try_spend_grant_cancellable(
                            id,
                            format!("request/{id}"),
                            Epsilon::new(0.1).unwrap(),
                            None,
                        )
                        .is_ok()
                    {
                        accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(accepted.load(std::sync::atomic::Ordering::Relaxed), 5);
        assert_eq!(acc.spent(), 0.5);
        assert_eq!(acc.granted_ids().len(), 5);
        drop(acc);
        let recovery = crate::ledger::recover(&path).unwrap();
        assert_eq!(recovery.grants.len(), 5, "rejections append nothing");
        assert_eq!(recovery.spent(), 0.5);
    }

    #[test]
    fn cancellable_spend_pre_checks_token_without_spending() {
        let path = wal_path("group-cancel.wal");
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(1.0).unwrap()), writer, &recovery);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = acc
            .try_spend_grant_cancellable(1, "request/1", Epsilon::new(0.3).unwrap(), Some(&token))
            .unwrap_err();
        assert!(matches!(err, DpError::Cancelled { ref reason }
            if reason == dpx_runtime::REASON_DEADLINE));
        assert_eq!(acc.spent(), 0.0, "nothing reserved, nothing spent");
        assert_eq!(acc.ledger_stats().grants_appended, 0);
        assert!(acc.granted_ids().is_empty());
    }

    #[test]
    fn uncontended_spends_commit_one_batch_each() {
        // Nobody queued behind the ledger: each spend leads its own commit
        // at once (the leader waits for no one) and pays its own fsync.
        let path = wal_path("group-solo.wal");
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(1.0).unwrap()), writer, &recovery);
        for id in 1..=3u64 {
            acc.try_spend_grant(id, format!("request/{id}"), Epsilon::new(0.1).unwrap())
                .unwrap();
        }
        let stats = acc.ledger_stats();
        assert_eq!(stats.grants_appended, 3);
        assert_eq!(stats.append_batches, 3, "each solo spend is its own batch");
    }

    #[test]
    fn cancel_storm_while_queued_leaves_pending_exactly_zero() {
        // Sixteen spenders queue behind a held commit; half are cancelled
        // while queued. The withdrawals release their reservations, the rest
        // commit, and the reserved total returns to exactly zero.
        const N: u64 = 16;
        let path = wal_path("cancel-storm.wal");
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        let units = epsilon_units(0.1).unwrap();
        let tokens: Vec<CancelToken> = (0..N).map(|_| CancelToken::new()).collect();
        let barrier = std::sync::Barrier::new(N as usize + 1);
        let cancelled = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for id in 1..=N {
                let (acc, barrier, cancelled) = (&acc, &barrier, &cancelled);
                let token = &tokens[id as usize - 1];
                scope.spawn(move || {
                    barrier.wait();
                    match acc.try_spend_grant_cancellable(
                        id,
                        format!("request/{id}"),
                        Epsilon::new(0.1).unwrap(),
                        Some(token),
                    ) {
                        Ok(()) => {}
                        Err(DpError::Cancelled { .. }) => {
                            cancelled.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected {other:?}"),
                    }
                });
            }
            let placeholder = GrantRecord::for_request(NO_REQUEST, 0);
            let out = acc
                .batcher
                .submit(placeholder, MAX_GRANT_BATCH, None, |batch| {
                    barrier.wait();
                    while acc.probe().pending_units < N * units {
                        std::thread::yield_now();
                    }
                    // Every spender is admitted. A cancelled one withdraws
                    // whether it reached the queue before the cancel or after.
                    for token in tokens.iter().step_by(2) {
                        token.cancel("storm");
                    }
                    while acc.probe().pending_units > N / 2 * units {
                        std::thread::yield_now();
                    }
                    batch.iter().map(|_| Ok(())).collect()
                });
            assert!(matches!(out, Submit::Done(Ok(()))));
        });
        assert_eq!(cancelled.into_inner(), N / 2);
        let probe = acc.probe();
        assert_eq!(probe.pending_units, 0, "every reservation resolved");
        assert_eq!(probe.spent_units, N / 2 * units);
        assert_eq!(acc.num_charges(), N as usize / 2);
        drop(acc);
        assert_eq!(
            crate::ledger::recover(&path).unwrap().grants.len(),
            N as usize / 2,
            "withdrawn grants were never appended"
        );
    }

    #[test]
    fn group_commit_auto_checkpoints_once_per_batch() {
        let path = wal_path("group-ckpt.wal");
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        acc.set_checkpoint_every(Some(2));
        let barrier = std::sync::Barrier::new(7);
        std::thread::scope(|scope| {
            for id in 1..=6u64 {
                let acc = &acc;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    acc.try_spend_grant_cancellable(
                        id,
                        format!("request/{id}"),
                        Epsilon::new(0.1).unwrap(),
                        None,
                    )
                    .unwrap();
                });
            }
            lead_until_admitted(&acc, 6, || {
                barrier.wait();
            });
        });
        let stats = acc.ledger_stats();
        // Accounting is per batch: each fsynced batch triggers at most one
        // compaction, so checkpoints never exceed batches even though six
        // grants crossed the every-2 threshold three times.
        assert!(stats.checkpoints_written >= 1);
        assert!(stats.checkpoints_written <= stats.append_batches);
        let spent_bits = acc.spent().to_bits();
        drop(acc);
        let (_, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.spent().to_bits(), spent_bits);
        let mut ids: Vec<u64> = recovery.granted_ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=6).collect::<Vec<u64>>());
    }

    #[test]
    fn audit_mentions_labels() {
        let mut acc = Accountant::new();
        acc.charge("stage1", Epsilon::new(0.1).unwrap()).unwrap();
        acc.charge_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        let audit = acc.audit();
        assert!(audit.contains("stage1"));
        assert!(audit.contains("hist"));
        assert!(audit.contains("total"));
    }
}
