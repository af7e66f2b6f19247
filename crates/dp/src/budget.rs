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

use crate::error::DpError;
use crate::ledger::{
    CheckpointRecord, GrantRecord, GroupSnapshot, LedgerWriter, Recovery, NO_REQUEST,
};
use dpx_runtime::faultpoint::{self, SHARD_PRE_APPEND};
use dpx_runtime::{Batcher, CancelToken, Submit};
use std::collections::HashMap;
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
    /// `(group, max ε seen, members)`, in group-creation order. The order is
    /// load-bearing: [`Accountant::spent`] adds group maxima in it, and
    /// checkpoint replay reproduces the identical float-addition sequence.
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

    /// Records a charge replayed from a durable ledger, **bypassing the cap**:
    /// recovered grants are history — the ε is already spent, and refusing to
    /// count it would under-report the true privacy loss. A recovered total at
    /// or above the cap simply leaves [`Accountant::remaining`] at zero.
    fn charge_replayed(&mut self, label: impl Into<String>, epsilon: f64) {
        self.sequential.push(Charge {
            label: label.into(),
            epsilon,
            kind: ChargeKind::Sequential,
        });
    }

    /// Parallel-composition counterpart of [`Accountant::charge_replayed`]:
    /// cap-bypassing replay of a grant into its named group, using the same
    /// running-max update as the live path so replay is bit-exact.
    fn charge_replayed_parallel(&mut self, group: String, label: String, epsilon: f64) {
        let charge = Charge {
            label,
            epsilon,
            kind: ChargeKind::Parallel,
        };
        match self.parallel_index.get(&group) {
            Some(&idx) => {
                let entry = &mut self.parallel[idx];
                entry.1 = entry.1.max(epsilon);
                entry.2.push(charge);
            }
            None => {
                self.parallel_index
                    .insert(group.clone(), self.parallel.len());
                self.parallel.push((group, epsilon, vec![charge]));
            }
        }
    }

    /// The sequential partial sum (the left fold [`Accountant::spent`]
    /// starts from) — what a checkpoint snapshots bit-exactly.
    fn sequential_spent(&self) -> f64 {
        self.sequential.iter().map(|c| c.epsilon).sum()
    }

    /// Snapshots this accountant's composition state (plus the given granted
    /// request ids) as a checkpoint record. Group maxima are captured in
    /// creation order so replay adds them back in the same order.
    fn checkpoint_record(&self, granted: &[u64]) -> CheckpointRecord {
        CheckpointRecord {
            seq_spent: self.sequential_spent(),
            granted: granted.to_vec(),
            groups: self
                .parallel
                .iter()
                .map(|(name, max, _)| GroupSnapshot {
                    name: name.clone(),
                    max: *max,
                })
                .collect(),
        }
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

    /// The effective ε of the named parallel group (its running maximum), if
    /// the group exists.
    pub fn parallel_group_max(&self, group: &str) -> Option<f64> {
        self.parallel_index
            .get(group)
            .map(|&idx| self.parallel[idx].1)
    }

    /// Number of individual charges recorded (for audit output).
    pub fn num_charges(&self) -> usize {
        self.sequential.len() + self.parallel.iter().map(|(_, _, m)| m.len()).sum::<usize>()
    }

    /// Iterates over all sequential charges (audit trail).
    pub fn sequential_charges(&self) -> impl Iterator<Item = &Charge> {
        self.sequential.iter()
    }

    /// Iterates over parallel groups as `(group name, effective ε, members)`.
    pub fn parallel_groups(&self) -> impl Iterator<Item = (&str, f64, &[Charge])> {
        self.parallel
            .iter()
            .map(|(g, max, m)| (g.as_str(), *max, m.as_slice()))
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

/// A thread-safe [`Accountant`]: many sessions spending from one shared
/// budget, with **check-and-spend as a single atomic operation**.
///
/// Concurrency turns the accountant's cap check into a privacy hazard: two
/// requests that each observe `remaining ≥ ε` and *then* record their charge
/// can together push the total past the cap — a classic TOCTOU race that
/// silently breaks the ε-DP guarantee (the composition theorem bounds the
/// *actual* total spend, not what each racer believed it to be). Here every
/// [`try_spend`](SharedAccountant::try_spend) holds the ledger lock across
/// both the cap check and the recording (with a durable sink: the
/// reservation the commit later turns into a charge), so there is no window
/// in which a second spender can sneak past a stale check: the sum of all
/// accepted charges can never exceed the cap, for any interleaving.
///
/// The inner ledger stays the audited, single-threaded [`Accountant`];
/// [`snapshot`](SharedAccountant::snapshot) clones it out for audit trails
/// and [`LedgerMark`]-based delta queries.
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
struct Ledgered {
    acc: Accountant,
    sink: Option<LedgerWriter>,
    /// Request ids holding durable grants (recovered + accepted this run) —
    /// the skip-set a checkpoint must carry for resume to stay correct.
    granted: Vec<u64>,
    /// Grants appended since the last checkpoint (or since recovery).
    appends_since_checkpoint: u64,
    /// Checkpoint after this many appends (`None`: never automatically).
    checkpoint_every: Option<u64>,
    /// ε admitted to the group-commit queue but not yet charged. Admission
    /// reserves against the cap under this same lock, so concurrent
    /// enqueuers cannot jointly breach it; the batch leader converts the
    /// reservation into real charges at commit (or releases it on failure
    /// or cancellation-withdrawal).
    pending_eps: f64,
    stats: LedgerStats,
}

impl Ledgered {
    /// Compacts the attached WAL to `magic + checkpoint` capturing the
    /// current accountant state. A compaction failure is recorded in the
    /// stats but does not propagate: the pre-checkpoint WAL still holds the
    /// full history, so nothing is lost — the log just stays long.
    fn checkpoint(&mut self) {
        let record = self.acc.checkpoint_record(&self.granted);
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

    /// Cap check that also counts ε reserved in the group-commit queue:
    /// whatever is pending will be charged, so new admissions must fit
    /// alongside it. Identical to the plain check when nothing is pending.
    fn check_cap(&self, extra: f64) -> Result<(), DpError> {
        self.acc.check_cap(self.pending_eps + extra)
    }
}

/// Most grants one group commit appends under a single fsync. The leader
/// never waits for followers: a batch is whatever queued while the previous
/// commit was in flight, capped here so one fsync's latency stays bounded.
const MAX_GRANT_BATCH: usize = 64;

/// A grant admitted to the group-commit queue, awaiting its batch.
#[derive(Debug)]
struct PendingGrant {
    request_id: u64,
    label: String,
    eps: f64,
}

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
    /// Grant records made durable by this accountant (any append path).
    pub grants_appended: u64,
    /// Fsynced append batches (one per group commit, one per parallel
    /// spend), so `grants_appended / append_batches` is the grants-per-fsync
    /// amortization factor (checkpoint compactions excluded — they are
    /// policy, not spend).
    pub append_batches: u64,
}

/// See the type-level docs above; this is the shared, lockable shell.
#[derive(Debug, Default)]
pub struct SharedAccountant {
    inner: std::sync::Mutex<Ledgered>,
    /// Leader/follower queue for durable grant spends (see
    /// [`SharedAccountant::try_spend_grant_cancellable`]). Idle without a
    /// sink.
    batcher: Batcher<PendingGrant, Result<(), DpError>>,
}

impl SharedAccountant {
    /// A shared accountant with no cap (pure concurrent bookkeeping).
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared accountant that atomically rejects charges once the total
    /// would exceed `cap`.
    pub fn with_cap(cap: Epsilon) -> Self {
        Self::from_accountant(Accountant::with_cap(cap))
    }

    /// Wraps an existing ledger (e.g. to continue a session's accounting
    /// across threads).
    pub fn from_accountant(accountant: Accountant) -> Self {
        SharedAccountant {
            inner: std::sync::Mutex::new(Ledgered {
                acc: accountant,
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
    /// Replay is composition-aware and bit-exact: a head checkpoint seeds
    /// the sequential fold with the snapshotted partial sum and recreates
    /// each parallel group at its snapshotted maximum (in creation order);
    /// tail grants then replay through the same update rules the live path
    /// uses, so the rebuilt [`SharedAccountant::spent`] equals the
    /// pre-crash in-memory value to the last bit — the *tight*
    /// max-per-group bound, not the old conservative flat sum.
    pub fn recovered(cap: Option<Epsilon>, writer: LedgerWriter, recovery: &Recovery) -> Self {
        let mut acc = match cap {
            Some(cap) => Accountant::with_cap(cap),
            None => Accountant::new(),
        };
        let mut granted = Vec::new();
        if let Some(ckpt) = &recovery.checkpoint {
            if ckpt.seq_spent > 0.0 {
                acc.charge_replayed("ledger/checkpoint", ckpt.seq_spent);
            }
            for group in &ckpt.groups {
                acc.charge_replayed_parallel(
                    group.name.clone(),
                    "ledger/checkpoint".to_string(),
                    group.max,
                );
            }
            granted.extend_from_slice(&ckpt.granted);
        }
        for grant in &recovery.grants {
            match &grant.group {
                None => acc.charge_replayed(grant.label.clone(), grant.epsilon),
                Some(group) => {
                    acc.charge_replayed_parallel(group.clone(), grant.label.clone(), grant.epsilon)
                }
            }
            if grant.request_id != NO_REQUEST {
                granted.push(grant.request_id);
            }
        }
        SharedAccountant {
            inner: std::sync::Mutex::new(Ledgered {
                acc,
                sink: Some(writer),
                granted,
                appends_since_checkpoint: recovery.checkpoint_age(),
                checkpoint_every: None,
                pending_eps: 0.0,
                stats: LedgerStats {
                    records_replayed: recovery.records_replayed(),
                    truncated_bytes: recovery.truncated_bytes,
                    recovered_from_checkpoint: recovery.checkpoint.is_some(),
                    checkpoint_age_at_recovery: recovery.checkpoint_age(),
                    ..LedgerStats::default()
                },
            }),
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

    /// Every [`Accountant`] mutation is a cap check followed by append-only
    /// recording with no panicking operation in between, so the ledger is
    /// consistent even if a holder's thread panicked elsewhere between
    /// operations; recovering from poisoning is therefore sound, and keeps
    /// one crashed worker from wedging every other session's budget.
    fn lock(&self) -> std::sync::MutexGuard<'_, Ledgered> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Atomically checks the cap **and** records a sequential charge: either
    /// the charge is accepted and fully recorded in the ledger, or nothing is
    /// recorded and [`DpError::BudgetExceeded`] is returned. No interleaving
    /// of concurrent `try_spend` calls can overdraw the cap.
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
    /// [`DpError::Cancelled`] having spent nothing. Without a sink the spend
    /// is a cap check and an in-memory charge under the lock. With one, the
    /// spend is *admitted* (its ε reserved against the cap under the
    /// accountant lock — concurrent admissions cannot jointly breach it) and
    /// enqueued; the first enqueuer to find no commit in flight becomes the
    /// batch leader and, without waiting for anyone, commits up to 64 queued
    /// grants with **one** append+fsync. Every spend returns only after its
    /// own record is durable — success implies durable, and a failed fsync
    /// rejects every spend of its batch with [`DpError::LedgerWrite`] — and
    /// the batch is charged in memory in exactly the order it sits in the
    /// file, keeping recovery bit-exact.
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
        let label = label.into();
        // Admission: reserve against the cap under the accountant lock, then
        // release it before queueing so the leader can take it for the commit.
        {
            let mut inner = self.lock();
            inner.check_cap(eps.get())?;
            if inner.sink.is_none() {
                inner.acc.charge(label, eps)?;
                if request_id != NO_REQUEST {
                    inner.granted.push(request_id);
                }
                return Ok(());
            }
            inner.pending_eps += eps.get();
        }
        let pending = PendingGrant {
            request_id,
            label,
            eps: eps.get(),
        };
        match self
            .batcher
            .submit(pending, MAX_GRANT_BATCH, cancel, |batch| {
                self.commit_batch(batch)
            }) {
            Submit::Done(result) => result,
            Submit::Cancelled { item, reason } => {
                // Withdrawn before the leader drained it: release the
                // reservation — nothing was appended, nothing spent.
                let mut inner = self.lock();
                inner.pending_eps = (inner.pending_eps - item.eps).max(0.0);
                drop(inner);
                Err(DpError::Cancelled { reason })
            }
        }
    }

    /// The batch leader's commit: one append+fsync for the whole batch, then
    /// in-memory charges in file order. Runs under the accountant lock, so
    /// checkpoints and parallel spends serialize against it.
    fn commit_batch(&self, batch: Vec<PendingGrant>) -> Vec<Result<(), DpError>> {
        let mut inner = self.lock();
        let total: f64 = batch.iter().map(|g| g.eps).sum();
        let records: Vec<GrantRecord> = batch
            .iter()
            .map(|g| GrantRecord {
                request_id: g.request_id,
                epsilon: g.eps,
                label: g.label.clone(),
                group: None,
            })
            .collect();
        faultpoint::hit(SHARD_PRE_APPEND);
        // Admission only enqueues with a sink, and a sink is never detached.
        let append = inner
            .sink
            .as_mut()
            .expect("queued grants imply a sink")
            .append_all(&records)
            .map_err(|e| e.to_string());
        // The reservation resolves either way: into charges on success,
        // released on failure.
        inner.pending_eps = (inner.pending_eps - total).max(0.0);
        match append {
            Err(message) => batch
                .iter()
                .map(|_| {
                    Err(DpError::LedgerWrite {
                        message: message.clone(),
                    })
                })
                .collect(),
            Ok(()) => {
                let n = records.len() as u64;
                for grant in batch {
                    // Cap-bypassing charge: the record is already durable,
                    // and a durable grant must be counted unconditionally —
                    // admission did the cap check, and replay would count it.
                    inner.acc.charge_replayed(grant.label, grant.eps);
                    if grant.request_id != NO_REQUEST {
                        inner.granted.push(grant.request_id);
                    }
                }
                inner.note_batch(n);
                (0..n).map(|_| Ok(())).collect()
            }
        }
    }

    /// Atomic parallel-composition variant of
    /// [`try_spend`](Self::try_spend): see [`Accountant::charge_parallel`].
    ///
    /// With a durable sink attached the grant is logged at its full ε
    /// *tagged with its group*, so replay applies the same max-per-group
    /// rule the in-memory ledger does — the recovered spend is the tight
    /// parallel-composition bound, bit-exact with the live one, not the old
    /// conservative flat sum.
    pub fn try_spend_parallel(
        &self,
        group: impl Into<String>,
        member: impl Into<String>,
        eps: Epsilon,
    ) -> Result<(), DpError> {
        let group = group.into();
        let member = member.into();
        let mut inner = self.lock();
        if inner.sink.is_some() {
            // Pre-check the *increment* (what charge_parallel will charge)
            // so the grant is never appended for a spend the cap rejects.
            let extra = match inner.acc.parallel_group_max(&group) {
                Some(max) => (eps.get() - max).max(0.0),
                None => eps.get(),
            };
            inner.check_cap(extra)?;
            faultpoint::hit(SHARD_PRE_APPEND);
            let grant = GrantRecord {
                request_id: NO_REQUEST,
                epsilon: eps.get(),
                label: format!("{group}/{member}"),
                group: Some(group.clone()),
            };
            let sink = inner.sink.as_mut().expect("checked above");
            sink.append(&grant).map_err(|e| DpError::LedgerWrite {
                message: e.to_string(),
            })?;
        }
        inner.acc.charge_parallel(group, member, eps)?;
        if inner.sink.is_some() {
            inner.note_batch(1);
        }
        Ok(())
    }

    /// Total ε spent so far.
    pub fn spent(&self) -> f64 {
        self.lock().acc.spent()
    }

    /// Headroom under the cap, clamped at zero (`None` when uncapped).
    pub fn remaining(&self) -> Option<f64> {
        self.lock().acc.remaining()
    }

    /// The configured cap, if any.
    pub fn cap(&self) -> Option<f64> {
        self.lock().acc.cap()
    }

    /// Number of individual charges recorded.
    pub fn num_charges(&self) -> usize {
        self.lock().acc.num_charges()
    }

    /// A point-in-time clone of the inner ledger (audit trails, delta
    /// queries). The clone is consistent: it can never show a charge whose
    /// cap check had not already passed.
    pub fn snapshot(&self) -> Accountant {
        self.lock().acc.clone()
    }

    /// Request ids holding grants (recovered from the ledger plus accepted
    /// this run) — the resume skip-set.
    pub fn granted_ids(&self) -> Vec<u64> {
        self.lock().granted.clone()
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

    /// Renders the audit trail of the spend so far.
    pub fn audit(&self) -> String {
        self.lock().acc.audit()
    }

    /// A consistency probe of the accountant, read under **one** critical
    /// section — the adversarial harness's view. Reading `spent()` and
    /// `granted_ids()` as two calls can pair a spend total with the grant
    /// list of a different instant and report a phantom violation; the probe
    /// can't.
    pub fn probe(&self) -> AccountantProbe {
        let inner = self.lock();
        let mut sorted = inner.granted.clone();
        sorted.sort_unstable();
        let mut duplicate_grant_ids: Vec<u64> = sorted
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| w[0])
            .collect();
        duplicate_grant_ids.dedup();
        AccountantProbe {
            spent: inner.acc.spent(),
            cap: inner.acc.cap(),
            pending_eps: inner.pending_eps,
            num_charges: inner.acc.num_charges(),
            grants: inner.granted.len(),
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
    /// Total ε charged.
    pub spent: f64,
    /// The configured cap, if any.
    pub cap: Option<f64>,
    /// ε reserved in the group-commit queue but not yet charged.
    pub pending_eps: f64,
    /// Individual charges recorded.
    pub num_charges: usize,
    /// Request-id grants recorded (recovered + this run).
    pub grants: usize,
    /// Request ids holding more than one grant — always a violation: a
    /// request's ε is reserved exactly once, and replays must ride the
    /// original grant.
    pub duplicate_grant_ids: Vec<u64>,
}

impl AccountantProbe {
    /// Whether the recorded spend (plus queued reservations) breaches the
    /// cap, beyond the accountant's own float tolerance.
    pub fn cap_exceeded(&self) -> bool {
        match self.cap {
            Some(cap) => self.spent + self.pending_eps > cap * (1.0 + 1e-9),
            None => false,
        }
    }

    /// Every invariant this snapshot violates, rendered for a failure
    /// report. Empty means the accountant looked consistent at the probed
    /// instant.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.cap_exceeded() {
            out.push(format!(
                "cap exceeded: spent {} + pending {} > cap {:?}",
                self.spent, self.pending_eps, self.cap
            ));
        }
        if !self.duplicate_grant_ids.is_empty() {
            out.push(format!(
                "duplicate WAL grants for request ids {:?}",
                self.duplicate_grant_ids
            ));
        }
        if self.spent < 0.0 || self.pending_eps < 0.0 {
            out.push(format!(
                "negative accounting: spent {} pending {}",
                self.spent, self.pending_eps
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
        assert!((acc.spent() - 0.5).abs() < 1e-9);
        assert!(acc.audit().contains("total"));
    }

    #[test]
    fn shared_accountant_snapshot_is_consistent() {
        let acc = SharedAccountant::new();
        acc.try_spend("a", Epsilon::new(0.1).unwrap()).unwrap();
        acc.try_spend_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        acc.try_spend_parallel("hist", "c1", Epsilon::new(0.07).unwrap())
            .unwrap();
        let ledger = acc.snapshot();
        assert!((ledger.spent() - 0.17).abs() < 1e-12);
        assert_eq!(ledger.num_charges(), 3);
        assert_eq!(acc.num_charges(), 3);
    }

    #[test]
    fn shared_accountant_rejection_records_nothing() {
        let acc = SharedAccountant::with_cap(Epsilon::new(0.2).unwrap());
        acc.try_spend("fits", Epsilon::new(0.15).unwrap()).unwrap();
        let err = acc
            .try_spend("overdraws", Epsilon::new(0.15).unwrap())
            .unwrap_err();
        assert!(matches!(err, DpError::BudgetExceeded { .. }));
        assert_eq!(acc.num_charges(), 1);
        assert!((acc.spent() - 0.15).abs() < 1e-12);
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
        let dir = std::env::temp_dir().join(format!("dpx-budget-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("durable.wal");
        let _ = std::fs::remove_file(&path);

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
        let dir = std::env::temp_dir().join(format!("dpx-budget-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overcap.wal");
        let _ = std::fs::remove_file(&path);
        let (mut writer, _) = LedgerWriter::open(&path).unwrap();
        writer.append(&GrantRecord::for_request(1, 0.4)).unwrap();
        writer.append(&GrantRecord::for_request(2, 0.4)).unwrap();
        drop(writer);

        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        // Recovered spend 0.8 exceeds the 0.5 cap: replay must not fail, but
        // headroom is zero and any new spend is rejected.
        let acc = SharedAccountant::recovered(Some(Epsilon::new(0.5).unwrap()), writer, &recovery);
        assert!((acc.spent() - 0.8).abs() < 1e-12);
        assert_eq!(acc.remaining(), Some(0.0));
        assert!(acc.try_spend("more", Epsilon::new(0.01).unwrap()).is_err());
    }

    #[test]
    fn durable_parallel_spends_replay_tight_and_reclaim_epsilon() {
        let dir = std::env::temp_dir().join(format!("dpx-budget-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("parallel.wal");
        let _ = std::fs::remove_file(&path);
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(1.0).unwrap()), writer, &recovery);
        acc.try_spend_parallel("hist", "c0", Epsilon::new(0.05).unwrap())
            .unwrap();
        acc.try_spend_parallel("hist", "c1", Epsilon::new(0.07).unwrap())
            .unwrap();
        // In memory the group costs max = 0.07.
        assert!((acc.spent() - 0.07).abs() < 1e-12);
        let live_bits = acc.spent().to_bits();
        let live_remaining = acc.remaining().unwrap();
        drop(acc);

        // The group-tagged log replays the same tight max-per-group bound.
        let recovery = crate::ledger::recover(&path).unwrap();
        assert!((recovery.spent() - 0.07).abs() < 1e-12);
        assert_eq!(recovery.grants[0].label, "hist/c0");
        assert_eq!(recovery.grants[0].group.as_deref(), Some("hist"));

        // Replaying through an accountant reclaims the ε the old flat rule
        // (0.05 + 0.07 = 0.12) used to burn: headroom is restored bit-exactly.
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(1.0).unwrap()), writer, &recovery);
        assert_eq!(resumed.spent().to_bits(), live_bits);
        assert_eq!(resumed.remaining().unwrap(), live_remaining);
        let flat_sum: f64 = recovery.grants.iter().map(|g| g.epsilon).sum();
        assert!(
            resumed.spent() < flat_sum,
            "tight replay {} must beat flat {}",
            resumed.spent(),
            flat_sum
        );
    }

    /// A crash+recover chain through checkpoints reproduces the live
    /// accountant's spend to the last bit — the acceptance criterion for
    /// composition-aware replay.
    #[test]
    fn checkpointed_recovery_is_bit_exact_with_live_accountant() {
        let dir = std::env::temp_dir().join(format!("dpx-budget-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bitexact.wal");
        let _ = std::fs::remove_file(&path);

        // A deliberately round-off-prone spend sequence (0.1 and 0.3 are not
        // exactly representable) interleaving sequential and grouped spends.
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        let acc = SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        acc.try_spend_grant(1, "request/1", Epsilon::new(0.1).unwrap())
            .unwrap();
        acc.try_spend_parallel("cluster", "c0", Epsilon::new(0.3).unwrap())
            .unwrap();
        acc.try_spend_grant(2, "request/2", Epsilon::new(0.1).unwrap())
            .unwrap();
        acc.checkpoint_now().unwrap();
        acc.try_spend_parallel("cluster", "c1", Epsilon::new(0.7).unwrap())
            .unwrap();
        acc.try_spend_parallel("other", "c0", Epsilon::new(0.2).unwrap())
            .unwrap();
        acc.try_spend_grant(3, "request/3", Epsilon::new(0.1).unwrap())
            .unwrap();
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
        let mut ids = resumed.granted_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);

        // Checkpoint again post-recovery and recover once more: the chain of
        // checkpoints stays bit-exact.
        resumed
            .try_spend_grant(4, "request/4", Epsilon::new(0.1).unwrap())
            .unwrap();
        let live_bits = resumed.spent().to_bits();
        resumed.checkpoint_now().unwrap();
        drop(resumed);
        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.records_replayed(), 1, "fully compacted");
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        assert_eq!(resumed.spent().to_bits(), live_bits, "second generation");
    }

    #[test]
    fn auto_checkpoint_policy_compacts_the_wal() {
        let dir = std::env::temp_dir().join(format!("dpx-budget-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("autockpt.wal");
        let _ = std::fs::remove_file(&path);
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
        let placeholder = PendingGrant {
            request_id: NO_REQUEST,
            label: String::new(),
            eps: 0.0,
        };
        let mut release = Some(release);
        let out = acc
            .batcher
            .submit(placeholder, MAX_GRANT_BATCH, None, |batch| {
                release.take().expect("the placeholder leads once")();
                while acc.probe().pending_eps < 0.1 * grants as f64 - 1e-9 {
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
        let mut ids = acc.granted_ids();
        ids.sort_unstable();
        assert_eq!(ids, (1..=N).collect::<Vec<u64>>());
        let live_bits = acc.spent().to_bits();
        drop(acc);

        let (writer, recovery) = LedgerWriter::open(&path).unwrap();
        assert_eq!(recovery.spent().to_bits(), live_bits, "Recovery::spent");
        let resumed =
            SharedAccountant::recovered(Some(Epsilon::new(10.0).unwrap()), writer, &recovery);
        assert_eq!(resumed.spent().to_bits(), live_bits, "replayed accountant");
        let mut ids = resumed.granted_ids();
        ids.sort_unstable();
        assert_eq!(ids, (1..=N).collect::<Vec<u64>>());
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
        assert!((acc.spent() - 0.5).abs() < 1e-9);
        assert_eq!(acc.granted_ids().len(), 5);
        drop(acc);
        let recovery = crate::ledger::recover(&path).unwrap();
        assert_eq!(recovery.grants.len(), 5, "rejections append nothing");
        assert!((recovery.spent() - 0.5).abs() < 1e-9);
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
