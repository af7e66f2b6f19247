//! The staged explanation engine.
//!
//! [`framework::DpClustX`](crate::framework::DpClustX) presents DPClustX as
//! one call; this module is the machinery behind it, split into four explicit
//! [`Stage`]s run in sequence:
//!
//! 1. [`BuildCounts`] — obtain the per-clustering [`CountedTables`]
//!    (contingency counts + score table), memoized in the [`ExplainContext`]
//!    keyed by *(dataset fingerprint, labels hash)*;
//! 2. [`CandidateSelection`] — Stage 1 of the paper (Algorithm 1);
//! 3. [`CombinationSelection`] — the exponential mechanism over `k^|C|`
//!    combinations (Algorithm 2, line 5);
//! 4. [`HistogramRelease`] — the noisy histogram release (Algorithm 2,
//!    lines 6–15).
//!
//! Every stage boundary is a seam: the engine wraps each stage run with wall
//! -clock timing and an [`Accountant`] ledger mark, and reports a
//! [`StageEvent`] (duration, ε charged, per-label charges, stage metrics) to
//! a [`PipelineObserver`]. [`NoopObserver`] discards events;
//! [`CollectingObserver`] records them and renders the `--timings` report.
//!
//! Stages run on the calling thread. Stage 1 and the histogram release still
//! split one RNG per task from the master RNG, in task order, before any task
//! runs: that is the draw order every recorded seeded output was made with.

mod observer;
mod stages;

pub use observer::{CollectingObserver, NoopObserver, PipelineObserver, StageEvent};
pub use stages::{
    BuildCounts, CandidateSelection, CombinationSelection, EngineState, HistogramRelease, Stage,
    STAGE_BUILD_COUNTS, STAGE_CANDIDATES, STAGE_COMBINATION, STAGE_HISTOGRAMS,
};

use crate::counts::ScoreTable;
use crate::framework::{DpClustXConfig, Outcome};
use crate::stage2::Stage2Kernel;
use dpx_data::contingency::ClusteredCounts;
use dpx_data::{hash_labels, Dataset, Schema};
use dpx_dp::budget::{Accountant, Epsilon};
use dpx_dp::histogram::{GeometricHistogram, HistogramMechanism};
use dpx_dp::DpError;
use dpx_runtime::singleflight::{Claim, SingleFlight};
use dpx_runtime::CancelToken;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Key of the counts cache: which dataset, under which cluster assignment.
///
/// Both halves are stable content hashes (see [`dpx_data::fingerprint`]), so
/// the cache survives re-deriving an identical labeling and never confuses
/// two datasets or two clusterings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CountsKey {
    /// [`Dataset::fingerprint`] of the clustered dataset.
    pub dataset_fingerprint: u64,
    /// [`hash_labels`] of the cluster assignment (labels and cluster count).
    pub labels_hash: u64,
}

/// The memoized per-clustering tables: the one-pass contingency counts and
/// the score table derived from them. Building these is the dominant
/// data-scan cost of an explanation, which is why the engine caches them.
#[derive(Debug)]
pub struct CountedTables {
    /// `(cluster × value)` count tables, one per attribute.
    pub counts: ClusteredCounts,
    /// The quality-score table over those counts.
    pub table: ScoreTable,
}

/// A concurrency-safe, fingerprint-keyed memo of [`CountedTables`].
///
/// Historically each [`ExplainContext`] owned a private `HashMap` cache;
/// the serving layer shares one cache per registered dataset across many
/// concurrent sessions, so the map now lives behind a mutex and contexts
/// hold it through an `Arc`. Reads and inserts are short critical sections;
/// the expensive table *build* on a miss runs **outside** the lock.
///
/// Misses are **single-flight**: the first builder of a key registers an
/// in-flight claim (a [`SingleFlight`] set beside the map), so N concurrent
/// misses of one key run the data scan exactly once — followers block on the
/// builder's flight and read its result out of the map instead of redoing
/// the scan. A builder that *panics* releases its claim on unwind; a waiting
/// follower then finds the map still empty and runs the build itself, so a
/// poisoned request can waste one build but never wedge the key. The map
/// stays first-insert-wins underneath (builds are bit-identical by
/// construction — [`ClusteredCounts::build_parallel`] is
/// thread-count-invariant), so correctness never depends on who won; the
/// flight set only removes the duplicated work.
///
/// The cache is optionally **bounded** ([`Self::with_max_entries`]): every
/// append re-keys the dataset fingerprint, so a long-lived serving process
/// would otherwise accumulate one dead entry per append forever. Over the
/// bound, inserts evict the least-recently-used key — except keys with an
/// in-flight single-flight claim, whose published tables must survive until
/// the flight closes so woken followers find them.
#[derive(Debug, Default)]
pub struct SharedCountsCache {
    map: Mutex<HashMap<CountsKey, CacheSlot>>,
    /// In-flight builds by key: leader election for cache misses.
    flight: SingleFlight<CountsKey>,
    /// Times a caller coalesced onto another caller's in-flight build
    /// instead of scanning (monotone; scheduling-dependent, so it feeds
    /// summaries and benches, never wire responses).
    singleflight_hits: AtomicU64,
    /// Monotone recency clock; bumped by every get/insert.
    tick: AtomicU64,
    /// Entry bound; `None` grows without limit (the historical behavior).
    max_entries: Option<usize>,
}

/// A memoized entry plus the recency tick eviction orders by.
#[derive(Debug)]
struct CacheSlot {
    tables: Arc<CountedTables>,
    last_used: u64,
}

impl SharedCountsCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `max_entries` memoized clusterings
    /// (promoted to 1 if zero). Over the bound, inserts evict the
    /// least-recently-used evictable key.
    pub fn with_max_entries(max_entries: usize) -> Self {
        SharedCountsCache {
            max_entries: Some(max_entries.max(1)),
            ..Self::default()
        }
    }

    /// The entry bound, if this cache was built with one.
    pub fn max_entries(&self) -> Option<usize> {
        self.max_entries
    }

    /// The map mutex only ever guards `HashMap` operations, which either
    /// complete or leave the map untouched; recovering from poisoning (a
    /// panic on some other thread while it held the lock) is sound and keeps
    /// a cache of *derivable* data from wedging unrelated sessions.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<CountsKey, CacheSlot>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, AtomicOrdering::Relaxed) + 1
    }

    /// Memoizes `tables` under `key` (first insert wins), bumps the slot's
    /// recency, and — when the cache is bounded — evicts least-recently-used
    /// keys until the bound holds again. A key whose single-flight claim is
    /// still open is never evicted: its leader published the value for
    /// followers that have not read it yet. The caller holds the map lock.
    fn insert_and_evict(
        &self,
        map: &mut HashMap<CountsKey, CacheSlot>,
        key: CountsKey,
        tables: Arc<CountedTables>,
    ) -> Arc<CountedTables> {
        let tick = self.next_tick();
        let slot = map.entry(key).or_insert(CacheSlot {
            tables,
            last_used: 0,
        });
        slot.last_used = tick;
        let winner = Arc::clone(&slot.tables);
        if let Some(max) = self.max_entries {
            while map.len() > max {
                let evictee = map
                    .iter()
                    .filter(|(k, _)| **k != key && !self.flight.in_flight(k))
                    .min_by_key(|(_, slot)| slot.last_used)
                    .map(|(k, _)| *k);
                match evictee {
                    Some(k) => {
                        map.remove(&k);
                    }
                    // Everything else is mid-flight: let the map run over
                    // the bound briefly rather than break a live flight.
                    None => break,
                }
            }
        }
        winner
    }

    /// Number of memoized clusterings.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The memoized tables for `key`, if present. A hit bumps the key's
    /// recency, so hot clusterings survive eviction in a bounded cache.
    pub fn get(&self, key: &CountsKey) -> Option<Arc<CountedTables>> {
        let tick = self.next_tick();
        let mut map = self.lock();
        map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            Arc::clone(&slot.tables)
        })
    }

    /// The tables for `key`: served from the memo when present, built with
    /// `build` (outside the lock, single-flight — see the type docs) and
    /// memoized otherwise. The second element reports whether the memo
    /// already held the tables (a follower coalescing onto another caller's
    /// build counts as a hit: it never scanned).
    pub fn get_or_build(
        &self,
        key: CountsKey,
        build: impl FnOnce() -> CountedTables,
    ) -> (Arc<CountedTables>, bool) {
        self.get_or_build_cancellable(key, None, build)
            .expect("no token, wait cannot cancel")
    }

    /// [`Self::get_or_build`] whose follower wait is bounded by a
    /// [`CancelToken`]: a follower whose token fires while it is blocked on
    /// another caller's build returns `Err(reason)` without having spent the
    /// scan. The build itself is never interrupted — only waits are.
    pub fn get_or_build_cancellable(
        &self,
        key: CountsKey,
        cancel: Option<&CancelToken>,
        build: impl FnOnce() -> CountedTables,
    ) -> Result<(Arc<CountedTables>, bool), String> {
        let mut build = Some(build);
        loop {
            if let Some(hit) = self.get(&key) {
                return Ok((hit, true));
            }
            match self.flight.claim(&key) {
                Claim::Leader(guard) => {
                    let build = build.take().expect("a caller leads at most once");
                    let built = Arc::new(build());
                    // Publish before releasing the flight: a woken follower
                    // must find the value (or know the leader died). The open
                    // flight also shields the fresh entry from eviction.
                    let winner = self.insert_and_evict(&mut self.lock(), key, built);
                    drop(guard);
                    return Ok((winner, false));
                }
                Claim::Follower => {
                    self.singleflight_hits.fetch_add(1, AtomicOrdering::Relaxed);
                    self.flight.wait(&key, cancel)?;
                    // Re-check the map: populated on success, still empty if
                    // the leader panicked — in which case we claim next.
                }
            }
        }
    }

    /// Times callers coalesced onto an in-flight build instead of scanning.
    pub fn singleflight_hits(&self) -> u64 {
        self.singleflight_hits.load(AtomicOrdering::Relaxed)
    }

    /// Memoizes already-built tables under `key`, returning the tables that
    /// ended up cached. Used by the serve layer's append path, which derives
    /// a successor entry from a cached one via
    /// [`ClusteredCounts::apply_delta`] instead of rebuilding. First insert
    /// wins, like [`Self::get_or_build`] — a racing full build of the same
    /// key is bit-identical by construction.
    pub fn insert(&self, key: CountsKey, tables: CountedTables) -> Arc<CountedTables> {
        self.insert_and_evict(&mut self.lock(), key, Arc::new(tables))
    }

    /// Every memoized key (unordered). The serve layer's append refresh uses
    /// this to find which cached clusterings are worth carrying forward.
    pub fn keys(&self) -> Vec<CountsKey> {
        self.lock().keys().copied().collect()
    }
}

/// Shared state threaded through engine runs: the dataset (behind an `Arc`),
/// its fingerprint (computed once), the master RNG, and the memoized counts
/// cache. One context serves any number of `explain` calls; repeated
/// explanations of the same clustering skip the data scan entirely.
///
/// The cache itself is a [`SharedCountsCache`] behind an `Arc`: a context
/// opened with [`ExplainContext::with_shared_cache`] shares its memo with
/// every other context (and serving session) holding the same cache handle,
/// so concurrent requests against one dataset reuse each other's counts.
#[derive(Debug)]
pub struct ExplainContext {
    data: Arc<Dataset>,
    fingerprint: u64,
    rng: StdRng,
    cache: Arc<SharedCountsCache>,
}

impl ExplainContext {
    /// Opens a context over `data`, seeding the master RNG. Fingerprints the
    /// dataset once (a full scan).
    pub fn new(data: Dataset, seed: u64) -> Self {
        Self::from_arc(Arc::new(data), seed)
    }

    /// Opens a context over an already-shared dataset (with a private cache).
    pub fn from_arc(data: Arc<Dataset>, seed: u64) -> Self {
        Self::with_shared_cache(data, seed, Arc::new(SharedCountsCache::new()))
    }

    /// Opens a context over an already-shared dataset whose counts memo is
    /// shared with other holders of `cache` — the serving layer's per-dataset
    /// configuration, where concurrent sessions reuse one another's builds.
    pub fn with_shared_cache(data: Arc<Dataset>, seed: u64, cache: Arc<SharedCountsCache>) -> Self {
        let fingerprint = data.fingerprint();
        Self::with_fingerprint(data, fingerprint, seed, cache)
    }

    /// [`Self::with_shared_cache`] with a caller-supplied fingerprint,
    /// skipping the full-scan [`Dataset::fingerprint`] at construction. The
    /// serving layer computes the fingerprint once at dataset registration
    /// (chaining it on appends — see [`dpx_data::fingerprint::chain_fingerprint`])
    /// and reuses it for every request, so per-request context construction
    /// is O(1) in the dataset size.
    ///
    /// The caller owns the coherence contract: `fingerprint` must uniquely
    /// identify `data`'s content (or content lineage) among all keys ever
    /// used with `cache`, else cached tables from a different dataset could
    /// be served.
    pub fn with_fingerprint(
        data: Arc<Dataset>,
        fingerprint: u64,
        seed: u64,
        cache: Arc<SharedCountsCache>,
    ) -> Self {
        ExplainContext {
            data,
            fingerprint,
            rng: StdRng::seed_from_u64(seed),
            cache,
        }
    }

    /// The dataset under explanation.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// A shared handle to the dataset.
    pub fn data_arc(&self) -> Arc<Dataset> {
        Arc::clone(&self.data)
    }

    /// The dataset's content fingerprint (computed at construction).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Simultaneous access to the dataset and the RNG — for callers (like the
    /// interactive session) that feed the data into a mechanism drawing from
    /// the context's randomness.
    pub fn data_and_rng(&mut self) -> (&Dataset, &mut StdRng) {
        (&self.data, &mut self.rng)
    }

    /// Number of memoized clusterings (in the possibly-shared cache).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The tables for a clustering: served from cache when the same
    /// `(dataset, labels)` pair was seen before, built (one data pass on the
    /// calling thread) and memoized otherwise. The second element reports
    /// whether it was a hit.
    pub fn tables(&mut self, labels: &[usize], n_clusters: usize) -> (Arc<CountedTables>, bool) {
        let key = CountsKey {
            dataset_fingerprint: self.fingerprint,
            labels_hash: hash_labels(labels, n_clusters),
        };
        let data = &self.data;
        self.cache.get_or_build(key, || {
            let counts = ClusteredCounts::build_parallel(data, labels, n_clusters, 1);
            let table = ScoreTable::from_clustered_counts(&counts);
            CountedTables { counts, table }
        })
    }
}

/// The staged pipeline runner: a configuration plus a Stage-2 kernel
/// selection.
///
/// Every stage runs on the calling thread. Stage-2 combination selection has
/// its own selector ([`with_stage2_kernel`](Self::with_stage2_kernel))
/// because switching its noise source changes which draws the master RNG
/// stream sees — the default `SequentialRng` preserves historical seeded
/// outputs exactly.
///
/// An optional [`CancelToken`] makes runs deadline-bounded: the engine polls
/// it **between** stages only — a stage boundary is the one place where no
/// mechanism is mid-flight, so stopping there releases nothing partial and
/// the privacy accounting of the completed stages stands as recorded.
#[derive(Debug, Clone)]
pub struct ExplainEngine {
    config: DpClustXConfig,
    stage2_kernel: Stage2Kernel,
    cancel: Option<CancelToken>,
}

impl ExplainEngine {
    /// An engine for `config`.
    pub fn new(config: DpClustXConfig) -> Self {
        ExplainEngine {
            config,
            stage2_kernel: Stage2Kernel::SequentialRng,
            cancel: None,
        }
    }

    /// Selects the Stage-2 combination-selection kernel.
    pub fn with_stage2_kernel(mut self, kernel: Stage2Kernel) -> Self {
        self.stage2_kernel = kernel;
        self
    }

    /// Attaches a cooperative cancellation token, polled at stage
    /// boundaries. A cancelled run returns [`DpError::Cancelled`]; ε already
    /// charged by completed stages stays spent (see the serving layer's
    /// reservation-before-work rule for why nothing is refunded).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &DpClustXConfig {
        &self.config
    }

    /// The Stage-2 kernel in use.
    pub fn stage2_kernel(&self) -> Stage2Kernel {
        self.stage2_kernel
    }

    /// Runs the full pipeline on a context with the paper's default
    /// (geometric) histogram mechanism, discarding observer events.
    pub fn explain(
        &self,
        ctx: &mut ExplainContext,
        labels: &[usize],
        n_clusters: usize,
    ) -> Result<Outcome, DpError> {
        self.explain_with_mechanism(
            ctx,
            labels,
            n_clusters,
            &GeometricHistogram,
            &mut NoopObserver,
        )
    }

    /// [`Self::explain`] reporting every stage to `observer`.
    pub fn explain_observed(
        &self,
        ctx: &mut ExplainContext,
        labels: &[usize],
        n_clusters: usize,
        observer: &mut dyn PipelineObserver,
    ) -> Result<Outcome, DpError> {
        self.explain_with_mechanism(ctx, labels, n_clusters, &GeometricHistogram, observer)
    }

    /// Full pipeline on a context with a custom histogram mechanism.
    pub fn explain_with_mechanism<M: HistogramMechanism + Sync>(
        &self,
        ctx: &mut ExplainContext,
        labels: &[usize],
        n_clusters: usize,
        mechanism: &M,
        observer: &mut dyn PipelineObserver,
    ) -> Result<Outcome, DpError> {
        let ExplainContext {
            data,
            fingerprint,
            rng,
            cache,
        } = ctx;
        let source = stages::Source::Build {
            data,
            labels,
            n_clusters,
            cache: Some(stages::CacheSlot {
                cache,
                fingerprint: *fingerprint,
                // Bound a follower's wait on another request's in-flight
                // build by this request's deadline, not just the stage
                // boundaries.
                cancel: self.cancel.clone(),
            }),
        };
        self.run(source, data.schema(), mechanism, rng, observer)
    }

    /// Full pipeline without a context: counts are built inside the
    /// `BuildCounts` stage but not memoized (no fingerprint scan either).
    /// This is what [`crate::framework::DpClustX::explain`] uses.
    pub fn explain_uncached<M: HistogramMechanism + Sync, R: Rng + ?Sized>(
        &self,
        data: &Dataset,
        labels: &[usize],
        n_clusters: usize,
        mechanism: &M,
        rng: &mut R,
        observer: &mut dyn PipelineObserver,
    ) -> Result<Outcome, DpError> {
        let source = stages::Source::Build {
            data,
            labels,
            n_clusters,
            cache: None,
        };
        self.run(source, data.schema(), mechanism, rng, observer)
    }

    /// Pipeline from caller-prepared contingency counts (the bench harness
    /// reuses one `ClusteredCounts` across many explainers). `BuildCounts`
    /// still runs — it derives the score table — but scans no data.
    pub fn explain_prepared<M: HistogramMechanism + Sync, R: Rng + ?Sized>(
        &self,
        schema: &Schema,
        counts: &ClusteredCounts,
        mechanism: &M,
        rng: &mut R,
        observer: &mut dyn PipelineObserver,
    ) -> Result<Outcome, DpError> {
        self.run(
            stages::Source::Prepared { counts },
            schema,
            mechanism,
            rng,
            observer,
        )
    }

    /// Runs the four stages over `source`, timing each, marking the
    /// accountant ledger at every boundary, and reporting the deltas.
    fn run<M: HistogramMechanism + Sync, R: Rng + ?Sized>(
        &self,
        source: stages::Source<'_>,
        schema: &Schema,
        mechanism: &M,
        rng: &mut R,
        observer: &mut dyn PipelineObserver,
    ) -> Result<Outcome, DpError> {
        let cap = Epsilon::new(self.config.total_epsilon())?;
        let mut state = EngineState {
            config: self.config,
            stage2_kernel: self.stage2_kernel,
            schema,
            source,
            mechanism,
            rng,
            accountant: Accountant::with_cap(cap),
            tables: None,
            candidates: None,
            assignment: None,
            explanation: None,
        };
        let pipeline: [&dyn Stage<M, R>; 4] = [
            &BuildCounts,
            &CandidateSelection,
            &CombinationSelection,
            &HistogramRelease,
        ];
        for stage in pipeline {
            if let Some(reason) = self.cancel.as_ref().and_then(|t| t.cancel_reason()) {
                return Err(DpError::Cancelled { reason });
            }
            let mark = state.accountant.mark();
            let start = Instant::now();
            let metrics = stage.run(&mut state)?;
            let wall = start.elapsed();
            observer.on_stage(StageEvent {
                stage: stage.name(),
                wall,
                epsilon: state.accountant.spent_since(&mark),
                charges: state.accountant.charges_since(&mark),
                metrics,
            });
        }
        Ok(Outcome {
            explanation: state
                .explanation
                .take()
                .expect("HistogramRelease always sets the explanation"),
            assignment: state
                .assignment
                .take()
                .expect("CombinationSelection always sets the assignment"),
            accountant: state.accountant,
        })
    }
}

#[cfg(test)]
mod cache_bound_tests {
    //! White-box tests for the bounded cache's eviction policy: they reach
    //! into the private `flight` set to hold a claim open, which no public
    //! API can do deterministically.

    use super::*;
    use dpx_data::synth::diabetes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(fingerprint: u64) -> CountsKey {
        CountsKey {
            dataset_fingerprint: fingerprint,
            labels_hash: 0,
        }
    }

    fn tables() -> CountedTables {
        let mut rng = StdRng::seed_from_u64(9);
        let data = diabetes::spec(2).generate(30, &mut rng).data;
        let labels: Vec<usize> = (0..30).map(|i| i % 2).collect();
        let counts = ClusteredCounts::build(&data, &labels, 2);
        let table = ScoreTable::from_clustered_counts(&counts);
        CountedTables { counts, table }
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = SharedCountsCache::with_max_entries(2);
        assert_eq!(cache.max_entries(), Some(2));
        cache.insert(key(0), tables());
        cache.insert(key(1), tables());
        // Touch key 0: key 1 becomes the least recently used.
        assert!(cache.get(&key(0)).is_some());
        cache.insert(key(2), tables());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(0)).is_some(), "recently used key survives");
        assert!(cache.get(&key(1)).is_none(), "LRU key was evicted");
        assert!(cache.get(&key(2)).is_some(), "fresh key is cached");
    }

    #[test]
    fn eviction_never_touches_a_key_with_an_open_flight() {
        let cache = SharedCountsCache::with_max_entries(1);
        let guard = match cache.flight.claim(&key(0)) {
            Claim::Leader(guard) => guard,
            Claim::Follower => unreachable!("first claim leads"),
        };
        // The leader publishes its tables while the flight is still open
        // (exactly what `get_or_build` does); churn from another key then
        // overruns the bound. The in-flight key must survive — a woken
        // follower has not read it yet — so the cache runs over the bound
        // rather than breaking the flight.
        cache.insert(key(0), tables());
        cache.insert(key(1), tables());
        assert_eq!(cache.len(), 2, "the in-flight key is not evictable");
        assert!(cache.get(&key(0)).is_some());
        drop(guard);
        // Flight closed: the bound is enforceable again on the next insert.
        cache.insert(key(2), tables());
        assert_eq!(cache.len(), 1);
        assert!(
            cache.get(&key(2)).is_some(),
            "newest insert is the survivor"
        );
    }

    #[test]
    fn unbounded_cache_keeps_the_historical_behavior() {
        let cache = SharedCountsCache::new();
        assert_eq!(cache.max_entries(), None);
        for fingerprint in 0..8 {
            cache.insert(key(fingerprint), tables());
        }
        assert_eq!(cache.len(), 8);
    }
}
