//! The four pipeline stages and the state record they thread.

use super::{CountedTables, CountsKey, SharedCountsCache};
use crate::counts::ScoreTable;
use crate::explanation::{AttributeCombination, GlobalExplanation};
use crate::framework::DpClustXConfig;
use crate::stage1::{select_candidates, CandidateSets};
use crate::stage2::{generate_histograms, select_combination_with_kernel, Stage2Kernel};
use dpx_data::contingency::ClusteredCounts;
use dpx_data::{hash_labels, Dataset, Schema};
use dpx_dp::budget::{Accountant, Epsilon};
use dpx_dp::histogram::HistogramMechanism;
use dpx_dp::DpError;
use dpx_runtime::CancelToken;
use rand::Rng;
use std::sync::Arc;

/// Stage name: counts/score-table acquisition.
pub const STAGE_BUILD_COUNTS: &str = "build-counts";
/// Stage name: per-cluster candidate selection (Algorithm 1).
pub const STAGE_CANDIDATES: &str = "candidate-selection";
/// Stage name: combination selection (Algorithm 2, line 5).
pub const STAGE_COMBINATION: &str = "combination-selection";
/// Stage name: noisy histogram release (Algorithm 2, lines 6–15).
pub const STAGE_HISTOGRAMS: &str = "histogram-release";

/// Where the `BuildCounts` stage gets its tables from.
pub(super) enum Source<'a> {
    /// Build from the raw dataset and labels, optionally memoizing.
    Build {
        /// The clustered dataset.
        data: &'a Dataset,
        /// Cluster label per row.
        labels: &'a [usize],
        /// Number of clusters.
        n_clusters: usize,
        /// Memoization slot, when running inside an [`super::ExplainContext`].
        cache: Option<CacheSlot<'a>>,
    },
    /// Counts were prepared by the caller; only the score table is derived.
    Prepared {
        /// Caller-owned contingency counts.
        counts: &'a ClusteredCounts,
    },
}

/// A borrowed view of a context's (possibly shared) counts cache.
pub(super) struct CacheSlot<'a> {
    /// The concurrency-safe memoization map.
    pub(super) cache: &'a SharedCountsCache,
    /// The dataset fingerprint half of the cache key.
    pub(super) fingerprint: u64,
    /// The request's cancellation token: bounds a follower's wait on another
    /// request's in-flight build of the same key.
    pub(super) cancel: Option<CancelToken>,
}

/// The tables the later stages read, however `BuildCounts` obtained them.
pub(super) enum Tables<'a> {
    /// Owned (possibly cache-shared) tables.
    Shared(Arc<CountedTables>),
    /// Caller-borrowed counts plus a freshly derived score table.
    Borrowed {
        counts: &'a ClusteredCounts,
        table: ScoreTable,
    },
}

impl Tables<'_> {
    fn counts(&self) -> &ClusteredCounts {
        match self {
            Tables::Shared(t) => &t.counts,
            Tables::Borrowed { counts, .. } => counts,
        }
    }

    fn table(&self) -> &ScoreTable {
        match self {
            Tables::Shared(t) => &t.table,
            Tables::Borrowed { table, .. } => table,
        }
    }
}

/// Mutable state threaded through one engine run. Each stage consumes the
/// products of its predecessors and fills in its own.
pub struct EngineState<'a, M: ?Sized, R: Rng + ?Sized> {
    pub(super) config: DpClustXConfig,
    pub(super) stage2_kernel: Stage2Kernel,
    pub(super) schema: &'a Schema,
    pub(super) source: Source<'a>,
    pub(super) mechanism: &'a M,
    pub(super) rng: &'a mut R,
    pub(super) accountant: Accountant,
    pub(super) tables: Option<Tables<'a>>,
    pub(super) candidates: Option<CandidateSets>,
    pub(super) assignment: Option<AttributeCombination>,
    pub(super) explanation: Option<GlobalExplanation>,
}

/// One step of the staged pipeline.
///
/// A stage reads its inputs from the [`EngineState`], performs its (possibly
/// privacy-charging) work, stores its product back into the state, and
/// returns its metric counters. Timing, ledger marking, and observer
/// notification happen in the engine's runner, outside the stage body.
pub trait Stage<M: HistogramMechanism + Sync, R: Rng + ?Sized> {
    /// The stage's name (one of the `STAGE_*` constants).
    fn name(&self) -> &'static str;

    /// Runs the stage, returning its metrics.
    fn run(&self, state: &mut EngineState<'_, M, R>) -> Result<Vec<(&'static str, f64)>, DpError>;
}

/// Stage 0: acquire the contingency counts and score table — from the
/// context cache when possible, by a one-pass scan otherwise. Charges no ε
/// (counts are an internal intermediate, never released).
pub struct BuildCounts;

impl<M: HistogramMechanism + Sync, R: Rng + ?Sized> Stage<M, R> for BuildCounts {
    fn name(&self) -> &'static str {
        STAGE_BUILD_COUNTS
    }

    fn run(&self, state: &mut EngineState<'_, M, R>) -> Result<Vec<(&'static str, f64)>, DpError> {
        let mut metrics = Vec::new();
        let tables = match &mut state.source {
            Source::Build {
                data,
                labels,
                n_clusters,
                cache,
            } => match cache {
                Some(slot) => {
                    let key = CountsKey {
                        dataset_fingerprint: slot.fingerprint,
                        labels_hash: hash_labels(labels, *n_clusters),
                    };
                    let (tables, hit) = slot
                        .cache
                        .get_or_build_cancellable(key, slot.cancel.as_ref(), || {
                            let counts =
                                ClusteredCounts::build_parallel(data, labels, *n_clusters, 1);
                            let table = ScoreTable::from_clustered_counts(&counts);
                            CountedTables { counts, table }
                        })
                        .map_err(|reason| DpError::Cancelled { reason })?;
                    metrics.push(("cache_hit", if hit { 1.0 } else { 0.0 }));
                    Tables::Shared(tables)
                }
                None => {
                    let counts = ClusteredCounts::build_parallel(data, labels, *n_clusters, 1);
                    let table = ScoreTable::from_clustered_counts(&counts);
                    Tables::Shared(Arc::new(CountedTables { counts, table }))
                }
            },
            Source::Prepared { counts } => {
                let table = ScoreTable::from_clustered_counts(counts);
                Tables::Borrowed { counts, table }
            }
        };
        metrics.push(("n_attributes", tables.counts().n_attributes() as f64));
        metrics.push(("n_clusters", tables.counts().n_clusters() as f64));
        state.tables = Some(tables);
        Ok(metrics)
    }
}

/// Stage 1 of the paper: per-cluster top-`k` candidate selection, charged
/// `ε_CandSet` under the label `stage1/select-candidates`.
pub struct CandidateSelection;

impl<M: HistogramMechanism + Sync, R: Rng + ?Sized> Stage<M, R> for CandidateSelection {
    fn name(&self) -> &'static str {
        STAGE_CANDIDATES
    }

    fn run(&self, state: &mut EngineState<'_, M, R>) -> Result<Vec<(&'static str, f64)>, DpError> {
        let EngineState {
            config,
            rng,
            accountant,
            tables,
            candidates,
            ..
        } = state;
        let eps_cand = Epsilon::new(config.eps_cand_set)?;
        let table = tables.as_ref().expect("BuildCounts ran").table();
        let sets = select_candidates(
            table,
            config.weights.gamma(),
            eps_cand,
            config.k,
            &mut **rng,
        )?;
        accountant.charge("stage1/select-candidates", eps_cand)?;
        let metrics = vec![
            ("candidate_sets", sets.len() as f64),
            (
                "candidates_total",
                sets.iter().map(Vec::len).sum::<usize>() as f64,
            ),
        ];
        *candidates = Some(sets);
        Ok(metrics)
    }
}

/// Stage 2 selection: the exponential mechanism (Gumbel-max) over all
/// `k^|C|` combinations, charged `ε_TopComb` under
/// `stage2/select-combination`, run on the engine's configured
/// [`Stage2Kernel`] (streaming reference or counter-based serial/parallel).
/// Reports how many combinations the enumeration covered — always the full
/// product space.
pub struct CombinationSelection;

impl<M: HistogramMechanism + Sync, R: Rng + ?Sized> Stage<M, R> for CombinationSelection {
    fn name(&self) -> &'static str {
        STAGE_COMBINATION
    }

    fn run(&self, state: &mut EngineState<'_, M, R>) -> Result<Vec<(&'static str, f64)>, DpError> {
        let EngineState {
            config,
            stage2_kernel,
            rng,
            accountant,
            tables,
            candidates,
            assignment,
            ..
        } = state;
        let eps_comb = Epsilon::new(config.eps_top_comb)?;
        let table = tables.as_ref().expect("BuildCounts ran").table();
        let sets = candidates.as_ref().expect("CandidateSelection ran");
        let (sel, leaves) = select_combination_with_kernel(
            table,
            sets,
            config.weights,
            eps_comb,
            *stage2_kernel,
            &mut **rng,
        )?;
        accountant.charge("stage2/select-combination", eps_comb)?;
        *assignment = Some(sel);
        Ok(vec![("combinations_enumerated", leaves as f64)])
    }
}

/// Histogram release: noisy full-data histograms per distinct selected
/// attribute (sequential composition) and per-cluster histograms (parallel
/// composition), charged `ε_Hist` in total. Fails with [`DpError::InvalidEpsilon`] when the
/// configuration carries no histogram budget (`eps_hist: None`).
pub struct HistogramRelease;

impl<M: HistogramMechanism + Sync, R: Rng + ?Sized> Stage<M, R> for HistogramRelease {
    fn name(&self) -> &'static str {
        STAGE_HISTOGRAMS
    }

    fn run(&self, state: &mut EngineState<'_, M, R>) -> Result<Vec<(&'static str, f64)>, DpError> {
        let EngineState {
            config,
            schema,
            mechanism,
            rng,
            accountant,
            tables,
            assignment,
            explanation,
            ..
        } = state;
        // A selection-only configuration has no histogram budget; surface the
        // same error an explicit `Epsilon::new(NaN)` would.
        let eps_hist = Epsilon::new(config.eps_hist.unwrap_or(f64::NAN))?;
        let t = tables.as_ref().expect("BuildCounts ran");
        let sel = assignment.as_ref().expect("CombinationSelection ran");
        let expl = generate_histograms(
            schema,
            t.counts(),
            sel,
            eps_hist,
            *mechanism,
            config.consistency,
            accountant,
            &mut **rng,
        )?;
        let mut distinct: Vec<usize> = sel.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let metrics = vec![
            ("distinct_attributes", distinct.len() as f64),
            ("histograms_released", (distinct.len() + sel.len()) as f64),
        ];
        *explanation = Some(expl);
        Ok(metrics)
    }
}
