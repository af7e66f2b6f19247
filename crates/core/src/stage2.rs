//! Stage 2 — global explanation (Algorithm 2 of the paper).
//!
//! Two private steps follow Stage-1's candidate sets:
//!
//! 1. **Combination selection** (line 5): the exponential mechanism over all
//!    `k^|C|` attribute combinations drawn from the candidate sets, scored by
//!    the sensitivity-1 `GlScore_λ`. Sampling uses the Gumbel-max trick so the
//!    full combination space is enumerated exactly once, with incremental
//!    partial scores — no `k^|C|`-sized allocation. Two kernels share that
//!    mechanism (selected by [`Stage2Kernel`]): the streaming
//!    [`select_combination_counted`] reference, and the counter-based
//!    [`select_combination_counter`], whose per-leaf PRF noise makes the leaf
//!    space prunable by an exact branch-and-bound bound. Both sweep on the
//!    calling thread: a range-partitioned multi-threaded counter sweep lost
//!    to the serial one at every measured point (2.64 ms vs 0.45 ms at
//!    c=9, k=4 on a 2-core host), so it was removed.
//! 2. **Histogram release** (lines 6–15): noisy full-data histograms for the
//!    *distinct* selected attributes at `ε_Hist/(2|A'|)` each (sequential
//!    composition), noisy in-cluster histograms at `ε_Hist/2` each (parallel
//!    composition across disjoint clusters), and out-of-cluster histograms by
//!    clamped subtraction (post-processing, free).

use crate::counts::ScoreTable;
use crate::explanation::{AttributeCombination, GlobalExplanation};
use crate::quality::score::{GlScoreCache, Weights};
use dpx_data::contingency::ClusteredCounts;
use dpx_data::Schema;
use dpx_dp::budget::{Accountant, Epsilon};
use dpx_dp::consistency::enforce_partition_consistency;
use dpx_dp::counter::{gumbel_at, GUMBEL_UNIT_MAX};
use dpx_dp::gumbel::sample_gumbel;
use dpx_dp::histogram::{subtract_clamped, HistogramMechanism};
use dpx_dp::DpError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Selects the noisy-best attribute combination from the candidate sets with
/// the exponential mechanism at `eps_top_comb` (Algorithm 2, line 5).
///
/// Returns the chosen attribute index per cluster.
pub fn select_combination<R: Rng + ?Sized>(
    st: &ScoreTable,
    candidates: &[Vec<usize>],
    weights: Weights,
    eps_top_comb: Epsilon,
    rng: &mut R,
) -> Result<AttributeCombination, DpError> {
    select_combination_counted(st, candidates, weights, eps_top_comb, rng).map(|(sel, _)| sel)
}

/// [`select_combination`] plus the number of combination leaves the
/// enumerator visited — which is exactly the number of Gumbel perturbations
/// drawn. The engine observer reports this figure, and tests use it to prove
/// the enumeration covers the whole `k^|C|` space without silently skipping
/// combinations.
///
/// The enumerator is **iterative**: an odometer over the candidate sets
/// (rightmost cluster fastest — the same lexicographic leaf order as the
/// recursive DFS kept as this function's test oracle) walking precomputed
/// per-level gain slices with running prefix sums. For each prefix of fixed
/// earlier choices, every candidate's marginal `GlScore` contribution at a
/// level is materialized once into a slice; the innermost loop is then a
/// slice read, one multiply-add, and one Gumbel draw per leaf — no
/// recursion, no per-leaf pair-term scan. The arithmetic reuses
/// [`GlScoreCache::marginal_gain`] with the same association order as the
/// DFS, so leaf scores, the Gumbel stream, and the argmax are all
/// bit-identical to the recursive reference (twin-RNG tested).
pub fn select_combination_counted<R: Rng + ?Sized>(
    st: &ScoreTable,
    candidates: &[Vec<usize>],
    weights: Weights,
    eps_top_comb: Epsilon,
    rng: &mut R,
) -> Result<(AttributeCombination, u64), DpError> {
    if candidates.is_empty() || candidates.iter().any(Vec::is_empty) {
        return Err(DpError::EmptyCandidateSet);
    }
    let cache = GlScoreCache::build(st, candidates, weights);
    // Exponential mechanism via Gumbel-max: argmax over combinations of
    // ε·GlScore/(2Δ) + Gumbel(1), with Δ = 1 (Proposition 4.9).
    let factor = eps_top_comb.get() / 2.0;
    let ks: Vec<usize> = candidates.iter().map(Vec::len).collect();
    let last = ks.len() - 1;
    let mut odo = Odometer::new(&cache, &ks);
    let mut best_choice = vec![0usize; ks.len()];
    let mut best_val = f64::NEG_INFINITY;
    let mut leaves = 0u64;
    loop {
        // Leaf sweep: all candidates of the last cluster under this prefix.
        let base = odo.prefix_sum[last];
        for (i, &gain) in odo.gains[last].iter().enumerate() {
            let noisy = factor * (base + gain) + sample_gumbel(1.0, rng);
            leaves += 1;
            if noisy > best_val {
                best_val = noisy;
                best_choice[..last].copy_from_slice(&odo.choice[..last]);
                best_choice[last] = i;
            }
        }
        // Odometer step over the prefix levels (rightmost fastest).
        let mut pos = last;
        loop {
            if pos == 0 {
                return Ok((to_attributes(candidates, &best_choice), leaves));
            }
            pos -= 1;
            odo.choice[pos] += 1;
            if odo.choice[pos] < ks[pos] {
                break;
            }
            odo.choice[pos] = 0;
        }
        odo.refresh_from(pos);
    }
}

/// Maps a per-cluster candidate-index choice to the attributes it names.
fn to_attributes(candidates: &[Vec<usize>], choice: &[usize]) -> AttributeCombination {
    choice
        .iter()
        .enumerate()
        .map(|(c, &i)| candidates[c][i])
        .collect()
}

/// Which enumeration kernel drives Stage-2 combination selection.
///
/// Both realize the *same* exponential-mechanism distribution (each leaf's
/// perturbation is one [`sample_gumbel`] draw); they differ in where the
/// noise comes from and therefore in what the enumerator is allowed to do
/// with the leaf space:
///
/// * [`SequentialRng`](Stage2Kernel::SequentialRng) — the streaming
///   reference: every leaf consumes the caller's RNG in leaf order, so the
///   sweep must visit every leaf. This is the historical behavior and stays
///   the default; all seeded-reproducibility guarantees of existing runs are
///   unchanged.
/// * [`CounterSerial`](Stage2Kernel::CounterSerial) — noise at leaf `i` is
///   the counter-based [`gumbel_at`]`(seed, i)`, a pure function, with one
///   fresh `seed` drawn from the caller's RNG per selection. Independence
///   across leaves lets the sweep prune: whole slices — and, at carry time,
///   whole subtrees — whose best possible score plus [`GUMBEL_UNIT_MAX`]
///   cannot beat the running best are skipped without computing their draws,
///   exact, not approximate (see [`select_combination_counter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stage2Kernel {
    /// Streaming Gumbel draws from the caller's sequential RNG (default).
    #[default]
    SequentialRng,
    /// Counter-based per-leaf noise with branch-and-bound pruning.
    CounterSerial,
}

impl Stage2Kernel {
    /// Parses a CLI/wire selector: `seq` (or `sequential`/`sequential-rng`)
    /// or `counter` (or `counter-serial`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "seq" | "sequential" | "sequential-rng" => Ok(Stage2Kernel::SequentialRng),
            "counter" | "counter-serial" => Ok(Stage2Kernel::CounterSerial),
            _ => Err(format!(
                "unknown stage2 kernel {s:?} (expected seq|counter)"
            )),
        }
    }

    /// Stable display/JSON label for this kernel.
    pub fn label(&self) -> &'static str {
        match self {
            Stage2Kernel::SequentialRng => "sequential-rng",
            Stage2Kernel::CounterSerial => "counter-serial",
        }
    }
}

/// [`select_combination_counted`] dispatched through a [`Stage2Kernel`].
///
/// `SequentialRng` consumes one RNG draw per leaf; `CounterSerial` consumes
/// exactly **one** `u64` (the PRF seed) regardless of leaf count.
pub fn select_combination_with_kernel<R: Rng + ?Sized>(
    st: &ScoreTable,
    candidates: &[Vec<usize>],
    weights: Weights,
    eps_top_comb: Epsilon,
    kernel: Stage2Kernel,
    rng: &mut R,
) -> Result<(AttributeCombination, u64), DpError> {
    match kernel {
        Stage2Kernel::SequentialRng => {
            select_combination_counted(st, candidates, weights, eps_top_comb, rng)
        }
        Stage2Kernel::CounterSerial => {
            select_combination_counter(st, candidates, weights, eps_top_comb, rng)
        }
    }
}

/// The Stage-2 enumerator state at the start of one last-cluster slice: the
/// mixed-radix choice vector, the per-level marginal-gain slices under the
/// current prefix, and their running left-fold prefix sums. Both kernels
/// walk it; they differ only in how they advance the prefix digits.
struct Odometer<'a> {
    cache: &'a GlScoreCache,
    choice: Vec<usize>,
    gains: Vec<Vec<f64>>,
    prefix_sum: Vec<f64>,
}

impl<'a> Odometer<'a> {
    /// The state at leaf 0: every digit zero, every gain slice and prefix
    /// sum built for that prefix.
    fn new(cache: &'a GlScoreCache, ks: &[usize]) -> Self {
        let n = ks.len();
        let choice = vec![0usize; n];
        let gains: Vec<Vec<f64>> = (0..n)
            .map(|c| {
                (0..ks[c])
                    .map(|i| cache.marginal_gain(&choice[..c], c, i))
                    .collect()
            })
            .collect();
        let mut prefix_sum = vec![0.0f64; n];
        for c in 1..n {
            prefix_sum[c] = prefix_sum[c - 1] + gains[c - 1][choice[c - 1]];
        }
        Odometer {
            cache,
            choice,
            gains,
            prefix_sum,
        }
    }

    /// Rebuilds the gain slices and prefix sums of every level right of
    /// `pos` after the digit at `pos` changed. Levels `..=pos` are
    /// untouched: their gains and prefix sums depend only on digits left of
    /// `pos`.
    fn refresh_from(&mut self, pos: usize) {
        let n = self.choice.len();
        for c in pos + 1..n {
            for (i, slot) in self.gains[c].iter_mut().enumerate() {
                *slot = self.cache.marginal_gain(&self.choice[..c], c, i);
            }
        }
        for c in pos + 1..n {
            self.prefix_sum[c] = self.prefix_sum[c - 1] + self.gains[c - 1][self.choice[c - 1]];
        }
    }
}

/// Counter-based Stage-2 combination selection (the `CounterSerial`
/// kernel): the exponential mechanism over the `k^|C|` combination space
/// via the Gumbel-max trick, with each leaf's perturbation derived from a
/// keyed PRF ([`gumbel_at`]) instead of a shared stream.
///
/// Exactly one `u64` (the PRF seed) is drawn from `rng`, after which every
/// leaf's noisy score is a pure function of its index. That independence
/// allows two levels of exact branch-and-bound pruning (a sequential stream
/// must draw every leaf's Gumbel just to keep later draws aligned):
///
/// * **Slice level** — a last-cluster slice whose best achievable noisy
///   value, `factor · (base + max gain) + GUMBEL_UNIT_MAX`, cannot exceed
///   the running best is skipped without computing any draw.
/// * **Subtree level** — at every carry, before the gain slices below the
///   carry position are refreshed, the whole `∏ ks[p+1..]`-leaf subtree is
///   bounded by folding the prefix-independent
///   [`GlScoreCache::gain_upper_bound`] maxima onto the fixed prefix sum in
///   the *same left-to-right order* the sweep itself accumulates gains; a
///   subtree that cannot beat the running best is skipped in O(1) — no gain
///   refresh, no draws — and the carry retries at the same position.
///
/// Both bounds are exact in floating point, not just in exact arithmetic:
/// each replaced term dominates its actual term, the folds run in identical
/// order, and IEEE addition and positive multiplication are monotone, so a
/// skipped leaf's noisy value could never have passed the strict `>` update.
/// The argmax and its earliest-leaf tie-breaking are therefore bit-identical
/// to the unpruned sweep (tested). Returns the selection and the size of
/// the enumerated space, as [`select_combination_counted`] does.
pub fn select_combination_counter<R: Rng + ?Sized>(
    st: &ScoreTable,
    candidates: &[Vec<usize>],
    weights: Weights,
    eps_top_comb: Epsilon,
    rng: &mut R,
) -> Result<(AttributeCombination, u64), DpError> {
    if candidates.is_empty() || candidates.iter().any(Vec::is_empty) {
        return Err(DpError::EmptyCandidateSet);
    }
    let cache = GlScoreCache::build(st, candidates, weights);
    let factor = eps_top_comb.get() / 2.0;
    let ks: Vec<usize> = candidates.iter().map(Vec::len).collect();
    let total = ks
        .iter()
        .try_fold(1u64, |acc, &k| acc.checked_mul(k as u64))
        .expect("combination space exceeds u64");
    let seed: u64 = rng.gen();
    // Per-cluster maxima of the prefix-independent gain bounds, and the
    // suffix subtree sizes (`subtree[c]` = leaves under a fixed prefix of
    // length `c`) — the inputs of the subtree pruning.
    let bounds: Vec<f64> = (0..ks.len())
        .map(|c| {
            (0..ks[c])
                .map(|i| cache.gain_upper_bound(c, i, &ks))
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    let mut subtree = vec![1u64; ks.len() + 1];
    for c in (0..ks.len()).rev() {
        subtree[c] = subtree[c + 1] * ks[c] as u64;
    }
    let last = ks.len() - 1;
    let mut odo = Odometer::new(&cache, &ks);
    let mut best_choice = vec![0usize; ks.len()];
    let mut best_val = f64::NEG_INFINITY;
    // Index of the first leaf under the current prefix.
    let mut leaf = 0u64;
    'sweep: loop {
        let base = odo.prefix_sum[last];
        let gains = &odo.gains[last];
        let gmax = gains.iter().fold(f64::NEG_INFINITY, |m, &g| m.max(g));
        if factor * (base + gmax) + GUMBEL_UNIT_MAX > best_val {
            for (i, &gain) in gains.iter().enumerate() {
                let noisy = factor * (base + gain) + gumbel_at(seed, leaf + i as u64, 1.0);
                if noisy > best_val {
                    best_val = noisy;
                    best_choice[..last].copy_from_slice(&odo.choice[..last]);
                    best_choice[last] = i;
                }
            }
        }
        leaf += ks[last] as u64;
        // Carry with subtree pruning: find the next prefix whose subtree
        // could still contain a winner, skipping hopeless ones wholesale.
        let mut pos = last;
        loop {
            if pos == 0 {
                break 'sweep;
            }
            pos -= 1;
            odo.choice[pos] += 1;
            if odo.choice[pos] == ks[pos] {
                odo.choice[pos] = 0;
                continue; // cascade the carry one position left
            }
            // `gains[pos]` and `prefix_sum[pos]` depend only on digits left
            // of `pos`, which this carry has not touched — both still valid.
            let mut b = odo.prefix_sum[pos] + odo.gains[pos][odo.choice[pos]];
            for &m in &bounds[pos + 1..] {
                b += m;
            }
            if factor * b + GUMBEL_UNIT_MAX <= best_val {
                // `leaf` sits on the subtree's first leaf; skip all of it
                // and retry the increment at this same position.
                leaf += subtree[pos + 1];
                pos += 1;
                continue;
            }
            break;
        }
        // The surviving carry position: restore the invariants below it.
        odo.refresh_from(pos);
    }
    Ok((to_attributes(candidates, &best_choice), total))
}

/// Exhaustive non-private argmax over the combination space — the TabEE
/// baseline's Stage-2 and the reference for tests.
pub fn select_combination_exact(
    st: &ScoreTable,
    candidates: &[Vec<usize>],
    weights: Weights,
) -> AttributeCombination {
    assert!(!candidates.is_empty() && candidates.iter().all(|s| !s.is_empty()));
    let cache = GlScoreCache::build(st, candidates, weights);
    let n = candidates.len();
    let mut best_choice = vec![0usize; n];
    let mut best_val = f64::NEG_INFINITY;
    let mut choice = vec![0usize; n];
    loop {
        let score = cache.glscore_cached(&choice);
        if score > best_val {
            best_val = score;
            best_choice.copy_from_slice(&choice);
        }
        // Odometer increment.
        let mut pos = n;
        loop {
            if pos == 0 {
                return to_attributes(candidates, &best_choice);
            }
            pos -= 1;
            choice[pos] += 1;
            if choice[pos] < candidates[pos].len() {
                break;
            }
            choice[pos] = 0;
        }
    }
}

/// Releases the noisy histograms for a selected combination (Algorithm 2,
/// lines 6–15) and assembles the global explanation. Spends exactly
/// `eps_hist`, recorded on `accountant`.
///
/// With `consistency` set, applies the Hay-et-al. partition-consistency
/// projection (free post-processing) whenever a single attribute explains
/// every cluster.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's parameter list
pub fn generate_histograms<M: HistogramMechanism + Sync, R: Rng + ?Sized>(
    schema: &Schema,
    counts: &ClusteredCounts,
    assignment: &AttributeCombination,
    eps_hist: Epsilon,
    mechanism: &M,
    consistency: bool,
    accountant: &mut Accountant,
    rng: &mut R,
) -> Result<GlobalExplanation, DpError> {
    let n_clusters = counts.n_clusters();
    assert_eq!(assignment.len(), n_clusters);

    // Line 6: distinct attributes A'.
    let mut distinct: Vec<usize> = assignment.clone();
    distinct.sort_unstable();
    distinct.dedup();

    // Line 7: ε_{hist,all} = ε_Hist/(2|A'|), ε_{hist,cluster} = ε_Hist/2.
    let eps_all = eps_hist.split(2)?.split(distinct.len())?;
    let eps_cluster = eps_hist.split(2)?;

    // Lines 8–10: full-data noisy histograms (sequential composition). One
    // seed per release is drawn up front, in distinct-attribute order, and
    // each release runs on its own `StdRng` — the draw order every seeded
    // output has been recorded with.
    let full_tasks: Vec<(usize, u64)> = distinct.iter().map(|&a| (a, rng.gen())).collect();
    let full_noisy: Vec<Vec<f64>> = full_tasks
        .into_iter()
        .map(|(a, seed)| {
            let h = counts.table(a).marginal_histogram();
            let mut task_rng = StdRng::seed_from_u64(seed);
            mechanism.privatize(h.counts(), eps_all, &mut task_rng)
        })
        .collect();
    let mut full: Vec<(usize, Vec<f64>)> = Vec::with_capacity(distinct.len());
    for (&a, noisy) in distinct.iter().zip(full_noisy) {
        accountant.charge(
            format!("stage2/hist-full/{}", schema.attribute(a).name),
            eps_all,
        )?;
        full.push((a, noisy));
    }

    // Lines 11–15: per-cluster noisy histograms (parallel composition
    // across disjoint clusters).
    let cluster_tasks: Vec<(usize, usize, u64)> = assignment
        .iter()
        .enumerate()
        .map(|(c, &a)| (c, a, rng.gen()))
        .collect();
    let mut cluster_noisy: Vec<Vec<f64>> = cluster_tasks
        .into_iter()
        .map(|(c, a, seed)| {
            let h_c = counts.table(a).cluster_histogram(c);
            let mut task_rng = StdRng::seed_from_u64(seed);
            mechanism.privatize(h_c.counts(), eps_cluster, &mut task_rng)
        })
        .collect();
    for c in 0..n_clusters {
        accountant.charge_parallel("stage2/hist-cluster", format!("c{c}"), eps_cluster)?;
    }

    // Optional consistency boost (Hay et al., cited by the paper): when one
    // attribute explains *every* cluster, the clusters partition the data and
    // Σ_c h^c = h_A holds for the true counts; projecting the noisy estimates
    // onto that constraint is free post-processing and reduces MSE.
    if consistency {
        for &a in &distinct {
            if !assignment.iter().all(|&aa| aa == a) {
                continue;
            }
            let mut children = std::mem::take(&mut cluster_noisy);
            let entry = full
                .iter_mut()
                .find(|(fa, _)| *fa == a)
                .expect("attribute is in the distinct set");
            entry.1 = enforce_partition_consistency(&entry.1, &mut children);
            cluster_noisy = children;
        }
    }

    // Clamped subtraction for the out-of-cluster histograms (post-processing).
    let mut hists = Vec::with_capacity(n_clusters);
    for (c, &a) in assignment.iter().enumerate() {
        let full_a = &full
            .iter()
            .find(|(fa, _)| *fa == a)
            .expect("assignment attributes are all in the distinct set")
            .1;
        let rest = subtract_clamped(full_a, &cluster_noisy[c]);
        let cluster: Vec<f64> = cluster_noisy[c].iter().map(|&v| v.max(0.0)).collect();
        hists.push((rest, cluster));
    }
    Ok(GlobalExplanation::from_histograms(
        schema, assignment, hists,
    ))
}

/// Exact (non-private) histograms for a combination — used by TabEE.
pub fn exact_histograms(
    schema: &Schema,
    counts: &ClusteredCounts,
    assignment: &AttributeCombination,
) -> GlobalExplanation {
    let hists = assignment
        .iter()
        .enumerate()
        .map(|(c, &a)| {
            let t = counts.table(a);
            let rest: Vec<f64> = t
                .complement_histogram(c)
                .counts()
                .iter()
                .map(|&x| x as f64)
                .collect();
            let cluster: Vec<f64> = t
                .cluster_histogram(c)
                .counts()
                .iter()
                .map(|&x| x as f64)
                .collect();
            (rest, cluster)
        })
        .collect();
    GlobalExplanation::from_histograms(schema, assignment, hists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::{AttrCounts, ScoreTable};
    use crate::quality::score::glscore;
    use dpx_data::schema::{Attribute, Domain};
    use dpx_data::Dataset;
    use dpx_dp::histogram::GeometricHistogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The historical recursive implementation of
    /// [`select_combination_counted`], kept as the oracle the iterative
    /// enumerator is twin-RNG tested against (identical Gumbel stream, leaf
    /// count, and argmax).
    fn select_combination_counted_recursive<R: Rng + ?Sized>(
        st: &ScoreTable,
        candidates: &[Vec<usize>],
        weights: Weights,
        eps_top_comb: Epsilon,
        rng: &mut R,
    ) -> Result<(AttributeCombination, u64), DpError> {
        if candidates.is_empty() || candidates.iter().any(Vec::is_empty) {
            return Err(DpError::EmptyCandidateSet);
        }
        let cache = GlScoreCache::build(st, candidates, weights);
        let factor = eps_top_comb.get() / 2.0;
        let n = candidates.len();
        let mut best_choice = vec![0usize; n];
        let mut best_val = f64::NEG_INFINITY;
        let mut prefix: Vec<usize> = Vec::with_capacity(n);
        let mut partial: Vec<f64> = Vec::with_capacity(n + 1);
        let mut leaves = 0u64;
        partial.push(0.0);
        dfs(
            &cache,
            candidates,
            factor,
            &mut prefix,
            &mut partial,
            &mut best_choice,
            &mut best_val,
            &mut leaves,
            rng,
        );
        Ok((to_attributes(candidates, &best_choice), leaves))
    }

    /// DFS over combination space, maintaining the running `GlScore` prefix
    /// sum; at each leaf draws the Gumbel perturbation and tracks the argmax.
    #[allow(clippy::too_many_arguments)]
    fn dfs<R: Rng + ?Sized>(
        cache: &GlScoreCache,
        candidates: &[Vec<usize>],
        factor: f64,
        prefix: &mut Vec<usize>,
        partial: &mut Vec<f64>,
        best_choice: &mut Vec<usize>,
        best_val: &mut f64,
        leaves: &mut u64,
        rng: &mut R,
    ) {
        let c = prefix.len();
        if c == candidates.len() {
            let score = *partial.last().expect("partial always has the root entry");
            let noisy = factor * score + sample_gumbel(1.0, rng);
            *leaves += 1;
            if noisy > *best_val {
                *best_val = noisy;
                best_choice.copy_from_slice(prefix);
            }
            return;
        }
        for i in 0..candidates[c].len() {
            let gain = cache.marginal_gain(prefix, c, i);
            prefix.push(i);
            partial.push(partial.last().expect("non-empty") + gain);
            dfs(
                cache,
                candidates,
                factor,
                prefix,
                partial,
                best_choice,
                best_val,
                leaves,
                rng,
            );
            prefix.pop();
            partial.pop();
        }
    }

    fn table() -> ScoreTable {
        // Unequal cluster sizes (100 / 200); attributes 0 and 1 carry signal,
        // attribute 2 is flat. NOTE: with exactly two clusters, swapping the
        // two attributes of a combination provably preserves GlScore (the
        // per-cluster Int_p deviations are negatives of each other and the
        // Suf_p cross-sums differ by the constant |D_1| − |D_0|), so tests
        // compare *scores*, not combination identity.
        let a0 = AttrCounts::new(
            vec![vec![90.0, 10.0], vec![80.0, 120.0]],
            vec![170.0, 130.0],
        );
        let a1 = AttrCounts::new(vec![vec![30.0, 70.0], vec![10.0, 190.0]], vec![40.0, 260.0]);
        let a2 = AttrCounts::new(
            vec![vec![50.0, 50.0], vec![100.0, 100.0]],
            vec![150.0, 150.0],
        );
        ScoreTable::new(vec![a0, a1, a2])
    }

    #[test]
    fn exact_selection_maximizes_glscore() {
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2], vec![0, 1, 2]];
        let best = select_combination_exact(&st, &candidates, w);
        let best_score = glscore(&st, &best, w);
        for i in 0..3usize {
            for j in 0..3usize {
                assert!(
                    glscore(&st, &[i, j], w) <= best_score + 1e-12,
                    "({i},{j}) beats the reported best"
                );
            }
        }
        assert!(!best.contains(&2), "the flat attribute must lose: {best:?}");
    }

    #[test]
    fn private_selection_matches_exact_at_high_epsilon() {
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2], vec![0, 1, 2]];
        let mut r = StdRng::seed_from_u64(5);
        let sel = select_combination(&st, &candidates, w, Epsilon::new(10_000.0).unwrap(), &mut r)
            .unwrap();
        // Tied optima (see table()) make combination identity fragile; the
        // achieved score must match the exact optimum.
        let exact = select_combination_exact(&st, &candidates, w);
        assert!(
            (glscore(&st, &sel, w) - glscore(&st, &exact, w)).abs() < 1e-9,
            "private pick {sel:?} is suboptimal vs {exact:?}"
        );
    }

    #[test]
    fn three_cluster_exact_selection_is_unique_argmax() {
        // With three clusters of distinct sizes the swap symmetry breaks and
        // the argmax is unique: verify identity, not just score.
        let a0 = AttrCounts::new(
            vec![vec![90.0, 10.0], vec![80.0, 120.0], vec![10.0, 40.0]],
            vec![180.0, 170.0],
        );
        let a1 = AttrCounts::new(
            vec![vec![30.0, 70.0], vec![10.0, 190.0], vec![45.0, 5.0]],
            vec![85.0, 265.0],
        );
        let a2 = AttrCounts::new(
            vec![vec![50.0, 50.0], vec![100.0, 100.0], vec![25.0, 25.0]],
            vec![175.0, 175.0],
        );
        let st = ScoreTable::new(vec![a0, a1, a2]);
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2]; 3];
        let best = select_combination_exact(&st, &candidates, w);
        let best_score = glscore(&st, &best, w);
        let mut strictly_better = 0;
        for i in 0..3usize {
            for j in 0..3usize {
                for l in 0..3usize {
                    let s = glscore(&st, &[i, j, l], w);
                    assert!(s <= best_score + 1e-12);
                    if (s - best_score).abs() < 1e-12 {
                        strictly_better += 1;
                    }
                }
            }
        }
        assert_eq!(strictly_better, 1, "argmax should be unique here");
        let mut r = StdRng::seed_from_u64(11);
        let sel =
            select_combination(&st, &candidates, w, Epsilon::new(1e5).unwrap(), &mut r).unwrap();
        assert_eq!(sel, best);
    }

    #[test]
    fn private_selection_distribution_matches_exponential_mechanism() {
        // Empirically compare the DFS Gumbel-max sampler against the closed
        // form softmax over GlScore.
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1], vec![0, 1]];
        let eps = Epsilon::new(0.2).unwrap();
        let cache = GlScoreCache::build(&st, &candidates, w);
        let mut logits = Vec::new();
        for i in 0..2usize {
            for j in 0..2usize {
                logits.push(eps.get() / 2.0 * cache.glscore_cached(&[i, j]));
            }
        }
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        let probs: Vec<f64> = exps.iter().map(|&e| e / z).collect();

        let n = 40_000;
        let mut hits = [0usize; 4];
        let mut r = StdRng::seed_from_u64(6);
        for _ in 0..n {
            let sel = select_combination(&st, &candidates, w, eps, &mut r).unwrap();
            let idx = sel[0] * 2 + sel[1];
            hits[idx] += 1;
        }
        for (idx, &h) in hits.iter().enumerate() {
            let emp = h as f64 / n as f64;
            assert!(
                (emp - probs[idx]).abs() < 0.015,
                "combo {idx}: empirical {emp} vs softmax {}",
                probs[idx]
            );
        }
    }

    #[test]
    fn dfs_agrees_with_exact_and_draws_one_gumbel_per_combination() {
        // Three clusters × k = 3 candidates ⇒ 27 combinations. At very large
        // ε the Gumbel perturbations cannot overturn the score ordering, so
        // the DFS must reproduce the exhaustive argmax; the leaf counter must
        // show the full k^|C| enumeration.
        let a0 = AttrCounts::new(
            vec![vec![90.0, 10.0], vec![80.0, 120.0], vec![10.0, 40.0]],
            vec![180.0, 170.0],
        );
        let a1 = AttrCounts::new(
            vec![vec![30.0, 70.0], vec![10.0, 190.0], vec![45.0, 5.0]],
            vec![85.0, 265.0],
        );
        let a2 = AttrCounts::new(
            vec![vec![50.0, 50.0], vec![100.0, 100.0], vec![25.0, 25.0]],
            vec![175.0, 175.0],
        );
        let st = ScoreTable::new(vec![a0, a1, a2]);
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2]; 3];
        let mut r = StdRng::seed_from_u64(21);
        let (sel, leaves) =
            select_combination_counted(&st, &candidates, w, Epsilon::new(1e7).unwrap(), &mut r)
                .unwrap();
        assert_eq!(sel, select_combination_exact(&st, &candidates, w));
        assert_eq!(leaves, 27, "DFS must visit all k^|C| = 3^3 combinations");
    }

    #[test]
    fn dfs_rng_consumption_is_exactly_one_gumbel_per_leaf() {
        // Twin RNGs from one seed: run the DFS on one, draw the claimed
        // number of Gumbels from the other by hand. If the streams still
        // agree afterwards, the DFS consumed *exactly* `leaves` Gumbel draws —
        // no combination was silently skipped, none double-sampled.
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2], vec![0, 1, 2]];
        let mut dfs_rng = StdRng::seed_from_u64(22);
        let mut twin = StdRng::seed_from_u64(22);
        let (_, leaves) = select_combination_counted(
            &st,
            &candidates,
            w,
            Epsilon::new(0.7).unwrap(),
            &mut dfs_rng,
        )
        .unwrap();
        assert_eq!(leaves, 9, "k^|C| = 3^2");
        for _ in 0..leaves {
            let _ = sample_gumbel(1.0, &mut twin);
        }
        assert_eq!(
            dfs_rng.gen::<u64>(),
            twin.gen::<u64>(),
            "RNG streams diverged: DFS draw count differs from its leaf count"
        );
    }

    /// Twin-RNG equivalence: the iterative enumerator and the recursive DFS
    /// reference, run from identically seeded RNGs, must visit the same
    /// number of leaves, pick the same combination, and leave their RNGs in
    /// the same state (⇒ they drew the identical Gumbel stream).
    #[test]
    fn iterative_enumerator_matches_recursive_dfs_stream() {
        let st = table();
        let w = Weights::equal();
        // Ragged candidate sets (different k per cluster) and ε spanning the
        // noise-dominated regime, so argmax agreement is a real check.
        let cases: Vec<Vec<Vec<usize>>> = vec![
            vec![vec![0, 1, 2], vec![0, 1, 2]],
            vec![vec![0, 1], vec![2, 0, 1]],
            vec![vec![2, 0], vec![1]],
        ];
        for candidates in &cases {
            let expect_leaves: u64 = candidates.iter().map(|s| s.len() as u64).product();
            for seed in [1u64, 5, 9, 13, 2025] {
                for eps in [0.3, 5.0, 1e6] {
                    let eps = Epsilon::new(eps).unwrap();
                    let mut it_rng = StdRng::seed_from_u64(seed);
                    let mut rec_rng = StdRng::seed_from_u64(seed);
                    let (it_sel, it_leaves) =
                        select_combination_counted(&st, candidates, w, eps, &mut it_rng).unwrap();
                    let (rec_sel, rec_leaves) =
                        select_combination_counted_recursive(&st, candidates, w, eps, &mut rec_rng)
                            .unwrap();
                    assert_eq!(it_leaves, expect_leaves, "iterative leaf count");
                    assert_eq!(rec_leaves, expect_leaves, "recursive leaf count");
                    assert_eq!(it_sel, rec_sel, "argmax diverged at seed {seed}");
                    assert_eq!(
                        it_rng.gen::<u64>(),
                        rec_rng.gen::<u64>(),
                        "RNG streams diverged at seed {seed}: different Gumbel draws"
                    );
                }
            }
        }
    }

    /// Three-cluster twin-RNG check (`k^|C|` = 27 leaves) — exercises
    /// multi-level odometer carries and gain-slice refreshes.
    #[test]
    fn iterative_enumerator_matches_recursive_dfs_three_clusters() {
        let a0 = AttrCounts::new(
            vec![vec![90.0, 10.0], vec![80.0, 120.0], vec![10.0, 40.0]],
            vec![180.0, 170.0],
        );
        let a1 = AttrCounts::new(
            vec![vec![30.0, 70.0], vec![10.0, 190.0], vec![45.0, 5.0]],
            vec![85.0, 265.0],
        );
        let a2 = AttrCounts::new(
            vec![vec![50.0, 50.0], vec![100.0, 100.0], vec![25.0, 25.0]],
            vec![175.0, 175.0],
        );
        let st = ScoreTable::new(vec![a0, a1, a2]);
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2]; 3];
        for seed in [3u64, 21, 77] {
            let eps = Epsilon::new(0.8).unwrap();
            let mut it_rng = StdRng::seed_from_u64(seed);
            let mut rec_rng = StdRng::seed_from_u64(seed);
            let (it_sel, it_leaves) =
                select_combination_counted(&st, &candidates, w, eps, &mut it_rng).unwrap();
            let (rec_sel, rec_leaves) =
                select_combination_counted_recursive(&st, &candidates, w, eps, &mut rec_rng)
                    .unwrap();
            assert_eq!(it_leaves, 27);
            assert_eq!(rec_leaves, 27);
            assert_eq!(it_sel, rec_sel, "seed {seed}");
            assert_eq!(it_rng.gen::<u64>(), rec_rng.gen::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn empty_candidate_sets_rejected() {
        let st = table();
        let mut r = StdRng::seed_from_u64(7);
        assert!(select_combination(
            &st,
            &[vec![0], vec![]],
            Weights::equal(),
            Epsilon::new(1.0).unwrap(),
            &mut r
        )
        .is_err());
        let mut r2 = StdRng::seed_from_u64(7);
        assert!(select_combination_counter(
            &st,
            &[vec![0], vec![]],
            Weights::equal(),
            Epsilon::new(1.0).unwrap(),
            &mut r2
        )
        .is_err());
    }

    fn three_cluster_table() -> ScoreTable {
        let a0 = AttrCounts::new(
            vec![vec![90.0, 10.0], vec![80.0, 120.0], vec![10.0, 40.0]],
            vec![180.0, 170.0],
        );
        let a1 = AttrCounts::new(
            vec![vec![30.0, 70.0], vec![10.0, 190.0], vec![45.0, 5.0]],
            vec![85.0, 265.0],
        );
        let a2 = AttrCounts::new(
            vec![vec![50.0, 50.0], vec![100.0, 100.0], vec![25.0, 25.0]],
            vec![175.0, 175.0],
        );
        ScoreTable::new(vec![a0, a1, a2])
    }

    /// The pruned counter sweep must pick — bit for bit — the leaf an
    /// unpruned enumeration of the same PRF noise picks, including on
    /// single-candidate levels and the degenerate 1-leaf space. The
    /// reference folds each leaf's gains left to right, the same
    /// association order as the sweep's prefix sums.
    #[test]
    fn counter_kernel_matches_unpruned_enumeration() {
        let two = table();
        let three = three_cluster_table();
        let cases: Vec<(&ScoreTable, Vec<Vec<usize>>)> = vec![
            (&three, vec![vec![0, 1, 2]; 3]),
            (&two, vec![vec![0, 1], vec![2, 0, 1]]),
            (&two, vec![vec![2, 0], vec![1]]), // single-candidate level
            (&two, vec![vec![1], vec![0]]),    // 1-leaf space
            (&three, vec![vec![2]; 3]),        // 1-leaf, three levels
        ];
        let w = Weights::equal();
        for (st, candidates) in &cases {
            let cache = GlScoreCache::build(st, candidates, w);
            let ks: Vec<usize> = candidates.iter().map(Vec::len).collect();
            let leaves: u64 = ks.iter().map(|&k| k as u64).product();
            for eps in [0.3, 5.0, 1e6] {
                let eps = Epsilon::new(eps).unwrap();
                for seed in [1u64, 17, 2026] {
                    let prf_seed: u64 = StdRng::seed_from_u64(seed).gen();
                    let mut best = (f64::NEG_INFINITY, Vec::new());
                    for leaf in 0..leaves {
                        let mut rem = leaf;
                        let mut choice = vec![0usize; ks.len()];
                        for c in (0..ks.len()).rev() {
                            choice[c] = (rem % ks[c] as u64) as usize;
                            rem /= ks[c] as u64;
                        }
                        let score = (0..ks.len()).fold(0.0, |acc, c| {
                            acc + cache.marginal_gain(&choice[..c], c, choice[c])
                        });
                        let noisy = eps.get() / 2.0 * score + gumbel_at(prf_seed, leaf, 1.0);
                        if noisy > best.0 {
                            best = (noisy, choice);
                        }
                    }
                    let mut rng = StdRng::seed_from_u64(seed);
                    let (sel, n) =
                        select_combination_counter(st, candidates, w, eps, &mut rng).unwrap();
                    assert_eq!(n, leaves);
                    assert_eq!(
                        sel,
                        to_attributes(candidates, &best.1),
                        "seed={seed} ks={ks:?}: pruned sweep diverged"
                    );
                }
            }
        }
    }

    /// Satellite: the counter-based sampler realizes the exponential-
    /// mechanism distribution — same harness as the streaming kernel's
    /// distribution test, compared against the closed-form softmax.
    #[test]
    fn counter_kernel_distribution_matches_exponential_mechanism() {
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1], vec![0, 1]];
        let eps = Epsilon::new(0.2).unwrap();
        let cache = GlScoreCache::build(&st, &candidates, w);
        let mut logits = Vec::new();
        for i in 0..2usize {
            for j in 0..2usize {
                logits.push(eps.get() / 2.0 * cache.glscore_cached(&[i, j]));
            }
        }
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        let probs: Vec<f64> = exps.iter().map(|&e| e / z).collect();

        let n = 40_000;
        let mut hits = [0usize; 4];
        let mut r = StdRng::seed_from_u64(6);
        for _ in 0..n {
            let (sel, _) = select_combination_with_kernel(
                &st,
                &candidates,
                w,
                eps,
                Stage2Kernel::CounterSerial,
                &mut r,
            )
            .unwrap();
            hits[sel[0] * 2 + sel[1]] += 1;
        }
        for (idx, &h) in hits.iter().enumerate() {
            let emp = h as f64 / n as f64;
            assert!(
                (emp - probs[idx]).abs() < 0.015,
                "combo {idx}: empirical {emp} vs softmax {}",
                probs[idx]
            );
        }
    }

    /// At overwhelming ε the pruned counter sweep must still find the exact
    /// argmax — this exercises the branch-and-bound skip path hard (nearly
    /// every slice is skipped once the optimum has been seen).
    #[test]
    fn counter_kernel_matches_exact_at_high_epsilon() {
        let st = three_cluster_table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2]; 3];
        let exact = select_combination_exact(&st, &candidates, w);
        let mut r = StdRng::seed_from_u64(33);
        let (sel, leaves) =
            select_combination_counter(&st, &candidates, w, Epsilon::new(1e7).unwrap(), &mut r)
                .unwrap();
        assert_eq!(sel, exact);
        assert_eq!(leaves, 27);
    }

    #[test]
    fn counter_kernels_consume_exactly_one_seed_draw() {
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2], vec![0, 1, 2]];
        let mut kernel_rng = StdRng::seed_from_u64(91);
        let mut twin = StdRng::seed_from_u64(91);
        select_combination_counter(
            &st,
            &candidates,
            w,
            Epsilon::new(0.5).unwrap(),
            &mut kernel_rng,
        )
        .unwrap();
        let _ = twin.gen::<u64>(); // the PRF seed
        assert_eq!(
            kernel_rng.gen::<u64>(),
            twin.gen::<u64>(),
            "counter kernel must consume exactly one u64"
        );
    }

    #[test]
    fn kernel_dispatch_sequential_matches_streaming_reference() {
        let st = table();
        let w = Weights::equal();
        let candidates = vec![vec![0usize, 1, 2], vec![0, 1, 2]];
        let eps = Epsilon::new(0.7).unwrap();
        let mut a = StdRng::seed_from_u64(55);
        let mut b = StdRng::seed_from_u64(55);
        let via_kernel = select_combination_with_kernel(
            &st,
            &candidates,
            w,
            eps,
            Stage2Kernel::SequentialRng,
            &mut a,
        )
        .unwrap();
        let direct = select_combination_counted(&st, &candidates, w, eps, &mut b).unwrap();
        assert_eq!(via_kernel, direct);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn stage2_kernel_parse_and_label_round_trip() {
        for (text, kernel) in [
            ("seq", Stage2Kernel::SequentialRng),
            ("sequential-rng", Stage2Kernel::SequentialRng),
            ("counter", Stage2Kernel::CounterSerial),
            ("counter-serial", Stage2Kernel::CounterSerial),
        ] {
            assert_eq!(Stage2Kernel::parse(text).unwrap(), kernel, "{text:?}");
            assert_eq!(Stage2Kernel::parse(kernel.label()).unwrap(), kernel);
        }
        for bad in ["", "gumbel", "seq/2", "counter-par", "counter-par/3"] {
            let err = Stage2Kernel::parse(bad).expect_err(bad);
            assert!(err.contains("seq|counter"), "{bad:?}: {err}");
        }
        assert_eq!(Stage2Kernel::SequentialRng.label(), "sequential-rng");
        assert_eq!(Stage2Kernel::CounterSerial.label(), "counter-serial");
    }

    fn small_dataset() -> (Dataset, Vec<usize>) {
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(2)).unwrap(),
            Attribute::new("y", Domain::indexed(3)).unwrap(),
        ])
        .unwrap();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            if i % 2 == 0 {
                rows.push(vec![0, (i % 3) as u32]);
                labels.push(0);
            } else {
                rows.push(vec![1, 2]);
                labels.push(1);
            }
        }
        (Dataset::from_rows(schema, &rows).unwrap(), labels)
    }

    #[test]
    fn histogram_stage_spends_exactly_eps_hist() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(8);
        let eps = Epsilon::new(0.4).unwrap();
        let expl = generate_histograms(
            data.schema(),
            &counts,
            &vec![0, 1],
            eps,
            &GeometricHistogram,
            false,
            &mut acc,
            &mut r,
        )
        .unwrap();
        assert_eq!(expl.per_cluster.len(), 2);
        // |A'| = 2 distinct attributes: 2 × ε/4 sequential + ε/2 parallel = ε.
        assert!(
            (acc.spent() - 0.4).abs() < 1e-9,
            "spent {} != 0.4",
            acc.spent()
        );
    }

    #[test]
    fn histogram_stage_repeated_attribute_shares_full_histogram() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(9);
        let eps = Epsilon::new(0.4).unwrap();
        generate_histograms(
            data.schema(),
            &counts,
            &vec![0, 0],
            eps,
            &GeometricHistogram,
            false,
            &mut acc,
            &mut r,
        )
        .unwrap();
        // |A'| = 1: full histogram at ε/2 once + cluster histograms ε/2 = ε.
        assert!((acc.spent() - 0.4).abs() < 1e-9, "spent {}", acc.spent());
        assert_eq!(acc.sequential_charges().count(), 1);
    }

    #[test]
    fn noisy_histograms_are_near_exact_at_high_epsilon() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(10);
        let noisy = generate_histograms(
            data.schema(),
            &counts,
            &vec![0, 1],
            Epsilon::new(1000.0).unwrap(),
            &GeometricHistogram,
            false,
            &mut acc,
            &mut r,
        )
        .unwrap();
        let exact = exact_histograms(data.schema(), &counts, &vec![0, 1]);
        for (n, e) in noisy.per_cluster.iter().zip(&exact.per_cluster) {
            for (a, b) in n.hist_cluster.iter().zip(&e.hist_cluster) {
                assert!((a - b).abs() <= 2.0, "cluster bin {a} vs exact {b}");
            }
            for (a, b) in n.hist_rest.iter().zip(&e.hist_rest) {
                assert!((a - b).abs() <= 4.0, "rest bin {a} vs exact {b}");
            }
        }
    }

    #[test]
    fn consistency_projection_makes_cluster_sums_match_full() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(12);
        // Both clusters explained by the same attribute → projection applies.
        let expl = generate_histograms(
            data.schema(),
            &counts,
            &vec![0, 0],
            Epsilon::new(0.5).unwrap(),
            &GeometricHistogram,
            true,
            &mut acc,
            &mut r,
        )
        .unwrap();
        // After the projection, rest + cluster reconstructs the adjusted full
        // histogram for every cluster, and both clusters agree on it (before
        // non-negativity clamping the identity is exact; with these counts no
        // clamping triggers at ε = 0.5 almost surely — assert with slack).
        for e in &expl.per_cluster {
            let recon: Vec<f64> = e
                .hist_rest
                .iter()
                .zip(&e.hist_cluster)
                .map(|(&a, &b)| a + b)
                .collect();
            let other = &expl.per_cluster[1 - e.cluster];
            let recon2: Vec<f64> = other
                .hist_rest
                .iter()
                .zip(&other.hist_cluster)
                .map(|(&a, &b)| a + b)
                .collect();
            for (x, y) in recon.iter().zip(&recon2) {
                assert!(
                    (x - y).abs() < 1e-6,
                    "full-histogram views disagree: {x} vs {y}"
                );
            }
        }
        // Budget unchanged by post-processing.
        assert!((acc.spent() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn consistency_reduces_error_on_shared_attribute() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2);
        let exact = exact_histograms(data.schema(), &counts, &vec![0, 0]);
        let error_of = |consistency: bool, seed: u64| -> f64 {
            let mut acc = Accountant::new();
            let mut r = StdRng::seed_from_u64(seed);
            let expl = generate_histograms(
                data.schema(),
                &counts,
                &vec![0, 0],
                Epsilon::new(0.3).unwrap(),
                &GeometricHistogram,
                consistency,
                &mut acc,
                &mut r,
            )
            .unwrap();
            expl.per_cluster
                .iter()
                .zip(&exact.per_cluster)
                .map(|(n, e)| {
                    n.hist_cluster
                        .iter()
                        .zip(&e.hist_cluster)
                        .map(|(&a, &b)| (a - b).powi(2))
                        .sum::<f64>()
                })
                .sum()
        };
        let runs = 300;
        let raw: f64 = (0..runs).map(|s| error_of(false, s)).sum();
        let adj: f64 = (0..runs).map(|s| error_of(true, s)).sum();
        assert!(
            adj < raw,
            "consistency should not hurt cluster-histogram MSE: {adj} vs {raw}"
        );
    }

    #[test]
    fn exact_histograms_match_contingency() {
        let (data, labels) = small_dataset();
        let counts = ClusteredCounts::build(&data, &labels, 2);
        let expl = exact_histograms(data.schema(), &counts, &vec![0, 0]);
        // Cluster 0 is all x=0 (150 tuples), rest all x=1.
        assert_eq!(expl.per_cluster[0].hist_cluster, vec![150.0, 0.0]);
        assert_eq!(expl.per_cluster[0].hist_rest, vec![0.0, 150.0]);
    }
}
