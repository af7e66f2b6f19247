//! Stage 1 — Select-Candidates (Algorithm 1 of the paper).
//!
//! For every cluster `c`, privately select the top-`k` explanation attributes
//! by single-cluster score using the **one-shot top-k mechanism**: Gumbel
//! noise of scale `σ = 2k/ε_Topk` is added to each true score *once*, and the
//! `k` largest noisy scores win. Each cluster's selection spends
//! `ε_Topk = ε_CandSet / |C|`; parallel composition does **not** apply because
//! a cluster's score depends on the whole dataset (the marginal counts), as
//! the paper notes.

use crate::counts::ScoreTable;
use crate::quality::score::sscore;
use dpx_dp::budget::{Epsilon, Sensitivity};
use dpx_dp::topk::one_shot_top_k;
use dpx_dp::DpError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The candidate sets `S_{c_1}, …, S_{c_|C|}` produced by Algorithm 1, in
/// noisy-score order (best first).
pub type CandidateSets = Vec<Vec<usize>>;

/// Runs Algorithm 1: returns the per-cluster top-`k` candidate attribute
/// sets, satisfying `eps_cand_set`-DP overall (Proposition 5.1).
///
/// `gamma` is `(γ_Int, γ_Suf)` (non-negative, sum 1).
///
/// Per-cluster RNGs are split from `rng` *up front* (one `u64` seed per
/// cluster, drawn in cluster order), so every cluster's scoring-plus-top-k is
/// a pure function of its seed. Seeded outputs match every earlier release of
/// this stage, including the removed multi-threaded variant.
pub fn select_candidates<R: Rng + ?Sized>(
    st: &ScoreTable,
    gamma: (f64, f64),
    eps_cand_set: Epsilon,
    k: usize,
    rng: &mut R,
) -> Result<CandidateSets, DpError> {
    let n_clusters = st.n_clusters();
    let n_attrs = st.n_attributes();
    if k == 0 || k > n_attrs {
        return Err(DpError::NotEnoughCandidates {
            requested: k,
            available: n_attrs,
        });
    }
    // Line 1: ε_Topk ← ε_CandSet / |C|.
    let eps_topk = eps_cand_set.split(n_clusters)?;
    let seeds: Vec<u64> = (0..n_clusters).map(|_| rng.gen()).collect();
    // Lines 4–6: true scores; lines 5, 7–9 are the one-shot mechanism
    // (noise scale 2·Δ·k/ε_Topk is applied inside `one_shot_top_k`,
    // with Δ = 1 by Proposition 4.8).
    seeds
        .into_iter()
        .enumerate()
        .map(|(c, seed)| {
            let scores: Vec<f64> = (0..n_attrs).map(|a| sscore(st, c, a, gamma)).collect();
            let mut task_rng = StdRng::seed_from_u64(seed);
            one_shot_top_k(&scores, k, eps_topk, Sensitivity::ONE, &mut task_rng)
        })
        .collect()
}

/// Non-private variant used by the TabEE baseline and by diagnostics such as
/// the ranked-candidate view of Figure 4: exact top-`k` attributes per
/// cluster by true single-cluster score.
pub fn select_candidates_exact(st: &ScoreTable, gamma: (f64, f64), k: usize) -> CandidateSets {
    let n_attrs = st.n_attributes();
    let k = k.min(n_attrs);
    (0..st.n_clusters())
        .map(|c| {
            let mut scored: Vec<(usize, f64)> =
                (0..n_attrs).map(|a| (a, sscore(st, c, a, gamma))).collect();
            scored.sort_by(|x, y| y.1.total_cmp(&x.1));
            scored.into_iter().take(k).map(|(a, _)| a).collect()
        })
        .collect()
}

/// Full ranked list of `(attribute, score)` for one cluster, best first —
/// the data behind Figure 4's ranked candidates.
pub fn rank_attributes(st: &ScoreTable, c: usize, gamma: (f64, f64)) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> = (0..st.n_attributes())
        .map(|a| (a, sscore(st, c, a, gamma)))
        .collect();
    scored.sort_by(|x, y| y.1.total_cmp(&x.1));
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::AttrCounts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 2 clusters (sizes 100 / 200) × 4 attributes with *strictly* ordered
    /// single-cluster scores: attribute 0 best for both clusters, then 1,
    /// then 3, then 2. Unequal cluster sizes avoid the exact score ties that
    /// symmetric two-cluster tables produce.
    fn table() -> ScoreTable {
        let a0 = AttrCounts::new(
            vec![vec![90.0, 10.0], vec![80.0, 120.0]],
            vec![170.0, 130.0],
        );
        let a1 = AttrCounts::new(vec![vec![30.0, 70.0], vec![10.0, 190.0]], vec![40.0, 260.0]);
        let a2 = AttrCounts::new(
            vec![vec![50.0, 50.0], vec![100.0, 100.0]],
            vec![150.0, 150.0],
        );
        let a3 = AttrCounts::new(
            vec![vec![45.0, 55.0], vec![105.0, 95.0]],
            vec![150.0, 150.0],
        );
        ScoreTable::new(vec![a0, a1, a2, a3])
    }

    #[test]
    fn exact_selection_finds_signal_attributes() {
        let sets = select_candidates_exact(&table(), (0.5, 0.5), 2);
        assert_eq!(sets[0], vec![0, 1], "cluster 0's top-2 attributes");
        assert_eq!(sets[1], vec![0, 1], "cluster 1's top-2 attributes");
    }

    #[test]
    fn private_selection_matches_exact_at_high_epsilon() {
        let mut r = StdRng::seed_from_u64(1);
        let st = table();
        let sets =
            select_candidates(&st, (0.5, 0.5), Epsilon::new(10_000.0).unwrap(), 2, &mut r).unwrap();
        let exact = select_candidates_exact(&st, (0.5, 0.5), 2);
        assert_eq!(sets, exact);
    }

    #[test]
    fn private_selection_is_noisy_at_tiny_epsilon() {
        // With ε ≈ 0 every attribute should appear as the top candidate in
        // some run — the selection is near-uniform.
        let st = table();
        let eps = Epsilon::new(1e-6).unwrap();
        let mut seen = [false; 4];
        for seed in 0..200 {
            let mut r = StdRng::seed_from_u64(seed);
            let sets = select_candidates(&st, (0.5, 0.5), eps, 1, &mut r).unwrap();
            seen[sets[0][0]] = true;
        }
        assert!(seen.iter().all(|&s| s), "not near-uniform: {seen:?}");
    }

    #[test]
    fn returns_one_set_per_cluster_of_size_k() {
        let mut r = StdRng::seed_from_u64(3);
        let sets =
            select_candidates(&table(), (0.5, 0.5), Epsilon::new(1.0).unwrap(), 3, &mut r).unwrap();
        assert_eq!(sets.len(), 2);
        for s in &sets {
            assert_eq!(s.len(), 3);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "candidates must be distinct");
        }
    }

    #[test]
    fn k_zero_or_too_large_rejected() {
        let mut r = StdRng::seed_from_u64(4);
        let eps = Epsilon::new(1.0).unwrap();
        assert!(select_candidates(&table(), (0.5, 0.5), eps, 0, &mut r).is_err());
        assert!(select_candidates(&table(), (0.5, 0.5), eps, 5, &mut r).is_err());
    }

    #[test]
    fn rank_attributes_is_descending() {
        let ranked = rank_attributes(&table(), 0, (0.5, 0.5));
        assert_eq!(ranked.len(), 4);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(ranked[0].0, 0);
        assert_eq!(ranked[3].0, 2, "the flat attribute ranks last");
    }

    #[test]
    fn utility_bound_proposition_5_1_holds_empirically() {
        // With t = ln 20, P[score(selected) < OPT − (2|C|k/ε)(ln|A| + t)] ≤ 1/20.
        let st = table();
        let eps = Epsilon::new(1.0).unwrap();
        let k = 1;
        let gamma = (0.5, 0.5);
        let t: f64 = (20.0f64).ln();
        let bound = (2.0 * st.n_clusters() as f64 * k as f64 / eps.get())
            * ((st.n_attributes() as f64).ln() + t);
        let opt: f64 = rank_attributes(&st, 0, gamma)[0].1;
        let runs = 2_000;
        let mut violations = 0;
        for seed in 0..runs {
            let mut r = StdRng::seed_from_u64(seed);
            let sets = select_candidates(&st, gamma, eps, k, &mut r).unwrap();
            let got = sscore(&st, 0, sets[0][0], gamma);
            if got < opt - bound {
                violations += 1;
            }
        }
        assert!(
            (violations as f64 / runs as f64) <= 0.05 * 1.5,
            "{violations}/{runs} violations"
        );
    }
}
