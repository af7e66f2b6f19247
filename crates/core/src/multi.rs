//! Multiple explanations per cluster (Appendix B of the paper).
//!
//! The extension generalizes an attribute combination to
//! `AC : C → {S ⊆ A : |S| = ℓ}`, scoring it with the extended global score
//! over the candidate set `Cand(AC) = {(c, A) : A ∈ AC(c)}`:
//! interestingness and sufficiency average over all `|C|·ℓ` pairs, and
//! diversity averages the pairwise `d` over all `binom(|C|·ℓ, 2)` pairs —
//! coinciding with Definition 4.8 at `ℓ = 1`. Stage-2's exponential mechanism
//! then ranges over `binom(k, ℓ)^|C|` combinations, with the correspondingly
//! larger EM error noted in the appendix.

use crate::counts::ScoreTable;
use crate::explanation::GlobalExplanation;
use crate::quality::diversity::pair_d;
use crate::quality::interestingness::int_p;
use crate::quality::score::Weights;
use crate::quality::sufficiency::suf_p;
use crate::stage2::generate_histograms;
use dpx_data::contingency::ClusteredCounts;
use dpx_data::Schema;
use dpx_dp::budget::{Accountant, Epsilon};
use dpx_dp::gumbel::sample_gumbel;
use dpx_dp::histogram::HistogramMechanism;
use dpx_dp::DpError;
use rand::Rng;

/// A multi-attribute combination: `assignment[c]` is the set of `ℓ`
/// attributes explaining cluster `c`.
pub type MultiCombination = Vec<Vec<usize>>;

/// The extended global score `GlScore_λ` of Appendix B. Coincides with
/// [`crate::quality::score::glscore`] when every cluster holds one attribute.
pub fn glscore_multi(st: &ScoreTable, assignment: &MultiCombination, w: Weights) -> f64 {
    let cand: Vec<(usize, usize)> = assignment
        .iter()
        .enumerate()
        .flat_map(|(c, attrs)| attrs.iter().map(move |&a| (c, a)))
        .collect();
    assert!(!cand.is_empty(), "assignment must contain candidates");
    let m = cand.len() as f64;
    let mut int_sum = 0.0;
    let mut suf_sum = 0.0;
    for &(c, a) in &cand {
        let t = st.attr(a);
        int_sum += int_p(t, c);
        suf_sum += suf_p(t, c);
    }
    let mut score = (w.int * int_sum + w.suf * suf_sum) / m;
    if cand.len() >= 2 && w.div > 0.0 {
        let pairs = (cand.len() * (cand.len() - 1) / 2) as f64;
        let mut div_sum = 0.0;
        for i in 0..cand.len() {
            for j in (i + 1)..cand.len() {
                let (c, a) = cand[i];
                let (c2, a2) = cand[j];
                div_sum += pair_d(st, c, c2, a, a2);
            }
        }
        score += w.div * div_sum / pairs;
    }
    score
}

/// All `ℓ`-subsets of `set`, preserving order.
fn subsets(set: &[usize], ell: usize) -> Vec<Vec<usize>> {
    fn recurse(
        set: &[usize],
        ell: usize,
        start: usize,
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if cur.len() == ell {
            out.push(cur.clone());
            return;
        }
        for i in start..set.len() {
            cur.push(set[i]);
            recurse(set, ell, i + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    let mut cur = Vec::new();
    recurse(set, ell, 0, &mut cur, &mut out);
    out
}

/// Stage-2 for the multi-explanation extension: the exponential mechanism
/// over `binom(k, ℓ)^|C|` subset combinations at `eps_top_comb`
/// (the extended `GlScore` keeps sensitivity ≤ 1, Appendix B).
pub fn select_multi_combination<R: Rng + ?Sized>(
    st: &ScoreTable,
    candidates: &[Vec<usize>],
    ell: usize,
    weights: Weights,
    eps_top_comb: Epsilon,
    rng: &mut R,
) -> Result<MultiCombination, DpError> {
    if candidates.is_empty() || candidates.iter().any(|s| s.len() < ell) || ell == 0 {
        return Err(DpError::NotEnoughCandidates {
            requested: ell,
            available: candidates.iter().map(Vec::len).min().unwrap_or(0),
        });
    }
    let per_cluster_subsets: Vec<Vec<Vec<usize>>> =
        candidates.iter().map(|s| subsets(s, ell)).collect();
    let factor = eps_top_comb.get() / 2.0;
    let n = candidates.len();
    let mut choice = vec![0usize; n];
    let mut best: Option<(f64, MultiCombination)> = None;
    loop {
        let combo: MultiCombination = choice
            .iter()
            .enumerate()
            .map(|(c, &i)| per_cluster_subsets[c][i].clone())
            .collect();
        let noisy = factor * glscore_multi(st, &combo, weights) + sample_gumbel(1.0, rng);
        if best.as_ref().is_none_or(|(bv, _)| noisy > *bv) {
            best = Some((noisy, combo));
        }
        // Odometer.
        let mut pos = n;
        loop {
            if pos == 0 {
                return Ok(best.expect("at least one combination").1);
            }
            pos -= 1;
            choice[pos] += 1;
            if choice[pos] < per_cluster_subsets[pos].len() {
                break;
            }
            choice[pos] = 0;
        }
    }
}

/// Histogram release for a multi-combination: `ℓ` explanations per cluster.
/// Full-data histograms for the distinct attributes spend `ε/2` sequentially;
/// each cluster's `ℓ` histograms spend `ε/(2ℓ)` each (sequential within a
/// cluster, parallel across clusters) — `ε_hist` total.
///
/// Returns one [`GlobalExplanation`] per explanation slot (slot `j` holds
/// every cluster's `j`-th histogram).
pub fn generate_multi_histograms<M: HistogramMechanism + Sync, R: Rng + ?Sized>(
    schema: &Schema,
    counts: &ClusteredCounts,
    assignment: &MultiCombination,
    eps_hist: Epsilon,
    mechanism: &M,
    accountant: &mut Accountant,
    rng: &mut R,
) -> Result<Vec<GlobalExplanation>, DpError> {
    let ell = assignment.first().map_or(0, Vec::len);
    assert!(
        ell > 0,
        "assignment must hold at least one attribute per cluster"
    );
    assert!(
        assignment.iter().all(|s| s.len() == ell),
        "all clusters must hold ℓ attributes"
    );
    // Budget: within a cluster the ℓ histograms compose sequentially, so give
    // each slot ε/(2ℓ); across clusters parallel composition applies. The
    // full-data histograms of slot j share the ε/(2|A'|) pool with all slots.
    let eps_slot = eps_hist.split(ell)?;
    let mut out = Vec::with_capacity(ell);
    for j in 0..ell {
        let slot_assignment: Vec<usize> = assignment.iter().map(|s| s[j]).collect();
        out.push(generate_histograms(
            schema,
            counts,
            &slot_assignment,
            eps_slot,
            mechanism,
            false,
            accountant,
            rng,
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::AttrCounts;
    use crate::quality::score::glscore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> ScoreTable {
        let a0 = AttrCounts::new(vec![vec![30.0, 0.0], vec![10.0, 20.0]], vec![40.0, 20.0]);
        let a1 = AttrCounts::new(vec![vec![15.0, 15.0], vec![0.0, 30.0]], vec![15.0, 45.0]);
        let a2 = AttrCounts::new(vec![vec![15.0, 15.0], vec![15.0, 15.0]], vec![30.0, 30.0]);
        ScoreTable::new(vec![a0, a1, a2])
    }

    #[test]
    fn ell_one_coincides_with_single_glscore() {
        let st = table();
        let w = Weights::equal();
        for asg in [[0usize, 1], [1, 2], [2, 0]] {
            let multi: MultiCombination = asg.iter().map(|&a| vec![a]).collect();
            let single = glscore(&st, &asg, w);
            let m = glscore_multi(&st, &multi, w);
            assert!((single - m).abs() < 1e-12, "{asg:?}: {single} vs {m}");
        }
    }

    #[test]
    fn subsets_enumerates_binomials() {
        let s = subsets(&[1, 2, 3, 4], 2);
        assert_eq!(s.len(), 6);
        assert!(s.contains(&vec![1, 4]));
        assert_eq!(subsets(&[1, 2], 2), vec![vec![1, 2]]);
    }

    #[test]
    fn multi_selection_prefers_signal_pairs_at_high_eps() {
        let st = table();
        let mut r = StdRng::seed_from_u64(1);
        let candidates = vec![vec![0usize, 1, 2], vec![0, 1, 2]];
        let sel = select_multi_combination(
            &st,
            &candidates,
            2,
            Weights::equal(),
            Epsilon::new(1e5).unwrap(),
            &mut r,
        )
        .unwrap();
        assert_eq!(sel.len(), 2);
        // Exhaustive check: no pair-combination scores higher.
        let best_score = glscore_multi(&st, &sel, Weights::equal());
        let all = subsets(&[0, 1, 2], 2);
        for s0 in &all {
            for s1 in &all {
                let combo = vec![s0.clone(), s1.clone()];
                assert!(
                    glscore_multi(&st, &combo, Weights::equal()) <= best_score + 1e-9,
                    "{combo:?} beats the selection"
                );
            }
        }
    }

    #[test]
    fn ell_larger_than_candidates_rejected() {
        let st = table();
        let mut r = StdRng::seed_from_u64(2);
        assert!(select_multi_combination(
            &st,
            &[vec![0, 1], vec![0, 1]],
            3,
            Weights::equal(),
            Epsilon::new(1.0).unwrap(),
            &mut r,
        )
        .is_err());
    }

    #[test]
    fn multi_histograms_spend_eps_hist() {
        use dpx_data::schema::{Attribute, Domain, Schema};
        use dpx_data::Dataset;
        use dpx_dp::histogram::GeometricHistogram;
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(2)).unwrap(),
            Attribute::new("y", Domain::indexed(2)).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..100)
            .map(|i| vec![(i % 2) as u32, (i / 2 % 2) as u32])
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let labels: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let counts = ClusteredCounts::build(&data, &labels, 2);
        let mut acc = Accountant::new();
        let mut r = StdRng::seed_from_u64(3);
        let assignment: MultiCombination = vec![vec![0, 1], vec![0, 1]];
        let out = generate_multi_histograms(
            data.schema(),
            &counts,
            &assignment,
            Epsilon::new(0.4).unwrap(),
            &GeometricHistogram,
            &mut acc,
            &mut r,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].per_cluster.len(), 2);
        assert!(
            acc.spent() <= 0.4 + 1e-9,
            "spent {} exceeds ε_hist",
            acc.spent()
        );
    }
}
