//! The exponential mechanism (McSherry–Talwar 2007), Definition 2.7 of the
//! paper.
//!
//! Given candidates with quality scores `q(D, r)` and sensitivity `Δ`, the
//! mechanism outputs candidate `r` with probability proportional to
//! `exp(ε·q(D,r) / (2Δ))` and satisfies `ε`-DP.
//!
//! Sampling is implemented through the Gumbel-max trick
//! (`argmax_i (ε·q_i/(2Δ) + Gumbel(1))`), which is numerically stable for any
//! score magnitude — no overflow from exponentiating large scores, no
//! underflow from tiny ones — and avoids computing the partition function.

use crate::budget::{Epsilon, Sensitivity};
use crate::error::DpError;
use crate::gumbel::sample_gumbel;
use rand::Rng;

/// Selects one index from `scores` with the exponential mechanism at privacy
/// level `eps` and score sensitivity `sensitivity`.
///
/// Returns the selected index, or an error on an empty/invalid candidate set.
pub fn exponential_mechanism<R: Rng + ?Sized>(
    scores: &[f64],
    eps: Epsilon,
    sensitivity: Sensitivity,
    rng: &mut R,
) -> Result<usize, DpError> {
    if scores.is_empty() {
        return Err(DpError::EmptyCandidateSet);
    }
    if let Some(index) = scores.iter().position(|s| !s.is_finite()) {
        return Err(DpError::NonFiniteScore { index });
    }
    let factor = eps.get() / (2.0 * sensitivity.get());
    let mut best = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    for (i, &q) in scores.iter().enumerate() {
        let noisy = factor * q + sample_gumbel(1.0, rng);
        if noisy > best_val {
            best_val = noisy;
            best = i;
        }
    }
    Ok(best)
}

/// Exact output probabilities of the exponential mechanism, computed in log
/// space with the log-sum-exp trick. Used by tests to verify the sampler and
/// exposed for analysis tooling.
pub fn exponential_mechanism_probabilities(
    scores: &[f64],
    eps: Epsilon,
    sensitivity: Sensitivity,
) -> Result<Vec<f64>, DpError> {
    if scores.is_empty() {
        return Err(DpError::EmptyCandidateSet);
    }
    if let Some(index) = scores.iter().position(|s| !s.is_finite()) {
        return Err(DpError::NonFiniteScore { index });
    }
    let factor = eps.get() / (2.0 * sensitivity.get());
    let logits: Vec<f64> = scores.iter().map(|&q| factor * q).collect();
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let z: f64 = exps.iter().sum();
    Ok(exps.into_iter().map(|e| e / z).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xABCDEF)
    }

    #[test]
    fn empty_candidates_rejected() {
        let mut r = rng();
        assert_eq!(
            exponential_mechanism(&[], Epsilon::new(1.0).unwrap(), Sensitivity::ONE, &mut r),
            Err(DpError::EmptyCandidateSet)
        );
    }

    #[test]
    fn nan_score_rejected() {
        let mut r = rng();
        let err = exponential_mechanism(
            &[1.0, f64::NAN, 2.0],
            Epsilon::new(1.0).unwrap(),
            Sensitivity::ONE,
            &mut r,
        )
        .unwrap_err();
        assert_eq!(err, DpError::NonFiniteScore { index: 1 });
    }

    #[test]
    fn single_candidate_always_selected() {
        let mut r = rng();
        for _ in 0..100 {
            let i = exponential_mechanism(
                &[42.0],
                Epsilon::new(0.01).unwrap(),
                Sensitivity::ONE,
                &mut r,
            )
            .unwrap();
            assert_eq!(i, 0);
        }
    }

    #[test]
    fn empirical_distribution_matches_exact_probabilities() {
        let mut r = rng();
        let scores = [0.0, 2.0, 4.0, 1.0];
        let eps = Epsilon::new(2.0).unwrap();
        let probs = exponential_mechanism_probabilities(&scores, eps, Sensitivity::ONE).unwrap();
        let n = 200_000;
        let mut hits = [0usize; 4];
        for _ in 0..n {
            hits[exponential_mechanism(&scores, eps, Sensitivity::ONE, &mut r).unwrap()] += 1;
        }
        for i in 0..4 {
            let emp = hits[i] as f64 / n as f64;
            assert!(
                (emp - probs[i]).abs() < 0.01,
                "candidate {i}: empirical {emp} vs exact {}",
                probs[i]
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one_and_order_by_score() {
        let probs = exponential_mechanism_probabilities(
            &[1.0, 5.0, 3.0],
            Epsilon::new(1.0).unwrap(),
            Sensitivity::ONE,
        )
        .unwrap();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs[1] > probs[2] && probs[2] > probs[0]);
    }

    #[test]
    fn huge_scores_do_not_overflow() {
        // Naive exp(ε q / 2Δ) would overflow at q = 1e6; log-space must not.
        let probs = exponential_mechanism_probabilities(
            &[1e6, 1e6 - 1.0, 0.0],
            Epsilon::new(1.0).unwrap(),
            Sensitivity::ONE,
        )
        .unwrap();
        assert!(probs.iter().all(|p| p.is_finite()));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Gap of 1 at ε=1, Δ=1 → odds e^{0.5} between first two.
        let odds = probs[0] / probs[1];
        assert!((odds - (0.5f64).exp()).abs() < 1e-9);
        let mut r = rng();
        let i = exponential_mechanism(
            &[1e6, 1e6 - 1.0, 0.0],
            Epsilon::new(1.0).unwrap(),
            Sensitivity::ONE,
            &mut r,
        )
        .unwrap();
        assert!(i < 2, "third candidate has ~0 probability");
    }

    #[test]
    fn low_epsilon_approaches_uniform() {
        let probs = exponential_mechanism_probabilities(
            &[0.0, 10.0],
            Epsilon::new(1e-9).unwrap(),
            Sensitivity::ONE,
        )
        .unwrap();
        assert!((probs[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn higher_sensitivity_flattens_distribution() {
        let eps = Epsilon::new(1.0).unwrap();
        let sharp =
            exponential_mechanism_probabilities(&[0.0, 4.0], eps, Sensitivity::ONE).unwrap();
        let flat =
            exponential_mechanism_probabilities(&[0.0, 4.0], eps, Sensitivity::new(10.0).unwrap())
                .unwrap();
        assert!(sharp[1] > flat[1]);
    }

    #[test]
    fn utility_bound_holds_empirically() {
        // With t = ln(20) the bound fails with prob ≤ 1/20.
        let mut r = rng();
        let scores: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let eps = Epsilon::new(1.0).unwrap();
        let t = (20.0f64).ln();
        // Theorem 3.11 of Dwork–Roth (Theorem 2.8 in the paper): with
        // probability at least 1 − e^{−t} the utility loss is at most
        // (2Δ/ε)(ln|R| + t).
        let bound = (2.0 / eps.get()) * ((scores.len() as f64).ln() + t);
        let n = 20_000;
        let violations = (0..n)
            .filter(|_| {
                let i = exponential_mechanism(&scores, eps, Sensitivity::ONE, &mut r).unwrap();
                scores[i] < 49.0 - bound
            })
            .count();
        let rate = violations as f64 / n as f64;
        assert!(rate <= 0.05 * 1.5, "violation rate {rate} > 1.5×(1/20)");
    }
}
