//! The Laplace distribution and the vector Laplace mechanism (Dwork et al.
//! 2006).

use crate::budget::{Epsilon, Sensitivity};
use rand::Rng;

/// Samples one draw from the Laplace distribution with location 0 and the
/// given `scale` (`b` in the usual parameterization; variance `2b²`).
///
/// Uses the inverse-CDF method: with `U ~ Uniform(-1/2, 1/2]`,
/// `X = -b · sign(U) · ln(1 − 2|U|)` is Laplace(0, b).
///
/// # Panics
/// Panics if `scale` is not finite and strictly positive.
pub fn sample_laplace<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    assert!(
        scale.is_finite() && scale > 0.0,
        "Laplace scale must be finite and > 0, got {scale}"
    );
    // gen::<f64>() is in [0, 1); shift to (-0.5, 0.5].
    let u = 0.5 - rng.gen::<f64>();
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Releases a whole vector under the Laplace mechanism where the *vector
/// query* has L1 sensitivity `Δ` (e.g. a histogram, where adding/removing one
/// tuple changes a single count by one, so `Δ = 1` for the entire vector).
pub fn laplace_mechanism_vec<R: Rng + ?Sized>(
    values: &[f64],
    eps: Epsilon,
    sensitivity: Sensitivity,
    rng: &mut R,
) -> Vec<f64> {
    let scale = sensitivity.get() / eps.get();
    values
        .iter()
        .map(|&v| v + sample_laplace(scale, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEADBEEF)
    }

    #[test]
    fn sample_mean_is_near_zero() {
        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| sample_laplace(1.0, &mut r)).sum::<f64>() / n as f64;
        // std of the mean is sqrt(2/n) ≈ 0.0032; allow 5 sigma.
        assert!(mean.abs() < 0.016, "mean {mean} too far from 0");
    }

    #[test]
    fn sample_variance_matches_two_b_squared() {
        let mut r = rng();
        let b = 2.5;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(b, &mut r)).collect();
        let var = samples.iter().map(|x| x * x).sum::<f64>() / n as f64;
        let expected = 2.0 * b * b;
        assert!(
            (var - expected).abs() / expected < 0.05,
            "variance {var} vs expected {expected}"
        );
    }

    #[test]
    fn sample_is_symmetric() {
        let mut r = rng();
        let n = 100_000;
        let positives = (0..n).filter(|_| sample_laplace(1.0, &mut r) > 0.0).count();
        let frac = positives as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "scale must be finite")]
    fn zero_scale_panics() {
        let mut r = rng();
        sample_laplace(0.0, &mut r);
    }

    #[test]
    fn mechanism_noise_scales_with_sensitivity_over_eps() {
        // Empirical mean absolute deviation of Laplace(b) is b.
        let mut r = rng();
        let eps = Epsilon::new(0.5).unwrap();
        let sens = Sensitivity::new(2.0).unwrap();
        let n = 100_000;
        let mad = laplace_mechanism_vec(&vec![10.0; n], eps, sens, &mut r)
            .iter()
            .map(|v| (v - 10.0).abs())
            .sum::<f64>()
            / n as f64;
        let expected_b = 2.0 / 0.5;
        assert!(
            (mad - expected_b).abs() / expected_b < 0.05,
            "MAD {mad} vs b {expected_b}"
        );
    }

    #[test]
    fn vec_mechanism_preserves_length() {
        let mut r = rng();
        let vals = vec![1.0, 2.0, 3.0, 4.0];
        let out =
            laplace_mechanism_vec(&vals, Epsilon::new(1.0).unwrap(), Sensitivity::ONE, &mut r);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn error_bound_holds_empirically() {
        let mut r = rng();
        let eps = Epsilon::new(1.0).unwrap();
        let beta: f64 = 0.05;
        // P(|Laplace(b)| > t) = exp(−t/b), so t = (Δ/ε) · ln(1/β).
        let bound = (1.0 / eps.get()) * (1.0 / beta).ln();
        let n = 100_000;
        let violations = (0..n)
            .filter(|_| sample_laplace(1.0, &mut r).abs() > bound)
            .count();
        let rate = violations as f64 / n as f64;
        // Rate should be ~beta; allow generous slack.
        assert!(rate < beta * 1.3, "violation rate {rate} vs beta {beta}");
        assert!(rate > beta * 0.7, "violation rate {rate} vs beta {beta}");
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(sample_laplace(1.0, &mut a), sample_laplace(1.0, &mut b));
        }
    }
}
