//! Differentially private histogram release — the paper's `M_hist`.
//!
//! A histogram over a fixed, data-independent domain has L1 sensitivity 1
//! under unbounded neighbors (one added/removed tuple changes exactly one
//! count by one), so per-bin independent noise of scale `1/ε` privatizes the
//! *entire* vector at cost `ε`. DPClustX treats the mechanism as a black box
//! ([`HistogramMechanism`]); we provide the two standard instantiations —
//! geometric (integer noise, what the paper's experiments use) and Laplace —
//! plus non-negativity clamping as free post-processing.

use crate::budget::{Epsilon, Sensitivity};
use crate::geometric::geometric_mechanism_vec;
use crate::laplace::laplace_mechanism_vec;
use rand::Rng;

/// A black-box `ε`-DP histogram mechanism, as assumed in §2.1 of the paper.
///
/// Implementations take exact bin counts over a data-independent domain and
/// return noisy counts while satisfying `ε`-DP. Outputs are `f64` so that both
/// integer and real-valued mechanisms fit; clamping to non-negative values is
/// performed by the caller when desired (post-processing, free of charge).
pub trait HistogramMechanism {
    /// Releases a noisy version of `counts` at privacy level `eps`.
    fn privatize<R: Rng + ?Sized>(&self, counts: &[u64], eps: Epsilon, rng: &mut R) -> Vec<f64>;

    /// A short name for reports and benchmark output.
    fn name(&self) -> &'static str;
}

/// The two-sided geometric mechanism of Ghosh et al. — integer noise, used by
/// the paper's experiments (via DiffPrivLib).
#[derive(Debug, Clone, Copy, Default)]
pub struct GeometricHistogram;

impl HistogramMechanism for GeometricHistogram {
    fn privatize<R: Rng + ?Sized>(&self, counts: &[u64], eps: Epsilon, rng: &mut R) -> Vec<f64> {
        let ints: Vec<i64> = counts
            .iter()
            .map(|&c| c.min(i64::MAX as u64) as i64)
            .collect();
        geometric_mechanism_vec(&ints, eps, Sensitivity::ONE, rng)
            .into_iter()
            .map(|v| v as f64)
            .collect()
    }

    fn name(&self) -> &'static str {
        "geometric"
    }
}

/// The continuous Laplace mechanism.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaplaceHistogram;

impl HistogramMechanism for LaplaceHistogram {
    fn privatize<R: Rng + ?Sized>(&self, counts: &[u64], eps: Epsilon, rng: &mut R) -> Vec<f64> {
        let vals: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        laplace_mechanism_vec(&vals, eps, Sensitivity::ONE, rng)
    }

    fn name(&self) -> &'static str {
        "laplace"
    }
}

/// Clamps noisy counts at zero — post-processing (Proposition 2.1), so it
/// costs no privacy and can only improve accuracy for true counts ≥ 0.
pub fn clamp_non_negative(noisy: &mut [f64]) {
    for v in noisy.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Subtracts histogram `b` from `a` bin-wise and clamps negatives at zero —
/// how Algorithm 2 (line 13) derives the out-of-cluster histogram `h^{-c}`
/// from the full-data and in-cluster noisy histograms. Pure post-processing.
///
/// # Panics
/// Panics if the histograms have different lengths.
pub fn subtract_clamped(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "histogram domains must match");
    a.iter().zip(b).map(|(&x, &y)| (x - y).max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x415)
    }

    #[test]
    fn geometric_output_is_integral_and_centered() {
        let mut r = rng();
        let counts = vec![100u64; 8];
        let eps = Epsilon::new(1.0).unwrap();
        let mech = GeometricHistogram;
        let mut sums = vec![0.0; 8];
        let n = 5_000;
        for _ in 0..n {
            let noisy = mech.privatize(&counts, eps, &mut r);
            assert_eq!(noisy.len(), 8);
            for v in &noisy {
                assert_eq!(v.fract(), 0.0, "geometric noise must be integral");
            }
            for (s, v) in sums.iter_mut().zip(&noisy) {
                *s += v;
            }
        }
        for s in sums {
            let mean = s / n as f64;
            assert!((mean - 100.0).abs() < 0.5, "bin mean {mean}");
        }
    }

    #[test]
    fn laplace_output_centered() {
        let mut r = rng();
        let counts = vec![50u64, 0, 200];
        let eps = Epsilon::new(2.0).unwrap();
        let mech = LaplaceHistogram;
        let n = 20_000;
        let mut sums = [0.0; 3];
        for _ in 0..n {
            for (s, v) in sums.iter_mut().zip(mech.privatize(&counts, eps, &mut r)) {
                *s += v;
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / n as f64).collect();
        assert!((means[0] - 50.0).abs() < 0.2);
        assert!(means[1].abs() < 0.2);
        assert!((means[2] - 200.0).abs() < 0.2);
    }

    #[test]
    fn clamp_zeroes_negatives_only() {
        let mut v = vec![-3.0, 0.0, 2.5];
        clamp_non_negative(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 2.5]);
    }

    #[test]
    fn subtract_clamped_matches_paper_line_13() {
        let full = vec![10.0, 5.0, 1.0];
        let cluster = vec![4.0, 7.0, 0.5];
        assert_eq!(subtract_clamped(&full, &cluster), vec![6.0, 0.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "domains must match")]
    fn subtract_mismatched_lengths_panics() {
        subtract_clamped(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn tighter_epsilon_means_noisier_bins() {
        let mut r = rng();
        let counts = vec![1000u64; 4];
        let mech = GeometricHistogram;
        let err = |eps: f64, r: &mut StdRng| -> f64 {
            let e = Epsilon::new(eps).unwrap();
            (0..2000)
                .map(|_| {
                    mech.privatize(&counts, e, r)
                        .iter()
                        .zip(&counts)
                        .map(|(n, &c)| (n - c as f64).abs())
                        .sum::<f64>()
                })
                .sum::<f64>()
                / 2000.0
        };
        let loose = err(0.05, &mut r);
        let tight = err(5.0, &mut r);
        assert!(loose > 10.0 * tight, "loose {loose} vs tight {tight}");
    }

    #[test]
    fn huge_counts_do_not_overflow() {
        let mut r = rng();
        let counts = vec![u64::MAX, 0];
        let eps = Epsilon::new(0.1).unwrap();
        let out = GeometricHistogram.privatize(&counts, eps, &mut r);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
