//! Order statistics with the benchmark's tail rule.

/// Nearest-rank `q`-quantile of an ascending slice (`q` in `(0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest quantile at most `want` that still leaves at least ten
/// samples beyond it, in whole tenths of a percent; the median when even
/// that is out of reach.
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    let mut permille = (want * 1000.0).round() as usize;
    while permille > 500 && beyond(n, permille as f64 / 1000.0) < 10 {
        permille -= 1;
    }
    permille as f64 / 1000.0
}

/// A latency summary: median, the supported tail, and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub p50: f64,
    /// The tail value, at quantile `q`.
    pub tail: f64,
    pub q: f64,
    pub n: usize,
}

/// Median and `want`-tail (by [`supported_quantile`]) of `samples`.
pub fn tail(samples: &[f64], want: f64) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = supported_quantile(sorted.len(), want);
    Tail {
        p50: quantile(&sorted, 0.5),
        tail: quantile(&sorted, q),
        q,
        n: sorted.len(),
    }
}

/// Most windows [`windowed_tail`] splits a run into.
const MAX_WINDOWS: usize = 15;

/// [`tail`] with the tail taken per window: `samples` (in send order) are
/// cut into as many consecutive windows as still each support `want` (at
/// most [`MAX_WINDOWS`]), and the tail is the lower quartile (nearest rank)
/// of the windows' tails. Interference from other tenants of the host only
/// adds latency, and it comes in spells that can last much of a run; a
/// spell then has to cover three quarters of the windows to move the
/// reported figure. With a single window this is exactly [`tail`].
pub fn windowed_tail(samples: &[f64], want: f64) -> Tail {
    let whole = tail(samples, want);
    let per_window = (10.0 / (1.0 - want)).ceil() as usize;
    let windows = (samples.len() / per_window).clamp(1, MAX_WINDOWS);
    if windows == 1 {
        return whole;
    }
    let size = samples.len() / windows;
    let tails: Vec<Tail> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            tail(&samples[w * size..end], want)
        })
        .collect();
    let mut sorted: Vec<f64> = tails.iter().map(|t| t.tail).collect();
    sorted.sort_by(f64::total_cmp);
    Tail {
        tail: quantile(&sorted, 0.25),
        q: tails.iter().map(|t| t.q).fold(1.0, f64::min),
        ..whole
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly ten above the 990th.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        assert_eq!(supported_quantile(5000, 0.99), 0.99);
        // 500 samples support p98 and no more.
        assert_eq!(supported_quantile(500, 0.99), 0.98);
        assert!(beyond(500, 0.98) >= 10 && beyond(500, 0.981) < 10);
        // Too few for any tail: fall back to the median.
        assert_eq!(supported_quantile(12, 0.99), 0.5);
    }

    #[test]
    fn windowed_tail_shrugs_off_a_long_spell_of_interference() {
        // 4000 samples: four windows of 1000, each supporting p99. A spell
        // of slow samples covers the second to fourth window.
        let mut samples = vec![1.0; 4000];
        for (i, s) in samples.iter_mut().enumerate() {
            *s += (i % 100) as f64 / 100.0;
        }
        for s in samples[1000..].iter_mut().step_by(50) {
            *s = 50.0;
        }
        let plain = tail(&samples, 0.99);
        let windowed = windowed_tail(&samples, 0.99);
        assert_eq!(plain.tail, 50.0, "the spell owns the whole-run p99");
        assert!(windowed.tail < 2.0, "got {}", windowed.tail);
        assert_eq!((windowed.q, windowed.n), (0.99, 4000));
        // Once every window is slow, the figure is slow too.
        for s in samples[..1000].iter_mut().step_by(50) {
            *s = 50.0;
        }
        assert_eq!(windowed_tail(&samples, 0.99).tail, 50.0);
        // Too few samples for two windows: the plain rule applies.
        let short = &samples[..1500];
        assert_eq!(windowed_tail(short, 0.99).tail, tail(short, 0.99).tail);
    }

    #[test]
    fn tail_reports_the_supported_percentile() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&samples, 0.99);
        assert_eq!(t.n, 200);
        assert_eq!(t.q, 0.95);
        assert_eq!(t.tail, 190.0);
        assert_eq!(t.p50, 100.0);
    }
}
