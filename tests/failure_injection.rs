//! Failure injection: the pipeline must stay well-formed (and never panic)
//! when its pluggable components misbehave — an adversarial histogram
//! mechanism returning garbage, degenerate weights, and hostile inputs.

use dpclustx::framework::{DpClustX, DpClustXConfig};
use dpclustx::stage2::generate_histograms;
use dpclustx_suite::prelude::*;
use dpx_data::contingency::ClusteredCounts;
use dpx_dp::histogram::HistogramMechanism;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A hostile `M_hist`: returns huge negatives, zeros, and giant positives
/// regardless of the input (it is still "a mechanism" API-wise; DPClustX must
/// treat it as a black box and keep its outputs well-formed).
struct ChaosHistogram;

impl HistogramMechanism for ChaosHistogram {
    fn privatize<R: Rng + ?Sized>(&self, counts: &[u64], _eps: Epsilon, rng: &mut R) -> Vec<f64> {
        counts
            .iter()
            .map(|_| match rng.gen_range(0..3) {
                0 => -1e12,
                1 => 0.0,
                _ => 1e12,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "chaos"
    }
}

fn world() -> (Dataset, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(3);
    let synth = synth::diabetes::spec(2).generate(1_000, &mut rng);
    let labels = synth.latent_groups.clone();
    (synth.data, labels)
}

#[test]
fn chaos_mechanism_yields_well_formed_explanations() {
    let (data, labels) = world();
    let mut rng = StdRng::seed_from_u64(4);
    let outcome = DpClustX::new(DpClustXConfig::default())
        .explain_with_mechanism(&data, &labels, 2, &ChaosHistogram, &mut rng)
        .unwrap();
    for e in &outcome.explanation.per_cluster {
        assert_eq!(
            e.hist_cluster.len(),
            data.schema().attribute(e.attribute).domain.size()
        );
        // Clamping keeps every released value non-negative and finite.
        assert!(e.hist_cluster.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(e.hist_rest.iter().all(|v| v.is_finite() && *v >= 0.0));
        // Rendering and description generation must not panic on garbage.
        let _ = e.render();
        let _ = dpclustx::text::describe(e);
    }
}

#[test]
fn chaos_mechanism_with_consistency_projection_stays_finite() {
    let (data, labels) = world();
    let counts = ClusteredCounts::build(&data, &labels, 2);
    let mut acc = Accountant::new();
    let mut rng = StdRng::seed_from_u64(5);
    let expl = generate_histograms(
        data.schema(),
        &counts,
        &vec![0, 0],
        Epsilon::new(0.3).unwrap(),
        &ChaosHistogram,
        true, // consistency projection over garbage inputs
        &mut acc,
        &mut rng,
    )
    .unwrap();
    for e in &expl.per_cluster {
        assert!(e.hist_cluster.iter().all(|v| v.is_finite()));
        assert!(e.hist_rest.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn extreme_weights_still_produce_explanations() {
    let (data, labels) = world();
    for weights in [
        Weights::new(1.0, 0.0, 0.0),
        Weights::new(0.0, 1.0, 0.0),
        Weights::new(0.0, 0.0, 1.0),
    ] {
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = DpClustXConfig {
            weights,
            ..Default::default()
        };
        let outcome = DpClustX::new(cfg)
            .explain(&data, &labels, 2, &mut rng)
            .unwrap();
        assert_eq!(outcome.explanation.per_cluster.len(), 2);
    }
}

#[test]
fn k_exceeding_attribute_count_is_a_clean_error() {
    let (data, labels) = world();
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = DpClustXConfig {
        k: 500, // > 47 attributes
        ..Default::default()
    };
    let err = DpClustX::new(cfg)
        .explain(&data, &labels, 2, &mut rng)
        .unwrap_err();
    assert!(matches!(err, dpx_dp::DpError::NotEnoughCandidates { .. }));
}

#[test]
fn all_identical_tuples_are_survivable() {
    // Zero-variance data: every quality score ties at its floor; the
    // pipeline must still produce a structurally valid explanation.
    let mut rng = StdRng::seed_from_u64(8);
    let schema = dpx_data::Schema::new(vec![
        dpx_data::Attribute::new("a", dpx_data::schema::Domain::indexed(3)).unwrap(),
        dpx_data::Attribute::new("b", dpx_data::schema::Domain::indexed(2)).unwrap(),
        dpx_data::Attribute::new("c", dpx_data::schema::Domain::indexed(4)).unwrap(),
    ])
    .unwrap();
    let rows = vec![vec![1u32, 0, 2]; 200];
    let data = Dataset::from_rows(schema, &rows).unwrap();
    let labels: Vec<usize> = (0..200).map(|i| i % 2).collect();
    let outcome = DpClustX::new(DpClustXConfig::default())
        .explain(&data, &labels, 2, &mut rng)
        .unwrap();
    assert_eq!(outcome.explanation.per_cluster.len(), 2);
}
