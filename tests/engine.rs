//! Acceptance tests for the staged explanation engine: the observer seam,
//! counts-cache reuse, and prepared-counts equivalence.

use dpclustx::engine::{
    CollectingObserver, ExplainContext, ExplainEngine, STAGE_BUILD_COUNTS, STAGE_CANDIDATES,
    STAGE_COMBINATION, STAGE_HISTOGRAMS,
};
use dpclustx::framework::{DpClustXConfig, Outcome};
use dpclustx_suite::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(rows: usize, seed: u64) -> (Dataset, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let synth = synth::diabetes::spec(3).generate(rows, &mut rng);
    let labels = synth.latent_groups.clone();
    (synth.data, labels)
}

fn assert_outcomes_identical(a: &Outcome, b: &Outcome) {
    assert_eq!(a.assignment, b.assignment, "selected attributes differ");
    assert_eq!(
        a.explanation.per_cluster.len(),
        b.explanation.per_cluster.len()
    );
    for (ea, eb) in a
        .explanation
        .per_cluster
        .iter()
        .zip(&b.explanation.per_cluster)
    {
        assert_eq!(ea.cluster, eb.cluster);
        assert_eq!(ea.attribute, eb.attribute);
        assert_eq!(ea.attribute_name, eb.attribute_name);
        assert_eq!(ea.hist_cluster, eb.hist_cluster, "cluster {}", ea.cluster);
        assert_eq!(ea.hist_rest, eb.hist_rest, "cluster {}", ea.cluster);
    }
    assert!((a.accountant.spent() - b.accountant.spent()).abs() < 1e-15);
}

/// The observer acceptance criterion: a default run reports all four stages
/// in pipeline order and the per-stage ε deltas sum to the configured total
/// within 1e-9.
#[test]
fn observer_reports_four_stages_summing_to_total_epsilon() {
    let (data, labels) = setup(1_500, 42);
    let config = DpClustXConfig::default();
    let mut ctx = ExplainContext::new(data, 9);
    let mut observer = CollectingObserver::new();
    let outcome = ExplainEngine::new(config)
        .explain_observed(&mut ctx, &labels, 3, &mut observer)
        .unwrap();

    let stages: Vec<&str> = observer.events().iter().map(|e| e.stage).collect();
    assert_eq!(
        stages,
        vec![
            STAGE_BUILD_COUNTS,
            STAGE_CANDIDATES,
            STAGE_COMBINATION,
            STAGE_HISTOGRAMS
        ]
    );
    // Stage ε deltas telescope to the accountant's total spend and to the
    // configured budget.
    assert!((observer.total_epsilon() - config.total_epsilon()).abs() < 1e-9);
    assert!((observer.total_epsilon() - outcome.accountant.spent()).abs() < 1e-9);
    // Building counts is free; each later stage charges something.
    assert_eq!(observer.events()[0].epsilon, 0.0);
    for e in &observer.events()[1..] {
        assert!(e.epsilon > 0.0, "stage {} charged nothing", e.stage);
        assert!(
            !e.charges.is_empty(),
            "stage {} has no ledger rows",
            e.stage
        );
    }
    // The rendered report names every stage.
    let report = observer.report();
    for stage in stages {
        assert!(report.contains(stage), "report missing {stage}");
    }
}

/// The context memoizes the count tables: the second explanation of the same
/// clustering reports a cache hit and skips the data scan.
#[test]
fn context_counts_cache_hits_on_repeat_explanations() {
    let (data, labels) = setup(1_200, 43);
    let config = DpClustXConfig::default();
    let mut ctx = ExplainContext::new(data, 11);
    let engine = ExplainEngine::new(config);

    let cache_hit = |obs: &CollectingObserver| -> f64 {
        obs.events()[0]
            .metrics
            .iter()
            .find(|(k, _)| *k == "cache_hit")
            .expect("build-counts reports cache_hit")
            .1
    };

    let mut first = CollectingObserver::new();
    engine
        .explain_observed(&mut ctx, &labels, 3, &mut first)
        .unwrap();
    assert_eq!(cache_hit(&first), 0.0);
    assert_eq!(ctx.cache_len(), 1);

    let mut second = CollectingObserver::new();
    engine
        .explain_observed(&mut ctx, &labels, 3, &mut second)
        .unwrap();
    assert_eq!(cache_hit(&second), 1.0);
    assert_eq!(
        ctx.cache_len(),
        1,
        "same clustering must not grow the cache"
    );

    // A different clustering is a different cache entry.
    let flipped: Vec<usize> = labels.iter().map(|&l| (l + 1) % 3).collect();
    let mut third = CollectingObserver::new();
    engine
        .explain_observed(&mut ctx, &flipped, 3, &mut third)
        .unwrap();
    assert_eq!(cache_hit(&third), 0.0);
    assert_eq!(ctx.cache_len(), 2);
}

/// Caller-prepared counts take the same RNG path as engine-built ones, so the
/// two entry points agree bit-for-bit under a shared seed.
#[test]
fn prepared_counts_match_engine_built_counts() {
    let (data, labels) = setup(1_000, 44);
    let config = DpClustXConfig::default();
    let engine = ExplainEngine::new(config);
    let built = engine
        .explain_uncached(
            &data,
            &labels,
            3,
            &dpclustx_suite::dp::histogram::GeometricHistogram,
            &mut StdRng::seed_from_u64(5),
            &mut NoopObserver,
        )
        .unwrap();
    let counts = ClusteredCounts::build(&data, &labels, 3);
    let prepared = engine
        .explain_prepared(
            data.schema(),
            &counts,
            &dpclustx_suite::dp::histogram::GeometricHistogram,
            &mut StdRng::seed_from_u64(5),
            &mut NoopObserver,
        )
        .unwrap();
    assert_outcomes_identical(&built, &prepared);
}
