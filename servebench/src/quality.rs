//! The paper's sensitive Quality of what was served, computed offline.
//!
//! Each explain is scored on the true score table of the dataset version it
//! was served on: the base data plus the appends before it in the plan.
//! Counts are built once per clustering on the base data and carried forward
//! append by append with `apply_delta`, as the registry does.

use crate::collect::Reply;
use crate::workload::{Item, Op};
use dpclustx::eval::QualityEvaluator;
use dpclustx::{ScoreTable, Weights};
use dpx_data::{ClusteredCounts, Dataset};
use dpx_serve::derive_labels;
use std::collections::BTreeMap;

/// `(cluster_by, n_clusters)`.
type Clustering = (usize, usize);

/// Mean Quality of the served explains among `items`.
pub fn mean_quality(
    base: &Dataset,
    deltas: &[Vec<Vec<u32>>],
    items: &[Item],
    replies: &[Option<Reply>],
) -> Result<f64, String> {
    // (version, clustering) -> served attribute combinations.
    let mut served: BTreeMap<(usize, Clustering), Vec<&[usize]>> = BTreeMap::new();
    for item in items {
        let Op::Explain {
            cluster_by,
            n_clusters,
        } = item.op
        else {
            continue;
        };
        // Failures count against success_rate; only what was served has a
        // quality.
        let Some(reply) = replies
            .get(item.id as usize)
            .and_then(Option::as_ref)
            .filter(|r| r.ok)
        else {
            continue;
        };
        served
            .entry((item.version, (cluster_by, n_clusters)))
            .or_default()
            .push(&reply.attributes);
    }
    let mut counts: BTreeMap<Clustering, ClusteredCounts> = BTreeMap::new();
    for &(_, (cluster_by, n_clusters)) in served.keys() {
        counts.entry((cluster_by, n_clusters)).or_insert_with(|| {
            ClusteredCounts::build(
                base,
                &derive_labels(base, cluster_by, n_clusters),
                n_clusters,
            )
        });
    }
    let empty = Dataset::empty(base.schema().clone());
    let mut version = 0;
    let (mut total, mut n) = (0.0, 0usize);
    for ((at, clustering), combinations) in &served {
        while version < *at {
            let delta = Dataset::from_rows(base.schema().clone(), &deltas[version])
                .map_err(|e| e.to_string())?;
            for (&(cluster_by, n_clusters), c) in counts.iter_mut() {
                c.apply_delta(
                    &delta,
                    &derive_labels(&delta, cluster_by, n_clusters),
                    &empty,
                    &[],
                );
            }
            version += 1;
        }
        let table = ScoreTable::from_clustered_counts(&counts[clustering]);
        let evaluator = QualityEvaluator::new(&table, Weights::equal());
        for attributes in combinations {
            total += evaluator.quality(attributes);
            n += 1;
        }
    }
    Ok(if n == 0 { 0.0 } else { total / n as f64 })
}
