//! Agglomerative (hierarchical) clustering with average linkage.
//!
//! Exact hierarchical clustering is `O(n²)` in memory and worse in time, which
//! is why the paper excludes it from the Census dataset ("Due to its
//! scalability limitations"). We keep that reality: clustering runs on a
//! bounded sample (`max_points`), and the resulting clusters are extended to a
//! total function `dom(R) → C` through their centroids — the standard
//! prediction strategy for hierarchical clusterings.

use crate::encode::{sq_dist, DomainScaler};
use crate::model::CentroidModel;
use dpx_data::Dataset;
use rand::seq::SliceRandom;
use rand::Rng;

/// Linkage criterion for merging clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Unweighted average pairwise distance (UPGMA).
    Average,
    /// Maximum pairwise distance.
    Complete,
    /// Minimum pairwise distance.
    Single,
}

/// Configuration for [`fit`].
#[derive(Debug, Clone, Copy)]
pub struct AgglomerativeConfig {
    /// Number of clusters to stop at.
    pub k: usize,
    /// Linkage criterion.
    pub linkage: Linkage,
    /// Cap on the number of points actually linked (larger datasets are
    /// subsampled; assignment is extended by nearest centroid).
    pub max_points: usize,
}

impl AgglomerativeConfig {
    /// Average linkage at `k` clusters with a 2000-point cap.
    pub fn new(k: usize) -> Self {
        AgglomerativeConfig {
            k,
            linkage: Linkage::Average,
            max_points: 2000,
        }
    }
}

/// Fits agglomerative clustering (Lance–Williams updates) and returns the
/// centroid extension as a total model.
///
/// # Panics
/// Panics if `k == 0` or the dataset is empty.
pub fn fit<R: Rng + ?Sized>(
    data: &Dataset,
    config: AgglomerativeConfig,
    rng: &mut R,
) -> CentroidModel {
    assert!(config.k > 0, "k must be positive");
    assert!(!data.is_empty(), "cannot cluster an empty dataset");
    let scaler = DomainScaler::new(data.schema());

    // Subsample if needed.
    let n = data.n_rows();
    let mut indices: Vec<usize> = (0..n).collect();
    if n > config.max_points {
        indices.shuffle(rng);
        indices.truncate(config.max_points);
    }
    let points: Vec<Vec<f64>> = {
        let mut buf = vec![0u32; data.schema().arity()];
        indices
            .iter()
            .map(|&r| {
                for (a, slot) in buf.iter_mut().enumerate() {
                    *slot = data.column(a)[r];
                }
                scaler.encode_row(&buf)
            })
            .collect()
    };
    let k = config.k.min(points.len());
    let clusters = link(&points, k, config.linkage);

    let mut centers = centroids(&points, &clusters, scaler.dims());
    // If k exceeded the number of points, pad with duplicates of the last
    // centroid so the label space matches the request.
    while centers.len() < config.k {
        let last = centers.last().expect("at least one center").clone();
        centers.push(last);
    }
    CentroidModel::new(scaler, centers)
}

/// Centroids of the surviving clusters, in encoded space.
fn centroids(points: &[Vec<f64>], clusters: &[Vec<usize>], dims: usize) -> Vec<Vec<f64>> {
    clusters
        .iter()
        .map(|members| {
            let mut c = vec![0.0f64; dims];
            for &p in members {
                for (slot, &x) in c.iter_mut().zip(&points[p]) {
                    *slot += x;
                }
            }
            let len = members.len() as f64;
            for slot in &mut c {
                *slot /= len;
            }
            c
        })
        .collect()
}

/// Dense symmetric Euclidean distance matrix, `INFINITY` on the diagonal.
fn distance_matrix(points: &[Vec<f64>]) -> Vec<f64> {
    let m = points.len();
    let mut dist = vec![f64::INFINITY; m * m];
    for i in 0..m {
        for j in (i + 1)..m {
            let d = sq_dist(&points[i], &points[j]).sqrt();
            dist[i * m + j] = d;
            dist[j * m + i] = d;
        }
    }
    dist
}

/// The state of a merge loop: distances between clusters, which are still
/// active, their sizes and their member points.
struct Merges {
    m: usize,
    dist: Vec<f64>,
    active: Vec<bool>,
    sizes: Vec<f64>,
    members: Vec<Vec<usize>>,
}

impl Merges {
    fn new(points: &[Vec<f64>]) -> Self {
        let m = points.len();
        Merges {
            m,
            dist: distance_matrix(points),
            active: vec![true; m],
            sizes: vec![1.0; m],
            members: (0..m).map(|i| vec![i]).collect(),
        }
    }

    fn d(&self, i: usize, j: usize) -> f64 {
        self.dist[i * self.m + j]
    }

    /// Merges `b` into `a`, updating distances via Lance–Williams
    /// coefficients.
    fn merge(&mut self, a: usize, b: usize, linkage: Linkage) {
        let m = self.m;
        for t in 0..m {
            if !self.active[t] || t == a || t == b {
                continue;
            }
            let dat = self.d(a, t);
            let dbt = self.d(b, t);
            let (sa, sb) = (self.sizes[a], self.sizes[b]);
            let new = match linkage {
                Linkage::Average => (sa * dat + sb * dbt) / (sa + sb),
                Linkage::Complete => dat.max(dbt),
                Linkage::Single => dat.min(dbt),
            };
            self.dist[a * m + t] = new;
            self.dist[t * m + a] = new;
        }
        self.sizes[a] += self.sizes[b];
        let moved = std::mem::take(&mut self.members[b]);
        self.members[a].extend(moved);
        self.active[b] = false;
    }

    /// Row `i`'s nearest later active neighbour: the first `j > i` at the
    /// row's minimum distance, as `(distance, j)`.
    fn nearest_later(&self, i: usize) -> (f64, usize) {
        let mut best = (f64::INFINITY, usize::MAX);
        for j in (i + 1)..self.m {
            if self.active[j] && self.d(i, j) < best.0 {
                best = (self.d(i, j), j);
            }
        }
        best
    }

    /// The surviving clusters' members, in index order.
    fn into_clusters(self) -> Vec<Vec<usize>> {
        self.members
            .into_iter()
            .zip(self.active)
            .filter_map(|(members, active)| active.then_some(members))
            .collect()
    }
}

/// Merges the closest pair of active clusters until `k` remain and returns
/// the survivors' members in index order. The closest pair is the first
/// `(i, j)`, `i < j`, in row-major order with the smallest distance. Each row
/// caches its nearest later neighbour, so a merge rescans only the rows
/// whose cached neighbour it moved away or removed, not every pair.
fn link(points: &[Vec<f64>], k: usize, linkage: Linkage) -> Vec<Vec<usize>> {
    let mut state = Merges::new(points);
    let m = state.m;
    let mut nearest: Vec<(f64, usize)> = (0..m).map(|i| state.nearest_later(i)).collect();
    for _ in k..m {
        let mut a = usize::MAX;
        let mut best_d = f64::INFINITY;
        for (i, &(d, _)) in nearest.iter().enumerate() {
            if state.active[i] && d < best_d {
                best_d = d;
                a = i;
            }
        }
        let b = nearest[a].1;
        state.merge(a, b, linkage);
        nearest[a] = state.nearest_later(a);
        // Only rows before `b` can have cached `a` or `b`; of those, only
        // rows before `a` hold the pair with `a`.
        for (i, cached) in nearest.iter_mut().enumerate().take(b) {
            if !state.active[i] || i == a {
                continue;
            }
            let (d, j) = *cached;
            if j == b {
                *cached = state.nearest_later(i);
            } else if i < a {
                let da = state.d(i, a);
                if j == a {
                    *cached = if da <= d {
                        (da, a)
                    } else {
                        state.nearest_later(i)
                    };
                } else if da < d || (da == d && a < j) {
                    *cached = (da, a);
                }
            }
        }
    }
    state.into_clusters()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ClusterModel;
    use dpx_data::schema::{Attribute, Domain, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reference merge loop: rescans every active pair on every merge.
    fn link_by_full_scan(points: &[Vec<f64>], k: usize, linkage: Linkage) -> Vec<Vec<usize>> {
        let mut state = Merges::new(points);
        let m = state.m;
        for _ in k..m {
            let mut best = (0usize, 0usize);
            let mut best_d = f64::INFINITY;
            for i in 0..m {
                if !state.active[i] {
                    continue;
                }
                for j in (i + 1)..m {
                    if state.active[j] && state.d(i, j) < best_d {
                        best_d = state.d(i, j);
                        best = (i, j);
                    }
                }
            }
            state.merge(best.0, best.1, linkage);
        }
        state.into_clusters()
    }

    #[test]
    fn cached_nearest_neighbours_merge_like_the_full_scan() {
        // Small categorical domains: many duplicate rows and equal
        // distances, so the row-major tie-break decides most merges.
        let schema = Schema::new(
            (0..4)
                .map(|a| Attribute::new(format!("a{a}"), Domain::indexed(3)).unwrap())
                .collect(),
        )
        .unwrap();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows: Vec<Vec<u32>> = (0..120)
                .map(|_| (0..4).map(|_| rng.gen_range(0..3)).collect())
                .collect();
            let data = Dataset::from_rows(schema.clone(), &rows).unwrap();
            for linkage in [Linkage::Average, Linkage::Complete, Linkage::Single] {
                let cfg = AgglomerativeConfig {
                    k: 3,
                    linkage,
                    max_points: 2000,
                };
                let scaler = DomainScaler::new(data.schema());
                let points: Vec<Vec<f64>> = rows.iter().map(|r| scaler.encode_row(r)).collect();
                for k in [1, 3, 7] {
                    assert_eq!(
                        link(&points, k, linkage),
                        link_by_full_scan(&points, k, linkage),
                        "seed {seed} {linkage:?} k {k}"
                    );
                }
                let fast = fit(&data, cfg, &mut StdRng::seed_from_u64(seed)).assign_all(&data);
                let clusters = link_by_full_scan(&points, 3, linkage);
                let reference = CentroidModel::new(
                    scaler.clone(),
                    centroids(&points, &clusters, scaler.dims()),
                )
                .assign_all(&data);
                assert_eq!(fast, reference, "seed {seed} {linkage:?} labels");
            }
        }
    }

    fn blobs() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed(11)).unwrap(),
            Attribute::new("y", Domain::indexed(11)).unwrap(),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..150 {
            let j = (i % 2) as u32;
            rows.push(vec![j, j]);
            rows.push(vec![10 - j, 10]);
            rows.push(vec![10, 0]);
        }
        Dataset::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn finds_three_blobs() {
        let mut r = StdRng::seed_from_u64(31);
        let data = blobs();
        let model = fit(&data, AgglomerativeConfig::new(3), &mut r);
        let labels = model.assign_all(&data);
        let (a, b, c) = (labels[0], labels[1], labels[2]);
        assert!(a != b && b != c && a != c);
        for (i, &l) in labels.iter().enumerate() {
            let expected = [a, b, c][i % 3];
            assert_eq!(l, expected, "row {i}");
        }
    }

    #[test]
    fn linkages_produce_valid_models() {
        let data = blobs();
        for linkage in [Linkage::Average, Linkage::Complete, Linkage::Single] {
            let mut r = StdRng::seed_from_u64(32);
            let cfg = AgglomerativeConfig {
                k: 2,
                linkage,
                max_points: 100,
            };
            let model = fit(&data, cfg, &mut r);
            assert_eq!(model.n_clusters(), 2);
            let labels = model.assign_all(&data);
            assert!(labels.iter().all(|&l| l < 2));
        }
    }

    #[test]
    fn subsampling_respects_max_points_and_still_totalizes() {
        let mut r = StdRng::seed_from_u64(33);
        let data = blobs();
        let cfg = AgglomerativeConfig {
            k: 3,
            linkage: Linkage::Average,
            max_points: 60,
        };
        let model = fit(&data, cfg, &mut r);
        // Every tuple in the domain gets a label even though only 60 were linked.
        assert!(model.assign_row(&[5, 5]) < 3);
    }

    #[test]
    fn k_exceeding_points_pads() {
        let schema = Schema::new(vec![Attribute::new("x", Domain::indexed(3)).unwrap()]).unwrap();
        let data = Dataset::from_rows(schema, &[vec![0], vec![2]]).unwrap();
        let mut r = StdRng::seed_from_u64(34);
        let model = fit(&data, AgglomerativeConfig::new(4), &mut r);
        assert_eq!(model.n_clusters(), 4);
    }
}
