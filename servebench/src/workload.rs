//! The three workloads: which data, which requests, at what rate.
//!
//! A [`Plan`] is the seeded request stream of one workload. Its first items
//! are the set-up warm-ups (explains that build the clusterings every timed
//! request then hits); the timed schedule follows. Every run of a seed —
//! gate replicas, the measured run, the traced run — replays the same plan,
//! which is what makes their response digests comparable.

use dpclustx::Stage2Kernel;
use dpx_data::synth::{self, SynthSpec};
use dpx_data::Dataset;
use dpx_serve::{ExplainRequest, RequestOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The one dataset every workload registers and explains.
pub const DATASET: &str = "default";
/// Stage ε of every explain. Dyadic, so any sum of request totals is exact
/// in `f64` and the ε gate can compare shard spend with `==`.
pub const EPS_CAND: f64 = 0.125;
pub const EPS_COMB: f64 = 0.125;
pub const EPS_HIST: f64 = 0.25;
/// Rows per append request.
pub const APPEND_ROWS: usize = 500;

/// One workload (see `README.md` for why each exists).
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Rows of synthetic data registered at set-up.
    pub rows: usize,
    /// Open-loop send rate, requests per second.
    pub rate_rps: f64,
    /// Poisson arrivals (independent analysts) rather than a fixed
    /// interval (one scripted client interleaving reads and writes).
    pub poisson: bool,
    /// Clusterings built during set-up, `(cluster_by, n_clusters)`.
    pub warm: &'static [(usize, usize)],
    /// An append follows every this many explains.
    pub append_every: Option<usize>,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    WarmLarge,
    SearchSmall,
    AppendMix,
}

/// Census attributes with at least five codes, so `n_clusters` up to 5
/// never leaves a cluster empty.
const CENSUS_WIDE: [usize; 8] = [0, 2, 3, 4, 5, 7, 8, 9];
const WARM_LARGE: [(usize, usize); 4] = [(0, 2), (2, 3), (4, 4), (6, 2)];
/// Diabetes: two tiny clusterings and one nine-cluster one (`discharge_disp`
/// has 26 codes).
const SEARCH_TINY: [(usize, usize); 2] = [(0, 2), (2, 2)];
const SEARCH_HEAVY: (usize, usize) = (5, 9);
const SEARCH_WARM: [(usize, usize); 3] = [(0, 2), (2, 2), (5, 9)];

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "warm-large",
        why: "read path at realistic size: 250k-row Census, every request a cache hit, so \
              labels and the counts key hash dominate",
        rows: 250_000,
        rate_rps: 170.0,
        poisson: true,
        warm: &WARM_LARGE,
        append_every: None,
        kind: Kind::WarmLarge,
    },
    Workload {
        name: "search-small",
        why: "privacy machinery without data cost: 20k-row Diabetes cache hits; ledger grant and \
              wire set p50, Stage-2-heavy requests set p99",
        rows: 20_000,
        rate_rps: 450.0,
        poisson: true,
        warm: &SEARCH_WARM,
        append_every: None,
        kind: Kind::SearchSmall,
    },
    Workload {
        name: "append-mix",
        why:
            "writes beside reads: 250k-row Census, 32 clusterings built cold in the timed window, \
              a 500-row append every 16 explains",
        rows: 250_000,
        rate_rps: 16.0,
        poisson: false,
        warm: &[],
        append_every: Some(16),
        kind: Kind::AppendMix,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn spec(&self) -> SynthSpec {
        match self.kind {
            Kind::SearchSmall => synth::diabetes::spec(3),
            Kind::WarmLarge | Kind::AppendMix => synth::census::spec(4),
        }
    }

    /// The registered dataset of `seed`.
    pub fn data(&self, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a_5eed);
        self.spec().generate(self.rows, &mut rng).data
    }
}

/// What a plan item asks for.
#[derive(Debug, Clone)]
pub enum Op {
    Explain {
        cluster_by: usize,
        n_clusters: usize,
    },
    /// Appends `Plan::deltas[index]`.
    Append { index: usize },
}

/// One request of the plan, pre-rendered to its wire line.
#[derive(Debug, Clone)]
pub struct Item {
    pub id: u64,
    pub line: String,
    pub op: Op,
    /// Appends that precede this item: the dataset version it observes.
    pub version: usize,
    /// ε the request asks for (zero for appends).
    pub eps: f64,
}

impl Item {
    pub fn is_append(&self) -> bool {
        matches!(self.op, Op::Append { .. })
    }
}

/// The seeded request stream of one workload.
pub struct Plan {
    workload: &'static Workload,
    rng: StdRng,
    pub items: Vec<Item>,
    /// Rows of each append, in plan order.
    pub deltas: Vec<Vec<Vec<u32>>>,
    explains: usize,
}

impl Plan {
    pub fn new(workload: &'static Workload, seed: u64) -> Self {
        let mut plan = Plan {
            workload,
            rng: StdRng::seed_from_u64(seed),
            items: Vec::new(),
            deltas: Vec::new(),
            explains: 0,
        };
        // A warm-up only has to build its clustering's counts; k is moot.
        for &(cluster_by, n_clusters) in workload.warm {
            plan.push_explain(cluster_by, n_clusters, 2, Stage2Kernel::SequentialRng);
        }
        plan
    }

    /// Grows the plan to at least `n` items.
    pub fn extend_to(&mut self, n: usize) {
        while self.items.len() < n {
            self.push_next();
        }
    }

    fn push_next(&mut self) {
        let w = self.workload;
        if let Some(every) = w.append_every {
            if self.explains > 0 && self.explains.is_multiple_of(every) && !self.last_is_append() {
                self.push_append();
                return;
            }
        }
        let i = self.explains;
        match w.kind {
            Kind::WarmLarge => {
                let (cb, nc) = WARM_LARGE[self.rng.gen_range(0..WARM_LARGE.len())];
                self.push_explain(cb, nc, 3, Stage2Kernel::SequentialRng);
            }
            Kind::SearchSmall if i % 8 == 7 => {
                // One in eight is Stage-2 heavy: 4^9 = 262,144 leaves,
                // alternating the streaming and the counter kernel.
                let kernel = if (i / 8).is_multiple_of(2) {
                    Stage2Kernel::SequentialRng
                } else {
                    Stage2Kernel::CounterSerial
                };
                self.push_explain(SEARCH_HEAVY.0, SEARCH_HEAVY.1, 4, kernel);
            }
            Kind::SearchSmall => {
                let (cb, nc) = SEARCH_TINY[self.rng.gen_range(0..SEARCH_TINY.len())];
                self.push_explain(cb, nc, 2, Stage2Kernel::SequentialRng);
            }
            Kind::AppendMix => {
                let cb = CENSUS_WIDE[self.rng.gen_range(0..CENSUS_WIDE.len())];
                let nc = self.rng.gen_range(2..=5);
                self.push_explain(cb, nc, 3, Stage2Kernel::SequentialRng);
            }
        }
    }

    fn last_is_append(&self) -> bool {
        self.items.last().is_some_and(Item::is_append)
    }

    fn version(&self) -> usize {
        self.deltas.len()
    }

    fn push_explain(
        &mut self,
        cluster_by: usize,
        n_clusters: usize,
        k: usize,
        kernel: Stage2Kernel,
    ) {
        let id = self.items.len() as u64;
        let mut req = ExplainRequest::new(id);
        req.dataset = DATASET.to_string();
        req.seed = self.rng.gen();
        req.cluster_by = cluster_by;
        req.n_clusters = n_clusters;
        req.k = k;
        req.eps_cand = EPS_CAND;
        req.eps_comb = EPS_COMB;
        req.eps_hist = Some(EPS_HIST);
        req.stage2_kernel = kernel;
        self.items.push(Item {
            id,
            line: req.to_json_line(),
            op: Op::Explain {
                cluster_by,
                n_clusters,
            },
            version: self.version(),
            eps: req.total_epsilon(),
        });
        self.explains += 1;
    }

    /// Appends one delta of [`APPEND_ROWS`] fresh rows drawn from the
    /// workload's own generator.
    pub fn push_append(&mut self) {
        let id = self.items.len() as u64;
        let delta = self
            .workload
            .spec()
            .generate(APPEND_ROWS, &mut self.rng)
            .data;
        let rows: Vec<Vec<u32>> = (0..delta.n_rows()).map(|r| delta.row(r)).collect();
        let mut req = ExplainRequest::new(id);
        req.dataset = DATASET.to_string();
        req.op = RequestOp::Append { rows: rows.clone() };
        let index = self.deltas.len();
        self.items.push(Item {
            id,
            line: req.to_json_line(),
            op: Op::Append { index },
            version: self.version(),
            eps: 0.0,
        });
        self.deltas.push(rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_replay_per_seed_and_differ_across_seeds() {
        let w = by_name("append-mix").unwrap();
        let mut a = Plan::new(w, 7);
        let mut b = Plan::new(w, 7);
        let mut c = Plan::new(w, 8);
        for p in [&mut a, &mut b, &mut c] {
            p.extend_to(40);
        }
        let lines = |p: &Plan| p.items.iter().map(|i| i.line.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        // Appends come after every 16 explains and bump the version.
        assert!(a.items[16].is_append() && a.items[33].is_append());
        assert_eq!(a.items[17].version, 1);
    }

    #[test]
    fn request_totals_are_dyadic() {
        let w = by_name("search-small").unwrap();
        let mut plan = Plan::new(w, 1);
        plan.extend_to(16);
        assert!(plan.items.iter().all(|i| i.eps == 0.5));
        // The three warm-ups lead the plan, the nine-cluster one last.
        assert!(matches!(
            plan.items[2].op,
            Op::Explain {
                cluster_by: 5,
                n_clusters: 9
            }
        ));
    }
}
