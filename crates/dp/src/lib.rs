//! # dpx-dp — differential privacy primitives
//!
//! This crate is the privacy substrate of the DPClustX workspace. It implements,
//! from scratch, every mechanism the paper relies on:
//!
//! * **Noise distributions** — [`laplace`], the two-sided [`geometric`] (discrete
//!   Laplace, Ghosh–Roughgarden–Sundararajan) used by the paper for histogram
//!   release, and [`gumbel`] noise used by the one-shot top-k mechanism. The
//!   [`counter`] module re-derives Gumbel noise from a keyed counter-based
//!   PRF (Philox-2×64), making the perturbation at any index an independently
//!   computable pure function — the substrate for parallel DP search.
//! * **Selection mechanisms** — the [`exponential`] mechanism (McSherry–Talwar)
//!   and the one-shot [`topk`] mechanism (Durfee–Rogers), which releases the
//!   top-k candidates with a *single* round of noise while being
//!   distributionally identical to `k` iterated exponential mechanisms.
//! * **DP histograms** — [`histogram`] offers pluggable `ε`-DP histogram release
//!   (`M_hist` in the paper) with geometric or Laplace noise and non-negativity
//!   post-processing.
//! * **Budget accounting** — [`budget`] provides `Epsilon`, `Sensitivity`, the
//!   per-request [`budget::Accountant`] implementing sequential and parallel
//!   composition and free post-processing (Proposition 2.1 of the paper), and
//!   the per-dataset [`budget::SharedAccountant`] shard, which keeps an exact
//!   integer running total made durable by the [`ledger`] and grouped per
//!   dataset by [`shards`].
//!
//! All mechanisms are pure functions of `(data, ε, rng)`: determinism under a
//! seeded RNG makes experiments reproducible, and privacy reasoning stays local
//! to each function. Neighboring datasets follow the *unbounded* convention (add
//! or remove one tuple), matching Definition 2.4 of the paper.
//!
//! ## Example
//!
//! ```
//! use dpx_dp::budget::{Epsilon, Sensitivity};
//! use dpx_dp::exponential::exponential_mechanism;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let scores = [0.0_f64, 10.0, 3.0];
//! let eps = Epsilon::new(1.0).unwrap();
//! let winner = exponential_mechanism(&scores, eps, Sensitivity::ONE, &mut rng).unwrap();
//! assert!(winner < scores.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod budget;
pub mod consistency;
pub mod counter;
pub mod error;
pub mod exponential;
pub mod geometric;
pub mod gumbel;
pub mod histogram;
pub mod laplace;
pub mod ledger;
pub mod shards;
pub mod sparse_vector;
pub mod topk;

pub use budget::{
    Accountant, AccountantProbe, Epsilon, LedgerStats, Sensitivity, SharedAccountant,
};
pub use counter::{gumbel_at, CounterRng};
pub use error::DpError;
pub use exponential::exponential_mechanism;
pub use histogram::{GeometricHistogram, HistogramMechanism, LaplaceHistogram};
pub use ledger::{CheckpointRecord, GrantRecord, LedgerError, LedgerWriter, Recovery, NO_REQUEST};
pub use shards::{AccountantShards, ShardConfig};
pub use topk::one_shot_top_k;
