//! # xgft-flow — the analytical (flow-level) channel-load model
//!
//! Everything the rest of the workspace measures by *simulation* — replaying
//! an event-driven network model over tens of random seeds — this crate
//! computes in *closed form*: exact expected per-channel loads, the maximum
//! channel load (MCL), routes-per-NCA distributions (the Fig. 4 statistic),
//! a tree-cut lower bound on the congestion any routing could achieve, and
//! the resulting congestion-ratio estimate per scheme.
//!
//! ## Closed-form distributions vs. sampling
//!
//! The paper evaluates its randomised schemes (Random, r-NCA-u, r-NCA-d) by
//! drawing 40–60 seeds and simulating each draw. But the constructions
//! themselves fix the probability of every route:
//!
//! * **Random** picks every up-port uniformly and independently — the route
//!   of a pair at NCA level `L` is uniform over all `Π_{l≤L} w_l` minimal
//!   routes.
//! * **r-NCA-u / r-NCA-d** draw *balanced random maps*; by the symmetry of
//!   that construction each child digit lands on each parent port with
//!   probability `1/w`, independently across digit positions. The per-pair
//!   marginal is therefore identical to Random's — balancedness only
//!   manifests jointly, across pairs sharing a map — which explains
//!   analytically why seed-averaged r-NCA channel loads coincide with
//!   Random's while each individual draw is much better balanced.
//! * **S-mod-k, D-mod-k, Colored** are deterministic: the "distribution" is
//!   a point mass and the model degenerates to per-pair `route()`
//!   accumulation.
//!
//! Expected channel loads are linear in these route probabilities
//! ([`ExpectedLoads`]), so a single exact computation replaces the entire
//! seed sweep. On uniform all-pairs traffic the computation collapses
//! further, to `O(channels)` independent of the pair count — machines with
//! tens of thousands of leaves are analysed in milliseconds, far beyond
//! netsim's reach.
//!
//! ## What's in the crate
//!
//! | module | provides |
//! |---|---|
//! | [`traffic`] | [`TrafficMatrix`] / [`TrafficSpec`] — demands (uniform kept symbolic) |
//! | [`loads`] | [`ExpectedLoads`], MCL, [`expected_nca_distribution`] |
//! | [`bound`] | [`tree_cut_lower_bound`], [`oblivious_congestion_ratio`] |
//! | [`sweep`] | [`FlowSweepConfig`] — rayon-parallel (topology × scheme) sweeps over `xgft_core::AlgorithmSpec` schemes |
//!
//! Cross-validation against the event-driven simulator lives in this
//! crate's integration tests (property tests comparing expected loads to
//! netsim's per-channel busy-time) and in
//! `xgft-analysis::experiments::flow_mcl`, whose `cross_validate_mcl` hook
//! the `flow_mcl` binary runs on every invocation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bound;
pub mod degraded;
pub mod loads;
pub mod sweep;
pub mod traffic;

pub use bound::{
    oblivious_congestion_ratio, ratio_to_bound, tree_cut_lower_bound, CongestionRatio, CutBound,
};
pub use degraded::DegradedLoads;
pub use loads::{expected_nca_distribution, ExpectedLoads};
pub use sweep::{FlowPoint, FlowSweepConfig, FlowSweepResult};
pub use traffic::{TrafficMatrix, TrafficSpec};
