//! # xgft-core — oblivious routing schemes for XGFTs
//!
//! This crate implements the routing algorithms studied and proposed by the
//! CLUSTER 2009 paper *"Oblivious Routing Schemes in Extended Generalized
//! Fat Tree Networks"*:
//!
//! * [`RandomRouting`] — a random NCA per (source, destination) pair, the
//!   default of Myrinet/InfiniBand-style interconnects (Sec. V).
//! * [`SModK`] — Source-mod-k self-routing: the up-port at every level is a
//!   digit of the *source* label, so every source has a unique ascent and
//!   endpoint contention from the source side is concentrated (Sec. V, VII).
//! * [`DModK`] — Destination-mod-k: the converse, every destination has a
//!   unique descent (Sec. V, VII).
//! * [`RandomNcaUp`] / [`RandomNcaDown`] — the paper's proposal (Sec. VIII):
//!   a *balanced random, neighbourhood-preserving relabeling* of the nodes
//!   followed by mod-style self-routing on the new labels. They concentrate
//!   endpoint contention like S-mod-k / D-mod-k, distribute routes evenly
//!   over the NCAs like Random, and break the regularity that makes the
//!   mod-k schemes pathological on patterns such as CG.D-128.
//! * [`ColoredRouting`] — a pattern-aware NCA assignment used as the
//!   best-achievable baseline (the paper uses the authors' "Colored" scheme
//!   from ICS'09; here a greedy + refinement heuristic over an
//!   endpoint-contention-aware cost plays that role).
//!
//! Supporting machinery: [`CompiledRouteTable`] (a scheme's routes for a
//! pattern or for all pairs, flattened into dense per-source channel-index
//! arrays — the zero-allocation form the simulators inject from),
//! [`CompactRoutes`] (the closed-form label-arithmetic engine: any hop
//! computed in O(height) from the pair's labels with near-zero route state),
//! [`RouteSource`] (the path-lookup abstraction the simulators and the flow
//! model are generic over), [`contention`] (the network-contention metrics
//! of Sec. IV and VII), [`distribution`] (routes-per-NCA histograms of
//! Fig. 4), [`route_dist`] (exact per-pair route *distributions* — the
//! closed forms the `xgft-flow` analytical channel-load model consumes in
//! place of seed sweeps), [`degraded`] (fault-aware routing: each scheme's
//! deterministic fallback around dead channels and the typed `Unroutable`
//! miss), and [`UndoableTable`] (the one fault patch: a revertible sparse
//! overlay over an untouched compiled or compact base).
//!
//! One rule picks the representation. A pass that reads each pair once —
//! the contention report, the Fig. 4 histograms — routes on the fly from
//! the [`RoutingAlgorithm`], which is a pure function of the pair. Anything
//! that reads pairs repeatedly takes a [`RouteSource`]: a
//! [`CompiledRouteTable`], or [`CompactRoutes`] when the machine is too
//! large to table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod colored;
pub mod compact;
pub mod compiled;
pub mod contention;
pub mod degraded;
pub mod distribution;
mod divisor;
pub mod modk;
pub mod overlay;
pub mod random;
pub mod relabel;
pub mod rnca;
pub mod route_dist;
pub mod source;

pub use algorithm::RoutingAlgorithm;
pub use colored::ColoredRouting;
pub use compact::{CompactRoutes, CompactScheme};
pub use compiled::CompiledRouteTable;
pub use contention::{ChannelLoads, ContentionReport};
pub use degraded::{degraded_route, reroute, RoutingError};
pub use distribution::nca_route_distribution;
pub use modk::{DModK, SModK};
pub use overlay::{PatchBase, PatchStats, UndoableTable};
pub use random::RandomRouting;
pub use relabel::RelabelMaps;
pub use rnca::{RandomNcaDown, RandomNcaUp};
pub use route_dist::{RouteDist, RouteDistribution};
pub use source::RouteSource;
