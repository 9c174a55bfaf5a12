//! # XGFT Oblivious Routing
//!
//! A reproduction of *"Oblivious Routing Schemes in Extended Generalized Fat
//! Tree Networks"* (Rodríguez et al., IEEE CLUSTER 2009) as a Rust workspace.
//!
//! This umbrella crate re-exports the public API of every workspace crate so
//! that examples, integration tests and downstream users can depend on a
//! single package:
//!
//! * [`topo`] — the XGFT topology substrate (labels, NCAs, routes).
//! * [`patterns`] — communication patterns and workload generators.
//! * [`routing`] — the oblivious routing family (the paper's contribution).
//! * [`flow`] — the analytical channel-load model: exact expected loads,
//!   MCL, tree-cut bounds and congestion ratios from closed-form route
//!   distributions (no simulation, no seeds).
//! * [`netsim`] — the event-driven flit/segment-level network simulator.
//! * [`tracesim`] — the Dimemas-like trace replay engine and synthetic
//!   WRF-256 / CG.D-128 workloads.
//! * [`analysis`] — metrics, statistics and experiment drivers for every
//!   table and figure in the paper.
//! * [`scenario`] — the declarative `ScenarioSpec` layer and the unified
//!   `xgft` CLI: whole experiments (topology × schemes × workload × faults
//!   × engine × sweep × seeds) as serializable JSON/TOML data.
//!
//! See `README.md` for a quickstart, the crate dependency diagram and the
//! figure-reproduction workflow.

pub use xgft_analysis as analysis;
pub use xgft_core as routing;
pub use xgft_flow as flow;
pub use xgft_netsim as netsim;
pub use xgft_patterns as patterns;
pub use xgft_scenario as scenario;
pub use xgft_topo as topo;
pub use xgft_tracesim as tracesim;

/// Commonly used items for quick experimentation.
pub mod prelude {
    pub use xgft_analysis::slowdown::SlowdownReport;
    pub use xgft_analysis::{AlgorithmSpec, CampaignConfig, CampaignResult, SweepConfig};
    pub use xgft_core::{
        ColoredRouting, CompiledRouteTable, DModK, RandomNcaDown, RandomNcaUp, RandomRouting,
        RouteDistribution, RoutingAlgorithm, SModK,
    };
    pub use xgft_flow::{ExpectedLoads, FlowSweepConfig, TrafficMatrix, TrafficSpec};
    pub use xgft_netsim::{NetworkConfig, SwitchingMode};
    pub use xgft_patterns::{generators, ConnectivityMatrix, Pattern};
    pub use xgft_scenario::{
        run_scenario, RunOptions, ScenarioResult, ScenarioSpec, SchemeSpec, WorkloadSpec,
    };
    pub use xgft_topo::{KAryNTree, NodeLabel, Route, Xgft, XgftSpec};
    pub use xgft_tracesim::{workloads::trace_from_pattern, ReplayEngine, Trace};
}
