//! # xgft-analysis — metrics, statistics and experiment drivers
//!
//! This crate turns the substrates (`xgft-topo`, `xgft-core`, `xgft-netsim`,
//! `xgft-tracesim`) into the paper's evaluation: slowdown relative to the
//! Full-Crossbar reference, routes-per-NCA distributions, boxplot statistics
//! over seeds, and one driver per table/figure of the paper:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`experiments::table1`]  | Table I (labels, node/link counts) and Eq. (1) |
//! | [`experiments::fig1`]    | Fig. 1 (example XGFTs) |
//! | [`sweep`] (the `xgft fig2_*` registry entries) | Fig. 2 (WRF-256 / CG.D-128, classic oblivious routings) |
//! | [`experiments::fig3`]    | Fig. 3 (CG.D-128 traffic pattern) |
//! | [`experiments::fig4`]    | Fig. 4 (routes per NCA) |
//! | [`sweep`] (the `xgft fig5_*` entries) + [`experiments::fig5`]'s claims | Fig. 5 (proposed r-NCA-u / r-NCA-d boxplots) |
//! | [`experiments::equivalence`] | Sec. VII-B/C (S-mod-k / D-mod-k duality) |
//! | [`experiments::flow_mcl`] | analytical MCL sweeps (`xgft-flow`) + netsim cross-validation |
//!
//! Sweeps decompose into (topology, algorithm, seed) [`SweepShard`]s that
//! replay in parallel on compiled route tables or closed-form compact
//! routes. The algorithms are [`AlgorithmSpec`] values, re-exported from
//! `xgft-core`, whose one table holds each scheme's name, seeding,
//! instance and closed form. A sweep's [`SeedSpec`] says where each point's seeds come from:
//! one shared list, or deterministic point-local streams. The [`campaign`]
//! module describes a stream-seeded sweep and records its per-shard
//! provenance as serde-JSON (the paper's 40–60-seed figure runs as one
//! schedulable unit). Sweeps, [`resilience`] and [`chaos`] runs all execute
//! their shards through one grouped executor, one parallel work item per
//! point.
//!
//! The `xgft` command line (the `xgft-scenario` crate) runs each experiment
//! by name so every figure can be regenerated; see the repository
//! `README.md` for the reproduction workflow.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod chaos;
pub mod experiments;
pub mod resilience;
mod shards;
pub mod slowdown;
pub mod stats;
pub mod sweep;

pub use campaign::{shard_seed, CampaignConfig, CampaignResult, ShardOutcome};
pub use chaos::{
    chaos_algo_seed, chaos_seed, ChaosConfig, ChaosError, ChaosIncident, ChaosResult, ChaosShard,
    ChaosShardOutcome, IncidentKind, IncidentSummary, SlaEpoch, CHAOS_SCHEMA_VERSION,
};
pub use resilience::{
    resilience_seed, ResilienceConfig, ResilienceOutcome, ResiliencePoint, ResilienceResult,
    ResilienceShard, ALGO_STREAM, FAULT_STREAM,
};
pub use slowdown::{slowdown_of, SlowdownReport};
pub use stats::BoxplotStats;
pub use sweep::{AlgorithmSpec, SeedSpec, SweepConfig, SweepPoint, SweepResult, SweepShard};
