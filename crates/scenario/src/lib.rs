//! # xgft-scenario — declarative experiment specs and the unified `xgft` CLI
//!
//! The paper's contribution is a *family* of oblivious schemes evaluated
//! across a grid of topologies × workloads × engines. This crate makes a
//! whole grid point — topology, routing schemes, workload, fault model,
//! evaluation engine, sweep axis and seed policy — *data* instead of code:
//!
//! * [`ScenarioSpec`] — a serde-round-trippable description of one
//!   experiment, readable and writable as JSON **and** TOML (see [`toml`]).
//! * [`runner`] — lowers a spec onto the existing compiled-table / campaign
//!   / resilience / flow-model machinery in `xgft-analysis` and `xgft-flow`
//!   and returns one versioned [`runner::ScenarioResult`].
//! * [`mod@registry`] — the built-in scenarios: every figure, table, campaign
//!   and fault experiment of the reproduction, each runnable as
//!   `xgft <name>` with the shared flag set.
//! * [`cli`] — the single `xgft` command line (`xgft run <spec>`,
//!   `xgft list`, `xgft fig2_wrf --quick`, …) with consistent exit codes:
//!   0 on success, 2 on usage/spec errors, 1 on runtime failure.
//! * [`args`] — the one flag parser every experiment shares.
//!
//! The crate builds the `xgft` binary itself; new experiments are new
//! *specs* (or registry entries), not new binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod bench;
pub mod cli;
pub mod registry;
pub mod runner;
pub mod spec;
pub mod toml;

pub use args::ExperimentArgs;
pub use bench::{
    bench_area, bench_file_name, delta_report, validate_bench_file, BenchCheck, BenchFile,
    BenchProbe, ALL_AREAS, BENCH_SCHEMA_VERSION,
};
pub use registry::{registry, RegistryEntry};
pub use runner::{run_scenario, ResultPayload, RunOptions, ScenarioResult, RESULT_SCHEMA_VERSION};
pub use spec::{
    ChaosSpec, EngineSpec, FaultSpec, RepresentationSpec, ScenarioError, ScenarioSpec, SchemeSpec,
    SeedSpec, SweepSpec, TopologySpec, WorkloadSpec, SPEC_SCHEMA_VERSION,
};
