//! Running [`ScenarioSpec`]s on the evaluation machinery.
//!
//! [`run_scenario`] lowers a spec, once, into a crate-private `Plan` (the
//! validation rules all live in that lowering) and runs it with one
//! exhaustive match. Each plan variant holds exactly what its engine needs:
//!
//! | `Plan` variant | lowered from | runs on | payload |
//! |---|---|---|---|
//! | `Trace` | `Tracesim`, either representation | [`SweepConfig`] (slimming sweeps) | the seed policy picks it: [`ResultPayload::Sweep`] for `SeedSpec::List`, [`ResultPayload::Campaign`] (per-shard provenance) for `SeedSpec::Stream` |
//! | `Resilience` | `Tracesim` + `FaultSpec::UniformLinks` | [`ResilienceConfig`] | [`ResultPayload::Resilience`] |
//! | `Flow` | `Flow`, compiled | [`FlowSweepConfig`] (closed forms) | [`ResultPayload::Flow`] |
//! | `CompactFlow` | `Flow`, compact | exact closed-form loads (this module) | [`ResultPayload::CompactFlow`] |
//! | `Nca` | `Nca` | `experiments::fig4` | [`ResultPayload::Nca`] |
//! | `Direct` | `Netsim` | direct injection (this module) | [`ResultPayload::Direct`] |
//! | `Chaos` | `Netsim` + `chaos` | [`ChaosConfig`] (fault/repair timelines) | [`ResultPayload::Chaos`] |
//! | `Agreement` | `AllWithAgreement` | all three engines, channel-by-channel | [`ResultPayload::Agreement`] |
//!
//! Every run returns one versioned [`ScenarioResult`] envelope:
//! `schema_version` + the spec (provenance) + the payload. The payload
//! types are exactly the pre-existing result structs, so results produced
//! through the scenario layer are byte-identical to what the historical
//! binaries emitted (pinned by `tests/scenario_registry.rs` against the
//! golden fixtures).

use crate::spec::{RepresentationSpec, ScenarioError, ScenarioSpec, SchemeSpec, SeedSpec};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use xgft_analysis::experiments::fig4::{self, Fig4Result};
use xgft_analysis::{
    CampaignResult, ChaosConfig, ChaosResult, ChaosShardOutcome, ResilienceConfig,
    ResilienceResult, SweepConfig, SweepResult,
};
use xgft_core::{AlgorithmSpec, CompactRoutes, CompactScheme, CompiledRouteTable, RouteSource};
use xgft_flow::{
    ratio_to_bound, tree_cut_lower_bound, DegradedLoads, FlowSweepConfig, FlowSweepResult,
    TrafficMatrix, TrafficSpec,
};
use xgft_netsim::{InjectionBatch, NetworkConfig, NetworkSim, SimReport};
use xgft_patterns::Pattern;
use xgft_topo::{Xgft, XgftSpec};
use xgft_tracesim::workloads::trace_from_pattern;
use xgft_tracesim::{ReplayEngine, RoutedNetwork, Trace};

/// The result schema version this crate emits.
pub const RESULT_SCHEMA_VERSION: u32 = 1;

/// Options the CLI layers on top of a spec.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Apply [`ScenarioSpec::quickened`] before running (the CI preset).
    pub quick: bool,
    /// Attach a [`xgft_obs::Telemetry`] section (per-stage wall-clocks, counters,
    /// peak route-state bytes) to the result. Telemetry is an observation
    /// about the run and lives outside the deterministic payload: the
    /// payload is byte-identical with this flag on or off.
    pub telemetry: bool,
}

/// One point of a direct-injection (`Netsim` engine) run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirectPoint {
    /// Topology display form.
    pub topology: String,
    /// Top-level width of the machine.
    pub w_top: usize,
    /// Scheme name.
    pub scheme: String,
    /// Seed (0 for deterministic schemes).
    pub seed: u64,
    /// Messages delivered.
    pub delivered: usize,
    /// Time of the last delivery (ps).
    pub makespan_ps: u64,
    /// Busy time of the most loaded channel (ps).
    pub max_busy_ps: u64,
    /// Busy time of the most loaded channel divided by the makespan.
    pub max_utilization: f64,
    /// Median delivery latency (ps), nearest-rank over delivered messages.
    pub p50_latency_ps: u64,
    /// 99th-percentile delivery latency (ps).
    pub p99_latency_ps: u64,
    /// Largest delivery latency (ps).
    pub max_latency_ps: u64,
}

/// The result of a direct-injection run: all flows of the workload
/// scheduled into the event-driven simulator at t = 0.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirectResult {
    /// Scenario name.
    pub name: String,
    /// Workload name.
    pub workload: String,
    /// One point per (topology, scheme, seed).
    pub points: Vec<DirectPoint>,
}

impl DirectResult {
    /// Text table: one row per point.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "# {} — direct injection of {} (makespan / max channel busy / latency, ps)\n{:>24} {:>10} {:>12} {:>14} {:>14} {:>6} {:>12} {:>12} {:>12}\n",
            self.name,
            self.workload,
            "topology",
            "scheme",
            "seed",
            "makespan",
            "max-busy",
            "util",
            "p50-lat",
            "p99-lat",
            "max-lat"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>24} {:>10} {:>12} {:>14} {:>14} {:>6.3} {:>12} {:>12} {:>12}\n",
                p.topology,
                p.scheme,
                p.seed,
                p.makespan_ps,
                p.max_busy_ps,
                p.max_utilization,
                p.p50_latency_ps,
                p.p99_latency_ps,
                p.max_latency_ps
            ));
        }
        out
    }
}

/// One point of a compact-representation flow run: the exact per-instance
/// channel loads of the closed-form engine under the workload's traffic,
/// plus the route state the representation held — the memory axis the
/// compiled form cannot reach at million-leaf scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompactFlowPoint {
    /// Topology display form.
    pub topology: String,
    /// Number of leaves of the machine.
    pub num_leaves: usize,
    /// Top-level width of the machine.
    pub w_top: usize,
    /// Scheme name.
    pub scheme: String,
    /// Seed (0 for deterministic schemes).
    pub seed: u64,
    /// Maximum channel load over all channels.
    pub mcl: f64,
    /// Maximum channel load over switch-to-switch channels only.
    pub network_mcl: f64,
    /// The tree-cut lower bound no scheme can beat.
    pub lower_bound: f64,
    /// `mcl / lower_bound` ([`ratio_to_bound`]: 1.0 when the bound is 0).
    pub ratio: f64,
    /// Demand actually placed on the network.
    pub routed_demand: f64,
    /// Demand with no route (0 on a pristine machine).
    pub unroutable_demand: f64,
    /// Bytes of route state the compact engine held for this point.
    pub route_state_bytes: usize,
}

/// The result of a `Flow` run under `representation = "compact"`: exact
/// per-instance loads from the closed-form engine, one point per
/// (topology, scheme, seed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompactFlowResult {
    /// Scenario name.
    pub name: String,
    /// Workload name.
    pub workload: String,
    /// One point per (topology, scheme, seed).
    pub points: Vec<CompactFlowPoint>,
}

impl CompactFlowResult {
    /// Text table: one row per point.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "# {} — compact-representation flow loads of {} (exact per-instance MCL)\n{:>28} {:>10} {:>10} {:>12} {:>12} {:>10} {:>7} {:>12}\n",
            self.name,
            self.workload,
            "topology",
            "leaves",
            "scheme",
            "seed",
            "mcl",
            "bound",
            "ratio",
            "route-bytes"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>28} {:>10} {:>10} {:>12} {:>12.1} {:>10.1} {:>7.3} {:>12}\n",
                p.topology,
                p.num_leaves,
                p.scheme,
                p.seed,
                p.mcl,
                p.lower_bound,
                p.ratio,
                p.route_state_bytes
            ));
        }
        out
    }
}

/// One (topology, scheme) agreement check across the three engines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgreementPoint {
    /// Topology display form.
    pub topology: String,
    /// Scheme name.
    pub scheme: String,
    /// Seed the scheme was instantiated with (0 for deterministic ones).
    pub seed: u64,
    /// The two simulators' per-channel busy vectors are byte-identical.
    pub sims_identical: bool,
    /// Largest relative deviation between the flow model's per-channel
    /// occupancy and the simulators' busy time (0 = exact agreement).
    pub flow_max_rel_dev: f64,
    /// The flow model's maximum per-channel occupancy (ps).
    pub model_mcl_ps: f64,
}

/// The result of an `AllWithAgreement` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgreementResult {
    /// Scenario name.
    pub name: String,
    /// Workload name.
    pub workload: String,
    /// Tolerance applied to `flow_max_rel_dev` for [`Self::all_agree`].
    pub tolerance: f64,
    /// Every engine pair agreed on every point.
    pub all_agree: bool,
    /// One check per (topology, scheme).
    pub points: Vec<AgreementPoint>,
}

impl AgreementResult {
    /// Text table: one row per check.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "# {} — engine agreement on {} (flow vs netsim vs tracesim)\n{:>24} {:>10} {:>12} {:>6} {:>12} {:>14}\n",
            self.name, self.workload, "topology", "scheme", "seed", "sims", "flow-dev", "model-mcl"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>24} {:>10} {:>12} {:>6} {:>12.2e} {:>14.0}\n",
                p.topology,
                p.scheme,
                p.seed,
                if p.sims_identical { "==" } else { "!=" },
                p.flow_max_rel_dev,
                p.model_mcl_ps
            ));
        }
        out.push_str(&format!(
            "# all_agree = {} (tolerance {:.1e})\n",
            self.all_agree, self.tolerance
        ));
        out
    }
}

/// The engine-specific payload of a scenario run. Every variant wraps the
/// result struct the corresponding machinery already produced before the
/// scenario layer existed, so serialized payloads are stable across the
/// refactor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ResultPayload {
    /// A figure-style sweep (`Tracesim` + explicit seed list).
    Sweep(SweepResult),
    /// A seed campaign (`Tracesim` + seed streams).
    Campaign(CampaignResult),
    /// A resilience campaign (`Tracesim` + faults).
    Resilience(ResilienceResult),
    /// An analytical sweep (`Flow`, compiled representation).
    Flow(FlowSweepResult),
    /// Exact closed-form loads (`Flow`, compact representation).
    CompactFlow(CompactFlowResult),
    /// Routes-per-NCA distributions (`Nca`), one per swept topology.
    Nca(Vec<Fig4Result>),
    /// Direct injection (`Netsim`).
    Direct(DirectResult),
    /// A chaos campaign (`Netsim` + `chaos` section): per-epoch SLA
    /// timelines under a seeded fault/repair weather.
    Chaos(ChaosResult),
    /// Cross-engine agreement (`AllWithAgreement`).
    Agreement(AgreementResult),
}

impl ResultPayload {
    /// The text rendering the unified CLI prints.
    pub fn render(&self) -> String {
        match self {
            ResultPayload::Sweep(r) => r.render_table(),
            ResultPayload::Campaign(r) => format!(
                "{}# {} shards replayed against a crossbar reference of {} ps\n",
                r.sweep.render_table(),
                r.shards.len(),
                r.crossbar_ps
            ),
            ResultPayload::Resilience(r) => {
                let rerouted: usize = r.shards.iter().map(|o| o.rerouted).sum();
                let undelivered = r.shards.iter().filter(|o| o.slowdown.is_none()).count();
                format!(
                    "{}# {} shards, {} routes rerouted in total, {} shards undeliverable, crossbar reference {} ps\n",
                    r.render_table(),
                    r.shards.len(),
                    rerouted,
                    undelivered,
                    r.crossbar_ps
                )
            }
            ResultPayload::Flow(r) => r.render_table(),
            ResultPayload::CompactFlow(r) => r.render_table(),
            ResultPayload::Nca(results) => {
                let mut out = String::new();
                for r in results {
                    out.push_str(&r.render());
                    out.push('\n');
                }
                out
            }
            ResultPayload::Direct(r) => r.render_table(),
            ResultPayload::Chaos(r) => {
                let incidents = r.incidents.len();
                let dropped: usize = r.shards.iter().map(ChaosShardOutcome::total_dropped).sum();
                format!(
                    "{}# {} shards x {} epochs, {} incidents, {} messages dropped in total\n",
                    r.render_table(),
                    r.shards.len(),
                    r.epochs,
                    incidents,
                    dropped
                )
            }
            ResultPayload::Agreement(r) => r.render_table(),
        }
    }
}

/// The versioned envelope every scenario run returns: schema version,
/// provenance (the exact spec that ran) and the engine payload, plus an
/// optional telemetry section when the run was instrumented.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Result schema version ([`RESULT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Scenario name (from the spec).
    pub scenario: String,
    /// The spec that produced this result (after any `--quick` rewrite).
    pub spec: ScenarioSpec,
    /// The engine payload.
    pub payload: ResultPayload,
    /// Per-run observability (stage wall-clocks, counters, gauges,
    /// histograms), present only under [`RunOptions::telemetry`]. Strictly
    /// outside the deterministic payload: two runs of the same spec have
    /// byte-identical payloads and different telemetry.
    pub telemetry: Option<xgft_obs::Telemetry>,
}

/// Hand-written (not derived) so the `telemetry` key is *omitted* when
/// absent: envelopes from uninstrumented runs stay byte-identical to the
/// pre-telemetry schema, which the golden fixtures pin.
impl Serialize for ScenarioResult {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            (
                "schema_version".to_string(),
                Serialize::to_value(&self.schema_version),
            ),
            ("scenario".to_string(), Serialize::to_value(&self.scenario)),
            ("spec".to_string(), self.spec.to_value()),
            ("payload".to_string(), self.payload.to_value()),
        ];
        if let Some(telemetry) = &self.telemetry {
            fields.push(("telemetry".to_string(), telemetry.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ScenarioResult {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let telemetry = match serde::obj_field(value, "telemetry") {
            Ok(v) => Some(xgft_obs::Telemetry::from_value(v)?),
            Err(_) => None,
        };
        Ok(ScenarioResult {
            schema_version: Deserialize::from_value(serde::obj_field(value, "schema_version")?)?,
            scenario: Deserialize::from_value(serde::obj_field(value, "scenario")?)?,
            spec: Deserialize::from_value(serde::obj_field(value, "spec")?)?,
            payload: Deserialize::from_value(serde::obj_field(value, "payload")?)?,
            telemetry,
        })
    }
}

impl ScenarioResult {
    /// The text rendering the unified CLI prints.
    pub fn render(&self) -> String {
        self.payload.render()
    }
}

/// A validated scenario, lowered onto exactly what its engine needs.
/// `ScenarioSpec::lower` is the only constructor, so every value is a
/// runnable combination and [`run_scenario`] matches on it exhaustively.
pub(crate) enum Plan {
    /// A trace sweep in either route representation under either seed
    /// policy; `name` labels a stream-seeded run's campaign record.
    Trace {
        name: String,
        config: SweepConfig,
        representation: RepresentationSpec,
    },
    /// A fault campaign on one machine.
    Resilience(ResilienceConfig),
    /// The analytical sweep; the workload pattern becomes its traffic.
    Flow {
        specs: Vec<XgftSpec>,
        schemes: Vec<AlgorithmSpec>,
    },
    /// Exact closed-form loads, one point per job, routed by its scheme's
    /// closed form.
    CompactFlow(Grid<fn(&Xgft, u64) -> CompactScheme>),
    /// Routes-per-NCA distributions of oblivious `schemes`; `seeds` is non-empty.
    Nca {
        topologies: Vec<XgftSpec>,
        schemes: Vec<AlgorithmSpec>,
        seeds: Vec<u64>,
    },
    /// Direct injection, one simulator run per job.
    Direct(Grid<Routes>),
    /// A fault/repair timeline with per-epoch SLA metrics.
    Chaos(ChaosConfig),
    /// The three engines on the same routes, one check per job.
    Agreement(Grid<Routes>),
}

/// How a job of the direct-injection and agreement engines routes.
#[derive(Clone, Copy)]
pub(crate) enum Routes {
    /// A [`CompiledRouteTable`] of the workload's pairs.
    Compiled,
    /// [`CompactRoutes`] over the workload's pairs, from the scheme's
    /// closed form.
    Compact(fn(&Xgft, u64) -> CompactScheme),
}

/// The (topology × scheme × seed) jobs of the grid engines.
pub(crate) struct Grid<R> {
    pub(crate) name: String,
    /// Every topology of the run, built once.
    pub(crate) machines: Vec<(XgftSpec, Xgft)>,
    /// `(scheme, seed, routes)`, run on every machine in this order.
    pub(crate) jobs: Vec<(SchemeSpec, u64, R)>,
    pub(crate) network: NetworkConfig,
}

impl Plan {
    /// The pre-run progress header of campaign, resilience and chaos runs
    /// (`None` for the other plans). Long campaigns run for minutes; the
    /// CLI prints this to stderr before the engine starts so they are
    /// never silent.
    pub(crate) fn header(&self) -> Option<String> {
        match self {
            Plan::Trace {
                name,
                config: c,
                ..
            } => match c.seeds {
                SeedSpec::List { .. } => None,
                SeedSpec::Stream {
                    base_seed,
                    seeds_per_point,
                } => Some(format!(
                    "# campaign {name}: {} leaves, {} shards ({} w2 points x {} algorithms, {seeds_per_point} seeds/point, base seed {base_seed})",
                    c.k * c.k,
                    c.shards().len(),
                    c.w2_values.len(),
                    c.algorithms.len(),
                )),
            },
            Plan::Resilience(c) => Some(format!(
                "# resilience {}: {} leaves, {} shards ({} rates x {} algorithms, {} fault draws/point, base seed {})",
                c.name,
                c.k * c.k,
                c.shards().len(),
                c.failure_permille.len(),
                c.algorithms.len(),
                c.faults_per_point,
                c.base_seed
            )),
            Plan::Chaos(c) => Some(format!(
                "# chaos {}: {} leaves, {} shards x {} epochs ({} algorithms, {} seeds/point, base seed {})",
                c.name,
                c.k * c.k,
                c.shards().len(),
                c.epochs,
                c.algorithms.len(),
                c.seeds_per_point,
                c.base_seed
            )),
            _ => None,
        }
    }

    /// Run the plan's engine on the workload pattern.
    fn run(self, pattern: Pattern) -> Result<ResultPayload, ScenarioError> {
        Ok(match self {
            Plan::Trace {
                name,
                config,
                representation,
            } => {
                let sweep = match representation {
                    RepresentationSpec::Compiled => config.run(&pattern),
                    // Byte-identical samples from the closed-form engine
                    // (compact paths equal compiled paths).
                    RepresentationSpec::Compact => config.run_compact(&pattern),
                }
                .map_err(refused)?;
                match config.seeds {
                    SeedSpec::List { .. } => ResultPayload::Sweep(sweep),
                    SeedSpec::Stream {
                        base_seed,
                        seeds_per_point,
                    } => ResultPayload::Campaign(CampaignResult::from_sweep(
                        name,
                        base_seed,
                        seeds_per_point,
                        &config.shards(),
                        sweep,
                    )),
                }
            }
            Plan::Resilience(config) => {
                ResultPayload::Resilience(config.run(&pattern).map_err(refused)?)
            }
            Plan::Flow { specs, schemes } => ResultPayload::Flow(
                FlowSweepConfig {
                    specs,
                    schemes,
                    traffic: TrafficSpec::Pattern(pattern),
                }
                .run(),
            ),
            Plan::CompactFlow(grid) => ResultPayload::CompactFlow(run_compact_flow(grid, pattern)),
            Plan::Nca {
                topologies,
                schemes,
                seeds,
            } => ResultPayload::Nca(
                topologies
                    .iter()
                    .map(|t| fig4::run_for(t, &schemes, &seeds))
                    .collect::<Result<_, _>>()
                    .map_err(refused)?,
            ),
            Plan::Direct(grid) => ResultPayload::Direct(run_direct(grid, &pattern)?),
            Plan::Chaos(config) => ResultPayload::Chaos(config.run(&pattern).map_err(refused)?),
            Plan::Agreement(grid) => ResultPayload::Agreement(run_agreement(grid, &pattern)?),
        })
    }
}

/// A runner's typed error as an invalid scenario. Lowering already rejects
/// every configuration a runner refuses, so this path is a backstop.
fn refused(e: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::Invalid(e.to_string())
}

/// Run one scenario end to end: lower the spec into its plan, then run
/// the plan. See the module docs for the plans.
pub fn run_scenario(
    spec: &ScenarioSpec,
    options: &RunOptions,
) -> Result<ScenarioResult, ScenarioError> {
    run_announced(spec, options, false)
}

/// [`run_scenario`]; with `announce`, the plan's pre-run header (campaign,
/// resilience and chaos runs) goes to stderr before the engine starts.
pub(crate) fn run_announced(
    spec: &ScenarioSpec,
    options: &RunOptions,
    announce: bool,
) -> Result<ScenarioResult, ScenarioError> {
    let spec = if options.quick {
        spec.quickened()
    } else {
        spec.clone()
    };
    // Snapshot the registry before any work so the telemetry window covers
    // exactly this run (the registry itself is process-lifetime).
    let window_start = options.telemetry.then(|| xgft_obs::global().snapshot());
    let wall_start = std::time::Instant::now();
    let run_span = xgft_obs::span("scenario.run");
    let (plan, pattern) = spec.lower()?;
    if let Some(header) = plan.header().filter(|_| announce) {
        eprintln!("{header}");
    }
    let payload = plan.run(pattern)?;
    // Close the run span before diffing so scenario.run itself lands in
    // the window.
    drop(run_span);
    let telemetry = window_start.map(|before| {
        let wall_ns = u64::try_from(wall_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let delta = xgft_obs::global().snapshot().delta_since(&before);
        xgft_obs::Telemetry::from_window(wall_ns, delta)
    });
    Ok(ScenarioResult {
        schema_version: RESULT_SCHEMA_VERSION,
        scenario: spec.name.clone(),
        spec,
        payload,
        telemetry,
    })
}

/// The flow list of a pattern's combined matrix: `(src, dst, bytes)`.
fn flow_list(pattern: &Pattern) -> Vec<(usize, usize, u64)> {
    pattern
        .combined()
        .network_flows()
        .map(|f| (f.src, f.dst, f.bytes))
        .collect()
}

/// Inject every flow at t = 0 through `source` and run the event-driven
/// simulator to completion. Shared by both route representations. The
/// matrix is lowered into one [`InjectionBatch`] and admitted in a single
/// `schedule_batch` call — bit-identical to a per-message
/// `schedule_message_on_path` loop (pinned by netsim's fuzz differential).
/// The report must pass [`check_pristine_run`].
fn inject_and_run(
    xgft: &Xgft,
    network: &NetworkConfig,
    flows: &[(usize, usize, u64)],
    source: &dyn RouteSource,
) -> Result<(SimReport, Vec<u64>), ScenarioError> {
    let mut batch = InjectionBatch::with_capacity(flows.len(), 0);
    let mut scratch = Vec::new();
    for &(s, d, bytes) in flows {
        let path = source.path_in(s, d, &mut scratch).expect("routed pair");
        batch.push(0, s, d, bytes, path);
    }
    let mut sim = NetworkSim::new(xgft, network.clone());
    sim.schedule_batch(&batch);
    let report = sim.run_to_completion();
    check_pristine_run(&report, flows.len())?;
    let busy = sim.channel_busy_ps();
    Ok((report, busy))
}

/// The conservation invariants of a run on a pristine machine: every one
/// of the `offered` messages is delivered or dropped, and none is dropped.
fn check_pristine_run(report: &SimReport, offered: usize) -> Result<(), ScenarioError> {
    let (delivered, dropped) = (report.completed_messages, report.dropped_messages);
    if delivered + dropped != offered {
        return Err(ScenarioError::Invariant {
            invariant: "delivered + dropped = offered",
            detail: format!("delivered {delivered}, dropped {dropped}, offered {offered}"),
        });
    }
    if dropped != 0 {
        return Err(ScenarioError::Invariant {
            invariant: "a pristine run drops nothing",
            detail: format!("dropped {dropped} of {offered}"),
        });
    }
    Ok(())
}

impl Grid<Routes> {
    /// Build every job's routes and hand them to `point`, one rayon item
    /// per (machine, job). Each item is self-contained and the points are
    /// collected in job order, so they are identical at any worker count;
    /// so is the error returned, the first in job order.
    fn map_jobs<P: Send>(
        &self,
        pattern: &Pattern,
        flows: &[(usize, usize, u64)],
        point: impl Fn(&XgftSpec, &Xgft, SchemeSpec, u64, &dyn RouteSource) -> Result<P, ScenarioError>
            + Sync,
    ) -> Result<Vec<P>, ScenarioError> {
        let pairs: Vec<(usize, usize)> = flows.iter().map(|&(s, d, _)| (s, d)).collect();
        let jobs: Vec<_> = self
            .machines
            .iter()
            .flat_map(|machine| self.jobs.iter().map(move |job| (machine, job)))
            .collect();
        jobs.par_iter()
            .map(|&((spec, xgft), &(scheme, seed, routes))| match routes {
                Routes::Compiled => {
                    let algo = scheme.0.instantiate(xgft, pattern, seed);
                    let table =
                        CompiledRouteTable::compile(xgft, algo.as_ref(), pairs.iter().copied());
                    point(spec, xgft, scheme, seed, &table)
                }
                Routes::Compact(closed_form) => {
                    let routes = CompactRoutes::for_pairs(
                        xgft,
                        closed_form(xgft, seed),
                        pairs.iter().copied(),
                    );
                    point(spec, xgft, scheme, seed, &routes)
                }
            })
            .collect()
    }
}

/// Exact per-instance loads from the closed-form engine, one point per
/// (topology, scheme, seed) — the `Flow` engine under
/// `representation = "compact"`. The traffic matrix is sparse and the
/// compact engine holds near-zero route state, so this path scales to
/// million-leaf machines the compiled table cannot represent.
///
/// The workload is held once: the pattern is dropped as soon as the
/// traffic matrix exists. The (machine, job) items then run in waves of
/// one item per worker over the order-preserving rayon map, so the points
/// are identical at any worker count. Everything sized by the machine —
/// the per-channel load buffers, reused across waves, and each wave's
/// route state — is allocated here on the calling thread: memory first
/// allocated in a shim worker stays in that thread's allocator arena after
/// the worker exits.
fn run_compact_flow(
    grid: Grid<fn(&Xgft, u64) -> CompactScheme>,
    pattern: Pattern,
) -> CompactFlowResult {
    // Every machine of a grid has the same leaves (a sweep varies only
    // `w2`), so one traffic matrix serves them all.
    let leaves = grid
        .machines
        .first()
        .map_or(0, |(_, xgft)| xgft.num_leaves());
    let traffic = TrafficMatrix::from_pattern(&pattern, leaves);
    // Keep the pattern's own name string: a copy made here would sit in
    // the heap above the traffic matrix and keep the allocator from
    // trimming it after the run.
    let workload = pattern.into_name();
    // The bounds' per-subtree sums reuse the pattern's memory.
    let machines: Vec<_> = grid
        .machines
        .iter()
        .map(|(topo_spec, xgft)| {
            let bound = tree_cut_lower_bound(xgft, &traffic).bound;
            (topo_spec, xgft, bound)
        })
        .collect();

    let items: Vec<_> = machines
        .iter()
        .flat_map(|machine| grid.jobs.iter().map(move |job| (machine, job)))
        .collect();
    let workers = rayon::current_num_threads().clamp(1, items.len().max(1));
    let channels = grid
        .machines
        .iter()
        .map(|(_, xgft)| xgft.channels().len())
        .max()
        .unwrap_or(0);
    let mut buffers: Vec<Vec<f64>> = (0..workers).map(|_| Vec::with_capacity(channels)).collect();
    let mut points = Vec::with_capacity(items.len());
    for wave in items.chunks(workers) {
        let mut lanes: Vec<_> = buffers
            .iter_mut()
            .zip(wave)
            .map(
                |(buffer, &(&(topo_spec, xgft, bound), &(scheme, seed, closed_form)))| {
                    let routes = CompactRoutes::all_pairs(xgft, closed_form(xgft, seed));
                    (buffer, topo_spec, xgft, bound, scheme, seed, routes)
                },
            )
            .collect();
        let wave_points: Vec<CompactFlowPoint> = lanes
            .par_iter_mut()
            .map(|(buffer, topo_spec, xgft, bound, scheme, seed, routes)| {
                let loads = DegradedLoads::from_source_in(
                    xgft,
                    &*routes,
                    &traffic,
                    std::mem::take(*buffer),
                );
                let mcl = loads.mcl();
                let point = CompactFlowPoint {
                    topology: topo_spec.to_string(),
                    num_leaves: xgft.num_leaves(),
                    w_top: topo_spec.w(topo_spec.height()),
                    scheme: scheme.name().to_string(),
                    seed: *seed,
                    mcl,
                    network_mcl: loads.network_mcl(xgft),
                    lower_bound: *bound,
                    ratio: ratio_to_bound(mcl, *bound),
                    routed_demand: loads.routed_demand(),
                    unroutable_demand: loads.unroutable_demand(),
                    route_state_bytes: routes.storage_bytes(),
                };
                **buffer = loads.into_loads();
                point
            })
            .collect();
        points.extend(wave_points);
    }
    CompactFlowResult {
        name: grid.name,
        workload,
        points,
    }
}

fn run_direct(grid: Grid<Routes>, pattern: &Pattern) -> Result<DirectResult, ScenarioError> {
    let flows = flow_list(pattern);
    let points = grid.map_jobs(pattern, &flows, |topo_spec, xgft, scheme, seed, routes| {
        let (report, busy) = inject_and_run(xgft, &grid.network, &flows, routes)?;
        Ok(DirectPoint {
            topology: topo_spec.to_string(),
            w_top: topo_spec.w(topo_spec.height()),
            scheme: scheme.name().to_string(),
            seed,
            delivered: report.completed_messages,
            makespan_ps: report.makespan_ps,
            max_busy_ps: busy.into_iter().max().unwrap_or(0),
            max_utilization: report.max_channel_utilization,
            p50_latency_ps: report.p50_latency_ps(),
            p99_latency_ps: report.p99_latency_ps(),
            max_latency_ps: report.max_latency_ps(),
        })
    })?;
    Ok(DirectResult {
        name: grid.name,
        workload: pattern.name().to_string(),
        points,
    })
}

const AGREEMENT_TOLERANCE: f64 = 1e-9;

/// Run the three engines on one route source and compare them
/// channel-by-channel: `(sims_identical, flow_max_rel_dev, model_mcl_ps)`.
fn agreement_check(
    xgft: &Xgft,
    network: &NetworkConfig,
    flows: &[(usize, usize, u64)],
    trace: &Trace,
    source: &dyn RouteSource,
) -> Result<(bool, f64, f64), ScenarioError> {
    // Engine 2: direct injection.
    let (_, netsim_busy) = inject_and_run(xgft, network, flows, source)?;

    // Engine 3: the same flows as a Send/Recv trace replay.
    let mut net = RoutedNetwork::with_source(NetworkSim::new(xgft, network.clone()), source);
    ReplayEngine::new(trace)
        .run(&mut net)
        .expect("fully-routed replay cannot deadlock");
    let tracesim_busy = net.sim().channel_busy_ps();

    // Engine 1: the flow model on the same routes, with demands in
    // channel-occupancy units (the serialization times of a message's
    // segments, which is how the simulator accounts busy time) so
    // loads == busy exactly, even for mixed message sizes.
    let traffic = TrafficMatrix::from_flows(
        xgft.num_leaves(),
        flows
            .iter()
            .map(|&(s, d, bytes)| (s, d, network.ideal_transfer_ps(bytes) as f64)),
    );
    let model = DegradedLoads::from_source(xgft, &source, &traffic);

    let sims_identical = netsim_busy == tracesim_busy;
    let max_busy = netsim_busy.iter().copied().max().unwrap_or(0) as f64;
    let flow_max_rel_dev = if max_busy == 0.0 {
        model.mcl()
    } else {
        model
            .loads()
            .iter()
            .zip(&netsim_busy)
            .map(|(&load, &busy)| (load - busy as f64).abs() / max_busy)
            .fold(0.0, f64::max)
    };
    Ok((sims_identical, flow_max_rel_dev, model.mcl()))
}

fn run_agreement(grid: Grid<Routes>, pattern: &Pattern) -> Result<AgreementResult, ScenarioError> {
    let flows = flow_list(pattern);
    // The flows as one phase: every rank posts its sends, then its receives.
    let combined = Pattern::single_phase(pattern.name(), pattern.combined());
    let trace = trace_from_pattern(&combined, 0);
    let points = grid.map_jobs(pattern, &flows, |topo_spec, xgft, scheme, seed, routes| {
        let (sims_identical, flow_max_rel_dev, model_mcl_ps) =
            agreement_check(xgft, &grid.network, &flows, &trace, routes)?;
        Ok(AgreementPoint {
            topology: topo_spec.to_string(),
            scheme: scheme.name().to_string(),
            seed,
            sims_identical,
            flow_max_rel_dev,
            model_mcl_ps,
        })
    })?;
    let all_agree = points
        .iter()
        .all(|p| p.sims_identical && p.flow_max_rel_dev <= AGREEMENT_TOLERANCE);
    if xgft_obs::trace_enabled() {
        xgft_obs::trace(
            "agreement_checked",
            &[
                ("points", points.len().into()),
                ("all_agree", all_agree.into()),
            ],
        );
    }
    Ok(AgreementResult {
        name: grid.name,
        workload: pattern.name().to_string(),
        tolerance: AGREEMENT_TOLERANCE,
        all_agree,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        ChaosSpec, EngineSpec, FaultSpec, SeedSpec, SweepSpec, TopologySpec, WorkloadSpec,
    };
    use xgft_analysis::AlgorithmSpec;

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec::basic(
            "unit",
            TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
            WorkloadSpec::new("wrf", 16, 16 * 1024),
            vec![
                SchemeSpec(AlgorithmSpec::DModK),
                SchemeSpec(AlgorithmSpec::Random),
            ],
        )
    }

    #[test]
    fn tracesim_list_lowers_to_a_sweep() {
        let mut spec = base_spec();
        spec.sweep = SweepSpec::over(vec![4, 1]);
        spec.seeds = SeedSpec::List { seeds: vec![1, 2] };
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        assert_eq!(result.schema_version, RESULT_SCHEMA_VERSION);
        let ResultPayload::Sweep(sweep) = &result.payload else {
            panic!("expected a sweep payload");
        };
        assert_eq!(sweep.k, 4);
        assert_eq!(sweep.points.len(), 4); // 2 w2 × 2 schemes
        assert_eq!(sweep.point(4, "random").unwrap().samples.len(), 2);
        // Slimming degrades d-mod-k on the mesh exchange.
        let full = sweep.point(4, "d-mod-k").unwrap().stats.median;
        let slim = sweep.point(1, "d-mod-k").unwrap().stats.median;
        assert!(slim >= full);
        assert!(result.render().contains("d-mod-k"));
    }

    #[test]
    fn tracesim_stream_lowers_to_a_campaign() {
        let mut spec = base_spec();
        spec.sweep = SweepSpec::over(vec![4]);
        spec.seeds = SeedSpec::Stream {
            base_seed: 2009,
            seeds_per_point: 2,
        };
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        let ResultPayload::Campaign(campaign) = &result.payload else {
            panic!("expected a campaign payload");
        };
        assert_eq!(campaign.name, "unit");
        assert_eq!(campaign.base_seed, 2009);
        // 1 w2 × (2 random + 1 d-mod-k).
        assert_eq!(campaign.shards.len(), 3);
        assert!(result.render().contains("crossbar reference"));
    }

    #[test]
    fn faults_lower_to_a_resilience_campaign() {
        let mut spec = base_spec();
        spec.faults = FaultSpec::UniformLinks {
            permille: vec![0, 100],
            draws_per_point: 2,
        };
        spec.seeds = SeedSpec::Stream {
            base_seed: 2009,
            seeds_per_point: 2,
        };
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        let ResultPayload::Resilience(r) = &result.payload else {
            panic!("expected a resilience payload");
        };
        assert_eq!(r.w2, 4);
        // rate 0 → 1 shard/scheme; rate 100 → 2 draws/scheme.
        assert_eq!(r.shards.len(), 2 + 4);
        assert!(result.render().contains("rerouted"));
    }

    #[test]
    fn flow_engine_lowers_to_the_analytic_sweep() {
        let mut spec = base_spec();
        spec.engine = EngineSpec::Flow;
        spec.sweep = SweepSpec::over(vec![4, 2]);
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        let ResultPayload::Flow(flow) = &result.payload else {
            panic!("expected a flow payload");
        };
        assert_eq!(flow.points.len(), 4);
        assert!(flow.points.iter().all(|p| p.mcl > 0.0));
    }

    #[test]
    fn nca_engine_reports_distributions() {
        let mut spec = base_spec();
        spec.engine = EngineSpec::Nca;
        spec.seeds = SeedSpec::List { seeds: vec![1] };
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        let ResultPayload::Nca(results) = &result.payload else {
            panic!("expected an NCA payload");
        };
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].num_ncas, 4);
    }

    #[test]
    fn netsim_engine_injects_directly() {
        let mut spec = base_spec();
        spec.engine = EngineSpec::Netsim;
        spec.seeds = SeedSpec::List { seeds: vec![7] };
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        let ResultPayload::Direct(direct) = &result.payload else {
            panic!("expected a direct payload");
        };
        // 1 d-mod-k + 1 random seed.
        assert_eq!(direct.points.len(), 2);
        for p in &direct.points {
            assert!(p.delivered > 0);
            assert!(p.makespan_ps > 0);
            assert!(p.max_busy_ps > 0);
        }
    }

    #[test]
    fn agreement_engine_confirms_the_three_way_match() {
        let mut spec = base_spec();
        spec.engine = EngineSpec::AllWithAgreement;
        spec.schemes.push(SchemeSpec(AlgorithmSpec::RandomNcaUp));
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        let ResultPayload::Agreement(agreement) = &result.payload else {
            panic!("expected an agreement payload");
        };
        assert_eq!(agreement.points.len(), 3);
        assert!(
            agreement.all_agree,
            "engines diverged: {:#?}",
            agreement.points
        );
    }

    #[test]
    fn compact_tracesim_matches_the_compiled_sweep_exactly() {
        let mut spec = base_spec();
        spec.sweep = SweepSpec::over(vec![4, 2]);
        spec.seeds = SeedSpec::List { seeds: vec![1, 2] };
        spec.schemes.push(SchemeSpec(AlgorithmSpec::RandomNcaUp));
        let compiled = run_scenario(&spec, &RunOptions::default()).unwrap();
        spec.representation = RepresentationSpec::Compact;
        let compact = run_scenario(&spec, &RunOptions::default()).unwrap();
        let (ResultPayload::Sweep(a), ResultPayload::Sweep(b)) =
            (&compiled.payload, &compact.payload)
        else {
            panic!("expected sweep payloads from both representations");
        };
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "compact representation must reproduce the compiled sweep byte for byte"
        );
    }

    #[test]
    fn compact_tracesim_stream_matches_the_compiled_campaign_exactly() {
        let mut spec = base_spec();
        spec.sweep = SweepSpec::over(vec![4, 2]);
        spec.seeds = SeedSpec::Stream {
            base_seed: 2009,
            seeds_per_point: 2,
        };
        spec.schemes.push(SchemeSpec(AlgorithmSpec::RandomNcaDown));
        let compiled = run_scenario(&spec, &RunOptions::default()).unwrap();
        spec.representation = RepresentationSpec::Compact;
        let compact = run_scenario(&spec, &RunOptions::default()).unwrap();
        let (ResultPayload::Campaign(a), ResultPayload::Campaign(b)) =
            (&compiled.payload, &compact.payload)
        else {
            panic!("expected campaign payloads from both representations");
        };
        // 2 w2 × (2 random + 2 r-NCA-d + 1 d-mod-k).
        assert_eq!(b.shards.len(), 10);
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "compact representation must reproduce the compiled campaign byte for byte"
        );
    }

    #[test]
    fn compact_flow_reports_exact_loads_and_route_state() {
        let mut spec = base_spec();
        spec.engine = EngineSpec::Flow;
        spec.representation = RepresentationSpec::Compact;
        spec.schemes.push(SchemeSpec(AlgorithmSpec::RandomNcaDown));
        spec.seeds = SeedSpec::List { seeds: vec![5] };
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        let ResultPayload::CompactFlow(flow) = &result.payload else {
            panic!("expected a compact-flow payload");
        };
        // 1 d-mod-k + 1 random seed + 1 r-NCA-d seed.
        assert_eq!(flow.points.len(), 3);
        for p in &flow.points {
            assert_eq!(p.num_leaves, 16);
            assert!(p.mcl > 0.0);
            assert!(p.network_mcl <= p.mcl);
            assert!(p.lower_bound > 0.0);
            assert!(p.ratio >= 1.0 - 1e-9, "mcl below the cut bound: {p:?}");
            assert_eq!(p.unroutable_demand, 0.0);
        }
        // Closed-form schemes hold no per-pair route state at all; r-NCA
        // holds only its relabel maps — far below one u32 per (pair, hop).
        let dmodk = flow.points.iter().find(|p| p.scheme == "d-mod-k").unwrap();
        assert_eq!(dmodk.route_state_bytes, 0);
        assert!(flow.points.iter().all(|p| p.route_state_bytes < 1024));
        assert!(result.render().contains("route-bytes"));
    }

    #[test]
    fn compact_netsim_matches_the_compiled_points() {
        let mut spec = base_spec();
        spec.engine = EngineSpec::Netsim;
        spec.seeds = SeedSpec::List { seeds: vec![7] };
        let compiled = run_scenario(&spec, &RunOptions::default()).unwrap();
        spec.representation = RepresentationSpec::Compact;
        let compact = run_scenario(&spec, &RunOptions::default()).unwrap();
        let (ResultPayload::Direct(a), ResultPayload::Direct(b)) =
            (&compiled.payload, &compact.payload)
        else {
            panic!("expected direct payloads from both representations");
        };
        assert_eq!(
            serde_json::to_string(&a.points).unwrap(),
            serde_json::to_string(&b.points).unwrap()
        );
    }

    #[test]
    fn compact_agreement_confirms_the_three_way_match() {
        let mut spec = base_spec();
        spec.engine = EngineSpec::AllWithAgreement;
        spec.representation = RepresentationSpec::Compact;
        spec.schemes.push(SchemeSpec(AlgorithmSpec::RandomNcaUp));
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        let ResultPayload::Agreement(agreement) = &result.payload else {
            panic!("expected an agreement payload");
        };
        assert_eq!(agreement.points.len(), 3);
        assert!(
            agreement.all_agree,
            "engines diverged on compact routes: {:#?}",
            agreement.points
        );
    }

    #[test]
    fn quick_option_shrinks_the_run() {
        let mut spec = base_spec();
        spec.seeds = SeedSpec::List {
            seeds: (1..=10).collect(),
        };
        let result = run_scenario(
            &spec,
            &RunOptions {
                quick: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let ResultPayload::Sweep(sweep) = &result.payload else {
            panic!("expected a sweep payload");
        };
        assert_eq!(sweep.point(4, "random").unwrap().samples.len(), 3);
        // The envelope records the spec that actually ran.
        assert_eq!(result.spec.seeds.as_list().unwrap().len(), 3);
    }

    #[test]
    fn telemetry_rides_outside_the_deterministic_payload() {
        let mut spec = base_spec();
        spec.seeds = SeedSpec::List { seeds: vec![1] };
        let with = run_scenario(
            &spec,
            &RunOptions {
                quick: false,
                telemetry: true,
            },
        )
        .unwrap();
        let without = run_scenario(&spec, &RunOptions::default()).unwrap();

        let telemetry = with.telemetry.as_ref().expect("telemetry was requested");
        assert!(telemetry.wall_ns > 0);
        assert!(telemetry.stage("scenario.run").is_some());
        assert!(telemetry.stage("core.compile").is_some());
        assert!(without.telemetry.is_none());

        // Instrumentation observes the run, it never alters it.
        assert_eq!(
            serde_json::to_string(&with.payload).unwrap(),
            serde_json::to_string(&without.payload).unwrap(),
        );
        // The envelope omits the key entirely when telemetry is off, so
        // pre-telemetry golden envelopes stay byte-identical.
        let bare = serde_json::to_string(&without).unwrap();
        assert!(!bare.contains("\"telemetry\""), "{bare}");
        let instrumented = serde_json::to_string(&with).unwrap();
        assert!(instrumented.contains("\"telemetry\""));

        // And the instrumented envelope round-trips.
        let parsed: ScenarioResult = serde_json::from_str(&instrumented).unwrap();
        let reparsed_stage = parsed.telemetry.expect("telemetry survives the round trip");
        assert_eq!(
            reparsed_stage.stage("scenario.run"),
            telemetry.stage("scenario.run")
        );
    }

    #[test]
    fn direct_points_report_latency_percentiles() {
        let mut spec = base_spec();
        spec.engine = EngineSpec::Netsim;
        spec.seeds = SeedSpec::List { seeds: vec![7] };
        let result = run_scenario(&spec, &RunOptions::default()).unwrap();
        let ResultPayload::Direct(direct) = &result.payload else {
            panic!("expected a direct payload");
        };
        for p in &direct.points {
            assert!(p.p50_latency_ps > 0);
            assert!(p.p50_latency_ps <= p.p99_latency_ps);
            assert!(p.p99_latency_ps <= p.max_latency_ps);
            assert!(p.max_latency_ps <= p.makespan_ps);
        }
        assert!(result.render().contains("p99-lat"));
    }

    #[test]
    fn invalid_specs_are_rejected_before_running() {
        let mut spec = base_spec();
        spec.schema_version = 9;
        assert!(run_scenario(&spec, &RunOptions::default()).is_err());
    }

    #[test]
    fn header_announces_campaigns_resilience_and_chaos_only() {
        let header = |spec: &ScenarioSpec| spec.lower().unwrap().0.header();
        // Plain figure sweeps have no pre-run header.
        assert!(header(&base_spec()).is_none());

        let mut campaign = base_spec();
        campaign.sweep = SweepSpec::over(vec![4, 2]);
        campaign.seeds = SeedSpec::Stream {
            base_seed: 7,
            seeds_per_point: 3,
        };
        // 2 w2 × (1 random × 3 seeds + 1 d-mod-k) = 8 shards.
        assert_eq!(
            header(&campaign).unwrap(),
            "# campaign unit: 16 leaves, 8 shards (2 w2 points x 2 algorithms, 3 seeds/point, \
             base seed 7)"
        );

        let mut faults = base_spec();
        faults.faults = FaultSpec::UniformLinks {
            permille: vec![0, 100],
            draws_per_point: 2,
        };
        faults.seeds = SeedSpec::Stream {
            base_seed: 9,
            seeds_per_point: 2,
        };
        // (1 draw at rate 0 + 2 at rate 100) × 2 schemes = 6 shards.
        assert_eq!(
            header(&faults).unwrap(),
            "# resilience unit: 16 leaves, 6 shards (2 rates x 2 algorithms, 2 fault draws/point, \
             base seed 9)"
        );

        let mut chaos = base_spec();
        chaos.engine = EngineSpec::Netsim;
        chaos.seeds = SeedSpec::Stream {
            base_seed: 11,
            seeds_per_point: 2,
        };
        chaos.chaos = Some(ChaosSpec {
            epochs: 3,
            epoch_ps: 40_000_000,
            link_fail_permille: 100,
            switch_kill_permille: 0,
            cable_cut_permille: 0,
            repair_epochs: 1,
        });
        // 2 random seeds + 1 d-mod-k shard.
        assert_eq!(
            header(&chaos).unwrap(),
            "# chaos unit: 16 leaves, 3 shards x 3 epochs (2 algorithms, 2 seeds/point, base seed 11)"
        );
    }

    #[test]
    fn a_short_counted_run_is_a_typed_invariant_error() {
        let delivered_all = SimReport {
            completed_messages: 5,
            ..SimReport::default()
        };
        assert_eq!(check_pristine_run(&delivered_all, 5), Ok(()));

        let short = SimReport {
            completed_messages: 3,
            dropped_messages: 1,
            ..SimReport::default()
        };
        let err = check_pristine_run(&short, 5).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Invariant {
                invariant: "delivered + dropped = offered",
                detail: "delivered 3, dropped 1, offered 5".to_string(),
            }
        );
        assert!(err.to_string().contains("delivered + dropped = offered"));

        let lossy = SimReport {
            completed_messages: 4,
            dropped_messages: 1,
            ..SimReport::default()
        };
        assert!(matches!(
            check_pristine_run(&lossy, 5),
            Err(ScenarioError::Invariant {
                invariant: "a pristine run drops nothing",
                ..
            })
        ));
    }
}
