//! The traced run: each workload broken into the public layer calls that
//! `run_scenario` makes internally, with a span around every call.
//!
//! The decompositions mirror the runner's lowering step for step (compact
//! flow points, campaign shard groups, chaos epochs), so their check
//! values must equal the end-to-end payload's exactly; `main` asserts it.

use crate::checks::{self, Checks};
use crate::trace::Tracer;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use xgft_analysis::slowdown::{run_on_crossbar, run_reusing_sim};
use xgft_analysis::{AlgorithmSpec, CampaignConfig, ChaosConfig};
use xgft_core::{CompactRoutes, CompiledRouteTable, UndoableTable};
use xgft_flow::{tree_cut_lower_bound, DegradedLoads, TrafficMatrix};
use xgft_netsim::{FailurePolicy, InjectionBatch, NetworkSim, SimReport};
use xgft_patterns::{Flow, Pattern};
use xgft_scenario::runner::{CompactFlowPoint, CompactFlowResult};
use xgft_scenario::{ScenarioSpec, SeedSpec, TopologySpec};
use xgft_topo::{FaultSet, Xgft, XgftSpec};
use xgft_tracesim::{workloads, ReplayEngine};

/// What one decomposition produced: the check values it reproduced and
/// the work counts recorded at the layer boundaries.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.counts.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }
}

/// Decompose `workload` run on the spec `text`.
pub fn run(workload: Workload, t: &mut Tracer, text: &str) -> Result<Outcome, String> {
    let spec: ScenarioSpec = t
        .span("scenario.parse", |_| serde_json::from_str(text))
        .map_err(|e| format!("spec: {e}"))?;
    let pattern = t
        .span("patterns.generate", |_| spec.workload.pattern())
        .map_err(|e| format!("workload: {e}"))?;
    let mut out = Outcome::default();
    match workload {
        Workload::MillionFlow => million_flow(t, &spec, &pattern, &mut out)?,
        Workload::CgCampaign => cg_campaign(t, &spec, &pattern, &mut out)?,
        Workload::ChaosTimeline => chaos_timeline(t, &spec, &pattern, &mut out)?,
    }
    Ok(out)
}

/// Counts of the inputs that take a pass of their own to compute, made
/// once per process outside the timed decompositions: the workload's
/// network flows and, on the flow engine, the channel hops the loads
/// accumulate.
pub fn census(spec: &ScenarioSpec) -> Result<BTreeMap<&'static str, f64>, String> {
    let pattern = spec.workload.pattern().map_err(|e| e.to_string())?;
    let mut counts = BTreeMap::new();
    counts.insert(
        "patterns.flows",
        pattern.combined().network_flows().count() as f64,
    );
    if spec.engine == xgft_scenario::EngineSpec::Flow {
        let jobs = spec
            .schemes
            .iter()
            .map(|s| match (s.0.is_seeded(), spec.seeds.as_list()) {
                (true, Some(seeds)) => seeds.len(),
                _ => 1,
            })
            .sum::<usize>();
        let mut hops = 0u64;
        for topo_spec in spec.topologies().map_err(|e| e.to_string())? {
            let xgft = Xgft::new(topo_spec).map_err(|e| e.to_string())?;
            // Every scheme routes minimally: a flow crosses 2 x its NCA
            // level channels whichever scheme routes it.
            TrafficMatrix::from_pattern(&pattern, xgft.num_leaves()).for_each_flow(|s, d, _| {
                if s != d {
                    hops += 2 * xgft.nca_level(s, d) as u64;
                }
            });
        }
        counts.insert("flow.hops", (hops * jobs as u64) as f64);
    }
    Ok(counts)
}

fn build_xgft(t: &mut Tracer, spec: XgftSpec, out: &mut Outcome) -> Result<Xgft, String> {
    let xgft = t
        .span("topo.build", |_| Xgft::new(spec))
        .map_err(|e| format!("topology: {e}"))?;
    out.add("topo.channels", xgft.channels().len() as f64);
    Ok(xgft)
}

fn slimmed(spec: &ScenarioSpec) -> Result<(usize, usize), String> {
    match spec.topology {
        TopologySpec::SlimmedTwoLevel { k, w2 } => Ok((k, w2)),
        _ => Err("the workload needs a SlimmedTwoLevel topology".to_string()),
    }
}

fn stream_seeds(spec: &ScenarioSpec) -> Result<(u64, usize), String> {
    match spec.seeds {
        SeedSpec::Stream {
            base_seed,
            seeds_per_point,
        } => Ok((base_seed, seeds_per_point)),
        SeedSpec::List { .. } => Err("the workload needs Stream seeds".to_string()),
    }
}

fn algorithms(spec: &ScenarioSpec) -> Vec<AlgorithmSpec> {
    spec.schemes.iter().map(|s| s.0).collect()
}

fn record_compile(out: &mut Outcome, table: &CompiledRouteTable) {
    out.add("core.compile_calls", 1.0);
    out.add("core.compile_routes", table.len() as f64);
    let hops: usize = table.iter_paths().map(|(_, p)| p.len()).sum();
    out.add("core.compile_hops", hops as f64);
}

fn record_sim(out: &mut Outcome, report: &SimReport) {
    out.add("netsim.events", report.events_processed as f64);
    out.max("netsim.event_queue_hwm", report.event_queue_hwm as f64);
    out.add("netsim.delivered", report.completed_messages as f64);
    out.add("netsim.dropped", report.dropped_messages as f64);
}

/// Compact closed-form routes and exact flow loads, one point per
/// (topology, scheme, seed), as the runner's compact `Flow` path.
fn million_flow(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    pattern: &Pattern,
    out: &mut Outcome,
) -> Result<(), String> {
    let seeds = spec.seeds.as_list().unwrap_or_default().to_vec();
    let mut points = Vec::new();
    for topo_spec in spec.topologies().map_err(|e| e.to_string())? {
        let xgft = build_xgft(t, topo_spec.clone(), out)?;
        let traffic = t.span("flow.traffic", |_| {
            TrafficMatrix::from_pattern(pattern, xgft.num_leaves())
        });
        let bound = t.span("flow.bound", |_| {
            tree_cut_lower_bound(&xgft, &traffic).bound
        });
        let flows = traffic.flows().map_or(0, <[_]>::len);
        for &scheme in &spec.schemes {
            let scheme_seeds = if scheme.0.is_seeded() {
                seeds.clone()
            } else {
                vec![0]
            };
            for seed in scheme_seeds {
                let routes = t.span("core.compact_build", |_| {
                    scheme
                        .0
                        .compact_scheme(&xgft, seed)
                        .map(|closed_form| CompactRoutes::all_pairs(&xgft, closed_form))
                        .ok_or_else(|| format!("{} has no closed form", scheme.name()))
                })?;
                out.add("core.compact_state_bytes", routes.storage_bytes() as f64);
                // The loads, their maxima and the demand sums are all flow
                // layer work; the loads vector is freed inside the span too.
                let point = t.span("flow.loads", |_| {
                    let loads = DegradedLoads::from_source(&xgft, &routes, &traffic);
                    let mcl = loads.mcl();
                    CompactFlowPoint {
                        topology: topo_spec.to_string(),
                        num_leaves: xgft.num_leaves(),
                        w_top: topo_spec.w(topo_spec.height()),
                        scheme: scheme.name().to_string(),
                        seed,
                        mcl,
                        network_mcl: loads.network_mcl(&xgft),
                        lower_bound: bound,
                        ratio: mcl / bound,
                        routed_demand: loads.routed_demand(),
                        unroutable_demand: loads.unroutable_demand(),
                        route_state_bytes: routes.storage_bytes(),
                    }
                });
                out.add("flow.flows", flows as f64);
                points.push(point);
            }
        }
    }
    out.checks = checks::compact_flow_checks(&CompactFlowResult {
        name: spec.name.clone(),
        workload: pattern.name().to_string(),
        points,
    });
    Ok(())
}

/// The campaign's crossbar reference, then its shards grouped by
/// (w2, algorithm) with one topology, replay plan and simulator per group,
/// as the sweep runner's shard executor.
fn cg_campaign(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    pattern: &Pattern,
    out: &mut Outcome,
) -> Result<(), String> {
    let (k, w2) = slimmed(spec)?;
    let (base_seed, seeds_per_point) = stream_seeds(spec)?;
    let config = CampaignConfig {
        name: spec.name.clone(),
        k,
        w2_values: if spec.sweep.w2_values.is_empty() {
            vec![w2]
        } else {
            spec.sweep.w2_values.clone()
        },
        algorithms: algorithms(spec),
        seeds_per_point,
        base_seed,
        network: spec.network.clone(),
    };
    let trace = t.span("tracesim.plan", |_| {
        workloads::trace_from_pattern(pattern, 0)
    });
    let crossbar_ps = t
        .span("tracesim.crossbar", |_| {
            run_on_crossbar(&trace, &config.network)
        })
        .map_err(|e| format!("crossbar replay: {e}"))?
        .completion_ps;
    out.checks
        .insert("crossbar_ps".to_string(), crossbar_ps.to_string());
    let shards = config.shards();
    let mut index = 0;
    for group in shards.chunk_by(|a, b| a.w2 == b.w2 && a.algorithm == b.algorithm) {
        let xgft_spec = XgftSpec::slimmed_two_level(k, group[0].w2).map_err(|e| e.to_string())?;
        let xgft = build_xgft(t, xgft_spec, out)?;
        let mut engine = t.span("tracesim.plan", |_| ReplayEngine::new(&trace));
        let mut sim = t.span("netsim.build", |_| {
            NetworkSim::new(&xgft, config.network.clone())
        });
        for shard in group {
            let slowdown = t.span("analysis.shard", |t| -> Result<f64, String> {
                let table = t.span("core.compile", |_| {
                    let algo = shard.algorithm.instantiate(&xgft, pattern, shard.seed);
                    CompiledRouteTable::compile(&xgft, algo.as_ref(), trace.communication_pairs())
                });
                record_compile(out, &table);
                let result = t
                    .span("tracesim.replay", |_| {
                        run_reusing_sim(&mut engine, &mut sim, &table)
                    })
                    .map_err(|e| format!("replay: {e}"))?;
                out.add("tracesim.replays", 1.0);
                out.add("tracesim.messages", trace.num_sends() as f64);
                record_sim(out, &result.network_report);
                Ok(result.completion_ps as f64 / crossbar_ps as f64)
            })?;
            out.add("analysis.shards", 1.0);
            out.checks.insert(
                checks::campaign_shard_key(index, shard.w2, shard.algorithm.name(), shard.seed),
                format!("{slowdown:?}"),
            );
            index += 1;
        }
    }
    Ok(())
}

/// The chaos timeline: per shard, per epoch, revert-and-patch the working
/// table for the known incidents, strike the epoch's fresh incidents
/// mid-run, lower the workload into one batch and run netsim, as the
/// chaos runner.
fn chaos_timeline(
    t: &mut Tracer,
    spec: &ScenarioSpec,
    pattern: &Pattern,
    out: &mut Outcome,
) -> Result<(), String> {
    let (k, w2) = slimmed(spec)?;
    let (base_seed, seeds_per_point) = stream_seeds(spec)?;
    let chaos = spec
        .chaos
        .as_ref()
        .ok_or("the workload needs a chaos block")?;
    let config = ChaosConfig {
        name: spec.name.clone(),
        k,
        w2,
        algorithms: algorithms(spec),
        epochs: chaos.epochs,
        epoch_ps: chaos.epoch_ps,
        link_fail_permille: chaos.link_fail_permille,
        switch_kill_permille: chaos.switch_kill_permille,
        cable_cut_permille: chaos.cable_cut_permille,
        repair_epochs: chaos.repair_epochs,
        seeds_per_point,
        base_seed,
        network: spec.network.clone(),
    };
    let xgft_spec = XgftSpec::slimmed_two_level(k, w2).map_err(|e| e.to_string())?;
    let xgft = build_xgft(t, xgft_spec, out)?;
    let flows: Vec<Flow> = t.span("patterns.generate", |_| {
        pattern.combined().network_flows().collect()
    });
    let timeline = t.span("analysis.timeline", |_| config.timeline(&xgft));
    out.checks
        .insert("incidents".to_string(), timeline.len().to_string());
    let compile = |t: &mut Tracer, out: &mut Outcome, algorithm: AlgorithmSpec, seed: u64| {
        let table = t.span("core.compile", |_| {
            let algo = algorithm.instantiate(&xgft, pattern, seed);
            CompiledRouteTable::compile(&xgft, algo.as_ref(), flows.iter().map(|f| (f.src, f.dst)))
        });
        record_compile(out, &table);
        table
    };
    let pristine: Vec<(AlgorithmSpec, CompiledRouteTable)> = config
        .algorithms
        .iter()
        .filter(|a| !a.is_seeded())
        .map(|&a| (a, compile(t, out, a, 0)))
        .collect();
    for (i, shard) in config.shards().iter().enumerate() {
        t.span("analysis.shard", |t| {
            let cached = pristine.iter().find(|(a, _)| *a == shard.algorithm);
            let base = match cached {
                Some((_, table)) => t.span("core.clone", |_| table.clone()),
                None => compile(t, out, shard.algorithm, shard.algo_seed),
            };
            let mut working = UndoableTable::new(base);
            let mut active: Vec<usize> = Vec::new();
            let mut sim = t.span("netsim.build", |_| {
                NetworkSim::new(&xgft, config.network.clone())
            });
            let mut batch = InjectionBatch::new();
            for epoch in 0..config.epochs {
                let (known, cumulative) = t.span("analysis.timeline", |_| {
                    let known: Vec<usize> = timeline
                        .iter()
                        .enumerate()
                        .filter(|(_, inc)| inc.epoch < epoch && epoch < inc.repair_epoch)
                        .map(|(idx, _)| idx)
                        .collect();
                    let mut cumulative = FaultSet::none(&xgft);
                    for &idx in &known {
                        cumulative.merge(&timeline[idx].faults);
                    }
                    (known, cumulative)
                });
                if known != active {
                    let stats = t.span("core.patch", |_| working.patch(&xgft, &cumulative));
                    out.add("core.patch_calls", 1.0);
                    out.add("core.patch_rerouted", stats.rerouted as f64);
                    out.add("core.patch_untouched", stats.untouched as f64);
                    out.add(
                        "core.patch_touched",
                        (stats.rerouted + stats.unroutable) as f64,
                    );
                    out.add(
                        "core.patch_pairs",
                        (stats.untouched + stats.rerouted + stats.unroutable) as f64,
                    );
                    active = known;
                }
                t.span("netsim.reset", |_| sim.reset());
                t.span("netsim.schedule", |_| {
                    for incident in timeline.iter().filter(|inc| inc.epoch == epoch) {
                        for dense in incident.faults.iter_failed() {
                            if !cumulative.is_failed(dense) && !sim.channel_is_failed(dense) {
                                sim.fail_channel(incident.strike_ps, dense, FailurePolicy::Drop);
                            }
                        }
                    }
                });
                let unroutable = t.span("netsim.lower", |_| {
                    batch.clear();
                    let mut unroutable = 0usize;
                    for flow in &flows {
                        match working.path(flow.src, flow.dst) {
                            Some(path) => batch.push(0, flow.src, flow.dst, flow.bytes, path),
                            None => unroutable += 1,
                        }
                    }
                    unroutable
                });
                out.add("netsim.batch_messages", batch.len() as f64);
                t.span("netsim.schedule", |_| sim.schedule_batch(&batch));
                let report = t.span("netsim.event_loop", |_| sim.run_to_completion());
                record_sim(out, &report);
                let key = checks::chaos_epoch_key(i, shard.algorithm.name(), shard.index, epoch);
                let checks = &mut out.checks;
                checks.insert(
                    format!("{key}.delivered"),
                    report.completed_messages.to_string(),
                );
                checks.insert(
                    format!("{key}.dropped"),
                    report.dropped_messages.to_string(),
                );
                checks.insert(format!("{key}.unroutable"), unroutable.to_string());
            }
        });
        out.add("analysis.shards", 1.0);
    }
    Ok(())
}
