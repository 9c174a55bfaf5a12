//! The `xgft bench` performance trajectory.
//!
//! Fixed, seed-pinned probes over every layer's hot path — route compile,
//! incremental patch, analytical flow MCL, event-driven netsim, the trace
//! replay core, a tracesim campaign and the compact million-leaf engine —
//! each written as a versioned `BENCH_<area>.json` file. Committing those files once per PR
//! turns the repository history into a per-PR performance trajectory: a
//! regression shows up as a diff, not as an anecdote.
//!
//! Two rules keep the trajectory honest:
//!
//! * **Timings never gate.** Wall-clocks are machine- and load-dependent,
//!   so the delta report is informative only; CI fails solely on schema or
//!   shape errors (see [`validate_bench_file`]).
//! * **Checks pin behaviour.** Every probe carries deterministic check
//!   counters (routes built, makespan, events processed) computed from the
//!   probe's fixed seeds. A check drift means the *work* changed, not just
//!   its speed — the delta report flags it loudly.

use serde::{Deserialize, Serialize, Value};
use std::time::Instant;
use xgft_analysis::{AlgorithmSpec, CampaignConfig, ChaosConfig};
use xgft_core::{CompactRoutes, CompactScheme, CompiledRouteTable, DModK, UndoableTable};
use xgft_flow::{FlowSweepConfig, TrafficSpec};
use xgft_netsim::{InjectionBatch, NetworkConfig, NetworkSim};
use xgft_patterns::generators;
use xgft_topo::{FaultSet, Xgft};

/// The bench file schema version this crate emits.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Every bench area, in the order `xgft bench` runs them.
pub const ALL_AREAS: &[&str] = &[
    "compile", "patch", "flow_mcl", "netsim", "tracesim", "campaign", "compact", "chaos",
];

/// One deterministic check counter of a probe (work done, not time spent).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchCheck {
    /// Check name (e.g. `routes`, `makespan_ps`).
    pub name: String,
    /// Check value; identical across runs of the same code on any machine.
    pub value: u64,
}

/// One timed probe of a bench area.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchProbe {
    /// Probe name within its area.
    pub name: String,
    /// Fixed parameters, rendered (`k=32 scheme=d-mod-k`) so baselines with
    /// different parameters are never compared.
    pub params: String,
    /// Number of timed repetitions.
    pub reps: u32,
    /// Median wall-clock over the repetitions (ns).
    pub median_wall_ns: u64,
    /// Fastest repetition (ns) — the least noisy point.
    pub min_wall_ns: u64,
    /// Deterministic check counters from the last repetition.
    pub checks: Vec<BenchCheck>,
}

/// One versioned `BENCH_<area>.json` file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFile {
    /// Bench schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Area name (one of [`ALL_AREAS`]).
    pub area: String,
    /// True when produced under `--quick` (smaller fixed parameters; quick
    /// and full baselines are distinct trajectories).
    pub quick: bool,
    /// The area's probes.
    pub probes: Vec<BenchProbe>,
}

/// The canonical file name of an area's baseline.
pub fn bench_file_name(area: &str) -> String {
    format!("BENCH_{area}.json")
}

/// Time `work` `reps` times; returns `(median_ns, min_ns, checks)` with the
/// checks taken from the last repetition (they are deterministic, so any
/// repetition would do). One untimed warm-up invocation runs first so the
/// recorded repetitions measure steady state, not first-touch page faults
/// and allocator growth — with few repetitions a cold first run otherwise
/// dominates the median.
fn time_reps<F>(reps: u32, mut work: F) -> (u64, u64, Vec<BenchCheck>)
where
    F: FnMut() -> Vec<(&'static str, u64)>,
{
    let mut walls = Vec::with_capacity(reps as usize);
    let mut checks = work();
    for _ in 0..reps {
        let start = Instant::now();
        let observed = work();
        walls.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        checks = observed;
    }
    walls.sort_unstable();
    let median = walls[walls.len() / 2];
    (median, walls[0], bench_checks(checks))
}

fn bench_checks(checks: Vec<(&'static str, u64)>) -> Vec<BenchCheck> {
    checks
        .into_iter()
        .map(|(name, value)| BenchCheck {
            name: name.to_string(),
            value,
        })
        .collect()
}

fn probe(name: &str, params: String, reps: u32, timed: (u64, u64, Vec<BenchCheck>)) -> BenchProbe {
    BenchProbe {
        name: name.to_string(),
        params,
        reps,
        median_wall_ns: timed.0,
        min_wall_ns: timed.1,
        checks: timed.2,
    }
}

/// Run one bench area and return its file. `quick` shrinks the fixed
/// parameters to CI scale; quick and full runs are separate baselines.
pub fn bench_area(area: &str, quick: bool) -> Result<BenchFile, String> {
    let reps: u32 = if quick { 3 } else { 5 };
    let probes = match area {
        "compile" => bench_compile(quick, reps),
        "patch" => bench_patch(quick, reps),
        "flow_mcl" => bench_flow_mcl(quick, reps),
        "netsim" => bench_netsim(quick, reps),
        "tracesim" => bench_tracesim(quick, reps),
        "campaign" => bench_campaign(quick, reps),
        "compact" => bench_compact(quick, reps),
        "chaos" => bench_chaos(quick, reps),
        other => {
            return Err(format!(
                "unknown bench area `{other}` — known: {ALL_AREAS:?}"
            ))
        }
    };
    Ok(BenchFile {
        schema_version: BENCH_SCHEMA_VERSION,
        area: area.to_string(),
        quick,
        probes,
    })
}

/// All-pairs d-mod-k compile on a k-ary 2-tree: the table-build hot path.
/// Then the lookup the simulators pay per message, for every pair, through
/// the flat [`CompiledRouteTable`] (a binary search in the source's row
/// returning a borrowed slice). The lookup's check counters and the table's
/// byte size are pinned to the committed quick baseline by unit tests.
fn bench_compile(quick: bool, reps: u32) -> Vec<BenchProbe> {
    let k = if quick { 16 } else { 32 };
    let xgft = Xgft::k_ary_n_tree(k, 2);
    let n = xgft.num_leaves();
    let timed = time_reps(reps, || {
        let table = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        vec![
            ("routes", table.len() as u64),
            ("storage_bytes", table.storage_bytes() as u64),
        ]
    });

    let compiled = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
    let flat = time_reps(reps, || {
        let (mut lookups, mut hops, mut channel_sum) = (0u64, 0u64, 0u64);
        for s in 0..n {
            for d in (0..n).filter(|&d| d != s) {
                let path = compiled.path(s, d).expect("all pairs present");
                lookups += 1;
                hops += path.len() as u64;
                channel_sum += path.iter().map(|&c| c as u64).sum::<u64>();
            }
        }
        vec![
            ("lookups", lookups),
            ("hops", hops),
            ("channel_sum", channel_sum),
        ]
    });

    vec![
        probe(
            "compile_all_pairs",
            format!("k={k} scheme=d-mod-k"),
            reps,
            timed,
        ),
        probe(
            "compiled_lookup_all_pairs",
            format!("k={k} leaves={n} scheme=d-mod-k pairs=all"),
            reps,
            flat,
        ),
    ]
}

/// A fault-patch overlay over the pristine table against 1% uniform link
/// faults (seed-pinned draw), against the same degraded table compiled from
/// scratch. The recompile probe's checks are the patch statistics derived
/// by diffing its table against the pristine one, so the two probes must
/// report identical check counters (the `degraded_patch` proptests pin the
/// overlay pair-identical to the recompile); the wall-clock ratio is what
/// patching saves.
fn bench_patch(quick: bool, reps: u32) -> Vec<BenchProbe> {
    let k = if quick { 16 } else { 32 };
    let xgft = Xgft::k_ary_n_tree(k, 2);
    let n = xgft.num_leaves();
    let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
    let faults = FaultSet::uniform_links(&xgft, 0.01, 7);
    let timed = time_reps(reps, || {
        let stats = UndoableTable::new(&pristine).patch(&xgft, &faults);
        vec![
            ("untouched", stats.untouched as u64),
            ("rerouted", stats.rerouted as u64),
            ("unroutable", stats.unroutable as u64),
        ]
    });
    let mut recompiled = None;
    let (median, min, _) = time_reps(reps, || {
        recompiled = Some(CompiledRouteTable::compile_degraded(
            &xgft,
            &faults,
            &DModK::new(),
            (0..n).flat_map(|s| (0..n).map(move |d| (s, d))),
        ));
        Vec::new()
    });
    // The diff runs outside the timed work, so the probe prices the
    // recompile alone.
    let table = recompiled.expect("time_reps runs the work");
    let (mut untouched, mut rerouted, mut unroutable) = (0u64, 0u64, 0u64);
    for ((s, d), before) in pristine.iter_paths() {
        match table.path(s, d) {
            None => unroutable += 1,
            Some(after) if after == before => untouched += 1,
            Some(_) => rerouted += 1,
        }
    }
    let checks = bench_checks(vec![
        ("untouched", untouched),
        ("rerouted", rerouted),
        ("unroutable", unroutable),
    ]);
    let params = format!("k={k} scheme=d-mod-k rate=1% seed=7");
    vec![
        probe("patch_uniform_1pct", params.clone(), reps, timed),
        probe(
            "recompile_uniform_1pct",
            params,
            reps,
            (median, min, checks),
        ),
    ]
}

/// The analytical MCL sweep over the slimming family under uniform traffic.
fn bench_flow_mcl(quick: bool, reps: u32) -> Vec<BenchProbe> {
    let k = if quick { 32 } else { 128 };
    let w2_values = [k, k / 2, 1];
    let config = FlowSweepConfig::slimming_family(
        k,
        &w2_values,
        vec![
            AlgorithmSpec::DModK,
            AlgorithmSpec::SModK,
            AlgorithmSpec::RandomNcaUp,
        ],
        TrafficSpec::Uniform,
    )
    .expect("k and every w2 describe a machine");
    let timed = time_reps(reps, || {
        let result = config.run();
        // Scale the (exact, closed-form) ratios into a stable integer so
        // behaviour drift in the model shows up as a check drift.
        let ratio_sum: f64 = result.points.iter().map(|p| p.ratio).sum();
        vec![
            ("points", result.points.len() as u64),
            ("ratio_sum_ppm", (ratio_sum * 1e6).round() as u64),
        ]
    });
    vec![probe(
        "slimming_family_uniform",
        format!("k={k} w2={w2_values:?} schemes=3"),
        reps,
        timed,
    )]
}

/// Direct injection of a shift permutation into the event-driven simulator,
/// measured through both injection paths. The two probes must report
/// *identical* check counters (same makespan, deliveries and event count) —
/// a drift between them means the batched path changed behaviour, which the
/// fuzz differential forbids. Dividing the `events` check by the wall-clock
/// gives the event throughput the trajectory tracks.
fn bench_netsim(quick: bool, reps: u32) -> Vec<BenchProbe> {
    let k = if quick { 8 } else { 16 };
    let xgft = Xgft::k_ary_n_tree(k, 2);
    let n = xgft.num_leaves();
    let pattern = generators::shift(n, k, 64 * 1024);
    let flows: Vec<(usize, usize, u64)> = pattern
        .combined()
        .network_flows()
        .map(|f| (f.src, f.dst, f.bytes))
        .collect();
    let table =
        CompiledRouteTable::compile(&xgft, &DModK::new(), flows.iter().map(|&(s, d, _)| (s, d)));
    let params = format!("k={k} leaves={n} msg=64KiB scheme=d-mod-k");

    let per_message = time_reps(reps, || {
        let mut sim = NetworkSim::new(&xgft, NetworkConfig::default());
        for &(s, d, bytes) in &flows {
            let path = table.path(s, d).expect("routed pair");
            sim.schedule_message_on_path(0, s, d, bytes, path);
        }
        let report = sim.run_to_completion();
        vec![
            ("makespan_ps", report.makespan_ps),
            ("delivered", report.completed_messages as u64),
            ("events", report.events_processed),
        ]
    });

    // Batched path: lowering into the batch is part of the timed work, so
    // the probe prices the full injection cost, not just the event loop.
    let batched = time_reps(reps, || {
        let mut batch = InjectionBatch::with_capacity(flows.len(), 0);
        for &(s, d, bytes) in &flows {
            batch.push(0, s, d, bytes, table.path(s, d).expect("routed pair"));
        }
        let mut sim = NetworkSim::new(&xgft, NetworkConfig::default());
        sim.schedule_batch(&batch);
        let report = sim.run_to_completion();
        vec![
            ("makespan_ps", report.makespan_ps),
            ("delivered", report.completed_messages as u64),
            ("events", report.events_processed),
            ("event_queue_hwm", report.event_queue_hwm as u64),
        ]
    });

    vec![
        probe("shift_direct_injection", params.clone(), reps, per_message),
        probe("shift_batched_injection", params, reps, batched),
    ]
}

/// The replay core head to head: one seed-free CG-class trace (dense
/// send/recv/barrier structure, the matching-heavy shape) replayed on the
/// ideal crossbar through the indexed engine and through the retired
/// hash-map implementation kept as `replay::reference`. Both probes must
/// report *identical* check counters — the indexed core is an optimisation,
/// never a behaviour change (`tests/replay_equivalence.rs` fuzzes the same
/// claim) — so the wall-clock ratio between them is the speedup the
/// trajectory tracks. The indexed probe reuses one engine across the
/// repetitions, pricing the scratch-reset path the campaign runners lean on.
fn bench_tracesim(quick: bool, reps: u32) -> Vec<BenchProbe> {
    let ranks = if quick { 256 } else { 512 };
    let bytes: u64 = 16 * 1024;
    let cg = generators::cg_d(ranks, bytes).expect("a power-of-two rank count >= 32");
    let trace = xgft_tracesim::workloads::trace_from_pattern(&cg, 0);
    let params = format!("trace=cg-d ranks={ranks} msg=16KiB network=crossbar");
    let checks = |result: &xgft_tracesim::ReplayResult| {
        vec![
            ("completion_ps", result.completion_ps),
            ("delivered", result.network_report.completed_messages as u64),
            ("events", result.network_report.events_processed),
        ]
    };

    let crossbar = || {
        xgft_tracesim::RoutedNetwork::crossbar(ranks, &NetworkConfig::default())
            .expect("the probe has ranks")
    };

    let mut engine = xgft_tracesim::ReplayEngine::new(&trace);
    let indexed = time_reps(reps, || {
        let result = engine.run(crossbar()).expect("CG trace is deadlock-free");
        checks(&result)
    });
    let reference = time_reps(reps, || {
        let result = xgft_tracesim::replay::reference::run(&trace, crossbar())
            .expect("CG trace is deadlock-free");
        checks(&result)
    });

    vec![
        probe("cg_indexed_replay", params.clone(), reps, indexed),
        probe("cg_hashmap_reference", params, reps, reference),
    ]
}

/// A seed campaign through the tracesim machinery (rayon shards included).
fn bench_campaign(quick: bool, reps: u32) -> Vec<BenchProbe> {
    let k = if quick { 4 } else { 8 };
    let pattern = generators::wrf_mesh_exchange(k, k, 16 * 1024).expect("a k x k mesh");
    let config = CampaignConfig {
        name: "bench".to_string(),
        k,
        w2_values: vec![k, k / 2],
        algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
        seeds_per_point: 2,
        base_seed: 2009,
        network: NetworkConfig::default(),
    };
    let timed = time_reps(reps, || {
        let result = config.run(&pattern).expect("valid campaign configuration");
        vec![
            ("shards", result.shards.len() as u64),
            ("crossbar_ps", result.crossbar_ps),
        ]
    });

    // A second probe at the next scale up: bigger tree, more shards per
    // (w2, algorithm) group, so the shard-local engine/simulator reuse has
    // enough consecutive shards to amortise over.
    let wide_k = if quick { 8 } else { 16 };
    let wide_pattern =
        generators::wrf_mesh_exchange(wide_k, wide_k, 16 * 1024).expect("a k x k mesh");
    let wide_config = CampaignConfig {
        name: "bench-wide".to_string(),
        k: wide_k,
        w2_values: vec![wide_k, wide_k / 2],
        algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
        seeds_per_point: 4,
        base_seed: 2009,
        network: NetworkConfig::default(),
    };
    let wide = time_reps(reps, || {
        let result = wide_config
            .run(&wide_pattern)
            .expect("valid campaign configuration");
        vec![
            ("shards", result.shards.len() as u64),
            ("crossbar_ps", result.crossbar_ps),
        ]
    });

    vec![
        probe(
            "wrf_seed_campaign",
            format!("k={k} w2=[{},{}] seeds/point=2 base=2009", k, k / 2),
            reps,
            timed,
        ),
        probe(
            "wrf_seed_campaign_wide",
            format!(
                "k={wide_k} w2=[{},{}] seeds/point=4 base=2009",
                wide_k,
                wide_k / 2
            ),
            reps,
            wide,
        ),
    ]
}

/// The compact closed-form engine at a scale no table can represent:
/// build the engine and answer a pinned sample of pairs.
fn bench_compact(quick: bool, reps: u32) -> Vec<BenchProbe> {
    let k = if quick { 256 } else { 1024 };
    let xgft = Xgft::k_ary_n_tree(k, 2);
    let n = xgft.num_leaves();
    let samples: u64 = 10_000;
    let stride = ((n as u64 * n as u64) / samples).max(1);
    let timed = time_reps(reps, || {
        let routes = CompactRoutes::all_pairs(&xgft, CompactScheme::DModK);
        let mut scratch = Vec::new();
        let mut hops: u64 = 0;
        let mut answered: u64 = 0;
        let mut code: u64 = 1;
        while code < n as u64 * n as u64 {
            let (s, d) = ((code / n as u64) as usize, (code % n as u64) as usize);
            if routes.path_into(s, d, &mut scratch) {
                hops += scratch.len() as u64;
                answered += 1;
            }
            code += stride;
        }
        vec![
            ("answered", answered),
            ("hops", hops),
            ("storage_bytes", routes.storage_bytes() as u64),
        ]
    });
    vec![probe(
        "million_leaf_sample",
        format!("k={k} leaves={n} scheme=d-mod-k samples={samples}"),
        reps,
        timed,
    )]
}

/// The chaos lab end to end: a seed-pinned fault/repair timeline replayed
/// epoch by epoch through the event simulator, rerouting by patching an
/// overlay over the pristine compiled tables. The check counters pin the
/// SLA outcome (deliveries, drops, unroutable demand), so any change to
/// strike timing, repair semantics or the patch path shows up as a
/// behaviour drift.
fn bench_chaos(quick: bool, reps: u32) -> Vec<BenchProbe> {
    let k = if quick { 4 } else { 8 };
    let epochs = if quick { 4 } else { 8 };
    let pattern = generators::wrf_mesh_exchange(k, k, 16 * 1024).expect("a k x k mesh");
    let config = ChaosConfig {
        name: "bench".to_string(),
        k,
        w2: k,
        algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
        epochs,
        epoch_ps: 40_000_000,
        link_fail_permille: 120,
        switch_kill_permille: 300,
        cable_cut_permille: 300,
        repair_epochs: 1,
        seeds_per_point: 2,
        base_seed: 2009,
        network: NetworkConfig::default(),
    };
    let timed = time_reps(reps, || {
        let result = config.run(&pattern).expect("valid chaos configuration");
        let total = |f: fn(&xgft_analysis::ChaosShardOutcome) -> usize| -> u64 {
            result.shards.iter().map(|s| f(s) as u64).sum()
        };
        vec![
            ("shards", result.shards.len() as u64),
            ("incidents", result.incidents.len() as u64),
            ("delivered", total(|s| s.total_delivered())),
            ("dropped", total(|s| s.total_dropped())),
            ("unroutable", total(|s| s.total_unroutable())),
        ]
    });
    // The same timeline at the next scale up: a deeper epoch sequence on
    // the bigger tree, where the per-epoch table revert (O(patched routes)
    // instead of a full clone) and the recycled simulator dominate the
    // shard cost.
    let wide_k = 8;
    let wide_epochs = if quick { 8 } else { 16 };
    let wide_pattern =
        generators::wrf_mesh_exchange(wide_k, wide_k, 16 * 1024).expect("a k x k mesh");
    let wide_config = ChaosConfig {
        name: "bench-wide".to_string(),
        k: wide_k,
        w2: wide_k,
        algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
        epochs: wide_epochs,
        epoch_ps: 40_000_000,
        link_fail_permille: 120,
        switch_kill_permille: 300,
        cable_cut_permille: 300,
        repair_epochs: 1,
        seeds_per_point: 2,
        base_seed: 2009,
        network: NetworkConfig::default(),
    };
    let wide = time_reps(reps, || {
        let result = wide_config
            .run(&wide_pattern)
            .expect("valid chaos configuration");
        let total = |f: fn(&xgft_analysis::ChaosShardOutcome) -> usize| -> u64 {
            result.shards.iter().map(|s| f(s) as u64).sum()
        };
        vec![
            ("shards", result.shards.len() as u64),
            ("incidents", result.incidents.len() as u64),
            ("delivered", total(|s| s.total_delivered())),
            ("dropped", total(|s| s.total_dropped())),
            ("unroutable", total(|s| s.total_unroutable())),
        ]
    });

    vec![
        probe(
            "wrf_fault_repair_timeline",
            format!("k={k} epochs={epochs} seeds/point=2 base=2009"),
            reps,
            timed,
        ),
        probe(
            "wrf_fault_repair_timeline_wide",
            format!("k={wide_k} epochs={wide_epochs} seeds/point=2 base=2009"),
            reps,
            wide,
        ),
    ]
}

/// Captures the parsed [`Value`] tree verbatim (the shim's `Value` does not
/// implement `Deserialize` itself).
struct RawValue(Value);

impl Deserialize for RawValue {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(RawValue(value.clone()))
    }
}

/// Parse and schema-validate one bench file's JSON text. This is the gate
/// CI fails on: wrong shape is an error, slow numbers never are.
pub fn validate_bench_file(text: &str) -> Result<BenchFile, String> {
    let RawValue(value) =
        serde_json::from_str::<RawValue>(text).map_err(|e| format!("not JSON: {e}"))?;
    validate_bench_value(&value)?;
    serde_json::from_str(text).map_err(|e| format!("undecodable bench file: {e}"))
}

/// Structural schema check of a bench [`Value`] tree, with field-precise
/// errors (the decoded struct alone would accept e.g. a negative version).
pub fn validate_bench_value(value: &Value) -> Result<(), String> {
    let obj = value
        .as_object()
        .ok_or("bench file must be a JSON object")?;
    let field = |name: &str| -> Result<&Value, String> {
        obj.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or(format!("missing field `{name}`"))
    };
    match field("schema_version")? {
        Value::UInt(v) if *v == BENCH_SCHEMA_VERSION as u64 => {}
        other => {
            return Err(format!(
                "schema_version must be {BENCH_SCHEMA_VERSION}, got {other:?}"
            ))
        }
    }
    let Value::Str(area) = field("area")? else {
        return Err("`area` must be a string".to_string());
    };
    if !ALL_AREAS.contains(&area.as_str()) {
        return Err(format!("unknown area `{area}` — known: {ALL_AREAS:?}"));
    }
    let Value::Bool(_) = field("quick")? else {
        return Err("`quick` must be a boolean".to_string());
    };
    let Value::Array(probes) = field("probes")? else {
        return Err("`probes` must be an array".to_string());
    };
    if probes.is_empty() {
        return Err("`probes` must not be empty".to_string());
    }
    for (i, p) in probes.iter().enumerate() {
        let obj = p
            .as_object()
            .ok_or(format!("probes[{i}] must be an object"))?;
        for key in ["name", "params"] {
            match obj.iter().find(|(k, _)| k == key) {
                Some((_, Value::Str(_))) => {}
                _ => return Err(format!("probes[{i}].{key} must be a string")),
            }
        }
        for key in ["reps", "median_wall_ns", "min_wall_ns"] {
            match obj.iter().find(|(k, _)| k == key) {
                Some((_, Value::UInt(_))) => {}
                _ => return Err(format!("probes[{i}].{key} must be a non-negative integer")),
            }
        }
        match obj.iter().find(|(k, _)| k == "checks") {
            Some((_, Value::Array(checks))) => {
                for (j, c) in checks.iter().enumerate() {
                    let ok = c.as_object().is_some_and(|entries| {
                        entries
                            .iter()
                            .any(|(k, v)| k == "name" && matches!(v, Value::Str(_)))
                            && entries
                                .iter()
                                .any(|(k, v)| k == "value" && matches!(v, Value::UInt(_)))
                    });
                    if !ok {
                        return Err(format!(
                            "probes[{i}].checks[{j}] must be {{name: string, value: uint}}"
                        ));
                    }
                }
            }
            _ => return Err(format!("probes[{i}].checks must be an array")),
        }
    }
    Ok(())
}

/// Render the delta of a new bench file against its committed baseline.
/// Timing moves are reported as percentages (informative); check drifts
/// are flagged as behaviour changes.
pub fn delta_report(baseline: &BenchFile, new: &BenchFile) -> String {
    let mut out = String::new();
    if baseline.quick != new.quick {
        out.push_str(&format!(
            "  {}: baseline is {} but this run is {} — timings not comparable\n",
            new.area,
            if baseline.quick { "--quick" } else { "full" },
            if new.quick { "--quick" } else { "full" },
        ));
        return out;
    }
    for p in &new.probes {
        let Some(old) = baseline
            .probes
            .iter()
            .find(|o| o.name == p.name && o.params == p.params)
        else {
            out.push_str(&format!(
                "  {}/{}: new probe (no baseline)\n",
                new.area, p.name
            ));
            continue;
        };
        let pct = if old.median_wall_ns == 0 {
            0.0
        } else {
            (p.median_wall_ns as f64 - old.median_wall_ns as f64) / old.median_wall_ns as f64
                * 100.0
        };
        out.push_str(&format!(
            "  {}/{}: median {} -> {} ns ({:+.1}%)\n",
            new.area, p.name, old.median_wall_ns, p.median_wall_ns, pct
        ));
        for check in &p.checks {
            match old.checks.iter().find(|c| c.name == check.name) {
                Some(before) if before.value != check.value => out.push_str(&format!(
                    "    BEHAVIOUR DRIFT {}: {} -> {}\n",
                    check.name, before.value, check.value
                )),
                None => out.push_str(&format!("    new check {}={}\n", check.name, check.value)),
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quick run of `area` writes a schema-valid file of sane probes.
    /// One test per area, so libtest runs the areas concurrently; the
    /// `compact`, `campaign` and `chaos` areas are too slow for a
    /// debug-profile unit test and run end-to-end whenever `xgft bench`
    /// writes the baselines.
    fn assert_quick_bench_is_schema_valid(area: &str) {
        let file = bench_area(area, true).unwrap();
        assert_eq!(file.area, area);
        assert!(file.quick);
        let json = serde_json::to_string_pretty(&file).unwrap();
        let parsed = validate_bench_file(&json).unwrap();
        assert_eq!(parsed, file);
        for p in &file.probes {
            assert!(p.reps >= 3);
            assert!(p.min_wall_ns <= p.median_wall_ns);
            assert!(!p.checks.is_empty());
        }
    }

    #[test]
    fn quick_bench_produces_schema_valid_files_for_compile() {
        assert_quick_bench_is_schema_valid("compile");
    }

    #[test]
    fn quick_bench_produces_schema_valid_files_for_patch() {
        assert_quick_bench_is_schema_valid("patch");
    }

    #[test]
    fn quick_bench_produces_schema_valid_files_for_flow_mcl() {
        assert_quick_bench_is_schema_valid("flow_mcl");
    }

    #[test]
    fn quick_bench_produces_schema_valid_files_for_netsim() {
        assert_quick_bench_is_schema_valid("netsim");
    }

    #[test]
    fn quick_bench_produces_schema_valid_files_for_tracesim() {
        assert_quick_bench_is_schema_valid("tracesim");
    }

    #[test]
    fn bench_checks_are_deterministic_across_runs() {
        let a = bench_area("compile", true).unwrap();
        let b = bench_area("compile", true).unwrap();
        assert_eq!(a.probes[0].checks, b.probes[0].checks);
    }

    #[test]
    fn netsim_check_counters_are_identical_across_injection_paths() {
        // The batched-injection probe must do exactly the same simulated
        // work as the per-message probe: same makespan, same deliveries,
        // same number of processed events. This pins the accounting
        // (`events_processed`, queue high-water) through the batched path
        // against the committed quick baseline.
        let file = bench_area("netsim", true).unwrap();
        let direct = file
            .probes
            .iter()
            .find(|p| p.name == "shift_direct_injection")
            .unwrap();
        let batched = file
            .probes
            .iter()
            .find(|p| p.name == "shift_batched_injection")
            .unwrap();
        let check =
            |p: &BenchProbe, name: &str| p.checks.iter().find(|c| c.name == name).unwrap().value;
        for name in ["makespan_ps", "delivered", "events"] {
            assert_eq!(
                check(direct, name),
                check(batched, name),
                "check `{name}` drifted between injection paths"
            );
        }
        // The committed quick-baseline values (k=8, 64-leaf shift, 64 KiB,
        // d-mod-k): any change here must be deliberate and documented in
        // BENCH_netsim.json.
        assert_eq!(check(direct, "makespan_ps"), 274_732_000);
        assert_eq!(check(direct, "delivered"), 64);
        assert_eq!(check(direct, "events"), 36_928);
        assert!(check(batched, "event_queue_hwm") > 0);
    }

    #[test]
    fn tracesim_check_counters_are_identical_across_replay_cores() {
        // The indexed replay core must do exactly the same simulated work
        // as the retired hash-map reference: same completion time, same
        // deliveries, same event count. Anything else is a correctness bug,
        // not a speedup.
        let file = bench_area("tracesim", true).unwrap();
        let indexed = file
            .probes
            .iter()
            .find(|p| p.name == "cg_indexed_replay")
            .unwrap();
        let reference = file
            .probes
            .iter()
            .find(|p| p.name == "cg_hashmap_reference")
            .unwrap();
        assert_eq!(
            indexed.checks, reference.checks,
            "indexed and reference replay diverged"
        );
    }

    #[test]
    fn lookup_and_patch_pairs_report_identical_checks() {
        let find = |file: &BenchFile, name: &str| {
            file.probes
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("{}/{name} missing", file.area))
                .checks
                .clone()
        };
        // The compiled lookup has no second side to agree with, so its
        // checks are pinned to the committed quick-baseline values (k=16,
        // 256-leaf d-mod-k, every ordered pair): any change here must be
        // deliberate and documented in BENCH_compile.json.
        let compile = bench_area("compile", true).unwrap();
        let check = |name: &str| {
            find(&compile, "compiled_lookup_all_pairs")
                .into_iter()
                .find(|c| c.name == name)
                .unwrap()
                .value
        };
        assert_eq!(check("lookups"), 65_280);
        assert_eq!(check("hops"), 253_440);
        assert_eq!(check("channel_sum"), 127_668_480);

        // The patch pair prices two ways to the same result: the checks
        // must agree exactly, or one side is doing different work.
        let patch = bench_area("patch", true).unwrap();
        let (left, right) = ("patch_uniform_1pct", "recompile_uniform_1pct");
        assert_eq!(
            find(&patch, left),
            find(&patch, right),
            "patch: {left} vs {right}"
        );
        assert!(find(&patch, left).iter().any(|c| c.value > 0));
    }

    #[test]
    fn compile_storage_bytes_follow_the_index_formula() {
        // All pairs of the 256-leaf quick machine: `(n + 1) · 4` bytes of
        // row bounds, 8 bytes per route (its destination and its run's
        // end), one leading run bound and 4 bytes per hop.
        let (n, routes, hops) = (256u64, 256 * 255, 253_440);
        let expected = (n + 1) * 4 + routes * 8 + 4 + hops * 4;
        assert_eq!(expected, 1_537_032);
        let probes = bench_compile(true, 1);
        let probe = probes
            .iter()
            .find(|p| p.name == "compile_all_pairs")
            .unwrap();
        let check = |name: &str| probe.checks.iter().find(|c| c.name == name).unwrap().value;
        assert_eq!(check("routes"), routes);
        assert_eq!(check("storage_bytes"), expected);
    }

    #[test]
    fn unknown_area_is_rejected() {
        assert!(bench_area("warp_drive", true).is_err());
    }

    #[test]
    fn validation_rejects_shape_errors() {
        let good = serde_json::to_string(&bench_area("compile", true).unwrap()).unwrap();
        assert!(validate_bench_file(&good).is_ok());
        assert!(validate_bench_file("[]").is_err());
        assert!(validate_bench_file("{\"schema_version\": 99}").is_err());
        let wrong_version = good.replace("\"schema_version\":1", "\"schema_version\":2");
        assert!(validate_bench_file(&wrong_version).is_err());
        let bad_area = good.replace("\"compile\"", "\"warp_drive\"");
        assert!(validate_bench_file(&bad_area).is_err());
    }

    #[test]
    fn delta_report_flags_check_drift_but_not_timing() {
        let baseline = bench_area("compile", true).unwrap();
        let mut new = baseline.clone();
        new.probes[0].median_wall_ns = baseline.probes[0].median_wall_ns.saturating_mul(3) + 10;
        let report = delta_report(&baseline, &new);
        assert!(report.contains("median"), "{report}");
        assert!(!report.contains("BEHAVIOUR DRIFT"), "{report}");
        new.probes[0].checks[0].value += 1;
        let report = delta_report(&baseline, &new);
        assert!(report.contains("BEHAVIOUR DRIFT"), "{report}");
    }
}
