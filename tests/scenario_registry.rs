//! The refactor-safety contract of the scenario layer: specs lowered
//! through [`xgft::scenario::run_scenario`] must reproduce the
//! **pre-refactor golden fixtures byte for byte**.
//!
//! The fixtures under `tests/golden/` were generated by driving the
//! sweep/campaign/resilience machinery directly (see
//! `tests/golden_snapshots.rs`, unchanged across the refactor). Here the
//! same experiments are described as [`ScenarioSpec`]s — the form the
//! unified `xgft` CLI consumes — and must serialize to the identical
//! payload bytes. If lowering ever perturbs a seed stream, a shard order
//! or a serialized field, this suite fails before any paper number drifts.

use xgft::analysis::experiments::OBLIVIOUS_SCHEMES;
use xgft::analysis::AlgorithmSpec;
use xgft::netsim::NetworkConfig;
use xgft::scenario::{
    run_scenario, ChaosSpec, EngineSpec, FaultSpec, RepresentationSpec, ResultPayload, RunOptions,
    ScenarioSpec, SchemeSpec, SeedSpec, SweepSpec, TopologySpec, WorkloadSpec, SPEC_SCHEMA_VERSION,
};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()))
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    let mut s = serde_json::to_string_pretty(value).expect("serialisable");
    s.push('\n');
    s
}

/// Serialize just the engine payload (the pre-refactor result struct).
fn payload_json(payload: &ResultPayload) -> String {
    match payload {
        ResultPayload::Sweep(r) => to_json(r),
        ResultPayload::Campaign(r) => to_json(r),
        ResultPayload::Resilience(r) => to_json(r),
        ResultPayload::Chaos(r) => to_json(r),
        ResultPayload::Flow(r) => to_json(r),
        ResultPayload::Nca(r) => to_json(&r[0]),
        ResultPayload::Direct(r) => to_json(r),
        ResultPayload::Agreement(r) => to_json(r),
        ResultPayload::CompactFlow(r) => to_json(r),
    }
}

fn run(spec: &ScenarioSpec) -> ResultPayload {
    // Every spec in this suite must itself survive a serde round-trip:
    // what the CLI would load from disk is what runs here.
    let json = serde_json::to_string_pretty(spec).expect("serializable spec");
    let reloaded: ScenarioSpec = serde_json::from_str(&json).expect("parseable spec");
    assert_eq!(&reloaded, spec, "spec round-trip drifted");
    run_scenario(&reloaded, &RunOptions::default())
        .expect("golden scenario must run")
        .payload
}

fn schemes(algos: Vec<AlgorithmSpec>) -> Vec<SchemeSpec> {
    algos.into_iter().map(SchemeSpec).collect()
}

/// Fig. 2 as a scenario == the fig2_small.json fixture, byte for byte.
#[test]
fn scenario_fig2_matches_the_golden_fixture() {
    let spec = ScenarioSpec {
        schema_version: SPEC_SCHEMA_VERSION,
        name: "fig2-golden".to_string(),
        topology: TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
        workload: WorkloadSpec::new("wrf", 16, 32 * 1024),
        schemes: schemes(AlgorithmSpec::figure2_set()),
        engine: EngineSpec::Tracesim,
        representation: RepresentationSpec::Compiled,
        faults: FaultSpec::None,
        chaos: None,
        sweep: SweepSpec::over(vec![4, 2, 1]),
        seeds: SeedSpec::List {
            seeds: vec![1, 2, 3],
        },
        network: NetworkConfig::default(),
    };
    assert_eq!(payload_json(&run(&spec)), fixture("fig2_small.json"));
}

/// Fig. 5 as a scenario == the fig5_small.json fixture, byte for byte.
#[test]
fn scenario_fig5_matches_the_golden_fixture() {
    let spec = ScenarioSpec {
        schema_version: SPEC_SCHEMA_VERSION,
        name: "fig5-golden".to_string(),
        topology: TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
        workload: WorkloadSpec::new("shift", 16, 16 * 1024).with_param("offset", 4.0),
        schemes: schemes(AlgorithmSpec::figure5_set()),
        engine: EngineSpec::Tracesim,
        representation: RepresentationSpec::Compiled,
        faults: FaultSpec::None,
        chaos: None,
        sweep: SweepSpec::over(vec![4, 2]),
        seeds: SeedSpec::List { seeds: vec![1, 2] },
        network: NetworkConfig::default(),
    };
    assert_eq!(payload_json(&run(&spec)), fixture("fig5_small.json"));
}

/// Fig. 4 as a scenario == the fig4_small.json fixture, byte for byte.
#[test]
fn scenario_fig4_matches_the_golden_fixture() {
    let spec = ScenarioSpec {
        schema_version: SPEC_SCHEMA_VERSION,
        name: "fig4-golden".to_string(),
        topology: TopologySpec::SlimmedTwoLevel { k: 4, w2: 3 },
        workload: WorkloadSpec::new("wrf", 16, 32 * 1024),
        schemes: schemes(OBLIVIOUS_SCHEMES.to_vec()),
        engine: EngineSpec::Nca,
        representation: RepresentationSpec::Compiled,
        faults: FaultSpec::None,
        chaos: None,
        sweep: SweepSpec::none(),
        seeds: SeedSpec::List { seeds: vec![1, 2] },
        network: NetworkConfig::default(),
    };
    assert_eq!(payload_json(&run(&spec)), fixture("fig4_small.json"));
}

/// The seed campaign as a scenario == campaign_small.json, byte for byte —
/// including every stream-derived shard seed.
#[test]
fn scenario_campaign_matches_the_golden_fixture() {
    let spec = ScenarioSpec {
        schema_version: SPEC_SCHEMA_VERSION,
        name: "golden".to_string(),
        topology: TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
        workload: WorkloadSpec::new("wrf", 16, 16 * 1024),
        schemes: schemes(vec![
            AlgorithmSpec::DModK,
            AlgorithmSpec::Random,
            AlgorithmSpec::RandomNcaUp,
        ]),
        engine: EngineSpec::Tracesim,
        representation: RepresentationSpec::Compiled,
        faults: FaultSpec::None,
        chaos: None,
        sweep: SweepSpec::over(vec![4, 2, 1]),
        seeds: SeedSpec::Stream {
            base_seed: 2009,
            seeds_per_point: 2,
        },
        network: NetworkConfig::default(),
    };
    assert_eq!(payload_json(&run(&spec)), fixture("campaign_small.json"));
}

/// The resilience campaign as a scenario == faults_small.json, byte for
/// byte — fault-sampler streams, reroute accounting and degraded slowdowns.
#[test]
fn scenario_faults_matches_the_golden_fixture() {
    let spec = ScenarioSpec {
        schema_version: SPEC_SCHEMA_VERSION,
        name: "golden".to_string(),
        topology: TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
        workload: WorkloadSpec::new("wrf", 16, 16 * 1024),
        schemes: schemes(vec![
            AlgorithmSpec::DModK,
            AlgorithmSpec::Random,
            AlgorithmSpec::RandomNcaDown,
        ]),
        engine: EngineSpec::Tracesim,
        representation: RepresentationSpec::Compiled,
        faults: FaultSpec::UniformLinks {
            permille: vec![0, 100, 400],
            draws_per_point: 2,
        },
        chaos: None,
        sweep: SweepSpec::none(),
        seeds: SeedSpec::Stream {
            base_seed: 2009,
            seeds_per_point: 2,
        },
        network: NetworkConfig::default(),
    };
    assert_eq!(payload_json(&run(&spec)), fixture("faults_small.json"));
}

/// The chaos lab as a scenario == chaos_small.json, byte for byte — the
/// seeded incident timeline, the repatch-driven rerouting and every
/// per-epoch SLA number survive the spec lowering unchanged.
#[test]
fn scenario_chaos_matches_the_golden_fixture() {
    let spec = ScenarioSpec {
        schema_version: SPEC_SCHEMA_VERSION,
        name: "golden".to_string(),
        topology: TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
        workload: WorkloadSpec::new("wrf", 16, 16 * 1024),
        schemes: schemes(vec![AlgorithmSpec::DModK, AlgorithmSpec::Random]),
        engine: EngineSpec::Netsim,
        representation: RepresentationSpec::Compiled,
        faults: FaultSpec::None,
        chaos: Some(ChaosSpec {
            epochs: 4,
            epoch_ps: 40_000_000,
            link_fail_permille: 120,
            switch_kill_permille: 300,
            cable_cut_permille: 300,
            repair_epochs: 1,
        }),
        sweep: SweepSpec::none(),
        seeds: SeedSpec::Stream {
            base_seed: 11,
            seeds_per_point: 2,
        },
        network: NetworkConfig::default(),
    };
    assert_eq!(payload_json(&run(&spec)), fixture("chaos_small.json"));
}

/// The registry's own specs (what `xgft fig2_wrf` etc. actually run) stay
/// valid and round-trip — the CLI surface can never drift from the spec
/// layer.
#[test]
fn registry_specs_are_valid_and_round_trip() {
    let args = xgft::scenario::ExperimentArgs::parse_from(["--quick".to_string()]).unwrap();
    for name in [
        "fig2_wrf", "fig2_cg", "fig4", "fig5_wrf", "fig5_cg", "campaign", "faults", "chaos",
    ] {
        let spec = xgft::scenario::registry::spec_for(name, &args)
            .unwrap_or_else(|| panic!("{name} is scenario-backed"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec, "{name}");
        let toml = xgft::scenario::toml::to_toml_string(&spec).unwrap();
        let back: ScenarioSpec = xgft::scenario::toml::from_toml_str(&toml).unwrap();
        assert_eq!(back, spec, "{name}");
    }
}

/// A checked-in example spec, run at the CI preset.
fn quick_example(file: &str) -> ResultPayload {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios")
        .join(file);
    let spec = xgft::scenario::cli::load_spec(path.to_str().unwrap())
        .unwrap_or_else(|e| panic!("{file}: {e}"));
    run(&spec.quickened())
}

/// The Flow (expected-load) engine over all six schemes, colored
/// included, == flow_mcl_slimming_quick.json, byte for byte.
#[test]
fn flow_example_matches_the_golden_fixture() {
    let payload = quick_example("flow_mcl_slimming.toml");
    assert!(matches!(payload, ResultPayload::Flow(_)));
    assert_eq!(
        payload_json(&payload),
        fixture("flow_mcl_slimming_quick.json")
    );
}

/// The Netsim engine's direct injection == hotspot_direct_quick.json.
#[test]
fn direct_example_matches_the_golden_fixture() {
    let payload = quick_example("hotspot_direct.json");
    assert!(matches!(payload, ResultPayload::Direct(_)));
    assert_eq!(payload_json(&payload), fixture("hotspot_direct_quick.json"));
}

/// The AllWithAgreement engine's per-job verdicts ==
/// agreement_tornado_quick.json.
#[test]
fn agreement_example_matches_the_golden_fixture() {
    let payload = quick_example("agreement_tornado.json");
    assert!(matches!(payload, ResultPayload::Agreement(_)));
    assert_eq!(
        payload_json(&payload),
        fixture("agreement_tornado_quick.json")
    );
}
