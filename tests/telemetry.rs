//! Telemetry must never perturb results: the same spec run with telemetry
//! on and off yields a byte-identical deterministic `payload`, and the
//! telemetry section lives strictly outside it (the bare envelope does not
//! even contain the key, which is what keeps the golden fixtures stable).
//! A pattern-aware colored build is timed as its own `core.colored` stage,
//! and a netsim run reports what its event queue keeps allocated.

use serde::Value;
use xgft::analysis::AlgorithmSpec;
use xgft::netsim::NetworkConfig;
use xgft::scenario::{
    run_scenario, EngineSpec, FaultSpec, RepresentationSpec, RunOptions, ScenarioSpec, SchemeSpec,
    SeedSpec, SweepSpec, TopologySpec, WorkloadSpec, SPEC_SCHEMA_VERSION,
};

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        schema_version: SPEC_SCHEMA_VERSION,
        name: "telemetry-integration".to_string(),
        topology: TopologySpec::SlimmedTwoLevel { k: 4, w2: 2 },
        workload: WorkloadSpec::new("wrf", 16, 16 * 1024),
        schemes: vec![
            SchemeSpec(AlgorithmSpec::DModK),
            SchemeSpec(AlgorithmSpec::Random),
        ],
        engine: EngineSpec::Tracesim,
        representation: RepresentationSpec::Compiled,
        faults: FaultSpec::None,
        chaos: None,
        sweep: SweepSpec::over(vec![2]),
        seeds: SeedSpec::List { seeds: vec![1, 2] },
        network: NetworkConfig::default(),
    }
}

fn payload_json(result: &xgft::scenario::ScenarioResult) -> String {
    struct Raw(Value);
    impl serde::Serialize for Raw {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string_pretty(&Raw(serde::Serialize::to_value(&result.payload)))
        .expect("serialisable payload")
}

#[test]
fn telemetry_window_does_not_perturb_the_deterministic_payload() {
    let spec = spec();
    let bare = run_scenario(&spec, &RunOptions::default()).expect("valid scenario");
    let instrumented = run_scenario(
        &spec,
        &RunOptions {
            telemetry: true,
            ..RunOptions::default()
        },
    )
    .expect("valid scenario");

    // Byte-identical payload with the instrumentation window on.
    assert_eq!(payload_json(&bare), payload_json(&instrumented));

    // The window itself observed the run: wall-clock plus per-stage timers.
    let telemetry = instrumented.telemetry.as_ref().expect("telemetry window");
    assert!(telemetry.wall_ns > 0);
    assert!(telemetry.stage("scenario.run").is_some());
    assert!(telemetry.stage("core.compile").is_some());

    // The envelope keeps telemetry strictly outside the pinned payload: a
    // bare run's JSON does not even carry the key, so golden fixtures that
    // pin whole envelopes never see it.
    let bare_json = serde_json::to_string_pretty(&bare).expect("serialisable");
    let instrumented_json = serde_json::to_string_pretty(&instrumented).expect("serialisable");
    assert!(!bare_json.contains("\"telemetry\""));
    assert!(instrumented_json.contains("\"telemetry\""));
}

#[test]
fn colored_builds_report_their_own_stage() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/campaign_mini.json"
    );
    let colored = xgft::scenario::cli::load_spec(path).expect("checked-in spec");
    assert!(colored
        .schemes
        .contains(&SchemeSpec(AlgorithmSpec::Colored)));
    let quick = |telemetry| RunOptions {
        quick: true,
        telemetry,
    };
    let bare = run_scenario(&colored, &quick(false)).expect("valid scenario");
    let instrumented = run_scenario(&colored, &quick(true)).expect("valid scenario");
    assert_eq!(payload_json(&bare), payload_json(&instrumented));
    let telemetry = instrumented.telemetry.as_ref().expect("telemetry window");
    assert!(telemetry.stage("core.colored").is_some());
    assert!(telemetry.counter("core.colored.candidates").unwrap_or(0) > 0);

    // No other test in this binary builds colored, so a window over a
    // colored-free spec must not see the stage.
    let plain = run_scenario(&spec(), &quick(true)).expect("valid scenario");
    let telemetry = plain.telemetry.as_ref().expect("telemetry window");
    assert!(telemetry.stage("core.compile").is_some());
    assert!(telemetry.stage("core.colored").is_none());
    assert_eq!(telemetry.counter("core.colored.candidates"), None);
}

#[test]
fn netsim_runs_report_the_event_queue_capacity() {
    let mut netsim = spec();
    netsim.engine = EngineSpec::Netsim;
    let bare = run_scenario(&netsim, &RunOptions::default()).expect("valid scenario");
    let instrumented = run_scenario(
        &netsim,
        &RunOptions {
            telemetry: true,
            ..RunOptions::default()
        },
    )
    .expect("valid scenario");
    assert_eq!(payload_json(&bare), payload_json(&instrumented));

    // The gauge is the queue's allocation in entries, so it can never be
    // below the most events the queue held at once.
    let telemetry = instrumented.telemetry.as_ref().expect("telemetry window");
    let gauge = |name: &str| {
        telemetry
            .gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
    };
    let capacity = gauge("netsim.queue_capacity").expect("capacity gauge");
    let hwm = gauge("netsim.event_queue_hwm").expect("high-water gauge");
    assert!(hwm > 0);
    assert!(
        capacity >= hwm,
        "capacity {capacity} < high-water mark {hwm}"
    );
}
