//! Trace replays drive netsim one completion at a time, never through
//! `run_to_completion`, yet their simulators must still report what they
//! did: every message tracesim sees delivered, the crossbar reference's
//! included, is a `netsim.delivered` count in the same telemetry window.
//!
//! This file holds a single test so that no concurrently running test
//! adds to the process-wide metrics registry inside its window.

use xgft::analysis::AlgorithmSpec;
use xgft::netsim::NetworkConfig;
use xgft::scenario::{
    run_scenario, EngineSpec, FaultSpec, RepresentationSpec, RunOptions, ScenarioSpec, SchemeSpec,
    SeedSpec, SweepSpec, TopologySpec, WorkloadSpec, SPEC_SCHEMA_VERSION,
};

#[test]
fn trace_replays_report_their_netsim_work() {
    for representation in [RepresentationSpec::Compiled, RepresentationSpec::Compact] {
        let spec = ScenarioSpec {
            schema_version: SPEC_SCHEMA_VERSION,
            name: "trace-replay-telemetry".to_string(),
            topology: TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
            workload: WorkloadSpec::new("wrf", 16, 16 * 1024),
            schemes: vec![
                SchemeSpec(AlgorithmSpec::DModK),
                SchemeSpec(AlgorithmSpec::Random),
            ],
            engine: EngineSpec::Tracesim,
            representation,
            faults: FaultSpec::None,
            chaos: None,
            // Two machines and two seeds: simulators are reset between a
            // point's seeds and dropped after its last one.
            sweep: SweepSpec::over(vec![4, 2]),
            seeds: SeedSpec::List { seeds: vec![1, 2] },
            network: NetworkConfig::default(),
        };
        let result = run_scenario(
            &spec,
            &RunOptions {
                telemetry: true,
                ..RunOptions::default()
            },
        )
        .expect("valid scenario");
        let telemetry = result.telemetry.as_ref().expect("telemetry window");
        let deliveries = telemetry.counter("tracesim.deliveries").unwrap_or(0);
        assert!(deliveries > 0, "{representation:?}");
        assert_eq!(
            telemetry.counter("netsim.delivered"),
            Some(deliveries),
            "{representation:?}"
        );
        assert!(
            telemetry.counter("netsim.events").unwrap_or(0) > 0,
            "{representation:?}"
        );
    }
}
