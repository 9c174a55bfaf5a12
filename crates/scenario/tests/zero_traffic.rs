//! A workload that sends nothing across the network, run through every
//! plan.
//!
//! `shift` with offset 0 (or offset n) makes every rank send to itself, so
//! no message enters the network. The trace engines normalise by the
//! Full-Crossbar completion time, which is then 0 ps, so lowering must
//! reject them with a typed error that names the workload. Every other
//! plan must return a payload that JSON can carry: a zero cut bound is not
//! an infinite congestion ratio.

use std::panic;
use xgft_core::AlgorithmSpec;
use xgft_scenario::{
    run_scenario, ChaosSpec, EngineSpec, FaultSpec, RepresentationSpec, RunOptions, ScenarioError,
    ScenarioResult, ScenarioSpec, SchemeSpec, SeedSpec, TopologySpec, WorkloadSpec,
};

const STREAM: SeedSpec = SeedSpec::Stream {
    base_seed: 3,
    seeds_per_point: 1,
};

/// Every lowering of a zero-traffic spec, labelled by its plan, and whether
/// the plan replays a trace.
fn cases(offset: f64) -> Vec<(&'static str, bool, ScenarioSpec)> {
    let mut workload = WorkloadSpec::new("shift", 16, 4 * 1024);
    workload.params = vec![("offset".to_string(), offset)];
    let base = ScenarioSpec::basic(
        "zero-traffic",
        TopologySpec::SlimmedTwoLevel { k: 4, w2: 3 },
        workload,
        vec![
            SchemeSpec(AlgorithmSpec::DModK),
            SchemeSpec(AlgorithmSpec::Random),
        ],
    );
    let with = |edit: &dyn Fn(&mut ScenarioSpec)| {
        let mut spec = base.clone();
        spec.seeds = SeedSpec::List { seeds: vec![1] };
        edit(&mut spec);
        spec
    };
    let compact = |s: &mut ScenarioSpec| s.representation = RepresentationSpec::Compact;
    vec![
        ("Trace List compiled", true, with(&|_| {})),
        ("Trace List compact", true, with(&compact)),
        ("Trace Stream compiled", true, with(&|s| s.seeds = STREAM)),
        (
            "Trace Stream compact",
            true,
            with(&|s| {
                s.seeds = STREAM;
                compact(s);
            }),
        ),
        (
            "Resilience",
            true,
            with(&|s| {
                s.seeds = STREAM;
                s.faults = FaultSpec::UniformLinks {
                    permille: vec![50],
                    draws_per_point: 1,
                };
            }),
        ),
        ("Flow", false, with(&|s| s.engine = EngineSpec::Flow)),
        (
            "CompactFlow",
            false,
            with(&|s| {
                s.engine = EngineSpec::Flow;
                compact(s);
            }),
        ),
        ("Nca", false, with(&|s| s.engine = EngineSpec::Nca)),
        ("Direct", false, with(&|s| s.engine = EngineSpec::Netsim)),
        (
            "Chaos",
            false,
            with(&|s| {
                s.engine = EngineSpec::Netsim;
                s.seeds = STREAM;
                s.chaos = Some(ChaosSpec {
                    epochs: 2,
                    epoch_ps: 40_000_000,
                    link_fail_permille: 100,
                    switch_kill_permille: 0,
                    cable_cut_permille: 0,
                    repair_epochs: 1,
                });
            }),
        ),
        (
            "Agreement",
            false,
            with(&|s| s.engine = EngineSpec::AllWithAgreement),
        ),
    ]
}

/// What is wrong with one plan's outcome, if anything.
fn fault(
    replays_trace: bool,
    offset: f64,
    outcome: Result<ScenarioResult, ScenarioError>,
) -> Option<String> {
    match (replays_trace, outcome) {
        (true, Err(ScenarioError::Invalid(msg))) => (!msg
            .contains(&format!("`shift-{}`", offset as u32)))
        .then(|| format!("the error does not name the workload: {msg}")),
        (true, other) => Some(format!("expected a typed rejection, got {other:?}")),
        (false, Ok(result)) => serde_json::to_string(&result)
            .err()
            .map(|e| format!("payload is not JSON: {e}")),
        (false, Err(e)) => Some(format!("unexpected error {e}")),
    }
}

#[test]
fn zero_traffic_runs_or_fails_typed_on_every_plan() {
    let mut faults = Vec::new();
    for offset in [0.0, 16.0] {
        for (plan, replays_trace, spec) in cases(offset) {
            let run = panic::catch_unwind(|| run_scenario(&spec, &RunOptions::default()));
            let fault = match run {
                Ok(outcome) => fault(replays_trace, offset, outcome),
                Err(_) => Some("panicked".to_string()),
            };
            if let Some(fault) = fault {
                faults.push(format!("{plan}, offset {offset}: {fault}"));
            }
        }
    }
    assert!(faults.is_empty(), "{faults:#?}");
}
