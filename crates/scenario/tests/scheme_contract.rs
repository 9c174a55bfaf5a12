//! The scheme contract: every engine runs exactly the schemes its spec
//! lists, in the listed order.
//!
//! Each case is one way a spec lowers (every `EngineSpec`, and each
//! engine's seed, fault, chaos and representation variants), run twice:
//! once listing one scheme, and once listing two schemes in reverse paper
//! order. The scheme names the payload reports, in order of first
//! appearance, must be exactly the listed ones. A runner that loops over
//! a fixed scheme set, drops a scheme or reorders them fails here.

use xgft_core::AlgorithmSpec;
use xgft_scenario::{
    run_scenario, ChaosSpec, EngineSpec, FaultSpec, RepresentationSpec, ResultPayload, RunOptions,
    ScenarioSpec, SchemeSpec, SeedSpec, TopologySpec, WorkloadSpec,
};

/// One scheme, and two in reverse paper order (`AlgorithmSpec::ALL` lists
/// r-NCA-d after s-mod-k).
const SCHEME_LISTS: [&[AlgorithmSpec]; 2] = [
    &[AlgorithmSpec::DModK],
    &[AlgorithmSpec::RandomNcaDown, AlgorithmSpec::SModK],
];

const STREAM: SeedSpec = SeedSpec::Stream {
    base_seed: 3,
    seeds_per_point: 1,
};

/// Every lowering of a small spec, labelled by the payload it yields.
fn cases() -> Vec<(&'static str, ScenarioSpec)> {
    let base = ScenarioSpec::basic(
        "scheme-contract",
        TopologySpec::SlimmedTwoLevel { k: 4, w2: 3 },
        WorkloadSpec::new("wrf", 16, 4 * 1024),
        Vec::new(),
    );
    let with = |edit: &dyn Fn(&mut ScenarioSpec)| {
        let mut spec = base.clone();
        spec.seeds = SeedSpec::List { seeds: vec![1] };
        edit(&mut spec);
        spec
    };
    vec![
        ("Sweep", with(&|_| {})),
        ("Campaign", with(&|s| s.seeds = STREAM)),
        (
            "Resilience",
            with(&|s| {
                s.seeds = STREAM;
                s.faults = FaultSpec::UniformLinks {
                    permille: vec![50],
                    draws_per_point: 1,
                };
            }),
        ),
        ("Flow", with(&|s| s.engine = EngineSpec::Flow)),
        (
            "CompactFlow",
            with(&|s| {
                s.engine = EngineSpec::Flow;
                s.representation = RepresentationSpec::Compact;
            }),
        ),
        ("Nca", with(&|s| s.engine = EngineSpec::Nca)),
        ("Direct", with(&|s| s.engine = EngineSpec::Netsim)),
        (
            "Chaos",
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
            with(&|s| s.engine = EngineSpec::AllWithAgreement),
        ),
    ]
}

/// The payload's kind and the scheme names it reports, in order of first
/// appearance.
fn reported_schemes(payload: &ResultPayload) -> (&'static str, Vec<String>) {
    let (kind, names): (_, Vec<&str>) = match payload {
        ResultPayload::Sweep(r) => ("Sweep", r.points.iter().map(|p| &*p.algorithm).collect()),
        ResultPayload::Campaign(r) => {
            ("Campaign", r.shards.iter().map(|s| &*s.algorithm).collect())
        }
        ResultPayload::Resilience(r) => (
            "Resilience",
            r.shards.iter().map(|s| &*s.algorithm).collect(),
        ),
        ResultPayload::Flow(r) => ("Flow", r.points.iter().map(|p| &*p.scheme).collect()),
        ResultPayload::CompactFlow(r) => {
            ("CompactFlow", r.points.iter().map(|p| &*p.scheme).collect())
        }
        ResultPayload::Nca(results) => (
            "Nca",
            results
                .iter()
                .flat_map(|r| r.distributions.iter().map(|d| &*d.algorithm))
                .collect(),
        ),
        ResultPayload::Direct(r) => ("Direct", r.points.iter().map(|p| &*p.scheme).collect()),
        ResultPayload::Chaos(r) => ("Chaos", r.shards.iter().map(|s| &*s.algorithm).collect()),
        ResultPayload::Agreement(r) => ("Agreement", r.points.iter().map(|p| &*p.scheme).collect()),
    };
    let mut seen: Vec<String> = Vec::new();
    for name in names {
        if !seen.iter().any(|s| s == name) {
            seen.push(name.to_string());
        }
    }
    (kind, seen)
}

#[test]
fn every_engine_reports_exactly_the_listed_schemes_in_order() {
    for (kind, base) in cases() {
        for list in SCHEME_LISTS {
            let mut spec = base.clone();
            spec.schemes = list.iter().copied().map(SchemeSpec).collect();
            let result = run_scenario(&spec, &RunOptions::default())
                .unwrap_or_else(|e| panic!("{kind} with {list:?}: {e}"));
            let (reported_kind, names) = reported_schemes(&result.payload);
            assert_eq!(reported_kind, kind, "{spec:?} lowered to another payload");
            let expected: Vec<&str> = list.iter().map(|a| a.name()).collect();
            assert_eq!(names, expected, "{kind} payload schemes");
        }
    }
}
