//! The compact flow engine fans its (machine × job) items out over rayon in
//! waves of one item per worker, each worker reusing one load buffer. Every
//! item is self-contained and the parallel map preserves job order, so the
//! payload must be byte-identical at any worker count — including counts
//! that leave the last wave short.

use rayon::ThreadPoolBuilder;
use xgft_analysis::AlgorithmSpec;
use xgft_scenario::{
    run_scenario, EngineSpec, RepresentationSpec, ResultPayload, RunOptions, ScenarioSpec,
    SchemeSpec, SeedSpec, SweepSpec, TopologySpec, WorkloadSpec,
};

fn payload_json(spec: &ScenarioSpec, workers: usize) -> String {
    let result = ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .unwrap()
        .install(|| run_scenario(spec, &RunOptions::default()))
        .unwrap();
    match &result.payload {
        ResultPayload::CompactFlow(flow) => {
            // 2 machines × (1 deterministic + 2 seeded × 2 seeds) jobs.
            assert_eq!(flow.points.len(), 10);
            serde_json::to_string(flow).unwrap()
        }
        other => panic!("unexpected payload shape: {other:?}"),
    }
}

#[test]
fn compact_flow_payload_is_identical_for_1_2_3_workers() {
    let mut spec = ScenarioSpec::basic(
        "compact-flow-determinism",
        TopologySpec::SlimmedTwoLevel { k: 8, w2: 8 },
        WorkloadSpec::new("hot_spot", 64, 4096)
            .with_param("spots", 3.0)
            .with_param("skew", 0.5),
        vec![
            SchemeSpec(AlgorithmSpec::DModK),
            SchemeSpec(AlgorithmSpec::Random),
            SchemeSpec(AlgorithmSpec::RandomNcaUp),
        ],
    );
    spec.engine = EngineSpec::Flow;
    spec.representation = RepresentationSpec::Compact;
    spec.sweep = SweepSpec::over(vec![5, 2]);
    spec.seeds = SeedSpec::List { seeds: vec![7, 21] };

    let reference = payload_json(&spec, 1);
    for workers in [2, 3] {
        assert_eq!(
            reference,
            payload_json(&spec, workers),
            "compact flow payload drifted between 1 and {workers} rayon workers"
        );
    }
}
