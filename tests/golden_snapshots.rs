//! Golden-snapshot regression tests: small, fully deterministic fig2 /
//! fig5 / fig4 sweeps and one seed campaign, serialised to JSON and pinned
//! byte-for-byte against fixtures under `tests/golden/`.
//!
//! These lock the *numbers* of the reproduction, not just its shape: a
//! seed-stream change, a routing refactor, a simulator timing tweak or a
//! serialisation change that silently shifts paper figures fails here
//! first. When a shift is intentional, regenerate the fixtures with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_snapshots
//! ```
//!
//! and review the fixture diff like any other code change.

use xgft::analysis::campaign::CampaignConfig;
use xgft::analysis::chaos::ChaosConfig;
use xgft::analysis::experiments::{
    ablation, equivalence, fig4, flow_mcl, synthetic, OBLIVIOUS_SCHEMES,
};
use xgft::analysis::resilience::ResilienceConfig;
use xgft::analysis::sweep::{AlgorithmSpec, SweepConfig};
use xgft::netsim::NetworkConfig;
use xgft::patterns::generators;
use xgft::routing::{RandomNcaDown, RandomRouting};
use xgft::scenario::{
    run_scenario, EngineSpec, FaultSpec, RepresentationSpec, RunOptions, ScenarioSpec, SchemeSpec,
    SeedSpec, SweepSpec, TopologySpec, WorkloadSpec, SPEC_SCHEMA_VERSION,
};
use xgft::topo::{Xgft, XgftSpec};

/// Compare `rendered` against the committed fixture, or rewrite the fixture
/// when `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("golden fixture {} rewritten", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_snapshots",
            path.display()
        )
    });
    assert_eq!(
        expected, rendered,
        "golden snapshot {name} drifted — if intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the fixture diff"
    );
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    let mut s = serde_json::to_string_pretty(value).expect("serialisable");
    s.push('\n');
    s
}

/// A scaled-down Fig. 2: the classic oblivious routings plus Colored on the
/// WRF-like mesh exchange over three slimming points.
#[test]
fn fig2_small_sweep_is_byte_stable() {
    let pattern = generators::wrf_mesh_exchange(4, 4, 32 * 1024).unwrap();
    let config = SweepConfig {
        k: 4,
        w2_values: vec![4, 2, 1],
        algorithms: AlgorithmSpec::figure2_set(),
        seeds: SeedSpec::List {
            seeds: vec![1, 2, 3],
        },
        network: NetworkConfig::default(),
    };
    assert_golden("fig2_small.json", &to_json(&config.run(&pattern).unwrap()));
}

/// A scaled-down Fig. 5: the full proposal set (r-NCA-u / r-NCA-d against
/// the references) on a shift permutation.
#[test]
fn fig5_small_sweep_is_byte_stable() {
    let pattern = generators::shift(16, 4, 16 * 1024);
    let config = SweepConfig {
        k: 4,
        w2_values: vec![4, 2],
        algorithms: AlgorithmSpec::figure5_set(),
        seeds: SeedSpec::List { seeds: vec![1, 2] },
        network: NetworkConfig::default(),
    };
    assert_golden("fig5_small.json", &to_json(&config.run(&pattern).unwrap()));
}

/// A scaled-down Fig. 4: routes-per-NCA distributions on a slimmed tree.
#[test]
fn fig4_small_distribution_is_byte_stable() {
    let result = fig4::run_for(
        &XgftSpec::slimmed_two_level(4, 3).unwrap(),
        &OBLIVIOUS_SCHEMES,
        &[1, 2],
    )
    .unwrap();
    assert_golden("fig4_small.json", &to_json(&result));
}

/// Sec. VII-B/C: the S-mod-k / D-mod-k contention levels and duality count
/// over a few random permutations of a slimmed tree.
#[test]
fn equivalence_small_is_byte_stable() {
    assert_golden(
        "equivalence_small.json",
        &to_json(&equivalence::run(8, 5, 6, 42)),
    );
}

/// The relabeling ablation: per-NCA route spreads of every variant over
/// all pairs of a slimmed tree.
#[test]
fn ablation_small_is_byte_stable() {
    assert_golden(
        "ablation_small.json",
        &to_json(&ablation::run(8, 5, &[1, 2])),
    );
}

/// The synthetic-pattern comparison: contention levels of every scheme on
/// each classic permutation.
#[test]
fn synthetic_small_is_byte_stable() {
    assert_golden(
        "synthetic_small.json",
        &to_json(&synthetic::run(8, 5, &[1, 2])),
    );
}

/// One flow-model cross-validation: the model MCL against netsim busy
/// times for seeded schemes on a shift-plus-transpose flow set.
#[test]
fn flow_mcl_cross_validation_is_byte_stable() {
    let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 5).unwrap()).unwrap();
    let n = xgft.num_leaves();
    let flows: Vec<(usize, usize)> = (0..n)
        .flat_map(|s| [(s, (s + 9) % n), (s, (s * 8) % n + s / 8)])
        .collect();
    let results = vec![
        flow_mcl::cross_validate_mcl(
            &xgft,
            |seed| Box::new(RandomRouting::new(seed)),
            &flows,
            &[1, 2, 3],
            1024,
        ),
        flow_mcl::cross_validate_mcl(
            &xgft,
            |seed| Box::new(RandomNcaDown::new(&xgft, seed)),
            &flows,
            &[4, 5],
            2048,
        ),
    ];
    assert_golden("flow_mcl_small.json", &to_json(&results));
}

/// A mini seed campaign: pins the deterministic per-shard seed streams as
/// well as every replayed slowdown, so the campaign runner cannot silently
/// change which seeds the paper numbers average over.
#[test]
fn campaign_small_is_byte_stable() {
    let pattern = generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap();
    let config = CampaignConfig {
        name: "golden".into(),
        k: 4,
        w2_values: vec![4, 2, 1],
        algorithms: vec![
            AlgorithmSpec::DModK,
            AlgorithmSpec::Random,
            AlgorithmSpec::RandomNcaUp,
        ],
        seeds_per_point: 2,
        base_seed: 2009,
        network: NetworkConfig::default(),
    };
    assert_golden(
        "campaign_small.json",
        &to_json(&config.run(&pattern).unwrap()),
    );
}

/// The versioned scenario-result envelope: a complete `xgft run` outcome —
/// `schema_version`, the exact spec (provenance, including the new
/// `tornado` workload family) and the payload — pinned byte for byte. The
/// result schema cannot change shape, lose a field or renumber itself
/// without this fixture (and a deliberate `UPDATE_GOLDEN=1` regeneration)
/// recording it.
#[test]
fn scenario_envelope_is_byte_stable() {
    let spec = ScenarioSpec {
        schema_version: SPEC_SCHEMA_VERSION,
        name: "scenario-golden".to_string(),
        topology: TopologySpec::SlimmedTwoLevel { k: 4, w2: 4 },
        workload: WorkloadSpec::new("tornado", 16, 16 * 1024),
        schemes: vec![
            SchemeSpec(AlgorithmSpec::DModK),
            SchemeSpec(AlgorithmSpec::RandomNcaUp),
        ],
        engine: EngineSpec::Tracesim,
        representation: RepresentationSpec::Compiled,
        faults: FaultSpec::None,
        chaos: None,
        sweep: SweepSpec::over(vec![4, 2]),
        seeds: SeedSpec::List { seeds: vec![1, 2] },
        network: NetworkConfig::default(),
    };
    let result = run_scenario(&spec, &RunOptions::default()).expect("valid scenario");
    assert_golden("scenario_small.json", &to_json(&result));
}

/// A mini resilience campaign: pins the fault-sampler seed streams, every
/// drawn fault count, the per-shard reroute/unroutable accounting and the
/// degraded slowdowns, so neither the sampler, the fault-aware fallback nor
/// the patch can silently shift the reliability numbers.
#[test]
fn faults_small_campaign_is_byte_stable() {
    let pattern = generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap();
    let config = ResilienceConfig {
        name: "golden".into(),
        k: 4,
        w2: 4,
        algorithms: vec![
            AlgorithmSpec::DModK,
            AlgorithmSpec::Random,
            AlgorithmSpec::RandomNcaDown,
        ],
        failure_permille: vec![0, 100, 400],
        faults_per_point: 2,
        base_seed: 2009,
        network: NetworkConfig::default(),
    };
    assert_golden(
        "faults_small.json",
        &to_json(&config.run(&pattern).unwrap()),
    );
}

/// A mini chaos lab: pins the seeded fault/repair timeline (which epochs
/// strike, what breaks, when it heals), every repatch decision and the
/// per-epoch SLA accounting — deliveries, drops, unroutable demand and
/// latency percentiles — so neither the incident sampler, the repair
/// semantics nor the netsim replay can shift silently.
#[test]
fn chaos_small_timeline_is_byte_stable() {
    let pattern = generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap();
    let config = ChaosConfig {
        name: "golden".into(),
        k: 4,
        w2: 4,
        algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
        epochs: 4,
        epoch_ps: 40_000_000,
        link_fail_permille: 120,
        switch_kill_permille: 300,
        cable_cut_permille: 300,
        repair_epochs: 1,
        seeds_per_point: 2,
        base_seed: 11,
        network: NetworkConfig::default(),
    };
    assert_golden("chaos_small.json", &to_json(&config.run(&pattern).unwrap()));
}
