//! Cross-crate integration tests: topology → patterns → routing → simulation
//! → analysis, exercised through the umbrella crate's public API exactly as
//! a downstream user would.

use xgft::analysis::slowdown::{run_on_crossbar, slowdown_of};
use xgft::patterns::generators;
use xgft::prelude::*;
use xgft::routing::{ContentionReport, RandomNcaDown, RandomNcaUp};
use xgft::tracesim::workloads;

/// End-to-end: the WRF-like exchange on a slimmed tree, every algorithm, all
/// slowdowns finite and ordered sensibly.
#[test]
fn end_to_end_wrf_on_slimmed_tree() {
    let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 8).unwrap()).unwrap();
    let trace = workloads::trace_from_pattern(
        &generators::wrf_mesh_exchange(16, 16, 16 * 1024).unwrap(),
        0,
    );
    let config = NetworkConfig::default();
    let crossbar = run_on_crossbar(&trace, &config).unwrap().completion_ps;
    assert!(crossbar > 0);

    let pattern = generators::wrf_mesh_exchange(16, 16, 16 * 1024)
        .unwrap()
        .combined();
    let algorithms: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(RandomRouting::new(1)),
        Box::new(SModK::new()),
        Box::new(DModK::new()),
        Box::new(RandomNcaUp::new(&xgft, 1)),
        Box::new(RandomNcaDown::new(&xgft, 1)),
        Box::new(ColoredRouting::new(&xgft, &pattern)),
    ];
    let mut slowdowns = std::collections::HashMap::new();
    for algo in &algorithms {
        let report = slowdown_of(&trace, &xgft, algo.as_ref(), &config, Some(crossbar)).unwrap();
        assert!(report.slowdown.is_finite());
        assert!(
            report.slowdown >= 0.99,
            "{}: {}",
            report.algorithm,
            report.slowdown
        );
        slowdowns.insert(report.algorithm.clone(), report.slowdown);
    }
    // The paper's WRF observation: the mod-k schemes track the pattern-aware
    // bound and beat Random.
    assert!(slowdowns["d-mod-k"] <= 1.2 * slowdowns["colored"]);
    assert!(slowdowns["s-mod-k"] <= 1.2 * slowdowns["colored"]);
    assert!(slowdowns["random"] >= slowdowns["d-mod-k"]);
}

/// The CG pathology end to end: D-mod-k much slower than Colored on the full
/// tree, r-NCA-d recovers most of the gap.
#[test]
fn end_to_end_cg_pathology_and_recovery() {
    let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 16).unwrap()).unwrap();
    let cg = generators::cg_d(128, 32 * 1024).unwrap();
    let fifth = xgft::patterns::Pattern::single_phase("cg-fifth", cg.phases()[4].clone());
    let trace = workloads::trace_from_pattern(&fifth, 0);
    let config = NetworkConfig::default();
    let crossbar = run_on_crossbar(&trace, &config).unwrap().completion_ps;

    let dmodk = slowdown_of(&trace, &xgft, &DModK::new(), &config, Some(crossbar)).unwrap();
    let colored_algo = ColoredRouting::new(&xgft, &fifth.combined());
    let colored = slowdown_of(&trace, &xgft, &colored_algo, &config, Some(crossbar)).unwrap();
    let rnca = RandomNcaDown::new(&xgft, 5);
    let rnca_d = slowdown_of(&trace, &xgft, &rnca, &config, Some(crossbar)).unwrap();

    assert!(
        dmodk.slowdown > 3.0 * colored.slowdown,
        "pathology missing: d-mod-k {:.2} vs colored {:.2}",
        dmodk.slowdown,
        colored.slowdown
    );
    assert!(
        rnca_d.slowdown < 0.7 * dmodk.slowdown,
        "r-NCA-d should break the congruence: {:.2} vs {:.2}",
        rnca_d.slowdown,
        dmodk.slowdown
    );
}

/// Route tables produced by every scheme are valid on every topology of the
/// paper's sweep family.
#[test]
fn all_schemes_produce_valid_tables_across_the_family() {
    for w2 in [16usize, 10, 5, 1] {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, w2).unwrap()).unwrap();
        let pattern = generators::cg_d(128, 1024).unwrap().combined();
        let flows: Vec<(usize, usize)> = pattern.network_flows().map(|f| (f.src, f.dst)).collect();
        let algorithms: Vec<Box<dyn RoutingAlgorithm>> = vec![
            Box::new(RandomRouting::new(w2 as u64)),
            Box::new(SModK::new()),
            Box::new(DModK::new()),
            Box::new(RandomNcaUp::new(&xgft, 9)),
            Box::new(RandomNcaDown::new(&xgft, 9)),
            Box::new(ColoredRouting::new(&xgft, &pattern)),
        ];
        for algo in &algorithms {
            let table = CompiledRouteTable::compile(&xgft, algo.as_ref(), flows.iter().copied());
            table
                .validate(&xgft)
                .unwrap_or_else(|e| panic!("{} invalid on w2={w2}: {e}", algo.name()));
            let report = ContentionReport::compute(&xgft, &table, flows.iter().copied());
            assert!(report.network_contention >= 1);
        }
    }
}

/// The simulator respects conservation: every byte injected is delivered,
/// regardless of routing scheme or slimming.
#[test]
fn byte_conservation_through_the_full_stack() {
    let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 3).unwrap()).unwrap();
    let trace = workloads::trace_from_pattern(&generators::cg_d(64, 8 * 1024).unwrap(), 0);
    let config = NetworkConfig::default();
    let result =
        xgft::analysis::slowdown::run_on_xgft(&trace, &xgft, &DModK::new(), &config).unwrap();
    assert_eq!(result.network_report.total_bytes, trace.total_bytes());
    assert_eq!(result.network_report.completed_messages, trace.num_sends());
    assert_eq!(result.rank_finish_ps.len(), 64);
    assert!(result.completion_ps >= result.network_report.makespan_ps);
}

/// Replaying the same trace with the same seed twice gives bit-identical
/// results (full-stack determinism).
#[test]
fn full_stack_determinism() {
    let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 4).unwrap()).unwrap();
    let trace =
        workloads::trace_from_pattern(&generators::wrf_mesh_exchange(8, 8, 8 * 1024).unwrap(), 0);
    let config = NetworkConfig::default();
    let run = |seed| {
        let algo = RandomNcaUp::new(&xgft, seed);
        let result = xgft::analysis::slowdown::run_on_xgft(&trace, &xgft, &algo, &config).unwrap();
        (result.completion_ps, result.network_report.messages)
    };
    // Same seed: bit-identical timing, down to every per-message record.
    assert_eq!(run(3), run(3));
    // Different seeds draw different relabelings (routes differ even if the
    // aggregate completion time happens to coincide).
    let (a, b) = (RandomNcaUp::new(&xgft, 3), RandomNcaUp::new(&xgft, 4));
    assert!(trace
        .communication_pairs()
        .iter()
        .any(|&(s, d)| a.route(&xgft, s, d) != b.route(&xgft, s, d)));
}

/// The prelude re-exports everything a typical user touches.
#[test]
fn prelude_covers_the_common_api() {
    let _spec: XgftSpec = XgftSpec::k_ary_n_tree(2, 2);
    let _tree = KAryNTree::new(2, 2);
    let _cfg = NetworkConfig::default();
    let _mode = SwitchingMode::StoreAndForward;
    let _pattern: Pattern = generators::shift(4, 1, 64);
    let _matrix = ConnectivityMatrix::new(4);
    let _label: Option<NodeLabel> = None;
    let _trace: Trace = trace_from_pattern(&generators::wrf_mesh_exchange(2, 2, 1024).unwrap(), 0);
    let trace = trace_from_pattern(&generators::cg_d(32, 1024).unwrap(), 0);
    let _engine = ReplayEngine::new(&trace);
    let _report: Option<SlowdownReport> = None;
    let _route = Route::empty();
}
