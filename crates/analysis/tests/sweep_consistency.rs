//! Consistency tests of the sweep machinery: the crossbar reference, point
//! lookups, sample counts and rendering must all agree with each other.

use xgft_analysis::slowdown::{run_on_crossbar, run_on_xgft};
use xgft_analysis::sweep::{AlgorithmSpec, SeedSpec, SweepConfig, SweepResult};
use xgft_core::DModK;
use xgft_netsim::NetworkConfig;
use xgft_patterns::generators;
use xgft_topo::{Xgft, XgftSpec};
use xgft_tracesim::workloads;

fn small_sweep() -> (SweepConfig, xgft_patterns::Pattern) {
    let pattern = generators::wrf_mesh_exchange(4, 8, 16 * 1024).unwrap();
    let config = SweepConfig {
        k: 8,
        w2_values: vec![8, 4, 2],
        algorithms: vec![
            AlgorithmSpec::DModK,
            AlgorithmSpec::SModK,
            AlgorithmSpec::Random,
            AlgorithmSpec::RandomNcaDown,
        ],
        seeds: SeedSpec::List {
            seeds: vec![1, 2, 3],
        },
        network: NetworkConfig::default(),
    };
    (config, pattern)
}

#[test]
fn sweep_points_cover_every_requested_combination() {
    let (config, pattern) = small_sweep();
    let result = config.run(&pattern).unwrap();
    assert_eq!(result.points.len(), 3 * 4);
    for &w2 in &[8usize, 4, 2] {
        for name in ["d-mod-k", "s-mod-k", "random", "r-NCA-d"] {
            let point = result
                .point(w2, name)
                .unwrap_or_else(|| panic!("missing sweep point for w2={w2}, algorithm {name}"));
            let expected_samples = if name == "random" || name == "r-NCA-d" {
                3
            } else {
                1
            };
            assert_eq!(point.samples.len(), expected_samples, "{name} at w2={w2}");
            assert!(point.stats.min <= point.stats.median);
            assert!(point.stats.median <= point.stats.max);
            assert!(point.stats.min >= 0.99, "slowdowns are >= 1");
        }
    }
}

#[test]
fn sweep_slowdowns_match_direct_replay() {
    // The sweep's d-mod-k sample must equal an independent replay of the
    // same trace on the same topology, normalised by the same crossbar time.
    let (config, pattern) = small_sweep();
    let result: SweepResult = config.run(&pattern).unwrap();
    let trace = workloads::trace_from_pattern(&pattern, 0);
    let netcfg = NetworkConfig::default();
    let crossbar = run_on_crossbar(&trace, &netcfg).unwrap().completion_ps;
    assert_eq!(result.crossbar_ps, crossbar);

    let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 4).unwrap()).unwrap();
    let direct = run_on_xgft(&trace, &xgft, &DModK::new(), &netcfg).unwrap();
    let expected = direct.completion_ps as f64 / crossbar as f64;
    let from_sweep = result.point(4, "d-mod-k").unwrap().stats.median;
    assert!(
        (expected - from_sweep).abs() < 1e-12,
        "sweep {from_sweep} vs direct {expected}"
    );
}

#[test]
fn render_table_lists_every_w2_and_algorithm() {
    let (config, pattern) = small_sweep();
    let result = config.run(&pattern).unwrap();
    let table = result.render_table();
    for w2 in ["   8", "   4", "   2"] {
        assert!(table.contains(w2), "missing row {w2:?}\n{table}");
    }
    for algo in ["d-mod-k", "s-mod-k", "random", "r-NCA-d"] {
        assert!(table.contains(algo), "missing column {algo}\n{table}");
    }
}
