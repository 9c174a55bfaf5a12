//! Workspace-level acceptance checks for the `xgft-flow` analytical model,
//! exercised through the umbrella crate's public API.

use std::time::Instant;
use xgft::flow::{ExpectedLoads, TrafficMatrix};
use xgft::prelude::*;

/// The scale criterion: exact expected MCL for the randomised closed forms
/// on a >= 16 384-leaf XGFT in (well) under a second. The `flow_mcl` area
/// of `xgft bench` times the closed forms; the bound here is generous so
/// the check never flakes on slow CI runners.
#[test]
fn closed_form_mcl_on_16384_leaves_is_subsecond() {
    let xgft = Xgft::new(XgftSpec::new(vec![128, 128], vec![1, 64]).unwrap()).unwrap();
    assert!(xgft.num_leaves() >= 16_384);
    let traffic = TrafficMatrix::uniform(xgft.num_leaves());

    let start = Instant::now();
    let random = ExpectedLoads::compute(&xgft, &RandomRouting::new(0), &traffic);
    let rnca = ExpectedLoads::compute(&xgft, &RandomNcaDown::new(&xgft, 0), &traffic);
    let elapsed = start.elapsed();

    assert!(
        elapsed.as_secs_f64() < 1.0,
        "closed-form MCL took {elapsed:?} for two schemes on 16 384 leaves"
    );
    // Level-1 up channels dominate: 128 leaves/switch x 16 256 cross-switch
    // partners / 64 roots.
    let expected = 128.0 * (127.0 * 128.0) / 64.0;
    assert!((random.mcl() - expected).abs() < 1e-6);
    assert!((rnca.mcl() - expected).abs() < 1e-6);
}

/// The routing-scheme hierarchy the paper establishes, reproduced from the
/// closed forms alone on the slimmed sweep family.
#[test]
fn analytic_sweep_reproduces_the_papers_scheme_ordering() {
    use xgft::flow::FlowSweepConfig;
    let result = FlowSweepConfig::slimming_family(
        16,
        &[16, 10, 5],
        vec![AlgorithmSpec::RandomNcaDown, AlgorithmSpec::DModK],
        TrafficSpec::Uniform,
    )
    .unwrap()
    .run();
    for w2 in [16usize, 10, 5] {
        let rnca = result.point_by_w(w2, "r-NCA-d").unwrap();
        let dmodk = result.point_by_w(w2, "d-mod-k").unwrap();
        // The balanced relabeling never loses to the modulo wrap, and meets
        // the cut bound exactly on every topology.
        assert!(rnca.mcl <= dmodk.mcl + 1e-9, "w2={w2}");
        assert!((rnca.ratio - 1.0).abs() < 1e-9, "w2={w2}");
    }
}
