//! Integration tests that pin the paper's headline qualitative claims at a
//! reduced scale, so `cargo test` certifies the reproduction's shape without
//! the cost of the full sweeps (those run through `xgft <name> --full`).

use xgft::analysis::experiments::{equivalence, fig4};
use xgft::analysis::sweep::{AlgorithmSpec, SweepConfig};
use xgft::netsim::NetworkConfig;
use xgft::patterns::generators;
use xgft::topo::XgftSpec;

/// Sec. VII-B: `C(S-mod-k, P) == C(D-mod-k, P⁻¹)` exactly, for every sampled
/// permutation, on both a full and a slimmed tree.
#[test]
fn smodk_dmodk_duality_is_exact() {
    for w2 in [16usize, 10] {
        let result = equivalence::run(16, w2, 10, 1);
        assert_eq!(result.duality_holds, result.permutations, "w2={w2}");
    }
}

/// Fig. 4(a): on the full 16-ary 2-tree both mod-k schemes assign exactly
/// 3840 routes to every root; Fig. 4(b): on the w2=10 slimmed tree they
/// assign 7680 to the first six roots and 3840 to the rest, while the
/// proposed relabeling keeps the spread tight around the 6144 mean.
#[test]
fn fig4_route_distributions_match_the_paper() {
    let full = fig4::run(16, &[1, 2, 3]);
    for name in ["s-mod-k", "d-mod-k"] {
        let d = full.distribution(name).unwrap();
        assert!(
            d.per_nca.iter().all(|&c| (c - 3840.0).abs() < 1e-9),
            "{name}"
        );
    }

    let slim = fig4::run(10, &[1, 2, 3]);
    let dmodk = slim.distribution("d-mod-k").unwrap();
    assert!(dmodk.per_nca[..6]
        .iter()
        .all(|&c| (c - 7680.0).abs() < 1e-9));
    assert!(dmodk.per_nca[6..]
        .iter()
        .all(|&c| (c - 3840.0).abs() < 1e-9));
    let rnca = slim.distribution("r-NCA-d").unwrap();
    // Paper's Fig. 4(b): the proposal's boxes sit between the two mod-k
    // extremes, i.e. every per-NCA mean stays inside (3840, 7680).
    assert!(rnca
        .per_nca
        .iter()
        .all(|&c| c > 3840.0 - 1e-9 && c < 7680.0 + 1e-9));
    let random = slim.distribution("random").unwrap();
    assert!(random.spread.iqr() < dmodk.spread.iqr());
}

/// Fig. 2/5 in miniature: a three-point sweep of the CG fifth phase on the
/// k=16 family. Checks the orderings the paper reports: the pattern-aware
/// bound <= r-NCA-d <= Random < D-mod-k on the full tree (pathology), and
/// everyone degrades monotonically as w2 shrinks to 1.
#[test]
fn reduced_sweep_reproduces_figure_orderings() {
    let cg = generators::cg_d(128, 16 * 1024);
    let fifth = xgft::patterns::Pattern::single_phase("cg-fifth", cg.phases()[4].clone());
    let config = SweepConfig {
        k: 16,
        w2_values: vec![16, 4, 1],
        algorithms: AlgorithmSpec::figure5_set(),
        seeds: vec![1, 2, 3],
        network: NetworkConfig::default(),
    };
    let result = config.run(&fifth).unwrap();

    let at = |w2: usize, name: &str| result.point(w2, name).unwrap().stats.median;

    // Full tree: the pathology and its fixes.
    assert!(at(16, "colored") <= at(16, "r-NCA-d") + 1e-9);
    assert!(at(16, "r-NCA-d") < at(16, "d-mod-k"));
    assert!(at(16, "random") < at(16, "d-mod-k"));

    // Slimming to a single root makes every scheme equivalent-ish and slow.
    for name in ["colored", "d-mod-k", "r-NCA-d", "random"] {
        assert!(
            at(1, name) > at(16, name),
            "{name} should degrade when slimmed"
        );
        assert!(
            at(1, name) > 3.0,
            "{name} at w2=1 should be far from the crossbar"
        );
    }
}

/// Eq. (1) for every topology in the paper's sweep plus the Fig. 1 examples.
#[test]
fn eq1_switch_counts() {
    for w2 in 1..=16usize {
        let spec = XgftSpec::slimmed_two_level(16, w2).unwrap();
        assert_eq!(spec.inner_switches(), 16 + w2);
    }
    assert_eq!(XgftSpec::k_ary_n_tree(16, 2).inner_switches(), 32);
    assert_eq!(XgftSpec::k_ary_n_tree(4, 3).inner_switches(), 48);
}
