//! Integration tests that pin the paper's headline qualitative claims at a
//! reduced scale, so `cargo test` certifies the reproduction's shape without
//! the cost of the full sweeps (those run through `xgft <name> --full`).

use xgft::analysis::experiments::{equivalence, fig4, OBLIVIOUS_SCHEMES};
use xgft::analysis::sweep::{AlgorithmSpec, SeedSpec, SweepConfig};
use xgft::netsim::NetworkConfig;
use xgft::patterns::generators;
use xgft::scenario::{
    registry, run_scenario, ExperimentArgs, ResultPayload, RunOptions, ScenarioSpec,
};
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
    let run = |w2| {
        let spec = XgftSpec::slimmed_two_level(16, w2).unwrap();
        fig4::run_for(&spec, &OBLIVIOUS_SCHEMES, &[1, 2, 3]).unwrap()
    };
    let full = run(16);
    for name in ["s-mod-k", "d-mod-k"] {
        let d = full.distribution(name).unwrap();
        assert!(
            d.per_nca.iter().all(|&c| (c - 3840.0).abs() < 1e-9),
            "{name}"
        );
    }

    let slim = run(10);
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
    let cg = generators::cg_d(128, 16 * 1024).unwrap();
    let fifth = xgft::patterns::Pattern::single_phase("cg-fifth", cg.phases()[4].clone());
    let config = SweepConfig {
        k: 16,
        w2_values: vec![16, 4, 1],
        algorithms: AlgorithmSpec::figure5_set(),
        seeds: SeedSpec::List {
            seeds: vec![1, 2, 3],
        },
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

/// The payload of a Fig. 2/5 registry entry run with `flags`, through the
/// same `spec_for` + `run_scenario` path `xgft <name>` takes.
fn run_entry(name: &str, flags: &[&str]) -> ResultPayload {
    let spec = entry_spec(name, flags);
    run_scenario(&spec, &RunOptions::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .payload
}

fn entry_spec(name: &str, flags: &[&str]) -> ScenarioSpec {
    let args = ExperimentArgs::parse_from(flags.iter().map(|f| f.to_string())).unwrap();
    registry::spec_for(name, &args)
        .expect("scenario-backed entry")
        .unwrap()
}

/// Fig. 2's workloads keep the paper's shapes: WRF-256 is one exchange
/// phase over 256 ranks, CG.D-128 five phases over 128.
#[test]
fn workload_patterns_have_paper_shapes() {
    for (name, ranks, phases) in [("fig2_wrf", 256, 1), ("fig2_cg", 128, 5)] {
        let pattern = entry_spec(name, &["--scale", "1"])
            .workload
            .pattern()
            .unwrap();
        assert_eq!(pattern.num_nodes(), ranks, "{name}");
        assert_eq!(pattern.num_phases(), phases, "{name}");
    }
}

/// `--scale` shrinks every message but never below the 1 KiB floor.
#[test]
fn byte_scale_shrinks_messages_with_a_floor() {
    let first_bytes = |scale: &str| {
        let pattern = entry_spec("fig2_cg", &["--scale", scale])
            .workload
            .pattern()
            .unwrap();
        let first = pattern.phases()[0].flows().next().unwrap().bytes;
        first
    };
    let full = first_bytes("1");
    let small = first_bytes("0.01");
    assert_eq!(full, 750 * 1024);
    assert!(small < full);
    assert!(small >= 1024);
    assert_eq!(first_bytes("0.0000001"), 1024);
}

/// The analytic Fig. 2(b) structure with zero simulation: D-mod-k's
/// CG.D-128 congruence pathology shows up as a congestion ratio far above
/// Random's.
#[test]
fn analytic_fig2b_exposes_the_cg_pathology() {
    let ResultPayload::Flow(result) =
        run_entry("fig2_cg", &["--analytic", "--scale", "1", "--w2", "16"])
    else {
        panic!("--analytic must lower to the flow engine");
    };
    let dmodk = result.point_by_w(16, "d-mod-k").unwrap();
    let random = result.point_by_w(16, "random").unwrap();
    let colored = result.point_by_w(16, "colored").unwrap();
    // The congruence piles several fifth-phase flows onto shared up
    // channels; over the union of all five phases that still leaves
    // d-mod-k ~1.4x above the cut bound while Random sits exactly on it.
    assert!(
        dmodk.ratio > 1.25 * random.ratio,
        "d-mod-k ratio {} vs random {}",
        dmodk.ratio,
        random.ratio
    );
    assert!((random.ratio - 1.0).abs() < 0.05);
    assert!(colored.mcl <= dmodk.mcl);
}

/// The analytic Fig. 5: the r-NCA closed forms avoid both the mod-k wrap
/// imbalance and the CG congruence, w2 by w2, without a single seed.
#[test]
fn analytic_fig5_rnca_beats_mod_k_on_slimmed_trees() {
    let ResultPayload::Flow(result) =
        run_entry("fig5_cg", &["--analytic", "--scale", "1", "--w2", "16,10"])
    else {
        panic!("--analytic must lower to the flow engine");
    };
    for w2 in [16usize, 10] {
        let dmodk = result.point_by_w(w2, "d-mod-k").unwrap();
        let rnca = result.point_by_w(w2, "r-NCA-d").unwrap();
        assert!(
            rnca.mcl <= dmodk.mcl,
            "w2={w2}: r-NCA-d {} vs d-mod-k {}",
            rnca.mcl,
            dmodk.mcl
        );
    }
}

/// A reduced Fig. 2(a): three topologies, a sixteenth of the paper's
/// message sizes. Checks the qualitative claims of the paper: S-mod-k ≈
/// D-mod-k ≈ Colored and all beat Random on WRF, and the slimmed end
/// degrades for everyone.
#[test]
fn reduced_fig2a_shape() {
    let ResultPayload::Sweep(result) = run_entry(
        "fig2_wrf",
        &["--scale", "0.0625", "--seeds", "2", "--w2", "16,4,1"],
    ) else {
        panic!("fig2_wrf must lower to a sweep");
    };
    let at = |w2: usize, name: &str| result.point(w2, name).unwrap().stats.median;
    let dmodk_full = at(16, "d-mod-k");
    // S-mod-k and D-mod-k are nearly identical (symmetric pattern).
    assert!((dmodk_full - at(16, "s-mod-k")).abs() / dmodk_full < 0.05);
    // Both essentially match the pattern-aware bound on WRF...
    assert!(dmodk_full < 1.15 * at(16, "colored"));
    // ...and Random is strictly worse (routing contention it adds).
    assert!(at(16, "random") > 1.15 * dmodk_full);
    // Slimming to a single root degrades every scheme.
    assert!(at(1, "d-mod-k") > 2.0 * dmodk_full);
}
