//! Property-based tests of the routing schemes.

use proptest::prelude::*;
use xgft_core::{
    ColoredRouting, CompiledRouteTable, ContentionReport, DModK, RandomNcaDown, RandomNcaUp,
    RandomRouting, RelabelMaps, RoutingAlgorithm, SModK,
};
use xgft_patterns::{ConnectivityMatrix, Permutation};
use xgft_topo::{Xgft, XgftSpec};

/// Small two-and-three-level specs with optional slimming.
fn small_spec() -> impl Strategy<Value = XgftSpec> {
    prop_oneof![
        // Two-level slimmed family (the paper's sweep, scaled down).
        (2usize..=6, 1usize..=6)
            .prop_map(|(k, w2)| { XgftSpec::new(vec![k, k], vec![1, w2.min(k)]).expect("valid") }),
        // Three-level mixed-arity trees.
        (2usize..=4, 2usize..=4, 2usize..=3, 1usize..=3, 1usize..=3).prop_map(
            |(m1, m2, m3, w2, w3)| {
                XgftSpec::new(vec![m1, m2, m3], vec![1, w2, w3]).expect("valid")
            }
        ),
    ]
}

fn algorithms(xgft: &Xgft, seed: u64) -> Vec<Box<dyn RoutingAlgorithm>> {
    vec![
        Box::new(RandomRouting::new(seed)),
        Box::new(SModK::new()),
        Box::new(DModK::new()),
        Box::new(RandomNcaUp::new(xgft, seed)),
        Box::new(RandomNcaDown::new(xgft, seed)),
    ]
}

/// The contention level `C` of `flows` routed by `algo`.
fn contention(xgft: &Xgft, algo: &dyn RoutingAlgorithm, flows: &[(usize, usize)]) -> usize {
    let table = CompiledRouteTable::compile(xgft, algo, flows.iter().copied());
    ContentionReport::compute(xgft, &table, flows.iter().copied()).network_contention
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every oblivious scheme returns a valid route for every ordered pair,
    /// on every topology.
    #[test]
    fn all_schemes_return_valid_routes(spec in small_spec(), seed in 0u64..1000) {
        let xgft = Xgft::new(spec).unwrap();
        let n = xgft.num_leaves();
        let stride = (n / 10).max(1);
        for algo in algorithms(&xgft, seed) {
            for s in (0..n).step_by(stride) {
                for d in (0..n).step_by(stride) {
                    let route = algo.route(&xgft, s, d);
                    prop_assert!(
                        xgft.validate_route(s, d, &route).is_ok(),
                        "{} gave an invalid route for ({s},{d}) on {}",
                        algo.name(),
                        xgft.spec()
                    );
                }
            }
        }
    }

    /// S-mod-k's ascent depends only on the source; D-mod-k's NCA depends
    /// only on the destination; and the r-NCA schemes inherit the same
    /// endpoint-concentration property from the relabeling.
    #[test]
    fn endpoint_concentration_properties(spec in small_spec(), seed in 0u64..1000) {
        let xgft = Xgft::new(spec).unwrap();
        let n = xgft.num_leaves();
        let top = xgft.height();
        let s_algos: Vec<Box<dyn RoutingAlgorithm>> =
            vec![Box::new(SModK::new()), Box::new(RandomNcaUp::new(&xgft, seed))];
        let d_algos: Vec<Box<dyn RoutingAlgorithm>> =
            vec![Box::new(DModK::new()), Box::new(RandomNcaDown::new(&xgft, seed))];
        for algo in &s_algos {
            for s in (0..n).step_by((n / 6).max(1)) {
                let mut ascents = std::collections::HashSet::new();
                for d in 0..n {
                    if xgft.nca_level(s, d) == top {
                        ascents.insert(algo.route(&xgft, s, d).up_ports().to_vec());
                    }
                }
                prop_assert!(ascents.len() <= 1, "{} source {s}", algo.name());
            }
        }
        for algo in &d_algos {
            for d in (0..n).step_by((n / 6).max(1)) {
                let mut ncas = std::collections::HashSet::new();
                for s in 0..n {
                    if xgft.nca_level(s, d) == top {
                        let route = algo.route(&xgft, s, d);
                        ncas.insert(xgft.nca_of_route(s, &route).unwrap());
                    }
                }
                prop_assert!(ncas.len() <= 1, "{} destination {d}", algo.name());
            }
        }
    }

    /// The r-NCA machinery with modulo maps is *exactly* S-mod-k / D-mod-k
    /// (the paper's "particular cases" statement), on every topology.
    #[test]
    fn modulo_maps_degenerate_to_mod_k(spec in small_spec()) {
        let xgft = Xgft::new(spec).unwrap();
        let n = xgft.num_leaves();
        let up = RandomNcaUp::with_maps(RelabelMaps::modulo(&xgft));
        let down = RandomNcaDown::with_maps(RelabelMaps::modulo(&xgft));
        let smod = SModK::new();
        let dmod = DModK::new();
        for s in (0..n).step_by((n / 8).max(1)) {
            for d in (0..n).step_by((n / 8).max(1)) {
                prop_assert_eq!(up.route(&xgft, s, d), smod.route(&xgft, s, d));
                prop_assert_eq!(down.route(&xgft, s, d), dmod.route(&xgft, s, d));
            }
        }
    }

    /// Sec. VII-B duality: the contention level of S-mod-k on a permutation
    /// equals the contention level of D-mod-k on its inverse.
    #[test]
    fn s_d_duality_over_random_permutations(
        spec in small_spec(),
        perm_seed in 0u64..10_000,
    ) {
        let xgft = Xgft::new(spec).unwrap();
        let n = xgft.num_leaves();
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(perm_seed);
        let perm = Permutation::random(n, &mut rng);
        let inverse = perm.inverse();

        let flows = |p: &Permutation| p.pairs().collect::<Vec<_>>();
        let c_s = contention(&xgft, &SModK::new(), &flows(&perm));
        let c_d_inv = contention(&xgft, &DModK::new(), &flows(&inverse));
        prop_assert_eq!(c_s, c_d_inv);
    }

    /// The pattern-aware baseline is a near-lower envelope: a greedy +
    /// refinement heuristic is not guaranteed optimal, but on every sampled
    /// permutation it must stay within one contention unit of the best
    /// oblivious scheme and never exceed the worst one.
    #[test]
    fn colored_is_a_near_lower_envelope(spec in small_spec(), seed in 0u64..500) {
        let xgft = Xgft::new(spec).unwrap();
        let n = xgft.num_leaves();
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let perm = Permutation::random(n, &mut rng);
        let flows: Vec<(usize, usize)> = perm.pairs().collect();
        if flows.is_empty() {
            return Ok(());
        }
        let mut pattern = ConnectivityMatrix::new(n);
        for &(s, d) in &flows {
            pattern.add_flow(s, d, 1);
        }
        let colored = ColoredRouting::new(&xgft, &pattern);
        let colored_c = contention(&xgft, &colored, &flows);
        let oblivious: Vec<usize> = algorithms(&xgft, seed)
            .iter()
            .map(|algo| contention(&xgft, algo.as_ref(), &flows))
            .collect();
        let best = *oblivious.iter().min().unwrap();
        let worst = *oblivious.iter().max().unwrap();
        prop_assert!(
            colored_c <= best + 1,
            "colored {} should be within 1 of the best oblivious {} on {}",
            colored_c,
            best,
            xgft.spec()
        );
        prop_assert!(colored_c <= worst);
        // And never below the capacity lower bound of the slimmed level.
        let k = xgft.spec().m(1);
        let w2 = xgft.spec().w(2);
        if xgft.height() == 2 && flows.len() >= xgft.num_leaves() - 1 {
            prop_assert!(colored_c * w2.max(1) * k >= flows.len().saturating_sub(k) / k);
        }
    }

    /// The balanced relabeling always uses every port of a slimmed level and
    /// never loads one port with more than ceil(m/w) children.
    #[test]
    fn balanced_maps_are_always_balanced(spec in small_spec(), seed in 0u64..1000) {
        let xgft = Xgft::new(spec.clone()).unwrap();
        let maps = RelabelMaps::random(&xgft, seed);
        let h = spec.height();
        for l in 1..h {
            let m_l = spec.m(l);
            let w_next = spec.w(l + 1);
            let ceil = m_l.div_ceil(w_next);
            // Check every context through the public port_at interface by
            // enumerating leaves (each leaf exercises its own context).
            let mut per_context_counts: std::collections::HashMap<Vec<usize>, Vec<usize>> =
                std::collections::HashMap::new();
            for leaf in 0..xgft.num_leaves() {
                let ctx: Vec<usize> = ((l + 1)..=h).map(|p| xgft.leaf_digit(leaf, p)).collect();
                let port = maps.port_at(&xgft, leaf, l);
                prop_assert!(port < w_next);
                let counts = per_context_counts
                    .entry(ctx)
                    .or_insert_with(|| vec![0; w_next]);
                counts[port] += 1;
            }
            // Every context saw each of its child digits (m_l of them) a
            // fixed number of times (= product of lower-level arities), so
            // dividing restores the per-child count.
            let repeats: usize = (1..l).map(|p| spec.m(p)).product::<usize>().max(1);
            for counts in per_context_counts.values() {
                for &c in counts {
                    prop_assert!(c % repeats == 0);
                    prop_assert!(c / repeats <= ceil);
                }
                if w_next <= m_l {
                    prop_assert!(counts.iter().all(|&c| c > 0), "unused port on a slimmed level");
                }
            }
        }
    }
}
