//! Property tests of the compiled route-table representation: on randomized
//! XGFT specs, [`CompiledRouteTable`] must agree route-for-route with the
//! reference it is compiled from — the algorithm's own `route` expanded by
//! `Xgft::route_channels` — for **every** algorithm spec evaluated by
//! Figures 2 and 5, including the miss path of partially-built tables and
//! the decode of a stored path back into its route.

use proptest::prelude::*;
use xgft_analysis::AlgorithmSpec;
use xgft_core::{CompiledRouteTable, RoutingAlgorithm};
use xgft_patterns::{generators, Pattern};
use xgft_topo::{Xgft, XgftSpec};

/// Small two- and three-level specs with optional slimming (the same family
/// the core property tests randomize over).
fn small_spec() -> impl Strategy<Value = XgftSpec> {
    prop_oneof![
        (2usize..=6, 1usize..=6)
            .prop_map(|(k, w2)| XgftSpec::new(vec![k, k], vec![1, w2.min(k)]).expect("valid")),
        (2usize..=3, 2usize..=3, 2usize..=3, 1usize..=3, 1usize..=3).prop_map(
            |(m1, m2, m3, w2, w3)| XgftSpec::new(vec![m1, m2, m3], vec![1, w2, w3]).expect("valid")
        ),
    ]
}

/// Every algorithm spec that appears in Fig. 2 or Fig. 5.
fn figure_algorithms() -> Vec<AlgorithmSpec> {
    let mut algos = AlgorithmSpec::figure2_set();
    for a in AlgorithmSpec::figure5_set() {
        if !algos.contains(&a) {
            algos.push(a);
        }
    }
    algos
}

/// A deterministic quasi-random pair list for the miss-path tests.
fn sparse_pairs(n: usize, salt: u64) -> Vec<(usize, usize)> {
    (0..n)
        .map(|s| {
            let d = (s as u64).wrapping_mul(salt | 1).wrapping_add(salt >> 3) as usize % n;
            (s, d)
        })
        .collect()
}

/// The reference channel path of `(s, d)`: the algorithm's route expanded
/// by the topology, in the compiled table's `u32` channel indices.
fn reference_path(xgft: &Xgft, algo: &dyn RoutingAlgorithm, s: usize, d: usize) -> Vec<u32> {
    let route = algo.route(xgft, s, d);
    xgft.route_channels(s, d, &route)
        .unwrap()
        .iter()
        .map(|&c| c as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All-pairs agreement: same routes, same expanded channel paths, for
    /// every figure algorithm on every sampled topology.
    #[test]
    fn compiled_agrees_with_the_algorithm_for_every_figure_algorithm(
        spec in small_spec(),
        seed in 0u64..1000,
    ) {
        let xgft = Xgft::new(spec).unwrap();
        let n = xgft.num_leaves();
        // Pattern-aware specs (Colored) see a shift pattern; oblivious ones
        // ignore it.
        let pattern: Pattern = generators::shift(n, 1, 4 * 1024);
        for algo_spec in figure_algorithms() {
            let algo = algo_spec.instantiate(&xgft, &pattern, seed);
            let compiled = CompiledRouteTable::compile_all_pairs(&xgft, algo.as_ref());
            prop_assert_eq!(compiled.len(), n * (n - 1));
            prop_assert_eq!(compiled.algorithm(), algo.name());
            prop_assert_eq!(compiled.is_pattern_aware(), algo.is_pattern_aware());
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        prop_assert!(compiled.path(s, d).is_none());
                        continue;
                    }
                    prop_assert_eq!(
                        compiled.route(s, d),
                        Some(algo.route(&xgft, s, d)),
                        "{} on {} pair ({s},{d})",
                        algo_spec.name(),
                        xgft.spec()
                    );
                    prop_assert_eq!(
                        compiled.path(s, d),
                        Some(reference_path(&xgft, algo.as_ref(), s, d).as_slice())
                    );
                }
            }
        }
    }

    /// Miss path and decode on partially-built tables: pairs outside the
    /// compiled set miss, and every stored path decodes back into the
    /// algorithm's route.
    #[test]
    fn partial_tables_agree_on_misses_and_round_trip(
        spec in small_spec(),
        seed in 0u64..1000,
        salt in 1u64..10_000,
    ) {
        let xgft = Xgft::new(spec).unwrap();
        let n = xgft.num_leaves();
        let pattern: Pattern = generators::shift(n, 1, 4 * 1024);
        let pairs = sparse_pairs(n, salt);
        let mut stored: Vec<(usize, usize)> =
            pairs.iter().copied().filter(|&(s, d)| s != d).collect();
        stored.sort_unstable();
        stored.dedup();
        for algo_spec in figure_algorithms() {
            let algo = algo_spec.instantiate(&xgft, &pattern, seed);
            let compiled = CompiledRouteTable::compile(&xgft, algo.as_ref(), pairs.iter().copied());
            prop_assert_eq!(compiled.len(), stored.len());
            for s in 0..n {
                for d in 0..n {
                    if stored.binary_search(&(s, d)).is_ok() {
                        prop_assert_eq!(compiled.route(s, d), Some(algo.route(&xgft, s, d)));
                        prop_assert_eq!(
                            compiled.path(s, d),
                            Some(reference_path(&xgft, algo.as_ref(), s, d).as_slice())
                        );
                    } else {
                        prop_assert!(
                            compiled.path(s, d).is_none(),
                            "pair ({s},{d}) outside the compiled set must miss"
                        );
                        prop_assert!(compiled.route(s, d).is_none());
                    }
                }
            }
            prop_assert!(compiled.validate(&xgft).is_ok());
        }
    }
}
