//! Property tests of the compiled table's per-source index: for random
//! small XGFTs (heights 1 to 3, degenerate levels included) and random
//! pair lists — duplicates, self-pairs, empty first and last sources, the
//! empty set and all pairs — a [`CompiledRouteTable`] must resolve every
//! pair to the scheme's own channel path or to a typed miss, walk exactly
//! the sorted, deduplicated non-self pairs, hold exactly
//! `(n + 1) · 4 + routes · 8 + 4 + hops · 4` bytes, and not depend on the
//! order its pairs arrive in.

use proptest::prelude::*;
use std::collections::BTreeSet;
use xgft_core::{CompiledRouteTable, DModK, RandomRouting, RoutingAlgorithm, SModK};
use xgft_topo::{Xgft, XgftSpec};

/// Specs of heights 1 to 3 whose levels may be degenerate (`m_i = 1` or
/// `w_i = 1`), so machines with one leaf, one switch per level or one
/// parent per switch all occur.
fn small_spec() -> impl Strategy<Value = XgftSpec> {
    prop_oneof![
        (1usize..=8, 1usize..=3)
            .prop_map(|(m1, w1)| XgftSpec::new(vec![m1], vec![w1]).expect("valid")),
        (
            prop::collection::vec(1usize..=4, 2..=2),
            prop::collection::vec(1usize..=3, 2..=2),
        )
            .prop_map(|(m, w)| XgftSpec::new(m, w).expect("valid")),
        (
            prop::collection::vec(1usize..=3, 3..=3),
            prop::collection::vec(1usize..=2, 3..=3),
        )
            .prop_map(|(m, w)| XgftSpec::new(m, w).expect("valid")),
    ]
}

fn scheme(idx: usize, seed: u64) -> Box<dyn RoutingAlgorithm> {
    match idx % 3 {
        0 => Box::new(DModK::new()),
        1 => Box::new(SModK::new()),
        _ => Box::new(RandomRouting::new(seed)),
    }
}

/// A pair list over `n` leaves, in one of four shapes chosen by `shape`:
/// empty; all ordered pairs, self-pairs included; raw draws (self-pairs
/// and duplicates likely on small machines); or draws whose sources avoid
/// the first and the last leaf, so the first and last rows stay empty.
/// Every non-empty list repeats its first few entries.
fn pair_list(n: usize, shape: usize, raw: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = match shape % 4 {
        0 => Vec::new(),
        1 => (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect(),
        2 => raw.iter().map(|&(s, d)| (s % n, d % n)).collect(),
        _ if n <= 2 => Vec::new(),
        _ => raw.iter().map(|&(s, d)| (1 + s % (n - 2), d % n)).collect(),
    };
    let repeats: Vec<(usize, usize)> = pairs.iter().take(3).copied().collect();
    pairs.extend(repeats);
    pairs
}

/// A deterministic Fisher–Yates shuffle driven by a 64-bit LCG.
fn shuffled(pairs: &[(usize, usize)], mut state: u64) -> Vec<(usize, usize)> {
    let mut out = pairs.to_vec();
    for i in (1..out.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        out.swap(i, (state >> 33) as usize % (i + 1));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lookups, iteration order, length, byte size and order independence
    /// of one compiled pair list.
    #[test]
    fn index_resolves_exactly_the_stored_pairs(
        spec in small_spec(),
        algo_idx in 0usize..3,
        seed in 0u64..1_000,
        shape in 0usize..4,
        raw in prop::collection::vec((0usize..64, 0usize..64), 0..40),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let xgft = Xgft::new(spec).expect("valid spec");
        let n = xgft.num_leaves();
        let algo = scheme(algo_idx, seed);
        let pairs = pair_list(n, shape, &raw);
        let table = CompiledRouteTable::compile(&xgft, algo.as_ref(), pairs.iter().copied());

        let stored: BTreeSet<(usize, usize)> =
            pairs.iter().copied().filter(|&(s, d)| s != d).collect();
        let expected = |s: usize, d: usize| -> Option<Vec<u32>> {
            stored.contains(&(s, d)).then(|| {
                let route = algo.route(&xgft, s, d);
                xgft.route_channels(s, d, &route)
                    .expect("valid route")
                    .into_iter()
                    .map(|c| c as u32)
                    .collect()
            })
        };

        // Every pair in range, and one leaf past each end, resolves to the
        // scheme's path or to a miss.
        for s in 0..=n {
            for d in 0..=n {
                prop_assert_eq!(
                    table.path(s, d).map(<[u32]>::to_vec),
                    expected(s, d),
                    "pair ({}, {}) on {} leaves", s, d, n
                );
            }
        }

        // The walk yields exactly the sorted, deduplicated non-self pairs.
        let walked: Vec<(usize, usize)> = table.iter_paths().map(|(pair, _)| pair).collect();
        prop_assert_eq!(&walked, &stored.iter().copied().collect::<Vec<_>>());
        for ((s, d), path) in table.iter_paths() {
            prop_assert_eq!(Some(path.to_vec()), expected(s, d));
        }
        prop_assert_eq!(table.len(), stored.len());
        prop_assert_eq!(table.is_empty(), stored.is_empty());

        let hops: usize = table.iter_paths().map(|(_, path)| path.len()).sum();
        prop_assert_eq!(
            table.storage_bytes(),
            (n + 1) * 4 + table.len() * 8 + 4 + hops * 4
        );

        // Arrival order does not matter: a shuffled list and the sorted,
        // deduplicated one compile to equal tables.
        let reordered = CompiledRouteTable::compile(
            &xgft,
            algo.as_ref(),
            shuffled(&pairs, shuffle_seed),
        );
        let sorted = CompiledRouteTable::compile(&xgft, algo.as_ref(), stored.iter().copied());
        prop_assert!(reordered == sorted);
        prop_assert!(table == sorted);
        if shape % 4 == 1 {
            prop_assert!(table == CompiledRouteTable::compile_all_pairs(&xgft, algo.as_ref()));
        }
    }
}
