//! Property tests of the compact label-arithmetic representation: for
//! randomized (spec, scheme, pair set, fault set) tuples, [`CompactRoutes`]
//! must be byte-identical to [`CompiledRouteTable`] — same paths on the
//! pristine machine, same typed misses outside the domain, and the same
//! patched paths / unroutable pairs after a fault patch — while holding
//! near-zero route state for the closed-form schemes.

use proptest::prelude::*;
use xgft_core::{
    CompactRoutes, CompactScheme, CompiledRouteTable, DModK, RandomNcaDown, RandomNcaUp,
    RandomRouting, RoutingAlgorithm, SModK,
};
use xgft_topo::{FaultSet, Xgft, XgftSpec};

/// Small specs of heights 1 to 4: the two- and three-level slimmed shapes
/// of the degraded-patch property tests, plus single-level trees (possibly
/// with multi-ported leaves, `w_1 > 1`) and four-level trees whose levels
/// may be degenerate (`m_i = 1` or `w_i = 1`), which the closed form's
/// per-level walk must handle exactly like the tabled algorithms.
fn small_spec() -> impl Strategy<Value = XgftSpec> {
    prop_oneof![
        (2usize..=6, 1usize..=6)
            .prop_map(|(k, w2)| XgftSpec::new(vec![k, k], vec![1, w2.min(k)]).expect("valid")),
        (2usize..=4, 2usize..=4, 2usize..=3, 1usize..=3, 1usize..=3).prop_map(
            |(m1, m2, m3, w2, w3)| {
                XgftSpec::new(vec![m1, m2, m3], vec![1, w2, w3]).expect("valid")
            }
        ),
        (1usize..=8, 1usize..=3)
            .prop_map(|(m1, w1)| XgftSpec::new(vec![m1], vec![w1]).expect("valid")),
        (
            prop::collection::vec(1usize..=3, 4..=4),
            prop::collection::vec(1usize..=2, 4..=4),
        )
            .prop_map(|(m, w)| XgftSpec::new(m, w).expect("valid")),
    ]
}

/// The closed form and the tabled algorithm it must reproduce exactly.
fn scheme(xgft: &Xgft, idx: usize, seed: u64) -> (CompactScheme, Box<dyn RoutingAlgorithm>) {
    match idx % 5 {
        0 => (CompactScheme::DModK, Box::new(DModK::new())),
        1 => (CompactScheme::SModK, Box::new(SModK::new())),
        2 => (
            CompactScheme::Random { seed },
            Box::new(RandomRouting::new(seed)),
        ),
        3 => (
            CompactScheme::random_nca_up(xgft, seed),
            Box::new(RandomNcaUp::new(xgft, seed)),
        ),
        _ => (
            CompactScheme::random_nca_down(xgft, seed),
            Box::new(RandomNcaDown::new(xgft, seed)),
        ),
    }
}

/// Either all ordered pairs or a sparse pseudo-random pair set.
fn pair_set(n: usize, salt: usize) -> Vec<(usize, usize)> {
    if salt.is_multiple_of(2) {
        (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .collect()
    } else {
        (0..n)
            .map(|s| (s, (s * (salt % 7 + 2) + salt) % n))
            .filter(|&(s, d)| s != d)
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pristine equivalence over the whole pair space, plus the miss
    /// contract: pairs outside a sparse domain miss in the compact form
    /// exactly where the partial compiled table misses.
    #[test]
    fn compact_is_byte_identical_to_compiled(
        spec in small_spec(),
        scheme_idx in 0usize..5,
        seed in 0u64..1000,
        salt in 0usize..50,
    ) {
        let xgft = Xgft::new(spec).unwrap();
        let (closed_form, algo) = scheme(&xgft, scheme_idx, seed);
        let pairs = pair_set(xgft.num_leaves(), salt);

        let compact = CompactRoutes::for_pairs(&xgft, closed_form.clone(), pairs.iter().copied());
        let compiled = CompiledRouteTable::compile(&xgft, algo.as_ref(), pairs.iter().copied());
        prop_assert_eq!(&compact.to_compiled(&xgft), &compiled, "{}", algo.name());
        compact.validate(&xgft).expect("compact routes stay decodable");

        // Hit *and* miss behavior over every ordered pair, not just the
        // compiled domain: both forms must agree on what is routable.
        let n = xgft.num_leaves();
        let mut scratch = Vec::new();
        for s in 0..n {
            for d in 0..n {
                let hit = compact.path_into(s, d, &mut scratch);
                prop_assert_eq!(
                    hit.then_some(scratch.as_slice()),
                    compiled.path(s, d),
                    "{} ({s}, {d})",
                    algo.name()
                );
            }
        }

        // The memory story that motivates the representation: closed forms
        // carry no per-pair route state (only the domain codes and, for
        // r-NCA, the relabel maps), so a sparse domain costs O(pairs) u64s
        // rather than O(pairs × hops) u32s — and mod-k over all pairs is
        // literally free.
        if matches!(closed_form, CompactScheme::SModK | CompactScheme::DModK) {
            let free = CompactRoutes::all_pairs(&xgft, closed_form);
            prop_assert_eq!(free.storage_bytes(), 0);
        }
    }

    /// Degraded equivalence: patching the compact overlay must agree with
    /// patching the compiled table — same rerouted paths, same typed
    /// unroutable misses, same accounting — for any uniform fault draw.
    #[test]
    fn compact_patch_matches_compiled_patch(
        spec in small_spec(),
        scheme_idx in 0usize..5,
        seed in 0u64..1000,
        rate_percent in 0u32..=60,
        fault_seed in 0u64..1000,
        salt in 0usize..50,
    ) {
        let xgft = Xgft::new(spec).unwrap();
        let (closed_form, algo) = scheme(&xgft, scheme_idx, seed);
        let pairs = pair_set(xgft.num_leaves(), salt);
        let faults = FaultSet::uniform_links(&xgft, rate_percent as f64 / 100.0, fault_seed);

        let mut compact = CompactRoutes::for_pairs(&xgft, closed_form, pairs.iter().copied());
        let mut compiled =
            CompiledRouteTable::compile(&xgft, algo.as_ref(), pairs.iter().copied());
        let compact_stats = compact.patch(&xgft, &faults);
        let compiled_stats = compiled.patch(&xgft, &faults);
        prop_assert_eq!(compact_stats, compiled_stats, "{}", algo.name());
        prop_assert_eq!(&compact.to_compiled(&xgft), &compiled);
        compact.validate(&xgft).expect("patched compact routes stay decodable");

        // Unroutable pairs are typed misses in both forms; surviving paths
        // avoid every dead channel.
        let mut scratch = Vec::new();
        for &(s, d) in &pairs {
            let hit = compact.path_into(s, d, &mut scratch);
            prop_assert_eq!(hit.then_some(scratch.as_slice()), compiled.path(s, d));
            if hit {
                prop_assert!(scratch.iter().all(|&c| !faults.is_failed(c as usize)));
            }
        }
    }
}
