//! Property tests of the compact label-arithmetic representation: for
//! randomized (spec, scheme, pair set, fault set) tuples, [`CompactRoutes`]
//! must be byte-identical to [`CompiledRouteTable`] — same paths on the
//! pristine machine, same typed misses outside the domain, and the same
//! patched paths / unroutable pairs when an [`UndoableTable`] patches
//! either base — while holding near-zero route state for the closed-form
//! schemes, even under a fault patch on a 65,536-leaf machine.

use proptest::prelude::*;
use xgft_core::{
    degraded_route, CompactRoutes, CompactScheme, CompiledRouteTable, ContentionReport, DModK,
    RandomNcaDown, RandomNcaUp, RandomRouting, RouteSource, RoutingAlgorithm, SModK, UndoableTable,
};
use xgft_topo::{DegradedXgft, FaultSet, Xgft, XgftSpec};

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

        // The contention level `C` reads the closed form without a table.
        let report = ContentionReport::compute(&xgft, &compact, pairs.iter().copied());
        prop_assert_eq!(report.unroutable, 0);
        prop_assert_eq!(
            report,
            ContentionReport::compute(&xgft, &compiled, pairs.iter().copied()),
            "{}",
            algo.name()
        );

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

    /// Degraded equivalence: the overlay over the compact closed form must
    /// agree with the overlay over the compiled table and with a degraded
    /// recompile — same rerouted paths, same typed unroutable misses, same
    /// accounting — for any uniform fault draw.
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

        let mut compact = UndoableTable::new(CompactRoutes::for_pairs(
            &xgft,
            closed_form,
            pairs.iter().copied(),
        ));
        let pristine = CompiledRouteTable::compile(&xgft, algo.as_ref(), pairs.iter().copied());
        let mut compiled = UndoableTable::new(&pristine);
        let compact_stats = compact.patch(&xgft, &faults);
        let compiled_stats = compiled.patch(&xgft, &faults);
        prop_assert_eq!(compact_stats, compiled_stats, "{}", algo.name());
        let degraded =
            CompiledRouteTable::compile_degraded(&xgft, &faults, algo.as_ref(), pairs.iter().copied());
        prop_assert_eq!(compact.len(), degraded.len());
        prop_assert_eq!(compiled.len(), degraded.len());

        // Unroutable pairs are typed misses in every form; surviving paths
        // avoid every dead channel.
        let mut scratch = Vec::new();
        let n = xgft.num_leaves();
        for (s, d) in (0..=n).flat_map(|s| (0..=n).map(move |d| (s, d))) {
            let path = compact.path_in(s, d, &mut scratch);
            prop_assert_eq!(path, compiled.path(s, d));
            prop_assert_eq!(path, degraded.path(s, d));
            if let Some(path) = path {
                prop_assert!(path.iter().all(|&c| !faults.is_failed(c as usize)));
            }
        }
    }
}

/// The overlay needs no per-pair index, so a compact base stays compact
/// under faults at scale: on a 65,536-leaf machine (where a dense `u32`
/// pair index alone would take 16 GiB), a shift pattern patched with a
/// top-level cut of half the cables resolves every pair exactly like the
/// fault-aware reference route (a miss where the reference has none) in
/// well under 64 MiB — and patching the empty set restores every pristine
/// closed form.
#[test]
fn compact_overlay_patches_a_65536_leaf_machine_sparsely() {
    let xgft = Xgft::k_ary_n_tree(16, 4);
    let n = xgft.num_leaves();
    assert_eq!(n, 65_536);
    // Shift by 16³: every pair's route climbs to the top level.
    let pairs: Vec<(usize, usize)> = xgft_patterns::generators::shift(n, 4096, 1)
        .combined()
        .network_flows()
        .map(|f| (f.src, f.dst))
        .collect();
    assert_eq!(pairs.len(), n);
    let cable_level = xgft.height() - 1;
    let cut = xgft.channels().cables_at_level(cable_level) / 2;
    let faults = FaultSet::targeted_level_cut(&xgft, cable_level, cut, 17);
    let degraded = DegradedXgft::new(&xgft, &faults).unwrap();

    for (closed_form, algo) in [
        (
            CompactScheme::DModK,
            Box::new(DModK::new()) as Box<dyn RoutingAlgorithm>,
        ),
        (
            CompactScheme::Random { seed: 3 },
            Box::new(RandomRouting::new(3)),
        ),
    ] {
        let compact = CompactRoutes::for_pairs(&xgft, closed_form, pairs.iter().copied());
        let mut table = UndoableTable::new(compact);
        let stats = table.patch(&xgft, &faults);
        assert!(stats.rerouted > 0, "{}", algo.name());
        assert_eq!(stats.untouched + stats.rerouted + stats.unroutable, n);
        assert_eq!(table.len(), n - stats.unroutable);
        assert!(
            table.storage_bytes() < 64 << 20,
            "{}: {} bytes of route state",
            algo.name(),
            table.storage_bytes()
        );

        let mut scratch = Vec::new();
        for &(s, d) in &pairs {
            let expected = degraded_route(&degraded, algo.as_ref(), s, d)
                .ok()
                .map(|route| xgft.route_channels(s, d, &route).unwrap());
            let got = table
                .path_in(s, d, &mut scratch)
                .map(|path| path.iter().map(|&c| c as usize).collect::<Vec<_>>());
            assert_eq!(got, expected, "{} ({s}, {d})", algo.name());
        }

        let stats = table.patch(&xgft, &FaultSet::none(&xgft));
        assert_eq!(stats.untouched, n);
        assert_eq!(table.patched_pairs(), 0);
        let mut pristine = Vec::new();
        for &(s, d) in &pairs {
            assert!(table.base().path_into(s, d, &mut pristine));
            assert_eq!(table.path_in(s, d, &mut scratch), Some(&pristine[..]));
        }
    }
}

/// Million-leaf spot check: on a 1,048,576-leaf two-level machine and a
/// 1,096,100-leaf three-level machine with odd radices, 4096 sampled pairs
/// per scheme route exactly like the tabled algorithm's route, expanded
/// hop by hop. The property tests above stop at a few hundred leaves, where
/// every radix is small and every leaf index tiny; this pins the
/// closed-form arithmetic where indices approach the million range. Pairs
/// share a subtree of every size, so every NCA level is exercised.
#[test]
fn closed_forms_match_tabled_routes_on_million_leaf_machines() {
    for spec in [
        XgftSpec::slimmed_two_level(1024, 4).expect("valid"),
        XgftSpec::new(vec![100, 97, 113], vec![1, 5, 7]).expect("valid"),
    ] {
        let xgft = Xgft::new(spec).expect("valid");
        let n = xgft.num_leaves();
        assert!(n > 1_000_000);
        // Leaves per subtree of each level: 1, m_1, m_1·m_2, …, n.
        let subtree: Vec<usize> = (0..=xgft.height())
            .map(|l| xgft.spec().m_vec()[..l].iter().product())
            .collect();
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        let pairs: Vec<(usize, usize)> = (0..4096)
            .map(|i| {
                let s = next() % n;
                // Redraw d inside s's subtree of level 1 + i mod height.
                let span = subtree[1 + i % xgft.height()];
                let d = s - s % span + next() % span;
                (s, if d == s { (s + 1) % n } else { d })
            })
            .collect();
        for idx in 0..5 {
            let (closed_form, algo) = scheme(&xgft, idx, 29);
            let compact = CompactRoutes::all_pairs(&xgft, closed_form);
            let mut path = Vec::new();
            for &(s, d) in &pairs {
                let expected = xgft
                    .route_channels(s, d, &algo.route(&xgft, s, d))
                    .expect("tabled route is valid");
                assert!(compact.path_into(s, d, &mut path), "({s}, {d})");
                assert!(
                    path.iter()
                        .map(|&c| c as usize)
                        .eq(expected.iter().copied()),
                    "{} on {:?}: ({s}, {d})",
                    algo.name(),
                    xgft.spec()
                );
            }
        }
    }
}
