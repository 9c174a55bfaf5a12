//! Property tests of the fault-patch overlay: for randomized
//! (spec, scheme, pair set, fault set) tuples, an [`UndoableTable`] over a
//! pristine compiled table, patched with `faults`, must resolve every pair
//! exactly like compiling the same pairs from scratch against the degraded
//! topology — including pairs that lose every minimal route and become
//! typed misses — and every surviving path must avoid the dead channels.

use proptest::prelude::*;
use xgft_core::{
    CompiledRouteTable, DModK, RandomNcaDown, RandomNcaUp, RandomRouting, RoutingAlgorithm, SModK,
    UndoableTable,
};
use xgft_topo::{FaultSet, Xgft, XgftSpec};

/// Small two- and three-level specs with optional slimming (mirrors the
/// strategy of the flow-model property tests).
fn small_spec() -> impl Strategy<Value = XgftSpec> {
    prop_oneof![
        (2usize..=6, 1usize..=6)
            .prop_map(|(k, w2)| XgftSpec::new(vec![k, k], vec![1, w2.min(k)]).expect("valid")),
        (2usize..=4, 2usize..=4, 2usize..=3, 1usize..=3, 1usize..=3).prop_map(
            |(m1, m2, m3, w2, w3)| {
                XgftSpec::new(vec![m1, m2, m3], vec![1, w2, w3]).expect("valid")
            }
        ),
    ]
}

fn scheme(xgft: &Xgft, idx: usize, seed: u64) -> Box<dyn RoutingAlgorithm> {
    match idx % 5 {
        0 => Box::new(DModK::new()),
        1 => Box::new(SModK::new()),
        2 => Box::new(RandomRouting::new(seed)),
        3 => Box::new(RandomNcaUp::new(xgft, seed)),
        _ => Box::new(RandomNcaDown::new(xgft, seed)),
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

/// Pair for pair, misses and out-of-range leaves included: does the
/// overlay resolve exactly like `expected`?
fn resolves_like(
    table: &UndoableTable<&CompiledRouteTable>,
    expected: &CompiledRouteTable,
) -> bool {
    let n = expected.num_leaves();
    table.len() == expected.len()
        && (0..=n).all(|s| (0..=n).all(|d| table.path(s, d) == expected.path(s, d)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn patch_is_byte_identical_to_a_degraded_recompile(
        spec in small_spec(),
        scheme_idx in 0usize..5,
        seed in 0u64..1000,
        rate_percent in 0u32..=60,
        fault_seed in 0u64..1000,
        salt in 0usize..50,
    ) {
        let xgft = Xgft::new(spec).unwrap();
        let algo = scheme(&xgft, scheme_idx, seed);
        let pairs = pair_set(xgft.num_leaves(), salt);
        let faults = FaultSet::uniform_links(&xgft, rate_percent as f64 / 100.0, fault_seed);

        let pristine = CompiledRouteTable::compile(&xgft, algo.as_ref(), pairs.iter().copied());
        let mut patched = UndoableTable::new(&pristine);
        let before = patched.len();
        let stats = patched.patch(&xgft, &faults);
        let scratch = CompiledRouteTable::compile_degraded(
            &xgft,
            &faults,
            algo.as_ref(),
            pairs.iter().copied(),
        );
        prop_assert!(resolves_like(&patched, &scratch), "patch and recompile diverged");

        // Accounting: every pristine route is kept, rerouted or dropped.
        prop_assert_eq!(before, stats.untouched + stats.rerouted + stats.unroutable);
        prop_assert_eq!(patched.len(), before - stats.unroutable);
        prop_assert_eq!(patched.patched_pairs(), stats.rerouted + stats.unroutable);

        // Every surviving path is fully alive and still valid topology-wise.
        for (_, path) in scratch.iter_paths() {
            prop_assert!(path.iter().all(|&c| !faults.is_failed(c as usize)));
        }
        scratch.validate(&xgft).expect("patched tables stay decodable");
    }

    /// Wholesale destruction: at 100% switch-link failure every cross-switch
    /// pair must become a typed miss in *both* construction orders, and
    /// intra-switch pairs (which never climb past level 1 cables in a
    /// two-level tree) keep routing.
    #[test]
    fn total_cut_reduces_both_forms_to_the_same_misses(
        k in 2usize..=5,
        w2 in 1usize..=5,
        scheme_idx in 0usize..5,
        seed in 0u64..100,
    ) {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(k, w2.min(k)).unwrap()).unwrap();
        let algo = scheme(&xgft, scheme_idx, seed);
        let faults = FaultSet::uniform_links(&xgft, 1.0, 1);
        let pairs = pair_set(xgft.num_leaves(), 0);

        let pristine = CompiledRouteTable::compile(&xgft, algo.as_ref(), pairs.iter().copied());
        let mut patched = UndoableTable::new(&pristine);
        let stats = patched.patch(&xgft, &faults);
        let scratch = CompiledRouteTable::compile_degraded(
            &xgft,
            &faults,
            algo.as_ref(),
            pairs.iter().copied(),
        );
        prop_assert!(resolves_like(&patched, &scratch));
        prop_assert!(stats.unroutable > 0, "cross-switch pairs must be cut off");
        for (s, d) in pairs {
            if xgft.nca_level(s, d) >= 2 {
                prop_assert!(patched.path(s, d).is_none());
            } else {
                prop_assert!(patched.path(s, d).is_some());
            }
        }
    }
}
