//! Property tests of epoch-wise fault patching over fault/repair
//! *timelines* — the contract the chaos lab stands on: at every point of a
//! random timeline of overlapping incidents (each a fault set that starts
//! at one epoch and is repaired some epochs later), patching the
//! [`UndoableTable`] overlay with the epoch's cumulative fault set must
//! resolve every pair exactly like compiling from scratch against the same
//! degraded topology — over a [`CompiledRouteTable`] base and a
//! [`CompactRoutes`] base alike. Every patch reverts the previous one
//! first, so a shrinking fault set (a repair) heals its misses.

use proptest::prelude::*;
use xgft_core::{
    CompactRoutes, CompactScheme, CompiledRouteTable, DModK, PatchBase, RandomNcaDown, RandomNcaUp,
    RandomRouting, RouteSource, RoutingAlgorithm, SModK, UndoableTable,
};
use xgft_topo::{FaultSet, Xgft, XgftSpec};

/// Small two- and three-level specs with optional slimming (mirrors the
/// strategy of the degraded-patch property tests).
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

/// Pair for pair, misses and out-of-range leaves included: does the
/// overlay resolve exactly like `expected`?
fn resolves_like<B: PatchBase>(table: &UndoableTable<B>, expected: &CompiledRouteTable) -> bool {
    let n = expected.num_leaves();
    let mut scratch = Vec::new();
    table.len() == expected.len()
        && (0..=n)
            .all(|s| (0..=n).all(|d| table.path_in(s, d, &mut scratch) == expected.path(s, d)))
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

/// One incident of the timeline: a fault set drawn at `start`, repaired
/// (removed from the cumulative set) `duration` epochs later.
#[derive(Debug, Clone)]
struct Incident {
    start: usize,
    duration: usize,
    rate_percent: u32,
    seed: u64,
}

fn incidents(epochs: usize) -> impl Strategy<Value = Vec<Incident>> {
    prop::collection::vec(
        (0usize..epochs, 1usize..=3, 5u32..=40, 0u64..1000).prop_map(
            |(start, duration, rate_percent, seed)| Incident {
                start,
                duration,
                rate_percent,
                seed,
            },
        ),
        1..6,
    )
}

/// The cumulative fault set of `epoch`: the union of every incident active
/// at that instant. An incident started at `start` with `duration` d is
/// active during epochs `start .. start + d` (repair takes effect at the
/// epoch boundary).
fn cumulative(xgft: &Xgft, incidents: &[Incident], epoch: usize) -> FaultSet {
    let mut cum = FaultSet::none(xgft);
    for inc in incidents {
        if inc.start <= epoch && epoch < inc.start + inc.duration {
            cum.merge(&FaultSet::uniform_links(
                xgft,
                inc.rate_percent as f64 / 100.0,
                inc.seed,
            ));
        }
    }
    cum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At every epoch of a random fault/repair timeline the overlay over a
    /// compiled base and the overlay over the compact closed form both
    /// resolve like a from-scratch degraded compile of the epoch's
    /// cumulative fault set, with identical patch stats. The timeline
    /// includes shrinking transitions (repairs), which one-way patch
    /// chaining would get wrong by construction.
    #[test]
    fn epoch_wise_repatching_tracks_the_timeline_exactly(
        spec in small_spec(),
        scheme_idx in 0usize..5,
        seed in 0u64..1000,
        timeline in incidents(6),
    ) {
        let xgft = Xgft::new(spec).unwrap();
        let (closed_form, algo) = scheme(&xgft, scheme_idx, seed);
        let n = xgft.num_leaves();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .collect();

        let pristine = CompiledRouteTable::compile(&xgft, algo.as_ref(), pairs.iter().copied());
        let mut working = UndoableTable::new(&pristine);
        let mut compact = UndoableTable::new(CompactRoutes::for_pairs(
            &xgft,
            closed_form,
            pairs.iter().copied(),
        ));

        let epochs = timeline.iter().map(|i| i.start + i.duration).max().unwrap() + 1;
        let mut saw_shrink = false;
        let mut any_faults = false;
        let mut previous = 0usize;
        for epoch in 0..epochs {
            let faults = cumulative(&xgft, &timeline, epoch);
            saw_shrink |= faults.num_failed_channels() < previous;
            any_faults |= faults.num_failed_channels() > 0;
            previous = faults.num_failed_channels();

            let stats = working.patch(&xgft, &faults);
            let scratch = CompiledRouteTable::compile_degraded(
                &xgft,
                &faults,
                algo.as_ref(),
                pairs.iter().copied(),
            );
            prop_assert!(
                resolves_like(&working, &scratch),
                "epoch {}: compiled-base overlay and recompile diverged", epoch
            );
            prop_assert_eq!(
                pairs.len(),
                stats.untouched + stats.rerouted + stats.unroutable
            );

            let compact_stats = compact.patch(&xgft, &faults);
            prop_assert!(
                resolves_like(&compact, &scratch),
                "epoch {}: compact-base overlay and recompile diverged", epoch
            );
            prop_assert_eq!(compact_stats, stats);

            // Every surviving path avoids the epoch's dead channels.
            for (_, path) in scratch.iter_paths() {
                prop_assert!(path.iter().all(|&c| !faults.is_failed(c as usize)));
            }
        }
        // The last epoch is beyond every incident: full repair must restore
        // the pristine routes pair for pair.
        prop_assert!(cumulative(&xgft, &timeline, epochs - 1).is_empty());
        prop_assert!(resolves_like(&working, &pristine), "full repair must restore pristine routes");
        prop_assert_eq!(working.patched_pairs(), 0);
        // Whenever an incident actually failed a channel, its expiry must
        // have shrunk the cumulative set somewhere along the way (the final
        // epoch is beyond every incident), exercising the repair direction.
        prop_assert!(saw_shrink || !any_faults, "timelines with faults must exercise repair");
    }

    /// Deterministic spot check of the healing contract: cut a machine
    /// down to misses, then repair everything — the next patch heals the
    /// misses, over either base.
    #[test]
    fn repatch_heals_what_patch_must_not(
        k in 2usize..=5,
        scheme_idx in 0usize..5,
        seed in 0u64..100,
    ) {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(k, k).unwrap()).unwrap();
        let (closed_form, algo) = scheme(&xgft, scheme_idx, seed);
        let total = FaultSet::uniform_links(&xgft, 1.0, 1);
        let none = FaultSet::none(&xgft);

        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, algo.as_ref());
        let mut working = UndoableTable::new(&pristine);
        let cut = working.patch(&xgft, &total);
        prop_assert!(cut.unroutable > 0);
        prop_assert!(working.len() < pristine.len());

        // Patching the empty set: pair-identical to pristine.
        working.patch(&xgft, &none);
        prop_assert!(resolves_like(&working, &pristine));

        // Same healing contract for the compact base.
        let mut compact = UndoableTable::new(CompactRoutes::all_pairs(&xgft, closed_form));
        compact.patch(&xgft, &total);
        prop_assert!(compact.len() < pristine.len());
        compact.patch(&xgft, &none);
        prop_assert_eq!(compact.len(), pristine.len());
        prop_assert!(resolves_like(&compact, &pristine));
    }
}
