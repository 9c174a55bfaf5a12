//! Property-based tests of the XGFT topology substrate.

use proptest::prelude::*;
use xgft_topo::{NodeLabel, Route, Xgft, XgftSpec};

/// Strategy producing small but varied XGFT specs (heights 1..=4, mixed
/// arities, possibly slimmed) so exhaustive per-pair checks stay fast.
fn small_spec() -> impl Strategy<Value = XgftSpec> {
    (1usize..=4)
        .prop_flat_map(|h| {
            let ms = prop::collection::vec(2usize..=4, h..=h);
            let ws = prop::collection::vec(1usize..=4, h..=h);
            (ms, ws)
        })
        .prop_map(|(ms, mut ws)| {
            // Keep w1 small so the leaf level is realistic (usually 1 adapter).
            ws[0] = 1;
            XgftSpec::new(ms, ws).expect("generated specs are valid")
        })
}

/// Like [`small_spec`], but any level may be degenerate: `m_i = 1` (a
/// single child) and multi-ported leaves (`w_1 > 1`) are allowed.
fn degenerate_spec() -> impl Strategy<Value = XgftSpec> {
    (1usize..=4)
        .prop_flat_map(|h| {
            let ms = prop::collection::vec(1usize..=4, h..=h);
            let ws = prop::collection::vec(1usize..=3, h..=h);
            (ms, ws)
        })
        .prop_map(|(ms, ws)| XgftSpec::new(ms, ws).expect("generated specs are valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat per-leaf digit store reads back exactly the level-0 labels,
    /// and the leaf count it implies is the spec's.
    #[test]
    fn leaf_digits_match_leaf_labels(spec in degenerate_spec()) {
        let x = Xgft::new(spec.clone()).unwrap();
        prop_assert_eq!(x.num_leaves(), spec.num_leaves());
        for leaf in 0..x.num_leaves() {
            let label = NodeLabel::from_index(&spec, 0, leaf).unwrap();
            prop_assert_eq!(x.leaf_digits(leaf), label.digits());
            for pos in 1..=spec.height() {
                prop_assert_eq!(x.leaf_digit(leaf, pos), label.digits()[pos - 1]);
            }
        }
    }

    /// Eq. (1): the per-level node counts sum to the inner-switch count, and
    /// up/down link counts agree across level boundaries.
    #[test]
    fn eq1_and_link_consistency(spec in small_spec()) {
        let total: usize = (1..=spec.height()).map(|l| spec.nodes_at_level(l)).sum();
        prop_assert_eq!(total, spec.inner_switches());
        for l in 1..=spec.height() {
            prop_assert_eq!(spec.down_links_at_level(l), spec.up_links_at_level(l - 1));
        }
    }

    /// Labels round-trip through their linear index at every level.
    #[test]
    fn labels_round_trip(spec in small_spec()) {
        for level in 0..=spec.height() {
            for idx in 0..spec.nodes_at_level(level) {
                let label = NodeLabel::from_index(&spec, level, idx).unwrap();
                prop_assert_eq!(label.to_index(&spec), idx);
            }
        }
    }

    /// The NCA level is symmetric, zero only on the diagonal, and never
    /// exceeds the height.
    #[test]
    fn nca_level_properties(spec in small_spec()) {
        let x = Xgft::new(spec).unwrap();
        let n = x.num_leaves();
        for s in 0..n {
            for d in 0..n {
                let l = x.nca_level(s, d);
                prop_assert_eq!(l, x.nca_level(d, s));
                prop_assert!(l <= x.height());
                prop_assert_eq!(l == 0, s == d);
            }
        }
    }

    /// Every enumerated NCA yields a valid route whose expanded path starts
    /// at the source, ends at the destination, alternates up then down, and
    /// passes through the NCA at its apex.
    #[test]
    fn every_nca_route_is_valid(spec in small_spec()) {
        let x = Xgft::new(spec).unwrap();
        let n = x.num_leaves();
        // Sample a subset of pairs to bound the cost on larger instances.
        let stride = (n / 8).max(1);
        for s in (0..n).step_by(stride) {
            for d in (0..n).step_by(stride) {
                if s == d { continue; }
                let ncas = x.ncas(s, d).unwrap();
                for i in 0..ncas.len() {
                    let route = Route::new(ncas.route_digits(i).unwrap());
                    prop_assert!(x.validate_route(s, d, &route).is_ok());
                    let path = x.route_path(s, d, &route).unwrap();
                    prop_assert_eq!(path.len(), 2 * route.nca_level());
                    prop_assert_eq!(path.first().unwrap().from.index, s);
                    prop_assert_eq!(path.last().unwrap().to.index, d);
                    let apex = &path[route.nca_level() - 1].to;
                    prop_assert_eq!(*apex, ncas.nth(i).unwrap());
                    // Hops are contiguous.
                    for w in path.windows(2) {
                        prop_assert_eq!(w[0].to, w[1].from);
                    }
                }
            }
        }
    }

    /// Dense channel indices of a path are unique (no hop reuses a channel).
    #[test]
    fn path_channels_unique(spec in small_spec()) {
        let x = Xgft::new(spec).unwrap();
        let n = x.num_leaves();
        let s = 0usize;
        for d in 1..n {
            let ncas = x.ncas(s, d).unwrap();
            let route = Route::new(ncas.route_digits(ncas.len() - 1).unwrap());
            let mut chans = x.route_channels(s, d, &route).unwrap();
            let before = chans.len();
            chans.sort_unstable();
            chans.dedup();
            prop_assert_eq!(chans.len(), before);
        }
    }
}
