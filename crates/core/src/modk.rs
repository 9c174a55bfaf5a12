//! S-mod-k and D-mod-k self-routing (Sec. V of the paper).
//!
//! For k-ary n-trees the classic formulation chooses parent
//! `⌊x / k^(l-1)⌋ mod k` at the `l`-th switch hop, with `x` the source node
//! number (S-mod-k, the "self-routing" default of the original fat-tree
//! papers) or the destination number (D-mod-k, independently proposed in
//! several InfiniBand routing works).
//!
//! For general XGFTs the same idea uses the variable-radix label digits of
//! Table I: *the output port chosen at a level-`l` switch (the hop into
//! level `l+1`) is `X_l mod w_{l+1}`*, where `X_l` is the position-`l` digit
//! of the guiding label. The leaf-to-switch hop has `w_1` parents; `w_1 = 1`
//! in every (possibly slimmed) k-ary n-tree, so that hop involves no choice.
//!
//! S-mod-k gives every source a unique ascent (concentrating the source-side
//! endpoint contention onto links that must be shared anyway), D-mod-k gives
//! every destination a unique descent, and destinations that share a
//! first-level switch spread over the `w_2` roots through the `d mod w_2`
//! term — unless the application pattern is congruent with the modulo, the
//! CG.D-128 pathology of Sec. VII-A (Eq. 2). Sec. VII-B/C of the paper shows
//! the two schemes are combinatorially equivalent over permutations and
//! well-randomised general patterns.

use crate::algorithm::RoutingAlgorithm;
use crate::route_dist::RouteDistribution;
use crate::scheme::AlgorithmSpec;
use xgft_topo::{Route, Xgft};

/// Compute the mod-k up-port sequence guided by `guide_leaf`, climbing to
/// `level`.
pub(crate) fn mod_route(xgft: &Xgft, guide_leaf: usize, level: usize) -> Route {
    let spec = xgft.spec();
    let ports = (0..level)
        .map(|l| {
            if l == 0 {
                // The leaf's adapter hop: a single parent in every k-ary-like
                // tree; spread by the low digit if the leaf is multi-ported.
                if spec.w(1) == 1 {
                    0
                } else {
                    xgft.leaf_digit(guide_leaf, 1) % spec.w(1)
                }
            } else {
                xgft.leaf_digit(guide_leaf, l) % spec.w(l + 1)
            }
        })
        .collect();
    Route::new(ports)
}

/// Source-mod-k routing: the ascent is determined by the source label alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct SModK;

impl SModK {
    /// Create the algorithm (stateless).
    pub fn new() -> Self {
        SModK
    }
}

impl RoutingAlgorithm for SModK {
    fn name(&self) -> String {
        AlgorithmSpec::SModK.name().to_string()
    }

    fn route(&self, xgft: &Xgft, s: usize, d: usize) -> Route {
        mod_route(xgft, s, xgft.nca_level(s, d))
    }
}

/// Deterministic: the default point-mass route distribution is exact.
impl RouteDistribution for SModK {}

/// Destination-mod-k routing: the ascent (and hence the NCA) is determined
/// by the destination label alone, so the descent to each destination is
/// unique.
#[derive(Debug, Clone, Copy, Default)]
pub struct DModK;

impl DModK {
    /// Create the algorithm (stateless).
    pub fn new() -> Self {
        DModK
    }
}

impl RoutingAlgorithm for DModK {
    fn name(&self) -> String {
        AlgorithmSpec::DModK.name().to_string()
    }

    fn route(&self, xgft: &Xgft, s: usize, d: usize) -> Route {
        mod_route(xgft, d, xgft.nca_level(s, d))
    }
}

/// Deterministic: the default point-mass route distribution is exact.
impl RouteDistribution for DModK {}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_topo::XgftSpec;

    #[test]
    fn s_mod_k_matches_classic_formula_on_k_ary_n_tree() {
        // Paper formula: at the l-th switch hop, port = floor(s/k^(l-1)) mod k.
        // In XGFT terms the l-th switch hop is the ascent from level l to
        // level l+1, so route.up_port(l) = digit_l(s) for l >= 1.
        let xgft = Xgft::k_ary_n_tree(4, 3);
        let k = 4usize;
        let algo = SModK::new();
        for s in [0usize, 7, 33, 63] {
            for d in 0..xgft.num_leaves() {
                if s == d {
                    continue;
                }
                let route = algo.route(&xgft, s, d);
                assert_eq!(route.up_port(0), 0, "leaf hop has a single parent");
                for l in 1..route.nca_level() {
                    assert_eq!(
                        route.up_port(l),
                        (s / k.pow((l - 1) as u32)) % k,
                        "s={s} d={d} switch hop {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn d_mod_k_uses_destination_low_digits() {
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let algo = DModK::new();
        // d = 14 has digits (d1, d2) = (2, 3); the root is chosen by d1.
        let route = algo.route(&xgft, 1, 14);
        assert_eq!(route.up_ports(), &[0, 2]);
        // All sources use the same root for a given destination.
        for s in 0..16 {
            if xgft.nca_level(s, 14) == 2 {
                assert_eq!(algo.route(&xgft, s, 14).up_port(1), 2);
            }
        }
    }

    #[test]
    fn routes_are_always_valid() {
        let xgft = Xgft::new(XgftSpec::new(vec![4, 4, 4], vec![1, 3, 2]).unwrap()).unwrap();
        for algo in [&SModK::new() as &dyn RoutingAlgorithm, &DModK::new()] {
            for s in (0..xgft.num_leaves()).step_by(7) {
                for d in (0..xgft.num_leaves()).step_by(5) {
                    let route = algo.route(&xgft, s, d);
                    assert!(xgft.validate_route(s, d, &route).is_ok());
                }
            }
        }
    }

    #[test]
    fn s_mod_k_concentrates_source_ascent() {
        // Every source keeps exactly the same ascent regardless of the
        // destination (as long as the NCA level is the same).
        let xgft = Xgft::k_ary_n_tree(8, 2);
        let algo = SModK::new();
        let s = 13usize;
        let mut ascents = std::collections::HashSet::new();
        for d in 0..xgft.num_leaves() {
            if xgft.nca_level(s, d) == 2 {
                ascents.insert(algo.route(&xgft, s, d).up_ports().to_vec());
            }
        }
        assert_eq!(ascents.len(), 1);
    }

    #[test]
    fn d_mod_k_concentrates_destination_descent() {
        // Every destination is reached through exactly one NCA no matter the
        // source.
        let xgft = Xgft::k_ary_n_tree(8, 2);
        let algo = DModK::new();
        let d = 42usize;
        let mut ncas = std::collections::HashSet::new();
        for s in 0..xgft.num_leaves() {
            if xgft.nca_level(s, d) == 2 {
                let route = algo.route(&xgft, s, d);
                ncas.insert(xgft.nca_of_route(s, &route).unwrap());
            }
        }
        assert_eq!(ncas.len(), 1);
    }

    #[test]
    fn d_mod_k_spreads_switch_local_destinations_over_roots() {
        // The 16 destinations of one first-level switch map onto 16 distinct
        // roots in the full 16-ary 2-tree.
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 16).unwrap()).unwrap();
        let algo = DModK::new();
        let s = 200usize; // a source outside the first switch
        let roots: std::collections::HashSet<usize> = (0..16)
            .map(|d| algo.route(&xgft, s, d).up_port(1))
            .collect();
        assert_eq!(roots.len(), 16);
    }

    #[test]
    fn slimmed_tree_ports_respect_reduced_width() {
        // XGFT(2;16,16;1,10): the root chosen by D-mod-k is d_1 mod 10, so
        // destinations with digit 10..15 wrap onto roots 0..5 (the imbalance
        // discussed around Fig. 4(b)).
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 10).unwrap()).unwrap();
        let algo = DModK::new();
        for d in [0usize, 37, 170, 255] {
            for s in [1usize, 20, 100] {
                if xgft.nca_level(s, d) != 2 {
                    continue;
                }
                let route = algo.route(&xgft, s, d);
                assert_eq!(route.up_port(1), xgft.leaf_digit(d, 1) % 10);
                assert!(route.up_port(1) < 10);
            }
        }
    }

    #[test]
    fn cg_pathology_roots_collapse_to_two() {
        // The CG.D-128 fifth phase (Eq. 2): d = (s/2)*16 + (s mod 2) for the
        // sources of one switch; under D-mod-k the chosen root is d mod 16,
        // which can only be 0 or 1 — eight flows behind each of two up-links.
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 16).unwrap()).unwrap();
        let algo = DModK::new();
        let mut roots = std::collections::HashSet::new();
        for s in 0..16usize {
            let d = (s / 2) * 16 + (s % 2);
            if s == d {
                continue;
            }
            let route = algo.route(&xgft, s, d);
            roots.insert(route.up_port(1));
        }
        assert!(
            roots.len() <= 2,
            "D-mod-k must collapse onto <= 2 roots, got {roots:?}"
        );
        assert!(roots.is_subset(&[0usize, 1].into_iter().collect()));
    }

    #[test]
    fn s_and_d_mod_k_agree_on_symmetric_pair_swap() {
        // Routing (s, d) with S-mod-k chooses the same NCA as routing (d, s)
        // with D-mod-k — the inverse-pattern duality of Sec. VII-B.
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 5).unwrap()).unwrap();
        let s_algo = SModK::new();
        let d_algo = DModK::new();
        for s in 0..xgft.num_leaves() {
            for d in 0..xgft.num_leaves() {
                if s == d {
                    continue;
                }
                let r_s = s_algo.route(&xgft, s, d);
                let r_d = d_algo.route(&xgft, d, s);
                assert_eq!(r_s.up_ports(), r_d.up_ports(), "s={s} d={d}");
            }
        }
    }
}
