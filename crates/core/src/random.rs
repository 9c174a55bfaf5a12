//! Static random routing (Sec. V): a random NCA per (source, destination)
//! pair.
//!
//! This is the "fill the routing tables randomly" scheme used as the default
//! in Myrinet and InfiniBand-style interconnects. It is *static*: the route
//! of a pair is fixed once (here, a deterministic function of the seed and
//! the pair), not re-drawn per packet. Random routing balances routes over
//! the NCAs very well (Fig. 4) but does not concentrate endpoint contention,
//! so flows that already share an endpoint get spread over links where they
//! collide with unrelated flows (the WRF-256 behaviour of Fig. 2(a)).

use crate::algorithm::RoutingAlgorithm;
use crate::route_dist::{RouteDist, RouteDistribution};
use crate::scheme::AlgorithmSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xgft_topo::{Route, Xgft};

/// Static random NCA selection, reproducible from a seed.
#[derive(Debug, Clone, Copy)]
pub struct RandomRouting {
    seed: u64,
}

impl RandomRouting {
    /// Create the scheme with an explicit seed (each seed is one "routing
    /// table fill"; the paper's boxplots draw 40–60 seeds).
    pub fn new(seed: u64) -> Self {
        RandomRouting { seed }
    }

    /// The seed this instance was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A small per-pair generator: mixes the seed with the pair so each pair
    /// gets an independent, reproducible stream.
    fn pair_rng(&self, s: usize, d: usize) -> StdRng {
        pair_stream(self.seed, s, d)
    }
}

/// The per-pair random stream of [`RandomRouting`]: mixes the table seed
/// with the pair so each pair gets an independent, reproducible generator.
/// Shared with the closed-form [`crate::CompactRoutes`] engine, which must
/// reproduce the tabled draws exactly.
pub(crate) fn pair_stream(seed: u64, s: usize, d: usize) -> StdRng {
    // SplitMix64-style mixing of (seed, s, d).
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + s as u64))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(1 + d as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

impl Default for RandomRouting {
    fn default() -> Self {
        RandomRouting::new(0)
    }
}

impl RoutingAlgorithm for RandomRouting {
    fn name(&self) -> String {
        AlgorithmSpec::Random.name().to_string()
    }

    fn route(&self, xgft: &Xgft, s: usize, d: usize) -> Route {
        let level = xgft.nca_level(s, d);
        let mut rng = self.pair_rng(s, d);
        let spec = xgft.spec();
        let ports = (0..level)
            .map(|l| rng.gen_range(0..spec.w(l + 1)))
            .collect();
        Route::new(ports)
    }
}

impl RouteDistribution for RandomRouting {
    /// Closed form over the table-fill randomness: every port at every level
    /// is uniform and independent, so the route is uniform over all
    /// `Π w_{l+1}` minimal routes of the pair.
    fn route_dist(&self, xgft: &Xgft, s: usize, d: usize) -> RouteDist {
        RouteDist::uniform(xgft, xgft.nca_level(s, d))
    }

    fn pair_invariant_levels(&self, xgft: &Xgft) -> Option<Vec<Vec<f64>>> {
        let spec = xgft.spec();
        Some(
            (0..xgft.height())
                .map(|l| {
                    let w = spec.w(l + 1);
                    vec![1.0 / w as f64; w]
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use xgft_topo::XgftSpec;

    #[test]
    fn routes_are_deterministic_per_seed() {
        let xgft = Xgft::k_ary_n_tree(8, 2);
        let a = RandomRouting::new(11);
        let b = RandomRouting::new(11);
        let c = RandomRouting::new(12);
        let mut differs = false;
        for s in 0..xgft.num_leaves() {
            for d in 0..xgft.num_leaves() {
                assert_eq!(a.route(&xgft, s, d), b.route(&xgft, s, d));
                if a.route(&xgft, s, d) != c.route(&xgft, s, d) {
                    differs = true;
                }
            }
        }
        assert!(differs, "different seeds should give different tables");
    }

    #[test]
    fn routes_are_valid_on_slimmed_trees() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 7).unwrap()).unwrap();
        let algo = RandomRouting::new(3);
        for s in (0..256).step_by(11) {
            for d in (0..256).step_by(13) {
                let r = algo.route(&xgft, s, d);
                assert!(xgft.validate_route(s, d, &r).is_ok());
            }
        }
    }

    #[test]
    fn roots_are_roughly_balanced() {
        // Over all cross-switch pairs of the full 16-ary 2-tree the random
        // scheme should use every root a similar number of times.
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 16).unwrap()).unwrap();
        let algo = RandomRouting::new(1);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let mut total = 0usize;
        for s in 0..256 {
            for d in 0..256 {
                if xgft.nca_level(s, d) == 2 {
                    *counts
                        .entry(algo.route(&xgft, s, d).up_port(1))
                        .or_default() += 1;
                    total += 1;
                }
            }
        }
        assert_eq!(counts.len(), 16);
        let expected = total as f64 / 16.0;
        for (&root, &c) in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.10,
                "root {root} count {c} deviates {dev:.2} from {expected}"
            );
        }
    }

    #[test]
    fn different_pairs_get_independent_routes() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 16).unwrap()).unwrap();
        let algo = RandomRouting::default();
        // If pair mixing were broken, all pairs with the same source would
        // share a root; verify they do not.
        let roots: std::collections::HashSet<usize> = (16..256)
            .map(|d| algo.route(&xgft, 0, d).up_port(1))
            .collect();
        assert!(roots.len() > 8);
    }
}
