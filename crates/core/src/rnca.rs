//! Random NCA Up / Random NCA Down — the oblivious routing family proposed
//! by the paper (Sec. VIII).
//!
//! Both algorithms apply the balanced random relabeling of
//! [`crate::RelabelMaps`] and then self-route on the new labels:
//!
//! * **r-NCA-u** guides the ascent with the *source* label (like S-mod-k it
//!   concentrates the source-side endpoint contention: a source always uses
//!   the same ascent towards any NCA level).
//! * **r-NCA-d** guides the ascent with the *destination* label (like
//!   D-mod-k every destination is served by a single NCA and a unique
//!   descent).
//!
//! Compared to the classic mod-k schemes the random balanced maps (i) spread
//! routes evenly over the NCAs even when the tree is slimmed (`w_{l+1}`
//! does not divide `m_l`), and (ii) break the regular congruence between an
//! application's pattern and the modulo function that produces pathologies
//! such as CG.D-128. Compared to Random routing they still concentrate
//! endpoint contention, so flows that share an endpoint share links that
//! cost them nothing extra.

use crate::algorithm::RoutingAlgorithm;
use crate::relabel::RelabelMaps;
use crate::route_dist::{RouteDist, RouteDistribution};
use crate::scheme::AlgorithmSpec;
use xgft_topo::{Route, Xgft};

/// The seed-marginal route distribution shared by r-NCA-u and r-NCA-d: the
/// leaf hop is deterministic (`digit_1(guide) mod w_1`, a single parent in
/// every k-ary-like tree), and by symmetry of the balanced-map construction
/// each switch-level port is uniform over `w_{l+1}` and independent across
/// levels.
fn rnca_marginal_dist(xgft: &Xgft, guide: usize, level: usize) -> RouteDist {
    let spec = xgft.spec();
    let levels = (0..level)
        .map(|l| {
            let w = spec.w(l + 1);
            if l == 0 {
                let mut dist = vec![0.0; w];
                let port = if w == 1 {
                    0
                } else {
                    xgft.leaf_digit(guide, 1) % w
                };
                dist[port] = 1.0;
                dist
            } else {
                vec![1.0 / w as f64; w]
            }
        })
        .collect();
    RouteDist::from_levels(levels)
}

/// Pair-invariant levels for the r-NCA family: available whenever the leaf
/// hop involves no choice (`w_1 = 1`); with multi-ported leaves the hop
/// depends on the guiding endpoint's label, so no shared form exists.
fn rnca_pair_invariant(xgft: &Xgft) -> Option<Vec<Vec<f64>>> {
    let spec = xgft.spec();
    if spec.w(1) != 1 {
        return None;
    }
    Some(
        (0..xgft.height())
            .map(|l| {
                if l == 0 {
                    vec![1.0]
                } else {
                    let w = spec.w(l + 1);
                    vec![1.0 / w as f64; w]
                }
            })
            .collect(),
    )
}

/// Random NCA Up: relabeled self-routing guided by the source.
#[derive(Debug, Clone)]
pub struct RandomNcaUp {
    maps: RelabelMaps,
}

impl RandomNcaUp {
    /// Draw a fresh relabeling for `xgft` from `seed`.
    pub fn new(xgft: &Xgft, seed: u64) -> Self {
        RandomNcaUp {
            maps: RelabelMaps::random(xgft, seed),
        }
    }

    /// Build from existing maps (shared with other schemes or the modulo
    /// degenerate case).
    pub fn with_maps(maps: RelabelMaps) -> Self {
        RandomNcaUp { maps }
    }

    /// The relabeling maps in use.
    pub fn maps(&self) -> &RelabelMaps {
        &self.maps
    }
}

impl RoutingAlgorithm for RandomNcaUp {
    fn name(&self) -> String {
        AlgorithmSpec::RandomNcaUp.name().to_string()
    }

    fn route(&self, xgft: &Xgft, s: usize, d: usize) -> Route {
        let level = xgft.nca_level(s, d);
        Route::new(self.maps.ports_to_level(xgft, s, level))
    }
}

impl RouteDistribution for RandomNcaUp {
    /// Marginalised over the balanced-map draw (the seed), *not* over the
    /// routes of this particular instance: seed-averaged experiments are the
    /// Monte Carlo estimator of exactly this distribution.
    fn route_dist(&self, xgft: &Xgft, s: usize, d: usize) -> RouteDist {
        rnca_marginal_dist(xgft, s, xgft.nca_level(s, d))
    }

    fn pair_invariant_levels(&self, xgft: &Xgft) -> Option<Vec<Vec<f64>>> {
        rnca_pair_invariant(xgft)
    }
}

/// Random NCA Down: relabeled self-routing guided by the destination.
#[derive(Debug, Clone)]
pub struct RandomNcaDown {
    maps: RelabelMaps,
}

impl RandomNcaDown {
    /// Draw a fresh relabeling for `xgft` from `seed`.
    pub fn new(xgft: &Xgft, seed: u64) -> Self {
        RandomNcaDown {
            maps: RelabelMaps::random(xgft, seed),
        }
    }

    /// Build from existing maps.
    pub fn with_maps(maps: RelabelMaps) -> Self {
        RandomNcaDown { maps }
    }

    /// The relabeling maps in use.
    pub fn maps(&self) -> &RelabelMaps {
        &self.maps
    }
}

impl RoutingAlgorithm for RandomNcaDown {
    fn name(&self) -> String {
        AlgorithmSpec::RandomNcaDown.name().to_string()
    }

    fn route(&self, xgft: &Xgft, s: usize, d: usize) -> Route {
        let level = xgft.nca_level(s, d);
        Route::new(self.maps.ports_to_level(xgft, d, level))
    }
}

impl RouteDistribution for RandomNcaDown {
    /// Marginalised over the balanced-map draw, guided by the destination
    /// (see [`RandomNcaUp`]'s impl for the semantics).
    fn route_dist(&self, xgft: &Xgft, s: usize, d: usize) -> RouteDist {
        rnca_marginal_dist(xgft, d, xgft.nca_level(s, d))
    }

    fn pair_invariant_levels(&self, xgft: &Xgft) -> Option<Vec<Vec<f64>>> {
        rnca_pair_invariant(xgft)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modk::{DModK, SModK};
    use crate::relabel::RelabelMaps;
    use std::collections::{HashMap, HashSet};
    use xgft_topo::XgftSpec;

    fn two_level(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, w2).unwrap()).unwrap()
    }

    #[test]
    fn routes_are_valid_on_full_and_slimmed_trees() {
        for w2 in [16usize, 10, 5, 1] {
            let xgft = two_level(w2);
            let up = RandomNcaUp::new(&xgft, 3);
            let down = RandomNcaDown::new(&xgft, 3);
            for s in (0..256).step_by(17) {
                for d in (0..256).step_by(13) {
                    let ru = up.route(&xgft, s, d);
                    let rd = down.route(&xgft, s, d);
                    assert!(xgft.validate_route(s, d, &ru).is_ok());
                    assert!(xgft.validate_route(s, d, &rd).is_ok());
                }
            }
        }
    }

    #[test]
    fn rnca_u_concentrates_source_ascent() {
        // Like S-mod-k, the ascent of a source is the same for every
        // destination at the same NCA level.
        let xgft = two_level(16);
        let up = RandomNcaUp::new(&xgft, 9);
        for s in [0usize, 100, 255] {
            let ascents: HashSet<Vec<usize>> = (0..256)
                .filter(|&d| xgft.nca_level(s, d) == 2)
                .map(|d| up.route(&xgft, s, d).up_ports().to_vec())
                .collect();
            assert_eq!(ascents.len(), 1, "source {s}");
        }
    }

    #[test]
    fn rnca_d_concentrates_destination_nca() {
        // Like D-mod-k, every destination is served by a single NCA.
        let xgft = two_level(16);
        let down = RandomNcaDown::new(&xgft, 9);
        for d in [3usize, 77, 201] {
            let ncas: HashSet<usize> = (0..256)
                .filter(|&s| xgft.nca_level(s, d) == 2)
                .map(|s| down.route(&xgft, s, d).up_port(1))
                .collect();
            assert_eq!(ncas.len(), 1, "destination {d}");
        }
    }

    #[test]
    fn degenerate_maps_reproduce_mod_k() {
        let xgft = Xgft::new(XgftSpec::new(vec![4, 4, 4], vec![1, 3, 2]).unwrap()).unwrap();
        let up = RandomNcaUp::with_maps(RelabelMaps::modulo(&xgft));
        let down = RandomNcaDown::with_maps(RelabelMaps::modulo(&xgft));
        let smod = SModK::new();
        let dmod = DModK::new();
        for s in (0..xgft.num_leaves()).step_by(3) {
            for d in (0..xgft.num_leaves()).step_by(5) {
                assert_eq!(up.route(&xgft, s, d), smod.route(&xgft, s, d));
                assert_eq!(down.route(&xgft, s, d), dmod.route(&xgft, s, d));
            }
        }
    }

    #[test]
    fn root_distribution_is_balanced_on_slimmed_tree() {
        // On XGFT(2;16,16;1,10) mod-k piles six extra digit values onto the
        // first six roots (Fig. 4(b)); the balanced maps avoid that: the
        // destinations of every switch spread 1-or-2 per root.
        let xgft = two_level(10);
        let down = RandomNcaDown::new(&xgft, 21);
        // Count how many destinations of switch 0 each root serves.
        let mut per_root: HashMap<usize, usize> = HashMap::new();
        for d in 0..16 {
            let root = down.route(&xgft, 200, d).up_port(1);
            *per_root.entry(root).or_default() += 1;
        }
        assert_eq!(per_root.values().sum::<usize>(), 16);
        assert_eq!(per_root.len(), 10, "all 10 roots must be used");
        assert!(per_root.values().all(|&c| c == 1 || c == 2));
    }

    #[test]
    fn breaks_cg_congruence() {
        // The CG fifth-phase destinations of one switch collapse onto <= 2
        // roots under D-mod-k; under r-NCA-d (for a typical seed) they spread
        // over many more roots.
        let xgft = two_level(16);
        let down = RandomNcaDown::new(&xgft, 4);
        let mut roots = HashSet::new();
        for s in 0..16usize {
            let d = (s / 2) * 16 + (s % 2);
            if s == d {
                continue;
            }
            roots.insert(down.route(&xgft, s, d).up_port(1));
        }
        assert!(
            roots.len() >= 5,
            "relabeling should break the modulo congruence, got {} roots",
            roots.len()
        );
    }

    #[test]
    fn different_seeds_differ_and_same_seed_agrees() {
        let xgft = two_level(16);
        let a = RandomNcaUp::new(&xgft, 1);
        let b = RandomNcaUp::new(&xgft, 1);
        let c = RandomNcaUp::new(&xgft, 2);
        let route_a: Vec<_> = (16..48).map(|d| a.route(&xgft, 0, d)).collect();
        let route_b: Vec<_> = (16..48).map(|d| b.route(&xgft, 0, d)).collect();
        let route_c: Vec<_> = (16..48).map(|d| c.route(&xgft, 0, d)).collect();
        assert_eq!(route_a, route_b);
        assert_ne!(route_a, route_c);
        assert_eq!(a.maps().seed(), 1);
    }
}
