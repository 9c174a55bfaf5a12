//! Pattern-aware NCA assignment ("Colored" baseline).
//!
//! The paper compares its oblivious schemes against the authors' earlier
//! pattern-aware routing (ICS'09, called *Colored*), which serves as the
//! best-achievable baseline for a network of the same cost. The exact
//! Colored algorithm lives in that other paper; here a greedy constructive
//! assignment followed by iterative refinement plays the same role:
//!
//! 1. flows are processed from the highest NCA level downwards (the flows
//!    with the fewest alternatives relative to their path length first);
//! 2. each flow is assigned the NCA that minimises the *effective* maximum
//!    load along its path, where — as in the paper's contention metric —
//!    flows sharing the source do not add load on shared up channels and
//!    flows sharing the destination do not add load on shared down channels;
//! 3. a configurable number of refinement passes re-seats every flow given
//!    the placement of all others.
//!
//! The result is a pattern-aware upper bound: for the full 16-ary 2-tree it
//! finds non-conflicting assignments for permutations (the rearrangeable
//! case), and for slimmed trees it spreads the unavoidable conflicts evenly,
//! which is exactly the role the Colored curve plays in Figs. 2 and 5.

use crate::algorithm::RoutingAlgorithm;
use crate::modk::mod_route;
use std::collections::HashMap;
use xgft_patterns::ConnectivityMatrix;
use xgft_topo::{Direction, Route, Xgft};

/// Per-channel multiset of "relevant endpoints" (sources on up channels,
/// destinations on down channels), supporting add/remove so flows can be
/// re-seated during refinement.
#[derive(Debug, Clone)]
struct LoadTracker {
    /// For every dense channel index: endpoint -> number of flows with that
    /// endpoint currently crossing the channel.
    per_channel: Vec<HashMap<usize, usize>>,
}

impl LoadTracker {
    fn new(num_channels: usize) -> Self {
        LoadTracker {
            per_channel: vec![HashMap::new(); num_channels],
        }
    }

    fn effective_load(&self, channel: usize) -> usize {
        self.per_channel[channel].len()
    }

    /// The effective load the channel would have after adding a flow with
    /// the given endpoint.
    fn load_if_added(&self, channel: usize, endpoint: usize) -> usize {
        let map = &self.per_channel[channel];
        map.len() + usize::from(!map.contains_key(&endpoint))
    }

    fn add(&mut self, channel: usize, endpoint: usize) {
        *self.per_channel[channel].entry(endpoint).or_insert(0) += 1;
    }

    fn remove(&mut self, channel: usize, endpoint: usize) {
        if let Some(count) = self.per_channel[channel].get_mut(&endpoint) {
            *count -= 1;
            if *count == 0 {
                self.per_channel[channel].remove(&endpoint);
            }
        }
    }
}

/// A pattern-aware routing: routes are chosen with full knowledge of the
/// communication pattern when the scheme is constructed.
#[derive(Debug, Clone)]
pub struct ColoredRouting {
    routes: HashMap<(usize, usize), Route>,
    refinement_passes: usize,
}

impl ColoredRouting {
    /// Assign routes for every flow of `pattern` on `xgft` using the default
    /// number of refinement passes.
    pub fn new(xgft: &Xgft, pattern: &ConnectivityMatrix) -> Self {
        Self::with_passes(xgft, pattern, 2)
    }

    /// Assign routes with an explicit number of refinement passes.
    pub fn with_passes(xgft: &Xgft, pattern: &ConnectivityMatrix, passes: usize) -> Self {
        let mut flows: Vec<(usize, usize)> =
            pattern.network_flows().map(|f| (f.src, f.dst)).collect();
        // Highest NCA level first, then deterministic order.
        flows.sort_by_key(|&(s, d)| (std::cmp::Reverse(xgft.nca_level(s, d)), s, d));

        let channels = xgft.channels();
        let mut tracker = LoadTracker::new(channels.len());
        let mut routes: HashMap<(usize, usize), Route> = HashMap::new();

        // Greedy construction.
        for &(s, d) in &flows {
            let route = Self::best_route(xgft, &tracker, s, d);
            Self::apply(xgft, &mut tracker, s, d, &route, true);
            routes.insert((s, d), route);
        }

        // Refinement: re-seat every flow given the rest.
        for _ in 0..passes {
            let mut changed = false;
            for &(s, d) in &flows {
                let current = routes[&(s, d)].clone();
                Self::apply(xgft, &mut tracker, s, d, &current, false);
                let best = Self::best_route(xgft, &tracker, s, d);
                if best != current {
                    changed = true;
                }
                Self::apply(xgft, &mut tracker, s, d, &best, true);
                routes.insert((s, d), best);
            }
            if !changed {
                break;
            }
        }

        ColoredRouting {
            routes,
            refinement_passes: passes,
        }
    }

    /// The number of refinement passes requested at construction.
    pub fn refinement_passes(&self) -> usize {
        self.refinement_passes
    }

    /// Number of flows the scheme has routes for.
    pub fn num_routes(&self) -> usize {
        self.routes.len()
    }

    fn apply(xgft: &Xgft, tracker: &mut LoadTracker, s: usize, d: usize, route: &Route, add: bool) {
        let channels = xgft.channels();
        let path = xgft.route_path(s, d, route).expect("valid route");
        for hop in path {
            let idx = channels.index(&hop.channel);
            let endpoint = match hop.channel.dir {
                Direction::Up => s,
                Direction::Down => d,
            };
            if add {
                tracker.add(idx, endpoint);
            } else {
                tracker.remove(idx, endpoint);
            }
        }
    }

    /// Evaluate every candidate NCA of the pair and return the route with
    /// the lexicographically smallest (max load, sum of loads, index) cost.
    fn best_route(xgft: &Xgft, tracker: &LoadTracker, s: usize, d: usize) -> Route {
        let channels = xgft.channels();
        let ncas = xgft.ncas(s, d).expect("valid pair");
        let mut best: Option<(usize, usize, usize, Route)> = None;
        for i in 0..ncas.len() {
            let route = Route::new(ncas.route_digits(i).expect("in range"));
            let path = xgft.route_path(s, d, &route).expect("valid route");
            let mut max_load = 0usize;
            let mut sum_load = 0usize;
            for hop in &path {
                let idx = channels.index(&hop.channel);
                let endpoint = match hop.channel.dir {
                    Direction::Up => s,
                    Direction::Down => d,
                };
                let load = tracker.load_if_added(idx, endpoint);
                max_load = max_load.max(load);
                sum_load += load;
            }
            let candidate = (max_load, sum_load, i, route);
            let better = match &best {
                None => true,
                Some((bm, bs, bi, _)) => (candidate.0, candidate.1, candidate.2) < (*bm, *bs, *bi),
            };
            if better {
                best = Some(candidate);
            }
        }
        best.expect("at least one NCA exists for distinct leaves").3
    }

    /// The maximum effective load the stored assignment induces (useful for
    /// reporting the quality of the pattern-aware bound).
    pub fn max_effective_load(&self, xgft: &Xgft) -> usize {
        let channels = xgft.channels();
        let mut tracker = LoadTracker::new(channels.len());
        for (&(s, d), route) in &self.routes {
            Self::apply(xgft, &mut tracker, s, d, route, true);
        }
        (0..channels.len())
            .map(|c| tracker.effective_load(c))
            .max()
            .unwrap_or(0)
    }
}

impl RoutingAlgorithm for ColoredRouting {
    fn name(&self) -> String {
        "colored".to_string()
    }

    fn route(&self, xgft: &Xgft, s: usize, d: usize) -> Route {
        match self.routes.get(&(s, d)) {
            Some(route) => route.clone(),
            // Flows outside the pattern fall back to D-mod-k.
            None => mod_route(xgft, d, xgft.nca_level(s, d)),
        }
    }

    fn is_pattern_aware(&self) -> bool {
        true
    }
}

/// Deterministic once constructed: the default point-mass route
/// distribution is exact.
impl crate::route_dist::RouteDistribution for ColoredRouting {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::ContentionReport;
    use crate::modk::DModK;
    use xgft_patterns::generators;
    use xgft_topo::XgftSpec;

    fn tree(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, w2).unwrap()).unwrap()
    }

    #[test]
    fn routes_every_pattern_flow_and_is_valid() {
        let xgft = tree(8);
        let pattern = generators::wrf_256(1024).combined();
        let colored = ColoredRouting::new(&xgft, &pattern);
        assert_eq!(colored.num_routes(), pattern.network_flows().count());
        assert!(colored.is_pattern_aware());
        for f in pattern.network_flows() {
            let route = colored.route(&xgft, f.src, f.dst);
            assert!(xgft.validate_route(f.src, f.dst, &route).is_ok());
        }
    }

    #[test]
    fn resolves_cg_permutation_without_conflicts_on_full_tree() {
        // The full 16-ary 2-tree is rearrangeable: a pattern-aware scheme
        // must route the CG fifth-phase permutation with contention 1,
        // whereas D-mod-k suffers the Eq. (2) pathology.
        let xgft = tree(16);
        let cg = generators::cg_d_128();
        let fifth = &cg.phases()[4];
        let colored = ColoredRouting::new(&xgft, fifth);
        let flows: Vec<(usize, usize)> = fifth.network_flows().map(|f| (f.src, f.dst)).collect();
        let colored_report = ContentionReport::compute(&xgft, &colored, flows.iter().copied());
        assert_eq!(colored_report.network_contention, 1);

        let dmodk_report = ContentionReport::compute(&xgft, &DModK::new(), flows.iter().copied());
        assert!(dmodk_report.network_contention >= 7);
    }

    #[test]
    fn slimmed_tree_contention_matches_capacity_lower_bound() {
        // With w2 middle switches, a cross-switch permutation of 16 flows per
        // switch cannot do better than ceil(16 / w2) flows per up channel.
        for w2 in [8usize, 4, 2] {
            let xgft = tree(w2);
            let shift = generators::shift(256, 16, 1);
            let flows: Vec<(usize, usize)> = shift.phases()[0]
                .network_flows()
                .map(|f| (f.src, f.dst))
                .collect();
            let colored = ColoredRouting::new(&xgft, &shift.phases()[0]);
            let report = ContentionReport::compute(&xgft, &colored, flows.iter().copied());
            let bound = 16usize.div_ceil(w2);
            assert!(
                report.network_contention >= bound,
                "w2={w2}: contention {} below the capacity bound {bound}",
                report.network_contention
            );
            assert!(
                report.network_contention <= bound + 1,
                "w2={w2}: colored should be near the bound, got {}",
                report.network_contention
            );
        }
    }

    #[test]
    fn unknown_flows_fall_back_to_d_mod_k() {
        let xgft = tree(16);
        let mut pattern = xgft_patterns::ConnectivityMatrix::new(256);
        pattern.add_flow(0, 17, 100);
        let colored = ColoredRouting::new(&xgft, &pattern);
        let fallback = colored.route(&xgft, 5, 200);
        assert_eq!(fallback, DModK::new().route(&xgft, 5, 200));
        assert!(xgft.validate_route(5, 200, &fallback).is_ok());
    }

    #[test]
    fn refinement_never_hurts_the_objective() {
        let xgft = tree(4);
        let pattern = generators::cg_d_128().combined();
        let greedy = ColoredRouting::with_passes(&xgft, &pattern, 0);
        let refined = ColoredRouting::with_passes(&xgft, &pattern, 3);
        assert!(refined.max_effective_load(&xgft) <= greedy.max_effective_load(&xgft));
        assert_eq!(refined.refinement_passes(), 3);
    }
}
