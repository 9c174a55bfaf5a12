//! Pattern-aware NCA assignment ("Colored" baseline).
//!
//! The paper compares its oblivious schemes against the authors' earlier
//! pattern-aware routing (ICS'09, called *Colored*), which serves as the
//! best-achievable baseline for a network of the same cost. The exact
//! Colored algorithm lives in that other paper; here a greedy constructive
//! assignment followed by iterative refinement plays the same role:
//!
//! 1. flows are processed from the highest NCA level downwards (the flows
//!    with the fewest alternatives relative to their path length first),
//!    ties in ascending `(s, d)` order;
//! 2. each flow is assigned the NCA that minimises the *effective* maximum
//!    load along its path, where — as in the paper's contention metric —
//!    flows sharing the source do not add load on shared up channels and
//!    flows sharing the destination do not add load on shared down channels;
//!    ties go to the smaller sum of loads, then to the smaller NCA index;
//! 3. a configurable number of refinement passes re-seats every flow given
//!    the placement of all others, stopping early once a pass changes
//!    nothing.
//!
//! The result is a pattern-aware upper bound: for the full 16-ary 2-tree it
//! finds non-conflicting assignments for permutations (the rearrangeable
//! case), and for slimmed trees it spreads the unavoidable conflicts evenly,
//! which is exactly the role the Colored curve plays in Figs. 2 and 5.
//!
//! # State and cost
//!
//! A pair at NCA level `L` has `w_1⋯w_L` candidate NCAs. Candidate `i`'s
//! up-ports are the digits of `i` in mixed radix over `w_1…w_L` (the order
//! of `NcaSet::route_digits`), and its `2L` dense channels come from the
//! label arithmetic the compact closed forms use
//! ([`crate::compact`]'s `LevelTable::walk_channels`, with the level table
//! built once per build). So scoring a candidate costs `L` levels of
//! multiplications plus one load lookup per channel, and allocates nothing.
//!
//! While building, the effective loads live in the crate's one
//! effective-load counter, [`crate::contention`]'s `LoadTracker`: a dense
//! `u32` per channel (the number of distinct relevant endpoints: sources
//! on up channels, destinations on down channels), next to one flat map
//! from `channel << 32 | endpoint` to the number of seated flows with that
//! endpoint on that channel, so flows can be removed and re-seated. The
//! [`crate::ContentionReport`] of the built routes counts with the same
//! tracker.
//!
//! The built scheme keeps only its choices: the pattern's pairs as sorted
//! `s·n + d` codes and one `u32` NCA index per pair (12 bytes a pair), next
//! to the O(height) level table that decodes them.
//! [`RoutingAlgorithm::route`] binary-searches the codes and decodes the
//! index into its up-ports; a pair outside the pattern falls back to
//! d-mod-k.
//!
//! `crates/core/tests/colored_equivalence.rs` keeps a reference builder
//! that walks `Xgft::ncas` / `Xgft::route_path` and hash-map loads, and
//! pins this one to it, route for route, over random specs, sparse
//! patterns and pass counts.

use crate::algorithm::RoutingAlgorithm;
use crate::compact::{LevelTable, WalkLevel};
use crate::contention::LoadTracker;
use crate::divisor::Divisor;
use crate::modk::mod_route;
use crate::scheme::AlgorithmSpec;
use xgft_patterns::ConnectivityMatrix;
use xgft_topo::{Route, Xgft};

/// Colored's search over the shared effective-load counter.
impl LoadTracker {
    /// Seat (`add`) or unseat the flow `s → d` on NCA candidate `nca`.
    fn apply(&mut self, levels: &LevelTable, flow: Flow, nca: u32, add: bool) {
        let Flow { s, d, level, .. } = flow;
        levels.walk_channels(s, d, level, nca_ports(nca), |_, up, down| {
            if add {
                self.add(up, s);
                self.add(down, d);
            } else {
                self.remove(up, s);
                self.remove(down, d);
            }
        });
    }

    /// Score every candidate NCA of the flow and return the index with the
    /// lexicographically smallest (max load, sum of loads, index) cost.
    fn best(&self, levels: &LevelTable, flow: Flow) -> u32 {
        let Flow {
            s,
            d,
            level,
            candidates,
        } = flow;
        let mut best = (u32::MAX, u32::MAX, 0);
        for nca in 0..candidates {
            let (mut max, mut sum) = (0, 0);
            levels.walk_channels(s, d, level, nca_ports(nca), |_, up, down| {
                for load in [self.load_if_added(up, s), self.load_if_added(down, d)] {
                    max = max.max(load);
                    sum += load;
                }
            });
            // Candidates arrive in index order, so a tie keeps the first.
            if (max, sum) < (best.0, best.1) {
                best = (max, sum, nca);
            }
        }
        best.2
    }
}

/// One flow of the pattern with its NCA level and candidate count.
#[derive(Clone, Copy)]
struct Flow {
    s: usize,
    d: usize,
    level: usize,
    /// `w_1⋯w_level`: the NCAs at `level` that reach both endpoints.
    candidates: u32,
}

impl Flow {
    #[expect(clippy::expect_used, reason = "NCAs < channels, which fit u32")]
    fn new(xgft: &Xgft, levels: &LevelTable, s: usize, d: usize) -> Self {
        let level = levels.nca_level(s, d);
        let candidates = xgft.spec().ncas_at_level(level);
        Flow {
            s,
            d,
            level,
            candidates: u32::try_from(candidates).expect("NCA indices fit in u32"),
        }
    }
}

/// The port rule of NCA candidate `nca`: its digits in mixed radix over
/// `w_1…w_L`, least significant first.
fn nca_ports(nca: u32) -> impl FnMut(WalkLevel) -> usize {
    let mut rem = nca as usize;
    move |step| next_digit(&mut rem, step.w)
}

/// Pop the least significant radix-`w` digit off `rem`.
fn next_digit(rem: &mut usize, w: Divisor) -> usize {
    let digit = w.rem(*rem);
    *rem = w.div(*rem);
    digit
}

/// A pattern-aware routing: routes are chosen with full knowledge of the
/// communication pattern when the scheme is constructed.
#[derive(Debug, Clone)]
pub struct ColoredRouting {
    num_leaves: usize,
    /// The walk constants of the machine the scheme was built for.
    levels: LevelTable,
    /// The pattern's pairs as ascending `s·n + d` codes.
    pairs: Vec<u64>,
    /// The chosen NCA index of each pair in `pairs`.
    ncas: Vec<u32>,
    refinement_passes: usize,
}

impl ColoredRouting {
    /// Assign routes for every flow of `pattern` on `xgft` using the default
    /// number of refinement passes.
    pub fn new(xgft: &Xgft, pattern: &ConnectivityMatrix) -> Self {
        Self::with_passes(xgft, pattern, 2)
    }

    /// Assign routes with an explicit number of refinement passes.
    ///
    /// # Panics
    /// Panics if a flow of the pattern names a leaf outside `xgft`.
    pub fn with_passes(xgft: &Xgft, pattern: &ConnectivityMatrix, passes: usize) -> Self {
        xgft_obs::span!("core.colored");
        let channels = xgft.channels();
        let n = xgft.num_leaves();
        assert!(
            u32::try_from(n).is_ok() && u32::try_from(channels.len()).is_ok(),
            "colored routing keys channels and endpoints as u32"
        );
        let levels = LevelTable::new(channels);
        let mut flows: Vec<Flow> = pattern
            .network_flows()
            .map(|f| {
                let (s, d) = (f.src, f.dst);
                assert!(s < n && d < n, "flow ({s}, {d}) outside {n} leaves");
                Flow::new(xgft, &levels, s, d)
            })
            .collect();
        // Highest NCA level first, then deterministic order.
        flows.sort_by_key(|f| (std::cmp::Reverse(f.level), f.s, f.d));

        // Each flow seats at most two keys per level.
        let seats = flows.iter().map(|f| 2 * f.level).sum();
        let mut tracker = LoadTracker::new(channels.len(), seats);
        let mut scored = 0u64;
        // Greedy construction.
        let mut ncas: Vec<u32> = Vec::with_capacity(flows.len());
        for &flow in &flows {
            let nca = tracker.best(&levels, flow);
            tracker.apply(&levels, flow, nca, true);
            ncas.push(nca);
            scored += u64::from(flow.candidates);
        }

        // Refinement: re-seat every flow given the rest.
        for _ in 0..passes {
            let mut changed = false;
            for (&flow, seat) in flows.iter().zip(&mut ncas) {
                tracker.apply(&levels, flow, *seat, false);
                let best = tracker.best(&levels, flow);
                changed |= best != *seat;
                tracker.apply(&levels, flow, best, true);
                *seat = best;
                scored += u64::from(flow.candidates);
            }
            if !changed {
                break;
            }
        }
        xgft_obs::global()
            .counter("core.colored.candidates")
            .add(scored);

        let mut stored: Vec<(u64, u32)> = flows
            .iter()
            .zip(&ncas)
            .map(|(f, &nca)| ((f.s * n + f.d) as u64, nca))
            .collect();
        stored.sort_unstable();
        let (pairs, ncas) = stored.into_iter().unzip();
        ColoredRouting {
            num_leaves: n,
            levels,
            pairs,
            ncas,
            refinement_passes: passes,
        }
    }

    /// The number of refinement passes requested at construction.
    pub fn refinement_passes(&self) -> usize {
        self.refinement_passes
    }

    /// Number of flows the scheme has routes for.
    pub fn num_routes(&self) -> usize {
        self.pairs.len()
    }

    /// The stored NCA index of `(s, d)`, if the pair is in the pattern.
    fn nca_of(&self, s: usize, d: usize) -> Option<u32> {
        let n = self.num_leaves;
        if s >= n || d >= n {
            return None;
        }
        let at = self.pairs.binary_search(&((s * n + d) as u64)).ok()?;
        Some(self.ncas[at])
    }
}

impl RoutingAlgorithm for ColoredRouting {
    fn name(&self) -> String {
        AlgorithmSpec::Colored.name().to_string()
    }

    fn route(&self, xgft: &Xgft, s: usize, d: usize) -> Route {
        match self.nca_of(s, d) {
            Some(nca) => {
                let mut rem = nca as usize;
                Route::new(
                    (0..self.levels.nca_level(s, d))
                        .map(|l| next_digit(&mut rem, self.levels.w(l)))
                        .collect(),
                )
            }
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
    use crate::compiled::CompiledRouteTable;
    use crate::contention::ContentionReport;
    use crate::modk::DModK;
    use xgft_patterns::generators;
    use xgft_topo::XgftSpec;

    fn tree(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, w2).unwrap()).unwrap()
    }

    /// The contention level `C` of `pattern`'s flows routed by `algo`.
    fn contention(
        xgft: &Xgft,
        algo: &impl RoutingAlgorithm,
        pattern: &ConnectivityMatrix,
    ) -> usize {
        let flows = || pattern.network_flows().map(|f| (f.src, f.dst));
        let table = CompiledRouteTable::compile(xgft, algo, flows());
        ContentionReport::compute(xgft, &table, flows()).network_contention
    }

    #[test]
    fn routes_every_pattern_flow_and_is_valid() {
        let xgft = tree(8);
        let pattern = generators::wrf_mesh_exchange(16, 16, 1024)
            .unwrap()
            .combined();
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
        let cg = generators::cg_d(128, generators::CG_D_PHASE_BYTES).unwrap();
        let fifth = &cg.phases()[4];
        let colored = ColoredRouting::new(&xgft, fifth);
        assert_eq!(contention(&xgft, &colored, fifth), 1);
        assert!(contention(&xgft, &DModK::new(), fifth) >= 7);
    }

    #[test]
    fn slimmed_tree_contention_matches_capacity_lower_bound() {
        // With w2 middle switches, a cross-switch permutation of 16 flows per
        // switch cannot do better than ceil(16 / w2) flows per up channel.
        for w2 in [8usize, 4, 2] {
            let xgft = tree(w2);
            let shift = generators::shift(256, 16, 1);
            let phase = &shift.phases()[0];
            let colored = ColoredRouting::new(&xgft, phase);
            let c = contention(&xgft, &colored, phase);
            let bound = 16usize.div_ceil(w2);
            assert!(
                c >= bound,
                "w2={w2}: contention {c} below the capacity bound {bound}"
            );
            assert!(
                c <= bound + 1,
                "w2={w2}: colored should be near the bound, got {c}"
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
        let pattern = generators::cg_d(128, generators::CG_D_PHASE_BYTES)
            .unwrap()
            .combined();
        let greedy = ColoredRouting::with_passes(&xgft, &pattern, 0);
        let refined = ColoredRouting::with_passes(&xgft, &pattern, 3);
        assert!(contention(&xgft, &refined, &pattern) <= contention(&xgft, &greedy, &pattern));
        assert_eq!(refined.refinement_passes(), 3);
    }
}
