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
//! While building, the effective loads are a dense `u32` per channel (the
//! number of distinct relevant endpoints: sources on up channels,
//! destinations on down channels), next to one flat map from
//! `channel << 32 | endpoint` to the number of seated flows with that
//! endpoint on that channel, so flows can be removed and re-seated.
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
use crate::divisor::Divisor;
use crate::modk::mod_route;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use xgft_patterns::ConnectivityMatrix;
use xgft_topo::{Route, Xgft};

/// A one-multiply hasher for the tracker's `u64` keys: the key times an odd
/// constant, the 128-bit product folded to 64 bits so that both the low
/// bits (the bucket) and the high bits (the control tag) mix every key bit.
/// The keys are dense channel and leaf indices of the machine, so there is
/// no crafted input to defend against.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.0 ^ key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-channel multiset of "relevant endpoints" (sources on up channels,
/// destinations on down channels), supporting add/remove so flows can be
/// re-seated during refinement.
struct LoadTracker {
    /// Effective load of every dense channel: its distinct endpoints.
    loads: Vec<u32>,
    /// `channel << 32 | endpoint` -> number of seated flows with that
    /// endpoint crossing the channel (absent when zero).
    flows: HashMap<u64, u32, BuildHasherDefault<FoldHasher>>,
}

fn key(channel: u32, endpoint: usize) -> u64 {
    u64::from(channel) << 32 | endpoint as u64
}

impl LoadTracker {
    /// An empty tracker with room for `seats` (channel, endpoint) keys.
    fn new(num_channels: usize, seats: usize) -> Self {
        LoadTracker {
            loads: vec![0; num_channels],
            flows: HashMap::with_capacity_and_hasher(seats, Default::default()),
        }
    }

    /// The effective load the channel would have after adding a flow with
    /// the given endpoint.
    fn load_if_added(&self, channel: u32, endpoint: usize) -> u32 {
        match self.loads[channel as usize] {
            // An idle channel holds no endpoint: skip the map.
            0 => 1,
            load => load + u32::from(!self.flows.contains_key(&key(channel, endpoint))),
        }
    }

    fn add(&mut self, channel: u32, endpoint: usize) {
        let count = self.flows.entry(key(channel, endpoint)).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.loads[channel as usize] += 1;
        }
    }

    fn remove(&mut self, channel: u32, endpoint: usize) {
        let k = key(channel, endpoint);
        let count = self.flows.get_mut(&k).expect("removing a seated flow");
        *count -= 1;
        if *count == 0 {
            self.flows.remove(&k);
            self.loads[channel as usize] -= 1;
        }
    }

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

    /// The maximum effective load the stored assignment induces (useful for
    /// reporting the quality of the pattern-aware bound).
    pub fn max_effective_load(&self, xgft: &Xgft) -> usize {
        let n = self.num_leaves;
        let mut tracker = LoadTracker::new(xgft.channels().len(), 0);
        for (&code, &nca) in self.pairs.iter().zip(&self.ncas) {
            let flow = Flow::new(xgft, &self.levels, code as usize / n, code as usize % n);
            tracker.apply(&self.levels, flow, nca, true);
        }
        tracker.loads.iter().copied().max().unwrap_or(0) as usize
    }
}

impl RoutingAlgorithm for ColoredRouting {
    fn name(&self) -> String {
        "colored".to_string()
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
