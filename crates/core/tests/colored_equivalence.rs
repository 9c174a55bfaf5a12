//! Oracle property test of the Colored builder: [`ColoredRouting`] must
//! choose exactly what a straightforward reference builder chooses — the
//! same route for every pattern pair, the same `num_routes` and the same
//! contention level (the [`ContentionReport`] of its compiled pattern
//! routes) — and route pairs outside the pattern by d-mod-k.
//!
//! The reference below is the earlier builder, kept as the oracle: for
//! every candidate NCA it builds the `NcaSet`, the `Route` and the
//! `Vec<Hop>` of `Xgft::route_path`, and it keeps the effective loads as
//! one hash map of endpoint multiplicities per channel. It is slow and
//! obviously faithful to the definition; the library builder walks the
//! same candidates arithmetically over flat loads.
//!
//! Cases cover 1–3 level specs with multi-ported leaves (`w_1 > 1`),
//! slimmed upper levels and unequal `m_i`, random sparse patterns, and
//! 0–3 refinement passes. A failure names the spec, the pattern and the
//! pattern seed.

use proptest::prelude::*;
use std::collections::HashMap;
use xgft_core::{ColoredRouting, CompiledRouteTable, ContentionReport, DModK, RoutingAlgorithm};
use xgft_patterns::ConnectivityMatrix;
use xgft_topo::fault::splitmix64;
use xgft_topo::{Direction, Route, Xgft, XgftSpec};

/// The reference builder's per-channel endpoint multisets.
struct ReferenceLoads {
    per_channel: Vec<HashMap<usize, usize>>,
}

impl ReferenceLoads {
    fn new(num_channels: usize) -> Self {
        ReferenceLoads {
            per_channel: vec![HashMap::new(); num_channels],
        }
    }

    fn load_if_added(&self, channel: usize, endpoint: usize) -> usize {
        let map = &self.per_channel[channel];
        map.len() + usize::from(!map.contains_key(&endpoint))
    }

    fn apply(&mut self, xgft: &Xgft, s: usize, d: usize, route: &Route, add: bool) {
        for hop in xgft.route_path(s, d, route).expect("valid route") {
            let map = &mut self.per_channel[xgft.channels().index(&hop.channel)];
            let endpoint = match hop.channel.dir {
                Direction::Up => s,
                Direction::Down => d,
            };
            if add {
                *map.entry(endpoint).or_insert(0) += 1;
            } else if let Some(count) = map.get_mut(&endpoint) {
                *count -= 1;
                if *count == 0 {
                    map.remove(&endpoint);
                }
            }
        }
    }

    /// The candidate with the smallest (max load, sum of loads, index).
    fn best_route(&self, xgft: &Xgft, s: usize, d: usize) -> Route {
        let ncas = xgft.ncas(s, d).expect("valid pair");
        let mut best: Option<(usize, usize, usize, Route)> = None;
        for i in 0..ncas.len() {
            let route = Route::new(ncas.route_digits(i).expect("in range"));
            let (mut max_load, mut sum_load) = (0, 0);
            for hop in xgft.route_path(s, d, &route).expect("valid route") {
                let endpoint = match hop.channel.dir {
                    Direction::Up => s,
                    Direction::Down => d,
                };
                let load = self.load_if_added(xgft.channels().index(&hop.channel), endpoint);
                max_load = max_load.max(load);
                sum_load += load;
            }
            if best
                .as_ref()
                .is_none_or(|(bm, bs, bi, _)| (max_load, sum_load, i) < (*bm, *bs, *bi))
            {
                best = Some((max_load, sum_load, i, route));
            }
        }
        best.expect("at least one NCA exists for distinct leaves").3
    }
}

/// The reference assignment and its maximum effective load.
fn reference(
    xgft: &Xgft,
    pattern: &ConnectivityMatrix,
    passes: usize,
) -> (HashMap<(usize, usize), Route>, usize) {
    let mut flows: Vec<(usize, usize)> = pattern.network_flows().map(|f| (f.src, f.dst)).collect();
    flows.sort_by_key(|&(s, d)| (std::cmp::Reverse(xgft.nca_level(s, d)), s, d));
    let mut loads = ReferenceLoads::new(xgft.channels().len());
    let mut routes = HashMap::new();
    for &(s, d) in &flows {
        let route = loads.best_route(xgft, s, d);
        loads.apply(xgft, s, d, &route, true);
        routes.insert((s, d), route);
    }
    for _ in 0..passes {
        let mut changed = false;
        for &(s, d) in &flows {
            let current: Route = routes[&(s, d)].clone();
            loads.apply(xgft, s, d, &current, false);
            let best = loads.best_route(xgft, s, d);
            changed |= best != current;
            loads.apply(xgft, s, d, &best, true);
            routes.insert((s, d), best);
        }
        if !changed {
            break;
        }
    }
    let max_load = loads
        .per_channel
        .iter()
        .map(HashMap::len)
        .max()
        .unwrap_or(0);
    (routes, max_load)
}

/// Specs of 1–3 levels: multi-ported leaves, slimmed (`w_i < m_i`) or
/// full upper levels, and independent `m_i` — at most 64 leaves.
fn spec() -> impl Strategy<Value = XgftSpec> {
    (1usize..=3, 1usize..=3)
        .prop_flat_map(|(height, w1)| {
            let max_m = [8, 6, 4][height - 1];
            (
                prop::collection::vec(2usize..=max_m, height..=height),
                prop::collection::vec(1usize..=5, height..=height),
            )
                .prop_map(move |(m, mut w)| {
                    w[0] = w1;
                    for i in 1..w.len() {
                        w[i] = w[i].min(m[i]);
                    }
                    (m, w)
                })
        })
        .prop_map(|(m, w)| XgftSpec::new(m, w).expect("valid"))
}

/// A sparse pattern drawn from `seed`: about `density`‰ of the ordered
/// pairs, with byte counts that do not matter to the assignment.
fn pattern(n: usize, seed: u64, density: u64) -> ConnectivityMatrix {
    let mut matrix = ConnectivityMatrix::new(n);
    let mut state = seed;
    for s in 0..n {
        for d in 0..n {
            state = state.wrapping_add(1);
            if splitmix64(state) % 1000 < density {
                matrix.add_flow(s, d, 1 + splitmix64(state ^ 0xC0FFEE) % 4096);
            }
        }
    }
    matrix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn colored_matches_the_reference_builder(
        spec in spec(),
        seed in 0u64..u64::MAX,
        density in 5u64..=300,
        passes in 0usize..=3,
    ) {
        let xgft = Xgft::new(spec.clone()).expect("valid spec");
        let n = xgft.num_leaves();
        let pattern = pattern(n, seed, density);
        let flows: Vec<(usize, usize)> =
            pattern.network_flows().map(|f| (f.src, f.dst)).collect();
        let case = format!("spec {spec:?}, passes {passes}, pattern seed {seed} (density {density}‰): {flows:?}");

        let colored = ColoredRouting::with_passes(&xgft, &pattern, passes);
        let (routes, max_load) = reference(&xgft, &pattern, passes);
        prop_assert_eq!(colored.num_routes(), routes.len(), "{}", case);
        let table = CompiledRouteTable::compile(&xgft, &colored, flows.iter().copied());
        let report = ContentionReport::compute(&xgft, &table, flows.iter().copied());
        prop_assert_eq!(report.network_contention, max_load, "{}", case);
        prop_assert_eq!(colored.refinement_passes(), passes, "{}", case);
        let dmodk = DModK::new();
        for s in 0..n {
            for d in 0..n {
                let expected = match routes.get(&(s, d)) {
                    Some(route) => route.clone(),
                    None => dmodk.route(&xgft, s, d),
                };
                prop_assert_eq!(
                    colored.route(&xgft, s, d),
                    expected,
                    "pair ({}, {}) in pattern: {}; {}",
                    s,
                    d,
                    routes.contains_key(&(s, d)),
                    case
                );
            }
        }
    }
}
