//! Exact channel loads on a degraded topology.
//!
//! On a pristine XGFT the model computes expected loads from each scheme's
//! closed-form route *distribution*. Under faults the routes are whatever
//! the fault-aware fallback produced — a concrete, deterministic table —
//! so the exact per-channel loads come straight from the paths of the
//! patched routes (an `UndoableTable` overlay): every flow adds its weight
//! to each channel of its path, and flows whose pair has no surviving
//! route are reported as unroutable demand instead of being silently
//! ignored.
//!
//! Because the accumulation consumes any [`RouteSource`] — the flat
//! [`xgft_core::CompiledRouteTable`], the closed-form `CompactRoutes`
//! engine or a fault-patch overlay over either — the same function is
//! also the *per-instance* exact model on pristine topologies (a point
//! mass per pair), which is what the engine-agreement harness compares
//! against the simulators: for any fixed route representation the three
//! engines must agree channel by channel, faults or no faults. With the compact representation the accumulation needs no
//! per-pair storage at all, which is what pushes flow MCL sweeps past a
//! million leaves.

use crate::loads::ExpectedLoads;
use crate::traffic::TrafficMatrix;
use xgft_core::RouteSource;
use xgft_topo::Xgft;

/// Exact per-channel loads of a (possibly fault-patched) route source under
/// a traffic matrix, plus the demand the source could not route.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedLoads {
    loads: Vec<f64>,
    routed_demand: f64,
    unroutable: Vec<(usize, usize, f64)>,
}

impl DegradedLoads {
    /// Accumulate the loads of every flow of `traffic` over the paths of
    /// any route representation ([`xgft_core::CompiledRouteTable`],
    /// `CompactRoutes`, `UndoableTable`, …). Flows whose pair misses are recorded as unroutable (self-flows
    /// never enter the network and are skipped).
    ///
    /// # Panics
    /// Panics if the representation and topology disagree on the machine
    /// size, or the traffic matrix references leaves outside the machine.
    pub fn from_source<R: RouteSource>(xgft: &Xgft, table: &R, traffic: &TrafficMatrix) -> Self {
        Self::from_source_in(xgft, table, traffic, Vec::new())
    }

    /// [`DegradedLoads::from_source`], accumulating into `buffer` (cleared
    /// and sized to the channel count first). A caller that computes many
    /// loads hands the buffer back out with [`DegradedLoads::into_loads`]
    /// and reuses it, so the per-channel vector is allocated once, on the
    /// thread that owns it.
    ///
    /// # Panics
    /// As [`DegradedLoads::from_source`].
    pub fn from_source_in<R: RouteSource>(
        xgft: &Xgft,
        table: &R,
        traffic: &TrafficMatrix,
        buffer: Vec<f64>,
    ) -> Self {
        xgft_obs::span!("flow.loads");
        assert_eq!(
            table.num_leaves(),
            xgft.num_leaves(),
            "route table compiled for a different machine size"
        );
        assert_eq!(
            traffic.num_leaves(),
            xgft.num_leaves(),
            "traffic matrix and topology disagree on the number of leaves"
        );
        let mut loads = buffer;
        loads.clear();
        loads.resize(xgft.channels().len(), 0.0);
        let mut routed_demand = 0.0;
        let mut unroutable = Vec::new();
        let mut scratch = Vec::new();
        traffic.for_each_flow(|s, d, w| {
            if s == d {
                return;
            }
            match table.path_in(s, d, &mut scratch) {
                Some(path) => {
                    for &c in path {
                        loads[c as usize] += w;
                    }
                    routed_demand += w;
                }
                None => unroutable.push((s, d, w)),
            }
        });
        DegradedLoads {
            loads,
            routed_demand,
            unroutable,
        }
    }

    /// The dense per-channel loads.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// The per-channel loads by value, to reuse as the buffer of the next
    /// [`DegradedLoads::from_source_in`].
    pub fn into_loads(self) -> Vec<f64> {
        self.loads
    }

    /// Maximum channel load over all channels.
    pub fn mcl(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum channel load restricted to switch-to-switch channels
    /// (levels ≥ 1) — the routing-sensitive part of the MCL; level-0
    /// channels carry the same load under every minimal scheme.
    pub fn network_mcl(&self, xgft: &Xgft) -> f64 {
        let mut max = 0.0f64;
        for level in 1..xgft.height() {
            for idx in xgft.channels().level_range(level) {
                max = max.max(self.loads[idx]);
            }
        }
        max
    }

    /// Demand (weight) actually placed on the network.
    pub fn routed_demand(&self) -> f64 {
        self.routed_demand
    }

    /// Demand whose pair has no surviving route.
    pub fn unroutable_demand(&self) -> f64 {
        self.unroutable.iter().map(|&(_, _, w)| w).sum()
    }

    /// The unroutable flows, in traffic-matrix order.
    pub fn unroutable(&self) -> &[(usize, usize, f64)] {
        &self.unroutable
    }

    /// True when every flow of the traffic matrix found a route.
    pub fn is_fully_routed(&self) -> bool {
        self.unroutable.is_empty()
    }

    /// Consistency bridge: on a table that stores a route for every flow,
    /// the exact loads must match the distribution-based model's loads for
    /// the same deterministic scheme. Exposed for tests.
    pub fn matches_expected(&self, expected: &ExpectedLoads, tolerance: f64) -> bool {
        self.loads
            .iter()
            .zip(expected.loads())
            .all(|(a, b)| (a - b).abs() <= tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_core::{CompiledRouteTable, DModK, RandomRouting, UndoableTable};
    use xgft_topo::{FaultSet, Xgft, XgftSpec};

    fn two_level(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(4, w2).unwrap()).unwrap()
    }

    #[test]
    fn pristine_table_loads_match_the_distribution_model() {
        let xgft = two_level(3);
        let table = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        let traffic = TrafficMatrix::uniform(16);
        let exact = DegradedLoads::from_source(&xgft, &table, &traffic);
        let model = crate::loads::ExpectedLoads::compute(&xgft, &DModK::new(), &traffic);
        assert!(exact.matches_expected(&model, 1e-9));
        assert!(exact.is_fully_routed());
        assert!((exact.mcl() - model.mcl()).abs() < 1e-9);
        assert_eq!(exact.unroutable_demand(), 0.0);
        assert!((exact.routed_demand() - 16.0 * 15.0).abs() < 1e-9);
    }

    #[test]
    fn patched_table_loads_avoid_dead_channels_and_conserve_demand() {
        let xgft = two_level(4);
        let pristine = CompiledRouteTable::compile_all_pairs(&xgft, &RandomRouting::new(3));
        let mut table = UndoableTable::new(&pristine);
        let faults = FaultSet::uniform_links(&xgft, 0.25, 9);
        table.patch(&xgft, &faults);
        let traffic = TrafficMatrix::uniform(16);
        let loads = DegradedLoads::from_source(&xgft, &table, &traffic);
        // No load ever lands on a dead channel.
        for dense in faults.iter_failed() {
            assert_eq!(loads.loads()[dense], 0.0, "dead channel {dense} loaded");
        }
        // Every unit of routed demand occupies 2 * nca_level channels.
        let expected_total: f64 = (0..16)
            .flat_map(|s| (0..16).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d && table.path(s, d).is_some())
            .map(|(s, d)| 2.0 * xgft.nca_level(s, d) as f64)
            .sum();
        let total: f64 = loads.loads().iter().sum();
        assert!((total - expected_total).abs() < 1e-9);
        assert!(
            (loads.routed_demand() + loads.unroutable_demand() - 16.0 * 15.0).abs() < 1e-9,
            "routed + unroutable must cover all demand"
        );
    }

    #[test]
    fn unroutable_flows_are_reported_not_dropped_silently() {
        // Cut both up cables of switch 0 in a w2 = 2 tree: its leaves lose
        // every cross-switch partner.
        let xgft = two_level(2);
        let mut faults = FaultSet::none(&xgft);
        faults.fail_cable(xgft.channels(), 1, 0, 0);
        faults.fail_cable(xgft.channels(), 1, 0, 1);
        let mut table =
            UndoableTable::new(CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new()));
        table.patch(&xgft, &faults);
        let traffic = TrafficMatrix::uniform(16);
        let loads = DegradedLoads::from_source(&xgft, &table, &traffic);
        assert!(!loads.is_fully_routed());
        // Leaves 0..4 each lose 12 cross-switch partners, both directions.
        assert_eq!(loads.unroutable().len(), 2 * 4 * 12);
        assert!(loads
            .unroutable()
            .iter()
            .all(|&(s, d, _)| (s < 4) ^ (d < 4)));
        assert!(loads.mcl() > 0.0);
    }

    #[test]
    fn compact_source_produces_identical_loads_to_compiled() {
        use xgft_core::{CompactRoutes, CompactScheme};
        let xgft = two_level(3);
        let traffic = TrafficMatrix::uniform(16);
        let compiled = CompiledRouteTable::compile_all_pairs(&xgft, &RandomRouting::new(11));
        let compact = CompactRoutes::all_pairs(&xgft, CompactScheme::Random { seed: 11 });
        let a = DegradedLoads::from_source(&xgft, &compiled, &traffic);
        let b = DegradedLoads::from_source(&xgft, &compact, &traffic);
        assert_eq!(a, b);
        assert_eq!(a.network_mcl(&xgft), b.network_mcl(&xgft));
        assert!(a.network_mcl(&xgft) <= a.mcl());
        assert!(a.network_mcl(&xgft) > 0.0);
    }

    #[test]
    #[should_panic(expected = "machine size")]
    fn mismatched_table_is_rejected() {
        let xgft = two_level(2);
        let other = Xgft::k_ary_n_tree(2, 2);
        let table = CompiledRouteTable::compile_all_pairs(&other, &DModK::new());
        let _ = DegradedLoads::from_source(&xgft, &table, &TrafficMatrix::uniform(16));
    }
}
