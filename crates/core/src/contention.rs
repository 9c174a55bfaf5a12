//! Contention metrics (Sec. IV and VII of the paper).
//!
//! The paper distinguishes *endpoint contention* — flows produced by or
//! consumed at the same node, which no routing scheme can remove — from
//! *routing (network) contention* — flows from different sources to
//! different destinations competing for a switch port. Its analysis
//! (and the authors' earlier ICS'09 metric) observes that flows sharing an
//! endpoint can share links on the corresponding side of the tree *without
//! further loss*, because they are serialized at the edge of the network
//! anyway.
//!
//! This module therefore reports two load figures per directed channel:
//!
//! * **raw load** — the number of flows whose route traverses the channel;
//! * **effective load** — the number of *distinct sources* (for up channels)
//!   or *distinct destinations* (for down channels) among those flows.
//!
//! Injection and ejection channels automatically get an effective load of 1,
//! so the maximum effective load over all channels is exactly the paper's
//! "network contention not accounting for endpoint contention", and the
//! contention level `C` of a routed pattern (Sec. VII-B) is that maximum.
//! One counter, `LoadTracker`, keeps them for this report and for Colored.

use crate::source::RouteSource;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use xgft_topo::{Direction, Xgft};

/// A one-multiply hasher for the tracker's `u64` keys: the key times an odd
/// constant, the 128-bit product folded to 64 bits so that both the low
/// bits (the bucket) and the high bits (the control tag) mix every key bit.
/// The keys are dense channel and leaf indices of the machine, so there is
/// no crafted input to defend against.
#[derive(Default)]
pub(crate) struct FoldHasher(u64);

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
pub(crate) struct LoadTracker {
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
    pub(crate) fn new(num_channels: usize, seats: usize) -> Self {
        LoadTracker {
            loads: vec![0; num_channels],
            flows: HashMap::with_capacity_and_hasher(seats, Default::default()),
        }
    }

    /// The effective load the channel would have after adding a flow with
    /// the given endpoint.
    pub(crate) fn load_if_added(&self, channel: u32, endpoint: usize) -> u32 {
        match self.loads[channel as usize] {
            // An idle channel holds no endpoint: skip the map.
            0 => 1,
            load => load + u32::from(!self.flows.contains_key(&key(channel, endpoint))),
        }
    }

    pub(crate) fn add(&mut self, channel: u32, endpoint: usize) {
        let count = self.flows.entry(key(channel, endpoint)).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.loads[channel as usize] += 1;
        }
    }

    #[expect(clippy::expect_used, reason = "only a seated flow is removed")]
    pub(crate) fn remove(&mut self, channel: u32, endpoint: usize) {
        let k = key(channel, endpoint);
        let count = self.flows.get_mut(&k).expect("removing a seated flow");
        *count -= 1;
        if *count == 0 {
            self.flows.remove(&k);
            self.loads[channel as usize] -= 1;
        }
    }
}

/// A summary of the contention a routed pattern experiences.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Name of the routing algorithm.
    pub algorithm: String,
    /// Maximum flows on any directed channel.
    pub max_raw_load: usize,
    /// The contention level `C`: maximum effective load on any channel.
    pub network_contention: usize,
    /// Maximum effective load restricted to up channels.
    pub max_up_contention: usize,
    /// Maximum effective load restricted to down channels.
    pub max_down_contention: usize,
    /// Number of channels used by at least one flow.
    pub used_channels: usize,
    /// Total number of directed channels in the topology.
    pub total_channels: usize,
    /// Flows the source has no path for (an out-of-range leaf, a pair
    /// outside its routed set, or a pair a fault patch left unroutable).
    /// They load no channel.
    pub unroutable: usize,
}

impl ContentionReport {
    /// Build a report for a set of flows routed by `source`, whose paths
    /// index `xgft`'s dense channels. Self-pairs are skipped.
    pub fn compute(
        xgft: &Xgft,
        source: &impl RouteSource,
        flows: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let channels = xgft.channels();
        let mut raw = vec![0usize; channels.len()];
        let mut tracker = LoadTracker::new(channels.len(), 0);
        let mut unroutable = 0;
        let mut scratch = Vec::new();
        for (s, d) in flows {
            if s == d {
                continue;
            }
            let Some(path) = source.path_in(s, d, &mut scratch) else {
                unroutable += 1;
                continue;
            };
            // A minimal path climbs to its NCA and descends as many levels:
            // the first half is up channels, the second half down channels.
            let (up, down) = path.split_at(path.len() / 2);
            for (hops, endpoint) in [(up, s), (down, d)] {
                for &channel in hops {
                    raw[channel as usize] += 1;
                    tracker.add(channel, endpoint);
                }
            }
        }
        let mut max_up = 0;
        let mut max_down = 0;
        for (idx, &load) in tracker.loads.iter().enumerate() {
            let load = load as usize;
            match channels.channel(idx).dir {
                Direction::Up => max_up = max_up.max(load),
                Direction::Down => max_down = max_down.max(load),
            }
        }
        ContentionReport {
            algorithm: source.algorithm().to_string(),
            max_raw_load: raw.iter().copied().max().unwrap_or(0),
            network_contention: max_up.max(max_down),
            max_up_contention: max_up,
            max_down_contention: max_down,
            used_channels: raw.iter().filter(|&&load| load > 0).count(),
            total_channels: channels.len(),
            unroutable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::RoutingAlgorithm;
    use crate::compiled::CompiledRouteTable;
    use crate::modk::{DModK, SModK};
    use crate::overlay::UndoableTable;
    use crate::random::RandomRouting;
    use xgft_topo::XgftSpec;

    fn full_16() -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, 16).unwrap()).unwrap()
    }

    /// The report over the compiled table of `flows` under `algo`.
    fn report(
        xgft: &Xgft,
        algo: &impl RoutingAlgorithm,
        flows: &[(usize, usize)],
    ) -> ContentionReport {
        let table = CompiledRouteTable::compile(xgft, algo, flows.iter().copied());
        ContentionReport::compute(xgft, &table, flows.iter().copied())
    }

    #[test]
    fn permutation_on_full_tree_with_d_mod_k_has_unit_contention() {
        // A cyclic shift by 16 sends each switch's 16 sources to 16 distinct
        // destinations of the next switch; D-mod-k assigns them 16 distinct
        // roots, so no channel carries more than one flow.
        let xgft = full_16();
        let flows: Vec<(usize, usize)> = (0..256).map(|s| (s, (s + 16) % 256)).collect();
        let report = report(&xgft, &DModK::new(), &flows);
        assert_eq!(report.max_raw_load, 1);
        assert_eq!(report.network_contention, 1);
        assert_eq!(report.unroutable, 0);
    }

    #[test]
    fn cg_fifth_phase_under_d_mod_k_is_heavily_contended() {
        // Eq. (2): the fifth CG phase collapses onto two roots per switch
        // under D-mod-k, so eight flows share a single up channel.
        let xgft = full_16();
        let flows: Vec<(usize, usize)> = (0..128usize)
            .map(|s| (s, xgft_patterns::generators::cg_transpose_partner(s, 128)))
            .filter(|&(s, d)| s != d)
            .collect();
        let report = report(&xgft, &DModK::new(), &flows);
        // Eight sources per switch share a root; one of them may be a fixed
        // point of the permutation, so at least seven flows pile up on one
        // up channel.
        assert!(
            report.network_contention >= 7,
            "expected the pathological contention, got {}",
            report.network_contention
        );
    }

    #[test]
    fn endpoint_contention_is_not_counted_as_network_contention() {
        // One source fans out to 8 destinations in other switches: S-mod-k
        // sends all of them up the same links, but the effective (network)
        // contention stays 1 because they share the source.
        let xgft = full_16();
        let flows: Vec<(usize, usize)> = (0..8).map(|i| (0usize, 16 * (i + 1))).collect();
        let report = report(&xgft, &SModK::new(), &flows);
        assert_eq!(report.network_contention, 1);
        assert_eq!(report.max_raw_load, 8);
    }

    #[test]
    fn overlay_misses_are_counted_as_unroutable() {
        // Switch 0 of XGFT(2; 4, 4; 1, 2) loses both up cables, so (0, 5)
        // has no path. Leaf 4 fans out to two switches up one S-mod-k
        // ascent (one source: effective load 1 on a raw load of 2), and
        // leaves 5 and 9 fan in to leaf 13 through one root (one
        // destination on its descent).
        let (xgft, faults) = crate::overlay::tests::cut_switch_zero(2);
        let flows = [(0, 5), (4, 8), (4, 12), (5, 13), (9, 13), (7, 7)];
        let pristine = CompiledRouteTable::compile(&xgft, &SModK::new(), flows);
        let mut overlay = UndoableTable::new(&pristine);
        overlay.patch(&xgft, &faults);
        let report = ContentionReport::compute(&xgft, &overlay, flows);
        assert_eq!(report.unroutable, 1);
        assert_eq!(report.max_raw_load, 2);
        assert_eq!(report.network_contention, 1);
        assert_eq!(report.max_up_contention, 1);
        assert_eq!(report.max_down_contention, 1);
        // A leaf outside the machine is a miss too, never a panic.
        let outside = ContentionReport::compute(&xgft, &overlay, [(4, 16)]);
        assert_eq!(outside.unroutable, 1);
        assert_eq!(outside.used_channels, 0);
    }

    #[test]
    fn report_channel_counts_are_consistent() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 4).unwrap()).unwrap();
        let flows: Vec<(usize, usize)> = (0..64).map(|s| (s, (s + 8) % 64)).collect();
        let report = report(&xgft, &RandomRouting::new(5), &flows);
        assert_eq!(report.total_channels, xgft.channels().len());
        assert!(report.used_channels <= report.total_channels);
        assert!(report.used_channels > 0);
        assert!(report.network_contention <= report.max_raw_load);
        assert!(report.max_up_contention <= report.network_contention);
        assert!(report.max_down_contention <= report.network_contention);
    }
}
