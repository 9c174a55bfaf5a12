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

use crate::algorithm::RoutingAlgorithm;
use std::collections::HashSet;
use xgft_topo::{Direction, Xgft};

/// Per-channel load vectors (indexed by the dense channel index of
/// [`xgft_topo::ChannelTable`]).
#[derive(Debug, Clone)]
pub struct ChannelLoads {
    /// Flows per channel.
    pub raw: Vec<usize>,
    /// Distinct relevant endpoints per channel (sources on up channels,
    /// destinations on down channels).
    pub effective: Vec<usize>,
}

impl ChannelLoads {
    /// Compute loads for the given flows, routing each one with `algo` as
    /// it is read. Self-pairs are skipped.
    pub fn compute<A: RoutingAlgorithm + ?Sized>(
        xgft: &Xgft,
        algo: &A,
        flows: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let channels = xgft.channels();
        let mut raw = vec![0usize; channels.len()];
        let mut endpoints: Vec<HashSet<usize>> = vec![HashSet::new(); channels.len()];
        for (s, d) in flows {
            if s == d {
                continue;
            }
            let route = algo.route(xgft, s, d);
            let path = xgft
                .route_path(s, d, &route)
                .expect("algorithms must produce valid routes");
            for hop in path {
                let idx = channels.index(&hop.channel);
                raw[idx] += 1;
                let endpoint = match hop.channel.dir {
                    Direction::Up => s,
                    Direction::Down => d,
                };
                endpoints[idx].insert(endpoint);
            }
        }
        let effective = endpoints.into_iter().map(|set| set.len()).collect();
        ChannelLoads { raw, effective }
    }

    /// Maximum raw load over all channels.
    pub fn max_raw(&self) -> usize {
        self.raw.iter().copied().max().unwrap_or(0)
    }

    /// Maximum effective load over all channels — the contention level `C`.
    pub fn max_effective(&self) -> usize {
        self.effective.iter().copied().max().unwrap_or(0)
    }

    /// Number of channels carrying at least one flow.
    pub fn used_channels(&self) -> usize {
        self.raw.iter().filter(|&&l| l > 0).count()
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
}

impl ContentionReport {
    /// Build a report for a set of flows routed by `algo`.
    pub fn compute<A: RoutingAlgorithm + ?Sized>(
        xgft: &Xgft,
        algo: &A,
        flows: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let loads = ChannelLoads::compute(xgft, algo, flows);
        let channels = xgft.channels();
        let mut max_up = 0usize;
        let mut max_down = 0usize;
        for (idx, &eff) in loads.effective.iter().enumerate() {
            match channels.channel(idx).dir {
                Direction::Up => max_up = max_up.max(eff),
                Direction::Down => max_down = max_down.max(eff),
            }
        }
        ContentionReport {
            algorithm: algo.name(),
            max_raw_load: loads.max_raw(),
            network_contention: loads.max_effective(),
            max_up_contention: max_up,
            max_down_contention: max_down,
            used_channels: loads.used_channels(),
            total_channels: channels.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modk::{DModK, SModK};
    use crate::random::RandomRouting;
    use xgft_topo::XgftSpec;

    fn full_16() -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, 16).unwrap()).unwrap()
    }

    #[test]
    fn permutation_on_full_tree_with_d_mod_k_has_unit_contention() {
        // A cyclic shift by 16 sends each switch's 16 sources to 16 distinct
        // destinations of the next switch; D-mod-k assigns them 16 distinct
        // roots, so no channel carries more than one flow.
        let xgft = full_16();
        let flows: Vec<(usize, usize)> = (0..256).map(|s| (s, (s + 16) % 256)).collect();
        let report = ContentionReport::compute(&xgft, &DModK::new(), flows);
        assert_eq!(report.max_raw_load, 1);
        assert_eq!(report.network_contention, 1);
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
        let report = ContentionReport::compute(&xgft, &DModK::new(), flows.iter().copied());
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
        let algo = &SModK::new();
        let loads = ChannelLoads::compute(&xgft, algo, flows.iter().copied());
        assert_eq!(loads.max_raw(), 8);
        assert_eq!(loads.max_effective(), 1);
        let report = ContentionReport::compute(&xgft, algo, flows.iter().copied());
        assert_eq!(report.network_contention, 1);
        assert_eq!(report.max_raw_load, 8);
    }

    #[test]
    fn report_channel_counts_are_consistent() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 4).unwrap()).unwrap();
        let flows: Vec<(usize, usize)> = (0..64).map(|s| (s, (s + 8) % 64)).collect();
        let report = ContentionReport::compute(&xgft, &RandomRouting::new(5), flows);
        assert_eq!(report.total_channels, xgft.channels().len());
        assert!(report.used_channels <= report.total_channels);
        assert!(report.used_channels > 0);
        assert!(report.network_contention <= report.max_raw_load);
        assert!(report.max_up_contention <= report.network_contention);
        assert!(report.max_down_contention <= report.network_contention);
    }
}
