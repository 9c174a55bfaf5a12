//! Locality and load statistics of communication patterns.
//!
//! The paper's analysis repeatedly relies on two structural features of a
//! pattern: how much of its traffic stays inside a first-level switch
//! (CG.D's four local phases) and how the endpoint load is spread over
//! sources and destinations (WRF's two-neighbour exchange). This module
//! computes those statistics for any [`ConnectivityMatrix`] so experiment
//! drivers and reports do not re-derive them ad hoc.

use crate::matrix::ConnectivityMatrix;
use serde::{Deserialize, Serialize};

/// Locality and endpoint-load statistics of one pattern against a machine
/// whose first-level switches hold `block` consecutive nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternStats {
    /// Number of nodes the pattern is defined over.
    pub num_nodes: usize,
    /// Block (first-level switch) size used for locality accounting.
    pub block: usize,
    /// Number of network flows (src ≠ dst).
    pub flows: usize,
    /// Flows whose endpoints share a block.
    pub block_local_flows: usize,
    /// Total bytes carried by network flows.
    pub bytes: u64,
    /// Bytes carried by block-local flows.
    pub block_local_bytes: u64,
    /// Maximum number of distinct destinations of any source.
    pub max_out_degree: usize,
    /// Maximum number of distinct sources of any destination.
    pub max_in_degree: usize,
    /// Bytes injected by the busiest source.
    pub max_source_bytes: u64,
    /// Bytes received by the busiest destination.
    pub max_destination_bytes: u64,
}

impl PatternStats {
    /// Compute the statistics of `pattern` for first-level switches of
    /// `block` consecutive nodes.
    ///
    /// # Panics
    /// Panics if `block == 0`.
    pub fn compute(pattern: &ConnectivityMatrix, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        let n = pattern.num_nodes();
        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        let mut out_bytes = vec![0u64; n];
        let mut in_bytes = vec![0u64; n];
        let mut flows = 0usize;
        let mut local_flows = 0usize;
        let mut bytes = 0u64;
        let mut local_bytes = 0u64;
        for f in pattern.network_flows() {
            flows += 1;
            bytes += f.bytes;
            out_deg[f.src] += 1;
            in_deg[f.dst] += 1;
            out_bytes[f.src] += f.bytes;
            in_bytes[f.dst] += f.bytes;
            if f.src / block == f.dst / block {
                local_flows += 1;
                local_bytes += f.bytes;
            }
        }
        PatternStats {
            num_nodes: n,
            block,
            flows,
            block_local_flows: local_flows,
            bytes,
            block_local_bytes: local_bytes,
            max_out_degree: out_deg.into_iter().max().unwrap_or(0),
            max_in_degree: in_deg.into_iter().max().unwrap_or(0),
            max_source_bytes: out_bytes.into_iter().max().unwrap_or(0),
            max_destination_bytes: in_bytes.into_iter().max().unwrap_or(0),
        }
    }

    /// Fraction of flows that stay inside a block (0.0–1.0; 0 if no flows).
    pub fn locality_fraction(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.block_local_flows as f64 / self.flows as f64
        }
    }

    /// The endpoint contention of the pattern: the larger of the maximum in-
    /// and out-degree (what no routing scheme can remove, Sec. IV).
    pub fn endpoint_contention(&self) -> usize {
        self.max_out_degree.max(self.max_in_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cg_phases_locality() {
        let cg = generators::cg_d(128, 1024).unwrap();
        for phase in &cg.phases()[..4] {
            let stats = PatternStats::compute(phase, 16);
            assert_eq!(stats.locality_fraction(), 1.0);
            assert_eq!(stats.endpoint_contention(), 1);
        }
        let fifth = PatternStats::compute(&cg.phases()[4], 16);
        assert_eq!(fifth.locality_fraction(), 0.0);
        assert_eq!(fifth.flows, 112);
        // The combined pattern has endpoint contention 5 (five exchanges per
        // rank, all with distinct partners except fixed points).
        let combined = PatternStats::compute(&cg.combined(), 16);
        assert!(combined.endpoint_contention() >= 4);
        assert!(combined.locality_fraction() > 0.7);
    }

    #[test]
    fn wrf_degrees_match_the_paper_description() {
        let wrf = generators::wrf_mesh_exchange(16, 16, 512 * 1024).unwrap();
        let stats = PatternStats::compute(&wrf.phases()[0], 16);
        assert_eq!(stats.num_nodes, 256);
        assert_eq!(stats.max_out_degree, 2);
        assert_eq!(stats.max_in_degree, 2);
        assert_eq!(stats.endpoint_contention(), 2);
        // ±16 exchanges never stay inside a block of 16 consecutive tasks.
        assert_eq!(stats.block_local_flows, 0);
        assert_eq!(stats.max_source_bytes, 2 * 512 * 1024);
    }

    #[test]
    fn empty_and_self_flow_patterns() {
        let empty = ConnectivityMatrix::new(8);
        let stats = PatternStats::compute(&empty, 4);
        assert_eq!(stats.flows, 0);
        assert_eq!(stats.locality_fraction(), 0.0);
        let mut selfish = ConnectivityMatrix::new(8);
        selfish.add_flow(3, 3, 100);
        let stats = PatternStats::compute(&selfish, 4);
        assert_eq!(stats.flows, 0);
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_rejected() {
        let _ = PatternStats::compute(&ConnectivityMatrix::new(4), 0);
    }

    #[test]
    fn all_to_all_statistics() {
        let a2a = generators::all_to_all(32, 10);
        let stats = PatternStats::compute(&a2a.phases()[0], 8);
        assert_eq!(stats.flows, 32 * 31);
        assert_eq!(stats.max_out_degree, 31);
        assert_eq!(stats.max_in_degree, 31);
        // 7 of 31 partners are block-local.
        assert!((stats.locality_fraction() - 7.0 / 31.0).abs() < 1e-9);
    }
}
