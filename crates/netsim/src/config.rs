//! Simulator configuration: the network parameters of Sec. VI-B.

use serde::{Deserialize, Serialize};

/// How segments progress through switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwitchingMode {
    /// A segment becomes eligible for its next hop as soon as it has fully
    /// arrived (store-and-forward at segment granularity). This is the
    /// default; with multi-hundred-segment messages the pipeline-fill
    /// penalty relative to flit-level cut-through is negligible.
    StoreAndForward,
    /// A segment becomes eligible for its next hop after only the switch
    /// latency (idealised cut-through); its serialization time still bounds
    /// how fast it can cross each link. Every per-hop delay is shorter, yet
    /// under contention a message set can finish *later* than under
    /// store-and-forward: earlier arrivals reorder a shared channel's FIFO
    /// queue, and FIFO service is not monotone in the delays.
    CutThrough,
}

/// Network parameters. The defaults are the values the paper reports for its
/// Venus model: 2 Gbit/s links, 8-byte flits, 1 KB segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Link rate in Gbit/s.
    pub link_bandwidth_gbps: f64,
    /// Flit size in bytes (serialization granularity of the links).
    pub flit_bytes: u64,
    /// Segment size in bytes — the unit messages are chopped into at the
    /// adapter and the unit of round-robin interleaving.
    pub segment_bytes: u64,
    /// Fixed per-hop switch traversal latency in nanoseconds.
    pub switch_latency_ns: u64,
    /// Number of segment-sized input-buffer slots per channel (credits).
    pub input_buffer_segments: usize,
    /// Switching mode.
    pub switching: SwitchingMode,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            link_bandwidth_gbps: 2.0,
            flit_bytes: 8,
            segment_bytes: 1024,
            switch_latency_ns: 100,
            input_buffer_segments: 4,
            switching: SwitchingMode::StoreAndForward,
        }
    }
}

impl NetworkConfig {
    /// Serialization time of `bytes` bytes on a link, in picoseconds,
    /// rounded up to a whole flit count first (partial flits occupy a full
    /// flit slot on the wire).
    pub fn serialization_ps(&self, bytes: u64) -> u64 {
        let flits = bytes.div_ceil(self.flit_bytes).max(1);
        let wire_bytes = flits * self.flit_bytes;
        let bits = wire_bytes as f64 * 8.0;
        (bits / self.link_bandwidth_gbps * 1000.0).round() as u64
    }

    /// Serialization time of one full segment, in picoseconds.
    pub fn segment_serialization_ps(&self) -> u64 {
        self.serialization_ps(self.segment_bytes)
    }

    /// Switch latency in picoseconds.
    pub fn switch_latency_ps(&self) -> u64 {
        self.switch_latency_ns * 1000
    }

    /// Number of segments a message of `bytes` bytes is chopped into.
    pub fn num_segments(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.segment_bytes).max(1)
    }

    /// The size in bytes of segment `index` (0-based) of a message of
    /// `bytes` bytes: all segments are full except possibly the last.
    pub fn segment_size(&self, bytes: u64, index: u64) -> u64 {
        let n = self.num_segments(bytes);
        debug_assert!(index < n);
        if index + 1 < n || bytes.is_multiple_of(self.segment_bytes) {
            self.segment_bytes.min(bytes)
        } else {
            bytes % self.segment_bytes
        }
    }

    /// Ideal (contention-free) transfer time of a message over a single
    /// link, in picoseconds: pure serialization of all its bytes.
    pub fn ideal_transfer_ps(&self, bytes: u64) -> u64 {
        (0..self.num_segments(bytes))
            .map(|i| self.serialization_ps(self.segment_size(bytes, i)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_give_expected_times() {
        let cfg = NetworkConfig::default();
        // 8 bytes at 2 Gb/s = 32 ns = 32_000 ps per flit.
        assert_eq!(cfg.serialization_ps(8), 32_000);
        // A 1 KB segment is 128 flits = 4.096 us.
        assert_eq!(cfg.segment_serialization_ps(), 4_096_000);
        assert_eq!(cfg.switch_latency_ps(), 100_000);
    }

    #[test]
    fn partial_flits_round_up() {
        let cfg = NetworkConfig::default();
        assert_eq!(cfg.serialization_ps(1), cfg.serialization_ps(8));
        assert_eq!(cfg.serialization_ps(9), cfg.serialization_ps(16));
    }

    #[test]
    fn segmentation_covers_all_bytes() {
        let cfg = NetworkConfig::default();
        for &bytes in &[1u64, 1023, 1024, 1025, 750 * 1024, 750 * 1024 + 7] {
            let n = cfg.num_segments(bytes);
            let total: u64 = (0..n).map(|i| cfg.segment_size(bytes, i)).sum();
            assert_eq!(total, bytes, "bytes={bytes}");
            for i in 0..n {
                assert!(cfg.segment_size(bytes, i) <= cfg.segment_bytes);
                assert!(cfg.segment_size(bytes, i) > 0);
            }
        }
    }

    #[test]
    fn ideal_transfer_time_is_linear_in_full_segments() {
        let cfg = NetworkConfig::default();
        let one = cfg.ideal_transfer_ps(1024);
        let ten = cfg.ideal_transfer_ps(10 * 1024);
        assert_eq!(ten, 10 * one);
        // 750 KB at 2 Gb/s = 3.072 ms.
        assert_eq!(cfg.ideal_transfer_ps(750 * 1024), 3_072_000_000);
    }

    #[test]
    fn custom_bandwidth_scales_times() {
        let cfg = NetworkConfig {
            link_bandwidth_gbps: 4.0,
            ..NetworkConfig::default()
        };
        assert_eq!(cfg.segment_serialization_ps(), 2_048_000);
    }
}
