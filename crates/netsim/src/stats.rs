//! Simulation reports and per-message records.

use crate::message::MessageId;
use serde::{Deserialize, Serialize};

/// The record of one delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageRecord {
    /// Message identifier.
    pub id: MessageId,
    /// Source leaf.
    pub src: usize,
    /// Destination leaf.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Time the message was handed to the source adapter (ps).
    pub injected_at_ps: u64,
    /// Time the last segment arrived at the destination (ps).
    pub completed_at_ps: u64,
}

impl MessageRecord {
    /// End-to-end latency of the message in picoseconds.
    pub fn latency_ps(&self) -> u64 {
        self.completed_at_ps - self.injected_at_ps
    }
}

/// Summary of a finished simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Number of messages delivered.
    pub completed_messages: usize,
    /// Number of messages lost at failed channels (never delivered).
    pub dropped_messages: usize,
    /// Total payload bytes delivered.
    pub total_bytes: u64,
    /// Time of the last delivery (ps); 0 if nothing was delivered.
    pub makespan_ps: u64,
    /// Per-message delivery records, in completion order.
    pub messages: Vec<MessageRecord>,
    /// Highest observed occupancy of any channel waiting queue (segments).
    pub max_queue_depth: usize,
    /// Busy time of the most utilised channel divided by the makespan.
    pub max_channel_utilization: f64,
    /// Number of simulation events processed.
    pub events_processed: u64,
    /// Largest number of events pushed but not yet popped at any point:
    /// a count of events across all of the queue's lanes, independent of
    /// how the queue stores them or what capacity it holds.
    pub event_queue_hwm: usize,
}

impl SimReport {
    /// Makespan in milliseconds (convenience).
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ps as f64 / 1e9
    }

    /// Mean message latency in picoseconds.
    pub fn mean_latency_ps(&self) -> f64 {
        if self.messages.is_empty() {
            0.0
        } else {
            self.messages
                .iter()
                .map(|m| m.latency_ps() as f64)
                .sum::<f64>()
                / self.messages.len() as f64
        }
    }

    /// The `q`-quantile of message latency in picoseconds (nearest-rank
    /// over the exact per-message latencies; 0 when nothing was delivered).
    pub fn latency_quantile_ps(&self, q: f64) -> u64 {
        if self.messages.is_empty() {
            return 0;
        }
        let mut latencies: Vec<u64> = self.messages.iter().map(|m| m.latency_ps()).collect();
        latencies.sort_unstable();
        let rank = (q.clamp(0.0, 1.0) * latencies.len() as f64).ceil() as usize;
        latencies[rank.max(1) - 1]
    }

    /// Median message latency in picoseconds.
    pub fn p50_latency_ps(&self) -> u64 {
        self.latency_quantile_ps(0.50)
    }

    /// 99th-percentile message latency in picoseconds.
    pub fn p99_latency_ps(&self) -> u64 {
        self.latency_quantile_ps(0.99)
    }

    /// Largest message latency in picoseconds (0 when nothing was
    /// delivered).
    pub fn max_latency_ps(&self) -> u64 {
        self.messages
            .iter()
            .map(|m| m.latency_ps())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_conversions() {
        let rec = MessageRecord {
            id: MessageId(1),
            src: 0,
            dst: 1,
            bytes: 1024,
            injected_at_ps: 1_000,
            completed_at_ps: 5_000,
        };
        assert_eq!(rec.latency_ps(), 4_000);
        let report = SimReport {
            completed_messages: 1,
            dropped_messages: 0,
            total_bytes: 1024,
            makespan_ps: 2_000_000_000,
            messages: vec![rec],
            max_queue_depth: 3,
            max_channel_utilization: 0.5,
            events_processed: 10,
            event_queue_hwm: 4,
        };
        assert!((report.makespan_ms() - 2.0).abs() < 1e-9);
        assert!((report.mean_latency_ps() - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_latency_is_zero() {
        let report = SimReport {
            completed_messages: 0,
            dropped_messages: 0,
            total_bytes: 0,
            makespan_ps: 0,
            messages: vec![],
            max_queue_depth: 0,
            max_channel_utilization: 0.0,
            events_processed: 0,
            event_queue_hwm: 0,
        };
        assert_eq!(report.mean_latency_ps(), 0.0);
        assert_eq!(report.p50_latency_ps(), 0);
        assert_eq!(report.p99_latency_ps(), 0);
        assert_eq!(report.max_latency_ps(), 0);
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        // 100 messages with latencies 1000, 2000, ..., 100_000 ps,
        // deliberately out of order.
        let mut messages: Vec<MessageRecord> = (1..=100u64)
            .map(|i| MessageRecord {
                id: MessageId(i),
                src: 0,
                dst: 1,
                bytes: 1,
                injected_at_ps: 0,
                completed_at_ps: i * 1000,
            })
            .collect();
        messages.reverse();
        let report = SimReport {
            completed_messages: messages.len(),
            dropped_messages: 0,
            total_bytes: 100,
            makespan_ps: 100_000,
            messages,
            max_queue_depth: 1,
            max_channel_utilization: 0.1,
            events_processed: 1,
            event_queue_hwm: 1,
        };
        assert_eq!(report.p50_latency_ps(), 50_000);
        assert_eq!(report.p99_latency_ps(), 99_000);
        assert_eq!(report.max_latency_ps(), 100_000);
        assert_eq!(report.latency_quantile_ps(0.0), 1_000);
        assert_eq!(report.latency_quantile_ps(1.0), 100_000);
    }
}
