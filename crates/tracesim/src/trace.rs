//! The trace model: per-rank event programs.
//!
//! A trace records, for every MPI rank, the sequence of events it executes.
//! This mirrors what Dimemas extracts from a post-mortem application trace:
//! the MPI calls and the causal relationships between messages; detailed
//! computation is abstracted into `Compute` durations.

use serde::Serialize;

/// One event of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RankEvent {
    /// Local computation for the given duration (picoseconds).
    Compute {
        /// Duration of the computation in picoseconds.
        duration_ps: u64,
    },
    /// Post a message to `dst`. Sends are non-blocking (eager/Isend-like):
    /// the rank continues immediately after posting.
    Send {
        /// Destination rank.
        dst: usize,
        /// Payload size in bytes.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
    /// Block until a message from `src` with `tag` has been fully delivered.
    Recv {
        /// Source rank.
        src: usize,
        /// Match tag.
        tag: u32,
    },
    /// Block until every rank has reached this barrier.
    Barrier,
}

/// A complete trace: one event program per rank.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Trace {
    name: String,
    programs: Vec<Vec<RankEvent>>,
}

impl Trace {
    /// Build a trace from per-rank programs.
    ///
    /// # Panics
    /// Panics if `programs` is empty.
    pub fn new(name: impl Into<String>, programs: Vec<Vec<RankEvent>>) -> Self {
        assert!(!programs.is_empty(), "a trace needs at least one rank");
        Trace {
            name: name.into(),
            programs,
        }
    }

    /// The trace's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.programs.len()
    }

    /// The event program of one rank.
    pub fn program(&self, rank: usize) -> &[RankEvent] {
        &self.programs[rank]
    }

    /// All programs.
    pub fn programs(&self) -> &[Vec<RankEvent>] {
        &self.programs
    }

    /// Total number of Send events in the trace.
    pub fn num_sends(&self) -> usize {
        self.programs
            .iter()
            .flat_map(|p| p.iter())
            .filter(|e| matches!(e, RankEvent::Send { .. }))
            .count()
    }

    /// Total bytes posted by Send events.
    pub fn total_bytes(&self) -> u64 {
        self.programs
            .iter()
            .flat_map(|p| p.iter())
            .filter_map(|e| match e {
                RankEvent::Send { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// The distinct (source, destination) pairs this trace communicates over
    /// (useful for building route tables covering exactly the traffic).
    pub fn communication_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = self
            .programs
            .iter()
            .enumerate()
            .flat_map(|(rank, prog)| {
                prog.iter().filter_map(move |e| match e {
                    RankEvent::Send { dst, .. } => Some((rank, *dst)),
                    _ => None,
                })
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Basic sanity checks: every Send/Recv names a rank inside the trace
    /// and every Recv has a matching Send (same (src, dst, tag) multiset).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_ranks();
        let mut sends: std::collections::HashMap<(usize, usize, u32), isize> =
            std::collections::HashMap::new();
        for (rank, prog) in self.programs.iter().enumerate() {
            for e in prog {
                match e {
                    RankEvent::Send { dst, bytes, tag } => {
                        if *dst >= n {
                            return Err(format!("rank {rank} sends to out-of-range rank {dst}"));
                        }
                        if *bytes == 0 {
                            return Err(format!("rank {rank} sends an empty message"));
                        }
                        *sends.entry((rank, *dst, *tag)).or_default() += 1;
                    }
                    RankEvent::Recv { src, tag } => {
                        if *src >= n {
                            return Err(format!(
                                "rank {rank} receives from out-of-range rank {src}"
                            ));
                        }
                        *sends.entry((*src, rank, *tag)).or_default() -= 1;
                    }
                    RankEvent::Compute { .. } | RankEvent::Barrier => {}
                }
            }
        }
        for (&(src, dst, tag), &balance) in &sends {
            if balance < 0 {
                return Err(format!(
                    "more receives than sends for ({src} -> {dst}, tag {tag})"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> Trace {
        Trace::new(
            "toy",
            vec![
                vec![
                    RankEvent::Compute { duration_ps: 100 },
                    RankEvent::Send {
                        dst: 1,
                        bytes: 1024,
                        tag: 0,
                    },
                    RankEvent::Recv { src: 1, tag: 0 },
                ],
                vec![
                    RankEvent::Send {
                        dst: 0,
                        bytes: 2048,
                        tag: 0,
                    },
                    RankEvent::Recv { src: 0, tag: 0 },
                ],
            ],
        )
    }

    #[test]
    fn accessors_and_counts() {
        let t = toy_trace();
        assert_eq!(t.num_ranks(), 2);
        assert_eq!(t.num_sends(), 2);
        assert_eq!(t.total_bytes(), 3072);
        assert_eq!(t.name(), "toy");
        assert_eq!(t.program(0).len(), 3);
        assert_eq!(t.communication_pairs(), vec![(0, 1), (1, 0)]);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validation_catches_unmatched_recv() {
        let t = Trace::new(
            "bad",
            vec![vec![RankEvent::Recv { src: 1, tag: 7 }], vec![]],
        );
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_out_of_range_and_empty() {
        let t = Trace::new(
            "bad",
            vec![vec![RankEvent::Send {
                dst: 5,
                bytes: 1,
                tag: 0,
            }]],
        );
        assert!(t.validate().is_err());
        let t = Trace::new(
            "bad2",
            vec![
                vec![RankEvent::Send {
                    dst: 1,
                    bytes: 0,
                    tag: 0,
                }],
                vec![],
            ],
        );
        assert!(t.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_trace_rejected() {
        let _ = Trace::new("empty", vec![]);
    }
}
