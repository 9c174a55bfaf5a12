//! Named, possibly multi-phase workload patterns.

use crate::matrix::ConnectivityMatrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A named communication pattern made of one or more *phases*.
///
/// A phase corresponds to a communication step of the application in which
/// all its messages are outstanding simultaneously (the paper's Sec. III:
/// programmers either schedule a series of permutations or inject everything
/// at once). CG.D-128 has five phases; WRF-256 has a single phase of
/// pairwise exchanges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pattern {
    name: String,
    num_nodes: usize,
    phases: Vec<ConnectivityMatrix>,
}

impl Pattern {
    /// Build a pattern from its phases.
    ///
    /// # Panics
    /// Panics if no phase is given or the phases disagree on the node count.
    pub fn new(name: impl Into<String>, phases: Vec<ConnectivityMatrix>) -> Self {
        assert!(!phases.is_empty(), "a pattern needs at least one phase");
        let num_nodes = phases[0].num_nodes();
        assert!(
            phases.iter().all(|p| p.num_nodes() == num_nodes),
            "all phases must cover the same node count"
        );
        Pattern {
            name: name.into(),
            num_nodes,
            phases,
        }
    }

    /// Build a single-phase pattern.
    pub fn single_phase(name: impl Into<String>, matrix: ConnectivityMatrix) -> Self {
        Pattern::new(name, vec![matrix])
    }

    /// The pattern's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pattern's name by value, dropping the phases.
    pub fn into_name(self) -> String {
        self.name
    }

    /// Number of tasks/nodes the pattern is defined over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of phases.
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// The phases in execution order.
    pub fn phases(&self) -> &[ConnectivityMatrix] {
        &self.phases
    }

    /// The union of all phases: the full connectivity matrix of the
    /// application, which is what oblivious route construction sees. A
    /// single phase is cloned; several merge in one bulk
    /// [`ConnectivityMatrix::from_flows`] pass. Callers that only read the
    /// union of a single-phase pattern can borrow [`Pattern::phases`]
    /// instead.
    pub fn combined(&self) -> ConnectivityMatrix {
        match self.phases.as_slice() {
            [only] => only.clone(),
            phases => ConnectivityMatrix::from_flows(
                self.num_nodes,
                phases.iter().flat_map(ConnectivityMatrix::flows),
            ),
        }
    }

    /// Total bytes across every phase.
    pub fn total_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.total_bytes()).sum()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nodes, {} phases, {} bytes)",
            self.name,
            self.num_nodes,
            self.num_phases(),
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_phase_combination() {
        let mut a = ConnectivityMatrix::new(4);
        a.add_flow(0, 1, 10);
        let mut b = ConnectivityMatrix::new(4);
        b.add_flow(1, 0, 20);
        b.add_flow(0, 1, 5);
        let p = Pattern::new("toy", vec![a, b]);
        assert_eq!(p.num_phases(), 2);
        assert_eq!(p.total_bytes(), 35);
        let c = p.combined();
        assert_eq!(c.bytes(0, 1), 15);
        assert_eq!(c.bytes(1, 0), 20);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_pattern_rejected() {
        let _ = Pattern::new("empty", vec![]);
    }

    #[test]
    #[should_panic(expected = "same node count")]
    fn mismatched_phase_sizes_rejected() {
        let _ = Pattern::new(
            "bad",
            vec![ConnectivityMatrix::new(4), ConnectivityMatrix::new(8)],
        );
    }

    #[test]
    fn display_and_single_phase() {
        let mut a = ConnectivityMatrix::new(2);
        a.add_flow(0, 1, 1);
        let p = Pattern::single_phase("tiny", a);
        assert!(p.to_string().contains("tiny"));
        assert_eq!(p.num_nodes(), 2);
    }
}
