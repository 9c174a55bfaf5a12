//! Traffic matrices: the demand side of the flow-level model.
//!
//! A traffic matrix assigns a non-negative weight to every ordered pair of
//! leaves. Weights are in arbitrary units (bytes for application patterns,
//! 1.0 per pair for uniform traffic); all flow-model outputs are linear in
//! them, so ratios (congestion ratio, normalized load shapes) are
//! unit-free.
//!
//! The all-pairs uniform matrix is kept symbolic ([`TrafficMatrix::uniform`])
//! rather than materialised: on a 16 384-leaf machine it would hold ~2.7e8
//! entries, while the closed-form load computation only ever needs the
//! per-level pair counts.

use serde::{Deserialize, Serialize};
use xgft_patterns::{ConnectivityMatrix, Pattern};

/// A weighted set of (source, destination) demands over `n` leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrix {
    num_leaves: usize,
    kind: TrafficKind,
}

#[derive(Debug, Clone, PartialEq)]
enum TrafficKind {
    /// Every ordered pair of distinct leaves demands `weight` units.
    Uniform { weight: f64 },
    /// Explicit weighted flows (self-flows already removed).
    Flows(Vec<(usize, usize, f64)>),
}

impl TrafficMatrix {
    /// Uniform all-pairs traffic: one unit per ordered pair of distinct
    /// leaves.
    pub fn uniform(num_leaves: usize) -> Self {
        TrafficMatrix {
            num_leaves,
            kind: TrafficKind::Uniform { weight: 1.0 },
        }
    }

    /// Explicit flows. Self-flows are dropped (they never enter the
    /// network), mirroring the simulator's local-copy semantics.
    ///
    /// # Panics
    /// Panics if a flow references a leaf `>= num_leaves` or has a negative
    /// weight.
    pub fn from_flows(
        num_leaves: usize,
        flows: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let flows: Vec<(usize, usize, f64)> = flows
            .into_iter()
            .inspect(|&(s, d, w)| {
                assert!(s < num_leaves, "source {s} out of range");
                assert!(d < num_leaves, "destination {d} out of range");
                assert!(w >= 0.0, "traffic weights must be non-negative");
            })
            .filter(|&(s, d, _)| s != d)
            .collect();
        TrafficMatrix {
            num_leaves,
            kind: TrafficKind::Flows(flows),
        }
    }

    /// The union of a pattern's phases as a traffic matrix over `num_leaves`
    /// leaves (ranks map to leaves by identity, as in the replay engine),
    /// with byte counts as weights. A single-phase pattern is read in
    /// place; only a multi-phase one is merged into a combined matrix
    /// first.
    ///
    /// # Panics
    /// Panics if the pattern has more tasks than there are leaves.
    pub fn from_pattern(pattern: &Pattern, num_leaves: usize) -> Self {
        assert!(
            pattern.num_nodes() <= num_leaves,
            "pattern has {} tasks but the machine only has {num_leaves} leaves",
            pattern.num_nodes()
        );
        let combined;
        let matrix = match pattern.phases() {
            [only] => only,
            _ => {
                combined = pattern.combined();
                &combined
            }
        };
        // Every node of the matrix is a leaf and every weight is a byte
        // count, so the flows need none of `from_flows`' checks. The
        // capacity is exact unless the matrix holds self-flows.
        let mut flows = Vec::with_capacity(matrix.num_flows());
        flows.extend(
            matrix
                .network_flows()
                .map(|f| (f.src, f.dst, f.bytes as f64)),
        );
        flows.shrink_to_fit();
        TrafficMatrix {
            num_leaves,
            kind: TrafficKind::Flows(flows),
        }
    }

    /// Number of leaves the matrix is defined over.
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// The uniform per-pair weight, if this is the symbolic all-pairs
    /// matrix.
    pub fn uniform_weight(&self) -> Option<f64> {
        match self.kind {
            TrafficKind::Uniform { weight } => Some(weight),
            TrafficKind::Flows(_) => None,
        }
    }

    /// The explicit flows, if materialised.
    pub fn flows(&self) -> Option<&[(usize, usize, f64)]> {
        match &self.kind {
            TrafficKind::Uniform { .. } => None,
            TrafficKind::Flows(flows) => Some(flows),
        }
    }

    /// Total demand across all pairs.
    pub fn total_weight(&self) -> f64 {
        match &self.kind {
            TrafficKind::Uniform { weight } => {
                let n = self.num_leaves as f64;
                weight * n * (n - 1.0)
            }
            TrafficKind::Flows(flows) => flows.iter().map(|&(_, _, w)| w).sum(),
        }
    }

    /// Visit every (source, destination, weight) demand. For the symbolic
    /// uniform matrix this enumerates all `n(n-1)` ordered pairs — callers
    /// on large machines should prefer the closed-form paths that never
    /// materialise pairs.
    pub fn for_each_flow(&self, mut f: impl FnMut(usize, usize, f64)) {
        match &self.kind {
            TrafficKind::Uniform { weight } => {
                for s in 0..self.num_leaves {
                    for d in 0..self.num_leaves {
                        if s != d {
                            f(s, d, *weight);
                        }
                    }
                }
            }
            TrafficKind::Flows(flows) => {
                for &(s, d, w) in flows {
                    f(s, d, w);
                }
            }
        }
    }
}

/// A named family of traffic matrices, instantiable at any machine size —
/// the traffic axis of the parallel sweep engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficSpec {
    /// One unit per ordered pair (the classic MCL setting), kept symbolic.
    Uniform,
    /// A fixed pattern from [`xgft_patterns::generators`] (byte counts as
    /// weights); ranks map to leaves by identity.
    Pattern(Pattern),
}

impl TrafficSpec {
    /// Display name used in sweep tables.
    pub fn name(&self) -> String {
        match self {
            TrafficSpec::Uniform => "uniform".to_string(),
            TrafficSpec::Pattern(p) => p.name().to_string(),
        }
    }

    /// Instantiate the family for a machine with `num_leaves` leaves.
    pub fn matrix(&self, num_leaves: usize) -> TrafficMatrix {
        match self {
            TrafficSpec::Uniform => TrafficMatrix::uniform(num_leaves),
            TrafficSpec::Pattern(p) => TrafficMatrix::from_pattern(p, num_leaves),
        }
    }

    /// The connectivity matrix pattern-aware schemes are constructed from.
    /// For [`TrafficSpec::Uniform`] this materialises all pairs — intended
    /// for small instances only.
    pub fn connectivity(&self, num_leaves: usize) -> ConnectivityMatrix {
        match self {
            TrafficSpec::Uniform => {
                let mut m = ConnectivityMatrix::new(num_leaves);
                for s in 0..num_leaves {
                    for d in 0..num_leaves {
                        if s != d {
                            m.add_flow(s, d, 1);
                        }
                    }
                }
                m
            }
            TrafficSpec::Pattern(p) => p.combined(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_patterns::generators;

    #[test]
    fn uniform_matrix_totals() {
        let t = TrafficMatrix::uniform(16);
        assert_eq!(t.num_leaves(), 16);
        assert_eq!(t.uniform_weight(), Some(1.0));
        assert!(t.flows().is_none());
        assert!((t.total_weight() - (16.0 * 15.0)).abs() < 1e-9);
        let mut count = 0usize;
        t.for_each_flow(|s, d, w| {
            assert_ne!(s, d);
            assert_eq!(w, 1.0);
            count += 1;
        });
        assert_eq!(count, 16 * 15);
    }

    #[test]
    fn pattern_matrix_uses_bytes_and_drops_self_flows() {
        let p = generators::shift(8, 0, 4096); // offset 0: all self-flows
        let t = TrafficMatrix::from_pattern(&p, 8);
        assert_eq!(t.total_weight(), 0.0);
        let p = generators::shift(8, 3, 4096);
        let t = TrafficMatrix::from_pattern(&p, 8);
        assert_eq!(t.flows().unwrap().len(), 8);
        assert!((t.total_weight() - 8.0 * 4096.0).abs() < 1e-9);
    }

    #[test]
    fn pattern_smaller_than_machine_is_accepted() {
        let p = generators::shift(8, 1, 1);
        let t = TrafficMatrix::from_pattern(&p, 64);
        assert_eq!(t.num_leaves(), 64);
        assert_eq!(t.flows().unwrap().len(), 8);
    }

    #[test]
    #[should_panic(expected = "tasks")]
    fn pattern_larger_than_machine_is_rejected() {
        let p = generators::shift(32, 1, 1);
        let _ = TrafficMatrix::from_pattern(&p, 16);
    }

    #[test]
    fn traffic_spec_names_and_instantiation() {
        assert_eq!(TrafficSpec::Uniform.name(), "uniform");
        let shift = TrafficSpec::Pattern(generators::shift(16, 4, 1));
        assert_eq!(shift.name(), "shift-4");
        let m = shift.matrix(16);
        assert_eq!(m.flows().unwrap().len(), 16);
        assert_eq!(shift.connectivity(16).num_flows(), 16);
        let conn = TrafficSpec::Uniform.connectivity(4);
        assert_eq!(conn.num_flows(), 12);
    }
}
