//! Connectivity matrices: the sparse N×N description of a communication
//! pattern.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A single flow of a communication pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Flow {
    /// Source node (task) identifier.
    pub src: usize,
    /// Destination node (task) identifier.
    pub dst: usize,
    /// Number of bytes carried by the flow.
    pub bytes: u64,
}

/// A sparse connectivity matrix `M(N × N)`: the set of flows of a
/// communication pattern, with byte weights.
///
/// Multiple additions of the same (src, dst) pair accumulate bytes, matching
/// the paper's definition where `m_ij` records a cost metric of connection
/// `i → j`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectivityMatrix {
    num_nodes: usize,
    /// Flows keyed by (src, dst) for deterministic iteration order.
    entries: BTreeMap<(usize, usize), u64>,
}

impl ConnectivityMatrix {
    /// An empty pattern over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        ConnectivityMatrix {
            num_nodes,
            entries: BTreeMap::new(),
        }
    }

    /// Build a matrix from an iterator of flows, in bulk: the flows are
    /// collected, sorted and merged (duplicate `(src, dst)` pairs sum their
    /// bytes, as repeated [`ConnectivityMatrix::add_flow`] calls would), and
    /// the map is built from the sorted entries in one pass instead of one
    /// tree insertion per flow.
    ///
    /// # Panics
    /// Panics if any flow references a node `>= num_nodes` or carries zero
    /// bytes.
    pub fn from_flows(num_nodes: usize, flows: impl IntoIterator<Item = Flow>) -> Self {
        let mut entries: Vec<((usize, usize), u64)> = flows
            .into_iter()
            .map(|f| {
                check_flow(num_nodes, f.src, f.dst, f.bytes);
                ((f.src, f.dst), f.bytes)
            })
            .collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        ConnectivityMatrix {
            num_nodes,
            entries: entries.into_iter().collect(),
        }
    }

    /// Number of nodes (tasks) the pattern is defined over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Add `bytes` to the flow `src → dst` (accumulating).
    ///
    /// Self-flows (`src == dst`) are accepted but carry no network cost; they
    /// are kept so that totals match application-level byte counts.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is out of range or `bytes == 0`.
    pub fn add_flow(&mut self, src: usize, dst: usize, bytes: u64) {
        check_flow(self.num_nodes, src, dst, bytes);
        *self.entries.entry((src, dst)).or_insert(0) += bytes;
    }

    /// The byte count of `src → dst` (0 if absent).
    pub fn bytes(&self, src: usize, dst: usize) -> u64 {
        self.entries.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Number of distinct (src, dst) connections.
    pub fn num_flows(&self) -> usize {
        self.entries.len()
    }

    /// True if the pattern has no flows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of bytes across all flows.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().sum()
    }

    /// Iterate over all flows in deterministic (src, dst) order.
    pub fn flows(&self) -> impl Iterator<Item = Flow> + '_ {
        self.entries
            .iter()
            .map(|(&(src, dst), &bytes)| Flow { src, dst, bytes })
    }

    /// Flows that actually traverse the network (src ≠ dst).
    pub fn network_flows(&self) -> impl Iterator<Item = Flow> + '_ {
        self.flows().filter(|f| f.src != f.dst)
    }

    /// Out-degree of a source: number of distinct destinations it sends to
    /// (excluding itself).
    pub fn out_degree(&self, src: usize) -> usize {
        self.entries
            .range((src, 0)..=(src, self.num_nodes.saturating_sub(1)))
            .filter(|(&(s, d), _)| s == src && d != src)
            .count()
    }

    /// In-degree of a destination: number of distinct sources sending to it
    /// (excluding itself).
    pub fn in_degree(&self, dst: usize) -> usize {
        self.entries
            .keys()
            .filter(|&&(s, d)| d == dst && s != dst)
            .count()
    }

    /// True if the pattern is a (partial) permutation: every source sends to
    /// at most one destination and every destination receives from at most
    /// one source (self-flows ignored).
    pub fn is_permutation(&self) -> bool {
        let mut out = vec![0usize; self.num_nodes];
        let mut inn = vec![0usize; self.num_nodes];
        for f in self.network_flows() {
            out[f.src] += 1;
            inn[f.dst] += 1;
            if out[f.src] > 1 || inn[f.dst] > 1 {
                return false;
            }
        }
        true
    }

    /// True if the pattern equals its own inverse (symmetric pattern), i.e.
    /// `bytes(i, j) == bytes(j, i)` for all pairs. Both applications in the
    /// paper have symmetric patterns, which is why S-mod-k and D-mod-k
    /// perform identically on them.
    pub fn is_symmetric(&self) -> bool {
        self.entries
            .iter()
            .all(|(&(s, d), &b)| self.bytes(d, s) == b)
    }

    /// The inverse pattern: every flow `i → j` becomes `j → i` (Sec. VII-B).
    pub fn inverse(&self) -> ConnectivityMatrix {
        let mut inv = ConnectivityMatrix::new(self.num_nodes);
        for f in self.flows() {
            inv.add_flow(f.dst, f.src, f.bytes);
        }
        inv
    }

    /// Union of two patterns over the same node count (byte counts add).
    ///
    /// # Panics
    /// Panics if the node counts differ.
    pub fn union(&self, other: &ConnectivityMatrix) -> ConnectivityMatrix {
        assert_eq!(
            self.num_nodes, other.num_nodes,
            "cannot union patterns over different node counts"
        );
        let mut u = self.clone();
        for f in other.flows() {
            u.add_flow(f.src, f.dst, f.bytes);
        }
        u
    }

    /// Maximum number of network flows sharing a single source or
    /// destination — the *endpoint contention* of the pattern (Sec. IV):
    /// contention caused by messages produced by or consumed at the same
    /// node, which no routing scheme can remove.
    pub fn endpoint_contention(&self) -> usize {
        let mut out = vec![0usize; self.num_nodes];
        let mut inn = vec![0usize; self.num_nodes];
        for f in self.network_flows() {
            out[f.src] += 1;
            inn[f.dst] += 1;
        }
        out.iter().chain(inn.iter()).copied().max().unwrap_or(0)
    }

    /// Render the matrix as a dense byte grid (for small N; used by the
    /// Fig. 3 reproduction which plots the CG.D communication matrix).
    pub fn to_dense(&self) -> Vec<Vec<u64>> {
        let mut dense = vec![vec![0u64; self.num_nodes]; self.num_nodes];
        for f in self.flows() {
            dense[f.src][f.dst] = f.bytes;
        }
        dense
    }
}

/// The flow contract shared by [`ConnectivityMatrix::add_flow`] and
/// [`ConnectivityMatrix::from_flows`].
fn check_flow(num_nodes: usize, src: usize, dst: usize, bytes: u64) {
    assert!(src < num_nodes, "source {src} out of range");
    assert!(dst < num_nodes, "destination {dst} out of range");
    assert!(bytes > 0, "flows must carry a positive number of bytes");
}

impl fmt::Display for ConnectivityMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ConnectivityMatrix({} nodes, {} flows, {} bytes)",
            self.num_nodes,
            self.num_flows(),
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_flows() {
        let mut m = ConnectivityMatrix::new(8);
        m.add_flow(0, 1, 100);
        m.add_flow(0, 1, 50);
        m.add_flow(2, 3, 10);
        assert_eq!(m.bytes(0, 1), 150);
        assert_eq!(m.bytes(1, 0), 0);
        assert_eq!(m.num_flows(), 2);
        assert_eq!(m.total_bytes(), 160);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let mut m = ConnectivityMatrix::new(4);
        m.add_flow(4, 0, 1);
    }

    #[test]
    fn degrees_and_permutation_check() {
        let mut m = ConnectivityMatrix::new(4);
        m.add_flow(0, 1, 1);
        m.add_flow(1, 2, 1);
        m.add_flow(2, 3, 1);
        m.add_flow(3, 0, 1);
        assert!(m.is_permutation());
        assert_eq!(m.out_degree(0), 1);
        assert_eq!(m.in_degree(0), 1);
        m.add_flow(0, 2, 1);
        assert!(!m.is_permutation());
        assert_eq!(m.out_degree(0), 2);
        assert_eq!(m.endpoint_contention(), 2);
    }

    #[test]
    fn inverse_and_symmetry() {
        let mut m = ConnectivityMatrix::new(4);
        m.add_flow(0, 1, 7);
        m.add_flow(2, 3, 5);
        let inv = m.inverse();
        assert_eq!(inv.bytes(1, 0), 7);
        assert_eq!(inv.bytes(3, 2), 5);
        assert!(!m.is_symmetric());
        let sym = m.union(&inv);
        assert!(sym.is_symmetric());
        assert_eq!(sym.total_bytes(), 24);
    }

    #[test]
    fn self_flows_do_not_count_as_network_flows() {
        let mut m = ConnectivityMatrix::new(4);
        m.add_flow(1, 1, 99);
        m.add_flow(1, 2, 1);
        assert_eq!(m.num_flows(), 2);
        assert_eq!(m.network_flows().count(), 1);
        assert!(m.is_permutation());
        assert_eq!(m.endpoint_contention(), 1);
    }

    #[test]
    fn dense_rendering() {
        let mut m = ConnectivityMatrix::new(3);
        m.add_flow(0, 2, 4);
        m.add_flow(2, 1, 6);
        let d = m.to_dense();
        assert_eq!(d[0][2], 4);
        assert_eq!(d[2][1], 6);
        assert_eq!(d[1][1], 0);
    }

    #[test]
    fn union_requires_same_size() {
        let a = ConnectivityMatrix::new(4);
        let b = ConnectivityMatrix::new(4);
        let _ = a.union(&b);
        let display = a.to_string();
        assert!(display.contains("4 nodes"));
    }
}
