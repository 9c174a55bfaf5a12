//! Task-to-node mappings.
//!
//! The paper's framework feeds the simulator "the mapping of processes to
//! nodes (sequential)" alongside the topology and routes (Sec. VI-B). The
//! mapping matters: the locality of CG's first four phases, for instance,
//! only holds if consecutive ranks share a first-level switch. This module
//! provides the sequential (identity) mapping used in the paper plus the
//! alternatives commonly studied (random placement, round-robin across
//! switches), and a [`MappedNetwork`] adapter that applies a mapping
//! transparently underneath the replay engine.

use crate::network::{Network, NetworkError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use xgft_netsim::sim::Completion;
use xgft_netsim::{MessageId, SimReport};

/// A bijective assignment of MPI ranks (tasks) to processing nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    task_to_node: Vec<usize>,
}

impl Mapping {
    /// Build from an explicit assignment, validating bijectivity.
    pub fn new(task_to_node: Vec<usize>) -> Result<Self, String> {
        let n = task_to_node.len();
        let mut seen = vec![false; n];
        for &node in &task_to_node {
            if node >= n {
                return Err(format!("node {node} out of range for {n} tasks"));
            }
            if seen[node] {
                return Err(format!("node {node} assigned twice"));
            }
            seen[node] = true;
        }
        Ok(Mapping { task_to_node })
    }

    /// The sequential mapping used throughout the paper: rank `i` runs on
    /// node `i`.
    pub fn sequential(n: usize) -> Self {
        Mapping {
            task_to_node: (0..n).collect(),
        }
    }

    /// A uniformly random placement (reproducible from `seed`).
    pub fn random(n: usize, seed: u64) -> Self {
        let mut nodes: Vec<usize> = (0..n).collect();
        nodes.shuffle(&mut StdRng::seed_from_u64(seed));
        Mapping {
            task_to_node: nodes,
        }
    }

    /// Round-robin placement across `groups` equally sized groups of nodes
    /// (e.g. first-level switches): consecutive ranks land in different
    /// groups. Requires `groups` to divide `n`.
    pub fn round_robin(n: usize, groups: usize) -> Result<Self, String> {
        if groups == 0 || !n.is_multiple_of(groups) {
            return Err(format!("{groups} groups must evenly divide {n} tasks"));
        }
        let per_group = n / groups;
        let task_to_node = (0..n)
            .map(|task| {
                let group = task % groups;
                let slot = task / groups;
                group * per_group + slot
            })
            .collect();
        Ok(Mapping { task_to_node })
    }

    /// Number of tasks (= number of nodes).
    pub fn len(&self) -> usize {
        self.task_to_node.len()
    }

    /// True for the empty mapping.
    pub fn is_empty(&self) -> bool {
        self.task_to_node.is_empty()
    }

    /// The node a task runs on.
    pub fn node_of(&self, task: usize) -> usize {
        self.task_to_node[task]
    }

    /// True if this is the sequential mapping.
    pub fn is_sequential(&self) -> bool {
        self.task_to_node.iter().enumerate().all(|(t, &n)| t == n)
    }

    /// The (source, destination) node pairs induced by a set of task pairs —
    /// what a routing table must cover under this mapping.
    pub fn map_pairs(&self, pairs: &[(usize, usize)]) -> Vec<(usize, usize)> {
        pairs
            .iter()
            .map(|&(s, d)| (self.node_of(s), self.node_of(d)))
            .collect()
    }
}

/// A network adapter that places ranks on nodes according to a [`Mapping`]:
/// rank-level sends are translated to node-level messages before reaching
/// the wrapped network.
#[derive(Debug)]
pub struct MappedNetwork<N> {
    inner: N,
    mapping: Mapping,
}

impl<N: Network> MappedNetwork<N> {
    /// Wrap a network with a mapping.
    pub fn new(inner: N, mapping: Mapping) -> Self {
        MappedNetwork { inner, mapping }
    }

    /// The mapping in use.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// The wrapped network.
    pub fn inner(&self) -> &N {
        &self.inner
    }
}

impl<N: Network> Network for MappedNetwork<N> {
    fn schedule_message(
        &mut self,
        at_ps: u64,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> Result<MessageId, NetworkError> {
        let s = self.mapping.node_of(src);
        let d = self.mapping.node_of(dst);
        self.inner.schedule_message(at_ps, s, d, bytes)
    }

    fn run_until_next_completion(&mut self) -> Option<Completion> {
        self.inner.run_until_next_completion()
    }

    fn now_ps(&self) -> u64 {
        self.inner.now_ps()
    }

    fn report(&self) -> SimReport {
        self.inner.report()
    }

    fn label(&self) -> String {
        if self.mapping.is_sequential() {
            self.inner.label()
        } else {
            format!("{} (remapped)", self.inner.label())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoutedNetwork;
    use crate::replay::ReplayEngine;
    use crate::workloads;
    use xgft_core::{CompiledRouteTable, DModK};
    use xgft_netsim::{NetworkConfig, NetworkSim};
    use xgft_topo::{Xgft, XgftSpec};

    #[test]
    fn constructors_and_validation() {
        assert!(Mapping::new(vec![0, 2, 1]).is_ok());
        assert!(Mapping::new(vec![0, 0, 1]).is_err());
        assert!(Mapping::new(vec![0, 3, 1]).is_err());
        let seq = Mapping::sequential(8);
        assert!(seq.is_sequential());
        assert_eq!(seq.len(), 8);
        let rand = Mapping::random(64, 3);
        assert_eq!(Mapping::random(64, 3), rand);
        assert_ne!(Mapping::random(64, 4), rand);
        assert!(!rand.is_sequential() || rand.len() < 2);
    }

    #[test]
    fn round_robin_spreads_consecutive_tasks() {
        let m = Mapping::round_robin(16, 4).unwrap();
        // Tasks 0..4 land in different groups of 4 nodes.
        let groups: std::collections::HashSet<usize> = (0..4).map(|t| m.node_of(t) / 4).collect();
        assert_eq!(groups.len(), 4);
        // Bijective.
        let mut nodes: Vec<usize> = (0..16).map(|t| m.node_of(t)).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (0..16).collect::<Vec<_>>());
        assert!(Mapping::round_robin(16, 5).is_err());
        assert!(Mapping::round_robin(16, 0).is_err());
    }

    #[test]
    fn map_pairs_translates_both_endpoints() {
        let m = Mapping::new(vec![2, 0, 1]).unwrap();
        assert_eq!(m.map_pairs(&[(0, 1), (1, 2)]), vec![(2, 0), (0, 1)]);
    }

    /// CG's local phases stop being switch-local under a round-robin
    /// placement, so the same trace gets slower — the mapping matters and
    /// the MappedNetwork plumbing is exercised end to end.
    #[test]
    fn remapping_cg_breaks_locality_and_costs_time() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 2).unwrap()).unwrap();
        let trace = workloads::cg_d_trace(64, 8 * 1024);
        let config = NetworkConfig::default();

        let run_with = |mapping: Mapping| {
            let pairs = mapping.map_pairs(&trace.communication_pairs());
            let table = CompiledRouteTable::compile(&xgft, &DModK::new(), pairs);
            let net = MappedNetwork::new(
                RoutedNetwork::with_source(NetworkSim::new(&xgft, config.clone()), table),
                mapping,
            );
            ReplayEngine::new(&trace).run(net).unwrap().completion_ps
        };

        let sequential = run_with(Mapping::sequential(64));
        let spread = run_with(Mapping::round_robin(64, 8).unwrap());
        assert!(
            spread > sequential,
            "breaking the switch locality must cost time: {spread} <= {sequential}"
        );
    }

    #[test]
    fn sequential_mapping_is_transparent() {
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
        let table = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        let inner =
            RoutedNetwork::with_source(NetworkSim::new(&xgft, NetworkConfig::default()), table);
        let mut mapped = MappedNetwork::new(inner, Mapping::sequential(16));
        assert!(!mapped.label().contains("remapped"));
        Network::schedule_message(&mut mapped, 0, 0, 9, 2048).unwrap();
        assert!(mapped.run_until_next_completion().is_some());
        assert_eq!(mapped.report().completed_messages, 1);
        assert_eq!(mapped.mapping().len(), 16);
        assert_eq!(mapped.inner().table().algorithm(), "d-mod-k");
    }
}
