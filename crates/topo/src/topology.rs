//! The [`Xgft`] topology object: node enumeration, adjacency, NCA levels and
//! route expansion.

use crate::channel::{ChannelId, ChannelTable, Direction};
use crate::error::TopologyError;
use crate::label::NodeLabel;
use crate::nca::NcaSet;
use crate::route::{Hop, Route};
use crate::spec::XgftSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A reference to a node of the XGFT: its level and its index within the
/// level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeRef {
    /// Level of the node (0 = leaf / processing node, `h` = root switches).
    pub level: usize,
    /// Index of the node within its level.
    pub index: usize,
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}:{}", self.level, self.index)
    }
}

/// An instantiated XGFT topology.
///
/// Construction precomputes the digit decomposition of every leaf, so route
/// and NCA queries are O(height) with no divisions in the hot path. The
/// digits live in one flat array, `height` per leaf, so a million-leaf
/// machine costs one allocation rather than one per leaf.
#[derive(Debug, Clone)]
pub struct Xgft {
    spec: XgftSpec,
    channels: ChannelTable,
    /// Digits (least significant first) of every leaf label, leaf after
    /// leaf: leaf `i` owns `leaf_digits[i·h .. (i+1)·h]`.
    leaf_digits: Vec<usize>,
}

impl Xgft {
    /// Build a topology from its specification.
    pub fn new(spec: XgftSpec) -> Result<Self, TopologyError> {
        let h = spec.height();
        let mut leaf_digits = Vec::with_capacity(spec.num_leaves() * h);
        // The level-0 mixed-radix decomposition of `NodeLabel::from_index`.
        for leaf in 0..spec.num_leaves() {
            let mut rem = leaf;
            for pos in 1..=h {
                leaf_digits.push(rem % spec.m(pos));
                rem /= spec.m(pos);
            }
        }
        let channels = ChannelTable::new(&spec);
        Ok(Xgft {
            spec,
            channels,
            leaf_digits,
        })
    }

    /// Convenience constructor for k-ary n-trees.
    ///
    /// # Panics
    /// Panics if `k == 0` or `n == 0`.
    #[expect(
        clippy::expect_used,
        reason = "`Xgft::new` accepts every `XgftSpec`; the spec constructors do the validation"
    )]
    pub fn k_ary_n_tree(k: usize, n: usize) -> Self {
        Xgft::new(XgftSpec::k_ary_n_tree(k, n)).expect("k-ary n-tree specs are always valid")
    }

    /// The specification of this topology.
    pub fn spec(&self) -> &XgftSpec {
        &self.spec
    }

    /// The channel (link) table of this topology.
    pub fn channels(&self) -> &ChannelTable {
        &self.channels
    }

    /// Height (number of switch levels).
    pub fn height(&self) -> usize {
        self.spec.height()
    }

    /// Number of leaf (processing) nodes.
    pub fn num_leaves(&self) -> usize {
        self.leaf_digits.len() / self.height()
    }

    /// Number of nodes at a level.
    pub fn nodes_at_level(&self, level: usize) -> usize {
        self.spec.nodes_at_level(level)
    }

    /// Total number of switches (inner nodes), Eq. (1) of the paper.
    pub fn num_switches(&self) -> usize {
        self.spec.inner_switches()
    }

    /// The label of an arbitrary node.
    pub fn node_label(&self, node: NodeRef) -> Result<NodeLabel, TopologyError> {
        NodeLabel::from_index(&self.spec, node.level, node.index)
    }

    /// The node referenced by a label.
    pub fn node_ref(&self, label: &NodeLabel) -> NodeRef {
        NodeRef {
            level: label.level(),
            index: label.to_index(&self.spec),
        }
    }

    /// The digit at `pos` (1-based) of a leaf's label, without allocating.
    pub fn leaf_digit(&self, leaf: usize, pos: usize) -> usize {
        self.leaf_digits(leaf)[pos - 1]
    }

    /// All digits of a leaf's label (least significant first).
    pub fn leaf_digits(&self, leaf: usize) -> &[usize] {
        let h = self.height();
        &self.leaf_digits[leaf * h..(leaf + 1) * h]
    }

    /// The label of a leaf.
    pub fn leaf_label(&self, leaf: usize) -> Result<NodeLabel, TopologyError> {
        if leaf >= self.num_leaves() {
            return Err(TopologyError::LeafOutOfRange {
                leaf,
                num_leaves: self.num_leaves(),
            });
        }
        NodeLabel::from_index(&self.spec, 0, leaf)
    }

    /// The parent of `node` reached through up-port `port`.
    pub fn parent_of(&self, node: NodeRef, port: usize) -> Result<NodeRef, TopologyError> {
        let label = self.node_label(node)?;
        let parent = label.parent(&self.spec, port)?;
        Ok(self.node_ref(&parent))
    }

    /// The child of `node` reached through down-port `port`.
    pub fn child_of(&self, node: NodeRef, port: usize) -> Result<NodeRef, TopologyError> {
        let label = self.node_label(node)?;
        let child = label.child(&self.spec, port)?;
        Ok(self.node_ref(&child))
    }

    /// The level at which the Nearest Common Ancestors of two leaves live:
    /// the highest digit position where their labels differ (0 if `s == d`).
    pub fn nca_level(&self, s: usize, d: usize) -> usize {
        if s == d {
            return 0;
        }
        let sd = self.leaf_digits(s);
        let dd = self.leaf_digits(d);
        for pos in (1..=self.height()).rev() {
            if sd[pos - 1] != dd[pos - 1] {
                return pos;
            }
        }
        0
    }

    /// The set of NCAs available to the pair `(s, d)`.
    pub fn ncas(&self, s: usize, d: usize) -> Result<NcaSet, TopologyError> {
        if s >= self.num_leaves() {
            return Err(TopologyError::LeafOutOfRange {
                leaf: s,
                num_leaves: self.num_leaves(),
            });
        }
        if d >= self.num_leaves() {
            return Err(TopologyError::LeafOutOfRange {
                leaf: d,
                num_leaves: self.num_leaves(),
            });
        }
        let level = self.nca_level(s, d);
        Ok(NcaSet::new(&self.spec, self.leaf_digits(s), level))
    }

    /// Validate a route for the pair `(s, d)`: its length must equal the NCA
    /// level and each port must be within the level's parent arity.
    pub fn validate_route(&self, s: usize, d: usize, route: &Route) -> Result<(), TopologyError> {
        let level = self.nca_level(s, d);
        if route.nca_level() != level {
            return Err(TopologyError::InvalidRoute {
                reason: format!(
                    "route climbs to level {} but NCA level of ({s},{d}) is {level}",
                    route.nca_level()
                ),
            });
        }
        for l in 0..route.nca_level() {
            let w = self.spec.w(l + 1);
            if route.up_port(l) >= w {
                return Err(TopologyError::PortOutOfRange {
                    level: l,
                    port: route.up_port(l),
                    available: w,
                });
            }
        }
        Ok(())
    }

    /// The NCA switch reached by a route from `s` (the route's up-ports are
    /// the W digits of the NCA, the remaining digits come from `s`).
    pub fn nca_of_route(&self, s: usize, route: &Route) -> Result<NodeRef, TopologyError> {
        let level = route.nca_level();
        if level > self.height() {
            return Err(TopologyError::InvalidRoute {
                reason: format!("route level {level} exceeds height {}", self.height()),
            });
        }
        let mut digits = self.leaf_digits(s).to_vec();
        for (l, digit) in digits.iter_mut().enumerate().take(level) {
            if route.up_port(l) >= self.spec.w(l + 1) {
                return Err(TopologyError::PortOutOfRange {
                    level: l,
                    port: route.up_port(l),
                    available: self.spec.w(l + 1),
                });
            }
            *digit = route.up_port(l);
        }
        let label = NodeLabel::new(&self.spec, level, digits)?;
        Ok(self.node_ref(&label))
    }

    /// Expand a route for `(s, d)` into the sequence of hops (directed
    /// channels) it traverses: the ascent from `s` to the NCA followed by the
    /// unique descent to `d`.
    ///
    /// Returns an empty path when `s == d`.
    pub fn route_path(&self, s: usize, d: usize, route: &Route) -> Result<Vec<Hop>, TopologyError> {
        self.validate_route(s, d, route)?;
        if s == d {
            return Ok(vec![]);
        }
        let level = route.nca_level();
        let mut hops = Vec::with_capacity(2 * level);

        // Ascent: at each level l (0-based), digits 1..=l have been replaced
        // by the route's ports, the rest still come from s.
        let mut cur_digits = self.leaf_digits(s).to_vec();
        let mut cur = NodeRef { level: 0, index: s };
        for l in 0..level {
            let port = route.up_port(l);
            let channel = ChannelId {
                level: l,
                low_index: cur.index,
                up_port: port,
                dir: Direction::Up,
            };
            cur_digits[l] = port;
            let next_label = NodeLabel::new(&self.spec, l + 1, cur_digits.clone())?;
            let next = self.node_ref(&next_label);
            hops.push(Hop {
                from: cur,
                to: next,
                channel,
            });
            cur = next;
        }

        // Descent: at each level l (from `level` down to 1) take the child
        // whose position-l digit equals d's digit.
        let d_digits = self.leaf_digits(d);
        for l in (1..=level).rev() {
            // The cable used on this descent is identified by its low end
            // (the level l-1 node) and the W_l digit of the node being left.
            let upper_w_digit = cur_digits[l - 1];
            cur_digits[l - 1] = d_digits[l - 1];
            let next_label = NodeLabel::new(&self.spec, l - 1, cur_digits.clone())?;
            let next = self.node_ref(&next_label);
            let channel = ChannelId {
                level: l - 1,
                low_index: next.index,
                up_port: upper_w_digit,
                dir: Direction::Down,
            };
            hops.push(Hop {
                from: cur,
                to: next,
                channel,
            });
            cur = next;
        }
        debug_assert_eq!(cur.level, 0);
        debug_assert_eq!(cur.index, d);
        Ok(hops)
    }

    /// The dense channel indices traversed by a route (convenience wrapper
    /// around [`Xgft::route_path`] for simulators and load accounting).
    pub fn route_channels(
        &self,
        s: usize,
        d: usize,
        route: &Route,
    ) -> Result<Vec<usize>, TopologyError> {
        let path = self.route_path(s, d, route)?;
        Ok(path
            .iter()
            .map(|hop| self.channels.index(&hop.channel))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, w2).unwrap()).unwrap()
    }

    #[test]
    fn nca_level_same_switch_vs_cross_switch() {
        let x = two_level(16);
        // Leaves 0..16 share the first level-1 switch.
        assert_eq!(x.nca_level(3, 7), 1);
        assert_eq!(x.nca_level(3, 3), 0);
        // Leaves in different switches need a root.
        assert_eq!(x.nca_level(3, 16), 2);
        assert_eq!(x.nca_level(255, 0), 2);
    }

    #[test]
    fn nca_level_is_symmetric() {
        let x = Xgft::k_ary_n_tree(4, 3);
        for s in 0..x.num_leaves() {
            for d in 0..x.num_leaves() {
                assert_eq!(x.nca_level(s, d), x.nca_level(d, s));
            }
        }
    }

    #[test]
    fn route_path_two_level_cross_switch() {
        let x = two_level(16);
        let route = Route::new(vec![0, 7]);
        let path = x.route_path(0, 20, &route).unwrap();
        assert_eq!(path.len(), 4);
        // Ascent: leaf 0 -> switch 0 -> root 7.
        assert_eq!(path[0].from, NodeRef { level: 0, index: 0 });
        assert_eq!(path[0].to, NodeRef { level: 1, index: 0 });
        assert_eq!(path[1].to, NodeRef { level: 2, index: 7 });
        // Descent: root 7 -> switch 1 -> leaf 20.
        assert_eq!(path[2].to, NodeRef { level: 1, index: 1 });
        assert_eq!(
            path[3].to,
            NodeRef {
                level: 0,
                index: 20
            }
        );
        // Channel directions alternate up,up,down,down.
        assert_eq!(path[0].channel.dir, Direction::Up);
        assert_eq!(path[1].channel.dir, Direction::Up);
        assert_eq!(path[2].channel.dir, Direction::Down);
        assert_eq!(path[3].channel.dir, Direction::Down);
    }

    #[test]
    fn route_path_same_switch() {
        let x = two_level(8);
        let route = Route::new(vec![0]);
        let path = x.route_path(5, 9, &route).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].to, NodeRef { level: 1, index: 0 });
        assert_eq!(path[1].to, NodeRef { level: 0, index: 9 });
    }

    #[test]
    fn route_path_endpoints_always_correct() {
        let x = Xgft::k_ary_n_tree(3, 3);
        for s in [0usize, 5, 13, 26] {
            for d in 0..x.num_leaves() {
                if s == d {
                    continue;
                }
                let level = x.nca_level(s, d);
                // Route through port 0 at every hop, plus the "last" port.
                let ports: Vec<usize> = (0..level)
                    .map(|l| (s + d + l) % x.spec().w(l + 1))
                    .collect();
                let route = Route::new(ports);
                let path = x.route_path(s, d, &route).unwrap();
                assert_eq!(path.len(), 2 * level);
                assert_eq!(path.first().unwrap().from, NodeRef { level: 0, index: s });
                assert_eq!(path.last().unwrap().to, NodeRef { level: 0, index: d });
                // Consecutive hops are connected.
                for w in path.windows(2) {
                    assert_eq!(w[0].to, w[1].from);
                }
            }
        }
    }

    #[test]
    fn nca_of_route_matches_path_apex() {
        let x = two_level(10);
        let route = Route::new(vec![0, 6]);
        let nca = x.nca_of_route(33, &route).unwrap();
        assert_eq!(nca, NodeRef { level: 2, index: 6 });
        let path = x.route_path(33, 250, &route).unwrap();
        assert_eq!(path[1].to, nca);
    }

    #[test]
    fn invalid_routes_are_rejected() {
        let x = two_level(10);
        // Wrong length.
        assert!(x.validate_route(0, 20, &Route::new(vec![0])).is_err());
        // Port out of range for slimmed level (w2 = 10).
        assert!(x.validate_route(0, 20, &Route::new(vec![0, 12])).is_err());
        assert!(x.validate_route(0, 20, &Route::new(vec![0, 9])).is_ok());
        // Same-switch pair must not climb to the root.
        assert!(x.validate_route(0, 5, &Route::new(vec![0, 3])).is_err());
    }

    #[test]
    fn leaf_label_errors() {
        let x = two_level(4);
        assert!(x.leaf_label(256).is_err());
        assert!(x.leaf_label(255).is_ok());
    }

    #[test]
    fn parent_child_adjacency_is_consistent() {
        let x = Xgft::new(XgftSpec::new(vec![4, 3, 2], vec![1, 2, 3]).unwrap()).unwrap();
        for level in 0..x.height() {
            for idx in 0..x.nodes_at_level(level) {
                let node = NodeRef { level, index: idx };
                for port in 0..x.spec().w(level + 1) {
                    let parent = x.parent_of(node, port).unwrap();
                    assert_eq!(parent.level, level + 1);
                    // The parent must have this node among its children.
                    let node_label = x.node_label(node).unwrap();
                    let down_port = node_label.digit(level + 1);
                    let back = x.child_of(parent, down_port).unwrap();
                    assert_eq!(back, node);
                }
            }
        }
    }

    #[test]
    fn route_channels_are_distinct_within_a_path() {
        let x = two_level(16);
        let route = Route::new(vec![0, 3]);
        let channels = x.route_channels(17, 200, &route).unwrap();
        let mut sorted = channels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), channels.len());
    }

    #[test]
    fn three_level_path_visits_each_level_once_up_and_down() {
        let x = Xgft::k_ary_n_tree(4, 3);
        let s = 0usize;
        let d = 63usize; // differs in the top digit -> NCA at level 3
        assert_eq!(x.nca_level(s, d), 3);
        let route = Route::new(vec![0, 2, 3]);
        let path = x.route_path(s, d, &route).unwrap();
        assert_eq!(path.len(), 6);
        let levels: Vec<usize> = path.iter().map(|h| h.to.level).collect();
        assert_eq!(levels, vec![1, 2, 3, 2, 1, 0]);
    }
}
