//! Fault sets and the degraded-topology view.
//!
//! The paper evaluates its oblivious schemes on pristine XGFTs, but the
//! practical appeal of *fixed* route choices is that they must keep working
//! without reconfiguration when hardware dies. This module supplies the
//! substrate for that scenario family:
//!
//! * [`FaultSet`] — a validated set of failed directed channels, built by
//!   failing individual channels, whole cables (both directions) or whole
//!   switches (every incident cable), or drawn from one of the deterministic
//!   samplers (uniform link failure at rate `p`, random switch kills,
//!   targeted per-level cuts). Samplers follow the workspace's SplitMix64
//!   seed discipline: the outcome is a pure function of `(topology, seed)`,
//!   independent of iteration order or thread count. Sets compose over
//!   time: [`FaultSet::merge`] unions incident sets (the chaos timeline in
//!   `xgft-analysis` rebuilds each epoch's cumulative set from its active
//!   incidents), and [`FaultSet::repair_channel`] / [`FaultSet::repair_cable`]
//!   clear individual faults for in-place repair modelling.
//! * [`DegradedXgft`] — a borrowed view of an [`Xgft`] with the fault set's
//!   channels masked out. Routing layers query it to test whether a route
//!   survives and to enumerate the channels a path may still use.
//!
//! Level-0 cables (the injection/ejection links of the processing nodes) are
//! excluded by the *samplers* — in a `w_1 = 1` tree a dead adapter link
//! disconnects its leaf outright, which is a node failure, not a routing
//! problem — but can still be failed explicitly through
//! [`FaultSet::fail_cable`] when that scenario is wanted.

use crate::channel::{ChannelId, ChannelTable, Direction};
use crate::error::TopologyError;
use crate::topology::{NodeRef, Xgft};
use std::fmt;

/// SplitMix64 finaliser: the canonical mixing function of the workspace's
/// seed discipline. Every consumer — the fault samplers here, the campaign
/// and resilience seed streams in `xgft-analysis` — must use this one
/// implementation so the derived streams can never silently diverge.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Map a mixed 64-bit value to a uniform `f64` in `[0, 1)`.
fn unit_f64(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A set of failed directed channels of one topology, kept as a dense mask
/// over the [`ChannelTable`] numbering.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSet {
    /// `failed[dense]` is true when that directed channel is dead.
    failed: Vec<bool>,
    num_failed: usize,
    /// Switches killed through [`FaultSet::fail_switch`], for reporting.
    killed_switches: Vec<NodeRef>,
}

impl FaultSet {
    /// The empty fault set for a topology (every channel alive).
    pub fn none(xgft: &Xgft) -> Self {
        FaultSet {
            failed: vec![false; xgft.channels().len()],
            num_failed: 0,
            killed_switches: Vec::new(),
        }
    }

    /// Fail one directed channel. Idempotent.
    pub fn fail_channel(&mut self, channels: &ChannelTable, ch: &ChannelId) {
        let dense = channels.index(ch);
        if !self.failed[dense] {
            self.failed[dense] = true;
            self.num_failed += 1;
        }
    }

    /// Fail both directed channels of the cable with its low end at
    /// `(level, low_index)` and up-port `up_port`. Idempotent.
    pub fn fail_cable(
        &mut self,
        channels: &ChannelTable,
        level: usize,
        low_index: usize,
        up_port: usize,
    ) {
        for dir in [Direction::Up, Direction::Down] {
            self.fail_channel(
                channels,
                &ChannelId {
                    level,
                    low_index,
                    up_port,
                    dir,
                },
            );
        }
    }

    /// Repair one directed channel: the inverse of
    /// [`FaultSet::fail_channel`]. Idempotent — repairing a live channel is
    /// a no-op.
    pub fn repair_channel(&mut self, channels: &ChannelTable, ch: &ChannelId) {
        let dense = channels.index(ch);
        if self.failed[dense] {
            self.failed[dense] = false;
            self.num_failed -= 1;
        }
    }

    /// Repair both directed channels of the cable with its low end at
    /// `(level, low_index)` and up-port `up_port`. Idempotent.
    ///
    /// Note that repairing cable-by-cable does not undo the bookkeeping of
    /// [`FaultSet::fail_switch`] (`killed_switches` is a report of what was
    /// explicitly killed); timeline consumers that mix switch kills with
    /// repairs should rebuild the cumulative set from its still-active
    /// incidents with [`FaultSet::merge`] instead of repairing in place.
    pub fn repair_cable(
        &mut self,
        channels: &ChannelTable,
        level: usize,
        low_index: usize,
        up_port: usize,
    ) {
        for dir in [Direction::Up, Direction::Down] {
            self.repair_channel(
                channels,
                &ChannelId {
                    level,
                    low_index,
                    up_port,
                    dir,
                },
            );
        }
    }

    /// Union another fault set into this one (same topology required; the
    /// mask lengths must match). Killed-switch reports concatenate without
    /// deduplication — each merge records one incident.
    ///
    /// # Panics
    /// Panics when the two sets were built for different channel numberings.
    pub fn merge(&mut self, other: &FaultSet) {
        assert_eq!(
            self.failed.len(),
            other.failed.len(),
            "cannot merge fault sets of different topologies"
        );
        for (dense, &dead) in other.failed.iter().enumerate() {
            if dead && !self.failed[dense] {
                self.failed[dense] = true;
                self.num_failed += 1;
            }
        }
        self.killed_switches
            .extend_from_slice(&other.killed_switches);
    }

    /// Kill a whole switch: every cable incident to it (towards its parents
    /// and towards its children) fails in both directions.
    ///
    /// # Panics
    /// Panics if `node` is a leaf (level 0) or out of range.
    #[expect(
        clippy::expect_used,
        reason = "the asserts make `node` a switch of `xgft`, so it has a label and a child on each of its m(level) down ports"
    )]
    pub fn fail_switch(&mut self, xgft: &Xgft, node: NodeRef) {
        assert!(
            node.level >= 1 && node.level <= xgft.height(),
            "fail_switch needs a switch, got level {}",
            node.level
        );
        assert!(
            node.index < xgft.nodes_at_level(node.level),
            "switch index {} out of range at level {}",
            node.index,
            node.level
        );
        let spec = xgft.spec();
        let channels = xgft.channels();
        // Cables towards the parents (absent for root switches).
        if node.level < xgft.height() {
            for port in 0..spec.w(node.level + 1) {
                self.fail_cable(channels, node.level, node.index, port);
            }
        }
        // Cables towards the children: the child's up-port onto this switch
        // is the switch's own W digit at its level.
        let label = xgft.node_label(node).expect("validated switch");
        let up_port = label.digit(node.level);
        for child_port in 0..spec.m(node.level) {
            let child = xgft
                .child_of(node, child_port)
                .expect("child ports are in range");
            self.fail_cable(channels, node.level - 1, child.index, up_port);
        }
        self.killed_switches.push(node);
    }

    /// Uniform link failure: every switch-to-switch cable (low end at level
    /// ≥ 1) dies independently with probability `rate`, both directions.
    /// Deterministic in `(topology, rate, seed)` regardless of enumeration
    /// order.
    pub fn uniform_links(xgft: &Xgft, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "failure rate must be in [0,1]");
        let mut faults = FaultSet::none(xgft);
        let spec = xgft.spec();
        let channels = xgft.channels();
        let stream = splitmix64(seed ^ 0xfa17_fa17_fa17_fa17);
        for level in 1..xgft.height() {
            for low in 0..spec.nodes_at_level(level) {
                for port in 0..spec.w(level + 1) {
                    // Key each cable by its dense Up-channel index so the
                    // draw is a pure function of (seed, cable).
                    let key = channels.index(&ChannelId {
                        level,
                        low_index: low,
                        up_port: port,
                        dir: Direction::Up,
                    });
                    if unit_f64(splitmix64(stream ^ key as u64)) < rate {
                        faults.fail_cable(channels, level, low, port);
                    }
                }
            }
        }
        faults
    }

    /// Kill `count` distinct switches at `level`, chosen by a seeded partial
    /// Fisher–Yates shuffle.
    ///
    /// # Panics
    /// Panics if `level` is 0 or `count` exceeds the number of switches at
    /// that level.
    pub fn random_switch_kills(xgft: &Xgft, level: usize, count: usize, seed: u64) -> Self {
        assert!(level >= 1, "leaves cannot be killed as switches");
        let n = xgft.nodes_at_level(level);
        assert!(count <= n, "cannot kill {count} of {n} switches");
        let mut faults = FaultSet::none(xgft);
        let mut pool: Vec<usize> = (0..n).collect();
        let mut state = splitmix64(seed ^ 0x5717_c4e5_u64 ^ (level as u64) << 32);
        for i in 0..count {
            state = splitmix64(state);
            let j = i + (state % (n - i) as u64) as usize;
            pool.swap(i, j);
            faults.fail_switch(
                xgft,
                NodeRef {
                    level,
                    index: pool[i],
                },
            );
        }
        faults
    }

    /// Targeted per-level cut: fail `count` distinct cables whose low end is
    /// at `cable_level` (≥ 1), chosen by a seeded partial Fisher–Yates
    /// shuffle over that level's cables.
    ///
    /// # Panics
    /// Panics if `cable_level` is 0 or at/above the root level, or `count`
    /// exceeds the cables at that level.
    pub fn targeted_level_cut(xgft: &Xgft, cable_level: usize, count: usize, seed: u64) -> Self {
        assert!(
            cable_level >= 1 && cable_level < xgft.height(),
            "cable level {cable_level} has no switch-to-switch cables"
        );
        let channels = xgft.channels();
        let n = channels.cables_at_level(cable_level);
        assert!(count <= n, "cannot cut {count} of {n} cables");
        let w = xgft.spec().w(cable_level + 1);
        let mut faults = FaultSet::none(xgft);
        let mut pool: Vec<usize> = (0..n).collect();
        let mut state = splitmix64(seed ^ 0xc07_c07_u64 ^ (cable_level as u64) << 32);
        for i in 0..count {
            state = splitmix64(state);
            let j = i + (state % (n - i) as u64) as usize;
            pool.swap(i, j);
            let cable = pool[i];
            faults.fail_cable(channels, cable_level, cable / w, cable % w);
        }
        faults
    }

    /// True when the directed channel with dense index `dense` is dead.
    #[inline]
    pub fn is_failed(&self, dense: usize) -> bool {
        self.failed[dense]
    }

    /// Number of failed directed channels.
    pub fn num_failed_channels(&self) -> usize {
        self.num_failed
    }

    /// True when nothing has failed.
    pub fn is_empty(&self) -> bool {
        self.num_failed == 0
    }

    /// Number of channels of the topology this set was built for (the mask
    /// length — used to validate the set against a [`ChannelTable`]).
    pub fn channels_len(&self) -> usize {
        self.failed.len()
    }

    /// The switches killed through [`FaultSet::fail_switch`].
    pub fn killed_switches(&self) -> &[NodeRef] {
        &self.killed_switches
    }

    /// Iterate the dense indices of every failed channel, ascending.
    pub fn iter_failed(&self) -> impl Iterator<Item = usize> + '_ {
        self.failed
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| i)
    }

    /// Validate the set against a topology: the channel mask must have been
    /// built for the same channel numbering.
    pub fn validate(&self, xgft: &Xgft) -> Result<(), TopologyError> {
        if self.failed.len() != xgft.channels().len() {
            return Err(TopologyError::InvalidRoute {
                reason: format!(
                    "fault set covers {} channels but the topology has {}",
                    self.failed.len(),
                    xgft.channels().len()
                ),
            });
        }
        Ok(())
    }
}

impl fmt::Display for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults[{} of {} channels, {} switches killed]",
            self.num_failed,
            self.failed.len(),
            self.killed_switches.len()
        )
    }
}

/// A borrowed degraded view of a topology: the wrapped [`Xgft`] with a
/// [`FaultSet`]'s channels masked out.
#[derive(Debug, Clone, Copy)]
pub struct DegradedXgft<'a> {
    xgft: &'a Xgft,
    faults: &'a FaultSet,
}

impl<'a> DegradedXgft<'a> {
    /// Pair a topology with a fault set (validated to match).
    pub fn new(xgft: &'a Xgft, faults: &'a FaultSet) -> Result<Self, TopologyError> {
        faults.validate(xgft)?;
        Ok(DegradedXgft { xgft, faults })
    }

    /// The underlying pristine topology.
    pub fn xgft(&self) -> &'a Xgft {
        self.xgft
    }

    /// The fault set masking this view.
    pub fn faults(&self) -> &'a FaultSet {
        self.faults
    }

    /// True when the channel with dense index `dense` is still alive.
    #[inline]
    pub fn channel_live(&self, dense: usize) -> bool {
        !self.faults.is_failed(dense)
    }

    /// True when every channel of the route's expanded path is alive.
    pub fn route_is_live(
        &self,
        s: usize,
        d: usize,
        route: &crate::route::Route,
    ) -> Result<bool, TopologyError> {
        let path = self.xgft.route_channels(s, d, route)?;
        Ok(path.iter().all(|&c| self.channel_live(c)))
    }

    /// The dense channel path of a route if every hop is alive, `None` when
    /// some hop is dead.
    pub fn live_route_channels(
        &self,
        s: usize,
        d: usize,
        route: &crate::route::Route,
    ) -> Result<Option<Vec<usize>>, TopologyError> {
        let path = self.xgft.route_channels(s, d, route)?;
        if path.iter().all(|&c| self.channel_live(c)) {
            Ok(Some(path))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::Route;
    use crate::spec::XgftSpec;

    fn two_level(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(4, w2).unwrap()).unwrap()
    }

    #[test]
    fn empty_set_masks_nothing() {
        let x = two_level(4);
        let f = FaultSet::none(&x);
        assert!(f.is_empty());
        assert_eq!(f.num_failed_channels(), 0);
        assert_eq!(f.channels_len(), x.channels().len());
        assert_eq!(f.iter_failed().count(), 0);
        let view = DegradedXgft::new(&x, &f).unwrap();
        for dense in 0..x.channels().len() {
            assert!(view.channel_live(dense));
        }
    }

    #[test]
    fn fail_cable_kills_both_directions_idempotently() {
        let x = two_level(4);
        let mut f = FaultSet::none(&x);
        f.fail_cable(x.channels(), 1, 2, 3);
        assert_eq!(f.num_failed_channels(), 2);
        f.fail_cable(x.channels(), 1, 2, 3);
        assert_eq!(f.num_failed_channels(), 2);
        for dir in [Direction::Up, Direction::Down] {
            let dense = x.channels().index(&ChannelId {
                level: 1,
                low_index: 2,
                up_port: 3,
                dir,
            });
            assert!(f.is_failed(dense));
        }
        assert!(f.to_string().contains("2 of"));
    }

    #[test]
    fn repair_restores_channels_idempotently() {
        let x = two_level(4);
        let mut f = FaultSet::none(&x);
        f.fail_cable(x.channels(), 1, 2, 3);
        assert_eq!(f.num_failed_channels(), 2);
        f.repair_cable(x.channels(), 1, 2, 3);
        assert!(f.is_empty());
        // Repairing a live cable is a no-op, not an underflow.
        f.repair_cable(x.channels(), 1, 2, 3);
        assert!(f.is_empty());
        // One direction at a time works too.
        f.fail_cable(x.channels(), 1, 0, 1);
        f.repair_channel(
            x.channels(),
            &ChannelId {
                level: 1,
                low_index: 0,
                up_port: 1,
                dir: Direction::Up,
            },
        );
        assert_eq!(f.num_failed_channels(), 1);
        let down = x.channels().index(&ChannelId {
            level: 1,
            low_index: 0,
            up_port: 1,
            dir: Direction::Down,
        });
        assert!(f.is_failed(down));
    }

    #[test]
    fn merge_unions_overlapping_incidents() {
        let x = two_level(4);
        let mut a = FaultSet::none(&x);
        a.fail_cable(x.channels(), 1, 0, 0);
        a.fail_cable(x.channels(), 1, 1, 1);
        let mut b = FaultSet::none(&x);
        b.fail_cable(x.channels(), 1, 1, 1); // overlaps a
        b.fail_switch(&x, NodeRef { level: 2, index: 0 });
        let mut merged = a.clone();
        merged.merge(&b);
        // Root 0's kill covers cable (1,0,0) too, so a and b overlap on two
        // cables (4 directed channels), each counted once.
        assert_eq!(
            merged.num_failed_channels(),
            a.num_failed_channels() + b.num_failed_channels() - 4
        );
        assert_eq!(merged.killed_switches(), b.killed_switches());
        for dense in a.iter_failed().chain(b.iter_failed()) {
            assert!(merged.is_failed(dense));
        }
        // Merging is idempotent on the channel mask.
        let again = {
            let mut m = merged.clone();
            m.merge(&b);
            m
        };
        assert_eq!(again.num_failed_channels(), merged.num_failed_channels());
    }

    #[test]
    fn fail_switch_cuts_every_incident_cable() {
        // Kill root 1 of the full 4-ary 2-tree: 4 down cables, no up cables.
        let x = two_level(4);
        let mut f = FaultSet::none(&x);
        f.fail_switch(&x, NodeRef { level: 2, index: 1 });
        assert_eq!(f.num_failed_channels(), 2 * 4);
        assert_eq!(f.killed_switches(), &[NodeRef { level: 2, index: 1 }]);
        // Every failed channel is a level-1 cable with up_port pointing at
        // the dead root.
        for dense in f.iter_failed() {
            let ch = x.channels().channel(dense);
            assert_eq!(ch.level, 1);
        }

        // Kill a level-1 switch: 4 up cables + 4 leaf cables.
        let mut g = FaultSet::none(&x);
        g.fail_switch(&x, NodeRef { level: 1, index: 0 });
        assert_eq!(g.num_failed_channels(), 2 * (4 + 4));
    }

    #[test]
    fn uniform_links_is_seed_deterministic_and_leaves_level0_alone() {
        let x = Xgft::new(XgftSpec::new(vec![4, 4, 4], vec![1, 3, 2]).unwrap()).unwrap();
        let a = FaultSet::uniform_links(&x, 0.3, 7);
        let b = FaultSet::uniform_links(&x, 0.3, 7);
        let c = FaultSet::uniform_links(&x, 0.3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should draw different cuts");
        assert!(!a.is_empty());
        for dense in a.iter_failed() {
            assert!(x.channels().channel(dense).level >= 1);
        }
        // Rate 0 and 1 are exact.
        assert!(FaultSet::uniform_links(&x, 0.0, 1).is_empty());
        let all = FaultSet::uniform_links(&x, 1.0, 1);
        let switch_cables: usize = (1..x.height())
            .map(|l| x.channels().cables_at_level(l))
            .sum();
        assert_eq!(all.num_failed_channels(), 2 * switch_cables);
    }

    #[test]
    fn switch_kills_and_level_cuts_are_deterministic() {
        let x = two_level(4);
        let a = FaultSet::random_switch_kills(&x, 2, 2, 5);
        let b = FaultSet::random_switch_kills(&x, 2, 2, 5);
        assert_eq!(a, b);
        assert_eq!(a.killed_switches().len(), 2);
        let cut = FaultSet::targeted_level_cut(&x, 1, 3, 11);
        assert_eq!(cut.num_failed_channels(), 6);
        assert_eq!(cut, FaultSet::targeted_level_cut(&x, 1, 3, 11));
        assert_ne!(cut, FaultSet::targeted_level_cut(&x, 1, 3, 12));
    }

    #[test]
    fn degraded_view_detects_dead_routes() {
        let x = two_level(4);
        let mut f = FaultSet::none(&x);
        // Kill the cable from switch 0 up to root 2.
        f.fail_cable(x.channels(), 1, 0, 2);
        let view = DegradedXgft::new(&x, &f).unwrap();
        // A cross-switch route through root 2 from switch 0 is dead...
        assert!(!view.route_is_live(0, 5, &Route::new(vec![0, 2])).unwrap());
        assert!(view
            .live_route_channels(0, 5, &Route::new(vec![0, 2]))
            .unwrap()
            .is_none());
        // ...but root 3 still works.
        assert!(view.route_is_live(0, 5, &Route::new(vec![0, 3])).unwrap());
        let path = view
            .live_route_channels(0, 5, &Route::new(vec![0, 3]))
            .unwrap()
            .unwrap();
        assert_eq!(path.len(), 4);
        // The reverse pair through root 2 ascends over a healthy cable but
        // descends over the dead cable's Down channel (fail_cable kills
        // both directions).
        assert!(!view.route_is_live(5, 0, &Route::new(vec![0, 2])).unwrap());
    }

    #[test]
    fn validation_rejects_mismatched_topologies() {
        let x = two_level(4);
        let other = Xgft::new(XgftSpec::slimmed_two_level(4, 2).unwrap()).unwrap();
        let f = FaultSet::none(&x);
        assert!(f.validate(&x).is_ok());
        assert!(f.validate(&other).is_err());
        assert!(DegradedXgft::new(&other, &f).is_err());
    }

    #[test]
    #[should_panic(expected = "switch")]
    fn killing_a_leaf_is_rejected() {
        let x = two_level(4);
        let mut f = FaultSet::none(&x);
        f.fail_switch(&x, NodeRef { level: 0, index: 0 });
    }
}
