//! The balanced random relabeling at the heart of the proposed r-NCA family
//! (Sec. VIII of the paper).
//!
//! The paper describes the proposal as a *relabeling* of the nodes followed
//! by the usual mod-style self-routing on the new labels: a recursive
//! scramble of the uppermost subtrees, then independent scrambles of each
//! lower subtree, preserving topological neighbourhoods. For general XGFTs
//! the labels must map the `m_i` child digits onto the `w_{i+1}` parent
//! ports ("map the m's to w's"), otherwise the modulo wrap re-creates the
//! imbalance of Fig. 4(b). The resulting functions
//! `W_i(M_h, …, M_{i+1})(M_i) : [0, m_i) → [0, w_{i+1})` are *balanced*
//! random maps: every port value receives either `⌊m_i/w_{i+1}⌋` or
//! `⌈m_i/w_{i+1}⌉` child values.
//!
//! [`RelabelMaps`] stores one such map per (digit position, subtree context)
//! and is shared by [`crate::RandomNcaUp`] and [`crate::RandomNcaDown`].
//! With the maps fixed to `c ↦ c mod w_{i+1}` the machinery reproduces
//! S-mod-k / D-mod-k exactly, which is used as a cross-check in the tests.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use xgft_topo::{Xgft, XgftSpec};

/// How the child-digit → parent-port maps are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapStyle {
    /// The paper's proposal: balanced random maps.
    BalancedRandom,
    /// Ablation: unconstrained uniform random maps.
    UnbalancedRandom,
    /// Degenerate `c mod w` maps (S-mod-k / D-mod-k).
    Modulo,
}

/// The per-level, per-subtree balanced maps from child digit values to
/// parent ports.
#[derive(Debug, Clone)]
pub struct RelabelMaps {
    spec: XgftSpec,
    /// `maps[l - 1]` (for digit position `l`, `1 ≤ l < h`): one map per
    /// subtree context; each map has `m_l` entries with values in
    /// `[0, w_{l+1})`. Contexts are indexed by the mixed-radix number formed
    /// by the guiding label's digits above position `l` (position `l+1`
    /// least significant).
    maps: Vec<Vec<Vec<usize>>>,
    seed: u64,
}

impl RelabelMaps {
    /// Draw a fresh set of balanced random maps for `xgft`, reproducible
    /// from `seed`.
    pub fn random(xgft: &Xgft, seed: u64) -> Self {
        Self::build(xgft.spec().clone(), seed, MapStyle::BalancedRandom)
    }

    /// The degenerate maps `c ↦ c mod w_{l+1}` that reproduce the classic
    /// mod-k schemes (used for testing and for ablation benchmarks).
    pub fn modulo(xgft: &Xgft) -> Self {
        Self::build(xgft.spec().clone(), 0, MapStyle::Modulo)
    }

    /// Ablation variant: each child digit is mapped to a uniformly random
    /// port **without** the balancing constraint. On slimmed trees some
    /// ports end up serving more children than others, re-creating part of
    /// the Fig. 4(b) imbalance the balanced maps were designed to avoid.
    /// Kept for the ablation experiment and benchmarks.
    pub fn unbalanced_random(xgft: &Xgft, seed: u64) -> Self {
        Self::build(xgft.spec().clone(), seed, MapStyle::UnbalancedRandom)
    }

    fn build(spec: XgftSpec, seed: u64, style: MapStyle) -> Self {
        let h = spec.height();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut maps = Vec::with_capacity(h.saturating_sub(1));
        for l in 1..h {
            let m_l = spec.m(l);
            let w_next = spec.w(l + 1);
            let num_contexts: usize = ((l + 1)..=h).map(|j| spec.m(j)).product();
            let mut per_context = Vec::with_capacity(num_contexts);
            for _ in 0..num_contexts {
                let targets = match style {
                    MapStyle::BalancedRandom => {
                        // Balanced random map: every port receives
                        // floor(m_l / w_next) children, a random subset of
                        // (m_l mod w_next) ports receives one extra, and the
                        // association child -> port is itself shuffled.
                        let base = m_l / w_next;
                        let extra = m_l % w_next;
                        let mut port_order: Vec<usize> = (0..w_next).collect();
                        port_order.shuffle(&mut rng);
                        let mut targets = Vec::with_capacity(m_l);
                        for (rank, &port) in port_order.iter().enumerate() {
                            let count = base + usize::from(rank < extra);
                            targets.extend(std::iter::repeat_n(port, count));
                        }
                        targets.shuffle(&mut rng);
                        targets
                    }
                    MapStyle::UnbalancedRandom => (0..m_l)
                        .map(|_| rand::Rng::gen_range(&mut rng, 0..w_next))
                        .collect(),
                    // Degenerate modulo map: child c goes to port c mod w.
                    MapStyle::Modulo => (0..m_l).map(|c| c % w_next).collect(),
                };
                per_context.push(targets);
            }
            maps.push(per_context);
        }
        RelabelMaps { spec, maps, seed }
    }

    /// The seed the maps were drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spec the maps were built for.
    pub fn spec(&self) -> &XgftSpec {
        &self.spec
    }

    /// The context index of a guiding leaf at digit position `l`: the
    /// mixed-radix number formed by its digits above `l`.
    fn context_index(&self, digits: &[usize], l: usize) -> usize {
        let h = self.spec.height();
        let mut idx = 0usize;
        for pos in ((l + 1)..=h).rev() {
            idx = idx * self.spec.m(pos) + digits[pos - 1];
        }
        idx
    }

    /// The up-port chosen at a level-`l` switch (hop into level `l+1`,
    /// `1 ≤ l < h`) when guided by a leaf with the given label digits
    /// (least-significant first): no topology object needed, just the
    /// digits.
    pub fn port_for_digits(&self, digits: &[usize], l: usize) -> usize {
        self.port_in_context(l, self.context_index(digits, l), digits[l - 1])
    }

    /// The up-port chosen at a level-`l` switch (`1 ≤ l < h`) for a guiding
    /// leaf whose digits above position `l` form the context index
    /// `context` and whose digit at position `l` is `digit` — the form the
    /// closed-form [`crate::CompactRoutes`] walk reads straight off the
    /// leaf index (`context` is the leaf index divided by `m_1⋯m_l`).
    pub(crate) fn port_in_context(&self, l: usize, context: usize, digit: usize) -> usize {
        self.maps[l - 1][context][digit]
    }

    /// The up-port chosen at a level-`l` switch (hop into level `l+1`,
    /// `1 ≤ l < h`) when guided by `leaf`.
    pub fn port_at(&self, xgft: &Xgft, leaf: usize, l: usize) -> usize {
        self.port_for_digits(xgft.leaf_digits(leaf), l)
    }

    /// Bytes of map payload held by the relabeling (the per-context target
    /// vectors plus their spines) — the scheme-state term of
    /// [`crate::CompactRoutes::storage_bytes`].
    pub fn storage_bytes(&self) -> usize {
        self.maps
            .iter()
            .map(|per_context| {
                std::mem::size_of_val(&per_context[..])
                    + per_context
                        .iter()
                        .map(|targets| std::mem::size_of_val(&targets[..]))
                        .sum::<usize>()
            })
            .sum()
    }

    /// The full up-port sequence guided by `leaf`, climbing to `level`.
    pub fn ports_to_level(&self, xgft: &Xgft, leaf: usize, level: usize) -> Vec<usize> {
        (0..level)
            .map(|l| {
                if l == 0 {
                    if self.spec.w(1) == 1 {
                        0
                    } else {
                        xgft.leaf_digit(leaf, 1) % self.spec.w(1)
                    }
                } else {
                    self.port_at(xgft, leaf, l)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modk::mod_route;
    use std::collections::HashMap;
    use xgft_topo::XgftSpec;

    #[test]
    fn maps_are_balanced() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 10).unwrap()).unwrap();
        let maps = RelabelMaps::random(&xgft, 7);
        // Digit position 1: every context's map sends 16 children onto 10
        // ports, each port receiving 1 or 2 children.
        for ctx_map in &maps.maps[0] {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for &v in ctx_map {
                assert!(v < 10);
                *counts.entry(v).or_default() += 1;
            }
            assert_eq!(counts.len(), 10);
            assert!(counts.values().all(|&c| c == 1 || c == 2));
        }
    }

    #[test]
    fn modulo_maps_reproduce_mod_k_routes() {
        let xgft = Xgft::new(XgftSpec::new(vec![4, 4, 4], vec![1, 3, 2]).unwrap()).unwrap();
        let maps = RelabelMaps::modulo(&xgft);
        for leaf in 0..xgft.num_leaves() {
            for level in 0..=xgft.height() {
                let via_maps = maps.ports_to_level(&xgft, leaf, level);
                let via_mod = mod_route(&xgft, leaf, level);
                assert_eq!(via_maps, via_mod.up_ports(), "leaf {leaf} level {level}");
            }
        }
    }

    #[test]
    fn same_seed_same_maps_different_seed_differs() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 16).unwrap()).unwrap();
        let a = RelabelMaps::random(&xgft, 5);
        let b = RelabelMaps::random(&xgft, 5);
        let c = RelabelMaps::random(&xgft, 6);
        let ports_a: Vec<usize> = (0..256).map(|leaf| a.port_at(&xgft, leaf, 1)).collect();
        let ports_b: Vec<usize> = (0..256).map(|leaf| b.port_at(&xgft, leaf, 1)).collect();
        let ports_c: Vec<usize> = (0..256).map(|leaf| c.port_at(&xgft, leaf, 1)).collect();
        assert_eq!(ports_a, ports_b);
        assert_ne!(ports_a, ports_c);
        assert_eq!(a.seed(), 5);
    }

    #[test]
    fn contexts_are_independent_per_subtree() {
        // Leaves with the same low digit but different upper digits may be
        // mapped to different ports (the scramble is per subtree).
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(16, 16).unwrap()).unwrap();
        let maps = RelabelMaps::random(&xgft, 11);
        let mut distinct = std::collections::HashSet::new();
        for upper in 0..16 {
            let leaf = upper * 16 + 3; // digit1 = 3, digit2 = upper
            distinct.insert(maps.port_at(&xgft, leaf, 1));
        }
        assert!(
            distinct.len() > 1,
            "per-subtree scrambles should not all agree"
        );
    }

    #[test]
    fn ports_respect_slimmed_width() {
        let xgft = Xgft::new(XgftSpec::new(vec![4, 4, 4], vec![1, 2, 3]).unwrap()).unwrap();
        let maps = RelabelMaps::random(&xgft, 3);
        for leaf in 0..xgft.num_leaves() {
            let ports = maps.ports_to_level(&xgft, leaf, 3);
            assert_eq!(ports[0], 0);
            assert!(ports[1] < 2);
            assert!(ports[2] < 3);
        }
    }

    #[test]
    fn balanced_even_when_wider_than_children() {
        // w_{l+1} > m_l: every port used at most once.
        let xgft = Xgft::new(XgftSpec::new(vec![3, 3], vec![1, 5]).unwrap()).unwrap();
        let maps = RelabelMaps::random(&xgft, 1);
        for ctx_map in &maps.maps[0] {
            let mut seen = std::collections::HashSet::new();
            for &v in ctx_map {
                assert!(v < 5);
                assert!(seen.insert(v), "port reused although w > m");
            }
        }
    }
}
