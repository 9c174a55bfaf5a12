//! Exact expected per-channel loads and maximum channel load (MCL).
//!
//! For a routing scheme with per-pair route distribution `P[(s,d) → r]`
//! (see [`xgft_core::RouteDistribution`]) and a traffic matrix `T`, the
//! expected load of a directed channel `c` is
//!
//! ```text
//!     E[load(c)] = Σ_{(s,d)} T(s,d) · Pr[route of (s,d) traverses c]
//! ```
//!
//! Because every scheme's distribution is in product form (independent port
//! choices per level), the traversal probability of a channel is the
//! probability of a route *prefix*, and the accumulation walks a frontier of
//! (node, probability) pairs up the tree instead of expanding whole routes:
//! up channels follow the ascent frontier of the source, down channels
//! follow the same construction guided by the destination (the descent at
//! level `j` is uniquely determined by the destination and the route's first
//! `j` ports).
//!
//! Two computation paths exist:
//!
//! * **Explicit flows** — one frontier walk per flow; exact for every
//!   scheme, including deterministic ones (point distributions degenerate to
//!   the plain path walk).
//! * **Uniform all-pairs closed form** — for schemes whose distribution is
//!   pair-invariant (Random, and the r-NCA family's seed marginal), the
//!   all-pairs sum collapses level-wise: a channel at level `l` with low
//!   node `v` and port `p` carries
//!
//!   ```text
//!       G(l) · A(l) · Π_{j≤l} q_j[v_j] · q_{l+1}[p]
//!   ```
//!
//!   where `G(l) = Π_{j≤l} m_j` is the number of leaves below `v`'s
//!   upper-digit subtree, `A(l) = Σ_{L>l} (m_L−1)·Π_{j<L} m_j` the number of
//!   partners per source whose NCA lies above `l`, and `q` the shared
//!   per-level port distributions. This is `O(channels · h)` — independent
//!   of the number of pairs — which is what makes tens-of-thousands-of-leaf
//!   machines analysable in well under a second.

use crate::traffic::TrafficMatrix;
use xgft_core::{RouteDist, RouteDistribution};
use xgft_topo::{ChannelId, Direction, NodeLabel, Xgft, XgftSpec};

/// The expected load of every directed channel, indexed by the dense
/// channel index of [`xgft_topo::ChannelTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedLoads {
    loads: Vec<f64>,
}

/// The linear index of the node at `level` with the given digit vector
/// (least-significant first) — [`NodeLabel::to_index`] without the label
/// allocation, for the hot accumulation loop.
fn node_index(spec: &XgftSpec, level: usize, digits: &[usize]) -> usize {
    let h = spec.height();
    let mut index = 0usize;
    for pos in (1..=h).rev() {
        index = index * NodeLabel::radix_at(spec, level, pos) + digits[pos - 1];
    }
    index
}

/// Walk the ascent frontier of `guide` under `dist`, adding
/// `weight × prefix probability` to every channel of direction `dir`
/// touched along the way.
fn accumulate_tower(
    xgft: &Xgft,
    guide: usize,
    dist: &RouteDist,
    weight: f64,
    dir: Direction,
    loads: &mut [f64],
) {
    let spec = xgft.spec();
    let channels = xgft.channels();
    let nca_level = dist.nca_level();
    let mut frontier: Vec<(Vec<usize>, f64)> = vec![(xgft.leaf_digits(guide).to_vec(), 1.0)];
    for l in 0..nca_level {
        let port_dist = dist.level_dist(l);
        let advance = l + 1 < nca_level;
        let mut next = Vec::new();
        for (digits, prob) in &frontier {
            let low_index = node_index(spec, l, digits);
            for (port, &q) in port_dist.iter().enumerate() {
                if q == 0.0 {
                    continue;
                }
                let idx = channels.index(&ChannelId {
                    level: l,
                    low_index,
                    up_port: port,
                    dir,
                });
                loads[idx] += weight * prob * q;
                if advance {
                    let mut parent = digits.clone();
                    parent[l] = port;
                    next.push((parent, prob * q));
                }
            }
        }
        if advance {
            frontier = next;
        }
    }
}

impl ExpectedLoads {
    /// Compute the expected load of every channel for `algo` under
    /// `traffic`.
    ///
    /// Uniform all-pairs traffic uses the `O(channels · h)` closed form when
    /// the scheme offers pair-invariant level distributions, and otherwise
    /// falls back to enumerating all `n(n−1)` ordered pairs (exact but
    /// quadratic — fine for the ≤ few-thousand-leaf instances deterministic
    /// schemes are cross-validated on).
    pub fn compute<A: RouteDistribution + ?Sized>(
        xgft: &Xgft,
        algo: &A,
        traffic: &TrafficMatrix,
    ) -> Self {
        xgft_obs::span!("flow.loads");
        assert_eq!(
            traffic.num_leaves(),
            xgft.num_leaves(),
            "traffic matrix and topology disagree on the number of leaves"
        );
        let mut loads = vec![0.0; xgft.channels().len()];
        let closed_form = traffic.uniform_weight().and_then(|weight| {
            algo.pair_invariant_levels(xgft)
                .map(|levels| (weight, levels))
        });
        match closed_form {
            Some((weight, levels)) => closed_form_uniform(xgft, &levels, weight, &mut loads),
            None => traffic.for_each_flow(|s, d, w| {
                let dist = algo.route_dist(xgft, s, d);
                accumulate_tower(xgft, s, &dist, w, Direction::Up, &mut loads);
                accumulate_tower(xgft, d, &dist, w, Direction::Down, &mut loads);
            }),
        }
        ExpectedLoads { loads }
    }

    /// The dense per-channel expected loads.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Maximum channel load over *all* channels, including the leaves'
    /// injection/ejection links (where endpoint contention shows up).
    pub fn mcl(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum channel load restricted to switch-to-switch channels
    /// (levels ≥ 1) — the routing-sensitive part of the MCL; level-0
    /// channels carry the same load under every minimal scheme.
    pub fn network_mcl(&self, xgft: &Xgft) -> f64 {
        let mut max = 0.0f64;
        for level in 1..xgft.height() {
            max = max.max(self.max_at_level(xgft, level, None));
        }
        max
    }

    /// Maximum load at one cable level, optionally restricted to a
    /// direction.
    pub fn max_at_level(&self, xgft: &Xgft, level: usize, dir: Option<Direction>) -> f64 {
        let channels = xgft.channels();
        channels
            .level_range(level)
            .filter(|&idx| dir.is_none_or(|d| channels.channel(idx).dir == d))
            .map(|idx| self.loads[idx])
            .fold(0.0, f64::max)
    }

    /// Sum of all channel loads (= total demand × expected path length).
    pub fn total(&self) -> f64 {
        self.loads.iter().sum()
    }

    /// Number of channels with non-zero expected load.
    pub fn used_channels(&self) -> usize {
        self.loads.iter().filter(|&&l| l > 0.0).count()
    }
}

/// The uniform-all-pairs closed form for pair-invariant product
/// distributions (see the module docs for the formula).
#[expect(clippy::expect_used, reason = "v ranges over the level's node indices")]
fn closed_form_uniform(xgft: &Xgft, levels: &[Vec<f64>], weight: f64, loads: &mut [f64]) {
    let spec = xgft.spec();
    let h = spec.height();
    let channels = xgft.channels();

    // cnt(L) = partners per source at NCA level exactly L;
    // A(l) = partners per source whose NCA lies strictly above l.
    let cnt: Vec<f64> = (1..=h)
        .map(|level| {
            let below: usize = (1..level).map(|j| spec.m(j)).product();
            ((spec.m(level) - 1) * below) as f64
        })
        .collect();
    let mut above = vec![0.0f64; h + 1];
    for l in (0..h).rev() {
        above[l] = above[l + 1] + cnt[l];
    }

    let mut leaves_below = 1.0f64; // G(l) = Π_{j≤l} m_j
    for l in 0..h {
        let a = above[l];
        if a == 0.0 {
            leaves_below *= spec.m(l + 1) as f64;
            continue;
        }
        let port_dist = &levels[l];
        for v in 0..spec.nodes_at_level(l) {
            let label = NodeLabel::from_index(spec, l, v).expect("node index in range");
            // Probability that an ascent reaches v: the product of the
            // per-level probabilities of v's W digits (empty product at the
            // leaf level).
            let prefix: f64 = (1..=l).map(|j| levels[j - 1][label.digit(j)]).product();
            if prefix == 0.0 {
                continue;
            }
            let base = weight * leaves_below * a * prefix;
            for (port, &q) in port_dist.iter().enumerate() {
                if q == 0.0 {
                    continue;
                }
                let value = base * q;
                for dir in [Direction::Up, Direction::Down] {
                    let idx = channels.index(&ChannelId {
                        level: l,
                        low_index: v,
                        up_port: port,
                        dir,
                    });
                    loads[idx] += value;
                }
            }
        }
        leaves_below *= spec.m(l + 1) as f64;
    }
}

/// The *expected* routes-per-NCA distribution (the Fig. 4 statistic in
/// closed form): for each level-`level` node, the expected number of
/// weighted routes whose apex lands on it, over the flows whose NCA level
/// equals `level`.
///
/// For deterministic schemes this reproduces
/// [`xgft_core::nca_route_distribution`] exactly; for randomised schemes it
/// is the seed-free expectation the paper's seed sweeps estimate.
pub fn expected_nca_distribution<A: RouteDistribution + ?Sized>(
    xgft: &Xgft,
    algo: &A,
    flows: impl IntoIterator<Item = (usize, usize, f64)>,
    level: usize,
) -> Vec<f64> {
    let spec = xgft.spec();
    let mut counts = vec![0.0f64; xgft.nodes_at_level(level)];
    for (s, d, weight) in flows {
        if s == d || xgft.nca_level(s, d) != level {
            continue;
        }
        let dist = algo.route_dist(xgft, s, d);
        debug_assert_eq!(dist.nca_level(), level);
        // Walk the ascent frontier to the apex.
        let mut frontier: Vec<(Vec<usize>, f64)> = vec![(xgft.leaf_digits(s).to_vec(), 1.0)];
        for l in 0..level {
            let port_dist = dist.level_dist(l);
            let mut next = Vec::new();
            for (digits, prob) in &frontier {
                for (port, &q) in port_dist.iter().enumerate() {
                    if q == 0.0 {
                        continue;
                    }
                    let mut parent = digits.clone();
                    parent[l] = port;
                    next.push((parent, prob * q));
                }
            }
            frontier = next;
        }
        for (digits, prob) in &frontier {
            counts[node_index(spec, level, digits)] += weight * prob;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_core::{nca_route_distribution, DModK, RandomNcaDown, RandomRouting, SModK};
    use xgft_topo::XgftSpec;

    fn two_level(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, w2).unwrap()).unwrap()
    }

    /// Reference computation: expand every route of the distribution and
    /// walk its concrete path.
    fn loads_by_expansion<A: RouteDistribution + ?Sized>(
        xgft: &Xgft,
        algo: &A,
        traffic: &TrafficMatrix,
    ) -> Vec<f64> {
        let mut loads = vec![0.0; xgft.channels().len()];
        traffic.for_each_flow(|s, d, w| {
            for (route, prob) in algo.route_dist(xgft, s, d).expand() {
                for idx in xgft.route_channels(s, d, &route).unwrap() {
                    loads[idx] += w * prob;
                }
            }
        });
        loads
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-6, "channel {i}: {x} vs {y}");
        }
    }

    #[test]
    fn frontier_accumulation_matches_route_expansion() {
        let xgft = two_level(10);
        let traffic = TrafficMatrix::from_flows(
            256,
            (0..256).map(|s| (s, (s * 7 + 13) % 256, 1.0 + (s % 3) as f64)),
        );
        for algo in [
            &RandomRouting::new(1) as &dyn RouteDistribution,
            &SModK::new(),
            &DModK::new(),
            &RandomNcaDown::new(&xgft, 5),
        ] {
            let fast = ExpectedLoads::compute(&xgft, algo, &traffic);
            let reference = loads_by_expansion(&xgft, algo, &traffic);
            assert_close(fast.loads(), &reference);
        }
    }

    #[test]
    fn closed_form_uniform_matches_pair_enumeration() {
        // Compare the O(channels) closed form against brute-force pair
        // enumeration on a slimmed two-level and a three-level tree.
        for xgft in [
            two_level(10),
            Xgft::new(XgftSpec::new(vec![4, 4, 4], vec![1, 3, 2]).unwrap()).unwrap(),
        ] {
            let algo = RandomRouting::new(3);
            let traffic = TrafficMatrix::uniform(xgft.num_leaves());
            let closed = ExpectedLoads::compute(&xgft, &algo, &traffic);
            let brute = loads_by_expansion(&xgft, &algo, &traffic);
            assert_close(closed.loads(), &brute);
        }
    }

    #[test]
    fn uniform_loads_have_the_textbook_values() {
        // XGFT(2;16,16;1,10), Random, all pairs: every injection link
        // carries 255 flows; every top-level channel 16·240/10 = 384.
        let xgft = two_level(10);
        let loads =
            ExpectedLoads::compute(&xgft, &RandomRouting::new(1), &TrafficMatrix::uniform(256));
        let channels = xgft.channels();
        for leaf in 0..256 {
            let inj = loads.loads()[channels.injection_channel(leaf)];
            assert!((inj - 255.0).abs() < 1e-9);
        }
        assert!((loads.max_at_level(&xgft, 1, Some(Direction::Up)) - 384.0).abs() < 1e-9);
        assert!((loads.mcl() - 384.0).abs() < 1e-9);
        assert!((loads.network_mcl(&xgft) - 384.0).abs() < 1e-9);
    }

    #[test]
    fn rnca_expected_loads_equal_random_expected_loads() {
        // The seed-marginal equivalence: expected (not per-draw!) channel
        // loads of the r-NCA family coincide with Random's.
        let xgft = two_level(7);
        let traffic = TrafficMatrix::uniform(256);
        let random = ExpectedLoads::compute(&xgft, &RandomRouting::new(1), &traffic);
        let rnca = ExpectedLoads::compute(&xgft, &RandomNcaDown::new(&xgft, 9), &traffic);
        assert_close(random.loads(), rnca.loads());
    }

    #[test]
    fn deterministic_uniform_fallback_is_exact() {
        // D-mod-k has no pair-invariant form; the quadratic fallback must
        // agree with route expansion.
        let xgft = Xgft::k_ary_n_tree(4, 2);
        let traffic = TrafficMatrix::uniform(16);
        let fast = ExpectedLoads::compute(&xgft, &DModK::new(), &traffic);
        let reference = loads_by_expansion(&xgft, &DModK::new(), &traffic);
        assert_close(fast.loads(), &reference);
        // All loads are integral for a deterministic scheme on unit weights.
        for &l in fast.loads() {
            assert!((l - l.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn total_load_equals_demand_times_path_length() {
        // Every unit of demand at NCA level L occupies exactly 2L channels
        // in expectation.
        let xgft = two_level(16);
        let traffic = TrafficMatrix::from_flows(256, vec![(0, 5, 2.0), (0, 100, 1.0)]);
        let loads = ExpectedLoads::compute(&xgft, &RandomRouting::new(2), &traffic);
        // (0,5) is intra-switch (L=1, 2 channels), (0,100) cross (L=2, 4).
        assert!((loads.total() - (2.0 * 2.0 + 1.0 * 4.0)).abs() < 1e-9);
        assert!(loads.used_channels() > 0);
    }

    #[test]
    fn expected_nca_distribution_matches_fig4() {
        let xgft = two_level(10);
        // Deterministic: must equal the integer Fig. 4 histogram.
        let n = xgft.num_leaves();
        let pairs: Vec<(usize, usize)> = (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect();
        let exact = nca_route_distribution(&xgft, &DModK::new(), pairs.iter().copied(), 2);
        let expected = expected_nca_distribution(
            &xgft,
            &DModK::new(),
            pairs.iter().map(|&(s, d)| (s, d, 1.0)),
            2,
        );
        for (e, x) in expected.iter().zip(&exact) {
            assert!((e - *x as f64).abs() < 1e-6);
        }
        // Random: the expectation is perfectly even — no seed sweep needed.
        let random = expected_nca_distribution(
            &xgft,
            &RandomRouting::new(42),
            pairs.iter().map(|&(s, d)| (s, d, 1.0)),
            2,
        );
        let per_root = 256.0 * 240.0 / 10.0;
        for r in &random {
            assert!((r - per_root).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn mismatched_traffic_is_rejected() {
        let xgft = two_level(4);
        let _ = ExpectedLoads::compute(&xgft, &DModK::new(), &TrafficMatrix::uniform(16));
    }
}
