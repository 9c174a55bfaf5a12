//! Tree-cut lower bounds on the optimal congestion, and the oblivious
//! congestion-ratio estimator.
//!
//! In an XGFT every set of leaves sharing their label digits above position
//! `l` (an "upper-digit subtree") is connected to the rest of the machine
//! exclusively through the up/down channels of its `Π_{j≤l} w_j` level-`l`
//! towers — `Π_{j≤l+1} w_j` channels per direction. Any routing (oblivious,
//! adaptive, or the optimum) must push every unit of demand leaving the
//! subtree through those up channels at least once, so
//!
//! ```text
//!     OPT ≥ max_{l, subtree}  demand crossing the subtree boundary
//!                             ─────────────────────────────────────
//!                                    Π_{j≤l+1} w_j
//! ```
//!
//! (and symmetrically for entering demand on the down channels). This is the
//! classic sparsest-cut-style certificate specialised to the tree's
//! hierarchical cut structure, in the spirit of the congestion benchmarks
//! used by the compact/hop-constrained oblivious-routing literature.
//!
//! Dividing a scheme's maximum expected channel load by the bound gives an
//! *upper estimate of the scheme's congestion-competitive ratio* on that
//! traffic: `ratio = MCL(scheme) / LB ≥ MCL(scheme) / MCL(OPT)`. A ratio of
//! 1 certifies the scheme as congestion-optimal for the instance.

use crate::loads::ExpectedLoads;
use crate::traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};
use xgft_core::RouteDistribution;
use xgft_topo::Xgft;

/// The tree-cut lower bound on the maximum channel load achievable by *any*
/// routing of a traffic matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutBound {
    /// The bound itself (same units as the traffic weights).
    pub bound: f64,
    /// The cable level of the binding cut (0 = leaf injection/ejection).
    pub critical_level: usize,
    /// The tightest bound obtained at each cable level.
    pub per_level: Vec<f64>,
}

/// Compute the tree-cut lower bound for `traffic` on `xgft`.
#[expect(clippy::expect_used, reason = "an Xgft has at least one level")]
pub fn tree_cut_lower_bound(xgft: &Xgft, traffic: &TrafficMatrix) -> CutBound {
    assert_eq!(
        traffic.num_leaves(),
        xgft.num_leaves(),
        "traffic matrix and topology disagree on the number of leaves"
    );
    let spec = xgft.spec();
    let h = spec.height();

    // Channels per direction on the boundary of a level-l subtree.
    let capacity = |l: usize| spec.ncas_at_level(l + 1) as f64;

    let per_level: Vec<f64> = if let Some(weight) = traffic.uniform_weight() {
        // Closed form: every level-l subtree has Π_{j≤l} m_j leaves, each
        // with A(l) partners outside the subtree (see the loads module).
        let mut group = 1.0f64;
        (0..h)
            .map(|l| {
                let mut above = 0.0f64;
                let mut below = 1.0f64;
                for level in 1..=h {
                    if level > l {
                        above += ((spec.m(level) - 1) as f64) * below;
                    }
                    below *= spec.m(level) as f64;
                }
                let demand = weight * group * above;
                group *= spec.m(l + 1) as f64;
                demand / capacity(l)
            })
            .collect()
    } else {
        // Per-subtree demand accounting: a flow with NCA level L crosses
        // the boundary of its source's (and destination's) level-l subtree
        // for every l < L, i.e. wherever the two labels differ in some
        // digit at position l or above. The level-l subtree of a leaf is
        // its label read from digit l upwards, `leaf / Π_{j≤l} m_j`; the
        // scan builds it from the top digit down by multiply-adds, with no
        // division.
        let radix = spec.m_vec();
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(h);
        let mut subtrees = xgft.num_leaves();
        for &m in radix {
            out.push(vec![0.0; subtrees]);
            subtrees /= m;
        }
        let mut into = out.clone();
        traffic.for_each_flow(|s, d, w| {
            let (sd, dd) = (xgft.leaf_digits(s), xgft.leaf_digits(d));
            let (mut si, mut di, mut crossed) = (0, 0, false);
            for l in (0..h).rev() {
                si = si * radix[l] + sd[l];
                di = di * radix[l] + dd[l];
                crossed |= sd[l] != dd[l];
                if crossed {
                    out[l][si] += w;
                    into[l][di] += w;
                }
            }
        });
        (0..h)
            .map(|l| {
                let worst = out[l]
                    .iter()
                    .chain(&into[l])
                    .copied()
                    .fold(0.0f64, f64::max);
                worst / capacity(l)
            })
            .collect()
    };

    let (critical_level, &bound) = per_level
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("a valid spec has at least one level");
    CutBound {
        bound,
        critical_level,
        per_level,
    }
}

/// A scheme's maximum expected channel load against the cut bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionRatio {
    /// Routing scheme name.
    pub algorithm: String,
    /// Maximum expected channel load of the scheme.
    pub mcl: f64,
    /// Tree-cut lower bound on any routing's maximum channel load.
    pub lower_bound: f64,
    /// `mcl / lower_bound` — an upper estimate of the scheme's
    /// congestion-competitive ratio on this traffic (1.0 = certified
    /// optimal).
    pub ratio: f64,
}

/// Estimate the oblivious congestion ratio of `algo` on `traffic`: its
/// exact expected MCL divided by the tree-cut lower bound.
pub fn oblivious_congestion_ratio<A: RouteDistribution + ?Sized>(
    xgft: &Xgft,
    algo: &A,
    traffic: &TrafficMatrix,
) -> CongestionRatio {
    let loads = ExpectedLoads::compute(xgft, algo, traffic);
    congestion_ratio_of(algo.name(), &loads, xgft, traffic)
}

/// The congestion ratio for loads that have already been computed.
pub fn congestion_ratio_of(
    algorithm: String,
    loads: &ExpectedLoads,
    xgft: &Xgft,
    traffic: &TrafficMatrix,
) -> CongestionRatio {
    let mcl = loads.mcl();
    let bound = tree_cut_lower_bound(xgft, traffic).bound;
    CongestionRatio {
        algorithm,
        mcl,
        lower_bound: bound,
        ratio: ratio_to_bound(mcl, bound),
    }
}

/// `mcl / bound`, the congestion ratio against the tree-cut lower bound.
/// A zero bound means no demand crosses any cut, so no routing congests
/// anything: the ratio is 1.0 (certified optimal), never a non-finite
/// value that JSON cannot carry.
pub fn ratio_to_bound(mcl: f64, bound: f64) -> f64 {
    if bound > 0.0 {
        mcl / bound
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xgft_core::{DModK, RandomRouting, SModK};
    use xgft_topo::XgftSpec;

    fn two_level(w2: usize) -> Xgft {
        Xgft::new(XgftSpec::slimmed_two_level(16, w2).unwrap()).unwrap()
    }

    #[test]
    fn a_zero_bound_gives_a_unit_ratio() {
        assert_eq!(ratio_to_bound(0.0, 0.0), 1.0);
        assert_eq!(ratio_to_bound(3.0, 2.0), 1.5);
    }

    #[test]
    fn uniform_bound_closed_form_matches_flow_accounting() {
        let xgft = two_level(10);
        let closed = tree_cut_lower_bound(&xgft, &TrafficMatrix::uniform(256));
        // Materialise the same traffic as explicit flows.
        let flows: Vec<(usize, usize, f64)> = (0..256)
            .flat_map(|s| (0..256).map(move |d| (s, d, 1.0)))
            .collect();
        let explicit = tree_cut_lower_bound(&xgft, &TrafficMatrix::from_flows(256, flows));
        assert_eq!(closed.per_level.len(), 2);
        for (a, b) in closed.per_level.iter().zip(&explicit.per_level) {
            assert!((a - b).abs() < 1e-6);
        }
        // Level 0: each leaf sends to 255 others over 1 link. Level 1:
        // 16 leaves x 240 cross-switch partners over 10 channels = 384.
        assert!((closed.per_level[0] - 255.0).abs() < 1e-9);
        assert!((closed.per_level[1] - 384.0).abs() < 1e-9);
        assert_eq!(closed.critical_level, 1);
        assert!((closed.bound - 384.0).abs() < 1e-9);
    }

    #[test]
    fn random_is_congestion_optimal_on_uniform_traffic() {
        // Random's expected loads are perfectly even per level, so its MCL
        // meets the cut bound exactly: ratio 1.
        let xgft = two_level(10);
        let traffic = TrafficMatrix::uniform(256);
        let cr = oblivious_congestion_ratio(&xgft, &RandomRouting::new(1), &traffic);
        assert!((cr.ratio - 1.0).abs() < 1e-9, "ratio {}", cr.ratio);
        assert_eq!(cr.algorithm, "random");
    }

    #[test]
    fn ratio_is_at_least_one() {
        // The bound is a true lower bound: no scheme can beat it.
        let xgft = two_level(6);
        for traffic in [
            TrafficMatrix::uniform(256),
            TrafficMatrix::from_flows(256, (0..256).map(|s| (s, (s + 16) % 256, 1.0))),
        ] {
            for algo in [
                &RandomRouting::new(2) as &dyn RouteDistribution,
                &SModK::new(),
                &DModK::new(),
            ] {
                let cr = oblivious_congestion_ratio(&xgft, algo, &traffic);
                assert!(
                    cr.ratio >= 1.0 - 1e-9,
                    "{} ratio {} below 1",
                    cr.algorithm,
                    cr.ratio
                );
            }
        }
    }

    #[test]
    fn dmodk_pathology_shows_up_as_a_large_ratio() {
        // The CG fifth-phase congruence: D-mod-k piles 8 flows of a switch
        // onto one up channel while the cut bound stays at ~1 flow per
        // channel width — the ratio exposes the pathology analytically.
        let xgft = two_level(16);
        let flows: Vec<(usize, usize, f64)> = (0..128usize)
            .map(|s| {
                (
                    s,
                    xgft_patterns::generators::cg_transpose_partner(s, 128),
                    1.0,
                )
            })
            .filter(|&(s, d, _)| s != d)
            .collect();
        let traffic = TrafficMatrix::from_flows(256, flows);
        let dmodk = oblivious_congestion_ratio(&xgft, &DModK::new(), &traffic);
        let random = oblivious_congestion_ratio(&xgft, &RandomRouting::new(1), &traffic);
        assert!(
            dmodk.ratio > 2.0 * random.ratio,
            "d-mod-k {} vs random {}",
            dmodk.ratio,
            random.ratio
        );
    }

    /// The per-flow accounting as it read with one division per flow and
    /// level: the reference the digit scan must match bit for bit.
    fn division_form(xgft: &Xgft, traffic: &TrafficMatrix) -> Vec<f64> {
        let spec = xgft.spec();
        let h = spec.height();
        let mut group_size = Vec::with_capacity(h);
        let mut size = 1usize;
        for l in 0..h {
            group_size.push(size);
            size *= spec.m(l + 1);
        }
        let mut out: Vec<Vec<f64>> = (0..h)
            .map(|l| vec![0.0; xgft.num_leaves() / group_size[l]])
            .collect();
        let mut into = out.clone();
        traffic.for_each_flow(|s, d, w| {
            for l in 0..xgft.nca_level(s, d) {
                out[l][s / group_size[l]] += w;
                into[l][d / group_size[l]] += w;
            }
        });
        (0..h)
            .map(|l| {
                let worst = out[l].iter().chain(&into[l]).copied().fold(0.0, f64::max);
                worst / spec.ncas_at_level(l + 1) as f64
            })
            .collect()
    }

    fn random_spec() -> impl Strategy<Value = XgftSpec> {
        prop::collection::vec((1usize..=5, 1usize..=4), 1..=4).prop_map(|levels| {
            let m = levels.iter().map(|&(m, _)| m).collect();
            let w = levels.iter().map(|&(m, w)| w.min(m)).collect();
            XgftSpec::new(m, w).expect("valid")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random specs and skewed, non-uniform traffic (self-flows,
        /// repeated pairs, weights that do not add exactly), the digit scan
        /// gives the division form's `per_level`, `bound` and
        /// `critical_level` bit for bit.
        #[test]
        fn digit_scan_matches_the_division_form(
            spec in random_spec(),
            picks in prop::collection::vec((0usize..1 << 16, 0usize..1 << 16, 1u32..1000), 0..200),
        ) {
            let xgft = Xgft::new(spec).unwrap();
            let n = xgft.num_leaves();
            let flows: Vec<(usize, usize, f64)> = picks
                .iter()
                .map(|&(s, d, w)| (s % n, d % n, f64::from(w) / 7.0))
                .collect();
            let traffic = TrafficMatrix::from_flows(n, flows);
            let got = tree_cut_lower_bound(&xgft, &traffic);
            let want = division_form(&xgft, &traffic);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.per_level), bits(&want));
            let (level, bound) = want
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap();
            prop_assert_eq!(got.critical_level, level);
            prop_assert_eq!(got.bound.to_bits(), bound.to_bits());
        }
    }

    #[test]
    fn empty_traffic_has_unit_ratio() {
        let xgft = two_level(4);
        let traffic = TrafficMatrix::from_flows(256, Vec::<(usize, usize, f64)>::new());
        let cr = oblivious_congestion_ratio(&xgft, &DModK::new(), &traffic);
        assert_eq!(cr.mcl, 0.0);
        assert_eq!(cr.lower_bound, 0.0);
        assert_eq!(cr.ratio, 1.0);
    }
}
