//! Sec. VII-B/C: the combinatorial equivalence of S-mod-k and D-mod-k.
//!
//! The paper argues that for every pattern routed by S-mod-k with contention
//! level `C`, the *inverse* pattern is routed by D-mod-k with exactly the
//! same contention level (and vice versa), so over permutations — and over
//! well-randomised general patterns — the two schemes are equivalent. This
//! driver verifies the pairwise duality exactly and reports the empirical
//! distribution of contention levels over random permutations for both
//! schemes.

use crate::stats::BoxplotStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use xgft_core::{CompiledRouteTable, ContentionReport, DModK, SModK};
use xgft_patterns::Permutation;
use xgft_topo::{Xgft, XgftSpec};

/// The outcome of the equivalence experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EquivalenceResult {
    /// The topology used.
    pub topology: String,
    /// Number of random permutations sampled.
    pub permutations: usize,
    /// Contention level of S-mod-k for each permutation.
    pub s_mod_k_levels: Vec<usize>,
    /// Contention level of D-mod-k for each permutation.
    pub d_mod_k_levels: Vec<usize>,
    /// Number of permutations for which `C(S-mod-k, P)` equals
    /// `C(D-mod-k, P⁻¹)` — the paper's duality, which must hold for all.
    pub duality_holds: usize,
    /// Summary of the S-mod-k contention levels.
    pub s_stats: BoxplotStats,
    /// Summary of the D-mod-k contention levels.
    pub d_stats: BoxplotStats,
}

fn contention_of<A: xgft_core::RoutingAlgorithm>(
    xgft: &Xgft,
    algo: &A,
    perm: &Permutation,
) -> usize {
    let table = CompiledRouteTable::compile(xgft, algo, perm.pairs());
    ContentionReport::compute(xgft, &table, perm.pairs()).network_contention
}

/// Run the experiment on `XGFT(2;k,k;1,w2)` with `samples` random
/// permutations.
pub fn run(k: usize, w2: usize, samples: usize, seed: u64) -> EquivalenceResult {
    let spec = XgftSpec::slimmed_two_level(k, w2).expect("valid spec");
    let xgft = Xgft::new(spec.clone()).expect("valid topology");
    let n = xgft.num_leaves();
    let mut rng = StdRng::seed_from_u64(seed);
    let s_algo = SModK::new();
    let d_algo = DModK::new();

    let mut s_levels = Vec::with_capacity(samples);
    let mut d_levels = Vec::with_capacity(samples);
    let mut duality_holds = 0usize;
    for _ in 0..samples {
        let perm = Permutation::random(n, &mut rng);
        let inverse = perm.inverse();
        let c_s = contention_of(&xgft, &s_algo, &perm);
        let c_d = contention_of(&xgft, &d_algo, &perm);
        let c_d_inv = contention_of(&xgft, &d_algo, &inverse);
        s_levels.push(c_s);
        d_levels.push(c_d);
        if c_s == c_d_inv {
            duality_holds += 1;
        }
    }

    let to_f = |v: &[usize]| v.iter().map(|&x| x as f64).collect::<Vec<f64>>();
    EquivalenceResult {
        topology: spec.to_string(),
        permutations: samples,
        s_stats: BoxplotStats::from_samples(&to_f(&s_levels)),
        d_stats: BoxplotStats::from_samples(&to_f(&d_levels)),
        s_mod_k_levels: s_levels,
        d_mod_k_levels: d_levels,
        duality_holds,
    }
}

impl EquivalenceResult {
    /// Render the comparison.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# Sec. VII-B/C — S-mod-k vs D-mod-k over {} random permutations on {}\n",
            self.permutations, self.topology
        ));
        out.push_str(&format!(
            "duality C(S,P) == C(D,P^-1): {}/{} permutations\n",
            self.duality_holds, self.permutations
        ));
        out.push_str(&format!(
            "S-mod-k contention levels: {}\n",
            self.s_stats.render()
        ));
        out.push_str(&format!(
            "D-mod-k contention levels: {}\n",
            self.d_stats.render()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duality_holds_exactly_on_full_and_slimmed_trees() {
        for (k, w2) in [(8usize, 8usize), (8, 5)] {
            let result = run(k, w2, 12, 42);
            assert_eq!(
                result.duality_holds, result.permutations,
                "duality must be exact on XGFT(2;{k},{k};1,{w2})"
            );
        }
    }

    #[test]
    fn distributions_of_the_two_schemes_are_statistically_close() {
        let result = run(8, 8, 30, 7);
        // Medians within one unit of contention and identical means within
        // 10% — the two schemes are equivalent over random permutations.
        assert!((result.s_stats.median - result.d_stats.median).abs() <= 1.0);
        let rel = (result.s_stats.mean - result.d_stats.mean).abs() / result.s_stats.mean;
        assert!(rel < 0.10, "means differ by {:.1}%", rel * 100.0);
        assert!(result.render().contains("duality"));
    }
}
