//! Extension experiment: the oblivious schemes on classic synthetic
//! permutations (shift, transpose, bit-reversal, bit-complement, random).
//!
//! The paper evaluates two applications and notes (Sec. VII-C) that the
//! choice between S-mod-k and D-mod-k could matter for non-symmetric
//! patterns, and that the proposal should "avoid pathological cases" in
//! general. This driver extends the evaluation to the synthetic permutations
//! used by most fat-tree routing studies, so the schemes can be compared on
//! patterns the paper only argues about qualitatively.

use super::OBLIVIOUS_SCHEMES;
use crate::stats::BoxplotStats;
use serde::{Deserialize, Serialize};
use xgft_core::{AlgorithmSpec, CompiledRouteTable, ContentionReport};
use xgft_patterns::{Pattern, WorkloadSpec};
use xgft_topo::{Xgft, XgftSpec};

/// The contention a scheme achieves on one synthetic pattern.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticRow {
    /// Pattern name.
    pub pattern: String,
    /// Scheme name.
    pub algorithm: String,
    /// Network contention level (max effective channel load); for seeded
    /// schemes the statistics are over the seeds.
    pub contention: BoxplotStats,
}

/// The synthetic-pattern comparison on one topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticResult {
    /// Topology description.
    pub topology: String,
    /// One row per (pattern, algorithm).
    pub rows: Vec<SyntheticRow>,
}

fn contention_of(xgft: &Xgft, algorithm: AlgorithmSpec, seed: u64, pattern: &Pattern) -> f64 {
    let algo = algorithm.instantiate(xgft, pattern, seed);
    let flows = || pattern.phases()[0].network_flows().map(|f| (f.src, f.dst));
    let table = CompiledRouteTable::compile(xgft, algo.as_ref(), flows());
    ContentionReport::compute(xgft, &table, flows()).network_contention as f64
}

/// Run the comparison on `XGFT(2;k,k;1,w2)` with the given seeds for the
/// randomised schemes.
pub fn run(k: usize, w2: usize, seeds: &[u64]) -> SyntheticResult {
    let spec = XgftSpec::slimmed_two_level(k, w2).expect("valid spec");
    let xgft = Xgft::new(spec.clone()).expect("valid topology");
    let n = xgft.num_leaves();

    // Every family the machine's leaf count admits: a generator refuses
    // the others (bit-reversal and bit-complement need a power of two,
    // transpose a square).
    let patterns: Vec<Pattern> = [
        WorkloadSpec::new("shift", n, 1).with_param("offset", k as f64),
        WorkloadSpec::new("shift", n, 1).with_param("offset", 1.0),
        WorkloadSpec::new("bit_reversal", n, 1),
        WorkloadSpec::new("bit_complement", n, 1),
        WorkloadSpec::new("random_permutation", n, 1).with_param("seed", f64::from(0xC0FFEE)),
        WorkloadSpec::new("transpose", n, 1),
    ]
    .iter()
    .filter_map(|family| family.pattern().ok())
    .collect();

    let mut rows = Vec::new();
    for pattern in &patterns {
        for algorithm in OBLIVIOUS_SCHEMES {
            let samples: Vec<f64> = if algorithm.is_seeded() {
                seeds
                    .iter()
                    .map(|&s| contention_of(&xgft, algorithm, s, pattern))
                    .collect()
            } else {
                vec![contention_of(&xgft, algorithm, 0, pattern)]
            };
            rows.push(SyntheticRow {
                pattern: pattern.name().to_string(),
                algorithm: algorithm.name().to_string(),
                contention: BoxplotStats::from_samples(&samples),
            });
        }
    }

    SyntheticResult {
        topology: spec.to_string(),
        rows,
    }
}

impl SyntheticResult {
    /// Render the comparison table (median contention level).
    pub fn render(&self) -> String {
        let mut patterns: Vec<String> = self.rows.iter().map(|r| r.pattern.clone()).collect();
        patterns.dedup();
        let algorithms =
            crate::stats::unique_sorted(self.rows.iter().map(|r| r.algorithm.as_str()));
        let mut out = String::new();
        out.push_str(&format!(
            "# Synthetic permutations on {} — network contention level (median over seeds)\n",
            self.topology
        ));
        out.push_str(&format!("{:<22}", "pattern"));
        for a in &algorithms {
            out.push_str(&format!(" {a:>10}"));
        }
        out.push('\n');
        for p in &patterns {
            out.push_str(&format!("{p:<22}"));
            for a in &algorithms {
                let cell = self
                    .rows
                    .iter()
                    .find(|r| &r.pattern == p && &r.algorithm == a)
                    .map(|r| format!("{:.1}", r.contention.median))
                    .unwrap_or_else(|| "-".to_string());
                out.push_str(&format!(" {cell:>10}"));
            }
            out.push('\n');
        }
        out
    }

    /// Look up the median contention of (pattern, algorithm).
    pub fn median(&self, pattern: &str, algorithm: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.pattern == pattern && r.algorithm == algorithm)
            .map(|r| r.contention.median)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_by_k_is_resolved_by_mod_k_but_not_by_chance() {
        // shift-by-16 on the full 16-ary 2-tree: d-mod-k routes it with
        // contention 1, random routing cannot.
        let result = run(16, 16, &[1, 2, 3]);
        assert_eq!(result.median("shift-16", "d-mod-k"), Some(1.0));
        assert_eq!(result.median("shift-16", "s-mod-k"), Some(1.0));
        assert!(result.median("shift-16", "random").unwrap() > 1.5);
        let text = result.render();
        assert!(text.contains("shift-16"));
        assert!(text.contains("bit-reversal"));
    }

    #[test]
    fn slimmed_tree_contention_respects_capacity_bound() {
        let result = run(8, 4, &[1, 2]);
        // With half the roots removed, no scheme can route a global
        // permutation below 2 flows per up-link.
        for algo in ["s-mod-k", "d-mod-k", "random", "r-NCA-u", "r-NCA-d"] {
            let c = result.median("bit-complement", algo).unwrap();
            assert!(c >= 2.0, "{algo} got {c}");
        }
    }

    #[test]
    fn transpose_is_included_for_square_node_counts() {
        let result = run(4, 4, &[1]);
        assert!(result.median("transpose-4x4", "d-mod-k").is_some());
    }

    #[test]
    fn families_a_leaf_count_refuses_are_skipped() {
        // 36 leaves: a square but no power of two.
        let result = run(6, 6, &[1]);
        assert!(result.median("transpose-6x6", "d-mod-k").is_some());
        assert!(result.median("shift-6", "d-mod-k").is_some());
        assert!(result.median("bit-reversal", "d-mod-k").is_none());
        assert!(result.median("bit-complement", "d-mod-k").is_none());
    }
}
