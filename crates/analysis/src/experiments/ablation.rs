//! Ablation study of the proposed relabeling (Sec. VIII design choices).
//!
//! The paper motivates two ingredients of the r-NCA family: the maps must be
//! *balanced* ("map the m's to w's", otherwise the slimmed-tree imbalance of
//! Fig. 4(b) reappears) and the relabeling must preserve topological
//! neighbourhoods / concentrate endpoint contention (otherwise the scheme
//! degenerates into plain Random routing). This driver quantifies both
//! choices by comparing, on the same topology and workload pairs:
//!
//! * `r-NCA-d (balanced)` — the paper's proposal;
//! * `r-NCA-d (unbalanced)` — the same construction with unconstrained
//!   uniform random maps;
//! * `d-mod-k` and `random` as the two reference extremes.

use crate::stats::BoxplotStats;
use serde::{Deserialize, Serialize};
use xgft_core::{
    distribution::top_level_distribution_all_pairs, AlgorithmSpec, DModK, RandomNcaDown,
    RandomRouting, RelabelMaps, RoutingAlgorithm,
};
use xgft_topo::{Xgft, XgftSpec};

/// The per-variant outcome of the ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Variant name.
    pub variant: String,
    /// Spread of routes per NCA over all pairs (and seeds).
    pub nca_spread: BoxplotStats,
    /// Max-over-min ratio of the per-NCA route counts (1.0 = perfectly even).
    pub imbalance_ratio: f64,
}

/// The ablation result for one topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationResult {
    /// Topology description.
    pub topology: String,
    /// One row per variant.
    pub rows: Vec<AblationRow>,
}

fn summarise(name: &str, samples: &[f64]) -> AblationRow {
    let stats = BoxplotStats::from_samples(samples);
    let imbalance_ratio = if stats.min > 0.0 {
        stats.max / stats.min
    } else {
        f64::INFINITY
    };
    AblationRow {
        variant: name.to_string(),
        nca_spread: stats,
        imbalance_ratio,
    }
}

/// Run the ablation on `XGFT(2;k,k;1,w2)` with the given seeds.
pub fn run(k: usize, w2: usize, seeds: &[u64]) -> AblationResult {
    let spec = XgftSpec::slimmed_two_level(k, w2).expect("valid spec");
    let xgft = Xgft::new(spec.clone()).expect("valid topology");
    let mut rows = Vec::new();

    let per_nca = |algo: &dyn RoutingAlgorithm| {
        top_level_distribution_all_pairs(&xgft, algo)
            .into_iter()
            .map(|c| c as f64)
    };

    // Reference extremes.
    let dmodk: Vec<f64> = per_nca(&DModK::new()).collect();
    rows.push(summarise(AlgorithmSpec::DModK.name(), &dmodk));

    let mut random_samples = Vec::new();
    let mut balanced_samples = Vec::new();
    let mut unbalanced_samples = Vec::new();
    for &seed in seeds {
        random_samples.extend(per_nca(&RandomRouting::new(seed)));
        balanced_samples.extend(per_nca(&RandomNcaDown::new(&xgft, seed)));
        unbalanced_samples.extend(per_nca(&RandomNcaDown::with_maps(
            RelabelMaps::unbalanced_random(&xgft, seed),
        )));
    }
    rows.push(summarise(AlgorithmSpec::Random.name(), &random_samples));
    rows.push(summarise("r-NCA-d (balanced)", &balanced_samples));
    rows.push(summarise("r-NCA-d (unbalanced)", &unbalanced_samples));

    AblationResult {
        topology: spec.to_string(),
        rows,
    }
}

impl AblationResult {
    /// Render the ablation table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# Ablation — routes-per-NCA spread on {}\n",
            self.topology
        ));
        out.push_str(&format!(
            "{:<24} {:>34} {:>10}\n",
            "variant", "min/q1/median/q3/max", "max/min"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>34} {:>10.2}\n",
                row.variant,
                row.nca_spread.render(),
                row.imbalance_ratio
            ));
        }
        out
    }

    /// Look up a row by variant name.
    pub fn row(&self, variant: &str) -> Option<&AblationRow> {
        self.rows.iter().find(|r| r.variant == variant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The balanced maps are the reason the proposal avoids the Fig. 4(b)
    /// imbalance: on a slimmed tree their max/min ratio must be strictly
    /// better than both d-mod-k's wrap (2.0) and the unbalanced variant's.
    #[test]
    fn balanced_maps_beat_unbalanced_and_mod_k() {
        let result = run(8, 5, &[1, 2, 3]);
        let dmodk = result.row("d-mod-k").unwrap().imbalance_ratio;
        let balanced = result.row("r-NCA-d (balanced)").unwrap().imbalance_ratio;
        let unbalanced = result.row("r-NCA-d (unbalanced)").unwrap().imbalance_ratio;
        assert!((dmodk - 2.0).abs() < 1e-9, "mod-k wrap gives exactly 2x");
        assert!(
            balanced < dmodk,
            "balanced {balanced:.2} vs d-mod-k {dmodk:.2}"
        );
        assert!(
            balanced < unbalanced,
            "balanced {balanced:.2} must beat unbalanced {unbalanced:.2}"
        );
        assert!(result.render().contains("unbalanced"));
    }

    #[test]
    fn full_tree_everything_is_even_except_unbalanced() {
        let result = run(8, 8, &[1, 2]);
        let balanced = result.row("r-NCA-d (balanced)").unwrap();
        assert!((balanced.imbalance_ratio - 1.0).abs() < 1e-9);
        let unbalanced = result.row("r-NCA-d (unbalanced)").unwrap();
        assert!(unbalanced.imbalance_ratio > 1.0);
    }
}
