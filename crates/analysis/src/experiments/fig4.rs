//! Fig. 4: distribution of routes per NCA over all (source, destination)
//! pairs, for the five routing schemes, on `XGFT(2;16,16;1,16)` and
//! `XGFT(2;16,16;1,10)`.

use crate::stats::BoxplotStats;
use serde::{Deserialize, Serialize};
use xgft_core::distribution::top_level_distribution_all_pairs;
use xgft_core::AlgorithmSpec;
use xgft_patterns::ConnectivityMatrix;
use xgft_topo::{TopologyError, Xgft, XgftSpec};

/// The routes-per-NCA distribution of one algorithm on one topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgorithmDistribution {
    /// Algorithm name.
    pub algorithm: String,
    /// For deterministic algorithms: the exact count per NCA. For seeded
    /// algorithms: the per-NCA mean over the seeds.
    pub per_nca: Vec<f64>,
    /// Boxplot over *all* (NCA, seed) samples — the spread plotted in the
    /// paper's figure.
    pub spread: BoxplotStats,
}

/// The Fig. 4 reproduction for one topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// The topology description.
    pub topology: String,
    /// Number of NCAs (top-level switches).
    pub num_ncas: usize,
    /// One distribution per algorithm.
    pub distributions: Vec<AlgorithmDistribution>,
}

/// Run the Fig. 4 analysis of `schemes`, in that order, for an arbitrary
/// two-or-more-level spec. The distributions are over all pairs, not a
/// pattern, so a pattern-aware scheme sees an empty pattern here.
pub fn run_for(
    spec: &XgftSpec,
    schemes: &[AlgorithmSpec],
    seeds: &[u64],
) -> Result<Fig4Result, TopologyError> {
    let xgft = Xgft::new(spec.clone())?;
    let num_ncas = xgft.nodes_at_level(xgft.height());
    let n = xgft.num_leaves();
    let mut distributions = Vec::new();

    // Deterministic schemes give one distribution, seeded schemes the
    // per-NCA mean over the seeds.
    for &algorithm in schemes {
        let algo_seeds: &[u64] = if algorithm.is_seeded() { seeds } else { &[0] };
        let mut all_samples: Vec<f64> = Vec::new();
        let mut sums = vec![0.0f64; num_ncas];
        for &seed in algo_seeds {
            // Fig. 4 has no pattern; oblivious schemes never read one.
            let algo = algorithm.build(&xgft, seed, || ConnectivityMatrix::new(n));
            let dist = top_level_distribution_all_pairs(&xgft, algo.as_ref());
            for (i, &c) in dist.iter().enumerate() {
                sums[i] += c as f64;
                all_samples.push(c as f64);
            }
        }
        let per_nca: Vec<f64> = sums
            .iter()
            .map(|s| s / algo_seeds.len().max(1) as f64)
            .collect();
        distributions.push(AlgorithmDistribution {
            algorithm: algorithm.name().to_string(),
            spread: BoxplotStats::from_samples(&all_samples),
            per_nca,
        });
    }

    Ok(Fig4Result {
        topology: spec.to_string(),
        num_ncas,
        distributions,
    })
}

impl Fig4Result {
    /// Render the per-NCA table (rows = NCA number, columns = algorithms)
    /// followed by the spread summary of each algorithm.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# Fig. 4 — routes per NCA on {} ({} NCAs)\n",
            self.topology, self.num_ncas
        ));
        out.push_str(&format!("{:>4}", "NCA"));
        for d in &self.distributions {
            out.push_str(&format!(" {:>10}", d.algorithm));
        }
        out.push('\n');
        for nca in 0..self.num_ncas {
            out.push_str(&format!("{nca:>4}"));
            for d in &self.distributions {
                out.push_str(&format!(" {:>10.0}", d.per_nca[nca]));
            }
            out.push('\n');
        }
        out.push_str("\nSpread (min/q1/median/q3/max over NCAs and seeds):\n");
        for d in &self.distributions {
            out.push_str(&format!("{:>10}: {}\n", d.algorithm, d.spread.render()));
        }
        out
    }

    /// Look up the distribution of one algorithm.
    pub fn distribution(&self, algorithm: &str) -> Option<&AlgorithmDistribution> {
        self.distributions.iter().find(|d| d.algorithm == algorithm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::OBLIVIOUS_SCHEMES;

    /// Scaled-down version of Fig. 4(a)/(b) (k = 8 so all-pairs route tables
    /// stay cheap in debug builds): on the full tree mod-k is perfectly even,
    /// on the slimmed tree it shows the modulo-wrap imbalance while the
    /// proposed relabeling keeps the spread much tighter.
    #[test]
    fn full_vs_slimmed_distributions() {
        let full = run_for(
            &XgftSpec::slimmed_two_level(8, 8).unwrap(),
            &OBLIVIOUS_SCHEMES,
            &[1, 2],
        )
        .unwrap();
        let dmodk = full.distribution("d-mod-k").unwrap();
        assert!(
            dmodk.spread.iqr() == 0.0,
            "full tree mod-k must be exactly even"
        );

        let slim = run_for(
            &XgftSpec::slimmed_two_level(8, 5).unwrap(),
            &OBLIVIOUS_SCHEMES,
            &[1, 2],
        )
        .unwrap();
        assert_eq!(slim.num_ncas, 5);
        let dmodk_slim = slim.distribution("d-mod-k").unwrap();
        // Wrap imbalance: three NCAs receive double the routes.
        assert!(dmodk_slim.spread.max >= 2.0 * dmodk_slim.spread.min);
        let rnca_slim = slim.distribution("r-NCA-d").unwrap();
        assert!(
            rnca_slim.spread.max - rnca_slim.spread.min
                < dmodk_slim.spread.max - dmodk_slim.spread.min,
            "relabeling should tighten the spread: {:?} vs {:?}",
            rnca_slim.spread,
            dmodk_slim.spread
        );
        let text = slim.render();
        assert!(text.contains("r-NCA-d"));
        assert!(text.contains("NCA"));
    }

    #[test]
    fn totals_are_preserved_across_algorithms() {
        let result = run_for(
            &XgftSpec::slimmed_two_level(4, 3).unwrap(),
            &OBLIVIOUS_SCHEMES,
            &[7],
        )
        .unwrap();
        let expected_total: f64 = {
            // all ordered pairs with NCA at the top level: per destination
            // switch of 4 leaves, sources outside the switch.
            let n = 16.0;
            n * (n - 4.0)
        };
        for d in &result.distributions {
            let total: f64 = d.per_nca.iter().sum();
            assert!(
                (total - expected_total).abs() < 1e-6,
                "{} total {} != {}",
                d.algorithm,
                total,
                expected_total
            );
        }
    }
}
