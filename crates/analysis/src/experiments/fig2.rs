//! Fig. 2: WRF-256 and CG.D-128 under the classic oblivious routings
//! (Random, S-mod-k, D-mod-k) and the pattern-aware Colored baseline, over
//! progressively slimmed `XGFT(2;16,16;1,w2)` topologies.

use crate::sweep::{AlgorithmSpec, SweepConfig, SweepResult};
use serde::{Deserialize, Serialize};
use xgft_netsim::NetworkConfig;
use xgft_patterns::generators;
use xgft_patterns::Pattern;
use xgft_topo::TopologyError;

/// Which of the two applications of Fig. 2 to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// Fig. 2(a): WRF with 256 processes (pairwise ±16 mesh exchange).
    Wrf256,
    /// Fig. 2(b): NAS CG class D with 128 processes (five phases, Eq. 2).
    CgD128,
}

impl Workload {
    /// The workload's pattern with per-message sizes scaled by
    /// `byte_scale` (1.0 = the paper's sizes; smaller values give quick
    /// runs with identical slowdown structure).
    pub fn pattern(&self, byte_scale: f64) -> Pattern {
        match self {
            Workload::Wrf256 => {
                let bytes = scale_bytes(generators::WRF_DEFAULT_BYTES, byte_scale);
                generators::wrf_256(bytes)
            }
            Workload::CgD128 => {
                let bytes = scale_bytes(generators::CG_D_PHASE_BYTES, byte_scale);
                generators::cg_d(128, bytes)
            }
        }
    }

    /// Display name matching the paper's captions.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Wrf256 => "WRF-256",
            Workload::CgD128 => "CG.D-128",
        }
    }
}

fn scale_bytes(bytes: u64, scale: f64) -> u64 {
    ((bytes as f64 * scale).round() as u64).max(1024)
}

/// Parameters of a Fig. 2 run.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Which application to run.
    pub workload: Workload,
    /// Per-message byte scale (1.0 = paper sizes).
    pub byte_scale: f64,
    /// Seeds for the Random scheme.
    pub seeds: Vec<u64>,
    /// The w2 values to sweep (defaults to 16..=1).
    pub w2_values: Vec<usize>,
    /// Network parameters.
    pub network: NetworkConfig,
}

impl Fig2Config {
    /// The default configuration for a workload: full w2 sweep, a handful of
    /// Random seeds, paper-size messages scaled by `byte_scale`.
    pub fn new(workload: Workload, byte_scale: f64, seeds: Vec<u64>) -> Self {
        Fig2Config {
            workload,
            byte_scale,
            seeds,
            w2_values: (1..=16).rev().collect(),
            network: NetworkConfig::default(),
        }
    }

    /// Run the sweep.
    pub fn run(&self) -> Result<SweepResult, TopologyError> {
        let pattern = self.workload.pattern(self.byte_scale);
        let config = SweepConfig {
            k: 16,
            w2_values: self.w2_values.clone(),
            algorithms: AlgorithmSpec::figure2_set(),
            seeds: self.seeds.clone(),
            network: self.network.clone(),
        };
        config.run(&pattern)
    }

    /// The `--analytic` mode: evaluate the same workload and topology sweep
    /// through the `xgft-flow` closed-form channel-load model — expected
    /// MCL and congestion ratio per scheme instead of replayed slowdowns,
    /// with no simulation (and no seed axis: the Random scheme contributes
    /// its exact expectation).
    pub fn run_analytic(&self) -> xgft_flow::FlowSweepResult {
        let pattern = self.workload.pattern(self.byte_scale);
        xgft_flow::FlowSweepConfig::slimming_family(
            16,
            &self.w2_values,
            vec![
                xgft_flow::FlowScheme::Random,
                xgft_flow::FlowScheme::SModK,
                xgft_flow::FlowScheme::DModK,
                xgft_flow::FlowScheme::Colored,
            ],
            xgft_flow::TrafficSpec::Pattern(pattern),
        )
        .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_patterns_have_paper_shapes() {
        let wrf = Workload::Wrf256.pattern(1.0);
        assert_eq!(wrf.num_nodes(), 256);
        assert_eq!(wrf.num_phases(), 1);
        let cg = Workload::CgD128.pattern(1.0);
        assert_eq!(cg.num_nodes(), 128);
        assert_eq!(cg.num_phases(), 5);
        assert_eq!(Workload::Wrf256.name(), "WRF-256");
        assert_eq!(Workload::CgD128.name(), "CG.D-128");
    }

    #[test]
    fn byte_scale_shrinks_messages_with_a_floor() {
        let full = Workload::CgD128.pattern(1.0);
        let small = Workload::CgD128.pattern(0.01);
        let full_bytes = full.phases()[0].flows().next().unwrap().bytes;
        let small_bytes = small.phases()[0].flows().next().unwrap().bytes;
        assert_eq!(full_bytes, 750 * 1024);
        assert!(small_bytes < full_bytes);
        assert!(small_bytes >= 1024);
    }

    /// The analytic mode reproduces the headline Fig. 2(b) structure with
    /// zero simulation: D-mod-k's CG.D-128 congruence pathology shows up as
    /// a congestion ratio far above Random's.
    #[test]
    fn analytic_fig2b_exposes_the_cg_pathology() {
        let config = Fig2Config {
            workload: Workload::CgD128,
            byte_scale: 1.0,
            seeds: vec![],
            w2_values: vec![16],
            network: NetworkConfig::default(),
        };
        let result = config.run_analytic();
        let dmodk = result.point_by_w(16, "d-mod-k").unwrap();
        let random = result.point_by_w(16, "random").unwrap();
        let colored = result.point_by_w(16, "colored").unwrap();
        // The congruence piles several fifth-phase flows onto shared up
        // channels; over the union of all five phases that still leaves
        // d-mod-k ~1.4x above the cut bound while Random sits exactly on it.
        assert!(
            dmodk.ratio > 1.25 * random.ratio,
            "d-mod-k ratio {} vs random {}",
            dmodk.ratio,
            random.ratio
        );
        assert!((random.ratio - 1.0).abs() < 0.05);
        assert!(colored.mcl <= dmodk.mcl);
    }

    /// A reduced Fig. 2(a): three topologies, tiny messages. Checks the
    /// qualitative claims of the paper: S-mod-k ≈ D-mod-k ≈ Colored and all
    /// beat Random on WRF, and the slimmed end degrades for everyone.
    #[test]
    fn reduced_fig2a_shape() {
        let config = Fig2Config {
            workload: Workload::Wrf256,
            byte_scale: 1.0 / 16.0,
            seeds: vec![1, 2],
            w2_values: vec![16, 4, 1],
            network: NetworkConfig::default(),
        };
        let result = config.run().unwrap();
        let dmodk_full = result.point(16, "d-mod-k").unwrap().stats.median;
        let smodk_full = result.point(16, "s-mod-k").unwrap().stats.median;
        let colored_full = result.point(16, "colored").unwrap().stats.median;
        let random_full = result.point(16, "random").unwrap().stats.median;
        // S-mod-k and D-mod-k are nearly identical (symmetric pattern).
        assert!((dmodk_full - smodk_full).abs() / dmodk_full < 0.05);
        // Both essentially match the pattern-aware bound on WRF...
        assert!(dmodk_full < 1.15 * colored_full);
        // ...and Random is strictly worse (routing contention it adds).
        assert!(random_full > 1.15 * dmodk_full);
        // Slimming to a single root degrades every scheme.
        let dmodk_slim = result.point(1, "d-mod-k").unwrap().stats.median;
        assert!(dmodk_slim > 2.0 * dmodk_full);
    }
}
