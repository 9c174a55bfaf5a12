//! Seed campaigns: the paper's 40–60-seed figure runs as one schedulable
//! unit, with per-shard provenance.
//!
//! A campaign is a sweep under the [`SeedSpec::Stream`] policy: instead of
//! one shared seed list, every (topology, algorithm) point draws its seeds
//! from its own deterministic stream, derived by mixing the campaign's
//! `base_seed` with the point's coordinates through SplitMix64
//! ([`shard_seed`]). Two properties follow:
//!
//! 1. **Reproducibility** — the full shard list, including every seed, is a
//!    pure function of the configuration; reruns (on any machine, with any
//!    `RAYON_NUM_THREADS`) produce byte-identical results.
//! 2. **Independence** — points do not share seeds, so enlarging the sweep
//!    (more `w2` values, more algorithms) never perturbs the samples of
//!    existing points.
//!
//! [`CampaignConfig`] describes such a sweep and runs it through
//! [`SweepConfig`]; [`CampaignResult::from_sweep`] attaches the raw
//! per-shard outcomes (the provenance record) to the aggregated
//! [`SweepResult`] the figure renderers consume. `xgft campaign` wraps this
//! in a command line and emits the JSON.

use crate::sweep::{AlgorithmSpec, SeedSpec, SweepConfig, SweepResult, SweepShard};
use serde::{Deserialize, Serialize};
use xgft_netsim::NetworkConfig;
use xgft_patterns::Pattern;
use xgft_topo::TopologyError;

/// SplitMix64: the finaliser used to derive per-shard seeds (the
/// workspace's canonical implementation, shared with the fault samplers
/// and the resilience campaign's streams). Statistically strong enough
/// that structured inputs (small w2 × small index grids) give uncorrelated
/// streams.
pub(crate) use xgft_topo::fault::splitmix64;

/// FNV-1a over a string — a stable tag for an algorithm name, so the seed
/// stream of a point survives enum reordering.
pub(crate) fn name_tag(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed of shard `index` in the stream of point `(w2, algorithm)` under
/// `base_seed`. Exposed so tests (and external tooling) can predict and
/// pin the exact seeds a campaign will use.
pub fn shard_seed(base_seed: u64, w2: usize, algorithm: AlgorithmSpec, index: usize) -> u64 {
    let mut h = splitmix64(base_seed ^ 0x5eed_5eed_5eed_5eed);
    h = splitmix64(h ^ (w2 as u64));
    h = splitmix64(h ^ name_tag(algorithm.name()));
    splitmix64(h ^ (index as u64))
}

/// Configuration of a seed campaign over the paper's slimming family.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign label carried into the output (e.g. `"fig5-wrf"`).
    pub name: String,
    /// Switch radix `k` (16 in the paper; 64 gives 4096-leaf machines).
    pub k: usize,
    /// The `w2` values to sweep.
    pub w2_values: Vec<usize>,
    /// Algorithms to evaluate.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Seeds drawn per (topology, algorithm) point for seeded algorithms
    /// (the paper uses 40–60).
    pub seeds_per_point: usize,
    /// Root of every per-shard seed stream.
    pub base_seed: u64,
    /// Network parameters.
    pub network: NetworkConfig,
}

impl CampaignConfig {
    /// A fig5-style campaign over `XGFT(2; k, k; 1, w2)` for the full
    /// `w2 = k..=1` slimming range.
    pub fn slimming_family(
        name: impl Into<String>,
        k: usize,
        algorithms: Vec<AlgorithmSpec>,
        seeds_per_point: usize,
        base_seed: u64,
    ) -> Self {
        CampaignConfig {
            name: name.into(),
            k,
            w2_values: (1..=k).rev().collect(),
            algorithms,
            seeds_per_point,
            base_seed,
            network: NetworkConfig::default(),
        }
    }

    /// The sweep this campaign describes: its grid under the
    /// [`SeedSpec::Stream`] policy rooted at `base_seed`.
    fn to_sweep(&self) -> SweepConfig {
        SweepConfig {
            k: self.k,
            w2_values: self.w2_values.clone(),
            algorithms: self.algorithms.clone(),
            seeds: SeedSpec::Stream {
                base_seed: self.base_seed,
                seeds_per_point: self.seeds_per_point,
            },
            network: self.network.clone(),
        }
    }

    /// The campaign's shard list — one (topology, algorithm, seed) triple
    /// per parallel job, each seeded from its point's deterministic stream.
    /// Pure function of the configuration.
    pub fn shards(&self) -> Vec<SweepShard> {
        self.to_sweep().shards()
    }

    /// Run the campaign's sweep for a workload pattern and record its
    /// outcomes shard by shard. Errors if `k` and a `w2` describe no
    /// machine.
    pub fn run(&self, pattern: &Pattern) -> Result<CampaignResult, TopologyError> {
        Ok(CampaignResult::from_sweep(
            self.name.clone(),
            self.base_seed,
            self.seeds_per_point,
            &self.shards(),
            self.to_sweep().run(pattern)?,
        ))
    }
}

/// The recorded outcome of one campaign shard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardOutcome {
    /// Number of top-level switches of the shard's topology.
    pub w2: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// The seed the shard ran with (0 for deterministic algorithms).
    pub seed: u64,
    /// Slowdown relative to the Full-Crossbar reference.
    pub slowdown: f64,
}

/// The full, serialisable result of a campaign: per-shard provenance plus
/// the aggregated sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Campaign label from the configuration.
    pub name: String,
    /// Switch radix of the swept family.
    pub k: usize,
    /// Root seed the per-shard streams were derived from.
    pub base_seed: u64,
    /// Seeds per (topology, algorithm) point.
    pub seeds_per_point: usize,
    /// Name of the replayed workload.
    pub trace: String,
    /// Full-Crossbar reference completion time (ps).
    pub crossbar_ps: u64,
    /// Every shard's outcome, in deterministic shard order.
    pub shards: Vec<ShardOutcome>,
    /// The aggregated sweep (boxplot points per (w2, algorithm)).
    pub sweep: SweepResult,
}

impl CampaignResult {
    /// The campaign record of `sweep`, the result of the sweep whose
    /// `shards` were seeded by the stream `(base_seed, seeds_per_point)`:
    /// one [`ShardOutcome`] per shard, in shard order.
    pub fn from_sweep(
        name: String,
        base_seed: u64,
        seeds_per_point: usize,
        shards: &[SweepShard],
        sweep: SweepResult,
    ) -> Self {
        // A point's samples are its shards' slowdowns, in shard order.
        let samples = sweep.points.iter().flat_map(|p| &p.samples);
        let shards = shards
            .iter()
            .zip(samples)
            .map(|(shard, &slowdown)| ShardOutcome {
                w2: shard.w2,
                algorithm: shard.algorithm.name().to_string(),
                seed: shard.seed,
                slowdown,
            })
            .collect();
        CampaignResult {
            name,
            k: sweep.k,
            base_seed,
            seeds_per_point,
            trace: sweep.trace.clone(),
            crossbar_ps: sweep.crossbar_ps,
            shards,
            sweep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_patterns::generators;

    #[test]
    fn shard_seeds_are_deterministic_and_point_local() {
        let config = CampaignConfig {
            name: "test".into(),
            k: 4,
            w2_values: vec![4, 2],
            algorithms: vec![AlgorithmSpec::Random, AlgorithmSpec::DModK],
            seeds_per_point: 3,
            base_seed: 42,
            network: NetworkConfig::default(),
        };
        let shards = config.shards();
        // 2 w2 × (3 random + 1 d-mod-k) shards.
        assert_eq!(shards.len(), 8);
        assert_eq!(shards, config.shards(), "shard list must be reproducible");

        // Seeded shards carry stream-derived seeds, deterministic ones 0.
        let random_seeds: Vec<u64> = shards
            .iter()
            .filter(|s| s.algorithm == AlgorithmSpec::Random && s.w2 == 4)
            .map(|s| s.seed)
            .collect();
        assert_eq!(random_seeds.len(), 3);
        for (i, &seed) in random_seeds.iter().enumerate() {
            assert_eq!(seed, shard_seed(42, 4, AlgorithmSpec::Random, i));
        }
        // Streams differ across points and base seeds.
        assert_ne!(
            shard_seed(42, 4, AlgorithmSpec::Random, 0),
            shard_seed(42, 2, AlgorithmSpec::Random, 0)
        );
        assert_ne!(
            shard_seed(42, 4, AlgorithmSpec::Random, 0),
            shard_seed(42, 4, AlgorithmSpec::RandomNcaUp, 0)
        );
        assert_ne!(
            shard_seed(42, 4, AlgorithmSpec::Random, 0),
            shard_seed(43, 4, AlgorithmSpec::Random, 0)
        );
        assert!(shards
            .iter()
            .filter(|s| !s.algorithm.is_seeded())
            .all(|s| s.seed == 0));
    }

    #[test]
    fn growing_the_sweep_preserves_existing_point_streams() {
        let small = CampaignConfig {
            name: "small".into(),
            k: 4,
            w2_values: vec![4],
            algorithms: vec![AlgorithmSpec::Random],
            seeds_per_point: 2,
            base_seed: 7,
            network: NetworkConfig::default(),
        };
        let grown = CampaignConfig {
            w2_values: vec![4, 2, 1],
            algorithms: vec![AlgorithmSpec::Random, AlgorithmSpec::RandomNcaDown],
            ..small.clone()
        };
        let small_point: Vec<u64> = small.shards().iter().map(|s| s.seed).collect();
        let grown_point: Vec<u64> = grown
            .shards()
            .iter()
            .filter(|s| s.w2 == 4 && s.algorithm == AlgorithmSpec::Random)
            .map(|s| s.seed)
            .collect();
        assert_eq!(small_point, grown_point);
    }

    #[test]
    fn campaign_runs_and_aggregates() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap();
        let config = CampaignConfig {
            name: "mini".into(),
            k: 4,
            w2_values: vec![4, 1],
            algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
            seeds_per_point: 2,
            base_seed: 1,
            network: NetworkConfig::default(),
        };
        let result = config.run(&pattern).unwrap();
        assert_eq!(result.name, "mini");
        assert_eq!(result.shards.len(), 6);
        assert!(result.crossbar_ps > 0);
        assert_eq!(result.sweep.points.len(), 4);
        // Provenance and aggregate agree.
        let point = result.sweep.point(4, "random").unwrap();
        let from_shards: Vec<f64> = result
            .shards
            .iter()
            .filter(|s| s.w2 == 4 && s.algorithm == "random")
            .map(|s| s.slowdown)
            .collect();
        assert_eq!(point.samples, from_shards);
        // Slimming degrades d-mod-k here just like in the sweep tests.
        let full = result.sweep.point(4, "d-mod-k").unwrap().stats.median;
        let slim = result.sweep.point(1, "d-mod-k").unwrap().stats.median;
        assert!(slim >= full);
    }

    #[test]
    fn slimming_family_covers_the_full_range() {
        let config =
            CampaignConfig::slimming_family("fig5", 16, AlgorithmSpec::figure5_set(), 40, 123);
        assert_eq!(config.w2_values.len(), 16);
        assert_eq!(config.w2_values[0], 16);
        assert_eq!(*config.w2_values.last().unwrap(), 1);
        // 16 w2 × (3 seeded × 40 + 3 deterministic).
        assert_eq!(config.shards().len(), 16 * (3 * 40 + 3));
    }

    #[test]
    fn zero_w2_is_a_typed_error_not_a_panic() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 1024).unwrap();
        let config = CampaignConfig {
            name: "zero".into(),
            k: 4,
            w2_values: vec![0],
            algorithms: vec![AlgorithmSpec::DModK],
            seeds_per_point: 1,
            base_seed: 1,
            network: NetworkConfig::default(),
        };
        assert!(matches!(
            config.run(&pattern),
            Err(TopologyError::ZeroParameter { level: 2 })
        ));
    }
}
