//! Progressive tree-slimming sweeps (the x-axis of Figs. 2 and 5).
//!
//! A sweep runs one trace over the family `XGFT(2; k, k; 1, w2)` for a range
//! of `w2` values and a set of routing algorithms, reporting the slowdown
//! relative to the Full-Crossbar for each point. Randomised algorithms are
//! sampled over seeds and summarised as boxplots, exactly like the paper's
//! Figs. 4 and 5 (40–60 seeds per box in the paper; the number is a
//! parameter here). Where a point's seeds come from is the sweep's
//! [`SeedSpec`]: one explicit list shared by every point, or point-local
//! deterministic streams.
//!
//! Independent (topology, algorithm, seed) runs are embarrassingly parallel;
//! a sweep is decomposed into [`SweepShard`]s — one per (topology,
//! algorithm, seed) triple — which the shared shard executor groups per
//! `(w2, algorithm)` point and spreads over cores with Rayon, parallelising
//! at the outermost loop.
//! Shard order (and therefore every aggregate) is a pure function of the
//! configuration: results are identical whatever the worker count. The
//! [`crate::campaign`] module attaches per-shard provenance to a
//! stream-seeded sweep's result.

use crate::campaign::shard_seed;
use crate::slowdown::{run_on_crossbar, run_reusing_sim};
use crate::stats::BoxplotStats;
use serde::{Deserialize, Serialize};
use xgft_core::{CompactRoutes, RouteSource};
use xgft_netsim::{NetworkConfig, NetworkSim};
use xgft_patterns::Pattern;
use xgft_topo::{TopologyError, Xgft, XgftSpec};
use xgft_tracesim::{workloads, ReplayEngine, Trace};

pub use xgft_core::AlgorithmSpec;

/// One unit of parallel sweep work: a (topology, algorithm, seed) triple.
/// Deterministic algorithms carry a placeholder seed of 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepShard {
    /// Number of top-level switches of the slimmed topology.
    pub w2: usize,
    /// The algorithm to instantiate.
    pub algorithm: AlgorithmSpec,
    /// Seed for seeded algorithms (0 for deterministic ones).
    pub seed: u64,
}

impl SweepShard {
    /// True when both shards belong to the same `(w2, algorithm)` point.
    fn same_point(&self, other: &SweepShard) -> bool {
        self.w2 == other.w2 && self.algorithm == other.algorithm
    }
}

/// Where a sweep's randomised schemes get their seeds: the sweep's seed
/// policy, evaluated per `(w2, algorithm)` point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedSpec {
    /// An explicit seed list, shared by every sweep point (the historical
    /// per-figure behaviour).
    List {
        /// The seeds.
        seeds: Vec<u64>,
    },
    /// Deterministic point-local SplitMix64 streams rooted at `base_seed`
    /// (the campaign/resilience discipline: enlarging the sweep never
    /// perturbs existing points). See [`shard_seed`].
    Stream {
        /// Root of every per-shard stream.
        base_seed: u64,
        /// Seeds drawn per (topology, scheme) point.
        seeds_per_point: usize,
    },
}

impl SeedSpec {
    /// The explicit seed list, if this is a `List` policy.
    pub fn as_list(&self) -> Option<&[u64]> {
        match self {
            SeedSpec::List { seeds } => Some(seeds),
            SeedSpec::Stream { .. } => None,
        }
    }

    /// The seeds of a seeded algorithm's point `(w2, algorithm)`.
    fn point_seeds(&self, w2: usize, algorithm: AlgorithmSpec) -> Vec<u64> {
        match *self {
            SeedSpec::List { ref seeds } => seeds.clone(),
            SeedSpec::Stream {
                base_seed,
                seeds_per_point,
            } => (0..seeds_per_point)
                .map(|index| shard_seed(base_seed, w2, algorithm, index))
                .collect(),
        }
    }
}

/// Count a completed shard (and emit a trace event when a sink is
/// installed). Rayon shards run on real threads, which is exactly what the
/// registry's atomics are for.
fn record_shard(shard: &SweepShard, crossbar_ps: u64, completion_ps: u64) {
    xgft_obs::global().counter("analysis.shards").incr();
    if xgft_obs::trace_enabled() {
        xgft_obs::trace(
            "shard_completed",
            &[
                ("w2", shard.w2.into()),
                ("algorithm", shard.algorithm.name().into()),
                ("seed", shard.seed.into()),
                (
                    "slowdown",
                    (completion_ps as f64 / crossbar_ps as f64).into(),
                ),
            ],
        );
    }
}

/// One point of a sweep: a (w2, algorithm) pair with its slowdown samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Number of top-level switches of the slimmed topology.
    pub w2: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// Slowdown sample per seed (a single entry for deterministic schemes).
    pub samples: Vec<f64>,
    /// Boxplot summary of the samples.
    pub stats: BoxplotStats,
}

/// The full result of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Name of the workload.
    pub trace: String,
    /// Switch radix parameter `k` of the swept family.
    pub k: usize,
    /// The crossbar reference completion time (ps).
    pub crossbar_ps: u64,
    /// All sweep points, ordered by descending w2 then algorithm.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Find a point by (w2, algorithm name).
    pub fn point(&self, w2: usize, algorithm: &str) -> Option<&SweepPoint> {
        self.points
            .iter()
            .find(|p| p.w2 == w2 && p.algorithm == algorithm)
    }

    /// Render the sweep as the text table the experiment binaries print:
    /// one row per w2, one column per algorithm (median slowdown).
    pub fn render_table(&self) -> String {
        let algorithms =
            crate::stats::unique_sorted(self.points.iter().map(|p| p.algorithm.as_str()));
        let mut w2s: Vec<usize> = self.points.iter().map(|p| p.w2).collect();
        w2s.sort_unstable_by(|a, b| b.cmp(a));
        w2s.dedup();
        let mut out = String::new();
        out.push_str(&format!(
            "# {} on XGFT(2;{k},{k};1,w2) — slowdown vs Full-Crossbar (median)\n",
            self.trace,
            k = self.k
        ));
        out.push_str(&format!("{:>4}", "w2"));
        for a in &algorithms {
            out.push_str(&format!(" {a:>10}"));
        }
        out.push('\n');
        for &w2 in &w2s {
            out.push_str(&format!("{w2:>4}"));
            for a in &algorithms {
                match self.point(w2, a) {
                    Some(p) => out.push_str(&format!(" {:>10.3}", p.stats.median)),
                    None => out.push_str(&format!(" {:>10}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Configuration of a progressive-slimming sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Switch radix `k` (16 in the paper).
    pub k: usize,
    /// The `w2` values to sweep (the paper uses 16 down to 1).
    pub w2_values: Vec<usize>,
    /// Algorithms to evaluate.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Where the randomised algorithms' seeds come from (the paper uses
    /// 40–60 per point).
    pub seeds: SeedSpec,
    /// Network parameters.
    pub network: NetworkConfig,
}

impl SweepConfig {
    /// The paper's slimming family `XGFT(2;16,16;1,w2)` for `w2 = 16..=1`.
    pub fn paper_family(algorithms: Vec<AlgorithmSpec>, seeds: SeedSpec) -> Self {
        SweepConfig {
            k: 16,
            w2_values: (1..=16).rev().collect(),
            algorithms,
            seeds,
            network: NetworkConfig::default(),
        }
    }

    /// Decompose the sweep into its (topology, algorithm, seed) shards:
    /// seeded algorithms get one shard per seed of their point under the
    /// seed policy, deterministic ones a single shard with a placeholder
    /// seed of 0. Pure function of the configuration.
    pub fn shards(&self) -> Vec<SweepShard> {
        let mut shards = Vec::new();
        for &w2 in &self.w2_values {
            for &algorithm in &self.algorithms {
                let seeds = if algorithm.is_seeded() {
                    self.seeds.point_seeds(w2, algorithm)
                } else {
                    vec![0]
                };
                shards.extend(seeds.into_iter().map(|seed| SweepShard {
                    w2,
                    algorithm,
                    seed,
                }));
            }
        }
        shards
    }

    /// Run the sweep for a workload pattern: the trace is derived from it,
    /// then one parallel replay per shard, aggregated into per-point
    /// boxplots. Errors if `k` and a `w2` describe no machine.
    pub fn run(&self, pattern: &Pattern) -> Result<SweepResult, TopologyError> {
        let trace = workloads::trace_from_pattern(pattern, 0);
        // Each machine of a sweep runs a deterministic scheme once, so
        // there is no pristine table to share: every shard compiles its own.
        let pairs = trace.communication_pairs();
        self.run_with(&trace, |xgft, shard| {
            crate::shards::compile(xgft, pattern, &pairs, shard.algorithm, shard.seed)
        })
    }

    /// [`Self::run`] through the closed-form [`CompactRoutes`] engine:
    /// identical shards, identical samples (compact paths are byte-equal to
    /// compiled ones), near-zero route state per shard. Panics if the
    /// configuration lists the colored scheme, which has no closed form.
    pub fn run_compact(&self, pattern: &Pattern) -> Result<SweepResult, TopologyError> {
        let trace = workloads::trace_from_pattern(pattern, 0);
        let pairs = trace.communication_pairs();
        self.run_with(&trace, |xgft, shard| {
            let scheme = shard
                .algorithm
                .compact_scheme(xgft, shard.seed)
                .expect("colored has no compact closed form; rejected upstream");
            CompactRoutes::for_pairs(xgft, scheme, pairs.iter().copied())
        })
    }

    /// Replay every shard (rayon, one work item per `(w2, algorithm)`
    /// point) against the crossbar reference and aggregate each point's
    /// samples, in shard order: deterministic for any worker count (see
    /// [`crate::shards::run_grouped`]).
    ///
    /// Every `(k, w2)` machine is built once, before any shard runs, so a
    /// `k` or `w2` that describes no machine is an error rather than a
    /// panic inside a worker. A point's group borrows its machine, builds
    /// its simulator and replay plan once and recycles them across the
    /// point's seeds: the simulator through [`NetworkSim::reset`] (pinned
    /// byte-identical to a fresh build) and the replay engine's compiled
    /// plan and match-queue arenas through its internal scratch reset
    /// (pinned by the tracesim slab suite). `routes` builds each shard's
    /// route source — a compiled table or closed-form [`CompactRoutes`] —
    /// because it is the only per-seed state.
    ///
    /// `trace` is always built by [`workloads::trace_from_pattern`], and
    /// `routes` covers every pair it communicates over.
    fn run_with<R: RouteSource>(
        &self,
        trace: &Trace,
        routes: impl Fn(&Xgft, &SweepShard) -> R + Sync,
    ) -> Result<SweepResult, TopologyError> {
        xgft_obs::span!("analysis.sweep");
        let shards = self.shards();
        let mut machines: Vec<(usize, Xgft)> = Vec::new();
        for shard in &shards {
            if machines.iter().all(|(w2, _)| *w2 != shard.w2) {
                let xgft = XgftSpec::slimmed_two_level(self.k, shard.w2).and_then(Xgft::new)?;
                machines.push((shard.w2, xgft));
            }
        }
        // A `trace_from_pattern` trace cannot deadlock: in every phase each
        // rank posts all its sends, which never block, before its first
        // receive, and every receive matches a send of the same phase. So
        // once all ranks reach a phase, every receive of that phase is
        // satisfied.
        let crossbar_ps = run_on_crossbar(trace, &self.network)
            .expect("crossbar replay cannot deadlock")
            .completion_ps;
        let samples = crate::shards::run_grouped(
            &shards,
            SweepShard::same_point,
            |point| {
                let (_, xgft) = machines
                    .iter()
                    .find(|(w2, _)| *w2 == point.w2)
                    .expect("every shard's machine was built");
                let sim = NetworkSim::new(xgft, self.network.clone());
                (xgft, ReplayEngine::new(trace), sim)
            },
            |(xgft, engine, sim), shard| {
                // The same phase argument holds on the routed network, and
                // the shard's routes cover every pair the trace
                // communicates over, so no message misses its route either.
                let result = run_reusing_sim(engine, sim, routes(xgft, shard))
                    .expect("replay cannot deadlock on a valid trace");
                record_shard(shard, crossbar_ps, result.completion_ps);
                result.completion_ps as f64 / crossbar_ps as f64
            },
        );
        let points = shards
            .chunk_by(SweepShard::same_point)
            .zip(samples)
            .map(|(group, samples)| SweepPoint {
                w2: group[0].w2,
                algorithm: group[0].algorithm.name().to_string(),
                stats: BoxplotStats::from_samples(&samples),
                samples,
            })
            .collect();
        Ok(SweepResult {
            trace: trace.name().to_string(),
            k: self.k,
            crossbar_ps,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_patterns::generators;

    /// A scaled-down progressive-slimming sweep (k = 4, small messages): the
    /// qualitative shape of Fig. 2 must hold — slowdown grows as the tree is
    /// slimmed, and D-mod-k matches the crossbar on the full tree for the
    /// WRF-like exchange.
    #[test]
    fn small_wrf_sweep_has_figure2_shape() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 32 * 1024).unwrap();
        let config = SweepConfig {
            k: 4,
            w2_values: vec![4, 2, 1],
            algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
            seeds: SeedSpec::List {
                seeds: vec![1, 2, 3],
            },
            network: NetworkConfig::default(),
        };
        let result = config.run(&pattern).unwrap();
        assert_eq!(result.k, 4);
        assert!(result.crossbar_ps > 0);

        let full = result.point(4, "d-mod-k").unwrap();
        assert!(
            full.stats.median < 1.1,
            "full tree d-mod-k {:?}",
            full.stats
        );
        let slim = result.point(1, "d-mod-k").unwrap();
        assert!(
            slim.stats.median > 2.0,
            "w2=1 should be much slower, got {:?}",
            slim.stats
        );
        // Slimming never speeds things up.
        assert!(slim.stats.median >= full.stats.median);

        // Random gets three samples, deterministic algorithms one.
        assert_eq!(result.point(2, "random").unwrap().samples.len(), 3);
        assert_eq!(result.point(2, "d-mod-k").unwrap().samples.len(), 1);

        let table = result.render_table();
        assert!(table.contains("d-mod-k"));
        assert!(table.contains("w2"));
    }

    /// The compact-representation sweep must reproduce the compiled sweep
    /// exactly: same shards, same crossbar reference, bitwise-equal
    /// slowdown samples for every (w2, algorithm, seed) point.
    #[test]
    fn compact_sweep_is_byte_identical_to_compiled() {
        let pattern = generators::shift(16, 4, 16 * 1024);
        let config = SweepConfig {
            k: 4,
            w2_values: vec![4, 2],
            algorithms: vec![
                AlgorithmSpec::DModK,
                AlgorithmSpec::Random,
                AlgorithmSpec::RandomNcaUp,
            ],
            seeds: SeedSpec::List { seeds: vec![1, 2] },
            network: NetworkConfig::default(),
        };
        let compiled = config.run(&pattern).unwrap();
        let compact = config.run_compact(&pattern).unwrap();
        assert_eq!(compiled.crossbar_ps, compact.crossbar_ps);
        assert_eq!(compiled.points.len(), compact.points.len());
        for (a, b) in compiled.points.iter().zip(&compact.points) {
            assert_eq!((a.w2, &a.algorithm), (b.w2, &b.algorithm));
            assert_eq!(a.samples, b.samples, "{}@w2={}", a.algorithm, a.w2);
        }
    }

    #[test]
    fn algorithm_spec_metadata() {
        assert!(AlgorithmSpec::Random.is_seeded());
        assert!(AlgorithmSpec::RandomNcaUp.is_seeded());
        assert!(!AlgorithmSpec::DModK.is_seeded());
        assert!(!AlgorithmSpec::Colored.is_seeded());
        assert_eq!(AlgorithmSpec::figure2_set().len(), 4);
        assert_eq!(AlgorithmSpec::figure5_set().len(), 6);
        assert_eq!(AlgorithmSpec::RandomNcaDown.name(), "r-NCA-d");
    }

    #[test]
    fn paper_family_covers_w2_16_down_to_1() {
        let cfg = SweepConfig::paper_family(
            AlgorithmSpec::figure2_set(),
            SeedSpec::List { seeds: vec![1] },
        );
        assert_eq!(cfg.k, 16);
        assert_eq!(cfg.w2_values.len(), 16);
        assert_eq!(cfg.w2_values[0], 16);
        assert_eq!(*cfg.w2_values.last().unwrap(), 1);
    }

    #[test]
    fn zero_w2_is_a_typed_error_not_a_panic() {
        let pattern = generators::shift(16, 4, 1024);
        let config = SweepConfig {
            k: 4,
            w2_values: vec![4, 0],
            algorithms: vec![AlgorithmSpec::DModK],
            seeds: SeedSpec::List { seeds: vec![1] },
            network: NetworkConfig::default(),
        };
        for run in [SweepConfig::run, SweepConfig::run_compact] {
            assert!(matches!(
                run(&config, &pattern),
                Err(TopologyError::ZeroParameter { level: 2 })
            ));
        }
    }
}
