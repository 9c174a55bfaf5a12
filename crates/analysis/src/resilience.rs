//! Resilience campaigns: scheme × failure-rate × seed sweeps on degraded
//! topologies.
//!
//! A resilience campaign measures what the paper never did: how each
//! oblivious scheme's *fixed* route choices survive link failures without
//! reconfiguration. Every shard of the sweep (one `(algorithm, failure
//! rate, seed index)` triple) takes the pristine compiled route table,
//! draws a [`FaultSet`] with [`FaultSet::uniform_links`], patches an
//! [`UndoableTable`] overlay over the table — rerouting only the affected
//! pairs under each scheme's own label arithmetic — and replays the
//! workload trace on the overlay. Shards whose patch reports
//! unroutable pairs are recorded as undelivered (the typed-miss path)
//! instead of being replayed into a guaranteed deadlock.
//!
//! Seed discipline matches [`crate::campaign`]: every shard draws its fault
//! seed and its algorithm seed from point-local SplitMix64 streams rooted
//! at the campaign's `base_seed`, so the shard list — and therefore every
//! aggregate — is a pure function of the configuration, byte-identical for
//! any rayon worker count. Failure rates are specified in *permille*
//! (tenths of a percent) so the configuration stays integral and the seed
//! streams never depend on float formatting.

use crate::campaign::{name_tag, splitmix64};
use crate::shards::{run_grouped, PristineTables};
use crate::slowdown::{run_on_crossbar, run_reusing_sim};
use crate::stats::BoxplotStats;
use crate::sweep::AlgorithmSpec;
use serde::{Deserialize, Serialize};
use xgft_core::{CompiledRouteTable, UndoableTable};
use xgft_netsim::{NetworkConfig, NetworkSim};
use xgft_patterns::Pattern;
use xgft_topo::{FaultSet, TopologyError, Xgft, XgftSpec};
use xgft_tracesim::{workloads, ReplayEngine};

/// Stream selector for [`resilience_seed`]: the fault-sampler seeds of a
/// point. Public so external tooling can reproduce a shard's exact draws.
pub const FAULT_STREAM: u64 = 0x00de_ad11;
/// Stream selector for [`resilience_seed`]: the routing-scheme seeds of a
/// point.
pub const ALGO_STREAM: u64 = 0x00a1_6022;

/// The seed of shard `index` in the `(w2, permille, algorithm)` point's
/// stream under `base_seed`. `stream` selects the fault-sampler or the
/// algorithm stream; exposed so tests can predict and pin the exact seeds.
pub fn resilience_seed(
    base_seed: u64,
    w2: usize,
    permille: u32,
    algorithm: AlgorithmSpec,
    index: usize,
    stream: u64,
) -> u64 {
    let mut h = splitmix64(base_seed ^ 0xfa17_5eed_fa17_5eed ^ stream);
    h = splitmix64(h ^ (w2 as u64));
    h = splitmix64(h ^ (permille as u64));
    h = splitmix64(h ^ name_tag(algorithm.name()));
    splitmix64(h ^ (index as u64))
}

/// One unit of parallel resilience work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceShard {
    /// The routing scheme under test.
    pub algorithm: AlgorithmSpec,
    /// Link failure rate in permille (10 = 1%).
    pub permille: u32,
    /// Index within the point's seed streams.
    pub index: usize,
    /// Seed of the fault sampler for this shard.
    pub fault_seed: u64,
    /// Seed of the routing scheme (0 for deterministic schemes).
    pub algo_seed: u64,
}

/// Configuration of a resilience campaign on one `XGFT(2; k, k; 1, w2)`
/// machine.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Campaign label carried into the output.
    pub name: String,
    /// Switch radix `k` (the machine has `k²` leaves).
    pub k: usize,
    /// Top-level width `w2` of the (possibly slimmed) machine.
    pub w2: usize,
    /// Schemes to evaluate.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Link failure rates in permille (e.g. `[0, 10, 50]` = 0%, 1%, 5%).
    pub failure_permille: Vec<u32>,
    /// Fault draws per `(algorithm, rate)` point (rate 0 collapses to one).
    pub faults_per_point: usize,
    /// Root of every per-shard seed stream.
    pub base_seed: u64,
    /// Network parameters.
    pub network: NetworkConfig,
}

impl ResilienceConfig {
    /// The campaign's shard list — pure function of the configuration.
    /// Rate-0 points carry a single shard (there is nothing to sample).
    pub fn shards(&self) -> Vec<ResilienceShard> {
        let mut shards = Vec::new();
        for &permille in &self.failure_permille {
            for &algorithm in &self.algorithms {
                let draws = if permille == 0 {
                    1
                } else {
                    self.faults_per_point
                };
                for index in 0..draws {
                    let fault_seed = resilience_seed(
                        self.base_seed,
                        self.w2,
                        permille,
                        algorithm,
                        index,
                        FAULT_STREAM,
                    );
                    let algo_seed = if algorithm.is_seeded() {
                        resilience_seed(
                            self.base_seed,
                            self.w2,
                            permille,
                            algorithm,
                            index,
                            ALGO_STREAM,
                        )
                    } else {
                        0
                    };
                    shards.push(ResilienceShard {
                        algorithm,
                        permille,
                        index,
                        fault_seed,
                        algo_seed,
                    });
                }
            }
        }
        shards
    }

    /// Run the campaign for a workload pattern (the trace is derived from
    /// it): every shard patches and replays in parallel; outcomes are
    /// recorded in deterministic shard order and aggregated per
    /// `(rate, algorithm)` point.
    ///
    /// The topology is built once, and the pristine compiled table of every
    /// *deterministic* scheme once per scheme — each of its shards borrows
    /// the table and pays only the patch of its overlay (shard cost is
    /// fault handling, not recompiles or copies). Seeded schemes route
    /// differently per `algo_seed`, so their shards still compile their own
    /// tables. Errors if `k` and `w2` describe no machine.
    pub fn run(&self, pattern: &Pattern) -> Result<ResilienceResult, TopologyError> {
        let trace = &workloads::trace_from_pattern(pattern, 0);
        xgft_obs::span!("analysis.resilience");
        let xgft = XgftSpec::slimmed_two_level(self.k, self.w2).and_then(Xgft::new)?;
        // A `trace_from_pattern` trace cannot deadlock: in every phase each
        // rank posts all its sends, which never block, before its first
        // receive, and every receive matches a send of the same phase.
        let crossbar_ps = run_on_crossbar(trace, &self.network)
            .expect("crossbar replay cannot deadlock")
            .completion_ps;
        let pairs = trace.communication_pairs();
        let tables = PristineTables::new(&xgft, pattern, &pairs, &self.algorithms);
        // One work item per (permille, algorithm) point: its replay engine
        // and simulator are built once and recycled across the point's
        // fault draws (the simulator through `NetworkSim::reset`, pinned
        // byte-identical to a fresh build).
        let groups = run_grouped(
            &self.shards(),
            |a, b| a.permille == b.permille && a.algorithm == b.algorithm,
            |_| {
                let sim = NetworkSim::new(&xgft, self.network.clone());
                (ReplayEngine::new(trace), sim)
            },
            |(engine, sim), shard| {
                let pristine = tables.get(shard.algorithm, shard.algo_seed);
                run_shard(&xgft, &pristine, shard, engine, sim, crossbar_ps)
            },
        );
        let points = groups.iter().map(|group| point_of(group)).collect();
        Ok(ResilienceResult {
            name: self.name.clone(),
            k: self.k,
            w2: self.w2,
            base_seed: self.base_seed,
            trace: trace.name().to_string(),
            crossbar_ps,
            shards: groups.into_iter().flatten().collect(),
            points,
        })
    }
}

/// Replay one shard: draw its fault set, patch an overlay over the pristine
/// routes, and replay when fully routable — through the group's recycled
/// replay engine and simulator.
fn run_shard(
    xgft: &Xgft,
    pristine: &CompiledRouteTable,
    shard: &ResilienceShard,
    engine: &mut ReplayEngine<'_>,
    sim: &mut NetworkSim,
    crossbar_ps: u64,
) -> ResilienceOutcome {
    let faults = FaultSet::uniform_links(xgft, shard.permille as f64 / 1000.0, shard.fault_seed);
    let mut table = UndoableTable::new(pristine);
    let stats = table.patch(xgft, &faults);
    let slowdown = if stats.unroutable == 0 {
        // The engine replays a `trace_from_pattern` trace, which cannot
        // deadlock (see `ResilienceConfig::run`), and with no unroutable
        // pair every message finds its route.
        let result =
            run_reusing_sim(engine, sim, &table).expect("fully-routed replay cannot deadlock");
        Some(result.completion_ps as f64 / crossbar_ps as f64)
    } else {
        None
    };
    ResilienceOutcome {
        algorithm: shard.algorithm.name().to_string(),
        permille: shard.permille,
        fault_seed: shard.fault_seed,
        algo_seed: shard.algo_seed,
        failed_channels: faults.num_failed_channels(),
        rerouted: stats.rerouted,
        unroutable_pairs: stats.unroutable,
        slowdown,
    }
}

/// Aggregate one `(rate, algorithm)` point from its shard outcomes.
fn point_of(outcomes: &[ResilienceOutcome]) -> ResiliencePoint {
    let samples: Vec<f64> = outcomes.iter().filter_map(|o| o.slowdown).collect();
    let delivered = samples.len();
    ResiliencePoint {
        algorithm: outcomes[0].algorithm.clone(),
        permille: outcomes[0].permille,
        shards: outcomes.len(),
        delivered,
        delivery_rate: delivered as f64 / outcomes.len() as f64,
        stats: if samples.is_empty() {
            None
        } else {
            Some(BoxplotStats::from_samples(&samples))
        },
        samples,
    }
}

/// The recorded outcome of one resilience shard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceOutcome {
    /// Algorithm name.
    pub algorithm: String,
    /// Link failure rate in permille.
    pub permille: u32,
    /// Fault-sampler seed the shard drew with.
    pub fault_seed: u64,
    /// Routing-scheme seed (0 for deterministic schemes).
    pub algo_seed: u64,
    /// Directed channels killed by the drawn fault set.
    pub failed_channels: usize,
    /// Routes the patch rerouted around the faults.
    pub rerouted: usize,
    /// Communication pairs left with no surviving minimal route.
    pub unroutable_pairs: usize,
    /// Slowdown vs the Full-Crossbar reference, when every pair stayed
    /// routable; `None` when the shard was undeliverable.
    pub slowdown: Option<f64>,
}

/// Aggregate of one `(failure rate, algorithm)` point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResiliencePoint {
    /// Algorithm name.
    pub algorithm: String,
    /// Link failure rate in permille.
    pub permille: u32,
    /// Shards run at this point.
    pub shards: usize,
    /// Shards whose workload stayed fully routable.
    pub delivered: usize,
    /// `delivered / shards`.
    pub delivery_rate: f64,
    /// Slowdown sample per delivered shard.
    pub samples: Vec<f64>,
    /// Boxplot summary of the samples (absent when nothing delivered).
    pub stats: Option<BoxplotStats>,
}

/// The full, serialisable result of a resilience campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceResult {
    /// Campaign label from the configuration.
    pub name: String,
    /// Switch radix of the machine.
    pub k: usize,
    /// Top-level width of the machine.
    pub w2: usize,
    /// Root seed of the per-shard streams.
    pub base_seed: u64,
    /// Name of the replayed workload.
    pub trace: String,
    /// Full-Crossbar reference completion time (ps).
    pub crossbar_ps: u64,
    /// Every shard's outcome, in deterministic shard order.
    pub shards: Vec<ResilienceOutcome>,
    /// Aggregated `(rate, algorithm)` points.
    pub points: Vec<ResiliencePoint>,
}

impl ResilienceResult {
    /// Find a point by `(permille, algorithm name)`.
    pub fn point(&self, permille: u32, algorithm: &str) -> Option<&ResiliencePoint> {
        self.points
            .iter()
            .find(|p| p.permille == permille && p.algorithm == algorithm)
    }

    /// Render the campaign as a text table: one row per failure rate, one
    /// column per algorithm showing `median slowdown (delivery %)`.
    pub fn render_table(&self) -> String {
        let algorithms =
            crate::stats::unique_sorted(self.points.iter().map(|p| p.algorithm.as_str()));
        let mut rates: Vec<u32> = self.points.iter().map(|p| p.permille).collect();
        rates.sort_unstable();
        rates.dedup();
        let mut out = String::new();
        out.push_str(&format!(
            "# {} on XGFT(2;{k},{k};1,{w2}) — slowdown vs Full-Crossbar (median, delivery %)\n",
            self.trace,
            k = self.k,
            w2 = self.w2
        ));
        out.push_str(&format!("{:>7}", "fail%"));
        for a in &algorithms {
            out.push_str(&format!(" {a:>16}"));
        }
        out.push('\n');
        for &rate in &rates {
            out.push_str(&format!("{:>7.1}", rate as f64 / 10.0));
            for a in &algorithms {
                match self.point(rate, a) {
                    Some(p) => match &p.stats {
                        Some(stats) => out.push_str(&format!(
                            " {:>9.3} ({:>3.0}%)",
                            stats.median,
                            p.delivery_rate * 100.0
                        )),
                        None => out.push_str(&format!(" {:>9} ({:>3.0}%)", "-", 0.0)),
                    },
                    None => out.push_str(&format!(" {:>16}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_patterns::generators;

    fn mini() -> ResilienceConfig {
        ResilienceConfig {
            name: "mini".into(),
            k: 4,
            w2: 4,
            algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
            failure_permille: vec![0, 100],
            faults_per_point: 2,
            base_seed: 7,
            network: NetworkConfig::default(),
        }
    }

    #[test]
    fn shard_streams_are_deterministic_and_point_local() {
        let config = mini();
        let shards = config.shards();
        // 2 algorithms × (1 shard at rate 0 + 2 at rate 100).
        assert_eq!(shards.len(), 2 * 3);
        assert_eq!(shards, config.shards());
        // Deterministic schemes carry algo_seed 0, seeded ones stream
        // values; fault streams differ from algorithm streams.
        for s in &shards {
            if s.algorithm.is_seeded() {
                assert_ne!(s.algo_seed, 0);
                assert_ne!(s.algo_seed, s.fault_seed);
            } else {
                assert_eq!(s.algo_seed, 0);
            }
            assert_eq!(
                s.fault_seed,
                resilience_seed(7, 4, s.permille, s.algorithm, s.index, FAULT_STREAM)
            );
        }
        // Streams are point-local: changing the rate changes the seeds.
        assert_ne!(
            resilience_seed(7, 4, 100, AlgorithmSpec::Random, 0, FAULT_STREAM),
            resilience_seed(7, 4, 200, AlgorithmSpec::Random, 0, FAULT_STREAM)
        );
    }

    #[test]
    fn campaign_runs_aggregates_and_degrades_gracefully() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap();
        let mut config = mini();
        // A brutal rate that disconnects pairs on a 4-ary machine.
        config.failure_permille = vec![0, 800];
        config.faults_per_point = 3;
        let result = config.run(&pattern).unwrap();
        assert_eq!(result.shards.len(), 2 * (1 + 3));
        assert!(result.crossbar_ps > 0);

        // Rate 0: everything delivers at the pristine slowdown.
        let base = result.point(0, "d-mod-k").unwrap();
        assert_eq!(base.delivery_rate, 1.0);
        assert!(base.stats.as_ref().unwrap().median >= 0.999);

        // Rate 80%: wholesale disconnection — most shards report typed
        // unroutable pairs instead of hanging replays.
        let heavy = result.point(800, "d-mod-k").unwrap();
        assert!(heavy.delivery_rate < 1.0);
        let undelivered: Vec<_> = result
            .shards
            .iter()
            .filter(|o| o.permille == 800 && o.slowdown.is_none())
            .collect();
        assert!(!undelivered.is_empty());
        assert!(undelivered.iter().all(|o| o.unroutable_pairs > 0));

        let table = result.render_table();
        assert!(table.contains("fail%"));
        assert!(table.contains("d-mod-k"));
        assert!(table.contains("80.0"));
    }

    #[test]
    fn moderate_faults_reroute_without_losing_delivery() {
        let pattern = generators::shift(16, 4, 8 * 1024);
        let config = ResilienceConfig {
            name: "reroute".into(),
            k: 4,
            w2: 4,
            algorithms: vec![AlgorithmSpec::SModK],
            failure_permille: vec![150],
            faults_per_point: 4,
            base_seed: 3,
            network: NetworkConfig::default(),
        };
        let result = config.run(&pattern).unwrap();
        // On the full 4-ary tree a 15% link cut leaves plenty of NCA
        // alternatives: every shard delivers, and at least one had to
        // reroute something.
        let point = result.point(150, "s-mod-k").unwrap();
        assert_eq!(point.delivery_rate, 1.0);
        assert!(result.shards.iter().any(|o| o.rerouted > 0));
        assert!(result.shards.iter().all(|o| o.slowdown.unwrap() >= 0.999));
    }

    #[test]
    fn zero_w2_is_a_typed_error_not_a_panic() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 1024).unwrap();
        let mut config = mini();
        config.w2 = 0;
        assert!(matches!(
            config.run(&pattern),
            Err(TopologyError::ZeroParameter { level: 2 })
        ));
    }
}
