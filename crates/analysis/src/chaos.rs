//! Chaos lab: long-horizon fault/repair campaigns with per-epoch SLA
//! metrics.
//!
//! Where [`crate::resilience`] asks how a *fixed* fault draw degrades one
//! replay, the chaos lab asks how a machine behaves through *time*: a
//! deterministic, seeded timeline of incidents — Poisson-style link bursts,
//! switch churn, correlated top-level cable cuts — each striking mid-epoch
//! and being repaired a fixed number of epochs later. The routing layer
//! reacts one epoch behind reality: epoch `e` runs on the table patched for
//! every incident *known at the epoch boundary*, so incidents that start
//! inside `e` drop in-flight traffic (the SLA cost of detection latency),
//! and from `e + 1` the table is rebuilt as pristine plus the epoch's
//! cumulative fault set, never a chain of one-way patches, so repairs
//! genuinely heal. The rebuild is an [`UndoableTable`] revert-and-patch
//! over the borrowed pristine table — O(patched pairs) of new state per
//! epoch, no copy of the pristine routes — pinned pair-identical to a
//! from-scratch [`CompiledRouteTable::compile_degraded`] by the
//! `fault_timeline` property tests.
//!
//! Every epoch reports SLA outcomes as integers: delivered / dropped /
//! unroutable message counts with parts-per-million fractions, p50/p99
//! delivery latency, and the time-to-reroute (the tail of the epoch spent
//! running on stale routes). Seed discipline matches the other campaigns:
//! the timeline and every shard seed are pure SplitMix64 functions of the
//! configuration, so results are byte-identical for any rayon worker
//! count.

use crate::campaign::{name_tag, splitmix64};
use crate::shards::{run_grouped, PristineTables};
use crate::sweep::AlgorithmSpec;
use serde::{Deserialize, Serialize};
use std::fmt;
use xgft_core::{CompiledRouteTable, UndoableTable};
use xgft_netsim::{FailurePolicy, InjectionBatch, NetworkConfig, NetworkSim};
use xgft_patterns::{Flow, Pattern};
use xgft_topo::{FaultSet, TopologyError, Xgft, XgftSpec};

/// Schema version of [`ChaosResult`] — bump on any breaking change to the
/// timeline payload.
pub const CHAOS_SCHEMA_VERSION: u32 = 1;

/// Stream selector for [`chaos_seed`]: per-epoch link-burst draws.
pub const LINK_STREAM: u64 = 0x00c4_a051;
/// Stream selector for [`chaos_seed`]: per-epoch switch-kill draws.
pub const KILL_STREAM: u64 = 0x00c4_a052;
/// Stream selector for [`chaos_seed`]: per-epoch correlated-cut draws.
pub const CUT_STREAM: u64 = 0x00c4_a053;
/// Stream selector for [`chaos_seed`]: mid-epoch strike-time draws.
pub const STRIKE_STREAM: u64 = 0x00c4_a054;
/// Stream selector for per-shard algorithm seeds.
pub const ALGO_STREAM: u64 = 0x00c4_a055;

/// The draw of `stream` at `epoch` under `base_seed` — the chaos lab's
/// seed discipline, exposed so tests and external tooling can predict and
/// pin every incident a campaign will generate.
pub fn chaos_seed(base_seed: u64, epoch: usize, stream: u64) -> u64 {
    let mut h = splitmix64(base_seed ^ 0x00c4_a05b_ad1d_ea5e ^ stream);
    h = splitmix64(h ^ (epoch as u64));
    splitmix64(h)
}

/// The algorithm seed of shard `index` for `algorithm` under `base_seed`.
pub fn chaos_algo_seed(base_seed: u64, algorithm: AlgorithmSpec, index: usize) -> u64 {
    let mut h = splitmix64(base_seed ^ 0x00c4_a05b_ad1d_ea5e ^ ALGO_STREAM);
    h = splitmix64(h ^ name_tag(algorithm.name()));
    splitmix64(h ^ (index as u64))
}

/// What struck in one incident of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncidentKind {
    /// Independent per-cable link failures (a Bernoulli burst).
    LinkBurst,
    /// A whole top-level switch going dark.
    SwitchKill,
    /// A correlated cut of top-level cables (a bundle sliced through).
    CableCut,
}

impl IncidentKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            IncidentKind::LinkBurst => "link-burst",
            IncidentKind::SwitchKill => "switch-kill",
            IncidentKind::CableCut => "cable-cut",
        }
    }
}

/// One incident of a chaos timeline: a fault set that strikes mid-epoch
/// and is repaired at a later epoch boundary.
#[derive(Debug, Clone)]
pub struct ChaosIncident {
    /// Epoch during which the incident strikes.
    pub epoch: usize,
    /// Offset within the epoch when the channels actually die (ps).
    pub strike_ps: u64,
    /// What struck.
    pub kind: IncidentKind,
    /// The channels the incident kills.
    pub faults: FaultSet,
    /// First epoch that no longer carries the incident: the routing layer
    /// sees it during epochs `epoch + 1 ..= repair_epoch - 1`.
    pub repair_epoch: usize,
}

/// The serialisable summary of one incident (the [`FaultSet`] itself stays
/// internal; the payload carries its size).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncidentSummary {
    /// Epoch during which the incident strikes.
    pub epoch: usize,
    /// Offset within the epoch when the channels die (ps).
    pub strike_ps: u64,
    /// Incident kind name (`link-burst`, `switch-kill`, `cable-cut`).
    pub kind: String,
    /// Directed channels the incident kills.
    pub failed_channels: usize,
    /// First epoch that no longer carries the incident.
    pub repair_epoch: usize,
}

/// One unit of parallel chaos work: a routing scheme (with its seed)
/// driven through the shared timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosShard {
    /// The routing scheme under test.
    pub algorithm: AlgorithmSpec,
    /// Index within the algorithm's seed stream.
    pub index: usize,
    /// Seed of the routing scheme (0 for deterministic schemes).
    pub algo_seed: u64,
}

/// Why [`ChaosConfig::run`] rejected its configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// `epochs` is zero: a campaign needs at least one epoch.
    NoEpochs,
    /// `epoch_ps` is zero: epochs need a positive duration.
    ZeroEpochLength,
    /// `k` and `w2` do not describe a machine (e.g. one of them is zero).
    Topology(TopologyError),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::NoEpochs => write!(f, "a chaos campaign needs at least one epoch"),
            ChaosError::ZeroEpochLength => write!(f, "chaos epochs must have positive duration"),
            ChaosError::Topology(e) => write!(f, "chaos machine: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// Configuration of a chaos campaign on one `XGFT(2; k, k; 1, w2)`
/// machine. All knobs are integers so the seed streams and the serialised
/// form never depend on float formatting.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Campaign label carried into the output.
    pub name: String,
    /// Switch radix `k` (the machine has `k²` leaves).
    pub k: usize,
    /// Top-level width `w2` of the (possibly slimmed) machine.
    pub w2: usize,
    /// Schemes to evaluate.
    pub algorithms: Vec<AlgorithmSpec>,
    /// Number of epochs in the campaign.
    pub epochs: usize,
    /// Wall-clock length of one epoch in picoseconds — the window within
    /// which mid-epoch strikes land.
    pub epoch_ps: u64,
    /// Per-epoch, per-cable link failure probability in permille.
    pub link_fail_permille: u32,
    /// Per-epoch probability (permille) of one top-level switch dying.
    pub switch_kill_permille: u32,
    /// Per-epoch probability (permille) of a correlated top-level cable
    /// cut (a `w2`-wide bundle slice).
    pub cable_cut_permille: u32,
    /// Epochs an incident stays active before its repair lands.
    pub repair_epochs: usize,
    /// Seed draws per seeded scheme (deterministic schemes run one shard).
    pub seeds_per_point: usize,
    /// Root of the timeline and of every per-shard seed stream.
    pub base_seed: u64,
    /// Network parameters.
    pub network: NetworkConfig,
}

impl ChaosConfig {
    /// The campaign's shard list — pure function of the configuration.
    /// Deterministic schemes collapse to a single shard (the timeline is
    /// shared, so reruns would be byte-identical anyway).
    pub fn shards(&self) -> Vec<ChaosShard> {
        let mut shards = Vec::new();
        for &algorithm in &self.algorithms {
            let draws = if algorithm.is_seeded() {
                self.seeds_per_point
            } else {
                1
            };
            for index in 0..draws {
                let algo_seed = if algorithm.is_seeded() {
                    chaos_algo_seed(self.base_seed, algorithm, index)
                } else {
                    0
                };
                shards.push(ChaosShard {
                    algorithm,
                    index,
                    algo_seed,
                });
            }
        }
        shards
    }

    /// Generate the campaign's incident timeline — a pure function of the
    /// configuration and the machine, shared by every shard so schemes are
    /// compared under identical weather.
    pub fn timeline(&self, xgft: &Xgft) -> Vec<ChaosIncident> {
        let mut incidents = Vec::new();
        let top_level = xgft.height();
        let cable_level = top_level - 1;
        let cables = xgft.channels().cables_at_level(cable_level);
        for epoch in 0..self.epochs {
            let mut strike_stream = chaos_seed(self.base_seed, epoch, STRIKE_STREAM);
            let mut push = |kind: IncidentKind, faults: FaultSet, incidents: &mut Vec<_>| {
                if faults.is_empty() {
                    return;
                }
                // Strikes land in the middle half of the epoch so they are
                // never flush with a boundary.
                strike_stream = splitmix64(strike_stream);
                let strike_ps = self.epoch_ps / 4 + strike_stream % (self.epoch_ps / 2).max(1);
                incidents.push(ChaosIncident {
                    epoch,
                    strike_ps,
                    kind,
                    faults,
                    repair_epoch: epoch + 1 + self.repair_epochs,
                });
            };
            if self.link_fail_permille > 0 {
                let seed = chaos_seed(self.base_seed, epoch, LINK_STREAM);
                let faults =
                    FaultSet::uniform_links(xgft, self.link_fail_permille as f64 / 1000.0, seed);
                push(IncidentKind::LinkBurst, faults, &mut incidents);
            }
            if self.switch_kill_permille > 0 {
                let draw = chaos_seed(self.base_seed, epoch, KILL_STREAM);
                if draw % 1000 < self.switch_kill_permille as u64 {
                    let faults = FaultSet::random_switch_kills(xgft, top_level, 1, draw);
                    push(IncidentKind::SwitchKill, faults, &mut incidents);
                }
            }
            if self.cable_cut_permille > 0 {
                let draw = chaos_seed(self.base_seed, epoch, CUT_STREAM);
                if draw % 1000 < self.cable_cut_permille as u64 {
                    let count = self.w2.min(cables).max(1);
                    let faults = FaultSet::targeted_level_cut(xgft, cable_level, count, draw);
                    push(IncidentKind::CableCut, faults, &mut incidents);
                }
            }
        }
        incidents
    }

    /// Run the campaign: every shard drives the shared timeline in
    /// parallel; outcomes are recorded in deterministic shard order.
    ///
    /// The pristine compiled table of every *deterministic* scheme is
    /// built once and lent to its shard; epoch transitions pay only an
    /// [`UndoableTable`] revert-and-patch over it — pristine plus the
    /// cumulative fault set, at O(patched pairs) — never a copy, a full
    /// recompile or a chain of one-way patches.
    ///
    /// # Errors
    /// A typed [`ChaosError`] when `epochs` or `epoch_ps` is zero, or `k`
    /// and `w2` do not describe a machine.
    pub fn run(&self, pattern: &Pattern) -> Result<ChaosResult, ChaosError> {
        xgft_obs::span!("analysis.chaos");
        if self.epochs == 0 {
            return Err(ChaosError::NoEpochs);
        }
        if self.epoch_ps == 0 {
            return Err(ChaosError::ZeroEpochLength);
        }
        let xgft = XgftSpec::slimmed_two_level(self.k, self.w2)
            .and_then(Xgft::new)
            .map_err(ChaosError::Topology)?;
        let flows: Vec<Flow> = pattern.combined().network_flows().collect();
        let timeline = self.timeline(&xgft);
        xgft_obs::global()
            .counter("analysis.chaos.incidents")
            .add(timeline.len() as u64);
        let pairs: Vec<(usize, usize)> = flows.iter().map(|f| (f.src, f.dst)).collect();
        let tables = PristineTables::new(&xgft, pattern, &pairs, &self.algorithms);
        // One work item per shard. Per-scheme groups would be uneven (a
        // deterministic scheme has one shard, a seeded one a shard per
        // seed), and the shim's contiguous chunking never rebalances them.
        let outcomes: Vec<ChaosShardOutcome> = run_grouped(
            &self.shards(),
            |_, _| false,
            |_| InjectionBatch::new(),
            |batch, shard| {
                let pristine = tables.get(shard.algorithm, shard.algo_seed);
                self.run_shard(&xgft, &pristine, shard, &flows, &timeline, batch)
            },
        )
        .into_iter()
        .flatten()
        .collect();
        Ok(ChaosResult {
            schema_version: CHAOS_SCHEMA_VERSION,
            name: self.name.clone(),
            k: self.k,
            w2: self.w2,
            base_seed: self.base_seed,
            epochs: self.epochs,
            epoch_ps: self.epoch_ps,
            pattern: pattern.name().to_string(),
            offered_per_epoch: flows.len(),
            incidents: timeline
                .iter()
                .map(|i| IncidentSummary {
                    epoch: i.epoch,
                    strike_ps: i.strike_ps,
                    kind: i.kind.name().to_string(),
                    failed_channels: i.faults.num_failed_channels(),
                    repair_epoch: i.repair_epoch,
                })
                .collect(),
            shards: outcomes,
        })
    }

    /// Drive one shard through the timeline: per epoch, rebuild the table
    /// for the incidents known at the boundary, replay the workload, and
    /// strike the epoch's new incidents mid-run.
    ///
    /// The shard's scratch state is built once and recycled across epochs:
    /// the working table is an [`UndoableTable`] over the borrowed pristine
    /// table whose epoch transition reverts the previous overlay and patches
    /// the new cumulative set (pinned pair-identical to a degraded recompile
    /// by the `fault_timeline` properties), the simulator is reclaimed with
    /// [`NetworkSim::reset`] (pinned byte-identical to a fresh build), and
    /// the workload is lowered into one reused [`InjectionBatch`] (pinned
    /// bit-identical to per-message scheduling).
    fn run_shard(
        &self,
        xgft: &Xgft,
        pristine: &CompiledRouteTable,
        shard: &ChaosShard,
        flows: &[Flow],
        timeline: &[ChaosIncident],
        batch: &mut InjectionBatch,
    ) -> ChaosShardOutcome {
        let mut working = UndoableTable::new(pristine);
        let mut active: Vec<usize> = Vec::new();
        let mut rerouted = 0usize;
        let mut unroutable_pairs = 0usize;
        let mut sim = NetworkSim::new(xgft, self.network.clone());
        let mut epochs = Vec::with_capacity(self.epochs);
        for epoch in 0..self.epochs {
            // The incidents the routing layer knows about at this epoch's
            // boundary: struck in an earlier epoch, not yet repaired.
            let known: Vec<usize> = timeline
                .iter()
                .enumerate()
                .filter(|(_, i)| i.epoch < epoch && epoch < i.repair_epoch)
                .map(|(idx, _)| idx)
                .collect();
            let mut cumulative = FaultSet::none(xgft);
            for &idx in &known {
                cumulative.merge(&timeline[idx].faults);
            }
            if known != active {
                let stats = working.patch(xgft, &cumulative);
                rerouted = stats.rerouted;
                unroutable_pairs = stats.unroutable;
                active = known;
                xgft_obs::global()
                    .counter("analysis.chaos.repatches")
                    .incr();
            }

            sim.reset();
            // This epoch's fresh strikes: channels die mid-run while the
            // table still routes through them — Drop policy, so in-flight
            // traffic is lost, not stalled.
            let mut mid_epoch_failed = 0usize;
            let mut earliest_strike = None::<u64>;
            for incident in timeline.iter().filter(|i| i.epoch == epoch) {
                for dense in incident.faults.iter_failed() {
                    if !cumulative.is_failed(dense) && !sim.channel_is_failed(dense) {
                        sim.fail_channel(incident.strike_ps, dense, FailurePolicy::Drop);
                        mid_epoch_failed += 1;
                    }
                }
                earliest_strike = Some(match earliest_strike {
                    Some(t) => t.min(incident.strike_ps),
                    None => incident.strike_ps,
                });
            }
            // Stale-route exposure: the tail of the epoch between the first
            // strike and the boundary repatch runs on yesterday's table.
            let time_to_reroute_ps = earliest_strike.map_or(0, |t| self.epoch_ps - t);

            let mut unroutable_msgs = 0usize;
            batch.clear();
            for flow in flows {
                match working.path(flow.src, flow.dst) {
                    Some(path) => batch.push(0, flow.src, flow.dst, flow.bytes, path),
                    None => unroutable_msgs += 1,
                }
            }
            sim.schedule_batch(batch);
            let report = sim.run_to_completion();
            let offered = flows.len();
            let ppm = |part: usize| {
                if offered == 0 {
                    0
                } else {
                    (part as u64).saturating_mul(1_000_000) / offered as u64
                }
            };
            epochs.push(SlaEpoch {
                epoch,
                active_failed_channels: cumulative.num_failed_channels(),
                mid_epoch_failed_channels: mid_epoch_failed,
                rerouted,
                unroutable_pairs,
                offered,
                delivered: report.completed_messages,
                dropped: report.dropped_messages,
                unroutable: unroutable_msgs,
                p50_latency_ps: report.p50_latency_ps(),
                p99_latency_ps: report.p99_latency_ps(),
                dropped_ppm: ppm(report.dropped_messages),
                unroutable_ppm: ppm(unroutable_msgs),
                time_to_reroute_ps,
            });
        }
        ChaosShardOutcome {
            algorithm: shard.algorithm.name().to_string(),
            index: shard.index,
            algo_seed: shard.algo_seed,
            epochs,
        }
    }
}

/// The SLA outcome of one epoch of one shard. Every field is integral so
/// the serialised timeline is byte-stable across platforms and worker
/// counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlaEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Directed channels failed in the table the epoch ran on.
    pub active_failed_channels: usize,
    /// Directed channels that died mid-epoch (unknown to the table).
    pub mid_epoch_failed_channels: usize,
    /// Pairs the boundary repatch rerouted around the active faults.
    pub rerouted: usize,
    /// Pairs with no surviving minimal route in the epoch's table.
    pub unroutable_pairs: usize,
    /// Messages the workload offered.
    pub offered: usize,
    /// Messages delivered.
    pub delivered: usize,
    /// Messages lost at channels that died mid-epoch.
    pub dropped: usize,
    /// Messages never injected because their pair was unroutable.
    pub unroutable: usize,
    /// Median delivery latency (ps; 0 when nothing was delivered).
    pub p50_latency_ps: u64,
    /// 99th-percentile delivery latency (ps; 0 when nothing was delivered).
    pub p99_latency_ps: u64,
    /// Dropped fraction in parts per million of offered messages.
    pub dropped_ppm: u64,
    /// Unroutable fraction in parts per million of offered messages.
    pub unroutable_ppm: u64,
    /// Stale-route exposure: picoseconds between the epoch's earliest
    /// strike and the boundary repatch (0 in quiet epochs).
    pub time_to_reroute_ps: u64,
}

/// The recorded timeline of one chaos shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosShardOutcome {
    /// Algorithm name.
    pub algorithm: String,
    /// Index within the algorithm's seed stream.
    pub index: usize,
    /// Routing-scheme seed (0 for deterministic schemes).
    pub algo_seed: u64,
    /// Per-epoch SLA outcomes, in epoch order.
    pub epochs: Vec<SlaEpoch>,
}

impl ChaosShardOutcome {
    /// Delivered messages summed over the timeline.
    pub fn total_delivered(&self) -> usize {
        self.epochs.iter().map(|e| e.delivered).sum()
    }

    /// Dropped messages summed over the timeline.
    pub fn total_dropped(&self) -> usize {
        self.epochs.iter().map(|e| e.dropped).sum()
    }

    /// Never-injected (unroutable) messages summed over the timeline.
    pub fn total_unroutable(&self) -> usize {
        self.epochs.iter().map(|e| e.unroutable).sum()
    }
}

/// The full, serialisable result of a chaos campaign: a versioned
/// per-epoch SLA timeline for every shard, plus the shared incident log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosResult {
    /// Payload schema version ([`CHAOS_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Campaign label from the configuration.
    pub name: String,
    /// Switch radix of the machine.
    pub k: usize,
    /// Top-level width of the machine.
    pub w2: usize,
    /// Root seed of the timeline and the shard streams.
    pub base_seed: u64,
    /// Number of epochs.
    pub epochs: usize,
    /// Epoch length in picoseconds.
    pub epoch_ps: u64,
    /// Name of the workload pattern replayed each epoch.
    pub pattern: String,
    /// Messages the workload offers per epoch.
    pub offered_per_epoch: usize,
    /// The shared incident timeline, in generation order.
    pub incidents: Vec<IncidentSummary>,
    /// Every shard's timeline, in deterministic shard order.
    pub shards: Vec<ChaosShardOutcome>,
}

impl ChaosResult {
    /// Find a shard's timeline by `(algorithm name, index)`.
    pub fn shard(&self, algorithm: &str, index: usize) -> Option<&ChaosShardOutcome> {
        self.shards
            .iter()
            .find(|s| s.algorithm == algorithm && s.index == index)
    }

    /// Render the campaign as a text table: one row per epoch, one column
    /// per algorithm showing `delivered% / p99 µs` (seeded schemes
    /// aggregate over their shards), plus the incident log.
    pub fn render_table(&self) -> String {
        let algorithms =
            crate::stats::unique_sorted(self.shards.iter().map(|s| s.algorithm.as_str()));
        let mut out = String::new();
        out.push_str(&format!(
            "# chaos '{}' on XGFT(2;{k},{k};1,{w2}) — {} epochs × {} msgs, delivered% / p99 µs\n",
            self.name,
            self.epochs,
            self.offered_per_epoch,
            k = self.k,
            w2 = self.w2
        ));
        out.push_str(&format!("{:>6}", "epoch"));
        for a in &algorithms {
            out.push_str(&format!(" {a:>18}"));
        }
        out.push_str("  incidents\n");
        for epoch in 0..self.epochs {
            out.push_str(&format!("{epoch:>6}"));
            for a in &algorithms {
                let (mut offered, mut delivered, mut p99) = (0usize, 0usize, 0u64);
                for shard in self.shards.iter().filter(|s| &s.algorithm == a) {
                    let e = &shard.epochs[epoch];
                    offered += e.offered;
                    delivered += e.delivered;
                    p99 = p99.max(e.p99_latency_ps);
                }
                let pct = if offered == 0 {
                    100.0
                } else {
                    delivered as f64 * 100.0 / offered as f64
                };
                out.push_str(&format!(" {:>8.1}% {:>7.1}", pct, p99 as f64 / 1e6));
            }
            let strikes: Vec<String> = self
                .incidents
                .iter()
                .filter(|i| i.epoch == epoch)
                .map(|i| format!("{}({})", i.kind, i.failed_channels))
                .collect();
            out.push_str("  ");
            out.push_str(&strikes.join(" "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_patterns::generators;

    fn mini() -> ChaosConfig {
        ChaosConfig {
            name: "mini".into(),
            k: 4,
            w2: 4,
            algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
            epochs: 4,
            epoch_ps: 40_000_000,
            link_fail_permille: 120,
            switch_kill_permille: 300,
            cable_cut_permille: 300,
            repair_epochs: 1,
            seeds_per_point: 2,
            base_seed: 11,
            network: NetworkConfig::default(),
        }
    }

    #[test]
    fn shards_and_timeline_are_pure_functions_of_the_config() {
        let config = mini();
        let shards = config.shards();
        // One shard for the deterministic scheme, two for the seeded one.
        assert_eq!(shards.len(), 1 + 2);
        assert_eq!(shards, config.shards());
        for s in &shards {
            if s.algorithm.is_seeded() {
                assert_eq!(s.algo_seed, chaos_algo_seed(11, s.algorithm, s.index));
                assert_ne!(s.algo_seed, 0);
            } else {
                assert_eq!(s.algo_seed, 0);
            }
        }
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 4).unwrap()).unwrap();
        let a = config.timeline(&xgft);
        let b = config.timeline(&xgft);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.epoch, y.epoch);
            assert_eq!(x.strike_ps, y.strike_ps);
            assert_eq!(x.kind, y.kind);
            assert_eq!(
                x.faults.num_failed_channels(),
                y.faults.num_failed_channels()
            );
        }
        // A 12% link rate over 4 epochs on 16 top cables virtually always
        // draws something; strikes stay in the middle half of the epoch.
        assert!(!a.is_empty());
        for i in &a {
            assert!(i.strike_ps >= config.epoch_ps / 4);
            assert!(i.strike_ps < config.epoch_ps * 3 / 4 + 1);
            assert_eq!(i.repair_epoch, i.epoch + 2);
        }
        // Different base seeds give different weather.
        let mut other = config.clone();
        other.base_seed = 12;
        let c = other.timeline(&xgft);
        assert!(
            a.len() != c.len()
                || a.iter().zip(&c).any(|(x, y)| x.strike_ps != y.strike_ps
                    || x.faults.num_failed_channels() != y.faults.num_failed_channels())
        );
    }

    #[test]
    fn campaign_reports_sla_and_recovers_after_repairs() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap();
        let config = mini();
        let result = config.run(&pattern).unwrap();
        assert_eq!(result.schema_version, CHAOS_SCHEMA_VERSION);
        assert_eq!(result.shards.len(), 3);
        assert!(!result.incidents.is_empty());
        for shard in &result.shards {
            assert_eq!(shard.epochs.len(), 4);
            for (e, sla) in shard.epochs.iter().enumerate() {
                assert_eq!(sla.epoch, e);
                assert_eq!(
                    sla.offered,
                    sla.delivered + sla.dropped + sla.unroutable,
                    "every offered message is delivered, dropped, or unroutable"
                );
                if sla.delivered > 0 {
                    assert!(sla.p50_latency_ps > 0);
                    assert!(sla.p99_latency_ps >= sla.p50_latency_ps);
                }
            }
            // Epoch 0 runs on the pristine table: nothing is unroutable,
            // and drops can only come from mid-epoch strikes.
            let first = &shard.epochs[0];
            assert_eq!(first.active_failed_channels, 0);
            assert_eq!(first.unroutable, 0);
            if first.mid_epoch_failed_channels == 0 {
                assert_eq!(first.dropped, 0);
            }
        }
        // The shared timeline means every shard saw the same incidents.
        let strikes: Vec<usize> = result
            .shards
            .iter()
            .map(|s| s.epochs.iter().map(|e| e.mid_epoch_failed_channels).sum())
            .collect();
        assert!(strikes.windows(2).all(|w| w[0] == w[1]));
        // Reruns are byte-identical.
        assert_eq!(result, config.run(&pattern).unwrap());

        let table = result.render_table();
        assert!(table.contains("epoch"));
        assert!(table.contains("d-mod-k"));
    }

    #[test]
    fn strikes_drop_in_flight_traffic_and_repairs_heal() {
        // One guaranteed incident: a switch kill at epoch 1 (probability
        // forced to certainty), repaired for epoch 3. Long messages keep
        // traffic in flight when the strike lands.
        let pattern = generators::wrf_mesh_exchange(4, 4, 1024 * 1024).unwrap();
        let mut config = mini();
        config.algorithms = vec![AlgorithmSpec::DModK];
        config.link_fail_permille = 0;
        config.cable_cut_permille = 0;
        config.switch_kill_permille = 1000;
        config.epochs = 3;
        config.repair_epochs = 1;
        let result = config.run(&pattern).unwrap();
        let shard = &result.shards[0];
        // Every epoch strikes (probability 1000‰), so epoch 0 drops
        // in-flight messages at its mid-epoch kill.
        assert!(shard.epochs[0].dropped > 0);
        assert!(shard.epochs[0].time_to_reroute_ps > 0);
        // Epoch 1 runs on a table patched around epoch 0's kill: the
        // surviving pairs deliver, and the patch did real work.
        assert!(shard.epochs[1].active_failed_channels > 0);
        assert!(shard.epochs[1].rerouted > 0 || shard.epochs[1].unroutable_pairs > 0);
        assert_eq!(
            shard.epochs[1].delivered,
            shard.epochs[1].offered - shard.epochs[1].dropped - shard.epochs[1].unroutable
        );
    }

    #[test]
    fn zero_epochs_is_a_typed_error() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 1024).unwrap();
        let mut config = mini();
        config.epochs = 0;
        assert_eq!(config.run(&pattern), Err(ChaosError::NoEpochs));
    }

    #[test]
    fn zero_epoch_length_is_a_typed_error() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 1024).unwrap();
        let mut config = mini();
        config.epoch_ps = 0;
        assert_eq!(config.run(&pattern), Err(ChaosError::ZeroEpochLength));
    }

    #[test]
    fn zero_k_is_a_typed_error() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 1024).unwrap();
        let mut config = mini();
        config.k = 0;
        assert!(matches!(
            config.run(&pattern),
            Err(ChaosError::Topology(TopologyError::ZeroParameter { .. }))
        ));
    }

    #[test]
    fn zero_w2_is_a_typed_error() {
        let pattern = generators::wrf_mesh_exchange(4, 4, 1024).unwrap();
        let mut config = mini();
        config.w2 = 0;
        assert_eq!(
            config.run(&pattern),
            Err(ChaosError::Topology(TopologyError::ZeroParameter {
                level: 2
            }))
        );
    }
}
