//! Deterministic-RNG fuzz differential: the event-core's safety net.
//!
//! Every iteration draws a random small XGFT, a random routing scheme, a
//! random workload (pattern-generator or raw random flow set, random
//! message size — deliberately including non-segment-multiple sizes) and
//! optionally a random fault set (uniform links, a switch kill or a
//! correlated cable cut), then prices the routed traffic through three
//! independent engines and two injection paths:
//!
//! 1. **netsim, per-message** — `schedule_message_on_path` flow by flow;
//! 2. **netsim, batched** — the same matrix through one
//!    [`InjectionBatch`]/`schedule_batch` call, asserted *bit-identical*
//!    to (1): same report, same ids, same per-channel busy times;
//! 3. **tracesim** — the same flows replayed as a Send/Recv trace over the
//!    same route table, asserted byte-equal to netsim channel by
//!    channel;
//! 4. **xgft-flow** — exact per-channel loads with per-flow demands in
//!    channel-occupancy picoseconds (`ideal_transfer_ps`), so the
//!    analytical loads must equal the simulated busy times to float
//!    round-off (1e-9 relative), channel by channel.
//!
//! Degraded iterations additionally fire the drawn fault set's channels
//! as **mid-run `fail_channel` events**: the patched routes avoid those
//! channels, so the failures must interleave with traffic in the event
//! core without perturbing any engine's outcome. A further drop/repair
//! sub-case fails a channel the traffic *does* cross (`Drop` policy),
//! repairs it mid-run and injects follow-up messages over the healed
//! path — tracesim and the flow model cannot price in-flight drops, so
//! that case pins the narrower per-message ≡ batched invariant plus
//! delivered/dropped conservation.
//!
//! The loop is seeded from a fixed constant through the workspace's
//! canonical SplitMix64, so every run (and every CI run) replays the same
//! instance stream; a failure message names the iteration seed, which is
//! enough to reproduce it under a debugger. `XGFT_FUZZ_ITERS` raises the
//! budget (the CI step pins it explicitly); the in-tree default keeps the
//! suite fast.

use xgft_core::{
    CompiledRouteTable, DModK, RandomNcaDown, RandomNcaUp, RandomRouting, RoutingAlgorithm, SModK,
    UndoableTable,
};
use xgft_flow::{DegradedLoads, TrafficMatrix};
use xgft_netsim::{FailurePolicy, InjectionBatch, NetworkConfig, NetworkSim, SimReport};
use xgft_patterns::generators;
use xgft_topo::fault::splitmix64;
use xgft_topo::{FaultSet, Xgft, XgftSpec};
use xgft_tracesim::{RankEvent, ReplayEngine, RoutedNetwork, Trace};

/// Iterations when `XGFT_FUZZ_ITERS` is unset: enough to cover every
/// scheme × workload family combination at least once, small enough for
/// the default test run.
const DEFAULT_ITERS: u64 = 24;

/// Fixed stream seed — the whole fuzz run is a pure function of this.
const STREAM_SEED: u64 = 0x5EED_D1FF_E7E5_71A1;

/// Minimal deterministic RNG over the workspace's canonical SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform draw in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

fn cfg() -> NetworkConfig {
    NetworkConfig::default()
}

/// A random small machine: slimmed two-level or an irregular 2–3-level
/// spec, capped at 64 leaves so a fuzz iteration stays in the millisecond
/// range.
fn random_topology(rng: &mut Rng) -> Xgft {
    let spec = match rng.below(3) {
        0 => {
            let k = 2 + rng.below(3) as usize; // 2..=4 -> 4..16 leaves
            let w2 = 1 + rng.below(k as u64) as usize;
            XgftSpec::slimmed_two_level(k, w2).unwrap()
        }
        1 => {
            let k = 2 + rng.below(2) as usize;
            XgftSpec::k_ary_n_tree(k, 3) // k^3 = 8 or 27 leaves
        }
        _ => {
            let m1 = 2 + rng.below(2) as usize;
            let m2 = 2 + rng.below(2) as usize;
            let w2 = 1 + rng.below(2) as usize;
            let w3 = 1 + rng.below(2) as usize;
            XgftSpec::new(vec![m1, m2, 2], vec![1, w2, w3]).unwrap()
        }
    };
    Xgft::new(spec).unwrap()
}

/// A random routing scheme over the machine.
fn random_scheme(rng: &mut Rng, xgft: &Xgft) -> (String, Box<dyn RoutingAlgorithm>) {
    match rng.below(5) {
        0 => ("d-mod-k".into(), Box::new(DModK::new())),
        1 => ("s-mod-k".into(), Box::new(SModK::new())),
        2 => {
            let seed = rng.next();
            (
                format!("random/{seed:#x}"),
                Box::new(RandomRouting::new(seed)),
            )
        }
        3 => {
            let seed = rng.next();
            (
                format!("r-nca-d/{seed:#x}"),
                Box::new(RandomNcaDown::new(xgft, seed)),
            )
        }
        _ => {
            let seed = rng.next();
            (
                format!("r-nca-u/{seed:#x}"),
                Box::new(RandomNcaUp::new(xgft, seed)),
            )
        }
    }
}

/// A random workload over `n` leaves: a named pattern-generator family or
/// a raw random flow set; message sizes include a non-segment-multiple.
fn random_flows(rng: &mut Rng, n: usize) -> (String, Vec<(usize, usize, u64)>) {
    let bytes = [1024u64, 4096, 5000, 16 * 1024][rng.below(4) as usize];
    let (name, pattern) = match rng.below(4) {
        0 => {
            let offset = 1 + rng.below(n as u64 - 1) as usize;
            (
                format!("shift+{offset}"),
                generators::shift(n, offset, bytes),
            )
        }
        1 => ("tornado".into(), generators::tornado(n, bytes).unwrap()),
        2 if n.is_power_of_two() => (
            "bit_complement".into(),
            generators::bit_complement(n, bytes).unwrap(),
        ),
        2 => ("ring_exchange".into(), generators::ring_exchange(n, bytes)),
        _ => {
            // Raw random flow set: up to 2n directed pairs, duplicates
            // dropped, self-pairs skipped.
            let mut flows: Vec<(usize, usize)> = (0..2 * n)
                .map(|_| (rng.below(n as u64) as usize, rng.below(n as u64) as usize))
                .filter(|&(s, d)| s != d)
                .collect();
            flows.sort_unstable();
            flows.dedup();
            let flows = flows.into_iter().map(|(s, d)| (s, d, bytes)).collect();
            return (format!("random-pairs/{bytes}B"), flows);
        }
    };
    let flows = pattern
        .combined()
        .network_flows()
        .map(|f| (f.src, f.dst, f.bytes))
        .collect();
    (format!("{name}/{bytes}B"), flows)
}

/// Netsim per-message injection: the historical reference path. The
/// `schedule` is a list of mid-run `fail_channel` events (time, channel)
/// applied with `CompleteInFlight` before traffic is injected.
fn run_per_message(
    xgft: &Xgft,
    table: &UndoableTable,
    flows: &[(usize, usize, u64)],
    schedule: &[(u64, usize)],
) -> (SimReport, Vec<u64>) {
    let mut sim = NetworkSim::new(xgft, cfg());
    for &(at_ps, ch) in schedule {
        sim.fail_channel(at_ps, ch, FailurePolicy::CompleteInFlight);
    }
    for &(s, d, bytes) in flows {
        let path = table.path(s, d).expect("routable flow");
        sim.schedule_message_on_path(0, s, d, bytes, path);
    }
    (sim.run_to_completion(), sim.channel_busy_ps())
}

/// Netsim batched injection of the same matrix and failure schedule.
fn run_batched(
    xgft: &Xgft,
    table: &UndoableTable,
    flows: &[(usize, usize, u64)],
    schedule: &[(u64, usize)],
) -> (SimReport, Vec<u64>) {
    let mut batch = InjectionBatch::with_capacity(flows.len(), 0);
    for &(s, d, bytes) in flows {
        batch.push(0, s, d, bytes, table.path(s, d).expect("routable flow"));
    }
    let mut sim = NetworkSim::new(xgft, cfg());
    for &(at_ps, ch) in schedule {
        sim.fail_channel(at_ps, ch, FailurePolicy::CompleteInFlight);
    }
    sim.schedule_batch(&batch);
    (sim.run_to_completion(), sim.channel_busy_ps())
}

/// Tracesim replay of the same flows over the same table, with the same
/// mid-run failure schedule applied to the inner simulator.
fn run_tracesim(
    xgft: &Xgft,
    table: &UndoableTable,
    flows: &[(usize, usize, u64)],
    schedule: &[(u64, usize)],
) -> Vec<u64> {
    let n = xgft.num_leaves();
    let mut programs: Vec<Vec<RankEvent>> = vec![vec![]; n];
    for (tag, &(s, d, bytes)) in flows.iter().enumerate() {
        programs[s].push(RankEvent::Send {
            dst: d,
            bytes,
            tag: tag as u32,
        });
    }
    for (tag, &(s, d, _)) in flows.iter().enumerate() {
        programs[d].push(RankEvent::Recv {
            src: s,
            tag: tag as u32,
        });
    }
    let trace = Trace::new("fuzz", programs);
    let mut sim = NetworkSim::new(xgft, cfg());
    for &(at_ps, ch) in schedule {
        sim.fail_channel(at_ps, ch, FailurePolicy::CompleteInFlight);
    }
    let mut net = RoutedNetwork::with_source(sim, table.clone());
    ReplayEngine::new(&trace)
        .run(&mut net)
        .expect("fully-routed replay cannot deadlock");
    net.sim().channel_busy_ps()
}

/// The drop/repair differential: fail a channel the traffic actually
/// crosses mid-run with the `Drop` policy, repair it later, and inject a
/// couple of follow-up messages over the healed path. Tracesim and the
/// flow model cannot price in-flight drops, so this sub-case asserts the
/// narrower invariant — per-message and batched injection stay
/// bit-identical — plus conservation (delivered + dropped == offered).
fn drop_repair_differential(
    label: &str,
    xgft: &Xgft,
    table: &UndoableTable,
    flows: &[(usize, usize, u64)],
    rng: &mut Rng,
) {
    // A channel some flow actually crosses (the Drop policy is inert on
    // idle channels), plus a fail -> repair -> re-inject timeline drawn
    // at in-flight scale (tens of microseconds at the default 2 Gb/s).
    let first_path = table.path(flows[0].0, flows[0].1).expect("routable flow");
    let victim = first_path[rng.below(first_path.len() as u64) as usize] as usize;
    let t_fail = 1 + rng.below(100_000_000);
    let t_repair = t_fail + 1 + rng.below(100_000_000);
    let mut late: Vec<(u64, usize, usize, u64)> = flows
        .iter()
        .take(2)
        .map(|&(s, d, bytes)| (t_repair + 1 + rng.below(10_000_000), s, d, bytes))
        .collect();
    // `schedule_batch` admits entries in ascending-`at_ps` order; the
    // per-message reference must call in that same order to stay
    // bit-identical, so fix one sorted order for both paths.
    late.sort_by_key(|&(at_ps, ..)| at_ps);
    let offered = flows.len() + late.len();

    let mut per_message = NetworkSim::new(xgft, cfg());
    per_message.fail_channel(t_fail, victim, FailurePolicy::Drop);
    per_message.repair_channel(t_repair, victim);
    for &(s, d, bytes) in flows {
        per_message.schedule_message_on_path(0, s, d, bytes, table.path(s, d).unwrap());
    }
    for &(at_ps, s, d, bytes) in &late {
        per_message.schedule_message_on_path(at_ps, s, d, bytes, table.path(s, d).unwrap());
    }
    let report_ref = per_message.run_to_completion();
    let busy_ref = per_message.channel_busy_ps();

    let mut batch = InjectionBatch::with_capacity(offered, 0);
    for &(s, d, bytes) in flows {
        batch.push(0, s, d, bytes, table.path(s, d).unwrap());
    }
    for &(at_ps, s, d, bytes) in &late {
        batch.push(at_ps, s, d, bytes, table.path(s, d).unwrap());
    }
    let mut batched = NetworkSim::new(xgft, cfg());
    batched.fail_channel(t_fail, victim, FailurePolicy::Drop);
    batched.repair_channel(t_repair, victim);
    batched.schedule_batch(&batch);
    let report_batch = batched.run_to_completion();
    let busy_batch = batched.channel_busy_ps();

    assert_eq!(
        report_ref, report_batch,
        "{label}: drop/repair case — batched injection diverged"
    );
    assert_eq!(
        busy_ref, busy_batch,
        "{label}: drop/repair case — batched busy vector diverged"
    );
    assert_eq!(
        report_ref.completed_messages + report_ref.dropped_messages,
        offered,
        "{label}: drop/repair case — messages neither delivered nor dropped"
    );
}

/// Which of the widened cases one iteration exercised, so the stream can
/// be checked for coverage at the end of the run.
#[derive(Default)]
struct Exercised {
    degraded: bool,
    mid_run_failures: bool,
    drop_repair: bool,
}

/// A random fault set over the machine: uniform link failures, a switch
/// kill or a correlated cable cut at a random level.
fn random_faults(rng: &mut Rng, xgft: &Xgft) -> FaultSet {
    match rng.below(3) {
        0 => FaultSet::uniform_links(xgft, 0.08, rng.next()),
        1 => {
            let level = 1 + rng.below(xgft.height() as u64) as usize;
            FaultSet::random_switch_kills(xgft, level, 1, rng.next())
        }
        _ => {
            let cable_level = 1 + rng.below(xgft.height() as u64 - 1) as usize;
            FaultSet::targeted_level_cut(xgft, cable_level, 1, rng.next())
        }
    }
}

/// One fuzz iteration: draw an instance, run every engine, assert the
/// differential invariants.
fn fuzz_iteration(iter: u64, rng: &mut Rng) -> Exercised {
    let mut exercised = Exercised::default();
    let xgft = random_topology(rng);
    let n = xgft.num_leaves();
    let (scheme_name, algo) = random_scheme(rng, &xgft);
    let (workload_name, all_flows) = random_flows(rng, n);
    if all_flows.is_empty() {
        return exercised;
    }

    let mut table = UndoableTable::new(CompiledRouteTable::compile(
        &xgft,
        algo.as_ref(),
        all_flows.iter().map(|&(s, d, _)| (s, d)),
    ));

    // Every third-ish iteration degrades the topology and patches the
    // table, restricting the checked flows to the survivors. The failed
    // channels then double as a mid-run `fail_channel` schedule: the
    // patched routes already avoid them, so firing the failures *during*
    // the run must leave every engine's outcome untouched while the
    // failure events interleave with traffic in the event core.
    let degraded = rng.chance(33);
    let mut schedule: Vec<(u64, usize)> = Vec::new();
    if degraded {
        exercised.degraded = true;
        let faults = random_faults(rng, &xgft);
        table.patch(&xgft, &faults);
        let failed: Vec<usize> = faults.iter_failed().collect();
        for ch in failed.iter().take(3) {
            schedule.push((1 + rng.below(100_000_000), *ch));
        }
        exercised.mid_run_failures = !schedule.is_empty();
    }
    let flows: Vec<(usize, usize, u64)> = all_flows
        .iter()
        .copied()
        .filter(|&(s, d, _)| table.path(s, d).is_some())
        .collect();
    if flows.is_empty() {
        return exercised;
    }

    let label =
        format!("iter {iter}: {n} leaves, {scheme_name}, {workload_name}, degraded={degraded}");

    // Injection-path differential: batched must be bit-identical.
    let (report_ref, busy_ref) = run_per_message(&xgft, &table, &flows, &schedule);
    let (report_batch, busy_batch) = run_batched(&xgft, &table, &flows, &schedule);
    assert_eq!(
        report_ref, report_batch,
        "{label}: batched injection diverged from per-message injection"
    );
    assert_eq!(
        busy_ref, busy_batch,
        "{label}: batched busy vector diverged"
    );
    assert_eq!(
        report_ref.completed_messages,
        flows.len(),
        "{label}: every routable flow must deliver"
    );

    // Engine differential 1: tracesim replay, byte-equal busy times.
    let busy_trace = run_tracesim(&xgft, &table, &flows, &schedule);
    assert_eq!(
        busy_ref, busy_trace,
        "{label}: netsim and tracesim busy vectors diverged"
    );

    // Engine differential 2: the flow model with demands in occupancy-ps
    // units — analytical loads equal simulated busy to float round-off.
    let network = cfg();
    let traffic = TrafficMatrix::from_flows(
        n,
        flows
            .iter()
            .map(|&(s, d, bytes)| (s, d, network.ideal_transfer_ps(bytes) as f64)),
    );
    let model = DegradedLoads::from_source(&xgft, &table, &traffic);
    assert!(model.is_fully_routed(), "{label}: checked flows must route");
    let scale = busy_ref.iter().copied().max().unwrap_or(1).max(1) as f64;
    for (idx, (&busy, &load)) in busy_ref.iter().zip(model.loads()).enumerate() {
        assert!(
            (busy as f64 - load).abs() <= 1e-9 * scale,
            "{label}: channel {idx} disagrees — netsim busy {busy} ps vs flow load {load} ps"
        );
    }

    // Every other-ish iteration additionally runs the drop/repair
    // differential on the same instance (in-flight drops, a mid-run
    // repair and post-repair injections; per-message vs batched only).
    if rng.chance(50) {
        exercised.drop_repair = true;
        drop_repair_differential(&label, &xgft, &table, &flows, rng);
    }
    exercised
}

#[test]
fn fuzz_netsim_against_flow_and_tracesim() {
    let iters = std::env::var("XGFT_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_ITERS);
    let mut rng = Rng(STREAM_SEED);
    let mut degraded = 0u64;
    let mut mid_run = 0u64;
    let mut drop_repair = 0u64;
    for iter in 0..iters {
        let exercised = fuzz_iteration(iter, &mut rng);
        degraded += exercised.degraded as u64;
        mid_run += exercised.mid_run_failures as u64;
        drop_repair += exercised.drop_repair as u64;
    }
    // The fixed stream must keep covering the widened cases: a draw-logic
    // change that silently stops degrading topologies or firing mid-run
    // failures would hollow the differential out without failing anything.
    if iters >= DEFAULT_ITERS {
        assert!(degraded > 0, "stream never degraded a topology");
        assert!(mid_run > 0, "stream never fired mid-run failures");
        assert!(drop_repair > 0, "stream never ran the drop/repair case");
    }
}
