//! The differential engine-agreement harness.
//!
//! Three independent engines can price the same routed traffic:
//!
//! 1. **xgft-flow** — exact per-channel loads accumulated from a compiled
//!    route table's stored paths ([`DegradedLoads::from_source`]);
//! 2. **xgft-netsim** — the event-driven simulator's accumulated
//!    per-channel busy time (`channel_busy_ps`);
//! 3. **xgft-tracesim** — a trace replay of the same flows through
//!    `RoutedNetwork`, reading the same busy counters afterwards.
//!
//! With every message carrying the same byte count, a channel's busy time
//! is exactly `(flows through it) × (serialization of one message)`, so all
//! three must agree *channel by channel*: the two simulators byte-for-byte,
//! and the flow model up to one global proportionality constant. The
//! harness sweeps randomized `(spec, scheme, pattern, fault set)` tuples —
//! every fig2/fig5 scheme, pristine and degraded topologies — and fails
//! loudly on any divergence. Random and the r-NCA family are additionally
//! checked seed-averaged against their closed-form route distributions
//! (the marginal the paper's 40–60-seed boxplots estimate).

use xgft::analysis::AlgorithmSpec;
use xgft::flow::{DegradedLoads, ExpectedLoads, TrafficMatrix};
use xgft::netsim::{NetworkConfig, NetworkSim};
use xgft::patterns::{ConnectivityMatrix, Pattern};
use xgft::routing::{
    CompactRoutes, CompiledRouteTable, RandomNcaDown, RandomRouting, RouteDistribution,
    RouteSource, UndoableTable,
};
use xgft::topo::{FaultSet, Xgft, XgftSpec};
use xgft::tracesim::{
    workloads, Network, NetworkError, RankEvent, ReplayEngine, ReplayError, RoutedNetwork, Trace,
};

const BYTES: u64 = 4 * 1024;

fn cfg() -> NetworkConfig {
    NetworkConfig::default()
}

/// A deterministic pseudo-random flow set over `n` leaves.
fn flow_set(n: usize, salt: usize) -> Vec<(usize, usize)> {
    let mut flows: Vec<(usize, usize)> = (0..n)
        .flat_map(|s| {
            [
                (s, (s * (salt % 5 + 2) + salt) % n),
                (s, (s + salt % (n - 1) + 1) % n),
            ]
        })
        .filter(|&(s, d)| s != d)
        .collect();
    flows.sort_unstable();
    flows.dedup();
    flows
}

/// The pattern the pattern-aware scheme (Colored) is constructed from.
fn pattern_of(flows: &[(usize, usize)], n: usize) -> Pattern {
    let mut m = ConnectivityMatrix::new(n);
    for &(s, d) in flows {
        m.add_flow(s, d, BYTES);
    }
    Pattern::single_phase("agreement", m)
}

/// Engine 2: schedule every routable flow at t = 0 straight into the
/// event-driven simulator and read the per-channel busy times.
fn busy_via_netsim(xgft: &Xgft, table: &impl RouteSource, flows: &[(usize, usize)]) -> Vec<u64> {
    let mut sim = NetworkSim::new(xgft, cfg());
    let mut scratch = Vec::new();
    for &(s, d) in flows {
        let path = table.path_in(s, d, &mut scratch).expect("routable flow");
        sim.schedule_message_on_path(0, s, d, BYTES, path);
    }
    sim.run_to_completion();
    sim.channel_busy_ps()
}

/// Engine 3: replay the same flows as a trace (every flow one Send/Recv
/// pair with a unique tag) through the replay engine, then read the busy
/// times off the underlying simulator.
fn busy_via_tracesim(
    xgft: &Xgft,
    table: &(impl RouteSource + Clone),
    flows: &[(usize, usize)],
) -> Vec<u64> {
    let n = xgft.num_leaves();
    let mut programs: Vec<Vec<RankEvent>> = vec![vec![]; n];
    for (tag, &(s, d)) in flows.iter().enumerate() {
        programs[s].push(RankEvent::Send {
            dst: d,
            bytes: BYTES,
            tag: tag as u32,
        });
    }
    for (tag, &(s, d)) in flows.iter().enumerate() {
        programs[d].push(RankEvent::Recv {
            src: s,
            tag: tag as u32,
        });
    }
    let trace = Trace::new("agreement", programs);
    let mut net = RoutedNetwork::with_source(NetworkSim::new(xgft, cfg()), table.clone());
    ReplayEngine::new(&trace)
        .run(&mut net)
        .expect("routable flows cannot deadlock");
    net.sim().channel_busy_ps()
}

/// Engine 1: the flow model's exact loads from the same table.
fn loads_via_flow(
    xgft: &Xgft,
    table: &impl RouteSource,
    flows: &[(usize, usize)],
) -> DegradedLoads {
    let traffic =
        TrafficMatrix::from_flows(xgft.num_leaves(), flows.iter().map(|&(s, d)| (s, d, 1.0)));
    DegradedLoads::from_source(xgft, table, &traffic)
}

/// Every pair — misses and out-of-range leaves included — must resolve
/// through `table` exactly as in the degraded recompile `expected`.
fn assert_resolves_like(label: &str, table: &impl RouteSource, expected: &CompiledRouteTable) {
    let n = expected.num_leaves();
    let mut scratch = Vec::new();
    for s in 0..=n {
        for d in 0..=n {
            assert_eq!(
                table.path_in(s, d, &mut scratch),
                expected.path(s, d),
                "{label}: patch != degraded compile at ({s}, {d})"
            );
        }
    }
}

/// The three-way assertion for one `(table, flows)` instance.
fn assert_engines_agree(
    label: &str,
    xgft: &Xgft,
    table: &(impl RouteSource + Clone),
    flows: &[(usize, usize)],
) {
    let netsim_busy = busy_via_netsim(xgft, table, flows);
    let tracesim_busy = busy_via_tracesim(xgft, table, flows);
    assert_eq!(
        netsim_busy, tracesim_busy,
        "{label}: netsim and tracesim busy vectors diverged"
    );
    let model = loads_via_flow(xgft, table, flows);
    assert!(model.is_fully_routed(), "{label}: harness flows must route");
    let unit = netsim_busy
        .iter()
        .zip(model.loads())
        .filter(|&(_, &l)| l > 0.0)
        .map(|(&b, &l)| b as f64 / l)
        .next()
        .expect("some channel must carry traffic");
    assert!(unit > 0.0, "{label}: degenerate proportionality unit");
    for (idx, (&busy, &load)) in netsim_busy.iter().zip(model.loads()).enumerate() {
        assert!(
            (busy as f64 - load * unit).abs() < 1e-6 * unit.max(1.0),
            "{label}: channel {idx} disagrees — busy {busy} vs flow load {load} x {unit}"
        );
    }
}

/// Every fig2/fig5 scheme, two machine shapes, two flow sets, pristine and
/// two fault families: the engines must agree on all of it.
#[test]
fn all_schemes_agree_across_engines_on_pristine_and_degraded_topologies() {
    let machines = [
        Xgft::new(XgftSpec::slimmed_two_level(4, 3).unwrap()).unwrap(),
        Xgft::new(XgftSpec::new(vec![3, 3, 3], vec![1, 2, 2]).unwrap()).unwrap(),
    ];
    for (mi, xgft) in machines.iter().enumerate() {
        let n = xgft.num_leaves();
        let fault_sets = [
            FaultSet::none(xgft),
            FaultSet::uniform_links(xgft, 0.15, 40 + mi as u64),
            FaultSet::targeted_level_cut(xgft, 1, 2, 7 + mi as u64),
        ];
        for salt in [1usize, 6] {
            let all_flows = flow_set(n, salt);
            let pattern = pattern_of(&all_flows, n);
            for spec in AlgorithmSpec::figure5_set() {
                let algo = spec.instantiate(xgft, &pattern, 11);
                for (fi, faults) in fault_sets.iter().enumerate() {
                    let label = format!(
                        "machine {mi} salt {salt} scheme {} faults {fi}",
                        spec.name()
                    );
                    // Build the degraded routes both ways; they must match
                    // pair for pair (the patch-vs-recompile contract,
                    // exercised here on top of the dedicated proptest).
                    let pristine =
                        CompiledRouteTable::compile(xgft, algo.as_ref(), all_flows.iter().copied());
                    let mut table = UndoableTable::new(&pristine);
                    table.patch(xgft, faults);
                    let scratch = CompiledRouteTable::compile_degraded(
                        xgft,
                        faults,
                        algo.as_ref(),
                        all_flows.iter().copied(),
                    );
                    assert_eq!(table.len(), scratch.len(), "{label}: route counts");
                    assert_resolves_like(&label, &table, &scratch);
                    // The same patch over the closed form (every scheme
                    // but Colored has one) resolves identically too.
                    if let Some(closed_form) = spec.compact_scheme(xgft, 11) {
                        let mut compact = UndoableTable::new(CompactRoutes::for_pairs(
                            xgft,
                            closed_form,
                            all_flows.iter().copied(),
                        ));
                        compact.patch(xgft, faults);
                        assert_eq!(
                            compact.len(),
                            scratch.len(),
                            "{label}: compact route counts"
                        );
                        assert_resolves_like(&format!("{label} (compact)"), &compact, &scratch);
                    }

                    // Restrict to the flows that survived; the engines must
                    // agree exactly on them.
                    let routable: Vec<(usize, usize)> = all_flows
                        .iter()
                        .copied()
                        .filter(|&(s, d)| table.path(s, d).is_some())
                        .collect();
                    assert!(
                        !routable.is_empty(),
                        "{label}: fault set must not disconnect everything"
                    );
                    assert_engines_agree(&label, xgft, &table, &routable);
                }
            }
        }
    }
}

/// Seed-averaged agreement: the simulator's busy times, averaged over the
/// table-fill seeds, converge to the closed-form route distributions of
/// Random and r-NCA-d (exactly the marginal the paper's boxplots sample).
#[test]
fn seed_averaged_busy_matches_closed_form_for_random_and_rnca() {
    let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 5).unwrap()).unwrap();
    let n = xgft.num_leaves();
    let flows: Vec<(usize, usize)> = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .filter(|&(s, d)| s != d)
        .collect();
    let traffic = TrafficMatrix::uniform(n);
    let seeds: Vec<u64> = (1..=40).collect();

    type Factory = fn(&Xgft, u64) -> Box<dyn RouteDistribution>;
    let schemes: [(&str, Factory); 2] = [
        ("random", |_, seed| Box::new(RandomRouting::new(seed))),
        ("r-NCA-d", |x, seed| Box::new(RandomNcaDown::new(x, seed))),
    ];
    for (name, factory) in schemes {
        let model = {
            let algo = factory(&xgft, 0);
            ExpectedLoads::compute(&xgft, algo.as_ref(), &traffic)
        };
        let mut avg = vec![0.0f64; xgft.channels().len()];
        for &seed in &seeds {
            let algo = factory(&xgft, seed);
            let table = CompiledRouteTable::compile(&xgft, algo.as_ref(), flows.iter().copied());
            for (a, b) in avg.iter_mut().zip(busy_via_netsim(&xgft, &table, &flows)) {
                *a += b as f64 / seeds.len() as f64;
            }
        }
        // Normalise through a channel with a known exact load: leaf 0's
        // injection link always carries n-1 flows.
        let unit = avg[xgft.channels().injection_channel(0)] / (n as f64 - 1.0);
        assert!(unit > 0.0);
        let max_model = model.mcl();
        for (idx, (&a, &m)) in avg.iter().zip(model.loads()).enumerate() {
            let diff = (a / unit - m).abs() / max_model;
            assert!(
                diff < 0.12,
                "{name}: channel {idx} seed-averaged {:.2} vs closed form {m:.2}",
                a / unit
            );
        }
    }
}

/// The typed-miss path must be consistent across every layer: a pair the
/// patch reports unroutable misses in the table, is listed by the flow
/// model, is refused by the network, and aborts a replay loudly.
#[test]
fn unroutable_pairs_fail_loudly_and_identically_in_every_engine() {
    // w2 = 2, both up cables of switch 0 cut: leaves 0..4 lose every
    // cross-switch partner.
    let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 2).unwrap()).unwrap();
    let mut faults = FaultSet::none(&xgft);
    faults.fail_cable(xgft.channels(), 1, 0, 0);
    faults.fail_cable(xgft.channels(), 1, 0, 1);

    let pattern = workloads::trace_from_pattern(
        &Pattern::single_phase("cut", {
            let mut m = ConnectivityMatrix::new(16);
            m.add_flow(0, 5, BYTES); // crosses the cut
            m.add_flow(1, 2, BYTES); // stays below it
            m
        }),
        0,
    );

    let mut table = UndoableTable::new(CompiledRouteTable::compile_all_pairs(
        &xgft,
        &xgft::routing::DModK::new(),
    ));
    let stats = table.patch(&xgft, &faults);
    assert!(stats.unroutable > 0);

    // Layer 1: the table misses.
    assert!(table.path(0, 5).is_none());
    assert!(table.path(1, 2).is_some());

    // Layer 2: the flow model reports the same pair as unroutable demand.
    let traffic = TrafficMatrix::from_flows(16, vec![(0, 5, 1.0), (1, 2, 1.0)]);
    let loads = DegradedLoads::from_source(&xgft, &table, &traffic);
    assert_eq!(loads.unroutable(), &[(0, 5, 1.0)]);

    // Layer 3: the network refuses the message with the typed error.
    let mut net = RoutedNetwork::with_source(NetworkSim::new(&xgft, cfg()), table.clone());
    assert_eq!(
        net.schedule_message(0, 0, 5, BYTES).unwrap_err(),
        NetworkError::MissingRoute { src: 0, dst: 5 }
    );

    // Layer 4: a replay over the dead pair aborts with the same typed miss
    // instead of deadlocking or mis-delivering.
    let net = RoutedNetwork::with_source(NetworkSim::new(&xgft, cfg()), table);
    let err = ReplayEngine::new(&pattern).run(net).unwrap_err();
    assert_eq!(
        err,
        ReplayError::Network(NetworkError::MissingRoute { src: 0, dst: 5 })
    );
}
