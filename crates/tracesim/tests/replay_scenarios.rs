//! Scenario-level tests of the replay engine: multi-phase workloads,
//! mappings, and agreement between the phase structure of a trace and the
//! timing the co-simulation produces.

use xgft_core::{CompiledRouteTable, DModK};
use xgft_netsim::{CrossbarSim, NetworkConfig, NetworkSim};
use xgft_topo::{Xgft, XgftSpec};
use xgft_tracesim::{
    workloads, MappedNetwork, Mapping, Network, RankEvent, ReplayEngine, RoutedNetwork, Trace,
};

fn routed(xgft: &Xgft, trace: &Trace) -> RoutedNetwork {
    let table = CompiledRouteTable::compile(xgft, &DModK::new(), trace.communication_pairs());
    RoutedNetwork::with_source(NetworkSim::new(xgft, NetworkConfig::default()), table)
}

/// The five CG phases are serialised by their receive dependencies, so the
/// completion time is at least five times the duration of one phase on an
/// uncontended network.
#[test]
fn cg_phases_serialise() {
    let cfg = NetworkConfig::default();
    let bytes = 16 * 1024u64;
    let trace = workloads::cg_d_trace(32, bytes);
    let result = ReplayEngine::new(&trace)
        .run(CrossbarSim::new(32, cfg.clone()))
        .unwrap();
    let one_message = cfg.ideal_transfer_ps(bytes);
    assert!(
        result.completion_ps >= 5 * one_message,
        "five dependent phases cannot finish in {} < 5 * {}",
        result.completion_ps,
        one_message
    );
}

/// A single-phase pattern with no shared endpoints finishes in roughly one
/// message time on the crossbar regardless of the number of ranks.
#[test]
fn independent_pairs_finish_together() {
    let cfg = NetworkConfig::default();
    let trace = workloads::wrf_trace(2, 8, 32 * 1024); // 16 ranks, +-8 exchange
    let result = ReplayEngine::new(&trace)
        .run(CrossbarSim::new(16, cfg.clone()))
        .unwrap();
    // Every rank exchanges with at most one partner above and one below, so
    // the endpoint contention is 2 and the completion is about 2 messages.
    let one_message = cfg.ideal_transfer_ps(32 * 1024);
    assert!(result.completion_ps < 3 * one_message);
}

/// Compute-only traces never touch the network.
#[test]
fn compute_only_trace() {
    let trace = Trace::new(
        "compute-only",
        vec![
            vec![RankEvent::Compute { duration_ps: 500 }],
            vec![RankEvent::Compute { duration_ps: 900 }],
        ],
    );
    let xgft = Xgft::new(XgftSpec::k_ary_n_tree(2, 2)).unwrap();
    let result = ReplayEngine::new(&trace)
        .run(routed(&xgft, &trace))
        .unwrap();
    assert_eq!(result.completion_ps, 900);
    assert_eq!(result.network_report.completed_messages, 0);
}

/// The same WRF trace under an adversarial random placement is never faster
/// than under the sequential placement used in the paper, and both are
/// deterministic.
#[test]
fn placement_never_helps_wrf_on_a_slimmed_tree() {
    let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 2).unwrap()).unwrap();
    let trace = workloads::wrf_trace(8, 8, 16 * 1024);
    let cfg = NetworkConfig::default();

    let run_with = |mapping: Mapping| {
        let pairs = mapping.map_pairs(&trace.communication_pairs());
        let table = CompiledRouteTable::compile(&xgft, &DModK::new(), pairs);
        let net = MappedNetwork::new(
            RoutedNetwork::with_source(NetworkSim::new(&xgft, cfg.clone()), table),
            mapping,
        );
        ReplayEngine::new(&trace).run(net).unwrap().completion_ps
    };

    let sequential = run_with(Mapping::sequential(64));
    assert_eq!(sequential, run_with(Mapping::sequential(64)));
    for seed in [1u64, 2, 3] {
        let random_placement = run_with(Mapping::random(64, seed));
        assert!(
            random_placement >= sequential,
            "random placement (seed {seed}) beat the sequential one: {random_placement} < {sequential}"
        );
    }
}

/// Traces built from the same pattern complete identically whether the
/// pattern is handed over as one phase or split into per-flow tags, as long
/// as the dependencies are the same.
#[test]
fn network_label_and_report_plumbing() {
    let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
    let trace = workloads::wrf_trace(4, 4, 8 * 1024);
    let mut net = routed(&xgft, &trace);
    assert!(net.label().contains("d-mod-k"));
    assert!(net.label().contains("XGFT(2;4,4;1,4)"));
    // Manual drive of the Network trait, over a pair the WRF ±cols exchange
    // actually communicates (rank 0 talks to rank 4, not rank 5).
    Network::schedule_message(&mut net, 0, 0, 4, 4096).unwrap();
    assert!(Network::run_until_next_completion(&mut net).is_some());
    assert_eq!(Network::report(&net).completed_messages, 1);
    assert!(Network::now_ps(&net) > 0);
}
