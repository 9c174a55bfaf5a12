//! Scenario-level tests of the replay engine: multi-phase workloads and
//! agreement between the phase structure of a trace and the timing the
//! co-simulation produces.

use xgft_core::{CompiledRouteTable, DModK};
use xgft_netsim::{NetworkConfig, NetworkSim};
use xgft_patterns::generators;
use xgft_topo::{Xgft, XgftSpec};
use xgft_tracesim::{workloads, Network, RankEvent, ReplayEngine, RoutedNetwork, Trace};

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
    let trace = workloads::trace_from_pattern(&generators::cg_d(32, bytes).unwrap(), 0);
    let result = ReplayEngine::new(&trace)
        .run(RoutedNetwork::crossbar(32, &cfg).unwrap())
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
    let trace =
        workloads::trace_from_pattern(&generators::wrf_mesh_exchange(2, 8, 32 * 1024).unwrap(), 0); // 16 ranks, +-8 exchange
    let result = ReplayEngine::new(&trace)
        .run(RoutedNetwork::crossbar(16, &cfg).unwrap())
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

/// A routed network names its scheme and machine, and drives through the
/// `Network` trait by hand.
#[test]
fn network_label_and_report_plumbing() {
    let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
    let trace =
        workloads::trace_from_pattern(&generators::wrf_mesh_exchange(4, 4, 8 * 1024).unwrap(), 0);
    let mut net = routed(&xgft, &trace);
    assert_eq!(net.table().algorithm(), "d-mod-k");
    assert_eq!(net.sim().xgft().spec().to_string(), "XGFT(2;4,4;1,4)");
    // Manual drive of the Network trait, over a pair the WRF ±cols exchange
    // actually communicates (rank 0 talks to rank 4, not rank 5).
    Network::schedule_message(&mut net, 0, 0, 4, 4096).unwrap();
    assert!(Network::run_until_next_completion(&mut net).is_some());
    assert_eq!(Network::report(&net).completed_messages, 1);
    assert!(Network::now_ps(&net) > 0);
}
