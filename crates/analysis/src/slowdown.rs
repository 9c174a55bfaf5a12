//! Slowdown relative to the Full-Crossbar reference (Sec. VI-B).
//!
//! The paper scales every reported completion time by the time the same
//! trace needs on an ideal single-stage crossbar connecting all the nodes:
//! that network has no routing (and hence no routing contention), so the
//! ratio isolates exactly what the routing scheme can influence.

use serde::{Deserialize, Serialize};
use xgft_core::{CompiledRouteTable, RouteSource, RoutingAlgorithm};
use xgft_netsim::{NetworkConfig, NetworkSim};
use xgft_topo::Xgft;
use xgft_tracesim::{ReplayEngine, ReplayError, ReplayResult, RoutedNetwork, Trace};

/// The result of replaying one trace on one routed topology, normalised by
/// the Full-Crossbar reference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlowdownReport {
    /// Trace name.
    pub trace: String,
    /// Topology description.
    pub topology: String,
    /// Routing algorithm name.
    pub algorithm: String,
    /// Completion time on the routed topology (ps).
    pub completion_ps: u64,
    /// Completion time on the Full-Crossbar reference (ps).
    pub crossbar_ps: u64,
    /// `completion_ps / crossbar_ps` — the paper's "Slowdown" axis.
    pub slowdown: f64,
}

/// Replay `trace` on `xgft` with routes from `algo`. A replay reads a pair
/// again for every message it carries, so the routes for the trace's
/// communication pairs are compiled into the flat indexed form first.
pub fn run_on_xgft<A: RoutingAlgorithm + ?Sized>(
    trace: &Trace,
    xgft: &Xgft,
    algo: &A,
    config: &NetworkConfig,
) -> Result<ReplayResult, ReplayError> {
    let table = CompiledRouteTable::compile(xgft, algo, trace.communication_pairs());
    let net = RoutedNetwork::with_source(NetworkSim::new(xgft, config.clone()), table);
    ReplayEngine::new(trace).run(net)
}

/// Replay a pre-compiled engine's trace through a shard-local simulator
/// reclaimed with [`NetworkSim::reset`], on any route representation: the
/// scratch-reuse counterpart of [`run_on_xgft`]. The engine's replay plan,
/// its match-queue arenas, and the simulator's slab/queue/channel
/// allocations all survive from the previous seed or epoch — a campaign
/// shard allocates them once.
pub fn run_reusing_sim<R: RouteSource>(
    engine: &mut ReplayEngine<'_>,
    sim: &mut NetworkSim,
    source: R,
) -> Result<ReplayResult, ReplayError> {
    sim.reset();
    let net = RoutedNetwork::with_source(sim, source);
    engine.run(net)
}

/// Replay `trace` on the ideal Full-Crossbar reference
/// ([`RoutedNetwork::crossbar`]). A trace with no ranks has no crossbar to
/// run on and is rejected as [`ReplayError::InvalidTrace`].
pub fn run_on_crossbar(trace: &Trace, config: &NetworkConfig) -> Result<ReplayResult, ReplayError> {
    let ranks = trace.num_ranks();
    let net = RoutedNetwork::crossbar(ranks, config).map_err(|e| {
        ReplayError::InvalidTrace(format!("no Full-Crossbar reference for {ranks} ranks: {e}"))
    })?;
    ReplayEngine::new(trace).run(net)
}

/// Compute the slowdown of `algo` on `xgft` for `trace`, reusing a
/// previously computed crossbar completion time (pass `None` to compute it
/// here).
pub fn slowdown_of<A: RoutingAlgorithm + ?Sized>(
    trace: &Trace,
    xgft: &Xgft,
    algo: &A,
    config: &NetworkConfig,
    crossbar_ps: Option<u64>,
) -> Result<SlowdownReport, ReplayError> {
    let reference_ps = match crossbar_ps {
        Some(t) => t,
        None => run_on_crossbar(trace, config)?.completion_ps,
    };
    let result = run_on_xgft(trace, xgft, algo, config)?;
    Ok(SlowdownReport {
        trace: trace.name().to_string(),
        topology: xgft.spec().to_string(),
        algorithm: algo.name(),
        completion_ps: result.completion_ps,
        crossbar_ps: reference_ps,
        slowdown: result.completion_ps as f64 / reference_ps as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_core::{ColoredRouting, DModK, RandomRouting, SModK};
    use xgft_patterns::generators;
    use xgft_topo::XgftSpec;
    use xgft_tracesim::workloads;

    fn small_cfg() -> NetworkConfig {
        NetworkConfig::default()
    }

    /// A small WRF-like exchange on a full 4-ary 2-tree: D-mod-k resolves the
    /// ±4 exchange without routing contention, so its slowdown stays close
    /// to the crossbar while Random picks up extra contention.
    #[test]
    fn wrf_like_pattern_mod_k_close_to_crossbar() {
        let trace = workloads::trace_from_pattern(
            &generators::wrf_mesh_exchange(4, 4, 32 * 1024).unwrap(),
            0,
        );
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
        let cfg = small_cfg();
        let crossbar = run_on_crossbar(&trace, &cfg).unwrap().completion_ps;
        let dmodk = slowdown_of(&trace, &xgft, &DModK::new(), &cfg, Some(crossbar)).unwrap();
        assert!(
            dmodk.slowdown < 1.1,
            "d-mod-k should track the crossbar on the full tree, got {:.3}",
            dmodk.slowdown
        );
        let smodk = slowdown_of(&trace, &xgft, &SModK::new(), &cfg, Some(crossbar)).unwrap();
        assert!((smodk.slowdown - dmodk.slowdown).abs() < 0.05);
    }

    /// The CG-like congruent pattern: D-mod-k is clearly slower than a
    /// pattern-aware assignment on the full tree (the Sec. VII-A pathology,
    /// scaled down to 32 ranks / 4-ary switches).
    #[test]
    fn cg_like_pattern_shows_the_mod_k_pathology() {
        let cg = generators::cg_d(32, 32 * 1024).unwrap();
        let fifth = cg.phases()[4].clone();
        let pattern = xgft_patterns::Pattern::single_phase("cg-fifth", fifth.clone());
        let trace = workloads::trace_from_pattern(&pattern, 0);
        let xgft = Xgft::new(XgftSpec::new(vec![8, 4], vec![1, 8]).unwrap()).unwrap();
        let cfg = small_cfg();
        let crossbar = run_on_crossbar(&trace, &cfg).unwrap().completion_ps;
        let dmodk = slowdown_of(&trace, &xgft, &DModK::new(), &cfg, Some(crossbar)).unwrap();
        let colored_algo = ColoredRouting::new(&xgft, &fifth);
        let colored = slowdown_of(&trace, &xgft, &colored_algo, &cfg, Some(crossbar)).unwrap();
        assert!(
            dmodk.slowdown > 1.5 * colored.slowdown,
            "expected the congruence pathology: d-mod-k {:.2} vs colored {:.2}",
            dmodk.slowdown,
            colored.slowdown
        );
        assert!(colored.slowdown < 1.4);
    }

    #[test]
    fn slowdown_is_at_least_one_for_any_routing() {
        let trace = workloads::trace_from_pattern(
            &generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap(),
            0,
        );
        let xgft = Xgft::new(XgftSpec::new(vec![4, 4], vec![1, 2]).unwrap()).unwrap();
        let cfg = small_cfg();
        for algo in [
            &RandomRouting::new(1) as &dyn RoutingAlgorithm,
            &DModK::new(),
            &SModK::new(),
        ] {
            let report = slowdown_of(&trace, &xgft, algo, &cfg, None).unwrap();
            assert!(
                report.slowdown >= 0.999,
                "{} slowdown {:.3} below 1",
                report.algorithm,
                report.slowdown
            );
            assert_eq!(report.trace, "WRF-16");
            assert!(report.topology.contains("XGFT"));
        }
    }

    #[test]
    fn table_reuse_matches_direct_run() {
        let trace = workloads::trace_from_pattern(
            &generators::wrf_mesh_exchange(4, 4, 8 * 1024).unwrap(),
            0,
        );
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
        let cfg = small_cfg();
        let direct = run_on_xgft(&trace, &xgft, &DModK::new(), &cfg).unwrap();
        let table = CompiledRouteTable::compile(&xgft, &DModK::new(), trace.communication_pairs());
        let mut sim = NetworkSim::new(&xgft, cfg);
        let mut engine = ReplayEngine::new(&trace);
        for _ in 0..2 {
            let via_table = run_reusing_sim(&mut engine, &mut sim, &table).unwrap();
            assert_eq!(direct.completion_ps, via_table.completion_ps);
        }
    }
}
