//! The ideal single-stage Full-Crossbar reference network.
//!
//! The paper normalises every result by the completion time of "a single
//! ideal single-stage crossbar network connecting all the nodes", which has
//! no routing and no routing contention — only endpoint serialization at the
//! injection and ejection links remains.
//!
//! That network is exactly the degenerate `XGFT(1; N; 1)`: one switch with
//! `N` children. Every (s, d) pair has a single minimal route (`<0>`), so
//! the same event-driven simulator runs it unchanged: build a
//! [`NetworkSim`](crate::NetworkSim) on [`crossbar_xgft`] with
//! [`crossbar_config`] and route every pair through the one switch.

use crate::config::NetworkConfig;
use xgft_topo::{TopologyError, Xgft, XgftSpec};

/// Build the single-stage crossbar topology for `n` nodes.
///
/// # Errors
/// [`TopologyError::ZeroParameter`] if `n == 0`.
pub fn crossbar_xgft(n: usize) -> Result<Xgft, TopologyError> {
    Xgft::new(XgftSpec::new(vec![n], vec![1])?)
}

/// The network configuration used for the crossbar reference. Link
/// parameters and the switch traversal latency are kept, but the internal
/// buffering is made effectively unlimited: the paper's reference is an
/// *ideal* crossbar whose only constraints are the injection and ejection
/// links, so head-of-line blocking inside the reference switch must not
/// exist (otherwise it would not lower-bound every XGFT).
pub fn crossbar_config(base: &NetworkConfig) -> NetworkConfig {
    NetworkConfig {
        input_buffer_segments: usize::MAX / 4,
        ..base.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkSim;
    use xgft_topo::Route;

    /// The crossbar reference simulator for `n` nodes.
    fn crossbar(n: usize, cfg: &NetworkConfig) -> NetworkSim {
        NetworkSim::new(&crossbar_xgft(n).unwrap(), crossbar_config(cfg))
    }

    /// Schedule a message on the crossbar's one route.
    fn send(sim: &mut NetworkSim, at_ps: u64, src: usize, dst: usize, bytes: u64) {
        sim.schedule_message(at_ps, src, dst, bytes, Route::new(vec![0]));
    }

    #[test]
    fn crossbar_topology_shape() {
        let x = crossbar_xgft(256).unwrap();
        assert_eq!(x.num_leaves(), 256);
        assert_eq!(x.num_switches(), 1);
        assert_eq!(x.height(), 1);
        for s in [0usize, 100, 255] {
            for d in [1usize, 77] {
                if s != d {
                    assert_eq!(x.nca_level(s, d), 1);
                    assert_eq!(x.ncas(s, d).unwrap().len(), 1);
                }
            }
        }
        assert_eq!(
            crossbar_xgft(0).unwrap_err(),
            TopologyError::ZeroParameter { level: 1 }
        );
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        // A permutation on the crossbar finishes in (almost) the time of a
        // single message: no routing contention exists.
        let cfg = NetworkConfig::default();
        let bytes = 64 * 1024u64;
        let mut single = crossbar(16, &cfg);
        send(&mut single, 0, 0, 1, bytes);
        let t_single = single.run_to_completion().makespan_ps;

        let mut perm = crossbar(16, &cfg);
        for s in 0..16usize {
            send(&mut perm, 0, s, (s + 1) % 16, bytes);
        }
        let t_perm = perm.run_to_completion().makespan_ps;
        assert_eq!(t_perm, t_single);
    }

    #[test]
    fn endpoint_contention_still_serializes_on_the_crossbar() {
        // Two senders to one destination still share the ejection link: the
        // crossbar removes routing contention, not endpoint contention.
        let cfg = NetworkConfig::default();
        let bytes = 64 * 1024u64;
        let mut fan_in = crossbar(16, &cfg);
        send(&mut fan_in, 0, 0, 5, bytes);
        send(&mut fan_in, 0, 1, 5, bytes);
        let t_fan_in = fan_in.run_to_completion().makespan_ps;

        let mut single = crossbar(16, &cfg);
        send(&mut single, 0, 0, 5, bytes);
        let t_single = single.run_to_completion().makespan_ps;
        let ratio = t_fan_in as f64 / t_single as f64;
        assert!(
            ratio > 1.8,
            "expected ~2x from endpoint contention, got {ratio:.2}"
        );
    }

    #[test]
    fn self_messages_cost_nothing() {
        let mut sim = crossbar(8, &NetworkConfig::default());
        send(&mut sim, 100, 3, 3, 1024);
        let report = sim.run_to_completion();
        assert_eq!(report.completed_messages, 1);
        assert_eq!(report.makespan_ps, 100);
        assert_eq!(sim.now_ps(), 0);
        assert_eq!(sim.num_messages(), 1);
    }
}
