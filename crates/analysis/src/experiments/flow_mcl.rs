//! The `flow_mcl` experiment family: analytical maximum-channel-load sweeps
//! and their cross-validation against the event-driven simulator.
//!
//! Where every other experiment in this module replays the netsim/tracesim
//! co-simulation, `flow_mcl` evaluates routing schemes through the
//! `xgft-flow` closed-form channel-load model: exact expected loads, MCL,
//! the tree-cut lower bound and the per-scheme congestion-ratio estimate —
//! no seeds, no events, and machine sizes far beyond what the simulator can
//! replay (tens of thousands of leaves per point in milliseconds). The
//! sweeps themselves are [`xgft_flow::FlowSweepConfig::slimming_family`]
//! runs; this module adds the simulator bridge and the scale demo.
//!
//! [`cross_validate_mcl`] is the bridge back to the simulator: it replays a
//! flow set once per seed, derives per-channel utilization from netsim's
//! `busy_ps` counters, and reports how far the seed-averaged measurement
//! lands from the model's expectation. The integration tests pin that gap
//! to a few percent on small instances, which is the evidence that the
//! large-scale analytical numbers can be trusted.

use serde::{Deserialize, Serialize};
use xgft_core::{AlgorithmSpec, RouteDistribution};
use xgft_flow::ExpectedLoads;
use xgft_netsim::{NetworkConfig, NetworkSim};
use xgft_topo::{Xgft, XgftSpec};

/// The outcome of cross-validating the flow model against netsim.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrossValidation {
    /// Scheme name.
    pub algorithm: String,
    /// The model's exact expected MCL (flow units).
    pub model_mcl: f64,
    /// The seed-averaged MCL measured from netsim busy times (flow units).
    pub measured_mcl: f64,
    /// `|measured - model| / model`.
    pub mcl_relative_error: f64,
    /// Largest per-channel deviation between the seed-averaged measured
    /// loads and the model's expectation, relative to the model MCL.
    pub max_channel_deviation: f64,
}

/// Replay `flows` (uniform `bytes` per message, all injected at t = 0) once
/// per seed through the event-driven simulator, derive per-channel loads
/// from the accumulated `busy_ps`, and compare with the model expectation
/// of `make(seed0)`.
///
/// `make` builds the scheme instance for a seed; the model side uses the
/// first seed's instance (its [`RouteDistribution`] marginalises the seed
/// away, so any instance yields the same expectation).
pub fn cross_validate_mcl<F>(
    xgft: &Xgft,
    make: F,
    flows: &[(usize, usize)],
    seeds: &[u64],
    bytes: u64,
) -> CrossValidation
where
    F: Fn(u64) -> Box<dyn RouteDistribution + Send + Sync>,
{
    assert!(
        !seeds.is_empty(),
        "cross-validation needs at least one seed"
    );
    let traffic = xgft_flow::TrafficMatrix::from_flows(
        xgft.num_leaves(),
        flows.iter().map(|&(s, d)| (s, d, 1.0)),
    );
    let model_algo = make(seeds[0]);
    let model = ExpectedLoads::compute(xgft, model_algo.as_ref(), &traffic);

    let mut avg = vec![0.0f64; xgft.channels().len()];
    for &seed in seeds {
        let algo = make(seed);
        let mut sim = NetworkSim::new(xgft, NetworkConfig::default());
        for &(s, d) in flows {
            if s == d {
                continue;
            }
            sim.schedule_message(0, s, d, bytes, algo.route(xgft, s, d));
        }
        sim.run_to_completion();
        for (a, b) in avg.iter_mut().zip(sim.channel_busy_ps()) {
            *a += b as f64 / seeds.len() as f64;
        }
    }

    // Convert busy picoseconds into flow units: busy = load x per-message
    // serialization time, and the *totals* are route-independent (every
    // flow serializes on exactly 2L channels), so the total ratio recovers
    // the serialization time exactly, with no sampling noise.
    let total_busy: f64 = avg.iter().sum();
    let total_load = model.total();
    let unit = if total_load > 0.0 {
        total_busy / total_load
    } else {
        0.0
    };
    let model_mcl = model.mcl();
    let measured_mcl = if unit > 0.0 {
        avg.iter().copied().fold(0.0f64, f64::max) / unit
    } else {
        0.0
    };
    let max_channel_deviation = if unit > 0.0 && model_mcl > 0.0 {
        avg.iter()
            .zip(model.loads())
            .map(|(&b, &l)| (b / unit - l).abs() / model_mcl)
            .fold(0.0f64, f64::max)
    } else {
        0.0
    };
    CrossValidation {
        algorithm: model_algo.name(),
        model_mcl,
        measured_mcl,
        mcl_relative_error: if model_mcl > 0.0 {
            (measured_mcl - model_mcl).abs() / model_mcl
        } else {
            0.0
        },
        max_channel_deviation,
    }
}

/// A demonstration point for the binary: the largest machines the
/// analytical model handles interactively (far beyond netsim's reach).
pub fn large_instance_demo() -> Vec<(XgftSpec, AlgorithmSpec)> {
    vec![
        // 16 384 leaves, half-slimmed two-level tree.
        (
            XgftSpec::new(vec![128, 128], vec![1, 64]).expect("valid"),
            AlgorithmSpec::Random,
        ),
        // 32 768 leaves, full 32-ary 3-tree.
        (XgftSpec::k_ary_n_tree(32, 3), AlgorithmSpec::RandomNcaDown),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_core::{DModK, RandomRouting};

    #[test]
    fn cross_validation_is_exact_for_deterministic_schemes() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(4, 3).unwrap()).unwrap();
        let flows: Vec<(usize, usize)> = (0..16).map(|s| (s, (s + 5) % 16)).collect();
        let cv = cross_validate_mcl(&xgft, |_| Box::new(DModK::new()), &flows, &[1], 2048);
        assert_eq!(cv.algorithm, "d-mod-k");
        assert!(cv.mcl_relative_error < 1e-9, "{cv:?}");
        assert!(cv.max_channel_deviation < 1e-9, "{cv:?}");
    }

    #[test]
    fn cross_validation_converges_for_random() {
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 5).unwrap()).unwrap();
        let n = xgft.num_leaves();
        let flows: Vec<(usize, usize)> = (0..n)
            .flat_map(|s| (0..n).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .collect();
        let seeds: Vec<u64> = (1..=12).collect();
        let cv = cross_validate_mcl(
            &xgft,
            |seed| Box::new(RandomRouting::new(seed)),
            &flows,
            &seeds,
            1024,
        );
        assert!(
            cv.mcl_relative_error < 0.12,
            "measured {} vs model {}",
            cv.measured_mcl,
            cv.model_mcl
        );
    }

    #[test]
    fn large_demo_specs_are_big() {
        for (spec, _) in large_instance_demo() {
            assert!(spec.num_leaves() >= 16_384);
        }
    }
}
