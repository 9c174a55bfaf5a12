//! The rayon-parallel analytical sweep engine.
//!
//! Where the netsim-based sweeps of `xgft-analysis` replay an event-driven
//! simulation per (topology, scheme, seed) — capping practical machine
//! sizes at a few hundred leaves — the flow-level sweep computes exact
//! expected loads per (topology, scheme) point, with no seed axis at all:
//! randomised schemes contribute their closed-form distribution. One point
//! on a 16 384-leaf machine costs well under a second, so sweeps over
//! slimming factors, pattern families and tree heights scale to machines
//! far beyond what the simulator can touch.

use crate::bound::{ratio_to_bound, tree_cut_lower_bound};
use crate::loads::ExpectedLoads;
use crate::traffic::TrafficSpec;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use xgft_core::AlgorithmSpec;
use xgft_topo::{TopologyError, Xgft, XgftSpec};

/// One (topology, scheme) point of an analytical sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowPoint {
    /// Display form of the topology spec, e.g. `XGFT(2;16,16;1,10)`.
    pub topology: String,
    /// Number of leaves of the topology.
    pub num_leaves: usize,
    /// `w_h` — the top-level slimming factor (the x-axis of the paper's
    /// sweeps).
    pub w_top: usize,
    /// Scheme name.
    pub scheme: String,
    /// Maximum expected channel load over all channels.
    pub mcl: f64,
    /// Maximum expected load restricted to switch-to-switch channels.
    pub network_mcl: f64,
    /// Tree-cut lower bound on any routing's MCL.
    pub lower_bound: f64,
    /// Congestion-ratio estimate `mcl / lower_bound`.
    pub ratio: f64,
}

/// The result of an analytical sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowSweepResult {
    /// Name of the traffic family.
    pub traffic: String,
    /// All points, ordered by the config's spec order then scheme order.
    pub points: Vec<FlowPoint>,
}

impl FlowSweepResult {
    /// Find a point by topology display name and scheme name.
    pub fn point(&self, topology: &str, scheme: &str) -> Option<&FlowPoint> {
        self.points
            .iter()
            .find(|p| p.topology == topology && p.scheme == scheme)
    }

    /// Find a point by top-level slimming factor and scheme name (useful
    /// for single-family `w2` sweeps).
    pub fn point_by_w(&self, w_top: usize, scheme: &str) -> Option<&FlowPoint> {
        self.points
            .iter()
            .find(|p| p.w_top == w_top && p.scheme == scheme)
    }

    /// Render the sweep as a text table: one row per topology, one column
    /// per scheme showing `MCL (ratio)`.
    pub fn render_table(&self) -> String {
        let mut schemes: Vec<String> = self.points.iter().map(|p| p.scheme.clone()).collect();
        schemes.sort();
        schemes.dedup();
        let mut topologies: Vec<String> = Vec::new();
        for p in &self.points {
            if !topologies.contains(&p.topology) {
                topologies.push(p.topology.clone());
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "# {} — expected MCL (congestion ratio vs tree-cut bound)\n",
            self.traffic
        ));
        let width = topologies.iter().map(|t| t.len()).max().unwrap_or(8).max(8);
        out.push_str(&format!("{:>width$}", "topology"));
        for s in &schemes {
            out.push_str(&format!(" {s:>18}"));
        }
        out.push('\n');
        for topo in &topologies {
            out.push_str(&format!("{topo:>width$}"));
            for s in &schemes {
                match self.point(topo, s) {
                    Some(p) => {
                        out.push_str(&format!(" {:>10.1} ({:>4.2})", p.mcl, p.ratio));
                    }
                    None => out.push_str(&format!(" {:>18}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Configuration of an analytical sweep: a list of topologies × a list of
/// schemes under one traffic family.
///
/// Randomised schemes are evaluated by their *closed-form expectation* (no
/// seed axis): Random's uniform product distribution and the r-NCA
/// family's balanced-map marginal, from the seed-0 instance. Deterministic
/// schemes use their exact point routes; Colored optimises the traffic's
/// connectivity.
#[derive(Debug, Clone)]
pub struct FlowSweepConfig {
    /// The topologies to evaluate.
    pub specs: Vec<XgftSpec>,
    /// The schemes to evaluate on each topology.
    pub schemes: Vec<AlgorithmSpec>,
    /// The traffic family, instantiated at each topology's leaf count.
    pub traffic: TrafficSpec,
}

impl FlowSweepConfig {
    /// The paper's slimming family `XGFT(2;k,k;1,w2)` over a list of `w2`
    /// values. Errors if `k` and a `w2` describe no machine.
    pub fn slimming_family(
        k: usize,
        w2_values: &[usize],
        schemes: Vec<AlgorithmSpec>,
        traffic: TrafficSpec,
    ) -> Result<Self, TopologyError> {
        Ok(FlowSweepConfig {
            specs: w2_values
                .iter()
                .map(|&w2| XgftSpec::slimmed_two_level(k, w2))
                .collect::<Result<_, _>>()?,
            schemes,
            traffic,
        })
    }

    /// Run every (topology, scheme) job in parallel. The topology, traffic
    /// matrix and cut bound depend only on the spec, so they are built once
    /// per spec (in parallel) and shared across that spec's scheme jobs.
    #[expect(clippy::expect_used, reason = "an XgftSpec always builds its Xgft")]
    pub fn run(&self) -> FlowSweepResult {
        xgft_obs::span!("flow.sweep");
        let traffic = &self.traffic;
        let prepared: Vec<(Xgft, crate::traffic::TrafficMatrix, f64)> = self
            .specs
            .par_iter()
            .map(|spec| {
                let xgft = Xgft::new(spec.clone()).expect("valid spec");
                let matrix = traffic.matrix(xgft.num_leaves());
                let bound = tree_cut_lower_bound(&xgft, &matrix).bound;
                (xgft, matrix, bound)
            })
            .collect();
        let jobs: Vec<(usize, AlgorithmSpec)> = (0..self.specs.len())
            .flat_map(|i| self.schemes.iter().map(move |&s| (i, s)))
            .collect();
        let points: Vec<FlowPoint> = jobs
            .par_iter()
            .map(|&(i, scheme)| {
                let (xgft, matrix, bound) = &prepared[i];
                let spec = xgft.spec();
                // The seed only fixes `route()`'s concrete draw; the
                // closed-form distribution marginalises it away.
                let algo = scheme.build(xgft, 0, || traffic.connectivity(xgft.num_leaves()));
                let loads = ExpectedLoads::compute(xgft, algo.as_ref(), matrix);
                let mcl = loads.mcl();
                FlowPoint {
                    topology: spec.to_string(),
                    num_leaves: spec.num_leaves(),
                    w_top: spec.w(spec.height()),
                    scheme: scheme.name().to_string(),
                    mcl,
                    network_mcl: loads.network_mcl(xgft),
                    lower_bound: *bound,
                    ratio: ratio_to_bound(mcl, *bound),
                }
            })
            .collect();
        xgft_obs::global()
            .counter("flow.points")
            .add(points.len() as u64);
        FlowSweepResult {
            traffic: traffic.name(),
            points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_patterns::generators;

    #[test]
    fn slimming_sweep_reproduces_fig4_style_imbalance() {
        // On the slimmed tree the mod-k wrap gives a strictly larger MCL
        // (and ratio) than the balanced closed forms; on the full tree all
        // oblivious schemes meet the bound under uniform traffic.
        let oblivious = AlgorithmSpec::ALL[..5].to_vec();
        assert!(!oblivious.contains(&AlgorithmSpec::Colored));
        let config =
            FlowSweepConfig::slimming_family(16, &[16, 10], oblivious, TrafficSpec::Uniform)
                .unwrap();
        let result = config.run();
        assert_eq!(result.points.len(), 10);
        // A w2 that describes no machine is a typed error.
        assert!(
            FlowSweepConfig::slimming_family(16, &[16, 0], vec![], TrafficSpec::Uniform).is_err()
        );

        let full = "XGFT(2;16,16;1,16)";
        let slim = "XGFT(2;16,16;1,10)";
        for scheme in ["random", "r-NCA-u", "r-NCA-d", "s-mod-k", "d-mod-k"] {
            let p = result.point(full, scheme).unwrap();
            assert!(
                (p.ratio - 1.0).abs() < 1e-9,
                "{scheme} on the full tree: ratio {}",
                p.ratio
            );
        }
        // Slimmed: the wrap concentrates two digit values (p and p+10) onto
        // roots 0..5, so mod-k channels carry ceil(16/10) = 2 digit values
        // where the balanced spread carries 16/10 = 1.6 — an exact 1.25x
        // penalty, visible without a single simulation seed.
        let dmodk = result.point(slim, "d-mod-k").unwrap();
        let rnca = result.point(slim, "r-NCA-d").unwrap();
        assert!((dmodk.mcl / rnca.mcl - 1.25).abs() < 1e-9);
        assert!((rnca.ratio - 1.0).abs() < 1e-9);
        assert!((dmodk.ratio - 1.25).abs() < 1e-9);
        // Lookup by slimming factor agrees with lookup by name.
        assert_eq!(result.point_by_w(10, "d-mod-k").unwrap().mcl, dmodk.mcl);
    }

    #[test]
    fn rendering_names_topologies_schemes_and_traffic() {
        let config = FlowSweepConfig::slimming_family(
            4,
            &[4, 2],
            vec![AlgorithmSpec::Random, AlgorithmSpec::DModK],
            TrafficSpec::Pattern(generators::shift(16, 1, 1)),
        )
        .unwrap();
        let result = config.run();
        assert_eq!(result.points.len(), 4);
        let table = result.render_table();
        assert!(table.contains("XGFT(2;4,4;1,2)"));
        assert!(table.contains("d-mod-k"));
        assert!(table.contains("shift-1"));
    }

    #[test]
    fn colored_scheme_runs_on_pattern_traffic() {
        let traffic = TrafficSpec::Pattern(generators::shift(16, 3, 1));
        let config = FlowSweepConfig::slimming_family(
            4,
            &[2],
            vec![AlgorithmSpec::Colored, AlgorithmSpec::DModK],
            traffic,
        )
        .unwrap();
        let result = config.run();
        let colored = result.point_by_w(2, "colored").unwrap();
        let dmodk = result.point_by_w(2, "d-mod-k").unwrap();
        // The pattern-aware baseline is never worse than an oblivious
        // scheme on the pattern it optimised for.
        assert!(colored.mcl <= dmodk.mcl + 1e-9);
        assert!(colored.ratio >= 1.0 - 1e-9);
    }

    /// Flow points carry the paper's scheme names, in the config's scheme
    /// order, and a positive cut bound under uniform traffic.
    #[test]
    fn scheme_names_are_stable() {
        let oblivious = AlgorithmSpec::ALL[..5].to_vec();
        let config =
            FlowSweepConfig::slimming_family(4, &[2], oblivious, TrafficSpec::Uniform).unwrap();
        let result = config.run();
        let names: Vec<&str> = result.points.iter().map(|p| p.scheme.as_str()).collect();
        assert_eq!(
            names,
            ["random", "s-mod-k", "d-mod-k", "r-NCA-u", "r-NCA-d"]
        );
        assert!(result.points.iter().all(|p| p.lower_bound > 0.0));
    }
}
