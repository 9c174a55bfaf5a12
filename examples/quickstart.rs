//! Quickstart: build an XGFT, route a workload with every oblivious scheme,
//! simulate it, and print the slowdown relative to the ideal Full-Crossbar.
//!
//! Run with `cargo run --release --example quickstart`.

use xgft::analysis::slowdown::{run_on_crossbar, slowdown_of};
use xgft::prelude::*;
use xgft::routing::RandomNcaDown;
use xgft::tracesim::workloads;

fn main() {
    // The paper's slimmed family: 256 nodes behind 16-port switches, with
    // only 10 of the 16 possible root switches installed.
    let spec = XgftSpec::slimmed_two_level(16, 10).expect("valid spec");
    let xgft = Xgft::new(spec).expect("valid topology");
    println!(
        "Topology {}: {} nodes, {} switches, {} cables",
        xgft.spec(),
        xgft.num_leaves(),
        xgft.num_switches(),
        xgft.spec().total_cables()
    );

    // A scaled-down WRF-256 workload (64 KB per message keeps this example
    // fast; pass the full 512 KB for paper-scale numbers).
    let trace = workloads::trace_from_pattern(
        &generators::wrf_mesh_exchange(16, 16, 64 * 1024).expect("a 16 x 16 mesh"),
        0,
    );
    let config = NetworkConfig::default();
    let crossbar = run_on_crossbar(&trace, &config)
        .expect("crossbar replay")
        .completion_ps;
    println!(
        "Full-Crossbar reference completes the exchange in {:.3} ms",
        crossbar as f64 / 1e9
    );

    let algorithms: Vec<Box<dyn RoutingAlgorithm>> = vec![
        Box::new(RandomRouting::new(1)),
        Box::new(SModK::new()),
        Box::new(DModK::new()),
        Box::new(RandomNcaDown::new(&xgft, 1)),
        Box::new(ColoredRouting::new(&xgft, &workloads_pattern(&trace))),
    ];
    println!("{:>10} {:>12} {:>10}", "routing", "time (ms)", "slowdown");
    for algo in &algorithms {
        let report = slowdown_of(&trace, &xgft, algo.as_ref(), &config, Some(crossbar))
            .expect("replay succeeds");
        println!(
            "{:>10} {:>12.3} {:>10.3}",
            report.algorithm,
            report.completion_ps as f64 / 1e9,
            report.slowdown
        );
    }
}

/// The connectivity matrix of the trace (what a pattern-aware scheme sees).
fn workloads_pattern(trace: &Trace) -> xgft::patterns::ConnectivityMatrix {
    let mut m = xgft::patterns::ConnectivityMatrix::new(trace.num_ranks());
    for (s, d) in trace.communication_pairs() {
        m.add_flow(s, d, 1);
    }
    m
}
