//! Progressive tree-slimming study (the experiment behind Figs. 2 and 5,
//! scaled down so it runs in seconds): sweep the number of root switches of
//! an XGFT(2;16,16;1,w2) and report the median slowdown of every routing
//! scheme for a WRF-like exchange.
//!
//! Run with `cargo run --release --example slimming_study`.

use xgft::analysis::sweep::{AlgorithmSpec, SeedSpec, SweepConfig};
use xgft::netsim::NetworkConfig;
use xgft::patterns::generators;

fn main() {
    // 64 KB messages instead of the paper's 512 KB keep this example quick;
    // the slowdown structure is unchanged.
    let pattern = generators::wrf_mesh_exchange(16, 16, 64 * 1024).expect("a 16 x 16 mesh");
    let config = SweepConfig {
        k: 16,
        w2_values: vec![16, 12, 8, 4, 2, 1],
        algorithms: AlgorithmSpec::figure5_set(),
        seeds: SeedSpec::List {
            seeds: vec![1, 2, 3, 4],
        },
        network: NetworkConfig::default(),
    };
    let result = config.run(&pattern).unwrap();
    println!("{}", result.render_table());
    println!(
        "Full-Crossbar reference time: {:.3} ms",
        result.crossbar_ps as f64 / 1e9
    );
    println!();
    println!("Reading the table top to bottom reproduces the paper's message:");
    println!(" * on the full tree (w2=16) the self-routing schemes track the crossbar;");
    println!(" * slimming degrades everything, but the proposed r-NCA schemes degrade");
    println!("   like Random's best cases while avoiding the mod-k pathologies.");
}
