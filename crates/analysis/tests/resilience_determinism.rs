//! The parallel resilience sweep must be thread-count deterministic: the
//! same configuration produces a byte-identical [`ResilienceResult`] for
//! any rayon worker count, because shard order — including every fault
//! seed and algorithm seed — is a pure function of the configuration and
//! the parallel map preserves input order.

use rayon::ThreadPoolBuilder;
use xgft_analysis::{AlgorithmSpec, ResilienceConfig};
use xgft_netsim::NetworkConfig;
use xgft_patterns::generators;

fn mini_resilience() -> ResilienceConfig {
    ResilienceConfig {
        name: "determinism".into(),
        k: 4,
        w2: 4,
        algorithms: vec![
            AlgorithmSpec::DModK,
            AlgorithmSpec::Random,
            AlgorithmSpec::RandomNcaUp,
        ],
        failure_permille: vec![0, 100, 300],
        faults_per_point: 3,
        base_seed: 77,
        network: NetworkConfig::default(),
    }
}

#[test]
fn resilience_result_is_identical_for_any_worker_count() {
    let pattern = generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap();
    let config = mini_resilience();

    let single = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| config.run(&pattern).unwrap());
    let parallel = config.run(&pattern).unwrap();
    let wide = ThreadPoolBuilder::new()
        .num_threads(7)
        .build()
        .unwrap()
        .install(|| config.run(&pattern).unwrap());

    let single_json = serde_json::to_string(&single).unwrap();
    let parallel_json = serde_json::to_string(&parallel).unwrap();
    let wide_json = serde_json::to_string(&wide).unwrap();
    assert_eq!(
        single_json, parallel_json,
        "1 worker vs default must give byte-identical resilience results"
    );
    assert_eq!(parallel_json, wide_json);

    // Shard provenance is ordered and fully populated either way, and the
    // fault draws really differ across shard indices.
    assert_eq!(single.shards.len(), config.shards().len());
    let seeds: std::collections::HashSet<u64> =
        single.shards.iter().map(|o| o.fault_seed).collect();
    assert_eq!(
        seeds.len(),
        single.shards.len(),
        "fault seeds must be distinct"
    );
}

#[test]
fn reruns_of_the_same_resilience_campaign_are_byte_identical() {
    let pattern = generators::shift(16, 4, 8 * 1024);
    let config = mini_resilience();
    let a = serde_json::to_string(&config.run(&pattern).unwrap()).unwrap();
    let b = serde_json::to_string(&config.run(&pattern).unwrap()).unwrap();
    assert_eq!(a, b);
}
