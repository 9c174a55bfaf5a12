//! The parallel sweep runner must be seed-deterministic: the same
//! configuration, under either seed policy and in either route
//! representation, produces an identical [`SweepResult`] /
//! [`CampaignResult`] whatever the rayon worker count
//! (`RAYON_NUM_THREADS=1` vs the default),
//! because shard order — and every per-shard seed — is a pure function of
//! the configuration and the parallel map preserves input order.

use rayon::ThreadPoolBuilder;
use xgft_analysis::{AlgorithmSpec, CampaignConfig, SeedSpec, SweepConfig};
use xgft_netsim::NetworkConfig;
use xgft_patterns::generators;

fn mini_campaign() -> CampaignConfig {
    CampaignConfig {
        name: "determinism".into(),
        k: 4,
        w2_values: vec![4, 2, 1],
        algorithms: vec![
            AlgorithmSpec::DModK,
            AlgorithmSpec::Random,
            AlgorithmSpec::RandomNcaDown,
        ],
        seeds_per_point: 3,
        base_seed: 77,
        network: NetworkConfig::default(),
    }
}

#[test]
fn campaign_result_is_identical_for_any_worker_count() {
    let pattern = generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap();
    let config = mini_campaign();

    // One worker thread (what RAYON_NUM_THREADS=1 pins the global pool to).
    let single = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| config.run(&pattern).unwrap());
    // The default (machine) parallelism.
    let parallel = config.run(&pattern).unwrap();
    // An oversubscribed pool, for good measure.
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
        "1 worker vs default must give byte-identical campaign results"
    );
    assert_eq!(parallel_json, wide_json);

    // Shard provenance is ordered and fully populated either way.
    assert_eq!(single.shards.len(), config.shards().len());
    assert!(single.shards.iter().all(|s| s.slowdown >= 0.999));
}

#[test]
fn sweep_result_is_identical_for_any_worker_count() {
    let pattern = generators::wrf_mesh_exchange(4, 4, 16 * 1024).unwrap();
    // Both seed policies: a shared list and point-local streams.
    for seeds in [
        SeedSpec::List {
            seeds: vec![1, 2, 3],
        },
        SeedSpec::Stream {
            base_seed: 77,
            seeds_per_point: 3,
        },
    ] {
        let config = SweepConfig {
            k: 4,
            w2_values: vec![4, 1],
            algorithms: vec![AlgorithmSpec::DModK, AlgorithmSpec::Random],
            seeds,
            network: NetworkConfig::default(),
        };
        // Both route representations: compiled tables and closed-form
        // compact routes run through the same grouped executor.
        for run in [SweepConfig::run, SweepConfig::run_compact] {
            let single = ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap()
                .install(|| run(&config, &pattern).unwrap());
            let parallel = run(&config, &pattern).unwrap();
            let wide = ThreadPoolBuilder::new()
                .num_threads(7)
                .build()
                .unwrap()
                .install(|| run(&config, &pattern).unwrap());
            let single_json = serde_json::to_string(&single).unwrap();
            assert_eq!(
                single_json,
                serde_json::to_string(&parallel).unwrap(),
                "the sweep must not depend on the rayon thread count ({:?})",
                config.seeds
            );
            assert_eq!(single_json, serde_json::to_string(&wide).unwrap());
            assert_eq!(single.point(4, "random").unwrap().samples.len(), 3);
        }
    }
}

#[test]
fn reruns_of_the_same_campaign_are_byte_identical() {
    let pattern = generators::shift(16, 4, 8 * 1024);
    let config = mini_campaign();
    let a = serde_json::to_string(&config.run(&pattern).unwrap()).unwrap();
    let b = serde_json::to_string(&config.run(&pattern).unwrap()).unwrap();
    assert_eq!(a, b);
}
