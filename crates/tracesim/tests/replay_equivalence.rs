//! Property pin for the indexed replay core: on randomized deadlock-free
//! traces, [`ReplayEngine`] (dense per-queue slabs, generation-tagged
//! in-flight store, incremental active list) must be *byte-identical* — the
//! full [`xgft_tracesim::ReplayResult`], network report included — to the
//! retired hash-map implementation kept in `replay::reference`, on both the
//! routed XGFT simulator and the Full-Crossbar reference. A second run of
//! the same engine pins the scratch-reset path on the same random traces.
//!
//! Trace generation is a global linearization: each drawn op appends a
//! compute block, a send *and its matching receive* (send first, so every
//! prefix of the global order can make progress — sends never block), or an
//! all-rank barrier. This is exactly the class of traces the workload
//! generators emit, with random tags so per-queue FIFO matching is
//! exercised across interleaved queues.

use proptest::prelude::*;
use xgft_core::{CompiledRouteTable, DModK};
use xgft_netsim::{CrossbarSim, NetworkConfig, NetworkSim};
use xgft_topo::{Xgft, XgftSpec};
use xgft_tracesim::replay::reference;
use xgft_tracesim::{RankEvent, ReplayEngine, RoutedNetwork, Trace};

/// One op of the global linearization.
#[derive(Debug, Clone)]
enum Op {
    Compute {
        rank: usize,
        duration_ps: u64,
    },
    Message {
        src: usize,
        dst: usize,
        tag: u32,
        bytes: u64,
    },
    Barrier,
}

fn ops(num_ranks: usize) -> impl Strategy<Value = Vec<Op>> {
    // kind biases toward messages (5/9), then computes (3/9), then barriers.
    let raw = (0usize..9, 0..num_ranks, 0..num_ranks, 0u32..3, 0u64..4096);
    prop::collection::vec(raw, 1..40).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, a, b, tag, amount)| match kind {
                0..=4 => Op::Message {
                    src: a,
                    dst: b,
                    tag,
                    bytes: 256 + amount,
                },
                5..=7 => Op::Compute {
                    rank: a,
                    duration_ps: 1 + amount * 7,
                },
                _ => Op::Barrier,
            })
            .collect()
    })
}

fn build_trace(num_ranks: usize, ops: &[Op]) -> Trace {
    let mut programs: Vec<Vec<RankEvent>> = vec![Vec::new(); num_ranks];
    for op in ops {
        match *op {
            Op::Compute { rank, duration_ps } => {
                programs[rank].push(RankEvent::Compute { duration_ps });
            }
            Op::Message {
                src,
                dst,
                tag,
                bytes,
            } => {
                programs[src].push(RankEvent::Send { dst, bytes, tag });
                programs[dst].push(RankEvent::Recv { src, tag });
            }
            Op::Barrier => {
                for program in &mut programs {
                    program.push(RankEvent::Barrier);
                }
            }
        }
    }
    Trace::new("equivalence", programs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Indexed and hash-map replay agree byte-for-byte on the routed
    /// simulator, and a recycled engine agrees with its own first run.
    #[test]
    fn indexed_replay_matches_reference_on_routed_xgft(
        (num_ranks, ops) in (2usize..=8).prop_flat_map(|n| (Just(n), ops(n))),
    ) {
        let trace = build_trace(num_ranks, &ops);
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
        let table = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        let routed = || {
            RoutedNetwork::with_source(
                NetworkSim::new(&xgft, NetworkConfig::default()),
                table.clone(),
            )
        };
        let mut engine = ReplayEngine::new(&trace);
        let indexed = engine.run(routed()).unwrap();
        let hashed = reference::run(&trace, routed()).unwrap();
        prop_assert_eq!(&indexed, &hashed);
        let again = engine.run(routed()).unwrap();
        prop_assert_eq!(&indexed, &again, "scratch reset must not leak state");
    }

    /// Same pin on the ideal crossbar (endpoint contention only, so the
    /// match-queue bookkeeping dominates the behaviour being compared).
    #[test]
    fn indexed_replay_matches_reference_on_crossbar(
        (num_ranks, ops) in (2usize..=8).prop_flat_map(|n| (Just(n), ops(n))),
    ) {
        let trace = build_trace(num_ranks, &ops);
        let cfg = NetworkConfig::default();
        let indexed = ReplayEngine::new(&trace)
            .run(CrossbarSim::new(num_ranks, cfg.clone()))
            .unwrap();
        let hashed = reference::run(&trace, CrossbarSim::new(num_ranks, cfg)).unwrap();
        prop_assert_eq!(indexed, hashed);
    }
}
