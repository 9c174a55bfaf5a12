//! Property pins for the replay core: [`ReplayEngine`] (dense per-queue
//! slabs, generation-tagged in-flight store, wake-driven scheduling in
//! which a delivery polls only its queue's receiver and barriers resolve
//! by counters) must return *exactly* what the hash-map implementation
//! kept in `replay::reference` returns — which sweeps every rank after
//! every delivery — on both the routed XGFT simulator and the
//! Full-Crossbar reference. The full [`xgft_tracesim::ReplayResult`] is
//! compared, network report included.
//!
//! Two trace families are drawn:
//!
//! * **Global linearizations.** Each drawn op appends a compute block, a
//!   send *and its matching receive* (send first, so every prefix of the
//!   global order can make progress — sends never block), or an all-rank
//!   barrier. This is the class of traces the workload generators emit,
//!   with random tags so per-queue FIFO matching is exercised across
//!   interleaved queues. These never deadlock; a second run of the same
//!   engine also pins the scratch-reset path.
//! * **Free-form programs.** Every rank's program is ordered
//!   independently: sends and receives balance per `(src, dst, tag)`, but
//!   a receive may come before its send, and ranks hold different numbers
//!   of barriers. Such traces can deadlock, and ranks can finish while
//!   others wait at a barrier, so the whole `Result` is compared —
//!   `Err(Deadlock { blocked_ranks })` included.

use proptest::prelude::*;
use xgft_core::{CompiledRouteTable, DModK};
use xgft_netsim::{NetworkConfig, NetworkSim};
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

/// One item of a free-form rank program, with the key that orders it
/// among the rank's other items.
#[derive(Debug, Clone)]
struct Item {
    rank: usize,
    key: u16,
    event: RankEvent,
}

fn free_form_trace(num_ranks: usize) -> impl Strategy<Value = Trace> {
    let message = (
        0..num_ranks,
        0..num_ranks,
        0u32..3,
        0u64..4096,
        0u16..1024,
        0u16..1024,
    );
    // kind 0 is a barrier, 1..=2 a compute block.
    let extra = (0..num_ranks, 0usize..3, 0u64..4096, 0u16..1024);
    (
        prop::collection::vec(message, 0..48),
        prop::collection::vec(extra, 0..32),
    )
        .prop_map(move |(messages, extras)| {
            let mut items = Vec::new();
            for (src, dst, tag, amount, send_key, recv_key) in messages {
                items.push(Item {
                    rank: src,
                    key: send_key,
                    event: RankEvent::Send {
                        dst,
                        bytes: 256 + amount,
                        tag,
                    },
                });
                items.push(Item {
                    rank: dst,
                    key: recv_key,
                    event: RankEvent::Recv { src, tag },
                });
            }
            for (rank, kind, amount, key) in extras {
                let event = match kind {
                    0 => RankEvent::Barrier,
                    _ => RankEvent::Compute {
                        duration_ps: 1 + amount * 7,
                    },
                };
                items.push(Item { rank, key, event });
            }
            // Each item's key is drawn on its own, so every rank's order
            // is independent of every other rank's.
            items.sort_by_key(|item| item.key);
            let mut programs: Vec<Vec<RankEvent>> = vec![Vec::new(); num_ranks];
            for item in items {
                programs[item.rank].push(item.event);
            }
            Trace::new("free-form", programs)
        })
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
        let crossbar = || RoutedNetwork::crossbar(num_ranks, &cfg).unwrap();
        let indexed = ReplayEngine::new(&trace).run(crossbar()).unwrap();
        let hashed = reference::run(&trace, crossbar()).unwrap();
        prop_assert_eq!(indexed, hashed);
    }

    /// Free-form traces, deadlocking ones included: the engine's whole
    /// `Result` equals the reference's on the routed simulator and on the
    /// crossbar.
    #[test]
    fn wake_driven_replay_matches_reference_on_free_form_traces(
        (num_ranks, trace) in (2usize..=64).prop_flat_map(|n| (Just(n), free_form_trace(n))),
    ) {
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 3)).unwrap();
        let table = CompiledRouteTable::compile_all_pairs(&xgft, &DModK::new());
        let routed = || {
            RoutedNetwork::with_source(
                NetworkSim::new(&xgft, NetworkConfig::default()),
                table.clone(),
            )
        };
        let mut engine = ReplayEngine::new(&trace);
        prop_assert_eq!(engine.run(routed()), reference::run(&trace, routed()));
        let cfg = NetworkConfig::default();
        let crossbar = || RoutedNetwork::crossbar(num_ranks, &cfg).unwrap();
        prop_assert_eq!(engine.run(crossbar()), reference::run(&trace, crossbar()));
    }
}
