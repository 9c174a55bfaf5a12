//! Property-based tests of patterns, permutations and decomposition.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xgft_patterns::{decompose, generators, ConnectivityMatrix, Flow, Pattern, Permutation};

fn arbitrary_matrix() -> impl Strategy<Value = ConnectivityMatrix> {
    (2usize..=24)
        .prop_flat_map(|n| {
            let flows = prop::collection::vec((0..n, 0..n, 1u64..=4096), 0..60);
            (Just(n), flows)
        })
        .prop_map(|(n, flows)| {
            let mut m = ConnectivityMatrix::new(n);
            for (s, d, b) in flows {
                m.add_flow(s, d, b);
            }
            m
        })
}

/// Flow lists over a few nodes, so `(src, dst)` pairs repeat often.
fn flow_list() -> impl Strategy<Value = (usize, Vec<Flow>)> {
    (1usize..=6)
        .prop_flat_map(|n| {
            let flows = prop::collection::vec((0..n, 0..n, 1u64..=4096), 0..80);
            (Just(n), flows)
        })
        .prop_map(|(n, flows)| {
            let flows = flows
                .into_iter()
                .map(|(src, dst, bytes)| Flow { src, dst, bytes })
                .collect();
            (n, flows)
        })
}

/// The one-insertion-per-flow build that `from_flows` must reproduce.
fn add_flow_loop(n: usize, flows: &[Flow]) -> ConnectivityMatrix {
    let mut m = ConnectivityMatrix::new(n);
    for f in flows {
        m.add_flow(f.src, f.dst, f.bytes);
    }
    m
}

/// The fold of every phase into an empty matrix that `combined` must
/// reproduce.
fn fold_from_empty(pattern: &Pattern) -> ConnectivityMatrix {
    pattern.phases().iter().fold(
        ConnectivityMatrix::new(pattern.num_nodes()),
        |all, phase| all.union(phase),
    )
}

/// The message of the panic `f` raises.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("the call must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("a string panic payload")
}

/// The bulk and the incremental build reject the same flows with the same
/// message, wherever the bad flow sits in the list.
#[test]
fn bulk_and_incremental_builds_reject_the_same_flows() {
    let good = Flow {
        src: 0,
        dst: 1,
        bytes: 8,
    };
    for (bad, expected) in [
        ((4, 0, 1), "source 4 out of range"),
        ((0, 4, 1), "destination 4 out of range"),
        ((2, 3, 0), "flows must carry a positive number of bytes"),
    ] {
        let (src, dst, bytes) = bad;
        let bad = Flow { src, dst, bytes };
        let incremental = panic_message(|| ConnectivityMatrix::new(4).add_flow(src, dst, bytes));
        assert_eq!(incremental, expected);
        for flows in [vec![bad], vec![good, bad], vec![bad, good, good]] {
            let bulk = panic_message(|| {
                ConnectivityMatrix::from_flows(4, flows);
            });
            assert_eq!(bulk, expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bulk build equals one `add_flow` per flow: duplicate pairs sum
    /// their bytes, and iteration order is the same `(src, dst)` order.
    #[test]
    fn bulk_from_flows_matches_the_add_flow_loop((n, flows) in flow_list()) {
        let bulk = ConnectivityMatrix::from_flows(n, flows.iter().copied());
        let incremental = add_flow_loop(n, &flows);
        prop_assert_eq!(bulk.flows().collect::<Vec<_>>(), incremental.flows().collect::<Vec<_>>());
        prop_assert_eq!(bulk, incremental);
    }

    /// `combined` equals the fold from an empty matrix on single-phase
    /// (WRF, shift) and five-phase (CG) generators, and on arbitrary
    /// three-phase patterns with overlapping flows.
    #[test]
    fn combined_matches_the_fold_from_empty(
        log_n in 5u32..=8,
        offset in 1usize..100,
        bytes in 1u64..=1_000_000,
        m1 in arbitrary_matrix(),
    ) {
        let n = 1usize << log_n;
        for pattern in [
            generators::wrf_mesh_exchange(n / 16, 16, bytes).unwrap(),
            generators::shift(n, offset % n, bytes),
            generators::cg_d(n, bytes).unwrap(),
        ] {
            prop_assert_eq!(pattern.combined(), fold_from_empty(&pattern));
        }
        let overlapping = Pattern::new("overlap", vec![m1.clone(), m1.inverse(), m1]);
        prop_assert_eq!(overlapping.combined(), fold_from_empty(&overlapping));
    }

    /// The inverse of the inverse is the original pattern, and inversion
    /// preserves totals and symmetry.
    #[test]
    fn inversion_is_an_involution(m in arbitrary_matrix()) {
        let inv = m.inverse();
        prop_assert_eq!(inv.inverse(), m.clone());
        prop_assert_eq!(inv.total_bytes(), m.total_bytes());
        prop_assert_eq!(inv.num_flows(), m.num_flows());
        prop_assert_eq!(m.is_symmetric(), inv.is_symmetric());
        // Union with the inverse is always symmetric.
        prop_assert!(m.union(&inv).is_symmetric());
    }

    /// Decomposition into permutations is lossless, every round is a partial
    /// permutation, and the number of rounds is at least the endpoint
    /// contention of the pattern.
    #[test]
    fn decomposition_properties(m in arbitrary_matrix()) {
        let rounds = decompose::decompose_into_permutations(&m);
        // Lossless over network flows.
        let rebuilt = decompose::recompose(m.num_nodes(), &rounds);
        let mut expected = ConnectivityMatrix::new(m.num_nodes());
        for f in m.network_flows() {
            expected.add_flow(f.src, f.dst, f.bytes);
        }
        prop_assert_eq!(rebuilt, expected);
        // Rounds are partial permutations.
        for round in &rounds {
            let mut srcs = std::collections::HashSet::new();
            let mut dsts = std::collections::HashSet::new();
            for f in round {
                prop_assert!(srcs.insert(f.src));
                prop_assert!(dsts.insert(f.dst));
            }
        }
        prop_assert!(rounds.len() >= m.endpoint_contention());
    }

    /// Random permutations are bijections; composing with the inverse gives
    /// the identity; converting to a matrix yields a permutation pattern
    /// with no endpoint contention.
    #[test]
    fn permutation_algebra(n in 2usize..200, seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Permutation::random(n, &mut rng);
        let inv = p.inverse();
        prop_assert!(p.compose(&inv).is_identity());
        prop_assert!(inv.compose(&p).is_identity());
        let m = p.to_matrix(100);
        prop_assert!(m.is_permutation());
        prop_assert!(m.endpoint_contention() <= 1);
    }

    /// Every named generator emits flows within range, with positive sizes,
    /// and the permutation-shaped ones really are permutations.
    #[test]
    fn generators_are_well_formed(
        bytes in 1u64..=1_000_000,
        log_n in 5u32..=9,
        offset in 1usize..100,
        seed in 0u64..1000,
    ) {
        let n = 1usize << log_n;
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns = vec![
            generators::wrf_mesh_exchange(n / 16, 16, bytes).unwrap(),
            generators::cg_d(n, bytes).unwrap(),
            generators::shift(n, offset % n, bytes),
            generators::bit_reversal(n, bytes).unwrap(),
            generators::bit_complement(n, bytes).unwrap(),
            generators::random_permutation(n, bytes, &mut rng),
            generators::ring_exchange(n, bytes),
        ];
        for p in &patterns {
            prop_assert_eq!(p.num_nodes(), n);
            for phase in p.phases() {
                for f in phase.flows() {
                    prop_assert!(f.src < n && f.dst < n);
                    prop_assert!(f.bytes > 0);
                }
            }
        }
        for p in &[
            generators::shift(n, offset % n, bytes),
            generators::bit_reversal(n, bytes).unwrap(),
            generators::bit_complement(n, bytes).unwrap(),
        ] {
            prop_assert!(p.phases()[0].is_permutation());
        }
        // CG's transpose phase is involutive for every power-of-two size.
        for s in 0..n {
            let d = generators::cg_transpose_partner(s, n);
            prop_assert_eq!(generators::cg_transpose_partner(d, n), s);
        }
    }

    /// A pattern's combined matrix accumulates exactly the bytes of its
    /// phases.
    #[test]
    fn combined_preserves_bytes(m1 in arbitrary_matrix()) {
        let n = m1.num_nodes();
        let mut m2 = ConnectivityMatrix::new(n);
        m2.add_flow(0, n - 1, 7);
        let pattern = xgft_patterns::Pattern::new("two-phase", vec![m1.clone(), m2.clone()]);
        prop_assert_eq!(pattern.total_bytes(), m1.total_bytes() + m2.total_bytes());
        prop_assert_eq!(
            pattern.combined().total_bytes(),
            m1.total_bytes() + m2.total_bytes()
        );
    }
}
