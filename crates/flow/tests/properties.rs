//! Property-based cross-validation of the analytical flow model.
//!
//! Two families of checks:
//!
//! 1. **Against the event-driven simulator** — when every flow carries the
//!    same number of bytes, a channel's accumulated busy time in
//!    `xgft-netsim` is exactly proportional to the number of flows
//!    serialized through it, so the simulator's per-channel `busy_ps` vector
//!    must match the flow model's expected loads: exactly for deterministic
//!    schemes, and seed-averaged within statistical tolerance for the
//!    randomised closed forms.
//!
//! 2. **The Sec. VII S-mod-k / D-mod-k duality at the load-vector level** —
//!    routing a pattern with S-mod-k uses exactly the cables that routing
//!    the *inverse* pattern with D-mod-k uses, with up and down directions
//!    swapped. The flow model reproduces the equivalence exactly, with no
//!    simulation involved.

use proptest::prelude::*;
use xgft_core::{DModK, RandomNcaDown, RandomRouting, RouteDistribution, RoutingAlgorithm, SModK};
use xgft_flow::{ExpectedLoads, TrafficMatrix};
use xgft_netsim::{NetworkConfig, NetworkSim};
use xgft_topo::{ChannelId, Direction, Xgft, XgftSpec};

/// Replay `flows` (each `bytes` bytes, all injected at t = 0) through the
/// event-driven simulator, routing each one with `algo`, and return the
/// per-channel busy times.
fn measured_busy_ps<A: RoutingAlgorithm + ?Sized>(
    xgft: &Xgft,
    algo: &A,
    flows: &[(usize, usize)],
    bytes: u64,
) -> Vec<u64> {
    let mut sim = NetworkSim::new(xgft, NetworkConfig::default());
    for &(s, d) in flows {
        if s == d {
            continue;
        }
        sim.schedule_message(0, s, d, bytes, algo.route(xgft, s, d));
    }
    sim.run_to_completion();
    sim.channel_busy_ps()
}

/// Small two-and-three-level specs with optional slimming (mirrors the
/// strategy used by the core property tests).
fn small_spec() -> impl Strategy<Value = XgftSpec> {
    prop_oneof![
        (2usize..=6, 1usize..=6)
            .prop_map(|(k, w2)| { XgftSpec::new(vec![k, k], vec![1, w2.min(k)]).expect("valid") }),
        (2usize..=4, 2usize..=4, 2usize..=3, 1usize..=3, 1usize..=3).prop_map(
            |(m1, m2, m3, w2, w3)| {
                XgftSpec::new(vec![m1, m2, m3], vec![1, w2, w3]).expect("valid")
            }
        ),
    ]
}

/// A pseudo-random flow set over `n` leaves derived from `salt`.
fn flow_set(n: usize, salt: usize) -> Vec<(usize, usize)> {
    (0..n)
        .map(|s| (s, (s * (salt % 7 + 2) + salt) % n))
        .filter(|&(s, d)| s != d)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deterministic schemes: the model's expected loads and the
    /// simulator's busy times are exactly proportional, channel by channel.
    #[test]
    fn model_loads_match_netsim_busy_for_d_mod_k(spec in small_spec(), salt in 0usize..1000) {
        let xgft = Xgft::new(spec).unwrap();
        let flows = flow_set(xgft.num_leaves(), salt);
        let busy = measured_busy_ps(&xgft, &DModK::new(), &flows, 4096);

        let traffic = TrafficMatrix::from_flows(
            xgft.num_leaves(),
            flows.iter().map(|&(s, d)| (s, d, 1.0)),
        );
        let model = ExpectedLoads::compute(&xgft, &DModK::new(), &traffic);

        // busy_ps(ch) = load(ch) x (serialization time of one message), so
        // busy must be an exact integer multiple of the unit-weight load.
        let unit = busy
            .iter()
            .zip(model.loads())
            .filter(|&(_, &l)| l > 0.0)
            .map(|(&b, &l)| b as f64 / l)
            .next()
            .unwrap_or(0.0);
        prop_assert!(unit > 0.0, "some channel must carry traffic");
        for (idx, (&b, &l)) in busy.iter().zip(model.loads()).enumerate() {
            prop_assert!(
                (b as f64 - l * unit).abs() < 1e-6 * unit.max(1.0),
                "channel {idx}: busy {b} vs load {l} x unit {unit}"
            );
        }
    }

    /// Sec. VII duality, exactly, at the load-vector level: S-mod-k on a
    /// flow set uses the same cables as D-mod-k on the reversed flow set,
    /// with directions swapped.
    #[test]
    fn s_mod_k_and_d_mod_k_are_dual_at_the_load_level(spec in small_spec(), salt in 0usize..1000) {
        let xgft = Xgft::new(spec).unwrap();
        let n = xgft.num_leaves();
        let flows = flow_set(n, salt);
        let forward = TrafficMatrix::from_flows(n, flows.iter().map(|&(s, d)| (s, d, 1.0)));
        let reversed = TrafficMatrix::from_flows(n, flows.iter().map(|&(s, d)| (d, s, 1.0)));

        let loads_s = ExpectedLoads::compute(&xgft, &SModK::new(), &forward);
        let loads_d = ExpectedLoads::compute(&xgft, &DModK::new(), &reversed);

        let channels = xgft.channels();
        for (idx, ch) in channels.iter() {
            let mirrored = channels.index(&ChannelId {
                dir: match ch.dir {
                    Direction::Up => Direction::Down,
                    Direction::Down => Direction::Up,
                },
                ..ch
            });
            prop_assert!(
                (loads_s.loads()[idx] - loads_d.loads()[mirrored]).abs() < 1e-9,
                "cable (level {}, low {}, port {}): S-mod-k {} {} vs D-mod-k {} {}",
                ch.level,
                ch.low_index,
                ch.up_port,
                ch.dir,
                loads_s.loads()[idx],
                match ch.dir { Direction::Up => "down", Direction::Down => "up" },
                loads_d.loads()[mirrored]
            );
        }
        // Consequence: identical maximum channel loads (the contention-level
        // equivalence the paper argues over permutations and beyond).
        prop_assert!((loads_s.mcl() - loads_d.mcl()).abs() < 1e-9);
    }
}

/// Seed-averaged simulator measurements converge to the closed forms: the
/// acceptance check for Random and r-NCA-d on a small all-pairs instance.
#[test]
fn seed_averaged_netsim_mcl_matches_closed_form_for_random_and_rnca() {
    let xgft = Xgft::new(XgftSpec::slimmed_two_level(8, 5).unwrap()).unwrap();
    let n = xgft.num_leaves();
    let flows: Vec<(usize, usize)> = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .filter(|&(s, d)| s != d)
        .collect();
    let traffic = TrafficMatrix::uniform(n);
    // The paper's boxplots use 40-60 seeds; 40 gives the per-channel
    // averages enough concentration for a 15% max-channel comparison (the
    // r-NCA family's balanced maps put 1 or 2 destinations per root, so a
    // single draw's MCL sits a full 25% above the expectation).
    let seeds: Vec<u64> = (1..=40).collect();

    for (name, model_algo, seeded) in [
        (
            "random",
            Box::new(RandomRouting::new(0)) as Box<dyn RouteDistribution>,
            (|seed| Box::new(RandomRouting::new(seed)) as Box<dyn RouteDistribution>)
                as fn(u64) -> Box<dyn RouteDistribution>,
        ),
        ("r-NCA-d", Box::new(RandomNcaDown::new(&xgft, 0)), |seed| {
            Box::new(RandomNcaDown::new(
                &Xgft::new(XgftSpec::slimmed_two_level(8, 5).unwrap()).unwrap(),
                seed,
            ))
        }),
    ] {
        let model = ExpectedLoads::compute(&xgft, model_algo.as_ref(), &traffic);

        // Average the simulator's per-channel busy times over the seeds.
        let mut avg = vec![0.0f64; xgft.channels().len()];
        for &seed in &seeds {
            let algo = seeded(seed);
            for (a, b) in avg
                .iter_mut()
                .zip(measured_busy_ps(&xgft, algo.as_ref(), &flows, 2048))
            {
                *a += b as f64 / seeds.len() as f64;
            }
        }

        // Convert busy time to flow units via a channel with a known exact
        // load: the injection link of leaf 0 carries n-1 flows always.
        let inj = xgft.channels().injection_channel(0);
        let unit = avg[inj] / (n as f64 - 1.0);
        assert!(unit > 0.0);
        let measured_mcl = avg.iter().copied().fold(0.0f64, f64::max) / unit;

        let rel = (measured_mcl - model.mcl()).abs() / model.mcl();
        assert!(
            rel < 0.12,
            "{name}: seed-averaged MCL {measured_mcl:.1} vs closed form {:.1} ({:.1}% off)",
            model.mcl(),
            rel * 100.0
        );

        // The whole normalized load shape matches too, channel by channel.
        let max_model = model.mcl();
        for (idx, (&a, &m)) in avg.iter().zip(model.loads()).enumerate() {
            let diff = (a / unit - m).abs() / max_model;
            assert!(
                diff < 0.12,
                "{name}: channel {idx} measured {:.1} vs expected {m:.1}",
                a / unit
            );
        }
    }
}

/// The r-NCA marginal-equivalence result: expected channel loads of the
/// r-NCA family equal Random's on any traffic, even though each individual
/// draw is better balanced (lower variance, same mean).
#[test]
fn rnca_seed_marginal_equals_random_closed_form_on_patterns() {
    let xgft = Xgft::new(XgftSpec::new(vec![4, 4, 4], vec![1, 3, 2]).unwrap()).unwrap();
    let n = xgft.num_leaves();
    let traffic = TrafficMatrix::from_flows(n, (0..n).map(|s| (s, (s + 7) % n, 3.0)));
    let random = ExpectedLoads::compute(&xgft, &RandomRouting::new(0), &traffic);
    let rnca = ExpectedLoads::compute(&xgft, &RandomNcaDown::new(&xgft, 1), &traffic);
    for (a, b) in random.loads().iter().zip(rnca.loads()) {
        assert!((a - b).abs() < 1e-9);
    }
}
