//! Pins the event core's observable behaviour with one number.
//!
//! A fixed SplitMix64 stream of small instances runs through `NetworkSim`:
//! both switching modes, one and four buffer slots per channel, message
//! sizes at every segment boundary (1, seg − 1, seg, seg + 1, multi-segment
//! sizes off the grid) plus local copies (which carry no segment), mid-run
//! channel failures under both policies with repairs, and drains between
//! streamed completions that recycle slots while other traffic is in
//! flight. Every `SimReport` (ids, per-message times, makespan, events,
//! queue high-water mark), every streamed `Completion`, every drain count,
//! every message status and each per-channel busy vector is folded into one
//! `u64`. Any change to event order, timing, ids or counters moves it.
//!
//! Zero-byte messages are refused at scheduling, so the stream has none.

use xgft_netsim::{
    Completion, FailurePolicy, MessageId, MessageStatus, NetworkConfig, NetworkSim, SimReport,
    SwitchingMode,
};
use xgft_topo::{Route, Xgft, XgftSpec};

/// The folded digest of the whole stream.
const DIGEST: u64 = 0x4141_d580_3557_d562;

/// Instances in the stream.
const INSTANCES: usize = 400;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-sensitive fold of `u64` words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, x: u64) {
        self.0 = mix(self.0.rotate_left(17) ^ x);
    }

    fn completion(&mut self, c: &Completion) {
        for x in [
            c.id.0,
            c.src as u64,
            c.dst as u64,
            c.bytes,
            c.completed_at_ps,
        ] {
            self.word(x);
        }
    }

    fn report(&mut self, r: &SimReport) {
        for x in [
            r.completed_messages as u64,
            r.dropped_messages as u64,
            r.total_bytes,
            r.makespan_ps,
            r.max_queue_depth as u64,
            r.max_channel_utilization.to_bits(),
            r.events_processed,
            r.event_queue_hwm as u64,
            r.messages.len() as u64,
        ] {
            self.word(x);
        }
        for m in &r.messages {
            for x in [
                m.id.0,
                m.src as u64,
                m.dst as u64,
                m.bytes,
                m.injected_at_ps,
                m.completed_at_ps,
            ] {
                self.word(x);
            }
        }
    }

    fn status(&mut self, status: Option<MessageStatus>) {
        self.word(match status {
            None => 0,
            Some(MessageStatus::Pending) => 1,
            Some(MessageStatus::InFlight) => 2,
            Some(MessageStatus::Delivered) => 3,
            Some(MessageStatus::Dropped) => 4,
        });
    }
}

/// A route over a random NCA of the pair (empty for a local copy).
fn random_route(xgft: &Xgft, rng: &mut SplitMix64, s: usize, d: usize) -> Route {
    if s == d {
        return Route::empty();
    }
    let ncas = xgft.ncas(s, d).expect("valid pair");
    let choice = rng.below(ncas.len() as u64) as usize;
    Route::new(ncas.route_digits(choice).expect("in range"))
}

/// A message size around the segment grid.
fn random_bytes(rng: &mut SplitMix64, seg: u64) -> u64 {
    match rng.below(6) {
        0 => 1,
        1 => seg - 1,
        2 => seg,
        3 => seg + 1,
        // Multi-segment, never a multiple of the segment size.
        4 => (2 + rng.below(5)) * seg + 1 + rng.below(seg - 1),
        _ => (1 + rng.below(6)) * seg,
    }
}

/// The state one instance carries between scheduling calls.
struct Instance<'a> {
    xgft: &'a Xgft,
    sim: NetworkSim,
    ids: Vec<MessageId>,
    /// Channels on the paths scheduled so far (failure targets that bite).
    used: Vec<usize>,
    seg: u64,
}

impl Instance<'_> {
    fn schedule(&mut self, rng: &mut SplitMix64, at_ps: u64) {
        let n = self.xgft.num_leaves() as u64;
        let s = rng.below(n) as usize;
        // One message in eight is a local copy.
        let d = if rng.below(8) == 0 {
            s
        } else {
            (s + 1 + rng.below(n - 1) as usize) % n as usize
        };
        let bytes = random_bytes(rng, self.seg);
        let route = random_route(self.xgft, rng, s, d);
        if s != d {
            let path = self.xgft.route_channels(s, d, &route).expect("valid route");
            self.used.extend(path);
        }
        self.ids
            .push(self.sim.schedule_message(at_ps, s, d, bytes, route));
    }

    /// Fail a channel some scheduled path crosses at `at_ps`, and maybe
    /// repair it later.
    fn fail(&mut self, rng: &mut SplitMix64, at_ps: u64, horizon_ps: u64) {
        if self.used.is_empty() {
            return;
        }
        let channel = rng.pick(&self.used);
        let policy = if rng.below(2) == 0 {
            FailurePolicy::Drop
        } else {
            FailurePolicy::CompleteInFlight
        };
        self.sim.fail_channel(at_ps, channel, policy);
        if rng.below(2) == 0 {
            self.sim
                .repair_channel(at_ps + 1 + rng.below(horizon_ps), channel);
        }
    }
}

fn run_instance(rng: &mut SplitMix64, digest: &mut Digest) {
    let specs: [(&[usize], &[usize]); 4] = [
        (&[4, 4], &[1, 4]),
        (&[4, 4], &[1, 2]),
        (&[2, 2, 2], &[1, 2, 2]),
        (&[3, 3], &[1, 1]),
    ];
    let (m, w) = rng.pick(&specs);
    let xgft = Xgft::new(XgftSpec::new(m.to_vec(), w.to_vec()).expect("valid spec"))
        .expect("valid topology");
    let config = NetworkConfig {
        switching: if rng.below(2) == 0 {
            SwitchingMode::StoreAndForward
        } else {
            SwitchingMode::CutThrough
        },
        input_buffer_segments: rng.pick(&[1, 4]),
        segment_bytes: rng.pick(&[1024, 256, 100]),
        ..NetworkConfig::default()
    };
    let seg_ps = config.segment_serialization_ps();
    let seg = config.segment_bytes;
    let mut inst = Instance {
        xgft: &xgft,
        sim: NetworkSim::new(&xgft, config),
        ids: Vec::new(),
        used: Vec::new(),
        seg,
    };
    let horizon_ps = 12 * seg_ps;
    for _ in 0..1 + rng.below(16) {
        // A third of the messages start together at time 0.
        let at_ps = if rng.below(3) == 0 {
            0
        } else {
            rng.below(horizon_ps)
        };
        inst.schedule(rng, at_ps);
    }
    if rng.below(2) == 0 {
        let at_ps = rng.below(horizon_ps);
        inst.fail(rng, at_ps, horizon_ps);
    }

    let report = if rng.below(2) == 0 {
        inst.sim.run_to_completion()
    } else {
        // Stream completions; drain every other one, then schedule fresh
        // traffic (and sometimes a failure) at the current instant, so
        // recycled slots carry segments next to older in-flight ones.
        let mut streamed = 0;
        let mut extra = 0;
        while let Some(c) = inst.sim.run_until_next_completion() {
            digest.completion(&c);
            streamed += 1;
            if streamed % 2 == 0 {
                digest.word(inst.sim.drain_delivered() as u64);
                if extra < 8 {
                    extra += 1;
                    let now = inst.sim.now_ps();
                    inst.schedule(rng, now);
                    if rng.below(4) == 0 {
                        let at_ps = now + rng.below(seg_ps);
                        inst.fail(rng, at_ps, horizon_ps);
                    }
                }
            }
        }
        inst.sim.run_to_completion()
    };
    digest.report(&report);
    for &id in &inst.ids {
        digest.status(inst.sim.message_status(id));
    }
    digest.word(inst.sim.dropped_messages() as u64);
    let busy = inst.sim.channel_busy_ps();
    digest.word(busy.len() as u64);
    for b in busy {
        digest.word(b);
    }
}

#[test]
fn report_digest_is_pinned() {
    let mut rng = SplitMix64(0x5E_ED0F_E7E7);
    let mut digest = Digest(0);
    for _ in 0..INSTANCES {
        run_instance(&mut rng, &mut digest);
    }
    assert_eq!(
        digest.0, DIGEST,
        "the event core's reports changed: got {:#018x}",
        digest.0
    );
}
