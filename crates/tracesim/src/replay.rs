//! The replay engine: causal reconstruction of a trace on a network model.
//!
//! Every rank executes its program against a local clock. `Compute` advances
//! the clock, `Send` posts a message into the network at the current clock,
//! `Recv` blocks until the matching message has been delivered (the rank's
//! clock then jumps to the delivery time), and `Barrier` synchronises all
//! ranks to the latest arrival. The engine alternates between (a) running
//! the ranks that can move as far as they can go and (b) advancing the
//! network to its next delivery — the co-simulation structure of
//! Dimemas + Venus.
//!
//! ## The indexed replay core
//!
//! Message matching used to hash `(src, dst, tag)` tuples through a
//! `HashMap<_, VecDeque<u64>>` on every send, delivery and receive, and a
//! second `HashMap<u64, _>` tracked in-flight messages — millions of hash
//! probes and queue allocations per campaign shard. The trace is static,
//! though: every `(src, dst, tag)` triple that can ever be matched, and the
//! exact number of sends it will carry, is known before the replay starts.
//! [`ReplayEngine::new`] therefore *compiles* the trace once:
//!
//! * every distinct triple becomes a dense **match-queue index**, and each
//!   `Send`/`Recv` instruction is rewritten to carry its queue id — the hot
//!   loop never hashes or searches anything. The plan also keeps each
//!   queue's receiving rank;
//! * all queues share one flat **timestamp arena** sized exactly from the
//!   per-queue send counts (the same shared-arena discipline as netsim's
//!   `MessageSlab`), with per-queue head/tail cursors instead of per-key
//!   `VecDeque`s;
//! * in-flight messages live in a flat slab indexed by the low 32 bits of
//!   the [`MessageId`](xgft_netsim::MessageId) (the slot), tagged with the
//!   id's generation so a recycled slot can never alias a stale entry.
//!
//! ## Wake-driven scheduling
//!
//! Only two things ever unblock a rank: a delivery into the queue it waits
//! on, and a barrier release. Sends never block, and a queue's tail only
//! moves when the network delivers into it. So after one ascending sweep
//! has run every rank to a standstill, a delivery into queue `q` can only
//! move `q`'s receiver: the engine polls that one rank and no other. The
//! network sees the same `schedule_message` calls, at the same times and
//! in the same order, as a sweep over every rank would make.
//!
//! Barriers are resolved by two counters, not rank scans: the number of
//! unfinished ranks and the number waiting at a barrier. When they are
//! equal and non-zero — after a rank arrives at a barrier, or after the
//! last rank outside it finishes — every unfinished rank is released at
//! the latest arrival time and one ascending sweep runs them on.
//!
//! The scratch state is owned by the engine and recycled across [`run`]
//! calls, so a campaign shard that replays one trace against many networks
//! allocates its buffers once. The pre-overhaul HashMap core, which sweeps
//! every rank after every delivery, is retained in
//! [`reference`](mod@reference) and pinned byte-identical by equivalence
//! proptests, deadlocking traces included.
//!
//! [`run`]: ReplayEngine::run

use crate::network::{Network, NetworkError};
use crate::trace::{RankEvent, Trace};
use xgft_netsim::SimReport;

/// Errors the replay can encounter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The trace failed validation before the replay started.
    InvalidTrace(String),
    /// Every rank is blocked but the network has nothing left to deliver.
    Deadlock {
        /// Ranks that were still blocked.
        blocked_ranks: Vec<usize>,
    },
    /// The network refused a message (e.g. the route table has no route for
    /// a pair the trace communicates over).
    Network(NetworkError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::InvalidTrace(msg) => write!(f, "invalid trace: {msg}"),
            ReplayError::Deadlock { blocked_ranks } => {
                write!(f, "replay deadlocked with ranks {blocked_ranks:?} blocked")
            }
            ReplayError::Network(err) => write!(f, "network rejected a message: {err}"),
        }
    }
}

impl From<NetworkError> for ReplayError {
    fn from(err: NetworkError) -> Self {
        ReplayError::Network(err)
    }
}

impl std::error::Error for ReplayError {}

/// The outcome of a replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// Name of the trace.
    pub trace: String,
    /// Application completion time: the latest rank finish time (ps).
    pub completion_ps: u64,
    /// Finish time of every rank (ps).
    pub rank_finish_ps: Vec<u64>,
    /// The network-level report (per-message records, utilization, events).
    pub network_report: SimReport,
}

impl ReplayResult {
    /// Completion time in milliseconds.
    pub fn completion_ms(&self) -> f64 {
        self.completion_ps as f64 / 1e9
    }
}

/// One compiled instruction: the trace's [`RankEvent`] with every match key
/// pre-resolved to its dense queue id.
#[derive(Debug, Clone, Copy)]
enum Op {
    Compute { duration_ps: u64 },
    Send { dst: u32, bytes: u64, queue: u32 },
    Recv { queue: u32 },
    Barrier,
}

/// The static side of a replay, compiled once per trace: per-rank programs
/// with pre-resolved queue ids, plus the exact arena layout every match
/// queue's timestamps will live in.
#[derive(Debug)]
struct ReplayPlan {
    num_ranks: usize,
    /// Every rank's compiled program, concatenated.
    ops: Vec<Op>,
    /// Rank `r` executes `ops[program_start[r] .. program_start[r + 1]]`.
    program_start: Vec<u32>,
    /// Queue `q`'s timestamps occupy `times[queue_start[q] ..
    /// queue_start[q + 1]]` of the shared arena — spans sized exactly from
    /// the trace's per-queue send counts.
    queue_start: Vec<u32>,
    /// The receiving rank of queue `q`: the only rank a delivery into `q`
    /// can unblock.
    queue_dst: Vec<u32>,
}

impl ReplayPlan {
    /// Validate `trace` and compile it into the indexed form.
    fn compile(trace: &Trace) -> Result<ReplayPlan, String> {
        trace.validate()?;
        let n = trace.num_ranks();
        // Every (src, dst, tag) triple a Send can deliver to or a Recv can
        // wait on, deduplicated into a dense queue numbering.
        let mut triples: Vec<(u32, u32, u32)> = Vec::new();
        for rank in 0..n {
            for event in trace.program(rank) {
                match *event {
                    RankEvent::Send { dst, tag, .. } => {
                        triples.push((rank as u32, dst as u32, tag));
                    }
                    RankEvent::Recv { src, tag } => {
                        triples.push((src as u32, rank as u32, tag));
                    }
                    _ => {}
                }
            }
        }
        triples.sort_unstable();
        triples.dedup();
        #[expect(
            clippy::expect_used,
            reason = "every Send and Recv key is in `triples`"
        )]
        let queue_of = |key: (u32, u32, u32)| -> u32 {
            triples.binary_search(&key).expect("key was inserted") as u32
        };

        let mut ops = Vec::new();
        let mut program_start = Vec::with_capacity(n + 1);
        let mut send_counts = vec![0u32; triples.len()];
        for rank in 0..n {
            program_start.push(ops.len() as u32);
            for event in trace.program(rank) {
                ops.push(match *event {
                    RankEvent::Compute { duration_ps } => Op::Compute { duration_ps },
                    RankEvent::Send { dst, bytes, tag } => {
                        let queue = queue_of((rank as u32, dst as u32, tag));
                        send_counts[queue as usize] += 1;
                        Op::Send {
                            dst: dst as u32,
                            bytes,
                            queue,
                        }
                    }
                    RankEvent::Recv { src, tag } => Op::Recv {
                        queue: queue_of((src as u32, rank as u32, tag)),
                    },
                    RankEvent::Barrier => Op::Barrier,
                });
            }
        }
        program_start.push(ops.len() as u32);

        let mut queue_start = Vec::with_capacity(triples.len() + 1);
        let mut total = 0u32;
        for &count in &send_counts {
            queue_start.push(total);
            total += count;
        }
        queue_start.push(total);

        Ok(ReplayPlan {
            num_ranks: n,
            ops,
            program_start,
            queue_start,
            queue_dst: triples.iter().map(|&(_, dst, _)| dst).collect(),
        })
    }

    fn num_queues(&self) -> usize {
        self.queue_start.len() - 1
    }

    #[expect(clippy::expect_used, reason = "`compile` pushes a closing offset")]
    fn total_sends(&self) -> usize {
        *self.queue_start.last().expect("non-empty") as usize
    }
}

/// In-flight slab entry for a vacant slot.
const VACANT: u64 = u64::MAX;

/// The mutable side of a replay, recycled across [`ReplayEngine::run`]
/// calls: rank state as struct-of-arrays, the barrier counters, the shared
/// timestamp arena with its per-queue cursors and the in-flight slab.
#[derive(Debug, Default)]
struct ReplayScratch {
    // Per-rank execution state.
    clock_ps: Vec<u64>,
    pc: Vec<u32>,
    at_barrier: Vec<bool>,
    finished: Vec<bool>,
    /// Ranks not yet finished.
    unfinished: usize,
    /// Unfinished ranks waiting at a barrier.
    waiting: usize,
    /// `progress_rank` calls this run.
    polls: u64,
    /// Network deliveries this run.
    deliveries: u64,
    /// The shared delivery-timestamp arena (one exact-size span per queue).
    times: Vec<u64>,
    /// Per-queue count of timestamps consumed by Recvs.
    heads: Vec<u32>,
    /// Per-queue count of timestamps delivered by the network.
    tails: Vec<u32>,
    /// In-flight queue ids indexed by message-id slot (low 32 bits), with
    /// the id's generation packed in the high 32 bits so recycled slots
    /// never alias a stale entry. [`VACANT`] marks an empty slot.
    in_flight: Vec<u64>,
}

impl ReplayScratch {
    /// Size every store for `plan` and reset all cursors, keeping the
    /// allocations of any previous run.
    fn reset(&mut self, plan: &ReplayPlan) {
        let n = plan.num_ranks;
        self.clock_ps.clear();
        self.clock_ps.resize(n, 0);
        self.pc.clear();
        self.pc.resize(n, 0);
        self.at_barrier.clear();
        self.at_barrier.resize(n, false);
        self.finished.clear();
        self.finished.resize(n, false);
        self.unfinished = n;
        self.waiting = 0;
        self.polls = 0;
        self.deliveries = 0;
        // The arena itself needs no clearing: the tail cursors guard every
        // read, and each slot is written before it can be read.
        self.times.resize(plan.total_sends(), 0);
        self.heads.clear();
        self.heads.resize(plan.num_queues(), 0);
        self.tails.clear();
        self.tails.resize(plan.num_queues(), 0);
        self.in_flight.clear();
    }

    /// Release the barrier every unfinished rank waits at: each resumes,
    /// past its `Barrier`, at the latest arrival time.
    fn release_barrier(&mut self) {
        let mut release = 0;
        for rank in 0..self.clock_ps.len() {
            if !self.finished[rank] {
                release = release.max(self.clock_ps[rank]);
            }
        }
        for rank in 0..self.clock_ps.len() {
            if !self.finished[rank] {
                self.clock_ps[rank] = release;
                self.at_barrier[rank] = false;
                self.pc[rank] += 1;
            }
        }
        self.waiting = 0;
    }

    /// Record that message `id` will deliver into `queue` when it completes.
    fn insert_in_flight(&mut self, id: u64, queue: u32) {
        let slot = (id & u32::MAX as u64) as usize;
        if slot >= self.in_flight.len() {
            self.in_flight.resize(slot + 1, VACANT);
        }
        debug_assert_eq!(self.in_flight[slot], VACANT, "slot already in flight");
        self.in_flight[slot] = (id & !(u32::MAX as u64)) | queue as u64;
    }

    /// Take the queue a completed message delivers into.
    ///
    /// # Panics
    /// Panics if `id` was never scheduled (or its slot was recycled under a
    /// different generation) — the same contract the HashMap core enforced.
    #[expect(clippy::expect_used, reason = "see # Panics")]
    fn remove_in_flight(&mut self, id: u64) -> u32 {
        let slot = (id & u32::MAX as u64) as usize;
        let entry = self
            .in_flight
            .get(slot)
            .copied()
            .filter(|&e| e != VACANT && (e >> 32) == (id >> 32))
            .expect("completion for an unknown message");
        self.in_flight[slot] = VACANT;
        entry as u32
    }
}

/// The replay engine for one trace.
///
/// Construction compiles the borrowed trace into the indexed plan (see the
/// [module docs](self)); the engine can then [`run`](Self::run) the trace
/// against any number of networks, recycling its scratch state between
/// runs. Engines borrow their trace, so spinning one up per network is
/// cheap even for large traces.
#[derive(Debug)]
pub struct ReplayEngine<'t> {
    trace: &'t Trace,
    plan: Result<ReplayPlan, String>,
    scratch: ReplayScratch,
}

impl<'t> ReplayEngine<'t> {
    /// Create an engine for a trace, compiling it into the indexed plan.
    /// An invalid trace is diagnosed here and reported by [`run`](Self::run).
    pub fn new(trace: &'t Trace) -> Self {
        ReplayEngine {
            trace,
            plan: ReplayPlan::compile(trace),
            scratch: ReplayScratch::default(),
        }
    }

    /// The trace this engine replays.
    pub fn trace(&self) -> &Trace {
        self.trace
    }

    /// Replay the trace on `network` and return the timing result.
    pub fn run<N: Network>(&mut self, mut network: N) -> Result<ReplayResult, ReplayError> {
        xgft_obs::span!("tracesim.replay");
        let ReplayEngine {
            trace,
            plan,
            scratch,
        } = self;
        let plan = match plan {
            Ok(plan) => plan,
            Err(msg) => return Err(ReplayError::InvalidTrace(msg.clone())),
        };
        scratch.reset(plan);

        // The first pass sweeps every rank; after that only a barrier
        // release sweeps, and a delivery wakes its queue's receiver alone.
        let mut sweep = true;
        loop {
            if sweep {
                for rank in 0..plan.num_ranks {
                    progress_rank(plan, scratch, rank, &mut network)?;
                }
            }
            sweep = scratch.waiting > 0 && scratch.waiting == scratch.unfinished;
            if sweep {
                scratch.release_barrier();
                continue;
            }
            if scratch.unfinished == 0 {
                break;
            }

            match network.run_until_next_completion() {
                Some(completion) => {
                    let queue = scratch.remove_in_flight(completion.id.0) as usize;
                    let at = plan.queue_start[queue] + scratch.tails[queue];
                    debug_assert!(at < plan.queue_start[queue + 1], "queue overflow");
                    scratch.times[at as usize] = completion.completed_at_ps;
                    scratch.tails[queue] += 1;
                    scratch.deliveries += 1;
                    let rank = plan.queue_dst[queue] as usize;
                    progress_rank(plan, scratch, rank, &mut network)?;
                }
                None => {
                    let blocked_ranks: Vec<usize> = (0..plan.num_ranks)
                        .filter(|&r| !scratch.finished[r])
                        .collect();
                    return Err(ReplayError::Deadlock { blocked_ranks });
                }
            }
        }

        // Bulk-record the run's counters after the loop, never inside it.
        let metrics = xgft_obs::global();
        metrics.counter("tracesim.rank_polls").add(scratch.polls);
        metrics
            .counter("tracesim.deliveries")
            .add(scratch.deliveries);
        let rank_finish_ps = scratch.clock_ps.clone();
        let completion_ps = rank_finish_ps.iter().copied().max().unwrap_or(0);
        Ok(ReplayResult {
            trace: trace.name().to_string(),
            completion_ps,
            rank_finish_ps,
            network_report: network.report(),
        })
    }
}

/// Run one rank until it blocks, reaches a barrier or finishes, keeping
/// the barrier counters current. A network refusal (e.g. a missing route)
/// aborts the replay.
fn progress_rank<N: Network>(
    plan: &ReplayPlan,
    scratch: &mut ReplayScratch,
    rank: usize,
    network: &mut N,
) -> Result<(), ReplayError> {
    scratch.polls += 1;
    if scratch.finished[rank] || scratch.at_barrier[rank] {
        return Ok(());
    }
    let program =
        &plan.ops[plan.program_start[rank] as usize..plan.program_start[rank + 1] as usize];
    loop {
        let pc = scratch.pc[rank] as usize;
        if pc >= program.len() {
            scratch.finished[rank] = true;
            scratch.unfinished -= 1;
            return Ok(());
        }
        match program[pc] {
            Op::Compute { duration_ps } => {
                scratch.clock_ps[rank] += duration_ps;
            }
            Op::Send { dst, bytes, queue } => {
                // Injection cannot happen before the network's current
                // time (the rank may be "ahead" only in virtual terms).
                let at = scratch.clock_ps[rank].max(network.now_ps());
                let id = network.schedule_message(at, rank, dst as usize, bytes)?;
                scratch.insert_in_flight(id.0, queue);
            }
            Op::Recv { queue } => {
                let queue = queue as usize;
                if scratch.heads[queue] == scratch.tails[queue] {
                    return Ok(());
                }
                let at = plan.queue_start[queue] + scratch.heads[queue];
                let time = scratch.times[at as usize];
                scratch.heads[queue] += 1;
                scratch.clock_ps[rank] = scratch.clock_ps[rank].max(time);
            }
            Op::Barrier => {
                scratch.at_barrier[rank] = true;
                scratch.waiting += 1;
                return Ok(());
            }
        }
        scratch.pc[rank] += 1;
    }
}

/// The HashMap-keyed replay core the indexed engine replaced, kept verbatim
/// as a differential reference: the `replay_equivalence` proptest pins the
/// indexed core byte-identical to it across randomized traces, and the
/// `tracesim` bench area measures both so the speedup stays visible in the
/// committed trajectory.
pub mod reference {
    use super::{ReplayError, ReplayResult};
    use crate::network::Network;
    use crate::trace::{RankEvent, Trace};
    use std::collections::{HashMap, VecDeque};

    #[derive(Debug)]
    struct RankState {
        clock_ps: u64,
        pc: usize,
        at_barrier: bool,
        finished: bool,
    }

    /// Replay `trace` on `network` with the original HashMap-matching core.
    pub fn run<N: Network>(trace: &Trace, mut network: N) -> Result<ReplayResult, ReplayError> {
        trace.validate().map_err(ReplayError::InvalidTrace)?;
        let n = trace.num_ranks();
        let mut ranks: Vec<RankState> = (0..n)
            .map(|_| RankState {
                clock_ps: 0,
                pc: 0,
                at_barrier: false,
                finished: false,
            })
            .collect();

        // Delivered messages not yet consumed by a Recv, keyed by
        // (src, dst, tag) -> completion times in delivery order.
        let mut delivered: HashMap<(usize, usize, u32), VecDeque<u64>> = HashMap::new();
        // Messages in flight, keyed by MessageId -> (src, dst, tag).
        let mut in_flight: HashMap<u64, (usize, usize, u32)> = HashMap::new();

        loop {
            let mut progressed = true;
            while progressed {
                progressed = false;
                for rank in 0..n {
                    progressed |= progress_rank(
                        trace,
                        rank,
                        &mut ranks,
                        &mut delivered,
                        &mut in_flight,
                        &mut network,
                    )?;
                }
                let unfinished: Vec<usize> = (0..n).filter(|&r| !ranks[r].finished).collect();
                if !unfinished.is_empty() && unfinished.iter().all(|&r| ranks[r].at_barrier) {
                    let release = unfinished
                        .iter()
                        .map(|&r| ranks[r].clock_ps)
                        .max()
                        .unwrap_or(0);
                    for &r in &unfinished {
                        ranks[r].clock_ps = release;
                        ranks[r].at_barrier = false;
                        ranks[r].pc += 1;
                    }
                    progressed = true;
                }
            }

            if ranks.iter().all(|r| r.finished) {
                break;
            }

            match network.run_until_next_completion() {
                Some(completion) => {
                    #[expect(clippy::expect_used, reason = "networks complete only scheduled ids")]
                    let key = in_flight
                        .remove(&completion.id.0)
                        .expect("completion for an unknown message");
                    delivered
                        .entry(key)
                        .or_default()
                        .push_back(completion.completed_at_ps);
                }
                None => {
                    let blocked_ranks: Vec<usize> =
                        (0..n).filter(|&r| !ranks[r].finished).collect();
                    return Err(ReplayError::Deadlock { blocked_ranks });
                }
            }
        }

        let rank_finish_ps: Vec<u64> = ranks.iter().map(|r| r.clock_ps).collect();
        let completion_ps = rank_finish_ps.iter().copied().max().unwrap_or(0);
        Ok(ReplayResult {
            trace: trace.name().to_string(),
            completion_ps,
            rank_finish_ps,
            network_report: network.report(),
        })
    }

    fn progress_rank<N: Network>(
        trace: &Trace,
        rank: usize,
        ranks: &mut [RankState],
        delivered: &mut HashMap<(usize, usize, u32), VecDeque<u64>>,
        in_flight: &mut HashMap<u64, (usize, usize, u32)>,
        network: &mut N,
    ) -> Result<bool, ReplayError> {
        let program = trace.program(rank);
        let mut progressed = false;
        loop {
            let state = &mut ranks[rank];
            if state.finished || state.at_barrier {
                return Ok(progressed);
            }
            if state.pc >= program.len() {
                state.finished = true;
                return Ok(progressed);
            }
            match program[state.pc] {
                RankEvent::Compute { duration_ps } => {
                    state.clock_ps += duration_ps;
                    state.pc += 1;
                    progressed = true;
                }
                RankEvent::Send { dst, bytes, tag } => {
                    let at = state.clock_ps.max(network.now_ps());
                    let id = network.schedule_message(at, rank, dst, bytes)?;
                    in_flight.insert(id.0, (rank, dst, tag));
                    state.pc += 1;
                    progressed = true;
                }
                RankEvent::Recv { src, tag } => {
                    let key = (src, rank, tag);
                    let available = delivered.get_mut(&key).and_then(|q| q.pop_front());
                    match available {
                        Some(time) => {
                            state.clock_ps = state.clock_ps.max(time);
                            state.pc += 1;
                            progressed = true;
                        }
                        None => {
                            return Ok(progressed);
                        }
                    }
                }
                RankEvent::Barrier => {
                    state.at_barrier = true;
                    return Ok(true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RoutedNetwork;
    use xgft_core::{CompiledRouteTable, DModK};
    use xgft_netsim::{NetworkConfig, NetworkSim};
    use xgft_topo::{Xgft, XgftSpec};

    fn routed(xgft: &Xgft) -> RoutedNetwork {
        let table = CompiledRouteTable::compile_all_pairs(xgft, &DModK::new());
        RoutedNetwork::with_source(NetworkSim::new(xgft, NetworkConfig::default()), table)
    }

    #[test]
    fn ping_pong_orders_events_causally() {
        // Rank 0 sends, rank 1 receives then replies, rank 0 receives.
        let trace = Trace::new(
            "ping-pong",
            vec![
                vec![
                    RankEvent::Send {
                        dst: 1,
                        bytes: 4096,
                        tag: 0,
                    },
                    RankEvent::Recv { src: 1, tag: 1 },
                ],
                vec![
                    RankEvent::Recv { src: 0, tag: 0 },
                    RankEvent::Send {
                        dst: 0,
                        bytes: 4096,
                        tag: 1,
                    },
                ],
            ],
        );
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
        let result = ReplayEngine::new(&trace).run(routed(&xgft)).unwrap();
        // The reply can only start after the request arrives, so the total
        // time is at least twice the one-way time of a 4 KB message.
        let one_way = {
            let mut sim = NetworkSim::new(&xgft, NetworkConfig::default());
            sim.schedule_message(0, 0, 1, 4096, xgft_topo::Route::new(vec![0]));
            sim.run_to_completion().makespan_ps
        };
        assert!(result.completion_ps >= 2 * one_way);
        assert_eq!(result.rank_finish_ps.len(), 2);
        assert_eq!(result.network_report.completed_messages, 2);
    }

    #[test]
    fn compute_time_delays_injection() {
        let trace = Trace::new(
            "compute-then-send",
            vec![
                vec![
                    RankEvent::Compute {
                        duration_ps: 1_000_000,
                    },
                    RankEvent::Send {
                        dst: 1,
                        bytes: 1024,
                        tag: 0,
                    },
                ],
                vec![RankEvent::Recv { src: 0, tag: 0 }],
            ],
        );
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(2, 2)).unwrap();
        let result = ReplayEngine::new(&trace).run(routed(&xgft)).unwrap();
        assert!(result.completion_ps > 1_000_000);
        assert!(result.rank_finish_ps[1] > 1_000_000);
        assert!(result.completion_ms() > 0.0);
    }

    #[test]
    fn barrier_synchronises_ranks() {
        let trace = Trace::new(
            "barrier",
            vec![
                vec![
                    RankEvent::Compute {
                        duration_ps: 5_000_000,
                    },
                    RankEvent::Barrier,
                ],
                vec![RankEvent::Barrier],
            ],
        );
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(2, 2)).unwrap();
        let result = ReplayEngine::new(&trace).run(routed(&xgft)).unwrap();
        assert_eq!(result.completion_ps, 5_000_000);
        assert_eq!(result.rank_finish_ps[0], result.rank_finish_ps[1]);
    }

    #[test]
    fn deadlock_is_detected() {
        // A circular wait: both ranks receive before they send. Every Recv
        // has a matching Send somewhere, so the static validator accepts the
        // trace, but causally neither message can ever be injected.
        let trace = Trace::new(
            "deadlock",
            vec![
                vec![
                    RankEvent::Recv { src: 1, tag: 1 },
                    RankEvent::Send {
                        dst: 1,
                        bytes: 64,
                        tag: 0,
                    },
                ],
                vec![
                    RankEvent::Recv { src: 0, tag: 0 },
                    RankEvent::Send {
                        dst: 0,
                        bytes: 64,
                        tag: 1,
                    },
                ],
            ],
        );
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(2, 2)).unwrap();
        let err = ReplayEngine::new(&trace).run(routed(&xgft)).unwrap_err();
        match err {
            ReplayError::Deadlock { blocked_ranks } => {
                assert!(blocked_ranks.contains(&0) && blocked_ranks.contains(&1));
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn missing_route_surfaces_as_a_typed_replay_error() {
        // The table only covers (0, 1); the trace also sends 0 -> 9.
        let trace = Trace::new(
            "partial-table",
            vec![
                vec![
                    RankEvent::Send {
                        dst: 1,
                        bytes: 1024,
                        tag: 0,
                    },
                    RankEvent::Send {
                        dst: 9,
                        bytes: 1024,
                        tag: 0,
                    },
                ],
                vec![RankEvent::Recv { src: 0, tag: 0 }],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![RankEvent::Recv { src: 0, tag: 0 }],
            ],
        );
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
        let table = CompiledRouteTable::compile(&xgft, &DModK::new(), vec![(0, 1)]);
        let net =
            RoutedNetwork::with_source(NetworkSim::new(&xgft, NetworkConfig::default()), table);
        let err = ReplayEngine::new(&trace).run(net).unwrap_err();
        assert_eq!(
            err,
            ReplayError::Network(crate::network::NetworkError::MissingRoute { src: 0, dst: 9 })
        );
        assert!(err.to_string().contains("no route"));
    }

    #[test]
    fn invalid_trace_is_rejected_before_running() {
        let trace = Trace::new("bad", vec![vec![RankEvent::Recv { src: 0, tag: 0 }]]);
        let err = ReplayEngine::new(&trace)
            .run(RoutedNetwork::crossbar(4, &NetworkConfig::default()).unwrap())
            .unwrap_err();
        assert!(matches!(err, ReplayError::InvalidTrace(_)));
    }

    #[test]
    fn crossbar_is_never_slower_than_the_tree() {
        // A fan-in pattern: completion on the ideal crossbar lower-bounds the
        // slimmed tree. One borrowed engine drives both networks, recycling
        // its scratch state between the runs.
        let mut programs = vec![vec![]; 8];
        for s in 1..8usize {
            programs[s].push(RankEvent::Send {
                dst: 0,
                bytes: 32 * 1024,
                tag: 0,
            });
            programs[0].push(RankEvent::Recv { src: s, tag: 0 });
        }
        let trace = Trace::new("fan-in", programs);
        let xgft = Xgft::new(XgftSpec::new(vec![4, 2], vec![1, 1]).unwrap()).unwrap();
        let mut engine = ReplayEngine::new(&trace);
        let tree_result = engine.run(routed(&xgft)).unwrap();
        let xbar_result = engine
            .run(RoutedNetwork::crossbar(8, &NetworkConfig::default()).unwrap())
            .unwrap();
        assert!(tree_result.completion_ps >= xbar_result.completion_ps);
        assert!(xbar_result.completion_ps > 0);
    }

    #[test]
    fn out_of_order_tags_match_by_queue_not_delivery_order() {
        // Rank 0 sends a large tag-1 message then a small tag-0 message; the
        // small one is scheduled later but both are posted before rank 1
        // receives. Rank 1 consumes tag 0 first: the match must go by
        // (src, dst, tag) queue, never by arrival order.
        let trace = Trace::new(
            "tag-order",
            vec![
                vec![
                    RankEvent::Send {
                        dst: 1,
                        bytes: 256 * 1024,
                        tag: 1,
                    },
                    RankEvent::Send {
                        dst: 1,
                        bytes: 64,
                        tag: 0,
                    },
                ],
                vec![
                    RankEvent::Recv { src: 0, tag: 0 },
                    RankEvent::Recv { src: 0, tag: 1 },
                ],
            ],
        );
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(2, 2)).unwrap();
        let mut engine = ReplayEngine::new(&trace);
        let result = engine.run(routed(&xgft)).unwrap();
        let expected = reference::run(&trace, routed(&xgft)).unwrap();
        assert_eq!(result, expected);
        // The tag-0 receive completes at the small message's delivery, which
        // lands well before the large tag-1 transfer finishes.
        assert!(result.rank_finish_ps[1] > 0);
    }

    #[test]
    fn scratch_reset_then_replay_is_byte_identical() {
        // The same engine run twice (scratch recycled) must reproduce the
        // first result exactly, and match the HashMap reference core.
        let trace = crate::workloads::trace_from_pattern(
            &xgft_patterns::generators::wrf_mesh_exchange(4, 4, 8 * 1024).unwrap(),
            0,
        );
        let xgft = Xgft::new(XgftSpec::k_ary_n_tree(4, 2)).unwrap();
        let mut engine = ReplayEngine::new(&trace);
        let first = engine.run(routed(&xgft)).unwrap();
        let second = engine.run(routed(&xgft)).unwrap();
        assert_eq!(first, second);
        let reference = reference::run(&trace, routed(&xgft)).unwrap();
        assert_eq!(first, reference);
    }

    #[test]
    fn a_delivery_wakes_only_its_receiver() {
        // 1024 ranks: a sweep of every rank per delivery would cost at
        // least 1024 polls each. Waking only the receiver costs one poll
        // per delivery, plus one sweep per barrier release.
        let trace = crate::workloads::trace_from_pattern(
            &xgft_patterns::generators::cg_d(1024, 8192).unwrap(),
            0,
        );
        let xgft = Xgft::new(XgftSpec::slimmed_two_level(32, 32).unwrap()).unwrap();
        let mut engine = ReplayEngine::new(&trace);
        let result = engine.run(routed(&xgft)).unwrap();
        let deliveries = engine.scratch.deliveries;
        assert_eq!(deliveries, result.network_report.completed_messages as u64);
        let polls_per_delivery = engine.scratch.polls as f64 / deliveries as f64;
        assert!(
            polls_per_delivery < 2.0,
            "{polls_per_delivery:.2} polls per delivery"
        );
    }

    /// A toy network that recycles message-id slots across completions with
    /// a bumped generation — the in-flight slab must match entries by
    /// (slot, generation), exactly like netsim's `MessageSlab`.
    struct RecyclingNet {
        pending: std::collections::VecDeque<(u64, u64)>, // (id, completes_at)
        generation: u64,
        now_ps: u64,
    }

    impl crate::network::Network for RecyclingNet {
        fn schedule_message(
            &mut self,
            at_ps: u64,
            src: usize,
            dst: usize,
            bytes: u64,
        ) -> Result<xgft_netsim::MessageId, crate::network::NetworkError> {
            let _ = (src, dst);
            // One slot (0), recycled under a fresh generation per message.
            let id = self.generation << 32;
            self.generation += 1;
            self.pending.push_back((id, at_ps + bytes));
            Ok(xgft_netsim::MessageId(id))
        }

        fn run_until_next_completion(&mut self) -> Option<xgft_netsim::sim::Completion> {
            let (id, at) = self.pending.pop_front()?;
            self.now_ps = self.now_ps.max(at);
            Some(xgft_netsim::sim::Completion {
                id: xgft_netsim::MessageId(id),
                src: 0,
                dst: 1,
                bytes: 1,
                completed_at_ps: at,
            })
        }

        fn now_ps(&self) -> u64 {
            self.now_ps
        }

        fn report(&self) -> SimReport {
            SimReport::default()
        }
    }

    #[test]
    fn in_flight_slab_matches_recycled_slots_by_generation() {
        // Three sequential round-trips over the same slot: each Recv must
        // match the completion of its own generation.
        // Rank 0 self-sends: each Send posts into queue (0, 0, 0) and the
        // following Recv consumes it, so completions interleave with sends
        // and the toy net's single slot is recycled three times.
        let trace = Trace::new(
            "recycled-slots",
            vec![vec![
                RankEvent::Send {
                    dst: 0,
                    bytes: 10,
                    tag: 0,
                },
                RankEvent::Recv { src: 0, tag: 0 },
                RankEvent::Send {
                    dst: 0,
                    bytes: 20,
                    tag: 0,
                },
                RankEvent::Recv { src: 0, tag: 0 },
                RankEvent::Send {
                    dst: 0,
                    bytes: 30,
                    tag: 0,
                },
                RankEvent::Recv { src: 0, tag: 0 },
            ]],
        );
        let net = RecyclingNet {
            pending: std::collections::VecDeque::new(),
            generation: 0,
            now_ps: 0,
        };
        let result = ReplayEngine::new(&trace).run(net).unwrap();
        // Completion times accumulate 10, 20, 30 → the final clock is 60.
        assert_eq!(result.completion_ps, 60);
    }
}
