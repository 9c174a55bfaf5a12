//! The event-driven network simulator.
//!
//! See the crate-level docs for the model. The simulator is deterministic:
//! identical inputs (topology, config, schedule of messages, routes and
//! failure events) produce identical timings.
//!
//! ## Channel failures
//!
//! [`NetworkSim::fail_channel`] schedules a directed channel to die mid-run.
//! From the failure instant on, the channel's traffic is handled per
//! [`FailurePolicy`]: messages injected *before* the failure either drain
//! over the dead channel (`CompleteInFlight` — the lossless
//! "drain-then-cut" model) or are dropped at it (`Drop` — the lossy model);
//! messages injected at or after the failure whose fixed path still crosses
//! the dead channel are always dropped there, because a correctly patched
//! route table would never have sent them that way. Dropped messages
//! release every buffer credit they hold (so unrelated flows keep moving),
//! never complete, and are counted in [`SimReport::dropped_messages`].
//!
//! [`NetworkSim::repair_channel`] is the inverse: from the repair instant
//! on, the channel serves traffic normally again. Credits need no explicit
//! restoration — a failed channel never takes credits for dropped traffic
//! (segments drop *before* queueing) and every credit taken by draining
//! in-flight traffic returns through the ordinary `Event::CreditReturn`
//! flow — so a repaired channel starts with its full buffer once the
//! pre-failure traffic has drained. Messages dropped while the channel was
//! dead stay dropped; a fail → repair → inject cycle delivers the fresh
//! message with pristine latency.

use crate::batch::InjectionBatch;
use crate::config::{NetworkConfig, SwitchingMode};
use crate::event::{Event, EventQueue};
use crate::message::{MessageId, MessageSlab, MessageStatus, Segment};
use crate::stats::{MessageRecord, SimReport};
use std::collections::VecDeque;
use xgft_topo::{Route, Xgft};

/// A delivered-message notification returned by
/// [`NetworkSim::run_until_next_completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The delivered message.
    pub id: MessageId,
    /// Source leaf of the message.
    pub src: usize,
    /// Destination leaf of the message.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Delivery time in picoseconds.
    pub completed_at_ps: u64,
}

/// What happens to traffic that meets a failed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Messages injected before the failure still traverse the channel (it
    /// drains in-flight traffic); only later injections drop at it.
    CompleteInFlight,
    /// Every segment that reaches the channel from the failure instant on
    /// is lost, and queued segments are flushed immediately.
    Drop,
}

/// Per-directed-channel simulation state.
#[derive(Debug, Clone)]
struct ChannelState {
    /// Earliest time the link can start another transmission.
    free_at_ps: u64,
    /// Remaining downstream input-buffer slots (segments).
    credits: usize,
    /// Segments waiting at the upstream side of the channel, FIFO.
    waiting: VecDeque<Segment>,
    /// Accumulated busy (transmitting) time for utilization statistics.
    busy_ps: u64,
    /// Largest waiting-queue depth observed.
    max_queue: usize,
    /// Failure instant and policy, once the channel has died.
    failed: Option<(u64, FailurePolicy)>,
}

/// Per-source-adapter state: the active messages interleaved round-robin at
/// segment granularity.
#[derive(Debug, Clone, Default)]
struct AdapterState {
    /// Messages with segments still to inject, in round-robin order.
    active: VecDeque<MessageId>,
    /// True while one segment of this adapter sits in the injection queue
    /// waiting to start (only one is enqueued at a time so the round-robin
    /// decision is taken as late as possible).
    segment_enqueued: bool,
}

/// The event-driven simulator for one XGFT instance.
#[derive(Debug)]
pub struct NetworkSim {
    xgft: Xgft,
    config: NetworkConfig,
    now_ps: u64,
    queue: EventQueue,
    channels: Vec<ChannelState>,
    adapters: Vec<AdapterState>,
    /// Struct-of-arrays message store keyed by [`MessageId::slot`] (see
    /// [`MessageSlab`]): every hot-path access is a column index, drained
    /// slots are recycled under bumped generations so stale ids never alias
    /// a slot's next occupant.
    messages: MessageSlab,
    dropped_messages: usize,
    completions: VecDeque<Completion>,
    records: Vec<MessageRecord>,
    events_processed: u64,
    /// Serialization time of one full segment — cached because `try_start`
    /// pays it once per segment per hop and `NetworkConfig::serialization_ps`
    /// does float math.
    seg_full_ps: u64,
    /// Serialization time of one flit (the cut-through eligibility term).
    flit_ps: u64,
    /// Switch traversal latency in picoseconds.
    switch_ps: u64,
}

impl NetworkSim {
    /// Create a simulator for a topology with the given configuration.
    ///
    /// # Panics
    /// Panics if `config.segment_bytes` exceeds `u32::MAX`: queued events
    /// carry a segment's size as `u32`.
    pub fn new(xgft: &Xgft, config: NetworkConfig) -> Self {
        assert!(
            config.segment_bytes <= u64::from(u32::MAX),
            "segment_bytes must be at most {} (segments carry their size as u32), got {}",
            u32::MAX,
            config.segment_bytes
        );
        let num_channels = xgft.channels().len();
        let channels = vec![
            ChannelState {
                free_at_ps: 0,
                credits: config.input_buffer_segments.max(1),
                waiting: VecDeque::new(),
                busy_ps: 0,
                max_queue: 0,
                failed: None,
            };
            num_channels
        ];
        let adapters = vec![AdapterState::default(); xgft.num_leaves()];
        let seg_full_ps = config.segment_serialization_ps();
        let flit_ps = config.serialization_ps(config.flit_bytes);
        let switch_ps = config.switch_latency_ps();
        NetworkSim {
            xgft: xgft.clone(),
            config,
            now_ps: 0,
            queue: EventQueue::new(),
            channels,
            adapters,
            messages: MessageSlab::new(),
            dropped_messages: 0,
            completions: VecDeque::new(),
            records: Vec::new(),
            events_processed: 0,
            seg_full_ps,
            flit_ps,
            switch_ps,
        }
    }

    /// Reclaim the simulator for a fresh run without reallocating: the
    /// event-queue ring, message slab columns, path arena, channel queues
    /// and adapter state are all emptied in place but keep their capacity.
    ///
    /// A reset simulator is behaviourally byte-identical to
    /// `NetworkSim::new(xgft, config)` — same event order, same minted
    /// [`MessageId`]s, same report — which is what lets campaign shards
    /// build one simulator and replay every seed/epoch into it (pinned by
    /// the `reset_is_byte_identical_to_a_fresh_simulator` test and the
    /// campaign golden fixtures).
    pub fn reset(&mut self) {
        self.now_ps = 0;
        self.queue.clear();
        let credits = self.config.input_buffer_segments.max(1);
        for channel in &mut self.channels {
            channel.free_at_ps = 0;
            channel.credits = credits;
            channel.waiting.clear();
            channel.busy_ps = 0;
            channel.max_queue = 0;
            channel.failed = None;
        }
        for adapter in &mut self.adapters {
            adapter.active.clear();
            adapter.segment_enqueued = false;
        }
        self.messages.clear();
        self.dropped_messages = 0;
        self.completions.clear();
        self.records.clear();
        self.events_processed = 0;
    }

    /// Current simulation time in picoseconds.
    pub fn now_ps(&self) -> u64 {
        self.now_ps
    }

    /// The configuration in use.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The topology being simulated.
    pub fn xgft(&self) -> &Xgft {
        &self.xgft
    }

    /// Number of live (not yet drained) messages the simulator tracks.
    pub fn num_messages(&self) -> usize {
        self.messages.live_count()
    }

    /// Serialization time of a segment of `bytes` bytes — the cached
    /// full-segment constant on the hot path (every segment except possibly
    /// a message's last is full-sized), the float fallback otherwise.
    #[inline]
    fn serialization(&self, bytes: u64) -> u64 {
        if bytes == self.config.segment_bytes {
            self.seg_full_ps
        } else {
            self.config.serialization_ps(bytes)
        }
    }

    /// Status of a message. Returns `None` once the message has been
    /// drained — *permanently*: the id carries its slot's generation tag,
    /// so even after the slot is recycled by a later
    /// [`NetworkSim::schedule_message`] the stale id keeps resolving to
    /// `None` instead of aliasing the new occupant.
    pub fn message_status(&self, id: MessageId) -> Option<MessageStatus> {
        if !self.messages.id_is_current(id) {
            return None;
        }
        Some(self.messages.status(id.slot()))
    }

    /// Recycle the slots of finished (delivered or dropped) messages whose
    /// [`Completion`]s have already been consumed and none of whose segments
    /// is still in the network, returning how many were drained. A dropped
    /// message whose stragglers are still travelling stays until a later
    /// drain. Each freed slot's generation is bumped, so the drained ids
    /// stay dead forever even after the slot is reused; per-message
    /// [`MessageRecord`]s already emitted are unaffected. Long seed
    /// campaigns call this between phases to keep the slab bounded.
    pub fn drain_delivered(&mut self) -> usize {
        let mut pending: Vec<u64> = self.completions.iter().map(|c| c.id.0).collect();
        pending.sort_unstable();
        self.messages.drain_finished(&pending)
    }

    /// True when no events are pending and no completions are waiting to be
    /// consumed.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.completions.is_empty()
    }

    /// Schedule the directed channel with dense index `channel` to fail at
    /// absolute time `at_ps`; traffic meeting the dead channel is handled
    /// per `policy` (see the module docs for the exact semantics).
    ///
    /// # Panics
    /// Panics if `channel` is out of range or `at_ps` lies in the past.
    pub fn fail_channel(&mut self, at_ps: u64, channel: usize, policy: FailurePolicy) {
        assert!(channel < self.channels.len(), "channel index out of range");
        assert!(
            at_ps >= self.now_ps,
            "cannot fail a channel in the past ({} < {})",
            at_ps,
            self.now_ps
        );
        self.queue.push(
            at_ps,
            Event::ChannelFail {
                channel: channel as u32,
                policy,
            },
        );
    }

    /// Schedule the directed channel with dense index `channel` to return to
    /// service at absolute time `at_ps`. Repairing a live channel is a
    /// no-op, so a repair may be scheduled unconditionally alongside the
    /// failure it undoes. Traffic dropped while the channel was dead stays
    /// dropped; from the repair instant on the channel behaves exactly like
    /// a pristine one (see the module docs for why credits need no explicit
    /// restoration).
    ///
    /// # Panics
    /// Panics if `channel` is out of range or `at_ps` lies in the past.
    pub fn repair_channel(&mut self, at_ps: u64, channel: usize) {
        assert!(channel < self.channels.len(), "channel index out of range");
        assert!(
            at_ps >= self.now_ps,
            "cannot repair a channel in the past ({} < {})",
            at_ps,
            self.now_ps
        );
        self.queue.push(
            at_ps,
            Event::ChannelRepair {
                channel: channel as u32,
            },
        );
    }

    /// True once `channel` has failed (at or before the current time).
    pub fn channel_is_failed(&self, channel: usize) -> bool {
        self.channels[channel].failed.is_some()
    }

    /// Number of messages dropped at failed channels so far.
    pub fn dropped_messages(&self) -> usize {
        self.dropped_messages
    }

    /// Schedule a message for injection at absolute time `at_ps`
    /// (picoseconds, must not be in the simulator's past). The route must be
    /// valid for `(src, dst)` on this topology.
    ///
    /// Messages with `src == dst` complete instantaneously at `at_ps`
    /// (local copies never enter the network).
    ///
    /// # Panics
    /// Panics if `bytes == 0`, if `at_ps` lies in the past, or if the route
    /// is invalid for the pair.
    pub fn schedule_message(
        &mut self,
        at_ps: u64,
        src: usize,
        dst: usize,
        bytes: u64,
        route: Route,
    ) -> MessageId {
        if src == dst {
            return self.schedule_on_channels(at_ps, src, dst, bytes, &[]);
        }
        self.xgft
            .validate_route(src, dst, &route)
            .expect("scheduled messages must carry a valid route");
        let path = self
            .xgft
            .route_channels(src, dst, &route)
            .expect("valid route expands to a path");
        let path: Vec<u32> = path.into_iter().map(|c| c as u32).collect();
        self.schedule_on_channels(at_ps, src, dst, bytes, &path)
    }

    /// Schedule a message whose dense channel path has been precomputed by a
    /// `xgft_core::CompiledRouteTable`-style build step — the hot injection
    /// entry: no route validation, no label arithmetic, just one copy of the
    /// path into the slab's shared arena. The path must come from
    /// `Xgft::route_channels` for `(src, dst)` on this topology (debug builds
    /// check the channel indices are in range).
    ///
    /// # Panics
    /// Panics if `bytes == 0`, if `at_ps` lies in the past, or if a non-empty
    /// path is supplied for `src == dst` (or an empty one for `src != dst`).
    pub fn schedule_message_on_path(
        &mut self,
        at_ps: u64,
        src: usize,
        dst: usize,
        bytes: u64,
        path: &[u32],
    ) -> MessageId {
        assert!(
            (src == dst) == path.is_empty(),
            "path length must match the pair: {} hops for ({src}, {dst})",
            path.len()
        );
        let num_channels = self.channels.len();
        debug_assert!(
            path.iter().all(|&c| (c as usize) < num_channels),
            "path contains out-of-range channel indices"
        );
        self.schedule_on_channels(at_ps, src, dst, bytes, path)
    }

    /// Admit a whole pre-lowered [`InjectionBatch`] in ascending-`at_ps`
    /// order (stable for ties) and return the per-entry ids *in the batch's
    /// push order*. Bit-identical to calling
    /// [`NetworkSim::schedule_message_on_path`] yourself in that time order:
    /// same slab slots, same event sequence numbers, same report — batching
    /// saves the per-call route lowering, not determinism.
    ///
    /// # Panics
    /// Panics under the same conditions as `schedule_message_on_path` for
    /// any entry.
    pub fn schedule_batch(&mut self, batch: &InjectionBatch) -> Vec<MessageId> {
        let order = batch.time_order();
        let mut ids = vec![MessageId(0); batch.len()];
        for &i in &order {
            let i = i as usize;
            let e = batch.entry(i);
            ids[i] = self.schedule_message_on_path(
                e.at_ps,
                e.src as usize,
                e.dst as usize,
                e.bytes,
                batch.path(i),
            );
        }
        xgft_obs::global()
            .counter("netsim.batch_messages")
            .add(batch.len() as u64);
        ids
    }

    /// Common scheduling tail shared by the route, precompiled-path and
    /// batch entry points. An empty path means a local copy (`src == dst`).
    fn schedule_on_channels(
        &mut self,
        at_ps: u64,
        src: usize,
        dst: usize,
        bytes: u64,
        path: &[u32],
    ) -> MessageId {
        assert!(bytes > 0, "messages must carry at least one byte");
        assert!(
            at_ps >= self.now_ps,
            "cannot schedule a message in the past ({} < {})",
            at_ps,
            self.now_ps
        );

        if path.is_empty() {
            // Local copy: completes immediately without entering the network.
            let id = self
                .messages
                .alloc(src, dst, bytes, at_ps, 0, &[], Some(at_ps));
            self.completions.push_back(Completion {
                id,
                src,
                dst,
                bytes,
                completed_at_ps: at_ps,
            });
            self.records.push(MessageRecord {
                id,
                src,
                dst,
                bytes,
                injected_at_ps: at_ps,
                completed_at_ps: at_ps,
            });
            return id;
        }

        let total_segments = self.config.num_segments(bytes);
        let id = self
            .messages
            .alloc(src, dst, bytes, at_ps, total_segments, path, None);
        self.adapters[src].active.push_back(id);
        self.queue
            .push(at_ps, Event::AdapterTryInject { src: src as u32 });
        id
    }

    /// Process events until the next message completes; returns `None` when
    /// the event queue drains without producing a completion.
    pub fn run_until_next_completion(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.completions.pop_front() {
                return Some(c);
            }
            if !self.step() {
                return self.completions.pop_front();
            }
        }
    }

    /// Run until every scheduled message has been delivered and produce the
    /// final report.
    pub fn run_to_completion(&mut self) -> SimReport {
        xgft_obs::span!("netsim.run");
        let events_before = self.events_processed;
        let records_before = self.records.len();
        let dropped_before = self.dropped_messages;
        let days_before = (self.queue.days(), self.queue.days_adopted());
        while self.step() {}
        self.completions.clear();
        let report = self.report();
        // Bulk-record this run's deltas after the event loop (never inside
        // it): repeated runs on one simulator only count new work.
        let metrics = xgft_obs::global();
        metrics
            .counter("netsim.events")
            .add(self.events_processed - events_before);
        metrics
            .counter("netsim.days")
            .add(self.queue.days() - days_before.0);
        metrics
            .counter("netsim.days_adopted")
            .add(self.queue.days_adopted() - days_before.1);
        metrics
            .counter("netsim.delivered")
            .add((self.records.len() - records_before) as u64);
        metrics
            .counter("netsim.dropped")
            .add((self.dropped_messages - dropped_before) as u64);
        metrics
            .gauge("netsim.queue_depth")
            .set_max(report.max_queue_depth as u64);
        metrics
            .gauge("netsim.event_queue_hwm")
            .set_max(report.event_queue_hwm as u64);
        let latency = metrics.histogram("netsim.delivery_latency_ps");
        for record in &self.records[records_before..] {
            latency.record(record.latency_ps());
        }
        report
    }

    /// Accumulated busy (transmitting) time of every directed channel so
    /// far, indexed by the dense channel index of
    /// [`xgft_topo::ChannelTable`]. With equal-sized messages a channel's
    /// busy time is exactly proportional to the number of flows serialized
    /// through it, which is what the `xgft-flow` analytical model predicts —
    /// the cross-validation hooks compare the two shapes directly.
    pub fn channel_busy_ps(&self) -> Vec<u64> {
        self.channels.iter().map(|c| c.busy_ps).collect()
    }

    /// Produce a report of what has been delivered so far.
    pub fn report(&self) -> SimReport {
        let makespan = self
            .records
            .iter()
            .map(|r| r.completed_at_ps)
            .max()
            .unwrap_or(0);
        let max_queue_depth = self.channels.iter().map(|c| c.max_queue).max().unwrap_or(0);
        let max_busy = self.channels.iter().map(|c| c.busy_ps).max().unwrap_or(0);
        SimReport {
            completed_messages: self.records.len(),
            dropped_messages: self.dropped_messages,
            total_bytes: self.records.iter().map(|r| r.bytes).sum(),
            makespan_ps: makespan,
            messages: self.records.clone(),
            max_queue_depth,
            max_channel_utilization: if makespan == 0 {
                0.0
            } else {
                max_busy as f64 / makespan as f64
            },
            events_processed: self.events_processed,
            event_queue_hwm: self.queue.high_water(),
        }
    }

    /// Process a single event. Returns false when the queue is empty.
    fn step(&mut self) -> bool {
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now_ps, "event time must not go backwards");
        self.now_ps = time;
        self.events_processed += 1;
        match event {
            Event::AdapterTryInject { src } => self.adapter_try_inject(src as usize),
            Event::SegmentArrived { segment, channel } => {
                self.segment_arrived(segment, channel as usize)
            }
            Event::SegmentReadyForNextHop { segment } => self.segment_ready(segment),
            Event::CreditReturn { channel } => {
                self.channels[channel as usize].credits += 1;
                self.try_start(channel as usize);
            }
            Event::ChannelFail { channel, policy } => self.channel_fail(channel as usize, policy),
            Event::ChannelRepair { channel } => self.channel_repair(channel as usize),
        }
        true
    }

    /// The channel dies now. Under [`FailurePolicy::Drop`] its waiting
    /// queue is flushed immediately; under
    /// [`FailurePolicy::CompleteInFlight`] queued segments (necessarily from
    /// pre-failure messages) keep draining.
    fn channel_fail(&mut self, channel: usize, policy: FailurePolicy) {
        let state = &mut self.channels[channel];
        if state.failed.is_some() {
            return; // idempotent: the first failure wins
        }
        state.failed = Some((self.now_ps, policy));
        if xgft_obs::trace_enabled() {
            xgft_obs::trace(
                "channel_failed",
                &[
                    ("channel", channel.into()),
                    ("at_ps", self.now_ps.into()),
                    ("policy", format!("{policy:?}").into()),
                ],
            );
        }
        if policy == FailurePolicy::Drop {
            let flushed: Vec<Segment> = self.channels[channel].waiting.drain(..).collect();
            for segment in flushed {
                self.drop_segment(segment);
            }
        }
    }

    /// The channel returns to service now. Idempotent — repairing a live
    /// channel is a no-op. The waiting queue can only hold segments the
    /// failure policy lets drain, so a poke of `try_start` resumes them and
    /// nothing else needs fixing up.
    fn channel_repair(&mut self, channel: usize) {
        let state = &mut self.channels[channel];
        if state.failed.is_none() {
            return;
        }
        state.failed = None;
        if xgft_obs::trace_enabled() {
            xgft_obs::trace(
                "channel_repaired",
                &[("channel", channel.into()), ("at_ps", self.now_ps.into())],
            );
        }
        self.try_start(channel);
    }

    /// Lose `segment` at a dead channel: return the buffer credit it holds,
    /// let its source adapter move on, mark its message dropped and stop
    /// injecting the message's remaining segments.
    fn drop_segment(&mut self, segment: Segment) {
        if let Some(prev) = segment.holds_buffer_of() {
            self.queue.push(
                self.now_ps,
                Event::CreditReturn {
                    channel: prev as u32,
                },
            );
        }
        let id = segment.message;
        let slot = id.slot();
        let now_ps = self.now_ps;
        let first_drop = self.messages.mark_dropped(slot, now_ps);
        let src = self.messages.src(slot);
        if segment.hop == 0 {
            // The segment sat in the injection queue; free the adapter's
            // round-robin slot so its other messages keep flowing.
            self.adapters[src].segment_enqueued = false;
            self.queue
                .push(now_ps, Event::AdapterTryInject { src: src as u32 });
        }
        if first_drop {
            self.dropped_messages += 1;
            self.adapters[src].active.retain(|&m| m != id);
        }
    }

    /// Hand the next segment (round-robin over active messages) of adapter
    /// `src` to its injection channel.
    ///
    /// A message scheduled for a future `at_ps` sits in the active set from
    /// scheduling time but is not *eligible* until the simulation clock
    /// reaches its injection time — its own `AdapterTryInject` event pokes
    /// the adapter then. Skipped messages keep their queue position, so the
    /// round-robin order among eligible messages never depends on when
    /// future traffic was announced.
    fn adapter_try_inject(&mut self, src: usize) {
        if self.adapters[src].segment_enqueued {
            return;
        }
        let now_ps = self.now_ps;
        let Some(eligible) = self.adapters[src]
            .active
            .iter()
            .position(|&m| self.messages.injected_at_ps(m.slot()) <= now_ps)
        else {
            return;
        };
        let id = self.adapters[src]
            .active
            .remove(eligible)
            .expect("in range");
        let slot = id.slot();
        debug_assert!(self.messages.id_is_current(id));
        let index = self.messages.next_segment_index(slot);
        let bytes = self.config.segment_size(self.messages.bytes(slot), index);
        let segment = Segment::new(id, index, bytes, 0);
        let injection_channel = self.messages.path_channel(slot, 0);
        if !self.messages.fully_injected(slot) {
            // Round-robin: this message goes to the back of the adapter queue.
            self.adapters[src].active.push_back(id);
        }
        self.adapters[src].segment_enqueued = true;
        self.enqueue_segment(segment, injection_channel);
    }

    /// Queue a segment at the upstream side of `channel` and poke the
    /// channel. Segments meeting a failed channel are dropped unless the
    /// policy lets pre-failure messages drain.
    fn enqueue_segment(&mut self, segment: Segment, channel: usize) {
        if let Some((failed_at, policy)) = self.channels[channel].failed {
            let drains = policy == FailurePolicy::CompleteInFlight
                && self.messages.injected_at_ps(segment.message.slot()) < failed_at;
            if !drains {
                self.drop_segment(segment);
                return;
            }
        }
        let ch = &mut self.channels[channel];
        if ch.credits > 0 && ch.waiting.is_empty() {
            // Fast path: the segment would be pushed and immediately popped
            // by `try_start` — skip the queue round-trip. Accounting is
            // identical: the pass-through segment still registers as a
            // momentary queue depth of one.
            ch.credits -= 1;
            ch.max_queue = ch.max_queue.max(1);
            self.start_transmission(segment, channel);
            return;
        }
        ch.waiting.push_back(segment);
        ch.max_queue = ch.max_queue.max(ch.waiting.len());
        self.try_start(channel);
    }

    /// Start as many waiting transmissions on `channel` as credits allow.
    fn try_start(&mut self, channel: usize) {
        loop {
            let segment = {
                let ch = &mut self.channels[channel];
                if ch.waiting.is_empty() || ch.credits == 0 {
                    return;
                }
                ch.credits -= 1;
                ch.waiting.pop_front().expect("non-empty")
            };
            self.start_transmission(segment, channel);
        }
    }

    /// Put `segment` on the wire of `channel`: the caller has already taken
    /// a credit for it.
    fn start_transmission(&mut self, segment: Segment, channel: usize) {
        let serialization = self.serialization(segment.bytes as u64);
        let (start, finish) = {
            let ch = &mut self.channels[channel];
            let start = self.now_ps.max(ch.free_at_ps);
            let finish = start + serialization;
            ch.free_at_ps = finish;
            ch.busy_ps += serialization;
            (start, finish)
        };

        // The slot the segment held on its previous channel frees when it
        // starts moving onto this one.
        if let Some(prev) = segment.holds_buffer_of() {
            self.queue.push(
                start,
                Event::CreditReturn {
                    channel: prev as u32,
                },
            );
        }
        // The source adapter can decide its next round-robin segment as
        // soon as this one starts occupying the injection link.
        if segment.hop == 0 {
            let src = self.messages.src(segment.message.slot());
            self.adapters[src].segment_enqueued = false;
            self.queue
                .push(start, Event::AdapterTryInject { src: src as u32 });
        }

        let is_last_hop =
            segment.hop as usize + 1 == self.messages.path_hops(segment.message.slot());
        let mut moved = segment;
        moved.set_holds_buffer_of(channel);

        if is_last_hop {
            self.queue.push(
                finish,
                Event::SegmentArrived {
                    segment: moved,
                    channel: channel as u32,
                },
            );
        } else {
            moved.hop += 1;
            let eligible = match self.config.switching {
                SwitchingMode::StoreAndForward => finish + self.switch_ps,
                SwitchingMode::CutThrough => start + self.flit_ps + self.switch_ps,
            };
            self.queue
                .push(eligible, Event::SegmentReadyForNextHop { segment: moved });
        }
    }

    /// A segment has crossed its switch and is ready for the next channel of
    /// its path.
    fn segment_ready(&mut self, segment: Segment) {
        let next_channel = self
            .messages
            .path_channel(segment.message.slot(), segment.hop as usize);
        self.enqueue_segment(segment, next_channel);
    }

    /// A segment has fully arrived at the destination adapter.
    fn segment_arrived(&mut self, segment: Segment, channel: usize) {
        // The destination adapter drains its ejection buffer immediately.
        self.queue.push(
            self.now_ps,
            Event::CreditReturn {
                channel: channel as u32,
            },
        );
        let slot = segment.message.slot();
        let now_ps = self.now_ps;
        let last = self.messages.deliver_segment(slot);
        if last && self.messages.dropped_at(slot).is_none() {
            self.messages.set_completed(slot, now_ps);
            let (src, dst) = (self.messages.src(slot), self.messages.dst(slot));
            let bytes = self.messages.bytes(slot);
            let injected_at_ps = self.messages.injected_at_ps(slot);
            self.completions.push_back(Completion {
                id: segment.message,
                src,
                dst,
                bytes,
                completed_at_ps: now_ps,
            });
            self.records.push(MessageRecord {
                id: segment.message,
                src,
                dst,
                bytes,
                injected_at_ps,
                completed_at_ps: now_ps,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgft_topo::XgftSpec;

    fn k_ary(k: usize, n: usize) -> Xgft {
        Xgft::new(XgftSpec::k_ary_n_tree(k, n)).unwrap()
    }

    fn cfg() -> NetworkConfig {
        NetworkConfig::default()
    }

    /// A single uncontended message: completion time is the serialization of
    /// all segments plus per-hop pipeline fill.
    #[test]
    fn single_message_latency_matches_hand_computation() {
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        let bytes = 8 * 1024u64; // 8 segments
        sim.schedule_message(0, 0, 5, bytes, Route::new(vec![0, 1]));
        let report = sim.run_to_completion();
        assert_eq!(report.completed_messages, 1);
        let seg = cfg().segment_serialization_ps();
        let hops = 4u64;
        let expected = 8 * seg + (hops - 1) * (seg + cfg().switch_latency_ps());
        assert_eq!(report.makespan_ps, expected);
    }

    #[test]
    fn same_leaf_messages_complete_instantly() {
        let xgft = k_ary(2, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        let id = sim.schedule_message(500, 3, 3, 1024, Route::empty());
        let c = sim.run_until_next_completion().unwrap();
        assert_eq!(c.id, id);
        assert_eq!(c.completed_at_ps, 500);
    }

    /// A message scheduled for a future `at_ps` while its source adapter is
    /// still draining earlier traffic must not inject before its scheduled
    /// time: announcing future traffic never perturbs the present, and the
    /// future message starts exactly at `at_ps` once the adapter is idle.
    #[test]
    fn future_scheduled_message_waits_for_its_injection_time() {
        let xgft = k_ary(4, 2);
        let bytes = 64 * 1024u64;

        let mut solo = NetworkSim::new(&xgft, cfg());
        solo.schedule_message(0, 0, 5, bytes, Route::new(vec![0, 1]));
        let solo_report = solo.run_to_completion();
        let solo_latency = solo_report.messages[0].latency_ps();

        let late_at = 10 * solo_report.makespan_ps;
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.schedule_message(0, 0, 5, bytes, Route::new(vec![0, 1]));
        let late = sim.schedule_message(late_at, 0, 5, bytes, Route::new(vec![0, 1]));
        let report = sim.run_to_completion();

        assert_eq!(report.completed_messages, 2);
        let first = &report.messages[0];
        assert_eq!(first.completed_at_ps, solo_report.makespan_ps);
        let record = report.messages.iter().find(|r| r.id == late).unwrap();
        assert_eq!(record.injected_at_ps, late_at);
        assert!(
            record.completed_at_ps >= late_at,
            "late message completed at {} before its injection time {late_at}",
            record.completed_at_ps
        );
        // Uncontended by then, so it prices exactly like the solo message.
        assert_eq!(record.latency_ps(), solo_latency);
    }

    #[test]
    fn ejection_link_serializes_two_senders() {
        // Two sources send to the same destination: the shared ejection link
        // roughly doubles the completion time of the later message.
        let xgft = k_ary(4, 2);
        let bytes = 64 * 1024u64;
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.schedule_message(0, 0, 5, bytes, Route::new(vec![0, 0]));
        sim.schedule_message(0, 1, 5, bytes, Route::new(vec![0, 1]));
        let contended = sim.run_to_completion();

        let mut solo = NetworkSim::new(&xgft, cfg());
        solo.schedule_message(0, 0, 5, bytes, Route::new(vec![0, 0]));
        let solo_report = solo.run_to_completion();

        let ratio = contended.makespan_ps as f64 / solo_report.makespan_ps as f64;
        assert!(
            ratio > 1.8 && ratio < 2.2,
            "expected ~2x slowdown from endpoint contention, got {ratio:.2}"
        );
    }

    #[test]
    fn shared_up_link_serializes_two_flows_with_same_root() {
        // Two sources in the same switch send to different destinations in
        // another switch but are routed through the same root: the shared
        // switch->root link halves their bandwidth.
        let xgft = k_ary(4, 2);
        let bytes = 64 * 1024u64;
        let mut shared = NetworkSim::new(&xgft, cfg());
        shared.schedule_message(0, 0, 4, bytes, Route::new(vec![0, 2]));
        shared.schedule_message(0, 1, 5, bytes, Route::new(vec![0, 2]));
        let shared_report = shared.run_to_completion();

        let mut disjoint = NetworkSim::new(&xgft, cfg());
        disjoint.schedule_message(0, 0, 4, bytes, Route::new(vec![0, 2]));
        disjoint.schedule_message(0, 1, 5, bytes, Route::new(vec![0, 3]));
        let disjoint_report = disjoint.run_to_completion();

        let ratio = shared_report.makespan_ps as f64 / disjoint_report.makespan_ps as f64;
        assert!(
            ratio > 1.7,
            "routing contention should slow the shared-root case, got {ratio:.2}"
        );
    }

    #[test]
    fn adapter_round_robin_interleaves_two_messages_fairly() {
        // One source sends to two destinations simultaneously; round-robin
        // interleaving means both finish at roughly the same time (rather
        // than one completing at half the time of the other).
        let xgft = k_ary(4, 2);
        let bytes = 128 * 1024u64;
        let mut sim = NetworkSim::new(&xgft, cfg());
        let a = sim.schedule_message(0, 0, 4, bytes, Route::new(vec![0, 0]));
        let b = sim.schedule_message(0, 0, 8, bytes, Route::new(vec![0, 1]));
        let report = sim.run_to_completion();
        let ta = report
            .messages
            .iter()
            .find(|m| m.id == a)
            .unwrap()
            .completed_at_ps;
        let tb = report
            .messages
            .iter()
            .find(|m| m.id == b)
            .unwrap()
            .completed_at_ps;
        let diff = ta.abs_diff(tb) as f64;
        let span = ta.max(tb) as f64;
        assert!(
            diff / span < 0.02,
            "round-robin should finish both messages nearly together: {ta} vs {tb}"
        );
    }

    #[test]
    fn determinism_same_inputs_same_report() {
        let xgft = k_ary(4, 2);
        let run = || {
            let mut sim = NetworkSim::new(&xgft, cfg());
            for s in 0..8usize {
                sim.schedule_message(
                    (s as u64) * 1000,
                    s,
                    (s + 4) % 16,
                    32 * 1024,
                    Route::new(vec![0, s % 4]),
                );
            }
            sim.run_to_completion()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn run_until_next_completion_streams_in_time_order() {
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.schedule_message(0, 0, 4, 16 * 1024, Route::new(vec![0, 0]));
        sim.schedule_message(0, 1, 5, 64 * 1024, Route::new(vec![0, 1]));
        sim.schedule_message(0, 2, 6, 32 * 1024, Route::new(vec![0, 2]));
        let mut times = vec![];
        while let Some(c) = sim.run_until_next_completion() {
            times.push(c.completed_at_ps);
        }
        assert_eq!(times.len(), 3);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert!(sim.is_idle());
    }

    #[test]
    fn cut_through_is_not_slower_than_store_and_forward() {
        let xgft = k_ary(4, 3);
        let bytes = 16 * 1024u64;
        let mut saf = NetworkSim::new(&xgft, cfg());
        saf.schedule_message(0, 0, 63, bytes, Route::new(vec![0, 1, 2]));
        let saf_report = saf.run_to_completion();

        let ct_cfg = NetworkConfig {
            switching: SwitchingMode::CutThrough,
            ..cfg()
        };
        let mut ct = NetworkSim::new(&xgft, ct_cfg);
        ct.schedule_message(0, 0, 63, bytes, Route::new(vec![0, 1, 2]));
        let ct_report = ct.run_to_completion();
        assert!(ct_report.makespan_ps <= saf_report.makespan_ps);
        assert!(ct_report.makespan_ps > 0);
    }

    /// A scheduling anomaly, not a bug: on `XGFT(2; 3,3; 1,1)` cut-through
    /// finishes these six messages 3.96 µs *later* than store-and-forward.
    /// The decision that flips is the FIFO order at leaf 2's ejection link
    /// (switch 0 → leaf 2, shared by messages 1, 4 and 5). Under
    /// store-and-forward the two-hop message 4 (1 → 2) queues its first
    /// three segments there before the four-hop message 1 (6 → 2) arrives;
    /// under cut-through message 1's first segment arrives after message 4's
    /// first and the two interleave. Message 1 then drains earlier, its
    /// segments take switch 2's up-link back to back ahead of message 3
    /// (7 → 5), whose waiting segments hold the input buffer of leaf 7's
    /// injection link longer, and message 2 (7 → 6), served round-robin
    /// with message 3 on that link, finishes last.
    #[test]
    fn cut_through_can_lose_to_store_and_forward_under_contention() {
        let xgft = Xgft::new(XgftSpec::new(vec![3, 3], vec![1, 1]).unwrap()).unwrap();
        let msgs = [
            (7, 6, 4 * 1024),
            (6, 2, 16 * 1024),
            (7, 6, 24 * 1024),
            (7, 5, 8 * 1024),
            (1, 2, 12 * 1024),
            (4, 2, 12 * 1024),
        ];
        let run = |switching| {
            let mut sim = NetworkSim::new(&xgft, NetworkConfig { switching, ..cfg() });
            for &(s, d, bytes) in &msgs {
                let route = Route::new(vec![0; xgft.nca_level(s, d)]);
                sim.schedule_message(0, s, d, bytes, route);
            }
            let report = sim.run_to_completion();
            let mut done: Vec<_> = report
                .messages
                .iter()
                .map(|m| (m.id.0, m.completed_at_ps))
                .collect();
            done.sort_unstable();
            (report.makespan_ps, done)
        };
        let (saf, saf_done) = run(SwitchingMode::StoreAndForward);
        let (ct, ct_done) = run(SwitchingMode::CutThrough);
        assert_eq!(saf, 176_528_000);
        assert_eq!(ct, 180_488_000);
        // Message 1 (6 → 2) gains from the flipped order; message 2
        // (7 → 6) pays for it and sets the makespan.
        assert_eq!((saf_done[1].1, ct_done[1].1), (168_036_000, 163_972_000));
        assert_eq!((saf_done[2].1, ct_done[2].1), (176_528_000, 180_488_000));
    }

    #[test]
    fn report_statistics_are_populated() {
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.schedule_message(0, 0, 5, 8 * 1024, Route::new(vec![0, 1]));
        sim.schedule_message(0, 1, 5, 8 * 1024, Route::new(vec![0, 2]));
        let report = sim.run_to_completion();
        assert_eq!(report.completed_messages, 2);
        assert_eq!(report.total_bytes, 16 * 1024);
        assert!(report.max_channel_utilization > 0.0);
        assert!(report.max_channel_utilization <= 1.0);
        assert!(report.events_processed > 0);
        assert!(report.max_queue_depth >= 1);
        assert!(report.event_queue_hwm >= 1);
        assert!(report.mean_latency_ps() > 0.0);
    }

    #[test]
    fn channel_busy_times_are_per_channel_and_flow_proportional() {
        // Two equal messages from distinct sources to the same destination:
        // the shared ejection channel accumulates exactly twice the busy
        // time of each exclusively-used channel.
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.schedule_message(0, 0, 5, 8 * 1024, Route::new(vec![0, 1]));
        sim.schedule_message(0, 1, 5, 8 * 1024, Route::new(vec![0, 2]));
        sim.run_to_completion();
        let busy = sim.channel_busy_ps();
        assert_eq!(busy.len(), xgft.channels().len());
        let shared = busy[xgft.channels().ejection_channel(5)];
        let exclusive = busy[xgft.channels().injection_channel(0)];
        assert!(exclusive > 0);
        assert_eq!(shared, 2 * exclusive);
        // Untouched channels stay at zero.
        assert_eq!(busy[xgft.channels().injection_channel(15)], 0);
    }

    #[test]
    fn precompiled_path_injection_matches_route_injection() {
        let xgft = k_ary(4, 2);
        let route = Route::new(vec![0, 2]);
        let path: Vec<u32> = xgft
            .route_channels(0, 9, &route)
            .unwrap()
            .into_iter()
            .map(|c| c as u32)
            .collect();

        let mut by_route = NetworkSim::new(&xgft, cfg());
        by_route.schedule_message(0, 0, 9, 32 * 1024, route);
        let a = by_route.run_to_completion();

        let mut by_path = NetworkSim::new(&xgft, cfg());
        by_path.schedule_message_on_path(0, 0, 9, 32 * 1024, &path);
        let b = by_path.run_to_completion();
        assert_eq!(a, b);

        // Local copies go through the same entry with an empty path.
        let mut local = NetworkSim::new(&xgft, cfg());
        let id = local.schedule_message_on_path(100, 3, 3, 1024, &[]);
        let c = local.run_until_next_completion().unwrap();
        assert_eq!(c.id, id);
        assert_eq!(c.completed_at_ps, 100);
    }

    /// The batch entry is a pure re-ordering shim over
    /// `schedule_message_on_path`: same ids, same report, even when the
    /// entries are pushed out of time order.
    #[test]
    fn batched_injection_matches_per_message_injection_exactly() {
        let xgft = k_ary(4, 2);
        let flows: Vec<(u64, usize, usize)> = vec![
            (2_000, 0, 5),
            (0, 1, 6),
            (2_000, 2, 7),
            (0, 3, 3), // local copy rides along
            (1_000, 8, 13),
        ];
        let path_of = |src: usize, dst: usize| -> Vec<u32> {
            if src == dst {
                return vec![];
            }
            xgft.route_channels(src, dst, &Route::new(vec![0, src % 4]))
                .unwrap()
                .into_iter()
                .map(|c| c as u32)
                .collect()
        };

        // Reference: schedule one at a time in ascending (at_ps, push) order.
        let mut by_hand = NetworkSim::new(&xgft, cfg());
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by_key(|&i| flows[i].0);
        let mut hand_ids = vec![MessageId(0); flows.len()];
        for &i in &order {
            let (at, src, dst) = flows[i];
            hand_ids[i] =
                by_hand.schedule_message_on_path(at, src, dst, 32 * 1024, &path_of(src, dst));
        }
        let a = by_hand.run_to_completion();

        let mut batched = NetworkSim::new(&xgft, cfg());
        let mut batch = InjectionBatch::new();
        for &(at, src, dst) in &flows {
            batch.push(at, src, dst, 32 * 1024, &path_of(src, dst));
        }
        let batch_ids = batched.schedule_batch(&batch);
        let b = batched.run_to_completion();

        assert_eq!(batch_ids, hand_ids, "ids come back in push order");
        assert_eq!(a, b, "batched injection must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "path length must match the pair")]
    fn empty_path_for_distinct_pair_is_rejected() {
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.schedule_message_on_path(0, 0, 5, 1024, &[]);
    }

    #[test]
    fn message_slab_recycles_ids_across_drained_messages() {
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        let a = sim.schedule_message(0, 0, 5, 8 * 1024, Route::new(vec![0, 1]));
        let b = sim.schedule_message(0, 1, 6, 8 * 1024, Route::new(vec![0, 2]));
        assert_eq!((a, b), (MessageId(0), MessageId(1)));
        assert_eq!(sim.num_messages(), 2);

        // Nothing can be drained while the completions are unconsumed.
        sim.run_to_completion();
        assert_eq!(sim.message_status(a), Some(MessageStatus::Delivered));

        // Both delivered and consumed (run_to_completion clears the queue):
        // draining frees both slots.
        assert_eq!(sim.drain_delivered(), 2);
        assert_eq!(sim.num_messages(), 0);
        assert_eq!(sim.message_status(a), None);
        assert_eq!(sim.message_status(b), None);

        // New messages recycle the freed slots (LIFO) under a bumped
        // generation, so the recycled ids are *distinct* from the drained
        // ones even though they share a slot.
        let c = sim.schedule_message(sim.now_ps(), 2, 7, 8 * 1024, Route::new(vec![0, 3]));
        assert_eq!((c.slot(), c.generation()), (1, 1), "slot 1 recycled");
        assert_ne!(c, b, "recycled id must not equal the drained id");
        let d = sim.schedule_message(sim.now_ps(), 3, 8, 8 * 1024, Route::new(vec![0, 0]));
        assert_eq!((d.slot(), d.generation()), (0, 1));
        let e = sim.schedule_message(sim.now_ps(), 4, 9, 8 * 1024, Route::new(vec![0, 1]));
        assert_eq!(e, MessageId(2), "fresh slot once the free list is empty");
        let report = sim.run_to_completion();
        assert_eq!(report.completed_messages, 5);
        assert_eq!(report.dropped_messages, 0);
        assert_eq!(sim.message_status(c), Some(MessageStatus::Delivered));
    }

    /// The satellite regression: a drained id must never alias the slot's
    /// next occupant, no matter what state that occupant is in.
    #[test]
    fn stale_ids_stay_dead_after_their_slot_is_recycled() {
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        let stale = sim.schedule_message(0, 0, 5, 8 * 1024, Route::new(vec![0, 1]));
        sim.run_to_completion();
        assert_eq!(sim.drain_delivered(), 1);
        assert_eq!(sim.message_status(stale), None);

        // Recycle the slot with a live in-flight message: before the
        // generation tag, `stale` would now report the new occupant's
        // status (Pending), silently lying about a drained message.
        let fresh = sim.schedule_message(sim.now_ps(), 1, 6, 8 * 1024, Route::new(vec![0, 2]));
        assert_eq!(fresh.slot(), stale.slot(), "slot must be recycled");
        assert_eq!(sim.message_status(fresh), Some(MessageStatus::Pending));
        assert_eq!(
            sim.message_status(stale),
            None,
            "a drained id must not alias the live recycled message"
        );
        sim.run_to_completion();
        assert_eq!(sim.message_status(fresh), Some(MessageStatus::Delivered));
        assert_eq!(sim.message_status(stale), None);
    }

    #[test]
    fn channel_failure_drop_loses_messages_but_not_the_network() {
        // Two flows share nothing; kill a channel of the first mid-run.
        let xgft = k_ary(4, 2);
        let bytes = 64 * 1024u64;
        let mut sim = NetworkSim::new(&xgft, cfg());
        let doomed = sim.schedule_message(0, 0, 5, bytes, Route::new(vec![0, 1]));
        let survivor = sim.schedule_message(0, 8, 13, bytes, Route::new(vec![0, 2]));
        let dead = xgft.route_channels(0, 5, &Route::new(vec![0, 1])).unwrap()[1];
        sim.fail_channel(1_000_000, dead, FailurePolicy::Drop);
        let report = sim.run_to_completion();
        assert!(sim.channel_is_failed(dead));
        assert_eq!(report.completed_messages, 1);
        assert_eq!(report.dropped_messages, 1);
        assert_eq!(sim.dropped_messages(), 1);
        assert_eq!(sim.message_status(doomed), Some(MessageStatus::Dropped));
        assert_eq!(sim.message_status(survivor), Some(MessageStatus::Delivered));
        // Dropped messages are drainable and their ids stay dead.
        assert_eq!(sim.drain_delivered(), 2);
        assert_eq!(sim.message_status(doomed), None);
    }

    #[test]
    fn drain_keeps_a_dropped_message_until_its_stragglers_leave() {
        // A Drop failure on the root→switch down channel of 0 → 5 drops the
        // segments that reach it, while segments already past it are still
        // in flight towards leaf 5 and read their path as they go. Draining
        // the dropped message then must not hand its slot (and path) to a
        // new message.
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        let route = Route::new(vec![0, 1]);
        let doomed = sim.schedule_message(0, 0, 5, 64 * 1024, route.clone());
        let down = xgft.route_channels(0, 5, &route).unwrap()[2];
        let cut_at = 20 * cfg().segment_serialization_ps();
        sim.fail_channel(cut_at, down, FailurePolicy::Drop);
        let bystander = sim.schedule_message(cut_at, 8, 9, 1024, Route::new(vec![0]));
        let done = sim.run_until_next_completion().unwrap();
        assert_eq!(done.id, bystander);
        assert_eq!(sim.message_status(doomed), Some(MessageStatus::Dropped));
        assert_eq!(
            sim.drain_delivered(),
            1,
            "only the bystander may drain while stragglers are in flight"
        );
        assert!(sim.message_status(doomed).is_some());
        let now = sim.now_ps();
        for (src, dst) in [(1, 2), (3, 2)] {
            let id = sim.schedule_message(now, src, dst, 1024, Route::new(vec![0]));
            assert_ne!(
                id.slot(),
                doomed.slot(),
                "the dropped message's slot is busy"
            );
        }
        let report = sim.run_to_completion();
        assert_eq!(report.dropped_messages, 1);
        assert!(sim.is_idle());
        // Once every straggler has left, the dropped message drains.
        assert_eq!(sim.drain_delivered(), 3);
        assert_eq!(sim.message_status(doomed), None);
    }

    #[test]
    fn complete_in_flight_drains_pre_failure_messages() {
        let xgft = k_ary(4, 2);
        let bytes = 64 * 1024u64;
        let route = Route::new(vec![0, 1]);
        let dead = xgft.route_channels(0, 5, &route).unwrap()[1];

        // Message injected before the failure: drains to completion.
        let mut sim = NetworkSim::new(&xgft, cfg());
        let early = sim.schedule_message(0, 0, 5, bytes, route.clone());
        sim.fail_channel(1_000_000, dead, FailurePolicy::CompleteInFlight);
        let report = sim.run_to_completion();
        assert_eq!(report.completed_messages, 1);
        assert_eq!(report.dropped_messages, 0);
        assert_eq!(sim.message_status(early), Some(MessageStatus::Delivered));

        // Message injected after the failure over the same stale path:
        // dropped at the dead hop even under CompleteInFlight.
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.fail_channel(0, dead, FailurePolicy::CompleteInFlight);
        let late = sim.schedule_message(1_000, 0, 5, bytes, route);
        let report = sim.run_to_completion();
        assert_eq!(report.completed_messages, 0);
        assert_eq!(report.dropped_messages, 1);
        assert_eq!(sim.message_status(late), Some(MessageStatus::Dropped));
    }

    #[test]
    fn fail_repair_inject_delivers_with_pristine_latency() {
        let xgft = k_ary(4, 2);
        let bytes = 64 * 1024u64;
        let route = Route::new(vec![0, 1]);
        let dead = xgft.route_channels(0, 5, &route).unwrap()[1];

        // Reference: an undisturbed sim delivers the same message injected
        // at the same instant.
        let mut pristine = NetworkSim::new(&xgft, cfg());
        let reference = pristine.schedule_message(20_000_000, 0, 5, bytes, route.clone());
        let reference_report = pristine.run_to_completion();
        let reference_ps = reference_report
            .messages
            .iter()
            .find(|r| r.id == reference)
            .unwrap()
            .completed_at_ps;

        // Fail, lose a message at the dead channel, repair, inject again.
        // The doomed message comes from a sibling leaf (same switch, same
        // dead up-channel, different adapter) so the healed message's
        // round-robin slot stays untouched until its own injection time.
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.fail_channel(100, dead, FailurePolicy::Drop);
        let doomed = sim.schedule_message(200, 1, 5, bytes, route.clone());
        sim.repair_channel(10_000_000, dead);
        let healed = sim.schedule_message(20_000_000, 0, 5, bytes, route);
        let report = sim.run_to_completion();
        assert!(!sim.channel_is_failed(dead));
        assert_eq!(report.completed_messages, 1);
        assert_eq!(report.dropped_messages, 1);
        assert_eq!(sim.message_status(doomed), Some(MessageStatus::Dropped));
        assert_eq!(sim.message_status(healed), Some(MessageStatus::Delivered));
        let healed_ps = report
            .messages
            .iter()
            .find(|r| r.id == healed)
            .unwrap()
            .completed_at_ps;
        assert_eq!(
            healed_ps, reference_ps,
            "a repaired channel must serve fresh traffic at pristine latency"
        );

        // Repairing a live channel is a no-op, not a state change.
        sim.repair_channel(sim.now_ps(), dead);
        sim.run_to_completion();
        assert!(!sim.channel_is_failed(dead));
    }

    #[test]
    fn drop_at_a_shared_channel_releases_credits_for_other_flows() {
        // Many flows fan into one destination; the ejection link dies with
        // Drop policy. Everything queued or arriving later is lost, but the
        // simulation terminates and every credit comes back (no wedged
        // channels, no live messages left unaccounted).
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        for s in 1..8usize {
            let route = if xgft.nca_level(s, 0) == 1 {
                Route::new(vec![0])
            } else {
                Route::new(vec![0, s % 4])
            };
            sim.schedule_message(0, s, 0, 64 * 1024, route);
        }
        let ejection = xgft.channels().ejection_channel(0);
        sim.fail_channel(500_000, ejection, FailurePolicy::Drop);
        let report = sim.run_to_completion();
        assert_eq!(report.completed_messages + report.dropped_messages, 7);
        assert!(
            report.dropped_messages >= 1,
            "the dead ejection link must bite"
        );
        assert!(sim.is_idle());
    }

    #[test]
    #[should_panic(expected = "channel index out of range")]
    fn failing_an_unknown_channel_is_rejected() {
        let xgft = k_ary(2, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.fail_channel(0, 10_000, FailurePolicy::Drop);
    }

    #[test]
    fn drain_skips_messages_with_unconsumed_completions() {
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        // A local copy completes instantly but its completion is never
        // consumed, so it must survive a drain; the consumed one drains.
        let kept = sim.schedule_message(0, 2, 2, 1024, Route::empty());
        let a = sim.schedule_message(0, 0, 5, 8 * 1024, Route::new(vec![0, 1]));
        let first = sim.run_until_next_completion().unwrap();
        assert_eq!(first.id, kept, "local copies complete first");
        let second = sim.run_until_next_completion().unwrap();
        assert_eq!(second.id, a);
        // Re-schedule another unconsumed local copy, then drain.
        let pending = sim.schedule_message(sim.now_ps(), 3, 3, 1024, Route::empty());
        let drained = sim.drain_delivered();
        assert_eq!(drained, 2, "kept + a were consumed; pending was not");
        assert_eq!(sim.message_status(a), None);
        assert!(
            sim.message_status(pending).is_some(),
            "a message with an unconsumed completion must not be drained"
        );
    }

    #[test]
    #[should_panic(expected = "valid route")]
    fn invalid_route_is_rejected() {
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.schedule_message(0, 0, 5, 1024, Route::new(vec![0]));
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_message_is_rejected() {
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        sim.schedule_message(0, 0, 5, 0, Route::new(vec![0, 1]));
    }

    #[test]
    fn backpressure_bounds_queue_depth() {
        // Sixteen sources all send to one destination; finite credits mean no
        // waiting queue grows beyond (credits + senders) segments.
        let xgft = k_ary(4, 2);
        let mut sim = NetworkSim::new(&xgft, cfg());
        for s in 1..16usize {
            let route = Route::new(vec![0, s % 4]);
            let level = xgft.nca_level(s, 0);
            let route = if level == 1 {
                Route::new(vec![0])
            } else {
                route
            };
            sim.schedule_message(0, s, 0, 64 * 1024, route);
        }
        let report = sim.run_to_completion();
        assert_eq!(report.completed_messages, 15);
        // The ejection channel's waiting queue is fed only by buffered
        // segments still holding upstream credits: 4 root->switch channels
        // and 3 local injection channels, 4 credits each, so at most 28
        // segments can ever wait there (without credits the queue would grow
        // to the hundreds).
        assert!(
            report.max_queue_depth <= 28,
            "queue depth {} suggests missing backpressure",
            report.max_queue_depth
        );
    }

    #[test]
    fn reset_is_byte_identical_to_a_fresh_simulator() {
        // Drive a run with contention, failures and repairs, reset, rerun
        // the same schedule: reports (messages, ids, events, high-water)
        // must match a fresh simulator's bit for bit.
        let xgft = k_ary(4, 2);
        let drive = |sim: &mut NetworkSim| {
            let ids: Vec<MessageId> = (1..12usize)
                .map(|s| {
                    let route = if sim.xgft().nca_level(s, 0) == 1 {
                        Route::new(vec![0])
                    } else {
                        Route::new(vec![0, s % 4])
                    };
                    sim.schedule_message((s as u64) * 1_000, s, 0, 48 * 1024, route)
                })
                .collect();
            sim.fail_channel(2_000_000, 3, FailurePolicy::Drop);
            sim.repair_channel(60_000_000, 3);
            let report = sim.run_to_completion();
            (ids, report)
        };
        let mut fresh = NetworkSim::new(&xgft, cfg());
        let (fresh_ids, fresh_report) = drive(&mut fresh);

        let mut reused = NetworkSim::new(&xgft, cfg());
        // A first run leaves queue rings grown, slabs filled, channels
        // failed — everything reset() must reclaim.
        let _ = drive(&mut reused);
        reused.reset();
        assert_eq!(reused.now_ps(), 0);
        assert_eq!(reused.num_messages(), 0);
        let (reused_ids, reused_report) = drive(&mut reused);
        assert_eq!(fresh_ids, reused_ids, "minted ids must restart identically");
        assert_eq!(fresh_report, reused_report);
    }

    #[test]
    #[should_panic(expected = "segment_bytes must be at most 4294967295")]
    fn segments_wider_than_u32_are_refused_up_front() {
        let config = NetworkConfig {
            segment_bytes: u64::from(u32::MAX) + 1,
            ..cfg()
        };
        NetworkSim::new(&k_ary(2, 2), config);
    }

    /// The day counters on the `netsim` bench probe's schedule: a shift
    /// permutation of 64 KiB messages on the 64-leaf 8-ary 2-tree under
    /// d-mod-k, all injected at time 0. Store-and-forward waves of full
    /// segments reach each day whole and in time order, so every day is
    /// adopted without a copy or a sort. The counts are deterministic.
    #[test]
    fn synchronized_waves_adopt_every_day() {
        use xgft_core::{CompiledRouteTable, DModK};
        let xgft = k_ary(8, 2);
        let n = xgft.num_leaves();
        let flows: Vec<(usize, usize, u64)> = xgft_patterns::generators::shift(n, 8, 64 * 1024)
            .combined()
            .network_flows()
            .map(|f| (f.src, f.dst, f.bytes))
            .collect();
        let table = CompiledRouteTable::compile(
            &xgft,
            &DModK::new(),
            flows.iter().map(|&(s, d, _)| (s, d)),
        );
        let mut sim = NetworkSim::new(&xgft, cfg());
        for &(s, d, bytes) in &flows {
            sim.schedule_message_on_path(0, s, d, bytes, table.path(s, d).expect("routed pair"));
        }
        let report = sim.run_to_completion();
        assert_eq!(report.completed_messages, n);
        assert_eq!((sim.queue.days(), sim.queue.days_adopted()), (256, 256));
    }
}
