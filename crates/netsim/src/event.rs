//! The discrete-event queue.
//!
//! Events pop in (time, push order) ascending order, so simulations are
//! fully deterministic: ties are broken by insertion order, never by
//! container internals.
//!
//! ## Calendar queue
//!
//! The queue is a calendar/bucket queue (Brown, CACM 1988) specialised for
//! the simulator's workload: picosecond timestamps that advance
//! monotonically, with most new events landing either at the very instant
//! being processed or a few segment-serialization times ahead of the
//! cursor. Time is divided into *days* of `2^WIDTH_SHIFT` ps. Every
//! pending event sits in one of three lanes:
//!
//! * `buckets` — future days in a power-of-two ring indexed by
//!   `day & mask`. A bucket appends `(time, event)` entries in push order
//!   and tracks the minimum and maximum time it holds plus a `sorted` flag
//!   that stays true while pushed times never decrease. A push is one
//!   `Vec::push` and three compares.
//! * `agenda` — the cursor day, ascending by (time, push order) and read
//!   through a cursor: a pop is one read and a cursor bump. A push later
//!   than now but on the cursor day is inserted after every entry whose
//!   time is `<=` its own; an at-now push is appended when the agenda ends
//!   at now (the FIFO is then always empty).
//! * `now_fifo` — at-now pushes while the agenda does not end at now, i.e.
//!   it still holds later events of the day. Entries share one timestamp,
//!   so FIFO order *is* push order, and they pop after the agenda's at-now
//!   entries, which were all pushed earlier.
//!
//! When both the agenda and the FIFO drain, the cursor advances to the
//! next populated day — found by probing bucket minima one O(1) check per
//! candidate day, with an O(buckets) global-min fallback when every pending
//! event is more than one ring revolution ahead. Store-and-forward traffic
//! with full segments moves in synchronized waves, so a day almost always
//! arrives whole and in time order. When the bucket's maximum lies in the
//! target day, its vector *becomes* the agenda (`mem::take`) with no copy,
//! and with no sort either if the bucket is `sorted` (the day is then
//! *adopted*); otherwise it is stable-sorted by time in place. When a later
//! revolution shares the bucket, the day's entries are extracted in push
//! order and stable-sorted. Drained vectors go to a spare pool that the
//! next bucket to fill draws from, so the footprint grows with the days
//! that hold events, not with the ring.
//!
//! **Entry width.** A queued `(time, event)` entry is 16 bytes: the time
//! plus an 8-byte `Event`, whose segments carry only a slab slot, a hop
//! and a short-last bit and derive the rest from the message slab. Every
//! lane and every spare vector holds entries by value, so the queue's
//! retained memory (`EventQueue::capacity`, in entries) scales with this
//! width; a compile-time assertion pins it.
//!
//! **Determinism.** Push order is sequence order, and every lane keeps it
//! among equal times: buckets append, the agenda is built by a stable sort
//! (or is already ordered) and inserts after equal times, and the FIFO's
//! entries pop after the agenda's at-now entries, all pushed earlier.
//! Every pending event
//! with `day(t) <= cursor` is in the agenda or the FIFO, and everything in
//! the buckets has a strictly later day. The pop sequence is therefore
//! exactly (time, seq) ascending — byte-identical to a `BinaryHeap` over
//! (time, seq), which the property tests below pin, and independent of
//! bucket width, ring size and growth schedule.

use crate::message::Segment;
use crate::sim::FailurePolicy;
use std::collections::VecDeque;

/// The kinds of events the simulator processes.
///
/// Channel and adapter ids are stored as `u32` (the topology layer caps
/// channel counts far below that), and a segment carries only its slab
/// slot, hop and short-last bit (see [`Segment`]), so the whole enum packs
/// into 8 bytes and a queued `(time, event)` entry into 16: queue inserts
/// memmove a slice of these, the ring's vectors keep capacity for them
/// between days, and the event rate is high enough that payload width is
/// measurable on the bench probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// The source adapter of `src` should try to hand its next segment to
    /// the injection channel.
    AdapterTryInject { src: u32 },
    /// A segment has finished its transmission over the last channel of
    /// its path, `path[hop]`, and now sits in the destination's input
    /// buffer.
    SegmentArrived { segment: Segment },
    /// A segment that arrived earlier has crossed the switch and is ready to
    /// be queued for its next hop.
    SegmentReadyForNextHop { segment: Segment },
    /// A downstream buffer slot of `channel` has been vacated; the channel
    /// should re-examine its waiting queue.
    CreditReturn { channel: u32 },
    /// The directed channel `channel` fails at this instant; pending and
    /// future traffic on it is handled per `policy`.
    ChannelFail { channel: u32, policy: FailurePolicy },
    /// The directed channel `channel` comes back into service at this
    /// instant; traffic enqueued from now on flows normally again.
    ChannelRepair { channel: u32 },
}

/// A pending event and its absolute time. Push order stands in for the
/// sequence number, so no lane stores one.
type Entry = (u64, Event);

// Every lane stores entries by value: keep them at two words.
const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// Width of one calendar day: `2^16` ps = 65.536 ns, about 1/62 of a
/// default-config segment serialization (4.096 µs). Small enough that the
/// current-day agenda stays tiny (cheap per-day sort), large enough that
/// populated days are dense under contention. Correctness never depends on
/// this tuning.
const WIDTH_SHIFT: u32 = 16;

/// Initial bucket-ring size (power of two): 128 days = 8.4 µs, two
/// default-config segment serializations. A store-and-forward hop schedules
/// its follow-up one serialization plus the switch latency ahead (64.03
/// days at the defaults), so a 64-day ring would file it one revolution on,
/// into the bucket of a day still pending, and that day could no longer be
/// adopted whole.
const INITIAL_BUCKETS: usize = 128;

/// Grow the ring when future events exceed this per-bucket average.
const GROW_LOAD: usize = 16;

/// Never grow the ring beyond this many buckets.
const MAX_BUCKETS: usize = 1 << 16;

/// One ring slot: its entries in push order plus a summary of their times,
/// kept in one struct so the push hot path touches a single cache line.
#[derive(Debug)]
struct Bucket {
    /// Exact minimum time held (`u64::MAX` when empty).
    min_ps: u64,
    /// Exact maximum time held (meaningless when empty).
    max_ps: u64,
    /// True while every push carried a time `>= max_ps`: the entries are
    /// then ascending by (time, push order) as they stand.
    sorted: bool,
    events: Vec<Entry>,
}

impl Bucket {
    fn empty() -> Self {
        Bucket {
            min_ps: u64::MAX,
            max_ps: 0,
            sorted: true,
            events: Vec::new(),
        }
    }

    /// Append an entry. An empty bucket holds no vector (a drained one
    /// went to the agenda or the spare pool), so it draws one from `spare`.
    fn push(&mut self, time_ps: u64, event: Event, spare: &mut Vec<Vec<Entry>>) {
        if self.events.is_empty() {
            // A fresh vector starts at 16 to skip the 1 → 2 → 4 … growth
            // staircase.
            self.events = spare.pop().unwrap_or_else(|| Vec::with_capacity(16));
            self.min_ps = time_ps;
            self.max_ps = time_ps;
            self.sorted = true;
        } else {
            self.sorted &= time_ps >= self.max_ps;
            self.min_ps = self.min_ps.min(time_ps);
            self.max_ps = self.max_ps.max(time_ps);
        }
        self.events.push((time_ps, event));
    }
}

/// A deterministic discrete-event queue (calendar queue; see module docs).
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// At-now events pushed while the agenda does not end at now, in push
    /// order; every entry carries `now_ps`.
    now_fifo: VecDeque<Event>,
    /// The timestamp of the last popped event.
    now_ps: u64,
    /// The cursor day's events, ascending by (time, push order); entries
    /// before `cursor` have been popped.
    agenda: Vec<Entry>,
    /// Index of the next agenda entry to pop.
    cursor: usize,
    /// Future days, ring-indexed by `day & mask`.
    buckets: Vec<Bucket>,
    /// Empty vectors with capacity, drawn by the next bucket to fill.
    spare: Vec<Vec<Entry>>,
    /// `buckets.len() - 1`; the ring size is a power of two.
    mask: u64,
    /// The day the cursor points at: `time >> WIDTH_SHIFT` of the agenda.
    day: u64,
    /// Number of events in the buckets.
    future_len: usize,
    /// Total pending events (`now_fifo` + unpopped agenda + buckets),
    /// maintained incrementally so the per-push high-water update is one
    /// compare.
    live: usize,
    high_water: usize,
    /// Days the cursor has advanced to.
    days: u64,
    /// Of those, days whose bucket became the agenda with no copy and no
    /// sort.
    days_adopted: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            now_fifo: VecDeque::new(),
            now_ps: 0,
            agenda: Vec::new(),
            cursor: 0,
            buckets: (0..INITIAL_BUCKETS).map(|_| Bucket::empty()).collect(),
            spare: Vec::new(),
            mask: (INITIAL_BUCKETS - 1) as u64,
            day: 0,
            future_len: 0,
            live: 0,
            high_water: 0,
            days: 0,
            days_adopted: 0,
        }
    }

    /// Reset the queue to its freshly-constructed state — cursor, counters
    /// and high-water mark included — while keeping the bucket ring and
    /// every vector allocation (bucket vectors move to the spare pool). Pop
    /// order after a `clear` is byte-identical to a new queue's (it is
    /// independent of ring size, which is the only state that survives), so
    /// `NetworkSim::reset` can recycle the ring a previous run already grew.
    pub fn clear(&mut self) {
        self.now_fifo.clear();
        self.now_ps = 0;
        self.agenda.clear();
        self.cursor = 0;
        for bucket in &mut self.buckets {
            if bucket.events.capacity() > 0 {
                let mut events = std::mem::take(&mut bucket.events);
                events.clear();
                self.spare.push(events);
            }
            bucket.min_ps = u64::MAX;
        }
        self.day = 0;
        self.future_len = 0;
        self.live = 0;
        self.high_water = 0;
        self.days = 0;
        self.days_adopted = 0;
    }

    /// Schedule `event` at absolute time `time_ps` (never before the last
    /// popped time). Inlined, like `pop`, into the simulator's handlers:
    /// both run once per event.
    #[inline]
    pub fn push(&mut self, time_ps: u64, event: Event) {
        debug_assert!(
            time_ps >= self.now_ps,
            "events are never scheduled in the past"
        );
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        if time_ps == self.now_ps {
            // An at-now event ranks after every pending equal-time event
            // (all pushed earlier) and before anything strictly later. If
            // the agenda ends at now, its end is exactly that place. The
            // FIFO is then empty: it only takes pushes while the agenda
            // does not end at now, and until it drains the agenda's end can
            // only move later (an insert), as a new day needs an empty FIFO.
            if self.agenda.last().is_some_and(|e| e.0 == time_ps) {
                debug_assert!(self.now_fifo.is_empty(), "FIFO entries would be overtaken");
                self.agenda.push((time_ps, event));
            } else {
                self.now_fifo.push_back(event);
            }
        } else if time_ps >> WIDTH_SHIFT <= self.day {
            // Later today: after every pending entry at or before its time,
            // since those were all pushed earlier.
            let at = self.cursor + self.agenda[self.cursor..].partition_point(|e| e.0 <= time_ps);
            self.agenda.insert(at, (time_ps, event));
        } else {
            if self.future_len >= self.buckets.len() * GROW_LOAD && self.buckets.len() < MAX_BUCKETS
            {
                self.grow();
            }
            let b = ((time_ps >> WIDTH_SHIFT) & self.mask) as usize;
            self.buckets[b].push(time_ps, event, &mut self.spare);
            self.future_len += 1;
        }
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        if !self.now_fifo.is_empty() {
            // Agenda events at now were pushed before every FIFO entry and
            // pop first; everything else pending is strictly later than
            // the FIFO lane's shared timestamp.
            match self.agenda.get(self.cursor) {
                Some(e) if e.0 == self.now_ps => {}
                _ => {
                    #[expect(clippy::expect_used, reason = "this branch has a FIFO entry")]
                    let event = self.now_fifo.pop_front().expect("non-empty");
                    self.live -= 1;
                    return Some((self.now_ps, event));
                }
            }
        } else if self.cursor == self.agenda.len() {
            if self.future_len == 0 {
                return None;
            }
            self.advance_day();
        }
        let entry = self.agenda[self.cursor];
        self.cursor += 1;
        self.live -= 1;
        self.now_ps = entry.0;
        Some(entry)
    }

    /// Peek at the time of the earliest event.
    #[cfg(test)]
    pub fn next_time(&self) -> Option<u64> {
        if !self.now_fifo.is_empty() {
            return Some(self.now_ps);
        }
        if let Some(e) = self.agenda.get(self.cursor) {
            return Some(e.0);
        }
        self.buckets
            .iter()
            .map(|b| b.min_ps)
            .min()
            .filter(|&m| m != u64::MAX)
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.live,
            self.now_fifo.len() + (self.agenda.len() - self.cursor) + self.future_len
        );
        self.live
    }

    /// Largest number of simultaneously pending events observed so far.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Entries the queue has allocated room for across the ring's buckets,
    /// the spare pool, the agenda and the FIFO: its retained memory, in
    /// entries, which outlives the events that caused it.
    pub fn capacity(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.events.capacity())
            .chain(self.spare.iter().map(Vec::capacity))
            .sum::<usize>()
            + self.agenda.capacity()
            + self.now_fifo.capacity()
    }

    /// Days the cursor has advanced to so far.
    pub fn days(&self) -> u64 {
        self.days
    }

    /// Days whose bucket became the agenda whole, already in order.
    pub fn days_adopted(&self) -> u64 {
        self.days_adopted
    }

    /// Move the cursor to the earliest populated day and make its events
    /// the agenda. Requires an exhausted agenda, an empty FIFO and
    /// `future_len > 0`.
    fn advance_day(&mut self) {
        debug_assert!(self.now_fifo.is_empty() && self.future_len > 0);
        let ring = self.buckets.len() as u64;
        let mut target = None;
        for d in (self.day + 1..).take(ring as usize) {
            let m = self.buckets[(d & self.mask) as usize].min_ps;
            if m != u64::MAX && m >> WIDTH_SHIFT == d {
                target = Some(d);
                break;
            }
        }
        // Scanning one full ring revolution found nothing: every pending
        // event is at least `ring` days ahead. Jump straight to the global
        // minimum (the per-bucket minima are exact).
        #[expect(clippy::expect_used, reason = "requires future_len > 0")]
        let target = target.unwrap_or_else(|| {
            self.buckets
                .iter()
                .map(|b| b.min_ps)
                .min()
                .expect("future events pending")
                >> WIDTH_SHIFT
        });
        self.day = target;
        self.days += 1;
        let mut agenda = std::mem::take(&mut self.agenda);
        agenda.clear();
        self.cursor = 0;
        let bucket = &mut self.buckets[(target & self.mask) as usize];
        if bucket.max_ps >> WIDTH_SHIFT == target {
            // The bucket holds this day alone: it becomes the agenda.
            if agenda.capacity() > 0 {
                self.spare.push(agenda);
            }
            agenda = std::mem::take(&mut bucket.events);
            bucket.min_ps = u64::MAX;
            if bucket.sorted {
                self.days_adopted += 1;
            } else {
                agenda.sort_by_key(|e| e.0);
            }
        } else {
            // Later revolutions share the bucket: pull out this day's
            // entries in push order and re-summarize the rest.
            let (mut min_ps, mut max_ps, mut sorted) = (u64::MAX, 0, true);
            let mut write = 0;
            for read in 0..bucket.events.len() {
                let e = bucket.events[read];
                if e.0 >> WIDTH_SHIFT == target {
                    agenda.push(e);
                } else {
                    sorted &= e.0 >= max_ps;
                    min_ps = min_ps.min(e.0);
                    max_ps = max_ps.max(e.0);
                    bucket.events[write] = e;
                    write += 1;
                }
            }
            bucket.events.truncate(write);
            (bucket.min_ps, bucket.max_ps, bucket.sorted) = (min_ps, max_ps, sorted);
            // A stable sort on time alone keeps push order among ties.
            agenda.sort_by_key(|e| e.0);
        }
        self.future_len -= agenda.len();
        debug_assert!(!agenda.is_empty(), "target day must hold events");
        self.agenda = agenda;
    }

    /// Double the bucket ring and redistribute the future events. Each new
    /// bucket draws from exactly one old bucket, in its push order.
    fn grow(&mut self) {
        let new_size = self.buckets.len() * 2;
        let mut buckets: Vec<Bucket> = (0..new_size).map(|_| Bucket::empty()).collect();
        let mask = (new_size - 1) as u64;
        for mut old in std::mem::take(&mut self.buckets) {
            for (time_ps, event) in old.events.drain(..) {
                let b = ((time_ps >> WIDTH_SHIFT) & mask) as usize;
                buckets[b].push(time_ps, event, &mut self.spare);
            }
            if old.events.capacity() > 0 {
                self.spare.push(old.events);
            }
        }
        self.buckets = buckets;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_out_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::CreditReturn { channel: 3 });
        q.push(10, Event::CreditReturn { channel: 1 });
        q.push(20, Event::CreditReturn { channel: 2 });
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_time(), Some(10));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::CreditReturn { channel: 10 });
        q.push(5, Event::CreditReturn { channel: 20 });
        q.push(5, Event::CreditReturn { channel: 30 });
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::CreditReturn { channel } => channel,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn far_future_events_cross_bucket_revolutions() {
        // Events farther apart than one full ring revolution exercise the
        // global-min fallback of the day advance.
        let mut q = EventQueue::new();
        let day = 1u64 << WIDTH_SHIFT;
        let times = [
            0,
            3 * day,
            (INITIAL_BUCKETS as u64 + 5) * day,
            10 * (MAX_BUCKETS as u64) * day + 17,
        ];
        for &t in times.iter().rev() {
            q.push(t, Event::CreditReturn { channel: 0 });
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn high_water_tracks_peak_pending_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for t in 0..10u64 {
            q.push(t * 1000, Event::CreditReturn { channel: 0 });
        }
        assert_eq!(q.high_water(), 10);
        for _ in 0..5 {
            q.pop();
        }
        q.push(99_000, Event::CreditReturn { channel: 1 });
        assert_eq!(q.high_water(), 10, "high-water never decays");
    }

    #[test]
    fn growth_torture_stays_sorted() {
        // Push far more events than the initial ring holds (forcing several
        // growth steps) at pseudo-random times with deliberate ties, then
        // pop everything and check the (time, seq) order exactly: the
        // channel id is the push index, so ties must come out ascending.
        let mut q = EventQueue::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut pushed = Vec::new();
        for i in 0..10_000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = (state >> 33) % 50_000 * 1000;
            pushed.push((t, i));
            q.push(t, Event::CreditReturn { channel: i });
        }
        assert_eq!(q.len(), pushed.len());
        let popped: Vec<(u64, u32)> = std::iter::from_fn(|| {
            q.pop().map(|(t, e)| match e {
                Event::CreditReturn { channel } => (t, channel),
                _ => unreachable!(),
            })
        })
        .collect();
        pushed.sort_by_key(|&(t, _)| t); // stable: ties keep push order
        assert_eq!(popped, pushed);
        assert_eq!(q.high_water(), 10_000);
    }
}

#[cfg(test)]
mod pop_order_properties {
    use super::*;
    use crate::message::Segment;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// A heap element: the event plus its explicit sequence number.
    struct QueuedEvent {
        time_ps: u64,
        seq: u64,
        event: Event,
    }

    impl PartialEq for QueuedEvent {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for QueuedEvent {}

    impl Ord for QueuedEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert to get earliest-first.
            other
                .time_ps
                .cmp(&self.time_ps)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl PartialOrd for QueuedEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The queue this module replaced: a plain `BinaryHeap` over (time,
    /// seq). The property below pins the calendar queue's pop sequence
    /// byte-identical to it.
    #[derive(Default)]
    struct ReferenceQueue {
        heap: BinaryHeap<QueuedEvent>,
        next_seq: u64,
        /// Largest `heap.len()` seen.
        peak: usize,
    }

    impl ReferenceQueue {
        fn push(&mut self, time_ps: u64, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(QueuedEvent {
                time_ps,
                seq,
                event,
            });
            self.peak = self.peak.max(self.heap.len());
        }

        fn pop(&mut self) -> Option<(u64, Event)> {
            self.heap.pop().map(|q| (q.time_ps, q.event))
        }
    }

    const DAY: u64 = 1 << WIDTH_SHIFT;

    /// One scripted operation against both queues.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at `now + dt` (dt = step × unit, units chosen so pushes land
        /// on the cursor day, nearby days, and far future alike).
        Push { dt: u64, kind: u8 },
        /// Push `offset` ps into the day `days` after now's. Random offsets
        /// reach one future bucket out of time order, so its `sorted` flag
        /// drops; a day one ring revolution on shares the bucket with the
        /// day before it.
        PushIntoDay { days: u64, offset: u64, kind: u8 },
        /// Pop one event and advance `now` to its time.
        Pop,
        /// Reset the calendar queue (its vectors go to the spare pool) and
        /// restart with a fresh reference.
        Clear,
    }

    fn push_op() -> impl Strategy<Value = Op> {
        (0u64..4, 0u64..7, 0u8..8).prop_map(|(step, unit, kind)| {
            // Units: ties (0), 1 ps (many timestamps in one day), sub-day,
            // day-scale, segment-scale, exactly one ring revolution and
            // multi-revolution jumps.
            let unit = [
                0,
                1,
                1_000,
                70_000,
                4_096_000,
                (INITIAL_BUCKETS as u64) << WIDTH_SHIFT,
                5_000_000_000,
            ][unit as usize];
            Op::Push {
                dt: step * unit,
                kind,
            }
        })
    }

    fn push_into_day_op() -> impl Strategy<Value = Op> {
        (0u64..3, 0u64..DAY, 0u8..8).prop_map(|(days, offset, kind)| Op::PushIntoDay {
            days: [1, 2, INITIAL_BUCKETS as u64 + 1][days as usize],
            // Coarsen half the offsets so equal times recur in one day.
            offset: if offset % 2 == 0 {
                offset & !0x3fff
            } else {
                offset
            },
            kind,
        })
    }

    fn pop_or_clear_op() -> impl Strategy<Value = Op> {
        // A clear is rare enough that most scripts run long between them.
        (0u8..16).prop_map(|r| if r == 0 { Op::Clear } else { Op::Pop })
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        // Two push arms to one pop arm: queues should usually be non-empty.
        prop::collection::vec(
            prop_oneof![
                push_op(),
                push_op(),
                push_op(),
                push_into_day_op(),
                pop_or_clear_op(),
                pop_or_clear_op()
            ],
            0..160,
        )
    }

    /// Build a distinguishable event for `kind` (every variant, both failure
    /// policies) so payload mix-ups cannot hide behind identical payloads.
    fn event_for(kind: u8, salt: usize) -> Event {
        let mut segment = Segment::new(salt, salt.is_multiple_of(2));
        for _ in 0..salt % 3 {
            segment = segment.next_hop();
        }
        let id = salt as u32;
        match kind % 7 {
            0 => Event::AdapterTryInject { src: id },
            1 => Event::SegmentArrived { segment },
            2 => Event::SegmentReadyForNextHop { segment },
            3 => Event::CreditReturn { channel: id },
            4 => Event::ChannelFail {
                channel: id,
                policy: FailurePolicy::CompleteInFlight,
            },
            // The mid-run `fail_channel` path: Drop-policy failures pushed
            // between ordinary traffic events.
            5 => Event::ChannelFail {
                channel: id,
                policy: FailurePolicy::Drop,
            },
            // The mid-run `repair_channel` path.
            _ => Event::ChannelRepair { channel: id },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The calendar queue's pop sequence and high-water mark match the
        /// reference `BinaryHeap` under random interleaved push/pop/clear,
        /// including same-timestamp ties, out-of-order future days, buckets
        /// shared across ring revolutions and mid-run ChannelFail pushes.
        #[test]
        fn calendar_pops_match_reference_heap(script in ops()) {
            let mut calendar = EventQueue::new();
            let mut reference = ReferenceQueue::default();
            let mut now = 0u64;
            for (salt, op) in script.into_iter().enumerate() {
                match op {
                    Op::Push { dt, kind } => {
                        let event = event_for(kind, salt);
                        calendar.push(now + dt, event);
                        reference.push(now + dt, event);
                    }
                    Op::PushIntoDay { days, offset, kind } => {
                        let event = event_for(kind, salt);
                        let at = ((now >> WIDTH_SHIFT) + days) * DAY + offset;
                        calendar.push(at, event);
                        reference.push(at, event);
                    }
                    Op::Pop => {
                        let got = calendar.pop();
                        let want = reference.pop();
                        prop_assert_eq!(&got, &want);
                        if let Some((t, _)) = got {
                            now = t; // simulators never travel back in time
                        }
                    }
                    Op::Clear => {
                        calendar.clear();
                        reference = ReferenceQueue::default();
                        now = 0;
                    }
                }
                prop_assert_eq!(calendar.len(), reference.heap.len());
                prop_assert_eq!(calendar.high_water(), reference.peak);
            }
            // Drain both: the tails must agree too.
            loop {
                let got = calendar.pop();
                let want = reference.pop();
                prop_assert_eq!(&got, &want);
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(calendar.is_empty());
        }
    }
}
