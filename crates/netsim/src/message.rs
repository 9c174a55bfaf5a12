//! Messages and their lifecycle inside the simulator.
//!
//! Per-message bookkeeping lives in `MessageSlab`, a struct-of-arrays
//! store: one parallel vector per field instead of one struct per message.
//! The event loop touches only a few fields per event (e.g. a segment
//! arrival reads `segments_out` + `total_segments`, a hop advance
//! reads one path entry), so splitting the fields keeps each event's touch
//! set inside a handful of cache lines — and the paths of all messages
//! share one `u32` arena instead of a heap allocation per message.

use serde::{Deserialize, Serialize};

/// Identifier of a message inside one simulation run.
///
/// The raw value packs the message's slab slot in the low 32 bits and a
/// *generation* tag in the high 32 bits. Slots are recycled by
/// [`crate::NetworkSim::drain_delivered`], but every recycling bumps the
/// slot's generation, so an id handed out before a drain can never alias
/// the slot's next occupant: stale ids simply resolve to `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MessageId(pub u64);

impl MessageId {
    /// Pack a slab slot and its generation into an id.
    pub fn new(slot: u32, generation: u32) -> Self {
        MessageId(((generation as u64) << 32) | slot as u64)
    }

    /// The slab slot this id refers to.
    pub fn slot(&self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    /// The generation of the slot this id was minted for.
    pub fn generation(&self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Lifecycle of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MessageStatus {
    /// Scheduled but the adapter has not started injecting it yet.
    Pending,
    /// At least one segment has been injected, not all delivered.
    InFlight,
    /// Every segment has been delivered to the destination adapter.
    Delivered,
    /// At least one segment hit a failed channel under
    /// [`crate::FailurePolicy::Drop`]; the message will never complete.
    Dropped,
}

/// Sentinel for "not yet" in the `completed_at_ps` / `dropped_at_ps`
/// columns (a simulation can never legitimately reach `u64::MAX` ps).
const NO_TIME: u64 = u64::MAX;

/// Struct-of-arrays message store (see the module docs).
///
/// Slots are addressed by [`MessageId::slot`]; every hot-path access is a
/// vector index. Slots of drained messages are recycled through the free
/// list, which bounds memory on long campaigns; each recycling bumps the
/// slot's generation so a stale id can never alias the new occupant. Paths
/// live as `(start, len)` spans into a shared `u32` arena that is
/// compacted when drained spans dominate it.
#[derive(Debug, Default)]
pub(crate) struct MessageSlab {
    src: Vec<u32>,
    dst: Vec<u32>,
    bytes: Vec<u64>,
    injected_at_ps: Vec<u64>,
    segments_injected: Vec<u64>,
    /// Segments that have left the network: delivered or dropped.
    segments_out: Vec<u64>,
    total_segments: Vec<u64>,
    completed_at_ps: Vec<u64>,
    dropped_at_ps: Vec<u64>,
    path_start: Vec<u32>,
    path_len: Vec<u16>,
    generations: Vec<u32>,
    live: Vec<bool>,
    /// Concatenated per-message paths (dense channel indices).
    arena: Vec<u32>,
    /// Arena entries belonging to drained slots (compaction trigger).
    arena_dead: usize,
    free_slots: Vec<u32>,
    live_count: usize,
}

impl MessageSlab {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (not yet drained) messages.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Number of slots ever created (live or recycled).
    #[cfg(test)]
    pub fn num_slots(&self) -> usize {
        self.live.len()
    }

    /// Forget every message and recycle the slab to its freshly-constructed
    /// state, keeping the column and arena allocations. Slot numbering and
    /// generations restart from zero exactly as in a new slab, so a reset
    /// simulator mints byte-identical [`MessageId`]s.
    pub fn clear(&mut self) {
        self.src.clear();
        self.dst.clear();
        self.bytes.clear();
        self.injected_at_ps.clear();
        self.segments_injected.clear();
        self.segments_out.clear();
        self.total_segments.clear();
        self.completed_at_ps.clear();
        self.dropped_at_ps.clear();
        self.path_start.clear();
        self.path_len.clear();
        self.generations.clear();
        self.live.clear();
        self.arena.clear();
        self.arena_dead = 0;
        self.free_slots.clear();
        self.live_count = 0;
    }

    /// Claim a slot (recycled if one is free) and fill every column.
    /// `completed_at_ps` is pre-set for local copies that never enter the
    /// network. One argument per column: bundling them into a parameter
    /// struct would only move the same field list one call frame up.
    #[allow(clippy::too_many_arguments)]
    pub fn alloc(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        injected_at_ps: u64,
        total_segments: u64,
        path: &[u32],
        completed_at_ps: Option<u64>,
    ) -> MessageId {
        assert!(
            path.len() <= u16::MAX as usize,
            "paths longer than {} hops are unsupported",
            u16::MAX
        );
        let start = self.arena.len();
        assert!(
            start + path.len() <= u32::MAX as usize,
            "path arena exhausted"
        );
        self.arena.extend_from_slice(path);
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                let slot = slot as usize;
                self.src[slot] = src as u32;
                self.dst[slot] = dst as u32;
                self.bytes[slot] = bytes;
                self.injected_at_ps[slot] = injected_at_ps;
                self.segments_injected[slot] = 0;
                self.segments_out[slot] = 0;
                self.total_segments[slot] = total_segments;
                self.completed_at_ps[slot] = completed_at_ps.unwrap_or(NO_TIME);
                self.dropped_at_ps[slot] = NO_TIME;
                self.path_start[slot] = start as u32;
                self.path_len[slot] = path.len() as u16;
                self.live[slot] = true;
                slot
            }
            None => {
                self.src.push(src as u32);
                self.dst.push(dst as u32);
                self.bytes.push(bytes);
                self.injected_at_ps.push(injected_at_ps);
                self.segments_injected.push(0);
                self.segments_out.push(0);
                self.total_segments.push(total_segments);
                self.completed_at_ps
                    .push(completed_at_ps.unwrap_or(NO_TIME));
                self.dropped_at_ps.push(NO_TIME);
                self.path_start.push(start as u32);
                self.path_len.push(path.len() as u16);
                self.generations.push(0);
                self.live.push(true);
                self.live.len() - 1
            }
        };
        self.live_count += 1;
        MessageId::new(slot as u32, self.generations[slot])
    }

    /// True when `id`'s generation matches its slot's current occupant and
    /// the slot is live.
    #[inline]
    pub fn id_is_current(&self, id: MessageId) -> bool {
        let slot = id.slot();
        slot < self.live.len() && self.generations[slot] == id.generation() && self.live[slot]
    }

    #[inline]
    pub fn src(&self, slot: usize) -> usize {
        self.src[slot] as usize
    }

    #[inline]
    pub fn dst(&self, slot: usize) -> usize {
        self.dst[slot] as usize
    }

    #[inline]
    pub fn bytes(&self, slot: usize) -> u64 {
        self.bytes[slot]
    }

    #[inline]
    pub fn injected_at_ps(&self, slot: usize) -> u64 {
        self.injected_at_ps[slot]
    }

    #[cfg(test)]
    pub fn total_segments(&self, slot: usize) -> u64 {
        self.total_segments[slot]
    }

    /// The full path span of a slot.
    #[cfg(test)]
    pub fn path(&self, slot: usize) -> &[u32] {
        let start = self.path_start[slot] as usize;
        &self.arena[start..start + self.path_len[slot] as usize]
    }

    /// Number of hops in the slot's path.
    #[inline]
    pub fn path_hops(&self, slot: usize) -> usize {
        self.path_len[slot] as usize
    }

    /// The dense channel index of hop `hop` of the slot's path.
    #[inline]
    pub fn path_channel(&self, slot: usize, hop: usize) -> usize {
        debug_assert!(hop < self.path_len[slot] as usize);
        self.arena[self.path_start[slot] as usize + hop] as usize
    }

    /// Hand out the next segment index of the slot (bumps the injected
    /// count).
    #[inline]
    pub fn next_segment_index(&mut self, slot: usize) -> u64 {
        let index = self.segments_injected[slot];
        self.segments_injected[slot] = index + 1;
        index
    }

    /// True once every segment has been handed to the injection queue.
    #[inline]
    pub fn fully_injected(&self, slot: usize) -> bool {
        self.segments_injected[slot] >= self.total_segments[slot]
    }

    /// Count one delivered segment; true when no segment of the message is
    /// left to arrive (for a message that was never dropped: when every
    /// segment has been delivered).
    #[inline]
    pub fn deliver_segment(&mut self, slot: usize) -> bool {
        self.segments_out[slot] += 1;
        debug_assert!(self.segments_out[slot] <= self.total_segments[slot]);
        self.segments_out[slot] == self.total_segments[slot]
    }

    #[cfg(test)]
    pub fn completed_at(&self, slot: usize) -> Option<u64> {
        match self.completed_at_ps[slot] {
            NO_TIME => None,
            t => Some(t),
        }
    }

    #[inline]
    pub fn set_completed(&mut self, slot: usize, at_ps: u64) {
        debug_assert_ne!(at_ps, NO_TIME);
        self.completed_at_ps[slot] = at_ps;
    }

    #[inline]
    pub fn dropped_at(&self, slot: usize) -> Option<u64> {
        match self.dropped_at_ps[slot] {
            NO_TIME => None,
            t => Some(t),
        }
    }

    /// Count one segment of the slot dropped at `at_ps` and mark the
    /// message dropped; true if this was the first drop.
    #[inline]
    pub fn mark_dropped(&mut self, slot: usize, at_ps: u64) -> bool {
        debug_assert_ne!(at_ps, NO_TIME);
        self.segments_out[slot] += 1;
        if self.dropped_at_ps[slot] == NO_TIME {
            self.dropped_at_ps[slot] = at_ps;
            true
        } else {
            false
        }
    }

    /// Current lifecycle status of a live slot.
    pub fn status(&self, slot: usize) -> MessageStatus {
        if self.dropped_at_ps[slot] != NO_TIME {
            MessageStatus::Dropped
        } else if self.completed_at_ps[slot] != NO_TIME {
            MessageStatus::Delivered
        } else if self.segments_injected[slot] > 0 {
            MessageStatus::InFlight
        } else {
            MessageStatus::Pending
        }
    }

    /// True when the slot's message is finished (delivered or dropped) and
    /// none of its segments is still in the network. A dropped message's
    /// segments past the failure keep travelling and reading its path, so
    /// its slot may only be recycled once the last of them has left.
    #[inline]
    pub fn is_drainable(&self, slot: usize) -> bool {
        (self.completed_at_ps[slot] != NO_TIME || self.dropped_at_ps[slot] != NO_TIME)
            && self.segments_out[slot] == self.segments_injected[slot]
    }

    /// Recycle every drainable slot whose raw id is *not* in `keep`
    /// (sorted); returns how many were drained. Freed generations are
    /// bumped, and the path arena is compacted once drained spans dominate
    /// it.
    pub fn drain_finished(&mut self, keep: &[u64]) -> usize {
        debug_assert!(keep.is_sorted());
        let mut drained = 0;
        for slot in 0..self.live.len() {
            if !self.live[slot] || !self.is_drainable(slot) {
                continue;
            }
            let id = MessageId::new(slot as u32, self.generations[slot]);
            if keep.binary_search(&id.0).is_ok() {
                continue;
            }
            self.live[slot] = false;
            self.generations[slot] = self.generations[slot].wrapping_add(1);
            self.arena_dead += self.path_len[slot] as usize;
            self.free_slots.push(slot as u32);
            self.live_count -= 1;
            drained += 1;
        }
        self.maybe_compact_arena();
        drained
    }

    /// Rebuild the arena from the live spans once dead entries dominate.
    fn maybe_compact_arena(&mut self) {
        if self.arena.len() < 1024 || self.arena_dead * 2 <= self.arena.len() {
            return;
        }
        let mut arena = Vec::with_capacity(self.arena.len() - self.arena_dead);
        for slot in 0..self.live.len() {
            if !self.live[slot] {
                continue;
            }
            let start = self.path_start[slot] as usize;
            let len = self.path_len[slot] as usize;
            self.path_start[slot] = arena.len() as u32;
            arena.extend_from_slice(&self.arena[start..start + len]);
        }
        self.arena = arena;
        self.arena_dead = 0;
    }
}

/// A segment in flight: which message it belongs to, its index and how far
/// along the path it has progressed. Deliberately compact — segments ride
/// inside queued events, so their size sets the event queue's memory
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    pub message: MessageId,
    /// Segment index within its message.
    pub index: u32,
    /// Payload bytes of this segment (one link transfer, never a whole
    /// message).
    pub bytes: u32,
    /// Index into the message's path of the channel the segment is currently
    /// queued for / traversing.
    pub hop: u16,
    /// Dense channel index whose downstream buffer slot this segment is
    /// currently occupying (`None` while still at the source adapter),
    /// stored as channel + 1 so the `Option` rides in the niche. Segments
    /// are the payload of most queued events: the event queue writes each
    /// entry once on push and reads it once on pop (an in-order day becomes
    /// the agenda whole), and copies it again only for a day that must be
    /// sorted. The narrow field types keep a queued `(time, event)` entry
    /// at 40 bytes.
    holds_buffer_of: Option<std::num::NonZeroU32>,
}

impl Segment {
    pub fn new(message: MessageId, index: u64, bytes: u64, hop: usize) -> Segment {
        Segment {
            message,
            index: u32::try_from(index).expect("segment index fits u32"),
            bytes: u32::try_from(bytes).expect("segment bytes fit u32"),
            hop: u16::try_from(hop).expect("hop fits u16"),
            holds_buffer_of: None,
        }
    }

    /// The channel whose downstream buffer slot this segment occupies.
    pub fn holds_buffer_of(&self) -> Option<usize> {
        self.holds_buffer_of.map(|c| c.get() as usize - 1)
    }

    pub fn set_holds_buffer_of(&mut self, channel: usize) {
        let encoded = u32::try_from(channel + 1).expect("channel index fits u32");
        self.holds_buffer_of = std::num::NonZeroU32::new(encoded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_transitions() {
        let mut slab = MessageSlab::new();
        let id = slab.alloc(0, 1, 4096, 0, 4, &[0, 1, 2], None);
        let slot = id.slot();
        assert_eq!(slab.status(slot), MessageStatus::Pending);
        assert_eq!(slab.total_segments(slot), 4);
        assert_eq!(slab.next_segment_index(slot), 0);
        assert_eq!(slab.status(slot), MessageStatus::InFlight);
        assert!(!slab.fully_injected(slot));
        for expect in 1..4u64 {
            assert_eq!(slab.next_segment_index(slot), expect);
        }
        assert!(slab.fully_injected(slot));
        for _ in 0..3 {
            assert!(!slab.deliver_segment(slot));
        }
        assert!(slab.deliver_segment(slot), "fourth segment completes");
        slab.set_completed(slot, 123);
        assert_eq!(slab.status(slot), MessageStatus::Delivered);
        assert_eq!(slab.completed_at(slot), Some(123));
        assert!(slab.mark_dropped(slot, 200));
        assert!(!slab.mark_dropped(slot, 300), "only the first drop counts");
        assert_eq!(slab.status(slot), MessageStatus::Dropped);
        assert_eq!(slab.dropped_at(slot), Some(200));
    }

    #[test]
    fn message_id_packs_slot_and_generation() {
        let id = MessageId::new(7, 3);
        assert_eq!(id.slot(), 7);
        assert_eq!(id.generation(), 3);
        assert_ne!(id, MessageId::new(7, 4));
        // Generation-0 ids are numerically the bare slot (the pre-tag
        // convention tests rely on).
        assert_eq!(MessageId::new(5, 0), MessageId(5));
    }

    #[test]
    fn slab_recycles_slots_under_bumped_generations() {
        let mut slab = MessageSlab::new();
        let a = slab.alloc(0, 1, 1024, 0, 1, &[3, 4], None);
        let b = slab.alloc(2, 3, 1024, 0, 1, &[5], None);
        assert_eq!((a, b), (MessageId(0), MessageId(1)));
        assert_eq!(slab.live_count(), 2);
        assert_eq!(slab.path(a.slot()), &[3, 4]);
        assert_eq!(slab.path_channel(a.slot(), 1), 4);

        slab.set_completed(a.slot(), 10);
        slab.set_completed(b.slot(), 20);
        assert_eq!(slab.drain_finished(&[]), 2);
        assert_eq!(slab.live_count(), 0);
        assert!(!slab.id_is_current(a));

        // LIFO recycling under generation 1: ids never alias.
        let c = slab.alloc(4, 5, 1024, 0, 1, &[6, 7, 8], None);
        assert_eq!((c.slot(), c.generation()), (1, 1));
        assert_eq!(slab.num_slots(), 2, "recycling must not grow the slab");
        assert!(slab.id_is_current(c));
        assert!(!slab.id_is_current(b));
        assert_eq!(slab.path(c.slot()), &[6, 7, 8]);
    }

    #[test]
    fn drain_keeps_listed_ids_and_compaction_preserves_paths() {
        let mut slab = MessageSlab::new();
        // Enough arena traffic to cross the compaction threshold.
        let mut kept_ids = Vec::new();
        for round in 0..64u32 {
            let path: Vec<u32> = (0..16).map(|h| round * 100 + h).collect();
            let id = slab.alloc(0, 1, 1024, 0, 1, &path, None);
            slab.set_completed(id.slot(), 1 + round as u64);
            if round % 8 == 0 {
                kept_ids.push(id);
            }
        }
        let mut keep: Vec<u64> = kept_ids.iter().map(|id| id.0).collect();
        keep.sort_unstable();
        let drained = slab.drain_finished(&keep);
        assert_eq!(drained, 64 - kept_ids.len());
        // The kept slots survive with their paths intact even though the
        // arena was compacted underneath them.
        for id in kept_ids {
            assert!(slab.id_is_current(id));
            let path = slab.path(id.slot());
            assert_eq!(path.len(), 16);
            assert!(path[0].is_multiple_of(800), "path head survives compaction");
        }
    }

    #[test]
    fn local_copies_alloc_as_completed() {
        let mut slab = MessageSlab::new();
        let id = slab.alloc(3, 3, 512, 77, 0, &[], Some(77));
        assert_eq!(slab.status(id.slot()), MessageStatus::Delivered);
        assert_eq!(slab.completed_at(id.slot()), Some(77));
        assert_eq!(slab.path_hops(id.slot()), 0);
    }
}
