//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence-number)`: two events scheduled for
//! the same instant fire in the order they were scheduled, which makes every
//! simulation replayable bit-for-bit from its seed.
//!
//! # Event queue internals
//!
//! [`EventQueue`] is a **hierarchical timing wheel** (calendar queue), not a
//! binary heap. Eight levels of 64 slots each cover exponentially coarser
//! windows of future time: level `l` buckets timestamps by bits
//! `[6l, 6l+6)` of their nanosecond value, so level 0 slots are 1 ns wide,
//! level 1 slots 64 ns, up to level 7 slots of 2^42 ns. An event is placed at
//! the *smallest* level whose parent window (bits above `6(l+1)`) matches the
//! current time — equivalently, `level = (bitlen(at ^ now) - 1) / 6`. Events
//! more than a top-level window (2^48 ns ≈ 78 h of simulated time) ahead go
//! to a sorted spill heap and migrate into the wheel when the clock reaches
//! their window.
//!
//! Placement relative to `now` gives the key invariant: an entry stored at
//! level `l` always shares its level-`l` parent window with `now`, and since
//! `now` only advances toward pending timestamps the invariant survives both
//! pops and [`EventQueue::advance_to`]. Two consequences make every
//! operation cheap and wrap-free:
//!
//! * within a level, slot index orders timestamps, so the earliest entry of
//!   a level lives in its lowest occupied slot (found with one
//!   `trailing_zeros` on the level's occupancy bitmap);
//! * a level-0 slot holds exactly one timestamp, so draining it yields a
//!   complete same-instant batch.
//!
//! A pop refills the internal *ready batch*: find the minimum pending
//! timestamp `T` across levels, advance `now` to `T`, then drain slot
//! `index_l(T)` at every level — entries equal to `T` fire, later entries
//! cascade to strictly lower levels (their placement level w.r.t. the new
//! `now` is provably smaller, so total cascade work per event is bounded by
//! the number of levels over its lifetime).
//!
//! **Determinism argument.** The wheel reproduces the heap's
//! `(time, seq)` order exactly: the refill collects *all* entries at `T`
//! (anything at `T` stored at level `l` must sit in slot `index_l(T)`),
//! sorts them by sequence number (cascading can interleave arrival orders
//! across levels), and serves them FIFO. Events scheduled *at* the ready
//! batch's own timestamp while it drains are inserted at level 0 and picked
//! up by the next refill of the same instant — their sequence numbers exceed
//! everything already in the batch, so overall order is still `(time, seq)`.
//! Replays are therefore bit-for-bit identical to the reference
//! [`HeapEventQueue`], which property tests assert under arbitrary
//! interleavings.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Slot-index width in bits; each level has `2^SLOT_BITS` slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels.
const LEVELS: usize = 8;
/// Timestamps whose XOR with `now` needs more than this many bits spill.
const TOP_BITS: u32 = SLOT_BITS * LEVELS as u32;

struct Entry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// Spill-heap wrapper ordering entries as a min-heap on `(at, seq)`.
struct SpillEntry<E>(Entry<E>);

impl<E> PartialEq for SpillEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<E> Eq for SpillEntry<E> {}

impl<E> PartialOrd for SpillEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for SpillEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (at, seq) pops first.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// A deterministic future-event list backed by a hierarchical timing wheel
/// (see the module docs for the structure and determinism argument).
///
/// `now` advances monotonically as events are popped. Scheduling an event in
/// the past is a logic error and panics — silent time travel corrupts
/// statistics in ways that are extremely painful to debug.
pub struct EventQueue<E> {
    /// `LEVELS * SLOTS` buckets, flattened; slot vectors keep their capacity
    /// across drains so steady-state scheduling does not allocate.
    slots: Box<[Vec<Entry<E>>]>,
    /// One occupancy bitmap per level; bit `s` set iff slot `s` is nonempty.
    occupied: [u64; LEVELS],
    /// Cached minimum timestamp per slot (`u64::MAX` when empty). Exact by
    /// construction: slots gain entries only through `place` (which
    /// min-updates) and empty only through whole-slot drains (which reset) —
    /// so `peek_time` and the refill minimum scan stay O(levels) even when a
    /// high-level slot parks tens of thousands of far-future entries.
    slot_min: Box<[u64]>,
    /// Far-future events (more than `2^TOP_BITS` ns ahead of `now`).
    spill: BinaryHeap<SpillEntry<E>>,
    /// Events at `ready_time`, in seq order, currently being served.
    ready: VecDeque<E>,
    ready_time: u64,
    /// Scratch for cascading a drained slot (kept to reuse its capacity).
    cascade_scratch: Vec<Entry<E>>,
    /// Scratch for assembling a same-instant batch before sorting by seq.
    batch_scratch: Vec<Entry<E>>,
    seq: u64,
    now: u64,
    popped: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            slot_min: vec![u64::MAX; LEVELS * SLOTS].into_boxed_slice(),
            spill: BinaryHeap::new(),
            ready: VecDeque::new(),
            ready_time: 0,
            cascade_scratch: Vec::new(),
            batch_scratch: Vec::new(),
            seq: 0,
            now: 0,
            popped: 0,
            len: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        SimTime::from_ns(self.now)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events fired so far.
    pub fn fired(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before [`EventQueue::now`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at.as_ns() >= self.now,
            "scheduled event in the past: at={at} now={}",
            SimTime::from_ns(self.now)
        );
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.place(Entry {
            at: at.as_ns(),
            seq,
            event,
        });
    }

    /// Schedule `event` after a delay relative to `now`.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule_at(SimTime::from_ns(self.now) + delay, event);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.ready.is_empty() {
            return Some(SimTime::from_ns(self.ready_time));
        }
        if self.len == 0 {
            return None;
        }
        let mut best = u64::MAX;
        for (level, &occ) in self.occupied.iter().enumerate() {
            if occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                best = best.min(self.slot_min[level * SLOTS + slot]);
            }
        }
        if let Some(head) = self.spill.peek() {
            best = best.min(head.0.at);
        }
        debug_assert_ne!(best, u64::MAX);
        Some(SimTime::from_ns(best))
    }

    /// Advance `now` to `t` without firing anything. A no-op when `t` is not
    /// ahead of `now`. Panics if an event is pending before `t` (that event
    /// must be popped first).
    pub fn advance_to(&mut self, t: SimTime) {
        if t.as_ns() <= self.now {
            return;
        }
        if let Some(at) = self.peek_time() {
            assert!(at >= t, "advance_to({t}) would skip event at {at}");
        }
        self.now = t.as_ns();
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ready.is_empty() && !self.refill_ready() {
            return None;
        }
        let event = self.ready.pop_front().expect("refilled ready batch");
        self.popped += 1;
        self.len -= 1;
        Some((SimTime::from_ns(self.ready_time), event))
    }

    /// Pop **every** event sharing the next pending timestamp into `out`
    /// (cleared first, refilled in FIFO order), advancing `now` to that
    /// timestamp. Returns the batch's timestamp, or `None` when the queue is
    /// empty.
    ///
    /// This is the batched twin of [`EventQueue::pop`]: one traversal of the
    /// priority structure serves the whole same-instant burst, so callers
    /// dispatching simultaneous events (a common pattern in packet-level
    /// simulations) touch the wheel once per distinct timestamp rather than
    /// once per event.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        if self.ready.is_empty() && !self.refill_ready() {
            return None;
        }
        self.popped += self.ready.len() as u64;
        self.len -= self.ready.len();
        out.extend(self.ready.drain(..));
        Some(SimTime::from_ns(self.ready_time))
    }

    /// Run the event loop until the queue drains or `end` is passed, invoking
    /// `f(queue, state, time, event)` for each event. Events with timestamps
    /// strictly after `end` are left in the queue (and `now` stops at `end`).
    pub fn run_until<S>(
        &mut self,
        state: &mut S,
        end: SimTime,
        mut f: impl FnMut(&mut Self, &mut S, SimTime, E),
    ) {
        while let Some(at) = self.peek_time() {
            if at > end {
                self.now = self.now.max(end.as_ns());
                return;
            }
            let (t, e) = self.pop().expect("peeked entry must pop");
            f(self, state, t, e);
        }
        if self.now < end.as_ns() {
            self.now = end.as_ns();
        }
    }

    /// Batched twin of [`EventQueue::run_until`]: invokes
    /// `f(queue, state, time, batch)` once per distinct timestamp with every
    /// event at that instant, in scheduling order. End-boundary semantics
    /// match `run_until` exactly — batches strictly after `end` stay pending
    /// and `now` clamps to `end`. The batch vector is recycled between
    /// calls; handlers normally consume it with `drain(..)`, but anything
    /// left over is discarded.
    ///
    /// A handler may schedule new events at the batch's own timestamp; they
    /// form a *subsequent* batch at the same instant (their sequence numbers
    /// are larger, so FIFO order is preserved) rather than extending the
    /// batch being processed — which also means self-rescheduling handlers
    /// terminate as long as they stop emitting events.
    pub fn run_until_batched<S>(
        &mut self,
        state: &mut S,
        end: SimTime,
        mut f: impl FnMut(&mut Self, &mut S, SimTime, &mut Vec<E>),
    ) {
        let mut batch = Vec::new();
        while let Some(at) = self.peek_time() {
            if at > end {
                self.now = self.now.max(end.as_ns());
                return;
            }
            let t = self.pop_batch(&mut batch).expect("peeked entry must pop");
            f(self, state, t, &mut batch);
        }
        if self.now < end.as_ns() {
            self.now = end.as_ns();
        }
    }

    /// Remove and return every pending event in firing order, without
    /// advancing `now` or counting the events as fired.
    ///
    /// Useful to inspect or hand off stragglers after an early-exited
    /// [`EventQueue::run_until`]:
    ///
    /// ```
    /// use ipipe_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_at(SimTime::from_us(1), "on-time");
    /// q.schedule_at(SimTime::from_us(5), "straggler");
    /// q.run_until(&mut (), SimTime::from_us(2), |_, _, _, _| {});
    /// assert_eq!(q.drain_pending(), vec![(SimTime::from_us(5), "straggler")]);
    /// assert!(q.is_empty());
    /// assert_eq!(q.now(), SimTime::from_us(2)); // unchanged by the drain
    /// ```
    pub fn drain_pending(&mut self) -> Vec<(SimTime, E)> {
        let saved_now = self.now;
        let saved_popped = self.popped;
        let mut out = Vec::with_capacity(self.len);
        while let Some(pair) = self.pop() {
            out.push(pair);
        }
        self.now = saved_now;
        self.popped = saved_popped;
        out
    }

    /// Discard every pending event. `now`, the fired-event counter, and the
    /// sequence counter are unchanged.
    ///
    /// ```
    /// use ipipe_sim::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_at(SimTime::from_us(3), 1u32);
    /// q.schedule_at(SimTime::from_ms(900), 2u32);
    /// q.clear();
    /// assert!(q.is_empty());
    /// assert_eq!(q.pop(), None);
    /// ```
    pub fn clear(&mut self) {
        for (level, occ) in self.occupied.iter_mut().enumerate() {
            let mut bits = *occ;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.slots[level * SLOTS + slot].clear();
                self.slot_min[level * SLOTS + slot] = u64::MAX;
            }
            *occ = 0;
        }
        self.spill.clear();
        self.ready.clear();
        self.len = 0;
    }

    /// Insert an entry into the wheel level (or spill heap) dictated by its
    /// distance from `now`. The caller accounts for `len`.
    fn place(&mut self, entry: Entry<E>) {
        let diff = entry.at ^ self.now;
        let bitlen = u64::BITS - diff.leading_zeros();
        if bitlen > TOP_BITS {
            self.spill.push(SpillEntry(entry));
            return;
        }
        let level = if bitlen <= SLOT_BITS {
            0
        } else {
            ((bitlen - 1) / SLOT_BITS) as usize
        };
        let slot = ((entry.at >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
        let idx = level * SLOTS + slot;
        self.occupied[level] |= 1 << slot;
        if entry.at < self.slot_min[idx] {
            self.slot_min[idx] = entry.at;
        }
        self.slots[idx].push(entry);
    }

    /// True when every wheel level is empty (the spill heap may not be).
    fn wheel_is_empty(&self) -> bool {
        self.occupied.iter().all(|&occ| occ == 0)
    }

    /// Rebuild the ready batch from the earliest pending timestamp.
    /// Returns false when nothing is pending. On success `now` has advanced
    /// to the batch timestamp and `ready` holds its events in seq order.
    fn refill_ready(&mut self) -> bool {
        debug_assert!(self.ready.is_empty());
        if self.len == 0 {
            return false;
        }
        // An empty wheel means the next event sits in the spill heap: jump
        // to its window so the migration below picks it up.
        if self.wheel_is_empty() {
            let head_at = self.spill.peek().expect("len > 0 with empty wheel").0.at;
            debug_assert!(head_at >= self.now);
            self.now = head_at;
        }
        // Migrate spill entries whose top-level window the clock has reached.
        // Afterwards every spill entry is provably later than the entire
        // wheel, so the minimum scan below can ignore the spill.
        while let Some(head) = self.spill.peek() {
            if head.0.at >> TOP_BITS == self.now >> TOP_BITS {
                let entry = self.spill.pop().expect("peeked head").0;
                self.place(entry);
            } else {
                break;
            }
        }
        // Earliest pending timestamp: each level's candidate is its lowest
        // occupied slot (slot index orders time within a level).
        let mut t_min = u64::MAX;
        for (level, &occ) in self.occupied.iter().enumerate() {
            if occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                t_min = t_min.min(self.slot_min[level * SLOTS + slot]);
            }
        }
        debug_assert_ne!(t_min, u64::MAX);
        debug_assert!(t_min >= self.now);
        self.now = t_min;
        // Collect the batch: anything at t_min stored at level l must sit in
        // slot index_l(t_min). Drain that slot at every level; entries after
        // t_min cascade to strictly lower levels relative to the new `now`.
        let mut batch = std::mem::take(&mut self.batch_scratch);
        let mut scratch = std::mem::take(&mut self.cascade_scratch);
        debug_assert!(batch.is_empty() && scratch.is_empty());
        for level in (0..LEVELS).rev() {
            let slot = ((t_min >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
            if self.occupied[level] & (1 << slot) == 0 {
                continue;
            }
            self.occupied[level] &= !(1 << slot);
            self.slot_min[level * SLOTS + slot] = u64::MAX;
            scratch.append(&mut self.slots[level * SLOTS + slot]);
            for entry in scratch.drain(..) {
                if entry.at == t_min {
                    batch.push(entry);
                } else {
                    debug_assert!(entry.at > t_min);
                    self.place(entry);
                }
            }
        }
        // Cascading interleaves arrival orders across levels; restore FIFO.
        batch.sort_unstable_by_key(|e| e.seq);
        self.ready_time = t_min;
        self.ready.extend(batch.drain(..).map(|e| e.event));
        self.batch_scratch = batch;
        self.cascade_scratch = scratch;
        debug_assert!(!self.ready.is_empty());
        true
    }
}

/// The previous `BinaryHeap`-backed event queue, kept as a **reference
/// implementation**: differential property tests replay arbitrary operation
/// sequences against it, and the queue-kind differential runs whole
/// scenarios on it. Semantics are identical to [`EventQueue`].
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<SpillEntry<E>>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events fired so far.
    pub fn fired(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` at absolute time `at`. Panics if `at < now`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(SpillEntry(Entry {
            at: at.as_ns(),
            seq,
            event,
        }));
    }

    /// Schedule `event` after a delay relative to `now`.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| SimTime::from_ns(e.0.at))
    }

    /// Advance `now` to `t` without firing anything; no-op when `t <= now`.
    /// Panics if an event is pending before `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        if let Some(at) = self.peek_time() {
            assert!(at >= t, "advance_to({t}) would skip event at {at}");
        }
        self.now = t;
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let SpillEntry(entry) = self.heap.pop()?;
        debug_assert!(entry.at >= self.now.as_ns());
        self.now = SimTime::from_ns(entry.at);
        self.popped += 1;
        Some((self.now, entry.event))
    }

    /// Pop every event sharing the next pending timestamp into `out`
    /// (cleared first, refilled in FIFO order). Semantics match
    /// [`EventQueue::pop_batch`] exactly, so the two queues are drop-in
    /// interchangeable behind [`AnyEventQueue`].
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let (t, first) = self.pop()?;
        out.push(first);
        while self.peek_time() == Some(t) {
            let (_, e) = self.pop().expect("peeked entry must pop");
            out.push(e);
        }
        Some(t)
    }

    /// Remove and return every pending event in firing order, without
    /// advancing `now` or counting the events as fired. Semantics match
    /// [`EventQueue::drain_pending`].
    pub fn drain_pending(&mut self) -> Vec<(SimTime, E)> {
        let saved_now = self.now;
        let saved_popped = self.popped;
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(pair) = self.pop() {
            out.push(pair);
        }
        self.now = saved_now;
        self.popped = saved_popped;
        out
    }
}

/// Which event-queue implementation backs a simulation run.
///
/// The differential oracle (see DESIGN.md §11) re-runs scenarios under both
/// kinds and diffs the observability exports byte-for-byte: the queue is a
/// mechanism choice that must never change results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The hierarchical timing wheel ([`EventQueue`]) — the production queue.
    #[default]
    Wheel,
    /// The `BinaryHeap` reference implementation ([`HeapEventQueue`]).
    Heap,
}

/// An event queue that is either the timing wheel or the heap reference,
/// selected at construction. The match in each method is predictable and
/// branch-free in practice (the discriminant never changes after
/// construction), so the wheel path stays within measurement noise of using
/// [`EventQueue`] directly.
pub enum AnyEventQueue<E> {
    /// Timing-wheel backed.
    Wheel(EventQueue<E>),
    /// Binary-heap backed (reference implementation).
    Heap(HeapEventQueue<E>),
}

impl<E> AnyEventQueue<E> {
    /// An empty queue of the given kind at time zero.
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Wheel => AnyEventQueue::Wheel(EventQueue::new()),
            QueueKind::Heap => AnyEventQueue::Heap(HeapEventQueue::new()),
        }
    }

    /// Which implementation backs this queue.
    pub fn kind(&self) -> QueueKind {
        match self {
            AnyEventQueue::Wheel(_) => QueueKind::Wheel,
            AnyEventQueue::Heap(_) => QueueKind::Heap,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        match self {
            AnyEventQueue::Wheel(q) => q.now(),
            AnyEventQueue::Heap(q) => q.now(),
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            AnyEventQueue::Wheel(q) => q.len(),
            AnyEventQueue::Heap(q) => q.len(),
        }
    }

    /// True when no events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events fired so far.
    #[inline]
    pub fn fired(&self) -> u64 {
        match self {
            AnyEventQueue::Wheel(q) => q.fired(),
            AnyEventQueue::Heap(q) => q.fired(),
        }
    }

    /// Schedule `event` at absolute time `at`. Panics if `at < now`.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        match self {
            AnyEventQueue::Wheel(q) => q.schedule_at(at, event),
            AnyEventQueue::Heap(q) => q.schedule_at(at, event),
        }
    }

    /// Schedule `event` after a delay relative to `now`.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        match self {
            AnyEventQueue::Wheel(q) => q.schedule_after(delay, event),
            AnyEventQueue::Heap(q) => q.schedule_after(delay, event),
        }
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match self {
            AnyEventQueue::Wheel(q) => q.peek_time(),
            AnyEventQueue::Heap(q) => q.peek_time(),
        }
    }

    /// Advance `now` to `t` without firing anything; no-op when `t <= now`.
    /// Panics if an event is pending before `t`.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) {
        match self {
            AnyEventQueue::Wheel(q) => q.advance_to(t),
            AnyEventQueue::Heap(q) => q.advance_to(t),
        }
    }

    /// Pop the next event, advancing `now` to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            AnyEventQueue::Wheel(q) => q.pop(),
            AnyEventQueue::Heap(q) => q.pop(),
        }
    }

    /// Pop every event sharing the next pending timestamp into `out`.
    #[inline]
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        match self {
            AnyEventQueue::Wheel(q) => q.pop_batch(out),
            AnyEventQueue::Heap(q) => q.pop_batch(out),
        }
    }

    /// Remove and return every pending event in firing order without
    /// advancing `now` (see [`EventQueue::drain_pending`]).
    pub fn drain_pending(&mut self) -> Vec<(SimTime, E)> {
        match self {
            AnyEventQueue::Wheel(q) => q.drain_pending(),
            AnyEventQueue::Heap(q) => q.drain_pending(),
        }
    }
}

/// A deterministic merge buffer: a min-heap of totally ordered entries.
///
/// The sharded cluster runtime parks in-flight cross-shard arrivals here,
/// keyed by a total order (arrival time, destination, source, per-source
/// sequence) so that draining the pool at each simulated instant resolves
/// arrivals identically for every shard count. It is a thin
/// `BinaryHeap<Reverse<T>>` wrapper; the determinism comes from `T`'s `Ord`
/// being total over all entries ever co-resident (give every entry a unique
/// tiebreak sequence).
#[derive(Debug)]
pub struct MergePool<T: Ord> {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<T>>,
}

impl<T: Ord> Default for MergePool<T> {
    fn default() -> Self {
        MergePool::new()
    }
}

impl<T: Ord> MergePool<T> {
    /// An empty pool.
    pub fn new() -> MergePool<T> {
        MergePool {
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// Insert an entry.
    #[inline]
    pub fn push(&mut self, entry: T) {
        self.heap.push(std::cmp::Reverse(entry));
    }

    /// The smallest entry, if any.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.heap.peek().map(|r| &r.0)
    }

    /// Remove and return the smallest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|r| r.0)
    }

    /// Number of parked entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Drain all entries in ascending order.
    pub fn drain_sorted(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

/// Work/span accounting for an epoch-synchronized sharded run.
///
/// Each lockstep epoch processes some events on every shard; the *critical
/// path* of the run is the sum over epochs of the busiest shard's event
/// count — the events a perfectly parallel machine would still have to
/// execute serially. `speedup()` = total events / critical path is the
/// upper bound on wall-clock speedup the sharding exposes, independent of
/// how many cores the host actually has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Lockstep epochs executed.
    pub epochs: u64,
    /// Events processed across all shards.
    pub events: u64,
    /// Sum over epochs of the busiest shard's event count.
    pub critical_path: u64,
}

impl EpochStats {
    /// Record one epoch given each shard's processed-event delta.
    pub fn note(&mut self, per_shard: &[u64]) {
        let total: u64 = per_shard.iter().sum();
        if total == 0 {
            return;
        }
        self.epochs += 1;
        self.events += total;
        self.critical_path += per_shard.iter().copied().max().unwrap_or(0);
    }

    /// Ideal speedup exposed by the sharding: total work over critical
    /// path (1.0 when serial or empty).
    pub fn speedup(&self) -> f64 {
        if self.critical_path == 0 {
            return 1.0;
        }
        self.events as f64 / self.critical_path as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(30), "c");
        q.schedule_at(SimTime::from_us(10), "a");
        q.schedule_at(SimTime::from_us(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_us(30));
        assert_eq!(q.fired(), 3);
    }

    #[test]
    fn merge_pool_drains_in_total_order() {
        let mut p: MergePool<(u64, u16, u64)> = MergePool::new();
        assert!(p.is_empty());
        // Push in scrambled order; drain must be ascending by the full key.
        for e in [(5, 1, 0), (3, 0, 2), (3, 0, 1), (3, 1, 0), (9, 0, 0)] {
            p.push(e);
        }
        assert_eq!(p.len(), 5);
        assert_eq!(p.peek(), Some(&(3, 0, 1)));
        assert_eq!(
            p.drain_sorted(),
            vec![(3, 0, 1), (3, 0, 2), (3, 1, 0), (5, 1, 0), (9, 0, 0)]
        );
        assert!(p.is_empty());
    }

    #[test]
    fn epoch_stats_track_work_and_span() {
        let mut s = EpochStats::default();
        assert_eq!(s.speedup(), 1.0);
        s.note(&[10, 30, 20, 0]); // busiest shard: 30
        s.note(&[0, 0, 0, 0]); // empty epochs don't count
        s.note(&[25, 25, 25, 25]); // busiest shard: 25
        assert_eq!(s.epochs, 2);
        assert_eq!(s.events, 160);
        assert_eq!(s.critical_path, 55);
        assert!((s.speedup() - 160.0 / 55.0).abs() < 1e-12);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_us(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(10), ());
        q.pop();
        q.schedule_at(SimTime::from_us(5), ());
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(10), 1);
        q.pop();
        q.schedule_after(SimTime::from_us(5), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_us(15));
    }

    #[test]
    fn run_until_respects_end_and_allows_rescheduling() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(1), ());
        let mut count = 0u32;
        q.run_until(&mut count, SimTime::from_us(10), |q, count, _t, ()| {
            *count += 1;
            if *count < 100 {
                q.schedule_after(SimTime::from_us(2), ());
            }
        });
        // Events at 1,3,5,7,9 fire; the one at 11 stays pending.
        assert_eq!(count, 5);
        assert_eq!(q.now(), SimTime::from_us(10));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn run_until_advances_now_to_end_when_drained() {
        let mut q: EventQueue<()> = EventQueue::new();
        let mut st = ();
        q.run_until(&mut st, SimTime::from_ms(1), |_, _, _, _| {});
        assert_eq!(q.now(), SimTime::from_ms(1));
    }

    #[test]
    fn far_future_events_spill_and_return() {
        let mut q = EventQueue::new();
        // > 2^48 ns ahead: must take the spill path.
        let far = SimTime::from_ns(1 << 52);
        let near = SimTime::from_us(1);
        q.schedule_at(far, "far");
        q.schedule_at(near, "near");
        q.schedule_at(far, "far2");
        assert_eq!(q.peek_time(), Some(near));
        assert_eq!(q.pop(), Some((near, "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.pop(), Some((far, "far2")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), far);
    }

    #[test]
    fn spill_interleaves_correctly_with_late_wheel_inserts() {
        // Regression for the window-crossing hazard: an event spills, the
        // clock advances into its window, and a *later* event is then
        // scheduled into the wheel. The spilled event must still fire first.
        let mut q = EventQueue::new();
        let spill_at = SimTime::from_ns((1 << 48) + 10);
        q.schedule_at(spill_at, "spilled");
        q.advance_to(SimTime::from_ns((1 << 48) + 1));
        q.schedule_at(SimTime::from_ns((1 << 48) + 20), "wheel");
        assert_eq!(q.peek_time(), Some(spill_at));
        assert_eq!(q.pop(), Some((spill_at, "spilled")));
        assert_eq!(q.pop().map(|(_, e)| e), Some("wheel"));
    }

    #[test]
    fn advance_to_is_a_noop_when_behind_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(10), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_us(10));
        q.advance_to(SimTime::from_us(3));
        assert_eq!(
            q.now(),
            SimTime::from_us(10),
            "advance_to must never rewind"
        );
        q.advance_to(SimTime::from_us(12));
        assert_eq!(q.now(), SimTime::from_us(12));
    }

    #[test]
    fn stale_higher_level_entries_still_fire_first() {
        // An entry placed at a high level can become "stale" (closer to now
        // than its level suggests) after advance_to. The min scan must still
        // prefer it over younger level-0 entries.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(130), "stale"); // level >= 1 at now=0
        q.advance_to(SimTime::from_ns(128)); // same 64-ns window as 130 now
        q.schedule_at(SimTime::from_ns(131), "fresh"); // level 0
        assert_eq!(q.pop().map(|(_, e)| e), Some("stale"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("fresh"));
    }

    #[test]
    fn same_instant_fifo_survives_cascades() {
        // Events at one instant scheduled from different distances (hence
        // different initial levels) must still fire in scheduling order.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(100_000);
        q.schedule_at(t, 0); // scheduled from now=0: high level
        q.schedule_at(SimTime::from_ns(99_000), 99);
        q.pop(); // now=99_000; t is one cascade closer
        q.schedule_at(t, 1); // placed at a lower level than event 0
        q.schedule_at(t, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn pop_batch_returns_whole_same_instant_burst() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(7);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        q.schedule_at(SimTime::from_us(9), 100);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(t));
        assert_eq!(batch, (0..10).collect::<Vec<_>>());
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 1);
        assert_eq!(q.fired(), 10);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_us(9)));
        assert_eq!(batch, vec![100]);
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn run_until_batched_matches_run_until_boundary_semantics() {
        // Mirror of run_until_respects_end_and_allows_rescheduling: events
        // strictly after `end` stay pending and `now` clamps to `end`.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(1), ());
        let mut count = 0u32;
        q.run_until_batched(&mut count, SimTime::from_us(10), |q, count, _t, batch| {
            for () in batch.drain(..) {
                *count += 1;
                if *count < 100 {
                    q.schedule_after(SimTime::from_us(2), ());
                }
            }
        });
        assert_eq!(count, 5);
        assert_eq!(q.now(), SimTime::from_us(10));
        assert_eq!(q.len(), 1);

        // Drained queue: now clamps to end, like run_until.
        let mut empty: EventQueue<()> = EventQueue::new();
        let mut st = ();
        empty.run_until_batched(&mut st, SimTime::from_ms(1), |_, _, _, _| {});
        assert_eq!(empty.now(), SimTime::from_ms(1));
    }

    #[test]
    fn run_until_batched_self_reschedule_same_instant_terminates() {
        // A handler scheduling into its own timestamp forms a follow-up
        // batch at the same instant instead of livelocking.
        let mut q = EventQueue::new();
        let t = SimTime::from_us(3);
        q.schedule_at(t, 0u32);
        let mut seen = Vec::new();
        let mut batches = 0u32;
        q.run_until_batched(&mut (), SimTime::from_us(5), |q, _, at, batch| {
            batches += 1;
            for gen in batch.drain(..) {
                seen.push(gen);
                if gen < 3 {
                    q.schedule_at(at, gen + 1); // zero-delay self-reschedule
                }
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(batches, 4, "each same-instant reschedule is its own batch");
        assert_eq!(q.now(), SimTime::from_us(5));
    }

    #[test]
    fn schedule_at_now_while_batch_in_flight_keeps_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(2);
        q.schedule_at(t, 0);
        q.schedule_at(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        // Ready batch for `t` still holds event 1; schedule more at `t`.
        q.schedule_at(t, 2);
        q.schedule_at(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clear_discards_everything_but_keeps_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(1), 1);
        q.schedule_at(SimTime::from_ns(1 << 52), 2); // spill
        q.pop();
        q.schedule_at(SimTime::from_us(4), 3);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::from_us(1));
        assert_eq!(q.fired(), 1);
        // Still usable afterwards.
        q.schedule_after(SimTime::from_us(1), 9);
        assert_eq!(q.pop(), Some((SimTime::from_us(2), 9)));
    }

    #[test]
    fn drain_pending_returns_stragglers_in_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_us(5), "b");
        q.schedule_at(SimTime::from_us(1), "a");
        q.schedule_at(SimTime::from_ns(1 << 50), "z"); // spill
        q.pop();
        let pending = q.drain_pending();
        assert_eq!(
            pending,
            vec![(SimTime::from_us(5), "b"), (SimTime::from_ns(1 << 50), "z"),]
        );
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_us(1), "drain must not advance time");
        assert_eq!(q.fired(), 1, "drained events are not fired events");
    }

    #[test]
    fn heap_pop_batch_and_drain_match_wheel_semantics() {
        let mut w = EventQueue::new();
        let mut h = HeapEventQueue::new();
        for (at, e) in [(7u64, 0u32), (7, 1), (7, 2), (9, 3), (12, 4)] {
            w.schedule_at(SimTime::from_us(at), e);
            h.schedule_at(SimTime::from_us(at), e);
        }
        let (mut wb, mut hb) = (Vec::new(), Vec::new());
        assert_eq!(w.pop_batch(&mut wb), h.pop_batch(&mut hb));
        assert_eq!(wb, hb);
        assert_eq!(wb, vec![0, 1, 2]);
        assert_eq!(w.fired(), h.fired());
        assert_eq!(w.drain_pending(), h.drain_pending());
        assert_eq!(h.now(), SimTime::from_us(7), "drain must not advance time");
        assert_eq!(h.fired(), 3, "drained events are not fired events");
    }

    #[test]
    fn any_event_queue_dispatches_to_both_backends() {
        for kind in [QueueKind::Wheel, QueueKind::Heap] {
            let mut q = AnyEventQueue::new(kind);
            assert_eq!(q.kind(), kind);
            assert!(q.is_empty());
            q.schedule_at(SimTime::from_us(5), "b");
            q.schedule_after(SimTime::from_us(1), "a");
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(SimTime::from_us(1)));
            assert_eq!(q.pop(), Some((SimTime::from_us(1), "a")));
            let mut batch = Vec::new();
            assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_us(5)));
            assert_eq!(batch, vec!["b"]);
            q.advance_to(SimTime::from_us(9));
            assert_eq!(q.now(), SimTime::from_us(9));
            assert_eq!(q.fired(), 2);
            q.schedule_at(SimTime::from_us(11), "c");
            assert_eq!(q.drain_pending(), vec![(SimTime::from_us(11), "c")]);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn heap_reference_queue_matches_basic_semantics() {
        let mut q = HeapEventQueue::new();
        q.schedule_at(SimTime::from_us(30), "c");
        q.schedule_at(SimTime::from_us(10), "a");
        q.schedule_after(SimTime::from_us(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_us(10)));
        assert_eq!(q.pop(), Some((SimTime::from_us(10), "a")));
        q.advance_to(SimTime::from_us(15));
        assert_eq!(q.now(), SimTime::from_us(15));
        q.advance_to(SimTime::from_us(2)); // no-op
        assert_eq!(q.now(), SimTime::from_us(15));
        assert_eq!(q.pop(), Some((SimTime::from_us(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_us(30), "c")));
        assert_eq!(q.fired(), 3);
        assert!(q.is_empty());
    }
}
