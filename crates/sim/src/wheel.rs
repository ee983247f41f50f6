//! Two-tier event scheduler — the default backend
//! ([`crate::SchedulerKind::Wheel`]).
//!
//! Shaped by the event mix the emulator actually produces. A 16-PoD
//! MR-MTP failure run pops 119 398 events with at most 1 588 pending:
//! 80 % are frame deliveries 3–8 µs out (paced senders add 25/50 µs
//! re-arms) and 20 % are timers — the routers' housekeeping wake-ups
//! ([`crate::GridTimer`]), hold-down and host timers, all milliseconds
//! to seconds ahead. So there are two tiers and nothing in between:
//!
//! * **near ring** — 64 buckets of 2^10 ns (≈ 1 µs) granules covering the
//!   64 granules (≈ 65 µs) from the cursor on. Insertion is a `Vec` push
//!   into the bucket of the event's granule; an occupancy bitmask makes
//!   "next non-empty bucket" a rotate + trailing-zeros. When the cursor
//!   reaches a bucket it is sorted and swapped with the (empty) `ready`
//!   list: no event is copied, and the slot takes over `ready`'s old
//!   allocation (if no larger than `BUCKET_KEEP` entries) for the next
//!   lap.
//! * **far heap** — a binary min-heap for everything at least 64 granules
//!   ahead. A far event is never moved again: it pops straight from the
//!   heap, and at ≤ 1.5 k pending that sift is cheaper than cascading a
//!   64-byte entry through wheel levels (the four-level wheel this
//!   replaces cost 127–131 ns/op at 2 048 pending against the plain
//!   heap's 90; DESIGN.md §13).
//!
//! `pop` takes the smaller of the `ready` head and the far head, and the
//! ring is never drained past the far head's granule, so those two
//! candidates always include the global minimum.
//!
//! Ordering contract (the determinism contract of the whole emulator):
//! events pop in exactly the same `(time, key)` order as the reference
//! heap (`event::EventQueue`), where the [`EventKey`] is the
//! engine's content-derived tie-break. Events scheduled behind the cursor
//! (same-granule re-arms, zero-delay timers) go straight into the sorted
//! `ready` list at their ordered position.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::{Event, EventKey, Scheduled};
use crate::profiler::SchedulerStats;
use crate::time::Time;

/// log2 of the granule width in ns (2^10 ns ≈ 1.02 µs).
const GRANULE_BITS: u32 = 10;
/// Ring buckets; one bit each in the occupancy mask.
const SLOTS: u64 = 64;
/// Largest allocation (in entries) a ring slot takes over from `ready`;
/// a bigger one is freed. Uncapped, every burst would pin its high-water
/// allocation in some slot for the whole run. Freed, not shrunk in place:
/// shrinking buckets with `shrink_to` fragmented the allocator into
/// +4–6 % peak RSS on the `fwd-soak` benchmark workload.
const BUCKET_KEEP: usize = 8;

/// Granule index of a timestamp.
#[inline]
fn granule(time: Time) -> u64 {
    time >> GRANULE_BITS
}

pub(crate) struct TimerWheel {
    /// First granule not yet drained. Ring events have a granule in
    /// `cursor .. cursor + SLOTS`, `ready` events a granule below `cursor`.
    cursor: u64,
    /// `ring[g % SLOTS]` holds the events of granule `g`.
    ring: [Vec<Scheduled>; SLOTS as usize],
    /// Bit `s` set ⇔ `ring[s]` is non-empty.
    occupancy: u64,
    ring_len: usize,
    /// Events pushed `SLOTS` or more granules ahead of the cursor.
    far: BinaryHeap<Scheduled>,
    /// Events of drained granules, *descending* by `(time, key)`: the
    /// next one pops off the back.
    ready: Vec<Scheduled>,
    stats: SchedulerStats,
}

impl Default for TimerWheel {
    fn default() -> TimerWheel {
        TimerWheel {
            cursor: 0,
            ring: std::array::from_fn(|_| Vec::new()),
            occupancy: 0,
            ring_len: 0,
            far: BinaryHeap::new(),
            ready: Vec::new(),
            stats: SchedulerStats::default(),
        }
    }
}

impl TimerWheel {
    pub fn push(&mut self, time: Time, key: EventKey, event: Event) {
        let s = Scheduled { time, key, event };
        let g = granule(time);
        if g >= self.cursor + SLOTS {
            self.far.push(s);
            self.stats.wheel_overflow_hits += 1;
        } else {
            if g < self.cursor {
                self.insert_ready(s);
            } else {
                let slot = g % SLOTS;
                self.ring[slot as usize].push(s);
                self.occupancy |= 1 << slot;
                self.ring_len += 1;
            }
            self.stats.wheel_slot_hits += 1;
        }
        self.stats.pushes += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.len() as u64);
    }

    pub fn pop(&mut self) -> Option<Scheduled> {
        self.pop_due(Time::MAX)
    }

    /// Pop the next event if it is due at or before `t`.
    pub fn pop_due(&mut self, t: Time) -> Option<Scheduled> {
        let (time, from_far) = self.head()?;
        if time > t {
            return None;
        }
        if !from_far {
            return self.ready.pop();
        }
        // The far head precedes everything in the ring (`head` refused to
        // drain past it), so the cursor may jump to its granule: the
        // follow-ups its dispatch schedules then land in the ring.
        self.cursor = self.cursor.max(granule(time));
        self.far.pop()
    }

    #[allow(dead_code)] // used by tests
    pub fn peek_time(&mut self) -> Option<Time> {
        self.head().map(|(time, _)| time)
    }

    pub fn len(&self) -> usize {
        self.ready.len() + self.ring_len + self.far.len()
    }

    #[allow(dead_code)] // used by tests and kept for symmetry with EventQueue
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy counters accumulated since construction.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Time of the next event and whether it is the far head (otherwise
    /// `ready.last()`).
    fn head(&mut self) -> Option<(Time, bool)> {
        self.refill();
        let far = self.far.peek().map(|s| (s.time, s.key));
        match self.ready.last().map(|s| (s.time, s.key)) {
            Some(r) if far.is_none_or(|f| r < f) => Some((r.0, false)),
            _ => far.map(|f| (f.0, true)),
        }
    }

    /// With `ready` empty, make the ring's earliest bucket the new `ready`
    /// — unless the far head lies in an earlier granule and pops first.
    fn refill(&mut self) {
        if !self.ready.is_empty() || self.occupancy == 0 {
            return;
        }
        // Rotate so bit 0 is the cursor's slot: trailing_zeros then counts
        // granules from the cursor, wrap-around included.
        let ahead = self.occupancy.rotate_right((self.cursor % SLOTS) as u32).trailing_zeros();
        let g = self.cursor + ahead as u64;
        if self.far.peek().is_some_and(|s| granule(s.time) < g) {
            return;
        }
        let slot = g % SLOTS;
        let bucket = &mut self.ring[slot as usize];
        debug_assert!(bucket.iter().all(|s| granule(s.time) == g));
        bucket.sort_unstable_by_key(|s| Reverse((s.time, s.key)));
        self.ring_len -= bucket.len();
        std::mem::swap(&mut self.ready, bucket);
        if bucket.capacity() > BUCKET_KEEP {
            *bucket = Vec::new();
        }
        self.occupancy &= !(1 << slot);
        self.cursor = g + 1;
    }

    /// Ordered insert into `ready` by binary search on `(time, key)`; an
    /// event older than the whole list simply pops next, exactly as it
    /// would from the heap.
    fn insert_ready(&mut self, s: Scheduled) {
        let key = (s.time, s.key);
        let at = self.ready.partition_point(|m| (m.time, m.key) > key);
        self.ready.insert(at, s);
    }
}

#[cfg(test)]
fn seq_key(counter: u64) -> EventKey {
    EventKey { creator: 0, counter }
}

#[cfg(test)]
fn timer(token: u64) -> Event {
    Event::Timer { node: crate::node::NodeId(0), token }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MICROS, MILLIS};

    /// Start of granule `g`, in ns.
    fn at(g: u64) -> Time {
        g << GRANULE_BITS
    }

    /// Push with an auto-incrementing key counter, mimicking the engine's
    /// per-creator key assignment.
    struct KeyedWheel {
        w: TimerWheel,
        next: u64,
    }

    impl KeyedWheel {
        fn new() -> KeyedWheel {
            KeyedWheel { w: TimerWheel::default(), next: 0 }
        }
        fn push(&mut self, time: Time, event: Event) -> u64 {
            let c = self.next;
            self.next += 1;
            self.w.push(time, seq_key(c), event);
            c
        }
        fn pop(&mut self) -> Option<Scheduled> {
            self.w.pop()
        }
        fn peek_time(&mut self) -> Option<Time> {
            self.w.peek_time()
        }
    }

    fn drain(k: &mut KeyedWheel) -> Vec<(Time, u64)> {
        std::iter::from_fn(|| k.pop()).map(|s| (s.time, s.key.counter)).collect()
    }

    #[test]
    fn pops_in_time_then_key_order() {
        let mut w = KeyedWheel::new();
        for t in [10, 5, 10, 5] {
            w.push(t, timer(t));
        }
        assert_eq!(drain(&mut w), vec![(5, 1), (5, 3), (10, 0), (10, 2)]);
    }

    #[test]
    fn same_time_orders_by_creator_then_counter() {
        let mut w = TimerWheel::default();
        w.push(7, EventKey { creator: 3, counter: 0 }, timer(0));
        w.push(7, EventKey { creator: 1, counter: 8 }, timer(1));
        w.push(7, EventKey { creator: 1, counter: 2 }, timer(2));
        let order: Vec<EventKey> = std::iter::from_fn(|| w.pop()).map(|s| s.key).collect();
        assert_eq!(
            order,
            vec![
                EventKey { creator: 1, counter: 2 },
                EventKey { creator: 1, counter: 8 },
                EventKey { creator: 3, counter: 0 },
            ]
        );
    }

    #[test]
    fn same_granule_sorts_by_exact_time() {
        let mut w = KeyedWheel::new();
        // All within one 1024 ns granule, inserted out of order.
        for t in [900, 100, 512, 101] {
            w.push(t, timer(t));
        }
        let order: Vec<Time> = std::iter::from_fn(|| w.pop()).map(|s| s.time).collect();
        assert_eq!(order, vec![100, 101, 512, 900]);
    }

    #[test]
    fn near_events_take_the_ring_and_far_events_the_heap() {
        let mut w = KeyedWheel::new();
        // A frame delivery, a paced send, the last ring granule; then the
        // first far granule, a tick, a hold timer.
        let near = [5 * MICROS, 50 * MICROS, at(SLOTS - 1)];
        let far = [at(SLOTS), 5 * MILLIS, 3_000 * MILLIS];
        for &t in far.iter().chain(&near) {
            w.push(t, timer(t));
        }
        assert_eq!((w.w.ring_len, w.w.far.len(), w.w.ready.len()), (3, 3, 0));
        let s = w.w.stats();
        assert_eq!((s.pushes, s.wheel_slot_hits, s.wheel_overflow_hits), (6, 3, 3));
        assert_eq!(s.max_pending, 6);
        let popped: Vec<Time> = std::iter::from_fn(|| w.pop()).map(|s| s.time).collect();
        assert_eq!(popped, near.iter().chain(&far).copied().collect::<Vec<_>>());
        assert!(w.w.is_empty());
        // Popping moves nothing between tiers, so nothing is re-attributed.
        let s = w.w.stats();
        assert_eq!((s.pushes, s.wheel_slot_hits, s.wheel_overflow_hits), (6, 3, 3));
    }

    #[test]
    fn ring_is_not_drained_past_an_earlier_far_head() {
        let mut w = KeyedWheel::new();
        w.push(at(100), timer(0)); // far: 100 granules ahead of cursor 0
        assert_eq!(w.pop().map(|s| s.time), Some(at(100))); // cursor -> 100
        w.push(at(170), timer(1)); // far (70 ahead)
        w.push(at(110), timer(2)); // ring
        assert_eq!(w.pop().map(|s| s.time), Some(at(110))); // cursor -> 111

        // Now the far head (170) is inside the ring's window and earlier
        // than the ring's only event.
        w.push(at(172), timer(3));
        assert_eq!((w.w.ring_len, w.w.far.len()), (1, 1));
        assert_eq!(w.peek_time(), Some(at(170)));
        assert_eq!(w.w.ring_len, 1, "peeking drained the ring past the far head");
        assert_eq!(w.pop().map(|s| s.time), Some(at(170)));
        assert_eq!(w.pop().map(|s| s.time), Some(at(172)));
        assert_eq!(w.pop().map(|s| s.time), None);
    }

    #[test]
    fn far_pop_with_an_empty_ring_jumps_the_cursor() {
        let mut w = KeyedWheel::new();
        w.push(5 * MILLIS, timer(0));
        assert_eq!(w.w.far.len(), 1);
        assert_eq!(w.pop().map(|s| s.time), Some(5 * MILLIS));
        assert_eq!(w.w.cursor, granule(5 * MILLIS));
        // The follow-ups of that dispatch are near again: ring, not heap.
        w.push(5 * MILLIS + 3 * MICROS, timer(1));
        w.push(5 * MILLIS, timer(2)); // the popped event's own granule
        assert_eq!((w.w.ring_len, w.w.far.len()), (2, 0));
        assert_eq!(drain(&mut w), vec![(5 * MILLIS, 2), (5 * MILLIS + 3 * MICROS, 1)]);
    }

    #[test]
    fn push_behind_the_cursor_lands_in_ready_in_order() {
        let mut w = KeyedWheel::new();
        for t in [at(10) + 5, at(10) + 900, at(12)] {
            w.push(t, timer(t));
        }
        assert_eq!(w.pop().map(|s| s.time), Some(at(10) + 5)); // cursor -> 11

        // Same granule as the popped event, between the survivors of its
        // bucket; then one older than everything pending.
        w.push(at(10) + 400, timer(3));
        w.push(at(10) + 950, timer(4));
        w.push(at(3), timer(5));
        assert_eq!(w.w.ready.len(), 4);
        assert_eq!(w.peek_time(), Some(at(3)));
        assert_eq!(
            drain(&mut w),
            vec![(at(3), 5), (at(10) + 400, 3), (at(10) + 900, 1), (at(10) + 950, 4), (at(12), 2)]
        );
    }

    #[test]
    fn slots_are_reused_across_ring_wrap_around() {
        let mut w = KeyedWheel::new();
        let mut expect = Vec::new();
        // Walk the cursor five laps round the ring in 40-granule hops: each
        // hop's event shares a slot with one popped 64 granules earlier.
        let mut t = 7;
        for _ in 0..8 * SLOTS / 40 * 5 {
            let c = w.push(t, timer(0));
            expect.push((t, c));
            assert_eq!(w.w.far.len(), 0, "a 40-granule hop stays in the ring");
            assert_eq!(w.pop().map(|s| (s.time, s.key.counter)), Some((t, c)));
            t += at(40);
        }
        // And with two laps' worth pending at once: slot 5 holds granule 5
        // now and granule 69 once the cursor has passed it.
        let mut w = KeyedWheel::new();
        w.push(at(5), timer(0));
        w.push(at(69), timer(1)); // far for now: 69 >= 0 + 64
        assert_eq!(w.pop().map(|s| s.time), Some(at(5))); // cursor -> 6
        w.push(at(69) + 1, timer(2)); // ring slot 5 again
        assert_eq!((w.w.ring_len, w.w.far.len()), (1, 1));
        assert_eq!(drain(&mut w), vec![(at(69), 1), (at(69) + 1, 2)]);
    }

    #[test]
    fn equal_time_split_across_ring_and_heap_orders_by_key() {
        let mut w = TimerWheel::default();
        let t = at(80) + 17;
        // Pushed from cursor 0: far. Creator 9 sorts last.
        w.push(t, EventKey { creator: 9, counter: 0 }, timer(0));
        w.push(t, EventKey { creator: 2, counter: 0 }, timer(1));
        w.push(at(30), seq_key(0), timer(2));
        assert_eq!(w.pop().map(|s| s.time), Some(at(30))); // cursor -> 31

        // Pushed from cursor 31: the same instant is now near.
        w.push(t, EventKey { creator: 5, counter: 0 }, timer(3));
        w.push(t, EventKey { creator: 1, counter: 0 }, timer(4));
        assert_eq!((w.ring_len, w.far.len()), (2, 2));
        let creators: Vec<u32> = std::iter::from_fn(|| {
            assert_eq!(w.peek_time(), (!w.is_empty()).then_some(t));
            w.pop()
        })
        .map(|s| s.key.creator)
        .collect();
        assert_eq!(creators, vec![1, 2, 5, 9]);
    }

    #[test]
    fn burst_allocations_are_not_retained() {
        let retained =
            |w: &TimerWheel| w.ready.capacity() + w.ring.iter().map(Vec::capacity).sum::<usize>();
        let mut w = KeyedWheel::new();
        // Steady state, one event per granule: the allocations circulate
        // between `ready` and the slots, and nothing new is allocated.
        let lap = |w: &mut KeyedWheel, from: u64| {
            for g in from..from + 2 * SLOTS {
                w.push(at(g), timer(0));
                assert!(w.pop().is_some());
            }
        };
        lap(&mut w, 0);
        let steady = retained(&w.w);
        lap(&mut w, 2 * SLOTS);
        assert_eq!(retained(&w.w), steady);
        // A burst lives in `ready` while it pops...
        for i in 0..100 {
            w.push(at(4 * SLOTS) + i, timer(i));
        }
        assert!(w.pop().is_some());
        assert!(w.w.ready.capacity() >= 100);
        while w.pop().is_some() {}
        // ...and is freed, not parked in a slot, by the next drain.
        lap(&mut w, 4 * SLOTS + 1);
        assert!(retained(&w.w) <= steady, "burst capacity retained");
        assert!(w.w.ring.iter().all(|b| b.capacity() <= BUCKET_KEEP));
    }

    #[test]
    fn pop_due_stops_at_the_deadline_on_either_tier() {
        let mut w = KeyedWheel::new();
        w.push(at(2), timer(0)); // ring
        w.push(at(500), timer(1)); // far
        assert!(w.w.pop_due(at(2) - 1).is_none());
        assert_eq!(w.w.pop_due(at(2)).map(|s| s.time), Some(at(2)));
        assert!(w.w.pop_due(at(500) - 1).is_none());
        assert_eq!(w.w.len(), 1);
        assert_eq!(w.w.pop_due(at(500)).map(|s| s.time), Some(at(500)));
        assert!(w.w.pop_due(Time::MAX).is_none());
    }
}

#[cfg(test)]
mod props {
    use proptest::prelude::*;

    use super::*;
    use crate::event::EventQueue;
    use crate::time::{MILLIS, SECONDS};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The ordering contract: whatever the schedule, the wheel pops in
        /// ascending `(time, key)` — times from sub-granule to minutes.
        #[test]
        fn pops_in_time_key_order(
            times in proptest::collection::vec(0u64..1 << 38, 1..300),
        ) {
            let mut w = TimerWheel::default();
            for (i, &t) in times.iter().enumerate() {
                w.push(t, seq_key(i as u64), timer(i as u64));
            }
            let got: Vec<(Time, u64)> =
                std::iter::from_fn(|| w.pop()).map(|s| (s.time, s.key.counter)).collect();
            let mut expect: Vec<(Time, u64)> =
                times.iter().enumerate().map(|(i, &t)| (t, i as u64)).collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }

        /// Differential test against the reference heap on an engine-shaped
        /// stream: nothing is pushed earlier than the last pop, and deltas
        /// come from the bands the engine produces — the popped event's own
        /// granule, a frame delivery or paced send inside the ring's span,
        /// the 5 ms tick, hold timers seconds out. Both backends must agree
        /// on every `peek_time`, every popped `(time, key)` and `len()`.
        #[test]
        fn matches_heap_on_engine_shaped_streams(
            ops in proptest::collection::vec((0u8..8, 0u64..1 << 16, 0u32..4), 1..400),
        ) {
            let mut w = TimerWheel::default();
            let mut h = EventQueue::default();
            let mut now: Time = 0;
            for (i, &(op, r, creator)) in ops.iter().enumerate() {
                let delta = match op {
                    0 | 1 => None, // pop
                    2 => Some(r % (1 << GRANULE_BITS)),
                    3 | 4 => Some(r % (SLOTS << GRANULE_BITS)),
                    5 | 6 => Some(5 * MILLIS + r % 2 * (1 << GRANULE_BITS)),
                    _ => Some(r % 8 * SECONDS + r),
                };
                if let Some(delta) = delta {
                    let key = EventKey { creator, counter: i as u64 };
                    w.push(now + delta, key, timer(0));
                    h.push(now + delta, key, timer(0));
                } else {
                    prop_assert_eq!(w.peek_time(), h.peek_time());
                    let (a, b) = (w.pop(), h.pop());
                    prop_assert_eq!(
                        a.as_ref().map(|s| (s.time, s.key)),
                        b.as_ref().map(|s| (s.time, s.key))
                    );
                    if let Some(s) = a {
                        now = s.time;
                    }
                }
                prop_assert_eq!(w.len(), h.len());
            }
            while !h.is_empty() {
                prop_assert_eq!(w.peek_time(), h.peek_time());
                let (a, b) = (w.pop(), h.pop());
                prop_assert_eq!(a.map(|s| (s.time, s.key)), b.map(|s| (s.time, s.key)));
                prop_assert_eq!(w.len(), h.len());
            }
            prop_assert!(w.pop().is_none());
        }
    }
}

#[cfg(test)]
mod stress {
    use super::*;

    /// Deterministic xorshift stress: random interleaved pushes/pops must
    /// match a reference sort. Exercises ring wrap-around, far-head
    /// interleaving and pushes behind the cursor over 20 000 rounds.
    #[test]
    fn randomized_interleaving_matches_reference() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w = TimerWheel::default();
        let mut next_counter = 0u64;
        let mut reference: Vec<(Time, EventKey)> = Vec::new();
        let mut now: Time = 0;
        let mut popped: Vec<(Time, EventKey)> = Vec::new();
        for round in 0..20_000u64 {
            if rand() % 3 != 0 {
                // Push at now + random delta spanning all bands.
                let band = rand() % 4;
                let delta = match band {
                    0 => rand() % (1 << 12),
                    1 => rand() % (1 << 18),
                    2 => rand() % (1 << 26),
                    _ => rand() % (1 << 36),
                };
                let t = now + delta;
                let key = seq_key(next_counter);
                next_counter += 1;
                w.push(t, key, timer(round));
                reference.push((t, key));
            } else if let Some(s) = w.pop() {
                assert!(s.time >= now, "time went backwards: {} < {}", s.time, now);
                now = s.time;
                popped.push((s.time, s.key));
            }
        }
        while let Some(s) = w.pop() {
            popped.push((s.time, s.key));
        }
        reference.sort_unstable();
        assert_eq!(popped, reference);
    }
}
