//! The event queue.
//!
//! Two interchangeable backends provide a total, deterministic order keyed
//! on `(time, key)`, where the [`EventKey`] is *content-derived*: it names
//! the node that created the event and that node's creation counter,
//! rather than a global insertion sequence, so the order does not depend
//! on how the queue is implemented.
//!
//! `EventQueue` is the reference binary heap; `wheel::TimerWheel` is the
//! two-tier scheduler (near ring + far heap) used by default. The
//! `Scheduler` enum dispatches between them ([`crate::SchedulerKind`]
//! selects);
//! the equivalence suite in `dcn-experiments` asserts their pop streams
//! are bit-identical.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dcn_wire::{FrameBuf, FrameMeta};

use crate::node::{NodeId, PortId};
use crate::profiler::SchedulerStats;
use crate::time::Time;
use crate::wheel::TimerWheel;

/// A scheduled occurrence.
#[derive(Debug)]
pub enum Event {
    /// A frame arrives at `node`/`port`. `meta` is the sender's
    /// parse-once metadata (dropped by the engine on in-flight
    /// corruption); it never influences scheduling, tracing, or the
    /// bytes delivered.
    Deliver { node: NodeId, port: PortId, frame: FrameBuf, meta: Option<FrameMeta> },
    /// A protocol timer fires at `node`.
    Timer { node: NodeId, token: u64 },
    /// Failure injection: take `node`'s interface `port` down (carrier
    /// event delivered to `node` only).
    AdminPortDown { node: NodeId, port: PortId },
    /// Recovery injection: bring the interface back.
    AdminPortUp { node: NodeId, port: PortId },
    /// Carrier notification delivered to the interface owner after the
    /// configured detection latency.
    Carrier { node: NodeId, port: PortId, up: bool },
    /// Start a node (delivers `on_start`). Scheduled by the builder.
    Start { node: NodeId },
}

impl Event {
    /// The node this event is dispatched at.
    pub fn node(&self) -> NodeId {
        match *self {
            Event::Deliver { node, .. }
            | Event::Timer { node, .. }
            | Event::AdminPortDown { node, .. }
            | Event::AdminPortUp { node, .. }
            | Event::Carrier { node, .. }
            | Event::Start { node } => node,
        }
    }
}

/// Content-derived tie-break for events sharing a timestamp: the id of
/// the node whose dispatch created the event, and that creator's own
/// monotone creation counter. Two properties carry the whole determinism
/// story:
///
/// * **Uniqueness** — no two events ever share `(creator, counter)`, so
///   `(time, key)` is a total order.
/// * **Scheduler independence** — a node's counter advances only while
///   that node's events are dispatched, so the keys a run assigns do not
///   depend on which backend (heap or wheel) holds the queue.
///
/// Externally injected events (`Start` at build time, admin transitions)
/// use [`EventKey::EXTERNAL`] with a per-[`crate::Sim`] counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EventKey {
    /// `NodeId` of the creating node, or [`EventKey::EXTERNAL`].
    pub creator: u32,
    /// Per-creator creation counter.
    pub counter: u64,
}

impl EventKey {
    /// Creator id for events injected from outside the event loop.
    pub const EXTERNAL: u32 = u32::MAX;
}

pub(crate) struct Scheduled {
    pub time: Time,
    pub key: EventKey,
    pub event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, key)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// Which event-scheduler backend a simulation uses. Both produce the exact
/// same event order; the wheel is faster on every benchmark workload, the
/// heap is the simple reference kept for equivalence testing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Two-tier scheduler: 64-slot near ring + far heap (the default; see
    /// [`crate::wheel`]).
    #[default]
    Wheel,
    /// The original `BinaryHeap` scheduler.
    Heap,
}

/// Deterministic priority queue of events (reference heap backend).
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    /// Occupancy counters for the engine profiler. The heap has no
    /// near/far split; every push counts as a slot hit so the two
    /// backends report comparable totals.
    stats: SchedulerStats,
}

impl EventQueue {
    pub fn push(&mut self, time: Time, key: EventKey, event: Event) {
        self.heap.push(Scheduled { time, key, event });
        self.stats.pushes += 1;
        self.stats.wheel_slot_hits += 1;
        let pending = self.heap.len() as u64;
        if pending > self.stats.max_pending {
            self.stats.max_pending = pending;
        }
    }

    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop()
    }

    /// Pop the next event if it is due at or before `t`.
    pub fn pop_due(&mut self, t: Time) -> Option<Scheduled> {
        if self.heap.peek()?.time > t {
            return None;
        }
        self.heap.pop()
    }

    #[allow(dead_code)] // used by tests
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.time)
    }

    #[allow(dead_code)] // used by tests and kept for debugging
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Occupancy counters accumulated since construction.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }
}

/// The engine's scheduler: either backend behind one dispatch surface.
/// Keys are supplied by the engine at push time (content-derived), so for
/// the same push stream both variants produce the same pop stream.
pub(crate) enum Scheduler {
    Heap(EventQueue),
    Wheel(Box<TimerWheel>),
}

impl Scheduler {
    pub fn new(kind: SchedulerKind) -> Scheduler {
        match kind {
            SchedulerKind::Heap => Scheduler::Heap(EventQueue::default()),
            SchedulerKind::Wheel => Scheduler::Wheel(Box::default()),
        }
    }

    pub fn push(&mut self, time: Time, key: EventKey, event: Event) {
        match self {
            Scheduler::Heap(q) => q.push(time, key, event),
            Scheduler::Wheel(w) => w.push(time, key, event),
        }
    }

    pub fn pop(&mut self) -> Option<Scheduled> {
        match self {
            Scheduler::Heap(q) => q.pop(),
            Scheduler::Wheel(w) => w.pop(),
        }
    }

    /// Pop the next event if it is due at or before `t`: the run loops'
    /// one question per event.
    pub fn pop_due(&mut self, t: Time) -> Option<Scheduled> {
        match self {
            Scheduler::Heap(q) => q.pop_due(t),
            Scheduler::Wheel(w) => w.pop_due(t),
        }
    }

    /// Time of the next event. `&mut` because the wheel may drain a ring
    /// bucket into its ready list to answer.
    #[allow(dead_code)] // used by tests
    pub fn peek_time(&mut self) -> Option<Time> {
        match self {
            Scheduler::Heap(q) => q.peek_time(),
            Scheduler::Wheel(w) => w.peek_time(),
        }
    }

    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        match self {
            Scheduler::Heap(q) => q.len(),
            Scheduler::Wheel(w) => w.len(),
        }
    }

    /// Occupancy counters of the active backend (see
    /// [`crate::profiler::SchedulerStats`]).
    pub fn stats(&self) -> SchedulerStats {
        match self {
            Scheduler::Heap(q) => q.stats(),
            Scheduler::Wheel(w) => w.stats(),
        }
    }
}

/// Scheduler microbenchmark driver: hold `pending` timers in flight and
/// run `cycles` pop-then-re-arm rounds through the chosen backend: a
/// timers-only mix (re-arms 1 ns–20 ms ahead, an occasional far-future
/// timer), so on the default backend nearly every event takes the far
/// heap and none the frame-delivery ring. Returns a checksum over popped
/// times so the work cannot be optimized away; the caller measures wall
/// time.
///
/// Lives here because the backends themselves are crate-private.
pub fn scheduler_stress(kind: SchedulerKind, pending: usize, cycles: u64) -> u64 {
    let mut q = Scheduler::new(kind);
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let node = NodeId(0);
    let mut counter = 0u64;
    let mut key = move || {
        let k = EventKey { creator: 0, counter };
        counter += 1;
        k
    };
    for i in 0..pending as u64 {
        q.push(rand() % (1 << 24), key(), Event::Timer { node, token: i });
    }
    let mut acc = 0u64;
    for _ in 0..cycles {
        let s = q.pop().expect("pending timers never drain");
        acc = acc.wrapping_add(s.time);
        let delta = if rand() % 16 == 0 {
            rand() % (1 << 34) // far future: seconds ahead
        } else {
            1 + rand() % (20 * crate::time::MILLIS) // tick-scale re-arm
        };
        q.push(s.time + delta, key(), Event::Timer { node, token: 0 });
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn seq_key(counter: u64) -> EventKey {
        EventKey { creator: 0, counter }
    }

    #[test]
    fn pops_in_time_then_key_order() {
        let mut q = EventQueue::default();
        q.push(10, seq_key(1), Event::Timer { node: NodeId(0), token: 1 });
        q.push(5, seq_key(2), Event::Timer { node: NodeId(0), token: 2 });
        q.push(10, seq_key(3), Event::Timer { node: NodeId(0), token: 3 });
        q.push(5, seq_key(4), Event::Timer { node: NodeId(0), token: 4 });

        let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                Event::Timer { token, .. } => (s.time, token),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(5, 2), (5, 4), (10, 1), (10, 3)]);
    }

    #[test]
    fn same_time_orders_by_creator_then_counter() {
        let mut q = EventQueue::default();
        let ev = |token| Event::Timer { node: NodeId(0), token };
        q.push(7, EventKey { creator: 2, counter: 0 }, ev(1));
        q.push(7, EventKey { creator: 1, counter: 9 }, ev(2));
        q.push(7, EventKey { creator: 1, counter: 3 }, ev(3));
        q.push(7, EventKey { creator: EventKey::EXTERNAL, counter: 0 }, ev(4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        // Lower creator first; within a creator, lower counter; EXTERNAL
        // (u32::MAX) sorts after every real node.
        assert_eq!(order, vec![3, 2, 1, 4]);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(42, seq_key(0), Event::Timer { node: NodeId(1), token: 0 });
        q.push(7, seq_key(1), Event::Timer { node: NodeId(1), token: 0 });
        assert_eq!(q.peek_time(), Some(7));
        q.pop();
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn backends_pop_identical_streams() {
        let mut heap = Scheduler::new(SchedulerKind::Heap);
        let mut wheel = Scheduler::new(SchedulerKind::Wheel);
        // A deliberately messy schedule: ties, zero times, far-future,
        // cross-granule interleavings.
        let times = [10u64, 5, 5, 0, 1 << 20, 3, 1 << 30, 10, 2048, 2047];
        for (i, &t) in times.iter().enumerate() {
            let ev = || Event::Timer { node: NodeId(0), token: i as u64 };
            heap.push(t, seq_key(i as u64), ev());
            wheel.push(t, seq_key(i as u64), ev());
        }
        loop {
            assert_eq!(heap.peek_time(), wheel.peek_time());
            match (heap.pop(), wheel.pop()) {
                (Some(a), Some(b)) => {
                    assert_eq!((a.time, a.key), (b.time, b.key));
                }
                (None, None) => break,
                _ => panic!("backends disagree on queue length"),
            }
        }
    }
}
