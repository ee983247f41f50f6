//! Engine runtime profiler: what one run cost the host, and which nodes
//! it spent it on.
//!
//! This module observes the *runtime itself* (where `dcn-telemetry`
//! observes the protocols). Every [`crate::Sim`] records it, always: the
//! engine counts the events each node dispatched, sums the host time
//! spent inside `run_until`, and reads the scheduler's occupancy counters
//! when [`crate::Sim::profile`] is called.
//!
//! ## What it costs, and why there is no switch
//!
//! Two [`std::time::Instant`] reads per `run_until` and one
//! `node_events[i] += 1` per event into a vector sized at build time,
//! against ≈ 92 ns for the cheapest event the engine dispatches. A switch
//! would need a second configuration to test and a copy of itself in
//! every harness; `benchmark/`'s `sim.floor_ns_per_event` is where the
//! increment would show if it ever mattered.
//!
//! ## Why it cannot perturb digests
//!
//! The duration comes from the host's monotonic clock and the counts go
//! into memory nothing else reads. Nothing here reads or influences
//! simulated time, event keys, RNG streams or the queue order, and no
//! profiling state is consulted by dispatch. The counter bumped on the
//! forwarding path is a plain integer increment, so the zero-alloc
//! forwarding gate holds with it (`tests/zero_alloc.rs`).

/// Scheduler occupancy counters, accumulated by both queue backends.
///
/// `wheel_slot_hits` / `wheel_overflow_hits` split the default
/// scheduler's insertions by tier: "slot" is the near ring (or the sorted
/// ready list behind it), "overflow" the far heap that takes everything
/// 64 or more granules (≈ 65 µs) ahead — ticks and protocol timers, so
/// about two thirds of a control-plane run. The heap backend counts
/// every insertion as a slot hit. `max_pending` is the
/// high-water mark of events pending at once.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedulerStats {
    /// Total insertions this queue accepted.
    pub pushes: u64,
    /// Insertions that landed in a near-ring bucket or the ready list.
    pub wheel_slot_hits: u64,
    /// Insertions that landed in the far heap.
    pub wheel_overflow_hits: u64,
    /// Most events pending at once.
    pub max_pending: u64,
}

/// What the engine recorded over every `run_until` span so far.
#[derive(Clone, Debug)]
pub struct EngineProfile {
    /// Events dispatched.
    pub events: u64,
    /// Host ns spent inside `run_until`.
    pub wall_ns: u64,
    /// Events dispatched per node id (hot-node attribution); sums to
    /// `events`.
    pub node_events: Vec<u64>,
    /// Occupancy stats of the event queue, as of
    /// [`crate::Sim::profile`].
    pub sched: SchedulerStats,
}

impl EngineProfile {
    /// An empty profile for an engine with `nodes` nodes.
    pub fn new(nodes: usize) -> EngineProfile {
        EngineProfile {
            events: 0,
            wall_ns: 0,
            node_events: vec![0; nodes],
            sched: SchedulerStats::default(),
        }
    }

    /// Events dispatched.
    pub fn total_events(&self) -> u64 {
        self.events
    }

    /// Top `k` nodes by events dispatched, as `(node id, events)` sorted
    /// descending (ties toward the lower id, so output is total).
    pub fn hottest_nodes(&self, k: usize) -> Vec<(u32, u64)> {
        let mut ranked: Vec<(u32, u64)> = self
            .node_events
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i as u32, n))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hottest_nodes_rank_descending_and_drop_idle_nodes() {
        let mut p = EngineProfile::new(4);
        p.node_events = vec![7, 9, 7, 0];
        // Ties toward the lower id; node 3 (zero) dropped.
        assert_eq!(p.hottest_nodes(10), vec![(1, 9), (0, 7), (2, 7)]);
        assert_eq!(p.hottest_nodes(2), vec![(1, 9), (0, 7)]);
    }
}
