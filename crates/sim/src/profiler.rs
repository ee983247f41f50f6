//! Engine runtime profiler: per-shard window accounting with
//! barrier-stall attribution.
//!
//! PR 7's sharded engine is proven bit-identical to the sequential
//! reference, but `fcr bench --scale` only showed end-to-end wall time —
//! a bad speedup could mean barrier waits, inbox-mutex contention, short
//! lookahead windows or a hot spine shard, and nothing distinguished
//! them. This module observes the *runtime itself* (where
//! `dcn-telemetry` observes the protocols): when [`crate::SimConfig`]
//! has `profile` set, every shard records one [`WindowRecord`] per
//! barrier window — events executed, and host-clock durations for each
//! phase of the window protocol (barrier A wait, inbox drain, barrier B
//! wait, execute, outbox deposit) — plus per-node event counts, a
//! shard→shard cross-frame matrix and scheduler occupancy stats.
//!
//! ## Why profiling cannot perturb digests
//!
//! All durations come from [`std::time::Instant`] — the host's monotonic
//! clock — and are written into pre-sized buffers owned by the shard.
//! Nothing here reads or influences simulated time, event keys, RNG
//! streams or the queue order, and no profiling state is consulted by
//! dispatch. The profiler is a pure observer: per-seed trace digests are
//! bit-identical with it on or off (enforced in
//! `dcn-experiments/tests/equivalence.rs`), and the counters it bumps on
//! the forwarding path are plain integer increments into pre-allocated
//! vectors, so the zero-alloc forwarding gate holds with profiling
//! enabled (`tests/zero_alloc.rs`).

use std::time::Instant;

/// Per-window records kept verbatim per shard; beyond this the profile
/// keeps aggregating totals and histograms but drops the raw record
/// (counted in [`ShardProfile::windows_dropped`]). Bounds both memory
/// and the size of the exported Chrome trace.
pub const WINDOW_KEEP: usize = 8192;

/// Number of log2 buckets in the events-per-window histogram; the last
/// bucket absorbs everything `>= 2^(WINDOW_HIST_BUCKETS-2)`.
pub const WINDOW_HIST_BUCKETS: usize = 17;

/// One barrier window as one shard saw it. All `*_ns` fields are
/// host-monotonic durations; `start_ns` is the offset of the window's
/// begin from the profile epoch. `horizon`/`window_end` are simulated
/// time (the window executed events in `[horizon, window_end)`).
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowRecord {
    /// Host-clock offset of this window's start from the profile epoch.
    pub start_ns: u64,
    /// Global horizon `T` (simulated ns) every shard agreed on.
    pub horizon: u64,
    /// Exclusive end of the executed window (simulated ns).
    pub window_end: u64,
    /// Events this shard dispatched inside the window.
    pub events: u64,
    /// Lookahead windows this barrier round fused for this shard
    /// (`ceil((window_end - horizon) / lookahead)`): 1 is the unbatched
    /// PR 7 protocol, anything larger is adaptive window batching
    /// skipping rounds the shard would have crossed idle. 0 only in
    /// hand-built records.
    pub k: u64,
    /// Host time spent blocked on barrier A (deposit visibility).
    pub barrier_a_ns: u64,
    /// Host time draining the inbox into the local queue.
    pub drain_ns: u64,
    /// Host time blocked on barrier B (next-event-time reports).
    pub barrier_b_ns: u64,
    /// Host time executing local events.
    pub execute_ns: u64,
    /// Host time depositing outboxes into destination inboxes.
    pub deposit_ns: u64,
}

/// Scheduler occupancy counters, accumulated by both queue backends.
///
/// `wheel_slot_hits` / `wheel_overflow_hits` split the default
/// scheduler's insertions by tier: "slot" is the near ring (or the sorted
/// ready list behind it), "overflow" the far heap that takes everything
/// 64 or more granules (≈ 65 µs) ahead — ticks and protocol timers, so
/// about two thirds of a control-plane run. The heap backend counts
/// every insertion as a slot hit. `max_pending` is the
/// high-water mark of events pending at once. In sharded mode each span
/// re-pushes the surviving queue into fresh shard schedulers, so push
/// counts include those re-pushes (they are real scheduler work).
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

impl SchedulerStats {
    /// Fold another queue's counters into this one (hits sum, the
    /// high-water mark takes the max).
    pub fn absorb(&mut self, other: SchedulerStats) {
        self.pushes += other.pushes;
        self.wheel_slot_hits += other.wheel_slot_hits;
        self.wheel_overflow_hits += other.wheel_overflow_hits;
        self.max_pending = self.max_pending.max(other.max_pending);
    }
}

/// Everything one shard (or the whole sequential engine, which profiles
/// as shard 0) recorded. Accumulates across parallel spans: the engine
/// dismantles and reassembles shards on every `run_until`, folding each
/// span's records into the [`EngineProfile`] kept on the `Sim`.
#[derive(Clone, Debug)]
pub struct ShardProfile {
    /// Shard id (0 for sequential execution).
    pub shard: u32,
    /// Host-clock epoch shared by every shard of the profile.
    pub epoch: Instant,
    /// First [`WINDOW_KEEP`] windows, verbatim.
    pub windows: Vec<WindowRecord>,
    /// Windows beyond [`WINDOW_KEEP`] (still aggregated below).
    pub windows_dropped: u64,
    /// Total barrier windows (sequential: one per `run_until` span).
    pub windows_total: u64,
    /// Barrier rounds where adaptive batching fused more than one
    /// lookahead window for this shard ([`WindowRecord::k`] > 1).
    pub windows_batched: u64,
    /// Sum of [`WindowRecord::k`] — `k_sum / windows_total` is the mean
    /// batching factor; with batching off it equals `windows_total`.
    pub k_sum: u64,
    /// Events dispatched.
    pub events: u64,
    /// Host ns executing events.
    pub execute_ns: u64,
    /// Host ns blocked on barriers (A + B).
    pub barrier_ns: u64,
    /// Host ns draining the inbox.
    pub drain_ns: u64,
    /// Host ns depositing outboxes.
    pub deposit_ns: u64,
    /// Host ns this shard's worker was alive inside `run_windows`
    /// (sequential: inside `run_sequential`). `other` time is
    /// `wall_ns - (execute + barrier + drain + deposit)`.
    pub wall_ns: u64,
    /// Events dispatched per node id (hot-node attribution).
    pub node_events: Vec<u64>,
    /// Frames staged to each destination shard (cross-shard matrix row).
    pub frames_to: Vec<u64>,
    /// log2 histogram of events-per-window: bucket 0 counts empty
    /// windows, bucket `b > 0` counts windows with
    /// `2^(b-1) <= events < 2^b`, the last bucket absorbs the tail.
    pub window_hist: [u64; WINDOW_HIST_BUCKETS],
    /// Occupancy stats of this shard's event queue.
    pub sched: SchedulerStats,
}

impl ShardProfile {
    /// A fresh profile for `shard` of an engine with `nodes` nodes and
    /// `shards` shards, sharing `epoch` with its siblings.
    pub fn new(shard: u32, nodes: usize, shards: usize, epoch: Instant) -> ShardProfile {
        ShardProfile {
            shard,
            epoch,
            windows: Vec::with_capacity(256),
            windows_dropped: 0,
            windows_total: 0,
            windows_batched: 0,
            k_sum: 0,
            events: 0,
            execute_ns: 0,
            barrier_ns: 0,
            drain_ns: 0,
            deposit_ns: 0,
            wall_ns: 0,
            node_events: vec![0; nodes],
            frames_to: vec![0; shards],
            window_hist: [0; WINDOW_HIST_BUCKETS],
            sched: SchedulerStats::default(),
        }
    }

    /// Record one finished window: aggregate always, keep the raw record
    /// while under [`WINDOW_KEEP`].
    pub fn record_window(&mut self, rec: WindowRecord) {
        self.windows_total += 1;
        self.windows_batched += (rec.k > 1) as u64;
        self.k_sum += rec.k;
        self.events += rec.events;
        self.execute_ns += rec.execute_ns;
        self.barrier_ns += rec.barrier_a_ns + rec.barrier_b_ns;
        self.drain_ns += rec.drain_ns;
        self.deposit_ns += rec.deposit_ns;
        let bucket = match rec.events {
            0 => 0,
            n => (64 - n.leading_zeros() as usize).min(WINDOW_HIST_BUCKETS - 1),
        };
        self.window_hist[bucket] += 1;
        if self.windows.len() < WINDOW_KEEP {
            self.windows.push(rec);
        } else {
            self.windows_dropped += 1;
        }
    }

    /// Fold a finished span's profile for the same shard into this one.
    pub fn absorb(&mut self, other: ShardProfile) {
        debug_assert_eq!(self.node_events.len(), other.node_events.len());
        for rec in &other.windows {
            if self.windows.len() < WINDOW_KEEP {
                self.windows.push(*rec);
            } else {
                self.windows_dropped += 1;
            }
        }
        self.windows_dropped += other.windows_dropped;
        self.windows_total += other.windows_total;
        self.windows_batched += other.windows_batched;
        self.k_sum += other.k_sum;
        self.events += other.events;
        self.execute_ns += other.execute_ns;
        self.barrier_ns += other.barrier_ns;
        self.drain_ns += other.drain_ns;
        self.deposit_ns += other.deposit_ns;
        self.wall_ns += other.wall_ns;
        for (a, b) in self.node_events.iter_mut().zip(&other.node_events) {
            *a += b;
        }
        if self.frames_to.len() < other.frames_to.len() {
            self.frames_to.resize(other.frames_to.len(), 0);
        }
        for (a, b) in self.frames_to.iter_mut().zip(&other.frames_to) {
            *a += b;
        }
        for (a, b) in self.window_hist.iter_mut().zip(&other.window_hist) {
            *a += b;
        }
        self.sched.absorb(other.sched);
    }

    /// Mean batching factor: lookahead windows fused per barrier round
    /// (1.0 with batching off or before any round completed).
    pub fn k_mean(&self) -> f64 {
        if self.windows_total == 0 {
            1.0
        } else {
            self.k_sum as f64 / self.windows_total as f64
        }
    }

    /// Host ns not attributed to any phase (loop overhead, horizon
    /// computation, scheduling noise). Clamped at zero.
    pub fn other_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.execute_ns + self.barrier_ns + self.drain_ns + self.deposit_ns)
    }
}

/// The whole engine's profile: one [`ShardProfile`] per shard (index =
/// shard id; sequential execution accumulates into shard 0), plus the
/// run parameters a report needs for attribution.
#[derive(Clone, Debug)]
pub struct EngineProfile {
    /// Host-clock epoch all window `start_ns` offsets are relative to.
    pub epoch: Instant,
    /// Nodes in the simulation (`node_events` length).
    pub nodes: usize,
    /// Per-shard accumulated records.
    pub shards: Vec<ShardProfile>,
    /// Conservative lookahead of the partition, once a sharded span ran.
    pub lookahead: Option<u64>,
    /// Parallel spans executed (dismantle/merge cycles).
    pub spans: u64,
}

impl EngineProfile {
    /// An empty profile for an engine with `nodes` nodes.
    pub fn new(nodes: usize) -> EngineProfile {
        EngineProfile {
            epoch: Instant::now(),
            nodes,
            shards: Vec::new(),
            lookahead: None,
            spans: 0,
        }
    }

    /// Fold a span's shard profile into the accumulated one, growing the
    /// shard vector as needed.
    pub fn absorb_shard(&mut self, prof: ShardProfile) {
        let sh = prof.shard as usize;
        while self.shards.len() <= sh {
            let id = self.shards.len() as u32;
            self.shards.push(ShardProfile::new(id, self.nodes, sh + 1, self.epoch));
        }
        self.shards[sh].absorb(prof);
    }

    /// Events dispatched across every shard.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// The longest per-shard wall time — the engine's critical path.
    pub fn max_wall_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.wall_ns).max().unwrap_or(0)
    }

    /// Top `k` nodes by events dispatched, as `(node id, events)` sorted
    /// descending (ties toward the lower id, so output is total).
    pub fn hottest_nodes(&self, k: usize) -> Vec<(u32, u64)> {
        let mut totals = vec![0u64; self.nodes];
        for s in &self.shards {
            for (i, &n) in s.node_events.iter().enumerate() {
                totals[i] += n;
            }
        }
        let mut ranked: Vec<(u32, u64)> =
            totals.into_iter().enumerate().map(|(i, n)| (i as u32, n)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked.retain(|&(_, n)| n > 0);
        ranked
    }

    /// Events-per-window histogram summed over shards.
    pub fn window_hist(&self) -> [u64; WINDOW_HIST_BUCKETS] {
        let mut hist = [0u64; WINDOW_HIST_BUCKETS];
        for s in &self.shards {
            for (a, b) in hist.iter_mut().zip(&s.window_hist) {
                *a += b;
            }
        }
        hist
    }

    /// The shard→shard frame matrix: `matrix[src][dst]` frames staged.
    /// Square over the max shard count seen; intra-shard cells are 0.
    pub fn frame_matrix(&self) -> Vec<Vec<u64>> {
        let n = self
            .shards
            .iter()
            .map(|s| s.frames_to.len())
            .max()
            .unwrap_or(0)
            .max(self.shards.len());
        let mut m = vec![vec![0u64; n]; n];
        for s in &self.shards {
            for (dst, &count) in s.frames_to.iter().enumerate() {
                m[s.shard as usize][dst] += count;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_hist_buckets_by_log2() {
        let mut p = ShardProfile::new(0, 4, 1, Instant::now());
        for events in [0u64, 1, 2, 3, 4, 1 << 16, 1 << 40] {
            p.record_window(WindowRecord { events, ..WindowRecord::default() });
        }
        assert_eq!(p.window_hist[0], 1); // empty window
        assert_eq!(p.window_hist[1], 1); // 1
        assert_eq!(p.window_hist[2], 2); // 2, 3
        assert_eq!(p.window_hist[3], 1); // 4
        assert_eq!(p.window_hist[WINDOW_HIST_BUCKETS - 1], 2); // tail
        assert_eq!(p.windows_total, 7);
        assert_eq!(p.windows.len(), 7);
    }

    #[test]
    fn batched_windows_counted_and_k_summed() {
        let mut p = ShardProfile::new(0, 1, 1, Instant::now());
        for k in [1u64, 1, 4, 2, 1] {
            p.record_window(WindowRecord { k, ..WindowRecord::default() });
        }
        assert_eq!(p.windows_total, 5);
        assert_eq!(p.windows_batched, 2); // the k=4 and k=2 rounds
        assert_eq!(p.k_sum, 9);
        assert!((p.k_mean() - 1.8).abs() < 1e-12);
        let mut other = ShardProfile::new(0, 1, 1, p.epoch);
        other.record_window(WindowRecord { k: 3, ..WindowRecord::default() });
        p.absorb(other);
        assert_eq!(p.windows_batched, 3);
        assert_eq!(p.k_sum, 12);
    }

    #[test]
    fn window_records_cap_but_totals_keep_counting() {
        let mut p = ShardProfile::new(0, 1, 1, Instant::now());
        for _ in 0..WINDOW_KEEP + 10 {
            p.record_window(WindowRecord { events: 1, execute_ns: 2, ..Default::default() });
        }
        assert_eq!(p.windows.len(), WINDOW_KEEP);
        assert_eq!(p.windows_dropped, 10);
        assert_eq!(p.windows_total, (WINDOW_KEEP + 10) as u64);
        assert_eq!(p.events, (WINDOW_KEEP + 10) as u64);
        assert_eq!(p.execute_ns, 2 * (WINDOW_KEEP + 10) as u64);
    }

    #[test]
    fn absorb_merges_spans_and_other_ns_clamps() {
        let epoch = Instant::now();
        let mut a = ShardProfile::new(1, 3, 4, epoch);
        a.record_window(WindowRecord {
            events: 5,
            execute_ns: 100,
            barrier_a_ns: 10,
            barrier_b_ns: 20,
            drain_ns: 5,
            deposit_ns: 5,
            ..Default::default()
        });
        a.wall_ns = 200;
        a.node_events[2] = 5;
        a.frames_to[0] = 3;
        let mut b = ShardProfile::new(1, 3, 4, epoch);
        b.record_window(WindowRecord { events: 2, execute_ns: 50, ..Default::default() });
        b.wall_ns = 50;
        b.node_events[0] = 2;
        b.frames_to[3] = 1;
        a.absorb(b);
        assert_eq!(a.events, 7);
        assert_eq!(a.windows_total, 2);
        assert_eq!(a.wall_ns, 250);
        assert_eq!(a.execute_ns, 150);
        assert_eq!(a.barrier_ns, 30);
        assert_eq!(a.node_events, vec![2, 0, 5]);
        assert_eq!(a.frames_to, vec![3, 0, 0, 1]);
        assert_eq!(a.other_ns(), 250 - (150 + 30 + 5 + 5));
        // A profile whose phases exceed its wall clamps at zero instead
        // of wrapping.
        let mut c = ShardProfile::new(0, 1, 1, epoch);
        c.record_window(WindowRecord { events: 1, execute_ns: 500, ..Default::default() });
        c.wall_ns = 100;
        assert_eq!(c.other_ns(), 0);
    }

    #[test]
    fn engine_profile_ranks_hot_nodes_and_builds_matrix() {
        let mut ep = EngineProfile::new(4);
        let mut s0 = ShardProfile::new(0, 4, 2, ep.epoch);
        s0.node_events = vec![7, 0, 3, 0];
        s0.frames_to = vec![0, 11];
        s0.events = 10;
        let mut s1 = ShardProfile::new(1, 4, 2, ep.epoch);
        s1.node_events = vec![0, 9, 3, 0];
        s1.frames_to = vec![4, 0];
        s1.events = 12;
        ep.absorb_shard(s0);
        ep.absorb_shard(s1);
        assert_eq!(ep.total_events(), 22);
        // node 1: 9, node 0: 7, node 2: 6; node 3 (zero) dropped.
        assert_eq!(ep.hottest_nodes(10), vec![(1, 9), (0, 7), (2, 6)]);
        assert_eq!(ep.hottest_nodes(2), vec![(1, 9), (0, 7)]);
        assert_eq!(ep.frame_matrix(), vec![vec![0, 11], vec![4, 0]]);
    }
}
