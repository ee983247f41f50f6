//! The simulation engine: node registry, wiring, event dispatch — and the
//! sharded conservative-lookahead parallel engine.
//!
//! Two engines share one dispatch core ([`Core`]):
//!
//! * **Sequential** ([`EngineKind::Sequential`], the default and the
//!   equivalence reference): one [`Core`] holding every node, popping one
//!   global `(time, key)`-ordered queue.
//! * **Sharded** ([`EngineKind::Sharded`]): the node set is partitioned
//!   across worker threads (see [`Sim::set_partition`]); each shard is a
//!   [`Core`] owning its nodes' slots and a private copy of the link
//!   table. Shards advance through bounded time windows whose width is
//!   the **conservative lookahead** — the minimum over cross-shard links
//!   of `serialization(MIN_WIRE_LEN) + propagation`, a static lower bound
//!   on how far one shard's action can reach into another shard's future
//!   (queueing and jitter only add delay). Cross-shard frame deliveries
//!   are exchanged through per-shard mailboxes at window barriers.
//!
//! Determinism is carried entirely by the content-derived
//! [`EventKey`]s: both engines dispatch events in ascending
//! `(time, key)` order, all same-time causality is intra-shard (a
//! cross-shard effect is at least one lookahead in the future), so the
//! k-way merge of per-shard streams by `(time, key)` *is* the sequential
//! order — traces, counters and RNG streams come out bit-identical.
//! DESIGN.md §9 gives the full argument.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dcn_wire::FrameBuf;

use crate::event::{Event, EventKey, Scheduled, Scheduler, SchedulerKind};
use crate::link::{Endpoint, Impairment, Link, LinkId, LinkSpec};
use crate::node::{Action, Ctx, NodeId, PortId, PortView, Protocol};
use crate::profiler::{EngineProfile, ShardProfile, WindowRecord};
use crate::rng::DetRng;
use crate::sync::{BarrierSense, SpinBarrier, SpscQueue, DEFAULT_SPIN};
use crate::time::{Duration, Time, MICROS};
use crate::trace::{Trace, TraceEvent};

/// Minimum Ethernet frame length as captured by tshark (without FCS).
/// Shorter frames are padded on the wire; the trace records the padded
/// length because that is what the paper's byte counts are based on.
pub const MIN_WIRE_LEN: u32 = 60;

/// Salt base for the per-(link, direction) impairment streams. Salted far
/// away from node ids so adding nodes never perturbs the impairment
/// streams and vice versa; stream `link * 2 + direction` is offset from
/// this base.
const CHAOS_SALT: u64 = 0xC4A0_51D3_0C4A_051D;

struct NodeSlot {
    proto: Option<Box<dyn Protocol>>,
    name: String,
    /// Link attached to each port, in wiring order.
    port_links: Vec<LinkId>,
    /// Per-port view handed to protocol callbacks.
    views: Vec<PortView>,
    /// Target admin state of each port as of the latest scheduled
    /// transition (guards flap schedules against down-on-down /
    /// up-on-up double scheduling).
    admin_target: Vec<bool>,
    /// Engine-managed periodic timers: `(token, every)`. At most a
    /// handful per node (a coalesced protocol tick), hence a flat vec.
    periodic: Vec<(u64, Duration)>,
    /// Bit `i` set ⟺ `views[i].up`, for the first 128 ports. Kept in
    /// lockstep with `views` so [`Ctx::port_up_mask`] is a load instead
    /// of a per-port scan on every forwarded packet.
    up_mask: u128,
    rng: DetRng,
    /// Next [`EventKey::counter`] for events this node's dispatches
    /// create. Advances identically in every engine because only this
    /// node's own event processing bumps it.
    key_counter: u64,
}

impl NodeSlot {
    /// A vacant stand-in for a node another shard owns. Shard cores keep
    /// full-length node vectors so ids index directly; foreign slots are
    /// never dispatched to, so they carry no protocol and no state.
    fn foreign() -> NodeSlot {
        NodeSlot {
            proto: None,
            name: String::new(),
            port_links: Vec::new(),
            views: Vec::new(),
            admin_target: Vec::new(),
            periodic: Vec::new(),
            up_mask: 0,
            rng: DetRng::new(0, 0),
            key_counter: 0,
        }
    }
}

/// Which execution engine a simulation uses. Both produce bit-identical
/// traces; `Sequential` is the reference, `Sharded` buys wall-clock
/// speed on multi-core hosts for large fabrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// One thread, one global event queue (the default).
    #[default]
    Sequential,
    /// Conservative-lookahead parallel engine with up to `workers`
    /// shards. `workers <= 1` degenerates to sequential execution. The
    /// node→shard map comes from [`Sim::set_partition`] (the topology
    /// layer provides a PoD-aligned one) or defaults to round-robin.
    Sharded { workers: usize },
}

/// Engine configuration, collapsed into one struct so experiment layers
/// pass a single value instead of threading loose builder knobs.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Record a [`Trace`] (disable only for microbenchmarks).
    pub trace: bool,
    /// How long after an injected interface failure the owning node's
    /// protocol hears about it (netlink notification delay).
    pub carrier_latency: Duration,
    /// Impairment installed on every link at build time (individual links
    /// can still be overridden later via [`Sim::set_impairment`]).
    pub impairment: Impairment,
    /// Event-scheduler backend. Both orders are bit-identical; the wheel
    /// is the fast default, the heap the reference for equivalence tests.
    pub scheduler: SchedulerKind,
    /// Execution engine (sequential reference or sharded parallel).
    pub engine: EngineKind,
    /// Record an [`EngineProfile`] (per-shard window accounting,
    /// barrier-stall attribution, scheduler occupancy — see
    /// [`crate::profiler`]). Durations come from the host's monotonic
    /// clock only, so the simulated run — trace, counters, digests — is
    /// bit-identical with this on or off. Collect the result with
    /// [`Sim::take_profile`].
    pub profile: bool,
    /// Adaptive window batching on the sharded engine: after every round
    /// of next-event-time reports, a shard may run past the horizon right
    /// up to one lookahead beyond the *other* shards' earliest pending
    /// event (see [`window_bounds`]), fusing what would have been K
    /// barrier rounds into one. On by default; trace digests are
    /// bit-identical either way (the equivalence suite runs both), so
    /// turning it off is only useful for overhead measurements.
    pub batch_windows: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            trace: true,
            carrier_latency: 500 * MICROS,
            impairment: Impairment::none(),
            scheduler: SchedulerKind::default(),
            engine: EngineKind::default(),
            profile: false,
            batch_windows: true,
        }
    }
}

/// Builder for a [`Sim`]. Add nodes, wire them with links (ports are
/// assigned in wiring order, which is how the topology crate reproduces the
/// paper's port numbering), then `build()`.
pub struct SimBuilder {
    seed: u64,
    config: SimConfig,
    nodes: Vec<NodeSlot>,
    links: Vec<Link>,
}

impl SimBuilder {
    /// A builder with the default [`SimConfig`].
    pub fn new(seed: u64) -> Self {
        SimBuilder::with_config(seed, SimConfig::default())
    }

    /// A builder with an explicit engine configuration.
    pub fn with_config(seed: u64, config: SimConfig) -> Self {
        SimBuilder {
            seed,
            config,
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Register a node running `proto`. Ports are added later by wiring.
    pub fn add_node(&mut self, name: impl Into<String>, proto: Box<dyn Protocol>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSlot {
            proto: Some(proto),
            name: name.into(),
            port_links: Vec::new(),
            views: Vec::new(),
            admin_target: Vec::new(),
            periodic: Vec::new(),
            up_mask: 0,
            rng: DetRng::new(self.seed, id.0 as u64),
            key_counter: 0,
        });
        id
    }

    /// Wire `a` to `b` with a new link; appends one port to each node and
    /// returns `(link, a_port, b_port)`.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, PortId, PortId) {
        assert_ne!(a, b, "self-links are not allowed");
        let id = LinkId(self.links.len() as u32);
        let ap = self.attach_port(a, id);
        let bp = self.attach_port(b, id);
        self.links.push(Link::new(
            spec,
            Endpoint { node: a, port: ap },
            Endpoint { node: b, port: bp },
        ));
        (id, ap, bp)
    }

    fn attach_port(&mut self, node: NodeId, link: LinkId) -> PortId {
        let slot = &mut self.nodes[node.index()];
        let p = PortId(slot.port_links.len() as u16);
        slot.port_links.push(link);
        slot.views.push(PortView { connected: true, up: true });
        if p.index() < 128 {
            slot.up_mask |= 1 << p.index();
        }
        slot.admin_target.push(true);
        p
    }

    /// Finalize. Every node receives `on_start` at time zero.
    pub fn build(self) -> Sim {
        let mut queue = Scheduler::new(self.config.scheduler);
        let mut nodes = self.nodes;
        for (i, slot) in nodes.iter_mut().enumerate() {
            // The start event takes the node's counter 0 slot.
            let key = EventKey { creator: i as u32, counter: 0 };
            queue.push(0, key, Event::Start { node: NodeId(i as u32) });
            slot.key_counter = 1;
        }
        let mut links = self.links;
        if !self.config.impairment.is_none() {
            for link in &mut links {
                link.impairment = self.config.impairment;
            }
        }
        let chaos = (0..links.len())
            .map(|li| {
                [
                    DetRng::new(self.seed, CHAOS_SALT.wrapping_add(li as u64 * 2)),
                    DetRng::new(self.seed, CHAOS_SALT.wrapping_add(li as u64 * 2 + 1)),
                ]
            })
            .collect();
        let profile = self.config.profile.then(|| Box::new(EngineProfile::new(nodes.len())));
        let prof = profile
            .as_ref()
            .map(|ep| Box::new(ShardProfile::new(0, nodes.len(), 1, ep.epoch)));
        Sim {
            core: Core {
                time: 0,
                queue,
                nodes,
                links,
                chaos,
                trace: if self.config.trace { Trace::enabled() } else { Trace::disabled() },
                groups: Vec::new(),
                record_groups: false,
                carrier_latency: self.config.carrier_latency,
                scratch: Vec::with_capacity(64),
                periodic_just_set: Vec::new(),
                events_processed: 0,
                frames_delivered: 0,
                frames_lost_to_impairment: 0,
                frames_corrupted: 0,
                shard_of: Vec::new(),
                my_shard: 0,
                outbox: Vec::new(),
                prof,
            },
            config: self.config,
            ext_counter: 0,
            partition: None,
            profile,
        }
    }
}

/// A dispatch trace-attribution record: the shard-local trace events
/// produced while dispatching the event identified by `(time, key)`.
/// The parallel merge concatenates shard trace segments in ascending
/// `(time, key)` order — the sequential dispatch order.
pub(crate) type TraceGroup = (Time, EventKey, u32);

/// The dispatch core shared by both engines: everything event processing
/// reads or writes. The sequential engine is one `Core` owning every
/// node; a shard is a `Core` owning its partition's nodes (foreign ids
/// hold vacant slots) plus a private copy of the link/chaos tables and a
/// per-destination outbox for cross-shard deliveries.
struct Core {
    time: Time,
    queue: Scheduler,
    nodes: Vec<NodeSlot>,
    links: Vec<Link>,
    /// Per-(link, direction) impairment streams, index 0 = the `a` side
    /// transmits. Each stream is advanced only by the shard owning that
    /// direction's sender, so draws happen in sender dispatch order —
    /// the same relative subsequence the sequential engine draws.
    chaos: Vec<[DetRng; 2]>,
    trace: Trace,
    /// Per-dispatch trace attribution, recorded only while sharded (and
    /// tracing): what the merge needs to interleave shard traces.
    groups: Vec<TraceGroup>,
    record_groups: bool,
    carrier_latency: Duration,
    scratch: Vec<Action>,
    /// Tokens the current callback armed via `set_periodic`, so the
    /// engine's automatic re-arm doesn't double-schedule a tick the
    /// protocol just re-armed itself (e.g. a cadence change).
    periodic_just_set: Vec<u64>,
    events_processed: u64,
    frames_delivered: u64,
    frames_lost_to_impairment: u64,
    frames_corrupted: u64,
    /// Node → shard map while sharded; empty in sequential mode (all
    /// events are local).
    shard_of: Vec<u32>,
    my_shard: u32,
    /// Cross-shard events staged during the current window, one bucket
    /// per destination shard.
    outbox: Vec<Vec<(Time, EventKey, Event)>>,
    /// Runtime profile of this core, when [`SimConfig::profile`] is set:
    /// the sequential engine records into the master core's profile, a
    /// shard records into its own and [`Sim::merge_shards`] folds it
    /// back. Pure observer — dispatch never reads it.
    prof: Option<Box<ShardProfile>>,
}

impl Core {
    /// Run until simulated time reaches `t` (inclusive of events at `t`).
    fn run_sequential(&mut self, t: Time) {
        // When profiling, a sequential span is one execute-only window
        // (there are no barriers to stall on).
        let span = self.prof.as_ref().map(|_| (Instant::now(), self.events_processed, self.time));
        while let Some(s) = self.queue.pop_due(t) {
            self.dispatch(s);
        }
        self.time = self.time.max(t);
        if let Some((t0, ev0, horizon)) = span {
            let elapsed = t0.elapsed().as_nanos() as u64;
            let events = self.events_processed - ev0;
            let prof = self.prof.as_mut().expect("profiling enabled");
            prof.wall_ns += elapsed;
            prof.record_window(WindowRecord {
                start_ns: t0.duration_since(prof.epoch).as_nanos() as u64,
                horizon,
                window_end: t.saturating_add(1),
                events,
                k: 1,
                execute_ns: elapsed,
                ..WindowRecord::default()
            });
        }
    }

    /// Mint the key for an event created while dispatching at `node`.
    #[inline]
    fn next_key(&mut self, node: NodeId) -> EventKey {
        let slot = &mut self.nodes[node.index()];
        let key = EventKey { creator: node.0, counter: slot.key_counter };
        slot.key_counter += 1;
        key
    }

    /// Enqueue locally, or stage into the outbox when the destination
    /// node lives on another shard.
    #[inline]
    fn push_event(&mut self, time: Time, key: EventKey, event: Event) {
        if !self.shard_of.is_empty() {
            if let Some(dest) = event.node() {
                let shard = self.shard_of[dest.index()];
                if shard != self.my_shard {
                    if let Some(prof) = &mut self.prof {
                        // The cross-shard frame matrix: a plain counter
                        // bump into a pre-sized vector (zero-alloc safe).
                        prof.frames_to[shard as usize] += 1;
                    }
                    self.outbox[shard as usize].push((time, key, event));
                    return;
                }
            }
        }
        self.queue.push(time, key, event);
    }

    fn dispatch(&mut self, s: Scheduled) {
        self.time = s.time;
        let Scheduled { time, key, event } = s;
        if let Event::MirrorIface { link, side_a, up } = event {
            // Silent bookkeeping injected by the sharded setup: keep this
            // shard's copy of a remote interface flag honest so the
            // sender-side `carries()` check matches the sequential run.
            // Not counted, not traced — parallel counters must equal
            // sequential ones.
            let l = &mut self.links[link.index()];
            if side_a {
                l.a_up = up;
            } else {
                l.b_up = up;
            }
            return;
        }
        debug_assert!(
            self.shard_of.is_empty()
                || event.node().is_none_or(|n| self.shard_of[n.index()] == self.my_shard),
            "event routed to a shard that does not own its node"
        );
        let trace_before = self.trace.len();
        self.events_processed += 1;
        if let Some(prof) = &mut self.prof {
            // Hot-node attribution: every non-mirror event has a node.
            // A counter bump into a pre-sized vector (zero-alloc safe).
            if let Some(n) = event.node() {
                prof.node_events[n.index()] += 1;
            }
        }
        match event {
            Event::Start { node } => {
                self.with_proto(node, |proto, ctx| proto.on_start(ctx));
            }
            Event::Timer { node, token } => {
                self.with_proto(node, |proto, ctx| proto.on_timer(ctx, token));
                // Engine-managed re-arm of periodic ticks: pushed after the
                // callback's own actions (exactly where a protocol's
                // trailing `set_timer` re-arm used to sit), and suppressed
                // when the callback itself re-armed the token.
                if !self.periodic_just_set.contains(&token) {
                    let every = self.nodes[node.index()]
                        .periodic
                        .iter()
                        .find(|(t, _)| *t == token)
                        .map(|(_, every)| *every);
                    if let Some(every) = every {
                        let k = self.next_key(node);
                        self.push_event(self.time + every, k, Event::Timer { node, token });
                    }
                }
            }
            Event::Deliver { node, port, frame, meta } => {
                // Receiver interface must still be up.
                if self.nodes[node.index()].views[port.index()].up {
                    self.frames_delivered += 1;
                    self.with_proto(node, |proto, ctx| {
                        proto.on_frame_meta(ctx, port, &frame, meta)
                    });
                }
            }
            Event::AdminPortDown { node, port } => {
                self.set_iface(node, port, false);
                self.trace.push(TraceEvent::PortDown { time: self.time, node, port });
                let t = self.time + self.carrier_latency;
                let k = self.next_key(node);
                self.push_event(t, k, Event::Carrier { node, port, up: false });
            }
            Event::AdminPortUp { node, port } => {
                self.set_iface(node, port, true);
                self.trace.push(TraceEvent::PortUp { time: self.time, node, port });
                let t = self.time + self.carrier_latency;
                let k = self.next_key(node);
                self.push_event(t, k, Event::Carrier { node, port, up: true });
            }
            Event::Carrier { node, port, up } => {
                self.with_proto(node, |proto, ctx| {
                    if up {
                        proto.on_port_up(ctx, port);
                    } else {
                        proto.on_port_down(ctx, port);
                    }
                });
            }
            Event::MirrorIface { .. } => unreachable!("handled above"),
        }
        if self.record_groups {
            let produced = (self.trace.len() - trace_before) as u32;
            if produced > 0 {
                self.groups.push((time, key, produced));
            }
        }
    }

    fn set_iface(&mut self, node: NodeId, port: PortId, up: bool) {
        let slot = &mut self.nodes[node.index()];
        slot.views[port.index()].up = up;
        if port.index() < 128 {
            if up {
                slot.up_mask |= 1 << port.index();
            } else {
                slot.up_mask &= !(1 << port.index());
            }
        }
        let lid = slot.port_links[port.index()];
        let link = &mut self.links[lid.index()];
        if link.a.node == node && link.a.port == port {
            link.a_up = up;
        } else {
            link.b_up = up;
        }
    }

    /// Run a protocol callback with a [`Ctx`], then apply its actions.
    fn with_proto<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn Protocol>, &mut Ctx<'_>),
    {
        let mut proto = match self.nodes[node.index()].proto.take() {
            Some(p) => p,
            None => return, // node is being inspected externally; drop event
        };
        let mut actions = std::mem::take(&mut self.scratch);
        {
            let slot = &mut self.nodes[node.index()];
            let mut ctx = Ctx {
                now: self.time,
                node,
                ports: &slot.views,
                up_mask: slot.up_mask,
                out: &mut actions,
                rng: &mut slot.rng,
            };
            // Carrier tokens are engine-internal timers translated into the
            // dedicated callbacks here.
            f(&mut proto, &mut ctx);
        }
        self.nodes[node.index()].proto = Some(proto);
        self.apply_actions(node, &mut actions);
        actions.clear();
        self.scratch = actions;
    }

    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        // Actions can cascade only through the queue, never recursively.
        self.periodic_just_set.clear();
        for action in actions.drain(..) {
            match action {
                Action::Send { port, frame, class, meta } => {
                    self.transmit(node, port, frame, class, meta)
                }
                Action::Timer { delay, token } => {
                    let k = self.next_key(node);
                    self.push_event(self.time + delay, k, Event::Timer { node, token });
                }
                Action::Periodic { first, every, token } => {
                    let slot = &mut self.nodes[node.index()];
                    match slot.periodic.iter_mut().find(|(t, _)| *t == token) {
                        Some(entry) => entry.1 = every,
                        None => slot.periodic.push((token, every)),
                    }
                    self.periodic_just_set.push(token);
                    let k = self.next_key(node);
                    self.push_event(self.time + first, k, Event::Timer { node, token });
                }
                Action::Trace(ev) => self.trace.push(ev),
            }
        }
    }

    fn transmit(
        &mut self,
        node: NodeId,
        port: PortId,
        mut frame: FrameBuf,
        class: crate::trace::FrameClass,
        mut meta: Option<dcn_wire::FrameMeta>,
    ) {
        let slot = &self.nodes[node.index()];
        let Some(&lid) = slot.port_links.get(port.index()) else {
            return; // unconnected port: nothing to do
        };
        if !slot.views[port.index()].up {
            return; // kernel refuses to transmit on a downed interface
        }
        let capture_len = frame.len() as u32;
        let wire_len = capture_len.max(MIN_WIRE_LEN);
        self.trace.push(TraceEvent::FrameSent {
            time: self.time,
            node,
            port,
            wire_len,
            capture_len,
            class,
        });
        let link = &mut self.links[lid.index()];
        let dir = link.dir_from(node);
        let start = self.time.max(link.tx_free[dir]);
        let end = start + link.spec.serialization(wire_len);
        link.tx_free[dir] = end;
        if !link.carries() {
            return; // transmitted into a dead link: frame lost
        }
        let peer = link.peer_of(node);
        let mut arrive = end + link.spec.propagation;
        let imp = link.impairment;
        if !imp.is_none() {
            // Draw in a fixed order (loss, corruption, jitter) so the
            // chaos stream is reproducible per seed. Each knob draws
            // only when enabled, keeping partial configs independent.
            // The stream belongs to this (link, direction) pair, so the
            // draw order depends only on this sender's dispatch order —
            // identical in every engine.
            let rng = &mut self.chaos[lid.index()][dir];
            if imp.loss_ppm > 0 && rng.below(1_000_000) < imp.loss_ppm as u64 {
                self.frames_lost_to_impairment += 1;
                return;
            }
            if imp.corrupt_ppm > 0
                && rng.below(1_000_000) < imp.corrupt_ppm as u64
                && !frame.is_empty()
            {
                let idx = rng.below(frame.len() as u64) as usize;
                // XOR with a nonzero byte guarantees a real change; the
                // copy-on-write keeps sharers of the buffer (retransmit
                // queues, frame caches) unaffected by in-flight damage.
                let flip = 1 + rng.below(255) as u8;
                frame = frame.with_corrupted_byte(idx, flip);
                // The metadata described the original bytes; after
                // corruption it would lie, so the receiver must re-parse.
                meta = None;
                self.frames_corrupted += 1;
            }
            if imp.jitter > 0 {
                arrive += rng.below(imp.jitter + 1);
            }
        }
        let key = self.next_key(node);
        self.push_event(arrive, key, Event::Deliver { node: peer.node, port: peer.port, frame, meta });
    }
}

/// The node→shard map plus what the engine derives from it once.
struct PartitionPlan {
    shard_of: Vec<u32>,
    shards: usize,
    /// Minimum cross-shard reaction delay (`Time::MAX` when no link
    /// crosses shards — shards are then fully independent).
    lookahead: Duration,
}

/// A running simulation.
pub struct Sim {
    core: Core,
    config: SimConfig,
    /// Counter for externally injected events ([`EventKey::EXTERNAL`]
    /// creator). Injection only happens between `run_until` calls, so
    /// this sequence — and therefore the keys — is engine-independent.
    ext_counter: u64,
    partition: Option<PartitionPlan>,
    /// Runtime profile accumulated across spans, when
    /// [`SimConfig::profile`] is set. Sequential execution records into
    /// the master core and is folded in by [`Sim::take_profile`].
    profile: Option<Box<EngineProfile>>,
}

impl Sim {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.time
    }

    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    pub fn link_count(&self) -> usize {
        self.core.links.len()
    }

    pub fn node_name(&self, node: NodeId) -> &str {
        &self.core.nodes[node.index()].name
    }

    /// Total events dispatched so far (engine throughput metric).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Total frames delivered so far.
    pub fn frames_delivered(&self) -> u64 {
        self.core.frames_delivered
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.core.trace
    }

    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.core.trace
    }

    /// The link attached to `node`'s `port`, if any.
    pub fn link_at(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        self.core.nodes[node.index()].port_links.get(port.index()).copied()
    }

    /// The remote endpoint of `node`'s `port`.
    pub fn peer_of(&self, node: NodeId, port: PortId) -> Option<Endpoint> {
        let lid = self.link_at(node, port)?;
        Some(self.core.links[lid.index()].peer_of(node))
    }

    /// Both endpoints of a link, `a` side first.
    pub fn link_ends(&self, link: LinkId) -> (Endpoint, Endpoint) {
        let l = &self.core.links[link.index()];
        (l.a, l.b)
    }

    /// Physical characteristics of a link.
    pub fn link_spec(&self, link: LinkId) -> LinkSpec {
        self.core.links[link.index()].spec
    }

    /// Number of ports on `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.core.nodes[node.index()].port_links.len()
    }

    /// Administrative state of `node`'s `port` (invariant checkers need
    /// the same interface view the protocols get).
    pub fn port_up(&self, node: NodeId, port: PortId) -> bool {
        self.core.nodes[node.index()].views[port.index()].up
    }

    /// Uniform counter/gauge access to a node's protocol, if it exposes
    /// one (routers do; traffic hosts don't). See
    /// [`crate::node::StatsSnapshot`].
    pub fn stats_snapshot_of(&self, node: NodeId) -> Option<&dyn crate::node::StatsSnapshot> {
        self.core.nodes[node.index()]
            .proto
            .as_ref()
            .and_then(|p| p.stats_snapshot())
    }

    /// Downcast a node's protocol for inspection.
    pub fn node_as<T: Any>(&self, node: NodeId) -> Option<&T> {
        self.core.nodes[node.index()]
            .proto
            .as_ref()
            .and_then(|p| p.as_any().downcast_ref::<T>())
    }

    /// Downcast a node's protocol mutably.
    pub fn node_as_mut<T: Any>(&mut self, node: NodeId) -> Option<&mut T> {
        self.core.nodes[node.index()]
            .proto
            .as_mut()
            .and_then(|p| p.as_any_mut().downcast_mut::<T>())
    }

    /// Install the node→shard map the sharded engine partitions by.
    /// Shard ids must be dense from 0; the shard count is
    /// `max(shard_of) + 1` (capped nowhere — the topology layer sizes the
    /// map to the requested worker count). Also precomputes the
    /// conservative lookahead from the static link graph. A no-op for
    /// sequential runs.
    pub fn set_partition(&mut self, shard_of: Vec<u32>) {
        assert_eq!(
            shard_of.len(),
            self.core.nodes.len(),
            "partition must assign every node exactly one shard"
        );
        let shards = shard_of.iter().map(|&s| s as usize + 1).max().unwrap_or(1);
        let lookahead = lookahead_of(&self.core.links, &shard_of);
        self.partition = Some(PartitionPlan { shard_of, shards, lookahead });
    }

    /// The installed node→shard map, if any.
    pub fn partition(&self) -> Option<&[u32]> {
        self.partition.as_ref().map(|p| p.shard_of.as_slice())
    }

    /// The conservative lookahead derived from the installed partition:
    /// minimum over cross-shard links of
    /// `serialization(MIN_WIRE_LEN) + propagation` (`Time::MAX` when no
    /// link crosses shards).
    pub fn lookahead(&self) -> Option<Duration> {
        self.partition.as_ref().map(|p| p.lookahead)
    }

    /// The configured execution engine.
    pub fn engine_kind(&self) -> EngineKind {
        self.config.engine
    }

    /// Whether the engine is recording a runtime profile.
    pub fn profiling(&self) -> bool {
        self.profile.is_some()
    }

    /// Consume the runtime profile accumulated so far (sequential
    /// execution folds into shard 0, including the master queue's
    /// occupancy stats). `None` unless [`SimConfig::profile`] was set;
    /// profiling stops once taken.
    pub fn take_profile(&mut self) -> Option<EngineProfile> {
        let mut ep = *self.profile.take()?;
        if let Some(mut master) = self.core.prof.take() {
            master.sched.absorb(self.core.queue.stats());
            ep.absorb_shard(*master);
        }
        Some(ep)
    }

    /// Schedule an interface failure (the paper's failure-injection bash
    /// script). The owning node gets a carrier-down callback after the
    /// configured carrier latency; the remote node gets nothing.
    ///
    /// No-op transitions are deduplicated: scheduling down on a port
    /// whose latest scheduled transition already targets down returns
    /// `false` without enqueuing anything (flap schedules would
    /// otherwise desync `views[port].up` from the carrier events).
    /// Transitions must be scheduled in chronological order for the
    /// guard to match execution order.
    pub fn schedule_port_down(&mut self, at: Time, node: NodeId, port: PortId) -> bool {
        self.schedule_admin(at, node, port, false)
    }

    /// Schedule an interface recovery. Deduplicated like
    /// [`Sim::schedule_port_down`].
    pub fn schedule_port_up(&mut self, at: Time, node: NodeId, port: PortId) -> bool {
        self.schedule_admin(at, node, port, true)
    }

    fn schedule_admin(&mut self, at: Time, node: NodeId, port: PortId, up: bool) -> bool {
        assert!(at >= self.core.time, "cannot schedule in the past");
        let target = &mut self.core.nodes[node.index()].admin_target[port.index()];
        if *target == up {
            return false; // already heading to that state: drop the duplicate
        }
        *target = up;
        let key = EventKey { creator: EventKey::EXTERNAL, counter: self.ext_counter };
        self.ext_counter += 1;
        let event = if up {
            Event::AdminPortUp { node, port }
        } else {
            Event::AdminPortDown { node, port }
        };
        self.core.queue.push(at, key, event);
        true
    }

    /// Replace the impairment on one link.
    pub fn set_impairment(&mut self, link: LinkId, imp: Impairment) {
        self.core.links[link.index()].impairment = imp;
    }

    /// Replace the impairment on every link (e.g. to end a chaos window).
    pub fn set_impairment_all(&mut self, imp: Impairment) {
        for link in &mut self.core.links {
            link.impairment = imp;
        }
    }

    /// Frames silently dropped by link-impairment loss so far.
    pub fn frames_lost_to_impairment(&self) -> u64 {
        self.core.frames_lost_to_impairment
    }

    /// Frames with a byte corrupted in flight so far.
    pub fn frames_corrupted(&self) -> u64 {
        self.core.frames_corrupted
    }

    /// Run until simulated time reaches `t` (inclusive of events at `t`).
    pub fn run_until(&mut self, t: Time) {
        let workers = match self.config.engine {
            EngineKind::Sharded { workers } => workers,
            EngineKind::Sequential => 1,
        };
        if workers > 1 && self.core.nodes.len() > 1 {
            self.run_until_sharded(t);
        } else {
            self.core.run_sequential(t);
        }
    }

    /// Run for `d` more simulated time.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.core.time + d);
    }

    /// The parallel span: dismantle the master state into shard cores,
    /// advance them through lookahead-bounded windows on scoped worker
    /// threads, then merge everything back so the master is again the
    /// single source of truth (stats accessors, telemetry, further
    /// scheduling all work between spans exactly as in sequential mode).
    fn run_until_sharded(&mut self, target: Time) {
        if self.partition.is_none() {
            let workers = match self.config.engine {
                EngineKind::Sharded { workers } => workers,
                EngineKind::Sequential => unreachable!("sharded path requires Sharded engine"),
            };
            let n = self.core.nodes.len();
            self.set_partition((0..n).map(|i| (i % workers) as u32).collect());
        }
        let (shards, lookahead) = {
            let p = self.partition.as_ref().expect("just installed");
            (p.shards, p.lookahead)
        };
        if shards <= 1 || lookahead == 0 {
            // One shard, or a graph so fast the lookahead vanished:
            // windows would be empty, so run the reference engine.
            return self.core.run_sequential(target);
        }
        if self.core.queue.peek_time().is_none_or(|t| t > target) {
            self.core.time = self.core.time.max(target);
            return;
        }
        let shard_of = self.partition.as_ref().expect("installed").shard_of.clone();
        let trace_enabled = self.core.trace.is_enabled();
        if let Some(ep) = self.profile.as_mut() {
            ep.lookahead = Some(lookahead);
            ep.spans += 1;
        }

        let mut cores = self.build_shards(&shard_of, shards, trace_enabled);
        run_windows(&mut cores, target, lookahead, self.config.batch_windows);
        self.merge_shards(cores, &shard_of, trace_enabled);
        self.core.time = target;
    }

    /// Split the master core into per-shard cores: nodes by partition,
    /// private link/chaos copies, pending events routed to their owner —
    /// with admin transitions additionally fanned out as silent
    /// [`Event::MirrorIface`] copies (same `(time, key)`!) so every
    /// shard's link flags flip at the instant the owning shard applies
    /// the transition.
    fn build_shards(&mut self, shard_of: &[u32], shards: usize, trace_enabled: bool) -> Vec<Core> {
        let kind = self.config.scheduler;
        let mut queues: Vec<Scheduler> = (0..shards).map(|_| Scheduler::new(kind)).collect();
        while let Some(s) = self.core.queue.pop() {
            let Some(node) = s.event.node() else {
                continue; // master never holds mirrors; drop defensively
            };
            let home = shard_of[node.index()] as usize;
            match s.event {
                Event::AdminPortDown { node, port } | Event::AdminPortUp { node, port } => {
                    let up = matches!(s.event, Event::AdminPortUp { .. });
                    let lid = self.core.nodes[node.index()].port_links[port.index()];
                    let l = &self.core.links[lid.index()];
                    let side_a = l.a.node == node && l.a.port == port;
                    for (sh, q) in queues.iter_mut().enumerate() {
                        if sh != home {
                            q.push(s.time, s.key, Event::MirrorIface { link: lid, side_a, up });
                        }
                    }
                }
                _ => {}
            }
            queues[home].push(s.time, s.key, s.event);
        }
        let n_nodes = self.core.nodes.len();
        let mut shard_nodes: Vec<Vec<NodeSlot>> =
            (0..shards).map(|_| Vec::with_capacity(n_nodes)).collect();
        for (i, slot) in std::mem::take(&mut self.core.nodes).into_iter().enumerate() {
            let home = shard_of[i] as usize;
            for (sh, nodes) in shard_nodes.iter_mut().enumerate() {
                if sh != home {
                    nodes.push(NodeSlot::foreign());
                }
            }
            shard_nodes[home].push(slot);
        }
        queues
            .into_iter()
            .zip(shard_nodes)
            .enumerate()
            .map(|(sh, (queue, nodes))| Core {
                time: self.core.time,
                queue,
                nodes,
                links: self.core.links.clone(),
                chaos: self.core.chaos.clone(),
                trace: if trace_enabled { Trace::enabled() } else { Trace::disabled() },
                groups: Vec::new(),
                record_groups: trace_enabled,
                carrier_latency: self.core.carrier_latency,
                scratch: Vec::with_capacity(64),
                periodic_just_set: Vec::new(),
                events_processed: 0,
                frames_delivered: 0,
                frames_lost_to_impairment: 0,
                frames_corrupted: 0,
                shard_of: shard_of.to_vec(),
                my_shard: sh as u32,
                outbox: (0..shards).map(|_| Vec::new()).collect(),
                prof: self
                    .profile
                    .as_ref()
                    .map(|ep| Box::new(ShardProfile::new(sh as u32, n_nodes, shards, ep.epoch))),
            })
            .collect()
    }

    /// Reassemble the master core from finished shards. Every direction
    /// of every link (tx FIFO, up flag, chaos stream) is authoritative in
    /// the shard owning that direction's transmitting node; node slots
    /// return by id; counters sum; surviving future events return to the
    /// master queue (mirrors are dropped — they are regenerated per
    /// span); shard traces interleave by their dispatch `(time, key)`
    /// attribution, which is the sequential dispatch order.
    fn merge_shards(&mut self, mut cores: Vec<Core>, shard_of: &[u32], trace_enabled: bool) {
        for core in &cores {
            self.core.events_processed += core.events_processed;
            self.core.frames_delivered += core.frames_delivered;
            self.core.frames_lost_to_impairment += core.frames_lost_to_impairment;
            self.core.frames_corrupted += core.frames_corrupted;
        }
        for core in &mut cores {
            if let Some(mut prof) = core.prof.take() {
                prof.sched.absorb(core.queue.stats());
                self.profile.as_mut().expect("shards profile only when sim does").absorb_shard(*prof);
            }
        }
        for core in &mut cores {
            debug_assert!(core.outbox.iter().all(Vec::is_empty), "undelivered cross-shard events");
            while let Some(s) = core.queue.pop() {
                if matches!(s.event, Event::MirrorIface { .. }) {
                    continue;
                }
                self.core.queue.push(s.time, s.key, s.event);
            }
        }
        for (li, link) in self.core.links.iter_mut().enumerate() {
            let sa = shard_of[link.a.node.index()] as usize;
            let sb = shard_of[link.b.node.index()] as usize;
            let (la, lb) = (&cores[sa].links[li], &cores[sb].links[li]);
            link.tx_free = [la.tx_free[0], lb.tx_free[1]];
            link.a_up = la.a_up;
            link.b_up = lb.b_up;
            self.core.chaos[li] =
                [cores[sa].chaos[li][0].clone(), cores[sb].chaos[li][1].clone()];
        }
        let n_nodes = shard_of.len();
        let mut rebuilt: Vec<NodeSlot> = Vec::with_capacity(n_nodes);
        {
            let mut drains: Vec<_> = cores.iter_mut().map(|c| c.nodes.drain(..)).collect();
            for &home in shard_of.iter().take(n_nodes) {
                for (sh, drain) in drains.iter_mut().enumerate() {
                    let slot = drain.next().expect("shard node vectors cover every id");
                    if sh == home as usize {
                        rebuilt.push(slot);
                    }
                }
            }
        }
        self.core.nodes = rebuilt;
        if trace_enabled {
            merge_traces(&mut self.core.trace, cores);
        }
    }
}

/// Minimum over cross-shard links of the earliest a transmission can
/// reach the other side: serialization of a minimum-size frame plus
/// propagation. Queueing (tx FIFO) and jitter only push arrivals later,
/// so this is a sound conservative lookahead.
fn lookahead_of(links: &[Link], shard_of: &[u32]) -> Duration {
    let mut min = Time::MAX;
    for link in links {
        if shard_of[link.a.node.index()] != shard_of[link.b.node.index()] {
            let d = link.spec.serialization(MIN_WIRE_LEN) + link.spec.propagation;
            min = min.min(d);
        }
    }
    min
}

/// The window one shard may execute after a round of next-event-time
/// reports, or `None` when the global horizon is past `target` and every
/// shard stops. Pure — every shard computes it from the same published
/// `next_times`, so the stop decision is unanimous by construction.
///
/// Unbatched (`batching == false`), the window is the PR 7 protocol
/// verbatim: `[T, T + L)` with `T = min(next_times)` and `L` the
/// conservative lookahead, identical for every shard.
///
/// Batched, shard `d` may instead run to
///
/// ```text
/// bound_d = min( min over other shards s of next_times[s],
///                next_times[d] + L ) + L
/// ```
///
/// — the earliest instant anything can *ever* reach `d` from this point
/// on. An event reaches `d` along a chain of `k >= 1` cross-shard hops
/// starting from some shard's currently pending work, and each hop adds
/// at least one lookahead: one hop from `s != d` gives
/// `next_times[s] + L`; two hops bouncing `d`'s own output off a peer
/// give `next_times[d] + 2L`; longer chains only add more `L`. The
/// minimum over all chains is exactly `bound_d`, so `d` executing right
/// up to (exclusive) that bound can never pass an in-flight event — in
/// this round or any later one. The second term is what makes the bound
/// sound across rounds: without it, a shard racing `K` lookaheads ahead
/// of an idle fleet could have its own output echo back (via a peer
/// woken next round) *inside* the span it already executed.
///
/// When `d` holds the globally earliest work and every other shard is
/// idle at least one lookahead out, the bound fuses two lookahead
/// windows into one barrier round (`K = 2` — the uniform-lookahead
/// optimum, since `d`'s own send at the horizon can bounce back at
/// `horizon + 2L`). When any other shard is close, it degenerates to
/// `T + L`: the automatic K=1 fallback.
///
/// Both bounds are clamped to `target + 1` (events *at* `target`
/// included, later ones left for the next span).
pub fn window_bounds(
    shard: usize,
    next_times: &[Time],
    lookahead: Duration,
    target: Time,
    batching: bool,
) -> Option<(Time, Time)> {
    let horizon = next_times.iter().copied().min().expect("at least one shard");
    if horizon > target {
        return None;
    }
    let base = if batching {
        let others = next_times
            .iter()
            .enumerate()
            .filter(|&(s, _)| s != shard)
            .map(|(_, &t)| t)
            .min()
            .unwrap_or(Time::MAX);
        others.min(next_times[shard].saturating_add(lookahead))
    } else {
        horizon
    };
    let end = base.saturating_add(lookahead).min(target.saturating_add(1));
    Some((horizon, end))
}

/// Advance all shards to `target` through lookahead-bounded windows.
///
/// Each round (all shards in lockstep, two [`SpinBarrier`] waits):
/// 1. **Barrier A** — every deposit from the previous window is visible;
///    each shard drains its per-sender [`SpscQueue`] channels into its
///    local queue, then publishes the time of its next pending event.
/// 2. **Barrier B** — every report is visible; each shard independently
///    computes the same global horizon `T = min(reports)`. If `T` is past
///    `target`, all stop. Otherwise each processes its local events up to
///    its [`window_bounds`] — `T + lookahead`, or with batching the
///    adaptive multiple of it — staging cross-shard deliveries in
///    outboxes, and deposits those into the destination channels before
///    looping back to barrier A.
///
/// Any event a shard creates for another shard arrives at or after the
/// receiver's window end — so deposits are always for a *future* window
/// and never reorder the present one. Deposit order across senders is
/// nondeterministic, but the receiver's queue re-sorts by `(time, key)`,
/// which is globally unique and engine-independent.
fn run_windows(cores: &mut [Core], target: Time, lookahead: Duration, batching: bool) {
    let shards = cores.len();
    // Spinning at a barrier only pays while every shard owns a core;
    // oversubscribed, a spinner just burns the timeslice the straggler
    // needs, so park immediately.
    let spin = std::thread::available_parallelism()
        .map(|p| if p.get() >= shards { DEFAULT_SPIN } else { 0 })
        .unwrap_or(0);
    let barrier = SpinBarrier::with_spin(shards, spin);
    let next_times: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    // One SPSC channel per (sender, receiver) pair, receiver-major so a
    // shard drains a contiguous row: `channels[dst * shards + src]`.
    let channels: Vec<SpscQueue<(Time, EventKey, Event)>> =
        (0..shards * shards).map(|_| SpscQueue::new()).collect();
    std::thread::scope(|scope| {
        for (sh, core) in cores.iter_mut().enumerate() {
            let barrier = &barrier;
            let next_times = &next_times;
            let channels = &channels;
            scope.spawn(move || {
                // Host-clock window profiling (see [`crate::profiler`]):
                // timestamps bracket each phase of the protocol. Taken
                // only when profiling; none of it feeds back into
                // execution.
                let profiling = core.prof.is_some();
                let span_start = profiling.then(Instant::now);
                let mut sense = BarrierSense::default();
                let mut published: Vec<Time> = vec![0; shards];
                loop {
                    let t0 = profiling.then(Instant::now);
                    // (A) prior deposits are complete; absorb mine.
                    barrier.wait(&mut sense);
                    let t1 = profiling.then(Instant::now);
                    for src in 0..shards {
                        channels[sh * shards + src].drain(|batch| {
                            for (time, key, event) in batch {
                                core.queue.push(time, key, event);
                            }
                        });
                    }
                    let next = core.queue.peek_time().unwrap_or(Time::MAX);
                    next_times[sh].store(next, Ordering::Relaxed);
                    let t2 = profiling.then(Instant::now);
                    // (B) all reports in; everyone computes the same window.
                    barrier.wait(&mut sense);
                    let t3 = profiling.then(Instant::now);
                    for (slot, t) in published.iter_mut().zip(next_times.iter()) {
                        *slot = t.load(Ordering::Relaxed);
                    }
                    let Some((horizon, window_end)) =
                        window_bounds(sh, &published, lookahead, target, batching)
                    else {
                        // The last round's barrier waits land in the
                        // span's unattributed ("other") time.
                        break;
                    };
                    let ev0 = core.events_processed;
                    // `window_end` is exclusive, and positive since `lookahead` is.
                    while let Some(s) = core.queue.pop_due(window_end - 1) {
                        core.dispatch(s);
                    }
                    let t4 = profiling.then(Instant::now);
                    for dst in 0..shards {
                        if dst != sh && !core.outbox[dst].is_empty() {
                            channels[dst * shards + sh]
                                .push(std::mem::take(&mut core.outbox[dst]));
                        }
                    }
                    if let (Some(t0), Some(t1), Some(t2), Some(t3), Some(t4)) =
                        (t0, t1, t2, t3, t4)
                    {
                        let t5 = Instant::now();
                        let events = core.events_processed - ev0;
                        let prof = core.prof.as_mut().expect("profiling on");
                        prof.record_window(WindowRecord {
                            start_ns: t0.duration_since(prof.epoch).as_nanos() as u64,
                            horizon,
                            window_end,
                            events,
                            k: (window_end - horizon).div_ceil(lookahead).max(1),
                            barrier_a_ns: t1.duration_since(t0).as_nanos() as u64,
                            drain_ns: t2.duration_since(t1).as_nanos() as u64,
                            barrier_b_ns: t3.duration_since(t2).as_nanos() as u64,
                            execute_ns: t4.duration_since(t3).as_nanos() as u64,
                            deposit_ns: t5.duration_since(t4).as_nanos() as u64,
                        });
                    }
                }
                core.time = target;
                if let (Some(start), Some(prof)) = (span_start, core.prof.as_mut()) {
                    prof.wall_ns += start.elapsed().as_nanos() as u64;
                }
            });
        }
    });
}

/// Interleave finished shard traces into the master trace using the
/// per-dispatch `(time, key, count)` attribution: always take the group
/// with the smallest `(time, key)` — the order the sequential engine
/// would have dispatched in.
fn merge_traces(master: &mut Trace, cores: Vec<Core>) {
    let streams: Vec<(Vec<TraceGroup>, Vec<TraceEvent>)> = cores
        .into_iter()
        .map(|mut core| (std::mem::take(&mut core.groups), core.trace.take_events()))
        .collect();
    merge_group_streams(streams, |ev| master.push(ev));
}

/// The k-way merge under [`merge_traces`], generic so its ordering
/// contract is property-testable: each stream is a list of
/// `(time, key, count)` group markers (ascending by `(time, key)`, as a
/// shard records them) plus a flat event list the counts segment. Emit
/// the segments of the globally smallest `(time, key)` head first; exact
/// ties — impossible in real runs, where keys are globally unique — go
/// to the lowest stream index, making the merge total and stable on any
/// input.
pub(crate) fn merge_group_streams<E>(
    streams: Vec<(Vec<TraceGroup>, Vec<E>)>,
    mut emit: impl FnMut(E),
) {
    struct Stream<E> {
        groups: std::vec::IntoIter<TraceGroup>,
        events: std::vec::IntoIter<E>,
        head: Option<TraceGroup>,
    }
    let mut streams: Vec<Stream<E>> = streams
        .into_iter()
        .map(|(groups, events)| {
            let mut groups = groups.into_iter();
            let head = groups.next();
            Stream { groups, events: events.into_iter(), head }
        })
        .collect();
    loop {
        let mut best: Option<usize> = None;
        for (i, s) in streams.iter().enumerate() {
            if let Some((time, key, _)) = s.head {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let (bt, bk, _) = streams[b].head.expect("best has a head");
                        (time, key) < (bt, bk)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        let Some(i) = best else { break };
        let (_, _, count) = streams[i].head.expect("chosen stream has a head");
        for _ in 0..count {
            let ev = streams[i].events.next().expect("group count matches stream length");
            emit(ev);
        }
        streams[i].head = streams[i].groups.next();
    }
    for s in &mut streams {
        debug_assert!(s.events.next().is_none(), "stream events not covered by groups");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FrameClass;
    use std::any::Any;

    /// A test protocol that echoes every received frame back out the same
    /// port and counts what it sees.
    struct Echo {
        received: Vec<(Time, PortId, Vec<u8>)>,
        timers: Vec<(Time, u64)>,
        downs: Vec<(Time, PortId)>,
        ups: Vec<(Time, PortId)>,
        send_on_start: Option<(PortId, Vec<u8>)>,
        periodic: Option<Duration>,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                received: Vec::new(),
                timers: Vec::new(),
                downs: Vec::new(),
                ups: Vec::new(),
                send_on_start: None,
                periodic: None,
            }
        }
    }

    impl Protocol for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some((port, frame)) = self.send_on_start.take() {
                ctx.send(port, frame, FrameClass::Data);
            }
            if let Some(p) = self.periodic {
                ctx.set_timer(p, 1);
            }
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &FrameBuf) {
            self.received.push((ctx.now(), port, frame.to_vec()));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.timers.push((ctx.now(), token));
            if let Some(p) = self.periodic {
                ctx.set_timer(p, token + 1);
            }
        }
        fn on_port_down(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
            self.downs.push((ctx.now(), port));
        }
        fn on_port_up(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
            self.ups.push((ctx.now(), port));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_nodes() -> (Sim, NodeId, NodeId) {
        let mut b =
            SimBuilder::with_config(1, SimConfig { carrier_latency: 1000, ..SimConfig::default() });
        let a = b.add_node("a", Box::new(Echo::new()));
        let c = b.add_node("b", Box::new(Echo::new()));
        b.add_link(a, c, LinkSpec { propagation: 1000, bandwidth_bps: 1_000_000_000 });
        (b.build(), a, c)
    }

    #[test]
    fn frame_crosses_link_with_delay() {
        let mut b = SimBuilder::new(1);
        let mut ea = Echo::new();
        ea.send_on_start = Some((PortId(0), vec![0xAB; 100]));
        let a = b.add_node("a", Box::new(ea));
        let c = b.add_node("b", Box::new(Echo::new()));
        b.add_link(a, c, LinkSpec { propagation: 1000, bandwidth_bps: 1_000_000_000 });
        let mut sim = b.build();
        sim.run_until(1_000_000);
        let rx = &sim.node_as::<Echo>(c).unwrap().received;
        assert_eq!(rx.len(), 1);
        // 100 bytes at 1 Gb/s = 800 ns serialization + 1000 ns propagation.
        assert_eq!(rx[0].0, 1800);
        assert_eq!(rx[0].2.len(), 100);
        assert_eq!(sim.frames_delivered(), 1);
    }

    #[test]
    fn short_frames_are_padded_to_min_wire_len() {
        let mut b = SimBuilder::new(1);
        let mut ea = Echo::new();
        ea.send_on_start = Some((PortId(0), vec![1u8; 15]));
        let a = b.add_node("a", Box::new(ea));
        let c = b.add_node("b", Box::new(Echo::new()));
        b.add_link(a, c, LinkSpec { propagation: 0, bandwidth_bps: 1_000_000_000 });
        let mut sim = b.build();
        sim.run_until(1_000_000);
        // Serialization reflects padding (60 B = 480 ns), payload doesn't.
        let rx = &sim.node_as::<Echo>(c).unwrap().received;
        assert_eq!(rx[0].0, 480);
        assert_eq!(rx[0].2.len(), 15);
        let sent: Vec<u32> = sim
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::FrameSent { wire_len, .. } => Some(*wire_len),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![60]);
    }

    #[test]
    fn failure_notifies_owner_only_and_drops_frames() {
        let (mut sim, a, c) = two_nodes();
        sim.schedule_port_down(10_000, a, PortId(0));
        sim.run_until(20_000);
        let ea = sim.node_as::<Echo>(a).unwrap();
        assert_eq!(ea.downs, vec![(11_000, PortId(0))]); // carrier latency 1000
        let eb = sim.node_as::<Echo>(c).unwrap();
        assert!(eb.downs.is_empty(), "remote side must not get carrier events");
    }

    #[test]
    fn frames_into_dead_link_are_traced_but_lost() {
        let (mut sim, a, c) = two_nodes();
        sim.schedule_port_down(10_000, c, PortId(0));
        sim.run_until(15_000);
        // a transmits toward b's dead interface.
        {
            let ea = sim.node_as_mut::<Echo>(a).unwrap();
            ea.send_on_start = Some((PortId(0), vec![7; 80]));
        }
        // Re-start is not available; drive a send via a manual deliver:
        // instead use the public API — schedule another node... simplest:
        // bring the port back up and check recovery delivery works.
        sim.schedule_port_up(20_000, c, PortId(0));
        sim.run_until(30_000);
        let eb = sim.node_as::<Echo>(c).unwrap();
        assert_eq!(eb.ups, vec![(21_000, PortId(0))]);
    }

    #[test]
    fn timers_fire_in_order_and_reschedule() {
        let mut b = SimBuilder::new(1);
        let mut e = Echo::new();
        e.periodic = Some(5_000);
        let a = b.add_node("a", Box::new(e));
        let mut sim = b.build();
        sim.run_until(20_000);
        let timers = &sim.node_as::<Echo>(a).unwrap().timers;
        assert_eq!(
            timers,
            &vec![(5_000, 1), (10_000, 2), (15_000, 3), (20_000, 4)]
        );
        assert_eq!(sim.now(), 20_000);
    }

    #[test]
    fn engine_periodic_matches_self_rearm_cadence() {
        // A protocol arming `set_periodic(first, every, token)` sees the
        // exact fire times a self-re-arming one-shot would produce.
        struct Tick {
            fires: Vec<Time>,
        }
        impl Protocol for Tick {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_periodic(5_000, 5_000, 1);
            }
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: &FrameBuf) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                assert_eq!(token, 1);
                self.fires.push(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut b = SimBuilder::new(1);
        let a = b.add_node("a", Box::new(Tick { fires: Vec::new() }));
        let mut sim = b.build();
        sim.run_until(20_000);
        let fires = &sim.node_as::<Tick>(a).unwrap().fires;
        assert_eq!(fires, &vec![5_000, 10_000, 15_000, 20_000]);
    }

    #[test]
    fn set_periodic_inside_on_timer_replaces_cadence_without_doubling() {
        struct Retick {
            fires: Vec<Time>,
        }
        impl Protocol for Retick {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_periodic(1_000, 1_000, 7);
            }
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: &FrameBuf) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                self.fires.push(ctx.now());
                if self.fires.len() == 2 {
                    // Slow the tick down mid-run.
                    ctx.set_periodic(3_000, 3_000, 7);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut b = SimBuilder::new(1);
        let a = b.add_node("a", Box::new(Retick { fires: Vec::new() }));
        let mut sim = b.build();
        sim.run_until(11_000);
        let fires = &sim.node_as::<Retick>(a).unwrap().fires;
        // 1 ms cadence twice, then the re-arm takes over: no doubled fire
        // at 3 ms from the engine's automatic re-arm.
        assert_eq!(fires, &vec![1_000, 2_000, 5_000, 8_000, 11_000]);
    }

    #[test]
    fn heap_and_wheel_schedulers_produce_identical_traces() {
        let run = |kind: SchedulerKind| {
            let cfg = SimConfig { scheduler: kind, ..SimConfig::default() };
            let mut b = SimBuilder::with_config(17, cfg);
            let mut e = Echo::new();
            e.periodic = Some(3_000);
            e.send_on_start = Some((PortId(0), vec![9; 64]));
            let a = b.add_node("a", Box::new(e));
            let c = b.add_node("b", Box::new(Echo::new()));
            b.add_link(a, c, LinkSpec::default());
            let mut sim = b.build();
            sim.schedule_port_down(20_000, a, PortId(0));
            sim.schedule_port_up(35_000, a, PortId(0));
            sim.run_until(80_000);
            let rendered: Vec<String> =
                sim.trace().events().iter().map(|e| format!("{e:?}")).collect();
            (sim.events_processed(), sim.frames_delivered(), rendered)
        };
        assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Wheel));
    }

    #[test]
    fn per_direction_fifo_serialization() {
        // Two frames sent back-to-back must serialize one after the other.
        struct Burst;
        impl Protocol for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(PortId(0), vec![0; 125], FrameClass::Data);
                ctx.send(PortId(0), vec![1; 125], FrameClass::Data);
            }
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: &FrameBuf) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut b = SimBuilder::new(1);
        let a = b.add_node("a", Box::new(Burst));
        let c = b.add_node("b", Box::new(Echo::new()));
        b.add_link(a, c, LinkSpec { propagation: 0, bandwidth_bps: 1_000_000_000 });
        let mut sim = b.build();
        sim.run_until(1_000_000);
        let rx = &sim.node_as::<Echo>(c).unwrap().received;
        // 125 B at 1 Gb/s = 1 µs each: arrivals at 1 µs and 2 µs.
        assert_eq!(rx[0].0, 1_000);
        assert_eq!(rx[1].0, 2_000);
    }

    #[test]
    fn double_scheduling_same_transition_is_deduplicated() {
        let (mut sim, a, _) = two_nodes();
        assert!(sim.schedule_port_down(10_000, a, PortId(0)));
        assert!(!sim.schedule_port_down(12_000, a, PortId(0)), "down-on-down dropped");
        assert!(sim.schedule_port_up(15_000, a, PortId(0)));
        assert!(!sim.schedule_port_up(16_000, a, PortId(0)), "up-on-up dropped");
        assert!(sim.schedule_port_down(17_000, a, PortId(0)));
        assert!(sim.schedule_port_up(18_000, a, PortId(0)));
        sim.run_until(30_000);
        let ea = sim.node_as::<Echo>(a).unwrap();
        // Exactly one carrier callback per scheduled transition; the
        // duplicates produced neither events nor desynced view state.
        assert_eq!(ea.downs, vec![(11_000, PortId(0)), (18_000, PortId(0))]);
        assert_eq!(ea.ups, vec![(16_000, PortId(0)), (19_000, PortId(0))]);
        assert!(sim.core.nodes[a.index()].views[0].up);
    }

    #[test]
    fn impairment_loss_drops_frames() {
        // Sender on `c` emits one frame per ms; with 100% loss none
        // arrive at `a`, and every transmission is counted as lost.
        let run = |loss_ppm: u32| {
            let mut b = SimBuilder::new(9);
            let a = b.add_node("a", Box::new(Echo::new()));
            let c = b.add_node("b", Box::new(Sender));
            b.add_link(a, c, LinkSpec { propagation: 100, bandwidth_bps: 1_000_000_000 });
            let mut sim = b.build();
            sim.set_impairment_all(Impairment { loss_ppm, ..Impairment::none() });
            sim.run_until(10_500_000);
            let got = sim.node_as::<Echo>(a).unwrap().received.len() as u64;
            (got, sim.frames_lost_to_impairment())
        };
        let (clean, lost0) = run(0);
        let (none, lost_all) = run(1_000_000);
        assert_eq!(clean, 10);
        assert_eq!(lost0, 0);
        assert_eq!(none, 0);
        assert_eq!(lost_all, clean);
    }

    /// Emits a frame every millisecond.
    struct Sender;
    impl Protocol for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(1_000_000, 1);
        }
        fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: &FrameBuf) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            ctx.send(PortId(0), vec![0x5A; 80], FrameClass::Data);
            ctx.set_timer(1_000_000, token + 1);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn impairment_corruption_flips_exactly_one_byte() {
        let mut b = SimBuilder::new(3);
        let mut ea = Echo::new();
        ea.send_on_start = Some((PortId(0), vec![0x77; 64]));
        let a = b.add_node("a", Box::new(ea));
        let c = b.add_node("b", Box::new(Echo::new()));
        b.add_link(a, c, LinkSpec::default());
        let mut sim = b.build();
        sim.set_impairment_all(Impairment { corrupt_ppm: 1_000_000, ..Impairment::none() });
        sim.run_until(1_000_000);
        assert_eq!(sim.frames_corrupted(), 1);
        let rx = &sim.node_as::<Echo>(c).unwrap().received;
        assert_eq!(rx.len(), 1, "corruption must not drop the frame");
        let diffs = rx[0].2.iter().filter(|&&x| x != 0x77).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn impairment_jitter_delays_but_delivers() {
        let deliver_time = |jitter| {
            let mut b = SimBuilder::new(5);
            let mut ea = Echo::new();
            ea.send_on_start = Some((PortId(0), vec![1; 100]));
            let a = b.add_node("a", Box::new(ea));
            let c = b.add_node("b", Box::new(Echo::new()));
            b.add_link(a, c, LinkSpec { propagation: 1000, bandwidth_bps: 1_000_000_000 });
            let mut sim = b.build();
            sim.set_impairment_all(Impairment { jitter, ..Impairment::none() });
            sim.run_until(10_000_000);
            sim.node_as::<Echo>(c).unwrap().received[0].0
        };
        let base = deliver_time(0);
        assert_eq!(base, 1800);
        let jittered = deliver_time(50_000);
        assert!(jittered >= base && jittered <= base + 50_000, "jittered: {jittered}");
    }

    #[test]
    fn clean_links_draw_nothing_from_chaos_rng() {
        // A run with the impairment machinery but all-clean links must be
        // bit-identical to the seed behavior: same trace, same deliveries.
        let run = |imp: Option<Impairment>| {
            let mut b = SimBuilder::new(11);
            let mut e = Echo::new();
            e.periodic = Some(3_000);
            e.send_on_start = Some((PortId(0), vec![9; 64]));
            let a = b.add_node("a", Box::new(e));
            let c = b.add_node("b", Box::new(Echo::new()));
            b.add_link(a, c, LinkSpec::default());
            let mut sim = b.build();
            if let Some(imp) = imp {
                sim.set_impairment_all(imp);
            }
            sim.run_until(50_000);
            (sim.trace().len(), sim.frames_delivered())
        };
        assert_eq!(run(None), run(Some(Impairment::none())));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut b = SimBuilder::new(seed);
            let mut e = Echo::new();
            e.periodic = Some(3_000);
            e.send_on_start = Some((PortId(0), vec![9; 64]));
            let a = b.add_node("a", Box::new(e));
            let c = b.add_node("b", Box::new(Echo::new()));
            b.add_link(a, c, LinkSpec::default());
            let mut sim = b.build();
            sim.run_until(50_000);
            sim.trace().len()
        };
        assert_eq!(run(7), run(7));
    }

    // ------------------------------------------------------------------
    // Sharded engine equivalence
    // ------------------------------------------------------------------

    /// Full observable fingerprint of a run: every counter plus the
    /// rendered trace (which embeds times, nodes, ports, lengths).
    fn fingerprint(sim: &Sim) -> (u64, u64, u64, u64, Vec<String>) {
        (
            sim.events_processed(),
            sim.frames_delivered(),
            sim.frames_corrupted(),
            sim.frames_lost_to_impairment(),
            sim.trace().events().iter().map(|e| format!("{e:?}")).collect(),
        )
    }

    /// A 4-node chain `s0 - e0 - e1 - s1` with periodic senders at both
    /// ends, admin flaps on the middle (cross-shard) link, and chaos
    /// impairment — every determinism hazard the sharded engine must
    /// handle, in one small fabric.
    fn chain_run(engine: EngineKind, partition: Option<Vec<u32>>, split_spans: bool) -> (u64, u64, u64, u64, Vec<String>) {
        let cfg = SimConfig { engine, ..SimConfig::default() };
        let mut b = SimBuilder::with_config(23, cfg);
        let s0 = b.add_node("s0", Box::new(Sender));
        let e0 = b.add_node("e0", Box::new(Echo::new()));
        let e1 = b.add_node("e1", Box::new(Echo::new()));
        let s1 = b.add_node("s1", Box::new(Sender));
        b.add_link(s0, e0, LinkSpec::default());
        b.add_link(e0, e1, LinkSpec::default()); // the cross-shard middle
        b.add_link(e1, s1, LinkSpec::default());
        let mut sim = b.build();
        if let Some(p) = partition {
            sim.set_partition(p);
        }
        sim.set_impairment_all(Impairment {
            loss_ppm: 50_000,
            corrupt_ppm: 50_000,
            jitter: 2_000,
        });
        // Flap e0's side of the middle link: the far shard must see the
        // flag flip at the same instant (MirrorIface), or its sender's
        // carries() check diverges from the sequential run.
        sim.schedule_port_down(3_500_000, e0, PortId(1));
        sim.schedule_port_up(5_500_000, e0, PortId(1));
        if split_spans {
            // Exercise the dismantle/merge cycle mid-run, with external
            // scheduling between spans.
            sim.run_until(4_000_000);
            sim.schedule_port_down(6_200_000, e1, PortId(1));
            sim.schedule_port_up(7_100_000, e1, PortId(1));
            sim.run_until(10_500_000);
        } else {
            sim.schedule_port_down(6_200_000, e1, PortId(1));
            sim.schedule_port_up(7_100_000, e1, PortId(1));
            sim.run_until(10_500_000);
        }
        fingerprint(&sim)
    }

    #[test]
    fn sharded_engine_matches_sequential_bit_for_bit() {
        let reference = chain_run(EngineKind::Sequential, None, false);
        let sharded = chain_run(
            EngineKind::Sharded { workers: 2 },
            Some(vec![0, 0, 1, 1]),
            false,
        );
        assert_eq!(reference, sharded);
    }

    #[test]
    fn sharded_engine_survives_span_splits_and_default_partition() {
        let reference = chain_run(EngineKind::Sequential, None, true);
        // Round-robin default partition, one shard per node, plus a
        // mid-run dismantle/merge.
        let sharded = chain_run(EngineKind::Sharded { workers: 4 }, None, true);
        assert_eq!(reference, sharded);
        // Degenerate worker counts fall back to sequential.
        let one = chain_run(EngineKind::Sharded { workers: 1 }, None, true);
        assert_eq!(reference, one);
    }

    /// Resends every received frame back out its arrival port.
    struct Bouncer;
    impl Protocol for Bouncer {
        fn on_start(&mut self, _: &mut Ctx<'_>) {}
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &FrameBuf) {
            ctx.send(port, frame.to_vec(), FrameClass::Data);
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn profiler_is_invisible_and_accounts_every_event() {
        let run = |profile: bool, engine: EngineKind| {
            let cfg = SimConfig { engine, profile, ..SimConfig::default() };
            let mut b = SimBuilder::with_config(23, cfg);
            let s0 = b.add_node("s0", Box::new(Sender));
            let e0 = b.add_node("e0", Box::new(Bouncer));
            let e1 = b.add_node("e1", Box::new(Echo::new()));
            let s1 = b.add_node("s1", Box::new(Sender));
            b.add_link(s0, e0, LinkSpec::default());
            b.add_link(e0, e1, LinkSpec::default());
            b.add_link(e1, s1, LinkSpec::default());
            let mut sim = b.build();
            // s0 alone on shard 0: its sends cross 0→1, the bounces
            // cross back 1→0.
            sim.set_partition(vec![0, 1, 1, 1]);
            sim.schedule_port_down(3_500_000, e0, PortId(1));
            sim.schedule_port_up(5_500_000, e0, PortId(1));
            sim.run_until(10_500_000);
            let prof = sim.take_profile();
            (fingerprint(&sim), prof)
        };
        let (seq_off, no_prof) = run(false, EngineKind::Sequential);
        assert!(no_prof.is_none(), "no profile unless requested");

        let (seq_on, seq_prof) = run(true, EngineKind::Sequential);
        assert_eq!(seq_off, seq_on, "sequential run must be bit-identical profiled");
        let p = seq_prof.expect("profile recorded");
        assert_eq!(p.total_events(), seq_off.0, "every dispatch attributed");
        assert_eq!(p.shards.len(), 1);
        let s = &p.shards[0];
        assert!(s.windows_total >= 1 && s.wall_ns > 0 && s.execute_ns > 0);
        assert!(s.sched.pushes > 0 && s.sched.max_pending > 0);
        assert_eq!(s.node_events.iter().sum::<u64>(), seq_off.0);

        let (sh_on, sh_prof) = run(true, EngineKind::Sharded { workers: 2 });
        assert_eq!(seq_off, sh_on, "sharded run must be bit-identical profiled");
        let p = sh_prof.expect("profile recorded");
        assert_eq!(p.total_events(), seq_off.0);
        assert!(p.shards.len() == 2 && p.spans >= 1);
        assert_eq!(p.lookahead, Some(LinkSpec::default().serialization(MIN_WIRE_LEN)
            + LinkSpec::default().propagation));
        // Deliveries crossed the middle link both ways.
        let m = p.frame_matrix();
        assert!(m[0][1] > 0 && m[1][0] > 0, "cross-shard matrix populated: {m:?}");
        for s in &p.shards {
            assert!(s.windows_total > 0 && s.wall_ns > 0);
            // Kept records and the histogram agree with the totals.
            assert_eq!(s.window_hist.iter().sum::<u64>(), s.windows_total);
            assert_eq!(s.windows.len() as u64 + s.windows_dropped, s.windows_total);
        }
        assert_eq!(
            p.shards.iter().map(|s| s.node_events.iter().sum::<u64>()).sum::<u64>(),
            seq_off.0
        );
    }

    #[test]
    fn lookahead_is_min_cross_shard_link_delay() {
        let mut b = SimBuilder::new(1);
        let a = b.add_node("a", Box::new(Echo::new()));
        let c = b.add_node("b", Box::new(Echo::new()));
        let d = b.add_node("c", Box::new(Echo::new()));
        // a-c intra-shard (fast), c-d cross-shard (slow): only the
        // cross-shard link bounds the window.
        b.add_link(a, c, LinkSpec { propagation: 10, bandwidth_bps: 1_000_000_000 });
        b.add_link(c, d, LinkSpec { propagation: 7_000, bandwidth_bps: 1_000_000_000 });
        let mut sim = b.build();
        sim.set_partition(vec![0, 0, 1]);
        // 60 B at 1 Gb/s = 480 ns serialization + 7 µs propagation.
        assert_eq!(sim.lookahead(), Some(7_480));
        assert_eq!(sim.partition(), Some(&[0, 0, 1][..]));
    }

    #[test]
    fn disjoint_shards_have_infinite_lookahead() {
        let mut b = SimBuilder::new(1);
        let a = b.add_node("a", Box::new(Echo::new()));
        let c = b.add_node("b", Box::new(Echo::new()));
        b.add_link(a, c, LinkSpec::default());
        let mut sim = b.build();
        sim.set_partition(vec![0, 0]);
        assert_eq!(sim.lookahead(), Some(Time::MAX));
    }
}

#[cfg(test)]
mod merge_props {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The k-way shard-trace merge is total (every event emitted
        /// exactly once) and stable (groups come out in `(time, key)`
        /// order; exact collisions — across streams AND repeated within
        /// a stream — break toward the lowest stream index, preserving
        /// each stream's recorded order). Real runs never collide (keys
        /// are globally unique); this pins the behavior for all inputs.
        #[test]
        fn kway_merge_is_total_and_stable(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u64..16, 0u32..3, 0u64..3, 1u32..4), 0..12),
                2..=8usize,
            ),
        ) {
            type Stream = (Vec<TraceGroup>, Vec<(usize, usize, u32)>);
            let mut streams: Vec<Stream> = Vec::new();
            let mut all: Vec<(Time, EventKey, usize, usize, u32)> = Vec::new();
            for (sh, groups) in raw.iter().enumerate() {
                let mut gs: Vec<TraceGroup> = groups
                    .iter()
                    .map(|&(t, creator, counter, count)| {
                        (t, EventKey { creator, counter }, count)
                    })
                    .collect();
                // A shard records groups in dispatch order: ascending
                // (time, key), collisions adjacent.
                gs.sort_by_key(|&(t, k, _)| (t, k));
                let mut events = Vec::new();
                for (pos, &(t, k, count)) in gs.iter().enumerate() {
                    all.push((t, k, sh, pos, count));
                    for i in 0..count {
                        events.push((sh, pos, i));
                    }
                }
                streams.push((gs, events));
            }
            let mut emitted: Vec<(usize, usize, u32)> = Vec::new();
            merge_group_streams(streams, |e| emitted.push(e));
            // The merged order must be exactly a stable sort of every
            // group by (time, key, stream): per-stream order was already
            // (time, key, position), so the full key is total.
            all.sort_by_key(|&(t, k, sh, pos, _)| (t, k, sh, pos));
            let mut expect = Vec::new();
            for &(_, _, sh, pos, count) in &all {
                for i in 0..count {
                    expect.push((sh, pos, i));
                }
            }
            prop_assert_eq!(emitted, expect);
        }
    }
}
