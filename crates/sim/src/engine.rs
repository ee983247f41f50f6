//! The simulation engine: node registry, wiring, event dispatch.
//!
//! One thread pops one global `(time, key)`-ordered queue. Determinism
//! is carried entirely by the content-derived [`EventKey`]s: a node's
//! counter advances only while that node's events are dispatched, so the
//! keys — and with them traces, counters and RNG streams — do not depend
//! on which scheduler backend holds the queue.
//!
//! A [`Sim`] keeps the protocols *beside* the dispatch `Core`, not
//! inside it, so a dispatch borrows one protocol and the whole core
//! disjointly and the callback's [`Ctx`] can act on the core at once: a
//! send reaches the link model, a timer the scheduler and a span the
//! trace in the order the callback made the calls (DESIGN.md §15).
//! Callbacks still cascade only through the queue — nothing a `Ctx` does
//! calls a protocol.

use std::any::Any;
use std::time::Instant;

use dcn_wire::{FrameBuf, FrameMeta};

use crate::event::{Event, EventKey, Scheduled, Scheduler, SchedulerKind};
use crate::link::{Endpoint, Impairment, Link, LinkId, LinkSpec};
use crate::node::{Ctx, NodeId, PortId, PortView, Protocol, StatsSnapshot};
use crate::profiler::EngineProfile;
use crate::rng::DetRng;
use crate::time::{Duration, Time, MICROS};
use crate::trace::{FrameClass, Trace, TraceEvent};

/// Minimum Ethernet frame length as captured by tshark (without FCS).
/// Shorter frames are padded on the wire; the trace records the padded
/// length because that is what the paper's byte counts are based on.
pub const MIN_WIRE_LEN: u32 = 60;

/// Salt base for the per-(link, direction) impairment streams. Salted far
/// away from node ids so adding nodes never perturbs the impairment
/// streams and vice versa; stream `link * 2 + direction` is offset from
/// this base.
const CHAOS_SALT: u64 = 0xC4A0_51D3_0C4A_051D;

/// Everything the engine keeps per node except the protocol itself.
pub(crate) struct NodeSlot {
    name: String,
    /// Link attached to each port, in wiring order.
    port_links: Vec<LinkId>,
    /// Per-port view handed to protocol callbacks.
    pub(crate) views: Vec<PortView>,
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
    pub(crate) up_mask: u128,
    pub(crate) rng: DetRng,
    /// Next [`EventKey::counter`] for events this node's dispatches
    /// create. Only this node's own event processing bumps it.
    key_counter: u64,
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
    /// Event-scheduler backend. Both orders are bit-identical; the wheel
    /// is the fast default, the heap the reference for equivalence tests.
    pub scheduler: SchedulerKind,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            trace: true,
            carrier_latency: 500 * MICROS,
            scheduler: SchedulerKind::default(),
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
    protos: Vec<Box<dyn Protocol>>,
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
            protos: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Register a node running `proto`. Ports are added later by wiring.
    pub fn add_node(&mut self, name: impl Into<String>, proto: Box<dyn Protocol>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.protos.push(proto);
        self.nodes.push(NodeSlot {
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
        slot.views.push(PortView { up: true });
        if p.index() < 128 {
            slot.up_mask |= 1 << p.index();
        }
        slot.admin_target.push(true);
        p
    }

    /// Finalize. Every node receives `on_start` at time zero.
    pub fn build(self) -> Sim {
        let chaos = (0..self.links.len())
            .map(|li| {
                [
                    DetRng::new(self.seed, CHAOS_SALT.wrapping_add(li as u64 * 2)),
                    DetRng::new(self.seed, CHAOS_SALT.wrapping_add(li as u64 * 2 + 1)),
                ]
            })
            .collect();
        let prof = EngineProfile::new(self.nodes.len());
        let mut core = Core {
            time: 0,
            queue: Scheduler::new(self.config.scheduler),
            nodes: self.nodes,
            links: self.links,
            chaos,
            trace: if self.config.trace { Trace::enabled() } else { Trace::disabled() },
            carrier_latency: self.config.carrier_latency,
            periodic_just_set: Vec::new(),
            events_processed: 0,
            frames_delivered: 0,
            frames_lost_to_impairment: 0,
            frames_corrupted: 0,
            prof,
        };
        // The start event takes each node's counter 0 slot.
        for i in 0..core.nodes.len() {
            let node = NodeId(i as u32);
            core.schedule(node, 0, Event::Start { node });
        }
        Sim { core, protos: self.protos, ext_counter: 0 }
    }
}

/// The dispatch core: everything a callback's [`Ctx`] reads or writes —
/// all of the engine except the protocols.
pub(crate) struct Core {
    pub(crate) time: Time,
    queue: Scheduler,
    pub(crate) nodes: Vec<NodeSlot>,
    links: Vec<Link>,
    /// Per-(link, direction) impairment streams, index 0 = the `a` side
    /// transmits, so a stream's draws depend only on that sender's
    /// dispatch order.
    chaos: Vec<[DetRng; 2]>,
    pub(crate) trace: Trace,
    carrier_latency: Duration,
    /// Tokens the running `on_timer` armed via `set_periodic`, so the
    /// engine's automatic re-arm doesn't double-schedule a tick the
    /// protocol just re-armed itself (e.g. a cadence change).
    periodic_just_set: Vec<u64>,
    events_processed: u64,
    frames_delivered: u64,
    frames_lost_to_impairment: u64,
    frames_corrupted: u64,
    /// Runtime profile ([`crate::profiler`]). Pure observer — dispatch
    /// never reads it.
    prof: EngineProfile,
}

impl Core {
    /// Queue `event` at `at` under the next key of `node`, the node whose
    /// dispatch creates it. The one place event keys are minted (external
    /// injections aside, which carry [`EventKey::EXTERNAL`]).
    #[inline]
    fn schedule(&mut self, node: NodeId, at: Time, event: Event) {
        let slot = &mut self.nodes[node.index()];
        let key = EventKey { creator: node.0, counter: slot.key_counter };
        slot.key_counter += 1;
        self.queue.push(at, key, event);
    }

    /// [`Ctx::set_timer`].
    #[inline]
    pub(crate) fn set_timer(&mut self, node: NodeId, delay: Duration, token: u64) {
        self.schedule(node, self.time + delay, Event::Timer { node, token });
    }

    /// [`Ctx::set_periodic`].
    pub(crate) fn set_periodic(
        &mut self,
        node: NodeId,
        first: Duration,
        every: Duration,
        token: u64,
    ) {
        let periodic = &mut self.nodes[node.index()].periodic;
        match periodic.iter_mut().find(|(t, _)| *t == token) {
            Some(entry) => entry.1 = every,
            None => periodic.push((token, every)),
        }
        self.periodic_just_set.push(token);
        self.set_timer(node, first, token);
    }

    /// An injected admin transition takes effect: the interface and its
    /// side of the link change state now, the owner's protocol hears of
    /// it one carrier latency later, the remote node never.
    fn admin_port(&mut self, node: NodeId, port: PortId, up: bool) {
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
        let time = self.time;
        self.trace.push(if up {
            TraceEvent::PortUp { time, node, port }
        } else {
            TraceEvent::PortDown { time, node, port }
        });
        self.schedule(node, time + self.carrier_latency, Event::Carrier { node, port, up });
    }

    /// [`Ctx::send`] / [`Ctx::send_meta`]: the link model. Never calls a
    /// protocol — the frame reaches its receiver through the queue.
    pub(crate) fn transmit(
        &mut self,
        node: NodeId,
        port: PortId,
        mut frame: FrameBuf,
        class: FrameClass,
        mut meta: Option<FrameMeta>,
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
            // draw order depends only on this sender's dispatch order.
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
                // rewrite copies first when the sender still shares the
                // buffer (retransmit queues, frame caches), so only the
                // frame on the wire is damaged.
                let flip = 1 + rng.below(255) as u8;
                frame = frame.rewrite(|bytes| bytes[idx] ^= flip);
                // The metadata described the original bytes; after
                // corruption it would lie, so the receiver must re-parse.
                meta = None;
                self.frames_corrupted += 1;
            }
            if imp.jitter > 0 {
                arrive += rng.below(imp.jitter + 1);
            }
        }
        let deliver = Event::Deliver { node: peer.node, port: peer.port, frame, meta };
        self.schedule(node, arrive, deliver);
    }
}

/// A running simulation.
///
/// A `Sim` stays on the thread that built it: its frames and AS paths are
/// reference-counted without atomics and its protocols carry no `Send`
/// bound, so neither a `Sim` nor a [`FrameBuf`] can cross threads. What
/// crosses them is what a simulation is built from and what it reports.
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<dcn_sim::Sim>();
/// ```
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<dcn_sim::FrameBuf>();
/// ```
pub struct Sim {
    core: Core,
    /// The protocol of each node, indexed like `core.nodes`. Beside the
    /// core so a dispatch borrows `protos[i]` and `core` disjointly.
    protos: Vec<Box<dyn Protocol>>,
    /// Counter for externally injected events ([`EventKey::EXTERNAL`]
    /// creator).
    ext_counter: u64,
}

impl Sim {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.core.time
    }

    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
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

    /// The remote endpoint of `node`'s `port`.
    pub fn peer_of(&self, node: NodeId, port: PortId) -> Option<Endpoint> {
        let lid = self.core.nodes[node.index()].port_links.get(port.index())?;
        Some(self.core.links[lid.index()].peer_of(node))
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
    /// one (routers do; traffic hosts don't). See [`StatsSnapshot`].
    pub fn stats_snapshot_of(&self, node: NodeId) -> Option<&dyn StatsSnapshot> {
        self.protos[node.index()].stats_snapshot()
    }

    /// Downcast a node's protocol for inspection.
    pub fn node_as<T: Any>(&self, node: NodeId) -> Option<&T> {
        self.protos[node.index()].as_any().downcast_ref::<T>()
    }

    /// Downcast a node's protocol mutably.
    pub fn node_as_mut<T: Any>(&mut self, node: NodeId) -> Option<&mut T> {
        self.protos[node.index()].as_any_mut().downcast_mut::<T>()
    }

    /// The runtime profile accumulated so far, with the queue's occupancy
    /// stats as of now.
    pub fn profile(&self) -> EngineProfile {
        EngineProfile {
            events: self.core.events_processed,
            sched: self.core.queue.stats(),
            ..self.core.prof.clone()
        }
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
        let t0 = Instant::now();
        while let Some(s) = self.core.queue.pop_due(t) {
            self.dispatch(s);
        }
        self.core.time = self.core.time.max(t);
        self.core.prof.wall_ns += t0.elapsed().as_nanos() as u64;
    }

    fn dispatch(&mut self, s: Scheduled) {
        let core = &mut self.core;
        core.time = s.time;
        let node = s.event.node();
        core.events_processed += 1;
        // Hot-node attribution: a counter bump into a vector sized at
        // build (zero-alloc safe).
        core.prof.node_events[node.index()] += 1;
        let proto = &mut self.protos[node.index()];
        match s.event {
            Event::Start { .. } => proto.on_start(&mut Ctx { core, node }),
            Event::Timer { token, .. } => {
                core.periodic_just_set.clear();
                proto.on_timer(&mut Ctx { core, node }, token);
                // Engine-managed re-arm of periodic ticks: pushed after the
                // callback's own effects (exactly where a protocol's
                // trailing `set_timer` re-arm used to sit), and suppressed
                // when the callback itself re-armed the token.
                if !core.periodic_just_set.contains(&token) {
                    let periodic = &core.nodes[node.index()].periodic;
                    if let Some(&(_, every)) = periodic.iter().find(|(t, _)| *t == token) {
                        core.set_timer(node, every, token);
                    }
                }
            }
            Event::Deliver { port, frame, meta, .. } => {
                // Receiver interface must still be up.
                if core.nodes[node.index()].views[port.index()].up {
                    core.frames_delivered += 1;
                    proto.on_frame_meta(&mut Ctx { core, node }, port, frame, meta);
                }
            }
            Event::AdminPortDown { port, .. } => core.admin_port(node, port, false),
            Event::AdminPortUp { port, .. } => core.admin_port(node, port, true),
            Event::Carrier { port, up: true, .. } => {
                proto.on_port_up(&mut Ctx { core, node }, port)
            }
            Event::Carrier { port, up: false, .. } => {
                proto.on_port_down(&mut Ctx { core, node }, port)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test protocol that echoes every received frame back out the same
    /// port and counts what it sees.
    struct Echo {
        received: Vec<(Time, PortId, Vec<u8>)>,
        timers: Vec<(Time, u64)>,
        downs: Vec<(Time, PortId)>,
        ups: Vec<(Time, PortId)>,
        send_on_start: Option<(PortId, Vec<u8>)>,
        /// Sent again at every timer fire.
        send_on_timer: Option<(PortId, Vec<u8>)>,
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
                send_on_timer: None,
                periodic: None,
            }
        }

        /// An `Echo` that sends an 80-byte frame out of port 0 every
        /// `every` (first at `every`).
        fn sending_every(every: Duration) -> Self {
            Echo {
                send_on_timer: Some((PortId(0), vec![7; 80])),
                periodic: Some(every),
                ..Echo::new()
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
            if let Some((port, frame)) = &self.send_on_timer {
                ctx.send(*port, frame.clone(), FrameClass::Data);
            }
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
        two_nodes_with(Echo::new())
    }

    /// `ea` on node `a`, a plain `Echo` on `b`, one 1 Gb/s link with 1 µs
    /// propagation, carrier latency 1 µs.
    fn two_nodes_with(ea: Echo) -> (Sim, NodeId, NodeId) {
        let mut b =
            SimBuilder::with_config(1, SimConfig { carrier_latency: 1000, ..SimConfig::default() });
        let a = b.add_node("a", Box::new(ea));
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

    /// `FrameSent` instants in the trace and arrival instants at `rx`.
    fn sent_and_received(sim: &Sim, rx: NodeId) -> (Vec<Time>, Vec<Time>) {
        let sent = sim
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::FrameSent { .. }))
            .map(|e| e.time())
            .collect();
        let received = sim.node_as::<Echo>(rx).unwrap().received.iter().map(|r| r.0).collect();
        (sent, received)
    }

    #[test]
    fn failure_notifies_owner_only_and_drops_frames() {
        // `a` sends every 5 µs; its own interface fails at 12 µs.
        let (mut sim, a, c) = two_nodes_with(Echo::sending_every(5_000));
        sim.schedule_port_down(12_000, a, PortId(0));
        sim.run_until(30_000);
        let ea = sim.node_as::<Echo>(a).unwrap();
        assert_eq!(ea.downs, vec![(13_000, PortId(0))]); // carrier latency 1000
        assert_eq!(ea.timers.len(), 6, "the sender kept trying");
        let eb = sim.node_as::<Echo>(c).unwrap();
        assert!(eb.downs.is_empty(), "remote side must not get carrier events");
        // A locally-down interface refuses the frame: the sends at 15, 20,
        // 25 and 30 µs leave no `FrameSent` and nothing arrives. 80 B at
        // 1 Gb/s = 640 ns + 1 µs propagation.
        let (sent, received) = sent_and_received(&sim, c);
        assert_eq!(sent, vec![5_000, 10_000]);
        assert_eq!(received, vec![6_640, 11_640]);
    }

    #[test]
    fn frames_into_dead_link_are_traced_but_lost() {
        // `a` sends every 10 µs toward `b`, whose interface is down from
        // 15 µs to 25 µs. `a` hears nothing of it, so the frame at 20 µs
        // leaves `a` (one `FrameSent`) and dies on the wire; delivery
        // resumes with the frame at 30 µs.
        let (mut sim, a, c) = two_nodes_with(Echo::sending_every(10_000));
        sim.schedule_port_down(15_000, c, PortId(0));
        sim.schedule_port_up(25_000, c, PortId(0));
        sim.run_until(35_000);
        let (sent, received) = sent_and_received(&sim, c);
        assert_eq!(sent, vec![10_000, 20_000, 30_000]);
        assert_eq!(received, vec![11_640, 31_640]);
        assert!(sim.node_as::<Echo>(a).unwrap().downs.is_empty());
        let eb = sim.node_as::<Echo>(c).unwrap();
        assert_eq!(eb.downs, vec![(16_000, PortId(0))]);
        assert_eq!(eb.ups, vec![(26_000, PortId(0))]);
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
    fn corruption_in_flight_never_reaches_a_sharer_of_the_frame() {
        /// Sends one frame and keeps a handle to it, the way a
        /// retransmission queue or a frame cache does.
        struct Keeper {
            kept: FrameBuf,
        }
        impl Protocol for Keeper {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(PortId(0), self.kept.clone(), FrameClass::Data);
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
        let mut b = SimBuilder::new(3);
        let a = b.add_node("a", Box::new(Keeper { kept: FrameBuf::new(vec![0x77; 64]) }));
        let c = b.add_node("b", Box::new(Echo::new()));
        b.add_link(a, c, LinkSpec::default());
        let mut sim = b.build();
        sim.set_impairment_all(Impairment { corrupt_ppm: 1_000_000, ..Impairment::none() });
        sim.run_until(1_000_000);
        assert_eq!(sim.frames_corrupted(), 1);
        let rx = &sim.node_as::<Echo>(c).unwrap().received;
        assert_eq!(rx[0].2.iter().filter(|&&x| x != 0x77).count(), 1, "the receiver sees the flip");
        let kept = &sim.node_as::<Keeper>(a).unwrap().kept;
        assert_eq!(kept.as_slice(), &[0x77; 64], "the sender's handle holds the clean bytes");
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
    fn profiler_accounts_every_event() {
        let mut b = SimBuilder::new(23);
        let s0 = b.add_node("s0", Box::new(Sender));
        let e0 = b.add_node("e0", Box::new(Bouncer));
        let e1 = b.add_node("e1", Box::new(Echo::new()));
        let s1 = b.add_node("s1", Box::new(Sender));
        b.add_link(s0, e0, LinkSpec::default());
        b.add_link(e0, e1, LinkSpec::default());
        b.add_link(e1, s1, LinkSpec::default());
        let mut sim = b.build();
        sim.schedule_port_down(3_500_000, e0, PortId(1));
        sim.schedule_port_up(5_500_000, e0, PortId(1));
        // Two spans: the profile accumulates across `run_until` calls.
        sim.run_until(4_000_000);
        sim.run_until(10_500_000);
        let p = sim.profile();
        let events = sim.events_processed();
        assert!(events > 0);
        assert_eq!(p.total_events(), events, "every dispatch counted");
        assert_eq!(p.node_events.iter().sum::<u64>(), events, "every dispatch attributed");
        assert!(p.wall_ns > 0);
        assert!(p.sched.pushes >= events && p.sched.max_pending > 0);
    }
}
