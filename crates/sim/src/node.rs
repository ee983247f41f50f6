//! Node identities, the [`Protocol`] trait implemented by every emulated
//! device (routers, servers), and the [`Ctx`] handle through which a
//! protocol acts on the engine during a callback.

use std::any::Any;

use dcn_wire::{FrameBuf, FrameMeta};

use crate::engine::{Core, NodeSlot};
use crate::time::{Duration, Time};
use crate::trace::{FrameClass, RouteChangeKind, SpanEvent, TraceEvent};

/// Identifies a node (device) in the emulated fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a port (interface) local to one node. Port indices are dense
/// and assigned in wiring order; protocols derive the paper's 1-based "port
/// numbers" (used in VID derivation) as `PortId.0 + 1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u16);

impl PortId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The 1-based port label used by MR-MTP VID derivation ("appending the
    /// port number on which the request arrived").
    #[inline]
    pub fn label(self) -> u8 {
        (self.0 + 1) as u8
    }
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "eth{}", self.0)
    }
}

/// Per-port view handed to protocols.
#[derive(Clone, Copy, Debug)]
pub struct PortView {
    /// Local interface state. `false` after a failure has been injected on
    /// this side of the link.
    pub up: bool,
}

/// The callback context: a view of the engine core from one node.
/// Everything a protocol may do during a callback goes through this
/// handle, and every effect is immediate — a send has reached the link
/// model, a timer the scheduler, a span the trace when the call returns,
/// so the effects of one callback land in the order it made the calls.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut Core,
    pub(crate) node: NodeId,
}

impl Ctx<'_> {
    #[inline]
    fn slot(&self) -> &NodeSlot {
        &self.core.nodes[self.node.index()]
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.core.time
    }

    /// The node this callback is running on.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of ports on this node.
    #[inline]
    pub fn port_count(&self) -> usize {
        self.slot().views.len()
    }

    /// Local state of a port.
    #[inline]
    pub fn port(&self, port: PortId) -> PortView {
        self.slot().views[port.index()]
    }

    /// Bitmask of administratively-up ports: bit `i` set ⟺
    /// `self.port(PortId(i)).up`, for the first 128 ports. Maintained
    /// incrementally by the engine so compiled-FIB candidate selection is
    /// a branchless mask-and-pick instead of a per-port loop.
    #[inline]
    pub fn port_up_mask(&self) -> u128 {
        self.slot().up_mask
    }

    /// Transmit a frame. A port that is *locally* down (or out of range)
    /// refuses it the way a kernel refuses a downed interface: no
    /// [`TraceEvent::FrameSent`], no transmitter time, nothing delivered.
    /// While only the *remote* interface is down the sender cannot know:
    /// the frame leaves this node — it is traced and occupies the
    /// transmitter — and is lost on the wire. This asymmetry is the one
    /// the paper's TC1/TC3 vs TC2/TC4 analysis hinges on (DESIGN.md §1).
    ///
    /// `class` is metadata for tracing only; it never affects delivery.
    pub fn send(&mut self, port: PortId, frame: impl Into<FrameBuf>, class: FrameClass) {
        self.core.transmit(self.node, port, frame.into(), class, None);
    }

    /// Transmit a frame with parse-once metadata attached. The metadata
    /// rides alongside the bytes to the receiving protocol's
    /// [`Protocol::on_frame_meta`]; it must describe exactly what the
    /// frame encodes (attach it only where the frame is encoded). It
    /// never affects the wire bytes, the trace, or delivery order, and
    /// the engine drops it if impairment corrupts the frame in flight.
    pub fn send_meta(
        &mut self,
        port: PortId,
        frame: impl Into<FrameBuf>,
        class: FrameClass,
        meta: FrameMeta,
    ) {
        self.core.transmit(self.node, port, frame.into(), class, Some(meta));
    }

    /// Arm a one-shot timer: `on_timer(token)` comes back to this node
    /// after `delay`. There is deliberately no cancellation: stale
    /// fires are cheap and protocols validate tokens against their own
    /// state, which keeps the engine simple and the event order obvious.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.core.set_timer(self.node, delay, token);
    }

    /// Arm an engine-managed periodic timer: `on_timer(token)` fires after
    /// `first`, then every `every` until the node is torn down; re-arming
    /// an already periodic token replaces its cadence. A protocol
    /// with work at every period uses this instead of re-arming a
    /// one-shot from every `on_timer`, so the engine keeps a single
    /// standing entry per node. One whose periods mostly find nothing due
    /// (the routers' housekeeping) wakes by deadline on the same grid
    /// instead: [`crate::GridTimer`].
    pub fn set_periodic(&mut self, first: Duration, every: Duration, token: u64) {
        self.core.set_periodic(self.node, first, every, token);
    }

    /// Record that this node changed destination-forwarding state. This is
    /// the event the blast-radius metric counts (see DESIGN.md §5).
    pub fn trace_route_change(&mut self, kind: RouteChangeKind, detail: u64) {
        let (time, node) = (self.core.time, self.node);
        self.core.trace.push(TraceEvent::RouteChange { time, node, kind, detail });
    }

    /// Record a typed protocol span event (convergence storyboarding:
    /// FSM transitions, detection verdicts, flood waves, batch windows).
    pub fn trace_span(&mut self, span: SpanEvent) {
        let (time, node) = (self.core.time, self.node);
        self.core.trace.push(TraceEvent::Span { time, node, span });
    }

    /// Uniform draw in `[0, bound)` from this node's deterministic stream
    /// (used e.g. for timer jitter).
    #[inline]
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        self.core.nodes[self.node.index()].rng.below(bound)
    }
}

/// A uniform counter/gauge surface over per-protocol stats structs, so
/// harness code (`fcr report`, chaos's invariant counters) can dump every
/// router's counters without downcasting per stack.
///
/// Names must be stable `&'static str`s: they become table rows and
/// counter keys.
pub trait StatsSnapshot {
    /// Monotonic counters as (name, cumulative value) pairs, in a stable
    /// order.
    fn counters(&self) -> Vec<(&'static str, u64)>;

    /// Point-in-time gauges (table sizes, session FSM states, queue
    /// depths), in a stable order.
    fn gauges(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// A protocol instance bound to one emulated node.
///
/// Implementations exist for MR-MTP routers (`dcn-mrmtp`), BGP/ECMP(/BFD)
/// routers (`dcn-bgp`) and traffic-generating servers (`dcn-traffic`).
/// There is no `Send` bound: a [`crate::Sim`] and its protocols stay on the
/// thread that built them (DESIGN.md §17).
pub trait Protocol {
    /// Called once at the node's start time (time zero unless staggered).
    fn on_start(&mut self, ctx: &mut Ctx<'_>);

    /// A frame arrived on `port`. `FrameBuf` derefs to `&[u8]`, so decoders
    /// consume it unchanged; a forwarding plane that needs the frame past
    /// the call clones the handle (a reference count, not a copy).
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &FrameBuf);

    /// A frame arrived on `port`, possibly with parse-once metadata
    /// attached by the sender (see [`Ctx::send_meta`]). This is the entry
    /// point the engine actually calls, and it hands over the delivered
    /// frame itself: a forwarder may send it on, or rewrite it in place
    /// with [`FrameBuf::rewrite`] first. The default implementation
    /// ignores the metadata and delegates to [`Protocol::on_frame`], so
    /// protocols without a fast path need not change. Implementations
    /// overriding this must treat the metadata as advisory: behavior with
    /// and without it must be identical.
    fn on_frame_meta(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        frame: FrameBuf,
        _meta: Option<FrameMeta>,
    ) {
        self.on_frame(ctx, port, &frame)
    }

    /// A timer armed via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// The local interface `port` lost carrier (failure injected on this
    /// side). The remote side of the link gets **no** callback.
    fn on_port_down(&mut self, _ctx: &mut Ctx<'_>, _port: PortId) {}

    /// The local interface `port` regained carrier.
    fn on_port_up(&mut self, _ctx: &mut Ctx<'_>, _port: PortId) {}

    /// Uniform stats access (None for protocols without counters, e.g.
    /// plain traffic hosts). See [`StatsSnapshot`].
    fn stats_snapshot(&self) -> Option<&dyn StatsSnapshot> {
        None
    }

    /// Downcasting hook so the harness can inspect routing tables after a
    /// run (`sim.node_as::<MrmtpRouter>(id)`).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting hook.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_labels_are_one_based() {
        assert_eq!(PortId(0).label(), 1);
        assert_eq!(PortId(3).label(), 4);
        assert_eq!(format!("{}", PortId(2)), "eth2");
        assert_eq!(format!("{}", NodeId(7)), "n7");
    }
}
