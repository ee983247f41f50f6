//! Simulation tracing.
//!
//! The paper's measurement pipeline captured frames with tshark and parsed
//! router logs; this module is its emulated equivalent. Every frame
//! transmission and every routing-state change lands in a [`Trace`], from
//! which `dcn-metrics` computes convergence time, blast radius, control
//! overhead and keep-alive overhead.

use crate::node::{NodeId, PortId};
use crate::time::Time;

/// Classification of a transmitted frame. Purely observational — the
/// engine delivers all classes identically.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FrameClass {
    /// Hello/keepalive traffic: MR-MTP 1-byte hellos, BGP KEEPALIVEs, BFD
    /// control packets in steady state.
    Keepalive,
    /// Routing updates disseminated after a topology change: BGP UPDATE
    /// messages, MR-MTP lost-root/recover notifications. This is what the
    /// paper's Fig. 6 control-overhead metric sums.
    Update,
    /// Session management: BGP OPEN/NOTIFICATION, TCP handshake/teardown,
    /// MR-MTP tree construction (advertise/join/offer/accept).
    Session,
    /// Reliability acknowledgements: TCP pure ACKs, MR-MTP update ACKs.
    Ack,
    /// End-host application traffic (the sequenced generator packets).
    Data,
}

impl FrameClass {
    /// Every class, in rendering order.
    pub const ALL: [FrameClass; 5] = [
        FrameClass::Keepalive,
        FrameClass::Update,
        FrameClass::Session,
        FrameClass::Ack,
        FrameClass::Data,
    ];

    /// Stable lowercase name (table keys, JSONL fields, capture lines).
    pub fn name(self) -> &'static str {
        match self {
            FrameClass::Keepalive => "keepalive",
            FrameClass::Update => "update",
            FrameClass::Session => "session",
            FrameClass::Ack => "ack",
            FrameClass::Data => "data",
        }
    }
}

/// What kind of destination-forwarding state changed at a router.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RouteChangeKind {
    /// A route/ECMP member was withdrawn or a negative-reachability entry
    /// was installed.
    Withdraw,
    /// A route was (re)installed or a negative entry cleared.
    Install,
}

/// A typed protocol span event. Each variant marks one step of a
/// convergence episode, so a post-hoc analyzer can reconstruct
/// *why* a failure took as long as it did (who detected, via carrier or
/// timeout; how updates batched; when trees were rebuilt) instead of just
/// *that* updates stopped at some instant.
///
/// Protocol-specific state names are carried as `&'static str` so the
/// emulator core stays protocol-agnostic and tracing stays allocation
/// free on the hot path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanEvent {
    /// BGP session FSM transition (RFC 4271 states, condensed).
    BgpFsm {
        port: PortId,
        from: &'static str,
        to: &'static str,
    },
    /// A BGP session was torn down. `carrier` is true when the teardown
    /// was driven by an instant local carrier notification rather than a
    /// timeout or protocol error.
    BgpSessionDown {
        port: PortId,
        reason: &'static str,
        carrier: bool,
    },
    /// One re-export pass flushed a batched set of UPDATEs (the MRAI
    /// batch window of this implementation): `peers` peers received
    /// messages covering `prefixes` re-evaluated prefixes.
    BgpUpdateBatch { peers: u8, prefixes: u8 },
    /// MR-MTP neighbor declared down — by carrier loss (`carrier`) or by
    /// the missed-hello dead sweep.
    NeighborDown { port: PortId, carrier: bool },
    /// MR-MTP neighbor (re-)established after Slow-to-Accept.
    NeighborUp { port: PortId },
    /// Tree construction: a VID for tree `root` was installed via `port`.
    VidInstall { root: u8, port: PortId },
    /// Tree teardown: the VID for tree `root` via `port` was removed.
    VidRemove { root: u8, port: PortId },
    /// A Lost (`lost`) or Recovered flood wave left this router: `roots`
    /// tree roots toward `fanout` neighbor ports.
    LossFlood { roots: u8, fanout: u8, lost: bool },
    /// The loss-aggregation hold-down window opened (upper-loss reports
    /// are batching; the MR-MTP analog of an MRAI window).
    HolddownArm,
    /// The hold-down window resolved: `negatives` negative-reachability
    /// entries installed, `totals` total-loss roots propagated downward.
    HolddownResolve { negatives: u8, totals: u8 },
    /// Every uplink lost tree `root`: total upper loss handed downward.
    UpperLossTotal { root: u8 },
    /// Local fast reroute engaged: the data plane steered traffic around
    /// a locally-dead egress onto `port` using the precomputed backup
    /// FIB, before the control plane converged. Emitted once per
    /// destination per FIB generation (not per packet), so the storyboard
    /// can date the first in-data-plane repair without trace bloat.
    LocalRepair { port: PortId },
}

impl SpanEvent {
    /// Stable snake_case kind tag (JSONL `kind` field, storyboard lines).
    pub fn kind(&self) -> &'static str {
        match self {
            SpanEvent::BgpFsm { .. } => "bgp_fsm",
            SpanEvent::BgpSessionDown { .. } => "bgp_session_down",
            SpanEvent::BgpUpdateBatch { .. } => "bgp_update_batch",
            SpanEvent::NeighborDown { .. } => "neighbor_down",
            SpanEvent::NeighborUp { .. } => "neighbor_up",
            SpanEvent::VidInstall { .. } => "vid_install",
            SpanEvent::VidRemove { .. } => "vid_remove",
            SpanEvent::LossFlood { .. } => "loss_flood",
            SpanEvent::HolddownArm => "holddown_arm",
            SpanEvent::HolddownResolve { .. } => "holddown_resolve",
            SpanEvent::UpperLossTotal { .. } => "upper_loss_total",
            SpanEvent::LocalRepair { .. } => "local_repair",
        }
    }

    /// Whether this span marks local *failure detection*, and how:
    /// `Some(true)` for carrier-driven detection, `Some(false)` for
    /// timeout-driven detection (hold timer, BFD, missed hellos, TCP
    /// retransmit exhaustion), `None` for everything else.
    pub fn detection(&self) -> Option<bool> {
        match self {
            SpanEvent::NeighborDown { carrier, .. } => Some(*carrier),
            SpanEvent::BgpSessionDown { reason, carrier, .. } => match *reason {
                "carrier_down" => Some(true),
                "bgp_hold_expired" | "bfd_down" | "tcp_retx_exhausted" => Some(*carrier),
                _ => None,
            },
            _ => None,
        }
    }

    /// Whether this span reflects a routing/tree *state change* at the
    /// emitting router (as opposed to a pure transmission marker like a
    /// flood or update batch).
    pub fn is_state_change(&self) -> bool {
        !matches!(
            self,
            SpanEvent::LossFlood { .. }
                | SpanEvent::BgpUpdateBatch { .. }
                | SpanEvent::LocalRepair { .. }
        )
    }
}

/// One trace record.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A frame left `node` on `port`. `wire_len` is the layer-2 length
    /// on a physical wire (minimum 60 bytes, no FCS); `capture_len` is the
    /// unpadded frame length, which is what tshark reports on the paper's
    /// virtualized testbed NICs (virtio does not pad short frames).
    FrameSent {
        time: Time,
        node: NodeId,
        port: PortId,
        wire_len: u32,
        capture_len: u32,
        class: FrameClass,
    },
    /// Failure injection: the interface owner's carrier dropped.
    PortDown { time: Time, node: NodeId, port: PortId },
    /// Recovery injection: carrier restored.
    PortUp { time: Time, node: NodeId, port: PortId },
    /// A router changed destination-forwarding state (blast radius).
    RouteChange {
        time: Time,
        node: NodeId,
        kind: RouteChangeKind,
        detail: u64,
    },
    /// A typed protocol span event (see [`SpanEvent`]).
    Span {
        time: Time,
        node: NodeId,
        span: SpanEvent,
    },
}

impl TraceEvent {
    /// Timestamp of the event.
    pub fn time(&self) -> Time {
        match self {
            TraceEvent::FrameSent { time, .. }
            | TraceEvent::PortDown { time, .. }
            | TraceEvent::PortUp { time, .. }
            | TraceEvent::RouteChange { time, .. }
            | TraceEvent::Span { time, .. } => *time,
        }
    }

    /// Node the event is attributed to.
    pub fn node(&self) -> NodeId {
        match self {
            TraceEvent::FrameSent { node, .. }
            | TraceEvent::PortDown { node, .. }
            | TraceEvent::PortUp { node, .. }
            | TraceEvent::RouteChange { node, .. }
            | TraceEvent::Span { node, .. } => *node,
        }
    }
}

/// An append-only log of [`TraceEvent`]s for one simulation run.
#[derive(Default, Debug)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// A trace that records events.
    pub fn enabled() -> Self {
        Trace { events: Vec::with_capacity(4096), enabled: true }
    }

    /// A trace that drops everything (for microbenchmarks where tracing
    /// overhead would pollute timings).
    pub fn disabled() -> Self {
        Trace { events: Vec::new(), enabled: false }
    }

    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.enabled {
            // `events_since` binary-searches on time and silently returns
            // a wrong cut if events ever land out of order. Callbacks push
            // mid-dispatch, so every record carries the dispatch instant.
            debug_assert!(
                self.events.last().is_none_or(|last| last.time() <= ev.time()),
                "trace events must be pushed in nondecreasing time order"
            );
            self.events.push(ev);
        }
    }

    /// All recorded events in time order (the engine appends them in
    /// dispatch order, which is time order).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events at or after `t0`.
    pub fn events_since(&self, t0: Time) -> impl Iterator<Item = &TraceEvent> {
        // Events are appended in nondecreasing time order; binary search
        // for the cut point.
        let idx = self.events.partition_point(|e| e.time() < t0);
        self.events[idx..].iter()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Time) -> TraceEvent {
        TraceEvent::PortDown { time: t, node: NodeId(0), port: PortId(0) }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::disabled();
        tr.push(ev(5));
        assert!(tr.is_empty());
    }

    #[test]
    fn events_since_uses_partition_point() {
        let mut tr = Trace::enabled();
        for t in [1u64, 2, 2, 5, 9] {
            tr.push(ev(t));
        }
        assert_eq!(tr.events_since(0).count(), 5);
        assert_eq!(tr.events_since(2).count(), 4);
        assert_eq!(tr.events_since(3).count(), 2);
        assert_eq!(tr.events_since(10).count(), 0);
    }

    #[test]
    fn frame_class_names_are_stable() {
        let names: Vec<&str> = FrameClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["keepalive", "update", "session", "ack", "data"]);
    }

    #[test]
    fn span_detection_classifies_carrier_vs_timeout() {
        let carrier = SpanEvent::NeighborDown { port: PortId(1), carrier: true };
        assert_eq!(carrier.detection(), Some(true));
        let swept = SpanEvent::NeighborDown { port: PortId(1), carrier: false };
        assert_eq!(swept.detection(), Some(false));
        let hold = SpanEvent::BgpSessionDown {
            port: PortId(0),
            reason: "bgp_hold_expired",
            carrier: false,
        };
        assert_eq!(hold.detection(), Some(false));
        let note = SpanEvent::BgpSessionDown {
            port: PortId(0),
            reason: "bgp_notification",
            carrier: false,
        };
        assert_eq!(note.detection(), None);
        assert_eq!(hold.kind(), "bgp_session_down");
        assert!(hold.is_state_change());
        assert!(!SpanEvent::BgpUpdateBatch { peers: 1, prefixes: 1 }.is_state_change());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn out_of_order_push_asserts_in_debug() {
        let mut tr = Trace::enabled();
        tr.push(ev(10));
        tr.push(ev(5));
    }
}
