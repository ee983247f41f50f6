//! Simulation tracing.
//!
//! The paper's measurement pipeline captured frames with tshark and parsed
//! router logs; this module is its emulated equivalent. Every frame
//! transmission and every routing-state change lands in a [`Trace`], from
//! which `dcn-metrics` computes convergence time, blast radius, control
//! overhead and keep-alive overhead.
//!
//! A [`TraceEvent`] is also the repository's *canonical record*: it fits
//! 24 bytes in memory and [`TraceEvent::to_words`] maps it, invertibly,
//! onto three `u64` words — the bytes the trace digest hashes
//! (`dcn_experiments::chaos::trace_digest`) and the binary trace fixture
//! stores. The word layout is part of every stored digest; DESIGN.md §16
//! tabulates it and `tests/trace_record.rs` pins it.

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
    /// Every class, in rendering order, indexed by its code (`class as
    /// u8`) in a canonical record.
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

/// BGP session FSM state (RFC 4271, condensed: Connect/Active collapse
/// into `TcpPending` because roles are deterministic). Lives here, not
/// in `dcn-bgp`, because a [`SpanEvent::BgpFsm`] record carries two of
/// them in one byte each.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BgpState {
    Idle,
    TcpPending,
    OpenSent,
    OpenConfirm,
    Established,
}

impl BgpState {
    /// Every state, indexed by its code (`state as u8`) in a canonical
    /// record.
    pub const ALL: [BgpState; 5] = [
        BgpState::Idle,
        BgpState::TcpPending,
        BgpState::OpenSent,
        BgpState::OpenConfirm,
        BgpState::Established,
    ];

    /// Stable snake_case name (JSONL `from`/`to` fields).
    pub fn name(self) -> &'static str {
        match self {
            BgpState::Idle => "idle",
            BgpState::TcpPending => "tcp_pending",
            BgpState::OpenSent => "open_sent",
            BgpState::OpenConfirm => "open_confirm",
            BgpState::Established => "established",
        }
    }
}

/// Why a BGP session was torn down.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BgpDownReason {
    /// The local interface lost carrier.
    CarrierDown,
    /// The hold timer ran out with no KEEPALIVE or UPDATE.
    BgpHoldExpired,
    /// The BFD session guarding the peer went down.
    BfdDown,
    /// TCP gave up retransmitting.
    TcpRetxExhausted,
    /// The peer sent a NOTIFICATION.
    BgpNotification,
    /// A message from the peer failed to decode.
    BgpMsgError,
    /// The peer's OPEN carried an unexpected AS number.
    BgpBadAsn,
    /// The peer closed or reset the TCP connection.
    TcpClosed,
}

impl BgpDownReason {
    /// Every reason, indexed by its code (`reason as u8`) in a canonical
    /// record.
    pub const ALL: [BgpDownReason; 8] = [
        BgpDownReason::CarrierDown,
        BgpDownReason::BgpHoldExpired,
        BgpDownReason::BfdDown,
        BgpDownReason::TcpRetxExhausted,
        BgpDownReason::BgpNotification,
        BgpDownReason::BgpMsgError,
        BgpDownReason::BgpBadAsn,
        BgpDownReason::TcpClosed,
    ];

    /// Stable snake_case name (JSONL `reason` field).
    pub fn name(self) -> &'static str {
        match self {
            BgpDownReason::CarrierDown => "carrier_down",
            BgpDownReason::BgpHoldExpired => "bgp_hold_expired",
            BgpDownReason::BfdDown => "bfd_down",
            BgpDownReason::TcpRetxExhausted => "tcp_retx_exhausted",
            BgpDownReason::BgpNotification => "bgp_notification",
            BgpDownReason::BgpMsgError => "bgp_msg_error",
            BgpDownReason::BgpBadAsn => "bgp_bad_asn",
            BgpDownReason::TcpClosed => "tcp_closed",
        }
    }

    /// Whether a teardown for this reason is the router *detecting* a
    /// failure, and how: `Some(true)` by an instant local carrier
    /// notification, `Some(false)` by a timeout, `None` when the session
    /// ended for a reason that is not a detection (the peer said so, or
    /// sent something unacceptable).
    pub fn detection(self) -> Option<bool> {
        match self {
            BgpDownReason::CarrierDown => Some(true),
            BgpDownReason::BgpHoldExpired
            | BgpDownReason::BfdDown
            | BgpDownReason::TcpRetxExhausted => Some(false),
            BgpDownReason::BgpNotification
            | BgpDownReason::BgpMsgError
            | BgpDownReason::BgpBadAsn
            | BgpDownReason::TcpClosed => None,
        }
    }
}

/// A typed protocol span event. Each variant marks one step of a
/// convergence episode, so a post-hoc analyzer can reconstruct
/// *why* a failure took as long as it did (who detected, via carrier or
/// timeout; how updates batched; when trees were rebuilt) instead of just
/// *that* updates stopped at some instant.
///
/// Every field is a fixed-width integer, a flag or a one-byte enum, so
/// a span fits the canonical record (a port, a kind byte and three
/// payload bytes) and tracing stays allocation free on the hot path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanEvent {
    /// BGP session FSM transition.
    BgpFsm {
        port: PortId,
        from: BgpState,
        to: BgpState,
    },
    /// A BGP session was torn down; [`BgpDownReason::detection`] says
    /// whether by carrier, by timeout or for another reason.
    BgpSessionDown { port: PortId, reason: BgpDownReason },
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
            SpanEvent::BgpSessionDown { reason, .. } => reason.detection(),
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

    /// The span as its canonical record fields: kind code, port (0 when
    /// the span has none) and three payload bytes.
    fn to_parts(self) -> (u8, PortId, [u8; 3]) {
        let none = PortId(0);
        match self {
            SpanEvent::BgpFsm { port, from, to } => (0, port, [from as u8, to as u8, 0]),
            SpanEvent::BgpSessionDown { port, reason } => (1, port, [reason as u8, 0, 0]),
            SpanEvent::BgpUpdateBatch { peers, prefixes } => (2, none, [peers, prefixes, 0]),
            SpanEvent::NeighborDown { port, carrier } => (3, port, [carrier as u8, 0, 0]),
            SpanEvent::NeighborUp { port } => (4, port, [0; 3]),
            SpanEvent::VidInstall { root, port } => (5, port, [root, 0, 0]),
            SpanEvent::VidRemove { root, port } => (6, port, [root, 0, 0]),
            SpanEvent::LossFlood { roots, fanout, lost } => (7, none, [roots, fanout, lost as u8]),
            SpanEvent::HolddownArm => (8, none, [0; 3]),
            SpanEvent::HolddownResolve { negatives, totals } => (9, none, [negatives, totals, 0]),
            SpanEvent::UpperLossTotal { root } => (10, none, [root, 0, 0]),
            SpanEvent::LocalRepair { port } => (11, port, [0; 3]),
        }
    }

    /// Inverse of [`SpanEvent::to_parts`] for every kind and enum code it
    /// can produce. Bytes a kind does not use are ignored here;
    /// [`TraceEvent::from_words`] rejects them by re-encoding.
    fn from_parts(kind: u8, port: PortId, [a, b, c]: [u8; 3]) -> Option<SpanEvent> {
        let state = |code: u8| BgpState::ALL.get(code as usize).copied();
        Some(match kind {
            0 => SpanEvent::BgpFsm { port, from: state(a)?, to: state(b)? },
            1 => SpanEvent::BgpSessionDown {
                port,
                reason: *BgpDownReason::ALL.get(a as usize)?,
            },
            2 => SpanEvent::BgpUpdateBatch { peers: a, prefixes: b },
            3 => SpanEvent::NeighborDown { port, carrier: a != 0 },
            4 => SpanEvent::NeighborUp { port },
            5 => SpanEvent::VidInstall { root: a, port },
            6 => SpanEvent::VidRemove { root: a, port },
            7 => SpanEvent::LossFlood { roots: a, fanout: b, lost: c != 0 },
            8 => SpanEvent::HolddownArm,
            9 => SpanEvent::HolddownResolve { negatives: a, totals: b },
            10 => SpanEvent::UpperLossTotal { root: a },
            11 => SpanEvent::LocalRepair { port },
            _ => return None,
        })
    }
}

/// One trace record.
#[derive(Clone, PartialEq, Debug)]
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

// 24 today; a field that pushes a record past 32 bytes is paid for by
// every traced run's memory traffic.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 32);

/// Words in a canonical record.
pub const RECORD_WORDS: usize = 3;

impl TraceEvent {
    /// The canonical record: `[time, head, payload]`, where `head` packs
    /// `tag | sub << 8 | port << 16 | node << 32` — `tag` the variant
    /// (0 `FrameSent`, 1 `PortDown`, 2 `PortUp`, 3 `RouteChange`,
    /// 4 `Span`), `sub` the frame class, route-change kind or span kind —
    /// and `payload` holds `wire_len | capture_len << 32`, the
    /// route-change `detail`, or a span's three payload bytes. Fields a
    /// variant lacks are zero.
    #[inline]
    pub fn to_words(&self) -> [u64; RECORD_WORDS] {
        let head = |tag: u64, sub: u8, port: PortId, node: NodeId| {
            tag | (sub as u64) << 8 | (port.0 as u64) << 16 | (node.0 as u64) << 32
        };
        match *self {
            TraceEvent::FrameSent { time, node, port, wire_len, capture_len, class } => {
                [time, head(0, class as u8, port, node), wire_len as u64 | (capture_len as u64) << 32]
            }
            TraceEvent::PortDown { time, node, port } => [time, head(1, 0, port, node), 0],
            TraceEvent::PortUp { time, node, port } => [time, head(2, 0, port, node), 0],
            TraceEvent::RouteChange { time, node, kind, detail } => {
                [time, head(3, kind as u8, PortId(0), node), detail]
            }
            TraceEvent::Span { time, node, span } => {
                let (kind, port, [a, b, c]) = span.to_parts();
                [time, head(4, kind, port, node), a as u64 | (b as u64) << 8 | (c as u64) << 16]
            }
        }
    }

    /// Inverse of [`TraceEvent::to_words`]: `None` for anything it cannot
    /// have produced (an unknown tag or code, a nonzero unused field), so
    /// a record has exactly one encoding.
    pub fn from_words(words: [u64; RECORD_WORDS]) -> Option<TraceEvent> {
        let [time, head, payload] = words;
        let sub = (head >> 8) as u8;
        let port = PortId((head >> 16) as u16);
        let node = NodeId((head >> 32) as u32);
        let ev = match head as u8 {
            0 => TraceEvent::FrameSent {
                time,
                node,
                port,
                wire_len: payload as u32,
                capture_len: (payload >> 32) as u32,
                class: *FrameClass::ALL.get(sub as usize)?,
            },
            1 => TraceEvent::PortDown { time, node, port },
            2 => TraceEvent::PortUp { time, node, port },
            3 => TraceEvent::RouteChange {
                time,
                node,
                kind: match sub {
                    0 => RouteChangeKind::Withdraw,
                    1 => RouteChangeKind::Install,
                    _ => return None,
                },
                detail: payload,
            },
            4 => {
                let bytes = [payload as u8, (payload >> 8) as u8, (payload >> 16) as u8];
                TraceEvent::Span { time, node, span: SpanEvent::from_parts(sub, port, bytes)? }
            }
            _ => return None,
        };
        (ev.to_words() == words).then_some(ev)
    }

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
        let hold =
            SpanEvent::BgpSessionDown { port: PortId(0), reason: BgpDownReason::BgpHoldExpired };
        assert_eq!(hold.detection(), Some(false));
        assert_eq!(hold.kind(), "bgp_session_down");
        assert!(hold.is_state_change());
        assert!(!SpanEvent::BgpUpdateBatch { peers: 1, prefixes: 1 }.is_state_change());
    }

    /// All eight teardown reasons with their rendered name and their
    /// detection class. The names are JSONL output and the classes decide
    /// what the storyboard counts as a detection; both used to hang on
    /// string literals at the call sites.
    #[test]
    fn every_down_reason_has_its_name_and_detection_class() {
        let table = [
            (BgpDownReason::CarrierDown, "carrier_down", Some(true)),
            (BgpDownReason::BgpHoldExpired, "bgp_hold_expired", Some(false)),
            (BgpDownReason::BfdDown, "bfd_down", Some(false)),
            (BgpDownReason::TcpRetxExhausted, "tcp_retx_exhausted", Some(false)),
            (BgpDownReason::BgpNotification, "bgp_notification", None),
            (BgpDownReason::BgpMsgError, "bgp_msg_error", None),
            (BgpDownReason::BgpBadAsn, "bgp_bad_asn", None),
            (BgpDownReason::TcpClosed, "tcp_closed", None),
        ];
        assert_eq!(table.map(|(r, ..)| r), BgpDownReason::ALL);
        for (reason, name, detection) in table {
            assert_eq!(reason.name(), name);
            assert_eq!(reason.detection(), detection, "{name}");
            let span = SpanEvent::BgpSessionDown { port: PortId(2), reason };
            assert_eq!(span.detection(), detection, "{name}");
        }
        let names = BgpState::ALL.map(BgpState::name);
        assert_eq!(names, ["idle", "tcp_pending", "open_sent", "open_confirm", "established"]);
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
