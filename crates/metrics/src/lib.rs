//! # dcn-metrics — extracting the paper's metrics from simulation traces
//!
//! The paper's measurement pipeline recorded the failure-injection
//! instant, captured frames with tshark, and parsed router logs to
//! compute convergence time, blast radius, control overhead and
//! keep-alive overhead. This crate performs the same computations over
//! the emulator's [`dcn_sim::Trace`]:
//!
//! | Paper metric | Definition here |
//! |---|---|
//! | Convergence time (Fig. 4) | failure instant → last routing-update frame or routing-table change |
//! | Blast radius (Fig. 5) | distinct routers with a `RouteChange` event after the failure |
//! | Control overhead (Fig. 6) | Σ layer-2 bytes of `Update`-class frames after the failure |
//! | Keep-alive overhead (Figs. 9–10) | bytes/frames of `Keepalive`-class traffic over a steady-state window, per link |
//! | Packet loss (Figs. 7–8) | from `dcn_traffic::LossReport` (receiver-side analyzer) |

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};

use dcn_sim::time::{Duration, Time, SECONDS};
use dcn_sim::{FrameClass, NodeId, Trace, TraceEvent};

pub mod storyboard;

/// Convergence time, per the paper's methodology: from `t0` (the failure
/// instant recorded by the injection script) until **update messages
/// stop** ("When the update messages stopped, we recorded the end time").
/// `None` if the failure produced no update messages at all.
///
/// Routing-table changes that generate no update message (e.g. the far
/// side of a failed link silently dropping an ECMP member when its hold
/// timer finally expires) intentionally do not extend convergence — they
/// didn't in the paper's log-based measurement either. Use
/// [`last_state_change`] for the stricter variant.
pub fn convergence_time(trace: &Trace, t0: Time) -> Option<Duration> {
    let mut last = None;
    for ev in trace.events_since(t0) {
        if matches!(ev, TraceEvent::FrameSent { class: FrameClass::Update, .. }) {
            last = Some(ev.time());
        }
    }
    last.map(|t| t - t0)
}

/// Time of the last routing-state change after `t0` (a stricter
/// convergence notion than the paper's update-message-based one).
pub fn last_state_change(trace: &Trace, t0: Time) -> Option<Duration> {
    let mut last = None;
    for ev in trace.events_since(t0) {
        let relevant = matches!(
            ev,
            TraceEvent::FrameSent { class: FrameClass::Update, .. }
                | TraceEvent::RouteChange { .. }
        );
        if relevant {
            last = Some(ev.time());
        }
    }
    last.map(|t| t - t0)
}

/// Blast radius: distinct routers whose destination-forwarding state
/// changed at or after `t0`.
pub fn blast_radius(trace: &Trace, t0: Time) -> usize {
    let nodes: BTreeSet<NodeId> = trace
        .events_since(t0)
        .filter_map(|ev| match ev {
            TraceEvent::RouteChange { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    nodes.len()
}

/// Per-class traffic statistics over a window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    pub frames: u64,
    /// Bytes as on a physical wire (min 60-byte frames).
    pub wire_bytes: u64,
    /// Bytes as tshark captured them on the paper's virtualized testbed
    /// NICs (no padding of short frames) — the paper's Fig. 6 counts are
    /// in these units, which is how an MR-MTP loss update costs ~20 bytes.
    pub capture_bytes: u64,
}

/// Control overhead: capture-length bytes of update messages sent at or
/// after `t0` (optionally bounded by `t1`). This matches the paper's
/// tshark/log-based byte counting.
pub fn control_overhead_bytes(trace: &Trace, t0: Time, t1: Option<Time>) -> u64 {
    class_bytes(trace, FrameClass::Update, t0, t1).capture_bytes
}

/// Statistics for one frame class in a window.
pub fn class_bytes(trace: &Trace, class: FrameClass, t0: Time, t1: Option<Time>) -> ClassStats {
    let mut out = ClassStats::default();
    for ev in trace.events_since(t0) {
        if let Some(end) = t1 {
            if ev.time() >= end {
                break;
            }
        }
        if let TraceEvent::FrameSent { class: c, wire_len, capture_len, .. } = ev {
            if *c == class {
                out.frames += 1;
                out.wire_bytes += *wire_len as u64;
                out.capture_bytes += *capture_len as u64;
            }
        }
    }
    out
}

/// Steady-state keep-alive statistics over a window (Figs. 9–10).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KeepaliveStats {
    pub frames: u64,
    pub bytes: u64,
    /// Average keep-alive bytes per second across the whole fabric.
    pub bytes_per_sec: f64,
    /// Average frame size — 60 for MR-MTP hellos, 66/85 for BFD/BGP.
    pub avg_frame_len: f64,
}

/// Keep-alive traffic in `[t0, t1)` (wire lengths: keep-alives are
/// per-link line overhead, so the padded on-wire size is the honest
/// number).
pub fn keepalive_stats(trace: &Trace, t0: Time, t1: Time) -> KeepaliveStats {
    let cs = class_bytes(trace, FrameClass::Keepalive, t0, Some(t1));
    let (frames, bytes) = (cs.frames, cs.wire_bytes);
    let window_s = (t1 - t0) as f64 / SECONDS as f64;
    KeepaliveStats {
        frames,
        bytes,
        bytes_per_sec: if window_s > 0.0 { bytes as f64 / window_s } else { 0.0 },
        avg_frame_len: if frames > 0 { bytes as f64 / frames as f64 } else { 0.0 },
    }
}

/// Full per-class breakdown of a window (diagnostics and the Fig. 1
/// protocol-machinery comparison).
pub fn class_breakdown(
    trace: &Trace,
    t0: Time,
    t1: Option<Time>,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut map: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for ev in trace.events_since(t0) {
        if let Some(end) = t1 {
            if ev.time() >= end {
                break;
            }
        }
        if let TraceEvent::FrameSent { class, wire_len, .. } = ev {
            let e = map.entry(class.name()).or_insert((0, 0));
            e.0 += 1;
            e.1 += *wire_len as u64;
        }
    }
    map
}

/// Number of update *frames* after `t0` (the paper also discusses message
/// counts).
pub fn update_frames(trace: &Trace, t0: Time) -> u64 {
    class_bytes(trace, FrameClass::Update, t0, None).frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::{PortId, RouteChangeKind};

    fn frame(t: Time, node: u32, class: FrameClass, len: u32) -> TraceEvent {
        TraceEvent::FrameSent {
            time: t,
            node: NodeId(node),
            port: PortId(0),
            wire_len: len.max(60),
            capture_len: len,
            class,
        }
    }

    fn change(t: Time, node: u32) -> TraceEvent {
        TraceEvent::RouteChange {
            time: t,
            node: NodeId(node),
            kind: RouteChangeKind::Withdraw,
            detail: 0,
        }
    }

    fn sample_trace() -> Trace {
        let mut tr = Trace::enabled();
        tr.push(frame(10, 1, FrameClass::Keepalive, 15));
        tr.push(frame(90, 1, FrameClass::Update, 20)); // pre-failure churn
        tr.push(TraceEvent::PortDown { time: 100, node: NodeId(0), port: PortId(0) });
        tr.push(frame(150, 2, FrameClass::Update, 20));
        tr.push(change(160, 3));
        tr.push(frame(170, 3, FrameClass::Update, 93));
        tr.push(change(180, 4));
        tr.push(frame(200, 1, FrameClass::Keepalive, 85));
        tr.push(frame(250, 2, FrameClass::Ack, 66));
        tr
    }

    #[test]
    fn convergence_is_last_update_message() {
        let tr = sample_trace();
        assert_eq!(convergence_time(&tr, 100), Some(70), "last update frame at 170");
        assert_eq!(convergence_time(&tr, 300), None);
        assert_eq!(
            last_state_change(&tr, 100),
            Some(80),
            "route change at 180 extends the strict variant"
        );
    }

    #[test]
    fn blast_radius_counts_distinct_routers() {
        let tr = sample_trace();
        assert_eq!(blast_radius(&tr, 100), 2);
        assert_eq!(blast_radius(&tr, 181), 0);
    }

    #[test]
    fn control_overhead_sums_update_capture_bytes_after_t0() {
        let tr = sample_trace();
        assert_eq!(control_overhead_bytes(&tr, 100, None), 20 + 93);
        assert_eq!(control_overhead_bytes(&tr, 0, None), 20 + 20 + 93);
        assert_eq!(control_overhead_bytes(&tr, 100, Some(160)), 20);
        assert_eq!(update_frames(&tr, 100), 2);
        let cs = class_bytes(&tr, FrameClass::Update, 100, None);
        assert_eq!(cs.wire_bytes, 60 + 93, "wire lengths stay padded");
    }

    #[test]
    fn keepalive_stats_compute_rates() {
        let tr = sample_trace();
        let ks = keepalive_stats(&tr, 0, SECONDS);
        assert_eq!(ks.frames, 2);
        assert_eq!(ks.bytes, 60 + 85, "padded wire lengths");
        assert!((ks.bytes_per_sec - 145.0).abs() < 1e-9);
        assert!((ks.avg_frame_len - 72.5).abs() < 1e-9);
    }

    #[test]
    fn breakdown_covers_all_classes() {
        let tr = sample_trace();
        let b = class_breakdown(&tr, 0, None);
        assert_eq!(b["keepalive"], (2, 145));
        assert_eq!(b["update"], (3, 60 + 60 + 93));
        assert_eq!(b["ack"], (1, 66));
        assert!(!b.contains_key("data"));
    }

    #[test]
    fn empty_window_yields_zeroes() {
        let tr = Trace::enabled();
        assert_eq!(convergence_time(&tr, 0), None);
        assert_eq!(blast_radius(&tr, 0), 0);
        let ks = keepalive_stats(&tr, 0, 0);
        assert_eq!(ks.bytes_per_sec, 0.0);
        assert_eq!(ks.avg_frame_len, 0.0);
    }
}
