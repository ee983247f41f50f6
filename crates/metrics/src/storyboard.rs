//! Post-hoc convergence storyboards built from typed protocol spans.
//!
//! The paper reports convergence as a single number per failure. The
//! storyboard reconstructs the anatomy *behind* that number from the
//! [`dcn_sim::SpanEvent`]s a run leaves in its trace:
//!
//! * **who detected** the failure, and how — local carrier loss versus a
//!   protocol timeout (missed hellos, BGP hold timer, BFD detection);
//! * **when each router first learned** of the event (its first span or
//!   routing change after `t0`) and when it **last changed state**;
//! * a **per-phase breakdown**: detection (failure → first detection
//!   verdict), propagation (first detection → update messages stop) and
//!   quiescence (trailing state changes that no longer generate updates,
//!   e.g. the far side's hold timer finally expiring).
//!
//! The phase accounting is aligned with [`crate::convergence_time`]:
//! `detection + propagation` equals the paper-style convergence time
//! exactly, and quiescence is the extra tail captured by the stricter
//! [`crate::last_state_change`] variant.

use std::collections::BTreeMap;

use dcn_sim::time::{Time, MILLIS};
use dcn_sim::{FrameClass, NodeId, Trace, TraceEvent};

/// How a router concluded that a neighbor/session was gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detection {
    pub node: NodeId,
    pub time: Time,
    /// `true` for local carrier loss, `false` for a timeout-based verdict.
    pub carrier: bool,
    /// The span kind that carried the verdict (`"neighbor_down"`,
    /// `"bgp_session_down"`, …).
    pub kind: &'static str,
}

/// One router's view of the failure episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterTimeline {
    pub node: NodeId,
    /// First span or routing change this router produced at/after `t0`.
    pub first_learned: Time,
    /// Last state-changing span or routing change it produced.
    pub last_changed: Time,
    /// Spans attributed to this router in the episode.
    pub span_count: u64,
    /// Set when this router itself detected the failure.
    pub detection: Option<Detection>,
}

/// Detection → propagation → quiescence, in fractional milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseBreakdown {
    /// Failure instant to the first detection verdict.
    pub detection_ms: f64,
    /// First detection to the last routing-update frame (so that
    /// `detection + propagation` == paper-style convergence time).
    pub propagation_ms: f64,
    /// Trailing state changes after update messages stopped.
    pub quiescence_ms: f64,
}

/// The assembled storyboard for one failure episode.
#[derive(Clone, Debug, Default)]
pub struct Storyboard {
    /// The failure instant the episode is measured from.
    pub t0: Time,
    /// Every detection verdict, in time order.
    pub detections: Vec<Detection>,
    /// Per-router timelines, ordered by first-learned time.
    pub routers: Vec<RouterTimeline>,
    /// Phase breakdown; `None` when the episode produced no detection.
    pub phases: Option<PhaseBreakdown>,
    /// Paper-style convergence time (last update frame − `t0`), ns.
    pub convergence_ns: Option<u64>,
    /// Stricter last-state-change time − `t0`, ns.
    pub last_change_ns: Option<u64>,
    /// First in-data-plane repair (`local_repair` span) − `t0`, ns. This
    /// is the `repaired-locally` phase: the window in which forwarding
    /// was already healed by the backup FIB while the control plane was
    /// still converging. `None` when no repair fired (e.g. with the
    /// `local_repair` knob off).
    pub first_repair_ns: Option<u64>,
    /// Number of `local_repair` spans in the episode (one per repaired
    /// destination per FIB generation, not per packet).
    pub repair_spans: u64,
}

/// Build the storyboard for the failure at `t0` from a recorded trace.
pub fn build(trace: &Trace, t0: Time) -> Storyboard {
    let mut detections = Vec::new();
    let mut per_node: BTreeMap<NodeId, RouterTimeline> = BTreeMap::new();
    let mut last_update_frame: Option<Time> = None;
    let mut last_change: Option<Time> = None;
    let mut first_repair: Option<Time> = None;
    let mut repair_spans = 0u64;

    for ev in trace.events_since(t0) {
        let (node, time) = (ev.node(), ev.time());
        match ev {
            TraceEvent::Span { span, .. } => {
                if matches!(span, dcn_sim::SpanEvent::LocalRepair { .. }) {
                    first_repair.get_or_insert(time);
                    repair_spans += 1;
                }
                let tl = per_node.entry(node).or_insert(RouterTimeline {
                    node,
                    first_learned: time,
                    last_changed: time,
                    span_count: 0,
                    detection: None,
                });
                tl.span_count += 1;
                if span.is_state_change() {
                    tl.last_changed = time;
                    last_change = Some(time);
                }
                if let Some(carrier) = span.detection() {
                    let d = Detection { node, time, carrier, kind: span.kind() };
                    if tl.detection.is_none() {
                        tl.detection = Some(d);
                    }
                    detections.push(d);
                }
            }
            TraceEvent::RouteChange { .. } => {
                let tl = per_node.entry(node).or_insert(RouterTimeline {
                    node,
                    first_learned: time,
                    last_changed: time,
                    span_count: 0,
                    detection: None,
                });
                tl.last_changed = time;
                last_change = Some(time);
            }
            TraceEvent::FrameSent { class: FrameClass::Update, .. } => {
                per_node.entry(node).or_insert(RouterTimeline {
                    node,
                    first_learned: time,
                    last_changed: time,
                    span_count: 0,
                    detection: None,
                });
                last_update_frame = Some(time);
            }
            _ => {}
        }
    }

    let phases = detections.first().map(|first| {
        let detect_at = first.time;
        // Convergence endpoint: when update messages stop (paper
        // methodology). Falls back to the detection instant for episodes
        // that triggered no updates at all.
        let converge_at = last_update_frame.unwrap_or(detect_at).max(detect_at);
        let quiesce_at = last_change.unwrap_or(converge_at).max(converge_at);
        PhaseBreakdown {
            detection_ms: (detect_at - t0) as f64 / MILLIS as f64,
            propagation_ms: (converge_at - detect_at) as f64 / MILLIS as f64,
            quiescence_ms: (quiesce_at - converge_at) as f64 / MILLIS as f64,
        }
    });

    let mut routers: Vec<RouterTimeline> = per_node.into_values().collect();
    routers.sort_by_key(|tl| (tl.first_learned, tl.node));

    Storyboard {
        t0,
        detections,
        routers,
        phases,
        convergence_ns: last_update_frame.map(|t| t - t0),
        last_change_ns: last_change.map(|t| t - t0),
        first_repair_ns: first_repair.map(|t| t - t0),
        repair_spans,
    }
}

/// Render the storyboard as the human-readable report `fcr report`
/// prints. `name_of` maps node ids to router names.
pub fn render(sb: &Storyboard, name_of: impl Fn(NodeId) -> String) -> String {
    let ms = |ns: u64| ns as f64 / MILLIS as f64;
    let mut out = String::new();
    out.push_str(&format!(
        "failure injected at t0 = {:.3} s\n",
        sb.t0 as f64 / dcn_sim::time::SECONDS as f64
    ));
    if sb.detections.is_empty() {
        out.push_str("no detection verdicts recorded — nothing to storyboard\n");
        return out;
    }
    out.push_str("\ndetections:\n");
    for d in &sb.detections {
        out.push_str(&format!(
            "  +{:>9.3} ms  {:<8} {:<17} via {}\n",
            ms(d.time - sb.t0),
            name_of(d.node),
            d.kind,
            if d.carrier { "carrier (local)" } else { "timeout (inferred)" },
        ));
    }
    if let Some(p) = sb.phases {
        out.push_str(&format!(
            "\nphases: detection {:.3} ms \u{2192} propagation {:.3} ms \u{2192} quiescence {:.3} ms\n",
            p.detection_ms, p.propagation_ms, p.quiescence_ms
        ));
    }
    if let Some(r) = sb.first_repair_ns {
        out.push_str(&format!(
            "repaired-locally: first in-data-plane repair at +{:.3} ms ({} repair span{})\n",
            ms(r),
            sb.repair_spans,
            if sb.repair_spans == 1 { "" } else { "s" },
        ));
    }
    if let Some(c) = sb.convergence_ns {
        out.push_str(&format!("convergence (update messages stop): {:.3} ms\n", ms(c)));
    }
    if let Some(c) = sb.last_change_ns {
        out.push_str(&format!("last state change: {:.3} ms\n", ms(c)));
    }
    out.push_str(&format!(
        "\n{:<8} {:>15} {:>15} {:>7}  detection\n",
        "router", "first learned", "last changed", "spans"
    ));
    for tl in &sb.routers {
        let det = match tl.detection {
            Some(d) if d.carrier => "carrier",
            Some(_) => "timeout",
            None => "-",
        };
        out.push_str(&format!(
            "{:<8} {:>12.3} ms {:>12.3} ms {:>7}  {}\n",
            name_of(tl.node),
            ms(tl.first_learned - sb.t0),
            ms(tl.last_changed - sb.t0),
            tl.span_count,
            det,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::{PortId, SpanEvent};

    fn span(t: Time, node: u32, span: SpanEvent) -> TraceEvent {
        TraceEvent::Span { time: t, node: NodeId(node), span }
    }

    fn update_frame(t: Time, node: u32) -> TraceEvent {
        TraceEvent::FrameSent {
            time: t,
            node: NodeId(node),
            port: PortId(0),
            wire_len: 80,
            capture_len: 80,
            class: FrameClass::Update,
        }
    }

    fn episode() -> Trace {
        let mut tr = Trace::enabled();
        tr.push(TraceEvent::PortDown { time: 100 * MILLIS, node: NodeId(1), port: PortId(0) });
        // n1 detects by carrier immediately; floods.
        tr.push(span(100 * MILLIS, 1, SpanEvent::NeighborDown { port: PortId(0), carrier: true }));
        tr.push(update_frame(101 * MILLIS, 1));
        // n2 learns from the flood, changes state, forwards.
        tr.push(span(102 * MILLIS, 2, SpanEvent::VidRemove { root: 11, port: PortId(1) }));
        tr.push(update_frame(103 * MILLIS, 2));
        // n3 only detects by timeout much later (quiescence tail).
        tr.push(span(200 * MILLIS, 3, SpanEvent::NeighborDown { port: PortId(2), carrier: false }));
        tr
    }

    #[test]
    fn detection_and_phases_line_up_with_convergence_time() {
        let tr = episode();
        let t0 = 100 * MILLIS;
        let sb = build(&tr, t0);
        assert_eq!(sb.detections.len(), 2);
        assert!(sb.detections[0].carrier);
        assert_eq!(sb.detections[0].node, NodeId(1));
        assert!(!sb.detections[1].carrier);

        let p = sb.phases.unwrap();
        assert_eq!(p.detection_ms, 0.0);
        assert_eq!(p.propagation_ms, 3.0, "last update frame at +3 ms");
        assert_eq!(p.quiescence_ms, 97.0, "timeout verdict at +100 ms");

        // detection + propagation == paper-style convergence time.
        let conv = crate::convergence_time(&tr, t0).unwrap();
        assert_eq!(((p.detection_ms + p.propagation_ms) * MILLIS as f64) as u64, conv);
        assert_eq!(sb.convergence_ns, Some(conv));
    }

    #[test]
    fn router_timelines_ordered_by_first_learned() {
        let tr = episode();
        let sb = build(&tr, 100 * MILLIS);
        let order: Vec<NodeId> = sb.routers.iter().map(|r| r.node).collect();
        assert_eq!(order, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let n1 = &sb.routers[0];
        assert_eq!(n1.first_learned, 100 * MILLIS);
        assert!(n1.detection.unwrap().carrier);
        let n2 = &sb.routers[1];
        assert_eq!(n2.first_learned, 102 * MILLIS);
        assert!(n2.detection.is_none());
    }

    #[test]
    fn render_mentions_every_router_and_phase() {
        let tr = episode();
        let sb = build(&tr, 100 * MILLIS);
        let text = render(&sb, |n| format!("R{}", n.0));
        assert!(text.contains("R1"), "{text}");
        assert!(text.contains("R3"), "{text}");
        assert!(text.contains("carrier (local)"), "{text}");
        assert!(text.contains("timeout (inferred)"), "{text}");
        assert!(text.contains("propagation"), "{text}");
    }

    #[test]
    fn local_repair_spans_date_the_repaired_locally_phase() {
        let mut tr = Trace::enabled();
        let t0 = 100 * MILLIS;
        tr.push(span(t0, 1, SpanEvent::NeighborDown { port: PortId(0), carrier: true }));
        tr.push(span(t0 + MILLIS / 2, 1, SpanEvent::LocalRepair { port: PortId(3) }));
        tr.push(update_frame(101 * MILLIS, 1));
        tr.push(span(102 * MILLIS, 2, SpanEvent::LocalRepair { port: PortId(1) }));
        let sb = build(&tr, t0);
        assert_eq!(sb.first_repair_ns, Some(MILLIS / 2));
        assert_eq!(sb.repair_spans, 2);
        // Repair spans are transmission markers, not state changes: the
        // late repair must not stretch quiescence.
        assert_eq!(sb.last_change_ns, Some(0));
        let text = render(&sb, |n| format!("R{}", n.0));
        assert!(text.contains("repaired-locally"), "{text}");

        // Without repairs the phase line is absent entirely.
        let sb0 = build(&episode(), t0);
        assert_eq!(sb0.first_repair_ns, None);
        assert!(!render(&sb0, |n| format!("R{}", n.0)).contains("repaired-locally"));
    }

    #[test]
    fn empty_episode_renders_gracefully() {
        let tr = Trace::enabled();
        let sb = build(&tr, 0);
        assert!(sb.phases.is_none());
        let text = render(&sb, |n| n.to_string());
        assert!(text.contains("nothing to storyboard"));
    }
}
