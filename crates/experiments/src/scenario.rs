//! One experiment: fabric × stack × failure × traffic → metrics, and the
//! one function ([`execute`]) every scripted harness runs through.

use dcn_metrics::{
    blast_radius, class_breakdown, control_overhead_bytes, convergence_time, keepalive_stats,
    update_frames, KeepaliveStats,
};
use dcn_sim::time::{as_millis_f64, millis, secs, Duration, Time};
use dcn_sim::{NodeId, SimConfig};
use dcn_telemetry::{capture_dump, hists_jsonl, spans_jsonl, Json, TraceBundle};
use dcn_topology::{Addressing, Fabric};
use dcn_traffic::{LossReport, SendSpec};

use crate::fabric::{assemble, BuiltSim};
use crate::flows::pin_flow;
use crate::runspec::{Failure, RunSpec};

/// Traffic placement relative to the failure chain (the paper's Figs. 7
/// and 8).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrafficDir {
    /// No traffic (pure control-plane experiment).
    None,
    /// Sender close to the failure points: rack 11 → rack 14 (Fig. 7).
    NearToFar,
    /// Sender away from the failure points: rack 14 → rack 11 (Fig. 8).
    FarToNear,
}

impl TrafficDir {
    pub const ALL: [TrafficDir; 3] =
        [TrafficDir::None, TrafficDir::NearToFar, TrafficDir::FarToNear];

    /// CLI-safe identifier: the `fcr` direction argument, the spec-file
    /// and store spelling, and the `traffic=` field of [`RunSpec::key`].
    pub fn slug(self) -> &'static str {
        match self {
            TrafficDir::None => "none",
            TrafficDir::NearToFar => "near",
            TrafficDir::FarToNear => "far",
        }
    }

    /// Inverse of [`TrafficDir::slug`].
    pub fn from_slug(s: &str) -> Option<TrafficDir> {
        TrafficDir::ALL.into_iter().find(|dir| dir.slug() == s)
    }
}

/// Experiment timeline. Defaults mirror the paper's procedure: let the
/// fabric converge, start traffic, fail an interface mid-stream, keep
/// measuring until well past the slowest stack's recovery (BGP's 3 s hold
/// timer), then let in-flight traffic drain.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Cold start → converged fabric.
    pub warmup: Duration,
    /// Traffic runs this long before the failure.
    pub traffic_lead: Duration,
    /// Measurement window after the failure.
    pub post_failure: Duration,
    /// Extra drain after traffic stops.
    pub drain: Duration,
}

impl Default for Timing {
    fn default() -> Self {
        Timing { warmup: secs(5), traffic_lead: secs(2), post_failure: secs(6), drain: secs(1) }
    }
}

impl Timing {
    /// The steady-state timeline: full warmup, then effectively no
    /// measurement window (keep-alive analysis reads the warmup tail).
    pub fn steady() -> Timing {
        Timing {
            warmup: secs(5),
            traffic_lead: millis(1),
            post_failure: millis(1),
            drain: millis(1),
        }
    }

    /// A shortened failure timeline for smoke runs (CI, `--quick`
    /// campaigns): warmup still long enough for BGP session
    /// establishment, post-failure window still covering the 3 s hold
    /// timer, everything else trimmed.
    pub fn quick() -> Timing {
        Timing {
            warmup: secs(3),
            traffic_lead: millis(100),
            post_failure: secs(4),
            drain: millis(100),
        }
    }

    pub fn traffic_start(&self) -> Time {
        self.warmup
    }
    pub fn failure_at(&self) -> Time {
        self.warmup + self.traffic_lead
    }
    pub fn traffic_stop(&self) -> Time {
        self.failure_at() + self.post_failure
    }
    pub fn end(&self) -> Time {
        self.traffic_stop() + self.drain
    }
}

/// Everything measured from one run.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Fig. 4: failure → last update activity, in milliseconds.
    pub convergence_ms: Option<f64>,
    /// Fig. 5: routers whose destination-routing state changed.
    pub blast_radius: usize,
    /// Fig. 6: layer-2 bytes of update messages after the failure.
    pub control_bytes: u64,
    pub update_frames: u64,
    /// Figs. 7–8: receiver-side loss analysis (when traffic ran).
    pub loss: Option<LossReport>,
    /// Figs. 9–10: steady-state keep-alive traffic (pre-traffic window).
    pub keepalive: KeepaliveStats,
    /// Per-class (frames, bytes) over the post-failure window.
    pub breakdown: Vec<(&'static str, u64, u64)>,
}

/// One instrumented run: the ordinary metrics plus the finished
/// simulation (trace, routers) for storyboarding, span and histogram
/// export and counter dumps.
pub struct InstrumentedRun {
    pub result: ScenarioResult,
    pub built: BuiltSim,
    /// The failure instant (storyboard `t0`), if the scenario failed
    /// anything.
    pub failure_at: Option<Time>,
}

/// Run one spec to completion.
pub fn run(spec: RunSpec) -> ScenarioResult {
    run_with_sim(spec).0
}

/// [`run`] handing back the finished simulation alongside the metrics, for
/// callers that go on to read the trace, the routers' tables or the
/// engine profile.
pub fn run_with_sim(spec: RunSpec) -> (ScenarioResult, BuiltSim) {
    execute(&spec, SimConfig::default())
}

/// Run one spec to completion and return the trace digest of the finished
/// simulation: the equivalence contract surface. For a given spec the
/// digest must be bit-identical whatever [`SimConfig`] executes it.
pub fn run_digest(spec: RunSpec) -> u64 {
    crate::chaos::trace_digest(&run_with_sim(spec).1.sim)
}

/// [`run_with_sim`] with the failure instant kept beside the finished
/// simulation, for the storyboard, the report and the trace bundle.
pub fn run_instrumented(spec: RunSpec) -> InstrumentedRun {
    let (result, built) = run_with_sim(spec);
    let failure_at = (spec.failure != Failure::None).then(|| spec.timing.failure_at());
    InstrumentedRun { result, built, failure_at }
}

/// Package one instrumented run as a self-contained trace bundle:
/// `meta.json`, span and frame-size JSONL dumps, a tshark-style capture of
/// the failure window, and the rendered convergence storyboard.
pub fn bundle_from_run(run: &InstrumentedRun, spec: &RunSpec) -> TraceBundle {
    let sim = &run.built.sim;
    let name_of = |n: NodeId| sim.node_name(n).to_string();

    let mut meta = vec![
        ("kind", Json::str("scenario")),
        ("stack", Json::str(spec.stack.slug())),
        ("seed", Json::UInt(spec.seed)),
        ("end_ns", Json::UInt(sim.now())),
    ];
    if let Some(t0) = run.failure_at {
        meta.push(("failure", Json::str(spec.failure.label())));
        meta.push(("failure_at_ns", Json::UInt(t0)));
    }
    if let Some(c) = run.result.convergence_ms {
        meta.push(("convergence_ms", Json::Float(c)));
    }

    let mut b = TraceBundle::new(Json::obj(meta));
    b.add_file("spans.jsonl", spans_jsonl(sim.trace(), name_of));
    b.add_file("hists.jsonl", hists_jsonl(sim.trace()));
    if let Some(t0) = run.failure_at {
        let sb = dcn_metrics::storyboard::build(sim.trace(), t0);
        b.add_file("storyboard.txt", dcn_metrics::storyboard::render(&sb, name_of));
        b.add_file("capture.txt", capture_dump(sim, t0.saturating_sub(millis(50)), sim.now(), 400));
    }
    b
}

/// The executor: build the fabric `s.params` describes running
/// `s.stack`, pin the monitored flow onto the failure chain, warm up,
/// schedule the failure's transitions, run the timeline out and extract
/// the paper's metrics.
///
/// `config` is *how* the run executes and must not change what it
/// computes.
pub fn execute(s: &RunSpec, config: SimConfig) -> (ScenarioResult, BuiltSim) {
    let timing = s.timing;
    let fabric = Fabric::build(s.params);
    let addr = Addressing::new(&fabric);
    // The monitored flow is pinned to the failure chain exactly as the
    // paper's test design requires (§VI-D): rack 11 ↔ rack 14.
    let flow = (s.traffic != TrafficDir::None).then(|| {
        let p = fabric.params;
        let near = (fabric.server(0, 0, 0), fabric.tor(0, 0));
        let far = (fabric.server(1, p.tors_per_pod - 1, 0), fabric.tor(1, p.tors_per_pod - 1));
        let ((src_node, src_tor), (dst_node, dst_tor)) =
            if s.traffic == TrafficDir::NearToFar { (near, far) } else { (far, near) };
        let src_ip = addr.server_addr(src_tor, 0).expect("sender address");
        let dst_ip = addr.server_addr(dst_tor, 0).expect("receiver address");
        let (sp, dp) = pin_flow(src_ip, dst_ip, &[p.spines_per_pod, p.uplinks_per_spine]);
        let mut send = SendSpec::new(dst_ip, timing.traffic_start(), timing.traffic_stop());
        send.src_port = sp;
        send.dst_port = dp;
        if let Some(interval) = s.traffic_interval {
            send.interval = interval;
        }
        (src_node, dst_node, send)
    });
    let sender = flow.map(|(src, _, send)| (src, send));
    let mut built = assemble(fabric, addr, s.stack, s.seed, sender.as_slice(), s.tuning, config);

    // Phase 1: warmup.
    built.sim.run_until(timing.warmup);
    // Steady-state keep-alive window: the last 2 s of warmup.
    let ka_window = (timing.warmup.saturating_sub(secs(2)), timing.warmup);

    // Phase 2: failure injection (if any) and measurement.
    let failure_at = timing.failure_at();
    let transitions = s.failure.transitions(&built.fabric);
    built.schedule_faults(failure_at, &transitions);
    built.sim.run_until(timing.end());

    // Metrics extraction.
    let trace = built.sim.trace();
    let keepalive = keepalive_stats(trace, ka_window.0, ka_window.1);
    let (convergence_ms, blast, control, frames) = if s.failure != Failure::None {
        (
            convergence_time(trace, failure_at).map(as_millis_f64),
            blast_radius(trace, failure_at),
            control_overhead_bytes(trace, failure_at, None),
            update_frames(trace, failure_at),
        )
    } else {
        (None, 0, 0, 0)
    };
    let breakdown =
        class_breakdown(trace, failure_at, None).into_iter().map(|(k, (f, b))| (k, f, b)).collect();
    let loss = flow.map(|(src, dst, _)| built.host(dst).report(built.host(src).sent()));

    let result = ScenarioResult {
        convergence_ms,
        blast_radius: blast,
        control_bytes: control,
        update_frames: frames,
        loss,
        keepalive,
        breakdown,
    };
    (result, built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Stack;
    use dcn_topology::{ClosParams, FailureCase};

    #[test]
    fn mrmtp_tc4_scenario_end_to_end() {
        let s = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(FailureCase::Tc4)
            .with_traffic(TrafficDir::NearToFar);
        let r = run(s);
        assert_eq!(r.blast_radius, 1, "Fig. 5: one router updates");
        let c = r.convergence_ms.expect("updates flowed");
        assert!(c < 50.0, "carrier-detected failure converges fast: {c} ms");
        assert!(r.control_bytes > 0);
        let loss = r.loss.unwrap();
        assert!(loss.sent > 2000, "≈333 pkt/s for 8 s: {}", loss.sent);
        // TC4 silently kills the S1_1 → S2_1 hop the flow rides; S1_1
        // needs its 100 ms dead timer to reroute, so the flow loses up to
        // a dead-interval's worth of packets (the paper's TC2/TC4 story).
        let lost = loss.lost();
        assert!((1..=40).contains(&lost), "dead-timer-bounded loss expected: {loss:?}");
    }

    #[test]
    fn instrumented_run_builds_storyboards_and_bundles() {
        let s = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp).failing(FailureCase::Tc1);
        let ir = run_instrumented(s);

        // The storyboard built from the typed spans agrees with the
        // paper-style convergence number.
        let t0 = ir.failure_at.expect("failure injected");
        let sb = dcn_metrics::storyboard::build(ir.built.sim.trace(), t0);
        let p = sb.phases.expect("detection happened");
        let conv = ir.result.convergence_ms.expect("updates flowed");
        assert!((p.detection_ms + p.propagation_ms - conv).abs() < 1e-6);

        // And the bundle is self-contained: meta + spans + histograms +
        // storyboard + capture.
        let bundle = bundle_from_run(&ir, &s);
        let names: Vec<&str> = bundle.files().iter().map(|(n, _)| n.as_str()).collect();
        for want in ["spans.jsonl", "hists.jsonl", "storyboard.txt", "capture.txt"] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        assert_eq!(bundle.meta().get("stack").unwrap().as_str(), Some("mrmtp"));
        let sb_text = &bundle.files().iter().find(|(n, _)| n == "storyboard.txt").unwrap().1;
        assert!(sb_text.contains("phases:"), "{sb_text}");
    }

    #[test]
    fn profiled_run_counts_every_event_and_keeps_its_metrics() {
        let spec = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(FailureCase::Tc1)
            .seeded(5)
            .timed(Timing {
                warmup: secs(2),
                traffic_lead: millis(100),
                post_failure: millis(500),
                drain: millis(100),
            });
        let (result, built) = run_with_sim(spec);
        // The engine profile is reported after the fact, every event counted.
        let report = dcn_telemetry::PerfReport::of(&built.sim, "quick");
        let prof = report.profile();
        assert_eq!(prof.total_events(), built.sim.events_processed());
        assert_eq!(prof.node_events.iter().sum::<u64>(), prof.total_events());
        assert!(prof.wall_ns > 0);
        assert_eq!(report.node_names[0], built.sim.node_name(NodeId(0)), "nodes by name");
        // The run's ordinary metrics still came out.
        assert!(result.convergence_ms.is_some());
    }

    /// Every file a scenario bundle carries besides `meta.json` and the
    /// sampled series, pinned by the [`dcn_sim::hash64`] of its bytes:
    /// how a run is observed must not move what it records.
    #[test]
    fn bundle_files_are_pinned() {
        let s =
            RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp).failing(FailureCase::Tc1).seeded(42);
        let bundle = bundle_from_run(&run_instrumented(s), &s);
        let got: Vec<(&str, u64)> = ["spans.jsonl", "hists.jsonl", "storyboard.txt", "capture.txt"]
            .into_iter()
            .map(|want| {
                let (_, text) = bundle.files().iter().find(|(n, _)| n == want).expect(want);
                (want, dcn_sim::hash64(text.as_bytes()))
            })
            .collect();
        assert_eq!(
            got,
            [
                ("spans.jsonl", 0x431e_ae10_0064_bce4),
                ("hists.jsonl", 0x082a_7c43_d3b7_d44b),
                ("storyboard.txt", 0x8d1e_7a9b_78cf_801b),
                ("capture.txt", 0x3087_ecbb_fb5d_074e),
            ]
        );
    }

    #[test]
    fn steady_state_has_keepalives_but_no_updates() {
        let r = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .seeded(3)
            .timed(Timing::steady())
            .run();
        assert!(r.keepalive.frames > 100);
        assert_eq!(r.keepalive.avg_frame_len, 60.0, "1-byte hellos padded to 60");
        assert!(r.convergence_ms.is_none());
    }
}
