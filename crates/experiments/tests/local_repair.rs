//! Local fast reroute acceptance: the paper's TC1–TC4 scripted failures
//! with the monitored flow pinned onto the failure chain and paced fast
//! enough (25 µs) that the engine's 500 µs carrier-detection latency
//! spans many packets, run with the `local_repair` knob off and on.
//!
//! The TC failures are one-sided: `Fabric::failure_point` downs a single
//! node's port, so only that node ever observes the failure locally —
//! and the interface view (the data plane's `port_up` mask) flips at the
//! failure instant while the protocol's carrier callback arrives a
//! `carrier_latency` later. That half-millisecond is exactly the window
//! in-data-plane repair exists for:
//!
//! * **BGP** applies no liveness at pick time, so with near-to-far
//!   traffic the carrier-side hop sprays into its locally-dead egress
//!   until the session tears down (TC1 at the ToR, TC3 at the spine
//!   uplink). Repair re-spreads over the surviving ECMP members and
//!   closes that window entirely — the ≥10× acceptance bound, measured
//!   non-vacuously.
//! * **MR-MTP** masks `port_up` inside every lookup already, so its
//!   carrier-side window is natively zero (`on == 0` side of the bound);
//!   the backup detour instead engages on far-to-near runs through hops
//!   holding an upper-loss holddown, covered by the engagement test.
//! * The residual far-side windows (hold-timer / Quick-to-Detect) have
//!   no local signal at any surviving hop and must stay untouched.

use dcn_experiments::fabric::build_fabric_sim_cfg;
use dcn_experiments::flows::pin_flow;
use dcn_experiments::{BuiltSim, RunSpec, Stack, StackTuning, TrafficDir};
use dcn_sim::time::{MICROS, MILLIS, SECONDS};
use dcn_sim::SimConfig;
use dcn_topology::{Addressing, ClosParams, FailureCase, Fabric};
use dcn_traffic::SendSpec;

const TCS: [FailureCase; 4] =
    [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4];

/// Fast enough that the 500 µs carrier-detection window spans ~20
/// packets of the monitored flow.
const FAST: u64 = 25 * MICROS;

/// Sum `(blackholed_in_window, locally_repaired)` over every router.
fn window_counters(built: &BuiltSim) -> (u64, u64) {
    (built.counter_total("blackholed_in_window"), built.counter_total("locally_repaired"))
}

/// The storyboard must date a `repaired-locally` phase exactly when the
/// counters saw a repair.
fn assert_storyboard_matches(run: &dcn_experiments::InstrumentedRun, repairs: u64, label: &str) {
    let Some(t0) = run.failure_at else { return };
    let sb = dcn_metrics::storyboard::build(run.built.sim.trace(), t0);
    let text = dcn_metrics::storyboard::render(&sb, |n| run.built.sim.node_name(n).to_string());
    assert_eq!(
        repairs > 0,
        text.contains("repaired-locally"),
        "{label}: storyboard/counter mismatch ({repairs} repairs)\n{text}",
    );
}

#[test]
fn local_repair_meets_the_tc_loss_window_bound() {
    let mut engaged = [0u64; 2];
    for (s, stack) in [Stack::Mrmtp, Stack::BgpEcmp].into_iter().enumerate() {
        for tc in TCS {
            let spec = RunSpec::new(ClosParams::two_pod(), stack)
                .failing(tc)
                .with_traffic(TrafficDir::NearToFar)
                .with_traffic_interval(FAST);
            let off = spec.run_instrumented();
            let on = spec.with_local_repair(true).run_instrumented();
            let (off_bh, off_rep) = window_counters(&off.built);
            let (on_bh, on_rep) = window_counters(&on.built);
            eprintln!(
                "{} {tc:?}: off blackholed={off_bh} on blackholed={on_bh} repaired={on_rep}",
                stack.label(),
            );
            assert_eq!(off_rep, 0, "repair engaged with the knob off ({} {tc:?})", stack.label());
            // The acceptance bound: repair closes the loss window
            // entirely or shrinks it at least 10×.
            assert!(
                on_bh == 0 || on_bh * 10 <= off_bh,
                "{} {tc:?}: loss window not shrunk 10x ({on_bh} on vs {off_bh} off)",
                stack.label(),
            );
            assert_storyboard_matches(&on, on_rep, stack.label());
            engaged[s] += on_rep;
        }
    }
    // BGP repair must have genuinely fired across the sweep (TC1 at the
    // ToR, TC3 at the spine: ~20 packets each sprayed into the
    // locally-dead ECMP member, all re-spread). MR-MTP's zero is honest:
    // its plain lookup already masks dead ports, which *is* the paper's
    // local reaction — the backup detour is exercised by the engagement
    // test below instead.
    assert!(engaged[1] > 0, "BGP local repair never engaged across TC1-TC4");
}

#[test]
fn bgp_local_repair_closes_the_carrier_window() {
    // The headline numbers: with the fast monitored flow, BGP's
    // carrier-side hop blackholes ~20 packets during carrier detection
    // with repair off, and zero with repair on — end to end, not just at
    // the repairing hop.
    for tc in [FailureCase::Tc1, FailureCase::Tc3] {
        let spec = RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmp)
            .failing(tc)
            .with_traffic(TrafficDir::NearToFar)
            .with_traffic_interval(FAST);
        let off = spec.run();
        let on = spec.with_local_repair(true).run();
        let off_lost = off.loss.expect("traffic ran").lost();
        let on_lost = on.loss.expect("traffic ran").lost();
        eprintln!("bgp {tc:?}: lost off={off_lost} on={on_lost}");
        assert!(off_lost > 0, "{tc:?}: no off-mode carrier window to close");
        assert_eq!(on_lost, 0, "{tc:?}: repair left end-to-end loss");
    }
}

#[test]
fn local_repair_engages_at_carrier_side_hops() {
    // Far-to-near MR-MTP traffic transits hops that both hold an
    // upper-loss holddown for the destination root and observe the dead
    // port locally — the state the backup detour exists for. The detour
    // must fire, must never widen the blackhole window, and must date
    // the storyboard phase.
    let mut engaged = 0u64;
    for tc in TCS {
        let spec = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(tc)
            .with_traffic(TrafficDir::FarToNear)
            .with_traffic_interval(FAST);
        let off = spec.run_instrumented();
        let on = spec.with_local_repair(true).run_instrumented();
        let (off_bh, off_rep) = window_counters(&off.built);
        let (on_bh, on_rep) = window_counters(&on.built);
        eprintln!("mr-mtp far-to-near {tc:?}: off_bh={off_bh} on_bh={on_bh} repaired={on_rep}");
        assert_eq!(off_rep, 0, "repair engaged with the knob off ({tc:?})");
        assert!(
            on_bh <= off_bh,
            "{tc:?}: repair widened the blackhole window ({on_bh} on vs {off_bh} off)",
        );
        assert_storyboard_matches(&on, on_rep, "mr-mtp far-to-near");
        engaged += on_rep;
    }
    assert!(engaged > 0, "MR-MTP local repair never engaged across the far-to-near TC sweep");
}

#[test]
fn local_repair_leaves_delivery_metrics_sane() {
    // With repair on, the monitored flow must lose no MORE packets than
    // with it off, on every stack × direction × TC pairing — including
    // the far-side windows repair cannot touch.
    for (stack, dir) in [
        (Stack::Mrmtp, TrafficDir::NearToFar),
        (Stack::Mrmtp, TrafficDir::FarToNear),
        (Stack::BgpEcmp, TrafficDir::NearToFar),
        (Stack::BgpEcmp, TrafficDir::FarToNear),
    ] {
        for tc in [FailureCase::Tc1, FailureCase::Tc3] {
            let spec = RunSpec::new(ClosParams::two_pod(), stack)
                .failing(tc)
                .with_traffic(dir)
                .with_traffic_interval(FAST);
            let off = spec.run();
            let on = spec.with_local_repair(true).run();
            let (off_loss, on_loss) = (
                off.loss.expect("traffic ran").lost(),
                on.loss.expect("traffic ran").lost(),
            );
            eprintln!("{} {dir:?} {tc:?}: lost off={off_loss} on={on_loss}", stack.label());
            assert!(
                on_loss <= off_loss,
                "{} {tc:?}: repair increased monitored-flow loss ({on_loss} vs {off_loss})",
                stack.label(),
            );
        }
    }
}

/// One pinned cross-pod flow per ToR pair, all riding the S-1-1 chain at
/// 25 µs pacing, then a carrier failure of S-1-1's first uplink (TC3)
/// 50 ms after warm-up. Returns [`window_counters`] 50 ms later.
fn loss_window_probe(pods: usize, stack: Stack, local_repair: bool) -> (u64, u64) {
    let params = ClosParams::scaled(pods).expect("even PoD count");
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let far = params.pods - 1;
    // BGP needs session establishment plus the initial table dumps;
    // MR-MTP's trees converge in well under a second.
    let warmup = if stack == Stack::Mrmtp { 2 * SECONDS } else { 6 * SECONDS };
    let fail_at = warmup + 50 * MILLIS;
    let end = fail_at + 50 * MILLIS;
    let widths = [params.spines_per_pod, params.uplinks_per_spine];
    let senders: Vec<(usize, SendSpec)> = (0..params.tors_per_pod)
        .map(|t| {
            let src_ip = addr.server_addr(fabric.tor(0, t), 0).expect("near server");
            let dst_ip = addr.server_addr(fabric.tor(far, t), 0).expect("far server");
            let (src_port, dst_port) = pin_flow(src_ip, dst_ip, &widths);
            let mut s = SendSpec::new(dst_ip, warmup, end);
            s.src_port = src_port;
            s.dst_port = dst_port;
            s.interval = FAST;
            (fabric.server(0, t, 0), s)
        })
        .collect();
    let tuning = StackTuning { local_repair, ..StackTuning::default() };
    let cfg = SimConfig { trace: false, ..SimConfig::default() };
    let mut built = build_fabric_sim_cfg(fabric, stack, 42, &senders, tuning, cfg);
    built.sim.run_until(fail_at);
    built.inject_failure(FailureCase::Tc3, fail_at);
    built.sim.run_until(end);
    window_counters(&built)
}

#[test]
fn carrier_loss_window_counts_are_exact() {
    // Two flows × the 20 packets that 25 µs pacing fits into the 500 µs
    // carrier latency: BGP/ECMP sprays all 40 into the dead uplink with
    // repair off and re-spreads all 40 with it on; MR-MTP's lookup masks
    // the dead port itself, so it neither loses nor repairs.
    for pods in [2, 4] {
        assert_eq!(loss_window_probe(pods, Stack::BgpEcmp, false), (40, 0), "bgp {pods} PoDs off");
        assert_eq!(loss_window_probe(pods, Stack::BgpEcmp, true), (0, 40), "bgp {pods} PoDs on");
        assert_eq!(loss_window_probe(pods, Stack::Mrmtp, false), (0, 0), "mr-mtp {pods} PoDs off");
        assert_eq!(loss_window_probe(pods, Stack::Mrmtp, true), (0, 0), "mr-mtp {pods} PoDs on");
    }
}
