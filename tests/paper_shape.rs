//! Cross-crate integration tests: the reproduced evaluation must show the
//! paper's *shapes* — who wins, by roughly what factor, and where the
//! crossovers fall (DESIGN.md §4 lists the tolerances).

use dcn_experiments::{run, RunSpec, Stack, TrafficDir};
use dcn_topology::{ClosParams, FailureCase};

fn scenario(stack: Stack, tc: FailureCase, dir: TrafficDir) -> RunSpec {
    RunSpec::new(ClosParams::two_pod(), stack).failing(tc).with_traffic(dir)
}

#[test]
fn fig4_convergence_ordering_on_timeout_detected_failures() {
    // TC1: the updating router must wait out its dead/hold timer. The
    // paper's headline: MR-MTP ≪ BGP+BFD ≪ BGP.
    let mtp =
        run(scenario(Stack::Mrmtp, FailureCase::Tc1, TrafficDir::None)).convergence_ms.unwrap();
    let bfd = run(scenario(Stack::BgpEcmpBfd, FailureCase::Tc1, TrafficDir::None))
        .convergence_ms
        .unwrap();
    let bgp =
        run(scenario(Stack::BgpEcmp, FailureCase::Tc1, TrafficDir::None)).convergence_ms.unwrap();
    assert!(mtp < bfd && bfd < bgp, "ordering violated: mtp={mtp} bfd={bfd} bgp={bgp}");
    // Timer-derived magnitudes: MR-MTP ≈ its 100 ms dead interval (minus
    // up to one 50 ms hello of phase, exactly as on the testbed);
    // BGP+BFD ≈ its 300 ms detection time; BGP ≈ its 3 s hold timer.
    assert!((40.0..200.0).contains(&mtp), "mtp={mtp}");
    assert!((200.0..400.0).contains(&bfd), "bfd={bfd}");
    assert!((1500.0..3200.0).contains(&bgp), "bgp={bgp}");
}

#[test]
fn fig4_carrier_detected_failures_converge_faster_than_detection() {
    // TC2/TC4: the router that must change its forwarding sees carrier
    // loss; the paper observes convergence below the failure-detection
    // time for every stack.
    for stack in Stack::ALL {
        for tc in [FailureCase::Tc2, FailureCase::Tc4] {
            let c = run(scenario(stack, tc, TrafficDir::None)).convergence_ms.unwrap();
            assert!(c < 50.0, "{} {} should converge in ms, got {c}", stack.label(), tc.label());
        }
    }
}

#[test]
fn fig5_blast_radius_two_pod_shapes() {
    // MR-MTP matches the paper exactly; our BGP counting lands one below
    // the paper's 9 for TC1/TC2 (see DESIGN.md §5) but preserves the
    // TC1/TC2 ≫ TC3/TC4 structure and the MR-MTP advantage.
    let mtp_tc1 = run(scenario(Stack::Mrmtp, FailureCase::Tc1, TrafficDir::None)).blast_radius;
    let mtp_tc3 = run(scenario(Stack::Mrmtp, FailureCase::Tc3, TrafficDir::None)).blast_radius;
    let bgp_tc1 = run(scenario(Stack::BgpEcmp, FailureCase::Tc1, TrafficDir::None)).blast_radius;
    let bgp_tc3 = run(scenario(Stack::BgpEcmp, FailureCase::Tc3, TrafficDir::None)).blast_radius;
    assert_eq!(mtp_tc1, 3, "paper Fig. 5");
    assert_eq!(mtp_tc3, 1, "paper Fig. 5");
    assert_eq!(bgp_tc3, 3, "paper Fig. 5");
    assert!((8..=9).contains(&bgp_tc1), "paper says 9; counting rule gives {bgp_tc1}");
    assert!(bgp_tc1 > mtp_tc1);
    assert!(bgp_tc3 > mtp_tc3);
}

#[test]
fn fig5_blast_radius_four_pod_shapes() {
    let base =
        |stack, tc| run(RunSpec::new(ClosParams::four_pod(), stack).failing(tc)).blast_radius;
    assert_eq!(base(Stack::Mrmtp, FailureCase::Tc1), 7);
    assert_eq!(base(Stack::Mrmtp, FailureCase::Tc4), 3);
    assert_eq!(base(Stack::BgpEcmp, FailureCase::Tc4), 5, "paper Fig. 5");
    assert!((14..=15).contains(&base(Stack::BgpEcmp, FailureCase::Tc1)));
}

#[test]
fn fig6_control_overhead_gap_and_scaling() {
    let mtp2 = run(scenario(Stack::Mrmtp, FailureCase::Tc1, TrafficDir::None)).control_bytes;
    let bgp2 = run(scenario(Stack::BgpEcmp, FailureCase::Tc1, TrafficDir::None)).control_bytes;
    let mtp4 = run(RunSpec::new(ClosParams::four_pod(), Stack::Mrmtp).failing(FailureCase::Tc1))
        .control_bytes;
    let bgp4 = run(RunSpec::new(ClosParams::four_pod(), Stack::BgpEcmp).failing(FailureCase::Tc1))
        .control_bytes;
    // Paper: 120→264 B for MR-MTP, 1023→2139 B for BGP (ours: ~133→285
    // and ~651→1395). The shape: BGP ≫ MR-MTP, and roughly 2× from 2-PoD
    // to 4-PoD for both.
    assert!(bgp2 >= 3 * mtp2, "bgp2={bgp2} mtp2={mtp2}");
    assert!(bgp4 >= 3 * mtp4, "bgp4={bgp4} mtp4={mtp4}");
    let mtp_growth = mtp4 as f64 / mtp2 as f64;
    let bgp_growth = bgp4 as f64 / bgp2 as f64;
    assert!((1.5..3.0).contains(&mtp_growth), "mtp growth {mtp_growth}");
    assert!((1.5..3.0).contains(&bgp_growth), "bgp growth {bgp_growth}");
    // Magnitudes near the paper's.
    assert!((60..=300).contains(&mtp2), "paper: 120 B; ours {mtp2}");
    assert!((400..=2200).contains(&bgp2), "paper: 1023 B; ours {bgp2}");
}

#[test]
fn fig7_loss_near_sender_ordering() {
    // Sender at rack 11 (close to the failures). TC2: the downstream
    // router (ToR₁₁) must time out ⇒ loss scales with the stack's
    // detection time. TC1: carrier-side reroute ⇒ near-zero loss.
    let l = |stack, tc| run(scenario(stack, tc, TrafficDir::NearToFar)).loss.unwrap().lost();
    let mtp_tc2 = l(Stack::Mrmtp, FailureCase::Tc2);
    let bfd_tc2 = l(Stack::BgpEcmpBfd, FailureCase::Tc2);
    let bgp_tc2 = l(Stack::BgpEcmp, FailureCase::Tc2);
    assert!(
        mtp_tc2 < bfd_tc2 && bfd_tc2 < bgp_tc2,
        "loss ordering: mtp={mtp_tc2} bfd={bfd_tc2} bgp={bgp_tc2}"
    );
    assert!(bgp_tc2 > 300, "≈2-3 s of ≈333 pkt/s: {bgp_tc2}");
    assert!(mtp_tc2 < 60, "≈100 ms of ≈333 pkt/s: {mtp_tc2}");
    for stack in Stack::ALL {
        assert!(l(stack, FailureCase::Tc1) <= 5, "TC1 is carrier-detected at the sender-side ToR");
    }
}

#[test]
fn fig8_loss_far_sender_flips_the_asymmetry() {
    // Sender at rack 14: now TC1/TC3 (whose timeout side forwards the
    // flow) hurt, while TC4's carrier side reroutes quickly.
    let l = |stack, tc| run(scenario(stack, tc, TrafficDir::FarToNear)).loss.unwrap().lost();
    let mtp_tc3 = l(Stack::Mrmtp, FailureCase::Tc3);
    let bgp_tc3 = l(Stack::BgpEcmp, FailureCase::Tc3);
    assert!(mtp_tc3 > 0, "far traffic pays the dead-timer for TC3");
    assert!(bgp_tc3 > mtp_tc3, "BGP pays the hold timer: {bgp_tc3} vs {mtp_tc3}");
    let mtp_tc4 = l(Stack::Mrmtp, FailureCase::Tc4);
    assert!(
        mtp_tc4 <= mtp_tc3,
        "TC4's carrier-side reroute beats TC3's timeout: {mtp_tc4} vs {mtp_tc3}"
    );
}

#[test]
fn fig9_keepalive_frame_sizes_match_captures() {
    use dcn_experiments::Timing;
    let steady =
        |stack| RunSpec::new(ClosParams::two_pod(), stack).seeded(5).timed(Timing::steady()).run();
    let mtp = steady(Stack::Mrmtp).keepalive;
    assert_eq!(mtp.avg_frame_len, 60.0, "1-byte hello in a minimum frame");
    let bgp = steady(Stack::BgpEcmp).keepalive;
    assert_eq!(bgp.avg_frame_len, 85.0, "Fig. 9's 85-byte BGP keepalive");
    let bfd = steady(Stack::BgpEcmpBfd).keepalive;
    // Mixed 66-byte BFD (10/s) and 85-byte BGP (1/s) frames.
    assert!((66.0..70.0).contains(&bfd.avg_frame_len), "BFD dominates: {}", bfd.avg_frame_len);
    assert!(bfd.frames > 5 * bgp.frames, "BFD at 100 ms vs BGP at 1 s");
}
