//! Cross-crate integration: failure *recovery* (interface comes back) and
//! bit-level determinism of whole scenarios.

use dcn_bgp::BgpRouter;
use dcn_experiments::{build_sim, Stack};
use dcn_mrmtp::MrmtpRouter;
use dcn_sim::time::secs;
use dcn_sim::{NodeId, PortId};
use dcn_topology::{ClosParams, FailureCase};

#[test]
fn mrmtp_full_fail_recover_cycle_restores_all_state() {
    let mut built = build_sim(ClosParams::two_pod(), Stack::Mrmtp, 7, &[]);
    built.sim.run_until(secs(2));
    let (node, port) = built.fabric.failure_point(FailureCase::Tc2);
    built.sim.schedule_port_down(secs(3), NodeId(node as u32), PortId(port as u16));
    built.sim.schedule_port_up(secs(5), NodeId(node as u32), PortId(port as u16));
    built.sim.run_until(secs(9));
    // Every top spine again holds one VID per ToR and no negatives remain
    // anywhere.
    for k in 0..4 {
        let t = built.mrmtp(built.fabric.top_spine(k));
        assert_eq!(t.vid_table().own_entry_count(), 4, "{}", t.name());
    }
    for r in built.fabric.routers() {
        let router = built.mrmtp(r);
        assert_eq!(
            router.vid_table().negative_entry_count(),
            0,
            "{} still has negatives:\n{}",
            router.name(),
            router.render_table()
        );
    }
}

#[test]
fn bgp_full_fail_recover_cycle_restores_all_routes() {
    let mut built = build_sim(ClosParams::two_pod(), Stack::BgpEcmp, 7, &[]);
    built.sim.run_until(secs(5));
    let (node, port) = built.fabric.failure_point(FailureCase::Tc1);
    built.sim.schedule_port_down(secs(6), NodeId(node as u32), PortId(port as u16));
    built.sim.schedule_port_up(secs(10), NodeId(node as u32), PortId(port as u16));
    built.sim.run_until(secs(18));
    for r in built.fabric.routers() {
        let router = built.bgp(r);
        let reachable = router.rib().learned_prefixes().len() + router.rib().local_prefixes().len();
        assert_eq!(reachable, 4, "{} must again reach all racks", router.name());
    }
    // And the failed session itself is back.
    let tor = built.bgp(built.fabric.tor(0, 0));
    assert_eq!(tor.established_sessions(), 2);
}

#[test]
fn bfd_guarded_sessions_also_recover() {
    let mut built = build_sim(ClosParams::two_pod(), Stack::BgpEcmpBfd, 7, &[]);
    built.sim.run_until(secs(5));
    let (node, port) = built.fabric.failure_point(FailureCase::Tc4);
    built.sim.schedule_port_down(secs(6), NodeId(node as u32), PortId(port as u16));
    built.sim.schedule_port_up(secs(8), NodeId(node as u32), PortId(port as u16));
    built.sim.run_until(secs(14));
    let top = built.bgp(built.fabric.top_spine(0));
    assert_eq!(top.established_sessions(), 2, "T-1's sessions are back");
}

#[test]
fn identical_seeds_give_identical_traces_and_stats() {
    let run_once = |seed: u64| {
        let mut built = build_sim(ClosParams::two_pod(), Stack::Mrmtp, seed, &[]);
        built.sim.run_until(secs(2));
        let (node, port) = built.fabric.failure_point(FailureCase::Tc1);
        built.sim.schedule_port_down(secs(3), NodeId(node as u32), PortId(port as u16));
        built.sim.run_until(secs(5));
        let events = built.sim.trace().len();
        let frames = built.sim.frames_delivered();
        let stats: Vec<u64> = built
            .fabric
            .routers()
            .map(|r| {
                let s = built.sim.node_as::<MrmtpRouter>(NodeId(r as u32)).unwrap().stats();
                s.hellos_sent + 1000 * s.updates_sent + 100_000 * s.negatives_installed
            })
            .collect();
        (events, frames, stats)
    };
    assert_eq!(run_once(1234), run_once(1234));
    // Different seed: still functionally converged, possibly different
    // event interleavings.
    let (_, frames_a, _) = run_once(1);
    assert!(frames_a > 0);
}

#[test]
fn bgp_determinism_across_runs() {
    let run_once = |seed: u64| {
        let mut built = build_sim(ClosParams::two_pod(), Stack::BgpEcmp, seed, &[]);
        built.sim.run_until(secs(6));
        let stats: Vec<(u64, u64)> = built
            .fabric
            .routers()
            .map(|r| {
                let s = built.sim.node_as::<BgpRouter>(NodeId(r as u32)).unwrap().stats();
                (s.updates_sent, s.keepalives_sent)
            })
            .collect();
        (built.sim.trace().len(), stats)
    };
    assert_eq!(run_once(99), run_once(99));
}
