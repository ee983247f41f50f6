//! Integration: the §IX multi-tier extension. MR-MTP's VID scheme and
//! BGP's ASN plan both generalize to a four-tier (zoned) folded-Clos
//! without protocol changes — exactly the scaling claim the paper makes
//! for MR-MTP ("the scheme can easily scale to any number of spine
//! tiers").

use dcn_experiments::{build_fabric_sim_cfg, BuiltSim, Stack, StackTuning};
use dcn_mrmtp::MrmtpRouter;
use dcn_sim::time::secs;
use dcn_sim::{NodeId, PortId, SimConfig};
use dcn_topology::{Fabric, FailureCase, FourTierParams, PortKind};
use dcn_traffic::{SendSpec, TrafficHost};

/// The four-tier fabric under the paper's default timers and engine.
fn four_tier_sim(
    p4: FourTierParams,
    stack: Stack,
    seed: u64,
    senders: &[(usize, SendSpec)],
) -> BuiltSim {
    let fabric = Fabric::build_four_tier(p4);
    build_fabric_sim_cfg(fabric, stack, seed, senders, StackTuning::default(), SimConfig::default())
}

#[test]
fn mrmtp_builds_depth_four_meshed_trees() {
    let p4 = FourTierParams::small();
    let mut built = four_tier_sim(p4, Stack::Mrmtp, 1, &[]);
    built.sim.run_until(secs(3));
    // Zone spines hold one VID per ToR in their zone (4 racks/zone).
    let zs = built.mrmtp(built.fabric.zone_spine(0, 0));
    assert_eq!(zs.vid_table().own_entry_count(), 4, "{}", zs.render_table());
    // Top spines hold one depth-4 VID per ToR in the whole fabric.
    for k in 0..built.fabric.top_spine_count() {
        let t: &MrmtpRouter = built.mrmtp(built.fabric.top_spine(k));
        assert_eq!(t.vid_table().own_entry_count(), 8, "{}", t.name());
        for root in 11..19u8 {
            let vids = t.vid_table().vids_for(root);
            assert_eq!(vids.len(), 1);
            assert_eq!(vids[0].vid.depth(), 4, "depth-4 VID: {}", vids[0].vid);
        }
    }
}

#[test]
fn mrmtp_forwards_across_zones() {
    let p4 = FourTierParams::small();
    let fabric = dcn_topology::Fabric::build_four_tier(p4);
    let addr = dcn_topology::Addressing::new(&fabric);
    // Rack 11 (zone 1) → last rack (zone 2): must traverse all 4 tiers.
    let src = fabric.server(0, 0, 0);
    let dst_tor = fabric.tor(p4.pods() - 1, p4.tors_per_pod - 1);
    let dst_ip = addr.server_addr(dst_tor, 0).unwrap();
    let mut spec = SendSpec::new(dst_ip, secs(3), secs(4));
    spec.count = 200;
    let mut built = four_tier_sim(p4, Stack::Mrmtp, 1, &[(src, spec)]);
    built.sim.run_until(secs(5));
    let sent = built.host(src).sent();
    assert_eq!(sent, 200);
    let dst = fabric.server(p4.pods() - 1, p4.tors_per_pod - 1, 0);
    let report = built
        .sim
        .node_as::<TrafficHost>(NodeId(dst as u32))
        .unwrap()
        .report(sent);
    assert_eq!(report.lost(), 0, "cross-zone delivery: {report:?}");
}

#[test]
fn bgp_converges_on_four_tiers() {
    let p4 = FourTierParams::small();
    let mut built = four_tier_sim(p4, Stack::BgpEcmp, 1, &[]);
    built.sim.run_until(secs(6));
    for r in built.fabric.routers() {
        let router = built.bgp(r);
        let expected_sessions = built.fabric.ports[r]
            .iter()
            .filter(|p| !matches!(p.kind, PortKind::Host))
            .count();
        assert_eq!(
            router.established_sessions(),
            expected_sessions,
            "{}",
            router.name()
        );
        let reach = router.rib().learned_prefixes().len() + router.rib().local_prefixes().len();
        assert_eq!(reach, 8, "{} must reach all racks", router.name());
    }
}

#[test]
fn four_tier_failures_stay_contained() {
    // TC4 now fails Z-1-1's downlink to S-1-1. MR-MTP: Z-1-1 loses PoD-1
    // roots via that port but still holds them? No — one downlink per
    // PoD, so the roots are gone; the loss propagates to the *other*
    // PoD-1-adjacent spines in zone 1 only. The rest of the fabric
    // (other zone!) is untouched.
    let p4 = FourTierParams::small();
    let mut built = four_tier_sim(p4, Stack::Mrmtp, 3, &[]);
    built.sim.run_until(secs(3));
    let (node, port) = built.fabric.failure_point(FailureCase::Tc4);
    built
        .sim
        .schedule_port_down(secs(3), NodeId(node as u32), PortId(port as u16));
    built.sim.run_until(secs(5));
    let affected = dcn_metrics::blast_radius(built.sim.trace(), secs(3));
    let routers = built.fabric.num_routers();
    assert!(
        affected > 0 && affected <= 4,
        "zone-local containment: {affected} of {routers} routers"
    );
    // Zone 2's spines saw nothing.
    for m in 0..p4.zone_width() {
        let zs = built.mrmtp(built.fabric.zone_spine(1, m));
        assert_eq!(
            zs.vid_table().negative_entry_count(),
            0,
            "{} is outside the blast radius",
            zs.name()
        );
    }
}
