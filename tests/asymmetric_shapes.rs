//! Generality beyond the paper's 2-wide fabrics: wider ECMP fan-outs,
//! more racks per PoD, multiple servers per rack. Exercises VID port
//! labels above 2 and ECMP widths above 2 on both stacks.

use dcn_experiments::{build_sim, flows::pin_flow, run, RunSpec, Stack, TrafficDir};
use dcn_mrmtp::MrmtpRouter;
use dcn_sim::time::{millis, secs};
use dcn_sim::NodeId;
use dcn_topology::{ClosParams, FailureCase};
use dcn_traffic::{SendSpec, TrafficHost};

/// Three spines per PoD, three racks, one uplink each → 3 top spines,
/// 3-wide ECMP at the ToRs.
fn wide() -> ClosParams {
    ClosParams {
        pods: 3,
        spines_per_pod: 3,
        tors_per_pod: 3,
        uplinks_per_spine: 1,
        servers_per_tor: 2,
        zones: None,
    }
}

#[test]
fn wide_fabric_builds_trees_with_high_port_labels() {
    let params = wide();
    let mut built = build_sim(params, Stack::Mrmtp, 4, &[]);
    built.sim.run_until(secs(3));
    // Each top spine holds one VID per ToR (9 racks).
    for k in 0..3 {
        let t: &MrmtpRouter = built.mrmtp(built.fabric.top_spine(k));
        assert_eq!(t.vid_table().own_entry_count(), 9, "{}", t.render_table());
    }
    // A third spine's VIDs use port label 3 (11.3, 12.3, 13.3).
    let s3 = built.mrmtp(built.fabric.pod_spine(0, 2));
    let rendered = s3.render_table();
    assert!(rendered.contains("11.3"), "port label 3: {rendered}");
}

#[test]
fn wide_fabric_delivers_between_second_servers() {
    let params = wide();
    let fabric = dcn_topology::Fabric::build(params);
    let addr = dcn_topology::Addressing::new(&fabric);
    // Second server of rack 11 → second server of the last rack.
    let src = fabric.server(0, 0, 1);
    let dst = fabric.server(2, 2, 1);
    let dst_ip = addr.server_addr(fabric.tor(2, 2), 1).unwrap();
    assert_eq!(dst_ip.to_string(), "192.168.19.2");
    let mut spec = SendSpec::new(dst_ip, secs(3), secs(4));
    spec.count = 50;
    spec.interval = millis(5);
    let mut built = build_sim(params, Stack::Mrmtp, 4, &[(src, spec)]);
    built.sim.run_until(secs(5));
    let report = built
        .sim
        .node_as::<TrafficHost>(NodeId(dst as u32))
        .unwrap()
        .report(built.host(src).sent());
    assert_eq!(report.lost(), 0, "{report:?}");
}

#[test]
fn wide_fabric_failure_metrics_stay_sane() {
    // With 3-wide ECMP, losing one of three planes leaves two: blast
    // radius logic and pinning generalize.
    for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
        let mut s = RunSpec::new(wide(), stack)
            .failing(FailureCase::Tc1)
            .with_traffic(TrafficDir::NearToFar)
            .seeded(6);
        s.timing.post_failure = secs(4);
        let r = run(s);
        assert!(r.convergence_ms.is_some(), "{}", stack.label());
        assert!(r.blast_radius >= 1);
        let loss = r.loss.unwrap();
        assert!(
            loss.lost() < loss.sent / 2,
            "{}: flow recovers on surviving planes: {loss:?}",
            stack.label()
        );
    }
}

#[test]
fn pinning_works_for_three_wide_ecmp() {
    let a = dcn_wire::IpAddr4::new(192, 168, 11, 1);
    let b = dcn_wire::IpAddr4::new(192, 168, 19, 1);
    let (sp, dp) = pin_flow(a, b, &[3, 1]);
    let h = dcn_wire::flow_hash(a, b, dcn_wire::IPPROTO_UDP, sp, dp);
    assert_eq!(dcn_wire::ecmp_index(h, 3), 0);
    let _ = dp;
}
