//! Fabric-wide invariants under many concurrent flows: all-pairs
//! reachability for both stacks, hop-count bounds (loop freedom), and
//! MR-MTP's hello suppression under data load.

use dcn_experiments::{build_sim, flows::pin_flow, Stack};
use dcn_sim::time::{millis, secs};
use dcn_sim::{FrameClass, NodeId, PortId, TraceEvent};
use dcn_topology::{ClosParams, Fabric};
use dcn_traffic::{SendSpec, TrafficHost};

/// Every server sends to the "next" server (a full cycle over all racks):
/// everything must arrive on a healthy fabric, for both protocol stacks.
fn all_pairs_cycle(stack: Stack) {
    let params = ClosParams::four_pod();
    let fabric = Fabric::build(params);
    let addr = dcn_topology::Addressing::new(&fabric);
    let servers: Vec<usize> = (0..params.pods)
        .flat_map(|p| (0..params.tors_per_pod).map(move |t| (p, t)))
        .map(|(p, t)| fabric.server(p, t, 0))
        .collect();
    let ips: Vec<_> = (0..params.pods)
        .flat_map(|p| (0..params.tors_per_pod).map(move |t| (p, t)))
        .map(|(p, t)| addr.server_addr(fabric.tor(p, t), 0).unwrap())
        .collect();
    let mut senders = Vec::new();
    for (i, &node) in servers.iter().enumerate() {
        let dst = ips[(i + 3) % ips.len()]; // skip-3 cycle crosses PoDs
        let mut spec = SendSpec::new(dst, secs(5), secs(7));
        spec.interval = millis(10);
        spec.count = 100;
        // Spread over the fabric rather than pinning to one chain.
        spec.src_port = 5000 + i as u16;
        senders.push((node, spec));
    }
    let mut built = build_sim(params, stack, 21, &senders);
    built.sim.run_until(secs(9));
    for (i, &node) in servers.iter().enumerate() {
        let sent = built.host(node).sent();
        assert_eq!(sent, 100, "sender {i} finished");
        let receiver = servers[(i + 3) % servers.len()];
        let report = built
            .sim
            .node_as::<TrafficHost>(NodeId(receiver as u32))
            .unwrap()
            .report(sent);
        assert_eq!(
            report.lost(),
            0,
            "{}: flow {i} lost packets: {report:?}",
            stack.label()
        );
        assert_eq!(report.duplicates, 0, "no duplication on a healthy fabric");
        assert_eq!(report.out_of_order, 0, "single-path flows stay ordered");
    }
}

#[test]
fn all_pairs_reachable_mrmtp() {
    all_pairs_cycle(Stack::Mrmtp);
}

#[test]
fn all_pairs_reachable_bgp() {
    all_pairs_cycle(Stack::BgpEcmp);
}

/// Loop freedom, observably: the total number of data-plane forwarding
/// operations per delivered packet is bounded by the fabric diameter
/// (ToR → spine → top → spine → ToR = at most 4 router-to-router hops +
/// 1 rack delivery). A forwarding loop would blow well past this.
#[test]
fn mrmtp_hop_count_is_diameter_bounded() {
    let params = ClosParams::two_pod();
    let fabric = Fabric::build(params);
    let addr = dcn_topology::Addressing::new(&fabric);
    let src = fabric.server(0, 0, 0);
    let dst_ip = addr.server_addr(fabric.tor(1, 1), 0).unwrap();
    let src_ip = addr.server_addr(fabric.tor(0, 0), 0).unwrap();
    let (sp, dp) = pin_flow(src_ip, dst_ip, &[2, 2]);
    let mut spec = SendSpec::new(dst_ip, secs(3), secs(4));
    spec.count = 500;
    spec.interval = millis(2);
    spec.src_port = sp;
    spec.dst_port = dp;
    let mut built = build_sim(params, Stack::Mrmtp, 33, &[(src, spec)]);
    built.sim.run_until(secs(5));
    assert_eq!(built.counter_total("data_delivered"), 500, "all packets handed to the server");
    // Cross-PoD path: ToR encap + 3 transit forwards = 4 forwarding ops.
    assert_eq!(
        built.counter_total("data_forwarded"),
        500 * 4,
        "exactly diameter-many forwards per packet (no loops, no detours)"
    );
}

/// The paper's §IV-B economy: under data load, MR-MTP hellos vanish from
/// the loaded link but persist on idle links.
#[test]
fn hellos_are_suppressed_only_on_loaded_links() {
    let params = ClosParams::two_pod();
    let fabric = Fabric::build(params);
    let addr = dcn_topology::Addressing::new(&fabric);
    let src = fabric.server(0, 0, 0);
    let src_ip = addr.server_addr(fabric.tor(0, 0), 0).unwrap();
    let dst_ip = addr.server_addr(fabric.tor(1, 1), 0).unwrap();
    let (sp, dp) = pin_flow(src_ip, dst_ip, &[2, 2]);
    let mut spec = SendSpec::new(dst_ip, secs(3), secs(6));
    spec.src_port = sp;
    spec.dst_port = dp;
    let mut built = build_sim(params, Stack::Mrmtp, 8, &[(src, spec)]);
    built.sim.run_until(secs(6));
    let tor = built.fabric.tor(0, 0);
    let count_hellos = |port: u16| {
        built
            .sim
            .trace()
            .events_since(secs(4))
            .filter(|e| {
                matches!(e, TraceEvent::FrameSent { time, node, port: p, class: FrameClass::Keepalive, .. }
                    if *time < secs(6) && *node == NodeId(tor as u32) && *p == PortId(port))
            })
            .count()
    };
    // Port 0 carries the pinned 333 pkt/s flow: zero explicit hellos.
    assert_eq!(count_hellos(0), 0, "loaded link needs no hellos");
    // Port 1 (the idle uplink) still hellos at 20/s.
    let idle = count_hellos(1);
    assert!((30..=50).contains(&idle), "idle link hellos ≈ 40 in 2 s: {idle}");
}
