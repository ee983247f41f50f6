//! Fabric-wide invariants: the builder's wiring, pinned for every shape
//! the repository builds; under many concurrent flows, all-pairs
//! reachability for both stacks, hop-count bounds (loop freedom), and
//! MR-MTP's hello suppression under data load.

use std::fmt::Write as _;

use dcn_experiments::{build_sim, flows::pin_flow, Stack};
use dcn_sim::time::{millis, secs};
use dcn_sim::{FrameClass, NodeId, PortId, TraceEvent};
use dcn_topology::{ClosParams, Fabric, Zones};
use dcn_traffic::{SendSpec, TrafficHost};

/// [`dcn_sim::hash64`] of everything the builder decides: every node's
/// name, role and tier in index order, its port list in allocation order,
/// and every link in wiring order.
fn wiring_fingerprint(fabric: &Fabric) -> u64 {
    let mut text = String::new();
    for (node, ports) in fabric.nodes.iter().zip(&fabric.ports) {
        write!(text, "{} {:?} {}:", node.name, node.role, node.tier).unwrap();
        for p in ports {
            write!(text, " {}/{}/{:?}", p.link, p.peer, p.kind).unwrap();
        }
        text.push('\n');
    }
    for (a, b) in &fabric.links {
        writeln!(text, "{a}-{b}").unwrap();
    }
    dcn_sim::hash64(text.as_bytes())
}

/// Node indices, port numbers and link order are what the routers, the
/// VID derivation and every trace digest build on, so each shape built
/// anywhere in the repository has its wiring pinned: the paper's two
/// fabrics, the scaled ones either side of the one-ToR narrowing,
/// `asymmetric_shapes.rs`'s wide fabric, `walk_equals_wire.rs`'s 130-port
/// top spine, and the four-tier fabrics, even and uneven.
#[test]
fn wiring_is_pinned_for_every_shape() {
    let mut wide = ClosParams {
        pods: 3,
        spines_per_pod: 3,
        tors_per_pod: 3,
        uplinks_per_spine: 1,
        ..ClosParams::two_pod()
    };
    wide.servers_per_tor = 2;
    let wide_top = ClosParams {
        pods: 130,
        spines_per_pod: 1,
        tors_per_pod: 1,
        uplinks_per_spine: 1,
        ..ClosParams::two_pod()
    };
    let uneven = ClosParams {
        pods: 3,
        zones: Some(Zones { count: 3, uplinks: 1 }),
        ..ClosParams::four_tier()
    };
    let shapes = [
        ("two_pod", Fabric::build(ClosParams::two_pod()), 0x823a_9d99_e530_e670_u64),
        ("four_pod", Fabric::build(ClosParams::four_pod()), 0x2468_b964_d603_052a),
        ("scaled(16)", Fabric::build(ClosParams::scaled(16).unwrap()), 0x96c3_94e5_3f9b_3e9b),
        ("scaled(128)", Fabric::build(ClosParams::scaled(128).unwrap()), 0xbf10_925a_6210_c560),
        ("wide", Fabric::build(wide), 0xd11a_13f4_ef01_f103),
        ("wide_top", Fabric::build(wide_top), 0xce9c_bf7e_814b_616d),
        ("four-tier", Fabric::build(ClosParams::four_tier()), 0xd575_6a46_5e94_1374),
        ("four-tier uneven", Fabric::build(uneven), 0x74fd_3e56_f666_5a67),
    ];
    let mut got = String::new();
    for (label, fabric, _) in &shapes {
        writeln!(got, "{label} {:#018x}", wiring_fingerprint(fabric)).unwrap();
    }
    let want: String =
        shapes.iter().map(|(label, _, pin)| format!("{label} {pin:#018x}\n")).collect();
    assert_eq!(got, want);
}

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
        let report =
            built.sim.node_as::<TrafficHost>(NodeId(receiver as u32)).unwrap().report(sent);
        assert_eq!(report.lost(), 0, "{}: flow {i} lost packets: {report:?}", stack.label());
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
