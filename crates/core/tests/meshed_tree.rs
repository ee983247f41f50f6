//! Integration tests: MR-MTP on the paper's folded-Clos fabrics.
//!
//! These tests exercise the full protocol on the emulator: tree
//! construction (validated against the paper's Fig. 2 VID tables),
//! end-to-end data forwarding, and the failure semantics behind the
//! paper's Fig. 5 blast-radius numbers.

use std::any::Any;

use dcn_mrmtp::{MrmtpConfig, MrmtpRouter, TorConfig};
use dcn_sim::time::{millis, secs};
use dcn_sim::{Ctx, FrameBuf, FrameClass, NodeId, PortId, Protocol, Sim, SimBuilder, TraceEvent};
use dcn_sim::link::LinkSpec;
use dcn_topology::{Addressing, ClosParams, Fabric, FailureCase, Role};
use dcn_wire::{
    EtherType, EthernetFrame, IpAddr4, Ipv4Packet, MacAddr, UdpDatagram, Vid, IPPROTO_UDP,
};

/// A minimal server: sends one UDP packet at a scheduled time, records
/// every IPv4 packet it receives.
struct TestHost {
    ip: IpAddr4,
    /// Set any time before the send instant; the host polls on a tick so
    /// it can be configured after the simulation has started running.
    send_at: Option<(u64, IpAddr4)>,
    sent: bool,
    received: Vec<IpAddr4>, // source addresses
}

impl TestHost {
    fn new(ip: IpAddr4) -> TestHost {
        TestHost { ip, send_at: None, sent: false, received: Vec::new() }
    }
}

const HOST_TICK: u64 = millis(10);

impl Protocol for TestHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(HOST_TICK, 1);
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, frame: &FrameBuf) {
        let Ok(eth) = EthernetFrame::decode(frame) else { return };
        if eth.ethertype != EtherType::Ipv4 {
            return;
        }
        if let Ok(pkt) = Ipv4Packet::decode(&eth.payload) {
            if pkt.dst == self.ip {
                self.received.push(pkt.src);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.set_timer(HOST_TICK, 1);
        let Some((at, dst)) = self.send_at else { return };
        if self.sent || ctx.now() < at {
            return;
        }
        self.sent = true;
        let udp = UdpDatagram::new(5000, 6000, vec![0xAB; 64]);
        let pkt = Ipv4Packet::new(self.ip, dst, IPPROTO_UDP, udp.encode());
        let frame = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::for_node_port(ctx.node().0, 0),
            ethertype: EtherType::Ipv4,
            payload: pkt.encode(),
        };
        ctx.send(PortId(0), frame.encode(), FrameClass::Data);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Build an emulation of `params` running MR-MTP everywhere. Returns the
/// sim plus the fabric (node index == NodeId index).
fn build(params: ClosParams, seed: u64) -> (Sim, Fabric) {
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let mut b = SimBuilder::new(seed);
    for (i, node) in fabric.nodes.iter().enumerate() {
        let proto: Box<dyn Protocol> = match node.role {
            Role::Tor { .. } => {
                let rack = addr.rack_subnet(i).unwrap();
                let mut host_ports = Vec::new();
                for (pi, pr) in fabric.ports[i].iter().enumerate() {
                    if matches!(pr.kind, dcn_topology::PortKind::Host) {
                        let s = host_ports.len();
                        host_ports.push((addr.server_addr(i, s).unwrap(), PortId(pi as u16)));
                    }
                }
                Box::new(MrmtpRouter::new(
                    MrmtpConfig::tor(node.name.clone(), TorConfig { rack_subnet: rack, host_ports }),
                    fabric.ports[i].len(),
                ))
            }
            Role::PodSpine { .. } | Role::ZoneSpine { .. } | Role::TopSpine { .. } => {
                Box::new(MrmtpRouter::new(
                    MrmtpConfig::spine(node.name.clone(), node.tier),
                    fabric.ports[i].len(),
                ))
            }
            Role::Server { pod, tor_idx, idx } => {
                let tor = fabric.tor(pod, tor_idx);
                Box::new(TestHost::new(addr.server_addr(tor, idx).unwrap()))
            }
        };
        b.add_node(node.name.clone(), proto);
    }
    for &(a, bn) in &fabric.links {
        b.add_link(NodeId(a as u32), NodeId(bn as u32), LinkSpec::default());
    }
    (b.build(), fabric)
}

fn vids_of(sim: &Sim, node: usize) -> Vec<String> {
    let r: &MrmtpRouter = sim.node_as(NodeId(node as u32)).unwrap();
    let mut v: Vec<String> = r
        .vid_table()
        .roots()
        .flat_map(|root| r.vid_table().vids_for(root).iter().map(|o| o.vid.to_string()))
        .collect();
    v.sort();
    v
}

#[test]
fn fig2_vid_tables_emerge() {
    let (mut sim, f) = build(ClosParams::two_pod(), 1);
    sim.run_until(secs(2));

    // Tier-2 spines: one VID per ToR in their PoD (Fig. 2).
    assert_eq!(vids_of(&sim, f.pod_spine(0, 0)), vec!["11.1", "12.1"]);
    assert_eq!(vids_of(&sim, f.pod_spine(0, 1)), vec!["11.2", "12.2"]);
    assert_eq!(vids_of(&sim, f.pod_spine(1, 0)), vec!["13.1", "14.1"]);
    assert_eq!(vids_of(&sim, f.pod_spine(1, 1)), vec!["13.2", "14.2"]);

    // Top spines: one VID per ToR in the fabric, matching Fig. 2's tables.
    assert_eq!(
        vids_of(&sim, f.top_spine(0)),
        vec!["11.1.1", "12.1.1", "13.1.1", "14.1.1"]
    );
    assert_eq!(
        vids_of(&sim, f.top_spine(1)),
        vec!["11.2.1", "12.2.1", "13.2.1", "14.2.1"]
    );
    assert_eq!(
        vids_of(&sim, f.top_spine(2)),
        vec!["11.1.2", "12.1.2", "13.1.2", "14.1.2"]
    );
    assert_eq!(
        vids_of(&sim, f.top_spine(3)),
        vec!["11.2.2", "12.2.2", "13.2.2", "14.2.2"]
    );

    // ToRs acquire nothing: they are roots.
    let tor: &MrmtpRouter = sim.node_as(NodeId(f.tor(0, 0) as u32)).unwrap();
    assert_eq!(tor.vid_table().own_entry_count(), 0);
    assert_eq!(tor.root_vid(), Some(Vid::root(11)));
}

#[test]
fn four_pod_top_spines_hold_all_eight_trees() {
    let (mut sim, f) = build(ClosParams::four_pod(), 1);
    sim.run_until(secs(2));
    for k in 0..4 {
        let r: &MrmtpRouter = sim.node_as(NodeId(f.top_spine(k) as u32)).unwrap();
        assert_eq!(
            r.vid_table().own_entry_count(),
            8,
            "T-{} must hold one VID per ToR",
            k + 1
        );
        // Listing 5: two VIDs (one per rack) per down-port.
        let rendered = r.render_table();
        assert_eq!(rendered.lines().count(), 4, "4 ports: {rendered}");
    }
}

#[test]
fn data_forwards_between_far_racks() {
    let (mut sim, f) = build(ClosParams::two_pod(), 1);
    // H-1-1-1 (192.168.11.1) → H-2-2-1 (192.168.14.1), after warmup.
    let src = f.server(0, 0, 0);
    let dst_ip = IpAddr4::new(192, 168, 14, 1);
    {
        let h: &mut TestHost = sim.node_as_mut(NodeId(src as u32)).unwrap();
        h.send_at = Some((secs(2), dst_ip));
    }
    sim.run_until(secs(3));
    let dst = f.server(1, 1, 0);
    let h: &mut TestHost = sim.node_as_mut(NodeId(dst as u32)).unwrap();
    assert_eq!(h.received, vec![IpAddr4::new(192, 168, 11, 1)]);
}

#[test]
fn data_forwards_within_pod_and_within_rack() {
    let (mut sim, f) = build(ClosParams::two_pod(), 3);
    // Same PoD, different rack: 11 → 12.
    {
        let h: &mut TestHost = sim.node_as_mut(NodeId(f.server(0, 0, 0) as u32)).unwrap();
        h.send_at = Some((secs(2), IpAddr4::new(192, 168, 12, 1)));
    }
    sim.run_until(secs(3));
    let h: &TestHost = sim.node_as(NodeId(f.server(0, 1, 0) as u32)).unwrap();
    assert_eq!(h.received.len(), 1, "intra-PoD delivery");
}

/// Distinct routers recording destination-routing changes after `t0` —
/// the paper's blast-radius metric.
fn blast_radius(sim: &Sim, t0: u64) -> usize {
    let mut nodes: Vec<u32> = sim
        .trace()
        .events_since(t0)
        .filter_map(|e| match e {
            TraceEvent::RouteChange { node, .. } => Some(node.0),
            _ => None,
        })
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.len()
}

fn blast_for(params: ClosParams, tc: FailureCase) -> usize {
    let (mut sim, f) = build(params, 7);
    sim.run_until(secs(3));
    let (node, port) = f.failure_point(tc);
    let t0 = secs(3);
    sim.schedule_port_down(t0, NodeId(node as u32), PortId(port as u16));
    sim.run_until(secs(5));
    blast_radius(&sim, t0)
}

#[test]
fn blast_radius_two_pod_matches_fig5() {
    assert_eq!(blast_for(ClosParams::two_pod(), FailureCase::Tc1), 3);
    assert_eq!(blast_for(ClosParams::two_pod(), FailureCase::Tc2), 3);
    assert_eq!(blast_for(ClosParams::two_pod(), FailureCase::Tc3), 1);
    assert_eq!(blast_for(ClosParams::two_pod(), FailureCase::Tc4), 1);
}

#[test]
fn blast_radius_four_pod_matches_fig5() {
    assert_eq!(blast_for(ClosParams::four_pod(), FailureCase::Tc1), 7);
    assert_eq!(blast_for(ClosParams::four_pod(), FailureCase::Tc2), 7);
    assert_eq!(blast_for(ClosParams::four_pod(), FailureCase::Tc3), 3);
    assert_eq!(blast_for(ClosParams::four_pod(), FailureCase::Tc4), 3);
}

#[test]
fn traffic_reroutes_after_upstream_failure() {
    // TC4 with continuous traffic 14 → 11: the flow initially transits
    // S1_3 → T-1 → S-1-1; after T-1's downlink dies the negative entry at
    // S1_3 steers it through T-3.
    let (mut sim, f) = build(ClosParams::two_pod(), 5);
    sim.run_until(secs(2));
    let (node, port) = f.failure_point(FailureCase::Tc4);
    sim.schedule_port_down(secs(3), NodeId(node as u32), PortId(port as u16));
    // Send one packet well after reconvergence.
    {
        let h: &mut TestHost = sim.node_as_mut(NodeId(f.server(1, 1, 0) as u32)).unwrap();
        h.send_at = Some((secs(4), IpAddr4::new(192, 168, 11, 1)));
    }
    sim.run_until(secs(5));
    let h: &TestHost = sim.node_as(NodeId(f.server(0, 0, 0) as u32)).unwrap();
    assert_eq!(h.received.len(), 1, "post-failure delivery via surviving plane");
    // S1_3 (the PoD-2 spine on the failed plane) must hold the negatives.
    let s13: &MrmtpRouter = sim.node_as(NodeId(f.pod_spine(1, 0) as u32)).unwrap();
    assert_eq!(s13.vid_table().negative_entry_count(), 2, "roots 11 and 12");
}

#[test]
fn recovery_clears_negatives_and_restores_vids() {
    let (mut sim, f) = build(ClosParams::two_pod(), 9);
    sim.run_until(secs(2));
    let (node, port) = f.failure_point(FailureCase::Tc4);
    sim.schedule_port_down(secs(3), NodeId(node as u32), PortId(port as u16));
    sim.schedule_port_up(secs(4), NodeId(node as u32), PortId(port as u16));
    sim.run_until(secs(7));
    let t1: &MrmtpRouter = sim.node_as(NodeId(f.top_spine(0) as u32)).unwrap();
    assert_eq!(
        t1.vid_table().own_entry_count(),
        4,
        "T-1 re-acquired PoD-1 trees: {}",
        t1.render_table()
    );
    let s13: &MrmtpRouter = sim.node_as(NodeId(f.pod_spine(1, 0) as u32)).unwrap();
    assert_eq!(
        s13.vid_table().negative_entry_count(),
        0,
        "negatives cleared on recovery: {}",
        s13.render_table()
    );
}

#[test]
fn steady_state_is_hellos_only() {
    let (mut sim, _f) = build(ClosParams::two_pod(), 11);
    sim.run_until(secs(2));
    // After convergence, a further window must contain no Update frames
    // (the paper: all steady-state traffic is 1-byte keep-alives).
    let t0 = secs(2);
    sim.run_until(secs(4));
    let updates = sim
        .trace()
        .events_since(t0)
        .filter(|e| {
            matches!(
                e,
                TraceEvent::FrameSent { class: FrameClass::Update, .. }
            )
        })
        .count();
    assert_eq!(updates, 0, "no updates in steady state");
    let keepalives = sim
        .trace()
        .events_since(t0)
        .filter(|e| {
            matches!(
                e,
                TraceEvent::FrameSent { class: FrameClass::Keepalive, wire_len: 60, .. }
            )
        })
        .count();
    assert!(keepalives > 500, "hellos flow on every link: {keepalives}");
}

/// Regression for the carrier side channel the deadline-driven tick must
/// honor: `ctx.port(p).up` flips at the admin event, 500 µs before
/// `on_port_up` tells the router. A hello that fell overdue while its
/// port was down must therefore stay due — the router keeps waking on
/// every grid instant — so that when the port is re-enabled 200 µs
/// before a grid instant, the hello leaves at that instant (as it did
/// under the polling tick), not only at the carrier callback 300 µs
/// later.
#[test]
fn overdue_hello_leaves_at_the_first_grid_instant_after_admin_up() {
    let (mut sim, f) = build(ClosParams::two_pod(), 5);
    sim.run_until(secs(1));
    let (node, port) = f.failure_point(FailureCase::Tc1);
    let (node, port) = (NodeId(node as u32), PortId(port as u16));
    let hellos_since = |sim: &Sim, t0: u64| -> Vec<u64> {
        sim.trace()
            .events_since(t0)
            .filter_map(|e| match *e {
                TraceEvent::FrameSent { time, node: n, port: p, class: FrameClass::Keepalive, .. }
                    if n == node && p == port =>
                {
                    Some(time)
                }
                _ => None,
            })
            .collect()
    };
    // Steady-state hellos leave from the tick, so the latest one marks
    // the router's (jittered) 5 ms grid.
    let last_hello = *hellos_since(&sim, 0).last().expect("hellos flow in steady state");
    // 63 ticks on: a grid instant at which no other port's hello is due
    // (those repeat every 10 ticks), so nothing else wakes the router.
    let grid_instant = last_hello + 63 * millis(5);
    let down_at = grid_instant - millis(151);
    sim.schedule_port_down(down_at, node, port);
    sim.schedule_port_up(grid_instant - 200_000, node, port);
    sim.run_until(grid_instant + millis(1));
    assert_eq!(
        hellos_since(&sim, down_at),
        vec![grid_instant, grid_instant + 300_000],
        "one hello from the tick at the grid instant, one from on_port_up"
    );
}
