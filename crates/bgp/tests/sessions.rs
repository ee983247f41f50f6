//! Integration tests: BGP session mechanics on small hand-wired
//! emulations (session FSM over real TCP frames, route exchange, AS-path
//! loop rejection, hold-timer behavior, ECMP spreading).

use dcn_bgp::{BgpConfig, BgpRouter, PeerConfig};
use dcn_sim::link::LinkSpec;
use dcn_sim::time::{millis, secs};
use dcn_sim::{PortId, SimBuilder};
use dcn_wire::{BgpMessage, BgpUpdate, EthernetFrame, IpAddr4, Ipv4Packet, Prefix, TcpSegment};

fn ip(last: u8) -> IpAddr4 {
    IpAddr4::new(172, 16, 0, last)
}

fn rack(third: u8) -> Prefix {
    Prefix::new(IpAddr4::new(192, 168, third, 0), 24)
}

fn peer(port: u16, local: u8, remote: u8, peer_asn: u32) -> PeerConfig {
    PeerConfig { port: PortId(port), local_ip: ip(local), peer_ip: ip(remote), peer_asn }
}

/// Two routers on one link: A originates a prefix, B must learn it.
#[test]
fn two_routers_establish_and_exchange() {
    let mut b = SimBuilder::new(1);
    let ra = BgpRouter::new(
        BgpConfig::new("A", 65001, 1).peer(peer(0, 1, 2, 65002)).originating(rack(11)),
    );
    let rb = BgpRouter::new(BgpConfig::new("B", 65002, 2).peer(peer(0, 2, 1, 65001)));
    let a = b.add_node("A", Box::new(ra));
    let c = b.add_node("B", Box::new(rb));
    b.add_link(a, c, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(secs(4));
    let rb: &BgpRouter = sim.node_as(c).unwrap();
    assert_eq!(rb.established_sessions(), 1);
    let members = rb.rib().members(rack(11));
    assert_eq!(members.len(), 1);
    assert_eq!(members[0].as_path[..], [65001]);
    let ra: &BgpRouter = sim.node_as(a).unwrap();
    assert_eq!(ra.established_sessions(), 1);
    assert!(ra.stats().updates_sent >= 1);
    assert!(rb.stats().updates_received >= 1);
}

/// A route whose AS path already contains the receiver's AS is discarded
/// (loop prevention) — the mechanism that makes RFC 7938 valley-free.
#[test]
fn as_path_loop_is_rejected() {
    // Line: A(65001) — B(64512) — C(65001). C shares A's AS, so A's
    // prefix must never enter C's RIB.
    let mut b = SimBuilder::new(2);
    let ra = BgpRouter::new(
        BgpConfig::new("A", 65001, 1).peer(peer(0, 1, 2, 64512)).originating(rack(11)),
    );
    let rb =
        BgpRouter::new(BgpConfig::new("B", 64512, 2).peer(peer(0, 2, 1, 65001)).peer(PeerConfig {
            port: PortId(1),
            local_ip: IpAddr4::new(172, 16, 1, 1),
            peer_ip: IpAddr4::new(172, 16, 1, 2),
            peer_asn: 65001,
        }));
    let rc = BgpRouter::new(BgpConfig::new("C", 65001, 3).peer(PeerConfig {
        port: PortId(0),
        local_ip: IpAddr4::new(172, 16, 1, 2),
        peer_ip: IpAddr4::new(172, 16, 1, 1),
        peer_asn: 64512,
    }));
    let a = b.add_node("A", Box::new(ra));
    let nb = b.add_node("B", Box::new(rb));
    let nc = b.add_node("C", Box::new(rc));
    b.add_link(a, nb, LinkSpec::default());
    b.add_link(nb, nc, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(secs(5));
    let rb: &BgpRouter = sim.node_as(nb).unwrap();
    assert_eq!(rb.rib().members(rack(11)).len(), 1, "B learned it");
    let rc: &BgpRouter = sim.node_as(nc).unwrap();
    assert_eq!(rc.established_sessions(), 1);
    assert!(
        rc.rib().members(rack(11)).is_empty(),
        "C must reject the looped path (sender-side filter suppresses it)"
    );
}

/// An ASN mismatch in configuration produces a NOTIFICATION and no
/// session — the class of errors §VII-G says BGP invites.
#[test]
fn asn_mismatch_never_establishes() {
    let mut b = SimBuilder::new(3);
    let ra = BgpRouter::new(BgpConfig::new("A", 65001, 1).peer(peer(0, 1, 2, 65002)));
    // B believes its own ASN is 65099; A expects 65002.
    let rb = BgpRouter::new(BgpConfig::new("B", 65099, 2).peer(peer(0, 2, 1, 65001)));
    let a = b.add_node("A", Box::new(ra));
    let c = b.add_node("B", Box::new(rb));
    b.add_link(a, c, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(secs(6));
    let ra: &BgpRouter = sim.node_as(a).unwrap();
    assert_eq!(ra.established_sessions(), 0);
    assert!(ra.stats().sessions_lost > 0 || ra.stats().sessions_established == 0);
}

/// Without keepalives crossing (link dead one way is impossible here, so
/// kill the whole link silently via the far side's interface): the hold
/// timer fires within hold ± keepalive and withdraws learned routes.
#[test]
fn hold_timer_expiry_withdraws_routes() {
    let mut b = SimBuilder::new(4);
    let ra = BgpRouter::new(
        BgpConfig::new("A", 65001, 1).peer(peer(0, 1, 2, 65002)).originating(rack(11)),
    );
    let rb = BgpRouter::new(BgpConfig::new("B", 65002, 2).peer(peer(0, 2, 1, 65001)));
    let a = b.add_node("A", Box::new(ra));
    let c = b.add_node("B", Box::new(rb));
    b.add_link(a, c, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(secs(4));
    assert_eq!(sim.node_as::<BgpRouter>(c).unwrap().rib().members(rack(11)).len(), 1);
    // Fail A's interface: A sees carrier; B must hold-time out. The
    // expiry lands between hold−keepalive (2 s) and hold (3 s) after the
    // failure, depending on when B's last keepalive arrived.
    sim.schedule_port_down(secs(4), a, PortId(0));
    sim.run_until(secs(4) + millis(1900));
    let rb: &BgpRouter = sim.node_as(c).unwrap();
    assert_eq!(rb.established_sessions(), 1, "hold timer (3 s) not yet expired");
    sim.run_until(secs(4) + millis(3200));
    let rb: &BgpRouter = sim.node_as(c).unwrap();
    assert_eq!(rb.established_sessions(), 0, "hold timer fired");
    assert!(rb.rib().members(rack(11)).is_empty(), "route withdrawn");
}

/// Keepalives keep an idle session alive indefinitely.
#[test]
fn keepalives_sustain_idle_sessions() {
    let mut b = SimBuilder::new(5);
    let ra = BgpRouter::new(BgpConfig::new("A", 65001, 1).peer(peer(0, 1, 2, 65002)));
    let rb = BgpRouter::new(BgpConfig::new("B", 65002, 2).peer(peer(0, 2, 1, 65001)));
    let a = b.add_node("A", Box::new(ra));
    let c = b.add_node("B", Box::new(rb));
    b.add_link(a, c, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(secs(30));
    assert_eq!(sim.node_as::<BgpRouter>(a).unwrap().established_sessions(), 1);
    let ka = sim.node_as::<BgpRouter>(a).unwrap().stats().keepalives_sent;
    assert!((25..=40).contains(&ka), "≈1/s keepalives: {ka}");
}

/// A router with two equal-cost paths installs both as ECMP members,
/// and the shared flow hash spreads distinct flows across them while
/// keeping any single flow pinned (no reordering).
#[test]
fn ecmp_members_install_and_flows_spread() {
    // Hub H peers with L and R, each originating the same prefix with
    // equal-length AS paths.
    let mut b = SimBuilder::new(6);
    let hub =
        BgpRouter::new(BgpConfig::new("H", 64512, 1).peer(peer(0, 1, 2, 65001)).peer(PeerConfig {
            port: PortId(1),
            local_ip: IpAddr4::new(172, 16, 1, 1),
            peer_ip: IpAddr4::new(172, 16, 1, 2),
            peer_asn: 65002,
        }));
    let left = BgpRouter::new(
        BgpConfig::new("L", 65001, 2).peer(peer(0, 2, 1, 64512)).originating(rack(14)),
    );
    let right = BgpRouter::new(
        BgpConfig::new("R", 65002, 3)
            .peer(PeerConfig {
                port: PortId(0),
                local_ip: IpAddr4::new(172, 16, 1, 2),
                peer_ip: IpAddr4::new(172, 16, 1, 1),
                peer_asn: 64512,
            })
            .originating(rack(14)),
    );
    let h = b.add_node("H", Box::new(hub));
    let l = b.add_node("L", Box::new(left));
    let r = b.add_node("R", Box::new(right));
    b.add_link(h, l, LinkSpec::default());
    b.add_link(h, r, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(secs(4));
    let rib = sim.node_as::<BgpRouter>(h).unwrap().rib();
    let members = rib.members(rack(14));
    assert_eq!(members.len(), 2, "two ECMP members");
    assert_eq!(members[0].peer_port, PortId(0));
    assert_eq!(members[1].peer_port, PortId(1));
    // The shared flow hash spreads distinct flows and pins each one.
    use dcn_wire::{ecmp_index, flow_hash, IPPROTO_UDP};
    let mut counts = [0usize; 2];
    for sp in 0..256u16 {
        let hsh = flow_hash(
            IpAddr4::new(10, 0, 0, 1),
            IpAddr4::new(192, 168, 14, 1),
            IPPROTO_UDP,
            7000 + sp,
            6000,
        );
        let i = ecmp_index(hsh, 2);
        assert_eq!(i, ecmp_index(hsh, 2), "per-flow stability");
        counts[i] += 1;
    }
    assert!(counts[0] > 80 && counts[1] > 80, "flows spread: {counts:?}");
}

/// Regression for the carrier side channel the deadline-driven tick must
/// honor: `ctx.port(p).up` flips at the admin event, 500 µs before
/// `on_port_up` tells the router. A connect retry that fell overdue
/// while its port was down must therefore stay due — the router keeps
/// waking on every grid instant — so that when the port is re-enabled
/// 200 µs before a grid instant, the SYN leaves at that instant (as it
/// did under the polling tick) instead of a full `connect_retry` after
/// the carrier callback.
#[test]
fn overdue_connect_leaves_at_the_first_grid_instant_after_admin_up() {
    use dcn_sim::{FrameClass, TraceEvent};

    let mut b = SimBuilder::new(8);
    let ra = BgpRouter::new(BgpConfig::new("A", 65001, 1).peer(peer(0, 1, 2, 65002)));
    let rb = BgpRouter::new(BgpConfig::new("B", 65002, 2).peer(peer(0, 2, 1, 65001)));
    let a = b.add_node("A", Box::new(ra)); // lower address: the active opener
    let c = b.add_node("B", Box::new(rb));
    b.add_link(a, c, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(secs(4));
    assert_eq!(sim.node_as::<BgpRouter>(a).unwrap().established_sessions(), 1);
    let sent_by_a = |sim: &dcn_sim::Sim, t0: u64, class: FrameClass| -> Vec<u64> {
        sim.trace()
            .events_since(t0)
            .filter_map(|e| match *e {
                TraceEvent::FrameSent { time, node, class: cl, .. } if node == a && cl == class => {
                    Some(time)
                }
                _ => None,
            })
            .collect()
    };
    // Steady-state keepalives leave from the tick, so the latest one
    // marks the router's (jittered) 20 ms grid.
    let last_keepalive = *sent_by_a(&sim, secs(2), FrameClass::Keepalive)
        .last()
        .expect("keepalives flow on an established session");
    let grid_instant = last_keepalive + 150 * millis(20);
    // Down for longer than connect_retry (1 s) plus its jitter (< 200 ms).
    let down_at = grid_instant - millis(1501);
    sim.schedule_port_down(down_at, a, PortId(0));
    sim.schedule_port_up(grid_instant - 200_000, a, PortId(0));
    sim.run_until(grid_instant + millis(1));
    assert_eq!(
        sent_by_a(&sim, down_at, FrameClass::Session),
        vec![grid_instant],
        "the SYN leaves from the tick at the grid instant"
    );
}

/// A transparent two-port wire tap: forwards every frame to its other
/// port and keeps what came in on port 0.
#[derive(Default)]
struct Tap {
    from_port0: Vec<(u64, dcn_sim::FrameBuf)>,
}

impl Tap {
    /// The UPDATEs among what came in on port 0 at or after `since`.
    fn updates_since(&self, since: u64) -> Vec<BgpUpdate> {
        let kept = self.from_port0.iter().filter(|(at, _)| *at >= since);
        kept.filter_map(|(_, frame)| {
            let eth = EthernetFrame::parse(frame).unwrap();
            let ip = Ipv4Packet::parse(eth.payload).unwrap();
            let tcp = TcpSegment::decode(ip.payload).unwrap();
            match BgpMessage::decode(&tcp.payload) {
                Ok((BgpMessage::Update(u), _)) => Some(u),
                _ => None,
            }
        })
        .collect()
    }
}

impl dcn_sim::Protocol for Tap {
    fn on_start(&mut self, _ctx: &mut dcn_sim::Ctx<'_>) {}

    fn on_frame(&mut self, ctx: &mut dcn_sim::Ctx<'_>, port: PortId, frame: &dcn_sim::FrameBuf) {
        if port == PortId(0) {
            self.from_port0.push((ctx.now(), frame.clone()));
        }
        ctx.send(PortId(1 - port.0), frame.clone(), dcn_sim::FrameClass::Data);
    }

    fn on_timer(&mut self, _ctx: &mut dcn_sim::Ctx<'_>, _token: u64) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn link(port: u16, net: u8, local: u8, peer_asn: u32) -> PeerConfig {
    PeerConfig {
        port: PortId(port),
        local_ip: IpAddr4::new(172, 16, net, local),
        peer_ip: IpAddr4::new(172, 16, net, 3 - local),
        peer_asn,
    }
}

/// One batch owing a peer two path groups and a withdrawal: the UPDATEs
/// leave in ascending AS-path order — not prefix order — each carrying
/// its prefixes, and the withdrawal rides the first. (The order a
/// `BTreeMap<Vec<u32>, Vec<Prefix>>` used to give; the 2-pod goldens
/// barely see multi-prefix batches, so a regression here would move
/// digests only at scale.)
#[test]
fn reexport_leaves_in_as_path_order_with_withdrawals_on_the_first() {
    // Hub H hears 11, 12 and 13 from X, 12 also from Y (AS 65300) and 13
    // also from Z (AS 65200), and tells P, behind a tap. X's link dies:
    // 11 is lost, 12 falls back to Y and 13 to Z — in prefix order
    // 11, 12, 13, in path order Z's before Y's.
    let mut b = SimBuilder::new(9);
    let hub = BgpConfig::new("H", 64512, 1)
        .peer(link(0, 0, 1, 65100))
        .peer(link(1, 1, 1, 65300))
        .peer(link(2, 2, 1, 65200))
        .peer(link(3, 3, 1, 65400));
    let x = BgpConfig::new("X", 65100, 2)
        .peer(link(0, 0, 2, 64512))
        .originating(rack(11))
        .originating(rack(12))
        .originating(rack(13));
    let y = BgpConfig::new("Y", 65300, 3).peer(link(0, 1, 2, 64512)).originating(rack(12));
    let z = BgpConfig::new("Z", 65200, 4).peer(link(0, 2, 2, 64512)).originating(rack(13));
    let p = BgpConfig::new("P", 65400, 5).peer(link(0, 3, 2, 64512));
    let h = b.add_node("H", Box::new(BgpRouter::new(hub)));
    for cfg in [x, y, z] {
        let n = b.add_node(cfg.name.clone(), Box::new(BgpRouter::new(cfg)));
        b.add_link(h, n, LinkSpec::default());
    }
    let tap = b.add_node("tap", Box::new(Tap::default()));
    let pn = b.add_node("P", Box::new(BgpRouter::new(p)));
    b.add_link(h, tap, LinkSpec::default());
    b.add_link(tap, pn, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(secs(5));
    let learned = |sim: &dcn_sim::Sim, third: u8| -> Vec<u32> {
        let rib = sim.node_as::<BgpRouter>(pn).unwrap().rib();
        rib.best(rack(third)).map(|e| e.as_path.to_vec()).unwrap_or_default()
    };
    assert_eq!(learned(&sim, 11), [64512, 65100]);
    assert_eq!(learned(&sim, 12), [64512, 65100], "X's is the lowest port");
    assert_eq!(learned(&sim, 13), [64512, 65100]);

    let down_at = secs(5) + millis(100);
    sim.schedule_port_down(down_at, h, PortId(0));
    sim.run_until(secs(6));
    let updates = sim.node_as::<Tap>(tap).unwrap().updates_since(down_at);
    let nh = Some(IpAddr4::new(172, 16, 3, 1));
    assert_eq!(
        updates,
        [
            BgpUpdate {
                withdrawn: vec![rack(11)],
                as_path: vec![64512, 65200],
                next_hop: nh,
                nlri: vec![rack(13)],
            },
            BgpUpdate {
                withdrawn: vec![],
                as_path: vec![64512, 65300],
                next_hop: nh,
                nlri: vec![rack(12)],
            },
        ]
    );
    assert!(learned(&sim, 11).is_empty());
    assert_eq!(learned(&sim, 12), [64512, 65300]);
    assert_eq!(learned(&sim, 13), [64512, 65200]);
}

/// The sender-side loop filter, seen on the wire: a hub never sends a peer
/// a path it learned from that peer, nor one through that peer's AS. (The
/// peer would discard both on arrival, so its RIB cannot tell; a tap can.)
#[test]
fn paths_from_or_through_a_peer_are_not_sent_back_to_it() {
    // H originates 10 and tells P (AS 65400), behind a tap. P originates
    // 15; Y (AS 65300) originates 12 and passes on 16 from Q, which shares
    // P's AS. H owes P 10 and 12 — not 15, learned from P, and not 16,
    // whose path [65300, 65400] runs through P's AS.
    let mut b = SimBuilder::new(11);
    let hub = BgpConfig::new("H", 64512, 1)
        .peer(link(0, 0, 1, 65400))
        .peer(link(1, 1, 1, 65300))
        .originating(rack(10));
    let p = BgpConfig::new("P", 65400, 2).peer(link(0, 0, 2, 64512)).originating(rack(15));
    let y = BgpConfig::new("Y", 65300, 3)
        .peer(link(0, 1, 2, 64512))
        .peer(link(1, 2, 1, 65400))
        .originating(rack(12));
    let q = BgpConfig::new("Q", 65400, 4).peer(link(0, 2, 2, 65300)).originating(rack(16));
    let h = b.add_node("H", Box::new(BgpRouter::new(hub)));
    let tap = b.add_node("tap", Box::new(Tap::default()));
    let pn = b.add_node("P", Box::new(BgpRouter::new(p)));
    let yn = b.add_node("Y", Box::new(BgpRouter::new(y)));
    let qn = b.add_node("Q", Box::new(BgpRouter::new(q)));
    b.add_link(h, tap, LinkSpec::default());
    b.add_link(tap, pn, LinkSpec::default());
    b.add_link(h, yn, LinkSpec::default());
    b.add_link(yn, qn, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(secs(5));
    let hub: &BgpRouter = sim.node_as(h).unwrap();
    assert_eq!(hub.rib().best(rack(15)).unwrap().as_path[..], [65400], "H holds P's");
    assert_eq!(hub.rib().best(rack(16)).unwrap().as_path[..], [65300, 65400], "and Q's via Y");
    let mut sent: Vec<Prefix> = sim
        .node_as::<Tap>(tap)
        .unwrap()
        .updates_since(0)
        .into_iter()
        .flat_map(|u| u.nlri)
        .collect();
    sent.sort();
    assert_eq!(sent, [rack(10), rack(12)], "what H advertised to P, all of it");
}

/// ECMP members — and with them the path exported, the lowest port's —
/// are in ascending-port order whatever order the configuration lists
/// the peers in.
#[test]
fn ecmp_members_are_in_port_order_whatever_the_config_order() {
    let mut b = SimBuilder::new(10);
    // Listed high port first.
    let hub = BgpConfig::new("H", 64512, 1)
        .peer(link(2, 2, 1, 65003))
        .peer(link(0, 0, 1, 65001))
        .peer(link(1, 1, 1, 65002));
    let h = b.add_node("H", Box::new(BgpRouter::new(hub)));
    let mut leaves = Vec::new();
    for (net, asn) in [(0u8, 65001u32), (1, 65002), (2, 65003)] {
        let cfg = BgpConfig::new(format!("L{net}"), asn, 2 + net as u32)
            .peer(link(0, net, 2, 64512))
            .originating(rack(14));
        leaves.push((net, b.add_node(cfg.name.clone(), Box::new(BgpRouter::new(cfg)))));
    }
    // Wire ports 0, 1, 2 of the hub in that order.
    for &(_, n) in &leaves {
        b.add_link(h, n, LinkSpec::default());
    }
    let mut sim = b.build();
    sim.run_until(secs(5));
    let rib = sim.node_as::<BgpRouter>(h).unwrap().rib();
    let ports: Vec<PortId> = rib.members(rack(14)).iter().map(|e| e.peer_port).collect();
    assert_eq!(ports, [PortId(0), PortId(1), PortId(2)]);
    let best = rib.best(rack(14)).unwrap();
    assert_eq!((best.peer_port, &best.as_path[..]), (PortId(0), &[65001][..]));
}
