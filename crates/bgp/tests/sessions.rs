//! Integration tests: BGP session mechanics on small hand-wired
//! emulations (session FSM over real TCP frames, route exchange, AS-path
//! loop rejection, hold-timer behavior, ECMP spreading).

use dcn_bgp::{BgpConfig, BgpRouter, PeerConfig};
use dcn_sim::link::LinkSpec;
use dcn_sim::time::{millis, secs};
use dcn_sim::{PortId, SimBuilder};
use dcn_wire::{IpAddr4, Prefix};

fn ip(last: u8) -> IpAddr4 {
    IpAddr4::new(172, 16, 0, last)
}

fn rack(third: u8) -> Prefix {
    Prefix::new(IpAddr4::new(192, 168, third, 0), 24)
}

fn peer(port: u16, local: u8, remote: u8, peer_asn: u32) -> PeerConfig {
    PeerConfig {
        port: PortId(port),
        local_ip: ip(local),
        peer_ip: ip(remote),
        peer_asn,
    }
}

/// Two routers on one link: A originates a prefix, B must learn it.
#[test]
fn two_routers_establish_and_exchange() {
    let mut b = SimBuilder::new(1);
    let ra = BgpRouter::new(
        BgpConfig::new("A", 65001, 1)
            .peer(peer(0, 1, 2, 65002))
            .originating(rack(11)),
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
    assert_eq!(members[0].as_path, vec![65001]);
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
        BgpConfig::new("A", 65001, 1)
            .peer(peer(0, 1, 2, 64512))
            .originating(rack(11)),
    );
    let rb = BgpRouter::new(
        BgpConfig::new("B", 64512, 2)
            .peer(peer(0, 2, 1, 65001))
            .peer(PeerConfig {
                port: PortId(1),
                local_ip: IpAddr4::new(172, 16, 1, 1),
                peer_ip: IpAddr4::new(172, 16, 1, 2),
                peer_asn: 65001,
            }),
    );
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
        BgpConfig::new("A", 65001, 1)
            .peer(peer(0, 1, 2, 65002))
            .originating(rack(11)),
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
    let hub = BgpRouter::new(
        BgpConfig::new("H", 64512, 1)
            .peer(peer(0, 1, 2, 65001))
            .peer(PeerConfig {
                port: PortId(1),
                local_ip: IpAddr4::new(172, 16, 1, 1),
                peer_ip: IpAddr4::new(172, 16, 1, 2),
                peer_asn: 65002,
            }),
    );
    let left = BgpRouter::new(
        BgpConfig::new("L", 65001, 2)
            .peer(peer(0, 2, 1, 64512))
            .originating(rack(14)),
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
