//! Local fast reroute repairs a packet at most once (DESIGN.md §8).
//!
//! One pod spine with local repair on: port 0 leads down to ToR 11,
//! ports 1 and 2 up to two upper-tier neighbors. The down port goes
//! administratively dead, and within the carrier latency — while the FIB
//! still lists it as root 11's down-tree port — data for root 11 arrives
//! from the first uplink. A fresh packet is repaired onto the other
//! uplink, never back out of its arrival port; an already-repaired packet
//! is dropped instead of climbing again.
//!
//! A frame that arrives bare — corruption in flight strips a frame of its
//! metadata, and with it the repair bit — is parsed by the router and
//! never repaired: it takes the pick local repair off would make. And a
//! transit router parses no further than the MR-MTP header, so a corrupt
//! inner IPv4 header is dropped only where the packet leaves the fabric.

use std::any::Any;

use dcn_mrmtp::{MrmtpConfig, MrmtpRouter, RouterStats, TorConfig};
use dcn_sim::link::LinkSpec;
use dcn_sim::time::{millis, Time, MICROS, SECONDS};
use dcn_sim::{Ctx, FrameBuf, FrameClass, FrameMeta, NodeId, PortId, Protocol, SimBuilder};
use dcn_wire::{
    EtherType, EthernetFrame, IpAddr4, Ipv4Packet, MacAddr, MrmtpMsg, Prefix, Vid,
    ETHERNET_HEADER_LEN, IPPROTO_UDP,
};

const ROOT: u8 = 11;
const DOWN_AT: Time = 2 * SECONDS;
const TICK: u64 = u64::MAX;

/// An upper-tier neighbor reduced to what the spine needs from it:
/// hellos, an advertisement naming its tier, and one data frame for
/// `ROOT` per `(flow, repaired)` in `sends`, 50 µs apart from 100 µs
/// after `DOWN_AT`. Records the repair bit of each data frame it receives.
struct Upper {
    sends: Vec<(u16, bool)>,
    got: Vec<bool>,
}

fn mrmtp_frame(ctx: &Ctx<'_>, payload: Vec<u8>) -> Vec<u8> {
    let (dst, src) = (MacAddr::BROADCAST, MacAddr::for_node_port(ctx.node().0, 0));
    EthernetFrame { dst, src, ethertype: EtherType::Mrmtp, payload }.encode()
}

/// The server behind ToR `ROOT` that every data frame is for.
const IP_DST: IpAddr4 = IpAddr4::new(192, 168, ROOT, 1);

/// The IPv4 packet every data frame encapsulates.
fn packet() -> Vec<u8> {
    Ipv4Packet::new(IpAddr4::new(192, 168, 12, 1), IP_DST, IPPROTO_UDP, vec![0; 8]).encode()
}

/// The data frame of flow `flow` for tree `ROOT`, encapsulating `ip`.
fn data_frame(ctx: &Ctx<'_>, flow: u16, ip: Vec<u8>) -> Vec<u8> {
    let (src, dst) = (Vid::root(12), Vid::root(ROOT));
    mrmtp_frame(ctx, MrmtpMsg::Data { src, dst, flow, payload: ip }.encode())
}

impl Protocol for Upper {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(millis(10), TICK);
        for i in 0..self.sends.len() as u64 {
            ctx.set_timer(DOWN_AT + (100 + 50 * i) * MICROS, i);
        }
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: &FrameBuf) {}

    fn on_frame_meta(&mut self, _: &mut Ctx<'_>, _: PortId, _: FrameBuf, meta: Option<FrameMeta>) {
        if let Some(FrameMeta::MrmtpData { repaired, .. }) = meta {
            self.got.push(repaired);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TICK {
            ctx.set_timer(millis(10), TICK);
            let hello = mrmtp_frame(ctx, MrmtpMsg::Hello.encode());
            let tier = mrmtp_frame(ctx, MrmtpMsg::Advertise { tier: 3, vids: vec![] }.encode());
            ctx.send(PortId(0), hello, FrameClass::Keepalive);
            ctx.send(PortId(0), tier, FrameClass::Session);
            return;
        }
        let (flow, repaired) = self.sends[token as usize];
        let (src, dst) = (Vid::root(12), Vid::root(ROOT));
        let payload_off = (ETHERNET_HEADER_LEN + MrmtpMsg::data_header_len(src, dst)) as u16;
        let meta =
            FrameMeta::MrmtpData { dst_root: ROOT, flow, payload_off, ip_dst: IP_DST, repaired };
        ctx.send_meta(PortId(0), data_frame(ctx, flow, packet()), FrameClass::Data, meta);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn a_packet_is_repaired_at_most_once() {
    // Flow 0 hashes onto the arrival uplink and flow 1 onto the other,
    // each once fresh and once already repaired.
    let sends = vec![(0, false), (1, false), (0, true), (1, true)];
    let tor = TorConfig {
        rack_subnet: Prefix::new(IpAddr4::new(192, 168, ROOT, 0), 24),
        host_ports: vec![],
    };
    let mut spine = MrmtpConfig::spine("S", 2);
    spine.local_repair = true;
    let mut b = SimBuilder::new(1);
    let t = b.add_node("T", Box::new(MrmtpRouter::new(MrmtpConfig::tor("T", tor), 1)));
    let s = b.add_node("S", Box::new(MrmtpRouter::new(spine, 3)));
    let u1 = b.add_node("U1", Box::new(Upper { sends, got: vec![] }));
    let u2 = b.add_node("U2", Box::new(Upper { sends: vec![], got: vec![] }));
    for peer in [t, u1, u2] {
        b.add_link(s, peer, LinkSpec::default());
    }
    let mut sim = b.build();
    sim.run_until(DOWN_AT);
    let router: &MrmtpRouter = sim.node_as(s).unwrap();
    assert_eq!(router.vid_table().ports_for(ROOT).collect::<Vec<_>>(), [PortId(0)]);

    sim.schedule_port_down(DOWN_AT, s, PortId(0));
    sim.run_until(DOWN_AT + millis(1));
    let got = |n: NodeId| sim.node_as::<Upper>(n).unwrap().got.clone();
    assert_eq!(got(u1), [], "a packet went back out of its arrival port");
    assert_eq!(got(u2), [true, true], "the two fresh packets, repaired onto the other uplink");
    let stats = sim.node_as::<MrmtpRouter>(s).unwrap().stats();
    assert_eq!((stats.locally_repaired, stats.data_dropped, stats.blackholed_in_window), (2, 2, 2));
}

/// [`Upper`] whose data frames arrive bare, as a frame does that
/// corruption in flight stripped of its metadata: the spine has to parse
/// them. With `corrupt`, the inner IPv4 header fails its checksum, as
/// after a bit flip there.
struct Bare {
    upper: Upper,
    corrupt: bool,
}

impl Protocol for Bare {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.upper.on_start(ctx)
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: &FrameBuf) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TICK {
            return self.upper.on_timer(ctx, token);
        }
        let (flow, _) = self.upper.sends[token as usize];
        let mut ip = packet();
        if self.corrupt {
            ip[10] ^= 0x01; // the header checksum's first byte
        }
        ctx.send(PortId(0), data_frame(ctx, flow, ip), FrameClass::Data);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The setup of [`a_packet_is_repaired_at_most_once`] with `upper` on the
/// spine's first uplink, run to 1 ms after `DOWN_AT`, and the down port to
/// ToR `ROOT` taken down at `DOWN_AT` if `fail`: the spine's and the ToR's
/// stats.
fn run_bare(upper: Bare, local_repair: bool, fail: bool) -> (RouterStats, RouterStats) {
    let tor = TorConfig {
        rack_subnet: Prefix::new(IpAddr4::new(192, 168, ROOT, 0), 24),
        host_ports: vec![],
    };
    let mut spine = MrmtpConfig::spine("S", 2);
    spine.local_repair = local_repair;
    let mut b = SimBuilder::new(1);
    let t = b.add_node("T", Box::new(MrmtpRouter::new(MrmtpConfig::tor("T", tor), 1)));
    let s = b.add_node("S", Box::new(MrmtpRouter::new(spine, 3)));
    let u1 = b.add_node("U1", Box::new(upper));
    let u2 = b.add_node("U2", Box::new(Upper { sends: vec![], got: vec![] }));
    for peer in [t, u1, u2] {
        b.add_link(s, peer, LinkSpec::default());
    }
    let mut sim = b.build();
    if fail {
        sim.schedule_port_down(DOWN_AT, s, PortId(0));
    }
    sim.run_until(DOWN_AT + millis(1));
    let stats = |n: NodeId| sim.node_as::<MrmtpRouter>(n).unwrap().stats();
    (stats(s), stats(t))
}

#[test]
fn a_bare_frame_is_never_repaired() {
    // The two fresh packets the metadata test repairs, sent bare.
    let sends = vec![(0, false), (1, false)];
    let bare = || Bare { upper: Upper { sends: sends.clone(), got: vec![] }, corrupt: false };
    let data = |s: RouterStats| (s.data_forwarded, s.data_dropped, s.blackholed_in_window);
    let (on, _) = run_bare(bare(), true, true);
    let (off, _) = run_bare(bare(), false, true);
    assert_eq!(on.locally_repaired, 0, "a bare frame was repaired: {on:?}");
    assert_eq!(data(on), data(off), "local repair changed how the spine handles bare frames");
    assert_eq!(on.data_forwarded + on.data_dropped, 2, "both packets reached the spine: {on:?}");
}

#[test]
fn a_corrupt_inner_header_is_dropped_only_at_the_destination_tor() {
    let upper = Upper { sends: vec![(0, false)], got: vec![] };
    let (spine, tor) = run_bare(Bare { upper, corrupt: true }, false, false);
    assert_eq!((spine.data_forwarded, spine.malformed_frames_dropped), (1, 0), "{spine:?}");
    assert_eq!((tor.data_dropped, tor.malformed_frames_dropped), (1, 1), "{tor:?}");
    assert_eq!(tor.data_delivered, 0);
}
