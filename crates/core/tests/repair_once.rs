//! Local fast reroute repairs a packet at most once (DESIGN.md §8).
//!
//! One pod spine with local repair on: port 0 leads down to ToR 11,
//! ports 1 and 2 up to two upper-tier neighbors. The down port goes
//! administratively dead, and within the carrier latency — while the FIB
//! still lists it as root 11's down-tree port — data for root 11 arrives
//! from the first uplink. A fresh packet is repaired onto the other
//! uplink, never back out of its arrival port; an already-repaired packet
//! is dropped instead of climbing again.

use std::any::Any;

use dcn_mrmtp::{MrmtpConfig, MrmtpRouter, TorConfig};
use dcn_sim::link::LinkSpec;
use dcn_sim::time::{millis, Time, MICROS, SECONDS};
use dcn_sim::{Ctx, FrameBuf, FrameClass, FrameMeta, NodeId, PortId, Protocol, SimBuilder};
use dcn_wire::{
    EtherType, EthernetFrame, IpAddr4, Ipv4Packet, MacAddr, MrmtpMsg, Prefix, Vid, IPPROTO_UDP,
    ETHERNET_HEADER_LEN,
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
        let ip_dst = IpAddr4::new(192, 168, ROOT, 1);
        let ip = Ipv4Packet::new(IpAddr4::new(192, 168, 12, 1), ip_dst, IPPROTO_UDP, vec![0; 8]);
        let (src, dst) = (Vid::root(12), Vid::root(ROOT));
        let data = MrmtpMsg::Data { src, dst, flow, payload: ip.encode() };
        let payload_off = (ETHERNET_HEADER_LEN + MrmtpMsg::data_header_len(src, dst)) as u16;
        let meta = FrameMeta::MrmtpData { dst_root: ROOT, flow, payload_off, ip_dst, repaired };
        ctx.send_meta(PortId(0), mrmtp_frame(ctx, data.encode()), FrameClass::Data, meta);
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
