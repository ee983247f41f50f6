//! # dcn-traffic — sequenced traffic generator and receiver analyzer
//!
//! Reproduces the paper's custom-built traffic generator: a sender emits
//! back-to-back UDP packets carrying sequence numbers; the receiver-side
//! analyzer counts lost, duplicated and out-of-sequence packets. Every
//! server in the emulation runs a [`TrafficHost`], which can act as
//! sender, receiver, or both.
//!
//! The generator's 5-tuple is configurable so the experiment harness can
//! pin the monitored flow onto the paper's failure chain
//! (ToR₁₁ → S1_1 → S2_1) under both MR-MTP's and ECMP's flow hashing.

use std::any::Any;
use std::collections::VecDeque;

use dcn_sim::time::{millis, Duration, Time};
use dcn_sim::{Ctx, FrameBuf, FrameClass, FrameMeta, PortId, Protocol};
use dcn_wire::{
    flow_hash, EtherType, EthernetFrame, IpAddr4, Ipv4Packet, MacAddr, UdpDatagram, IPPROTO_UDP,
    IPV4_HEADER_LEN, UDP_HEADER_LEN,
};

/// Magic marker identifying generator packets (so stray traffic never
/// pollutes the analysis).
pub const TRAFFIC_MAGIC: u32 = 0x7261_FF1C;

/// What a sender should transmit.
#[derive(Clone, Copy, Debug)]
pub struct SendSpec {
    pub dst: IpAddr4,
    pub src_port: u16,
    pub dst_port: u16,
    /// Inter-packet gap (the paper sent back-to-back; we pace at a
    /// configurable rate so loss counts scale with outage duration).
    pub interval: Duration,
    /// Stop after this many packets (u64::MAX = until `stop_at`).
    pub count: u64,
    pub start_at: Time,
    pub stop_at: Time,
    /// UDP payload length including the 12-byte header (magic + seq).
    pub payload_len: usize,
}

impl SendSpec {
    pub fn new(dst: IpAddr4, start_at: Time, stop_at: Time) -> SendSpec {
        SendSpec {
            dst,
            src_port: 5000,
            dst_port: 6000,
            interval: millis(3), // ≈333 pkt/s
            count: u64::MAX,
            start_at,
            stop_at,
            payload_len: 100,
        }
    }
}

/// Receiver-side analysis, in the terms the paper reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LossReport {
    /// Packets the sender transmitted.
    pub sent: u64,
    /// Packets that arrived (including duplicates).
    pub arrived: u64,
    /// Distinct sequence numbers seen.
    pub unique: u64,
    /// Arrivals of already-seen sequence numbers.
    pub duplicates: u64,
    /// Arrivals with a sequence number below the highest already seen.
    pub out_of_order: u64,
}

impl LossReport {
    /// Packets lost = sent but never seen.
    pub fn lost(&self) -> u64 {
        self.sent.saturating_sub(self.unique)
    }

    /// Loss ratio in [0, 1].
    pub fn loss_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost() as f64 / self.sent as f64
        }
    }
}

/// A server that can generate and/or analyze sequenced traffic.
pub struct TrafficHost {
    ip: IpAddr4,
    spec: Option<SendSpec>,
    next_seq: u64,
    sent: u64,
    /// Bitmap of received sequence numbers (senders count from 0) past
    /// the retired prefix: word `i` covers `64 * (retired + i)..`.
    seen: VecDeque<u64>,
    /// Fully received words dropped from the front of `seen`: a loss-free
    /// receiver holds one or two however long it runs.
    retired: u64,
    arrived: u64,
    duplicates: u64,
    out_of_order: u64,
    max_seen: Option<u64>,
}

const TOKEN_SEND: u64 = 1;

/// Upper bound on tracked sequence numbers (a 2 MiB `seen` bitmap). A
/// frame corrupted on an impaired wire can pass the magic check yet
/// carry an arbitrary 8-byte sequence field; without a bound one such
/// frame would make [`TrafficHost::ingest_frame`] resize the bitmap to
/// exabytes. No legitimate sender reaches 16M sequence numbers at the
/// generator's pacing, so anything past the cap is dropped as corrupt.
const MAX_TRACKED_SEQ: u64 = 1 << 24;

impl TrafficHost {
    pub fn new(ip: IpAddr4) -> TrafficHost {
        TrafficHost {
            ip,
            spec: None,
            next_seq: 0,
            sent: 0,
            seen: VecDeque::new(),
            retired: 0,
            arrived: 0,
            duplicates: 0,
            out_of_order: 0,
            max_seen: None,
        }
    }

    /// Configure this host as a sender (do this before the simulation
    /// delivers `on_start`, i.e. before the first `run_until`).
    pub fn with_send(mut self, spec: SendSpec) -> TrafficHost {
        self.spec = Some(spec);
        self
    }

    pub fn ip(&self) -> IpAddr4 {
        self.ip
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The receiver-side report; `sent` must come from the sending host.
    pub fn report(&self, sent: u64) -> LossReport {
        LossReport {
            sent,
            arrived: self.arrived,
            unique: 64 * self.retired
                + self.seen.iter().map(|w| w.count_ones() as u64).sum::<u64>(),
            duplicates: self.duplicates,
            out_of_order: self.out_of_order,
        }
    }

    fn mark_seen(&mut self, seq: u64) -> bool {
        let Some(word) = (seq / 64).checked_sub(self.retired) else {
            return false; // inside the fully received prefix: a duplicate
        };
        let (word, bit) = (word as usize, 1u64 << (seq % 64));
        if self.seen.len() <= word {
            self.seen.resize(word + 1, 0);
        }
        let newly = self.seen[word] & bit == 0;
        self.seen[word] |= bit;
        while self.seen.front() == Some(&u64::MAX) {
            self.seen.pop_front();
            self.retired += 1;
        }
        newly
    }

    /// The generator frame for `seq`, sent from `node`: every layer written
    /// straight into the one buffer the fabric then passes by reference.
    fn data_frame(&self, spec: &SendSpec, node: u32, seq: u64) -> FrameBuf {
        const UDP: usize = IPV4_HEADER_LEN;
        const DATA: usize = UDP + UDP_HEADER_LEN;
        let data_len = spec.payload_len.max(12);
        let (udp_len, ttl) = (UDP_HEADER_LEN + data_len, Ipv4Packet::DEFAULT_TTL);
        let src_mac = MacAddr::for_node_port(node, 0);
        EthernetFrame::build(MacAddr::BROADCAST, src_mac, EtherType::Ipv4, DATA + data_len, |ip| {
            Ipv4Packet::put_header(ip, self.ip, spec.dst, IPPROTO_UDP, ttl, udp_len);
            UdpDatagram::put_header(&mut ip[UDP..], spec.src_port, spec.dst_port, data_len);
            ip[DATA..DATA + 4].copy_from_slice(&TRAFFIC_MAGIC.to_be_bytes());
            ip[DATA + 4..DATA + 12].copy_from_slice(&seq.to_be_bytes());
        })
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>) {
        let Some(spec) = self.spec else { return };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent += 1;
        let frame = self.data_frame(&spec, ctx.node().0, seq);
        // Parse-once: the 5-tuple is fixed per spec, so the first-hop
        // router can skip the IPv4 decode entirely (the hash never
        // covers TTL, so it stays valid across hops).
        let meta = FrameMeta::Ipv4Data {
            dst: spec.dst,
            flow: flow_hash(self.ip, spec.dst, IPPROTO_UDP, spec.src_port, spec.dst_port),
            ttl: Ipv4Packet::DEFAULT_TTL,
            repaired: false,
        };
        ctx.send_meta(PortId(0), frame, FrameClass::Data, meta);
    }

    /// Test/analysis entry point: process one raw Ethernet frame as if it
    /// had arrived on the wire. Every layer is read in place.
    pub fn ingest_frame(&mut self, frame: &[u8]) {
        let Ok(eth) = EthernetFrame::parse(frame) else { return };
        if eth.ethertype != EtherType::Ipv4 {
            return;
        }
        let Ok(pkt) = Ipv4Packet::parse(eth.payload) else { return };
        if pkt.dst != self.ip || pkt.protocol != IPPROTO_UDP {
            return;
        }
        let Ok(udp) = UdpDatagram::parse(pkt.payload) else { return };
        if udp.payload.len() < 12 {
            return;
        }
        let magic = u32::from_be_bytes(udp.payload[0..4].try_into().unwrap());
        if magic != TRAFFIC_MAGIC {
            return;
        }
        let seq = u64::from_be_bytes(udp.payload[4..12].try_into().unwrap());
        if seq >= MAX_TRACKED_SEQ {
            return;
        }
        self.arrived += 1;
        if self.mark_seen(seq) {
            if let Some(max) = self.max_seen {
                if seq < max {
                    self.out_of_order += 1;
                }
            }
        } else {
            self.duplicates += 1;
        }
        self.max_seen = Some(self.max_seen.map_or(seq, |m| m.max(seq)));
    }
}

impl Protocol for TrafficHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(spec) = self.spec {
            ctx.set_timer(spec.start_at.saturating_sub(ctx.now()), TOKEN_SEND);
        }
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, frame: &FrameBuf) {
        self.ingest_frame(frame);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_SEND {
            return;
        }
        let Some(spec) = self.spec else { return };
        let now = ctx.now();
        if now < spec.start_at || now >= spec.stop_at || self.sent >= spec.count {
            return;
        }
        self.emit(ctx);
        if self.sent < spec.count {
            ctx.set_timer(spec.interval, TOKEN_SEND);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::link::LinkSpec;
    use dcn_sim::SimBuilder;
    use proptest::prelude::*;

    /// The analyzer as first written, kept as the reference: the owned
    /// decode chain (a copy of the payload per layer) feeding a plain
    /// bitmap that never retires a word.
    #[derive(Default)]
    struct Model {
        seen: Vec<u64>,
        arrived: u64,
        duplicates: u64,
        out_of_order: u64,
        max_seen: Option<u64>,
    }

    impl Model {
        fn ingest_frame(&mut self, ip: IpAddr4, frame: &[u8]) {
            let Ok(eth) = EthernetFrame::decode(frame) else { return };
            if eth.ethertype != EtherType::Ipv4 {
                return;
            }
            let Ok(pkt) = Ipv4Packet::decode(&eth.payload) else { return };
            if pkt.dst != ip || pkt.protocol != IPPROTO_UDP {
                return;
            }
            let Ok(udp) = UdpDatagram::decode(&pkt.payload) else { return };
            if udp.payload.len() < 12 {
                return;
            }
            if udp.payload[0..4] != TRAFFIC_MAGIC.to_be_bytes() {
                return;
            }
            let seq = u64::from_be_bytes(udp.payload[4..12].try_into().unwrap());
            if seq >= MAX_TRACKED_SEQ {
                return;
            }
            let (word, bit) = ((seq / 64) as usize, 1u64 << (seq % 64));
            if self.seen.len() <= word {
                self.seen.resize(word + 1, 0);
            }
            self.arrived += 1;
            if self.seen[word] & bit != 0 {
                self.duplicates += 1;
            } else if self.max_seen.is_some_and(|max| seq < max) {
                self.out_of_order += 1;
            }
            self.seen[word] |= bit;
            self.max_seen = self.max_seen.max(Some(seq));
        }

        fn report(&self, sent: u64) -> LossReport {
            LossReport {
                sent,
                arrived: self.arrived,
                unique: self.seen.iter().map(|w| w.count_ones() as u64).sum(),
                duplicates: self.duplicates,
                out_of_order: self.out_of_order,
            }
        }
    }

    const RX: IpAddr4 = IpAddr4::new(10, 0, 0, 2);

    /// The frame a default-spec sender emits toward [`RX`] for `seq`.
    fn frame_for(seq: u64) -> FrameBuf {
        TrafficHost::new(IpAddr4::new(10, 0, 0, 1)).data_frame(&SendSpec::new(RX, 0, 0), 3, seq)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place frame is, byte for byte, the layered owned
        /// encoding, clamp below 12 payload bytes included.
        #[test]
        fn emitted_frame_is_the_layered_encoding(
            src in any::<u32>(), dst in any::<u32>(), sp in any::<u16>(), dp in any::<u16>(),
            node in any::<u32>(), seq in any::<u64>(),
            payload_len in prop_oneof![0usize..=12, 0usize..=1472],
        ) {
            let mut spec = SendSpec::new(IpAddr4(dst), 0, 0);
            (spec.src_port, spec.dst_port, spec.payload_len) = (sp, dp, payload_len);
            let mut payload = TRAFFIC_MAGIC.to_be_bytes().to_vec();
            payload.extend_from_slice(&seq.to_be_bytes());
            payload.resize(payload_len.max(12), 0);
            let udp = UdpDatagram::new(sp, dp, payload);
            let pkt = Ipv4Packet::new(IpAddr4(src), IpAddr4(dst), IPPROTO_UDP, udp.encode());
            let layered = EthernetFrame {
                dst: MacAddr::BROADCAST,
                src: MacAddr::for_node_port(node, 0),
                ethertype: EtherType::Ipv4,
                payload: pkt.encode(),
            };
            let frame = TrafficHost::new(IpAddr4(src)).data_frame(&spec, node, seq);
            prop_assert_eq!(frame.as_slice(), &layered.encode()[..]);
        }

        /// The borrowing analyzer never panics and accepts exactly what
        /// the owned decode chain accepts, with the same counters: on
        /// arbitrary bytes and on every kind of single-byte damage to a
        /// valid frame (each header, the magic, the sequence number).
        #[test]
        fn ingest_agrees_with_the_owned_decode_chain(
            noise in proptest::collection::vec(any::<u8>(), 0..96),
            damage in proptest::collection::vec((0usize..66, 1u8..=255, 0u64..200), 1..40),
        ) {
            let (mut host, mut model) = (TrafficHost::new(RX), Model::default());
            host.ingest_frame(&noise);
            model.ingest_frame(RX, &noise);
            for (at, xor, seq) in damage {
                let clean = frame_for(seq);
                let at = at % clean.len();
                for frame in [clean.clone().rewrite(|b| b[at] ^= xor), clean] {
                    host.ingest_frame(&frame);
                    model.ingest_frame(RX, &frame);
                    prop_assert_eq!(host.report(0), model.report(0));
                }
            }
        }

        /// The compacting bitmap reports what the plain one does over any
        /// arrival order: duplicates, gaps, a sequence number far ahead
        /// (just under the cap) and one at it.
        #[test]
        fn compacting_seen_matches_the_plain_bitmap(
            seqs in proptest::collection::vec(
                prop_oneof![0u64..96, 0u64..96, 0u64..96, MAX_TRACKED_SEQ - 2..=MAX_TRACKED_SEQ],
                0..800,
            ),
        ) {
            let (mut host, mut model) = (TrafficHost::new(RX), Model::default());
            for seq in seqs {
                let frame = frame_for(seq);
                host.ingest_frame(&frame);
                model.ingest_frame(RX, &frame);
                // Counting `unique` walks a far-ahead bitmap: once, below.
                prop_assert_eq!(
                    (host.arrived, host.duplicates, host.out_of_order),
                    (model.arrived, model.duplicates, model.out_of_order)
                );
            }
            prop_assert_eq!(host.report(0), model.report(0));
        }
    }

    #[test]
    fn loss_free_receiver_holds_a_word_or_two() {
        let mut h = TrafficHost::new(RX);
        // In order, then with each adjacent pair swapped.
        for seq in (0..10_000u64).chain((10_000..20_000).map(|s| s ^ 1)) {
            h.ingest_frame(&frame_for(seq));
            assert!(h.seen.len() <= 2, "{} words held at seq {seq}", h.seen.len());
        }
        let r = h.report(20_000);
        assert_eq!((r.unique, r.lost(), r.duplicates, r.out_of_order), (20_000, 0, 0, 5_000));
        // A sequence number inside the retired prefix is a duplicate.
        h.ingest_frame(&frame_for(17));
        assert_eq!(h.report(20_000).duplicates, 1);
    }

    /// Two hosts wired back to back: everything sent is received.
    #[test]
    fn direct_link_delivery_and_report() {
        let a_ip = IpAddr4::new(10, 0, 0, 1);
        let b_ip = IpAddr4::new(10, 0, 0, 2);
        let mut spec = SendSpec::new(b_ip, 0, millis(100));
        spec.interval = millis(1);
        let mut b = SimBuilder::new(1);
        let a = b.add_node("a", Box::new(TrafficHost::new(a_ip).with_send(spec)));
        let c = b.add_node("b", Box::new(TrafficHost::new(b_ip)));
        b.add_link(a, c, LinkSpec::default());
        let mut sim = b.build();
        sim.run_until(millis(200));
        let sent = sim.node_as::<TrafficHost>(a).unwrap().sent();
        assert!(sent >= 99, "≈100 packets at 1 ms: {sent}");
        let report = sim.node_as::<TrafficHost>(c).unwrap().report(sent);
        assert_eq!(report.lost(), 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.out_of_order, 0);
        assert_eq!(report.arrived, sent);
        assert!(report.loss_ratio() < 1e-9);
    }

    #[test]
    fn loss_counts_gap_packets() {
        let mut h = TrafficHost::new(IpAddr4(1));
        for s in [0u64, 1, 5] {
            assert!(h.mark_seen(s));
        }
        h.arrived = 3;
        let r = h.report(6);
        assert_eq!(r.unique, 3);
        assert_eq!(r.lost(), 3);
        assert!((r.loss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_and_reorder_bitmap() {
        let mut h = TrafficHost::new(IpAddr4::new(10, 0, 0, 9));
        assert!(h.mark_seen(4));
        assert!(!h.mark_seen(4), "duplicate detected");
        assert!(h.mark_seen(2), "older but new");
        assert!(h.mark_seen(1000), "bitmap grows");
    }

    #[test]
    fn sender_respects_count_and_window() {
        let b_ip = IpAddr4::new(10, 0, 0, 2);
        let mut spec = SendSpec::new(b_ip, millis(10), millis(1000));
        spec.interval = millis(1);
        spec.count = 5;
        let mut b = SimBuilder::new(1);
        let a = b.add_node(
            "a",
            Box::new(TrafficHost::new(IpAddr4::new(10, 0, 0, 1)).with_send(spec)),
        );
        let c = b.add_node("b", Box::new(TrafficHost::new(b_ip)));
        b.add_link(a, c, LinkSpec::default());
        let mut sim = b.build();
        sim.run_until(millis(500));
        assert_eq!(sim.node_as::<TrafficHost>(a).unwrap().sent(), 5);
        let r = sim.node_as::<TrafficHost>(c).unwrap().report(5);
        assert_eq!(r.unique, 5);
    }

    #[test]
    fn foreign_and_malformed_packets_are_ignored() {
        let ip = IpAddr4::new(10, 0, 0, 2);
        let mut h = TrafficHost::new(ip);
        // Wrong magic.
        let udp = UdpDatagram::new(1, 2, vec![0; 20]);
        let pkt = Ipv4Packet::new(IpAddr4(9), ip, IPPROTO_UDP, udp.encode());
        let frame = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr([2; 6]),
            ethertype: EtherType::Ipv4,
            payload: pkt.encode(),
        };
        h.ingest_frame(&frame.encode());
        // Wrong destination.
        let pkt2 = Ipv4Packet::new(IpAddr4(9), IpAddr4(77), IPPROTO_UDP, udp.encode());
        let frame2 = EthernetFrame { payload: pkt2.encode(), ..frame.clone() };
        h.ingest_frame(&frame2.encode());
        // Truncated garbage.
        h.ingest_frame(&[1, 2, 3]);
        assert_eq!(h.report(0).arrived, 0);
    }

    #[test]
    fn out_of_order_arrivals_are_counted() {
        let ip = IpAddr4::new(10, 0, 0, 2);
        let mut h = TrafficHost::new(ip);
        let mk = |seq: u64| {
            let mut payload = Vec::new();
            payload.extend_from_slice(&TRAFFIC_MAGIC.to_be_bytes());
            payload.extend_from_slice(&seq.to_be_bytes());
            let udp = UdpDatagram::new(1, 2, payload);
            let pkt = Ipv4Packet::new(IpAddr4(9), ip, IPPROTO_UDP, udp.encode());
            EthernetFrame {
                dst: MacAddr::BROADCAST,
                src: MacAddr([2; 6]),
                ethertype: EtherType::Ipv4,
                payload: pkt.encode(),
            }
            .encode()
        };
        for seq in [0u64, 2, 1, 3, 3] {
            h.ingest_frame(&mk(seq));
        }
        let r = h.report(4);
        assert_eq!(r.arrived, 5);
        assert_eq!(r.unique, 4);
        assert_eq!(r.duplicates, 1);
        assert_eq!(r.out_of_order, 1, "seq 1 arrived after 2");
        assert_eq!(r.lost(), 0);
    }
}
