//! Property tests: every wire format round-trips for arbitrary field
//! values, and decoders never panic on arbitrary bytes.

use proptest::prelude::*;

use dcn_wire::{
    ecmp_index, flow_hash, BfdPacket, BfdState, BgpMessage, BgpUpdate, EthernetFrame, EtherType,
    IpAddr4, Ipv4Packet, MacAddr, MrmtpMsg, Prefix, TcpFlags, TcpSegment, UdpDatagram, Vid,
};

fn arb_ip() -> impl Strategy<Value = IpAddr4> {
    any::<u32>().prop_map(IpAddr4)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(IpAddr4(a), l).normalized())
}

fn arb_vid() -> impl Strategy<Value = Vid> {
    proptest::collection::vec(1u8..=255, 1..=8)
        .prop_map(|c| Vid::from_components(&c).expect("within depth limit"))
}

proptest! {
    #[test]
    fn ethernet_roundtrip(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(),
                          ethertype in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let f = EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_u16(ethertype),
            payload,
        };
        prop_assert_eq!(EthernetFrame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn ethernet_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = EthernetFrame::decode(&bytes);
    }

    #[test]
    fn ipv4_roundtrip(src in arb_ip(), dst in arb_ip(), proto in any::<u8>(), ttl in 1u8..,
                      payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut p = Ipv4Packet::new(src, dst, proto, payload);
        p.ttl = ttl;
        prop_assert_eq!(Ipv4Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ipv4_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Ipv4Packet::decode(&bytes);
    }

    #[test]
    fn udp_roundtrip(sp in any::<u16>(), dp in any::<u16>(),
                     payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let d = UdpDatagram::new(sp, dp, payload);
        prop_assert_eq!(UdpDatagram::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn udp_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = UdpDatagram::decode(&bytes);
    }

    #[test]
    fn tcp_roundtrip(sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(), ack in any::<u32>(),
                     flags in 0u8..32, window in any::<u16>(), ts in any::<u32>(),
                     payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let s = TcpSegment {
            src_port: sp, dst_port: dp, seq, ack,
            flags: TcpFlags(flags), window, ts_val: ts, ts_ecr: ts ^ 7, payload: payload.into(),
        };
        prop_assert_eq!(TcpSegment::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn tcp_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = TcpSegment::decode(&bytes);
    }

    #[test]
    fn bgp_update_roundtrip(withdrawn in proptest::collection::vec(arb_prefix(), 0..8),
                            path in proptest::collection::vec(any::<u32>(), 0..300),
                            nh in arb_ip(),
                            nlri in proptest::collection::vec(arb_prefix(), 0..8)) {
        let has_nlri = !nlri.is_empty();
        let m = BgpMessage::Update(BgpUpdate {
            withdrawn,
            as_path: if has_nlri { path } else { Vec::new() },
            next_hop: has_nlri.then_some(nh),
            nlri,
        });
        let bytes = m.encode();
        let (d, used) = BgpMessage::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(d, m);
    }

    #[test]
    fn bgp_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = BgpMessage::decode(&bytes);
    }

    #[test]
    fn bfd_roundtrip(state in 0u8..4, poll in any::<bool>(), fin in any::<bool>(),
                     mult in 1u8.., my in any::<u32>(), your in any::<u32>(),
                     tx in any::<u32>(), rx in any::<u32>()) {
        let st = match state { 0 => BfdState::AdminDown, 1 => BfdState::Down, 2 => BfdState::Init, _ => BfdState::Up };
        let p = BfdPacket {
            state: st, poll, final_: fin, detect_mult: mult,
            my_discriminator: my, your_discriminator: your,
            desired_min_tx_us: tx, required_min_rx_us: rx,
        };
        prop_assert_eq!(BfdPacket::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn bfd_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = BfdPacket::decode(&bytes);
    }

    #[test]
    fn mrmtp_msgs_roundtrip(vids in proptest::collection::vec(arb_vid(), 0..6),
                            roots in proptest::collection::vec(any::<u8>(), 0..8),
                            seq in any::<u16>(), tier in any::<u8>(), flow in any::<u16>(),
                            src in arb_vid(), dst in arb_vid(),
                            payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let msgs = vec![
            MrmtpMsg::Hello,
            MrmtpMsg::Advertise { tier, vids: vids.clone() },
            MrmtpMsg::Join { tier },
            MrmtpMsg::Offer { seq, vids },
            MrmtpMsg::Accept { seq },
            MrmtpMsg::Lost { seq, roots: roots.clone() },
            MrmtpMsg::Recovered { seq, roots },
            MrmtpMsg::UpdateAck { seq },
            MrmtpMsg::Data { src, dst, flow, payload },
        ];
        for m in msgs {
            prop_assert_eq!(MrmtpMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn mrmtp_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = MrmtpMsg::decode(&bytes);
    }

    #[test]
    fn prefix_contains_is_mask_consistent(p in arb_prefix(), ip in arb_ip()) {
        if p.contains(ip) {
            prop_assert_eq!(ip.0 & p.mask(), p.addr.0 & p.mask());
        }
    }

    #[test]
    fn vid_parent_child_inverse(v in arb_vid(), label in 1u8..=255) {
        if let Ok(child) = v.child(label) {
            prop_assert_eq!(child.parent(), Some(v));
            prop_assert_eq!(child.root_id(), v.root_id());
            prop_assert!(v.is_prefix_of(child));
        }
    }

    #[test]
    fn vid_display_parse_roundtrip(v in arb_vid()) {
        let s = v.to_string();
        prop_assert_eq!(s.parse::<Vid>().unwrap(), v);
    }

    #[test]
    fn ecmp_index_is_stable_and_bounded(src in arb_ip(), dst in arb_ip(),
                                        sp in any::<u16>(), dp in any::<u16>(), n in 1usize..64) {
        let h = flow_hash(src, dst, 17, sp, dp);
        let i = ecmp_index(h, n);
        prop_assert!(i < n);
        prop_assert_eq!(i, ecmp_index(h, n), "deterministic");
    }
}
