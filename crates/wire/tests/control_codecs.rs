//! The four control encodings against their previous implementations.
//!
//! `encode` sits on `put` and `decode` on `parse` (DESIGN.md §18), so a
//! round trip through the crate proves nothing about either. The
//! references here are the append-style encoders and owned decoders the
//! crate had before, kept verbatim — the one deliberate difference is the
//! RFC 4271 AS_PATH framing (extended length, segments of 255), which the
//! BGP reference spells out next to the old single-octet form it must
//! still equal for every path a Clos fabric produces. Each property is
//! byte-for-byte (`put` into a zeroed `encoded_len()` slice) or
//! `Result`-for-`Result` (accepts exactly when the reference does, with
//! the same fields, the same bytes consumed and the same error).

use proptest::prelude::*;

use dcn_wire::{
    BfdPacket, BfdState, BgpMessage, BgpUpdate, FrameBuf, IpAddr4, MrmtpMsg, Prefix, TcpFlags,
    TcpSegment, Vid, WireError, BFD_PACKET_LEN, BGP_HEADER_LEN, VID_MAX_LEN,
};

/// `put` into a zeroed slice of exactly `len` bytes.
fn put_into(len: usize, put: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut buf = vec![0; len];
    put(&mut buf);
    buf
}

/// Every single-byte damage of `bytes` under each of `xors`.
fn damaged<'a>(bytes: &'a [u8], xors: &'a [u8]) -> impl Iterator<Item = Vec<u8>> + 'a {
    (0..bytes.len()).flat_map(move |i| {
        xors.iter().filter(|&&x| x != 0).map(move |&x| {
            let mut b = bytes.to_vec();
            b[i] ^= x;
            b
        })
    })
}

// ---------------------------------------------------------------- TCP --

fn tcp_ref_encode(s: &TcpSegment) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + s.payload.len());
    out.extend_from_slice(&s.src_port.to_be_bytes());
    out.extend_from_slice(&s.dst_port.to_be_bytes());
    out.extend_from_slice(&s.seq.to_be_bytes());
    out.extend_from_slice(&s.ack.to_be_bytes());
    out.push(8 << 4);
    out.push(s.flags.0);
    out.extend_from_slice(&s.window.to_be_bytes());
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&[0, 0]);
    out.push(1);
    out.push(1);
    out.push(8);
    out.push(10);
    out.extend_from_slice(&s.ts_val.to_be_bytes());
    out.extend_from_slice(&s.ts_ecr.to_be_bytes());
    out.extend_from_slice(&s.payload);
    out
}

fn tcp_ref_decode(buf: &[u8]) -> Result<TcpSegment, WireError> {
    if buf.len() < 20 {
        return Err(WireError::Truncated);
    }
    let data_offset = ((buf[12] >> 4) as usize) * 4;
    if data_offset < 20 || data_offset > buf.len() {
        return Err(WireError::BadLength { expected: data_offset, got: buf.len() });
    }
    let mut ts_val = 0;
    let mut ts_ecr = 0;
    let mut opts = &buf[20..data_offset];
    while let Some(&kind) = opts.first() {
        match kind {
            0 => break,
            1 => opts = &opts[1..],
            8 if opts.len() >= 10 => {
                ts_val = u32::from_be_bytes([opts[2], opts[3], opts[4], opts[5]]);
                ts_ecr = u32::from_be_bytes([opts[6], opts[7], opts[8], opts[9]]);
                opts = &opts[10..];
            }
            _ => {
                let len = *opts.get(1).ok_or(WireError::Truncated)? as usize;
                if len < 2 || len > opts.len() {
                    return Err(WireError::Truncated);
                }
                opts = &opts[len..];
            }
        }
    }
    Ok(TcpSegment {
        src_port: u16::from_be_bytes([buf[0], buf[1]]),
        dst_port: u16::from_be_bytes([buf[2], buf[3]]),
        seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
        ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
        flags: TcpFlags(buf[13]),
        window: u16::from_be_bytes([buf[14], buf[15]]),
        ts_val,
        ts_ecr,
        payload: FrameBuf::from(&buf[data_offset..]),
    })
}

fn arb_tcp(max_payload: usize) -> impl Strategy<Value = TcpSegment> {
    (
        (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>()),
        (any::<u8>(), any::<u16>(), any::<u32>(), any::<u32>()),
        proptest::collection::vec(any::<u8>(), 0..=max_payload),
    )
        .prop_map(
            |((src_port, dst_port, seq, ack), (flags, window, ts_val, ts_ecr), payload)| {
                TcpSegment {
                    src_port,
                    dst_port,
                    seq,
                    ack,
                    flags: TcpFlags(flags),
                    window,
                    ts_val,
                    ts_ecr,
                    payload: FrameBuf::new(payload),
                }
            },
        )
}

// ---------------------------------------------------------------- BGP --

fn bgp_ref_put_prefix(out: &mut Vec<u8>, p: Prefix) {
    out.push(p.len);
    let bytes = p.addr.0.to_be_bytes();
    out.extend_from_slice(&bytes[..p.nlri_addr_bytes()]);
}

fn bgp_ref_encode(m: &BgpMessage) -> Vec<u8> {
    let mut out = vec![0xFF; 16];
    out.extend_from_slice(&[0, 0]);
    match m {
        BgpMessage::Open { asn, hold_time_secs, router_id } => {
            out.push(1);
            out.push(4);
            out.extend_from_slice(&asn.to_be_bytes());
            out.extend_from_slice(&hold_time_secs.to_be_bytes());
            out.extend_from_slice(&router_id.to_be_bytes());
            out.push(0);
        }
        BgpMessage::Keepalive => out.push(4),
        BgpMessage::Notification { code, subcode } => {
            out.push(3);
            out.push(*code);
            out.push(*subcode);
        }
        BgpMessage::Update(u) => {
            out.push(2);
            let wstart = out.len();
            out.extend_from_slice(&[0, 0]);
            for p in &u.withdrawn {
                bgp_ref_put_prefix(&mut out, *p);
            }
            let wlen = (out.len() - wstart - 2) as u16;
            out[wstart..wstart + 2].copy_from_slice(&wlen.to_be_bytes());
            let astart = out.len();
            out.extend_from_slice(&[0, 0]);
            if !u.nlri.is_empty() {
                out.extend_from_slice(&[0x40, 1, 1, 0]);
                if u.as_path.len() <= 63 {
                    // The encoder as it was: one segment, one-octet length.
                    // Everything a Clos fabric produces takes this branch.
                    let path_len = (2 + 4 * u.as_path.len()) as u8;
                    out.extend_from_slice(&[0x40, 2, path_len, 2, u.as_path.len() as u8]);
                    for asn in &u.as_path {
                        out.extend_from_slice(&asn.to_be_bytes());
                    }
                } else {
                    // RFC 4271: AS_SEQUENCE segments of at most 255 ASNs,
                    // Extended Length past 255 bytes of value.
                    let mut value = Vec::new();
                    for seg in u.as_path.chunks(255) {
                        value.extend_from_slice(&[2, seg.len() as u8]);
                        for asn in seg {
                            value.extend_from_slice(&asn.to_be_bytes());
                        }
                    }
                    if value.len() > 255 {
                        out.extend_from_slice(&[0x50, 2]);
                        out.extend_from_slice(&(value.len() as u16).to_be_bytes());
                    } else {
                        out.extend_from_slice(&[0x40, 2, value.len() as u8]);
                    }
                    out.extend_from_slice(&value);
                }
                let nh = u.next_hop.expect("advertised NLRI requires a next hop");
                out.extend_from_slice(&[0x40, 3, 4]);
                out.extend_from_slice(&nh.0.to_be_bytes());
            }
            let alen = (out.len() - astart - 2) as u16;
            out[astart..astart + 2].copy_from_slice(&alen.to_be_bytes());
            for p in &u.nlri {
                bgp_ref_put_prefix(&mut out, *p);
            }
        }
    }
    let len = out.len() as u16;
    out[16..18].copy_from_slice(&len.to_be_bytes());
    out
}

fn bgp_ref_get_prefix(buf: &[u8]) -> Result<(Prefix, usize), WireError> {
    let len = *buf.first().ok_or(WireError::Truncated)?;
    if len > 32 {
        return Err(WireError::Invalid);
    }
    let nbytes = len.div_ceil(8) as usize;
    if buf.len() < 1 + nbytes {
        return Err(WireError::Truncated);
    }
    let mut addr = [0u8; 4];
    addr[..nbytes].copy_from_slice(&buf[1..1 + nbytes]);
    Ok((Prefix::new(IpAddr4(u32::from_be_bytes(addr)), len), 1 + nbytes))
}

fn bgp_ref_decode(buf: &[u8]) -> Result<(BgpMessage, usize), WireError> {
    if buf.len() < BGP_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if buf[..16].iter().any(|&b| b != 0xFF) {
        return Err(WireError::Invalid);
    }
    let len = u16::from_be_bytes([buf[16], buf[17]]) as usize;
    if len < BGP_HEADER_LEN {
        return Err(WireError::BadLength { expected: BGP_HEADER_LEN, got: len });
    }
    if buf.len() < len {
        return Err(WireError::Truncated);
    }
    let body = &buf[BGP_HEADER_LEN..len];
    let msg = match buf[18] {
        4 => BgpMessage::Keepalive,
        3 => {
            if body.len() < 2 {
                return Err(WireError::Truncated);
            }
            BgpMessage::Notification { code: body[0], subcode: body[1] }
        }
        1 => {
            if body.len() < 10 {
                return Err(WireError::Truncated);
            }
            if body[0] != 4 {
                return Err(WireError::BadVersion(body[0]));
            }
            BgpMessage::Open {
                asn: u16::from_be_bytes([body[1], body[2]]),
                hold_time_secs: u16::from_be_bytes([body[3], body[4]]),
                router_id: u32::from_be_bytes([body[5], body[6], body[7], body[8]]),
            }
        }
        2 => {
            let mut u: BgpUpdate = BgpUpdate::default();
            if body.len() < 2 {
                return Err(WireError::Truncated);
            }
            let wlen = u16::from_be_bytes([body[0], body[1]]) as usize;
            if body.len() < 2 + wlen + 2 {
                return Err(WireError::Truncated);
            }
            let mut w = &body[2..2 + wlen];
            while !w.is_empty() {
                let (p, used) = bgp_ref_get_prefix(w)?;
                u.withdrawn.push(p);
                w = &w[used..];
            }
            let aoff = 2 + wlen;
            let alen = u16::from_be_bytes([body[aoff], body[aoff + 1]]) as usize;
            if body.len() < aoff + 2 + alen {
                return Err(WireError::Truncated);
            }
            let mut attrs = &body[aoff + 2..aoff + 2 + alen];
            while attrs.len() >= 3 {
                // The decoder as it was read `attrs[2]` whatever the flags
                // said; RFC 4271 makes it two octets under flag 0x10.
                let (ty, attr_len, hdr) = if attrs[0] & 0x10 != 0 {
                    if attrs.len() < 4 {
                        return Err(WireError::Truncated);
                    }
                    (attrs[1], u16::from_be_bytes([attrs[2], attrs[3]]) as usize, 4)
                } else {
                    (attrs[1], attrs[2] as usize, 3)
                };
                if attrs.len() < hdr + attr_len {
                    return Err(WireError::Truncated);
                }
                let val = &attrs[hdr..hdr + attr_len];
                match ty {
                    2 => {
                        // …and read one segment; the RFC allows several.
                        let mut segs = val;
                        while segs.len() >= 2 {
                            let count = segs[1] as usize;
                            if segs.len() < 2 + 4 * count {
                                return Err(WireError::Truncated);
                            }
                            for i in 0..count {
                                let o = 2 + 4 * i;
                                u.as_path.push(u32::from_be_bytes([
                                    segs[o],
                                    segs[o + 1],
                                    segs[o + 2],
                                    segs[o + 3],
                                ]));
                            }
                            segs = &segs[2 + 4 * count..];
                        }
                    }
                    3 => {
                        if val.len() != 4 {
                            return Err(WireError::BadLength { expected: 4, got: val.len() });
                        }
                        u.next_hop =
                            Some(IpAddr4(u32::from_be_bytes([val[0], val[1], val[2], val[3]])));
                    }
                    _ => {}
                }
                attrs = &attrs[hdr + attr_len..];
            }
            let mut n = &body[aoff + 2 + alen..];
            while !n.is_empty() {
                let (p, used) = bgp_ref_get_prefix(n)?;
                u.nlri.push(p);
                n = &n[used..];
            }
            BgpMessage::Update(u)
        }
        other => return Err(WireError::BadType(other)),
    };
    Ok((msg, len))
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(IpAddr4(a), l).normalized())
}

fn arb_update(max_path: usize) -> impl Strategy<Value = BgpMessage> {
    (
        proptest::collection::vec(arb_prefix(), 0..8),
        proptest::collection::vec(any::<u32>(), 0..=max_path),
        any::<u32>(),
        proptest::collection::vec(arb_prefix(), 0..8),
    )
        .prop_map(|(withdrawn, path, nh, nlri)| {
            let has_nlri = !nlri.is_empty();
            BgpMessage::Update(BgpUpdate {
                withdrawn,
                as_path: if has_nlri { path } else { Vec::new() },
                next_hop: has_nlri.then_some(IpAddr4(nh)),
                nlri,
            })
        })
}

fn arb_bgp(max_path: usize) -> impl Strategy<Value = BgpMessage> {
    prop_oneof![
        arb_update(max_path),
        arb_update(max_path),
        (any::<u16>(), any::<u16>(), any::<u32>()).prop_map(|(asn, hold_time_secs, router_id)| {
            BgpMessage::Open { asn, hold_time_secs, router_id }
        }),
        (any::<u8>(), any::<u8>())
            .prop_map(|(code, subcode)| BgpMessage::Notification { code, subcode }),
        Just(BgpMessage::Keepalive),
    ]
}

// ------------------------------------------------------------- MR-MTP --

fn mrmtp_ref_put_vid(out: &mut Vec<u8>, v: Vid) {
    out.push(v.depth() as u8);
    out.extend_from_slice(v.components());
}

fn mrmtp_ref_encode(m: &MrmtpMsg) -> Vec<u8> {
    let seq_msg = |ty: u8, seq: &u16| {
        let mut out = vec![ty];
        out.extend_from_slice(&seq.to_be_bytes());
        out
    };
    match m {
        MrmtpMsg::Hello => vec![0x06],
        MrmtpMsg::Advertise { tier, vids } => {
            let mut out = vec![0x01, *tier, vids.len() as u8];
            for v in vids {
                mrmtp_ref_put_vid(&mut out, *v);
            }
            out
        }
        MrmtpMsg::Join { tier } => vec![0x02, *tier],
        MrmtpMsg::Offer { seq, vids } => {
            let mut out = seq_msg(0x03, seq);
            out.push(vids.len() as u8);
            for v in vids {
                mrmtp_ref_put_vid(&mut out, *v);
            }
            out
        }
        MrmtpMsg::Accept { seq } => seq_msg(0x04, seq),
        MrmtpMsg::UpdateAck { seq } => seq_msg(0x05, seq),
        MrmtpMsg::Lost { seq, roots } | MrmtpMsg::Recovered { seq, roots } => {
            let mut out =
                seq_msg(if matches!(m, MrmtpMsg::Lost { .. }) { 0x07 } else { 0x08 }, seq);
            out.push(roots.len() as u8);
            out.extend_from_slice(roots);
            out
        }
        MrmtpMsg::Data { src, dst, flow, payload } => {
            let mut out = seq_msg(0x09, flow);
            mrmtp_ref_put_vid(&mut out, *src);
            mrmtp_ref_put_vid(&mut out, *dst);
            out.extend_from_slice(payload);
            out
        }
    }
}

fn mrmtp_ref_get_vid(buf: &[u8]) -> Result<(Vid, usize), WireError> {
    let len = *buf.first().ok_or(WireError::Truncated)? as usize;
    if len == 0 || len > VID_MAX_LEN {
        return Err(WireError::TooLong);
    }
    if buf.len() < 1 + len {
        return Err(WireError::Truncated);
    }
    Ok((Vid::from_components(&buf[1..1 + len])?, 1 + len))
}

fn mrmtp_ref_decode(buf: &[u8]) -> Result<MrmtpMsg, WireError> {
    let ty = *buf.first().ok_or(WireError::Truncated)?;
    let b = &buf[1..];
    let get_vids = |count: usize, mut rest: &[u8]| {
        let mut vids = Vec::with_capacity(count);
        for _ in 0..count {
            let (v, used) = mrmtp_ref_get_vid(rest)?;
            vids.push(v);
            rest = &rest[used..];
        }
        Ok(vids)
    };
    match ty {
        0x06 => Ok(MrmtpMsg::Hello),
        0x02 => Ok(MrmtpMsg::Join { tier: *b.first().ok_or(WireError::Truncated)? }),
        0x01 => {
            if b.len() < 2 {
                return Err(WireError::Truncated);
            }
            Ok(MrmtpMsg::Advertise { tier: b[0], vids: get_vids(b[1] as usize, &b[2..])? })
        }
        0x03 => {
            if b.len() < 3 {
                return Err(WireError::Truncated);
            }
            let seq = u16::from_be_bytes([b[0], b[1]]);
            Ok(MrmtpMsg::Offer { seq, vids: get_vids(b[2] as usize, &b[3..])? })
        }
        0x04 | 0x05 => {
            if b.len() < 2 {
                return Err(WireError::Truncated);
            }
            let seq = u16::from_be_bytes([b[0], b[1]]);
            Ok(if ty == 0x04 { MrmtpMsg::Accept { seq } } else { MrmtpMsg::UpdateAck { seq } })
        }
        0x07 | 0x08 => {
            if b.len() < 3 {
                return Err(WireError::Truncated);
            }
            let seq = u16::from_be_bytes([b[0], b[1]]);
            let count = b[2] as usize;
            if b.len() < 3 + count {
                return Err(WireError::Truncated);
            }
            let roots = b[3..3 + count].to_vec();
            Ok(if ty == 0x07 {
                MrmtpMsg::Lost { seq, roots }
            } else {
                MrmtpMsg::Recovered { seq, roots }
            })
        }
        0x09 => {
            if b.len() < 2 {
                return Err(WireError::Truncated);
            }
            let flow = u16::from_be_bytes([b[0], b[1]]);
            let (src, used1) = mrmtp_ref_get_vid(&b[2..])?;
            let (dst, used2) = mrmtp_ref_get_vid(&b[2 + used1..])?;
            Ok(MrmtpMsg::Data { src, dst, flow, payload: b[2 + used1 + used2..].to_vec() })
        }
        other => Err(WireError::BadType(other)),
    }
}

fn arb_vid() -> impl Strategy<Value = Vid> {
    proptest::collection::vec(any::<u8>(), 1..=VID_MAX_LEN)
        .prop_map(|c| Vid::from_components(&c).expect("within depth limit"))
}

fn arb_mrmtp() -> impl Strategy<Value = MrmtpMsg> {
    let vids = || proptest::collection::vec(arb_vid(), 0..12);
    let roots = || proptest::collection::vec(any::<u8>(), 0..16);
    prop_oneof![
        Just(MrmtpMsg::Hello),
        (any::<u8>(), vids()).prop_map(|(tier, vids)| MrmtpMsg::Advertise { tier, vids }),
        any::<u8>().prop_map(|tier| MrmtpMsg::Join { tier }),
        (any::<u16>(), vids()).prop_map(|(seq, vids)| MrmtpMsg::Offer { seq, vids }),
        any::<u16>().prop_map(|seq| MrmtpMsg::Accept { seq }),
        (any::<u16>(), roots()).prop_map(|(seq, roots)| MrmtpMsg::Lost { seq, roots }),
        (any::<u16>(), roots()).prop_map(|(seq, roots)| MrmtpMsg::Recovered { seq, roots }),
        any::<u16>().prop_map(|seq| MrmtpMsg::UpdateAck { seq }),
        (arb_vid(), arb_vid(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(src, dst, flow, payload)| MrmtpMsg::Data { src, dst, flow, payload }),
    ]
}

// ---------------------------------------------------------------- BFD --

fn bfd_ref_encode(p: &BfdPacket) -> Vec<u8> {
    let mut out = Vec::with_capacity(BFD_PACKET_LEN);
    out.push(1 << 5);
    let state = match p.state {
        BfdState::AdminDown => 0u8,
        BfdState::Down => 1,
        BfdState::Init => 2,
        BfdState::Up => 3,
    };
    let mut b1 = state << 6;
    if p.poll {
        b1 |= 0x20;
    }
    if p.final_ {
        b1 |= 0x10;
    }
    out.push(b1);
    out.push(p.detect_mult);
    out.push(BFD_PACKET_LEN as u8);
    out.extend_from_slice(&p.my_discriminator.to_be_bytes());
    out.extend_from_slice(&p.your_discriminator.to_be_bytes());
    out.extend_from_slice(&p.desired_min_tx_us.to_be_bytes());
    out.extend_from_slice(&p.required_min_rx_us.to_be_bytes());
    out.extend_from_slice(&0u32.to_be_bytes());
    out
}

// --------------------------------------------------------- properties --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tcp_put_is_the_reference_encoding(seg in arb_tcp(4096)) {
        let bytes = put_into(seg.encoded_len(), |b| seg.put(b));
        prop_assert_eq!(&bytes, &tcp_ref_encode(&seg));
        // The borrowed form writes the same bytes.
        let view = TcpSegment::parse(&bytes).unwrap();
        prop_assert_eq!(put_into(view.encoded_len(), |b| view.put(b)), bytes);
    }

    #[test]
    fn tcp_parse_agrees_with_the_reference_decoder(
        seg in arb_tcp(48),
        noise in proptest::collection::vec(any::<u8>(), 0..96),
        xor in 1u8..,
    ) {
        prop_assert_eq!(TcpSegment::decode(&noise), tcp_ref_decode(&noise));
        for b in damaged(&seg.encode(), &[0x01, 0x10, 0x80, 0xFF, xor]) {
            let got = TcpSegment::parse(&b).map(|v| (v.payload.to_vec(), v.seq, v.ack, v.flags));
            let want = tcp_ref_decode(&b).map(|s| (s.payload.to_vec(), s.seq, s.ack, s.flags));
            prop_assert_eq!(got, want);
            prop_assert_eq!(TcpSegment::decode(&b), tcp_ref_decode(&b));
        }
    }

    #[test]
    fn bgp_put_is_the_reference_encoding(m in arb_bgp(300)) {
        let want = bgp_ref_encode(&m);
        prop_assert_eq!(put_into(m.encoded_len(), |b| m.put(b)), want.clone());
        // An UPDATE encoded from slices is the same message.
        if let BgpMessage::Update(u) = &m {
            let slices = BgpMessage::Update(BgpUpdate {
                withdrawn: &u.withdrawn[..],
                as_path: &u.as_path[..],
                next_hop: u.next_hop,
                nlri: &u.nlri[..],
            });
            prop_assert_eq!(put_into(slices.encoded_len(), |b| slices.put(b)), want);
        }
    }

    #[test]
    fn bgp_parse_agrees_with_the_reference_decoder(
        m in arb_bgp(70),
        noise in proptest::collection::vec(any::<u8>(), 0..128),
        xor in 1u8..,
    ) {
        prop_assert_eq!(BgpMessage::decode(&noise), bgp_ref_decode(&noise));
        // Noise behind a valid marker gets past the first check.
        let mut framed = vec![0xFF; 16];
        framed.extend_from_slice(&noise);
        prop_assert_eq!(BgpMessage::decode(&framed), bgp_ref_decode(&framed));
        let bytes = m.encode();
        prop_assert_eq!(BgpMessage::decode(&bytes), Ok((m, bytes.len())));
        for b in damaged(&bytes, &[0x01, 0x10, 0x80, 0xFF, xor]) {
            prop_assert_eq!(BgpMessage::decode(&b), bgp_ref_decode(&b));
        }
    }

    #[test]
    fn mrmtp_put_is_the_reference_encoding(m in arb_mrmtp()) {
        let want = mrmtp_ref_encode(&m);
        prop_assert_eq!(put_into(m.encoded_len(), |b| m.put(b)), want.clone());
        // The borrowed form a router sends writes the same bytes.
        let bytes = match &m {
            MrmtpMsg::Advertise { tier, vids } => {
                let b = MrmtpMsg::<&[Vid], &[u8]>::Advertise { tier: *tier, vids };
                put_into(b.encoded_len(), |buf| b.put(buf))
            }
            MrmtpMsg::Lost { seq, roots } => {
                let b = MrmtpMsg::<&[Vid], &[u8]>::Lost { seq: *seq, roots };
                put_into(b.encoded_len(), |buf| b.put(buf))
            }
            _ => want.clone(),
        };
        prop_assert_eq!(bytes, want);
    }

    #[test]
    fn mrmtp_parse_agrees_with_the_reference_decoder(
        m in arb_mrmtp(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        xor in 1u8..,
    ) {
        prop_assert_eq!(MrmtpMsg::decode(&noise), mrmtp_ref_decode(&noise));
        let mut bytes = m.encode();
        prop_assert_eq!(MrmtpMsg::decode(&bytes), Ok(m));
        bytes.resize(bytes.len().max(46), 0); // as padded on the wire
        for b in damaged(&bytes, &[0x01, 0x10, 0x80, 0xFF, xor]) {
            prop_assert_eq!(MrmtpMsg::decode(&b), mrmtp_ref_decode(&b));
        }
    }

    #[test]
    fn bfd_put_is_the_reference_encoding(
        state in 0u8..4, poll in any::<bool>(), fin in any::<bool>(), mult in any::<u8>(),
        my in any::<u32>(), your in any::<u32>(), tx in any::<u32>(), rx in any::<u32>(),
    ) {
        let state = [BfdState::AdminDown, BfdState::Down, BfdState::Init, BfdState::Up][state as usize];
        let p = BfdPacket {
            state, poll, final_: fin, detect_mult: mult,
            my_discriminator: my, your_discriminator: your,
            desired_min_tx_us: tx, required_min_rx_us: rx,
        };
        // Over a dirty buffer too: `put` writes every byte it owns.
        let mut dirty = [0xAA; BFD_PACKET_LEN];
        p.put(&mut dirty);
        prop_assert_eq!(&dirty[..], &bfd_ref_encode(&p)[..]);
        prop_assert_eq!(p.encode(), bfd_ref_encode(&p));
    }
}

/// The AS_PATH framing at its edges: 63 ASNs is the last path the old
/// one-octet form could carry, 64 the first that wrapped into a
/// different, valid-looking path; 255/256 is the segment split.
#[test]
fn long_as_paths_survive_the_round_trip() {
    for n in [0usize, 1, 63, 64, 127, 128, 255, 256, 300, 510, 511] {
        let m = BgpMessage::Update(BgpUpdate {
            withdrawn: vec![],
            as_path: (0..n as u32).map(|i| 64_512 + i).collect(),
            next_hop: Some(IpAddr4::new(10, 0, 0, 1)),
            nlri: vec![Prefix::new(IpAddr4::new(192, 168, 11, 0), 24)],
        });
        let bytes = m.encode();
        assert_eq!(bytes, bgp_ref_encode(&m), "{n} ASNs");
        assert_eq!(BgpMessage::decode(&bytes), Ok((m, bytes.len())), "{n} ASNs");
        // Flags 0x40 and a one-octet length up to 63 ASNs, 0x50 beyond.
        let flags = bytes[BGP_HEADER_LEN + 2 + 2 + 4];
        assert_eq!(flags, if n <= 63 { 0x40 } else { 0x50 }, "{n} ASNs");
    }
}
