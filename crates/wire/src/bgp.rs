//! BGP-4 message encoding (RFC 4271 framing, 4-byte AS numbers in
//! AS_PATH per RFC 6793, as FRRouting emits for an RFC 7938 datacenter
//! deployment).
//!
//! The encoding is complete enough that the paper's byte-count metrics are
//! faithful: a KEEPALIVE is 19 bytes, an UPDATE carries real withdrawn-
//! routes / path-attribute / NLRI sections whose sizes scale with prefix
//! and AS-path counts exactly as on a real wire.

use crate::error::WireError;
use crate::ipv4::{IpAddr4, Prefix};

/// BGP listens on TCP/179.
pub const BGP_PORT: u16 = 179;

/// Fixed header: 16-byte marker + 2-byte length + 1-byte type.
pub const BGP_HEADER_LEN: usize = 19;

const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;

/// The body of an UPDATE message.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BgpUpdate {
    /// Prefixes withdrawn from service.
    pub withdrawn: Vec<Prefix>,
    /// AS_PATH for the advertised NLRI (empty and absent when only
    /// withdrawing).
    pub as_path: Vec<u32>,
    /// NEXT_HOP for the advertised NLRI.
    pub next_hop: Option<IpAddr4>,
    /// Newly advertised prefixes.
    pub nlri: Vec<Prefix>,
}

/// A BGP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BgpMessage {
    Open {
        asn: u16,
        hold_time_secs: u16,
        router_id: u32,
    },
    Update(BgpUpdate),
    Notification {
        code: u8,
        subcode: u8,
    },
    Keepalive,
}

fn put_prefix(out: &mut Vec<u8>, p: Prefix) {
    out.push(p.len);
    let bytes = p.addr.0.to_be_bytes();
    out.extend_from_slice(&bytes[..p.nlri_addr_bytes()]);
}

fn get_prefix(buf: &[u8]) -> Result<(Prefix, usize), WireError> {
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

impl BgpMessage {
    /// Encode to the full wire message (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0xFF; 16]; // marker
        out.extend_from_slice(&[0, 0]); // length placeholder
        match self {
            BgpMessage::Open { asn, hold_time_secs, router_id } => {
                out.push(TYPE_OPEN);
                out.push(4); // version
                out.extend_from_slice(&asn.to_be_bytes());
                out.extend_from_slice(&hold_time_secs.to_be_bytes());
                out.extend_from_slice(&router_id.to_be_bytes());
                out.push(0); // no optional parameters
            }
            BgpMessage::Keepalive => out.push(TYPE_KEEPALIVE),
            BgpMessage::Notification { code, subcode } => {
                out.push(TYPE_NOTIFICATION);
                out.push(*code);
                out.push(*subcode);
            }
            BgpMessage::Update(u) => {
                out.push(TYPE_UPDATE);
                // Withdrawn routes section.
                let wstart = out.len();
                out.extend_from_slice(&[0, 0]);
                for p in &u.withdrawn {
                    put_prefix(&mut out, *p);
                }
                let wlen = (out.len() - wstart - 2) as u16;
                out[wstart..wstart + 2].copy_from_slice(&wlen.to_be_bytes());
                // Path attributes section.
                let astart = out.len();
                out.extend_from_slice(&[0, 0]);
                if !u.nlri.is_empty() {
                    // ORIGIN = IGP.
                    out.extend_from_slice(&[0x40, 1, 1, 0]);
                    // AS_PATH: AS_SEQUENCE segments of at most 255 4-byte
                    // ASNs (one, possibly empty, for a Clos path); the
                    // length is extended to two octets past 255 bytes.
                    let segments = u.as_path.len().div_ceil(255).max(1);
                    let path_len = 2 * segments + 4 * u.as_path.len();
                    if path_len > 255 {
                        out.extend_from_slice(&[0x50, 2]);
                        out.extend_from_slice(&(path_len as u16).to_be_bytes());
                    } else {
                        out.extend_from_slice(&[0x40, 2, path_len as u8]);
                    }
                    let mut rest = &u.as_path[..];
                    loop {
                        let (seg, tail) = rest.split_at(rest.len().min(255));
                        out.extend_from_slice(&[2, seg.len() as u8]);
                        for asn in seg {
                            out.extend_from_slice(&asn.to_be_bytes());
                        }
                        rest = tail;
                        if rest.is_empty() {
                            break;
                        }
                    }
                    // NEXT_HOP.
                    let nh = u.next_hop.expect("advertised NLRI requires a next hop");
                    out.extend_from_slice(&[0x40, 3, 4]);
                    out.extend_from_slice(&nh.0.to_be_bytes());
                }
                let alen = (out.len() - astart - 2) as u16;
                out[astart..astart + 2].copy_from_slice(&alen.to_be_bytes());
                // NLRI.
                for p in &u.nlri {
                    put_prefix(&mut out, *p);
                }
            }
        }
        let len = out.len() as u16;
        out[16..18].copy_from_slice(&len.to_be_bytes());
        out
    }

    /// Decode one message from the front of `buf`; returns the message and
    /// the number of bytes consumed. `buf` may contain a partial message
    /// (returns [`WireError::Truncated`]) or several back-to-back messages
    /// (a TCP stream), in which case call again with the remainder.
    pub fn decode(buf: &[u8]) -> Result<(BgpMessage, usize), WireError> {
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
            TYPE_KEEPALIVE => BgpMessage::Keepalive,
            TYPE_NOTIFICATION => {
                if body.len() < 2 {
                    return Err(WireError::Truncated);
                }
                BgpMessage::Notification { code: body[0], subcode: body[1] }
            }
            TYPE_OPEN => {
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
            TYPE_UPDATE => {
                let mut u = BgpUpdate::default();
                if body.len() < 2 {
                    return Err(WireError::Truncated);
                }
                let wlen = u16::from_be_bytes([body[0], body[1]]) as usize;
                if body.len() < 2 + wlen + 2 {
                    return Err(WireError::Truncated);
                }
                let mut w = &body[2..2 + wlen];
                while !w.is_empty() {
                    let (p, used) = get_prefix(w)?;
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
                    // RFC 4271 §4.3: flag 0x10 makes the length two octets.
                    let (ty, attr_len, hdr) = if attrs[0] & 0x10 != 0 {
                        let low = *attrs.get(3).ok_or(WireError::Truncated)?;
                        (attrs[1], u16::from_be_bytes([attrs[2], low]) as usize, 4)
                    } else {
                        (attrs[1], attrs[2] as usize, 3)
                    };
                    if attrs.len() < hdr + attr_len {
                        return Err(WireError::Truncated);
                    }
                    let val = &attrs[hdr..hdr + attr_len];
                    match ty {
                        // AS_PATH: segments of (type, count, 4-byte ASNs).
                        2 => {
                            let mut segs = val;
                            while segs.len() >= 2 {
                                let count = segs[1] as usize;
                                if segs.len() < 2 + 4 * count {
                                    return Err(WireError::Truncated);
                                }
                                for asn in segs[2..2 + 4 * count].chunks_exact(4) {
                                    u.as_path.push(u32::from_be_bytes([asn[0], asn[1], asn[2], asn[3]]));
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
                        _ => {} // ORIGIN and anything else: size only
                    }
                    attrs = &attrs[hdr + attr_len..];
                }
                let mut n = &body[aoff + 2 + alen..];
                while !n.is_empty() {
                    let (p, used) = get_prefix(n)?;
                    u.nlri.push(p);
                    n = &n[used..];
                }
                BgpMessage::Update(u)
            }
            other => return Err(WireError::BadType(other)),
        };
        Ok((msg, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(a: u8, b: u8, c: u8, len: u8) -> Prefix {
        Prefix::new(IpAddr4::new(a, b, c, 0), len)
    }

    #[test]
    fn keepalive_is_19_bytes() {
        assert_eq!(BgpMessage::Keepalive.encode().len(), BGP_HEADER_LEN);
    }

    #[test]
    fn open_roundtrip() {
        let m = BgpMessage::Open { asn: 64512, hold_time_secs: 3, router_id: 0x0A000001 };
        let bytes = m.encode();
        assert_eq!(bytes.len(), 29);
        let (d, used) = BgpMessage::decode(&bytes).unwrap();
        assert_eq!(used, 29);
        assert_eq!(d, m);
    }

    #[test]
    fn update_roundtrip_with_both_sections() {
        let m = BgpMessage::Update(BgpUpdate {
            withdrawn: vec![p(192, 168, 11, 24)],
            as_path: vec![64513, 65001],
            next_hop: Some(IpAddr4::new(172, 16, 0, 1)),
            nlri: vec![p(192, 168, 12, 24), p(192, 168, 13, 24)],
        });
        let bytes = m.encode();
        let (d, used) = BgpMessage::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(d, m);
    }

    #[test]
    fn pure_withdraw_is_small() {
        let m = BgpMessage::Update(BgpUpdate {
            withdrawn: vec![p(192, 168, 11, 24)],
            ..Default::default()
        });
        // 19 header + 2 wlen + 4 prefix + 2 attr-len = 27.
        assert_eq!(m.encode().len(), 27);
    }

    #[test]
    fn stream_decoding_consumes_one_message() {
        let mut stream = BgpMessage::Keepalive.encode();
        stream.extend(BgpMessage::Keepalive.encode());
        let (m, used) = BgpMessage::decode(&stream).unwrap();
        assert_eq!(m, BgpMessage::Keepalive);
        assert_eq!(used, 19);
        let (m2, _) = BgpMessage::decode(&stream[used..]).unwrap();
        assert_eq!(m2, BgpMessage::Keepalive);
    }

    #[test]
    fn partial_message_reports_truncated() {
        let bytes = BgpMessage::Keepalive.encode();
        assert_eq!(BgpMessage::decode(&bytes[..10]), Err(WireError::Truncated));
        let open = BgpMessage::Open { asn: 1, hold_time_secs: 3, router_id: 9 }.encode();
        assert_eq!(BgpMessage::decode(&open[..20]), Err(WireError::Truncated));
    }

    #[test]
    fn bad_marker_rejected() {
        let mut bytes = BgpMessage::Keepalive.encode();
        bytes[0] = 0;
        assert_eq!(BgpMessage::decode(&bytes), Err(WireError::Invalid));
    }

    #[test]
    fn notification_roundtrip() {
        let m = BgpMessage::Notification { code: 6, subcode: 2 };
        let (d, _) = BgpMessage::decode(&m.encode()).unwrap();
        assert_eq!(d, m);
    }

    #[test]
    fn default_route_encodes_as_single_octet() {
        let m = BgpMessage::Update(BgpUpdate {
            withdrawn: vec![],
            as_path: vec![64512],
            next_hop: Some(IpAddr4::new(172, 16, 0, 1)),
            nlri: vec![Prefix::new(IpAddr4(0), 0)],
        });
        let bytes = m.encode();
        let (d, _) = BgpMessage::decode(&bytes).unwrap();
        assert_eq!(d, m);
    }
}
