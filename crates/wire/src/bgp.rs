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
use crate::Put;

/// BGP listens on TCP/179.
pub const BGP_PORT: u16 = 179;

/// Fixed header: 16-byte marker + 2-byte length + 1-byte type.
pub const BGP_HEADER_LEN: usize = 19;

const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;

/// Path attribute flag: the length field is two octets (RFC 4271 §4.3).
const ATTR_EXTENDED: u8 = 0x10;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
/// An AS_PATH segment counts its ASNs in one octet.
const SEGMENT_MAX: usize = 255;

/// The body of an UPDATE message. The lists are owned unless `P` / `A`
/// say otherwise: a sender whose prefixes and path sit in other buffers
/// encodes a `BgpUpdate<&[Prefix], &[u32]>` without collecting them.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BgpUpdate<P = Vec<Prefix>, A = Vec<u32>> {
    /// Prefixes withdrawn from service.
    pub withdrawn: P,
    /// AS_PATH for the advertised NLRI (empty and absent when only
    /// withdrawing).
    pub as_path: A,
    /// NEXT_HOP for the advertised NLRI.
    pub next_hop: Option<IpAddr4>,
    /// Newly advertised prefixes.
    pub nlri: P,
}

/// A BGP message; `U` is the UPDATE body, owned unless it says otherwise.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BgpMessage<U = BgpUpdate> {
    Open { asn: u16, hold_time_secs: u16, router_id: u32 },
    Update(U),
    Notification { code: u8, subcode: u8 },
    Keepalive,
}

/// A parsed UPDATE: its lists are iterators over the stream's bytes,
/// validated by [`BgpMessage::parse`] and read in place.
pub type UpdateView<'a> = BgpUpdate<Prefixes<'a>, AsPathIter<'a>>;

/// Prefixes of a validated withdrawn-routes or NLRI section.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Prefixes<'a>(&'a [u8]);

impl Iterator for Prefixes<'_> {
    type Item = Prefix;

    #[inline]
    fn next(&mut self) -> Option<Prefix> {
        let (p, used) = get_prefix(self.0).ok()?;
        self.0 = &self.0[used..];
        Some(p)
    }
}

/// The ASNs of every AS_PATH segment of a validated attribute section,
/// attribute by attribute, segment by segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsPathIter<'a> {
    attrs: &'a [u8],
    segs: &'a [u8],
    asns: &'a [u8],
}

impl Iterator for AsPathIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if let Some((asn, rest)) = self.asns.split_first_chunk::<4>() {
                self.asns = rest;
                return Some(u32::from_be_bytes(*asn));
            }
            if self.segs.len() >= 2 {
                (self.asns, self.segs) = split_segment(self.segs).ok()?;
            } else if self.attrs.len() >= 3 {
                let (ty, val, rest) = split_attr(self.attrs).ok()?;
                self.attrs = rest;
                self.segs = if ty == ATTR_AS_PATH { val } else { &[] };
            } else {
                return None;
            }
        }
    }
}

fn prefixes_len(prefixes: &[Prefix]) -> usize {
    prefixes.iter().map(|p| p.nlri_len()).sum()
}

fn put_prefix(w: &mut Put<'_>, p: Prefix) {
    w.put(&[p.len]);
    w.put(&p.addr.0.to_be_bytes()[..p.nlri_addr_bytes()]);
}

#[inline]
fn get_prefix(buf: &[u8]) -> Result<(Prefix, usize), WireError> {
    let (&len, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    if len > 32 {
        return Err(WireError::Invalid);
    }
    let nbytes = len.div_ceil(8) as usize;
    let bytes = rest.get(..nbytes).ok_or(WireError::Truncated)?;
    let addr = bytes.iter().fold(0u64, |acc, &b| acc << 8 | b as u64) << (8 * (4 - nbytes));
    Ok((Prefix::new(IpAddr4(addr as u32), len), 1 + nbytes))
}

fn check_prefixes(mut buf: &[u8]) -> Result<(), WireError> {
    while !buf.is_empty() {
        buf = &buf[get_prefix(buf)?.1..];
    }
    Ok(())
}

/// Split the first path attribute off a section of at least three bytes:
/// its type code, its value, the attributes after it.
#[inline]
fn split_attr(attrs: &[u8]) -> Result<(u8, &[u8], &[u8]), WireError> {
    let (hdr, len) = if attrs[0] & ATTR_EXTENDED != 0 {
        let low = *attrs.get(3).ok_or(WireError::Truncated)?;
        (4, u16::from_be_bytes([attrs[2], low]) as usize)
    } else {
        (3, attrs[2] as usize)
    };
    let val = attrs.get(hdr..hdr + len).ok_or(WireError::Truncated)?;
    Ok((attrs[1], val, &attrs[hdr + len..]))
}

/// Split the first segment (type, count, 4-byte ASNs) off an AS_PATH
/// value of at least two bytes: its ASNs' bytes, the segments after it.
#[inline]
fn split_segment(segs: &[u8]) -> Result<(&[u8], &[u8]), WireError> {
    let end = 2 + 4 * segs[1] as usize;
    Ok((segs.get(2..end).ok_or(WireError::Truncated)?, &segs[end..]))
}

/// Bytes of an AS_PATH value: AS_SEQUENCE segments of at most
/// [`SEGMENT_MAX`] ASNs, and one (empty) segment for an empty path.
fn as_path_value_len(asns: usize) -> usize {
    2 * asns.div_ceil(SEGMENT_MAX).max(1) + 4 * asns
}

/// Bytes of the path-attribute section (ORIGIN, AS_PATH, NEXT_HOP): none
/// when only withdrawing.
fn attrs_len(nlri: &[Prefix], path: &[u32]) -> usize {
    if nlri.is_empty() {
        return 0;
    }
    let path = as_path_value_len(path.len());
    4 + if path > 255 { 4 } else { 3 } + path + 7
}

impl<P: AsRef<[Prefix]>, A: AsRef<[u32]>> BgpMessage<BgpUpdate<P, A>> {
    /// Length of the full wire message (header + body).
    pub fn encoded_len(&self) -> usize {
        let body = match self {
            BgpMessage::Open { .. } => 10,
            BgpMessage::Update(u) => {
                let (withdrawn, nlri) = (u.withdrawn.as_ref(), u.nlri.as_ref());
                4 + prefixes_len(withdrawn)
                    + attrs_len(nlri, u.as_path.as_ref())
                    + prefixes_len(nlri)
            }
            BgpMessage::Notification { .. } => 2,
            BgpMessage::Keepalive => 0,
        };
        BGP_HEADER_LEN + body
    }

    /// Write the full wire message into `buf`, which is exactly
    /// [`Self::encoded_len`] bytes.
    pub fn put(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.encoded_len());
        let len = buf.len() as u16;
        let mut w = Put(buf);
        w.put(&[0xFF; 16]); // marker
        w.put(&len.to_be_bytes());
        match self {
            BgpMessage::Open { asn, hold_time_secs, router_id } => {
                w.put(&[TYPE_OPEN, 4]); // version 4
                w.put(&asn.to_be_bytes());
                w.put(&hold_time_secs.to_be_bytes());
                w.put(&router_id.to_be_bytes());
                w.put(&[0]); // no optional parameters
            }
            BgpMessage::Notification { code, subcode } => {
                w.put(&[TYPE_NOTIFICATION, *code, *subcode])
            }
            BgpMessage::Keepalive => w.put(&[TYPE_KEEPALIVE]),
            BgpMessage::Update(u) => {
                let (withdrawn, path, nlri) =
                    (u.withdrawn.as_ref(), u.as_path.as_ref(), u.nlri.as_ref());
                w.put(&[TYPE_UPDATE]);
                w.put(&(prefixes_len(withdrawn) as u16).to_be_bytes());
                for p in withdrawn {
                    put_prefix(&mut w, *p);
                }
                w.put(&(attrs_len(nlri, path) as u16).to_be_bytes());
                if !nlri.is_empty() {
                    // ORIGIN = IGP.
                    w.put(&[0x40, 1, 1, 0]);
                    // AS_PATH: AS_SEQUENCE segments of 4-byte ASNs (one,
                    // empty, for an empty path), the length extended to
                    // two octets when the value exceeds 255 bytes.
                    match as_path_value_len(path.len()) {
                        len @ ..=255 => w.put(&[0x40, ATTR_AS_PATH, len as u8]),
                        len => {
                            w.put(&[0x40 | ATTR_EXTENDED, ATTR_AS_PATH]);
                            w.put(&(len as u16).to_be_bytes());
                        }
                    }
                    for seg in path.chunks(SEGMENT_MAX).chain(path.is_empty().then_some(path)) {
                        w.put(&[2, seg.len() as u8]);
                        for asn in seg {
                            w.put(&asn.to_be_bytes());
                        }
                    }
                    let nh = u.next_hop.expect("advertised NLRI requires a next hop");
                    w.put(&[0x40, ATTR_NEXT_HOP, 4]);
                    w.put(&nh.0.to_be_bytes());
                }
                for p in nlri {
                    put_prefix(&mut w, *p);
                }
            }
        }
    }
}

impl BgpMessage {
    /// Encode to the full wire message (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; self.encoded_len()];
        self.put(&mut out);
        out
    }

    /// Parse one message from the front of `buf`, borrowing an UPDATE's
    /// lists; returns the message and the number of bytes consumed.
    /// `buf` may contain a partial message (returns
    /// [`WireError::Truncated`]) or several back-to-back messages (a TCP
    /// stream), in which case call again with the remainder.
    pub fn parse(buf: &[u8]) -> Result<(BgpMessage<UpdateView<'_>>, usize), WireError> {
        Self::parse_as(buf, |update| update)
    }

    /// Decode one message from the front of `buf`: [`Self::parse`] with
    /// an UPDATE's sections collected into owned lists.
    pub fn decode(buf: &[u8]) -> Result<(BgpMessage, usize), WireError> {
        Self::parse_as(buf, |u| BgpUpdate {
            withdrawn: u.withdrawn.collect(),
            as_path: u.as_path.collect(),
            next_hop: u.next_hop,
            nlri: u.nlri.collect(),
        })
    }

    /// The one parser: every check, with `update` choosing what holds an
    /// UPDATE's lists.
    fn parse_as<'a, U>(
        buf: &'a [u8],
        update: impl FnOnce(UpdateView<'a>) -> U,
    ) -> Result<(BgpMessage<U>, usize), WireError> {
        if buf.len() < BGP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if buf[..16] != [0xFF; 16] {
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
                if body.len() < 2 {
                    return Err(WireError::Truncated);
                }
                let wlen = u16::from_be_bytes([body[0], body[1]]) as usize;
                if body.len() < 2 + wlen + 2 {
                    return Err(WireError::Truncated);
                }
                let withdrawn = &body[2..2 + wlen];
                check_prefixes(withdrawn)?;
                let aoff = 2 + wlen;
                let alen = u16::from_be_bytes([body[aoff], body[aoff + 1]]) as usize;
                if body.len() < aoff + 2 + alen {
                    return Err(WireError::Truncated);
                }
                let (attrs, nlri) = body[aoff + 2..].split_at(alen);
                let mut next_hop = None;
                let mut as_path = AsPathIter { attrs: &[], segs: &[], asns: &[] };
                let mut rest = attrs;
                while rest.len() >= 3 {
                    let (ty, val, after) = split_attr(rest)?;
                    match ty {
                        ATTR_AS_PATH => {
                            if as_path.segs.is_empty() {
                                // Start reading here, not at the ORIGIN.
                                as_path = AsPathIter { attrs: after, segs: val, asns: &[] };
                            }
                            let mut segs = val;
                            while segs.len() >= 2 {
                                segs = split_segment(segs)?.1;
                            }
                        }
                        ATTR_NEXT_HOP => {
                            let nh: [u8; 4] = val.try_into().map_err(|_| WireError::BadLength {
                                expected: 4,
                                got: val.len(),
                            })?;
                            next_hop = Some(IpAddr4(u32::from_be_bytes(nh)));
                        }
                        _ => {} // ORIGIN and anything else: size only
                    }
                    rest = after;
                }
                check_prefixes(nlri)?;
                let (withdrawn, nlri) = (Prefixes(withdrawn), Prefixes(nlri));
                BgpMessage::Update(update(BgpUpdate { withdrawn, as_path, next_hop, nlri }))
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
