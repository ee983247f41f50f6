//! MR-MTP message formats.
//!
//! MR-MTP messages ride directly in Ethernet frames with the unused
//! EtherType `0x8850` and broadcast destination MAC (safe on point-to-point
//! links; avoids ARP — both per the paper). The keep-alive is a single
//! byte, `0x06`, exactly as in the paper's Fig. 10 capture; we use the
//! message-type octet itself as that byte, so a Hello *is* its type tag.

use crate::error::WireError;
use crate::Put;

/// EtherType used by MR-MTP frames.
pub const MRMTP_ETHERTYPE: u16 = 0x8850;

/// The single-byte keep-alive payload shown in the paper's capture
/// (`Data: 06`).
pub const MRMTP_HELLO_BYTE: u8 = 0x06;

/// Maximum VID depth supported (= maximum number of tiers). Eight is far
/// beyond any published folded-Clos deployment.
pub const VID_MAX_LEN: usize = 8;

/// A Virtual ID: a dot-separated path of components rooted at a ToR VID,
/// e.g. `11.1.2` = "from ToR 11, via its port 1, via that spine's port 2".
///
/// The VID both names a device's position in one ToR's tree and encodes
/// the loop-free path back to that ToR — the paper's central data
/// structure.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Vid {
    len: u8,
    comp: [u8; VID_MAX_LEN],
}

impl Vid {
    /// A root VID (a ToR's own VID, derived from its rack subnet's third
    /// octet).
    pub fn root(r: u8) -> Vid {
        let mut comp = [0; VID_MAX_LEN];
        comp[0] = r;
        Vid { len: 1, comp }
    }

    /// Build from explicit components.
    pub fn from_components(components: &[u8]) -> Result<Vid, WireError> {
        if components.is_empty() || components.len() > VID_MAX_LEN {
            return Err(WireError::TooLong);
        }
        let mut comp = [0; VID_MAX_LEN];
        comp[..components.len()].copy_from_slice(components);
        Ok(Vid { len: components.len() as u8, comp })
    }

    /// The VID a parent derives for a child joining on `port_label`
    /// (the paper: "appending the port number on which a request
    /// arrived").
    pub fn child(self, port_label: u8) -> Result<Vid, WireError> {
        if (self.len as usize) >= VID_MAX_LEN {
            return Err(WireError::TooLong);
        }
        let mut v = self;
        v.comp[v.len as usize] = port_label;
        v.len += 1;
        Ok(v)
    }

    /// The ToR VID this VID's tree is rooted at.
    #[inline]
    pub fn root_id(self) -> u8 {
        self.comp[0]
    }

    /// Number of components (= tier depth within the tree).
    #[inline]
    pub fn depth(self) -> usize {
        self.len as usize
    }

    /// The components as a slice.
    pub fn components(&self) -> &[u8] {
        &self.comp[..self.len as usize]
    }

    /// The parent VID (one component shorter), if any.
    pub fn parent(self) -> Option<Vid> {
        if self.len <= 1 {
            None
        } else {
            let mut v = self;
            v.len -= 1;
            v.comp[v.len as usize] = 0;
            Some(v)
        }
    }

    /// Is `self` an ancestor-or-equal of `other` in the same tree?
    pub fn is_prefix_of(self, other: Vid) -> bool {
        self.len <= other.len
            && self.components() == &other.components()[..self.len as usize]
    }
}

impl std::fmt::Display for Vid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Vid {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Vid, WireError> {
        let comps: Result<Vec<u8>, _> = s.split('.').map(|p| p.parse::<u8>()).collect();
        Vid::from_components(&comps.map_err(|_| WireError::Invalid)?)
    }
}

const T_ADVERTISE: u8 = 0x01;
const T_JOIN: u8 = 0x02;
const T_OFFER: u8 = 0x03;
const T_ACCEPT: u8 = 0x04;
const T_UPDATE_ACK: u8 = 0x05;
const T_HELLO: u8 = MRMTP_HELLO_BYTE; // 0x06
const T_LOST: u8 = 0x07;
const T_RECOVERED: u8 = 0x08;
const T_DATA: u8 = 0x09;

/// An MR-MTP message (Ethernet payload). The lists are owned unless `V`
/// (VIDs) and `B` (root ids, the encapsulated packet) say otherwise: a
/// router sends `MrmtpMsg<&[Vid], &[u8]>` and [`MrmtpMsg::parse`] returns
/// [`MrmtpView`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MrmtpMsg<V = Vec<Vid>, B = Vec<u8>> {
    /// Keep-alive: exactly one byte on the wire.
    Hello,
    /// A node announces its tier and the VIDs it can extend to a would-be
    /// child ("The ToR advertises its VID on its upstream ports").
    Advertise { tier: u8, vids: V },
    /// "Send in a request to join the tree."
    Join { tier: u8 },
    /// Parent offers derived VIDs to the requester. Reliable (`seq`).
    Offer { seq: u16, vids: V },
    /// Child accepts the offered VIDs (acknowledges `seq`).
    Accept { seq: u16 },
    /// Tree-loss update: the listed root VIDs are no longer reachable
    /// through the sender. Reliable (`seq`).
    Lost { seq: u16, roots: B },
    /// Recovery update: the listed roots are reachable again. Reliable.
    Recovered { seq: u16, roots: B },
    /// Acknowledges a `Lost`/`Recovered` update.
    UpdateAck { seq: u16 },
    /// An encapsulated IP packet: the MR-MTP header carries source and
    /// destination ToR VIDs plus a flow hash for load balancing.
    Data { src: Vid, dst: Vid, flow: u16, payload: B },
}

/// A parsed message borrowing the frame's bytes.
pub type MrmtpView<'a> = MrmtpMsg<Vids<'a>, &'a [u8]>;

/// The VIDs of a validated `Advertise` or `Offer`, read in place.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Vids<'a>(&'a [u8]);

impl<'a> Vids<'a> {
    /// Validate `count` VIDs at the front of `bytes`; what follows them
    /// (padding) is left out.
    fn parse(count: usize, bytes: &'a [u8]) -> Result<Vids<'a>, WireError> {
        let mut rest = bytes;
        for _ in 0..count {
            rest = &rest[get_vid(rest)?.1..];
        }
        Ok(Vids(&bytes[..bytes.len() - rest.len()]))
    }
}

impl Iterator for Vids<'_> {
    type Item = Vid;

    fn next(&mut self) -> Option<Vid> {
        let (v, used) = get_vid(self.0).ok()?;
        self.0 = &self.0[used..];
        Some(v)
    }
}

fn vids_len(vids: &[Vid]) -> usize {
    vids.iter().map(|v| 1 + v.depth()).sum()
}

fn put_vids(w: &mut Put<'_>, vids: &[Vid]) {
    w.put(&[vids.len() as u8]);
    for v in vids {
        w.put(&[v.depth() as u8]);
        w.put(v.components());
    }
}

fn put_seq(w: &mut Put<'_>, ty: u8, seq: u16) {
    w.put(&[ty]);
    w.put(&seq.to_be_bytes());
}

fn put_update(w: &mut Put<'_>, ty: u8, seq: u16, roots: &[u8]) {
    put_seq(w, ty, seq);
    w.put(&[roots.len() as u8]);
    w.put(roots);
}

fn get_vid(buf: &[u8]) -> Result<(Vid, usize), WireError> {
    let len = *buf.first().ok_or(WireError::Truncated)? as usize;
    if len == 0 || len > VID_MAX_LEN {
        return Err(WireError::TooLong);
    }
    if buf.len() < 1 + len {
        return Err(WireError::Truncated);
    }
    Ok((Vid::from_components(&buf[1..1 + len])?, 1 + len))
}

fn get_seq(b: &[u8]) -> Result<u16, WireError> {
    Ok(u16::from_be_bytes(*b.first_chunk::<2>().ok_or(WireError::Truncated)?))
}

impl<V: AsRef<[Vid]>, B: AsRef<[u8]>> MrmtpMsg<V, B> {
    /// Length of the Ethernet payload [`Self::put`] writes.
    pub fn encoded_len(&self) -> usize {
        match self {
            MrmtpMsg::Hello => 1,
            MrmtpMsg::Join { .. } => 2,
            MrmtpMsg::Accept { .. } | MrmtpMsg::UpdateAck { .. } => 3,
            MrmtpMsg::Advertise { vids, .. } => 3 + vids_len(vids.as_ref()),
            MrmtpMsg::Offer { vids, .. } => 4 + vids_len(vids.as_ref()),
            MrmtpMsg::Lost { roots, .. } | MrmtpMsg::Recovered { roots, .. } => {
                4 + roots.as_ref().len()
            }
            MrmtpMsg::Data { src, dst, payload, .. } => {
                MrmtpMsg::data_header_len(*src, *dst) + payload.as_ref().len()
            }
        }
    }

    /// Write the Ethernet payload into `buf`, which is exactly
    /// [`Self::encoded_len`] bytes.
    pub fn put(&self, buf: &mut [u8]) {
        let mut w = Put(buf);
        match self {
            MrmtpMsg::Hello => w.put(&[T_HELLO]),
            MrmtpMsg::Advertise { tier, vids } => {
                w.put(&[T_ADVERTISE, *tier]);
                put_vids(&mut w, vids.as_ref());
            }
            MrmtpMsg::Join { tier } => w.put(&[T_JOIN, *tier]),
            MrmtpMsg::Offer { seq, vids } => {
                put_seq(&mut w, T_OFFER, *seq);
                put_vids(&mut w, vids.as_ref());
            }
            MrmtpMsg::Accept { seq } => put_seq(&mut w, T_ACCEPT, *seq),
            MrmtpMsg::UpdateAck { seq } => put_seq(&mut w, T_UPDATE_ACK, *seq),
            MrmtpMsg::Lost { seq, roots } => put_update(&mut w, T_LOST, *seq, roots.as_ref()),
            MrmtpMsg::Recovered { seq, roots } => {
                put_update(&mut w, T_RECOVERED, *seq, roots.as_ref())
            }
            MrmtpMsg::Data { src, dst, flow, payload } => {
                MrmtpMsg::put_data_header(w.0, *src, *dst, *flow);
                w.0[MrmtpMsg::data_header_len(*src, *dst)..].copy_from_slice(payload.as_ref());
            }
        }
    }
}

impl MrmtpMsg {
    /// Encode to the Ethernet payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; self.encoded_len()];
        self.put(&mut out);
        out
    }

    /// Write a `Data` message header (type, flow, src VID, dst VID) at the
    /// start of `buf`; the encapsulated IP bytes follow at
    /// [`Self::data_header_len`]. This is how `Data` is encoded — by
    /// [`Self::put`] and by the ToR building the frame in place.
    pub fn put_data_header(buf: &mut [u8], src: Vid, dst: Vid, flow: u16) {
        buf[0] = T_DATA;
        buf[1..3].copy_from_slice(&flow.to_be_bytes());
        let mut at = 3;
        for v in [src, dst] {
            buf[at] = v.depth() as u8;
            buf[at + 1..at + 1 + v.depth()].copy_from_slice(v.components());
            at += 1 + v.depth();
        }
    }

    /// Encoded length of the header [`Self::put_data_header`] writes.
    pub fn data_header_len(src: Vid, dst: Vid) -> usize {
        1 + 2 + (1 + src.depth()) + (1 + dst.depth())
    }

    /// Parse the Ethernet payload bytes, borrowing VID lists, root lists
    /// and the encapsulated packet. Trailing padding (frames are padded
    /// to 60 bytes on the wire) is tolerated for fixed-size messages and
    /// for `Data` (whose inner IP packet carries its own length).
    pub fn parse(buf: &[u8]) -> Result<MrmtpView<'_>, WireError> {
        Self::parse_as(buf, |vids| vids, |bytes| bytes)
    }

    /// Decode from the Ethernet payload bytes: [`Self::parse`] with the
    /// lists collected into owned ones.
    pub fn decode(buf: &[u8]) -> Result<MrmtpMsg, WireError> {
        Self::parse_as(buf, Iterator::collect, <[u8]>::to_vec)
    }

    /// The one parser: every check, with `vids` and `bytes` choosing what
    /// holds the lists.
    fn parse_as<'a, V, B>(
        buf: &'a [u8],
        vids: impl FnOnce(Vids<'a>) -> V,
        bytes: impl FnOnce(&'a [u8]) -> B,
    ) -> Result<MrmtpMsg<V, B>, WireError> {
        let (&ty, b) = buf.split_first().ok_or(WireError::Truncated)?;
        match ty {
            T_HELLO => Ok(MrmtpMsg::Hello),
            T_JOIN => Ok(MrmtpMsg::Join { tier: *b.first().ok_or(WireError::Truncated)? }),
            T_ADVERTISE => {
                let &[tier, count] = b.first_chunk::<2>().ok_or(WireError::Truncated)?;
                Ok(MrmtpMsg::Advertise { tier, vids: vids(Vids::parse(count as usize, &b[2..])?) })
            }
            T_OFFER => {
                let &[s0, s1, count] = b.first_chunk::<3>().ok_or(WireError::Truncated)?;
                let vids = vids(Vids::parse(count as usize, &b[3..])?);
                Ok(MrmtpMsg::Offer { seq: u16::from_be_bytes([s0, s1]), vids })
            }
            T_ACCEPT => Ok(MrmtpMsg::Accept { seq: get_seq(b)? }),
            T_UPDATE_ACK => Ok(MrmtpMsg::UpdateAck { seq: get_seq(b)? }),
            T_LOST | T_RECOVERED => {
                let &[s0, s1, count] = b.first_chunk::<3>().ok_or(WireError::Truncated)?;
                let seq = u16::from_be_bytes([s0, s1]);
                let roots = bytes(b.get(3..3 + count as usize).ok_or(WireError::Truncated)?);
                Ok(if ty == T_LOST {
                    MrmtpMsg::Lost { seq, roots }
                } else {
                    MrmtpMsg::Recovered { seq, roots }
                })
            }
            T_DATA => {
                let flow = get_seq(b)?;
                let (src, used1) = get_vid(&b[2..])?;
                let (dst, used2) = get_vid(&b[2 + used1..])?;
                Ok(MrmtpMsg::Data { src, dst, flow, payload: bytes(&b[2 + used1 + used2..]) })
            }
            other => Err(WireError::BadType(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_is_exactly_the_papers_single_byte() {
        let bytes = MrmtpMsg::Hello.encode();
        assert_eq!(bytes, vec![0x06]);
        assert_eq!(MrmtpMsg::decode(&bytes).unwrap(), MrmtpMsg::Hello);
        // Padded as on the wire: still decodes as Hello.
        let mut padded = bytes;
        padded.resize(46, 0);
        assert_eq!(MrmtpMsg::decode(&padded).unwrap(), MrmtpMsg::Hello);
    }

    #[test]
    fn vid_derivation_matches_fig2() {
        // ToR 11's port 1 offer to S1_1, then S1_1's port 1 offer to S2_1.
        let tor = Vid::root(11);
        let s1_1 = tor.child(1).unwrap();
        let s2_1 = s1_1.child(1).unwrap();
        assert_eq!(s1_1.to_string(), "11.1");
        assert_eq!(s2_1.to_string(), "11.1.1");
        assert_eq!(s2_1.root_id(), 11);
        assert_eq!(s2_1.parent(), Some(s1_1));
        assert!(tor.is_prefix_of(s2_1));
        assert!(!s2_1.is_prefix_of(tor));
        assert_eq!(tor.parent(), None);
    }

    #[test]
    fn vid_parse_display_roundtrip() {
        let v: Vid = "14.2.2".parse().unwrap();
        assert_eq!(v.components(), &[14, 2, 2]);
        assert_eq!(v.to_string(), "14.2.2");
        assert!("".parse::<Vid>().is_err());
        assert!("1.2.3.4.5.6.7.8.9".parse::<Vid>().is_err());
        assert!("300.1".parse::<Vid>().is_err());
    }

    #[test]
    fn vid_depth_limit_enforced() {
        let mut v = Vid::root(1);
        for i in 0..(VID_MAX_LEN - 1) {
            v = v.child(i as u8 + 1).unwrap();
        }
        assert_eq!(v.depth(), VID_MAX_LEN);
        assert_eq!(v.child(9), Err(WireError::TooLong));
    }

    #[test]
    fn all_messages_roundtrip() {
        let v1: Vid = "11.1".parse().unwrap();
        let v2: Vid = "12.1".parse().unwrap();
        let msgs = vec![
            MrmtpMsg::Hello,
            MrmtpMsg::Advertise { tier: 2, vids: vec![v1, v2] },
            MrmtpMsg::Join { tier: 3 },
            MrmtpMsg::Offer { seq: 7, vids: vec![v1.child(2).unwrap()] },
            MrmtpMsg::Accept { seq: 7 },
            MrmtpMsg::Lost { seq: 9, roots: vec![11, 12] },
            MrmtpMsg::Recovered { seq: 10, roots: vec![11] },
            MrmtpMsg::UpdateAck { seq: 9 },
            MrmtpMsg::Data {
                src: Vid::root(11),
                dst: Vid::root(14),
                flow: 0xBEEF,
                payload: vec![1, 2, 3],
            },
        ];
        for m in msgs {
            assert_eq!(MrmtpMsg::decode(&m.encode()).unwrap(), m, "roundtrip {m:?}");
        }
    }

    #[test]
    fn unknown_type_rejected() {
        assert_eq!(MrmtpMsg::decode(&[0xEE]), Err(WireError::BadType(0xEE)));
        assert_eq!(MrmtpMsg::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn update_sizes_are_small() {
        // A lost-root update for one root: 1 type + 2 seq + 1 count + 1
        // root = 5 bytes payload → one minimum-size 60-byte frame. This is
        // the economy behind the paper's Fig. 6 gap vs BGP.
        let m = MrmtpMsg::Lost { seq: 1, roots: vec![11] };
        assert_eq!(m.encode().len(), 5);
    }
}
