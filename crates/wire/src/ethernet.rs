//! Ethernet II framing.
//!
//! MR-MTP frames use destination `ff:ff:ff:ff:ff:ff` (the paper: broadcast
//! is safe because all DCN links are point-to-point, and it removes the
//! need for ARP). IP traffic uses locally-administered unicast MACs derived
//! from node/port identity.

use crate::error::WireError;
use crate::framebuf::FrameBuf;

/// Length of the Ethernet II header (dst + src + ethertype).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// Minimum frame length on the wire as tshark reports it (64 bytes minus
/// the 4-byte FCS, which capture tools do not see).
pub const MIN_FRAME_LEN: u32 = 60;

/// The layer-2 length tshark would report for a frame with `payload_len`
/// bytes of payload: header plus payload, padded to the Ethernet minimum.
///
/// This is the quantity the paper's overhead figures count: the MR-MTP
/// 1-byte hello is a 60-byte frame, the 24-byte BFD packet a 66-byte frame,
/// the 19-byte BGP keepalive (under IP+TCP+timestamps) an 85-byte frame.
#[inline]
pub const fn l2_wire_len(payload_len: usize) -> u32 {
    let raw = (ETHERNET_HEADER_LEN + payload_len) as u32;
    if raw < MIN_FRAME_LEN {
        MIN_FRAME_LEN
    } else {
        raw
    }
}

/// A 48-bit MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address used by all MR-MTP frames.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A deterministic locally-administered unicast address for a given
    /// (node, port) pair.
    pub fn for_node_port(node: u32, port: u16) -> MacAddr {
        MacAddr([
            0x02,
            (node >> 16) as u8,
            (node >> 8) as u8,
            node as u8,
            (port >> 8) as u8,
            port as u8,
        ])
    }

    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", b[0], b[1], b[2], b[3], b[4], b[5])
    }
}

/// EtherType values used in the reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    Ipv4,
    /// The unused EtherType the paper picked for MR-MTP.
    Mrmtp,
    Other(u16),
}

impl EtherType {
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Mrmtp => 0x8850,
            EtherType::Other(v) => v,
        }
    }

    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x8850 => EtherType::Mrmtp,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II frame; the payload is owned unless `P` says otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EthernetFrame<P = Vec<u8>> {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
    pub payload: P,
}

/// A parsed header with the payload borrowed from the frame's bytes.
pub type EthernetView<'a> = EthernetFrame<&'a [u8]>;

impl EthernetFrame {
    /// Encode into raw bytes (unpadded; the emulator pads for wire-length
    /// accounting, as real NICs pad on transmission).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; ETHERNET_HEADER_LEN + self.payload.len()];
        Self::put_header(&mut out, self.dst, self.src, self.ethertype);
        out[ETHERNET_HEADER_LEN..].copy_from_slice(&self.payload);
        out
    }

    /// Write the 14-byte header for (`dst`, `src`, `ethertype`) at the
    /// start of `buf`; the payload follows at [`ETHERNET_HEADER_LEN`].
    pub fn put_header(buf: &mut [u8], dst: MacAddr, src: MacAddr, ethertype: EtherType) {
        buf[0..6].copy_from_slice(&dst.0);
        buf[6..12].copy_from_slice(&src.0);
        buf[12..14].copy_from_slice(&ethertype.to_u16().to_be_bytes());
    }

    /// Build a frame in place ([`FrameBuf::build`]): the header, then
    /// `payload_len` bytes for `fill` to write.
    pub fn build(
        dst: MacAddr,
        src: MacAddr,
        ethertype: EtherType,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> FrameBuf {
        FrameBuf::build(ETHERNET_HEADER_LEN + payload_len, |b| {
            Self::put_header(b, dst, src, ethertype);
            fill(&mut b[ETHERNET_HEADER_LEN..]);
        })
    }

    /// Parse the header, borrowing the payload.
    pub fn parse(buf: &[u8]) -> Result<EthernetView<'_>, WireError> {
        let (hdr, payload) =
            buf.split_first_chunk::<ETHERNET_HEADER_LEN>().ok_or(WireError::Truncated)?;
        let mac = |at: usize| MacAddr(std::array::from_fn(|i| hdr[at + i]));
        Ok(EthernetView {
            dst: mac(0),
            src: mac(6),
            ethertype: EtherType::from_u16(u16::from_be_bytes([hdr[12], hdr[13]])),
            payload,
        })
    }

    /// Decode from raw bytes: [`Self::parse`] plus a copy of the payload.
    pub fn decode(buf: &[u8]) -> Result<EthernetFrame, WireError> {
        let EthernetView { dst, src, ethertype, payload } = Self::parse(buf)?;
        Ok(EthernetFrame { dst, src, ethertype, payload: payload.to_vec() })
    }

    /// The wire length tshark would report for this frame.
    pub fn wire_len(&self) -> u32 {
        l2_wire_len(self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_matches_paper_captures() {
        // MR-MTP 1-byte hello → minimum 60-byte frame (Fig. 10).
        assert_eq!(l2_wire_len(1), 60);
        // BFD: IP(20) + UDP(8) + BFD(24) = 52 → 66-byte frame (Fig. 9).
        assert_eq!(l2_wire_len(20 + 8 + 24), 66);
        // BGP keepalive: IP(20) + TCP(32 w/ timestamps) + BGP(19) → 85.
        assert_eq!(l2_wire_len(20 + 32 + 19), 85);
    }

    #[test]
    fn roundtrip() {
        let f = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::for_node_port(3, 1),
            ethertype: EtherType::Mrmtp,
            payload: vec![0x06],
        };
        let bytes = f.encode();
        assert_eq!(bytes.len(), 15);
        let g = EthernetFrame::decode(&bytes).unwrap();
        assert_eq!(f, g);
        assert_eq!(g.wire_len(), 60);
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(EthernetFrame::decode(&[0u8; 13]), Err(WireError::Truncated));
    }

    #[test]
    fn mac_display_and_kind() {
        assert_eq!(MacAddr::BROADCAST.to_string(), "ff:ff:ff:ff:ff:ff");
        let m = MacAddr::for_node_port(0x01_0203, 0x0405);
        assert_eq!(m.to_string(), "02:01:02:03:04:05");
        assert!(!m.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x8850), EtherType::Mrmtp);
        assert_eq!(EtherType::from_u16(0x86DD), EtherType::Other(0x86DD));
        assert_eq!(EtherType::Other(0x1234).to_u16(), 0x1234);
    }
}
