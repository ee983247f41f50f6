//! IPv4 header encoding with a real Internet checksum, plus the address
//! and prefix types used across the workspace.

use crate::error::WireError;

/// IPv4 header length without options (this implementation never emits
/// options).
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;
/// IP protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// An IPv4 address stored as a big-endian u32.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IpAddr4(pub u32);

impl IpAddr4 {
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> IpAddr4 {
        IpAddr4(u32::from_be_bytes([a, b, c, d]))
    }

    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The third byte of the dotted quad — the field MR-MTP's ToR VID
    /// derivation algorithm reads (192.168.**11**.0/24 → VID 11).
    pub fn third_octet(self) -> u8 {
        self.octets()[2]
    }
}

impl std::fmt::Display for IpAddr4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl std::str::FromStr for IpAddr4 {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, WireError> {
        let mut parts = s.split('.');
        let mut oct = [0u8; 4];
        for o in oct.iter_mut() {
            *o = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or(WireError::Invalid)?;
        }
        if parts.next().is_some() {
            return Err(WireError::Invalid);
        }
        Ok(IpAddr4(u32::from_be_bytes(oct)))
    }
}

/// An IPv4 prefix (`addr/len`). The host bits of `addr` are kept as given;
/// [`Prefix::normalized`] zeroes them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Prefix {
    pub addr: IpAddr4,
    pub len: u8,
}

impl Prefix {
    pub fn new(addr: IpAddr4, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length out of range");
        Prefix { addr, len }
    }

    pub fn mask(self) -> u32 {
        if self.len == 0 {
            0
        } else {
            u32::MAX << (32 - self.len as u32)
        }
    }

    /// This prefix with host bits cleared.
    pub fn normalized(self) -> Prefix {
        Prefix { addr: IpAddr4(self.addr.0 & self.mask()), len: self.len }
    }

    /// Does `ip` fall inside this prefix?
    pub fn contains(self, ip: IpAddr4) -> bool {
        (ip.0 & self.mask()) == (self.addr.0 & self.mask())
    }

    /// Bytes needed to encode the prefix address in BGP NLRI form.
    pub fn nlri_addr_bytes(self) -> usize {
        self.len.div_ceil(8) as usize
    }

    /// Encoded NLRI size (length octet + truncated address).
    pub fn nlri_len(self) -> usize {
        1 + self.nlri_addr_bytes()
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// RFC 1071 Internet checksum over `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// An IPv4 packet (header without options + payload). `P` is where the
/// payload lives: owned by default, borrowed in an [`Ipv4View`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Packet<P = Vec<u8>> {
    pub src: IpAddr4,
    pub dst: IpAddr4,
    pub protocol: u8,
    pub ttl: u8,
    pub payload: P,
}

/// A parsed, checksum-verified header with the payload (trimmed to the
/// header's total length) borrowed from the packet's bytes.
pub type Ipv4View<'a> = Ipv4Packet<&'a [u8]>;

impl Ipv4Packet {
    /// The TTL every locally originated packet starts with.
    pub const DEFAULT_TTL: u8 = 64;

    pub fn new(src: IpAddr4, dst: IpAddr4, protocol: u8, payload: Vec<u8>) -> Ipv4Packet {
        Ipv4Packet { src, dst, protocol, ttl: Self::DEFAULT_TTL, payload }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; IPV4_HEADER_LEN + self.payload.len()];
        Self::put_header(&mut out, self.src, self.dst, self.protocol, self.ttl, self.payload.len());
        out[IPV4_HEADER_LEN..].copy_from_slice(&self.payload);
        out
    }

    /// Write the 20-byte header, checksum included, of a packet carrying
    /// `payload_len` bytes at the start of `buf`; the payload follows at
    /// [`IPV4_HEADER_LEN`]. This is the only header layout the workspace
    /// emits (no options, DSCP 0, identification 0, DF set).
    pub fn put_header(
        buf: &mut [u8],
        src: IpAddr4,
        dst: IpAddr4,
        protocol: u8,
        ttl: u8,
        payload_len: usize,
    ) {
        let total_len = (IPV4_HEADER_LEN + payload_len) as u16;
        let hdr = &mut buf[..IPV4_HEADER_LEN];
        hdr[0] = 0x45; // version 4, IHL 5
        hdr[1] = 0; // DSCP/ECN
        hdr[2..4].copy_from_slice(&total_len.to_be_bytes());
        hdr[4..8].copy_from_slice(&[0, 0, 0x40, 0]); // identification 0; DF, no fragment offset
        hdr[8] = ttl;
        hdr[9] = protocol;
        hdr[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
        hdr[12..16].copy_from_slice(&src.0.to_be_bytes());
        hdr[16..20].copy_from_slice(&dst.0.to_be_bytes());
        let csum = internet_checksum(hdr);
        hdr[10..12].copy_from_slice(&csum.to_be_bytes());
    }

    /// Validate the header (length, version, IHL, checksum, total length)
    /// and borrow the payload.
    pub fn parse(buf: &[u8]) -> Result<Ipv4View<'_>, WireError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::BadVersion(version));
        }
        let ihl = (buf[0] & 0x0F) as usize * 4;
        if ihl != IPV4_HEADER_LEN {
            // We never emit options; reject rather than mis-parse.
            return Err(WireError::BadLength { expected: IPV4_HEADER_LEN, got: ihl });
        }
        if internet_checksum(&buf[..IPV4_HEADER_LEN]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total_len < IPV4_HEADER_LEN || total_len > buf.len() {
            return Err(WireError::BadLength { expected: total_len, got: buf.len() });
        }
        Ok(Ipv4View {
            src: IpAddr4(u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]])),
            dst: IpAddr4(u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]])),
            protocol: buf[9],
            ttl: buf[8],
            payload: &buf[IPV4_HEADER_LEN..total_len],
        })
    }

    /// Decode from raw bytes: [`Self::parse`] plus a copy of the payload.
    pub fn decode(buf: &[u8]) -> Result<Ipv4Packet, WireError> {
        let Ipv4View { src, dst, protocol, ttl, payload } = Self::parse(buf)?;
        Ok(Ipv4Packet { src, dst, protocol, ttl, payload: payload.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_parse_roundtrip() {
        let a = IpAddr4::new(192, 168, 11, 1);
        assert_eq!(a.to_string(), "192.168.11.1");
        assert_eq!("192.168.11.1".parse::<IpAddr4>().unwrap(), a);
        assert_eq!(a.third_octet(), 11);
        assert!("192.168.11".parse::<IpAddr4>().is_err());
        assert!("1.2.3.4.5".parse::<IpAddr4>().is_err());
        assert!("a.b.c.d".parse::<IpAddr4>().is_err());
    }

    #[test]
    fn prefix_contains_and_mask() {
        let p = Prefix::new(IpAddr4::new(192, 168, 11, 0), 24);
        assert!(p.contains(IpAddr4::new(192, 168, 11, 200)));
        assert!(!p.contains(IpAddr4::new(192, 168, 12, 1)));
        assert_eq!(p.mask(), 0xFFFF_FF00);
        assert_eq!(Prefix::new(IpAddr4(0), 0).mask(), 0);
        assert!(Prefix::new(IpAddr4(0), 0).contains(IpAddr4::new(8, 8, 8, 8)));
        assert_eq!(p.nlri_len(), 4);
        assert_eq!(Prefix::new(IpAddr4(0), 0).nlri_len(), 1);
        assert_eq!(Prefix::new(IpAddr4(0), 32).nlri_len(), 5);
    }

    #[test]
    fn normalized_clears_host_bits() {
        let p = Prefix::new(IpAddr4::new(10, 1, 2, 3), 16).normalized();
        assert_eq!(p.addr, IpAddr4::new(10, 1, 0, 0));
    }

    #[test]
    fn checksum_of_valid_header_is_zero() {
        let p = Ipv4Packet::new(
            IpAddr4::new(172, 16, 0, 1),
            IpAddr4::new(172, 16, 0, 2),
            IPPROTO_TCP,
            vec![1, 2, 3],
        );
        let bytes = p.encode();
        assert_eq!(internet_checksum(&bytes[..IPV4_HEADER_LEN]), 0);
        let q = Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn corrupted_header_rejected() {
        let p = Ipv4Packet::new(IpAddr4(1), IpAddr4(2), IPPROTO_UDP, vec![]);
        let mut bytes = p.encode();
        bytes[8] ^= 0xFF; // flip TTL
        assert_eq!(Ipv4Packet::decode(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn rfc1071_known_vector() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_checksum() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00);
    }

    #[test]
    fn decode_respects_total_length_field() {
        let p = Ipv4Packet::new(IpAddr4(1), IpAddr4(2), IPPROTO_UDP, vec![9; 10]);
        let mut bytes = p.encode();
        // Pad as an Ethernet NIC would; decode must trim to total_len.
        bytes.extend_from_slice(&[0u8; 30]);
        let q = Ipv4Packet::decode(&bytes).unwrap();
        assert_eq!(q.payload, vec![9; 10]);
    }
}
