//! UDP datagrams (carrier for BFD and for the traffic generator).

use crate::error::WireError;

/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram. The checksum field is emitted as zero ("no checksum"),
/// legal for IPv4: the figures count bytes. The emulator *does* corrupt
/// frames (a link impairment flips one byte) and nothing past the IPv4
/// header is checksummed: a flipped length fails the bounds check here, a
/// flipped port or payload byte passes. To the traffic analyzer such a
/// packet is foreign (magic damaged), intact (ports, padding) or arrives
/// under a wrong sequence number: one phantom or duplicate arrival, below
/// its `MAX_TRACKED_SEQ` cap — never a panic, never unbounded state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UdpDatagram<P = Vec<u8>> {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: P,
}

/// A parsed header with the payload (trimmed to the header's length
/// field) borrowed from the datagram's bytes.
pub type UdpView<'a> = UdpDatagram<&'a [u8]>;

impl UdpDatagram {
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> UdpDatagram {
        UdpDatagram { src_port, dst_port, payload }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; UDP_HEADER_LEN + self.payload.len()];
        Self::put_header(&mut out, self.src_port, self.dst_port, self.payload.len());
        out[UDP_HEADER_LEN..].copy_from_slice(&self.payload);
        out
    }

    /// Write the 8-byte header of a datagram carrying `payload_len` bytes
    /// at the start of `buf`; the payload follows at [`UDP_HEADER_LEN`].
    pub fn put_header(buf: &mut [u8], src_port: u16, dst_port: u16, payload_len: usize) {
        let len = (UDP_HEADER_LEN + payload_len) as u16;
        buf[0..2].copy_from_slice(&src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&len.to_be_bytes());
        buf[6..8].copy_from_slice(&[0, 0]); // checksum: not used over the emulator
    }

    /// Validate the length field and borrow the payload.
    pub fn parse(buf: &[u8]) -> Result<UdpView<'_>, WireError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        if len < UDP_HEADER_LEN || len > buf.len() {
            return Err(WireError::BadLength { expected: len, got: buf.len() });
        }
        Ok(UdpView {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload: &buf[UDP_HEADER_LEN..len],
        })
    }

    /// Decode from raw bytes: [`Self::parse`] plus a copy of the payload.
    pub fn decode(buf: &[u8]) -> Result<UdpDatagram, WireError> {
        let UdpView { src_port, dst_port, payload } = Self::parse(buf)?;
        Ok(UdpDatagram { src_port, dst_port, payload: payload.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let d = UdpDatagram::new(49152, 3784, vec![1, 2, 3, 4]);
        let bytes = d.encode();
        assert_eq!(bytes.len(), 12);
        assert_eq!(UdpDatagram::decode(&bytes).unwrap(), d);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(UdpDatagram::decode(&[0; 7]), Err(WireError::Truncated));
    }

    #[test]
    fn inconsistent_length_rejected() {
        let mut bytes = UdpDatagram::new(1, 2, vec![0; 4]).encode();
        bytes[5] = 200; // claims 200 bytes
        assert!(matches!(
            UdpDatagram::decode(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn trailing_padding_trimmed() {
        let mut bytes = UdpDatagram::new(1, 2, vec![7; 3]).encode();
        bytes.extend_from_slice(&[0; 40]);
        assert_eq!(UdpDatagram::decode(&bytes).unwrap().payload, vec![7; 3]);
    }
}
