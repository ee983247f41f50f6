//! TCP segments.
//!
//! Linux BGP sessions negotiate the timestamp option, so every segment
//! carries 12 bytes of options (NOP, NOP, timestamp). That is what makes
//! the paper's captured BGP keepalive frame 85 bytes (14 eth + 20 IP +
//! 32 TCP + 19 BGP); this encoder reproduces it.

use crate::error::WireError;
use crate::framebuf::FrameBuf;

/// TCP base header length (without options).
pub const TCP_HEADER_LEN: usize = 20;

/// Length of the always-emitted options block (NOP + NOP + 10-byte
/// timestamp option).
pub const TCP_OPTIONS_LEN: usize = 12;

/// TCP flag bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    pub const FIN: TcpFlags = TcpFlags(0x01);
    pub const SYN: TcpFlags = TcpFlags(0x02);
    pub const RST: TcpFlags = TcpFlags(0x04);
    pub const PSH: TcpFlags = TcpFlags(0x08);
    pub const ACK: TcpFlags = TcpFlags(0x10);

    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.union(rhs)
    }
}

/// A TCP segment with the fixed 12-byte option block; the payload is a
/// shared [`FrameBuf`] unless `P` says otherwise.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpSegment<P = FrameBuf> {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    /// Timestamp value carried in the option (the emulator stores
    /// simulated milliseconds here; real stacks store jiffies).
    pub ts_val: u32,
    pub ts_ecr: u32,
    /// Payload bytes: retransmission queues and the emitted segment
    /// reference the same allocation.
    pub payload: P,
}

/// A parsed header with the payload borrowed from the segment's bytes.
pub type TcpView<'a> = TcpSegment<&'a [u8]>;

impl<P: AsRef<[u8]>> TcpSegment<P> {
    /// Header, options and payload.
    pub fn encoded_len(&self) -> usize {
        TCP_HEADER_LEN + TCP_OPTIONS_LEN + self.payload.as_ref().len()
    }

    /// Write the segment into `buf`, which is exactly
    /// [`Self::encoded_len`] bytes.
    pub fn put(&self, buf: &mut [u8]) {
        const HDR: usize = TCP_HEADER_LEN + TCP_OPTIONS_LEN;
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        buf[12] = ((HDR / 4) as u8) << 4; // data offset: 8 words
        buf[13] = self.flags.0;
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..20].fill(0); // checksum (unused over the emulator), urgent pointer
        // Options: NOP, NOP, TS(kind=8, len=10, val, ecr).
        buf[20..24].copy_from_slice(&[1, 1, 8, 10]);
        buf[24..28].copy_from_slice(&self.ts_val.to_be_bytes());
        buf[28..32].copy_from_slice(&self.ts_ecr.to_be_bytes());
        buf[HDR..].copy_from_slice(self.payload.as_ref());
    }
}

impl TcpSegment {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; self.encoded_len()];
        self.put(&mut out);
        out
    }

    /// Parse the header and options, borrowing the payload.
    pub fn parse(buf: &[u8]) -> Result<TcpView<'_>, WireError> {
        if buf.len() < TCP_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let data_offset = ((buf[12] >> 4) as usize) * 4;
        if data_offset < TCP_HEADER_LEN || data_offset > buf.len() {
            return Err(WireError::BadLength { expected: data_offset, got: buf.len() });
        }
        // Parse the timestamp option if present (we always emit it, but
        // accept segments without).
        let mut ts_val = 0;
        let mut ts_ecr = 0;
        let mut opts = &buf[TCP_HEADER_LEN..data_offset];
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
        Ok(TcpView {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            ts_val,
            ts_ecr,
            payload: &buf[data_offset..],
        })
    }

    /// Decode from raw bytes: [`Self::parse`] plus a copy of the payload
    /// (none for the empty payload of a pure ACK, SYN or RST).
    pub fn decode(buf: &[u8]) -> Result<TcpSegment, WireError> {
        let TcpSegment { src_port, dst_port, seq, ack, flags, window, ts_val, ts_ecr, payload } =
            Self::parse(buf)?;
        let payload = if payload.is_empty() { FrameBuf::empty() } else { payload.into() };
        Ok(TcpSegment { src_port, dst_port, seq, ack, flags, window, ts_val, ts_ecr, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(payload: Vec<u8>) -> TcpSegment {
        let payload = FrameBuf::new(payload);
        TcpSegment {
            src_port: 44321,
            dst_port: 179,
            seq: 1000,
            ack: 2000,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
            ts_val: 123,
            ts_ecr: 456,
            payload,
        }
    }

    #[test]
    fn roundtrip_with_options() {
        let s = seg(vec![0xFF; 19]);
        let bytes = s.encode();
        assert_eq!(bytes.len(), 32 + 19);
        assert_eq!(TcpSegment::decode(&bytes).unwrap(), s);
    }

    #[test]
    fn header_is_32_bytes() {
        let s = seg(vec![]);
        assert_eq!(s.encoded_len(), 32);
        assert_eq!(s.encode().len(), 32);
    }

    #[test]
    fn flags_algebra() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(TcpSegment::decode(&[0; 10]), Err(WireError::Truncated));
    }

    #[test]
    fn decode_without_timestamp_option() {
        // Hand-build a 20-byte-header segment.
        let mut b = seg(vec![1, 2, 3]).encode();
        // Rewrite data offset to 5 words and strip the options.
        b[12] = 5 << 4;
        let no_opts: Vec<u8> = b[..20].iter().chain(&b[32..]).copied().collect();
        let s = TcpSegment::decode(&no_opts).unwrap();
        assert_eq!(s.payload.as_slice(), &[1, 2, 3]);
        assert_eq!(s.ts_val, 0);
    }
}
