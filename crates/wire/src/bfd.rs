//! BFD control packets (RFC 5880 §4.1), asynchronous mode.
//!
//! A control packet is exactly 24 bytes; over UDP/IP/Ethernet this gives
//! the 66-byte frames visible in the paper's Fig. 9 capture.

use crate::error::WireError;

/// BFD control packets are sent to UDP port 3784.
pub const BFD_CTRL_PORT: u16 = 3784;

/// Mandatory section length (no authentication).
pub const BFD_PACKET_LEN: usize = 24;

/// Session state carried in the `Sta` field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BfdState {
    AdminDown,
    Down,
    Init,
    Up,
}

impl BfdState {
    fn to_bits(self) -> u8 {
        match self {
            BfdState::AdminDown => 0,
            BfdState::Down => 1,
            BfdState::Init => 2,
            BfdState::Up => 3,
        }
    }

    fn from_bits(b: u8) -> BfdState {
        match b & 0x03 {
            0 => BfdState::AdminDown,
            1 => BfdState::Down,
            2 => BfdState::Init,
            _ => BfdState::Up,
        }
    }
}

/// An RFC 5880 control packet (version 1, no auth).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BfdPacket {
    pub state: BfdState,
    pub poll: bool,
    pub final_: bool,
    pub detect_mult: u8,
    pub my_discriminator: u32,
    pub your_discriminator: u32,
    /// Desired min TX interval, microseconds.
    pub desired_min_tx_us: u32,
    /// Required min RX interval, microseconds.
    pub required_min_rx_us: u32,
}

impl BfdPacket {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; BFD_PACKET_LEN];
        self.put(&mut out);
        out
    }

    /// Write the packet into `buf`, which is at least [`BFD_PACKET_LEN`]
    /// bytes. There is no borrowing `parse` beside it: the packet owns
    /// nothing, so [`Self::decode`] already copies no more than fields.
    pub fn put(&self, buf: &mut [u8]) {
        buf[0] = 1 << 5; // version 1, diag 0
        buf[1] = self.state.to_bits() << 6
            | if self.poll { 0x20 } else { 0 }
            | if self.final_ { 0x10 } else { 0 };
        buf[2] = self.detect_mult;
        buf[3] = BFD_PACKET_LEN as u8;
        buf[4..8].copy_from_slice(&self.my_discriminator.to_be_bytes());
        buf[8..12].copy_from_slice(&self.your_discriminator.to_be_bytes());
        buf[12..16].copy_from_slice(&self.desired_min_tx_us.to_be_bytes());
        buf[16..20].copy_from_slice(&self.required_min_rx_us.to_be_bytes());
        buf[20..24].fill(0); // required min echo RX
    }

    pub fn decode(buf: &[u8]) -> Result<BfdPacket, WireError> {
        if buf.len() < BFD_PACKET_LEN {
            return Err(WireError::Truncated);
        }
        let version = buf[0] >> 5;
        if version != 1 {
            return Err(WireError::BadVersion(version));
        }
        let declared = buf[3] as usize;
        if declared < BFD_PACKET_LEN || declared > buf.len() {
            return Err(WireError::BadLength { expected: declared, got: buf.len() });
        }
        Ok(BfdPacket {
            state: BfdState::from_bits(buf[1] >> 6),
            poll: buf[1] & 0x20 != 0,
            final_: buf[1] & 0x10 != 0,
            detect_mult: buf[2],
            my_discriminator: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            your_discriminator: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            desired_min_tx_us: u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]),
            required_min_rx_us: u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::l2_wire_len;
    use crate::ipv4::IPV4_HEADER_LEN;
    use crate::udp::UDP_HEADER_LEN;

    fn pkt(state: BfdState) -> BfdPacket {
        BfdPacket {
            state,
            poll: false,
            final_: false,
            detect_mult: 3,
            my_discriminator: 0x11223344,
            your_discriminator: 0x55667788,
            desired_min_tx_us: 100_000,
            required_min_rx_us: 100_000,
        }
    }

    #[test]
    fn packet_is_24_bytes_and_frame_is_66() {
        let bytes = pkt(BfdState::Up).encode();
        assert_eq!(bytes.len(), BFD_PACKET_LEN);
        assert_eq!(
            l2_wire_len(IPV4_HEADER_LEN + UDP_HEADER_LEN + bytes.len()),
            66,
            "must match the paper's Fig. 9 capture"
        );
    }

    #[test]
    fn roundtrip_all_states() {
        for s in [BfdState::AdminDown, BfdState::Down, BfdState::Init, BfdState::Up] {
            let p = pkt(s);
            assert_eq!(BfdPacket::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn poll_final_flags_roundtrip() {
        let mut p = pkt(BfdState::Init);
        p.poll = true;
        p.final_ = true;
        let d = BfdPacket::decode(&p.encode()).unwrap();
        assert!(d.poll && d.final_);
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = pkt(BfdState::Up).encode();
        bytes[0] = 0x40; // version 2
        assert_eq!(BfdPacket::decode(&bytes), Err(WireError::BadVersion(2)));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(BfdPacket::decode(&[0; 23]), Err(WireError::Truncated));
    }
}
