//! # dcn-wire — byte-accurate packet formats
//!
//! Wire formats for every protocol appearing in the paper's captures:
//!
//! | Layer | Format | Where the paper shows it |
//! |---|---|---|
//! | L2 | Ethernet II | Figs. 9–10 (captures) |
//! | L3 | IPv4 (with real header checksum) | BGP/BFD transport |
//! | L4 | UDP | BFD (RFC 5880 carries BFD in UDP/3784) |
//! | L4 | TCP (with 12-byte timestamp options) | BGP sessions — yields the 85-byte keepalive frame of Fig. 9 |
//! | app | BGP OPEN/UPDATE/KEEPALIVE/NOTIFICATION | Fig. 6 control overhead |
//! | app | BFD control packet (24 bytes → 66-byte frame) | Fig. 9 |
//! | app | MR-MTP messages (EtherType 0x8850, 1-byte hello `0x06`) | Fig. 10 |
//!
//! Byte sizes matter here: the paper's control-overhead and keep-alive
//! figures are byte counts of captured frames, so encoders produce the
//! exact on-wire layouts and decoders validate them. Round-trip encoding
//! is covered by unit tests and proptest generators.

#![forbid(unsafe_code)]

pub mod bfd;
pub mod bgp;
pub mod error;
pub mod ethernet;
pub mod flow;
pub mod framebuf;
pub mod ipv4;
pub mod meta;
pub mod mrmtp;
pub mod tcp;
pub mod udp;

/// Front-to-back writer over a slice, for the in-place `put` encoders.
pub(crate) struct Put<'a>(pub(crate) &'a mut [u8]);

impl Put<'_> {
    #[inline]
    pub(crate) fn put(&mut self, bytes: &[u8]) {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        self.0 = rest;
    }
}

pub use bfd::{BfdPacket, BfdState, BFD_CTRL_PORT, BFD_PACKET_LEN};
pub use bgp::{AsPathIter, BgpMessage, BgpUpdate, Prefixes, UpdateView, BGP_HEADER_LEN, BGP_PORT};
pub use error::WireError;
pub use ethernet::{
    l2_wire_len, EtherType, EthernetFrame, EthernetView, MacAddr, ETHERNET_HEADER_LEN,
    MIN_FRAME_LEN,
};
pub use flow::{ecmp_index, flow_hash, flow_hash_of};
pub use framebuf::FrameBuf;
pub use ipv4::{
    internet_checksum, IpAddr4, Ipv4Packet, Ipv4View, Prefix, IPPROTO_TCP, IPPROTO_UDP,
    IPV4_HEADER_LEN,
};
pub use meta::FrameMeta;
pub use mrmtp::{MrmtpMsg, MrmtpView, Vid, Vids, MRMTP_ETHERTYPE, MRMTP_HELLO_BYTE, VID_MAX_LEN};
pub use tcp::{TcpFlags, TcpSegment, TcpView, TCP_HEADER_LEN};
pub use udp::{UdpDatagram, UdpView, UDP_HEADER_LEN};
