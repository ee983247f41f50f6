//! Parse-once frame metadata.
//!
//! Every data frame used to be re-parsed at every hop: Ethernet header,
//! then IPv4 (checksum validated, payload copied), then — for MR-MTP —
//! the encapsulation header, all to recover a handful of fields the
//! sender knew when it encoded the frame. [`FrameMeta`] is that handful,
//! carried *alongside* the frame bytes through the emulator's
//! delivery path: the encoder attaches it, every hop reads it, and the
//! wire bytes stay the single source of truth.
//!
//! Metadata is strictly advisory and only ever attached by the encoder
//! that produced the frame, so it is truthful by construction. The one
//! in-flight mutation the emulator performs — impairment byte corruption
//! — drops the metadata: the receiver parses the frame and hands what it
//! parsed to the same data path, without the arrival port and repair bit
//! only metadata carries, so such a frame is never locally repaired.
//! With repair off, behavior (and therefore the trace digest) is
//! identical either way: the router crates' tests (`dcn-mrmtp`'s
//! `meshed_tree.rs`, `dcn-bgp`'s `meta_invisible.rs`) run every router
//! with its metadata stripped and compare traces and frames.

use crate::ipv4::IpAddr4;

/// Parsed-at-encode metadata for one frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameMeta {
    /// An MR-MTP keep-alive (the paper's single `0x06` byte).
    MrmtpHello,
    /// An MR-MTP `Data` frame: an IPv4 packet encapsulated with source
    /// and destination ToR VIDs.
    MrmtpData {
        /// Root id of the destination ToR's tree (`dst` VID root).
        dst_root: u8,
        /// The 16-bit flow hash carried in the MR-MTP header.
        flow: u16,
        /// Offset of the encapsulated IPv4 packet from the frame start.
        payload_off: u16,
        /// Destination address of the inner IPv4 packet (for terminal
        /// host delivery without re-parsing the inner header).
        ip_dst: IpAddr4,
        /// Loop guard for local fast reroute: set by the hop that
        /// rerouted this packet around a locally-dead port. A repaired
        /// packet is never repaired again at a later hop; downstream
        /// hops forward it with plain (off-mode) candidate selection.
        /// Always `false` when the `local_repair` knob is off — off-mode
        /// metadata is bit-identical to the pre-repair encoding.
        repaired: bool,
    },
    /// A plain IPv4 data frame (header at [`crate::ETHERNET_HEADER_LEN`]).
    Ipv4Data {
        /// IPv4 destination address.
        dst: IpAddr4,
        /// Full 64-bit [`crate::flow_hash_of`] of the packet. The hash
        /// covers only the 5-tuple — never TTL or checksum — so it is
        /// stable across hops.
        flow: u64,
        /// Current TTL. Each forwarding hop that rewrites the TTL in the
        /// frame bytes attaches fresh metadata with the decremented value.
        ttl: u8,
        /// Loop guard for local fast reroute (see
        /// [`FrameMeta::MrmtpData::repaired`]): at most one repair per
        /// packet, ever.
        repaired: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_is_small_and_copy() {
        // The metadata rides in every queued Deliver event; keep it lean.
        assert!(std::mem::size_of::<FrameMeta>() <= 24);
        let m = FrameMeta::Ipv4Data {
            dst: IpAddr4::new(10, 0, 0, 1),
            flow: 7,
            ttl: 64,
            repaired: false,
        };
        let n = m; // Copy
        assert_eq!(m, n);
    }
}
