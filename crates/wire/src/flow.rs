//! Flow hashing for equal-cost load balancing.
//!
//! Both MR-MTP's "hash algorithm to load balance traffic from a downstream
//! router to upstream routers" and the BGP/ECMP data plane pick among
//! equal candidates with the same deterministic FNV-1a hash over the IP
//! 5-tuple. Sharing one function lets the experiment harness choose
//! generator ports so the monitored flow transits the failure chain
//! (ToR₁₁ → S1_1 → S2_1), exactly as the paper's test design requires.

use crate::ipv4::{IpAddr4, Ipv4View, IPPROTO_TCP, IPPROTO_UDP};

/// FNV-1a over the 5-tuple.
pub fn flow_hash(src: IpAddr4, dst: IpAddr4, proto: u8, src_port: u16, dst_port: u16) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in src.0.to_be_bytes() {
        eat(b);
    }
    for b in dst.0.to_be_bytes() {
        eat(b);
    }
    eat(proto);
    for b in src_port.to_be_bytes() {
        eat(b);
    }
    for b in dst_port.to_be_bytes() {
        eat(b);
    }
    h
}

/// Flow hash of an already-parsed IPv4 packet (ports extracted from the
/// first four payload bytes for TCP/UDP, zero otherwise).
pub fn flow_hash_of(pkt: &Ipv4View<'_>) -> u64 {
    let (sp, dp) = if (pkt.protocol == IPPROTO_TCP || pkt.protocol == IPPROTO_UDP)
        && pkt.payload.len() >= 4
    {
        (
            u16::from_be_bytes([pkt.payload[0], pkt.payload[1]]),
            u16::from_be_bytes([pkt.payload[2], pkt.payload[3]]),
        )
    } else {
        (0, 0)
    };
    flow_hash(pkt.src, pkt.dst, pkt.protocol, sp, dp)
}

/// Pick an index into `n` equal-cost candidates for a given flow hash.
#[inline]
pub fn ecmp_index(hash: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    (hash % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_tuple_sensitive() {
        let a = IpAddr4::new(192, 168, 11, 1);
        let b = IpAddr4::new(192, 168, 14, 1);
        let h1 = flow_hash(a, b, IPPROTO_UDP, 5000, 6000);
        assert_eq!(h1, flow_hash(a, b, IPPROTO_UDP, 5000, 6000));
        assert_ne!(h1, flow_hash(a, b, IPPROTO_UDP, 5001, 6000));
        assert_ne!(h1, flow_hash(b, a, IPPROTO_UDP, 5000, 6000));
    }

    #[test]
    fn hash_of_packet_reads_l4_ports() {
        let mut payload = vec![0u8; 8];
        payload[0..2].copy_from_slice(&5000u16.to_be_bytes());
        payload[2..4].copy_from_slice(&6000u16.to_be_bytes());
        let bytes = crate::Ipv4Packet::new(
            IpAddr4::new(1, 1, 1, 1),
            IpAddr4::new(2, 2, 2, 2),
            IPPROTO_UDP,
            payload,
        )
        .encode();
        let pkt = crate::Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(
            flow_hash_of(&pkt),
            flow_hash(pkt.src, pkt.dst, IPPROTO_UDP, 5000, 6000)
        );
    }

    #[test]
    fn ecmp_index_in_range_and_spread() {
        let a = IpAddr4::new(10, 0, 0, 1);
        let b = IpAddr4::new(10, 0, 0, 2);
        let mut hits = [0u32; 4];
        for sp in 0..4000u16 {
            let h = flow_hash(a, b, IPPROTO_UDP, sp, 80);
            hits[ecmp_index(h, 4)] += 1;
        }
        for &c in &hits {
            assert!(c > 700, "ECMP should spread flows roughly evenly: {hits:?}");
        }
    }
}
