//! IP and ASN assignment for a fabric.
//!
//! Reproduces the paper's plan:
//! * rack subnets `192.168.V.0/24`, `V = 11 + global ToR index` (the MR-MTP
//!   VID derivation input), servers at `.1`, `.2`, …, ToR rack interface at
//!   `.254`;
//! * one `/24` under `172.16.0.0/16` per router-to-router link (Listing 3
//!   shows `172.16.0.0/24`, `172.16.8.0/24`, …), with the *upper*-tier end
//!   at `.1` and the lower end at `.2` (Listing 1: T-1's neighbors are all
//!   `.2`);
//! * RFC 7938 ASNs: all top spines share 64512, PoD-`p` spines share
//!   `64513 + p`, ToRs get unique ASNs from 65001 (Listing 1: T-1 is
//!   64512 and peers with 64513…64516 in the 4-PoD fabric).

use dcn_wire::{IpAddr4, Prefix};

use crate::clos::{Fabric, Role};

/// Addresses of the two ends of one router-to-router link.
#[derive(Clone, Copy, Debug)]
pub struct RouterLinkAddr {
    pub subnet: Prefix,
    /// Address of the `a`-side (first) endpoint of `Fabric::links[i]`.
    pub a_addr: IpAddr4,
    /// Address of the `b`-side endpoint.
    pub b_addr: IpAddr4,
}

/// Complete addressing for a fabric.
#[derive(Clone, Debug)]
pub struct Addressing {
    /// Rack subnet per ToR node index (None for non-ToRs).
    rack_subnet: Vec<Option<Prefix>>,
    /// Link addressing per link index (None for server links).
    link_addr: Vec<Option<RouterLinkAddr>>,
    /// ASN per node index (None for servers).
    asn: Vec<Option<u32>>,
    /// Router ID per router node index.
    router_id: Vec<u32>,
}

impl Addressing {
    pub fn new(fabric: &Fabric) -> Addressing {
        let n = fabric.nodes.len();
        let mut rack_subnet = vec![None; n];
        let mut asn = vec![None; n];
        let mut router_id = vec![0u32; n];

        for (i, node) in fabric.nodes.iter().enumerate() {
            match node.role {
                Role::Tor { vid, .. } => {
                    rack_subnet[i] = Some(Prefix::new(IpAddr4::new(192, 168, vid, 0), 24));
                    asn[i] = Some(65001 + (vid as u32 - 11));
                }
                Role::PodSpine { pod, .. } => {
                    asn[i] = Some(64513 + pod as u32);
                }
                Role::ZoneSpine { zone, .. } => {
                    // Zone-level aggregation layer of the four-tier
                    // extension: one AS per zone, above the PoD range.
                    asn[i] = Some(64800 + zone as u32);
                }
                Role::TopSpine { .. } => {
                    asn[i] = Some(64512);
                }
                Role::Server { .. } => {}
            }
            // Router IDs: 10.0.0.x by node index — unique and stable.
            router_id[i] = IpAddr4::new(10, 0, (i >> 8) as u8, (i & 0xFF) as u8).0;
        }

        // One /24 per router-to-router link, allocated by a dense index:
        // 172.(16+i/65536).((i/256)%256).0/24 with i < 256 giving the
        // 172.16.x.0/24 look of Listing 3. The builder emits links as
        // (lower tier, upper tier); Listing 1 puts the upper end at .1.
        let mut link_addr = vec![None; fabric.links.len()];
        let mut idx: u32 = 0;
        for (li, &(a, b)) in fabric.links.iter().enumerate() {
            if !fabric.nodes[a].role.is_router() || !fabric.nodes[b].role.is_router() {
                continue; // rack links use the rack subnet
            }
            let second = 16 + (idx >> 8) as u8;
            let third = (idx & 0xFF) as u8;
            let subnet = Prefix::new(IpAddr4::new(172, second, third, 0), 24);
            debug_assert!(idx < 256 * 240, "link-subnet space exhausted");
            let upper_is_b = fabric.nodes[b].tier > fabric.nodes[a].tier;
            let (a_last, b_last) = if upper_is_b { (2, 1) } else { (1, 2) };
            link_addr[li] = Some(RouterLinkAddr {
                subnet,
                a_addr: IpAddr4::new(172, second, third, a_last),
                b_addr: IpAddr4::new(172, second, third, b_last),
            });
            idx += 1;
        }

        Addressing { rack_subnet, link_addr, asn, router_id }
    }

    /// The rack subnet of a ToR.
    pub fn rack_subnet(&self, node: usize) -> Option<Prefix> {
        self.rack_subnet[node]
    }

    /// The ToR's own address on its rack subnet (`.254`).
    pub fn tor_rack_addr(&self, node: usize) -> Option<IpAddr4> {
        self.rack_subnet[node].map(|p| IpAddr4(p.addr.0 | 254))
    }

    /// Address of server `s` (0-based) on its ToR's rack subnet.
    pub fn server_addr(&self, tor_node: usize, s: usize) -> Option<IpAddr4> {
        self.rack_subnet[tor_node].map(|p| IpAddr4(p.addr.0 | (s as u32 + 1)))
    }

    /// Addressing of a router-to-router link.
    pub fn link(&self, link_idx: usize) -> Option<RouterLinkAddr> {
        self.link_addr[link_idx]
    }

    /// ASN of a router.
    pub fn asn(&self, node: usize) -> Option<u32> {
        self.asn[node]
    }

    /// BGP router ID of a router.
    pub fn router_id(&self, node: usize) -> u32 {
        self.router_id[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clos::ClosParams;

    #[test]
    fn rack_subnets_match_paper() {
        let f = Fabric::build(ClosParams::two_pod());
        let a = Addressing::new(&f);
        assert_eq!(a.rack_subnet(f.tor(0, 0)).unwrap().to_string(), "192.168.11.0/24");
        assert_eq!(a.rack_subnet(f.tor(1, 1)).unwrap().to_string(), "192.168.14.0/24");
        assert_eq!(a.server_addr(f.tor(0, 0), 0).unwrap().to_string(), "192.168.11.1");
        assert_eq!(a.tor_rack_addr(f.tor(0, 0)).unwrap().to_string(), "192.168.11.254");
        assert_eq!(a.rack_subnet(f.pod_spine(0, 0)), None);
    }

    #[test]
    fn asn_plan_matches_listing1() {
        let f = Fabric::build(ClosParams::four_pod());
        let a = Addressing::new(&f);
        assert_eq!(a.asn(f.top_spine(0)), Some(64512));
        assert_eq!(a.asn(f.top_spine(3)), Some(64512));
        assert_eq!(a.asn(f.pod_spine(0, 0)), Some(64513));
        assert_eq!(a.asn(f.pod_spine(3, 1)), Some(64516));
        assert_eq!(a.asn(f.tor(0, 0)), Some(65001));
        assert_eq!(a.asn(f.server(0, 0, 0)), None);
    }

    #[test]
    fn link_addressing_upper_end_is_dot1() {
        let f = Fabric::build(ClosParams::two_pod());
        let a = Addressing::new(&f);
        // Link 0 is (S-1-1, T-1): b = top spine = upper ⇒ b gets .1.
        let la = a.link(0).unwrap();
        assert_eq!(la.b_addr.octets()[3], 1);
        assert_eq!(la.a_addr.octets()[3], 2);
        assert!(la.subnet.contains(la.a_addr));
        assert!(la.subnet.contains(la.b_addr));
    }

    #[test]
    fn link_subnets_are_unique() {
        let f = Fabric::build(ClosParams::scaled(8).unwrap());
        let a = Addressing::new(&f);
        let mut seen = std::collections::HashSet::new();
        for li in 0..f.links.len() {
            if let Some(la) = a.link(li) {
                assert!(seen.insert(la.subnet.normalized().addr.0), "dup {:?}", la.subnet);
            }
        }
    }

    #[test]
    fn server_links_have_no_link_addressing() {
        let f = Fabric::build(ClosParams::two_pod());
        let a = Addressing::new(&f);
        // The last links are rack links.
        let last = f.links.len() - 1;
        assert!(a.link(last).is_none());
    }

    #[test]
    fn router_ids_are_unique() {
        let f = Fabric::build(ClosParams::four_pod());
        let a = Addressing::new(&f);
        let mut ids: Vec<u32> = f.routers().map(|r| a.router_id(r)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), f.num_routers());
    }
}
