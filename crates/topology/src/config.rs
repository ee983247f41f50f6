//! Router-configuration rendering — the paper's §VII-G comparison.
//!
//! BGP needs one configuration *per router*, growing with its interface
//! count (Listing 1); MR-MTP needs a single JSON file for the whole fabric
//! that tells each node its tier and each leaf its rack-facing interface
//! (Listing 2). [`ConfigStats`] quantifies the gap.

use crate::addressing::Addressing;
use crate::clos::{Fabric, PortKind, Role};

/// Render the FRR-style BGP configuration for one router, in the shape of
/// the paper's Listing 1 (datacenter defaults, per-neighbor BFD peers with
/// a lowered-interval profile).
pub fn bgp_router_config(fabric: &Fabric, addr: &Addressing, node: usize, bfd: bool) -> String {
    let spec = &fabric.nodes[node];
    assert!(spec.role.is_router(), "servers do not run BGP");
    let asn = addr.asn(node).expect("router has an ASN");
    let mut out = String::new();
    out.push_str("frr version 10.0\n");
    out.push_str("frr defaults datacenter\n");
    out.push_str(&format!("hostname {}\n", spec.name));
    out.push_str("log file /var/log/frr/bgpd.log\n");
    out.push_str("log timestamp precision 3\n");
    out.push_str("no ipv6 forwarding\n");
    out.push_str("debug bgp updates in\ndebug bgp updates out\ndebug bgp updates detail\n");
    out.push_str(&format!("router bgp {asn}\n"));
    out.push_str(" timers bgp 1 3\n");
    let mut peers = Vec::new();
    for port in &fabric.ports[node] {
        if matches!(port.kind, PortKind::Host) {
            continue;
        }
        let la = addr.link(port.link).expect("router link has addressing");
        let (a, _) = fabric.links[port.link];
        let peer_ip = if a == node { la.b_addr } else { la.a_addr };
        let peer_as = addr.asn(port.peer).expect("peer is a router");
        out.push_str(&format!(" neighbor {peer_ip} remote-as {peer_as}\n"));
        if bfd {
            out.push_str(&format!(" neighbor {peer_ip} bfd\n"));
        }
        peers.push(peer_ip);
    }
    // Originate the rack subnet on ToRs.
    if let Some(rack) = addr.rack_subnet(node) {
        out.push_str(" address-family ipv4 unicast\n");
        out.push_str(&format!("  network {rack}\n"));
        out.push_str("  maximum-paths 64\n");
        out.push_str(" exit-address-family\n");
    } else {
        out.push_str(" address-family ipv4 unicast\n");
        out.push_str("  maximum-paths 64\n");
        out.push_str(" exit-address-family\n");
    }
    if bfd {
        out.push_str(
            "bfd\n profile lowerIntervals\n  transmit-interval 100\n  receive-interval 100\n",
        );
        for peer_ip in peers {
            out.push_str(&format!(" peer {peer_ip}\n  profile lowerIntervals\n"));
        }
    }
    out
}

/// Render the single MR-MTP fabric configuration file, in the shape of the
/// paper's Listing 2: leaf list, the leaf→rack-interface dictionary, top
/// spines, per-zone spine lists (four-tier fabrics only) and per-PoD spine
/// lists. Nodes learn everything else (VIDs, neighbors, trees) from the
/// protocol itself. The shape is fixed, so the JSON is written directly;
/// node names need no escaping.
pub fn mrmtp_fabric_config(fabric: &Fabric) -> String {
    let name = |n: usize| format!("\"{}\"", fabric.nodes[n].name);
    let list = |nodes: &mut dyn Iterator<Item = usize>| {
        format!("[{}]", nodes.map(name).collect::<Vec<_>>().join(", "))
    };
    let leaves = || fabric.routers().filter(|&n| matches!(fabric.nodes[n].role, Role::Tor { .. }));
    // Which interface on each leaf faces the rack (the only per-node fact
    // MR-MTP cannot self-derive).
    let leaf_ports: Vec<String> = leaves()
        .map(|n| {
            let rack_port = fabric.ports[n].iter().position(|p| matches!(p.kind, PortKind::Host));
            format!("      {}: \"eth{}\"", name(n), rack_port.expect("every leaf has a rack port"))
        })
        .collect();
    let p = fabric.params;
    let groups = |key: &str, count: usize, width: usize, node: &dyn Fn(usize, usize) -> usize| {
        let groups: Vec<String> = (0..count)
            .map(|g| {
                let spines = list(&mut (0..width).map(|j| node(g, j)));
                format!("      {{\n        \"{key}\": {spines}\n      }}")
            })
            .collect();
        groups.join(",\n")
    };
    let mut out = String::from("{\n  \"topology\": {\n");
    out += &format!("    \"leaves\": {},\n", list(&mut leaves()));
    out += &format!("    \"leavesNetworkPortDict\": {{\n{}\n    }},\n", leaf_ports.join(",\n"));
    let top = list(&mut (0..p.top_spines()).map(|k| fabric.top_spine(k)));
    out += &format!("    \"topSpines\": {top},\n");
    if let Some(z) = p.zones {
        let zones = groups("zoneSpines", z.count, p.plane_width(), &|g, j| fabric.zone_spine(g, j));
        out += &format!("    \"zones\": [\n{zones}\n    ],\n");
    }
    let pods = groups("podSpines", p.pods, p.spines_per_pod, &|g, j| fabric.pod_spine(g, j));
    out += &format!("    \"pods\": [\n{pods}\n    ]\n");
    out + "  }\n}"
}

/// Configuration-burden statistics for the §VII-G comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigStats {
    pub routers: usize,
    /// Total configuration bytes across the fabric.
    pub total_bytes: usize,
    /// Total non-empty configuration lines across the fabric.
    pub total_lines: usize,
}

impl ConfigStats {
    /// Stats for configuring the whole fabric with BGP (one file per
    /// router).
    pub fn for_bgp(fabric: &Fabric, addr: &Addressing, bfd: bool) -> ConfigStats {
        let mut total_bytes = 0;
        let mut total_lines = 0;
        let mut routers = 0;
        for n in fabric.routers() {
            let cfg = bgp_router_config(fabric, addr, n, bfd);
            total_bytes += cfg.len();
            total_lines += cfg.lines().filter(|l| !l.trim().is_empty()).count();
            routers += 1;
        }
        ConfigStats { routers, total_bytes, total_lines }
    }

    /// Stats for configuring the whole fabric with MR-MTP (one shared
    /// file).
    pub fn for_mrmtp(fabric: &Fabric) -> ConfigStats {
        let cfg = mrmtp_fabric_config(fabric);
        ConfigStats {
            routers: fabric.num_routers(),
            total_bytes: cfg.len(),
            total_lines: cfg.lines().filter(|l| !l.trim().is_empty()).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clos::ClosParams;

    fn four_pod() -> (Fabric, Addressing) {
        let f = Fabric::build(ClosParams::four_pod());
        let a = Addressing::new(&f);
        (f, a)
    }

    #[test]
    fn t1_config_matches_listing1_shape() {
        let (f, a) = four_pod();
        let cfg = bgp_router_config(&f, &a, f.top_spine(0), true);
        assert!(cfg.contains("router bgp 64512"));
        assert!(cfg.contains("timers bgp 1 3"));
        // T-1 peers with one spine per PoD: four neighbors, ASes 64513-16.
        for asn in [64513, 64514, 64515, 64516] {
            assert!(cfg.contains(&format!("remote-as {asn}")), "missing {asn}:\n{cfg}");
        }
        assert_eq!(cfg.matches("remote-as").count(), 4);
        assert_eq!(cfg.matches(" bfd\n").count(), 4);
        assert!(cfg.contains("profile lowerIntervals"));
        assert!(cfg.contains("transmit-interval 100"));
    }

    #[test]
    fn tor_config_originates_rack_subnet() {
        let (f, a) = four_pod();
        let cfg = bgp_router_config(&f, &a, f.tor(0, 0), false);
        assert!(cfg.contains("network 192.168.11.0/24"));
        assert!(!cfg.contains("bfd"));
        assert_eq!(cfg.matches("remote-as").count(), 2, "ToR has two uplinks");
    }

    #[test]
    fn mrmtp_config_matches_listing2_shape() {
        let (f, _) = four_pod();
        let cfg = mrmtp_fabric_config(&f);
        assert!(cfg.contains("\"leaves\""));
        assert!(cfg.contains("\"leavesNetworkPortDict\""));
        assert!(cfg.contains("\"topSpines\": [\"T-1\", \"T-2\", \"T-3\", \"T-4\"]"));
        assert!(cfg.contains("\"L-4-2\""));
        assert_eq!(cfg.matches("podSpines").count(), 4);
        // Every leaf's rack port is its third interface (two uplinks
        // first).
        assert!(cfg.contains("\"L-1-1\": \"eth2\""));
    }

    /// Listing 2 names every router of the fabric exactly once, the zone
    /// spines of a four-tier fabric included.
    #[test]
    fn mrmtp_config_names_every_router_once() {
        let shapes = [
            ClosParams::two_pod(),
            ClosParams::four_pod(),
            ClosParams::scaled(16).unwrap(),
            ClosParams::four_tier(),
        ];
        for params in shapes {
            let f = Fabric::build(params);
            let cfg = mrmtp_fabric_config(&f);
            // Leaves appear twice: in the leaf list and as a key of the
            // rack-port dictionary.
            let dict_start = cfg.find("\"leavesNetworkPortDict\"").unwrap();
            let dict_end = dict_start + cfg[dict_start..].find('}').unwrap();
            let listed = format!("{}{}", &cfg[..dict_start], &cfg[dict_end..]);
            for n in f.routers() {
                let quoted = format!("\"{}\"", f.nodes[n].name);
                assert_eq!(listed.matches(&quoted).count(), 1, "{quoted} in {params:?}:\n{cfg}");
            }
            assert_eq!(ConfigStats::for_mrmtp(&f).routers, f.routers().count());
        }
    }

    #[test]
    fn config_burden_gap_grows_with_fabric() {
        let f2 = Fabric::build(ClosParams::two_pod());
        let addr2 = Addressing::new(&f2);
        let (f4, addr4) = four_pod();
        let bgp2 = ConfigStats::for_bgp(&f2, &addr2, true);
        let bgp4 = ConfigStats::for_bgp(&f4, &addr4, true);
        let mtp2 = ConfigStats::for_mrmtp(&f2);
        let mtp4 = ConfigStats::for_mrmtp(&f4);
        // BGP config grows with routers and interfaces; MR-MTP's single
        // file is far smaller, and the gap widens from 2-PoD to 4-PoD.
        assert!(bgp2.total_bytes > 4 * mtp2.total_bytes);
        assert!(bgp4.total_bytes > 4 * mtp4.total_bytes);
        assert!(
            bgp4.total_bytes as f64 / mtp4.total_bytes as f64
                > bgp2.total_bytes as f64 / mtp2.total_bytes as f64
        );
        assert!(bgp4.total_lines > bgp2.total_lines);
    }
}
