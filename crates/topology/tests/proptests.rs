//! Property tests: structural invariants of generated fabrics hold for
//! arbitrary (valid) Clos parameters, three tiers and four.

use proptest::prelude::*;

use dcn_topology::{Addressing, ClosParams, Fabric, FailureCase, PortKind, Role, Zones};

/// Half the draws have a zone layer (zone counts 2 and 3; the shapes
/// whose PoDs do not split into them are invalid and skipped).
fn arb_params() -> impl Strategy<Value = ClosParams> {
    let widths = (2usize..=6, 1usize..=3, 1usize..=4, 1usize..=3, 1usize..=2);
    (widths, (0usize..=3, 1usize..=2)).prop_map(
        |((pods, spines, tors, uplinks, servers), (zones, zone_uplinks))| ClosParams {
            pods,
            spines_per_pod: spines,
            tors_per_pod: tors,
            uplinks_per_spine: uplinks,
            servers_per_tor: servers,
            zones: (zones >= 2).then_some(Zones { count: zones, uplinks: zone_uplinks }),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node_and_link_counts_are_consistent(p in arb_params()) {
        prop_assume!(p.validate().is_ok());
        let f = Fabric::build(p);
        prop_assert_eq!(f.nodes.len(), p.num_routers() + p.num_servers());
        let zone_links =
            p.zones.map_or(0, |z| z.count * p.spines_per_pod * p.uplinks_per_spine * z.uplinks);
        let expect_links = p.pods * p.spines_per_pod * p.uplinks_per_spine
            + zone_links
            + p.pods * p.tors_per_pod * p.spines_per_pod
            + p.num_servers();
        prop_assert_eq!(f.links.len(), expect_links);
    }

    #[test]
    fn every_port_backref_is_consistent(p in arb_params()) {
        prop_assume!(p.validate().is_ok());
        let f = Fabric::build(p);
        for (li, &(a, b)) in f.links.iter().enumerate() {
            let pa = f.ports[a].iter().find(|pr| pr.link == li).expect("a backref");
            let pb = f.ports[b].iter().find(|pr| pr.link == li).expect("b backref");
            prop_assert_eq!(pa.peer, b);
            prop_assert_eq!(pb.peer, a);
        }
    }

    #[test]
    fn router_port_order_is_up_down_host(p in arb_params()) {
        prop_assume!(p.validate().is_ok());
        let f = Fabric::build(p);
        for n in f.routers() {
            let mut seen_down = false;
            let mut seen_host = false;
            for pr in &f.ports[n] {
                match pr.kind {
                    PortKind::Up => {
                        prop_assert!(!seen_down && !seen_host, "up ports come first");
                    }
                    PortKind::Down => {
                        prop_assert!(!seen_host, "down ports precede host ports");
                        seen_down = true;
                    }
                    PortKind::Host => seen_host = true,
                }
            }
        }
    }

    #[test]
    fn tor_vids_are_unique_and_sequential(p in arb_params()) {
        prop_assume!(p.validate().is_ok());
        let f = Fabric::build(p);
        let mut vids = Vec::new();
        for n in f.routers() {
            if let Role::Tor { vid, .. } = f.nodes[n].role {
                vids.push(vid);
            }
        }
        let expect: Vec<u8> = (0..p.num_tors()).map(|i| 11 + i as u8).collect();
        prop_assert_eq!(vids, expect);
    }

    #[test]
    fn strided_wiring_covers_every_top_spine_once_per_pod(p in arb_params()) {
        prop_assume!(p.validate().is_ok() && p.zones.is_none());
        let f = Fabric::build(p);
        for k in 0..p.top_spines() {
            let t = f.top_spine(k);
            prop_assert_eq!(f.ports[t].len(), p.pods, "one down-link per PoD");
            for (pod, pr) in f.ports[t].iter().enumerate() {
                // Strided: top spine k connects to pod spine (k mod S).
                prop_assert_eq!(pr.peer, f.pod_spine(pod, k % p.spines_per_pod));
            }
        }
    }

    #[test]
    fn zone_layers_are_strided_like_the_top_tier(p in arb_params()) {
        prop_assume!(p.validate().is_ok() && p.zones.is_some());
        let z = p.zones.unwrap();
        let f = Fabric::build(p);
        let width = p.spines_per_pod * p.uplinks_per_spine;
        let pods_per_zone = p.pods / z.count;
        let down = |n: usize| -> Vec<usize> {
            f.ports[n].iter().filter(|pr| pr.kind == PortKind::Down).map(|pr| pr.peer).collect()
        };
        for k in 0..p.top_spines() {
            let want: Vec<usize> = (0..z.count).map(|zone| f.zone_spine(zone, k % width)).collect();
            prop_assert_eq!(down(f.top_spine(k)), want, "one down-link per zone");
        }
        for zone in 0..z.count {
            for m in 0..width {
                let want: Vec<usize> = (0..pods_per_zone)
                    .map(|i| f.pod_spine(zone * pods_per_zone + i, m % p.spines_per_pod))
                    .collect();
                prop_assert_eq!(down(f.zone_spine(zone, m)), want, "one down-link per PoD in the zone");
            }
        }
    }

    #[test]
    fn failure_points_are_valid_interfaces(p in arb_params()) {
        prop_assume!(p.validate().is_ok());
        let f = Fabric::build(p);
        for tc in FailureCase::ALL {
            let (node, port) = f.failure_point(tc);
            prop_assert!(port < f.ports[node].len());
            prop_assert!(f.nodes[node].role.is_router());
        }
    }

    #[test]
    fn addressing_is_complete_and_unique(p in arb_params()) {
        prop_assume!(p.validate().is_ok());
        let f = Fabric::build(p);
        let a = Addressing::new(&f);
        let mut subnets = std::collections::HashSet::new();
        for n in f.routers() {
            prop_assert!(a.asn(n).is_some());
            if matches!(f.nodes[n].role, Role::Tor { .. }) {
                let rack = a.rack_subnet(n).expect("rack subnet");
                prop_assert!(subnets.insert(rack.normalized().addr.0), "unique rack");
            }
        }
        for li in 0..f.links.len() {
            if let Some(la) = a.link(li) {
                prop_assert!(subnets.insert(la.subnet.normalized().addr.0), "unique link subnet");
                prop_assert_ne!(la.a_addr, la.b_addr);
            }
        }
    }

    #[test]
    fn every_server_has_an_address_behind_its_tor(p in arb_params()) {
        prop_assume!(p.validate().is_ok());
        let f = Fabric::build(p);
        let a = Addressing::new(&f);
        for pod in 0..p.pods {
            for t in 0..p.tors_per_pod {
                let tor = f.tor(pod, t);
                let rack = a.rack_subnet(tor).unwrap();
                for s in 0..p.servers_per_tor {
                    let ip = a.server_addr(tor, s).expect("server address");
                    prop_assert!(rack.contains(ip));
                }
            }
        }
    }
}
