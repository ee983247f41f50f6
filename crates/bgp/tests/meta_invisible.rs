//! BGP, with and without BFD, acts on frame metadata exactly as it acts
//! on the decoded frame, and repairs only frames whose metadata carries
//! the repair bit.

#[path = "../../core/tests/support/strip_meta.rs"]
mod strip_meta;

use dcn_bgp::{BgpConfig, BgpRouter, PeerConfig};
use dcn_sim::{PortId, Protocol};
use dcn_topology::{Addressing, ClosParams, Fabric, PortKind};
use strip_meta::{assert_bare_frames_never_repaired, assert_invisible};

/// The RFC 7938 router of fabric node `i`: an eBGP session per fabric
/// link, and on a ToR its rack subnet and server ports.
fn router(fabric: &Fabric, addr: &Addressing, i: usize, bfd: bool) -> Box<dyn Protocol> {
    Box::new(BgpRouter::new(config(fabric, addr, i, bfd)))
}

/// [`router`] with local fast reroute on.
fn repairing(fabric: &Fabric, addr: &Addressing, i: usize, bfd: bool) -> Box<dyn Protocol> {
    Box::new(BgpRouter::new(BgpConfig { local_repair: true, ..config(fabric, addr, i, bfd) }))
}

/// The configuration [`router`] builds.
fn config(fabric: &Fabric, addr: &Addressing, i: usize, bfd: bool) -> BgpConfig {
    let name = fabric.nodes[i].name.clone();
    let mut cfg = BgpConfig::new(name, addr.asn(i).unwrap(), addr.router_id(i));
    if bfd {
        cfg = cfg.with_bfd();
    }
    for (pi, pr) in fabric.ports[i].iter().enumerate() {
        let port = PortId(pi as u16);
        if pr.kind == PortKind::Host {
            let s = cfg.host_ports.len();
            cfg.host_ports.push((addr.server_addr(i, s).unwrap(), port));
            continue;
        }
        let la = addr.link(pr.link).unwrap();
        let (local_ip, peer_ip) = if fabric.links[pr.link].0 == i {
            (la.a_addr, la.b_addr)
        } else {
            (la.b_addr, la.a_addr)
        };
        cfg =
            cfg.peer(PeerConfig { port, local_ip, peer_ip, peer_asn: addr.asn(pr.peer).unwrap() });
    }
    if let Some(rack) = addr.rack_subnet(i) {
        cfg = cfg.originating(rack);
        cfg.rack_subnet = Some(rack);
    }
    cfg
}

#[test]
fn metadata_is_invisible_to_bgp() {
    assert_invisible("bgp", ClosParams::two_pod(), &|f, a, i| router(f, a, i, false));
}

#[test]
fn metadata_is_invisible_to_bgp_with_bfd() {
    assert_invisible("bgp-bfd", ClosParams::two_pod(), &|f, a, i| router(f, a, i, true));
}

#[test]
fn bgp_never_repairs_a_bare_frame() {
    let router = |f: &Fabric, a: &Addressing, i| repairing(f, a, i, false);
    assert_bare_frames_never_repaired("bgp", ClosParams::two_pod(), &router);
}

#[test]
fn bgp_with_bfd_never_repairs_a_bare_frame() {
    let router = |f: &Fabric, a: &Addressing, i| repairing(f, a, i, true);
    assert_bare_frames_never_repaired("bgp-bfd", ClosParams::two_pod(), &router);
}
