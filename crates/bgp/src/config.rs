//! BGP router configuration (the programmatic form of Listing 1).

use dcn_sim::time::{millis, Duration};
use dcn_sim::PortId;
use dcn_wire::{IpAddr4, Prefix};

/// One eBGP neighbor, bound to the point-to-point link on `port`.
#[derive(Clone, Copy, Debug)]
pub struct PeerConfig {
    pub port: PortId,
    pub local_ip: IpAddr4,
    pub peer_ip: IpAddr4,
    pub peer_asn: u32,
}

impl PeerConfig {
    /// Deterministic active/passive role: the lower address initiates the
    /// TCP connection (avoids the RFC 4271 collision dance).
    pub fn is_active(&self) -> bool {
        self.local_ip < self.peer_ip
    }
}

/// Full configuration of one BGP router.
#[derive(Clone, Debug)]
pub struct BgpConfig {
    pub name: String,
    pub asn: u32,
    pub router_id: u32,
    /// Enable per-session BFD (the paper's third stack).
    pub bfd: bool,
    /// Paper: `transmit-interval 100` (ms).
    pub bfd_tx_interval: Duration,
    pub peers: Vec<PeerConfig>,
    /// Prefixes originated locally (a ToR's rack subnet).
    pub originate: Vec<Prefix>,
    /// ToR only: the rack subnet and its server→port map.
    pub rack_subnet: Option<Prefix>,
    pub host_ports: Vec<(IpAddr4, PortId)>,
    /// Local fast reroute: when the hashed ECMP member is locally dead,
    /// re-spread over surviving members, then over the precomputed
    /// next-best backup set — in the data plane, before BFD/hold timers
    /// notice. At most one repair per packet: the repair bit rides in the
    /// frame metadata, so a frame whose metadata the engine dropped
    /// (corrupted in flight) is forwarded unrepaired. Off by default so
    /// baseline behavior — and the trace digest — is exactly the
    /// pre-repair protocol.
    pub local_repair: bool,
}

impl BgpConfig {
    /// A router with the paper's BFD interval and no peers yet. The BGP
    /// timers are the constants [`crate::KEEPALIVE_INTERVAL`],
    /// [`crate::HOLD_TIME`] and [`crate::CONNECT_RETRY`].
    pub fn new(name: impl Into<String>, asn: u32, router_id: u32) -> BgpConfig {
        BgpConfig {
            name: name.into(),
            asn,
            router_id,
            bfd: false,
            bfd_tx_interval: millis(100),
            peers: Vec::new(),
            originate: Vec::new(),
            rack_subnet: None,
            host_ports: Vec::new(),
            local_repair: false,
        }
    }

    pub fn with_bfd(mut self) -> BgpConfig {
        self.bfd = true;
        self
    }

    pub fn peer(mut self, p: PeerConfig) -> BgpConfig {
        self.peers.push(p);
        self
    }

    pub fn originating(mut self, prefix: Prefix) -> BgpConfig {
        self.originate.push(prefix);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HOLD_TIME, KEEPALIVE_INTERVAL};
    use dcn_sim::time::{secs, MILLIS, SECONDS};
    use dcn_topology::config::bgp_router_config;
    use dcn_topology::{Addressing, ClosParams, Fabric};

    #[test]
    fn active_role_is_lower_address() {
        let p = PeerConfig {
            port: PortId(0),
            local_ip: IpAddr4::new(172, 16, 0, 1),
            peer_ip: IpAddr4::new(172, 16, 0, 2),
            peer_asn: 64512,
        };
        assert!(p.is_active());
        let q = PeerConfig { local_ip: p.peer_ip, peer_ip: p.local_ip, ..p };
        assert!(!q.is_active());
    }

    #[test]
    fn default_timers_match_listing1() {
        let c = BgpConfig::new("T-1", 64512, 1);
        assert_eq!(KEEPALIVE_INTERVAL, secs(1));
        assert_eq!(HOLD_TIME, secs(3));
        assert_eq!(c.bfd_tx_interval, millis(100));
        assert!(!c.bfd);
        assert!(BgpConfig::new("x", 1, 2).with_bfd().bfd);
    }

    /// The rendered Listing 1 and the emulated router agree: the
    /// `timers bgp` line prints the session constants and the BFD
    /// profile the default transmit interval.
    #[test]
    fn rendered_listing1_matches_the_router_timers() {
        let fabric = Fabric::build(ClosParams::four_pod());
        let addr = Addressing::new(&fabric);
        let cfg = bgp_router_config(&fabric, &addr, fabric.top_spine(0), true);
        let words = |prefix: &str| -> Vec<u64> {
            let line = cfg.lines().map(str::trim).find(|l| l.starts_with(prefix));
            let line = line.unwrap_or_else(|| panic!("no `{prefix}` line:\n{cfg}"));
            line[prefix.len()..].split_whitespace().map(|w| w.parse().unwrap()).collect()
        };
        assert_eq!(words("timers bgp "), [KEEPALIVE_INTERVAL / SECONDS, HOLD_TIME / SECONDS]);
        let bfd_tx = BgpConfig::new("T-1", 64512, 1).bfd_tx_interval;
        assert_eq!(words("transmit-interval "), [bfd_tx / MILLIS]);
    }
}
