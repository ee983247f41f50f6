//! MR-MTP router configuration.
//!
//! The paper's §VII-G point is that MR-MTP needs almost none: a router is
//! told its **tier**, and a ToR additionally which interface faces the
//! rack (from which it derives its VID via the rack subnet). Everything
//! else — VIDs, trees, neighbors, routes — is learned by the protocol.

use dcn_sim::time::{millis, Duration};
use dcn_sim::PortId;
use dcn_wire::{IpAddr4, Prefix};

/// Protocol timers. Defaults are the values used in the paper's
/// evaluation (§VI-F).
#[derive(Clone, Copy, Debug)]
pub struct MrmtpTimers {
    /// Hello interval on idle links (paper: 50 ms).
    pub hello_interval: Duration,
    /// Dead interval — "assume a neighbor down on missing a single hello"
    /// (paper: 100 ms).
    pub dead_interval: Duration,
    /// Slow-to-Accept: consecutive hellos required to re-accept a
    /// previously failed neighbor (paper: 3).
    pub accept_hellos: u32,
    /// Hold-down applied to loss updates arriving from upper-tier
    /// neighbors, letting reports from all uplinks aggregate before the
    /// router decides between installing negative entries (partial upward
    /// loss) and propagating the loss downward (no upward path left).
    pub loss_holddown: Duration,
    /// Periodic re-advertisement, a self-healing backstop: every router
    /// re-sends its whole advertisement on every port at this period, in
    /// steady state too, so the tree's traffic is hellos plus this. It
    /// repairs state the event-driven updates leave wrong; ROADMAP item
    /// 15 records what breaks without it.
    pub advertise_interval: Duration,
}

impl Default for MrmtpTimers {
    fn default() -> Self {
        MrmtpTimers {
            hello_interval: millis(50),
            dead_interval: millis(100),
            accept_hellos: 3,
            loss_holddown: millis(2),
            advertise_interval: millis(1000),
        }
    }
}

/// ToR-specific configuration.
#[derive(Clone, Debug)]
pub struct TorConfig {
    /// The rack subnet the ToR shares with its servers; the VID is derived
    /// from its third octet (paper §III-A).
    pub rack_subnet: Prefix,
    /// Rack-facing ports and the server address behind each (the paper's
    /// `leavesNetworkPortDict` entry for this leaf, extended to multiple
    /// servers).
    pub host_ports: Vec<(IpAddr4, PortId)>,
}

impl TorConfig {
    /// The auto-derived root VID (paper §III-A: "the third byte in the
    /// subnet IP address that the ToR shares with servers in its rack").
    pub fn derive_vid(&self) -> u8 {
        self.rack_subnet.addr.third_octet()
    }
}

/// Full configuration of one MR-MTP router.
#[derive(Clone, Debug)]
pub struct MrmtpConfig {
    /// Human-readable name (used in printed tables).
    pub name: String,
    /// Tier in the folded-Clos (1 = ToR).
    pub tier: u8,
    /// Present on ToRs only.
    pub tor: Option<TorConfig>,
    pub timers: MrmtpTimers,
    /// Local fast reroute: let the data plane steer a packet around a
    /// locally-dead egress using the precomputed backup FIB, without
    /// waiting for the control plane. At most one repair per packet: the
    /// repair bit rides in the frame metadata, so a frame whose metadata
    /// the engine dropped (corrupted in flight) is forwarded unrepaired,
    /// and so is every packet at a router of more than 128 ports. Off by
    /// default so the baseline behavior — and the trace digest — is
    /// exactly the pre-repair protocol.
    pub local_repair: bool,
}

impl MrmtpConfig {
    /// Configuration for a spine at `tier` (2 or higher).
    pub fn spine(name: impl Into<String>, tier: u8) -> MrmtpConfig {
        assert!(tier >= 2, "spines live at tier 2+");
        MrmtpConfig {
            name: name.into(),
            tier,
            tor: None,
            timers: MrmtpTimers::default(),
            local_repair: false,
        }
    }

    /// Configuration for a ToR.
    pub fn tor(name: impl Into<String>, tor: TorConfig) -> MrmtpConfig {
        MrmtpConfig {
            name: name.into(),
            tier: 1,
            tor: Some(tor),
            timers: MrmtpTimers::default(),
            local_repair: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vid_derivation_uses_third_octet() {
        let tor = TorConfig {
            rack_subnet: Prefix::new(IpAddr4::new(192, 168, 11, 0), 24),
            host_ports: vec![(IpAddr4::new(192, 168, 11, 1), PortId(2))],
        };
        assert_eq!(tor.derive_vid(), 11);
    }

    #[test]
    fn default_timers_match_paper() {
        let t = MrmtpTimers::default();
        assert_eq!(t.hello_interval, millis(50));
        assert_eq!(t.dead_interval, millis(100));
        assert_eq!(t.accept_hellos, 3);
        assert_eq!(t.dead_interval, 2 * t.hello_interval, "one missed hello");
    }

    #[test]
    #[should_panic(expected = "tier 2+")]
    fn spine_config_rejects_tier_one() {
        let _ = MrmtpConfig::spine("S", 1);
    }
}
