//! Folded-Clos fabric model and builder.


/// Parameters of a 3-tier folded-Clos fabric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClosParams {
    /// Number of PoDs (points of delivery).
    pub pods: usize,
    /// Tier-2 spines per PoD.
    pub spines_per_pod: usize,
    /// ToRs (leaves) per PoD.
    pub tors_per_pod: usize,
    /// Uplinks from each PoD spine into the top tier. The top tier has
    /// `spines_per_pod * uplinks_per_spine` spines.
    pub uplinks_per_spine: usize,
    /// Servers attached to each ToR (the paper could afford one per rack
    /// on FABRIC).
    pub servers_per_tor: usize,
}

impl ClosParams {
    /// The paper's 2-PoD test topology (Fig. 2 / Fig. 3): 4 ToRs, 4 PoD
    /// spines, 4 top spines, 1 server per rack — 12 routers.
    pub fn two_pod() -> ClosParams {
        ClosParams {
            pods: 2,
            spines_per_pod: 2,
            tors_per_pod: 2,
            uplinks_per_spine: 2,
            servers_per_tor: 1,
        }
    }

    /// The paper's 4-PoD test topology: 8 ToRs, 8 PoD spines, 4 top
    /// spines — 20 routers ("15 of the 20 routers updated…").
    pub fn four_pod() -> ClosParams {
        ClosParams { pods: 4, ..ClosParams::two_pod() }
    }

    /// A scaled topology with `pods` PoDs and otherwise the paper's
    /// per-PoD shape (used by the §IX scalability extension; 32, 64 and
    /// 128 PoDs are the supported mega-fabric shapes).
    ///
    /// The PoD count must be even and at least 2: each top-tier spine
    /// splits its down-facing radix symmetrically across PoD pairs, so an
    /// odd count would leave stranded ports. ToR VIDs derive from a
    /// one-byte subnet octet starting at 11, capping the fabric at 244
    /// ToRs — beyond 122 PoDs the per-PoD rack count narrows to one ToR
    /// so 128-PoD fabrics still address cleanly (the spine layers keep
    /// the paper's shape). Degenerate shapes are rejected with a
    /// descriptive error rather than building a fabric that violates the
    /// addressing scheme.
    pub fn scaled(pods: usize) -> Result<ClosParams, String> {
        if pods < 2 {
            return Err(format!(
                "scaled fabric needs at least 2 PoDs for a folded-Clos top tier, got {pods}"
            ));
        }
        if !pods.is_multiple_of(2) {
            return Err(format!(
                "scaled fabric needs an even PoD count so top-tier spine radix \
                 splits symmetrically across PoD pairs, got {pods}"
            ));
        }
        let base = ClosParams::two_pod();
        // 11 + pods * tors_per_pod must stay within the one-byte VID
        // space; 122 PoDs is the last shape that fits two ToRs per PoD.
        let max_two_tor_pods = (255 - 11) / base.tors_per_pod;
        let params = if pods <= max_two_tor_pods {
            ClosParams { pods, ..base }
        } else if pods <= 255 - 11 {
            ClosParams { pods, tors_per_pod: 1, ..base }
        } else {
            return Err(format!(
                "scaled fabric is capped at {} PoDs by one-byte ToR VID \
                 derivation (VIDs 11..=255, one ToR per PoD minimum), got {pods}",
                255 - 11
            ));
        };
        params.validate()?;
        Ok(params)
    }

    pub fn top_spines(&self) -> usize {
        self.spines_per_pod * self.uplinks_per_spine
    }

    pub fn num_tors(&self) -> usize {
        self.pods * self.tors_per_pod
    }

    pub fn num_routers(&self) -> usize {
        self.num_tors() + self.pods * self.spines_per_pod + self.top_spines()
    }

    pub fn num_servers(&self) -> usize {
        self.num_tors() * self.servers_per_tor
    }

    /// Validate structural constraints. Rejections name the offending
    /// parameter, its value, and the allowed range.
    pub fn validate(&self) -> Result<(), String> {
        if self.pods < 2 {
            return Err(format!(
                "pods = {} is below the folded-Clos minimum (allowed: pods >= 2)",
                self.pods
            ));
        }
        for (name, value) in [
            ("spines_per_pod", self.spines_per_pod),
            ("tors_per_pod", self.tors_per_pod),
            ("uplinks_per_spine", self.uplinks_per_spine),
        ] {
            if value == 0 {
                return Err(format!("{name} = 0 leaves a disconnected tier (allowed: {name} >= 1)"));
            }
        }
        // ToR VIDs are derived from the third subnet octet and must stay
        // unique within one byte, starting at 11.
        if 11 + self.num_tors() > 255 {
            return Err(format!(
                "pods * tors_per_pod = {} * {} = {} ToRs overflows one-byte VID \
                 derivation (VIDs 11..=255 allow at most 244 ToRs)",
                self.pods,
                self.tors_per_pod,
                self.num_tors()
            ));
        }
        Ok(())
    }
}

/// What a node is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Tier-1 leaf. `vid` is its MR-MTP root VID (= rack subnet third
    /// octet).
    Tor { pod: usize, idx: usize, vid: u8 },
    /// PoD-level spine (tier 2).
    PodSpine { pod: usize, idx: usize },
    /// Zone-level spine (tier 3 of a four-tier fabric). Zones group PoDs;
    /// the paper's §IX asks for exactly this kind of scaling study.
    ZoneSpine { zone: usize, idx: usize },
    /// Top-tier spine (tier 3 in the paper's fabrics, tier 4 in the
    /// four-tier extension).
    TopSpine { idx: usize },
    /// Tier-0 compute node.
    Server { pod: usize, tor_idx: usize, idx: usize },
}

impl Role {
    pub fn is_router(&self) -> bool {
        !matches!(self, Role::Server { .. })
    }
}

/// Direction of a port relative to the tier structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortKind {
    /// Toward a higher tier.
    Up,
    /// Toward a lower tier (router).
    Down,
    /// Toward a server rack.
    Host,
}

/// One port of one node.
#[derive(Clone, Copy, Debug)]
pub struct PortRef {
    /// Index into [`Fabric::links`].
    pub link: usize,
    /// The node on the other end.
    pub peer: usize,
    pub kind: PortKind,
}

/// One node of the fabric.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    pub name: String,
    pub role: Role,
    /// Tier per the paper's convention: servers are tier 0, ToRs tier 1,
    /// and the top tier is 3 (paper fabrics) or 4 (the multi-tier
    /// extension).
    pub tier: u8,
}

/// The four interface-failure points of the paper's Fig. 3. All failures
/// are on the link chain ToR₁₁ ↔ S1_1 ↔ S2_1 (named L-1-1, S-1-1, T-1
/// here); what varies is which *interface* fails, and therefore which end
/// learns of the failure from carrier loss vs. keepalive timeout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FailureCase {
    /// ToR₁₁'s uplink interface to S1_1 fails. The ToR sees carrier-down;
    /// S1_1 must time out.
    Tc1,
    /// S1_1's downlink interface to ToR₁₁ fails. S1_1 sees carrier-down;
    /// the ToR must time out.
    Tc2,
    /// S1_1's uplink interface to S2_1 fails. S1_1 sees carrier-down;
    /// S2_1 must time out.
    Tc3,
    /// S2_1's downlink interface to S1_1 fails. S2_1 sees carrier-down;
    /// S1_1 must time out.
    Tc4,
}

impl FailureCase {
    pub const ALL: [FailureCase; 4] =
        [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4];

    pub fn label(self) -> &'static str {
        match self {
            FailureCase::Tc1 => "TC1",
            FailureCase::Tc2 => "TC2",
            FailureCase::Tc3 => "TC3",
            FailureCase::Tc4 => "TC4",
        }
    }
}

/// Shape parameters of the four-tier extension (§IX: "scaling the DCN to
/// multiple tiers"). Zones group PoDs under a zone-spine layer; top
/// spines interconnect zones.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FourTierParams {
    pub zones: usize,
    pub pods_per_zone: usize,
    pub spines_per_pod: usize,
    pub tors_per_pod: usize,
    /// Uplinks from each PoD spine into its zone's spine layer (zone
    /// layer width = spines_per_pod × this).
    pub uplinks_per_spine: usize,
    /// Uplinks from each zone spine into the top tier (top tier width =
    /// zone layer width × this).
    pub zone_uplinks: usize,
    pub servers_per_tor: usize,
}

impl FourTierParams {
    /// A small but fully-meshed four-tier fabric: 2 zones × 2 PoDs,
    /// paper-like PoD internals — 32 routers.
    pub fn small() -> FourTierParams {
        FourTierParams {
            zones: 2,
            pods_per_zone: 2,
            spines_per_pod: 2,
            tors_per_pod: 2,
            uplinks_per_spine: 2,
            zone_uplinks: 2,
            servers_per_tor: 1,
        }
    }

    pub fn pods(&self) -> usize {
        self.zones * self.pods_per_zone
    }

    pub fn zone_width(&self) -> usize {
        self.spines_per_pod * self.uplinks_per_spine
    }

    pub fn top_spines(&self) -> usize {
        self.zone_width() * self.zone_uplinks
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.zones < 2 {
            return Err("need at least 2 zones".into());
        }
        if self.pods_per_zone == 0
            || self.spines_per_pod == 0
            || self.tors_per_pod == 0
            || self.uplinks_per_spine == 0
            || self.zone_uplinks == 0
        {
            return Err("all widths must be nonzero".into());
        }
        if 11 + self.pods() * self.tors_per_pod > 255 {
            return Err("too many ToRs for one-byte VID derivation".into());
        }
        Ok(())
    }
}

/// A fully-wired folded-Clos fabric: nodes, links (in wiring order — the
/// order determines port indices in the emulator), and per-node port maps.
/// Three-tier (the paper's fabrics) or four-tier (the §IX extension).
#[derive(Clone, Debug)]
pub struct Fabric {
    /// Per-PoD shape. For four-tier fabrics, `pods` is the global PoD
    /// count and `top_spines()` does **not** apply — use the explicit
    /// layout fields below.
    pub params: ClosParams,
    /// 3 for the paper's fabrics, 4 for the zone extension.
    pub tiers: u8,
    pub nodes: Vec<NodeSpec>,
    /// Links as (node a, node b). Node `a`'s port to this link is
    /// allocated before node `b`'s.
    pub links: Vec<(usize, usize)>,
    /// Per-node ports in allocation order (index = emulator `PortId`).
    pub ports: Vec<Vec<PortRef>>,
    // Layout offsets (node-index bases per layer).
    pod_spine_base: usize,
    zone_spine_base: usize,
    zones: usize,
    zone_width: usize,
    top_base: usize,
    top_count: usize,
    server_base: usize,
}

impl Fabric {
    /// Build the paper's three-tier fabric. Panics on invalid parameters
    /// (validate first for a `Result`).
    pub fn build(params: ClosParams) -> Fabric {
        params.validate().expect("invalid Clos parameters");
        let mut f = Fabric {
            params,
            tiers: 3,
            nodes: Vec::new(),
            links: Vec::new(),
            ports: Vec::new(),
            pod_spine_base: params.num_tors(),
            zone_spine_base: 0,
            zones: 0,
            zone_width: 0,
            top_base: params.num_tors() + params.pods * params.spines_per_pod,
            top_count: params.top_spines(),
            server_base: params.num_routers(),
        };

        // --- Nodes. Creation order fixes node indices: ToRs, PoD spines,
        // top spines, servers.
        for p in 0..params.pods {
            for i in 0..params.tors_per_pod {
                let vid = (11 + f.tor_count()) as u8;
                f.push_node(format!("L-{}-{}", p + 1, i + 1), Role::Tor { pod: p, idx: i, vid }, 1);
            }
        }
        for p in 0..params.pods {
            for j in 0..params.spines_per_pod {
                f.push_node(format!("S-{}-{}", p + 1, j + 1), Role::PodSpine { pod: p, idx: j }, 2);
            }
        }
        for k in 0..params.top_spines() {
            f.push_node(format!("T-{}", k + 1), Role::TopSpine { idx: k }, 3);
        }
        for p in 0..params.pods {
            for i in 0..params.tors_per_pod {
                for s in 0..params.servers_per_tor {
                    f.push_node(
                        format!("H-{}-{}-{}", p + 1, i + 1, s + 1),
                        Role::Server { pod: p, tor_idx: i, idx: s },
                        0,
                    );
                }
            }
        }

        // --- Links. Order matters: every router's up-ports first.
        //
        // (1) PoD-spine ↔ top-spine, PoD-major then spine then uplink.
        //     PoD spine j's up-ports come in stride order (T_j, T_{j+S});
        //     top spine k's down-ports come in PoD order.
        for p in 0..params.pods {
            for j in 0..params.spines_per_pod {
                for k in 0..params.uplinks_per_spine {
                    let spine = f.pod_spine(p, j);
                    let top = f.top_spine(j + k * params.spines_per_pod);
                    f.push_link(spine, PortKind::Up, top, PortKind::Down);
                }
            }
        }
        // (2) ToR ↔ PoD-spine: ToR's up-ports in spine order; spine's
        //     down-ports in ToR order.
        for p in 0..params.pods {
            for i in 0..params.tors_per_pod {
                for j in 0..params.spines_per_pod {
                    let tor = f.tor(p, i);
                    let spine = f.pod_spine(p, j);
                    f.push_link(tor, PortKind::Up, spine, PortKind::Down);
                }
            }
        }
        // (3) ToR ↔ servers: the rack port comes after all fabric ports
        //     (the paper's `leavesNetworkPortDict` tells each leaf which
        //     interface faces the rack).
        for p in 0..params.pods {
            for i in 0..params.tors_per_pod {
                for s in 0..params.servers_per_tor {
                    let tor = f.tor(p, i);
                    let server = f.server(p, i, s);
                    f.push_link(tor, PortKind::Host, server, PortKind::Up);
                }
            }
        }
        f
    }

    /// Build the four-tier zone extension: ToRs → PoD spines → zone
    /// spines → top spines, with strided plane wiring at every level and
    /// the same up-ports-first port numbering MR-MTP's VID derivation
    /// relies on.
    pub fn build_four_tier(p4: FourTierParams) -> Fabric {
        p4.validate().expect("invalid four-tier parameters");
        let pods = p4.pods();
        let params = ClosParams {
            pods,
            spines_per_pod: p4.spines_per_pod,
            tors_per_pod: p4.tors_per_pod,
            uplinks_per_spine: p4.uplinks_per_spine,
            servers_per_tor: p4.servers_per_tor,
        };
        let num_tors = pods * p4.tors_per_pod;
        let pod_spines = pods * p4.spines_per_pod;
        let zone_spines = p4.zones * p4.zone_width();
        let mut f = Fabric {
            params,
            tiers: 4,
            nodes: Vec::new(),
            links: Vec::new(),
            ports: Vec::new(),
            pod_spine_base: num_tors,
            zone_spine_base: num_tors + pod_spines,
            zones: p4.zones,
            zone_width: p4.zone_width(),
            top_base: num_tors + pod_spines + zone_spines,
            top_count: p4.top_spines(),
            server_base: num_tors + pod_spines + zone_spines + p4.top_spines(),
        };

        // Nodes: ToRs, PoD spines, zone spines, top spines, servers.
        for p in 0..pods {
            for i in 0..p4.tors_per_pod {
                let vid = (11 + f.tor_count()) as u8;
                f.push_node(format!("L-{}-{}", p + 1, i + 1), Role::Tor { pod: p, idx: i, vid }, 1);
            }
        }
        for p in 0..pods {
            for j in 0..p4.spines_per_pod {
                f.push_node(format!("S-{}-{}", p + 1, j + 1), Role::PodSpine { pod: p, idx: j }, 2);
            }
        }
        for z in 0..p4.zones {
            for m in 0..p4.zone_width() {
                f.push_node(format!("Z-{}-{}", z + 1, m + 1), Role::ZoneSpine { zone: z, idx: m }, 3);
            }
        }
        for k in 0..p4.top_spines() {
            f.push_node(format!("T-{}", k + 1), Role::TopSpine { idx: k }, 4);
        }
        for p in 0..pods {
            for i in 0..p4.tors_per_pod {
                for s in 0..p4.servers_per_tor {
                    f.push_node(
                        format!("H-{}-{}-{}", p + 1, i + 1, s + 1),
                        Role::Server { pod: p, tor_idx: i, idx: s },
                        0,
                    );
                }
            }
        }

        // Links, up-ports first at every node.
        // (1) zone spine ↔ top spine, strided.
        for z in 0..p4.zones {
            for m in 0..p4.zone_width() {
                for k in 0..p4.zone_uplinks {
                    let zs = f.zone_spine(z, m);
                    let top = f.top_spine(m + k * p4.zone_width());
                    f.push_link(zs, PortKind::Up, top, PortKind::Down);
                }
            }
        }
        // (2) PoD spine ↔ zone spine, strided within the zone.
        for z in 0..p4.zones {
            for pz in 0..p4.pods_per_zone {
                let pod = z * p4.pods_per_zone + pz;
                for j in 0..p4.spines_per_pod {
                    for k in 0..p4.uplinks_per_spine {
                        let ps = f.pod_spine(pod, j);
                        let zs = f.zone_spine(z, j + k * p4.spines_per_pod);
                        f.push_link(ps, PortKind::Up, zs, PortKind::Down);
                    }
                }
            }
        }
        // (3) ToR ↔ PoD spine.
        for pod in 0..pods {
            for i in 0..p4.tors_per_pod {
                for j in 0..p4.spines_per_pod {
                    let tor = f.tor(pod, i);
                    let ps = f.pod_spine(pod, j);
                    f.push_link(tor, PortKind::Up, ps, PortKind::Down);
                }
            }
        }
        // (4) ToR ↔ servers.
        for pod in 0..pods {
            for i in 0..p4.tors_per_pod {
                for s in 0..p4.servers_per_tor {
                    let tor = f.tor(pod, i);
                    let server = f.server(pod, i, s);
                    f.push_link(tor, PortKind::Host, server, PortKind::Up);
                }
            }
        }
        f
    }

    fn push_node(&mut self, name: String, role: Role, tier: u8) {
        self.nodes.push(NodeSpec { name, role, tier });
        self.ports.push(Vec::new());
    }

    fn tor_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.role, Role::Tor { .. }))
            .count()
    }

    fn push_link(&mut self, a: usize, ka: PortKind, b: usize, kb: PortKind) {
        let link = self.links.len();
        self.links.push((a, b));
        self.ports[a].push(PortRef { link, peer: b, kind: ka });
        self.ports[b].push(PortRef { link, peer: a, kind: kb });
    }

    // --- Node index helpers (must mirror creation order). ---

    /// Node index of ToR `idx` in (global) `pod`.
    pub fn tor(&self, pod: usize, idx: usize) -> usize {
        pod * self.params.tors_per_pod + idx
    }

    /// Node index of PoD spine `idx` in (global) `pod`.
    pub fn pod_spine(&self, pod: usize, idx: usize) -> usize {
        self.pod_spine_base + pod * self.params.spines_per_pod + idx
    }

    /// Node index of zone spine `idx` in `zone` (four-tier fabrics only).
    pub fn zone_spine(&self, zone: usize, idx: usize) -> usize {
        assert_eq!(self.tiers, 4, "zone spines exist only in four-tier fabrics");
        self.zone_spine_base + zone * self.zone_width + idx
    }

    /// Number of zones (0 for three-tier fabrics).
    pub fn zones(&self) -> usize {
        self.zones
    }

    /// Node index of top spine `idx`.
    pub fn top_spine(&self, idx: usize) -> usize {
        self.top_base + idx
    }

    /// Number of top-tier spines.
    pub fn top_spine_count(&self) -> usize {
        self.top_count
    }

    /// Node index of server `s` under ToR `idx` in (global) `pod`.
    pub fn server(&self, pod: usize, tor_idx: usize, s: usize) -> usize {
        self.server_base
            + (pod * self.params.tors_per_pod + tor_idx) * self.params.servers_per_tor
            + s
    }

    /// Number of router nodes.
    pub fn num_routers(&self) -> usize {
        self.server_base
    }

    /// Iterate over router node indices.
    pub fn routers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].role.is_router())
    }

    /// The port index on `node` that leads to `peer`, if directly linked.
    pub fn port_to(&self, node: usize, peer: usize) -> Option<usize> {
        self.ports[node].iter().position(|p| p.peer == peer)
    }

    /// Router hops a data packet crosses between servers in *different*
    /// PoDs: up one side of the folded Clos and down the other (ToR →
    /// PoD spine → top spine → PoD spine → ToR = 5 in three-tier
    /// fabrics; four-tier adds a zone-spine layer each way).
    pub fn cross_pod_router_hops(&self) -> usize {
        match self.tiers {
            3 => 5,
            _ => 7,
        }
    }

    /// MR-MTP root VID of a ToR node.
    pub fn tor_vid(&self, node: usize) -> Option<u8> {
        match self.nodes[node].role {
            Role::Tor { vid, .. } => Some(vid),
            _ => None,
        }
    }

    /// Resolve a paper failure case to the failing `(node, port)`
    /// interface. Generic over tier count: TC3/TC4 sit on S-1-1's first
    /// uplink, whose remote end is T-1 in three-tier fabrics and Z-1-1 in
    /// four-tier ones.
    pub fn failure_point(&self, tc: FailureCase) -> (usize, usize) {
        let tor = self.tor(0, 0); // L-1-1 (ToR VID 11)
        let spine = self.pod_spine(0, 0); // S-1-1
        let upper = self.ports[spine][0].peer; // first uplink's far end
        match tc {
            FailureCase::Tc1 => (tor, self.port_to(tor, spine).unwrap()),
            FailureCase::Tc2 => (spine, self.port_to(spine, tor).unwrap()),
            FailureCase::Tc3 => (spine, 0),
            FailureCase::Tc4 => (upper, self.port_to(upper, spine).unwrap()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_pod_counts_match_paper() {
        let p = ClosParams::two_pod();
        assert_eq!(p.num_routers(), 12);
        assert_eq!(p.num_tors(), 4);
        assert_eq!(p.top_spines(), 4);
        let f = Fabric::build(p);
        assert_eq!(f.nodes.len(), 12 + 4); // + servers
        // Links: 2*2*2 (spine-top) + 2*2*2 (tor-spine) + 4 (servers).
        assert_eq!(f.links.len(), 8 + 8 + 4);
    }

    #[test]
    fn four_pod_counts_match_paper() {
        let p = ClosParams::four_pod();
        assert_eq!(p.num_routers(), 20, "the paper says 15 of the 20 routers");
        let f = Fabric::build(p);
        assert_eq!(f.nodes.len(), 20 + 8);
    }

    #[test]
    fn cross_pod_hop_count_by_tier() {
        assert_eq!(Fabric::build(ClosParams::two_pod()).cross_pod_router_hops(), 5);
        assert_eq!(
            Fabric::build_four_tier(FourTierParams::small()).cross_pod_router_hops(),
            7
        );
    }

    #[test]
    fn tor_vids_start_at_11_in_rack_order() {
        let f = Fabric::build(ClosParams::two_pod());
        let vids: Vec<u8> = (0..4).map(|i| f.tor_vid(i).unwrap()).collect();
        assert_eq!(vids, vec![11, 12, 13, 14]);
        assert_eq!(f.nodes[f.tor(0, 0)].name, "L-1-1");
        assert_eq!(f.nodes[f.tor(1, 1)].name, "L-2-2");
    }

    #[test]
    fn strided_plane_wiring_matches_fig2() {
        let f = Fabric::build(ClosParams::two_pod());
        let s11 = f.pod_spine(0, 0);
        let s12 = f.pod_spine(0, 1);
        // S1_1's up-ports are its first two ports, to T-1 (S2_1) then T-3
        // (S2_3).
        assert_eq!(f.ports[s11][0].peer, f.top_spine(0));
        assert_eq!(f.ports[s11][1].peer, f.top_spine(2));
        assert_eq!(f.ports[s12][0].peer, f.top_spine(1));
        assert_eq!(f.ports[s12][1].peer, f.top_spine(3));
        assert!(matches!(f.ports[s11][0].kind, PortKind::Up));
        // Down-ports follow, in ToR order.
        assert_eq!(f.ports[s11][2].peer, f.tor(0, 0));
        assert_eq!(f.ports[s11][3].peer, f.tor(0, 1));
        assert!(matches!(f.ports[s11][2].kind, PortKind::Down));
    }

    #[test]
    fn tor_port_order_is_up_then_host() {
        let f = Fabric::build(ClosParams::two_pod());
        let t = f.tor(0, 0);
        assert_eq!(f.ports[t][0].peer, f.pod_spine(0, 0));
        assert_eq!(f.ports[t][1].peer, f.pod_spine(0, 1));
        assert!(matches!(f.ports[t][2].kind, PortKind::Host));
        assert_eq!(f.ports[t].len(), 3);
    }

    #[test]
    fn top_spine_down_ports_in_pod_order() {
        let f = Fabric::build(ClosParams::four_pod());
        let t1 = f.top_spine(0);
        assert_eq!(f.ports[t1].len(), 4, "one down-link per PoD");
        for (p, port) in f.ports[t1].iter().enumerate() {
            assert_eq!(port.peer, f.pod_spine(p, 0), "T-1 connects to S-p-1");
            assert!(matches!(port.kind, PortKind::Down));
        }
    }

    #[test]
    fn failure_points_resolve_to_expected_interfaces() {
        let f = Fabric::build(ClosParams::two_pod());
        let (n1, p1) = f.failure_point(FailureCase::Tc1);
        assert_eq!(n1, f.tor(0, 0));
        assert_eq!(p1, 0); // ToR's first up-port → S-1-1
        let (n2, p2) = f.failure_point(FailureCase::Tc2);
        assert_eq!(n2, f.pod_spine(0, 0));
        assert_eq!(p2, 2); // S-1-1's first down-port → L-1-1
        let (n3, p3) = f.failure_point(FailureCase::Tc3);
        assert_eq!((n3, p3), (f.pod_spine(0, 0), 0)); // up-port → T-1
        let (n4, p4) = f.failure_point(FailureCase::Tc4);
        assert_eq!(n4, f.top_spine(0));
        assert_eq!(p4, 0); // T-1's down-port → S-1-1 (PoD 1 first)
    }

    #[test]
    fn every_link_endpoint_has_a_backref() {
        let f = Fabric::build(ClosParams::four_pod());
        for (li, &(a, b)) in f.links.iter().enumerate() {
            assert!(f.ports[a].iter().any(|p| p.link == li && p.peer == b));
            assert!(f.ports[b].iter().any(|p| p.link == li && p.peer == a));
        }
    }

    #[test]
    fn validation_rejects_degenerate_fabrics() {
        assert!(ClosParams { pods: 1, ..ClosParams::two_pod() }.validate().is_err());
        assert!(ClosParams { spines_per_pod: 0, ..ClosParams::two_pod() }
            .validate()
            .is_err());
        let too_many = ClosParams { pods: 200, tors_per_pod: 2, ..ClosParams::two_pod() };
        assert!(too_many.validate().is_err());
        assert!(ClosParams::scaled(8).is_ok());
    }

    #[test]
    fn validation_errors_name_the_parameter_and_range() {
        // Every rejection path names the offending parameter, its value,
        // and the allowed range — not just a bare complaint.
        let err = ClosParams { pods: 1, ..ClosParams::two_pod() }.validate().unwrap_err();
        assert!(err.contains("pods = 1") && err.contains("pods >= 2"), "got: {err}");
        for (name, p) in [
            ("spines_per_pod", ClosParams { spines_per_pod: 0, ..ClosParams::two_pod() }),
            ("tors_per_pod", ClosParams { tors_per_pod: 0, ..ClosParams::two_pod() }),
            ("uplinks_per_spine", ClosParams { uplinks_per_spine: 0, ..ClosParams::two_pod() }),
        ] {
            let err = p.validate().unwrap_err();
            assert!(
                err.contains(&format!("{name} = 0")) && err.contains(&format!("{name} >= 1")),
                "{name}: got: {err}"
            );
        }
        let err = ClosParams { pods: 200, tors_per_pod: 2, ..ClosParams::two_pod() }
            .validate()
            .unwrap_err();
        assert!(
            err.contains("200 * 2 = 400 ToRs") && err.contains("at most 244"),
            "got: {err}"
        );
    }

    #[test]
    fn scaled_rejects_degenerate_pod_counts() {
        let err = ClosParams::scaled(1).unwrap_err();
        assert!(err.contains("at least 2 PoDs"), "got: {err}");
        let err = ClosParams::scaled(3).unwrap_err();
        assert!(err.contains("even PoD count"), "got: {err}");
        assert!(ClosParams::scaled(0).is_err());
        // Even counts within the addressing budget build fine.
        let p = ClosParams::scaled(16).unwrap();
        assert_eq!(p.pods, 16);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn scaled_supports_mega_fabric_shapes() {
        // The benchmark ladder: 32/64 keep the paper's two-ToR PoDs.
        for pods in [32, 64] {
            let p = ClosParams::scaled(pods).unwrap();
            assert_eq!((p.pods, p.tors_per_pod), (pods, 2));
            assert!(p.validate().is_ok());
        }
        assert_eq!(ClosParams::scaled(64).unwrap().num_routers(), 260);
        // Past the two-ToR VID budget the rack layer narrows to one ToR
        // per PoD instead of failing.
        let p = ClosParams::scaled(128).unwrap();
        assert_eq!((p.pods, p.tors_per_pod), (128, 1));
        assert!(p.validate().is_ok());
        // The hard cap is descriptive.
        let err = ClosParams::scaled(246).unwrap_err();
        assert!(err.contains("capped at 244 PoDs"), "got: {err}");
    }

    #[test]
    fn tier_assignment() {
        let f = Fabric::build(ClosParams::two_pod());
        assert_eq!(f.nodes[f.tor(0, 0)].tier, 1);
        assert_eq!(f.nodes[f.pod_spine(0, 0)].tier, 2);
        assert_eq!(f.nodes[f.top_spine(0)].tier, 3);
        assert_eq!(f.nodes[f.server(0, 0, 0)].tier, 0);
    }
}

#[cfg(test)]
mod four_tier_tests {
    use super::*;

    #[test]
    fn small_four_tier_counts_and_layout() {
        let p4 = FourTierParams::small();
        let f = Fabric::build_four_tier(p4);
        assert_eq!(f.tiers, 4);
        assert_eq!(f.zones(), 2);
        // 8 ToRs + 8 PoD spines + 8 zone spines + 8 top = 32 routers.
        assert_eq!(f.num_routers(), 32);
        assert_eq!(f.top_spine_count(), 8);
        assert_eq!(f.nodes[f.zone_spine(0, 0)].name, "Z-1-1");
        assert_eq!(f.nodes[f.zone_spine(1, 3)].name, "Z-2-4");
        assert_eq!(f.nodes[f.zone_spine(0, 0)].tier, 3);
        assert_eq!(f.nodes[f.top_spine(0)].tier, 4);
        assert_eq!(f.nodes[f.server(3, 1, 0)].tier, 0);
    }

    #[test]
    fn four_tier_port_order_is_up_first() {
        let f = Fabric::build_four_tier(FourTierParams::small());
        // Zone spine: 2 up-ports (to top) then one down-port per PoD in
        // the zone (the stride maps each (spine, uplink) pair to a
        // distinct zone spine).
        let zs = f.zone_spine(0, 0);
        assert!(matches!(f.ports[zs][0].kind, PortKind::Up));
        assert!(matches!(f.ports[zs][1].kind, PortKind::Up));
        assert!(matches!(f.ports[zs][2].kind, PortKind::Down));
        assert_eq!(f.ports[zs].len(), 2 + 2);
        // PoD spine: ups to zone spines first.
        let ps = f.pod_spine(0, 0);
        assert_eq!(f.ports[ps][0].peer, f.zone_spine(0, 0));
        assert_eq!(f.ports[ps][1].peer, f.zone_spine(0, 2), "strided");
        // Top spine: one down-link per zone spine index match per zone.
        let t = f.top_spine(0);
        assert_eq!(f.ports[t].len(), 2, "one link per zone");
        assert_eq!(f.ports[t][0].peer, f.zone_spine(0, 0));
        assert_eq!(f.ports[t][1].peer, f.zone_spine(1, 0));
    }

    #[test]
    fn four_tier_failure_points_resolve() {
        let f = Fabric::build_four_tier(FourTierParams::small());
        let (n3, p3) = f.failure_point(FailureCase::Tc3);
        assert_eq!((n3, p3), (f.pod_spine(0, 0), 0));
        let (n4, _) = f.failure_point(FailureCase::Tc4);
        assert_eq!(n4, f.zone_spine(0, 0), "TC4 moves to the zone layer");
    }

    #[test]
    fn four_tier_backrefs_consistent() {
        let f = Fabric::build_four_tier(FourTierParams::small());
        for (li, &(a, b)) in f.links.iter().enumerate() {
            assert!(f.ports[a].iter().any(|p| p.link == li && p.peer == b));
            assert!(f.ports[b].iter().any(|p| p.link == li && p.peer == a));
        }
    }
}
