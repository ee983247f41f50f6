//! Folded-Clos fabric model and builder.

/// Parameters of a folded-Clos fabric: the paper's three tiers, or four
/// with a zone layer between the PoD spines and the top spines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClosParams {
    /// Number of PoDs (points of delivery).
    pub pods: usize,
    /// Tier-2 spines per PoD.
    pub spines_per_pod: usize,
    /// ToRs (leaves) per PoD.
    pub tors_per_pod: usize,
    /// Uplinks from each PoD spine into the tier above, which has
    /// `spines_per_pod * uplinks_per_spine` spines (per zone in a
    /// four-tier fabric).
    pub uplinks_per_spine: usize,
    /// Servers attached to each ToR (the paper could afford one per rack
    /// on FABRIC).
    pub servers_per_tor: usize,
    /// The zone layer of a four-tier fabric; `None` is the paper's three
    /// tiers.
    pub zones: Option<Zones>,
}

/// The zone layer of the four-tier extension (§IX: "scaling the DCN to
/// multiple tiers"): zones group consecutive PoDs under a layer of zone
/// spines, and the top spines interconnect the zones.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Zones {
    /// Number of zones; each holds `pods / count` PoDs.
    pub count: usize,
    /// Uplinks from each zone spine into the top tier.
    pub uplinks: usize,
}

/// One router tier, bottom-up: `groups` groups (PoDs, zones or the one
/// top group) of `width` nodes, each node with `up` uplinks into its
/// group's share of the tier above.
#[derive(Clone, Copy)]
struct Layer {
    groups: usize,
    width: usize,
    up: usize,
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
            zones: None,
        }
    }

    /// The paper's 4-PoD test topology: 8 ToRs, 8 PoD spines, 4 top
    /// spines — 20 routers ("15 of the 20 routers updated…").
    pub fn four_pod() -> ClosParams {
        ClosParams { pods: 4, ..ClosParams::two_pod() }
    }

    /// A small but fully meshed four-tier fabric: 2 zones × 2 PoDs with
    /// the paper's PoD internals, 8 zone spines, 8 top spines — 32
    /// routers.
    pub fn four_tier() -> ClosParams {
        ClosParams { zones: Some(Zones { count: 2, uplinks: 2 }), ..ClosParams::four_pod() }
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

    /// Spines per group in the tier right above the PoD spines: the top
    /// tier of a three-tier fabric, one zone of a four-tier one.
    pub(crate) fn plane_width(&self) -> usize {
        self.spines_per_pod * self.uplinks_per_spine
    }

    pub fn top_spines(&self) -> usize {
        self.plane_width() * self.zones.map_or(1, |z| z.uplinks)
    }

    pub fn num_tors(&self) -> usize {
        self.pods * self.tors_per_pod
    }

    pub fn num_routers(&self) -> usize {
        let zone_spines = self.zones.map_or(0, |z| z.count * self.plane_width());
        self.num_tors() + self.pods * self.spines_per_pod + zone_spines + self.top_spines()
    }

    pub fn num_servers(&self) -> usize {
        self.num_tors() * self.servers_per_tor
    }

    /// The router tiers bottom-up: ToRs, PoD spines, zone spines (four
    /// tiers only), top spines.
    fn layers(&self) -> Vec<Layer> {
        let mut layers = vec![
            Layer { groups: self.pods, width: self.tors_per_pod, up: self.spines_per_pod },
            Layer { groups: self.pods, width: self.spines_per_pod, up: self.uplinks_per_spine },
        ];
        if let Some(z) = self.zones {
            layers.push(Layer { groups: z.count, width: self.plane_width(), up: z.uplinks });
        }
        layers.push(Layer { groups: 1, width: self.top_spines(), up: 0 });
        layers
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
        let widths = [
            ("spines_per_pod", self.spines_per_pod),
            ("tors_per_pod", self.tors_per_pod),
            ("uplinks_per_spine", self.uplinks_per_spine),
        ];
        let zone_uplinks = self.zones.map(|z| ("zones.uplinks", z.uplinks));
        for (name, value) in widths.into_iter().chain(zone_uplinks) {
            if value == 0 {
                return Err(format!(
                    "{name} = 0 leaves a disconnected tier (allowed: {name} >= 1)"
                ));
            }
        }
        if let Some(Zones { count, .. }) = self.zones {
            if count < 2 || !self.pods.is_multiple_of(count) {
                return Err(format!(
                    "zones.count = {count} with pods = {} (allowed: zones.count >= 2, \
                     dividing pods into equal zones)",
                    self.pods
                ));
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

    /// The node name the paper's figures use, with 1-based indices.
    fn name(self) -> String {
        match self {
            Role::Tor { pod, idx, .. } => format!("L-{}-{}", pod + 1, idx + 1),
            Role::PodSpine { pod, idx } => format!("S-{}-{}", pod + 1, idx + 1),
            Role::ZoneSpine { zone, idx } => format!("Z-{}-{}", zone + 1, idx + 1),
            Role::TopSpine { idx } => format!("T-{}", idx + 1),
            Role::Server { pod, tor_idx, idx } => {
                format!("H-{}-{}-{}", pod + 1, tor_idx + 1, idx + 1)
            }
        }
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

/// A fully-wired folded-Clos fabric: nodes, links (in wiring order — the
/// order determines port indices in the emulator), and per-node port maps.
/// Every node index derives from `params`.
#[derive(Clone, Debug)]
pub struct Fabric {
    /// The shape the fabric was built from.
    pub params: ClosParams,
    pub nodes: Vec<NodeSpec>,
    /// Links as (node a, node b). Node `a`'s port to this link is
    /// allocated before node `b`'s.
    pub links: Vec<(usize, usize)>,
    /// Per-node ports in allocation order (index = emulator `PortId`).
    pub ports: Vec<Vec<PortRef>>,
}

impl Fabric {
    /// Build the fabric `params` describes, three tiers or four. Panics on
    /// invalid parameters (validate first for a `Result`).
    pub fn build(params: ClosParams) -> Fabric {
        params.validate().expect("invalid Clos parameters");
        let mut f = Fabric { params, nodes: Vec::new(), links: Vec::new(), ports: Vec::new() };
        let layers = params.layers();
        let top_tier = layers.len() as u8;

        // --- Nodes. Creation order fixes node indices: the router tiers
        // bottom-up, then servers. A ToR's VID is 11 + its node index.
        let mut bases = Vec::with_capacity(layers.len());
        for (tier, layer) in (1..).zip(&layers) {
            bases.push(f.nodes.len());
            for g in 0..layer.groups {
                for idx in 0..layer.width {
                    let role = match tier {
                        1 => Role::Tor { pod: g, idx, vid: (11 + f.nodes.len()) as u8 },
                        2 => Role::PodSpine { pod: g, idx },
                        t if t == top_tier => Role::TopSpine { idx },
                        _ => Role::ZoneSpine { zone: g, idx },
                    };
                    f.push_node(role, tier);
                }
            }
        }
        for pod in 0..params.pods {
            for tor_idx in 0..params.tors_per_pod {
                for idx in 0..params.servers_per_tor {
                    f.push_node(Role::Server { pod, tor_idx, idx }, 0);
                }
            }
        }

        // --- Links. Order matters: every router's up-ports come first, so
        // the tiers are wired top pair first. Uplink k of node j in a group
        // of w nodes is the group's uplink slot j + k·w; the slots are dealt
        // in order across the parent group in the tier above, `fan` slots
        // to each parent. Above a spine tier fan = 1, the strided planes:
        // PoD spine j's up-ports reach (T_j, T_{j+S}, …). Above the ToRs fan
        // is the rack count, so a ToR's up-ports reach its PoD's spines in
        // spine order. A parent's down-ports come in child order.
        for l in (0..layers.len() - 1).rev() {
            let (lower, upper) = (layers[l], layers[l + 1]);
            let fan = lower.width * lower.up / upper.width;
            let groups_per_parent = lower.groups / upper.groups;
            for g in 0..lower.groups {
                let parents = bases[l + 1] + g / groups_per_parent * upper.width;
                for j in 0..lower.width {
                    let child = bases[l] + g * lower.width + j;
                    for k in 0..lower.up {
                        let parent = parents + (j + k * lower.width) / fan;
                        f.push_link(child, PortKind::Up, parent, PortKind::Down);
                    }
                }
            }
        }
        // ToR ↔ servers: the rack port comes after all fabric ports (the
        // paper's `leavesNetworkPortDict` tells each leaf which interface
        // faces the rack). Servers follow the routers in ToR order.
        for server in params.num_routers()..f.nodes.len() {
            let tor = (server - params.num_routers()) / params.servers_per_tor;
            f.push_link(tor, PortKind::Host, server, PortKind::Up);
        }
        f
    }

    fn push_node(&mut self, role: Role, tier: u8) {
        self.nodes.push(NodeSpec { name: role.name(), role, tier });
        self.ports.push(Vec::new());
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
        self.params.num_tors() + pod * self.params.spines_per_pod + idx
    }

    /// Node index of zone spine `idx` in `zone` (four-tier fabrics only):
    /// the zone spines follow the last PoD's spines.
    pub fn zone_spine(&self, zone: usize, idx: usize) -> usize {
        assert!(self.params.zones.is_some(), "zone spines exist only in four-tier fabrics");
        self.pod_spine(self.params.pods, 0) + zone * self.params.plane_width() + idx
    }

    /// Node index of top spine `idx`: the top spines are the last routers.
    pub fn top_spine(&self, idx: usize) -> usize {
        self.num_routers() - self.params.top_spines() + idx
    }

    /// Node index of server `s` under ToR `idx` in (global) `pod`.
    pub fn server(&self, pod: usize, tor_idx: usize, s: usize) -> usize {
        self.num_routers() + self.tor(pod, tor_idx) * self.params.servers_per_tor + s
    }

    /// Number of router nodes.
    pub fn num_routers(&self) -> usize {
        self.params.num_routers()
    }

    /// Iterate over router node indices.
    pub fn routers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].role.is_router())
    }

    /// The port index on `node` that leads to `peer`, if directly linked.
    pub fn port_to(&self, node: usize, peer: usize) -> Option<usize> {
        self.ports[node].iter().position(|p| p.peer == peer)
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
        // 12 routers + 4 servers.
        assert_eq!(f.nodes.len(), 12 + 4);
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
    fn tor_vids_start_at_11_in_rack_order() {
        let f = Fabric::build(ClosParams::two_pod());
        let vids: Vec<u8> = (0..4)
            .map(|i| match f.nodes[i].role {
                Role::Tor { vid, .. } => vid,
                role => panic!("node {i} is {role:?}"),
            })
            .collect();
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
        assert!(ClosParams { spines_per_pod: 0, ..ClosParams::two_pod() }.validate().is_err());
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
        assert!(err.contains("200 * 2 = 400 ToRs") && err.contains("at most 244"), "got: {err}");
        let zoned = |count, uplinks| ClosParams {
            zones: Some(Zones { count, uplinks }),
            ..ClosParams::four_pod()
        };
        let err = zoned(2, 0).validate().unwrap_err();
        assert!(
            err.contains("zones.uplinks = 0") && err.contains("zones.uplinks >= 1"),
            "got: {err}"
        );
        for count in [1, 3] {
            let err = zoned(count, 1).validate().unwrap_err();
            assert!(err.contains(&format!("zones.count = {count} with pods = 4")), "got: {err}");
        }
        assert!(zoned(4, 1).validate().is_ok());
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
        // The smallest scaled fabric is the paper's.
        assert_eq!(ClosParams::scaled(2).unwrap(), ClosParams::two_pod());
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
        let p = ClosParams::four_tier();
        // 8 ToRs + 8 PoD spines + 8 zone spines + 8 top = 32 routers.
        assert_eq!(p.num_routers(), 32);
        assert_eq!(p.top_spines(), 8);
        let f = Fabric::build(p);
        assert_eq!(f.nodes.len(), 32 + 8);
        assert_eq!(f.nodes[f.top_spine(0)].name, "T-1");
        assert_eq!(f.nodes[f.server(0, 0, 0)].name, "H-1-1-1");
        assert_eq!(f.nodes[f.zone_spine(0, 0)].name, "Z-1-1");
        assert_eq!(f.nodes[f.zone_spine(1, 3)].name, "Z-2-4");
        assert_eq!(f.nodes[f.zone_spine(0, 0)].tier, 3);
        assert_eq!(f.nodes[f.top_spine(0)].tier, 4);
        assert_eq!(f.nodes[f.server(3, 1, 0)].tier, 0);
    }

    #[test]
    fn four_tier_port_order_is_up_first() {
        let f = Fabric::build(ClosParams::four_tier());
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
        let f = Fabric::build(ClosParams::four_tier());
        let (n3, p3) = f.failure_point(FailureCase::Tc3);
        assert_eq!((n3, p3), (f.pod_spine(0, 0), 0));
        let (n4, _) = f.failure_point(FailureCase::Tc4);
        assert_eq!(n4, f.zone_spine(0, 0), "TC4 moves to the zone layer");
    }

    #[test]
    fn four_tier_backrefs_consistent() {
        let f = Fabric::build(ClosParams::four_tier());
        for (li, &(a, b)) in f.links.iter().enumerate() {
            assert!(f.ports[a].iter().any(|p| p.link == li && p.peer == b));
            assert!(f.ports[b].iter().any(|p| p.link == li && p.peer == a));
        }
    }
}
