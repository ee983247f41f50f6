//! The BGP RIB: per-peer Adj-RIB-In, Loc-RIB with ECMP, and the FIB view
//! rendered in the paper's Listing 3 layout.

use std::collections::BTreeMap;

use dcn_sim::PortId;
use dcn_wire::{IpAddr4, Prefix};
use smallvec::SmallVec;

/// One usable path in the Loc-RIB.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PathEntry {
    pub as_path: Vec<u32>,
    pub peer_port: PortId,
    pub next_hop: IpAddr4,
}

/// Result of a Loc-RIB recomputation for one prefix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RibChange {
    Unchanged,
    /// The ECMP set or best path changed (still reachable).
    Changed,
    /// The prefix became unreachable.
    Lost,
    /// The prefix became reachable (was absent).
    Gained,
}

/// The routing information base of one router.
#[derive(Debug, Default)]
pub struct Rib {
    /// Adj-RIB-In: (peer port → prefix → AS path). The next hop of a path
    /// through a point-to-point fabric link is implied by the port.
    adj_in: BTreeMap<PortId, BTreeMap<Prefix, Vec<u32>>>,
    /// Locally originated prefixes (AS path length 0, always preferred).
    local: Vec<Prefix>,
    /// Loc-RIB: prefix → ECMP members (all minimal-AS-path paths).
    loc: BTreeMap<Prefix, Vec<PathEntry>>,
    /// Connected subnets for rendering (link /24s, rack subnet).
    connected: Vec<(Prefix, PortId, IpAddr4)>,
    /// Bumped whenever the Loc-RIB changes; the compiled FIB keys its
    /// lazy rebuild on this.
    version: u64,
}

impl Rib {
    pub fn new() -> Rib {
        Rib::default()
    }

    pub fn add_local(&mut self, prefix: Prefix) {
        if !self.local.contains(&prefix) {
            self.local.push(prefix);
        }
    }

    pub fn add_connected(&mut self, prefix: Prefix, port: PortId, addr: IpAddr4) {
        self.connected.push((prefix, port, addr));
    }

    pub fn is_local(&self, prefix: Prefix) -> bool {
        self.local.contains(&prefix)
    }

    /// Loc-RIB generation counter. Moves exactly when a recomputation
    /// reports anything other than [`RibChange::Unchanged`], so a stale
    /// compiled FIB can be detected in O(1). Bumps use wrapping
    /// arithmetic and consumers compare snapshots for *equality* only,
    /// so the counter stays correct across a `u64` wraparound.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Test hook: park the generation counter at an arbitrary value
    /// (e.g. `u64::MAX`) to exercise wraparound.
    #[cfg(test)]
    pub(crate) fn set_version(&mut self, v: u64) {
        self.version = v;
    }

    /// Record a received advertisement. Returns prefixes needing
    /// recomputation.
    pub fn ingest_advert(
        &mut self,
        port: PortId,
        prefix: Prefix,
        as_path: Vec<u32>,
        next_hop: IpAddr4,
    ) -> RibChange {
        let _ = next_hop; // next hop is implied by the p2p link
        self.adj_in.entry(port).or_default().insert(prefix, as_path);
        self.recompute(prefix, port)
    }

    /// Record a withdrawal.
    pub fn ingest_withdraw(&mut self, port: PortId, prefix: Prefix) -> RibChange {
        let removed = self
            .adj_in
            .get_mut(&port)
            .is_some_and(|m| m.remove(&prefix).is_some());
        if !removed {
            return RibChange::Unchanged;
        }
        self.recompute(prefix, port)
    }

    /// Drop everything learned from a peer (session death). Returns the
    /// affected prefixes and their change kinds.
    pub fn drop_peer(&mut self, port: PortId) -> Vec<(Prefix, RibChange)> {
        let prefixes: Vec<Prefix> = self
            .adj_in
            .remove(&port)
            .map(|m| m.into_keys().collect())
            .unwrap_or_default();
        prefixes
            .into_iter()
            .map(|p| (p, self.recompute(p, port)))
            .filter(|(_, c)| *c != RibChange::Unchanged)
            .collect()
    }

    /// Recompute the Loc-RIB entry for `prefix`. `via` is only used to
    /// carry next-hop information when available; ECMP membership is
    /// derived purely from AS-path lengths. Members are stored in
    /// ascending-port order (the `adj_in` iteration order). A
    /// recomputation that changes nothing — the common case while a
    /// table dump floods in over several uplinks — allocates nothing:
    /// the candidate set is a stack list of references, and AS paths are
    /// cloned only when the entry is actually replaced.
    fn recompute(&mut self, prefix: Prefix, _via: PortId) -> RibChange {
        if self.local.contains(&prefix) {
            // Locally originated: always best, never ECMP with learned
            // paths.
            return RibChange::Unchanged;
        }
        let mut best_len = usize::MAX;
        let mut best: SmallVec<(PortId, &Vec<u32>), 16> = SmallVec::new();
        for (&port, routes) in &self.adj_in {
            if let Some(path) = routes.get(&prefix) {
                match path.len().cmp(&best_len) {
                    std::cmp::Ordering::Less => {
                        best_len = path.len();
                        best.clear();
                        best.push((port, path));
                    }
                    std::cmp::Ordering::Equal => best.push((port, path)),
                    std::cmp::Ordering::Greater => {}
                }
            }
        }
        let change = match (self.loc.get(&prefix), best.is_empty()) {
            (None, true) => RibChange::Unchanged,
            (None, false) => RibChange::Gained,
            (Some(_), true) => RibChange::Lost,
            (Some(old), false)
                if old.iter().map(|e| (e.peer_port, &e.as_path)).eq(best.iter().copied()) =>
            {
                RibChange::Unchanged
            }
            (Some(_), false) => RibChange::Changed,
        };
        match change {
            RibChange::Unchanged => return change,
            RibChange::Lost => {
                self.loc.remove(&prefix);
            }
            RibChange::Gained | RibChange::Changed => {
                let members = best
                    .iter()
                    .map(|&(peer_port, path)| PathEntry {
                        as_path: path.clone(),
                        peer_port,
                        // The next hop is implied by the p2p link.
                        next_hop: IpAddr4(0),
                    })
                    .collect();
                self.loc.insert(prefix, members);
            }
        }
        self.version = self.version.wrapping_add(1);
        change
    }

    /// The ECMP members for `prefix` (ports sorted ascending).
    pub fn members(&self, prefix: Prefix) -> Vec<&PathEntry> {
        let mut v: Vec<&PathEntry> = self
            .loc
            .get(&prefix)
            .map(|m| m.iter().collect())
            .unwrap_or_default();
        v.sort_by_key(|e| e.peer_port);
        v
    }

    /// Longest-prefix-match lookup for a destination address.
    pub fn lookup(&self, dst: IpAddr4) -> Option<(Prefix, Vec<&PathEntry>)> {
        // Prefixes in a DCN RIB are few; scan and keep the longest match.
        let mut best: Option<Prefix> = None;
        for &p in self.loc.keys() {
            if p.contains(dst) && best.is_none_or(|b| p.len > b.len) {
                best = Some(p);
            }
        }
        best.map(|p| (p, self.members(p)))
    }

    /// The representative best path for advertisement: the member on the
    /// lowest port (members are stored in ascending-port order).
    pub fn best(&self, prefix: Prefix) -> Option<&PathEntry> {
        self.loc.get(&prefix)?.first()
    }

    /// Local-repair backup candidates for `prefix`: the peer ports of the
    /// *next-best* Adj-RIB-In paths — the shortest AS-path length strictly
    /// worse than the Loc-RIB best set, excluding any port already an
    /// ECMP member. Sorted ascending. These are the routes the control
    /// plane itself would promote once the best set is withdrawn, so a
    /// data-plane repair through them forwards exactly where the
    /// post-convergence FIB will.
    ///
    /// Best-effort by design: an Adj-RIB-In-only change (a longer path
    /// learned or withdrawn) does not bump [`Rib::version`], so a
    /// compiled backup set can lag such changes until the next Loc-RIB
    /// change triggers a rebuild. Primary forwarding is unaffected.
    pub fn backup_members(&self, prefix: Prefix) -> Vec<PortId> {
        let best: Vec<PortId> = self
            .loc
            .get(&prefix)
            .map(|m| m.iter().map(|e| e.peer_port).collect())
            .unwrap_or_default();
        let best_len = self
            .loc
            .get(&prefix)
            .and_then(|m| m.first())
            .map(|e| e.as_path.len())
            .unwrap_or(usize::MAX);
        let mut next_len = usize::MAX;
        let mut ports: Vec<PortId> = Vec::new();
        for (&port, routes) in &self.adj_in {
            if best.contains(&port) {
                continue;
            }
            if let Some(path) = routes.get(&prefix) {
                if path.len() <= best_len {
                    continue;
                }
                match path.len().cmp(&next_len) {
                    std::cmp::Ordering::Less => {
                        next_len = path.len();
                        ports.clear();
                        ports.push(port);
                    }
                    std::cmp::Ordering::Equal => ports.push(port),
                    std::cmp::Ordering::Greater => {}
                }
            }
        }
        ports.sort_unstable();
        ports
    }

    /// All prefixes currently reachable (learned), for initial table
    /// dumps.
    pub fn learned_prefixes(&self) -> Vec<Prefix> {
        self.loc.keys().copied().collect()
    }

    /// All locally originated prefixes.
    pub fn local_prefixes(&self) -> &[Prefix] {
        &self.local
    }

    /// Number of Loc-RIB entries plus connected routes — the Listing 3
    /// table-size metric.
    pub fn route_count(&self) -> usize {
        self.loc.len() + self.connected.len()
    }

    /// Total ECMP members across all prefixes (storage proxy).
    pub fn path_count(&self) -> usize {
        self.loc.values().map(Vec::len).sum::<usize>()
    }

    /// Approximate resident bytes: per path, prefix (5) + AS path (4/hop)
    /// + next hop (4) + ifindex (2).
    pub fn approx_bytes(&self) -> usize {
        self.loc
            .values()
            .flat_map(|m| m.iter())
            .map(|e| 5 + 4 * e.as_path.len() + 6)
            .sum::<usize>()
            + self.connected.len() * 11
    }

    /// Render in the paper's Listing 3 layout (`ip route` style), with
    /// `peer_ip` looked up through the caller-provided closure.
    pub fn render(&self, peer_ip: impl Fn(PortId) -> Option<IpAddr4>) -> String {
        let mut out = String::new();
        for (prefix, port, addr) in &self.connected {
            out.push_str(&format!(
                "{prefix} dev {port} proto kernel scope link src {addr}\n"
            ));
        }
        for (prefix, members) in &self.loc {
            if members.len() == 1 {
                let m = &members[0];
                let via = peer_ip(m.peer_port)
                    .map(|ip| ip.to_string())
                    .unwrap_or_else(|| "?".into());
                out.push_str(&format!(
                    "{prefix} via {via} dev {} proto bgp metric 20\n",
                    m.peer_port
                ));
            } else {
                out.push_str(&format!("{prefix} proto bgp metric 20\n"));
                let mut sorted = self.members(*prefix);
                sorted.sort_by_key(|e| e.peer_port);
                for m in sorted {
                    let via = peer_ip(m.peer_port)
                        .map(|ip| ip.to_string())
                        .unwrap_or_else(|| "?".into());
                    out.push_str(&format!(
                        "\tnexthop via {via} dev {} weight 1\n",
                        m.peer_port
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(third: u8) -> Prefix {
        Prefix::new(IpAddr4::new(192, 168, third, 0), 24)
    }

    #[test]
    fn shortest_path_wins() {
        let mut rib = Rib::new();
        assert_eq!(
            rib.ingest_advert(PortId(0), pfx(11), vec![64513, 65001], IpAddr4(0)),
            RibChange::Gained
        );
        assert_eq!(
            rib.ingest_advert(PortId(1), pfx(11), vec![64514, 64512, 64513, 65001], IpAddr4(0)),
            RibChange::Unchanged,
            "longer path does not perturb the best set"
        );
        let m = rib.members(pfx(11));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].peer_port, PortId(0));
    }

    #[test]
    fn equal_length_paths_form_ecmp() {
        let mut rib = Rib::new();
        rib.ingest_advert(PortId(0), pfx(14), vec![64513, 65004], IpAddr4(0));
        let c = rib.ingest_advert(PortId(1), pfx(14), vec![64514, 65004], IpAddr4(0));
        assert_eq!(c, RibChange::Changed);
        assert_eq!(rib.members(pfx(14)).len(), 2);
    }

    #[test]
    fn withdraw_shrinks_then_loses() {
        let mut rib = Rib::new();
        rib.ingest_advert(PortId(0), pfx(11), vec![64513], IpAddr4(0));
        rib.ingest_advert(PortId(1), pfx(11), vec![64514], IpAddr4(0));
        assert_eq!(rib.ingest_withdraw(PortId(0), pfx(11)), RibChange::Changed);
        assert_eq!(rib.ingest_withdraw(PortId(1), pfx(11)), RibChange::Lost);
        assert!(rib.members(pfx(11)).is_empty());
        assert_eq!(
            rib.ingest_withdraw(PortId(1), pfx(11)),
            RibChange::Unchanged,
            "idempotent"
        );
    }

    #[test]
    fn drop_peer_reports_every_affected_prefix() {
        let mut rib = Rib::new();
        rib.ingest_advert(PortId(0), pfx(11), vec![64513], IpAddr4(0));
        rib.ingest_advert(PortId(0), pfx(12), vec![64513], IpAddr4(0));
        rib.ingest_advert(PortId(1), pfx(12), vec![64514], IpAddr4(0));
        let changes = rib.drop_peer(PortId(0));
        assert_eq!(changes.len(), 2);
        assert!(changes.contains(&(pfx(11), RibChange::Lost)));
        assert!(changes.contains(&(pfx(12), RibChange::Changed)));
    }

    #[test]
    fn local_prefixes_shadow_learned_paths() {
        let mut rib = Rib::new();
        rib.add_local(pfx(11));
        assert!(rib.is_local(pfx(11)));
        assert_eq!(
            rib.ingest_advert(PortId(0), pfx(11), vec![64513, 65999], IpAddr4(0)),
            RibChange::Unchanged,
            "locally originated prefixes ignore learned paths"
        );
        assert!(rib.members(pfx(11)).is_empty());
    }

    #[test]
    fn lookup_is_longest_prefix_match() {
        let mut rib = Rib::new();
        rib.ingest_advert(PortId(0), Prefix::new(IpAddr4(0), 0), vec![1], IpAddr4(0));
        rib.ingest_advert(PortId(1), pfx(11), vec![2], IpAddr4(0));
        let (p, m) = rib.lookup(IpAddr4::new(192, 168, 11, 7)).unwrap();
        assert_eq!(p, pfx(11));
        assert_eq!(m[0].peer_port, PortId(1));
        let (p, _) = rib.lookup(IpAddr4::new(10, 0, 0, 1)).unwrap();
        assert_eq!(p.len, 0, "falls back to default route");
    }

    #[test]
    fn render_matches_listing3_layout() {
        let mut rib = Rib::new();
        rib.add_connected(
            Prefix::new(IpAddr4::new(172, 16, 0, 0), 24),
            PortId(3),
            IpAddr4::new(172, 16, 0, 2),
        );
        rib.ingest_advert(PortId(2), pfx(0), vec![65000], IpAddr4(0));
        rib.ingest_advert(PortId(3), pfx(2), vec![64512, 65002], IpAddr4(0));
        rib.ingest_advert(PortId(4), pfx(2), vec![64512, 65002], IpAddr4(0));
        let s = rib.render(|p| Some(IpAddr4::new(172, 16, p.0 as u8, 1)));
        assert!(s.contains("172.16.0.0/24 dev eth3 proto kernel scope link src 172.16.0.2"));
        assert!(s.contains("192.168.0.0/24 via 172.16.2.1 dev eth2 proto bgp metric 20"));
        assert!(s.contains("192.168.2.0/24 proto bgp metric 20"));
        assert!(s.contains("\tnexthop via 172.16.3.1 dev eth3 weight 1"));
        assert!(s.contains("\tnexthop via 172.16.4.1 dev eth4 weight 1"));
    }

    #[test]
    fn version_moves_exactly_on_loc_rib_change() {
        let mut rib = Rib::new();
        let v0 = rib.version();
        rib.ingest_advert(PortId(0), pfx(11), vec![64513], IpAddr4(0));
        assert_eq!(rib.version(), v0 + 1, "gained");
        rib.ingest_advert(PortId(1), pfx(11), vec![64514, 64512, 64513], IpAddr4(0));
        assert_eq!(rib.version(), v0 + 1, "longer path: unchanged");
        rib.ingest_withdraw(PortId(0), pfx(11));
        assert_eq!(rib.version(), v0 + 2, "best set changed");
        rib.ingest_withdraw(PortId(0), pfx(11));
        assert_eq!(rib.version(), v0 + 2, "idempotent withdraw: unchanged");
    }

    #[test]
    fn size_metrics_scale() {
        let mut rib = Rib::new();
        assert_eq!(rib.route_count(), 0);
        rib.ingest_advert(PortId(0), pfx(11), vec![64513, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(1), pfx(11), vec![64514, 65001], IpAddr4(0));
        assert_eq!(rib.route_count(), 1);
        assert_eq!(rib.path_count(), 2);
        assert_eq!(rib.approx_bytes(), 2 * (5 + 8 + 6));
    }

    #[test]
    fn backup_members_are_the_next_best_tier() {
        let mut rib = Rib::new();
        // Two equal best paths, two next-best, one even worse.
        rib.ingest_advert(PortId(0), pfx(11), vec![64513, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(1), pfx(11), vec![64514, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(3), pfx(11), vec![64515, 64512, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(2), pfx(11), vec![64516, 64517, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(4), pfx(11), vec![1, 2, 3, 4], IpAddr4(0));
        assert_eq!(rib.members(pfx(11)).len(), 2);
        assert_eq!(rib.backup_members(pfx(11)), vec![PortId(2), PortId(3)]);
        // No worse paths → no backups.
        rib.ingest_advert(PortId(0), pfx(12), vec![64513, 65002], IpAddr4(0));
        assert!(rib.backup_members(pfx(12)).is_empty());
        // Unknown prefix → no backups.
        assert!(rib.backup_members(pfx(99)).is_empty());
    }

    /// Regression: the generation counter wraps at `u64::MAX` instead of
    /// panicking/sticking, and a wrapped bump still differs from the
    /// pre-wrap snapshot (compiled-FIB staleness is an equality check).
    #[test]
    fn version_counter_wraps_safely() {
        let mut rib = Rib::new();
        rib.set_version(u64::MAX);
        let snapshot = rib.version();
        assert_eq!(
            rib.ingest_advert(PortId(0), pfx(11), vec![64513, 65001], IpAddr4(0)),
            RibChange::Gained
        );
        assert_eq!(rib.version(), 0, "wrapped to zero");
        assert_ne!(rib.version(), snapshot);
    }
}
