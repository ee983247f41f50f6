//! The BGP RIB: Adj-RIB-In and Loc-RIB with ECMP in one table, and the
//! FIB view rendered in the paper's Listing 3 layout.

use std::collections::BTreeMap;
use std::rc::Rc;

use dcn_sim::PortId;
use dcn_wire::{IpAddr4, Prefix};
use smallvec::SmallVec;

/// An AS path, shared and immutable: converted once from the UPDATE that
/// carried it, then held by every prefix of that UPDATE in the
/// Adj-RIB-In, by the ECMP members read from it and by each peer's
/// Adj-RIB-Out — a reference count each, never a copy. Not atomic: a
/// router lives on its simulation's one thread.
pub type AsPath = Rc<[u32]>;

/// One learned path. Those of minimal AS-path length are the prefix's
/// Loc-RIB entry, its ECMP members.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PathEntry {
    pub as_path: AsPath,
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
    /// Adj-RIB-In by prefix: every path learned for it, one per peer
    /// port, ascending. The Loc-RIB is not a second table but a reading
    /// of this one ([`best_of`]), so one lookup serves a peer's
    /// advertisement, the recomputation it causes and the export that
    /// follows. A prefix with no path left has no entry; locally
    /// originated prefixes never get one.
    routes: BTreeMap<Prefix, Vec<PathEntry>>,
    /// Locally originated prefixes (AS path length 0, always preferred).
    /// Set up before anything is learned.
    local: Vec<Prefix>,
    /// Connected subnets for rendering (link /24s, rack subnet).
    connected: Vec<(Prefix, PortId, IpAddr4)>,
    /// Bumped whenever the Loc-RIB changes; the compiled FIB keys its
    /// lazy rebuild on this.
    version: u64,
}

/// The ECMP members among `paths`: all of minimal AS-path length, in
/// `paths`' ascending-port order.
fn best_of(paths: &[PathEntry]) -> impl Iterator<Item = &PathEntry> {
    let best_len = paths.iter().map(|e| e.as_path.len()).min();
    paths.iter().filter(move |e| Some(e.as_path.len()) == best_len)
}

/// Apply `edit` to the paths learned for one prefix and report how its
/// ECMP set moved. Membership is derived purely from AS-path lengths. An
/// edit that changes nothing — the common case while a table dump floods
/// in over several uplinks — allocates nothing: the old set is a stack
/// list of shared paths.
fn apply(paths: &mut Vec<PathEntry>, edit: impl FnOnce(&mut Vec<PathEntry>)) -> RibChange {
    let old: SmallVec<(PortId, AsPath), 8> =
        best_of(paths).map(|e| (e.peer_port, e.as_path.clone())).collect();
    edit(paths);
    let mut new = best_of(paths).map(|e| (e.peer_port, &e.as_path)).peekable();
    match (old.is_empty(), new.peek().is_none()) {
        (true, true) => RibChange::Unchanged,
        (true, false) => RibChange::Gained,
        (false, true) => RibChange::Lost,
        (false, false) if new.eq(old.iter().map(|(port, path)| (*port, path))) => {
            RibChange::Unchanged
        }
        (false, false) => RibChange::Changed,
    }
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

    fn note(&mut self, change: RibChange) -> RibChange {
        if change != RibChange::Unchanged {
            self.version = self.version.wrapping_add(1);
        }
        change
    }

    /// Record a received advertisement and report how the prefix's ECMP
    /// set moved. A locally originated prefix is always best and never
    /// ECMP with learned paths: those are not kept.
    pub fn ingest_advert(
        &mut self,
        port: PortId,
        prefix: Prefix,
        as_path: impl Into<AsPath>,
        next_hop: IpAddr4,
    ) -> RibChange {
        let _ = next_hop; // next hop is implied by the p2p link
        if self.is_local(prefix) {
            return RibChange::Unchanged;
        }
        let as_path = as_path.into();
        let change = apply(self.routes.entry(prefix).or_default(), |paths| {
            match paths.binary_search_by_key(&port, |e| e.peer_port) {
                Ok(i) => paths[i].as_path = as_path,
                Err(i) => {
                    paths.insert(i, PathEntry { as_path, peer_port: port, next_hop: IpAddr4(0) })
                }
            }
        });
        self.note(change)
    }

    /// Record a withdrawal.
    pub fn ingest_withdraw(&mut self, port: PortId, prefix: Prefix) -> RibChange {
        let Some(paths) = self.routes.get_mut(&prefix) else {
            return RibChange::Unchanged;
        };
        let change = apply(paths, |paths| paths.retain(|e| e.peer_port != port));
        if paths.is_empty() {
            self.routes.remove(&prefix);
        }
        self.note(change)
    }

    /// Drop everything learned from a peer (session death). Returns the
    /// affected prefixes, ascending, and their change kinds.
    pub fn drop_peer(&mut self, port: PortId) -> Vec<(Prefix, RibChange)> {
        let mut changes = Vec::new();
        self.routes.retain(|&prefix, paths| {
            if paths.iter().any(|e| e.peer_port == port) {
                let change = apply(paths, |paths| paths.retain(|e| e.peer_port != port));
                if change != RibChange::Unchanged {
                    changes.push((prefix, change));
                }
            }
            !paths.is_empty()
        });
        self.version = self.version.wrapping_add(changes.len() as u64);
        changes
    }

    fn paths(&self, prefix: Prefix) -> &[PathEntry] {
        self.routes.get(&prefix).map_or(&[], Vec::as_slice)
    }

    /// The ECMP members for `prefix` (ports sorted ascending).
    pub fn members(&self, prefix: Prefix) -> Vec<&PathEntry> {
        best_of(self.paths(prefix)).collect()
    }

    /// Longest-prefix-match lookup for a destination address.
    pub fn lookup(&self, dst: IpAddr4) -> Option<(Prefix, Vec<&PathEntry>)> {
        // Prefixes in a DCN RIB are few; scan and keep the longest match.
        let mut best: Option<Prefix> = None;
        for &p in self.routes.keys() {
            if p.contains(dst) && best.is_none_or(|b| p.len > b.len) {
                best = Some(p);
            }
        }
        best.map(|p| (p, self.members(p)))
    }

    /// The representative best path for advertisement: the member on the
    /// lowest port.
    pub fn best(&self, prefix: Prefix) -> Option<&PathEntry> {
        best_of(self.paths(prefix)).next()
    }

    /// Local-repair backup candidates for `prefix`: the peer ports of the
    /// *next-best* learned paths — the shortest AS-path length strictly
    /// worse than the ECMP set's. Sorted ascending. These are the routes
    /// the control plane itself would promote once the best set is
    /// withdrawn, so a data-plane repair through them forwards exactly
    /// where the post-convergence FIB will.
    ///
    /// Best-effort by design: a change that leaves the ECMP set alone (a
    /// longer path learned or withdrawn) does not bump [`Rib::version`],
    /// so a compiled backup set can lag such changes until the next
    /// Loc-RIB change triggers a rebuild. Primary forwarding is unaffected.
    pub fn backup_members(&self, prefix: Prefix) -> Vec<PortId> {
        let paths = self.paths(prefix);
        let lens = || paths.iter().map(|e| e.as_path.len());
        let best_len = lens().min();
        let next_len = lens().filter(|&len| Some(len) > best_len).min();
        paths
            .iter()
            .filter(|e| Some(e.as_path.len()) == next_len)
            .map(|e| e.peer_port)
            .collect()
    }

    /// All prefixes currently reachable (learned), for initial table
    /// dumps.
    pub fn learned_prefixes(&self) -> Vec<Prefix> {
        self.routes.keys().copied().collect()
    }

    /// All locally originated prefixes.
    pub fn local_prefixes(&self) -> &[Prefix] {
        &self.local
    }

    /// Number of Loc-RIB entries plus connected routes — the Listing 3
    /// table-size metric.
    pub fn route_count(&self) -> usize {
        self.routes.len() + self.connected.len()
    }

    /// Total ECMP members across all prefixes (storage proxy).
    pub fn path_count(&self) -> usize {
        self.routes.values().map(|paths| best_of(paths).count()).sum()
    }

    /// Approximate resident bytes: per path, prefix (5) + AS path (4/hop)
    /// + next hop (4) + ifindex (2).
    pub fn approx_bytes(&self) -> usize {
        self.routes
            .values()
            .flat_map(|paths| best_of(paths))
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
        for (prefix, paths) in &self.routes {
            let members: SmallVec<&PathEntry, 8> = best_of(paths).collect();
            let via = |m: &PathEntry| {
                peer_ip(m.peer_port).map(|ip| ip.to_string()).unwrap_or_else(|| "?".into())
            };
            if let [m] = members[..] {
                out.push_str(&format!(
                    "{prefix} via {} dev {} proto bgp metric 20\n",
                    via(m),
                    m.peer_port
                ));
            } else {
                out.push_str(&format!("{prefix} proto bgp metric 20\n"));
                for m in members.iter() {
                    out.push_str(&format!(
                        "\tnexthop via {} dev {} weight 1\n",
                        via(m),
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
