//! Compiled forwarding table: the BGP data-plane fast path.
//!
//! [`Rib::lookup`] scans every Loc-RIB key per packet and materializes a
//! `Vec` of path references — fine for the control plane, wasteful per
//! forwarded frame. The [`CompiledFib`] flattens the Loc-RIB into a list
//! of `(prefix, next-hop ports)` pairs sorted by descending prefix
//! length, so a lookup is a linear first-containing-match scan (DCN RIBs
//! hold tens of prefixes, not an Internet table) and ECMP selection is
//! an index into a port list that stays inline (no heap) for fabrics with
//! up to eight equal-cost uplinks.
//!
//! Equivalence with [`Rib::lookup`], the reference `tests/rib_props.rs`
//! holds it to over arbitrary RIBs: distinct same-length IPv4 prefixes are
//! disjoint, so the first containing match in (length desc, addr asc)
//! order is exactly the longest match `Rib::lookup` finds — and for the
//! degenerate case of overlapping equal-length entries both orders keep
//! the lowest address. The port list is `Rib::members` order (sorted by
//! peer port), so `flow % n` picks the identical member.
//!
//! Rebuilds are keyed on [`Rib::version`] and happen only when the
//! Loc-RIB actually changed; lookups never allocate.

use dcn_sim::PortId;
use dcn_wire::IpAddr4;

use crate::inline::InlineList;
use crate::rib::Rib;

/// One compiled route: the ECMP best set plus the precomputed
/// local-repair backup set (next-best Adj-RIB-In candidates).
struct Route {
    prefix: dcn_wire::Prefix,
    /// ECMP member ports, `Rib::members` order (sorted by peer port).
    ports: InlineList<PortId, 8>,
    /// Local-repair fallback: [`Rib::backup_members`] — the ports the
    /// control plane would promote once the best set is withdrawn.
    /// Consulted only by [`CompiledFib::lookup_repair`].
    backups: InlineList<PortId, 8>,
}

/// The compiled Loc-RIB. Next-hop port sets stay inline up to 8 members
/// (a pod spine's uplink radix in the paper's topologies).
#[derive(Default)]
pub struct CompiledFib {
    /// Routes sorted by (len desc, addr asc).
    routes: Vec<Route>,
}

impl CompiledFib {
    pub fn new() -> CompiledFib {
        CompiledFib::default()
    }

    /// Recompile from the RIB. Called lazily when [`Rib::version`] moved.
    pub fn rebuild(&mut self, rib: &Rib) {
        self.routes.clear();
        for prefix in rib.learned_prefixes() {
            let ports: InlineList<PortId, 8> =
                rib.members(prefix).iter().map(|e| e.peer_port).collect();
            if !ports.is_empty() {
                let backups: InlineList<PortId, 8> =
                    rib.backup_members(prefix).into_iter().collect();
                self.routes.push(Route { prefix, ports, backups });
            }
        }
        self.routes.sort_by(|a, b| {
            b.prefix.len.cmp(&a.prefix.len).then(a.prefix.addr.cmp(&b.prefix.addr))
        });
    }

    /// Longest-prefix-match next hop for `dst` with flow hash `flow`.
    /// Bit-for-bit the same port `Rib::lookup` + `ecmp_index` selects.
    #[inline]
    pub fn lookup(&self, dst: IpAddr4, flow: u64) -> Option<PortId> {
        for r in &self.routes {
            if r.prefix.contains(dst) {
                return Some(r.ports[dcn_wire::ecmp_index(flow, r.ports.len())]);
            }
        }
        None
    }

    /// Like [`CompiledFib::lookup`], but with local fast reroute: the
    /// ECMP pick is filtered through `port_up` (the router's own admin
    /// view), and when every best-set member is dead the precomputed
    /// backup set answers instead, flagged as a repair (`true`). Repair
    /// picks avoid `arrival` unless it is the only survivor. When the
    /// plain pick's port is up the decision is bit-identical to
    /// [`CompiledFib::lookup`] — which keeps `local_repair=off` behavior
    /// byte-for-byte unchanged. Never allocates.
    #[inline]
    pub fn lookup_repair(
        &self,
        dst: IpAddr4,
        flow: u64,
        port_up: impl Fn(PortId) -> bool,
        arrival: Option<PortId>,
    ) -> Option<(PortId, bool)> {
        let r = self.routes.iter().find(|r| r.prefix.contains(dst))?;
        let plain = r.ports[dcn_wire::ecmp_index(flow, r.ports.len())];
        if port_up(plain) {
            return Some((plain, false));
        }
        // The hashed member is locally dead: re-spread the flow over the
        // surviving members, then over the backup set.
        for set in [&r.ports, &r.backups] {
            let avoid = |p: PortId| !port_up(p) || arrival == Some(p);
            let mut live = set.iter().filter(|&&p| !avoid(p)).count();
            let mut back_ok = false;
            if live == 0 {
                // Arrival may be the only survivor: better back than dropped.
                live = set.iter().filter(|&&p| port_up(p)).count();
                back_ok = true;
            }
            if live > 0 {
                let k = dcn_wire::ecmp_index(flow, live);
                let pick = set
                    .iter()
                    .filter(|&&p| if back_ok { port_up(p) } else { !avoid(p) })
                    .nth(k)
                    .copied()
                    .expect("k < live");
                return Some((pick, true));
            }
        }
        None
    }

    /// Number of compiled routes (introspection for tests and gauges).
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_wire::Prefix;

    fn pfx(third: u8, len: u8) -> Prefix {
        Prefix::new(IpAddr4::new(192, 168, third, 0), len)
    }

    /// Drive both paths over one RIB and assert identical picks for a
    /// spread of destinations and flows.
    fn assert_equivalent(rib: &Rib, dsts: &[IpAddr4]) {
        let mut fib = CompiledFib::new();
        fib.rebuild(rib);
        for &dst in dsts {
            for flow in [0u64, 1, 2, 3, 7, 100, 9999, u64::MAX] {
                let slow = rib.lookup(dst).map(|(_, members)| {
                    members[dcn_wire::ecmp_index(flow, members.len())].peer_port
                });
                assert_eq!(fib.lookup(dst, flow), slow, "dst {dst} flow {flow}");
            }
        }
    }

    #[test]
    fn matches_rib_lookup_with_ecmp_and_default_route() {
        let mut rib = Rib::new();
        rib.ingest_advert(PortId(4), Prefix::new(IpAddr4(0), 0), vec![64512], IpAddr4(0));
        rib.ingest_advert(PortId(2), pfx(11, 24), vec![64513, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(3), pfx(11, 24), vec![64514, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(5), pfx(12, 24), vec![64513, 65002], IpAddr4(0));
        assert_equivalent(
            &rib,
            &[
                IpAddr4::new(192, 168, 11, 7),
                IpAddr4::new(192, 168, 12, 9),
                IpAddr4::new(10, 0, 0, 1),
            ],
        );
    }

    #[test]
    fn longest_prefix_wins_and_withdrawals_apply_after_rebuild() {
        let mut rib = Rib::new();
        rib.ingest_advert(PortId(0), pfx(11, 16), vec![1, 2], IpAddr4(0));
        rib.ingest_advert(PortId(1), pfx(11, 24), vec![3, 4], IpAddr4(0));
        let mut fib = CompiledFib::new();
        fib.rebuild(&rib);
        let dst = IpAddr4::new(192, 168, 11, 50);
        assert_eq!(fib.lookup(dst, 0), Some(PortId(1)), "/24 beats /16");
        rib.ingest_withdraw(PortId(1), pfx(11, 24));
        fib.rebuild(&rib);
        assert_eq!(fib.lookup(dst, 0), Some(PortId(0)), "falls back to /16");
        rib.ingest_withdraw(PortId(0), pfx(11, 16));
        fib.rebuild(&rib);
        assert_eq!(fib.lookup(dst, 0), None);
        assert_eq!(fib.route_count(), 0);
    }

    #[test]
    fn repair_respreads_then_falls_back_to_next_best() {
        let mut rib = Rib::new();
        // Best set {0, 1}; next-best {2}; a worse path on 3 stays unused.
        rib.ingest_advert(PortId(0), pfx(11, 24), vec![64513, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(1), pfx(11, 24), vec![64514, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(2), pfx(11, 24), vec![64515, 64512, 65001], IpAddr4(0));
        rib.ingest_advert(PortId(3), pfx(11, 24), vec![1, 2, 3, 4], IpAddr4(0));
        let mut fib = CompiledFib::new();
        fib.rebuild(&rib);
        let dst = IpAddr4::new(192, 168, 11, 7);
        for flow in [0u64, 1, 7, 100, 9999] {
            let plain = fib.lookup(dst, flow).unwrap();
            // All up: identical unflagged pick.
            assert_eq!(fib.lookup_repair(dst, flow, |_| true, None), Some((plain, false)));
            // Hashed member dead: re-spread over the surviving member.
            let other = if plain == PortId(0) { PortId(1) } else { PortId(0) };
            assert_eq!(fib.lookup_repair(dst, flow, |p| p != plain, None), Some((other, true)));
            // Whole best set dead: the next-best backup answers.
            let up = |p: PortId| p != PortId(0) && p != PortId(1);
            assert_eq!(fib.lookup_repair(dst, flow, up, None), Some((PortId(2), true)));
            // ...unless the packet arrived there and another port lives.
            assert_eq!(
                fib.lookup_repair(dst, flow, up, Some(PortId(2))),
                Some((PortId(2), true)),
                "arrival is the only survivor: better back than dropped"
            );
            // Everything dead: still a drop.
            assert_eq!(fib.lookup_repair(dst, flow, |_| false, None), None);
        }
        // Unknown destination stays a drop either way.
        assert_eq!(fib.lookup_repair(IpAddr4::new(10, 0, 0, 1), 0, |_| true, None), None);
    }

    #[test]
    fn ecmp_sets_stay_inline() {
        let mut rib = Rib::new();
        for p in 0..8 {
            rib.ingest_advert(PortId(p), pfx(14, 24), vec![64513 + p as u32, 65004], IpAddr4(0));
        }
        let mut fib = CompiledFib::new();
        fib.rebuild(&rib);
        // Eight equal-cost uplinks: every member reachable, none heap-spilled.
        let dst = IpAddr4::new(192, 168, 14, 1);
        let picked: std::collections::BTreeSet<PortId> =
            (0..64u64).filter_map(|f| fib.lookup(dst, f)).collect();
        assert_eq!(picked.len(), 8);
    }
}
