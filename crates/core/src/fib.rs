//! Compiled forwarding table: the MR-MTP data-plane fast path.
//!
//! [`reference_candidates`] walks the VID table, the neighbor table and
//! the negative-entry map on every packet — correct, but allocation- and
//! branch-heavy. The
//! [`CompiledFib`] flattens that walk into 256 per-root entries of port
//! bitmasks, rebuilt only when the underlying tables change (keyed on
//! their version counters), so steady-state next-hop selection is a
//! mask-and-pick over `u128`s with zero allocation:
//!
//! * `down & up_mask` nonzero → pick the `flow % n`-th set bit
//!   (ascending bit order is exactly the sorted candidate order the slow
//!   path hashes over);
//! * else a total upward loss means drop;
//! * else `ups & up_mask` the same way.
//!
//! `up_mask` is the engine-maintained admin port state
//! ([`dcn_sim::Ctx::port_up_mask`]) applied at lookup time, so admin
//! flaps need no FIB rebuild at all. The fast path is only engaged on
//! routers with ≤ 128 ports; beyond that the slow path remains
//! authoritative (and correct) for free.
//!
//! [`reference_candidates`] is the one shared implementation of the slow
//! path; [`MrmtpRouter::next_hop`](crate::MrmtpRouter::next_hop) falls
//! back to it, and the property tests pit [`CompiledFib::lookup`] against
//! it over arbitrary table states.

use std::collections::BTreeSet;

use dcn_sim::PortId;

use crate::neighbor::NeighborTable;
use crate::vid_table::VidTable;

/// Per-destination-root forwarding state. A copy of everything the slow
/// path consults except admin port state, which stays a lookup-time mask.
#[derive(Clone, Copy, Debug)]
struct FibEntry {
    /// Downward ports: VID-table acquisition ports with a live neighbor
    /// and no negative entry for this root.
    down: u128,
    /// Upward ports: live uplinks minus negative entries for this root.
    ups: u128,
    /// Local-repair detour ports: live down-tier neighbors that are not
    /// already a downward port for this root (and carry no negative
    /// entry for it). In a folded Clos every such sibling still reaches
    /// the root through its own uplinks, so when both `down` and `ups`
    /// are masked dead a single bounce through `backup` restores
    /// delivery. Consulted only by [`CompiledFib::lookup_repair`] — the
    /// off-mode [`CompiledFib::lookup`] never reads it.
    backup: u128,
    /// Total upward loss: traffic for this root is dropped when no
    /// downward port survives the mask.
    upper_lost: bool,
}

const EMPTY: FibEntry = FibEntry { down: 0, ups: 0, backup: 0, upper_lost: false };

/// The compiled forwarding table. Allocates once at construction; every
/// rebuild and lookup thereafter is allocation-free.
pub struct CompiledFib {
    entries: Box<[FibEntry; 256]>,
}

impl Default for CompiledFib {
    fn default() -> CompiledFib {
        CompiledFib::new()
    }
}

impl CompiledFib {
    pub fn new() -> CompiledFib {
        CompiledFib { entries: Box::new([EMPTY; 256]) }
    }

    /// Recompile from the routing tables. Called lazily by the router
    /// when a version counter moved; performs no heap allocation.
    pub fn rebuild(
        &mut self,
        table: &VidTable,
        nbr: &NeighborTable,
        upper_lost: &BTreeSet<u8>,
        tier: u8,
    ) {
        let mut default_ups = 0u128;
        for p in nbr.up_ports_at_tier(tier + 1) {
            if p.index() < 128 {
                default_ups |= 1 << p.index();
            }
        }
        // Down-tier siblings form the local-repair detour pool; a ToR
        // (tier 1) has only hosts below it, which never appear as live
        // neighbors, so the pool is naturally empty there.
        let mut default_backup = 0u128;
        if tier > 0 {
            for p in nbr.up_ports_at_tier(tier - 1) {
                if p.index() < 128 {
                    default_backup |= 1 << p.index();
                }
            }
        }
        for e in self.entries.iter_mut() {
            *e = FibEntry { down: 0, ups: default_ups, backup: default_backup, upper_lost: false };
        }
        for root in table.roots() {
            let e = &mut self.entries[root as usize];
            for o in table.vids_for(root) {
                let p = o.port;
                if p.index() < 128 && nbr.is_up(p) && !table.is_negative(root, p) {
                    e.down |= 1 << p.index();
                }
            }
            // A port already carrying the primary down-tree route is not
            // a detour.
            e.backup &= !e.down;
        }
        for (root, ports) in table.negatives() {
            let e = &mut self.entries[root as usize];
            for &p in ports {
                if p.index() < 128 {
                    e.ups &= !(1 << p.index());
                    e.backup &= !(1 << p.index());
                }
            }
        }
        for &root in upper_lost {
            self.entries[root as usize].upper_lost = true;
        }
    }

    /// Next hop for traffic to `root` with flow hash `flow`, given the
    /// engine's admin-up port mask. Bit-for-bit the same decision as
    /// [`reference_candidates`] + `ecmp_index`.
    #[inline]
    pub fn lookup(&self, root: u8, flow: u16, up_mask: u128) -> Option<PortId> {
        let e = &self.entries[root as usize];
        let down = e.down & up_mask;
        if down != 0 {
            return Some(pick(down, flow));
        }
        if e.upper_lost {
            return None;
        }
        let ups = e.ups & up_mask;
        if ups != 0 {
            Some(pick(ups, flow))
        } else {
            None
        }
    }

    /// Like [`CompiledFib::lookup`], but with local fast reroute: when
    /// the primary candidate set is masked dead, fall back to the next
    /// stage and flag the pick as a *repair* (`true` in the returned
    /// pair). Stages, all branchless mask-and-pick:
    ///
    /// 1. `down ∧ up_mask` — the primary route, never a repair.
    /// 2. `ups ∧ up_mask` — primary when no down-tree port was compiled
    ///    (`down == 0`), a **repair** when the compiled down-tree ports
    ///    are all administratively dead. Skipped on a total upper loss.
    /// 3. `backup ∧ up_mask` — the down-tier detour, always a repair.
    ///
    /// Repair stages avoid `arrival` (the bit of the port the packet
    /// came in on) unless it is the only survivor, so a detour is not a
    /// straight bounce-back. Decisions where no repair fires are
    /// bit-identical to [`CompiledFib::lookup`], which is what keeps
    /// `local_repair=off` runs byte-for-byte unchanged.
    #[inline]
    pub fn lookup_repair(
        &self,
        root: u8,
        flow: u16,
        up_mask: u128,
        arrival: u128,
    ) -> Option<(PortId, bool)> {
        let e = &self.entries[root as usize];
        let down = e.down & up_mask;
        if down != 0 {
            return Some((pick(down, flow), false));
        }
        if !e.upper_lost {
            let ups = e.ups & up_mask;
            if e.down == 0 {
                // No down-tree route was ever compiled: uplinks are this
                // root's primary path, exactly as in off mode.
                if ups != 0 {
                    return Some((pick(ups, flow), false));
                }
            } else if ups != 0 {
                let pref = ups & !arrival;
                return Some((pick(if pref != 0 { pref } else { ups }, flow), true));
            }
        }
        let b = e.backup & up_mask;
        if b != 0 {
            let pref = b & !arrival;
            return Some((pick(if pref != 0 { pref } else { b }, flow), true));
        }
        None
    }
}

/// The `flow % n`-th set bit of `mask`, counting from bit 0. Because
/// candidate sets are sorted ascending, this is the same port the slow
/// path's `candidates[ecmp_index(flow, n)]` selects.
#[inline]
fn pick(mask: u128, flow: u16) -> PortId {
    let n = mask.count_ones() as usize;
    let k = dcn_wire::ecmp_index(flow as u64, n);
    let mut m = mask;
    for _ in 0..k {
        m &= m - 1; // clear lowest set bit
    }
    PortId(m.trailing_zeros() as u16)
}

/// The slow-path candidate computation (sorted ECMP set, empty = drop).
/// The single source of truth: the router's slow path is this, and the
/// compiled FIB is property-tested against it.
pub fn reference_candidates(
    table: &VidTable,
    nbr: &NeighborTable,
    upper_lost: &BTreeSet<u8>,
    tier: u8,
    root: u8,
    port_up: impl Fn(PortId) -> bool,
) -> Vec<PortId> {
    let mut down: Vec<PortId> = table
        .vids_for(root)
        .iter()
        .map(|o| o.port)
        .filter(|&p| port_up(p) && nbr.is_up(p) && !table.is_negative(root, p))
        .collect();
    if !down.is_empty() {
        down.sort_unstable();
        return down;
    }
    if upper_lost.contains(&root) {
        return Vec::new();
    }
    let mut ups: Vec<PortId> = nbr
        .up_ports_at_tier(tier + 1)
        .filter(|&p| port_up(p) && !table.is_negative(root, p))
        .collect();
    ups.sort_unstable();
    ups
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_wire::Vid;

    fn v(s: &str) -> Vid {
        s.parse().unwrap()
    }

    /// Drive both paths over one table state and assert identical picks
    /// for every root and a spread of flows.
    fn assert_equivalent(
        table: &VidTable,
        nbr: &NeighborTable,
        upper_lost: &BTreeSet<u8>,
        tier: u8,
        up_mask: u128,
    ) {
        let mut fib = CompiledFib::new();
        fib.rebuild(table, nbr, upper_lost, tier);
        let port_up = |p: PortId| p.index() < 128 && up_mask & (1 << p.index()) != 0;
        for root in 0..=255u8 {
            for flow in [0u16, 1, 2, 3, 7, 100, 9999, u16::MAX] {
                let cands = reference_candidates(table, nbr, upper_lost, tier, root, port_up);
                let slow = if cands.is_empty() {
                    None
                } else {
                    Some(cands[dcn_wire::ecmp_index(flow as u64, cands.len())])
                };
                let fast = fib.lookup(root, flow, up_mask);
                assert_eq!(fast, slow, "root {root} flow {flow} mask {up_mask:#x}");
            }
        }
    }

    #[test]
    fn matches_reference_on_mixed_state() {
        let mut table = VidTable::new();
        table.install(v("11.1"), PortId(0));
        table.install(v("12.1"), PortId(1));
        table.install(v("12.2"), PortId(2));
        table.add_negative(13, PortId(3));
        let mut nbr = NeighborTable::new(6, 100, 3);
        for p in 0..6 {
            nbr.note_rx(PortId(p), 10);
        }
        nbr.set_tier(PortId(0), 1);
        nbr.set_tier(PortId(1), 1);
        nbr.set_tier(PortId(2), 1);
        nbr.set_tier(PortId(3), 3);
        nbr.set_tier(PortId(4), 3);
        nbr.set_carrier(PortId(2), false);
        let mut upper_lost = BTreeSet::new();
        upper_lost.insert(14);
        for mask in [0u128, 0b1, 0b111111, 0b101010, 0b011101] {
            assert_equivalent(&table, &nbr, &upper_lost, 2, mask);
        }
    }

    #[test]
    fn pick_walks_set_bits_in_ascending_order() {
        let mask: u128 = (1 << 2) | (1 << 5) | (1 << 9);
        assert_eq!(pick(mask, 0), PortId(2));
        assert_eq!(pick(mask, 1), PortId(5));
        assert_eq!(pick(mask, 2), PortId(9));
        assert_eq!(pick(mask, 3), PortId(2));
    }

    /// When `lookup` finds a candidate, `lookup_repair` must return the
    /// identical unflagged pick; it may only *add* answers (flagged as
    /// repairs) where `lookup` gives up.
    #[test]
    fn repair_lookup_is_superset_of_plain_lookup() {
        let mut table = VidTable::new();
        table.install(v("11.1"), PortId(0));
        table.install(v("12.1"), PortId(1));
        table.install(v("12.2"), PortId(2));
        table.add_negative(13, PortId(3));
        let mut nbr = NeighborTable::new(6, 100, 3);
        for p in 0..6 {
            nbr.note_rx(PortId(p), 10);
        }
        nbr.set_tier(PortId(0), 1);
        nbr.set_tier(PortId(1), 1);
        nbr.set_tier(PortId(2), 1);
        nbr.set_tier(PortId(3), 3);
        nbr.set_tier(PortId(4), 3);
        let mut upper_lost = BTreeSet::new();
        upper_lost.insert(14);
        let mut fib = CompiledFib::new();
        fib.rebuild(&table, &nbr, &upper_lost, 2);
        for mask in [0u128, 0b1, 0b111111, 0b101010, 0b011101, 0b110000] {
            for root in 0..=255u8 {
                for flow in [0u16, 1, 7, 9999] {
                    let plain = fib.lookup(root, flow, mask);
                    let repair = fib.lookup_repair(root, flow, mask, 0);
                    match plain {
                        // With no arrival port to avoid, the repair
                        // lookup picks the same port wherever the plain
                        // lookup finds one; it may additionally flag the
                        // pick when the down-tree primary was masked out.
                        Some(p) => assert_eq!(repair.map(|(q, _)| q), Some(p)),
                        None => {
                            if let Some((p, repaired)) = repair {
                                assert!(repaired, "unflagged repair at root {root}");
                                assert!(mask & (1 << p.index()) != 0, "repair onto dead port");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The detour stages: dead down-tree → flagged uplink bounce; dead
    /// uplinks too → flagged down-tier sibling, avoiding the arrival
    /// port when another sibling survives.
    #[test]
    fn repair_bounces_up_then_down_and_avoids_arrival() {
        let mut table = VidTable::new();
        // Root 11 reached down-tree via port 0; ports 1–2 are more
        // down-tier neighbors, ports 3–4 uplinks.
        table.install(v("11.1"), PortId(0));
        let mut nbr = NeighborTable::new(5, 100, 3);
        for p in 0..5 {
            nbr.note_rx(PortId(p), 10);
        }
        for p in 0..3 {
            nbr.set_tier(PortId(p), 1);
        }
        nbr.set_tier(PortId(3), 3);
        nbr.set_tier(PortId(4), 3);
        let none = BTreeSet::new();
        let mut fib = CompiledFib::new();
        fib.rebuild(&table, &nbr, &none, 2);

        // All ports up: primary pick, no repair.
        assert_eq!(fib.lookup_repair(11, 0, !0, 0), Some((PortId(0), false)));
        // Down port masked dead: bounce up, flagged.
        let mask = !(1u128 << 0);
        assert_eq!(fib.lookup_repair(11, 0, mask, 0), Some((PortId(3), true)));
        // Uplinks dead too: down-tier detour, flagged.
        let mask = mask & !(1 << 3) & !(1 << 4);
        assert_eq!(fib.lookup_repair(11, 0, mask, 0), Some((PortId(1), true)));
        // Same, but the packet arrived on port 1: detour prefers port 2.
        assert_eq!(fib.lookup_repair(11, 0, mask, 1 << 1), Some((PortId(2), true)));
        // Arrival is the only survivor: better back than dropped.
        let only1 = mask & !(1 << 2);
        assert_eq!(fib.lookup_repair(11, 0, only1, 1 << 1), Some((PortId(1), true)));
        // Everything dead: still a drop.
        assert_eq!(fib.lookup_repair(11, 0, 0, 0), None);
    }

    /// `upper_lost` suppresses the uplink bounce but not the down-tier
    /// detour: the sibling may still hold a live tree for the root.
    #[test]
    fn repair_skips_uplinks_on_upper_lost() {
        let mut table = VidTable::new();
        table.install(v("20.1"), PortId(0));
        let mut nbr = NeighborTable::new(4, 100, 3);
        for p in 0..4 {
            nbr.note_rx(PortId(p), 10);
        }
        nbr.set_tier(PortId(0), 1);
        nbr.set_tier(PortId(1), 1);
        nbr.set_tier(PortId(2), 3);
        let mut upper_lost = BTreeSet::new();
        upper_lost.insert(20);
        let mut fib = CompiledFib::new();
        fib.rebuild(&table, &nbr, &upper_lost, 2);
        let mask = !(1u128 << 0); // down port dead
        assert_eq!(fib.lookup_repair(20, 0, mask, 0), Some((PortId(1), true)));
    }

    #[test]
    fn upper_lost_blocks_uplinks_but_not_downs() {
        let mut table = VidTable::new();
        table.install(v("20.1"), PortId(0));
        let mut nbr = NeighborTable::new(3, 100, 3);
        for p in 0..3 {
            nbr.note_rx(PortId(p), 10);
        }
        nbr.set_tier(PortId(1), 2);
        nbr.set_tier(PortId(2), 2);
        let mut upper_lost = BTreeSet::new();
        upper_lost.insert(20);
        upper_lost.insert(21);
        let mut fib = CompiledFib::new();
        fib.rebuild(&table, &nbr, &upper_lost, 1);
        // Root 20 still has a down port; root 21 has only (blocked) ups.
        assert_eq!(fib.lookup(20, 0, !0), Some(PortId(0)));
        assert_eq!(fib.lookup(21, 0, !0), None);
        // Mask the down port away: upper_lost now bites for 20 too.
        assert_eq!(fib.lookup(20, 0, !1), None);
        assert_eq!(fib.lookup(22, 0, !0), Some(PortId(1)));
    }
}
