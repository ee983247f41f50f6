//! Property tests on MR-MTP's core data structures: VID-table invariants,
//! the Quick-to-Detect / Slow-to-Accept neighbor state machine, and the
//! compiled FIB's equivalence to the reference forwarding walk.

use std::collections::BTreeSet;

use proptest::prelude::*;

use dcn_mrmtp::fib::{reference_candidates, CompiledFib};
use dcn_mrmtp::reliable::ReliableTx;
use dcn_mrmtp::{NeighborState, NeighborTable, VidTable};
use dcn_sim::grid::grid_at_or_after;
use dcn_sim::{FrameClass, PortId};
use dcn_wire::Vid;

fn arb_vid() -> impl Strategy<Value = Vid> {
    proptest::collection::vec(1u8..=40, 1..=4)
        .prop_map(|c| Vid::from_components(&c).expect("depth ok"))
}

#[derive(Clone, Debug)]
enum TableOp {
    Install(Vid, u16),
    RemoveVia(u8, u16),
    AddNeg(u8, u16),
    ClearNeg(u8, u16),
    ClearPort(u16),
}

fn arb_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (arb_vid(), 0u16..4).prop_map(|(v, p)| TableOp::Install(v, p)),
        (1u8..=40, 0u16..4).prop_map(|(r, p)| TableOp::RemoveVia(r, p)),
        (1u8..=40, 0u16..4).prop_map(|(r, p)| TableOp::AddNeg(r, p)),
        (1u8..=40, 0u16..4).prop_map(|(r, p)| TableOp::ClearNeg(r, p)),
        (0u16..4).prop_map(TableOp::ClearPort),
    ]
}

/// The slow-path model of [`CompiledFib::lookup_repair`], built from the
/// exported reference walk plus the documented staging rules.
#[allow(clippy::too_many_arguments)]
fn staged_repair_reference(
    t: &VidTable,
    nbr: &NeighborTable,
    upper_lost: &BTreeSet<u8>,
    tier: u8,
    root: u8,
    flow: u16,
    port_up: &dyn Fn(PortId) -> bool,
    arrival: PortId,
) -> Option<(PortId, bool)> {
    let pick = |cands: &[PortId]| cands[dcn_wire::ecmp_index(flow as u64, cands.len())];
    // Repair stages steer away from the arrival port unless it is the
    // only survivor.
    let avoid = |cands: Vec<PortId>| {
        let pref: Vec<PortId> = cands.iter().copied().filter(|&p| p != arrival).collect();
        if pref.is_empty() { cands } else { pref }
    };
    // The compiled down-tree port set (live neighbor, non-negative) —
    // *before* the admin mask, which is what distinguishes "uplinks are
    // this root's primary path" from "the primary was masked dead".
    let down_compiled: BTreeSet<PortId> = t
        .vids_for(root)
        .iter()
        .map(|o| o.port)
        .filter(|&p| nbr.is_up(p) && !t.is_negative(root, p))
        .collect();
    let down_up: Vec<PortId> =
        down_compiled.iter().copied().filter(|&p| port_up(p)).collect();
    if !down_up.is_empty() {
        return Some((pick(&down_up), false));
    }
    if !upper_lost.contains(&root) {
        let mut ups: Vec<PortId> = nbr
            .up_ports_at_tier(tier + 1)
            .filter(|&p| port_up(p) && !t.is_negative(root, p))
            .collect();
        ups.sort_unstable();
        if down_compiled.is_empty() {
            if !ups.is_empty() {
                return Some((pick(&ups), false));
            }
        } else if !ups.is_empty() {
            return Some((pick(&avoid(ups)), true));
        }
    }
    // The down-tier detour pool: live down-tier siblings that are neither
    // a compiled down-tree port nor negative for the root.
    let mut backup: Vec<PortId> = (tier.checked_sub(1).into_iter())
        .flat_map(|below| nbr.up_ports_at_tier(below))
        .filter(|&p| port_up(p) && !t.is_negative(root, p) && !down_compiled.contains(&p))
        .collect();
    backup.sort_unstable();
    if backup.is_empty() { None } else { Some((pick(&avoid(backup)), true)) }
}

#[derive(Clone, Copy, Debug)]
enum NbrOp {
    Rx(u16),
    Carrier(u16, bool),
    Sweep,
}

fn arb_nbr_op() -> impl Strategy<Value = NbrOp> {
    prop_oneof![
        (0u16..3).prop_map(NbrOp::Rx),
        (0u16..3).prop_map(NbrOp::Rx),
        (0u16..3, any::<bool>()).prop_map(|(p, up)| NbrOp::Carrier(p, up)),
        Just(NbrOp::Sweep),
    ]
}

#[derive(Clone, Copy, Debug)]
enum RelOp {
    Track(u16),
    Ack(usize),
    DropPort(u16),
    Due,
}

fn arb_rel_op() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        (0u16..3).prop_map(RelOp::Track),
        (0u16..3).prop_map(RelOp::Track),
        (0usize..8).prop_map(RelOp::Ack),
        (0u16..3).prop_map(RelOp::DropPort),
        Just(RelOp::Due),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any operation sequence, the table's internal accounting is
    /// consistent: entry counts match enumerations, every stored VID is
    /// keyed under its own root, and negatives never go negative.
    #[test]
    fn vid_table_invariants_hold_under_any_ops(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let mut t = VidTable::new();
        for op in ops {
            match op {
                TableOp::Install(v, p) => { t.install(v, PortId(p)); }
                TableOp::RemoveVia(r, p) => { t.remove_via(r, PortId(p)); }
                TableOp::AddNeg(r, p) => { t.add_negative(r, PortId(p)); }
                TableOp::ClearNeg(r, p) => { t.clear_negative(r, PortId(p)); }
                TableOp::ClearPort(p) => { t.clear_negatives_on_port(PortId(p)); }
            }
            // Invariant: every vid listed for root r has root_id() == r.
            let roots: Vec<u8> = t.roots().collect();
            let mut total = 0;
            for r in roots {
                for own in t.vids_for(r) {
                    prop_assert_eq!(own.vid.root_id(), r);
                    total += 1;
                }
                prop_assert!(!t.vids_for(r).is_empty(), "no empty root buckets");
            }
            prop_assert_eq!(t.own_entry_count(), total);
            // primary_vids yields exactly one per root.
            prop_assert_eq!(t.primary_vids().len(), t.roots().count());
            // approx_bytes is consistent with counts.
            prop_assert!(t.approx_bytes() >= t.own_entry_count());
        }
    }

    /// remove_via returns "fully lost" exactly when the root disappears.
    #[test]
    fn remove_via_full_loss_semantics(vids in proptest::collection::vec((arb_vid(), 0u16..3), 1..10)) {
        let mut t = VidTable::new();
        for (v, p) in &vids {
            t.install(*v, PortId(*p));
        }
        let roots: Vec<u8> = t.roots().collect();
        for r in roots {
            let ports: Vec<PortId> = t.ports_for(r).collect();
            for (i, port) in ports.iter().enumerate() {
                let fully = t.remove_via(r, *port);
                prop_assert_eq!(fully, i + 1 == ports.len(),
                    "full loss only on the last port");
            }
            prop_assert!(!t.has_root(r));
        }
    }

    /// Slow-to-Accept: a down neighbor never becomes usable with fewer
    /// than `accept` timely hellos, regardless of the hello schedule.
    #[test]
    fn slow_to_accept_needs_n_timely_hellos(
        gaps in proptest::collection::vec(1u64..300, 1..20),
        accept in 2u32..5,
    ) {
        let dead = 100u64;
        let mut t = NeighborTable::new(1, dead, accept);
        t.note_rx(PortId(0), 0);
        // Kill it.
        t.sweep_dead(1_000_000);
        prop_assert_eq!(t.state(PortId(0)), NeighborState::Down);
        let mut now = 1_000_000;
        let mut timely_run = 0u32;
        for gap in gaps {
            now += gap;
            let came_up = matches!(
                t.note_rx(PortId(0), now),
                dcn_mrmtp::neighbor::RxOutcome::CameUp
            );
            if gap <= dead { timely_run += 1 } else { timely_run = 1 }
            if came_up {
                prop_assert!(timely_run >= accept,
                    "came up after only {timely_run} timely hellos (need {accept})");
                return Ok(());
            } else {
                prop_assert!(timely_run < accept, "should have come up by now");
            }
        }
    }

    /// The compiled FIB is a *lookup table*, not a reimplementation: for
    /// any table state (installs, removals, negative entries), neighbor
    /// state (tiers, carrier loss), upper-loss set, and admin port mask,
    /// `CompiledFib::lookup` picks bit-for-bit the same next hop as the
    /// slow path's `reference_candidates` + `ecmp_index`.
    #[test]
    fn compiled_fib_matches_reference_walk(
        ops in proptest::collection::vec(arb_op(), 0..48),
        tiers in proptest::collection::vec(1u8..5, 6),
        carrier_down in proptest::collection::vec(any::<bool>(), 6),
        lost in proptest::collection::vec(1u8..=40, 0..4),
        tier in 1u8..4,
        up_bits in any::<u8>(),
        flows in proptest::collection::vec(any::<u16>(), 1..6),
    ) {
        let mut t = VidTable::new();
        for op in ops {
            match op {
                TableOp::Install(v, p) => { t.install(v, PortId(p)); }
                TableOp::RemoveVia(r, p) => { t.remove_via(r, PortId(p)); }
                TableOp::AddNeg(r, p) => { t.add_negative(r, PortId(p)); }
                TableOp::ClearNeg(r, p) => { t.clear_negative(r, PortId(p)); }
                TableOp::ClearPort(p) => { t.clear_negatives_on_port(PortId(p)); }
            }
        }
        let mut nbr = NeighborTable::new(6, 100, 3);
        for p in 0..6u16 {
            nbr.note_rx(PortId(p), 10);
        }
        for (p, &tr) in tiers.iter().enumerate() {
            nbr.set_tier(PortId(p as u16), tr);
        }
        for (p, &down) in carrier_down.iter().enumerate() {
            if down {
                nbr.set_carrier(PortId(p as u16), false);
            }
        }
        let upper_lost: BTreeSet<u8> = lost.into_iter().collect();
        let mut fib = CompiledFib::new();
        fib.rebuild(&t, &nbr, &upper_lost, tier);
        let mask = up_bits as u128;
        let port_up = |p: PortId| p.index() < 128 && mask & (1 << p.index()) != 0;
        // Roots 1..=40 may be present; 0 and 41..=45 never are, checking
        // the default-route (uplink) path for unknown destinations.
        for root in 0u8..=45 {
            for &flow in &flows {
                let cands = reference_candidates(&t, &nbr, &upper_lost, tier, root, port_up);
                let slow = if cands.is_empty() {
                    None
                } else {
                    Some(cands[dcn_wire::ecmp_index(flow as u64, cands.len())])
                };
                prop_assert_eq!(
                    fib.lookup(root, flow, mask), slow,
                    "root {} flow {} mask {:#x}", root, flow, mask
                );
            }
        }
    }

    /// The local-repair lookup is the same staged walk a slow path would
    /// do: primary down-tree pick (never a repair), uplink bounce
    /// (a repair exactly when a compiled down-tree route was masked
    /// dead, skipped on total upper loss), then the down-tier detour —
    /// the repair stages avoiding
    /// the arrival port unless it is the only survivor. For any table
    /// state, neighbor state, mask and arrival port,
    /// `CompiledFib::lookup_repair` must match that model bit-for-bit.
    #[test]
    fn repair_lookup_matches_staged_reference_walk(
        ops in proptest::collection::vec(arb_op(), 0..48),
        tiers in proptest::collection::vec(1u8..5, 6),
        carrier_down in proptest::collection::vec(any::<bool>(), 6),
        lost in proptest::collection::vec(1u8..=40, 0..4),
        tier in 1u8..4,
        up_bits in any::<u8>(),
        arrival in 0u16..8,
        flows in proptest::collection::vec(any::<u16>(), 1..4),
    ) {
        let mut t = VidTable::new();
        for op in ops {
            match op {
                TableOp::Install(v, p) => { t.install(v, PortId(p)); }
                TableOp::RemoveVia(r, p) => { t.remove_via(r, PortId(p)); }
                TableOp::AddNeg(r, p) => { t.add_negative(r, PortId(p)); }
                TableOp::ClearNeg(r, p) => { t.clear_negative(r, PortId(p)); }
                TableOp::ClearPort(p) => { t.clear_negatives_on_port(PortId(p)); }
            }
        }
        let mut nbr = NeighborTable::new(6, 100, 3);
        for p in 0..6u16 {
            nbr.note_rx(PortId(p), 10);
        }
        for (p, &tr) in tiers.iter().enumerate() {
            nbr.set_tier(PortId(p as u16), tr);
        }
        for (p, &down) in carrier_down.iter().enumerate() {
            if down {
                nbr.set_carrier(PortId(p as u16), false);
            }
        }
        let upper_lost: BTreeSet<u8> = lost.into_iter().collect();
        let mut fib = CompiledFib::new();
        fib.rebuild(&t, &nbr, &upper_lost, tier);
        let mask = up_bits as u128;
        let arrival = PortId(arrival);
        let port_up = |p: PortId| p.index() < 128 && mask & (1 << p.index()) != 0;
        for root in 0u8..=45 {
            for &flow in &flows {
                let expect = staged_repair_reference(
                    &t, &nbr, &upper_lost, tier, root, flow, &port_up, arrival,
                );
                prop_assert_eq!(
                    fib.lookup_repair(root, flow, mask, 1u128 << arrival.index()),
                    expect,
                    "root {} flow {} mask {:#x} arrival {:?}", root, flow, mask, arrival
                );
            }
        }
    }

    /// Quick-to-Detect: sweeps kill exactly the neighbors silent past the
    /// dead interval.
    #[test]
    fn sweep_kills_only_silent_neighbors(last_rx in proptest::collection::vec(0u64..1000, 1..8),
                                         sweep_at in 0u64..2000) {
        let dead = 100;
        let mut t = NeighborTable::new(last_rx.len(), dead, 3);
        for (i, &rx) in last_rx.iter().enumerate() {
            t.note_rx(PortId(i as u16), rx);
        }
        let killed = t.sweep_dead(sweep_at);
        for (i, &rx) in last_rx.iter().enumerate() {
            let should_die = sweep_at.saturating_sub(rx) > dead;
            prop_assert_eq!(killed.contains(&PortId(i as u16)), should_die);
        }
    }

    /// `next_deadline` names exactly the first grid instant at which a
    /// polled `sweep_dead` acts: every sweep on an earlier grid instant
    /// is a no-op (so skipping it is invisible), the one there is not.
    #[test]
    fn neighbor_deadline_is_where_polling_first_acts(
        ops in proptest::collection::vec((0u64..80, arb_nbr_op()), 0..24),
        period in 5u64..20,
        phase in 0u64..20,
    ) {
        let mut t = NeighborTable::new(3, 100, 3);
        let mut now = 0;
        for (dt, op) in ops {
            now += dt;
            match op {
                NbrOp::Rx(p) => { t.note_rx(PortId(p), now); }
                NbrOp::Carrier(p, up) => { t.set_carrier(PortId(p), up); }
                NbrOp::Sweep => { t.sweep_dead(now); }
            }
        }
        let wake = t.next_deadline().map(|d| grid_at_or_after(phase, period, d.max(now)));
        let idle = format!("{t:?}");
        for g in (0..80).map(|k| grid_at_or_after(phase, period, now) + k * period) {
            let mut polled = t.clone();
            let acted = !polled.sweep_dead(g).is_empty();
            if wake.is_some_and(|w| g >= w) {
                prop_assert!(acted && wake == Some(g), "first act at {} but wake-up at {:?}", g, wake);
                break;
            }
            prop_assert!(!acted && format!("{polled:?}") == idle, "acted at {} before {:?}", g, wake);
        }
    }

    /// The same for the retransmission queue and a polled `due`.
    #[test]
    fn retransmit_deadline_is_where_polling_first_acts(
        ops in proptest::collection::vec((0u64..30, arb_rel_op()), 0..24),
        period in 3u64..12,
        phase in 0u64..12,
    ) {
        const RETX: u64 = 20;
        let mut r = ReliableTx::new();
        let mut sent: Vec<(PortId, u16)> = Vec::new();
        let mut now = 0;
        for (dt, op) in ops {
            now += dt;
            match op {
                RelOp::Track(p) => {
                    let seq = r.alloc_seq();
                    r.track(PortId(p), seq, vec![seq as u8].into(), FrameClass::Update, now, RETX);
                    sent.push((PortId(p), seq));
                }
                RelOp::Ack(i) if !sent.is_empty() => {
                    let (port, seq) = sent[i % sent.len()];
                    r.ack(port, seq);
                }
                RelOp::Ack(_) => {}
                RelOp::DropPort(p) => r.drop_port(PortId(p)),
                RelOp::Due => { r.due(now, RETX); }
            }
        }
        let wake = r.next_deadline().map(|d| grid_at_or_after(phase, period, d.max(now)));
        let idle = format!("{r:?}");
        for g in (0..40).map(|k| grid_at_or_after(phase, period, now) + k * period) {
            let mut polled = r.clone();
            // Giving up on a message sends nothing but still changes state.
            let acted = !polled.due(g, RETX).is_empty() || format!("{polled:?}") != idle;
            if wake.is_some_and(|w| g >= w) {
                prop_assert!(acted && wake == Some(g), "first act at {} but wake-up at {:?}", g, wake);
                break;
            }
            prop_assert!(!acted, "acted at {} before {:?}", g, wake);
        }
    }
}
