//! Per-port neighbor liveness with Quick-to-Detect / Slow-to-Accept.

use dcn_sim::time::{Duration, Time};
use dcn_sim::PortId;

/// Liveness of the device at the far end of one port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NeighborState {
    /// Nothing heard yet (cold start): accepted on first frame.
    Unknown,
    /// Alive and usable for forwarding.
    Up,
    /// Declared dead (missed hello or carrier loss). Re-accepted only
    /// after the Slow-to-Accept hello count.
    Down,
}

#[derive(Clone, Debug)]
struct Entry {
    state: NeighborState,
    /// Tier of the neighbor, learned from Advertise/Join messages.
    tier: Option<u8>,
    last_rx: Time,
    last_tx: Time,
    /// Consecutive timely hellos since the neighbor went down.
    consec: u32,
    /// Local carrier state of this port.
    carrier: bool,
}

impl Default for Entry {
    fn default() -> Self {
        Entry {
            state: NeighborState::Unknown,
            tier: None,
            last_rx: 0,
            last_tx: 0,
            consec: 0,
            carrier: true,
        }
    }
}

/// Tracks every port's neighbor.
#[derive(Clone, Debug)]
pub struct NeighborTable {
    entries: Vec<Entry>,
    dead_interval: Duration,
    accept_hellos: u32,
    /// Bumped on every change that can alter which ports are usable for
    /// forwarding (state, carrier, tier). The compiled FIB keys its
    /// rebuild on this.
    version: u64,
}

/// Outcome of feeding a received frame into the table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RxOutcome {
    /// Neighbor already up; nothing changed.
    Still,
    /// Neighbor transitioned to up (cold start or Slow-to-Accept
    /// satisfied).
    CameUp,
    /// Neighbor is down and the acceptance count is not yet met; the
    /// frame must not influence routing.
    SuppressedByDamping,
}

impl NeighborTable {
    pub fn new(ports: usize, dead_interval: Duration, accept_hellos: u32) -> NeighborTable {
        NeighborTable {
            entries: vec![Entry::default(); ports],
            dead_interval,
            accept_hellos,
            version: 0,
        }
    }

    pub fn port_count(&self) -> usize {
        self.entries.len()
    }

    /// Change counter (see the `version` field). Bumps use wrapping
    /// arithmetic and consumers compare snapshots for *equality* only,
    /// so the counter stays correct across a `u64` wraparound.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Test hook: park the change counter at an arbitrary value (e.g.
    /// `u64::MAX`) to exercise wraparound.
    #[cfg(test)]
    pub(crate) fn set_version(&mut self, v: u64) {
        self.version = v;
    }

    pub fn state(&self, port: PortId) -> NeighborState {
        self.entries[port.index()].state
    }

    pub fn is_up(&self, port: PortId) -> bool {
        self.entries[port.index()].state == NeighborState::Up
            && self.entries[port.index()].carrier
    }

    pub fn tier(&self, port: PortId) -> Option<u8> {
        self.entries[port.index()].tier
    }

    pub fn set_tier(&mut self, port: PortId, tier: u8) {
        if self.entries[port.index()].tier != Some(tier) {
            self.version = self.version.wrapping_add(1);
        }
        self.entries[port.index()].tier = Some(tier);
    }

    pub fn last_tx(&self, port: PortId) -> Time {
        self.entries[port.index()].last_tx
    }

    pub fn note_tx(&mut self, port: PortId, now: Time) {
        self.entries[port.index()].last_tx = now;
    }

    pub fn carrier(&self, port: PortId) -> bool {
        self.entries[port.index()].carrier
    }

    /// Local carrier change. Returns `true` if the neighbor was up and is
    /// now effectively lost (caller should run its failure handling).
    pub fn set_carrier(&mut self, port: PortId, up: bool) -> bool {
        if self.entries[port.index()].carrier != up {
            self.version = self.version.wrapping_add(1);
        }
        let e = &mut self.entries[port.index()];
        let was_usable = e.carrier && e.state == NeighborState::Up;
        e.carrier = up;
        if !up {
            e.state = NeighborState::Down;
            e.consec = 0;
            was_usable
        } else {
            // Carrier back: the neighbor must still prove itself through
            // Slow-to-Accept.
            false
        }
    }

    /// Record a received frame (every MR-MTP frame is a keep-alive).
    pub fn note_rx(&mut self, port: PortId, now: Time) -> RxOutcome {
        let accept = self.accept_hellos;
        let dead = self.dead_interval;
        let e = &mut self.entries[port.index()];
        let gap = now.saturating_sub(e.last_rx);
        e.last_rx = now;
        let outcome = match e.state {
            NeighborState::Up => RxOutcome::Still,
            NeighborState::Unknown => {
                // Cold start: first contact accepted immediately.
                e.state = NeighborState::Up;
                e.consec = 0;
                RxOutcome::CameUp
            }
            NeighborState::Down => {
                if !e.carrier {
                    return RxOutcome::SuppressedByDamping;
                }
                // Slow-to-Accept: count only timely consecutive hellos.
                if gap <= dead {
                    e.consec += 1;
                } else {
                    e.consec = 1;
                }
                if e.consec >= accept {
                    e.state = NeighborState::Up;
                    e.consec = 0;
                    RxOutcome::CameUp
                } else {
                    RxOutcome::SuppressedByDamping
                }
            }
        };
        if outcome == RxOutcome::CameUp {
            self.version = self.version.wrapping_add(1);
        }
        outcome
    }

    /// Sweep for dead neighbors: any port whose neighbor was up but has
    /// been silent past the dead interval is marked down and returned.
    pub fn sweep_dead(&mut self, now: Time) -> Vec<PortId> {
        let mut dead = Vec::new();
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.state == NeighborState::Up && now.saturating_sub(e.last_rx) > self.dead_interval
            {
                e.state = NeighborState::Down;
                e.consec = 0;
                dead.push(PortId(i as u16));
            }
        }
        if !dead.is_empty() {
            self.version = self.version.wrapping_add(1);
        }
        dead
    }

    /// The earliest instant at which [`NeighborTable::sweep_dead`] would
    /// declare a neighbor dead, or `None` while no neighbor is up. Every
    /// received frame moves it later.
    pub fn next_deadline(&self) -> Option<Time> {
        self.entries
            .iter()
            .filter(|e| e.state == NeighborState::Up)
            .map(|e| e.last_rx + self.dead_interval + 1)
            .min()
    }

    /// Ports whose neighbor is up and at the given tier.
    pub fn up_ports_at_tier(&self, tier: u8) -> impl Iterator<Item = PortId> + '_ {
        self.entries.iter().enumerate().filter_map(move |(i, e)| {
            (e.carrier && e.state == NeighborState::Up && e.tier == Some(tier))
                .then_some(PortId(i as u16))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEAD: Duration = 100;

    fn table() -> NeighborTable {
        NeighborTable::new(3, DEAD, 3)
    }

    #[test]
    fn cold_start_accepts_first_frame() {
        let mut t = table();
        assert_eq!(t.state(PortId(0)), NeighborState::Unknown);
        assert_eq!(t.note_rx(PortId(0), 10), RxOutcome::CameUp);
        assert!(t.is_up(PortId(0)));
    }

    #[test]
    fn quick_to_detect_one_missed_hello() {
        let mut t = table();
        t.note_rx(PortId(0), 10);
        // Silence past the dead interval → down.
        let dead = t.sweep_dead(10 + DEAD + 1);
        assert_eq!(dead, vec![PortId(0)]);
        assert_eq!(t.state(PortId(0)), NeighborState::Down);
        // A sweep inside the interval must not kill.
        let mut t2 = table();
        t2.note_rx(PortId(1), 10);
        assert!(t2.sweep_dead(10 + DEAD).is_empty());
    }

    #[test]
    fn slow_to_accept_requires_three_timely_hellos() {
        let mut t = table();
        t.note_rx(PortId(0), 10);
        t.sweep_dead(500);
        assert_eq!(t.note_rx(PortId(0), 600), RxOutcome::SuppressedByDamping);
        assert_eq!(t.note_rx(PortId(0), 650), RxOutcome::SuppressedByDamping);
        assert_eq!(t.note_rx(PortId(0), 700), RxOutcome::CameUp);
        assert!(t.is_up(PortId(0)));
    }

    #[test]
    fn late_hello_resets_acceptance_count() {
        let mut t = table();
        t.note_rx(PortId(0), 10);
        t.sweep_dead(500);
        t.note_rx(PortId(0), 600);
        t.note_rx(PortId(0), 650);
        // Gap larger than the dead interval: start over.
        assert_eq!(t.note_rx(PortId(0), 900), RxOutcome::SuppressedByDamping);
        assert_eq!(t.note_rx(PortId(0), 950), RxOutcome::SuppressedByDamping);
        assert_eq!(t.note_rx(PortId(0), 1000), RxOutcome::CameUp);
    }

    #[test]
    fn carrier_down_is_immediate_and_blocks_acceptance() {
        let mut t = table();
        t.note_rx(PortId(0), 10);
        assert!(t.set_carrier(PortId(0), false));
        assert_eq!(t.state(PortId(0)), NeighborState::Down);
        // Frames (stale, in flight) while carrier is down don't resurrect.
        assert_eq!(t.note_rx(PortId(0), 20), RxOutcome::SuppressedByDamping);
        assert!(!t.set_carrier(PortId(0), true));
        // After carrier restore, Slow-to-Accept applies.
        assert_eq!(t.note_rx(PortId(0), 30), RxOutcome::SuppressedByDamping);
        assert_eq!(t.note_rx(PortId(0), 60), RxOutcome::SuppressedByDamping);
        assert_eq!(t.note_rx(PortId(0), 90), RxOutcome::CameUp);
    }

    #[test]
    fn tier_filtering() {
        let mut t = table();
        for p in 0..3 {
            t.note_rx(PortId(p), 10);
        }
        t.set_tier(PortId(0), 2);
        t.set_tier(PortId(1), 2);
        t.set_tier(PortId(2), 0);
        let ups: Vec<PortId> = t.up_ports_at_tier(2).collect();
        assert_eq!(ups, vec![PortId(0), PortId(1)]);
    }

    #[test]
    fn carrier_down_of_unknown_neighbor_reports_nothing() {
        let mut t = table();
        assert!(!t.set_carrier(PortId(0), false));
    }

    /// Regression: the change counter wraps at `u64::MAX` instead of
    /// panicking/sticking, and a wrapped bump still differs from the
    /// pre-wrap snapshot (FIB staleness is an equality check).
    #[test]
    fn version_counter_wraps_safely() {
        let mut t = table();
        t.set_version(u64::MAX);
        let snapshot = t.version();
        t.note_rx(PortId(0), 10); // Unknown → counting, bumps version
        assert_eq!(t.version(), 0, "wrapped to zero");
        assert_ne!(t.version(), snapshot);
    }
}
