//! The VID table: acquired (own) VIDs plus negative-reachability entries.
//!
//! The paper's Listing 5 shows a top-tier spine's VID table as "port →
//! VIDs acquired on it"; [`VidTable::render`] reproduces that layout.

use std::collections::{BTreeMap, BTreeSet};

use dcn_sim::PortId;
use dcn_wire::Vid;

/// One VID this router holds, and the port it was acquired on. The
/// acquisition port points *down* the tree, toward the root ToR — it is
/// the forwarding port for traffic destined to that root.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OwnVid {
    pub vid: Vid,
    pub port: PortId,
}

/// A router's MR-MTP routing state.
#[derive(Clone, Debug, Default)]
pub struct VidTable {
    /// Own VIDs keyed by tree root. A router can in principle hold several
    /// VIDs per root (richer meshes); in a folded-Clos there is exactly
    /// one per reachable root.
    own: BTreeMap<u8, Vec<OwnVid>>,
    /// Negative reachability: for a destination root, ports that loss
    /// updates have ruled out.
    negative: BTreeMap<u8, BTreeSet<PortId>>,
    /// Bumped on every mutation that can change forwarding candidates.
    /// The compiled FIB keys its rebuild on this, so lookups between
    /// route changes never re-scan the table.
    version: u64,
}

impl VidTable {
    pub fn new() -> VidTable {
        VidTable::default()
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

    /// Install an acquired VID. Replaces a previous VID with the same root
    /// acquired on the same port (re-join after recovery). Returns `true`
    /// if the root was previously absent entirely (the router *regained*
    /// the root).
    pub fn install(&mut self, vid: Vid, port: PortId) -> bool {
        self.version = self.version.wrapping_add(1);
        let entry = self.own.entry(vid.root_id()).or_default();
        let was_empty = entry.is_empty();
        if let Some(slot) = entry.iter_mut().find(|o| o.port == port) {
            slot.vid = vid;
        } else {
            entry.push(OwnVid { vid, port });
        }
        was_empty
    }

    /// Remove all VIDs for `root` acquired via `port`. Returns `true` if
    /// the root is now entirely lost.
    pub fn remove_via(&mut self, root: u8, port: PortId) -> bool {
        if let Some(entry) = self.own.get_mut(&root) {
            self.version = self.version.wrapping_add(1);
            let before = entry.len();
            entry.retain(|o| o.port != port);
            let lost = entry.is_empty();
            if lost {
                self.own.remove(&root);
            }
            lost && before > 0
        } else {
            false
        }
    }

    /// Roots that would be entirely lost if `port` disappeared, together
    /// with whether any VID for them is held via that port at all.
    pub fn roots_via_port(&self, port: PortId) -> Vec<u8> {
        self.own.iter().filter(|(_, v)| v.iter().any(|o| o.port == port)).map(|(&r, _)| r).collect()
    }

    /// All VIDs held for `root`.
    pub fn vids_for(&self, root: u8) -> &[OwnVid] {
        self.own.get(&root).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Does the router hold any VID rooted at `root`?
    pub fn has_root(&self, root: u8) -> bool {
        self.own.contains_key(&root)
    }

    /// The primary (first-acquired) VID per root — what the router
    /// advertises upward.
    pub fn primary_vids(&self) -> Vec<Vid> {
        self.own.values().filter_map(|v| v.first()).map(|o| o.vid).collect()
    }

    /// All roots currently held.
    pub fn roots(&self) -> impl Iterator<Item = u8> + '_ {
        self.own.keys().copied()
    }

    /// Ports already holding a VID for `root` (used to dedupe joins).
    pub fn ports_for(&self, root: u8) -> impl Iterator<Item = PortId> + '_ {
        self.vids_for(root).iter().map(|o| o.port)
    }

    /// Install a negative entry. Returns `true` if it is new.
    pub fn add_negative(&mut self, root: u8, port: PortId) -> bool {
        self.version = self.version.wrapping_add(1);
        self.negative.entry(root).or_default().insert(port)
    }

    /// Clear a negative entry. Returns `true` if one was present.
    pub fn clear_negative(&mut self, root: u8, port: PortId) -> bool {
        if let Some(set) = self.negative.get_mut(&root) {
            self.version = self.version.wrapping_add(1);
            let removed = set.remove(&port);
            if set.is_empty() {
                self.negative.remove(&root);
            }
            removed
        } else {
            false
        }
    }

    /// Clear every negative entry involving `port` (e.g. after the
    /// neighbor on `port` fully recovers); returns affected roots.
    pub fn clear_negatives_on_port(&mut self, port: PortId) -> Vec<u8> {
        let mut roots = Vec::new();
        self.negative.retain(|&root, set| {
            if set.remove(&port) {
                roots.push(root);
            }
            !set.is_empty()
        });
        if !roots.is_empty() {
            self.version = self.version.wrapping_add(1);
        }
        roots
    }

    /// Iterate negative entries as `(root, ports ruled out)` (compiled-FIB
    /// rebuild input).
    pub fn negatives(&self) -> impl Iterator<Item = (u8, &BTreeSet<PortId>)> + '_ {
        self.negative.iter().map(|(&r, s)| (r, s))
    }

    /// Is `port` ruled out for `root`?
    pub fn is_negative(&self, root: u8, port: PortId) -> bool {
        self.negative.get(&root).is_some_and(|s| s.contains(&port))
    }

    /// Number of own-VID entries (Listing 5 table size metric).
    pub fn own_entry_count(&self) -> usize {
        self.own.values().map(Vec::len).sum()
    }

    /// Number of negative entries.
    pub fn negative_entry_count(&self) -> usize {
        self.negative.values().map(BTreeSet::len).sum()
    }

    /// Approximate resident bytes of the table (for the Listing 3 vs 5
    /// memory comparison): each own entry is a VID (≤9 bytes) + port;
    /// each negative entry a root + port.
    pub fn approx_bytes(&self) -> usize {
        self.own_entry_count() * (VID_ENTRY_BYTES) + self.negative_entry_count() * NEG_ENTRY_BYTES
    }

    /// Render in the paper's Listing 5 layout: one line per port with the
    /// VIDs acquired on it.
    pub fn render(&self) -> String {
        let mut by_port: BTreeMap<PortId, Vec<Vid>> = BTreeMap::new();
        for entry in self.own.values() {
            for o in entry {
                by_port.entry(o.port).or_default().push(o.vid);
            }
        }
        let mut out = String::new();
        for (port, vids) in by_port {
            let list: Vec<String> = vids.iter().map(|v| v.to_string()).collect();
            out.push_str(&format!("{:<6} {}\n", port.to_string(), list.join(", ")));
        }
        if self.negative.is_empty() {
            return out;
        }
        out.push_str("negative:\n");
        for (root, ports) in &self.negative {
            let list: Vec<String> = ports.iter().map(|p| p.to_string()).collect();
            out.push_str(&format!("  VID {root} not via {}\n", list.join(", ")));
        }
        out
    }
}

/// Stored size of one own-VID entry: VID bytes + length + port.
pub const VID_ENTRY_BYTES: usize = dcn_wire::VID_MAX_LEN + 1 + 2;
/// Stored size of one negative entry: root + port.
pub const NEG_ENTRY_BYTES: usize = 1 + 2;

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Vid {
        s.parse().unwrap()
    }

    #[test]
    fn install_and_query() {
        let mut t = VidTable::new();
        assert!(t.install(v("11.1.1"), PortId(0)));
        assert!(!t.install(v("12.1.1"), PortId(0)) || t.has_root(12));
        assert!(t.has_root(11));
        assert_eq!(t.vids_for(11)[0].port, PortId(0));
        assert_eq!(t.own_entry_count(), 2);
        assert_eq!(t.primary_vids().len(), 2);
    }

    #[test]
    fn reinstall_same_root_same_port_replaces() {
        let mut t = VidTable::new();
        t.install(v("11.1.1"), PortId(0));
        let regained = t.install(v("11.1.2"), PortId(0));
        assert!(!regained, "root was already present");
        assert_eq!(t.vids_for(11).len(), 1);
        assert_eq!(t.vids_for(11)[0].vid, v("11.1.2"));
    }

    #[test]
    fn remove_via_reports_full_loss() {
        let mut t = VidTable::new();
        t.install(v("11.1"), PortId(2));
        t.install(v("12.1"), PortId(3));
        assert!(t.remove_via(11, PortId(2)));
        assert!(!t.has_root(11));
        assert!(!t.remove_via(11, PortId(2)), "already gone");
        assert!(!t.remove_via(12, PortId(9)), "wrong port loses nothing");
        assert!(t.has_root(12));
    }

    #[test]
    fn roots_via_port_lists_dependencies() {
        let mut t = VidTable::new();
        t.install(v("11.1.1"), PortId(0));
        t.install(v("12.1.1"), PortId(0));
        t.install(v("13.1.1"), PortId(1));
        let mut roots = t.roots_via_port(PortId(0));
        roots.sort_unstable();
        assert_eq!(roots, vec![11, 12]);
    }

    #[test]
    fn negative_entries_lifecycle() {
        let mut t = VidTable::new();
        assert!(t.add_negative(11, PortId(1)));
        assert!(!t.add_negative(11, PortId(1)), "duplicate");
        assert!(t.is_negative(11, PortId(1)));
        assert!(!t.is_negative(11, PortId(0)));
        assert!(t.clear_negative(11, PortId(1)));
        assert!(!t.clear_negative(11, PortId(1)));
        assert_eq!(t.negative_entry_count(), 0);
    }

    #[test]
    fn clear_negatives_on_port_sweeps_all_roots() {
        let mut t = VidTable::new();
        t.add_negative(11, PortId(1));
        t.add_negative(12, PortId(1));
        t.add_negative(12, PortId(2));
        let mut cleared = t.clear_negatives_on_port(PortId(1));
        cleared.sort_unstable();
        assert_eq!(cleared, vec![11, 12]);
        assert!(t.is_negative(12, PortId(2)));
    }

    #[test]
    fn render_matches_listing5_layout() {
        let mut t = VidTable::new();
        // Fig. 2 / Listing 5 style: one VID per pod per port.
        t.install(v("11.1.1"), PortId(0));
        t.install(v("12.1.1"), PortId(0));
        t.install(v("13.1.1"), PortId(1));
        t.install(v("14.1.1"), PortId(1));
        let s = t.render();
        assert!(s.contains("eth0   11.1.1, 12.1.1"));
        assert!(s.contains("eth1   13.1.1, 14.1.1"));
        t.add_negative(11, PortId(1));
        assert!(t.render().contains("VID 11 not via eth1"));
    }

    #[test]
    fn approx_bytes_scales_with_entries() {
        let mut t = VidTable::new();
        assert_eq!(t.approx_bytes(), 0);
        t.install(v("11.1.1"), PortId(0));
        t.add_negative(12, PortId(1));
        assert_eq!(t.approx_bytes(), VID_ENTRY_BYTES + NEG_ENTRY_BYTES);
    }

    /// Regression: a version bump at `u64::MAX` must wrap, not panic
    /// (debug builds) or stick (release), and every bump past the wrap
    /// must still produce a *different* value than the pre-wrap
    /// snapshot — FIB staleness checks compare for equality.
    #[test]
    fn version_counter_wraps_safely() {
        let mut t = VidTable::new();
        t.set_version(u64::MAX);
        let snapshot = t.version();
        t.install(v("11.1.1"), PortId(0));
        assert_eq!(t.version(), 0, "wrapped to zero");
        assert_ne!(t.version(), snapshot, "stale snapshot still detectable");
        t.add_negative(12, PortId(1));
        assert_eq!(t.version(), 1);
    }
}
