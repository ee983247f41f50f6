//! The MR-MTP router: tree construction, failure handling, forwarding.
//!
//! ## Loss-update semantics (reproducing the paper's Fig. 5 accounting)
//!
//! When a router loses a tree root downward (its port of acquisition died
//! or a lower neighbor reported the loss), it removes the affected own
//! VIDs and floods a `Lost` update to its remaining neighbors. Routers
//! receiving a `Lost` from a *lower* neighbor do the same — they are the
//! "spines along the way (that) only forward the update message" of the
//! paper: identity-VID removal is not a destination-routing change.
//!
//! Routers receiving `Lost` from *upper* neighbors hold the reports down
//! briefly (2 ms) so reports from parallel uplinks aggregate, then decide:
//!
//! * **partial upward loss** (some uplinks still reach the root): install
//!   negative-reachability entries for the reporting ports — this *is* a
//!   destination-routing change and is what the blast-radius metric
//!   counts;
//! * **total upward loss** (every uplink reported): nothing to
//!   discriminate — propagate the loss to the tier below and store
//!   nothing.
//!
//! This pair of rules yields exactly the paper's numbers: 3/1 updated
//! routers in the 2-PoD fabric and 7/3 in the 4-PoD fabric for failures
//! at TC1/TC2 and TC3/TC4 respectively.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dcn_sim::time::{millis, Duration, Time};
use dcn_sim::{
    alloc_track, Ctx, FrameBuf, FrameClass, FrameMeta, GridTimer, PortId, Protocol,
    RouteChangeKind, SpanEvent, StatsSnapshot,
};
use dcn_wire::{
    flow_hash_of, EtherType, EthernetFrame, IpAddr4, Ipv4Packet, MacAddr, MrmtpMsg, Vid, Vids,
    ETHERNET_HEADER_LEN,
};

use crate::config::MrmtpConfig;
use crate::fib::{reference_candidates, CompiledFib};
use crate::neighbor::{NeighborTable, RxOutcome};
use crate::reliable::ReliableTx;
use crate::vid_table::VidTable;

/// A message to send: its lists stay in the sender's buffers.
type Msg<'a> = MrmtpMsg<&'a [Vid], &'a [u8]>;

/// Housekeeping timer token.
const TOKEN_TICK: u64 = 1;
/// Loss-aggregation hold-down timer token.
const TOKEN_HOLDDOWN: u64 = 2;

/// Housekeeping granularity: hellos, dead sweeps and retransmissions act
/// on this grid (well under the 50 ms hello interval). The router wakes
/// only at the grid instants where something is due (see [`GridTimer`]).
const TICK: Duration = millis(5);

/// Per-port window of recently processed reliable-message sequence
/// numbers (dedupes retransmissions).
const SEEN_SEQ_WINDOW: usize = 64;

/// Counters exposed for tests, examples and the experiment harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterStats {
    pub hellos_sent: u64,
    pub advertises_sent: u64,
    pub joins_sent: u64,
    pub offers_sent: u64,
    pub updates_sent: u64,
    pub updates_received: u64,
    pub data_forwarded: u64,
    pub data_delivered: u64,
    pub data_dropped: u64,
    pub negatives_installed: u64,
    pub negatives_cleared: u64,
    /// Frames that failed wire decoding (e.g. corrupted in flight) and
    /// were dropped instead of processed.
    pub malformed_frames_dropped: u64,
    /// Data packets the local-repair fast path steered around a dead
    /// egress (always 0 with `local_repair` off).
    pub locally_repaired: u64,
    /// Data packets dropped because no forwarding candidate was left —
    /// the loss-window blackhole count. Maintained identically with
    /// `local_repair` on or off so the two can be compared.
    pub blackholed_in_window: u64,
}

/// An MR-MTP router bound to one emulated node.
pub struct MrmtpRouter {
    cfg: MrmtpConfig,
    /// ToR root VID (None on spines).
    my_root: Option<Vid>,
    table: VidTable,
    nbr: NeighborTable,
    rel: ReliableTx,
    /// Roots offered to each child port (propagation targets for loss
    /// updates heading down the meshed trees).
    offered: BTreeMap<PortId, BTreeSet<u8>>,
    /// Recently processed (port, seq) pairs, ring per port.
    seen_seq: BTreeMap<PortId, VecDeque<u16>>,
    /// Aggregating upper-loss reports: root → reporting up-ports.
    pending_upper_loss: BTreeMap<u8, BTreeSet<PortId>>,
    holddown_armed: bool,
    /// Roots this router itself declared lost downward (suppresses echo
    /// processing of its own flood).
    self_lost: BTreeSet<u8>,
    /// Roots known unreachable through every uplink (total upward loss).
    upper_lost: BTreeSet<u8>,
    /// Rack-facing ports (ToR only): server address → port.
    host_ports: Vec<(IpAddr4, PortId)>,
    /// Router-facing connected ports, ascending; fixed at `on_start`
    /// (wiring and `host_ports` never change after build).
    router_ports: Vec<PortId>,
    /// Pre-encoded hello frame per port (hellos are position-dependent but
    /// time-independent, so the keepalive fast path is a refcount bump).
    hello_frames: Vec<Option<FrameBuf>>,
    /// Compiled forwarding table (see [`crate::fib`]).
    fib: CompiledFib,
    /// The `(VidTable, NeighborTable)` versions the FIB was compiled
    /// from; `None` forces a rebuild (also used to invalidate on
    /// `upper_lost` changes, which have no table version of their own).
    fib_key: Option<(u64, u64)>,
    /// Roots (bit per root id) whose first local repair in the current
    /// FIB generation was already traced — the repair span is emitted
    /// once per (root, generation), not per packet.
    repair_noted: [u128; 2],
    last_advertise: Time,
    /// The housekeeping grid and its one deadline-driven wake-up.
    tick_timer: GridTimer,
    started: bool,
    stats: RouterStats,
}

impl MrmtpRouter {
    /// Create a router for a node with `ports` ports.
    pub fn new(mut cfg: MrmtpConfig, ports: usize) -> MrmtpRouter {
        let my_root = cfg.tor.as_ref().map(|t| Vid::root(t.derive_vid()));
        // The router owns the config: move the host-port list out instead
        // of cloning it (the config copy is never consulted again).
        let host_ports = cfg
            .tor
            .as_mut()
            .map(|t| std::mem::take(&mut t.host_ports))
            .unwrap_or_default();
        let nbr = NeighborTable::new(ports, cfg.timers.dead_interval, cfg.timers.accept_hellos);
        MrmtpRouter {
            cfg,
            my_root,
            table: VidTable::new(),
            nbr,
            rel: ReliableTx::new(),
            offered: BTreeMap::new(),
            seen_seq: BTreeMap::new(),
            pending_upper_loss: BTreeMap::new(),
            holddown_armed: false,
            self_lost: BTreeSet::new(),
            upper_lost: BTreeSet::new(),
            host_ports,
            router_ports: Vec::new(),
            hello_frames: vec![None; ports],
            fib: CompiledFib::new(),
            fib_key: None,
            repair_noted: [0; 2],
            last_advertise: 0,
            tick_timer: GridTimer::new(TOKEN_TICK, TICK),
            started: false,
            stats: RouterStats::default(),
        }
    }

    /// This router's tier.
    pub fn tier(&self) -> u8 {
        self.cfg.tier
    }

    /// The ToR's root VID, if this is a ToR.
    pub fn root_vid(&self) -> Option<Vid> {
        self.my_root
    }

    /// The VID table (harness inspection).
    pub fn vid_table(&self) -> &VidTable {
        &self.table
    }

    /// Neighbor liveness (harness inspection).
    pub fn neighbors(&self) -> &NeighborTable {
        &self.nbr
    }

    /// Counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Router name from configuration.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// Render the VID table in the paper's Listing 5 layout.
    pub fn render_table(&self) -> String {
        self.table.render()
    }

    // ------------------------------------------------------------------
    // Transmission helpers
    // ------------------------------------------------------------------

    fn is_host_port(&self, port: PortId) -> bool {
        self.host_ports.iter().any(|&(_, p)| p == port)
    }

    fn send_msg(&mut self, ctx: &mut Ctx<'_>, port: PortId, msg: &Msg<'_>, class: FrameClass) {
        let frame = control_frame(ctx.node().0, port, msg);
        self.nbr.note_tx(port, ctx.now());
        ctx.send(port, frame, class);
    }

    /// Send a keep-alive hello from the per-port frame cache (the frame
    /// depends only on the sending port, never on time or state).
    fn send_hello(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        self.stats.hellos_sent += 1;
        let frame = self.hello_frames[port.index()]
            .get_or_insert_with(|| control_frame(ctx.node().0, port, &MrmtpMsg::Hello))
            .clone();
        self.nbr.note_tx(port, ctx.now());
        ctx.send_meta(port, frame, FrameClass::Keepalive, FrameMeta::MrmtpHello);
    }

    /// Send a reliable (acknowledged, retransmitted) message.
    fn send_reliable(&mut self, ctx: &mut Ctx<'_>, port: PortId, msg: Msg<'_>, class: FrameClass) {
        let seq = match &msg {
            MrmtpMsg::Offer { seq, .. }
            | MrmtpMsg::Lost { seq, .. }
            | MrmtpMsg::Recovered { seq, .. } => *seq,
            _ => unreachable!("only offers and updates are reliable"),
        };
        let frame = control_frame(ctx.node().0, port, &msg);
        self.nbr.note_tx(port, ctx.now());
        // The retransmit queue shares the allocation with the in-flight
        // frame: both sends are refcount bumps.
        ctx.send(port, frame.clone(), class);
        self.rel
            .track(port, seq, frame, class, ctx.now(), self.cfg.timers.retransmit_interval);
    }

    /// What we advertise: our root VID, or the primary VID of every tree
    /// we hold.
    fn advertised_vids(&self) -> Vec<Vid> {
        match self.my_root {
            Some(root) => vec![root],
            None => self.table.primary_vids(),
        }
    }

    fn advertise_on(&mut self, ctx: &mut Ctx<'_>, port: PortId, vids: &[Vid]) {
        if vids.is_empty() {
            return;
        }
        let tier = self.cfg.tier;
        self.stats.advertises_sent += 1;
        self.send_msg(ctx, port, &MrmtpMsg::Advertise { tier, vids }, FrameClass::Session);
    }

    /// One list of VIDs, however many ports it goes out of.
    fn advertise_all(&mut self, ctx: &mut Ctx<'_>) {
        self.last_advertise = ctx.now();
        let vids = self.advertised_vids();
        for i in 0..self.router_ports.len() {
            let port = self.router_ports[i];
            if ctx.port(port).up {
                self.advertise_on(ctx, port, &vids);
            }
        }
    }

    // ------------------------------------------------------------------
    // Tree construction
    // ------------------------------------------------------------------

    fn on_advertise(&mut self, ctx: &mut Ctx<'_>, port: PortId, tier: u8, mut vids: Vids<'_>) {
        self.nbr.set_tier(port, tier);
        if tier + 1 != self.cfg.tier {
            return; // not a potential parent
        }
        // Join if the parent offers any tree we don't already hold via
        // this port.
        let wants = vids.any(|v| !self.table.ports_for(v.root_id()).any(|p| p == port));
        if wants {
            let my_tier = self.cfg.tier;
            self.stats.joins_sent += 1;
            self.send_msg(ctx, port, &MrmtpMsg::Join { tier: my_tier }, FrameClass::Session);
        }
    }

    fn on_join(&mut self, ctx: &mut Ctx<'_>, port: PortId, tier: u8) {
        self.nbr.set_tier(port, tier);
        if tier != self.cfg.tier + 1 {
            return; // only upper-tier devices join our trees
        }
        // Derive one child VID per tree we hold, appending this port's
        // 1-based number (paper §III-B).
        let mut vids = Vec::new();
        let mut roots = BTreeSet::new();
        if let Some(root) = self.my_root {
            if let Ok(child) = root.child(port.label()) {
                roots.insert(root.root_id());
                vids.push(child);
            }
        }
        for v in self.table.primary_vids() {
            if let Ok(child) = v.child(port.label()) {
                roots.insert(v.root_id());
                vids.push(child);
            }
        }
        if vids.is_empty() {
            return;
        }
        self.offered.insert(port, roots);
        let seq = self.rel.alloc_seq();
        self.stats.offers_sent += 1;
        self.send_reliable(ctx, port, MrmtpMsg::Offer { seq, vids: &vids }, FrameClass::Session);
    }

    fn on_offer(&mut self, ctx: &mut Ctx<'_>, port: PortId, seq: u16, vids: Vids<'_>) {
        // Offers come from parents (one tier below).
        self.nbr.set_tier(port, self.cfg.tier - 1);
        self.send_msg(ctx, port, &MrmtpMsg::Accept { seq }, FrameClass::Session);
        if self.already_seen(port, seq) {
            return;
        }
        let mut regained = Vec::new();
        let mut changed = false;
        for vid in vids {
            let was_absent = self.table.install(vid, port);
            changed = true;
            ctx.trace_span(SpanEvent::VidInstall { root: vid.root_id(), port });
            if was_absent {
                let root = vid.root_id();
                if self.upper_lost.remove(&root) {
                    self.fib_key = None;
                }
                if self.self_lost.remove(&root) {
                    regained.push(root);
                }
            }
        }
        if changed {
            // Propagate the enlarged tree upward immediately.
            self.advertise_all(ctx);
        }
        if !regained.is_empty() {
            // Tell everyone (except the parent that restored us) that the
            // roots are reachable again, clearing negative entries.
            self.flood_update(ctx, &regained, port, false);
        }
    }

    // ------------------------------------------------------------------
    // Failure handling
    // ------------------------------------------------------------------

    /// Flood a `Lost` (or `Recovered`) update for `roots` to all live
    /// router neighbors except `except`.
    fn flood_update(&mut self, ctx: &mut Ctx<'_>, roots: &[u8], except: PortId, lost: bool) {
        let live = |&p: &PortId| p != except && self.nbr.is_up(p);
        let targets = self.router_ports.iter().copied().filter(live).collect();
        self.flood(ctx, roots, targets, lost);
    }

    /// Flood to live neighbors at a specific tier only.
    fn flood_update_to_tier(&mut self, ctx: &mut Ctx<'_>, roots: &[u8], tier: u8, lost: bool) {
        let targets = self.nbr.up_ports_at_tier(tier).collect();
        self.flood(ctx, roots, targets, lost);
    }

    /// One reliable update per target whose port is up.
    fn flood(&mut self, ctx: &mut Ctx<'_>, roots: &[u8], targets: Vec<PortId>, lost: bool) {
        let mut fanout = 0u8;
        for port in targets {
            if !ctx.port(port).up {
                continue;
            }
            let seq = self.rel.alloc_seq();
            let msg = if lost {
                MrmtpMsg::Lost { seq, roots }
            } else {
                MrmtpMsg::Recovered { seq, roots }
            };
            self.stats.updates_sent += 1;
            self.send_reliable(ctx, port, msg, FrameClass::Update);
            fanout = fanout.saturating_add(1);
        }
        if fanout > 0 {
            let roots = roots.len().min(u8::MAX as usize) as u8;
            ctx.trace_span(SpanEvent::LossFlood { roots, fanout, lost });
        }
    }

    /// A neighbor is gone. `carrier` distinguishes how the failure was
    /// detected: local carrier loss (true) vs. a missed-hello timeout
    /// (false) — the storyboard analyzer keys its detection phase off
    /// this flag.
    fn neighbor_down(&mut self, ctx: &mut Ctx<'_>, port: PortId, carrier: bool) {
        self.rel.drop_port(port);
        self.offered.remove(&port);
        ctx.trace_span(SpanEvent::NeighborDown { port, carrier });
        // Which tree roots die with this port?
        let mut lost = Vec::new();
        for root in self.table.roots_via_port(port) {
            if self.table.remove_via(root, port) {
                ctx.trace_span(SpanEvent::VidRemove { root, port });
                lost.push(root);
            }
        }
        if !lost.is_empty() {
            for &r in &lost {
                self.self_lost.insert(r);
            }
            self.flood_update(ctx, &lost, port, true);
        }
    }

    /// A neighbor session just (re-)established. Lost/Recovered floods
    /// are edge-triggered and only target live sessions, so any flood
    /// that fired while this session was down is gone for good — both
    /// sides would otherwise keep stale loss state forever (randomized
    /// fault campaigns surface this as black holes that survive full
    /// physical healing). Re-synchronize both directions:
    ///
    /// * Restored **uplink** (tier above): its pre-failure loss reports
    ///   are stale evidence. Drop the negative entries attributed to it
    ///   and optimistically clear total-loss markers; if a loss is still
    ///   real, the uplink re-asserts it (the branch below, running on
    ///   its side) and the hold-down machinery reinstates the state.
    /// * Restored **downlink** (tier below, the flood target): re-send
    ///   every loss this router still holds, so the neighbor's
    ///   optimistic clearing converges back to the truth.
    fn resync_after_rejoin(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        let Some(nbr_tier) = self.nbr.tier(port) else {
            return; // cold start: no stale state to reconcile
        };
        if nbr_tier == self.cfg.tier + 1 {
            for root in self.table.clear_negatives_on_port(port) {
                self.stats.negatives_cleared += 1;
                ctx.trace_route_change(RouteChangeKind::Install, root as u64);
            }
            let regained: Vec<u8> = std::mem::take(&mut self.upper_lost).into_iter().collect();
            if !regained.is_empty() {
                self.fib_key = None;
            }
            if !regained.is_empty() && self.cfg.tier > 1 {
                self.flood_update_to_tier(ctx, &regained, self.cfg.tier - 1, false);
            }
        } else if nbr_tier + 1 == self.cfg.tier {
            let mut lost: BTreeSet<u8> = self.upper_lost.clone();
            let roots: Vec<u8> = self.table.roots().collect();
            let (table, nbr, tier) = (&self.table, &self.nbr, self.cfg.tier);
            for root in roots {
                let up = |p| ctx.port(p).up;
                if reference_candidates(table, nbr, &self.upper_lost, tier, root, up).is_empty() {
                    lost.insert(root);
                }
            }
            if !lost.is_empty() {
                let roots: Vec<u8> = lost.into_iter().collect();
                let seq = self.rel.alloc_seq();
                self.stats.updates_sent += 1;
                self.send_reliable(
                    ctx,
                    port,
                    MrmtpMsg::Lost { seq, roots: &roots },
                    FrameClass::Update,
                );
            }
        }
    }

    fn already_seen(&mut self, port: PortId, seq: u16) -> bool {
        let ring = self.seen_seq.entry(port).or_default();
        if ring.contains(&seq) {
            return true;
        }
        ring.push_back(seq);
        if ring.len() > SEEN_SEQ_WINDOW {
            ring.pop_front();
        }
        false
    }

    fn on_lost(&mut self, ctx: &mut Ctx<'_>, port: PortId, seq: u16, roots: &[u8]) {
        self.send_msg(ctx, port, &MrmtpMsg::UpdateAck { seq }, FrameClass::Ack);
        if self.already_seen(port, seq) {
            return;
        }
        self.stats.updates_received += 1;
        let from_tier = self.nbr.tier(port);
        if from_tier == Some(self.cfg.tier.wrapping_sub(1)) {
            // From a lower neighbor: our VIDs through it died.
            let mut fully_lost = Vec::new();
            for &root in roots {
                if self.table.remove_via(root, port) {
                    ctx.trace_span(SpanEvent::VidRemove { root, port });
                    self.self_lost.insert(root);
                    fully_lost.push(root);
                }
            }
            if !fully_lost.is_empty() {
                self.flood_update(ctx, &fully_lost, port, true);
            }
        } else if from_tier == Some(self.cfg.tier + 1) {
            // From an upper neighbor: aggregate before deciding between
            // negative entries and downward propagation.
            let mut any = false;
            for &root in roots {
                if self.table.has_root(root)
                    || self.my_root.map(|v| v.root_id()) == Some(root)
                    || self.self_lost.contains(&root)
                {
                    continue; // we route this root downward (or declared
                              // the loss ourselves): uplink state is moot
                }
                self.pending_upper_loss.entry(root).or_default().insert(port);
                any = true;
            }
            if any && !self.holddown_armed {
                self.holddown_armed = true;
                ctx.trace_span(SpanEvent::HolddownArm);
                ctx.set_timer(self.cfg.timers.loss_holddown, TOKEN_HOLDDOWN);
            }
        }
        // Updates from unknown-tier neighbors are acknowledged but not
        // acted on (we have no topology context for them yet).
    }

    fn on_holddown(&mut self, ctx: &mut Ctx<'_>) {
        self.holddown_armed = false;
        let pending = std::mem::take(&mut self.pending_upper_loss);
        let upper_tier = self.cfg.tier + 1;
        let mut negatives = 0u8;
        let mut totals = 0u8;
        for (root, reported) in pending {
            let ups: BTreeSet<PortId> = self.nbr.up_ports_at_tier(upper_tier).collect();
            // Total upward loss when every uplink has reported — in this
            // hold-down round or in an earlier one (a previously
            // installed negative entry is an older report; without this,
            // staggered dead timers upstream would leave the tier below
            // forever uninformed).
            let total = !ups.is_empty()
                && ups
                    .iter()
                    .all(|p| reported.contains(p) || self.table.is_negative(root, *p));
            if total {
                // No uplink reaches this root: hand the loss down; there
                // is nothing to discriminate locally.
                self.upper_lost.insert(root);
                self.fib_key = None;
                totals = totals.saturating_add(1);
                ctx.trace_span(SpanEvent::UpperLossTotal { root });
                if self.cfg.tier > 1 {
                    self.flood_update_to_tier(ctx, &[root], self.cfg.tier - 1, true);
                }
            } else {
                // Partial loss: rule the reporting uplinks out. This is
                // the destination-routing change the paper's blast-radius
                // metric counts.
                for p in reported {
                    if self.table.add_negative(root, p) {
                        self.stats.negatives_installed += 1;
                        negatives = negatives.saturating_add(1);
                        ctx.trace_route_change(RouteChangeKind::Withdraw, root as u64);
                    }
                }
            }
        }
        ctx.trace_span(SpanEvent::HolddownResolve { negatives, totals });
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, port: PortId, seq: u16, roots: &[u8]) {
        self.send_msg(ctx, port, &MrmtpMsg::UpdateAck { seq }, FrameClass::Ack);
        if self.already_seen(port, seq) {
            return;
        }
        self.stats.updates_received += 1;
        let from_tier = self.nbr.tier(port);
        if from_tier == Some(self.cfg.tier.wrapping_sub(1)) {
            // A parent regained trees: re-join so it re-offers our VIDs.
            let my_tier = self.cfg.tier;
            self.stats.joins_sent += 1;
            self.send_msg(ctx, port, &MrmtpMsg::Join { tier: my_tier }, FrameClass::Session);
        } else if from_tier == Some(self.cfg.tier + 1) {
            let mut forward_down = Vec::new();
            for &root in roots {
                if self.table.clear_negative(root, port) {
                    self.stats.negatives_cleared += 1;
                    ctx.trace_route_change(RouteChangeKind::Install, root as u64);
                }
                if self.upper_lost.remove(&root) {
                    self.fib_key = None;
                    forward_down.push(root);
                }
            }
            if !forward_down.is_empty() && self.cfg.tier > 1 {
                self.flood_update_to_tier(ctx, &forward_down, self.cfg.tier - 1, false);
            }
        }
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// The forwarding decision that every data path of this router, and
    /// the chaos walker, asks: the egress toward `dst` (its tree is the
    /// third octet, paper §III-D) for full flow hash `flow` (ECMP hashes
    /// its low 16 bits, as the data header carries them), and the
    /// packet's repair bit after this hop. `up_mask` is `port_up` for the
    /// first 128 ports, as the [`CompiledFib`] reads it. `arrival` is the
    /// port the packet came in on, or `None` where the router never
    /// repairs: host ingress, and the slow path, whose frames carry no bit.
    pub fn next_hop(
        &mut self,
        dst: IpAddr4,
        flow: u64,
        arrival: Option<PortId>,
        repaired: bool,
        up_mask: u128,
        port_up: impl Fn(PortId) -> bool,
    ) -> Option<(PortId, bool)> {
        let (root, flow) = (dst.third_octet(), (flow & 0xFFFF) as u16);
        self.next_hop_to(root, flow, arrival, repaired, up_mask, port_up)
    }

    /// [`Self::next_hop`] for tree `root` and 16-bit flow `flow`: downward
    /// VID-table entries win, else hash across live uplinks minus negative
    /// entries. With the fast path on (≤ 128 ports) the lazily recompiled
    /// [`CompiledFib`] answers — identical by construction and by
    /// `tests/proptests.rs` — and only there may local fast reroute steer
    /// a packet around a locally-dead egress, at most once: a repaired
    /// packet takes only an unflagged pick, or is dropped.
    fn next_hop_to(
        &mut self,
        root: u8,
        flow: u16,
        arrival: Option<PortId>,
        repaired: bool,
        up_mask: u128,
        port_up: impl Fn(PortId) -> bool,
    ) -> Option<(PortId, bool)> {
        if !self.cfg.fast_path || self.nbr.port_count() > 128 {
            let (table, nbr, tier) = (&self.table, &self.nbr, self.cfg.tier);
            let c = reference_candidates(table, nbr, &self.upper_lost, tier, root, port_up);
            let k = dcn_wire::ecmp_index(flow as u64, c.len().max(1));
            return c.get(k).map(|&port| (port, repaired));
        }
        self.ensure_fib();
        match arrival {
            Some(arrival) if self.cfg.local_repair => self
                .fib
                .lookup_repair(root, flow, up_mask, 1u128 << arrival.index())
                .filter(|&(_, fixed)| !(repaired && fixed))
                .map(|(port, fixed)| (port, repaired || fixed)),
            _ => self.fib.lookup(root, flow, up_mask).map(|port| (port, repaired)),
        }
    }

    /// Recompile the FIB if a table version moved since the last compile.
    /// Version comparisons are equality-only, so the wrapping counters
    /// stay correct across a `u64` wraparound.
    fn ensure_fib(&mut self) {
        let key = (self.table.version(), self.nbr.version());
        if self.fib_key != Some(key) {
            self.fib.rebuild(&self.table, &self.nbr, &self.upper_lost, self.cfg.tier);
            self.fib_key = Some(key);
            // New FIB generation: the once-per-root repair-span dedup
            // starts over.
            self.repair_noted = [0; 2];
        }
    }

    /// An IP packet arrived from a rack port (ToR ingress); `dst` and the
    /// full flow hash come from the sender's metadata or the slow path's
    /// own parse of `ip_bytes`.
    fn on_host_ip(&mut self, ctx: &mut Ctx<'_>, ip_bytes: &[u8], dst: IpAddr4, flow64: u64) {
        // A rack port implies a ToR config and with it a root VID; still
        // degrade to a drop rather than panicking mid-simulation.
        let (Some(my_root), Some(tor)) = (self.my_root, self.cfg.tor.as_ref()) else {
            self.stats.data_dropped += 1;
            return;
        };
        if tor.rack_subnet.contains(dst) {
            // Intra-rack: bounce to the right server port.
            self.deliver_to_host(ctx, dst, ip_bytes);
            return;
        }
        // Derive the destination ToR VID from the destination address
        // (paper §III-D) and encapsulate.
        let dst_root = dst.third_octet();
        let flow = (flow64 & 0xFFFF) as u16;
        match self.next_hop(dst, flow64, None, false, ctx.port_up_mask(), |p| ctx.port(p).up) {
            Some((port, _)) => {
                self.stats.data_forwarded += 1;
                let dst_vid = Vid::root(dst_root);
                let (frame, payload_off) =
                    encapsulate(ctx.node().0, port, my_root, dst_vid, flow, ip_bytes);
                self.nbr.note_tx(port, ctx.now());
                ctx.send_meta(
                    port,
                    frame,
                    FrameClass::Data,
                    FrameMeta::MrmtpData {
                        dst_root,
                        flow,
                        payload_off: payload_off as u16,
                        ip_dst: dst,
                        repaired: false,
                    },
                );
            }
            None => {
                self.stats.data_dropped += 1;
                self.stats.blackholed_in_window += 1;
            }
        }
    }

    fn deliver_to_host(&mut self, ctx: &mut Ctx<'_>, dst: IpAddr4, ip_bytes: &[u8]) {
        let Some(&(_, port)) = self.host_ports.iter().find(|(ip, _)| *ip == dst) else {
            self.stats.data_dropped += 1;
            return;
        };
        // The host accepts any MAC, so both addresses are this port's.
        let mac = MacAddr::for_node_port(ctx.node().0, port.0);
        let frame = EthernetFrame::build(mac, mac, EtherType::Ipv4, ip_bytes.len(), |b| {
            b.copy_from_slice(ip_bytes)
        });
        self.stats.data_delivered += 1;
        ctx.send(port, frame, FrameClass::Data);
    }

    /// An encapsulated data frame arrived from the fabric (slow path:
    /// the frame was re-parsed because no metadata accompanied it).
    fn on_data(&mut self, ctx: &mut Ctx<'_>, raw_frame: &FrameBuf, dst: Vid, flow: u16, payload: &[u8]) {
        let root = dst.root_id();
        if self.my_root.map(|v| v.root_id()) == Some(root) {
            // Terminal ToR: de-encapsulate and hand to the server.
            match Ipv4Packet::parse(payload) {
                Ok(pkt) => self.deliver_to_host(ctx, pkt.dst, payload),
                Err(_) => {
                    self.stats.data_dropped += 1;
                    self.stats.malformed_frames_dropped += 1;
                }
            }
            return;
        }
        match self.next_hop_to(root, flow, None, false, ctx.port_up_mask(), |p| ctx.port(p).up) {
            Some((port, _)) => {
                // Forward the original frame bytes unchanged (the MR-MTP
                // header needs no rewriting hop to hop), sharing the
                // buffer: per-hop fan-out costs a refcount, not a copy.
                self.stats.data_forwarded += 1;
                self.nbr.note_tx(port, ctx.now());
                ctx.send(port, raw_frame.clone(), FrameClass::Data);
            }
            None => {
                self.stats.data_dropped += 1;
                self.stats.blackholed_in_window += 1;
            }
        }
    }

    /// Keep-alive accounting shared by the slow and fast receive paths:
    /// every MR-MTP frame proves the neighbor alive; Slow-to-Accept may
    /// suppress protocol processing (returns `true`) while a flapping
    /// neighbor re-proves itself.
    fn note_keepalive(&mut self, ctx: &mut Ctx<'_>, port: PortId) -> bool {
        match self.nbr.note_rx(port, ctx.now()) {
            RxOutcome::SuppressedByDamping => true,
            RxOutcome::CameUp => {
                ctx.trace_span(SpanEvent::NeighborUp { port });
                // Give the neighbor a chance to (re)join our trees.
                let vids = self.advertised_vids();
                self.advertise_on(ctx, port, &vids);
                self.resync_after_rejoin(ctx, port);
                // A new dead deadline (and possibly queued updates): the
                // one place the fast paths can pull the wake-up earlier.
                self.rearm(ctx);
                false
            }
            RxOutcome::Still => false,
        }
    }

    // ------------------------------------------------------------------
    // Housekeeping
    // ------------------------------------------------------------------

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Quick-to-Detect: sweep silent neighbors.
        for port in self.nbr.sweep_dead(now) {
            self.neighbor_down(ctx, port, false);
        }
        // Retransmit unacknowledged reliable messages.
        let retx = self.cfg.timers.retransmit_interval;
        for (port, frame, class) in self.rel.due(now, retx) {
            if ctx.port(port).up {
                self.nbr.note_tx(port, now);
                ctx.send(port, frame, class);
            }
        }
        // Hellos on idle links only (every MR-MTP frame is a keep-alive).
        let hello_due = self.cfg.timers.hello_interval;
        for i in 0..self.router_ports.len() {
            let port = self.router_ports[i];
            if ctx.port(port).up && now.saturating_sub(self.nbr.last_tx(port)) >= hello_due {
                self.send_hello(ctx, port);
            }
        }
        // Periodic re-advertisement backstop.
        if now.saturating_sub(self.last_advertise) >= self.cfg.timers.advertise_interval {
            self.advertise_all(ctx);
        }
    }

    /// The earliest instant at which [`Self::tick`] has something to do.
    /// A hello counts from `last_tx + hello_interval` whatever its port's
    /// state: the tick reads `ctx.port(p).up`, which flips at the admin
    /// event, 500 µs before `on_port_up` tells the router — so an overdue
    /// hello on a downed port stays due and the router keeps waking on
    /// every grid instant until the port carries it.
    fn next_deadline(&self) -> Time {
        let timers = &self.cfg.timers;
        let hello = self
            .router_ports
            .iter()
            .map(|&p| self.nbr.last_tx(p) + timers.hello_interval)
            .min();
        [self.nbr.next_deadline(), self.rel.next_deadline(), hello]
            .into_iter()
            .flatten()
            .fold(self.last_advertise + timers.advertise_interval, Time::min)
    }

    /// Re-aim the housekeeping wake-up. Called after the tick and after
    /// every callback that can create an earlier deadline (a neighbor
    /// came up, a reliable message was queued). The hello and data fast
    /// paths only push deadlines later and skip it.
    fn rearm(&mut self, ctx: &mut Ctx<'_>) {
        let deadline = self.next_deadline();
        self.tick_timer.wake_by(ctx, deadline);
    }
}

/// An MR-MTP frame leaving `node` on `port`, its `len` payload bytes
/// written in place by `fill`. Broadcast destination: links are
/// point-to-point, so no ARP is needed (paper §III).
fn mrmtp_frame(node: u32, port: PortId, len: usize, fill: impl FnOnce(&mut [u8])) -> FrameBuf {
    let src = MacAddr::for_node_port(node, port.0);
    EthernetFrame::build(MacAddr::BROADCAST, src, EtherType::Mrmtp, len, fill)
}

/// The frame carrying control message `msg`, encoded in place.
fn control_frame(node: u32, port: PortId, msg: &Msg<'_>) -> FrameBuf {
    mrmtp_frame(node, port, msg.encoded_len(), |b| msg.put(b))
}

/// The data frame a ToR (`node`) sends out of `port` for `ip_bytes`, and
/// the offset of `ip_bytes` in it: byte-identical to encoding an
/// `MrmtpMsg::Data` into an `EthernetFrame`, in one buffer.
fn encapsulate(
    node: u32,
    port: PortId,
    src: Vid,
    dst: Vid,
    flow: u16,
    ip_bytes: &[u8],
) -> (FrameBuf, usize) {
    let hdr = MrmtpMsg::data_header_len(src, dst);
    let frame = mrmtp_frame(node, port, hdr + ip_bytes.len(), |b| {
        MrmtpMsg::put_data_header(b, src, dst, flow);
        b[hdr..].copy_from_slice(ip_bytes);
    });
    (frame, ETHERNET_HEADER_LEN + hdr)
}

impl StatsSnapshot for MrmtpRouter {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        let s = &self.stats;
        vec![
            ("hellos_sent", s.hellos_sent),
            ("advertises_sent", s.advertises_sent),
            ("joins_sent", s.joins_sent),
            ("offers_sent", s.offers_sent),
            ("updates_sent", s.updates_sent),
            ("updates_received", s.updates_received),
            ("data_forwarded", s.data_forwarded),
            ("data_delivered", s.data_delivered),
            ("data_dropped", s.data_dropped),
            ("negatives_installed", s.negatives_installed),
            ("negatives_cleared", s.negatives_cleared),
            ("malformed_frames_dropped", s.malformed_frames_dropped),
            ("locally_repaired", s.locally_repaired),
            ("blackholed_in_window", s.blackholed_in_window),
        ]
    }

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        let neighbors_up = (0..self.nbr.port_count() as u16)
            .filter(|&p| self.nbr.is_up(PortId(p)))
            .count() as u64;
        vec![
            ("vid_entries", self.table.own_entry_count() as u64),
            ("negative_entries", self.table.negative_entry_count() as u64),
            ("retransmit_queue", self.rel.pending_count() as u64),
            ("neighbors_up", neighbors_up),
            ("upper_lost_roots", self.upper_lost.len() as u64),
        ]
    }
}

impl Protocol for MrmtpRouter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started = true;
        self.router_ports = (0..ctx.port_count())
            .map(|p| PortId(p as u16))
            .filter(|&p| !self.is_host_port(p))
            .collect();
        // Small deterministic jitter decorrelates the routers' tick grids.
        let jitter = ctx.rand_below(millis(1));
        self.tick_timer.start(ctx, TICK + jitter);
        self.advertise_all(ctx);
        self.rearm(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &FrameBuf) {
        let Ok(eth) = EthernetFrame::parse(frame) else {
            self.stats.malformed_frames_dropped += 1;
            return;
        };
        match eth.ethertype {
            EtherType::Ipv4 if self.is_host_port(port) => {
                match Ipv4Packet::parse(eth.payload) {
                    Ok(pkt) => self.on_host_ip(ctx, eth.payload, pkt.dst, flow_hash_of(&pkt)),
                    Err(_) => {
                        self.stats.data_dropped += 1;
                        self.stats.malformed_frames_dropped += 1;
                    }
                }
                return;
            }
            EtherType::Mrmtp => {}
            _ => return,
        }
        let Ok(msg) = MrmtpMsg::parse(eth.payload) else {
            self.stats.malformed_frames_dropped += 1;
            return;
        };
        // Every frame is a keep-alive; Slow-to-Accept may suppress
        // protocol processing while a flapping neighbor re-proves itself.
        if self.note_keepalive(ctx, port) {
            return;
        }
        match msg {
            MrmtpMsg::Hello => {}
            MrmtpMsg::Advertise { tier, vids } => self.on_advertise(ctx, port, tier, vids),
            MrmtpMsg::Join { tier } => self.on_join(ctx, port, tier),
            MrmtpMsg::Offer { seq, vids } => self.on_offer(ctx, port, seq, vids),
            MrmtpMsg::Accept { seq } => {
                self.rel.ack(port, seq);
            }
            MrmtpMsg::UpdateAck { seq } => {
                self.rel.ack(port, seq);
            }
            MrmtpMsg::Lost { seq, roots } => self.on_lost(ctx, port, seq, roots),
            MrmtpMsg::Recovered { seq, roots } => self.on_recovered(ctx, port, seq, roots),
            MrmtpMsg::Data { dst, flow, payload, .. } => self.on_data(ctx, frame, dst, flow, payload),
        }
        self.rearm(ctx);
    }

    /// The fast path: trust the sender's parse-once metadata instead of
    /// re-decoding the frame at every hop. The engine clears the metadata
    /// if impairment corrupted the frame in flight, so a metadata-bearing
    /// frame always decodes to exactly what the metadata describes — the
    /// branches below are behaviorally identical to [`Self::on_frame`]
    /// (the equivalence suite asserts bit-equal trace digests).
    fn on_frame_meta(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        frame: FrameBuf,
        meta: Option<FrameMeta>,
    ) {
        if self.cfg.fast_path && ctx.port_count() <= 128 {
            match meta {
                Some(FrameMeta::MrmtpHello) => {
                    // Pure keep-alive: skip both decodes entirely.
                    self.note_keepalive(ctx, port);
                    return;
                }
                Some(FrameMeta::MrmtpData { dst_root, flow, payload_off, ip_dst, repaired }) => {
                    if self.note_keepalive(ctx, port) {
                        return;
                    }
                    if self.my_root.map(|v| v.root_id()) == Some(dst_root) {
                        // Terminal ToR: the metadata already carries the
                        // inner destination, so de-encapsulation is a
                        // slice, not a parse.
                        self.deliver_to_host(ctx, ip_dst, &frame[payload_off as usize..]);
                        return;
                    }
                    // Transit: the compiled-FIB decision, local repair
                    // included, and the delivered frame moves on unchanged
                    // (no copy, no count). The alloc_track scope is how
                    // `tests/zero_alloc.rs` proves the router's decision
                    // allocates nothing in steady state — including with
                    // local repair active. It closes before the hand-off:
                    // `send_meta` acts on the engine at once, and the
                    // scheduler push it ends in is engine work; the deduped
                    // repair span follows the frame.
                    let mut note_repair = None;
                    let forward = {
                        let _scope = alloc_track::scope();
                        let up_mask = ctx.port_up_mask();
                        let up = |p| ctx.port(p).up;
                        match self.next_hop_to(dst_root, flow, Some(port), repaired, up_mask, up) {
                            Some((out, now_repaired)) => {
                                self.stats.data_forwarded += 1;
                                if now_repaired != repaired {
                                    self.stats.locally_repaired += 1;
                                    let (w, b) =
                                        (dst_root as usize / 128, dst_root as usize % 128);
                                    if self.repair_noted[w] & (1 << b) == 0 {
                                        self.repair_noted[w] |= 1 << b;
                                        note_repair = Some(out);
                                    }
                                }
                                self.nbr.note_tx(out, ctx.now());
                                Some((out, now_repaired))
                            }
                            None => {
                                self.stats.data_dropped += 1;
                                self.stats.blackholed_in_window += 1;
                                None
                            }
                        }
                    };
                    if let Some((out, repaired)) = forward {
                        ctx.send_meta(
                            out,
                            frame,
                            FrameClass::Data,
                            FrameMeta::MrmtpData { dst_root, flow, payload_off, ip_dst, repaired },
                        );
                        alloc_track::note_forward();
                    }
                    if let Some(out) = note_repair {
                        ctx.trace_span(SpanEvent::LocalRepair { port: out });
                    }
                    return;
                }
                Some(FrameMeta::Ipv4Data { dst, flow, .. }) => {
                    // Host ingress without the IPv4 re-parse; IPv4 frames
                    // on fabric ports are ignored exactly as in the slow
                    // path's ethertype dispatch.
                    if self.is_host_port(port) {
                        self.on_host_ip(ctx, &frame[ETHERNET_HEADER_LEN..], dst, flow);
                    }
                    return;
                }
                None => {}
            }
        }
        self.on_frame(ctx, port, &frame)
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_TICK if self.tick_timer.fired(ctx) => self.tick(ctx),
            TOKEN_HOLDDOWN => self.on_holddown(ctx),
            _ => return,
        }
        self.rearm(ctx);
    }

    fn on_port_down(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        if self.nbr.set_carrier(port, false) {
            self.neighbor_down(ctx, port, true);
            self.rearm(ctx);
        } else {
            self.rel.drop_port(port);
        }
    }

    fn on_port_up(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        self.nbr.set_carrier(port, true);
        // Start proving liveness to the neighbor immediately; tree
        // re-join happens after Slow-to-Accept completes.
        if !self.is_host_port(port) {
            self.send_hello(ctx, port);
        }
    }

    fn stats_snapshot(&self) -> Option<&dyn StatsSnapshot> {
        Some(self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MrmtpTimers, TorConfig};
    use dcn_wire::Prefix;
    use proptest::prelude::*;

    fn tor_cfg(vid: u8) -> MrmtpConfig {
        MrmtpConfig::tor(
            format!("L-{vid}"),
            TorConfig {
                rack_subnet: Prefix::new(IpAddr4::new(192, 168, vid, 0), 24),
                host_ports: vec![(IpAddr4::new(192, 168, vid, 1), PortId(2))],
            },
        )
    }

    #[test]
    fn tor_root_vid_is_derived() {
        let r = MrmtpRouter::new(tor_cfg(11), 3);
        assert_eq!(r.root_vid(), Some(Vid::root(11)));
        assert_eq!(r.tier(), 1);
        assert!(r.is_host_port(PortId(2)));
        assert!(!r.is_host_port(PortId(0)));
    }

    #[test]
    fn spine_has_no_root() {
        let r = MrmtpRouter::new(MrmtpConfig::spine("S-1-1", 2), 4);
        assert_eq!(r.root_vid(), None);
        assert_eq!(r.tier(), 2);
        assert_eq!(r.vid_table().own_entry_count(), 0);
    }

    #[test]
    fn seen_seq_window_dedupes_and_bounds() {
        let mut r = MrmtpRouter::new(MrmtpConfig::spine("S", 2), 2);
        assert!(!r.already_seen(PortId(0), 5));
        assert!(r.already_seen(PortId(0), 5));
        // Different port: independent window.
        assert!(!r.already_seen(PortId(1), 5));
        // Fill beyond the window: the oldest entry is forgotten.
        for s in 100..(100 + SEEN_SEQ_WINDOW as u16 + 1) {
            assert!(!r.already_seen(PortId(0), s));
        }
        assert!(!r.already_seen(PortId(0), 5), "evicted after window overflow");
    }

    proptest! {
        /// In-place ToR encapsulation is, byte for byte, an
        /// `MrmtpMsg::Data` encoded into an `EthernetFrame`, and the
        /// offset it reports is where the IP bytes start.
        #[test]
        fn encapsulation_is_the_layered_encoding(
            node in any::<u32>(), port in 0u16..128, flow in any::<u16>(),
            src in proptest::collection::vec(1u8..=255, 1..=8),
            dst in proptest::collection::vec(1u8..=255, 1..=8),
            ip_bytes in proptest::collection::vec(any::<u8>(), 0..1500),
        ) {
            let src = Vid::from_components(&src).unwrap();
            let dst = Vid::from_components(&dst).unwrap();
            let layered = EthernetFrame {
                dst: MacAddr::BROADCAST,
                src: MacAddr::for_node_port(node, port),
                ethertype: EtherType::Mrmtp,
                payload: MrmtpMsg::Data { src, dst, flow, payload: ip_bytes.clone() }.encode(),
            };
            let (frame, off) = encapsulate(node, PortId(port), src, dst, flow, &ip_bytes);
            prop_assert_eq!(frame.as_slice(), &layered.encode()[..]);
            prop_assert_eq!(&frame[off..], &ip_bytes[..]);
        }
    }

    #[test]
    fn timers_default_to_paper_values() {
        let r = MrmtpRouter::new(tor_cfg(11), 3);
        let t: MrmtpTimers = r.cfg.timers;
        assert_eq!(t.hello_interval, millis(50));
        assert_eq!(t.dead_interval, millis(100));
    }
}
