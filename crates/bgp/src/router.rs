//! The BGP/ECMP(/BFD) router protocol.

use std::any::Any;
use std::collections::BTreeMap;

use dcn_sim::time::{millis, Duration, Time};
use dcn_sim::{
    alloc_track, BgpDownReason, BgpState, Ctx, FrameBuf, FrameClass, FrameMeta, GridTimer, PortId,
    Protocol, RouteChangeKind, SpanEvent, StatsSnapshot,
};
use dcn_tcp::{TcpConn, TcpEvent};
use dcn_bfd::{BfdEvent, BfdSession};
use dcn_wire::{
    flow_hash_of, BfdPacket, BgpMessage, BgpUpdate, EtherType, EthernetFrame, IpAddr4, Ipv4Packet,
    Ipv4View, MacAddr, Prefix, TcpFlags, TcpSegment, TcpView, UdpDatagram, UpdateView,
    BFD_CTRL_PORT, BFD_PACKET_LEN, BGP_PORT, ETHERNET_HEADER_LEN, IPPROTO_TCP, IPPROTO_UDP,
    IPV4_HEADER_LEN, UDP_HEADER_LEN,
};
use smallvec::SmallVec;

use crate::config::BgpConfig;
use crate::fib::CompiledFib;
use crate::rib::{AsPath, Rib, RibChange};

/// A message to send: an UPDATE's lists stay in the sender's buffers.
type Msg<'a> = BgpMessage<BgpUpdate<&'a [Prefix], &'a [u32]>>;

const TOKEN_TICK: u64 = 1;
/// Housekeeping grid: fine enough for BFD's 100 ms transmit interval. The
/// router wakes only at the grid instants where something is due (see
/// [`GridTimer`]).
const TICK: Duration = millis(20);

struct Peer {
    cfg: crate::config::PeerConfig,
    asn_ok: bool,
    tcp: TcpConn,
    fsm: BgpState,
    rx_buf: Vec<u8>,
    hold_deadline: Time,
    keepalive_due: Time,
    connect_at: Time,
    bfd: Option<BfdSession>,
    /// Cached fully-encapsulated BFD keepalive, keyed by the control
    /// packet it carries. BFD packets carry no timestamp, so steady-state
    /// keepalives re-send the same bytes — one encode, then refcount bumps.
    bfd_frame: Option<(BfdPacket, FrameBuf)>,
    /// Adj-RIB-Out: the path behind our own ASN in what we last
    /// advertised to this peer, per prefix — shared with the Adj-RIB-In
    /// entry it was exported from (empty for a local prefix).
    adj_out: BTreeMap<Prefix, AsPath>,
}

impl Peer {
    /// Sender-side loop check: a path learned from this peer, or through
    /// its AS, would be discarded on arrival anyway.
    fn would_discard(&self, path: &[u32], learned_on: Option<PortId>) -> bool {
        learned_on == Some(self.cfg.port) || path.contains(&self.cfg.peer_asn)
    }

    /// The earliest instant at which [`BgpRouter::tick`] has something to
    /// do for this peer. The port's state is deliberately ignored: the
    /// tick reads `ctx.port(p).up`, which flips at the admin event,
    /// 500 µs before `on_port_up` tells the router — so work that is due
    /// but blocked by a downed port stays due and the router keeps
    /// waking on every grid instant until the port is back.
    fn next_deadline(&self) -> Time {
        let mut at = match self.fsm {
            BgpState::Idle => self.connect_at,
            BgpState::Established => self.keepalive_due.min(self.hold_deadline + 1),
            BgpState::TcpPending | BgpState::OpenSent | BgpState::OpenConfirm => self.hold_deadline + 1,
        };
        if let Some(retx) = self.tcp.next_deadline() {
            at = at.min(retx);
        }
        if let Some(bfd) = &self.bfd {
            at = at.min(bfd.next_deadline());
        }
        at
    }
}

/// Counters for tests and the harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct BgpStats {
    pub opens_sent: u64,
    pub keepalives_sent: u64,
    pub updates_sent: u64,
    pub updates_received: u64,
    pub sessions_established: u64,
    pub sessions_lost: u64,
    pub data_forwarded: u64,
    pub data_delivered: u64,
    pub data_dropped: u64,
    /// Frames that failed wire decoding (e.g. corrupted in flight) and
    /// were dropped instead of processed.
    pub malformed_frames_dropped: u64,
    /// Data packets the local-repair fast path steered around a dead
    /// egress (always 0 with `local_repair` off).
    pub locally_repaired: u64,
    /// Loss-window blackholes: packets with no route left, plus packets
    /// the ECMP hash sent into a locally-dead egress (the send still
    /// happens with `local_repair` off — BGP's lookup has no liveness
    /// mask — so the counter, maintained identically in both modes, is
    /// what makes on-vs-off loss windows comparable).
    pub blackholed_in_window: u64,
}

/// A BGP router bound to one emulated node.
pub struct BgpRouter {
    cfg: BgpConfig,
    rib: Rib,
    peers: Vec<Peer>,
    /// port → index into `peers` (one neighbor per fabric link).
    port_peer: BTreeMap<PortId, usize>,
    /// The empty path behind our ASN in what we export for a local prefix.
    no_path: AsPath,
    /// Compiled Loc-RIB for the data-plane fast path, rebuilt lazily
    /// whenever `fib_key` no longer matches [`Rib::version`].
    fib: CompiledFib,
    fib_key: Option<u64>,
    /// Whether the first local repair of the current FIB generation was
    /// already traced (the repair span fires once per generation, not
    /// per packet, and never allocates on the forwarding path).
    repair_noted: bool,
    /// The housekeeping grid and its one deadline-driven wake-up.
    tick_timer: GridTimer,
    stats: BgpStats,
}

impl BgpRouter {
    pub fn new(cfg: BgpConfig) -> BgpRouter {
        let mut rib = Rib::new();
        for &p in &cfg.originate {
            rib.add_local(p);
        }
        if let Some(rack) = cfg.rack_subnet {
            // Rack subnet is connected (and originated into BGP).
            if let Some(&(_, port)) = cfg.host_ports.first() {
                rib.add_connected(rack, port, IpAddr4(rack.addr.0 | 254));
            }
        }
        let mut peers = Vec::new();
        let mut port_peer = BTreeMap::new();
        for (i, &pc) in cfg.peers.iter().enumerate() {
            rib.add_connected(
                Prefix::new(IpAddr4(pc.local_ip.0 & 0xFFFF_FF00), 24),
                pc.port,
                pc.local_ip,
            );
            let ephemeral = 40000 + (pc.local_ip.0.min(pc.peer_ip.0) & 0x0FFF) as u16;
            let isn = cfg.router_id ^ (i as u32) << 8;
            let tcp = if pc.is_active() {
                TcpConn::new(ephemeral, BGP_PORT, isn)
            } else {
                TcpConn::new(BGP_PORT, ephemeral, isn)
            };
            port_peer.insert(pc.port, peers.len());
            peers.push(Peer {
                cfg: pc,
                asn_ok: false,
                tcp,
                fsm: BgpState::Idle,
                rx_buf: Vec::new(),
                hold_deadline: 0,
                keepalive_due: 0,
                connect_at: 0,
                bfd: cfg
                    .bfd
                    .then(|| BfdSession::new(cfg.router_id ^ pc.port.0 as u32)
                        .with_tx_interval(cfg.bfd_tx_interval)),
                bfd_frame: None,
                adj_out: BTreeMap::new(),
            });
        }
        BgpRouter {
            cfg,
            rib,
            peers,
            port_peer,
            no_path: AsPath::from([]),
            fib: CompiledFib::new(),
            fib_key: None,
            repair_noted: false,
            tick_timer: GridTimer::new(TOKEN_TICK, TICK),
            stats: BgpStats::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    pub fn asn(&self) -> u32 {
        self.cfg.asn
    }

    pub fn stats(&self) -> BgpStats {
        self.stats
    }

    pub fn rib(&self) -> &Rib {
        &self.rib
    }

    /// The rack subnet this router serves directly (ToRs only).
    pub fn rack_subnet(&self) -> Option<Prefix> {
        self.cfg.rack_subnet
    }

    /// Established-session count (convergence checks in tests).
    pub fn established_sessions(&self) -> usize {
        self.peers.iter().filter(|p| p.fsm == BgpState::Established).count()
    }

    /// Render the kernel-style routing table (Listing 3).
    pub fn render_table(&self) -> String {
        self.rib.render(|port| {
            self.port_peer
                .get(&port)
                .map(|&i| self.peers[i].cfg.peer_ip)
        })
    }

    // ------------------------------------------------------------------
    // Frame emission
    // ------------------------------------------------------------------

    /// The frame carrying an IPv4 packet out of `port`: Ethernet header,
    /// IPv4 header and `payload_len` bytes for `fill` to write, in one
    /// buffer.
    #[allow(clippy::too_many_arguments)]
    fn build_ip_frame(
        node: u32,
        port: PortId,
        proto: u8,
        src: IpAddr4,
        dst: IpAddr4,
        ttl: u8,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> FrameBuf {
        let mac = MacAddr::for_node_port(node, port.0); // p2p: any unicast works
        let ip_len = IPV4_HEADER_LEN + payload_len;
        EthernetFrame::build(mac, mac, EtherType::Ipv4, ip_len, |ip| {
            Ipv4Packet::put_header(ip, src, dst, proto, ttl, payload_len);
            fill(&mut ip[IPV4_HEADER_LEN..]);
        })
    }

    /// The frame carrying session traffic (`len` bytes over `proto`,
    /// written by `fill`) to peer `peer_idx`, between the two addresses of
    /// their link.
    fn peer_frame(
        &self,
        ctx: &Ctx<'_>,
        peer_idx: usize,
        proto: u8,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> FrameBuf {
        let (c, ttl) = (&self.peers[peer_idx].cfg, Ipv4Packet::DEFAULT_TTL);
        Self::build_ip_frame(ctx.node().0, c.port, proto, c.local_ip, c.peer_ip, ttl, len, fill)
    }

    /// The frame carrying BFD control packet `pkt` to peer `peer_idx`.
    fn bfd_frame(&self, ctx: &Ctx<'_>, peer_idx: usize, pkt: &BfdPacket) -> FrameBuf {
        self.peer_frame(ctx, peer_idx, IPPROTO_UDP, UDP_HEADER_LEN + BFD_PACKET_LEN, |udp| {
            UdpDatagram::put_header(udp, 49152, BFD_CTRL_PORT, BFD_PACKET_LEN);
            pkt.put(&mut udp[UDP_HEADER_LEN..]);
        })
    }

    fn emit_segments(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer_idx: usize,
        segments: Vec<TcpSegment>,
        class: FrameClass,
    ) {
        let port = self.peers[peer_idx].cfg.port;
        for seg in &segments {
            // Classify transport-level frames independent of the app
            // class: empty payloads are handshake/acks.
            let c = if !seg.payload.is_empty() {
                class
            } else if seg.flags.contains(TcpFlags::SYN) || seg.flags.contains(TcpFlags::RST) {
                FrameClass::Session
            } else {
                FrameClass::Ack
            };
            let frame =
                self.peer_frame(ctx, peer_idx, IPPROTO_TCP, seg.encoded_len(), |tcp| seg.put(tcp));
            ctx.send(port, frame, c);
        }
        self.peers[peer_idx].tcp.recycle(segments);
    }

    /// Hand `msg` to the peer's connection: the buffer it is encoded into
    /// is its segment's payload.
    fn send_bgp(&mut self, ctx: &mut Ctx<'_>, peer_idx: usize, msg: &Msg<'_>) {
        let (class, sent) = match msg {
            BgpMessage::Keepalive => (FrameClass::Keepalive, &mut self.stats.keepalives_sent),
            BgpMessage::Update(_) => (FrameClass::Update, &mut self.stats.updates_sent),
            BgpMessage::Open { .. } => (FrameClass::Session, &mut self.stats.opens_sent),
            BgpMessage::Notification { .. } => (FrameClass::Session, &mut 0), // not counted
        };
        *sent += 1;
        let now = ctx.now();
        let payload = FrameBuf::build(msg.encoded_len(), |b| msg.put(b));
        let out = self.peers[peer_idx].tcp.send_buf(payload, now);
        self.emit_segments(ctx, peer_idx, out.segments, class);
    }

    /// Move a peer's session FSM, recording the transition as a span so
    /// the storyboard analyzer can reconstruct session timelines.
    fn set_fsm(&mut self, ctx: &mut Ctx<'_>, peer_idx: usize, to: BgpState) {
        let from = self.peers[peer_idx].fsm;
        if from == to {
            return;
        }
        self.peers[peer_idx].fsm = to;
        ctx.trace_span(SpanEvent::BgpFsm { port: self.peers[peer_idx].cfg.port, from, to });
    }

    // ------------------------------------------------------------------
    // Export policy
    // ------------------------------------------------------------------

    /// What we would advertise for `prefix` to any peer: the path behind
    /// our own ASN (none for a local prefix) and the port it was learned
    /// on, or None with nothing to export.
    fn export(&self, prefix: Prefix) -> Option<(AsPath, Option<PortId>)> {
        if self.rib.is_local(prefix) {
            return Some((self.no_path.clone(), None));
        }
        let best = self.rib.best(prefix)?;
        Some((best.as_path.clone(), Some(best.peer_port)))
    }

    /// Re-run the export policy for `prefixes` toward every established
    /// peer, emitting batched UPDATEs where the Adj-RIB-Out changed.
    fn reexport(&mut self, ctx: &mut Ctx<'_>, prefixes: &[Prefix]) {
        self.reexport_to(ctx, 0..self.peers.len(), prefixes);
    }

    /// [`Self::reexport`] toward the established peers among `peers`. A
    /// peer's UPDATEs leave in ascending AS-path order, each carrying its
    /// prefixes in `prefixes`' order, withdrawals riding the first. No
    /// path is copied and, for a batch of up to 16 prefixes, no list is
    /// built on the heap: exports are shared paths, the grouping is a
    /// stable sort of a stack list, and the UPDATE is encoded from slices.
    fn reexport_to(
        &mut self,
        ctx: &mut Ctx<'_>,
        peers: std::ops::Range<usize>,
        prefixes: &[Prefix],
    ) {
        let exports: SmallVec<_, 16> = prefixes.iter().map(|&pfx| (pfx, self.export(pfx))).collect();
        let mut batch_peers = 0usize;
        let mut batch_prefixes = 0usize;
        for peer_idx in peers {
            let peer = &mut self.peers[peer_idx];
            if peer.fsm != BgpState::Established {
                continue;
            }
            let mut withdrawn: SmallVec<Prefix, 16> = SmallVec::new();
            let mut adverts: SmallVec<(&[u32], Prefix), 16> = SmallVec::new();
            for (pfx, export) in exports.iter() {
                match export.as_ref().filter(|(path, from)| !peer.would_discard(path, *from)) {
                    Some((path, _)) => {
                        if peer.adj_out.get(pfx) != Some(path) {
                            peer.adj_out.insert(*pfx, path.clone());
                            adverts.push((path, *pfx));
                        }
                    }
                    None => {
                        if peer.adj_out.remove(pfx).is_some() {
                            withdrawn.push(*pfx);
                        }
                    }
                }
            }
            // Every exported path starts with our ASN, so ordering by what
            // follows it is ordering by the whole path.
            adverts.sort_by(|a, b| a.0.cmp(b.0));
            let nlri: SmallVec<Prefix, 16> = adverts.iter().map(|a| a.1).collect();
            let next_hop = Some(peer.cfg.local_ip);
            let mut sent = 0;
            for group in adverts.chunk_by(|a, b| a.0 == b.0) {
                let as_path: SmallVec<u32, 16> =
                    std::iter::once(self.cfg.asn).chain(group[0].0.iter().copied()).collect();
                let msg = BgpMessage::Update(BgpUpdate {
                    withdrawn: if sent == 0 { &withdrawn[..] } else { &[] },
                    as_path: &as_path[..],
                    next_hop,
                    nlri: &nlri[sent..sent + group.len()],
                });
                sent += group.len();
                self.send_bgp(ctx, peer_idx, &msg);
            }
            if sent == 0 && !withdrawn.is_empty() {
                let update = BgpUpdate { withdrawn: &withdrawn[..], ..Default::default() };
                self.send_bgp(ctx, peer_idx, &BgpMessage::Update(update));
            }
            if sent + withdrawn.len() > 0 {
                batch_peers += 1;
                batch_prefixes += sent + withdrawn.len();
            }
        }
        if batch_peers > 0 {
            ctx.trace_span(SpanEvent::BgpUpdateBatch {
                peers: batch_peers.min(u8::MAX as usize) as u8,
                prefixes: batch_prefixes.min(u8::MAX as usize) as u8,
            });
        }
    }

    fn trace_changes(&mut self, ctx: &mut Ctx<'_>, changes: &[(Prefix, RibChange)]) {
        for &(pfx, change) in changes {
            let kind = match change {
                RibChange::Gained => RouteChangeKind::Install,
                RibChange::Changed | RibChange::Lost => RouteChangeKind::Withdraw,
                RibChange::Unchanged => continue,
            };
            ctx.trace_route_change(kind, pfx.addr.0 as u64);
        }
    }

    // ------------------------------------------------------------------
    // Session lifecycle
    // ------------------------------------------------------------------

    fn on_established(&mut self, ctx: &mut Ctx<'_>, peer_idx: usize) {
        self.stats.sessions_established += 1;
        let now = ctx.now();
        self.set_fsm(ctx, peer_idx, BgpState::Established);
        {
            let p = &mut self.peers[peer_idx];
            p.keepalive_due = now + self.cfg.keepalive_interval;
            p.hold_deadline = now + self.cfg.hold_time;
        }
        // Initial table dump: everything exportable, to this peer only.
        // Every other established peer's Adj-RIB-Out already matches the
        // Loc-RIB (each RIB change re-exports to all of them).
        let mut prefixes = self.rib.local_prefixes().to_vec();
        prefixes.extend(self.rib.learned_prefixes());
        self.reexport_to(ctx, peer_idx..peer_idx + 1, &prefixes);
    }

    fn session_down(&mut self, ctx: &mut Ctx<'_>, peer_idx: usize, reason: BgpDownReason) {
        let was_active = self.peers[peer_idx].fsm != BgpState::Idle;
        let port = self.peers[peer_idx].cfg.port;
        if was_active {
            self.stats.sessions_lost += 1;
            ctx.trace_span(SpanEvent::BgpSessionDown { port, reason });
        }
        let now = ctx.now();
        let rst = self.peers[peer_idx].tcp.reset(now);
        self.emit_segments(ctx, peer_idx, rst.segments, FrameClass::Session);
        self.set_fsm(ctx, peer_idx, BgpState::Idle);
        {
            let p = &mut self.peers[peer_idx];
            p.rx_buf.clear();
            p.adj_out.clear();
            p.asn_ok = false;
            p.connect_at = now + self.cfg.connect_retry + ctx.rand_below(millis(200));
            if let Some(b) = p.bfd.as_mut() {
                b.force_down();
            }
        }
        let changes = self.rib.drop_peer(port);
        if !changes.is_empty() {
            self.trace_changes(ctx, &changes);
            let prefixes: Vec<Prefix> = changes.iter().map(|(p, _)| *p).collect();
            self.reexport(ctx, &prefixes);
        }
    }

    // ------------------------------------------------------------------
    // Message processing
    // ------------------------------------------------------------------

    /// In-order stream bytes from the peer, borrowed from the arriving
    /// segment. Whole messages are parsed where they lie; only a message
    /// split across segments is reassembled in `rx_buf`.
    fn on_bgp_bytes(&mut self, ctx: &mut Ctx<'_>, peer_idx: usize, bytes: &[u8]) {
        let mut held = std::mem::take(&mut self.peers[peer_idx].rx_buf);
        let mut buf = bytes;
        if !held.is_empty() {
            held.extend_from_slice(bytes);
            buf = &held;
        }
        loop {
            let (msg, used) = match BgpMessage::parse(buf) {
                Ok(ok) => ok,
                Err(dcn_wire::WireError::Truncated) => break,
                Err(_) => {
                    // Protocol error: NOTIFICATION + teardown.
                    let note = BgpMessage::Notification { code: 1, subcode: 0 };
                    self.send_bgp(ctx, peer_idx, &note);
                    self.session_down(ctx, peer_idx, BgpDownReason::BgpMsgError);
                    return;
                }
            };
            buf = &buf[used..];
            self.peers[peer_idx].hold_deadline = ctx.now() + self.cfg.hold_time;
            match msg {
                BgpMessage::Open { asn, .. } => {
                    if asn as u32 != self.peers[peer_idx].cfg.peer_asn {
                        let note = BgpMessage::Notification { code: 2, subcode: 2 };
                        self.send_bgp(ctx, peer_idx, &note);
                        self.session_down(ctx, peer_idx, BgpDownReason::BgpBadAsn);
                        return;
                    }
                    self.peers[peer_idx].asn_ok = true;
                    self.send_bgp(ctx, peer_idx, &BgpMessage::Keepalive);
                    if self.peers[peer_idx].fsm == BgpState::OpenSent {
                        self.set_fsm(ctx, peer_idx, BgpState::OpenConfirm);
                    }
                }
                BgpMessage::Keepalive => {
                    if self.peers[peer_idx].fsm == BgpState::OpenConfirm {
                        self.on_established(ctx, peer_idx);
                    }
                }
                BgpMessage::Update(update) => {
                    self.stats.updates_received += 1;
                    self.on_update(ctx, peer_idx, update);
                }
                BgpMessage::Notification { .. } => {
                    self.session_down(ctx, peer_idx, BgpDownReason::BgpNotification);
                    return;
                }
            }
        }
        // Keep the start of a message still arriving.
        let rest = buf.len();
        if held.is_empty() {
            held.extend_from_slice(&bytes[bytes.len() - rest..]);
        } else {
            held.drain(..held.len() - rest);
        }
        self.peers[peer_idx].rx_buf = held;
    }

    fn on_update(&mut self, ctx: &mut Ctx<'_>, peer_idx: usize, update: UpdateView<'_>) {
        let port = self.peers[peer_idx].cfg.port;
        let mut changes: SmallVec<(Prefix, RibChange), 16> = SmallVec::new();
        for pfx in update.withdrawn {
            let c = self.rib.ingest_withdraw(port, pfx);
            if c != RibChange::Unchanged {
                changes.push((pfx, c));
            }
        }
        let as_path: SmallVec<u32, 16> = update.as_path.collect();
        if !as_path.contains(&self.cfg.asn) {
            let nh = update.next_hop.unwrap_or(self.peers[peer_idx].cfg.peer_ip);
            // One shared path for every prefix of the UPDATE, made when
            // the first of them needs it.
            let mut shared: Option<AsPath> = None;
            for pfx in update.nlri {
                let path = shared.get_or_insert_with(|| AsPath::from(&as_path[..])).clone();
                let c = self.rib.ingest_advert(port, pfx, path, nh);
                if c != RibChange::Unchanged {
                    changes.push((pfx, c));
                }
            }
        }
        if !changes.is_empty() {
            self.trace_changes(ctx, &changes);
            let prefixes: SmallVec<Prefix, 16> = changes.iter().map(|(p, _)| *p).collect();
            self.reexport(ctx, &prefixes);
        }
    }

    fn on_tcp_segment(&mut self, ctx: &mut Ctx<'_>, peer_idx: usize, seg: &TcpView<'_>) {
        let now = ctx.now();
        let out = self.peers[peer_idx].tcp.on_segment(seg, now);
        // Data segments emitted during handshake completion carry queued
        // table dumps: class Update.
        self.emit_segments(ctx, peer_idx, out.segments, FrameClass::Update);
        for ev in out.events {
            match ev {
                TcpEvent::Established => {
                    let open = BgpMessage::Open {
                        asn: self.cfg.asn as u16,
                        hold_time_secs: (self.cfg.hold_time / dcn_sim::time::SECONDS) as u16,
                        router_id: self.cfg.router_id,
                    };
                    self.set_fsm(ctx, peer_idx, BgpState::OpenSent);
                    self.peers[peer_idx].hold_deadline = now + self.cfg.hold_time;
                    self.send_bgp(ctx, peer_idx, &open);
                }
                TcpEvent::Closed => {
                    self.session_down(ctx, peer_idx, BgpDownReason::TcpClosed);
                    return;
                }
            }
        }
        if !out.delivered.is_empty() {
            self.on_bgp_bytes(ctx, peer_idx, out.delivered);
        }
    }

    /// Session traffic addressed to our side of a fabric link: TCP
    /// segments of the BGP session, BFD control packets over UDP.
    fn on_control(&mut self, ctx: &mut Ctx<'_>, port: PortId, peer_idx: usize, pkt: &Ipv4View<'_>) {
        match pkt.protocol {
            IPPROTO_TCP => match TcpSegment::parse(pkt.payload) {
                Ok(seg) => self.on_tcp_segment(ctx, peer_idx, &seg),
                Err(_) => self.stats.malformed_frames_dropped += 1,
            },
            IPPROTO_UDP => {
                let Ok(udp) = UdpDatagram::parse(pkt.payload) else {
                    self.stats.malformed_frames_dropped += 1;
                    return;
                };
                if udp.dst_port != BFD_CTRL_PORT {
                    return;
                }
                let Ok(bp) = BfdPacket::decode(udp.payload) else {
                    self.stats.malformed_frames_dropped += 1;
                    return;
                };
                let now = ctx.now();
                let Some(mut bfd) = self.peers[peer_idx].bfd.take() else {
                    return;
                };
                let (reply, event) = bfd.on_packet(&bp, now);
                self.peers[peer_idx].bfd = Some(bfd);
                if let Some(r) = reply {
                    let frame = self.bfd_frame(ctx, peer_idx, &r);
                    ctx.send(port, frame, FrameClass::Keepalive);
                }
                if event == Some(BfdEvent::SessionDown)
                    && self.peers[peer_idx].fsm == BgpState::Established
                {
                    self.session_down(ctx, peer_idx, BgpDownReason::BfdDown);
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// The forwarding decision that both data paths of this router, and
    /// the chaos walker, ask: the egress toward `dst` for flow hash `flow`
    /// (longest-prefix match, then ECMP) and the packet's repair bit after
    /// this hop. The pick reads no liveness, so it may be a dead port,
    /// where the packet is lost on the wire. With the fast path on the
    /// lazily recompiled [`CompiledFib`] answers — identical to
    /// [`Rib::lookup`] by construction — and only there may local fast
    /// reroute re-spread a packet whose hashed member is dead (`port_up`),
    /// at most once: a repaired packet gets the plain pick. `arrival` is
    /// the port the packet came in on, `None` on the slow path, whose
    /// frames carry no repair bit.
    pub fn next_hop(
        &mut self,
        dst: IpAddr4,
        flow: u64,
        arrival: Option<PortId>,
        repaired: bool,
        port_up: impl Fn(PortId) -> bool,
    ) -> Option<(PortId, bool)> {
        if !self.cfg.fast_path {
            let (_, members) = self.rib.lookup(dst)?;
            let port = members[dcn_wire::ecmp_index(flow, members.len())].peer_port;
            return Some((port, repaired));
        }
        self.ensure_fib();
        match arrival {
            Some(arrival) if self.cfg.local_repair && !repaired => {
                self.fib.lookup_repair(dst, flow, port_up, Some(arrival))
            }
            _ => self.fib.lookup(dst, flow).map(|port| (port, repaired)),
        }
    }

    /// Recompile the FIB if the Loc-RIB changed since the last compile.
    fn ensure_fib(&mut self) {
        let key = self.rib.version();
        if self.fib_key != Some(key) {
            self.fib.rebuild(&self.rib);
            self.fib_key = Some(key);
            // New FIB generation: the once-per-generation repair-span
            // dedup starts over.
            self.repair_noted = false;
        }
    }

    /// Rack delivery, shared by both forwarding paths: send the IPv4 frame
    /// `frame(mac)` makes toward the server's port, `mac` that port's
    /// address in both MAC fields.
    fn deliver(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: IpAddr4,
        frame: impl FnOnce(MacAddr) -> FrameBuf,
    ) {
        let Some(&(_, port)) = self.cfg.host_ports.iter().find(|(ip, _)| *ip == dst) else {
            self.stats.data_dropped += 1;
            return;
        };
        let frame = frame(MacAddr::for_node_port(ctx.node().0, port.0));
        self.stats.data_delivered += 1;
        ctx.send(port, frame, FrameClass::Data);
    }

    /// The validating slow path: `pkt` is the parsed view of `ip_bytes`. A
    /// header that parses is the one layout `put_header` writes, so trimming
    /// to the total length is all a decode → re-encode would change.
    fn forward_data(&mut self, ctx: &mut Ctx<'_>, ip_bytes: &[u8], pkt: &Ipv4View<'_>) {
        if self.cfg.rack_subnet.is_some_and(|rack| rack.contains(pkt.dst)) {
            let ip_bytes = &ip_bytes[..IPV4_HEADER_LEN + pkt.payload.len()];
            self.deliver(ctx, pkt.dst, |mac| {
                EthernetFrame::build(mac, mac, EtherType::Ipv4, ip_bytes.len(), |b| {
                    b.copy_from_slice(ip_bytes)
                })
            });
            return;
        }
        if pkt.ttl <= 1 {
            self.stats.data_dropped += 1;
            return;
        }
        let up = |p| ctx.port(p).up;
        let Some((port, _)) = self.next_hop(pkt.dst, flow_hash_of(pkt), None, false, up) else {
            self.stats.data_dropped += 1;
            self.stats.blackholed_in_window += 1;
            return;
        };
        if !ctx.port(port).up {
            // The hash landed on a locally-dead egress: the send below
            // still happens (the RIB carries no liveness), but the packet
            // is lost on the wire — count it toward the loss window.
            self.stats.blackholed_in_window += 1;
        }
        let (node, ttl) = (ctx.node().0, pkt.ttl - 1);
        let (len, copy) = (pkt.payload.len(), |b: &mut [u8]| b.copy_from_slice(pkt.payload));
        let frame = Self::build_ip_frame(node, port, pkt.protocol, pkt.src, pkt.dst, ttl, len, copy);
        self.stats.data_forwarded += 1;
        ctx.send(port, frame, FrameClass::Data);
    }

    /// The data-plane fast path: forward using the parsed-at-ingress
    /// [`FrameMeta`] and the compiled FIB, without re-decoding the frame.
    ///
    /// Every branch mirrors [`Self::forward_data`] in order (rack
    /// delivery, TTL guard, longest-prefix lookup), and both rewrites are
    /// byte-identical to the slow path's decode → `ttl -= 1` → re-encode:
    /// our canonical frames differ from what the slow path builds only in
    /// the two MAC fields and, in transit, the TTL and checksum bytes, so
    /// patching those produces the frame the struct round-trip would. The
    /// engine hands over the delivered frame and nothing else holds a data
    /// frame, so [`FrameBuf::rewrite`] patches the arriving buffer in
    /// place: transit allocates nothing, as under MR-MTP.
    #[allow(clippy::too_many_arguments)]
    fn forward_fast(
        &mut self,
        ctx: &mut Ctx<'_>,
        arrival: PortId,
        frame: FrameBuf,
        dst: IpAddr4,
        flow: u64,
        ttl: u8,
        repaired: bool,
    ) {
        const IP: usize = ETHERNET_HEADER_LEN;
        if self.cfg.rack_subnet.is_some_and(|rack| rack.contains(dst)) {
            self.deliver(ctx, dst, |mac| {
                frame.rewrite(|b| EthernetFrame::put_header(b, mac, mac, EtherType::Ipv4))
            });
            return;
        }
        if ttl <= 1 {
            self.stats.data_dropped += 1;
            return;
        }
        // A recompile allocates its route list: do it before the scope.
        self.ensure_fib();
        let mut note_repair = None;
        // The scope brackets the router's decision, header rewrite
        // included; it closes before the hand-off because `send_meta` acts
        // on the engine at once and the scheduler push is engine work.
        let (port, out, now_repaired) = {
            let _scope = alloc_track::scope();
            let up = |p| ctx.port(p).up;
            let Some((port, now_repaired)) = self.next_hop(dst, flow, Some(arrival), repaired, up)
            else {
                self.stats.data_dropped += 1;
                self.stats.blackholed_in_window += 1;
                return;
            };
            if now_repaired != repaired {
                self.stats.locally_repaired += 1;
                if !self.repair_noted {
                    self.repair_noted = true;
                    note_repair = Some(port);
                }
            } else if !ctx.port(port).up {
                // Off-mode (or unrepaired) pick into a dead egress: the
                // send still happens, the packet dies on the wire.
                self.stats.blackholed_in_window += 1;
            }
            let mac = MacAddr::for_node_port(ctx.node().0, port.0);
            let out = frame.rewrite(|out| {
                EthernetFrame::put_header(out, mac, mac, EtherType::Ipv4);
                out[IP + 8] = ttl - 1;
                out[IP + 10] = 0;
                out[IP + 11] = 0;
                let csum = dcn_wire::internet_checksum(&out[IP..IP + IPV4_HEADER_LEN]);
                out[IP + 10..IP + 12].copy_from_slice(&csum.to_be_bytes());
            });
            self.stats.data_forwarded += 1;
            (port, out, now_repaired)
        };
        let meta = FrameMeta::Ipv4Data { dst, flow, ttl: ttl - 1, repaired: now_repaired };
        ctx.send_meta(port, out, FrameClass::Data, meta);
        alloc_track::note_forward();
        if let Some(port) = note_repair {
            ctx.trace_span(SpanEvent::LocalRepair { port });
        }
    }

    // ------------------------------------------------------------------
    // Housekeeping
    // ------------------------------------------------------------------

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        for peer_idx in 0..self.peers.len() {
            // Before its deadline a peer has nothing due (DESIGN.md §14).
            // Read at the peer's turn: work for an earlier peer can send
            // to this one, which arms a retransmission, never a deadline
            // at or before `now`.
            if self.peers[peer_idx].next_deadline() > now {
                continue;
            }
            let port = self.peers[peer_idx].cfg.port;
            if !ctx.port(port).up {
                continue; // carrier handling killed these sessions already
            }
            // Connection management.
            if self.peers[peer_idx].fsm == BgpState::Idle && now >= self.peers[peer_idx].connect_at {
                let active = self.peers[peer_idx].cfg.is_active();
                self.set_fsm(ctx, peer_idx, BgpState::TcpPending);
                self.peers[peer_idx].hold_deadline = now + self.cfg.hold_time * 4;
                if active {
                    let out = self.peers[peer_idx].tcp.connect(now);
                    self.emit_segments(ctx, peer_idx, out.segments, FrameClass::Session);
                } else {
                    self.peers[peer_idx].tcp.listen();
                }
            }
            // TCP retransmission.
            let out = self.peers[peer_idx].tcp.tick(now);
            self.emit_segments(ctx, peer_idx, out.segments, FrameClass::Session);
            if out.events.contains(&TcpEvent::Closed) {
                self.session_down(ctx, peer_idx, BgpDownReason::TcpRetxExhausted);
            }
            // Keepalives and hold timer.
            let fsm = self.peers[peer_idx].fsm;
            if fsm == BgpState::Established && now >= self.peers[peer_idx].keepalive_due {
                self.peers[peer_idx].keepalive_due = now + self.cfg.keepalive_interval;
                self.send_bgp(ctx, peer_idx, &BgpMessage::Keepalive);
            }
            if matches!(fsm, BgpState::OpenSent | BgpState::OpenConfirm | BgpState::Established | BgpState::TcpPending)
                && now > self.peers[peer_idx].hold_deadline
            {
                self.session_down(ctx, peer_idx, BgpDownReason::BgpHoldExpired);
                continue;
            }
            // BFD.
            if let Some(mut bfd) = self.peers[peer_idx].bfd.take() {
                let (pkt, event) = bfd.tick(now);
                self.peers[peer_idx].bfd = Some(bfd);
                if let Some(pkt) = pkt {
                    // BFD control packets are timestamp-free, so in steady
                    // state every keepalive is the same packet: cache the
                    // encapsulated frame and re-send by refcount bump.
                    let frame = match &self.peers[peer_idx].bfd_frame {
                        Some((cached, f)) if *cached == pkt => f.clone(),
                        _ => {
                            let f = self.bfd_frame(ctx, peer_idx, &pkt);
                            self.peers[peer_idx].bfd_frame = Some((pkt, f.clone()));
                            f
                        }
                    };
                    ctx.send(port, frame, FrameClass::Keepalive);
                }
                if event == Some(BfdEvent::SessionDown)
                    && self.peers[peer_idx].fsm == BgpState::Established
                {
                    self.session_down(ctx, peer_idx, BgpDownReason::BfdDown);
                }
            }
        }
    }

    /// Re-aim the housekeeping wake-up at the earliest per-peer deadline.
    /// Called after the tick and after every control-plane callback (any
    /// of them can arm a retransmission, move a session timer or restart
    /// a connect back-off); data forwarding touches no deadline and
    /// skips it.
    fn rearm(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(deadline) = self.peers.iter().map(Peer::next_deadline).min() {
            self.tick_timer.wake_by(ctx, deadline);
        }
    }
}

impl StatsSnapshot for BgpRouter {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        let s = &self.stats;
        vec![
            ("opens_sent", s.opens_sent),
            ("keepalives_sent", s.keepalives_sent),
            ("updates_sent", s.updates_sent),
            ("updates_received", s.updates_received),
            ("sessions_established", s.sessions_established),
            ("sessions_lost", s.sessions_lost),
            ("data_forwarded", s.data_forwarded),
            ("data_delivered", s.data_delivered),
            ("data_dropped", s.data_dropped),
            ("malformed_frames_dropped", s.malformed_frames_dropped),
            ("locally_repaired", s.locally_repaired),
            ("blackholed_in_window", s.blackholed_in_window),
        ]
    }

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        let count = |f: BgpState| self.peers.iter().filter(|p| p.fsm == f).count() as u64;
        let retx_queue: u64 = self.peers.iter().map(|p| p.tcp.unacked() as u64).sum();
        let adj_out: u64 = self.peers.iter().map(|p| p.adj_out.len() as u64).sum();
        let bfd_up = self
            .peers
            .iter()
            .filter(|p| p.bfd.as_ref().is_some_and(|b| b.is_up()))
            .count() as u64;
        let bfd_transitions: u64 = self
            .peers
            .iter()
            .filter_map(|p| p.bfd.as_ref().map(|b| b.transitions()))
            .sum();
        vec![
            ("rib_routes", self.rib.route_count() as u64),
            ("rib_paths", self.rib.path_count() as u64),
            ("sessions_idle", count(BgpState::Idle)),
            ("sessions_pending", count(BgpState::TcpPending) + count(BgpState::OpenSent) + count(BgpState::OpenConfirm)),
            ("sessions_up", count(BgpState::Established)),
            ("tcp_retransmit_queue", retx_queue),
            ("adj_out_prefixes", adj_out),
            ("bfd_sessions_up", bfd_up),
            ("bfd_transitions", bfd_transitions),
        ]
    }
}

impl Protocol for BgpRouter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let jitter = ctx.rand_below(millis(5));
        self.tick_timer.start(ctx, TICK + jitter);
        self.rearm(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &FrameBuf) {
        let Ok(eth) = EthernetFrame::parse(frame) else {
            self.stats.malformed_frames_dropped += 1;
            return;
        };
        if eth.ethertype != EtherType::Ipv4 {
            return; // BGP fabrics ignore MR-MTP frames and vice versa
        }
        let Ok(pkt) = Ipv4Packet::parse(eth.payload) else {
            self.stats.malformed_frames_dropped += 1;
            return;
        };
        // Control traffic addressed to our side of this link?
        if let Some(&peer_idx) = self.port_peer.get(&port) {
            if pkt.dst == self.peers[peer_idx].cfg.local_ip {
                self.on_control(ctx, port, peer_idx, &pkt);
                self.rearm(ctx);
                return;
            }
        }
        // Otherwise: transit data.
        self.forward_data(ctx, eth.payload, &pkt);
    }

    fn on_frame_meta(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        frame: FrameBuf,
        meta: Option<FrameMeta>,
    ) {
        if self.cfg.fast_path {
            if let Some(FrameMeta::Ipv4Data { dst, flow, ttl, repaired }) = meta {
                // Control-demux guard: anything addressed to our side of
                // a fabric link is session traffic and takes the full
                // decode path. Data frames never are, so this is one
                // map probe per packet.
                let is_control = self
                    .port_peer
                    .get(&port)
                    .is_some_and(|&i| dst == self.peers[i].cfg.local_ip);
                if !is_control {
                    self.forward_fast(ctx, port, frame, dst, flow, ttl, repaired);
                    return;
                }
            }
        }
        self.on_frame(ctx, port, &frame);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_TICK && self.tick_timer.fired(ctx) {
            self.tick(ctx);
            self.rearm(ctx);
        }
    }

    fn on_port_down(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        // FRR's interface tracking: carrier loss kills the session at
        // once — no waiting for timers on the local side.
        if let Some(&peer_idx) = self.port_peer.get(&port) {
            self.session_down(ctx, peer_idx, BgpDownReason::CarrierDown);
            self.rearm(ctx);
        }
    }

    fn on_port_up(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        if let Some(&peer_idx) = self.port_peer.get(&port) {
            let now = ctx.now();
            self.peers[peer_idx].connect_at = now + self.cfg.connect_retry;
            self.rearm(ctx);
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
    use crate::config::PeerConfig;

    fn cfg() -> BgpConfig {
        BgpConfig::new("T-1", 64512, 0x0A000001).peer(PeerConfig {
            port: PortId(0),
            local_ip: IpAddr4::new(172, 16, 0, 1),
            peer_ip: IpAddr4::new(172, 16, 0, 2),
            peer_asn: 64513,
        })
    }

    #[test]
    fn new_router_is_idle_with_connected_routes() {
        let r = BgpRouter::new(cfg());
        assert_eq!(r.established_sessions(), 0);
        assert_eq!(r.rib().route_count(), 1, "connected /24 of the peer link");
        assert_eq!(r.asn(), 64512);
        assert_eq!(r.name(), "T-1");
    }

    #[test]
    fn export_is_the_path_behind_our_asn_and_filters_loops() {
        let mut r = BgpRouter::new(cfg());
        let local = Prefix::new(IpAddr4::new(192, 168, 11, 0), 24);
        r.rib.add_local(local);
        assert_eq!(r.export(local), Some((AsPath::from([]), None)), "we prepend 64512 to nothing");
        assert!(!r.peers[0].would_discard(&[], None), "and every peer is owed it");
        // A learned path is shared, not copied.
        let p = Prefix::new(IpAddr4::new(192, 168, 12, 0), 24);
        r.rib.ingest_advert(PortId(0), p, vec![64513, 65002], IpAddr4(0));
        let (path, from) = r.export(p).unwrap();
        assert!(std::rc::Rc::ptr_eq(&path, &r.rib.best(p).unwrap().as_path));
        assert_eq!((&path[..], from), (&[64513, 65002][..], Some(PortId(0))));
        assert_eq!(r.export(Prefix::new(IpAddr4::new(192, 168, 13, 0), 24)), None);
        // Learned from the peer and through its AS: not exported back —
        // and either reason is enough (a corrupted path can lose the ASN).
        let peer = &r.peers[0];
        assert!(peer.would_discard(&path, from));
        assert!(peer.would_discard(&[65001, 65002], Some(PortId(0))), "learned from the peer");
        assert!(peer.would_discard(&[65001, 64513], Some(PortId(1))), "through the peer's AS");
        assert!(!peer.would_discard(&[65001, 65002], Some(PortId(1))));
    }

    #[test]
    fn originated_prefixes_land_in_rib_as_local() {
        let rack = Prefix::new(IpAddr4::new(192, 168, 11, 0), 24);
        let c = cfg().originating(rack);
        let r = BgpRouter::new(c);
        assert!(r.rib().is_local(rack));
    }
}
