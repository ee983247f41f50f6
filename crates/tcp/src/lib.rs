//! # dcn-tcp — a minimal TCP for BGP sessions
//!
//! BGP requires a reliable byte stream; the paper counts this against the
//! BGP/ECMP/BFD stack (MR-MTP builds its modest reliability needs into the
//! protocol instead). This crate provides just enough TCP to reproduce
//! that cost faithfully on the emulator:
//!
//! * three-way handshake and deterministic active/passive roles,
//! * sequenced delivery with cumulative ACKs — a **pure ACK is emitted for
//!   every received data segment** (the 66-byte frames visible between the
//!   keepalives in the paper's Fig. 9 capture),
//! * fixed-RTO retransmission (200 ms, the Linux minimum) so control
//!   traffic survives transient loss,
//! * RST/teardown so BGP can kill sessions on hold-timer expiry.
//!
//! Deliberately omitted (documented here rather than half-implemented):
//! flow control and congestion control — BGP control traffic on an
//! emulated 10 GbE link never approaches either limit, and neither affects
//! any measured quantity.
//!
//! The connection object is transport-only: the owner (the BGP router)
//! wraps outgoing segments in IPv4/Ethernet and feeds incoming segments
//! back. This keeps `dcn-tcp` independent of the emulator's node model.
//!
//! Nothing here copies what it only forwards (DESIGN.md §18). A message
//! written to an established connection *is* its segment's payload — one
//! [`FrameBuf`] shared by the emitted segment and the retransmission
//! queue — in-order data is handed up as a borrow of the arriving
//! segment, and an owner that hands each output's segment list back
//! ([`TcpConn::recycle`]) has the next one built in the same buffer. Only
//! writes made before the handshake completes are held as bytes, so that
//! they leave cut exactly where a byte queue would cut them: coalesced,
//! [`MSS`] at a time.

use std::collections::VecDeque;

use dcn_sim::time::{millis, Duration, Time};
use dcn_wire::{FrameBuf, TcpFlags, TcpSegment};

/// Fixed retransmission timeout (Linux's minimum RTO).
pub const RTO: Duration = millis(200);

/// Maximum segment payload. Large enough that every BGP message fits in
/// one segment (BGP messages max 4096 bytes).
pub const MSS: usize = 4096;

/// Give up retransmitting after this many attempts; the owner will learn
/// of peer death from its own timers (BGP hold / BFD) long before.
pub const MAX_RETX: u32 = 12;

/// Connection state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    Closed,
    Listen,
    SynSent,
    SynReceived,
    Established,
}

/// Events surfaced to the owner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpEvent {
    /// Handshake completed; the stream is usable.
    Established,
    /// The connection died (reset received or retransmission exhausted).
    Closed,
}

/// Output of an operation: segments to put on the wire, the in-order
/// application bytes the arriving segment delivered (a borrow of it),
/// and state changes.
#[derive(Default, Debug)]
pub struct TcpOutput<'a> {
    pub segments: Vec<TcpSegment>,
    pub delivered: &'a [u8],
    pub events: Vec<TcpEvent>,
}

/// One TCP connection endpoint.
#[derive(Debug)]
pub struct TcpConn {
    pub local_port: u16,
    pub remote_port: u16,
    state: TcpState,
    /// Next sequence number to assign to outgoing bytes.
    snd_nxt: u32,
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next expected incoming sequence number.
    rcv_nxt: u32,
    /// Bytes written before the handshake completed, segmented when it
    /// does. Empty ever after: an established connection has no send
    /// window to wait for, so every later write leaves at once.
    pending: Vec<u8>,
    /// Unacknowledged segments for retransmission: (seq, payload).
    inflight: VecDeque<(u32, FrameBuf)>,
    retx_deadline: Option<Time>,
    retx_count: u32,
    /// Initial sequence number (deterministic for reproducibility).
    isn: u32,
    /// The emptied segment list of an earlier output ([`Self::recycle`]).
    spare: Vec<TcpSegment>,
}

impl TcpConn {
    /// Create a closed connection between the given ports. `isn` seeds the
    /// sequence space (pass something deterministic).
    pub fn new(local_port: u16, remote_port: u16, isn: u32) -> TcpConn {
        TcpConn {
            local_port,
            remote_port,
            state: TcpState::Closed,
            snd_nxt: isn,
            snd_una: isn,
            rcv_nxt: 0,
            pending: Vec::new(),
            inflight: VecDeque::new(),
            retx_deadline: None,
            retx_count: 0,
            isn,
            spare: Vec::new(),
        }
    }

    /// An empty output whose segment list is the one last handed back.
    fn output(&mut self) -> TcpOutput<'static> {
        TcpOutput { segments: std::mem::take(&mut self.spare), ..TcpOutput::default() }
    }

    /// Hand back the segment list of a [`TcpOutput`] once its segments are
    /// on the wire. The next output reuses its buffer, so a connection
    /// whose owner does this allocates no list per call.
    pub fn recycle(&mut self, mut segments: Vec<TcpSegment>) {
        segments.clear();
        self.spare = segments;
    }

    pub fn state(&self) -> TcpState {
        self.state
    }

    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    fn seg(&self, now: Time, flags: TcpFlags, seq: u32, payload: FrameBuf) -> TcpSegment {
        TcpSegment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: 65535,
            ts_val: (now / millis(1)) as u32,
            ts_ecr: 0,
            payload,
        }
    }

    /// A payload-free segment (SYN, pure ACK, RST) at `snd_nxt`.
    fn bare(&self, now: Time, flags: TcpFlags) -> TcpSegment {
        self.seg(now, flags, self.snd_nxt, FrameBuf::empty())
    }

    /// Emit a SYN (or SYN-ACK), which consumes one sequence number and
    /// is retransmitted until acknowledged.
    fn send_syn(&mut self, now: Time, flags: TcpFlags, out: &mut TcpOutput<'_>) {
        out.segments.push(self.bare(now, flags));
        self.inflight.push_back((self.snd_nxt, FrameBuf::empty()));
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.arm_retx(now);
    }

    /// Active open: emit a SYN.
    pub fn connect(&mut self, now: Time) -> TcpOutput<'static> {
        let mut out = self.output();
        self.reset_to(TcpState::SynSent);
        self.send_syn(now, TcpFlags::SYN, &mut out);
        out
    }

    /// Passive open: wait for a SYN.
    pub fn listen(&mut self) {
        self.reset_to(TcpState::Listen);
    }

    fn reset_to(&mut self, state: TcpState) {
        self.state = state;
        self.snd_nxt = self.isn;
        self.snd_una = self.isn;
        self.rcv_nxt = 0;
        self.pending.clear();
        self.inflight.clear();
        self.retx_deadline = None;
        self.retx_count = 0;
    }

    fn close(&mut self, out: &mut TcpOutput<'_>) {
        self.state = TcpState::Closed;
        self.retx_deadline = None;
        out.events.push(TcpEvent::Closed);
    }

    /// Hard-close locally and emit an RST for the peer.
    pub fn reset(&mut self, now: Time) -> TcpOutput<'static> {
        let mut out = self.output();
        if self.state != TcpState::Closed {
            out.segments.push(self.bare(now, TcpFlags::RST));
            self.close(&mut out);
        }
        out
    }

    /// Write application bytes: [`Self::send_buf`] after one copy.
    pub fn send(&mut self, data: &[u8], now: Time) -> TcpOutput<'static> {
        self.send_buf(data.into(), now)
    }

    /// Write a message. On an established connection it leaves at once;
    /// before that its bytes are held until the handshake completes.
    pub fn send_buf(&mut self, data: FrameBuf, now: Time) -> TcpOutput<'static> {
        let mut out = self.output();
        if self.state == TcpState::Established {
            self.emit(data, now, &mut out);
        } else {
            self.pending.extend_from_slice(&data);
        }
        out
    }

    /// Segment the writes held during the handshake, as one stream.
    fn flush(&mut self, now: Time, out: &mut TcpOutput<'_>) {
        let pending = std::mem::take(&mut self.pending);
        self.emit(pending.into(), now, out);
    }

    /// Put `data` on the wire. A write that fits one segment *is* that
    /// segment's payload, shared with its inflight entry; a longer one is
    /// cut at [`MSS`] into copies.
    fn emit(&mut self, data: FrameBuf, now: Time, out: &mut TcpOutput<'_>) {
        for chunk in data.chunks(MSS) {
            let payload = if chunk.len() == data.len() { data.clone() } else { chunk.into() };
            let seq = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(payload.len() as u32);
            self.inflight.push_back((seq, payload.clone()));
            out.segments.push(self.seg(now, TcpFlags::PSH | TcpFlags::ACK, seq, payload));
            self.arm_retx(now);
        }
    }

    fn arm_retx(&mut self, now: Time) {
        if self.retx_deadline.is_none() {
            self.retx_deadline = Some(now + RTO);
        }
    }

    /// Process an incoming segment, owned or parsed in place.
    pub fn on_segment<'a, P: AsRef<[u8]>>(
        &mut self,
        seg: &'a TcpSegment<P>,
        now: Time,
    ) -> TcpOutput<'a> {
        let mut out = self.output();
        if seg.flags.contains(TcpFlags::RST) {
            if self.state != TcpState::Closed && self.state != TcpState::Listen {
                self.close(&mut out);
            }
            return out;
        }
        match self.state {
            // Refuse with RST.
            TcpState::Closed => out.segments.push(self.bare(now, TcpFlags::RST)),
            TcpState::Listen => {
                if seg.flags.contains(TcpFlags::SYN) {
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.state = TcpState::SynReceived;
                    self.send_syn(now, TcpFlags::SYN | TcpFlags::ACK, &mut out);
                }
            }
            TcpState::SynSent => {
                if seg.flags.contains(TcpFlags::SYN) && seg.flags.contains(TcpFlags::ACK) {
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.accept_ack(seg.ack);
                    self.state = TcpState::Established;
                    out.events.push(TcpEvent::Established);
                    out.segments.push(self.bare(now, TcpFlags::ACK));
                    self.flush(now, &mut out);
                }
            }
            TcpState::SynReceived => {
                if seg.flags.contains(TcpFlags::ACK) {
                    self.accept_ack(seg.ack);
                    if self.snd_una == self.snd_nxt {
                        self.state = TcpState::Established;
                        out.events.push(TcpEvent::Established);
                        self.flush(now, &mut out);
                    }
                }
                self.ingest_data(seg.seq, seg.payload.as_ref(), now, &mut out);
            }
            TcpState::Established => {
                if seg.flags.contains(TcpFlags::ACK) {
                    self.accept_ack(seg.ack);
                }
                self.ingest_data(seg.seq, seg.payload.as_ref(), now, &mut out);
            }
        }
        out
    }

    fn ingest_data<'a>(&mut self, seq: u32, payload: &'a [u8], now: Time, out: &mut TcpOutput<'a>) {
        if payload.is_empty() {
            return;
        }
        if seq == self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
            out.delivered = payload;
        }
        // Duplicate or out-of-order data still triggers an ACK: the
        // cumulative ack tells the peer where we are.
        out.segments.push(self.bare(now, TcpFlags::ACK));
    }

    fn accept_ack(&mut self, ack: u32) {
        // Pop fully acknowledged segments (modular comparison).
        while let Some(&(seq, ref payload)) = self.inflight.front() {
            let consumed = if payload.is_empty() { 1 } else { payload.len() as u32 };
            let end = seq.wrapping_add(consumed);
            if end.wrapping_sub(self.snd_una) <= ack.wrapping_sub(self.snd_una) {
                self.snd_una = end;
                self.inflight.pop_front();
                self.retx_count = 0;
            } else {
                break;
            }
        }
        if self.inflight.is_empty() {
            self.retx_deadline = None;
        }
    }

    /// The earliest instant at which [`TcpConn::tick`] would act (the
    /// retransmission deadline), or `None` with nothing in flight.
    pub fn next_deadline(&self) -> Option<Time> {
        self.retx_deadline
    }

    /// Drive retransmission; call at or after [`TcpConn::next_deadline`]
    /// (calls before it are no-ops).
    pub fn tick(&mut self, now: Time) -> TcpOutput<'static> {
        let mut out = self.output();
        let Some(deadline) = self.retx_deadline else {
            return out;
        };
        if now < deadline {
            return out;
        }
        self.retx_count += 1;
        if self.retx_count > MAX_RETX {
            self.close(&mut out);
            return out;
        }
        self.retx_deadline = Some(now + RTO);
        if let Some((seq, payload)) = self.inflight.front().cloned() {
            let flags = match self.state {
                TcpState::SynSent => TcpFlags::SYN,
                TcpState::SynReceived => TcpFlags::SYN | TcpFlags::ACK,
                _ => TcpFlags::PSH | TcpFlags::ACK,
            };
            out.segments.push(self.seg(now, flags, seq, payload));
        }
        out
    }

    /// Bytes (or SYN units) in flight awaiting acknowledgement.
    pub fn unacked(&self) -> usize {
        self.inflight.iter().map(|(_, p)| p.len().max(1)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shuttle segments between two connections until quiescent.
    fn pump(a: &mut TcpConn, b: &mut TcpConn, first: TcpOutput, now: Time) -> (Vec<u8>, Vec<u8>) {
        let mut to_b: VecDeque<TcpSegment> = first.segments.into();
        let mut to_a: VecDeque<TcpSegment> = VecDeque::new();
        let (mut a_rx, mut b_rx) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            if to_b.is_empty() && to_a.is_empty() {
                break;
            }
            if let Some(seg) = to_b.pop_front() {
                let out = b.on_segment(&seg, now);
                b_rx.extend(out.delivered);
                to_a.extend(out.segments);
            }
            if let Some(seg) = to_a.pop_front() {
                let out = a.on_segment(&seg, now);
                a_rx.extend(out.delivered);
                to_b.extend(out.segments);
            }
        }
        (a_rx, b_rx)
    }

    fn pair() -> (TcpConn, TcpConn) {
        let a = TcpConn::new(40000, 179, 1000);
        let mut b = TcpConn::new(179, 40000, 5000);
        b.listen();
        (a, b)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (mut a, mut b) = pair();
        let syn = a.connect(0);
        assert_eq!(a.state(), TcpState::SynSent);
        pump(&mut a, &mut b, syn, 0);
        assert!(a.is_established());
        assert!(b.is_established());
    }

    #[test]
    fn data_flows_and_is_acked() {
        let (mut a, mut b) = pair();
        let syn = a.connect(0);
        pump(&mut a, &mut b, syn, 0);
        let out = a.send(b"hello bgp", 10);
        let (_, b_rx) = pump(&mut a, &mut b, out, 10);
        assert_eq!(b_rx, b"hello bgp");
        assert_eq!(a.unacked(), 0, "cumulative ack cleared inflight");
    }

    #[test]
    fn data_queued_during_handshake_flows_after() {
        let (mut a, mut b) = pair();
        let syn = a.connect(0);
        let out = a.send(b"early", 0);
        assert!(out.segments.is_empty(), "nothing flows before establishment");
        // The flush happens inside on_segment when the SYN-ACK lands.
        let (_, b_rx) = pump(&mut a, &mut b, syn, 0);
        assert_eq!(b_rx, b"early");
    }

    #[test]
    fn each_data_segment_triggers_a_pure_ack() {
        let (mut a, mut b) = pair();
        let syn = a.connect(0);
        pump(&mut a, &mut b, syn, 0);
        let out = a.send(&[0u8; 19], 10); // one keepalive-sized message
        assert_eq!(out.segments.len(), 1);
        let reply = b.on_segment(&out.segments[0], 11);
        let acks: Vec<&TcpSegment> = reply
            .segments
            .iter()
            .filter(|s| s.payload.is_empty() && s.flags.contains(TcpFlags::ACK))
            .collect();
        assert_eq!(acks.len(), 1, "the Fig. 9 pure-ACK frame");
    }

    #[test]
    fn lost_segment_is_retransmitted_and_recovered() {
        let (mut a, mut b) = pair();
        let syn = a.connect(0);
        pump(&mut a, &mut b, syn, 0);
        let lost = a.send(b"update-1", 10);
        assert_eq!(lost.segments.len(), 1);
        drop(lost); // segment vanishes on the dead link
        assert!(a.tick(10 + RTO - 1).segments.is_empty(), "not before RTO");
        let retx = a.tick(10 + RTO);
        assert_eq!(retx.segments.len(), 1);
        let out = b.on_segment(&retx.segments[0], 10 + RTO);
        assert_eq!(out.delivered, b"update-1");
    }

    #[test]
    fn duplicate_data_is_delivered_once() {
        let (mut a, mut b) = pair();
        let syn = a.connect(0);
        pump(&mut a, &mut b, syn, 0);
        let out = a.send(b"x", 10);
        let seg = out.segments[0].clone();
        let d1 = b.on_segment(&seg, 11);
        let d2 = b.on_segment(&seg, 12);
        assert_eq!(d1.delivered, b"x");
        assert!(d2.delivered.is_empty(), "duplicate suppressed");
        assert!(!d2.segments.is_empty(), "but still acked");
    }

    #[test]
    fn retx_exhaustion_closes() {
        let mut a = TcpConn::new(1, 2, 0);
        let _ = a.connect(0);
        let mut now = 0;
        let mut closed = false;
        for _ in 0..(MAX_RETX + 2) {
            now += RTO;
            let out = a.tick(now);
            if out.events.contains(&TcpEvent::Closed) {
                closed = true;
                break;
            }
        }
        assert!(closed);
        assert_eq!(a.state(), TcpState::Closed);
    }

    #[test]
    fn rst_tears_down_and_is_reported() {
        let (mut a, mut b) = pair();
        let syn = a.connect(0);
        pump(&mut a, &mut b, syn, 0);
        let rst = a.reset(20);
        assert_eq!(rst.segments.len(), 1);
        let out = b.on_segment(&rst.segments[0], 21);
        assert_eq!(out.events, vec![TcpEvent::Closed]);
        assert_eq!(b.state(), TcpState::Closed);
    }

    #[test]
    fn segment_to_closed_port_gets_rst() {
        let mut closed = TcpConn::new(179, 40000, 0);
        let seg = TcpSegment {
            src_port: 40000,
            dst_port: 179,
            seq: 9,
            ack: 0,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 0,
            ts_val: 0,
            ts_ecr: 0,
            payload: FrameBuf::from(vec![1]),
        };
        let out = closed.on_segment(&seg, 0);
        assert!(out.segments[0].flags.contains(TcpFlags::RST));
    }

    #[test]
    fn large_write_is_segmented_at_mss() {
        let (mut a, mut b) = pair();
        let syn = a.connect(0);
        pump(&mut a, &mut b, syn, 0);
        let big = vec![7u8; MSS * 2 + 100];
        let out = a.send(&big, 10);
        assert_eq!(out.segments.len(), 3);
        let (_, b_rx) = pump(&mut a, &mut b, out, 10);
        assert_eq!(b_rx, big);
    }
}
