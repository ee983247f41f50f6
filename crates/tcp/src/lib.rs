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
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TcpEvent {
    /// Handshake completed; the stream is usable.
    Established,
    /// The connection died (reset received or retransmission exhausted).
    Closed,
}

/// Output of an operation: segments to put on the wire and in-order
/// application bytes delivered by the peer.
#[derive(Default, Debug)]
pub struct TcpOutput {
    pub segments: Vec<TcpSegment>,
    pub delivered: Vec<u8>,
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
    /// Application bytes queued but not yet segmented.
    tx_queue: VecDeque<u8>,
    /// Unacknowledged segments for retransmission: (seq, payload).
    inflight: VecDeque<(u32, FrameBuf)>,
    retx_deadline: Option<Time>,
    retx_count: u32,
    /// Initial sequence number (deterministic for reproducibility).
    isn: u32,
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
            tx_queue: VecDeque::new(),
            inflight: VecDeque::new(),
            retx_deadline: None,
            retx_count: 0,
            isn,
        }
    }

    pub fn state(&self) -> TcpState {
        self.state
    }

    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    fn seg(&self, now: Time, flags: TcpFlags, seq: u32, payload: impl Into<FrameBuf>) -> TcpSegment {
        TcpSegment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: 65535,
            ts_val: (now / millis(1)) as u32,
            ts_ecr: 0,
            payload: payload.into(),
        }
    }

    /// Active open: emit a SYN.
    pub fn connect(&mut self, now: Time) -> TcpOutput {
        let mut out = TcpOutput::default();
        self.reset_to(TcpState::SynSent);
        let syn = self.seg(now, TcpFlags::SYN, self.snd_nxt, FrameBuf::empty());
        self.inflight.push_back((self.snd_nxt, FrameBuf::empty()));
        self.snd_nxt = self.snd_nxt.wrapping_add(1); // SYN consumes a seq
        self.arm_retx(now);
        out.segments.push(syn);
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
        self.tx_queue.clear();
        self.inflight.clear();
        self.retx_deadline = None;
        self.retx_count = 0;
    }

    /// Hard-close locally and emit an RST for the peer.
    pub fn reset(&mut self, now: Time) -> TcpOutput {
        let mut out = TcpOutput::default();
        if self.state != TcpState::Closed {
            out.segments.push(self.seg(now, TcpFlags::RST, self.snd_nxt, Vec::new()));
            self.state = TcpState::Closed;
            self.retx_deadline = None;
            out.events.push(TcpEvent::Closed);
        }
        out
    }

    /// Queue application bytes and emit as many segments as possible.
    pub fn send(&mut self, data: &[u8], now: Time) -> TcpOutput {
        self.tx_queue.extend(data.iter().copied());
        self.flush(now)
    }

    fn flush(&mut self, now: Time) -> TcpOutput {
        let mut out = TcpOutput::default();
        if self.state != TcpState::Established {
            return out; // queued bytes flow once established
        }
        while !self.tx_queue.is_empty() {
            let take = self.tx_queue.len().min(MSS);
            let payload = FrameBuf::new(self.tx_queue.drain(..take).collect());
            let seq = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(payload.len() as u32);
            // The inflight entry and the emitted segment share bytes.
            self.inflight.push_back((seq, payload.clone()));
            out.segments
                .push(self.seg(now, TcpFlags::PSH | TcpFlags::ACK, seq, payload));
        }
        if !out.segments.is_empty() {
            self.arm_retx(now);
        }
        out
    }

    fn arm_retx(&mut self, now: Time) {
        if self.retx_deadline.is_none() {
            self.retx_deadline = Some(now + RTO);
        }
    }

    /// Process an incoming segment.
    pub fn on_segment(&mut self, seg: &TcpSegment, now: Time) -> TcpOutput {
        let mut out = TcpOutput::default();
        if seg.flags.contains(TcpFlags::RST) {
            if self.state != TcpState::Closed && self.state != TcpState::Listen {
                self.state = TcpState::Closed;
                self.retx_deadline = None;
                out.events.push(TcpEvent::Closed);
            }
            return out;
        }
        match self.state {
            TcpState::Closed => {
                // Refuse with RST.
                out.segments.push(self.seg(now, TcpFlags::RST, self.snd_nxt, Vec::new()));
            }
            TcpState::Listen => {
                if seg.flags.contains(TcpFlags::SYN) {
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.state = TcpState::SynReceived;
                    let synack =
                        self.seg(now, TcpFlags::SYN | TcpFlags::ACK, self.snd_nxt, FrameBuf::empty());
                    self.inflight.push_back((self.snd_nxt, FrameBuf::empty()));
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.arm_retx(now);
                    out.segments.push(synack);
                }
            }
            TcpState::SynSent => {
                if seg.flags.contains(TcpFlags::SYN) && seg.flags.contains(TcpFlags::ACK) {
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.accept_ack(seg.ack);
                    self.state = TcpState::Established;
                    out.events.push(TcpEvent::Established);
                    out.segments.push(self.seg(now, TcpFlags::ACK, self.snd_nxt, Vec::new()));
                    let mut flushed = self.flush(now);
                    out.segments.append(&mut flushed.segments);
                }
            }
            TcpState::SynReceived => {
                if seg.flags.contains(TcpFlags::ACK) {
                    self.accept_ack(seg.ack);
                    if self.snd_una == self.snd_nxt {
                        self.state = TcpState::Established;
                        out.events.push(TcpEvent::Established);
                        let mut flushed = self.flush(now);
                        out.segments.append(&mut flushed.segments);
                    }
                }
                self.ingest_data(seg, now, &mut out);
            }
            TcpState::Established => {
                if seg.flags.contains(TcpFlags::ACK) {
                    self.accept_ack(seg.ack);
                }
                self.ingest_data(seg, now, &mut out);
            }
        }
        out
    }

    fn ingest_data(&mut self, seg: &TcpSegment, now: Time, out: &mut TcpOutput) {
        if seg.payload.is_empty() {
            return;
        }
        if seg.seq == self.rcv_nxt {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
            out.delivered.extend_from_slice(&seg.payload);
        }
        // Duplicate or out-of-order data still triggers an ACK: the
        // cumulative ack tells the peer where we are.
        out.segments.push(self.seg(now, TcpFlags::ACK, self.snd_nxt, Vec::new()));
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
    pub fn tick(&mut self, now: Time) -> TcpOutput {
        let mut out = TcpOutput::default();
        let Some(deadline) = self.retx_deadline else {
            return out;
        };
        if now < deadline {
            return out;
        }
        self.retx_count += 1;
        if self.retx_count > MAX_RETX {
            self.state = TcpState::Closed;
            self.retx_deadline = None;
            out.events.push(TcpEvent::Closed);
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
            payload: vec![1].into(),
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
