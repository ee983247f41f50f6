//! Property tests: the TCP substrate delivers application bytes in order
//! exactly once under arbitrary write patterns and loss/retransmission
//! schedules.

use proptest::prelude::*;

use std::collections::VecDeque;

use dcn_sim::grid::grid_at_or_after;
use dcn_tcp::{TcpConn, TcpState, MSS, RTO};
use dcn_wire::TcpSegment;

/// A lossy pump: forwards segments between `a` and `b`, dropping those
/// whose index matches the loss pattern, then drives retransmission ticks
/// until quiescent.
fn lossy_exchange(writes: &[Vec<u8>], drop_pattern: &[bool]) -> Vec<u8> {
    let mut a = TcpConn::new(40000, 179, 1);
    let mut b = TcpConn::new(179, 40000, 2);
    b.listen();
    let mut wire_ab: Vec<TcpSegment> = Vec::new();
    let mut wire_ba: Vec<TcpSegment> = Vec::new();
    let mut received = Vec::new();
    let mut now = 0u64;
    let mut drop_idx = 0;
    let mut writes_iter = writes.iter();
    wire_ab.extend(a.connect(now).segments);
    // Bounded event loop: alternate deliveries, ticks and writes.
    for _round in 0..400 {
        now += RTO / 2;
        // Feed one pending write once established.
        if a.is_established() {
            if let Some(w) = writes_iter.next() {
                wire_ab.extend(a.send(w, now).segments);
            }
        }
        // Deliver queued segments, dropping per the pattern.
        let ab: Vec<TcpSegment> = std::mem::take(&mut wire_ab);
        for seg in ab {
            let dropped = drop_pattern.get(drop_idx).copied().unwrap_or(false);
            drop_idx += 1;
            if dropped {
                continue;
            }
            let out = b.on_segment(&seg, now);
            received.extend(out.delivered);
            wire_ba.extend(out.segments);
        }
        let ba: Vec<TcpSegment> = std::mem::take(&mut wire_ba);
        for seg in ba {
            let dropped = drop_pattern.get(drop_idx).copied().unwrap_or(false);
            drop_idx += 1;
            if dropped {
                continue;
            }
            let out = a.on_segment(&seg, now);
            wire_ab.extend(out.segments);
        }
        // Retransmission.
        wire_ab.extend(a.tick(now).segments);
        wire_ba.extend(b.tick(now).segments);
        if a.is_established()
            && a.unacked() == 0
            && wire_ab.is_empty()
            && wire_ba.is_empty()
            && writes_iter.len() == 0
        {
            break;
        }
    }
    received
}

const MS: u64 = 1_000_000;

#[derive(Clone, Copy, Debug)]
enum ConnOp {
    /// Carry every queued segment across, both ways.
    Deliver,
    /// Lose every queued segment.
    Drop,
    Send(usize),
    Tick,
    Reset,
}

fn arb_conn_op() -> impl Strategy<Value = ConnOp> {
    prop_oneof![
        Just(ConnOp::Deliver),
        Just(ConnOp::Deliver),
        Just(ConnOp::Drop),
        (1usize..40).prop_map(ConnOp::Send),
        Just(ConnOp::Tick),
        Just(ConnOp::Reset),
    ]
}

/// Drive an active opener against a listener through `ops` (each after
/// its delay in ms); returns the opener and the instant of the last op.
/// `TcpConn` is not `Clone`, so callers replay to get a fresh copy.
fn replay(ops: &[(u64, ConnOp)]) -> (TcpConn, u64) {
    let mut a = TcpConn::new(40000, 179, 1);
    let mut b = TcpConn::new(179, 40000, 2);
    b.listen();
    let mut now = 0;
    let mut to_b = a.connect(now).segments;
    let mut to_a: Vec<TcpSegment> = Vec::new();
    for &(dt, op) in ops {
        now += dt * MS;
        match op {
            ConnOp::Deliver => {
                for seg in std::mem::take(&mut to_b) {
                    to_a.extend(b.on_segment(&seg, now).segments);
                }
                for seg in std::mem::take(&mut to_a) {
                    to_b.extend(a.on_segment(&seg, now).segments);
                }
            }
            ConnOp::Drop => {
                to_a.clear();
                to_b.clear();
            }
            ConnOp::Send(n) => to_b.extend(a.send(&vec![7; n], now).segments),
            ConnOp::Tick => {
                to_b.extend(a.tick(now).segments);
                to_a.extend(b.tick(now).segments);
            }
            ConnOp::Reset => to_b.extend(a.reset(now).segments),
        }
    }
    (a, now)
}

#[derive(Clone, Copy, Debug)]
enum StreamOp {
    /// Carry every queued segment across, both ways.
    Deliver,
    /// Lose every queued segment.
    Drop,
    Write(usize),
    Tick,
}

fn arb_stream_op() -> impl Strategy<Value = StreamOp> {
    prop_oneof![
        Just(StreamOp::Deliver),
        Just(StreamOp::Deliver),
        Just(StreamOp::Drop),
        Just(StreamOp::Tick),
        Just(StreamOp::Write(0)),
        (1usize..64).prop_map(StreamOp::Write),
        (MSS - 1..MSS + 2).prop_map(StreamOp::Write),
        (2 * MSS..2 * MSS + 200).prop_map(StreamOp::Write),
    ]
}

/// Segments on the wire toward the opener and toward the listener, the
/// opener's inflight bytes and retransmission deadline, bytes delivered.
type Observed = (Vec<Vec<u8>>, Vec<Vec<u8>>, usize, Option<u64>, usize);

/// An active opener and a listener, and what an application writes to
/// the opener: straight into [`TcpConn::send`], or — `byte_queue` — into
/// the send queue `TcpConn` used to have, reproduced here outside it: a
/// `VecDeque<u8>` that holds every write and, once the connection is
/// established, is drained [`MSS`] bytes at a time, each cut handed to
/// `send` on its own (at most one segment, never held).
struct World {
    a: TcpConn,
    b: TcpConn,
    byte_queue: Option<VecDeque<u8>>,
    to_a: Vec<TcpSegment>,
    to_b: Vec<TcpSegment>,
    received: Vec<u8>,
    written: u8,
}

impl World {
    fn new(byte_queue: bool) -> World {
        let mut a = TcpConn::new(40000, 179, 1);
        let mut b = TcpConn::new(179, 40000, 2);
        b.listen();
        let to_b = a.connect(0).segments.into_iter().collect();
        let byte_queue = byte_queue.then(VecDeque::new);
        World { a, b, byte_queue, to_a: Vec::new(), to_b, received: Vec::new(), written: 0 }
    }

    /// Apply `op` at `now`; returns everything observable after it: the
    /// segments on the wire in each direction (encoded, so seq, ack,
    /// flags, timestamps, payload bytes and boundaries all count), the
    /// opener's inflight bytes and retransmission deadline, and how much
    /// the listener has been handed.
    fn step(&mut self, op: StreamOp, now: u64) -> Observed {
        match op {
            StreamOp::Deliver => {
                for seg in std::mem::take(&mut self.to_b) {
                    let out = self.b.on_segment(&seg, now);
                    self.received.extend(out.delivered);
                    self.to_a.extend(out.segments);
                }
                for seg in std::mem::take(&mut self.to_a) {
                    self.to_b.extend(self.a.on_segment(&seg, now).segments);
                    self.drain_byte_queue(now);
                }
            }
            StreamOp::Drop => {
                self.to_a.clear();
                self.to_b.clear();
            }
            StreamOp::Write(n) => {
                let data: Vec<u8> = (0..n).map(|i| self.written.wrapping_add(i as u8)).collect();
                self.written = self.written.wrapping_add(97);
                match &mut self.byte_queue {
                    Some(q) => q.extend(data),
                    None => self.to_b.extend(self.a.send(&data, now).segments),
                }
                self.drain_byte_queue(now);
            }
            StreamOp::Tick => {
                self.to_b.extend(self.a.tick(now).segments);
                self.to_a.extend(self.b.tick(now).segments);
            }
        }
        let wire = |segs: &[TcpSegment]| segs.iter().map(TcpSegment::encode).collect();
        (wire(&self.to_a), wire(&self.to_b), self.a.unacked(), self.a.next_deadline(), self.received.len())
    }

    fn drain_byte_queue(&mut self, now: u64) {
        let Some(q) = &mut self.byte_queue else { return };
        while self.a.is_established() && !q.is_empty() {
            let take = q.len().min(MSS);
            let cut: Vec<u8> = q.drain(..take).collect();
            self.to_b.extend(self.a.send(&cut, now).segments);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `send` without a byte queue cuts the stream exactly where the byte
    /// queue did: writes before `Established` coalesce and leave `MSS` at
    /// a time when the handshake completes, a write to an established
    /// connection leaves at once (cut only past `MSS`), a zero-length
    /// write is nothing — and inflight accounting, retransmissions and
    /// the delivered stream follow, under loss.
    #[test]
    fn send_cuts_segments_where_the_byte_queue_did(
        ops in proptest::collection::vec((0u64..150, arb_stream_op()), 0..32),
    ) {
        let (mut direct, mut queued) = (World::new(false), World::new(true));
        let mut now = 0;
        for &(dt, op) in &ops {
            now += dt * MS;
            prop_assert_eq!(direct.step(op, now), queued.step(op, now), "at {:?}", op);
        }
        prop_assert_eq!(direct.received, queued.received);
    }

    #[test]
    fn stream_is_in_order_exactly_once_despite_loss(
        writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..6),
        drops in proptest::collection::vec(any::<bool>(), 0..12),
    ) {
        // Cap the loss density: with every frame dropped nothing can flow.
        let lossy: Vec<bool> = drops.iter().enumerate()
            .map(|(i, &d)| d && i % 3 != 0)
            .collect();
        let expect: Vec<u8> = writes.iter().flatten().copied().collect();
        let got = lossy_exchange(&writes, &lossy);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn connect_is_idempotent_on_state(isn in any::<u32>()) {
        let mut c = TcpConn::new(1, 2, isn);
        let o1 = c.connect(0);
        prop_assert_eq!(o1.segments.len(), 1);
        prop_assert_eq!(c.state(), TcpState::SynSent);
        // Re-connect resets cleanly.
        let o2 = c.connect(10);
        prop_assert_eq!(o2.segments.len(), 1);
        prop_assert_eq!(c.state(), TcpState::SynSent);
    }

    /// `next_deadline` names exactly the first grid instant at which a
    /// polled `tick` acts: every tick on an earlier grid instant is a
    /// no-op (so skipping it is invisible), the one there is not.
    #[test]
    fn retx_deadline_is_where_polling_first_acts(
        ops in proptest::collection::vec((0u64..150, arb_conn_op()), 0..24),
        phase_ms in 0u64..20,
    ) {
        const PERIOD: u64 = 20 * MS;
        let phase = phase_ms * MS;
        let (conn, now) = replay(&ops);
        let wake = conn.next_deadline().map(|d| grid_at_or_after(phase, PERIOD, d.max(now)));
        let idle = format!("{conn:?}");
        for g in (0..20).map(|k| grid_at_or_after(phase, PERIOD, now) + k * PERIOD) {
            let (mut polled, _) = replay(&ops);
            let out = polled.tick(g);
            let acted = !out.segments.is_empty()
                || !out.events.is_empty()
                || format!("{polled:?}") != idle;
            if wake.is_some_and(|w| g >= w) {
                prop_assert!(acted && wake == Some(g), "first act at {} but wake-up at {:?}", g, wake);
                break;
            }
            prop_assert!(!acted, "acted at {} before {:?}", g, wake);
        }
    }
}
