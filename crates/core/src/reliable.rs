//! Built-in reliability for MR-MTP control messages.
//!
//! The paper: "MR-MTP guarantees reliability through request-response and
//! accept-acknowledge messages between peers connected on a link" — the
//! function TCP provides for BGP. Offers and loss/recovery updates carry a
//! sequence number and are retransmitted until the peer acknowledges.

use std::collections::BTreeMap;

use dcn_sim::time::{Duration, Time};
use dcn_sim::{FrameBuf, FrameClass, PortId};

/// One unacknowledged message.
#[derive(Clone, Debug)]
struct Pending {
    frame: FrameBuf,
    class: FrameClass,
    next_retx: Time,
    attempts: u32,
}

/// Retransmission queue for one router (all ports).
#[derive(Clone, Debug, Default)]
pub struct ReliableTx {
    /// Keyed by (port, seq).
    pending: BTreeMap<(PortId, u16), Pending>,
    next_seq: u16,
}

/// Give up after this many transmissions: the neighbor-liveness machinery
/// (not the reliability layer) is responsible for declaring peers dead.
pub const MAX_ATTEMPTS: u32 = 8;

impl ReliableTx {
    pub fn new() -> ReliableTx {
        ReliableTx::default()
    }

    /// Allocate the next sequence number.
    pub fn alloc_seq(&mut self) -> u16 {
        self.next_seq = self.next_seq.wrapping_add(1);
        self.next_seq
    }

    /// Track an already-sent frame for retransmission.
    pub fn track(
        &mut self,
        port: PortId,
        seq: u16,
        frame: FrameBuf,
        class: FrameClass,
        now: Time,
        retx: Duration,
    ) {
        self.pending.insert(
            (port, seq),
            Pending { frame, class, next_retx: now + retx, attempts: 1 },
        );
    }

    /// Acknowledge (port, seq); returns `true` if it was outstanding.
    pub fn ack(&mut self, port: PortId, seq: u16) -> bool {
        self.pending.remove(&(port, seq)).is_some()
    }

    /// Drop all pending messages for a port (neighbor declared dead).
    pub fn drop_port(&mut self, port: PortId) {
        self.pending.retain(|(p, _), _| *p != port);
    }

    /// Collect frames due for retransmission at `now`; reschedules them.
    /// Messages exceeding [`MAX_ATTEMPTS`] are dropped.
    pub fn due(&mut self, now: Time, retx: Duration) -> Vec<(PortId, FrameBuf, FrameClass)> {
        let mut out = Vec::new();
        let mut give_up = Vec::new();
        for (&(port, seq), p) in self.pending.iter_mut() {
            if p.next_retx <= now {
                if p.attempts >= MAX_ATTEMPTS {
                    give_up.push((port, seq));
                } else {
                    p.attempts += 1;
                    p.next_retx = now + retx;
                    // Refcount bump: the retransmitted frame shares the
                    // original allocation.
                    out.push((port, p.frame.clone(), p.class));
                }
            }
        }
        for key in give_up {
            self.pending.remove(&key);
        }
        out
    }

    /// The earliest instant at which [`ReliableTx::due`] would retransmit
    /// (or give up on) a message, or `None` with nothing outstanding.
    pub fn next_deadline(&self) -> Option<Time> {
        self.pending.values().map(|p| p.next_retx).min()
    }

    /// Is anything outstanding (drives whether the retransmit timer needs
    /// to stay armed)?
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RETX: Duration = 20;

    #[test]
    fn ack_clears_pending() {
        let mut r = ReliableTx::new();
        let s = r.alloc_seq();
        r.track(PortId(0), s, vec![1].into(), FrameClass::Update, 0, RETX);
        assert!(r.has_pending());
        assert!(r.ack(PortId(0), s));
        assert!(!r.ack(PortId(0), s), "double ack is a no-op");
        assert!(!r.has_pending());
    }

    #[test]
    fn retransmits_until_acked() {
        let mut r = ReliableTx::new();
        let s = r.alloc_seq();
        r.track(PortId(2), s, vec![7].into(), FrameClass::Update, 0, RETX);
        assert!(r.due(10, RETX).is_empty(), "not due yet");
        let due = r.due(20, RETX);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, PortId(2));
        assert!(r.due(25, RETX).is_empty(), "rescheduled");
        assert_eq!(r.due(40, RETX).len(), 1);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let mut r = ReliableTx::new();
        let s = r.alloc_seq();
        r.track(PortId(0), s, vec![1].into(), FrameClass::Update, 0, RETX);
        let mut t = 0;
        let mut sends = 1; // initial transmission
        loop {
            t += RETX;
            let due = r.due(t, RETX);
            if due.is_empty() && !r.has_pending() {
                break;
            }
            sends += due.len() as u32;
            assert!(t < 1000, "must terminate");
        }
        assert_eq!(sends, MAX_ATTEMPTS);
    }

    #[test]
    fn drop_port_clears_only_that_port() {
        let mut r = ReliableTx::new();
        let s1 = r.alloc_seq();
        let s2 = r.alloc_seq();
        assert_ne!(s1, s2);
        r.track(PortId(0), s1, vec![1].into(), FrameClass::Update, 0, RETX);
        r.track(PortId(1), s2, vec![2].into(), FrameClass::Session, 0, RETX);
        r.drop_port(PortId(0));
        assert_eq!(r.pending_count(), 1);
        assert!(r.ack(PortId(1), s2));
    }

    #[test]
    fn seq_wraps_without_panicking() {
        let mut r = ReliableTx::new();
        r.next_seq = u16::MAX;
        assert_eq!(r.alloc_seq(), 0);
        assert_eq!(r.alloc_seq(), 1);
    }
}
