//! # dcn-bfd — Bidirectional Forwarding Detection (RFC 5880, async mode)
//!
//! The failure-detection substrate the paper enables alongside BGP. A BFD
//! session per link exchanges 24-byte control packets over UDP/3784
//! (66-byte frames at layer 2, as in the paper's Fig. 9 capture) at the
//! paper's 100 ms transmit interval; with the default detect multiplier of
//! 3, a neighbor is declared down after 300 ms of silence — an order of
//! magnitude faster than BGP's hold timer, at the cost of carrying two
//! extra protocols (BFD and UDP) on every router.
//!
//! The session object is transport-free (mirroring `dcn-tcp`'s connection): the
//! owner wraps packets in UDP/IP/Ethernet and feeds received packets back.

#![forbid(unsafe_code)]

use dcn_sim::time::{millis, Duration, Time};
use dcn_wire::{BfdPacket, BfdState};

/// Paper §VI-F: "the transmission (hello) interval could be reduced to
/// 100 ms".
pub const DEFAULT_TX_INTERVAL: Duration = millis(100);

/// Paper §VI-F: "the default detect multiplier of 3".
pub const DEFAULT_DETECT_MULT: u8 = 3;

/// Events surfaced to the owner (the BGP router).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BfdEvent {
    /// The session reached Up: forwarding to the neighbor is verified.
    SessionUp,
    /// Detection time expired (or the peer signaled down): the neighbor
    /// is unreachable. BGP treats this like a hold-timer expiry.
    SessionDown,
}

/// One BFD session endpoint.
#[derive(Clone, Debug)]
pub struct BfdSession {
    state: BfdState,
    my_disc: u32,
    your_disc: u32,
    tx_interval: Duration,
    detect_mult: u8,
    last_tx: Option<Time>,
    last_rx: Time,
    /// Set once we have ever heard the peer (arms the detection timer).
    heard: bool,
    /// Cumulative FSM state changes (telemetry: session flap counting).
    transitions: u64,
}

impl BfdSession {
    pub fn new(my_disc: u32) -> BfdSession {
        BfdSession {
            state: BfdState::Down,
            my_disc,
            your_disc: 0,
            tx_interval: DEFAULT_TX_INTERVAL,
            detect_mult: DEFAULT_DETECT_MULT,
            last_tx: None,
            last_rx: 0,
            heard: false,
            transitions: 0,
        }
    }

    /// Override the transmit interval (the paper explored the floor of
    /// what the testbed VMs could sustain).
    pub fn with_tx_interval(mut self, interval: Duration) -> BfdSession {
        self.tx_interval = interval;
        self
    }

    pub fn state(&self) -> BfdState {
        self.state
    }

    pub fn is_up(&self) -> bool {
        self.state == BfdState::Up
    }

    /// Cumulative count of FSM state changes this session has undergone
    /// (telemetry gauge: a flapping link shows a climbing count).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Detection time: multiplier × agreed interval.
    pub fn detection_time(&self) -> Duration {
        self.detect_mult as u64 * self.tx_interval
    }

    fn packet(&self) -> BfdPacket {
        BfdPacket {
            state: self.state,
            poll: false,
            final_: false,
            detect_mult: self.detect_mult,
            my_discriminator: self.my_disc,
            your_discriminator: self.your_disc,
            desired_min_tx_us: (self.tx_interval / 1_000) as u32,
            required_min_rx_us: (self.tx_interval / 1_000) as u32,
        }
    }

    /// Reset to Down (e.g. local carrier loss). Returns an event if the
    /// session was up.
    pub fn force_down(&mut self) -> Option<BfdEvent> {
        let was_up = self.is_up();
        if self.state != BfdState::Down {
            self.transitions += 1;
        }
        self.state = BfdState::Down;
        self.your_disc = 0;
        self.heard = false;
        was_up.then_some(BfdEvent::SessionDown)
    }

    /// The earliest instant at which [`BfdSession::tick`] would act: the
    /// next transmission (immediately, before the first one) or the
    /// detection-time expiry, whichever comes first.
    pub fn next_deadline(&self) -> Time {
        let tx = self.last_tx.map_or(0, |t| t + self.tx_interval);
        if self.heard && self.state != BfdState::Down {
            tx.min(self.last_rx + self.detection_time() + 1)
        } else {
            tx
        }
    }

    /// Drive the session: emits the control packet due at `now` (if any)
    /// and checks the detection timer. Calls before
    /// [`BfdSession::next_deadline`] are no-ops.
    pub fn tick(&mut self, now: Time) -> (Option<BfdPacket>, Option<BfdEvent>) {
        let mut event = None;
        // Detection: silence beyond detectMult × interval kills the
        // session (only once we've heard the peer at all).
        if self.heard
            && self.state != BfdState::Down
            && now.saturating_sub(self.last_rx) > self.detection_time()
        {
            self.state = BfdState::Down;
            self.your_disc = 0;
            self.heard = false;
            self.transitions += 1;
            event = Some(BfdEvent::SessionDown);
        }
        let due = self.last_tx.is_none_or(|t| now.saturating_sub(t) >= self.tx_interval);
        let pkt = due.then(|| {
            self.last_tx = Some(now);
            self.packet()
        });
        (pkt, event)
    }

    /// Process a received control packet; may emit an immediate response
    /// (to accelerate the three-way state handshake) and an event.
    pub fn on_packet(
        &mut self,
        pkt: &BfdPacket,
        now: Time,
    ) -> (Option<BfdPacket>, Option<BfdEvent>) {
        self.last_rx = now;
        self.heard = true;
        self.your_disc = pkt.my_discriminator;
        let old = self.state;
        let peer = pkt.state;
        // RFC 5880 §6.2 state machine (async, no auth, no poll sequence).
        self.state = match (self.state, peer) {
            (BfdState::Down, BfdState::Down) => BfdState::Init,
            (BfdState::Down, BfdState::Init) => BfdState::Up,
            (BfdState::Init, BfdState::Init) | (BfdState::Init, BfdState::Up) => BfdState::Up,
            (BfdState::Up, BfdState::Down) => BfdState::Down,
            (BfdState::Up, BfdState::AdminDown) => BfdState::Down,
            (s, _) => s,
        };
        if old != self.state {
            self.transitions += 1;
        }
        let event = match (old, self.state) {
            (BfdState::Up, BfdState::Down) => Some(BfdEvent::SessionDown),
            (o, BfdState::Up) if o != BfdState::Up => Some(BfdEvent::SessionUp),
            _ => None,
        };
        // Respond immediately on state progression so sessions come up in
        // ~1 RTT rather than 1 tx-interval per step.
        let reply = (old != self.state).then(|| {
            self.last_tx = Some(now);
            self.packet()
        });
        (reply, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive two sessions to Up by exchanging packets.
    fn bring_up(a: &mut BfdSession, b: &mut BfdSession, now: Time) {
        let (pa, _) = a.tick(now);
        let mut queue: Vec<(bool, BfdPacket)> = Vec::new(); // (to_b, pkt)
        if let Some(p) = pa {
            queue.push((true, p));
        }
        let (pb, _) = b.tick(now);
        if let Some(p) = pb {
            queue.push((false, p));
        }
        for _ in 0..10 {
            if queue.is_empty() {
                break;
            }
            let (to_b, pkt) = queue.remove(0);
            let (reply, _) = if to_b { b.on_packet(&pkt, now) } else { a.on_packet(&pkt, now) };
            if let Some(r) = reply {
                queue.push((!to_b, r));
            }
        }
    }

    #[test]
    fn three_way_handshake_reaches_up() {
        let mut a = BfdSession::new(1);
        let mut b = BfdSession::new(2);
        bring_up(&mut a, &mut b, 0);
        assert!(a.is_up(), "a: {:?}", a.state());
        assert!(b.is_up(), "b: {:?}", b.state());
        assert_eq!(a.your_disc, 2);
        assert_eq!(b.your_disc, 1);
    }

    #[test]
    fn detection_time_is_300ms_with_paper_settings() {
        let s = BfdSession::new(1);
        assert_eq!(s.detection_time(), millis(300));
    }

    #[test]
    fn silence_past_detection_time_downs_the_session() {
        let mut a = BfdSession::new(1);
        let mut b = BfdSession::new(2);
        bring_up(&mut a, &mut b, 0);
        // No packets from b; a's detection must fire strictly after 300 ms.
        let (_, ev) = a.tick(millis(300));
        assert_eq!(ev, None, "not yet");
        let (_, ev) = a.tick(millis(301));
        assert_eq!(ev, Some(BfdEvent::SessionDown));
        assert!(!a.is_up());
    }

    #[test]
    fn keepalives_flow_at_tx_interval() {
        let mut a = BfdSession::new(1);
        let (p0, _) = a.tick(0);
        assert!(p0.is_some());
        let (p1, _) = a.tick(millis(50));
        assert!(p1.is_none(), "only every 100 ms");
        let (p2, _) = a.tick(millis(100));
        assert!(p2.is_some());
        assert_eq!(p2.unwrap().desired_min_tx_us, 100_000);
    }

    #[test]
    fn peer_down_signal_downs_an_up_session() {
        let mut a = BfdSession::new(1);
        let mut b = BfdSession::new(2);
        bring_up(&mut a, &mut b, 0);
        let down = b.force_down();
        assert_eq!(down, Some(BfdEvent::SessionDown));
        let (pkt, _) = b.tick(millis(100));
        let (_, ev) = a.on_packet(&pkt.unwrap(), millis(100));
        assert_eq!(ev, Some(BfdEvent::SessionDown));
    }

    #[test]
    fn detection_never_fires_before_first_contact() {
        let mut a = BfdSession::new(1);
        let (_, ev) = a.tick(millis(10_000));
        assert_eq!(ev, None, "no peer yet, nothing to detect");
    }

    #[test]
    fn transitions_count_every_state_change() {
        let mut a = BfdSession::new(1);
        let mut b = BfdSession::new(2);
        assert_eq!(a.transitions(), 0);
        bring_up(&mut a, &mut b, 0);
        // Down → Init → Up.
        assert_eq!(a.transitions(), 2, "a: {:?}", a.state());
        a.force_down();
        assert_eq!(a.transitions(), 3);
        a.force_down();
        assert_eq!(a.transitions(), 3, "already down: no transition");
    }

    #[test]
    fn custom_interval_scales_detection() {
        let s = BfdSession::new(1).with_tx_interval(millis(50));
        assert_eq!(s.detection_time(), millis(150));
    }
}
