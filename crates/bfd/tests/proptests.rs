//! Property test: a BFD session's `next_deadline` is exactly where a
//! session polled on a tick grid first does something.

use proptest::prelude::*;

use dcn_bfd::BfdSession;
use dcn_sim::grid::grid_at_or_after;
use dcn_wire::{BfdPacket, BfdState};

const MS: u64 = 1_000_000;

#[derive(Clone, Copy, Debug)]
enum Op {
    Tick,
    /// A control packet from a peer in this state arrives.
    Rx(BfdState),
    ForceDown,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Tick),
        Just(Op::Tick),
        proptest::sample::select(vec![
            BfdState::Down,
            BfdState::Init,
            BfdState::Up,
            BfdState::AdminDown,
        ])
        .prop_map(Op::Rx),
        Just(Op::ForceDown),
    ]
}

fn from_peer(state: BfdState) -> BfdPacket {
    BfdPacket {
        state,
        poll: false,
        final_: false,
        detect_mult: 3,
        my_discriminator: 2,
        your_discriminator: 1,
        desired_min_tx_us: 100_000,
        required_min_rx_us: 100_000,
    }
}

proptest! {
    /// Every tick on a grid instant before the one `next_deadline` falls
    /// on is a no-op (so skipping it is invisible); the one there sends
    /// a packet or reports an event.
    #[test]
    fn deadline_is_where_polling_first_acts(
        ops in proptest::collection::vec((0u64..250, arb_op()), 0..24),
        phase_ms in 0u64..20,
    ) {
        const PERIOD: u64 = 20 * MS;
        let phase = phase_ms * MS;
        let mut s = BfdSession::new(1);
        let mut now = 0;
        for (dt, op) in ops {
            now += dt * MS;
            match op {
                Op::Tick => { s.tick(now); }
                Op::Rx(state) => { s.on_packet(&from_peer(state), now); }
                Op::ForceDown => { s.force_down(); }
            }
        }
        let wake = grid_at_or_after(phase, PERIOD, s.next_deadline().max(now));
        let idle = format!("{s:?}");
        for g in (0..40).map(|k| grid_at_or_after(phase, PERIOD, now) + k * PERIOD) {
            let mut polled = s.clone();
            let (pkt, event) = polled.tick(g);
            let acted = pkt.is_some() || event.is_some();
            if g >= wake {
                prop_assert!(acted && g == wake, "first act at {} but wake-up at {}", g, wake);
                break;
            }
            prop_assert!(!acted && format!("{polled:?}") == idle, "acted at {} before {}", g, wake);
        }
    }
}
