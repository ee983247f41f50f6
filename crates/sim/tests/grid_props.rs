//! Differential property test for [`GridTimer`]: an owner whose tick is
//! woken by deadline acts at exactly the instants at which the same
//! owner, polled on every grid instant with `set_periodic`, acts.
//!
//! The polling owner below is the oracle; it exists only in this test.
//! Deadlines are created and cancelled by a random script, and a
//! "blocked" flag flips without the owner being told — the stand-in for
//! `ctx.port(p).up`, which changes 500 µs before the carrier callback —
//! so the stays-due rule is exercised too.

use std::any::Any;

use proptest::prelude::*;

use dcn_sim::{Ctx, FrameBuf, GridTimer, PortId, Protocol, SimBuilder};

const TICK: u64 = 1;
/// Script entry `i` fires as token `SCRIPT + i`.
const SCRIPT: u64 = 100;
const PERIOD: u64 = 5_000;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// A new deadline this far from the instant the op runs at.
    Add(u64),
    /// Cancel the pending deadline at this index (modulo the count).
    Cancel(usize),
    /// Due deadlines can no longer be served; the owner is not told.
    Block,
    /// They can again; the owner is not told either.
    Unblock,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..60_000).prop_map(Op::Add),
        (0u64..60_000).prop_map(Op::Add),
        (0usize..8).prop_map(Op::Cancel),
        Just(Op::Block),
        Just(Op::Unblock),
    ]
}

struct Owner {
    /// `None`: the polling oracle.
    grid: Option<GridTimer>,
    first: u64,
    script: Vec<(u64, Op)>,
    /// Pending deadlines, ascending.
    deadlines: Vec<u64>,
    blocked: bool,
    /// `(instant, deadline)` for every deadline the tick served.
    served: Vec<(u64, u64)>,
    /// Tick-token timer events dispatched to this owner.
    tick_events: u64,
}

impl Owner {
    fn new(deadline_driven: bool, first: u64, script: &[(u64, Op)]) -> Owner {
        Owner {
            grid: deadline_driven.then(|| GridTimer::new(TICK, PERIOD)),
            first,
            script: script.to_vec(),
            deadlines: Vec::new(),
            blocked: false,
            served: Vec::new(),
            tick_events: 0,
        }
    }

    fn tick(&mut self, now: u64) {
        if self.blocked {
            return; // due deadlines stay due
        }
        let due = self.deadlines.partition_point(|&d| d <= now);
        self.served
            .extend(self.deadlines.drain(..due).map(|d| (now, d)));
    }

    fn rearm(&mut self, ctx: &mut Ctx<'_>) {
        if let (Some(grid), Some(&deadline)) = (self.grid.as_mut(), self.deadlines.first()) {
            grid.wake_by(ctx, deadline);
        }
    }
}

impl Protocol for Owner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, &(at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(at, SCRIPT + i as u64);
        }
        match self.grid.as_mut() {
            Some(grid) => grid.start(ctx, self.first),
            None => ctx.set_periodic(self.first, PERIOD, TICK),
        }
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: &FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TICK {
            self.tick_events += 1;
            if self.grid.as_mut().is_some_and(|g| !g.fired(ctx)) {
                return;
            }
            self.tick(ctx.now());
        } else {
            match self.script[(token - SCRIPT) as usize].1 {
                Op::Add(offset) => {
                    let d = ctx.now() + offset;
                    let at = self.deadlines.partition_point(|&x| x <= d);
                    self.deadlines.insert(at, d);
                }
                Op::Cancel(i) if !self.deadlines.is_empty() => {
                    let i = i % self.deadlines.len();
                    self.deadlines.remove(i);
                }
                Op::Cancel(_) => {}
                // The side channel: no re-arm, the owner does not know.
                Op::Block => return self.blocked = true,
                Op::Unblock => return self.blocked = false,
            }
        }
        self.rearm(ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn run(deadline_driven: bool, first: u64, script: &[(u64, Op)]) -> (Vec<(u64, u64)>, u64) {
    let mut b = SimBuilder::new(7);
    let n = b.add_node(
        "owner",
        Box::new(Owner::new(deadline_driven, first, script)),
    );
    let mut sim = b.build();
    sim.run_until(400_000);
    let o = sim.node_as::<Owner>(n).unwrap();
    (o.served.clone(), o.tick_events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn deadline_driven_ticks_act_when_polling_would(
        jitter in 0u64..100,
        ops in proptest::collection::vec((0u64..20_000, arb_op()), 0..40),
    ) {
        // Grid instants are multiples of 10, script instants end in 3:
        // the two never share a nanosecond, so no result hangs on how
        // the engine orders same-instant timers.
        let first = PERIOD + jitter * 10;
        let script: Vec<(u64, Op)> = ops.iter().map(|&(at, op)| (at * 10 + 3, op)).collect();
        let (polled, polled_ticks) = run(false, first, &script);
        let (woken, woken_ticks) = run(true, first, &script);
        prop_assert_eq!(&woken, &polled);
        prop_assert!(
            woken_ticks <= polled_ticks,
            "deadline-driven paid {} tick events, polling {}", woken_ticks, polled_ticks
        );
    }
}
