//! Deadline-driven wake-ups that land on a fixed tick grid.
//!
//! Polled, a router's housekeeping (`tick`) costs one timer event at
//! every grid instant `phase + k * period`, and most of them find nothing
//! due. A [`GridTimer`] keeps the grid but arms a one-shot
//! [`Ctx::set_timer`] only for the first grid instant at or after the
//! owner's earliest pending deadline, so the tick runs at exactly the
//! instants at which a polled tick would act and at no others.
//!
//! Three rules make that exact (DESIGN.md §14):
//!
//! * **Grid rule** — a wake-up is always armed for a grid instant, never
//!   for the deadline itself: a polled tick only ever acts on the grid.
//! * **Pull earlier** — [`GridTimer::wake_by`] arms an extra one-shot
//!   when the requested grid instant precedes the armed one. The later
//!   timer stays queued (there is no cancellation).
//! * **Stale fire** — [`GridTimer::fired`] accepts a fire only at the
//!   armed instant. A superseded timer, or the second of two timers that
//!   landed on one instant, reports `false`; the owner must then return
//!   without ticking and without re-arming, so every accepted fire leaves
//!   at most one new timer behind and chains cannot multiply.
//!
//! The owner's part of the contract: after an accepted fire and after any
//! callback that may have created an earlier deadline, call `wake_by`
//! with the current earliest deadline. A deadline that is due but could
//! not be served (say, its port is down) must be reported as still due —
//! polling retries it at every grid instant.

use crate::node::Ctx;
use crate::time::{Duration, Time};

/// The first instant of the grid `phase + k * period` at or after `t`.
pub fn grid_at_or_after(phase: Time, period: Duration, t: Time) -> Time {
    phase + t.saturating_sub(phase).div_ceil(period) * period
}

/// One node's tick grid and its single logical wake-up.
#[derive(Debug)]
pub struct GridTimer {
    token: u64,
    period: Duration,
    /// The first grid instant.
    phase: Time,
    /// Earliest grid instant a queued one-shot is expected at.
    armed: Option<Time>,
    /// Grid instant of the latest accepted fire: the tick never runs
    /// twice at one instant.
    last_run: Option<Time>,
}

impl GridTimer {
    /// A grid of `period` whose fires arrive as `on_timer(token)`. The
    /// grid has no phase until [`GridTimer::start`].
    pub const fn new(token: u64, period: Duration) -> GridTimer {
        GridTimer {
            token,
            period,
            phase: 0,
            armed: None,
            last_run: None,
        }
    }

    /// Fix the grid: its first instant is `first` from now. Arms nothing.
    pub fn start(&mut self, ctx: &Ctx<'_>, first: Duration) {
        self.phase = ctx.now() + first;
    }

    /// Make sure a wake-up is queued for the first grid instant at or
    /// after `deadline` at which the tick has not run yet. Never moves an
    /// armed wake-up later: a deadline that moved away costs one tick
    /// that finds nothing due, exactly what polling pays at that instant.
    pub fn wake_by(&mut self, ctx: &mut Ctx<'_>, deadline: Time) {
        let now = ctx.now();
        let mut at = grid_at_or_after(self.phase, self.period, deadline.max(now));
        if self.last_run == Some(at) {
            at += self.period;
        }
        if self.armed.is_some_and(|armed| armed <= at) {
            return;
        }
        self.armed = Some(at);
        ctx.set_timer(at - now, self.token);
    }

    /// A timer with this grid's token fired: `true` if the tick is to run
    /// now, `false` for a stale fire.
    pub fn fired(&mut self, ctx: &Ctx<'_>) -> bool {
        if self.armed != Some(ctx.now()) {
            return false;
        }
        self.armed = None;
        self.last_run = Some(ctx.now());
        true
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use super::*;
    use crate::engine::SimBuilder;
    use crate::node::{PortId, Protocol};
    use crate::FrameBuf;

    const TICK: u64 = 1;
    const PERIODIC: u64 = 2;
    /// Script entry `i` fires as token `SCRIPT + i`.
    const SCRIPT: u64 = 100;
    const PERIOD: Duration = 5_000;
    /// Grid instants are `5_137 + k * 5_000`.
    const FIRST: Duration = PERIOD + 137;

    #[derive(Clone, Copy)]
    enum Op {
        Add(Time),
        Remove(Time),
    }

    /// An owner the way the routers are one: deadlines come and go in
    /// callbacks, the tick serves whatever is due.
    struct Owner {
        grid: GridTimer,
        deadlines: Vec<Time>,
        script: Vec<(Time, Op)>,
        with_periodic: bool,
        /// Instants at which the tick ran.
        ticks: Vec<Time>,
        /// Every grid-token fire, accepted or stale.
        fires: u32,
        periodic_fires: Vec<Time>,
    }

    impl Owner {
        fn new(deadlines: &[Time], script: &[(Time, Op)]) -> Owner {
            Owner {
                grid: GridTimer::new(TICK, PERIOD),
                deadlines: deadlines.to_vec(),
                script: script.to_vec(),
                with_periodic: false,
                ticks: Vec::new(),
                fires: 0,
                periodic_fires: Vec::new(),
            }
        }

        fn rearm(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(&deadline) = self.deadlines.iter().min() {
                self.grid.wake_by(ctx, deadline);
            }
        }
    }

    impl Protocol for Owner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.grid.start(ctx, FIRST);
            for (i, &(at, _)) in self.script.iter().enumerate() {
                ctx.set_timer(at, SCRIPT + i as u64);
            }
            if self.with_periodic {
                ctx.set_periodic(1_000, 1_000, PERIODIC);
            }
            self.rearm(ctx);
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: &FrameBuf) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            match token {
                TICK => {
                    self.fires += 1;
                    if !self.grid.fired(ctx) {
                        return;
                    }
                    self.ticks.push(ctx.now());
                    let now = ctx.now();
                    self.deadlines.retain(|&d| d > now);
                }
                PERIODIC => {
                    self.periodic_fires.push(ctx.now());
                    return;
                }
                _ => match self.script[(token - SCRIPT) as usize].1 {
                    Op::Add(d) => self.deadlines.push(d),
                    Op::Remove(d) => self.deadlines.retain(|&x| x != d),
                },
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

    fn run(owner: Owner, until: Time) -> (Vec<Time>, u32, Vec<Time>, u64) {
        let mut b = SimBuilder::new(1);
        let n = b.add_node("owner", Box::new(owner));
        let mut sim = b.build();
        sim.run_until(until);
        let o = sim.node_as::<Owner>(n).unwrap();
        (
            o.ticks.clone(),
            o.fires,
            o.periodic_fires.clone(),
            sim.events_processed(),
        )
    }

    #[test]
    fn wakeups_land_on_the_jittered_grid() {
        // Two deadlines inside one grid cell share a wake-up; the tick
        // never runs at a deadline itself, only on `5_137 + k * 5_000`.
        let (ticks, fires, _, events) =
            run(Owner::new(&[12_000, 12_100, 30_000, 30_137], &[]), 60_000);
        assert_eq!(ticks, vec![15_137, 30_137]);
        assert_eq!(fires, 2, "no wake-up without a deadline");
        assert_eq!(events, 3, "start + two ticks; polling would have paid 11");
    }

    #[test]
    fn a_deadline_in_the_past_waits_for_the_next_grid_instant() {
        let (ticks, ..) = run(Owner::new(&[], &[(7_000, Op::Add(3))]), 20_000);
        assert_eq!(ticks, vec![10_137]);
    }

    #[test]
    fn an_earlier_deadline_pulls_the_wakeup_earlier() {
        // Armed for 50_137; a deadline created at 7_000 needs 10_137.
        // The tick at 10_137 re-arms for the surviving deadline, so the
        // original one-shot and the new one both land on 50_137: the
        // first runs the tick, the second is stale.
        let (ticks, fires, ..) = run(Owner::new(&[50_000], &[(7_000, Op::Add(8_000))]), 80_000);
        assert_eq!(ticks, vec![10_137, 50_137], "one tick per instant");
        assert_eq!(fires, 3);
    }

    #[test]
    fn a_superseded_timer_fires_stale() {
        // 20_137 is armed, then pulled earlier to 10_137, then its
        // deadline moves away: the queued 20_137 one-shot finds the
        // wake-up armed elsewhere and must not tick or re-arm.
        let script = [
            (7_000, Op::Add(8_000)),
            (9_000, Op::Remove(20_000)),
            (9_001, Op::Add(40_000)),
        ];
        let (ticks, fires, ..) = run(Owner::new(&[20_000], &script), 80_000);
        assert_eq!(ticks, vec![10_137, 40_137]);
        assert_eq!(fires, 3, "the stale fire left no timer behind");
    }

    #[test]
    fn a_deadline_that_moved_later_costs_one_idle_tick() {
        let script = [(7_000, Op::Remove(20_000)), (7_001, Op::Add(40_000))];
        let (ticks, fires, ..) = run(Owner::new(&[20_000], &script), 80_000);
        assert_eq!(
            ticks,
            vec![20_137, 40_137],
            "armed wake-ups are never cancelled"
        );
        assert_eq!(fires, 2);
    }

    #[test]
    fn set_periodic_still_fires_at_every_period() {
        let mut owner = Owner::new(&[12_000], &[]);
        owner.with_periodic = true;
        let (ticks, _, periodic, _) = run(owner, 20_500);
        assert_eq!(ticks, vec![15_137]);
        assert_eq!(periodic, (1..=20).map(|k| k * 1_000).collect::<Vec<Time>>());
    }
}
