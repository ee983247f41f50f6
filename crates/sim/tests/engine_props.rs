//! Property tests on the emulator engine: causality (no frame arrives
//! before it was sent), per-link FIFO ordering, and trace timestamps
//! matching dispatch order — the invariants every protocol result rests
//! on.

use std::any::Any;

use proptest::prelude::*;

use dcn_sim::link::LinkSpec;
use dcn_sim::{
    Ctx, FrameBuf, FrameClass, Impairment, NodeId, PortId, Protocol, RouteChangeKind, SimBuilder,
    SpanEvent, TraceEvent,
};

/// Sends a scripted sequence of (delay, payload-len) frames on port 0 and
/// records arrivals.
struct Scripted {
    script: Vec<(u64, usize)>,
    next: usize,
    received: Vec<(u64, Vec<u8>)>,
}

impl Protocol for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if !self.script.is_empty() {
            ctx.set_timer(self.script[0].0, 0);
        }
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, _port: PortId, frame: &FrameBuf) {
        self.received.push((ctx.now(), frame.to_vec()));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if self.next >= self.script.len() {
            return;
        }
        let (_, len) = self.script[self.next];
        // Sequence number in the first byte for FIFO checking.
        let mut frame = vec![self.next as u8; len.max(1)];
        frame[0] = self.next as u8;
        ctx.send(PortId(0), frame, FrameClass::Data);
        self.next += 1;
        if self.next < self.script.len() {
            ctx.set_timer(self.script[self.next].0, 0);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_arrive_in_fifo_order_after_min_latency(
        script in proptest::collection::vec((1u64..50_000, 1usize..200), 1..20),
        propagation in 0u64..10_000,
        bandwidth in 1_000_000u64..10_000_000_000,
    ) {
        let mut b = SimBuilder::new(1);
        let sender = Scripted { script: script.clone(), next: 0, received: Vec::new() };
        let a = b.add_node("a", Box::new(sender));
        let c = b.add_node("b", Box::new(Scripted { script: vec![], next: 0, received: Vec::new() }));
        b.add_link(a, c, LinkSpec { propagation, bandwidth_bps: bandwidth });
        let mut sim = b.build();
        sim.run_until(60_000 * 30 + 1_000_000_000);
        let rx = &sim.node_as::<Scripted>(c).unwrap().received;
        prop_assert_eq!(rx.len(), script.len(), "every frame delivered");
        // FIFO: sequence bytes strictly increasing.
        for w in rx.windows(2) {
            prop_assert!(w[0].1[0] < w[1].1[0], "FIFO violated");
            prop_assert!(w[0].0 <= w[1].0, "arrival times non-decreasing");
        }
        // Causality: arrival ≥ send time + propagation.
        let sends: Vec<u64> = sim
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::FrameSent { time, node, .. } if *node == NodeId(0) => Some(*time),
                _ => None,
            })
            .collect();
        prop_assert_eq!(sends.len(), rx.len());
        for (sent, (arrived, _)) in sends.iter().zip(rx) {
            prop_assert!(*arrived >= sent + propagation, "faster than light");
        }
    }

    #[test]
    fn trace_times_are_monotone(script in proptest::collection::vec((1u64..10_000, 1usize..64), 1..16)) {
        let mut b = SimBuilder::new(9);
        let a = b.add_node("a", Box::new(Scripted { script, next: 0, received: Vec::new() }));
        let c = b.add_node("b", Box::new(Scripted { script: vec![], next: 0, received: Vec::new() }));
        b.add_link(a, c, LinkSpec::default());
        let mut sim = b.build();
        sim.run_until(1_000_000_000);
        let times: Vec<u64> = sim.trace().events().iter().map(|e| e.time()).collect();
        for w in times.windows(2) {
            prop_assert!(w[0] <= w[1], "trace must be time-ordered");
        }
    }
}

/// Token of the timer whose callback makes the scripted calls of
/// [`effects_of_one_callback_land_in_call_order`].
const BURST: u64 = 0;

/// Centre node of the call-order fixture: one `on_timer(BURST)` sends,
/// traces, arms timers and draws randomness in a fixed interleaving;
/// every other timer fire is only recorded.
struct Burst {
    /// Emit an unrelated span between each pair of scripted calls.
    extra_spans: bool,
    fired: Vec<(u64, u64)>,
}

impl Burst {
    fn filler(&self, ctx: &mut Ctx<'_>) {
        if self.extra_spans {
            ctx.trace_span(SpanEvent::HolddownArm);
        }
    }
}

impl Protocol for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(10_000, BURST);
    }
    fn on_frame(&mut self, _: &mut Ctx<'_>, _: PortId, _: &FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != BURST {
            self.fired.push((ctx.now(), token));
            return;
        }
        ctx.send(PortId(0), vec![0u8; 125], FrameClass::Data);
        self.filler(ctx);
        ctx.trace_span(SpanEvent::NeighborUp { port: PortId(0) });
        self.filler(ctx);
        ctx.set_timer(0, 7);
        self.filler(ctx);
        ctx.send(PortId(1), vec![9u8; 125], FrameClass::Data);
        self.filler(ctx);
        ctx.trace_route_change(RouteChangeKind::Install, 1);
        self.filler(ctx);
        ctx.set_timer(0, 8);
        self.filler(ctx);
        ctx.rand_below(1_000);
        self.filler(ctx);
        ctx.send(PortId(0), vec![1u8; 125], FrameClass::Data);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What one run of the call-order fixture observed.
struct BurstRun {
    /// The centre node's trace records at the burst instant, rendered.
    trace: Vec<String>,
    fired: Vec<(u64, u64)>,
    /// `(arrival time, first payload byte)` at the port-0 neighbour.
    p0_arrivals: Vec<(u64, u8)>,
}

fn burst_run(jitter: u64, extra_spans: bool) -> BurstRun {
    let sink = || Box::new(Scripted { script: vec![], next: 0, received: Vec::new() });
    let mut b = SimBuilder::new(33);
    let x = b.add_node("x", Box::new(Burst { extra_spans, fired: Vec::new() }));
    let n0 = b.add_node("n0", sink());
    let n1 = b.add_node("n1", sink());
    // 125 B at 1 Gb/s serialize in exactly 1 µs.
    let spec = LinkSpec { propagation: 1_000, bandwidth_bps: 1_000_000_000 };
    b.add_link(x, n0, spec);
    b.add_link(x, n1, spec);
    let mut sim = b.build();
    sim.set_impairment_all(Impairment { jitter, ..Impairment::none() });
    sim.run_until(1_000_000);
    let trace = sim
        .trace()
        .events()
        .iter()
        .filter(|e| e.node() == x && e.time() == 10_000)
        .map(|e| match e {
            TraceEvent::FrameSent { port, .. } => format!("FrameSent {port}"),
            TraceEvent::Span { span, .. } => format!("Span {}", span.kind()),
            TraceEvent::RouteChange { .. } => "RouteChange".to_string(),
            other => format!("{other:?}"),
        })
        .collect();
    let p0_arrivals =
        sim.node_as::<Scripted>(n0).unwrap().received.iter().map(|(t, f)| (*t, f[0])).collect();
    BurstRun { trace, fired: sim.node_as::<Burst>(x).unwrap().fired.clone(), p0_arrivals }
}

/// The effects of one callback — frames, trace records, timers — land in
/// the order the callback made the calls, and a link direction's
/// impairment stream is drawn in send order only. This is what lets the
/// engine act on each `Ctx` call at once instead of replaying a buffer.
#[test]
fn effects_of_one_callback_land_in_call_order() {
    let clean = burst_run(0, false);
    assert_eq!(
        clean.trace,
        ["FrameSent eth0", "Span neighbor_up", "FrameSent eth1", "RouteChange", "FrameSent eth0"]
    );
    assert_eq!(clean.fired, [(10_000, 7), (10_000, 8)], "same instant, arming order");
    // Sent at 10 µs: 1 µs on the wire + 1 µs propagation, the second
    // queued behind the first by one serialization time.
    assert_eq!(clean.p0_arrivals, [(12_000, 0), (13_000, 1)]);

    // Jitter draws from the (link, direction) stream: two frames on p0
    // take that stream's first two draws whatever else the callback does
    // in between (the p1 send draws from another stream, spans and the
    // node's own RNG from none).
    let jittered = burst_run(50_000, false);
    assert_ne!(jittered.p0_arrivals, clean.p0_arrivals, "jitter must be visible");
    let interleaved = burst_run(50_000, true);
    assert_eq!(interleaved.p0_arrivals, jittered.p0_arrivals);
    assert_eq!(interleaved.fired, jittered.fired);
    assert_eq!(interleaved.trace.iter().filter(|l| l.starts_with("FrameSent")).count(), 3);
    assert_eq!(interleaved.trace.len(), clean.trace.len() + 7);
}
