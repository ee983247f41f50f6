//! Metadata ≡ decode, the harness both router crates' tests share: a run
//! whose routers act on parse-once [`FrameMeta`] must be indistinguishable
//! from one whose routers see only bare frames, handed to `on_frame` as
//! the trait's default `on_frame_meta` does — equal trace digests, and an
//! equal hash of the bytes of every frame each node is handed (which
//! catches the right frame length with the wrong bytes). The fabric is
//! built by hand, as `meshed_tree.rs` does, from the caller's router
//! constructor; the first and last server of each ToR in the outermost
//! PoDs send a paced flow to their mirror in the other one. The same
//! runs show that local repair acts on metadata only: a frame handed
//! over bare is never repaired.

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;

use dcn_sim::link::LinkSpec;
use dcn_sim::time::{Duration, MICROS, MILLIS, SECONDS};
use dcn_sim::{
    Ctx, FrameBuf, FrameMeta, Hash64, Impairment, NodeId, PortId, Protocol, SimBuilder,
    StatsSnapshot, Time,
};
use dcn_topology::{Addressing, ClosParams, Fabric, FailureCase, Role};
use dcn_traffic::{SendSpec, TrafficHost};

/// Builds the router at a fabric node index.
pub type RouterFn<'a> = &'a dyn Fn(&Fabric, &Addressing, usize) -> Box<dyn Protocol>;

/// Wraps every node: folds `(port, bytes)` of each frame the node is
/// handed into `seen`, then hands the frame on with its metadata or,
/// with `strip`, bare to `on_frame`. Every other method delegates.
struct StripMeta {
    inner: Box<dyn Protocol>,
    seen: Rc<Cell<u64>>,
    strip: bool,
}

impl Protocol for StripMeta {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx)
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &FrameBuf) {
        self.inner.on_frame(ctx, port, frame)
    }
    fn on_frame_meta(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        frame: FrameBuf,
        meta: Option<FrameMeta>,
    ) {
        let mut h = Hash64::new();
        for w in [self.seen.get(), port.0 as u64, dcn_sim::hash64(&frame)] {
            h.write_u64(w);
        }
        self.seen.set(h.finish());
        match self.strip {
            true => self.inner.on_frame(ctx, port, &frame),
            false => self.inner.on_frame_meta(ctx, port, frame, meta),
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.inner.on_timer(ctx, token)
    }
    fn on_port_down(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        self.inner.on_port_down(ctx, port)
    }
    fn on_port_up(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        self.inner.on_port_up(ctx, port)
    }
    fn stats_snapshot(&self) -> Option<&dyn StatsSnapshot> {
        self.inner.stats_snapshot()
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Traffic starts once every stack has converged; the failure follows
/// 200 ms later; the run ends past BGP's 3 s hold timer, the slowest
/// detection of TC2/TC4.
const TRAFFIC_AT: Time = 5 * SECONDS;
const FAIL_AT: Time = TRAFFIC_AT + 200 * MILLIS;
const END: Time = FAIL_AT + 3500 * MILLIS;

/// When the servers send: from, until, and one packet every.
type Pace = (Time, Time, Duration);

/// Steady traffic across the failure and the convergence after it.
const STEADY: Pace = (TRAFFIC_AT, END, 4 * MILLIS);

/// Around the failure only, paced so that the 500 µs carrier latency,
/// the window local repair acts in, spans many packets.
const DENSE: Pace = (FAIL_AT - 2 * MILLIS, FAIL_AT + 8 * MILLIS, 25 * MICROS);

/// What one run shows: the trace digest, the fold of the frames each
/// node was handed, the packets the servers sent and received, and the
/// packets the routers repaired.
#[derive(PartialEq, Debug)]
struct Observed {
    digest: u64,
    frames: Vec<u64>,
    sent: u64,
    arrived: u64,
    repaired: u64,
}

/// One run: `tc` fails at [`FAIL_AT`]; with `impaired` every link loses,
/// corrupts and jitters frames (the chaos default's rates) from
/// [`TRAFFIC_AT`] to a second after the failure.
fn observe(
    params: ClosParams,
    router: RouterFn<'_>,
    tc: FailureCase,
    impaired: bool,
    strip: bool,
    pace: Pace,
) -> Observed {
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let mut b = SimBuilder::new(1);
    let seen: Vec<Rc<Cell<u64>>> = fabric.nodes.iter().map(|_| Rc::default()).collect();
    for (i, node) in fabric.nodes.iter().enumerate() {
        let inner: Box<dyn Protocol> = match node.role {
            Role::Server { pod, tor_idx, idx } => {
                let host =
                    TrafficHost::new(addr.server_addr(fabric.tor(pod, tor_idx), idx).unwrap());
                Box::new(match send_spec(&fabric, &addr, pod, tor_idx, idx, pace) {
                    Some(spec) => host.with_send(spec),
                    None => host,
                })
            }
            _ => router(&fabric, &addr, i),
        };
        b.add_node(node.name.clone(), Box::new(StripMeta { inner, seen: seen[i].clone(), strip }));
    }
    for &(x, y) in &fabric.links {
        b.add_link(NodeId(x as u32), NodeId(y as u32), LinkSpec::default());
    }
    let mut sim = b.build();
    let (node, port) = fabric.failure_point(tc);
    sim.schedule_port_down(FAIL_AT, NodeId(node as u32), PortId(port as u16));
    if impaired {
        sim.run_until(TRAFFIC_AT);
        let chaos = Impairment { loss_ppm: 2_000, corrupt_ppm: 10_000, jitter: 20 * MICROS };
        sim.set_impairment_all(chaos);
        sim.run_until(FAIL_AT + SECONDS);
        sim.set_impairment_all(Impairment::none());
    }
    sim.run_until(END);
    let mut h = Hash64::new();
    let counts = [sim.frames_delivered(), sim.frames_corrupted(), sim.frames_lost_to_impairment()];
    for w in counts.into_iter().chain(sim.trace().events().iter().flat_map(|e| e.to_words())) {
        h.write_u64(w);
    }
    let hosts = fabric.nodes.iter().enumerate().filter(|(_, n)| !n.role.is_router());
    let hosts = hosts.map(|(i, _)| sim.node_as::<TrafficHost>(NodeId(i as u32)).unwrap());
    let (sent, arrived) = hosts.fold((0, 0), |(s, a), h| (s + h.sent(), a + h.report(0).arrived));
    let repaired = (0..sim.node_count() as u32)
        .filter_map(|n| sim.stats_snapshot_of(NodeId(n)))
        .flat_map(|s| s.counters())
        .filter_map(|(name, v)| (name == "locally_repaired").then_some(v))
        .sum();
    let frames = seen.iter().map(|s| s.get()).collect();
    Observed { digest: h.finish(), frames, sent, arrived, repaired }
}

/// Each flow on its own source port, so the flows spread over the ECMP
/// members, paced by `pace`.
fn send_spec(
    fabric: &Fabric,
    addr: &Addressing,
    pod: usize,
    tor: usize,
    idx: usize,
    (start, end, interval): Pace,
) -> Option<SendSpec> {
    let (last, servers) = (fabric.params.pods - 1, fabric.params.servers_per_tor);
    if (pod != 0 && pod != last) || (idx != 0 && idx != servers - 1) {
        return None;
    }
    let dst = addr.server_addr(fabric.tor(last - pod, tor), idx).unwrap();
    let src_port = 7000 + fabric.server(pod, tor, idx) as u16;
    Some(SendSpec { src_port, interval, ..SendSpec::new(dst, start, end) })
}

/// TC1–TC4 on `params`, each clean and impaired: the run with metadata
/// and the run without must be indistinguishable, and not vacuously so:
/// most packets the servers sent crossed the fabric.
pub fn assert_invisible(label: &str, params: ClosParams, router: RouterFn<'_>) {
    for tc in FailureCase::ALL {
        for impaired in [false, true] {
            let with = observe(params, router, tc, impaired, false, STEADY);
            let without = observe(params, router, tc, impaired, true, STEADY);
            assert_eq!(with, without, "{label} {tc:?} impaired={impaired}");
            assert!(with.arrived * 2 > with.sent, "{label} {tc:?}: {with:?}");
        }
    }
}

/// Local repair acts on the repair bit the metadata carries, so a frame
/// handed over bare, which the router has to parse, is never repaired:
/// with `router` built with `local_repair` on and dense traffic across
/// TC1–TC4, the runs with metadata repair packets and the runs without
/// repair none.
pub fn assert_bare_frames_never_repaired(label: &str, params: ClosParams, router: RouterFn<'_>) {
    let mut repaired = 0;
    for tc in FailureCase::ALL {
        repaired += observe(params, router, tc, false, false, DENSE).repaired;
        let bare = observe(params, router, tc, false, true, DENSE);
        assert_eq!(bare.repaired, 0, "{label} {tc:?}: a bare frame was repaired");
    }
    assert!(repaired > 0, "{label}: no packet with metadata was repaired either");
}
