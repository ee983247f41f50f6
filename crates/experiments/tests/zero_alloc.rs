//! The one-buffer-per-frame gate, measured rather than asserted.
//!
//! This test binary installs the counting `#[global_allocator]` (which
//! library unit tests cannot), soaks a converged fabric with cross-pod
//! traffic, and checks the data path's allocation budgets, transit and
//! edge (DESIGN.md §17):
//!
//! * **Transit forwards with zero heap allocations, under both stacks.**
//!   The engine hands the delivered frame to its receiver, the compiled
//!   FIB is rebuilt only on route/port change, and ECMP picks a port by
//!   masking a bitset. MR-MTP sends the frame on unchanged; BGP patches
//!   MACs, TTL and checksum in the buffer it was handed
//!   (`FrameBuf::rewrite`, in place because nothing else holds it).
//! * **A packet's buffer is built once, at its host, and again only
//!   where its length changes.** Host emit 1, MR-MTP ToR encapsulation 1
//!   and decapsulation 1, BGP rack delivery 0 (the MACs rewritten in
//!   place), host ingest 0:
//!   with one scope around the whole measured second, the allocations
//!   per delivered packet are exactly the sum of those budgets, and what
//!   is left over is the control plane's own, a few hundred whatever the
//!   packet rate.
//!
//! And the control plane's own budgets, over a 16-pod cold start with no
//! traffic (DESIGN.md §18): every control frame is built once, in place,
//! and the session and RIB layers share what they only forward.

use dcn_experiments::{build_fabric_sim_cfg, flows, BuiltSim, Stack, StackTuning};
use dcn_sim::alloc_track;
use dcn_sim::link::LinkSpec;
use dcn_sim::time::{MICROS, MILLIS, SECONDS};
use dcn_sim::{SimBuilder, SimConfig};
use dcn_topology::{Addressing, ClosParams, Fabric, FailureCase};
use dcn_traffic::{SendSpec, TrafficHost};
use dcn_wire::IpAddr4;

#[global_allocator]
static ALLOC: alloc_track::CountingAllocator = alloc_track::CountingAllocator;

/// What a measured second may allocate that is not per packet, and so
/// the remainder an edge budget may leave: the control plane of a
/// converged 2-pod fabric (measured idle: 193 MR-MTP, 448 BGP; ≈ 70 more
/// under traffic) and the engine's queues reaching their size. One
/// allocation too many per packet would leave tens of thousands.
const BACKGROUND_ALLOCS: u64 = 2_000;

/// Converge a 2-pod fabric, reset the counters at steady state, run four
/// cross-pod flows for 800 ms and one second in all, so every packet sent
/// is delivered inside the measurement. Returns (forwarded packets,
/// allocations, packets the receivers took in). The allocations are those
/// inside forwarding scopes, or with `whole_run` every one the thread
/// made — hosts, routers' edges, engine and control plane included. The
/// engine's always-recorded profile counts every dispatch of the soak
/// into a vector sized at build time, so it is inside the gate too.
fn soak(stack: Stack, whole_run: bool) -> (u64, u64, u64) {
    let params = ClosParams::two_pod();
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let warmup = if stack == Stack::Mrmtp { 2 * SECONDS } else { 6 * SECONDS };
    let mut senders = Vec::new();
    for t in 0..params.tors_per_pod {
        let spec = |dst_tor: usize| {
            let mut s = SendSpec::new(
                addr.server_addr(dst_tor, 0).expect("server address"),
                warmup,
                warmup + 800 * MILLIS,
            );
            s.interval = 100 * MICROS;
            s
        };
        senders.push((fabric.server(0, t, 0), spec(fabric.tor(1, t))));
        senders.push((fabric.server(1, t, 0), spec(fabric.tor(0, t))));
    }
    let mut built = build_fabric_sim_cfg(
        fabric,
        stack,
        7,
        &senders,
        StackTuning::default(),
        SimConfig::default(),
    );
    built.sim.run_until(warmup);
    alloc_track::reset();
    {
        let _all = whole_run.then(alloc_track::scope);
        built.sim.run_until(warmup + SECONDS);
    }
    let delivered = senders.iter().map(|&(node, _)| built.host(node).report(0).arrived).sum();
    (alloc_track::forwarded(), alloc_track::scoped_allocs(), delivered)
}

/// Like [`soak`], but with local fast reroute armed and the TC1
/// interface failure injected mid-measurement, the flow pinned onto the
/// failure chain at 25 µs pacing so the repair lookup stages genuinely
/// run (direction per stack as established by `tests/local_repair.rs`:
/// MR-MTP engages its backup detour far-to-near at holddown hops, BGP
/// re-spreads near-to-far at the carrier-side hop). Returns
/// (forwarded, scoped allocations, locally-repaired packets).
fn repair_soak(stack: Stack) -> (u64, u64, u64) {
    let params = ClosParams::two_pod();
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let near_ip = addr.server_addr(fabric.tor(0, 0), 0).expect("near server");
    let far_ip = addr.server_addr(fabric.tor(1, params.tors_per_pod - 1), 0).expect("far server");
    let (src_node, src_ip, dst_ip) = match stack {
        Stack::Mrmtp => (fabric.server(1, params.tors_per_pod - 1, 0), far_ip, near_ip),
        _ => (fabric.server(0, 0, 0), near_ip, far_ip),
    };
    let warmup = if stack == Stack::Mrmtp { 2 * SECONDS } else { 6 * SECONDS };
    let fail_at = warmup + 50 * MILLIS;
    let end = fail_at + 100 * MILLIS;
    let widths = [params.spines_per_pod, params.uplinks_per_spine];
    let (sp, dp) = flows::pin_flow(src_ip, dst_ip, &widths);
    let mut spec = SendSpec::new(dst_ip, warmup, end);
    spec.src_port = sp;
    spec.dst_port = dp;
    spec.interval = 25 * MICROS;
    let tuning = StackTuning { local_repair: true, ..StackTuning::default() };
    let mut built =
        build_fabric_sim_cfg(fabric, stack, 7, &[(src_node, spec)], tuning, SimConfig::default());
    built.sim.run_until(warmup);
    alloc_track::reset();
    built.inject_failure(FailureCase::Tc1, fail_at);
    built.sim.run_until(end);
    let (forwarded, allocs) = (alloc_track::forwarded(), alloc_track::scoped_allocs());
    (forwarded, allocs, built.counter_total("locally_repaired"))
}

/// Cold-start a 16-pod fabric with no traffic to `from`, then count every
/// allocation of the run from there to `to`. Returns (allocations, events
/// dispatched, UPDATEs sent) of that window.
fn cold_start_window(stack: Stack, from: u64, to: u64) -> (u64, u64, u64) {
    let fabric = Fabric::build(ClosParams::scaled(16).expect("16 pods"));
    let mut built =
        build_fabric_sim_cfg(fabric, stack, 11, &[], StackTuning::default(), SimConfig::default());
    let updates_sent = |built: &BuiltSim| -> u64 {
        let routers = built.fabric.nodes.iter().enumerate().filter(|(_, n)| n.role.is_router());
        match built.stack {
            Stack::Mrmtp => 0,
            _ => routers.map(|(i, _)| built.bgp(i).stats().updates_sent).sum(),
        }
    };
    built.sim.run_until(from);
    let (events, updates) = (built.sim.events_processed(), updates_sent(&built));
    alloc_track::reset();
    {
        let _all = alloc_track::scope();
        built.sim.run_until(to);
    }
    let allocs = alloc_track::scoped_allocs();
    (allocs, built.sim.events_processed() - events, updates_sent(&built) - updates)
}

#[test]
fn counting_allocator_is_live_in_this_binary() {
    let _v: Vec<u8> = Vec::with_capacity(64);
    assert!(
        alloc_track::counting_allocator_installed(),
        "global allocator not installed; the soak assertions below would be vacuous"
    );
}

#[test]
fn mrmtp_transit_forwards_without_allocating() {
    let (forwarded, allocs, _) = soak(Stack::Mrmtp, false);
    assert!(forwarded > 1_000, "soak too light to be meaningful: {forwarded} packets");
    assert_eq!(
        allocs, 0,
        "MR-MTP fast path allocated {allocs} times over {forwarded} forwards (expected 0)"
    );
}

#[test]
fn bgp_transit_forwards_without_allocating() {
    let (forwarded, allocs, _) = soak(Stack::BgpEcmp, false);
    assert!(forwarded > 1_000, "soak too light to be meaningful: {forwarded} packets");
    assert_eq!(
        allocs, 0,
        "BGP fast path allocated {allocs} times over {forwarded} forwards \
         (expected 0: the TTL rewrite patches the delivered buffer)"
    );
}

#[test]
fn mrmtp_repairs_in_flight_without_allocating() {
    // The tentpole claim, CI-enforced: local fast reroute is an O(1)
    // in-data-plane action. With repair armed, a failure mid-soak, and
    // the backup detour genuinely firing, MR-MTP transit still touches
    // the allocator not at all — the backup port set is a precompiled
    // bitmask, the lazy FIB recompile reuses its fixed entry array, and
    // the once-per-root repair trace span is emitted outside the scope.
    let (forwarded, allocs, repaired) = repair_soak(Stack::Mrmtp);
    assert!(forwarded > 1_000, "soak too light to be meaningful: {forwarded} packets");
    assert!(repaired > 0, "failure injected but local repair never engaged");
    assert_eq!(
        allocs, 0,
        "MR-MTP repair path allocated {allocs} times over {forwarded} forwards \
         ({repaired} repaired; expected 0 allocations)"
    );
}

#[test]
fn bgp_repairs_in_flight_without_allocating() {
    // BGP's repair pick rewrites the same delivered buffer as the plain
    // pick: engaging the backup ECMP spread must not add allocations.
    let (forwarded, allocs, repaired) = repair_soak(Stack::BgpEcmp);
    assert!(forwarded > 1_000, "soak too light to be meaningful: {forwarded} packets");
    assert!(repaired > 0, "failure injected but local repair never engaged");
    assert_eq!(
        allocs, 0,
        "BGP repair path allocated {allocs} times over {forwarded} forwards \
         ({repaired} repaired; expected 0 allocations)"
    );
}

#[test]
fn host_emit_allocates_once_and_ingest_never() {
    // Two hosts back to back: what is allocated per packet is the emitted
    // frame, and the receiver reads it in place.
    let (a_ip, b_ip) = (IpAddr4::new(10, 0, 0, 1), IpAddr4::new(10, 0, 0, 2));
    let mut spec = SendSpec::new(b_ip, MILLIS, 801 * MILLIS);
    spec.interval = 100 * MICROS;
    let mut b = SimBuilder::new(1);
    let tx = b.add_node("a", Box::new(TrafficHost::new(a_ip).with_send(spec)));
    let rx = b.add_node("b", Box::new(TrafficHost::new(b_ip)));
    b.add_link(tx, rx, LinkSpec::default());
    let mut sim = b.build();
    sim.run_until(MILLIS);
    alloc_track::reset();
    {
        let _all = alloc_track::scope();
        sim.run_until(SECONDS);
    }
    let sent = sim.node_as::<TrafficHost>(tx).expect("sender").sent();
    let arrived = sim.node_as::<TrafficHost>(rx).expect("receiver").report(sent).arrived;
    let allocs = alloc_track::scoped_allocs();
    assert!(sent > 1_000 && arrived == sent, "{arrived} of {sent} packets arrived");
    assert_eq!(
        (allocs / sent, allocs % sent < BACKGROUND_ALLOCS),
        (1, true),
        "emit 1 + ingest 0 per packet expected: {allocs} allocations for {sent} packets"
    );
}

#[test]
fn mrmtp_edges_allocate_one_buffer_each() {
    // Transit is zero (above), so per delivered cross-pod packet the whole
    // run allocates host emit 1 + ToR encapsulation 1 + ToR delivery 1 +
    // host ingest 0, and the engine nothing.
    let (forwarded, allocs, delivered) = soak(Stack::Mrmtp, true);
    assert!(delivered > 1_000 && forwarded == 3 * delivered, "{forwarded} / {delivered}");
    assert_eq!(
        (allocs / delivered, allocs % delivered < BACKGROUND_ALLOCS),
        (3, true),
        "{allocs} allocations for {delivered} delivered packets"
    );
}

#[test]
fn bgp_carries_each_packet_in_the_buffer_its_host_built() {
    // Every router hop but the last is an allocation-free transit forward
    // (above; the ingress ToR included), and the last rewrites the MACs of
    // the same buffer toward the server: per delivered packet, host emit 1
    // + rack delivery 0 + host ingest 0.
    let (forwarded, allocs, delivered) = soak(Stack::BgpEcmp, true);
    assert!(delivered > 1_000 && forwarded == 4 * delivered, "{forwarded} / {delivered}");
    assert_eq!(
        (allocs / delivered, allocs % delivered < BACKGROUND_ALLOCS),
        (1, true),
        "{allocs} allocations, {forwarded} forwards, {delivered} delivered packets"
    );
}

#[test]
fn bgp_cold_start_allocates_under_eight_times_per_update() {
    // The table exchange end to end, engine and timers included: encode
    // into the segment's payload, one frame, one ACK frame, one shared
    // path, RIB nodes and the Adj-RIB-Out entries, and once per connection
    // the segment list it recycles: 6.7 each (33.2 before §18; ISSUE 24
    // asked for 12).
    let (allocs, _, updates) = cold_start_window(Stack::BgpEcmp, 0, 5 * SECONDS);
    assert!(updates > 3_000, "no table exchange to measure: {updates} UPDATEs");
    assert!(
        allocs <= 8 * updates,
        "{allocs} allocations for {updates} UPDATEs = {:.1} each (budget 8)",
        allocs as f64 / updates as f64
    );
}

#[test]
fn mrmtp_tree_build_allocates_under_twice_per_event() {
    // The join/advertise burst: one frame per control message sent, one
    // VID list per advertise round, nothing per message received: 1.26
    // each (7.65 before §18; ISSUE 24 asked for 2.5).
    let (allocs, events, _) = cold_start_window(Stack::Mrmtp, 0, 250 * MILLIS);
    assert!(events > 5_000, "no tree build to measure: {events} events");
    assert!(
        2 * allocs <= 3 * events,
        "{allocs} allocations for {events} events = {:.2} each (budget 1.5)",
        allocs as f64 / events as f64
    );
}

#[test]
fn bfd_keepalives_allocate_nothing() {
    // A converged quarter-second between BGP keepalives: BFD packets
    // only, each a cached frame re-sent and parsed in place (768 before
    // §18: one encoded cache key per transmit).
    let (allocs, events, updates) =
        cold_start_window(Stack::BgpEcmpBfd, 3_500 * MILLIS, 3_750 * MILLIS);
    assert!(events > 1_000 && updates == 0, "{events} events, {updates} UPDATEs");
    assert_eq!(allocs, 0, "{allocs} allocations over {events} BFD-only events");
}

#[test]
fn bgp_paths_are_shared_not_copied() {
    // A converged 4-pod PoD spine: an AS path is allocated once per UPDATE
    // that carried it, and every other holder — the ECMP members read
    // from the Adj-RIB-In, each peer's Adj-RIB-Out — is a reference to
    // that allocation, not a copy of it.
    let fabric = Fabric::build(ClosParams::scaled(4).expect("4 pods"));
    let spine = fabric.pod_spine(0, 0);
    let mut built = build_fabric_sim_cfg(
        fabric,
        Stack::BgpEcmp,
        7,
        &[],
        StackTuning::default(),
        SimConfig::default(),
    );
    built.sim.run_until(6 * SECONDS);
    let router = built.bgp(spine);
    let rib = router.rib();
    let members: Vec<_> = rib.learned_prefixes().into_iter().flat_map(|p| rib.members(p)).collect();
    let mut paths: Vec<_> = members.iter().map(|m| &m.as_path).collect();
    paths.sort_by_key(|p| std::rc::Rc::as_ptr(p).cast::<()>());
    paths.dedup_by_key(|p| std::rc::Rc::as_ptr(p).cast::<()>());
    let holders: usize = paths.iter().map(|p| std::rc::Rc::strong_count(p)).sum();
    let gauge = |name: &str| -> usize {
        let gauges = dcn_sim::StatsSnapshot::gauges(router);
        gauges.iter().find(|(n, _)| *n == name).expect("gauge").1 as usize
    };
    let adj_out = gauge("adj_out_prefixes"); // a spine originates nothing: all learned
    assert!(members.len() >= 8 && adj_out >= 16, "{} members, {adj_out} exported", members.len());
    assert!(
        paths.len() as u64 <= router.stats().updates_received,
        "{} path allocations for {} UPDATEs",
        paths.len(),
        router.stats().updates_received
    );
    assert!(
        holders >= members.len() + adj_out,
        "{holders} holders of {} paths: {} members + {adj_out} Adj-RIB-Out entries must all be references",
        paths.len(),
        members.len()
    );
}
