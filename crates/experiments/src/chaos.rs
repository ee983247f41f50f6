//! Chaos campaign engine (robustness harness).
//!
//! The paper's evaluation injects *scripted* failures (TC1–TC4). This
//! module complements it with *randomized* fault schedules — link flaps
//! with configurable dwell times, whole-node crashes with staggered
//! recovery, and k-point concurrent failures — replayed against both the
//! MR-MTP and BGP stacks while the wire is impaired (probabilistic frame
//! loss, byte corruption, delay jitter). After every schedule heals and
//! the fabric quiesces, four invariants are checked:
//!
//! 1. **No forwarding loops**: every ToR-pair × flow-sample walk
//!    terminates without revisiting a node. Each hop of a walk is the
//!    router's own forwarding decision (`next_hop`, the code its data
//!    paths run), not a model of it.
//! 2. **No black holes**: a walk that dies (no forwarding entry, or a
//!    pick into a down port) is a violation. The check runs after every
//!    fault has healed, so every ToR pair is reachable.
//! 3. **Bounded re-convergence**: the last routing state change after the
//!    final heal event must land within a configured bound.
//! 4. **Determinism**: the same seed produces a bit-identical trace
//!    digest on a second run.
//!
//! Every random draw — schedule generation *and* wire impairment — comes
//! from seeded [`DetRng`] streams, so a violating seed is a complete,
//! replayable reproduction recipe.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

use dcn_sim::rng::DetRng;
use dcn_sim::time::{Duration, Time, MICROS, MILLIS, SECONDS};
use dcn_sim::{Hash64, Impairment, NodeId, PortId, SimConfig};
use dcn_telemetry::{capture_dump, hists_jsonl, spans_jsonl, Json, PerfReport, TraceBundle};
use dcn_topology::{Addressing, ClosParams, Fabric, PortKind, Role};
use dcn_traffic::SendSpec;
use dcn_wire::{flow_hash, IPPROTO_UDP};

use crate::campaign::pool::fan_out;
use crate::fabric::{assemble, BuiltSim, Stack, StackTuning};
use crate::figures::Figure;
use crate::profile::perf_report;
use crate::replicate::Stats;

/// Salt for the schedule-generation RNG stream (distinct from the
/// engine's per-node and impairment streams).
const SCHEDULE_SALT: u64 = 0x5C4E_D01E_FA17_5EED;

/// Base downtime of a crashed node before its first port recovers.
const CRASH_DWELL: Duration = 800 * MILLIS;

/// Per-port random extra delay when a crashed node's ports recover.
const RECOVERY_STAGGER: Duration = 400 * MILLIS;

/// Tunables for one chaos run. [`ChaosConfig::default`] matches the
/// acceptance campaign: link flaps + a node crash + concurrent failures
/// on a 2-PoD fabric with 1 % frame corruption.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Fabric under test.
    pub params: ClosParams,
    /// Number of single-link flap pairs (down then up) per schedule.
    pub flaps: usize,
    /// Number of whole-node crashes (all interfaces down, staggered
    /// recovery) per schedule.
    pub crashes: usize,
    /// Size of the one concurrent k-point failure burst (0 disables it).
    pub k_concurrent: usize,
    /// Minimum flap dwell (time an interface stays down).
    pub min_dwell: Duration,
    /// Maximum flap dwell.
    pub max_dwell: Duration,
    /// Wire impairment active during the fault window.
    pub impairment: Impairment,
    /// Protocol warm-up before the fault window opens.
    pub warmup: Duration,
    /// Length of the fault window. Every interface is healed by its end.
    pub window: Duration,
    /// Clean settle time after the window before invariants are checked.
    pub settle: Duration,
    /// Re-convergence bound: the last routing state change after the
    /// final heal must land within this much time (must be < `settle`).
    pub convergence_bound: Duration,
    /// Flow samples walked per ToR pair when checking loop/black-hole
    /// invariants (each sample varies the UDP source port).
    pub flows_per_pair: usize,
    /// Router tuning, as for a scripted run. `local_repair` is off by
    /// default so historical per-seed digests are unchanged, and when
    /// on, the repair-loop invariant is additionally checked.
    pub tuning: StackTuning,
    /// Cross-pod background flows run through the fault window so the
    /// per-router `blackholed_in_window` / `locally_repaired` counters
    /// measure real transit packets. 0 (the default) adds no senders and
    /// leaves historical digests untouched. Pair `k` starts at ToR `k` of
    /// the first PoD, so at most `params.tors_per_pod` pairs fit.
    pub traffic_pairs: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            params: ClosParams::two_pod(),
            flaps: 6,
            crashes: 1,
            k_concurrent: 2,
            min_dwell: 200 * MILLIS,
            max_dwell: 1500 * MILLIS,
            impairment: Impairment {
                loss_ppm: 2_000,     // 0.2 % frame loss
                corrupt_ppm: 10_000, // 1 % byte corruption
                jitter: 20 * MICROS,
            },
            warmup: 5 * SECONDS,
            window: 6 * SECONDS,
            settle: 8 * SECONDS,
            // BGP's worst legitimate post-heal sequence is a stale
            // hold-timer expiry (3 s) followed by up to two connect
            // retries (1 s each) before updates propagate; anything past
            // 6 s means the fabric is not quiescing.
            convergence_bound: 6 * SECONDS,
            flows_per_pair: 4,
            tuning: StackTuning::default(),
            traffic_pairs: 0,
        }
    }
}

impl ChaosConfig {
    /// Instant the fault window closes and the last heals fire.
    pub fn heal_at(&self) -> Time {
        self.warmup + self.window
    }

    /// Instant the run ends and invariants are checked.
    pub fn end_at(&self) -> Time {
        self.heal_at() + self.settle
    }
}

/// One administrative interface transition in a fault schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    pub at: Time,
    pub node: usize,
    pub port: usize,
    pub up: bool,
}

/// A seeded, fully-healed fault schedule: a chronologically sorted list
/// of interface transitions in which every interface taken down is back
/// up by [`ChaosConfig::heal_at`].
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Generate the schedule for `seed` on `fabric`. Deterministic: the
    /// same (seed, fabric, config) always yields the same schedule.
    pub fn generate(seed: u64, fabric: &Fabric, cfg: &ChaosConfig) -> FaultSchedule {
        let mut rng = DetRng::new(seed, SCHEDULE_SALT);
        let start = cfg.warmup;
        let heal_at = cfg.heal_at();
        let span = cfg.window.saturating_sub(cfg.min_dwell).max(1);

        // Router-to-router interfaces are the flap/k-point candidates;
        // host-facing ports only go down when their whole node crashes.
        let routers: Vec<usize> = fabric.routers().collect();
        let mut ifaces: Vec<(usize, usize)> = Vec::new();
        for &n in &routers {
            for (p, pr) in fabric.ports[n].iter().enumerate() {
                if fabric.nodes[pr.peer].role.is_router() {
                    ifaces.push((n, p));
                }
            }
        }

        let mut ev = Vec::new();
        let dwell = |rng: &mut DetRng| {
            cfg.min_dwell + rng.below(cfg.max_dwell.saturating_sub(cfg.min_dwell) + 1)
        };

        // Single-link flaps.
        for _ in 0..cfg.flaps {
            let (n, p) = ifaces[rng.below(ifaces.len() as u64) as usize];
            let down_at = start + rng.below(span);
            let up_at = (down_at + dwell(&mut rng)).min(heal_at);
            ev.push(FaultEvent { at: down_at, node: n, port: p, up: false });
            ev.push(FaultEvent { at: up_at, node: n, port: p, up: true });
        }

        // Whole-node crashes: every port down at once, staggered recovery.
        for _ in 0..cfg.crashes {
            let n = routers[rng.below(routers.len() as u64) as usize];
            let crash_at = start + rng.below(span);
            for p in 0..fabric.ports[n].len() {
                let up_at = (crash_at + CRASH_DWELL + rng.below(RECOVERY_STAGGER + 1)).min(heal_at);
                ev.push(FaultEvent { at: crash_at, node: n, port: p, up: false });
                ev.push(FaultEvent { at: up_at, node: n, port: p, up: true });
            }
        }

        // One k-point concurrent burst: k distinct interfaces cut at the
        // same instant, each healing independently.
        if cfg.k_concurrent > 0 {
            let burst_at = start + rng.below(span);
            let mut picked = HashSet::new();
            while picked.len() < cfg.k_concurrent.min(ifaces.len()) {
                picked.insert(ifaces[rng.below(ifaces.len() as u64) as usize]);
            }
            let mut picked: Vec<_> = picked.into_iter().collect();
            picked.sort_unstable();
            for (n, p) in picked {
                let up_at = (burst_at + dwell(&mut rng)).min(heal_at);
                ev.push(FaultEvent { at: burst_at, node: n, port: p, up: false });
                ev.push(FaultEvent { at: up_at, node: n, port: p, up: true });
            }
        }

        ev.sort_by_key(|e| (e.at, e.node, e.port, e.up));

        // Replay with the engine's dedup semantics — the last transition
        // scheduled for an interface decides its state — to find
        // interfaces still down at window close, and heal them.
        // (Overlapping flaps on one interface can leave a later `up` as a
        // no-op while an earlier `down` wins.)
        let state: HashMap<(usize, usize), bool> =
            ev.iter().map(|e| ((e.node, e.port), e.up)).collect();
        for ((n, p), up) in state {
            if !up {
                ev.push(FaultEvent { at: heal_at, node: n, port: p, up: true });
            }
        }
        ev.sort_by_key(|e| (e.at, e.node, e.port, e.up));
        FaultSchedule { events: ev }
    }

    /// Number of distinct down transitions (the "fault count").
    pub fn fault_count(&self) -> usize {
        self.events.iter().filter(|e| !e.up).count()
    }
}

/// Result of one chaos run (one seed × one stack).
#[derive(Clone, Debug)]
pub struct ChaosRun {
    pub seed: u64,
    pub stack: Stack,
    /// Down transitions injected by the schedule.
    pub faults: usize,
    /// Forwarding-loop violations found after quiescence.
    pub loops: usize,
    /// Black-hole violations: walks that died, on a fabric whose every
    /// fault has healed.
    pub black_holes: usize,
    /// Repair-loop violations: a walk that revisits a node after local
    /// fast reroute engaged (checked only with `local_repair` in
    /// [`ChaosConfig::tuning`]; always 0 otherwise).
    pub repair_loops: usize,
    /// Transit packets dropped for want of a live forwarding entry
    /// during the run, summed over every router (the loss window local
    /// repair exists to shrink). Counted identically with the knob on or
    /// off; 0 without [`ChaosConfig::traffic_pairs`].
    pub window_blackholed: u64,
    /// Transit packets local fast reroute steered around a locally-dead
    /// egress, summed over every router.
    pub window_repaired: u64,
    /// Whether the last routing state change after the final heal landed
    /// within [`ChaosConfig::convergence_bound`].
    pub converged: bool,
    /// Time of the last routing state change after the final heal
    /// (`None` = the fabric was already quiet).
    pub convergence: Option<Duration>,
    /// Trace digest; equal digests across runs of the same seed certify
    /// bit-identical execution.
    pub digest: u64,
    /// Whether a second same-seed run reproduced `digest` exactly.
    pub deterministic: bool,
    /// Corrupted/undecodable frames dropped by protocol parsers.
    pub malformed_dropped: u64,
    /// Frames the wire corrupted during the impairment window.
    pub frames_corrupted: u64,
    /// Frames the wire dropped outright during the impairment window.
    pub frames_lost: u64,
}

/// The invariants a run can violate, in the order
/// [`ChaosRun::violation_counts`] reports them. The campaign table's
/// columns and `fcr chaos`'s per-seed FAIL line are generated from this
/// list, so neither can leave out a term [`ChaosRun::violations`] counts.
pub const VIOLATION_TERMS: [&str; 5] =
    ["loops", "blackholes", "repair-loops", "unconverged", "non-det"];

impl ChaosRun {
    /// This run's count for each of [`VIOLATION_TERMS`].
    pub fn violation_counts(&self) -> [usize; 5] {
        [
            self.loops,
            self.black_holes,
            self.repair_loops,
            usize::from(!self.converged),
            usize::from(!self.deterministic),
        ]
    }

    /// Total invariant violations in this run.
    pub fn violations(&self) -> usize {
        self.violation_counts().iter().sum()
    }
}

/// Execute one chaos run: warm up, open the impaired fault window, replay
/// the schedule, heal, settle, then check every invariant.
pub fn run_chaos(seed: u64, stack: Stack, cfg: &ChaosConfig) -> ChaosRun {
    run_chaos_with(seed, stack, cfg, SimConfig::default()).0
}

/// [`run_chaos`] handing back the engine's perf report alongside the run.
pub fn run_chaos_profiled(seed: u64, stack: Stack, cfg: &ChaosConfig) -> (ChaosRun, PerfReport) {
    let (run, _, built) = run_chaos_with(seed, stack, cfg, SimConfig::default());
    (run, perf_report(&built.sim, format!("chaos {} seed {}", stack.slug(), seed)))
}

/// [`run_chaos`] with *how* it executes spelt out, exactly as for
/// [`crate::scenario::execute`]: the engine's [`SimConfig`], which may
/// not change the digest. Also hands back the generated schedule and the
/// finished simulation.
pub fn run_chaos_with(
    seed: u64,
    stack: Stack,
    cfg: &ChaosConfig,
    config: SimConfig,
) -> (ChaosRun, FaultSchedule, BuiltSim) {
    let fabric = Fabric::build(cfg.params);
    let addr = Addressing::new(&fabric);
    let senders = chaos_senders(&fabric, &addr, cfg);
    let mut built = assemble(fabric, addr, stack, seed, &senders, cfg.tuning, config);
    let schedule = FaultSchedule::generate(seed, &built.fabric, cfg);

    // Schedule every administrative transition up front; the engine's
    // double-scheduling guard drops no-op transitions exactly the way
    // the schedule replay predicted.
    built.schedule_faults(0, &schedule.events);

    // Warm up clean, impair the wire for the fault window, then clear
    // the impairment just before the final heals so the settle period is
    // a clean fabric.
    let heal_at = cfg.heal_at();
    built.sim.run_until(cfg.warmup);
    built.sim.set_impairment_all(cfg.impairment);
    built.sim.run_until(heal_at.saturating_sub(1));
    built.sim.set_impairment_all(Impairment::none());
    built.sim.run_until(cfg.end_at());

    let convergence = dcn_metrics::last_state_change(built.sim.trace(), heal_at);
    let converged = convergence.is_none_or(|d| d <= cfg.convergence_bound);
    let (loops, black_holes) = check_forwarding_invariants(&mut built, cfg);
    let repair_loops = cfg.tuning.local_repair.then(|| check_repair_loops(&mut built, cfg));

    let run = ChaosRun {
        seed,
        stack,
        faults: schedule.fault_count(),
        loops,
        black_holes,
        repair_loops: repair_loops.unwrap_or(0),
        window_blackholed: built.counter_total("blackholed_in_window"),
        window_repaired: built.counter_total("locally_repaired"),
        converged,
        convergence,
        digest: trace_digest(&built.sim),
        deterministic: true,
        malformed_dropped: built.counter_total("malformed_frames_dropped"),
        frames_corrupted: built.sim.frames_corrupted(),
        frames_lost: built.sim.frames_lost_to_impairment(),
    };
    (run, schedule, built)
}

/// Re-run one (seed, stack) pair and package a self-contained replay
/// bundle: the fault schedule, every typed span, the frame-size
/// histograms and a capture of the fault window. The re-run reproduces
/// the original digest — the caller can (and [`run_campaign`] does)
/// cross-check it.
pub fn chaos_bundle(seed: u64, stack: Stack, cfg: &ChaosConfig) -> (ChaosRun, TraceBundle) {
    let (run, schedule, built) = run_chaos_with(seed, stack, cfg, SimConfig::default());
    let sim = &built.sim;
    let name_of = |n: NodeId| sim.node_name(n).to_string();

    let meta = Json::obj(vec![
        ("kind", Json::str("chaos")),
        ("stack", Json::str(stack.slug())),
        ("seed", Json::UInt(seed)),
        ("digest", Json::UInt(run.digest)),
        ("faults", Json::UInt(run.faults as u64)),
        ("loops", Json::UInt(run.loops as u64)),
        ("black_holes", Json::UInt(run.black_holes as u64)),
        ("repair_loops", Json::UInt(run.repair_loops as u64)),
        ("window_blackholed", Json::UInt(run.window_blackholed)),
        ("window_repaired", Json::UInt(run.window_repaired)),
        ("converged", Json::Bool(run.converged)),
        ("violations", Json::UInt(run.violations() as u64)),
        ("heal_at_ns", Json::UInt(cfg.heal_at())),
        ("end_ns", Json::UInt(cfg.end_at())),
    ]);
    let mut b = TraceBundle::new(meta);

    let mut sched = String::new();
    for e in &schedule.events {
        sched.push_str(
            &Json::obj(vec![
                ("at", Json::UInt(e.at)),
                ("node", Json::str(name_of(NodeId(e.node as u32)))),
                ("node_id", Json::UInt(e.node as u64)),
                ("port", Json::UInt(e.port as u64)),
                ("up", Json::Bool(e.up)),
            ])
            .render(),
        );
        sched.push('\n');
    }
    b.add_file("schedule.jsonl", sched);
    b.add_file("spans.jsonl", spans_jsonl(sim.trace(), name_of));
    b.add_file("hists.jsonl", hists_jsonl(sim.trace()));
    b.add_file("capture.txt", capture_dump(sim, cfg.warmup, cfg.end_at(), 200));
    (run, b)
}

/// Digest of everything observable about a finished run: the engine's
/// three frame counters, then every trace record as its canonical words
/// ([`dcn_sim::TraceEvent::to_words`]), through [`Hash64`] — definition
/// `trace64/v1`, DESIGN.md §16. Two runs of the same seed must produce
/// the same digest bit-for-bit, on any host, profile or toolchain. The
/// engine's dispatch count is deliberately not part of it: how many queue
/// entries a run needed (timer wake-ups that found nothing due) is not
/// observable behaviour.
pub fn trace_digest(sim: &dcn_sim::Sim) -> u64 {
    let mut h = Hash64::new();
    h.write_u64(sim.frames_delivered());
    h.write_u64(sim.frames_corrupted());
    h.write_u64(sim.frames_lost_to_impairment());
    for ev in sim.trace().events() {
        for w in ev.to_words() {
            h.write_u64(w);
        }
    }
    h.finish()
}

/// Cross-pod background flows for the loss-window measurement: pair the
/// first server of ToR `k` in the first pod with the one of ToR `k` in
/// the last pod and run them through the fault window. With these in place the
/// per-router `blackholed_in_window` / `locally_repaired` counters
/// measure real transit packets, so an on-vs-off comparison quantifies
/// the loss window local fast reroute closes.
fn chaos_senders(fabric: &Fabric, addr: &Addressing, cfg: &ChaosConfig) -> Vec<(usize, SendSpec)> {
    let p = fabric.params;
    assert!(cfg.traffic_pairs <= p.tors_per_pod, "more traffic pairs than ToRs per PoD");
    (0..cfg.traffic_pairs)
        .map(|tor| {
            let dst_ip = addr.server_addr(fabric.tor(p.pods - 1, tor), 0).expect("server address");
            // Distinct source ports spread the pairs across ECMP paths.
            let send = SendSpec {
                src_port: 7000 + tor as u16,
                ..SendSpec::new(dst_ip, cfg.warmup, cfg.heal_at())
            };
            (fabric.server(0, tor, 0), send)
        })
        .collect()
}

/// Node indices of every ToR, ascending.
fn tors(fabric: &Fabric) -> Vec<usize> {
    (0..fabric.nodes.len()).filter(|&i| matches!(fabric.nodes[i].role, Role::Tor { .. })).collect()
}

/// The loop-guard invariant for local fast reroute: for every ToR pair ×
/// flow sample, and for every router hop F on the healthy path, kill
/// every plain next hop F has toward the destination and walk again. F
/// repairs the packet, and every hop after it forwards as the routers
/// themselves decide for a repaired packet. Any node revisit is a repair
/// loop. Returns the violation count; drops (no backup left, a repaired
/// packet back at the dead hop) are not violations.
fn check_repair_loops(built: &mut BuiltSim, cfg: &ChaosConfig) -> usize {
    let tors = tors(&built.fabric);
    let mut loops = 0;
    for &src in &tors {
        for &dst in &tors {
            if src == dst {
                continue;
            }
            for flow in 0..cfg.flows_per_pair as u16 {
                // The router hops the flow visits on the healthy
                // (post-heal) fabric, destination excluded. A plain walk
                // that does not deliver is already flagged by the base
                // invariants.
                let Some(path) = walk_hops(built, src, dst, flow) else { continue };
                let dst_ip = built.addr.server_addr(dst, 0).expect("server address");
                for &(fx, _) in &path {
                    // Every plain next hop of `fx`: ECMP picks the
                    // `hash % n`-th of at most `port_count` candidates, so
                    // the hashes 0..port_count reach each of them.
                    let ports = built.sim.port_count(built.node(fx)) as u64;
                    let dead: Vec<PortId> = (0..ports)
                        .filter_map(|h| built.next_hop(fx, dst_ip, h, None, false, &[]))
                        .map(|(p, _)| p)
                        .collect();
                    if walk(built, src, dst, flow, Some((fx, &dead))).0 == WalkOutcome::Loop {
                        loops += 1;
                    }
                }
            }
        }
    }
    loops
}

/// Walk the data plane for every ToR pair × flow sample and count loop /
/// black-hole violations. Returns (loops, black_holes).
fn check_forwarding_invariants(built: &mut BuiltSim, cfg: &ChaosConfig) -> (usize, usize) {
    let tors = tors(&built.fabric);
    let mut loops = 0;
    let mut black_holes = 0;
    for &src in &tors {
        for &dst in &tors {
            if src == dst {
                continue;
            }
            for flow in 0..cfg.flows_per_pair as u16 {
                match walk(built, src, dst, flow, None).0 {
                    WalkOutcome::Delivered => {}
                    WalkOutcome::Loop => loops += 1,
                    WalkOutcome::BlackHole => black_holes += 1,
                }
            }
        }
    }
    (loops, black_holes)
}

#[derive(PartialEq, Eq)]
enum WalkOutcome {
    Delivered,
    Loop,
    BlackHole,
}

/// The hops, as (router, egress port), that a packet of flow sample
/// `flow` takes from `src` ToR to `dst` ToR, or `None` when it does not
/// arrive: the walker the invariants use, on the fabric as it stands.
pub fn walk_hops(
    built: &mut BuiltSim,
    src: usize,
    dst: usize,
    flow: u16,
) -> Option<Vec<(usize, PortId)>> {
    let (outcome, hops) = walk(built, src, dst, flow, None);
    (outcome == WalkOutcome::Delivered).then_some(hops)
}

/// The one data-plane walker: follow a packet of flow sample `flow` from
/// `src` ToR to `dst` ToR, each hop the router's own decision
/// ([`BuiltSim::next_hop`]), carrying the packet's repair bit as the wire
/// does. With `dead = Some((node, ports))` the `ports` count as down at
/// `node`. Also returns the hops taken, as in [`walk_hops`].
fn walk(
    built: &mut BuiltSim,
    src: usize,
    dst: usize,
    flow: u16,
    dead: Option<(usize, &[PortId])>,
) -> (WalkOutcome, Vec<(usize, PortId)>) {
    let mut hops = Vec::new();
    let (Some(src_ip), Some(dst_ip)) =
        (built.addr.server_addr(src, 0), built.addr.server_addr(dst, 0))
    else {
        return (WalkOutcome::BlackHole, hops);
    };
    // Vary the UDP source port per flow sample, exactly like a host
    // would spread flows across ECMP paths.
    let hash = flow_hash(src_ip, dst_ip, IPPROTO_UDP, 1000 + flow, 5000);

    // The walk is deterministic given (node, repair bit): a forwarding
    // loop revisits the same state. A plain node revisit is not enough
    // once a repair happened — a repaired packet may bounce back through
    // its arrival path and die at the dead hop. Without `dead` the bit
    // never flips and this is a plain visited-node set.
    let mut visited = HashSet::new();
    let mut cur = src;
    // The packet enters on the port of `src_ip`'s server, the first host
    // port. (MR-MTP's ingress passes none, but a ToR's FIB has nothing to
    // repair onto, so its decision is the same either way.)
    let host = built.fabric.ports[src].iter().position(|p| p.kind == PortKind::Host);
    let mut arrival = host.map(|p| PortId(p as u16));
    let mut repaired = false;
    let outcome = loop {
        if cur == dst {
            break WalkOutcome::Delivered;
        }
        if !visited.insert((cur, repaired)) {
            break WalkOutcome::Loop;
        }
        let down = dead.filter(|&(n, _)| n == cur).map_or(&[][..], |(_, ports)| ports);
        let Some((port, now_repaired)) = built.next_hop(cur, dst_ip, hash, arrival, repaired, down)
        else {
            break WalkOutcome::BlackHole;
        };
        hops.push((cur, port));
        // A pick into a port that is down loses the packet, as on the wire.
        let node = built.node(cur);
        let peer = built.sim.peer_of(node, port);
        let Some(peer) = peer.filter(|_| built.sim.port_up(node, port) && !down.contains(&port))
        else {
            break WalkOutcome::BlackHole;
        };
        (cur, arrival, repaired) = (peer.node.0 as usize, Some(peer.port), now_repaired);
    };
    (outcome, hops)
}

/// Configuration of a whole campaign: a seed range fanned over worker
/// threads for a list of stacks.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of seeds (seed values are `base_seed..base_seed + seeds`).
    pub seeds: u64,
    /// First seed value.
    pub base_seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Stacks under test.
    pub stacks: Vec<Stack>,
    /// Per-run tunables.
    pub chaos: ChaosConfig,
    /// Re-run every (seed, stack) pair and compare trace digests.
    pub check_determinism: bool,
    /// When set, any run that violates an invariant is re-run and a
    /// replay bundle is written under this directory
    /// (`chaos-<stack>-seed<N>/`).
    pub telemetry_out: Option<PathBuf>,
    /// When set, every run writes its engine profile as
    /// `perf_report.json` under `<dir>/chaos-<stack>-seed<N>-perf/`.
    pub profile_out: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seeds: 64,
            base_seed: 1,
            threads: 0,
            stacks: vec![Stack::Mrmtp, Stack::BgpEcmp],
            chaos: ChaosConfig::default(),
            check_determinism: true,
            telemetry_out: None,
            profile_out: None,
        }
    }
}

/// All runs of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    pub runs: Vec<ChaosRun>,
}

impl CampaignResult {
    /// Total invariant violations across every run.
    pub fn violations(&self) -> usize {
        self.runs.iter().map(ChaosRun::violations).sum()
    }
}

/// Run the campaign: every (stack, seed) pair is an independent job
/// fanned out over worker threads. With `check_determinism`, each job
/// runs its simulation twice and compares digests.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let mut jobs = Vec::new();
    for &stack in &cfg.stacks {
        for s in 0..cfg.seeds {
            jobs.push((stack, cfg.base_seed + s));
        }
    }
    let chaos = cfg.chaos.clone();
    let check = cfg.check_determinism;
    let out = cfg.telemetry_out.clone();
    let profile_out = cfg.profile_out.clone();
    let runs = fan_out(jobs, cfg.threads, move |(stack, seed)| {
        let (mut run, report) = run_chaos_profiled(seed, stack, &chaos);
        if let Some(dir) = &profile_out {
            let sub = dir.join(format!("chaos-{}-seed{}-perf", stack.slug(), seed));
            if let Err(e) = crate::profile::write_profile_artifacts(&report, &sub) {
                eprintln!("chaos: perf artifacts to {} failed: {e}", sub.display());
            }
        }
        if check {
            let again = run_chaos(seed, stack, &chaos);
            run.deterministic = run.digest == again.digest;
        }
        if run.violations() > 0 {
            if let Some(dir) = &out {
                let (rerun, bundle) = chaos_bundle(seed, stack, &chaos);
                // The bundle's re-run must reproduce the original digest;
                // a mismatch is itself a determinism violation.
                run.deterministic &= rerun.digest == run.digest;
                let sub = dir.join(format!("chaos-{}-seed{}", stack.slug(), seed));
                match bundle.write(&sub) {
                    Ok(_) => eprintln!("chaos: replay bundle written to {}", sub.display()),
                    Err(e) => eprintln!("chaos: bundle write to {} failed: {e}", sub.display()),
                }
            }
        }
        run
    });
    CampaignResult { runs }
}

/// Per-stack summary table of a campaign: fault totals, invariant
/// violations, and the post-heal re-convergence distribution.
pub fn campaign_summary(cfg: &CampaignConfig, result: &CampaignResult) -> Figure {
    let mut rows = Vec::new();
    for &stack in &cfg.stacks {
        let runs: Vec<&ChaosRun> = result.runs.iter().filter(|r| r.stack == stack).collect();
        if runs.is_empty() {
            continue;
        }
        let conv: Vec<f64> =
            runs.iter().filter_map(|r| r.convergence).map(|d| d as f64 / MILLIS as f64).collect();
        let Stats { min, mean, max, .. } =
            Stats::of(&conv).unwrap_or(Stats { mean: 0.0, min: 0.0, max: 0.0, runs: 0 });
        let mut row = vec![
            stack.label().to_string(),
            runs.len().to_string(),
            runs.iter().map(|r| r.faults).sum::<usize>().to_string(),
        ];
        // One column per term `violations()` counts, summed over seeds.
        for term in 0..VIOLATION_TERMS.len() {
            row.push(runs.iter().map(|r| r.violation_counts()[term]).sum::<usize>().to_string());
        }
        row.extend([
            format!("{min:.1}"),
            format!("{mean:.1}"),
            format!("{max:.1}"),
            runs.iter().map(|r| r.malformed_dropped).sum::<u64>().to_string(),
            runs.iter().map(|r| r.frames_corrupted).sum::<u64>().to_string(),
            runs.iter().map(|r| r.frames_lost).sum::<u64>().to_string(),
        ]);
        rows.push(row);
    }
    Figure {
        title: format!(
            "Chaos campaign: {} seeds/stack, {} flaps + {} crashes + k={} burst, \
             loss {} ppm / corrupt {} ppm / jitter {} us",
            cfg.seeds,
            cfg.chaos.flaps,
            cfg.chaos.crashes,
            cfg.chaos.k_concurrent,
            cfg.chaos.impairment.loss_ppm,
            cfg.chaos.impairment.corrupt_ppm,
            cfg.chaos.impairment.jitter / MICROS,
        ),
        headers: ["stack", "seeds", "faults"]
            .into_iter()
            .chain(VIOLATION_TERMS)
            .chain([
                "reconv-min-ms",
                "reconv-mean-ms",
                "reconv-max-ms",
                "malformed-drop",
                "corrupted",
                "lost",
            ])
            .collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ChaosConfig {
        ChaosConfig {
            flaps: 3,
            crashes: 1,
            k_concurrent: 2,
            window: 3 * SECONDS,
            flows_per_pair: 2,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn schedule_is_deterministic_and_fully_healed() {
        let cfg = quick_cfg();
        let fabric = Fabric::build(cfg.params);
        let a = FaultSchedule::generate(7, &fabric, &cfg);
        let b = FaultSchedule::generate(7, &fabric, &cfg);
        assert_eq!(a.events, b.events);
        assert!(a.fault_count() > 0);

        // Replay: every interface ends up.
        let mut state = std::collections::HashMap::new();
        for e in &a.events {
            state.insert((e.node, e.port), e.up);
            assert!(e.at >= cfg.warmup && e.at <= cfg.heal_at());
        }
        assert!(state.values().all(|&up| up), "schedule leaves a port down");
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = quick_cfg();
        let fabric = Fabric::build(cfg.params);
        let a = FaultSchedule::generate(1, &fabric, &cfg);
        let b = FaultSchedule::generate(2, &fabric, &cfg);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn chaos_run_mrmtp_holds_invariants() {
        let r = run_chaos(11, Stack::Mrmtp, &quick_cfg());
        assert_eq!(r.loops, 0, "forwarding loop detected");
        assert_eq!(r.black_holes, 0, "black hole detected");
        assert!(r.converged, "re-convergence exceeded bound: {:?}", r.convergence);
    }

    #[test]
    fn chaos_run_bgp_holds_invariants() {
        let r = run_chaos(11, Stack::BgpEcmp, &quick_cfg());
        assert_eq!(r.loops, 0, "forwarding loop detected");
        assert_eq!(r.black_holes, 0, "black hole detected");
        assert!(r.converged, "re-convergence exceeded bound: {:?}", r.convergence);
    }

    #[test]
    fn local_repair_shrinks_the_chaos_loss_window() {
        // Same seed, same schedule, background cross-pod traffic through
        // the fault window; only the repair knob differs. Repair must
        // engage, must not add blackholes, and must hold the repair-loop
        // invariant on both stacks.
        let off_cfg = ChaosConfig { traffic_pairs: 2, ..quick_cfg() };
        let repair = StackTuning { local_repair: true, ..StackTuning::default() };
        let on_cfg = ChaosConfig { tuning: repair, ..off_cfg.clone() };
        for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
            let off = run_chaos(11, stack, &off_cfg);
            let on = run_chaos(11, stack, &on_cfg);
            assert_eq!(on.repair_loops, 0, "repair loop on {}", stack.label());
            assert_eq!(on.loops, 0, "post-heal loop on {}", stack.label());
            assert!(
                on.window_blackholed <= off.window_blackholed,
                "{}: repair widened the loss window ({} on vs {} off)",
                stack.label(),
                on.window_blackholed,
                off.window_blackholed,
            );
            assert_eq!(off.window_repaired, 0, "repair engaged with the knob off");
            // Chaos is where BGP repair provably fires: impairment races
            // hand its FIB a locally-dead egress, which never happens in
            // the scripted TC runs (carrier loss tears the session and
            // rebuilds the FIB in the same event).
            assert!(on.window_repaired > 0, "repair never engaged on {}", stack.label());
        }
    }

    #[test]
    fn local_repair_runs_are_deterministic() {
        let repair = StackTuning { local_repair: true, ..StackTuning::default() };
        let cfg = ChaosConfig { tuning: repair, traffic_pairs: 2, ..quick_cfg() };
        for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
            let a = run_chaos(5, stack, &cfg);
            let b = run_chaos(5, stack, &cfg);
            assert_eq!(a.digest, b.digest, "non-deterministic with repair on {}", stack.label());
            assert_eq!(a.repair_loops, 0);
        }
    }

    #[test]
    fn same_seed_same_digest() {
        let cfg = quick_cfg();
        let a = run_chaos(3, Stack::Mrmtp, &cfg);
        let b = run_chaos(3, Stack::Mrmtp, &cfg);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn telemetry_does_not_perturb_chaos_digest() {
        // The determinism contract: the bundle's re-run must reproduce
        // the per-seed digest bit-identically on every stack.
        let cfg = quick_cfg();
        for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
            let bare = run_chaos(5, stack, &cfg);
            let (instrumented, bundle) = chaos_bundle(5, stack, &cfg);
            assert_eq!(
                bare.digest,
                instrumented.digest,
                "the bundle's re-run diverged on {}",
                stack.label()
            );
            let names: Vec<&str> = bundle.files().iter().map(|(n, _)| n.as_str()).collect();
            for want in ["schedule.jsonl", "spans.jsonl", "capture.txt"] {
                assert!(names.contains(&want), "missing {want} in {names:?}");
            }
            assert_eq!(bundle.meta().get("digest").unwrap().as_u64(), Some(bare.digest));
            // Every schedule line parses back and carries a node name;
            // down transitions match the run's fault count.
            let sched = &bundle.files()[0].1;
            let mut downs = 0;
            for line in sched.lines() {
                let j = Json::parse(line).expect("valid JSON line");
                assert!(j.get("node").unwrap().as_str().is_some());
                downs += usize::from(j.get("up").unwrap().as_bool() == Some(false));
            }
            assert_eq!(downs, instrumented.faults);
        }
    }

    /// Every file a chaos bundle carries besides `meta.json` and the
    /// sampled series, pinned by the [`dcn_sim::hash64`] of its bytes:
    /// how a run is observed must not move what it records.
    #[test]
    fn chaos_bundle_files_are_pinned() {
        let (_, bundle) = chaos_bundle(5, Stack::Mrmtp, &quick_cfg());
        let got: Vec<(&str, u64)> = ["schedule.jsonl", "spans.jsonl", "hists.jsonl", "capture.txt"]
            .into_iter()
            .map(|want| {
                let (_, text) = bundle.files().iter().find(|(n, _)| n == want).expect(want);
                (want, dcn_sim::hash64(text.as_bytes()))
            })
            .collect();
        assert_eq!(
            got,
            [
                ("schedule.jsonl", 0xd2d6_3df9_08e7_b2b6),
                ("spans.jsonl", 0x5dc3_e9af_fb52_99b7),
                ("hists.jsonl", 0xd506_54d9_c08e_f544),
                ("capture.txt", 0x6ead_3a0a_4539_59a9),
            ]
        );
    }

    #[test]
    fn small_campaign_summary_renders() {
        let cfg = CampaignConfig {
            seeds: 2,
            check_determinism: false,
            chaos: quick_cfg(),
            ..CampaignConfig::default()
        };
        let result = run_campaign(&cfg);
        assert_eq!(result.runs.len(), 4);
        assert_eq!(result.violations(), 0);
        let fig = campaign_summary(&cfg, &result);
        assert!(fig.render().contains("stack"));
        // A FAIL must never render as an all-clear table: every term
        // `violations()` sums has its own column.
        assert_eq!(VIOLATION_TERMS.len(), result.runs[0].violation_counts().len());
        for term in VIOLATION_TERMS {
            assert_eq!(fig.headers.iter().filter(|h| **h == term).count(), 1, "column {term}");
        }
    }
}
