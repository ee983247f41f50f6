//! The adapter: the only file that imports the system under test.
//!
//! Every layer is measured from outside, by timing calls into the crates'
//! existing public functions; nothing here needs a flag, counter or switch
//! inside any crate. When the crates' API changes (ROADMAP item 3), this is
//! the one file of the benchmark that follows.
//!
//! Public functions used, by layer (= crate):
//!
//! * `dcn-topology` — `ClosParams::{two_pod, four_pod, scaled}`,
//!   `Fabric::{build, tor, server, pod_spine, top_spine, routers,
//!   num_routers, nodes, links}`, `Addressing::{new, server_addr}`,
//!   `FailureCase`.
//! * `dcn-sim` — `SimBuilder::{with_config, add_node, add_link, build}`,
//!   `SimConfig`, `Sim::{run_until, events_processed, frames_delivered,
//!   trace, set_impairment_all}`, `Protocol`, `Ctx`,
//!   `LinkSpec`, `Impairment`, `SchedulerKind`, `scheduler_stress`,
//!   `TraceEvent`.
//! * `dcn-mrmtp` — `CompiledFib::{new, rebuild, lookup}`,
//!   `VidTable::{roots, vids_for, remove_via, install}`,
//!   `MrmtpRouter::{vid_table, neighbors, tier, stats}`.
//! * `dcn-bgp` — `CompiledFib::{new, rebuild, lookup}`, `Rib::{new,
//!   learned_prefixes, members, ingest_advert, ingest_withdraw}`,
//!   `BgpRouter::{rib, stats}`.
//! * `dcn-traffic` — `SendSpec`, `TRAFFIC_MAGIC`, `TrafficHost::{new,
//!   ingest_frame, sent, report}`.
//! * `dcn-wire` — `BgpMessage::{encode, decode}`, `MrmtpMsg::{encode,
//!   decode}`, `Ipv4Packet::{new, encode, decode}`, `UdpDatagram`,
//!   `EthernetFrame`, `flow_hash`, `ecmp_index`.
//! * `dcn-metrics` — `convergence_time`, `blast_radius`,
//!   `control_overhead_bytes`, `update_frames`, `keepalive_stats`,
//!   `class_breakdown`, `storyboard::build`.
//! * `dcn-experiments` — `fabric::build_fabric_sim_cfg`,
//!   `BuiltSim::{inject_failure, mrmtp, bgp, host}`, `RunSpec::{new, failing,
//!   with_traffic, seeded, key, run}`,
//!   `Timing`, `scenario::run_with_sim`, `run_instrumented`,
//!   `bundle_from_run`, `chaos::{run_chaos, run_chaos_profiled,
//!   trace_digest, ChaosConfig}`, `campaign::{CampaignSpec, run_one,
//!   pool::fan_out, store::Store, diff::diff}`.
//! * `dcn-telemetry` — `Json` (the benchmark's own result files use the
//!   repo's JSON value rather than a second parser).
//!
//! Deliberately unused: `EngineKind::Sharded`, `RunSpec::with_workers`,
//! `alloc_track`, and every deprecated entry point.

use std::any::Any;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dcn_bgp::{BgpRouter, CompiledFib as BgpFib, Rib};
use dcn_experiments::campaign::store::{RunRecord, Store};
use dcn_experiments::campaign::{self, diff::diff, pool::fan_out, CampaignSpec};
use dcn_experiments::chaos::{run_chaos, run_chaos_profiled, trace_digest, ChaosConfig};
use dcn_experiments::fabric::build_fabric_sim_cfg;
use dcn_experiments::scenario::run_with_sim;
use dcn_experiments::{
    bundle_from_run, run_instrumented, BuiltSim, RunSpec, StackTuning, Timing, TrafficDir,
};
use dcn_metrics::{
    blast_radius, class_breakdown, control_overhead_bytes, convergence_time, keepalive_stats,
    storyboard, update_frames,
};
use dcn_mrmtp::{CompiledFib as MrmtpFib, MrmtpRouter};
use dcn_sim::time::{Time, MICROS, MILLIS, SECONDS};
use dcn_sim::{
    scheduler_stress, Ctx, FrameBuf, FrameClass, Impairment, LinkSpec, NodeId, PortId, Protocol,
    SchedulerKind, Sim, SimBuilder, SimConfig, TraceEvent,
};
use dcn_topology::{Addressing, ClosParams, Fabric};
use dcn_traffic::{SendSpec, TrafficHost};
use dcn_wire::{
    ecmp_index, flow_hash, BgpMessage, BgpUpdate, EtherType, EthernetFrame, IpAddr4, Ipv4Packet,
    MacAddr, MrmtpMsg, Prefix, UdpDatagram, IPPROTO_UDP,
};

pub use dcn_experiments::Stack;
pub use dcn_telemetry::Json;
pub use dcn_topology::FailureCase;

use crate::harness::{fastest, thread_allocs, time_per_op};
use crate::spans::Spans;

pub const STACKS: [Stack; 3] = Stack::ALL;
pub const CASES: [FailureCase; 4] = FailureCase::ALL;

/// Fabric size of the single-run workloads and of every 16-PoD probe.
pub const BIG_PODS: usize = 16;

fn params(pods: usize) -> ClosParams {
    if pods == 2 {
        ClosParams::two_pod()
    } else {
        ClosParams::scaled(pods).expect("even PoD count")
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Router transit forwards so far (`data_forwarded` over every router).
fn total_forwarded(built: &BuiltSim) -> u64 {
    built
        .fabric
        .routers()
        .map(|r| match built.stack {
            Stack::Mrmtp => built.mrmtp(r).stats().data_forwarded,
            _ => built.bgp(r).stats().data_forwarded,
        })
        .sum()
}

// ----------------------------------------------------------------------
// ctrl-failover: the paper's experiment, one phase per layer call
// ----------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct FailoverSpec {
    pub pods: usize,
    pub stack: Stack,
    pub case: FailureCase,
    pub seed: u64,
    /// The monitored flow takes the first source port at or after this one
    /// whose hash rides the failure chain.
    pub first_port: u16,
}

impl FailoverSpec {
    fn run_spec(&self) -> RunSpec {
        RunSpec::new(params(self.pods), self.stack)
            .failing(self.case)
            .with_traffic(TrafficDir::NearToFar)
            .seeded(self.seed)
    }

    /// The repo's canonical run key plus the benchmark's own input.
    pub fn key(&self) -> String {
        format!("{};first_port={}", self.run_spec().key(), self.first_port)
    }
}

/// Everything simulated that one failover run yields. Two runs of one spec
/// must compare equal; host times are returned beside it, not inside.
#[derive(Clone, Debug, PartialEq)]
pub struct FailoverOut {
    pub events: u64,
    pub trace_events: u64,
    pub forwards: u64,
    pub convergence_ns: Option<u64>,
    pub blast_radius: u64,
    pub control_bytes: u64,
    pub update_frames: u64,
    pub keepalive_frames: u64,
    pub sent: u64,
    pub lost: u64,
    pub routers: u64,
    /// Length of the post-failure measurement window.
    pub window_ns: u64,
}

/// The first `(src_port, dst_port)` at or after `first_port` whose flow
/// hash picks ECMP member 0 at every width: the paper's pinned flow, with
/// the search start drawn from the benchmark seed.
fn pin_flow_from(src: IpAddr4, dst: IpAddr4, widths: &[usize], first_port: u16) -> (u16, u16) {
    const LO: u32 = 5000;
    const SPAN: u32 = 59_000;
    let dst_port = 6000;
    let start = (first_port as u32).clamp(LO, LO + SPAN - 1) - LO;
    (0..SPAN)
        .map(|i| (LO + (start + i) % SPAN) as u16)
        .find(|&sp| {
            let h = flow_hash(src, dst, IPPROTO_UDP, sp, dst_port);
            widths.iter().all(|&w| ecmp_index(h, w) == 0)
        })
        .map(|sp| (sp, dst_port))
        .expect("some source port rides the failure chain")
}

/// `RunSpec` → build → warm-up → fail → paper metrics, every phase a call
/// into one layer with a span around it. Returns the simulated outcome
/// and the host nanoseconds spent inside `Sim::run_until`.
pub fn failover_run(spec: &FailoverSpec, sp: &mut Spans) -> (FailoverOut, u64) {
    let timing = Timing::default();
    let p = params(spec.pods);
    let (fabric, addr) = sp.scope("topology.build", || {
        let fabric = Fabric::build(p);
        let addr = Addressing::new(&fabric);
        (fabric, addr)
    });
    let src_ip = addr.server_addr(fabric.tor(0, 0), 0).expect("near server");
    let dst_ip = addr
        .server_addr(fabric.tor(1, p.tors_per_pod - 1), 0)
        .expect("far server");
    let (src_node, dst_node) = (
        fabric.server(0, 0, 0),
        fabric.server(1, p.tors_per_pod - 1, 0),
    );
    let (src_port, dst_port) = pin_flow_from(
        src_ip,
        dst_ip,
        &[p.spines_per_pod, p.uplinks_per_spine],
        spec.first_port,
    );
    let mut send = SendSpec::new(dst_ip, timing.traffic_start(), timing.traffic_stop());
    send.src_port = src_port;
    send.dst_port = dst_port;
    let routers = fabric.num_routers() as u64;

    let mut built = sp.scope("experiments.sim_build", || {
        build_fabric_sim_cfg(
            fabric,
            spec.stack,
            spec.seed,
            &[(src_node, send)],
            StackTuning::default(),
            SimConfig::default(),
        )
    });
    let t = Instant::now();
    sp.scope("sim.run_until[warmup]", || {
        built.sim.run_until(timing.warmup)
    });
    let mut sim_ns = elapsed_ns(t);
    let failure_at = timing.failure_at();
    built.inject_failure(spec.case, failure_at);
    let t = Instant::now();
    sp.scope("sim.run_until[post]", || built.sim.run_until(timing.end()));
    sim_ns += elapsed_ns(t);

    let mut out = sp.scope("metrics.extract", || paper_metrics(&built.sim, &timing));
    let sent = built.host(src_node).sent();
    let report = built.host(dst_node).report(sent);
    out.sent = sent;
    out.lost = report.lost();
    out.forwards = total_forwarded(&built);
    out.routers = routers;
    sp.scope("sim.teardown", || drop(built));
    (out, sim_ns)
}

/// The six paper-metric functions over a finished trace.
fn paper_metrics(sim: &Sim, timing: &Timing) -> FailoverOut {
    let trace = sim.trace();
    let t0 = timing.failure_at();
    let keepalive = keepalive_stats(
        trace,
        timing.warmup.saturating_sub(2 * SECONDS),
        timing.warmup,
    );
    black_box(class_breakdown(trace, t0, None));
    FailoverOut {
        events: sim.events_processed(),
        trace_events: trace.len() as u64,
        forwards: 0,
        convergence_ns: convergence_time(trace, t0),
        blast_radius: blast_radius(trace, t0) as u64,
        control_bytes: control_overhead_bytes(trace, t0, None),
        update_frames: update_frames(trace, t0),
        keepalive_frames: keepalive.frames,
        sent: 0,
        lost: 0,
        routers: 0,
        window_ns: timing.end() - t0,
    }
}

// ----------------------------------------------------------------------
// fwd-soak: one converged fabric per leg, data plane only
// ----------------------------------------------------------------------

pub const SOAK_WINDOW: Time = 100 * MILLIS;
const SOAK_PACING: Time = 50 * MICROS;

pub struct SoakLeg {
    built: BuiltSim,
    horizon: Time,
    /// (sender server, receiver server) per flow; receivers are distinct.
    flows: Vec<(usize, usize)>,
    /// Packets each sender had emitted one window ago.
    sent_prev: Vec<u64>,
    forwarded: u64,
    events: u64,
}

pub struct SoakWindow {
    pub forwards: u64,
    pub events: u64,
    pub sim_ns: u64,
    /// Flows whose receiver misses a packet sent a full window ago, or saw
    /// a duplicate.
    pub bad_flows: u64,
}

impl SoakLeg {
    /// Build the fabric with one flow from every ToR to the ToR half a
    /// fabric away, and run it to convergence (traffic starts there).
    pub fn build(
        pods: usize,
        stack: Stack,
        payload_len: usize,
        seed: u64,
        src_ports: &[u16],
    ) -> SoakLeg {
        let p = params(pods);
        let fabric = Fabric::build(p);
        let addr = Addressing::new(&fabric);
        // BGP needs session establishment plus the initial table dumps;
        // MR-MTP's trees converge in well under a second.
        let warmup = if stack == Stack::Mrmtp {
            2 * SECONDS
        } else {
            6 * SECONDS
        };
        let tors = p.num_tors();
        let tor_at = |i: usize| (i / p.tors_per_pod, i % p.tors_per_pod);
        let mut senders = Vec::new();
        let mut flows = Vec::new();
        for i in 0..tors {
            let (sp_, st) = tor_at(i);
            let (dp_, dt) = tor_at((i + tors / 2) % tors);
            let dst_ip = addr
                .server_addr(fabric.tor(dp_, dt), 0)
                .expect("server address");
            let mut s = SendSpec::new(dst_ip, warmup, Time::MAX / 2);
            s.interval = SOAK_PACING;
            s.payload_len = payload_len;
            s.src_port = src_ports[i % src_ports.len()];
            senders.push((fabric.server(sp_, st, 0), s));
            flows.push((fabric.server(sp_, st, 0), fabric.server(dp_, dt, 0)));
        }
        let cfg = SimConfig {
            trace: false,
            ..SimConfig::default()
        };
        let mut built =
            build_fabric_sim_cfg(fabric, stack, seed, &senders, StackTuning::default(), cfg);
        built.sim.run_until(warmup);
        let forwarded = total_forwarded(&built);
        let events = built.sim.events_processed();
        SoakLeg {
            sent_prev: vec![0; flows.len()],
            built,
            horizon: warmup,
            flows,
            forwarded,
            events,
        }
    }

    /// Advance one window of simulated time.
    pub fn advance(&mut self, span: &'static str, sp: &mut Spans) -> SoakWindow {
        self.horizon += SOAK_WINDOW;
        let t = Instant::now();
        sp.scope(span, || self.built.sim.run_until(self.horizon));
        let sim_ns = elapsed_ns(t);
        let forwarded = total_forwarded(&self.built);
        let events = self.built.sim.events_processed();
        let mut bad_flows = 0;
        for (i, &(src, dst)) in self.flows.iter().enumerate() {
            let sent = self.built.host(src).sent();
            let report = self.built.host(dst).report(sent);
            if report.unique < self.sent_prev[i] || report.duplicates != 0 {
                bad_flows += 1;
            }
            self.sent_prev[i] = sent;
        }
        let out = SoakWindow {
            forwards: forwarded - self.forwarded,
            events: events - self.events,
            sim_ns,
            bad_flows,
        };
        self.forwarded = forwarded;
        self.events = events;
        out
    }

    pub fn flows(&self) -> usize {
        self.flows.len()
    }
}

// ----------------------------------------------------------------------
// sweep-fanout: a campaign grid through the pool into a fresh store
// ----------------------------------------------------------------------

pub struct SweepInput {
    campaign: CampaignSpec,
    specs: Vec<RunSpec>,
}

/// What one record says, in the benchmark's own terms.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    pub key: String,
    pub pods: u64,
    pub stack: String,
    pub failure: String,
    pub seed: u64,
    pub digest: u64,
    pub convergence_ms: Option<f64>,
    pub blast_radius: u64,
    pub control_bytes: u64,
    pub update_frames: u64,
    pub keepalive_frames: u64,
    pub lost: Option<u64>,
    /// Routers of this run's fabric and its post-failure window, for the
    /// range checks.
    pub routers: u64,
    pub window_ms: f64,
}

/// One job as its pool thread saw it.
#[derive(Clone, Copy, Debug)]
pub struct JobTime {
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

pub struct SweepOut {
    pub runs: Vec<RunSummary>,
    pub jobs: Vec<JobTime>,
    /// Records that did not come back from the store as they went in.
    pub roundtrip_mismatches: u64,
    pub diff_compared: u64,
    pub diff_drifted: u64,
}

impl SweepInput {
    /// {2, 4 PoDs} × 3 stacks × TC1–TC4 × 10 seeds from `base_seed`.
    pub fn new(base_seed: u64) -> SweepInput {
        let campaign = CampaignSpec {
            name: "sweep-fanout".into(),
            pods: vec![2, 4],
            stacks: STACKS.to_vec(),
            failures: CASES.iter().map(|&c| Some(c)).collect(),
            traffic: vec![TrafficDir::None],
            local_repair: vec![false],
            seeds: 10,
            base_seed,
            quick: false,
        };
        let specs = campaign.expand().expect("the grid is well formed");
        SweepInput { campaign, specs }
    }

    pub fn keys(&self) -> Vec<String> {
        self.specs.iter().map(RunSpec::key).collect()
    }

    fn summary(&self, idx: usize, r: &RunRecord) -> RunSummary {
        let rs = &self.specs[idx];
        RunSummary {
            key: r.key.clone(),
            pods: r.pods,
            stack: r.stack.clone(),
            failure: r.failure.clone(),
            seed: r.seed,
            digest: r.digest,
            convergence_ms: r.convergence_ms,
            blast_radius: r.blast_radius,
            control_bytes: r.control_bytes,
            update_frames: r.update_frames,
            keepalive_frames: r.keepalive_frames,
            lost: r.packets_lost,
            routers: rs.params.num_routers() as u64,
            window_ms: (rs.timing.end() - rs.timing.failure_at()) as f64 / MILLIS as f64,
        }
    }

    /// One round: every grid point through `fan_out` on `threads` pool
    /// threads, the records appended to a fresh store in `dir`, read back
    /// resolved by key, and diffed against themselves.
    pub fn round(&self, threads: usize, dir: &Path, sp: &mut Spans) -> Result<SweepOut, String> {
        let clock = sp.clock();
        let fan = sp.enter("pool.fan_out");
        let done = fan_out(self.specs.clone(), threads, |rs| {
            let (a0, b0) = thread_allocs();
            let start_ns = clock();
            let record = campaign::run_one(rs, false);
            let end_ns = clock();
            let (a1, b1) = thread_allocs();
            (
                record,
                start_ns,
                end_ns,
                std::thread::current().id(),
                a1 - a0,
                b1 - b0,
            )
        });
        let mut threads_seen = Vec::new();
        let mut jobs = Vec::with_capacity(done.len());
        let mut records = Vec::with_capacity(done.len());
        for (i, (record, start_ns, end_ns, thread, allocs, alloc_bytes)) in
            done.into_iter().enumerate()
        {
            let tid = match threads_seen.iter().position(|t| *t == thread) {
                Some(p) => p,
                None => {
                    threads_seen.push(thread);
                    threads_seen.len() - 1
                }
            } as u32
                + 1;
            sp.add_finished("job", start_ns, end_ns, i as u32, tid);
            jobs.push(JobTime {
                start_ns,
                end_ns,
                allocs,
                alloc_bytes,
            });
            records.push(record);
        }
        sp.exit(fan);

        let store = sp.scope("store.append", || -> Result<Store, String> {
            let store = Store::create(
                dir,
                &self.campaign.name,
                self.campaign.to_json(),
                self.campaign.total_runs(),
            )?;
            store
                .append_all(&records)
                .map_err(|e| format!("append to {}: {e}", dir.display()))?;
            Ok(store)
        })?;
        let latest = sp.scope("store.read", || store.latest())?;
        let report = sp.scope("diff", || diff(&latest, &latest, 0.0));

        let roundtrip_mismatches = records
            .iter()
            .filter(|r| latest.get(&r.key) != Some(r))
            .count() as u64;
        let runs = records
            .iter()
            .enumerate()
            .map(|(i, r)| self.summary(i, r))
            .collect();
        Ok(SweepOut {
            runs,
            jobs,
            roundtrip_mismatches,
            diff_compared: report.compared as u64,
            diff_drifted: report.findings.len() as u64,
        })
    }

    /// Untimed counting pass: the grid again through `run_with_sim`, which
    /// hands the finished `Sim` back. Returns (events, trace events) summed
    /// over the grid and how many digests differ from `digests`.
    pub fn count_pass(&self, threads: usize, digests: &[u64]) -> (u64, u64, u64) {
        let counted = fan_out(self.specs.clone(), threads, |rs| {
            let (_, built) = run_with_sim(rs);
            (
                built.sim.events_processed(),
                built.sim.trace().len() as u64,
                trace_digest(&built.sim),
            )
        });
        let mismatches = counted
            .iter()
            .zip(digests)
            .filter(|((_, _, d), want)| d != *want)
            .count();
        (
            counted.iter().map(|c| c.0).sum(),
            counted.iter().map(|c| c.1).sum(),
            mismatches as u64,
        )
    }
}

// ----------------------------------------------------------------------
// churn-chaos: faults, impairment and traffic at once
// ----------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSummary {
    pub digest: u64,
    pub violations: u64,
    pub faults: u64,
    /// Frames the impaired wire lost or corrupted, plus frames parsers
    /// dropped as malformed.
    pub frames_hit: u64,
    pub window_blackholed: u64,
}

/// The default campaign shape (flaps, crash, k-burst, impairment) on the
/// paper's 4-PoD fabric with two background flow pairs.
fn chaos_config() -> ChaosConfig {
    ChaosConfig {
        params: ClosParams::four_pod(),
        traffic_pairs: 2,
        ..ChaosConfig::default()
    }
}

pub fn chaos_run(seed: u64, stack: Stack) -> ChaosSummary {
    let run = run_chaos(seed, stack, &chaos_config());
    ChaosSummary {
        digest: run.digest,
        violations: run.violations() as u64,
        faults: run.faults as u64,
        frames_hit: run.frames_corrupted + run.frames_lost + run.malformed_dropped,
        window_blackholed: run.window_blackholed,
    }
}

/// Untimed counting pass: `run_chaos` returns no `Sim`, so the event
/// count comes from the profiled twin, whose digest (which hashes the
/// event count) must equal the plain run's. Returns (events, digest).
pub fn chaos_count_events(seed: u64, stack: Stack) -> (u64, u64) {
    let (run, report) = run_chaos_profiled(seed, stack, &chaos_config());
    (report.profile().total_events(), run.digest)
}

// ----------------------------------------------------------------------
// Layer probes: fixed work, identical in every traced run
// ----------------------------------------------------------------------

pub type Metrics = Vec<(&'static str, f64)>;

/// Scheduler + link + dispatch only: a protocol that says hello on every
/// port every 50 ms and ignores what it hears.
struct Hello;

const HELLO_EVERY: Time = 50 * MILLIS;

impl Protocol for Hello {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_periodic(HELLO_EVERY, HELLO_EVERY, 0);
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: &FrameBuf) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        for p in 0..ctx.port_count() {
            ctx.send(PortId(p as u16), vec![0x06u8], FrameClass::Keepalive);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The 16-PoD graph wired with [`Hello`] on every node; returns
/// (host ns, events, frames delivered) for 20 simulated seconds.
fn floor_run(fabric: &Fabric, seed: u64, trace: bool, impairment: Impairment) -> (u64, u64, u64) {
    let mut b = SimBuilder::with_config(
        seed,
        SimConfig {
            trace,
            ..SimConfig::default()
        },
    );
    for node in &fabric.nodes {
        b.add_node(node.name.clone(), Box::new(Hello));
    }
    for (li, &(x, y)) in fabric.links.iter().enumerate() {
        let spec = LinkSpec {
            propagation: (3 + li as u64 % 6) * MICROS,
            ..LinkSpec::default()
        };
        b.add_link(NodeId(x as u32), NodeId(y as u32), spec);
    }
    let mut sim = b.build();
    sim.set_impairment_all(impairment);
    let t = Instant::now();
    sim.run_until(20 * SECONDS);
    (
        elapsed_ns(t),
        sim.events_processed(),
        sim.frames_delivered(),
    )
}

fn probe_floor(seed: u64, out: &mut Metrics) {
    let fabric = Fabric::build(params(BIG_PODS));
    let chaos = ChaosConfig::default().impairment;
    let run = |trace: bool, imp: Impairment| {
        let samples: Vec<(u64, u64, u64)> = (0..3)
            .map(|_| floor_run(&fabric, seed, trace, imp))
            .collect();
        let ns = fastest(&samples.iter().map(|s| s.0 as f64).collect::<Vec<_>>());
        (ns, samples[0].1 as f64, samples[0].2 as f64)
    };
    let (off_ns, events, _) = run(false, Impairment::none());
    let (on_ns, _, _) = run(true, Impairment::none());
    let (imp_ns, _, frames) = run(false, chaos);
    out.push(("sim.floor_ns_per_event", off_ns / events));
    out.push(("sim.trace_ns_per_event", (on_ns - off_ns) / events));
    out.push(("sim.impair_ns_per_frame", (imp_ns - off_ns) / frames));
    out.push((
        "sim.trace_event_bytes",
        std::mem::size_of::<TraceEvent>() as f64,
    ));
}

fn probe_scheduler(out: &mut Metrics) {
    const CYCLES: u64 = 400_000;
    for (kind, pending, name) in [
        (SchedulerKind::Wheel, 2_048, "sim.sched_wheel_ns_per_op_2k"),
        (SchedulerKind::Heap, 2_048, "sim.sched_heap_ns_per_op_2k"),
        (
            SchedulerKind::Wheel,
            262_144,
            "sim.sched_wheel_ns_per_op_256k",
        ),
        (
            SchedulerKind::Heap,
            262_144,
            "sim.sched_heap_ns_per_op_256k",
        ),
    ] {
        // The fill is not the operating point: subtract a cycles = 0 call.
        let fill = time_per_op(3, 1, || {
            black_box(scheduler_stress(kind, pending, 0));
        });
        let full = time_per_op(3, 1, || {
            black_box(scheduler_stress(kind, pending, CYCLES));
        });
        out.push((name, (full - fill) / CYCLES as f64));
    }
}

/// One 16-PoD TC1 run per stack, three times: construction, the engine
/// with each stack's handlers on top, the paper metrics, the storyboard,
/// the digest and the teardown, each timed around its public call.
fn probe_stack_runs(seed: u64, out: &mut Metrics) {
    let timing = Timing::default();
    let p = params(BIG_PODS);
    let mut topo = Vec::new();
    // Per stack: the fastest (build µs, ns/event, extract µs, storyboard µs,
    // digest µs, digest ns/trace event, teardown µs).
    let mut per_stack: Vec<[f64; 7]> = Vec::new();
    for stack in STACKS {
        let mut samples: [Vec<f64>; 7] = Default::default();
        for _ in 0..3 {
            let t = Instant::now();
            let fabric = Fabric::build(p);
            black_box(Addressing::new(&fabric));
            topo.push(elapsed_ns(t) as f64 / 1e3);

            let t = Instant::now();
            let mut built = build_fabric_sim_cfg(
                fabric,
                stack,
                seed,
                &[],
                StackTuning::default(),
                SimConfig::default(),
            );
            samples[0].push(elapsed_ns(t) as f64 / 1e3);

            let t = Instant::now();
            built.sim.run_until(timing.warmup);
            built.inject_failure(FailureCase::Tc1, timing.failure_at());
            built.sim.run_until(timing.end());
            samples[1].push(elapsed_ns(t) as f64 / built.sim.events_processed() as f64);

            let t = Instant::now();
            black_box(paper_metrics(&built.sim, &timing));
            samples[2].push(elapsed_ns(t) as f64 / 1e3);

            let t = Instant::now();
            black_box(storyboard::build(built.sim.trace(), timing.failure_at()));
            samples[3].push(elapsed_ns(t) as f64 / 1e3);

            let t = Instant::now();
            black_box(trace_digest(&built.sim));
            let digest_ns = elapsed_ns(t) as f64;
            samples[4].push(digest_ns / 1e3);
            samples[5].push(digest_ns / built.sim.trace().len() as f64);

            let t = Instant::now();
            drop(built);
            samples[6].push(elapsed_ns(t) as f64 / 1e3);
        }
        per_stack.push(samples.map(|s| fastest(&s)));
    }
    let mean = |col: usize| per_stack.iter().map(|s| s[col]).sum::<f64>() / per_stack.len() as f64;
    out.push(("topology.build_us", fastest(&topo)));
    out.push(("experiments.sim_build_us", mean(0)));
    out.push(("mrmtp.ns_per_event", per_stack[0][1]));
    out.push(("bgp.ns_per_event", per_stack[1][1]));
    out.push(("bgpbfd.ns_per_event", per_stack[2][1]));
    out.push(("metrics.extract_us", mean(2)));
    out.push(("metrics.storyboard_us", mean(3)));
    out.push(("experiments.digest_us", mean(4)));
    out.push(("experiments.digest_ns_per_trace_event", mean(5)));
    out.push(("sim.teardown_us", mean(6)));
}

/// A converged 16-PoD fabric of `stack`, no traffic.
fn converged(stack: Stack, seed: u64) -> BuiltSim {
    let cfg = SimConfig {
        trace: false,
        ..SimConfig::default()
    };
    let mut built = build_fabric_sim_cfg(
        Fabric::build(params(BIG_PODS)),
        stack,
        seed,
        &[],
        StackTuning::default(),
        cfg,
    );
    built.sim.run_until(if stack == Stack::Mrmtp {
        2 * SECONDS
    } else {
        6 * SECONDS
    });
    built
}

/// Table reads (compiled-FIB lookups) and the writes that invalidate
/// them, on tables taken from converged 16-PoD routers.
fn probe_tables(seed: u64, out: &mut Metrics) {
    const LOOKUPS: u64 = 1 << 20;

    // MR-MTP: a top spine holds a VID for every ToR root.
    let built = converged(Stack::Mrmtp, seed);
    let router: &MrmtpRouter = built.mrmtp(built.fabric.top_spine(0));
    let (mut table, nbr, tier) = (
        router.vid_table().clone(),
        router.neighbors().clone(),
        router.tier(),
    );
    let roots: Vec<u8> = table.roots().collect();
    assert!(
        roots.len() >= BIG_PODS,
        "top spine learned {} roots",
        roots.len()
    );
    let no_upper_loss = BTreeSet::new();
    let mut fib = MrmtpFib::new();
    out.push((
        "mrmtp.fib_rebuild_us",
        time_per_op(5, 200, || {
            for _ in 0..200 {
                fib.rebuild(black_box(&table), &nbr, &no_upper_loss, tier);
            }
        }) / 1e3,
    ));
    out.push((
        "mrmtp.fib_lookup_ns",
        time_per_op(5, LOOKUPS, || {
            let mut acc = 0u32;
            for i in 0..LOOKUPS {
                let root = roots[i as usize % roots.len()];
                if let Some(p) = fib.lookup(black_box(root), i as u16, u128::MAX) {
                    acc = acc.wrapping_add(p.0 as u32);
                }
            }
            black_box(acc);
        }),
    ));
    let own: Vec<_> = roots.iter().map(|&r| table.vids_for(r)[0]).collect();
    out.push((
        "mrmtp.vid_update_ns",
        time_per_op(5, 100 * own.len() as u64, || {
            for _ in 0..100 {
                for o in &own {
                    black_box(table.remove_via(o.vid.root_id(), o.port));
                    black_box(table.install(o.vid, o.port));
                }
            }
        }),
    ));
    drop(built);

    // BGP: a PoD spine reaches the other PoDs' racks over ECMP uplinks.
    let built = converged(Stack::BgpEcmp, seed);
    let router: &BgpRouter = built.bgp(built.fabric.pod_spine(0, 0));
    let mut rib = Rib::new();
    let mut paths = Vec::new();
    for prefix in router.rib().learned_prefixes() {
        for m in router.rib().members(prefix) {
            rib.ingest_advert(m.peer_port, prefix, m.as_path.clone(), m.next_hop);
            paths.push((m.peer_port, prefix, m.as_path.clone(), m.next_hop));
        }
    }
    assert!(
        paths.len() >= BIG_PODS,
        "PoD spine learned {} paths",
        paths.len()
    );
    let dsts: Vec<IpAddr4> = (0..built.fabric.params.num_tors())
        .map(|i| {
            let tor = built.fabric.tor(
                i / built.fabric.params.tors_per_pod,
                i % built.fabric.params.tors_per_pod,
            );
            built.addr.server_addr(tor, 0).expect("server address")
        })
        .collect();
    let mut fib = BgpFib::new();
    out.push((
        "bgp.fib_rebuild_us",
        time_per_op(5, 200, || {
            for _ in 0..200 {
                fib.rebuild(black_box(&rib));
            }
        }) / 1e3,
    ));
    out.push((
        "bgp.fib_lookup_ns",
        time_per_op(5, LOOKUPS, || {
            let mut acc = 0u32;
            for i in 0..LOOKUPS {
                let dst = dsts[i as usize % dsts.len()];
                if let Some(p) = fib.lookup(black_box(dst), i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                    acc = acc.wrapping_add(p.0 as u32);
                }
            }
            black_box(acc);
        }),
    ));
    out.push((
        "bgp.rib_update_ns",
        time_per_op(5, 100 * paths.len() as u64, || {
            for _ in 0..100 {
                for (port, prefix, as_path, next_hop) in &paths {
                    black_box(rib.ingest_withdraw(*port, *prefix));
                    black_box(rib.ingest_advert(*port, *prefix, as_path.clone(), *next_hop));
                }
            }
        }),
    ));
}

/// A generator frame as `TrafficHost` emits it.
fn traffic_frame(src: IpAddr4, dst: IpAddr4, seq: u64, payload_len: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(payload_len);
    payload.extend_from_slice(&dcn_traffic::TRAFFIC_MAGIC.to_be_bytes());
    payload.extend_from_slice(&seq.to_be_bytes());
    payload.resize(payload_len.max(12), 0);
    let udp = UdpDatagram::new(5000, 6000, payload);
    let pkt = Ipv4Packet::new(src, dst, IPPROTO_UDP, udp.encode());
    EthernetFrame {
        dst: MacAddr::BROADCAST,
        src: MacAddr::for_node_port(1, 0),
        ethertype: EtherType::Ipv4,
        payload: pkt.encode(),
    }
    .encode()
}

fn probe_wire(out: &mut Metrics) {
    const N: u64 = 100_000;
    let (src, dst) = (IpAddr4::new(192, 168, 11, 1), IpAddr4::new(192, 168, 14, 1));

    let frames: Vec<Vec<u8>> = (0..4096)
        .map(|seq| traffic_frame(src, dst, seq, 100))
        .collect();
    out.push((
        "traffic.ingest_ns",
        time_per_op(5, frames.len() as u64, || {
            let mut host = TrafficHost::new(dst);
            for f in &frames {
                host.ingest_frame(black_box(f));
            }
            black_box(host.report(frames.len() as u64));
        }),
    ));

    let update = BgpMessage::Update(BgpUpdate {
        withdrawn: vec![Prefix::new(IpAddr4::new(192, 168, 20, 0), 24)],
        as_path: vec![65_001, 65_101, 65_201],
        next_hop: Some(IpAddr4::new(10, 0, 0, 1)),
        nlri: (11..15)
            .map(|o| Prefix::new(IpAddr4::new(192, 168, o, 0), 24))
            .collect(),
    });
    let update_bytes = update.encode();
    out.push((
        "wire.bgp_update_encode_ns",
        time_per_op(5, N, || {
            for _ in 0..N {
                black_box(black_box(&update).encode());
            }
        }),
    ));
    out.push((
        "wire.bgp_update_decode_ns",
        time_per_op(5, N, || {
            for _ in 0..N {
                black_box(BgpMessage::decode(black_box(&update_bytes)).expect("own encoding"));
            }
        }),
    ));
    let lost = MrmtpMsg::Lost {
        seq: 7,
        roots: (11..19).collect(),
    }
    .encode();
    out.push((
        "wire.mrmtp_decode_ns",
        time_per_op(5, N, || {
            for _ in 0..N {
                black_box(MrmtpMsg::decode(black_box(&lost)).expect("own encoding"));
            }
        }),
    ));
    let pkt = Ipv4Packet::new(src, dst, IPPROTO_UDP, vec![0; 108]).encode();
    out.push((
        "wire.ipv4_decode_ns",
        time_per_op(5, N, || {
            for _ in 0..N {
                black_box(Ipv4Packet::decode(black_box(&pkt)).expect("own encoding"));
            }
        }),
    ));
    out.push((
        "wire.flow_hash_ns",
        time_per_op(5, N, || {
            let mut acc = 0u64;
            for i in 0..N {
                acc ^= flow_hash(black_box(src), dst, IPPROTO_UDP, i as u16, 6000);
            }
            black_box(acc);
        }),
    ));
}

/// Pool, store and diff on a sweep-sized record set.
fn probe_pool_store(
    seed: u64,
    threads: usize,
    dir: &Path,
    out: &mut Metrics,
) -> Result<(), String> {
    out.push((
        "experiments.pool_dispatch_us",
        time_per_op(5, 1, || {
            black_box(fan_out((0..10_000u64).collect(), threads, |x| x));
        }) / 1e3,
    ));

    // Twenty-four real records, repeated under fresh keys up to the size
    // of one sweep round; the host time field is zeroed so the segment's
    // byte count is exact.
    let campaign = CampaignSpec {
        pods: vec![2],
        stacks: STACKS.to_vec(),
        failures: CASES.iter().map(|&c| Some(c)).collect(),
        seeds: 2,
        base_seed: seed,
        ..CampaignSpec::default()
    };
    let base = fan_out(campaign.expand()?, threads, |rs| {
        campaign::run_one(rs, false)
    });
    let records: Vec<RunRecord> = (0..240)
        .map(|i| {
            let r = &base[i % base.len()];
            RunRecord {
                key: format!("{};copy={}", r.key, i / base.len()),
                wall_ms: 0.0,
                ..r.clone()
            }
        })
        .collect();
    let n = records.len() as f64;
    let (mut append, mut read, mut differ, mut bytes) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    for rep in 0..3 {
        let store_dir = dir.join(format!("probe-store-{rep}"));
        let store = Store::create(
            &store_dir,
            "probe",
            campaign.to_json(),
            records.len() as u64,
        )?;
        let t = Instant::now();
        store
            .append_all(&records)
            .map_err(|e| format!("append: {e}"))?;
        append.push(elapsed_ns(t) as f64 / 1e3 / n);
        let t = Instant::now();
        let latest = store.latest()?;
        read.push(elapsed_ns(t) as f64 / 1e3 / n);
        let t = Instant::now();
        let report = diff(&latest, &latest, 0.0);
        differ.push(elapsed_ns(t) as f64 / 1e6);
        if report.has_drift() || report.compared != records.len() {
            return Err("probe store does not diff clean against itself".into());
        }
        bytes = std::fs::metadata(store_dir.join("runs.jsonl"))
            .map_err(|e| e.to_string())?
            .len() as f64
            / n;
        std::fs::remove_dir_all(&store_dir).map_err(|e| e.to_string())?;
    }
    out.push(("experiments.store_append_us", fastest(&append)));
    out.push(("experiments.store_read_us", fastest(&read)));
    out.push(("experiments.store_bytes_per_record", bytes));
    out.push(("experiments.diff_ms", fastest(&differ)));
    Ok(())
}

/// The observers, measured so that a later change to them has a baseline.
fn probe_telemetry(seed: u64, out: &mut Metrics) {
    let spec = RunSpec::new(ClosParams::four_pod(), Stack::Mrmtp)
        .failing(FailureCase::Tc1)
        .seeded(seed);
    let (mut plain, mut sampled, mut export) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        black_box(spec.run());
        plain.push(elapsed_ns(t) as f64);
        let t = Instant::now();
        let run = run_instrumented(spec);
        sampled.push(elapsed_ns(t) as f64);
        let t = Instant::now();
        black_box(bundle_from_run(&run, &spec));
        export.push(elapsed_ns(t) as f64 / 1e3);
    }
    out.push((
        "telemetry.sampling_overhead_pct",
        100.0 * (fastest(&sampled) - fastest(&plain)) / fastest(&plain),
    ));
    out.push(("telemetry.export_us", fastest(&export)));
}

/// Each soak leg alone: packets per host second and allocations per
/// forwarded packet over three windows after one warm window.
fn probe_soak_legs(seed: u64, out: &mut Metrics, sp: &mut Spans) {
    for (stack, payload, rate_name, alloc_name) in [
        (
            Stack::Mrmtp,
            100,
            "mrmtp.pkts_per_s_100",
            Some("mrmtp.allocs_per_pkt"),
        ),
        (Stack::Mrmtp, 1400, "mrmtp.pkts_per_s_1400", None),
        (
            Stack::BgpEcmp,
            100,
            "bgp.pkts_per_s_100",
            Some("bgp.allocs_per_pkt"),
        ),
        (Stack::BgpEcmp, 1400, "bgp.pkts_per_s_1400", None),
    ] {
        let mut leg = SoakLeg::build(BIG_PODS, stack, payload, seed, &[5000]);
        leg.advance("probe.soak", sp);
        let (mut costs, mut forwards) = (Vec::new(), 0);
        let a0 = thread_allocs().0;
        for _ in 0..3 {
            let w = leg.advance("probe.soak", sp);
            costs.push(w.sim_ns as f64 / w.forwards as f64);
            forwards += w.forwards;
        }
        let allocs = thread_allocs().0 - a0;
        out.push((rate_name, 1e9 / fastest(&costs)));
        if let Some(name) = alloc_name {
            out.push((name, allocs as f64 / forwards as f64));
        }
    }
}

/// Every workload-independent layer metric. `dir` is scratch space inside
/// the checkout for the store probe.
pub fn layer_probes(
    seed: u64,
    threads: usize,
    dir: &Path,
    sp: &mut Spans,
) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    sp.scope("probe.stack_runs", || probe_stack_runs(seed, &mut out));
    sp.scope("probe.floor", || probe_floor(seed, &mut out));
    sp.scope("probe.scheduler", || probe_scheduler(&mut out));
    sp.scope("probe.tables", || probe_tables(seed, &mut out));
    sp.scope("probe.wire", || probe_wire(&mut out));
    let id = sp.enter("probe.soak_legs");
    probe_soak_legs(seed, &mut out, sp);
    sp.exit(id);
    sp.scope("probe.pool_store", || {
        probe_pool_store(seed, threads, dir, &mut out)
    })?;
    sp.scope("probe.telemetry", || probe_telemetry(seed, &mut out));
    Ok(out)
}
