//! The four workloads. Each is a closed loop with one client: a round runs
//! a fixed, seeded input list, the next run starting when the previous
//! returns. `round` does the measured work; `check` verifies what the round
//! produced, outside the measured time.
//!
//! Why these four: they push the same layers in different proportions, so
//! an optimisation has a workload that exercises its mechanism and one that
//! bypasses it.
//!
//! * `ctrl-failover` — the paper's own experiment at 16 PoDs: engine
//!   (scheduler, link, trace push) and the protocols' control paths do
//!   nearly all the work; FIB lookups, pool, store and digest almost none.
//! * `fwd-soak` — converged fabrics forwarding 32 cross-PoD flows, trace
//!   off: compiled-FIB reads, link serialisation, scheduler, traffic hosts;
//!   the control plane is idle keep-alives. 100 B payloads show per-packet
//!   cost, 1 400 B payloads show copy cost.
//! * `sweep-fanout` — 240 short, construction-heavy, cold runs in parallel
//!   through the pool into a store: the only workload where the digest,
//!   the storyboard, the pool and the store carry weight.
//! * `churn-chaos` — table writes beside table reads: FIB recompiles, RIB
//!   and VID churn, retransmits, decoder error paths and the impairment RNG
//!   run while packets are forwarded. A lookup speed-up that makes rebuilds
//!   dearer shows here and not in `fwd-soak`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::harness::{cores, thread_allocs, SeedStream};
use crate::spans::Spans;
use crate::sut::{
    self, ChaosSummary, FailoverOut, FailoverSpec, RunSummary, SoakLeg, Stack, SweepInput,
    BIG_PODS, CASES, STACKS,
};

pub const NAMES: [&str; 4] = ["ctrl-failover", "fwd-soak", "sweep-fanout", "churn-chaos"];

/// What one round measured. Counts the benchmark cannot see from outside
/// in that round are zero and come from [`Workload::count_pass`] instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct Round {
    /// Host time of the measured work.
    pub elapsed_ns: u64,
    /// Runs (or leg-windows) completed.
    pub ops: u64,
    /// Packets the round's own outputs account for (see `pkts_per_s`).
    pub pkts: u64,
    /// Simulated events executed, when the benchmark holds the `Sim`.
    pub events: u64,
    pub trace_events: u64,
    /// Host time inside the runs, summed over threads.
    pub busy_ns: u64,
    /// Host time inside the innermost call that contains `Sim::run_until`.
    pub sim_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

pub trait Workload {
    /// Pool threads the workload runs on.
    fn threads(&self) -> usize {
        1
    }
    /// The canonical key of every generated input, in run order.
    fn input_keys(&self) -> Vec<String>;
    /// One round of measured work.
    fn round(&mut self, sp: &mut Spans) -> Result<Round, String>;
    /// Verify the last round's outputs; returns how many operations
    /// failed. The first round checked becomes the reference the later
    /// ones must reproduce exactly.
    fn check(&mut self) -> u64;
    /// Untimed pass for the per-round event counts a round cannot see:
    /// (events, trace events, operations whose recount disagrees).
    fn count_pass(&mut self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
    /// Simulated statistics of one round as exact counts, so that a
    /// speed-only change can show they did not move.
    fn exact(&self) -> Vec<(&'static str, u64)>;
}

/// Generate the inputs from `seed`, construct what the workload keeps
/// alive between rounds, and run the untimed warm-up round.
pub fn setup(
    name: &str,
    seed: u64,
    scratch: &Path,
) -> Result<(Box<dyn Workload>, u64, u64), String> {
    let mut wl: Box<dyn Workload> = match name {
        "ctrl-failover" => Box::new(CtrlFailover::new(seed)),
        "fwd-soak" => Box::new(FwdSoak::new(seed)),
        "sweep-fanout" => Box::new(SweepFanout::new(seed, scratch)),
        "churn-chaos" => Box::new(ChurnChaos::new(seed)),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    };
    let warm = wl.round(&mut Spans::new(false))?;
    let failed = wl.check();
    Ok((wl, warm.ops, failed))
}

/// Paper-metric range checks shared by the two workloads that run the
/// paper's failure cases: a convergence inside the post-failure window
/// and a blast radius between one router and all of them.
fn failure_run_ok(
    convergence_ms: Option<f64>,
    window_ms: f64,
    blast_radius: u64,
    routers: u64,
) -> bool {
    convergence_ms.is_some_and(|c| c > 0.0 && c <= window_ms)
        && (1..=routers).contains(&blast_radius)
}

// ----------------------------------------------------------------------

struct CtrlFailover {
    specs: Vec<FailoverSpec>,
    last: Vec<FailoverOut>,
    reference: Vec<FailoverOut>,
}

impl CtrlFailover {
    /// 3 stacks × TC1–TC4 on the 16-PoD fabric; the run seed and the port
    /// the monitored-flow search starts from are drawn per run.
    fn new(seed: u64) -> CtrlFailover {
        let mut stream = SeedStream::new(seed, 1);
        let mut specs = Vec::new();
        for stack in STACKS {
            for case in CASES {
                specs.push(FailoverSpec {
                    pods: BIG_PODS,
                    stack,
                    case,
                    seed: stream.next_u64() >> 16,
                    first_port: 5000 + stream.below(59_000) as u16,
                });
            }
        }
        CtrlFailover {
            specs,
            last: Vec::new(),
            reference: Vec::new(),
        }
    }
}

impl Workload for CtrlFailover {
    fn input_keys(&self) -> Vec<String> {
        self.specs.iter().map(FailoverSpec::key).collect()
    }

    fn round(&mut self, sp: &mut Spans) -> Result<Round, String> {
        self.last.clear();
        let mut r = Round::default();
        let (a0, b0) = thread_allocs();
        let t = Instant::now();
        for (i, spec) in self.specs.iter().enumerate() {
            sp.set_run(i as u32);
            let run = sp.enter("run");
            let started = Instant::now();
            let (out, sim_ns) = sut::failover_run(spec, sp);
            r.busy_ns += started.elapsed().as_nanos() as u64;
            sp.exit(run);
            r.sim_ns += sim_ns;
            self.last.push(out);
        }
        r.elapsed_ns = t.elapsed().as_nanos() as u64;
        let (a1, b1) = thread_allocs();
        (r.allocs, r.alloc_bytes) = (a1 - a0, b1 - b0);
        r.ops = self.last.len() as u64;
        r.pkts = self.last.iter().map(|o| o.forwards).sum();
        r.events = self.last.iter().map(|o| o.events).sum();
        r.trace_events = self.last.iter().map(|o| o.trace_events).sum();
        Ok(r)
    }

    fn check(&mut self) -> u64 {
        if self.reference.is_empty() {
            self.reference = self.last.clone();
        }
        let mut failed = 0;
        for (i, out) in self.last.iter().enumerate() {
            let spec = &self.specs[i];
            let window_ms = out.window_ns as f64 / 1e6;
            let mut ok = *out == self.reference[i]
                && failure_run_ok(
                    out.convergence_ns.map(|c| c as f64 / 1e6),
                    window_ms,
                    out.blast_radius,
                    out.routers,
                )
                && out.sent > 0
                && out.lost <= out.sent
                && out.forwards > 0;
            // One protocol for everything costs fewer control bytes than
            // BGP on the same failure (the paper's Fig. 6).
            if spec.stack == Stack::Mrmtp {
                let bgp = self
                    .specs
                    .iter()
                    .position(|s| s.stack == Stack::BgpEcmp && s.case == spec.case)
                    .expect("every case runs on every stack");
                ok &= out.control_bytes < self.last[bgp].control_bytes;
            }
            failed += u64::from(!ok);
        }
        failed
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        let sum = |f: fn(&FailoverOut) -> u64| self.reference.iter().map(f).sum::<u64>();
        vec![
            ("events", sum(|o| o.events)),
            ("trace_events", sum(|o| o.trace_events)),
            ("forwards", sum(|o| o.forwards)),
            ("convergence_ns", sum(|o| o.convergence_ns.unwrap_or(0))),
            ("blast_radius", sum(|o| o.blast_radius)),
            ("control_bytes", sum(|o| o.control_bytes)),
            ("update_frames", sum(|o| o.update_frames)),
            ("keepalive_frames", sum(|o| o.keepalive_frames)),
            ("packets_sent", sum(|o| o.sent)),
            ("packets_lost", sum(|o| o.lost)),
        ]
    }
}

// ----------------------------------------------------------------------

/// Legs {MR-MTP, BGP} × payload {100 B, 1 400 B}, advanced round-robin.
const SOAK_LEGS: [(Stack, usize, &str); 4] = [
    (Stack::Mrmtp, 100, "sim.run_until[mrmtp/100]"),
    (Stack::Mrmtp, 1400, "sim.run_until[mrmtp/1400]"),
    (Stack::BgpEcmp, 100, "sim.run_until[bgp/100]"),
    (Stack::BgpEcmp, 1400, "sim.run_until[bgp/1400]"),
];

struct FwdSoak {
    keys: Vec<String>,
    legs: Vec<SoakLeg>,
    bad_legs: u64,
    /// (forwards, events) of the last round and of the warm-up round, which
    /// covers the same simulated window in every process.
    last: (u64, u64),
    reference: Option<(u64, u64)>,
}

impl FwdSoak {
    fn new(seed: u64) -> FwdSoak {
        let mut stream = SeedStream::new(seed, 2);
        let ports: Vec<u16> = (0..2 * BIG_PODS)
            .map(|_| 5000 + stream.below(59_000) as u16)
            .collect();
        let mut keys = Vec::new();
        let mut legs = Vec::new();
        for (stack, payload, _) in SOAK_LEGS {
            let sim_seed = stream.next_u64() >> 16;
            keys.push(format!(
                "pods={BIG_PODS};stack={};payload={payload};seed={sim_seed};ports={ports:?}",
                stack.slug()
            ));
            legs.push(SoakLeg::build(BIG_PODS, stack, payload, sim_seed, &ports));
        }
        FwdSoak {
            keys,
            legs,
            bad_legs: 0,
            last: (0, 0),
            reference: None,
        }
    }
}

impl Workload for FwdSoak {
    fn input_keys(&self) -> Vec<String> {
        self.keys.clone()
    }

    fn round(&mut self, sp: &mut Spans) -> Result<Round, String> {
        let mut r = Round::default();
        self.bad_legs = 0;
        let (a0, b0) = thread_allocs();
        let t = Instant::now();
        for (i, leg) in self.legs.iter_mut().enumerate() {
            sp.set_run(i as u32);
            let w = leg.advance(SOAK_LEGS[i].2, sp);
            r.sim_ns += w.sim_ns;
            r.pkts += w.forwards;
            r.events += w.events;
            self.bad_legs += u64::from(w.bad_flows > 0 || w.forwards == 0);
        }
        r.elapsed_ns = t.elapsed().as_nanos() as u64;
        let (a1, b1) = thread_allocs();
        (r.allocs, r.alloc_bytes) = (a1 - a0, b1 - b0);
        r.busy_ns = r.sim_ns;
        r.ops = self.legs.len() as u64;
        self.last = (r.pkts, r.events);
        Ok(r)
    }

    fn check(&mut self) -> u64 {
        self.reference.get_or_insert(self.last);
        self.bad_legs
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        let (forwards, events) = self.reference.unwrap_or(self.last);
        let flows = self.legs.iter().map(|l| l.flows() as u64).sum();
        vec![("events", events), ("forwards", forwards), ("flows", flows)]
    }
}

// ----------------------------------------------------------------------

struct SweepFanout {
    input: SweepInput,
    threads: usize,
    scratch: PathBuf,
    rounds: u64,
    last: Vec<RunSummary>,
    last_store_failures: u64,
    reference: Vec<RunSummary>,
}

impl SweepFanout {
    fn new(seed: u64, scratch: &Path) -> SweepFanout {
        let base_seed = SeedStream::new(seed, 3).next_u64() >> 16;
        SweepFanout {
            input: SweepInput::new(base_seed),
            threads: cores(),
            scratch: scratch.to_path_buf(),
            rounds: 0,
            last: Vec::new(),
            last_store_failures: 0,
            reference: Vec::new(),
        }
    }
}

impl Workload for SweepFanout {
    fn threads(&self) -> usize {
        self.threads
    }

    fn input_keys(&self) -> Vec<String> {
        self.input.keys()
    }

    fn round(&mut self, sp: &mut Spans) -> Result<Round, String> {
        let dir = self.scratch.join(format!("store-{}", self.rounds));
        self.rounds += 1;
        let t = Instant::now();
        let out = self.input.round(self.threads, &dir, sp)?;
        let elapsed_ns = t.elapsed().as_nanos() as u64;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

        let busy_ns = out.jobs.iter().map(|j| j.end_ns - j.start_ns).sum();
        self.last_store_failures = out.roundtrip_mismatches
            + out.diff_drifted
            + u64::from(out.diff_compared != out.runs.len() as u64);
        let r = Round {
            elapsed_ns,
            ops: out.runs.len() as u64,
            pkts: out
                .runs
                .iter()
                .map(|r| r.keepalive_frames + r.update_frames)
                .sum(),
            busy_ns,
            sim_ns: busy_ns,
            allocs: out.jobs.iter().map(|j| j.allocs).sum(),
            alloc_bytes: out.jobs.iter().map(|j| j.alloc_bytes).sum(),
            ..Round::default()
        };
        self.last = out.runs;
        Ok(r)
    }

    fn check(&mut self) -> u64 {
        if self.reference.is_empty() {
            self.reference = self.last.clone();
        }
        let mut failed = 0;
        for (i, run) in self.last.iter().enumerate() {
            let mut ok = *run == self.reference[i]
                && failure_run_ok(
                    run.convergence_ms,
                    run.window_ms,
                    run.blast_radius,
                    run.routers,
                )
                && run.lost.is_none();
            if run.stack == Stack::Mrmtp.slug() {
                let bgp = self.last.iter().find(|b| {
                    b.stack == Stack::BgpEcmp.slug()
                        && (b.pods, &b.failure, b.seed) == (run.pods, &run.failure, run.seed)
                });
                ok &= bgp.is_some_and(|b| run.control_bytes < b.control_bytes);
            }
            failed += u64::from(!ok);
        }
        (failed + self.last_store_failures).min(self.last.len() as u64)
    }

    fn count_pass(&mut self) -> (u64, u64, u64) {
        let digests: Vec<u64> = self.reference.iter().map(|r| r.digest).collect();
        self.input.count_pass(self.threads, &digests)
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        let sum = |f: fn(&RunSummary) -> u64| self.reference.iter().map(f).sum::<u64>();
        vec![
            (
                "digest_xor",
                self.reference.iter().fold(0, |acc, r| acc ^ r.digest),
            ),
            (
                "convergence_us",
                sum(|r| (r.convergence_ms.unwrap_or(0.0) * 1e3).round() as u64),
            ),
            ("blast_radius", sum(|r| r.blast_radius)),
            ("control_bytes", sum(|r| r.control_bytes)),
            ("update_frames", sum(|r| r.update_frames)),
            ("keepalive_frames", sum(|r| r.keepalive_frames)),
        ]
    }
}

// ----------------------------------------------------------------------

struct ChurnChaos {
    /// (chaos seed, stack), stack-major.
    runs: Vec<(u64, Stack)>,
    last: Vec<ChaosSummary>,
    reference: Vec<ChaosSummary>,
}

/// Chaos seeds per round and stack.
const CHAOS_SEEDS: u64 = 8;

impl ChurnChaos {
    /// Consecutive chaos seeds × 3 stacks.
    fn new(seed: u64) -> ChurnChaos {
        let base = SeedStream::new(seed, 4).next_u64() >> 16;
        let runs = STACKS
            .iter()
            .flat_map(|&stack| (0..CHAOS_SEEDS).map(move |s| (base + s, stack)))
            .collect();
        ChurnChaos {
            runs,
            last: Vec::new(),
            reference: Vec::new(),
        }
    }
}

impl Workload for ChurnChaos {
    fn input_keys(&self) -> Vec<String> {
        self.runs
            .iter()
            .map(|(seed, stack)| format!("chaos;pods=4;stack={};seed={seed}", stack.slug()))
            .collect()
    }

    fn round(&mut self, sp: &mut Spans) -> Result<Round, String> {
        self.last.clear();
        let mut r = Round::default();
        let (a0, b0) = thread_allocs();
        let t = Instant::now();
        for (i, &(seed, stack)) in self.runs.iter().enumerate() {
            sp.set_run(i as u32);
            let out = sp.scope("run", || sut::chaos_run(seed, stack));
            self.last.push(out);
        }
        r.elapsed_ns = t.elapsed().as_nanos() as u64;
        let (a1, b1) = thread_allocs();
        (r.allocs, r.alloc_bytes) = (a1 - a0, b1 - b0);
        r.busy_ns = r.elapsed_ns;
        r.sim_ns = r.elapsed_ns;
        r.ops = self.last.len() as u64;
        r.pkts = self.last.iter().map(|o| o.frames_hit).sum();
        Ok(r)
    }

    fn check(&mut self) -> u64 {
        if self.reference.is_empty() {
            self.reference = self.last.clone();
        }
        self.last
            .iter()
            .zip(&self.reference)
            .filter(|(out, want)| out != want || out.violations != 0 || out.faults == 0)
            .count() as u64
    }

    fn count_pass(&mut self) -> (u64, u64, u64) {
        let mut events = 0;
        let mut mismatches = 0;
        for (&(seed, stack), want) in self.runs.iter().zip(&self.reference) {
            let (n, digest) = sut::chaos_count_events(seed, stack);
            events += n;
            mismatches += u64::from(digest != want.digest);
        }
        // `run_chaos` hands back no trace, so its length is not observable.
        (events, 0, mismatches)
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        let sum = |f: fn(&ChaosSummary) -> u64| self.reference.iter().map(f).sum::<u64>();
        vec![
            (
                "digest_xor",
                self.reference.iter().fold(0, |acc, r| acc ^ r.digest),
            ),
            ("faults", sum(|r| r.faults)),
            ("frames_hit", sum(|r| r.frames_hit)),
            ("window_blackholed", sum(|r| r.window_blackholed)),
            ("violations", sum(|r| r.violations)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Input generation only; fwd-soak converges its legs at construction,
    /// so its port generator is checked on its own below.
    fn keys(name: &str, seed: u64) -> Vec<String> {
        match name {
            "ctrl-failover" => CtrlFailover::new(seed).input_keys(),
            "sweep-fanout" => SweepFanout::new(seed, Path::new("unused")).input_keys(),
            "churn-chaos" => ChurnChaos::new(seed).input_keys(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn seed_drives_every_generated_input() {
        for name in ["ctrl-failover", "sweep-fanout", "churn-chaos"] {
            let a = keys(name, 7);
            assert_eq!(a, keys(name, 7), "{name}: same seed, same inputs");
            assert_ne!(a, keys(name, 8), "{name}: another seed, other inputs");
            let mut unique = a.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), a.len(), "{name}: keys are distinct");
        }
        assert_eq!(keys("ctrl-failover", 1).len(), 12);
        assert_eq!(keys("sweep-fanout", 1).len(), 240);
        assert_eq!(keys("churn-chaos", 1).len(), 24);
    }

    #[test]
    fn soak_ports_follow_the_seed() {
        let ports = |seed| {
            let mut s = SeedStream::new(seed, 2);
            (0..4)
                .map(|_| 5000 + s.below(59_000) as u16)
                .collect::<Vec<_>>()
        };
        assert_eq!(ports(3), ports(3));
        assert_ne!(ports(3), ports(4));
        assert!(ports(3).iter().all(|&p| p >= 5000));
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(setup("nope", 1, Path::new("unused")).is_err());
    }

    #[test]
    fn failure_run_ranges() {
        assert!(failure_run_ok(Some(40.0), 7000.0, 3, 12));
        assert!(!failure_run_ok(None, 7000.0, 3, 12));
        assert!(!failure_run_ok(Some(7000.1), 7000.0, 3, 12));
        assert!(!failure_run_ok(Some(40.0), 7000.0, 0, 12));
        assert!(!failure_run_ok(Some(40.0), 7000.0, 13, 12));
    }
}
