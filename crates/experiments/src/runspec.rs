//! The unified experiment description.
//!
//! A [`RunSpec`] is *what* an experiment is — topology, protocol stack,
//! failure, traffic placement, seed, timeline, protocol tuning — and
//! nothing else: every field is part of [`RunSpec::key`], and two specs
//! with equal keys are the same experiment. *How* a run executes (the
//! scheduler backend, tracing) is not in the spec: it is the
//! [`dcn_sim::SimConfig`] handed to [`crate::scenario::execute`]. The
//! equivalence suite proves the scheduler backend invisible. Settings
//! that no experiment varies (the carrier latency, the BGP session
//! timers, MR-MTP's retransmit interval) are in neither struct: each is
//! a constant beside the code that reads it.
//!
//! ```
//! use dcn_experiments::{RunSpec, Stack, TrafficDir};
//! use dcn_topology::{ClosParams, FailureCase};
//!
//! let r = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
//!     .failing(FailureCase::Tc1)
//!     .with_traffic(TrafficDir::NearToFar)
//!     .seeded(7)
//!     .run();
//! assert!(r.convergence_ms.is_some());
//! ```
//!
//! The scripted harnesses — [`crate::figures`], [`crate::ablations`],
//! [`crate::extended_failures`], [`crate::replicate`], [`crate::report`],
//! [`crate::campaign`] and the `fcr` subcommands built on them — build
//! `RunSpec`s and run them through that one executor. Chaos (`fcr
//! chaos`, [`crate::chaos::run_chaos_with`]) keeps its own orchestration.

use dcn_sim::time::Duration;
use dcn_topology::{ClosParams, Fabric, FailureCase, Zones};

use crate::chaos::FaultEvent;
use crate::extended_failures::ExtendedCase;
use crate::fabric::{Stack, StackTuning};
use crate::scenario::{self, InstrumentedRun, ScenarioResult, Timing, TrafficDir};

/// What fails in a run: the failure axis of a [`RunSpec`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Failure {
    /// Nothing: a steady-state run.
    None,
    /// One of the paper's interface failures, TC1–TC4.
    Case(FailureCase),
    /// A §IX extension: a node crash or a multi-point failure.
    Extended(ExtendedCase),
    /// `flaps` down/up cycles of the interface `at` fails, each phase
    /// lasting `period` (the Slow-to-Accept ablation's flap storm).
    Flaps { at: FailureCase, flaps: u32, period: Duration },
}

impl From<FailureCase> for Failure {
    fn from(tc: FailureCase) -> Failure {
        Failure::Case(tc)
    }
}

impl From<ExtendedCase> for Failure {
    fn from(case: ExtendedCase) -> Failure {
        Failure::Extended(case)
    }
}

/// A campaign grid's failure axis: `None` is the steady-state point.
impl From<Option<FailureCase>> for Failure {
    fn from(tc: Option<FailureCase>) -> Failure {
        tc.map_or(Failure::None, Failure::Case)
    }
}

impl Failure {
    /// The administrative interface transitions this failure consists
    /// of, in scheduling order, with `at` relative to
    /// [`Timing::failure_at`].
    pub fn transitions(self, fabric: &Fabric) -> Vec<FaultEvent> {
        let down = |(node, port): (usize, usize)| FaultEvent { at: 0, node, port, up: false };
        match self {
            Failure::None => Vec::new(),
            Failure::Case(tc) => vec![down(fabric.failure_point(tc))],
            Failure::Extended(case) => case.interfaces(fabric).into_iter().map(down).collect(),
            Failure::Flaps { at, flaps, period } => {
                let (node, port) = fabric.failure_point(at);
                (0..2 * flaps as u64)
                    .map(|i| FaultEvent { at: i * period, node, port, up: i % 2 == 1 })
                    .collect()
            }
        }
    }

    /// Filesystem/CLI-safe identifier: the `fcr` failure argument and the
    /// spec-file and store spelling. [`RunSpec::key`] prints the same
    /// string, except that it marks an absent failure `-` like every
    /// other absent field.
    pub fn slug(self) -> String {
        match self {
            Failure::None => "none".into(),
            Failure::Case(tc) => tc.label().to_ascii_lowercase(),
            Failure::Extended(case) => case.slug().into(),
            Failure::Flaps { at, flaps, period } => {
                format!("flap-{}-{flaps}x{period}", Failure::Case(at).slug())
            }
        }
    }

    /// Inverse of [`Failure::slug`] over the fixed cases — what a command
    /// line or a spec file can name. A flap train is built in code.
    pub fn from_slug(s: &str) -> Option<Failure> {
        [Failure::None]
            .into_iter()
            .chain(FailureCase::ALL.map(Failure::Case))
            .chain(ExtendedCase::ALL.map(Failure::Extended))
            .find(|f| f.slug() == s)
    }

    /// Human-readable name for report headers and artifact metadata.
    pub fn label(self) -> String {
        match self {
            Failure::None => "no failure".into(),
            Failure::Case(tc) => tc.label().into(),
            Failure::Extended(case) => case.label().into(),
            Failure::Flaps { at, flaps, .. } => format!("{flaps} flaps at {}", at.label()),
        }
    }
}

/// A full experiment description: everything [`RunSpec::run`] needs to
/// produce a [`ScenarioResult`] deterministically. It holds exactly the
/// fields [`RunSpec::key`] prints.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Fabric shape.
    pub params: ClosParams,
    /// Protocol stack under test.
    pub stack: Stack,
    /// What fails at [`Timing::failure_at`], if anything.
    pub failure: Failure,
    /// Monitored-flow placement relative to the failure chain.
    pub traffic: TrafficDir,
    /// Inter-packet gap override for the monitored flow. `None` keeps
    /// [`dcn_traffic::SendSpec`]'s default pacing (≈333 pkt/s); the
    /// loss-window experiments shrink it so the carrier-detection window
    /// (500 µs by default) spans many packets.
    pub traffic_interval: Option<Duration>,
    /// Seed for every deterministic RNG stream in the run.
    pub seed: u64,
    /// Experiment timeline (warmup / failure instant / drain).
    pub timing: Timing,
    /// Protocol-timer overrides for ablation studies.
    pub tuning: StackTuning,
}

impl RunSpec {
    /// A steady-state spec on `params` × `stack`: no failure, no traffic,
    /// seed 42, the paper's default timeline and timers.
    pub fn new(params: ClosParams, stack: Stack) -> RunSpec {
        RunSpec {
            params,
            stack,
            failure: Failure::None,
            traffic: TrafficDir::None,
            traffic_interval: None,
            seed: 42,
            timing: Timing::default(),
            tuning: StackTuning::default(),
        }
    }

    /// Inject `failure` — a [`FailureCase`], an [`ExtendedCase`] or any
    /// other [`Failure`] — at [`Timing::failure_at`].
    pub fn failing(mut self, failure: impl Into<Failure>) -> RunSpec {
        self.failure = failure.into();
        self
    }

    /// Run the monitored flow in direction `dir`.
    pub fn with_traffic(mut self, dir: TrafficDir) -> RunSpec {
        self.traffic = dir;
        self
    }

    /// Pace the monitored flow at one packet per `interval`.
    pub fn with_traffic_interval(mut self, interval: Duration) -> RunSpec {
        self.traffic_interval = Some(interval);
        self
    }

    /// Reseed every RNG stream.
    pub fn seeded(mut self, seed: u64) -> RunSpec {
        self.seed = seed;
        self
    }

    /// Replace the experiment timeline.
    pub fn timed(mut self, timing: Timing) -> RunSpec {
        self.timing = timing;
        self
    }

    /// Override protocol timers (ablation studies).
    pub fn tuned(mut self, tuning: StackTuning) -> RunSpec {
        self.tuning = tuning;
        self
    }

    /// Enable or disable local fast reroute (precomputed backup FIBs,
    /// in-data-plane repair around locally-dead ports). Off by default;
    /// the equivalence suite proves the off setting is bit-identical to
    /// the pre-repair code.
    pub fn with_local_repair(mut self, on: bool) -> RunSpec {
        self.tuning.local_repair = on;
        self
    }

    /// Canonical serialized form of the spec: a stable `k=v;k=v` string
    /// over every field.
    ///
    /// This is the results-store run key — two specs with equal keys are
    /// the same experiment and must produce bit-identical trace digests.
    /// The structs are taken apart without `..`, so a field added
    /// to any of them does not compile until someone has decided how the
    /// key prints it.
    pub fn key(&self) -> String {
        let RunSpec { params, stack, failure, traffic, traffic_interval, seed, timing, tuning } =
            *self;
        let ClosParams {
            pods,
            spines_per_pod,
            tors_per_pod,
            uplinks_per_spine,
            servers_per_tor,
            zones,
        } = params;
        let Timing { warmup, traffic_lead, post_failure, drain } = timing;
        let StackTuning { mrmtp_timers, bfd_tx_interval, local_repair } = tuning;
        let dur = |d: Option<Duration>| match d {
            Some(d) => d.to_string(),
            None => "-".into(),
        };
        // Timer-block overrides are rare (ablations); `-` marks the paper
        // defaults. The spelling is the block's former `Debug` text, kept
        // because stored keys carry it; `retransmit_interval` prints its
        // constant.
        let timers = mrmtp_timers.map_or("-".into(), |t| {
            let dcn_mrmtp::MrmtpTimers {
                hello_interval,
                dead_interval,
                accept_hellos,
                loss_holddown,
                advertise_interval,
            } = t;
            format!(
                "MrmtpTimers {{ hello_interval: {hello_interval}, dead_interval: {dead_interval}, \
                 accept_hellos: {accept_hellos}, retransmit_interval: {}, \
                 loss_holddown: {loss_holddown}, advertise_interval: {advertise_interval} }}",
                dcn_mrmtp::reliable::RETRANSMIT_INTERVAL
            )
        });
        // The zone layer prints only when present: three-tier keys, and
        // the stores that hold them, stay valid.
        let zones = zones
            .map_or(String::new(), |Zones { count, uplinks }| format!(";zones={count}x{uplinks}"));
        // `fast_path=1` and `bgp_ka=-;bgp_hold=-` name switches that no
        // longer exist: every run has taken the fast path with the BGP
        // timer constants, and stored keys carry the fields.
        format!(
            "pods={}x{}x{}x{}x{}{};stack={};failure={};traffic={};interval={};seed={};\
             timing={}/{}/{}/{};timers={};bgp_ka=-;bgp_hold=-;bfd_tx={};\
             fast_path=1;local_repair={}",
            pods,
            spines_per_pod,
            tors_per_pod,
            uplinks_per_spine,
            servers_per_tor,
            zones,
            stack.slug(),
            if failure == Failure::None { "-".into() } else { failure.slug() },
            traffic.slug(),
            dur(traffic_interval),
            seed,
            warmup,
            traffic_lead,
            post_failure,
            drain,
            timers,
            dur(bfd_tx_interval),
            local_repair as u8,
        )
    }

    /// [`dcn_sim::hash64`] of [`RunSpec::key`]'s bytes — the store's
    /// compact run id, the same on every host, profile and toolchain.
    pub fn key_hash(&self) -> u64 {
        dcn_sim::hash64(self.key().as_bytes())
    }

    /// Run to completion and extract the paper's metrics.
    pub fn run(self) -> ScenarioResult {
        scenario::run(self)
    }

    /// Run and keep the finished simulation for reports and bundles: the
    /// metrics are identical to [`RunSpec::run`]'s.
    pub fn run_instrumented(self) -> InstrumentedRun {
        scenario::run_instrumented(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::time::millis;

    #[test]
    fn builder_sets_every_field() {
        let spec = RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmp)
            .failing(FailureCase::Tc2)
            .with_traffic(TrafficDir::FarToNear)
            .seeded(9);
        assert_eq!(spec.stack, Stack::BgpEcmp);
        assert_eq!(spec.failure, Failure::Case(FailureCase::Tc2));
        assert_eq!(spec.traffic, TrafficDir::FarToNear);
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn key_distinguishes_experiments() {
        let base = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp).failing(FailureCase::Tc1);
        assert_ne!(base.key(), base.seeded(7).key());
        assert_ne!(base.key(), base.failing(FailureCase::Tc2).key());
        assert_ne!(base.key(), base.failing(ExtendedCase::TopSpineCrash).key());
        assert_ne!(
            base.key(),
            RunSpec::new(ClosParams::four_pod(), Stack::Mrmtp).failing(FailureCase::Tc1).key()
        );
        assert_ne!(base.key(), base.with_traffic(TrafficDir::NearToFar).key());
        assert_ne!(base.key(), base.with_local_repair(true).key());
        // The hash tracks the key.
        assert_eq!(base.key_hash(), base.failing(FailureCase::Tc1).key_hash());
        assert_ne!(base.key_hash(), base.seeded(7).key_hash());
    }

    #[test]
    fn failure_slugs_round_trip() {
        let fixed = [Failure::None]
            .into_iter()
            .chain(FailureCase::ALL.map(Failure::Case))
            .chain(ExtendedCase::ALL.map(Failure::Extended));
        for f in fixed {
            assert_eq!(Failure::from_slug(&f.slug()), Some(f), "{f:?}");
        }
        for bad in ["", "tc5", "TC1", "-"] {
            assert_eq!(Failure::from_slug(bad), None, "{bad:?}");
        }
        let flaps = Failure::Flaps { at: FailureCase::Tc2, flaps: 6, period: millis(80) };
        assert_eq!(flaps.slug(), "flap-tc2-6x80000000");
    }

    #[test]
    fn a_flap_train_alternates_down_and_up_on_one_interface() {
        let fabric = Fabric::build(ClosParams::two_pod());
        let (node, port) = fabric.failure_point(FailureCase::Tc2);
        let train = Failure::Flaps { at: FailureCase::Tc2, flaps: 2, period: 10 };
        let want: Vec<FaultEvent> = [(0, false), (10, true), (20, false), (30, true)]
            .into_iter()
            .map(|(at, up)| FaultEvent { at, node, port, up })
            .collect();
        assert_eq!(train.transitions(&fabric), want);
        assert!(Failure::None.transitions(&fabric).is_empty());
        let crash = Failure::from(ExtendedCase::TopSpineCrash).transitions(&fabric);
        assert_eq!(crash.len(), fabric.ports[fabric.top_spine(0)].len());
        assert!(crash.iter().all(|e| e.at == 0 && !e.up));
    }

    /// Literal keys: a store written by one revision is only comparable
    /// with the next if these strings never move, and `benchmark/` keys
    /// its inputs with them. Their hashes are the stores' run ids.
    #[test]
    fn key_strings_are_pinned() {
        let tc = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(FailureCase::Tc1)
            .with_traffic(TrafficDir::NearToFar)
            .seeded(7);
        assert_eq!(
            tc.key(),
            "pods=2x2x2x2x1;stack=mrmtp;failure=tc1;traffic=near;interval=-;seed=7;\
             timing=5000000000/2000000000/6000000000/1000000000;timers=-;bgp_ka=-;\
             bgp_hold=-;bfd_tx=-;fast_path=1;local_repair=0"
        );
        assert_eq!(tc.key_hash(), 0xdb90_3943_46b9_fc15);
        let steady = RunSpec::new(ClosParams::four_pod(), Stack::BgpEcmpBfd)
            .seeded(3)
            .timed(Timing::steady());
        assert_eq!(
            steady.key(),
            "pods=4x2x2x2x1;stack=bgp-bfd;failure=-;traffic=none;interval=-;seed=3;\
             timing=5000000000/1000000/1000000/1000000;timers=-;bgp_ka=-;bgp_hold=-;\
             bfd_tx=-;fast_path=1;local_repair=0"
        );
        assert_eq!(steady.key_hash(), 0x70b1_bf01_52f9_c5c1);
        let timers = dcn_mrmtp::MrmtpTimers { loss_holddown: 0, ..Default::default() };
        let tuned = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(FailureCase::Tc1)
            .with_traffic(TrafficDir::FarToNear)
            .with_traffic_interval(25_000)
            .seeded(42)
            .tuned(StackTuning {
                mrmtp_timers: Some(timers),
                bfd_tx_interval: Some(50_000_000),
                local_repair: true,
            });
        assert_eq!(
            tuned.key(),
            "pods=2x2x2x2x1;stack=mrmtp;failure=tc1;traffic=far;interval=25000;seed=42;\
             timing=5000000000/2000000000/6000000000/1000000000;\
             timers=MrmtpTimers { hello_interval: 50000000, dead_interval: 100000000, \
             accept_hellos: 3, retransmit_interval: 20000000, loss_holddown: 0, \
             advertise_interval: 1000000000 };\
             bgp_ka=-;bgp_hold=-;bfd_tx=50000000;fast_path=1;local_repair=1"
        );
        assert_eq!(tuned.key_hash(), 0x523d_2bb4_df2b_4942);
    }

    /// The tier comparison's two runs differ only in the zone layer, and
    /// so must their keys; the four-tier one is pinned like the others.
    #[test]
    fn the_zone_layer_is_in_the_key() {
        let timing = Timing {
            warmup: 5_000_000_000,
            traffic_lead: 0,
            post_failure: 5_000_000_000,
            drain: 0,
        };
        let tiers =
            |params| RunSpec::new(params, Stack::Mrmtp).failing(FailureCase::Tc1).timed(timing);
        let (three, four) = (tiers(ClosParams::four_pod()), tiers(ClosParams::four_tier()));
        assert_ne!(three.key(), four.key());
        assert_eq!(
            four.key(),
            "pods=4x2x2x2x1;zones=2x2;stack=mrmtp;failure=tc1;traffic=none;interval=-;seed=42;\
             timing=5000000000/0/5000000000/0;timers=-;bgp_ka=-;bgp_hold=-;bfd_tx=-;\
             fast_path=1;local_repair=0"
        );
        assert_eq!(four.key_hash(), 0xb058_ef01_abdc_303f);
    }
}
