//! The unified experiment description.
//!
//! Every knob the harness can vary — topology, protocol stack, scripted
//! failure, traffic placement, seed, timeline, protocol-timer tuning,
//! telemetry sink, and event-scheduler backend — lives in one [`RunSpec`]
//! built with a fluent chain:
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
//! Every entry point of the crate — [`crate::scenario::run`],
//! [`crate::replicate`], [`crate::report`], [`crate::parallel`], and the
//! `fcr` CLI — consumes a `RunSpec`.

use dcn_sim::SchedulerKind;
use dcn_telemetry::TelemetryConfig;
use dcn_topology::{ClosParams, FailureCase};

use crate::fabric::{Stack, StackTuning};
use crate::scenario::{self, InstrumentedRun, ScenarioResult, Timing, TrafficDir};

/// A full experiment description: everything [`RunSpec::run`] needs to
/// produce a [`ScenarioResult`] deterministically.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Fabric shape.
    pub params: ClosParams,
    /// Protocol stack under test.
    pub stack: Stack,
    /// Scripted interface failure (the paper's TC1–TC4), if any.
    pub failure: Option<FailureCase>,
    /// Monitored-flow placement relative to the failure chain.
    pub traffic: TrafficDir,
    /// Inter-packet gap override for the monitored flow. `None` keeps
    /// [`dcn_traffic::SendSpec`]'s default pacing (≈333 pkt/s); the
    /// loss-window experiments shrink it so the carrier-detection window
    /// (500 µs by default) spans many packets.
    pub traffic_interval: Option<dcn_sim::time::Duration>,
    /// Seed for every deterministic RNG stream in the run.
    pub seed: u64,
    /// Experiment timeline (warmup / failure instant / drain).
    pub timing: Timing,
    /// Protocol-timer overrides for ablation studies.
    pub tuning: StackTuning,
    /// Telemetry sink for instrumented runs. `None` means
    /// [`RunSpec::run_instrumented`] samples with the default cadence;
    /// plain [`RunSpec::run`] never samples.
    pub telemetry: Option<TelemetryConfig>,
    /// Event-scheduler backend (timer wheel by default; the binary heap
    /// remains available for equivalence checking).
    pub scheduler: SchedulerKind,
}

impl RunSpec {
    /// A steady-state spec on `params` × `stack`: no failure, no traffic,
    /// seed 42, the paper's default timeline and timers.
    pub fn new(params: ClosParams, stack: Stack) -> RunSpec {
        RunSpec {
            params,
            stack,
            failure: None,
            traffic: TrafficDir::None,
            traffic_interval: None,
            seed: 42,
            timing: Timing::default(),
            tuning: StackTuning::default(),
            telemetry: None,
            scheduler: SchedulerKind::default(),
        }
    }

    /// Inject failure case `tc` at [`Timing::failure_at`].
    pub fn failing(mut self, tc: FailureCase) -> RunSpec {
        self.failure = Some(tc);
        self
    }

    /// Run the monitored flow in direction `dir`.
    pub fn with_traffic(mut self, dir: TrafficDir) -> RunSpec {
        self.traffic = dir;
        self
    }

    /// Pace the monitored flow at one packet per `interval`.
    pub fn with_traffic_interval(mut self, interval: dcn_sim::time::Duration) -> RunSpec {
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

    /// Enable or disable the data-plane fast path on every router
    /// (compiled FIBs + parse-once frame metadata). On by default; the
    /// equivalence suite runs each spec both ways and asserts bit-equal
    /// trace digests.
    pub fn with_fast_path(mut self, on: bool) -> RunSpec {
        self.tuning.fast_path = on;
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

    /// Attach a telemetry sink configuration for instrumented runs.
    pub fn with_telemetry(mut self, cfg: TelemetryConfig) -> RunSpec {
        self.telemetry = Some(cfg);
        self
    }

    /// Select the event-scheduler backend.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> RunSpec {
        self.scheduler = kind;
        self
    }

    /// Enable engine runtime profiling (events, wall time, hot nodes,
    /// scheduler occupancy). Host-clock observation only: metrics
    /// and trace digests are bit-identical either way — the equivalence
    /// suite enforces it.
    pub fn with_profile(mut self, on: bool) -> RunSpec {
        self.tuning.profile = on;
        self
    }

    /// Canonical serialized form of the spec: a stable `k=v;k=v` string
    /// over every field that can change what the simulation *does*.
    ///
    /// This is the results-store run key — two specs with equal keys are
    /// the same experiment and must produce bit-identical trace digests.
    /// Engine-only knobs the equivalence suite proves digest-invariant
    /// (scheduler backend, profiler) and the
    /// read-only telemetry sink are deliberately *excluded*, so stores
    /// recorded under different engine configurations diff cleanly
    /// against each other.
    pub fn key(&self) -> String {
        let p = &self.params;
        let dur = |d: Option<dcn_sim::time::Duration>| match d {
            Some(d) => d.to_string(),
            None => "-".into(),
        };
        format!(
            "pods={}x{}x{}x{}x{};stack={};failure={};traffic={};interval={};seed={};\
             timing={}/{}/{}/{};timers={};bgp_ka={};bgp_hold={};bfd_tx={};\
             fast_path={};local_repair={}",
            p.pods,
            p.spines_per_pod,
            p.tors_per_pod,
            p.uplinks_per_spine,
            p.servers_per_tor,
            self.stack.slug(),
            self.failure.map(|tc| tc.label().to_ascii_lowercase()).unwrap_or_else(|| "-".into()),
            match self.traffic {
                TrafficDir::None => "none",
                TrafficDir::NearToFar => "near",
                TrafficDir::FarToNear => "far",
            },
            dur(self.traffic_interval),
            self.seed,
            self.timing.warmup,
            self.timing.traffic_lead,
            self.timing.post_failure,
            self.timing.drain,
            // Timer-block overrides are rare (ablations); the Debug form
            // is deterministic and `-` marks the paper defaults.
            self.tuning.mrmtp_timers.map(|t| format!("{t:?}")).unwrap_or_else(|| "-".into()),
            dur(self.tuning.bgp_keepalive),
            dur(self.tuning.bgp_hold),
            dur(self.tuning.bfd_tx_interval),
            self.tuning.fast_path as u8,
            self.tuning.local_repair as u8,
        )
    }

    /// Hash of [`RunSpec::key`] — the store's compact run id. Stable for
    /// a given build (same hasher discipline as the trace digest).
    pub fn key_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.key().hash(&mut h);
        h.finish()
    }

    /// Run to completion and extract the paper's metrics.
    pub fn run(self) -> ScenarioResult {
        scenario::run(self)
    }

    /// Run with the telemetry sink attached (the configured one, or the
    /// default cadence when none was set). Sampling is read-only: the
    /// metrics are identical to [`RunSpec::run`]'s.
    pub fn run_instrumented(self) -> InstrumentedRun {
        scenario::run_instrumented(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_field() {
        let spec = RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmp)
            .failing(FailureCase::Tc2)
            .with_traffic(TrafficDir::FarToNear)
            .seeded(9)
            .with_scheduler(SchedulerKind::Heap)
            .with_telemetry(TelemetryConfig::default());
        assert_eq!(spec.stack, Stack::BgpEcmp);
        assert_eq!(spec.failure, Some(FailureCase::Tc2));
        assert_eq!(spec.traffic, TrafficDir::FarToNear);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.scheduler, SchedulerKind::Heap);
        assert!(spec.telemetry.is_some());
    }

    #[test]
    fn key_distinguishes_experiments_but_not_engine_knobs() {
        let base = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp).failing(FailureCase::Tc1);
        // Engine-only knobs are digest-invariant and excluded from the key.
        assert_eq!(base.key(), base.with_scheduler(SchedulerKind::Heap).key());
        assert_eq!(base.key(), base.with_profile(true).key());
        assert_eq!(base.key(), base.with_telemetry(TelemetryConfig::default()).key());
        // Everything semantic changes it.
        assert_ne!(base.key(), base.seeded(7).key());
        assert_ne!(base.key(), base.failing(FailureCase::Tc2).key());
        assert_ne!(base.key(), RunSpec::new(ClosParams::four_pod(), Stack::Mrmtp).failing(FailureCase::Tc1).key());
        assert_ne!(base.key(), base.with_traffic(TrafficDir::NearToFar).key());
        assert_ne!(base.key(), base.with_local_repair(true).key());
        assert_ne!(base.key(), base.with_fast_path(false).key());
        // The hash tracks the key.
        assert_eq!(base.key_hash(), base.with_scheduler(SchedulerKind::Heap).key_hash());
        assert_ne!(base.key_hash(), base.seeded(7).key_hash());
    }

    /// Literal keys: a store written by one revision is only comparable
    /// with the next if these strings never move, and `benchmark/` keys
    /// its inputs with them.
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
        let steady = RunSpec::new(ClosParams::four_pod(), Stack::BgpEcmpBfd)
            .seeded(3)
            .timed(Timing::steady());
        assert_eq!(
            steady.key(),
            "pods=4x2x2x2x1;stack=bgp-bfd;failure=-;traffic=none;interval=-;seed=3;\
             timing=5000000000/1000000/1000000/1000000;timers=-;bgp_ka=-;bgp_hold=-;\
             bfd_tx=-;fast_path=1;local_repair=0"
        );
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
                ..StackTuning::default()
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
    }

    #[test]
    fn scheduler_backends_produce_identical_metrics() {
        let base = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(FailureCase::Tc4)
            .seeded(3);
        let wheel = base.with_scheduler(SchedulerKind::Wheel).run();
        let heap = base.with_scheduler(SchedulerKind::Heap).run();
        assert_eq!(wheel.convergence_ms, heap.convergence_ms);
        assert_eq!(wheel.blast_radius, heap.blast_radius);
        assert_eq!(wheel.control_bytes, heap.control_bytes);
        assert_eq!(wheel.update_frames, heap.update_frames);
    }
}
