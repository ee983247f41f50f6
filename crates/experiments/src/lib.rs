//! # dcn-experiments — the reproduction harness
//!
//! Everything needed to regenerate the paper's evaluation (§VII): build a
//! folded-Clos fabric running one of the three protocol stacks, pin a
//! monitored flow onto the failure chain, inject the TC1–TC4 interface
//! failures, and extract the metrics of Figs. 4–10 and Listings 1–5.
//!
//! Entry points:
//! * [`runspec::RunSpec`] — what an experiment is: topology × stack ×
//!   failure × traffic × seed × timing × tuning, with `.run()` /
//!   `.run_instrumented()`.
//! * [`scenario::execute`] — the one run loop every scripted harness
//!   goes through; how a run executes is its [`dcn_sim::SimConfig`].
//! * [`figures`] — one function per paper figure, returning printable
//!   tables (these are what `fcr figures` and the examples call).
//! * [`campaign`] — fleet-scale orchestration: a [`campaign::CampaignSpec`]
//!   grid expanded over the shared work-stealing [`campaign::pool`] (the
//!   emulator is deterministic and single-threaded; runs are
//!   embarrassingly parallel, and every harness fans out through it),
//!   results landing in an append-only store (`campaign/v1`) that
//!   `fcr campaign diff` turns into a cross-revision regression gate.
//! * [`replicate`] — the paper's multi-run averaging (mean [min–max]
//!   across seeds).
//! * [`ablations`] — quantify Slow-to-Accept, the loss hold-down, and
//!   the §IX timer trade-offs by switching each off or sweeping it.
//! * [`extended_failures`] — §IX's extended cases: node crashes and
//!   multi-point failures.

pub mod ablations;
pub mod campaign;
pub mod chaos;
pub mod extended_failures;
pub mod fabric;
pub mod figures;
pub mod flows;
pub mod profile;
pub mod replicate;
pub mod report;
pub mod runspec;
pub mod scenario;
pub mod table;

pub use campaign::CampaignSpec;
pub use chaos::{
    run_campaign, run_chaos, run_chaos_profiled, CampaignConfig, ChaosConfig, FaultSchedule,
};
pub use fabric::{build_fabric_sim_cfg, build_sim, BuiltSim, Stack, StackTuning};
pub use profile::{perf_report, write_profile_artifacts};
pub use runspec::{Failure, RunSpec};
pub use scenario::{
    bundle_from_run, run, run_digest, run_instrumented, InstrumentedRun, ScenarioResult, Timing,
    TrafficDir,
};
