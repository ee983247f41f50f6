//! Equivalence suite for the engine's *invisible* optimizations.
//!
//! Two independent substitutions must never change observable behavior:
//!
//! 1. **Scheduler backends** — the timer wheel must be a drop-in
//!    replacement for the reference binary heap.
//! 2. **The data-plane fast path** — compiled FIBs plus parse-once frame
//!    metadata must forward every packet exactly as the slow path's
//!    decode → table-walk → re-encode does.
//!
//! For every paper failure case on both protocol stacks, and for
//! randomized chaos schedules, a run's trace digest must be
//! bit-identical whichever variant executes it — same events, same
//! order, same bytes on the wire. The scheduler backend is *how* a run
//! executes, so it is selected the way every engine option is: by the
//! `SimConfig` handed to the executor. The fast path is router tuning,
//! part of the spec's `StackTuning`.

mod golden;

use dcn_experiments::chaos::{run_chaos, run_chaos_with, trace_digest};
use dcn_experiments::scenario::execute;
use dcn_experiments::{run_digest, ChaosConfig, RunSpec, Stack, StackTuning, TrafficDir};
use dcn_sim::{SchedulerKind, SimConfig};
use dcn_telemetry::{Telemetry, TelemetryConfig};
use dcn_topology::{ClosParams, Fabric, FailureCase};
use golden::quick_chaos;

fn backend(scheduler: SchedulerKind) -> SimConfig {
    SimConfig { scheduler, ..SimConfig::default() }
}

fn digest_on(spec: RunSpec, scheduler: SchedulerKind) -> u64 {
    trace_digest(&execute(Fabric::build(spec.params), &spec, backend(scheduler), None).1.sim)
}

fn digests_match(spec: RunSpec) {
    let heap = digest_on(spec, SchedulerKind::Heap);
    let wheel = digest_on(spec, SchedulerKind::Wheel);
    assert_eq!(heap, wheel, "backends diverged for {spec:?}");
}

#[test]
fn tc_cases_digest_identically_on_mrmtp() {
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        digests_match(RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp).failing(tc));
    }
}

#[test]
fn tc_cases_digest_identically_on_bgp() {
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        digests_match(RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmp).failing(tc));
    }
}

#[test]
fn traffic_and_bfd_digest_identically() {
    // The headline data-plane case (traffic pins the flow onto the
    // failure chain) and the BFD stack, one TC each to bound runtime.
    digests_match(
        RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(FailureCase::Tc1)
            .with_traffic(TrafficDir::NearToFar),
    );
    digests_match(RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmpBfd).failing(FailureCase::Tc1));
}

#[test]
fn chaos_seeds_digest_identically_across_backends() {
    for seed in [11u64, 12, 13] {
        let run = |kind| run_chaos_with(seed, Stack::Mrmtp, &quick_chaos(), backend(kind), None).0;
        let (heap, wheel) = (run(SchedulerKind::Heap), run(SchedulerKind::Wheel));
        assert_eq!(
            heap.digest, wheel.digest,
            "chaos seed {seed}: backends diverged"
        );
    }
}

// ----------------------------------------------------------------------
// Fast-path equivalence: compiled FIBs + parse-once metadata on vs off
// ----------------------------------------------------------------------

fn fast_path_invisible(spec: RunSpec) {
    let on = run_digest(spec.with_fast_path(true));
    let off = run_digest(spec.with_fast_path(false));
    assert_eq!(on, off, "fast path changed behavior for {spec:?}");
}

#[test]
fn fast_path_digest_identical_on_mrmtp_tc_cases() {
    // Traffic pins monitored flows onto the failure chain so the digest
    // covers data forwarding through the event, not just control plane.
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        fast_path_invisible(
            RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
                .failing(tc)
                .with_traffic(TrafficDir::NearToFar),
        );
    }
}

#[test]
fn fast_path_digest_identical_on_bgp_tc_cases() {
    for tc in [FailureCase::Tc1, FailureCase::Tc2, FailureCase::Tc3, FailureCase::Tc4] {
        fast_path_invisible(
            RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmp)
                .failing(tc)
                .with_traffic(TrafficDir::FarToNear),
        );
    }
}

#[test]
fn fast_path_digest_identical_with_bfd() {
    fast_path_invisible(
        RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmpBfd)
            .failing(FailureCase::Tc1)
            .with_traffic(TrafficDir::NearToFar),
    );
}

#[test]
fn fast_path_digest_identical_under_chaos() {
    // Chaos adds loss, corruption, jitter, flaps, and crashes — the
    // fast path must shrug all of it off (corrupted frames drop their
    // metadata in transit and fall back to the slow path).
    let slow = StackTuning { fast_path: false, ..StackTuning::default() };
    let slow_cfg = ChaosConfig { tuning: slow, ..quick_chaos() };
    for (stack, seed) in [(Stack::Mrmtp, 21u64), (Stack::Mrmtp, 22), (Stack::BgpEcmp, 23)] {
        let on = run_chaos(seed, stack, &quick_chaos());
        let off = run_chaos(seed, stack, &slow_cfg);
        assert_eq!(on.digest, off.digest, "{} chaos seed {seed}: fast path diverged", stack.label());
    }
}

// ----------------------------------------------------------------------
// Local-repair off-mode: bit-identical to the pre-repair engine
// ----------------------------------------------------------------------

/// Golden trace digests freezing the default configuration's observable
/// behavior, pinned in `golden_digests.txt` (regenerate with
/// `cargo run --release -p dcn-experiments --example golden_digests`).
/// With `local_repair` off — the default — the backup-FIB compilation,
/// the repair lookup stages, and the `repaired` frame flag must all be
/// invisible: same events, same order, same bytes on the wire. Last
/// regenerated when the digest's definition became `trace64/v1`
/// (canonical records through `hash64`, DESIGN.md §16), in a commit whose
/// version of this test also held every cell's run to its previous pin
/// under the previous definition — so the values still pin the behaviour
/// of the polling-tick routers the first pins were taken from.
#[test]
fn local_repair_off_matches_pre_change_golden_digests() {
    // Line by line first, so a drift names its cell; then the whole file,
    // which CI also regenerates and diffs.
    let table = golden::golden_table();
    let pinned = include_str!("golden_digests.txt");
    for (got, want) in table.lines().zip(pinned.lines()) {
        assert_eq!(got, want, "off-mode digest drifted from golden_digests.txt");
    }
    assert_eq!(table, pinned);
}

#[test]
fn steady_state_digest_identical_without_failure() {
    // Both halves of "how": each backend, with the sampler attached.
    let spec = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp);
    let sampled = |kind| {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        let fabric = Fabric::build(spec.params);
        trace_digest(&execute(fabric, &spec, backend(kind), Some(&mut tel)).1.sim)
    };
    let (heap, wheel) = (sampled(SchedulerKind::Heap), sampled(SchedulerKind::Wheel));
    assert_eq!(heap, wheel, "telemetry-instrumented runs diverged");
    assert_eq!(heap, run_digest(spec), "the sampler or the backend changed the digest");
}
