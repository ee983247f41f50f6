//! Equivalence suite for the engine's *invisible* optimizations.
//!
//! One substitution must never change observable behavior: the timer
//! wheel must be a drop-in replacement for the reference binary heap.
//! For every paper failure case on both protocol stacks, and for
//! randomized chaos schedules, a run's trace digest must be bit-identical
//! whichever backend executes it — same events, same order, same bytes
//! on the wire. The scheduler backend is *how* a run executes, so it is
//! selected the way every engine option is: by the `SimConfig` handed to
//! the executor.
//!
//! That a router acts on parse-once frame metadata exactly as on the
//! decoded frame is held where the routers live:
//! `crates/core/tests/meshed_tree.rs` and `crates/bgp/tests/meta_invisible.rs`.

mod golden;

use dcn_experiments::chaos::{run_chaos_with, trace_digest};
use dcn_experiments::scenario::execute;
use dcn_experiments::{run_digest, run_instrumented, RunSpec, Stack, TrafficDir};
use dcn_sim::{SchedulerKind, SimConfig};
use dcn_topology::{ClosParams, FailureCase};
use golden::quick_chaos;

fn backend(scheduler: SchedulerKind) -> SimConfig {
    SimConfig { scheduler, ..SimConfig::default() }
}

fn digest_on(spec: RunSpec, scheduler: SchedulerKind) -> u64 {
    trace_digest(&execute(&spec, backend(scheduler)).1.sim)
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
        let run = |kind| run_chaos_with(seed, Stack::Mrmtp, &quick_chaos(), backend(kind)).0;
        let (heap, wheel) = (run(SchedulerKind::Heap), run(SchedulerKind::Wheel));
        assert_eq!(heap.digest, wheel.digest, "chaos seed {seed}: backends diverged");
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
/// invisible: same events, same order, same bytes on the wire. The
/// first eleven cells were last regenerated when the digest's definition
/// became `trace64/v1` (canonical records through `hash64`, DESIGN.md
/// §16), in a commit whose version of this test also held every cell's
/// run to its previous pin under the previous definition — so the values
/// still pin the behaviour of the polling-tick routers the first pins
/// were taken from. The four chaos cells with traffic came later, pinned
/// before the code they guard changed: they are the runs whose routers
/// parse data frames that corruption stripped of their metadata, and the
/// one repair-on cell holds that such a frame is never repaired. The two
/// four-tier cells pin TC1 on the §IX zone fabric, so the fabric builder
/// cannot change its wiring under the tier comparison unnoticed.
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
    // Each backend, and the instrumented run that reports and bundles
    // read.
    let spec = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp);
    let bare = run_digest(spec);
    assert_eq!(digest_on(spec, SchedulerKind::Heap), bare, "the heap backend changed the digest");
    assert_eq!(digest_on(spec, SchedulerKind::Wheel), bare, "the wheel backend changed the digest");
    let instrumented = trace_digest(&run_instrumented(spec).built.sim);
    assert_eq!(instrumented, bare, "the instrumented run changed the digest");
}
