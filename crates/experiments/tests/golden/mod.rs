//! The golden cells: the runs whose trace digests `golden_digests.txt`
//! pins. Shared by `tests/equivalence.rs`, which checks the file, and
//! `examples/golden_digests.rs`, which writes it — one list of cells and
//! one `quick_chaos()`, so the two cannot disagree about what is pinned.

use std::fmt::Write as _;

use dcn_experiments::chaos::{run_chaos, ChaosConfig};
use dcn_experiments::{run_digest, Failure, RunSpec, Stack, StackTuning, Timing, TrafficDir};
use dcn_sim::time::{MICROS, MILLIS, SECONDS};
use dcn_sim::Impairment;
use dcn_topology::{ClosParams, FailureCase};

/// A trimmed chaos config (short windows, light impairment) so a handful
/// of seeds × two backends stay test-suite friendly.
pub fn quick_chaos() -> ChaosConfig {
    ChaosConfig {
        flaps: 3,
        crashes: 1,
        k_concurrent: 2,
        warmup: 2 * SECONDS,
        window: 2 * SECONDS,
        settle: 4 * SECONDS,
        convergence_bound: 4 * SECONDS,
        min_dwell: 100 * MILLIS,
        max_dwell: 500 * MILLIS,
        impairment: Impairment { loss_ppm: 1_000, corrupt_ppm: 5_000, jitter: 20 * MICROS },
        flows_per_pair: 1,
        ..ChaosConfig::default()
    }
}

/// The text of `golden_digests.txt`: one `label digest` line per cell —
/// TC1–TC4 on MR-MTP and BGP with traffic pinned onto the failure chain,
/// then three chaos seeds, then four chaos seeds with two traffic pairs
/// through the corrupting fault window: the runs in which routers parse
/// data frames that lost their metadata, MR-MTP's also with local repair;
/// last, TC1 on the four-tier fabric for MR-MTP and BGP, under the tier
/// comparison's timeline.
pub fn golden_table() -> String {
    let mut out = String::from(
        "# Trace digests (trace64/v1) of the golden cells. Do not edit by hand:\n\
         # cargo run --release -p dcn-experiments --example golden_digests\n",
    );
    let mut line = |label: String, digest: u64| {
        writeln!(out, "{label} {digest:#018x}").expect("writing to a String");
    };
    for (stack, dir) in
        [(Stack::Mrmtp, TrafficDir::NearToFar), (Stack::BgpEcmp, TrafficDir::FarToNear)]
    {
        for tc in FailureCase::ALL {
            let spec = RunSpec::new(ClosParams::two_pod(), stack).failing(tc).with_traffic(dir);
            line(format!("{} {}", stack.slug(), Failure::Case(tc).slug()), run_digest(spec));
        }
    }
    for (stack, seed) in [(Stack::Mrmtp, 21u64), (Stack::Mrmtp, 22), (Stack::BgpEcmp, 23)] {
        let run = run_chaos(seed, stack, &quick_chaos());
        line(format!("chaos {} {seed}", stack.slug()), run.digest);
    }
    let traffic = |local_repair| ChaosConfig {
        traffic_pairs: 2,
        tuning: StackTuning { local_repair, ..StackTuning::default() },
        ..quick_chaos()
    };
    for (stack, seed, repair) in [
        (Stack::Mrmtp, 22u64, false),
        (Stack::Mrmtp, 22, true),
        (Stack::BgpEcmp, 23, false),
        (Stack::BgpEcmpBfd, 24, false),
    ] {
        let run = run_chaos(seed, stack, &traffic(repair));
        let label = if repair { "traffic repair" } else { "traffic" };
        line(format!("chaos {} {seed} {label}", stack.slug()), run.digest);
    }
    let tiers =
        Timing { warmup: 5 * SECONDS, traffic_lead: 0, post_failure: 5 * SECONDS, drain: 0 };
    for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
        let spec =
            RunSpec::new(ClosParams::four_tier(), stack).failing(FailureCase::Tc1).timed(tiers);
        line(format!("four-tier {} tc1", stack.slug()), run_digest(spec));
    }
    out
}
