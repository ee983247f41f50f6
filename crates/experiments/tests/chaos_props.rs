//! Property tests for the chaos campaign engine: randomized fault
//! schedules on the paper's 2-PoD fabric must be bit-deterministic per
//! seed and must never leave a forwarding loop or black hole after the
//! fabric heals and quiesces — for both protocol stacks.

use dcn_experiments::chaos::{run_chaos, ChaosConfig, FaultSchedule};
use dcn_experiments::Stack;
use dcn_sim::time::{MILLIS, SECONDS};
use dcn_topology::Fabric;
use proptest::prelude::*;

fn cfg_from(flaps: usize, crashes: usize, k: usize, corrupt_ppm: u32) -> ChaosConfig {
    let mut cfg = ChaosConfig {
        flaps,
        crashes,
        k_concurrent: k,
        // Keep runs short: a 4 s fault window still fits several
        // overlapping faults.
        window: 4 * SECONDS,
        flows_per_pair: 2,
        ..ChaosConfig::default()
    };
    cfg.impairment.corrupt_ppm = corrupt_ppm;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed → bit-identical schedule, and every interface the
    /// schedule takes down is back up by the end of the fault window.
    #[test]
    fn schedules_are_deterministic_and_healed(
        seed in 0u64..1_000_000,
        flaps in 0usize..8,
        crashes in 0usize..2,
        k in 0usize..4,
    ) {
        let cfg = cfg_from(flaps, crashes, k, 10_000);
        let fabric = Fabric::build(cfg.params);
        let a = FaultSchedule::generate(seed, &fabric, &cfg);
        let b = FaultSchedule::generate(seed, &fabric, &cfg);
        prop_assert_eq!(&a.events, &b.events);

        let mut state = std::collections::HashMap::new();
        for e in &a.events {
            prop_assert!(e.at >= cfg.warmup && e.at <= cfg.heal_at());
            state.insert((e.node, e.port), e.up);
        }
        prop_assert!(state.values().all(|&up| up));
    }

    /// Full chaos runs on the 2-PoD fabric: same-seed runs produce the
    /// same trace digest, and after quiescence there are no forwarding
    /// loops and no black holes — for both stacks.
    #[test]
    fn chaos_runs_deterministic_and_invariant_clean(
        seed in 0u64..1_000_000,
        flaps in 1usize..6,
        k in 0usize..3,
        corrupt in prop_oneof![Just(0u32), Just(10_000u32)],
    ) {
        let cfg = cfg_from(flaps, 1, k, corrupt);
        for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
            let a = run_chaos(seed, stack, &cfg);
            let b = run_chaos(seed, stack, &cfg);
            prop_assert_eq!(a.digest, b.digest, "non-deterministic: {:?}", stack);
            prop_assert_eq!(a.loops, 0, "loops under {:?}", stack);
            prop_assert_eq!(a.black_holes, 0, "black holes under {:?}", stack);
            prop_assert!(
                a.converged,
                "stack {:?} still churning {:?} after heal",
                stack,
                a.convergence.map(|d| d / MILLIS)
            );
        }
    }
}
