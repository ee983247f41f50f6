//! Property tests for campaign grid expansion and the results store.
//!
//! Expansion must be exhaustive (one run per distinct grid point per
//! seed) and duplicate-free on the canonical key, even when the spec's
//! axis vectors arrive with repeated entries — hand-written JSON specs
//! do that. The store must round-trip records exactly: what `append`
//! wrote is what `records` reads back after a reopen.

use std::collections::BTreeSet;

use dcn_experiments::campaign::store::{RunRecord, Store};
use dcn_experiments::campaign::CampaignSpec;
use dcn_experiments::{Stack, TrafficDir};
use dcn_topology::FailureCase;
use proptest::prelude::*;

/// An axis vector drawn from `values` with repetition allowed, so the
/// dedup-before-expansion contract is actually exercised.
fn axis<T: Clone + std::fmt::Debug + 'static>(
    values: Vec<T>,
) -> impl Strategy<Value = Vec<T>> {
    prop::collection::vec(prop::sample::select(values), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Expansion yields exactly (product of deduped axis lengths) ×
    /// seeds runs, and every run has a distinct canonical key.
    #[test]
    fn expansion_is_exhaustive_and_duplicate_free(
        pods in axis(vec![2usize, 4, 6, 8]),
        stacks in axis(vec![Stack::Mrmtp, Stack::BgpEcmp, Stack::BgpEcmpBfd]),
        failures in axis(vec![
            None,
            Some(FailureCase::Tc1),
            Some(FailureCase::Tc2),
            Some(FailureCase::Tc3),
            Some(FailureCase::Tc4),
        ]),
        traffic in axis(vec![TrafficDir::None, TrafficDir::NearToFar, TrafficDir::FarToNear]),
        local_repair in axis(vec![false, true]),
        seeds in 1u64..5,
        base_seed in 0u64..1000,
        quick in any::<bool>(),
    ) {
        let spec = CampaignSpec {
            name: "prop".into(),
            pods: pods.clone(),
            stacks: stacks.clone(),
            failures: failures.clone(),
            traffic: traffic.clone(),
            local_repair: local_repair.clone(),
            seeds,
            base_seed,
            quick,
        };
        let distinct = |n: usize| n; // readability below
        let uniq = |v: Vec<String>| -> usize { v.into_iter().collect::<BTreeSet<_>>().len() };
        let expected = distinct(uniq(pods.iter().map(|p| p.to_string()).collect()))
            * uniq(stacks.iter().map(|s| format!("{s:?}")).collect())
            * uniq(failures.iter().map(|f| format!("{f:?}")).collect())
            * uniq(traffic.iter().map(|t| format!("{t:?}")).collect())
            * uniq(local_repair.iter().map(|b| b.to_string()).collect())
            * seeds as usize;
        prop_assert_eq!(spec.total_runs() as usize, expected);
        let runs = spec.expand().unwrap();
        prop_assert_eq!(runs.len(), expected, "expansion is exhaustive over distinct points");
        let keys: BTreeSet<String> = runs.iter().map(|r| r.key()).collect();
        prop_assert_eq!(keys.len(), runs.len(), "canonical keys are duplicate-free");
        let hashes: BTreeSet<u64> = runs.iter().map(|r| r.key_hash()).collect();
        prop_assert_eq!(hashes.len(), runs.len(), "key hashes don't collide on this grid");
    }

    /// Records survive append → reopen → read unchanged, and last-wins
    /// key resolution picks the most recently appended duplicate.
    #[test]
    fn store_round_trips_records(
        n in 1usize..8,
        digest in any::<u64>(),
        conv in prop::option::of((0u64..5_000_000).prop_map(|us| us as f64 / 1e3)),
        lost in prop::option::of(0u64..100),
        with_phases in any::<bool>(),
        case in 0u64..1_000_000,
    ) {
        let records: Vec<RunRecord> = (0..n as u64)
            .map(|i| RunRecord {
                key: format!("seed={i}"),
                key_hash: i.wrapping_mul(0x9e37_79b9),
                pods: 2 + 2 * (i % 3),
                stack: "mrmtp".into(),
                failure: "tc1".into(),
                traffic: "none".into(),
                seed: i,
                local_repair: i % 2 == 0,
                digest: digest ^ i,
                convergence_ms: conv,
                blast_radius: 3 + i,
                control_bytes: 1000 * (i + 1),
                update_frames: 10 + i,
                packets_lost: lost,
                keepalive_frames: 200,
                phases: with_phases.then_some((1.0, 39.0, 0.5)),
                wall_ms: 12.5,
            })
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "dcn-campaign-prop-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::create(&dir, "prop", dcn_telemetry::Json::Null, n as u64).unwrap();
        store.append_all(&records).unwrap();
        // Reopen from disk: everything must come back exactly.
        let reopened = Store::open(&dir).unwrap();
        let back = reopened.records().unwrap();
        prop_assert_eq!(&back, &records);
        // Duplicate key: the later append wins in latest().
        let mut rewrite = records[0].clone();
        rewrite.digest ^= 0xdead_beef;
        reopened.append(&rewrite).unwrap();
        let latest = reopened.latest().unwrap();
        prop_assert_eq!(latest.len(), n);
        prop_assert_eq!(latest.get("seed=0").unwrap(), &rewrite);
        std::fs::remove_dir_all(&dir).ok();
    }
}
