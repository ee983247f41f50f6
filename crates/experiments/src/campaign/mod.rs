//! Fleet-scale campaign orchestration.
//!
//! A [`CampaignSpec`] declares a grid over [`RunSpec`] axes (topology ×
//! stack × failure case × traffic × local repair × seeds); [`run_to_store`]
//! expands it and fans every run out across cores through the shared
//! work-stealing [`pool`]; each finished run lands in an append-only
//! [`store::Store`] as one [`store::RunRecord`] carrying the canonical
//! spec key, the trace digest, the paper metrics and the storyboard phase
//! breakdown. Two stores — typically the same spec at two git revisions —
//! are then compared with [`diff::diff`], which turns the whole grid into
//! a regression gate: digests must be bit-identical, metrics may drift
//! only within a threshold.
//!
//! Surfaced on the CLI as `fcr campaign run <spec> | report <store> |
//! diff <store-a> <store-b>`.

pub mod diff;
pub mod pool;
pub mod store;

use dcn_telemetry::Json;
use dcn_topology::{ClosParams, FailureCase};

use crate::fabric::Stack;
use crate::figures::Figure;
use crate::runspec::{Failure, RunSpec};
use crate::scenario::{self, Timing, TrafficDir};
use store::{RunRecord, Store};

/// Spec-document schema identifier (`fcr campaign run` input files).
pub const SPEC_SCHEMA: &str = "campaign-spec/v1";

/// A declared grid over experiment axes. Axis vectors may arrive with
/// duplicates (hand-written JSON); expansion dedups each axis first, so
/// the expanded grid is exhaustive and duplicate-free by construction.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    pub name: String,
    /// Fabric sizes in PoDs (2 is the paper testbed shape).
    pub pods: Vec<usize>,
    pub stacks: Vec<Stack>,
    /// Failure cases; `None` is a steady-state run.
    pub failures: Vec<Option<FailureCase>>,
    pub traffic: Vec<TrafficDir>,
    pub local_repair: Vec<bool>,
    /// Seeds per grid point: `base_seed..base_seed + seeds`.
    pub seeds: u64,
    pub base_seed: u64,
    /// Shortened per-run timeline ([`Timing::quick`]) for smoke runs.
    pub quick: bool,
}

impl Default for CampaignSpec {
    /// The acceptance grid: 2 shapes × 2 stacks × TC1–TC2 × 3 seeds =
    /// 24 runs.
    fn default() -> CampaignSpec {
        CampaignSpec {
            name: "default".into(),
            pods: vec![2, 4],
            stacks: vec![Stack::Mrmtp, Stack::BgpEcmp],
            failures: vec![Some(FailureCase::Tc1), Some(FailureCase::Tc2)],
            traffic: vec![TrafficDir::None],
            local_repair: vec![false],
            seeds: 3,
            base_seed: 1,
            quick: false,
        }
    }
}

/// `values` without repeats, first occurrences in order.
pub fn dedup<T: PartialEq + Copy>(values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for &v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

impl CampaignSpec {
    /// Parse a spec document (see EXPERIMENTS.md for the format). Every
    /// field is optional; omitted axes keep the default grid's values.
    /// Spec files arrive from outside the program, so a key this build
    /// does not know or a value of the wrong type is an error naming the
    /// key — never a silent fall-back to the default grid.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        /// An axis: an array whose every entry `get` accepts.
        fn axis<T>(v: &Json, get: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
            v.as_arr()?.iter().map(get).collect()
        }
        let doc = Json::parse(text.trim()).map_err(|e| format!("spec parse error: {e}"))?;
        let Json::Obj(fields) = &doc else {
            return Err("spec document must be a JSON object".into());
        };
        let mut spec = CampaignSpec::default();
        for (key, v) in fields {
            let bad = |what: &str| format!("spec field {key:?} must be {what}");
            match key.as_str() {
                "schema" => {
                    let schema = v.as_str().ok_or_else(|| bad("a string"))?;
                    if schema != SPEC_SCHEMA {
                        return Err(format!(
                            "unsupported spec schema {schema:?} (this build reads {SPEC_SCHEMA:?})"
                        ));
                    }
                }
                "name" => spec.name = v.as_str().ok_or_else(|| bad("a string"))?.to_string(),
                "pods" => {
                    spec.pods = axis(v, |e| e.as_u64().map(|p| p as usize))
                        .ok_or_else(|| bad("an array of integers"))?
                }
                "stacks" => {
                    spec.stacks = axis(v, |e| Stack::from_slug(e.as_str()?))
                        .ok_or_else(|| bad("an array of mrmtp|bgp|bgp-bfd"))?
                }
                // The grid's failure axis holds the paper's cases only.
                "failures" => {
                    spec.failures = axis(v, |e| match Failure::from_slug(e.as_str()?)? {
                        Failure::None => Some(None),
                        Failure::Case(tc) => Some(Some(tc)),
                        _ => None,
                    })
                    .ok_or_else(|| bad("an array of tc1..tc4|none"))?
                }
                "traffic" => {
                    spec.traffic = axis(v, |e| TrafficDir::from_slug(e.as_str()?))
                        .ok_or_else(|| bad("an array of none|near|far"))?
                }
                "local_repair" => {
                    spec.local_repair =
                        axis(v, Json::as_bool).ok_or_else(|| bad("an array of booleans"))?
                }
                "seeds" => spec.seeds = v.as_u64().ok_or_else(|| bad("an integer"))?,
                "base_seed" => spec.base_seed = v.as_u64().ok_or_else(|| bad("an integer"))?,
                "quick" => spec.quick = v.as_bool().ok_or_else(|| bad("a boolean"))?,
                _ => return Err(format!("unknown spec field {key:?}")),
            }
        }
        Ok(spec)
    }

    /// Serialize back to the spec document (echoed into the store's
    /// index header so a store records what produced it).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SPEC_SCHEMA)),
            ("name", Json::str(self.name.as_str())),
            ("pods", Json::Arr(dedup(&self.pods).into_iter().map(|p| Json::UInt(p as u64)).collect())),
            (
                "stacks",
                Json::Arr(dedup(&self.stacks).into_iter().map(|s| Json::str(s.slug())).collect()),
            ),
            (
                "failures",
                Json::Arr(dedup(&self.failures).into_iter().map(|tc| Json::str(Failure::from(tc).slug())).collect()),
            ),
            (
                "traffic",
                Json::Arr(dedup(&self.traffic).into_iter().map(|d| Json::str(d.slug())).collect()),
            ),
            (
                "local_repair",
                Json::Arr(dedup(&self.local_repair).into_iter().map(Json::Bool).collect()),
            ),
            ("seeds", Json::UInt(self.seeds)),
            ("base_seed", Json::UInt(self.base_seed)),
            ("quick", Json::Bool(self.quick)),
        ])
    }

    /// Grid size after axis dedup.
    pub fn total_runs(&self) -> u64 {
        (dedup(&self.pods).len()
            * dedup(&self.stacks).len()
            * dedup(&self.failures).len()
            * dedup(&self.traffic).len()
            * dedup(&self.local_repair).len()) as u64
            * self.seeds
    }

    /// Expand the grid into concrete [`RunSpec`]s, one per point ×
    /// seed, in a deterministic order. Axes are deduped first, so the
    /// result is exhaustive over the distinct axis values and free of
    /// duplicate keys.
    pub fn expand(&self) -> Result<Vec<RunSpec>, String> {
        if self.seeds == 0 {
            return Err("campaign spec needs seeds >= 1".into());
        }
        let pods = dedup(&self.pods);
        let stacks = dedup(&self.stacks);
        let failures = dedup(&self.failures);
        let traffic = dedup(&self.traffic);
        let local_repair = dedup(&self.local_repair);
        if pods.is_empty() || stacks.is_empty() || failures.is_empty() || traffic.is_empty() || local_repair.is_empty() {
            return Err("campaign spec has an empty axis".into());
        }
        let mut specs = Vec::new();
        for &p in &pods {
            let params = if p == 2 {
                ClosParams::two_pod()
            } else {
                ClosParams::scaled(p).map_err(|e| format!("pods axis value {p}: {e}"))?
            };
            for &stack in &stacks {
                for &failure in &failures {
                    for &dir in &traffic {
                        for &lr in &local_repair {
                            for s in 0..self.seeds {
                                let mut rs = RunSpec::new(params, stack)
                                    .failing(failure)
                                    .seeded(self.base_seed + s)
                                    .with_traffic(dir)
                                    .with_local_repair(lr);
                                if self.quick {
                                    rs = rs.timed(Timing::quick());
                                }
                                specs.push(rs);
                            }
                        }
                    }
                }
            }
        }
        Ok(specs)
    }
}

/// Execute one grid point and package it as a store record. The second
/// argument is ignored: it once switched the engine profile on, which is
/// now always recorded, and stays only because the frozen `benchmark/`
/// calls `run_one(rs, false)`.
pub fn run_one(rs: RunSpec, _profile: bool) -> RunRecord {
    let started = std::time::Instant::now();
    let (result, built) = scenario::run_with_sim(rs);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let digest = crate::chaos::trace_digest(&built.sim);
    let phases = (rs.failure != Failure::None)
        .then(|| dcn_metrics::storyboard::build(built.sim.trace(), rs.timing.failure_at()))
        .and_then(|sb| sb.phases)
        .map(|p| (p.detection_ms, p.propagation_ms, p.quiescence_ms));
    RunRecord {
        key: rs.key(),
        key_hash: rs.key_hash(),
        pods: rs.params.pods as u64,
        stack: rs.stack.slug().to_string(),
        failure: rs.failure.slug(),
        traffic: rs.traffic.slug().to_string(),
        seed: rs.seed,
        local_repair: rs.tuning.local_repair,
        digest,
        convergence_ms: result.convergence_ms,
        blast_radius: result.blast_radius as u64,
        control_bytes: result.control_bytes,
        update_frames: result.update_frames,
        packets_lost: result.loss.map(|l| l.lost()),
        keepalive_frames: result.keepalive.frames,
        phases,
        wall_ms,
    }
}

/// Expand `spec`, fan every run out over up to `threads` workers
/// (0 = one per available CPU) through the shared pool, and land the
/// records in a freshly created store at `dir`. Records come back in
/// grid order regardless of which worker ran what.
pub fn run_to_store(
    spec: &CampaignSpec,
    dir: &std::path::Path,
    threads: usize,
) -> Result<(Store, Vec<RunRecord>), String> {
    // Validate, then create the store, then burn CPU: a rejected spec
    // must leave no store behind, and a bad directory should fail in
    // milliseconds, not after the grid ran.
    let specs = spec.expand()?;
    let store = Store::create(dir, &spec.name, spec.to_json(), spec.total_runs())?;
    let records = pool::fan_out(specs, threads, |rs| run_one(rs, false));
    store
        .append_all(&records)
        .map_err(|e| format!("append to {}: {e}", dir.display()))?;
    Ok((store, records))
}

/// Per-grid-point summary of a record set (seeds aggregated): the
/// `fcr campaign report` table.
pub fn summary(records: &[RunRecord]) -> Figure {
    /// One grid point: everything but the seed.
    type GridPoint = (u64, String, String, String, bool);
    // Group by grid point, preserving first-seen order.
    let mut groups: Vec<(GridPoint, Vec<&RunRecord>)> = Vec::new();
    for r in records {
        let k = (r.pods, r.stack.clone(), r.failure.clone(), r.traffic.clone(), r.local_repair);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, v)) => v.push(r),
            None => groups.push((k, vec![r])),
        }
    }
    let mut rows = Vec::new();
    for ((pods, stack, failure, traffic, lr), runs) in groups {
        let conv: Vec<f64> = runs.iter().filter_map(|r| r.convergence_ms).collect();
        let conv_cell = crate::replicate::Stats::of(&conv)
            .map(|s| s.render(1))
            .unwrap_or_else(|| "-".into());
        let digests: Vec<u64> = dedup(&runs.iter().map(|r| r.digest).collect::<Vec<_>>());
        rows.push(vec![
            pods.to_string(),
            stack,
            failure,
            traffic,
            if lr { "on" } else { "off" }.to_string(),
            runs.len().to_string(),
            conv_cell,
            runs[0].blast_radius.to_string(),
            digests.len().to_string(),
        ]);
    }
    Figure {
        title: "campaign summary — convergence ms as mean [min–max] across seeds".to_string(),
        headers: vec![
            "pods", "stack", "failure", "traffic", "repair", "runs", "convergence_ms",
            "blast_radius", "digests",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn default_grid_is_the_acceptance_grid() {
        let spec = CampaignSpec::default();
        assert_eq!(spec.total_runs(), 24, "2 shapes x 2 stacks x TC1-TC2 x 3 seeds");
        let specs = spec.expand().unwrap();
        assert_eq!(specs.len(), 24);
        let keys: BTreeSet<String> = specs.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), 24, "every grid point has a distinct canonical key");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CampaignSpec {
            name: "rt".into(),
            pods: vec![2, 4, 4],
            stacks: vec![Stack::BgpEcmpBfd, Stack::Mrmtp],
            failures: vec![Some(FailureCase::Tc3), None],
            traffic: vec![TrafficDir::NearToFar],
            local_repair: vec![false, true],
            seeds: 2,
            base_seed: 10,
            quick: true,
        };
        let parsed = CampaignSpec::parse(&spec.to_json().render()).unwrap();
        // to_json dedups axes; otherwise the round trip is exact.
        assert_eq!(parsed.pods, vec![2, 4]);
        assert_eq!(parsed.stacks, spec.stacks);
        assert_eq!(parsed.failures, spec.failures);
        assert_eq!(parsed.traffic, spec.traffic);
        assert_eq!(parsed.local_repair, spec.local_repair);
        assert_eq!((parsed.seeds, parsed.base_seed, parsed.quick), (2, 10, true));
        assert_eq!(parsed.name, "rt");
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(CampaignSpec::parse("{\"schema\":\"campaign-spec/v999\"}").is_err());
        assert!(CampaignSpec::parse("{\"stacks\":[\"ospf\"]}").is_err());
        assert!(CampaignSpec::parse("{\"failures\":[\"tc9\"]}").is_err());
        assert!(CampaignSpec::parse("{\"pods\":2}").is_err(), "axes must be arrays");
        // Extended cases are values of a RunSpec, not of the grid axis.
        assert!(CampaignSpec::parse("{\"failures\":[\"top-spine-crash\"]}").is_err());
        // A misspelt key or a wrong-typed scalar must not fall back to the
        // default grid; the error names the key.
        for (doc, key) in [
            ("{\"stack\":[\"bgp\"]}", "stack"),
            ("{\"seeds\":\"1\"}", "seeds"),
            ("{\"quick\":\"yes\"}", "quick"),
            ("{\"name\":7}", "name"),
            ("{\"base_seed\":-1}", "base_seed"),
        ] {
            let err = CampaignSpec::parse(doc).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{doc}: {err}");
        }
        assert!(CampaignSpec::parse("[]").is_err(), "a spec is an object");
        let empty = CampaignSpec { seeds: 0, ..CampaignSpec::default() };
        assert!(empty.expand().is_err());
        let no_axis = CampaignSpec { stacks: vec![], ..CampaignSpec::default() };
        assert!(no_axis.expand().is_err());
    }

    #[test]
    fn a_rejected_spec_leaves_no_store_behind() {
        let dir = std::env::temp_dir().join(format!("campaign-rejected-{}", std::process::id()));
        let spec = CampaignSpec { seeds: 0, ..CampaignSpec::default() };
        assert!(run_to_store(&spec, &dir, 1).is_err());
        assert!(!dir.exists(), "a spec that plans no run must not create {}", dir.display());
    }

    #[test]
    fn expansion_rejects_bad_pod_shapes_with_the_axis_value() {
        let spec = CampaignSpec { pods: vec![2, 3], ..CampaignSpec::default() };
        let err = spec.expand().unwrap_err();
        assert!(err.contains("pods axis value 3"), "got: {err}");
    }
}
