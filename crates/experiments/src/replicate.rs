//! Multi-run replication: the paper's "plotted values were averaged over
//! multiple runs". Each seed perturbs timer phases (hello alignment,
//! jitter), which is exactly what varied between the paper's testbed
//! runs; metrics are reported as mean with min–max spread.

use std::path::Path;

use crate::campaign::pool::fan_out;
use crate::fabric::Stack;
use crate::figures::Figure;
use crate::runspec::RunSpec;
use crate::scenario::{bundle_from_run, run, run_instrumented, ScenarioResult};
use dcn_topology::{ClosParams, FailureCase};

/// Summary statistics over replicated runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stats {
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub runs: usize,
}

impl Stats {
    pub fn of(values: &[f64]) -> Option<Stats> {
        if values.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        Some(Stats { mean: sum / values.len() as f64, min, max, runs: values.len() })
    }

    /// Render as `mean [min–max]`.
    pub fn render(&self, decimals: usize) -> String {
        format!(
            "{:.d$} [{:.d$}–{:.d$}]",
            self.mean,
            self.min,
            self.max,
            d = decimals
        )
    }
}

/// Replicated metrics for one scenario shape.
#[derive(Clone, Debug)]
pub struct ReplicatedResult {
    pub convergence_ms: Option<Stats>,
    pub blast_radius: Stats,
    pub control_bytes: Stats,
    pub packets_lost: Option<Stats>,
}

/// Run `spec` once per seed (in parallel) and aggregate.
pub fn run_replicated(spec: RunSpec, seeds: &[u64]) -> ReplicatedResult {
    let specs: Vec<RunSpec> = seeds.iter().map(|&s| spec.seeded(s)).collect();
    aggregate(fan_out(specs, 0, run))
}

/// [`run_replicated`] writing every run's trace bundle (spans, histograms,
/// storyboard, capture) under `dir/replicate-<stack>-<tc>-seed<N>/`, so
/// the spread the replicated figure reports can be dissected run by run.
/// The aggregated metrics are identical to [`run_replicated`]'s.
pub fn run_replicated_instrumented(
    spec: RunSpec,
    seeds: &[u64],
    dir: &Path,
) -> ReplicatedResult {
    let raw = fan_out(seeds.to_vec(), 0, |seed| {
        let sc = spec.seeded(seed);
        let ir = run_instrumented(sc);
        let sub =
            dir.join(format!("replicate-{}-{}-seed{}", sc.stack.slug(), sc.failure.slug(), seed));
        match bundle_from_run(&ir, &sc).write(&sub) {
            Ok(_) => eprintln!("replicate: bundle written to {}", sub.display()),
            Err(e) => eprintln!("replicate: bundle write to {} failed: {e}", sub.display()),
        }
        ir.result
    });
    aggregate(raw)
}

fn aggregate(raw: Vec<ScenarioResult>) -> ReplicatedResult {
    let conv: Vec<f64> = raw.iter().filter_map(|r| r.convergence_ms).collect();
    let blast: Vec<f64> = raw.iter().map(|r| r.blast_radius as f64).collect();
    let bytes: Vec<f64> = raw.iter().map(|r| r.control_bytes as f64).collect();
    let lost: Vec<f64> = raw
        .iter()
        .filter_map(|r| r.loss.map(|l| l.lost() as f64))
        .collect();
    ReplicatedResult {
        convergence_ms: Stats::of(&conv),
        blast_radius: Stats::of(&blast).expect("at least one run"),
        control_bytes: Stats::of(&bytes).expect("at least one run"),
        packets_lost: Stats::of(&lost),
    }
}

/// Fig. 4 with replication: convergence as mean [min–max] over `seeds`.
/// `local_repair` threads the CLI's `--local-repair` knob into every
/// replicated run (it must not move convergence, only the loss window).
pub fn fig4_replicated(seeds: &[u64], local_repair: bool) -> Figure {
    let mut rows = Vec::new();
    for (name, params) in [("2-PoD", ClosParams::two_pod()), ("4-PoD", ClosParams::four_pod())] {
        for stack in Stack::ALL {
            for tc in FailureCase::ALL {
                let r = run_replicated(
                    RunSpec::new(params, stack).failing(tc).with_local_repair(local_repair),
                    seeds,
                );
                rows.push(vec![
                    name.to_string(),
                    stack.label().to_string(),
                    tc.label().to_string(),
                    r.convergence_ms.map(|s| s.render(1)).unwrap_or_else(|| "-".into()),
                    r.blast_radius.render(0),
                ]);
            }
        }
    }
    Figure {
        title: format!(
            "Fig. 4 (replicated ×{}) — convergence ms as mean [min–max]",
            seeds.len()
        ),
        headers: vec!["topology", "stack", "case", "convergence_ms", "blast_radius"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_aggregate_correctly() {
        let s = Stats::of(&[1.0, 2.0, 6.0]).unwrap();
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.runs, 3);
        assert_eq!(s.render(1), "3.0 [1.0–6.0]");
        assert!(Stats::of(&[]).is_none());
    }

    #[test]
    fn instrumented_replication_matches_bare_and_writes_bundles() {
        let s = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp).failing(FailureCase::Tc1);
        let dir = std::env::temp_dir().join(format!("dcn-replicate-test-{}", std::process::id()));
        let bare = run_replicated(s, &[1, 2]);
        let inst = run_replicated_instrumented(s, &[1, 2], &dir);
        // Writing bundles changes nothing: the aggregates are identical.
        assert_eq!(bare.convergence_ms, inst.convergence_ms);
        assert_eq!(bare.blast_radius, inst.blast_radius);
        assert_eq!(bare.control_bytes, inst.control_bytes);
        for seed in [1, 2] {
            let sub = dir.join(format!("replicate-mrmtp-tc1-seed{seed}"));
            for f in ["meta.json", "spans.jsonl", "hists.jsonl", "storyboard.txt"] {
                assert!(sub.join(f).exists(), "missing {f} in {}", sub.display());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replication_varies_timer_phase_but_not_structure() {
        let s = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp).failing(FailureCase::Tc1);
        let r = run_replicated(s, &[1, 2, 3, 4]);
        // Blast radius is structural: identical across seeds.
        assert_eq!(r.blast_radius.min, 3.0);
        assert_eq!(r.blast_radius.max, 3.0);
        // Convergence varies with hello phase but stays dead-timer
        // bounded.
        let c = r.convergence_ms.unwrap();
        assert!(c.min >= 40.0 && c.max <= 120.0, "{c:?}");
        assert_eq!(c.runs, 4);
    }
}
