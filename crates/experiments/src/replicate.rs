//! Multi-run replication: the paper's "plotted values were averaged over
//! multiple runs". Each seed perturbs timer phases (hello alignment,
//! jitter), which is exactly what varied between the paper's testbed
//! runs; metrics are reported as mean with min–max spread.

use std::path::Path;

use crate::campaign::pool::fan_out;
use crate::campaign::{run_grid, CampaignSpec};
use crate::figures::{paper_grid, topology, Figure};
use crate::runspec::RunSpec;
use crate::scenario::{bundle_from_run, run_instrumented};

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
        let runs = values.len();
        (runs > 0).then(|| Stats {
            mean: values.iter().sum::<f64>() / runs as f64,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            runs,
        })
    }

    /// Render as `mean [min–max]`.
    pub fn render(&self, decimals: usize) -> String {
        format!("{:.d$} [{:.d$}–{:.d$}]", self.mean, self.min, self.max, d = decimals)
    }
}

/// Run `spec` once per seed in `seeds` (in parallel) and write each
/// run's trace bundle (spans, histograms, storyboard, capture) under
/// `dir/replicate-<stack>-<tc>-seed<N>/`, so the spread the replicated
/// figure reports can be dissected run by run.
pub fn write_bundles(spec: RunSpec, seeds: &[u64], dir: &Path) {
    fan_out(seeds.to_vec(), 0, |seed| {
        let sc = spec.seeded(seed);
        let sub =
            dir.join(format!("replicate-{}-{}-seed{}", sc.stack.slug(), sc.failure.slug(), seed));
        match bundle_from_run(&run_instrumented(sc), &sc).write(&sub) {
            Ok(_) => eprintln!("replicate: bundle written to {}", sub.display()),
            Err(e) => eprintln!("replicate: bundle write to {} failed: {e}", sub.display()),
        }
    });
}

/// Fig. 4 with replication: convergence as mean [min–max] over seeds
/// `1..=seeds`, one grid of the paper's matrix. `local_repair` threads the
/// CLI's `--local-repair` knob into every run (it must not move
/// convergence, only the loss window).
pub fn fig4_replicated(seeds: u64, local_repair: bool) -> Figure {
    let grid = CampaignSpec {
        name: "fig4-replicated".into(),
        local_repair: vec![local_repair],
        seeds,
        ..paper_grid(1)
    };
    let rows = run_grid(&grid)
        .chunks(seeds as usize)
        .map(|point| {
            let s = &point[0].0;
            let conv: Vec<f64> = point.iter().filter_map(|(_, r)| r.convergence_ms).collect();
            let blast: Vec<f64> = point.iter().map(|(_, r)| r.blast_radius as f64).collect();
            vec![
                topology(s),
                s.stack.label().to_string(),
                s.failure.label(),
                Stats::of(&conv).map(|c| c.render(1)).unwrap_or_else(|| "-".into()),
                Stats::of(&blast).expect("at least one run").render(0),
            ]
        })
        .collect();
    Figure {
        title: format!("Fig. 4 (replicated ×{seeds}) — convergence ms as mean [min–max]"),
        headers: vec!["topology", "stack", "case", "convergence_ms", "blast_radius"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Stack;
    use dcn_topology::{ClosParams, FailureCase};

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
    fn instrumented_replication_writes_bundles() {
        let s = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp).failing(FailureCase::Tc1);
        let dir = std::env::temp_dir().join(format!("dcn-replicate-test-{}", std::process::id()));
        write_bundles(s, &[1, 2], &dir);
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
        let grid = CampaignSpec {
            pods: vec![2],
            stacks: vec![Stack::Mrmtp],
            failures: vec![Some(FailureCase::Tc1)],
            seeds: 4,
            ..paper_grid(1)
        };
        let runs = run_grid(&grid);
        // Blast radius is structural: identical across seeds.
        assert!(runs.iter().all(|(_, r)| r.blast_radius == 3), "{runs:?}");
        // Convergence varies with hello phase but stays dead-timer
        // bounded.
        let conv: Vec<f64> = runs.iter().filter_map(|(_, r)| r.convergence_ms).collect();
        let c = Stats::of(&conv).unwrap();
        assert!(c.min >= 40.0 && c.max <= 120.0, "{c:?}");
        assert_eq!(c.runs, 4);
    }
}
