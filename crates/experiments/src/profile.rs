//! Profiled experiment runs: a [`RunSpec`] executed with the engine
//! profiler on, packaged as a [`dcn_telemetry::PerfReport`] and written
//! to disk as `perf_report.json` (the `perf_report/v3` schema).
//!
//! Profiling is a pure host-clock observation: the run's metrics and
//! per-seed trace digests are bit-identical with it on or off (the
//! equivalence suite enforces it), so `fcr profile` answers "what did
//! this run cost, and on which nodes" without changing what the
//! simulation did.

use std::io;
use std::path::{Path, PathBuf};

use dcn_sim::{NodeId, Sim};
use dcn_telemetry::{PerfReport, TraceBundle};

use crate::runspec::RunSpec;
use crate::scenario::{bundle_from_run, InstrumentedRun};

/// One profiled run: the ordinary instrumented result plus the engine
/// perf report extracted from the finished simulation.
pub struct ProfiledRun {
    pub run: InstrumentedRun,
    pub report: PerfReport,
}

/// Router/host names indexed by node id (hot-node attribution).
pub fn node_names(sim: &Sim) -> Vec<String> {
    (0..sim.node_count() as u32)
        .map(|i| sim.node_name(NodeId(i)).to_string())
        .collect()
}

/// Execute `spec` with the profiler on and hand back the run plus its
/// [`PerfReport`].
pub fn run_profiled(spec: RunSpec) -> ProfiledRun {
    let spec = spec.with_profile(true);
    let mut run = spec.run_instrumented();
    let profile = run.built.sim.take_profile().expect("profiling was enabled");
    let names = node_names(&run.built.sim);
    let label = format!(
        "{} {} seed {}",
        spec.stack.slug(),
        spec.failure.map(|tc| tc.label()).unwrap_or("steady"),
        spec.seed
    );
    ProfiledRun { run, report: PerfReport::new(profile, label, names) }
}

/// [`bundle_from_run`] plus the perf report: the replay bundle of a
/// profiled run carries `perf_report.json` alongside the
/// spans/series/capture files.
pub fn bundle_from_profiled(p: &ProfiledRun, spec: &RunSpec) -> TraceBundle {
    let mut b = bundle_from_run(&p.run, spec);
    b.add_file("perf_report.json", p.report.to_json().render() + "\n");
    b
}

/// Write `perf_report.json` under `dir` (created if needed). Returns the
/// path written.
pub fn write_profile_artifacts(report: &PerfReport, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("perf_report.json");
    std::fs::write(&path, report.to_json().render() + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Timing;
    use crate::Stack;
    use dcn_sim::time::{millis, secs};
    use dcn_telemetry::Json;
    use dcn_topology::{ClosParams, FailureCase};

    fn quick_spec() -> RunSpec {
        RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
            .failing(FailureCase::Tc1)
            .seeded(5)
            .timed(Timing {
                warmup: secs(2),
                traffic_lead: millis(100),
                post_failure: millis(500),
                drain: millis(100),
            })
    }

    #[test]
    fn profiled_run_counts_every_event_and_keeps_its_metrics() {
        let p = run_profiled(quick_spec());
        let prof = p.report.profile();
        assert_eq!(prof.total_events(), p.run.built.sim.events_processed());
        assert_eq!(prof.node_events.iter().sum::<u64>(), prof.total_events());
        assert!(prof.wall_ns > 0);
        // The run's ordinary metrics still came out.
        assert!(p.run.result.convergence_ms.is_some());
    }

    #[test]
    fn artifact_writes_and_parses() {
        let p = run_profiled(quick_spec());
        let dir = std::env::temp_dir().join(format!("dcn-perf-test-{}", std::process::id()));
        let written = write_profile_artifacts(&p.report, &dir).unwrap();
        assert_eq!(written, dir.join("perf_report.json"));
        let report = std::fs::read_to_string(&written).unwrap();
        let doc = Json::parse(report.trim()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("perf_report/v3"));
        assert_eq!(doc.get("events").unwrap().as_u64(), Some(p.report.profile().total_events()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profiled_bundle_carries_the_perf_report() {
        let spec = quick_spec();
        let p = run_profiled(spec);
        let b = bundle_from_profiled(&p, &spec);
        let names: Vec<&str> = b.files().iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"perf_report.json"), "{names:?}");
    }
}
