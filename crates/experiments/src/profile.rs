//! The engine profile of a finished run, packaged as a
//! [`dcn_telemetry::PerfReport`] and written to disk as
//! `perf_report.json` (the `perf_report/v3` schema).
//!
//! Every [`Sim`] records its profile (`dcn_sim::profiler`), so any run —
//! scripted or chaos — can answer "what did this cost, and on which
//! nodes" after the fact, without having been asked beforehand.

use std::io;
use std::path::{Path, PathBuf};

use dcn_sim::{NodeId, Sim};
use dcn_telemetry::PerfReport;

/// The perf report of everything `sim` has run so far, hot nodes
/// attributed by name.
pub fn perf_report(sim: &Sim, label: impl Into<String>) -> PerfReport {
    let names = (0..sim.node_count() as u32).map(|i| sim.node_name(NodeId(i)).to_string()).collect();
    PerfReport::new(sim.profile(), label, names)
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
    use crate::scenario::{run_with_sim, Timing};
    use crate::{RunSpec, Stack};
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
        let (result, built) = run_with_sim(quick_spec());
        let report = perf_report(&built.sim, "quick");
        let prof = report.profile();
        assert_eq!(prof.total_events(), built.sim.events_processed());
        assert_eq!(prof.node_events.iter().sum::<u64>(), prof.total_events());
        assert!(prof.wall_ns > 0);
        // The run's ordinary metrics still came out.
        assert!(result.convergence_ms.is_some());
    }

    #[test]
    fn artifact_writes_and_parses() {
        let report = perf_report(&run_with_sim(quick_spec()).1.sim, "quick");
        let dir = std::env::temp_dir().join(format!("dcn-perf-test-{}", std::process::id()));
        let written = write_profile_artifacts(&report, &dir).unwrap();
        assert_eq!(written, dir.join("perf_report.json"));
        let text = std::fs::read_to_string(&written).unwrap();
        let doc = Json::parse(text.trim()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("perf_report/v3"));
        assert_eq!(doc.get("events").unwrap().as_u64(), Some(report.profile().total_events()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
