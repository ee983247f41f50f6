//! Engine performance reports: turning a [`dcn_sim::EngineProfile`]
//! into artifacts a human (or CI) can consume.
//!
//! Two exporters share one [`PerfReport`]:
//!
//! * [`PerfReport::render_text`] — a terminal summary: events, wall
//!   time, ns per event, scheduler occupancy, hottest nodes.
//! * [`PerfReport::to_json`] — the `perf_report/v3` schema, consumed by
//!   CI and written as `perf_report.json` by [`PerfReport::write`].
//!
//! Durations come from the host monotonic clock (see
//! `dcn_sim::profiler`); nothing here feeds back into the simulation.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use dcn_sim::{EngineProfile, NodeId, Sim};

use crate::json::Json;

/// `part` as a percentage of `whole` (0 when `whole` is 0).
fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// A finished run's engine profile plus the context needed to label it.
#[derive(Clone, Debug)]
pub struct PerfReport {
    profile: EngineProfile,
    /// Human label for the run (e.g. `"mrmtp tc1 seed 1"`).
    pub label: String,
    /// `std::thread::available_parallelism()` on the host (0 unknown).
    pub cores: u64,
    /// Node names indexed by node id (for hot-node attribution).
    pub node_names: Vec<String>,
}

/// The host's available parallelism, or 0 when it cannot be queried.
pub fn host_cores() -> u64 {
    std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0)
}

impl PerfReport {
    pub fn new(
        profile: EngineProfile,
        label: impl Into<String>,
        node_names: Vec<String>,
    ) -> PerfReport {
        PerfReport { profile, label: label.into(), cores: host_cores(), node_names }
    }

    /// The report of everything `sim` has run so far, hot nodes
    /// attributed by name. Every [`Sim`] records its profile, so any run
    /// can be reported after the fact.
    pub fn of(sim: &Sim, label: impl Into<String>) -> PerfReport {
        let names =
            (0..sim.node_count() as u32).map(|i| sim.node_name(NodeId(i)).to_string()).collect();
        PerfReport::new(sim.profile(), label, names)
    }

    /// Write the JSON document as `perf_report.json` under `dir` (created
    /// if needed). Returns the path written.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("perf_report.json");
        std::fs::write(&path, self.to_json().render() + "\n")?;
        Ok(path)
    }

    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    fn name_of(&self, node: u32) -> String {
        self.node_names.get(node as usize).cloned().unwrap_or_else(|| format!("n{node}"))
    }

    /// The terminal summary.
    pub fn render_text(&self) -> String {
        let p = &self.profile;
        let mut out = String::new();
        let _ = writeln!(out, "perf report: {} (cores {})", self.label, self.cores);
        let _ = writeln!(
            out,
            "{} events in {:.2}ms ({:.0} ns/event)",
            p.total_events(),
            p.wall_ns as f64 / 1e6,
            if p.total_events() == 0 { 0.0 } else { p.wall_ns as f64 / p.total_events() as f64 },
        );
        let _ = writeln!(
            out,
            "scheduler: {} pushes, {} wheel slot ({:.1}%), {} overflow heap, max pending {}",
            p.sched.pushes,
            p.sched.wheel_slot_hits,
            pct(p.sched.wheel_slot_hits, p.sched.pushes),
            p.sched.wheel_overflow_hits,
            p.sched.max_pending,
        );
        let hot = p.hottest_nodes(10);
        if !hot.is_empty() {
            let names: Vec<String> = hot
                .iter()
                .map(|&(node, events)| format!("{} ({})", self.name_of(node), events))
                .collect();
            let _ = writeln!(out, "hot nodes: {}", names.join(", "));
        }
        out
    }

    /// The `perf_report/v3` JSON document.
    pub fn to_json(&self) -> Json {
        let p = &self.profile;
        Json::obj(vec![
            ("schema", Json::str("perf_report/v3")),
            ("label", Json::str(self.label.clone())),
            ("cores", Json::UInt(self.cores)),
            ("events", Json::UInt(p.total_events())),
            ("wall_ns", Json::UInt(p.wall_ns)),
            (
                "scheduler",
                Json::obj(vec![
                    ("pushes", Json::UInt(p.sched.pushes)),
                    ("wheel_slot_hits", Json::UInt(p.sched.wheel_slot_hits)),
                    ("wheel_overflow_hits", Json::UInt(p.sched.wheel_overflow_hits)),
                    ("max_pending", Json::UInt(p.sched.max_pending)),
                ]),
            ),
            (
                "hot_nodes",
                Json::Arr(
                    p.hottest_nodes(10)
                        .into_iter()
                        .map(|(node, events)| {
                            Json::obj(vec![
                                ("node", Json::str(self.name_of(node))),
                                ("events", Json::UInt(events)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::SchedulerStats;

    fn toy_report() -> PerfReport {
        let mut p = EngineProfile::new(3);
        p.events = 6;
        p.wall_ns = 1_500;
        p.node_events = vec![3, 1, 2];
        p.sched = SchedulerStats {
            pushes: 10,
            wheel_slot_hits: 9,
            wheel_overflow_hits: 1,
            max_pending: 4,
        };
        let names = vec!["e0".to_string(), "e1".to_string(), "s0".to_string()];
        PerfReport::new(p, "toy run", names)
    }

    #[test]
    fn json_export_round_trips_under_the_v3_schema() {
        let doc = Json::parse(&toy_report().to_json().render()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("perf_report/v3"));
        assert_eq!(doc.get("label").unwrap().as_str(), Some("toy run"));
        assert_eq!(doc.get("events").unwrap().as_u64(), Some(6));
        assert_eq!(doc.get("wall_ns").unwrap().as_u64(), Some(1_500));
        assert!(doc.get("cores").unwrap().as_u64().is_some());
        let sched = doc.get("scheduler").unwrap();
        assert_eq!(sched.get("pushes").unwrap().as_u64(), Some(10));
        assert_eq!(sched.get("wheel_slot_hits").unwrap().as_u64(), Some(9));
        assert_eq!(sched.get("wheel_overflow_hits").unwrap().as_u64(), Some(1));
        assert_eq!(sched.get("max_pending").unwrap().as_u64(), Some(4));
        let hot: Vec<(&str, u64)> = doc
            .get("hot_nodes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|h| {
                (
                    h.get("node").unwrap().as_str().unwrap(),
                    h.get("events").unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        assert_eq!(hot, vec![("e0", 3), ("s0", 2), ("e1", 1)]);
    }

    #[test]
    fn written_report_parses_back() {
        let report = toy_report();
        let dir = std::env::temp_dir().join(format!("dcn-perf-test-{}", std::process::id()));
        let written = report.write(&dir).unwrap();
        assert_eq!(written, dir.join("perf_report.json"));
        let text = std::fs::read_to_string(&written).unwrap();
        assert!(text.ends_with("}\n"), "one document, one line");
        assert_eq!(Json::parse(text.trim()).unwrap(), report.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn text_report_names_cost_scheduler_and_hot_nodes() {
        let text = toy_report().render_text();
        assert!(text.starts_with("perf report: toy run (cores "), "{text}");
        assert!(text.contains("6 events in 0.00ms (250 ns/event)"), "{text}");
        assert!(text.contains("scheduler: 10 pushes, 9 wheel slot (90.0%), 1 overflow heap"));
        assert!(text.contains("hot nodes: e0 (3), s0 (2), e1 (1)"));
    }
}
