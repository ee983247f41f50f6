//! `fcr report` — the textual convergence report for one failure case.
//!
//! Runs one instrumented scenario, reconstructs the convergence
//! storyboard from its typed spans (`dcn_metrics::storyboard`) and
//! renders it together with the per-router counter/gauge table (via the
//! uniform [`dcn_sim::StatsSnapshot`] surface) and the per-class frame
//! size distribution — the emulator's answer to the paper's
//! tshark-plus-router-logs measurement pipeline.

use dcn_sim::NodeId;

use crate::runspec::RunSpec;
use crate::scenario::InstrumentedRun;

/// Render the report text for a finished instrumented run of `spec` (the
/// CLI goes on to write the same run's trace bundle).
pub fn render(run: &InstrumentedRun, spec: &RunSpec) -> String {
    let sim = &run.built.sim;
    let name_of = |n: NodeId| sim.node_name(n).to_string();
    let mut out = String::new();

    out.push_str(&format!(
        "== convergence report: {} · {} · seed {} ==\n\n",
        spec.stack.label(),
        spec.failure.label(),
        spec.seed,
    ));

    match run.failure_at {
        Some(t0) => {
            let sb = dcn_metrics::storyboard::build(sim.trace(), t0);
            out.push_str(&dcn_metrics::storyboard::render(&sb, name_of));
        }
        None => out.push_str("no failure injected — steady-state run\n"),
    }

    // Per-router counter/gauge table, transposed: one row per metric,
    // one column per router. Uniform StatsSnapshot access means the
    // same code serves every stack.
    let routers: Vec<NodeId> = (0..sim.node_count() as u32)
        .map(NodeId)
        .filter(|&n| sim.stats_snapshot_of(n).is_some())
        .collect();
    if let Some(&first) = routers.first() {
        let col_w = routers
            .iter()
            .map(|&n| sim.node_name(n).len())
            .max()
            .unwrap_or(0)
            .max(6);
        let snap = sim.stats_snapshot_of(first).expect("router has stats");
        let sections: [(&str, Vec<&'static str>); 2] = [
            ("counter", snap.counters().iter().map(|&(n, _)| n).collect()),
            ("gauge", snap.gauges().iter().map(|&(n, _)| n).collect()),
        ];
        let label = |name: &str, kind: &str| format!("{name} [{kind}]");
        let metric_w = sections
            .iter()
            .flat_map(|(kind, names)| names.iter().map(move |n| label(n, kind).len()))
            .max()
            .unwrap_or(0)
            .max("metric".len());
        out.push_str(&format!("\nper-router counters:\n{:<metric_w$}", "metric"));
        for &n in &routers {
            out.push_str(&format!(" {:>col_w$}", sim.node_name(n)));
        }
        out.push('\n');
        for (kind, names) in &sections {
            for (i, name) in names.iter().enumerate() {
                out.push_str(&format!("{:<metric_w$}", label(name, kind)));
                for &n in &routers {
                    let s = sim.stats_snapshot_of(n).expect("router has stats");
                    let v = match *kind {
                        "counter" => s.counters()[i].1,
                        _ => s.gauges()[i].1,
                    };
                    out.push_str(&format!(" {v:>col_w$}"));
                }
                out.push('\n');
            }
        }
    }

    // Frame-size distribution, whole run (the tshark summary analog).
    out.push_str(&format!(
        "\nframe classes (entire run):\n{:<10} {:>8} {:>10} {:>7} {:>7} {:>5}\n",
        "class", "frames", "bytes", "mean", "p99<=", "max"
    ));
    for (class, h) in run.telemetry.frame_size_hists() {
        if h.total() == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>7.1} {:>7} {:>5}\n",
            class.name(),
            h.total(),
            h.sum(),
            h.mean(),
            h.quantile_bound(0.99).unwrap_or(0),
            h.max(),
        ));
    }

    out.push_str(&format!(
        "\ntelemetry: {} samples, {} series\n",
        run.telemetry.samples_taken(),
        run.telemetry.registry().series_count(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Stack;
    use crate::scenario::run_instrumented;
    use dcn_sim::time::MILLIS;
    use dcn_topology::{ClosParams, FailureCase};

    fn build_tc(stack: Stack, tc: FailureCase, seed: u64) -> (String, InstrumentedRun) {
        let spec = RunSpec::new(ClosParams::two_pod(), stack).failing(tc).seeded(seed);
        let run = run_instrumented(spec);
        (render(&run, &spec), run)
    }

    #[test]
    fn mrmtp_tc1_report_storyboards_carrier_detection() {
        let (text, run) = build_tc(Stack::Mrmtp, FailureCase::Tc1, 42);
        // TC1: the ToR sees carrier-down, the spine times out.
        assert!(text.contains("carrier (local)"), "{}", text);
        assert!(text.contains("phases: detection"), "{}", text);
        assert!(text.contains("per-router counters"), "{}", text);
        assert!(text.contains("hellos_sent [counter]"), "{}", text);
        assert!(text.contains("vid_entries [gauge]"), "{}", text);
        assert!(text.contains("keepalive"), "{}", text);

        // The phase breakdown is consistent with the paper-style
        // convergence number reported by dcn_metrics::convergence_time.
        let t0 = run.failure_at.unwrap();
        let sb = dcn_metrics::storyboard::build(run.built.sim.trace(), t0);
        let p = sb.phases.expect("detection happened");
        let conv = run.result.convergence_ms.expect("updates flowed");
        assert!((p.detection_ms + p.propagation_ms - conv).abs() < 1e-6);
        let direct = dcn_metrics::convergence_time(run.built.sim.trace(), t0).unwrap();
        assert_eq!(sb.convergence_ns, Some(direct));
        assert!((direct as f64 / MILLIS as f64 - conv).abs() < 1e-6);
    }

    #[test]
    fn bgp_bfd_tc2_report_shows_bfd_detection_and_fsm_table() {
        let (text, _) = build_tc(Stack::BgpEcmpBfd, FailureCase::Tc2, 42);
        // TC2: S1_1 sees carrier-down, the ToR detects via BFD timeout.
        assert!(text.contains("carrier (local)"), "{}", text);
        assert!(text.contains("timeout (inferred)"), "{}", text);
        assert!(text.contains("sessions_up [gauge]"), "{}", text);
        assert!(text.contains("bfd_transitions [gauge]"), "{}", text);
        assert!(text.contains("phases: detection"), "{}", text);
    }
}
