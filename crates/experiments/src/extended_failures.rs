//! Extended failure test cases (the paper's §IX future work): whole-node
//! failures and concurrent multi-point failures, measured with the same
//! metrics as TC1–TC4 — each is a value of [`RunSpec`]'s failure axis and
//! runs through the same executor.

use dcn_topology::{ClosParams, Fabric};

use crate::fabric::Stack;
use crate::figures::Figure;
use crate::runspec::RunSpec;
use crate::scenario::TrafficDir;
use crate::table;

/// What fails in an extended case.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExtendedCase {
    /// Every interface of S-1-1 goes down at once (a PoD-spine crash).
    PodSpineCrash,
    /// Every interface of T-1 goes down at once (a top-spine crash).
    TopSpineCrash,
    /// TC-style double failure: ToR₁₁'s first uplink *and* S-1-2's first
    /// uplink fail together, hitting both of PoD 1's planes at once.
    DoubleUplink,
}

impl ExtendedCase {
    pub const ALL: [ExtendedCase; 3] =
        [ExtendedCase::PodSpineCrash, ExtendedCase::TopSpineCrash, ExtendedCase::DoubleUplink];

    pub fn label(self) -> &'static str {
        match self {
            ExtendedCase::PodSpineCrash => "S-1-1 crash",
            ExtendedCase::TopSpineCrash => "T-1 crash",
            ExtendedCase::DoubleUplink => "double uplink",
        }
    }

    /// CLI- and key-safe identifier ([`crate::runspec::Failure::slug`]).
    pub fn slug(self) -> &'static str {
        match self {
            ExtendedCase::PodSpineCrash => "pod-spine-crash",
            ExtendedCase::TopSpineCrash => "top-spine-crash",
            ExtendedCase::DoubleUplink => "double-uplink",
        }
    }

    /// The failing (node, port) interfaces.
    pub fn interfaces(self, fabric: &Fabric) -> Vec<(usize, usize)> {
        match self {
            ExtendedCase::PodSpineCrash => {
                let n = fabric.pod_spine(0, 0);
                (0..fabric.ports[n].len()).map(|p| (n, p)).collect()
            }
            ExtendedCase::TopSpineCrash => {
                let n = fabric.top_spine(0);
                (0..fabric.ports[n].len()).map(|p| (n, p)).collect()
            }
            ExtendedCase::DoubleUplink => {
                vec![(fabric.tor(0, 0), 0), (fabric.pod_spine(0, 1), 0)]
            }
        }
    }
}

/// One extended case on the 2-PoD fabric with the paper's monitored flow
/// (rack 11 → rack 14) crossing the failure.
pub fn extended_spec(case: ExtendedCase, stack: Stack, seed: u64) -> RunSpec {
    RunSpec::new(ClosParams::two_pod(), stack)
        .failing(case)
        .with_traffic(TrafficDir::NearToFar)
        .seeded(seed)
}

/// The extended-failure matrix as a printable figure.
pub fn extended_failure_figure(seed: u64) -> Figure {
    let mut rows = Vec::new();
    for case in ExtendedCase::ALL {
        for stack in Stack::ALL {
            let r = extended_spec(case, stack, seed).run();
            let loss = r.loss.expect("the monitored flow ran");
            rows.push(vec![
                case.label().to_string(),
                stack.label().to_string(),
                table::ms(r.convergence_ms),
                r.blast_radius.to_string(),
                r.control_bytes.to_string(),
                format!("{}/{}", loss.lost(), loss.sent),
            ]);
        }
    }
    Figure {
        title: "§IX extension — whole-node and multi-point failures (2-PoD, flow 11→14)"
            .to_string(),
        headers: vec![
            "case",
            "stack",
            "convergence_ms",
            "blast_radius",
            "control_bytes",
            "lost/sent",
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioResult;

    /// (result, packets lost, packets sent) of one extended run.
    fn run_case(case: ExtendedCase, stack: Stack) -> (ScenarioResult, u64, u64) {
        let r = extended_spec(case, stack, 7).run();
        let loss = r.loss.expect("the monitored flow ran");
        (r, loss.lost(), loss.sent)
    }

    #[test]
    fn pod_spine_crash_survivable_by_both_stacks() {
        for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
            let (r, lost, sent) = run_case(ExtendedCase::PodSpineCrash, stack);
            assert!(sent > 2000);
            // The surviving plane (S-1-2) carries the flow after
            // reconvergence: loss is bounded by the stack's detection
            // time, not total.
            assert!(lost < sent / 2, "{}: {r:?}", stack.label());
            assert!(r.blast_radius > 0);
        }
    }

    #[test]
    fn top_spine_crash_leaves_mrmtp_reachable() {
        let (r, lost, _) = run_case(ExtendedCase::TopSpineCrash, Stack::Mrmtp);
        // T-1 is one of four planes; the other three carry traffic.
        assert!(lost < 200, "{r:?}");
    }

    #[test]
    fn double_uplink_failure_converges() {
        let (r, lost, sent) = run_case(ExtendedCase::DoubleUplink, Stack::Mrmtp);
        assert!(r.convergence_ms.is_some());
        // Both of ToR₁₁'s planes are degraded but the fabric still has a
        // path (ToR₁₁ → S1_2 → S2_2/S2_4 …).
        assert!(lost < sent / 2, "{r:?}");
    }
}

#[cfg(test)]
mod aggregation_tests {
    use super::*;

    /// Regression: when a PoD spine crashes, the two top spines above it
    /// time out at different instants (their hello phases differ), so
    /// the far-side spine receives the two loss reports in separate
    /// hold-down rounds. The second round must still recognize the total
    /// upward loss (the first report lives on as a negative entry) and
    /// notify the ToRs below.
    #[test]
    fn staggered_loss_reports_still_reach_tors() {
        let r = extended_spec(ExtendedCase::PodSpineCrash, Stack::Mrmtp, 7).run();
        // S1_3 + both PoD-2 ToRs record changes.
        assert!(r.blast_radius >= 3, "downstream ToRs must be notified: {r:?}");
    }
}
