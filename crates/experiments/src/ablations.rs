//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! The paper motivates three mechanisms qualitatively; these experiments
//! quantify each by switching it off:
//!
//! 1. **Slow-to-Accept** (§IV-B): a flapping interface must not re-enter
//!    the trees until it has proven itself with three consecutive hellos.
//!    Ablation: `accept_hellos = 1` under a flap storm → count update
//!    messages and route churn.
//! 2. **Loss hold-down** (DESIGN.md §5): aggregating upper-tier loss
//!    reports for 2 ms distinguishes partial from total upward loss.
//!    Ablation: hold-down `= 0` → every report is judged alone, inflating
//!    negative-entry churn (blast radius).
//! 3. **Timer scaling** (§IX "tune timers"): sweep the MR-MTP hello
//!    interval and the BFD transmit interval to map the
//!    detection-latency vs. keep-alive-load trade-off.

use dcn_mrmtp::MrmtpTimers;
use dcn_sim::time::{millis, secs, Duration};
use dcn_topology::{ClosParams, FailureCase};

use crate::fabric::{Stack, StackTuning};
use crate::figures::Figure;
use crate::runspec::{Failure, RunSpec};
use crate::scenario::{run_with_sim, Timing};

/// Result of a flap-storm experiment.
#[derive(Clone, Copy, Debug)]
pub struct FlapResult {
    pub accept_hellos: u32,
    /// Update messages emitted fabric-wide during the storm.
    pub update_frames: u64,
    /// Destination-routing changes recorded fabric-wide.
    pub route_changes: u64,
}

/// Subject the TC2 interface to `flaps` down/up cycles of `period` each
/// and measure the churn, with the given Slow-to-Accept threshold.
pub fn flap_storm(accept_hellos: u32, flaps: u32, period: Duration, seed: u64) -> FlapResult {
    let timers = MrmtpTimers { accept_hellos, ..MrmtpTimers::default() };
    let tuning = StackTuning { mrmtp_timers: Some(timers), ..Default::default() };
    // Two seconds to converge, the storm, then one idle cycle plus two
    // seconds for the last re-admission to play out.
    let timing = Timing {
        warmup: secs(2),
        traffic_lead: 0,
        post_failure: (2 * flaps as u64 + 2) * period + secs(2),
        drain: 0,
    };
    let spec = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
        .failing(Failure::Flaps { at: FailureCase::Tc2, flaps, period })
        .seeded(seed)
        .tuned(tuning)
        .timed(timing);
    let (r, built) = run_with_sim(spec);
    let route_changes = built
        .sim
        .trace()
        .events_since(timing.failure_at())
        .filter(|e| matches!(e, dcn_sim::TraceEvent::RouteChange { .. }))
        .count() as u64;
    FlapResult { accept_hellos, update_frames: r.update_frames, route_changes }
}

/// The Slow-to-Accept ablation as a printable figure.
pub fn ablation_slow_to_accept(seed: u64) -> Figure {
    let rows = [1u32, 2, 3, 5]
        .into_iter()
        .map(|accept| {
            let r = flap_storm(accept, 6, millis(80), seed);
            vec![accept.to_string(), r.update_frames.to_string(), r.route_changes.to_string()]
        })
        .collect();
    Figure {
        title: "Ablation — Slow-to-Accept under a flap storm (6 × 80 ms cycles at TC2)\n\
                (paper default: accept after 3 consecutive hellos; the 80 ms up-phases\n\
                are too short for a damped router to re-admit the flapping neighbor)"
            .into(),
        headers: vec!["accept_hellos", "update_frames", "route_changes"],
        rows,
    }
}

/// The loss hold-down ablation: hold-down 0 vs the 2 ms default, at TC1
/// (where reports from both uplinks must aggregate). Far-side traffic
/// (rack 14 → rack 11) exposes the failure mode: without aggregation a
/// PoD-2 spine misclassifies the *total* upward loss of root 11 as
/// partial, installs negatives instead of notifying its ToRs, and the
/// flow blackholes.
pub fn ablation_loss_holddown(seed: u64) -> Figure {
    let rows = [0u64, millis(2), millis(10)]
        .into_iter()
        .map(|hold| {
            let timers = MrmtpTimers { loss_holddown: hold, ..MrmtpTimers::default() };
            let tuning = StackTuning { mrmtp_timers: Some(timers), ..Default::default() };
            let r = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
                .failing(FailureCase::Tc1)
                .with_traffic(crate::scenario::TrafficDir::FarToNear)
                .seeded(seed)
                .tuned(tuning)
                .run();
            vec![
                format!("{:.0}", hold as f64 / millis(1) as f64),
                r.blast_radius.to_string(),
                r.update_frames.to_string(),
                r.loss.map(|l| l.lost().to_string()).unwrap_or_default(),
                crate::table::ms(r.convergence_ms),
            ]
        })
        .collect();
    Figure {
        title: "Ablation — loss-report hold-down at TC1, far traffic 14→11\n\
                (paper-matching blast radius is 3; hold-down 0 misclassifies the loss)"
            .into(),
        headers: vec![
            "holddown_ms",
            "blast_radius",
            "update_frames",
            "packets_lost",
            "convergence_ms",
        ],
        rows,
    }
}

/// Hello-interval sweep: detection latency vs keep-alive load (§IX).
pub fn sweep_mrmtp_hello(seed: u64) -> Figure {
    let rows = [millis(25), millis(50), millis(100), millis(200)]
        .into_iter()
        .map(|hello| {
            let timers = MrmtpTimers {
                hello_interval: hello,
                dead_interval: 2 * hello,
                ..MrmtpTimers::default()
            };
            let tuning = StackTuning { mrmtp_timers: Some(timers), ..Default::default() };
            let r = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
                .failing(FailureCase::Tc1)
                .seeded(seed)
                .tuned(tuning)
                .run();
            vec![
                format!("{:.0}", hello as f64 / millis(1) as f64),
                crate::table::ms(r.convergence_ms),
                format!("{:.0}", r.keepalive.bytes_per_sec),
            ]
        })
        .collect();
    Figure {
        title: "Sweep — MR-MTP hello interval (dead = 2×hello): convergence vs keep-alive load"
            .into(),
        headers: vec!["hello_ms", "tc1_convergence_ms", "keepalive_Bps"],
        rows,
    }
}

/// BFD transmit-interval sweep for the BGP/ECMP/BFD stack.
pub fn sweep_bfd_interval(seed: u64) -> Figure {
    let rows = [millis(50), millis(100), millis(250)]
        .into_iter()
        .map(|tx| {
            let tuning = StackTuning { bfd_tx_interval: Some(tx), ..Default::default() };
            let r = RunSpec::new(ClosParams::two_pod(), Stack::BgpEcmpBfd)
                .failing(FailureCase::Tc1)
                .seeded(seed)
                .tuned(tuning)
                .run();
            vec![
                format!("{:.0}", tx as f64 / millis(1) as f64),
                crate::table::ms(r.convergence_ms),
                format!("{:.0}", r.keepalive.bytes_per_sec),
            ]
        })
        .collect();
    Figure {
        title: "Sweep — BFD transmit interval (detect ×3): convergence vs keep-alive load".into(),
        headers: vec!["bfd_tx_ms", "tc1_convergence_ms", "keepalive_Bps"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_to_accept_damps_flap_churn() {
        let damped = flap_storm(3, 4, millis(80), 11);
        let eager = flap_storm(1, 4, millis(80), 11);
        assert!(
            eager.route_changes > damped.route_changes,
            "dampening must reduce churn: eager={eager:?} damped={damped:?}"
        );
    }

    #[test]
    fn holddown_default_reproduces_paper_and_keeps_loss_bounded() {
        let fig = ablation_loss_holddown(5);
        let radius: Vec<usize> = fig.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let lost: Vec<u64> = fig.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        // With the default (2 ms) hold-down the paper's 3 is reproduced
        // and the flow recovers after the dead-timer-bounded outage.
        assert_eq!(radius[1], 3, "paper value at the default");
        assert!(lost[1] < 100, "timer-bounded loss at default: {lost:?}");
        // Without aggregation the spine misclassifies the total loss; the
        // effect is visible as a different blast radius and/or much worse
        // loss for the far-side flow.
        assert!(
            radius[0] != 3 || lost[0] > lost[1],
            "hold-down 0 should misbehave somehow: radius={radius:?} lost={lost:?}"
        );
    }

    #[test]
    fn faster_hellos_speed_convergence_but_cost_bytes() {
        let fig = sweep_mrmtp_hello(5);
        let conv: Vec<f64> = fig.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let load: Vec<f64> = fig.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(conv[0] < conv[3], "25 ms hello beats 200 ms: {conv:?}");
        assert!(load[0] > load[3], "and costs more keep-alive bytes: {load:?}");
    }
}
