//! An MR-MTP black hole that the periodic re-advertisement does not heal.
//!
//! One top spine (T-4) loses port 0 for good, then flaps port 1. When the
//! flapped link is re-accepted, the pod spine below it (S-2-2) clears its
//! negative entries for T-4, but T-4 re-reports only the roots still in
//! its own table, not the ones it declared lost itself. Flows hashed onto
//! T-4 toward those roots then die there, and the once-a-second
//! re-advertisement never brings the loss back.

use dcn_experiments::chaos::{walk_hops, FaultEvent};
use dcn_experiments::{build_sim, Stack};
use dcn_sim::time::SECONDS;
use dcn_sim::NodeId;
use dcn_topology::ClosParams;

/// Flow samples walked per ToR pair.
const FLOWS: u16 = 16;

#[test]
#[ignore = "ROADMAP item 15: on re-accept T-4 does not re-report the roots it lost itself"]
fn a_flap_next_to_a_dead_port_leaves_no_black_hole() {
    let mut built = build_sim(ClosParams::two_pod(), Stack::Mrmtp, 42, &[]);
    let t4 = built.fabric.top_spine(3);
    let fault = |at, port, up| FaultEvent { at, node: t4, port, up };
    built.schedule_faults(
        0,
        &[fault(6 * SECONDS, 0, false), fault(7 * SECONDS, 1, false), fault(8 * SECONDS, 1, true)],
    );
    built.sim.run_until(20 * SECONDS);

    let tors: Vec<usize> =
        built.fabric.routers().filter(|&n| built.fabric.nodes[n].tier == 1).collect();
    let mut walks = 0;
    let mut holes = Vec::new();
    for &src in &tors {
        for &dst in tors.iter().filter(|&&d| d != src) {
            for flow in 0..FLOWS {
                walks += 1;
                if walk_hops(&mut built, src, dst, flow).is_none() {
                    let name = |n: usize| built.sim.node_name(NodeId(n as u32)).to_string();
                    holes.push(format!("{}->{} flow {flow}", name(src), name(dst)));
                }
            }
        }
    }
    assert!(holes.is_empty(), "{} of {walks} walks do not arrive: {holes:?}", holes.len());
}
