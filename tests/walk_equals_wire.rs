//! The chaos walker asks the routers for every hop, so on a converged
//! fabric the hops it walks are the hops a real packet takes.

use dcn_experiments::chaos::walk_hops;
use dcn_experiments::{build_sim, Stack};
use dcn_sim::time::{MILLIS, SECONDS};
use dcn_sim::{FrameClass, TraceEvent};
use dcn_topology::{Addressing, ClosParams, Fabric, PortKind};
use dcn_traffic::SendSpec;

/// Every stack and each of the walker's flow samples in `flows` on
/// `params`, for the ToR pairs `k → k + shift` of each shift in `shifts`:
/// each ToR's server sends one packet of the walker's 5-tuple, 1 ms apart
/// so that each packet's `FrameSent` records stand alone.
fn walker_hops_match_the_wire(
    params: ClosParams,
    shifts: std::ops::Range<usize>,
    flows: std::ops::Range<u16>,
) {
    let fabric = Fabric::build(params);
    let addr = Addressing::new(&fabric);
    let tors: Vec<usize> = fabric.routers().filter(|&n| fabric.nodes[n].tier == 1).collect();
    let converged = 6 * SECONDS;
    for stack in Stack::ALL {
        for flow in flows.clone() {
            for shift in shifts.clone() {
                let pairs: Vec<(usize, usize)> =
                    (0..tors.len()).map(|k| (tors[k], tors[(k + shift) % tors.len()])).collect();
                let senders: Vec<_> = pairs
                    .iter()
                    .enumerate()
                    .map(|(k, &(src, dst))| {
                        let rack = fabric.ports[src].iter().find(|p| p.kind == PortKind::Host);
                        let start = converged + k as u64 * MILLIS;
                        let dst_ip = addr.server_addr(dst, 0).expect("server address");
                        let mut spec = SendSpec::new(dst_ip, start, start + MILLIS);
                        (spec.src_port, spec.dst_port, spec.count) = (1000 + flow, 5000, 1);
                        (rack.expect("a server port").peer, spec)
                    })
                    .collect();
                let mut built = build_sim(params, stack, 1, &senders);
                built.sim.run_until(converged + pairs.len() as u64 * MILLIS);
                for (k, &(src, dst)) in pairs.iter().enumerate() {
                    let start = converged + k as u64 * MILLIS;
                    let wire: Vec<_> = built
                        .sim
                        .trace()
                        .events()
                        .iter()
                        .filter_map(|e| match *e {
                            TraceEvent::FrameSent {
                                time,
                                node,
                                port,
                                class: FrameClass::Data,
                                ..
                            } if (start..start + MILLIS).contains(&time) => {
                                Some((node.index(), port))
                            }
                            _ => None,
                        })
                        .collect();
                    // Server → src ToR … dst ToR → server: the walker's hops
                    // are the router hops before the destination ToR.
                    let label = format!("{} flow {flow} {src}->{dst}", stack.slug());
                    assert_eq!(wire.last().map(|h| h.0), Some(dst), "{label}: not delivered");
                    let walked = walk_hops(&mut built, src, dst, flow).expect("walk delivers");
                    assert_eq!(walked, wire[1..wire.len() - 1], "{label}");
                }
            }
        }
    }
}

/// On the paper's fabric, and on two shapes past the 128 ports where
/// MR-MTP walks its tables instead of its compiled FIB: 132-port ToRs, and
/// a 130-PoD fabric of one path per ToR pair whose top spine reaches the
/// last two PoDs through ports 128 and 129.
#[test]
fn walker_hops_are_the_hops_of_a_real_packet() {
    walker_hops_match_the_wire(ClosParams::two_pod(), 1..4, 0..2);
    let wide_tors = ClosParams { servers_per_tor: 130, ..ClosParams::two_pod() };
    let fabric = Fabric::build(wide_tors);
    assert_eq!(fabric.ports[fabric.tor(0, 0)].len(), 132);
    walker_hops_match_the_wire(wide_tors, 1..4, 0..2);
    let wide_top = ClosParams {
        pods: 130,
        spines_per_pod: 1,
        tors_per_pod: 1,
        uplinks_per_spine: 1,
        ..ClosParams::two_pod()
    };
    let fabric = Fabric::build(wide_top);
    assert_eq!(fabric.ports[fabric.top_spine(0)].len(), 130);
    walker_hops_match_the_wire(wide_top, 1..2, 0..1);
}
