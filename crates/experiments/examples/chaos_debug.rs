//! Throwaway probe: dissect a black-holing chaos seed.

use dcn_experiments::chaos::ChaosConfig;
use dcn_experiments::{build_sim, Stack};
use dcn_sim::{Impairment, NodeId};
use dcn_topology::Role;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(39);
    let cfg = ChaosConfig::default();
    let mut built = build_sim(cfg.params, Stack::Mrmtp, seed, &[]);
    let schedule =
        dcn_experiments::chaos::FaultSchedule::generate(seed, &built.fabric, &cfg);
    built.schedule_faults(0, &schedule.events);
    let heal_at = cfg.heal_at();
    built.sim.run_until(cfg.warmup);
    built.sim.set_impairment_all(cfg.impairment);
    built.sim.run_until(heal_at - 1);
    built.sim.set_impairment_all(Impairment::none());
    built.sim.run_until(cfg.end_at());

    let tors: Vec<usize> = built
        .fabric
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.role, Role::Tor { .. }))
        .map(|(i, _)| i)
        .collect();
    for &src in &tors {
        for &dst in &tors {
            if src == dst {
                continue;
            }
            let dst_ip = built.addr.server_addr(dst, 0).unwrap();
            let root = dst_ip.third_octet();
            for f in 0..4u16 {
                let src_ip = built.addr.server_addr(src, 0).unwrap();
                let hash =
                    dcn_wire::flow_hash(src_ip, dst_ip, dcn_wire::IPPROTO_UDP, 1000 + f, 5000);
                let f16 = (hash & 0xFFFF) as u16;
                // walk with trail
                let mut trail = vec![src];
                let mut cur = src;
                let mut outcome = "ok";
                loop {
                    if cur == dst {
                        break;
                    }
                    if trail[..trail.len() - 1].contains(&cur) {
                        outcome = "LOOP";
                        break;
                    }
                    let port = built.mrmtp(cur).forwarding_port(root, f16, |p| {
                        built.sim.port_up(NodeId(cur as u32), p)
                    });
                    let Some(port) = port else {
                        outcome = "BLACKHOLE";
                        break;
                    };
                    cur = built
                        .sim
                        .peer_of(NodeId(cur as u32), port)
                        .unwrap()
                        .node
                        .0 as usize;
                    trail.push(cur);
                }
                if outcome != "ok" {
                    println!(
                        "{outcome}: {}->{} flow {f} root {root} trail {:?}",
                        built.sim.node_name(NodeId(src as u32)),
                        built.sim.node_name(NodeId(dst as u32)),
                        trail
                            .iter()
                            .map(|&n| built.sim.node_name(NodeId(n as u32)))
                            .collect::<Vec<_>>()
                    );
                    let stuck = *trail.last().unwrap();
                    println!(
                        "  stuck at {} (tier {}): candidates for root {root}: {:?}",
                        built.sim.node_name(NodeId(stuck as u32)),
                        built.mrmtp(stuck).tier(),
                        built.mrmtp(stuck).forwarding_candidates(root, |p| {
                            built.sim.port_up(NodeId(stuck as u32), p)
                        })
                    );
                    println!("{}", built.mrmtp(stuck).render_table());
                }
            }
        }
    }
}
