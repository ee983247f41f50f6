//! Quickstart: build the paper's 2-PoD folded-Clos, run MR-MTP, watch the
//! meshed trees form (Fig. 2), and forward a packet between far racks.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dcn_experiments::{build_sim, Stack};
use dcn_sim::time::secs;
use dcn_sim::NodeId;
use dcn_topology::ClosParams;
use dcn_traffic::{SendSpec, TrafficHost};

fn main() {
    // The paper's 2-PoD test topology: 4 ToRs (VIDs 11–14), 4 PoD
    // spines, 4 top spines, one server per rack.
    let params = ClosParams::two_pod();

    // One monitored flow: server 192.168.11.1 → server 192.168.14.1,
    // starting after the fabric has converged.
    let fabric = dcn_topology::Fabric::build(params);
    let addr = dcn_topology::Addressing::new(&fabric);
    let src = fabric.server(0, 0, 0);
    let dst_ip = addr.server_addr(fabric.tor(1, 1), 0).unwrap();
    let mut spec = SendSpec::new(dst_ip, secs(2), secs(3));
    spec.count = 100;

    let mut built = build_sim(params, Stack::Mrmtp, 42, &[(src, spec)]);
    println!(
        "running MR-MTP on a 2-PoD folded-Clos ({} routers, {} links)…\n",
        built.fabric.num_routers(),
        built.fabric.links.len()
    );
    built.sim.run_until(secs(4));

    // The meshed trees of Fig. 2: every top spine holds one VID per ToR,
    // each VID spelling the path back to its root.
    for k in 0..4 {
        let spine = built.mrmtp(built.fabric.top_spine(k));
        println!("VID table at {} (S2_{}):", spine.name(), k + 1);
        print!("{}", spine.render_table());
        println!();
    }
    for j in 0..2 {
        let spine = built.mrmtp(built.fabric.pod_spine(0, j));
        println!("VID table at {} (S1_{}):", spine.name(), j + 1);
        print!("{}", spine.render_table());
        println!();
    }

    // End-to-end delivery across the fabric.
    let sent = built.host(src).sent();
    let dst = built.fabric.server(1, 1, 0);
    let report = built.sim.node_as::<TrafficHost>(NodeId(dst as u32)).unwrap().report(sent);
    println!(
        "traffic 192.168.11.1 → {dst_ip}: sent {} received {} lost {} \
         (duplicates {}, out-of-order {})",
        report.sent,
        report.unique,
        report.lost(),
        report.duplicates,
        report.out_of_order
    );
    assert_eq!(report.lost(), 0, "healthy fabric loses nothing");
    println!("\nquickstart OK");
}
