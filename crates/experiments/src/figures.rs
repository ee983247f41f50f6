//! One driver per paper figure/listing. Each returns a [`Figure`] whose
//! `render()` prints the same rows/series the paper reports.

use dcn_sim::time::secs;
use dcn_topology::{
    bgp_router_config, mrmtp_fabric_config, Addressing, ClosParams, ConfigStats, Fabric,
    FailureCase,
};

use crate::campaign::pool::fan_out;
use crate::fabric::{BuiltSim, Stack};
use crate::runspec::RunSpec;
use crate::scenario::{self, ScenarioResult, Timing, TrafficDir};
use crate::table;

/// The steady-state run the keep-alive figures share (no failure, short
/// measurement tail).
fn steady_state(stack: Stack, seed: u64) -> ScenarioResult {
    RunSpec::new(ClosParams::two_pod(), stack).seeded(seed).timed(Timing::steady()).run()
}

/// A 4-PoD fabric of `stack` converged for five seconds, for the figures
/// that read router tables rather than measure a failure.
fn converged_four_pod(stack: Stack, seed: u64) -> BuiltSim {
    let converge = Timing { warmup: secs(5), traffic_lead: 0, post_failure: 0, drain: 0 };
    scenario::run_with_sim(RunSpec::new(ClosParams::four_pod(), stack).seeded(seed).timed(converge))
        .1
}

/// A printable result table.
#[derive(Clone, Debug)]
pub struct Figure {
    pub title: String,
    pub headers: Vec<&'static str>,
    pub rows: Vec<Vec<String>>,
}

impl Figure {
    pub fn render(&self) -> String {
        format!("{}\n{}", self.title, table::render(&self.headers, &self.rows))
    }
}

/// One cell of the failure-experiment matrix.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    pub topo: &'static str,
    pub stack: Stack,
    pub tc: FailureCase,
    pub result: ScenarioResult,
}

/// The paper's full failure matrix: {2-PoD, 4-PoD} × {MR-MTP, BGP/ECMP,
/// BGP/ECMP/BFD} × {TC1..TC4}, with traffic flowing in `dir`. Runs in
/// parallel across CPUs.
pub fn failure_matrix(dir: TrafficDir, seed: u64) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for (topo, params) in [("2-PoD", ClosParams::two_pod()), ("4-PoD", ClosParams::four_pod())] {
        for stack in Stack::ALL {
            for tc in FailureCase::ALL {
                cells.push((topo, params, stack, tc));
            }
        }
    }
    fan_out(cells, 0, |(topo, params, stack, tc)| {
        let spec = RunSpec::new(params, stack).failing(tc).with_traffic(dir).seeded(seed);
        MatrixCell { topo, stack, tc, result: spec.run() }
    })
}

fn matrix_figure(
    title: &str,
    cells: &[MatrixCell],
    value_header: &'static str,
    value: impl Fn(&ScenarioResult) -> String,
) -> Figure {
    let rows = cells
        .iter()
        .map(|c| {
            vec![
                c.topo.to_string(),
                c.stack.label().to_string(),
                c.tc.label().to_string(),
                value(&c.result),
            ]
        })
        .collect();
    Figure {
        title: title.to_string(),
        headers: vec!["topology", "stack", "case", value_header],
        rows,
    }
}

/// Fig. 4: network convergence time (ms).
pub fn fig4_convergence(cells: &[MatrixCell]) -> Figure {
    matrix_figure(
        "Fig. 4 — Convergence time after interface failure",
        cells,
        "convergence_ms",
        |r| table::ms(r.convergence_ms),
    )
}

/// Fig. 5: blast radius (routers updating destination-routing state).
pub fn fig5_blast_radius(cells: &[MatrixCell]) -> Figure {
    matrix_figure(
        "Fig. 5 — Blast radius (routers with routing-table updates)",
        cells,
        "routers",
        |r| r.blast_radius.to_string(),
    )
}

/// Fig. 6: control overhead in bytes of update messages.
pub fn fig6_control_overhead(cells: &[MatrixCell]) -> Figure {
    matrix_figure("Fig. 6 — Control overhead (bytes of update messages)", cells, "bytes", |r| {
        r.control_bytes.to_string()
    })
}

/// Figs. 7/8: packets lost for the monitored flow.
pub fn fig_packet_loss(cells: &[MatrixCell], near: bool) -> Figure {
    let title = if near {
        "Fig. 7 — Packet loss, traffic sender close to failure (rack 11 → rack 14)"
    } else {
        "Fig. 8 — Packet loss, traffic sender away from failure (rack 14 → rack 11)"
    };
    matrix_figure(title, cells, "packets_lost", |r| {
        r.loss.map(|l| l.lost().to_string()).unwrap_or_else(|| "-".into())
    })
}

/// Figs. 9–10: steady-state keep-alive overhead per stack.
pub fn fig9_keepalive(seed: u64) -> Figure {
    let mut rows = Vec::new();
    for stack in Stack::ALL {
        let r = steady_state(stack, seed);
        rows.push(vec![
            stack.label().to_string(),
            format!("{:.0}", r.keepalive.avg_frame_len),
            r.keepalive.frames.to_string(),
            format!("{:.0}", r.keepalive.bytes_per_sec),
        ]);
    }
    Figure {
        title: "Figs. 9–10 — Steady-state keep-alive overhead (2-PoD, 2 s window)\n\
                (frame sizes: MR-MTP hello 60 B; BFD 66 B; BGP keepalive 85 B)"
            .to_string(),
        headers: vec!["stack", "avg_frame_B", "frames", "bytes_per_sec"],
        rows,
    }
}

/// §VII-G (Listings 1–2): configuration burden comparison.
pub fn config_comparison() -> Figure {
    let mut rows = Vec::new();
    for (name, params) in [("2-PoD", ClosParams::two_pod()), ("4-PoD", ClosParams::four_pod())] {
        let fabric = Fabric::build(params);
        let addr = Addressing::new(&fabric);
        let bgp = ConfigStats::for_bgp(&fabric, &addr, true);
        let mtp = ConfigStats::for_mrmtp(&fabric);
        for (stack, stats) in [("BGP/ECMP/BFD", bgp), ("MR-MTP", mtp)] {
            rows.push(vec![
                name.to_string(),
                stack.to_string(),
                stats.routers.to_string(),
                stats.total_lines.to_string(),
                stats.total_bytes.to_string(),
            ]);
        }
    }
    Figure {
        title: "Listings 1–2 — Configuration burden (whole fabric)".to_string(),
        headers: vec!["topology", "stack", "routers", "config_lines", "config_bytes"],
        rows,
    }
}

/// §VII-H (Listings 3 & 5): routing-table size comparison at converged
/// routers.
pub fn table_size_comparison(seed: u64) -> Figure {
    // BGP: tier-2 spine.
    let bgp = converged_four_pod(Stack::BgpEcmp, seed);
    let spine = bgp.bgp(bgp.fabric.pod_spine(0, 0));
    let bgp_routes = spine.rib().route_count();
    let bgp_paths = spine.rib().path_count();
    let bgp_bytes = spine.rib().approx_bytes();
    // MR-MTP: top spine.
    let mtp = converged_four_pod(Stack::Mrmtp, seed);
    let top = mtp.mrmtp(mtp.fabric.top_spine(0));
    let vid_entries = top.vid_table().own_entry_count();
    let vid_bytes = top.vid_table().approx_bytes();
    Figure {
        title: "Listings 3 & 5 — Routing state at a converged router (4-PoD)".to_string(),
        headers: vec!["stack", "router", "entries", "paths", "approx_bytes"],
        rows: vec![
            vec![
                "BGP/ECMP".into(),
                "S-1-1 (tier-2 spine)".into(),
                bgp_routes.to_string(),
                bgp_paths.to_string(),
                bgp_bytes.to_string(),
            ],
            vec![
                "MR-MTP".into(),
                "T-1 (top spine)".into(),
                vid_entries.to_string(),
                vid_entries.to_string(),
                vid_bytes.to_string(),
            ],
        ],
    }
}

/// Render the raw Listings 1/2/3/5 artifacts from converged 4-PoD runs.
pub fn render_listings(seed: u64) -> String {
    let fabric = Fabric::build(ClosParams::four_pod());
    let addr = Addressing::new(&fabric);
    let mut out = String::new();
    out.push_str("==== Listing 1: BGP configuration at router T-1 ====\n");
    out.push_str(&bgp_router_config(&fabric, &addr, fabric.top_spine(0), true));
    out.push_str("\n==== Listing 2: MR-MTP 4-PoD configuration (single file) ====\n");
    out.push_str(&mrmtp_fabric_config(&fabric));
    let bgp = converged_four_pod(Stack::BgpEcmp, seed);
    out.push_str("\n\n==== Listing 3: tier-2 spine (S-1-1) BGP routing table ====\n");
    out.push_str(&bgp.bgp(bgp.fabric.pod_spine(0, 0)).render_table());
    let mtp = converged_four_pod(Stack::Mrmtp, seed);
    out.push_str("\n==== Listing 5: top spine (T-1) MR-MTP VID table ====\n");
    out.push_str(&mtp.mrmtp(mtp.fabric.top_spine(0)).render_table());
    out
}

/// §IX extension: scalability sweep over PoD counts (the paper defers
/// this to future Mininet work; the emulator does it directly).
pub fn scale_sweep(pods: &[usize], seed: u64) -> Figure {
    let points: Vec<(usize, Stack)> =
        pods.iter().flat_map(|&p| [(p, Stack::Mrmtp), (p, Stack::BgpEcmp)]).collect();
    let rows = fan_out(points, 0, |(p, stack)| {
        let params = ClosParams::scaled(p).expect("sweep pod counts are even");
        let r = RunSpec::new(params, stack).failing(FailureCase::Tc1).seeded(seed).run();
        vec![
            p.to_string(),
            stack.label().to_string(),
            table::ms(r.convergence_ms),
            r.blast_radius.to_string(),
            r.control_bytes.to_string(),
        ]
    });
    Figure {
        title: "§IX extension — scalability sweep (failure at TC1)".to_string(),
        headers: vec!["pods", "stack", "convergence_ms", "blast_radius", "control_bytes"],
        rows,
    }
}

/// §IX extension: three vs four tiers under the same failure cases. The
/// paper's claim under test: MR-MTP "can easily scale to any number of
/// spine tiers" with no protocol or configuration changes.
pub fn tier_comparison(seed: u64) -> Figure {
    // Five seconds to converge, TC1, five seconds to settle.
    let timing = Timing { warmup: secs(5), traffic_lead: 0, post_failure: secs(5), drain: 0 };
    let mut rows = Vec::new();
    for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
        for (label, params) in [
            ("3-tier (4-PoD)", ClosParams::four_pod()),
            ("4-tier (2×2 zones)", ClosParams::four_tier()),
        ] {
            let r = RunSpec::new(params, stack)
                .failing(FailureCase::Tc1)
                .seeded(seed)
                .timed(timing)
                .run();
            rows.push(vec![
                label.to_string(),
                stack.label().to_string(),
                params.num_routers().to_string(),
                table::ms(r.convergence_ms),
                r.blast_radius.to_string(),
                r.control_bytes.to_string(),
            ]);
        }
    }
    Figure {
        title: "§IX extension — tier scaling (failure at TC1)".to_string(),
        headers: vec![
            "fabric",
            "stack",
            "routers",
            "convergence_ms",
            "blast_radius",
            "control_bytes",
        ],
        rows,
    }
}

/// §IX extension: "overhead calculations of using the MR-MTP header for
/// every IP packet". Runs the monitored flow with no failure and
/// compares data-plane bytes per packet-hop: MR-MTP encapsulates every
/// server packet (MR-MTP header with source/destination VIDs and flow
/// hash); BGP forwards the bare IP packet.
pub fn encap_overhead_figure(seed: u64) -> Figure {
    let mut rows = Vec::new();
    for stack in [Stack::Mrmtp, Stack::BgpEcmp] {
        let mut s = RunSpec::new(ClosParams::two_pod(), stack)
            .with_traffic(TrafficDir::NearToFar)
            .seeded(seed);
        s.timing.post_failure = secs(2);
        let r = s.run();
        let (frames, bytes) = r
            .breakdown
            .iter()
            .find(|(k, _, _)| *k == "data")
            .map(|&(_, f, b)| (f, b))
            .unwrap_or((0, 0));
        let per_hop = if frames > 0 { bytes as f64 / frames as f64 } else { 0.0 };
        rows.push(vec![
            stack.label().to_string(),
            frames.to_string(),
            bytes.to_string(),
            format!("{per_hop:.1}"),
        ]);
    }
    // Relative overhead in the last row.
    if rows.len() == 2 {
        let m: f64 = rows[0][3].parse().unwrap_or(0.0);
        let b: f64 = rows[1][3].parse().unwrap_or(1.0);
        rows.push(vec![
            "overhead".into(),
            "-".into(),
            "-".into(),
            format!("{:+.1}%", 100.0 * (m - b) / b),
        ]);
    }
    Figure {
        title: "§IX extension — data-plane encapsulation overhead (128 B UDP payloads,\n\
                steady flow 11→14, all hops counted)"
            .to_string(),
        headers: vec!["stack", "data_frames", "wire_bytes", "bytes_per_hop"],
        rows,
    }
}

/// Fig. 1: the protocol-machinery comparison — protocols running on a
/// router under each stack, plus measured steady-state control traffic.
pub fn fig1_stack_comparison(seed: u64) -> Figure {
    let mut rows = Vec::new();
    for stack in Stack::ALL {
        let protocols = match stack {
            Stack::Mrmtp => "MR-MTP",
            Stack::BgpEcmp => "BGP, ECMP, TCP, IP",
            Stack::BgpEcmpBfd => "BGP, ECMP, BFD, TCP, UDP, IP",
        };
        let count = protocols.split(',').count();
        let r = steady_state(stack, seed);
        rows.push(vec![
            stack.label().to_string(),
            count.to_string(),
            protocols.to_string(),
            format!("{:.0}", r.keepalive.bytes_per_sec),
        ]);
    }
    Figure {
        title: "Fig. 1 — Protocol machinery per router (and measured steady-state \
                keep-alive load)"
            .to_string(),
        headers: vec!["stack", "protocols", "list", "keepalive_Bps"],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_rendering_includes_title_and_rows() {
        let f = Figure { title: "T".into(), headers: vec!["a"], rows: vec![vec!["1".into()]] };
        let s = f.render();
        assert!(s.starts_with("T\n"));
        assert!(s.contains('1'));
    }

    #[test]
    fn config_comparison_favors_mrmtp_increasingly() {
        let f = config_comparison();
        assert_eq!(f.rows.len(), 4);
        let bytes: Vec<u64> = f.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        // [2pod-bgp, 2pod-mtp, 4pod-bgp, 4pod-mtp]
        assert!(bytes[0] > bytes[1]);
        assert!(bytes[2] > bytes[3]);
        assert!(bytes[2] as f64 / bytes[3] as f64 > bytes[0] as f64 / bytes[1] as f64);
    }

    #[test]
    fn listings_render_contains_all_four_artifacts() {
        let s = render_listings(1);
        assert!(s.contains("router bgp 64512"));
        assert!(s.contains("leavesNetworkPortDict"));
        assert!(s.contains("proto bgp metric 20"));
        assert!(s.contains("11.1.1"));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn encap_overhead_is_small_and_positive() {
        let f = encap_overhead_figure(5);
        assert_eq!(f.rows.len(), 3);
        let mtp: f64 = f.rows[0][3].parse().unwrap();
        let bgp: f64 = f.rows[1][3].parse().unwrap();
        assert!(mtp > bgp, "encapsulation adds bytes: {mtp} vs {bgp}");
        let pct = 100.0 * (mtp - bgp) / bgp;
        assert!((0.5..15.0).contains(&pct), "single-digit percent overhead expected: {pct:.1}%");
    }

    #[test]
    fn tier_comparison_contains_both_stacks_and_fabrics() {
        let f = tier_comparison(5);
        assert_eq!(f.rows.len(), 4);
        // MR-MTP's blast radius must not grow when a tier is added (zone
        // containment), while BGP's does.
        let mtp3: usize = f.rows[0][4].parse().unwrap();
        let mtp4: usize = f.rows[1][4].parse().unwrap();
        let bgp3: usize = f.rows[2][4].parse().unwrap();
        let bgp4: usize = f.rows[3][4].parse().unwrap();
        assert!(mtp4 <= mtp3 + 1, "zone containment: {mtp3} → {mtp4}");
        assert!(bgp4 > bgp3, "BGP's withdraw cascade widens: {bgp3} → {bgp4}");
    }
}
