//! One driver per paper figure/listing. Each returns a [`Figure`] whose
//! `render()` prints the same rows/series the paper reports.

use dcn_sim::time::secs;
use dcn_topology::{
    bgp_router_config, mrmtp_fabric_config, Addressing, ClosParams, ConfigStats, Fabric,
    FailureCase,
};

use crate::campaign::pool::fan_out;
use crate::campaign::{run_grid, CampaignSpec};
use crate::fabric::{BuiltSim, Stack};
use crate::runspec::RunSpec;
use crate::scenario::{self, ScenarioResult, Timing, TrafficDir};
use crate::table;

/// The steady-state run the keep-alive figures share (no failure, short
/// measurement tail).
fn steady_state(stack: Stack, seed: u64) -> RunSpec {
    RunSpec::new(ClosParams::two_pod(), stack).seeded(seed).timed(Timing::steady())
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
    /// Run `specs` over the shared pool and make one row of each spec and
    /// its result; rows come back in `specs` order.
    pub(crate) fn of_runs(
        title: impl Into<String>,
        headers: Vec<&'static str>,
        specs: Vec<RunSpec>,
        row: impl Fn(&RunSpec, &ScenarioResult) -> Vec<String> + Sync,
    ) -> Figure {
        let rows = fan_out(specs, 0, |s| row(&s, &s.run()));
        Figure { title: title.into(), headers, rows }
    }

    pub fn render(&self) -> String {
        format!("{}\n{}", self.title, table::render(&self.headers, &self.rows))
    }
}

/// The paper's failure matrix as a campaign grid: {2-PoD, 4-PoD} ×
/// {MR-MTP, BGP/ECMP, BGP/ECMP/BFD} × {TC1..TC4}, no traffic, one run at
/// `seed`. Figs. 4–8 add both traffic directions, the replicated Fig. 4
/// more seeds.
pub fn paper_grid(seed: u64) -> CampaignSpec {
    CampaignSpec {
        name: "paper".into(),
        pods: vec![2, 4],
        stacks: Stack::ALL.to_vec(),
        failures: FailureCase::ALL.map(Some).to_vec(),
        traffic: vec![TrafficDir::None],
        local_repair: vec![false],
        seeds: 1,
        base_seed: seed,
        quick: false,
    }
}

/// The `topology` cell of a grid row.
pub(crate) fn topology(s: &RunSpec) -> String {
    format!("{}-PoD", s.params.pods)
}

/// One row per run of `runs` whose traffic flows in `dir`.
fn matrix_figure(
    title: &str,
    runs: &[(RunSpec, ScenarioResult)],
    dir: TrafficDir,
    value_header: &'static str,
    value: impl Fn(&ScenarioResult) -> String,
) -> Figure {
    let rows = runs
        .iter()
        .filter(|(s, _)| s.traffic == dir)
        .map(|(s, r)| vec![topology(s), s.stack.label().to_string(), s.failure.label(), value(r)])
        .collect();
    Figure {
        title: title.to_string(),
        headers: vec!["topology", "stack", "case", value_header],
        rows,
    }
}

/// Fig. 4: network convergence time (ms), traffic near to far.
pub fn fig4_convergence(runs: &[(RunSpec, ScenarioResult)]) -> Figure {
    let title = "Fig. 4 — Convergence time after interface failure";
    matrix_figure(title, runs, TrafficDir::NearToFar, "convergence_ms", |r| {
        table::ms(r.convergence_ms)
    })
}

/// Fig. 5: blast radius (routers updating destination-routing state).
pub fn fig5_blast_radius(runs: &[(RunSpec, ScenarioResult)]) -> Figure {
    let title = "Fig. 5 — Blast radius (routers with routing-table updates)";
    matrix_figure(title, runs, TrafficDir::NearToFar, "routers", |r| r.blast_radius.to_string())
}

/// Fig. 6: control overhead in bytes of update messages.
pub fn fig6_control_overhead(runs: &[(RunSpec, ScenarioResult)]) -> Figure {
    let title = "Fig. 6 — Control overhead (bytes of update messages)";
    matrix_figure(title, runs, TrafficDir::NearToFar, "bytes", |r| r.control_bytes.to_string())
}

/// Figs. 7/8: packets lost for the monitored flow flowing in `dir`.
pub fn fig_packet_loss(runs: &[(RunSpec, ScenarioResult)], dir: TrafficDir) -> Figure {
    let title = if dir == TrafficDir::NearToFar {
        "Fig. 7 — Packet loss, traffic sender close to failure (rack 11 → rack 14)"
    } else {
        "Fig. 8 — Packet loss, traffic sender away from failure (rack 14 → rack 11)"
    };
    matrix_figure(title, runs, dir, "packets_lost", |r| {
        r.loss.map(|l| l.lost().to_string()).unwrap_or_else(|| "-".into())
    })
}

/// Figs. 9–10: steady-state keep-alive overhead per stack.
pub fn fig9_keepalive(seed: u64) -> Figure {
    Figure::of_runs(
        "Figs. 9–10 — Steady-state keep-alive overhead (2-PoD, 2 s window)\n\
         (frame sizes: MR-MTP hello 60 B; BFD 66 B; BGP keepalive 85 B)",
        vec!["stack", "avg_frame_B", "frames", "bytes_per_sec"],
        Stack::ALL.map(|stack| steady_state(stack, seed)).to_vec(),
        |s, r| {
            vec![
                s.stack.label().to_string(),
                format!("{:.0}", r.keepalive.avg_frame_len),
                r.keepalive.frames.to_string(),
                format!("{:.0}", r.keepalive.bytes_per_sec),
            ]
        },
    )
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
    let grid = CampaignSpec {
        name: "scale-sweep".into(),
        pods: pods.to_vec(),
        stacks: vec![Stack::Mrmtp, Stack::BgpEcmp],
        failures: vec![Some(FailureCase::Tc1)],
        ..paper_grid(seed)
    };
    let rows = run_grid(&grid)
        .iter()
        .map(|(s, r)| {
            vec![
                s.params.pods.to_string(),
                s.stack.label().to_string(),
                table::ms(r.convergence_ms),
                r.blast_radius.to_string(),
                r.control_bytes.to_string(),
            ]
        })
        .collect();
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
    let specs = [Stack::Mrmtp, Stack::BgpEcmp]
        .into_iter()
        .flat_map(|stack| {
            [ClosParams::four_pod(), ClosParams::four_tier()].map(|params| {
                RunSpec::new(params, stack).failing(FailureCase::Tc1).seeded(seed).timed(timing)
            })
        })
        .collect();
    Figure::of_runs(
        "§IX extension — tier scaling (failure at TC1)",
        vec!["fabric", "stack", "routers", "convergence_ms", "blast_radius", "control_bytes"],
        specs,
        |s, r| {
            let fabric =
                if s.params.zones.is_some() { "4-tier (2×2 zones)" } else { "3-tier (4-PoD)" };
            vec![
                fabric.to_string(),
                s.stack.label().to_string(),
                s.params.num_routers().to_string(),
                table::ms(r.convergence_ms),
                r.blast_radius.to_string(),
                r.control_bytes.to_string(),
            ]
        },
    )
}

/// §IX extension: "overhead calculations of using the MR-MTP header for
/// every IP packet". Runs the monitored flow with no failure and
/// compares data-plane bytes per packet-hop: MR-MTP encapsulates every
/// server packet (MR-MTP header with source/destination VIDs and flow
/// hash); BGP forwards the bare IP packet.
pub fn encap_overhead_figure(seed: u64) -> Figure {
    let specs = [Stack::Mrmtp, Stack::BgpEcmp]
        .map(|stack| {
            let mut s = RunSpec::new(ClosParams::two_pod(), stack)
                .with_traffic(TrafficDir::NearToFar)
                .seeded(seed);
            s.timing.post_failure = secs(2);
            s
        })
        .to_vec();
    let mut fig = Figure::of_runs(
        "§IX extension — data-plane encapsulation overhead (128 B UDP payloads,\n\
         steady flow 11→14, all hops counted)",
        vec!["stack", "data_frames", "wire_bytes", "bytes_per_hop"],
        specs,
        |s, r| {
            let (frames, bytes) = r
                .breakdown
                .iter()
                .find(|(k, _, _)| *k == "data")
                .map(|&(_, f, b)| (f, b))
                .unwrap_or((0, 0));
            let per_hop = if frames > 0 { bytes as f64 / frames as f64 } else { 0.0 };
            vec![
                s.stack.label().to_string(),
                frames.to_string(),
                bytes.to_string(),
                format!("{per_hop:.1}"),
            ]
        },
    );
    // Relative overhead in the last row.
    let m: f64 = fig.rows[0][3].parse().unwrap_or(0.0);
    let b: f64 = fig.rows[1][3].parse().unwrap_or(1.0);
    fig.rows.push(vec![
        "overhead".into(),
        "-".into(),
        "-".into(),
        format!("{:+.1}%", 100.0 * (m - b) / b),
    ]);
    fig
}

/// Fig. 1: the protocol-machinery comparison — protocols running on a
/// router under each stack, plus measured steady-state control traffic.
pub fn fig1_stack_comparison(seed: u64) -> Figure {
    Figure::of_runs(
        "Fig. 1 — Protocol machinery per router (and measured steady-state \
         keep-alive load)",
        vec!["stack", "protocols", "list", "keepalive_Bps"],
        Stack::ALL.map(|stack| steady_state(stack, seed)).to_vec(),
        |s, r| {
            let protocols = match s.stack {
                Stack::Mrmtp => "MR-MTP",
                Stack::BgpEcmp => "BGP, ECMP, TCP, IP",
                Stack::BgpEcmpBfd => "BGP, ECMP, BFD, TCP, UDP, IP",
            };
            vec![
                s.stack.label().to_string(),
                protocols.split(',').count().to_string(),
                protocols.to_string(),
                format!("{:.0}", r.keepalive.bytes_per_sec),
            ]
        },
    )
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
