//! `fcr` — folded-clos-routing command line.
//!
//! A thin front end over `dcn-experiments` for running reproduction
//! pieces without writing code; run it without arguments for the list.
//!
//! Every subcommand is one row of [`COMMANDS`]: its positional arguments
//! and the only flags it accepts. The usage text is printed from that
//! table and one loop ([`parse`]) checks an invocation against it, so a
//! flag a subcommand does not read, a value it does not know or a
//! malformed number is a usage error (exit 2), never something else run
//! in its place.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::str::FromStr;

use dcn_experiments::campaign::{self, CampaignSpec};
use dcn_experiments::chaos::{self, VIOLATION_TERMS};
use dcn_experiments::scenario::run_with_sim;
use dcn_experiments::{
    ablations, bundle_from_run, extended_failures, figures, perf_report, replicate, report,
    run_instrumented, write_profile_artifacts, CampaignConfig, Failure, RunSpec, Stack, TrafficDir,
};
use dcn_telemetry::{PerfReport, TraceBundle};
use dcn_topology::{ClosParams, FailureCase};

/// Seed of every subcommand that does not take `--seed`.
const SEED: u64 = 42;

/// One flag a subcommand reads. `value` names its argument in the usage
/// text; a flag with an empty `value` is a switch.
struct Flag {
    name: &'static str,
    value: &'static str,
    help: &'static str,
}

/// One subcommand: its positional arguments (`<required>`, `[optional]`),
/// the flags it reads — an invocation may carry no others — and the
/// function that runs it.
struct Command {
    name: &'static str,
    args: &'static str,
    help: &'static str,
    flags: &'static [Flag],
    run: fn(&Args),
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value, help }
}

const PODS: Flag = flag("--pods", "N", "fabric size in PoDs (even, default 2)");
const SEED_FLAG: Flag = flag("--seed", "N", "seed (default 42)");
const LOCAL_REPAIR: Flag = flag("--local-repair", "", "enable in-data-plane local fast reroute");
const TELEMETRY_OUT: Flag =
    flag("--telemetry-out", "DIR", "also write the run's trace bundle under DIR");

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command {
        name: "figures", args: "", help: "regenerate every paper figure",
        flags: &[], run: cmd_figures,
    },
    Command {
        name: "scenario", args: "<stack> <tc> [dir]",
        help: "one experiment (stack: mrmtp|bgp|bgp-bfd;\n\
               tc: tc1..tc4, or a §IX case: pod-spine-crash|\n\
               top-spine-crash|double-uplink; dir: near|far,\n\
               default near)",
        flags: &[
            PODS, SEED_FLAG, LOCAL_REPAIR, TELEMETRY_OUT,
            flag("--profile-out", "DIR", "also write the engine profile,\nperf_report.json, under DIR"),
        ],
        run: cmd_scenario,
    },
    Command {
        name: "profile", args: "<stack> <tc>",
        help: "engine runtime profile of one scenario:\n\
               events, wall time, hot nodes,\n\
               scheduler occupancy",
        flags: &[
            PODS, SEED_FLAG, LOCAL_REPAIR,
            flag("--out", "DIR", "write perf_report.json (perf_report/v3)"),
        ],
        run: cmd_profile,
    },
    Command {
        name: "report", args: "<stack> <tc>",
        help: "convergence storyboard + per-router counters",
        flags: &[SEED_FLAG, LOCAL_REPAIR, TELEMETRY_OUT], run: cmd_report,
    },
    Command {
        name: "listings", args: "", help: "Listings 1/2/3/5 artifacts",
        flags: &[], run: |_| println!("{}", figures::render_listings(SEED)),
    },
    Command {
        name: "sweep", args: "[max_pods]",
        help: "scalability sweep over 2, 4, … max_pods (even, default 8)\n+ tier comparison",
        flags: &[], run: cmd_sweep,
    },
    Command {
        name: "ablations", args: "", help: "design-choice ablations",
        flags: &[], run: cmd_ablations,
    },
    Command {
        name: "keepalive", args: "", help: "steady-state keep-alive summary",
        flags: &[], run: cmd_keepalive,
    },
    Command {
        name: "extended", args: "", help: "whole-node/multi-point failures + encap overhead",
        flags: &[], run: cmd_extended,
    },
    Command {
        name: "replicate", args: "[n]", help: "Fig. 4 averaged over n seeds (n >= 1, default 5)",
        flags: &[
            LOCAL_REPAIR,
            flag("--telemetry-out", "DIR", "also write per-seed bundles for each stack on TC1"),
        ],
        run: cmd_replicate,
    },
    Command {
        name: "chaos", args: "", help: "randomized fault campaign with invariant checks",
        flags: &[
            flag("--seeds", "N", "seeds per stack (default 64)"),
            flag("--base-seed", "N", "first seed value (default 1)"),
            flag("--threads", "N", "worker threads (default: all cores)"),
            flag("--stacks", "LIST", "comma list of mrmtp|bgp|bgp-bfd (default mrmtp,bgp)"),
            flag("--flaps", "N", "link flaps per schedule (default 6)"),
            flag("--crashes", "N", "node crashes per schedule (default 1)"),
            flag("--k", "N", "concurrent-failure burst size (default 2)"),
            flag("--loss-ppm", "N", "frame loss during window (default 2000)"),
            flag("--corrupt-ppm", "N", "frame corruption during window (default 10000)"),
            flag("--local-repair", "", "enable local fast reroute (+ repair-loop invariant)"),
            flag("--traffic-pairs", "N", "cross-pod background flows per schedule (default 0)"),
            flag("--no-determinism", "", "skip the double-run digest comparison"),
            flag("--telemetry-out", "DIR", "write a replay bundle for every violating seed"),
            flag("--profile-out", "DIR", "write perf_report.json per (stack, seed) under DIR"),
        ],
        run: cmd_chaos,
    },
    Command {
        name: "campaign run", args: "[spec]",
        help: "expand a campaign grid (spec JSON file, or\n\
               'default' for 2,4-PoD x mrmtp,bgp x tc1,tc2\n\
               x 3 seeds) across cores into a results store",
        flags: &[
            flag("--out", "DIR", "store directory (required; must be fresh)"),
            flag("--threads", "N", "campaign worker threads (default: all cores)"),
            flag("--seeds", "N", "override the spec's seeds-per-point count"),
            flag("--quick", "", "shortened per-run timeline (CI smoke)"),
        ],
        run: cmd_campaign_run,
    },
    Command {
        name: "campaign report", args: "<store>", help: "summary table of one results store",
        flags: &[], run: cmd_campaign_report,
    },
    Command {
        name: "campaign diff", args: "<a> <b>",
        help: "compare two stores run by run: any digest\n\
               mismatch or >threshold metric drift fails\n\
               (exit 1); coverage changes are reported;\n\
               stores whose digest definitions differ are\n\
               refused (exit 2)",
        flags: &[flag(
            "--threshold", "PCT",
            "relative metric-drift tolerance in percent\n(default 5; digests are compared exactly)",
        )],
        run: cmd_campaign_diff,
    },
];

/// The usage text, printed from [`COMMANDS`].
fn usage_text() -> String {
    let mut out = String::from("usage: fcr <command>\n\ncommands:\n");
    for c in COMMANDS {
        let head = format!("{} {}", c.name, c.args);
        out += &format!(
            "  {:<29} {}\n",
            head.trim_end(),
            c.help.replace('\n', &format!("\n{:32}", ""))
        );
        for f in c.flags {
            let head = format!("{} {}", f.name, f.value);
            out += &format!(
                "    {:<20} {}\n",
                head.trim_end(),
                f.help.replace('\n', &format!("\n{:25}", ""))
            );
        }
    }
    out
}

/// Report a malformed invocation: what was wrong, then the usage text.
fn fail(msg: &str) -> ! {
    eprintln!("fcr: {msg}\n\n{}", usage_text());
    std::process::exit(2);
}

/// One invocation's arguments, checked against its [`Command`].
struct Args<'a> {
    cmd: &'static Command,
    pos: Vec<&'a str>,
    flags: Vec<(&'static str, &'a str)>,
}

/// The flag loop: sort `args` into positionals and the flags `cmd` lists,
/// rejecting any other flag, a flag missing its value, and a positional
/// count `cmd.args` does not allow.
fn parse<'a>(cmd: &'static Command, args: &'a [String]) -> Args<'a> {
    let mut parsed = Args { cmd, pos: Vec::new(), flags: Vec::new() };
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            parsed.pos.push(arg);
            continue;
        }
        let Some(flag) = cmd.flags.iter().find(|f| f.name == arg) else {
            fail(&format!("{} does not take {arg}", cmd.name));
        };
        let value = match flag.value {
            "" => "",
            _ => it.next().unwrap_or_else(|| fail(&format!("{arg} needs a value"))),
        };
        parsed.flags.push((flag.name, value));
    }
    let required = cmd.args.split_whitespace().filter(|a| a.starts_with('<')).count();
    let allowed = cmd.args.split_whitespace().count();
    if !(required..=allowed).contains(&parsed.pos.len()) {
        fail(&format!(
            "{} takes {}",
            cmd.name,
            if allowed == 0 { "no arguments" } else { cmd.args }
        ));
    }
    parsed
}

impl Args<'_> {
    /// The value given for flag `name` (the last, if repeated). Asking for
    /// a flag the subcommand's row does not list is a bug in this file.
    fn get(&self, name: &str) -> Option<&str> {
        assert!(self.cmd.flags.iter().any(|f| f.name == name), "{} lists no {name}", self.cmd.name);
        self.flags.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn num<T: FromStr>(&self, name: &str) -> Option<T> {
        self.get(name).map(|v| number(name, v))
    }

    fn dir(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }
}

fn number<T: FromStr>(what: &str, s: &str) -> T {
    s.parse().unwrap_or_else(|_| fail(&format!("{what}: {s:?} is not a number it accepts")))
}

fn stack(s: &str) -> Stack {
    Stack::from_slug(s).unwrap_or_else(|| fail(&format!("unknown stack {s:?} (mrmtp|bgp|bgp-bfd)")))
}

/// The `<stack> <tc>` spec of the single-run subcommands.
fn run_spec(a: &Args, params: ClosParams) -> RunSpec {
    let failure = Failure::from_slug(a.pos[1])
        .unwrap_or_else(|| fail(&format!("unknown failure case {:?} (tc1..tc4, …)", a.pos[1])));
    RunSpec::new(params, stack(a.pos[0]))
        .failing(failure)
        .seeded(a.num("--seed").unwrap_or(SEED))
        .with_local_repair(a.has("--local-repair"))
}

/// Resolve `--pods` into fabric parameters (2-PoD paper testbed default).
fn params_for(a: &Args) -> ClosParams {
    let p = a.num("--pods").unwrap_or(2);
    ClosParams::scaled(p).unwrap_or_else(|e| fail(&format!("--pods {p}: {e}")))
}

fn write_bundle(bundle: TraceBundle, dir: &Path) {
    match bundle.write(dir) {
        Ok(_) => eprintln!("trace bundle written to {}", dir.display()),
        Err(e) => eprintln!("bundle write to {} failed: {e}", dir.display()),
    }
}

/// Write `perf_report.json` under `dir`, say so, and return whether it
/// worked.
fn write_profile(report: &PerfReport, dir: &Path) -> bool {
    let written = write_profile_artifacts(report, dir);
    match &written {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("profile write to {} failed: {e}", dir.display()),
    }
    written.is_ok()
}

fn perf_label(s: &RunSpec) -> String {
    format!("{} {} seed {}", s.stack.slug(), s.failure.label(), s.seed)
}

fn cmd_figures(_: &Args) {
    eprintln!("running failure matrices (this fans out over all CPUs)…");
    let near = figures::failure_matrix(TrafficDir::NearToFar, SEED);
    let far = figures::failure_matrix(TrafficDir::FarToNear, SEED);
    println!("{}", figures::fig1_stack_comparison(SEED).render());
    println!("{}", figures::fig4_convergence(&near).render());
    println!("{}", figures::fig5_blast_radius(&near).render());
    println!("{}", figures::fig6_control_overhead(&near).render());
    println!("{}", figures::fig_packet_loss(&near, true).render());
    println!("{}", figures::fig_packet_loss(&far, false).render());
    println!("{}", figures::fig9_keepalive(SEED).render());
    println!("{}", figures::config_comparison().render());
    println!("{}", figures::table_size_comparison(SEED).render());
}

fn cmd_scenario(a: &Args) {
    let dir = match a.pos.get(2) {
        None => TrafficDir::NearToFar,
        Some(d) => TrafficDir::from_slug(d)
            .filter(|&d| d != TrafficDir::None)
            .unwrap_or_else(|| fail(&format!("unknown direction {d:?} (near|far)"))),
    };
    let s = run_spec(a, params_for(a)).with_traffic(dir);
    let name = format!("{}-{}", s.stack.slug(), s.failure.slug());
    let (r, built) = match a.dir("--telemetry-out") {
        None => run_with_sim(s),
        Some(out) => {
            // Instrumented run: identical event processing, plus a trace
            // bundle on disk.
            let ir = run_instrumented(s);
            write_bundle(bundle_from_run(&ir, &s), &out.join(format!("scenario-{name}")));
            (ir.result, ir.built)
        }
    };
    if let Some(out) = a.dir("--profile-out") {
        let report = perf_report(&built.sim, perf_label(&s));
        eprint!("{}", report.render_text());
        write_profile(&report, &out.join(format!("profile-{name}")));
    }
    println!(
        "convergence_ms   {}",
        r.convergence_ms.map(|v| format!("{v:.1}")).unwrap_or("-".into())
    );
    println!("blast_radius     {}", r.blast_radius);
    println!("control_bytes    {}", r.control_bytes);
    println!("update_frames    {}", r.update_frames);
    if let Some(l) = r.loss {
        println!(
            "packet_loss      {} / {} ({:.2}%)  dup {}  ooo {}",
            l.lost(),
            l.sent,
            100.0 * l.loss_ratio(),
            l.duplicates,
            l.out_of_order
        );
    }
    println!(
        "keepalive        {:.0} B/s fabric-wide, {:.0} B/frame",
        r.keepalive.bytes_per_sec, r.keepalive.avg_frame_len
    );
    println!("post-failure frame classes:");
    for (class, frames, bytes) in &r.breakdown {
        println!("  {class:<10} {frames:>8} frames  {bytes:>10} B");
    }
}

fn cmd_profile(a: &Args) {
    let s = run_spec(a, params_for(a)).with_traffic(TrafficDir::NearToFar);
    let report = perf_report(&run_with_sim(s).1.sim, perf_label(&s));
    print!("{}", report.render_text());
    if let Some(dir) = a.dir("--out") {
        if !write_profile(&report, &dir) {
            std::process::exit(2);
        }
    }
}

fn cmd_report(a: &Args) {
    let s = run_spec(a, ClosParams::two_pod());
    let run = run_instrumented(s);
    print!("{}", report::render(&run, &s));
    if let Some(out) = a.dir("--telemetry-out") {
        let sub = out.join(format!("report-{}-{}", s.stack.slug(), s.failure.slug()));
        write_bundle(bundle_from_run(&run, &s), &sub);
    }
}

fn cmd_sweep(a: &Args) {
    let max: usize = a.pos.first().map_or(8, |s| number("max_pods", s));
    // The sweep ends at `max` itself, so it must be a fabric size: an odd
    // or too small one is rejected the way `--pods 3` is, not rounded down.
    if let Err(e) = ClosParams::scaled(max) {
        fail(&format!("max_pods {max}: {e}"));
    }
    let pods: Vec<usize> = (1..=max / 2).map(|i| i * 2).collect();
    println!("{}", figures::scale_sweep(&pods, SEED).render());
    println!("{}", figures::tier_comparison(SEED).render());
}

fn cmd_ablations(_: &Args) {
    println!("{}", ablations::ablation_slow_to_accept(SEED).render());
    println!("{}", ablations::ablation_loss_holddown(SEED).render());
    println!("{}", ablations::sweep_mrmtp_hello(SEED).render());
    println!("{}", ablations::sweep_bfd_interval(SEED).render());
}

fn cmd_keepalive(_: &Args) {
    println!("{}", figures::fig9_keepalive(SEED).render());
    println!("{}", figures::fig1_stack_comparison(SEED).render());
}

fn cmd_extended(_: &Args) {
    println!("{}", extended_failures::extended_failure_figure(SEED).render());
    println!("{}", figures::encap_overhead_figure(SEED).render());
}

fn cmd_replicate(a: &Args) {
    let n: u64 = a.pos.first().map_or(5, |s| number("n", s));
    if n == 0 {
        fail("replicate: need at least one seed");
    }
    let local_repair = a.has("--local-repair");
    let seeds: Vec<u64> = (1..=n).collect();
    eprintln!("replicating Fig. 4 over {n} seeds…");
    println!("{}", replicate::fig4_replicated(&seeds, local_repair).render());
    if let Some(out) = a.dir("--telemetry-out") {
        // One instrumented replication per stack on the headline case
        // (TC1, 2-PoD), a bundle per seed.
        for stack in Stack::ALL {
            let s = RunSpec::new(ClosParams::two_pod(), stack)
                .failing(FailureCase::Tc1)
                .with_local_repair(local_repair);
            let r = replicate::run_replicated_instrumented(s, &seeds, &out);
            if let Some(c) = r.convergence_ms {
                eprintln!("{}: TC1 convergence {} ms", stack.label(), c.render(1));
            }
        }
    }
}

fn cmd_chaos(a: &Args) {
    fn set<T: FromStr>(a: &Args, name: &str, field: &mut T) {
        if let Some(v) = a.num(name) {
            *field = v;
        }
    }
    let mut cfg = CampaignConfig::default();
    set(a, "--seeds", &mut cfg.seeds);
    set(a, "--base-seed", &mut cfg.base_seed);
    set(a, "--threads", &mut cfg.threads);
    set(a, "--flaps", &mut cfg.chaos.flaps);
    set(a, "--crashes", &mut cfg.chaos.crashes);
    set(a, "--k", &mut cfg.chaos.k_concurrent);
    set(a, "--loss-ppm", &mut cfg.chaos.impairment.loss_ppm);
    set(a, "--corrupt-ppm", &mut cfg.chaos.impairment.corrupt_ppm);
    set(a, "--traffic-pairs", &mut cfg.chaos.traffic_pairs);
    if let Some(list) = a.get("--stacks") {
        // A stack named twice is still one stack: without this it ran
        // twice and printed two identical rows.
        cfg.stacks = campaign::dedup(&list.split(',').map(stack).collect::<Vec<_>>());
    }
    cfg.chaos.tuning.local_repair = a.has("--local-repair");
    cfg.check_determinism = !a.has("--no-determinism");
    cfg.telemetry_out = a.dir("--telemetry-out");
    cfg.profile_out = a.dir("--profile-out");
    if cfg.seeds == 0 {
        fail("chaos: need at least one seed");
    }
    let tors = cfg.chaos.params.tors_per_pod;
    if cfg.chaos.traffic_pairs > tors {
        fail(&format!("chaos: --traffic-pairs is at most {tors}, one per ToR of a PoD"));
    }
    eprintln!(
        "chaos campaign: {} seeds × {} stacks (determinism check: {})…",
        cfg.seeds,
        cfg.stacks.len(),
        if cfg.check_determinism { "on" } else { "off" }
    );
    let result = chaos::run_campaign(&cfg);
    println!("{}", chaos::campaign_summary(&cfg, &result).render());
    let v = result.violations();
    if v > 0 {
        eprintln!("FAIL: {v} invariant violation(s)");
        for r in result.runs.iter().filter(|r| r.violations() > 0) {
            // Every term `violations()` counts, so a FAIL always shows
            // which invariant broke.
            let terms: Vec<String> = VIOLATION_TERMS
                .iter()
                .zip(r.violation_counts())
                .map(|(name, n)| format!("{name} {n}"))
                .collect();
            eprintln!("  seed {} stack {}: {}", r.seed, r.stack.label(), terms.join(" "));
        }
        std::process::exit(1);
    }
    println!("OK: all invariants held across every seed");
}

/// A campaign failure the user can act on: say it, exit 2.
fn campaign_error(e: String) -> ! {
    eprintln!("campaign: {e}");
    std::process::exit(2);
}

fn cmd_campaign_run(a: &Args) {
    let Some(out) = a.dir("--out") else { fail("campaign run: --out DIR is required") };
    let threads: usize = a.num("--threads").unwrap_or(0);
    let cores = dcn_telemetry::host_cores();
    if cores > 0 && threads as u64 > cores {
        eprintln!(
            "WARNING: --threads {threads} exceeds the host's {cores} available core(s); pool \
             threads will time-slice and the store's wall_ms values will not be comparable"
        );
    }
    let mut spec = match a.pos.first().copied() {
        None | Some("default") => CampaignSpec::default(),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| campaign_error(format!("read spec {path}: {e}")));
            CampaignSpec::parse(&text).unwrap_or_else(|e| campaign_error(e))
        }
    };
    if let Some(n) = a.num("--seeds") {
        spec.seeds = n;
    }
    spec.quick |= a.has("--quick");
    eprintln!(
        "campaign {:?}: {} run(s) fanning out over {}…",
        spec.name,
        spec.total_runs(),
        if threads == 0 { "all cores".to_string() } else { format!("{threads} thread(s)") },
    );
    let (store, records) =
        campaign::run_to_store(&spec, &out, threads).unwrap_or_else(|e| campaign_error(e));
    println!("{}", campaign::summary(&records).render());
    eprintln!("{} record(s) appended to {}", records.len(), store.dir().display());
}

fn cmd_campaign_report(a: &Args) {
    let store =
        campaign::store::Store::open(Path::new(a.pos[0])).unwrap_or_else(|e| campaign_error(e));
    let records = store.records().unwrap_or_else(|e| campaign_error(e));
    let name = store
        .index()
        .ok()
        .and_then(|ix| ix.get("name").and_then(|n| n.as_str().map(str::to_string)))
        .unwrap_or_default();
    eprintln!("store {:?}: {} record(s)", name, records.len());
    println!("{}", campaign::summary(&records).render());
}

fn cmd_campaign_diff(a: &Args) {
    let threshold = a.num::<f64>("--threshold").unwrap_or(5.0) / 100.0;
    let open = |dir: &str| {
        campaign::store::Store::open(Path::new(dir)).unwrap_or_else(|e| campaign_error(e))
    };
    // Stores under different digest definitions are not drift (exit 1)
    // but an error (exit 2): nothing was compared.
    let report = campaign::diff::diff_stores(&open(a.pos[0]), &open(a.pos[1]), threshold)
        .unwrap_or_else(|e| campaign_error(e));
    print!("{}", report.render());
    // A gate that compared nothing has shown nothing unchanged.
    if report.compared == 0 || report.has_drift() {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words = |c: &Command| c.name.split(' ').count();
    let Some(cmd) =
        COMMANDS.iter().find(|c| args.len() >= words(c) && c.name == args[..words(c)].join(" "))
    else {
        fail("unknown or missing command");
    };
    (cmd.run)(&parse(cmd, &args[words(cmd)..]));
}
