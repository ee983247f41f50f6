//! `dcn-benchmark` — the four-workload ruler for the emulator.
//!
//! ```text
//! run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--out-dir <dir>]
//! run --seed <n> ...            every workload, each in its own process
//! compare <a.jsonl> <b.jsonl> [--manifest BENCHMARK.json]
//! ```
//!
//! `run` prints every metric by name with its unit and, as its last line,
//! one JSON object `{correct, attempted, failed, metrics}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured with the span recorder off;
//! `--trace 1` is the separate traced pass that yields the per-layer ones.

mod compare;
mod harness;
mod report;
mod spans;
mod sut;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{
    calib_ns, cores, fast_decile_cost, fast_decile_rate, git_revision, keys_hash, median,
    peak_rss_mb, quartiles,
};
use report::{Header, RunResult, END_TO_END, PER_LAYER};
use spans::Spans;
use workloads::{Round, Workload};

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

/// Set-up runs this many times; `setup_s` is the median.
const SETUPS: usize = 5;
/// A pass measures at least this many rounds, however short `--seconds`.
/// Rates are those of the fast-decile round ([`fast_decile_rate`]).
const MIN_ROUNDS: usize = 5;
/// Share of `--seconds` the traced pass spends on untraced and on traced
/// rounds; the fixed layer probes take the rest.
const TRACED_SHARE: f64 = 0.3;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dcn-benchmark run [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--out-dir DIR]\n\
         \x20      dcn-benchmark compare A.jsonl B.jsonl [--manifest BENCHMARK.json]",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(parsed)
}

/// Rounds until `budget` has passed (at least [`MIN_ROUNDS`]), each inside
/// a `round` span and followed by its untimed check and one calibration
/// sample.
fn run_rounds(
    wl: &mut dyn Workload,
    sp: &mut Spans,
    budget: Duration,
    failed: &mut u64,
    calib: &mut Vec<f64>,
) -> Result<Vec<Round>, String> {
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        calib.push(calib_ns());
        let id = sp.enter("round");
        let round = wl.round(sp)?;
        sp.exit(id);
        *failed += wl.check();
        rounds.push(round);
    }
    Ok(rounds)
}

fn rates(rounds: &[Round], amount: impl Fn(&Round) -> u64) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| amount(r) as f64 / (r.elapsed_ns as f64 / 1e9))
        .collect()
}

fn run_workload(name: &str, args: &RunArgs) -> Result<RunResult, String> {
    let scratch = args.out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let result = measure(name, args, &scratch);
    std::fs::remove_dir_all(&scratch).map_err(|e| format!("remove {}: {e}", scratch.display()))?;
    result
}

fn measure(name: &str, args: &RunArgs, scratch: &Path) -> Result<RunResult, String> {
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up, several times: input generation, construction, convergence
    // and the warm-up round. The last one is the one measured on.
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t = Instant::now();
        let (wl, ops, bad) = workloads::setup(name, args.seed, scratch)?;
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += ops;
        failed += bad;
        workload = Some(wl);
    }
    let mut wl = workload.expect("SETUPS is at least one");

    let mut sp = Spans::new(false);
    let mut calib = Vec::new();
    let share = if args.trace { TRACED_SHARE } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds as f64 * share);
    let timed = run_rounds(wl.as_mut(), &mut sp, budget, &mut failed, &mut calib)?;
    attempted += timed.iter().map(|r| r.ops).sum::<u64>();
    let runs_per_s = rates(&timed, |r| r.ops);
    let calib_ns = median(&calib);
    let round_iqr_pct = 100.0 * quartiles(&runs_per_s).spread();

    let mut rounds_traced = 0;
    let values: Vec<(&'static str, f64)> = if args.trace {
        sp.set_enabled(true);
        let traced = run_rounds(wl.as_mut(), &mut sp, budget, &mut failed, &mut calib)?;
        attempted += traced.iter().map(|r| r.ops).sum::<u64>();
        rounds_traced = traced.len();
        let round_spans = sp.all().len();

        // Exact counts are those of the first timed round: it follows the
        // warm-up directly, so it is the same round in every process.
        let first = timed[0];
        let (events, trace_events) = if first.events > 0 {
            (first.events, first.trace_events)
        } else {
            let (events, trace_events, recount_bad) = wl.count_pass();
            failed += recount_bad;
            (events, trace_events)
        };
        let events_of = |r: &Round| if r.events > 0 { r.events } else { events } as f64;
        let per_round = |f: &dyn Fn(&Round) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
        let ns_per_event = per_round(&|r| r.sim_ns as f64 / events_of(r));
        let events_per_s = per_round(&|r| events_of(r) / (r.elapsed_ns as f64 / 1e9));
        let threads = wl.threads() as f64;
        let efficiency = per_round(&|r| r.busy_ns as f64 / (threads * r.elapsed_ns as f64));
        let untraced_rate = fast_decile_rate(&runs_per_s);
        let traced_rate = fast_decile_rate(&rates(&traced, |r| r.ops));

        let mut values = vec![
            ("sim.ns_per_event", fast_decile_cost(&ns_per_event)),
            ("sim.events_per_s", fast_decile_rate(&events_per_s)),
            ("sim.events_per_round", events as f64),
            ("sim.trace_events_per_round", trace_events as f64),
            (
                "alloc.allocs_per_event",
                first.allocs as f64 / events as f64,
            ),
            (
                "alloc.bytes_per_event",
                first.alloc_bytes as f64 / events as f64,
            ),
            ("experiments.pool_efficiency", median(&efficiency)),
            ("harness.ops_per_round", first.ops as f64),
            ("harness.pkts_per_round", first.pkts as f64),
            ("harness.calib_ns", calib_ns),
            ("harness.round_iqr_pct", round_iqr_pct),
            (
                "harness.trace_overhead_pct",
                100.0 * (untraced_rate - traced_rate) / untraced_rate,
            ),
            (
                "harness.unattributed_pct",
                spans::unattributed_pct(&sp.all()[..round_spans]),
            ),
        ];
        println!("# self time by span, traced rounds");
        for (span, own_ns, count) in spans::self_time_by_name(&sp.all()[..round_spans]) {
            println!("#   {span:<28} {:>10.3} ms  x{count}", own_ns as f64 / 1e6);
        }

        values.extend(sut::layer_probes(args.seed, cores(), scratch, &mut sp)?);

        let trace_path = args
            .out_dir
            .join(format!("trace-{name}-seed{}.json", args.seed));
        std::fs::write(&trace_path, sp.chrome_trace(name))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        println!("# chrome trace: {}", trace_path.display());
        values
    } else {
        vec![
            ("runs_per_s", fast_decile_rate(&runs_per_s)),
            ("pkts_per_s", fast_decile_rate(&rates(&timed, |r| r.pkts))),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", median(&setup_s)),
        ]
    };

    // Emit in table order, and insist that every listed metric was measured.
    let table: &[report::MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|def| {
            values
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|(n, v)| (n.to_string(), *v))
                .ok_or(format!("metric {} was not measured", def.name))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let keys = wl.input_keys();
    let mut exact: Vec<(String, u64)> = vec![
        ("inputs".into(), keys.len() as u64),
        ("inputs_hash".into(), keys_hash(&keys)),
    ];
    exact.extend(wl.exact().into_iter().map(|(k, v)| (k.to_string(), v)));
    let header = Header {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        cores: cores() as u64,
        threads: wl.threads() as u64,
        git: git_revision(),
        setups: SETUPS as u64,
        rounds_timed: timed.len() as u64,
        rounds_traced: rounds_traced as u64,
        calib_ns,
        round_iqr_pct,
    };
    Ok(RunResult {
        header,
        attempted,
        failed,
        metrics,
        exact,
        round_rates: runs_per_s,
    })
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_run(args)?;
    let Some(name) = parsed.workload.as_deref() else {
        // Every workload, each in a process of its own so that peak RSS is
        // per workload.
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut all_ok = true;
        for name in workloads::NAMES {
            let status = std::process::Command::new(&exe)
                .arg("run")
                .args(["--workload", name])
                .args(args)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            all_ok &= status.success();
        }
        return Ok(if all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    };
    let result = run_workload(name, &parsed)?;
    print!("{}", result.human());
    if let Some(path) = &parsed.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(f, "{}", result.file_json().render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", result.contract_json().render());
    Ok(ExitCode::SUCCESS)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut manifest = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--manifest" {
            manifest = it.next().ok_or("--manifest needs a value")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let text = std::fs::read_to_string(&manifest).map_err(|e| format!("read {manifest}: {e}"))?;
    let doc = sut::Json::parse(text.trim()).map_err(|e| format!("{manifest}: {e}"))?;
    let (table, regressed) = compare::compare(&compare::load(a)?, &compare::load(b)?, &doc)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => return usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("dcn-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
