//! `fcr` end to end: the table subcommands print byte-identical text run
//! to run and build to build, so their stdout is pinned against
//! `tests/golden/fcr-*.txt`. Together with the trace digests this is what
//! lets the harness behind them be rewritten.
//!
//! Regenerate a golden only on a commit that changes nothing else:
//! `cargo run --release --bin fcr -- sweep 4 > tests/golden/fcr-sweep-4.txt`.
//!
//! The rest checks the command line itself: what `fcr` does not
//! understand it must reject (exit 2, nothing run), every flag a
//! subcommand lists must be accepted by it, and the command lines quoted
//! in the docs must be ones the flag table accepts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fcr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fcr")).args(args).output().expect("fcr runs")
}

fn assert_golden(args: &[&str]) {
    let golden = format!("{}/tests/golden/fcr-{}.txt", env!("CARGO_MANIFEST_DIR"), args.join("-"));
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{golden}: {e}"));
    let out = fcr(args);
    assert!(out.status.success(), "fcr {args:?} exited with {:?}", out.status.code());
    let got = String::from_utf8(out.stdout).expect("utf-8 tables");
    if let Some((n, (g, w))) = got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
    {
        panic!("fcr {args:?} differs from {golden} at line {}:\n  got  {g}\n  want {w}", n + 1);
    }
    assert_eq!(got.len(), want.len(), "fcr {args:?}: output length differs from {golden}");
}

#[test]
fn figures_match_golden() {
    assert_golden(&["figures"]);
}

#[test]
fn extended_matches_golden() {
    assert_golden(&["extended"]);
}

#[test]
fn ablations_match_golden() {
    assert_golden(&["ablations"]);
}

#[test]
fn sweep_matches_golden() {
    assert_golden(&["sweep", "4"]);
}

#[test]
fn listings_match_golden() {
    assert_golden(&["listings"]);
}

#[test]
fn keepalive_matches_golden() {
    assert_golden(&["keepalive"]);
}

#[test]
fn replicate_matches_golden() {
    assert_golden(&["replicate", "2"]);
}

/// `fcr report`'s storyboard, per-router table and frame classes, pinned
/// up to a trailing `telemetry:` summary line, which is not part of the
/// pin.
#[test]
fn report_matches_golden() {
    let golden = format!("{}/tests/golden/fcr-report-mrmtp-tc1.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{golden}: {e}"));
    let out = fcr(&["report", "mrmtp", "tc1"]);
    assert!(out.status.success(), "fcr report exited with {:?}", out.status.code());
    let text = String::from_utf8(out.stdout).expect("utf-8 report");
    let got = text.split("\ntelemetry:").next().unwrap_or_default();
    assert_eq!(got, want, "fcr report mrmtp tc1 differs from {golden}");
}

/// Exit 2 with the usage text on stderr and nothing on stdout.
fn assert_rejected(args: &[&str]) {
    let out = fcr(args);
    assert_eq!(out.status.code(), Some(2), "fcr {args:?} should be a usage error");
    assert!(out.stdout.is_empty(), "fcr {args:?} ran something before failing");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: fcr <command>"), "fcr {args:?}: {err}");
}

#[test]
fn an_unknown_positional_value_is_rejected() {
    // Used to run the *near* direction and exit 0.
    assert_rejected(&["scenario", "mrmtp", "tc1", "fra"]);
    assert_rejected(&["scenario", "ospf", "tc1"]);
    assert_rejected(&["scenario", "mrmtp", "tc9"]);
    assert_rejected(&["frobnicate"]);
    assert_rejected(&["campaign", "frobnicate"]);
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_rejected() {
    // Used to report the 2-PoD fabric and write nothing.
    assert_rejected(&["report", "mrmtp", "tc1", "--pods", "4", "--profile-out", "X"]);
    assert_rejected(&["scenario", "mrmtp", "tc1", "--out", "X"]);
    assert_rejected(&["replicate", "1", "--seed", "3"]);
    assert_rejected(&["replicate", "1", "--pods", "4"]);
    assert_rejected(&["figures", "--seed", "3"]);
    assert_rejected(&["chaos", "--workers", "2"]);
}

#[test]
fn a_malformed_number_is_rejected() {
    // Used to fall back to 5 seeds / 8 PoDs silently.
    assert_rejected(&["replicate", "1x"]);
    assert_rejected(&["sweep", "abc"]);
    assert_rejected(&["scenario", "mrmtp", "tc1", "--seed", "x"]);
    assert_rejected(&["chaos", "--seeds", "-1"]);
    assert_rejected(&["chaos", "--seeds"]);
    assert_rejected(&["campaign", "diff", "a", "b", "--threshold", "5%"]);
    // A well-formed number that plans nothing, or something else: used to
    // panic (exit 101), print an empty sweep table, and sweep 2 PoDs only.
    assert_rejected(&["replicate", "0"]);
    assert_rejected(&["sweep", "0"]);
    assert_rejected(&["sweep", "1"]);
    assert_rejected(&["sweep", "3"]);
    // Used to run 3 and 4 pairs as 2 on the 2-PoD fabric; names the limit.
    assert_rejected(&["chaos", "--traffic-pairs", "3"]);
    assert!(String::from_utf8_lossy(&fcr(&["chaos", "--traffic-pairs", "3"]).stderr)
        .contains("at most 2"));
}

#[test]
fn positional_counts_are_checked() {
    assert_rejected(&[]);
    assert_rejected(&["scenario", "mrmtp"]);
    assert_rejected(&["scenario", "mrmtp", "tc1", "near", "far"]);
    assert_rejected(&["keepalive", "now"]);
    assert_rejected(&["campaign", "report"]);
}

/// A scratch directory unique to this process and `name`.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fcr-cli-{}-{name}", std::process::id()))
}

fn assert_accepted(args: &[&str]) -> String {
    let out = fcr(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fcr {args:?} exited with {:?}: {err}", out.status.code());
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// One invocation per subcommand that takes flags, carrying every flag
/// its row of the table lists.
#[test]
fn every_listed_flag_is_accepted_and_read() {
    let dir = scratch("flags");
    let d = |sub: &str| dir.join(sub).to_string_lossy().into_owned();

    let (tel, prof) = (d("scenario-tel"), d("scenario-prof"));
    let out = assert_accepted(&[
        "scenario",
        "bgp",
        "tc3",
        "far",
        "--pods",
        "4",
        "--seed",
        "3",
        "--local-repair",
        "--telemetry-out",
        &tel,
        "--profile-out",
        &prof,
    ]);
    assert!(out.contains("blast_radius"), "{out}");
    assert!(dir.join("scenario-tel/scenario-bgp-tc3/meta.json").is_file());
    assert!(dir.join("scenario-prof/profile-bgp-tc3/perf_report.json").is_file());
    // The extended cases are values of the same failure axis.
    let out = assert_accepted(&["scenario", "mrmtp", "top-spine-crash"]);
    assert!(out.contains("packet_loss"), "{out}");

    let out_dir = d("profile");
    let out = assert_accepted(&[
        "profile",
        "mrmtp",
        "tc1",
        "--pods",
        "4",
        "--seed",
        "3",
        "--local-repair",
        "--out",
        &out_dir,
    ]);
    assert!(out.starts_with("perf report: mrmtp TC1 seed 3"), "{out}");
    assert!(dir.join("profile/perf_report.json").is_file());

    let tel = d("report-tel");
    let out = assert_accepted(&[
        "report",
        "bgp-bfd",
        "tc2",
        "--seed",
        "3",
        "--local-repair",
        "--telemetry-out",
        &tel,
    ]);
    assert!(out.contains("BGP/ECMP/BFD · TC2 · seed 3"), "{out}");
    assert!(dir.join("report-tel/report-bgp-bfd-tc2/storyboard.txt").is_file());

    let tel = d("replicate-tel");
    let out = assert_accepted(&["replicate", "1", "--local-repair", "--telemetry-out", &tel]);
    assert!(out.contains("replicated ×1"), "{out}");
    assert!(dir.join("replicate-tel/replicate-bgp-tc1-seed1/meta.json").is_file());

    let (tel, prof) = (d("chaos-tel"), d("chaos-prof"));
    let out = assert_accepted(&[
        "chaos",
        "--seeds",
        "1",
        "--base-seed",
        "11",
        "--threads",
        "1",
        "--stacks",
        "mrmtp,mrmtp",
        "--flaps",
        "2",
        "--crashes",
        "1",
        "--k",
        "2",
        "--loss-ppm",
        "1000",
        "--corrupt-ppm",
        "5000",
        "--local-repair",
        "--traffic-pairs",
        "1",
        "--no-determinism",
        "--telemetry-out",
        &tel,
        "--profile-out",
        &prof,
    ]);
    assert!(out.contains("OK: all invariants held"), "{out}");
    assert!(out.contains("repair-loops"), "the table names every violation term: {out}");
    // A stack named twice is one stack: used to run twice and print two
    // rows, each claiming `seeds 2`.
    let rows: Vec<&str> = out.lines().filter(|l| l.starts_with("MR-MTP")).collect();
    assert_eq!(rows.len(), 1, "{out}");
    assert_eq!(rows[0].split_whitespace().nth(1), Some("1"), "seeds column: {out}");
    assert!(dir.join("chaos-prof/chaos-mrmtp-seed11-perf/perf_report.json").is_file());

    let (a, b) = (d("store-a"), d("store-b"));
    for store in [&a, &b] {
        let out = assert_accepted(&[
            "campaign",
            "run",
            "default",
            "--out",
            store,
            "--threads",
            "1",
            "--seeds",
            "1",
            "--quick",
        ]);
        assert!(out.contains("campaign summary"), "{out}");
    }
    assert!(assert_accepted(&["campaign", "report", &a]).contains("campaign summary"));
    let out = assert_accepted(&["campaign", "diff", &a, &b, "--threshold", "1"]);
    assert!(out.contains("zero drift"), "{out}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// `campaign diff` is a regression gate; one that compared nothing has
/// shown nothing unchanged and must not pass. Used to print "0 run(s)
/// compared … zero drift" and exit 0 — after any change of key spelling,
/// for every store.
#[test]
fn a_diff_that_compared_nothing_fails_the_gate() {
    let dir = scratch("disjoint");
    std::fs::create_dir_all(&dir).unwrap();
    let d = |sub: &str| dir.join(sub).to_string_lossy().into_owned();
    // Two one-run campaigns that differ in the seed only: no shared key.
    for (store, base_seed) in [("a", 1), ("b", 2)] {
        let spec = d(&format!("{store}.json"));
        let doc = format!(
            r#"{{"pods":[2],"stacks":["mrmtp"],"failures":["tc1"],"seeds":1,"base_seed":{base_seed},"quick":true}}"#
        );
        std::fs::write(&spec, doc).unwrap();
        assert_accepted(&["campaign", "run", &spec, "--out", &d(store), "--threads", "1"]);
    }
    let out = fcr(&["campaign", "diff", &d("a"), &d("b")]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("0 run(s) compared") && text.contains("NOTHING COMPARED"), "{text}");
    assert!(!text.contains("zero drift"), "{text}");
    // The same store against itself still passes.
    assert!(assert_accepted(&["campaign", "diff", &d("a"), &d("a")]).contains("zero drift"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store written before digest definitions had names holds digests of
/// another function of the trace. Diffing it against a current store used
/// to print `DRIFT digest` for every run; it is now refused with one
/// message naming both definitions, exit 2 — not drift's exit 1. The
/// legacy store stays readable: `report` renders it and it diffs clean
/// against itself.
#[test]
fn a_legacy_store_is_refused_not_silently_compared() {
    let legacy = format!("{}/tests/golden/legacy-store", env!("CARGO_MANIFEST_DIR"));
    let dir = scratch("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let d = |sub: &str| dir.join(sub).to_string_lossy().into_owned();
    // The spec the legacy store was recorded from, run by this build.
    let spec = r#"{"pods":[2],"stacks":["mrmtp"],"failures":["tc1"],"seeds":3,"base_seed":1,"quick":true}"#;
    std::fs::write(d("spec.json"), spec).unwrap();
    assert_accepted(&["campaign", "run", &d("spec.json"), "--out", &d("now"), "--threads", "1"]);
    let read =
        |path: String| std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(
        !read(format!("{legacy}/index.json")).contains("\"digest\""),
        "the fixture predates the field"
    );
    assert!(read(d("now/index.json")).contains("\"digest\":\"trace64/v1\""));
    // Every run is on both sides: the refusal is about the definition,
    // not about coverage.
    let now_runs = read(d("now/runs.jsonl"));
    for line in read(format!("{legacy}/runs.jsonl")).lines() {
        let key = line.split('"').nth(3).expect("records start with their key");
        assert!(now_runs.contains(key), "{key}");
    }

    for (a, b) in [(&legacy, &d("now")), (&d("now"), &legacy)] {
        let out = fcr(&["campaign", "diff", a, b]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(out.stdout.is_empty(), "no DRIFT lines: nothing was compared");
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains("\"debug-siphash/v0\"") && err.contains("\"trace64/v1\""), "{err}");
    }
    let report = assert_accepted(&["campaign", "report", &legacy]);
    assert_eq!(
        report.lines().nth(3).and_then(|row| row.split_whitespace().nth(5)),
        Some("3"),
        "{report}"
    );
    assert!(assert_accepted(&["campaign", "diff", &legacy, &legacy]).contains("zero drift"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The command lines quoted in the docs must parse against the flag
/// table: every `fcr -- <subcommand> … --flag` names a subcommand of the
/// usage text and only flags listed under it.
#[test]
fn documented_command_lines_match_the_flag_table() {
    // subcommand → its flags, read back from the generated usage text:
    // a command line is indented by two, its flags by four, help
    // continuation lines by more.
    let usage = String::from_utf8(fcr(&[]).stderr).expect("utf-8 usage");
    let mut table: Vec<(String, Vec<&str>)> = Vec::new();
    for line in usage.lines().skip_while(|l| *l != "commands:").skip(1) {
        let words = || line.split_whitespace();
        match line.len() - line.trim_start().len() {
            2 => {
                let name: Vec<&str> = words()
                    .take_while(|w| w.chars().all(|c| c.is_ascii_lowercase()))
                    .take(if line.trim_start().starts_with("campaign ") { 2 } else { 1 })
                    .collect();
                table.push((name.join(" "), Vec::new()));
            }
            4 => table.last_mut().expect("flags follow a command").1.extend(words().next()),
            _ => {}
        }
    }
    assert!(table.iter().any(|(c, f)| c == "campaign diff" && f == &["--threshold"]), "{table:?}");

    let mut checked = 0;
    for doc in ["README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"] {
        let text =
            std::fs::read_to_string(format!("{}/{doc}", env!("CARGO_MANIFEST_DIR"))).unwrap();
        for line in text.lines() {
            let Some(at) =
                line.find("fcr -- ").map(|i| i + 7).or_else(|| line.find("/fcr ").map(|i| i + 5))
            else {
                continue;
            };
            let invocation = line[at..].split('#').next().unwrap();
            let words: Vec<&str> = invocation.split_whitespace().collect();
            let Some((name, flags)) = table
                .iter()
                .filter(|(name, _)| invocation.trim_start().starts_with(name.as_str()))
                .max_by_key(|(name, _)| name.len())
            else {
                panic!("{doc}: `{}` names no fcr subcommand", line.trim());
            };
            for flag in words.iter().filter(|w| w.starts_with("--")) {
                assert!(
                    flags.contains(flag),
                    "{doc}: `{}`: {name} does not take {flag}",
                    line.trim()
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "the docs quote fcr command lines with flags; found {checked}");
}
