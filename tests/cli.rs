//! `fcr` end to end: the table subcommands print byte-identical text run
//! to run and build to build, so their stdout is pinned against
//! `tests/golden/fcr-*.txt`. Together with the trace digests this is what
//! lets the harness behind them be rewritten.
//!
//! Regenerate a golden only on a commit that changes nothing else:
//! `cargo run --release --bin fcr -- sweep 4 > tests/golden/fcr-sweep-4.txt`.

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
    if let Some((n, (g, w))) = got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w) {
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
