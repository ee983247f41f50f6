//! Regenerate `tests/golden_digests.txt`, the trace digests
//! `tests/equivalence.rs::local_repair_off_matches_pre_change_golden_digests`
//! pins for the golden cells (`tests/golden/mod.rs` lists them).
//!
//! Those digests freeze the observable behavior of the default
//! (`local_repair=off`) configuration: any change that perturbs an
//! off-mode trace shows up as a mismatch. If an *intentional* behavior
//! change lands, re-run this and commit the file — CI runs it too and
//! fails when the committed file is not what it writes:
//!
//! ```text
//! cargo run --release -p dcn-experiments --example golden_digests
//! ```

#[path = "../tests/golden/mod.rs"]
mod golden;

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_digests.txt");
    let table = golden::golden_table();
    std::fs::write(path, &table).unwrap_or_else(|e| panic!("write {path}: {e}"));
    print!("{table}");
}
