//! Walk one interface failure (TC1, the paper's hardest case for
//! timeout-based detection) through all three protocol stacks, narrating
//! the timeline the paper's §VII discusses: detection, dissemination,
//! blast radius, control bytes, packet loss.
//!
//! ```text
//! cargo run --release --example failure_recovery [TC1|TC2|TC3|TC4]
//! ```

use dcn_experiments::{run, RunSpec, Stack, TrafficDir};
use dcn_topology::{ClosParams, FailureCase};

fn main() {
    let tc = match std::env::args().nth(1).as_deref() {
        Some("TC2") | Some("tc2") => FailureCase::Tc2,
        Some("TC3") | Some("tc3") => FailureCase::Tc3,
        Some("TC4") | Some("tc4") => FailureCase::Tc4,
        _ => FailureCase::Tc1,
    };
    println!("failure case {}: interface failure on the ToR₁₁–S1_1–S2_1 chain", tc.label());
    println!("(2-PoD topology, monitored flow rack 11 → rack 14 at ≈333 pkt/s)\n");

    for stack in Stack::ALL {
        let r = run(RunSpec::new(ClosParams::two_pod(), stack)
            .failing(tc)
            .with_traffic(TrafficDir::NearToFar));
        let loss = r.loss.expect("traffic ran");
        println!("== {} ==", stack.label());
        match r.convergence_ms {
            Some(ms) => println!("  convergence (last update message): {ms:.1} ms"),
            None => println!("  convergence: no update messages emitted"),
        }
        println!("  blast radius: {} routers updated destination state", r.blast_radius);
        println!(
            "  control overhead: {} bytes in {} update messages",
            r.control_bytes, r.update_frames
        );
        println!(
            "  packet loss: {} of {} ({:.2}%), {} duplicates, {} reordered",
            loss.lost(),
            loss.sent,
            100.0 * loss.loss_ratio(),
            loss.duplicates,
            loss.out_of_order
        );
        println!(
            "  steady-state keepalive: {:.0} B/s fabric-wide, {:.0} B/frame\n",
            r.keepalive.bytes_per_sec, r.keepalive.avg_frame_len
        );
    }
    println!(
        "Interpretation (paper §VII): for {} the {} side of the failed link must\n\
         detect by timeout, so convergence and loss scale with each stack's dead/hold\n\
         timer — 100 ms (MR-MTP) vs 300 ms (BFD) vs 3 s (BGP).",
        tc.label(),
        match tc {
            FailureCase::Tc1 => "S1_1",
            FailureCase::Tc2 => "ToR₁₁",
            FailureCase::Tc3 => "S2_1",
            FailureCase::Tc4 => "S1_1",
        }
    );
}
