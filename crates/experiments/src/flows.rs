//! Pinning the monitored flow onto the paper's failure chain.
//!
//! The paper's four failure points all sit on the chain
//! ToR₁₁ ↔ S1_1 ↔ S2_1, and its packet-loss experiments send traffic that
//! *transits* that chain. With ECMP (or MR-MTP's flow hashing), whether a
//! given 5-tuple uses the chain depends on the hash. Because both stacks
//! share `dcn_wire::flow_hash`, we can search for source-port values whose
//! hash selects member 0 at every hop — member 0 is, by the wiring
//! conventions of `dcn-topology`, exactly the chain the paper fails.

use dcn_wire::{ecmp_index, flow_hash, IpAddr4, IPPROTO_UDP};

/// Find a `(src_port, dst_port)` whose flow hash picks ECMP member 0 at
/// every fan-out width in `widths` — i.e. a flow that rides the failure
/// chain. Deterministic; panics only if no port below 64000 qualifies
/// (impossible for any practical width set).
pub fn pin_flow(src: IpAddr4, dst: IpAddr4, widths: &[usize]) -> (u16, u16) {
    let dst_port = 6000;
    for src_port in 5000..64000u16 {
        let h = flow_hash(src, dst, IPPROTO_UDP, src_port, dst_port);
        if widths.iter().all(|&w| ecmp_index(h, w) == 0) {
            return (src_port, dst_port);
        }
    }
    panic!("no pinnable source port found for widths {widths:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_flow_selects_member_zero_at_every_width() {
        let src = IpAddr4::new(192, 168, 11, 1);
        let dst = IpAddr4::new(192, 168, 14, 1);
        let (sp, dp) = pin_flow(src, dst, &[2, 2]);
        let h = flow_hash(src, dst, IPPROTO_UDP, sp, dp);
        assert_eq!(ecmp_index(h, 2), 0);
        // Works for wider fabrics too.
        let (sp4, dp4) = pin_flow(src, dst, &[4, 2]);
        let h4 = flow_hash(src, dst, IPPROTO_UDP, sp4, dp4);
        assert_eq!(ecmp_index(h4, 4), 0);
        assert_eq!(ecmp_index(h4, 2), 0);
        let _ = (sp, dp, dp4);
    }

    #[test]
    fn pinning_is_deterministic() {
        let src = IpAddr4::new(192, 168, 14, 1);
        let dst = IpAddr4::new(192, 168, 11, 1);
        assert_eq!(pin_flow(src, dst, &[2, 2]), pin_flow(src, dst, &[2, 2]));
    }
}
