//! Property tests on the BGP RIB: ECMP membership is always exactly the
//! set of minimal-length paths, operations are idempotent,
//! `drop_peer` is equivalent to withdrawing everything that peer
//! advertised, and the compiled FIB picks what the RIB holds.

use proptest::prelude::*;

use dcn_bgp::{CompiledFib, Rib};
use dcn_sim::PortId;
use dcn_wire::{ecmp_index, IpAddr4, Prefix};

#[derive(Clone, Debug)]
enum Op {
    Advertise { port: u16, third: u8, path_len: u8 },
    Withdraw { port: u16, third: u8 },
    DropPeer { port: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..4, 0u8..6, 1u8..5).prop_map(|(port, third, path_len)| Op::Advertise {
            port,
            third,
            path_len
        }),
        (0u16..4, 0u8..6).prop_map(|(port, third)| Op::Withdraw { port, third }),
        (0u16..4).prop_map(|port| Op::DropPeer { port }),
    ]
}

fn pfx(third: u8) -> Prefix {
    Prefix::new(IpAddr4::new(192, 168, third, 0), 24)
}

fn path(port: u16, len: u8) -> Vec<u32> {
    // Distinct contents per (port, len) so membership comparisons are
    // meaningful.
    (0..len as u32).map(|i| 64000 + port as u32 * 100 + i).collect()
}

/// A trivially correct reference model: map of (port, prefix) → path.
#[derive(Default)]
struct Model {
    adj: std::collections::BTreeMap<(u16, u8), Vec<u32>>,
}

impl Model {
    fn members(&self, third: u8) -> Vec<u16> {
        let mut best = usize::MAX;
        for ((_, t), p) in &self.adj {
            if *t == third {
                best = best.min(p.len());
            }
        }
        let mut m: Vec<u16> = self
            .adj
            .iter()
            .filter(|((_, t), p)| *t == third && p.len() == best)
            .map(|((port, _), _)| *port)
            .collect();
        m.sort_unstable();
        m
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ecmp_membership_matches_reference_model(ops in proptest::collection::vec(arb_op(), 0..48)) {
        let mut rib = Rib::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Advertise { port, third, path_len } => {
                    rib.ingest_advert(PortId(port), pfx(third), path(port, path_len), IpAddr4(0));
                    model.adj.insert((port, third), path(port, path_len));
                }
                Op::Withdraw { port, third } => {
                    rib.ingest_withdraw(PortId(port), pfx(third));
                    model.adj.remove(&(port, third));
                }
                Op::DropPeer { port } => {
                    rib.drop_peer(PortId(port));
                    model.adj.retain(|(p, _), _| *p != port);
                }
            }
            for third in 0..6u8 {
                let got: Vec<u16> = rib.members(pfx(third)).iter().map(|e| e.peer_port.0).collect();
                prop_assert_eq!(&got, &model.members(third),
                    "prefix 192.168.{}.0/24 membership diverged", third);
            }
        }
    }

    #[test]
    fn withdraw_is_idempotent(port in 0u16..4, third in 0u8..6, len in 1u8..4) {
        let mut rib = Rib::new();
        rib.ingest_advert(PortId(port), pfx(third), path(port, len), IpAddr4(0));
        let c1 = rib.ingest_withdraw(PortId(port), pfx(third));
        let c2 = rib.ingest_withdraw(PortId(port), pfx(third));
        prop_assert_ne!(c1, dcn_bgp::rib::RibChange::Unchanged);
        prop_assert_eq!(c2, dcn_bgp::rib::RibChange::Unchanged);
    }

    #[test]
    fn readvertising_identical_path_reports_unchanged(port in 0u16..4, third in 0u8..6, len in 1u8..4) {
        let mut rib = Rib::new();
        rib.ingest_advert(PortId(port), pfx(third), path(port, len), IpAddr4(0));
        let c = rib.ingest_advert(PortId(port), pfx(third), path(port, len), IpAddr4(0));
        prop_assert_eq!(c, dcn_bgp::rib::RibChange::Unchanged);
    }

    /// The compiled FIB the router forwards by picks the member the RIB
    /// holds at the flow's ECMP index, for every prefix and flow.
    #[test]
    fn lookup_agrees_with_members(
        adverts in proptest::collection::vec((0u16..4, 0u8..6, 1u8..4), 1..16),
        flows in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut rib = Rib::new();
        for (port, third, len) in adverts {
            rib.ingest_advert(PortId(port), pfx(third), path(port, len), IpAddr4(0));
        }
        let mut fib = CompiledFib::new();
        fib.rebuild(&rib);
        for third in 0..6u8 {
            let host = IpAddr4::new(192, 168, third, 42);
            match rib.lookup(host) {
                Some((p, members)) => {
                    prop_assert_eq!(p, pfx(third));
                    prop_assert_eq!(members.len(), rib.members(pfx(third)).len());
                    for &flow in &flows {
                        let want = members[ecmp_index(flow, members.len())].peer_port;
                        prop_assert_eq!(fib.lookup(host, flow), Some(want), "flow {:#x}", flow);
                    }
                }
                None => {
                    prop_assert!(rib.members(pfx(third)).is_empty());
                    prop_assert_eq!(fib.lookup(host, flows[0]), None);
                }
            }
        }
    }
}
