//! Property tests on the BGP RIB: ECMP membership is always exactly the
//! set of minimal-length paths, every reported change is what comparing
//! the ECMP set before and after says, operations are idempotent,
//! `drop_peer` is equivalent to withdrawing everything that peer
//! advertised, and the compiled FIB picks what the RIB holds.

use proptest::prelude::*;

use dcn_bgp::rib::RibChange;
use dcn_bgp::{CompiledFib, Rib};
use dcn_sim::PortId;
use dcn_wire::{ecmp_index, IpAddr4, Prefix};

#[derive(Clone, Debug)]
enum Op {
    Advertise { port: u16, third: u8, path_len: u8, salt: u8 },
    Withdraw { port: u16, third: u8 },
    DropPeer { port: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..4, 0u8..6, 1u8..5, 0u8..2).prop_map(|(port, third, path_len, salt)| {
            Op::Advertise { port, third, path_len, salt }
        }),
        (0u16..4, 0u8..6).prop_map(|(port, third)| Op::Withdraw { port, third }),
        (0u16..4).prop_map(|port| Op::DropPeer { port }),
    ]
}

fn pfx(third: u8) -> Prefix {
    Prefix::new(IpAddr4::new(192, 168, third, 0), 24)
}

fn path(port: u16, len: u8) -> Vec<u32> {
    salted_path(port, len, 0)
}

/// Distinct contents per (port, len, salt) so membership comparisons are
/// meaningful, and a port can re-advertise a different path of the same
/// length (a new salt).
fn salted_path(port: u16, len: u8, salt: u8) -> Vec<u32> {
    (0..len as u32).map(|i| 64000 + port as u32 * 100 + salt as u32 * 10 + i).collect()
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

    /// The ECMP set of `third` as (port, path), ascending by port.
    fn best_set(&self, third: u8) -> Vec<(u16, Vec<u32>)> {
        let members = self.members(third);
        members.iter().map(|&port| (port, self.adj[&(port, third)].clone())).collect()
    }
}

/// The change an edit reports, by comparing the ECMP set before and
/// after it by value.
fn expected_change(before: &[(u16, Vec<u32>)], after: &[(u16, Vec<u32>)]) -> RibChange {
    match (before.is_empty(), after.is_empty()) {
        (true, true) => RibChange::Unchanged,
        (true, false) => RibChange::Gained,
        (false, true) => RibChange::Lost,
        (false, false) if before == after => RibChange::Unchanged,
        (false, false) => RibChange::Changed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ecmp_membership_matches_reference_model(ops in proptest::collection::vec(arb_op(), 0..48)) {
        let mut rib = Rib::new();
        let mut model = Model::default();
        for op in ops {
            let before: Vec<_> = (0..6u8).map(|third| model.best_set(third)).collect();
            match op {
                Op::Advertise { port, third, path_len, salt } => {
                    let p = salted_path(port, path_len, salt);
                    let got = rib.ingest_advert(PortId(port), pfx(third), p.clone(), IpAddr4(0));
                    model.adj.insert((port, third), p);
                    let want = expected_change(&before[third as usize], &model.best_set(third));
                    prop_assert_eq!(got, want, "advertise on port {} for third {}", port, third);
                }
                Op::Withdraw { port, third } => {
                    let got = rib.ingest_withdraw(PortId(port), pfx(third));
                    model.adj.remove(&(port, third));
                    let want = expected_change(&before[third as usize], &model.best_set(third));
                    prop_assert_eq!(got, want, "withdraw on port {} for third {}", port, third);
                }
                Op::DropPeer { port } => {
                    let got = rib.drop_peer(PortId(port));
                    model.adj.retain(|(p, _), _| *p != port);
                    let want: Vec<(Prefix, RibChange)> = (0..6u8)
                        .map(|third| {
                            let after = model.best_set(third);
                            (pfx(third), expected_change(&before[third as usize], &after))
                        })
                        .filter(|(_, change)| *change != RibChange::Unchanged)
                        .collect();
                    prop_assert_eq!(got, want, "drop_peer on port {}", port);
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
        prop_assert_ne!(c1, RibChange::Unchanged);
        prop_assert_eq!(c2, RibChange::Unchanged);
    }

    #[test]
    fn readvertising_identical_path_reports_unchanged(port in 0u16..4, third in 0u8..6, len in 1u8..4) {
        let mut rib = Rib::new();
        rib.ingest_advert(PortId(port), pfx(third), path(port, len), IpAddr4(0));
        let c = rib.ingest_advert(PortId(port), pfx(third), path(port, len), IpAddr4(0));
        prop_assert_eq!(c, RibChange::Unchanged);
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
