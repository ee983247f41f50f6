//! Tests for the proof instrument itself: the canonical trace record
//! (`TraceEvent::to_words` / `from_words`) and the digest built on it.
//! Every golden digest, every campaign store and every `exact` line of
//! the benchmark rests on these, so they run in the debug profile too
//! (CI's "Engine debug assertions" step) — the definition must not depend
//! on the profile.

use proptest::prelude::*;

use dcn_sim::rng::DetRng;
use dcn_sim::{
    hash64, BgpDownReason, BgpState, FrameClass, Hash64, NodeId, PortId, RouteChangeKind,
    SpanEvent, TraceEvent,
};

/// Variants a record can hold: four non-span variants and twelve spans.
const PICKS: u8 = 16;

/// One event from raw draws: `pick % 16` selects the variant or span
/// kind, the rest fill whichever fields it has.
fn event(pick: u8, time: u64, node: u32, port: u16, x: u64, [a, b, c]: [u8; 3]) -> TraceEvent {
    let (node, port) = (NodeId(node), PortId(port));
    let state = |v: u8| BgpState::ALL[v as usize % BgpState::ALL.len()];
    let span = match pick % PICKS {
        0 => {
            return TraceEvent::FrameSent {
                time,
                node,
                port,
                wire_len: x as u32,
                capture_len: (x >> 32) as u32,
                class: FrameClass::ALL[a as usize % FrameClass::ALL.len()],
            }
        }
        1 => return TraceEvent::PortDown { time, node, port },
        2 => return TraceEvent::PortUp { time, node, port },
        3 => {
            let kind =
                if a & 1 == 0 { RouteChangeKind::Withdraw } else { RouteChangeKind::Install };
            return TraceEvent::RouteChange { time, node, kind, detail: x };
        }
        4 => SpanEvent::BgpFsm { port, from: state(a), to: state(b) },
        5 => SpanEvent::BgpSessionDown {
            port,
            reason: BgpDownReason::ALL[a as usize % BgpDownReason::ALL.len()],
        },
        6 => SpanEvent::BgpUpdateBatch { peers: a, prefixes: b },
        7 => SpanEvent::NeighborDown { port, carrier: a & 1 == 1 },
        8 => SpanEvent::NeighborUp { port },
        9 => SpanEvent::VidInstall { root: a, port },
        10 => SpanEvent::VidRemove { root: a, port },
        11 => SpanEvent::LossFlood { roots: a, fanout: b, lost: c & 1 == 1 },
        12 => SpanEvent::HolddownArm,
        13 => SpanEvent::HolddownResolve { negatives: a, totals: b },
        14 => SpanEvent::UpperLossTotal { root: a },
        _ => SpanEvent::LocalRepair { port },
    };
    TraceEvent::Span { time, node, span }
}

/// `n` events in nondecreasing time order cycling through every variant,
/// fields drawn from a fixed-seed generator.
fn stream(n: usize) -> Vec<TraceEvent> {
    let mut r = DetRng::new(0x007a_ce64, 1);
    let mut time = 0;
    (0..n)
        .map(|i| {
            time += r.below(1_000_000);
            let bytes = r.next_u64().to_le_bytes();
            event(
                i as u8,
                time,
                r.next_u64() as u32,
                r.next_u64() as u16,
                r.next_u64(),
                [bytes[0], bytes[1], bytes[2]],
            )
        })
        .collect()
}

fn words_of(events: &[TraceEvent]) -> Vec<u64> {
    events.iter().flat_map(TraceEvent::to_words).collect()
}

fn bytes_of(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn records_round_trip_through_their_words(
        pick in 0u8..PICKS,
        time in any::<u64>(),
        node in any::<u32>(),
        port in any::<u16>(),
        x in any::<u64>(),
        abc in any::<[u8; 3]>(),
    ) {
        let ev = event(pick, time, node, port, x, abc);
        prop_assert_eq!(TraceEvent::from_words(ev.to_words()), Some(ev));
    }

    /// A record has exactly one encoding: whatever words decode at all
    /// are the words their event encodes to.
    #[test]
    fn only_canonical_words_decode(
        time in any::<u64>(),
        tag in 0u64..6,
        sub in 0u64..14,
        rest in any::<u64>(),
        payload in any::<u64>(),
        narrow in any::<bool>(),
    ) {
        // Mostly-valid heads, so both outcomes are exercised.
        let head = tag | sub << 8 | (rest & !0xffff);
        let payload = if narrow { payload & 0x0004_0407 } else { payload };
        let words = [time, head, payload];
        if let Some(ev) = TraceEvent::from_words(words) {
            prop_assert_eq!(ev.to_words(), words);
        }
    }
}

#[test]
fn unknown_codes_and_stray_bits_are_rejected() {
    let span = TraceEvent::Span {
        time: 9,
        node: NodeId(3),
        span: SpanEvent::BgpFsm {
            port: PortId(2),
            from: BgpState::Idle,
            to: BgpState::Established,
        },
    };
    let [time, head, payload] = span.to_words();
    assert_eq!(TraceEvent::from_words([time, head, payload]), Some(span));
    // A sixth BGP state, a thirteenth span kind, a sixth variant.
    assert_eq!(TraceEvent::from_words([time, head, (payload & !0xff) | 5]), None);
    assert_eq!(TraceEvent::from_words([time, (head & !0xff00) | 12 << 8, payload]), None);
    assert_eq!(TraceEvent::from_words([time, (head & !0xff) | 5, payload]), None);
    // Bits the variant does not use.
    assert_eq!(TraceEvent::from_words([time, head, payload | 1 << 16]), None);
    let down = TraceEvent::PortDown { time: 1, node: NodeId(1), port: PortId(1) };
    let [t, h, _] = down.to_words();
    assert_eq!(TraceEvent::from_words([t, h, 1]), None);
    assert_eq!(TraceEvent::from_words([t, h | 1 << 8, 0]), None);
}

/// The digest of a word stream, the way `trace_digest` folds one.
fn digest(words: &[u64]) -> u64 {
    let mut h = Hash64::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

#[test]
fn flipping_any_single_bit_of_a_1000_event_stream_changes_the_digest() {
    let words = words_of(&stream(1000));
    let clean = digest(&words);
    // Resume from the hasher state before the flipped word rather than
    // from the start: same definition, a third of the work.
    let mut prefix = Hash64::new();
    for (i, &w) in words.iter().enumerate() {
        for bit in 0..64 {
            let mut h = prefix.clone();
            h.write_u64(w ^ 1 << bit);
            for &rest in &words[i + 1..] {
                h.write_u64(rest);
            }
            assert_ne!(h.finish(), clean, "word {i} bit {bit}");
        }
        prefix.write_u64(w);
    }
    assert_eq!(prefix.finish(), clean);
}

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/trace-v1.bin");
const FIXTURE_RECORDS: usize = 320;
/// `hash64` of the fixture's bytes. A toolchain, profile or host that
/// moves it has moved every stored digest.
const FIXTURE_DIGEST: u64 = 0x038d_d21a_179e_1869;

/// Writes the fixture. It is committed; run this only to create a `v2`
/// beside it when the record layout changes on purpose:
/// `cargo test -p dcn-sim --test trace_record -- --ignored`.
#[test]
#[ignore = "generator: rewrites tests/fixtures/trace-v1.bin"]
fn write_the_trace_fixture() {
    std::fs::write(FIXTURE, bytes_of(&words_of(&stream(FIXTURE_RECORDS)))).expect("write fixture");
}

#[test]
fn the_committed_fixture_decodes_re_encodes_and_digests_to_its_pin() {
    let bytes = std::fs::read(FIXTURE).expect("committed fixture");
    assert_eq!(bytes.len(), FIXTURE_RECORDS * 24);
    let mut seen = std::collections::BTreeSet::new();
    let mut last = 0;
    let mut re_encoded = Vec::new();
    for record in bytes.chunks_exact(24) {
        let word = |i: usize| u64::from_le_bytes(record[8 * i..8 * i + 8].try_into().unwrap());
        let ev = TraceEvent::from_words([word(0), word(1), word(2)]).expect("canonical record");
        assert!(ev.time() >= last, "records are in time order");
        last = ev.time();
        seen.insert(match ev {
            TraceEvent::FrameSent { .. } => "frame_sent",
            TraceEvent::PortDown { .. } => "port_down",
            TraceEvent::PortUp { .. } => "port_up",
            TraceEvent::RouteChange { .. } => "route_change",
            TraceEvent::Span { span, .. } => span.kind(),
        });
        re_encoded.extend(ev.to_words());
    }
    assert_eq!(seen.len(), PICKS as usize, "every variant and span kind is in the fixture");
    assert_eq!(bytes_of(&re_encoded), bytes);
    assert_eq!(hash64(&bytes), FIXTURE_DIGEST);
    assert_eq!(digest(&re_encoded), FIXTURE_DIGEST);
}
