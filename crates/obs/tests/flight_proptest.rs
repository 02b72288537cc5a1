//! Property tests for the flight-recorder ring: overwrite must keep the
//! newest events and never reorder what survives within a worker shard.

use ims_obs::flight::{FlightKind, FlightRecorder};
use proptest::prelude::*;

const KINDS: [FlightKind; 6] = [
    FlightKind::FrameIngress,
    FlightKind::FrameEgress,
    FlightKind::BlockIngress,
    FlightKind::BlockEgress,
    FlightKind::Fault,
    FlightKind::Quarantine,
];

proptest! {
    /// However many events are pushed through however small a ring, the
    /// snapshot is exactly the newest `min(n, capacity)` events, in the
    /// order they were recorded, payloads intact.
    #[test]
    fn ring_overwrite_preserves_per_worker_order(
        capacity in 1usize..40,
        events in proptest::collection::vec((0u8..6, 0u64..1000), 0..200),
    ) {
        let rec = FlightRecorder::new(1, capacity);
        let s = rec.register("stage");
        for (i, &(kind, item)) in events.iter().enumerate() {
            rec.record_at(s, KINDS[kind as usize], item, i as u64);
        }
        let snap = rec.snapshot();
        prop_assert_eq!(snap.recorded as usize, events.len());
        let survivors = &snap.events[0];
        let expect = events.len().min(rec.capacity());
        prop_assert_eq!(survivors.len(), expect);
        // Survivors are the tail of the recorded sequence, in order.
        let tail = &events[events.len() - expect..];
        for (got, (&(kind, item), offset)) in
            survivors.iter().zip(tail.iter().zip(0u64..))
        {
            let seq = (events.len() - expect) as u64 + offset;
            prop_assert_eq!(got.seq, seq, "claim order survives overwrite");
            prop_assert_eq!(got.kind, KINDS[kind as usize]);
            prop_assert_eq!(got.item, item);
            prop_assert_eq!(got.ts_ns, seq, "timestamp payload intact");
        }
        // And strictly monotone seq — no reordering, no duplicates.
        for pair in survivors.windows(2) {
            prop_assert!(pair[0].seq < pair[1].seq);
        }
    }

    /// A dump renders and parses back for any event mix, and its header
    /// always lists every quarantined item exactly once, ascending.
    #[test]
    fn dump_round_trips_and_lists_quarantines(
        events in proptest::collection::vec((0u8..6, 0u64..50), 1..120),
    ) {
        let rec = FlightRecorder::new(2, 256);
        let s = rec.register("stage");
        let mut quarantined: Vec<u64> = Vec::new();
        for (i, &(kind, item)) in events.iter().enumerate() {
            let kind = KINDS[kind as usize];
            if kind == FlightKind::Quarantine {
                quarantined.push(item);
            }
            rec.record_at(s, kind, item, i as u64);
        }
        quarantined.sort_unstable();
        quarantined.dedup();
        let text = rec.render_dump(&ims_obs::flight::DumpMeta {
            fingerprint: "prop".into(),
            outcome: "degraded".into(),
            reason: "proptest".into(),
            ..Default::default()
        });
        let (header, lines) = ims_obs::flight::parse_dump(&text).unwrap();
        prop_assert_eq!(header.quarantined_frames, quarantined);
        prop_assert_eq!(header.events as usize, lines.len());
        prop_assert_eq!(lines.len(), events.len());
    }

    /// `parse_dump` reads files it cannot trust: arbitrary text, and a
    /// real dump cut anywhere or with arbitrary text spliced in, parse or
    /// fail without panicking.
    #[test]
    fn parse_dump_answers_damaged_text_without_panicking(
        chars in proptest::collection::vec(any::<u32>(), 0..48),
        events in proptest::collection::vec((0u8..6, 0u64..50), 0..20),
        cut in any::<usize>(),
    ) {
        let junk: String = chars
            .iter()
            .filter_map(|&c| char::from_u32(c % 0x11_0000))
            .collect();
        let _ = ims_obs::flight::parse_dump(&junk);
        let rec = FlightRecorder::new(1, 64);
        let s = rec.register("stage");
        for (i, &(kind, item)) in events.iter().enumerate() {
            rec.record_at(s, KINDS[kind as usize], item, i as u64);
        }
        let text = rec.render_dump(&ims_obs::flight::DumpMeta {
            fingerprint: "prop".into(),
            ..Default::default()
        });
        let mut at = cut % (text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let _ = ims_obs::flight::parse_dump(&text[..at]);
        let _ = ims_obs::flight::parse_dump(&format!("{}{junk}{}", &text[..at], &text[at..]));
    }
}
