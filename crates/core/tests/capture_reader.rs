//! The capture-log reader behind `htims pipeline --replay`, which reads
//! segments it cannot trust: arbitrary bytes open to an error or a packet
//! list, never a panic, and a damaged log reads back exactly the records
//! before its first damaged byte. Reading never writes to the log.

use htims_core::capture::{CaptureLog, CAPTURE_MAGIC, CAPTURE_SCHEMA_VERSION};
use ims_fpga::dma::FramePacket;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory for one proptest case.
fn scratch(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "htims-capture-reader-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn segment_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("seg-{index:06}.htcl"))
}

/// The bytes of segments 0, 1, … up to the first missing one.
fn segments(dir: &Path) -> Vec<Vec<u8>> {
    (0..)
        .map(|i| std::fs::read(segment_path(dir, i)))
        .take_while(Result::is_ok)
        .map(Result::unwrap)
        .collect()
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// Bytes one record takes on disk (see the format in `capture.rs`).
fn record_len(p: &FramePacket) -> usize {
    4 + 8 + 1 + if p.checksum.is_some() { 8 } else { 0 } + p.payload.len() + 8
}

/// Segment header bytes: magic, schema version, and the previous
/// segment's record bytes.
const HEADER_LEN: usize = 16;

/// The header bytes whose damage is an error (magic and schema version);
/// damage anywhere after them ends the log.
const MAGIC_AND_VERSION: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_segment_bytes_open_to_an_error_or_packets(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        behind_header in any::<bool>(),
    ) {
        let dir = scratch("arbitrary");
        let mut segment = Vec::new();
        if behind_header {
            segment.extend_from_slice(CAPTURE_MAGIC);
            segment.extend_from_slice(&CAPTURE_SCHEMA_VERSION.to_le_bytes());
            segment.extend_from_slice(&0u64.to_le_bytes());
        }
        segment.extend_from_slice(&bytes);
        std::fs::write(segment_path(&dir, 0), &segment).expect("write segment");
        match CaptureLog::open(&dir).and_then(|log| log.read_all()) {
            Ok(packets) => prop_assert!(packets.len() <= segment.len() / 21),
            // Behind a valid header, bad records end the log; they are
            // not an error.
            Err(e) => prop_assert!(!behind_header, "{e}"),
        }
        prop_assert_eq!(segments(&dir), vec![segment]);
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }

    /// Flips anywhere, and a cut of any segment: of the last, the torn
    /// write of a crashed producer; of an earlier one, a segment that lost
    /// records from its end, which leaves a gap before the next segment.
    #[test]
    fn a_damaged_log_reads_back_the_records_before_its_first_damaged_byte(
        packets in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..48), (any::<bool>(), any::<u64>())),
            0..12,
        ),
        segment_bytes in 32u64..256,
        flips in proptest::collection::vec((any::<usize>(), any::<usize>(), 1u8..=255), 0..3),
        cut in (any::<bool>(), any::<usize>(), any::<usize>()),
    ) {
        let dir = scratch("damaged");
        let appended: Vec<FramePacket> = packets
            .iter()
            .enumerate()
            .map(|(i, (payload, (summed, checksum)))| FramePacket {
                seq_no: 1000 + 3 * i as u64,
                payload: payload.clone().into(),
                checksum: summed.then_some(*checksum),
                origin_ns: 0,
            })
            .collect();
        let log = CaptureLog::create_with_segment_bytes(&dir, segment_bytes).expect("create");
        for p in &appended {
            log.append(p).expect("append");
        }
        log.finish().expect("finish");
        drop(log);

        let original = segments(&dir);
        let mut damaged = original.clone();
        for &(segment, at, xor) in &flips {
            let segment = &mut damaged[segment % original.len()];
            let at = at % segment.len();
            segment[at] ^= xor;
        }
        if let (true, segment, keep) = cut {
            let segment = &mut damaged[segment % original.len()];
            segment.truncate(keep % (segment.len() + 1));
        }
        for (i, bytes) in damaged.iter().enumerate() {
            std::fs::write(segment_path(&dir, i), bytes).expect("write segment");
        }
        let files = files_in(&dir);

        // The first damaged byte in log order: (segment, offset).
        let first = original.iter().zip(&damaged).enumerate().find_map(|(s, (o, d))| {
            let same = o.iter().zip(d).take_while(|(a, b)| a == b).count();
            (same < o.len()).then_some((s, same))
        });
        // The records that end before it, walking the original layout.
        let mut intact = 0;
        let (mut segment, mut at) = (0, HEADER_LEN);
        for p in &appended {
            if at + record_len(p) > original[segment].len() {
                (segment, at) = (segment + 1, HEADER_LEN);
            }
            at += record_len(p);
            match first {
                Some((s, off)) if (segment, at) > (s, off) => break,
                _ => intact += 1,
            }
        }

        let read = CaptureLog::open(&dir).and_then(|log| log.read_all());
        match first {
            Some((_, off)) if off < MAGIC_AND_VERSION => prop_assert!(read.is_err()),
            _ => {
                let read = read.expect("a damaged record ends the log; it is no error");
                prop_assert_eq!(read.len(), intact);
                for (got, want) in read.iter().zip(&appended) {
                    prop_assert_eq!(got.seq_no, want.seq_no);
                    prop_assert_eq!(&got.payload[..], &want.payload[..]);
                    prop_assert_eq!(got.checksum, want.checksum);
                }
            }
        }
        prop_assert_eq!(segments(&dir), damaged, "reading changed a segment");
        prop_assert_eq!(files_in(&dir), files, "reading added or removed a file");
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}
