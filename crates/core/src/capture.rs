//! Append-only frame capture log: the pipeline's black-box flight data.
//!
//! Every [`FramePacket`] the source stage emits is appended to a
//! schema-versioned, FNV-checksummed binary log, fsync'd in bounded
//! segments. The log serves two consumers:
//!
//! * **shard recovery** — when a `shard.kill` fault marks an accumulator
//!   shard lost mid-block, the accumulate stage re-reads the block's
//!   frames from the log and rebuilds the shard bit-exactly;
//! * **incident replay** — `htims pipeline --replay <dir>` feeds the
//!   logged frames back through a fresh pipeline and reproduces the
//!   original output FNV bit-exactly, cross-process.
//!
//! ## On-disk format
//!
//! A log directory holds numbered segment files `seg-NNNNNN.htcl`. Each
//! segment starts with an 8-byte header — magic `HTCL` plus a
//! little-endian `u32` [`CAPTURE_SCHEMA_VERSION`] — followed by records:
//!
//! ```text
//! u32  payload_len         (bytes)
//! u64  seq_no
//! u8   flags               (bit 0: has_checksum)
//! [u64 checksum]           (present iff bit 0 set)
//! [u8] payload             (payload_len bytes)
//! u64  record_fnv          (FNV-1a 64 over all preceding record bytes)
//! ```
//!
//! All integers little-endian. `origin_ns` is deliberately *not* logged —
//! it is wall-clock metadata excluded from the payload checksum, and
//! replay re-stamps it so end-to-end latency histograms stay meaningful.
//! Segments rotate at a byte threshold and are fsync'd on rotation and on
//! [`CaptureLog::finish`]. Reading never writes. One rule covers a corrupt
//! tail (the torn write of a crashed producer): the log ends at the first
//! record that fails its FNV, and every later segment is ignored, so every
//! intact prefix record survives and nothing after the tear is read.

use ims_fpga::dma::{fnv1a64, FramePacket};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version stamped into every segment header; bumped on any record-format
/// change so stale logs fail loudly instead of misparsing.
pub const CAPTURE_SCHEMA_VERSION: u32 = 1;

/// Segment-file magic, the first four bytes of every segment.
pub const CAPTURE_MAGIC: &[u8; 4] = b"HTCL";

/// Default segment rotation threshold (bytes of records per segment).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

const HEADER_LEN: u64 = 8;

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.htcl"))
}

#[derive(Debug)]
enum Mode {
    /// Writable: `append` encodes and buffers records, rotating segments.
    Append {
        writer: BufWriter<File>,
        segment: u64,
        written: u64,
        segment_bytes: u64,
    },
    /// Replay handle: `append` is a no-op; holds the records read at open.
    ReadOnly(Vec<FramePacket>),
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    mode: Mode,
}

/// A handle to a capture-log directory; cheap to clone (clones share the
/// writer), safe to append from whichever thread runs the source stage
/// while the accumulate stage reads frames back for a shard rebuild.
#[derive(Debug, Clone)]
pub struct CaptureLog {
    inner: Arc<Mutex<Inner>>,
}

impl CaptureLog {
    /// Creates (or resets) `dir` as a fresh writable log: stale segment
    /// files are removed and segment 0 is opened with its header written.
    pub fn create(dir: &Path) -> std::io::Result<Self> {
        Self::create_with_segment_bytes(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`create`](Self::create) with an explicit rotation threshold —
    /// tests use small segments to exercise rotation and torn tails.
    pub fn create_with_segment_bytes(dir: &Path, segment_bytes: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "htcl") {
                std::fs::remove_file(path)?;
            }
        }
        let writer = open_segment(dir, 0)?;
        Ok(Self {
            inner: Arc::new(Mutex::new(Inner {
                dir: dir.to_path_buf(),
                mode: Mode::Append {
                    writer,
                    segment: 0,
                    written: 0,
                    segment_bytes: segment_bytes.max(1),
                },
            })),
        })
    }

    /// Opens an existing log read-only and reads it once, up to the first
    /// record that fails its FNV (see the module docs). A missing log, a
    /// bad segment header or an unreadable file is an error; a torn tail
    /// is not. Nothing on disk is modified.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        if !segment_path(dir, 0).exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no capture segments in {}", dir.display()),
            ));
        }
        Ok(Self {
            inner: Arc::new(Mutex::new(Inner {
                dir: dir.to_path_buf(),
                mode: Mode::ReadOnly(read_log(dir)?),
            })),
        })
    }

    /// The log directory.
    pub fn dir(&self) -> PathBuf {
        self.inner.lock().unwrap().dir.clone()
    }

    /// Appends one packet (no-op on a read-only handle). Rotation flushes
    /// and fsyncs the finished segment, so at most the live segment's
    /// tail is at risk from a crash — exactly where a reader stops.
    pub fn append(&self, packet: &FramePacket) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let dir = inner.dir.clone();
        let Mode::Append {
            writer,
            segment,
            written,
            segment_bytes,
        } = &mut inner.mode
        else {
            return Ok(());
        };
        let record = encode_record(packet);
        if *written > 0 && *written + record.len() as u64 > *segment_bytes {
            writer.flush()?;
            writer.get_ref().sync_all()?;
            *segment += 1;
            *writer = open_segment(&dir, *segment)?;
            *written = 0;
        }
        writer.write_all(&record)?;
        *written += record.len() as u64;
        ims_obs::static_counter!("capture.frames_logged").incr();
        ims_obs::static_counter!("capture.bytes_logged").add(record.len() as u64);
        Ok(())
    }

    /// Flushes and fsyncs the live segment (no-op read-only). Call at end
    /// of run so the log survives the process.
    pub fn finish(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if let Mode::Append { writer, .. } = &mut inner.mode {
            writer.flush()?;
            writer.get_ref().sync_all()?;
        }
        Ok(())
    }

    /// Every logged packet, in append order, up to the first record that
    /// fails its FNV (see the module docs). A writable handle flushes and
    /// reads the disk, so a mid-run rebuild sees everything appended so
    /// far; a read-only handle returns what [`open`](Self::open) read.
    /// `origin_ns` is stamped when a record is read from disk — it is not
    /// logged (see the module docs).
    pub fn read_all(&self) -> std::io::Result<Vec<FramePacket>> {
        let mut inner = self.inner.lock().unwrap();
        match &mut inner.mode {
            Mode::Append { writer, .. } => writer.flush()?,
            Mode::ReadOnly(packets) => return Ok(packets.clone()),
        }
        let dir = inner.dir.clone();
        drop(inner);
        read_log(&dir)
    }

    /// Reads exactly the packets with the given seq-nos, erroring if any
    /// is missing — the shard-rebuild read path, where a partial frame
    /// set would rebuild a *wrong* shard rather than no shard.
    pub fn read_frames(&self, seq_nos: &[u64]) -> std::io::Result<Vec<FramePacket>> {
        let all = self.read_all()?;
        let mut out = Vec::with_capacity(seq_nos.len());
        for &seq in seq_nos {
            match all.iter().find(|p| p.seq_no == seq) {
                Some(p) => out.push(p.clone()),
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("frame {seq} not in capture log"),
                    ))
                }
            }
        }
        Ok(out)
    }
}

fn open_segment(dir: &Path, index: u64) -> std::io::Result<BufWriter<File>> {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(segment_path(dir, index))?;
    let mut writer = BufWriter::new(file);
    writer.write_all(CAPTURE_MAGIC)?;
    writer.write_all(&CAPTURE_SCHEMA_VERSION.to_le_bytes())?;
    Ok(writer)
}

fn encode_record(packet: &FramePacket) -> Vec<u8> {
    let mut buf = Vec::with_capacity(packet.payload.len() + 32);
    buf.extend_from_slice(&(packet.payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&packet.seq_no.to_le_bytes());
    buf.push(u8::from(packet.checksum.is_some()));
    if let Some(sum) = packet.checksum {
        buf.extend_from_slice(&sum.to_le_bytes());
    }
    buf.extend_from_slice(&packet.payload);
    let fnv = fnv1a64(&buf);
    buf.extend_from_slice(&fnv.to_le_bytes());
    buf
}

/// Parses one record from `bytes[at..]`. Returns `(packet, next_offset)`,
/// or `None` for a short / FNV-mismatched record (a torn tail).
fn decode_record(bytes: &[u8], at: usize) -> Option<(FramePacket, usize)> {
    let rest = &bytes[at..];
    if rest.len() < 13 {
        return None;
    }
    let payload_len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let seq_no = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    let has_checksum = rest[12] & 1 != 0;
    let mut off = 13;
    let checksum = if has_checksum {
        if rest.len() < off + 8 {
            return None;
        }
        let sum = u64::from_le_bytes(rest[off..off + 8].try_into().unwrap());
        off += 8;
        Some(sum)
    } else {
        None
    };
    if rest.len() < off + payload_len + 8 {
        return None;
    }
    let payload = &rest[off..off + payload_len];
    off += payload_len;
    let stored_fnv = u64::from_le_bytes(rest[off..off + 8].try_into().unwrap());
    if fnv1a64(&rest[..off]) != stored_fnv {
        return None;
    }
    let packet = FramePacket {
        seq_no,
        payload: bytes::Bytes::copy_from_slice(payload),
        checksum,
        origin_ns: ims_obs::trace::now_ns(),
    };
    Some((packet, at + off + 8))
}

fn read_header(bytes: &[u8], path: &Path) -> std::io::Result<()> {
    if bytes.len() < HEADER_LEN as usize || &bytes[0..4] != CAPTURE_MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: not a capture segment", path.display()),
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != CAPTURE_SCHEMA_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: capture schema v{version}, this build reads v{CAPTURE_SCHEMA_VERSION}",
                path.display()
            ),
        ));
    }
    Ok(())
}

/// The one reader of a log directory: the records of segments 0, 1, …
/// in order, stopping at the first record that fails its FNV (a torn or
/// corrupt record, counted in `capture.torn_reads`) and ignoring every
/// later segment, since they postdate the tear. It only reads.
fn read_log(dir: &Path) -> std::io::Result<Vec<FramePacket>> {
    let mut out = Vec::new();
    let mut index = 0u64;
    loop {
        let path = segment_path(dir, index);
        if !path.exists() {
            return Ok(out);
        }
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        read_header(&bytes, &path)?;
        let mut at = HEADER_LEN as usize;
        while at < bytes.len() {
            let Some((packet, next)) = decode_record(&bytes, at) else {
                ims_obs::static_counter!("capture.torn_reads").incr();
                return Ok(out);
            };
            out.push(packet);
            at = next;
        }
        index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("htims_capture_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn packet(seq: u64, checked: bool) -> FramePacket {
        let words: Vec<u32> = (0..16)
            .map(|i| (i as u32).wrapping_mul(seq as u32 + 3))
            .collect();
        if checked {
            FramePacket::from_words_checked(seq, &words)
        } else {
            FramePacket::from_words(seq, &words)
        }
    }

    #[test]
    fn round_trips_packets_across_segments() {
        let dir = temp_dir("roundtrip");
        // Tiny segments force several rotations.
        let log = CaptureLog::create_with_segment_bytes(&dir, 200).unwrap();
        let packets: Vec<FramePacket> = (0..12).map(|i| packet(i, i % 2 == 0)).collect();
        for p in &packets {
            log.append(p).unwrap();
        }
        log.finish().unwrap();
        assert!(
            std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| e
                    .as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "htcl"))
                .count()
                > 1,
            "small segment limit must rotate"
        );

        let reader = CaptureLog::open(&dir).unwrap();
        let back = reader.read_all().unwrap();
        assert_eq!(back.len(), packets.len());
        for (a, b) in packets.iter().zip(&back) {
            assert_eq!(a.seq_no, b.seq_no);
            assert_eq!(a.payload, b.payload);
            assert_eq!(a.checksum, b.checksum);
            assert!(b.verify());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_frames_selects_by_seq_and_errors_on_missing() {
        let dir = temp_dir("select");
        let log = CaptureLog::create(&dir).unwrap();
        for i in 0..8 {
            log.append(&packet(i, false)).unwrap();
        }
        let picked = log.read_frames(&[6, 2, 2]).unwrap();
        assert_eq!(
            picked.iter().map(|p| p.seq_no).collect::<Vec<_>>(),
            vec![6, 2, 2]
        );
        assert!(log.read_frames(&[99]).is_err(), "missing seq must error");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The bytes of every segment in `dir`, in segment order.
    fn segment_bytes(dir: &Path) -> Vec<Vec<u8>> {
        (0..)
            .map(|i| segment_path(dir, i))
            .take_while(|p| p.exists())
            .map(|p| std::fs::read(p).unwrap())
            .collect()
    }

    #[test]
    fn torn_tail_keeps_the_prefix_and_leaves_the_log_untouched() {
        let dir = temp_dir("tail");
        let log = CaptureLog::create(&dir).unwrap();
        for i in 0..5 {
            log.append(&packet(i, true)).unwrap();
        }
        log.finish().unwrap();
        // Simulate a torn write: chop bytes off the live segment's tail.
        let seg = segment_path(&dir, 0);
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        let before = segment_bytes(&dir);

        let reader = CaptureLog::open(&dir).unwrap();
        let back = reader.read_all().unwrap();
        assert_eq!(back.len(), 4, "intact prefix records survive");
        assert!(back.iter().all(|p| p.verify()));
        // Opening and reading wrote nothing: re-opening finds the same
        // torn log and reads the same prefix.
        assert_eq!(segment_bytes(&dir), before);
        let again = CaptureLog::open(&dir).unwrap();
        assert_eq!(again.read_all().unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_record_ends_the_log_and_later_segments_are_ignored() {
        let dir = temp_dir("midlog");
        // Tiny segments: two records each.
        let log = CaptureLog::create_with_segment_bytes(&dir, 200).unwrap();
        for i in 0..12 {
            log.append(&packet(i, false)).unwrap();
        }
        log.finish().unwrap();
        let segments = segment_bytes(&dir);
        assert!(segments.len() > 2, "small segment limit must rotate");
        // Flip one payload byte of the last record in segment 0.
        let seg = segment_path(&dir, 0);
        let mut bytes = segments[0].clone();
        let n = bytes.len();
        bytes[n - 12] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let before = segment_bytes(&dir);

        let back = CaptureLog::open(&dir).unwrap().read_all().unwrap();
        let seqs: Vec<u64> = back.iter().map(|p| p.seq_no).collect();
        assert_eq!(seqs, [0], "the log ends at the corrupt record");
        assert_eq!(segment_bytes(&dir), before, "reading wrote nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_record_body_is_detected_by_record_fnv() {
        let dir = temp_dir("flip");
        let log = CaptureLog::create(&dir).unwrap();
        for i in 0..3 {
            log.append(&packet(i, false)).unwrap();
        }
        log.finish().unwrap();
        // Flip one byte inside the *last* record's payload.
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();

        let back = CaptureLog::open(&dir).unwrap().read_all().unwrap();
        assert_eq!(back.len(), 2, "FNV catches the corrupt record");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_fail_loudly() {
        let dir = temp_dir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0), b"NOPE0000").unwrap();
        assert!(CaptureLog::open(&dir).is_err());
        let mut hdr = CAPTURE_MAGIC.to_vec();
        hdr.extend_from_slice(&(CAPTURE_SCHEMA_VERSION + 1).to_le_bytes());
        std::fs::write(segment_path(&dir, 0), &hdr).unwrap();
        let err = CaptureLog::open(&dir).unwrap_err().to_string();
        assert!(err.contains("schema"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writable_handle_reads_back_mid_run() {
        // The shard-rebuild path: read through the same (still-open)
        // writable handle, no finish() yet.
        let dir = temp_dir("midrun");
        let log = CaptureLog::create(&dir).unwrap();
        for i in 0..4 {
            log.append(&packet(i, false)).unwrap();
        }
        let back = log.read_frames(&[0, 3]).unwrap();
        assert_eq!(back[0].seq_no, 0);
        assert_eq!(back[1].seq_no, 3);
        // And appending continues to work afterwards.
        log.append(&packet(4, false)).unwrap();
        assert_eq!(log.read_all().unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_append_is_a_noop() {
        let dir = temp_dir("readonly");
        let log = CaptureLog::create(&dir).unwrap();
        log.append(&packet(0, false)).unwrap();
        log.finish().unwrap();
        let ro = CaptureLog::open(&dir).unwrap();
        ro.append(&packet(1, false)).unwrap();
        ro.finish().unwrap();
        assert_eq!(ro.read_all().unwrap().len(), 1, "read-only must not grow");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
