//! Host ↔ FPGA link model (RapidArray-like) and the frame packets the
//! hybrid pipeline streams across it.
//!
//! The Cray XD1 attached its FPGAs over the RapidArray fabric at roughly
//! 1.6 GB/s per direction with ~2 µs message latency. Whether the design is
//! viable at all hinges on one inequality: sustained frame traffic must fit
//! the link. [`DmaLink`] answers that, and [`FramePacket`] (built on
//! `bytes::Bytes` for zero-copy hand-off between pipeline threads) is the
//! unit of traffic.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Bandwidth/latency model of the host link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DmaLink {
    /// Sustained bandwidth per direction, bytes/s.
    pub bandwidth_bytes_per_s: f64,
    /// Per-transfer latency, s.
    pub latency_s: f64,
}

impl DmaLink {
    /// Cray XD1 RapidArray: ~1.6 GB/s per direction, ~1.8 µs latency.
    pub fn rapidarray() -> Self {
        Self {
            bandwidth_bytes_per_s: 1.6e9,
            latency_s: 1.8e-6,
        }
    }

    /// A PCI-X instrument-attached board (the portability target the
    /// abstract mentions): ~800 MB/s, 10 µs.
    pub fn pci_x() -> Self {
        Self {
            bandwidth_bytes_per_s: 8.0e8,
            latency_s: 1.0e-5,
        }
    }

    /// Wall time to move `bytes` once. Each call counts one (simulated)
    /// transfer in the `dma.transfers` / `dma.bytes` metrics and opens a
    /// trace span, so timelines show where link traffic happens.
    pub fn transfer_time_s(&self, bytes: usize) -> f64 {
        let _sp = ims_obs::span_cat("dma", "transfer");
        ims_obs::static_counter!("dma.transfers").incr();
        ims_obs::static_counter!("dma.bytes").add(bytes as u64);
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Highest frame rate the link sustains for a given frame size.
    pub fn sustainable_frame_rate(&self, frame_bytes: usize) -> f64 {
        1.0 / self.transfer_time_s(frame_bytes)
    }

    /// Does the link keep up with `frames_per_s` of `frame_bytes` frames?
    pub fn can_sustain(&self, frame_bytes: usize, frames_per_s: f64) -> bool {
        self.sustainable_frame_rate(frame_bytes) >= frames_per_s
    }

    /// Fraction of the link consumed by a traffic pattern (>1 ⇒ overload).
    pub fn utilization(&self, frame_bytes: usize, frames_per_s: f64) -> f64 {
        frames_per_s * self.transfer_time_s(frame_bytes)
    }
}

/// 64-bit FNV-1a over a byte slice — the integrity checksum carried by
/// checked [`FramePacket`]s. Stable across platforms (byte-order free:
/// payloads are already canonical little-endian wire bytes).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// One frame of raw instrument data in flight between pipeline stages.
#[derive(Debug, Clone)]
pub struct FramePacket {
    /// Monotonic frame number.
    pub seq_no: u64,
    /// Raw little-endian `u32` ADC words, drift-major.
    pub payload: Bytes,
    /// FNV-1a checksum of `payload` taken at packing time, when the
    /// producer runs with integrity checking on (`None` on the default
    /// fast path, where no checksum is computed or verified).
    pub checksum: Option<u64>,
    /// Origin timestamp: nanoseconds since the process trace epoch when
    /// the packet was packed. End-to-end frame latency is measured
    /// against this; stages that re-pack a frame must carry it forward
    /// (see [`with_origin`](Self::with_origin)). Not part of the payload
    /// checksum — two runs of the same seed produce identical payloads
    /// with different origins.
    pub origin_ns: u64,
}

impl FramePacket {
    /// Packs ADC words into a packet (no integrity checksum — the default
    /// hot path).
    pub fn from_words(seq_no: u64, words: &[u32]) -> Self {
        Self::pack(seq_no, words, false)
    }

    /// Packs ADC words into a packet carrying an FNV-1a payload checksum,
    /// so downstream stages can detect in-flight corruption (see
    /// [`verify`](Self::verify)).
    pub fn from_words_checked(seq_no: u64, words: &[u32]) -> Self {
        Self::pack(seq_no, words, true)
    }

    fn pack(seq_no: u64, words: &[u32], checked: bool) -> Self {
        let buf: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let checksum = checked.then(|| fnv1a64(&buf));
        Self {
            seq_no,
            payload: Bytes::from(buf),
            checksum,
            origin_ns: ims_obs::trace::now_ns(),
        }
    }

    /// The frame's stable identity across the pipeline — flight-recorder
    /// events and black-box causal chains key on this.
    pub fn frame_id(&self) -> u64 {
        self.seq_no
    }

    /// Carries an earlier packet's origin timestamp onto this one —
    /// stages that re-pack a frame (e.g. after re-binning) use this so
    /// end-to-end latency still measures from first packing.
    pub fn with_origin(mut self, origin_ns: u64) -> Self {
        self.origin_ns = origin_ns;
        self
    }

    /// Integrity check: `true` when the packet carries no checksum
    /// (unchecked fast path) or the payload still matches it; `false`
    /// means the payload was corrupted after packing.
    pub fn verify(&self) -> bool {
        match self.checksum {
            Some(sum) => fnv1a64(&self.payload) == sum,
            None => true,
        }
    }

    /// Flips one payload bit *without* updating the checksum — the DMA
    /// bit-flip fault-injection hook (`bit` counts from the packet start;
    /// out-of-range indices wrap). Copies the payload, so sibling clones
    /// sharing the buffer are unaffected.
    pub fn flip_bit(&mut self, bit: usize) {
        if self.payload.is_empty() {
            return;
        }
        let bit = bit % (self.payload.len() * 8);
        let mut buf = self.payload.to_vec();
        buf[bit / 8] ^= 1 << (bit % 8);
        self.payload = Bytes::from(buf);
    }

    /// Unpacks the ADC words into a fresh `Vec`.
    ///
    /// Allocates per call; the frame engines read the payload in place
    /// instead (`MzBinner::bin_payload_into`,
    /// `ShardedAccumulator::capture_payload`).
    pub fn to_words(&self) -> Vec<u32> {
        let (words, _) = self.payload.as_chunks::<4>();
        words.iter().map(|&w| u32::from_le_bytes(w)).collect()
    }

    /// Number of ADC words in the payload.
    pub fn n_words(&self) -> usize {
        self.payload.len() / 4
    }

    /// Payload size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.payload.len()
    }
}

/// A payload's ADC words as little-endian 4-byte groups, or `None` when
/// the bytes are not a whole number of words. The frame engines slice this
/// by drift row and decode each row in place with `u32::from_le_bytes`, so
/// they fold straight from the packet with no intermediate copy.
pub(crate) fn payload_words(payload: &[u8]) -> Option<&[[u8; 4]]> {
    match payload.as_chunks::<4>() {
        (words, []) => Some(words),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_latency() {
        let link = DmaLink::rapidarray();
        let t = link.transfer_time_s(1_600_000);
        assert!((t - (1.8e-6 + 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn rapidarray_sustains_raw_ims_frames() {
        // 511 drift bins × 2000 m/z bins × 4 B ≈ 4.1 MB per frame at
        // ~15 frames/s (60 ms frames) ≈ 61 MB/s — easily sustained.
        let link = DmaLink::rapidarray();
        let frame_bytes = 511 * 2000 * 4;
        assert!(link.can_sustain(frame_bytes, 15.0));
        // But a hypothetical unaccumulated 10 kHz extraction stream is not.
        assert!(!link.can_sustain(frame_bytes, 10_000.0));
    }

    #[test]
    fn accumulation_reduces_utilization() {
        // On-chip accumulation over 50 cycles divides the frame rate by 50.
        let link = DmaLink::pci_x();
        let frame_bytes = 511 * 2000 * 4;
        let raw = link.utilization(frame_bytes, 15.0);
        let accumulated = link.utilization(frame_bytes, 15.0 / 50.0);
        assert!((raw / accumulated - 50.0).abs() < 1e-6);
    }

    #[test]
    fn packet_round_trips_words() {
        let words: Vec<u32> = (0..100).map(|i| i * 17).collect();
        let p = FramePacket::from_words(7, &words);
        assert_eq!(p.seq_no, 7);
        assert_eq!(p.frame_id(), 7);
        assert_eq!(p.len_bytes(), 400);
        assert_eq!(p.to_words(), words);
    }

    #[test]
    fn repacking_can_carry_the_origin_forward() {
        let p = FramePacket::from_words(1, &[1, 2, 3]);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let repacked = FramePacket::from_words(1, &[4, 5, 6]);
        assert!(repacked.origin_ns > p.origin_ns, "fresh pack stamps now");
        let carried = repacked.with_origin(p.origin_ns);
        assert_eq!(carried.origin_ns, p.origin_ns);
    }

    #[test]
    fn checked_packet_detects_single_bit_corruption() {
        let words: Vec<u32> = (0..64).map(|i| i * 31).collect();
        let mut p = FramePacket::from_words_checked(3, &words);
        assert!(p.checksum.is_some());
        assert!(p.verify());
        p.flip_bit(97);
        assert!(!p.verify(), "bit flip must break the checksum");
        p.flip_bit(97);
        assert!(p.verify(), "flipping back must restore it");
        // Unchecked packets always verify (nothing to check against).
        let mut q = FramePacket::from_words(3, &words);
        assert!(q.checksum.is_none());
        q.flip_bit(5);
        assert!(q.verify());
    }

    #[test]
    fn fnv1a64_is_pinned() {
        // The checksum is part of the wire contract: pin the canonical
        // FNV-1a test vectors so it never silently changes.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn packet_clone_is_cheap_shared_buffer() {
        let p = FramePacket::from_words(0, &[1, 2, 3]);
        let q = p.clone();
        // bytes::Bytes clones share the allocation.
        assert_eq!(p.payload.as_ptr(), q.payload.as_ptr());
    }
}
