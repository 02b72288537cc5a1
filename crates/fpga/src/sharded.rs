//! The m/z-range-sharded accumulation engine.
//!
//! The paper's drift × m/z accumulation RAM is split here into `N`
//! shards, each owning a contiguous range of m/z columns of every drift
//! row, with its own frame, saturation and cycle counters — the scale-out
//! shape of a multi-bank capture engine, and the resilience shape behind
//! the `shard.kill` chaos site: one bank can be lost and rebuilt (or
//! zeroed) without touching its siblings.
//!
//! The banks share one drift-major matrix, so a frame folds straight from
//! the packet into each shard's columns, and a drain moves the whole
//! matrix into the block without copying a cell.
//!
//! Correctness contract, pinned by proptests: because the column ranges
//! are disjoint and saturating adds are per-cell, the drain is
//! **bit-identical** to a monolithic [`AccumulatorCore`] fed the same
//! frames in the same order, for any shard count.

use crate::accumulator::{fold_saturating, AccumulatorCore, CaptureError};
use crate::dma::payload_words;
use std::ops::Range;

/// An accumulator split into m/z-range shards (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardedAccumulator {
    drift_bins: usize,
    mz_bins: usize,
    acc_bits: u32,
    /// The accumulation matrix, drift-major; shard `s` owns columns
    /// `shards[s].lo .. shards[s].hi` of every row.
    acc: Vec<u64>,
    shards: Vec<Shard>,
}

/// One m/z-range bank. Its counters follow the [`AccumulatorCore::drain`]
/// contract: frames and saturation events per block, cycles for life.
#[derive(Debug, Clone)]
struct Shard {
    lo: usize,
    hi: usize,
    frames_captured: u64,
    saturation_events: u64,
    cycles: u64,
    /// Killed and not yet revived: captures nothing, drains zeros.
    lost: bool,
}

impl ShardedAccumulator {
    /// Builds `n_shards` independent shards over `mz_bins` columns
    /// (clamped to `1..=mz_bins`), split into contiguous near-equal
    /// ranges: the first `mz_bins % n` shards take one extra column.
    ///
    /// # Panics
    /// As [`AccumulatorCore::new`]: on an empty shape or a width outside
    /// `8..=48`.
    pub fn new(drift_bins: usize, mz_bins: usize, acc_bits: u32, n_shards: usize) -> Self {
        assert!(drift_bins > 0 && mz_bins > 0, "empty accumulator");
        assert!((8..=48).contains(&acc_bits), "accumulator width 8..=48");
        let n = n_shards.clamp(1, mz_bins);
        let (base, rem) = (mz_bins / n, mz_bins % n);
        let mut lo = 0;
        let shards = (0..n)
            .map(|s| {
                let hi = lo + base + usize::from(s < rem);
                let shard = Shard {
                    lo,
                    hi,
                    frames_captured: 0,
                    saturation_events: 0,
                    cycles: 0,
                    lost: false,
                };
                lo = hi;
                shard
            })
            .collect();
        Self {
            drift_bins,
            mz_bins,
            acc_bits,
            acc: vec![0; drift_bins * mz_bins],
            shards,
        }
    }

    /// Wraps an existing monolithic core as a single-shard engine,
    /// preserving its accumulated contents and counters — the seam that
    /// keeps every `AccumulatorCore` call site bit- and cycle-identical.
    pub fn from_core(mut core: AccumulatorCore) -> Self {
        let mut one = Self::new(core.drift_bins(), core.mz_bins(), core.acc_bits(), 1);
        let shard = &mut one.shards[0];
        shard.frames_captured = core.frames_captured();
        shard.saturation_events = core.saturation_events();
        shard.cycles = core.cycles();
        one.acc = core.drain();
        one
    }

    /// Number of drift bins.
    pub fn drift_bins(&self) -> usize {
        self.drift_bins
    }

    /// Total m/z bins across all shards.
    pub fn mz_bins(&self) -> usize {
        self.mz_bins
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cell width in bits (shared by every shard).
    pub fn acc_bits(&self) -> u32 {
        self.acc_bits
    }

    /// The m/z column range `[lo, hi)` owned by shard `s`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        (self.shards[s].lo, self.shards[s].hi)
    }

    /// Is shard `s` currently marked lost?
    pub fn is_lost(&self, s: usize) -> bool {
        self.shards[s].lost
    }

    /// Shards currently marked lost.
    pub fn lost_count(&self) -> usize {
        self.shards.iter().filter(|s| s.lost).count()
    }

    /// Captures one full drift-major frame: every live shard folds its
    /// columns of each row. Lost shards are skipped (their columns are
    /// simply not accumulated). With one shard this is bit- and
    /// cycle-identical to [`AccumulatorCore::capture_frame`].
    pub fn capture_frame(&mut self, frame: &[u32]) -> Result<(), CaptureError> {
        self.check_shape(frame.len())?;
        self.fold(None, |cols| frame[cols].iter().copied());
        Ok(())
    }

    /// [`capture_frame`](Self::capture_frame) straight from a packet's
    /// little-endian payload bytes: each shard decodes its columns of each
    /// row in place, so the frame is never copied.
    pub fn capture_payload(&mut self, payload: &[u8]) -> Result<(), CaptureError> {
        let Some(words) = payload_words(payload) else {
            return Err(CaptureError::FrameShape {
                expected: self.drift_bins * self.mz_bins,
                got: payload.len() / 4,
            });
        };
        self.check_shape(words.len())?;
        self.fold(None, |cols| {
            words[cols].iter().map(|&w| u32::from_le_bytes(w))
        });
        Ok(())
    }

    /// Re-folds one full frame into shard `s` only — the recovery path
    /// that rebuilds a revived shard from the capture log. Other shards
    /// are untouched, so replaying the block's frames through this
    /// restores the shard's contents, frame count, and saturation events
    /// bit-identically (drain keeps cycles, so rebuild work only adds).
    pub fn rebuild_frame(&mut self, s: usize, frame: &[u32]) -> Result<(), CaptureError> {
        self.check_shape(frame.len())?;
        self.fold(Some(s), |cols| frame[cols].iter().copied());
        Ok(())
    }

    fn check_shape(&self, got: usize) -> Result<(), CaptureError> {
        let expected = self.drift_bins * self.mz_bins;
        if got == expected {
            Ok(())
        } else {
            Err(CaptureError::FrameShape { expected, got })
        }
    }

    /// The one fold: row by row, every live shard (or only shard `only`)
    /// adds the words `words(cols)` into its cells `cols`. Each folding
    /// shard costs its own 4-cycle frame header plus one clock per word.
    fn fold<I>(&mut self, only: Option<usize>, words: impl Fn(Range<usize>) -> I)
    where
        I: Iterator<Item = u32>,
    {
        let _sp = ims_obs::span_cat("accumulator", "frame");
        let ceil = (1u64 << self.acc_bits) - 1;
        let folds = |s: usize, shard: &Shard| only.map_or(!shard.lost, |o| o == s);
        let mut saturated = 0;
        for (row, cells) in self.acc.chunks_exact_mut(self.mz_bins).enumerate() {
            let base = row * self.mz_bins;
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if folds(s, shard) {
                    let n = fold_saturating(
                        &mut cells[shard.lo..shard.hi],
                        words(base + shard.lo..base + shard.hi),
                        ceil,
                    );
                    shard.saturation_events += n;
                    saturated += n;
                }
            }
        }
        for (s, shard) in self.shards.iter_mut().enumerate() {
            if folds(s, shard) {
                shard.frames_captured += 1;
                shard.cycles += (self.drift_bins * (shard.hi - shard.lo)) as u64 + 4;
            }
        }
        ims_obs::static_counter!("accumulator.frames").incr();
        ims_obs::static_counter!("accumulator.saturation_events").add(saturated);
    }

    /// Kills shard `s`: its partial accumulation is zeroed (cycles
    /// survive, per the [`AccumulatorCore::drain`] contract) and the shard
    /// is marked lost — it captures nothing until revived. Returns the
    /// shard's m/z column range, the blast radius a report can blame.
    pub fn kill(&mut self, s: usize) -> (usize, usize) {
        let (lo, hi) = self.shard_range(s);
        for row in self.acc.chunks_exact_mut(self.mz_bins) {
            row[lo..hi].fill(0);
        }
        let shard = &mut self.shards[s];
        shard.frames_captured = 0;
        shard.saturation_events = 0;
        shard.lost = true;
        (lo, hi)
    }

    /// Revives a lost shard (empty; rebuild via
    /// [`rebuild_frame`](Self::rebuild_frame)).
    pub fn revive(&mut self, s: usize) {
        self.shards[s].lost = false;
    }

    /// Sum of per-shard saturating-add events for the current block.
    pub fn saturation_events(&self) -> u64 {
        self.shards.iter().map(|s| s.saturation_events).sum()
    }

    /// Sum of per-shard lifetime clock cycles. Each shard is its own
    /// engine with its own 4-cycle frame-header overhead, so an `N`-shard
    /// capture costs `N × 4` header cycles per frame — with one shard this
    /// equals the monolithic model exactly.
    pub fn cycles(&self) -> u64 {
        self.shards.iter().map(|s| s.cycles).sum()
    }

    /// Frames captured into shard `s` since its last drain.
    pub fn shard_frames_captured(&self, s: usize) -> u64 {
        self.shards[s].frames_captured
    }

    /// Drains the block: hands out the whole drift-major matrix (a move)
    /// and starts the next block on a fresh one — bit-identical to what a
    /// monolithic [`AccumulatorCore`] fed the same frames would drain.
    /// Lost shards read back as zeros and are revived for the next block.
    pub fn drain_merged(&mut self) -> Vec<u64> {
        for shard in &mut self.shards {
            shard.frames_captured = 0;
            shard.saturation_events = 0;
            shard.lost = false;
        }
        std::mem::replace(&mut self.acc, vec![0; self.drift_bins * self.mz_bins])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(drift: usize, mz: usize, salt: u32) -> Vec<u32> {
        (0..drift * mz)
            .map(|i| (i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 97)
            .collect()
    }

    #[test]
    fn shard_ranges_cover_columns_contiguously() {
        for (mz, n) in [(60, 4), (7, 3), (5, 8), (1, 1), (10, 10)] {
            let acc = ShardedAccumulator::new(3, mz, 16, n);
            let mut at = 0;
            for s in 0..acc.shard_count() {
                let (lo, hi) = acc.shard_range(s);
                assert_eq!(lo, at, "range gap at shard {s}");
                assert!(hi > lo, "empty shard {s}");
                at = hi;
            }
            assert_eq!(at, mz, "ranges must cover all columns");
            assert!(acc.shard_count() <= mz, "more shards than columns");
        }
    }

    #[test]
    fn merged_drain_matches_monolithic_bit_for_bit() {
        let (drift, mz) = (5, 13);
        let mut mono = AccumulatorCore::new(drift, mz, 8);
        let mut sharded = ShardedAccumulator::new(drift, mz, 8, 4);
        for k in 0..6u32 {
            let f = frame(drift, mz, k);
            mono.capture_frame(&f).unwrap();
            sharded.capture_frame(&f).unwrap();
        }
        assert_eq!(sharded.saturation_events(), mono.saturation_events());
        assert_eq!(sharded.drain_merged(), mono.drain());
    }

    #[test]
    fn killed_shard_drains_zeros_and_revives_on_drain() {
        let (drift, mz) = (2, 8);
        let mut acc = ShardedAccumulator::new(drift, mz, 16, 4);
        acc.capture_frame(&vec![5u32; drift * mz]).unwrap();
        let (lo, hi) = acc.kill(1);
        assert!(acc.is_lost(1));
        assert_eq!(acc.lost_count(), 1);
        // Captures after the kill skip the lost shard.
        acc.capture_frame(&vec![3u32; drift * mz]).unwrap();
        let merged = acc.drain_merged();
        for d in 0..drift {
            for c in 0..mz {
                let expect = if (lo..hi).contains(&c) { 0 } else { 8 };
                assert_eq!(merged[d * mz + c], expect, "cell ({d}, {c})");
            }
        }
        // Drain revives every shard for the next block.
        assert_eq!(acc.lost_count(), 0);
        acc.capture_frame(&vec![1u32; drift * mz]).unwrap();
        assert!(acc.drain_merged().iter().all(|&v| v == 1));
    }

    #[test]
    fn rebuild_restores_killed_shard_exactly() {
        let (drift, mz) = (3, 10);
        let frames: Vec<Vec<u32>> = (0..4).map(|k| frame(drift, mz, k)).collect();
        let mut mono = AccumulatorCore::new(drift, mz, 8);
        let mut acc = ShardedAccumulator::new(drift, mz, 8, 3);
        for f in &frames {
            mono.capture_frame(f).unwrap();
            acc.capture_frame(f).unwrap();
        }
        // Kill shard 2 mid-block, then rebuild it from the frame history.
        acc.kill(2);
        acc.revive(2);
        for f in &frames {
            acc.rebuild_frame(2, f).unwrap();
        }
        assert_eq!(acc.shard_frames_captured(2), frames.len() as u64);
        assert_eq!(acc.saturation_events(), mono.saturation_events());
        assert_eq!(acc.drain_merged(), mono.drain());
    }

    #[test]
    fn single_shard_is_cycle_identical_to_monolithic() {
        let (drift, mz) = (4, 9);
        let mut mono = AccumulatorCore::new(drift, mz, 32);
        let mut one = ShardedAccumulator::new(drift, mz, 32, 1);
        let f = frame(drift, mz, 3);
        mono.capture_frame(&f).unwrap();
        one.capture_frame(&f).unwrap();
        assert_eq!(one.cycles(), mono.cycles());
        assert_eq!(one.drain_merged(), mono.drain());
    }

    #[test]
    fn from_core_preserves_accumulated_state() {
        let mut core = AccumulatorCore::new(2, 3, 16);
        core.capture_frame(&[1, 2, 3, 4, 5, 6]).unwrap();
        let cycles = core.cycles();
        let mut acc = ShardedAccumulator::from_core(core);
        assert_eq!(acc.shard_count(), 1);
        assert_eq!(acc.cycles(), cycles);
        assert_eq!(acc.drain_merged(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn shape_mismatch_rejected_before_any_shard_mutates() {
        let mut acc = ShardedAccumulator::new(2, 4, 16, 2);
        let err = acc.capture_frame(&[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            CaptureError::FrameShape {
                expected: 8,
                got: 3
            }
        );
        assert!(acc.drain_merged().iter().all(|&v| v == 0));
    }
}
