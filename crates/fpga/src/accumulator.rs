//! Data capture and accumulation engine.
//!
//! The first half of the paper's FPGA design: ADC words stream in (one word
//! per clock, initiation interval 1) and are folded into a
//! drift-bin × m/z-bin accumulation RAM with saturating adds. Accumulating
//! `k` PRS cycles on chip divides the host-link bandwidth requirement by
//! `k` — the architectural reason capture and accumulation live on the FPGA
//! at all.

use crate::bram::{BramBudget, MemoryRequirement};
use serde::{Deserialize, Serialize};

/// Errors from the capture engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaptureError {
    /// Frame length does not match `drift_bins × mz_bins`.
    FrameShape {
        /// Expected word count.
        expected: usize,
        /// Received word count.
        got: usize,
    },
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::FrameShape { expected, got } => {
                write!(
                    f,
                    "frame shape mismatch: expected {expected} words, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for CaptureError {}

/// Adds `words` into `cells` with the chip's per-cell saturating add
/// (ceiling `ceil`) and returns how many adds saturated. The one add loop
/// of both accumulation engines; branch-free, so it vectorizes.
#[inline]
pub(crate) fn fold_saturating(
    cells: &mut [u64],
    words: impl Iterator<Item = u32>,
    ceil: u64,
) -> u64 {
    let mut saturated = 0;
    for (cell, word) in cells.iter_mut().zip(words) {
        let sum = *cell + u64::from(word);
        saturated += u64::from(sum > ceil);
        *cell = sum.min(ceil);
    }
    saturated
}

/// Streaming accumulator over full IMS frames.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccumulatorCore {
    drift_bins: usize,
    mz_bins: usize,
    acc_bits: u32,
    acc: Vec<u64>,
    frames_captured: u64,
    cycles: u64,
    saturation_events: u64,
}

impl AccumulatorCore {
    /// Creates an accumulator with `acc_bits`-wide cells (≤ 48).
    pub fn new(drift_bins: usize, mz_bins: usize, acc_bits: u32) -> Self {
        assert!(drift_bins > 0 && mz_bins > 0, "empty accumulator");
        assert!((8..=48).contains(&acc_bits), "accumulator width 8..=48");
        Self {
            drift_bins,
            mz_bins,
            acc_bits,
            acc: vec![0; drift_bins * mz_bins],
            frames_captured: 0,
            cycles: 0,
            saturation_events: 0,
        }
    }

    /// Number of drift bins.
    pub fn drift_bins(&self) -> usize {
        self.drift_bins
    }

    /// Number of m/z bins.
    pub fn mz_bins(&self) -> usize {
        self.mz_bins
    }

    /// Cell width in bits (the `acc_bits` this core was built with).
    pub fn acc_bits(&self) -> u32 {
        self.acc_bits
    }

    /// Saturation ceiling of one cell.
    pub fn cell_max(&self) -> u64 {
        (1u64 << self.acc_bits) - 1
    }

    /// Captures one full IMS frame (drift-major ADC words).
    ///
    /// Consumes one clock per word (II = 1) plus a fixed 4-cycle frame
    /// header overhead.
    pub fn capture_frame(&mut self, frame: &[u32]) -> Result<(), CaptureError> {
        let expected = self.drift_bins * self.mz_bins;
        if frame.len() != expected {
            return Err(CaptureError::FrameShape {
                expected,
                got: frame.len(),
            });
        }
        let _sp = ims_obs::span_cat("accumulator", "frame");
        let ceil = self.cell_max();
        let saturated = fold_saturating(&mut self.acc, frame.iter().copied(), ceil);
        self.saturation_events += saturated;
        self.frames_captured += 1;
        self.cycles += expected as u64 + 4;
        // One metrics update per frame (not per cell) keeps the add loop
        // clean for the auto-vectorizer.
        ims_obs::static_counter!("accumulator.frames").incr();
        ims_obs::static_counter!("accumulator.saturation_events").add(saturated);
        Ok(())
    }

    /// Fraction of accumulation cells currently non-zero, in `[0, 1]` —
    /// the quantity the accumulate stage compares against
    /// [`crate::sparse::SPARSE_OCCUPANCY_THRESHOLD`] at drain time.
    pub fn occupancy(&self) -> f64 {
        let nnz = self.acc.iter().filter(|&&v| v != 0).count();
        nnz as f64 / self.acc.len() as f64
    }

    /// Frames accumulated since the last reset.
    pub fn frames_captured(&self) -> u64 {
        self.frames_captured
    }

    /// Clock cycles consumed since the last reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of saturating adds observed (data-quality flag).
    pub fn saturation_events(&self) -> u64 {
        self.saturation_events
    }

    /// The accumulated matrix (drift-major).
    pub fn contents(&self) -> &[u64] {
        &self.acc
    }

    /// Drains the accumulation RAM: returns the matrix and clears state for
    /// the next block (the FPGA's double-buffered readout).
    ///
    /// Counter semantics — pinned, because sharded merge accounting relies
    /// on them (see [`crate::sharded::ShardedAccumulator`]):
    ///
    /// * `frames_captured` and `saturation_events` are **per-block**
    ///   counters: drain resets both to zero, so each block's report reads
    ///   only its own frames and saturating adds.
    /// * `cycles` is a **lifetime** counter: it keeps running across
    ///   drains, modelling a clock that never rewinds. A shard killed and
    ///   drained mid-block therefore keeps its cycle history, and a
    ///   rebuild only *adds* cycles — capture work is never un-counted.
    pub fn drain(&mut self) -> Vec<u64> {
        let out = std::mem::replace(&mut self.acc, vec![0; self.drift_bins * self.mz_bins]);
        self.frames_captured = 0;
        self.saturation_events = 0;
        out
    }

    /// BRAM budget of the accumulation RAM (double-buffered).
    pub fn bram_budget(&self) -> BramBudget {
        let mut b = BramBudget::new();
        b.add(
            MemoryRequirement {
                depth: (self.drift_bins * self.mz_bins) as u64,
                width_bits: self.acc_bits as u64,
                label: "accumulation RAM",
            },
            2, // ping-pong buffers
        );
        b
    }

    /// Cycles needed to capture one frame.
    pub fn cycles_per_frame(&self) -> u64 {
        (self.drift_bins * self.mz_bins) as u64 + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_frames_elementwise() {
        let mut acc = AccumulatorCore::new(2, 3, 32);
        acc.capture_frame(&[1, 2, 3, 4, 5, 6]).unwrap();
        acc.capture_frame(&[10, 20, 30, 40, 50, 60]).unwrap();
        assert_eq!(acc.contents(), &[11, 22, 33, 44, 55, 66]);
        assert_eq!(acc.frames_captured(), 2);
    }

    #[test]
    fn cycle_accounting() {
        let mut acc = AccumulatorCore::new(4, 8, 24);
        acc.capture_frame(&[0; 32]).unwrap();
        assert_eq!(acc.cycles(), 36);
        assert_eq!(acc.cycles_per_frame(), 36);
    }

    #[test]
    fn saturation_clamps_and_counts() {
        let mut acc = AccumulatorCore::new(1, 1, 8);
        for _ in 0..2 {
            acc.capture_frame(&[200]).unwrap();
        }
        assert_eq!(acc.contents(), &[255]);
        assert_eq!(acc.saturation_events(), 1);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut acc = AccumulatorCore::new(2, 2, 16);
        let err = acc.capture_frame(&[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            CaptureError::FrameShape {
                expected: 4,
                got: 3
            }
        );
        assert_eq!(acc.frames_captured(), 0);
    }

    #[test]
    fn drain_resets_for_next_block() {
        let mut acc = AccumulatorCore::new(1, 2, 16);
        acc.capture_frame(&[7, 9]).unwrap();
        let block = acc.drain();
        assert_eq!(block, vec![7, 9]);
        assert_eq!(acc.contents(), &[0, 0]);
        assert_eq!(acc.frames_captured(), 0);
        // Cycle counter keeps running across blocks.
        assert!(acc.cycles() > 0);
    }

    #[test]
    fn drain_counter_semantics_are_pinned() {
        // Regression pin for the documented drain contract: per-block
        // counters (frames_captured, saturation_events) reset; the
        // lifetime cycle counter keeps running. Sharded merge accounting
        // (kill → drain → rebuild) depends on exactly this split.
        let mut acc = AccumulatorCore::new(1, 1, 8);
        acc.capture_frame(&[200]).unwrap();
        acc.capture_frame(&[200]).unwrap();
        assert_eq!(acc.frames_captured(), 2);
        assert_eq!(acc.saturation_events(), 1);
        let cycles_before = acc.cycles();
        assert_eq!(cycles_before, 2 * (1 + 4));
        let _ = acc.drain();
        assert_eq!(acc.frames_captured(), 0, "frames reset per block");
        assert_eq!(acc.saturation_events(), 0, "saturation resets per block");
        assert_eq!(acc.cycles(), cycles_before, "cycles survive the drain");
        // And the next block accumulates cycles on top.
        acc.capture_frame(&[1]).unwrap();
        assert_eq!(acc.cycles(), cycles_before + 5);
    }

    #[test]
    fn bram_budget_scales_with_shape() {
        let small = AccumulatorCore::new(511, 100, 32).bram_budget();
        let large = AccumulatorCore::new(511, 1000, 32).bram_budget();
        assert!(large.total_tiles() > 5 * small.total_tiles());
        // 511×1000×32 bits ×2 ≈ 32.7 Mb → far beyond one chip's ~4 Mb: the
        // capture engine must bin m/z on chip, which the report surfaces.
        assert!(large.total_bits() > 30_000_000);
    }

    #[test]
    #[should_panic(expected = "accumulator width")]
    fn width_validated() {
        let _ = AccumulatorCore::new(2, 2, 64);
    }
}
