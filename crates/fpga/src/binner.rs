//! On-chip m/z binning: the stage that makes capture fit the FPGA.
//!
//! Experiment E4 shows the accumulation RAM for full-TOF-resolution frames
//! (511 × 2000 × 32 b, double-buffered) is an order of magnitude beyond the
//! XD1 FPGA's block RAM. The design answer is a streaming binning stage in
//! front of the accumulator: a fine→coarse index ROM folds each incoming
//! ADC word into a coarse m/z bin on the fly (II = 1), shrinking the
//! accumulation RAM by the binning factor at the cost of m/z resolution on
//! chip (the host retains full resolution only for the drift dimension it
//! actually needs in real time).
//!
//! The binning is uniform, so each coarse bin is one contiguous run of
//! fine bins in its drift row. The model sums each run at once instead of
//! looking every word up in the ROM: for non-negative words, a `u64` sum
//! clamped to `u32::MAX` equals the chip's chain of saturating adds.

use crate::bram::{BramBudget, MemoryRequirement};
use crate::dma::payload_words;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Streaming fine→coarse m/z binning core.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MzBinner {
    fine_bins: usize,
    coarse_bins: usize,
    cycles: u64,
}

impl MzBinner {
    /// Uniform binning: `fine_bins` collapsed into `coarse_bins` contiguous
    /// groups of `fine_bins / coarse_bins` (the last group absorbs any
    /// remainder).
    ///
    /// # Panics
    /// Panics unless `1 ≤ coarse_bins ≤ fine_bins`.
    pub fn uniform(fine_bins: usize, coarse_bins: usize) -> Self {
        assert!(coarse_bins >= 1 && coarse_bins <= fine_bins, "bad binning");
        Self {
            fine_bins,
            coarse_bins,
            cycles: 0,
        }
    }

    /// Fine (input) m/z bins.
    pub fn fine_bins(&self) -> usize {
        self.fine_bins
    }

    /// Coarse (output) m/z bins.
    pub fn coarse_bins(&self) -> usize {
        self.coarse_bins
    }

    /// Clock cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Bins one full drift-major frame: `drift × fine` ADC words in,
    /// `drift × coarse` words out (saturating u32 accumulation per line).
    pub fn bin_frame(&mut self, frame: &[u32], drift_bins: usize) -> Vec<u32> {
        let mut out = Vec::new();
        self.bin_rows(frame.len(), drift_bins, &mut out, |r| {
            frame[r].iter().copied()
        });
        out
    }

    /// [`bin_frame`](Self::bin_frame) straight from a packet's
    /// little-endian payload bytes into a caller-owned buffer (cleared and
    /// refilled), so the per-frame hot loop neither decodes the fine frame
    /// into a copy nor allocates the coarse one.
    pub fn bin_payload_into(&mut self, payload: &[u8], drift_bins: usize, out: &mut Vec<u32>) {
        let words = payload_words(payload).expect("frame shape mismatch");
        self.bin_rows(words.len(), drift_bins, out, |r| {
            words[r].iter().map(|&w| u32::from_le_bytes(w))
        });
    }

    /// The one fold: `words(range)` reads fine words `range` of the
    /// drift-major frame, one coarse group at a time.
    fn bin_rows<I>(
        &mut self,
        n_words: usize,
        drift_bins: usize,
        out: &mut Vec<u32>,
        words: impl Fn(Range<usize>) -> I,
    ) where
        I: Iterator<Item = u32>,
    {
        let (fine, coarse) = (self.fine_bins, self.coarse_bins);
        assert_eq!(n_words, drift_bins * fine, "frame shape mismatch");
        let per = fine / coarse;
        out.clear();
        out.reserve(drift_bins * coarse);
        for row in (0..n_words).step_by(fine) {
            let end = row + fine;
            for g in 0..coarse {
                let lo = row + g * per;
                // The last group absorbs the remainder.
                let hi = if g + 1 == coarse { end } else { lo + per };
                let sum: u64 = words(lo..hi).map(u64::from).sum();
                out.push(sum.min(u64::from(u32::MAX)) as u32);
            }
        }
        self.cycles += n_words as u64;
    }

    /// BRAM budget: the index ROM plus a double-buffered coarse line buffer.
    pub fn bram_budget(&self) -> BramBudget {
        let mut b = BramBudget::new();
        let idx_bits = (usize::BITS - (self.coarse_bins - 1).leading_zeros()).max(1) as u64;
        b.add(
            MemoryRequirement {
                depth: self.fine_bins as u64,
                width_bits: idx_bits,
                label: "binning index ROM",
            },
            1,
        );
        b.add(
            MemoryRequirement {
                depth: self.coarse_bins as u64,
                width_bits: 32,
                label: "coarse line buffer",
            },
            2,
        );
        b
    }

    /// Cycles to bin one frame (one fine word per clock).
    pub fn cycles_per_frame(&self, drift_bins: usize) -> u64 {
        (drift_bins * self.fine_bins) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_binning_sums_groups() {
        let mut binner = MzBinner::uniform(12, 3);
        let frame: Vec<u32> = (0..24).collect(); // 2 drift rows × 12 fine
        let out = binner.bin_frame(&frame, 2);
        assert_eq!(out.len(), 6);
        // Row 0: groups [0..4), [4..8), [8..12).
        assert_eq!(out[0], 1 + 2 + 3);
        assert_eq!(out[1], 4 + 5 + 6 + 7);
        assert_eq!(out[2], 8 + 9 + 10 + 11);
        // Row 1.
        assert_eq!(out[3], 12 + 13 + 14 + 15);
        assert_eq!(out[5], 20 + 21 + 22 + 23);
    }

    #[test]
    fn counts_are_conserved() {
        let mut binner = MzBinner::uniform(100, 7);
        let frame: Vec<u32> = (0..300).map(|i| (i * 13 % 97) as u32).collect();
        let total_in: u64 = frame.iter().map(|&v| v as u64).sum();
        let out = binner.bin_frame(&frame, 3);
        let total_out: u64 = out.iter().map(|&v| v as u64).sum();
        assert_eq!(total_in, total_out);
    }

    #[test]
    fn remainder_fine_bins_fold_into_last_group() {
        // Groups of 10 / 3 = 3, remainder 1. One bit per fine bin, so each
        // coarse sum shows which bins it took.
        let mut binner = MzBinner::uniform(10, 3);
        let frame: Vec<u32> = (0..10).map(|f| 1 << f).collect();
        let group = |fine: std::ops::Range<u32>| fine.map(|f| 1u32 << f).sum::<u32>();
        // The last group absorbs the remainder bin 9.
        assert_eq!(
            binner.bin_frame(&frame, 1),
            [group(0..3), group(3..6), group(6..10)]
        );
    }

    #[test]
    fn matches_software_rebin() {
        let mut binner = MzBinner::uniform(20, 4);
        let frame: Vec<u32> = (0..20).map(|i| i as u32 + 1).collect();
        let out = binner.bin_frame(&frame, 1);
        let soft = ims_signal::resample::rebin_sum(
            &frame.iter().map(|&v| v as f64).collect::<Vec<_>>(),
            5,
        );
        for (a, &b) in out
            .iter()
            .zip(soft.iter().map(|v| *v as u32).collect::<Vec<_>>().iter())
        {
            assert_eq!(*a, b);
        }
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut binner = MzBinner::uniform(2, 1);
        let out = binner.bin_frame(&[u32::MAX, 5], 1);
        assert_eq!(out[0], u32::MAX);
    }

    #[test]
    fn budget_is_tiny() {
        let binner = MzBinner::uniform(2000, 100);
        // ROM 2000×7b + 2×100×32b ≈ a couple of tiles.
        assert!(binner.bram_budget().total_tiles() <= 3);
    }

    #[test]
    fn cycle_accounting() {
        let mut binner = MzBinner::uniform(10, 2);
        let _ = binner.bin_frame(&[1; 30], 3);
        assert_eq!(binner.cycles(), 30);
        assert_eq!(binner.cycles_per_frame(3), 30);
    }

    #[test]
    #[should_panic(expected = "bad binning")]
    fn rejects_upsampling() {
        let _ = MzBinner::uniform(10, 20);
    }
}
