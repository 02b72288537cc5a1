//! The naive (pre-enhancement) FPGA deconvolution core: a direct `O(N²)`
//! multiply–accumulate array.
//!
//! This is the baseline the paper's "more sophisticated deconvolution
//! algorithm based on a PNNL-developed enhancement" replaces. Because the
//! simplex inverse is ±-weighted correlation, a gate-bit ROM plus an
//! adder/subtractor per lane suffices — no multipliers — but every output
//! bin still costs `N` accumulations, so a block of `mz` columns needs
//! `N²·mz / lanes` cycles against the FWHT core's `N·log₂N`-ish count.
//! Experiment E11 quantifies the difference; both cores are bit-exact
//! equals (same integer arithmetic, same rounding), which the tests verify.

use crate::bram::{BramBudget, MemoryRequirement};
use crate::deconv::Convention;
use ims_prs::MSequence;
use serde::{Deserialize, Serialize};

/// Configuration of the MAC-array core.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NaiveConfig {
    /// Parallel accumulate lanes (output bins computed concurrently).
    pub lanes: usize,
    /// Fractional bits of the fixed-point output.
    pub output_frac_bits: u32,
    /// Forward-model convention of the incoming data.
    pub convention: Convention,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        Self {
            lanes: 16,
            output_frac_bits: 16,
            convention: Convention::Convolution,
        }
    }
}

/// Direct MAC-array deconvolution core.
#[derive(Debug, Clone)]
pub struct NaiveMacCore {
    bits: Vec<bool>,
    config: NaiveConfig,
}

impl NaiveMacCore {
    /// Builds the core for an m-sequence.
    pub fn new(seq: &MSequence, config: NaiveConfig) -> Self {
        assert!(config.lanes >= 1);
        assert!((4..=30).contains(&config.output_frac_bits));
        Self {
            bits: seq.bits().to_vec(),
            config,
        }
    }

    /// Sequence length `N`.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Deconvolves one column: `x̂[j] = 2·(2·Σᵢ a[σ(i,j)]·y[i] − Σᵢ y[i])
    /// / (N+1)`, exact integers with one output rounding — identical
    /// arithmetic (and therefore identical bits) to the FWHT core.
    pub fn deconvolve_column(&self, y: &[u64]) -> Vec<i64> {
        let n = self.len();
        assert_eq!(y.len(), n, "column length mismatch");
        let total: i128 = y.iter().map(|&v| v as i128).sum();
        let f = self.config.output_frac_bits;
        let denom = (n + 1) as i128;
        (0..n)
            .map(|j| {
                let mut corr: i128 = 0;
                for (i, &yv) in y.iter().enumerate() {
                    let bit = match self.config.convention {
                        Convention::Correlation => self.bits[(i + j) % n],
                        Convention::Convolution => self.bits[(i + n - j) % n],
                    };
                    if bit {
                        corr += yv as i128;
                    }
                }
                let wide = (2 * corr - total) << (f + 1);
                let half = denom / 2;
                let rounded = if wide >= 0 {
                    (wide + half) / denom
                } else {
                    (wide - half) / denom
                };
                rounded as i64
            })
            .collect()
    }

    /// Deconvolves a drift-major block, one column at a time (priced by
    /// [`NaiveMacCore::cycles_per_block`]).
    pub fn deconvolve_block(&self, data: &[u64], mz_bins: usize) -> Vec<i64> {
        let n = self.len();
        assert_eq!(data.len(), n * mz_bins, "block shape mismatch");
        let mut out = vec![0i64; n * mz_bins];
        let mut column = vec![0u64; n];
        for mz in 0..mz_bins {
            for d in 0..n {
                column[d] = data[d * mz_bins + mz];
            }
            let x = self.deconvolve_column(&column);
            for d in 0..n {
                out[d * mz_bins + mz] = x[d];
            }
        }
        out
    }

    /// Cycles per column: `N` accumulation sweeps of `N` samples shared by
    /// `lanes` accumulators, plus the output pass.
    pub fn cycles_per_column(&self) -> u64 {
        let n = self.len() as u64;
        n * n / self.config.lanes as u64 + n
    }

    /// Cycles for a block of `mz_bins` columns (columns are sequential —
    /// the lanes are spent on output bins, the better use at this shape).
    pub fn cycles_per_block(&self, mz_bins: usize) -> u64 {
        self.cycles_per_column() * mz_bins as u64
    }

    /// BRAM: sequence ROM and one column buffer (double-buffered).
    pub fn bram_budget(&self, acc_bits: u32) -> BramBudget {
        let n = self.len() as u64;
        let mut b = BramBudget::new();
        b.add(
            MemoryRequirement {
                depth: n,
                width_bits: 1,
                label: "sequence ROM",
            },
            1,
        );
        b.add(
            MemoryRequirement {
                depth: n,
                width_bits: acc_bits as u64,
                label: "column buffer",
            },
            2,
        );
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deconv::{DeconvConfig, DeconvCore};

    /// A column spanning the accumulator's range: single-digit, 16-bit and
    /// full 32-bit counts, up to `u32::MAX`.
    fn oracle_column(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|k| match k % 4 {
                0 => k % 7,
                1 => k * 131 % 65_536,
                2 => k * 2_654_435_761 % (1 << 32),
                _ => u64::from(u32::MAX) - k % 5,
            })
            .collect()
    }

    #[test]
    fn naive_equals_fwht_core_bit_for_bit() {
        // Output scales both exact (`f + 1 ≥ k`) and rounded (`f + 1 < k`,
        // e.g. f = 4 at degree 9), on both conventions; the FWHT core runs
        // its column path and its panel path, one column wide and at a
        // ragged width that leaves a tail on every SIMD backend.
        for degree in [2u32, 3, 5, 9, 12] {
            let seq = MSequence::new(degree);
            let n = seq.len();
            let y = oracle_column(n);
            for convention in [Convention::Correlation, Convention::Convolution] {
                for output_frac_bits in [4u32, 5, 8, 16, 30] {
                    let naive = NaiveMacCore::new(
                        &seq,
                        NaiveConfig {
                            convention,
                            output_frac_bits,
                            ..Default::default()
                        },
                    );
                    let fwht = DeconvCore::new(
                        &seq,
                        DeconvConfig {
                            convention,
                            output_frac_bits,
                            ..Default::default()
                        },
                    );
                    let case = format!("degree {degree} {convention:?} f {output_frac_bits}");
                    let want = naive.deconvolve_column(&y);
                    assert_eq!(fwht.deconvolve_column(&y), want, "{case} column");
                    for width in [1usize, 11] {
                        let panel: Vec<u64> = y
                            .iter()
                            .flat_map(|&v| std::iter::repeat_n(v, width))
                            .collect();
                        let mut out = vec![0i64; n * width];
                        fwht.deconvolve_panel_into(&panel, width, &mut out, &mut Vec::new());
                        for (d, row) in out.chunks_exact(width).enumerate() {
                            assert!(
                                row.iter().all(|&got| got == want[d]),
                                "{case} width {width} drift {d}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_matches_columnwise() {
        let seq = MSequence::new(5);
        let n = seq.len();
        let mz = 4;
        let core = NaiveMacCore::new(&seq, NaiveConfig::default());
        let data: Vec<u64> = (0..n * mz).map(|i| (i * 7 % 100) as u64).collect();
        let block = core.deconvolve_block(&data, mz);
        for m in 0..mz {
            let col: Vec<u64> = (0..n).map(|d| data[d * mz + m]).collect();
            let expect = core.deconvolve_column(&col);
            for d in 0..n {
                assert_eq!(block[d * mz + m], expect[d]);
            }
        }
    }

    #[test]
    fn quadratic_cycle_growth() {
        let mk = |degree: u32| {
            NaiveMacCore::new(&MSequence::new(degree), NaiveConfig::default()).cycles_per_column()
        };
        let c8 = mk(8);
        let c9 = mk(9);
        // Doubling N roughly quadruples the cycles.
        let ratio = c9 as f64 / c8 as f64;
        assert!(ratio > 3.5 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn enhancement_speedup_is_large_at_instrument_scale() {
        let seq = MSequence::new(9);
        let naive = NaiveMacCore::new(&seq, NaiveConfig::default());
        let fwht = DeconvCore::new(&seq, DeconvConfig::default());
        let speedup = naive.cycles_per_block(1000) as f64 / fwht.cycles_per_block(1000) as f64;
        assert!(speedup > 10.0, "speedup {speedup}");
    }

    #[test]
    fn bram_is_modest() {
        let seq = MSequence::new(9);
        let core = NaiveMacCore::new(&seq, NaiveConfig::default());
        assert!(core.bram_budget(32).total_tiles() <= 4);
    }
}
