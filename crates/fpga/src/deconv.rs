//! The FPGA deconvolution core.
//!
//! Implements the fast m-sequence (Hadamard) inverse on the integer
//! datapath: scatter through the LFSR-state address ROM, an in-place
//! integer Walsh–Hadamard butterfly, gather through the mask address ROM,
//! and a final fixed-point scale by `−2/(N+1)`: a shift, since an
//! m-sequence has `N + 1 = 2^k`, and exact whenever `f + 1 ≥ k` for `f`
//! output fractional bits. All arithmetic is exact integer, so results are
//! bit-deterministic — the property that lets the hybrid pipeline verify
//! the FPGA component against the software component exactly.

use crate::bram::{BramBudget, MemoryRequirement};
use ims_prs::{FastMTransform, MSequence};
use ims_signal::panel::{rows_mut, Columns, PanelWalker};
use ims_signal::FIXED_POINT_PANEL_WIDTH;
use serde::{Deserialize, Serialize};

/// Which forward model the data came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Convention {
    /// `y[i] = Σ_j a[i+j]·x[j]` (simplex/correlation indexing).
    Correlation,
    /// `y[i] = Σ_j a[i−j]·x[j]` (physical convolution — gate fires at
    /// `i − j`, ion arrives at `i`). This is what the instrument produces.
    Convolution,
}

/// Parallelism/precision configuration of the core.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DeconvConfig {
    /// Column engines running concurrently (one m/z column each).
    pub parallel_columns: usize,
    /// Butterfly ALUs per column engine.
    pub butterflies_per_column: usize,
    /// Fractional bits of the fixed-point output.
    pub output_frac_bits: u32,
    /// Forward-model convention of the incoming data.
    pub convention: Convention,
}

impl Default for DeconvConfig {
    fn default() -> Self {
        Self {
            parallel_columns: 4,
            butterflies_per_column: 4,
            output_frac_bits: 16,
            convention: Convention::Convolution,
        }
    }
}

/// The deconvolution engine for one fixed gate sequence.
#[derive(Debug, Clone)]
pub struct DeconvCore {
    transform: FastMTransform,
    config: DeconvConfig,
    /// The output scaler's shift `f + 1 − k`.
    scale_shift: i32,
}

impl DeconvCore {
    /// Builds the core (burns the address ROMs) for an m-sequence.
    pub fn new(seq: &MSequence, config: DeconvConfig) -> Self {
        assert!(config.parallel_columns >= 1);
        assert!(config.butterflies_per_column >= 1);
        assert!((4..=30).contains(&config.output_frac_bits));
        let transform = FastMTransform::new(seq);
        let m = transform.buffer_len();
        assert!(m.is_power_of_two(), "N + 1 = {m} is not a power of two");
        Self {
            scale_shift: config.output_frac_bits as i32 + 1 - m.trailing_zeros() as i32,
            transform,
            config,
        }
    }

    /// Sequence length `N`.
    pub fn len(&self) -> usize {
        self.transform.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The configuration.
    pub fn config(&self) -> &DeconvConfig {
        &self.config
    }

    /// Deconvolves one m/z column of accumulated counts; returns raw
    /// fixed-point words with `output_frac_bits` fractional bits.
    ///
    /// Exact integer pipeline:
    /// 1. scatter `y[k] → buf[states[k]]` (address ROM);
    /// 2. integer FWHT over `M = N+1` entries (adds/subs only, bit growth
    ///    `log2 M`);
    /// 3. gather `c[j] = buf[masks[σ(j)]]` (address ROM);
    /// 4. scale: `x̂ = −2·c/(N+1)`, a shift since `N + 1 = 2^k`.
    pub fn deconvolve_column(&self, y: &[u64]) -> Vec<i64> {
        let n = self.len();
        assert_eq!(y.len(), n, "column length mismatch");
        let m = n + 1;
        // Scatter.
        let mut buf = vec![0i64; m];
        for (k, &addr) in self.transform.scatter_addresses().iter().enumerate() {
            buf[addr as usize] = y[k] as i64;
        }
        // Integer FWHT.
        let mut h = 1usize;
        while h < m {
            for block in (0..m).step_by(h * 2) {
                for i in block..block + h {
                    let (a, b) = (buf[i], buf[i + h]);
                    buf[i] = a + b;
                    buf[i + h] = a - b;
                }
            }
            h *= 2;
        }
        // Gather, then scale into the working RAM, now the output.
        let table = self.gather_table();
        let c: Vec<i64> = table.iter().map(|&a| buf[a as usize]).collect();
        buf.truncate(n);
        scale_row(self.scale_shift, &c, &mut buf);
        buf
    }

    /// The gather ROM of the configured convention: `σ` is the identity
    /// for correlation data, the reversal `(N − j) mod N` for convolution.
    fn gather_table(&self) -> &[u32] {
        match self.config.convention {
            Convention::Correlation => self.transform.gather_addresses(),
            Convention::Convolution => self.transform.convolution_gather_addresses(),
        }
    }

    /// Deconvolves a panel of `width` adjacent m/z columns at once.
    ///
    /// `panel` holds `N × width` accumulated counts in row-major order
    /// (`panel[d * width + c]`); the result lands in `out` with the same
    /// shape. `work` is the reusable FWHT working RAM (grows to
    /// `(N+1) × width` and is then reused allocation-free). The datapath is
    /// the exact integer pipeline of
    /// [`DeconvCore::deconvolve_column`] run as contiguous row sweeps, so
    /// each column's output is identical to the scalar call — integer
    /// arithmetic leaves no room for reassociation drift.
    ///
    /// # Panics
    /// Panics if `width` is zero or the panel/out shapes mismatch.
    pub fn deconvolve_panel_into(
        &self,
        panel: &[u64],
        width: usize,
        out: &mut [i64],
        work: &mut Vec<i64>,
    ) {
        let n = self.len();
        assert!(width > 0, "panel width must be positive");
        assert_eq!(panel.len(), n * width, "panel shape mismatch");
        assert_eq!(out.len(), n * width, "output shape mismatch");
        let m = n + 1;
        work.resize(m * width, 0);
        // Scatter: the address ROM is a permutation of 1..=N, so only RAM
        // row 0 needs explicit zeroing.
        work[..width].fill(0);
        for (k, &addr) in self.transform.scatter_addresses().iter().enumerate() {
            let a = addr as usize;
            for (w, &y) in work[a * width..(a + 1) * width]
                .iter_mut()
                .zip(panel[k * width..(k + 1) * width].iter())
            {
                *w = y as i64;
            }
        }
        // Integer FWHT, row-pair sweeps on the selected SIMD backend
        // (i64 add/sub is exact on every backend).
        let be = ims_signal::simd::active();
        let mut h = 1usize;
        while h < m {
            for block in (0..m).step_by(h * 2) {
                for i in block..block + h {
                    let (head, tail) = work.split_at_mut((i + h) * width);
                    let top = &mut head[i * width..(i + 1) * width];
                    let bottom = &mut tail[..width];
                    ims_signal::simd::butterfly_i64(be, top, bottom);
                }
            }
            h *= 2;
        }
        // Gather + scale, row by row.
        for (row, &src) in out.chunks_exact_mut(width).zip(self.gather_table()) {
            let src = src as usize * width;
            scale_row(self.scale_shift, &work[src..src + width], row);
        }
    }

    /// The scalar-column schedule of a whole drift-major block: each
    /// column walked on its own through [`DeconvCore::deconvolve_column`]
    /// (fresh buffers per column). Bit-identical to
    /// [`DeconvCore::deconvolve_block`], and the baseline the panel
    /// datapath is measured against.
    pub fn deconvolve_columnwise(&self, data: &[u64], mz_bins: usize) -> Vec<i64> {
        assert_eq!(data.len(), self.len() * mz_bins, "block shape mismatch");
        let mut out = vec![0i64; data.len()];
        PanelWalker::default().walk(
            data,
            &mut rows_mut(&mut out, mz_bins),
            Columns::Range(0..mz_bins),
            1,
            |column, solved, _| {
                *solved = self.deconvolve_column(column);
                solved
            },
        );
        out
    }

    /// The fixed-point column walk every panel-batched path runs:
    /// deconvolves the columns `cols` of the drift-major block `data` into
    /// `rows` (a whole block's rows, or the same column range of each; see
    /// [`PanelWalker::walk`]) in panels of `width` columns through
    /// [`DeconvCore::deconvolve_panel_into`].
    ///
    /// Each panel is one `software-fwht` trace span and one sample of the
    /// `deconv.panel_ns.software-fwht` histogram: the CPU cost of the
    /// kernel, whichever backend the block is priced as. Cycles are not
    /// counted here: whoever prices a block passes the columns it solved
    /// to [`DeconvCore::cycles_per_block`].
    pub fn deconvolve_columns(
        &self,
        data: &[u64],
        rows: &mut [&mut [i64]],
        cols: Columns<'_>,
        width: usize,
    ) {
        let hist = ims_obs::static_histogram!("deconv.panel_ns.software-fwht");
        let mut work = Vec::new();
        PanelWalker::default().walk(data, rows, cols, width, |panel, solved, w| {
            let _span = ims_obs::span_cat("software-fwht", "panel");
            let start = std::time::Instant::now();
            solved.resize(panel.len(), 0);
            self.deconvolve_panel_into(panel, w, solved, &mut work);
            hist.record_duration(start.elapsed());
            solved
        });
    }

    /// Deconvolves a whole drift-major block (`mz_bins` columns) on the
    /// calling thread: [`DeconvCore::deconvolve_columns`] over every column
    /// in panels of [`FIXED_POINT_PANEL_WIDTH`].
    pub fn deconvolve_block(&self, data: &[u64], mz_bins: usize) -> Vec<i64> {
        assert_eq!(data.len(), self.len() * mz_bins, "block shape mismatch");
        let mut out = vec![0i64; data.len()];
        self.deconvolve_columns(
            data,
            &mut rows_mut(&mut out, mz_bins),
            Columns::Range(0..mz_bins),
            FIXED_POINT_PANEL_WIDTH,
        );
        out
    }

    /// Converts raw fixed-point output words to `f64`.
    pub fn to_f64(&self, raw: &[i64]) -> Vec<f64> {
        let ulp = (2.0f64).powi(-(self.config.output_frac_bits as i32));
        raw.iter().map(|&r| r as f64 * ulp).collect()
    }

    /// Clock cycles for one column: scatter `N` + butterfly stages
    /// `(M/2)·log₂M / butterflies` + gather-and-scale `N`.
    pub fn cycles_per_column(&self) -> u64 {
        let n = self.len() as u64;
        let m = n + 1;
        let stages = (m as f64).log2() as u64;
        let butterfly_cycles = (m / 2) * stages / self.config.butterflies_per_column as u64;
        n + butterfly_cycles.max(1) + n
    }

    /// Clock cycles for `mz_bins` columns with `parallel_columns` engines:
    /// a dense block's full width, or a sparse block's occupied columns
    /// plus the one zero column whose response fills the rest (a
    /// zero-suppressing column dispatcher never feeds empty columns to the
    /// engines).
    pub fn cycles_per_block(&self, mz_bins: usize) -> u64 {
        let groups = mz_bins.div_ceil(self.config.parallel_columns) as u64;
        groups * self.cycles_per_column()
    }

    /// BRAM budget: per column engine a double-buffered `M`-word working
    /// RAM (accumulator width + log₂M growth bits + sign), plus the two
    /// shared address ROMs.
    pub fn bram_budget(&self, acc_bits: u32) -> BramBudget {
        let n = self.len() as u64;
        let m = n + 1;
        let degree = (usize::BITS - self.len().leading_zeros()) as u64; // log2(M)
        let work_bits = acc_bits as u64 + degree + 1;
        let mut b = BramBudget::new();
        b.add(
            MemoryRequirement {
                depth: m,
                width_bits: work_bits,
                label: "FWHT working RAM",
            },
            2 * self.config.parallel_columns as u64,
        );
        b.add(
            MemoryRequirement {
                depth: n,
                width_bits: degree,
                label: "scatter address ROM",
            },
            1,
        );
        b.add(
            MemoryRequirement {
                depth: n,
                width_bits: degree,
                label: "gather address ROM",
            },
            1,
        );
        b
    }

    /// DSP multipliers: one output scaler per column engine.
    pub fn dsp_count(&self) -> u64 {
        self.config.parallel_columns as u64
    }
}

/// The output scaler over one row of gathered FWHT words `c`: `x̂ =
/// −2·c/(N+1)` at `f` fractional bits, which for `N + 1 = 2^k` is a shift
/// by `shift = f + 1 − k`. A non-negative shift is exact, `−c·2^shift`
/// wrapped to 64 bits; a negative one rounds half away from zero. The sign
/// is tested once per row so the exact loop vectorizes.
fn scale_row(shift: i32, c: &[i64], out: &mut [i64]) {
    if let Ok(s) = u32::try_from(shift) {
        for (o, &c) in out.iter_mut().zip(c) {
            *o = c.wrapping_neg() << s;
        }
    } else {
        let r = shift.unsigned_abs();
        let half = 1i128 << (r - 1);
        for (o, &c) in out.iter_mut().zip(c) {
            let v = -i128::from(c);
            let mag = (v.abs() + half) >> r;
            *o = (if v < 0 { -mag } else { mag }) as i64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Fx;
    use ims_signal::correlate::circular_convolve_direct;

    fn counts(n: usize) -> Vec<u64> {
        (0..n).map(|k| ((k * 13 + 5) % 97) as u64).collect()
    }

    /// The scaler's oracle: the `i128` multiply–divide by `N + 1 = 2^k`
    /// the core evaluated per word before the scale became a shift.
    fn scale_by_division(c: i64, f: u32, k: u32) -> i64 {
        let wide = -(2i128 << f) * c as i128;
        let denom = 1i128 << k;
        let half = denom / 2;
        let rounded = if wide >= 0 {
            (wide + half) / denom
        } else {
            (wide - half) / denom
        };
        rounded as i64
    }

    #[test]
    fn scaler_matches_the_i128_division_at_every_shift() {
        for k in 2u32..=20 {
            for f in 4u32..=30 {
                let shift = f as i32 + 1 - k as i32;
                // A rounding shift `r = k − f − 1` ties at `±2^(r−1)`; the
                // exact shifts wrap at the ends of the range.
                let r = shift.unsigned_abs().max(1);
                let tie = 1i64 << (r - 1);
                let mut words = vec![0, i64::MIN, i64::MAX, i64::MIN + 1];
                for w in [1, 2, tie - 1, tie, tie + 1, 3 * tie, 1 << 40, (1 << 62) + 1] {
                    words.extend([w, -w]);
                }
                let mut out = vec![0; words.len()];
                scale_row(shift, &words, &mut out);
                for (&c, &got) in words.iter().zip(&out) {
                    assert_eq!(got, scale_by_division(c, f, k), "k {k} f {f} word {c}");
                }
            }
        }
    }

    #[test]
    fn integer_path_matches_float_path() {
        for degree in [4u32, 6, 8, 9] {
            let seq = MSequence::new(degree);
            let core = DeconvCore::new(
                &seq,
                DeconvConfig {
                    convention: Convention::Correlation,
                    ..Default::default()
                },
            );
            let t = FastMTransform::new(&seq);
            let y = counts(seq.len());
            let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
            let float = t.deconvolve(&yf);
            let fixed = core.to_f64(&core.deconvolve_column(&y));
            let ulp = (2.0f64).powi(-16);
            for (j, (a, b)) in float.iter().zip(fixed.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= ulp,
                    "degree {degree} bin {j}: float {a} vs fixed {b}"
                );
            }
        }
    }

    #[test]
    fn convolution_convention_round_trips_planted_signal() {
        let seq = MSequence::new(7);
        let n = seq.len();
        let mut x = vec![0.0; n];
        x[10] = 50.0;
        x[90] = 120.0;
        let y_f = circular_convolve_direct(&seq.as_f64(), &x);
        let y: Vec<u64> = y_f.iter().map(|&v| v.round() as u64).collect();
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let got = core.to_f64(&core.deconvolve_column(&y));
        for (j, (a, b)) in x.iter().zip(got.iter()).enumerate() {
            assert!((a - b).abs() < 1e-3, "bin {j}: {a} vs {b}");
        }
    }

    #[test]
    fn results_are_bit_deterministic() {
        let seq = MSequence::new(8);
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let y = counts(seq.len());
        let a = core.deconvolve_column(&y);
        let b = core.deconvolve_column(&y);
        assert_eq!(a, b);
    }

    #[test]
    fn block_processing_matches_columnwise() {
        let seq = MSequence::new(5);
        let n = seq.len();
        let mz_bins = 7;
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let mut data = vec![0u64; n * mz_bins];
        for (i, v) in data.iter_mut().enumerate() {
            *v = ((i * 31) % 250) as u64;
        }
        let block = core.deconvolve_block(&data, mz_bins);
        assert_eq!(core.deconvolve_columnwise(&data, mz_bins), block);
        for mz in 0..mz_bins {
            let col: Vec<u64> = (0..n).map(|d| data[d * mz_bins + mz]).collect();
            let expect = core.deconvolve_column(&col);
            for d in 0..n {
                assert_eq!(block[d * mz_bins + mz], expect[d]);
            }
        }
    }

    #[test]
    fn panel_path_matches_columnwise_exactly() {
        for convention in [Convention::Correlation, Convention::Convolution] {
            let seq = MSequence::new(6);
            let n = seq.len();
            let core = DeconvCore::new(
                &seq,
                DeconvConfig {
                    convention,
                    ..Default::default()
                },
            );
            for width in [1usize, 5, 32] {
                let panel: Vec<u64> = (0..n * width).map(|i| ((i * 7 + 3) % 211) as u64).collect();
                let mut out = vec![0i64; n * width];
                let mut work = Vec::new();
                core.deconvolve_panel_into(&panel, width, &mut out, &mut work);
                for c in 0..width {
                    let col: Vec<u64> = (0..n).map(|d| panel[d * width + c]).collect();
                    let expect = core.deconvolve_column(&col);
                    for d in 0..n {
                        assert_eq!(
                            out[d * width + c],
                            expect[d],
                            "{convention:?} width {width} at ({d},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_block_matches_dense_bitwise() {
        let seq = MSequence::new(6);
        let n = seq.len();
        let mz_bins = 50;
        // ~6% occupied: a few hot columns, one isolated cell.
        let mut data = vec![0u64; n * mz_bins];
        for d in 0..n {
            data[d * mz_bins + 7] = ((d * 13 + 5) % 97) as u64;
            data[d * mz_bins + 31] = ((d * 7 + 11) % 211) as u64;
        }
        data[20 * mz_bins + 44] = 3;
        let sparse =
            crate::SparseBlock::index_below(&data, n, mz_bins, crate::SPARSE_OCCUPANCY_THRESHOLD)
                .expect("~6% occupied is sparse");
        let cols = sparse.occupied_columns();
        assert_eq!(cols, [7, 31, 44]);
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let dense = core.deconvolve_block(&data, mz_bins);
        // A list walk over the occupied columns into a block pre-filled
        // with the zero column's response is the dense block, bit for bit.
        let zero = core.deconvolve_column(&vec![0; n]);
        let mut got: Vec<i64> = zero
            .iter()
            .flat_map(|&z| std::iter::repeat_n(z, mz_bins))
            .collect();
        core.deconvolve_columns(
            &data,
            &mut rows_mut(&mut got, mz_bins),
            Columns::List(cols),
            FIXED_POINT_PANEL_WIDTH,
        );
        assert_eq!(dense, got);
        // Priced at the occupied columns plus the zero column, the block
        // costs far fewer column groups.
        let sparse_cycles = core.cycles_per_block(cols.len() + 1);
        assert!(sparse_cycles < core.cycles_per_block(mz_bins) / 4);
    }

    #[test]
    fn cycle_model_scales_with_parallelism() {
        let seq = MSequence::new(9);
        let slow = DeconvCore::new(
            &seq,
            DeconvConfig {
                parallel_columns: 1,
                butterflies_per_column: 1,
                ..Default::default()
            },
        );
        let fast = DeconvCore::new(
            &seq,
            DeconvConfig {
                parallel_columns: 8,
                butterflies_per_column: 8,
                ..Default::default()
            },
        );
        let mz = 1000;
        assert!(slow.cycles_per_block(mz) > 6 * fast.cycles_per_block(mz));
    }

    #[test]
    fn bram_budget_includes_roms_and_work_ram() {
        let seq = MSequence::new(9);
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let b = core.bram_budget(32);
        let labels: Vec<&str> = b.breakdown().iter().map(|(l, _, _)| *l).collect();
        assert!(labels.contains(&"FWHT working RAM"));
        assert!(labels.contains(&"scatter address ROM"));
        assert!(b.total_tiles() > 0);
    }

    #[test]
    fn fixed_output_type_is_consistent() {
        // Round-trip through the Fx type used downstream.
        let seq = MSequence::new(4);
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let raw = core.deconvolve_column(&counts(seq.len()));
        for &r in &raw {
            let fx = Fx::<16>::from_raw(r);
            assert!((fx.to_f64() - r as f64 / 65536.0).abs() < 1e-12);
        }
    }
}
