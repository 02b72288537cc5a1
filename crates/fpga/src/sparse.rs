//! CSR-style sparse accumulated blocks.
//!
//! Real centroided TOF spectra are mostly empty: outside chromatographic
//! peaks the accumulation RAM holds long runs of zero cells, and a zero
//! m/z column deconvolves to a constant response that does not depend on
//! the data at all. This module gives the datapath a representation that
//! exploits both facts without giving up bit-exactness:
//!
//! * [`SparseBlock`] stores one accumulated drift × m/z block as
//!   per-drift-row runs of consecutive non-zero `(mz, value)` cells —
//!   CSR with run-length-coded column indices, the natural output of a
//!   zero-suppressing capture engine;
//! * the accumulate stage builds it at drain time only when the block's
//!   cell occupancy is below [`SPARSE_OCCUPANCY_THRESHOLD`] (dense
//!   fallback above — a dense block in sparse clothing costs more, not
//!   less);
//! * the deconvolution stage reads its [occupied
//!   columns](SparseBlock::occupied_columns), walks only those columns of
//!   the dense block through the FWHT core
//!   ([`crate::DeconvCore::deconvolve_columns`]) and fills the rest with a
//!   once-computed zero-column response. Every occupied column runs the
//!   exact dense per-column pipeline, so the output is bit-identical to
//!   the dense path.

use serde::{Deserialize, Serialize};

/// Cell-occupancy threshold below which the accumulate stage hands the
/// deconvolver a sparse block. At 25 % occupancy the CSR form is already
/// ~2× smaller than dense (runs + values vs. one word per cell) and the
/// zero-column skip starts to win; above it the run bookkeeping costs
/// more than the zeros it skips.
pub const SPARSE_OCCUPANCY_THRESHOLD: f64 = 0.25;

/// One run of consecutive non-zero cells inside a drift row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Run {
    /// First m/z column of the run.
    pub start: u32,
    /// Number of consecutive non-zero cells.
    pub len: u32,
}

/// A drift × m/z block of accumulated counts in CSR-of-runs form.
///
/// Invariants (upheld by the constructors): runs within a row are sorted
/// by `start`, non-overlapping, non-adjacent (a gap of at least one zero
/// cell separates them — adjacent runs are coalesced), and every stored
/// value is non-zero. `values` concatenates the cells of all runs in row
/// order, so `values.len()` is the block's non-zero count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseBlock {
    drift_bins: usize,
    mz_bins: usize,
    /// CSR row pointers into `runs`: row `d` owns
    /// `runs[row_ptr[d] .. row_ptr[d + 1]]`.
    row_ptr: Vec<u32>,
    runs: Vec<Run>,
    /// Non-zero cell values, concatenated in run order.
    values: Vec<u64>,
}

impl SparseBlock {
    /// Compresses a dense drift-major block.
    ///
    /// # Panics
    /// Panics if `data.len() != drift_bins * mz_bins`.
    pub fn from_dense(data: &[u64], drift_bins: usize, mz_bins: usize) -> Self {
        assert_eq!(data.len(), drift_bins * mz_bins, "block shape mismatch");
        let mut row_ptr = Vec::with_capacity(drift_bins + 1);
        let mut runs = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for d in 0..drift_bins {
            let row = &data[d * mz_bins..(d + 1) * mz_bins];
            let mut c = 0;
            while c < mz_bins {
                if row[c] == 0 {
                    c += 1;
                    continue;
                }
                let start = c;
                while c < mz_bins && row[c] != 0 {
                    c += 1;
                }
                runs.push(Run {
                    start: start as u32,
                    len: (c - start) as u32,
                });
                values.extend_from_slice(&row[start..c]);
            }
            row_ptr.push(u32::try_from(runs.len()).expect("run count fits u32"));
        }
        Self {
            drift_bins,
            mz_bins,
            row_ptr,
            runs,
            values,
        }
    }

    /// Compresses a dense block only when its occupancy is below
    /// `threshold`; returns `None` (dense fallback) otherwise. This is
    /// the accumulate-time decision point.
    pub fn from_dense_below(
        data: &[u64],
        drift_bins: usize,
        mz_bins: usize,
        threshold: f64,
    ) -> Option<Self> {
        assert_eq!(data.len(), drift_bins * mz_bins, "block shape mismatch");
        let nnz = data.iter().filter(|&&v| v != 0).count();
        if (nnz as f64) >= threshold * data.len() as f64 {
            return None;
        }
        Some(Self::from_dense(data, drift_bins, mz_bins))
    }

    /// Expands back to a dense drift-major block. Exact inverse of
    /// [`SparseBlock::from_dense`].
    pub fn to_dense(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.drift_bins * self.mz_bins];
        let mut v = 0;
        for d in 0..self.drift_bins {
            let row = &mut out[d * self.mz_bins..(d + 1) * self.mz_bins];
            for run in self.row_runs(d) {
                let (s, l) = (run.start as usize, run.len as usize);
                row[s..s + l].copy_from_slice(&self.values[v..v + l]);
                v += l;
            }
        }
        out
    }

    /// Number of drift rows.
    pub fn drift_bins(&self) -> usize {
        self.drift_bins
    }

    /// Number of m/z columns.
    pub fn mz_bins(&self) -> usize {
        self.mz_bins
    }

    /// Number of non-zero cells.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of cells that are non-zero, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.nnz() as f64 / (self.drift_bins * self.mz_bins) as f64
    }

    /// The runs of drift row `d`.
    pub fn row_runs(&self, d: usize) -> &[Run] {
        &self.runs[self.row_ptr[d] as usize..self.row_ptr[d + 1] as usize]
    }

    /// The m/z columns that hold at least one non-zero cell, ascending.
    pub fn occupied_columns(&self) -> Vec<usize> {
        let mut occ = vec![false; self.mz_bins];
        for run in &self.runs {
            occ[run.start as usize..run.start as usize + run.len as usize].fill(true);
        }
        (0..self.mz_bins).filter(|&c| occ[c]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(drift: usize, mz: usize, fill: &[(usize, usize, u64)]) -> Vec<u64> {
        let mut d = vec![0u64; drift * mz];
        for &(r, c, v) in fill {
            d[r * mz + c] = v;
        }
        d
    }

    #[test]
    fn round_trips_dense() {
        let data = sample(3, 8, &[(0, 1, 5), (0, 2, 6), (1, 7, 9), (2, 0, 1)]);
        let s = SparseBlock::from_dense(&data, 3, 8);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense(), data);
        // Adjacent cells coalesce into one run.
        assert_eq!(s.row_runs(0), &[Run { start: 1, len: 2 }]);
    }

    #[test]
    fn empty_and_full_rows() {
        let mut data = vec![0u64; 2 * 4];
        let s = SparseBlock::from_dense(&data, 2, 4);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.to_dense(), data);
        data.iter_mut().for_each(|v| *v = 3);
        let s = SparseBlock::from_dense(&data, 2, 4);
        assert_eq!(s.row_runs(0), &[Run { start: 0, len: 4 }]);
        assert_eq!(s.to_dense(), data);
        assert!((s.occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_gates_construction() {
        let data = sample(2, 10, &[(0, 3, 1), (1, 4, 2)]); // 10% occupied
        assert!(SparseBlock::from_dense_below(&data, 2, 10, 0.25).is_some());
        assert!(SparseBlock::from_dense_below(&data, 2, 10, 0.05).is_none());
    }

    #[test]
    fn occupied_columns_mark_every_nonzero_column() {
        let data = sample(3, 6, &[(0, 1, 5), (1, 1, 7), (2, 4, 2)]);
        let s = SparseBlock::from_dense(&data, 3, 6);
        assert_eq!(s.occupied_columns(), [1, 4]);
    }
}
