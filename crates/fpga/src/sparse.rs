//! Run index of sparse accumulated blocks.
//!
//! Real centroided TOF spectra are mostly empty: outside chromatographic
//! peaks the accumulation RAM holds long runs of zero cells, and a zero
//! m/z column deconvolves to a constant response that does not depend on
//! the data at all. This module gives the datapath a description of that
//! emptiness that exploits both facts without giving up bit-exactness:
//!
//! * [`SparseBlock`] indexes one accumulated drift × m/z block — the
//!   dense block it travels with, never a copy of its values — as
//!   per-drift-row runs of consecutive non-zero cells (CSR with
//!   run-length-coded column indices, the natural output of a
//!   zero-suppressing capture engine), plus the block's non-zero count
//!   and its occupied m/z columns;
//! * the accumulate stage builds it at drain time in one pass over the
//!   block, and gives up (dense fallback) as soon as the non-zero count
//!   reaches [`SPARSE_OCCUPANCY_THRESHOLD`] of the cells;
//! * the deconvolution stage reads its [occupied
//!   columns](SparseBlock::occupied_columns), walks only those columns of
//!   the dense block through the FWHT core
//!   ([`crate::DeconvCore::deconvolve_columns`]) and fills the rest with a
//!   once-computed zero-column response. Every occupied column runs the
//!   exact dense per-column pipeline, so the output is bit-identical to
//!   the dense path.

/// Cell-occupancy threshold below which the accumulate stage hands the
/// deconvolver a sparse block. Below a quarter of the cells the occupied
/// columns are few enough for the zero-column skip to win, and the index
/// stays small; above it the per-run bookkeeping of the index costs more
/// than the zeros it describes.
pub const SPARSE_OCCUPANCY_THRESHOLD: f64 = 0.25;

/// One run of consecutive non-zero cells inside a drift row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First m/z column of the run.
    pub start: u32,
    /// Number of consecutive non-zero cells.
    pub len: u32,
}

/// The run index of one drift × m/z block of accumulated counts.
///
/// Invariants (upheld by [`SparseBlock::index_below`]): the runs of a row
/// cover exactly its non-zero cells, sorted by `start`, non-overlapping
/// and non-adjacent (a gap of at least one zero cell separates them —
/// adjacent runs are coalesced); `nnz` is the sum of the run lengths; and
/// `occupied` lists, ascending, every m/z column some run covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseBlock {
    drift_bins: usize,
    mz_bins: usize,
    /// CSR row pointers into `runs`: row `d` owns
    /// `runs[row_ptr[d] .. row_ptr[d + 1]]`.
    row_ptr: Vec<u32>,
    runs: Vec<Run>,
    nnz: usize,
    occupied: Vec<usize>,
}

impl SparseBlock {
    /// Indexes a dense drift-major block in one pass when fewer than
    /// `threshold × cells` of its cells are non-zero, and returns `None`
    /// (dense fallback) as soon as the count reaches that limit. This is
    /// the accumulate-time decision point. The count only grows along the
    /// pass, so stopping early decides exactly as a full count would.
    ///
    /// # Panics
    /// Panics if `data.len() != drift_bins * mz_bins`.
    pub fn index_below(
        data: &[u64],
        drift_bins: usize,
        mz_bins: usize,
        threshold: f64,
    ) -> Option<Self> {
        assert_eq!(data.len(), drift_bins * mz_bins, "block shape mismatch");
        let below = |nnz: usize| (nnz as f64) < threshold * data.len() as f64;
        let mut row_ptr = Vec::with_capacity(drift_bins + 1);
        let mut runs = Vec::new();
        let mut nnz = 0;
        let mut hit = vec![false; mz_bins];
        row_ptr.push(0);
        for d in 0..drift_bins {
            let row = &data[d * mz_bins..(d + 1) * mz_bins];
            let mut c = 0;
            while c < mz_bins {
                // Zeros go eight cells at a time where a whole chunk is
                // empty: the OR over a chunk is a few vector instructions.
                if row
                    .get(c..c + 8)
                    .is_some_and(|chunk| chunk.iter().fold(0, |a, &v| a | v) == 0)
                {
                    c += 8;
                    continue;
                }
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
                hit[start..c].fill(true);
                nnz += c - start;
                if !below(nnz) {
                    return None;
                }
            }
            row_ptr.push(u32::try_from(runs.len()).expect("run count fits u32"));
        }
        below(nnz).then(|| Self {
            drift_bins,
            mz_bins,
            row_ptr,
            runs,
            nnz,
            occupied: (0..mz_bins).filter(|&c| hit[c]).collect(),
        })
    }

    /// Number of drift rows.
    pub fn drift_bins(&self) -> usize {
        self.drift_bins
    }

    /// Number of non-zero cells.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of cells that are non-zero, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.nnz as f64 / (self.drift_bins * self.mz_bins) as f64
    }

    /// The runs of drift row `d`.
    pub fn row_runs(&self, d: usize) -> &[Run] {
        &self.runs[self.row_ptr[d] as usize..self.row_ptr[d + 1] as usize]
    }

    /// The m/z columns that hold at least one non-zero cell, ascending.
    pub fn occupied_columns(&self) -> &[usize] {
        &self.occupied
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

    /// Indexes `data` with no occupancy limit and checks the index
    /// against the cells themselves: each row's runs cover exactly its
    /// non-zero cells, ascending and coalesced; `nnz` is their count; the
    /// occupied columns are exactly the columns holding a non-zero.
    fn checked_index(data: &[u64], drift: usize, mz: usize) -> SparseBlock {
        let s = SparseBlock::index_below(data, drift, mz, f64::INFINITY).expect("no limit");
        for (d, row) in data.chunks_exact(mz).enumerate() {
            let mut covered = vec![false; mz];
            let mut end = None;
            for run in s.row_runs(d) {
                let (start, len) = (run.start as usize, run.len as usize);
                assert!(len > 0, "row {d}: empty run");
                assert!(
                    end.is_none_or(|e| start > e),
                    "row {d}: runs not ascending and coalesced"
                );
                covered[start..start + len].fill(true);
                end = Some(start + len);
            }
            let nonzero: Vec<bool> = row.iter().map(|&v| v != 0).collect();
            assert_eq!(covered, nonzero, "row {d}: runs cover other cells");
        }
        assert_eq!(s.nnz(), data.iter().filter(|&&v| v != 0).count());
        let occupied: Vec<usize> = (0..mz)
            .filter(|&c| data.chunks_exact(mz).any(|row| row[c] != 0))
            .collect();
        assert_eq!(s.occupied_columns(), occupied);
        s
    }

    #[test]
    fn round_trips_dense() {
        let data = sample(3, 8, &[(0, 1, 5), (0, 2, 6), (1, 7, 9), (2, 0, 1)]);
        let s = checked_index(&data, 3, 8);
        assert_eq!(s.nnz(), 4);
        // Adjacent cells coalesce into one run.
        assert_eq!(s.row_runs(0), &[Run { start: 1, len: 2 }]);
    }

    #[test]
    fn empty_and_full_rows() {
        let mut data = vec![0u64; 2 * 4];
        let s = checked_index(&data, 2, 4);
        assert_eq!(s.nnz(), 0);
        assert!(s.occupied_columns().is_empty());
        data.iter_mut().for_each(|v| *v = 3);
        let s = checked_index(&data, 2, 4);
        assert_eq!(s.row_runs(0), &[Run { start: 0, len: 4 }]);
        assert!((s.occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_gates_construction() {
        let data = sample(2, 10, &[(0, 3, 1), (1, 4, 2)]); // 10% occupied
        assert!(SparseBlock::index_below(&data, 2, 10, 0.25).is_some());
        assert!(SparseBlock::index_below(&data, 2, 10, 0.05).is_none());
        // Reaching the limit is dense: 2 of 20 cells at 0.1.
        assert!(SparseBlock::index_below(&data, 2, 10, 0.1).is_none());
        // A block without cells is never sparse.
        assert!(SparseBlock::index_below(&[], 0, 5, 0.25).is_none());
    }

    #[test]
    fn occupied_columns_mark_every_nonzero_column() {
        let data = sample(3, 6, &[(0, 1, 5), (1, 1, 7), (2, 4, 2)]);
        let s = checked_index(&data, 3, 6);
        assert_eq!(s.occupied_columns(), [1, 4]);
    }
}
