//! Column panels: the one panel decomposition of every panel-batched
//! deconvolution datapath, and the float engine's gather → solve →
//! scatter walk over it.
//!
//! A deconvolution solves the same system independently for each m/z
//! column of a drift-major block. The panel engines batch adjacent
//! columns: a *panel* of `w` columns is read with one contiguous copy per
//! drift row and run of adjacent columns, solved with unit-stride row
//! sweeps across the panel, and written back.
//! [`Columns::for_each_panel`] cuts the walked columns into panels, each
//! a list of [`Run`]s; both datapaths take their panels from it. The float
//! engine solves each panel in a gathered copy through [`PanelWalker`].
//! The integer FPGA datapath (`ims_fpga::DeconvCore::deconvolve_columns`)
//! needs no copy: like the core's address ROMs, it scatters each run
//! straight from the block into its FWHT RAM and gathers the solved words
//! straight into the destination rows.

/// Default column-panel width of the float engines (the software FWHT
/// and FFT/circulant panel kernels). The widest float working set — the
/// Bluestein-padded complex panel of a weighted solve, `2·N` rows × `P`
/// columns × 16 bytes ≈ 512 KiB at `N = 511` — fits a typical L2 at 32
/// columns and degrades beyond it.
pub const DEFAULT_PANEL_WIDTH: usize = 32;

/// Panel width of the integer (fixed-point FWHT) datapath, on every path
/// that runs it: the FPGA-model block and sparse entry points and the
/// software backend's slab fan-out. The integer butterflies carry no
/// complex padding — the working set is two `u64` rows per sweep — so
/// wider panels keep amortizing sweep startup long after the float
/// kernels have blown L2 (measured: 128 beats 32 by ~10% on the
/// reference block, while the weighted float solve is ~25% *slower* at
/// 128).
pub const FIXED_POINT_PANEL_WIDTH: usize = 128;

/// The columns a panel walk visits.
#[derive(Debug, Clone)]
pub enum Columns<'a> {
    /// Every column in the range, in order. A range walk writes column
    /// `c` to destination column `c − start`, so the destination rows may
    /// be just the range's own segments (or whole rows when the range
    /// starts at 0).
    Range(std::ops::Range<usize>),
    /// Exactly these columns, ascending — a sparse block's occupied
    /// columns. A list walk writes column `c` to destination column `c`.
    List(&'a [usize]),
}

impl Columns<'_> {
    fn len(&self) -> usize {
        match self {
            Columns::Range(r) => r.len(),
            Columns::List(l) => l.len(),
        }
    }

    /// The `i`-th walked column: `(source column, destination column)`.
    fn column(&self, i: usize) -> (usize, usize) {
        match self {
            Columns::Range(r) => (r.start + i, i),
            Columns::List(l) => (l[i], l[i]),
        }
    }

    /// The panel decomposition: cuts the walked columns, in order, into
    /// panels of `width` columns (the last may be narrower) and calls
    /// `visit` with each panel's runs and its width. Panel column `p` is
    /// the `p`-th column of the runs taken in order. Columns adjacent in
    /// both source and destination share a run, so a range panel is one
    /// run and a list of mostly adjacent columns moves in few copies.
    ///
    /// The decomposition is fixed by the columns and `width` alone, and
    /// each column is solved independently, so any two walks of the same
    /// column through the same kernel produce the same bits.
    ///
    /// # Panics
    /// Panics if `width` is zero.
    pub fn for_each_panel(&self, width: usize, mut visit: impl FnMut(&[Run], usize)) {
        assert!(width > 0, "panel width must be positive");
        let mut runs: Vec<Run> = Vec::new();
        let mut first = 0;
        while first < self.len() {
            let w = width.min(self.len() - first);
            runs.clear();
            for i in first..first + w {
                let (from, to) = self.column(i);
                match runs.last_mut() {
                    Some(run) if run.src + run.len == from && run.dst + run.len == to => {
                        run.len += 1
                    }
                    _ => runs.push(Run {
                        src: from,
                        dst: to,
                        len: 1,
                    }),
                }
            }
            visit(&runs, w);
            first += w;
        }
    }
}

/// A run of adjacent columns inside one panel: `len` columns starting at
/// source column `src` land at destination column `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First source column.
    pub src: usize,
    /// First destination column.
    pub dst: usize,
    /// Columns in the run.
    pub len: usize,
}

/// The rows of a drift-major block with `cols` columns — a walk's
/// destination (none when the block has no columns).
pub fn rows_mut<U>(block: &mut [U], cols: usize) -> Vec<&mut [U]> {
    if cols == 0 {
        return Vec::new();
    }
    block.chunks_exact_mut(cols).collect()
}

/// The reusable panel buffer of the float engine's walk. It grows to the
/// widest panel walked and is then reused without further allocation.
#[derive(Debug, Clone, Default)]
pub struct PanelWalker<T> {
    panel: Vec<T>,
}

impl<T: Copy + Default> PanelWalker<T> {
    /// Walks `cols` of a drift-major block in panels of at most `width`
    /// columns ([`Columns::for_each_panel`]), each read from and written
    /// back to the block's rows `block` — a whole block's ([`rows_mut`]),
    /// or the same column range of every row of a larger one. For each
    /// panel, `solve` receives the gathered `rows × w` panel (row-major,
    /// row stride `w`) and `w`, and solves it in place; the panel is then
    /// scattered back. Gather and scatter touch the same cache lines, and
    /// no second block is needed. `cols` must leave every column in
    /// place — a range starting at 0, or a list.
    ///
    /// # Panics
    /// Panics if `width` is zero, if `cols` moves columns, or if a walked
    /// column falls outside the block.
    pub fn walk_in_place<F>(
        &mut self,
        block: &mut [&mut [T]],
        cols: Columns<'_>,
        width: usize,
        mut solve: F,
    ) where
        F: FnMut(&mut [T], usize),
    {
        let moves = matches!(&cols, Columns::Range(r) if r.start != 0);
        assert!(!moves, "an in-place walk cannot move columns");
        let rows = block.len();
        cols.for_each_panel(width, |runs, w| {
            self.panel.resize(rows * w, T::default());
            for (row, panel_row) in block.iter().zip(self.panel.chunks_exact_mut(w)) {
                let mut at = 0;
                for run in runs {
                    panel_row[at..at + run.len].copy_from_slice(&row[run.src..run.src + run.len]);
                    at += run.len;
                }
            }
            solve(&mut self.panel, w);
            for (solved, row) in self.panel.chunks_exact(w).zip(block.iter_mut()) {
                let mut at = 0;
                for run in runs {
                    row[run.dst..run.dst + run.len].copy_from_slice(&solved[at..at + run.len]);
                    at += run.len;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in in-place kernel: each output cell depends on its whole
    /// column, so a misplaced cell or column shows.
    fn column_sums(panel: &mut [u64], w: usize) {
        let rows = panel.len() / w;
        let sums: Vec<u64> = (0..w)
            .map(|c| (0..rows).map(|r| panel[r * w + c]).sum())
            .collect();
        for (d, row) in panel.chunks_exact_mut(w).enumerate() {
            for (cell, sum) in row.iter_mut().zip(&sums) {
                *cell = sum * 1000 + d as u64;
            }
        }
    }

    fn block(rows: usize, cols: usize) -> Vec<u64> {
        (0..rows * cols).map(|i| (i * 7 + 3) as u64 % 101).collect()
    }

    fn expected(src: &[u64], rows: usize, cols: usize, c: usize, d: usize) -> u64 {
        let col: u64 = (0..rows).map(|r| src[r * cols + c]).sum();
        col * 1000 + d as u64
    }

    /// Every panel of a walk, as `(runs, width)`.
    fn panels(cols: &Columns<'_>, width: usize) -> Vec<(Vec<Run>, usize)> {
        let mut out = Vec::new();
        cols.for_each_panel(width, |runs, w| out.push((runs.to_vec(), w)));
        out
    }

    #[test]
    fn range_walks_match_the_columnwise_answer_at_every_width() {
        let (rows, cols) = (5, 23);
        let src = block(rows, cols);
        for width in [1usize, 4, 7, 23, 64] {
            let mut dst = src.clone();
            PanelWalker::default().walk_in_place(
                &mut rows_mut(&mut dst, cols),
                Columns::Range(0..cols),
                width,
                column_sums,
            );
            for d in 0..rows {
                for c in 0..cols {
                    assert_eq!(dst[d * cols + c], expected(&src, rows, cols, c, d));
                }
            }
        }
    }

    #[test]
    fn a_range_walk_into_row_segments_rebases_its_columns() {
        let (lo, hi) = (6, 17);
        let got = panels(&Columns::Range(lo..hi), 4);
        let run = |src, len| Run {
            src,
            dst: src - lo,
            len,
        };
        assert_eq!(
            got,
            [
                (vec![run(6, 4)], 4),
                (vec![run(10, 4)], 4),
                (vec![run(14, 3)], 3)
            ]
        );
    }

    #[test]
    fn a_list_panel_merges_adjacent_columns_and_splits_at_panel_boundaries() {
        let list = [0usize, 3, 4, 5, 6, 9, 14];
        let run = |src, len| Run { src, dst: src, len };
        assert_eq!(
            panels(&Columns::List(&list), 3),
            [
                (vec![run(0, 1), run(3, 2)], 3),
                (vec![run(5, 2), run(9, 1)], 3),
                (vec![run(14, 1)], 1)
            ]
        );
        assert!(panels(&Columns::List(&[]), 3).is_empty());
    }

    #[test]
    fn list_walks_touch_only_the_listed_columns() {
        let (rows, cols) = (4, 15);
        let src = block(rows, cols);
        let list = [0usize, 3, 4, 9, 14];
        let mut dst = src.clone();
        PanelWalker::default().walk_in_place(
            &mut rows_mut(&mut dst, cols),
            Columns::List(&list),
            2,
            column_sums,
        );
        for d in 0..rows {
            for c in 0..cols {
                let got = dst[d * cols + c];
                if list.contains(&c) {
                    assert_eq!(got, expected(&src, rows, cols, c, d));
                } else {
                    assert_eq!(got, src[d * cols + c], "column {c} was not listed");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot move columns")]
    fn in_place_walks_refuse_to_move_columns() {
        let mut block = vec![0u32; 12];
        PanelWalker::default().walk_in_place(
            &mut rows_mut(&mut block, 4),
            Columns::Range(1..3),
            2,
            |_, _| {},
        );
    }
}
