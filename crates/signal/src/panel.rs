//! Column-panel walking: the one gather → solve → scatter loop every
//! panel-batched deconvolution datapath runs.
//!
//! A deconvolution solves the same system independently for each m/z
//! column of a drift-major block. The panel engines batch adjacent
//! columns: a *panel* of `w` columns is gathered with one contiguous copy
//! per drift row (row `d` of the panel is `src[d·stride + c0 ..][..w]`),
//! solved with unit-stride row sweeps across the panel, and scattered
//! back. [`PanelWalker`] owns that loop and its reusable buffers; the
//! float engine, the integer FPGA datapath and the software backend's
//! slab tasks differ only in the closure that solves a panel.

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
}

/// A run of adjacent columns inside one panel: `len` columns starting at
/// source column `src` land at destination column `dst`.
#[derive(Debug, Clone, Copy)]
struct Run {
    src: usize,
    dst: usize,
    len: usize,
}

/// The rows of a drift-major block with `cols` columns — a walk's
/// destination (none when the block has no columns).
pub fn rows_mut<U>(block: &mut [U], cols: usize) -> Vec<&mut [U]> {
    if cols == 0 {
        return Vec::new();
    }
    block.chunks_exact_mut(cols).collect()
}

/// The reusable buffers of a panel walk: the gathered input panel, the
/// solved output panel for kernels that do not solve in place, and the
/// current panel's column runs. They grow to the widest panel walked and
/// are then reused without further allocation.
#[derive(Debug, Clone, Default)]
pub struct PanelWalker<T, U> {
    panel: Vec<T>,
    solved: Vec<U>,
    runs: Vec<Run>,
}

impl<T: Copy + Default, U: Copy> PanelWalker<T, U> {
    /// Walks `cols` of the drift-major block `src` in panels of at most
    /// `width` columns, scattering each panel into `dst` as soon as it is
    /// solved.
    ///
    /// `dst` holds the destination's rows — a whole block's
    /// ([`rows_mut`]), or the same column range of every row of a larger
    /// one — and `src` has as many rows, with row stride
    /// `src.len() / dst.len()`. For each panel, `solve` receives the
    /// gathered `rows × w` panel (row-major, row stride `w`), an output
    /// buffer of unspecified length, and `w`; it returns the solved
    /// `rows × w` panel — the input panel itself for an in-place kernel,
    /// or the output buffer after filling it. Adjacent columns move as one
    /// contiguous copy per row, so a list of mostly adjacent columns
    /// gathers as fast as a range.
    ///
    /// The panel decomposition is fixed by `cols` and `width` alone, and
    /// each column is solved independently, so any two walks of the same
    /// column through the same kernel produce the same bits.
    ///
    /// # Panics
    /// Panics if `width` is zero, if columns are walked into an empty
    /// `dst` or from a `src` whose length is not a multiple of its row
    /// count, if `solve` returns a panel of the wrong size, or if a walked
    /// column falls outside either block.
    pub fn walk<F>(
        &mut self,
        src: &[T],
        dst: &mut [&mut [U]],
        cols: Columns<'_>,
        width: usize,
        solve: F,
    ) where
        F: for<'p> FnMut(&'p mut [T], &'p mut Vec<U>, usize) -> &'p [U],
    {
        if cols.len() == 0 {
            return;
        }
        assert!(!dst.is_empty(), "a block needs at least one row");
        assert_eq!(src.len() % dst.len(), 0, "source shape mismatch");
        let stride = src.len() / dst.len();
        self.drive(
            dst,
            cols,
            width,
            |_, d, runs, panel| gather(&src[d * stride..(d + 1) * stride], runs, panel),
            solve,
        );
    }

    /// The walk loop: `gather` copies row `d`'s runs into the panel, given
    /// the destination rows as they stand before the panel is scattered.
    fn drive<G, F>(
        &mut self,
        dst: &mut [&mut [U]],
        cols: Columns<'_>,
        width: usize,
        gather: G,
        mut solve: F,
    ) where
        G: Fn(&[&mut [U]], usize, &[Run], &mut [T]),
        F: for<'p> FnMut(&'p mut [T], &'p mut Vec<U>, usize) -> &'p [U],
    {
        assert!(width > 0, "panel width must be positive");
        let rows = dst.len();
        let mut first = 0;
        while first < cols.len() {
            let w = width.min(cols.len() - first);
            self.runs.clear();
            for i in first..first + w {
                let (from, to) = cols.column(i);
                match self.runs.last_mut() {
                    Some(run) if run.src + run.len == from && run.dst + run.len == to => {
                        run.len += 1
                    }
                    _ => self.runs.push(Run {
                        src: from,
                        dst: to,
                        len: 1,
                    }),
                }
            }
            self.panel.resize(rows * w, T::default());
            for (d, panel_row) in self.panel.chunks_exact_mut(w).enumerate() {
                gather(dst, d, &self.runs, panel_row);
            }
            let out = solve(&mut self.panel, &mut self.solved, w);
            assert_eq!(out.len(), rows * w, "solved panel shape mismatch");
            for (solved, row) in out.chunks_exact(w).zip(dst.iter_mut()) {
                let mut at = 0;
                for run in &self.runs {
                    // Single columns skip the `memcpy` call a slice copy makes.
                    match run.len {
                        1 => row[run.dst] = solved[at],
                        len => row[run.dst..run.dst + len].copy_from_slice(&solved[at..at + len]),
                    }
                    at += run.len;
                }
            }
            first += w;
        }
    }
}

impl<T: Copy + Default> PanelWalker<T, T> {
    /// [`PanelWalker::walk`] reading each panel from the rows it is
    /// scattered back into: gather and scatter touch the same cache
    /// lines, and no second block is needed. `cols` must leave every
    /// column in place — a range starting at 0, or a list.
    ///
    /// # Panics
    /// As [`PanelWalker::walk`], and if `cols` moves columns.
    pub fn walk_in_place<F>(
        &mut self,
        block: &mut [&mut [T]],
        cols: Columns<'_>,
        width: usize,
        solve: F,
    ) where
        F: for<'p> FnMut(&'p mut [T], &'p mut Vec<T>, usize) -> &'p [T],
    {
        let moves = matches!(&cols, Columns::Range(r) if r.start != 0);
        assert!(!moves, "an in-place walk cannot move columns");
        self.drive(
            block,
            cols,
            width,
            |rows, d, runs, panel| gather(rows[d], runs, panel),
            solve,
        );
    }
}

/// Copies `runs` of one source row into a row of the panel.
fn gather<T: Copy>(row: &[T], runs: &[Run], panel_row: &mut [T]) {
    let mut at = 0;
    for run in runs {
        match run.len {
            1 => panel_row[at] = row[run.src],
            len => panel_row[at..at + len].copy_from_slice(&row[run.src..run.src + len]),
        }
        at += run.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in kernel that is not in place: each output cell depends
    /// on its whole column, so a misplaced cell or column shows.
    fn column_sums(panel: &mut [u32], out: &mut Vec<u64>, w: usize) {
        let rows = panel.len() / w;
        out.clear();
        for d in 0..rows {
            for c in 0..w {
                let col: u64 = (0..rows).map(|r| panel[r * w + c] as u64).sum();
                out.push(col * 1000 + d as u64);
            }
        }
    }

    fn block(rows: usize, cols: usize) -> Vec<u32> {
        (0..rows * cols).map(|i| (i * 7 + 3) as u32 % 101).collect()
    }

    fn expected(src: &[u32], rows: usize, cols: usize, c: usize, d: usize) -> u64 {
        let col: u64 = (0..rows).map(|r| src[r * cols + c] as u64).sum();
        col * 1000 + d as u64
    }

    #[test]
    fn range_walks_match_the_columnwise_answer_at_every_width() {
        let (rows, cols) = (5, 23);
        let src = block(rows, cols);
        for width in [1usize, 4, 7, 23, 64] {
            let mut dst = vec![0u64; rows * cols];
            let mut walker = PanelWalker::default();
            let mut view = rows_mut(&mut dst, cols);
            walker.walk(
                &src,
                &mut view,
                Columns::Range(0..cols),
                width,
                |p, o, w| {
                    column_sums(p, o, w);
                    o
                },
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
        let (rows, cols) = (3, 20);
        let src = block(rows, cols);
        let (lo, hi) = (6, 17);
        let mut dst = vec![u64::MAX; rows * cols];
        let mut view: Vec<&mut [u64]> = dst
            .chunks_exact_mut(cols)
            .map(|row| &mut row[lo..hi])
            .collect();
        PanelWalker::default().walk(&src, &mut view, Columns::Range(lo..hi), 4, |p, o, w| {
            column_sums(p, o, w);
            o
        });
        for d in 0..rows {
            for c in 0..cols {
                let got = dst[d * cols + c];
                if (lo..hi).contains(&c) {
                    assert_eq!(got, expected(&src, rows, cols, c, d));
                } else {
                    assert_eq!(got, u64::MAX, "column {c} is outside the range");
                }
            }
        }
    }

    #[test]
    fn list_walks_touch_only_the_listed_columns() {
        let (rows, cols) = (4, 15);
        let src = block(rows, cols);
        let list = [0usize, 3, 4, 9, 14];
        let mut dst = vec![u64::MAX; rows * cols];
        let mut view = rows_mut(&mut dst, cols);
        PanelWalker::default().walk(&src, &mut view, Columns::List(&list), 2, |p, o, w| {
            column_sums(p, o, w);
            o
        });
        for d in 0..rows {
            for c in 0..cols {
                let got = dst[d * cols + c];
                if list.contains(&c) {
                    assert_eq!(got, expected(&src, rows, cols, c, d));
                } else {
                    assert_eq!(got, u64::MAX, "column {c} was not listed");
                }
            }
        }
    }

    #[test]
    fn in_place_walks_match_walks_into_a_second_block() {
        let (rows, cols) = (5, 23);
        let src = block(rows, cols);
        let list = [1usize, 2, 3, 9, 22];
        for (walked, width) in [(Columns::Range(0..cols), 4), (Columns::List(&list), 2)] {
            let double = |p: &mut [u32], _: &mut Vec<u32>, _: usize| {
                p.iter_mut().for_each(|v| *v *= 2);
            };
            let mut copy = src.clone();
            let mut dst = src.clone();
            PanelWalker::default().walk(
                &src,
                &mut rows_mut(&mut dst, cols),
                walked.clone(),
                width,
                |p, o, w| {
                    double(p, o, w);
                    p
                },
            );
            PanelWalker::default().walk_in_place(
                &mut rows_mut(&mut copy, cols),
                walked,
                width,
                |p, o, w| {
                    double(p, o, w);
                    p
                },
            );
            assert_eq!(copy, dst);
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
            |p, _, _| p,
        );
    }

    #[test]
    fn in_place_kernels_return_their_input_panel() {
        let (rows, cols) = (6, 10);
        let src: Vec<f64> = (0..rows * cols).map(|i| i as f64).collect();
        let mut dst = vec![0.0f64; rows * cols];
        let mut view = rows_mut(&mut dst, cols);
        PanelWalker::default().walk(&src, &mut view, Columns::Range(0..cols), 3, |p, _, _| {
            p.iter_mut().for_each(|v| *v *= 2.0);
            p
        });
        for (s, d) in src.iter().zip(&dst) {
            assert_eq!(2.0 * s, *d);
        }
    }
}
