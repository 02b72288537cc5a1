//! Batched, cache-blocked deconvolution over panels of m/z columns.
//!
//! Every deconvolution method ultimately solves the same circulant system
//! independently for each of the block's m/z columns. The scalar reference
//! path ([`crate::deconvolution::apply_columnwise`]) gathers each column out
//! of the drift-major [`DriftTofMap`] with stride `mz_bins`, runs a solver
//! that allocates fresh buffers per column, and scatters the result back —
//! a cache-hostile access pattern repeated thousands of times per block.
//!
//! [`BatchDeconvolver`] instead processes *panels* of `P` adjacent columns
//! through the shared [`ims_signal::panel::PanelWalker`]:
//!
//! * a panel is gathered with `drift_bins` contiguous `memcpy`s (row
//!   `d` of the panel is the slice `data[d·mz + c0 .. d·mz + c0 + P]`, no
//!   transpose — the map is already drift-major);
//! * the FWHT butterflies / FFT levels then run as contiguous row-pair
//!   sweeps over the panel, unit-stride and auto-vectorized across the m/z
//!   dimension (`ims_signal::fwht::fwht_panel`, `ims_signal::fft::FftPlan`);
//! * kernel spectra, twiddle factors, chirps and permutation tables are
//!   hoisted out of the column loop into the solver
//!   ([`ims_prs::weighting::CirculantSolver`]), and all working memory
//!   lives in scratch buffers each walk reuses across its panels — no
//!   allocation per column or panel;
//! * panels are embarrassingly parallel, so
//!   [`BatchDeconvolver::deconvolve_map_parallel`] hands the block to the
//!   shared slab fan-out ([`crate::parallel`]) on the process-wide
//!   work-stealing [`Scheduler`](crate::pipeline::Scheduler), the same
//!   pool that executes serve-mode session graphs.
//!
//! Per column, every kernel performs the exact floating-point operations of
//! the scalar path in the same order, so the batched result is
//! **bit-identical** to the per-column reference — the property the
//! proptests in `tests/deconv_batch.rs` pin down.

use crate::acquisition::{AcquiredData, GateSchedule};
use crate::deconvolution::{scale_lambda, Deconvolver};
use crate::parallel::{fan_out, PanelCost, Workers};
use ims_physics::DriftTofMap;
use ims_prs::permutation::TransformScratch;
use ims_prs::weighting::{CirculantInverse, CirculantScratch, CirculantSolver};
use ims_prs::FastMTransform;
use ims_signal::panel::{Columns, PanelWalker};

/// Panel width of every float method (see [`ims_signal::DEFAULT_PANEL_WIDTH`]).
pub use ims_signal::DEFAULT_PANEL_WIDTH;

/// The per-panel kernel a [`BatchDeconvolver`] applies.
#[derive(Debug, Clone)]
enum PanelKernel {
    /// Signal averaging: the accumulated block already is the answer.
    Identity,
    /// Fast Hadamard (simplex) inverse of the design sequence.
    Simplex(FastMTransform),
    /// Exact or Tikhonov-weighted Fourier inverse of a measured kernel.
    Circulant(CirculantSolver),
}

impl PanelKernel {
    /// Method label used in metric names and trace categories.
    fn name(&self) -> &'static str {
        match self {
            PanelKernel::Identity => "identity",
            PanelKernel::Simplex(_) => "simplex-fwht",
            PanelKernel::Circulant(_) => "circulant",
        }
    }

    /// Slab-sizing prior before the panel histogram warms up, measured on
    /// the reference block (511 × 1000, panel width 32).
    fn prior_ns_per_cell(&self) -> f64 {
        match self {
            PanelKernel::Identity => 0.0,
            // FWHT butterflies plus the permutation scatter.
            PanelKernel::Simplex(_) => 6.0,
            // Four Bluestein pow-2 FFTs over 2N-padded rows.
            PanelKernel::Circulant(_) => 40.0,
        }
    }
}

/// Batched deconvolution engine: one precomputed kernel applied to panels
/// of m/z columns.
#[derive(Debug, Clone)]
pub struct BatchDeconvolver {
    kernel: PanelKernel,
    panel_width: usize,
    /// Per-method panel-latency histogram in the global registry
    /// (`deconv.panel_ns.<method>`). A `&'static` registry handle, so
    /// cloning the engine shares it.
    panel_hist: &'static ims_obs::Histogram,
}

/// The registry histogram collecting panel latencies for `kernel`.
fn panel_histogram(kernel: &PanelKernel) -> &'static ims_obs::Histogram {
    ims_obs::metrics::histogram(&format!("deconv.panel_ns.{}", kernel.name()))
}

impl BatchDeconvolver {
    /// Builds the engine for a [`Deconvolver`] method, mirroring
    /// [`Deconvolver::column_solver`] (same kernels, same panics).
    ///
    /// # Panics
    /// Panics if the method cannot be applied to the schedule (e.g.
    /// [`Deconvolver::SimplexFast`] on an oversampled schedule, or
    /// [`Deconvolver::Exact`] on a singular kernel).
    pub fn new(method: &Deconvolver, schedule: &GateSchedule, data: &AcquiredData) -> Self {
        let kernel = match method {
            Deconvolver::Identity => PanelKernel::Identity,
            Deconvolver::SimplexFast => {
                let seq = match schedule {
                    GateSchedule::Multiplexed { seq } => seq,
                    other => panic!(
                        "SimplexFast requires a non-oversampled multiplexed schedule, got {}",
                        other.name()
                    ),
                };
                PanelKernel::Simplex(FastMTransform::new(seq))
            }
            Deconvolver::Exact => PanelKernel::Circulant(
                CirculantInverse::exact(&data.effective_kernel, 1e-9)
                    .expect("effective kernel is singular; use Weighted instead")
                    .solver(),
            ),
            Deconvolver::Weighted { lambda } => {
                let inv = CirculantInverse::weighted(
                    &data.effective_kernel,
                    scale_lambda(*lambda, &data.effective_kernel),
                );
                PanelKernel::Circulant(inv.solver())
            }
            Deconvolver::WeightedIdeal { lambda } => {
                let bits: Vec<f64> = data
                    .schedule_bits
                    .iter()
                    .map(|&b| if b { 1.0 } else { 0.0 })
                    .collect();
                let inv = CirculantInverse::weighted(&bits, scale_lambda(*lambda, &bits));
                PanelKernel::Circulant(inv.solver())
            }
        };
        Self {
            panel_hist: panel_histogram(&kernel),
            kernel,
            panel_width: DEFAULT_PANEL_WIDTH,
        }
    }

    /// Engine around an explicit (e.g. calibration-estimated) circulant
    /// inverse — the batch form of [`CirculantInverse::apply`].
    pub fn from_circulant(inverse: &CirculantInverse) -> Self {
        let kernel = PanelKernel::Circulant(inverse.solver());
        Self {
            panel_hist: panel_histogram(&kernel),
            kernel,
            panel_width: DEFAULT_PANEL_WIDTH,
        }
    }

    /// Sets the panel width (columns per panel). Widths are clamped to at
    /// least 1; the last panel of a block is narrower when `mz_bins` is not
    /// a multiple of the width.
    pub fn with_panel_width(mut self, width: usize) -> Self {
        self.panel_width = width.max(1);
        self
    }

    /// The configured panel width.
    pub fn panel_width(&self) -> usize {
        self.panel_width
    }

    /// The drift-bin count the kernel expects, if it constrains one.
    fn expected_rows(&self) -> Option<usize> {
        match &self.kernel {
            PanelKernel::Identity => None,
            PanelKernel::Simplex(t) => Some(t.len()),
            PanelKernel::Circulant(s) => Some(s.len()),
        }
    }

    fn check_shape(&self, drift_bins: usize) {
        if let Some(rows) = self.expected_rows() {
            assert_eq!(
                rows, drift_bins,
                "kernel length {rows} does not match {drift_bins} drift bins"
            );
        }
    }

    /// Runs the kernel on one gathered panel in place, recording one span
    /// (category = method name) and one latency sample per panel.
    fn solve_panel(
        &self,
        panel: &mut [f64],
        width: usize,
        transform: &mut TransformScratch,
        circulant: &mut CirculantScratch,
    ) {
        let _sp = ims_obs::span_cat(self.kernel.name(), "panel");
        let start = std::time::Instant::now();
        match &self.kernel {
            PanelKernel::Identity => {}
            PanelKernel::Simplex(t) => t.deconvolve_convolution_panel(panel, width, transform),
            PanelKernel::Circulant(s) => s.solve_panel(panel, width, circulant),
        }
        self.panel_hist.record_duration(start.elapsed());
    }

    /// Deconvolves every m/z column of a drift-major map, panel by panel,
    /// on the calling thread.
    ///
    /// # Panics
    /// Panics if the map's drift-bin count differs from the kernel length.
    pub fn deconvolve_map(&self, map: &DriftTofMap) -> DriftTofMap {
        self.deconvolve_map_with(map, Workers::Threads(1))
    }

    /// Deconvolves the `mz` columns of the drift-major `rows` in place,
    /// reusing one set of scratch buffers across the walk's panels.
    fn walk_in_place(&self, rows: &mut [&mut [f64]], mz: usize) {
        let mut transform = TransformScratch::default();
        let mut circulant = CirculantScratch::default();
        PanelWalker::default().walk_in_place(
            rows,
            Columns::Range(0..mz),
            self.panel_width,
            |panel, _, width| {
                self.solve_panel(panel, width, &mut transform, &mut circulant);
                panel
            },
        );
    }

    /// Like [`BatchDeconvolver::deconvolve_map`], but distributes panels
    /// over the process-wide work-stealing scheduler — the same pool that
    /// runs serve-mode session graphs, so batch deconvolution and serving
    /// share one set of workers instead of fighting over cores.
    ///
    /// # Panics
    /// Panics if the map's drift-bin count differs from the kernel length.
    pub fn deconvolve_map_parallel(&self, map: &DriftTofMap) -> DriftTofMap {
        self.deconvolve_map_with(map, Workers::Threads(0))
    }

    /// Deconvolves a map on the given [`Workers`] through the shared slab
    /// fan-out. Every choice of workers computes the same bits.
    ///
    /// # Panics
    /// Panics if the map's drift-bin count differs from the kernel length.
    pub fn deconvolve_map_with(&self, map: &DriftTofMap, workers: Workers<'_>) -> DriftTofMap {
        let (drift, mz) = (map.drift_bins(), map.mz_bins());
        self.check_shape(drift);
        if matches!(self.kernel, PanelKernel::Identity) {
            return map.clone();
        }
        let cost = PanelCost {
            name: self.kernel.name(),
            hist: self.panel_hist,
            prior_ns_per_cell: self.kernel.prior_ns_per_cell(),
        };
        // Each slab is deconvolved in place in a copy of the map: gather
        // and scatter then touch the same cache lines.
        let data = fan_out(
            map.data().to_vec(),
            drift,
            self.panel_width,
            &cost,
            workers,
            |cols, rows| self.walk_in_place(rows, cols.len()),
        );
        DriftTofMap::from_vec(drift, mz, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::{acquire, AcquireOptions};
    use crate::deconvolution::apply_columnwise;
    use ims_physics::{Instrument, Workload};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_block(mz: usize) -> (GateSchedule, AcquiredData) {
        let mut inst = Instrument::with_drift_bins(63);
        inst.tof.n_bins = mz;
        inst.gate = ims_physics::gate::GateModel::with_defect_level(0.2);
        let w = Workload::three_peptide_mix();
        let schedule = GateSchedule::multiplexed(6);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let data = acquire(
            &inst,
            &w,
            &schedule,
            10,
            AcquireOptions::default(),
            &mut rng,
        );
        (schedule, data)
    }

    #[test]
    fn batched_is_bit_identical_to_columnwise_reference() {
        // Non-multiple-of-width mz so the ragged tail panel is exercised.
        let (schedule, data) = small_block(70);
        for method in [
            Deconvolver::Identity,
            Deconvolver::SimplexFast,
            Deconvolver::Exact,
            Deconvolver::Weighted { lambda: 1e-5 },
            Deconvolver::WeightedIdeal { lambda: 1e-4 },
        ] {
            let solver = method.column_solver(&schedule, &data);
            let reference = apply_columnwise(&data.accumulated, |col| solver(col));
            for width in [1usize, 7, 32, 70, 200] {
                let engine =
                    BatchDeconvolver::new(&method, &schedule, &data).with_panel_width(width);
                let batched = engine.deconvolve_map(&data.accumulated);
                let parallel = engine.deconvolve_map_parallel(&data.accumulated);
                for (i, (a, b)) in reference
                    .data()
                    .iter()
                    .zip(batched.data().iter())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} width {width} cell {i}: {a} vs {b}",
                        method.name()
                    );
                }
                for (a, b) in batched.data().iter().zip(parallel.data().iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_mismatched_drift_bins() {
        let (schedule, data) = small_block(20);
        let engine = BatchDeconvolver::new(&Deconvolver::SimplexFast, &schedule, &data);
        let wrong = DriftTofMap::zeros(64, 20);
        let _ = engine.deconvolve_map(&wrong);
    }
}
