//! The CPU software component: the slab fan-out every parallel
//! deconvolution runs on.
//!
//! On the Cray XD1 the software side ran across Opteron cores; here the
//! stand-in is the work-stealing [`Scheduler`] pool, which drives the E8
//! scaling study. The unit of parallelism is a *slab*: a contiguous run
//! of m/z column panels that one task walks straight into its segment of
//! the result. Slabs are embarrassingly parallel, each task reuses one
//! scratch arena, and within a panel the kernels run unit-stride across
//! columns — so scaling stays near linear until memory bandwidth
//! intervenes. The float engine
//! ([`crate::deconv_batch::BatchDeconvolver`]) and the integer datapath
//! ([`deconvolve_fixed_point`]) differ only in the slab walk and the cost
//! prior they hand to `fan_out`. Both cut a slab into the panels of
//! [`ims_signal::panel::Columns::for_each_panel`]. The float walk solves
//! each panel in a gathered copy ([`ims_signal::panel::PanelWalker`]);
//! the integer walk ([`DeconvCore::deconvolve_columns`]) scatters each
//! panel from the block's rows straight into its FWHT RAM and gathers the
//! result straight into the slab's segments.

use crate::acquisition::{AcquiredData, GateSchedule};
use crate::deconv_batch::BatchDeconvolver;
use crate::deconvolution::Deconvolver;
use crate::pipeline::Scheduler;
use ims_fpga::DeconvCore;
use ims_physics::DriftTofMap;
use ims_signal::panel::{rows_mut, Columns};
use ims_signal::FIXED_POINT_PANEL_WIDTH;
use std::ops::Range;
use std::sync::OnceLock;

/// Which threads a slab fan-out runs on.
#[derive(Clone, Copy)]
pub enum Workers<'a> {
    /// The one thread-count rule. `0` shares the process-wide
    /// [`Scheduler`] pool (its workers plus the calling thread); `n > 0`
    /// spins up a private pool of `n − 1` workers for the call, the
    /// caller being the last executor. Either count is clamped to the
    /// machine's [`std::thread::available_parallelism`] — oversubscription
    /// adds context-switch noise but never throughput — and one executor
    /// walks the whole block on the calling thread with no fan-out cost.
    Threads(usize),
    /// An explicit pool and executor count, taken as given (no machine
    /// clamp), so tests can force the slab fan-out on any core count.
    Pool(&'a Scheduler, usize),
}

/// The machine's [`std::thread::available_parallelism`] (1 when unknown),
/// probed once per process: the probe reads the cgroup's CPU limits, tens
/// of µs a call.
pub(crate) fn machine_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| std::thread::available_parallelism().map_or(1, |v| v.get()))
}

/// A panel kernel as the fan-out's slab sizing sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PanelCost {
    /// Kernel label: the profiler tag's method and the suffix of its
    /// `deconv.panel_ns.<name>` histogram.
    pub name: &'static str,
    /// The kernel's per-panel latency histogram
    /// (`deconv.panel_ns.<name>`), recorded by its panel closure.
    pub hist: &'static ims_obs::Histogram,
    /// Nanoseconds per cell assumed until `hist` has warmed up.
    pub prior_ns_per_cell: f64,
}

/// Deconvolves every column of the drift-major `rows`-row block `out` in
/// panels of `width` columns, in place, and returns it.
///
/// `walk(cols, rows)` deconvolves the block's columns `cols` into `rows`,
/// the segment `cols` of every block row (column `c` at `c − cols.start`):
/// the caller's panel walk with its own scratch, reading the block either
/// from the segment itself (an in-place walk over a copy of the input) or
/// from a separate input. One executor walks the whole block. More split
/// its columns into *slabs* — contiguous runs of panels sized by the cost
/// model (see `panels_per_task`) — and walk one slab per task, straight
/// into the slab's segments: disjoint borrows of `out`, so no task
/// buffers a slab and no pass copies one back. Slabs start on panel
/// boundaries, so the panel decomposition — hence every bit of the
/// result — is the serial one whatever `workers` is.
pub(crate) fn fan_out<U, F>(
    mut out: Vec<U>,
    rows: usize,
    width: usize,
    cost: &PanelCost,
    workers: Workers<'_>,
    walk: F,
) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>, &mut [&mut [U]]) + Sync,
{
    let mz = out.len() / rows;
    let (pool, executors) = match workers {
        Workers::Threads(0) => {
            let global = Scheduler::global();
            (Some(global), (global.threads() + 1).min(machine_threads()))
        }
        Workers::Threads(n) => (None, n.min(machine_threads())),
        Workers::Pool(pool, executors) => (Some(pool), executors),
    };
    let panels = mz.div_ceil(width);
    if executors <= 1 || panels <= 1 {
        walk(0..mz, &mut rows_mut(&mut out, mz));
        return out;
    }
    let per_task = panels_per_task(cost, rows * width, executors, panels);
    let slabs: Vec<Range<usize>> = (0..panels.div_ceil(per_task))
        .map(|t| t * per_task * width..((t + 1) * per_task * width).min(mz))
        .collect();
    // Telemetry on the cost model's output: the slab-size (panels per
    // task) distribution shows whether slabs are big enough to amortize
    // fan-out but small enough to spread.
    let slab_hist = ims_obs::static_histogram!("deconv.slab_panels");
    for slab in &slabs {
        slab_hist.record(slab.len().div_ceil(width) as u64);
    }
    // Each slab's segment of every result row: disjoint borrows of `out`,
    // so the tasks write the result concurrently without sharing a byte.
    let mut segments: Vec<Vec<&mut [U]>> = slabs.iter().map(|_| Vec::with_capacity(rows)).collect();
    for row in out.chunks_exact_mut(mz) {
        let mut rest = row;
        for (slab, segs) in slabs.iter().zip(&mut segments) {
            let (seg, tail) = rest.split_at_mut(slab.len());
            segs.push(seg);
            rest = tail;
        }
    }
    let walk = &walk;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slabs
        .iter()
        .zip(segments)
        .map(|(slab, mut segs)| {
            Box::new(move || walk(slab.clone(), &mut segs)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let tag = ims_obs::prof::intern_tag("-", "deconvolve", cost.name);
    match pool {
        Some(pool) => pool.run_batch_tagged(jobs, tag),
        None => {
            let pool = Scheduler::new(executors - 1);
            pool.run_batch_tagged(jobs, tag);
            pool.shutdown();
        }
    }
    out
}

/// Panels per slab task. Tasks target roughly `TARGET_TASK_NS` of kernel
/// work — long enough that queue traffic and slab allocation vanish in
/// the noise, short enough that a block still splits into several tasks
/// per worker for load balance — and never fall below a couple of
/// panels, nor leave executors idle when there are panels to go around.
/// A panel's cost is the live mean of the kernel's histogram once it
/// has `WARM_SAMPLES` samples, else the kernel's per-cell prior.
fn panels_per_task(cost: &PanelCost, panel_cells: usize, executors: usize, panels: usize) -> usize {
    /// Samples before the live histogram outranks the prior — enough to
    /// flush one block's cold-start outliers.
    const WARM_SAMPLES: u64 = 16;
    /// Target per-task kernel time: ~2 ms is ≥10³ × the per-task
    /// overhead (one slab allocation + one queue round-trip).
    const TARGET_TASK_NS: u64 = 2_000_000;
    /// Floor: a task is never a lone panel unless the block has one.
    const MIN_PANELS_PER_TASK: usize = 2;
    let s = cost.hist.summary();
    let panel_ns = if s.count >= WARM_SAMPLES {
        s.mean as u64
    } else {
        (cost.prior_ns_per_cell * panel_cells as f64) as u64
    };
    usize::try_from(TARGET_TASK_NS / panel_ns.max(1))
        .unwrap_or(usize::MAX)
        .max(MIN_PANELS_PER_TASK)
        .min(panels.div_ceil(executors))
        .max(1)
}

/// The fixed-point column walk as `fan_out` prices it. Its prior is a
/// panel's mean on the E3 block (511 × 128 panels, inline executor: the
/// scatter from the block, the butterflies and the gather into a fresh
/// output block), used before the histogram warms.
fn fixed_point_cost() -> PanelCost {
    PanelCost {
        name: "software-fwht",
        hist: ims_obs::static_histogram!("deconv.panel_ns.software-fwht"),
        prior_ns_per_cell: 4.1,
    }
}

/// Deconvolves one accumulated drift-major block through the fixed-point
/// FWHT core: the one block path of the pipeline's `fpga` and `software`
/// backends and of the fault fallback.
///
/// With `occupied`, a sparse block's occupied m/z columns (ascending),
/// only those columns of `data` are walked, on the calling thread; every
/// other column gets the deconvolution of a zero column, computed once.
/// A column's output depends on that column alone, so the result is the
/// dense walk's, bit for bit. Without it, every column is walked in slabs
/// over `workers` (see [`fan_out`]), which leaves the bits unchanged too.
///
/// # Panics
/// Panics if `data` is not a whole number of `core.len()`-row columns.
pub fn deconvolve_fixed_point(
    core: &DeconvCore,
    data: &[u64],
    occupied: Option<&[usize]>,
    workers: Workers<'_>,
) -> Vec<i64> {
    let n = core.len();
    assert_eq!(data.len() % n, 0, "block shape mismatch");
    let mz = data.len() / n;
    let width = FIXED_POINT_PANEL_WIDTH;
    let Some(cols) = occupied else {
        return fan_out(
            vec![0; data.len()],
            n,
            width,
            &fixed_point_cost(),
            workers,
            |cols, rows| core.deconvolve_columns(data, rows, Columns::Range(cols), width),
        );
    };
    ims_obs::static_counter!("deconv.sparse_blocks").incr();
    ims_obs::static_counter!("deconv.sparse_columns_skipped").add((mz - cols.len()) as u64);
    let mut out = Vec::with_capacity(data.len());
    for z in core.deconvolve_column(&vec![0; n]) {
        out.extend(std::iter::repeat_n(z, mz));
    }
    core.deconvolve_columns(
        data,
        &mut rows_mut(&mut out, mz),
        Columns::List(cols),
        width,
    );
    out
}

/// Runs the parallel deconvolution at `threads` executors (see
/// [`Workers::Threads`]; 0 counts as 1) and returns the result with the
/// wall time in seconds — one row of the E8 scaling table.
pub fn deconvolve_with_threads(
    method: &Deconvolver,
    schedule: &GateSchedule,
    data: &AcquiredData,
    threads: usize,
) -> (DriftTofMap, f64) {
    let engine = BatchDeconvolver::new(method, schedule, data);
    let start = std::time::Instant::now();
    let out = engine.deconvolve_map_with(&data.accumulated, Workers::Threads(threads.max(1)));
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::{acquire, AcquireOptions};
    use ims_fpga::deconv::DeconvConfig;
    use ims_physics::{Instrument, Workload};
    use ims_prs::MSequence;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn block() -> (GateSchedule, AcquiredData) {
        let mut inst = Instrument::with_drift_bins(127);
        inst.tof.n_bins = 120;
        let w = Workload::three_peptide_mix();
        let schedule = GateSchedule::multiplexed(7);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let data = acquire(
            &inst,
            &w,
            &schedule,
            20,
            AcquireOptions::default(),
            &mut rng,
        );
        (schedule, data)
    }

    #[test]
    fn parallel_matches_serial() {
        let (schedule, data) = block();
        let method = Deconvolver::Weighted { lambda: 1e-5 };
        let serial = method.deconvolve(&schedule, &data);
        let parallel = BatchDeconvolver::new(&method, &schedule, &data)
            .deconvolve_map_parallel(&data.accumulated);
        for (a, b) in serial.data().iter().zip(parallel.data().iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn explicit_thread_count_works() {
        let (schedule, data) = block();
        let method = Deconvolver::SimplexFast;
        let (one, _t1) = deconvolve_with_threads(&method, &schedule, &data, 1);
        let (four, _t4) = deconvolve_with_threads(&method, &schedule, &data, 4);
        for (a, b) in one.data().iter().zip(four.data().iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn scheduled_matches_serial_bitwise_on_private_pool() {
        let (schedule, data) = block();
        for method in [
            Deconvolver::Weighted { lambda: 1e-5 },
            Deconvolver::SimplexFast,
        ] {
            let engine = BatchDeconvolver::new(&method, &schedule, &data);
            let serial = engine.deconvolve_map(&data.accumulated);
            let pool = Scheduler::new(3);
            // Force the slab fan-out even on single-core machines, where
            // the thread-count rule runs the serial walk.
            let scheduled = engine.deconvolve_map_with(&data.accumulated, Workers::Pool(&pool, 4));
            pool.shutdown();
            for (a, b) in serial.data().iter().zip(scheduled.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // The integer column walk on the same forced fan-out, word for word
        // against the scalar column datapath, at widths that give one
        // column per panel, ragged tails, the production width, and a
        // single panel.
        let seq = MSequence::new(7);
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let (n, mz) = (data.accumulated.drift_bins(), data.accumulated.mz_bins());
        let words: Vec<u64> = data
            .accumulated
            .data()
            .iter()
            .map(|&v| v.round() as u64)
            .collect();
        for width in [1usize, 7, FIXED_POINT_PANEL_WIDTH, mz] {
            let pool = Scheduler::new(3);
            let got = fan_out(
                vec![0i64; n * mz],
                n,
                width,
                &fixed_point_cost(),
                Workers::Pool(&pool, 4),
                |cols, rows| core.deconvolve_columns(&words, rows, Columns::Range(cols), width),
            );
            pool.shutdown();
            for c in 0..mz {
                let col: Vec<u64> = (0..n).map(|d| words[d * mz + c]).collect();
                let expect = core.deconvolve_column(&col);
                for d in 0..n {
                    assert_eq!(got[d * mz + c], expect[d], "width {width} at ({d},{c})");
                }
            }
        }
    }

    #[test]
    fn fixed_point_blocks_match_the_column_path_dense_and_sparse() {
        let seq = MSequence::new(6);
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let (n, mz) = (seq.len(), 300);
        // Three occupied columns, the middle one in the third panel.
        let occupied = [4usize, 5, 290];
        let mut words = vec![0u64; n * mz];
        for d in 0..n {
            for &c in &occupied {
                words[d * mz + c] = ((d * 31 + c) % 977) as u64;
            }
        }
        let reference = core.deconvolve_columnwise(&words, mz);
        let pool = Scheduler::new(2);
        for workers in [Workers::Threads(1), Workers::Pool(&pool, 3)] {
            assert_eq!(
                deconvolve_fixed_point(&core, &words, None, workers),
                reference
            );
            let sparse = deconvolve_fixed_point(&core, &words, Some(&occupied), workers);
            assert_eq!(sparse, reference);
        }
        pool.shutdown();
    }
}
