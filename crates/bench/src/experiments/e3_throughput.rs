//! E3 — deconvolution throughput: CPU software vs FPGA model, against the
//! real-time budget (table).
//!
//! One accumulated block (N = 511 drift × 1000 m/z) must be deconvolved
//! within its own acquisition period for the instrument to stream
//! indefinitely. Shape target: the modelled FPGA sustains real time with
//! margin; single-core software is marginal; multi-core software recovers
//! the margin (this is the XD1 story — the FPGA earns its keep).
//!
//! Every row drives the *same* unified pipeline graph (source → link →
//! accumulate → deconvolve), swapping only the deconvolution backend: the
//! scheduler-parallel software path timed from the deconvolve stage's busy time in the
//! `PipelineReport`, and the FPGA FWHT core timed from its modelled cycle
//! count at each device clock.

use super::common;
use crate::table::{f, Table};
use htims_core::acquisition::GateSchedule;
use htims_core::hybrid::{run_hybrid_with_backend, FrameGenerator, HybridConfig};
use htims_core::pipeline::DeconvBackend;
use ims_fpga::deconv::DeconvConfig;
use ims_fpga::FpgaDevice;
use ims_physics::Workload;
use ims_prs::MSequence;

/// Runs E3.
pub fn run(quick: bool) -> Table {
    let degree = 9;
    let n = (1usize << degree) - 1;
    let mz_bins = if quick { 200 } else { 1000 };
    let frames = if quick { 5 } else { 20 };

    let inst = common::instrument(n, mz_bins, 0.1);
    let workload = Workload::three_peptide_mix();
    let schedule = GateSchedule::multiplexed(degree);
    let data = common::acquire_with(&inst, &workload, &schedule, frames, true, 0.02, 31);
    let seq = MSequence::new(degree);
    let gen = FrameGenerator::new(&data, &inst.adc, 31);

    // The block budget: the accumulated block spans `frames` IMS frames.
    let block_period_s = frames as f64 * inst.frame_duration_s();

    let mut table = Table::new(
        "E3",
        "Deconvolution throughput per accumulated block (511 x m/z)",
        &["engine", "time/block (ms)", "blocks/s", "real-time margin"],
    );
    table.note(format!(
        "block = {} drift x {} m/z bins; acquisition period {:.1} ms; \
         all rows run the unified pipeline graph",
        n,
        mz_bins,
        block_period_s * 1e3
    ));

    let cfg = HybridConfig {
        frames,
        ..Default::default()
    };

    // Baseline row: the scalar per-column kernel (strided gather, fresh
    // allocations each column) on the same accumulated block — the path the
    // batched panel engine replaced. Same integer arithmetic, so the output
    // is bit-identical; only the schedule differs.
    {
        let core = ims_fpga::DeconvCore::new(&seq, cfg.deconv);
        let block: Vec<u64> = data
            .accumulated
            .data()
            .iter()
            .map(|&v| v.round() as u64)
            .collect();
        let secs = {
            let start = std::time::Instant::now();
            std::hint::black_box(core.deconvolve_columnwise(&block, mz_bins));
            start.elapsed().as_secs_f64()
        };
        table.row(vec![
            "software scalar-column (1 thr)".to_string(),
            f(secs * 1e3),
            f(1.0 / secs),
            f(block_period_s / secs),
        ]);
    }

    // Software rows: the pipeline with the software backend batching column
    // panels; time per block is the deconvolve stage's busy time from the
    // instrumented report.
    let mut counts = vec![1usize];
    if num_threads() > 1 {
        counts.push(num_threads());
    }
    for threads in counts {
        let result = run_hybrid_with_backend(
            &gen,
            &seq,
            &cfg,
            DeconvBackend::software(&seq, cfg.deconv, threads),
        );
        let secs = result
            .report
            .stage("deconvolve")
            .expect("deconvolve stage")
            .busy_seconds;
        table.row(vec![
            format!("software fixed-point ({threads} thr)"),
            f(secs * 1e3),
            f(1.0 / secs),
            f(block_period_s / secs),
        ]);
    }

    // FPGA rows: the same pipeline with the FWHT core; time per block from
    // the modelled cycle count at each device clock.
    for (device, cols, bfs) in [
        (FpgaDevice::xc2vp50(), 4usize, 4usize),
        (FpgaDevice::xc4vlx160(), 8, 8),
    ] {
        let fpga_cfg = HybridConfig {
            frames,
            deconv: DeconvConfig {
                parallel_columns: cols,
                butterflies_per_column: bfs,
                ..Default::default()
            },
            ..Default::default()
        };
        let result = run_hybrid_with_backend(
            &gen,
            &seq,
            &fpga_cfg,
            DeconvBackend::fpga(&seq, fpga_cfg.deconv),
        );
        let secs = result.deconv_cycles as f64 / device.clock_hz;
        table.row(vec![
            format!("FPGA model {} ({cols}col x {bfs}bf)", device.name),
            f(secs * 1e3),
            f(1.0 / secs),
            f(block_period_s / secs),
        ]);
    }

    table.note("shape target: FPGA model real-time with margin; 1-core software marginal");
    table
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
