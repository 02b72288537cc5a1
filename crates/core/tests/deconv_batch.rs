//! Property tests pinning down the batched panel engine's bit-identity:
//! for every deconvolution method, every panel width, and both executors,
//! the panel-blocked schedule computes exactly the same bits as the scalar
//! per-column reference path.

use htims_core::acquisition::{acquire, AcquireOptions, AcquiredData, GateSchedule};
use htims_core::deconvolution::{apply_columnwise, Deconvolver};
use htims_core::hybrid::{hybrid_pipeline, FrameGenerator, HybridConfig};
use htims_core::pipeline::DeconvBackend;
use htims_core::BatchDeconvolver;
use ims_physics::{Instrument, Workload};
use ims_prs::MSequence;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_block(degree: u32, mz: usize, seed: u64) -> (Instrument, GateSchedule, AcquiredData) {
    let n = (1usize << degree) - 1;
    let mut inst = Instrument::with_drift_bins(n);
    inst.tof.n_bins = mz;
    let workload = Workload::single_calibrant();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = acquire(
        &inst,
        &workload,
        &schedule,
        6,
        AcquireOptions::default(),
        &mut rng,
    );
    (inst, schedule, data)
}

const METHODS: [Deconvolver; 5] = [
    Deconvolver::Identity,
    Deconvolver::SimplexFast,
    Deconvolver::Exact,
    Deconvolver::Weighted { lambda: 1e-5 },
    Deconvolver::WeightedIdeal { lambda: 1e-4 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Non-power-of-two m/z widths exercise ragged tail panels; `mz` itself
    // as a width exercises the single-panel case; widths above `mz` clamp.
    #[test]
    fn batched_is_bit_identical_across_methods_and_widths(
        degree in 4u32..6,
        mz_idx in 0usize..3,
        seed in 0u64..100,
        method_idx in 0usize..5,
    ) {
        let mz = [37usize, 53, 70][mz_idx];
        let (_, schedule, data) = small_block(degree, mz, seed);
        let method = METHODS[method_idx];
        let solver = method.column_solver(&schedule, &data);
        let reference = apply_columnwise(&data.accumulated, |col| solver(col));
        for width in [1usize, 7, 64, mz] {
            let engine = BatchDeconvolver::new(&method, &schedule, &data)
                .with_panel_width(width);
            let serial = engine.deconvolve_map(&data.accumulated);
            let parallel = engine.deconvolve_map_parallel(&data.accumulated);
            for (i, (r, s)) in reference.data().iter().zip(serial.data().iter()).enumerate() {
                prop_assert_eq!(
                    r.to_bits(), s.to_bits(),
                    "{} width {} cell {}: {} vs {}", method.name(), width, i, r, s
                );
            }
            for (r, p) in reference.data().iter().zip(parallel.data().iter()) {
                prop_assert_eq!(r.to_bits(), p.to_bits());
            }
        }
    }

    // Every backend (FWHT FPGA model, naive MAC model, panel-parallel
    // software) on both executors produces the same integer words.
    #[test]
    fn backends_and_executors_agree_exactly(
        degree in 4u32..6,
        mz_idx in 0usize..2,
        seed in 0u64..50,
        threads in 1usize..3,
    ) {
        let mz = [19usize, 33][mz_idx];
        let (inst, _, data) = small_block(degree, mz, seed);
        let seq = MSequence::new(degree);
        let gen = FrameGenerator::new(&data, &inst.adc, seed ^ 0x5a);
        let cfg = HybridConfig { frames: 4, ..Default::default() };

        let mut reference: Option<Vec<i64>> = None;
        for backend_name in ["fpga", "naive", "software"] {
            for threaded in [false, true] {
                let backend =
                    DeconvBackend::from_name(backend_name, &seq, cfg.deconv, threads)
                        .expect("known backend");
                let graph = hybrid_pipeline(&gen, &seq, &cfg, 8, 4, true, backend);
                let out = if threaded { graph.run_threaded() } else { graph.run_inline() };
                let words: Vec<i64> = out
                    .blocks
                    .iter()
                    .flat_map(|b| b.data.iter().copied())
                    .collect();
                match &reference {
                    None => reference = Some(words),
                    Some(r) => prop_assert_eq!(
                        r, &words,
                        "{} ({} executor) diverged", backend_name,
                        if threaded { "threaded" } else { "inline" }
                    ),
                }
            }
        }
    }
}

/// The run report carries per-stage throughput: the deconvolve stage's cell
/// count matches the data volume, and the derived rates are populated.
#[test]
fn pipeline_report_populates_throughput_fields() {
    let degree = 6u32;
    let n = (1usize << degree) - 1;
    let mz = 64usize;
    let (inst, _, data) = small_block(degree, mz, 9);
    let seq = MSequence::new(degree);
    let gen = FrameGenerator::new(&data, &inst.adc, 9);
    let cfg = HybridConfig {
        frames: 4,
        ..Default::default()
    };
    let backend = DeconvBackend::software(&seq, cfg.deconv, 1);
    let blocks = 3u64;
    let out = hybrid_pipeline(&gen, &seq, &cfg, 4 * blocks, 4, false, backend).run_threaded();

    let stage = out.report.stage("deconvolve").expect("deconvolve stage");
    assert_eq!(stage.cells, blocks * (n * mz) as u64);
    assert!(stage.busy_seconds > 0.0);
    assert!(stage.mcells_per_second > 0.0);
    assert!(stage.items_per_second > 0.0);
    assert!(out.report.deconv_blocks_per_second > 0.0);
    assert!(out.report.deconv_mcells_per_second > 0.0);
    // Stages that do not process 2-D blocks report zero cells.
    assert_eq!(out.report.stage("link").expect("link stage").cells, 0);
}

/// Thread scaling must be monotone non-decreasing in effective threads:
/// requesting more threads than the machine has clamps to the machine
/// width instead of oversubscribing, so t=4 throughput is never worse
/// than t=1 beyond timing noise (on a 1-CPU machine both run the identical
/// serial path).
#[test]
fn thread_scaling_smoke_t4_not_slower_than_t1() {
    use htims_core::parallel::deconvolve_with_threads;
    let degree = 6u32;
    let (_, schedule, data) = small_block(degree, 96, 3);
    let method = Deconvolver::Weighted { lambda: 1e-6 };
    let best = |threads: usize| {
        (0..5)
            .map(|_| deconvolve_with_threads(&method, &schedule, &data, threads).1)
            .fold(f64::INFINITY, f64::min)
    };
    // Warm up the cost-model histogram and caches before timing.
    let _ = deconvolve_with_threads(&method, &schedule, &data, 4);
    let t1 = best(1);
    let t4 = best(4);
    // Generous tolerance: this is a monotonicity smoke test, not a perf
    // gate (the bench + compare workflow owns the real numbers).
    assert!(
        t4 <= t1 * 1.5 + 1e-3,
        "t=4 ({t4:.6}s) more than 1.5x slower than t=1 ({t1:.6}s)"
    );
    // Bit-identity across thread counts rides along for free.
    let (a, _) = deconvolve_with_threads(&method, &schedule, &data, 1);
    let (b, _) = deconvolve_with_threads(&method, &schedule, &data, 4);
    assert!(a
        .data()
        .iter()
        .zip(b.data().iter())
        .all(|(x, y)| x.to_bits() == y.to_bits()));
}
