//! E3 bench: per-block deconvolution throughput — software methods vs the
//! integer FPGA-model datapath (same block as the E3 table).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::deconvolution::Deconvolver;
use htims_core::hybrid::{run_hybrid, FrameGenerator, HybridConfig};
use ims_fpga::deconv::{DeconvConfig, DeconvCore};
use ims_physics::{Instrument, Workload};
use ims_prs::MSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_block(c: &mut Criterion) {
    let degree = 9u32;
    let n = (1usize << degree) - 1;
    let mz_bins = 200;
    let mut inst = Instrument::with_drift_bins(n);
    inst.tof.n_bins = mz_bins;
    let workload = Workload::three_peptide_mix();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let data = acquire(
        &inst,
        &workload,
        &schedule,
        10,
        AcquireOptions::default(),
        &mut rng,
    );

    let mut group = c.benchmark_group("e3_block_deconvolution");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for method in [
        Deconvolver::SimplexFast,
        Deconvolver::Weighted { lambda: 1e-6 },
    ] {
        group.bench_with_input(
            BenchmarkId::new("software", method.name()),
            &method,
            |b, m| b.iter(|| black_box(m.deconvolve(&schedule, &data))),
        );
    }

    // Integer FPGA-model datapath (the functional simulation itself).
    let seq = MSequence::new(degree);
    let block: Vec<u64> = data
        .accumulated
        .data()
        .iter()
        .map(|&v| v.round() as u64)
        .collect();
    group.bench_function("fpga_model_integer_path", |b| {
        b.iter(|| {
            let core = DeconvCore::new(&seq, DeconvConfig::default());
            black_box(core.deconvolve_block(&block, mz_bins))
        })
    });

    // The whole unified pipeline graph, end to end (threaded executor):
    // source → link → accumulate → deconvolve over a small batch.
    let gen = FrameGenerator::new(&data, &inst.adc, 3);
    let cfg = HybridConfig {
        frames: 2,
        ..Default::default()
    };
    group.bench_function("unified_pipeline_threaded", |b| {
        b.iter(|| black_box(run_hybrid(&gen, &seq, &cfg)))
    });
    group.finish();
}

criterion_group!(benches, bench_block);
criterion_main!(benches);
