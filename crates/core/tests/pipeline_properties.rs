//! Property tests of the pipeline executors: output must be invariant to
//! channel depth (back-pressure intensity), executor choice (inline vs
//! threaded on the work-stealing scheduler), and deconvolution backend (all
//! backends are bit-exact equals).

use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::hybrid::{
    hybrid_pipeline, run_hybrid_streaming_with_backend, run_software_reference_binned_range,
    run_software_reference_range, FrameGenerator, HybridConfig,
};
use htims_core::pipeline::{output_fingerprint, DeconvBackend};
use ims_fpga::MzBinner;
use ims_prs::MSequence;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn generator(degree: u32, mz_bins: usize) -> (FrameGenerator, MSequence) {
    let bins = (1usize << degree) - 1;
    let mut inst = ims_physics::Instrument::with_drift_bins(bins);
    inst.tof.n_bins = mz_bins;
    let w = ims_physics::Workload::single_calibrant();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let data = acquire(&inst, &w, &schedule, 1, AcquireOptions::default(), &mut rng);
    let seq = match schedule {
        GateSchedule::Multiplexed { seq } => seq,
        _ => unreachable!(),
    };
    (FrameGenerator::new(&data, &inst.adc, 42), seq)
}

fn backend(idx: usize, seq: &MSequence, cfg: &HybridConfig) -> DeconvBackend {
    match idx {
        0 => DeconvBackend::fpga(seq, cfg.deconv),
        1 => DeconvBackend::naive(seq, cfg.deconv),
        _ => DeconvBackend::software(seq, cfg.deconv, 2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn output_invariant_to_depth_backend_and_executor(
        depth_idx in 0usize..3,
        backend_idx in 0usize..3,
        frames in 1u64..8,
        n_blocks in 1usize..4,
    ) {
        let (gen, seq) = generator(5, 18);
        let cfg = HybridConfig {
            frames,
            channel_depth: [1usize, 2, 8][depth_idx],
            ..Default::default()
        };
        // Threaded executor, varying depth and backend…
        let streaming = run_hybrid_streaming_with_backend(
            &gen, &seq, &cfg, n_blocks, backend(backend_idx, &seq, &cfg));
        prop_assert_eq!(streaming.blocks.len(), n_blocks);
        // …must match the inline FPGA-backend reference block for block.
        for (b, block) in streaming.blocks.iter().enumerate() {
            let reference = run_software_reference_range(
                &gen, &seq, b as u64 * frames, frames, cfg.deconv);
            prop_assert_eq!(block, &reference);
        }
    }

    #[test]
    fn binned_output_invariant_to_depth_and_backend(
        depth_idx in 0usize..3,
        backend_idx in 0usize..3,
        frames in 1u64..6,
    ) {
        let (gen, seq) = generator(5, 24);
        let binner = MzBinner::uniform(24, 6);
        let cfg = HybridConfig {
            frames,
            channel_depth: [1usize, 2, 8][depth_idx],
            binner: Some(binner.clone()),
            ..Default::default()
        };
        let streaming = run_hybrid_streaming_with_backend(
            &gen, &seq, &cfg, 2, backend(backend_idx, &seq, &cfg));
        prop_assert_eq!(streaming.blocks.len(), 2);
        for (b, block) in streaming.blocks.iter().enumerate() {
            let reference = run_software_reference_binned_range(
                &gen, &seq, b as u64 * frames, frames, cfg.deconv, &binner);
            prop_assert_eq!(block, &reference);
        }
    }

    #[test]
    fn output_invariant_across_inline_threaded_and_scheduled(
        depth_idx in 0usize..3,
        backend_idx in 0usize..3,
        frames in 1u64..8,
        n_blocks in 1usize..4,
    ) {
        let (gen, seq) = generator(5, 18);
        let cfg = HybridConfig {
            frames,
            channel_depth: [1usize, 2, 8][depth_idx],
            ..Default::default()
        };
        let total = frames * n_blocks as u64;
        let build = || hybrid_pipeline(
            &gen, &seq, &cfg, total, frames, false, backend(backend_idx, &seq, &cfg));
        // The same graph under both executors: the single-thread
        // reference and the work-stealing runtime must produce
        // bit-identical block streams.
        let inline = build().run_inline();
        let threaded = build().run_threaded();
        prop_assert_eq!(inline.blocks.len(), n_blocks);
        let reference = output_fingerprint(&inline.blocks);
        prop_assert_eq!(output_fingerprint(&threaded.blocks), reference);
        // Report tags still distinguish the entry points.
        prop_assert_eq!(inline.report.executor.as_str(), "inline");
        prop_assert_eq!(threaded.report.executor.as_str(), "threaded");
    }
}
