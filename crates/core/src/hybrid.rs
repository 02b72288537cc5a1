//! The hybrid pipeline: a CPU producer streams raw frames over a
//! (simulated) DMA link to the FPGA model, which captures, accumulates, and
//! deconvolves; a collector receives the results.
//!
//! This is the paper's architecture in miniature: "the software portion is
//! in charge of streaming data to the FPGA and collecting results". The
//! crucial correctness property — the FPGA component computes *exactly*
//! what the software reference computes — is checkable here because the
//! whole datapath is integer/fixed-point and every frame is reproducible
//! from `(seed, frame_no)`.
//!
//! Every runner in this module is a thin wrapper over the same
//! [`pipeline`](crate::pipeline) stage graph: the hybrid runners use the
//! threaded executor (one thread per stage, bounded channels), the software
//! references use the inline executor — so "hybrid ≡ reference bit for
//! bit" is enforced by construction *and* still pinned by tests.

use crate::acquisition::AcquiredData;
use crate::pipeline::{
    AccumulateStage, BinnerStage, DeconvBackend, DeconvolveStage, FrameSource, LinkStage, Pipeline,
    PipelineReport,
};
use ims_fpga::deconv::DeconvConfig;
use ims_fpga::dma::DmaLink;
use ims_fpga::{AccumulatorCore, MzBinner};
use ims_prs::MSequence;
use ims_signal::noise::{gaussian, poisson};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Deterministic per-frame raw-data generator (the instrument's digitiser
/// output, frame by frame).
#[derive(Debug, Clone)]
pub struct FrameGenerator {
    expected_per_frame: Vec<f64>,
    drift_bins: usize,
    mz_bins: usize,
    gain: f64,
    gain_spread: f64,
    noise_sigma: f64,
    full_scale: f64,
    seed: u64,
}

impl FrameGenerator {
    /// Builds a generator from an acquisition's noise-free per-frame
    /// expectation (see [`AcquiredData::expected`]) and the instrument's
    /// ADC parameters.
    pub fn new(data: &AcquiredData, adc: &ims_physics::detector::AdcDetector, seed: u64) -> Self {
        Self {
            expected_per_frame: data.expected.data().to_vec(),
            drift_bins: data.expected.drift_bins(),
            mz_bins: data.expected.mz_bins(),
            gain: adc.gain,
            gain_spread: adc.gain_spread,
            noise_sigma: adc.noise_sigma,
            full_scale: adc.full_scale,
            seed,
        }
    }

    /// Number of drift bins per frame.
    pub fn drift_bins(&self) -> usize {
        self.drift_bins
    }

    /// Number of m/z bins per frame.
    pub fn mz_bins(&self) -> usize {
        self.mz_bins
    }

    /// Frame payload size, bytes.
    pub fn frame_bytes(&self) -> usize {
        self.drift_bins * self.mz_bins * 4
    }

    /// Generates frame `frame_no` — bit-reproducible for a given generator.
    pub fn frame(&self, frame_no: u64) -> Vec<u32> {
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ frame_no.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.expected_per_frame
            .iter()
            .map(|&mean| {
                let n = poisson(&mut rng, mean.max(0.0)) as f64;
                let amp = n * self.gain
                    + self.gain * self.gain_spread * n.sqrt() * gaussian(&mut rng)
                    + self.noise_sigma * gaussian(&mut rng);
                amp.clamp(0.0, self.full_scale).round() as u32
            })
            .collect()
    }
}

/// Configuration of a hybrid run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HybridConfig {
    /// Frames to stream.
    pub frames: u64,
    /// Bounded channel depth between producer and FPGA (back-pressure).
    pub channel_depth: usize,
    /// FPGA deconvolution configuration.
    pub deconv: DeconvConfig,
    /// Host-link model used for the simulated-time accounting.
    pub link: DmaLink,
    /// Optional on-chip m/z binning stage in front of the accumulator
    /// (frames arrive at the binner's fine resolution).
    pub binner: Option<MzBinner>,
    /// When set, the accumulate stage attaches a run index to blocks
    /// whose occupancy falls below the sparse threshold, and
    /// FWHT-capable deconvolution backends skip the empty columns
    /// (bit-identical output).
    #[serde(default)]
    pub sparse: bool,
    /// m/z-range shards the accumulate stage splits its RAM into (0 and 1
    /// both mean one shard, cycle-identical to the monolithic core; counts
    /// above the m/z width clamp). Output is bit-identical for every count.
    #[serde(default)]
    pub shards: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            frames: 32,
            channel_depth: 4,
            deconv: DeconvConfig::default(),
            link: DmaLink::rapidarray(),
            binner: None,
            sparse: false,
            shards: 0,
        }
    }
}

/// The accumulator's m/z width under a config (coarse when binning).
fn accumulator_mz_bins(cfg: &HybridConfig, gen: &FrameGenerator) -> usize {
    match &cfg.binner {
        Some(b) => {
            assert_eq!(
                b.fine_bins(),
                gen.mz_bins(),
                "binner input must match the frame resolution"
            );
            b.coarse_bins()
        }
        None => gen.mz_bins(),
    }
}

/// Assembles the standard hybrid stage graph for a config:
/// source → link → \[binner\] → accumulate → deconvolve.
///
/// `frames_per_block` sets the block cadence; `flush_remainder` keeps a
/// trailing partial block (batch semantics) instead of discarding it
/// (streaming semantics). Run the result with
/// [`Pipeline::run_threaded`] or [`Pipeline::run_inline`].
pub fn hybrid_pipeline(
    gen: &FrameGenerator,
    seq: &MSequence,
    cfg: &HybridConfig,
    total_frames: u64,
    frames_per_block: u64,
    flush_remainder: bool,
    backend: DeconvBackend,
) -> Pipeline {
    assert_eq!(
        seq.len(),
        gen.drift_bins(),
        "sequence length must equal drift bins"
    );
    let acc_mz = accumulator_mz_bins(cfg, gen);
    let mut p = Pipeline::new(
        FrameSource::new(gen.clone(), 0, total_frames),
        cfg.channel_depth,
    )
    .stage(LinkStage::new(cfg.link));
    if let Some(b) = &cfg.binner {
        p = p.stage(BinnerStage::new(b.clone(), gen.drift_bins()));
    }
    p.stage(
        AccumulateStage::new(
            AccumulatorCore::new(gen.drift_bins(), acc_mz, 32),
            frames_per_block.max(1),
            flush_remainder,
        )
        .with_sparse(cfg.sparse)
        .with_shards(cfg.shards.max(1))
        .with_rebuild_binner(cfg.binner.clone(), gen.drift_bins()),
    )
    .stage(
        DeconvolveStage::new(backend, acc_mz)
            .with_fallback(ims_fpga::deconv::DeconvCore::new(seq, cfg.deconv)),
    )
}

/// Result of a hybrid run.
#[derive(Debug, Clone)]
pub struct HybridResult {
    /// Deconvolved block, raw fixed-point words (drift-major).
    pub deconvolved_raw: Vec<i64>,
    /// Frames processed.
    pub frames: u64,
    /// FPGA cycles spent capturing.
    pub capture_cycles: u64,
    /// FPGA cycles spent deconvolving.
    pub deconv_cycles: u64,
    /// Simulated DMA transfer time for all frames, seconds.
    pub simulated_link_seconds: f64,
    /// Actual wall time of the simulation, seconds.
    pub wall_seconds: f64,
    /// Full per-stage instrumentation of the run.
    pub report: PipelineReport,
}

/// Runs the hybrid pipeline: producer thread → bounded channel ("DMA") →
/// FPGA model (capture + accumulate + deconvolve).
pub fn run_hybrid(gen: &FrameGenerator, seq: &MSequence, cfg: &HybridConfig) -> HybridResult {
    run_hybrid_with_backend(gen, seq, cfg, DeconvBackend::fpga(seq, cfg.deconv))
}

/// [`run_hybrid`] with an explicit deconvolution backend (FPGA FWHT core,
/// naive MAC core, or the scheduler software path — all bit-exact equals).
pub fn run_hybrid_with_backend(
    gen: &FrameGenerator,
    seq: &MSequence,
    cfg: &HybridConfig,
    backend: DeconvBackend,
) -> HybridResult {
    let out = hybrid_pipeline(gen, seq, cfg, cfg.frames, cfg.frames, true, backend).run_threaded();
    let report = out.report;
    let mut blocks = out.blocks;
    assert_eq!(blocks.len(), 1, "batch run must produce exactly one block");
    HybridResult {
        deconvolved_raw: blocks.pop().expect("one block").data,
        frames: cfg.frames,
        capture_cycles: report.capture_cycles,
        deconv_cycles: report.deconv_cycles,
        simulated_link_seconds: report.simulated_link_seconds,
        wall_seconds: report.wall_seconds,
        report,
    }
}

/// Single-threaded software reference of the exact same integer pipeline.
/// Must agree with [`run_hybrid`] bit for bit.
pub fn run_software_reference(
    gen: &FrameGenerator,
    seq: &MSequence,
    frames: u64,
    deconv_cfg: DeconvConfig,
) -> Vec<i64> {
    run_software_reference_range(gen, seq, 0, frames, deconv_cfg)
}

/// Software reference over an explicit frame range (frame numbers
/// `start..start + frames`) — the per-block oracle for the streaming
/// pipeline. Runs the same stage graph on the inline executor.
pub fn run_software_reference_range(
    gen: &FrameGenerator,
    seq: &MSequence,
    start: u64,
    frames: u64,
    deconv_cfg: DeconvConfig,
) -> Vec<i64> {
    let out = Pipeline::new(FrameSource::new(gen.clone(), start, frames), 1)
        .stage(AccumulateStage::new(
            AccumulatorCore::new(gen.drift_bins(), gen.mz_bins(), 32),
            frames.max(1),
            true,
        ))
        .stage(DeconvolveStage::new(
            DeconvBackend::fpga(seq, deconv_cfg),
            gen.mz_bins(),
        ))
        .run_inline();
    single_block(out.blocks)
}

/// Software reference of the *binned* integer pipeline (bin → accumulate →
/// deconvolve); the binned hybrid run must agree bit for bit.
pub fn run_software_reference_binned(
    gen: &FrameGenerator,
    seq: &MSequence,
    frames: u64,
    deconv_cfg: DeconvConfig,
    binner: &MzBinner,
) -> Vec<i64> {
    run_software_reference_binned_range(gen, seq, 0, frames, deconv_cfg, binner)
}

/// Binned software reference over an explicit frame range — the per-block
/// oracle for the streaming pipeline when on-chip binning is enabled.
pub fn run_software_reference_binned_range(
    gen: &FrameGenerator,
    seq: &MSequence,
    start: u64,
    frames: u64,
    deconv_cfg: DeconvConfig,
    binner: &MzBinner,
) -> Vec<i64> {
    assert_eq!(binner.fine_bins(), gen.mz_bins());
    let coarse = binner.coarse_bins();
    let out = Pipeline::new(FrameSource::new(gen.clone(), start, frames), 1)
        .stage(BinnerStage::new(binner.clone(), gen.drift_bins()))
        .stage(AccumulateStage::new(
            AccumulatorCore::new(gen.drift_bins(), coarse, 32),
            frames.max(1),
            true,
        ))
        .stage(DeconvolveStage::new(
            DeconvBackend::fpga(seq, deconv_cfg),
            coarse,
        ))
        .run_inline();
    single_block(out.blocks)
}

fn single_block(mut blocks: Vec<crate::pipeline::DeconvolvedBlock>) -> Vec<i64> {
    assert_eq!(blocks.len(), 1, "reference run must produce one block");
    blocks.pop().expect("one block").data
}

/// Result of a streaming (multi-block) hybrid run.
#[derive(Debug, Clone)]
pub struct StreamingResult {
    /// Deconvolved blocks, in order.
    pub blocks: Vec<Vec<i64>>,
    /// Frames accumulated per block.
    pub frames_per_block: u64,
    /// Wall time of the whole run, seconds.
    pub wall_seconds: f64,
    /// Sustained block rate, blocks/s of wall time.
    pub blocks_per_second: f64,
    /// Full per-stage instrumentation of the run.
    pub report: PipelineReport,
}

/// Continuous operation: the producer streams frames indefinitely while the
/// capture stage accumulates and hands finished blocks to a separate
/// deconvolution stage — the double-buffered structure of the real design,
/// run on the threaded executor (one thread per stage, bounded channels
/// providing back-pressure). Honours `cfg.binner`, exactly like
/// [`run_hybrid`].
pub fn run_hybrid_streaming(
    gen: &FrameGenerator,
    seq: &MSequence,
    cfg: &HybridConfig,
    n_blocks: usize,
) -> StreamingResult {
    run_hybrid_streaming_with_backend(
        gen,
        seq,
        cfg,
        n_blocks,
        DeconvBackend::fpga(seq, cfg.deconv),
    )
}

/// [`run_hybrid_streaming`] with an explicit deconvolution backend.
pub fn run_hybrid_streaming_with_backend(
    gen: &FrameGenerator,
    seq: &MSequence,
    cfg: &HybridConfig,
    n_blocks: usize,
    backend: DeconvBackend,
) -> StreamingResult {
    assert!(n_blocks >= 1);
    let frames_per_block = cfg.frames;
    let total_frames = frames_per_block * n_blocks as u64;
    let out = hybrid_pipeline(
        gen,
        seq,
        cfg,
        total_frames,
        frames_per_block,
        false,
        backend,
    )
    .run_threaded();
    let wall_seconds = out.report.wall_seconds;
    StreamingResult {
        blocks: out.blocks.into_iter().map(|b| b.data).collect(),
        frames_per_block,
        wall_seconds,
        blocks_per_second: n_blocks as f64 / wall_seconds,
        report: out.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::{acquire, AcquireOptions, GateSchedule};
    use ims_physics::{Instrument, Workload};

    fn generator(degree: u32, mz_bins: usize) -> (FrameGenerator, MSequence) {
        let bins = (1usize << degree) - 1;
        let mut inst = Instrument::with_drift_bins(bins);
        inst.tof.n_bins = mz_bins;
        let w = Workload::single_calibrant();
        let schedule = GateSchedule::multiplexed(degree);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let data = acquire(&inst, &w, &schedule, 1, AcquireOptions::default(), &mut rng);
        let seq = match schedule {
            GateSchedule::Multiplexed { seq } => seq,
            _ => unreachable!(),
        };
        (FrameGenerator::new(&data, &inst.adc, 99), seq)
    }

    #[test]
    fn frames_are_reproducible() {
        let (gen, _) = generator(5, 40);
        assert_eq!(gen.frame(3), gen.frame(3));
        assert_ne!(gen.frame(3), gen.frame(4));
    }

    #[test]
    fn hybrid_matches_software_reference_bit_for_bit() {
        let (gen, seq) = generator(6, 50);
        let cfg = HybridConfig {
            frames: 12,
            ..Default::default()
        };
        let hybrid = run_hybrid(&gen, &seq, &cfg);
        let reference = run_software_reference(&gen, &seq, 12, cfg.deconv);
        assert_eq!(hybrid.deconvolved_raw, reference);
        assert_eq!(hybrid.frames, 12);
        assert!(hybrid.capture_cycles > 0);
        assert!(hybrid.deconv_cycles > 0);
        assert!(hybrid.simulated_link_seconds > 0.0);
    }

    #[test]
    fn hybrid_report_exposes_stage_metrics() {
        let (gen, seq) = generator(5, 30);
        let cfg = HybridConfig {
            frames: 10,
            ..Default::default()
        };
        let result = run_hybrid(&gen, &seq, &cfg);
        let r = &result.report;
        assert_eq!(r.executor, "threaded");
        assert_eq!(r.backend, "fpga-fwht");
        assert_eq!(r.frames, 10);
        assert_eq!(r.blocks, 1);
        assert_eq!(r.frames_per_block, 10);
        let names: Vec<&str> = r.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["source", "link", "accumulate", "deconvolve"]);
        assert_eq!(r.stage("source").unwrap().items_out, 10);
        assert_eq!(r.stage("link").unwrap().items_in, 10);
        assert_eq!(r.stage("accumulate").unwrap().items_out, 1);
        assert_eq!(r.stage("deconvolve").unwrap().items_out, 1);
        // The report is the JSON surface of the htims subcommand.
        assert!(serde_json::to_string(r)
            .unwrap()
            .contains("queue_high_water"));
    }

    #[test]
    fn backpressure_channel_depth_one_still_correct() {
        let (gen, seq) = generator(5, 30);
        let cfg = HybridConfig {
            frames: 8,
            channel_depth: 1,
            ..Default::default()
        };
        let hybrid = run_hybrid(&gen, &seq, &cfg);
        let reference = run_software_reference(&gen, &seq, 8, cfg.deconv);
        assert_eq!(hybrid.deconvolved_raw, reference);
    }

    #[test]
    fn all_backends_agree_bit_for_bit() {
        let (gen, seq) = generator(5, 24);
        let cfg = HybridConfig {
            frames: 6,
            ..Default::default()
        };
        let fpga = run_hybrid_with_backend(&gen, &seq, &cfg, DeconvBackend::fpga(&seq, cfg.deconv));
        let naive =
            run_hybrid_with_backend(&gen, &seq, &cfg, DeconvBackend::naive(&seq, cfg.deconv));
        let soft = run_hybrid_with_backend(
            &gen,
            &seq,
            &cfg,
            DeconvBackend::software(&seq, cfg.deconv, 3),
        );
        assert_eq!(fpga.deconvolved_raw, naive.deconvolved_raw);
        assert_eq!(fpga.deconvolved_raw, soft.deconvolved_raw);
        assert_eq!(naive.report.backend, "naive-mac");
        assert_eq!(soft.report.backend, "software");
        // The backends model different engines, so cycle counts differ
        // (the naive MAC array is the slow baseline).
        assert!(naive.deconv_cycles > fpga.deconv_cycles);
    }

    #[test]
    fn binned_hybrid_matches_binned_reference_bit_for_bit() {
        let (gen, seq) = generator(6, 60);
        let binner = MzBinner::uniform(60, 12);
        let cfg = HybridConfig {
            frames: 16,
            binner: Some(binner.clone()),
            ..Default::default()
        };
        let hybrid = run_hybrid(&gen, &seq, &cfg);
        let reference = run_software_reference_binned(&gen, &seq, 16, cfg.deconv, &binner);
        assert_eq!(hybrid.deconvolved_raw, reference);
        assert_eq!(hybrid.deconvolved_raw.len(), seq.len() * 12);
    }

    #[test]
    fn streaming_blocks_match_per_block_references() {
        let (gen, seq) = generator(6, 40);
        let cfg = HybridConfig {
            frames: 6,
            ..Default::default()
        };
        let result = run_hybrid_streaming(&gen, &seq, &cfg, 4);
        assert_eq!(result.blocks.len(), 4);
        assert_eq!(result.frames_per_block, 6);
        assert!(result.blocks_per_second > 0.0);
        for (b, block) in result.blocks.iter().enumerate() {
            let reference = run_software_reference_range(&gen, &seq, b as u64 * 6, 6, cfg.deconv);
            assert_eq!(block, &reference, "block {b} diverged");
        }
        // Different frames ⇒ different blocks (noise differs per frame).
        assert_ne!(result.blocks[0], result.blocks[1]);
    }

    #[test]
    fn streaming_with_binner_matches_binned_per_block_references() {
        // Regression test: the hand-wired streaming pipeline silently
        // ignored `cfg.binner`; the unified graph honours it.
        let (gen, seq) = generator(6, 48);
        let binner = MzBinner::uniform(48, 8);
        let cfg = HybridConfig {
            frames: 5,
            binner: Some(binner.clone()),
            ..Default::default()
        };
        let result = run_hybrid_streaming(&gen, &seq, &cfg, 3);
        assert_eq!(result.blocks.len(), 3);
        for (b, block) in result.blocks.iter().enumerate() {
            assert_eq!(block.len(), seq.len() * 8, "block {b} is unbinned");
            let reference = run_software_reference_binned_range(
                &gen,
                &seq,
                b as u64 * 5,
                5,
                cfg.deconv,
                &binner,
            );
            assert_eq!(block, &reference, "block {b} diverged");
        }
        assert!(result.report.binner_cycles > 0);
    }

    #[test]
    fn deconvolved_block_recovers_calibrant_peak() {
        let (gen, seq) = generator(7, 60);
        let cfg = HybridConfig {
            frames: 64,
            ..Default::default()
        };
        let result = run_hybrid(&gen, &seq, &cfg);
        // Collapse to a drift profile and locate the apex.
        let n = seq.len();
        let mz = gen.mz_bins();
        let profile: Vec<f64> = (0..n)
            .map(|d| {
                result.deconvolved_raw[d * mz..(d + 1) * mz]
                    .iter()
                    .map(|&v| v as f64)
                    .sum()
            })
            .collect();
        let (apex, peak) = ims_signal::stats::argmax(&profile).unwrap();
        assert!(peak > 0.0);
        // The calibrant must land within the drift window interior.
        assert!(apex > 5 && apex < n - 5, "apex {apex}");
    }
}
