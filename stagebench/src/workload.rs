//! The benchmark's workloads, their set-up, and one timed round of the
//! stage graph.

use crate::probe::{LayerRecord, Probe, Sink};
use crate::stats::process_cpu_s;
use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::hybrid::{hybrid_pipeline, FrameGenerator, HybridConfig};
use htims_core::pipeline::{
    output_fingerprint, AccumulateStage, BinnerStage, DeconvBackend, DeconvolveStage,
    DeconvolvedBlock, FrameSource, LinkStage, Pipeline, PipelineReport, RunOutcome,
    SchedStatsSnapshot, Scheduler,
};
use ims_fpga::deconv::DeconvCore;
use ims_fpga::dma::FramePacket;
use ims_fpga::{AccumulatorCore, MzBinner};
use ims_physics::{Instrument, Workload};
use ims_prs::MSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// PRS degree of every workload: 511 drift bins, the paper's E3 frame.
const DEGREE: u32 = 9;
/// Accumulator word width, as `hybrid_pipeline` builds it.
const ACC_BITS: u32 = 32;
/// Frames generated before the timed window and replayed cyclically: a
/// whole number of blocks for every workload.
pub const POOL_FRAMES: u64 = 20;
/// Blocks the untimed warm-up round produces at least.
const WARMUP_BLOCKS: u64 = 5;

/// One named workload: an acquisition shape plus a `HybridConfig`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// m/z bins per source frame.
    pub mz: usize,
    /// Coarse m/z bins of the on-chip binner, when there is one.
    pub coarse: Option<usize>,
    pub frames_per_block: u64,
    /// `fpga` | `naive` | `software`.
    pub backend: &'static str,
    pub shards: usize,
    pub sparse: bool,
    /// ADC electronic noise off, so frames are mostly empty.
    pub quiet_adc: bool,
    /// The stage expected to bound throughput.
    pub predicted_bottleneck: &'static str,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "e3_dense",
        why: "the paper's E3 block: 511 x 1000, 20 frames/block, noisy ADC, software deconv",
        mz: 1000,
        coarse: None,
        frames_per_block: 20,
        backend: "software",
        shards: 1,
        sparse: false,
        quiet_adc: false,
        predicted_bottleneck: "accumulate",
    },
    Spec {
        name: "short_blocks",
        why: "same frames at 2 frames/block, so deconvolve and its slab fan-out bound the loop",
        mz: 1000,
        coarse: None,
        frames_per_block: 2,
        backend: "software",
        shards: 1,
        sparse: false,
        quiet_adc: false,
        predicted_bottleneck: "deconvolve",
    },
    Spec {
        name: "sparse_sharded",
        why: "noise-free ADC, 4 m/z shards, sparse on: the only run of shard merge, CSR and skip-zero",
        mz: 1000,
        coarse: None,
        frames_per_block: 4,
        backend: "software",
        shards: 4,
        sparse: true,
        quiet_adc: true,
        predicted_bottleneck: "accumulate",
    },
    Spec {
        name: "xd1_binned",
        why: "E4's XD1 shape: 2000 m/z binned on chip to 100, fpga backend; the only binner run",
        mz: 2000,
        coarse: Some(100),
        frames_per_block: 20,
        backend: "fpga",
        shards: 1,
        sparse: false,
        quiet_adc: false,
        predicted_bottleneck: "binner",
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub acquire_s: f64,
    pub frame_gen_s: f64,
    pub reference_s: f64,
}

/// Everything the timed window needs, built before it starts.
pub struct Prepared {
    pub spec: &'static Spec,
    gen: FrameGenerator,
    seq: MSequence,
    cfg: HybridConfig,
    pool: Vec<FramePacket>,
    /// Output of the pool on the inline executor: output block `b` of any
    /// run must hold the data of `reference[b % reference.len()]`.
    reference: Vec<Vec<i64>>,
    /// `output_fingerprint` of each reference block.
    pub reference_fnv: Vec<u64>,
    /// Stage names of the graph `hybrid_pipeline` builds for this config.
    pub canonical_stages: Vec<String>,
    /// `Instrument::frame_duration_s()` of the acquisition.
    pub frame_duration_s: f64,
    pub times: SetupTimes,
    /// The warm-up round (checked like any other).
    pub warmup: Round,
}

impl Prepared {
    /// Acquires, generates the frame pool, computes the reference on the
    /// inline executor, and runs one untimed warm-up round.
    pub fn new(spec: &'static Spec, seed: u64) -> Result<Self, String> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let drift = (1usize << DEGREE) - 1;
        let mut inst = Instrument::with_drift_bins(drift);
        inst.tof.n_bins = spec.mz;
        if spec.quiet_adc {
            inst.adc.noise_sigma = 0.0;
        }
        let schedule = GateSchedule::multiplexed(DEGREE);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data = acquire(
            &inst,
            &Workload::three_peptide_mix(),
            &schedule,
            1,
            AcquireOptions::default(),
            &mut rng,
        );
        let GateSchedule::Multiplexed { seq } = schedule else {
            unreachable!("multiplexed() builds a multiplexed schedule")
        };
        // Same frame-stream seed offset as `htims pipeline`.
        let gen = FrameGenerator::new(&data, &inst.adc, seed.wrapping_add(1227));
        let cfg = HybridConfig {
            frames: spec.frames_per_block,
            binner: spec.coarse.map(|c| MzBinner::uniform(spec.mz, c)),
            sparse: spec.sparse,
            shards: spec.shards,
            ..Default::default()
        };
        times.acquire_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let pool = generate_pool(&gen, POOL_FRAMES);
        times.frame_gen_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let fpb = spec.frames_per_block;
        let out = hybrid_pipeline(
            &gen,
            &seq,
            &cfg,
            POOL_FRAMES,
            fpb,
            false,
            backend(spec, &seq, &cfg)?,
        )
        .with_replay_source(pool.clone())
        .run_inline();
        if out.report.outcome != RunOutcome::Completed
            || out.blocks.len() as u64 != POOL_FRAMES / fpb
        {
            return Err(format!(
                "reference run ended {:?} with {} blocks",
                out.report.outcome,
                out.blocks.len()
            ));
        }
        let reference_fnv = out
            .blocks
            .iter()
            .map(|b| output_fingerprint(std::slice::from_ref(b)))
            .collect();
        let canonical_stages = out.report.stages.iter().map(|s| s.name.clone()).collect();
        let reference = out.blocks.into_iter().map(|b| b.data).collect();
        times.reference_s = t.elapsed().as_secs_f64();

        let mut prepared = Self {
            spec,
            gen,
            seq,
            cfg,
            pool,
            reference,
            reference_fnv,
            canonical_stages,
            frame_duration_s: inst.frame_duration_s(),
            times,
            warmup: Round::default(),
        };
        prepared.warmup = prepared.run_round((2 * POOL_FRAMES).max(WARMUP_BLOCKS * fpb), false)?;
        Ok(prepared)
    }

    /// The graph `hybrid_pipeline` assembles, with every stage wrapped in a
    /// [`Probe`], replaying the pool cyclically for `frames` frames.
    fn graph(&self, frames: u64, traced: bool, sink: &Sink) -> Result<Pipeline, String> {
        let spec = self.spec;
        let drift = self.gen.drift_bins();
        let acc_mz = self
            .cfg
            .binner
            .as_ref()
            .map_or(self.gen.mz_bins(), MzBinner::coarse_bins);
        let probe = |stage| Probe::new(stage, traced, sink.clone());
        let mut g = Pipeline::new(
            FrameSource::new(self.gen.clone(), 0, frames),
            self.cfg.channel_depth,
        )
        .stage(probe(LinkStage::new(self.cfg.link)));
        if let Some(b) = &self.cfg.binner {
            g = g.stage(Probe::new(
                BinnerStage::new(b.clone(), drift),
                traced,
                sink.clone(),
            ));
        }
        let accumulate = AccumulateStage::new(
            AccumulatorCore::new(drift, acc_mz, ACC_BITS),
            spec.frames_per_block,
            false,
        )
        .with_sparse(self.cfg.sparse)
        .with_shards(self.cfg.shards.max(1))
        .with_rebuild_binner(self.cfg.binner.clone(), drift);
        let deconvolve = DeconvolveStage::new(backend(spec, &self.seq, &self.cfg)?, acc_mz)
            .with_fallback(DeconvCore::new(&self.seq, self.cfg.deconv));
        let pool = self.pool.len() as u64;
        let packets = (0..frames)
            .map(|k| {
                let mut p = self.pool[(k % pool) as usize].clone();
                p.seq_no = k;
                p
            })
            .collect();
        Ok(g.stage(Probe::new(accumulate, traced, sink.clone()))
            .stage(Probe::new(deconvolve, traced, sink.clone()))
            .with_replay_source(packets))
    }

    /// Runs the probed graph over `frames` frames on the threaded executor,
    /// then, outside the measured span, checks every block it produced.
    pub fn run_round(&self, frames: u64, traced: bool) -> Result<Round, String> {
        let fpb = self.spec.frames_per_block;
        let frames = frames.div_ceil(fpb).max(1) * fpb;
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        let graph = self.graph(frames, traced, &sink)?;
        let sched = Scheduler::global();
        let s0 = sched.stats();
        let cpu0 = process_cpu_s();
        let out = graph.run_threaded();
        let cpu_s = process_cpu_s() - cpu0;
        let (sched_delta, sched_ok) = quiescent_delta(sched, &s0);
        let records = std::mem::take(&mut *sink.lock().expect("probe sink poisoned"));
        let good = if out.blocks.len() as u64 == frames / fpb {
            self.good_blocks(&out.blocks)
        } else {
            0
        };
        Ok(Round::assemble(
            self,
            frames,
            traced,
            out.report,
            good,
            records,
            cpu_s,
            sched_delta,
            sched_ok,
        ))
    }

    /// Output blocks that sit at their place in block order and equal the
    /// reference block they map to.
    fn good_blocks(&self, blocks: &[DeconvolvedBlock]) -> u64 {
        let n = self.reference.len() as u64;
        blocks
            .iter()
            .enumerate()
            .filter(|&(i, b)| {
                b.index == i as u64
                    && b.frames == self.spec.frames_per_block
                    && b.data == self.reference[(b.index % n) as usize]
            })
            .count() as u64
    }
}

fn backend(spec: &Spec, seq: &MSequence, cfg: &HybridConfig) -> Result<DeconvBackend, String> {
    // threads = 0: the software backend shares the global scheduler pool.
    DeconvBackend::from_name(spec.backend, seq, cfg.deconv, 0)
        .ok_or_else(|| format!("unknown backend {}", spec.backend))
}

/// Generates frames `0..n` on every core. Payloads are `Bytes`, so the
/// cyclic replay later shares them instead of copying.
fn generate_pool(gen: &FrameGenerator, n: u64) -> Vec<FramePacket> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |v| v.get())
        .min(n as usize)
        .max(1) as u64;
    let mut pool: Vec<FramePacket> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w..n)
                        .step_by(workers as usize)
                        .map(|i| FramePacket::from_words(i, &gen.frame(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("frame generator thread panicked"))
            .collect()
    });
    pool.sort_by_key(|p| p.seq_no);
    pool
}

/// The scheduler's counter delta since `s0`, read once the pool is idle:
/// `(delta, local_pops + injector_pops + steals == executed)`. A worker
/// can sit between its pop and its `executed` bump for a moment after the
/// run joins, so the identity is polled for up to 200 ms before it counts
/// as violated.
fn quiescent_delta(sched: &Scheduler, s0: &SchedStatsSnapshot) -> (SchedStatsSnapshot, bool) {
    let mut delta = diff(&sched.stats(), s0);
    for _ in 0..200 {
        if delta.local_pops + delta.injector_pops + delta.steals == delta.executed {
            return (delta, true);
        }
        std::thread::sleep(Duration::from_millis(1));
        delta = diff(&sched.stats(), s0);
    }
    (delta, false)
}

fn diff(a: &SchedStatsSnapshot, b: &SchedStatsSnapshot) -> SchedStatsSnapshot {
    SchedStatsSnapshot {
        local_pops: a.local_pops - b.local_pops,
        injector_pops: a.injector_pops - b.injector_pops,
        steals: a.steals - b.steals,
        executed: a.executed - b.executed,
        parks: a.parks - b.parks,
        wakes: a.wakes - b.wakes,
        dwell_samples: a.dwell_samples - b.dwell_samples,
    }
}

/// The checked outcome of one run of the graph.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    pub frames: u64,
    pub blocks_expected: u64,
    /// Blocks missing, blocks whose data differs from the reference, and
    /// every block of a run that did not end `Completed`.
    pub blocks_bad: u64,
    /// Stage names of the run's report.
    pub stages: Vec<String>,
    /// First frame emitted to last block out, seconds.
    pub wall_s: f64,
    /// Process CPU (user + system) over the run, seconds.
    pub cpu_s: f64,
    /// Per-block latency, ms: the first frame-data stage starting on the
    /// block's last frame to the block leaving the deconvolve stage.
    pub latency_ms: Vec<f64>,
    pub sched: Option<SchedStatsSnapshot>,
    pub sched_ok: bool,
    pub report: Option<PipelineReport>,
    pub records: Vec<LayerRecord>,
    /// [`crate::host`] probe time around the round, ms.
    pub host_ms: f64,
}

impl Round {
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        p: &Prepared,
        frames: u64,
        traced: bool,
        report: PipelineReport,
        good: u64,
        records: Vec<LayerRecord>,
        cpu_s: f64,
        sched: SchedStatsSnapshot,
        sched_ok: bool,
    ) -> Self {
        let fpb = p.spec.frames_per_block;
        let expected = frames / fpb;
        // A block's latency runs from its last frame reaching the first
        // stage that works on frame data (the binner, else accumulate):
        // the frames queued ahead of it in the source-side inboxes are left
        // out, because a closed loop keeps those inboxes full.
        let first = if p.cfg.binner.is_some() {
            "binner"
        } else {
            "accumulate"
        };
        let frame_start: BTreeMap<u64, u64> = records
            .iter()
            .filter(|r| r.name == first)
            .flat_map(|r| r.frame_start_ns.iter().copied())
            .collect();
        let out: BTreeMap<u64, u64> = records
            .iter()
            .flat_map(|r| r.block_out_ns.iter().copied())
            .collect();
        let bad = if report.outcome == RunOutcome::Completed {
            expected - good.min(expected)
        } else {
            expected
        };
        let latency_ms = out
            .iter()
            .filter_map(|(i, &t_out)| {
                frame_start
                    .get(&(i * fpb + fpb - 1))
                    .map(|&t_in| t_out.saturating_sub(t_in) as f64 / 1e6)
            })
            .collect();
        let first = records.iter().filter_map(|r| r.first_origin_ns).min();
        let last = out.values().copied().max();
        let wall_s = match (first, last) {
            (Some(a), Some(b)) if b > a => (b - a) as f64 / 1e9,
            _ => report.wall_seconds,
        };
        Self {
            traced,
            frames,
            blocks_expected: expected,
            blocks_bad: bad,
            stages: report.stages.iter().map(|s| s.name.clone()).collect(),
            wall_s,
            cpu_s,
            latency_ms,
            sched: Some(sched),
            sched_ok,
            report: Some(report),
            records,
            host_ms: 0.0,
        }
    }

    /// Frames processed × frame duration ÷ wall time.
    pub fn realtime_margin(&self, frame_duration_s: f64) -> f64 {
        self.frames as f64 * frame_duration_s / self.wall_s
    }

    pub fn cpu_ms_per_block(&self) -> f64 {
        self.cpu_s * 1e3 / self.blocks_expected.max(1) as f64
    }

    /// How much slower than on the nominal host this round ran, by the
    /// probes around it (> 1 is slower); a timing divided by it is scaled
    /// to the nominal host.
    pub fn host_scale(&self) -> f64 {
        crate::host::slowdown(self.host_ms, crate::host::ROUND_EXPONENT)
    }
}
