//! The concrete stages of the hybrid datapath.

use super::error::SupervisorConfig;
use super::{Block, DeconvolvedBlock, Message, ObsTap, PipelineReport, Stage};
use crate::capture::CaptureLog;
use crate::fault::FaultInjector;
use crate::hybrid::FrameGenerator;
use crate::parallel::{deconvolve_fixed_point, Workers};
use ims_fpga::deconv::{DeconvConfig, DeconvCore};
use ims_fpga::deconv_naive::{NaiveConfig, NaiveMacCore};
use ims_fpga::dma::{DmaLink, FramePacket};
use ims_fpga::{AccumulatorCore, MzBinner, ShardedAccumulator, SparseBlock};
use ims_prs::MSequence;
use std::sync::Arc;

/// The head of the graph: generates reproducible raw frames on demand
/// (the instrument's digitiser, frame by frame).
#[derive(Debug, Clone)]
pub struct FrameSource {
    gen: FrameGenerator,
    first_frame: u64,
    frames: u64,
    /// Stamp packets with an FNV-1a payload checksum so downstream stages
    /// can detect in-flight corruption. Off on the default hot path (no
    /// hash is computed); the executor turns it on when faults are armed.
    checked: bool,
    /// When set, the source replays these pre-captured packets instead of
    /// generating frames — `htims pipeline --replay`. Original checksums
    /// ride along, so downstream corruption and quarantine behave exactly
    /// as in the captured run.
    replay: Option<Arc<Vec<FramePacket>>>,
    /// When set, every emitted packet is appended to the capture log
    /// (before any link-stage corruption — the log holds pristine frames).
    capture: Option<CaptureLog>,
}

impl FrameSource {
    /// A source producing frames `first_frame .. first_frame + frames`.
    pub fn new(gen: FrameGenerator, first_frame: u64, frames: u64) -> Self {
        Self {
            gen,
            first_frame,
            frames,
            checked: false,
            replay: None,
            capture: None,
        }
    }

    /// Number of frames this source will emit.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Turns payload checksumming on (the executor arms this together
    /// with the fault injector).
    pub(super) fn set_checked(&mut self, on: bool) {
        self.checked = on;
    }

    /// Switches this source to replaying `packets` (in order), overriding
    /// the generator and frame count.
    pub(super) fn set_replay(&mut self, packets: Arc<Vec<FramePacket>>) {
        self.frames = packets.len() as u64;
        self.replay = Some(packets);
    }

    /// Attaches a capture log; every packet this source emits from here
    /// on is appended to it.
    pub(super) fn set_capture(&mut self, log: CaptureLog) {
        self.capture = Some(log);
    }

    /// The i-th packet (`i < frames`).
    pub(super) fn packet(&self, i: u64) -> FramePacket {
        if let Some(packets) = &self.replay {
            // Re-stamp the origin so end-to-end latency measures this
            // run's packing time, not the captured run's.
            return packets[i as usize]
                .clone()
                .with_origin(ims_obs::trace::now_ns());
        }
        let frame_no = self.first_frame + i;
        let words = self.gen.frame(frame_no);
        let packet = if self.checked {
            FramePacket::from_words_checked(frame_no, &words)
        } else {
            FramePacket::from_words(frame_no, &words)
        };
        if let Some(log) = &self.capture {
            // A failed append must never take the run down: the log is a
            // recovery aid, and a run without one merely degrades harder.
            if let Err(err) = log.append(&packet) {
                ims_obs::static_counter!("capture.append_failed").incr();
                eprintln!("warning: capture-log append failed: {err}");
            }
        }
        packet
    }
}

/// Accounts simulated DMA-link time for every frame that crosses it.
///
/// Pass-through on the data: the link moves bytes, it does not change them.
#[derive(Debug, Clone)]
pub struct LinkStage {
    link: DmaLink,
    seconds: f64,
    /// When armed, the DMA bit-flip fault site: payload bits flip *after*
    /// the source's checksum was taken, so downstream integrity checks
    /// see real corruption.
    injector: Option<FaultInjector>,
}

impl LinkStage {
    /// Wraps a link model.
    pub fn new(link: DmaLink) -> Self {
        Self {
            link,
            seconds: 0.0,
            injector: None,
        }
    }
}

impl Stage for LinkStage {
    fn name(&self) -> &'static str {
        "link"
    }

    fn process(&mut self, mut msg: Message, emit: &mut dyn FnMut(Message)) {
        if let Message::Frame(p) = &mut msg {
            self.seconds += self.link.transfer_time_s(p.len_bytes());
            if let Some(inj) = &self.injector {
                inj.corrupt_packet(p);
            }
        }
        emit(msg);
    }

    fn finalize(&mut self, report: &mut PipelineReport) {
        report.simulated_link_seconds += self.seconds;
    }

    fn arm_faults(&mut self, injector: &FaultInjector, _supervisor: &SupervisorConfig) {
        self.injector = Some(injector.clone());
    }
}

/// The integrity gate run by the first frame-*consuming* stage (the binner
/// when present, else the accumulator): `true` admits the frame (it passed
/// its checksum, or carried none). A corrupted frame is quarantined:
/// counted, traced, recorded in the flight ring and dropped, so the run
/// degrades instead of dying.
fn admit_frame(p: &FramePacket, quarantined: &mut u64, obs: &Option<ObsTap>) -> bool {
    if p.verify() {
        return true;
    }
    *quarantined += 1;
    ims_obs::static_counter!("pipeline.frames_quarantined").incr();
    ims_obs::instant("fault", "quarantine");
    if let Some(tap) = obs {
        tap.record(ims_obs::FlightKind::Quarantine, p.seq_no);
    }
    false
}

/// On-chip m/z binning: folds each fine-resolution frame into a coarse one
/// before it reaches the accumulator (the stage that makes capture fit the
/// FPGA's block RAM — see experiment E4).
#[derive(Debug, Clone)]
pub struct BinnerStage {
    binner: MzBinner,
    drift_bins: usize,
    scratch: Vec<u32>,
    quarantined: u64,
    obs: Option<ObsTap>,
}

impl BinnerStage {
    /// Wraps a binning core for `drift_bins`-row frames.
    pub fn new(binner: MzBinner, drift_bins: usize) -> Self {
        Self {
            binner,
            drift_bins,
            scratch: Vec::new(),
            quarantined: 0,
            obs: None,
        }
    }
}

impl Stage for BinnerStage {
    fn name(&self) -> &'static str {
        "binner"
    }

    fn process(&mut self, msg: Message, emit: &mut dyn FnMut(Message)) {
        match msg {
            Message::Frame(p) => {
                if !admit_frame(&p, &mut self.quarantined, &self.obs) {
                    return;
                }
                // Bin straight from the wire packet's payload into the
                // reused coarse scratch — no per-frame copy or allocation
                // on the fine side. The re-packed coarse frame carries no
                // checksum: the binner is the integrity boundary,
                // everything downstream of it is process-local memory. The
                // origin timestamp is carried forward so end-to-end latency
                // still measures from first packing.
                self.binner
                    .bin_payload_into(&p.payload, self.drift_bins, &mut self.scratch);
                emit(Message::Frame(
                    FramePacket::from_words(p.seq_no, &self.scratch).with_origin(p.origin_ns),
                ));
            }
            other => emit(other),
        }
    }

    fn finalize(&mut self, report: &mut PipelineReport) {
        report.binner_cycles += self.binner.cycles();
        report.frames_quarantined += self.quarantined;
    }

    fn arm_obs(&mut self, tap: &ObsTap) {
        self.obs = Some(tap.clone());
    }
}

/// Capture/accumulation: folds frames into the (sharded) accumulation RAM
/// and drains a [`Block`] every `frames_per_block` frames.
///
/// The accumulator is split into m/z-range shards
/// ([`ShardedAccumulator`]; one shard by default, bit- and
/// cycle-identical to the monolithic engine). Frames fold straight from
/// the packet payload, and each drain moves the accumulation matrix into
/// the block. Under an armed `shard.kill` fault site, shards can be
/// marked lost mid-block; a lost shard is rebuilt bit-exactly from the
/// frame capture log when one is attached (`shard_rebuilds`), or drains
/// its m/z range zeroed and degrades the run (`shards_lost` +
/// `lost_mz_ranges`) when not.
#[derive(Debug, Clone)]
pub struct AccumulateStage {
    acc: ShardedAccumulator,
    frames_per_block: u64,
    in_block: u64,
    next_index: u64,
    saturation_events: u64,
    flush_remainder: bool,
    quarantined: u64,
    /// When set, drained blocks below the occupancy threshold carry a
    /// run index ([`ims_fpga::SparseBlock`]) for zero-skipping deconvolution.
    sparse_enabled: bool,
    sparse_blocks: u64,
    /// Flight-recorder tap + latency-SLO wiring. The accumulator is the
    /// end-to-end measurement point: a frame "arrives" when it is folded
    /// into the accumulation RAM.
    obs: Option<ObsTap>,
    /// Frames slower end-to-end than the armed SLO's p99 target.
    frames_slow: u64,
    /// When armed, the per-(block, shard) kill site.
    injector: Option<FaultInjector>,
    /// The frame capture log killed shards are rebuilt from.
    capture: Option<CaptureLog>,
    /// The on-chip binner in front of this stage, when there is one:
    /// logged packets hold *raw* frames, so a rebuild must re-bin them
    /// before folding into the (coarse-width) shard.
    rebuild_binner: Option<(MzBinner, usize)>,
    /// Seq-nos of the frames folded into the current block, in fold
    /// order — the rebuild read-set.
    folded: Vec<u64>,
    /// Reused scratch for re-binning logged frames during a rebuild.
    rebuild_scratch: Vec<u32>,
    shard_rebuilds: u64,
    shards_lost: u64,
    lost_ranges: Vec<(usize, usize)>,
}

impl AccumulateStage {
    /// Wraps an accumulator, draining every `frames_per_block` frames.
    ///
    /// With `flush_remainder`, a trailing partial block is drained when the
    /// input ends (and an all-zero block if no frames arrived at all) — the
    /// single-block batch semantics of `run_hybrid`. Without it, a partial
    /// tail is discarded, as a free-running streaming capture would.
    pub fn new(acc: AccumulatorCore, frames_per_block: u64, flush_remainder: bool) -> Self {
        assert!(frames_per_block >= 1, "frames_per_block must be >= 1");
        Self {
            acc: ShardedAccumulator::from_core(acc),
            frames_per_block,
            in_block: 0,
            next_index: 0,
            saturation_events: 0,
            flush_remainder,
            quarantined: 0,
            sparse_enabled: false,
            sparse_blocks: 0,
            obs: None,
            frames_slow: 0,
            injector: None,
            capture: None,
            rebuild_binner: None,
            folded: Vec::new(),
            rebuild_scratch: Vec::new(),
            shard_rebuilds: 0,
            shards_lost: 0,
            lost_ranges: Vec::new(),
        }
    }

    /// Enables the sparse drain path: blocks whose cell occupancy is
    /// below [`ims_fpga::SPARSE_OCCUPANCY_THRESHOLD`] carry a run
    /// index so downstream deconvolution can skip empty columns.
    /// Output stays bit-identical either way — the sparse path changes
    /// work, never values.
    pub fn with_sparse(mut self, enabled: bool) -> Self {
        self.sparse_enabled = enabled;
        self
    }

    /// Splits the accumulation RAM into `n` m/z-range shards (clamped to
    /// the column count; 1 is the monolithic engine). Discards any
    /// state accumulated so far, so call it at construction time. The
    /// merged output is bit-identical for every shard count — pinned by
    /// the `sharded_properties` proptests.
    pub fn with_shards(mut self, n: usize) -> Self {
        let (drift, mz, bits) = (
            self.acc.drift_bins(),
            self.acc.mz_bins(),
            self.acc.acc_bits(),
        );
        self.acc = ShardedAccumulator::new(drift, mz, bits, n.max(1));
        self
    }

    /// Tells the stage what binning sits between the source and itself:
    /// capture-log packets hold raw source frames, so a shard rebuild
    /// re-bins each logged frame through a clone of the same binner
    /// before folding (`drift_bins` is the fine-side row count).
    pub fn with_rebuild_binner(mut self, binner: Option<MzBinner>, drift_bins: usize) -> Self {
        self.rebuild_binner = binner.map(|b| (b, drift_bins));
        self
    }

    /// Fires the `shard.kill` site for the current block, once, on every
    /// live shard, and immediately attempts recovery: a killed shard is
    /// rebuilt from the capture log (all frames folded into this block so
    /// far — and every later frame folds into it normally again), or
    /// stays lost until drain zeroes its range into the block.
    fn check_shard_kills(&mut self) {
        let Some(inj) = self.injector.clone() else {
            return;
        };
        if inj.spec().shard_kill <= 0.0 {
            return;
        }
        for s in 0..self.acc.shard_count() {
            if self.acc.is_lost(s) || !inj.shard_kill(self.next_index, s as u64) {
                continue;
            }
            self.acc.kill(s);
            match self.rebuild_shard(s) {
                Ok(()) => {
                    self.acc.revive(s);
                    self.shard_rebuilds += 1;
                    ims_obs::static_counter!("accumulator.shard.rebuilds").incr();
                    ims_obs::instant("fault", "shard_rebuild");
                }
                Err(err) => {
                    // Discard any partial rebuild; the shard drains zeroed
                    // and is blamed in the report + flight dump.
                    self.acc.kill(s);
                    ims_obs::instant("fault", "shard_lost");
                    if self.capture.is_some() {
                        eprintln!("warning: shard {s} rebuild failed: {err}");
                    }
                }
            }
        }
    }

    /// Re-folds the current block's frames into shard `s` from the
    /// capture log. Errors (no log attached, frames missing from the log)
    /// leave the shard lost.
    fn rebuild_shard(&mut self, s: usize) -> Result<(), String> {
        let log = self.capture.clone().ok_or("no capture log attached")?;
        let packets = log.read_frames(&self.folded).map_err(|e| e.to_string())?;
        for p in &packets {
            let out = if let Some((binner, drift)) = &mut self.rebuild_binner {
                binner.bin_payload_into(&p.payload, *drift, &mut self.rebuild_scratch);
                self.acc.rebuild_frame(s, &self.rebuild_scratch)
            } else {
                self.acc.rebuild_frame(s, &p.to_words())
            };
            out.map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn drain_block(&mut self, emit: &mut dyn FnMut(Message)) {
        // Shards still lost at drain time zero their m/z range in the
        // block — degraded-but-correct everywhere else.
        for s in 0..self.acc.shard_count() {
            if self.acc.is_lost(s) {
                self.shards_lost += 1;
                self.lost_ranges.push(self.acc.shard_range(s));
                ims_obs::static_counter!("accumulator.shard.lost").incr();
            }
        }
        let block_saturation = self.acc.saturation_events();
        self.saturation_events += block_saturation;
        if let Some(tap) = &self.obs {
            if let Some(session) = tap.session {
                // Per-session saturation series for the serve surface; the
                // unlabeled global counter is bumped per frame by the core.
                ims_obs::metrics::counter(&format!(
                    "accumulator.saturation_events#session={session}"
                ))
                .add(block_saturation);
            }
        }
        let (drift, mz) = (self.acc.drift_bins(), self.acc.mz_bins());
        let data = self.acc.drain_merged();
        self.folded.clear();
        let sparse = if self.sparse_enabled {
            SparseBlock::index_below(&data, drift, mz, ims_fpga::SPARSE_OCCUPANCY_THRESHOLD)
        } else {
            None
        };
        if sparse.is_some() {
            self.sparse_blocks += 1;
            ims_obs::static_counter!("accumulate.sparse_blocks").incr();
        } else if self.sparse_enabled {
            ims_obs::static_counter!("accumulate.dense_blocks").incr();
        }
        let block = Block {
            index: self.next_index,
            frames: self.in_block,
            data,
            sparse,
        };
        self.next_index += 1;
        self.in_block = 0;
        emit(Message::Block(block));
    }
}

impl Stage for AccumulateStage {
    fn name(&self) -> &'static str {
        "accumulate"
    }

    fn process(&mut self, msg: Message, emit: &mut dyn FnMut(Message)) {
        match msg {
            Message::Frame(p) => {
                if !admit_frame(&p, &mut self.quarantined, &self.obs) {
                    return;
                }
                self.acc
                    .capture_payload(&p.payload)
                    .expect("frame shape mismatch in pipeline");
                self.folded.push(p.seq_no);
                if let Some(tap) = &self.obs {
                    // End-to-end frame latency: packing at the source to
                    // arrival in the accumulation RAM.
                    let e2e = ims_obs::trace::now_ns().saturating_sub(p.origin_ns);
                    tap.e2e_hist.record(e2e);
                    if tap.latency_slo_ns.is_some_and(|slo| e2e > slo) {
                        self.frames_slow += 1;
                    }
                }
                self.in_block += 1;
                // The kill site fires once per block, mid-block (after
                // the block has folded real data, before drain), keyed by
                // (block index, shard) — deterministic on any executor.
                if self.in_block == (self.frames_per_block / 2).max(1) {
                    self.check_shard_kills();
                }
                if self.in_block == self.frames_per_block {
                    self.drain_block(emit);
                }
            }
            other => emit(other),
        }
    }

    fn flush(&mut self, emit: &mut dyn FnMut(Message)) {
        if self.flush_remainder && (self.in_block > 0 || self.next_index == 0) {
            self.drain_block(emit);
        }
    }

    fn finalize(&mut self, report: &mut PipelineReport) {
        report.capture_cycles += self.acc.cycles();
        report.saturation_events += self.saturation_events + self.acc.saturation_events();
        report.frames_per_block = self.frames_per_block;
        report.frames_quarantined += self.quarantined;
        report.sparse_blocks += self.sparse_blocks;
        report.frames_over_latency_slo += self.frames_slow;
        report.shard_rebuilds += self.shard_rebuilds;
        report.shards_lost += self.shards_lost;
        report
            .lost_mz_ranges
            .extend(self.lost_ranges.iter().copied());
    }

    fn arm_faults(&mut self, injector: &FaultInjector, _supervisor: &SupervisorConfig) {
        self.injector = Some(injector.clone());
    }

    fn arm_capture(&mut self, log: &CaptureLog) {
        self.capture = Some(log.clone());
    }

    fn arm_obs(&mut self, tap: &ObsTap) {
        self.obs = Some(tap.clone());
    }

    // Blocks hand off through a depth-2 "ping-pong" channel: the
    // double-buffered readout of the real capture engine.
    fn output_depth(&self, _default: usize) -> usize {
        2
    }
}

/// Which engine deconvolves accumulated blocks.
///
/// All three compute the identical integer result (same arithmetic, same
/// rounding); they differ only in cycle/throughput modelling — which is the
/// E3/E11 story: FWHT core vs naive MAC array vs multi-core software. The
/// FPGA model and the software path run the same FWHT block walk
/// ([`deconvolve_fixed_point`]), one executor or many.
pub enum DeconvBackend {
    /// The PNNL-enhanced FWHT FPGA core, walked on one executor.
    Fpga(DeconvCore),
    /// The naive `O(N²)` MAC-array FPGA core.
    Naive(NaiveMacCore),
    /// The CPU software path: scheduler-parallel over panels of m/z
    /// columns, running the same fixed-point kernel row-vectorized across
    /// each panel.
    Software {
        /// The panel kernel (shared read-only across workers).
        core: DeconvCore,
        /// Worker threads (0 = machine default).
        threads: usize,
    },
}

impl DeconvBackend {
    /// The FWHT FPGA core.
    pub fn fpga(seq: &MSequence, cfg: DeconvConfig) -> Self {
        DeconvBackend::Fpga(DeconvCore::new(seq, cfg))
    }

    /// The naive MAC-array core, configured to match `cfg`'s output format
    /// and convention so results stay bit-identical to the FWHT core.
    pub fn naive(seq: &MSequence, cfg: DeconvConfig) -> Self {
        DeconvBackend::Naive(NaiveMacCore::new(
            seq,
            NaiveConfig {
                output_frac_bits: cfg.output_frac_bits,
                convention: cfg.convention,
                ..NaiveConfig::default()
            },
        ))
    }

    /// The software path on `threads` workers (0 = share the global pool).
    pub fn software(seq: &MSequence, cfg: DeconvConfig, threads: usize) -> Self {
        DeconvBackend::Software {
            core: DeconvCore::new(seq, cfg),
            threads,
        }
    }

    /// Parses a backend name (`fpga` | `naive` | `software`).
    pub fn from_name(
        name: &str,
        seq: &MSequence,
        cfg: DeconvConfig,
        threads: usize,
    ) -> Option<Self> {
        match name {
            "fpga" => Some(Self::fpga(seq, cfg)),
            "naive" => Some(Self::naive(seq, cfg)),
            "software" => Some(Self::software(seq, cfg, threads)),
            _ => None,
        }
    }

    /// Stable backend name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DeconvBackend::Fpga(_) => "fpga-fwht",
            DeconvBackend::Naive(_) => "naive-mac",
            DeconvBackend::Software { .. } => "software",
        }
    }
}

/// Hardware-backend failures in a row after which the deconvolve stage
/// stays on the software engine for the rest of the run instead of
/// retrying the hardware path per block.
const MAX_CONSECUTIVE_FAILURES: u32 = 3;

/// Deconvolution: turns each accumulated block into a deconvolved one.
pub struct DeconvolveStage {
    backend: DeconvBackend,
    mz_bins: usize,
    /// Data cells (drift × m/z) deconvolved so far.
    cells: u64,
    /// Model cycles of every block deconvolved so far, fallback blocks
    /// included: the run's one deconvolution cycle tally.
    cycles: u64,
    /// When armed, the per-block hardware-backend failure site.
    injector: Option<FaultInjector>,
    /// The software panel engine used to recover blocks a hardware-model
    /// backend fails on (bit-identical output — see
    /// [`with_fallback`](Self::with_fallback)).
    fallback_core: Option<DeconvCore>,
    /// Whether the supervisor allows falling back at all.
    fallback_enabled: bool,
    /// Hardware failures in a row so far; at [`MAX_CONSECUTIVE_FAILURES`]
    /// the switch becomes permanent.
    consecutive_failures: u32,
    /// Permanently on the software engine for the rest of the run.
    fallen_back: bool,
    /// Blocks recovered via the software engine.
    fallbacks: u64,
}

impl DeconvolveStage {
    /// Wraps a backend for blocks that are `mz_bins` columns wide.
    pub fn new(backend: DeconvBackend, mz_bins: usize) -> Self {
        Self {
            backend,
            mz_bins,
            cells: 0,
            cycles: 0,
            injector: None,
            fallback_core: None,
            fallback_enabled: true,
            consecutive_failures: 0,
            fallen_back: false,
            fallbacks: 0,
        }
    }

    /// Attaches a software panel engine as the degradation target for
    /// hardware-backend failures. All engines compute the identical
    /// integer result, so a recovered block is bit-identical to what the
    /// hardware path would have produced — only cycle accounting differs.
    /// Without a fallback (or with `deconv_fallback` disabled in the
    /// supervisor config), a backend failure panics the stage, which the
    /// supervised executor converts into a structured error.
    pub fn with_fallback(mut self, core: DeconvCore) -> Self {
        self.fallback_core = Some(core);
        self
    }

    /// Should this block be recovered on the software engine? Tracks the
    /// consecutive-failure window and the permanent switch; panics when a
    /// hardware failure hits and no fallback is available.
    fn route_to_fallback(&mut self, block_index: u64) -> bool {
        let hardware = matches!(
            self.backend,
            DeconvBackend::Fpga(_) | DeconvBackend::Naive(_)
        );
        if !hardware {
            return false;
        }
        if self.fallen_back {
            return true;
        }
        let failed = self
            .injector
            .as_ref()
            .is_some_and(|inj| inj.deconv_fails(block_index));
        if !failed {
            self.consecutive_failures = 0;
            return false;
        }
        if !self.fallback_enabled || self.fallback_core.is_none() {
            panic!(
                "deconvolve backend `{}` failed on block {block_index} and no fallback is available",
                self.backend.name()
            );
        }
        self.consecutive_failures += 1;
        self.fallbacks += 1;
        ims_obs::static_counter!("fault.recovered.deconv_fallback").incr();
        ims_obs::instant("fault", "deconv_fallback");
        if self.consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
            self.fallen_back = true;
        }
        true
    }

    /// Deconvolves one block and prices it in model cycles: the FWHT core
    /// at the columns it solved (the full m/z width for a dense or
    /// fallback block, the occupied columns plus the zero column for a
    /// sparse one), the naive MAC array at its own per-column price.
    fn deconvolve(&mut self, b: &Block) -> Vec<i64> {
        let mz = self.mz_bins;
        let (core, occupied, workers) = if self.route_to_fallback(b.index) {
            // Recovery path: the hardware-model backend failed, so this
            // block runs dense on the software engine over the shared
            // pool — same integer arithmetic, bit-identical output.
            let core = self
                .fallback_core
                .as_ref()
                .expect("route_to_fallback requires a fallback core");
            (core, None, Workers::Threads(0))
        } else {
            let occupied = b.sparse.as_ref().map(SparseBlock::occupied_columns);
            match &self.backend {
                DeconvBackend::Naive(core) => {
                    self.cycles += core.cycles_per_block(mz);
                    return core.deconvolve_block(&b.data, mz);
                }
                DeconvBackend::Fpga(core) => (core, occupied, Workers::Threads(1)),
                DeconvBackend::Software { core, threads } => {
                    (core, occupied, Workers::Threads(*threads))
                }
            }
        };
        self.cycles += core.cycles_per_block(occupied.map_or(mz, |c| c.len() + 1));
        deconvolve_fixed_point(core, &b.data, occupied, workers)
    }
}

impl Stage for DeconvolveStage {
    fn name(&self) -> &'static str {
        "deconvolve"
    }

    fn process(&mut self, msg: Message, emit: &mut dyn FnMut(Message)) {
        match msg {
            Message::Block(b) => {
                self.cells += b.data.len() as u64;
                let data = self.deconvolve(&b);
                emit(Message::Deconvolved(DeconvolvedBlock {
                    index: b.index,
                    frames: b.frames,
                    data,
                }));
            }
            other => emit(other),
        }
    }

    fn finalize(&mut self, report: &mut PipelineReport) {
        report.backend = self.backend.name().to_string();
        report.deconv_cycles += self.cycles;
        report.deconv_fallbacks += self.fallbacks;
    }

    fn cells_processed(&self) -> u64 {
        self.cells
    }

    fn arm_faults(&mut self, injector: &FaultInjector, supervisor: &SupervisorConfig) {
        self.injector = Some(injector.clone());
        self.fallback_enabled = supervisor.deconv_fallback;
    }
}
