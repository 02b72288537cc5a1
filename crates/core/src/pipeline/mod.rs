//! The composable, instrumented pipeline the hybrid runners are built on.
//!
//! The paper's application is a fixed chain — software streams frames to
//! the FPGA, the FPGA captures/accumulates/deconvolves, software collects
//! blocks — that the seed code hand-wired three separate times
//! (`run_hybrid`, `run_hybrid_streaming`, and the software references).
//! This module factors that chain into a typed stage graph:
//!
//! ```text
//! FrameSource ─▶ Link ─▶ [Binner] ─▶ Accumulate ─▶ Deconvolve ─▶ blocks
//!   (frames)    (frames)  (frames)    (blocks)      (deconvolved)
//! ```
//!
//! Stages exchange [`Message`]s. Frame-domain stages map `Frame → Frame`;
//! [`AccumulateStage`] folds frames into [`Block`]s; [`DeconvolveStage`]
//! turns blocks into [`DeconvolvedBlock`]s through a selectable
//! [`DeconvBackend`] (the FWHT FPGA core, the naive MAC-array core, or the
//! scheduler-parallel software path — all bit-exact equals).
//!
//! Two executors run the same graph. [`Pipeline::run_threaded`] submits
//! the source and stages as cooperatively scheduled tasks — connected by
//! bounded inboxes — to the shared work-stealing pool in [`sched`] (the
//! concurrent structure of the real design, with back-pressure).
//! [`Pipeline::run_inline`] runs the stages sequentially on the calling
//! thread (the software reference). Because both drive the same stage
//! objects over the same integer datapath, their outputs agree bit for
//! bit — the property the hybrid equivalence tests pin down.
//!
//! On top of the scheduler sits the [`SessionManager`]: N independent
//! pipelines — each its own seed, config fingerprint, and fault spec —
//! admitted as labeled tenants onto one pool, with bounded admission,
//! per-session credits, and per-session `RunOutcome`s (see [`session`]).
//!
//! Every run also produces a [`PipelineReport`]: per-stage busy vs blocked
//! time, queue high-water marks, cycle totals, and the simulated link time
//! — the numbers that say *where* the pipeline bottlenecks.

mod error;
mod executor;
mod report;
mod sched;
mod session;
mod stages;

pub use error::{CorruptPolicy, PipelineError, RunOutcome, SupervisorConfig};
pub use executor::{Pipeline, PipelineOutput};
pub use report::{PipelineReport, StageReport};
pub use sched::{default_pool_threads, SchedStatsSnapshot, ScheduledRun, Scheduler};
pub use session::{
    output_fingerprint, AdmissionError, SessionConfig, SessionHandle, SessionManager, SessionState,
    SessionStatus,
};
pub use stages::{
    AccumulateStage, BinnerStage, DeconvBackend, DeconvolveStage, FrameSource, LinkStage,
};

use crate::fault::FaultInjector;
use ims_fpga::dma::FramePacket;
use ims_obs::FlightKind;

/// One unit of data flowing between stages.
#[derive(Debug, Clone)]
pub enum Message {
    /// A raw (or binned) instrument frame.
    Frame(FramePacket),
    /// An accumulated block drained from the capture engine.
    Block(Block),
    /// A deconvolved block.
    Deconvolved(DeconvolvedBlock),
}

/// An accumulated drift × m/z block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Block sequence number (0-based).
    pub index: u64,
    /// Frames folded into this block.
    pub frames: u64,
    /// Accumulated counts, drift-major.
    pub data: Vec<u64>,
    /// Run index over `data` (its non-zero runs, count and occupied
    /// columns; no values), attached by the accumulate stage when
    /// the block's cell occupancy fell below the sparse threshold and the
    /// sparse path is enabled. The FWHT backends read its occupied columns
    /// and walk only those columns of `data` (bit-identical output); the
    /// naive MAC array and the fault fallback walk `data` whole.
    pub sparse: Option<ims_fpga::SparseBlock>,
}

/// A deconvolved drift × m/z block (raw fixed-point words).
#[derive(Debug, Clone)]
pub struct DeconvolvedBlock {
    /// Block sequence number (0-based).
    pub index: u64,
    /// Frames folded into this block.
    pub frames: u64,
    /// Deconvolved values, drift-major.
    pub data: Vec<i64>,
}

/// One processing stage in the graph.
///
/// A stage consumes messages one at a time and emits zero or more messages
/// downstream through `emit`. Stages own their FPGA-model cores, so the
/// cycle accounting rides along for free; [`finalize`](Stage::finalize)
/// folds those counters into the run's [`PipelineReport`] after the data
/// has drained.
pub trait Stage: Send {
    /// Stable short name, used in reports.
    fn name(&self) -> &'static str;

    /// Processes one message, emitting any number downstream.
    fn process(&mut self, msg: Message, emit: &mut dyn FnMut(Message));

    /// Called once after the input is exhausted; emits any buffered tail
    /// (e.g. a partial accumulation block).
    fn flush(&mut self, _emit: &mut dyn FnMut(Message)) {}

    /// Folds this stage's counters into the run report.
    fn finalize(&mut self, _report: &mut PipelineReport) {}

    /// Data cells (drift bins × m/z bins) this stage has processed — used
    /// by the executors to derive per-stage throughput. Stages that don't
    /// process 2-D blocks report 0.
    fn cells_processed(&self) -> u64 {
        0
    }

    /// Depth of this stage's *output* channel in the threaded executor.
    ///
    /// Defaults to the pipeline's frame-channel depth; block-producing
    /// stages override it to 2 (the double-buffered "ping-pong" hand-off
    /// of the real design).
    fn output_depth(&self, default: usize) -> usize {
        default
    }

    /// Arms this stage's fault-injection and degradation hooks before a
    /// run starts. Called once per stage by the executor when the
    /// pipeline was built with [`Pipeline::with_faults`]; the default is
    /// a no-op, so fault-oblivious stages need no changes.
    fn arm_faults(&mut self, _injector: &FaultInjector, _supervisor: &SupervisorConfig) {}

    /// Hands this stage a handle to the run's frame capture log. Called
    /// once per stage by the executor when the pipeline was built with
    /// [`Pipeline::with_capture_log`]; the accumulate stage uses it to
    /// rebuild killed shards, everything else ignores it.
    fn arm_capture(&mut self, _log: &crate::capture::CaptureLog) {}

    /// Hands this stage its tap into the run's flight recorder (and the
    /// latency-SLO wiring that rides along). Called once per stage by
    /// every executor before the run starts; the default is a no-op, so
    /// stages with no internal events to record need no changes — each
    /// node's boundary recorder already records its ingress and egress.
    fn arm_obs(&mut self, _tap: &ObsTap) {}
}

/// A stage's tap into the run's always-on flight recorder, plus the
/// end-to-end latency-SLO wiring. Built by the executors at arm time and
/// handed to each stage through [`Stage::arm_obs`].
#[derive(Clone)]
pub struct ObsTap {
    pub(crate) recorder: ims_obs::FlightRecorder,
    /// This stage's label index in the recorder (registration order is
    /// pipeline order: source first, then stages, then fault sites).
    pub(crate) label: u16,
    /// End-to-end frame-latency target (ns) from the armed SLO spec;
    /// `None` when no SLO was declared.
    pub(crate) latency_slo_ns: Option<u64>,
    /// Registry histogram for end-to-end frame latency
    /// (`pipeline.frame_e2e_ns`, session-suffixed for tenants).
    pub(crate) e2e_hist: &'static ims_obs::Histogram,
    /// Interned session label of a multiplexed tenant, so stages can emit
    /// per-session registry series (`None` for single-session runs).
    pub(crate) session: Option<&'static str>,
}

impl ObsTap {
    /// Records one event against this stage's label.
    #[inline]
    pub(crate) fn record(&self, kind: FlightKind, item: u64) {
        self.recorder.record(self.label, kind, item);
    }
}

impl std::fmt::Debug for ObsTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsTap")
            .field("label", &self.label)
            .field("latency_slo_ns", &self.latency_slo_ns)
            .finish_non_exhaustive()
    }
}
