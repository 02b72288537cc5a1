//! Executors: run a stage graph on the work-stealing scheduler (threaded)
//! or inline (sequentially on the calling thread).
//!
//! Both executors drive the same [`Stage`] objects in the same order over
//! the same integer datapath, so their outputs are bit-identical by
//! construction. The concurrent executor is a thin entry point into
//! [`super::sched`]: [`Pipeline::run_threaded`] submits the graph to the
//! shared work-stealing pool, where the source and each stage run as
//! cooperatively scheduled tasks connected by bounded inboxes — the
//! back-pressure structure of the real design — and waits for it.
//! [`Pipeline::spawn_on`] submits without waiting, which is what the
//! session multiplexer uses to run many graphs on one pool.
//!
//! Every executor is instrumented with `ims_obs`: stage iterations open
//! spans (category = stage name, or `stage@session` for labeled tenants),
//! input-queue depths are sampled into gauges and Chrome counter tracks,
//! and per-item processing latency feeds a histogram per stage (always
//! on; a handful of relaxed atomics per *item*, where items are frames or
//! blocks).
//!
//! # Supervision
//!
//! The threaded executor is *supervised*: a panicking stage no longer
//! aborts the process. Each stage iteration runs under `catch_unwind`; a
//! panicked stage turns "poisoned" — it keeps draining its input inbox
//! (so upstream never blocks on a full queue) without processing, its
//! output closes, downstream flushes and drains, and the run returns a
//! partial report carrying a [`PipelineError::StagePanicked`] with stage
//! provenance and a [`RunOutcome::Failed`] verdict.
//!
//! With [`Pipeline::with_supervisor`] and a `stall_timeout`, a watchdog
//! thread additionally polls per-node progress counters; when *nothing*
//! in the graph advances for the timeout, it blames the upstream-most
//! unfinished stage, cancels any injected stall (see
//! [`Pipeline::with_faults`]) so the graph drains, and records a
//! [`PipelineError::StageStalled`].
//!
//! With no supervisor config and no injector, none of this costs anything
//! on the hot path: no watchdog thread is spawned, packets carry no
//! checksums, and the only addition is one relaxed atomic add per item.

use super::error::{PipelineError, RunOutcome, SupervisorConfig};
use super::report::{PipelineReport, StageReport};
use super::sched::{self, ScheduledRun, Scheduler};
use super::stages::FrameSource;
use super::{flight_event, DeconvolvedBlock, Message, ObsTap, Stage};
use crate::fault::FaultInjector;
use ims_obs::FlightRecorder;
use std::time::{Duration, Instant};

/// Ring shards the per-run flight recorder keeps (threads hash onto
/// shards by a stable per-thread ordinal).
const FLIGHT_SHARDS: usize = 8;
/// Events each shard retains (the "last N events per worker" of a
/// black-box dump; older events are overwritten).
const FLIGHT_CAPACITY: usize = 1024;

/// The always-on flight-recorder wiring of one pipeline run: the shared
/// ring recorder, the per-node label indices (filled at arm time, in
/// pipeline order), and the dump/SLO configuration.
pub(super) struct FlightConfig {
    pub(super) recorder: FlightRecorder,
    /// Label index per node: `labels[0]` is the source, `labels[i + 1]`
    /// stage `i`. Filled by [`Pipeline::arm`].
    pub(super) labels: Vec<u16>,
    /// Where to write `flight_<fingerprint>.jsonl` when the run ends
    /// badly; `None` records to the rings but never touches disk.
    pub(super) dump_dir: Option<std::path::PathBuf>,
    /// Config fingerprint stamped into the dump header and file name.
    pub(super) fingerprint: String,
    /// End-to-end frame-latency target (ns) from the armed SLO spec.
    pub(super) latency_slo_ns: Option<u64>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self {
            recorder: FlightRecorder::new(FLIGHT_SHARDS, FLIGHT_CAPACITY),
            labels: Vec::new(),
            dump_dir: None,
            fingerprint: "run".to_string(),
            latency_slo_ns: None,
        }
    }
}

/// A source plus an ordered chain of stages, ready to run.
pub struct Pipeline {
    pub(super) source: FrameSource,
    pub(super) stages: Vec<Box<dyn Stage>>,
    pub(super) channel_depth: usize,
    pub(super) injector: Option<FaultInjector>,
    pub(super) supervisor: SupervisorConfig,
    /// Interned session label (`s17`) of a multiplexed tenant; `None` for
    /// single-session runs, whose metric names stay unsuffixed.
    pub(super) session: Option<&'static str>,
    /// Flight-recorder + SLO wiring (always on; dumps are opt-in).
    pub(super) flight: FlightConfig,
    /// Frame capture log: the source appends every emitted packet, the
    /// accumulate stage rebuilds killed shards from it.
    pub(super) capture: Option<crate::capture::CaptureLog>,
}

/// What a pipeline run returns: the deconvolved blocks (in order) and the
/// instrumentation report (whose [`outcome`](PipelineReport::outcome)
/// says whether the blocks are complete, degraded, or partial).
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Deconvolved blocks, in block order.
    pub blocks: Vec<DeconvolvedBlock>,
    /// Run instrumentation.
    pub report: PipelineReport,
}

impl Pipeline {
    /// Starts a graph from a frame source; `channel_depth` bounds the
    /// frame inboxes of the threaded executor (back-pressure credits).
    pub fn new(source: FrameSource, channel_depth: usize) -> Self {
        Self {
            source,
            stages: Vec::new(),
            channel_depth: channel_depth.max(1),
            injector: None,
            supervisor: SupervisorConfig::default(),
            session: None,
            flight: FlightConfig::default(),
            capture: None,
        }
    }

    /// Appends a stage to the chain.
    pub fn stage(mut self, stage: impl Stage + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Arms deterministic fault injection: the source stamps packets with
    /// integrity checksums and every stage gets a clone of `injector`
    /// (drop/stall at the source, bit-flips at the link, backend failures
    /// at the deconvolve stage). A zero-rate spec injects nothing and the
    /// run stays bit-identical to an unarmed one.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Sets the supervision/degradation policy (watchdog timeout, corrupt
    /// policy, deconv fallback). The default policy has the watchdog off.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Tags this run as session `label` (a multiplexer tenant): stage
    /// meters register under `name#session=<label>` — rendered by the
    /// Prometheus exporter as a `session="…"` label — and spans open
    /// under `stage@label` categories, so concurrent sessions stay
    /// distinguishable on every observability surface. The label is
    /// interned (session sets are small and bounded by admission
    /// control; see the cardinality rules in DESIGN.md).
    pub fn with_session(mut self, label: &str) -> Self {
        self.session = Some(ims_obs::intern(label));
        self
    }

    /// Attaches a frame capture log: the source appends every packet it
    /// emits (pristine, pre-corruption), and the accumulate stage rebuilds
    /// `shard.kill`-lost shards from it. The same log directory later
    /// powers `--replay`. A read-only handle (from
    /// [`CaptureLog::open`](crate::capture::CaptureLog::open)) appends
    /// nothing but still serves rebuild reads — the replay wiring.
    pub fn with_capture_log(mut self, log: crate::capture::CaptureLog) -> Self {
        self.capture = Some(log);
        self
    }

    /// Replaces the source's generator with pre-captured packets: the run
    /// replays `packets` in order, bit-exactly reproducing the captured
    /// run's output (source-site faults must be stripped by the caller —
    /// see [`FaultSpec::without_source_sites`](crate::fault::FaultSpec::without_source_sites)).
    pub fn with_replay_source(mut self, packets: Vec<ims_fpga::dma::FramePacket>) -> Self {
        self.source.set_replay(std::sync::Arc::new(packets));
        self
    }

    /// Arms a black-box dump: when the run ends `Degraded` or `Failed`
    /// (stage panic, watchdog stall, quarantine, injected faults), the
    /// executor writes the flight-recorder rings to
    /// `dir/flight_<fingerprint>.jsonl` — last N events per worker, the
    /// blamed stage, and per-frame causal chains. Recording itself is
    /// always on; this only enables the dump.
    pub fn with_flight_dump(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        fingerprint: &str,
    ) -> Self {
        self.flight.dump_dir = Some(dir.into());
        self.flight.fingerprint = fingerprint.to_string();
        self
    }

    /// Declares the end-to-end frame-latency target (ns): frames whose
    /// origin-to-accumulation latency exceeds it are counted in
    /// [`PipelineReport::frames_over_latency_slo`], which the SLO engine
    /// turns into p99 burn rates.
    pub fn with_latency_slo(mut self, target_ns: u64) -> Self {
        self.flight.latency_slo_ns = Some(target_ns);
        self
    }

    /// Distributes the injector, policy, and flight-recorder taps to the
    /// source and stages. Flight labels register in pipeline order
    /// (source, then stages, then — via the injector — fault sites), so
    /// label indices are deterministic for a given graph shape.
    pub(super) fn arm(&mut self) {
        let rec = self.flight.recorder.clone();
        let mut labels = vec![rec.register("source")];
        for stage in &self.stages {
            labels.push(rec.register(stage.name()));
        }
        if let Some(inj) = &self.injector {
            self.source.set_checked(true);
            for stage in &mut self.stages {
                stage.arm_faults(inj, &self.supervisor);
            }
            inj.arm_flight(&rec);
        }
        if let Some(log) = &self.capture {
            self.source.set_capture(log.clone());
            for stage in &mut self.stages {
                stage.arm_capture(log);
            }
        }
        let e2e_name = match self.session {
            Some(s) => format!("pipeline.frame_e2e_ns#session={s}"),
            None => "pipeline.frame_e2e_ns".to_string(),
        };
        let e2e_hist = ims_obs::metrics::histogram(&e2e_name);
        for (stage, &label) in self.stages.iter_mut().zip(labels[1..].iter()) {
            stage.arm_obs(&ObsTap {
                recorder: rec.clone(),
                label,
                latency_slo_ns: self.flight.latency_slo_ns,
                e2e_hist,
                session: self.session,
            });
        }
        self.flight.labels = labels;
    }

    /// Runs the graph concurrently — source and stages as tasks on the
    /// shared work-stealing pool, connected by bounded inboxes of depth
    /// `channel_depth` (frames) or the stages' own depth (blocks: 2, the
    /// double-buffered readout), and waits for it to drain. Supervised:
    /// see the module docs.
    pub fn run_threaded(self) -> PipelineOutput {
        self.spawn_on(Scheduler::global()).join()
    }

    /// Submits the graph to `sched` and returns immediately; the session
    /// multiplexer uses this to run many tenant graphs concurrently on
    /// one pool. Join the returned handle for the [`PipelineOutput`],
    /// whose report is tagged `"threaded"`.
    pub fn spawn_on(self, sched: &Scheduler) -> ScheduledRun {
        sched::spawn(self, sched)
    }

    /// Runs the graph sequentially on the calling thread — the software
    /// reference executor. Bit-identical to [`run_threaded`](Self::run_threaded)
    /// because it drives the same stages over the same integer datapath.
    /// Fault injection works here too (same deterministic decisions, since
    /// they depend only on `(seed, site, index)`), but supervision does
    /// not: the inline executor is the *reference*, so a stage panic
    /// propagates and no watchdog runs.
    pub fn run_inline(mut self) -> PipelineOutput {
        assert!(!self.stages.is_empty(), "pipeline has no stages");
        self.arm();
        let start = Instant::now();
        let injector = self.injector.clone();
        let mut stages = std::mem::take(&mut self.stages);
        let mut meters: Vec<StageMeter> = std::iter::once(StageMeter::new("source"))
            .chain(stages.iter().map(|s| StageMeter::new(s.name())))
            .collect();
        for (meter, &label) in meters.iter_mut().zip(&self.flight.labels) {
            meter.flight = Some((self.flight.recorder.clone(), label));
        }

        let mut blocks = Vec::new();
        let frames = self.source.frames();
        for i in 0..frames {
            if let Some(inj) = &injector {
                if let Some(stall) = inj.stall_duration(i) {
                    if !inj.stall(stall) {
                        break;
                    }
                }
                if inj.drop_frame(i) {
                    continue;
                }
            }
            let t = Instant::now();
            let packet = {
                let _sp = ims_obs::span_cat("source", "process");
                self.source.packet(i)
            };
            let gen = t.elapsed();
            meters[0].busy += gen;
            meters[0].record_latency(gen);
            meters[0].items_out += 1;
            meters[0].record_flight(ims_obs::FlightKind::FrameEgress, packet.seq_no);
            feed(
                &mut stages,
                &mut meters[1..],
                0,
                Message::Frame(packet),
                &mut blocks,
            );
        }
        for i in 0..stages.len() {
            let mut emitted = Vec::new();
            stages[i].flush(&mut |m| emitted.push(m));
            meters[i + 1].items_out += emitted.len() as u64;
            for m in emitted {
                feed(&mut stages, &mut meters[1..], i + 1, m, &mut blocks);
            }
        }

        let mut report = PipelineReport::new("inline");
        report.channel_depth = self.channel_depth;
        finish_report(
            &mut report,
            stages,
            meters,
            frames,
            blocks.len(),
            start,
            self.injector.as_ref(),
        );
        maybe_dump_flight(&mut report, &self.flight, self.session);
        PipelineOutput { blocks, report }
    }
}

/// Writes the black-box dump when a run ended badly and a dump directory
/// was armed. The blamed stage comes from the first fatal error (panic or
/// watchdog verdict); degraded-but-error-free runs leave blame to the
/// recorder's own heuristics (most quarantines, else hottest fault site).
/// Records the dump path into the report; a failed write is counted and
/// warned, never fatal — the black box must not take the run down.
pub(super) fn maybe_dump_flight(
    report: &mut PipelineReport,
    flight: &FlightConfig,
    session: Option<&'static str>,
) {
    if report.outcome == RunOutcome::Completed {
        return;
    }
    let Some(dir) = &flight.dump_dir else { return };
    let first = report.errors.first();
    let blamed_stage = first.map(|e| match e {
        PipelineError::StagePanicked { stage, .. } | PipelineError::StageStalled { stage, .. } => {
            stage.clone()
        }
    });
    let reason = match first {
        Some(PipelineError::StageStalled { .. }) => "watchdog_stall",
        Some(PipelineError::StagePanicked { .. }) => "stage_panic",
        None if report.shards_lost > 0 => "shard_loss",
        None if report.frames_quarantined > 0 => "quarantine",
        None => "degraded_run",
    };
    let meta = ims_obs::flight::DumpMeta {
        fingerprint: flight.fingerprint.clone(),
        session: session.map(str::to_string),
        outcome: report.outcome.as_str().to_string(),
        reason: reason.to_string(),
        blamed_stage,
    };
    match flight.recorder.write_dump(dir, &meta) {
        Ok(path) => {
            ims_obs::static_counter!("flight.dumps_written").incr();
            report.flight_dump = Some(path.display().to_string());
        }
        Err(err) => {
            ims_obs::static_counter!("flight.dump_failed").incr();
            eprintln!(
                "warning: failed to write flight dump to {}: {err}",
                dir.display()
            );
        }
    }
}

/// Fills in the tail of a run report shared by every executor: per-stage
/// reports from the meters, derived rates, stage finalizers, fault
/// counts, the outcome verdict, and wall time.
pub(super) fn finish_report(
    report: &mut PipelineReport,
    mut stages: Vec<Box<dyn Stage>>,
    meters: Vec<StageMeter>,
    frames: u64,
    blocks: usize,
    start: Instant,
    injector: Option<&FaultInjector>,
) {
    report.frames = frames;
    report.blocks = blocks as u64;
    let concurrent = report.executor != "inline";
    report.stages = meters
        .into_iter()
        .map(|m| m.into_report(concurrent))
        .collect();
    // Meter 0 is the source; stage i owns report.stages[i + 1].
    for (i, stage) in stages.iter().enumerate() {
        report.stages[i + 1].cells = stage.cells_processed();
    }
    for s in &mut report.stages {
        if s.busy_seconds > 0.0 {
            s.items_per_second = s.items_out as f64 / s.busy_seconds;
            s.mcells_per_second = s.cells as f64 / s.busy_seconds / 1e6;
        }
    }
    let deconv_rates = report
        .stage("deconvolve")
        .map(|d| (d.items_per_second, d.mcells_per_second));
    if let Some((blocks_per_s, mcells_per_s)) = deconv_rates {
        report.deconv_blocks_per_second = blocks_per_s;
        report.deconv_mcells_per_second = mcells_per_s;
    }
    for stage in &mut stages {
        stage.finalize(report);
    }
    report.faults = injector.map(|inj| inj.counts()).unwrap_or_default();
    // The verdict. Fatal errors trump everything; otherwise any fault or
    // loss downgrades a Completed run to Degraded. Shard kills are the
    // exception: a kill rebuilt from the capture log is fully recovered
    // (bit-identical output), so only kills that drained *lost* degrade.
    report.outcome = if !report.errors.is_empty() {
        RunOutcome::Failed
    } else if report.faults.degrading() > 0
        || report.frames_quarantined > 0
        || report.deconv_fallbacks > 0
        || report.shards_lost > 0
    {
        RunOutcome::Degraded
    } else {
        RunOutcome::Completed
    };
    report.wall_seconds = start.elapsed().as_secs_f64();
}

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub(super) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Pushes `msg` into stage `idx`, cascading emissions depth-first; messages
/// that fall off the end of the chain are collected as output blocks.
fn feed(
    stages: &mut [Box<dyn Stage>],
    meters: &mut [StageMeter],
    idx: usize,
    msg: Message,
    out: &mut Vec<DeconvolvedBlock>,
) {
    if idx == stages.len() {
        if let Message::Deconvolved(b) = msg {
            out.push(b);
        }
        return;
    }
    meters[idx].items_in += 1;
    let (kind, item) = flight_event(&msg, false);
    meters[idx].record_flight(kind, item);
    let mut emitted = Vec::new();
    let t = Instant::now();
    {
        let _sp = ims_obs::span_cat(meters[idx].name, "process");
        stages[idx].process(msg, &mut |m| emitted.push(m));
    }
    let took = t.elapsed();
    meters[idx].busy += took;
    meters[idx].record_latency(took);
    meters[idx].refresh_cells(stages[idx].as_ref());
    meters[idx].items_out += emitted.len() as u64;
    for m in emitted {
        let (kind, item) = flight_event(&m, true);
        meters[idx].record_flight(kind, item);
        feed(stages, meters, idx + 1, m, out);
    }
}

/// Accumulates one stage's timing while its task runs.
pub(super) struct StageMeter {
    pub(super) name: &'static str,
    pub(super) items_in: u64,
    pub(super) items_out: u64,
    pub(super) busy: Duration,
    pub(super) blocked_recv: Duration,
    pub(super) blocked_send: Duration,
    pub(super) queue_high_water: u64,
    /// Per-item processing latency for this run (feeds the report).
    latency: ims_obs::Histogram,
    /// Same samples in the global registry (feeds metrics snapshots),
    /// named `pipeline.stage_latency_ns.<stage>` — with a
    /// `#session=<label>` suffix for multiplexer tenants, which the
    /// Prometheus exporter renders as a `session` label.
    latency_reg: &'static ims_obs::Histogram,
    /// Running item count in the registry (`pipeline.items_total.<stage>`)
    /// — bumped per item so a sampler sees throughput *during* the run,
    /// not just the end-of-run report.
    items_reg: &'static ims_obs::Counter,
    /// Running cell count in the registry (`pipeline.cells_total.<stage>`).
    cells_reg: &'static ims_obs::Counter,
    /// Cells already pushed to `cells_reg` (stages report totals).
    cells_pushed: u64,
    /// This node's tap into the run's flight recorder: the shared rings
    /// plus the node's label index. `None` only for meters built outside
    /// an armed pipeline (e.g. unit tests driving a meter directly).
    pub(super) flight: Option<(FlightRecorder, u16)>,
}

impl StageMeter {
    pub(super) fn new(name: &'static str) -> Self {
        Self::with_session(name, None)
    }

    /// A meter whose registry series carry the session's label suffix
    /// (none for single-session runs, keeping the PR-4 metric names
    /// byte-stable).
    pub(super) fn with_session(name: &'static str, session: Option<&'static str>) -> Self {
        Self {
            name,
            items_in: 0,
            items_out: 0,
            busy: Duration::ZERO,
            blocked_recv: Duration::ZERO,
            blocked_send: Duration::ZERO,
            queue_high_water: 0,
            latency: ims_obs::Histogram::new(),
            latency_reg: ims_obs::metrics::histogram(&Self::metric_name(
                "pipeline.stage_latency_ns",
                name,
                session,
            )),
            items_reg: ims_obs::metrics::counter(&Self::metric_name(
                "pipeline.items_total",
                name,
                session,
            )),
            cells_reg: ims_obs::metrics::counter(&Self::metric_name(
                "pipeline.cells_total",
                name,
                session,
            )),
            cells_pushed: 0,
            flight: None,
        }
    }

    /// Records one ingress/egress event for this node into the run's
    /// flight recorder (no-op for meters without a tap).
    #[inline]
    pub(super) fn record_flight(&self, kind: ims_obs::FlightKind, item: u64) {
        if let Some((rec, label)) = &self.flight {
            rec.record(*label, kind, item);
        }
    }

    /// [`record_flight`](Self::record_flight) with an explicit timestamp.
    /// The concurrent executors stamp egress *before* offering the message
    /// downstream, so an egress timestamp always precedes the matching
    /// downstream ingress — the invariant that keeps causal chains (which
    /// sort by timestamp) deterministic across runs.
    #[inline]
    pub(super) fn record_flight_at(&self, kind: ims_obs::FlightKind, item: u64, ts_ns: u64) {
        if let Some((rec, label)) = &self.flight {
            rec.record_at(*label, kind, item, ts_ns);
        }
    }

    /// `prefix.stage`, plus the `#session=<label>` suffix the exporter
    /// turns into a Prometheus label when the run belongs to a session.
    pub(super) fn metric_name(prefix: &str, stage: &str, session: Option<&'static str>) -> String {
        match session {
            Some(s) => format!("{prefix}.{stage}#session={s}"),
            None => format!("{prefix}.{stage}"),
        }
    }

    /// Records one item's processing latency (run-local and registry).
    pub(super) fn record_latency(&mut self, d: Duration) {
        self.latency.record_duration(d);
        self.latency_reg.record_duration(d);
        self.items_reg.incr();
    }

    /// Pushes the stage's cell-count growth since the last refresh into
    /// the registry, so mid-run samples carry cell throughput.
    pub(super) fn refresh_cells(&mut self, stage: &dyn Stage) {
        let total = stage.cells_processed();
        self.cells_reg.add(total.saturating_sub(self.cells_pushed));
        self.cells_pushed = total;
    }

    /// Converts to the serializable report. The blocked/queue fields are
    /// only meaningful under the concurrent executors; the inline
    /// executor reports them as `None` so JSON consumers can't misread
    /// `0` as "never blocked".
    fn into_report(self, concurrent: bool) -> StageReport {
        StageReport {
            name: self.name.to_string(),
            items_in: self.items_in,
            items_out: self.items_out,
            busy_seconds: self.busy.as_secs_f64(),
            blocked_recv_seconds: concurrent.then_some(self.blocked_recv.as_secs_f64()),
            blocked_send_seconds: concurrent.then_some(self.blocked_send.as_secs_f64()),
            queue_high_water: concurrent.then_some(self.queue_high_water),
            latency_ns: (self.latency.count() > 0).then(|| self.latency.summary()),
            cells: 0,
            items_per_second: 0.0,
            mcells_per_second: 0.0,
        }
    }
}
