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
//! Both executors are instrumented through one boundary recorder per node
//! ([`StageMeter`], built by [`Pipeline::arm`]): each message entering a
//! node, each timed `process`/`flush` call and each message leaving a
//! node is one recorder call that feeds every consumer — the run report,
//! the registry series, the span (category = stage name, or
//! `stage@session` for labeled tenants) and the flight ring. Under the
//! threaded executor, ingress also samples the inbox depth into a gauge
//! and a Chrome counter track. Always on: a handful of relaxed atomics
//! per *item*, where items are frames or blocks.
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
use super::{Block, DeconvolvedBlock, Message, ObsTap, Stage};
use crate::fault::FaultInjector;
use ims_obs::{FlightKind, FlightRecorder};
use std::time::{Duration, Instant};

/// Ring shards the per-run flight recorder keeps (threads hash onto
/// shards by a stable per-thread ordinal).
const FLIGHT_SHARDS: usize = 8;
/// Events each shard retains (the "last N events per worker" of a
/// black-box dump; older events are overwritten).
const FLIGHT_CAPACITY: usize = 1024;

/// The always-on flight-recorder wiring of one pipeline run: the shared
/// ring recorder and the dump/SLO configuration.
pub(super) struct FlightConfig {
    pub(super) recorder: FlightRecorder,
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
    /// source and stages, and builds each node's boundary recorder: one
    /// [`StageMeter`] per node, source first, that both executors drive.
    /// Flight labels register in pipeline order (source, then stages,
    /// then — via the injector — fault sites), so label indices are
    /// deterministic for a given graph shape. `concurrent` gives each
    /// stage's meter its `pipeline.queue_depth.*` gauge: only the threaded
    /// executor has inboxes.
    pub(super) fn arm(&mut self, concurrent: bool) -> Vec<StageMeter> {
        let rec = self.flight.recorder.clone();
        let names: Vec<&'static str> = std::iter::once("source")
            .chain(self.stages.iter().map(|s| s.name()))
            .collect();
        let labels: Vec<u16> = names.iter().map(|name| rec.register(name)).collect();
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
        names
            .into_iter()
            .zip(labels)
            .enumerate()
            .map(|(node, (name, label))| {
                let queued = concurrent && node > 0;
                StageMeter::new(name, self.session, (rec.clone(), label), queued)
            })
            .collect()
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
    /// because it drives the same stages over the same integer datapath,
    /// through the same source step and boundary recorder.
    /// Fault injection works here too (same deterministic decisions, since
    /// they depend only on `(seed, site, index)`), but supervision does
    /// not: the inline executor is the *reference*, so a stage panic
    /// propagates and no watchdog runs.
    pub fn run_inline(mut self) -> PipelineOutput {
        assert!(!self.stages.is_empty(), "pipeline has no stages");
        let mut meters = self.arm(false);
        let start = Instant::now();
        let mut stages = std::mem::take(&mut self.stages);
        let mut blocks = Vec::new();
        let frames = self.source.frames();
        for i in 0..frames {
            match source_step(&self.source, self.injector.as_ref(), &mut meters[0], i) {
                SourceStep::Emit(msg) => pass_on(&mut stages, &mut meters, 0, msg, &mut blocks),
                SourceStep::Dropped => {}
                SourceStep::Stopped => break,
            }
        }
        for i in 0..stages.len() {
            let mut emitted = Vec::new();
            meters[i + 1].flush(stages[i].as_mut(), &mut |m| emitted.push(m));
            for m in emitted {
                pass_on(&mut stages, &mut meters, i + 1, m, &mut blocks);
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

/// Sends `msg` out of node `from` (0 = the source, `i + 1` = stage `i`)
/// and on down the chain depth-first: the node's egress, then the next
/// stage's ingress and `process` call, whose emissions follow the same
/// way. What leaves the last stage is an output block.
fn pass_on(
    stages: &mut [Box<dyn Stage>],
    meters: &mut [StageMeter],
    from: usize,
    msg: Message,
    out: &mut Vec<DeconvolvedBlock>,
) {
    meters[from].egress(&msg, ims_obs::trace::now_ns());
    let Some(stage) = stages.get_mut(from) else {
        if let Message::Deconvolved(b) = msg {
            out.push(b);
        }
        return;
    };
    let meter = &mut meters[from + 1];
    meter.ingress(&msg, None);
    let mut emitted = Vec::new();
    meter.process(stage.as_mut(), msg, &mut |m| emitted.push(m));
    for m in emitted {
        pass_on(stages, meters, from + 1, m, out);
    }
}

/// What one [`source_step`] did with its frame.
pub(super) enum SourceStep {
    /// The frame's packet, ready to leave the source.
    Emit(Message),
    /// The `frame.drop` site consumed the frame.
    Dropped,
    /// An injected stall was cancelled by the watchdog: the source stops.
    Stopped,
}

/// One source step, the same on both executors: frame `i`'s source-side
/// fault sites (`source.stall` sleeps on the calling thread, modelling a
/// wedged producer; `frame.drop`), then the metered generation of its
/// packet.
pub(super) fn source_step(
    source: &FrameSource,
    injector: Option<&FaultInjector>,
    meter: &mut StageMeter,
    i: u64,
) -> SourceStep {
    if let Some(inj) = injector {
        if let Some(stall) = inj.stall_duration(i) {
            if !inj.stall(stall) {
                return SourceStep::Stopped;
            }
        }
        if inj.drop_frame(i) {
            return SourceStep::Dropped;
        }
    }
    SourceStep::Emit(meter.generate(source, i))
}

/// One node's boundary recorder, built once per node by
/// [`Pipeline::arm`] and driven the same way by both executors. A
/// boundary is a message entering the node ([`ingress`](Self::ingress)),
/// the timed call on it ([`process`](Self::process),
/// [`flush`](Self::flush), or the source's [`generate`](Self::generate)),
/// or a message leaving it ([`egress`](Self::egress)). Each is one call,
/// and that call feeds every consumer: the run-local counters and latency
/// histogram (the [`StageReport`]), the registry series (`/metrics`, the
/// sampler), the span (the trace) and the flight ring (the black box).
pub(super) struct StageMeter {
    pub(super) name: &'static str,
    /// Span/trace category: the node name, or `name@session` for a
    /// multiplexer tenant, interned so each tenant gets its own track.
    cat: &'static str,
    items_in: u64,
    items_out: u64,
    busy: Duration,
    /// Time spent waiting on an empty inbox / a full downstream inbox;
    /// kept by the threaded executor's poll loop.
    pub(super) blocked_recv: Duration,
    pub(super) blocked_send: Duration,
    queue_high_water: u64,
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
    /// Inbox depth gauge (`pipeline.queue_depth.<stage>`): stage nodes of
    /// the threaded executor only, the one executor with inboxes.
    queue_gauge: Option<&'static ims_obs::Gauge>,
    /// This node's tap into the run's flight recorder: the shared rings
    /// plus the node's label index.
    flight: (FlightRecorder, u16),
}

impl StageMeter {
    /// A meter whose registry series carry the session's label suffix
    /// (none for single-session runs, whose metric names stay unsuffixed).
    fn new(
        name: &'static str,
        session: Option<&'static str>,
        flight: (FlightRecorder, u16),
        queued: bool,
    ) -> Self {
        let metric = |prefix: &str| match session {
            Some(s) => format!("{prefix}.{name}#session={s}"),
            None => format!("{prefix}.{name}"),
        };
        Self {
            name,
            cat: match session {
                Some(s) => ims_obs::intern(&format!("{name}@{s}")),
                None => name,
            },
            items_in: 0,
            items_out: 0,
            busy: Duration::ZERO,
            blocked_recv: Duration::ZERO,
            blocked_send: Duration::ZERO,
            queue_high_water: 0,
            latency: ims_obs::Histogram::new(),
            latency_reg: ims_obs::metrics::histogram(&metric("pipeline.stage_latency_ns")),
            items_reg: ims_obs::metrics::counter(&metric("pipeline.items_total")),
            cells_reg: ims_obs::metrics::counter(&metric("pipeline.cells_total")),
            cells_pushed: 0,
            queue_gauge: queued.then(|| ims_obs::metrics::gauge(&metric("pipeline.queue_depth"))),
            flight,
        }
    }

    /// A message entering the node. `depth` is the depth of the inbox it
    /// was popped from, before the pop (`None` on the inline executor,
    /// which has no inboxes).
    pub(super) fn ingress(&mut self, msg: &Message, depth: Option<usize>) {
        if let (Some(depth), Some(gauge)) = (depth, self.queue_gauge) {
            self.queue_high_water = self.queue_high_water.max(depth as u64);
            gauge.set(depth as u64);
            ims_obs::counter_sample("queue-depth", self.cat, depth as f64);
        }
        self.items_in += 1;
        self.record(msg, false, ims_obs::trace::now_ns());
    }

    /// A message leaving the node, stamped `ts_ns`. The threaded executor
    /// stamps before offering the message downstream, so an egress
    /// timestamp always precedes the matching downstream ingress — the
    /// invariant that keeps causal chains (which sort by timestamp)
    /// deterministic across runs.
    pub(super) fn egress(&mut self, msg: &Message, ts_ns: u64) {
        self.items_out += 1;
        self.record(msg, true, ts_ns);
    }

    /// The timed `process` call: one item's span, busy time and latency.
    pub(super) fn process(
        &mut self,
        stage: &mut dyn Stage,
        msg: Message,
        emit: &mut dyn FnMut(Message),
    ) {
        let ((), took) = self.timed("process", || stage.process(msg, emit));
        self.record_latency(took);
        self.refresh_cells(stage);
    }

    /// The timed `flush` call: its span and busy time. A flush is not an
    /// item, so it adds no latency sample.
    pub(super) fn flush(&mut self, stage: &mut dyn Stage, emit: &mut dyn FnMut(Message)) {
        self.timed("flush", || stage.flush(emit));
        self.refresh_cells(stage);
    }

    /// The source's timed call: generating frame `i`'s packet.
    fn generate(&mut self, source: &FrameSource, i: u64) -> Message {
        let (packet, took) = self.timed("process", || source.packet(i));
        self.record_latency(took);
        Message::Frame(packet)
    }

    /// Runs `call` under a span named `what`, adding its time to `busy`.
    fn timed<R>(&mut self, what: &'static str, call: impl FnOnce() -> R) -> (R, Duration) {
        let t = Instant::now();
        let out = {
            let _sp = ims_obs::span_cat(self.cat, what);
            call()
        };
        let took = t.elapsed();
        self.busy += took;
        (out, took)
    }

    /// Records one item's processing latency (run-local and registry).
    fn record_latency(&mut self, d: Duration) {
        self.latency.record_duration(d);
        self.latency_reg.record_duration(d);
        self.items_reg.incr();
    }

    /// Pushes the stage's cell-count growth since the last refresh into
    /// the registry, so mid-run samples carry cell throughput.
    fn refresh_cells(&mut self, stage: &dyn Stage) {
        let total = stage.cells_processed();
        self.cells_reg.add(total.saturating_sub(self.cells_pushed));
        self.cells_pushed = total;
    }

    /// Writes a boundary event into the flight ring. Frames key on
    /// `seq_no` (the frame id); blocks — accumulated or deconvolved — on
    /// their block index.
    fn record(&self, msg: &Message, egress: bool, ts_ns: u64) {
        let (item, [entered, left]) = match msg {
            Message::Frame(p) => (
                p.seq_no,
                [FlightKind::FrameIngress, FlightKind::FrameEgress],
            ),
            Message::Block(Block { index, .. })
            | Message::Deconvolved(DeconvolvedBlock { index, .. }) => {
                (*index, [FlightKind::BlockIngress, FlightKind::BlockEgress])
            }
        };
        let (recorder, label) = &self.flight;
        recorder.record_at(*label, if egress { left } else { entered }, item, ts_ns);
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
