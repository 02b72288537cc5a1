//! The hybrid stage-graph runner behind `htims pipeline|serve|chaos`.
//!
//! A [`GraphSpec`] is the full, reproducible description of one run:
//! graph shape (PRS degree, m/z bins, frames, blocks, channel depth,
//! optional coarse binning), backend/executor selection, thread count,
//! and the RNG seed that drives both the acquisition and the frame
//! stream. The CLI parses flags into one; the integration tests build
//! them directly — two runs of an identical spec produce bit-identical
//! blocks and identical deterministic metrics counts.

use crate::core::acquisition::{acquire, AcquireOptions, GateSchedule};
use crate::core::capture::{CaptureLog, CAPTURE_SCHEMA_VERSION};
use crate::core::deconv_batch::DEFAULT_PANEL_WIDTH;
use crate::core::fault::{FaultInjector, FaultSpec};
use crate::core::hybrid::{hybrid_pipeline, FrameGenerator, HybridConfig};
use crate::core::pipeline::{
    output_fingerprint, DeconvBackend, Pipeline, PipelineOutput, SupervisorConfig,
};
use crate::fpga::MzBinner;
use crate::physics::{Instrument, Workload};
use crate::prs::poly::{MAX_DEGREE, MIN_DEGREE};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The one check of a run's shape, made before anything is built: a PRS
/// degree the primitive-polynomial table covers
/// (`MIN_DEGREE..=MAX_DEGREE`) and at least one m/z bin. `names` are the
/// caller's words for the two values (`--degree` and `--mz` on the
/// command line), so the error names what to fix.
pub fn check_shape(degree: u32, mz: usize, names: [&str; 2]) -> Result<(), String> {
    let [degree_name, mz_name] = names;
    if !(MIN_DEGREE..=MAX_DEGREE).contains(&degree) {
        return Err(format!(
            "{degree_name} {degree} is outside the supported PRS degrees \
             {MIN_DEGREE}..={MAX_DEGREE}"
        ));
    }
    if mz == 0 {
        return Err(format!("{mz_name} 0: a frame needs at least one m/z bin"));
    }
    Ok(())
}

/// One reproducible stage-graph run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// PRS degree (drift bins = 2^degree − 1).
    pub degree: u32,
    /// m/z bins per frame.
    pub mz: usize,
    /// Frames folded into each block.
    pub frames: u64,
    /// Blocks to produce.
    pub blocks: usize,
    /// Bounded-channel depth (threaded executor back-pressure).
    pub depth: usize,
    /// Deconvolution backend: `fpga` | `naive` | `software`.
    pub backend: String,
    /// Worker threads for the software backend (0 = machine width).
    pub threads: usize,
    /// Coarse m/z bin count for the on-chip binner stage, if any.
    pub coarse: Option<usize>,
    /// Executor: `threaded` (the work-stealing runtime) | `inline`.
    pub executor: String,
    /// Seed for the acquisition RNG and the frame stream — the whole run
    /// is a pure function of the spec including this.
    pub seed: u64,
    /// Compact fault spec (e.g. `dma.bitflip=1e-5,frame.drop=1e-4`) armed
    /// on the run, or `None` for the clean path. Chaotic runs stay a pure
    /// function of `(spec, seed)` — same spec, same faults, same blocks.
    pub faults: Option<String>,
    /// Watchdog stall timeout in milliseconds; `None` leaves the watchdog
    /// off (threaded executor only).
    pub stall_timeout_ms: Option<u64>,
    /// When set, the accumulate stage attaches a run index to
    /// low-occupancy blocks and FWHT-capable backends skip the empty
    /// columns (bit-identical output; `report.sparse_blocks` counts how
    /// many blocks took the sparse path).
    pub sparse: bool,
    /// Declarative SLO targets (`p99=5ms,completeness=0.999`); the p99
    /// target arms per-frame end-to-end latency tracking on the run.
    /// Observability-only: not part of the config fingerprint.
    pub slo: Option<String>,
    /// Directory for flight-recorder black-box dumps; a run that ends
    /// Degraded/Failed writes `flight_<fingerprint>.jsonl` there.
    /// Observability-only: not part of the config fingerprint.
    pub flight_dir: Option<String>,
    /// Directory for the continuous-profiler dump (`profile.folded` +
    /// `profile.json`) written after the run by `htims
    /// pipeline|serve|chaos --profile <dir>`.
    /// Observability-only: not part of the config fingerprint.
    pub profile_dir: Option<String>,
    /// m/z-range shards the accumulate stage splits its RAM into (0 and 1
    /// both mean one shard, cycle-identical to the monolithic core). Output
    /// is bit-identical for every count, so this is not part of the config
    /// fingerprint.
    #[serde(default)]
    pub shards: usize,
    /// Directory for the frame capture log: every sourced frame is
    /// appended (pre-corruption), a `manifest.json` carrying this spec and
    /// the output FNV is written after the run, and [`replay`] reproduces
    /// the run bit-for-bit from the pair. While the run is live the same
    /// log rebuilds shards killed by the `shard.kill` fault site.
    /// Observability-only: not part of the config fingerprint.
    #[serde(default)]
    pub capture_log: Option<String>,
}

impl GraphSpec {
    /// Defaults of `htims pipeline`: a small, fast smoke graph.
    pub fn small() -> Self {
        Self {
            degree: 6,
            mz: 60,
            frames: 16,
            blocks: 2,
            depth: 4,
            backend: "fpga".into(),
            threads: 0,
            coarse: None,
            executor: "threaded".into(),
            seed: 7,
            faults: None,
            stall_timeout_ms: None,
            sparse: false,
            slo: None,
            flight_dir: None,
            profile_dir: None,
            shards: 0,
            capture_log: None,
        }
    }

    /// Defaults of `htims serve`: the E3 throughput workload (511 drift
    /// bins × 1000 m/z, software backend) so live series answer the
    /// bench's "why is this configuration slow" question.
    pub fn e3() -> Self {
        Self {
            degree: 9,
            mz: 1000,
            frames: 20,
            backend: "software".into(),
            ..Self::small()
        }
    }

    /// [`check_shape`] on the spec's degree and m/z bins.
    pub fn check_shape(&self) -> Result<(), String> {
        check_shape(self.degree, self.mz, ["--degree", "--mz"])
    }

    /// Drift-time bins: the PRS length `2^degree − 1`.
    pub fn drift_bins(&self) -> usize {
        (1usize << self.degree) - 1
    }

    /// `threads` with 0 resolved to the machine width.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The run's config fingerprint (see [`ims_obs::ledger`]): joins the
    /// ledger line this run appends with bench rows of the same shape.
    pub fn fingerprint(&self) -> String {
        ims_obs::config_fingerprint(&ims_obs::FingerprintParts {
            drift_bins: self.drift_bins(),
            mz_bins: self.mz,
            method: &self.backend,
            engine: &self.executor,
            threads: self.resolved_threads(),
            panel_width: DEFAULT_PANEL_WIDTH,
        })
    }

    /// Builds and runs the graph. Errors (out-of-range degree or m/z
    /// bins, unknown backend/executor, out-of-range coarse bins) are
    /// returned, not printed — the CLI
    /// decides how to die. When `capture_log` is set, the log is fsynced
    /// and a `manifest.json` (spec + output FNV) is written next to the
    /// segments after the run, closing the replay contract.
    pub fn run(&self) -> Result<PipelineOutput, String> {
        let (graph, capture) = self.build_inner()?;
        let out = self.execute(graph);
        if let Some(log) = capture {
            log.finish()
                .map_err(|e| format!("cannot finish capture log: {e}"))?;
            let manifest = CaptureManifest {
                schema_version: CAPTURE_SCHEMA_VERSION,
                output_fnv: output_fingerprint(&out.blocks),
                spec: self.clone(),
            };
            let text = serde_json::to_string_pretty(&manifest)
                .map_err(|e| format!("cannot serialise capture manifest: {e}"))?;
            std::fs::write(log.dir().join("manifest.json"), text)
                .map_err(|e| format!("cannot write capture manifest: {e}"))?;
        }
        Ok(out)
    }

    /// Builds the pipeline without running it — what the session
    /// multiplexer uses to admit many specs onto one scheduler. The
    /// executor field is validated here, so a bad spec fails at
    /// admission rather than mid-run.
    pub fn build(&self) -> Result<crate::core::pipeline::Pipeline, String> {
        self.build_inner().map(|(graph, _)| graph)
    }

    /// [`build`](Self::build) plus the writable capture-log handle when
    /// the spec asks for one, so [`run`](Self::run) can finish the log
    /// and stamp the manifest after the executor drains.
    fn build_inner(&self) -> Result<(Pipeline, Option<CaptureLog>), String> {
        self.check_shape()?;
        if !matches!(self.executor.as_str(), "inline" | "threaded") {
            return Err(format!(
                "unknown executor '{}' (use threaded | inline)",
                self.executor
            ));
        }
        if let Some(c) = self.coarse {
            if c < 1 || c > self.mz {
                return Err(format!(
                    "coarse bins must be in 1..={} (the m/z bin count), got {c}",
                    self.mz
                ));
            }
        }
        let n = self.drift_bins();
        let mut inst = Instrument::with_drift_bins(n);
        inst.tof.n_bins = self.mz;
        let workload = Workload::three_peptide_mix();
        let schedule = GateSchedule::multiplexed(self.degree);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let data = acquire(
            &inst,
            &workload,
            &schedule,
            1,
            AcquireOptions::default(),
            &mut rng,
        );
        let seq = match schedule {
            GateSchedule::Multiplexed { seq } => seq,
            _ => unreachable!(),
        };
        // Frame-stream seed derived from the run seed (offset keeps the
        // historical default stream: seed 7 → generator seed 1234).
        let generator = FrameGenerator::new(&data, &inst.adc, self.seed.wrapping_add(1227));
        let cfg = HybridConfig {
            frames: self.frames,
            channel_depth: self.depth,
            binner: self.coarse.map(|c| MzBinner::uniform(self.mz, c)),
            sparse: self.sparse,
            shards: self.shards,
            ..Default::default()
        };
        let backend = DeconvBackend::from_name(&self.backend, &seq, cfg.deconv, self.threads)
            .ok_or_else(|| {
                format!(
                    "unknown backend '{}' (use fpga | naive | software)",
                    self.backend
                )
            })?;

        let mut graph = hybrid_pipeline(
            &generator,
            &seq,
            &cfg,
            self.frames * self.blocks as u64,
            self.frames,
            false,
            backend,
        );
        if let Some(text) = &self.faults {
            let spec = FaultSpec::parse(text).map_err(|e| format!("bad --faults spec: {e}"))?;
            graph = graph.with_faults(FaultInjector::new(self.seed, spec));
        }
        if self.stall_timeout_ms.is_some() {
            graph = graph.with_supervisor(SupervisorConfig {
                stall_timeout: self.stall_timeout_ms.map(std::time::Duration::from_millis),
                ..Default::default()
            });
        }
        if let Some(spec) = self.slo_spec()? {
            if let Some(p99) = spec.p99_ns {
                graph = graph.with_latency_slo(p99);
            }
        }
        if let Some(dir) = &self.flight_dir {
            graph = graph.with_flight_dump(dir, &self.fingerprint());
        }
        let mut capture = None;
        if let Some(dir) = &self.capture_log {
            let log = CaptureLog::create(Path::new(dir))
                .map_err(|e| format!("cannot create capture log in {dir}: {e}"))?;
            graph = graph.with_capture_log(log.clone());
            capture = Some(log);
        }
        Ok((graph, capture))
    }

    /// Parsed `--slo` targets, or `None` when no SLO was declared.
    pub fn slo_spec(&self) -> Result<Option<ims_obs::SloSpec>, String> {
        match &self.slo {
            Some(text) => ims_obs::SloSpec::parse(text)
                .map(Some)
                .map_err(|e| format!("bad --slo spec: {e}")),
            None => Ok(None),
        }
    }

    /// Runs a pipeline [`build_inner`](Self::build_inner) built (which
    /// checked the executor name) on the spec's executor.
    fn execute(&self, graph: Pipeline) -> PipelineOutput {
        match self.executor.as_str() {
            "inline" => graph.run_inline(),
            _ => graph.run_threaded(),
        }
    }
}

/// The `manifest.json` written next to a capture log's segments: the spec
/// that produced the log plus the run's output FNV, which [`replay`] must
/// reproduce bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaptureManifest {
    /// Capture-log schema version the segments were written under.
    pub schema_version: u32,
    /// FNV-1a 64 fingerprint of the captured run's deconvolved blocks.
    pub output_fnv: u64,
    /// The full spec of the captured run.
    pub spec: GraphSpec,
}

/// A replayed run and the fingerprint contract it was held to.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The spec the replay ran: the manifest's, minus the capture log
    /// and the source-side fault sites.
    pub spec: GraphSpec,
    /// The replayed run's output.
    pub output: PipelineOutput,
    /// The captured run's output FNV, from the manifest.
    pub expected_fnv: u64,
    /// The replayed run's output FNV.
    pub actual_fnv: u64,
}

impl ReplayOutcome {
    /// Did the replay reproduce the captured output bit-for-bit?
    pub fn matches(&self) -> bool {
        self.expected_fnv == self.actual_fnv
    }
}

/// Replays a captured run from `dir` (segments + `manifest.json`) and
/// checks the output FNV against the manifest — `htims pipeline --replay`.
///
/// Source-side fault sites (`frame.drop`, `source.stall`) are stripped
/// before the run: frames those sites consumed were never logged, so
/// re-arming them would fault surviving frames twice. Downstream sites are
/// keyed by seq number / block index and re-fire exactly as captured.
pub fn replay(dir: &str) -> Result<ReplayOutcome, String> {
    let manifest_path = Path::new(dir).join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let manifest: CaptureManifest =
        serde_json::from_str(&text).map_err(|e| format!("bad capture manifest: {e}"))?;
    if manifest.schema_version != CAPTURE_SCHEMA_VERSION {
        return Err(format!(
            "capture log schema v{} is not the supported v{CAPTURE_SCHEMA_VERSION}",
            manifest.schema_version
        ));
    }
    let mut spec = manifest.spec.clone();
    spec.capture_log = None;
    if let Some(text) = &spec.faults {
        let parsed =
            FaultSpec::parse(text).map_err(|e| format!("bad fault spec in manifest: {e}"))?;
        let stripped = parsed.without_source_sites();
        spec.faults = if stripped.is_zero() {
            None
        } else {
            Some(stripped.to_string())
        };
    }
    // The manifest is untrusted: its spec is checked before the log is
    // read.
    let graph = spec
        .build()
        .map_err(|e| format!("bad capture manifest: {e}"))?;
    let log = CaptureLog::open(Path::new(dir))
        .map_err(|e| format!("cannot open capture log in {dir}: {e}"))?;
    let packets = log
        .read_all()
        .map_err(|e| format!("cannot read capture log in {dir}: {e}"))?;
    // The read-only log rides along so `shard.kill` rebuilds re-fire in
    // the replay exactly as they did in the captured run (appends from
    // the replaying source are no-ops on a read-only log).
    let graph = graph.with_replay_source(packets).with_capture_log(log);
    let output = spec.execute(graph);
    let actual_fnv = output_fingerprint(&output.blocks);
    Ok(ReplayOutcome {
        spec,
        output,
        expected_fnv: manifest.output_fnv,
        actual_fnv,
    })
}
