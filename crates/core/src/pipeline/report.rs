//! Instrumentation records produced by a pipeline run.
//!
//! Every executor — threaded or inline — fills in one [`PipelineReport`]:
//! the run-level counters (frames, blocks, cycle totals, simulated link
//! time) plus one [`StageReport`] per stage with its busy/blocked split and
//! the high-water mark of its input queue. Both are plain serde structs so
//! the `htims pipeline` subcommand can emit them as JSON.

use super::error::{PipelineError, RunOutcome};
use crate::fault::FaultCounts;
use ims_obs::HistogramSummary;
use serde::{Deserialize, Serialize};

/// Per-stage instrumentation from one pipeline run.
///
/// In the threaded executor, `blocked_recv_seconds` is time the stage sat
/// waiting for input and `blocked_send_seconds` is time spent handing
/// messages downstream (dominated by back-pressure when the next stage is
/// the bottleneck). `queue_high_water` is the largest occupancy its input
/// channel reached — a full queue marks this stage as the choke point.
/// The inline executor runs everything on one thread, so those three
/// fields are meaningless there: they are `None` and omitted from the
/// JSON (rather than a misleading `0` that reads as "never blocked").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage name (`"source"`, `"link"`, `"binner"`, `"accumulate"`,
    /// `"deconvolve"`).
    pub name: String,
    /// Messages consumed.
    pub items_in: u64,
    /// Messages emitted.
    pub items_out: u64,
    /// Time spent doing work, seconds.
    pub busy_seconds: f64,
    /// Time blocked waiting for input, seconds (threaded executor only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub blocked_recv_seconds: Option<f64>,
    /// Time spent sending output (back-pressure wait included), seconds
    /// (threaded executor only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub blocked_send_seconds: Option<f64>,
    /// Largest observed occupancy of this stage's input queue (threaded
    /// executor only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub queue_high_water: Option<u64>,
    /// Distribution of per-item processing latency, nanoseconds (`None`
    /// when the stage processed no items).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_ns: Option<HistogramSummary>,
    /// Data cells (drift bins × m/z bins) processed by this stage — 0 for
    /// stages that don't process 2-D blocks.
    #[serde(default)]
    pub cells: u64,
    /// Messages emitted per second of busy time (0 when unmeasured).
    #[serde(default)]
    pub items_per_second: f64,
    /// Millions of cells processed per second of busy time (0 when the
    /// stage processes no cells or no busy time was measured).
    #[serde(default)]
    pub mcells_per_second: f64,
}

/// Run-level instrumentation from one pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Which executor ran the graph: `"threaded"` or `"inline"`.
    pub executor: String,
    /// Deconvolution backend name (`"fpga-fwht"`, `"naive-mac"`,
    /// `"software"`), or `"none"` if the graph had no deconvolve stage.
    pub backend: String,
    /// Frames emitted by the source.
    pub frames: u64,
    /// Deconvolved blocks produced.
    pub blocks: u64,
    /// Frames folded into each block (the last block may hold fewer).
    pub frames_per_block: u64,
    /// Bounded-channel depth used for frame channels (threaded executor).
    pub channel_depth: usize,
    /// Wall time of the run, seconds.
    pub wall_seconds: f64,
    /// Simulated DMA transfer time accumulated by the link stage, seconds.
    pub simulated_link_seconds: f64,
    /// FPGA cycles spent capturing/accumulating.
    pub capture_cycles: u64,
    /// FPGA cycles spent binning m/z on chip.
    pub binner_cycles: u64,
    /// FPGA cycles spent deconvolving.
    pub deconv_cycles: u64,
    /// Saturating adds observed by the accumulator (data-quality flag).
    pub saturation_events: u64,
    /// Deconvolved blocks per second of the deconvolve stage's busy time
    /// (0 when the graph has no deconvolve stage or none was measured).
    #[serde(default)]
    pub deconv_blocks_per_second: f64,
    /// Millions of cells deconvolved per second of busy time.
    #[serde(default)]
    pub deconv_mcells_per_second: f64,
    /// The run verdict: `Failed` when any [`errors`](Self::errors) were
    /// recorded, `Degraded` when faults fired or frames were lost but the
    /// run finished, `Completed` otherwise. Legacy reports (serialized
    /// before supervision existed) read back as `Completed`.
    #[serde(default)]
    pub outcome: RunOutcome,
    /// Structured fatal errors (stage panics, watchdog stalls). Empty on
    /// clean and degraded runs.
    #[serde(default)]
    pub errors: Vec<PipelineError>,
    /// Counts of deterministically injected faults (all zero when the run
    /// had no injector).
    #[serde(default)]
    pub faults: FaultCounts,
    /// Frames whose integrity checksum failed and were quarantined
    /// (counted and dropped; the run degrades).
    #[serde(default)]
    pub frames_quarantined: u64,
    /// Blocks the deconvolve stage recovered by falling back to the
    /// software panel engine after a hardware-backend failure.
    #[serde(default)]
    pub deconv_fallbacks: u64,
    /// SIMD backend the panel kernels dispatched to in this process
    /// (`"scalar"`, `"sse2"`, `"avx2"`, `"avx512"`). Legacy reports read
    /// back as an empty string.
    #[serde(default)]
    pub simd: String,
    /// Accumulated blocks that took the sparse (run-indexed,
    /// zero-column skipping) deconvolution path. Dense runs report 0.
    #[serde(default)]
    pub sparse_blocks: u64,
    /// Tenant label when the run was admitted through the session
    /// multiplexer (`"s17"`); `None` for single-tenant runs. Stamped by
    /// `SessionHandle::join`, carried into session-labeled ledger lines.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub session: Option<String>,
    /// Frames whose end-to-end latency (packing to accumulation) exceeded
    /// the armed SLO's p99 target. 0 when no SLO was declared.
    #[serde(default)]
    pub frames_over_latency_slo: u64,
    /// Accumulator shards killed by `shard.kill` and rebuilt bit-exactly
    /// from the frame capture log.
    #[serde(default)]
    pub shard_rebuilds: u64,
    /// Accumulator shards that drained *lost* — killed with no capture
    /// log to rebuild from, their m/z ranges zeroed in the merged output.
    #[serde(default)]
    pub shards_lost: u64,
    /// The `[lo, hi)` m/z column ranges of lost shards, in drain order —
    /// the blast radius of an unrecovered `shard.kill`.
    #[serde(default)]
    pub lost_mz_ranges: Vec<(usize, usize)>,
    /// Path of the flight-recorder black-box dump this run wrote, when it
    /// ended badly enough to trigger one *and* a dump directory was
    /// configured. `None` (and omitted) otherwise.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub flight_dump: Option<String>,
    /// Per-stage breakdown, in graph order (source first).
    pub stages: Vec<StageReport>,
}

impl PipelineReport {
    /// An empty report for the given executor; stages fill it in via
    /// [`Stage::finalize`](super::Stage::finalize).
    pub fn new(executor: &str) -> Self {
        Self {
            executor: executor.to_string(),
            backend: "none".to_string(),
            frames: 0,
            blocks: 0,
            frames_per_block: 0,
            channel_depth: 0,
            wall_seconds: 0.0,
            simulated_link_seconds: 0.0,
            capture_cycles: 0,
            binner_cycles: 0,
            deconv_cycles: 0,
            saturation_events: 0,
            deconv_blocks_per_second: 0.0,
            deconv_mcells_per_second: 0.0,
            outcome: RunOutcome::Completed,
            errors: Vec::new(),
            faults: FaultCounts::default(),
            frames_quarantined: 0,
            deconv_fallbacks: 0,
            simd: ims_signal::simd::active_name().to_string(),
            sparse_blocks: 0,
            session: None,
            frames_over_latency_slo: 0,
            shard_rebuilds: 0,
            shards_lost: 0,
            lost_mz_ranges: Vec::new(),
            flight_dump: None,
            stages: Vec::new(),
        }
    }

    /// The report of the named stage, if present.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut r = PipelineReport::new("threaded");
        r.backend = "fpga-fwht".into();
        r.frames = 12;
        r.blocks = 3;
        r.deconv_blocks_per_second = 6.0;
        r.deconv_mcells_per_second = 1.5;
        r.stages.push(StageReport {
            name: "accumulate".into(),
            items_in: 12,
            items_out: 3,
            busy_seconds: 0.5,
            blocked_recv_seconds: Some(0.25),
            blocked_send_seconds: Some(0.125),
            queue_high_water: Some(4),
            latency_ns: Some(HistogramSummary {
                count: 12,
                sum: 18_000,
                min: 900,
                max: 2_100,
                mean: 1_500.0,
                p50: 1_400,
                p90: 2_000,
                p99: 2_100,
            }),
            cells: 750_000,
            items_per_second: 6.0,
            mcells_per_second: 1.5,
        });
        r.sparse_blocks = 2;
        let json = serde_json::to_string(&r).unwrap();
        let back: PipelineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.backend, "fpga-fwht");
        // Provenance survives the round trip: the SIMD backend stamped at
        // construction and the sparse-block count.
        assert_eq!(back.simd, ims_signal::simd::active_name());
        assert_eq!(back.sparse_blocks, 2);
        assert_eq!(back.stages.len(), 1);
        let acc = back.stage("accumulate").unwrap();
        assert_eq!(acc.queue_high_water, Some(4));
        assert_eq!(acc.cells, 750_000);
        assert_eq!(acc.latency_ns.as_ref().unwrap().p99, 2_100);
        assert!((back.deconv_mcells_per_second - 1.5).abs() < 1e-12);
        assert!(back.stage("missing").is_none());
    }

    #[test]
    fn throughput_fields_default_when_absent() {
        // Reports serialized before the throughput fields existed must
        // still parse (serde defaults).
        let json = r#"{
            "name": "deconvolve", "items_in": 2, "items_out": 2,
            "busy_seconds": 0.1, "blocked_recv_seconds": 0.0,
            "blocked_send_seconds": 0.0, "queue_high_water": 1
        }"#;
        let s: StageReport = serde_json::from_str(json).unwrap();
        assert_eq!(s.cells, 0);
        assert_eq!(s.items_per_second, 0.0);
        assert_eq!(s.mcells_per_second, 0.0);
        assert_eq!(s.queue_high_water, Some(1));
        assert!(s.latency_ns.is_none());
    }

    #[test]
    fn legacy_reports_default_resilience_fields() {
        // A pre-supervision report (no outcome/errors/faults keys) parses
        // with a Completed verdict and zero counts.
        let json = r#"{
            "executor": "threaded", "backend": "fpga-fwht", "frames": 4,
            "blocks": 1, "frames_per_block": 4, "channel_depth": 4,
            "wall_seconds": 0.1, "simulated_link_seconds": 0.0,
            "capture_cycles": 1, "binner_cycles": 0, "deconv_cycles": 1,
            "saturation_events": 0, "stages": []
        }"#;
        let r: PipelineReport = serde_json::from_str(json).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
        assert!(r.errors.is_empty());
        assert_eq!(r.faults.total(), 0);
        assert_eq!(r.frames_quarantined, 0);
        assert_eq!(r.deconv_fallbacks, 0);
        assert_eq!(r.simd, "");
        assert_eq!(r.sparse_blocks, 0);
        assert_eq!(r.shard_rebuilds, 0);
        assert_eq!(r.shards_lost, 0);
        assert!(r.lost_mz_ranges.is_empty());
        // A clean report serializes an empty errors array and keeps the
        // verdict, and errors survive a round trip when present.
        let clean = serde_json::to_string(&PipelineReport::new("inline")).unwrap();
        assert!(clean.contains("\"errors\":[]"), "{clean}");
        assert!(clean.contains("\"outcome\""), "{clean}");
        let mut failed = PipelineReport::new("threaded");
        failed.outcome = RunOutcome::Failed;
        failed.errors.push(PipelineError::StageStalled {
            stage: "source".into(),
            timeout_ms: 100,
        });
        let json = serde_json::to_string(&failed).unwrap();
        let back: PipelineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.outcome, RunOutcome::Failed);
        assert_eq!(back.errors, failed.errors);
    }

    #[test]
    fn inline_none_fields_are_omitted_from_json() {
        let s = StageReport {
            name: "link".into(),
            items_in: 5,
            items_out: 5,
            busy_seconds: 0.2,
            blocked_recv_seconds: None,
            blocked_send_seconds: None,
            queue_high_water: None,
            latency_ns: None,
            cells: 0,
            items_per_second: 25.0,
            mcells_per_second: 0.0,
        };
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("queue_high_water"));
        assert!(!json.contains("blocked_recv_seconds"));
        assert!(!json.contains("blocked_send_seconds"));
        assert!(!json.contains("latency_ns"));
        // And the omitted keys read back as None.
        let back: StageReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.queue_high_water, None);
        assert_eq!(back.blocked_recv_seconds, None);
    }
}
