//! `TraceSession`: one bracketed observation window that snapshots the
//! tracer and the metrics registry into a single serializable
//! [`ObsReport`], with a Chrome trace-event JSON exporter.
//!
//! ```no_run
//! let session = ims_obs::TraceSession::start(ims_obs::Provenance::collect(8, 32));
//! // ... run the workload ...
//! let report = session.finish();
//! std::fs::write("trace.json", report.chrome_trace_json()).unwrap();
//! std::fs::write("metrics.json", serde_json::to_string_pretty(&report).unwrap()).unwrap();
//! ```
//!
//! Open `trace.json` at <https://ui.perfetto.dev> (or `chrome://tracing`):
//! it is a plain JSON array of trace events, one track per pipeline
//! thread, with `ph:"X"` slices for spans, `ph:"C"` counter tracks for
//! queue depths, and `ph:"M"` metadata naming each track after its stage.

use crate::metrics::{self, MetricsSnapshot};
use crate::trace;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// Schema version of [`ObsReport`] and the `htims bench`/`htims pipeline --trace`
/// JSON outputs. Bump when fields change meaning.
///
/// v3 added [`Provenance::simd`] and [`Provenance::sparse`]; both default
/// to empty on v2 (and older) artifacts, which still parse.
///
/// v4 added [`ObsReport::slo`] (per-tenant burn-rate state, see
/// [`crate::slo`]); it defaults to `None` on v3 (and older) artifacts,
/// which still parse.
pub const OBS_SCHEMA_VERSION: u64 = 4;

/// Where a report came from: enough to compare BENCH_*.json and trace
/// artifacts across PRs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Report schema version ([`OBS_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// `git describe --always --dirty --tags` of the tree that built this
    /// binary (stamped at compile time; "unknown" outside a checkout).
    pub git_describe: String,
    /// Worker thread count the workload ran with.
    pub threads: u64,
    /// Deconvolution panel width the workload ran with.
    pub panel_width: u64,
    /// SIMD backend the deconvolution kernels dispatched to
    /// (`"avx2"` | `"sse2"` | `"scalar"`). Empty on pre-v3 artifacts and
    /// when the caller didn't stamp it. `ims_obs` stays dependency-free,
    /// so the workload crate passes the name in via [`with_simd`]
    /// (Provenance::with_simd).
    #[serde(default)]
    pub simd: String,
    /// Sparse/dense path decision for the run (`"sparse"` | `"dense"`, or
    /// a mixed label such as `"sparse:3/8"` when blocks split). Empty on
    /// pre-v3 artifacts and when not stamped.
    #[serde(default)]
    pub sparse: String,
}

impl Provenance {
    /// Provenance for a run using `threads` workers and `panel_width`-wide
    /// deconvolution panels. SIMD backend and sparse decision start empty;
    /// stamp them with [`with_simd`](Self::with_simd) /
    /// [`with_sparse`](Self::with_sparse).
    pub fn collect(threads: usize, panel_width: usize) -> Self {
        Self {
            schema_version: OBS_SCHEMA_VERSION,
            git_describe: env!("IMS_OBS_GIT_DESCRIBE").to_string(),
            threads: threads as u64,
            panel_width: panel_width as u64,
            simd: String::new(),
            sparse: String::new(),
        }
    }

    /// Stamps the dispatched SIMD backend name.
    pub fn with_simd(mut self, simd: &str) -> Self {
        self.simd = simd.to_string();
        self
    }

    /// Stamps the sparse/dense path decision.
    pub fn with_sparse(mut self, sparse: &str) -> Self {
        self.sparse = sparse.to_string();
        self
    }
}

/// One recorded span/event in serializable form (timestamps in
/// nanoseconds since the session epoch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Operation name.
    pub name: String,
    /// Category (stage / subsystem).
    pub cat: String,
    /// Chrome phase letter: "X" (complete), "i" (instant), "C" (counter).
    pub ph: String,
    /// Start, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for non-span events).
    pub dur_ns: u64,
    /// Counter value (0 for non-counter events).
    pub value: f64,
    /// Trace id of the recording thread.
    pub tid: u64,
}

/// A thread that recorded events during the session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadInfo {
    /// Trace id (the `tid` on [`SpanRecord`]s).
    pub tid: u64,
    /// Track name (pipeline stage name where instrumented).
    pub name: String,
}

/// Everything one [`TraceSession`] observed: provenance, a metrics
/// snapshot, and the full span timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Build/run provenance.
    pub provenance: Provenance,
    /// Wall-clock length of the session in seconds.
    pub wall_seconds: f64,
    /// Every registered counter/gauge/histogram at session end.
    pub metrics: MetricsSnapshot,
    /// Threads that recorded events.
    pub threads: Vec<ThreadInfo>,
    /// All recorded spans/events, ordered by start time.
    pub spans: Vec<SpanRecord>,
    /// SLO burn-rate state at session end, when the run declared targets
    /// (`--slo`). Absent on v3 and older artifacts and untargeted runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub slo: Option<crate::slo::SloSummary>,
}

impl ObsReport {
    /// Renders the span timeline as Chrome trace-event JSON: a single
    /// array of event objects loadable by Perfetto / `chrome://tracing`.
    /// Timestamps and durations are microseconds (the format's unit);
    /// `pid` is always 1 (one process).
    pub fn chrome_trace_json(&self) -> String {
        let mut events: Vec<Value> = Vec::with_capacity(self.spans.len() + self.threads.len());
        for t in &self.threads {
            events.push(json!({
                "name": "thread_name",
                "ph": "M",
                "pid": 1u64,
                "tid": t.tid,
                "args": json!({ "name": t.name }),
            }));
        }
        for s in &self.spans {
            let ts_us = s.ts_ns as f64 / 1_000.0;
            let ev = match s.ph.as_str() {
                "X" => json!({
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "X",
                    "pid": 1u64,
                    "tid": s.tid,
                    "ts": ts_us,
                    "dur": s.dur_ns as f64 / 1_000.0,
                }),
                "C" => json!({
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "C",
                    "pid": 1u64,
                    "tid": s.tid,
                    "ts": ts_us,
                    "args": json!({ "value": s.value }),
                }),
                _ => json!({
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "i",
                    "pid": 1u64,
                    "tid": s.tid,
                    "ts": ts_us,
                    "s": "t",
                }),
            };
            events.push(ev);
        }
        serde_json::to_string(&Value::Array(events)).expect("trace serialization cannot fail")
    }
}

/// A bracketed observation window: [`start`](TraceSession::start) resets
/// the registry and turns the tracer on; [`finish`](TraceSession::finish)
/// turns it off and snapshots everything into an [`ObsReport`].
///
/// Only one session should be active at a time (the tracer and registry
/// are process-global); concurrent sessions would see each other's events.
pub struct TraceSession {
    provenance: Provenance,
    started: std::time::Instant,
}

impl TraceSession {
    /// Clears previously recorded events, zeroes all registered metrics,
    /// and enables tracing.
    pub fn start(provenance: Provenance) -> Self {
        metrics::reset();
        trace::clear();
        trace::set_enabled(true);
        Self {
            provenance,
            started: std::time::Instant::now(),
        }
    }

    /// Disables tracing and snapshots the tracer + metrics registry.
    pub fn finish(self) -> ObsReport {
        trace::set_enabled(false);
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let drained = trace::drain();
        ObsReport {
            provenance: self.provenance,
            wall_seconds,
            metrics: metrics::snapshot(),
            threads: drained
                .threads
                .into_iter()
                .map(|(tid, name)| ThreadInfo { tid, name })
                .collect(),
            spans: drained
                .events
                .into_iter()
                .map(|e| SpanRecord {
                    name: e.name.to_string(),
                    cat: e.cat.to_string(),
                    ph: e.ph.letter().to_string(),
                    ts_ns: e.ts_ns,
                    dur_ns: e.dur_ns,
                    value: e.value,
                    tid: e.tid,
                })
                .collect(),
            slo: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ObsReport {
        ObsReport {
            provenance: Provenance::collect(4, 32),
            wall_seconds: 1.25,
            metrics: MetricsSnapshot::default(),
            threads: vec![ThreadInfo {
                tid: 1,
                name: "deconvolve".to_string(),
            }],
            spans: vec![
                SpanRecord {
                    name: "process".to_string(),
                    cat: "deconvolve".to_string(),
                    ph: "X".to_string(),
                    ts_ns: 1_500,
                    dur_ns: 2_000,
                    value: 0.0,
                    tid: 1,
                },
                SpanRecord {
                    name: "queue_depth".to_string(),
                    cat: "pipeline".to_string(),
                    ph: "C".to_string(),
                    ts_ns: 2_000,
                    dur_ns: 0,
                    value: 3.0,
                    tid: 1,
                },
            ],
            slo: None,
        }
    }

    #[test]
    fn obs_report_serde_round_trip() {
        let mut report = sample_report();
        report.provenance = report.provenance.with_simd("avx2").with_sparse("dense");
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: ObsReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.provenance.schema_version, OBS_SCHEMA_VERSION);
        assert_eq!(back.provenance.panel_width, 32);
        assert_eq!(back.provenance.simd, "avx2");
        assert_eq!(back.provenance.sparse, "dense");
    }

    #[test]
    fn legacy_v2_provenance_parses_with_empty_simd_and_sparse() {
        // A pre-v3 provenance object has no simd/sparse keys; it must
        // still deserialize, with both defaulting to empty.
        let legacy = r#"{
            "schema_version": 2,
            "git_describe": "abc1234",
            "threads": 4,
            "panel_width": 32
        }"#;
        let back: Provenance = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.schema_version, 2);
        assert_eq!(back.simd, "");
        assert_eq!(back.sparse, "");
    }

    #[test]
    fn legacy_v3_report_parses_without_slo_and_v4_round_trips_it() {
        // A v3 report has no `slo` key: it must parse as None, and a v4
        // report carrying SLO state must round-trip.
        let mut report = sample_report();
        let v3_text = serde_json::to_string(&report).unwrap();
        assert!(!v3_text.contains("\"slo\""), "{v3_text}");
        let back: ObsReport = serde_json::from_str(&v3_text).unwrap();
        assert!(back.slo.is_none());
        report.slo = Some(crate::slo::SloSummary {
            spec: "p99=5ms".into(),
            p99_burn_fast: Some(2.5),
            p99_burn_slow: Some(0.5),
            completeness_burn_fast: None,
            completeness_burn_slow: None,
            alerting: false,
        });
        let v4_text = serde_json::to_string(&report).unwrap();
        let back: ObsReport = serde_json::from_str(&v4_text).unwrap();
        assert_eq!(back.slo, report.slo);
    }

    #[test]
    fn chrome_trace_is_valid_event_array() {
        let report = sample_report();
        let trace: Value = serde_json::from_str(&report.chrome_trace_json()).unwrap();
        let Value::Array(events) = trace else {
            panic!("trace must be a JSON array");
        };
        // Metadata event names the thread track.
        let meta = &events[0];
        assert_eq!(meta.field("ph").as_str(), Some("M"));
        assert_eq!(
            meta.field("args").field("name").as_str(),
            Some("deconvolve")
        );
        // Complete span: ts/dur in microseconds.
        let span = events
            .iter()
            .find(|e| e.field("ph").as_str() == Some("X"))
            .expect("one complete span");
        assert_eq!(span.field("name").as_str(), Some("process"));
        assert_eq!(span.field("ts"), &Value::Float(1.5));
        assert_eq!(span.field("dur"), &Value::Float(2.0));
        assert_eq!(span.field("pid"), &Value::UInt(1));
        // Counter sample carries its value in args.
        let counter = events
            .iter()
            .find(|e| e.field("ph").as_str() == Some("C"))
            .expect("one counter event");
        assert_eq!(counter.field("args").field("value"), &Value::Float(3.0));
    }

    #[test]
    fn session_start_finish_captures_spans_and_metrics() {
        let _lock = crate::global_test_lock();
        let session = TraceSession::start(Provenance::collect(2, 16));
        {
            let _g = trace::span_cat("session-test", "work");
        }
        metrics::counter("test.session.counter").incr();
        let report = session.finish();
        assert!(!trace::enabled());
        assert!(report.wall_seconds >= 0.0);
        assert!(report
            .spans
            .iter()
            .any(|s| s.name == "work" && s.cat == "session-test" && s.ph == "X"));
        assert_eq!(report.metrics.counter("test.session.counter"), Some(1));
        assert!(!report.provenance.git_describe.is_empty());
    }
}
