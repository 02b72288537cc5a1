//! `ims_obs` — hand-rolled observability for the hybrid IMS pipeline.
//!
//! Zero external dependencies (the repo is offline/vendored): three small
//! pieces that compose into one report.
//!
//! * [`metrics`] — a lock-free registry of named [`Counter`]s, [`Gauge`]s,
//!   and log-linear-bucket [`Histogram`]s behind cheap `&'static` handles
//!   (see [`static_counter!`], [`static_gauge!`], [`static_histogram!`]).
//! * [`trace`] — a span/event tracer writing monotonic timestamps into
//!   per-thread buffers; a disabled span costs one relaxed atomic load.
//! * [`session`] — [`TraceSession`] brackets a workload and snapshots
//!   both worlds into a serde-serializable [`ObsReport`], whose
//!   [`chrome_trace_json`](ObsReport::chrome_trace_json) output loads
//!   directly into Perfetto / `chrome://tracing`.
//!
//! On top of those sit the *continuous* telemetry pieces — live series
//! rather than post-hoc snapshots:
//!
//! * [`prof`] — a cooperative continuous CPU profiler: workers publish a
//!   current-task tag, a sampler thread charges wall-clock to it, and the
//!   tallies egress as folded stacks, `profile.json`, and
//!   `pipeline.cpu_ns` counters.
//! * [`sampler`] — a background thread snapshotting the registry at a
//!   fixed interval into a bounded in-memory ring and an optional
//!   append-only JSONL time series (counter deltas included).
//! * [`export`] + [`http`] — Prometheus text exposition rendering and a
//!   zero-dependency `GET /metrics` / `/report.json` / `/healthz` server.
//! * [`ledger`] — the append-only `RUNS.jsonl` run history and the shared
//!   [`config_fingerprint`](ledger::config_fingerprint) that joins ledger
//!   lines, bench reports, and `htims bench compare` verdicts.
//!
//! Instrumentation points record unconditionally; whether anything is
//! *kept* is decided by the single tracer flag, so the pipeline code has
//! no `#[cfg]`s and no plumbed-through handles.

#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod http;
pub mod ledger;
pub mod metrics;
pub mod prof;
pub mod sampler;
pub mod session;
pub mod slo;
pub mod trace;

pub use export::prometheus_text;
pub use flight::{FlightKind, FlightRecorder, FLIGHT_SCHEMA_VERSION};
pub use http::{ObsServer, SessionsProvider};
pub use ledger::{config_fingerprint, FingerprintParts, LedgerRecord};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot};
pub use prof::{ProfSnapshot, WorkerSlot, PROF_SCHEMA_VERSION};
pub use sampler::{SamplePoint, Sampler, SamplerConfig};
pub use session::{
    ObsReport, Provenance, SpanRecord, ThreadInfo, TraceSession, OBS_SCHEMA_VERSION,
};
pub use slo::{parse_duration, SloDelta, SloEngine, SloSpec, SloStatus, SloSummary};
pub use trace::{counter_sample, instant, intern, set_thread_name, span, span_cat, SpanGuard};

/// Serializes tests that mutate the process-global tracer/registry (the
/// test harness runs `#[test]` fns concurrently in one process).
#[cfg(test)]
pub(crate) fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
