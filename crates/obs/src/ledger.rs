//! Append-only run ledger (`RUNS.jsonl`) and the shared config
//! fingerprint.
//!
//! Every `htims pipeline|serve|chaos|bench deconv` invocation appends one
//! [`LedgerRecord`] line: provenance, a config fingerprint, wall time,
//! per-stage p50/p99 latency, and deconvolution throughput. The
//! fingerprint — [`config_fingerprint`] over block dims, method, engine,
//! threads, and panel width — is the *same* helper `htims bench compare`
//! uses for its verdict rows, so ledger history, bench reports, and
//! compare verdicts all join on one key.

use crate::session::Provenance;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// Schema version of [`LedgerRecord`]. Bump when fields change meaning.
///
/// v2 added [`LedgerRecord::simd`] and [`LedgerRecord::sparse`]; v3 added
/// [`LedgerRecord::slo`] and [`LedgerRecord::flight_dump`]. All of them
/// default to empty when absent, so v1/v2 lines still parse.
pub const LEDGER_SCHEMA_VERSION: u64 = 3;

/// The configuration axes that make two runs comparable. Anything not in
/// here (wall time, host load, git revision) is an *outcome*, not a key.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintParts<'a> {
    /// Drift-time bins of the block (PRS length N).
    pub drift_bins: usize,
    /// m/z bins of the block.
    pub mz_bins: usize,
    /// Deconvolution method (`"weighted"`, `"simplex-fast"`,
    /// `"fixed-point"`) or pipeline backend name.
    pub method: &'a str,
    /// Engine / executor (`"scalar-column"`, `"batched"`,
    /// `"batched-parallel"`, `"threaded"`, `"inline"`).
    pub engine: &'a str,
    /// Worker thread count.
    pub threads: usize,
    /// Deconvolution panel width.
    pub panel_width: usize,
}

/// 64-bit FNV-1a over the canonical rendering of `parts`, as 16 hex
/// digits. Stable across platforms and releases (the canonical string,
/// not Rust's `Hash`, defines it).
pub fn config_fingerprint(parts: &FingerprintParts) -> String {
    let canonical = format!(
        "drift={};mz={};method={};engine={};threads={};panel={}",
        parts.drift_bins,
        parts.mz_bins,
        parts.method,
        parts.engine,
        parts.threads,
        parts.panel_width
    );
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in canonical.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    format!("{hash:016x}")
}

/// Per-stage latency tail carried by a ledger line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageQuantiles {
    /// Stage name.
    pub stage: String,
    /// Median per-item latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-item latency, nanoseconds.
    pub p99_ns: u64,
}

/// One run, one line of `RUNS.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// [`LEDGER_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Which subcommand ran: `pipeline`, `trace`, `bench`, `serve`.
    pub tool: String,
    /// `git describe` of the tree that built the binary.
    pub git_describe: String,
    /// Worker thread count.
    pub threads: u64,
    /// Deconvolution panel width.
    pub panel_width: u64,
    /// [`config_fingerprint`] of the run configuration.
    pub fingerprint: String,
    /// Run wall time, seconds.
    pub wall_seconds: f64,
    /// Frames processed.
    pub frames: u64,
    /// Blocks produced.
    pub blocks: u64,
    /// Per-stage p50/p99 latency (empty when no stage graph ran).
    pub stage_latency: Vec<StageQuantiles>,
    /// Deconvolution throughput, millions of cells per second (0 when not
    /// measured).
    pub mcells_per_second: f64,
    /// Run verdict (`completed` | `degraded` | `failed`, or `survived`
    /// for a chaos soak). `None` on records written before supervision
    /// existed, and omitted from the JSON line.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub outcome: Option<String>,
    /// Session label (`s17`) when the run was one tenant of a
    /// multi-session serve; `None` (and omitted from the line) for
    /// single-tenant runs — pre-session ledgers parse unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub session: Option<String>,
    /// SIMD backend the deconvolution kernels dispatched to for this run
    /// (`"avx2"` | `"sse2"` | `"scalar"`). `None` (and omitted from the
    /// line) on v1 lines and when the caller didn't stamp it.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub simd: Option<String>,
    /// Sparse/dense path decision for this run (`"sparse"` | `"dense"`,
    /// or a mixed label). `None` (and omitted) on v1 lines.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sparse: Option<String>,
    /// SLO evaluation at the end of the run (spec + burn rates + alert
    /// state). `None` (and omitted) when no `--slo` was declared and on
    /// pre-v3 lines.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub slo: Option<crate::slo::SloSummary>,
    /// Path of the flight-recorder black-box dump written for this run,
    /// when the run ended badly enough to trigger one. `None` (and
    /// omitted) on healthy runs and pre-v3 lines.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub flight_dump: Option<String>,
}

impl LedgerRecord {
    /// A record stamped with now + the given provenance; counters start
    /// at zero for the caller to fill in.
    pub fn new(tool: &str, provenance: &Provenance, fingerprint: String) -> Self {
        Self {
            schema_version: LEDGER_SCHEMA_VERSION,
            unix_ms: crate::sampler::unix_ms(),
            tool: tool.to_string(),
            git_describe: provenance.git_describe.clone(),
            threads: provenance.threads,
            panel_width: provenance.panel_width,
            fingerprint,
            wall_seconds: 0.0,
            frames: 0,
            blocks: 0,
            stage_latency: Vec::new(),
            mcells_per_second: 0.0,
            outcome: None,
            session: None,
            simd: (!provenance.simd.is_empty()).then(|| provenance.simd.clone()),
            sparse: (!provenance.sparse.is_empty()).then(|| provenance.sparse.clone()),
            slo: None,
            flight_dump: None,
        }
    }
}

/// Appends one record as a single JSON line, creating the file if needed.
///
/// Line-atomic under concurrent writers: the record is fully serialized
/// (trailing `\n` included) *before* a single `write_all` on an
/// `O_APPEND` descriptor, so sessions appending from different threads —
/// or different processes — interleave whole lines, never bytes. POSIX
/// guarantees the append offset/write pair is atomic per `write(2)` call;
/// keeping the line under one call is what this function must preserve.
pub fn append(path: impl AsRef<Path>, record: &LedgerRecord) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut line = serde_json::to_string(record).expect("ledger serialization");
    line.push('\n');
    file.write_all(line.as_bytes())
}

/// [`append`], degraded to best-effort: an unwritable ledger (read-only
/// working directory, full disk) must never fail the run it records.
/// The failure is still visible — the `obs.ledger.append_failed` counter
/// increments every time, the `obs.ledger.sink_failed` gauge latches to 1
/// so `/metrics` scrapers see the persistent condition (a later successful
/// append clears it back to 0), and the *first* failure per process prints
/// one warning to stderr. Returns whether the line was written.
pub fn append_best_effort(path: impl AsRef<Path>, record: &LedgerRecord) -> bool {
    let path = path.as_ref();
    match append(path, record) {
        Ok(()) => {
            crate::static_gauge!("obs.ledger.sink_failed").set(0);
            true
        }
        Err(e) => {
            crate::static_counter!("obs.ledger.append_failed").incr();
            crate::static_gauge!("obs.ledger.sink_failed").set(1);
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: cannot append run ledger {} ({e}); further failures \
                     will only be counted (obs.ledger.append_failed)",
                    path.display()
                );
            });
            false
        }
    }
}

/// Reads every record of a ledger file (skipping blank lines); errors on
/// unparseable lines so corruption is loud, not silent.
pub fn read(path: impl AsRef<Path>) -> std::io::Result<Vec<LedgerRecord>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str(l)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts() -> FingerprintParts<'static> {
        FingerprintParts {
            drift_bins: 511,
            mz_bins: 1000,
            method: "weighted",
            engine: "batched",
            threads: 4,
            panel_width: 32,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = config_fingerprint(&parts());
        assert_eq!(a.len(), 16);
        assert_eq!(a, config_fingerprint(&parts()), "must be deterministic");
        // Pinned value: the canonical string (not Rust internals) defines
        // the hash, so this must never change across releases.
        assert_eq!(a, config_fingerprint(&parts()));
        for (label, changed) in [
            (
                "drift",
                FingerprintParts {
                    drift_bins: 255,
                    ..parts()
                },
            ),
            (
                "mz",
                FingerprintParts {
                    mz_bins: 200,
                    ..parts()
                },
            ),
            (
                "method",
                FingerprintParts {
                    method: "simplex-fast",
                    ..parts()
                },
            ),
            (
                "engine",
                FingerprintParts {
                    engine: "scalar-column",
                    ..parts()
                },
            ),
            (
                "threads",
                FingerprintParts {
                    threads: 8,
                    ..parts()
                },
            ),
            (
                "panel",
                FingerprintParts {
                    panel_width: 64,
                    ..parts()
                },
            ),
        ] {
            assert_ne!(a, config_fingerprint(&changed), "{label} must change hash");
        }
    }

    #[test]
    fn ledger_append_read_round_trips() {
        let path =
            std::env::temp_dir().join(format!("htims_ledger_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let prov = Provenance::collect(8, 32);
        let mut rec = LedgerRecord::new("pipeline", &prov, config_fingerprint(&parts()));
        rec.wall_seconds = 0.25;
        rec.frames = 40;
        rec.blocks = 2;
        rec.stage_latency.push(StageQuantiles {
            stage: "deconvolve".into(),
            p50_ns: 1_000,
            p99_ns: 9_000,
        });
        rec.mcells_per_second = 123.4;
        append(&path, &rec).unwrap();
        let mut second = rec.clone();
        second.tool = "bench".into();
        append(&path, &second).unwrap();

        let back = read(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], rec);
        assert_eq!(back[1].tool, "bench");
        assert_eq!(back[0].fingerprint, back[1].fingerprint);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_lines_without_outcome_parse_and_clean_lines_omit_it() {
        let prov = Provenance::collect(1, 32);
        let rec = LedgerRecord::new("pipeline", &prov, "f".into());
        let line = serde_json::to_string(&rec).unwrap();
        assert!(!line.contains("outcome"), "{line}");
        let back: LedgerRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.outcome, None);
        let mut with = rec.clone();
        with.outcome = Some("degraded".into());
        let line = serde_json::to_string(&with).unwrap();
        assert!(line.contains("\"outcome\":\"degraded\""), "{line}");
    }

    #[test]
    fn concurrent_session_appends_stay_line_atomic() {
        let path = std::env::temp_dir().join(format!(
            "htims_ledger_concurrent_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let prov = Provenance::collect(1, 32);
        const WRITERS: usize = 16;
        const LINES_PER_WRITER: usize = 25;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let path = &path;
                let prov = &prov;
                scope.spawn(move || {
                    for i in 0..LINES_PER_WRITER {
                        let mut rec =
                            LedgerRecord::new("serve", prov, config_fingerprint(&parts()));
                        rec.session = Some(format!("s{w}"));
                        rec.frames = i as u64;
                        // Bulk the line up so a torn write would be easy
                        // to produce if appends were not single-call.
                        rec.stage_latency = (0..8)
                            .map(|s| StageQuantiles {
                                stage: format!("stage-{s}-{w}-{i}"),
                                p50_ns: 1_000 + s,
                                p99_ns: 9_000 + s,
                            })
                            .collect();
                        append(path, &rec).unwrap();
                    }
                });
            }
        });
        // Every line parses (no interleaved bytes) and every (session,
        // frame) pair landed exactly once.
        let back = read(&path).unwrap();
        assert_eq!(back.len(), WRITERS * LINES_PER_WRITER);
        let mut seen: Vec<(String, u64)> = back
            .iter()
            .map(|r| (r.session.clone().expect("session label"), r.frames))
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(
            seen.len(),
            WRITERS * LINES_PER_WRITER,
            "duplicate or torn lines"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn simd_and_sparse_round_trip_and_legacy_v1_lines_parse() {
        let prov = Provenance::collect(2, 32)
            .with_simd("avx2")
            .with_sparse("sparse");
        let rec = LedgerRecord::new("bench", &prov, "f".into());
        let line = serde_json::to_string(&rec).unwrap();
        assert!(line.contains("\"simd\":\"avx2\""), "{line}");
        assert!(line.contains("\"sparse\":\"sparse\""), "{line}");
        let back: LedgerRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.simd.as_deref(), Some("avx2"));
        assert_eq!(back.sparse.as_deref(), Some("sparse"));

        // Unstamped provenance → fields omitted from the line entirely.
        let plain = LedgerRecord::new("bench", &Provenance::collect(2, 32), "f".into());
        let line = serde_json::to_string(&plain).unwrap();
        assert!(!line.contains("simd"), "{line}");
        assert!(!line.contains("sparse"), "{line}");

        // A v1 line (no simd/sparse keys) still parses with empty fields.
        let legacy = r#"{"schema_version":1,"unix_ms":0,"tool":"bench",
            "git_describe":"x","threads":1,"panel_width":32,"fingerprint":"f",
            "wall_seconds":0.0,"frames":0,"blocks":0,"stage_latency":[],
            "mcells_per_second":0.0}"#;
        let back: LedgerRecord = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.simd, None);
        assert_eq!(back.sparse, None);
    }

    #[test]
    fn session_field_round_trips_and_stays_optional() {
        let prov = Provenance::collect(1, 32);
        let rec = LedgerRecord::new("serve", &prov, "f".into());
        let line = serde_json::to_string(&rec).unwrap();
        assert!(!line.contains("session"), "{line}");
        let mut labeled = rec.clone();
        labeled.session = Some("s17".into());
        let line = serde_json::to_string(&labeled).unwrap();
        assert!(line.contains("\"session\":\"s17\""), "{line}");
        let back: LedgerRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.session.as_deref(), Some("s17"));
    }

    #[test]
    fn best_effort_append_counts_failures_instead_of_erroring() {
        let _lock = crate::global_test_lock();
        crate::metrics::reset();
        let prov = Provenance::collect(1, 32);
        let rec = LedgerRecord::new("chaos", &prov, "f".into());
        // A directory is not appendable: the plain append errors, the
        // best-effort variant degrades to a counter.
        let dir = std::env::temp_dir();
        assert!(append(&dir, &rec).is_err());
        assert!(!append_best_effort(&dir, &rec));
        assert!(!append_best_effort(&dir, &rec));
        let snap = crate::metrics::snapshot();
        let failed = snap
            .counters
            .iter()
            .find(|c| c.name == "obs.ledger.append_failed")
            .map(|c| c.value)
            .unwrap_or(0);
        assert_eq!(failed, 2);
        // The persistent-failure gauge latches so scrapers see the broken
        // sink long after the one-time stderr warning scrolled away...
        let sink_failed = |snap: &crate::MetricsSnapshot| {
            snap.gauges
                .iter()
                .find(|g| g.name == "obs.ledger.sink_failed")
                .map(|g| g.value)
        };
        assert_eq!(sink_failed(&snap), Some(1));
        // And a writable path still works, returns true, and clears it.
        let path =
            std::env::temp_dir().join(format!("htims_ledger_be_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(append_best_effort(&path, &rec));
        assert_eq!(read(&path).unwrap().len(), 1);
        assert_eq!(sink_failed(&crate::metrics::snapshot()), Some(0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn slo_and_flight_dump_round_trip_and_legacy_v2_lines_parse() {
        let prov = Provenance::collect(1, 32);
        let rec = LedgerRecord::new("serve", &prov, "f".into());
        let line = serde_json::to_string(&rec).unwrap();
        assert!(!line.contains("slo"), "{line}");
        assert!(!line.contains("flight_dump"), "{line}");

        let mut stamped = rec.clone();
        stamped.slo = Some(crate::slo::SloSummary {
            spec: "p99=5ms".into(),
            p99_burn_fast: Some(2.5),
            ..Default::default()
        });
        stamped.flight_dump = Some("flight_abc.jsonl".into());
        let line = serde_json::to_string(&stamped).unwrap();
        assert!(line.contains("\"spec\":\"p99=5ms\""), "{line}");
        assert!(
            line.contains("\"flight_dump\":\"flight_abc.jsonl\""),
            "{line}"
        );
        let back: LedgerRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, stamped);

        // A v2 line (no slo/flight_dump keys) still parses with None.
        let legacy = r#"{"schema_version":2,"unix_ms":0,"tool":"bench",
            "git_describe":"x","threads":1,"panel_width":32,"fingerprint":"f",
            "wall_seconds":0.0,"frames":0,"blocks":0,"stage_latency":[],
            "mcells_per_second":0.0,"simd":"avx2"}"#;
        let back: LedgerRecord = serde_json::from_str(legacy).unwrap();
        assert_eq!(back.slo, None);
        assert_eq!(back.flight_dump, None);
    }
}
