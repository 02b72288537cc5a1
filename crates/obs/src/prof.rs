//! Continuous cooperative CPU profiler: per-worker tag slots sampled by a
//! background thread into per-`(session, stage, method)` CPU tallies.
//!
//! The pipeline scheduler cannot afford a real profiler on the dispatch
//! path, so attribution is *cooperative*: every worker registers a
//! [`WorkerSlot`] holding its current tag (one `u32`), and stores the tag
//! of each task it dispatches — **one relaxed store per dispatch**, the
//! entire hot-path cost (pinned by the `obs_overhead` bench). A sampler
//! thread, started lazily at [`hz`] samples per second (the
//! `HTIMS_PROF_HZ` environment variable, default 97 — prime, so it does
//! not beat against millisecond-periodic work; `0` disables sampling
//! entirely), walks the slots and charges the wall-clock interval since
//! its previous pass to whatever tag each worker was running, giving a
//! statistical CPU profile with zero per-task bookkeeping.
//!
//! Tags are interned triples `(session, stage, method)` (see
//! [`intern_tag`]; `"-"` marks an absent dimension). Each tag also owns a
//! registry counter `pipeline.cpu_ns.<stage>[#session=<label>]`, updated
//! by the sampler, so `/metrics` exposes per-stage and per-tenant CPU
//! seconds without the method dimension (bounded cardinality); the full
//! triple survives in the folded-stack export
//! (`session;stage;method count`, loadable by inferno or speedscope) and
//! in the schema-versioned `profile.json` written by
//! [`write_profile`].

use crate::metrics::Counter;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Version stamp of the `profile.json` schema (and [`ProfSnapshot`]'s
/// serialized form). Bump on any breaking change to the layout.
pub const PROF_SCHEMA_VERSION: u32 = 1;

/// Hard cap on distinct tags; tag 0 means "idle" and tag 1 is the
/// overflow bucket every intern past the cap collapses into, so a
/// label-cardinality bug degrades the profile instead of growing memory.
const MAX_TAGS: usize = 4096;

/// The reserved overflow tag id (see [`MAX_TAGS`]).
const OVERFLOW_TAG: u32 = 1;

/// Placeholder for an absent tag dimension.
const NONE_DIM: &str = "-";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One interned tag's identity and its per-stage registry counter.
struct TagInfo {
    session: &'static str,
    stage: &'static str,
    method: &'static str,
    cpu_counter: &'static Counter,
}

/// Per-tag sample tallies, indexed by tag id.
struct Tally {
    samples: AtomicU64,
    cpu_ns: AtomicU64,
}

/// The per-worker slot the sampler walks: the worker's current tag plus
/// its sampled busy/idle time. Slots are `'static` (leaked once, reused
/// across worker generations) so the dispatch-path store needs no guard.
pub struct WorkerSlot {
    active: AtomicBool,
    tag: AtomicU32,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

impl WorkerSlot {
    /// Stores the tag of the task this worker is about to run — the one
    /// relaxed store the scheduler pays per dispatch.
    #[inline]
    pub fn set_tag(&self, tag: u32) {
        self.tag.store(tag, Relaxed);
    }

    /// Marks the worker idle (about to park); attribution error is
    /// bounded by the queue-scan time because dispatch overwrites the
    /// tag without clearing it between back-to-back tasks.
    #[inline]
    pub fn clear_tag(&self) {
        self.tag.store(0, Relaxed);
    }
}

/// Keeps a [`WorkerSlot`] registered for the lifetime of a worker thread;
/// dropping it marks the slot idle and returns it to the reuse pool.
pub struct WorkerGuard {
    slot: &'static WorkerSlot,
}

impl WorkerGuard {
    /// The registered slot (store tags through this).
    pub fn slot(&self) -> &'static WorkerSlot {
        self.slot
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.slot.tag.store(0, Relaxed);
        self.slot.active.store(false, Relaxed);
    }
}

struct ProfState {
    /// `session\0stage\0method` → tag id, plus id-indexed infos
    /// (`infos[0]` is a placeholder for the idle tag).
    tags: Mutex<(HashMap<String, u32>, Vec<TagInfo>)>,
    tallies: Box<[Tally]>,
    workers: Mutex<Vec<&'static WorkerSlot>>,
}

fn state() -> &'static ProfState {
    static STATE: OnceLock<ProfState> = OnceLock::new();
    STATE.get_or_init(|| {
        let tallies: Vec<Tally> = (0..MAX_TAGS)
            .map(|_| Tally {
                samples: AtomicU64::new(0),
                cpu_ns: AtomicU64::new(0),
            })
            .collect();
        let state = ProfState {
            tags: Mutex::new((HashMap::new(), Vec::new())),
            tallies: tallies.into_boxed_slice(),
            workers: Mutex::new(Vec::new()),
        };
        {
            let mut tags = lock(&state.tags);
            // Index 0: the idle pseudo-tag (never sampled).
            tags.1.push(TagInfo {
                session: NONE_DIM,
                stage: "idle",
                method: NONE_DIM,
                cpu_counter: crate::metrics::counter("pipeline.cpu_ns.idle"),
            });
            // Index 1 (OVERFLOW_TAG): where intern collapses past the cap.
            tags.1.push(TagInfo {
                session: NONE_DIM,
                stage: "overflow",
                method: NONE_DIM,
                cpu_counter: crate::metrics::counter("pipeline.cpu_ns.overflow"),
            });
        }
        state
    })
}

/// Sampling frequency from `HTIMS_PROF_HZ` (default 97; `0` disables the
/// sampler — the dispatch-path tag store remains, inert). Parsed once.
pub fn hz() -> u32 {
    static HZ: OnceLock<u32> = OnceLock::new();
    *HZ.get_or_init(|| match std::env::var("HTIMS_PROF_HZ") {
        Ok(v) => v.trim().parse().unwrap_or(97),
        Err(_) => 97,
    })
}

/// Whether the sampler is configured to run (`hz() > 0`).
pub fn enabled() -> bool {
    hz() > 0
}

/// Interns a `(session, stage, method)` tag, returning its stable nonzero
/// id. Use `"-"` for an absent dimension. Idempotent and cheap enough for
/// setup paths (node spawn, batch submission) — **not** for per-task
/// paths, which should store a precomputed id. Past [`MAX_TAGS`] distinct
/// tags everything collapses into one overflow bucket.
pub fn intern_tag(session: &str, stage: &str, method: &str) -> u32 {
    let st = state();
    let key = format!("{session}\0{stage}\0{method}");
    let mut tags = lock(&st.tags);
    if let Some(&id) = tags.0.get(&key) {
        return id;
    }
    if tags.1.len() >= MAX_TAGS {
        return OVERFLOW_TAG;
    }
    let id = tags.1.len() as u32;
    let counter_name = if session == NONE_DIM {
        format!("pipeline.cpu_ns.{stage}")
    } else {
        format!("pipeline.cpu_ns.{stage}#session={session}")
    };
    tags.1.push(TagInfo {
        session: crate::intern(session),
        stage: crate::intern(stage),
        method: crate::intern(method),
        cpu_counter: crate::metrics::counter(&counter_name),
    });
    tags.0.insert(key, id);
    id
}

/// Registers the calling worker thread with the profiler (reusing a
/// retired slot when one exists), starts the sampler on first use, and
/// returns a guard that retires the slot when the thread exits.
pub fn register_worker() -> WorkerGuard {
    let st = state();
    let slot = {
        let mut workers = lock(&st.workers);
        match workers.iter().find(|s| !s.active.load(Relaxed)) {
            Some(slot) => {
                slot.busy_ns.store(0, Relaxed);
                slot.idle_ns.store(0, Relaxed);
                slot.tag.store(0, Relaxed);
                slot.active.store(true, Relaxed);
                *slot
            }
            None => {
                let slot: &'static WorkerSlot = Box::leak(Box::new(WorkerSlot {
                    active: AtomicBool::new(true),
                    tag: AtomicU32::new(0),
                    busy_ns: AtomicU64::new(0),
                    idle_ns: AtomicU64::new(0),
                }));
                workers.push(slot);
                slot
            }
        }
    };
    ensure_sampler();
    WorkerGuard { slot }
}

/// Starts the background sampler thread once, if sampling is enabled.
fn ensure_sampler() {
    static STARTED: OnceLock<()> = OnceLock::new();
    if !enabled() {
        return;
    }
    STARTED.get_or_init(|| {
        // Registered before the first pass, so a short run's metric names
        // do not depend on whether a pass landed before its snapshot.
        sample_passes();
        let period = Duration::from_nanos(1_000_000_000 / u64::from(hz()));
        std::thread::Builder::new()
            .name("obs-prof".into())
            .spawn(move || {
                crate::set_thread_name("obs-prof");
                let mut last = Instant::now();
                loop {
                    std::thread::sleep(period);
                    let now = Instant::now();
                    let elapsed = u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
                    last = now;
                    sample_now(elapsed);
                }
            })
            .expect("spawn profiler sampler");
    });
}

/// One sampling pass: charges `elapsed_ns` of wall-clock to every active
/// worker's current tag (or to its idle tally). The background sampler
/// calls this at [`hz`]; tests call it directly for determinism.
pub fn sample_now(elapsed_ns: u64) {
    let st = state();
    let workers = lock(&st.workers);
    let tags = lock(&st.tags);
    for slot in workers.iter() {
        if !slot.active.load(Relaxed) {
            continue;
        }
        let tag = slot.tag.load(Relaxed) as usize;
        if tag == 0 || tag >= tags.1.len() {
            slot.idle_ns.fetch_add(elapsed_ns, Relaxed);
            continue;
        }
        slot.busy_ns.fetch_add(elapsed_ns, Relaxed);
        st.tallies[tag].samples.fetch_add(1, Relaxed);
        st.tallies[tag].cpu_ns.fetch_add(elapsed_ns, Relaxed);
        tags.1[tag].cpu_counter.add(elapsed_ns);
    }
    sample_passes().incr();
}

/// The `prof.sample_passes` counter: sampling passes run so far.
fn sample_passes() -> &'static crate::metrics::Counter {
    crate::static_counter!("prof.sample_passes")
}

/// One tag's accumulated samples in a [`ProfSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TagSample {
    /// Session label (`"-"` when unlabeled).
    pub session: String,
    /// Stage label.
    pub stage: String,
    /// Method label (`"-"` when not method-scoped).
    pub method: String,
    /// Sampler hits attributed to this tag.
    pub samples: u64,
    /// Wall-clock nanoseconds attributed to this tag.
    pub cpu_ns: u64,
}

/// One worker's sampled utilization in a [`ProfSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSample {
    /// Nanoseconds sampled while running a tagged task.
    pub busy_ns: u64,
    /// Nanoseconds sampled while idle (parked or scanning).
    pub idle_ns: u64,
    /// Whether the slot still belongs to a live worker.
    pub active: bool,
}

/// Point-in-time capture of the profiler: per-tag CPU tallies plus
/// per-worker busy/idle time. Serializes as the `profile.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfSnapshot {
    /// [`PROF_SCHEMA_VERSION`] at capture time.
    pub schema_version: u32,
    /// Configured sampling frequency (0 = sampler disabled).
    pub hz: u32,
    /// Tags with at least one sample, sorted by descending `cpu_ns`.
    pub tags: Vec<TagSample>,
    /// Every registered worker slot, registration order.
    pub workers: Vec<WorkerSample>,
}

impl ProfSnapshot {
    /// Renders the snapshot as folded stacks — one
    /// `session;stage;method count` line per tag, the format inferno's
    /// `flamegraph.pl` descendants and speedscope load directly. The
    /// count is the sample tally (proportional to CPU time at a fixed
    /// sampling rate).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for t in &self.tags {
            if t.samples == 0 {
                continue;
            }
            out.push_str(&format!(
                "{};{};{} {}\n",
                t.session, t.stage, t.method, t.samples
            ));
        }
        out
    }

    /// The interval profile `after − self`, matching tags by identity —
    /// how `/profile?seconds=N` turns two cumulative snapshots into a
    /// windowed one. Tags absent from `self` count from zero.
    pub fn delta(&self, after: &ProfSnapshot) -> ProfSnapshot {
        let before: HashMap<(&str, &str, &str), (u64, u64)> = self
            .tags
            .iter()
            .map(|t| {
                (
                    (t.session.as_str(), t.stage.as_str(), t.method.as_str()),
                    (t.samples, t.cpu_ns),
                )
            })
            .collect();
        let mut tags: Vec<TagSample> = after
            .tags
            .iter()
            .map(|t| {
                let (s0, c0) = before
                    .get(&(t.session.as_str(), t.stage.as_str(), t.method.as_str()))
                    .copied()
                    .unwrap_or((0, 0));
                TagSample {
                    session: t.session.clone(),
                    stage: t.stage.clone(),
                    method: t.method.clone(),
                    samples: t.samples.saturating_sub(s0),
                    cpu_ns: t.cpu_ns.saturating_sub(c0),
                }
            })
            .filter(|t| t.samples > 0 || t.cpu_ns > 0)
            .collect();
        tags.sort_by_key(|t| std::cmp::Reverse(t.cpu_ns));
        let workers = after
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let (b0, i0) = self
                    .workers
                    .get(i)
                    .map(|w0| (w0.busy_ns, w0.idle_ns))
                    .unwrap_or((0, 0));
                WorkerSample {
                    busy_ns: w.busy_ns.saturating_sub(b0),
                    idle_ns: w.idle_ns.saturating_sub(i0),
                    active: w.active,
                }
            })
            .collect();
        ProfSnapshot {
            schema_version: after.schema_version,
            hz: after.hz,
            tags,
            workers,
        }
    }
}

/// Captures the current per-tag tallies and per-worker utilization.
pub fn snapshot() -> ProfSnapshot {
    let st = state();
    let tags_guard = lock(&st.tags);
    let mut tags: Vec<TagSample> = tags_guard
        .1
        .iter()
        .enumerate()
        .skip(1) // 0 is the idle placeholder
        .filter_map(|(id, info)| {
            let samples = st.tallies[id].samples.load(Relaxed);
            let cpu_ns = st.tallies[id].cpu_ns.load(Relaxed);
            (samples > 0 || cpu_ns > 0).then(|| TagSample {
                session: info.session.to_string(),
                stage: info.stage.to_string(),
                method: info.method.to_string(),
                samples,
                cpu_ns,
            })
        })
        .collect();
    tags.sort_by_key(|t| std::cmp::Reverse(t.cpu_ns));
    drop(tags_guard);
    let workers = lock(&st.workers)
        .iter()
        .map(|s| WorkerSample {
            busy_ns: s.busy_ns.load(Relaxed),
            idle_ns: s.idle_ns.load(Relaxed),
            active: s.active.load(Relaxed),
        })
        .collect();
    ProfSnapshot {
        schema_version: PROF_SCHEMA_VERSION,
        hz: hz(),
        tags,
        workers,
    }
}

/// Zeroes every tally and worker utilization counter in place (tag ids
/// and slots stay valid) — the start-of-profile reset. Registry
/// `pipeline.cpu_ns.*` counters are owned by [`crate::metrics`] and reset
/// with it, not here.
pub fn reset() {
    let st = state();
    for t in st.tallies.iter() {
        t.samples.store(0, Relaxed);
        t.cpu_ns.store(0, Relaxed);
    }
    for s in lock(&st.workers).iter() {
        s.busy_ns.store(0, Relaxed);
        s.idle_ns.store(0, Relaxed);
    }
}

/// Writes the current profile into `dir` as `profile.folded` (folded
/// stacks) and `profile.json` (the schema-versioned [`ProfSnapshot`]),
/// creating the directory if needed. Returns the snapshot it wrote.
pub fn write_profile(dir: &std::path::Path) -> std::io::Result<ProfSnapshot> {
    let snap = snapshot();
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("profile.folded"), snap.folded())?;
    let json = serde_json::to_string_pretty(&snap).expect("profile snapshot serializes");
    std::fs::write(dir.join("profile.json"), json)?;
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_distinct() {
        let a = intern_tag("s1", "deconvolve", "fwht");
        let b = intern_tag("s1", "deconvolve", "fwht");
        let c = intern_tag("s1", "deconvolve", "direct");
        let d = intern_tag("-", "deconvolve", "fwht");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a > OVERFLOW_TAG);
    }

    #[test]
    fn sampling_attributes_to_the_current_tag() {
        let _lock = crate::global_test_lock();
        reset();
        let guard = register_worker();
        let tag = intern_tag("t0", "prof-test-stage", "m0");
        guard.slot().set_tag(tag);
        sample_now(1_000_000);
        sample_now(1_000_000);
        guard.slot().clear_tag();
        sample_now(500_000);
        let snap = snapshot();
        let t = snap
            .tags
            .iter()
            .find(|t| t.stage == "prof-test-stage" && t.session == "t0")
            .expect("sampled tag present");
        assert_eq!(t.samples, 2);
        assert_eq!(t.cpu_ns, 2_000_000);
        assert_eq!(t.method, "m0");
        // The worker's busy/idle split matches the passes above.
        let w = snap
            .workers
            .iter()
            .find(|w| w.active && w.busy_ns == 2_000_000)
            .expect("worker sampled busy");
        assert!(w.idle_ns >= 500_000);
        // Folded output carries the full triple.
        let folded = snap.folded();
        assert!(folded.contains("t0;prof-test-stage;m0 2"), "{folded}");
        // The per-stage registry counter saw the same nanoseconds.
        assert_eq!(
            crate::metrics::counter("pipeline.cpu_ns.prof-test-stage#session=t0").get(),
            2_000_000
        );
        drop(guard);
        reset();
    }

    #[test]
    fn retired_slots_are_reused_and_skipped() {
        let _lock = crate::global_test_lock();
        reset();
        let g1 = register_worker();
        let slot1 = g1.slot() as *const WorkerSlot;
        drop(g1);
        let g2 = register_worker();
        assert!(
            std::ptr::eq(slot1, g2.slot()),
            "retired slot is reused, not leaked again"
        );
        drop(g2);
        // A pass over only-retired slots attributes nothing.
        let before = snapshot();
        sample_now(1_000_000);
        let after = snapshot();
        let d = before.delta(&after);
        assert!(d.tags.is_empty(), "retired workers sampled: {:?}", d.tags);
        reset();
    }

    #[test]
    fn delta_and_reset_round_trip() {
        let _lock = crate::global_test_lock();
        reset();
        let guard = register_worker();
        let tag = intern_tag("-", "prof-delta-stage", "-");
        guard.slot().set_tag(tag);
        sample_now(100);
        let first = snapshot();
        sample_now(100);
        sample_now(100);
        guard.slot().clear_tag();
        let second = snapshot();
        let d = first.delta(&second);
        let t = d
            .tags
            .iter()
            .find(|t| t.stage == "prof-delta-stage")
            .expect("delta tag");
        assert_eq!(t.samples, 2);
        assert_eq!(t.cpu_ns, 200);
        assert_eq!(d.schema_version, PROF_SCHEMA_VERSION);
        drop(guard);
        reset();
        let cleared = snapshot();
        assert!(!cleared.tags.iter().any(|t| t.stage == "prof-delta-stage"));
    }

    #[test]
    fn profile_json_schema_round_trips() {
        let _lock = crate::global_test_lock();
        reset();
        let guard = register_worker();
        guard
            .slot()
            .set_tag(intern_tag("s9", "prof-json-stage", "mj"));
        sample_now(42);
        guard.slot().clear_tag();
        let dir = std::env::temp_dir().join(format!("htims-prof-test-{}", std::process::id()));
        let snap = write_profile(&dir).expect("write profile");
        assert_eq!(snap.schema_version, PROF_SCHEMA_VERSION);
        let json = std::fs::read_to_string(dir.join("profile.json")).unwrap();
        let back: ProfSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, PROF_SCHEMA_VERSION);
        assert!(back.tags.iter().any(|t| t.stage == "prof-json-stage"));
        let folded = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
        assert!(folded.contains("s9;prof-json-stage;mj 1"), "{folded}");
        let _ = std::fs::remove_dir_all(&dir);
        drop(guard);
        reset();
    }
}
