//! Deterministic, seeded fault injection for the hybrid pipeline.
//!
//! The paper's design streams capture data to an FPGA — a setting where
//! DMA bit-flips, dropped frames, stalled producers, and flaky backends
//! are facts of life. This module makes those failure modes *exercisable*
//! and *reproducible*: a [`FaultSpec`] (parsed from a compact CLI string)
//! plus a seed fully determine every injected fault, because each
//! injection decision is a pure hash of `(seed, site, item index)` rather
//! than a draw from shared mutable RNG state. Thread interleaving can
//! therefore never change *what* is injected — a chaotic run is
//! bit-reproducible from `(seed, spec)` on any executor.
//!
//! Injection sites (wired into the pipeline stages):
//!
//! * `source.stall` — the frame producer sleeps before emitting a frame
//!   (cancellable in slices, so the executor's watchdog can break a
//!   "permanent" stall);
//! * `frame.drop` — a frame is silently never emitted;
//! * `dma.bitflip` — payload bits flip in transit across the link stage,
//!   *after* the packet checksum was taken (detected downstream);
//! * `deconv.fail` — the hardware-model deconvolution backend fails on a
//!   block (recovered by falling back to the software engine, or — with
//!   fallback disabled — panicking the stage so the supervised executor's
//!   `catch_unwind` path is exercised);
//! * `shard.kill` — an accumulator shard is marked lost mid-block
//!   (rebuilt from the frame capture log when one is attached, otherwise
//!   its m/z range drains zeroed and the run is Degraded).
//!
//! Every injection increments a `fault.injected.*` metric and emits a
//! trace instant, so chaos shows up in `/metrics` and trace timelines.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A producer-stall fault: sleep `duration` with probability `rate` per
/// frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallSpec {
    /// How long the producer sleeps when the fault fires.
    pub duration: Duration,
    /// Per-frame probability in `[0, 1]`.
    pub rate: f64,
}

/// Every known fault site, in the order the CLI documents them. The
/// unknown-site parse error enumerates this list, so adding a site here is
/// the single place the grammar grows.
pub const SITES: &[&str] = &[
    "dma.bitflip",
    "frame.drop",
    "deconv.fail",
    "source.stall",
    "shard.kill",
];

/// A parsed fault specification: per-site rates, all zero by default.
///
/// The compact string form is comma-separated `site=rate` pairs:
///
/// ```text
/// dma.bitflip=1e-5,source.stall=50ms@0.01,frame.drop=1e-4,deconv.fail=0.001
/// ```
///
/// `dma.bitflip` is a per-*bit* probability (each frame flips
/// `rate × payload_bits` bits in expectation); `frame.drop` and
/// `deconv.fail` are per-frame / per-block probabilities; `source.stall`
/// takes a duration in the grammar of [`ims_obs::parse_duration`]
/// (`500us`, `50ms`, `2s`, `1.5`) and an optional `@probability`
/// (default 1, i.e. every frame).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Per-bit flip probability on the DMA link.
    pub dma_bitflip: f64,
    /// Per-frame drop probability at the source.
    pub frame_drop: f64,
    /// Per-block hardware-backend failure probability at the deconvolve
    /// stage.
    pub deconv_fail: f64,
    /// Producer stall, if any.
    pub source_stall: Option<StallSpec>,
    /// Per-(block, shard) probability that an accumulator shard is marked
    /// lost mid-block (rebuilt from the capture log when one is attached,
    /// otherwise its m/z range drains zeroed).
    pub shard_kill: f64,
}

impl FaultSpec {
    /// Parses the compact CLI form (see the type docs). Unknown sites,
    /// out-of-range rates, and malformed durations are errors.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = FaultSpec::default();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault `{part}`: expected site=value"))?;
            match site.trim() {
                "dma.bitflip" => spec.dma_bitflip = parse_rate(site, value)?,
                "frame.drop" => spec.frame_drop = parse_rate(site, value)?,
                "deconv.fail" => spec.deconv_fail = parse_rate(site, value)?,
                "shard.kill" => spec.shard_kill = parse_rate(site, value)?,
                "source.stall" => {
                    let (dur, rate) = match value.split_once('@') {
                        Some((d, r)) => (d, parse_rate(site, r)?),
                        None => (value, 1.0),
                    };
                    spec.source_stall = Some(StallSpec {
                        duration: ims_obs::parse_duration(dur)
                            .ok_or_else(|| format!("fault `{site}`: bad duration `{dur}`"))?,
                        rate,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown fault site `{other}` (use {})",
                        SITES.join(" | ")
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// True when every rate is zero — injection is a no-op and the run
    /// must be bit-identical to an uninjected one.
    pub fn is_zero(&self) -> bool {
        self.dma_bitflip == 0.0
            && self.frame_drop == 0.0
            && self.deconv_fail == 0.0
            && self.shard_kill == 0.0
            && self.source_stall.is_none_or(|s| s.rate == 0.0)
    }

    /// A copy with the source-side sites (`frame.drop`, `source.stall`)
    /// zeroed. Replay feeds frames straight from the capture log — the log
    /// already reflects which frames the original run admitted, so
    /// re-firing source faults would drop them twice. Downstream sites
    /// (`dma.bitflip`, `deconv.fail`, `shard.kill`) are keyed by packet
    /// seq-no / block index and re-fire identically on replay.
    pub fn without_source_sites(&self) -> Self {
        Self {
            frame_drop: 0.0,
            source_stall: None,
            ..self.clone()
        }
    }
}

impl std::fmt::Display for FaultSpec {
    /// Canonical compact form (parseable by [`FaultSpec::parse`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.dma_bitflip > 0.0 {
            parts.push(format!("dma.bitflip={}", self.dma_bitflip));
        }
        if self.frame_drop > 0.0 {
            parts.push(format!("frame.drop={}", self.frame_drop));
        }
        if self.deconv_fail > 0.0 {
            parts.push(format!("deconv.fail={}", self.deconv_fail));
        }
        if let Some(s) = self.source_stall {
            parts.push(format!(
                "source.stall={}@{}",
                render_duration(s.duration),
                s.rate
            ));
        }
        if self.shard_kill > 0.0 {
            parts.push(format!("shard.kill={}", self.shard_kill));
        }
        write!(f, "{}", parts.join(","))
    }
}

/// Renders a duration exactly, in seconds as [`ims_obs::parse_duration`] reads
/// them: `2.5ms` is `0.0025s`. Parsing the rendering gives the duration
/// back, because `Duration::try_from_secs_f64` rounds to the nearest
/// nanosecond and the `f64` nearest the decimal lies within half a
/// nanosecond of it: always for a duration parsed from an `f64`, and for
/// any whole number of nanoseconds below 2^23 s (97 days).
fn render_duration(d: Duration) -> String {
    match d.subsec_nanos() {
        0 => format!("{}s", d.as_secs()),
        nanos => {
            let digits = format!("{nanos:09}");
            format!("{}.{}s", d.as_secs(), digits.trim_end_matches('0'))
        }
    }
}

fn parse_rate(site: &str, value: &str) -> Result<f64, String> {
    let rate: f64 = value
        .trim()
        .parse()
        .map_err(|_| format!("fault `{site}`: bad rate `{value}`"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("fault `{site}`: rate {rate} outside [0, 1]"));
    }
    Ok(rate)
}

/// Counts of injected faults from one run, folded into the
/// [`PipelineReport`](crate::pipeline::PipelineReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Payload bits flipped on the link.
    #[serde(default)]
    pub bitflips: u64,
    /// Frames dropped at the source.
    #[serde(default)]
    pub frames_dropped: u64,
    /// Producer stalls taken.
    #[serde(default)]
    pub stalls: u64,
    /// Hardware deconvolution-backend failures.
    #[serde(default)]
    pub deconv_failures: u64,
    /// Accumulator shards marked lost mid-block.
    #[serde(default)]
    pub shard_kills: u64,
}

impl FaultCounts {
    /// Total injected events.
    pub fn total(&self) -> u64 {
        self.bitflips + self.frames_dropped + self.stalls + self.deconv_failures + self.shard_kills
    }

    /// Injected events that degrade the run's verdict on their own. Shard
    /// kills are excluded: a kill that was rebuilt from the capture log is
    /// fully recovered (bit-identical output), so only an *unrecovered*
    /// shard — reported as `shards_lost` — degrades the verdict.
    pub fn degrading(&self) -> u64 {
        self.total() - self.shard_kills
    }
}

/// Shared, thread-safe injection state (counts + cancel flag).
#[derive(Debug, Default)]
struct FaultShared {
    bitflips: AtomicU64,
    frames_dropped: AtomicU64,
    stalls: AtomicU64,
    deconv_failures: AtomicU64,
    shard_kills: AtomicU64,
    /// Set by the executor's watchdog: in-progress injected sleeps bail
    /// out at their next slice so a "permanent" stall still drains.
    cancel: AtomicBool,
    /// The run's flight recorder plus the pre-registered label index of
    /// each fault site; armed once per run by the executor so every
    /// injection leaves a `fault` event in the black box.
    flight: OnceLock<FlightHooks>,
}

/// Fault-site labels registered in a run's flight recorder.
struct FlightHooks {
    rec: ims_obs::FlightRecorder,
    drop: u16,
    stall: u16,
    bitflip: u16,
    deconv: u16,
    shard: u16,
}

impl std::fmt::Debug for FlightHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightHooks").finish_non_exhaustive()
    }
}

/// A seeded injector: cheap to clone (clones share counters), safe to
/// consult from every stage thread. All decisions are pure functions of
/// `(seed, site, item index)` — see the module docs.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    spec: FaultSpec,
    shared: Arc<FaultShared>,
}

/// Per-site salts keeping decision streams independent.
const SALT_DROP: u64 = 0x9E37_79B9_7F4A_7C15;
const SALT_STALL: u64 = 0xC2B2_AE3D_27D4_EB4F;
const SALT_BITFLIP: u64 = 0x1656_67B1_9E37_79F9;
const SALT_DECONV: u64 = 0x2545_F491_4F6C_DD1D;
const SALT_SESSION: u64 = 0x9E6D_62D0_6F6A_9A9B;
const SALT_SHARD: u64 = 0xA076_1D64_78BD_642F;

/// Derives session `index`'s seed from a serve-level base seed: the same
/// avalanche mix the fault sites use, salted so the per-session stream is
/// independent of every injection stream. Pure in `(base, index)`, so the
/// whole multi-session run is reproducible from one CLI seed — equal
/// `(base, index)` means equal per-session outputs, across processes.
pub fn session_seed(base: u64, index: u64) -> u64 {
    mix(base ^ SALT_SESSION.wrapping_mul(index.wrapping_add(1)))
}

/// SplitMix64-style finalizer: avalanche-mixes one word.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

impl FaultInjector {
    /// An injector for `(seed, spec)` — the whole chaotic run is a pure
    /// function of these two values (plus the uninjected pipeline inputs).
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        Self {
            seed,
            spec,
            shared: Arc::new(FaultShared::default()),
        }
    }

    /// The spec this injector draws from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Wires this injector into a run's flight recorder: each fault site
    /// registers a label, and every subsequent injection records a
    /// `fault` event keyed by the frame/block it hit — the causal-chain
    /// evidence in black-box dumps. First arming wins (clones share
    /// state); re-arming is a no-op, so an injector reused across runs
    /// keeps reporting into the first run's recorder.
    pub fn arm_flight(&self, rec: &ims_obs::FlightRecorder) {
        let _ = self.shared.flight.set(FlightHooks {
            rec: rec.clone(),
            drop: rec.register("frame.drop"),
            stall: rec.register("source.stall"),
            bitflip: rec.register("dma.bitflip"),
            deconv: rec.register("deconv.fail"),
            shard: rec.register("shard.kill"),
        });
    }

    /// Records one injected frame-site fault against a site label (no-op
    /// unarmed).
    #[inline]
    fn record_fault(&self, site: fn(&FlightHooks) -> u16, item: u64) {
        if let Some(h) = self.shared.flight.get() {
            h.rec.record(site(h), ims_obs::FlightKind::Fault, item);
        }
    }

    /// Records one injected block-site fault (`item` is a block index,
    /// which lives in a different namespace than frame ids).
    #[inline]
    fn record_block_fault(&self, site: fn(&FlightHooks) -> u16, item: u64) {
        if let Some(h) = self.shared.flight.get() {
            h.rec.record(site(h), ims_obs::FlightKind::BlockFault, item);
        }
    }

    /// The `n`-th deterministic uniform in `[0, 1)` for `(site, item)`.
    fn unit(&self, salt: u64, item: u64, n: u64) -> f64 {
        let h = mix(self.seed
            ^ salt
            ^ item.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ n.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Should frame `frame_no` be dropped at the source? Counts and
    /// traces when it fires.
    pub fn drop_frame(&self, frame_no: u64) -> bool {
        if self.spec.frame_drop <= 0.0 || self.unit(SALT_DROP, frame_no, 0) >= self.spec.frame_drop
        {
            return false;
        }
        self.shared.frames_dropped.fetch_add(1, Relaxed);
        self.record_fault(|h| h.drop, frame_no);
        ims_obs::static_counter!("fault.injected.frame_drop").incr();
        ims_obs::instant("fault", "frame_drop");
        true
    }

    /// The stall to take before emitting frame `frame_no`, if any.
    pub fn stall_duration(&self, frame_no: u64) -> Option<Duration> {
        let stall = self.spec.source_stall?;
        let fires = stall.rate > 0.0 && self.unit(SALT_STALL, frame_no, 0) < stall.rate;
        if fires {
            // Recorded here (not in `stall`) because only this site knows
            // which frame the stall precedes — the causal-chain key.
            self.record_fault(|h| h.stall, frame_no);
        }
        fires.then_some(stall.duration)
    }

    /// Takes an injected stall: sleeps `duration` in small slices,
    /// checking the cancel flag between slices. Returns `false` when the
    /// sleep was cancelled (the watchdog fired) — the caller should stop
    /// producing. Counts and traces the stall either way.
    pub fn stall(&self, duration: Duration) -> bool {
        self.shared.stalls.fetch_add(1, Relaxed);
        ims_obs::static_counter!("fault.injected.stall").incr();
        ims_obs::instant("fault", "stall");
        let slice = Duration::from_millis(5);
        let deadline = std::time::Instant::now() + duration;
        loop {
            if self.cancelled() {
                return false;
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return true;
            }
            std::thread::sleep(left.min(slice));
        }
    }

    /// Flips payload bits of one in-flight packet (the DMA corruption
    /// site): each frame flips `rate × payload_bits` bits in expectation,
    /// at hash-chosen positions. Returns the number of bits flipped.
    pub fn corrupt_packet(&self, packet: &mut ims_fpga::dma::FramePacket) -> u64 {
        if self.spec.dma_bitflip <= 0.0 {
            return 0;
        }
        let bits = packet.len_bytes() as f64 * 8.0;
        let expected = self.spec.dma_bitflip * bits;
        // Deterministic count: floor(expected) plus a Bernoulli trial on
        // the fraction — O(flips) work, not O(bits).
        let mut flips = expected.floor() as u64;
        if self.unit(SALT_BITFLIP, packet.seq_no, 0) < expected.fract() {
            flips += 1;
        }
        for n in 0..flips {
            let pos = (self.unit(SALT_BITFLIP, packet.seq_no, n + 1) * bits) as usize;
            packet.flip_bit(pos);
            ims_obs::instant("fault", "bitflip");
        }
        if flips > 0 {
            self.shared.bitflips.fetch_add(flips, Relaxed);
            self.record_fault(|h| h.bitflip, packet.seq_no);
            ims_obs::static_counter!("fault.injected.bitflip").add(flips);
        }
        flips
    }

    /// Does the hardware deconvolution backend fail on block
    /// `block_index`? Counts and traces when it fires.
    pub fn deconv_fails(&self, block_index: u64) -> bool {
        if self.spec.deconv_fail <= 0.0
            || self.unit(SALT_DECONV, block_index, 0) >= self.spec.deconv_fail
        {
            return false;
        }
        self.shared.deconv_failures.fetch_add(1, Relaxed);
        self.record_block_fault(|h| h.deconv, block_index);
        ims_obs::static_counter!("fault.injected.deconv_fail").incr();
        ims_obs::instant("fault", "deconv_fail");
        true
    }

    /// Is accumulator shard `shard` killed during block `block_index`?
    /// Pure in `(seed, block, shard)` like every other site, so the same
    /// shards die in the same blocks on any executor, any process, and on
    /// replay. Counts and traces when it fires.
    pub fn shard_kill(&self, block_index: u64, shard: u64) -> bool {
        if self.spec.shard_kill <= 0.0 {
            return false;
        }
        // Fold (block, shard) into one item index with a multiplier large
        // enough that realistic shard counts never collide across blocks.
        let item = block_index
            .wrapping_mul(0x0000_0001_0000_0001)
            .wrapping_add(shard);
        if self.unit(SALT_SHARD, item, 0) >= self.spec.shard_kill {
            return false;
        }
        self.shared.shard_kills.fetch_add(1, Relaxed);
        self.record_block_fault(|h| h.shard, block_index);
        ims_obs::static_counter!("fault.injected.shard_kill").incr();
        ims_obs::instant("fault", "shard_kill");
        true
    }

    /// Cancels in-progress and future injected stalls (the watchdog's
    /// lever for breaking a permanent stall).
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called?
    pub fn cancelled(&self) -> bool {
        self.shared.cancel.load(Relaxed)
    }

    /// Injected-fault counts so far (shared across clones).
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            bitflips: self.shared.bitflips.load(Relaxed),
            frames_dropped: self.shared.frames_dropped.load(Relaxed),
            stalls: self.shared.stalls.load(Relaxed),
            deconv_failures: self.shared.deconv_failures.load(Relaxed),
            shard_kills: self.shared.shard_kills.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_seeds_are_stable_and_distinct() {
        // Pinned values: the cross-process reproducibility contract of
        // `htims serve --sessions N --seed B` rests on this derivation.
        assert_eq!(session_seed(7, 0), session_seed(7, 0));
        let seeds: Vec<u64> = (0..64).map(|i| session_seed(7, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "derived seeds collide");
        // Different base seeds shift every session.
        assert!((0..64).all(|i| session_seed(7, i) != session_seed(8, i)));
    }

    #[test]
    fn parse_round_trips_canonical_form() {
        let spec = FaultSpec::parse(
            "dma.bitflip=1e-5,source.stall=50ms@0.01,frame.drop=1e-4,deconv.fail=0.001",
        )
        .unwrap();
        assert_eq!(spec.dma_bitflip, 1e-5);
        assert_eq!(spec.frame_drop, 1e-4);
        assert_eq!(spec.deconv_fail, 0.001);
        let stall = spec.source_stall.unwrap();
        assert_eq!(stall.duration, Duration::from_millis(50));
        assert_eq!(stall.rate, 0.01);
        // Display renders a form parse() accepts and that parses equal.
        let back = FaultSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn every_site_round_trips_parse_render_parse() {
        // One representative spec exercising every site in SITES — the
        // grammar's parse→render→parse fixed point. Fails if a new site is
        // added to parse() without a Display arm (or vice versa).
        let text = "dma.bitflip=1e-5,frame.drop=1e-4,deconv.fail=0.001,source.stall=50ms@0.01,\
             shard.kill=0.5";
        let spec = FaultSpec::parse(text).unwrap();
        assert_eq!(spec.shard_kill, 0.5);
        let rendered = spec.to_string();
        for site in SITES {
            assert!(
                rendered.contains(site),
                "rendered form `{rendered}` lost site `{site}`"
            );
        }
        assert_eq!(FaultSpec::parse(&rendered).unwrap(), spec);
        // And per-site singletons round-trip too.
        for single in [
            "dma.bitflip=0.25",
            "frame.drop=0.25",
            "deconv.fail=0.25",
            "source.stall=10ms@0.25",
            "shard.kill=0.25",
        ] {
            let s = FaultSpec::parse(single).unwrap();
            assert_eq!(FaultSpec::parse(&s.to_string()).unwrap(), s, "{single}");
        }
    }

    #[test]
    fn unknown_site_error_enumerates_all_sites() {
        let err = FaultSpec::parse("nope.site=0.5").unwrap_err();
        for site in SITES {
            assert!(err.contains(site), "error `{err}` missing site `{site}`");
        }
    }

    #[test]
    fn without_source_sites_keeps_downstream_sites() {
        let spec = FaultSpec::parse(
            "dma.bitflip=1e-5,frame.drop=0.1,deconv.fail=0.2,source.stall=5ms@0.3,shard.kill=0.4",
        )
        .unwrap();
        let replay = spec.without_source_sites();
        assert_eq!(replay.frame_drop, 0.0);
        assert!(replay.source_stall.is_none());
        assert_eq!(replay.dma_bitflip, 1e-5);
        assert_eq!(replay.deconv_fail, 0.2);
        assert_eq!(replay.shard_kill, 0.4);
    }

    #[test]
    fn shard_kill_decisions_are_deterministic_and_rate_shaped() {
        let spec = FaultSpec::parse("shard.kill=0.25").unwrap();
        let a = FaultInjector::new(42, spec.clone());
        let b = FaultInjector::new(42, spec.clone());
        let kills_a: Vec<bool> = (0..1000)
            .flat_map(|blk| (0..4).map(move |s| (blk, s)))
            .map(|(blk, s)| a.shard_kill(blk, s))
            .collect();
        let kills_b: Vec<bool> = (0..1000)
            .flat_map(|blk| (0..4).map(move |s| (blk, s)))
            .map(|(blk, s)| b.shard_kill(blk, s))
            .collect();
        assert_eq!(kills_a, kills_b, "same (seed, spec) ⇒ same kills");
        let rate = kills_a.iter().filter(|&&k| k).count() as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate}");
        assert_eq!(
            a.counts().shard_kills,
            kills_a.iter().filter(|&&k| k).count() as u64
        );
        // Kills count toward total() but not degrading().
        assert_eq!(a.counts().degrading(), 0);
        assert!(a.counts().total() > 0);
        // Distinct shards in the same block draw independently.
        let c = FaultInjector::new(7, FaultSpec::parse("shard.kill=0.5").unwrap());
        let per_shard: Vec<Vec<bool>> = (0..4u64)
            .map(|s| (0..256).map(|blk| c.shard_kill(blk, s)).collect())
            .collect();
        assert!(per_shard.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultSpec::parse("dma.bitflip=2").is_err(), "rate > 1");
        assert!(FaultSpec::parse("dma.bitflip=-0.1").is_err(), "rate < 0");
        assert!(FaultSpec::parse("nope.site=0.5").is_err(), "unknown site");
        assert!(FaultSpec::parse("frame.drop").is_err(), "missing value");
        assert!(
            FaultSpec::parse("source.stall=xyz").is_err(),
            "bad duration"
        );
        assert!(FaultSpec::parse("source.stall=10ms@7").is_err(), "bad prob");
        assert!(
            FaultSpec::parse("source.stall=1e30").is_err(),
            "duration overflows"
        );
        for bad in [
            "source.stall=-1ms",
            "source.stall=NaN",
            "source.stall=infs@0.5",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stall_durations_read_the_one_duration_grammar() {
        for (text, d) in [
            ("source.stall=500us@0.5", Duration::from_micros(500)),
            ("source.stall=500µs", Duration::from_micros(500)),
            ("source.stall=2.5ms", Duration::from_micros(2500)),
            ("source.stall=750ns", Duration::from_nanos(750)),
            ("source.stall=1.5", Duration::from_millis(1500)),
        ] {
            let spec = FaultSpec::parse(text).unwrap();
            assert_eq!(spec.source_stall.unwrap().duration, d, "{text}");
            assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn empty_and_zero_specs_are_zero() {
        assert!(FaultSpec::parse("").unwrap().is_zero());
        assert!(FaultSpec::default().is_zero());
        let zero = FaultSpec::parse("dma.bitflip=0,frame.drop=0,deconv.fail=0").unwrap();
        assert!(zero.is_zero());
        assert!(!FaultSpec::parse("frame.drop=0.5").unwrap().is_zero());
    }

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let spec = FaultSpec::parse("frame.drop=0.25").unwrap();
        let a = FaultInjector::new(42, spec.clone());
        let b = FaultInjector::new(42, spec.clone());
        let drops_a: Vec<bool> = (0..4000).map(|i| a.drop_frame(i)).collect();
        let drops_b: Vec<bool> = (0..4000).map(|i| b.drop_frame(i)).collect();
        assert_eq!(drops_a, drops_b, "same (seed, spec) ⇒ same decisions");
        let rate = drops_a.iter().filter(|&&d| d).count() as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate}");
        // A different seed draws a different stream.
        let c = FaultInjector::new(43, spec);
        let drops_c: Vec<bool> = (0..4000).map(|i| c.drop_frame(i)).collect();
        assert_ne!(drops_a, drops_c);
        assert_eq!(
            a.counts().frames_dropped,
            drops_a.iter().filter(|&&d| d).count() as u64
        );
    }

    #[test]
    fn corrupt_packet_flips_expected_bits_deterministically() {
        let words: Vec<u32> = (0..256).map(|i| i * 7).collect();
        let spec = FaultSpec::parse("dma.bitflip=0.001").unwrap();
        let inj = FaultInjector::new(9, spec);
        let mut p1 = ims_fpga::dma::FramePacket::from_words_checked(5, &words);
        let mut p2 = ims_fpga::dma::FramePacket::from_words_checked(5, &words);
        let f1 = inj.corrupt_packet(&mut p1);
        let f2 = inj.corrupt_packet(&mut p2);
        assert_eq!(f1, f2);
        assert_eq!(p1.payload, p2.payload, "same packet ⇒ same corruption");
        // 256 words × 32 bits × 0.001 ≈ 8 expected flips.
        assert!((4..=16).contains(&f1), "flips {f1}");
        assert!(!p1.verify(), "corruption must break the checksum");
        // Zero-rate injector touches nothing.
        let zero = FaultInjector::new(9, FaultSpec::default());
        let mut p3 = ims_fpga::dma::FramePacket::from_words_checked(5, &words);
        assert_eq!(zero.corrupt_packet(&mut p3), 0);
        assert!(p3.verify());
    }

    #[test]
    fn cancelled_stall_returns_early() {
        let spec = FaultSpec::parse("source.stall=60s@1").unwrap();
        let inj = FaultInjector::new(1, spec);
        assert!(inj.stall_duration(0).is_some());
        let peer = inj.clone();
        let t = std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let completed = peer.stall(Duration::from_secs(60));
            (completed, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        inj.cancel();
        let (completed, took) = t.join().unwrap();
        assert!(!completed, "cancelled stall must report cancellation");
        assert!(took < Duration::from_secs(5), "stall did not break early");
        assert_eq!(inj.counts().stalls, 1);
    }
}
