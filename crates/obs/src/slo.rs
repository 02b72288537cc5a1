//! Per-tenant SLO engine: declarative targets evaluated over sliding
//! windows with multi-window burn-rate alerting.
//!
//! A serving deployment states its objectives once —
//! `--slo p99=5ms,completeness=0.999` — and the engine turns the
//! pipeline's own counters into *burn rates*: the ratio of the observed
//! bad-event fraction to the error budget the objective allows. Burn 1.0
//! means the tenant is consuming its budget exactly as fast as the SLO
//! permits; burn 10 means the budget is gone in a tenth of the window.
//!
//! Two objectives are supported:
//!
//! * `p99=<dur>` — frame end-to-end latency (source packing to
//!   accumulation): at most 1% of frames may exceed `<dur>`. The bad
//!   fraction is `frames_slow / frames_observed`, the budget 0.01.
//! * `completeness=<f>` — delivery: at least fraction `<f>` of expected
//!   frames must reach accumulation (drops, stalls, and quarantines all
//!   eat this budget). The bad fraction is `missing / expected`, the
//!   budget `1 − f`.
//!
//! Following the multi-window SRE recipe, each objective is evaluated
//! over a **fast** (default 10 s) and a **slow** (default 60 s) sliding
//! window; the engine *alerts* only when both exceed the threshold —
//! fast-window-only spikes are noise, slow-window-only burn is stale.
//! [`SloEngine::publish`] surfaces every burn rate as
//! `slo.burn_rate#session=<s>,slo=<obj>,window=<w>` gauges — rendered on
//! `/metrics` as `slo_burn_rate{session="…",slo="…",window="…"}` — in
//! **milli-burn** units (gauges are integers; 1000 = burn 1.0).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// Default fast alerting window, seconds.
pub const FAST_WINDOW_S: u64 = 10;
/// Default slow alerting window, seconds.
pub const SLOW_WINDOW_S: u64 = 60;

/// Declarative SLO targets, parsed from the compact CLI grammar.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloSpec {
    /// End-to-end frame-latency target: at most 1% of frames slower than
    /// this many nanoseconds.
    pub p99_ns: Option<u64>,
    /// Fraction of expected frames that must be delivered (0, 1).
    pub completeness: Option<f64>,
}

impl SloSpec {
    /// Parses `p99=5ms,completeness=0.999` (either clause optional, at
    /// least one required).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = SloSpec::default();
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("bad --slo clause `{clause}`: expected key=value"))?;
            match key.trim() {
                "p99" => {
                    let d = parse_duration(value)
                        .ok_or_else(|| format!("bad duration `{value}` (e.g. 5ms, 250us, 1.5s)"))?;
                    let ns = u64::try_from(d.as_nanos())
                        .map_err(|_| format!("duration `{value}` overflows u64 nanoseconds"))?;
                    spec.p99_ns = Some(ns);
                }
                "completeness" => {
                    let f: f64 = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad completeness `{value}`"))?;
                    if !(f > 0.0 && f < 1.0) {
                        return Err(format!("completeness must be in (0, 1), got `{value}`"));
                    }
                    spec.completeness = Some(f);
                }
                other => return Err(format!("unknown SLO objective `{other}`")),
            }
        }
        if spec.p99_ns.is_none() && spec.completeness.is_none() {
            return Err("empty --slo spec: expected p99=<dur>,completeness=<f>".into());
        }
        Ok(spec)
    }
}

impl fmt::Display for SloSpec {
    /// Canonical form: `p99=…,completeness=…` in declaration order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if let Some(ns) = self.p99_ns {
            write!(f, "p99={}", format_duration_ns(ns))?;
            first = false;
        }
        if let Some(c) = self.completeness {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "completeness={c}")?;
        }
        Ok(())
    }
}

/// Parses a duration: a non-negative decimal number with an optional
/// unit, `ns`, `us` (or `µs`), `ms` or `s`; a bare number is seconds
/// (`250us`, `2.5ms`, `1.5`). The one duration grammar of the command
/// line, the fault spec and the SLO spec. `None` for anything else,
/// including a negative, NaN, infinite or overflowing value (one a
/// `Duration` cannot hold).
///
/// The number is read as an `f64` and `Duration::try_from_secs_f64`
/// rounds it to the nearest nanosecond, so both renderings read back
/// exactly: fault specs' decimal seconds (see `htims_core::fault`) and
/// SLO specs' whole `s`/`ms`/`us`/`ns` counts below 2^51 ns (26 days),
/// where the scaled `f64` lies within half a nanosecond of the count.
pub fn parse_duration(text: &str) -> Option<Duration> {
    const UNITS: [(&str, f64); 5] = [
        ("ns", 1e-9),
        ("us", 1e-6),
        ("µs", 1e-6),
        ("ms", 1e-3),
        ("s", 1.0),
    ];
    let text = text.trim();
    let (number, scale) = UNITS
        .iter()
        .find_map(|&(unit, scale)| text.strip_suffix(unit).map(|n| (n, scale)))
        .unwrap_or((text, 1.0));
    let value: f64 = number.trim().parse().ok()?;
    Duration::try_from_secs_f64(value * scale).ok()
}

/// Renders nanoseconds back in the largest exact unit.
fn format_duration_ns(ns: u64) -> String {
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// One batch of per-run counters fed to the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloDelta {
    /// Frames whose end-to-end latency was measured.
    pub frames_observed: u64,
    /// Of those, frames slower than the p99 target.
    pub frames_slow: u64,
    /// Frames the run was configured to produce.
    pub frames_expected: u64,
    /// Frames that actually reached accumulation.
    pub frames_delivered: u64,
}

/// Burn rates of one objective over both windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowBurn {
    /// Burn over the fast window (`None` until any events landed in it).
    pub fast: Option<f64>,
    /// Burn over the slow window.
    pub slow: Option<f64>,
}

impl WindowBurn {
    /// Strictly over: burning at exactly the threshold consumes the
    /// budget exactly as fast as the SLO permits, which is not an alert.
    fn over(&self, threshold: f64) -> bool {
        self.fast.is_some_and(|b| b > threshold) && self.slow.is_some_and(|b| b > threshold)
    }
}

/// The engine's verdict at one evaluation instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloStatus {
    /// Latency-objective burn, when `p99` is configured and frames flowed.
    pub p99: Option<WindowBurn>,
    /// Completeness-objective burn.
    pub completeness: Option<WindowBurn>,
    /// Multi-window alert: some objective burns over the threshold on
    /// *both* windows.
    pub alerting: bool,
}

/// Sliding-window burn-rate evaluator for one tenant.
pub struct SloEngine {
    spec: SloSpec,
    fast_s: u64,
    slow_s: u64,
    /// Burn at or above this on both windows raises the alert.
    threshold: f64,
    /// Per-second accumulation buckets `(second, delta)`, oldest first.
    buckets: VecDeque<(u64, SloDelta)>,
}

impl SloEngine {
    /// An engine with the default 10 s / 60 s windows and threshold 1.0.
    pub fn new(spec: SloSpec) -> Self {
        Self::with_windows(spec, FAST_WINDOW_S, SLOW_WINDOW_S, 1.0)
    }

    /// Fully parameterized constructor (tests inject small windows).
    pub fn with_windows(spec: SloSpec, fast_s: u64, slow_s: u64, threshold: f64) -> Self {
        Self {
            spec,
            fast_s: fast_s.max(1),
            slow_s: slow_s.max(fast_s.max(1)),
            threshold,
            buckets: VecDeque::new(),
        }
    }

    /// The configured targets.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Folds one batch of counters into the bucket for `now_s` (seconds
    /// on any monotonic clock; callers use `trace::now_ns() / 1e9`).
    pub fn observe(&mut self, now_s: u64, delta: SloDelta) {
        match self.buckets.back_mut() {
            Some((sec, d)) if *sec == now_s => {
                d.frames_observed += delta.frames_observed;
                d.frames_slow += delta.frames_slow;
                d.frames_expected += delta.frames_expected;
                d.frames_delivered += delta.frames_delivered;
            }
            _ => self.buckets.push_back((now_s, delta)),
        }
        let horizon = now_s.saturating_sub(self.slow_s);
        while self.buckets.front().is_some_and(|(sec, _)| *sec < horizon) {
            self.buckets.pop_front();
        }
    }

    fn window_total(&self, now_s: u64, window_s: u64) -> SloDelta {
        let from = now_s.saturating_sub(window_s.saturating_sub(1));
        let mut total = SloDelta::default();
        for (sec, d) in &self.buckets {
            if *sec >= from && *sec <= now_s {
                total.frames_observed += d.frames_observed;
                total.frames_slow += d.frames_slow;
                total.frames_expected += d.frames_expected;
                total.frames_delivered += d.frames_delivered;
            }
        }
        total
    }

    /// Evaluates both objectives over both windows as of `now_s`.
    pub fn status(&self, now_s: u64) -> SloStatus {
        let windows = [self.fast_s, self.slow_s].map(|w| self.window_total(now_s, w));
        let burn = |bad: u64, total: u64, budget: f64| -> Option<f64> {
            (total > 0).then(|| (bad as f64 / total as f64) / budget.max(1e-12))
        };
        let p99 = self.spec.p99_ns.map(|_| WindowBurn {
            fast: burn(windows[0].frames_slow, windows[0].frames_observed, 0.01),
            slow: burn(windows[1].frames_slow, windows[1].frames_observed, 0.01),
        });
        let completeness = self.spec.completeness.map(|target| {
            let budget = 1.0 - target;
            let missing = |d: &SloDelta| d.frames_expected.saturating_sub(d.frames_delivered);
            WindowBurn {
                fast: burn(missing(&windows[0]), windows[0].frames_expected, budget),
                slow: burn(missing(&windows[1]), windows[1].frames_expected, budget),
            }
        });
        let alerting = p99.is_some_and(|b| b.over(self.threshold))
            || completeness.is_some_and(|b| b.over(self.threshold));
        SloStatus {
            p99,
            completeness,
            alerting,
        }
    }

    /// Publishes `status` into the metrics registry for `session`:
    /// `slo.burn_rate#session=<s>,slo=<obj>,window=<w>` gauges in
    /// milli-burn, plus `slo.alerting#session=<s>`. The exporter renders
    /// the `#…` suffix as Prometheus labels.
    pub fn publish(&self, session: &str, status: &SloStatus) {
        let set = |obj: &str, window: &str, burn: Option<f64>| {
            if let Some(b) = burn {
                let name = format!("slo.burn_rate#session={session},slo={obj},window={window}");
                crate::metrics::gauge(&name).set(milli_burn(b));
            }
        };
        if let Some(b) = status.p99 {
            set("p99", "fast", b.fast);
            set("p99", "slow", b.slow);
        }
        if let Some(b) = status.completeness {
            set("completeness", "fast", b.fast);
            set("completeness", "slow", b.slow);
        }
        crate::metrics::gauge(&format!("slo.alerting#session={session}"))
            .set(status.alerting as u64);
    }

    /// A serializable summary of `status` for ledger lines and reports.
    pub fn summarize(&self, status: &SloStatus) -> SloSummary {
        SloSummary {
            spec: self.spec.to_string(),
            p99_burn_fast: status.p99.and_then(|b| b.fast),
            p99_burn_slow: status.p99.and_then(|b| b.slow),
            completeness_burn_fast: status.completeness.and_then(|b| b.fast),
            completeness_burn_slow: status.completeness.and_then(|b| b.slow),
            alerting: status.alerting,
        }
    }
}

/// Burn expressed in gauge units: 1000 = burn 1.0 (saturating).
pub fn milli_burn(burn: f64) -> u64 {
    (burn * 1000.0).round().clamp(0.0, u64::MAX as f64) as u64
}

/// SLO state stamped into `ObsReport` (schema v4), ledger lines (schema
/// v3), and `/sessions` rows.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SloSummary {
    /// Canonical target spec (`p99=5ms,completeness=0.999`).
    pub spec: String,
    /// Latency burn over the fast window, if measured.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p99_burn_fast: Option<f64>,
    /// Latency burn over the slow window.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p99_burn_slow: Option<f64>,
    /// Completeness burn over the fast window.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub completeness_burn_fast: Option<f64>,
    /// Completeness burn over the slow window.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub completeness_burn_slow: Option<f64>,
    /// Whether the multi-window alert was raised.
    #[serde(default)]
    pub alerting: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_round_trips() {
        let spec = SloSpec::parse("p99=5ms,completeness=0.999").unwrap();
        assert_eq!(spec.p99_ns, Some(5_000_000));
        assert_eq!(spec.completeness, Some(0.999));
        assert_eq!(spec.to_string(), "p99=5ms,completeness=0.999");
        assert_eq!(SloSpec::parse(&spec.to_string()).unwrap(), spec);
        assert_eq!(SloSpec::parse("p99=250us").unwrap().p99_ns, Some(250_000));
        assert_eq!(
            SloSpec::parse("p99=2s").unwrap().p99_ns,
            Some(2_000_000_000)
        );
        assert!(SloSpec::parse("").is_err());
        assert!(SloSpec::parse("p42=5ms").is_err());
        assert!(SloSpec::parse("completeness=1.5").is_err());
        assert!(SloSpec::parse("p99=fast").is_err());
    }

    #[test]
    fn p99_reads_the_one_duration_grammar() {
        for (text, ns) in [
            ("p99=2.5ms", 2_500_000),
            ("p99=500µs", 500_000),
            ("p99=250ns", 250),
            ("p99=1.5", 1_500_000_000),
            ("p99= 3 ms", 3_000_000),
            ("p99=1e10s", 10_000_000_000_000_000_000),
        ] {
            let spec = SloSpec::parse(text).unwrap();
            assert_eq!(spec.p99_ns, Some(ns), "{text}");
            assert_eq!(SloSpec::parse(&spec.to_string()).unwrap(), spec, "{text}");
        }
        assert_eq!(
            SloSpec::parse("p99=2.5ms").unwrap().to_string(),
            "p99=2500us"
        );
        // Negative, NaN, infinite, a `Duration` overflow, and a duration
        // past u64 nanoseconds (1e11 s).
        for text in [
            "p99=-1ms",
            "p99=NaN",
            "p99=infs",
            "p99=1e999s",
            "p99=1e30",
            "p99=1e11s",
        ] {
            assert!(SloSpec::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn parse_duration_units_and_refusals() {
        let ns = |t: &str| parse_duration(t).map(|d| d.as_nanos());
        assert_eq!(ns("7ns"), Some(7));
        assert_eq!(ns("7us"), Some(7_000));
        assert_eq!(ns("7µs"), Some(7_000));
        assert_eq!(ns("7ms"), Some(7_000_000));
        assert_eq!(ns("7s"), Some(7_000_000_000));
        assert_eq!(ns("0.25"), Some(250_000_000));
        assert_eq!(ns("0"), Some(0));
        for bad in [
            "", "ms", "5q", "5 m s", "-1s", "-0.5", "NaN", "inf", "1e30s", "1e999ms",
        ] {
            assert_eq!(parse_duration(bad), None, "{bad}");
        }
    }

    #[test]
    fn burn_rates_track_bad_fractions() {
        let mut e = SloEngine::with_windows(
            SloSpec::parse("p99=5ms,completeness=0.9").unwrap(),
            2,
            10,
            1.0,
        );
        // 100 frames, 1 slow → bad fraction 0.01 → burn exactly 1.0;
        // 100 expected, 95 delivered → 0.05 / 0.1 budget → burn 0.5.
        e.observe(
            5,
            SloDelta {
                frames_observed: 100,
                frames_slow: 1,
                frames_expected: 100,
                frames_delivered: 95,
            },
        );
        let s = e.status(5);
        let p99 = s.p99.unwrap();
        assert!((p99.fast.unwrap() - 1.0).abs() < 1e-9);
        assert!((p99.slow.unwrap() - 1.0).abs() < 1e-9);
        let c = s.completeness.unwrap();
        assert!((c.fast.unwrap() - 0.5).abs() < 1e-9);
        assert!(!s.alerting, "burn at 1.0 on p99 only is not over both");
    }

    #[test]
    fn multi_window_alert_needs_both_windows_burning() {
        let spec = SloSpec::parse("completeness=0.99").unwrap();
        let mut e = SloEngine::with_windows(spec, 2, 8, 1.0);
        // Old healthy traffic fills the slow window...
        for sec in 0..6 {
            e.observe(
                sec,
                SloDelta {
                    frames_expected: 100,
                    frames_delivered: 100,
                    ..Default::default()
                },
            );
        }
        // ...then a fresh spike of loss.
        e.observe(
            7,
            SloDelta {
                frames_expected: 100,
                frames_delivered: 50,
                ..Default::default()
            },
        );
        let s = e.status(7);
        let c = s.completeness.unwrap();
        assert!(c.fast.unwrap() > 1.0, "fast window sees the spike");
        assert!(
            c.slow.unwrap() > 1.0,
            "a 50% loss burns even the slow window here"
        );
        assert!(s.alerting);
        // A spike that the slow window dilutes below threshold: no alert.
        let mut e2 =
            SloEngine::with_windows(SloSpec::parse("completeness=0.5").unwrap(), 1, 60, 1.0);
        for sec in 0..50 {
            e2.observe(
                sec,
                SloDelta {
                    frames_expected: 100,
                    frames_delivered: 100,
                    ..Default::default()
                },
            );
        }
        e2.observe(
            50,
            SloDelta {
                frames_expected: 100,
                frames_delivered: 30,
                ..Default::default()
            },
        );
        let s2 = e2.status(50);
        let c2 = s2.completeness.unwrap();
        assert!(c2.fast.unwrap() > 1.0);
        assert!(c2.slow.unwrap() < 1.0);
        assert!(!s2.alerting, "fast-only burn must not alert");
    }

    #[test]
    fn buckets_slide_out_of_the_windows() {
        let mut e = SloEngine::with_windows(SloSpec::parse("p99=1ms").unwrap(), 2, 4, 1.0);
        e.observe(
            0,
            SloDelta {
                frames_observed: 10,
                frames_slow: 10,
                ..Default::default()
            },
        );
        assert!(e.status(0).p99.unwrap().fast.is_some());
        // Five seconds later both windows have slid past the burst.
        e.observe(5, SloDelta::default());
        let s = e.status(5);
        assert_eq!(s.p99.unwrap().fast, None);
        assert_eq!(s.p99.unwrap().slow, None);
    }

    #[test]
    fn publish_sets_labeled_gauges() {
        let _lock = crate::global_test_lock();
        crate::metrics::reset();
        let mut e = SloEngine::new(SloSpec::parse("p99=5ms").unwrap());
        e.observe(
            1,
            SloDelta {
                frames_observed: 10,
                frames_slow: 5,
                ..Default::default()
            },
        );
        let status = e.status(1);
        e.publish("s3", &status);
        let snap = crate::metrics::snapshot();
        let g = snap
            .gauges
            .iter()
            .find(|g| g.name == "slo.burn_rate#session=s3,slo=p99,window=fast")
            .expect("burn gauge registered");
        assert_eq!(g.value, 50_000, "0.5 bad / 0.01 budget = burn 50.0");
        let text = crate::export::prometheus_text();
        assert!(
            text.contains("slo_burn_rate{session=\"s3\",slo=\"p99\",window=\"fast\"}"),
            "{text}"
        );
        let summary = e.summarize(&status);
        assert_eq!(summary.spec, "p99=5ms");
        assert!(summary.alerting);
        let json = serde_json::to_string(&summary).unwrap();
        let back: SloSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }
}
