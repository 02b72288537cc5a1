//! End-to-end and per-stage benchmark of the htims hybrid stage graph.
//!
//! ```text
//! cargo run --release --manifest-path stagebench/Cargo.toml -- \
//!     --workload e3_dense --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run sets its workload up several times (acquisition, frame pool,
//! inline-executor reference, warm-up) and reports the median set-up
//! time, then replays the frame pool through the probed stage graph on the
//! threaded executor for `--seconds`, in rounds of [`ROUND_FRAMES`] frames
//! with a [`host`] probe between them. `--trace 0` reports the end-to-end
//! metrics, every timing scaled to the nominal host; `--trace 1`
//! interleaves untraced and traced rounds and reports the per-layer
//! metrics, the tracing overhead and the bottleneck stage, and writes the
//! spans as a Chrome trace. `--workload all` runs every workload in its own
//! process.
//!
//! After each round every output block is checked against the reference;
//! the last line of stdout is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`) and the exit code is non-zero when any check
//! failed.

mod host;
mod layers;
mod probe;
mod stats;
mod workload;

use htims_core::pipeline::Scheduler;
use layers::{metric, Metric};
use serde_json::Value;
use stats::{mean, median, peak_rss_mb, percentile};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Prepared, Round, SetupTimes, Spec, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Frames per timed round (0.2–1 s of work on a 2-core host), but at
/// most [`MAX_ROUND_BLOCKS`] blocks. A round's output stays in memory
/// until it is checked, as `run_threaded` returns it, so peak RSS holds
/// one round of blocks whatever the host's speed.
const ROUND_FRAMES: u64 = 240;
const MAX_ROUND_BLOCKS: u64 = 24;
/// Blocks a run's untraced rounds produce at least, so it has ≥ 100
/// latency samples and ≥ 10 beyond p90; a traced run makes as many
/// traced rounds as untraced ones.
const MIN_BLOCKS: u64 = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"use 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(host::FLAG) {
        let threads = argv.get(2).and_then(|t| t.parse().ok()).unwrap_or(1);
        println!("{}", host::run_kernel(threads));
        return;
    }
    let args = parse_args().unwrap_or_else(|e| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "stagebench: {e}\nusage: stagebench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
            names.join("|")
        );
        std::process::exit(2);
    });
    let correct = if args.workload == "all" {
        run_all(&args)
    } else {
        match workload::find(&args.workload) {
            Some(spec) => run_one(spec, &args),
            None => {
                eprintln!("stagebench: unknown workload {:?}", args.workload);
                std::process::exit(2);
            }
        }
    };
    std::process::exit(if correct { 0 } else { 1 });
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    serde_json::json!({ "value": m.value, "unit": m.unit }),
                )
            })
            .collect(),
    )
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Host shape and build identity stamped into every result.
fn provenance(seed: u64) -> Value {
    let env = |k: &str| std::env::var(k).map_or(Value::Null, Value::String);
    serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(1, |v| v.get()),
        "sched_workers": Scheduler::global().threads(),
        "simd": ims_signal::simd::active_name(),
        // Stamped when the repository's crates were built.
        "git_describe": ims_obs::session::Provenance::collect(0, 0).git_describe,
        "HTIMS_SIMD": env("HTIMS_SIMD"),
        "HTIMS_PROF_HZ": env("HTIMS_PROF_HZ"),
        "seed": seed,
    })
}

/// Runs one workload in this process. Returns whether every check passed.
fn run_one(spec: &'static Spec, args: &Args) -> bool {
    let prov = provenance(args.seed);
    println!("workload {}: {}", spec.name, spec.why);
    println!(
        "provenance {}",
        serde_json::to_string(&prov).unwrap_or_default()
    );

    let mut errors: Vec<String> = Vec::new();
    let threads = Scheduler::global().threads();
    let SetUp {
        prepared: p,
        wall_s: setup_raw_s,
        times: setups,
        host_ms,
    } = match set_up(spec, args.seed, threads) {
        Ok(s) => s,
        Err(e) => {
            errors.push(e);
            return finish(spec, args, &prov, &errors, 0, 0, &[], Value::Null);
        }
    };
    let setup_s: Vec<f64> = setup_raw_s
        .iter()
        .zip(host_ms.windows(2))
        .map(|(s, h)| s / host::slowdown((h[0] + h[1]) / 2.0, 1))
        .collect();
    println!(
        "setup: {} x, median {:.3} s scaled, {:.3} s raw (pool {} frames, {} reference blocks)",
        setup_s.len(),
        median(&setup_s),
        median(&setup_raw_s),
        workload::POOL_FRAMES,
        p.reference_fnv.len()
    );

    let window = Instant::now();
    let rounds = match timed_rounds(&p, args, host_ms[host_ms.len() - 1]) {
        Ok(r) => r,
        Err(e) => {
            errors.push(e);
            Vec::new()
        }
    };
    let window_s = window.elapsed().as_secs_f64();

    let mut attempted = p.warmup.blocks_expected;
    let mut failed = p.warmup.blocks_bad;
    for r in &rounds {
        attempted += r.blocks_expected;
        failed += r.blocks_bad;
    }
    errors.extend(self_checks(&p, &rounds));
    let error_rate = failed as f64 / attempted.max(1) as f64;

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let host_round_ms: Vec<f64> = rounds.iter().map(|r| r.host_ms).collect();
    let (metrics, detail) = if args.trace {
        let overhead_pct =
            (scaled_cpu_ms_per_block(&traced) / scaled_cpu_ms_per_block(&untraced) - 1.0) * 100.0;
        let mut report = layers::per_layer(&traced, &setups, overhead_pct, error_rate);
        report
            .metrics
            .push(metric("host.probe_ms", median(&host_round_ms), "ms"));
        println!(
            "bottleneck: {} (busy_share {:.3}); predicted {} -> {}",
            report.bottleneck,
            report.bottleneck_share,
            spec.predicted_bottleneck,
            if report.bottleneck == spec.predicted_bottleneck {
                "match"
            } else {
                "MISMATCH"
            }
        );
        match write_chrome_trace(spec, args.seed, &traced) {
            Ok(path) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write the Chrome trace: {e}"),
        }
        let detail = serde_json::json!({
            "bottleneck": report.bottleneck,
            "predicted_bottleneck": spec.predicted_bottleneck,
        });
        (report.metrics, detail)
    } else {
        let per_round =
            |f: &dyn Fn(&Round) -> f64| untraced.iter().map(|r| f(r)).collect::<Vec<_>>();
        let fd = p.frame_duration_s;
        // Each round runs a new graph, and a round's blocks tend to share
        // one of two latencies (a scheduling state; ~1.8x apart on
        // xd1_binned). The mean of the rounds' quantiles moves smoothly with
        // the share of rounds in each state, where a quantile over all
        // blocks of the window jumps between the two.
        let latency = |q: f64| {
            mean(&per_round(&|r| {
                percentile(&r.latency_ms, q) / r.host_scale()
            }))
        };
        let samples: usize = untraced.iter().map(|r| r.latency_ms.len()).sum();
        let metrics = vec![
            metric("realtime_margin", scaled_margin(&untraced, fd), "x"),
            metric("block_latency_p50_ms", latency(0.5), "ms"),
            metric("block_latency_p90_ms", latency(0.9), "ms"),
            metric("cpu_ms_per_block", scaled_cpu_ms_per_block(&untraced), "ms"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        let raw_margins = per_round(&|r| r.realtime_margin(fd));
        println!(
            "window {:.2} s: {} rounds, {} blocks, {} latency samples; host probe median {:.1} ms \
             (nominal {}), unscaled margin median {:.3} x",
            window_s,
            untraced.len(),
            attempted - p.warmup.blocks_expected,
            samples,
            median(&host_round_ms),
            host::NOMINAL_MS,
            median(&raw_margins),
        );
        let detail = serde_json::json!({
            "latency_samples": samples,
            "round_margins": raw_margins,
            "round_cpu_ms_per_block": per_round(&Round::cpu_ms_per_block),
            "round_latency_p50_ms": per_round(&|r| percentile(&r.latency_ms, 0.5)),
            "round_latency_p90_ms": per_round(&|r| percentile(&r.latency_ms, 0.9)),
        });
        (metrics, detail)
    };
    println!("error_rate {error_rate} ratio ({failed} of {attempted} blocks)");
    let detail = serde_json::json!({
        "detail": detail,
        "window_s": window_s,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "setup_host_ms": host_ms,
        "round_host_ms": host_round_ms,
        "reference_fnv": p.reference_fnv.iter().map(|f| format!("{f:016x}")).collect::<Vec<_>>(),
        "stages": p.canonical_stages,
        "error_rate": error_rate,
    });
    finish(
        spec, args, &prov, &errors, attempted, failed, &metrics, detail,
    )
}

/// Frames × frame duration ÷ wall time over `rounds`, each round's wall
/// time scaled to the nominal host.
fn scaled_margin(rounds: &[&Round], frame_duration_s: f64) -> f64 {
    let frames: u64 = rounds.iter().map(|r| r.frames).sum();
    let wall_s: f64 = rounds.iter().map(|r| r.wall_s / r.host_scale()).sum();
    frames as f64 * frame_duration_s / wall_s
}

/// Process CPU per block over `rounds`, each round's CPU time scaled to
/// the nominal host.
fn scaled_cpu_ms_per_block(rounds: &[&Round]) -> f64 {
    let cpu_s: f64 = rounds.iter().map(|r| r.cpu_s / r.host_scale()).sum();
    let blocks: u64 = rounds.iter().map(|r| r.blocks_expected).sum();
    cpu_s * 1e3 / blocks.max(1) as f64
}

/// The last of `SETUP_REPEATS` set-ups of a workload, and what each took.
struct SetUp {
    prepared: Prepared,
    /// Wall time of each set-up, s.
    wall_s: Vec<f64>,
    times: Vec<SetupTimes>,
    /// Host probe times before each set-up and after the last, ms.
    host_ms: Vec<f64>,
}

/// Sets the workload up `SETUP_REPEATS` times. The first probe of a
/// process runs slow on a cold binary, so one more goes first and is
/// discarded.
fn set_up(spec: &'static Spec, seed: u64, threads: usize) -> Result<SetUp, String> {
    host::probe_ms(threads)?;
    let mut host_ms = vec![host::probe_ms(threads)?];
    let (mut wall_s, mut times) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first, so peak RSS counts one.
        drop(prepared.take());
        let t = Instant::now();
        let p = Prepared::new(spec, seed).map_err(|e| format!("set-up failed: {e}"))?;
        wall_s.push(t.elapsed().as_secs_f64());
        host_ms.push(host::probe_ms(threads)?);
        times.push(p.times);
        prepared = Some(p);
    }
    Ok(SetUp {
        prepared: prepared.ok_or("no set-up ran")?,
        wall_s,
        times,
        host_ms,
    })
}

/// The timed window: rounds of `ROUND_FRAMES` frames until `--seconds`
/// have passed, untraced, or alternating untraced and traced with
/// `--trace 1`. A host probe follows every round; a round's `host_ms` is
/// the mean of the probes before and after it, the first "before" being
/// `host_ms`, the set-up's last probe.
fn timed_rounds(p: &Prepared, args: &Args, mut host_ms: f64) -> Result<Vec<Round>, String> {
    let threads = Scheduler::global().threads();
    let fpb = p.spec.frames_per_block;
    let round_blocks = (ROUND_FRAMES / fpb).clamp(1, MAX_ROUND_BLOCKS);
    let min_rounds = MIN_BLOCKS.div_ceil(round_blocks) as usize;
    let kinds = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds * kinds
        || !rounds.len().is_multiple_of(kinds)
        || start.elapsed().as_secs_f64() < args.seconds
    {
        let traced = rounds.len() % kinds == 1;
        let mut round = p.run_round(round_blocks * fpb, traced)?;
        let after = host::probe_ms(threads)?;
        round.host_ms = (host_ms + after) / 2.0;
        host_ms = after;
        rounds.push(round);
    }
    Ok(rounds)
}

/// The workload self-checks: the probed graph is the CLI's graph, the
/// sparse path runs exactly where the workload says, and the scheduler's
/// accounting identity held after every run.
fn self_checks(p: &Prepared, rounds: &[Round]) -> Vec<String> {
    let mut errors = Vec::new();
    for r in std::iter::once(&p.warmup).chain(rounds) {
        if r.stages != p.canonical_stages {
            errors.push(format!(
                "probed graph stages {:?} differ from hybrid_pipeline's {:?}",
                r.stages, p.canonical_stages
            ));
        }
        if !r.sched_ok {
            errors.push(format!(
                "scheduler accounting identity violated: {:?}",
                r.sched
            ));
        }
        let (blocks, sparse) = r
            .records
            .iter()
            .find(|rec| rec.name == "deconvolve")
            .map_or((0, 0), |rec| (rec.blocks_in, rec.sparse_blocks_in));
        let want = if p.spec.sparse { blocks } else { 0 };
        if blocks == 0 || sparse != want {
            errors.push(format!(
                "deconvolve saw {sparse} sparse of {blocks} blocks; {} expects share {}",
                p.spec.name,
                if p.spec.sparse { 1 } else { 0 }
            ));
        }
    }
    errors.dedup();
    errors
}

/// Prints the metrics and the result line, writes the result file, and
/// returns whether the run is correct.
#[allow(clippy::too_many_arguments)]
fn finish(
    spec: &Spec,
    args: &Args,
    prov: &Value,
    errors: &[String],
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    detail: Value,
) -> bool {
    for e in errors {
        println!("error: {e}");
    }
    for m in metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = errors.is_empty() && failed == 0 && attempted > 0;
    let line = serde_json::json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": if correct { failed } else { failed.max(1) },
        "metrics": metrics_json(metrics),
    });
    let record = serde_json::json!({
        "workload": spec.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": prov.clone(),
        "errors": errors.to_vec(),
        "result": line,
        "run": detail,
    });
    let path = results_dir().join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(results_dir()).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&record).unwrap_or_default(),
        )
    });
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    correct
}

/// Writes the traced rounds' spans as Chrome-trace JSON (one track per
/// stage), loadable in Perfetto like `htims trace` output.
fn write_chrome_trace(spec: &Spec, seed: u64, traced: &[&Round]) -> std::io::Result<PathBuf> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut events = Vec::new();
    for (round, r) in traced.iter().enumerate() {
        for rec in &r.records {
            let tid = match names.iter().position(|&n| n == rec.name) {
                Some(i) => i + 1,
                None => {
                    names.push(rec.name);
                    names.len()
                }
            };
            for s in &rec.spans {
                events.push(serde_json::json!({
                    "name": if s.emitted_block { "process+block" } else { "process" },
                    "cat": rec.name,
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.micros(),
                    "pid": 1,
                    "tid": tid,
                    "args": serde_json::json!({ "item": s.item, "round": round }),
                }));
            }
        }
    }
    for (i, name) in names.iter().enumerate() {
        events.push(serde_json::json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": i + 1,
            "args": serde_json::json!({ "name": *name }),
        }));
    }
    let doc = serde_json::json!({ "traceEvents": events, "displayTimeUnit": "ms" });
    std::fs::create_dir_all(results_dir())?;
    let path = results_dir().join(format!("{}-seed{seed}.trace.json", spec.name));
    std::fs::write(&path, serde_json::to_string(&doc).unwrap_or_default())?;
    Ok(path)
}

/// Runs every workload in a child process of its own (so each reports its
/// own peak RSS), relays their output, and prints one combined result
/// line with workload-prefixed metric names.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("stagebench: cannot find own executable: {e}");
            return false;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, Value)> = Vec::new();
    for spec in &WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(out) = out else {
            eprintln!("stagebench: cannot run workload {}", spec.name);
            correct = false;
            continue;
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last: Option<Value> = text
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok());
        let Some(last) = last.filter(|_| out.status.success()) else {
            correct = false;
            continue;
        };
        correct &= last.field("correct").as_bool().unwrap_or(false);
        attempted += last.field("attempted").as_u64().unwrap_or(0);
        failed += last.field("failed").as_u64().unwrap_or(0);
        if let Value::Object(entries) = last.field("metrics") {
            for (k, v) in entries {
                metrics.push((format!("{}.{k}", spec.name), v.clone()));
            }
        }
    }
    let line = serde_json::json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    correct
}
