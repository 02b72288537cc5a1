//! `htims` — command-line front end for the HT-IMS simulation.
//!
//! ```text
//! htims print-config                       # emit the default experiment config as JSON
//! htims run --config cfg.json [--out f]    # acquire → deconvolve → features/identifications
//! htims sequence --degree 9 [--factor 2]   # gate-sequence properties and quality metrics
//! htims feasibility --degree 9 --mz 100    # FPGA resource / real-time report
//! htims pipeline --degree 6 --mz 60        # run the stage graph, emit PipelineReport JSON
//! htims pipeline --trace run/              # same, plus run/trace.json (Chrome) + run/metrics.json
//! htims top --port 9464                    # live console over a running `htims serve` exporter
//! htims bench deconv --out BENCH_deconv.json  # deconvolution engine micro-bench
//! ```
//!
//! Every subcommand reads its argv through one [`Args`] and rejects what
//! it did not read (exit 2) before anything runs or is written.

use htims::core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims::core::analysis::{build_library, find_features, match_library};
use htims::core::config::ExperimentConfig;
use htims::core::deconvolution::{apply_columnwise, Deconvolver};
use htims::core::parallel::{deconvolve_fixed_point, deconvolve_with_threads, Workers};
use htims::core::BatchDeconvolver;
use htims::fpga::deconv::DeconvConfig;
use htims::fpga::{AccumulatorCore, DeconvCore, DmaLink, FpgaDevice, ResourceReport};
use htims::graph::{check_shape, GraphSpec};
use htims::physics::{DriftTofMap, Instrument, Workload};
use htims::prs::{metrics, MSequence, OversampledSequence};
use htims::signal::panel::{rows_mut, Columns};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".into());
    let args = Args::new(&command, argv);
    match command.as_str() {
        "print-config" => print_config(args),
        "run" => run(args),
        "sequence" => sequence(args),
        "feasibility" => feasibility(args),
        "pipeline" => pipeline(args),
        "serve" => serve(args),
        "top" => top(args),
        "chaos" => chaos(args),
        "bench" => bench(args),
        "help" | "--help" | "-h" => help(),
        other => {
            eprintln!("unknown subcommand '{other}'");
            help();
            std::process::exit(2);
        }
    }
}

fn help() {
    eprintln!(
        "usage:\n  htims print-config\n  htims run --config <file.json> [--out <file.json>]\n  \
         htims sequence --degree <n> [--factor <m>]\n  htims feasibility --degree <n> --mz <bins>\n  \
         htims pipeline [--degree <n>] [--mz <bins>] [--frames <per-block>] [--blocks <n>]\n    \
         [--depth <channel depth>] [--backend fpga|naive|software] [--threads <n>]\n    \
         [--coarse <bins>] [--executor threaded|inline] [--seed <n>]\n    \
         [--out <file.json>] [--faults <dma.bitflip=1e-5,frame.drop=1e-4,...>]\n    \
         [--stall-timeout <250ms>] [--sparse] [--slo <p99=5ms,completeness=0.999>]\n    \
         [--flight-dir <dir>] [--profile <dir>] [--shards <n>] [--capture-log <dir>]\n    \
         [--trace <dir>]   (writes <dir>/trace.json and <dir>/metrics.json)\n  \
         htims pipeline --replay <capture dir> [--out <file.json>]\n  \
         htims serve [graph flags] [--duration <2s|500ms>] [--port <n>]\n    \
         [--sample-ms <n>] [--series <file.jsonl>] [--sessions <n>] [--max-sessions <n>]\n  \
         htims top [--host <addr>] [--port <n>] [--interval <1s|500ms>] [--iterations <n>]\n  \
         htims chaos [graph flags but --faults] [--seeds <a,b,...>] [--matrix <spec;spec;...>]\n    \
         [--out <survival.json>] [--strict]\n  \
         htims bench deconv [--quick] [--out <file.json>] [--threads <a,b,...>] [--sparse]\n  \
         htims bench compare <baseline.json> <candidate.json> [--max-regress-pct <n>]\n    \
         [--out <verdict.json>]\n\n\
         graph flags are the pipeline flags from --degree to --capture-log.\n\
         --degree is a PRS degree in 2..=20 and --mz at least 1; --stall-timeout is at least 1ms.\n\
         durations (--stall-timeout, --duration, --interval, --slo p99=, --faults source.stall=)\n\
         are a number with ns|us|ms|s, or bare seconds: 500us, 2.5ms, 1.5\n\
         pipeline|serve|chaos|bench deconv append a run summary to RUNS.jsonl\n\
         (override with --ledger <path>, disable with --no-ledger)"
    );
}

/// One subcommand's argv. Every read takes what it matched (a flag and
/// its value, a switch, or the positionals), and a malformed value is
/// recorded rather than fatal; [`finish`](Self::finish) then rejects the
/// first recorded error or untaken argument. Tokens keep their argv
/// positions, so a flag's value is always the token that followed it on
/// the command line, whatever order the reads come in.
struct Args {
    command: String,
    argv: Vec<String>,
    taken: Vec<bool>,
    error: Option<String>,
}

impl Args {
    fn new(command: &str, argv: impl IntoIterator<Item = String>) -> Self {
        let argv: Vec<String> = argv.into_iter().collect();
        Self {
            command: command.to_string(),
            taken: vec![false; argv.len()],
            argv,
            error: None,
        }
    }

    /// Keeps the first error: later ones are often its consequences.
    fn fail(&mut self, message: String) {
        self.error.get_or_insert(message);
    }

    /// Takes the first untaken `name`, flagging a repeat.
    fn take(&mut self, name: &str) -> Option<usize> {
        let hits: Vec<usize> = (0..self.argv.len())
            .filter(|&i| !self.taken[i] && self.argv[i] == name)
            .collect();
        let &first = hits.first()?;
        if hits.len() > 1 {
            self.fail(format!("{name} given more than once"));
        }
        self.taken[first] = true;
        Some(first)
    }

    /// Whether the switch `name` is present.
    fn switch(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// The value of flag `name`: the next token, which must not look like
    /// a flag itself (`--out --sparse` is a missing value).
    fn string(&mut self, name: &str) -> Option<String> {
        let i = self.take(name)?;
        match self.argv.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                self.taken[i + 1] = true;
                Some(v.clone())
            }
            next => {
                let got = next.map(|v| format!(", got '{v}'")).unwrap_or_default();
                self.fail(format!("{name} needs a value{got}"));
                None
            }
        }
    }

    /// A flag whose value `parse` must accept; `hint` ends the error.
    fn parsed<T>(
        &mut self,
        name: &str,
        hint: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        let v = self.string(name)?;
        let parsed = parse(&v);
        if parsed.is_none() {
            self.fail(format!("bad {name} '{v}': {hint}"));
        }
        parsed
    }

    fn num<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        self.parsed(name, "not a valid number", |v| v.parse().ok())
    }

    /// A duration in the one grammar of [`ims_obs::parse_duration`]:
    /// `250us`, `2.5ms`, `2s`, or bare seconds (`1.5`).
    fn duration(&mut self, name: &str) -> Option<std::time::Duration> {
        self.parsed(
            name,
            "use e.g. 500us, 2.5ms, 2s or 1.5 (ns|us|ms|s)",
            ims_obs::parse_duration,
        )
    }

    /// A comma-separated list; every entry must parse as `T`.
    fn list<T: std::str::FromStr>(&mut self, name: &str) -> Option<Vec<T>> {
        self.parsed(name, "an entry does not parse", |v| {
            v.split(',').map(|s| s.trim().parse().ok()).collect()
        })
    }

    /// The arguments that are not flags. Read them after every flag, so
    /// flag values are already taken.
    fn positionals(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        for (arg, taken) in self.argv.iter().zip(self.taken.iter_mut()) {
            if !*taken && !arg.starts_with("--") {
                *taken = true;
                out.push(arg.clone());
            }
        }
        out
    }

    /// The first recorded error, else the first argument no read took.
    fn check(&self) -> Result<(), String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match self.argv.iter().zip(&self.taken).find(|(_, &taken)| !taken) {
            Some((arg, _)) if arg.starts_with("--") => Err(format!("unknown flag '{arg}'")),
            Some((arg, _)) => Err(format!("unexpected argument '{arg}'")),
            None => Ok(()),
        }
    }

    /// Exits 2 with [`check`](Self::check)'s message. Call it after the
    /// last read and before anything runs or is written.
    fn finish(self) {
        if let Err(e) = self.check() {
            die(format!("htims {}: {e} (see `htims help`)", self.command));
        }
    }
}

/// Exits 2 with `message`: the CLI's one answer to bad input.
fn die(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Process-wide shutdown flag, flipped by SIGINT/SIGTERM so the long-
/// running modes (`serve`, `top`) can stop admission, drain in-flight
/// sessions, and flush their sampler/ledger sinks instead of dying
/// mid-write.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: a single relaxed store, nothing else.
    SHUTDOWN.store(true, std::sync::atomic::Ordering::Relaxed);
}

fn shutdown_requested() -> bool {
    SHUTDOWN.load(std::sync::atomic::Ordering::Relaxed)
}

/// Installs the SIGINT/SIGTERM handlers via the C runtime's `signal` —
/// the one libc entry point that needs no external crate.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_signal); // SIGINT
        signal(15, on_signal); // SIGTERM
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Writes the continuous profile (`profile.folded` + `profile.json`)
/// into the spec's `--profile` directory, if one was given. Best-effort:
/// a failed write warns and moves on, like the ledger.
fn maybe_write_profile(spec: &GraphSpec) {
    let Some(dir) = &spec.profile_dir else { return };
    match ims_obs::prof::write_profile(std::path::Path::new(dir)) {
        Ok(snap) => eprintln!(
            "profile written to {dir}/profile.folded and {dir}/profile.json \
             ({} tags at {} Hz{})",
            snap.tags.len(),
            snap.hz,
            if snap.hz == 0 {
                "; HTIMS_PROF_HZ=0, sampler off"
            } else {
                ""
            }
        ),
        Err(e) => eprintln!("cannot write profile to {dir}: {e}"),
    }
}

/// Starts a `--profile` window: clears any previously accumulated
/// tallies so the dump covers exactly this invocation's runs.
fn maybe_reset_profile(spec: &GraphSpec) {
    if spec.profile_dir.is_some() {
        ims_obs::prof::reset();
    }
}

fn print_config(args: Args) {
    args.finish();
    println!("{}", ExperimentConfig::default().to_json());
}

fn run(mut args: Args) {
    let config_path = args.string("--config");
    let out_path = args.string("--out");
    args.finish();
    let path = config_path
        .unwrap_or_else(|| die("--config <file.json> is required (try `htims print-config`)"));
    let json =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    let config =
        ExperimentConfig::from_json(&json).unwrap_or_else(|e| die(format!("invalid config: {e}")));
    check_shape(
        config.sequence_degree,
        config.mz_bins,
        ["sequence_degree", "mz_bins"],
    )
    .unwrap_or_else(|e| die(format!("invalid config: {e}")));

    let (instrument, workload, schedule, options) = config.build();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    eprintln!(
        "acquiring {} frames of '{}' with schedule {}…",
        config.frames,
        workload.name,
        schedule.name()
    );
    let data = acquire(
        &instrument,
        &workload,
        &schedule,
        config.frames,
        options,
        &mut rng,
    );
    eprintln!(
        "ion utilization {:.1}%, max packet {:.3e} e",
        100.0 * data.ion_utilization,
        data.packet_charges
    );
    let method = Deconvolver::Weighted { lambda: 1e-6 };
    let map = method.deconvolve(&schedule, &data);
    let features = find_features(&map, 8.0);
    let library = build_library(&instrument, &workload);
    let ids = match_library(&features, &library, 3, 2);
    eprintln!(
        "{} features; {}/{} species identified",
        features.len(),
        ids.len(),
        library.len()
    );

    let report = serde_json::json!({
        "config": config,
        "ion_utilization": data.ion_utilization,
        "packet_charges": data.packet_charges,
        "n_features": features.len(),
        "library_size": library.len(),
        "identifications": ids,
    });
    emit_json(&report, out_path.as_deref(), "report");
}

/// Writes `text` to `path`, exiting 2 when it cannot.
fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
}

/// Emits a report as pretty JSON: to the `--out` file when one was
/// given (naming it on stderr as `what`), else to stdout.
fn emit_json(report: &impl serde::Serialize, out: Option<&str>, what: &str) {
    let mut text = serde_json::to_string_pretty(report).expect("reports serialise to JSON");
    text.push('\n');
    match out {
        Some(path) => {
            write_file(path, &text);
            eprintln!("{what} written to {path}");
        }
        None => print!("{text}"),
    }
}

/// Host provenance for reports and ledger lines: the panel width every
/// float engine defaults to, plus the run's SIMD backend and its
/// sparse/dense label (empty = not stamped).
fn provenance(threads: usize, simd: &str, sparse: &str) -> htims::obs::Provenance {
    htims::obs::Provenance::collect(threads, htims::core::deconv_batch::DEFAULT_PANEL_WIDTH)
        .with_simd(simd)
        .with_sparse(sparse)
}

fn sequence(mut args: Args) {
    let degree: u32 = args.num("--degree").unwrap_or(9);
    let factor: usize = args.num("--factor").unwrap_or(1);
    // No m/z axis here: only the degree is checked.
    if let Err(e) = check_shape(degree, 1, ["--degree", "--mz"]) {
        args.fail(e);
    }
    args.finish();
    let seq = MSequence::new(degree);
    println!(
        "m-sequence: degree {degree}, N = {}, polynomial {}",
        seq.len(),
        seq.poly().to_poly_string()
    );
    let (bits, label): (Vec<bool>, &str) = if factor > 1 {
        let o = OversampledSequence::modified_default(seq.clone(), factor);
        println!(
            "oversampled x{factor}: length {}, {} added pulses at {:?}",
            o.len(),
            o.added_pulses().len(),
            o.added_pulses()
        );
        (o.bits().to_vec(), "modified-oversampled")
    } else {
        (seq.bits().to_vec(), "base")
    };
    let m = metrics::analyze(&bits);
    println!(
        "{label}: duty cycle {:.3}, pulses/period {}, autocorrelation contrast {:.1} dB,\n\
         condition number {:.2}, inverse noise gain {:.4}",
        m.duty_cycle,
        m.pulse_count,
        m.autocorrelation_contrast_db,
        m.condition_number,
        m.noise_gain
    );
}

/// Reads the graph flags shared by `htims pipeline|serve|chaos` over
/// `base`'s defaults (including `--seed`, so traces and ledger lines are
/// reproducible end to end). An empty text value (`--faults ''`) clears
/// the default.
fn graph_spec(args: &mut Args, base: GraphSpec) -> GraphSpec {
    fn text(args: &mut Args, name: &str, default: Option<String>) -> Option<String> {
        args.string(name)
            .map_or(default, |v| Some(v).filter(|v| !v.is_empty()))
    }
    let stall_timeout = args.duration("--stall-timeout");
    let spec = GraphSpec {
        degree: args.num("--degree").unwrap_or(base.degree),
        mz: args.num("--mz").unwrap_or(base.mz),
        frames: args.num("--frames").unwrap_or(base.frames),
        blocks: args
            .num::<usize>("--blocks")
            .map_or(base.blocks, |b| b.max(1)),
        depth: args.num("--depth").unwrap_or(base.depth),
        backend: args.string("--backend").unwrap_or(base.backend),
        threads: args.num("--threads").unwrap_or(base.threads),
        coarse: args.num("--coarse").or(base.coarse),
        executor: args.string("--executor").unwrap_or(base.executor),
        seed: args.num("--seed").unwrap_or(base.seed),
        faults: text(args, "--faults", base.faults),
        stall_timeout_ms: stall_timeout
            .map(|d| d.as_millis() as u64)
            .or(base.stall_timeout_ms),
        sparse: args.switch("--sparse") || base.sparse,
        slo: text(args, "--slo", base.slo),
        flight_dir: text(args, "--flight-dir", base.flight_dir),
        profile_dir: text(args, "--profile", base.profile_dir),
        shards: args.num("--shards").unwrap_or(base.shards),
        capture_log: text(args, "--capture-log", base.capture_log),
    };
    if let Err(e) = spec.check() {
        args.fail(e);
    }
    spec
}

/// The ledger sink for this invocation: `--ledger <path>` overrides the
/// default `RUNS.jsonl`; `--no-ledger` disables the append.
fn ledger_flags(args: &mut Args) -> Option<String> {
    let path = args.string("--ledger");
    if args.switch("--no-ledger") {
        return None;
    }
    Some(path.unwrap_or_else(|| "RUNS.jsonl".into()))
}

/// Appends `record` to the invocation's ledger. Best-effort: a read-only
/// working directory degrades to one warning plus the
/// `obs.ledger.append_failed` counter, never a failed run.
fn append_ledger(ledger: Option<&str>, record: &ims_obs::LedgerRecord) {
    let Some(path) = ledger else {
        return;
    };
    if ims_obs::ledger::append_best_effort(path, record) {
        eprintln!("ledger line appended to {path}");
    }
}

/// Builds the ledger line for one stage-graph run.
fn graph_ledger_record(
    tool: &str,
    spec: &GraphSpec,
    report: &htims::core::pipeline::PipelineReport,
) -> ims_obs::LedgerRecord {
    let provenance = provenance(
        spec.resolved_threads(),
        &report.simd,
        if report.sparse_blocks > 0 {
            "sparse"
        } else {
            "dense"
        },
    );
    let mut rec = ims_obs::LedgerRecord::new(tool, &provenance, spec.fingerprint());
    rec.wall_seconds = report.wall_seconds;
    rec.frames = report.frames;
    rec.blocks = report.blocks;
    rec.stage_latency = report
        .stages
        .iter()
        .filter_map(|s| {
            s.latency_ns
                .as_ref()
                .map(|l| ims_obs::ledger::StageQuantiles {
                    stage: s.name.clone(),
                    p50_ns: l.p50,
                    p99_ns: l.p99,
                })
        })
        .collect();
    rec.mcells_per_second = report.deconv_mcells_per_second;
    rec.outcome = Some(report.outcome.as_str().to_string());
    rec.slo = run_slo_summary(spec, report);
    rec.flight_dump = report.flight_dump.clone();
    rec
}

/// One-shot SLO evaluation of a single finished run against the spec's
/// declared targets: the whole run folds into one window bucket, so the
/// fast- and slow-window burn rates coincide. `None` without `--slo`.
fn run_slo_summary(
    spec: &GraphSpec,
    report: &htims::core::pipeline::PipelineReport,
) -> Option<ims_obs::SloSummary> {
    let slo = spec.slo_spec().ok()??;
    let mut engine = ims_obs::SloEngine::new(slo);
    engine.observe(0, run_slo_delta(spec, report));
    let status = engine.status(0);
    Some(engine.summarize(&status))
}

/// Folds one run's report into an SLO window delta: frames over the p99
/// latency target count against the latency objective; dropped and
/// quarantined frames count against completeness.
fn run_slo_delta(
    spec: &GraphSpec,
    report: &htims::core::pipeline::PipelineReport,
) -> ims_obs::SloDelta {
    let expected = spec.frames * spec.blocks as u64;
    let delivered = report
        .frames
        .saturating_sub(report.faults.frames_dropped)
        .saturating_sub(report.frames_quarantined);
    ims_obs::SloDelta {
        frames_observed: delivered,
        frames_slow: report.frames_over_latency_slo,
        frames_expected: expected,
        frames_delivered: delivered,
    }
}

/// Feeds one finished run into its session's sliding-window SLO engine,
/// publishes the `slo.burn_rate#session=…` gauges, and returns the
/// summary for the session table / ledger. No-op without `--slo`.
fn observe_slo(
    slo: &Option<ims_obs::SloSpec>,
    engines: &mut std::collections::HashMap<String, ims_obs::SloEngine>,
    label: &str,
    now_s: u64,
    spec: &GraphSpec,
    report: &htims::core::pipeline::PipelineReport,
) -> Option<ims_obs::SloSummary> {
    let slo = slo.as_ref()?;
    let engine = engines
        .entry(label.to_string())
        .or_insert_with(|| ims_obs::SloEngine::new(slo.clone()));
    engine.observe(now_s, run_slo_delta(spec, report));
    let status = engine.status(now_s);
    engine.publish(label, &status);
    Some(engine.summarize(&status))
}

/// Runs the unified hybrid stage graph (source → link → [binner] →
/// accumulate → deconvolve) and emits the run's `PipelineReport` as JSON:
/// per-stage busy/blocked time, queue high-water marks, cycle totals, and
/// simulated link time.
///
/// `--trace <dir>` also runs the graph under an `ims_obs` `TraceSession`
/// and writes `dir/trace.json`, a Chrome trace-event array (a track per
/// pipeline thread: stage iterations, recv/send waits, deconv panels,
/// queue depths; open it at <https://ui.perfetto.dev>), and
/// `dir/metrics.json`, the `ObsReport` (provenance, counters, gauges,
/// latency histograms) next to the run's `PipelineReport`.
fn pipeline(mut args: Args) {
    let out_path = args.string("--out");
    let ledger = ledger_flags(&mut args);
    if let Some(dir) = args.string("--replay") {
        // The manifest fixes every graph flag.
        args.command.push_str(" --replay");
        args.finish();
        replay_pipeline(&dir, out_path.as_deref(), ledger.as_deref());
        return;
    }
    let trace_dir = args.string("--trace");
    let spec = graph_spec(&mut args, GraphSpec::small());
    args.finish();
    let trace = trace_dir.as_ref().map(|_| {
        htims::obs::TraceSession::start(provenance(
            spec.resolved_threads(),
            htims::signal::simd::active_name(),
            if spec.sparse { "sparse" } else { "dense" },
        ))
    });
    maybe_reset_profile(&spec);
    let out = spec.run().unwrap_or_else(|e| die(e));
    maybe_write_profile(&spec);
    let trace = trace.map(htims::obs::TraceSession::finish);
    eprintln!(
        "{} executor, backend {}: {} frames -> {} blocks in {:.1} ms \
         (simulated link {:.3} ms, capture {} cycles, deconvolve {} cycles)",
        out.report.executor,
        out.report.backend,
        out.report.frames,
        out.report.blocks,
        out.report.wall_seconds * 1e3,
        out.report.simulated_link_seconds * 1e3,
        out.report.capture_cycles,
        out.report.deconv_cycles,
    );
    if let (Some(dir), Some(obs)) = (&trace_dir, trace) {
        write_trace(dir, obs, &spec, &out.report);
    }
    emit_json(&out.report, out_path.as_deref(), "report");
    append_ledger(
        ledger.as_deref(),
        &graph_ledger_record("pipeline", &spec, &out.report),
    );
}

/// Writes the `--trace <dir>` artifacts of one finished run.
fn write_trace(
    dir: &str,
    mut obs: htims::obs::ObsReport,
    spec: &GraphSpec,
    report: &htims::core::pipeline::PipelineReport,
) {
    obs.slo = run_slo_summary(spec, report);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(format!("cannot create {dir}: {e}")));
    let mut trace_text = obs.chrome_trace_json();
    trace_text.push('\n');
    write_file(&format!("{dir}/trace.json"), &trace_text);
    eprintln!(
        "chrome trace written to {dir}/trace.json ({} spans on {} threads; \
         open at https://ui.perfetto.dev)",
        obs.spans.len(),
        obs.threads.len(),
    );
    let combined = serde_json::json!({
        "obs": obs,
        "pipeline": report.clone(),
    });
    emit_json(
        &combined,
        Some(&format!("{dir}/metrics.json")),
        "metrics snapshot",
    );
}

/// `htims pipeline --replay <dir>`: re-runs a captured run from its frame
/// log and holds the output to the manifest's FNV. A mismatch is a
/// determinism bug (or a tampered log) and exits nonzero so CI can gate
/// on it.
fn replay_pipeline(dir: &str, out_path: Option<&str>, ledger: Option<&str>) {
    let outcome = htims::graph::replay(dir).unwrap_or_else(|e| die(e));
    emit_json(&outcome.output.report, out_path, "report");
    append_ledger(
        ledger,
        &graph_ledger_record("pipeline", &outcome.spec, &outcome.output.report),
    );
    if outcome.matches() {
        eprintln!(
            "replay OK: output FNV 0x{:016x} matches the captured run ({} frames -> {} blocks)",
            outcome.actual_fnv, outcome.output.report.frames, outcome.output.report.blocks,
        );
    } else {
        eprintln!(
            "replay MISMATCH: output FNV 0x{:016x}, captured run recorded 0x{:016x}",
            outcome.actual_fnv, outcome.expected_fnv,
        );
        std::process::exit(3);
    }
}

/// `htims serve`: the continuous-telemetry mode. Runs the E3-shaped
/// streaming pipeline in a loop for `--duration` while four live
/// endpoints are up on `--port` (loopback):
///
/// * `GET /metrics` — Prometheus text exposition of every counter, gauge,
///   and histogram (`_bucket`/`_sum`/`_count` from the log-linear table);
///   with `--sessions N > 1` every pipeline series additionally carries a
///   `session="sK"` label per tenant;
/// * `GET /sessions` — the session multiplexer's table: every tenant's
///   seed, config fingerprint, state, and final `RunOutcome`/output
///   fingerprint;
/// * `GET /report.json` — the current `ObsReport` (live snapshot);
/// * `GET /profile?seconds=N` — a windowed snapshot from the continuous
///   CPU profiler: folded stacks plus per-(session, stage, method) tag
///   tallies over the window;
/// * `GET /healthz` — liveness JSON: uptime, schema versions, build.
///
/// `--sessions N` multiplexes N independent sessions per batch onto the
/// shared work-stealing pool (`min(cores, 8)` workers): session `sK` runs
/// seed `session_seed(--seed, K)`, so the whole fleet is reproducible
/// from one CLI seed. `--max-sessions` bounds concurrently admitted
/// sessions (admission control; default: the batch size).
///
/// A background sampler snapshots the registry every `--sample-ms` into
/// an in-memory ring and, with `--series <file.jsonl>`, an append-only
/// JSONL time series (counter deltas, gauge values, histogram summaries).
/// On exit one ledger line summarizing the whole window is appended —
/// plus, when multiplexing, one session-labeled line per tenant of the
/// final batch. SIGINT/SIGTERM trigger the same exit path early:
/// admission stops, in-flight sessions drain, and every sink (sampler
/// series, ledger, `--profile` dump) is flushed before the process ends.
fn serve(mut args: Args) {
    let spec = graph_spec(&mut args, GraphSpec::e3());
    let duration = args
        .duration("--duration")
        .unwrap_or(std::time::Duration::from_secs(10));
    let port: u16 = args.num("--port").unwrap_or(9464);
    let sample_ms: u64 = args.num("--sample-ms").unwrap_or(200);
    let series = args.string("--series");
    let sessions: usize = args.num("--sessions").unwrap_or(1).max(1);
    let max_sessions: usize = args.num("--max-sessions").unwrap_or(sessions).max(1);
    let ledger = ledger_flags(&mut args);
    if sessions > 1 && spec.executor == "inline" {
        // Tenants always run on the shared pool.
        args.fail("--executor inline cannot multiplex --sessions".into());
    }
    args.finish();
    // Graceful shutdown: SIGINT/SIGTERM stop admission at the next loop
    // check; in-flight sessions drain, then the sampler, ledger, and any
    // `--profile` dump flush exactly as on a timed exit.
    install_signal_handlers();
    let provenance = provenance(
        spec.resolved_threads(),
        htims::signal::simd::active_name(),
        if spec.sparse { "sparse" } else { "dense" },
    );
    // Parsed once up front so a bad `--slo` dies before the listener is
    // up; per-session engines accumulate sliding windows across runs.
    let slo_spec = spec.slo_spec().unwrap_or_else(|e| die(e));
    let mut slo_engines: std::collections::HashMap<String, ims_obs::SloEngine> =
        std::collections::HashMap::new();

    ims_obs::metrics::reset();
    maybe_reset_profile(&spec);
    // Register the serve-level counters *before* the listener is up: a
    // scrape that lands before the first pipeline run still sees a
    // non-empty, well-formed exposition instead of an empty body.
    let runs_total = ims_obs::metrics::counter("serve.runs_total");
    let frames_total = ims_obs::metrics::counter("serve.frames_total");
    let blocks_total = ims_obs::metrics::counter("serve.blocks_total");

    let scheduler = htims::core::pipeline::Scheduler::global().clone();
    let manager = std::sync::Arc::new(htims::core::pipeline::SessionManager::new(
        scheduler,
        max_sessions,
    ));
    let sessions_provider: ims_obs::SessionsProvider = {
        let mgr = manager.clone();
        std::sync::Arc::new(move || mgr.summary_json())
    };
    let server = ims_obs::ObsServer::start_with_sessions(
        &format!("127.0.0.1:{port}"),
        provenance.clone(),
        sessions_provider,
    )
    .unwrap_or_else(|e| die(format!("cannot bind 127.0.0.1:{port}: {e}")));
    // Stdout, not stderr: scripts capture the bound port (`--port 0`).
    println!(
        "serving http://{}/metrics (also /sessions, /report.json, /profile, /healthz)",
        server.local_addr()
    );
    let sampler = ims_obs::Sampler::start(ims_obs::SamplerConfig {
        interval: std::time::Duration::from_millis(sample_ms.max(1)),
        ring_capacity: 4096,
        jsonl_path: series.map(Into::into),
    })
    .unwrap_or_else(|e| die(format!("cannot open --series sink: {e}")));

    let started = std::time::Instant::now();
    let mut runs = 0u64;
    let mut batches = 0u64;
    let mut frames = 0u64;
    let mut blocks = 0u64;
    let mut last_report = None;
    let mut last_batch: Vec<(GraphSpec, htims::core::pipeline::PipelineReport)> = Vec::new();
    while started.elapsed() < duration && !shutdown_requested() {
        if sessions == 1 {
            // Single-tenant: the PR-4 serve loop, bit-for-bit (unlabeled
            // metric names, the spec's own executor and seed).
            let out = spec.run().unwrap_or_else(|e| die(e));
            runs += 1;
            frames += out.report.frames;
            blocks += out.report.blocks;
            runs_total.incr();
            frames_total.add(out.report.frames);
            blocks_total.add(out.report.blocks);
            observe_slo(
                &slo_spec,
                &mut slo_engines,
                "main",
                started.elapsed().as_secs(),
                &spec,
                &out.report,
            );
            last_report = Some(out.report);
            continue;
        }
        // One batch: admit every tenant onto the shared pool, then join
        // them all. Labels are reused across batches (the table keeps the
        // latest state per label; history goes to the ledger).
        batches += 1;
        last_batch.clear();
        let mut handles = std::collections::VecDeque::new();
        for i in 0..sessions {
            let tenant = GraphSpec {
                seed: htims::core::fault::session_seed(spec.seed, i as u64),
                ..spec.clone()
            };
            let pipeline = tenant.build().unwrap_or_else(|e| die(e));
            let config = htims::core::pipeline::SessionConfig {
                label: format!("s{i}"),
                seed: tenant.seed,
                fingerprint: tenant.fingerprint(),
                fault_spec: tenant.faults.clone(),
            };
            let mut admit = manager.admit(config, pipeline);
            // Admission control: a full table sheds load by joining the
            // oldest running tenant, then retries once.
            if let Err((err, pipeline)) = admit {
                eprintln!("session s{i} not admitted ({err}); draining one");
                let Some((spec_done, handle)) = handles.pop_front() else {
                    die(format!("session s{i} rejected with nothing to drain"));
                };
                finish_session(
                    spec_done,
                    handle,
                    &mut runs,
                    &mut frames,
                    &mut blocks,
                    runs_total,
                    frames_total,
                    blocks_total,
                    &mut last_batch,
                    &slo_spec,
                    &mut slo_engines,
                    &manager,
                    started.elapsed().as_secs(),
                );
                admit = manager.admit(
                    htims::core::pipeline::SessionConfig {
                        label: format!("s{i}"),
                        seed: tenant.seed,
                        fingerprint: tenant.fingerprint(),
                        fault_spec: tenant.faults.clone(),
                    },
                    pipeline,
                );
            }
            match admit {
                Ok(handle) => handles.push_back((tenant, handle)),
                Err((err, _)) => die(format!("session s{i} rejected twice ({err})")),
            }
        }
        while let Some((tenant, handle)) = handles.pop_front() {
            finish_session(
                tenant,
                handle,
                &mut runs,
                &mut frames,
                &mut blocks,
                runs_total,
                frames_total,
                blocks_total,
                &mut last_batch,
                &slo_spec,
                &mut slo_engines,
                &manager,
                started.elapsed().as_secs(),
            );
        }
        if let Some((_, report)) = last_batch.last() {
            last_report = Some(report.clone());
        }
    }
    if shutdown_requested() {
        eprintln!("signal received: admission stopped, sessions drained; flushing");
    }
    let samples = sampler.stop();
    server.stop();
    maybe_write_profile(&spec);

    let wall = started.elapsed().as_secs_f64();
    // A signal can land before the first run completes; there is nothing
    // to summarize, but the sampler/series sinks have already flushed.
    let Some(last) = last_report else {
        eprintln!(
            "served {:.2} s: stopped before the first run completed ({} samples at {sample_ms} ms)",
            wall,
            samples.len(),
        );
        return;
    };
    if sessions > 1 {
        eprintln!(
            "served {:.2} s: {batches} batches x {sessions} sessions on {} pool workers \
             ({runs} session runs, {frames} frames -> {blocks} blocks), {} samples at {sample_ms} ms",
            wall,
            manager.pool_threads(),
            samples.len(),
        );
        // One session-labeled ledger line per tenant of the final batch:
        // the durable per-tenant history (`/sessions` only keeps the
        // latest state per label).
        for (tenant, report) in &last_batch {
            let mut rec = graph_ledger_record("serve", tenant, report);
            rec.session = report.session.clone();
            append_ledger(ledger.as_deref(), &rec);
        }
    } else {
        eprintln!(
            "served {:.2} s: {runs} pipeline runs ({frames} frames -> {blocks} blocks), \
             {} samples at {sample_ms} ms, deconv {:.2} Mcells/s",
            wall,
            samples.len(),
            last.deconv_mcells_per_second,
        );
    }
    let mut rec = graph_ledger_record("serve", &spec, &last);
    rec.wall_seconds = wall;
    rec.frames = frames;
    rec.blocks = blocks;
    append_ledger(ledger.as_deref(), &rec);
}

/// Joins one admitted session and folds its run into the serve-level
/// aggregates, its per-tenant SLO engine (burn-rate gauges plus the
/// `/sessions` row), and the final-batch ledger buffer.
#[allow(clippy::too_many_arguments)]
fn finish_session(
    tenant: GraphSpec,
    handle: htims::core::pipeline::SessionHandle,
    runs: &mut u64,
    frames: &mut u64,
    blocks: &mut u64,
    runs_total: &ims_obs::Counter,
    frames_total: &ims_obs::Counter,
    blocks_total: &ims_obs::Counter,
    last_batch: &mut Vec<(GraphSpec, htims::core::pipeline::PipelineReport)>,
    slo: &Option<ims_obs::SloSpec>,
    engines: &mut std::collections::HashMap<String, ims_obs::SloEngine>,
    manager: &htims::core::pipeline::SessionManager,
    now_s: u64,
) {
    let out = handle.join();
    *runs += 1;
    *frames += out.report.frames;
    *blocks += out.report.blocks;
    runs_total.incr();
    frames_total.add(out.report.frames);
    blocks_total.add(out.report.blocks);
    let label = out.report.session.clone().unwrap_or_else(|| "main".into());
    if let Some(summary) = observe_slo(slo, engines, &label, now_s, &tenant, &out.report) {
        manager.set_slo(&label, summary);
    }
    last_batch.push((tenant, out.report));
}

/// `htims top`: a live console over a running `htims serve` exporter.
///
/// Polls `GET /metrics` on `--host`:`--port` every `--interval` (default
/// 1 s) and renders deltas between consecutive scrapes:
///
/// * per-(stage, session) CPU from the continuous profiler's
///   `pipeline_cpu_ns_*` counters, as cores consumed over the window;
/// * scheduler health from the `sched_*` families — task throughput, pop
///   provenance (local / injector / steal), park and wake rates, and the
///   mean queue dwell over the window;
/// * the serve loop's run/frame/block throughput.
///
/// `--iterations <n>` bounds the loop for scripts and CI (0, the
/// default, runs until the exporter goes away or Ctrl-C). Exits 1 when
/// the exporter is unreachable on the very first poll.
fn top(mut args: Args) {
    let host = args.string("--host").unwrap_or_else(|| "127.0.0.1".into());
    let port: u16 = args.num("--port").unwrap_or(9464);
    let interval = args
        .duration("--interval")
        .unwrap_or(std::time::Duration::from_secs(1));
    let iterations: u64 = args.num("--iterations").unwrap_or(0);
    args.finish();
    install_signal_handlers();
    let addr = format!("{host}:{port}");

    let mut prev: Option<(std::time::Instant, std::collections::HashMap<String, f64>)> = None;
    let mut polls = 0u64;
    loop {
        let text = match http_get(&addr, "/metrics") {
            Ok(t) => t,
            Err(e) => {
                if polls == 0 {
                    eprintln!("exporter at http://{addr}/metrics unreachable: {e}");
                    std::process::exit(1);
                }
                eprintln!("exporter at http://{addr}/metrics went away: {e}");
                return;
            }
        };
        let now = std::time::Instant::now();
        let series = parse_prometheus(&text);
        // Clear screen + home. Harmless noise when piped to a file.
        print!("\x1b[2J\x1b[H");
        print!(
            "{}",
            render_top(
                &addr,
                &series,
                prev.as_ref().map(|(t, s)| (now.duration_since(*t), s)),
            )
        );
        prev = Some((now, series));
        polls += 1;
        if (iterations > 0 && polls >= iterations) || shutdown_requested() {
            return;
        }
        std::thread::sleep(interval);
    }
}

/// One plain-text GET against a loopback exporter; returns the response
/// body (everything after the header/body separator).
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    Ok(raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default())
}

/// Parses a Prometheus text exposition into `full series → value`; the
/// key keeps its label set (e.g. `pipeline_cpu_ns_deconvolve{session="s0"}`)
/// so per-session series stay distinct.
fn parse_prometheus(text: &str) -> std::collections::HashMap<String, f64> {
    let mut out = std::collections::HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some((series, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(series.to_string(), v);
            }
        }
    }
    out
}

/// Renders one `htims top` frame from the delta between two scrapes.
/// `window` is `None` on the first poll (nothing to difference yet).
/// Pure text in, text out (no terminal control), so it unit-tests.
fn render_top(
    addr: &str,
    series: &std::collections::HashMap<String, f64>,
    window: Option<(std::time::Duration, &std::collections::HashMap<String, f64>)>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let Some((elapsed, prev)) = window else {
        let _ = writeln!(
            out,
            "htims top — http://{addr}/metrics — first scrape, collecting a window…"
        );
        return out;
    };
    // Two scrapes can land within the same clock tick (coarse timers,
    // suspended VMs); clamp the window to 1 ms so a zero-width window
    // inflates rates by at most 1000×, not 10^9× as the old 1 ns floor
    // allowed — that printed astronomic rates that read like corruption.
    let secs = elapsed.as_secs_f64().max(0.001);
    let delta = |key: &str| -> f64 {
        (series.get(key).copied().unwrap_or(0.0) - prev.get(key).copied().unwrap_or(0.0)).max(0.0)
    };
    let rate = |key: &str| delta(key) / secs;

    let _ = writeln!(out, "htims top — http://{addr}/metrics — window {secs:.1}s");

    // CPU rows: `pipeline_cpu_ns_<stage>{session="…"}` counters from the
    // profiler; cores consumed = Δcpu_ns / Δt / 1e9.
    let mut cpu: Vec<(String, String, f64)> = Vec::new();
    for key in series.keys() {
        let Some(rest) = key.strip_prefix("pipeline_cpu_ns_") else {
            continue;
        };
        let (stage, labels) = match rest.split_once('{') {
            Some((s, l)) => (s, l.trim_end_matches('}')),
            None => (rest, ""),
        };
        if stage.ends_with("_high_water") {
            continue;
        }
        let session = labels
            .strip_prefix("session=\"")
            .and_then(|l| l.split('"').next())
            .unwrap_or("-");
        let cores = delta(key) / secs / 1e9;
        if cores > 0.0 {
            cpu.push((stage.to_string(), session.to_string(), cores));
        }
    }
    cpu.sort_by(|a, b| b.2.total_cmp(&a.2));
    let total_cores: f64 = cpu.iter().map(|r| r.2).sum();
    let _ = writeln!(
        out,
        "\n  {:<14} {:<10} {:>7} {:>6}",
        "STAGE", "SESSION", "CORES", "CPU%"
    );
    if cpu.is_empty() {
        let _ = writeln!(
            out,
            "  (no pipeline.cpu_ns deltas this window — profiler off or pipeline idle)"
        );
    }
    for (stage, session, cores) in cpu.iter().take(16) {
        let _ = writeln!(
            out,
            "  {:<14} {:<10} {:>7.2} {:>5.1}%",
            stage,
            session,
            cores,
            if total_cores > 0.0 {
                cores / total_cores * 100.0
            } else {
                0.0
            }
        );
    }

    // Scheduler health: rates over the window, plus the mean queue dwell
    // from the histogram's `_sum`/`_count` deltas.
    let dwell_count = delta("sched_queue_dwell_ns_count");
    let dwell_mean_us = if dwell_count > 0.0 {
        delta("sched_queue_dwell_ns_sum") / dwell_count / 1e3
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "\n  sched: {:.0} tasks/s (local {:.0}, injector {:.0}, steals {:.0}), \
         parks {:.0}/s, wakes {:.0}/s, queue dwell mean {dwell_mean_us:.1} us",
        rate("sched_executed_total"),
        rate("sched_local_pops_total"),
        rate("sched_injector_pops_total"),
        rate("sched_steals_total"),
        rate("sched_parks_total"),
        rate("sched_wakes_total"),
    );
    let _ = writeln!(
        out,
        "  serve: {:.1} runs/s, {:.0} frames/s -> {:.1} blocks/s",
        rate("serve_runs_total"),
        rate("serve_frames_total"),
        rate("serve_blocks_total"),
    );
    out
}

/// `htims chaos`: soaks the hybrid stage graph under a deterministic
/// fault matrix and emits a schema-versioned survival report.
///
/// Every `(fault spec, seed)` cell runs **twice**; because injection is a
/// pure function of `(seed, spec)`, the runs must agree bit for bit —
/// divergence is reported as `reproducible: false`. `--matrix` overrides
/// the default fault matrix with `;`-separated specs (an empty entry is
/// the clean control), `--seeds` crosses the matrix with several seeds,
/// and `--strict` exits nonzero unless every cell reproduced and none
/// failed outright.
fn chaos(mut args: Args) {
    // Chaos defaults: the small graph shape with the watchdog armed (2 s —
    // far above the matrix's injected stalls, so only real wedges trip it).
    let mut base = graph_spec(
        &mut args,
        GraphSpec {
            frames: 8,
            blocks: 2,
            stall_timeout_ms: Some(2_000),
            ..GraphSpec::small()
        },
    );
    if base.faults.is_some() {
        args.fail("--faults: the matrix arms each cell (use --matrix)".into());
    }
    if base.shards == 0 {
        // Shard the accumulator so the matrix's `shard.kill` cells have
        // several independent victims (merged output is bit-identical, so
        // every other cell is unaffected). `--shards` overrides.
        base.shards = 4;
    }
    let seeds: Vec<u64> = args.list("--seeds").unwrap_or_else(|| vec![base.seed]);
    let matrix: Vec<String> = match args.string("--matrix") {
        Some(list) => list.split(';').map(|s| s.trim().to_string()).collect(),
        None => htims::chaos::default_matrix(),
    };
    let out_path = args.string("--out");
    let strict = args.switch("--strict");
    let ledger = ledger_flags(&mut args);
    args.finish();
    maybe_reset_profile(&base);
    let report = htims::chaos::run_matrix(&base, &matrix, &seeds).unwrap_or_else(|e| die(e));
    maybe_write_profile(&base);
    eprintln!(
        "chaos soak: {} cells ({} completed, {} degraded, {} failed, {} irreproducible); \
         shards: {} rebuilt from capture, {} lost",
        report.cells.len(),
        report.summary.completed,
        report.summary.degraded,
        report.summary.failed,
        report.summary.irreproducible,
        report.cells.iter().map(|c| c.shard_rebuilds).sum::<u64>(),
        report.cells.iter().map(|c| c.shards_lost).sum::<u64>(),
    );
    emit_json(&report, out_path.as_deref(), "survival report");
    let provenance = provenance(
        base.resolved_threads(),
        htims::signal::simd::active_name(),
        "",
    );
    let mut rec = ims_obs::LedgerRecord::new("chaos", &provenance, base.fingerprint());
    rec.wall_seconds = report.cells.iter().map(|c| c.wall_seconds).sum();
    rec.blocks = report.cells.iter().map(|c| c.blocks).sum();
    rec.outcome = Some(
        if report.survived() {
            "survived"
        } else {
            "failed"
        }
        .to_string(),
    );
    append_ledger(ledger.as_deref(), &rec);
    if strict && !report.survived() {
        eprintln!("chaos soak FAILED (see the survival report)");
        std::process::exit(1);
    }
}

/// `htims bench deconv`: times the scalar per-column reference against the
/// batched panel engine on the E3 block (511 drift × 1000 m/z) and emits a
/// machine-readable report (to `--out`, e.g. `BENCH_deconv.json`, or
/// stdout).
///
/// Engines:
/// * `scalar-column` — gather each strided column, run the per-column
///   solver (fresh allocations per column), scatter back: the baseline;
/// * `batched` — [`BatchDeconvolver`] panels on one thread, by panel width;
/// * `batched-parallel` — panel slabs distributed over the work-stealing
///   scheduler, by threads (`--threads 1,2,4` overrides the sweep);
/// * `sparse-scalar` / `sparse-skip` (with `--sparse`, fixed-point only)
///   — the scalar-column baseline and the pipeline's skip-zero block path
///   on a background-free block.
///
/// All engines produce bit-identical output; only the schedule of the
/// arithmetic differs. Outside the timed region every row's output is
/// compared word for word (floats by `to_bits`) with its method's
/// scalar-column output, and a mismatch exits 1 naming the method and
/// engine. `speedup_vs_scalar` is relative to the same method's
/// scalar-column row (sparse rows: the sparse block's own scalar row).
fn bench(args: Args) {
    let mut argv = args.argv.into_iter();
    let target = argv.next();
    let args = Args::new(&format!("bench {}", target.as_deref().unwrap_or("")), argv);
    match target.as_deref() {
        Some("deconv") => bench_deconv(args),
        Some("compare") => bench_compare(args),
        other => die(format!(
            "unknown bench target {:?} (use `deconv` or `compare`)",
            other.unwrap_or("<none>")
        )),
    }
}

fn bench_deconv(mut args: Args) {
    let bench_started = std::time::Instant::now();
    let quick = args.switch("--quick");
    let threads: Vec<usize> = args
        .list::<std::num::NonZeroUsize>("--threads")
        .map(|list| list.into_iter().map(|t| t.get()).collect())
        .unwrap_or_else(|| thread_sweep(quick));
    let sparse_enabled = args.switch("--sparse");
    let out_path = args.string("--out");
    let ledger = ledger_flags(&mut args);
    args.finish();
    let degree = 9u32;
    let n = (1usize << degree) - 1;
    let mz_bins = if quick { 200 } else { 1000 };
    let frames: u64 = if quick { 5 } else { 20 };
    // A full row takes at least 10 runs and 0.25 s, so a fast kernel's
    // minimum comes from ~100 runs; --quick keeps CI's smoke short.
    let budget = if quick {
        Budget { runs: 2, secs: 0.0 }
    } else {
        Budget {
            runs: 10,
            secs: 0.25,
        }
    };

    let mut inst = Instrument::with_drift_bins(n);
    inst.tof.n_bins = mz_bins;
    let workload = Workload::three_peptide_mix();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    eprintln!("acquiring bench block ({n} drift x {mz_bins} m/z, {frames} frames)…");
    let data = acquire(
        &inst,
        &workload,
        &schedule,
        frames,
        AcquireOptions::default(),
        &mut rng,
    );

    let cells = (n * mz_bins) as f64;
    let mut rows: Vec<serde_json::Value> = Vec::new();
    let mut record =
        |method: &str, engine: &str, threads: usize, width: usize, secs: f64, scalar_secs: f64| {
            eprintln!(
                "{method:<12} {engine:<16} threads {threads:>2} panel {width:>4}: \
             {:>8.2} ms/block  {:>7.2} Mcells/s  {:.2}x",
                secs * 1e3,
                cells / secs / 1e6,
                scalar_secs / secs
            );
            rows.push(serde_json::json!({
                "method": method,
                "engine": engine,
                "threads": threads,
                "panel_width": width,
                // Joins this row with ledger lines and compare verdicts.
                "fingerprint": ims_obs::config_fingerprint(&ims_obs::FingerprintParts {
                    drift_bins: n,
                    mz_bins,
                    method,
                    engine,
                    threads,
                    panel_width: width,
                }),
                "ms_per_block": secs * 1e3,
                "blocks_per_second": 1.0 / secs,
                "mcells_per_second": cells / secs / 1e6,
                "speedup_vs_scalar": scalar_secs / secs,
            }));
        };

    let widths: &[usize] = if quick { &[32] } else { &[8, 32, 128] };

    // Floating-point software methods: weighted circulant + simplex FWHT.
    for method in [
        Deconvolver::Weighted { lambda: 1e-6 },
        Deconvolver::SimplexFast,
    ] {
        let name = match &method {
            Deconvolver::Weighted { .. } => "weighted",
            _ => "simplex-fast",
        };
        let solver = method.column_solver(&schedule, &data);
        let scalar = || apply_columnwise(&data.accumulated, |col| solver(col));
        let scalar_secs = best_secs(budget, || {
            std::hint::black_box(scalar());
        });
        record(name, "scalar-column", 1, 1, scalar_secs, scalar_secs);
        let reference = float_words(&scalar());
        for &width in widths {
            let engine = BatchDeconvolver::new(&method, &schedule, &data).with_panel_width(width);
            let secs = best_secs(budget, || {
                std::hint::black_box(engine.deconvolve_map(&data.accumulated));
            });
            record(name, "batched", 1, width, secs, scalar_secs);
            let got = float_words(&engine.deconvolve_map(&data.accumulated));
            check_same_words(name, &format!("batched w{width}"), &reference, &got);
        }
        let panel_width = BatchDeconvolver::new(&method, &schedule, &data).panel_width();
        for &t in &threads {
            let secs = best_of(budget, || {
                deconvolve_with_threads(&method, &schedule, &data, t).1
            });
            record(name, "batched-parallel", t, panel_width, secs, scalar_secs);
            let got = float_words(&deconvolve_with_threads(&method, &schedule, &data, t).0);
            check_same_words(name, &format!("batched-parallel t{t}"), &reference, &got);
        }
    }

    // The integer fixed-point datapath (the FPGA-model kernel the software
    // pipeline backend runs).
    let seq = MSequence::new(degree);
    let core = DeconvCore::new(&seq, DeconvConfig::default());
    let block: Vec<u64> = data
        .accumulated
        .data()
        .iter()
        .map(|&v| v.round() as u64)
        .collect();
    let scalar_secs = best_secs(budget, || {
        std::hint::black_box(core.deconvolve_columnwise(&block, mz_bins));
    });
    record(
        "fixed-point",
        "scalar-column",
        1,
        1,
        scalar_secs,
        scalar_secs,
    );
    let reference = core.deconvolve_columnwise(&block, mz_bins);
    for &width in widths {
        let batched = || {
            let mut out = vec![0i64; n * mz_bins];
            core.deconvolve_columns(
                &block,
                &mut rows_mut(&mut out, mz_bins),
                Columns::Range(0..mz_bins),
                width,
            );
            out
        };
        let secs = best_secs(budget, || {
            std::hint::black_box(batched());
        });
        record("fixed-point", "batched", 1, width, secs, scalar_secs);
        check_same_words(
            "fixed-point",
            &format!("batched w{width}"),
            &reference,
            &batched(),
        );
    }
    // Threaded rows for the integer path too: the pipeline's block path
    // (the shared slab fan-out), bit-identical to the scalar loop above at
    // every thread count.
    let fp_width = htims::signal::FIXED_POINT_PANEL_WIDTH;
    let fixed_point = |block: &[u64], occupied: Option<&[usize]>, t: usize| -> Vec<i64> {
        deconvolve_fixed_point(&core, block, occupied, Workers::Threads(t))
    };
    for &t in &threads {
        let secs = best_secs(budget, || {
            std::hint::black_box(fixed_point(&block, None, t));
        });
        record(
            "fixed-point",
            "batched-parallel",
            t,
            fp_width,
            secs,
            scalar_secs,
        );
        check_same_words(
            "fixed-point",
            &format!("batched-parallel t{t}"),
            &reference,
            &fixed_point(&block, None, t),
        );
    }

    // Sparse rows (`--sparse`): a background-free acquisition of the same
    // shape, so only the peptide peaks occupy cells. `sparse-skip` is timed
    // against a scalar-column reference *on the sparse block*.
    let mut sparse_occupancy = serde_json::Value::Null;
    if sparse_enabled {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        eprintln!("acquiring sparse bench block (background 0)…");
        let sparse_data = acquire(
            &inst,
            &workload,
            &schedule,
            frames,
            AcquireOptions {
                background_mean: 0.0,
                ..AcquireOptions::default()
            },
            &mut rng,
        );
        let occupied = sparse_data
            .accumulated
            .data()
            .iter()
            .filter(|v| v.to_bits() != 0)
            .count();
        let occupancy = occupied as f64 / cells;
        sparse_occupancy = serde_json::json!(occupancy);
        eprintln!(
            "sparse block occupancy: {occupied}/{} cells ({:.2}%)",
            cells as usize,
            occupancy * 100.0
        );

        // The pipeline's sparse block path, which reads the occupied
        // columns from the block's run index and walks only those. The
        // bench block sits above the pipeline's occupancy threshold, so
        // it is indexed with no limit.
        let sparse_block: Vec<u64> = sparse_data
            .accumulated
            .data()
            .iter()
            .map(|&v| v.round() as u64)
            .collect();
        let scalar_secs = best_secs(budget, || {
            std::hint::black_box(core.deconvolve_columnwise(&sparse_block, mz_bins));
        });
        record(
            "fixed-point",
            "sparse-scalar",
            1,
            1,
            scalar_secs,
            scalar_secs,
        );
        let index = htims::fpga::SparseBlock::index_below(&sparse_block, n, mz_bins, f64::INFINITY)
            .expect("no limit");
        let sparse_skip = || fixed_point(&sparse_block, Some(index.occupied_columns()), 1);
        let secs = best_secs(budget, || {
            std::hint::black_box(sparse_skip());
        });
        record("fixed-point", "sparse-skip", 1, fp_width, secs, scalar_secs);
        check_same_words(
            "fixed-point",
            "sparse-skip",
            &core.deconvolve_columnwise(&sparse_block, mz_bins),
            &sparse_skip(),
        );
    }

    // Schema v3: `provenance` (with the dispatched SIMD backend and the
    // sparse/dense decision) makes BENCH_*.json files comparable across
    // PRs — which tree built the binary, which kernels actually ran.
    let suite_threads = threads.last().copied().unwrap_or(1);
    let provenance = provenance(
        suite_threads,
        htims::signal::simd::active_name(),
        if sparse_enabled {
            "sparse+dense"
        } else {
            "dense"
        },
    );
    let report = serde_json::json!({
        "schema_version": htims::obs::OBS_SCHEMA_VERSION,
        "provenance": provenance.clone(),
        "block": serde_json::json!({
            "drift_bins": n,
            "mz_bins": mz_bins,
            "frames": frames,
            "sparse_occupancy": sparse_occupancy,
        }),
        "rows": rows,
    });
    emit_json(&report, out_path.as_deref(), "bench report");

    // One ledger line for the whole suite: fingerprinted on the block
    // shape, best observed throughput as the headline number.
    let fingerprint = ims_obs::config_fingerprint(&ims_obs::FingerprintParts {
        drift_bins: n,
        mz_bins,
        method: "deconv-suite",
        engine: "bench",
        threads: suite_threads,
        panel_width: htims::core::deconv_batch::DEFAULT_PANEL_WIDTH,
    });
    let mut rec = ims_obs::LedgerRecord::new("bench", &provenance, fingerprint);
    rec.wall_seconds = bench_started.elapsed().as_secs_f64();
    rec.frames = frames;
    rec.mcells_per_second = rows
        .iter()
        .filter_map(|r| r.field("mcells_per_second").as_f64())
        .fold(0.0, f64::max);
    append_ledger(ledger.as_deref(), &rec);
}

/// Exits 1 naming `method` and `engine` unless the engine's output equals
/// the method's scalar column path, `reference`, word for word.
fn check_same_words<W: PartialEq + std::fmt::Debug>(
    method: &str,
    engine: &str,
    reference: &[W],
    got: &[W],
) {
    let words = reference.len().max(got.len());
    if let Some(i) = (0..words).find(|&i| reference.get(i) != got.get(i)) {
        eprintln!(
            "bench deconv: {method} {engine} differs from the scalar column path \
             at word {i} ({:?} vs {:?})",
            got.get(i),
            reference.get(i)
        );
        std::process::exit(1);
    }
}

/// A float map's cells as bit patterns, so a comparison is by `to_bits`.
fn float_words(map: &DriftTofMap) -> Vec<u64> {
    map.data().iter().map(|v| v.to_bits()).collect()
}

/// `htims bench compare <baseline.json> <candidate.json>`: the perf
/// regression gate. Rows are matched by (method, engine, threads,
/// panel_width); each match's `mcells_per_second` delta is printed, a
/// machine-readable verdict is emitted (stdout, or `--out <file>`), and
/// the exit code is 1 when any matched row regresses by more than
/// `--max-regress-pct` (default 10).
fn bench_compare(mut args: Args) {
    let max_regress_pct: f64 = args.num("--max-regress-pct").unwrap_or(10.0);
    let out_path = args.string("--out");
    let positional = args.positionals();
    args.finish();
    let [baseline_path, candidate_path] = positional.as_slice() else {
        die("usage: htims bench compare <baseline.json> <candidate.json> [--max-regress-pct <n>] [--out <verdict.json>]");
    };

    let baseline = load_bench_rows(baseline_path);
    let candidate = load_bench_rows(candidate_path);

    eprintln!(
        "{:<12} {:<16} {:>7} {:>5} {:>12} {:>12} {:>8}  verdict",
        "method", "engine", "threads", "panel", "base Mc/s", "cand Mc/s", "delta%"
    );
    let mut verdict_rows: Vec<serde_json::Value> = Vec::new();
    let mut regressions = 0usize;
    let mut matched = 0usize;
    for row in &baseline.rows {
        let Some(cand) = candidate.rows.iter().find(|c| c.key == row.key) else {
            eprintln!(
                "{:<12} {:<16} {:>7} {:>5} {:>12.2} {:>12} {:>8}  missing in candidate",
                row.key.0, row.key.1, row.key.2, row.key.3, row.mcells, "-", "-"
            );
            continue;
        };
        matched += 1;
        let delta_pct = if row.mcells > 0.0 {
            (cand.mcells - row.mcells) / row.mcells * 100.0
        } else {
            0.0
        };
        let regressed = delta_pct < -max_regress_pct;
        if regressed {
            regressions += 1;
        }
        eprintln!(
            "{:<12} {:<16} {:>7} {:>5} {:>12.2} {:>12.2} {:>+8.2}  {}",
            row.key.0,
            row.key.1,
            row.key.2,
            row.key.3,
            row.mcells,
            cand.mcells,
            delta_pct,
            if regressed { "REGRESSED" } else { "ok" }
        );
        verdict_rows.push(serde_json::json!({
            "method": row.key.0,
            "engine": row.key.1,
            "threads": row.key.2,
            "panel_width": row.key.3,
            "fingerprint": row.fingerprint,
            "baseline_mcells_per_second": row.mcells,
            "candidate_mcells_per_second": cand.mcells,
            "delta_pct": delta_pct,
            "regressed": regressed,
        }));
    }
    if matched == 0 {
        die(format!(
            "no comparable rows between {baseline_path} and {candidate_path}"
        ));
    }

    let ok = regressions == 0;
    // The verdict names its inputs: which files were judged and which
    // schema generation each declared, so an archived verdict is
    // self-describing without the original paths' contents.
    let verdict = serde_json::json!({
        "schema_version": htims::obs::OBS_SCHEMA_VERSION,
        "baseline": serde_json::json!({
            "path": baseline_path.as_str(),
            "schema_version": baseline.schema_version,
        }),
        "candidate": serde_json::json!({
            "path": candidate_path.as_str(),
            "schema_version": candidate.schema_version,
        }),
        "max_regress_pct": max_regress_pct,
        "matched_rows": matched,
        "regressions": regressions,
        "ok": ok,
        "rows": verdict_rows,
    });
    emit_json(&verdict, out_path.as_deref(), "verdict");
    eprintln!(
        "{matched} rows compared against {baseline_path} (schema v{}), \
         {regressions} regressed beyond {max_regress_pct}% -> {}",
        baseline.schema_version,
        if ok { "PASS" } else { "FAIL" }
    );
    if !ok {
        std::process::exit(1);
    }
}

/// One comparable bench row: the match key plus throughput.
struct BenchRow {
    key: (String, String, u64, u64),
    fingerprint: String,
    mcells: f64,
}

/// A loaded bench report: block shape (for fingerprint recomputation when
/// older reports lack one), its declared schema version, and its rows.
struct BenchReport {
    /// The report's own `schema_version` (0 when the file predates it) —
    /// echoed into compare verdicts so a verdict names exactly which
    /// baseline generation it judged against.
    schema_version: u64,
    rows: Vec<BenchRow>,
}

/// Reads a `BENCH_deconv.json`-shaped report, dying with a usable message
/// on malformed input.
fn load_bench_rows(path: &str) -> BenchReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    let value: serde_json::Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| die(format!("{path} is not valid JSON: {e}")));
    let schema_version = value.field("schema_version").as_u64().unwrap_or(0);
    let drift_bins = value
        .field("block")
        .field("drift_bins")
        .as_u64()
        .unwrap_or(0) as usize;
    let mz_bins = value.field("block").field("mz_bins").as_u64().unwrap_or(0) as usize;
    let serde_json::Value::Array(raw_rows) = value.field("rows") else {
        die(format!(
            "{path} has no `rows` array (is it a bench report?)"
        ));
    };
    let mut rows = Vec::new();
    for raw in raw_rows {
        let (Some(method), Some(engine)) =
            (raw.field("method").as_str(), raw.field("engine").as_str())
        else {
            die(format!("{path}: row without method/engine"));
        };
        let threads = raw.field("threads").as_u64().unwrap_or(0);
        let panel_width = raw.field("panel_width").as_u64().unwrap_or(0);
        let Some(mcells) = raw.field("mcells_per_second").as_f64() else {
            die(format!("{path}: row without mcells_per_second"));
        };
        // Pre-PR-4 reports carry no fingerprint; recompute from the key
        // so old baselines stay comparable.
        let fingerprint = raw
            .field("fingerprint")
            .as_str()
            .map(str::to_string)
            .unwrap_or_else(|| {
                ims_obs::config_fingerprint(&ims_obs::FingerprintParts {
                    drift_bins,
                    mz_bins,
                    method,
                    engine,
                    threads: threads as usize,
                    panel_width: panel_width as usize,
                })
            });
        rows.push(BenchRow {
            key: (method.to_string(), engine.to_string(), threads, panel_width),
            fingerprint,
            mcells,
        });
    }
    BenchReport {
        schema_version,
        rows,
    }
}

/// How long one bench row is timed: at least `runs` runs and at least
/// `secs` seconds of them. Each row reports its fastest run.
#[derive(Clone, Copy)]
struct Budget {
    runs: usize,
    secs: f64,
}

/// The fastest of the runs of `run` the budget takes, in seconds; `run`
/// returns the seconds it timed.
fn best_of(budget: Budget, mut run: impl FnMut() -> f64) -> f64 {
    let started = std::time::Instant::now();
    let mut best = f64::INFINITY;
    let mut runs = 0;
    while runs < budget.runs.max(1) || started.elapsed().as_secs_f64() < budget.secs {
        best = best.min(run());
        runs += 1;
    }
    best
}

/// The fastest wall time of `f` over the budget's runs, in seconds.
fn best_secs(budget: Budget, mut f: impl FnMut()) -> f64 {
    best_of(budget, || {
        let t = std::time::Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

/// Thread counts for the parallel rows: powers of two up to the machine
/// width but at least up to 4 (always including 1 for the serial-overhead
/// comparison).
fn thread_sweep(quick: bool) -> Vec<usize> {
    let machine = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    if quick {
        return vec![machine.min(4)];
    }
    // Sweep to at least 4 even on narrow machines: the multi-thread rows
    // (threads = 2, 4) are part of the published baseline and the pool
    // oversubscribes gracefully.
    let max = machine.max(4);
    let mut counts = vec![1usize];
    let mut t = 2;
    while t <= max {
        counts.push(t);
        t *= 2;
    }
    counts
}

fn feasibility(mut args: Args) {
    let degree: u32 = args.num("--degree").unwrap_or(9);
    let mz: usize = args.num("--mz").unwrap_or(100);
    if let Err(e) = check_shape(degree, mz, ["--degree", "--mz"]) {
        args.fail(e);
    }
    args.finish();
    let n = (1usize << degree) - 1;
    let seq = MSequence::new(degree);
    let acc = AccumulatorCore::new(n, mz, 32);
    let deconv = DeconvCore::new(&seq, DeconvConfig::default());
    for device in [
        FpgaDevice::xc2vp50(),
        FpgaDevice::xc4vlx160(),
        FpgaDevice::instrument_board(),
    ] {
        let report = ResourceReport::evaluate(
            &device,
            &acc,
            &deconv,
            &DmaLink::rapidarray(),
            50,
            0.02 * n as f64 / 511.0,
        );
        println!(
            "{:<26} BRAM {:>4}/{:<4} DSP {:>3}/{:<3} fits={:<5} rt-margin {:>8.1}x viable={}",
            report.device,
            report.bram_used,
            report.bram_available,
            report.dsp_used,
            report.dsp_available,
            report.fits,
            report.realtime_margin,
            report.viable()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{graph_spec, render_top, Args, GraphSpec};
    use std::collections::HashMap;
    use std::time::Duration;

    fn args(line: &str) -> Args {
        Args::new("test", line.split_whitespace().map(String::from))
    }

    /// `finish`'s verdict on `line` after reading what `pipeline` reads,
    /// `chaos --seeds` and `bench compare`'s positionals.
    fn verdict(line: &str) -> Result<GraphSpec, String> {
        let mut cli = args(line);
        cli.string("--out");
        let spec = graph_spec(&mut cli, GraphSpec::small());
        cli.list::<u64>("--seeds");
        cli.positionals();
        cli.check().map(|()| spec)
    }

    fn assert_rejected(cases: &[(&str, &[&str])]) {
        for (line, want) in cases {
            let err = verdict(line).expect_err(line);
            assert!(want.iter().all(|w| err.contains(w)), "{line}: {err}");
        }
    }

    #[test]
    fn a_bad_seed_is_an_error_naming_the_flag_and_value() {
        assert_rejected(&[
            ("--seed abc --coarse 10", &["--seed", "'abc'"]),
            ("--shard 4", &["unknown flag", "'--shard'"]),
            ("--seed 1 --seed 2", &["--seed", "more than once"]),
            ("--coarse", &["--coarse", "needs a value"]),
            ("--out --sparse", &["--out", "needs a value", "'--sparse'"]),
        ]);
        let spec = verdict("--seed 7 --coarse 10 --sparse").unwrap();
        assert_eq!(
            (spec.seed, spec.coarse, spec.shards, spec.sparse),
            (7, Some(10), 0, true)
        );
    }

    #[test]
    fn a_bad_coarse_is_an_error_naming_the_flag_and_value() {
        assert_rejected(&[
            ("--seed 7 --coarse 1O", &["--coarse", "'1O'"]),
            ("--stall-timeout 5q", &["--stall-timeout", "'5q'"]),
            ("--seeds 7,x", &["--seeds", "'7,x'"]),
            ("a.json --bogus b.json", &["unknown flag", "'--bogus'"]),
        ]);
        let mut cli = args("a.json --out v.json b.json");
        assert_eq!(cli.string("--out").as_deref(), Some("v.json"));
        assert_eq!(cli.positionals(), ["a.json", "b.json"]);
        assert_eq!(cli.check(), Ok(()));
    }

    fn series(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn first_scrape_renders_a_banner_not_rates() {
        let now = series(&[("serve_runs_total", 3.0)]);
        let frame = render_top("127.0.0.1:9100", &now, None);
        assert!(frame.contains("first scrape"), "{frame}");
        assert!(!frame.contains("runs/s"), "{frame}");
    }

    #[test]
    fn zero_width_window_stays_finite() {
        // Two scrapes inside one clock tick: the old 1 ns clamp printed
        // rates inflated by 10^9; the 1 ms floor keeps them readable and
        // the frame free of NaN/inf artifacts.
        let prev = series(&[("serve_frames_total", 100.0)]);
        let now = series(&[("serve_frames_total", 101.0)]);
        let frame = render_top("127.0.0.1:9100", &now, Some((Duration::ZERO, &prev)));
        assert!(!frame.contains("NaN") && !frame.contains("inf"), "{frame}");
        // 1 frame over the clamped 1 ms window = 1000 frames/s, not 1e9.
        assert!(frame.contains("1000 frames/s"), "{frame}");
    }

    #[test]
    fn cpu_rows_are_sorted_and_percentaged() {
        let prev = series(&[
            ("pipeline_cpu_ns_deconvolve{session=\"a\"}", 0.0),
            ("pipeline_cpu_ns_accumulate{session=\"a\"}", 0.0),
        ]);
        let now = series(&[
            ("pipeline_cpu_ns_deconvolve{session=\"a\"}", 3e9),
            ("pipeline_cpu_ns_accumulate{session=\"a\"}", 1e9),
        ]);
        let frame = render_top("h:1", &now, Some((Duration::from_secs(2), &prev)));
        let deconv = frame.find("deconvolve").unwrap();
        let accum = frame.find("accumulate").unwrap();
        assert!(deconv < accum, "hotter stage first:\n{frame}");
        assert!(frame.contains("75.0%"), "{frame}");
        assert!(frame.contains("25.0%"), "{frame}");
    }
}
