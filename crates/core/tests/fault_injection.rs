//! Integration tests of deterministic fault injection and the supervised
//! threaded executor: zero-rate specs are bit-identical to no-fault runs,
//! chaotic runs are a pure function of `(seed, spec)`, failures surface as
//! structured errors instead of process aborts, and the executor drains
//! cleanly under early EOF, poisoned stages, and watchdog-cancelled stalls.

use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::fault::{FaultInjector, FaultSpec};
use htims_core::hybrid::{hybrid_pipeline, FrameGenerator, HybridConfig};
use htims_core::pipeline::{
    DeconvBackend, Pipeline, PipelineError, PipelineOutput, RunOutcome, SupervisorConfig,
};
use ims_prs::MSequence;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

fn generator(degree: u32, mz_bins: usize) -> (FrameGenerator, MSequence) {
    let bins = (1usize << degree) - 1;
    let mut inst = ims_physics::Instrument::with_drift_bins(bins);
    inst.tof.n_bins = mz_bins;
    let w = ims_physics::Workload::single_calibrant();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let data = acquire(&inst, &w, &schedule, 1, AcquireOptions::default(), &mut rng);
    let seq = match schedule {
        GateSchedule::Multiplexed { seq } => seq,
        _ => unreachable!(),
    };
    (FrameGenerator::new(&data, &inst.adc, 42), seq)
}

/// A small standard graph: `blocks` blocks of `frames` frames each, FPGA
/// backend, streaming semantics (partial tail blocks discarded).
fn graph(gen: &FrameGenerator, seq: &MSequence, frames: u64, blocks: u64) -> Pipeline {
    let cfg = HybridConfig {
        frames,
        channel_depth: 2,
        ..Default::default()
    };
    let backend = DeconvBackend::fpga(seq, cfg.deconv);
    hybrid_pipeline(gen, seq, &cfg, frames * blocks, frames, false, backend)
}

fn block_data(out: &PipelineOutput) -> Vec<(u64, u64, Vec<i64>)> {
    out.blocks
        .iter()
        .map(|b| (b.index, b.frames, b.data.clone()))
        .collect()
}

#[test]
fn same_seed_and_spec_reproduce_faults_and_output_bit_for_bit() {
    let (gen, seq) = generator(5, 18);
    let spec = FaultSpec::parse("frame.drop=0.2,dma.bitflip=1e-4,deconv.fail=0.5").unwrap();
    let run = |exec_threaded: bool| {
        let p = graph(&gen, &seq, 4, 3).with_faults(FaultInjector::new(99, spec.clone()));
        if exec_threaded {
            p.run_threaded()
        } else {
            p.run_inline()
        }
    };
    let a = run(true);
    let b = run(true);
    assert_eq!(block_data(&a), block_data(&b));
    assert_eq!(a.report.faults, b.report.faults);
    assert_eq!(a.report.frames_quarantined, b.report.frames_quarantined);
    assert_eq!(a.report.deconv_fallbacks, b.report.deconv_fallbacks);
    assert_eq!(a.report.outcome, RunOutcome::Degraded);
    assert!(a.report.faults.total() > 0, "{:?}", a.report.faults);
    // Injection decisions are pure functions of (seed, site, index), so
    // the inline executor draws the *same* faults.
    let c = run(false);
    assert_eq!(a.report.faults, c.report.faults);
    assert_eq!(block_data(&a), block_data(&c));
}

#[test]
fn certain_deconv_failure_degrades_to_bit_identical_software_fallback() {
    let (gen, seq) = generator(5, 18);
    let clean = graph(&gen, &seq, 3, 2).run_threaded();
    assert_eq!(clean.report.outcome, RunOutcome::Completed);

    let spec = FaultSpec::parse("deconv.fail=1").unwrap();
    let out = graph(&gen, &seq, 3, 2)
        .with_faults(FaultInjector::new(7, spec))
        .run_threaded();
    assert_eq!(out.report.outcome, RunOutcome::Degraded);
    assert!(out.report.errors.is_empty(), "{:?}", out.report.errors);
    assert_eq!(out.report.deconv_fallbacks, 2, "every block fell back");
    assert!(out.report.faults.deconv_failures > 0);
    // The software panel engine is bit-exact with the FPGA model, so the
    // degraded run's blocks match the clean run's exactly.
    assert_eq!(block_data(&out), block_data(&clean));
}

#[test]
fn deconv_failure_without_fallback_is_a_structured_error_not_an_abort() {
    let (gen, seq) = generator(5, 18);
    let spec = FaultSpec::parse("deconv.fail=1").unwrap();
    let out = graph(&gen, &seq, 3, 2)
        .with_faults(FaultInjector::new(7, spec))
        .with_supervisor(SupervisorConfig {
            deconv_fallback: false,
            ..Default::default()
        })
        .run_threaded();
    assert_eq!(out.report.outcome, RunOutcome::Failed);
    assert!(
        out.report.errors.iter().any(|e| matches!(
            e,
            PipelineError::StagePanicked { stage, .. } if stage == "deconvolve"
        )),
        "{:?}",
        out.report.errors
    );
    assert!(out.blocks.is_empty(), "poisoned stage emits nothing");
    // The rest of the report is still populated (partial but structured):
    // source + link + accumulate + deconvolve.
    assert_eq!(out.report.stages.len(), 4);
}

#[test]
fn permanent_stall_trips_the_watchdog_with_source_blame() {
    let (gen, seq) = generator(5, 18);
    // Every frame stalls for 10 minutes; the watchdog must cancel it.
    let spec = FaultSpec::parse("source.stall=600s@1").unwrap();
    let started = std::time::Instant::now();
    let out = graph(&gen, &seq, 3, 2)
        .with_faults(FaultInjector::new(7, spec))
        .with_supervisor(SupervisorConfig {
            stall_timeout: Some(Duration::from_millis(250)),
            ..Default::default()
        })
        .run_threaded();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "watchdog did not break the stall"
    );
    assert_eq!(out.report.outcome, RunOutcome::Failed);
    assert!(
        out.report.errors.iter().any(|e| matches!(
            e,
            PipelineError::StageStalled { stage, timeout_ms: 250 } if stage == "source"
        )),
        "{:?}",
        out.report.errors
    );
}

#[test]
fn survivable_stalls_only_degrade_the_run() {
    let (gen, seq) = generator(5, 18);
    // 2 ms stalls under a 2 s watchdog: annoying, not fatal.
    let spec = FaultSpec::parse("source.stall=2ms@0.5").unwrap();
    let clean = graph(&gen, &seq, 3, 2).run_threaded();
    let out = graph(&gen, &seq, 3, 2)
        .with_faults(FaultInjector::new(7, spec))
        .with_supervisor(SupervisorConfig {
            stall_timeout: Some(Duration::from_secs(2)),
            ..Default::default()
        })
        .run_threaded();
    assert_eq!(out.report.outcome, RunOutcome::Degraded);
    assert!(out.report.errors.is_empty(), "{:?}", out.report.errors);
    assert!(out.report.faults.stalls > 0);
    assert_eq!(block_data(&out), block_data(&clean), "stalls lose no data");
}

#[test]
fn bitflip_storm_quarantines_frames_and_still_completes() {
    let (gen, seq) = generator(5, 18);
    // ~1 flipped bit per ~2 frames on average at this payload size.
    let spec = FaultSpec::parse("dma.bitflip=3e-5").unwrap();
    let out = graph(&gen, &seq, 4, 3)
        .with_faults(FaultInjector::new(3, spec))
        .run_threaded();
    assert_eq!(out.report.outcome, RunOutcome::Degraded);
    assert!(out.report.faults.bitflips > 0);
    assert_eq!(
        out.report.frames_quarantined,
        out.report.faults.bitflips.min(12),
        "every corrupted frame is quarantined exactly once"
    );
    assert!(out.report.errors.is_empty());
}

#[test]
fn flight_dump_after_forced_degraded_carries_the_quarantined_frames_chain() {
    let dir = std::env::temp_dir().join(format!("htims_flight_{}", std::process::id()));
    let (gen, seq) = generator(5, 18);
    let spec = FaultSpec::parse("dma.bitflip=3e-5").unwrap();
    let out = graph(&gen, &seq, 4, 3)
        .with_faults(FaultInjector::new(3, spec))
        .with_flight_dump(dir.clone(), "testcfg")
        .run_threaded();
    assert_eq!(out.report.outcome, RunOutcome::Degraded);
    assert!(out.report.frames_quarantined > 0);
    let dump = out.report.flight_dump.as_deref().expect("dump written");
    let text = std::fs::read_to_string(dump).unwrap();
    let (header, events) = ims_obs::flight::parse_dump(&text).unwrap();
    assert_eq!(header.schema_version, ims_obs::FLIGHT_SCHEMA_VERSION);
    assert_eq!(header.outcome, "degraded");
    assert_eq!(header.reason, "quarantine");
    // No fatal error to blame, so blame falls back to the stage that
    // quarantined the most frames.
    assert_eq!(header.blamed_stage.as_deref(), Some("accumulate"));
    assert!(header.fault_site_count("dma.bitflip") > 0);
    assert!(!header.quarantined_frames.is_empty());
    assert!(!events.is_empty());
    // The quarantined frame's causal chain walks the whole graph in
    // order: source egress, link ingress, the bitflip fault site, link
    // egress, accumulate ingress, and finally the quarantine verdict.
    let q = header.quarantined_frames[0];
    let chain = header
        .chains
        .iter()
        .find(|c| c.item == q)
        .expect("chain for the quarantined frame");
    let steps: Vec<(&str, &str)> = chain
        .events
        .iter()
        .map(|e| (e.stage.as_str(), e.kind.as_str()))
        .collect();
    let expect = [
        ("source", "frame_egress"),
        ("link", "frame_ingress"),
        ("dma.bitflip", "fault"),
        ("link", "frame_egress"),
        ("accumulate", "frame_ingress"),
        ("accumulate", "quarantine"),
    ];
    assert_eq!(steps, expect, "full stage chain for frame {q}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The black box does not depend on the executor: one graph, seed and
/// spec dump the same events inline and threaded — including the egress
/// of the partial block the accumulator drains at flush.
#[test]
fn inline_and_threaded_runs_dump_the_same_black_box() {
    let (gen, seq) = generator(5, 18);
    let dump = |threaded: bool| {
        let dir = std::env::temp_dir().join(format!(
            "htims_flight_exec_{}_{threaded}",
            std::process::id()
        ));
        let cfg = HybridConfig {
            frames: 4,
            channel_depth: 2,
            ..Default::default()
        };
        let backend = DeconvBackend::fpga(&seq, cfg.deconv);
        let spec = FaultSpec::parse("frame.drop=0.2").unwrap();
        let p = hybrid_pipeline(&gen, &seq, &cfg, 12, 4, true, backend)
            .with_faults(FaultInjector::new(5, spec))
            .with_flight_dump(dir.clone(), "execcfg");
        let out = if threaded {
            p.run_threaded()
        } else {
            p.run_inline()
        };
        assert_eq!(out.report.outcome, RunOutcome::Degraded);
        let path = out.report.flight_dump.expect("a degraded run dumps");
        let text = std::fs::read_to_string(path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        ims_obs::flight::strip_timestamps(&text)
    };
    let (inline, threaded) = (dump(false), dump(true));
    let events = |text: &str| text.lines().skip(1).map(str::to_string).collect::<Vec<_>>();
    assert_eq!(events(&inline), events(&threaded));
    assert!(
        events(&inline).contains(
            &r#"{"stage":"accumulate","kind":"block_egress","item":2,"ts_ns":0}"#.to_string()
        ),
        "the block drained at flush leaves the accumulator"
    );
    assert_eq!(inline, threaded, "header and events");
}

#[test]
fn early_source_eof_drains_the_threaded_executor_without_deadlock() {
    let (gen, seq) = generator(5, 18);
    // Fewer frames than one block, streaming semantics: the accumulator
    // never fills a block and the tail is discarded — every stage must
    // still see EOF and the run must return (regression: a drain bug here
    // hangs the join).
    let cfg = HybridConfig {
        frames: 8,
        channel_depth: 2,
        ..Default::default()
    };
    let backend = DeconvBackend::fpga(&seq, cfg.deconv);
    let out = hybrid_pipeline(&gen, &seq, &cfg, 3, 8, false, backend).run_threaded();
    assert_eq!(out.blocks.len(), 0);
    assert_eq!(out.report.outcome, RunOutcome::Completed);
    assert_eq!(out.report.stages[0].items_out, 3, "source emitted 3 frames");

    // Zero frames: the source closes immediately.
    let backend = DeconvBackend::fpga(&seq, cfg.deconv);
    let out = hybrid_pipeline(&gen, &seq, &cfg, 0, 8, false, backend).run_threaded();
    assert_eq!(out.blocks.len(), 0);
    assert_eq!(out.report.outcome, RunOutcome::Completed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance gate: an armed injector whose spec is all-zero must
    /// not perturb a single bit of output, on either executor, and the
    /// run must still report `Completed` with zero fault counts.
    #[test]
    fn zero_rate_spec_is_bit_identical_to_the_unarmed_pipeline(
        threaded in any::<bool>(),
        frames in 1u64..5,
        blocks in 1u64..3,
        seed in any::<u64>(),
    ) {
        let (gen, seq) = generator(5, 18);
        let spec = FaultSpec::parse(
            "dma.bitflip=0,frame.drop=0,deconv.fail=0,source.stall=0ms@0"
        ).unwrap();
        prop_assert!(spec.is_zero());
        let run = |armed: bool| {
            let mut p = graph(&gen, &seq, frames, blocks);
            if armed {
                p = p.with_faults(FaultInjector::new(seed, spec.clone()));
            }
            if threaded { p.run_threaded() } else { p.run_inline() }
        };
        let clean = run(false);
        let armed = run(true);
        prop_assert_eq!(block_data(&clean), block_data(&armed));
        prop_assert_eq!(armed.report.outcome, RunOutcome::Completed);
        prop_assert_eq!(armed.report.faults.total(), 0);
        prop_assert_eq!(armed.report.frames_quarantined, 0);
        prop_assert_eq!(armed.report.deconv_fallbacks, 0);
        prop_assert!(armed.report.errors.is_empty());
    }
}

/// A rate drawn from `pick`: 0 and 1 exactly, or `x` in `[0, 1)`.
fn rate(pick: u8, x: f64) -> f64 {
    match pick % 4 {
        0 => 0.0,
        1 => 1.0,
        _ => x,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The canonical form is a fixed point: rendering any spec and parsing
    /// it back gives the same spec, stall durations to the nanosecond.
    #[test]
    fn rendered_specs_parse_back_to_themselves(
        picks in prop::collection::vec(any::<u8>(), 6),
        xs in prop::collection::vec(0.0..1.0f64, 5),
        stall in any::<bool>(),
        stall_ns in 0u64..(1 << 52),
        whole_ms in any::<bool>(),
    ) {
        let duration = if whole_ms {
            Duration::from_millis(stall_ns % 100_000)
        } else {
            Duration::from_nanos(stall_ns)
        };
        let spec = FaultSpec {
            dma_bitflip: rate(picks[0], xs[0]),
            frame_drop: rate(picks[1], xs[1]),
            deconv_fail: rate(picks[2], xs[2]),
            shard_kill: rate(picks[3], xs[3]),
            source_stall: stall.then(|| htims_core::fault::StallSpec {
                duration,
                rate: rate(picks[4], xs[4]),
            }),
        };
        let text = spec.to_string();
        prop_assert_eq!(FaultSpec::parse(&text), Ok(spec.clone()), "rendered as `{}`", text);
    }
}

#[test]
fn sub_millisecond_stalls_render_exactly() {
    for (text, rendered) in [
        ("source.stall=2.5ms@0.5", "source.stall=0.0025s@0.5"),
        ("source.stall=0.5ms", "source.stall=0.0005s@1"),
        ("source.stall=50ms@0.01", "source.stall=0.05s@0.01"),
        ("source.stall=2s@0", "source.stall=2s@0"),
    ] {
        let spec = FaultSpec::parse(text).unwrap();
        assert_eq!(spec.to_string(), rendered, "{text}");
        assert_eq!(FaultSpec::parse(rendered).unwrap(), spec, "{text}");
    }
}
