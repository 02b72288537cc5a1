//! Golden outputs: the output fingerprint and the FPGA-model counts of six
//! fixed graphs and of one quiet-ADC sparse graph on every backend, pinned
//! as constants.
//!
//! Every other bit-exact test compares two paths of the program with each
//! other (stage vs software reference, sharded vs monolithic, inline vs
//! threaded). A change that moves both sides the same way passes them all;
//! these constants do not move with the code. The degree-6 ones were
//! recorded before the frame stages were rewritten to read straight from the
//! packet payload, the degree-9 ones before the fixed-point output scaler
//! became a shift, the sparse ones before the fixed-point block walks were
//! merged into one; none of those refactors may change them.

use htims::chaos::output_fingerprint;
use htims::core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims::core::fault::{FaultInjector, FaultSpec};
use htims::core::hybrid::{hybrid_pipeline, FrameGenerator, HybridConfig};
use htims::core::pipeline::DeconvBackend;
use htims::graph::GraphSpec;
use htims::physics::{Instrument, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// What one run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    output_fnv: u64,
    capture_cycles: u64,
    binner_cycles: u64,
    deconv_cycles: u64,
    saturation_events: u64,
    shards_lost: u64,
    lost_mz_ranges: Vec<(usize, usize)>,
}

fn run(spec: &GraphSpec) -> Golden {
    let out = spec.run().expect("golden spec runs");
    let r = &out.report;
    Golden {
        output_fnv: output_fingerprint(&out),
        capture_cycles: r.capture_cycles,
        binner_cycles: r.binner_cycles,
        deconv_cycles: r.deconv_cycles,
        saturation_events: r.saturation_events,
        shards_lost: r.shards_lost,
        lost_mz_ranges: r.lost_mz_ranges.clone(),
    }
}

#[test]
fn frame_path_outputs_and_cycle_counts_are_pinned() {
    let cases = [
        (
            "small",
            GraphSpec::small(),
            Golden {
                output_fnv: 1789432423746869102,
                capture_cycles: 121088,
                binner_cycles: 0,
                deconv_cycles: 5220,
                saturation_events: 0,
                shards_lost: 0,
                lost_mz_ranges: vec![],
            },
        ),
        (
            // 60 fine bins into 7 coarse ones: the last group absorbs the
            // remainder.
            "binned 60->7, 3 shards",
            GraphSpec {
                coarse: Some(7),
                shards: 3,
                ..GraphSpec::small()
            },
            Golden {
                output_fnv: 11799156082386698083,
                capture_cycles: 14496,
                binner_cycles: 120960,
                deconv_cycles: 696,
                saturation_events: 0,
                shards_lost: 0,
                lost_mz_ranges: vec![],
            },
        ),
        (
            "4 shards, sparse, software",
            GraphSpec {
                shards: 4,
                sparse: true,
                backend: "software".into(),
                ..GraphSpec::small()
            },
            Golden {
                output_fnv: 1789432423746869102,
                capture_cycles: 121472,
                binner_cycles: 0,
                deconv_cycles: 5220,
                saturation_events: 0,
                shards_lost: 0,
                lost_mz_ranges: vec![],
            },
        ),
        (
            // Degraded and deterministic: no capture log, so killed shards
            // stay lost and their ranges drain zeroed.
            "4 shards, shard.kill=0.5",
            GraphSpec {
                shards: 4,
                faults: Some("shard.kill=0.5".into()),
                ..GraphSpec::small()
            },
            Golden {
                output_fnv: 2190452988658057290,
                capture_cycles: 91104,
                binner_cycles: 0,
                deconv_cycles: 5220,
                saturation_events: 0,
                shards_lost: 4,
                lost_mz_ranges: vec![(45, 60), (0, 15), (15, 30), (45, 60)],
            },
        ),
    ];
    for (name, spec, want) in cases {
        assert_eq!(run(&spec), want, "{name}");
    }
}

/// The drift length every production workload runs (511 bins, so the
/// fixed-point scaler divides by `N + 1 = 2^9`) on both integer
/// deconvolution backends: the software slab fan-out and the FPGA model.
#[test]
fn degree_nine_outputs_and_cycle_counts_are_pinned() {
    let cases = [
        (
            "quick e3: software, 511 x 1000",
            GraphSpec {
                frames: 2,
                blocks: 2,
                ..GraphSpec::e3()
            },
            Golden {
                output_fnv: 4532560311919787649,
                capture_cycles: 2044016,
                binner_cycles: 0,
                deconv_cycles: 799000,
                saturation_events: 0,
                shards_lost: 0,
                lost_mz_ranges: vec![],
            },
        ),
        (
            "xd1: 2000 -> 100 binned on fpga",
            GraphSpec {
                degree: 9,
                mz: 2000,
                coarse: Some(100),
                frames: 2,
                blocks: 2,
                ..GraphSpec::small()
            },
            Golden {
                output_fnv: 8505286067027107253,
                capture_cycles: 204416,
                binner_cycles: 4088000,
                deconv_cycles: 79900,
                saturation_events: 0,
                shards_lost: 0,
                lost_mz_ranges: vec![],
            },
        ),
    ];
    for (name, spec, want) in cases {
        assert_eq!(run(&spec), want, "{name}");
    }
}

/// What one sparse run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct SparseGolden {
    output_fnv: u64,
    deconv_cycles: u64,
    sparse_blocks: u64,
    deconv_fallbacks: u64,
}

/// `GraphSpec::small`'s graph (degree 6, 60 m/z, seed 7) with the ADC's
/// electronic noise off, so blocks fall below the sparse threshold:
/// 2 blocks of 4 frames, 4 shards, sparse on, on the inline executor.
/// `GraphSpec` has no ADC field, so this builds the graph the way
/// `GraphSpec::build` does, with `noise_sigma = 0`.
fn run_quiet_sparse(backend: &str, faults: Option<&str>) -> SparseGolden {
    let (degree, mz, frames, blocks, seed) = (6u32, 60usize, 4u64, 2u64, 7u64);
    let mut inst = Instrument::with_drift_bins((1 << degree) - 1);
    inst.tof.n_bins = mz;
    inst.adc.noise_sigma = 0.0;
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = acquire(
        &inst,
        &Workload::three_peptide_mix(),
        &schedule,
        1,
        AcquireOptions::default(),
        &mut rng,
    );
    let GateSchedule::Multiplexed { seq } = schedule else {
        unreachable!("multiplexed() builds a multiplexed schedule")
    };
    let gen = FrameGenerator::new(&data, &inst.adc, seed + 1227);
    let cfg = HybridConfig {
        frames,
        sparse: true,
        shards: 4,
        ..Default::default()
    };
    let backend = DeconvBackend::from_name(backend, &seq, cfg.deconv, 0).expect("known backend");
    let mut graph = hybrid_pipeline(&gen, &seq, &cfg, frames * blocks, frames, false, backend);
    if let Some(text) = faults {
        let spec = FaultSpec::parse(text).expect("valid fault spec");
        graph = graph.with_faults(FaultInjector::new(seed, spec));
    }
    let out = graph.run_inline();
    SparseGolden {
        output_fnv: output_fingerprint(&out),
        deconv_cycles: out.report.deconv_cycles,
        sparse_blocks: out.report.sparse_blocks,
        deconv_fallbacks: out.report.deconv_fallbacks,
    }
}

/// Sparse blocks on every deconvolution backend, and on the fault
/// fallback, which prices its blocks at the full m/z width. One output for
/// all four: every backend computes the same integer result.
#[test]
fn sparse_outputs_and_cycle_counts_are_pinned() {
    let output_fnv = 14645345188287084910;
    let cases = [
        ("fpga", None, 1392, 0),
        ("software", None, 1392, 0),
        ("naive", None, 37320, 0),
        ("fpga", Some("deconv.fail=1"), 5220, 2),
    ];
    for (backend, faults, deconv_cycles, deconv_fallbacks) in cases {
        let want = SparseGolden {
            output_fnv,
            deconv_cycles,
            sparse_blocks: 2,
            deconv_fallbacks,
        };
        assert_eq!(
            run_quiet_sparse(backend, faults),
            want,
            "{backend} {faults:?}"
        );
    }
}
