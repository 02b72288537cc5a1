//! Property-based tests of the FPGA model: fixed-point semantics, capture
//! correctness, and the integer↔float deconvolution contract.

use ims_fpga::bram::MemoryRequirement;
use ims_fpga::deconv::{Convention, DeconvConfig, DeconvCore};
use ims_fpga::fixed::Fx;
use ims_fpga::AccumulatorCore;
use ims_prs::{FastMTransform, MSequence};
use proptest::prelude::*;

type Q16 = Fx<16>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fixed_point_round_trip(v in -1e10..1e10f64) {
        let f = Q16::from_f64(v);
        prop_assert!((f.to_f64() - v).abs() <= Q16::ulp() / 2.0 + 1e-9 * v.abs());
    }

    #[test]
    fn fixed_add_matches_f64(a in -1e6..1e6f64, b in -1e6..1e6f64) {
        let fa = Q16::from_f64(a);
        let fb = Q16::from_f64(b);
        let sum = (fa + fb).to_f64();
        prop_assert!((sum - (a + b)).abs() <= 2.0 * Q16::ulp());
    }

    #[test]
    fn fixed_mul_matches_f64(a in -1e4..1e4f64, b in -1e4..1e4f64) {
        let fa = Q16::from_f64(a);
        let fb = Q16::from_f64(b);
        let prod = (fa * fb).to_f64();
        // Error: input quantisation (½ulp each, scaled) + output rounding.
        let tol = Q16::ulp() * (1.0 + a.abs() + b.abs());
        prop_assert!((prod - a * b).abs() <= tol, "{prod} vs {}", a * b);
    }

    #[test]
    fn fixed_ops_never_panic(a in any::<i64>(), b in any::<i64>()) {
        let fa = Fx::<8>::from_raw(a);
        let fb = Fx::<8>::from_raw(b);
        let _ = fa + fb;
        let _ = fa - fb;
        let _ = fa * fb;
        let _ = -fa;
    }

    #[test]
    fn accumulator_sums_elementwise(
        frames in prop::collection::vec(
            prop::collection::vec(0u32..1000, 6),
            1..8,
        ),
    ) {
        let mut acc = AccumulatorCore::new(2, 3, 32);
        for frame in &frames {
            acc.capture_frame(frame).unwrap();
        }
        for i in 0..6 {
            let expect: u64 = frames.iter().map(|f| f[i] as u64).sum();
            prop_assert_eq!(acc.contents()[i], expect);
        }
        prop_assert_eq!(acc.frames_captured(), frames.len() as u64);
    }

    #[test]
    fn integer_deconvolution_tracks_float(degree in 4u32..9, seed in 0u64..500) {
        let seq = MSequence::new(degree);
        let n = seq.len();
        let y: Vec<u64> = (0..n)
            .map(|k| (k as u64).wrapping_mul(seed + 3) % 5000)
            .collect();
        let core = DeconvCore::new(
            &seq,
            DeconvConfig { convention: Convention::Correlation, ..Default::default() },
        );
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        let float = FastMTransform::new(&seq).deconvolve(&yf);
        let fixed = core.to_f64(&core.deconvolve_column(&y));
        let ulp = (2.0f64).powi(-16);
        for (a, b) in float.iter().zip(fixed.iter()) {
            prop_assert!((a - b).abs() <= ulp, "{a} vs {b}");
        }
    }

    #[test]
    fn bram_tiles_cover_capacity(depth in 1u64..100_000, width in 1u64..128) {
        let m = MemoryRequirement { depth, width_bits: width, label: "t" };
        let tiles = m.tiles();
        // Enough tiles for the raw bits…
        prop_assert!(tiles * 18 * 1024 >= m.bits() || width > 36,
            "tiles {tiles} cannot hold {} bits", m.bits());
        // …and never absurdly many (within granularity of the worst aspect).
        prop_assert!(tiles <= m.bits().div_ceil(18 * 1024) + width.div_ceil(1) * depth.div_ceil(512));
    }

    #[test]
    fn cycles_decrease_with_parallelism(degree in 4u32..10, mz in 1usize..500) {
        let seq = MSequence::new(degree);
        let mk = |cols: usize| DeconvCore::new(&seq, DeconvConfig {
            parallel_columns: cols,
            ..Default::default()
        });
        let c1 = mk(1).cycles_per_block(mz);
        let c4 = mk(4).cycles_per_block(mz);
        prop_assert!(c4 <= c1);
    }
}
