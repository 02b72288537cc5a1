//! The fixed-point column walk against its one-column oracle: whatever
//! columns are walked, at whatever panel width, `deconvolve_columns`
//! writes each walked column's `deconvolve_column` bits to its destination
//! column and leaves every other destination cell alone.
//!
//! The kernel's butterflies dispatch through the process-wide SIMD
//! backend, so this file checks the backend the process runs on: run it
//! with `HTIMS_SIMD=sse2` or `HTIMS_SIMD=avx2` to check those.

use ims_fpga::deconv::{Convention, DeconvConfig, DeconvCore};
use ims_prs::MSequence;
use ims_signal::panel::{rows_mut, Columns};
use ims_signal::simd::{self, Backend};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A destination cell no walk wrote: no output of a block of counts below
/// 2^20 reaches it (an output word is at most 2^59 in magnitude).
const SENTINEL: i64 = i64::MIN;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A `Range` walk writes into the range's own segment of each row (the
    /// slab fan-out's case); a `List` walk writes each column in place, and
    /// its columns form adjacent runs, gaps and runs that straddle a panel
    /// boundary. `output_frac_bits` 4..=30 takes the scaler through both its
    /// exact and its rounding shift.
    #[test]
    fn walked_columns_match_the_column_oracle_and_no_other_cell_moves(
        degree in 3u32..=10,
        convolution in any::<bool>(),
        output_frac_bits in 4u32..=30,
        mz in 1usize..=300,
        width_draw in any::<usize>(),
        list in any::<bool>(),
        ends in (any::<usize>(), any::<usize>()),
        keep_percent in 0u32..=100,
        seed in any::<u64>(),
    ) {
        let seq = MSequence::new(degree);
        let n = seq.len();
        let convention = if convolution {
            Convention::Convolution
        } else {
            Convention::Correlation
        };
        let core = DeconvCore::new(
            &seq,
            DeconvConfig {
                convention,
                output_frac_bits,
                ..Default::default()
            },
        );
        let width = 1 + width_draw % (mz + 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let data: Vec<u64> = (0..n * mz).map(|_| rng.gen_range(0..1u64 << 20)).collect();
        let mut out = vec![SENTINEL; n * mz];
        let walked: Vec<usize> = if list {
            let cols: Vec<usize> = (0..mz)
                .filter(|_| rng.gen_range(0..100) < keep_percent)
                .collect();
            core.deconvolve_columns(&data, &mut rows_mut(&mut out, mz), Columns::List(&cols), width);
            cols
        } else {
            let (x, y) = (ends.0 % (mz + 1), ends.1 % (mz + 1));
            let (a, b) = (x.min(y), x.max(y));
            let mut segments: Vec<&mut [i64]> =
                out.chunks_exact_mut(mz).map(|row| &mut row[a..b]).collect();
            core.deconvolve_columns(&data, &mut segments, Columns::Range(a..b), width);
            (a..b).collect()
        };
        for c in 0..mz {
            let got: Vec<i64> = (0..n).map(|d| out[d * mz + c]).collect();
            if walked.binary_search(&c).is_ok() {
                let column: Vec<u64> = (0..n).map(|d| data[d * mz + c]).collect();
                prop_assert_eq!(
                    &got,
                    &core.deconvolve_column(&column),
                    "column {} of {} walked at width {}",
                    c,
                    mz,
                    width
                );
            } else {
                prop_assert!(got.iter().all(|&v| v == SENTINEL), "column {c} was not walked");
            }
        }
    }
}

/// A process started with `HTIMS_SIMD` forced runs the kernels on that
/// backend whenever the CPU has it, so a test pass under a forced backend
/// checks that backend's butterflies.
#[test]
fn a_forced_backend_is_the_one_that_runs() {
    let Ok(name) = std::env::var("HTIMS_SIMD") else {
        return;
    };
    let forced = Backend::parse(&name).expect("HTIMS_SIMD names a backend");
    if forced.is_available() {
        assert_eq!(simd::active(), forced);
    } else {
        eprintln!(
            "HTIMS_SIMD={name}: not on this CPU, the kernels run on {}",
            simd::active_name()
        );
    }
}
