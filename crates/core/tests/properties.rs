//! Property-based tests of the acquisition/deconvolution core.

use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::deconvolution::{apply_columnwise, Deconvolver};
use htims_core::metrics::fidelity;
use ims_physics::{DriftTofMap, Instrument, Workload};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_block(
    degree: u32,
    seed: u64,
    use_trap: bool,
) -> (GateSchedule, htims_core::acquisition::AcquiredData) {
    let n = (1usize << degree) - 1;
    let mut inst = Instrument::with_drift_bins(n);
    inst.tof.n_bins = 40;
    let workload = Workload::single_calibrant();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = acquire(
        &inst,
        &workload,
        &schedule,
        10,
        AcquireOptions {
            use_trap,
            background_mean: 0.01,
        },
        &mut rng,
    );
    (schedule, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn weighted_zero_lambda_equals_exact(degree in 4u32..7, seed in 0u64..200) {
        let (schedule, data) = small_block(degree, seed, false);
        let a = Deconvolver::Exact.deconvolve(&schedule, &data);
        let b = Deconvolver::Weighted { lambda: 0.0 }.deconvolve(&schedule, &data);
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            prop_assert!((x - y).abs() < 1e-6 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn acquisition_deterministic(degree in 4u32..7, seed in 0u64..200, trap in any::<bool>()) {
        let (_, a) = small_block(degree, seed, trap);
        let (_, b) = small_block(degree, seed, trap);
        prop_assert_eq!(a.accumulated.data(), b.accumulated.data());
    }

    #[test]
    fn utilization_and_kernel_bounds(degree in 4u32..7, seed in 0u64..100, trap in any::<bool>()) {
        let (_, data) = small_block(degree, seed, trap);
        prop_assert!((0.0..=1.0).contains(&data.ion_utilization),
            "utilization {}", data.ion_utilization);
        prop_assert!(data.effective_kernel.iter().all(|&h| h >= 0.0));
        prop_assert!(data.packet_charges >= 0.0);
    }

    #[test]
    fn identity_columnwise_is_noop(dn in 2usize..12, mn in 2usize..12, seed in 0u64..50) {
        let mut map = DriftTofMap::zeros(dn, mn);
        for (i, v) in map.data_mut().iter_mut().enumerate() {
            *v = ((i as u64 + seed) % 13) as f64;
        }
        let out = apply_columnwise(&map, |col| col.to_vec());
        prop_assert_eq!(out.data(), map.data());
    }

    #[test]
    fn fidelity_of_self_is_perfect(seed in 0u64..200, n in 8usize..64) {
        let profile: Vec<f64> = (0..n)
            .map(|i| (((i as u64 + seed) % 11) as f64) + 0.1)
            .collect();
        let f = fidelity(&profile, &profile, 0.05);
        prop_assert!(f.pearson > 1.0 - 1e-9);
        prop_assert!(f.nrmse < 1e-9);
        prop_assert!(f.artifact_level < 1e-9);
    }

    #[test]
    fn storage_formats_round_trip_arbitrary_maps(
        dn in 1usize..12,
        mn in 1usize..20,
        seed in 0u64..1000,
        fill_mod in 1usize..10,
    ) {
        use htims_core::format::{quantise_f32, StoredBlock};
        let mut map = DriftTofMap::zeros(dn, mn);
        for (i, v) in map.data_mut().iter_mut().enumerate() {
            // Mix of zeros and positive values.
            if (i as u64).wrapping_mul(seed + 1).is_multiple_of(fill_mod as u64) {
                *v = ((i as u64 ^ seed) % 100_000) as f64 / 7.0;
            }
        }
        let block = StoredBlock {
            frames: seed,
            bin_width_s: 1e-4,
            mz_min: 200.0,
            mz_max: 2200.0,
            map,
        };
        let expect = quantise_f32(&block.map);
        let dense = StoredBlock::from_binary(block.to_binary_dense()).unwrap();
        prop_assert_eq!(dense.map.data(), expect.data());
        let sparse = StoredBlock::from_binary(block.to_binary_sparse()).unwrap();
        prop_assert_eq!(sparse.map.data(), expect.data());
        let json = StoredBlock::from_json(&block.to_json()).unwrap();
        prop_assert_eq!(json, block);
    }

    #[test]
    fn kernel_similarity_is_scale_invariant(seed in 1u64..500, n in 3usize..40, scale in 0.1..50.0f64) {
        use htims_core::kernel::kernel_similarity;
        let a: Vec<f64> = (0..n).map(|i| (((i as u64 + seed) % 13) + 1) as f64).collect();
        let b: Vec<f64> = a.iter().map(|v| v * scale).collect();
        prop_assert!((kernel_similarity(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deconvolution_recovers_planted_peak_location(degree in 5u32..8, seed in 0u64..100) {
        let (schedule, data) = small_block(degree, seed, false);
        let map = Deconvolver::SimplexFast.deconvolve(&schedule, &data);
        let got = map.total_ion_drift_profile();
        let truth = data.truth.total_ion_drift_profile();
        let (apex_got, _) = ims_signal::stats::argmax(&got).unwrap();
        let (apex_truth, _) = ims_signal::stats::argmax(&truth).unwrap();
        prop_assert!(apex_got.abs_diff(apex_truth) <= 1,
            "apex {apex_got} vs truth {apex_truth}");
    }
}

// --- Sparse block path: equivalence and round-trip across occupancy ------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fixed-point block path over a sparse block's occupied columns
    /// is bit-identical to the dense block walk at every occupancy level,
    /// and the run index describes the block exactly: each row's runs
    /// cover its non-zero cells and nothing else, ascending and coalesced;
    /// `nnz` is their count; the occupied columns are exactly the columns
    /// holding a non-zero.
    #[test]
    fn sparse_block_deconvolution_matches_dense_across_occupancy(
        degree in 3u32..6,
        mz in 8usize..40,
        seed in 0u64..200,
        keep_every in 1usize..16,
    ) {
        use htims_core::parallel::{deconvolve_fixed_point, Workers};
        use ims_fpga::{DeconvConfig, DeconvCore, SparseBlock};
        let n = (1usize << degree) - 1;
        let data: Vec<u64> = (0..n * mz)
            .map(|i| {
                let m = i % mz;
                if m % keep_every == 0 {
                    ((i as u64).wrapping_mul(seed.wrapping_add(11)) % 4096) + 1
                } else {
                    0
                }
            })
            .collect();
        let index = SparseBlock::index_below(&data, n, mz, f64::INFINITY).expect("no limit");
        for (d, row) in data.chunks_exact(mz).enumerate() {
            let mut covered = vec![false; mz];
            let mut end = None;
            for run in index.row_runs(d) {
                let (start, len) = (run.start as usize, run.len as usize);
                prop_assert!(
                    len > 0 && end.is_none_or(|e| start > e),
                    "row {d}: runs not ascending and coalesced: {:?}",
                    index.row_runs(d)
                );
                covered[start..start + len].fill(true);
                end = Some(start + len);
            }
            let nonzero: Vec<bool> = row.iter().map(|&v| v != 0).collect();
            prop_assert_eq!(covered, nonzero, "row {}", d);
        }
        prop_assert_eq!(index.nnz(), data.iter().filter(|&&v| v != 0).count());
        let occupied: Vec<usize> = (0..mz)
            .filter(|&c| data.chunks_exact(mz).any(|row| row[c] != 0))
            .collect();
        prop_assert_eq!(index.occupied_columns(), &occupied[..]);

        let core = DeconvCore::new(&ims_prs::MSequence::new(degree), DeconvConfig::default());
        let sparse = deconvolve_fixed_point(
            &core,
            &data,
            Some(index.occupied_columns()),
            Workers::Threads(1),
        );
        prop_assert_eq!(core.deconvolve_block(&data, mz), sparse);
    }
}

// --- Block decoder: untrusted bytes are a typed error, never an abort -----

/// A small valid container of either kind.
fn stored_block_bytes(sparse: bool) -> Vec<u8> {
    use htims_core::format::StoredBlock;
    let mut map = DriftTofMap::zeros(6, 9);
    for (i, v) in map.data_mut().iter_mut().enumerate() {
        if i % 3 != 0 {
            *v = i as f64 * 1.5;
        }
    }
    let block = StoredBlock {
        frames: 3,
        bin_width_s: 1e-4,
        mz_min: 200.0,
        mz_max: 2200.0,
        map,
    };
    let bytes = if sparse {
        block.to_binary_sparse()
    } else {
        block.to_binary_dense()
    };
    bytes.to_vec()
}

/// Decodes `bytes`; an accepted map must fit what its payload can hold.
fn decode_checked(bytes: Vec<u8>) -> Result<(), TestCaseError> {
    use htims_core::format::{StoredBlock, MAX_SPARSE_CELLS};
    let len = bytes.len();
    if let Ok(block) = StoredBlock::from_binary(bytes::Bytes::from(bytes)) {
        let cells = block.map.data().len();
        prop_assert!(
            cells <= MAX_SPARSE_CELLS || 48 + 4 * cells == len,
            "{cells} cells from {len} bytes"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare and behind a valid magic, version and kind.
    #[test]
    fn block_decoder_rejects_arbitrary_bytes_without_panicking(
        sparse in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        decode_checked(bytes.clone())?;
        let mut framed = stored_block_bytes(sparse);
        framed.truncate(8);
        framed.extend_from_slice(&bytes);
        decode_checked(framed)?;
    }

    /// Valid containers with a few bytes overwritten (the header's map
    /// dimensions among them) and, sometimes, a torn tail.
    #[test]
    fn block_decoder_survives_mutated_encodings(
        sparse in any::<bool>(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        cut in any::<usize>(),
    ) {
        let mut bytes = stored_block_bytes(sparse);
        let len = bytes.len();
        for &(at, value) in &edits {
            bytes[at % len] = value;
        }
        if cut.is_multiple_of(3) {
            bytes.truncate(cut % bytes.len());
        }
        decode_checked(bytes)?;
    }
}
